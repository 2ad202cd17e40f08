//! The docking kernel's output, pinned as literals.
//!
//! Every artifact, quorum fingerprint and `*_matches_baseline` check in
//! the repository compares the kernel with itself, so a change to
//! `maxdo::energy` that moves a low-order bit everywhere at once passes
//! them all. The values below were recorded at the one-division pair
//! arithmetic (PR 25, which re-recorded the values the 27-cell probe and
//! the voxel index had both reproduced); a kernel change that claims
//! "bit-identical" has to reproduce them unedited, and one that knowingly
//! moves bits re-records them in the same PR and says so.
//!
//! The payload digests are this file's own FNV-1a 64 over the binary
//! row records (`netgrid::protocol::binary::row_bytes`) — the definition
//! the literals were recorded with. The test does not depend on
//! `netgrid::fingerprint`, so the server's quorum hash can change
//! without this file, whose one job is to prove the *kernel* did not
//! move, being re-recorded.
//!
//! On a mismatch each test prints the table it computed, in the
//! literal's own format.

use maxdo::{
    minimize_fire, CellList, DockingEngine, DockingOutput, EnergyParams, EulerZyz, FireParams,
    LibraryConfig, MinimizeParams, Pose, ProteinId, ProteinLibrary, Vec3,
};
use netgrid::protocol::binary::row_bytes;
use netgrid::{CampaignParams, NetCampaign};

/// FNV-1a 64 of `bytes`, continued from the hash `h`.
fn fnv1a(h: u64, bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `evaluations ‖ row count ‖ row records`, all little-endian.
fn payload_bytes(out: &DockingOutput) -> impl Iterator<Item = u8> + '_ {
    let header = [
        &out.evaluations.to_le_bytes()[..],
        &(out.rows.len() as u32).to_le_bytes(),
    ];
    let rows = out.rows.iter().map(row_bytes);
    header.concat().into_iter().chain(rows.flatten())
}

/// FNV-1a 64 of one workunit's payload bytes: the digest the literals
/// below hold.
fn payload_digest(out: &DockingOutput) -> u64 {
    fnv1a(FNV_OFFSET, payload_bytes(out))
}

/// `payload_digest evaluations` of every workunit of the tiny campaign, in
/// catalog order.
const TINY_CAMPAIGN: &str = "\
95feaa4d75b9bab8 410
8a7b75c8cc32e84a 250
a59e527b74c68275 280
8b5692758181924f 480
10c98f59b97b2ce9 350
ef91666da23c461a 240
65037f3fee8b33e9 270
07f0aaa8cde3b081 340
98cc0908b1c1dd6f 320
5ea9cb0ce63a3d2e 620
32269e2654af5ef3 1140
f4e09f7ce011094e 420
08a8fb01736192d4 250
c93a946ac8d27237 520
fc3f1a747e4df22e 1080
d857c8cff1fe8411 270
";

/// Two starting positions of one couple of proteins the size of the
/// paper's (hundreds of beads, several cutoff lengths across): bead
/// counts, then `payload_digest` and `evaluations`.
const PAPER_SCALE: (usize, usize, u64, u64) = (296, 304, 0x5fe93a768de1d0ba, 1268);

/// One FIRE relaxation of the same couple from deep contact, where every
/// ligand bead has receptor beads inside the cutoff: `elj eelec x y z`
/// bits, then evaluations.
const FIRE: ([u64; 5], usize) = (
    [
        0xc0392ae7f6a30f68,
        0xbfbea742ab2f47d5,
        0x4038286c8ad8a73c,
        0xbfecfd5071400b64,
        0xbfc1fdd288569aa1,
    ],
    81,
);

/// Two of the benchmark's own campaigns, whole catalogs (recorded at the
/// kernel without the reach cull): `benchmarks/gridbench`'s wire library
/// 87 (880 workunits docked far from contact) and kernel library 12 (264
/// workunits docked near it). Per campaign: library seed, proteins,
/// separation spacing, minimiser iterations, then one FNV-1a 64 over
/// every workunit's payload bytes in catalog order and the total
/// evaluations.
const BENCHMARK_CAMPAIGNS: [(u64, u32, f64, u32, u64, u64); 2] = [
    (87, 16, 30.0, 10, 0xa2b2fdc7b5e781cb, 711_980),
    (12, 6, 20.0, 40, 0xb50cf38b4b4bdfc2, 822_518),
];

/// About 2.5 s in release; wire library 87 alone takes about 5 s in a
/// debug build, so the debug suite skips it and the release run of this
/// file checks it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn benchmark_campaigns_match_the_recorded_kernel() {
    let computed = BENCHMARK_CAMPAIGNS.map(|(lib_seed, proteins, spacing, iterations, ..)| {
        let campaign = NetCampaign::build(CampaignParams {
            proteins,
            lib_seed,
            h_seconds: 40.0,
            separation_spacing: spacing,
            max_iterations: iterations,
        });
        let (mut digest, mut evaluations) = (FNV_OFFSET, 0);
        for &spec in campaign.specs() {
            let out = campaign.compute(spec);
            digest = fnv1a(digest, payload_bytes(&out));
            evaluations += out.evaluations;
        }
        (lib_seed, proteins, spacing, iterations, digest, evaluations)
    });
    let table = computed.map(
        |(lib, proteins, spacing, iterations, digest, evaluations)| {
            format!("({lib}, {proteins}, {spacing:?}, {iterations}, {digest:#x}, {evaluations})")
        },
    );
    assert!(computed == BENCHMARK_CAMPAIGNS, "computed: {table:#?}");
}

#[test]
fn tiny_campaign_workunits_match_the_recorded_kernel() {
    let campaign = NetCampaign::build(CampaignParams::tiny());
    let table: String = campaign
        .specs()
        .iter()
        .map(|&spec| {
            let out = campaign.compute(spec);
            format!("{:016x} {}\n", payload_digest(&out), out.evaluations)
        })
        .collect();
    assert!(table == TINY_CAMPAIGN, "computed:\n{table}");
}

/// Proteins of 180 to 400 residues, as in the phase-I set.
fn paper_scale_library() -> ProteinLibrary {
    ProteinLibrary::generate(
        LibraryConfig {
            median_residues: 230.0,
            sigma_log_residues: 0.3,
            min_residues: 180,
            max_residues: 400,
            ..LibraryConfig::tiny(2)
        },
        2008,
    )
}

#[test]
fn paper_scale_couple_matches_the_recorded_kernel() {
    let lib = paper_scale_library();
    let engine = DockingEngine::for_couple(
        &lib,
        ProteinId(0),
        ProteinId(1),
        EnergyParams::default(),
        MinimizeParams {
            max_iterations: 8,
            ..MinimizeParams::default()
        },
    );
    let out = engine.dock_range(1, 2);
    let computed = (
        engine.receptor().bead_count(),
        engine.ligand().bead_count(),
        payload_digest(&out),
        out.evaluations,
    );
    assert!(computed == PAPER_SCALE, "computed: {computed:#x?}");
}

#[test]
fn fire_relaxation_matches_the_recorded_kernel() {
    let lib = paper_scale_library();
    let (receptor, ligand) = (&lib.proteins()[0], &lib.proteins()[1]);
    let params = EnergyParams::default();
    let cells = CellList::build(receptor, params.cutoff);
    let start = Pose::from_euler(
        EulerZyz {
            alpha: 0.4,
            beta: 1.0,
            gamma: 0.2,
        },
        Vec3::new(
            receptor.surface_radius() + ligand.bounding_radius() * 0.2,
            1.0,
            -2.0,
        ),
    );
    let fire = FireParams {
        max_steps: 80,
        ..FireParams::default()
    };
    let res = minimize_fire(receptor, &cells, ligand, start, &params, &fire);
    let t = res.pose.translation;
    let computed = (
        [res.energy.elj, res.energy.eelec, t.x, t.y, t.z].map(f64::to_bits),
        res.evaluations,
    );
    assert!(computed == FIRE, "computed: {computed:#x?}");
}
