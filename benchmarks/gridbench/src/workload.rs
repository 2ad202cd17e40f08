//! The four workloads: what each serves, why it exists, and its set-up
//! (campaign expansion plus the precomputed baseline outputs the client
//! replays and the served artifact is checked against).
//!
//! What `--seed` drives: the protein library (one of a few pre-sized ones,
//! see [`WIRE_LIBRARIES`]), the agent identities and, in `grid_mixed`, the
//! saboteur's dice (which row of each payload it corrupts, and how). The
//! server receives only what is generated from it.

use gridsim::ServerConfig;
use maxdo::DockingOutput;
use netgrid::{
    CampaignDef, CampaignParams, FaultDice, FaultProfile, FsyncPolicy, JournalConfig, NetCampaign,
    ServerFaults, TrustConfig,
};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WireSteady,
    WireDurable,
    GridMixed,
    VolunteerKernel,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, i.e. gated by the driver, which accepts
    /// a benchmark only while every gated metric's spread over ten seeds
    /// (IQR ÷ median) stays inside its bound, 0.25 at most. `grid_mixed`
    /// is not: its `wu_per_s` spread 0.17 while `wire_steady` spread 0.07
    /// (ten 22 s runs each, interleaved), 0.29 against 0.19 an hour later
    /// when the shared host was busier, and 0.26 in one of five earlier
    /// sets — per-ask connection churn plus page-cache churn make it the
    /// workload that follows the host's mood most closely. `run`, `trace`,
    /// `smoke` and `check` cover all four.
    pub gated: bool,
}

/// In the order the interleaved passes run them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::WireSteady,
        name: "wire_steady",
        why: "880-wu campaign over 2 persistent connections, no journal/trust/kernel: the bare request path server+sys+protocol+state",
        gated: true,
    },
    Workload {
        kind: Kind::WireDurable,
        name: "wire_durable",
        why: "wire_steady's traffic with the write-ahead journal on, then timed recovery: the difference is the journal's price",
        gated: true,
    },
    Workload {
        kind: Kind::GridMixed,
        name: "grid_mixed",
        why: "2 fair-share campaigns, trust on, journal on, 8 identities incl. a saboteur, one session per ask: accept/close churn, reject path, registry N=2",
        gated: false,
    },
    Workload {
        kind: Kind::VolunteerKernel,
        name: "volunteer_kernel",
        why: "one real run_agent docking 264 wu of ~13 ms under bounds-check validation: maxdo dominates, the wire is under 2 % of wall",
        gated: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `Full` is what every reported number uses; `Tiny` keeps the crate's
/// unit tests (debug build, real kernel) in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Library seeds of the `wire_*` campaigns; `--seed` picks one. A library
/// seed moves the catalog between 704 and 944 workunits and the set-up's
/// kernel cost by half, which would drown every metric's run-to-run
/// spread in input variation — so these are the four of seeds 1..=400
/// whose 16-protein campaign has exactly 880 workunits (and 18 480 result
/// rows, hence identical frame sizes) and whose baseline takes the same
/// time to compute within 4 %. Another seed is other proteins, other
/// payloads and another launch order, not another amount of work.
const WIRE_LIBRARIES: [u64; 4] = [87, 107, 206, 290];

/// The same for `volunteer_kernel`, where the library decides the kernel's
/// cost outright (1.7 to 8.5 s per campaign over seeds 1..=300): the four
/// whose 6-protein campaign has 264 workunits and docks in the same time
/// within 2 % (≈ 13 ms per workunit).
const KERNEL_LIBRARIES: [u64; 4] = [12, 36, 96, 158];

/// `grid_mixed` keeps one pair of libraries for every seed: its
/// `replicas_per_wu` — how many replicas the trust policy issued against
/// this saboteur — is compared exactly, and another catalog is another
/// count (1.34 to 1.63 over eight libraries, throughput 2.5x). What its
/// seed varies is what its layers consume: the identities and the
/// corrupted payloads.
const MIXED_LIBRARIES: [u64; 2] = [42, 43];

fn pick(libraries: &[u64; 4], seed: u64) -> u64 {
    libraries[(seed % 4) as usize]
}

/// Replica deadline: far beyond any run, so no replica ever expires and
/// the server-side history is a function of the request order alone.
const DEADLINE_SECONDS: f64 = 3_600.0;

impl Kind {
    /// The campaign roster the server hosts for `--seed seed`.
    pub fn defs(self, scale: Scale, seed: u64) -> Vec<CampaignDef> {
        let wire = |proteins: u32, lib_seed: u64| CampaignParams {
            proteins,
            lib_seed,
            h_seconds: 40.0,
            separation_spacing: 30.0,
            max_iterations: 10,
        };
        let tiny = scale == Scale::Tiny;
        match self {
            Kind::WireSteady | Kind::WireDurable => vec![CampaignDef::default_solo(wire(
                if tiny { 2 } else { 16 },
                pick(&WIRE_LIBRARIES, seed),
            ))],
            Kind::GridMixed => [("alpha", 0.7, 1), ("beta", 0.3, 0)]
                .into_iter()
                .zip(MIXED_LIBRARIES)
                .map(|((name, share, priority), lib_seed)| CampaignDef {
                    name: name.into(),
                    params: wire(if tiny { 2 } else { 12 }, lib_seed),
                    share,
                    priority,
                })
                .collect(),
            Kind::VolunteerKernel => vec![CampaignDef::default_solo(if tiny {
                wire(2, pick(&KERNEL_LIBRARIES, seed))
            } else {
                CampaignParams {
                    proteins: 6,
                    lib_seed: pick(&KERNEL_LIBRARIES, seed),
                    h_seconds: 40.0,
                    separation_spacing: 20.0,
                    max_iterations: 40,
                }
            })],
        }
    }

    pub fn journaled(self) -> bool {
        matches!(self, Kind::WireDurable | Kind::GridMixed)
    }

    /// The journal of the journaled workloads: default snapshot cadence,
    /// **no fsync**. With the shipped `every=64` policy a fifth of the
    /// timed window is the sandbox's shared virtual disk answering
    /// `fdatasync`: on a quiet host, ten seeds of `wire_durable` spread
    /// 9 % and of `grid_mixed` 13 % around their medians (2 % and 3 %
    /// without), more than a third of the widest bound the gate allows,
    /// and `server_cpu_us_per_wu` and `ask_p50_us` widen with them. That
    /// is this host's disk, not the program and not a deployment's disk.
    /// So the end-to-end numbers measure what the journal costs the
    /// *program* — serialising each record and writing it to the page
    /// cache — plus its bytes and its replay; what one batched
    /// `fdatasync` costs on this disk is the traced run's
    /// `journal.fsync_us`, unbounded.
    pub fn journal_config(dir: &Path) -> JournalConfig {
        JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(dir)
        }
    }

    /// Whether the client is the benchmark's own closed-loop wire client
    /// (as opposed to a real `run_agent`).
    pub fn scripted(self) -> bool {
        self != Kind::VolunteerKernel
    }

    pub fn scheduler(self) -> ServerConfig {
        ServerConfig {
            // Day 0 switch = bounds-check validation from the first
            // result, one replica per workunit: the paper's regime after
            // day 110. Everything else stays in the quorum-of-2 era.
            validation_switch_day: match self {
                Kind::VolunteerKernel => Some(0),
                _ => ServerConfig::default().validation_switch_day,
            },
            deadline_seconds: DEADLINE_SECONDS,
            feeder: None,
        }
    }

    pub fn faults(self) -> ServerFaults {
        ServerFaults {
            // The spot-check draw keeps its default seed: which singles
            // get audited decides who is trusted when, and a seeded draw
            // moved `replicas_per_wu` by 15 % and throughput by 2x
            // between seeds — input variation, not measurement.
            trust: match self {
                Kind::GridMixed => TrustConfig::on(),
                _ => TrustConfig::off(),
            },
            ..ServerFaults::default()
        }
    }
}

/// One campaign after set-up.
pub struct PreparedCampaign {
    pub def: CampaignDef,
    pub campaign: NetCampaign,
    /// `NetCampaign::baseline_outputs()`, computed workunit by workunit
    /// so each one's kernel time is known.
    pub outputs: Vec<DockingOutput>,
    /// Kernel wall time of each workunit, ns.
    pub compute_ns: Vec<u64>,
    /// Canonical JSON of `outputs`: the bytes the served artifact must
    /// equal.
    pub artifact: String,
    /// `NetCampaign::build` wall time, ms.
    pub build_ms: f64,
}

/// Everything set-up produces for one workload.
pub struct Prepared {
    pub campaigns: Vec<PreparedCampaign>,
}

impl Prepared {
    pub fn workunits(&self) -> usize {
        self.campaigns.iter().map(|c| c.campaign.len()).sum()
    }

    pub fn compute_seconds(&self) -> f64 {
        self.campaigns
            .iter()
            .flat_map(|c| &c.compute_ns)
            .sum::<u64>() as f64
            * 1e-9
    }
}

/// Set-up: expand every campaign of `--seed seed` and precompute its
/// baseline outputs.
pub fn prepare(kind: Kind, scale: Scale, seed: u64) -> Prepared {
    let campaigns = kind
        .defs(scale, seed)
        .into_iter()
        .map(|def| {
            let t = Instant::now();
            let campaign = NetCampaign::build(def.params);
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut outputs = Vec::with_capacity(campaign.len());
            let mut compute_ns = Vec::with_capacity(campaign.len());
            for &spec in campaign.specs() {
                let t = Instant::now();
                outputs.push(campaign.compute(spec));
                compute_ns.push(t.elapsed().as_nanos() as u64);
            }
            let artifact = artifact_json(&outputs);
            PreparedCampaign {
                def,
                campaign,
                outputs,
                compute_ns,
                artifact,
                build_ms,
            }
        })
        .collect();
    Prepared { campaigns }
}

/// The byte form artifacts are compared in.
pub fn artifact_json(outputs: &[DockingOutput]) -> String {
    serde_json::to_string(&outputs).expect("DockingOutput serializes")
}

/// The agent identities a run plays, derived from `--seed`.
pub struct Identities {
    /// Agent ids in service order.
    pub ids: Vec<u64>,
    /// Index into `ids` of the identity that corrupts every payload.
    pub saboteur: Option<usize>,
}

impl Identities {
    pub fn for_run(kind: Kind, seed: u64) -> Self {
        let count = match kind {
            Kind::GridMixed => 8,
            Kind::WireSteady | Kind::WireDurable => 2,
            Kind::VolunteerKernel => 1,
        };
        // Sixteen decimal digits, always: never 0 (the server's "no
        // Hello yet" value), exact in JSON (< 2^53), and the same width
        // in every journal record whatever the seed.
        let ids: Vec<u64> = (0..count)
            .map(|i| {
                let r = splitmix64(seed.wrapping_add(i).wrapping_mul(0x9e37));
                1_000_000_000_000_000 + r % 8_000_000_000_000_000
            })
            .collect();
        Self {
            ids,
            // Fixed, not seeded: who reports right after the saboteur
            // decides which honest agents lose quorum votes and trust,
            // and moving it changes throughput by 2x between seeds.
            saboteur: (kind == Kind::GridMixed).then_some(1),
        }
    }

    /// The saboteur's corruption stream.
    pub fn saboteur_dice(&self, seed: u64) -> Option<FaultDice> {
        self.saboteur
            .map(|i| FaultDice::new(seed, self.ids[i], FaultProfile::saboteur()))
    }
}

/// SplitMix64 — derives independent-looking values from one seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_are_a_function_of_the_seed() {
        let a = Identities::for_run(Kind::GridMixed, 7);
        let b = Identities::for_run(Kind::GridMixed, 7);
        let c = Identities::for_run(Kind::GridMixed, 8);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.saboteur, b.saboteur);
        assert_ne!(a.ids, c.ids);
        assert_eq!(a.ids.len(), 8);
        assert!(a.ids.iter().all(|&id| id != 0));
        let mut unique = a.ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8);
        assert!(Identities::for_run(Kind::WireSteady, 7).saboteur.is_none());
    }

    /// Whatever library the seed picks, the campaign is the same size: the
    /// seed changes the inputs, not the amount of work.
    #[test]
    fn seeded_libraries_are_the_same_size() {
        for (kind, workunits) in [(Kind::WireSteady, 880), (Kind::VolunteerKernel, 264)] {
            let mut libraries = Vec::new();
            for seed in 0..4 {
                let defs = kind.defs(Scale::Full, seed);
                assert_eq!(defs, kind.defs(Scale::Full, seed + 4));
                assert_eq!(NetCampaign::build(defs[0].params).len(), workunits);
                libraries.push(defs[0].params.lib_seed);
            }
            libraries.dedup();
            assert_eq!(libraries.len(), 4, "{kind:?}");
        }
        assert_eq!(
            Kind::GridMixed.defs(Scale::Full, 1),
            Kind::GridMixed.defs(Scale::Full, 2)
        );
    }

    #[test]
    fn every_workload_has_a_distinct_name() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).map(|x| x.kind), Some(w.kind));
            assert!(w.why.len() <= 200, "{}", w.name);
        }
        assert!(by_name("nope").is_none());
    }
}
