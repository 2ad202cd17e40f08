//! The MAXDo interaction energy.
//!
//! §2.1: "The quality of the protein-protein interaction can be evaluated
//! through an interaction energy (expressed in kcal·mol⁻¹), which is the
//! sum of two contributions; a Lennard-Jones term (Elj), and an
//! electrostatic term (Eelec) ... The more negative the sum of these two
//! contributions is, the stronger the protein-protein interaction."
//!
//! This module evaluates `Etot = Elj + Eelec` between a rigid receptor and
//! a rigid ligand in a given [`Pose`], together with its analytic gradient
//! with respect to the ligand's six rigid-body degrees of freedom (force on
//! the mass centre + torque about it), which drives the minimiser.
//!
//! Implementation notes (hpc-parallel idioms):
//! * the receptor is indexed once into a [`CellList`]: a grid of voxels
//!   0.4 cutoffs wide, each holding the precomputed list of receptor
//!   beads that can be within the cutoff of a point inside it. A posed
//!   ligand bead costs one voxel lookup and one short candidate run —
//!   evaluation is `O(B_ligand · local density)` instead of
//!   `O(B_receptor · B_ligand)`, and one candidate in three survives the
//!   exact distance test (one in fourteen did when a probe scanned the
//!   27 cutoff-sized cells around it);
//! * a ligand bead is culled before it is posed when one dot product
//!   puts it beyond the receptor's reach. With `u = t/|t|` and
//!   `w = Rᵀu` computed once per evaluation, the bead at body offset `p`
//!   lies at least `w·p + |t|` from the receptor's origin (`|R·p + t| ≥
//!   u·(R·p + t)`). [`CellList`] keeps `reach`, the receptor's bounding
//!   radius plus the cutoff plus `VOXEL_SLACK`'s slack; a bead whose
//!   bound is at least that has no receptor bead within the cutoff, and
//!   skips its rotation, voxel lookup and candidate run. The bound, the
//!   posed position and the distance test each round by ~1e-13 Å for
//!   coordinates below 1e3 Å (the only ones a bead near the reach sphere
//!   can have), and the slack (5e-6 Å at the default cutoff) swallows
//!   them with seven orders of magnitude to spare. A culled bead would
//!   have had no pair, so the sums keep every bit. Far from contact most
//!   beads go this way (81–84 % of bead visits on the benchmark's wire
//!   campaigns, 60–66 % on its kernel campaigns);
//! * energies are *cutoff-shifted* so `E(r_cut) = 0` exactly and the
//!   landscape stays continuous for the minimiser;
//! * inter-bead distances are softened (`r_eff² = r² + δ²`) so overlapping
//!   starting poses produce large-but-finite energies and gradients;
//! * an in-cutoff pair costs one division, `inv = 1/r_eff²`, and no
//!   square root: the LJ powers, the Coulomb term and the gradient are
//!   all products of `inv`, and each ligand bead's force is summed before
//!   its one torque cross product.
//!
//! Floating-point sums depend on their order, and every result file,
//! quorum fingerprint and merged artifact in this repository is compared
//! bit for bit. The order in which a ligand bead's pairs are accumulated
//! is therefore part of this module's contract, not an accident of the
//! index: see [`CellList`].

use crate::geom::{Pose, Vec3};
use crate::model::Protein;
use serde::{Deserialize, Serialize};

/// Coulomb constant in kcal·Å·mol⁻¹·e⁻².
pub const COULOMB_KCAL: f64 = 332.0636;

/// Force-field parameters of the reduced-model energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// Interaction cutoff distance in Å (pairs beyond it contribute 0).
    pub cutoff: f64,
    /// Distance softening δ in Å (`r_eff² = r² + δ²`).
    pub softening: f64,
    /// Dielectric prefactor ε₀ of the distance-dependent dielectric
    /// `ε(r) = ε₀·r`, which makes `Eelec ∝ 1/r²` — the usual implicit-
    /// solvent screening of reduced protein models.
    pub dielectric: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            cutoff: 12.0,
            softening: 1.0,
            dielectric: 15.0,
        }
    }
}

/// An interaction energy split into its two published contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Lennard-Jones contribution, kcal·mol⁻¹.
    pub elj: f64,
    /// Electrostatic contribution, kcal·mol⁻¹.
    pub eelec: f64,
}

impl EnergyBreakdown {
    /// `Etot = Elj + Eelec`.
    pub fn total(&self) -> f64 {
        self.elj + self.eelec
    }
}

/// Energy, force and torque of a ligand pose; the gradient of `Etot` with
/// respect to the ligand's rigid degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyGradient {
    /// Energy breakdown at the pose.
    pub energy: EnergyBreakdown,
    /// Net force on the ligand (−∂E/∂t), kcal·mol⁻¹·Å⁻¹.
    pub force: Vec3,
    /// Net torque about the ligand mass centre, kcal·mol⁻¹·rad⁻¹.
    pub torque: Vec3,
}

/// Voxels per cutoff length along each axis of the neighbour grid. Finer
/// voxels hug the cutoff sphere more tightly — fewer rejected candidates
/// per probe — and cost memory cubically. Measured after the reach cull
/// on the four `volunteer_kernel` libraries (6 proteins each, the whole
/// baseline docked per variant; `taskset -c 1`, 10 interleaved runs,
/// 2-vCPU x86-64 VM): candidates per evaluation, the median docking time
/// relative to 2.5 voxels on 32-bit candidate ids (whose runs'
/// quartiles are 0.90 and 1.06), and the index a campaign keeps, with
/// the candidate slot ids stored as `u32` or as `u16` (as built):
///
/// | voxels/cutoff | candidates/eval | time, u32 ids | time, u16 ids | index, u32 ids | index, u16 ids |
/// |---|---|---|---|---|---|
/// | 2.5 | 156 | 1.00 | 1.03 | 155 KB | 88 KB |
/// | 3   | 135 | 0.98 | 0.97 | 238 KB | 133 KB |
/// | 3.5 | 120 | 0.97 | 0.96 | 347 KB | 194 KB |
/// | 4   | 111 | 1.04 | 1.00 | 484 KB | 270 KB |
///
/// Every variant docks the same bits. With the reach cull skipping most
/// bead visits, the candidate tests finer voxels save do not show in
/// docking time on that VM: every median is inside the noise. The
/// index is what moves, and `peak_rss_mb` is the tight gate for it
/// (gridbench's RSS rises ~1.8 bytes per index byte). So the index is
/// the smallest row, 2.5 voxels on 16-bit ids: the ids are most of its
/// bytes, and 16 bits halve them (the whole index, 480 → 269 KB on the
/// `wire_*` library 87) at no resolved cost in time. The price is a
/// bound on the receptor, [`MAX_RECEPTOR_BEADS`], 28 times the largest
/// protein the campaigns dock (the phase-I catalog's has 2 315 beads).
const VOXELS_PER_CUTOFF: f64 = 2.5;

/// The most beads [`CellList::build`] indexes: a candidate slot id is a
/// `u16`. A larger receptor is refused, not indexed some other way.
const MAX_RECEPTOR_BEADS: usize = 1 << 16;

/// How far, in voxel edges, a bead's reach is inflated beyond the cutoff
/// when it is rasterised into voxels. The voxel a probe maps to and the
/// box that voxel was rasterised as are computed by different roundings
/// (`⌊(p − o)·(1/e)⌋` against `o + i·e`), and the exact test
/// `r² < cutoff²` rounds too, so a probe can sit a few ulps outside its
/// voxel's box and still be within the cutoff of a bead. Those errors are
/// ~1e-13 Å for coordinates below 1e3 Å; the slack (5e-6 Å at the default
/// cutoff) swallows them with seven orders of magnitude to spare and adds
/// no measurable candidates.
const VOXEL_SLACK: f64 = 1e-6;

/// The geometry of the neighbour grid: an axis-aligned box of cubic
/// voxels. Build and query map a coordinate to a voxel through the one
/// expression in [`VoxelGrid::axis_coord`].
#[derive(Debug, Clone)]
struct VoxelGrid {
    origin: Vec3,
    edge: f64,
    /// `1 / edge`: a probe scales three coordinates per ligand bead by a
    /// multiply instead of a division.
    inv_edge: f64,
    dims: [usize; 3],
}

impl VoxelGrid {
    /// Where `x` falls along an axis starting at `origin`, in voxel
    /// edges; its integer part is the voxel coordinate. NaN for NaN,
    /// negative or `>= dims` outside the grid.
    #[inline]
    fn axis_coord(&self, x: f64, origin: f64) -> f64 {
        (x - origin) * self.inv_edge
    }

    /// The voxel holding `p`, or `None` when `p` is outside the grid or
    /// not a number.
    #[inline]
    fn voxel_of(&self, p: Vec3) -> Option<usize> {
        // NaN fails both comparisons; truncation is `floor` from 0 up.
        let cell = |x: f64, origin: f64, n: usize| {
            let t = self.axis_coord(x, origin);
            (t >= 0.0 && t < n as f64).then_some(t as usize)
        };
        let [nx, ny, nz] = self.dims;
        let ix = cell(p.x, self.origin.x, nx)?;
        let iy = cell(p.y, self.origin.y, ny)?;
        let iz = cell(p.z, self.origin.z, nz)?;
        Some((ix * ny + iy) * nz + iz)
    }

    /// Calls `f` with every voxel whose box comes within `reach` of
    /// `bead`.
    fn for_each_voxel_within(&self, bead: Vec3, reach: f64, mut f: impl FnMut(usize)) {
        // Per axis: the voxel coordinates the reach interval spans, with
        // the squared distance from the bead to each one's slab.
        let slabs = |x: f64, origin: f64, n: usize| -> (usize, Vec<f64>) {
            // Saturating casts clamp to the grid from below.
            let first = self.axis_coord(x - reach, origin) as usize;
            let last = (self.axis_coord(x + reach, origin) as usize).min(n - 1);
            let gaps = (first..=last)
                .map(|i| {
                    let lo = origin + i as f64 * self.edge;
                    let hi = origin + (i + 1) as f64 * self.edge;
                    let gap = (lo - x).max(x - hi).max(0.0);
                    gap * gap
                })
                .collect();
            (first, gaps)
        };
        let [nx, ny, nz] = self.dims;
        let (x0, gx) = slabs(bead.x, self.origin.x, nx);
        let (y0, gy) = slabs(bead.y, self.origin.y, ny);
        let (z0, gz) = slabs(bead.z, self.origin.z, nz);
        let reach_sq = reach * reach;
        for (ix, dx) in gx.iter().enumerate() {
            for (iy, dy) in gy.iter().enumerate() {
                let row = ((x0 + ix) * ny + y0 + iy) * nz + z0;
                for (iz, dz) in gz.iter().enumerate() {
                    if dx + dy + dz < reach_sq {
                        f(row + iz);
                    }
                }
            }
        }
    }
}

/// The receptor-side index of the energy kernel: for every voxel of a
/// grid around the receptor, the receptor beads that can lie within the
/// cutoff of a point in that voxel, precomputed — the exact,
/// non-interpolated relative of a docking grid map. Built once per
/// receptor and probed by the tens of thousands of energy evaluations of
/// a docking map.
///
/// Receptor beads live in *slots*: position and pair-table row index,
/// sorted by the bead's cell in a coarse grid (edge = cutoff, anchored at
/// the receptor's bounding-box minimum, x-major) and by bead index
/// within a cell. A probe returns one *candidate run* of
/// slot indices, and the contract the kernel relies on is:
///
/// * **superset** — every slot within the cutoff of the probe point is in
///   the run (callers still apply the exact `r² < cutoff²` test); a probe
///   outside the grid, or NaN, gets the empty run, and nothing is within
///   the cutoff of it;
/// * **strictly ascending** — slots appear in increasing order, so pairs
///   are accumulated in slot order whichever superset the index returns.
///   That order is the one every recorded artifact was summed in (it is
///   what scanning the 27 coarse cells around a bead used to produce);
///   any other order changes low-order bits of `elj`/`eelec`/force/
///   torque, which the minimiser then amplifies into different rows.
///   `tests/kernel_identity.rs` pins it.
///
/// Slot ids are 16-bit, so a receptor has at most 65 536 beads;
/// [`CellList::build`] panics on a larger one before it allocates.
#[derive(Debug, Clone)]
pub struct CellList {
    /// The cutoff the runs were rasterised for; a superset for any
    /// smaller one too.
    cutoff: f64,
    grid: VoxelGrid,
    /// CSR offsets: voxel `v`'s candidate run is
    /// `candidates[run_starts[v] .. run_starts[v + 1]]`.
    run_starts: Vec<u32>,
    /// Candidate slot indices, ascending within each voxel's run.
    candidates: Vec<u16>,
    /// What the pair loop reads of each receptor bead, in slot order.
    slots: Vec<Slot>,
    /// The receptor's largest bead distance from its origin, plus the
    /// cutoff and a slack: no point at least this far from the origin
    /// has a receptor bead within the cutoff.
    reach: f64,
}

/// One receptor bead as the pair loop sees it: a run is a gather by slot
/// index, so position and kind sit together (half a cache line).
#[derive(Debug, Clone, Copy)]
struct Slot {
    position: Vec3,
    /// [`PairTable`] row index of the bead's kind.
    kind: u8,
}

impl CellList {
    /// Indexes `receptor`'s beads for probes with interaction cutoff
    /// `cutoff`.
    ///
    /// # Panics
    ///
    /// If `cutoff` is not positive, or `receptor` has more than 65 536
    /// beads.
    pub fn build(receptor: &Protein, cutoff: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let beads = receptor.beads();
        assert!(
            beads.len() <= MAX_RECEPTOR_BEADS,
            "a receptor of {} beads is over the index's limit of 65 536 beads",
            beads.len()
        );
        let mut lo = beads[0].position;
        let mut hi = beads[0].position;
        for b in beads {
            lo = lo.min(b.position);
            hi = hi.max(b.position);
        }
        // Slot order: coarse cell (x-major), then bead index — the
        // stable sort keeps equal keys in bead order.
        let coarse = |p: Vec3| {
            [
                ((p.x - lo.x) / cutoff).floor() as i64,
                ((p.y - lo.y) / cutoff).floor() as i64,
                ((p.z - lo.z) / cutoff).floor() as i64,
            ]
        };
        let mut order: Vec<usize> = (0..beads.len()).collect();
        order.sort_by_key(|&i| coarse(beads[i].position));
        let slot_pos = |slot: usize| beads[order[slot]].position;

        // The grid covers everything within reach of a bead, so a probe
        // that falls outside it has nothing within the cutoff.
        let edge = cutoff / VOXELS_PER_CUTOFF;
        let reach = cutoff + VOXEL_SLACK * edge;
        let origin = lo - Vec3::new(reach, reach, reach);
        let far = hi + Vec3::new(reach, reach, reach);
        let mut grid = VoxelGrid {
            origin,
            edge,
            inv_edge: 1.0 / edge,
            dims: [0; 3],
        };
        grid.dims = [
            grid.axis_coord(far.x, origin.x) as usize + 1,
            grid.axis_coord(far.y, origin.y) as usize + 1,
            grid.axis_coord(far.z, origin.z) as usize + 1,
        ];

        // Rasterise into CSR: count, prefix-sum, place. Placing slots in
        // ascending order leaves every voxel's run ascending.
        let n_voxels = grid.dims.iter().product::<usize>();
        let mut run_starts = vec![0u32; n_voxels + 1];
        for slot in 0..order.len() {
            grid.for_each_voxel_within(slot_pos(slot), reach, |v| run_starts[v + 1] += 1);
        }
        for v in 1..=n_voxels {
            run_starts[v] = run_starts[v]
                .checked_add(run_starts[v - 1])
                .expect("candidate runs of one receptor fit 32-bit offsets");
        }
        let mut cursor = run_starts[..n_voxels].to_vec();
        let mut candidates = vec![0u16; run_starts[n_voxels] as usize];
        for slot in 0..order.len() {
            grid.for_each_voxel_within(slot_pos(slot), reach, |v| {
                candidates[cursor[v] as usize] = slot as u16;
                cursor[v] += 1;
            });
        }

        Self {
            cutoff,
            grid,
            run_starts,
            candidates,
            reach: receptor.bounding_radius() + reach,
            slots: order
                .iter()
                .map(|&i| Slot {
                    position: beads[i].position,
                    kind: PairTable::index(beads[i].kind) as u8,
                })
                .collect(),
        }
    }

    /// The candidate run of `p`: ascending slot indices, a superset of
    /// the slots within the cutoff of `p`.
    #[inline]
    fn candidates(&self, p: Vec3) -> &[u16] {
        match self.grid.voxel_of(p) {
            Some(v) => {
                &self.candidates[self.run_starts[v] as usize..self.run_starts[v + 1] as usize]
            }
            None => &[],
        }
    }

    /// Total number of indexed beads (for sanity checks).
    pub fn bead_count(&self) -> usize {
        self.slots.len()
    }
}

/// Precomputed pair parameters for every ordered
/// [`BeadKind`](crate::model::BeadKind) pair: combined well depth
/// `ε_ij = √(ε_i ε_j)`, contact distance `rmin_ij = r_i + r_j`, and the
/// charge product — so the pair loop takes no square root of `ε_i ε_j`
/// and reads each with one indexed load.
#[derive(Debug, Clone)]
pub struct PairTable {
    eps: [[f64; 5]; 5],
    rmin_sq: [[f64; 5]; 5],
    qq: [[f64; 5]; 5],
}

impl Default for PairTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PairTable {
    /// The process-wide table (the constants never change), built once:
    /// the per-pair square roots stay out of every evaluation.
    pub fn shared() -> &'static PairTable {
        static TABLE: std::sync::OnceLock<PairTable> = std::sync::OnceLock::new();
        TABLE.get_or_init(PairTable::new)
    }

    /// Builds the 5×5 tables from the bead-kind constants.
    pub fn new() -> Self {
        use crate::model::BeadKind;
        let mut eps = [[0.0; 5]; 5];
        let mut rmin_sq = [[0.0; 5]; 5];
        let mut qq = [[0.0; 5]; 5];
        for (i, a) in BeadKind::ALL.iter().enumerate() {
            for (j, b) in BeadKind::ALL.iter().enumerate() {
                eps[i][j] = (a.epsilon() * b.epsilon()).sqrt();
                let rmin = a.radius() + b.radius();
                rmin_sq[i][j] = rmin * rmin;
                qq[i][j] = a.charge() * b.charge();
            }
        }
        Self { eps, rmin_sq, qq }
    }

    #[inline]
    pub(crate) fn index(kind: crate::model::BeadKind) -> usize {
        use crate::model::BeadKind::*;
        match kind {
            Backbone => 0,
            Apolar => 1,
            Polar => 2,
            Positive => 3,
            Negative => 4,
        }
    }

    /// `(ε_ij, rmin_ij², q_i q_j)` for a bead-kind pair.
    #[inline]
    pub fn lookup(&self, a: crate::model::BeadKind, b: crate::model::BeadKind) -> (f64, f64, f64) {
        let (i, j) = (Self::index(a), Self::index(b));
        (self.eps[i][j], self.rmin_sq[i][j], self.qq[i][j])
    }
}

/// Evaluates the interaction energy of `ligand` in `pose` against
/// `receptor` (indexed by `cells`).
pub fn interaction_energy(
    receptor: &Protein,
    cells: &CellList,
    ligand: &Protein,
    pose: &Pose,
    params: &EnergyParams,
) -> EnergyBreakdown {
    let cull = &mut CullTally::default();
    evaluate(receptor, cells, ligand, pose, params, None, cull)
}

/// Evaluates energy *and* its rigid-body gradient (force + torque).
pub fn energy_and_gradient(
    receptor: &Protein,
    cells: &CellList,
    ligand: &Protein,
    pose: &Pose,
    params: &EnergyParams,
) -> EnergyGradient {
    energy_and_gradient_tallied(
        receptor,
        cells,
        ligand,
        pose,
        params,
        &mut CullTally::default(),
    )
}

/// [`energy_and_gradient`] that also counts what the index handed the
/// pair loop, for callers that publish the cull ratio.
pub(crate) fn energy_and_gradient_tallied(
    receptor: &Protein,
    cells: &CellList,
    ligand: &Protein,
    pose: &Pose,
    params: &EnergyParams,
    cull: &mut CullTally,
) -> EnergyGradient {
    let mut grad = (Vec3::ZERO, Vec3::ZERO);
    let energy = evaluate(receptor, cells, ligand, pose, params, Some(&mut grad), cull);
    EnergyGradient {
        energy,
        force: grad.0,
        torque: grad.1,
    }
}

/// How well the kernel culls: of the ligand `beads` it visited, how many
/// were `culled` as beyond the receptor's reach; of the `candidates`
/// slots the index returned for the rest, how many `pairs` passed the
/// exact cutoff test. Zero-sized unless telemetry is compiled in.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CullTally {
    pub(crate) beads: telemetry::Tally,
    pub(crate) culled: telemetry::Tally,
    pub(crate) candidates: telemetry::Tally,
    pub(crate) pairs: telemetry::Tally,
}

fn evaluate(
    receptor: &Protein,
    cells: &CellList,
    ligand: &Protein,
    pose: &Pose,
    params: &EnergyParams,
    grad: Option<&mut (Vec3, Vec3)>,
    cull: &mut CullTally,
) -> EnergyBreakdown {
    debug_assert_eq!(
        cells.bead_count(),
        receptor.bead_count(),
        "cell list built for a different receptor"
    );
    debug_assert!(
        params.cutoff <= cells.cutoff,
        "cell list built for a shorter cutoff"
    );
    evaluate_probing(cells, ligand, pose, params, grad, cull, |p| {
        cells.candidates(p).iter().map(|&slot| slot as usize)
    })
}

/// The pair loop, over whatever slots `probe` yields for each posed
/// ligand bead. The one production probe is [`CellList::candidates`];
/// the parameter exists so the tests can run the identical arithmetic
/// over a reference neighbour search, and is inlined away so that
/// production gets the plain loop over a slice.
#[inline(always)]
fn evaluate_probing<I: Iterator<Item = usize>>(
    cells: &CellList,
    ligand: &Protein,
    pose: &Pose,
    params: &EnergyParams,
    grad: Option<&mut (Vec3, Vec3)>,
    cull: &mut CullTally,
    probe: impl Fn(Vec3) -> I,
) -> EnergyBreakdown {
    let cutoff_sq = params.cutoff * params.cutoff;
    let delta_sq = params.softening * params.softening;
    // Cutoff-shift reference at the softened cutoff distance.
    let inv_rc_sq = 1.0 / (cutoff_sq + delta_sq);
    let coulomb = COULOMB_KCAL / params.dielectric;
    let pair_table = PairTable::shared();
    let mut elj = 0.0;
    let mut eelec = 0.0;
    let (mut net_force, mut net_torque) = (Vec3::ZERO, Vec3::ZERO);
    // A bead at body offset `p` sits at `R·p + t`, at least `w·p + |t|`
    // from the receptor's origin, with `w = Rᵀ·t/|t|`. At t = 0 (or NaN)
    // `w` is zero and the bound culls nothing.
    let t = pose.translation;
    let t_norm = t.norm();
    let w = if t_norm > 0.0 {
        pose.rotation.transpose().apply(t / t_norm)
    } else {
        Vec3::ZERO
    };
    cull.beads.add(ligand.bead_count() as u64);
    for lbead in ligand.beads() {
        // Beyond the receptor's reach: no pair, so skipping the bead
        // changes no bit of the sums.
        if w.dot(lbead.position) + t_norm >= cells.reach {
            cull.culled.add(1);
            continue;
        }
        let lp = pose.apply(lbead.position);
        // One pair-table row per ligand bead: the inner loop then needs
        // only a 5-entry lookup keyed by the receptor slot's kind index.
        let row = PairTable::index(lbead.kind);
        let eps_row = &pair_table.eps[row];
        let rmin_sq_row = &pair_table.rmin_sq[row];
        let qq_row = &pair_table.qq[row];
        // Force on this ligand bead, summed over its pairs in slot order.
        let mut force = Vec3::ZERO;
        let mut paired = false;
        for slot in probe(lp) {
            cull.candidates.add(1);
            let rbead = &cells.slots[slot];
            let dx = lp.x - rbead.position.x;
            let dy = lp.y - rbead.position.y;
            let dz = lp.z - rbead.position.z;
            let r_sq = dx * dx + dy * dy + dz * dz;
            if r_sq >= cutoff_sq {
                continue;
            }
            cull.pairs.add(1);
            paired = true;
            let kind = rbead.kind as usize;
            let eps = eps_row[kind];
            let rmin_sq = rmin_sq_row[kind];
            // The pair's one division: 1/rr² of the softened distance.
            let inv = 1.0 / (r_sq + delta_sq);

            // Lennard-Jones 12-6 in rmin form:
            //   E = ε [ (rmin/r)^12 − 2 (rmin/r)^6 ]
            let s2 = rmin_sq * inv;
            let s6 = s2 * s2 * s2;
            let s12 = s6 * s6;
            let c2 = rmin_sq * inv_rc_sq;
            let c6 = c2 * c2 * c2;
            let c12 = c6 * c6;
            elj += eps * ((s12 - 2.0 * s6) - (c12 - 2.0 * c6));

            // Screened Coulomb with distance-dependent dielectric
            // ε(r) = ε₀ r ⇒ E = k q₁q₂ / (ε₀ r²), cutoff-shifted.
            let ke = coulomb * qq_row[kind];
            eelec += ke * (inv - inv_rc_sq);

            if grad.is_some() {
                // dE/d(rr²) is ½·(12ε(s6 − s12) − 2k·inv)·inv, and
                // d(rr²)/d(d_vec) = 2·d_vec (softening is additive in
                // r²); the force on the ligand bead is −∂E/∂(position).
                let de = (12.0 * eps * (s6 - s12) - 2.0 * ke * inv) * inv;
                force -= Vec3::new(dx, dy, dz) * de;
            }
        }
        // Most beads of a pose far from contact have no pair; adding
        // their zero force would change no bit of the sums and cost a
        // cross product each.
        if paired {
            net_force += force;
            net_torque += (lp - pose.translation).cross(force);
        }
    }
    if let Some(g) = grad {
        g.0 += net_force;
        g.1 += net_torque;
    }
    EnergyBreakdown { elj, eelec }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{EulerZyz, Mat3};
    use crate::model::{Bead, BeadKind, ProteinId};

    fn one_bead(kind: BeadKind) -> Protein {
        Protein::new(
            ProteinId(0),
            "b",
            vec![Bead {
                position: Vec3::ZERO,
                kind,
            }],
        )
    }

    fn pose_at(x: f64) -> Pose {
        Pose::from_euler(EulerZyz::default(), Vec3::new(x, 0.0, 0.0))
    }

    fn pair_energy(a: BeadKind, b: BeadKind, dist: f64, params: &EnergyParams) -> EnergyBreakdown {
        let receptor = one_bead(a);
        let ligand = one_bead(b);
        let cells = CellList::build(&receptor, params.cutoff);
        interaction_energy(&receptor, &cells, &ligand, &pose_at(dist), params)
    }

    #[test]
    fn cell_list_indexes_every_bead() {
        let lib =
            crate::library::ProteinLibrary::generate(crate::library::LibraryConfig::tiny(1), 11);
        let p = &lib.proteins()[0];
        let cells = CellList::build(p, 12.0);
        assert_eq!(cells.bead_count(), p.bead_count());
    }

    /// Run-start, candidate and slot counts of one fixed receptor's
    /// index, and the bytes each holds. A change to the voxel geometry or
    /// to the slot id width re-records these and says why.
    #[test]
    fn index_size_is_pinned() {
        let lib =
            crate::library::ProteinLibrary::generate(crate::library::LibraryConfig::tiny(2), 17);
        let cells = CellList::build(&lib.proteins()[0], EnergyParams::default().cutoff);
        let counts = (
            cells.run_starts.len(),
            cells.candidates.len(),
            cells.slots.len(),
        );
        let bytes = (
            std::mem::size_of_val(&cells.run_starts[..]),
            std::mem::size_of_val(&cells.candidates[..]),
            std::mem::size_of_val(&cells.slots[..]),
        );
        println!("counts {counts:?}, bytes {bytes:?}");
        assert_eq!(counts, (449, 4_526, 32));
        assert_eq!(bytes, (1_796, 9_052, 1_024));
    }

    #[test]
    #[should_panic(expected = "65 536 beads")]
    fn a_receptor_over_65_536_beads_is_refused() {
        let beads = (0..=MAX_RECEPTOR_BEADS)
            .map(|i| Bead {
                position: Vec3::new(i as f64, 0.0, 0.0),
                kind: BeadKind::Apolar,
            })
            .collect();
        CellList::build(&Protein::new(ProteinId(0), "big", beads), 12.0);
    }

    /// The neighbour search the voxel index replaced, kept as the
    /// reference it is tested against: receptor beads counting-sorted
    /// into cells of edge = cutoff, a probe scanning the 27 cells around
    /// its own in (x, y, z) order. Every output recorded before the
    /// voxel index was summed in the order this yields.
    struct CoarseCells {
        origin: Vec3,
        edge: f64,
        dims: [usize; 3],
        offsets: Vec<u32>,
        /// Receptor bead index of each slot.
        order: Vec<u32>,
    }

    impl CoarseCells {
        fn build(receptor: &Protein, cutoff: f64) -> Self {
            let beads = receptor.beads();
            let mut lo = beads[0].position;
            let mut hi = beads[0].position;
            for b in beads {
                lo = lo.min(b.position);
                hi = hi.max(b.position);
            }
            let edge = cutoff;
            let dims = [
                (((hi.x - lo.x) / edge).floor() as usize) + 1,
                (((hi.y - lo.y) / edge).floor() as usize) + 1,
                (((hi.z - lo.z) / edge).floor() as usize) + 1,
            ];
            let n_cells = dims[0] * dims[1] * dims[2];
            let mut offsets = vec![0u32; n_cells + 1];
            for b in beads {
                offsets[Self::cell_of(lo, edge, dims, b.position) + 1] += 1;
            }
            for c in 1..=n_cells {
                offsets[c] += offsets[c - 1];
            }
            let mut cursor: Vec<u32> = offsets[..n_cells].to_vec();
            let mut order = vec![0u32; beads.len()];
            for (i, b) in beads.iter().enumerate() {
                let c = Self::cell_of(lo, edge, dims, b.position);
                order[cursor[c] as usize] = i as u32;
                cursor[c] += 1;
            }
            Self {
                origin: lo,
                edge,
                dims,
                offsets,
                order,
            }
        }

        fn cell_of(origin: Vec3, edge: f64, dims: [usize; 3], p: Vec3) -> usize {
            let ix = (((p.x - origin.x) / edge).floor() as isize).clamp(0, dims[0] as isize - 1);
            let iy = (((p.y - origin.y) / edge).floor() as isize).clamp(0, dims[1] as isize - 1);
            let iz = (((p.z - origin.z) / edge).floor() as isize).clamp(0, dims[2] as isize - 1);
            (ix as usize * dims[1] + iy as usize) * dims[2] + iz as usize
        }

        /// The slots of the 27-cell neighbourhood of `p`, in scan order.
        fn for_neighbors(&self, p: Vec3) -> Vec<usize> {
            let cx = ((p.x - self.origin.x) / self.edge).floor() as isize;
            let cy = ((p.y - self.origin.y) / self.edge).floor() as isize;
            let cz = ((p.z - self.origin.z) / self.edge).floor() as isize;
            let mut slots = Vec::new();
            for dx in -1..=1 {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        let (x, y, z) = (cx + dx, cy + dy, cz + dz);
                        if x < 0
                            || y < 0
                            || z < 0
                            || x >= self.dims[0] as isize
                            || y >= self.dims[1] as isize
                            || z >= self.dims[2] as isize
                        {
                            continue;
                        }
                        let c =
                            (x as usize * self.dims[1] + y as usize) * self.dims[2] + z as usize;
                        slots.extend(self.offsets[c] as usize..self.offsets[c + 1] as usize);
                    }
                }
            }
            slots
        }
    }

    /// `cells` with the reach cull switched off: every ligand bead is
    /// posed and probed, so a reference run through it checks the cull
    /// too.
    fn unculled(cells: &CellList) -> CellList {
        CellList {
            reach: f64::INFINITY,
            ..cells.clone()
        }
    }

    /// `energy_and_gradient` over the reference neighbour search; pass
    /// [`unculled`] cells to compare against it with no cull.
    fn reference_energy_and_gradient(
        coarse: &CoarseCells,
        cells: &CellList,
        ligand: &Protein,
        pose: &Pose,
        params: &EnergyParams,
    ) -> EnergyGradient {
        let mut grad = (Vec3::ZERO, Vec3::ZERO);
        let energy = evaluate_probing(
            cells,
            ligand,
            pose,
            params,
            Some(&mut grad),
            &mut CullTally::default(),
            |p| coarse.for_neighbors(p).into_iter(),
        );
        EnergyGradient {
            energy,
            force: grad.0,
            torque: grad.1,
        }
    }

    /// The pair arithmetic the one-division form replaced, kept as the
    /// reference it is bounded against: a square root and nine divisions
    /// per pair, `powi(3)` of quotients, and the torque crossed per pair.
    /// Every output recorded before it was replaced was computed this way.
    ///
    /// Also returns, in the same shape, the sum over pairs of the
    /// magnitudes of the products each pair adds to each output — the
    /// scale a rounding error of the sum is measured in.
    fn two_root_energy_and_gradient(
        coarse: &CoarseCells,
        cells: &CellList,
        ligand: &Protein,
        pose: &Pose,
        params: &EnergyParams,
    ) -> (EnergyGradient, EnergyGradient) {
        let cutoff_sq = params.cutoff * params.cutoff;
        let delta_sq = params.softening * params.softening;
        let rc_sq = cutoff_sq + delta_sq;
        let table = PairTable::shared();
        let zero = EnergyGradient {
            energy: EnergyBreakdown::default(),
            force: Vec3::ZERO,
            torque: Vec3::ZERO,
        };
        let (mut g, mut scale) = (zero, zero);
        let abs = |v: Vec3| Vec3::new(v.x.abs(), v.y.abs(), v.z.abs());
        for lbead in ligand.beads() {
            let lp = pose.apply(lbead.position);
            let arm = lp - pose.translation;
            let row = PairTable::index(lbead.kind);
            for slot in coarse.for_neighbors(lp) {
                let rbead = &cells.slots[slot];
                let d = lp - rbead.position;
                let r_sq = d.x * d.x + d.y * d.y + d.z * d.z;
                if r_sq >= cutoff_sq {
                    continue;
                }
                let kind = rbead.kind as usize;
                let eps = table.eps[row][kind];
                let rmin_sq = table.rmin_sq[row][kind];
                let rr_sq = r_sq + delta_sq;
                let rr = rr_sq.sqrt();
                let s6 = (rmin_sq / rr_sq).powi(3);
                let s12 = s6 * s6;
                let c6 = (rmin_sq / rc_sq).powi(3);
                let c12 = c6 * c6;
                g.energy.elj += eps * ((s12 - 2.0 * s6) - (c12 - 2.0 * c6));
                let ke = COULOMB_KCAL * table.qq[row][kind] / params.dielectric;
                g.energy.eelec += ke * (1.0 / rr_sq - 1.0 / rc_sq);
                let dlj = eps * (-12.0 * s12 / rr + 12.0 * s6 / rr);
                let dele = -2.0 * ke / (rr_sq * rr);
                let f = -(d * ((dlj + dele) / rr));
                g.force += f;
                g.torque += arm.cross(f);

                scale.energy.elj += eps * (s12 + 2.0 * s6 + c12 + 2.0 * c6);
                scale.energy.eelec += ke.abs() * (1.0 / rr_sq + 1.0 / rc_sq);
                let f = abs(d) * ((12.0 * eps * (s12 + s6) + 2.0 * ke.abs() / rr_sq) / rr_sq);
                let a = abs(arm);
                scale.force += f;
                scale.torque += Vec3::new(
                    a.y * f.z + a.z * f.y,
                    a.z * f.x + a.x * f.z,
                    a.x * f.y + a.y * f.x,
                );
            }
        }
        (g, scale)
    }

    /// Receptors the index is exercised on: one bead (a 1-voxel-thick
    /// problem), a tiny library protein (one coarse cell or two per
    /// axis), and one the size of the paper's (several).
    fn receptors() -> Vec<Protein> {
        use crate::library::{LibraryConfig, ProteinLibrary};
        let paper_scale = LibraryConfig {
            median_residues: 230.0,
            sigma_log_residues: 0.3,
            min_residues: 180,
            max_residues: 400,
            ..LibraryConfig::tiny(1)
        };
        vec![
            one_bead(BeadKind::Positive),
            ProteinLibrary::generate(LibraryConfig::tiny(1), 13).proteins()[0].clone(),
            ProteinLibrary::generate(paper_scale, 2008).proteins()[0].clone(),
        ]
    }

    fn random_rotation(rng: &mut impl rand::Rng) -> Mat3 {
        EulerZyz {
            alpha: rng.gen_range(0.0..std::f64::consts::TAU),
            beta: rng.gen_range(0.0..std::f64::consts::PI),
            gamma: rng.gen_range(0.0..std::f64::consts::TAU),
        }
        .to_matrix()
    }

    fn uniform(rng: &mut impl rand::Rng, lo: Vec3, hi: Vec3) -> Vec3 {
        Vec3::new(
            rng.gen_range(lo.x..hi.x),
            rng.gen_range(lo.y..hi.y),
            rng.gen_range(lo.z..hi.z),
        )
    }

    /// `x` moved by `ulps` representable values.
    fn nudge(x: f64, ulps: i64) -> f64 {
        assert!(x != 0.0 && x.is_finite());
        let bits = x.to_bits() as i64;
        f64::from_bits((if x > 0.0 { bits + ulps } else { bits - ulps }) as u64)
    }

    /// Checks the run contract at `p`: strictly ascending, and holding
    /// every slot the kernel's own distance test accepts.
    fn assert_run_contract(cells: &CellList, cutoff: f64, p: Vec3) -> usize {
        let run = cells.candidates(p);
        assert!(
            run.windows(2).all(|w| w[0] < w[1]),
            "run of {p:?} not strictly ascending: {run:?}"
        );
        for slot in 0..cells.bead_count() {
            let b = cells.slots[slot].position;
            let (dx, dy, dz) = (p.x - b.x, p.y - b.y, p.z - b.z);
            if dx * dx + dy * dy + dz * dz < cutoff * cutoff {
                assert!(
                    run.binary_search(&(slot as u16)).is_ok(),
                    "slot {slot} within the cutoff of {p:?} missing from its run {run:?}"
                );
            }
        }
        run.len()
    }

    #[test]
    fn slots_are_ordered_by_coarse_cell_then_bead_index() {
        for receptor in receptors() {
            let cutoff = EnergyParams::default().cutoff;
            let cells = CellList::build(&receptor, cutoff);
            let coarse = CoarseCells::build(&receptor, cutoff);
            assert_eq!(cells.bead_count(), coarse.order.len());
            for (slot, &bead) in coarse.order.iter().enumerate() {
                let b = receptor.beads()[bead as usize];
                assert_eq!(cells.slots[slot].position, b.position, "slot {slot}");
                assert_eq!(cells.slots[slot].kind as usize, PairTable::index(b.kind));
            }
        }
    }

    #[test]
    fn candidate_runs_are_ascending_supersets_of_the_cutoff_ball() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x0c11_1157);
        for receptor in receptors() {
            for cutoff in [12.0, 8.0, 5.3] {
                let cells = CellList::build(&receptor, cutoff);
                let grid = &cells.grid;
                let [nx, ny, nz] = grid.dims;
                let far = grid.origin + Vec3::new(nx as f64, ny as f64, nz as f64) * grid.edge;
                let n = cells.bead_count();
                let bead = |slot: usize| cells.slots[slot].position;

                // Anywhere in the grid, receptor interior included.
                let mut longest = 0;
                for _ in 0..400 {
                    let p = uniform(&mut rng, grid.origin, far);
                    longest = longest.max(assert_run_contract(&cells, cutoff, p));
                }
                assert!(longest > 0, "no probe found a candidate");

                // On voxel faces, edges and corners: each coordinate is
                // either an exact multiple of the edge from the origin or
                // free, and the faces of the grid itself are included.
                for _ in 0..400 {
                    let free = uniform(&mut rng, grid.origin, far);
                    let lattice = |o: f64, n: usize, rng: &mut rand_chacha::ChaCha8Rng| {
                        o + rng.gen_range(0..=n) as f64 * grid.edge
                    };
                    let p = Vec3::new(
                        if rng.gen_bool(0.7) {
                            lattice(grid.origin.x, nx, &mut rng)
                        } else {
                            free.x
                        },
                        if rng.gen_bool(0.7) {
                            lattice(grid.origin.y, ny, &mut rng)
                        } else {
                            free.y
                        },
                        if rng.gen_bool(0.7) {
                            lattice(grid.origin.z, nz, &mut rng)
                        } else {
                            free.z
                        },
                    );
                    assert_run_contract(&cells, cutoff, p);
                }

                // At the cutoff from a bead, to the ulp: along an axis
                // (where the probe can also leave the grid by an ulp) and
                // along random directions.
                for _ in 0..400 {
                    let b = bead(rng.gen_range(0..n));
                    let dir = if rng.gen_bool(0.5) {
                        let mut axis = [0.0; 3];
                        axis[rng.gen_range(0..3usize)] = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        Vec3::new(axis[0], axis[1], axis[2])
                    } else {
                        uniform(
                            &mut rng,
                            Vec3::new(-1.0, -1.0, -1.0),
                            Vec3::new(1.0, 1.0, 1.0),
                        )
                        .normalized()
                        .unwrap_or(Vec3::new(1.0, 0.0, 0.0))
                    };
                    let p = b + dir * cutoff;
                    for ulps in -3..=3 {
                        let q = Vec3::new(
                            if p.x != 0.0 { nudge(p.x, ulps) } else { p.x },
                            if p.y != 0.0 { nudge(p.y, -ulps) } else { p.y },
                            if p.z != 0.0 { nudge(p.z, ulps) } else { p.z },
                        );
                        assert_run_contract(&cells, cutoff, q);
                    }
                }

                // Outside the padded grid, and not a number: the empty
                // run, and (checked by the contract) nothing in reach.
                for _ in 0..100 {
                    let mut p = uniform(&mut rng, grid.origin, far);
                    let beyond = rng.gen_range(1e-9..50.0);
                    match rng.gen_range(0..6) {
                        0 => p.x = grid.origin.x - beyond,
                        1 => p.y = grid.origin.y - beyond,
                        2 => p.z = grid.origin.z - beyond,
                        3 => p.x = far.x + beyond,
                        4 => p.y = far.y + beyond,
                        _ => p.z = far.z + beyond,
                    }
                    assert_eq!(assert_run_contract(&cells, cutoff, p), 0, "{p:?}");
                }
                for p in [
                    Vec3::new(f64::NAN, 0.0, 0.0),
                    Vec3::new(0.0, f64::NAN, 0.0),
                    Vec3::new(0.0, 0.0, f64::NAN),
                    Vec3::new(f64::INFINITY, 0.0, 0.0),
                    Vec3::new(0.0, f64::NEG_INFINITY, 0.0),
                ] {
                    assert_eq!(assert_run_contract(&cells, cutoff, p), 0, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn cull_tally_counts_candidates_and_pairs_or_costs_nothing() {
        let receptors = receptors();
        // A paper-scale ligand half a cutoff off a tiny receptor's
        // surface: in contact, and reaching past the receptor's reach.
        let (receptor, ligand) = (&receptors[1], &receptors[2]);
        let params = EnergyParams::default();
        let cells = CellList::build(receptor, params.cutoff);
        let pose = pose_at(receptor.bounding_radius() + params.cutoff / 2.0);
        let mut cull = CullTally::default();
        for _ in 0..2 {
            energy_and_gradient_tallied(receptor, &cells, ligand, &pose, &params, &mut cull);
        }
        let (candidates, pairs) = (cull.candidates.get(), cull.pairs.get());
        let (beads, culled) = (cull.beads.get(), cull.culled.get());
        if telemetry::ENABLED {
            assert_eq!(beads, 2 * ligand.bead_count() as u64);
            assert!(0 < culled && culled < beads, "{culled} of {beads} culled");
            assert!(pairs > 0 && pairs % 2 == 0, "pairs {pairs}");
            assert!(
                candidates >= pairs && candidates < 4 * pairs,
                "{candidates} for {pairs}"
            );
        } else {
            assert_eq!((beads, culled, candidates, pairs), (0, 0, 0, 0));
            assert_eq!(std::mem::size_of::<CullTally>(), 0);
        }
    }

    /// The reference runs with no reach cull, over random poses and over
    /// poses that put a ligand bead within ±1e-3 Å of the reach sphere,
    /// straight out from the receptor's farthest bead. Over the same
    /// poses, three more checks ride along:
    ///
    /// * `interaction_energy` is `energy_and_gradient`'s energy, bit for
    ///   bit — the gradient branch never changes the energy;
    /// * each of `elj`, `eelec`, force and torque is within
    ///   `128·ε·Σ|addends|` of [`two_root_energy_and_gradient`], the
    ///   arithmetic the one-division form replaced. Worst seen over these
    ///   poses (the test prints it), in units of `ε·Σ|addends|`: 5.4
    ///   (`elj`), 0 (`eelec`), 31.5 (force), 23.6 (torque); over 2 000
    ///   poses per receptor 8.6, 0, 40.9, 39.0.
    #[test]
    fn voxel_index_matches_the_27_cell_reference_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x27ce_1150);
        let params = EnergyParams::default();
        let receptors = receptors();
        let ligands = [&receptors[1], &receptors[2]];
        let mut worst = [0.0f64; 8];
        for receptor in &receptors {
            let cells = CellList::build(receptor, params.cutoff);
            let coarse = CoarseCells::build(receptor, params.cutoff);
            let mut poses = Vec::new();
            for i in 0..300 {
                let ligand = ligands[i % 2];
                // From interpenetrating to just out of reach.
                let far = receptor.bounding_radius() + ligand.bounding_radius() + params.cutoff;
                let rotation = random_rotation(&mut rng);
                let translation = uniform(
                    &mut rng,
                    Vec3::new(-far, -far, -far) * 0.6,
                    Vec3::new(far, far, far) * 0.6,
                );
                poses.push((
                    ligand,
                    Pose {
                        rotation,
                        translation,
                    },
                ));
            }
            // Straight out from the farthest receptor bead, a ligand bead
            // at the reach `± 1e-3` Å is the cutoff `± 1e-3` Å from it,
            // give or take the slack: a pair whenever it is inside.
            let farthest = receptor
                .beads()
                .iter()
                .map(|b| b.position)
                .fold(Vec3::ZERO, |a, b| if b.norm() > a.norm() { b } else { a });
            let out = farthest.normalized().unwrap_or(Vec3::new(0.0, 0.6, 0.8));
            for i in 0..100 {
                let ligand = ligands[i % 2];
                let p = ligand.beads()[rng.gen_range(0..ligand.bead_count())].position;
                // Turn the bead's offset to point back at the receptor,
                // so the bound `w·p + |t|` is the bead's distance itself.
                let r0 = random_rotation(&mut rng);
                let v = r0.apply(p).normalized().expect("bead off the mass centre");
                let turn =
                    Mat3::from_axis_angle(v.cross(-out), v.dot(-out).clamp(-1.0, 1.0).acos());
                let at = cells.reach + rng.gen_range(-1e-3..1e-3);
                let pose = Pose {
                    rotation: turn.mul_mat(&r0),
                    translation: out * (at + p.norm()),
                };
                assert!((pose.apply(p) - out * at).norm() < 1e-9, "{pose:?}");
                poses.push((ligand, pose));
            }
            let unculled = unculled(&cells);
            let mut interacting = 0;
            for (ligand, pose) in poses {
                let fast = energy_and_gradient(receptor, &cells, ligand, &pose, &params);
                let slow =
                    reference_energy_and_gradient(&coarse, &unculled, ligand, &pose, &params);
                let outputs = |g: &EnergyGradient| {
                    [
                        g.energy.elj,
                        g.energy.eelec,
                        g.force.x,
                        g.force.y,
                        g.force.z,
                        g.torque.x,
                        g.torque.y,
                        g.torque.z,
                    ]
                };
                let bits = |g: &EnergyGradient| outputs(g).map(f64::to_bits);
                assert_eq!(bits(&fast), bits(&slow), "pose {pose:?}");

                let energy = interaction_energy(receptor, &cells, ligand, &pose, &params);
                assert_eq!(
                    [energy.elj, energy.eelec].map(f64::to_bits),
                    [fast.energy.elj, fast.energy.eelec].map(f64::to_bits),
                    "pose {pose:?}"
                );

                let (old, scale) =
                    two_root_energy_and_gradient(&coarse, &cells, ligand, &pose, &params);
                for (k, ((new, old), scale)) in outputs(&fast)
                    .into_iter()
                    .zip(outputs(&old))
                    .zip(outputs(&scale))
                    .enumerate()
                {
                    let units = (new - old).abs() / (f64::EPSILON * scale);
                    assert!(
                        (new - old).abs() <= 128.0 * f64::EPSILON * scale,
                        "output {k}: {new} against {old}, {units} ε·Σ|addends|, pose {pose:?}"
                    );
                    if scale > 0.0 {
                        worst[k] = worst[k].max(units);
                    }
                }
                interacting += usize::from(fast.energy.total() != 0.0);
            }
            assert!(interacting > 100, "only {interacting} poses interacted");
        }
        println!("worst |new − old| in ε·Σ|addends|: {worst:.1?}");
    }

    #[test]
    fn energy_zero_beyond_cutoff() {
        let params = EnergyParams::default();
        let e = pair_energy(
            BeadKind::Positive,
            BeadKind::Negative,
            params.cutoff + 1.0,
            &params,
        );
        assert_eq!(e.total(), 0.0);
    }

    #[test]
    fn lj_has_a_minimum_near_contact_distance() {
        let params = EnergyParams {
            softening: 0.0,
            ..EnergyParams::default()
        };
        let rmin = BeadKind::Apolar.radius() * 2.0;
        let at_min = pair_energy(BeadKind::Apolar, BeadKind::Apolar, rmin, &params);
        let closer = pair_energy(BeadKind::Apolar, BeadKind::Apolar, rmin * 0.8, &params);
        let farther = pair_energy(BeadKind::Apolar, BeadKind::Apolar, rmin * 1.3, &params);
        assert!(at_min.elj < 0.0, "attractive at contact: {}", at_min.elj);
        assert!(closer.elj > at_min.elj, "repulsive wall");
        assert!(farther.elj > at_min.elj, "well shape");
        // Well depth ≈ ε (cutoff shift makes it slightly shallower).
        assert!((at_min.elj + BeadKind::Apolar.epsilon()).abs() < 0.05);
    }

    #[test]
    fn opposite_charges_attract_like_charges_repel() {
        let params = EnergyParams::default();
        let attract = pair_energy(BeadKind::Positive, BeadKind::Negative, 6.0, &params);
        let repel = pair_energy(BeadKind::Positive, BeadKind::Positive, 6.0, &params);
        assert!(attract.eelec < 0.0);
        assert!(repel.eelec > 0.0);
        assert!(
            (attract.eelec + repel.eelec).abs() < 1e-9,
            "symmetric magnitudes"
        );
    }

    #[test]
    fn energy_is_continuous_at_the_cutoff() {
        let params = EnergyParams::default();
        let just_in = pair_energy(
            BeadKind::Positive,
            BeadKind::Negative,
            params.cutoff - 1e-6,
            &params,
        );
        assert!(
            just_in.total().abs() < 1e-3,
            "shifted energy near cutoff should approach 0, got {}",
            just_in.total()
        );
    }

    #[test]
    fn overlapping_beads_have_finite_energy() {
        let params = EnergyParams::default();
        let e = pair_energy(BeadKind::Apolar, BeadKind::Apolar, 0.0, &params);
        assert!(e.total().is_finite());
        assert!(e.elj > 10.0, "softened overlap is strongly repulsive");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let lib =
            crate::library::ProteinLibrary::generate(crate::library::LibraryConfig::tiny(2), 5);
        let (receptor, ligand) = (&lib.proteins()[0], &lib.proteins()[1]);
        let params = EnergyParams::default();
        let cells = CellList::build(receptor, params.cutoff);
        let sep = receptor.bounding_radius() + ligand.bounding_radius() + 2.0;
        let pose = Pose::from_euler(
            EulerZyz {
                alpha: 0.3,
                beta: 0.9,
                gamma: 1.2,
            },
            Vec3::new(sep, 1.0, -0.5),
        );
        let g = energy_and_gradient(receptor, &cells, ligand, &pose, &params);
        let h = 1e-5;
        // Translational gradient: E(t+h·e) ≈ E(t) + h ∂E/∂t.
        for (axis, fcomp) in [
            (Vec3::new(1.0, 0.0, 0.0), g.force.x),
            (Vec3::new(0.0, 1.0, 0.0), g.force.y),
            (Vec3::new(0.0, 0.0, 1.0), g.force.z),
        ] {
            let plus = interaction_energy(
                receptor,
                &cells,
                ligand,
                &pose.perturbed(axis * h, Vec3::ZERO),
                &params,
            )
            .total();
            let minus = interaction_energy(
                receptor,
                &cells,
                ligand,
                &pose.perturbed(axis * -h, Vec3::ZERO),
                &params,
            )
            .total();
            let num = -(plus - minus) / (2.0 * h); // force = −∂E/∂t
            assert!(
                (num - fcomp).abs() < 1e-4 * (1.0 + fcomp.abs()),
                "force mismatch: numeric {num} vs analytic {fcomp}"
            );
        }
        // Rotational gradient about each axis.
        for (axis, tcomp) in [
            (Vec3::new(1.0, 0.0, 0.0), g.torque.x),
            (Vec3::new(0.0, 1.0, 0.0), g.torque.y),
            (Vec3::new(0.0, 0.0, 1.0), g.torque.z),
        ] {
            let plus = interaction_energy(
                receptor,
                &cells,
                ligand,
                &pose.perturbed(Vec3::ZERO, axis * h),
                &params,
            )
            .total();
            let minus = interaction_energy(
                receptor,
                &cells,
                ligand,
                &pose.perturbed(Vec3::ZERO, axis * -h),
                &params,
            )
            .total();
            let num = -(plus - minus) / (2.0 * h);
            assert!(
                (num - tcomp).abs() < 1e-4 * (1.0 + tcomp.abs()),
                "torque mismatch: numeric {num} vs analytic {tcomp}"
            );
        }
    }

    #[test]
    fn cell_list_energy_matches_brute_force() {
        let lib =
            crate::library::ProteinLibrary::generate(crate::library::LibraryConfig::tiny(2), 21);
        let (receptor, ligand) = (&lib.proteins()[0], &lib.proteins()[1]);
        let params = EnergyParams::default();
        let cells = CellList::build(receptor, params.cutoff);
        let pose = pose_at(receptor.bounding_radius() + 3.0);
        let fast = interaction_energy(receptor, &cells, ligand, &pose, &params);
        // Brute force over all pairs.
        let cutoff_sq = params.cutoff * params.cutoff;
        let delta_sq = params.softening * params.softening;
        let (mut elj, mut eelec) = (0.0, 0.0);
        for lb in ligand.beads() {
            let lp = pose.apply(lb.position);
            for rb in receptor.beads() {
                let r_sq = (lp - rb.position).norm_sq();
                if r_sq >= cutoff_sq {
                    continue;
                }
                let eps = (lb.kind.epsilon() * rb.kind.epsilon()).sqrt();
                let rmin = lb.kind.radius() + rb.kind.radius();
                let rr_sq = r_sq + delta_sq;
                let rc_sq = cutoff_sq + delta_sq;
                let s6 = (rmin * rmin / rr_sq).powi(3);
                let c6 = (rmin * rmin / rc_sq).powi(3);
                elj += eps * ((s6 * s6 - 2.0 * s6) - (c6 * c6 - 2.0 * c6));
                let ke = COULOMB_KCAL * lb.kind.charge() * rb.kind.charge() / params.dielectric;
                eelec += ke * (1.0 / rr_sq - 1.0 / rc_sq);
            }
        }
        assert!((fast.elj - elj).abs() < 1e-9 * (1.0 + elj.abs()));
        assert!((fast.eelec - eelec).abs() < 1e-9 * (1.0 + eelec.abs()));
    }
}
