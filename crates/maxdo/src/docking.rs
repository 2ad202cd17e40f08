//! The cross-docking driver: `Etot(isep, irot, p1, p2)`.
//!
//! One *docking cell* is the computation the paper calls
//! `Etot(isep, irot, p1, p2)`: starting the ligand `p2` at position `isep`
//! on the regular array around receptor `p1`, with orientation couple
//! `irot`, minimise the interaction energy for each of the 10 `γ` twists
//! and keep the best (most negative) result. A full *docking map* for a
//! couple is all `Nsep(p1) × 21` cells; the map of phase I is all
//! `168²` couples.

use crate::energy::{CellList, CullTally, EnergyParams};
use crate::geom::{EulerZyz, Pose, Vec3};
use crate::library::ProteinLibrary;
use crate::minimize::{minimize_tallied, MinimizeParams};
use crate::model::{Protein, ProteinId};
use crate::sampling::{starting_position, OrientationGrid, NGAMMA};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One line of the MAXDo output: the optimum found from one
/// `(isep, irot)` docking cell.
///
/// §5.2: "The output of the MAXDo program is a simple text file that
/// contains on each line the coordinate of the ligand and its orientation,
/// and then the interaction energies values."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DockingRow {
    /// Starting-position index, 1-based.
    pub isep: u32,
    /// Orientation-couple index, 1-based.
    pub irot: u32,
    /// Optimised ligand mass-centre coordinates (Å).
    pub position: Vec3,
    /// Euler angles of the best starting orientation (radians).
    pub orientation: EulerZyz,
    /// Lennard-Jones energy at the optimum (kcal·mol⁻¹).
    pub elj: f64,
    /// Electrostatic energy at the optimum (kcal·mol⁻¹).
    pub eelec: f64,
}

impl DockingRow {
    /// `Etot = Elj + Eelec`.
    pub fn etot(&self) -> f64 {
        self.elj + self.eelec
    }
}

/// Result of docking a range of cells, with the work accounting the cost
/// model is calibrated against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DockingOutput {
    /// One row per `(isep, irot)` cell, in canonical order (`isep` major).
    pub rows: Vec<DockingRow>,
    /// Total energy/gradient evaluations performed.
    pub evaluations: u64,
}

impl DockingOutput {
    /// An empty output with row capacity for `cells` docking cells.
    pub fn with_capacity(cells: usize) -> Self {
        Self {
            rows: Vec::with_capacity(cells),
            evaluations: 0,
        }
    }

    /// Appends `other` — whose rows must follow `self`'s in canonical
    /// (`isep`-major) order — merging the work accounting. Both the
    /// serial range loop and the parallel map reduce through this one
    /// helper, so the two paths provably build identical outputs.
    pub fn merge(&mut self, other: DockingOutput) {
        debug_assert!(
            match (self.rows.last(), other.rows.first()) {
                (Some(prev), Some(next)) => (prev.isep, prev.irot) < (next.isep, next.irot),
                _ => true,
            },
            "merge would break canonical row order"
        );
        self.rows.extend(other.rows);
        self.evaluations += other.evaluations;
    }
}

/// A configured docking engine for one `(receptor, ligand)` couple.
pub struct DockingEngine<'a> {
    receptor: &'a Protein,
    ligand: &'a Protein,
    /// The receptor's index: built by [`Self::new`], or borrowed from a
    /// caller that docks many couples against one receptor.
    cells: Cow<'a, CellList>,
    grid: OrientationGrid,
    nsep: u32,
    energy_params: EnergyParams,
    minimize_params: MinimizeParams,
    tele: DockTelemetry,
}

/// Cached metric handles for the docking kernel (zero-sized when
/// telemetry is disabled). Counters are global and shared across rayon
/// workers — updates are relaxed atomics, so the parallel map stays
/// uncontended.
struct DockTelemetry {
    evaluations: &'static telemetry::Counter,
    beads: &'static telemetry::Counter,
    culled: &'static telemetry::Counter,
    candidates: &'static telemetry::Counter,
    pairs: &'static telemetry::Counter,
    cells_docked: &'static telemetry::Counter,
    iterations: &'static telemetry::Counter,
    couple_wall: &'static telemetry::Histogram,
}

impl DockTelemetry {
    fn new() -> Self {
        Self {
            evaluations: telemetry::counter("maxdo.energy.evaluations"),
            beads: telemetry::counter("maxdo.energy.beads"),
            culled: telemetry::counter("maxdo.energy.culled"),
            candidates: telemetry::counter("maxdo.energy.candidates"),
            pairs: telemetry::counter("maxdo.energy.pairs"),
            cells_docked: telemetry::counter("maxdo.cells.docked"),
            iterations: telemetry::counter("maxdo.minimizer.iterations"),
            couple_wall: telemetry::histogram("maxdo.couple.wall_us"),
        }
    }
}

impl<'a> DockingEngine<'a> {
    /// Builds an engine for a couple with `nsep` starting positions,
    /// indexing the receptor for it.
    pub fn new(
        receptor: &'a Protein,
        ligand: &'a Protein,
        nsep: u32,
        energy_params: EnergyParams,
        minimize_params: MinimizeParams,
    ) -> Self {
        let cells = CellList::build(receptor, energy_params.cutoff);
        Self::with_cells(
            receptor,
            ligand,
            nsep,
            Cow::Owned(cells),
            energy_params,
            minimize_params,
        )
    }

    /// [`Self::new`] over an index of `receptor` the caller already holds
    /// (built for `energy_params.cutoff`): indexing costs as much as
    /// docking a few cells, so whoever docks many workunits against one
    /// receptor builds it once and lends it to each engine.
    pub fn with_cells(
        receptor: &'a Protein,
        ligand: &'a Protein,
        nsep: u32,
        cells: Cow<'a, CellList>,
        energy_params: EnergyParams,
        minimize_params: MinimizeParams,
    ) -> Self {
        assert!(nsep > 0, "nsep must be at least 1");
        Self {
            receptor,
            ligand,
            cells,
            grid: OrientationGrid::new(),
            nsep,
            energy_params,
            minimize_params,
            tele: DockTelemetry::new(),
        }
    }

    /// Engine for a couple taken from a library, using the library's
    /// `Nsep` table.
    pub fn for_couple(
        library: &'a ProteinLibrary,
        receptor: ProteinId,
        ligand: ProteinId,
        energy_params: EnergyParams,
        minimize_params: MinimizeParams,
    ) -> Self {
        Self::new(
            library.protein(receptor),
            library.protein(ligand),
            library.nsep(receptor),
            energy_params,
            minimize_params,
        )
    }

    /// Number of starting positions of this engine's receptor.
    pub fn nsep(&self) -> u32 {
        self.nsep
    }

    /// Number of orientation couples (the paper's `Nrot`, 21).
    pub fn nrot(&self) -> u32 {
        self.grid.couple_count() as u32
    }

    /// The receptor protein.
    pub fn receptor(&self) -> &Protein {
        self.receptor
    }

    /// The ligand protein.
    pub fn ligand(&self) -> &Protein {
        self.ligand
    }

    /// Docks one `(isep, irot)` cell: 10 γ-twist minimisations, best kept.
    pub fn dock_cell(&self, isep: u32, irot: u32) -> (DockingRow, u64) {
        let start_pos = starting_position(
            self.receptor,
            self.ligand.bounding_radius(),
            self.nsep,
            isep,
        );
        let mut best: Option<(f64, DockingRow)> = None;
        let mut evals = 0u64;
        let mut cull = CullTally::default();
        for igamma in 0..NGAMMA as u32 {
            let angles = self.grid.orientation(irot, igamma);
            let start = Pose::from_euler(angles, start_pos);
            let res = minimize_tallied(
                self.receptor,
                &self.cells,
                self.ligand,
                start,
                &self.energy_params,
                &self.minimize_params,
                &mut cull,
            );
            evals += res.evaluations as u64;
            self.tele.iterations.add(res.iterations as u64);
            let etot = res.energy.total();
            if best.as_ref().is_none_or(|(b, _)| etot < *b) {
                best = Some((
                    etot,
                    DockingRow {
                        isep,
                        irot,
                        position: res.pose.translation,
                        orientation: angles,
                        elj: res.energy.elj,
                        eelec: res.energy.eelec,
                    },
                ));
            }
        }
        self.tele.evaluations.add(evals);
        self.tele.beads.add(cull.beads.get());
        self.tele.culled.add(cull.culled.get());
        self.tele.candidates.add(cull.candidates.get());
        self.tele.pairs.add(cull.pairs.get());
        self.tele.cells_docked.inc();
        (best.expect("NGAMMA > 0").1, evals)
    }

    /// Docks every orientation couple of one starting position: the unit of
    /// checkpointing (§4.3: "the checkpoint occurs only between starting
    /// positions").
    pub fn dock_position(&self, isep: u32) -> DockingOutput {
        let mut rows = Vec::with_capacity(self.nrot() as usize);
        let mut evaluations = 0;
        for irot in 1..=self.nrot() {
            let (row, e) = self.dock_cell(isep, irot);
            rows.push(row);
            evaluations += e;
        }
        DockingOutput { rows, evaluations }
    }

    /// Docks every orientation couple of one starting position in
    /// parallel over the shared thread pool.
    ///
    /// The checkpoint unit is the starting position (§4.3), so a
    /// volunteer agent that wants both between-position checkpoints *and*
    /// multicore execution parallelises inside the position: the 21
    /// orientation couples fan out over the pool and collect in order.
    /// Output is bit-identical to [`Self::dock_position`] — the collect
    /// preserves `irot` order and each cell is independent.
    pub fn dock_position_parallel(&self, isep: u32) -> DockingOutput {
        let cells: Vec<(DockingRow, u64)> = (1..=self.nrot())
            .into_par_iter()
            .map(|irot| self.dock_cell(isep, irot))
            .collect();
        let mut out = DockingOutput::with_capacity(cells.len());
        for (row, evals) in cells {
            out.rows.push(row);
            out.evaluations += evals;
        }
        out
    }

    /// Docks a contiguous inclusive range of starting positions — exactly
    /// the work of one workunit (§4.2).
    pub fn dock_range(&self, isep_start: u32, isep_end: u32) -> DockingOutput {
        assert!(
            isep_start >= 1 && isep_start <= isep_end && isep_end <= self.nsep,
            "bad isep range {isep_start}..={isep_end} (nsep {})",
            self.nsep
        );
        let mut out =
            DockingOutput::with_capacity(((isep_end - isep_start + 1) * self.nrot()) as usize);
        for isep in isep_start..=isep_end {
            out.merge(self.dock_position(isep));
        }
        out
    }

    /// Docks the full map for the couple in parallel over starting
    /// positions (rayon) — the "dedicated grid" style execution used for
    /// calibration runs.
    pub fn dock_map_parallel(&self) -> DockingOutput {
        let start = std::time::Instant::now();
        let outputs: Vec<DockingOutput> = (1..=self.nsep)
            .into_par_iter()
            .map(|isep| self.dock_position(isep))
            .collect();
        let mut out = DockingOutput::with_capacity(outputs.iter().map(|o| o.rows.len()).sum());
        for position in outputs {
            out.merge(position);
        }
        self.tele
            .couple_wall
            .record_seconds(start.elapsed().as_secs_f64());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryConfig;

    fn tiny_engine(lib: &ProteinLibrary) -> DockingEngine<'_> {
        DockingEngine::for_couple(
            lib,
            ProteinId(0),
            ProteinId(1),
            EnergyParams::default(),
            MinimizeParams {
                max_iterations: 12,
                ..Default::default()
            },
        )
    }

    fn tiny_lib() -> ProteinLibrary {
        ProteinLibrary::generate(LibraryConfig::tiny(2), 23)
    }

    #[test]
    fn dock_cell_returns_canonical_indices() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let (row, evals) = e.dock_cell(1, 1);
        assert_eq!(row.isep, 1);
        assert_eq!(row.irot, 1);
        assert!(evals >= NGAMMA as u64, "at least one eval per γ");
        assert!(row.etot().is_finite());
        assert!(row.position.is_finite());
    }

    #[test]
    fn dock_position_covers_all_21_couples() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let out = e.dock_position(2);
        assert_eq!(out.rows.len(), 21);
        for (i, row) in out.rows.iter().enumerate() {
            assert_eq!(row.irot, i as u32 + 1);
            assert_eq!(row.isep, 2);
        }
    }

    #[test]
    fn dock_range_row_count_and_order() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let out = e.dock_range(1, 3);
        assert_eq!(out.rows.len(), 3 * 21);
        // isep-major canonical order.
        for w in out.rows.windows(2) {
            let key = |r: &DockingRow| (r.isep, r.irot);
            assert!(key(&w[0]) < key(&w[1]));
        }
    }

    #[test]
    fn docking_is_deterministic() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let a = e.dock_range(1, 2);
        let b = e.dock_range(1, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn cell_best_is_at_most_each_gamma_energy() {
        // The best-of-γ reduction means re-docking a single cell twice with
        // the same engine yields the same minimum; and the chosen energy is
        // the cell's row energy.
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let (row, _) = e.dock_cell(1, 5);
        let (again, _) = e.dock_cell(1, 5);
        assert_eq!(row, again);
    }

    #[test]
    #[should_panic(expected = "bad isep range")]
    fn dock_range_validates_bounds() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let bad = e.nsep() + 1;
        let _ = e.dock_range(1, bad);
    }

    #[test]
    fn parallel_map_matches_sequential() {
        let lib = ProteinLibrary::generate(
            LibraryConfig {
                separation_spacing: 30.0, // keep nsep tiny for the test
                ..LibraryConfig::tiny(2)
            },
            31,
        );
        let e = tiny_engine(&lib);
        let seq = e.dock_range(1, e.nsep());
        // Force genuinely threaded execution even on single-core hosts,
        // and check thread-count independence while at it.
        for threads in [1, 2, 4] {
            let par = rayon::with_threads(threads, || e.dock_map_parallel());
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_position_matches_sequential() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let seq = e.dock_position(1);
        for threads in [1, 2, 4] {
            let par = rayon::with_threads(threads, || e.dock_position_parallel(1));
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn merge_concatenates_rows_and_accounting() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let whole = e.dock_range(1, 3);
        let mut merged = DockingOutput::with_capacity(whole.rows.len());
        for isep in 1..=3 {
            merged.merge(e.dock_position(isep));
        }
        assert_eq!(merged, whole);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "canonical row order")]
    fn merge_rejects_out_of_order_rows() {
        let lib = tiny_lib();
        let e = tiny_engine(&lib);
        let mut out = e.dock_position(2);
        out.merge(e.dock_position(1));
    }

    #[test]
    fn asymmetry_of_the_docking_map() {
        // §2.1: Etot(isep, irot, p1, p2) ≠ Etot(isep, irot, p2, p1) in
        // general — swapping receptor and ligand changes the computation.
        let lib = tiny_lib();
        let (p0, p1) = (&lib.proteins()[0], &lib.proteins()[1]);
        let ep = EnergyParams::default();
        // Place each ligand at contact distance along +x of its receptor:
        // the two computations see different bead clouds and energies.
        let eval = |receptor: &Protein, ligand: &Protein| {
            let cells = crate::energy::CellList::build(receptor, ep.cutoff);
            let d = receptor.bounding_radius() + ligand.bounding_radius() * 0.5;
            let pose = crate::geom::Pose::from_euler(
                crate::geom::EulerZyz::default(),
                crate::geom::Vec3::new(d, 0.0, 0.0),
            );
            crate::energy::interaction_energy(receptor, &cells, ligand, &pose, &ep).total()
        };
        assert_ne!(eval(p0, p1), eval(p1, p0));
    }
}
