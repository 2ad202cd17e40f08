//! Campaign materialisation shared by server and agents.
//!
//! The real grid ships protein structures inside each workunit download.
//! Here the whole campaign is synthetic and deterministic, so the server
//! ships only the *recipe* ([`crate::protocol::CampaignParams`], a few
//! dozen bytes inside `HelloAck`) and both sides expand it into the same
//! library, cost matrix, and launch-ordered workunit catalog. An agent
//! can therefore never dock against the wrong catalog: workunit indices
//! in `Assignment` frames refer to a structure both ends derived from
//! identical inputs.
//!
//! The catalog order matters: it must match the simulator byte for byte
//! (same `LaunchSchedule::cheapest_first` traversal the in-process
//! `VolunteerGridSim` uses), because the e2e bench asserts the merged
//! wire-level output is identical to the in-process baseline.

use crate::protocol::CampaignParams;
use gridsim::sched::WorkunitCatalogEntry;
use maxdo::{
    CellList, DockingEngine, DockingOutput, EnergyParams, LibraryConfig, MinimizeParams,
    ProteinLibrary,
};
use std::borrow::Cow;
use std::sync::OnceLock;
use timemodel::CostMatrix;
use validation::{FileHeader, ResultFile};
use workunit::{CampaignPackage, LaunchSchedule, WorkunitSpec};

/// κ of the cost model used for catalog cost estimates. The estimates
/// only steer scheduling order and deadlines — any fixed value keeps the
/// two ends consistent — so this matches the simulator's tests.
const COST_KAPPA: f64 = 0.3;

/// A fully materialised campaign: the synthetic library plus the
/// launch-ordered workunit list, identical on server and agent.
pub struct NetCampaign {
    params: CampaignParams,
    lib: ProteinLibrary,
    /// Workunits in launch order; `Assignment.workunit` indexes this.
    specs: Vec<WorkunitSpec>,
    /// Scheduler catalog entries, parallel to `specs`.
    catalog: Vec<WorkunitCatalogEntry>,
    minimize: MinimizeParams,
    /// Each protein's receptor-side index, built the first time a
    /// workunit docks against it and lent to every engine after that.
    cells: Vec<OnceLock<CellList>>,
    /// How many indexes this campaign has built.
    #[cfg(test)]
    index_builds: std::sync::atomic::AtomicUsize,
}

impl NetCampaign {
    /// Expands a recipe into the full campaign. Deterministic: equal
    /// `params` yield equal catalogs on every host.
    pub fn build(params: CampaignParams) -> Self {
        let config = LibraryConfig {
            separation_spacing: params.separation_spacing,
            ..LibraryConfig::tiny(params.proteins as usize)
        };
        let lib = ProteinLibrary::generate(config, params.lib_seed);
        let matrix = CostMatrix::from_cost_model(&lib, &maxdo::CostModel::with_kappa(COST_KAPPA));
        let pkg = CampaignPackage::new(&lib, &matrix, params.h_seconds);
        let schedule = LaunchSchedule::cheapest_first(&pkg);
        // Mirror the simulator's catalog construction exactly: workunits
        // in launch order, receptor field = launch index of the receptor.
        let mut receptor_index = vec![0u16; schedule.len()];
        for (launch_idx, &pid) in schedule.order().iter().enumerate() {
            receptor_index[pid.0 as usize] = launch_idx as u16;
        }
        let mut specs = Vec::new();
        let mut catalog = Vec::new();
        schedule.for_each_workunit_in_order(&pkg, |wu| {
            let mct = matrix.get(wu.receptor.0 as usize, wu.ligand.0 as usize);
            catalog.push(WorkunitCatalogEntry {
                ref_seconds: (wu.positions as f64 * mct) as f32,
                position_ref_seconds: mct as f32,
                receptor: receptor_index[wu.receptor.0 as usize],
            });
            specs.push(wu);
        });
        Self {
            params,
            cells: lib.proteins().iter().map(|_| OnceLock::new()).collect(),
            lib,
            specs,
            catalog,
            minimize: MinimizeParams {
                max_iterations: params.max_iterations as usize,
                ..MinimizeParams::default()
            },
            #[cfg(test)]
            index_builds: Default::default(),
        }
    }

    /// The recipe this campaign was built from.
    pub fn params(&self) -> CampaignParams {
        self.params
    }

    /// Workunits in launch order.
    pub fn specs(&self) -> &[WorkunitSpec] {
        &self.specs
    }

    /// Workunit `wu`'s spec.
    pub fn spec(&self, wu: u32) -> WorkunitSpec {
        self.specs[wu as usize]
    }

    /// The scheduler catalog (consumed by `SchedulerCore::new`).
    pub fn catalog(&self) -> Vec<WorkunitCatalogEntry> {
        self.catalog.clone()
    }

    /// Total workunits in the campaign.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True for the degenerate empty campaign.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// A docking engine for one workunit's couple. Engines are cheap
    /// views built per workunit: they borrow the library's proteins and
    /// the receptor's index, which the campaign builds once per receptor
    /// — a workunit is a few positions of one couple, and indexing its
    /// receptor again for each one is a few percent of docking it.
    pub fn engine(&self, spec: WorkunitSpec) -> DockingEngine<'_> {
        let energy = EnergyParams::default();
        let receptor = self.lib.protein(spec.receptor);
        let cells = self.cells[spec.receptor.0 as usize].get_or_init(|| {
            #[cfg(test)]
            self.index_builds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CellList::build(receptor, energy.cutoff)
        });
        DockingEngine::with_cells(
            receptor,
            self.lib.protein(spec.ligand),
            self.lib.nsep(spec.receptor),
            Cow::Borrowed(cells),
            energy,
            self.minimize,
        )
    }

    /// Computes one workunit in-process (the agent-free reference path).
    pub fn compute(&self, spec: WorkunitSpec) -> DockingOutput {
        self.engine(spec)
            .dock_range(spec.isep_start, spec.isep_end())
    }

    /// Computes every workunit in catalog order — the baseline the
    /// wire-level campaign's merged output must match byte for byte.
    pub fn baseline_outputs(&self) -> Vec<DockingOutput> {
        self.specs.iter().map(|&s| self.compute(s)).collect()
    }

    /// The §5.2 result-file header of workunit `wu`: what the standard
    /// validation checks (line count, value ranges, canonical indices)
    /// hold a reported output's rows against.
    pub fn file_header(&self, wu: u32) -> FileHeader {
        let spec = self.specs[wu as usize];
        FileHeader {
            receptor: spec.receptor,
            ligand: spec.ligand,
            isep_start: spec.isep_start,
            isep_end: spec.isep_end(),
            nrot: maxdo::NROT_COUPLES as u32,
        }
    }

    /// Wraps a reported output as an owned §5.2 result file (copies the
    /// rows; the server's report path checks them in place instead).
    pub fn result_file(&self, wu: u32, output: &DockingOutput) -> ResultFile {
        let header = self.file_header(wu);
        ResultFile {
            receptor: header.receptor,
            ligand: header.ligand,
            isep_start: header.isep_start,
            isep_end: header.isep_end,
            nrot: header.nrot,
            rows: output.rows.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CampaignParams;

    #[test]
    fn same_params_build_identical_catalogs() {
        let a = NetCampaign::build(CampaignParams::tiny());
        let b = NetCampaign::build(CampaignParams::tiny());
        assert_eq!(a.specs(), b.specs());
        assert!(!a.is_empty());
        for (x, y) in a.catalog().iter().zip(b.catalog()) {
            assert_eq!(x.ref_seconds, y.ref_seconds);
            assert_eq!(x.receptor, y.receptor);
        }
    }

    #[test]
    fn catalog_matches_the_simulator_construction() {
        // The simulator builds its catalog from the same package +
        // schedule; reproduce that path directly and compare.
        let params = CampaignParams::tiny();
        let net = NetCampaign::build(params);
        let config = LibraryConfig {
            separation_spacing: params.separation_spacing,
            ..LibraryConfig::tiny(params.proteins as usize)
        };
        let lib = ProteinLibrary::generate(config, params.lib_seed);
        let matrix = CostMatrix::from_cost_model(&lib, &maxdo::CostModel::with_kappa(COST_KAPPA));
        let pkg = CampaignPackage::new(&lib, &matrix, params.h_seconds);
        let schedule = LaunchSchedule::cheapest_first(&pkg);
        let mut expected = Vec::new();
        schedule.for_each_workunit_in_order(&pkg, |wu| expected.push(wu));
        assert_eq!(net.specs(), &expected[..]);
    }

    #[test]
    fn each_receptor_is_indexed_once_per_campaign() {
        use std::sync::atomic::Ordering::Relaxed;
        let net = NetCampaign::build(CampaignParams::tiny());
        assert_eq!(net.index_builds.load(Relaxed), 0, "indexes are lazy");
        let receptors: std::collections::BTreeSet<_> =
            net.specs().iter().map(|s| s.receptor).collect();
        assert!(net.len() > receptors.len(), "receptors repeat");
        // Engines on four threads at once, then the whole baseline.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| net.specs().iter().for_each(|&s| drop(net.engine(s))));
            }
        });
        let outputs = net.baseline_outputs();
        assert_eq!(net.index_builds.load(Relaxed), receptors.len());
        // A lent index docks what an engine that builds its own does.
        let spec = net.spec(0);
        let own = DockingEngine::for_couple(
            &net.lib,
            spec.receptor,
            spec.ligand,
            EnergyParams::default(),
            net.minimize,
        );
        assert_eq!(outputs[0], own.dock_range(spec.isep_start, spec.isep_end()));
    }

    #[test]
    fn result_file_of_computed_workunit_passes_validation() {
        let net = NetCampaign::build(CampaignParams::tiny());
        let out = net.compute(net.spec(0));
        let file = net.result_file(0, &out);
        let fails = validation::checks::check_file(&file, &validation::ValueRanges::default());
        assert!(fails.is_empty(), "failures: {fails:?}");
    }
}
