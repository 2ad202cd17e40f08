//! The simulator's event counter, checked against the trace.
//!
//! Counters are process-global, so this binary holds one test and runs
//! one campaign: `sim.events.processed` must then equal the trace's own
//! `events_processed` exactly, and the engine must publish no counter of
//! its own beside it.
#![cfg(feature = "telemetry")]

use gridsim::{
    MembershipModel, ProjectPhases, SeasonalityModel, SharePhase, VolunteerGridConfig,
    VolunteerGridSim,
};
use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
use timemodel::CostMatrix;
use workunit::CampaignPackage;

#[test]
fn the_processed_counter_equals_the_traces_event_count() {
    let lib = ProteinLibrary::generate(LibraryConfig::tiny(2), 7);
    let matrix = CostMatrix::from_cost_model(&lib, &CostModel::with_kappa(0.3));
    let pkg = CampaignPackage::new(&lib, &matrix, 4.0 * 3600.0);
    let mut config = VolunteerGridConfig::hcmd_phase1(1, 42);
    config.membership = MembershipModel {
        reference_vftp: 40.0,
        reference_day: 1,
        growth_exponent: 0.0,
        seasonality: SeasonalityModel::flat(),
        mean_accounted_fraction: 0.625,
    };
    config.phases = ProjectPhases::new(vec![SharePhase {
        start_day: 0,
        share_start: 1.0,
        share_end: 1.0,
        days: 365,
        name: "full",
    }]);
    config.membership_start_day = 0;
    let trace = VolunteerGridSim::new(&pkg, config).run();

    assert!(trace.events_processed > 0);
    assert_eq!(
        telemetry::counter("sim.events.processed").get(),
        trace.events_processed
    );
    let snapshot = telemetry::snapshot();
    assert!(
        snapshot
            .counters
            .iter()
            .all(|(name, _)| name != "sim.events.popped"),
        "the engine publishes a pop counter of its own: {:?}",
        snapshot.counters
    );
}
