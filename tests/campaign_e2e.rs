//! End-to-end campaign integration across all crates: package a small
//! workload, run it on the volunteer grid, and push the trace through the
//! §5–§7 analyses (phases, Table 2, Table 3).

use gridsim::{
    MembershipModel, ProjectPhases, SeasonalityModel, SharePhase, VolunteerGridConfig,
    VolunteerGridSim,
};
use hcmd::phase2::Phase2Assumptions;
use hcmd::phases::phase_summaries;
use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
use timemodel::CostMatrix;
use workunit::CampaignPackage;

/// A small two-phase campaign on a fixed 60-host grid.
fn run_small_campaign(seed: u64) -> (gridsim::CampaignTrace, ProjectPhases) {
    let lib = ProteinLibrary::generate(LibraryConfig::tiny(4), 11);
    let matrix = CostMatrix::from_cost_model(&lib, &CostModel::with_kappa(0.2));
    let pkg = CampaignPackage::new(&lib, &matrix, 2.0 * 3600.0);
    let phases = ProjectPhases::new(vec![
        SharePhase {
            start_day: 0,
            share_start: 0.1,
            share_end: 0.1,
            days: 2,
            name: "control period",
        },
        SharePhase {
            start_day: 2,
            share_start: 1.0,
            share_end: 1.0,
            days: 363,
            name: "full power working phase",
        },
    ]);
    let config = VolunteerGridConfig {
        seed,
        host_params: gridsim::HostParams::wcg_2007(),
        server: gridsim::ServerConfig {
            validation_switch_day: Some(4),
            deadline_seconds: 5.0 * 86_400.0,
            feeder: None,
        },
        membership: MembershipModel {
            reference_vftp: 40.0,
            reference_day: 1,
            growth_exponent: 0.0,
            seasonality: SeasonalityModel::flat(),
            mean_accounted_fraction: 0.5,
        },
        phases: phases.clone(),
        scale_divisor: 1,
        snapshot_days: vec![2, 10_000],
        max_days: 500,
        membership_start_day: 0,
        detailed_sessions: false,
    };
    (VolunteerGridSim::new(&pkg, config).run(), phases)
}

#[test]
fn campaign_finishes_and_conserves_work() {
    let (trace, _) = run_small_campaign(5);
    assert!(trace.completion_day.is_some(), "campaign stalled");
    // Every receptor's workunits all completed.
    let last = trace.snapshots.last().expect("snapshots");
    assert_eq!(last.wus_done, trace.receptor_wu_total);
    // Results: received ≥ useful = workunit count.
    let total_wus: u32 = trace.receptor_wu_total.iter().sum();
    assert_eq!(trace.results_useful, total_wus as u64);
    assert!(trace.results_received >= trace.results_useful);
}

#[test]
fn phase_analysis_reflects_the_share_ramp() {
    let (trace, phases) = run_small_campaign(5);
    let summaries = phase_summaries(&trace, &phases);
    let control = summaries
        .iter()
        .find(|s| s.name == "control period")
        .expect("control phase");
    let full = summaries
        .iter()
        .find(|s| s.name == "full power working phase")
        .expect("full power phase");
    assert!(
        full.mean_project_vftp > control.mean_project_vftp * 2.0,
        "full {} vs control {}",
        full.mean_project_vftp,
        control.mean_project_vftp
    );
}

#[test]
fn table2_from_the_measured_campaign() {
    let (trace, _) = run_small_campaign(5);
    let end = trace.completion_day.unwrap() + 1;
    let sd = trace.speed_down();
    let t2 = hcmd::table2(
        trace.mean_project_vftp(0, end),
        trace.mean_project_vftp(2, end),
        sd.raw_factor(),
    );
    // The dedicated equivalent is always far smaller than the volunteer
    // VFTP — the paper's core message.
    for row in &t2.rows {
        assert!(row.dedicated < row.wcg_vftp / 2.0);
        assert!(row.dedicated > 0.0);
    }
}

#[test]
fn phase2_projection_from_measured_campaign_scales_like_the_paper() {
    let (trace, _) = run_small_campaign(5);
    let a = Phase2Assumptions::paper().with_measured_phase1(trace.consumed_cpu_seconds(), 2.0);
    let p = a.project();
    // The structural ratios hold regardless of the phase-1 magnitude.
    assert!((p.work_ratio - 5.66).abs() < 0.01);
    assert!((p.phase2_cpu_seconds / trace.consumed_cpu_seconds() - p.work_ratio).abs() < 1e-9);
    assert!((p.weeks_at_phase1_rate - 2.0 * p.work_ratio).abs() < 1e-9);
}

#[test]
fn different_seeds_same_work_different_dynamics() {
    let (a, _) = run_small_campaign(1);
    let (b, _) = run_small_campaign(2);
    // Same workload…
    assert_eq!(a.receptor_wu_total, b.receptor_wu_total);
    assert_eq!(a.reference_total_seconds, b.reference_total_seconds);
    // …different stochastic execution.
    assert_ne!(a.consumed_cpu_seconds(), b.consumed_cpu_seconds());
    // …but both complete everything.
    assert_eq!(a.results_useful, b.results_useful);
}

/// The scale-gate contract (DESIGN.md): dividing the workload and the
/// population by the same factor preserves intensive quantities. Run the
/// HCMD campaign at 1/50 and 1/100 and compare.
#[test]
fn intensive_quantities_are_scale_invariant() {
    let run = |scale: u32| {
        let full = ProteinLibrary::phase1_catalog();
        let matrix = CostMatrix::phase1(&full);
        let lib = full.with_scaled_nsep(scale);
        let pkg = CampaignPackage::new(&lib, &matrix, workunit::PRODUCTION_WU_SECONDS);
        VolunteerGridSim::new(&pkg, gridsim::VolunteerGridConfig::hcmd_phase1(scale, 2007)).run()
    };
    let a = run(50);
    let b = run(100);
    // Completion day within 15 %.
    let (da, db) = (
        a.completion_day.expect("a completes") as f64,
        b.completion_day.expect("b completes") as f64,
    );
    assert!((da - db).abs() / da < 0.15, "completion {da} vs {db}");
    // Speed-down within 10 %.
    let (sa, sb) = (a.speed_down().raw_factor(), b.speed_down().raw_factor());
    assert!((sa - sb).abs() / sa < 0.10, "raw speed-down {sa} vs {sb}");
    // Full-scale consumed CPU within 15 %.
    let (ca, cb) = (
        a.consumed_cpu_seconds() * 50.0,
        b.consumed_cpu_seconds() * 100.0,
    );
    assert!((ca - cb).abs() / ca < 0.15, "consumed {ca} vs {cb}");
    // Mean project VFTP within 15 %.
    let (va, vb) = (a.mean_project_vftp(0, 182), b.mean_project_vftp(0, 182));
    assert!((va - vb).abs() / va < 0.15, "vftp {va} vs {vb}");
}
