//! The BOINC-style task server (simulator frontend).
//!
//! §3.1: the grid is "several servers that host a database of computing
//! work (data + program) named workunit"; agents fetch workunits, compute,
//! report, and ask for more.
//!
//! Since PR 4 the actual scheduling logic — replica issue, deadlines and
//! reissue, redundant computing with quorum validation, the mid-campaign
//! validation switch — lives in the transport-free [`crate::sched`]
//! module, because two frontends now drive it: the discrete-event
//! simulator in this crate and the live wire-level grid in
//! `hcmd-netgrid`. Both use [`SchedulerCore`] itself, so they cannot
//! drift apart, and the `scheduler_parity` integration test pins that
//! guarantee. This module is the path the frontends import it by.

pub use crate::sched::{
    CoreSnapshot, FeederConfig, ReplicaAssignment, ReplicaId, ReplicationOverride, ReportOutcome,
    SchedulerCore, ServerConfig, ServerStats, ValidationPolicy, WorkunitCatalogEntry,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimTime;

    /// The simulator-facing path exposes the full policy API surface
    /// (the deep behavioural tests live next to the core in `sched`).
    #[test]
    fn the_re_exported_core_drives_a_workunit_to_quorum() {
        let catalog = vec![
            WorkunitCatalogEntry {
                ref_seconds: 1000.0,
                position_ref_seconds: 100.0,
                receptor: 0,
            };
            2
        ];
        let mut s = SchedulerCore::new(catalog, ServerConfig::default());
        let t = |sec: f64| SimTime::new(sec);
        assert_eq!(s.policy_at(t(0.0)), ValidationPolicy::QuorumCompare);
        let a = s.fetch_work(t(0.0)).expect("work available");
        let b = s.fetch_work(t(1.0)).expect("sibling available");
        assert_eq!(a.workunit, b.workunit, "quorum sibling first");
        assert!(!s.report_result(t(2.0), a.replica, false).completed_workunit);
        assert!(s.report_result(t(3.0), b.replica, false).completed_workunit);
        assert_eq!(s.completed_count(), 1);
        assert_eq!(s.stats.total_issues(), 2);
    }
}
