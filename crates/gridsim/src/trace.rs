//! Campaign accounting: everything Figures 6–8 and §6 report.
//!
//! The simulator writes into a [`CampaignTrace`] as events unfold; the
//! bench harness then derives the paper's artifacts from it:
//!
//! * Figure 6(a) — the daily *accounted* CPU time of the project and of
//!   the whole grid, converted to virtual full-time processors;
//! * Figure 6(b) — results received per week, split useful/redundant;
//! * Figure 7 — per-receptor progression snapshots;
//! * Figure 8 — the distribution of realized (accounted) workunit run
//!   times;
//! * §6 — consumed CPU time, redundancy factor, speed-down.

use metrics::{DailySeries, ProgressionSnapshot, SpeedDown};
use serde::{Deserialize, Serialize};

/// A per-receptor work snapshot captured at a campaign day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkSnapshot {
    /// Campaign day the snapshot was taken.
    pub day: usize,
    /// Completed reference CPU seconds per receptor (launch order).
    pub done: Vec<f64>,
    /// Completed workunits per receptor (exact completeness test).
    pub wus_done: Vec<u32>,
}

/// The full accounting record of one simulated campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignTrace {
    /// Scale divisor the simulation ran at (1 = full scale). Extensive
    /// quantities (CPU time, results, hosts) are 1/divisor of full scale.
    pub scale_divisor: u32,
    /// Accounted CPU seconds of the project, per campaign day.
    pub project_cpu_daily: DailySeries,
    /// Accounted CPU seconds of the whole grid, per campaign day
    /// (project + the analytically-modelled other projects).
    pub grid_cpu_daily: DailySeries,
    /// Results received per day (all, incl. redundant and erroneous).
    pub results_daily: DailySeries,
    /// Useful results per day.
    pub useful_results_daily: DailySeries,
    /// Accounted run time of every reported result, seconds (Figure 8).
    pub realized_runtimes: Vec<f32>,
    /// Points-based credit ledger (§8 proposal).
    pub credit: crate::credit::CreditLedger,
    /// Total reference CPU seconds per receptor, launch order.
    pub receptor_total: Vec<f64>,
    /// Total workunits per receptor, launch order.
    pub receptor_wu_total: Vec<u32>,
    /// Per-receptor progression snapshots at the configured days.
    pub snapshots: Vec<WorkSnapshot>,
    /// Day the last workunit validated, if the campaign finished.
    pub completion_day: Option<usize>,
    /// Total results received.
    pub results_received: u64,
    /// Useful results.
    pub results_useful: u64,
    /// Server-side issue/reissue cause accounting.
    pub server_stats: crate::sched::ServerStats,
    /// Formula-(1) reference total of the simulated (scaled) workload,
    /// seconds.
    pub reference_total_seconds: f64,
    /// Discrete events the engine processed over the whole run.
    pub events_processed: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
}

impl CampaignTrace {
    /// Total accounted CPU seconds consumed by the project.
    pub fn consumed_cpu_seconds(&self) -> f64 {
        self.project_cpu_daily.total()
    }

    /// The §6 speed-down record of this campaign.
    pub fn speed_down(&self) -> SpeedDown {
        SpeedDown {
            reference_cpu_seconds: self.reference_total_seconds,
            consumed_cpu_seconds: self.consumed_cpu_seconds(),
            redundancy_factor: self.redundancy_factor(),
        }
    }

    /// Results received / useful results.
    pub fn redundancy_factor(&self) -> f64 {
        if self.results_useful == 0 {
            1.0
        } else {
            self.results_received as f64 / self.results_useful as f64
        }
    }

    /// Fraction of received results that were useful (the paper's "only
    /// 73 % are useful results").
    pub fn useful_fraction(&self) -> f64 {
        if self.results_received == 0 {
            0.0
        } else {
            self.results_useful as f64 / self.results_received as f64
        }
    }

    /// Project VFTP per day (Figure 6a), *at full scale* (multiplied back
    /// by the scale divisor).
    pub fn project_vftp_daily(&self) -> Vec<f64> {
        self.project_cpu_daily
            .values()
            .iter()
            .map(|&c| c * self.scale_divisor as f64 / 86_400.0)
            .collect()
    }

    /// Grid VFTP per day (the upper curve of Figure 6a), full scale.
    pub fn grid_vftp_daily(&self) -> Vec<f64> {
        self.grid_cpu_daily
            .values()
            .iter()
            .map(|&c| c * self.scale_divisor as f64 / 86_400.0)
            .collect()
    }

    /// Mean project VFTP over a day range, full scale.
    pub fn mean_project_vftp(&self, from_day: usize, to_day: usize) -> f64 {
        if to_day <= from_day {
            return 0.0;
        }
        self.project_cpu_daily.range_total(from_day, to_day) * self.scale_divisor as f64
            / ((to_day - from_day) as f64 * 86_400.0)
    }

    /// Results received per week (Figure 6b), full scale.
    pub fn results_weekly(&self) -> Vec<f64> {
        self.results_daily
            .weekly()
            .iter()
            .map(|&r| r * self.scale_divisor as f64)
            .collect()
    }

    /// Useful results per week, full scale.
    pub fn useful_results_weekly(&self) -> Vec<f64> {
        self.useful_results_daily
            .weekly()
            .iter()
            .map(|&r| r * self.scale_divisor as f64)
            .collect()
    }

    /// Converts a [`WorkSnapshot`] to the Figure 7 progression view.
    ///
    /// Completeness is decided on exact workunit counts (float accumulation
    /// of per-workunit estimates can undershoot the receptor total by
    /// rounding dust, which must not mark a finished protein incomplete).
    pub fn progression(&self, snapshot: &WorkSnapshot) -> ProgressionSnapshot {
        ProgressionSnapshot::new(
            format!("day {}", snapshot.day),
            snapshot
                .done
                .iter()
                .zip(&self.receptor_total)
                .enumerate()
                .map(|(i, (&done, &total))| {
                    let complete = snapshot.wus_done.get(i).copied().unwrap_or(0)
                        >= self.receptor_wu_total.get(i).copied().unwrap_or(u32::MAX);
                    metrics::progression::ProteinProgress {
                        protein: i,
                        total_work: total,
                        done_work: if complete { total } else { done.min(total) },
                    }
                })
                .collect(),
        )
    }

    /// Points-based project VFTP over a day window (§8's middleware-
    /// independent estimator), full scale.
    pub fn points_vftp(&self, from_day: usize, to_day: usize) -> f64 {
        self.credit.vftp(from_day, to_day) * self.scale_divisor as f64
    }

    /// Mean realized (accounted) workunit run time, seconds (Figure 8's
    /// "around 13 hours" aggregate).
    pub fn mean_realized_runtime(&self) -> f64 {
        if self.realized_runtimes.is_empty() {
            return 0.0;
        }
        self.realized_runtimes
            .iter()
            .map(|&x| x as f64)
            .sum::<f64>()
            / self.realized_runtimes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> CampaignTrace {
        let mut project = DailySeries::new();
        project.add(0, 86_400.0 * 2.0); // 2 VFTP on day 0 (scaled)
        project.add(1, 86_400.0 * 4.0);
        let mut grid = DailySeries::new();
        grid.add(0, 86_400.0 * 10.0);
        grid.add(1, 86_400.0 * 10.0);
        let mut results = DailySeries::new();
        results.add(0, 10.0);
        results.add(8, 4.0);
        let mut useful = DailySeries::new();
        useful.add(0, 8.0);
        useful.add(8, 2.0);
        CampaignTrace {
            scale_divisor: 10,
            project_cpu_daily: project,
            grid_cpu_daily: grid,
            results_daily: results,
            useful_results_daily: useful,
            realized_runtimes: vec![100.0, 300.0],
            credit: crate::credit::CreditLedger::new(),
            receptor_total: vec![10.0, 30.0],
            receptor_wu_total: vec![1, 2],
            snapshots: vec![WorkSnapshot {
                day: 1,
                done: vec![10.0, 15.0],
                wus_done: vec![1, 1],
            }],
            completion_day: Some(2),
            results_received: 14,
            results_useful: 10,
            server_stats: crate::sched::ServerStats::default(),
            reference_total_seconds: 86_400.0,
            events_processed: 24,
            peak_queue_depth: 6,
        }
    }

    #[test]
    fn vftp_series_scale_back_to_full_scale() {
        let t = sample_trace();
        assert_eq!(t.project_vftp_daily(), vec![20.0, 40.0]);
        assert_eq!(t.grid_vftp_daily(), vec![100.0, 100.0]);
    }

    #[test]
    fn mean_project_vftp_over_window() {
        let t = sample_trace();
        assert!((t.mean_project_vftp(0, 2) - 30.0).abs() < 1e-9);
        assert_eq!(t.mean_project_vftp(2, 2), 0.0);
    }

    #[test]
    fn redundancy_and_useful_fraction() {
        let t = sample_trace();
        assert!((t.redundancy_factor() - 1.4).abs() < 1e-12);
        assert!((t.useful_fraction() - 10.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn weekly_results_aggregate_and_scale() {
        let t = sample_trace();
        assert_eq!(t.results_weekly(), vec![100.0, 40.0]);
        assert_eq!(t.useful_results_weekly(), vec![80.0, 20.0]);
    }

    #[test]
    fn speed_down_record_uses_trace_totals() {
        let t = sample_trace();
        let s = t.speed_down();
        assert_eq!(s.reference_cpu_seconds, 86_400.0);
        assert_eq!(s.consumed_cpu_seconds, 86_400.0 * 6.0);
        assert!((s.raw_factor() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn progression_snapshot_converts() {
        let t = sample_trace();
        let p = t.progression(&t.snapshots[0]);
        assert_eq!(p.proteins.len(), 2);
        assert!(p.proteins[0].is_complete());
        assert!(!p.proteins[1].is_complete());
        assert!((p.fraction_work_complete() - 25.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn mean_realized_runtime() {
        let t = sample_trace();
        assert!((t.mean_realized_runtime() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn trace_round_trips_through_json_text() {
        let t = sample_trace();
        let json = serde_json::to_string(&t).unwrap();
        let back: CampaignTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn snapshot_round_trips_through_value_tree() {
        use serde::{Deserialize, Serialize};
        let s = sample_trace().snapshots[0].clone();
        let back = WorkSnapshot::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_edge_cases() {
        let mut t = sample_trace();
        t.realized_runtimes.clear();
        t.results_received = 0;
        t.results_useful = 0;
        assert_eq!(t.mean_realized_runtime(), 0.0);
        assert_eq!(t.redundancy_factor(), 1.0);
        assert_eq!(t.useful_fraction(), 0.0);
    }
}
