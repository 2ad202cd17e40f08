//! The volunteer-grid campaign simulator.
//!
//! Ties everything together: the launch-ordered workunit catalog (§4.2 +
//! §5.1), the task server (§3.1/§5.1), the volunteer host population with
//! its growth and project-share phases (§3.1/§5.1), and the campaign
//! accounting (§5/§6). One event per replica issue/report/timeout plus one
//! tick per day keeps a full-scale 26-week campaign tractable; scaled runs
//! (`scale_divisor` > 1) divide both workload and population so every
//! intensive quantity — VFTP per share, speed-down, redundancy, durations —
//! is preserved while extensive ones shrink.
//!
//! The simulator runs on the crate's one event engine, the timing-wheel
//! [`EventQueue`]. A trace is a pure function of the seed and the
//! configuration: `tests/event_engine_identity.rs` holds the serialized
//! traces of four fixed campaigns (three analytic seeds and the
//! session-level mode) to recorded digests, byte for byte.

use crate::event::{EventQueue, SimTime};
use crate::host::{Host, HostId, HostParams};
use crate::membership::{ChurnCounters, MembershipModel, HCMD_LAUNCH_DAY};
use crate::project::ProjectPhases;
use crate::sched::{ReplicaId, SchedulerCore, ServerConfig, WorkunitCatalogEntry};
use crate::trace::{CampaignTrace, WorkSnapshot};
use metrics::DailySeries;
use workunit::{CampaignPackage, LaunchSchedule};

/// Cached metric handles for the engine loop (zero-sized when telemetry
/// is disabled). Resolved once at construction. The hot pop loop itself
/// touches no atomics: [`EventQueue`] counts pops in a plain field and
/// [`SimTelemetry::flush_events`] reconciles the global counter at day
/// granularity.
#[derive(Debug)]
struct SimTelemetry {
    events: &'static telemetry::Counter,
    queue_peak: &'static telemetry::Gauge,
    active_hosts: &'static telemetry::Gauge,
    churn: ChurnCounters,
    /// Pops already published to `events` (the counter is process-global
    /// and several sims may run in one process, so deltas are tracked
    /// per engine).
    events_flushed: u64,
}

impl SimTelemetry {
    fn new() -> Self {
        Self {
            events: telemetry::counter("sim.events.processed"),
            queue_peak: telemetry::gauge("sim.queue.depth.peak"),
            active_hosts: telemetry::gauge("sim.hosts.active"),
            churn: ChurnCounters::new(),
            events_flushed: 0,
        }
    }

    /// Publishes pops accumulated since the last flush.
    fn flush_events(&mut self, pops: u64) {
        self.events.add(pops - self.events_flushed);
        self.events_flushed = pops;
    }
}

/// Configuration of a volunteer-grid campaign run.
#[derive(Debug, Clone)]
pub struct VolunteerGridConfig {
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Host population parameters.
    pub host_params: HostParams,
    /// Task-server policy.
    pub server: ServerConfig,
    /// Grid-wide membership model.
    pub membership: MembershipModel,
    /// Project share-of-grid phases.
    pub phases: ProjectPhases,
    /// Scale divisor (1 = full scale). The *library* must already carry
    /// `Nsep` scaled by the same divisor (see
    /// `ProteinLibrary::with_scaled_nsep`).
    pub scale_divisor: u32,
    /// Campaign days at which to capture Figure 7 snapshots.
    pub snapshot_days: Vec<usize>,
    /// Hard stop, days (safety bound for pathological configurations).
    pub max_days: usize,
    /// Day offset of the campaign start in the membership timeline.
    pub membership_start_day: usize,
    /// Use the session-level host executor instead of the analytic plan
    /// (slower: availability sessions are simulated explicitly; see
    /// `gridsim::sessions`). The two agree on population statistics — the
    /// detailed mode exists for validation and fine-grained studies.
    pub detailed_sessions: bool,
}

impl VolunteerGridConfig {
    /// The HCMD phase-I configuration at a given scale. Snapshot days
    /// match the four dates of Figure 7 (2007-03-20, 04-11, 05-02, 06-11 =
    /// campaign days 91, 113, 134, 174).
    pub fn hcmd_phase1(scale_divisor: u32, seed: u64) -> Self {
        Self {
            seed,
            host_params: HostParams::wcg_2007(),
            server: ServerConfig::default(),
            membership: MembershipModel::wcg(),
            phases: ProjectPhases::hcmd_phase1(),
            scale_divisor,
            snapshot_days: vec![91, 113, 134, 174],
            max_days: 3 * 365,
            membership_start_day: HCMD_LAUNCH_DAY,
            detailed_sessions: false,
        }
    }
}

/// An event in the volunteer-grid simulation.
///
/// A small inline enum — no boxing — so the timing wheel's bucket `Vec`s
/// hold events by value with no per-schedule allocation.
#[derive(Debug)]
pub(crate) enum SimEvent {
    /// Daily tick: population targets, snapshots, grid accounting.
    DayTick,
    /// A host asks the server for work.
    Fetch(u32),
    /// A host reports a finished replica.
    Report {
        /// Reporting host index.
        host: u32,
        /// The replica being reported.
        replica: ReplicaId,
        /// Absolute issue time, seconds.
        issue_seconds: f64,
        /// Accounted CPU/wall seconds for credit and Figure 6.
        accounted: f64,
        /// Whether the result is erroneous.
        error: bool,
    },
    /// A replica's deadline expired.
    Timeout(ReplicaId),
}

struct HostSlot {
    host: Host,
    active: bool,
    join_seconds: f64,
}

/// The simulator, on the timing-wheel [`EventQueue`].
pub struct VolunteerGridSim {
    config: VolunteerGridConfig,
    server: SchedulerCore,
    queue: EventQueue<SimEvent>,
    hosts: Vec<HostSlot>,
    idle: Vec<u32>,
    active_count: usize,
    retire_quota: usize,
    receptor_done: Vec<f64>,
    receptor_wus_done: Vec<u32>,
    trace: CampaignTrace,
    snapshot_days: Vec<usize>,
    current_day: usize,
    tele: SimTelemetry,
}

impl VolunteerGridSim {
    /// Builds a simulator from a packaged campaign.
    ///
    /// The catalog is ordered by the §5.1 launch schedule (cheapest
    /// receptor first); receptor indices in the trace follow that order.
    pub fn new(pkg: &CampaignPackage<'_>, config: VolunteerGridConfig) -> Self {
        let schedule = LaunchSchedule::cheapest_first(pkg);
        let mut catalog = Vec::new();
        let mut receptor_total = vec![0.0f64; schedule.len()];
        let mut receptor_wu_total = vec![0u32; schedule.len()];
        let mut receptor_index = vec![0u16; schedule.len()];
        for (launch_idx, &pid) in schedule.order().iter().enumerate() {
            receptor_index[pid.0 as usize] = launch_idx as u16;
        }
        schedule.for_each_workunit_in_order(pkg, |wu| {
            let mct = pkg
                .matrix()
                .get(wu.receptor.0 as usize, wu.ligand.0 as usize);
            let est = wu.positions as f64 * mct;
            let launch_idx = receptor_index[wu.receptor.0 as usize];
            receptor_total[launch_idx as usize] += est;
            receptor_wu_total[launch_idx as usize] += 1;
            catalog.push(WorkunitCatalogEntry {
                ref_seconds: est as f32,
                position_ref_seconds: mct as f32,
                receptor: launch_idx,
            });
        });
        let reference_total_seconds: f64 = receptor_total.iter().sum();
        let (wu_count, h_seconds) = (catalog.len() as u64, pkg.h_seconds);
        telemetry::emit(None, move || telemetry::Event::WorkunitPackaged {
            count: wu_count,
            h_seconds,
        });
        let server = SchedulerCore::new(catalog, config.server);
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, SimEvent::DayTick);
        let n_receptors = schedule.len();
        let snapshot_days = config.snapshot_days.clone();
        let trace = CampaignTrace {
            scale_divisor: config.scale_divisor,
            project_cpu_daily: DailySeries::new(),
            grid_cpu_daily: DailySeries::new(),
            results_daily: DailySeries::new(),
            useful_results_daily: DailySeries::new(),
            realized_runtimes: Vec::new(),
            credit: crate::credit::CreditLedger::new(),
            receptor_total: receptor_total.clone(),
            receptor_wu_total,
            snapshots: Vec::new(),
            completion_day: None,
            results_received: 0,
            results_useful: 0,
            server_stats: crate::sched::ServerStats::default(),
            reference_total_seconds,
            events_processed: 0,
            peak_queue_depth: 0,
        };
        Self {
            config,
            server,
            queue,
            hosts: Vec::new(),
            idle: Vec::new(),
            active_count: 0,
            retire_quota: 0,
            receptor_done: vec![0.0; n_receptors],
            receptor_wus_done: vec![0; n_receptors],
            trace,
            snapshot_days,
            current_day: 0,
            tele: SimTelemetry::new(),
        }
    }

    /// Target active host count on a campaign day.
    fn target_hosts(&self, day: usize) -> usize {
        let grid_devices = self
            .config
            .membership
            .device_count(self.config.membership_start_day + day);
        let share = self.config.phases.share(day);
        ((grid_devices as f64 * share) / self.config.scale_divisor as f64).round() as usize
    }

    /// Runs the campaign to completion (or `max_days`) and returns the
    /// trace.
    pub fn run(mut self) -> CampaignTrace {
        while let Some((now, event)) = self.queue.pop() {
            match event {
                SimEvent::DayTick => self.on_day_tick(now),
                SimEvent::Fetch(h) => self.on_fetch(now, h),
                SimEvent::Report {
                    host,
                    replica,
                    issue_seconds,
                    accounted,
                    error,
                } => self.on_report(now, host, replica, issue_seconds, accounted, error),
                SimEvent::Timeout(replica) => {
                    self.server.handle_timeout(replica);
                }
            }
            self.wake_idle_hosts();
        }
        // Final snapshot bookkeeping: any requested snapshot day past the
        // end of the simulation sees the final state.
        let final_day = self.current_day;
        for &day in &self.snapshot_days {
            if day > final_day && self.trace.snapshots.iter().all(|s| s.day != day) {
                self.trace.snapshots.push(WorkSnapshot {
                    day,
                    done: self.receptor_done.clone(),
                    wus_done: self.receptor_wus_done.clone(),
                });
            }
        }
        self.trace.snapshots.sort_by_key(|s| s.day);
        self.trace.results_received = self.server.results_received;
        self.trace.results_useful = self.server.results_useful;
        self.trace.server_stats = self.server.stats;
        self.trace.events_processed = self.queue.pops();
        self.trace.peak_queue_depth = self.queue.peak_len() as u64;
        self.tele.flush_events(self.queue.pops());
        self.tele
            .queue_peak
            .record_max(self.queue.peak_len() as i64);
        self.trace
    }

    fn on_day_tick(&mut self, now: SimTime) {
        let day = now.day();
        self.current_day = day;
        // Grid-wide accounting (the "available" curve of Figure 6a): the
        // whole grid's accounted CPU that day, scaled.
        let grid_vftp = self
            .config
            .membership
            .vftp(self.config.membership_start_day + day);
        self.trace
            .grid_cpu_daily
            .add(day, grid_vftp * 86_400.0 / self.config.scale_divisor as f64);

        // Population control.
        let target = self.target_hosts(day);
        if target > self.active_count {
            let spawn = target - self.active_count;
            for k in 0..spawn {
                let id = self.hosts.len() as u32;
                let host = Host::sample_at_day(
                    HostId(id as u64),
                    &self.config.host_params,
                    self.config.seed,
                    day,
                );
                self.hosts.push(HostSlot {
                    host,
                    active: true,
                    join_seconds: now.seconds(),
                });
                self.active_count += 1;
                self.tele.churn.spawned.inc();
                // Spread arrivals over the day deterministically.
                let offset = 86_400.0 * (k as f64 + 0.5) / spawn as f64;
                self.queue.schedule(now.after(offset), SimEvent::Fetch(id));
            }
        } else {
            self.retire_quota += self.active_count - target;
        }

        // Figure 7 snapshots.
        if self.snapshot_days.contains(&day) {
            self.trace.snapshots.push(WorkSnapshot {
                day,
                done: self.receptor_done.clone(),
                wus_done: self.receptor_wus_done.clone(),
            });
        }

        self.tele.active_hosts.set(self.active_count as i64);
        let pops = self.queue.pops();
        self.tele.flush_events(pops);
        self.tele
            .queue_peak
            .record_max(self.queue.peak_len() as i64);
        let (active_hosts, queue_len, completed) = (
            self.active_count as u64,
            self.queue.len() as u64,
            self.server.completed_count() as u64,
        );
        telemetry::emit(Some(now.seconds()), move || telemetry::Event::DaySummary {
            day: day as u64,
            active_hosts,
            queue_len,
            completed,
        });

        if !self.server.is_campaign_complete() && day + 1 < self.config.max_days {
            self.queue.schedule(now.after(86_400.0), SimEvent::DayTick);
        }
    }

    fn on_fetch(&mut self, now: SimTime, h: u32) {
        // Horizon guard: past max_days nothing new is issued, so the
        // event queue drains even for pathological configurations (e.g.
        // an error storm that would otherwise reissue forever).
        if now.day() >= self.config.max_days {
            return;
        }
        let slot = &mut self.hosts[h as usize];
        if !slot.active {
            return;
        }
        // Churn: retire on quota or end of life.
        let end_of_life = now.seconds() > slot.join_seconds + slot.host.lifetime_seconds;
        if self.retire_quota > 0 || end_of_life {
            if self.retire_quota > 0 && !end_of_life {
                self.retire_quota -= 1;
            }
            slot.active = false;
            self.active_count -= 1;
            self.tele.churn.retired.inc();
            return;
        }
        match self.server.fetch_work(now) {
            Some(assign) => {
                if self.server.sampled(assign.workunit) {
                    telemetry::emit(Some(now.seconds()), || {
                        telemetry::Event::WorkunitDispatched {
                            workunit: u64::from(assign.workunit),
                            host: u64::from(h),
                        }
                    });
                }
                let exec = if self.config.detailed_sessions {
                    // Session-level execution: explicit on/off periods and
                    // checkpoint replay; error/abandon draws come from the
                    // host's own stream to stay deterministic.
                    let mut rng = crate::rng::stream(
                        self.config.seed,
                        crate::rng::Domain::HostExecution,
                        (h as u64) << 32 | assign.replica.0 & 0xFFFF_FFFF,
                    );
                    let sess = crate::sessions::execute_with_sessions(
                        &slot.host,
                        assign.ref_seconds,
                        assign.position_ref_seconds,
                        &mut rng,
                    );
                    use rand::Rng;
                    crate::host::WorkunitExecution {
                        turnaround_seconds: sess.turnaround_seconds,
                        accounted_seconds: match slot.host.accounting {
                            crate::host::AccountingMode::WallClock => sess.attached_seconds,
                            crate::host::AccountingMode::CpuTime => sess.cpu_seconds,
                        },
                        cpu_seconds: sess.cpu_seconds,
                        error: rng.gen::<f64>() < slot.host.error_rate,
                        abandoned: rng.gen::<f64>() < slot.host.abandon_rate,
                    }
                } else {
                    slot.host
                        .plan_execution(assign.ref_seconds, assign.position_ref_seconds)
                };
                self.queue.schedule(
                    now.after(self.server.deadline_seconds()),
                    SimEvent::Timeout(assign.replica),
                );
                if exec.abandoned {
                    // The volunteer silently walks away: the host leaves
                    // the grid mid-workunit; the deadline will reissue.
                    slot.active = false;
                    self.active_count -= 1;
                    self.tele.churn.abandoned.inc();
                } else {
                    self.queue.schedule(
                        now.after(exec.turnaround_seconds),
                        SimEvent::Report {
                            host: h,
                            replica: assign.replica,
                            issue_seconds: now.seconds(),
                            accounted: exec.accounted_seconds,
                            error: exec.error,
                        },
                    );
                }
            }
            None => {
                self.idle.push(h);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_report(
        &mut self,
        now: SimTime,
        host: u32,
        replica: ReplicaId,
        issue_seconds: f64,
        accounted: f64,
        error: bool,
    ) {
        // Account the attached run time over the replica's lifetime.
        self.trace.project_cpu_daily.add_interval(
            issue_seconds,
            now.seconds().max(issue_seconds + 1e-6),
            accounted,
        );
        self.trace.realized_runtimes.push(accounted as f32);
        let points = crate::credit::points_for(&self.hosts[host as usize].host, accounted);
        self.trace
            .credit
            .grant_interval(issue_seconds, now.seconds(), points);
        let day = now.day();
        self.trace.results_daily.add(day, 1.0);
        let wu = self.workunit_of(replica);
        if self.server.sampled(wu) {
            telemetry::emit(Some(now.seconds()), || telemetry::Event::ResultReturned {
                workunit: u64::from(wu),
                host: u64::from(host),
                error,
            });
        }
        let outcome = self.server.report_result(now, replica, error);
        if outcome.useful {
            self.trace.useful_results_daily.add(day, 1.0);
        }
        if outcome.completed_workunit {
            let entry = self.server.entry(self.workunit_of(replica));
            self.receptor_done[entry.receptor as usize] += entry.ref_seconds as f64;
            self.receptor_wus_done[entry.receptor as usize] += 1;
            if self.server.is_campaign_complete() {
                self.trace.completion_day = Some(day);
            }
        }
        // The host asks for more work shortly (unless the horizon passed).
        if now.day() < self.config.max_days {
            let delay = self.hosts[host as usize].host.work_fetch_delay();
            self.queue.schedule(now.after(delay), SimEvent::Fetch(host));
        }
    }

    fn workunit_of(&self, replica: ReplicaId) -> u32 {
        // The server assigns replica ids densely; recover the workunit via
        // its replica table.
        self.server.replica_workunit(replica)
    }

    /// Wakes idle hosts when the server has work again.
    ///
    /// Runs after *every* event, so it must not scan the host table:
    /// hosts that found no work park themselves on the `idle` free-list
    /// and this pops at most `available_count` of them — O(1) when
    /// nobody is idle, O(woken) otherwise, never O(hosts).
    fn wake_idle_hosts(&mut self) {
        if self.idle.is_empty() {
            return;
        }
        let mut available = self.server.available_count();
        while available > 0 {
            let Some(h) = self.idle.pop() else { break };
            if !self.hosts[h as usize].active {
                continue;
            }
            self.queue.schedule_in(1.0, SimEvent::Fetch(h));
            available -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
    use timemodel::CostMatrix;

    fn tiny_campaign(seed: u64) -> CampaignTrace {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(3), 7);
        let model = CostModel::with_kappa(0.3);
        let matrix = CostMatrix::from_cost_model(&lib, &model);
        let pkg = CampaignPackage::new(&lib, &matrix, 4.0 * 3600.0);
        let mut config = VolunteerGridConfig::hcmd_phase1(1, seed);
        // A small fixed population so the tiny campaign finishes quickly.
        config.membership = MembershipModel {
            reference_vftp: 40.0,
            reference_day: 1,
            growth_exponent: 0.0,
            seasonality: crate::membership::SeasonalityModel::flat(),
            mean_accounted_fraction: 0.625,
        };
        config.phases = ProjectPhases::new(vec![crate::project::SharePhase {
            start_day: 0,
            share_start: 1.0,
            share_end: 1.0,
            days: 365,
            name: "full",
        }]);
        config.membership_start_day = 0;
        config.snapshot_days = vec![1, 10_000];
        VolunteerGridSim::new(&pkg, config).run()
    }

    #[test]
    fn tiny_campaign_completes() {
        let t = tiny_campaign(42);
        assert!(t.completion_day.is_some(), "campaign did not finish");
        assert!(t.results_received > 0);
        assert!(t.results_useful > 0);
        assert!(t.results_received >= t.results_useful);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = tiny_campaign(42);
        let b = tiny_campaign(42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_campaign(1);
        let b = tiny_campaign(2);
        assert_ne!(a.consumed_cpu_seconds(), b.consumed_cpu_seconds());
    }

    #[test]
    fn all_work_is_eventually_done() {
        let t = tiny_campaign(42);
        // Every receptor's done work equals its total (within float dust).
        for (done, total) in t
            .snapshots
            .last()
            .unwrap()
            .done
            .iter()
            .zip(&t.receptor_total)
        {
            assert!(
                (done - total).abs() < 1e-6 * total.max(1.0),
                "done {done} != total {total}"
            );
        }
    }

    #[test]
    fn consumed_exceeds_reference_by_the_speed_down() {
        let t = tiny_campaign(42);
        let s = t.speed_down();
        // Volunteers are slower, throttled and redundant: the raw factor
        // must land well above 1 (the paper got 5.43).
        assert!(s.raw_factor() > 2.0, "raw factor {}", s.raw_factor());
        // And the net factor is below the raw one.
        assert!(s.net_factor() < s.raw_factor());
    }

    #[test]
    fn redundancy_factor_is_above_one() {
        let t = tiny_campaign(42);
        assert!(t.redundancy_factor() > 1.0);
        assert!(t.useful_fraction() < 1.0);
    }

    #[test]
    fn realized_runtimes_match_result_count() {
        let t = tiny_campaign(42);
        assert_eq!(t.realized_runtimes.len() as u64, t.results_received);
    }

    #[test]
    fn snapshots_are_recorded_and_sorted() {
        let t = tiny_campaign(42);
        assert_eq!(t.snapshots.len(), 2);
        assert!(t.snapshots[0].day < t.snapshots[1].day);
    }
}

#[cfg(test)]
mod detailed_mode_tests {
    use super::*;
    use maxdo::{CostModel, LibraryConfig, ProteinLibrary};
    use timemodel::CostMatrix;
    use workunit::CampaignPackage;

    fn run(detailed: bool) -> CampaignTrace {
        let lib = ProteinLibrary::generate(LibraryConfig::tiny(3), 7);
        let matrix = CostMatrix::from_cost_model(&lib, &CostModel::with_kappa(0.3));
        let pkg = CampaignPackage::new(&lib, &matrix, 4.0 * 3600.0);
        let mut config = VolunteerGridConfig::hcmd_phase1(1, 99);
        config.membership = MembershipModel {
            reference_vftp: 40.0,
            reference_day: 1,
            growth_exponent: 0.0,
            seasonality: crate::membership::SeasonalityModel::flat(),
            mean_accounted_fraction: 0.625,
        };
        config.phases = crate::project::ProjectPhases::new(vec![crate::project::SharePhase {
            start_day: 0,
            share_start: 1.0,
            share_end: 1.0,
            days: 3 * 365,
            name: "full",
        }]);
        config.membership_start_day = 0;
        config.snapshot_days = vec![];
        config.detailed_sessions = detailed;
        VolunteerGridSim::new(&pkg, config).run()
    }

    /// The analytic and session-level host executors must agree on the
    /// campaign's aggregate behaviour (both complete; consumed CPU within
    /// ~15 %; same useful-result count).
    #[test]
    fn detailed_mode_matches_analytic_mode_in_aggregate() {
        let analytic = run(false);
        let detailed = run(true);
        assert!(analytic.completion_day.is_some());
        assert!(detailed.completion_day.is_some());
        assert_eq!(analytic.results_useful, detailed.results_useful);
        let ratio = analytic.consumed_cpu_seconds() / detailed.consumed_cpu_seconds();
        assert!(
            (0.85..1.18).contains(&ratio),
            "consumed-cpu disagreement: analytic/detailed = {ratio}"
        );
    }

    #[test]
    fn detailed_mode_is_deterministic() {
        let a = run(true);
        let b = run(true);
        assert_eq!(a, b);
    }
}
