//! The transport-free scheduling core shared by every server frontend.
//!
//! [`SchedulerCore`] owns the policy state the paper's task server keeps
//! in its database — the launch-ordered workunit queue, replica issue,
//! deadlines and reissue, redundant computing with quorum validation, and
//! the mid-campaign validation switch (§3.1, §5.1) — and nothing else: no
//! clock, no sockets, no threads. Time is an explicit [`SimTime`]
//! argument on every call, so the same core can be driven by
//!
//! * the discrete-event simulator ([`crate::volunteer`]), which feeds it
//!   simulated seconds, and
//! * the live wire-level grid (`hcmd-netgrid`), which feeds it wall-clock
//!   seconds since server start.
//!
//! Both frontends therefore *provably* execute the same issue/validate
//! decisions — there is exactly one implementation to drift from. The
//! `scheduler_parity` integration test scripts one event sequence through
//! both and asserts the decision streams are identical.
//!
//! §5.1 mechanisms implemented here:
//!
//! * **redundant computing** — "World Community Grid system sends more than
//!   one copy of each workunit to the volunteers ... to identify and reject
//!   erroneous results";
//! * **timeouts** — "the workunit sent to a volunteer reached the timeout"
//!   triggers a reissue; a late result that arrives after its reissue "is
//!   taken into account even if the result has already been computed by
//!   some other device" (it counts as redundant);
//! * **the validation switch** — "It [the redundancy factor] was higher at
//!   the beginning, because the results were compared to each other to be
//!   validated, but later we provided a method to validate the results by
//!   checking the values returned in the result file": quorum-compare
//!   validation early, bounds-check validation (single replica) later.
//!
//! Work leaves by one path, [`SchedulerCore::fetch_work_for`]: reissues
//! first, in the order they were queued, then the next fresh workunit.
//! BOINC puts a feeder — a shared-memory cache refilled in batches — in
//! front of that queue to spare its database (the paper's reference
//! \[13\]); this core keeps its books in memory, has no database to
//! spare, and has no feeder.

use crate::event::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use telemetry::{Event, IssueCause};

/// How results are validated, which determines the replication level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationPolicy {
    /// Two replicas per workunit; results must agree (an erroneous result
    /// never matches, forcing another replica).
    QuorumCompare,
    /// One replica; the result file's values are checked against known
    /// bounds, so errors are detected without a second copy.
    BoundsCheck,
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Day (campaign time) at which validation switches from
    /// [`ValidationPolicy::QuorumCompare`] to
    /// [`ValidationPolicy::BoundsCheck`]; `None` keeps quorum forever.
    pub validation_switch_day: Option<usize>,
    /// Replica deadline, seconds (reissue after this).
    pub deadline_seconds: f64,
    /// Always `None`: the core has no feeder cache (module docs), and
    /// [`SchedulerCore::new`] refuses a `Some`. The field is kept only
    /// because the benchmark harness under `benchmarks/` names it; the
    /// benchmark change that next edits that harness deletes it.
    pub feeder: Option<FeederConfig>,
}

/// The type of [`ServerConfig::feeder`], which holds no settings: a name
/// kept for the benchmark harness, as `netgrid::Codec` is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeederConfig;

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            // The paper's redundancy factor fell after the early phase; the
            // switch day is tuned so the campaign-wide factor lands at 1.37.
            validation_switch_day: Some(110),
            deadline_seconds: 10.0 * 86_400.0,
            feeder: None,
        }
    }
}

/// Identifier of one issued replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReplicaId(pub u64);

/// A replica handed to a host, with everything the host model needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReplicaAssignment {
    /// The replica's identity (for reporting and timeout matching).
    pub replica: ReplicaId,
    /// Index of the workunit in the launch-ordered spec list.
    pub workunit: u32,
    /// Reference CPU seconds of the whole workunit.
    pub ref_seconds: f64,
    /// Reference CPU seconds of one starting position (checkpoint grain).
    pub position_ref_seconds: f64,
}

/// What the server concluded from a reported result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportOutcome {
    /// The result was the one that (first) completed its workunit.
    pub completed_workunit: bool,
    /// The result contributed to validation (useful); otherwise it is
    /// redundant (late duplicate, post-completion copy) or erroneous.
    pub useful: bool,
    /// The result was erroneous and rejected.
    pub erroneous: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WuState {
    valid_results: u16,
    complete: bool,
    /// Trust-adaptive replication override, fixed at issue time:
    /// 0 = follow the validation policy in force at report time (the
    /// paper's behaviour, bit-identical to every pre-trust trace);
    /// nonzero = exactly this many valid results complete the workunit.
    needed_override: u16,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplicaState {
    workunit: u32,
    reported: bool,
}

/// Per-workunit static description the server schedules from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkunitCatalogEntry {
    /// Reference CPU seconds of the workunit.
    pub ref_seconds: f32,
    /// Reference CPU seconds of one starting position.
    pub position_ref_seconds: f32,
    /// Receptor protein index (for progression accounting).
    pub receptor: u16,
}

/// Why replicas were (re)issued — the server's own accounting of its
/// §5.1 fault-tolerance work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// First replicas of fresh workunits.
    pub initial_issues: u64,
    /// Sibling replicas required by quorum validation.
    pub quorum_issues: u64,
    /// Reissues after a deadline expired.
    pub timeout_reissues: u64,
    /// Reissues after an erroneous result.
    pub error_reissues: u64,
    /// Results rejected as erroneous.
    pub errors_received: u64,
    /// Results that arrived after their workunit had completed.
    pub late_results: u64,
    /// Replicas issued to independently recompute a trusted agent's
    /// single-replica result (trust-adaptive spot checks).
    pub spot_check_issues: u64,
}

impl ServerStats {
    /// Total replicas issued.
    pub fn total_issues(&self) -> u64 {
        self.initial_issues
            + self.quorum_issues
            + self.timeout_reissues
            + self.error_reissues
            + self.spot_check_issues
    }
}

/// The scheduling core: workunit queue in launch order, replica issue,
/// validation, reissue. Transport-free — drive it from a simulator event
/// loop or from live connection handlers; see the module docs.
///
/// The core is its own picture: two cores hold "the same scheduler
/// state" exactly when they compare `==`, every field included (catalog,
/// configuration and queues alike). Its counters — [`ServerStats`],
/// `results_received`, `results_useful` and the validated count — are
/// the one home of those counts; nothing mirrors them into the
/// telemetry registry.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerCore {
    catalog: Vec<WorkunitCatalogEntry>,
    config: ServerConfig,
    states: Vec<WuState>,
    replicas: Vec<ReplicaState>,
    /// Workunits needing another replica, each with the cause its next
    /// issue is counted under (errors, timeouts, quorum).
    reissue: VecDeque<(u32, ReissueCause)>,
    /// Completed workunit count.
    completed: usize,
    /// Total results received (the paper's 5,418,010 analogue).
    pub results_received: u64,
    /// Useful results (the paper's 3,936,010 analogue).
    pub results_useful: u64,
    /// Issue/reissue cause accounting.
    pub stats: ServerStats,
    /// Reference CPU seconds of every received result that was *not*
    /// the effective one — quorum partners, errors, late copies, spot
    /// checks. The donated-CPU cost of redundancy (the paper's Fig. 6b
    /// waste, measured instead of modelled).
    wasted_ref_seconds: f64,
    /// Workunit lifecycle events are logged for every stride-th
    /// workunit; full campaigns have ~10⁵ workunits, far too many to log
    /// each. The stride is a power of two, held as the mask of its low
    /// bits ([`sample_mask`]), so the test that runs once per scheduler
    /// event is one `and`. Override with `HCMD_TELEMETRY_SAMPLE=<stride>`.
    sample_mask: u64,
    /// The next never-issued workunit in launch order — where every
    /// fresh issue comes from: workunits `0..next_fresh` have each had a
    /// replica issued.
    next_fresh: u32,
}

/// The sampling mask for a positive `stride`, rounded up to a power of
/// two (at most 2⁶³): `x` is sampled when `x & mask == 0`, so a catalog
/// of `n` workunits logs at most `n / stride` of them, rounded up.
fn sample_mask(stride: u64) -> u64 {
    assert!(stride > 0, "a stride is positive");
    stride.checked_next_power_of_two().unwrap_or(1 << 63) - 1
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReissueCause {
    Quorum,
    Timeout,
    Error,
}

/// Trust-adaptive replication level for a fresh workunit issue,
/// chosen by the caller from the fetching agent's trust band; see
/// [`SchedulerCore::fetch_work_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationOverride {
    /// One valid result completes the workunit (trusted agents; spot
    /// checks provide the safety net).
    Single,
    /// A byte-matching pair is required regardless of the validation
    /// policy in force (untrusted agents).
    Quorum,
}

impl ReissueCause {
    fn issue_cause(self) -> IssueCause {
        match self {
            ReissueCause::Quorum => IssueCause::Quorum,
            ReissueCause::Timeout => IssueCause::Timeout,
            ReissueCause::Error => IssueCause::Error,
        }
    }
}

impl SchedulerCore {
    /// Creates a server over a launch-ordered catalog.
    pub fn new(catalog: Vec<WorkunitCatalogEntry>, config: ServerConfig) -> Self {
        assert!(!catalog.is_empty(), "campaign has no workunits");
        assert!(config.deadline_seconds > 0.0, "deadline must be positive");
        assert!(config.feeder.is_none(), "the scheduler core has no feeder");
        let n = catalog.len();
        let sample_stride = std::env::var("HCMD_TELEMETRY_SAMPLE")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .filter(|&s| s > 0)
            .unwrap_or_else(|| (n as u64 / 512).max(1));
        // Pre-size the hot collections from the configured policy instead
        // of growing from empty. Quorum validation (replication level 2)
        // queues one sibling per fresh workunit, so the reissue queue's
        // steady-state depth tracks the in-flight issue window; replicas
        // accumulate one entry per issue over the whole campaign.
        let redundancy: usize = match config.validation_switch_day {
            Some(0) => 1,
            _ => 2,
        };
        let reissue_capacity = if redundancy > 1 { (n / 4).max(64) } else { 64 };
        Self {
            config,
            states: vec![WuState::default(); n],
            replicas: Vec::with_capacity(n * redundancy),
            reissue: VecDeque::with_capacity(reissue_capacity),
            completed: 0,
            results_received: 0,
            results_useful: 0,
            stats: ServerStats::default(),
            wasted_ref_seconds: 0.0,
            sample_mask: sample_mask(sample_stride),
            next_fresh: 0,
            catalog,
        }
    }

    /// Whether a workunit's lifecycle is logged to the event stream (the
    /// engine uses the same sampling for dispatch/report events).
    pub fn sampled(&self, wu: u32) -> bool {
        u64::from(wu) & self.sample_mask == 0
    }

    fn record_issue(&self, now: SimTime, wu: u32, cause: IssueCause) {
        if self.sampled(wu) {
            telemetry::emit(Some(now.seconds()), || Event::WorkunitIssued {
                workunit: u64::from(wu),
                cause,
            });
        }
    }

    /// The validation policy in force at a time.
    pub fn policy_at(&self, now: SimTime) -> ValidationPolicy {
        match self.config.validation_switch_day {
            Some(day) if now.day() >= day => ValidationPolicy::BoundsCheck,
            _ => ValidationPolicy::QuorumCompare,
        }
    }

    /// Replica deadline in seconds.
    pub fn deadline_seconds(&self) -> f64 {
        self.config.deadline_seconds
    }

    /// Number of completed (validated) workunits.
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// True when every workunit is validated.
    pub fn is_campaign_complete(&self) -> bool {
        self.completed == self.catalog.len()
    }

    /// Catalog entry of a workunit.
    pub fn entry(&self, workunit: u32) -> WorkunitCatalogEntry {
        self.catalog[workunit as usize]
    }

    /// Hands out the next replica, or `None` when no work is available
    /// right now (everything issued and pending): [`Self::fetch_work_for`]
    /// for a requester with no rejection and no replication override.
    pub fn fetch_work(&mut self, now: SimTime) -> Option<ReplicaAssignment> {
        self.fetch_work_for(now, None, None)
    }

    /// Hands out the next replica for one requester: the oldest issuable
    /// reissue, else the next fresh workunit, else `None`.
    ///
    /// `rejected` is the workunit of the requester's last result if that
    /// was rejected as erroneous. While fresh work lasts, such a
    /// requester is not handed that workunit's error reissue when it
    /// heads the queue — a corrupting host would re-draw and corrupt it
    /// again and again — but the next fresh workunit, and the reissue
    /// stays at the head for the next fetch. With no fresh work left it
    /// is served as anyone, so a lone requester stays live.
    ///
    /// `replication` is a trust-adaptive override. It applies only when
    /// the fetch lands on a fresh workunit; reissues and quorum siblings
    /// keep whatever replication their workunit was issued under.
    pub fn fetch_work_for(
        &mut self,
        now: SimTime,
        rejected: Option<u32>,
        replication: Option<ReplicationOverride>,
    ) -> Option<ReplicaAssignment> {
        // Reissues first: they hold completed predecessors' workunits back.
        let issuable = |&(wu, _): &(u32, ReissueCause)| !self.states[wu as usize].complete;
        let Some(head) = self.reissue.iter().position(issuable) else {
            // Whatever is queued became moot.
            self.reissue.clear();
            return self.fetch_fresh(now, replication);
        };
        let own = rejected.is_some_and(|wu| self.reissue[head] == (wu, ReissueCause::Error));
        if own && self.fresh_backlog() > 0 {
            return self.fetch_fresh(now, replication);
        }
        // The moot reissues queued ahead of the head go with it.
        self.reissue.drain(..head);
        let (wu, cause) = self.reissue.pop_front().expect("an issuable reissue");
        match cause {
            ReissueCause::Quorum => self.stats.quorum_issues += 1,
            ReissueCause::Timeout => self.stats.timeout_reissues += 1,
            ReissueCause::Error => self.stats.error_reissues += 1,
        }
        self.record_issue(now, wu, cause.issue_cause());
        Some(self.issue_replica(wu))
    }

    /// [`Self::fetch_work_for`] past the reissue queue: the next
    /// never-issued workunit, or `None` when none is left. Queued
    /// reissues stay where they are, for the next fetch.
    fn fetch_fresh(
        &mut self,
        now: SimTime,
        replication: Option<ReplicationOverride>,
    ) -> Option<ReplicaAssignment> {
        let wu = self.pop_fresh()?;
        self.stats.initial_issues += 1;
        self.record_issue(now, wu, IssueCause::Initial);
        match replication {
            // Trusted agent: one valid result completes the workunit, no
            // sibling — spot checks (issued separately) are the safety
            // net.
            Some(ReplicationOverride::Single) => {
                self.states[wu as usize].needed_override = 1;
            }
            // Untrusted agent: force a byte-matching pair even if the
            // bounds-check era would have accepted a single.
            Some(ReplicationOverride::Quorum) => {
                self.states[wu as usize].needed_override = 2;
                self.reissue.push_back((wu, ReissueCause::Quorum));
            }
            // Under quorum validation each fresh workunit needs two
            // replicas; queue the sibling copy.
            None => {
                if self.policy_at(now) == ValidationPolicy::QuorumCompare {
                    self.reissue.push_back((wu, ReissueCause::Quorum));
                }
            }
        }
        Some(self.issue_replica(wu))
    }

    /// Takes the next never-issued workunit in launch order.
    fn pop_fresh(&mut self) -> Option<u32> {
        let wu = self.next_fresh;
        (wu < self.catalog.len() as u32).then(|| {
            self.next_fresh += 1;
            wu
        })
    }

    /// Workunits no replica has ever been issued for.
    pub fn fresh_backlog(&self) -> usize {
        self.catalog.len() - self.next_fresh as usize
    }

    /// Registers a fresh replica of `workunit` and builds its assignment.
    fn issue_replica(&mut self, workunit: u32) -> ReplicaAssignment {
        let replica = ReplicaId(self.replicas.len() as u64);
        self.replicas.push(ReplicaState {
            workunit,
            reported: false,
        });
        let e = self.catalog[workunit as usize];
        ReplicaAssignment {
            replica,
            workunit,
            ref_seconds: e.ref_seconds as f64,
            position_ref_seconds: e.position_ref_seconds as f64,
        }
    }

    /// Reports a replica's result. `erroneous` is whether the computation
    /// produced an invalid result file.
    pub fn report_result(
        &mut self,
        now: SimTime,
        replica: ReplicaId,
        erroneous: bool,
    ) -> ReportOutcome {
        let r = &mut self.replicas[replica.0 as usize];
        assert!(!r.reported, "replica reported twice");
        r.reported = true;
        let wu = r.workunit;
        self.results_received += 1;
        let ref_s = f64::from(self.catalog[wu as usize].ref_seconds);
        let needed = self.replication_needed(now, wu);
        if erroneous {
            self.stats.errors_received += 1;
            self.wasted_ref_seconds += ref_s;
            // Rejected; if the workunit still needs results, reissue.
            if !self.states[wu as usize].complete {
                self.reissue.push_back((wu, ReissueCause::Error));
                if self.sampled(wu) {
                    telemetry::emit(Some(now.seconds()), || Event::WorkunitReissued {
                        workunit: u64::from(wu),
                        cause: IssueCause::Error,
                    });
                }
            }
            return ReportOutcome {
                completed_workunit: false,
                useful: false,
                erroneous: true,
            };
        }
        let state = &mut self.states[wu as usize];
        if state.complete {
            // Late or surplus copy of an already-validated workunit: the
            // paper counts it (it arrived) but it is redundant.
            self.stats.late_results += 1;
            self.wasted_ref_seconds += ref_s;
            return ReportOutcome {
                completed_workunit: false,
                useful: false,
                erroneous: false,
            };
        }
        state.valid_results += 1;
        if state.valid_results >= needed {
            state.complete = true;
            self.completed += 1;
            if self.sampled(wu) {
                telemetry::emit(Some(now.seconds()), || Event::WorkunitValidated {
                    workunit: u64::from(wu),
                });
            }
            // One *effective* result per workunit reaches the science team
            // (the paper's 3,936,010 against 5,418,010 received — "only
            // 73 % are useful results"). Quorum partners, late copies and
            // errors are all redundancy.
            self.results_useful += 1;
            ReportOutcome {
                completed_workunit: true,
                useful: true,
                erroneous: false,
            }
        } else {
            // First of a quorum pair: needed for validation but not the
            // effective result.
            self.wasted_ref_seconds += ref_s;
            ReportOutcome {
                completed_workunit: false,
                useful: false,
                erroneous: false,
            }
        }
    }

    /// Valid results required to complete `wu` as judged at `now`: the
    /// issue-time trust override when one was set, the validation
    /// policy in force otherwise. The wire layer consults this to know
    /// whether a workunit validates by byte-level quorum (≥ 2) or on its
    /// own (1).
    pub fn replication_needed(&self, now: SimTime, wu: u32) -> u16 {
        match self.states[wu as usize].needed_override {
            0 => match self.policy_at(now) {
                ValidationPolicy::QuorumCompare => 2,
                ValidationPolicy::BoundsCheck => 1,
            },
            n => n,
        }
    }

    /// Issues a spot-check replica of an already-validated workunit: an
    /// independent recomputation of a trusted agent's single-replica
    /// result. Deliberate redundancy, accounted separately from the
    /// §5.1 reissue causes.
    pub fn issue_spot_check(&mut self, wu: u32) -> ReplicaAssignment {
        assert!(
            self.states[wu as usize].complete,
            "spot checks recompute completed workunits"
        );
        self.stats.spot_check_issues += 1;
        self.issue_replica(wu)
    }

    /// Books a spot-check replica's report. The workunit is already
    /// complete, so the result is received-but-redundant by
    /// construction; the byte-level verdict lives in the wire layer.
    /// Returns the replica's workunit.
    pub fn note_spot_report(&mut self, replica: ReplicaId) -> u32 {
        let r = &mut self.replicas[replica.0 as usize];
        assert!(!r.reported, "replica reported twice");
        r.reported = true;
        let wu = r.workunit;
        self.results_received += 1;
        self.wasted_ref_seconds += f64::from(self.catalog[wu as usize].ref_seconds);
        wu
    }

    /// Retracts a completed workunit after a failed spot check: its
    /// accepted (single-replica) result can no longer be believed. The
    /// workunit re-enters the incomplete pool needing a full byte-
    /// matching quorum, and two fresh replicas are queued (error
    /// cause — the suspect's result *was* an undetected error).
    /// Returns false when the workunit was not complete.
    pub fn invalidate_workunit(&mut self, wu: u32) -> bool {
        let state = &mut self.states[wu as usize];
        if !state.complete {
            return false;
        }
        state.complete = false;
        state.valid_results = 0;
        state.needed_override = 2;
        self.completed -= 1;
        self.results_useful -= 1;
        // The retracted result was counted useful when it validated;
        // it turned out to be waste.
        self.wasted_ref_seconds += f64::from(self.catalog[wu as usize].ref_seconds);
        self.reissue.push_back((wu, ReissueCause::Error));
        self.reissue.push_back((wu, ReissueCause::Error));
        true
    }

    /// Donated reference CPU seconds spent on results that never became
    /// the effective copy (quorum partners, errors, late copies, spot
    /// checks, retracted singles).
    pub fn wasted_ref_seconds(&self) -> f64 {
        self.wasted_ref_seconds
    }

    /// Handles a replica deadline: if the replica never reported and its
    /// workunit is still incomplete, queue a reissue. Returns true when a
    /// reissue was queued.
    pub fn handle_timeout(&mut self, replica: ReplicaId) -> bool {
        let r = self.replicas[replica.0 as usize];
        if !r.reported && !self.states[r.workunit as usize].complete {
            self.reissue.push_back((r.workunit, ReissueCause::Timeout));
            if self.sampled(r.workunit) {
                telemetry::emit(None, || Event::WorkunitReissued {
                    workunit: u64::from(r.workunit),
                    cause: IssueCause::Timeout,
                });
            }
            true
        } else {
            false
        }
    }

    /// The workunit a replica belongs to.
    pub fn replica_workunit(&self, replica: ReplicaId) -> u32 {
        self.replicas[replica.0 as usize].workunit
    }

    /// Number of replicas ever issued. Replica ids are dense, so a
    /// transport can range-check untrusted ids before calling in.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Upper bound on the number of replicas the server could issue right
    /// now (queued reissues — possibly moot — plus never-issued workunits).
    /// Used by the engine to wake idle hosts.
    pub fn available_count(&self) -> usize {
        self.reissue.len() + self.fresh_backlog()
    }

    /// The campaign-wide redundancy factor so far
    /// (results received / useful results).
    pub fn redundancy_factor(&self) -> f64 {
        if self.results_useful == 0 {
            1.0
        } else {
            self.results_received as f64 / self.results_useful as f64
        }
    }

    /// Workunit state counts for operator dashboards. `total` counts
    /// the catalog and `issued` the workunits with at least one replica
    /// ever created; `quorum_pending` are issued workunits holding a partial
    /// quorum (≥ 1 valid result, not yet complete).
    pub fn wu_state_counts(&self) -> WuStateCounts {
        let issued = self.next_fresh as usize;
        let quorum_pending = self
            .states
            .iter()
            .filter(|s| !s.complete && s.valid_results > 0)
            .count();
        WuStateCounts {
            total: self.catalog.len(),
            issued,
            in_flight: issued - self.completed,
            quorum_pending,
            done: self.completed,
        }
    }

    /// Per-receptor progression, sorted by receptor index — the live
    /// analogue of the paper's Fig. 1 per-protein-couple plot. One entry
    /// per receptor appearing in the catalog.
    pub fn receptor_progress(&self) -> Vec<ReceptorProgress> {
        let mut by_receptor: std::collections::BTreeMap<u16, ReceptorProgress> =
            std::collections::BTreeMap::new();
        for (i, entry) in self.catalog.iter().enumerate() {
            let p = by_receptor
                .entry(entry.receptor)
                .or_insert(ReceptorProgress {
                    receptor: entry.receptor,
                    total: 0,
                    completed: 0,
                });
            p.total += 1;
            if self.states[i].complete {
                p.completed += 1;
            }
        }
        by_receptor.into_values().collect()
    }

    /// Reference CPU seconds of all validated workunits. Divided by the
    /// campaign's elapsed time this is the paper's §3.1 "virtual
    /// full-time processors" figure.
    pub fn completed_ref_seconds(&self) -> f64 {
        self.catalog
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.complete)
            .map(|(e, _)| f64::from(e.ref_seconds))
            .sum()
    }

    /// Depth of the reissue queue (workunits awaiting another replica).
    pub fn reissue_queue_depth(&self) -> usize {
        self.reissue.len()
    }
}

/// Workunit state counts for operator dashboards; see
/// [`SchedulerCore::wu_state_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WuStateCounts {
    /// Workunits in the campaign catalog.
    pub total: usize,
    /// Workunits with at least one replica ever issued.
    pub issued: usize,
    /// Issued workunits not yet validated.
    pub in_flight: usize,
    /// Issued workunits holding a partial quorum.
    pub quorum_pending: usize,
    /// Validated workunits.
    pub done: usize,
}

/// Per-receptor progression; see [`SchedulerCore::receptor_progress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceptorProgress {
    /// Receptor protein index from the catalog.
    pub receptor: u16,
    /// Workunits targeting this receptor.
    pub total: u32,
    /// Validated workunits targeting this receptor.
    pub completed: u32,
}

/// One campaign's slice of a shared grid: a resource share (any
/// positive weight; [`FairShare::new`] normalizes the vector) plus a
/// priority used only to break deficit ties.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignShare {
    /// Relative resource weight (normalized against the other
    /// campaigns' weights).
    pub share: f64,
    /// Tie-break rank when deficits are equal; higher wins.
    pub priority: u32,
}

/// Deficit-weighted round-robin over delivered reference-seconds —
/// BOINC-style project autonomy for a multi-campaign server.
///
/// Each campaign `i` accrues `delivered[i]` reference-seconds as its
/// workunits validate. Its *deficit* is what fair division owes it:
/// `share[i] · Σ delivered − delivered[i]`. Every work request goes to
/// the eligible campaign with the largest deficit (priority, then lowest
/// index, break ties), so the delivered split converges on the
/// configured shares without any quantum bookkeeping.
///
/// Borrow/repay falls out of the same arithmetic: a campaign that is
/// work-starved (nothing to issue — ineligible) lets the others borrow
/// its turn, its deficit keeps growing, and once it has work again it
/// wins every pick until the debt is repaid. [`FairShare::borrows`]
/// counts how often a campaign was served out of fair order so the
/// effect is observable.
///
/// The arbiter is a pure function of the picks and credits made on it,
/// so a server that journals every ask and report rebuilds it, borrows
/// included, by making them again.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairShare {
    shares: Vec<CampaignShare>,
    delivered: Vec<f64>,
    borrows: Vec<u64>,
}

impl FairShare {
    /// Builds an arbiter over `shares`, normalizing the weights. Zero or
    /// negative weights are floored to a minimal positive slice so a
    /// misconfigured campaign still drains eventually.
    pub fn new(mut shares: Vec<CampaignShare>) -> Self {
        assert!(!shares.is_empty(), "FairShare needs at least one campaign");
        for s in &mut shares {
            if s.share.is_nan() || s.share <= 0.0 {
                s.share = f64::MIN_POSITIVE;
            }
        }
        let total: f64 = shares.iter().map(|s| s.share).sum();
        for s in &mut shares {
            s.share /= total;
        }
        let n = shares.len();
        Self {
            shares,
            delivered: vec![0.0; n],
            borrows: vec![0; n],
        }
    }

    /// Number of campaigns under arbitration.
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    /// True when no campaign is registered (never, post-`new`).
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// Campaign `i`'s normalized share.
    pub fn share(&self, i: usize) -> f64 {
        self.shares[i].share
    }

    /// Campaign `i`'s tie-break priority.
    pub fn priority(&self, i: usize) -> u32 {
        self.shares[i].priority
    }

    /// Reference-seconds delivered to campaign `i` so far.
    pub fn delivered(&self, i: usize) -> f64 {
        self.delivered[i]
    }

    /// Reference-seconds delivered across all campaigns.
    pub fn total_delivered(&self) -> f64 {
        self.delivered.iter().sum()
    }

    /// Times campaign `i` was served while another campaign held a
    /// larger deficit but had no work (idle capacity borrowed).
    pub fn borrows(&self, i: usize) -> u64 {
        self.borrows[i]
    }

    /// Sets campaign `i`'s delivery tally (a campaign core's
    /// `completed_ref_seconds()`, the one definition of it).
    pub fn set_delivered(&mut self, i: usize, ref_seconds: f64) {
        self.delivered[i] = ref_seconds;
    }

    /// Credits `ref_seconds` of validated work to campaign `i`.
    pub fn credit(&mut self, i: usize, ref_seconds: f64) {
        self.delivered[i] += ref_seconds;
    }

    /// What fair division currently owes campaign `i` (negative when it
    /// has been over-served, e.g. while a sibling was starved).
    pub fn deficit(&self, i: usize) -> f64 {
        self.shares[i].share * self.total_delivered() - self.delivered[i]
    }

    /// Orders `(deficit, priority, index)` — larger deficit first,
    /// higher priority first, lower index first.
    fn better(&self, a: usize, b: usize) -> bool {
        let (da, db) = (self.deficit(a), self.deficit(b));
        if da != db {
            return da > db;
        }
        if self.shares[a].priority != self.shares[b].priority {
            return self.shares[a].priority > self.shares[b].priority;
        }
        a < b
    }

    /// Picks the campaign the next work request should draw from, given
    /// which campaigns currently have work (`eligible[i]`). Returns
    /// `None` when nobody does. When the pick out-ranks a starved
    /// campaign with a larger deficit, the borrow is counted.
    pub fn pick(&mut self, eligible: &[bool]) -> Option<usize> {
        assert_eq!(eligible.len(), self.shares.len());
        let mut best: Option<usize> = None;
        let mut best_any: Option<usize> = None;
        for (i, &has_work) in eligible.iter().enumerate() {
            if best_any.is_none_or(|b| self.better(i, b)) {
                best_any = Some(i);
            }
            if has_work && best.is_none_or(|b| self.better(i, b)) {
                best = Some(i);
            }
        }
        let chosen = best?;
        if best_any != Some(chosen) {
            self.borrows[chosen] += 1;
        }
        Some(chosen)
    }

    /// Largest deviation between any campaign's delivered fraction and
    /// its configured share — the ±5% convergence figure the bench and
    /// the scripted-history test report. Zero until anything delivers.
    pub fn share_error(&self) -> f64 {
        let total = self.total_delivered();
        if total <= 0.0 {
            return 0.0;
        }
        self.shares
            .iter()
            .zip(&self.delivered)
            .map(|(s, d)| (d / total - s.share).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod fair_share_tests {
    use super::*;

    fn two(share_a: f64, share_b: f64) -> FairShare {
        FairShare::new(vec![
            CampaignShare {
                share: share_a,
                priority: 0,
            },
            CampaignShare {
                share: share_b,
                priority: 0,
            },
        ])
    }

    #[test]
    fn shares_normalize() {
        let f = two(7.0, 3.0);
        assert!((f.share(0) - 0.7).abs() < 1e-12);
        assert!((f.share(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn deficit_ordering_converges_to_the_configured_split() {
        let mut f = two(0.7, 0.3);
        // Serve 1000 unit-cost workunits strictly by pick order.
        for _ in 0..1000 {
            let i = f.pick(&[true, true]).unwrap();
            f.credit(i, 1.0);
        }
        assert!(
            f.share_error() < 0.01,
            "share error {} after 1000 unit picks",
            f.share_error()
        );
    }

    #[test]
    fn priority_breaks_exact_ties() {
        let mut f = FairShare::new(vec![
            CampaignShare {
                share: 0.5,
                priority: 1,
            },
            CampaignShare {
                share: 0.5,
                priority: 7,
            },
        ]);
        // Identical shares, nothing delivered: deficits tie at zero and
        // the higher-priority campaign must win the first pick.
        assert_eq!(f.pick(&[true, true]), Some(1));
    }

    #[test]
    fn starved_campaign_lends_and_is_repaid() {
        let mut f = two(0.7, 0.3);
        // Campaign 0 has no work for a while: campaign 1 borrows.
        for _ in 0..100 {
            assert_eq!(f.pick(&[false, true]), Some(1));
            f.credit(1, 1.0);
        }
        assert_eq!(f.borrows(1), 100, "every starved pick is a borrow");
        assert!(f.deficit(0) > 0.0, "the lender's deficit accrues");
        // Work returns: campaign 0 wins every pick until repaid.
        let mut zero_run = 0u32;
        while f.deficit(0) > f.deficit(1) {
            assert_eq!(f.pick(&[true, true]), Some(0));
            f.credit(0, 1.0);
            zero_run += 1;
        }
        assert!(zero_run > 50, "repayment run was only {zero_run} picks");
        assert!(f.share_error() < 0.05);
    }

    #[test]
    fn pick_none_when_nobody_has_work() {
        let mut f = two(0.5, 0.5);
        assert_eq!(f.pick(&[false, false]), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(n: usize) -> Vec<WorkunitCatalogEntry> {
        (0..n)
            .map(|i| WorkunitCatalogEntry {
                ref_seconds: 1000.0 + i as f32,
                position_ref_seconds: 100.0,
                receptor: (i % 4) as u16,
            })
            .collect()
    }

    fn t(sec: f64) -> SimTime {
        SimTime::new(sec)
    }

    #[test]
    fn quorum_era_issues_two_replicas_per_workunit() {
        let mut s = SchedulerCore::new(catalog(2), ServerConfig::default());
        let a = s.fetch_work(t(0.0)).unwrap();
        let b = s.fetch_work(t(1.0)).unwrap();
        assert_eq!(a.workunit, 0);
        assert_eq!(b.workunit, 0, "sibling replica of wu 0 first");
        let c = s.fetch_work(t(2.0)).unwrap();
        assert_eq!(c.workunit, 1);
    }

    #[test]
    fn quorum_completion_needs_two_valid_results() {
        let mut s = SchedulerCore::new(catalog(1), ServerConfig::default());
        let a = s.fetch_work(t(0.0)).unwrap();
        let b = s.fetch_work(t(0.0)).unwrap();
        let r1 = s.report_result(t(10.0), a.replica, false);
        assert!(!r1.completed_workunit);
        assert!(!r1.useful, "quorum partner is redundancy, not effective");
        let r2 = s.report_result(t(20.0), b.replica, false);
        assert!(r2.completed_workunit);
        assert!(r2.useful);
        assert!(s.is_campaign_complete());
        assert_eq!(s.results_useful, 1);
        assert_eq!(s.results_received, 2);
        assert!((s.redundancy_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_check_era_single_replica_suffices() {
        let cfg = ServerConfig {
            validation_switch_day: Some(0),
            ..Default::default()
        };
        let mut s = SchedulerCore::new(catalog(2), cfg);
        let a = s.fetch_work(t(0.0)).unwrap();
        let b = s.fetch_work(t(0.0)).unwrap();
        assert_eq!((a.workunit, b.workunit), (0, 1), "no sibling replicas");
        let r = s.report_result(t(10.0), a.replica, false);
        assert!(r.completed_workunit);
        assert_eq!(s.redundancy_factor(), 1.0);
    }

    #[test]
    fn erroneous_result_triggers_reissue() {
        let cfg = ServerConfig {
            validation_switch_day: Some(0),
            ..Default::default()
        };
        let mut s = SchedulerCore::new(catalog(1), cfg);
        let a = s.fetch_work(t(0.0)).unwrap();
        let r = s.report_result(t(5.0), a.replica, true);
        assert!(r.erroneous);
        assert!(!r.useful);
        // The reissue is available again.
        let b = s.fetch_work(t(6.0)).unwrap();
        assert_eq!(b.workunit, 0);
        assert!(
            s.report_result(t(10.0), b.replica, false)
                .completed_workunit
        );
        assert!((s.redundancy_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timeout_reissues_only_unreported_incomplete_replicas() {
        let cfg = ServerConfig {
            validation_switch_day: Some(0),
            ..Default::default()
        };
        let mut s = SchedulerCore::new(catalog(2), cfg);
        let a = s.fetch_work(t(0.0)).unwrap();
        let b = s.fetch_work(t(0.0)).unwrap();
        s.report_result(t(5.0), a.replica, false);
        assert!(!s.handle_timeout(a.replica), "reported replica: no reissue");
        assert!(s.handle_timeout(b.replica), "silent replica: reissue");
        let c = s.fetch_work(t(10.0)).unwrap();
        assert_eq!(c.workunit, b.workunit);
    }

    #[test]
    fn late_result_after_completion_is_redundant() {
        let cfg = ServerConfig {
            validation_switch_day: Some(0),
            ..Default::default()
        };
        let mut s = SchedulerCore::new(catalog(1), cfg);
        let a = s.fetch_work(t(0.0)).unwrap();
        s.handle_timeout(a.replica);
        let b = s.fetch_work(t(1.0)).unwrap();
        s.report_result(t(2.0), b.replica, false);
        // The original straggler finally reports.
        let r = s.report_result(t(3.0), a.replica, false);
        assert!(!r.useful);
        assert!(!r.completed_workunit);
        assert_eq!(s.results_received, 2);
        assert_eq!(s.results_useful, 1);
        assert!((s.redundancy_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn moot_sibling_replicas_are_dropped() {
        // Quorum era queues a sibling; if the wu completes via timeout
        // reissues before the sibling is fetched, the sibling must not be
        // handed out.
        let mut s = SchedulerCore::new(catalog(1), ServerConfig::default());
        let a = s.fetch_work(t(0.0)).unwrap(); // wu0 replica 1
        let b = s.fetch_work(t(0.0)).unwrap(); // wu0 sibling
        s.report_result(t(1.0), a.replica, false);
        s.report_result(t(2.0), b.replica, false);
        assert!(s.is_campaign_complete());
        assert!(s.fetch_work(t(3.0)).is_none());
    }

    #[test]
    fn policy_switches_at_the_configured_day() {
        let s = SchedulerCore::new(
            catalog(1),
            ServerConfig {
                validation_switch_day: Some(10),
                ..Default::default()
            },
        );
        assert_eq!(s.policy_at(t(0.0)), ValidationPolicy::QuorumCompare);
        assert_eq!(
            s.policy_at(t(9.9 * 86_400.0)),
            ValidationPolicy::QuorumCompare
        );
        assert_eq!(
            s.policy_at(t(10.0 * 86_400.0)),
            ValidationPolicy::BoundsCheck
        );
    }

    #[test]
    fn fetch_returns_none_when_everything_is_out() {
        let cfg = ServerConfig {
            validation_switch_day: Some(0),
            ..Default::default()
        };
        let mut s = SchedulerCore::new(catalog(1), cfg);
        assert!(s.fetch_work(t(0.0)).is_some());
        assert!(s.fetch_work(t(0.0)).is_none());
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn double_report_rejected() {
        let mut s = SchedulerCore::new(catalog(1), ServerConfig::default());
        let a = s.fetch_work(t(0.0)).unwrap();
        s.report_result(t(1.0), a.replica, false);
        s.report_result(t(2.0), a.replica, false);
    }

    #[test]
    #[should_panic(expected = "no workunits")]
    fn empty_catalog_rejected() {
        SchedulerCore::new(Vec::new(), ServerConfig::default());
    }

    #[test]
    fn single_override_completes_on_one_result_even_in_the_quorum_era() {
        let mut s = SchedulerCore::new(catalog(1), ServerConfig::default());
        let a = s
            .fetch_work_for(t(0.0), None, Some(ReplicationOverride::Single))
            .unwrap();
        assert_eq!(s.replication_needed(t(0.0), a.workunit), 1);
        // No quorum sibling was queued.
        assert_eq!(s.reissue_queue_depth(), 0);
        let r = s.report_result(t(1.0), a.replica, false);
        assert!(r.completed_workunit && r.useful);
        assert!(s.is_campaign_complete());
        assert_eq!(s.stats.quorum_issues, 0);
        assert_eq!(s.redundancy_factor(), 1.0);
        assert_eq!(s.wasted_ref_seconds(), 0.0);
    }

    #[test]
    fn quorum_override_forces_a_pair_even_in_the_bounds_era() {
        let cfg = ServerConfig {
            validation_switch_day: Some(0), // bounds era from t=0
            ..Default::default()
        };
        let mut s = SchedulerCore::new(catalog(1), cfg);
        let a = s
            .fetch_work_for(t(0.0), None, Some(ReplicationOverride::Quorum))
            .unwrap();
        assert_eq!(s.replication_needed(t(0.0), a.workunit), 2);
        let b = s.fetch_work(t(0.0)).expect("the forced sibling");
        assert_eq!(b.workunit, a.workunit);
        assert!(!s.report_result(t(1.0), a.replica, false).completed_workunit);
        assert!(s.report_result(t(2.0), b.replica, false).completed_workunit);
        assert_eq!(s.stats.quorum_issues, 1);
    }

    #[test]
    fn no_override_stays_bit_identical_to_the_policy_path() {
        // fetch_work and fetch_work_for(.., None, None) are the same code path;
        // the day-110 switch must still govern the quorum need at
        // report time for un-overridden workunits.
        let mut s = SchedulerCore::new(catalog(1), ServerConfig::default());
        let a = s.fetch_work_for(t(0.0), None, None).unwrap();
        assert_eq!(s.replication_needed(t(0.0), a.workunit), 2);
        // After the switch day the same workunit needs only one.
        assert_eq!(s.replication_needed(t(111.0 * 86_400.0), a.workunit), 1);
    }

    #[test]
    fn spot_check_reports_are_received_but_redundant() {
        let mut s = SchedulerCore::new(catalog(1), ServerConfig::default());
        let a = s
            .fetch_work_for(t(0.0), None, Some(ReplicationOverride::Single))
            .unwrap();
        s.report_result(t(1.0), a.replica, false);
        assert!(s.is_campaign_complete());
        let spot = s.issue_spot_check(a.workunit);
        assert_eq!(spot.workunit, a.workunit);
        assert_eq!(s.stats.spot_check_issues, 1);
        assert_eq!(s.replica_count(), 2);
        let wu = s.note_spot_report(spot.replica);
        assert_eq!(wu, a.workunit);
        assert_eq!(s.results_received, 2);
        assert_eq!(s.results_useful, 1, "spot copy is pure redundancy");
        assert!(s.wasted_ref_seconds() > 0.0);
    }

    #[test]
    fn invalidation_reopens_the_workunit_under_forced_quorum() {
        let mut s = SchedulerCore::new(catalog(2), ServerConfig::default());
        let a = s
            .fetch_work_for(t(0.0), None, Some(ReplicationOverride::Single))
            .unwrap();
        s.report_result(t(1.0), a.replica, false);
        assert_eq!(s.completed_count(), 1);

        assert!(s.invalidate_workunit(a.workunit));
        assert!(!s.invalidate_workunit(a.workunit), "already retracted");
        assert_eq!(s.completed_count(), 0);
        assert_eq!(s.results_useful, 0);
        assert_eq!(s.replication_needed(t(2.0), a.workunit), 2);
        // Two fresh replicas are queued ahead of new work.
        let b = s.fetch_work(t(3.0)).unwrap();
        let c = s.fetch_work(t(3.0)).unwrap();
        assert_eq!((b.workunit, c.workunit), (a.workunit, a.workunit));
        assert!(!s.report_result(t(4.0), b.replica, false).completed_workunit);
        assert!(s.report_result(t(5.0), c.replica, false).completed_workunit);
        assert_eq!(s.completed_count(), 1);
        assert_eq!(s.stats.error_reissues, 2);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    fn t(sec: f64) -> SimTime {
        SimTime::new(sec)
    }

    fn catalog(n: usize) -> Vec<WorkunitCatalogEntry> {
        (0..n)
            .map(|_| WorkunitCatalogEntry {
                ref_seconds: 1000.0,
                position_ref_seconds: 100.0,
                receptor: 0,
            })
            .collect()
    }

    #[test]
    fn issue_causes_are_attributed() {
        let mut s = SchedulerCore::new(catalog(2), ServerConfig::default());
        // Quorum era: wu0 + sibling, wu1 + sibling.
        let a = s.fetch_work(t(0.0)).unwrap();
        let b = s.fetch_work(t(0.0)).unwrap();
        assert_eq!(s.stats.initial_issues, 1);
        assert_eq!(s.stats.quorum_issues, 1);
        // b times out silently; reissue is attributed to the timeout.
        s.report_result(t(10.0), a.replica, false);
        assert!(s.handle_timeout(b.replica));
        let c = s.fetch_work(t(20.0)).unwrap();
        assert_eq!(c.workunit, 0);
        assert_eq!(s.stats.timeout_reissues, 1);
        // An erroneous result triggers an error reissue.
        s.report_result(t(30.0), c.replica, true);
        assert_eq!(s.stats.errors_received, 1);
        let d = s.fetch_work(t(40.0)).unwrap();
        assert_eq!(d.workunit, 0);
        assert_eq!(s.stats.error_reissues, 1);
        // Complete wu0; the straggler b finally reports late.
        s.report_result(t(50.0), d.replica, false);
        let late = s.report_result(t(60.0), b.replica, false);
        assert!(!late.useful);
        assert_eq!(s.stats.late_results, 1);
        assert_eq!(s.stats.total_issues(), 4);
    }
}

#[cfg(test)]
mod launch_tests {
    use super::*;

    fn catalog(n: usize) -> Vec<WorkunitCatalogEntry> {
        (0..n)
            .map(|i| WorkunitCatalogEntry {
                ref_seconds: 1000.0 + i as f32,
                position_ref_seconds: 100.0,
                receptor: (i % 2) as u16,
            })
            .collect()
    }

    fn t(sec: f64) -> SimTime {
        SimTime::new(sec)
    }

    /// The launch cursor's counts, written down from a build that had
    /// one before and pinned since: quorum era, five workunits, a
    /// sibling, a rejection, an expiry and a completion.
    #[test]
    fn fresh_issues_follow_the_launch_cursor() {
        let mut s = SchedulerCore::new(catalog(5), ServerConfig::default());
        assert_eq!(s.fresh_backlog(), 5);
        let mut seen = Vec::new();
        let mut note = |s: &SchedulerCore| {
            let wu = s.wu_state_counts();
            seen.push((
                s.fresh_backlog(),
                s.available_count(),
                wu.issued,
                wu.in_flight,
                wu.quorum_pending,
                wu.done,
            ));
        };
        let a = s.fetch_work(t(0.0)).unwrap(); // wu 0
        note(&s);
        let b = s.fetch_work(t(0.0)).unwrap(); // wu 0, sibling
        let c = s.fetch_work(t(0.0)).unwrap(); // wu 1
        note(&s);
        s.report_result(t(1.0), a.replica, false);
        s.report_result(t(2.0), b.replica, true);
        note(&s);
        assert!(s.handle_timeout(c.replica));
        let d = s.fetch_work(t(3.0)).unwrap(); // wu 1, sibling
        let e = s.fetch_work(t(3.0)).unwrap(); // wu 0, error copy
        assert_eq!((d.workunit, e.workunit), (1, 0));
        s.report_result(t(4.0), e.replica, false);
        note(&s);
        let rest: Vec<u32> =
            std::iter::from_fn(|| s.fetch_work(t(5.0)).map(|x| x.workunit)).collect();
        assert_eq!(rest, vec![1, 2, 2, 3, 3, 4, 4], "launch order");
        note(&s);
        assert_eq!(
            seen,
            vec![
                (4, 5, 1, 1, 0, 0),
                (3, 4, 2, 2, 0, 0),
                (3, 5, 2, 2, 1, 0),
                (3, 4, 2, 1, 0, 1),
                (0, 0, 5, 4, 0, 1),
            ]
        );
        assert_eq!(s.wu_state_counts().total, 5);
        assert!(!s.is_campaign_complete());
    }

    /// A requester rejected on wu 0 draws fresh work past wu 0's error
    /// reissue, which keeps the head of the queue; with no fresh work
    /// left it is served that reissue as anyone would be.
    #[test]
    fn a_rejected_requester_draws_fresh_work_while_the_backlog_lasts() {
        let mut s = SchedulerCore::new(catalog(2), ServerConfig::default());
        let a = s.fetch_work(t(0.0)).unwrap();
        let b = s.fetch_work(t(0.0)).unwrap();
        s.report_result(t(1.0), a.replica, false);
        assert!(s.report_result(t(1.0), b.replica, true).erroneous);
        assert_eq!(s.fetch_work_for(t(2.0), Some(0), None).unwrap().workunit, 1);
        assert_eq!(s.fresh_backlog(), 0);
        assert_eq!(s.fetch_work_for(t(2.0), Some(0), None).unwrap().workunit, 0);
        assert_eq!((s.stats.initial_issues, s.stats.error_reissues), (2, 1));
    }

    #[test]
    #[should_panic(expected = "has no feeder")]
    fn a_feeder_is_refused() {
        let cfg = ServerConfig {
            feeder: Some(FeederConfig),
            ..ServerConfig::default()
        };
        SchedulerCore::new(catalog(1), cfg);
    }

    /// A stride is rounded up to the next power of two, and the mask
    /// test is `%` by it exactly, around each multiple too.
    #[test]
    fn the_sampling_stride_rounds_up_to_a_power_of_two() {
        for (asked, stride) in [
            (1u64, 1u64),
            (2, 2),
            (3, 4),
            (5, 8),
            (96, 128),
            (512, 512),
            (513, 1024),
            (1 << 40, 1 << 40),
            (u64::MAX, 1 << 63),
        ] {
            let mask = sample_mask(asked);
            assert_eq!(mask + 1, stride, "stride {asked}");
            let near = |k: u64| [k.wrapping_sub(1), k, k.wrapping_add(1)];
            let xs = (0..2_000u64)
                .chain((1..64).flat_map(|m| near(stride.wrapping_mul(m))))
                .chain([u64::MAX, u64::MAX - 1, u64::from(u32::MAX)]);
            for x in xs {
                assert_eq!(x & mask == 0, x % stride == 0, "{x} % {stride}");
            }
        }
    }
}
