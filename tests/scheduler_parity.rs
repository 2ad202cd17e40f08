//! Scheduler parity: the simulator frontend and the wire frontend make
//! identical issue/validate decisions.
//!
//! PR 4 extracted `gridsim::SchedulerCore` so the in-process simulator
//! and the live TCP grid share one scheduling brain. This test is the
//! guarantee that the extraction means something: one scripted event
//! history — fetches, good results, a bounds-invalid result, a deadline
//! expiry, then a drain to completion — is replayed against
//!
//! * the **simulator frontend**: a bare `SchedulerCore` fed boolean
//!   error flags, as `VolunteerGridSim` drives it, and
//! * the **wire frontend**: `netgrid::GridState` fed real
//!   `DockingOutput` payloads, where "erroneous" is a §5.2
//!   bounds-check failure on real bytes,
//!
//! and the two decision logs (workunit issue order, completion and
//! error outcomes, reissue bookkeeping) must be identical, down to the
//! final `ServerStats`.
//!
//! One volunteer asks for everything, so the core's one rule that
//! reads who asks runs in both: a requester whose last result was
//! rejected is not handed that workunit's error reissue while fresh work
//! lasts (`SchedulerCore::fetch_work_for`). The wire frontend's
//! `GridState` remembers the rejection in the agent's book; the
//! simulator frontend remembers it itself. `VolunteerGridSim` passes
//! no rejection, so there it is `fetch_work`: its hosts' errors are
//! independent draws, and passing each host's rejection moves its
//! recorded campaign traces (`tests/event_engine_identity.rs`).

use gridsim::sched::{SchedulerCore, ServerConfig, ServerStats};
use gridsim::SimTime;
use netgrid::trust::spot_selected;
use netgrid::{
    CampaignParams, GridState, NetCampaign, ServerFaults, TrustConfig, Verdict, WorkReply,
};

/// The common frontend surface the script drives.
trait Frontend {
    /// Requests work; logs `issue wu=N` or `nowork`. Returns the index
    /// of the new assignment in the frontend's own list.
    fn fetch(&mut self, now: f64) -> Option<usize>;
    /// Reports assignment `idx`; `good` selects an honest result vs. an
    /// erroneous one (boolean flag / bounds-invalid payload).
    fn report(&mut self, now: f64, idx: usize, good: bool);
    /// Expires outstanding past-deadline replicas; logs the count.
    fn sweep(&mut self, now: f64);
    fn is_complete(&self) -> bool;
    fn log(&self) -> &[String];
    fn stats(&self) -> ServerStats;
}

/// The simulator's view: boolean error flags, explicit timeout calls —
/// the calls `VolunteerGridSim` makes, with the one volunteer's last
/// rejection handed to each fetch.
struct SimFrontend {
    core: SchedulerCore,
    /// (replica, workunit, deadline, reported)
    assignments: Vec<(gridsim::sched::ReplicaId, u32, f64, bool)>,
    /// The workunit of the volunteer's last report, if it was rejected.
    rejected: Option<u32>,
    log: Vec<String>,
}

impl SimFrontend {
    fn new(campaign: &NetCampaign, config: ServerConfig) -> Self {
        Self {
            core: SchedulerCore::new(campaign.catalog(), config),
            assignments: Vec::new(),
            rejected: None,
            log: Vec::new(),
        }
    }
}

impl Frontend for SimFrontend {
    fn fetch(&mut self, now: f64) -> Option<usize> {
        match self
            .core
            .fetch_work_for(SimTime::new(now), self.rejected, None)
        {
            Some(a) => {
                self.log.push(format!("issue wu={}", a.workunit));
                self.assignments.push((
                    a.replica,
                    a.workunit,
                    now + self.core.deadline_seconds(),
                    false,
                ));
                Some(self.assignments.len() - 1)
            }
            None => {
                self.log.push("nowork".into());
                None
            }
        }
    }

    fn report(&mut self, now: f64, idx: usize, good: bool) {
        let (replica, wu, _, ref mut reported) = self.assignments[idx];
        *reported = true;
        let outcome = self.core.report_result(SimTime::new(now), replica, !good);
        self.rejected = outcome.erroneous.then_some(wu);
        self.log.push(format!(
            "report wu={wu} completed={} erroneous={}",
            outcome.completed_workunit, outcome.erroneous
        ));
    }

    fn sweep(&mut self, now: f64) {
        // The simulator schedules one Timeout event per replica; sweep
        // equivalence is "every outstanding past-deadline replica gets
        // its handle_timeout call".
        let mut expired = 0;
        for i in 0..self.assignments.len() {
            let (replica, _, deadline, reported) = self.assignments[i];
            if !reported && now >= deadline {
                self.core.handle_timeout(replica);
                self.assignments[i].3 = true; // expire once, like the sim's single Timeout event
                expired += 1;
            }
        }
        self.log.push(format!("sweep expired={expired}"));
    }

    fn is_complete(&self) -> bool {
        self.core.is_campaign_complete()
    }

    fn log(&self) -> &[String] {
        &self.log
    }

    fn stats(&self) -> ServerStats {
        self.core.stats
    }
}

/// The wire's view: real payloads through `GridState`. An "erroneous"
/// result is an honest payload with one energy blown out of the §5.2
/// bounds, so the error flag is *derived from bytes*, not asserted.
struct WireFrontend {
    campaign: NetCampaign,
    state: GridState,
    /// (replica, workunit)
    assignments: Vec<(gridsim::sched::ReplicaId, u32)>,
    log: Vec<String>,
}

impl WireFrontend {
    fn new(config: ServerConfig) -> Self {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let state = GridState::new(&campaign, config, ServerFaults::default());
        Self {
            campaign,
            state,
            assignments: Vec::new(),
            log: Vec::new(),
        }
    }
}

impl Frontend for WireFrontend {
    fn fetch(&mut self, now: f64) -> Option<usize> {
        match self.state.fetch(SimTime::new(now), 1) {
            WorkReply::Assigned(a) => {
                self.log.push(format!("issue wu={}", a.workunit));
                self.assignments.push((a.replica, a.workunit));
                Some(self.assignments.len() - 1)
            }
            WorkReply::Backoff { .. } => {
                self.log.push("nowork".into());
                None
            }
        }
    }

    fn report(&mut self, now: f64, idx: usize, good: bool) {
        let (replica, wu) = self.assignments[idx];
        let mut output = self.campaign.compute(self.campaign.spec(wu));
        if !good {
            output.rows[0].elj = f64::INFINITY;
        }
        let d = self
            .state
            .report(SimTime::new(now), &self.campaign, replica, wu, &output);
        let erroneous = matches!(d.verdict, Verdict::BoundsRejected | Verdict::QuorumRejected);
        self.log.push(format!(
            "report wu={wu} completed={} erroneous={erroneous}",
            d.completed_workunit
        ));
    }

    fn sweep(&mut self, now: f64) {
        let expired = self.state.sweep(SimTime::new(now));
        self.log.push(format!("sweep expired={expired}"));
    }

    fn is_complete(&self) -> bool {
        self.state.is_campaign_complete()
    }

    fn log(&self) -> &[String] {
        &self.log
    }

    fn stats(&self) -> ServerStats {
        self.state.server_stats()
    }
}

/// The scripted history, plus a drain loop to campaign completion.
fn run_script(f: &mut impl Frontend) {
    // Three fetches at t=0: wu0's initial, wu0's quorum sibling, wu1's
    // initial (leaving wu1's sibling queued).
    let i0 = f.fetch(0.0).expect("work available");
    let i1 = f.fetch(0.0).expect("work available");
    let i2 = f.fetch(0.0).expect("work available");
    // wu0's pair reports honestly and validates.
    f.report(1.0, i0, true);
    f.report(2.0, i1, true);
    // wu1's sibling is fetched late and reports an erroneous result —
    // an error reissue.
    let i3 = f.fetch(5.0).expect("work available");
    f.report(6.0, i3, false);
    // wu1's first replica (i2, issued t=0, 10 s deadline) never
    // reports; the sweep at t=11 expires it — a timeout reissue.
    f.sweep(11.0);
    let _ = i2;
    // Drain: fetch and immediately report honestly until complete.
    let mut now = 12.0;
    while !f.is_complete() {
        now += 0.5;
        while let Some(i) = f.fetch(now) {
            f.report(now, i, true);
        }
    }
}

#[test]
fn simulator_and_wire_frontends_decide_identically() {
    let config = ServerConfig {
        deadline_seconds: 10.0,
        ..ServerConfig::default()
    };
    let campaign = NetCampaign::build(CampaignParams::tiny());

    let mut sim = SimFrontend::new(&campaign, config);
    let mut wire = WireFrontend::new(config);
    run_script(&mut sim);
    run_script(&mut wire);

    assert_eq!(
        sim.log(),
        wire.log(),
        "the two frontends diverged in their issue/validate decisions"
    );
    assert_eq!(sim.stats(), wire.stats(), "final ServerStats diverged");
    assert!(sim.is_complete() && wire.is_complete());

    // Both exercised the interesting paths, not just the happy drain.
    let stats = sim.stats();
    assert_eq!(stats.errors_received, 1, "one bounds-invalid result");
    assert_eq!(stats.error_reissues, 1);
    assert_eq!(stats.timeout_reissues, 1, "one expired replica");
    // The drain's first fetch is the requester rule at work: the
    // volunteer just rejected on wu1 draws fresh wu2, not wu1's error
    // reissue at the head of the queue.
    let sweep = sim.log().iter().position(|l| l.starts_with("sweep"));
    assert_eq!(sim.log()[sweep.unwrap() + 1], "issue wu=2");

    // And the wire frontend's accepted artifact is the in-process
    // baseline, byte for byte.
    assert!(wire.state.is_campaign_complete());
    assert_eq!(
        serde_json::to_string(wire.state.outputs()).unwrap(),
        serde_json::to_string(&campaign.baseline_outputs()).unwrap(),
    );
}

/// Property: spot-check selection is a pure function of (seed,
/// workunit, rate) — stable across calls, empty at rate 0, total at
/// rate 1, and monotone in rate (raising the rate never deselects a
/// workunit, because selection thresholds one fixed hash).
#[test]
fn spot_selection_is_a_pure_function_of_seed_and_workunit() {
    for seed in [0u64, 7, 0x5d0c_beef, u64::MAX] {
        let picks: Vec<bool> = (0..5_000).map(|wu| spot_selected(seed, wu, 0.25)).collect();
        let again: Vec<bool> = (0..5_000).map(|wu| spot_selected(seed, wu, 0.25)).collect();
        assert_eq!(picks, again, "selection must be deterministic");
        assert!((0..5_000).all(|wu| !spot_selected(seed, wu, 0.0)));
        assert!((0..5_000).all(|wu| spot_selected(seed, wu, 1.0)));
        for wu in 0..5_000 {
            if spot_selected(seed, wu, 0.25) {
                assert!(
                    spot_selected(seed, wu, 0.5),
                    "raising the rate deselected wu {wu} under seed {seed}"
                );
            }
        }
        let hits = picks.iter().filter(|&&p| p).count();
        assert!(
            (800..1700).contains(&hits),
            "rate 0.25 over 5000 workunits selected {hits}"
        );
    }
    // Different seeds sample different subsets.
    let a: Vec<bool> = (0..5_000).map(|wu| spot_selected(1, wu, 0.25)).collect();
    let b: Vec<bool> = (0..5_000).map(|wu| spot_selected(2, wu, 0.25)).collect();
    assert_ne!(a, b, "the seed must actually steer the draw");
}

/// Property: under the trust policy, a scripted campaign history —
/// honest agents, one saboteur, interleaved fetch/report/sweep — is
/// fully deterministic (two runs produce identical decision logs,
/// seeded spot checks included), and the replication level demanded of
/// any workunit never leaves `[1, quorum max]`: trusted singles floor
/// at one result, forced re-replication ceilings at the configured
/// quorum of two.
#[test]
fn trust_scripted_history_is_deterministic_with_bounded_replication() {
    const QUORUM_MAX: u16 = 2;
    let run = || -> (Vec<String>, GridState) {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let config = ServerConfig {
            deadline_seconds: 10.0,
            ..ServerConfig::default()
        };
        let faults = ServerFaults {
            trust: TrustConfig {
                spot_check_rate: 0.5,
                ..TrustConfig::on()
            },
        };
        let mut state = GridState::new(&campaign, config, faults);
        let mut log = Vec::new();
        // Deterministic script mixer (an LCG, not the std RNG, so the
        // history is identical on every run of this test binary).
        let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
        let mut draw = |m: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % m
        };
        let mut now = 0.0f64;
        let mut corruptions = 0u32;
        for step in 0..10_000 {
            if state.is_campaign_complete() {
                break;
            }
            now += 0.25;
            // Agent 9 is the saboteur: in-bounds corruption every time.
            let agent = [1u64, 2, 3, 9][draw(4) as usize];
            if draw(10) == 0 {
                let expired = state.sweep(SimTime::new(now));
                log.push(format!("sweep expired={expired}"));
                continue;
            }
            match state.fetch(SimTime::new(now), agent) {
                WorkReply::Assigned(a) => {
                    let needed = state.replication_needed(SimTime::new(now), a.workunit);
                    assert!(
                        (1..=QUORUM_MAX).contains(&needed),
                        "step {step}: wu {} demands {needed} results",
                        a.workunit
                    );
                    let mut out = campaign.compute(campaign.spec(a.workunit));
                    if agent == 9 {
                        // Salted like FaultDice: two corruptions never
                        // byte-match, so the saboteur cannot validate
                        // its own garbage by holding both pair halves.
                        corruptions += 1;
                        out.rows[0].eelec += 1e-9 * f64::from(corruptions);
                    }
                    let d = state.report(
                        SimTime::new(now + 0.1),
                        &campaign,
                        a.replica,
                        a.workunit,
                        &out,
                    );
                    log.push(format!(
                        "agent={agent} wu={} verdict={:?} complete={}",
                        a.workunit, d.verdict, d.completed_workunit
                    ));
                }
                WorkReply::Backoff { .. } => log.push(format!("agent={agent} backoff")),
            }
        }
        (log, state)
    };

    let (log_a, state_a) = run();
    let (log_b, state_b) = run();
    assert_eq!(log_a, log_b, "identical scripts must replay identically");
    assert_eq!(state_a.server_stats(), state_b.server_stats());
    assert!(
        state_a.is_campaign_complete(),
        "script budget too small to finish the campaign"
    );
    // The interesting machinery actually ran: someone graduated to
    // singles and was audited for it.
    assert!(
        state_a.net_stats.spot_checks_passed > 0,
        "no spot check ever fired: {:?}",
        state_a.net_stats
    );
    assert_eq!(
        serde_json::to_string(state_a.outputs()).unwrap(),
        serde_json::to_string(&NetCampaign::build(CampaignParams::tiny()).baseline_outputs())
            .unwrap(),
        "trust must not change the merged artifact"
    );
}
