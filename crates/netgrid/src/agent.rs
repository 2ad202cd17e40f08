//! The volunteer agent: fetch, dock, checkpoint, report.
//!
//! One agent models one volunteer machine, and the volunteer is the
//! `Session`: the protocol side of the BOINC client the paper's
//! volunteers ran — connect, learn the campaign from `HelloAck`, then
//! cycle *request work → compute → report* until the server says the
//! campaign is complete — as a state machine with no socket, thread or
//! clock. It is told what happened (`Input`) and answers the one next
//! thing to do (`Step`); every rule an agent follows is a transition
//! of `Session::step`, and nowhere else: where it dials (home, a
//! `Redirect`'s peer at most once per ask, home again when that peer is
//! dead, hangs up in the handshake or has no work), how it backs off
//! (it hangs up, rests for the capped pause plus its own jitter, and
//! dials again), when it gives up, what each injected fault does, every
//! counter of the [`AgentReport`].
//! How long it rests is its own policy too: the server states a fixed
//! hint, and the session doubles a `NoWork`'s for each one in a row
//! since its last `Assignment`; every other rest is as said.
//!
//! Its one driver is [`crate::mux`]: [`crate::mux::run_agent`] over one
//! session, a fleet over thousands; a test drives one by hand. The
//! docking is the real maxdo kernel (`compute_workunit`); with
//! `threads > 1` each starting position's 21 orientation couples run on
//! the vendored rayon pool (order-preserving, so the payload is
//! byte-identical to a single-threaded volunteer's — a prerequisite for
//! byte-level quorum).
//!
//! Progress is checkpointed *between starting positions* (§4.3,
//! [`DockingCheckpoint`]): when fault injection kills the connection
//! mid-workunit, the replica is abandoned exactly the way a powered-off
//! volunteer PC abandons work — the server's deadline sweep reissues it,
//! and this agent starts the next assignment from scratch.

use crate::campaign::NetCampaign;
use crate::faults::{FaultAction, FaultDice, FaultProfile};
use crate::protocol::{CampaignParams, Codec, Message};
use maxdo::{DockingCheckpoint, DockingOutput};
use std::time::Duration;

/// Agent configuration.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Stable agent identity (also salts the fault stream).
    pub agent: u64,
    /// Docking threads (1 = sequential).
    pub threads: usize,
    /// Fault injection profile.
    pub profile: FaultProfile,
    /// Run seed shared by every agent of a campaign.
    pub seed: u64,
    /// Abandon the session (no report, no `Bye`) after this many
    /// assignments — the "volunteer switched the PC off" test hook.
    pub die_after: Option<u32>,
    /// Give up after this many consecutive failed connection attempts.
    pub max_connect_attempts: u32,
    /// The one wire dialect. A vestige with a single value, kept because
    /// `benchmarks/gridbench` reads it (see [`Codec`]); the driver never
    /// changes it, whatever a handshake does.
    pub codec: Codec,
    /// Campaign attachments announced in the handshake: names of the
    /// hosted campaigns this volunteer works for. Empty means the
    /// default campaign; the single entry `"*"` attaches to all.
    pub campaigns: Vec<String>,
}

impl AgentConfig {
    /// A reliable single-threaded volunteer.
    pub fn new(addr: impl Into<String>, agent: u64) -> Self {
        Self {
            addr: addr.into(),
            agent,
            threads: 1,
            profile: FaultProfile::none(),
            seed: 0,
            die_after: None,
            max_connect_attempts: 50,
            codec: Codec,
            campaigns: Vec::new(),
        }
    }
}

/// What one agent did over its lifetime. A fleet returns one per
/// volunteer, in the order of its configs; whoever reads a fleet sums
/// what it needs.
#[derive(Debug, Clone, Default)]
pub struct AgentReport {
    /// Assignments received.
    pub assignments: u64,
    /// Results reported (honest + corrupted + stalled).
    pub reported: u64,
    /// Reports the server accepted.
    pub accepted: u64,
    /// Injected disconnects.
    pub disconnect_faults: u64,
    /// Injected stalls.
    pub stall_faults: u64,
    /// Injected corruptions.
    pub corrupt_faults: u64,
    /// Round-trip latency of each `RequestWork` a frame answered,
    /// milliseconds, as the driver clocked it.
    pub request_latencies_ms: Vec<f64>,
    /// Whether the agent saw the campaign complete (vs. dying early).
    pub saw_completion: bool,
    /// Cross-shard redirects followed (sharded servers only).
    pub redirects_followed: u64,
    /// Connections opened: every dial that connected.
    pub connections: u64,
}

/// What happened, as its driver tells a [`Session`].
#[derive(Debug, Clone)]
pub(crate) enum Input {
    /// The `Dial` connected.
    Connected,
    /// The `Dial` failed.
    ConnectFailed,
    /// A frame arrived.
    Frame(Message),
    /// The connection is gone: the peer closed it, the socket failed, or
    /// the driver closed it itself (a `Bye` step).
    Lost,
    /// The `Compute` finished.
    Computed(DockingOutput),
    /// The `Wait` is over.
    Woke,
}

/// The one next thing a driver does for its [`Session`], and the
/// [`Input`] that answers it.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// Drop any open connection and connect here: `Connected` or
    /// `ConnectFailed`.
    Dial(String),
    /// Send this frame: the `Frame` that comes back, or `Lost`.
    Send(Message),
    /// Send `RequestWork`, answered like a `Send`. Set apart because it
    /// is the one send a driver clocks and may hold back.
    Ask,
    /// Dock this workunit of roster entry `campaign`: `Computed`.
    Compute {
        campaign: u16,
        workunit: u32,
        isep_start: u32,
        positions: u32,
    },
    /// Let this long pass: `Woke`. A backoff's wait comes with no
    /// connection open; only a stall's sits on one, and a frame or a
    /// loss on it still goes to the session.
    Wait(Duration),
    /// Say `Bye` (best effort) and close the connection: `Lost`.
    Bye,
    /// Nothing more to do; [`Session::report`] is final.
    Finished(Outcome),
}

/// How a [`Session`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// It saw the campaign complete, died on purpose (`die_after`), or
    /// lost a server it had already worked for.
    Done,
    /// The connect budget ran out before a single assignment arrived.
    GaveUp,
}

/// Where a [`Session`] stands: the step it last issued, and for the
/// two that are a `Wait`, what waking does.
enum Phase {
    /// Waking dials (also: nothing issued yet).
    Resting,
    /// Waking sends the result a stall fault sat on.
    Stalling(Message),
    Dialing,
    Greeting,
    Asking,
    Computing(Job),
    Reporting,
    /// Hanging up, then resting this many milliseconds, if any, before
    /// the next dial.
    Leaving(Option<u64>),
    Finished(Outcome),
}

/// The assignment being docked and the fault it drew.
struct Job {
    replica: u64,
    workunit: u32,
    campaign: u16,
    action: FaultAction,
    deadline_seconds: f64,
}

/// Every backoff's pause is capped here, before its jitter.
const MAX_WAIT_MS: u64 = 2_000;

/// The longest a backoff rests: the cap plus its jitter. A finished
/// server owes a volunteer that left without hearing `campaign_complete`
/// (sent off by a `NoWork`, a `Busy` or a `Redirect`, or cut off) this
/// long for its next ask ([`crate::event_loop::Loop::over`]).
pub(crate) const MAX_REST: Duration = Duration::from_millis(MAX_WAIT_MS + MAX_WAIT_MS / 4);

/// Up to a quarter of a `ms` pause, salted by the agent's id, so ten
/// thousand agents told the same backoff do not re-dial as one SYN storm.
fn jitter(agent: u64, ms: u64) -> u64 {
    (agent.wrapping_mul(0x9e37_79b9) >> 7) % (ms / 4 + 1)
}

/// One volunteer's protocol decisions, with no socket, thread or clock:
/// [`Self::step`] is told what happened and answers what to do next. A
/// driver supplies the I/O — [`crate::mux`] with nonblocking sockets,
/// the stepped world with in-memory pipes — and owns nothing of the
/// protocol, its waits included: it sleeps each `Wait` and says `Woke`.
pub(crate) struct Session {
    config: AgentConfig,
    dice: FaultDice,
    /// Where the next dial goes when that is not home (`config.addr`):
    /// the peer a `Redirect` named.
    away: Option<String>,
    /// A redirect was followed for the current ask. At most one is, so
    /// two drained shards pointing at each other cannot trap an agent
    /// in a loop.
    bounced: bool,
    /// The recipes of the campaigns the agent is attached to, indexed
    /// by the wire campaign id of `Assignment::campaign`; a
    /// single-campaign server announces exactly one, index 0.
    roster: Vec<CampaignParams>,
    /// The server's replica deadline, from the latest `HelloAck`.
    deadline_seconds: f64,
    connect_failures: u32,
    /// `NoWork`s rested on at home since the last `Assignment`: the
    /// next one rests its hint doubled this many times (at most ten),
    /// capped like any rest.
    streak: u32,
    phase: Phase,
    /// Every counter is kept here; `request_latencies_ms` is the
    /// driver's to fill — it holds the clock.
    pub(crate) report: AgentReport,
}

impl Session {
    /// A volunteer that has done nothing yet; `step(Input::Woke)`
    /// starts it.
    pub(crate) fn new(config: AgentConfig) -> Self {
        Self {
            dice: FaultDice::new(config.seed, config.agent, config.profile),
            config,
            away: None,
            bounced: false,
            roster: Vec::new(),
            deadline_seconds: 0.0,
            connect_failures: 0,
            streak: 0,
            phase: Phase::Resting,
            report: AgentReport::default(),
        }
    }

    /// The campaign recipes the handshake announced (empty before the
    /// first `HelloAck`); a `Compute` step's `campaign` indexes them.
    pub(crate) fn roster(&self) -> &[CampaignParams] {
        &self.roster
    }

    fn addr(&self) -> &str {
        self.away.as_deref().unwrap_or(&self.config.addr)
    }

    fn dial(&mut self) -> Step {
        self.phase = Phase::Dialing;
        Step::Dial(self.addr().to_string())
    }

    /// Rests with no connection open for `ms`, capped, plus the
    /// agent's jitter; waking dials.
    fn wait(&mut self, ms: u64) -> Step {
        self.phase = Phase::Resting;
        let ms = ms.min(MAX_WAIT_MS);
        Step::Wait(Duration::from_millis(ms + jitter(self.config.agent, ms)))
    }

    /// Backs off: hangs up, then rests ([`Self::wait`]).
    fn back_off(&mut self, ms: u64) -> Step {
        self.phase = Phase::Leaving(Some(ms));
        Step::Bye
    }

    fn ask(&mut self) -> Step {
        self.phase = Phase::Asking;
        Step::Ask
    }

    fn send_report(&mut self, report: Message) -> Step {
        self.report.reported += 1;
        self.phase = Phase::Reporting;
        Step::Send(report)
    }

    fn leave(&mut self) -> Step {
        self.phase = Phase::Leaving(None);
        Step::Bye
    }

    fn finish(&mut self, outcome: Outcome) -> Step {
        self.phase = Phase::Finished(outcome);
        Step::Finished(outcome)
    }

    /// Points the next dial back at the home shard, which tracks global
    /// completion and can re-steer. True if the agent was away.
    fn fall_home(&mut self) -> bool {
        self.bounced = false;
        self.away.take().is_some()
    }

    /// The whole agent side of the protocol, one transition per call.
    /// Total: an input the phase has no arm for — a socket lost
    /// mid-dialogue, a frame out of place or in the wrong direction —
    /// loses the session, and the agent dials the same server again.
    pub(crate) fn step(&mut self, input: Input) -> Step {
        // Taken by value (a stalled report lives in it); every arm
        // installs the phase it leaves through one of the helpers.
        match (std::mem::replace(&mut self.phase, Phase::Dialing), input) {
            (Phase::Finished(outcome), _) => self.finish(outcome),
            (Phase::Resting, Input::Woke) => self.dial(),
            (Phase::Stalling(report), Input::Woke) => self.send_report(report),
            (Phase::Dialing, Input::Connected) => {
                self.report.connections += 1;
                self.connect_failures = 0;
                self.phase = Phase::Greeting;
                Step::Send(Message::Hello {
                    agent: self.config.agent,
                    threads: self.config.threads as u32,
                    campaigns: self.config.campaigns.clone(),
                })
            }
            (Phase::Dialing, Input::ConnectFailed) => {
                // A dead redirect target is not a dead campaign: fall
                // back to the home shard before giving up.
                if self.fall_home() {
                    return self.dial();
                }
                self.connect_failures += 1;
                if self.connect_failures < self.config.max_connect_attempts {
                    return self.wait(50);
                }
                // The server is gone — most likely the campaign
                // finished while this agent was between sessions. Any
                // received assignment counts as progress: an agent
                // whose every assignment drew a disconnect fault has
                // reported nothing yet still ran exactly as configured,
                // so its report is a result, not an error.
                let progressed = self.report.saw_completion || self.report.assignments > 0;
                self.finish(if progressed {
                    Outcome::Done
                } else {
                    Outcome::GaveUp
                })
            }
            (
                Phase::Greeting,
                Input::Frame(Message::HelloAck {
                    campaign,
                    deadline_seconds,
                    campaigns,
                    ..
                }),
            ) => {
                if self.roster.is_empty() {
                    self.roster = if campaigns.is_empty() {
                        vec![campaign]
                    } else {
                        campaigns.into_iter().map(|(_, p)| p).collect()
                    };
                }
                self.deadline_seconds = deadline_seconds;
                self.ask()
            }
            (Phase::Greeting | Phase::Asking, Input::Frame(Message::Busy { retry_after_ms })) => {
                self.back_off(retry_after_ms)
            }
            (Phase::Greeting, _) => {
                // A handshake that dies says nothing about the peer's
                // dialect — there is only one — so the next session
                // says the same `Hello`, attachments and all. A
                // redirect target that hangs up is a peer that finished
                // its drain and closed between gossip ticks: fall home.
                if self.fall_home() {
                    self.dial()
                } else {
                    self.back_off(50)
                }
            }
            (
                Phase::Asking,
                Input::Frame(Message::NoWork {
                    campaign_complete,
                    retry_after_ms,
                }),
            ) => {
                self.bounced = false;
                if campaign_complete {
                    self.report.saw_completion = true;
                    self.leave()
                } else if self.fall_home() {
                    // A drained redirect target with the campaign still
                    // open is the home shard's problem, not this peer's:
                    // fall home rather than camping on the peer.
                    self.leave()
                } else {
                    let grown = retry_after_ms.saturating_mul(1 << self.streak.min(10));
                    self.streak = self.streak.saturating_add(1);
                    self.back_off(grown)
                }
            }
            (Phase::Asking, Input::Frame(Message::Redirect { addr: peer, .. })) => {
                if self.bounced || peer == self.addr() {
                    // Already followed one redirect for this ask (or
                    // the server pointed at itself): back off where it
                    // is instead of chasing pointers around a ring of
                    // drained shards.
                    self.bounced = false;
                    self.back_off(100)
                } else {
                    self.report.redirects_followed += 1;
                    self.bounced = true;
                    self.away = (peer != self.config.addr).then_some(peer);
                    self.leave()
                }
            }
            (
                Phase::Asking,
                Input::Frame(Message::Assignment {
                    replica,
                    workunit,
                    isep_start,
                    positions,
                    deadline_seconds,
                    campaign,
                    ..
                }),
            ) => {
                // The roster entry this assignment docks against —
                // index 0 unless a multi-campaign server said
                // otherwise. An index the handshake never announced is
                // a server bug; drop the session.
                if usize::from(campaign) >= self.roster.len() {
                    return self.dial();
                }
                self.bounced = false;
                self.streak = 0;
                self.report.assignments += 1;
                let die_after = self.config.die_after.map(u64::from);
                if die_after.is_some_and(|n| self.report.assignments >= n) {
                    // Vanish mid-workunit: no report, no Bye.
                    return self.finish(Outcome::Done);
                }
                let action = self.dice.draw();
                if action == FaultAction::Disconnect {
                    self.report.disconnect_faults += 1;
                    // Hang up on the workunit; the replica ages out
                    // and the server reissues it.
                    return self.back_off(20);
                }
                self.phase = Phase::Computing(Job {
                    replica,
                    workunit,
                    campaign,
                    action,
                    deadline_seconds,
                });
                Step::Compute {
                    campaign,
                    workunit,
                    isep_start,
                    positions,
                }
            }
            (Phase::Computing(job), Input::Computed(mut output)) => {
                let held = match job.action {
                    FaultAction::Stall => {
                        self.report.stall_faults += 1;
                        // Past whichever deadline is later; one that is
                        // not a length of time holds nothing up.
                        let deadline = job.deadline_seconds.max(self.deadline_seconds);
                        let deadline = Duration::try_from_secs_f64(deadline).unwrap_or_default();
                        Some(deadline + Duration::from_millis(300))
                    }
                    FaultAction::Corrupt => {
                        self.report.corrupt_faults += 1;
                        self.dice.corrupt(&mut output);
                        None
                    }
                    FaultAction::None | FaultAction::Disconnect => None,
                };
                let report = Message::ResultReport {
                    replica: job.replica,
                    workunit: job.workunit,
                    campaign: job.campaign,
                    output,
                };
                match held {
                    Some(past_deadline) => {
                        self.phase = Phase::Stalling(report);
                        Step::Wait(past_deadline)
                    }
                    None => self.send_report(report),
                }
            }
            (
                Phase::Reporting,
                Input::Frame(Message::ResultAck {
                    accepted,
                    campaign_complete,
                    ..
                }),
            ) => {
                self.report.accepted += u64::from(accepted);
                if campaign_complete {
                    self.report.saw_completion = true;
                    self.leave()
                } else {
                    self.ask()
                }
            }
            (Phase::Leaving(_), _) if self.report.saw_completion => self.finish(Outcome::Done),
            (Phase::Leaving(Some(ms)), _) => self.wait(ms),
            _ => self.dial(),
        }
    }
}

/// Computes one workunit through the §4.3 checkpoint, position by
/// position — on `threads > 1`, each position's orientation fan runs on
/// the shared rayon pool with a thread-local cap.
pub(crate) fn compute_workunit(
    campaign: &NetCampaign,
    workunit: u32,
    threads: usize,
) -> DockingOutput {
    let spec = campaign.spec(workunit);
    let engine = campaign.engine(spec);
    let mut cp = DockingCheckpoint::new(spec.isep_start, spec.isep_start + spec.positions - 1);
    while !cp.is_complete() {
        let next = cp.next_isep;
        let out = if threads > 1 {
            rayon::with_threads(threads, || engine.dock_position_parallel(next))
        } else {
            engine.dock_position(next)
        };
        cp.commit_position(out);
    }
    DockingOutput {
        rows: cp.rows,
        evaluations: cp.evaluations,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{CampaignParams, PROTOCOL_VERSION};

    pub(crate) fn hello_ack() -> Message {
        Message::HelloAck {
            protocol: PROTOCOL_VERSION,
            campaign: CampaignParams::tiny(),
            deadline_seconds: 5.0,
            campaigns: Vec::new(),
        }
    }

    pub(crate) fn redirect(shard: u16, addr: &str) -> Message {
        Message::Redirect {
            shard,
            addr: addr.to_string(),
        }
    }

    pub(crate) fn campaign_done() -> Message {
        Message::NoWork {
            campaign_complete: true,
            retry_after_ms: 0,
        }
    }

    // ---- A bare `Session` told what happened, step by step: no
    // socket, no sleep and no thread. ----

    fn hello(agent: u64, campaigns: &[&str]) -> Step {
        Step::Send(Message::Hello {
            agent,
            threads: 1,
            campaigns: campaigns.iter().map(|c| c.to_string()).collect(),
        })
    }

    pub(crate) fn no_work(retry_after_ms: u64) -> Message {
        Message::NoWork {
            campaign_complete: false,
            retry_after_ms,
        }
    }

    /// Workunit 0 of the tiny campaign, as replica 0, due in `deadline_seconds`.
    pub(crate) fn assignment(deadline_seconds: f64) -> Message {
        let spec = NetCampaign::build(CampaignParams::tiny()).spec(0);
        Message::Assignment {
            replica: 0,
            workunit: 0,
            receptor: spec.receptor.0,
            ligand: spec.ligand.0,
            isep_start: spec.isep_start,
            positions: spec.positions,
            deadline_seconds,
            campaign: 0,
        }
    }

    fn ms(ms: u64) -> Step {
        Step::Wait(Duration::from_millis(ms))
    }

    /// Agent `agent`'s rest after a backoff of `ms`: the capped pause
    /// plus its jitter.
    fn rest(agent: u64, ms: u64) -> Step {
        let ms = ms.min(MAX_WAIT_MS);
        Step::Wait(Duration::from_millis(ms + jitter(agent, ms)))
    }

    /// Tells the session each input in turn and checks the step it
    /// answers with.
    fn transcript(session: &mut Session, script: Vec<(Input, Step)>) {
        for (i, (input, expected)) in script.into_iter().enumerate() {
            let said = format!("{input:?}");
            assert_eq!(session.step(input), expected, "step {i}, after {said}");
        }
    }

    /// From a fresh session to its first ask, at `home`.
    fn to_first_ask(home: &str, agent: u64) -> Vec<(Input, Step)> {
        vec![
            (Input::Woke, Step::Dial(home.into())),
            (Input::Connected, hello(agent, &[])),
            (Input::Frame(hello_ack()), Step::Ask),
        ]
    }

    #[test]
    fn stepped_redirect_is_followed_at_most_once_per_ask() {
        let mut session = Session::new(AgentConfig::new("a", 7));
        transcript(&mut session, to_first_ask("a", 7));
        transcript(
            &mut session,
            vec![
                (Input::Frame(redirect(1, "b")), Step::Bye),
                (Input::Lost, Step::Dial("b".into())),
                (Input::Connected, hello(7, &[])),
                (Input::Frame(hello_ack()), Step::Ask),
                // Straight back at shard A: a backoff where it is, not a
                // chase.
                (Input::Frame(redirect(0, "a")), Step::Bye),
                (Input::Lost, rest(7, 100)),
                (Input::Woke, Step::Dial("b".into())),
                (Input::Connected, hello(7, &[])),
                (Input::Frame(hello_ack()), Step::Ask),
                (Input::Frame(campaign_done()), Step::Bye),
                (Input::Lost, Step::Finished(Outcome::Done)),
            ],
        );
        assert!(session.report.saw_completion);
        assert_eq!(session.report.redirects_followed, 1, "one bounce per ask");
    }

    #[test]
    fn stepped_a_dropped_handshake_retries_with_the_same_hello() {
        let config = AgentConfig {
            campaigns: vec!["prod".into(), "pilot".into()],
            ..AgentConfig::new("home", 10)
        };
        transcript(
            &mut Session::new(config),
            vec![
                (Input::Woke, Step::Dial("home".into())),
                (Input::Connected, hello(10, &["prod", "pilot"])),
                (Input::Lost, Step::Bye),
                (Input::Lost, rest(10, 50)),
                (Input::Woke, Step::Dial("home".into())),
                (Input::Connected, hello(10, &["prod", "pilot"])),
                (Input::Frame(hello_ack()), Step::Ask),
            ],
        );
    }

    #[test]
    fn stepped_dead_redirect_target_falls_home() {
        // Whether the dead peer refuses the dial or hangs up on the Hello.
        for hung_up in [false, true] {
            let mut session = Session::new(AgentConfig::new("home", 11));
            transcript(&mut session, to_first_ask("home", 11));
            let mut script = vec![
                (Input::Frame(redirect(1, "peer")), Step::Bye),
                (Input::Lost, Step::Dial("peer".into())),
            ];
            if hung_up {
                script.push((Input::Connected, hello(11, &[])));
                script.push((Input::Lost, Step::Dial("home".into())));
            } else {
                script.push((Input::ConnectFailed, Step::Dial("home".into())));
            }
            script.push((Input::Connected, hello(11, &[])));
            transcript(&mut session, script);
            assert_eq!(session.report.redirects_followed, 1);
        }
    }

    #[test]
    fn stepped_drained_redirect_target_sends_the_agent_home() {
        let mut session = Session::new(AgentConfig::new("home", 12));
        transcript(&mut session, to_first_ask("home", 12));
        transcript(
            &mut session,
            vec![
                (Input::Frame(redirect(1, "peer")), Step::Bye),
                (Input::Lost, Step::Dial("peer".into())),
                (Input::Connected, hello(12, &[])),
                (Input::Frame(hello_ack()), Step::Ask),
                // One NoWork from the peer, campaign open: home, at once.
                (Input::Frame(no_work(5)), Step::Bye),
                (Input::Lost, Step::Dial("home".into())),
                (Input::Connected, hello(12, &[])),
                (Input::Frame(hello_ack()), Step::Ask),
                // The same NoWork at home is a rest, then a fresh dial.
                (Input::Frame(no_work(5)), Step::Bye),
                (Input::Lost, rest(12, 5)),
                (Input::Woke, Step::Dial("home".into())),
            ],
        );
    }

    /// From a rest to the next ask at `home`: a fresh dial and handshake.
    fn ask_again(home: &str, agent: u64) -> Vec<(Input, Step)> {
        vec![
            (Input::Woke, Step::Dial(home.into())),
            (Input::Connected, hello(agent, &[])),
            (Input::Frame(hello_ack()), Step::Ask),
        ]
    }

    /// Told `NoWork` with `hint` at home, the session hangs up and
    /// rests `then`, and asks again.
    fn told_no_work(agent: u64, hint: u64, then: Step) -> Vec<(Input, Step)> {
        let mut script = vec![
            (Input::Frame(no_work(hint)), Step::Bye),
            (Input::Lost, then),
        ];
        script.extend(ask_again("home", agent));
        script
    }

    /// The server states one hint; the session doubles it for each
    /// `NoWork` in a row.
    #[test]
    fn consecutive_no_work_rests_double_from_the_told_hint() {
        let mut session = Session::new(AgentConfig::new("home", 13));
        transcript(&mut session, to_first_ask("home", 13));
        for (k, doubled) in (1..).zip([20, 40, 80, 160, 320]) {
            transcript(&mut session, told_no_work(13, 20, rest(13, doubled)));
            assert_eq!(session.streak, k, "after NoWork {k}");
        }
    }

    /// The doubling stops at [`MAX_WAIT_MS`], and the jitter comes on
    /// top of the cap: the rest never passes [`MAX_REST`].
    #[test]
    fn no_work_rests_cap_at_the_longest_wait_before_jitter() {
        let capped = Duration::from_millis(MAX_WAIT_MS + jitter(14, MAX_WAIT_MS));
        assert!(capped <= MAX_REST, "{capped:?}");
        let mut session = Session::new(AgentConfig::new("home", 14));
        transcript(&mut session, to_first_ask("home", 14));
        for k in 0..40u32 {
            let doubled = 20u64 << k.min(10);
            let expected = match doubled < MAX_WAIT_MS {
                true => rest(14, doubled),
                false => Step::Wait(capped),
            };
            transcript(&mut session, told_no_work(14, 20, expected));
        }
        assert_eq!(session.streak, 40);
    }

    /// An `Assignment` ends the run of `NoWork`s: the next one rests
    /// the bare hint again.
    #[test]
    fn an_assignment_resets_the_no_work_rests() {
        let mut session = Session::new(AgentConfig::new("home", 15));
        let spec = NetCampaign::build(CampaignParams::tiny()).spec(0);
        let output = DockingOutput {
            rows: Vec::new(),
            evaluations: 1,
        };
        transcript(&mut session, to_first_ask("home", 15));
        transcript(&mut session, told_no_work(15, 20, rest(15, 20)));
        transcript(&mut session, told_no_work(15, 20, rest(15, 40)));
        transcript(
            &mut session,
            vec![
                (
                    Input::Frame(assignment(5.0)),
                    Step::Compute {
                        campaign: 0,
                        workunit: 0,
                        isep_start: spec.isep_start,
                        positions: spec.positions,
                    },
                ),
                (
                    Input::Computed(output.clone()),
                    Step::Send(Message::ResultReport {
                        replica: 0,
                        workunit: 0,
                        campaign: 0,
                        output,
                    }),
                ),
                (
                    Input::Frame(Message::ResultAck {
                        accepted: true,
                        completed_workunit: false,
                        campaign_complete: false,
                    }),
                    Step::Ask,
                ),
            ],
        );
        transcript(&mut session, told_no_work(15, 20, rest(15, 20)));
    }

    /// A `Busy` rests what it says however often it comes, and leaves
    /// the run of `NoWork`s where it was: it says the server is full,
    /// not that its queue is empty.
    #[test]
    fn a_busy_rest_neither_grows_nor_resets_the_no_work_streak() {
        let mut session = Session::new(AgentConfig::new("home", 16));
        let busy = Message::Busy { retry_after_ms: 80 };
        transcript(&mut session, to_first_ask("home", 16));
        transcript(&mut session, told_no_work(16, 20, rest(16, 20)));
        transcript(&mut session, told_no_work(16, 20, rest(16, 40)));
        for _ in 0..3 {
            let mut script = vec![
                (Input::Frame(busy.clone()), Step::Bye),
                (Input::Lost, rest(16, 80)),
            ];
            script.extend(ask_again("home", 16));
            transcript(&mut session, script);
        }
        transcript(&mut session, told_no_work(16, 20, rest(16, 80)));
    }

    #[test]
    fn stepped_give_up_with_assignments_but_no_reports_is_ok() {
        let config = |disconnect| AgentConfig {
            profile: FaultProfile {
                disconnect,
                ..FaultProfile::none()
            },
            max_connect_attempts: 3,
            ..AgentConfig::new("home", 9)
        };
        let refused = |last| {
            vec![
                (Input::ConnectFailed, rest(9, 50)),
                (Input::Woke, Step::Dial("home".into())),
                (Input::ConnectFailed, rest(9, 50)),
                (Input::Woke, Step::Dial("home".into())),
                (Input::ConnectFailed, Step::Finished(last)),
            ]
        };
        let mut session = Session::new(config(1.0));
        transcript(&mut session, to_first_ask("home", 9));
        transcript(
            &mut session,
            vec![
                (Input::Frame(assignment(5.0)), Step::Bye),
                (Input::Lost, rest(9, 20)),
                (Input::Woke, Step::Dial("home".into())),
            ],
        );
        transcript(&mut session, refused(Outcome::Done));
        let report = &session.report;
        assert_eq!((report.assignments, report.reported), (1, 0));
        assert_eq!(report.disconnect_faults, 1);
        assert!(!report.saw_completion);

        // With nothing to show for itself, the same silence is an error.
        let mut idle = Session::new(config(0.0));
        transcript(&mut idle, vec![(Input::Woke, Step::Dial("home".into()))]);
        transcript(&mut idle, refused(Outcome::GaveUp));
    }

    /// The fleet's sessions are built like any other, so a stalled fleet
    /// agent sits on its result past whichever deadline is later — the
    /// assignment's own here, not the handshake's.
    #[test]
    fn a_stalled_fleet_agent_waits_out_the_assignments_own_deadline() {
        let mut session = Session::new(AgentConfig {
            profile: FaultProfile {
                stall: 1.0,
                ..FaultProfile::none()
            },
            max_connect_attempts: u32::MAX,
            ..AgentConfig::new("home", 1)
        });
        let one_second = Message::HelloAck {
            protocol: PROTOCOL_VERSION,
            campaign: CampaignParams::tiny(),
            deadline_seconds: 1.0,
            campaigns: Vec::new(),
        };
        let output = DockingOutput {
            rows: Vec::new(),
            evaluations: 3,
        };
        let spec = NetCampaign::build(CampaignParams::tiny()).spec(0);
        transcript(
            &mut session,
            vec![
                (Input::Woke, Step::Dial("home".into())),
                (Input::Connected, hello(1, &[])),
                (Input::Frame(one_second), Step::Ask),
                (
                    Input::Frame(assignment(5.0)),
                    Step::Compute {
                        campaign: 0,
                        workunit: 0,
                        isep_start: spec.isep_start,
                        positions: spec.positions,
                    },
                ),
                (Input::Computed(output.clone()), ms(5_300)),
                (
                    Input::Woke,
                    Step::Send(Message::ResultReport {
                        replica: 0,
                        workunit: 0,
                        campaign: 0,
                        output,
                    }),
                ),
            ],
        );
        assert_eq!(session.report.stall_faults, 1);
    }

    /// Every frame kind in every phase: a defined step, never a panic.
    /// The only frames that advance a session are the server's replies
    /// in their places; any other — a reply out of place, a frame an
    /// agent sends, shard gossip — loses it, and a session hanging up
    /// takes it for the loss it was waiting for.
    #[test]
    fn every_frame_in_every_phase_yields_a_defined_step() {
        let stalls = AgentConfig {
            profile: FaultProfile {
                stall: 1.0,
                ..FaultProfile::none()
            },
            ..AgentConfig::new("home", 3)
        };
        let computed = Input::Computed(DockingOutput {
            rows: Vec::new(),
            evaluations: 0,
        });
        let ask = || -> Vec<Input> { to_first_ask("home", 3).into_iter().map(|s| s.0).collect() };
        let with = |more: &[Input]| [ask(), more.to_vec()].concat();
        let working = Input::Frame(assignment(5.0));
        let phases: Vec<(&str, Vec<Input>)> = vec![
            ("resting", vec![]),
            ("dialing", vec![Input::Woke]),
            ("greeting", vec![Input::Woke, Input::Connected]),
            ("asking", ask()),
            ("hanging up", with(&[Input::Frame(no_work(5))])),
            (
                "backing off",
                with(&[Input::Frame(no_work(5)), Input::Lost]),
            ),
            ("computing", with(std::slice::from_ref(&working))),
            ("stalling", with(&[working.clone(), computed.clone()])),
            ("leaving", with(&[Input::Frame(redirect(1, "peer"))])),
            (
                "finished",
                with(&[Input::Frame(campaign_done()), Input::Lost]),
            ),
        ];
        // "reporting" is the one phase the stalling volunteer passes
        // through only after its wait; an honest one gets there directly.
        let reporting = with(&[working, computed]);
        for (phase, prefix, config) in phases
            .iter()
            .map(|(phase, prefix)| (*phase, prefix, stalls.clone()))
            .chain([("reporting", &reporting, AgentConfig::new("home", 3))])
        {
            for frame in crate::protocol::tests::sample_messages() {
                let mut session = Session::new(config.clone());
                for input in prefix {
                    session.step(input.clone());
                }
                let in_place = matches!(
                    (phase, &frame),
                    ("greeting", Message::HelloAck { .. } | Message::Busy { .. })
                        | (
                            "asking",
                            Message::NoWork { .. }
                                | Message::Busy { .. }
                                | Message::Redirect { .. }
                                | Message::Assignment { .. }
                        )
                        | ("reporting", Message::ResultAck { .. })
                );
                let step = session.step(Input::Frame(frame.clone()));
                let lost = match phase {
                    "greeting" => Step::Bye,
                    "hanging up" => rest(3, 5),
                    "leaving" => Step::Dial("peer".into()),
                    "finished" => Step::Finished(Outcome::Done),
                    _ => Step::Dial("home".into()),
                };
                assert!(in_place || step == lost, "{phase}: {frame:?} gave {step:?}");
            }
        }
    }

    mod walk {
        use super::*;
        use proptest::prelude::*;

        /// What a driver may tell a session that just issued `step`,
        /// picked by `pick`; `None` once it has finished.
        fn legal_input(step: &Step, pick: u16) -> Option<Input> {
            let lost = pick.is_multiple_of(8);
            Some(match step {
                Step::Finished(_) => return None,
                Step::Dial(_) if pick.is_multiple_of(3) => Input::ConnectFailed,
                Step::Dial(_) => Input::Connected,
                Step::Bye => Input::Lost,
                _ if lost => Input::Lost,
                Step::Wait(_) => Input::Woke,
                Step::Compute { .. } => Input::Computed(DockingOutput {
                    rows: Vec::new(),
                    evaluations: u64::from(pick),
                }),
                Step::Send(_) | Step::Ask => Input::Frame(match pick % 13 {
                    0 | 1 => hello_ack(),
                    2 => no_work(u64::from(pick) * 7),
                    3 => Message::Busy {
                        retry_after_ms: u64::from(pick) * 1_000,
                    },
                    4 => redirect(0, "a"),
                    5 => redirect(1, "b"),
                    6 => redirect(2, "c"),
                    7 | 8 => assignment(f64::from(pick) - 30_000.0),
                    9 => Message::ResultAck {
                        accepted: pick.is_multiple_of(2),
                        completed_workunit: false,
                        campaign_complete: pick % 64 == 9,
                    },
                    10 => campaign_done(),
                    _ => {
                        let kinds = crate::protocol::tests::sample_messages();
                        kinds[usize::from(pick) % kinds.len()].clone()
                    }
                }),
            })
        }

        proptest! {
            /// A seeded random walk over everything a driver may legally
            /// say, with a flaky volunteer under it.
            #[test]
            fn a_session_keeps_its_word_on_any_walk(
                seed in 0u64..u64::MAX,
                picks in collection::vec(0u16..u16::MAX, 1..150),
            ) {
                let config = AgentConfig {
                    profile: FaultProfile::flaky(),
                    seed,
                    max_connect_attempts: 4,
                    ..AgentConfig::new("a", 5)
                };
                let mut session = Session::new(config);
                // The last `NoWork` or `Busy` hint, and how many times
                // the session may have doubled it.
                let (mut connected, mut asks, mut told) = (false, 0u64, (0u64, 0u32));
                let mut history: Vec<Input> = Vec::new();
                let mut input = Input::Woke;
                for pick in picks {
                    let step = session.step(input.clone());
                    history.push(input.clone());
                    match &step {
                        // A dial is answered before anything else is said.
                        Step::Dial(_) => {
                            prop_assert!(!matches!(input, Input::Connected), "{history:?}");
                            connected = false;
                        }
                        Step::Bye => connected = false,
                        Step::Send(_) => prop_assert!(connected, "{history:?}"),
                        Step::Ask => {
                            prop_assert!(connected, "{history:?}");
                            asks += 1;
                        }
                        // Only a stall's wait keeps the connection, and
                        // only a stall's sits past the longest rest. Any
                        // other is a backoff: the one the server asked
                        // for last (a `NoWork`'s doubled up to ten
                        // times), or the session's own (a disconnect
                        // fault, a failed dial or handshake, a declined
                        // redirect), capped, plus this agent's jitter.
                        Step::Wait(pause) => {
                            let stall = matches!(input, Input::Computed(_));
                            prop_assert!(stall || *pause <= MAX_REST, "{pause:?}");
                            if !stall {
                                prop_assert!(!connected, "{history:?}");
                                let grown = (0..=told.1).map(|k| told.0.saturating_mul(1 << k));
                                let mut backoff = [20, 50, 100].into_iter().chain(grown);
                                prop_assert!(
                                    backoff.any(|ms| rest(5, ms) == step),
                                    "{step:?} after {history:?}"
                                );
                            }
                        }
                        Step::Compute { .. } | Step::Finished(_) => {}
                    }
                    prop_assert!(session.report.redirects_followed <= asks);
                    let Some(next) = legal_input(&step, pick) else { break };
                    match next {
                        Input::Frame(Message::NoWork { retry_after_ms, .. }) => {
                            told = (retry_after_ms, 10);
                        }
                        Input::Frame(Message::Busy { retry_after_ms }) => told = (retry_after_ms, 0),
                        _ => {}
                    }
                    connected = match next {
                        Input::Connected => true,
                        Input::ConnectFailed | Input::Lost => false,
                        _ => connected,
                    };
                    input = next;
                }
            }
        }
    }

    #[test]
    fn checkpointed_compute_matches_direct_dock_range() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let spec = campaign.spec(0);
        let direct = campaign.compute(spec);
        let via_checkpoint = compute_workunit(&campaign, 0, 1);
        assert_eq!(via_checkpoint, direct);
        let parallel = compute_workunit(&campaign, 0, 4);
        assert_eq!(parallel, direct, "thread count must not change bytes");
    }
}
