//! Transport-free server state: [`SchedulerCore`] plus everything the
//! wire adds on top.
//!
//! The simulator and the live server share one scheduling brain
//! (`gridsim::SchedulerCore`: queue order, redundancy, deadlines,
//! reissue causes, the day-110 validation-policy switch). What the wire
//! adds — and what lives here — is the part the simulator abstracts
//! away:
//!
//! * **real payloads**: results are actual [`DockingOutput`]s, so
//!   quorum comparison is a bit-level [`fingerprint`] match (a hash
//!   streamed over the payload's fields, nothing serialised) and bounds
//!   checking runs the real §5.2 value checks on the rows in place,
//!   instead of the simulator's boolean `error` flag;
//! * **real deadlines**: replica expiry is tracked against wall-clock
//!   seconds and swept periodically, instead of a scheduled sim event;
//! * **double-report protection**: the core asserts each replica reports
//!   once; TCP peers can retransmit, so the wire layer must deduplicate
//!   before calling in;
//! * **a fixed rest hint** when a fetch finds no work
//!   (`NO_WORK_RETRY_MS`; the volunteer grows its own rests from it).
//!
//! `GridState` is deliberately transport-free (time is an explicit
//! argument, no sockets): the parity test drives it and a bare
//! `SchedulerCore` through one scripted history and asserts identical
//! decisions, which is what "the simulator and the live grid share one
//! scheduler" *means* operationally.

use crate::campaign::NetCampaign;
use crate::faults::ServerFaults;
use crate::protocol::{binary, Checksum64};
use crate::trust::{spot_selected, AgentTrust, TrustBand};
use gridsim::sched::{
    ReplicaAssignment, ReplicaId, ReplicationOverride, SchedulerCore, ServerConfig, ServerStats,
};
use gridsim::SimTime;
use maxdo::DockingOutput;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use telemetry::{self, Event};
use validation::{checks::check_rows, ValueRanges};

/// The quorum fingerprint of a result payload: [`checksum64`] of
/// `evaluations`, the row count and every row's 72-byte little-endian
/// record — exactly the bytes [`binary`] puts on the wire and in the
/// journal for this output, streamed through a [`Checksum64`] without
/// assembling them (no allocation).
///
/// Two payloads share a fingerprint exactly when every field is
/// bit-identical (up to 64-bit hash collisions; payloads that differ in
/// a single 8-byte word of that encoding never collide, see
/// [`checksum64`]). That is the equality a canonical-JSON comparison
/// gives for finite values, and stricter at the edges JSON blurs: `0.0`
/// and `-0.0` are different payloads, and so are two NaNs with different
/// payload bits. The energies and position of an accepted result are
/// finite (§5.2 bounds checks run first); a NaN can only sit in an
/// orientation angle, where honest replicas — same code, same inputs —
/// produce the same bits.
///
/// [`checksum64`]: crate::protocol::checksum64
pub fn fingerprint(output: &DockingOutput) -> u64 {
    let mut sum = Checksum64::new();
    sum.update(&output.evaluations.to_le_bytes());
    sum.update(&(output.rows.len() as u32).to_le_bytes());
    // Rows are staged a few at a time so the hasher is fed whole stripes
    // rather than 72-byte dribbles.
    let mut staged = [0u8; 8 * binary::ROW_BYTES];
    for rows in output.rows.chunks(8) {
        for (slot, row) in staged.chunks_exact_mut(binary::ROW_BYTES).zip(rows) {
            slot.copy_from_slice(&binary::row_bytes(row));
        }
        sum.update(&staged[..rows.len() * binary::ROW_BYTES]);
    }
    sum.finish()
}

/// The rest an empty queue suggests, ms: one fixed hint for every
/// agent. The volunteer grows its own rests from it, one doubling per
/// `NoWork` in a row ([`crate::agent`]); a quarantine suggests what is
/// left of it, never less than this.
pub(crate) const NO_WORK_RETRY_MS: u64 = 20;

/// Reply to a work request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum WorkReply {
    /// One replica to compute.
    Assigned(ReplicaAssignment),
    /// Nothing issuable; retry after the suggested rest.
    Backoff {
        /// Suggested wait, ms: a fixed hint (`NO_WORK_RETRY_MS`), or
        /// what is left of a quarantine.
        retry_after_ms: u64,
        /// True once the campaign is fully validated.
        campaign_complete: bool,
    },
}

/// How a reported result was judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Validated its workunit (alone under bounds-check, or as the
    /// matching half of a quorum pair).
    Accepted,
    /// First valid result of a quorum pair; waiting for its partner.
    QuorumPending,
    /// Disagreed byte-for-byte with every stored candidate.
    QuorumRejected,
    /// Failed the §5.2 value checks outright.
    BoundsRejected,
    /// A retransmission of a replica already reported — dropped.
    Duplicate,
    /// Valid, but its workunit had already validated (paper: counted,
    /// redundant).
    Late,
    /// A spot-check recomputation that byte-matched the accepted
    /// single-replica result it was auditing.
    SpotConfirmed,
    /// A spot-check recomputation that disagreed with the accepted
    /// result: the audited agent's trust craters and its unconfirmed
    /// singles are retracted for re-replication.
    SpotMismatch,
    /// A spot-check whose target workunit was retracted while the check
    /// was in flight — nothing left to compare against.
    SpotVoid,
}

/// Everything the transport needs to answer a `ResultReport`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResultDisposition {
    /// How the result was judged.
    pub verdict: Verdict,
    /// Whether this result completed (validated) its workunit.
    pub completed_workunit: bool,
}

/// Wire-level counters, alongside the core's [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Results rejected by byte-level quorum comparison.
    pub quorum_rejected: u64,
    /// Results rejected by the §5.2 bounds checks.
    pub bounds_rejected: u64,
    /// Duplicate reports dropped at the wire layer.
    pub duplicates_dropped: u64,
    /// Replica deadlines expired by the sweeper.
    pub deadline_expiries: u64,
    /// Fetches answered with a backoff.
    pub backoffs_sent: u64,
    /// Fetches denied because the agent is quarantined (a subset of
    /// `backoffs_sent`).
    pub trust_denied_fetches: u64,
    /// Spot-check recomputations that byte-matched the audited result.
    pub spot_checks_passed: u64,
    /// Spot-check recomputations that mismatched (each craters the
    /// audited agent's trust).
    pub spot_checks_failed: u64,
    /// Validated workunits retracted after a failed spot check.
    pub workunits_invalidated: u64,
}

/// Per-agent accounting for the ops endpoint's fleet table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AgentLedger {
    /// Replicas assigned to this agent.
    pub assignments: u64,
    /// Results this agent reported (all verdicts).
    pub reports: u64,
    /// Reports that validated a workunit.
    pub accepted: u64,
    /// Reports rejected by quorum comparison or bounds checks.
    pub rejected: u64,
    /// Server-clock second of the agent's last fetch or report.
    pub last_seen_s: f64,
}

/// Trust band census, for the run report and the ops endpoint; see
/// [`GridState::trust_summary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrustSummary {
    /// Agents whose history earns single-replica issues.
    pub trusted: usize,
    /// Agents on the standard quorum (newcomers and middling scores).
    pub probation: usize,
    /// Agents under forced quorum.
    pub untrusted: usize,
    /// Agents currently serving quarantine.
    pub quarantined: usize,
    /// Agents quarantined at least once over the campaign.
    pub ever_quarantined: usize,
    /// Spot checks that byte-matched the audited result.
    pub spot_checks_passed: u64,
    /// Spot checks that mismatched.
    pub spot_checks_failed: u64,
}

/// What the server holds for one in-flight replica.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    /// The agent the replica was assigned to — a report carries no
    /// agent id on the wire, so this is how it is attributed.
    agent: u64,
    /// Absolute deadline, server-clock seconds.
    deadline: f64,
    /// For a spot-check replica, the agent whose single it audits.
    suspect: Option<u64>,
}

/// What the server holds for one agent.
#[derive(Debug, Clone, Default, PartialEq)]
struct AgentBook {
    /// Assignment/report accounting for the ops endpoint (advisory).
    ledger: AgentLedger,
    /// Accept/reject history driving the replication bands; stays at
    /// its default, and is never shown, with the trust policy off.
    trust: AgentTrust,
    /// This agent's accepted singles not yet independently confirmed —
    /// the set a failed spot check of it retracts retroactively.
    unverified: Vec<u32>,
    /// The workunit of this agent's last report, if it was rejected.
    rejected: Option<u32>,
}

/// The live grid's server state (scheduling + validation + payloads),
/// with time as an explicit argument.
///
/// The state is its own picture: a journal-recovered state is "the same
/// state" as the live one exactly when the two compare `==` — every
/// field, the core's included, with maps compared as maps (iteration
/// order does not matter). A field added here is compared by every
/// crash, restart and replay test without further work. The counts it
/// keeps ([`NetStats`], the agents' ledgers, the core's
/// [`ServerStats`]) are their only home: `/metrics` renders them from
/// here, and nothing mirrors them into the telemetry registry.
#[derive(Debug, Clone, PartialEq)]
pub struct GridState {
    core: SchedulerCore,
    faults: ServerFaults,
    ranges: ValueRanges,
    /// In-flight (issued, unreported, unexpired) replicas. `fetch`
    /// inserts, `report` and `sweep` remove: a replica that is in
    /// neither this map nor `lapsed` has reported (or was never issued),
    /// which is the wire-level dedup the core needs — it panics on double
    /// reports. Nothing replica-keyed outlives the report.
    in_flight: HashMap<u64, InFlight>,
    /// Replicas `sweep` expired that have not reported, → the agent they
    /// were assigned to. A late report can still complete its workunit
    /// and must still be credited, so the attribution is kept; the
    /// deadline and audit role are not (an expired audit replica that
    /// reports after all is an ordinary surplus copy).
    lapsed: HashMap<u64, u64>,
    /// Quorum candidates per incomplete workunit: payload fingerprint
    /// and the reporting agent, so quorum partners earn trust credit
    /// when their pair completes. Fingerprints only: the accepted
    /// artifact is the copy the completing reporter sent, so a
    /// candidate's payload is never needed again, and a flood of wrong
    /// results costs 16 bytes each.
    candidates: HashMap<u32, Vec<(u64, u64)>>,
    /// The validated output per workunit, in catalog order.
    accepted: Vec<Option<DockingOutput>>,
    /// Everything kept per agent that ever asked for work. Trust
    /// decisions change scheduling, so they must survive `kill -9`: a
    /// book changes only inside the calls a restart makes again.
    agents: HashMap<u64, AgentBook>,
    /// Spot checks awaiting an independent agent: (workunit, suspect).
    spot_queue: VecDeque<(u32, u64)>,
    /// Spot-check replicas in flight (the `in_flight` entries with a
    /// suspect), counted so the completion gate need not scan for them.
    spots_in_flight: usize,
    /// Wire-level counters.
    pub net_stats: NetStats,
}

impl GridState {
    /// Builds the state of a campaign — the one way a `GridState` comes
    /// to be; recovery makes the recorded calls on it again.
    pub fn new(campaign: &NetCampaign, config: ServerConfig, faults: ServerFaults) -> Self {
        Self {
            core: SchedulerCore::new(campaign.catalog(), config),
            faults,
            ranges: ValueRanges::default(),
            in_flight: HashMap::new(),
            lapsed: HashMap::new(),
            candidates: HashMap::new(),
            accepted: vec![None; campaign.len()],
            agents: HashMap::new(),
            spot_queue: VecDeque::new(),
            spots_in_flight: 0,
            net_stats: NetStats::default(),
        }
    }

    /// Read access to the shared scheduling core.
    pub fn core(&self) -> &SchedulerCore {
        &self.core
    }

    /// The core's cumulative issue/validation statistics.
    pub fn server_stats(&self) -> ServerStats {
        self.core.stats
    }

    /// True once every workunit has validated *and* no spot check is
    /// queued or in flight — a campaign does not finish with audits of
    /// its single-replica results unresolved. (There are no audits when
    /// trust is off, so this is the core's own gate then.)
    pub fn is_campaign_complete(&self) -> bool {
        self.core.is_campaign_complete() && self.spot_queue.is_empty() && self.spots_in_flight == 0
    }

    /// Donated reference CPU seconds spent on results that never became
    /// the effective copy (quorum partners, errors, late copies, spot
    /// checks, retracted singles).
    pub fn wasted_ref_seconds(&self) -> f64 {
        self.core.wasted_ref_seconds()
    }

    /// Band counts and spot-check totals for end-of-run reporting;
    /// `None` when trust is off. Bands are judged at `now_s` — the
    /// server's latest clock, so an agent still serving quarantine
    /// counts as quarantined.
    pub fn trust_summary(&self, now_s: f64) -> Option<TrustSummary> {
        let cfg = self.faults.trust;
        if !cfg.enabled {
            return None;
        }
        let mut summary = TrustSummary::default();
        for AgentBook { trust, .. } in self.agents.values() {
            match trust.band(now_s, &cfg) {
                TrustBand::Trusted => summary.trusted += 1,
                TrustBand::Probation => summary.probation += 1,
                TrustBand::Untrusted => summary.untrusted += 1,
                TrustBand::Quarantined => summary.quarantined += 1,
            }
            if trust.quarantine_count > 0 {
                summary.ever_quarantined += 1;
            }
        }
        summary.spot_checks_passed = self.net_stats.spot_checks_passed;
        summary.spot_checks_failed = self.net_stats.spot_checks_failed;
        Some(summary)
    }

    /// The trust ledger of one agent, when trust is on and the agent
    /// has history.
    pub fn agent_trust(&self, agent: u64) -> Option<AgentTrust> {
        let book = self.agents.get(&agent)?;
        self.faults.trust.enabled.then_some(book.trust)
    }

    /// The trust policy this state runs under.
    pub fn trust_config(&self) -> crate::trust::TrustConfig {
        self.faults.trust
    }

    /// How many valid results `workunit` still demands at `now` — its
    /// issue-time trust override if one was fixed, the era's policy
    /// otherwise. Exposed for the parity property tests.
    pub fn replication_needed(&self, now: SimTime, workunit: u32) -> u16 {
        self.core.replication_needed(now, workunit)
    }

    /// The full trust ledger, sorted by agent id; empty when trust is
    /// off (end-of-run reporting and the restart regression tests).
    pub fn agent_trust_table(&self) -> Vec<(u64, AgentTrust)> {
        if !self.faults.trust.enabled {
            return Vec::new();
        }
        let mut v: Vec<(u64, AgentTrust)> =
            self.agents.iter().map(|(&a, b)| (a, b.trust)).collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }

    /// The validated output per workunit, in catalog order: `Some`
    /// exactly at the workunits this state validated — every one once
    /// [`Self::is_campaign_complete`].
    pub fn outputs(&self) -> &[Option<DockingOutput>] {
        &self.accepted
    }

    /// Gives up [`Self::outputs`] by value: the one copy of the artifact
    /// the grid holds, handed to whoever reports the finished run.
    pub fn into_outputs(self) -> Vec<Option<DockingOutput>> {
        self.accepted
    }

    /// Issued, unreported, unexpired replicas.
    pub fn outstanding_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Incomplete workunits holding quorum candidates.
    pub fn quorum_candidate_workunits(&self) -> usize {
        self.candidates.len()
    }

    /// Every agent's ledger, sorted by agent id (the ops fleet table).
    pub fn agent_ledgers(&self) -> Vec<(u64, AgentLedger)> {
        let mut v: Vec<(u64, AgentLedger)> =
            self.agents.iter().map(|(&a, b)| (a, b.ledger)).collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }

    /// Answers a work request from `agent` at time `now`.
    pub fn fetch(&mut self, now: SimTime, agent: u64) -> WorkReply {
        let outcome = self.next_assignment(now, agent);
        let book = self.agents.entry(agent).or_default();
        book.ledger.last_seen_s = book.ledger.last_seen_s.max(now.seconds());
        match outcome {
            Ok((assignment, suspect)) => {
                book.ledger.assignments += 1;
                self.spots_in_flight += usize::from(suspect.is_some());
                self.in_flight.insert(
                    assignment.replica.0,
                    InFlight {
                        agent,
                        deadline: now.seconds() + self.core.deadline_seconds(),
                        suspect,
                    },
                );
                if telemetry::ENABLED && self.core.sampled(assignment.workunit) {
                    telemetry::emit(Some(now.seconds()), || Event::WorkunitDispatched {
                        workunit: u64::from(assignment.workunit),
                        host: agent,
                    });
                }
                WorkReply::Assigned(assignment)
            }
            Err(quarantined_ms) => {
                let retry_after_ms = match quarantined_ms {
                    // Quarantine: the agent gets no work until its
                    // re-admission timer runs out, regardless of how
                    // often it asks.
                    Some(ms) => {
                        self.net_stats.trust_denied_fetches += 1;
                        ms.max(NO_WORK_RETRY_MS)
                    }
                    None => NO_WORK_RETRY_MS,
                };
                self.net_stats.backoffs_sent += 1;
                WorkReply::Backoff {
                    retry_after_ms,
                    campaign_complete: self.is_campaign_complete(),
                }
            }
        }
    }

    /// Picks the next replica for `agent` — with the suspect it audits
    /// when it is a spot check — or `Err(quarantine)` when nothing is
    /// issuable: `Err(Some(ms))` for a quarantined agent (remaining
    /// quarantine in ms), `Err(None)` for a plain empty queue.
    ///
    /// With trust on, the order is: quarantine gate, then pending spot
    /// checks (served to any agent but the suspect — an audit computed
    /// by its own subject proves nothing), then regular work at the
    /// agent's band-appropriate replication level. Every decision is a
    /// pure function of the books, so a restart reproduces it.
    fn next_assignment(
        &mut self,
        now: SimTime,
        agent: u64,
    ) -> Result<(ReplicaAssignment, Option<u64>), Option<u64>> {
        let trust = self.faults.trust;
        if !trust.enabled {
            // The core keeps a rejected agent off its own error reissue
            // while fresh work lasts.
            let rejected = self.agents.get(&agent).and_then(|b| b.rejected);
            let assignment = self.core.fetch_work_for(now, rejected, None);
            return assignment.map(|a| (a, None)).ok_or(None);
        }
        // A newcomer has no book yet (`fetch` opens it) and no history.
        let history = self
            .agents
            .get(&agent)
            .map_or_else(AgentTrust::default, |b| b.trust);
        let quarantine_s = history.quarantine_remaining_s(now.seconds());
        if quarantine_s > 0.0 {
            return Err(Some((quarantine_s * 1_000.0).ceil() as u64));
        }
        loop {
            // Serve the oldest spot check whose suspect is someone
            // else. Once the core has validated everything, self-audits
            // are allowed so a lone surviving agent cannot deadlock the
            // drain (a recomputation by the same agent still catches
            // nondeterministic corruption; a byte-stable liar is no
            // worse off than an unsampled single).
            let pos = match self.spot_queue.iter().position(|&(_, s)| s != agent) {
                Some(p) => Some(p),
                None if self.core.is_campaign_complete() && !self.spot_queue.is_empty() => Some(0),
                None => None,
            };
            let Some(pos) = pos else { break };
            let (wu, suspect) = self.spot_queue.remove(pos).expect("position in range");
            if self.accepted[wu as usize].is_none() {
                // Retracted while queued (its suspect cratered): the
                // workunit is back under quorum; the audit is moot.
                continue;
            }
            return Ok((self.core.issue_spot_check(wu), Some(suspect)));
        }
        let replication = match history.band(now.seconds(), &trust) {
            TrustBand::Trusted => Some(ReplicationOverride::Single),
            TrustBand::Untrusted => Some(ReplicationOverride::Quorum),
            TrustBand::Probation => None,
            // Gated above; unreachable in practice, safe if not.
            TrustBand::Quarantined => return Err(None),
        };
        let assignment = self.core.fetch_work_for(now, None, replication);
        assignment.map(|a| (a, None)).ok_or(None)
    }

    /// Expires outstanding replicas whose deadline passed; each expiry
    /// queues a timeout reissue in the core (if still needed). Returns
    /// the number of expiries.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let mut expired: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, held)| now.seconds() >= held.deadline)
            .map(|(&r, _)| r)
            .collect();
        // Replica-id order, not map order: when one sweep expires
        // several replicas the reissue queue must come out the same on
        // the live server and on replay.
        expired.sort_unstable();
        for &r in &expired {
            let held = self.in_flight.remove(&r).expect("listed above");
            self.lapsed.insert(r, held.agent);
            self.net_stats.deadline_expiries += 1;
            if let Some(suspect) = held.suspect {
                // An expired spot check goes back in the audit queue —
                // the workunit stays unconfirmed until somebody
                // actually recomputes it.
                self.spots_in_flight -= 1;
                let wu = self.core.replica_workunit(ReplicaId(r));
                self.spot_queue.push_back((wu, suspect));
                continue;
            }
            self.core.handle_timeout(ReplicaId(r));
        }
        expired.len()
    }

    /// Judges and books one reported result.
    ///
    /// Validation is two-layered, matching §5.2: the value-range checks
    /// always run on arrival (they became the *only* check after the
    /// day-110 switch), and under [`ValidationPolicy::QuorumCompare`](gridsim::sched::ValidationPolicy::QuorumCompare)
    /// a result must additionally agree byte-for-byte with a partner
    /// replica before the workunit validates.
    pub fn report(
        &mut self,
        now: SimTime,
        campaign: &NetCampaign,
        replica: ReplicaId,
        workunit: u32,
        output: &DockingOutput,
    ) -> ResultDisposition {
        // Wire-level sanity: only a replica still in the books may reach
        // the core (it panics on double reports by design — the simulator
        // can never produce one). A retransmission left them with its
        // first report and a forged id was never in them; either way, or
        // if the workunit does not match, the report is dropped and
        // attributed to nobody.
        let held = match self.in_flight.get(&replica.0) {
            Some(held) => Some((held.agent, held.suspect)),
            None => self.lapsed.get(&replica.0).map(|&agent| (agent, None)),
        };
        let verdict = match held {
            Some((agent, suspect)) if self.core.replica_workunit(replica) == workunit => {
                if self.in_flight.remove(&replica.0).is_none() {
                    self.lapsed.remove(&replica.0);
                }
                let verdict = match suspect {
                    Some(suspect) => self.judge_spot(now, replica, workunit, output, suspect),
                    None => self.judge(now, campaign, replica, workunit, output, agent),
                };
                self.note_report(agent, workunit, verdict, now);
                verdict
            }
            _ => {
                self.net_stats.duplicates_dropped += 1;
                Verdict::Duplicate
            }
        };
        ResultDisposition {
            verdict,
            completed_workunit: verdict == Verdict::Accepted,
        }
    }

    /// Books one report of `workunit` against the agent the replica was
    /// assigned to.
    fn note_report(&mut self, agent: u64, workunit: u32, verdict: Verdict, now: SimTime) {
        let book = self.agents.entry(agent).or_default();
        let rejected = matches!(verdict, Verdict::QuorumRejected | Verdict::BoundsRejected);
        book.rejected = rejected.then_some(workunit);
        let ledger = &mut book.ledger;
        ledger.last_seen_s = ledger.last_seen_s.max(now.seconds());
        ledger.reports += 1;
        match verdict {
            Verdict::Accepted | Verdict::SpotConfirmed => ledger.accepted += 1,
            Verdict::QuorumRejected | Verdict::BoundsRejected => ledger.rejected += 1,
            Verdict::QuorumPending
            | Verdict::Duplicate
            | Verdict::Late
            | Verdict::SpotMismatch
            | Verdict::SpotVoid => {}
        }
        // Trust scoring for the *reporter*. A confirmed spot check is a
        // byte-correct recomputation, so it earns the auditor credit; a
        // mismatch proves only disagreement (the cratered party is the
        // suspect, handled in the spot path), so the auditor's score is
        // untouched.
        match verdict {
            Verdict::Accepted | Verdict::SpotConfirmed => self.trust_accept(agent),
            Verdict::QuorumRejected | Verdict::BoundsRejected => self.trust_reject(agent, now),
            Verdict::QuorumPending
            | Verdict::Duplicate
            | Verdict::Late
            | Verdict::SpotMismatch
            | Verdict::SpotVoid => {}
        }
    }

    /// Credits one validated result to `agent`'s trust window.
    fn trust_accept(&mut self, agent: u64) {
        if !self.faults.trust.enabled || agent == u64::MAX {
            return;
        }
        self.agents.entry(agent).or_default().trust.record_accept();
    }

    /// Debits one rejected result; a long enough run of consecutive
    /// rejections starts quarantine.
    fn trust_reject(&mut self, agent: u64, now: SimTime) {
        let cfg = self.faults.trust;
        if !cfg.enabled || agent == u64::MAX {
            return;
        }
        let trust = &mut self.agents.entry(agent).or_default().trust;
        if trust.record_reject(&cfg) {
            trust.quarantine(now.seconds(), &cfg);
        }
    }

    /// A spot check caught `suspect` lying (or at least disagreeing):
    /// trust craters to zero with immediate quarantine, and every one
    /// of the suspect's accepted-but-unconfirmed singles is retracted
    /// and re-replicated under forced quorum.
    fn crater_agent(&mut self, suspect: u64, now: SimTime) {
        let cfg = self.faults.trust;
        let book = self.agents.entry(suspect).or_default();
        if suspect != u64::MAX {
            book.trust.crater(now.seconds(), &cfg);
        }
        for wu in std::mem::take(&mut book.unverified) {
            if self.core.invalidate_workunit(wu) {
                self.net_stats.workunits_invalidated += 1;
                self.accepted[wu as usize] = None;
                self.candidates.remove(&wu);
                // Any queued audit of a retracted workunit is dropped
                // lazily at fetch time (its accepted copy is gone).
            }
        }
    }

    /// Judges a spot-check replica's report. It short-circuits normal
    /// validation: the workunit is already complete, and the only
    /// question is whether this independent recomputation byte-matches
    /// the accepted single of `suspect` it audits.
    fn judge_spot(
        &mut self,
        now: SimTime,
        replica: ReplicaId,
        workunit: u32,
        output: &DockingOutput,
        suspect: u64,
    ) -> Verdict {
        self.spots_in_flight -= 1;
        self.core.note_spot_report(replica);
        let Some(accepted) = self.accepted[workunit as usize].as_ref() else {
            // Retracted while the audit was in flight.
            return Verdict::SpotVoid;
        };
        if fingerprint(output) == fingerprint(accepted) {
            self.net_stats.spot_checks_passed += 1;
            // The audited single is now independently confirmed; a
            // later crater of the suspect no longer retracts it.
            if let Some(book) = self.agents.get_mut(&suspect) {
                book.unverified.retain(|&w| w != workunit);
            }
            return Verdict::SpotConfirmed;
        }
        self.net_stats.spot_checks_failed += 1;
        if telemetry::ENABLED && self.core.sampled(workunit) {
            telemetry::emit(Some(now.seconds()), || Event::QuorumRejected {
                workunit: u64::from(workunit),
            });
        }
        self.crater_agent(suspect, now);
        Verdict::SpotMismatch
    }

    /// Judges an ordinary replica's report, `agent` being who it was
    /// assigned to.
    fn judge(
        &mut self,
        now: SimTime,
        campaign: &NetCampaign,
        replica: ReplicaId,
        workunit: u32,
        output: &DockingOutput,
        agent: u64,
    ) -> Verdict {
        // Layer 1: the §5.2 bounds checks (the simulator's `error` flag
        // made concrete).
        let bounds_ok =
            check_rows(&campaign.file_header(workunit), &output.rows, &self.ranges).is_empty();
        if !bounds_ok {
            self.net_stats.bounds_rejected += 1;
            let outcome = self.core.report_result(now, replica, true);
            debug_assert!(outcome.erroneous);
            return Verdict::BoundsRejected;
        }

        // Accepted payloads are recorded exactly when the core validates
        // a workunit, so this is "has the core completed it already".
        let was_complete = self.accepted[workunit as usize].is_some();

        // Layer 2: byte-level quorum agreement, whenever this workunit
        // needs more than one valid result — by the era's validation
        // policy or by a trust override fixed at issue time.
        let needed = self.core.replication_needed(now, workunit);
        if needed >= 2 && !was_complete {
            let fp = fingerprint(output);
            let cands = self.candidates.entry(workunit).or_default();
            if !cands.is_empty() && !cands.iter().any(|(h, _)| *h == fp) {
                // Disagrees with every candidate: reject — but *keep* it
                // as a candidate. If the first result was the corrupted
                // one, an honest pair must still be able to meet and
                // validate; with majority-free pairwise matching the
                // corrupted minority loses because corruption is random
                // (two corrupted payloads never match byte-for-byte).
                cands.push((fp, agent));
                self.net_stats.quorum_rejected += 1;
                if telemetry::ENABLED && self.core.sampled(workunit) {
                    telemetry::emit(Some(now.seconds()), || Event::QuorumRejected {
                        workunit: u64::from(workunit),
                    });
                }
                let outcome = self.core.report_result(now, replica, true);
                debug_assert!(outcome.erroneous);
                return Verdict::QuorumRejected;
            }
            let matched = !cands.is_empty();
            let outcome = self.core.report_result(now, replica, false);
            if outcome.completed_workunit {
                debug_assert!(matched, "core quorum met before a byte-level match");
                self.accepted[workunit as usize] = Some(output.clone());
                // The pending partners whose bytes won the quorum earn
                // trust credit too — without this, agents whose results
                // mostly land first would never accumulate accepts in
                // the quorum era. (The completing reporter's own credit
                // flows through the verdict.)
                let cands = self.candidates.remove(&workunit).unwrap_or_default();
                for (_, partner) in cands.into_iter().filter(|(h, _)| *h == fp) {
                    self.trust_accept(partner);
                }
                return Verdict::Accepted;
            }
            // Not yet completed: either the first candidate of the pair,
            // or a match whose quorum the core has not closed (only
            // possible with >2 live replicas of one workunit).
            cands.push((fp, agent));
            return Verdict::QuorumPending;
        }

        // Single-replica validation (bounds-check era, a trusted
        // agent's single, or a surplus copy of a validated workunit).
        let outcome = self.core.report_result(now, replica, false);
        if !outcome.completed_workunit {
            return Verdict::Late;
        }
        self.accepted[workunit as usize] = Some(output.clone());
        self.candidates.remove(&workunit);
        // A single accepted under trust is provisional until audited; a
        // seeded deterministic draw decides whether this one gets an
        // independent recomputation.
        let trust = self.faults.trust;
        if trust.enabled {
            self.agents
                .entry(agent)
                .or_default()
                .unverified
                .push(workunit);
            if spot_selected(trust.spot_seed, workunit, trust.spot_check_rate) {
                self.spot_queue.push_back((workunit, agent));
            }
        }
        Verdict::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CampaignParams;

    fn setup() -> (NetCampaign, GridState) {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let config = ServerConfig {
            deadline_seconds: 5.0,
            ..ServerConfig::default()
        };
        let state = GridState::new(&campaign, config, ServerFaults::default());
        (campaign, state)
    }

    fn t(s: f64) -> SimTime {
        SimTime::new(s)
    }

    #[test]
    fn honest_quorum_pair_validates_with_the_matched_payload() {
        let (campaign, mut state) = setup();
        let a = match state.fetch(t(0.0), 1) {
            WorkReply::Assigned(a) => a,
            other => panic!("{other:?}"),
        };
        let b = match state.fetch(t(0.0), 2) {
            WorkReply::Assigned(b) => b,
            other => panic!("{other:?}"),
        };
        assert_eq!(a.workunit, b.workunit, "quorum sibling issued first");
        let out = campaign.compute(campaign.spec(a.workunit));
        let d1 = state.report(t(1.0), &campaign, a.replica, a.workunit, &out);
        assert_eq!(d1.verdict, Verdict::QuorumPending);
        let d2 = state.report(t(2.0), &campaign, b.replica, b.workunit, &out);
        assert_eq!(d2.verdict, Verdict::Accepted);
        assert!(d2.completed_workunit);
    }

    #[test]
    fn corrupted_first_candidate_cannot_poison_the_workunit() {
        let (campaign, mut state) = setup();
        let a = match state.fetch(t(0.0), 1) {
            WorkReply::Assigned(a) => a,
            other => panic!("{other:?}"),
        };
        let b = match state.fetch(t(0.0), 2) {
            WorkReply::Assigned(b) => b,
            other => panic!("{other:?}"),
        };
        let honest = campaign.compute(campaign.spec(a.workunit));
        let mut corrupt = honest.clone();
        corrupt.rows[0].eelec += 1e-9;
        // Corrupted result lands first and becomes the first candidate.
        let d1 = state.report(t(1.0), &campaign, a.replica, a.workunit, &corrupt);
        assert_eq!(d1.verdict, Verdict::QuorumPending);
        // Honest result disagrees with it: quorum-rejected, error reissue.
        let d2 = state.report(t(2.0), &campaign, b.replica, b.workunit, &honest);
        assert_eq!(d2.verdict, Verdict::QuorumRejected);
        assert_eq!(state.net_stats.quorum_rejected, 1);
        // The reissued replicas eventually deliver two honest copies.
        let c = match state.fetch(t(3.0), 3) {
            WorkReply::Assigned(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(c.workunit, a.workunit, "error reissue comes first");
        let d3 = state.report(t(4.0), &campaign, c.replica, c.workunit, &honest);
        assert_eq!(d3.verdict, Verdict::Accepted, "honest pair met");
        assert!(d3.completed_workunit);
        assert_eq!(
            state.accepted[a.workunit as usize].as_ref(),
            Some(&honest),
            "the honest payload is the accepted artifact"
        );
    }

    /// Trust off: agent 2's corrupted report of wu0 is rejected, and
    /// while fresh work lasts its next ask draws fresh work, not wu0's
    /// error reissue, which waits at the head of the queue for agent 3.
    /// Once the backlog is empty, a rejected agent is served as anyone.
    #[test]
    fn a_rejected_agent_draws_fresh_work_while_the_backlog_lasts() {
        let (campaign, mut state) = setup();
        let fetch = |state: &mut GridState, agent| match state.fetch(t(0.0), agent) {
            WorkReply::Assigned(a) => Some(a),
            WorkReply::Backoff { .. } => None,
        };
        let honest = |wu: u32| campaign.compute(campaign.spec(wu));
        let corrupt = |wu: u32| {
            let mut out = honest(wu);
            out.rows[0].eelec += 1e-9;
            out
        };
        let a = fetch(&mut state, 1).unwrap();
        let b = fetch(&mut state, 2).unwrap();
        assert_eq!((a.workunit, b.workunit), (0, 0));
        state.report(t(1.0), &campaign, a.replica, 0, &honest(0));
        let d = state.report(t(1.0), &campaign, b.replica, 0, &corrupt(0));
        assert_eq!(d.verdict, Verdict::QuorumRejected);
        let again = fetch(&mut state, 2).unwrap();
        assert_eq!(again.workunit, 1, "agent 2 drew its own rejected workunit");
        assert_eq!(fetch(&mut state, 3).unwrap().workunit, 0, "wu0's reissue");
        // Helpers take everything else, wu1's quorum sibling among it.
        let mut held = Vec::new();
        while let Some(h) = fetch(&mut state, 100 + held.len() as u64) {
            held.push(h);
        }
        assert_eq!(state.core.fresh_backlog(), 0);
        let sibling = held.iter().find(|h| h.workunit == 1).unwrap();
        state.report(t(2.0), &campaign, sibling.replica, 1, &honest(1));
        let d = state.report(t(2.0), &campaign, again.replica, 1, &corrupt(1));
        assert_eq!(d.verdict, Verdict::QuorumRejected);
        let last = fetch(&mut state, 2).unwrap();
        assert_eq!(last.workunit, 1, "no fresh work left: served as anyone");
    }

    #[test]
    fn out_of_bounds_payload_is_rejected_and_reissued() {
        let (campaign, mut state) = setup();
        let a = match state.fetch(t(0.0), 1) {
            WorkReply::Assigned(a) => a,
            other => panic!("{other:?}"),
        };
        let mut bad = campaign.compute(campaign.spec(a.workunit));
        bad.rows[0].elj = f64::INFINITY;
        let d = state.report(t(1.0), &campaign, a.replica, a.workunit, &bad);
        assert_eq!(d.verdict, Verdict::BoundsRejected);
        assert_eq!(state.net_stats.bounds_rejected, 1);
        assert_eq!(state.server_stats().errors_received, 1);
    }

    #[test]
    fn duplicate_report_is_dropped_before_the_core() {
        let (campaign, mut state) = setup();
        let a = match state.fetch(t(0.0), 1) {
            WorkReply::Assigned(a) => a,
            other => panic!("{other:?}"),
        };
        let out = campaign.compute(campaign.spec(a.workunit));
        state.report(t(1.0), &campaign, a.replica, a.workunit, &out);
        let d = state.report(t(1.5), &campaign, a.replica, a.workunit, &out);
        assert_eq!(d.verdict, Verdict::Duplicate);
        assert_eq!(state.net_stats.duplicates_dropped, 1);
    }

    #[test]
    fn sweep_expires_deadlines_and_queues_timeout_reissues() {
        let (_campaign, mut state) = setup();
        let a = match state.fetch(t(0.0), 1) {
            WorkReply::Assigned(a) => a,
            other => panic!("{other:?}"),
        };
        assert_eq!(state.sweep(t(1.0)), 0, "before the deadline");
        assert_eq!(state.sweep(t(10.0)), 1, "past the 5 s deadline");
        assert_eq!(state.net_stats.deadline_expiries, 1);
        assert_eq!(state.server_stats().timeout_reissues, 0);
        // The reissue surfaces on the next fetch, same workunit.
        let b = match state.fetch(t(10.0), 2) {
            WorkReply::Assigned(b) => b,
            other => panic!("{other:?}"),
        };
        assert_eq!(b.workunit, a.workunit);
    }

    /// An empty queue states one fixed hint, the same for every agent
    /// however often it asks: the rest grows on the volunteer's side.
    #[test]
    fn an_empty_queue_states_one_fixed_hint() {
        let (campaign, mut state) = setup();
        // Drain the whole queue.
        let mut assignments = Vec::new();
        while let WorkReply::Assigned(a) = state.fetch(t(0.0), 1) {
            assignments.push(a);
        }
        assert!(assignments.len() >= 2 * campaign.len());
        for agent in [1, 9, 1_000_003] {
            for _ in 0..12 {
                let reply = state.fetch(t(0.0), agent);
                let hint = WorkReply::Backoff {
                    retry_after_ms: NO_WORK_RETRY_MS,
                    campaign_complete: false,
                };
                assert_eq!(reply, hint, "agent {agent}");
            }
        }
        assert_eq!(state.net_stats.backoffs_sent, 3 * 12 + 1);
    }

    #[test]
    fn stalled_result_after_completion_is_counted_redundant() {
        let (campaign, mut state) = setup();
        let a = match state.fetch(t(0.0), 1) {
            WorkReply::Assigned(a) => a,
            other => panic!("{other:?}"),
        };
        let b = match state.fetch(t(0.0), 2) {
            WorkReply::Assigned(b) => b,
            other => panic!("{other:?}"),
        };
        assert_eq!(a.workunit, b.workunit);
        let out = campaign.compute(campaign.spec(a.workunit));
        // One half of the pair reports; the other stalls past its
        // deadline, so the sweep reissues it.
        state.report(t(1.0), &campaign, a.replica, a.workunit, &out);
        assert_eq!(state.sweep(t(10.0)), 1, "only b is still outstanding");
        let c = match state.fetch(t(10.0), 3) {
            WorkReply::Assigned(c) => c,
            other => panic!("{other:?}"),
        };
        assert_eq!(c.workunit, a.workunit, "timeout reissue of the pair");
        let d = state.report(t(11.0), &campaign, c.replica, c.workunit, &out);
        assert_eq!(d.verdict, Verdict::Accepted);
        // The stalled replica finally reports: valid, but redundant.
        let late = state.report(t(12.0), &campaign, b.replica, b.workunit, &out);
        assert_eq!(late.verdict, Verdict::Late);
        assert_eq!(state.server_stats().late_results, 1);
    }

    #[test]
    fn the_replica_books_hold_only_what_is_unreported() {
        let (campaign, mut state) = setup();
        let baseline = campaign.baseline_outputs();
        let honest = |a: ReplicaAssignment| baseline[a.workunit as usize].clone();
        // One pair with a stall in it: b expires, its timeout copy closes
        // the pair, b reports late, and a's report is retransmitted.
        let a = assigned(&mut state, t(0.0), 1);
        let b = assigned(&mut state, t(0.0), 2);
        state.report(t(1.0), &campaign, a.replica, a.workunit, &honest(a));
        assert_eq!(state.sweep(t(6.0)), 1);
        assert_eq!((state.outstanding_len(), state.lapsed.len()), (0, 1));
        let c = assigned(&mut state, t(6.0), 3);
        state.report(t(7.0), &campaign, c.replica, c.workunit, &honest(c));
        let late = state.report(t(8.0), &campaign, b.replica, b.workunit, &honest(b));
        assert_eq!(late.verdict, Verdict::Late);
        let again = state.report(t(9.0), &campaign, a.replica, a.workunit, &honest(a));
        assert_eq!(again.verdict, Verdict::Duplicate);
        assert_eq!(state.agents[&1].ledger.reports, 1, "attributed to nobody");
        // The rest of the campaign, two agents taking turns.
        let mut asked = 0;
        while !state.is_campaign_complete() {
            asked += 1;
            let x = assigned(&mut state, t(10.0), 4 + asked % 2);
            assert_eq!(state.outstanding_len(), 1);
            state.report(t(10.0), &campaign, x.replica, x.workunit, &honest(x));
        }
        assert_eq!((state.outstanding_len(), state.lapsed.len()), (0, 0));
        assert!(state.core.replica_count() >= 2 * campaign.len());
        let mut agents: Vec<u64> = state.agents.keys().copied().collect();
        agents.sort_unstable();
        assert_eq!(agents, [1, 2, 3, 4, 5], "one row per agent that asked");
    }

    fn setup_trust(spot_check_rate: f64) -> (NetCampaign, GridState) {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let config = ServerConfig {
            deadline_seconds: 5.0,
            ..ServerConfig::default()
        };
        let faults = ServerFaults {
            trust: crate::trust::TrustConfig {
                spot_check_rate,
                ..crate::trust::TrustConfig::on()
            },
        };
        let state = GridState::new(&campaign, config, faults);
        (campaign, state)
    }

    fn assigned(state: &mut GridState, now: SimTime, agent: u64) -> ReplicaAssignment {
        match state.fetch(now, agent) {
            WorkReply::Assigned(a) => a,
            other => panic!("agent {agent} expected work, got {other:?}"),
        }
    }

    /// Completes `n` honest quorum pairs between two agents, crediting
    /// both ledgers with `n` accepts. Returns the last time used.
    fn earn_trust(
        campaign: &NetCampaign,
        state: &mut GridState,
        agents: (u64, u64),
        n: u64,
        mut now_s: f64,
    ) -> f64 {
        for _ in 0..n {
            let a = assigned(state, t(now_s), agents.0);
            let b = assigned(state, t(now_s), agents.1);
            assert_eq!(a.workunit, b.workunit, "probation pair shares a workunit");
            let out = campaign.compute(campaign.spec(a.workunit));
            let d1 = state.report(t(now_s + 1.0), campaign, a.replica, a.workunit, &out);
            assert_eq!(d1.verdict, Verdict::QuorumPending);
            let d2 = state.report(t(now_s + 2.0), campaign, b.replica, b.workunit, &out);
            assert_eq!(d2.verdict, Verdict::Accepted);
            now_s += 3.0;
        }
        now_s
    }

    #[test]
    fn trusted_agents_graduate_to_single_replica_issues() {
        let (campaign, mut state) = setup_trust(0.0);
        let now_s = earn_trust(&campaign, &mut state, (1, 2), 5, 0.0);
        for agent in [1, 2] {
            let tr = state.agent_trust(agent).expect("ledger exists");
            assert_eq!(tr.accepted, 5, "agent {agent} quorum accepts");
            assert_eq!(
                tr.band(now_s, &state.trust_config()),
                TrustBand::Trusted,
                "agent {agent} should have graduated"
            );
        }
        // Both trusted: fresh fetches are singles — different workunits,
        // each validating on its lone report.
        let a = assigned(&mut state, t(now_s), 1);
        let b = assigned(&mut state, t(now_s), 2);
        assert_ne!(a.workunit, b.workunit, "trusted issues carry no sibling");
        let out = campaign.compute(campaign.spec(a.workunit));
        let d = state.report(t(now_s + 1.0), &campaign, a.replica, a.workunit, &out);
        assert_eq!(d.verdict, Verdict::Accepted);
        assert!(d.completed_workunit, "a trusted single completes alone");
    }

    #[test]
    fn saboteur_trips_quarantine_and_is_readmitted_later() {
        let (campaign, mut state) = setup_trust(0.0);
        let cfg = state.trust_config();
        let mut now_s = 0.0;
        // Four consecutive quorum rejections: honest candidate first,
        // the saboteur's disagreeing copy second. A fresh honest agent
        // per round keeps everyone else safely in probation, and the
        // error reissue is drained each round so the next pair is a
        // fresh workunit.
        for k in 0..u64::from(cfg.quarantine_after) {
            let a = assigned(&mut state, t(now_s), 100 + k);
            let b = assigned(&mut state, t(now_s), 9);
            assert_eq!(a.workunit, b.workunit);
            let honest = campaign.compute(campaign.spec(a.workunit));
            let mut corrupt = honest.clone();
            corrupt.rows[0].eelec += 1e-9;
            state.report(t(now_s + 1.0), &campaign, a.replica, a.workunit, &honest);
            let d = state.report(t(now_s + 2.0), &campaign, b.replica, b.workunit, &corrupt);
            assert_eq!(d.verdict, Verdict::QuorumRejected, "reject {k}");
            let c = assigned(&mut state, t(now_s + 2.0), 200 + k);
            assert_eq!(c.workunit, a.workunit, "error reissue comes first");
            let d = state.report(t(now_s + 3.0), &campaign, c.replica, c.workunit, &honest);
            assert_eq!(d.verdict, Verdict::Accepted);
            now_s += 4.0;
        }
        let quarantined_at = now_s - 1.0;
        let tr = state.agent_trust(9).expect("saboteur ledger");
        assert_eq!(tr.quarantine_count, 1);
        assert_eq!(tr.rejected, 0, "quarantine resets the scoring window");
        assert_eq!(
            tr.band(quarantined_at, &cfg),
            TrustBand::Quarantined,
            "still serving quarantine"
        );
        // Work requests are refused with the remaining quarantine.
        let denied = state.fetch(t(quarantined_at), 9);
        match denied {
            WorkReply::Backoff { retry_after_ms, .. } => {
                assert!(
                    retry_after_ms > cfg.quarantine_base_s as u64 * 1000 / 2,
                    "backoff should cover the quarantine: {retry_after_ms} ms"
                );
            }
            other => panic!("quarantined agent got {other:?}"),
        }
        assert_eq!(state.net_stats.trust_denied_fetches, 1);
        // Honest agents are unaffected...
        let _ = assigned(&mut state, t(quarantined_at), 1);
        // ...and the saboteur is re-admitted once the timer expires.
        let readmit = quarantined_at + cfg.quarantine_base_s * 2.0 + 1.0;
        let _ = assigned(&mut state, t(readmit), 9);
    }

    #[test]
    fn spot_check_confirms_an_honest_single() {
        let (campaign, mut state) = setup_trust(1.0);
        let now_s = earn_trust(&campaign, &mut state, (1, 2), 5, 0.0);
        let a = assigned(&mut state, t(now_s), 1);
        let honest = campaign.compute(campaign.spec(a.workunit));
        let d = state.report(t(now_s + 1.0), &campaign, a.replica, a.workunit, &honest);
        assert!(d.completed_workunit, "trusted single");
        // Rate 1.0: the accepted single is queued for audit, and the
        // campaign must not be reported complete until it drains.
        assert!(!state.is_campaign_complete());
        let audit = assigned(&mut state, t(now_s + 2.0), 2);
        assert_eq!(audit.workunit, a.workunit, "spot check served first");
        let d = state.report(
            t(now_s + 3.0),
            &campaign,
            audit.replica,
            audit.workunit,
            &honest,
        );
        assert_eq!(d.verdict, Verdict::SpotConfirmed);
        assert!(!d.completed_workunit, "the workunit was already complete");
        assert_eq!(state.net_stats.spot_checks_passed, 1);
        assert_eq!(
            state.accepted[a.workunit as usize].as_ref(),
            Some(&honest),
            "a passed audit leaves the artifact alone"
        );
        assert_eq!(state.server_stats().spot_check_issues, 1);
    }

    #[test]
    fn spot_mismatch_craters_the_cheat_and_retracts_its_single() {
        let (campaign, mut state) = setup_trust(1.0);
        let now_s = earn_trust(&campaign, &mut state, (1, 2), 5, 0.0);
        // Trusted agent 1 slips a corrupted-but-in-bounds single past
        // validation: accepted provisionally, queued for audit.
        let a = assigned(&mut state, t(now_s), 1);
        let wu = a.workunit;
        let honest = campaign.compute(campaign.spec(wu));
        let mut corrupt = honest.clone();
        corrupt.rows[0].eelec += 1e-9;
        let d = state.report(t(now_s + 1.0), &campaign, a.replica, wu, &corrupt);
        assert!(d.completed_workunit, "the poisoned single sails through");
        // Agent 2's independent recomputation disagrees byte-for-byte.
        let audit = assigned(&mut state, t(now_s + 2.0), 2);
        assert_eq!(audit.workunit, wu);
        let d = state.report(
            t(now_s + 3.0),
            &campaign,
            audit.replica,
            audit.workunit,
            &honest,
        );
        assert_eq!(d.verdict, Verdict::SpotMismatch);
        assert_eq!(state.net_stats.spot_checks_failed, 1);
        assert_eq!(state.net_stats.workunits_invalidated, 1);
        assert_eq!(state.accepted[wu as usize], None, "artifact retracted");
        let tr = state.agent_trust(1).expect("cheater ledger");
        assert_eq!(tr.spot_failed, 1);
        assert_eq!(
            tr.quarantine_count, 1,
            "a failed audit craters to quarantine"
        );
        // The retracted workunit is re-replicated under forced quorum:
        // two fresh replicas, byte-matching pair required again.
        let b = assigned(&mut state, t(now_s + 4.0), 2);
        let c = assigned(&mut state, t(now_s + 4.0), 3);
        assert_eq!(b.workunit, wu, "error reissue comes first");
        assert_eq!(c.workunit, wu, "two replicas for the forced quorum");
        let d1 = state.report(t(now_s + 5.0), &campaign, b.replica, wu, &honest);
        assert_eq!(d1.verdict, Verdict::QuorumPending);
        let d2 = state.report(t(now_s + 6.0), &campaign, c.replica, wu, &honest);
        assert_eq!(d2.verdict, Verdict::Accepted);
        assert_eq!(
            state.accepted[wu as usize].as_ref(),
            Some(&honest),
            "the honest pair repairs the artifact"
        );
    }

    /// The fingerprint this one replaced, kept here only to pin that
    /// the replacement draws the same lines between payloads.
    fn canonical_json_fingerprint(output: &DockingOutput) -> u64 {
        crate::protocol::checksum64(serde_json::to_string(output).unwrap().as_bytes())
    }

    #[test]
    fn fingerprint_partitions_payloads_exactly_as_canonical_json_did() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let honest = campaign.compute(campaign.spec(0));
        assert!(honest.rows.len() >= 2);
        let mut payloads = vec![honest.clone(), honest.clone()];
        // Saboteur corruptions: several draws from several agents.
        for agent in 1..=3 {
            let mut dice =
                crate::faults::FaultDice::new(7, agent, crate::faults::FaultProfile::saboteur());
            for _ in 0..2 {
                let mut corrupt = honest.clone();
                dice.corrupt(&mut corrupt);
                payloads.push(corrupt.clone());
                payloads.push(corrupt);
            }
        }
        let mut dropped = honest.clone();
        dropped.rows.pop();
        let mut swapped = honest.clone();
        swapped.rows.swap(0, 1);
        let mut evals = honest.clone();
        evals.evaluations += 1;
        let mut nudged = honest.clone();
        nudged.rows[0].eelec += 1e-9;
        let empty = DockingOutput {
            rows: Vec::new(),
            evaluations: 0,
        };
        payloads.extend([dropped, swapped, evals, nudged, empty]);
        payloads.push(campaign.compute(campaign.spec(1)));

        let classes = |fp: fn(&DockingOutput) -> u64| -> Vec<usize> {
            let fps: Vec<u64> = payloads.iter().map(fp).collect();
            fps.iter()
                .map(|f| fps.iter().position(|g| g == f).unwrap())
                .collect()
        };
        let new = classes(fingerprint);
        assert_eq!(new, classes(canonical_json_fingerprint));
        let distinct = new.iter().enumerate().filter(|&(i, &c)| i == c).count();
        assert_eq!(distinct, 13, "1 honest + 6 corruptions + 6 edits: {new:?}");
    }

    /// The fingerprint is the bulk checksum of exactly the bytes the
    /// binary codec writes for the output — streamed, not assembled.
    #[test]
    fn fingerprint_is_the_hash_of_the_binary_encoding() {
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let out = campaign.compute(campaign.spec(0));
        let mut w = binary::Writer(Vec::new());
        w.output(&out);
        assert_eq!(fingerprint(&out), crate::protocol::checksum64(&w.0));
    }

    mod props {
        use super::*;
        use maxdo::{DockingRow, EulerZyz, Vec3};
        use proptest::prelude::*;

        /// A bit pattern chosen to hit the edges: both zeros, a quiet
        /// and a payload-carrying NaN, infinity, and ordinary values.
        fn edge(pick: u64, bits: u64) -> f64 {
            match pick % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::from_bits(f64::NAN.to_bits() | 1),
                4 => f64::INFINITY,
                _ => f64::from_bits(bits),
            }
        }

        fn build(rows: &[(u32, u64, u64)], evaluations: u64) -> DockingOutput {
            DockingOutput {
                rows: rows
                    .iter()
                    .map(|&(i, pick, bits)| DockingRow {
                        isep: i,
                        irot: i % 21 + 1,
                        position: Vec3::new(edge(pick, bits), 1.0, edge(pick >> 3, !bits)),
                        orientation: EulerZyz {
                            alpha: edge(pick >> 6, bits),
                            beta: edge(pick >> 9, bits.rotate_left(9)),
                            gamma: edge(pick >> 12, bits),
                        },
                        elj: edge(pick >> 15, bits ^ 0xff),
                        eelec: edge(pick >> 18, bits),
                    })
                    .collect(),
                evaluations,
            }
        }

        /// Every field's bit pattern, in order: the equality the
        /// fingerprint must reproduce. (`PartialEq` is the wrong oracle
        /// twice over: it says `0.0 == -0.0` and `NaN != NaN`.)
        fn bit_image(o: &DockingOutput) -> Vec<u64> {
            let mut v = vec![o.evaluations, o.rows.len() as u64];
            for r in &o.rows {
                v.extend([u64::from(r.isep), u64::from(r.irot)]);
                v.extend(
                    [
                        r.position.x,
                        r.position.y,
                        r.position.z,
                        r.orientation.alpha,
                        r.orientation.beta,
                        r.orientation.gamma,
                        r.elj,
                        r.eelec,
                    ]
                    .map(f64::to_bits),
                );
            }
            v
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `fingerprint(a) == fingerprint(b)` iff rows and
            /// evaluations are bit-equal. `b` is `a` with up to one
            /// field of one row (or the row list, or `evaluations`)
            /// edited, so near-misses dominate the sample.
            #[test]
            fn fingerprints_agree_exactly_on_bit_equal_payloads(
                rows in collection::vec((1u32..500, 0u64..u64::MAX, 0u64..u64::MAX), 1..5),
                evaluations in 0u64..u64::MAX,
                edit in 0usize..12,
                at in 0usize..4,
            ) {
                let a = build(&rows, evaluations);
                let mut b = build(&rows, evaluations);
                let row = at % b.rows.len();
                let flip_sign = |v: &mut f64| *v = f64::from_bits(v.to_bits() ^ (1 << 63));
                match edit {
                    0 => flip_sign(&mut b.rows[row].position.x),
                    1 => flip_sign(&mut b.rows[row].orientation.gamma),
                    2 => b.rows[row].eelec = f64::from_bits(b.rows[row].eelec.to_bits() ^ 1),
                    3 => b.rows[row].isep += 1,
                    4 => b.evaluations ^= 1,
                    5 => { b.rows.pop(); }
                    6 => b.rows.rotate_left(1),
                    7 => b.rows[row].orientation.alpha = f64::NAN,
                    _ => {} // untouched: the two must agree
                }
                prop_assert_eq!(
                    fingerprint(&a) == fingerprint(&b),
                    bit_image(&a) == bit_image(&b)
                );
            }
        }

        /// The documented edges, spelled out: a sign flip on zero and a
        /// NaN payload bit are different payloads; the same NaN is the
        /// same payload even though it is not `==` to itself.
        #[test]
        fn signed_zero_and_nan_payloads_are_distinguished() {
            let with_alpha = |alpha: f64| {
                let mut o = build(&[(1, 5, 42)], 9);
                o.rows[0].orientation.alpha = alpha;
                o
            };
            assert_ne!(
                fingerprint(&with_alpha(0.0)),
                fingerprint(&with_alpha(-0.0))
            );
            let loud_nan = f64::from_bits(f64::NAN.to_bits() | 1);
            assert_ne!(
                fingerprint(&with_alpha(f64::NAN)),
                fingerprint(&with_alpha(loud_nan))
            );
            assert_ne!(
                with_alpha(f64::NAN),
                with_alpha(f64::NAN),
                "PartialEq says unequal"
            );
            assert_eq!(
                fingerprint(&with_alpha(f64::NAN)),
                fingerprint(&with_alpha(f64::NAN))
            );
        }
    }
}
