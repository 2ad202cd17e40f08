//! One server's decisions: the multi-campaign registry, its picture of
//! its peer shards, and the server half of the wire protocol.
//!
//! [`MultiGrid`] is told what happened and when — a decoded frame on an
//! inbound connection or on this shard's own link to a peer, a sweep or
//! steering tick, a steering connection gone — and answers with the
//! frames to queue and, when the dialogue is over, the close reason. It
//! names no socket, thread or clock: [`crate::server`]'s loop moves the
//! bytes and keeps the time, a test steps a grid by hand, and
//! `agent::Session` is the same shape on the volunteer's side. The ops
//! endpoint ([`crate::ops`]) renders it through its read accessors.
//!
//! Every decision that changes a book a restart must rebuild is one
//! [`Command`] applied through [`MultiGrid::apply`], which answers with
//! the [`Outcome`] and, on a journaled server, appends `(now, command,
//! outcome)` to its one wal ([`crate::journal`]). Recovery is the same
//! call folded over that wal, so the live path and the replay path are
//! one path.
//!
//! The paper's grid was one project among many on a shared volunteer
//! pool; BOINC models that as *project shares*. Here the registry holds
//! one [`GridState`] per campaign — its own catalog and merged artifact
//! — and a [`gridsim::FairShare`] ledger arbitrates which campaign's
//! queue a volunteer ask is served from: deficit-weighted round robin
//! over *delivered reference-seconds*, priority as the tie-break, with
//! work-starved campaigns lending their idle capacity and being repaid
//! through the same deficit accounting.
//!
//! Isolation rules:
//! - Scheduling, validation and payloads are strictly per-campaign. A
//!   campaign's merged artifact is byte-identical to the artifact of a
//!   solo run of that campaign, because nothing any other campaign does
//!   can reach its `GridState`.
//! - Trust is per-agent but **global across campaigns**: an agent
//!   quarantined by any campaign's ledger is denied work by all of
//!   them (the gate sits above the per-slot fetch, and the denial is the
//!   outcome of the ask that met it).
//! - Fair-share deliveries, borrows, the cross-campaign denials and the
//!   contended share error are *replayed*: each is moved only by the
//!   asks and reports a restart applies again, in the same order.

use crate::campaign::NetCampaign;
use crate::faults::ServerFaults;
use crate::journal::{Journal, JournalConfig, JournalRecord, JOURNAL_FORMAT};
use crate::protocol::{encode_with, CampaignParams, Codec, Message, PROTOCOL_VERSION};
use crate::shard::{lease_grantor, ShardSpec, LEASE_CHUNK, STEER_TIMEOUT_MS};
use crate::state::{GridState, ResultDisposition, Verdict, WorkReply};
use gridsim::sched::{ReplicaId, ServerConfig};
use gridsim::{CampaignShare, FairShare, SimTime};
use maxdo::DockingOutput;
use serde::Serialize;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use telemetry::{self, Event};

/// One campaign's registration: its name (artifact suffix), recipe, and
/// fair-share weight.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignDef {
    /// Registry key; also the per-campaign artifact suffix, so it is
    /// restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    /// The campaign recipe announced to attached agents.
    pub params: CampaignParams,
    /// Fair-share weight (normalised against the other campaigns).
    pub share: f64,
    /// Tie-break when deficits are equal: higher wins.
    pub priority: u32,
}

impl CampaignDef {
    /// The implicit single campaign of an unconfigured server.
    pub fn default_solo(params: CampaignParams) -> Self {
        Self {
            name: "default".into(),
            params,
            share: 1.0,
            priority: 0,
        }
    }

    /// Parses one `--campaign` value: `name:share:priority[:k=v,...]`.
    ///
    /// The optional trailing segment overrides recipe knobs on top of
    /// `base`: `proteins`, `seed` (library seed), `hours` (`h` target,
    /// reference-CPU seconds), `spacing` (Å), `iters` (minimiser cap).
    pub fn parse(spec: &str, base: CampaignParams) -> Result<Self, String> {
        let mut parts = spec.splitn(4, ':');
        let name = parts.next().unwrap_or_default().trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(format!(
                "campaign name {name:?} must be non-empty [A-Za-z0-9._-]"
            ));
        }
        let share: f64 = parts
            .next()
            .ok_or_else(|| format!("campaign {name:?}: missing share"))?
            .parse()
            .map_err(|e| format!("campaign {name:?}: bad share: {e}"))?;
        let priority: u32 = match parts.next() {
            None | Some("") => 0,
            Some(p) => p
                .parse()
                .map_err(|e| format!("campaign {name:?}: bad priority: {e}"))?,
        };
        let mut params = base;
        if let Some(overrides) = parts.next() {
            for kv in overrides.split(',').filter(|s| !s.is_empty()) {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("campaign {name:?}: expected k=v, got {kv:?}"))?;
                let bad = |e: &dyn std::fmt::Display| format!("campaign {name:?}: bad {k}: {e}");
                match k {
                    "proteins" => params.proteins = v.parse().map_err(|e| bad(&e))?,
                    "seed" => params.lib_seed = v.parse().map_err(|e| bad(&e))?,
                    "hours" => params.h_seconds = v.parse().map_err(|e| bad(&e))?,
                    "spacing" => params.separation_spacing = v.parse().map_err(|e| bad(&e))?,
                    "iters" => params.max_iterations = v.parse().map_err(|e| bad(&e))?,
                    other => return Err(format!("campaign {name:?}: unknown knob {other:?}")),
                }
            }
        }
        let def = Self {
            name: name.into(),
            params,
            share,
            priority,
        };
        def.check()?;
        Ok(def)
    }

    /// Refuses a registration the code cannot honour: a NaN, which the
    /// wal header holds but never compares equal to (a restart would
    /// refuse its own wal), a value the catalog build asserts on, or an
    /// infinite share, which leaves the fair-share weights NaN.
    fn check(&self) -> Result<(), String> {
        let p = &self.params;
        if !(self.share.is_finite() && self.share > 0.0) {
            return Err(format!(
                "campaign {:?}: share must be a finite number > 0, not {}",
                self.name, self.share
            ));
        }
        let positive = [
            ("h_seconds", p.h_seconds),
            ("separation_spacing", p.separation_spacing),
        ];
        if let Some((field, v)) = positive.into_iter().find(|&(_, v)| v.is_nan() || v <= 0.0) {
            return Err(format!(
                "campaign {:?}: {field} must be > 0, not {v}",
                self.name
            ));
        }
        match p.proteins {
            0 => Err(format!("campaign {:?}: proteins must be >= 1", self.name)),
            _ => Ok(()),
        }
    }
}

/// [`CampaignDef::check`] for the settings every campaign shares: the
/// replica deadline the scheduler asserts is positive, and the trust
/// policy's rates and durations, which the wal header holds.
fn check_policy(scheduler: &ServerConfig, faults: &ServerFaults) -> Result<(), String> {
    let deadline = scheduler.deadline_seconds;
    if deadline.is_nan() || deadline <= 0.0 {
        return Err(format!("deadline_seconds must be > 0, not {deadline}"));
    }
    let t = faults.trust;
    let trust = [
        ("trusted_threshold", t.trusted_threshold),
        ("untrusted_threshold", t.untrusted_threshold),
        ("spot_check_rate", t.spot_check_rate),
        ("quarantine_base_s", t.quarantine_base_s),
        ("quarantine_max_s", t.quarantine_max_s),
    ];
    match trust.into_iter().find(|(_, v)| v.is_nan()) {
        Some((field, _)) => Err(format!("trust {field} must be a number, not NaN")),
        None => Ok(()),
    }
}

/// One decision that changes what a restart must rebuild: the unit of
/// the command log. [`MultiGrid::apply`] takes one, the wal records it
/// with its [`Outcome`], and recovery hands it back to the same call.
/// What a command carries is borrowed on the live path and owned when
/// it was decoded from the wal.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Command<'a> {
    /// `agent` asks, arbitrated across the campaigns its attach mask
    /// (one flag per roster campaign) marks.
    Fetch {
        agent: u64,
        attached: Cow<'a, [bool]>,
    },
    /// `replica` of `workunit` reports `output`, booked against roster
    /// campaign `campaign`.
    Report {
        campaign: u16,
        replica: u64,
        workunit: u32,
        output: Cow<'a, DockingOutput>,
    },
    /// A deadline sweep of every campaign.
    Sweep,
    /// A lease of at most `max` never-issued workunits of `campaign`,
    /// cut for hungry peer `to_shard`.
    Grant {
        campaign: u16,
        to_shard: u16,
        max: u32,
    },
    /// Peer lease `lease` ([`crate::shard::lease_id`]) of `campaign`'s
    /// workunits `wus`, adopted.
    Adopt {
        campaign: u16,
        lease: u64,
        wus: Cow<'a, [u32]>,
    },
    /// Peer `shard` has its slice of `campaign` validated.
    PeerComplete { campaign: u16, shard: u16 },
}

/// What [`MultiGrid::apply`] decided. Replay compares the recorded one
/// with the one it decides, with `==`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Outcome {
    /// The roster campaign that answered an ask (the deepest-deficit
    /// attached one when none issued), and its answer.
    Fetched { campaign: u16, reply: WorkReply },
    /// How a report was judged.
    Judged(ResultDisposition),
    /// Replicas a sweep expired (at least one).
    Expired(u64),
    /// A lease cut: its id and the workunits it moved away.
    Granted { lease: u64, wus: Vec<u32> },
    /// Workunits an adopted lease moved here.
    Adopted(u64),
    /// A peer's completion, news to its board.
    Noted,
    /// Nothing changed — the sweep expired nothing, nothing was
    /// leaseable, the lease was held already, the completion known, or
    /// the command names a campaign or shard this server does not have.
    /// Never recorded.
    Unchanged,
}

/// What this shard knows about its peers on one campaign, fed by both
/// gossip directions (inbound `ShardStatus` frames and the replies
/// arriving on its own links).
pub(crate) struct ShardBoard {
    /// Sticky per-shard completion: once a peer reports its owned
    /// slice validated, that never un-happens (leases only move
    /// never-issued work, and a complete shard has none). Moved only by
    /// [`Command::PeerComplete`], so a restart remembers it.
    pub(crate) complete: Vec<bool>,
    /// Each peer's last advertised fresh backlog — the redirect target
    /// picker's input. Zeroed when a steering connection to or from the
    /// peer closes, or a dial to it fails: an advert lives no longer
    /// than the link it rode.
    pub(crate) backlog: Vec<u64>,
    /// Shards that need no more word of this shard's completion of the
    /// campaign: this one, and each peer that acked a status that said
    /// complete (and so holds it in its wal) or could not be dialed once
    /// both were complete.
    pub(crate) settled: Vec<bool>,
}

impl ShardBoard {
    fn new(spec: ShardSpec) -> Self {
        let shards = usize::from(spec.shards);
        let mut settled = vec![false; shards];
        settled[usize::from(spec.shard_id)] = true;
        Self {
            complete: vec![false; shards],
            backlog: vec![0; shards],
            settled,
        }
    }

    /// True when every shard but `me` has reported completion.
    pub(crate) fn peers_complete(&self, me: u16) -> bool {
        self.complete
            .iter()
            .enumerate()
            .all(|(i, &c)| c || i == usize::from(me))
    }

    /// The peer with the deepest advertised backlog, if any has one.
    fn busiest_peer(&self, me: u16) -> Option<(u16, u64)> {
        self.backlog
            .iter()
            .enumerate()
            .filter(|&(i, &b)| i != usize::from(me) && b > 0 && !self.complete[i])
            .max_by_key(|&(_, &b)| b)
            .map(|(i, &b)| (i as u16, b))
    }
}

/// One registered campaign: definition, materialised catalog, the
/// isolated scheduling/validation state, and what the peers have said
/// about it.
pub struct Slot {
    /// The registration this slot was built from.
    pub def: CampaignDef,
    /// The materialised catalog (specs + reference outputs).
    pub campaign: Arc<NetCampaign>,
    /// Scheduling, validation, payloads — all per-campaign.
    pub state: GridState,
    /// Peer completion/backlog picture.
    pub(crate) board: ShardBoard,
    /// `backoffs_sent` as of the last steering tick, and whether it had
    /// grown since the one before — "someone asked this campaign and
    /// got nothing", which gates hunger so an agent-less drained shard
    /// never begs work off a loaded one.
    demand: (u64, bool),
}

/// What the protocol remembers about one inbound connection; whoever
/// carries the connection's bytes keeps it and hands it back with each
/// frame.
#[derive(Default)]
pub(crate) struct Caller {
    /// The agent id learned from `Hello` (0 until then).
    pub(crate) agent: u64,
    /// The campaign attach mask: resolved from the `Hello` request, or
    /// the default-campaign mask from the first ask of a peer that
    /// never said `Hello`. Empty until one of the two.
    attached: Vec<bool>,
    /// The peer shard this connection is a steering link of, from its
    /// first `ShardStatus` on.
    pub(crate) shard: Option<u16>,
}

impl Caller {
    /// The attach mask asks and reports are judged under; sized here
    /// for a peer that skipped `Hello`.
    fn mask(&mut self, grid: &MultiGrid) -> &[bool] {
        if self.attached.len() != grid.len() {
            self.attached = grid.attach_mask(&[]);
        }
        &self.attached
    }
}

fn queue(out: &mut Vec<u8>, msg: &Message) {
    out.extend_from_slice(&encode_with(msg, Codec));
}

/// N campaigns, the fair-share arbiter over them, this server's picture
/// of its peer shards and its command log. Whoever drives the server
/// owns the one `MultiGrid` by value: every frame, tick and ops scrape
/// is a call on it from one thread, in the order they were taken, each
/// with the time it happened.
pub struct MultiGrid {
    slots: Vec<Slot>,
    fair: FairShare,
    /// Every shard's listen address, by shard id: what a `ShardMap` and
    /// a `Redirect` announce. Empty until [`Self::set_addrs`].
    addrs: Vec<String>,
    /// Per peer, the campaign, send time and completeness of every
    /// `ShardStatus` on this shard's link to it not yet acked, oldest
    /// first (acks return in send order).
    pub(crate) unacked: Vec<VecDeque<(u16, SimTime, bool)>>,
    /// Fetches denied because the agent is quarantined by *another*
    /// campaign's ledger (the cross-campaign trust gate).
    pub cross_quarantine_denials: u64,
    /// Fair-share error sampled at the last report where every campaign
    /// still had fresh work — the convergence figure the bench reports.
    contended_share_error: Option<f64>,
    /// Latest time any command was applied at: the clock offset a
    /// restart resumes from.
    last_now: f64,
    /// The command log, when durability is on.
    journal: Option<Journal>,
    /// Whether a volunteer has been told that everything it works for
    /// is over while this server was [`Self::done`]: the final word a
    /// finished server stays up to give.
    pub(crate) told_done: bool,
}

impl MultiGrid {
    /// Builds every slot and, when a journal is configured, recovers the
    /// registry from it: every command the wal holds is applied again
    /// through [`Self::apply`] and must decide what it decided live.
    /// Returns the registry plus the clock offset recovery reached, so
    /// the shared SimTime axis stays monotone across the restart.
    ///
    /// A journal is one `wal.bin` in `cfg.dir`, however many campaigns
    /// there are; its header pins the roster, names, shares and
    /// priorities included, so a restart under another roster is
    /// refused rather than replayed. A roster or policy the code cannot
    /// honour is refused (`InvalidInput`) before any catalog is built
    /// or the journal touched.
    pub fn open(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
        spec: ShardSpec,
        journal: Option<&JournalConfig>,
    ) -> io::Result<(Self, f64)> {
        assert!(!defs.is_empty(), "registry needs at least one campaign");
        let refuse = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
        for (i, def) in defs.iter().enumerate() {
            if defs[..i].iter().any(|d| d.name == def.name) {
                return Err(refuse(format!("duplicate campaign name {:?}", def.name)));
            }
            def.check().map_err(refuse)?;
        }
        check_policy(&scheduler, &faults).map_err(refuse)?;
        let header = JournalRecord::Header {
            roster: defs.clone(),
            config: scheduler,
            faults,
            shard: spec,
            format: JOURNAL_FORMAT,
        };
        let fair = FairShare::new(
            defs.iter()
                .map(|d| CampaignShare {
                    share: d.share,
                    priority: d.priority,
                })
                .collect(),
        );
        let slots = defs
            .into_iter()
            .map(|def| {
                let campaign = Arc::new(NetCampaign::build(def.params));
                Slot {
                    def,
                    state: GridState::new(&campaign, scheduler, faults, spec),
                    campaign,
                    board: ShardBoard::new(spec),
                    demand: (0, false),
                }
            })
            .collect();
        let mut grid = Self {
            slots,
            fair,
            addrs: Vec::new(),
            unacked: vec![VecDeque::new(); usize::from(spec.shards)],
            cross_quarantine_denials: 0,
            contended_share_error: None,
            last_now: 0.0,
            journal: None,
            told_done: false,
        };
        if let Some(cfg) = journal {
            grid.journal = Some(Journal::open(cfg, &header, |now, command| {
                grid.apply(now, command)
            })?);
        }
        let resume = grid.last_now;
        Ok((grid, resume))
    }

    /// Applies one command — the one entry point of every decision a
    /// restart must rebuild, live or replayed — and, when the server is
    /// journaled and something changed, appends `(now, command,
    /// outcome)` to the wal before the outcome is acted on. Durability
    /// failures are fatal by design: a server that can no longer journal
    /// must not keep changing books it promised to persist.
    pub fn apply(&mut self, now: SimTime, command: &Command) -> Outcome {
        self.last_now = self.last_now.max(now.seconds());
        let slots = self.slots.len();
        let outcome = match *command {
            Command::Fetch {
                agent,
                ref attached,
            } => {
                let (campaign, reply) = self.arbitrate(now, agent, attached);
                Outcome::Fetched { campaign, reply }
            }
            Command::Report { campaign, .. }
            | Command::Grant { campaign, .. }
            | Command::Adopt { campaign, .. }
            | Command::PeerComplete { campaign, .. }
                if usize::from(campaign) >= slots =>
            {
                Outcome::Unchanged
            }
            Command::Report {
                campaign,
                replica,
                workunit,
                ref output,
            } => Outcome::Judged(self.book(now, campaign, ReplicaId(replica), workunit, output)),
            Command::Sweep => match self
                .slots
                .iter_mut()
                .map(|s| s.state.sweep(now))
                .sum::<usize>()
            {
                0 => Outcome::Unchanged,
                expired => Outcome::Expired(expired as u64),
            },
            Command::Grant {
                campaign,
                to_shard,
                max,
            } => {
                let state = &mut self.slots[usize::from(campaign)].state;
                match state.grant_lease(to_shard, max as usize) {
                    Some((lease, wus)) => Outcome::Granted { lease, wus },
                    None => Outcome::Unchanged,
                }
            }
            Command::Adopt {
                campaign,
                lease,
                ref wus,
            } => {
                let state = &mut self.slots[usize::from(campaign)].state;
                state
                    .adopt_lease(lease, wus)
                    .map_or(Outcome::Unchanged, |moved| Outcome::Adopted(moved as u64))
            }
            Command::PeerComplete { campaign, shard } => {
                let board = &mut self.slots[usize::from(campaign)].board;
                match board.complete.get_mut(usize::from(shard)) {
                    Some(known @ false) => {
                        *known = true;
                        Outcome::Noted
                    }
                    _ => Outcome::Unchanged,
                }
            }
        };
        if let (Some(journal), false) = (&mut self.journal, outcome == Outcome::Unchanged) {
            let appended = journal.append(now.seconds(), command, &outcome);
            appended.expect("journal append failed");
        }
        outcome
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Gives up every slot by value, in roster order — the end of the
    /// grid: what a finished run reports is moved out of its slots.
    pub fn into_slots(self) -> Vec<Slot> {
        self.slots
    }

    pub fn slot(&self, campaign: u16) -> Option<&Slot> {
        self.slots.get(usize::from(campaign))
    }

    pub fn fair(&self) -> &FairShare {
        &self.fair
    }

    /// The roster announced in a `HelloAck`: every campaign's name
    /// and recipe, in campaign-index order (assignments index it).
    pub fn roster(&self) -> Vec<(String, CampaignParams)> {
        self.slots
            .iter()
            .map(|s| (s.def.name.clone(), s.def.params))
            .collect()
    }

    /// Resolves an agent's requested attachments to a slot mask. An
    /// empty request attaches to the default campaign — slot 0; `"*"`
    /// attaches to all; unknown names are
    /// ignored, and a request that matches nothing falls back to the
    /// default so a misconfigured agent still contributes.
    pub fn attach_mask(&self, requested: &[String]) -> Vec<bool> {
        let mut mask = vec![false; self.slots.len()];
        if requested.iter().any(|r| r == "*") {
            mask.fill(true);
            return mask;
        }
        for name in requested {
            if let Some(i) = self.slots.iter().position(|s| &s.def.name == name) {
                mask[i] = true;
            }
        }
        if !mask.iter().any(|&m| m) {
            mask[0] = true;
        }
        mask
    }

    /// True once every campaign's every workunit validated.
    pub fn all_complete(&self) -> bool {
        self.slots.iter().all(|s| s.state.is_campaign_complete())
    }

    /// True once everything `attached` covers validated, here and on
    /// every peer shard (not just this shard's slice of it) — what
    /// `campaign_complete` means to that particular agent.
    pub fn attached_complete(&self, attached: &[bool]) -> bool {
        let me = self.spec().shard_id;
        let done = |s: &Slot| s.state.is_campaign_complete() && s.board.peers_complete(me);
        self.slots.iter().zip(attached).all(|(s, &a)| !a || done(s))
    }

    /// One volunteer ask ([`Command::Fetch`]), arbitrated across the
    /// campaigns it is attached to. Returns the campaign index served
    /// (meaningful for `Assigned`; the deepest-deficit attached campaign
    /// otherwise).
    pub fn fetch(&mut self, now: SimTime, agent: u64, attached: &[bool]) -> (u16, WorkReply) {
        let attached = Cow::Borrowed(attached);
        let Outcome::Fetched { campaign, reply } =
            self.apply(now, &Command::Fetch { agent, attached })
        else {
            unreachable!("an ask is answered")
        };
        (campaign, reply)
    }

    /// Order of business of an ask: the global trust gate (quarantined
    /// anywhere = denied everywhere), then attached incomplete campaigns
    /// in fair-share order until one issues. A campaign with nothing to
    /// issue right now simply yields to the next — that is how a
    /// work-starved campaign lends capacity, and the deficit ledger
    /// repays it once its queue refills.
    fn arbitrate(&mut self, now: SimTime, agent: u64, attached: &[bool]) -> (u16, WorkReply) {
        if let Some(ms) = self.cross_quarantine_ms(now, agent) {
            self.cross_quarantine_denials += 1;
            return (
                self.first_attached(attached),
                WorkReply::Backoff {
                    retry_after_ms: ms,
                    campaign_complete: self.attached_complete(attached),
                },
            );
        }
        let mut eligible: Vec<bool> = self
            .slots
            .iter()
            .zip(attached)
            .map(|(s, &a)| a && !s.state.is_campaign_complete())
            .collect();
        let mut first_pick: Option<u16> = None;
        let mut retry_after_ms: Option<u64> = None;
        while let Some(i) = self.fair.pick(&eligible) {
            first_pick.get_or_insert(i as u16);
            match self.slots[i].state.fetch(now, agent) {
                WorkReply::Assigned(a) => return (i as u16, WorkReply::Assigned(a)),
                WorkReply::Backoff {
                    retry_after_ms: ms, ..
                } => {
                    retry_after_ms = Some(retry_after_ms.map_or(ms, |r: u64| r.min(ms)));
                    eligible[i] = false;
                }
            }
        }
        (
            first_pick.unwrap_or_else(|| self.first_attached(attached)),
            WorkReply::Backoff {
                retry_after_ms: retry_after_ms.unwrap_or(500),
                campaign_complete: self.attached_complete(attached),
            },
        )
    }

    /// Books one reported result ([`Command::Report`]) against roster
    /// campaign `campaign`, which must exist.
    pub fn report(
        &mut self,
        now: SimTime,
        campaign: u16,
        replica: ReplicaId,
        workunit: u32,
        output: DockingOutput,
    ) -> (u16, ResultDisposition) {
        let report = Command::Report {
            campaign,
            replica: replica.0,
            workunit,
            output: Cow::Owned(output),
        };
        let Outcome::Judged(d) = self.apply(now, &report) else {
            panic!("campaign {campaign} is not on the roster")
        };
        (campaign, d)
    }

    /// Judges one report in its campaign and moves the fair-share
    /// ledger when the verdict moved the delivered total: a validated
    /// workunit is credited, and a failed audit, which may retract
    /// several, re-sums the catalog (replay makes this call once per
    /// recorded report, so the common case must not walk the catalog).
    fn book(
        &mut self,
        now: SimTime,
        campaign: u16,
        replica: ReplicaId,
        workunit: u32,
        output: &DockingOutput,
    ) -> ResultDisposition {
        let i = usize::from(campaign);
        let slot = &mut self.slots[i];
        let d = slot
            .state
            .report(now, &slot.campaign, replica, workunit, output);
        let core = self.slots[i].state.core();
        match d.verdict {
            Verdict::Accepted => self.fair.credit(i, core.entry(workunit).ref_seconds.into()),
            Verdict::SpotMismatch => self.fair.set_delivered(i, core.completed_ref_seconds()),
            _ => {}
        }
        // The convergence figure is only meaningful while every
        // campaign still has fresh work: once one drains, the others
        // legitimately absorb its capacity and the instantaneous ratio
        // drifts away from the configured split.
        if self
            .slots
            .iter()
            .all(|s| s.state.core().fresh_backlog() > 0)
        {
            self.contended_share_error = Some(self.fair.share_error());
        }
        d
    }

    /// The headline ±5% figure: the fair-share error at the last moment
    /// every campaign still had fresh work (falling back to the current
    /// error when contention never happened — e.g. a single campaign).
    pub fn share_error(&self) -> f64 {
        self.contended_share_error
            .unwrap_or_else(|| self.fair.share_error())
    }

    /// Expires deadlines in every campaign ([`Command::Sweep`]). Returns
    /// total expiries.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        match self.apply(now, &Command::Sweep) {
            Outcome::Expired(n) => n as usize,
            _ => 0,
        }
    }

    /// Makes every record appended so far durable; the event loop calls
    /// it before any frame leaves (journal docs, "Consistency model").
    pub fn commit(&mut self) {
        if let Some(journal) = &mut self.journal {
            journal.commit().expect("journal commit failed");
        }
    }

    /// Records appended since the last [`Self::commit`] (0 when the
    /// server runs unjournaled).
    pub(crate) fn uncommitted(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::uncommitted)
    }

    /// The latest time any command was applied at.
    pub fn last_now(&self) -> f64 {
        self.last_now
    }

    /// The wal's record and byte counts — what a restart would replay —
    /// or `None` when the server runs unjournaled.
    pub fn wal_size(&self) -> Option<(u64, u64)> {
        let journal = self.journal.as_ref()?;
        Some((journal.wal_records(), journal.wal_bytes()))
    }

    /// Remaining quarantine (ms) imposed on `agent` by any campaign
    /// *other than the ones its own fetch would check* — i.e. by any
    /// slot at all, attached or not; per-agent trust is global across
    /// campaigns.
    fn cross_quarantine_ms(&self, now: SimTime, agent: u64) -> Option<u64> {
        if self.slots.len() < 2 {
            return None; // solo: the slot's own fetch gate handles it
        }
        let trust = self.slots[0].state.trust_config();
        if !trust.enabled {
            return None;
        }
        self.slots
            .iter()
            .filter_map(|s| s.state.agent_trust(agent))
            .map(|t| t.quarantine_remaining_s(now.seconds()))
            .fold(None, |acc, s| {
                if s > 0.0 {
                    let ms = (s * 1_000.0).ceil() as u64;
                    Some(acc.map_or(ms, |a: u64| a.max(ms)))
                } else {
                    acc
                }
            })
    }

    fn first_attached(&self, attached: &[bool]) -> u16 {
        attached.iter().position(|&a| a).unwrap_or(0) as u16
    }

    /// This server's place in the shard topology (every campaign's
    /// state was opened under the same one).
    pub(crate) fn spec(&self) -> ShardSpec {
        self.slots[0].state.shard()
    }

    /// Every shard's listen address, by shard id (this server's own
    /// among them) — the caller has checked there is one per shard.
    pub(crate) fn set_addrs(&mut self, addrs: Vec<String>) {
        self.addrs = addrs;
    }

    pub(crate) fn addr(&self, shard: u16) -> &str {
        &self.addrs[usize::from(shard)]
    }

    /// The *whole roster* done here and on every peer. Both halves are
    /// sticky — a complete slice has nothing left to issue, audit or
    /// lease, and a board never forgets a peer's completion, not even
    /// across a restart — so this is read, not latched.
    pub(crate) fn done(&self) -> bool {
        let me = self.spec().shard_id;
        self.all_complete() && self.slots.iter().all(|s| s.board.peers_complete(me))
    }

    /// The peers' half of the server's shutdown condition: [`Self::done`],
    /// and every peer has heard so or is past hearing it — settled on
    /// every board. No timer decides a peer (the volunteers' half, and
    /// its grace, are the event loop's: [`crate::server`]).
    pub(crate) fn may_leave(&self) -> bool {
        let settled = |s: &Slot| s.board.settled.iter().all(|&ok| ok);
        self.done() && self.slots.iter().all(settled)
    }

    /// One decoded frame from an inbound connection — a volunteer, or a
    /// peer's steering link — at `now`: makes the scheduler call it
    /// maps to and queues the reply on `out`. `Err` closes the
    /// connection (once queued replies flush) with that reason.
    pub(crate) fn inbound(
        &mut self,
        now: SimTime,
        caller: &mut Caller,
        msg: Message,
        out: &mut Vec<u8>,
    ) -> Result<(), &'static str> {
        let reply = match msg {
            Message::Hello {
                agent,
                threads: _,
                campaigns,
            } => {
                caller.agent = agent;
                caller.attached = self.attach_mask(&campaigns);
                telemetry::emit(Some(now.seconds()), || Event::ConnectionOpened { agent });
                Message::HelloAck {
                    protocol: PROTOCOL_VERSION,
                    campaign: self.slots[0].def.params,
                    deadline_seconds: self.slots[0].state.core().deadline_seconds(),
                    // The roster travels only when there is one worth
                    // announcing; a solo registry sends the recipe in
                    // `campaign` and an empty roster.
                    campaigns: match self.len() {
                        1 => Vec::new(),
                        _ => self.roster(),
                    },
                }
            }
            Message::RequestWork => {
                let agent = caller.agent;
                let mask = caller.mask(self);
                match self.fetch(now, agent, mask) {
                    (cidx, WorkReply::Assigned(a)) => {
                        let slot = &self.slots[usize::from(cidx)];
                        let spec = slot.campaign.spec(a.workunit);
                        Message::Assignment {
                            replica: a.replica.0,
                            workunit: a.workunit,
                            receptor: spec.receptor.0,
                            ligand: spec.ligand.0,
                            isep_start: spec.isep_start,
                            positions: spec.positions,
                            deadline_seconds: slot.state.core().deadline_seconds(),
                            campaign: cidx,
                        }
                    }
                    (
                        _,
                        WorkReply::Backoff {
                            retry_after_ms,
                            campaign_complete,
                        },
                    ) => self.try_redirect(mask).unwrap_or_else(|| Message::NoWork {
                        campaign_complete: self.final_word(campaign_complete),
                        retry_after_ms,
                    }),
                }
            }
            // A stale or forged campaign index is refused, not clamped
            // onto the roster: judged against another campaign's replica
            // of the same id, it would book the verdict on whichever
            // agent holds that one.
            Message::ResultReport { campaign, .. } if usize::from(campaign) >= self.len() => {
                return Err("protocol")
            }
            Message::ResultReport {
                replica,
                workunit,
                campaign,
                output,
            } => {
                let (_, disposition) =
                    self.report(now, campaign, ReplicaId(replica), workunit, output);
                Message::ResultAck {
                    accepted: matches!(
                        disposition.verdict,
                        Verdict::Accepted
                            | Verdict::QuorumPending
                            | Verdict::Late
                            | Verdict::SpotConfirmed
                            | Verdict::SpotVoid
                    ),
                    completed_workunit: disposition.completed_workunit,
                    campaign_complete: self.final_word(self.attached_complete(caller.mask(self))),
                }
            }
            Message::ShardMapRequest => Message::ShardMap {
                shards: self.spec().shards,
                self_shard: self.spec().shard_id,
                addrs: self.addrs.clone(),
            },
            // One inbound gossip frame: update the board, grant what the
            // sender is owed or hungry for, and ack. A connection speaks
            // for one shard: a status in another's name than its first
            // is refused like one from no shard at all.
            Message::ShardStatus {
                shard,
                fresh_backlog,
                outstanding: _,
                complete,
                hungry,
                leases_held,
                campaign,
            } => {
                let (me, c) = (self.spec().shard_id, usize::from(campaign));
                let renamed = caller.shard.is_some_and(|was| was != shard);
                if shard >= self.spec().shards || shard == me || c >= self.len() || renamed {
                    return Err("protocol");
                }
                caller.shard = Some(shard);
                self.slots[c].board.backlog[usize::from(shard)] = fresh_backlog;
                self.hear_complete(now, campaign, shard, complete);
                let complete = self.grant_leases(now, campaign, shard, hungry, leases_held, out);
                Message::StatusAck {
                    shard: me,
                    complete,
                }
            }
            Message::Bye => return Err("bye"),
            // Server-to-agent and reply frames arriving here mean a
            // confused peer (LeaseGrant/StatusAck only ever travel as
            // replies on a steering link this shard dialed).
            _ => return Err("protocol"),
        };
        queue(out, &reply);
        Ok(())
    }

    /// A volunteer is told whether everything it works for is over.
    fn final_word(&mut self, complete: bool) -> bool {
        self.told_done |= complete && self.done();
        complete
    }

    /// A peer said whether its slice of `campaign` is complete; the
    /// first time a board hears that it is, the completion is recorded
    /// ([`Command::PeerComplete`]).
    fn hear_complete(&mut self, now: SimTime, campaign: u16, shard: u16, complete: bool) {
        if complete {
            self.apply(now, &Command::PeerComplete { campaign, shard });
        }
    }

    /// The grants a `ShardStatus` from `shard` draws on `campaign`:
    /// re-sends any the sender has not adopted, else cuts a fresh lease
    /// ([`Command::Grant`]) if it is hungry and this shard has backlog
    /// to spare. Returns whether this shard's slice is complete, as
    /// every grant says. The grant is journaled *before* its frame is
    /// queued, and the frame leaves only after [`Self::commit`], so a
    /// power cut can lose a grant only before anyone holds it.
    fn grant_leases(
        &mut self,
        now: SimTime,
        campaign: u16,
        shard: u16,
        hungry: bool,
        leases_held: Vec<u64>,
        out: &mut Vec<u8>,
    ) -> bool {
        let from_shard = self.spec().shard_id;
        let s = &self.slots[usize::from(campaign)].state;
        let complete = s.is_campaign_complete();
        let grant = |(lease, wus)| Message::LeaseGrant {
            lease,
            from_shard,
            wus,
            complete,
            campaign,
        };
        // Re-send grants missing from the sender's holdings: our
        // journal says granted, theirs never said adopted — the grant
        // frame died with a connection or a crash. Idempotent on their
        // side, so over-sending is harmless.
        let mut resent = false;
        for missing in s.leases_granted_to(shard) {
            if !leases_held.contains(&missing.0) {
                queue(out, &grant(missing));
                resent = true;
            }
        }
        if hungry && !resent {
            let cut = Command::Grant {
                campaign,
                to_shard: shard,
                max: LEASE_CHUNK as u32,
            };
            if let Outcome::Granted { lease, wus } = self.apply(now, &cut) {
                queue(out, &grant((lease, wus)));
            }
        }
        complete
    }

    /// Applies one frame `peer` sent back on this shard's own steering
    /// link: a lease grant is adopted ([`Command::Adopt`]), an ack (the
    /// oldest unanswered status's — acks return in send order) settles
    /// the peer if that status said complete. Both update the board;
    /// neither is replied to. A frame that speaks for anyone but `peer`
    /// — a grant cut by or attributed to another shard, an ack in a
    /// third shard's name — or names a campaign this server does not
    /// host changes nothing and closes the link.
    pub(crate) fn link_frame(
        &mut self,
        now: SimTime,
        peer: u16,
        msg: Message,
    ) -> Result<(), &'static str> {
        match msg {
            Message::LeaseGrant {
                lease,
                from_shard,
                wus,
                complete,
                campaign,
            } => {
                let c = usize::from(campaign);
                if c >= self.len() || from_shard != peer || lease_grantor(lease) != peer {
                    return Err("protocol");
                }
                let wus = Cow::Owned(wus);
                self.apply(
                    now,
                    &Command::Adopt {
                        campaign,
                        lease,
                        wus,
                    },
                );
                self.hear_complete(now, campaign, from_shard, complete);
            }
            Message::StatusAck { shard, complete } => {
                if shard != peer {
                    return Err("protocol");
                }
                let (campaign, _, said_complete) = self.unacked[usize::from(peer)]
                    .pop_front()
                    .ok_or("protocol")?;
                let board = &mut self.slots[usize::from(campaign)].board;
                board.settled[usize::from(peer)] |= said_complete;
                self.hear_complete(now, campaign, shard, complete);
            }
            // The peer is over its connection limit; the next steering
            // tick dials again.
            Message::Busy { .. } => return Err("busy"),
            _ => return Err("protocol"),
        }
        Ok(())
    }

    /// When this shard has nothing to issue but a peer advertises
    /// fresh backlog, answer an agent's ask with a `Redirect` there
    /// instead of a backoff. The agent follows at most one redirect per
    /// ask, and the target was advertising work moments ago over a
    /// connection that is still open, so a bounce chain cannot form.
    ///
    /// A shard whose own slice is already complete redirects too: it
    /// is the one state in which it can never again look hungry (a
    /// complete slice is skipped by `fetch`, so it records no demand
    /// and begs no lease), and volunteers parked on it would otherwise
    /// poll `NoWork` for ever while a peer's backlog sat untouched. A
    /// slice that validates within one steering interval gets there
    /// before the first lease could have been cut.
    pub(crate) fn try_redirect(&mut self, attached: &[bool]) -> Option<Message> {
        // A backoff with backlog still on hand was a trust denial
        // (quarantine), not a drained queue: the agent waits here.
        let on_hand = |(s, &a): (&Slot, &bool)| a && s.state.core().fresh_backlog() > 0;
        if self.slots.iter().zip(attached).any(on_hand) {
            return None;
        }
        // The peer worth bouncing to: the deepest advertised backlog
        // across every campaign this agent is attached to.
        let me = self.spec().shard_id;
        let (cidx, peer, _) = self
            .slots
            .iter()
            .zip(attached)
            .enumerate()
            .filter(|&(_, (_, &a))| a)
            .filter_map(|(i, (s, _))| s.board.busiest_peer(me).map(|(peer, b)| (i, peer, b)))
            .max_by_key(|&(_, _, backlog)| backlog)?;
        let addr = self.addrs.get(usize::from(peer))?.clone();
        self.slots[cidx].state.note_redirect();
        Some(Message::Redirect { shard: peer, addr })
    }

    /// One steering tick's bookkeeping, before any status is built:
    /// which campaigns turned an ask away since the last tick.
    pub(crate) fn note_demand(&mut self) {
        for slot in &mut self.slots {
            let backoffs = slot.state.net_stats.backoffs_sent;
            slot.demand = (backoffs, backoffs > slot.demand.0);
        }
    }

    /// Whether the link to `peer` stopped answering: its oldest status
    /// has waited more than [`STEER_TIMEOUT_MS`] as of `now`.
    pub(crate) fn link_stalled(&self, now: SimTime, peer: u16) -> bool {
        let oldest = self.unacked[usize::from(peer)].front();
        let bound_s = STEER_TIMEOUT_MS as f64 / 1e3;
        oldest.is_some_and(|(_, sent, _)| now.seconds() - sent.seconds() > bound_s)
    }

    /// Queues one `ShardStatus` per campaign for the link to `peer` and
    /// remembers, in order, which campaign each ack will be answering
    /// and whether the status said complete.
    pub(crate) fn send_statuses(&mut self, now: SimTime, peer: u16, out: &mut Vec<u8>) {
        for (c, slot) in self.slots.iter().enumerate() {
            let s = &slot.state;
            let complete = s.is_campaign_complete();
            let fresh = s.core().fresh_backlog() as u64;
            let status = Message::ShardStatus {
                shard: self.spec().shard_id,
                fresh_backlog: fresh,
                outstanding: s.outstanding_len() as u64,
                complete,
                hungry: !complete && fresh == 0 && slot.demand.1,
                leases_held: s.leases_held_from(peer),
                campaign: c as u16,
            };
            queue(out, &status);
            self.unacked[usize::from(peer)].push_back((c as u16, now, complete));
        }
    }

    /// This shard's link to `peer` is gone, and with it every status
    /// still unanswered and the peer's advert.
    pub(crate) fn link_lost(&mut self, peer: u16) {
        self.unacked[usize::from(peer)].clear();
        self.forget_backlog(peer);
    }

    /// A dial to `peer` failed. Its advert goes, as with a lost link;
    /// and on every campaign complete here and, by the journaled board,
    /// there too, the peer is settled: it is gone, and finished.
    pub(crate) fn dial_failed(&mut self, peer: u16) {
        self.forget_backlog(peer);
        let p = usize::from(peer);
        for slot in &mut self.slots {
            let board = &mut slot.board;
            board.settled[p] |= board.complete[p] && slot.state.is_campaign_complete();
        }
    }

    /// An inbound connection is gone; if it was a peer's steering link,
    /// so is that peer's advert.
    pub(crate) fn caller_lost(&mut self, caller: &Caller) {
        if let Some(peer) = caller.shard {
            self.forget_backlog(peer);
        }
    }

    /// A steering connection, dialed or accepted, takes the peer's
    /// advertised backlog with it — a peer that died with backlog on
    /// the board must not keep drawing redirects to a dead address.
    fn forget_backlog(&mut self, peer: u16) {
        for slot in &mut self.slots {
            slot.board.backlog[usize::from(peer)] = 0;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn defs_70_30() -> Vec<CampaignDef> {
        let base = CampaignParams::tiny();
        vec![
            CampaignDef {
                name: "alpha".into(),
                params: base,
                share: 0.7,
                priority: 0,
            },
            CampaignDef {
                name: "beta".into(),
                params: CampaignParams {
                    lib_seed: base.lib_seed + 1,
                    ..base
                },
                share: 0.3,
                priority: 0,
            },
        ]
    }

    fn open_ram(defs: Vec<CampaignDef>) -> MultiGrid {
        let (grid, offset) = MultiGrid::open(
            defs,
            ServerConfig {
                deadline_seconds: 60.0,
                ..ServerConfig::default()
            },
            ServerFaults::default(),
            ShardSpec::solo(),
            None,
        )
        .expect("open in RAM");
        assert_eq!(offset, 0.0);
        grid
    }

    /// Drives `grid` to completion with `agents` perfect volunteers and
    /// returns every campaign's merged artifact.
    fn run_to_completion(grid: &mut MultiGrid, agents: u64) -> Vec<Vec<DockingOutput>> {
        let mut t = 0.0f64;
        let mut guard = 0u64;
        while !grid.all_complete() {
            guard += 1;
            assert!(guard < 1_000_000, "registry run did not converge");
            for agent in 1..=agents {
                t += 0.01;
                let attached = vec![true; grid.len()];
                let (cidx, reply) = grid.fetch(SimTime::new(t), agent, &attached);
                let WorkReply::Assigned(a) = reply else {
                    continue;
                };
                let slot = grid.slot(cidx).expect("served campaign exists");
                let output = slot.campaign.compute(slot.campaign.spec(a.workunit));
                t += 0.01;
                grid.report(SimTime::new(t), cidx, a.replica, a.workunit, output);
            }
        }
        grid.slots()
            .iter()
            .map(|s| s.state.outputs().iter().cloned().collect())
            .collect::<Option<_>>()
            .expect("complete")
    }

    #[test]
    fn parse_accepts_name_share_priority_and_overrides() {
        let base = CampaignParams::tiny();
        let def = CampaignDef::parse("malaria:0.7:2:proteins=3,seed=11", base).expect("parses");
        assert_eq!(def.name, "malaria");
        assert!((def.share - 0.7).abs() < 1e-12);
        assert_eq!(def.priority, 2);
        assert_eq!(def.params.proteins, 3);
        assert_eq!(def.params.lib_seed, 11);
        assert_eq!(def.params.h_seconds, base.h_seconds);

        let short = CampaignDef::parse("d2ome:1", base).expect("priority optional");
        assert_eq!(short.priority, 0);

        for bad in [
            "",
            ":1",
            "a/b:1",
            "x:0",
            "x:-1",
            "x:nan",
            "x:1:z",
            "x:1:0:bogus=1",
            "x:1:0:proteins",
            "a:1:0:hours=nan,spacing=-3",
            "x:1:0:spacing=0",
            "x:1:0:proteins=0",
        ] {
            assert!(CampaignDef::parse(bad, base).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn attach_masks_default_star_named_and_unknown() {
        let grid = open_ram(defs_70_30());
        assert_eq!(grid.attach_mask(&[]), vec![true, false]);
        assert_eq!(grid.attach_mask(&["*".into()]), vec![true, true]);
        assert_eq!(grid.attach_mask(&["beta".into()]), vec![false, true]);
        assert_eq!(
            grid.attach_mask(&["beta".into(), "nope".into()]),
            vec![false, true]
        );
        assert_eq!(grid.attach_mask(&["nope".into()]), vec![true, false]);
    }

    #[test]
    fn duplicate_campaign_names_are_refused() {
        let mut defs = defs_70_30();
        defs[1].name = "alpha".into();
        let err = MultiGrid::open(
            defs,
            ServerConfig::default(),
            ServerFaults::default(),
            ShardSpec::solo(),
            None,
        )
        .err()
        .expect("duplicate refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A configuration the code cannot honour is refused before a
    /// catalog is built or the journal touched. A NaN trust rate used to
    /// be journaled, and the restart then refused its own wal (NaN !=
    /// NaN in the header check); the other values panicked deep in the
    /// catalog build or the scheduler.
    #[test]
    fn a_config_the_code_cannot_honour_is_refused_up_front() {
        let dir = scratch_dir("nan-rate");
        let nan_rate = ServerFaults {
            trust: TrustConfig {
                spot_check_rate: f64::NAN,
                ..TrustConfig::on()
            },
            ..ServerFaults::default()
        };
        let solo = |params| vec![CampaignDef::default_solo(params)];
        let tiny = CampaignParams::tiny();
        let journal = JournalConfig::new(&dir);
        let scheduler = ServerConfig::default();
        let open = MultiGrid::open(
            solo(tiny),
            scheduler,
            nan_rate,
            ShardSpec::solo(),
            Some(&journal),
        );
        let err = open.err().expect("a NaN spot-check rate is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("spot_check_rate"), "{err}");
        assert!(!dir.join("wal.bin").exists(), "nothing was journaled");

        for (defs, deadline_seconds) in [
            (solo(tiny), f64::NAN),
            (solo(tiny), 0.0),
            (
                solo(CampaignParams {
                    h_seconds: f64::NAN,
                    ..tiny
                }),
                30.0,
            ),
            (
                solo(CampaignParams {
                    separation_spacing: -3.0,
                    ..tiny
                }),
                30.0,
            ),
            (
                solo(CampaignParams {
                    proteins: 0,
                    ..tiny
                }),
                30.0,
            ),
            (
                vec![CampaignDef {
                    share: f64::INFINITY,
                    ..CampaignDef::default_solo(tiny)
                }],
                30.0,
            ),
        ] {
            let scheduler = ServerConfig {
                deadline_seconds,
                ..ServerConfig::default()
            };
            let label = format!("{defs:?}, {deadline_seconds}");
            let open = MultiGrid::open(
                defs,
                scheduler,
                ServerFaults::default(),
                ShardSpec::solo(),
                None,
            );
            let refused = open.err().map(|e| e.kind());
            assert_eq!(refused, Some(io::ErrorKind::InvalidInput), "{label}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The registry isolation invariant: each campaign's merged
    /// artifact under contention equals its solo-run artifact, byte for
    /// byte.
    #[test]
    fn contended_artifacts_match_solo_baselines() {
        let defs = defs_70_30();
        let mut grid = open_ram(defs.clone());
        let contended = run_to_completion(&mut grid, 4);

        for (def, artifact) in defs.into_iter().zip(&contended) {
            let mut solo = open_ram(vec![def]);
            let solo_artifacts = run_to_completion(&mut solo, 4);
            assert_eq!(
                &solo_artifacts[0], artifact,
                "campaign artifact diverged from its solo baseline"
            );
        }
    }

    /// Satellite regression for the ISSUE acceptance bar: a scripted
    /// 70/30 contended history must converge to the configured split
    /// within ±5 points *while both campaigns still have work*. (Once
    /// the smaller campaign drains, the bigger one legitimately borrows
    /// the leftover capacity and the instantaneous ratio drifts — so
    /// the assertion samples the last moment of genuine contention.)
    #[test]
    fn scripted_history_converges_to_the_70_30_split() {
        // A tighter separation grid multiplies the starting positions,
        // and a sub-mct `h` target keeps every workunit at one position:
        // many small uniform workunits, so delivered ref-seconds move in
        // fine steps and the deficit ledger can actually hit the ±5%
        // figure inside the contended phase.
        let mut defs = defs_70_30();
        for def in &mut defs {
            def.params.h_seconds = 0.001;
            def.params.separation_spacing = 12.0;
        }
        let mut grid = open_ram(defs);
        let mut t = 0.0f64;
        let mut guard = 0u64;
        let mut contended_error: Option<f64> = None;
        while !grid.all_complete() {
            guard += 1;
            assert!(guard < 1_000_000, "scripted history did not converge");
            for agent in 1..=4u64 {
                t += 0.01;
                let attached = vec![true, true];
                let (cidx, reply) = grid.fetch(SimTime::new(t), agent, &attached);
                let WorkReply::Assigned(a) = reply else {
                    continue;
                };
                let slot = grid.slot(cidx).expect("served campaign exists");
                let output = slot.campaign.compute(slot.campaign.spec(a.workunit));
                t += 0.01;
                grid.report(SimTime::new(t), cidx, a.replica, a.workunit, output);
                let both_live = grid
                    .slots()
                    .iter()
                    .all(|s| s.state.core().fresh_backlog() > 0);
                if both_live {
                    contended_error = Some(grid.fair().share_error());
                }
            }
        }
        let err = contended_error.expect("history had a contended phase");
        assert!(
            err <= 0.05,
            "70/30 split off by {err:.3} (> 0.05) during contention"
        );
    }

    // ---- The protocol, stepped: no socket, no thread, no sleep, and
    // `now` is whatever the test says it is. ----

    use crate::agent::{self, Input, Session, Step};
    use crate::journal::{open_wal, FsyncPolicy, JournalRecord};
    use crate::protocol::decode_versioned;
    use crate::shard::{lease_id, merge_artifacts};
    use crate::{AgentConfig, FaultProfile, TrustConfig};
    use rand::{Rng, SeedableRng};
    use std::path::{Path, PathBuf};
    use std::sync::OnceLock;

    fn t(seconds: f64) -> SimTime {
        SimTime::new(seconds)
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcmd-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A power cut under the wal in `dir`: only its first `synced` bytes
    /// were on the platter.
    fn cut_power(dir: &Path, synced: u64) {
        let wal = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.bin"));
        wal.and_then(|wal| wal.set_len(synced)).unwrap();
    }

    /// One shard of `shards`, addressed `shard-0`, `shard-1`, ...
    fn open_shard(
        defs: Vec<CampaignDef>,
        (shard_id, shards): (u16, u16),
        faults: ServerFaults,
        journal: Option<&Path>,
    ) -> MultiGrid {
        let scheduler = ServerConfig {
            deadline_seconds: 2.0,
            ..ServerConfig::default()
        };
        let journal = journal.map(|dir| JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(dir)
        });
        let spec = ShardSpec { shard_id, shards };
        let (mut grid, _) =
            MultiGrid::open(defs, scheduler, faults, spec, journal.as_ref()).unwrap();
        grid.set_addrs((0..shards).map(|s| format!("shard-{s}")).collect());
        grid
    }

    /// The tiny campaign's shard `shard_id` of `shards`.
    fn shard(shard_id: u16, shards: u16, journal: Option<&Path>) -> MultiGrid {
        let solo = vec![CampaignDef::default_solo(CampaignParams::tiny())];
        open_shard(solo, (shard_id, shards), ServerFaults::default(), journal)
    }

    /// The tiny campaign's outputs, docked once for every test here.
    fn baseline() -> &'static [DockingOutput] {
        static BASELINE: OnceLock<Vec<DockingOutput>> = OnceLock::new();
        BASELINE.get_or_init(|| NetCampaign::build(CampaignParams::tiny()).baseline_outputs())
    }

    /// Takes the first whole frame off the front of `bytes`.
    fn take_frame(bytes: &mut Vec<u8>) -> Option<Message> {
        let (msg, consumed, _) = decode_versioned(bytes).ok()?;
        bytes.drain(..consumed);
        Some(msg)
    }

    fn frames(mut bytes: Vec<u8>) -> Vec<Message> {
        let decoded: Vec<Message> = std::iter::from_fn(|| take_frame(&mut bytes)).collect();
        assert!(bytes.is_empty(), "the sink holds whole frames only");
        decoded
    }

    /// One call on the core: the frames it queued and its close reason.
    type Heard = (Vec<Message>, Option<&'static str>);

    fn tell(grid: &mut MultiGrid, now: f64, caller: &mut Caller, msg: Message) -> Heard {
        let mut out = Vec::new();
        let closed = grid.inbound(t(now), caller, msg, &mut out).err();
        (frames(out), closed)
    }

    /// One frame that must draw exactly one reply and no close.
    fn ask(grid: &mut MultiGrid, now: f64, caller: &mut Caller, msg: Message) -> Message {
        match tell(grid, now, caller, msg) {
            (mut replies, None) if replies.len() == 1 => replies.remove(0),
            other => panic!("expected one reply, got {other:?}"),
        }
    }

    fn hello(grid: &mut MultiGrid, now: f64, agent: u64) -> Caller {
        let mut caller = Caller::default();
        let hello = Message::Hello {
            agent,
            threads: 1,
            campaigns: Vec::new(),
        };
        let ack = ask(grid, now, &mut caller, hello);
        assert!(matches!(ack, Message::HelloAck { .. }), "{ack:?}");
        caller
    }

    /// Asks once: an assignment comes back as the report it calls for,
    /// anything else as it is.
    fn fetch_one(grid: &mut MultiGrid, now: f64, caller: &mut Caller) -> Result<Message, Message> {
        match ask(grid, now, caller, Message::RequestWork) {
            Message::Assignment {
                replica,
                workunit,
                campaign,
                ..
            } => Ok(Message::ResultReport {
                replica,
                workunit,
                campaign,
                output: baseline()[workunit as usize].clone(),
            }),
            other => Err(other),
        }
    }

    fn report(grid: &mut MultiGrid, now: f64, caller: &mut Caller, report: Message) {
        let ack = ask(grid, now, caller, report);
        assert!(
            matches!(ack, Message::ResultAck { accepted: true, .. }),
            "{ack:?}"
        );
    }

    /// Asks and reports until an ask draws no assignment; that reply.
    fn work(grid: &mut MultiGrid, now: f64, caller: &mut Caller) -> Message {
        loop {
            match fetch_one(grid, now, caller) {
                Ok(done) => report(grid, now, caller, done),
                Err(other) => return other,
            }
        }
    }

    /// One steering tick of `from` and everything it sets off, with no
    /// wire between: its statuses heard by `to` on `link` (`to`'s
    /// memory of that connection), `to`'s replies heard back on
    /// `from`'s own link. Each side commits before its frames are
    /// heard, as the event loop does.
    fn steer(from: &mut MultiGrid, to: &mut MultiGrid, link: &mut Caller, now: f64) {
        let (me, peer) = (from.spec().shard_id, to.spec().shard_id);
        from.note_demand();
        let (mut statuses, mut replies) = (Vec::new(), Vec::new());
        from.send_statuses(t(now), peer, &mut statuses);
        from.commit();
        for status in frames(statuses) {
            to.inbound(t(now), link, status, &mut replies).unwrap();
        }
        to.commit();
        for reply in frames(replies) {
            from.link_frame(t(now), peer, reply).unwrap();
        }
        assert!(from.unacked[usize::from(peer)].is_empty(), "{me} was acked");
    }

    fn status(shard: u16, held: &[u64], fresh_backlog: u64, hungry: bool) -> Message {
        Message::ShardStatus {
            shard,
            fresh_backlog,
            outstanding: 0,
            complete: false,
            hungry,
            leases_held: held.to_vec(),
            campaign: 0,
        }
    }

    /// One gossip frame played as a peer; the leases granted before the
    /// closing `StatusAck`.
    fn gossip(grid: &mut MultiGrid, now: f64, link: &mut Caller, status: Message) -> Vec<u64> {
        let (mut replies, closed) = tell(grid, now, link, status);
        assert_eq!(closed, None);
        let ack = replies.pop();
        assert!(matches!(ack, Some(Message::StatusAck { .. })), "{ack:?}");
        replies
            .into_iter()
            .map(|grant| match grant {
                Message::LeaseGrant { lease, .. } => lease,
                other => panic!("unexpected steering reply: {other:?}"),
            })
            .collect()
    }

    /// Leases every fresh workunit of `grid` away to shard 1, so its
    /// agents' asks can only back off or bounce; the leases.
    fn lease_everything_away(grid: &mut MultiGrid, link: &mut Caller) -> Vec<u64> {
        let mut held = Vec::new();
        loop {
            let leases = gossip(grid, 0.5, link, status(1, &held, 0, true));
            if leases.is_empty() {
                return held;
            }
            held.extend(leases);
        }
    }

    /// `server::tests::a_two_shard_history_runs_to_done_on_one_thread`,
    /// its decisions only: hunger, a lease cut, adopted and journaled,
    /// a redirect off the drained shard, completion gossiped both ways.
    #[test]
    fn stepped_a_two_shard_history_runs_to_done() {
        let dir = scratch_dir("history");
        let (mut s0, mut s1) = (shard(0, 2, None), shard(1, 2, Some(&dir)));
        // Each shard's memory of the link the other dialed.
        let (mut link_at_0, mut link_at_1) = (Caller::default(), Caller::default());

        // Shard 1's agent works its slice dry — all but one result it
        // sits on, so the slice is drained yet not complete...
        let mut agent1 = hello(&mut s1, 1.0, 1);
        let sat_on = fetch_one(&mut s1, 1.0, &mut agent1).expect("work on a fresh shard");
        let dry = work(&mut s1, 1.1, &mut agent1);
        assert!(
            matches!(
                dry,
                Message::NoWork {
                    campaign_complete: false,
                    ..
                }
            ),
            "{dry:?}"
        );
        // ...so its next status is hungry, shard 0 cuts a lease, and
        // shard 1 adopts and journals it.
        steer(&mut s1, &mut s0, &mut link_at_0, 1.2);
        let stats = |grid: &MultiGrid| grid.slots()[0].state.net_stats;
        assert_eq!(
            (stats(&s0).shard_leases_out, stats(&s1).shard_leases_in),
            (1, 1)
        );
        let granted = s0.slots()[0].state.leases_granted_to(1);
        let adopted: Vec<(u64, Vec<u32>)> = open_wal(&dir)
            .unwrap()
            .filter_map(|rec| match rec.unwrap() {
                JournalRecord::Applied {
                    command: Command::Adopt { lease, wus, .. },
                    ..
                } => Some((lease, wus.into_owned())),
                _ => None,
            })
            .collect();
        assert_eq!(adopted, granted, "the wal holds exactly the grant");

        // Shard 1 advertises the leased backlog; shard 0's agent
        // finishes what is left of shard 0's slice and is sent there.
        steer(&mut s1, &mut s0, &mut link_at_0, 1.3);
        assert!(s0.slots()[0].board.backlog[1] > 0);
        let mut agent0 = hello(&mut s0, 1.4, 2);
        assert_eq!(
            work(&mut s0, 1.4, &mut agent0),
            Message::Redirect {
                shard: 1,
                addr: "shard-1".into()
            },
            "a drained, complete shard must redirect"
        );
        assert_eq!(stats(&s0).shard_redirects, 1);

        // Shard 1 finishes the lease and its own last result; one more
        // round of gossip each way and both know it is over.
        work(&mut s1, 1.5, &mut agent1);
        report(&mut s1, 1.5, &mut agent1, sat_on);
        assert!(!s0.done(), "shard 0 last heard shard 1 had work left");
        steer(&mut s0, &mut s1, &mut link_at_1, 1.6);
        steer(&mut s1, &mut s0, &mut link_at_0, 1.6);
        assert!(s0.done() && s1.done());
        assert!(matches!(
            ask(&mut s0, 1.7, &mut agent0, Message::RequestWork),
            Message::NoWork {
                campaign_complete: true,
                ..
            }
        ));
        let parts: Vec<_> = [&s0, &s1]
            .map(|s| s.slots()[0].state.outputs().to_vec())
            .into();
        assert_eq!(merge_artifacts(&parts).unwrap(), baseline());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `server::tests::a_dead_peers_backlog_leaves_with_its_link`: an
    /// advert lives no longer than the steering connection it rode,
    /// whichever way that was dialed.
    #[test]
    fn stepped_a_dead_peers_backlog_leaves_with_its_link() {
        let mut s0 = shard(0, 2, None);
        let mut link = Caller::default();
        let held = lease_everything_away(&mut s0, &mut link);
        let mut agent = hello(&mut s0, 1.0, 9);
        let mut ask = |s0: &mut MultiGrid| ask(s0, 1.0, &mut agent, Message::RequestWork);

        gossip(&mut s0, 1.0, &mut link, status(1, &held, 5, false));
        assert!(matches!(ask(&mut s0), Message::Redirect { shard: 1, .. }));

        // The link this shard dialed drops: the peer is gone.
        s0.link_lost(1);
        assert_eq!(s0.slots()[0].board.backlog[1], 0);
        assert!(s0.try_redirect(&[true]).is_none());
        match ask(&mut s0) {
            Message::NoWork { retry_after_ms, .. } => assert!(retry_after_ms > 0),
            other => panic!("a dead peer must not draw a redirect, got {other:?}"),
        }

        // The same for the link the peer dialed.
        gossip(&mut s0, 1.0, &mut link, status(1, &held, 5, false));
        assert!(matches!(ask(&mut s0), Message::Redirect { shard: 1, .. }));
        s0.caller_lost(&link);
        assert!(matches!(ask(&mut s0), Message::NoWork { .. }));
        // A volunteer's connection going takes nobody's advert with it.
        gossip(&mut s0, 1.0, &mut link, status(1, &held, 5, false));
        let volunteer = hello(&mut s0, 1.0, 10);
        s0.caller_lost(&volunteer);
        assert_eq!(s0.slots()[0].board.backlog[1], 5);
    }

    /// What a refused frame must leave alone: the books a restart would
    /// replay to, the peer picture, and the wal.
    fn books(grid: &MultiGrid, dir: &Path) -> (Vec<GridState>, Vec<Vec<u64>>, u64) {
        let wal_bytes = |dir: &Path| std::fs::metadata(dir.join("wal.bin")).unwrap().len();
        let slots = grid.slots().iter();
        (
            slots.clone().map(|s| s.state.clone()).collect(),
            slots
                .map(|s| {
                    let complete = s.board.complete.iter().map(|&c| u64::from(c));
                    complete.chain(s.board.backlog.iter().copied()).collect()
                })
                .collect(),
            wal_bytes(dir),
        )
    }

    /// `server::tests::a_forged_lease_grant_changes_nothing_and_closes_the_link`.
    #[test]
    fn stepped_a_forged_lease_grant_changes_nothing_and_closes_the_link() {
        let dir = scratch_dir("forged");
        let mut s0 = shard(0, 2, Some(&dir));
        let before = books(&s0, &dir);
        let everything: Vec<u32> = (0..s0.slots()[0].campaign.len() as u32).collect();
        let owned = |s0: &MultiGrid| s0.slots()[0].state.core().owned_count();
        assert!(owned(&s0) < everything.len(), "shard 1 owns something");

        let grant = |campaign, from_shard, lease, complete| Message::LeaseGrant {
            lease,
            from_shard,
            wus: everything.clone(),
            complete,
            campaign,
        };
        for (campaign, from_shard, lease) in [
            (7, 1, lease_id(1, 1)),
            (0, 0, lease_id(1, 1)),
            (0, 1, lease_id(0, 1)),
        ] {
            let forged = grant(campaign, from_shard, lease, true);
            assert_eq!(s0.link_frame(t(1.0), 1, forged.clone()), Err("protocol"));
            assert_eq!(books(&s0, &dir), before, "{forged:?}");
        }
        // The honest grant the same peer could have sent is adopted.
        let honest = grant(0, 1, lease_id(1, 1), false);
        assert_eq!(s0.link_frame(t(1.0), 1, honest), Ok(()));
        assert_eq!(owned(&s0), everything.len());
        assert_eq!(s0.slots()[0].state.net_stats.shard_leases_in, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `server::tests::a_status_ack_naming_a_third_shard_marks_nobody_complete`.
    #[test]
    fn stepped_a_status_ack_naming_a_third_shard_marks_nobody_complete() {
        let mut s0 = shard(0, 3, None);
        let ack = |shard| Message::StatusAck {
            shard,
            complete: true,
        };
        for now in [1.0, 1.1] {
            s0.send_statuses(t(now), 1, &mut Vec::new());
        }
        assert_eq!(s0.link_frame(t(1.2), 1, ack(1)), Ok(()));
        assert_eq!(s0.link_frame(t(1.2), 1, ack(2)), Err("protocol"));
        assert_eq!(s0.slots()[0].board.complete, [false, true, false]);
        assert!(!s0.slots()[0].board.peers_complete(0));
        // An ack nobody was waiting for is refused too.
        s0.link_lost(1);
        assert_eq!(s0.link_frame(t(1.3), 1, ack(1)), Err("protocol"));

        // Dialed in as shard 1, then speaking as shard 2: refused, and
        // shard 2's advert is not on the board.
        let mut link = Caller::default();
        gossip(&mut s0, 1.4, &mut link, status(1, &[], 3, false));
        let mut renamed = status(2, &[], 9, false);
        if let Message::ShardStatus { complete, .. } = &mut renamed {
            *complete = true;
        }
        assert_eq!(
            tell(&mut s0, 1.5, &mut link, renamed),
            (vec![], Some("protocol"))
        );
        assert_eq!(s0.slots()[0].board.backlog, [0, 3, 0]);
        assert_eq!(s0.slots()[0].board.complete, [false, true, false]);
    }

    /// A backoff issued while fresh backlog is on hand was a trust
    /// denial: the quarantined agent waits here, whatever a peer
    /// advertises, while an honest one beside it is served.
    #[test]
    fn a_quarantine_denial_is_not_turned_into_a_redirect() {
        let faults = ServerFaults {
            trust: TrustConfig::on(),
            ..ServerFaults::default()
        };
        let solo = vec![CampaignDef::default_solo(CampaignParams::tiny())];
        let mut s0 = open_shard(solo, (0, 2), faults, None);
        let mut saboteur = hello(&mut s0, 0.0, 9);
        let corrupted = |report: Message| match report {
            Message::ResultReport {
                replica,
                workunit,
                campaign,
                mut output,
            } => {
                output.rows[0].eelec += 1e-9;
                Message::ResultReport {
                    replica,
                    workunit,
                    campaign,
                    output,
                }
            }
            other => panic!("{other:?}"),
        };
        // Quorum rejections in a row, each against a fresh honest
        // agent's copy of the same workunit, until quarantine trips.
        let mut now = 0.0;
        for k in 0..u64::from(TrustConfig::on().quarantine_after) {
            let mut honest = hello(&mut s0, now, 100 + k);
            let first = fetch_one(&mut s0, now, &mut honest).unwrap();
            let second = fetch_one(&mut s0, now, &mut saboteur).unwrap();
            report(&mut s0, now + 0.1, &mut honest, first);
            let ack = ask(&mut s0, now + 0.2, &mut saboteur, corrupted(second));
            assert!(
                matches!(
                    ack,
                    Message::ResultAck {
                        accepted: false,
                        ..
                    }
                ),
                "{ack:?}"
            );
            let mut third = hello(&mut s0, now + 0.2, 200 + k);
            let reissue = fetch_one(&mut s0, now + 0.2, &mut third).unwrap();
            report(&mut s0, now + 0.3, &mut third, reissue);
            now += 1.0;
        }
        let mut link = Caller::default();
        gossip(&mut s0, now, &mut link, status(1, &[], 50, false));
        assert!(s0.slots()[0].state.core().fresh_backlog() > 0);
        match ask(&mut s0, now, &mut saboteur, Message::RequestWork) {
            Message::NoWork {
                campaign_complete: false,
                retry_after_ms,
            } => assert!(retry_after_ms > 1_000, "{retry_after_ms} ms of quarantine"),
            other => panic!("a denial must stay a backoff, got {other:?}"),
        }
        let stats = s0.slots()[0].state.net_stats;
        assert_eq!((stats.trust_denied_fetches, stats.shard_redirects), (1, 0));
        let mut honest = hello(&mut s0, now, 1);
        assert!(fetch_one(&mut s0, now, &mut honest).is_ok());
    }

    /// The stall rule reads the time it is given and nothing else: a
    /// status that has waited exactly `STEER_TIMEOUT_MS` is not yet
    /// stalled, one a millisecond older is, and an ack resets it.
    #[test]
    fn a_link_is_stalled_only_past_the_timeout_of_argument_time() {
        let mut s0 = shard(0, 2, None);
        assert!(!s0.link_stalled(t(1e6), 1), "nothing sent, nothing owed");
        s0.send_statuses(t(10.0), 1, &mut Vec::new());
        s0.send_statuses(t(10.125), 1, &mut Vec::new());
        let bound = STEER_TIMEOUT_MS as f64 / 1e3;
        assert!(!s0.link_stalled(t(10.0), 1));
        assert!(!s0.link_stalled(t(10.0 + bound), 1));
        assert!(s0.link_stalled(t(10.0 + bound + 0.001), 1));
        let ack = Message::StatusAck {
            shard: 1,
            complete: false,
        };
        assert_eq!(s0.link_frame(t(10.3), 1, ack), Ok(()));
        assert!(!s0.link_stalled(t(10.125 + bound), 1), "the next oldest");
        assert!(s0.link_stalled(t(10.126 + bound), 1));
    }

    /// A report naming a campaign off the roster is refused, not
    /// clamped onto the last campaign. There, replica ids are numbered
    /// afresh, so the forged frame below names the very replica beta has
    /// in flight to agent 2 for the same workunit: clamped, as it was,
    /// agent 2's ledger took the verdict of a report agent 1 sent, and a
    /// journal would have recorded it under beta. Refused, it leaves
    /// books, boards and wal as they were, and closes with "protocol".
    #[test]
    fn a_forged_campaign_index_is_refused_not_clamped() {
        let dir = scratch_dir("forged-index");
        let mut grid = open_shard(defs_70_30(), (0, 1), ServerFaults::default(), Some(&dir));
        let mut on_beta = Caller::default();
        let beta = Message::Hello {
            agent: 2,
            threads: 1,
            campaigns: vec!["beta".into()],
        };
        assert!(matches!(
            ask(&mut grid, 1.0, &mut on_beta, beta),
            Message::HelloAck { .. }
        ));
        let Ok(Message::ResultReport {
            replica,
            workunit,
            campaign: 1,
            output,
        }) = fetch_one(&mut grid, 1.0, &mut on_beta)
        else {
            panic!("beta assigns");
        };
        let mut forger = hello(&mut grid, 1.0, 1);
        let forged = Message::ResultReport {
            replica,
            workunit,
            campaign: 9,
            output,
        };
        let before = books(&grid, &dir);
        assert_eq!(
            tell(&mut grid, 1.5, &mut forger, forged),
            (vec![], Some("protocol"))
        );
        assert_eq!(books(&grid, &dir), before);
        assert_eq!(
            grid.slots()[1].state.outstanding_len(),
            1,
            "still agent 2's"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A finished peer's word is kept: core 1 hears core 0 finish, is
    /// killed, and comes back from its wal knowing it — done at once,
    /// with core 0 never heard from again. (A board that was not
    /// journaled left the restarted core waiting for gossip that never
    /// came.) Core 0, for its part, may leave: core 1 acknowledged a
    /// status that said complete.
    #[test]
    fn a_restarted_shard_remembers_that_its_peer_finished() {
        let dir = scratch_dir("remembers");
        let (mut s0, mut s1) = (shard(0, 2, None), shard(1, 2, Some(&dir)));
        for (core, agent) in [(&mut s0, 1), (&mut s1, 2)] {
            let mut volunteer = hello(core, 1.0, agent);
            work(core, 1.0, &mut volunteer);
        }
        assert!(s0.all_complete() && s1.all_complete());
        steer(&mut s0, &mut s1, &mut Caller::default(), 1.1);
        assert!(s1.done() && s0.may_leave());
        drop(s1); // kill -9: the wal is all that is left
        let s1 = shard(1, 2, Some(&dir));
        assert!(
            s1.done(),
            "the restarted core waits on a peer it heard finish"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The grantor commits before its `LeaseGrant` is heard, as the
    /// event loop does, so a power cut afterwards takes only what came
    /// after the commit — here an ask whose reply never left. The lease
    /// stays granted, no workunit is owned by both shards, and the next
    /// grant cuts a new id instead of reusing the held one.
    #[test]
    fn a_power_cut_after_a_grant_leaves_the_lease_where_the_lessee_holds_it() {
        let dir = scratch_dir("power-cut");
        // Enough workunits that the grantor keeps some past one lease.
        let params = CampaignParams {
            proteins: 4,
            ..CampaignParams::tiny()
        };
        let open = |shard_id, journal| {
            let defs = vec![CampaignDef::default_solo(params)];
            open_shard(defs, (shard_id, 2), ServerFaults::default(), journal)
        };
        let (mut s0, mut s1) = (open(0, Some(dir.as_path())), open(1, None));
        // Shard 1's agent takes every fresh workunit and is told to wait.
        let mut agent1 = hello(&mut s1, 1.0, 1);
        let ask_work = |grid: &mut MultiGrid, caller: &mut Caller| {
            matches!(
                ask(grid, 1.1, caller, Message::RequestWork),
                Message::Assignment { .. }
            )
        };
        while ask_work(&mut s1, &mut agent1) {}
        // So shard 1 is hungry: shard 0 grants, commits, and only then
        // is its grant heard.
        steer(&mut s1, &mut s0, &mut Caller::default(), 1.2);
        let granted = s0.slots()[0].state.leases_granted_to(1);
        let held = s1.slots()[0].state.leases_held_from(0);
        assert_eq!(held.len(), 1, "one lease granted and adopted");
        assert_eq!(held, granted.iter().map(|g| g.0).collect::<Vec<_>>());
        // What that commit synced: all a power cut leaves of the wal.
        assert_eq!(s0.uncommitted(), 0);
        let synced = s0.wal_size().unwrap().1;
        let mut agent0 = hello(&mut s0, 1.3, 2);
        assert!(ask_work(&mut s0, &mut agent0), "shard 0 kept work");
        assert!(s0.wal_size().unwrap().1 > synced, "the ask was journaled");

        drop(s0);
        cut_power(&dir, synced);
        let mut s0 = open(0, Some(dir.as_path()));

        let owns = |grid: &MultiGrid, wu| grid.slots()[0].state.core().owns(wu);
        let wus = s0.slots()[0].campaign.len() as u32;
        let both = (0..wus).find(|&wu| owns(&s0, wu) && owns(&s1, wu));
        assert_eq!(both, None, "a workunit owned by both shards");
        assert_eq!(s0.slots()[0].state.leases_granted_to(1), granted);
        let next = Command::Grant {
            campaign: 0,
            to_shard: 1,
            max: 1,
        };
        match s0.apply(t(1.4), &next) {
            Outcome::Granted { lease, .. } => assert!(!held.contains(&lease), "{lease} reused"),
            other => panic!("shard 0 has backlog to lease: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ops journal tile is the server's one wal: on a two-campaign
    /// server the scrape counts the records of both campaigns' asks.
    #[test]
    fn the_scrape_counts_every_record_of_the_one_wal() {
        let dir = scratch_dir("tile");
        let mut grid = open_shard(defs_70_30(), (0, 1), ServerFaults::default(), Some(&dir));
        for (agent, attached) in [(1, [true, false]), (2, [false, true]), (3, [false, true])] {
            assert!(matches!(
                grid.fetch(t(1.0), agent, &attached).1,
                WorkReply::Assigned(_)
            ));
        }
        let recorded = open_wal(&dir)
            .unwrap()
            .filter(|rec| matches!(rec, Ok(JournalRecord::Applied { .. })))
            .count();
        assert_eq!(recorded, 3);
        let scrape = crate::ops::render_metrics(&grid);
        let tile = format!("\nhcmd_journal_wal_records {recorded}\n");
        assert!(scrape.contains(&tile), "{scrape}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Totality: every frame kind, wherever it arrives, draws frames or
    /// a close reason (the silent exception: nothing here is an honest
    /// reply on the own link) and never a panic; and a frame refused as
    /// `"protocol"` leaves the books, the boards and the wal as they
    /// were.
    #[test]
    fn every_frame_kind_in_every_place_is_answered_or_refused() {
        let dir = scratch_dir("totality");
        let mut s0 = open_shard(defs_70_30(), (0, 2), ServerFaults::default(), Some(&dir));
        let mut inbound: Vec<(&str, Caller)> = vec![
            ("before Hello", Caller::default()),
            ("after Hello", hello(&mut s0, 1.0, 42)),
            ("as a shard", Caller::default()),
        ];
        gossip(&mut s0, 1.0, &mut inbound[2].1, status(1, &[], 0, false));
        let mut refused = 0;
        let mut samples = crate::protocol::tests::sample_messages();
        // A result naming a campaign off the roster (this one has two).
        let off_roster = samples.iter().find_map(|msg| match msg {
            Message::ResultReport {
                replica,
                workunit,
                output,
                ..
            } => Some(Message::ResultReport {
                replica: *replica,
                workunit: *workunit,
                campaign: 2,
                output: output.clone(),
            }),
            _ => None,
        });
        samples.extend(off_roster);
        for msg in samples {
            // What an inbound connection draws, whatever it said before.
            let expected: Result<usize, &str> = match &msg {
                Message::ResultReport { campaign: 2.., .. } => Err("protocol"),
                Message::Hello { .. }
                | Message::RequestWork
                | Message::ResultReport { .. }
                | Message::ShardMapRequest => Ok(1),
                // The sample is hungry: a lease, then the ack.
                Message::ShardStatus { .. } => Ok(2),
                Message::Bye => Err("bye"),
                _ => Err("protocol"),
            };
            for (place, caller) in &mut inbound {
                let before = books(&s0, &dir);
                let (replies, closed) = tell(&mut s0, 2.0, caller, msg.clone());
                let heard = closed.map_or(Ok(replies.len()), Err);
                assert_eq!(heard, expected, "{place}: {msg:?}");
                if closed == Some("protocol") {
                    assert!(replies.is_empty());
                    assert_eq!(books(&s0, &dir), before, "{place}: {msg:?}");
                    refused += 1;
                }
            }
            // On this shard's own link to peer 1, the samples speak for
            // shard 0 where they speak for anyone: every one is refused.
            let before = books(&s0, &dir);
            let closed = s0.link_frame(t(2.0), 1, msg.clone()).err();
            let busy = matches!(msg, Message::Busy { .. });
            assert_eq!(closed, Some(if busy { "busy" } else { "protocol" }));
            if !busy {
                assert_eq!(books(&s0, &dir), before, "own link: {msg:?}");
                refused += 1;
            }
        }
        assert_eq!(refused, 10 * 3 + 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- A seeded in-memory grid: two cores and six `Session`s wired
    // through plain queues, time a counter. ----

    /// One simulated connection: byte queues each way and the accepting
    /// core's memory of it.
    struct Pipe {
        /// The core that accepted it.
        core: usize,
        caller: Caller,
        /// Sent to the core, not yet heard by it.
        up: Vec<u8>,
        /// The core's replies, not yet read by the far end.
        down: Vec<u8>,
        /// The core closed its end: once `down` is read, the far end
        /// finds the connection gone.
        closing: bool,
    }

    impl Pipe {
        fn to(core: usize) -> Self {
            Self {
                core,
                caller: Caller::default(),
                up: Vec::new(),
                down: Vec::new(),
                closing: false,
            }
        }
    }

    /// What a volunteer's session is owed next.
    enum Owed {
        Input(Input),
        WakeAt(f64),
        /// A frame, or the loss, of its open connection.
        Reply,
        Nothing,
    }

    struct Volunteer {
        session: Session,
        pipe: Option<Pipe>,
        owed: Owed,
    }

    struct Grid {
        seed: u64,
        now: f64,
        /// Core `a` is journaled under `dirs[a]`.
        cores: Vec<MultiGrid>,
        dirs: [PathBuf; 2],
        /// `synced[a]`: core `a`'s wal length at its last commit — what
        /// a power cut leaves of it.
        synced: [u64; 2],
        volunteers: Vec<Volunteer>,
        /// `links[a]`: core `a`'s own steering link to the other core.
        links: [Option<Pipe>; 2],
    }

    impl Drop for Grid {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("the seeded grid failed on seed {}", self.seed);
            }
            self.dirs.iter().for_each(|dir| {
                let _ = std::fs::remove_dir_all(dir);
            });
        }
    }

    impl Grid {
        fn new(seed: u64) -> Self {
            let dirs = [0, 1].map(|a| scratch_dir(&format!("seeded-{seed}-{a}")));
            let volunteers = (0..6u64)
                .map(|i| {
                    let config = AgentConfig {
                        seed,
                        profile: match i {
                            0 | 1 => FaultProfile::flaky(),
                            _ => FaultProfile::none(),
                        },
                        ..AgentConfig::new(format!("shard-{}", i % 2), i + 1)
                    };
                    Volunteer {
                        session: Session::new(config),
                        pipe: None,
                        owed: Owed::Input(Input::Woke),
                    }
                })
                .collect();
            let cores = vec![shard(0, 2, Some(&dirs[0])), shard(1, 2, Some(&dirs[1]))];
            Self {
                seed,
                now: 0.0,
                synced: [0, 1].map(|a| cores[a].wal_size().expect("journaled").1),
                cores,
                dirs,
                volunteers,
                links: [None, None],
            }
        }

        /// What the event loop does before the far end can read a frame
        /// core `a` queued: commit, which is where `synced[a]` moves.
        fn commit(&mut self, a: usize) {
            self.cores[a].commit();
            self.synced[a] = self.cores[a].wal_size().expect("journaled").1;
        }

        /// The connection is gone, whichever end let go: what was
        /// queued either way is lost and the accepting core is told.
        fn hang_up(&mut self, pipe: Pipe) {
            self.cores[pipe.core].caller_lost(&pipe.caller);
        }

        fn drop_link(&mut self, a: usize) {
            if let Some(pipe) = self.links[a].take() {
                self.cores[a].link_lost(pipe.core as u16);
                self.hang_up(pipe);
            }
        }

        fn drop_volunteer_pipe(&mut self, v: usize) {
            if let Some(pipe) = self.volunteers[v].pipe.take() {
                self.hang_up(pipe);
                if let Owed::Reply = self.volunteers[v].owed {
                    self.volunteers[v].owed = Owed::Input(Input::Lost);
                }
            }
        }

        /// Core `a` dies between two records and comes back from its
        /// wal; every connection to or from it dies with it.
        fn kill_and_reopen(&mut self, a: usize) {
            for v in 0..self.volunteers.len() {
                if self.volunteers[v]
                    .pipe
                    .as_ref()
                    .is_some_and(|p| p.core == a)
                {
                    self.drop_volunteer_pipe(v);
                }
            }
            self.drop_link(0);
            self.drop_link(1);
            self.cores[a] = shard(a as u16, 2, Some(&self.dirs[a]));
        }

        /// Core `a` loses power: its wal keeps what its last commit
        /// synced, and it comes back from that.
        fn power_cut(&mut self, a: usize) {
            cut_power(&self.dirs[a], self.synced[a]);
            self.kill_and_reopen(a);
        }

        /// Carries out one step of volunteer `v`'s session.
        fn carry_out(&mut self, v: usize, step: Step) {
            let now = self.now;
            let send = |vol: &mut Volunteer, msg: &Message| match &mut vol.pipe {
                Some(pipe) => {
                    queue(&mut pipe.up, msg);
                    Owed::Reply
                }
                None => Owed::Input(Input::Lost),
            };
            let owed = match step {
                Step::Dial(addr) => {
                    self.drop_volunteer_pipe(v);
                    let core = self
                        .cores
                        .iter()
                        .position(|c| c.addr(c.spec().shard_id) == addr);
                    self.volunteers[v].pipe = Some(Pipe::to(core.expect("a known address")));
                    Owed::Input(Input::Connected)
                }
                Step::Send(msg) => send(&mut self.volunteers[v], &msg),
                Step::Ask => send(&mut self.volunteers[v], &Message::RequestWork),
                Step::Compute { workunit, .. } => {
                    Owed::Input(Input::Computed(baseline()[workunit as usize].clone()))
                }
                Step::Wait(pause) => Owed::WakeAt(now + pause.as_secs_f64()),
                Step::Bye => {
                    if let Some(mut pipe) = self.volunteers[v].pipe.take() {
                        let core = &mut self.cores[pipe.core];
                        let said =
                            core.inbound(t(now), &mut pipe.caller, Message::Bye, &mut pipe.down);
                        assert_eq!(said, Err("bye"));
                        self.hang_up(pipe);
                    }
                    Owed::Input(Input::Lost)
                }
                Step::Finished(outcome) => {
                    let done = agent::Outcome::Done;
                    assert_eq!(outcome, done, "seed {}: volunteer {v}", self.seed);
                    Owed::Nothing
                }
            };
            self.volunteers[v].owed = owed;
        }

        /// Volunteer `v` takes its turn: one input to its session, or
        /// one frame moved on its connection.
        fn volunteer_turn(&mut self, v: usize) {
            let now = self.now;
            let input = match std::mem::replace(&mut self.volunteers[v].owed, Owed::Nothing) {
                Owed::Input(input) => input,
                Owed::WakeAt(due) if due <= now => Input::Woke,
                Owed::Reply => {
                    let Some(pipe) = &mut self.volunteers[v].pipe else {
                        unreachable!("a reply is owed on an open connection");
                    };
                    if let Some(msg) = take_frame(&mut pipe.up) {
                        let core = &mut self.cores[pipe.core];
                        let heard = core.inbound(t(now), &mut pipe.caller, msg, &mut pipe.down);
                        pipe.closing = heard.is_err();
                        self.volunteers[v].owed = Owed::Reply;
                        return;
                    }
                    let core = pipe.core;
                    self.commit(core);
                    let pipe = self.volunteers[v].pipe.as_mut().expect("still open");
                    match take_frame(&mut pipe.down) {
                        Some(reply) => Input::Frame(reply),
                        None => {
                            assert!(pipe.closing, "asked, and neither answered nor closed");
                            self.drop_volunteer_pipe(v);
                            Input::Lost
                        }
                    }
                }
                not_yet => {
                    self.volunteers[v].owed = not_yet;
                    return;
                }
            };
            let step = self.volunteers[v].session.step(input);
            self.carry_out(v, step);
        }

        /// One frame moves on core `a`'s steering link, either way: a
        /// status of `a`'s first, once `a` has committed, else a reply
        /// of `b`'s, once `b` has.
        fn link_turn(&mut self, a: usize) {
            let (now, b) = (t(self.now), 1 - a);
            let Some(pipe) = &self.links[a] else {
                return;
            };
            self.commit(if pipe.up.is_empty() { b } else { a });
            let Some(pipe) = &mut self.links[a] else {
                unreachable!("a commit leaves the link alone");
            };
            let lost = if let Some(status) = take_frame(&mut pipe.up) {
                let heard = self.cores[b].inbound(now, &mut pipe.caller, status, &mut pipe.down);
                pipe.closing = heard.is_err();
                false
            } else if let Some(reply) = take_frame(&mut pipe.down) {
                self.cores[a].link_frame(now, b as u16, reply).is_err()
            } else {
                pipe.closing
            };
            if lost {
                self.drop_link(a);
            }
        }

        /// What `EventLoop::steer_tick` does around the core's calls: a
        /// stalled link is hung up, a down one dialed, an up one told.
        fn steer_tick(&mut self, a: usize) {
            let (now, b) = (t(self.now), 1 - a);
            self.cores[a].note_demand();
            if self.cores[a].link_stalled(now, b as u16) {
                self.drop_link(a);
            }
            match &mut self.links[a] {
                Some(pipe) => self.cores[a].send_statuses(now, b as u16, &mut pipe.up),
                None => self.links[a] = Some(Pipe::to(b)),
            }
        }

        fn assert_nothing_is_owned_twice(&self) {
            let owns = |core: usize, wu| self.cores[core].slots[0].state.core().owns(wu);
            for wu in 0..baseline().len() as u32 {
                assert!(
                    !(owns(0, wu) && owns(1, wu)),
                    "seed {}: workunit {wu} is owned by both shards at {}",
                    self.seed,
                    self.now
                );
            }
        }
    }

    /// One seeded history, to completion: the seed picks who moves
    /// when, which connections are cut where, and when which core is
    /// killed (one seed in four) or loses power (one in eight). Ten
    /// milliseconds pass per step; sweep and steering ticks come due as
    /// in the server.
    fn run_seeded_grid(seed: u64) {
        const STEP_BUDGET: u32 = 60_000;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut grid = Grid::new(seed);
        let power_cut = seed % 8 == 2;
        let crash_at = (seed.is_multiple_of(4) || power_cut)
            .then(|| (rng.gen_range(20..300u32), rng.gen_range(0..2)));
        let mut steps = 0;
        while grid
            .volunteers
            .iter()
            .any(|v| !matches!(v.owed, Owed::Nothing))
        {
            steps += 1;
            assert!(
                steps < STEP_BUDGET,
                "seed {seed}: volunteers live, the campaign does not finish"
            );
            grid.now = f64::from(steps) * 0.01;
            if steps.is_multiple_of(5) {
                let now = t(grid.now);
                grid.cores.iter_mut().for_each(|core| {
                    core.sweep(now);
                });
            }
            if steps.is_multiple_of(10) {
                grid.steer_tick(0);
                grid.steer_tick(1);
            }
            match crash_at.filter(|&(at, _)| at == steps) {
                Some((_, a)) if power_cut => grid.power_cut(a),
                Some((_, a)) => grid.kill_and_reopen(a),
                None => {}
            }
            for _ in 0..rng.gen_range(1..=6) {
                match rng.gen_range(0..8 + 2) {
                    v @ 0..=5 => grid.volunteer_turn(v),
                    a @ (6 | 7) => grid.link_turn(a - 6),
                    // A cut, somewhere, one pick in a hundred.
                    _ if rng.gen_range(0..10) == 0 => match rng.gen_range(0..8) {
                        v @ 0..=5 => grid.drop_volunteer_pipe(v),
                        a => grid.drop_link(a - 6),
                    },
                    _ => {}
                }
                grid.assert_nothing_is_owned_twice();
            }
        }
        assert!(grid.cores.iter().all(MultiGrid::done), "seed {seed}");
        let parts: Vec<_> = grid
            .cores
            .iter()
            .map(|core| core.slots[0].state.outputs().to_vec())
            .collect();
        assert_eq!(merge_artifacts(&parts).unwrap(), baseline(), "seed {seed}");
        // Its volunteers gone, each core may leave once the other has
        // acknowledged its completion: steering alone gets them there.
        for round in 0.. {
            if grid.cores.iter().all(MultiGrid::may_leave) {
                break;
            }
            assert!(
                round < 100,
                "seed {seed}: a core never reaches the leave condition"
            );
            grid.now += 0.1;
            for a in 0..2 {
                grid.steer_tick(a);
                (0..4).for_each(|_| grid.link_turn(a));
            }
        }
        for a in 0..2 {
            // The one counter that is advisory and restarts from zero.
            grid.cores[a].slots[0].state.net_stats.shard_redirects = 0;
            let replayed = shard(a as u16, 2, Some(&grid.dirs[a]));
            let (live, slot) = (&grid.cores[a], &replayed.slots[0]);
            assert!(
                slot.state == live.slots[0].state
                    && slot.board.complete == live.slots[0].board.complete
                    && replayed.fair == live.fair
                    && replayed.cross_quarantine_denials == live.cross_quarantine_denials
                    && replayed.share_error() == live.share_error(),
                "seed {seed}: core {a}'s wal does not replay to its live books"
            );
        }
    }

    /// The seeds `seeded_grids_finish_with_the_baseline_artifact` runs;
    /// narrow it to `n..n + 1` to run seed `n` alone.
    const SEEDS: std::ops::Range<u64> = 0..256;

    /// After every seeded history — power cuts included, which keep of a
    /// wal only what was committed before the far end read a frame —
    /// the merged artifact is the baseline,
    /// no workunit was ever owned by both shards, the campaign finished
    /// within the step budget while its volunteers lived, both cores
    /// reach the leave condition, and each core's wal replays to its
    /// live books — campaign state, peer board and fair-share ledger. What the seed does
    /// not yet do — reorder, duplicate or delay frames, jump the clock —
    /// is ROADMAP step (2).
    #[test]
    fn seeded_grids_finish_with_the_baseline_artifact() {
        SEEDS.for_each(run_seeded_grid);
    }
}
