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
use crate::journal::{self, JournalConfig, JournalRecord, Wal, JOURNAL_FORMAT};
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
#[derive(Clone, PartialEq)]
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
/// about it. Two slots are `==` when their books are: the catalog is
/// compared by the definition it is built from.
#[derive(Clone)]
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

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.def == other.def
            && self.state == other.state
            && self.board == other.board
            && self.demand == other.demand
    }
}

/// What the protocol remembers about one inbound connection; whoever
/// carries the connection's bytes keeps it and hands it back with each
/// frame.
#[derive(Default)]
pub(crate) struct Caller {
    /// The agent id learned from `Hello`; once there is one, its
    /// `ConnectionOpened` went out, so its close is paired with a
    /// `ConnectionClosed`.
    pub(crate) agent: Option<u64>,
    /// The campaign attach mask: resolved from the `Hello` request, or
    /// the default-campaign mask from the first ask of a peer that
    /// never said `Hello`. Empty until one of the two.
    attached: Vec<bool>,
    /// The peer shard this connection is a steering link of, from its
    /// first `ShardStatus` on.
    pub(crate) shard: Option<u16>,
    /// Whether a `NoWork` or `ResultAck` on it said `campaign_complete`.
    pub(crate) heard: bool,
    /// Whether its last reply, a `NoWork` or `Redirect`, sent it to rest.
    pub(crate) resting: bool,
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
/// with the time it happened. It holds no I/O, so a copy is a fork of
/// the server and `==` says two servers hold the same books and the
/// same open wal batch.
#[derive(Clone, PartialEq)]
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
    wal: Option<Wal>,
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
    /// refused rather than replayed. Recovery cuts a torn tail back and
    /// writes a fresh wal's header ([`mod@journal::file`]); the batches that
    /// follow are the driver's to persist ([`Self::commit`]). A roster or
    /// policy the code cannot honour is refused (`InvalidInput`) before
    /// any catalog is built or the journal touched.
    pub fn open(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
        spec: ShardSpec,
        journal: Option<&JournalConfig>,
    ) -> io::Result<(Self, f64)> {
        let (mut grid, header) = Self::build(defs, scheduler, faults, spec)?;
        if let Some(cfg) = journal {
            grid.wal = Some(journal::file::recover(cfg, &header, |now, command| {
                grid.apply(now, command)
            })?);
        }
        let resume = grid.last_now;
        Ok((grid, resume))
    }

    /// [`Self::open`], journaled on a wal held in memory: `wal` is
    /// recovered as `wal.bin` would be — replayed, cut back to its last
    /// whole record, a fresh one given its header — and stands for the
    /// disk the driver persists each later batch to.
    pub fn open_bytes(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
        spec: ShardSpec,
        wal: &mut Vec<u8>,
    ) -> io::Result<(Self, f64)> {
        let (mut grid, header) = Self::build(defs, scheduler, faults, spec)?;
        grid.wal = Some(journal::recover_bytes(wal, &header, |now, command| {
            grid.apply(now, command)
        })?);
        let resume = grid.last_now;
        Ok((grid, resume))
    }

    /// A fresh, unjournaled registry and the header its wal opens with,
    /// once the roster and the policy are known to be ones the code can
    /// honour.
    fn build(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
        spec: ShardSpec,
    ) -> io::Result<(Self, JournalRecord)> {
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
        let grid = Self {
            slots,
            fair,
            addrs: Vec::new(),
            unacked: vec![VecDeque::new(); usize::from(spec.shards)],
            cross_quarantine_denials: 0,
            contended_share_error: None,
            last_now: 0.0,
            wal: None,
        };
        Ok((grid, header))
    }

    /// Applies one command — the one entry point of every decision a
    /// restart must rebuild, live or replayed — and, when the server is
    /// journaled and something changed, appends `(now, command,
    /// outcome)` to the wal's open batch before the outcome is acted on.
    /// It is durable once the driver has committed it ([`Self::commit`]).
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
        if let (Some(wal), false) = (&mut self.wal, outcome == Outcome::Unchanged) {
            wal.append(now.seconds(), command, &outcome);
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

    /// Makes every record appended so far durable: hands the wal's open
    /// batch to `persist` — the driver's write, and its sync — and counts
    /// it committed once that returns. Nothing is handed over when no
    /// record is open. The event loop calls it before any frame leaves
    /// (journal docs, "Consistency model").
    pub fn commit(&mut self, persist: impl FnOnce(&[u8]) -> io::Result<()>) -> io::Result<()> {
        match &mut self.wal {
            Some(wal) if wal.uncommitted() > 0 => wal.commit(persist),
            _ => Ok(()),
        }
    }

    /// Bytes appended since the last [`Self::commit`] (0 when the server
    /// runs unjournaled): what a power cut could still take.
    pub(crate) fn uncommitted(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::uncommitted)
    }

    /// The latest time any command was applied at.
    pub fn last_now(&self) -> f64 {
        self.last_now
    }

    /// The wal's record and byte counts — what a restart would replay —
    /// or `None` when the server runs unjournaled.
    pub fn wal_size(&self) -> Option<(u64, u64)> {
        let wal = self.wal.as_ref()?;
        Some((wal.records(), wal.bytes()))
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
    /// every board. No timer decides a peer (the volunteers' half is
    /// the event loop's: [`crate::event_loop::Loop::over`]).
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
                caller.attached = self.attach_mask(&campaigns);
                if caller.agent.replace(agent).is_none() {
                    telemetry::emit(Some(now.seconds()), || Event::ConnectionOpened { agent });
                }
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
                // A peer that skipped `Hello` asks as agent 0.
                let agent = caller.agent.unwrap_or(0);
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
                    ) => self.try_redirect(mask).unwrap_or_else(|| {
                        caller.heard |= campaign_complete;
                        Message::NoWork {
                            campaign_complete,
                            retry_after_ms,
                        }
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
                let complete = self.attached_complete(caller.mask(self));
                caller.heard |= complete;
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
                    campaign_complete: complete,
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
        caller.resting = matches!(reply, Message::NoWork { .. } | Message::Redirect { .. });
        queue(out, &reply);
        Ok(())
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

    /// A steering connection, dialed or accepted, takes the peer's
    /// advertised backlog with it — a peer that died with backlog on
    /// the board must not keep drawing redirects to a dead address.
    pub(crate) fn forget_backlog(&mut self, peer: u16) {
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

    /// A configuration the code cannot honour is refused: before a
    /// catalog is built or the journal touched, or, where the wal is
    /// another shard's, at its header. A NaN trust rate used to
    /// be journaled, and the restart then refused its own wal (NaN !=
    /// NaN in the header check); the other values panicked deep in the
    /// catalog build or the scheduler.
    #[test]
    fn a_config_the_code_cannot_honour_is_refused_up_front() {
        let dir = std::env::temp_dir().join(format!("hcmd-core-nan-{}", std::process::id()));
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

        // Nor can a wal be replayed into a server configured as another
        // shard than wrote it: a sibling, a wider topology, a solo one.
        let shard = |shard_id, shards| {
            let spec = ShardSpec { shard_id, shards };
            let faults = ServerFaults::default();
            MultiGrid::open(solo(tiny), scheduler, faults, spec, Some(&journal))
        };
        assert!(
            shard(0, 2).is_ok() && shard(0, 2).is_ok(),
            "shard 0 reopens its wal"
        );
        for (shard_id, shards) in [(1, 2), (0, 4), (0, 1)] {
            let err = shard(shard_id, shards)
                .err()
                .expect("another shard is refused");
            assert!(err.to_string().contains("refusing to replay"), "{err}");
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

    use crate::event_loop::{Conn, Role};
    use crate::journal::{JournalRecord, RecordReader};
    use crate::shard::ownership_map;
    use crate::world::{baseline, books, frames, open_shard, pump_until, shard};
    use crate::world::{status, t, Client, End, Pump, Server, World};
    use crate::{AgentConfig, FaultProfile, NetStats, TrustConfig};
    use gridsim::sched::ServerStats;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// One call on the core: the frames it queued and its close reason.
    type Heard = (Vec<Message>, Option<&'static str>);

    fn tell(grid: &mut MultiGrid, now: f64, caller: &mut Caller, msg: Message) -> Heard {
        let mut out = Vec::new();
        let closed = grid.inbound(t(now), caller, msg, &mut out).err();
        (frames(&out), closed)
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

    /// The last status a peer sends: its slice is complete too.
    fn finished(held: &[u64]) -> Message {
        let mut last = status(1, held, 0, false);
        if let Message::ShardStatus { complete, .. } = &mut last {
            *complete = true;
        }
        last
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
        let net = &mut World::new(vec![Server {
            faults,
            ..Server::shard(0, 2)
        }]);
        let mut saboteur = net.connect(0).hello(9, net);
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
        for k in 0..u64::from(TrustConfig::on().quarantine_after) {
            let now = 1.0 + k as f64;
            net.now = now;
            let mut honest = net.connect(0).hello(100 + k, net);
            let first = honest.ask(net, baseline()).unwrap();
            let second = saboteur.ask(net, baseline()).unwrap();
            net.now = now + 0.1;
            honest.report(&first, net);
            net.now = now + 0.2;
            let ack = saboteur.exchange(&corrupted(second), net);
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
            let mut third = net.connect(0).hello(200 + k, net);
            let reissue = third.ask(net, baseline()).unwrap();
            net.now = now + 0.3;
            third.report(&reissue, net);
        }
        net.now += 1.0;
        net.connect(0).gossip(net, status(1, &[], 50, false));
        let state = |net: &World| net.state(0).clone();
        assert!(state(net).core().fresh_backlog() > 0);
        match saboteur.exchange(&Message::RequestWork, net) {
            Message::NoWork {
                campaign_complete: false,
                retry_after_ms,
            } => assert!(retry_after_ms > 1_000, "{retry_after_ms} ms of quarantine"),
            other => panic!("a denial must stay a backoff, got {other:?}"),
        }
        let stats = state(net).net_stats;
        assert_eq!((stats.trust_denied_fetches, stats.shard_redirects), (1, 0));
        let mut honest = net.connect(0).hello(1, net);
        assert!(honest.ask(net, baseline()).is_ok());
    }

    /// The stall rule reads the time it is given and nothing else: a
    /// status that has waited exactly `STEER_TIMEOUT_MS` is not yet
    /// stalled, one a millisecond older is, and an ack resets it.
    #[test]
    fn a_link_is_stalled_only_past_the_timeout_of_argument_time() {
        let mut s0 = shard(0, 2);
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
        let wal = &mut Vec::new();
        let mut grid = open_shard(defs_70_30(), (0, 1), ServerFaults::default(), Some(wal));
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
        let Message::Assignment {
            replica,
            workunit,
            campaign: 1,
            ..
        } = ask(&mut grid, 1.0, &mut on_beta, Message::RequestWork)
        else {
            panic!("beta assigns");
        };
        let output = baseline()[workunit as usize].clone();
        let mut forger = hello(&mut grid, 1.0, 1);
        let forged = Message::ResultReport {
            replica,
            workunit,
            campaign: 9,
            output,
        };
        let before = books(&grid);
        assert_eq!(
            tell(&mut grid, 1.5, &mut forger, forged),
            (vec![], Some("protocol"))
        );
        assert_eq!(books(&grid), before);
        assert_eq!(
            grid.slots()[1].state.outstanding_len(),
            1,
            "still agent 2's"
        );
    }

    /// The ops journal tile is the server's one wal: on a two-campaign
    /// server the scrape counts the records of both campaigns' asks.
    #[test]
    fn the_scrape_counts_every_record_of_the_one_wal() {
        let mut wal = Vec::new();
        let mut grid = open_shard(
            defs_70_30(),
            (0, 1),
            ServerFaults::default(),
            Some(&mut wal),
        );
        for (agent, attached) in [(1, [true, false]), (2, [false, true]), (3, [false, true])] {
            assert!(matches!(
                grid.fetch(t(1.0), agent, &attached).1,
                WorkReply::Assigned(_)
            ));
        }
        let committed = grid.commit(|batch| {
            wal.extend_from_slice(batch);
            Ok(())
        });
        committed.unwrap();
        let recorded = RecordReader::over(&wal)
            .filter(|rec| matches!(rec, Ok(JournalRecord::Applied { .. })))
            .count();
        assert_eq!(recorded, 3);
        let scrape = crate::ops::render_metrics(&grid);
        let tile = format!("\nhcmd_journal_wal_records {recorded}\n");
        assert!(scrape.contains(&tile), "{scrape}");
    }

    /// Totality: every frame kind, wherever it arrives, draws frames or
    /// a close reason (the silent exception: nothing here is an honest
    /// reply on the own link) and never a panic; and a frame refused as
    /// `"protocol"` leaves the books, the boards and the wal as they
    /// were.
    #[test]
    fn every_frame_kind_in_every_place_is_answered_or_refused() {
        let wal = &mut Vec::new();
        let mut s0 = open_shard(defs_70_30(), (0, 2), ServerFaults::default(), Some(wal));
        let mut inbound: Vec<(&str, Caller)> = vec![
            ("before Hello", Caller::default()),
            ("after Hello", hello(&mut s0, 1.0, 42)),
            ("as a shard", Caller::default()),
        ];
        let (mut replies, closed) = tell(&mut s0, 1.0, &mut inbound[2].1, status(1, &[], 0, false));
        assert!(closed.is_none() && matches!(replies.pop(), Some(Message::StatusAck { .. })));
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
                let before = books(&s0);
                let (replies, closed) = tell(&mut s0, 2.0, caller, msg.clone());
                let heard = closed.map_or(Ok(replies.len()), Err);
                assert_eq!(heard, expected, "{place}: {msg:?}");
                if closed == Some("protocol") {
                    assert!(replies.is_empty());
                    assert_eq!(books(&s0), before, "{place}: {msg:?}");
                    refused += 1;
                }
            }
            // On this shard's own link to peer 1, the samples speak for
            // shard 0 where they speak for anyone: every one is refused.
            let before = books(&s0);
            let closed = s0.link_frame(t(2.0), 1, msg.clone()).err();
            let busy = matches!(msg, Message::Busy { .. });
            assert_eq!(closed, Some(if busy { "busy" } else { "protocol" }));
            if !busy {
                assert_eq!(books(&s0), before, "own link: {msg:?}");
                refused += 1;
            }
        }
        assert_eq!(refused, 10 * 3 + 15);
    }

    /// A finished peer's word is kept: loop 1 hears loop 0 finish, is
    /// killed, and its core comes back from its wal knowing it — done at
    /// once, with core 0 never heard from again. (A board that was not
    /// journaled left the restarted core waiting for gossip that never
    /// came.) Core 0, for its part, may leave: core 1 acknowledged a
    /// status that said complete.
    #[test]
    fn a_restarted_shard_remembers_that_its_peer_finished() {
        let servers = vec![Server::shard(0, 2), Server::shard(1, 2).journaled()];
        let net = &mut World::new(servers);
        for (a, agent) in [(0, 1), (1, 2)] {
            net.connect(a).hello(agent, net).work(net, baseline());
        }
        assert!(net.loops.iter().all(|l| l.core.all_complete()));
        // Shard 0's first steering tick dials, its second tells.
        net.steer(0);
        net.steer(0);
        pump_until(net, |net| net.loops[0].core.may_leave());
        assert!(net.loops[1].core.done());
        net.kill_and_reopen(1); // kill -9: the wal is all that is left
        assert!(
            net.loops[1].core.done(),
            "the restarted core waits on a peer it heard finish"
        );
    }

    /// The grantor's loop commits before its `LeaseGrant` leaves, so a
    /// power cut afterwards takes only what came after the commit — here
    /// an ask whose reply never left. The lease stays granted, no
    /// workunit is owned by both shards, and the next grant cuts a new
    /// id instead of reusing the held one. A cut in the middle of the
    /// write that commits a report tears its frame: the loop dies before
    /// the ack behind it leaves, comes back with its wal cut to the last
    /// whole record, and the campaign still ends on the baseline.
    #[test]
    fn a_power_cut_after_a_grant_leaves_the_lease_where_the_lessee_holds_it() {
        // Enough workunits that the grantor keeps some past one lease.
        let params = CampaignParams {
            proteins: 4,
            ..CampaignParams::tiny()
        };
        let server = |shard_id| Server {
            defs: vec![CampaignDef::default_solo(params)],
            ..Server::shard(shard_id, 2)
        };
        let net = &mut World::new(vec![server(0).journaled(), server(1)]);
        net.steer(1);
        // Shard 1's agent takes every fresh workunit and is told to wait.
        let mut agent1 = net.connect(1).hello(1, net);
        let assigned = |reply| matches!(reply, Message::Assignment { .. });
        while assigned(agent1.exchange(&Message::RequestWork, net)) {}
        // So shard 1 is hungry: shard 0 grants, commits, and only then
        // does its grant leave.
        net.steer(1);
        pump_until(net, |net| !net.state(1).leases_held_from(0).is_empty());
        let granted = net.state(0).leases_granted_to(1);
        let held = net.state(1).leases_held_from(0);
        assert_eq!(held.len(), 1, "one lease granted and adopted");
        assert_eq!(held, granted.iter().map(|g| g.0).collect::<Vec<_>>());
        // What the grant's commit kept: all a power cut leaves of the wal.
        assert_eq!(net.loops[0].core.uncommitted(), 0);
        let kept = net.wal(0).len() as u64;
        // An ask shard 0 reads and journals, and whose reply never leaves.
        let (far, near) = End::pair();
        let mut conn = Conn::new(near, Role::Inbound(Caller::default()));
        let mut agent0 = Client::new(far);
        let hello = Message::Hello {
            agent: 2,
            threads: 1,
            campaigns: Vec::new(),
        };
        for msg in [hello, Message::RequestWork] {
            agent0.send(&msg);
        }
        net.loops[0].read_and_dispatch(t(1.3), &mut conn);
        assert!(
            assigned(frames(&conn.write_buf).pop().unwrap()),
            "shard 0 kept work"
        );
        assert!(
            net.loops[0].core.wal_size().unwrap().1 > kept,
            "the ask was journaled"
        );

        // Back from the cut — between two writes it takes what a kill
        // takes, the open batch — no workunit is owned by both shards
        // (the world checks on every restart) and the lease stays
        // granted.
        net.kill_and_reopen(0);
        assert_eq!(net.wal(0).len() as u64, kept);
        assert_eq!(net.state(0).leases_granted_to(1), granted);
        let next = Command::Grant {
            campaign: 0,
            to_shard: 1,
            max: 1,
        };
        match net.loops[0].core.apply(t(1.4), &next) {
            Outcome::Granted { lease, .. } => assert!(!held.contains(&lease), "{lease} reused"),
            other => panic!("shard 0 has backlog to lease: {other:?}"),
        }

        // The cut that tears a frame: 20 bytes of the report's, its
        // header and no more, reach the disk.
        let net = &mut World::new(vec![Server::shard(0, 1).journaled()]);
        let mut agent = net.connect(0).hello(1, net);
        let report = agent.ask(net, baseline()).expect("work on a fresh server");
        let (whole, before) = (net.wal(0).to_vec(), net.state(0).clone());
        net.cut_power(0, 20);
        agent.send(&report);
        net.pump();
        assert_eq!(net.power_cuts, 1);
        assert!(agent.poll().is_none(), "an ack left the dying loop");
        assert!(agent.end.far_gone());
        assert!(net.wal(0) == whole, "the torn frame was not cut off");
        assert!(
            *net.state(0) == before,
            "the report survived its torn frame"
        );
        for agent in 2..=3 {
            net.volunteer(AgentConfig::new("shard-0", agent));
        }
        net.finish(&mut ChaCha8Rng::seed_from_u64(0), |_, _| {});
        net.assert_the_end();
    }

    /// A core is a value: cloned mid-history from a journaled world,
    /// original and copy, told the same frames and ticks at the same
    /// times, stay `==` — books, boards, ledger and open wal batch — and
    /// commit the same wal bytes; one ask from another agent sets them
    /// apart. The key a search over world states deduplicates by.
    #[test]
    fn a_cloned_core_stays_equal_while_it_hears_what_its_original_does() {
        let net = &mut World::new(vec![Server::shard(0, 2).journaled()]);
        let mut agent = net.connect(0).hello(1, net);
        let report = agent.ask(net, baseline()).expect("work on a fresh shard");
        agent.report(&report, net);
        let _in_flight = agent.ask(net, baseline()).expect("more work");
        let mut twin = net.loops[0].core.clone();
        let mut disks = [net.wal(0).to_vec(), net.wal(0).to_vec()];
        let original = &mut net.loops[0].core;
        assert!(*original == twin);

        for (grid, disk) in [&mut *original, &mut twin].into_iter().zip(&mut disks) {
            let mut caller = hello(grid, 2.0, 7);
            let Message::Assignment {
                replica, workunit, ..
            } = ask(grid, 2.0, &mut caller, Message::RequestWork)
            else {
                panic!("work for agent 7");
            };
            let output = baseline()[workunit as usize].clone();
            let report = Message::ResultReport {
                replica,
                workunit,
                campaign: 0,
                output,
            };
            assert!(matches!(
                ask(grid, 2.5, &mut caller, report),
                Message::ResultAck { accepted: true, .. }
            ));
            assert_eq!(grid.sweep(t(9.0)), 1, "agent 1's replica expires");
            let committed = grid.commit(|batch| {
                disk.extend_from_slice(batch);
                Ok(())
            });
            committed.unwrap();
        }
        assert!(*original == twin, "the same history, another state");
        assert!(disks[0] == disks[1], "the same history, other wal bytes");

        let ask_as = |agent| Command::Fetch {
            agent,
            attached: Cow::Owned(vec![true]),
        };
        original.apply(t(10.0), &ask_as(8));
        twin.apply(t(10.0), &ask_as(9));
        assert!(*original != twin, "another ask, the same state");
    }

    // ---- Seeded worlds. ----

    /// One seeded history, to completion; each core's wal bytes. The
    /// seed picks how many shards (four on one seed in four, else two),
    /// who moves when, in which order a loop serves what reached it,
    /// which connections are cut where, and when which loop is killed
    /// (one seed in four, and one four-shard seed in two) or loses
    /// power during its next wal write, and how much of that write
    /// lands (one in eight). A failing run names its seed. Also how
    /// many volunteers' dials found their loop gone, and how many power
    /// cuts landed.
    fn run_seeded_grid(seed: u64) -> (Vec<Vec<u8>>, u64, u64) {
        let history = move || {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let shards = if seed % 4 == 1 { 4 } else { 2 };
            let mut world = World::seeded(seed, shards);
            let power_cut = seed % 8 == 2;
            let killed = seed.is_multiple_of(4) || seed % 8 == 5;
            let crash_at = (killed || power_cut).then(|| {
                (
                    rng.gen_range(20..300u32),
                    rng.gen_range(0..usize::from(shards)),
                )
            });
            let landed: u64 = if power_cut { rng.gen() } else { 0 };
            world.finish(&mut rng, |world, step| match crash_at {
                Some((at, a)) if at == step && power_cut => world.cut_power(a, landed),
                Some((at, a)) if at == step => world.kill_and_reopen(a),
                _ => {}
            });
            (world.assert_the_end(), world.gone_dials, world.power_cuts)
        };
        std::panic::catch_unwind(history).unwrap_or_else(|panic| {
            eprintln!("the seeded grid failed on seed {seed}");
            std::panic::resume_unwind(panic)
        })
    }

    /// The seeds `seeded_grids_finish_with_the_baseline_artifact` runs;
    /// narrow it to `n..n + 1` to run seed `n` alone.
    const SEEDS: std::ops::Range<u64> = 0..256;

    /// After every seeded history — power cuts included, which keep of a
    /// wal what its core had committed and a seed-chosen prefix of the
    /// write they cut, mid-frame as likely as not, which recovery cuts
    /// back to the last whole record (the world checks) — the merged
    /// artifact is
    /// the baseline, no workunit was ever owned by two shards, no loop
    /// wrote ahead of its records or brushed off a connection it had
    /// room for, the campaign finished within the step budget while its
    /// volunteers lived, every loop left and every volunteer finished
    /// (giving up only once the campaign was over), and each core's wal
    /// replays to its live books — campaign state, peer board and
    /// fair-share ledger. A loop leaves while volunteers are still out
    /// (a flaky one resting after a dropped connection, one cut off), so
    /// on some seeds a volunteer finds it gone. What the seed does not
    /// yet do — duplicate or delay frames, jump the clock — is ROADMAP
    /// item 1.
    #[test]
    fn seeded_grids_finish_with_the_baseline_artifact() {
        let (mut gone, mut power_cuts) = (0, 0);
        for seed in SEEDS {
            let (_, dials, cuts) = run_seeded_grid(seed);
            (gone, power_cuts) = (gone + dials, power_cuts + cuts);
        }
        assert!(
            gone > 0,
            "no volunteer found a loop gone on seeds {SEEDS:?}"
        );
        let armed = SEEDS.filter(|seed| seed % 8 == 2).count() as u64;
        assert_eq!(power_cuts, armed, "a power cut never landed");
    }

    /// A seed is its history: run twice, it leaves every wal byte for
    /// byte the same — so nothing that reaches a core depends on a hash
    /// map's order or the wall clock.
    #[test]
    fn a_seed_reproduces_its_wals_byte_for_byte() {
        for seed in 0..32 {
            assert!(
                run_seeded_grid(seed) == run_seeded_grid(seed),
                "seed {seed}: two runs wrote different wals"
            );
        }
    }

    /// Eight honest volunteers at home round-robin over `servers`, run
    /// by `seed` to the end, which is checked: each server left, and
    /// every volunteer finished `Done`.
    fn fleet(servers: Vec<Server>, seed: u64) -> World {
        let shards = servers.len() as u64;
        let mut world = World::new(servers);
        for agent in 1..=8 {
            world.volunteer(AgentConfig::new(format!("shard-{}", agent % shards), agent));
        }
        world.finish(&mut ChaCha8Rng::seed_from_u64(seed), |_, _| {});
        world.assert_the_end();
        for v in 0..8 {
            assert_eq!(
                world.outcome(v),
                Some(crate::agent::Outcome::Done),
                "volunteer {v}"
            );
        }
        world
    }

    /// A sharded campaign merges to a solo server's artifact, byte for
    /// byte: over two shards, four, and two under the trust policy,
    /// which each shard keeps for the agents it served (DESIGN §6).
    /// Work moves only by lease, and every lease granted is adopted
    /// exactly once.
    #[test]
    fn sharded_fleets_merge_to_a_solo_servers_artifact() {
        let json = |outputs: &[DockingOutput]| serde_json::to_string(outputs).unwrap();
        let solo = json(&fleet(vec![Server::shard(0, 1)], 7).merged());
        for (shards, trust) in [
            (2, TrustConfig::off()),
            (4, TrustConfig::off()),
            (2, TrustConfig::on()),
        ] {
            let faults = ServerFaults {
                trust,
                ..ServerFaults::default()
            };
            let servers = (0..shards).map(|a| Server {
                faults,
                ..Server::shard(a, shards)
            });
            let world = fleet(servers.collect(), 7);
            let label = format!("{shards} shards, trust {}", trust.enabled);
            assert_eq!(json(&world.merged()), solo, "{label}");
            for a in 0..shards {
                let state = world.state(usize::from(a));
                assert_eq!(
                    world.loops[usize::from(a)].core.spec(),
                    ShardSpec {
                        shard_id: a,
                        shards
                    }
                );
                assert_eq!(state.trust_summary(world.now).is_some(), trust.enabled);
                for b in (0..shards).filter(|&b| b != a) {
                    let granted = state
                        .leases_granted_to(b)
                        .into_iter()
                        .map(|(lease, _)| lease);
                    let held = world.state(usize::from(b)).leases_held_from(a);
                    assert_eq!(held, granted.collect::<Vec<_>>(), "{a} to {b}: {label}");
                }
            }
            let sum = |count: fn(NetStats) -> u64| {
                (0..shards)
                    .map(|a| count(world.stats(usize::from(a))))
                    .sum::<u64>()
            };
            assert_eq!(sum(|s| s.shard_leases_in), sum(|s| s.shard_leases_out));
            assert!(
                shards == 2 || sum(|s| s.shard_leases_out) > 0,
                "four shards lease"
            );
            assert_eq!(
                sum(|s| s.shard_wus_leased_in),
                sum(|s| s.shard_wus_leased_out)
            );
        }
    }

    /// Every volunteer parked on shard 0: the campaign can only finish
    /// if steering moves shard 1's work to where the demand is (leases)
    /// or the demand to the work (redirects). A volunteer follows at
    /// most one redirect per ask, so two drained shards pointing at
    /// each other cannot trap it.
    #[test]
    fn volunteers_on_one_shard_finish_the_campaign_by_steering() {
        let mut world = World::new(vec![Server::shard(0, 2), Server::shard(1, 2)]);
        for agent in 1..=3 {
            world.volunteer(AgentConfig::new("shard-0", agent));
        }
        world.finish(&mut ChaCha8Rng::seed_from_u64(3), |_, _| {});
        world.assert_the_end();
        let followed: u64 = (0..3)
            .map(|v| {
                assert!(world.report(v).saw_completion, "volunteer {v} saw the end");
                world.report(v).redirects_followed
            })
            .sum();
        let [s0, s1] = [0, 1].map(|a| world.stats(a));
        let steered = s0.shard_leases_in + s1.shard_leases_out + s0.shard_redirects;
        assert!(steered > 0, "no lease, no redirect: {s0:?} / {s1:?}");
        // Every redirect either shard issued reached a volunteer and
        // was followed exactly once, or declined as the second bounce
        // of an ask that had followed one.
        let declined: u64 = (0..3).map(|v| world.declined(v)).sum();
        let issued = s0.shard_redirects + s1.shard_redirects;
        assert_eq!(followed + declined, issued, "{followed} followed");
    }

    /// Shard 1, played by hand against a live shard 0, pins lease
    /// idempotence frame by frame: a hungry status holding nothing draws
    /// one grant; the same status again (duplicate gossip, a lost
    /// adoption) re-sends that grant, same id and workunits, and cuts
    /// nothing new; a status holding it draws the next grant, disjoint
    /// from the first — until shard 0's slice is leased away.
    #[test]
    fn duplicate_gossip_resends_the_same_lease_never_a_new_one() {
        let net = &mut World::new(vec![Server::shard(0, 2)]);
        let mut peer = net.connect(0);
        let (first, ack) = peer.gossip(net, status(1, &[], 0, true));
        let acked = |complete| Message::StatusAck { shard: 0, complete };
        assert_eq!(ack, acked(false));
        assert_eq!(first.len(), 1, "a hungry status draws one grant");
        assert!(!first[0].1.is_empty());
        let (again, _) = peer.gossip(net, status(1, &[], 0, true));
        assert_eq!(again, first, "duplicate gossip re-sends, never re-cuts");

        let (mut held, mut leased) = (vec![first[0].0], first[0].1.clone());
        loop {
            let (grants, _) = peer.gossip(net, status(1, &held, 0, true));
            if grants.is_empty() {
                break;
            }
            for (lease, wus) in grants {
                assert!(!held.contains(&lease), "every grant has a fresh lease id");
                assert!(
                    wus.iter().all(|wu| !leased.contains(wu)),
                    "{wus:?} leased twice"
                );
                held.push(lease);
                leased.extend(wus);
            }
        }
        let slice = ownership_map(
            &net.loops[0].core.slots()[0].campaign,
            net.loops[0].core.spec(),
        );
        let slice: Vec<u32> = (0..)
            .zip(slice)
            .filter(|&(_, own)| own)
            .map(|(wu, _)| wu)
            .collect();
        leased.sort_unstable();
        assert_eq!(leased, slice, "the leases drained exactly shard 0's slice");

        assert_eq!(peer.gossip(net, finished(&held)), (vec![], acked(true)));
        assert!(net.loops[0].core.done(), "both slices complete");
        let stats = net.stats(0);
        assert_eq!(stats.shard_leases_out, held.len() as u64);
        assert_eq!(stats.shard_wus_leased_out, leased.len() as u64);
        assert_eq!(stats.shard_leases_in, 0);
    }

    /// Two journaled shards and three volunteers at home on shard 1, so
    /// shard 0's work moves only by lease (or its volunteers by
    /// redirect), run by `seed`: shard 0 is killed the first step it has
    /// granted a lease that shard 1 has not adopted yet, and comes back
    /// from its wal. The world, whether it reached its end, and whether
    /// the kill came.
    fn killed_mid_lease(seed: u64) -> (World, bool, bool) {
        let journaled = |a| Server::shard(a, 2).journaled();
        let mut world = World::new(vec![journaled(0), journaled(1)]);
        for agent in 1..=3 {
            world.volunteer(AgentConfig::new("shard-1", agent));
        }
        let mut killed = false;
        let ended = world.run(&mut ChaCha8Rng::seed_from_u64(seed), |world, _| {
            let granted = !world.state(0).leases_granted_to(1).is_empty();
            if !killed && granted && world.state(1).leases_held_from(0).is_empty() {
                world.kill_and_reopen(0);
                killed = true;
            }
        });
        (world, ended, killed)
    }

    /// The one seed of `0..40` on which [`killed_mid_lease`] strands
    /// work: the known hole pinned below.
    const STRANDED: u64 = 37;

    /// Across a kill between a grant and its adoption, no workunit is
    /// owned by both shards at any point, none is validated by both, and
    /// the merge is the baseline. Swept over seeds `0..40`: the kill
    /// comes only on a seed whose history starts a step with a grant in
    /// flight, written by shard 0 and not yet read by shard 1. On most
    /// seeds shard 1 reads every grant within the step that wrote it,
    /// and nothing is killed; every seed must still end, bar
    /// [`STRANDED`].
    #[test]
    fn a_shard_killed_mid_lease_comes_back_owning_what_it_kept() {
        let mut kills = 0;
        for seed in (0..40).filter(|&seed| seed != STRANDED) {
            let (mut world, ended, killed) = killed_mid_lease(seed);
            assert!(ended, "seed {seed} (killed: {killed})");
            kills += u32::from(killed);
            for wu in 0..baseline().len() {
                let validated = |a: usize| world.state(a).outputs()[wu].is_some();
                assert!(validated(0) != validated(1), "seed {seed}: workunit {wu}");
            }
            world.assert_the_end();
        }
        assert!(kills >= 10, "the kill landed on {kills} seeds of 39");
    }

    /// A known liveness hole, pinned by seed: steering moves only work
    /// never issued. On seed 37 of the history above, a visitor's report
    /// dies with the killed shard 0; told `NoWork` while that replica is
    /// still out, the visitors fall home; the replica expires and waits
    /// to be reissued on a shard that has no volunteers of its own and
    /// advertises no backlog, so nobody is ever sent there and shard 0
    /// never completes. This test fails once the hole is closed; the
    /// sweep above then takes seed 37 back.
    #[test]
    fn known_hole_expired_work_on_a_shard_without_volunteers_is_stranded() {
        let (world, ended, killed) = killed_mid_lease(STRANDED);
        assert!(killed && !ended);
        let stranded = world.state(0);
        assert!(!stranded.is_campaign_complete());
        assert_eq!(stranded.core().fresh_backlog(), 0, "nothing to lease");
        assert_eq!(stranded.outstanding_len(), 0, "nothing in flight");
        assert_eq!(world.board(1).backlog[0], 0, "no redirect to shard 0");
    }

    /// A known liveness hole, DESIGN §6's termination window, pinned by
    /// script: shard 1 finishes its slice and tells shard 0, then goes
    /// down before it hears shard 0 finish. Shard 0's dial to it fails
    /// with its completion already on shard 0's board, so shard 0 takes
    /// it for gone and finished, and leaves. Restarted from its wal,
    /// shard 1 knows its own completion only, has nobody left to gossip
    /// with, tells its volunteers the campaign is open, and never
    /// becomes done. This test fails once the hole is closed; the fix is
    /// for an exhaustive search to find and judge (ROADMAP item 11).
    #[test]
    fn known_hole_a_peer_down_before_it_hears_us_finish_never_does() {
        let journaled = |a| Server::shard(a, 2).journaled();
        let net = &mut World::new(vec![journaled(0), journaled(1)]);
        // Shard 1 finishes its slice; its first steering tick dials,
        // its second tells shard 0, which records it.
        net.connect(1).hello(2, net).work(net, baseline());
        net.steer(1);
        net.steer(1);
        pump_until(net, |net| net.board(0).complete[1]);
        // Shard 0 finishes its own, and shard 1 goes down before shard
        // 0's first steering tick could tell it.
        net.connect(0).hello(1, net).work(net, baseline());
        assert!(net.loops[0].core.done() && !net.board(1).complete[0]);
        net.leave(1);
        net.steer(0);
        assert!(net.loops[0].core.may_leave(), "the failed dial settled it");
        pump_until(net, |net| net.loops[0].conns.is_empty());
        assert!(net.loops[0].over(t(net.now)).is_some(), "shard 0 may leave");
        net.leave(0);

        net.kill_and_reopen(1);
        assert!(net.state(1).is_campaign_complete(), "its own slice");
        assert!(!net.board(1).complete[0], "its wal holds no word of 0");
        let mut volunteer = net.connect(1).hello(3, net);
        let ask = volunteer.exchange(&Message::RequestWork, net);
        let open = matches!(
            ask,
            Message::NoWork {
                campaign_complete: false,
                ..
            }
        );
        assert!(open, "{ask:?}");
        drop(volunteer);
        let ended = net.run(&mut ChaCha8Rng::seed_from_u64(0), |_, _| {});
        assert!(!ended && !net.loops[1].core.done());
    }

    /// A saboteur among three honest volunteers, under the trust policy,
    /// on a journaled server killed once the saboteur is quarantined:
    /// the restarted server replays the quarantine, no corrupt result
    /// ever validates, and the artifact is the baseline.
    #[test]
    fn a_saboteurs_quarantine_survives_a_restart() {
        let faults = ServerFaults {
            trust: TrustConfig::on(),
            ..ServerFaults::default()
        };
        let server = Server {
            faults,
            ..Server::shard(0, 1)
        };
        let mut world = World::new(vec![server.journaled()]);
        for agent in 1..=3 {
            world.volunteer(AgentConfig::new("shard-0", agent));
        }
        world.volunteer(AgentConfig {
            profile: FaultProfile::saboteur(),
            ..AgentConfig::new("shard-0", 9)
        });
        let quarantined = |world: &World| world.state(0).agent_trust(9).map(|t| t.quarantine_count);
        let mut killed = false;
        world.finish(&mut ChaCha8Rng::seed_from_u64(9), |world, _| {
            if !killed && quarantined(world) > Some(0) {
                world.kill_and_reopen(0);
                assert!(quarantined(world) > Some(0), "the quarantine replays");
                killed = true;
            }
        });
        assert!(killed, "the saboteur was quarantined");
        let nine = world.state(0).agent_trust(9).unwrap();
        assert!(nine.quarantine_count >= 1, "{nine:?}");
        assert_eq!(nine.accepted, 0, "no corrupt result ever validated");
        world.assert_the_end();
    }

    // ---- The §5.1 failure handling: a vanished volunteer, a saboteur. ----

    /// The seeds each scenario below runs.
    const FAULT_SEEDS: std::ops::Range<u64> = 0..16;

    /// One solo server with trust off, journaled if `journaled`, run by
    /// `seed` to its end: `first` volunteers from the
    /// start, `joining` from the first step `ready` holds. The end is
    /// checked (the artifact is the baseline, a wal replays to the live
    /// books), every volunteer finished `Done`, and one of them saw the
    /// campaign complete. The server's stats.
    fn faulted(
        seed: u64,
        journaled: bool,
        first: AgentConfig,
        mut joining: Vec<AgentConfig>,
        ready: impl Fn(&World) -> bool,
    ) -> (NetStats, ServerStats) {
        let server = Server::shard(0, 1);
        let mut world = World::new(vec![Server {
            journaled,
            ..server
        }]);
        world.volunteer(first);
        let volunteers = 1 + joining.len();
        world.finish(&mut ChaCha8Rng::seed_from_u64(seed), |world, _| {
            if !joining.is_empty() && ready(world) {
                joining.drain(..).for_each(|config| world.volunteer(config));
            }
        });
        world.assert_the_end();
        for v in 0..volunteers {
            let done = Some(crate::agent::Outcome::Done);
            assert_eq!(world.outcome(v), done, "seed {seed}: volunteer {v}");
        }
        let saw_the_end = (0..volunteers).any(|v| world.report(v).saw_completion);
        assert!(saw_the_end, "seed {seed}: no volunteer saw the end");
        (world.stats(0), world.state(0).server_stats())
    }

    /// A volunteer takes one assignment and vanishes with it, no report
    /// and no `Bye` (its PC switched off); two honest volunteers then
    /// join. The abandoned replica expires and is reissued as a timeout,
    /// and the campaign still ends on the baseline.
    fn killed_agent(journaled: bool) {
        for seed in FAULT_SEEDS {
            let victim = AgentConfig {
                die_after: Some(1),
                ..AgentConfig::new("shard-0", 100)
            };
            let honest = (1..=2).map(|agent| AgentConfig::new("shard-0", agent));
            let died = |world: &World| world.outcome(0).is_some();
            let (net, server) = faulted(seed, journaled, victim, honest.collect(), died);
            assert!(net.deadline_expiries >= 1, "seed {seed}: {net:?}");
            assert!(server.timeout_reissues >= 1, "seed {seed}: {server:?}");
        }
    }

    #[test]
    fn killed_agent_times_out_and_campaign_still_completes() {
        killed_agent(false);
    }

    #[test]
    fn killed_agent_times_out_and_campaign_still_completes_journaled() {
        killed_agent(true);
    }

    /// A saboteur corrupts every result and gets its turns first, until
    /// one corrupt result is in; then three honest volunteers join and
    /// outvote it. A corrupt result disagrees with an honest candidate
    /// and the workunit is reissued; none reaches the artifact.
    fn corrupted_results(journaled: bool) {
        for seed in FAULT_SEEDS {
            let saboteur = AgentConfig {
                profile: FaultProfile::saboteur(),
                seed: 5,
                ..AgentConfig::new("shard-0", 666)
            };
            let honest = (1..=3).map(|agent| AgentConfig::new("shard-0", agent));
            let reported = |world: &World| world.report(0).reported >= 1;
            let (net, server) = faulted(seed, journaled, saboteur, honest.collect(), reported);
            assert!(net.quorum_rejected >= 1, "seed {seed}: {net:?}");
            assert!(server.error_reissues >= 1, "seed {seed}: {server:?}");
        }
    }

    #[test]
    fn corrupted_results_are_quorum_rejected_and_the_honest_output_wins() {
        corrupted_results(false);
    }

    #[test]
    fn corrupted_results_are_quorum_rejected_and_the_honest_output_wins_journaled() {
        corrupted_results(true);
    }
}
