//! One server's decisions: the multi-campaign registry and the server
//! half of the wire protocol.
//!
//! [`MultiGrid`] is told what happened and when — a decoded frame on a
//! volunteer's connection, a sweep tick — and answers with the frames
//! to queue and, when the dialogue is over, the close reason. It
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
use crate::shard::ShardSpec;
use crate::state::{GridState, ResultDisposition, Verdict, WorkReply};
use gridsim::sched::{ReplicaId, ServerConfig};
use gridsim::{CampaignShare, FairShare, SimTime};
use maxdo::DockingOutput;
use serde::Serialize;
use std::borrow::Cow;
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
/// replica deadline the scheduler asserts is positive, the feeder cache
/// it asserts is absent, and the trust policy's rates and durations,
/// which the wal header holds.
fn check_policy(scheduler: &ServerConfig, faults: &ServerFaults) -> Result<(), String> {
    let deadline = scheduler.deadline_seconds;
    if deadline.is_nan() || deadline <= 0.0 {
        return Err(format!("deadline_seconds must be > 0, not {deadline}"));
    }
    if scheduler.feeder.is_some() {
        return Err("feeder must be None: the scheduler core has no feeder cache".into());
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
    /// Nothing changed — the sweep expired nothing, or the report names
    /// a campaign this server does not have. Never recorded.
    Unchanged,
}

/// One registered campaign: definition, materialised catalog and the
/// isolated scheduling/validation state. Two slots are `==` when their
/// books are: the catalog is compared by the definition it is built
/// from.
#[derive(Clone)]
pub struct Slot {
    /// The registration this slot was built from.
    pub def: CampaignDef,
    /// The materialised catalog (specs + reference outputs).
    pub campaign: Arc<NetCampaign>,
    /// Scheduling, validation, payloads — all per-campaign.
    pub state: GridState,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.def == other.def && self.state == other.state
    }
}

/// What the protocol remembers about one connection; whoever
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
    /// Whether a `NoWork` or `ResultAck` on it said `campaign_complete`.
    pub(crate) heard: bool,
    /// Whether its last reply, a `NoWork`, sent it to rest.
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

/// A registry [`MultiGrid::fresh`] built, and the header its wal opens
/// with.
#[derive(Clone)]
pub struct Unrecovered {
    grid: MultiGrid,
    header: JournalRecord,
}

impl Unrecovered {
    /// [`MultiGrid::open_bytes`] on this registry: `wal` is replayed into
    /// it, cut back to its last whole record, and given the header when
    /// none of it was whole. The registry and the clock offset recovery
    /// reached.
    pub fn recover_bytes(self, wal: &mut Vec<u8>) -> io::Result<(MultiGrid, f64)> {
        let Self { mut grid, header } = self;
        grid.wal = Some(journal::recover_bytes(wal, &header, |now, command| {
            grid.apply(now, command)
        })?);
        let resume = grid.last_now;
        Ok((grid, resume))
    }
}

/// N campaigns, the fair-share arbiter over them and the command log.
/// Whoever drives the server
/// owns the one `MultiGrid` by value: every frame, tick and ops scrape
/// is a call on it from one thread, in the order they were taken, each
/// with the time it happened. It holds no I/O, so a copy is a fork of
/// the server and `==` says two servers hold the same books and the
/// same open wal batch.
#[derive(Clone, PartialEq)]
pub struct MultiGrid {
    slots: Vec<Slot>,
    fair: FairShare,
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
    ///
    /// `spec` is kept for `benchmarks/gridbench`, which names this
    /// signature, until its next change drops it: one server carries
    /// the campaign, so anything but [`ShardSpec::solo`] is refused
    /// (`InvalidInput`).
    pub fn open(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
        spec: ShardSpec,
        journal: Option<&JournalConfig>,
    ) -> io::Result<(Self, f64)> {
        if spec != ShardSpec::solo() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard {} of {}: this server runs unsharded",
                    spec.shard_id, spec.shards
                ),
            ));
        }
        let (mut grid, header) = Self::build(defs, scheduler, faults)?;
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
        wal: &mut Vec<u8>,
    ) -> io::Result<(Self, f64)> {
        Self::fresh(defs, scheduler, faults)?.recover_bytes(wal)
    }

    /// A registry built and not yet recovered: what
    /// [`Unrecovered::recover_bytes`] replays a wal held in memory into.
    /// A clone recovers without building a catalog again.
    pub fn fresh(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
    ) -> io::Result<Unrecovered> {
        let (grid, header) = Self::build(defs, scheduler, faults)?;
        Ok(Unrecovered { grid, header })
    }

    /// A fresh, unjournaled registry and the header its wal opens with,
    /// once the roster and the policy are known to be ones the code can
    /// honour.
    fn build(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
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
                    state: GridState::new(&campaign, scheduler, faults),
                    campaign,
                }
            })
            .collect();
        let grid = Self {
            slots,
            fair,
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
        let outcome = match *command {
            Command::Fetch {
                agent,
                ref attached,
            } => {
                let (campaign, reply) = self.arbitrate(now, agent, attached);
                Outcome::Fetched { campaign, reply }
            }
            Command::Report { campaign, .. } if usize::from(campaign) >= self.slots.len() => {
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

    /// True once everything `attached` covers validated — what
    /// `campaign_complete` means to that particular agent.
    pub fn attached_complete(&self, attached: &[bool]) -> bool {
        let done = |s: &Slot| s.state.is_campaign_complete();
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

    /// One decoded frame from a volunteer's connection at `now`: makes
    /// the scheduler call it maps to and queues the reply on `out`.
    /// `Err` closes the connection (once queued replies flush) with that
    /// reason.
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
                    ) => {
                        caller.heard |= campaign_complete;
                        Message::NoWork {
                            campaign_complete,
                            retry_after_ms,
                        }
                    }
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
            Message::Bye => return Err("bye"),
            // Server-to-agent frames arriving here mean a confused peer.
            _ => return Err("protocol"),
        };
        caller.resting = matches!(reply, Message::NoWork { .. });
        queue(out, &reply);
        Ok(())
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
    /// catalog is built or the journal touched: a shard topology other
    /// than one server among them. A NaN trust rate used to
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

        // Nor is any shard topology but one server: the grid runs
        // unsharded, and `spec` stays only for the benchmark's sake.
        for (shard_id, shards) in [(0, 2), (1, 2), (0, 4), (1, 1), (0, 0)] {
            let spec = ShardSpec { shard_id, shards };
            let faults = ServerFaults::default();
            let open = MultiGrid::open(solo(tiny), scheduler, faults, spec, Some(&journal));
            let err = open.err().expect("a sharded server is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains("unsharded"), "{err}");
        }
        assert!(!dir.join("wal.bin").exists(), "nothing was journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A feeder cache is refused as the other settings are, before the
    /// scheduler core that asserts it is absent is built or the journal
    /// touched.
    #[test]
    fn a_feeder_is_refused_up_front() {
        let dir = std::env::temp_dir().join(format!("hcmd-core-feeder-{}", std::process::id()));
        let scheduler = ServerConfig {
            feeder: Some(gridsim::FeederConfig),
            ..ServerConfig::default()
        };
        let open = MultiGrid::open(
            vec![CampaignDef::default_solo(CampaignParams::tiny())],
            scheduler,
            ServerFaults::default(),
            ShardSpec::solo(),
            Some(&JournalConfig::new(&dir)),
        );
        let err = open.err().expect("a feeder is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("feeder"), "{err}");
        assert!(!dir.join("wal.bin").exists(), "nothing was journaled");
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

    use crate::journal::{JournalRecord, RecordReader};
    use crate::world::{baseline, books, frames, open_grid, t, Server, World, ADDR};
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

    /// A report naming a campaign off the roster is refused, not
    /// clamped onto the last campaign. There, replica ids are numbered
    /// afresh, so the forged frame below names the very replica beta has
    /// in flight to agent 2 for the same workunit: clamped, as it was,
    /// agent 2's ledger took the verdict of a report agent 1 sent, and a
    /// journal would have recorded it under beta. Refused, it leaves
    /// books and wal as they were, and closes with "protocol".
    #[test]
    fn a_forged_campaign_index_is_refused_not_clamped() {
        let wal = &mut Vec::new();
        let mut grid = open_grid(defs_70_30(), ServerFaults::default(), Some(wal));
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
        let mut grid = open_grid(defs_70_30(), ServerFaults::default(), Some(&mut wal));
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

    /// Totality: every frame kind, before and after `Hello`, draws
    /// frames or a close reason and never a panic; and a frame refused
    /// as `"protocol"` leaves the books and the wal as they were.
    #[test]
    fn every_frame_kind_in_every_place_is_answered_or_refused() {
        let wal = &mut Vec::new();
        let mut grid = open_grid(defs_70_30(), ServerFaults::default(), Some(wal));
        let mut places: Vec<(&str, Caller)> = vec![
            ("before Hello", Caller::default()),
            ("after Hello", hello(&mut grid, 1.0, 42)),
        ];
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
            // What a connection draws, whatever it said before.
            let expected: Result<usize, &str> = match &msg {
                Message::ResultReport { campaign: 2.., .. } => Err("protocol"),
                Message::Hello { .. } | Message::RequestWork | Message::ResultReport { .. } => {
                    Ok(1)
                }
                Message::Bye => Err("bye"),
                _ => Err("protocol"),
            };
            for (place, caller) in &mut places {
                let before = books(&grid);
                let (replies, closed) = tell(&mut grid, 2.0, caller, msg.clone());
                let heard = closed.map_or(Ok(replies.len()), Err);
                assert_eq!(heard, expected, "{place}: {msg:?}");
                if closed == Some("protocol") {
                    assert!(replies.is_empty());
                    assert_eq!(books(&grid), before, "{place}: {msg:?}");
                    refused += 1;
                }
            }
        }
        assert_eq!(refused, 5 * 2);
    }

    /// A core is a value: cloned mid-history from a journaled world,
    /// original and copy, told the same frames and ticks at the same
    /// times, stay `==` — books, ledger and open wal batch — and
    /// commit the same wal bytes; one ask from another agent sets them
    /// apart. The key a search over world states deduplicates by.
    #[test]
    fn a_cloned_core_stays_equal_while_it_hears_what_its_original_does() {
        let net = &mut World::new(Server::tiny().journaled());
        let mut agent = net.connect().hello(1, net);
        let report = agent.ask(net, baseline()).expect("work on a fresh server");
        agent.report(&report, net);
        let _in_flight = agent.ask(net, baseline()).expect("more work");
        let mut twin = net.lp.core.clone();
        let mut disks = [net.wal().to_vec(), net.wal().to_vec()];
        let original = &mut net.lp.core;
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

    /// One seeded history, to completion; the wal's bytes. The seed
    /// picks who moves when, in which order the loop serves what reached
    /// it, which connections are cut where, and when the loop is killed
    /// (one seed in four, and one in eight more) or loses power during
    /// its next wal write, and how much of that write lands (one in
    /// eight). A failing run names its seed. Also how many volunteers'
    /// dials found the loop gone, how many power cuts landed, and how
    /// many volunteers' reply deadlines ran out.
    fn run_seeded_grid(seed: u64) -> (Vec<u8>, u64, u64, u64) {
        let history = move || {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut world = World::seeded(seed);
            let power_cut = seed % 8 == 2;
            let killed = seed.is_multiple_of(4) || seed % 8 == 5;
            let crash_at = (killed || power_cut).then(|| rng.gen_range(20..300u32));
            let landed: u64 = if power_cut { rng.gen() } else { 0 };
            world.finish(&mut rng, |world, step| match crash_at {
                Some(at) if at == step && power_cut => world.cut_power(landed),
                Some(at) if at == step => world.kill_and_reopen(),
                _ => {}
            });
            let timeouts = world.fleet.timeouts;
            (
                world.assert_the_end(),
                world.gone_dials,
                world.power_cuts,
                timeouts,
            )
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
    /// back to the last whole record (the world checks) — the artifact
    /// is the baseline, the loop never wrote ahead of its records, the
    /// campaign finished within the step budget while its volunteers
    /// lived, the loop left and every volunteer finished (giving up only
    /// once the campaign was over), and the wal replays to the live
    /// books — campaign state and fair-share ledger. The loop leaves
    /// while volunteers are still out (a flaky one resting after a
    /// dropped connection, one cut off), so on some seeds a volunteer
    /// finds it gone. No volunteer's reply deadline ever runs out: one
    /// that did would be a connection the loop starved for
    /// `fleet::IO_TIMEOUT`. What the seed does not
    /// yet do — duplicate or delay frames, jump the clock — is ROADMAP
    /// item 1.
    #[test]
    fn seeded_grids_finish_with_the_baseline_artifact() {
        let (mut gone, mut power_cuts) = (0, 0);
        for seed in SEEDS {
            let (_, dials, cuts, timeouts) = run_seeded_grid(seed);
            (gone, power_cuts) = (gone + dials, power_cuts + cuts);
            assert_eq!(timeouts, 0, "seed {seed}: a reply deadline ran out");
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

    /// A saboteur among three honest volunteers, under the trust policy,
    /// on a journaled server killed once the saboteur is quarantined:
    /// the restarted server replays the quarantine, no corrupt result
    /// ever validates, and the artifact is the baseline.
    #[test]
    fn a_saboteurs_quarantine_survives_a_restart() {
        let faults = ServerFaults {
            trust: TrustConfig::on(),
        };
        let server = Server {
            faults,
            ..Server::tiny()
        };
        let mut world = World::new(server.journaled());
        for agent in 1..=3 {
            world.volunteer(AgentConfig::new(ADDR, agent));
        }
        world.volunteer(AgentConfig {
            profile: FaultProfile::saboteur(),
            ..AgentConfig::new(ADDR, 9)
        });
        let quarantined = |world: &World| world.state().agent_trust(9).map(|t| t.quarantine_count);
        let mut killed = false;
        world.finish(&mut ChaCha8Rng::seed_from_u64(9), |world, _| {
            if !killed && quarantined(world) > Some(0) {
                world.kill_and_reopen();
                assert!(quarantined(world) > Some(0), "the quarantine replays");
                killed = true;
            }
        });
        assert!(killed, "the saboteur was quarantined");
        let nine = world.state().agent_trust(9).unwrap();
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
        let mut world = World::new(Server {
            journaled,
            ..Server::tiny()
        });
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
        (world.stats(), world.state().server_stats())
    }

    /// A volunteer takes one assignment and vanishes with it, no report
    /// and no `Bye` (its PC switched off); two honest volunteers then
    /// join. The abandoned replica expires and is reissued as a timeout,
    /// and the campaign still ends on the baseline.
    fn killed_agent(journaled: bool) {
        for seed in FAULT_SEEDS {
            let victim = AgentConfig {
                die_after: Some(1),
                ..AgentConfig::new(ADDR, 100)
            };
            let honest = (1..=2).map(|agent| AgentConfig::new(ADDR, agent));
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
                ..AgentConfig::new(ADDR, 666)
            };
            let honest = (1..=3).map(|agent| AgentConfig::new(ADDR, agent));
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
