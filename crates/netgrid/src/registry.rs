//! The multi-campaign registry: N isolated campaigns under one server.
//!
//! The paper's grid was one project among many on a shared volunteer
//! pool; BOINC models that as *project shares*. Here the registry holds
//! one [`GridState`] per campaign — its own catalog, journal directory
//! and merged artifact — and a
//! [`gridsim::FairShare`] ledger arbitrates which campaign's queue a
//! volunteer ask is served from: deficit-weighted round robin over
//! *delivered reference-seconds*, priority as the tie-break, with
//! work-starved campaigns lending their idle capacity and being repaid
//! through the same deficit accounting.
//!
//! Isolation rules:
//! - Scheduling, validation, payloads, and journals are strictly
//!   per-campaign. A campaign's merged artifact is byte-identical to
//!   the artifact of a solo run of that campaign, because nothing any
//!   other campaign does can reach its `GridState`.
//! - Trust is per-agent but **global across campaigns**: an agent
//!   quarantined by any campaign's ledger is denied work by all of
//!   them (the gate sits above the per-slot fetch, so per-slot journals
//!   never record the cross-campaign denial and replay stays a pure
//!   function of each slot's own records).
//! - Fair-share deliveries are *derived*, not journaled: recovery
//!   re-seeds each campaign's delivered ref-seconds from
//!   `SchedulerCore::completed_ref_seconds()`, the durable source of
//!   truth.

use crate::campaign::NetCampaign;
use crate::faults::ServerFaults;
use crate::journal::{open_journaled, JournalConfig};
use crate::protocol::CampaignParams;
use crate::shard::ShardSpec;
use crate::state::{GridState, ResultDisposition, WorkReply};
use gridsim::server::{ReplicaId, ServerConfig};
use gridsim::{CampaignShare, FairShare, SimTime};
use maxdo::DockingOutput;
use std::io;
use std::sync::Arc;

/// One campaign's registration: its name (journal subdirectory and
/// artifact suffix), recipe, and fair-share weight.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignDef {
    /// Registry key; also the journal subdirectory and the per-campaign
    /// artifact suffix, so it is restricted to `[A-Za-z0-9._-]`.
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
        if share.is_nan() || share <= 0.0 {
            return Err(format!("campaign {name:?}: share must be > 0"));
        }
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
        Ok(Self {
            name: name.into(),
            params,
            share,
            priority,
        })
    }
}

/// One registered campaign: definition, materialised catalog, and the
/// isolated scheduling/validation state.
pub struct Slot {
    /// The registration this slot was built from.
    pub def: CampaignDef,
    /// The materialised catalog (specs + reference outputs).
    pub campaign: Arc<NetCampaign>,
    /// Scheduling, validation, payloads, journal — all per-campaign.
    pub state: GridState,
}

/// N campaigns and the fair-share arbiter over them. The server's
/// event loop owns the one `MultiGrid` by value: every ask, report,
/// sweep, steering frame and ops scrape is a call on it from that one
/// thread, in the order the loop took them.
pub struct MultiGrid {
    slots: Vec<Slot>,
    fair: FairShare,
    /// Fetches denied because the agent is quarantined by *another*
    /// campaign's ledger (the cross-campaign trust gate).
    pub cross_quarantine_denials: u64,
    /// Fair-share error sampled at the last report where every campaign
    /// still had fresh work — the convergence figure the bench reports.
    contended_share_error: Option<f64>,
}

impl MultiGrid {
    /// Builds every slot (recovering each from its journal when one is
    /// configured) and seeds the fair-share ledger from the recovered
    /// delivered ref-seconds. Returns the registry plus the clock
    /// offset recovery reached (the max across slots, so the shared
    /// SimTime axis stays monotone for every campaign).
    ///
    /// Journal layout: a single implicit campaign journals directly in
    /// `cfg.dir` (the pre-registry layout, so existing journals keep
    /// recovering); named multi-campaign setups journal in
    /// `cfg.dir/<name>/` each.
    pub fn open(
        defs: Vec<CampaignDef>,
        scheduler: ServerConfig,
        faults: ServerFaults,
        spec: ShardSpec,
        journal: Option<&JournalConfig>,
    ) -> io::Result<(Self, f64)> {
        assert!(!defs.is_empty(), "registry needs at least one campaign");
        for (i, def) in defs.iter().enumerate() {
            if defs[..i].iter().any(|d| d.name == def.name) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate campaign name {:?}", def.name),
                ));
            }
        }
        let multi = defs.len() > 1;
        let mut slots = Vec::with_capacity(defs.len());
        let mut clock_offset = 0.0f64;
        for def in defs {
            let campaign = Arc::new(NetCampaign::build(def.params));
            let (state, offset) = match journal {
                Some(cfg) => {
                    let cfg = if multi {
                        JournalConfig {
                            dir: cfg.dir.join(&def.name),
                            ..cfg.clone()
                        }
                    } else {
                        cfg.clone()
                    };
                    open_journaled(&cfg, &campaign, scheduler, faults, spec)?
                }
                None => (GridState::new(&campaign, scheduler, faults, spec), 0.0),
            };
            clock_offset = clock_offset.max(offset);
            slots.push(Slot {
                def,
                campaign,
                state,
            });
        }
        let fair = FairShare::new(
            slots
                .iter()
                .map(|s| CampaignShare {
                    share: s.def.share,
                    priority: s.def.priority,
                })
                .collect(),
        );
        let mut grid = Self {
            slots,
            fair,
            cross_quarantine_denials: 0,
            contended_share_error: None,
        };
        grid.reseed_delivered();
        Ok((grid, clock_offset))
    }

    /// Re-derives every campaign's delivered ref-seconds from its
    /// scheduler core — the recovery path and the post-report refresh
    /// share this one definition, so they cannot drift.
    fn reseed_delivered(&mut self) {
        for i in 0..self.slots.len() {
            self.fair
                .set_delivered(i, self.slots[i].state.core().completed_ref_seconds());
        }
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

    pub fn slots_mut(&mut self) -> &mut [Slot] {
        &mut self.slots
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
        self.slots
            .iter()
            .zip(attached)
            .all(|(s, &a)| !a || s.state.is_campaign_complete())
    }

    /// Owned-everywhere fresh backlog across attached campaigns — the
    /// redirect gate's "is there truly nothing local" check.
    pub fn attached_fresh_backlog(&self, attached: &[bool]) -> usize {
        self.slots
            .iter()
            .zip(attached)
            .filter(|(_, &a)| a)
            .map(|(s, _)| s.state.core().fresh_backlog())
            .sum()
    }

    /// One volunteer ask, arbitrated across the campaigns it is
    /// attached to. Returns the campaign index served (meaningful for
    /// `Assigned`; the deepest-deficit attached campaign otherwise).
    ///
    /// Order of business: the global trust gate (quarantined anywhere =
    /// denied everywhere), then attached incomplete campaigns in
    /// fair-share order until one issues. A campaign with nothing to
    /// issue right now simply yields to the next — that is how a
    /// work-starved campaign lends capacity, and the deficit ledger
    /// repays it once its queue refills.
    pub fn fetch(&mut self, now: SimTime, agent: u64, attached: &[bool]) -> (u16, WorkReply) {
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

    /// Books one reported result against its campaign and refreshes the
    /// fair-share ledger from the (possibly grown) delivered total.
    pub fn report(
        &mut self,
        now: SimTime,
        campaign: u16,
        replica: ReplicaId,
        workunit: u32,
        output: DockingOutput,
    ) -> (u16, ResultDisposition) {
        // A stale or forged index cannot be allowed to cross-book into
        // another campaign: clamp to the roster (replica ids that do
        // not exist in the clamped slot are judged unknown there).
        let i = usize::from(campaign).min(self.slots.len() - 1);
        let slot = &mut self.slots[i];
        let d = slot
            .state
            .report(now, &Arc::clone(&slot.campaign), replica, workunit, output);
        self.fair
            .set_delivered(i, self.slots[i].state.core().completed_ref_seconds());
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
        (i as u16, d)
    }

    /// The headline ±5% figure: the fair-share error at the last moment
    /// every campaign still had fresh work (falling back to the current
    /// error when contention never happened — e.g. a single campaign).
    pub fn share_error(&self) -> f64 {
        self.contended_share_error
            .unwrap_or_else(|| self.fair.share_error())
    }

    /// Expires deadlines in every campaign. Returns total expiries.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.slots.iter_mut().map(|s| s.state.sweep(now)).sum()
    }

    /// Settles every campaign journal's fsync debt.
    pub fn flush_journals(&mut self) {
        for s in &mut self.slots {
            s.state.flush_journal();
        }
    }

    /// The monotone high-water mark of the shared clock across slots.
    pub fn last_now(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| s.state.last_now())
            .fold(0.0, f64::max)
    }

    /// The ops-endpoint snapshot: slot 0's full picture (scrape
    /// continuity for the single-campaign families) plus one
    /// [`crate::state::CampaignOps`] row per campaign and the global
    /// fair-share health figures.
    pub fn ops_snapshot(&self) -> crate::state::OpsSnapshot {
        let mut snap = self.slots[0].state.ops_snapshot();
        snap.campaigns = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let wu = s.state.core().wu_state_counts();
                crate::state::CampaignOps {
                    name: s.def.name.clone(),
                    share: self.fair.share(i),
                    priority: s.def.priority,
                    delivered_ref_seconds: self.fair.delivered(i),
                    deficit: self.fair.deficit(i),
                    borrows: self.fair.borrows(i),
                    workunits: wu.total,
                    workunits_done: wu.done,
                    fresh_backlog: s.state.core().fresh_backlog(),
                    outstanding_replicas: s.state.outstanding_len(),
                    complete: s.state.is_campaign_complete(),
                }
            })
            .collect();
        snap.campaign_share_error = self.share_error();
        snap.cross_quarantine_denials = self.cross_quarantine_denials;
        snap.last_now = self.last_now();
        snap
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Verdict;

    fn defs_70_30() -> Vec<CampaignDef> {
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
            .map(|s| s.state.accepted_outputs().expect("complete"))
            .collect()
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

    /// An unknown/forged campaign index cannot cross-book: the report
    /// is clamped into the roster and judged against *that* slot's
    /// replicas (where a forged replica id is simply unknown).
    #[test]
    fn forged_campaign_index_is_clamped_not_trusted() {
        let mut grid = open_ram(defs_70_30());
        let attached = vec![true, true];
        let (cidx, reply) = grid.fetch(SimTime::new(0.1), 1, &attached);
        let WorkReply::Assigned(a) = reply else {
            panic!("first ask assigns");
        };
        let slot = grid.slot(cidx).expect("slot");
        let output = slot.campaign.compute(slot.campaign.spec(a.workunit));
        let (booked, d) = grid.report(SimTime::new(0.2), 999, a.replica, a.workunit, output);
        assert_eq!(usize::from(booked), grid.len() - 1);
        assert!(
            !matches!(d.verdict, Verdict::Accepted),
            "forged index must not validate work in another campaign"
        );
    }
}
