//! The server the wal tests drive: one campaign behind a `MultiGrid`,
//! asked, told and swept with the calls a bare `GridState` takes — each
//! one a command the registry applies and, journaled, records — and
//! read through that campaign's state.

#![allow(dead_code)] // each test crate drives its own subset

use gridsim::server::{ReplicaId, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use netgrid::{
    CampaignDef, CampaignParams, Command, GridState, JournalConfig, MultiGrid, Outcome,
    ResultDisposition, ServerFaults, ShardSpec, TrustSummary, WorkReply,
};
use std::borrow::Cow;
use std::io;
use std::ops::Deref;

/// A one-campaign registry, read as its campaign's [`GridState`].
pub struct OneCampaign(pub MultiGrid);

impl OneCampaign {
    /// Opens the campaign `params` describes as `shard`, recovering it
    /// from `journal` when one is given; the clock offset recovery
    /// reached.
    pub fn open(
        params: CampaignParams,
        config: ServerConfig,
        faults: ServerFaults,
        shard: ShardSpec,
        journal: Option<&JournalConfig>,
    ) -> io::Result<(Self, f64)> {
        let roster = vec![CampaignDef::default_solo(params)];
        let (grid, resume) = MultiGrid::open(roster, config, faults, shard, journal)?;
        Ok((Self(grid), resume))
    }

    pub fn fetch(&mut self, now: SimTime, agent: u64) -> WorkReply {
        self.0.fetch(now, agent, &[true]).1
    }

    pub fn report(
        &mut self,
        now: SimTime,
        replica: ReplicaId,
        workunit: u32,
        output: DockingOutput,
    ) -> ResultDisposition {
        self.0.report(now, 0, replica, workunit, output).1
    }

    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.0.sweep(now)
    }

    /// A lease of at most `max` workunits cut for `to_shard`.
    pub fn grant_lease(
        &mut self,
        now: SimTime,
        to_shard: u16,
        max: u32,
    ) -> Option<(u64, Vec<u32>)> {
        let grant = Command::Grant {
            campaign: 0,
            to_shard,
            max,
        };
        match self.0.apply(now, &grant) {
            Outcome::Granted { lease, wus } => Some((lease, wus)),
            _ => None,
        }
    }

    /// A peer's lease adopted; the workunits it moved (none when the
    /// lease is held already).
    pub fn adopt_lease(&mut self, now: SimTime, lease: u64, wus: &[u32]) -> usize {
        let wus = Cow::Borrowed(wus);
        let adopt = Command::Adopt {
            campaign: 0,
            lease,
            wus,
        };
        match self.0.apply(now, &adopt) {
            Outcome::Adopted(moved) => moved as usize,
            _ => 0,
        }
    }

    pub fn journal_fsync_phase(&self) -> Option<u64> {
        self.0.journal_fsync_phase()
    }

    /// The server's clock: the latest time any command was applied at.
    pub fn last_now(&self) -> f64 {
        self.0.last_now()
    }

    /// The trust census at the server's clock.
    pub fn trust_summary(&self) -> Option<TrustSummary> {
        self.0.slots()[0].state.trust_summary(self.last_now())
    }
}

impl Deref for OneCampaign {
    type Target = GridState;

    fn deref(&self) -> &GridState {
        &self.0.slots()[0].state
    }
}
