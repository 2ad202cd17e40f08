//! The server the wal tests drive: one campaign behind a `MultiGrid`,
//! asked, told and swept with the calls a bare `GridState` takes — each
//! one a command the registry applies and, journaled, records — and
//! read through that campaign's state. Journaled, each call commits its
//! batch into the wal file before it returns, as the server's driver
//! does before a reply leaves.

#![allow(dead_code)] // each test crate drives its own subset

use gridsim::sched::{ReplicaId, ServerConfig};
use gridsim::SimTime;
use maxdo::DockingOutput;
use netgrid::journal::WalFile;
use netgrid::{
    CampaignDef, CampaignParams, Command, GridState, JournalConfig, MultiGrid, Outcome,
    ResultDisposition, ServerFaults, ShardSpec, TrustSummary, WorkReply,
};
use std::borrow::Cow;
use std::io;
use std::ops::Deref;

/// A registry and, when it is journaled, where its batches go.
pub struct Journaled {
    grid: MultiGrid,
    disk: Option<Disk>,
}

/// Where a journaled registry's wal lives.
pub enum Disk {
    /// `wal.bin`, through the file driver.
    File(WalFile),
    /// The wal's bytes.
    Bytes(Vec<u8>),
}

impl Journaled {
    /// Opens the registry `roster` describes as `shard`, recovering it
    /// from `journal` when one is given; the clock offset recovery
    /// reached.
    pub fn open(
        roster: Vec<CampaignDef>,
        config: ServerConfig,
        faults: ServerFaults,
        shard: ShardSpec,
        journal: Option<&JournalConfig>,
    ) -> io::Result<(Self, f64)> {
        let (grid, resume) = MultiGrid::open(roster, config, faults, shard, journal)?;
        let disk = journal.map(WalFile::append).transpose()?.map(Disk::File);
        Ok((Self { grid, disk }, resume))
    }

    /// [`Self::open`] on a wal held in memory, recovered from `wal`.
    pub fn open_bytes(
        roster: Vec<CampaignDef>,
        config: ServerConfig,
        faults: ServerFaults,
        shard: ShardSpec,
        mut wal: Vec<u8>,
    ) -> io::Result<(Self, f64)> {
        let (grid, resume) = MultiGrid::open_bytes(roster, config, faults, shard, &mut wal)?;
        let disk = Some(Disk::Bytes(wal));
        Ok((Self { grid, disk }, resume))
    }

    /// The wal of a registry opened on bytes: what it committed.
    pub fn wal(&self) -> &[u8] {
        match &self.disk {
            Some(Disk::Bytes(wal)) => wal,
            _ => panic!("the wal is not held in memory"),
        }
    }

    /// `outcome` of a call, once its records are on the disk.
    fn committed<T>(&mut self, outcome: T) -> T {
        let committed = self.grid.commit(|batch| match &mut self.disk {
            Some(Disk::File(wal)) => wal.persist(batch),
            Some(Disk::Bytes(wal)) => {
                wal.extend_from_slice(batch);
                Ok(())
            }
            None => Ok(()),
        });
        committed.expect("the disk takes the batch");
        outcome
    }

    pub fn fetch(&mut self, now: SimTime, agent: u64, attached: &[bool]) -> (u16, WorkReply) {
        let fetched = self.grid.fetch(now, agent, attached);
        self.committed(fetched)
    }

    pub fn report(
        &mut self,
        now: SimTime,
        campaign: u16,
        replica: ReplicaId,
        workunit: u32,
        output: DockingOutput,
    ) -> (u16, ResultDisposition) {
        let judged = self.grid.report(now, campaign, replica, workunit, output);
        self.committed(judged)
    }

    pub fn sweep(&mut self, now: SimTime) -> usize {
        let expired = self.grid.sweep(now);
        self.committed(expired)
    }

    pub fn apply(&mut self, now: SimTime, command: &Command) -> Outcome {
        let outcome = self.grid.apply(now, command);
        self.committed(outcome)
    }
}

impl Deref for Journaled {
    type Target = MultiGrid;

    fn deref(&self) -> &MultiGrid {
        &self.grid
    }
}

/// A one-campaign registry, read as its campaign's [`GridState`].
pub struct OneCampaign(pub Journaled);

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
        let (grid, resume) = Journaled::open(roster, config, faults, shard, journal)?;
        Ok((Self(grid), resume))
    }

    /// [`Self::open`] on a wal held in memory, recovered from `wal`.
    pub fn open_bytes(
        params: CampaignParams,
        config: ServerConfig,
        faults: ServerFaults,
        shard: ShardSpec,
        wal: Vec<u8>,
    ) -> io::Result<(Self, f64)> {
        let roster = vec![CampaignDef::default_solo(params)];
        let (grid, resume) = Journaled::open_bytes(roster, config, faults, shard, wal)?;
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
