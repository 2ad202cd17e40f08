//! The live grid: a wire-level task server and volunteer agent.
//!
//! Everything before this crate exercised the HCMD campaign in a single
//! process — the simulator models volunteers statistically, and the
//! scheduler sees only booleans. Here the campaign runs over actual TCP
//! sockets: `hcmd-server` owns the workunit queue, deadlines, reissue
//! and quorum validation; `hcmd-agent` fetches work, runs the real
//! maxdo docking kernel, checkpoints between starting positions, and
//! reports results. The scheduling brain is *shared with the simulator*
//! (`gridsim::SchedulerCore`), so simulated and live campaigns make
//! identical issue/validate decisions by construction.
//!
//! Module map:
//! * [`protocol`] — length-prefixed, checksummed frames in the grid's
//!   one dialect (version byte 4, compact fixed-width binary payload):
//!   every peer runs the agent build the project ships, so nothing is
//!   negotiated and any other version byte is refused on the header.
//!   The journal borrows the framing and keeps its own frame-kind
//!   bytes in that slot (layout table and rationale in the module
//!   docs);
//! * [`campaign`] — deterministic campaign expansion from a tiny recipe
//!   (both ends derive the same library and launch-ordered catalog);
//! * [`state`] — one campaign's transport-free server state:
//!   `SchedulerCore` plus real-payload validation (bounds + byte-level
//!   quorum), wall-clock deadlines, a fixed rest hint for an empty queue;
//! * [`sys`] — a dependency-free readiness shim: epoll on Linux with a
//!   portable `poll(2)` fallback, via direct `extern "C"` declarations,
//!   and the read buffer and flush loop of a nonblocking connection;
//! * `event_loop` — the server's event loop with the I/O and the clock
//!   taken out: every connection's buffers, the timers and every
//!   ordering rule between bytes, timers and the core, stepped by a
//!   driver — sockets in [`server`], in-memory pipes in the tests;
//! * [`server`] — the TCP daemon: the socket driver of that loop — one
//!   readiness poller for volunteers and ops scrapes alike, and the
//!   wall clock; it decides nothing;
//! * [`ops`] — the read-only HTTP endpoint (`GET /metrics`, `GET /`):
//!   renders the server's `MultiGrid` in place, between two frames;
//! * [`agent`] — the volunteer: its protocol decisions as a sans-IO
//!   state machine, and the checkpointed multicore docking it asks for
//!   (fetch → dock → checkpoint → report);
//! * `fleet` — its one driver with the I/O and the clock taken out:
//!   every session of a run and how its steps are carried out (reply
//!   deadlines, ask and dial admission, each workunit docked once),
//!   stepped by a driver — sockets in [`mux`], pipes in the tests;
//! * [`mux`] — the fleet's socket driver: one thread carrying one
//!   session (`run_agent`, docking on that thread) or thousands (a
//!   fleet, for scale benchmarking without a thread per agent) over
//!   nonblocking sockets;
//! * [`registry`] — one server's decisions, sans-IO and sans-clock: N
//!   isolated campaign states under a deficit-weighted fair-share
//!   ledger, and the server half of the protocol as calls that take
//!   the time and return frames; every
//!   decision a restart must rebuild is one `Command` through
//!   `MultiGrid::apply`;
//! * [`shard`] — the two names of the retired multi-server sharding
//!   the benchmark still calls: the solo [`ShardSpec`] and
//!   [`merge_artifacts`];
//! * [`faults`] — deterministic fault injection: disconnects, stalls
//!   past the deadline, bit-flipped payloads; the server's trust policy;
//! * [`journal`] — the write-ahead journal: one append-only `wal.bin`
//!   per server, the log of the commands `MultiGrid::apply` applied,
//!   which recovery folds the same call over, so a `kill -9`
//!   mid-campaign resumes from disk and finishes with the identical
//!   merged artifact;
//! * [`trust`] — the trust-adaptive replication policy: a journaled
//!   per-agent accept/reject ledger drives three replication bands
//!   (trusted singles with seeded spot checks, probation quorum,
//!   untrusted quarantine with exponential re-admission).
//!
//! See DESIGN.md §6 for the frame layout, both state machines, how
//! each injected fault maps to a §5.1 failure class, and the journal's
//! durability/recovery invariants.

pub mod agent;
pub mod campaign;
mod event_loop;
pub mod faults;
mod fleet;
pub mod journal;
pub mod mux;
pub mod ops;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod shard;
pub mod state;
pub mod sys;
pub mod trust;
#[cfg(test)]
mod world;

pub use agent::{AgentConfig, AgentReport};
pub use campaign::NetCampaign;
pub use faults::{FaultAction, FaultDice, FaultProfile, ServerFaults};
pub use journal::{FsyncPolicy, JournalConfig, JournalRecord, RecordReader};
pub use mux::{run_agent, run_mux_fleet};
pub use ops::http_get;
pub use protocol::{CampaignParams, Codec, DecodeError, Message};
pub use registry::{CampaignDef, Command, MultiGrid, Outcome, Slot, Unrecovered};
pub use server::{CampaignRunReport, NetRunReport, NetServer, NetServerConfig};
pub use shard::{merge_artifacts, ShardSpec};
pub use state::{
    fingerprint, AgentLedger, GridState, NetStats, ResultDisposition, TrustSummary, Verdict,
    WorkReply,
};
pub use trust::{AgentTrust, TrustBand, TrustConfig};
