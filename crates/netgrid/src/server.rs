//! The wire-level task server.
//!
//! A small, dependency-free TCP daemon built as a **single-threaded
//! nonblocking event loop**: one [`crate::sys::Poller`] watches the
//! listener and every volunteer socket, and each connection advances a
//! tiny state machine (accumulate bytes → decode frame → dispatch →
//! queue reply → flush). The scheduling itself never left
//! `gridsim::SchedulerCore` — this module only moves frames and maps
//! wall-clock time onto the core's [`SimTime`] axis (seconds since
//! server start, so a wall run of a few minutes sits firmly inside day
//! 0's quorum-compare era).
//!
//! Why an event loop: the previous design spawned one OS thread per
//! agent, which topped out around the dozens-of-volunteers scale —
//! 10 000 loopback agents would mean 10 000 stacks and a scheduler
//! meltdown. Here every connection is a few kilobytes of buffer
//! state, the deadline sweeper and the journal fsync policy are timer
//! events on the same loop, and the state mutex (still shared with the
//! ops scrape thread) is only ever taken from this one thread for
//! scheduler calls.
//!
//! Nothing is negotiated: every peer speaks the one wire dialect
//! ([`crate::protocol`]), and a frame with any other version byte closes
//! its connection with reason `"protocol"` before a reply is written.

use crate::faults::ServerFaults;
use crate::journal::JournalConfig;
use crate::ops::OpsServer;
use crate::protocol::{
    decode_versioned, encode_with, CampaignParams, Codec, DecodeError, Message, PROTOCOL_VERSION,
};
use crate::registry::{CampaignDef, MultiGrid};
use crate::shard::{ShardSpec, LEASE_CHUNK, STEER_INTERVAL_MS, STEER_TIMEOUT_MS};
use crate::state::{NetStats, WorkReply};
use crate::sys::{Event as IoEvent, Poller};
use gridsim::server::{ReplicaId, ServerConfig, ServerStats};
use gridsim::SimTime;
use maxdo::DockingOutput;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use telemetry::{self, Event};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests, benches).
    pub addr: String,
    /// The campaign recipe announced to every agent.
    pub campaign: CampaignParams,
    /// Scheduling-core configuration (deadline, validation switch).
    pub scheduler: ServerConfig,
    /// Connection limits and backoff shaping.
    pub faults: ServerFaults,
    /// Deadline-sweep interval, ms.
    pub sweep_ms: u64,
    /// Write-ahead journal location and policy; `None` keeps all state
    /// in RAM (the pre-durability behaviour).
    pub journal: Option<JournalConfig>,
    /// Bind address of the read-only HTTP observability endpoint
    /// (`/metrics`, `/`); `None` disables it. Port 0 lets the OS pick.
    pub ops_addr: Option<String>,
    /// Sharded topology: this server's place in it plus every shard's
    /// listen address. `None` runs the classic single-server campaign.
    pub shard: Option<ShardTopology>,
    /// The campaign roster with fair-share weights. Empty hosts the
    /// single implicit campaign built from `campaign` (slot 0, name
    /// `"default"`) — the pre-registry behaviour, including the journal
    /// layout. Non-empty replaces `campaign` entirely; slot order is
    /// the roster order assignments index.
    pub campaigns: Vec<CampaignDef>,
}

/// One shard's view of the sharded campaign topology.
#[derive(Debug, Clone)]
pub struct ShardTopology {
    /// This server's shard id and the total shard count.
    pub spec: ShardSpec,
    /// Main listener address of every shard, indexed by shard id
    /// (`addrs[spec.shard_id]` is this server's own advertised
    /// address). Steering gossip and agent redirects both use it.
    pub addrs: Vec<String>,
}

impl NetServerConfig {
    /// A loopback configuration: tiny campaign, short deadlines so
    /// stalls and disconnects reissue within seconds.
    pub fn loopback(deadline_seconds: f64) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            campaign: CampaignParams::tiny(),
            scheduler: ServerConfig {
                deadline_seconds,
                ..ServerConfig::default()
            },
            faults: ServerFaults::default(),
            sweep_ms: 50,
            journal: None,
            ops_addr: None,
            shard: None,
            campaigns: Vec::new(),
        }
    }
}

/// What a finished campaign run hands back.
#[derive(Debug)]
pub struct NetRunReport {
    /// The scheduling core's issue/validation statistics.
    pub server_stats: ServerStats,
    /// Wire-layer counters (quorum rejects, expiries, backoffs...).
    pub net_stats: NetStats,
    /// The validated output of every workunit, in catalog order — the
    /// artifact that must match the in-process baseline byte for byte.
    /// Empty for a sharded run (one shard validates only its slice);
    /// use [`Self::partial_outputs`] and merge across shards instead.
    pub outputs: Vec<DockingOutput>,
    /// The validated output per workunit, `Some` exactly where this
    /// server validated — the sharded partial artifact. On a
    /// single-server run every slot is `Some`.
    pub partial_outputs: Vec<Option<DockingOutput>>,
    /// This server's place in the shard topology (solo when unsharded).
    pub shard: ShardSpec,
    /// Wall-clock duration of the run, seconds.
    pub wall_seconds: f64,
    /// Workunits in the campaign.
    pub workunits: usize,
    /// Connections accepted over the run.
    pub connections: u64,
    /// Connections turned away at the limit.
    pub rejected_connections: u64,
    /// Reference CPU seconds burned on results that were not useful.
    pub wasted_ref_seconds: f64,
    /// Trust band census at shutdown; `None` when the policy is off.
    pub trust: Option<crate::state::TrustSummary>,
    /// Per-agent trust ledger at shutdown, sorted by agent id; empty
    /// when the policy is off.
    pub agent_trust: Vec<(u64, crate::trust::AgentTrust)>,
    /// Per-campaign results, in registry slot order. A single implicit
    /// campaign still gets its one row here; the legacy top-level
    /// fields above always describe slot 0.
    pub campaigns: Vec<CampaignRunReport>,
    /// Largest deviation between any campaign's delivered-ref-second
    /// fraction and its configured share (0.0 for a single campaign).
    pub share_error: f64,
    /// Fetches denied by the cross-campaign trust gate (quarantined in
    /// one campaign, asking another).
    pub cross_quarantine_denials: u64,
}

/// One campaign's slice of a finished multi-campaign run.
#[derive(Debug)]
pub struct CampaignRunReport {
    /// Registry name (journal subdirectory, artifact suffix).
    pub name: String,
    /// Normalised fair-share weight.
    pub share: f64,
    /// Fair-share tie-break priority.
    pub priority: u32,
    /// Validated reference-CPU seconds delivered to this campaign.
    pub delivered_ref_seconds: f64,
    /// Times this campaign was served while a larger-deficit campaign
    /// was starved for work — lent capacity, repaid via the deficit.
    pub borrows: u64,
    /// The campaign's merged artifact (empty for a sharded run; merge
    /// `partial_outputs` across shards instead).
    pub outputs: Vec<DockingOutput>,
    /// Validated output per workunit, `Some` where this server
    /// validated — the sharded partial artifact.
    pub partial_outputs: Vec<Option<DockingOutput>>,
    /// Workunits in this campaign's catalog.
    pub workunits: usize,
    /// The campaign scheduler core's issue/validation statistics.
    pub server_stats: ServerStats,
    /// The campaign's wire-layer counters.
    pub net_stats: NetStats,
}

/// A bound, not-yet-running server.
pub struct NetServer {
    listener: TcpListener,
    grid: Arc<Mutex<MultiGrid>>,
    config: NetServerConfig,
    /// Server-clock second the journal replay reached (0 for a fresh
    /// state): added to every `epoch.elapsed()` reading so the SimTime
    /// axis stays monotone across restarts.
    clock_offset: f64,
    /// Bound observability endpoint, when `ops_addr` is configured.
    ops: Option<OpsServer>,
}

/// How long the loop keeps serving after the campaign completes, so an
/// agent sleeping on a `NoWork` backoff (capped at 2 s agent-side) can
/// wake, ask once more, and be told `campaign_complete` instead of
/// finding a dead socket and burning its whole reconnect budget.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

/// Stack scratch of one blocking steering exchange's reads.
const READ_CHUNK: usize = 16 * 1024;

/// The least free space a connection's [`ReadBuf`] offers a `read`:
/// large enough that a typical request frame (a 21-row report is 1.5 KB)
/// arrives in one, small enough to hold per connection ten thousand
/// times over.
const READ_SPACE: usize = 4 * 1024;

/// Bytes received on a connection and not yet decoded into frames.
///
/// The socket is read straight into the buffer: `bytes` stays
/// initialised past `filled` (zeroed once, when it grows — never per
/// read), so there is no scratch chunk to clear and copy out of.
#[derive(Default)]
struct ReadBuf {
    bytes: Vec<u8>,
    filled: usize,
}

impl ReadBuf {
    /// The free space to read into, grown first when under
    /// [`READ_SPACE`] (doubling, so a large frame costs few reads).
    fn space(&mut self) -> &mut [u8] {
        if self.bytes.len() - self.filled < READ_SPACE {
            let grown = self.bytes.len() + self.bytes.len().max(READ_SPACE);
            self.bytes.resize(grown, 0);
        }
        &mut self.bytes[self.filled..]
    }

    /// The received bytes not yet consumed.
    fn pending(&self) -> &[u8] {
        &self.bytes[..self.filled]
    }

    /// Drops the first `n` pending bytes (one decoded frame).
    fn consume(&mut self, n: usize) {
        self.bytes.copy_within(n..self.filled, 0);
        self.filled -= n;
    }
}

/// One live connection's state: buffered bytes in each direction plus
/// the bookkeeping the dispatch needs. The implicit state machine is
/// *reading header → reading payload → dispatching → writing reply* —
/// the first two are simply "does `read_buf` decode yet", the last is
/// "is `write_buf` drained yet".
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet decoded into frames.
    read_buf: ReadBuf,
    /// Encoded replies not yet flushed to the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written so far.
    write_pos: usize,
    /// The agent id learned from `Hello` (0 until then).
    agent: u64,
    /// The campaign attach mask resolved from the `Hello` request —
    /// empty until then (treated as "default campaign only").
    attached: Vec<bool>,
    /// Frames decoded on this connection (for close telemetry).
    frames: u64,
    /// Set when the connection should close once `write_buf` drains,
    /// carrying the close reason for telemetry.
    closing: Option<&'static str>,
    /// A connection turned away at the limit: it gets a `Busy` frame
    /// and a close, and was telemetered as *rejected*, so it must not
    /// emit a `ConnectionClosed` event.
    brushoff: bool,
    /// The interest currently registered with the poller, so interest
    /// updates only hit `epoll_ctl` when something changed.
    interest: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream, brushoff: bool) -> Self {
        Self {
            stream,
            read_buf: ReadBuf::default(),
            write_buf: Vec::new(),
            write_pos: 0,
            agent: 0,
            attached: Vec::new(),
            frames: 0,
            closing: None,
            brushoff,
            interest: (false, false),
        }
    }

    /// Drains as much of `write_buf` as the socket will take. Returns
    /// `Ok(true)` when fully flushed.
    fn flush(&mut self) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        Ok(true)
    }

    /// The interest this connection wants right now: reads while the
    /// dialogue is open, writes only while bytes are queued.
    fn wanted_interest(&self) -> (bool, bool) {
        let pending_write = self.write_pos < self.write_buf.len();
        (self.closing.is_none() && !self.brushoff, pending_write)
    }
}

impl NetServer {
    /// Binds the listener and materialises the campaign. With a journal
    /// configured, this is also the recovery path: any existing wal
    /// under the journal directory is replayed before the first
    /// connection is accepted.
    pub fn bind(config: NetServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        // std's listen backlog is 128; a 10k-agent reconnect storm
        // overflows that and every dropped SYN costs the dialer a 1 s
        // retransmit. Widen it (the kernel clamps to somaxconn).
        crate::sys::widen_listen_backlog(listener.as_raw_fd(), 4096);
        let spec = match &config.shard {
            Some(topo) => {
                if usize::from(topo.spec.shards) != topo.addrs.len()
                    || topo.spec.shard_id >= topo.spec.shards
                {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "shard {}/{} with {} addresses",
                            topo.spec.shard_id,
                            topo.spec.shards,
                            topo.addrs.len()
                        ),
                    ));
                }
                topo.spec
            }
            None => ShardSpec::solo(),
        };
        let defs = if config.campaigns.is_empty() {
            vec![CampaignDef::default_solo(config.campaign)]
        } else {
            config.campaigns.clone()
        };
        let (grid, clock_offset) = MultiGrid::open(
            defs,
            config.scheduler,
            config.faults,
            spec,
            config.journal.as_ref(),
        )?;
        let ops = match &config.ops_addr {
            Some(addr) => Some(OpsServer::bind(addr)?),
            None => None,
        };
        Ok(Self {
            listener,
            grid: Arc::new(Mutex::new(grid)),
            config,
            clock_offset,
            ops,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound observability address, when `ops_addr` is configured
    /// (resolves port 0).
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().and_then(|o| o.local_addr().ok())
    }

    /// Runs the campaign to completion: accepts volunteers, sweeps
    /// deadlines, and returns once every workunit has validated and the
    /// connections have drained (or the shutdown grace expires).
    pub fn run(self) -> io::Result<NetRunReport> {
        let epoch = Instant::now();
        let spec = self
            .config
            .shard
            .as_ref()
            .map_or_else(ShardSpec::solo, |t| t.spec);
        let campaign_count = self.grid.lock().unwrap().len();
        // One board per campaign: lease steering and peer completion
        // are tracked per registry slot across the same peer set.
        let boards = Arc::new(Mutex::new(
            (0..campaign_count)
                .map(|_| ShardBoard::new(spec.shards))
                .collect::<Vec<_>>(),
        ));
        // A journaled restart may recover an already-finished campaign
        // — but a sharded server must still wait on its peers.
        let done = Arc::new(AtomicBool::new(
            spec.shards == 1 && self.grid.lock().unwrap().all_complete(),
        ));

        // The ops thread holds its own registry Arc and serves scrapes
        // until `done` plus a linger window — it must be joined before
        // the state is torn down below.
        let ops_thread = self
            .ops
            .map(|ops| ops.spawn(Arc::clone(&self.grid), Arc::clone(&done)));

        // The steering thread gossips this shard's load picture to
        // every peer and adopts any leases offered back. Inbound gossip
        // is answered by the event loop like any other frame.
        let steer_thread = self.config.shard.clone().map(|topo| {
            let grid = Arc::clone(&self.grid);
            let done = Arc::clone(&done);
            let boards = Arc::clone(&boards);
            std::thread::spawn(move || steer_loop(&topo, &grid, &boards, &done))
        });

        let mut event_loop = EventLoop {
            listener: Some(self.listener),
            grid: Arc::clone(&self.grid),
            done: Arc::clone(&done),
            deadline_seconds: self.config.scheduler.deadline_seconds,
            faults: self.config.faults,
            epoch,
            clock_offset: self.clock_offset,
            poller: Poller::new()?,
            conns: HashMap::new(),
            connections: 0,
            rejected: 0,
            accepted_active: 0,
            shard: self.config.shard.clone(),
            boards: Arc::clone(&boards),
        };
        event_loop.run(Duration::from_millis(self.config.sweep_ms.max(1)))?;
        let connections = event_loop.connections;
        let rejected = event_loop.rejected;
        drop(event_loop);

        // Captured before the ops join: the ops thread lingers ~1 s
        // past completion for late scrapers, and that grace must not
        // inflate the reported campaign duration.
        let wall_seconds = epoch.elapsed().as_secs_f64();
        if let Some(t) = steer_thread {
            let _ = t.join();
        }
        if let Some(t) = ops_thread {
            let _ = t.join();
        }

        let grid = Arc::try_unwrap(self.grid)
            .map_err(|_| ())
            .expect("all state holders joined")
            .into_inner()
            .unwrap();
        let share_error = grid.share_error();
        let cross_quarantine_denials = grid.cross_quarantine_denials;
        let campaigns: Vec<CampaignRunReport> = grid
            .slots()
            .iter()
            .enumerate()
            .map(|(i, slot)| CampaignRunReport {
                name: slot.def.name.clone(),
                share: grid.fair().share(i),
                priority: slot.def.priority,
                delivered_ref_seconds: grid.fair().delivered(i),
                borrows: grid.fair().borrows(i),
                outputs: match spec.shards {
                    1 => slot
                        .state
                        .accepted_outputs()
                        .expect("run() only returns after campaign completion"),
                    _ => Vec::new(),
                },
                partial_outputs: slot.state.partial_outputs(),
                workunits: slot.campaign.len(),
                server_stats: slot.state.server_stats(),
                net_stats: slot.state.net_stats,
            })
            .collect();
        let slot0 = &grid.slots()[0];
        Ok(NetRunReport {
            server_stats: slot0.state.server_stats(),
            net_stats: slot0.state.net_stats,
            wasted_ref_seconds: slot0.state.wasted_ref_seconds(),
            trust: slot0.state.trust_summary(),
            agent_trust: slot0.state.agent_trust_table(),
            partial_outputs: slot0.state.partial_outputs(),
            shard: spec,
            outputs: campaigns[0].outputs.clone(),
            wall_seconds,
            workunits: slot0.campaign.len(),
            connections,
            rejected_connections: rejected,
            campaigns,
            share_error,
            cross_quarantine_denials,
        })
    }
}

/// What the dispatch of one decoded frame asks the loop to do.
enum Disposition {
    /// Queue this reply and keep reading.
    Reply(Message),
    /// Queue several replies — steering gossip can answer one
    /// `ShardStatus` with re-sent grants, a fresh grant, *and* the ack.
    ReplyMany(Vec<Message>),
    /// Close once queued replies flush, with this telemetry reason.
    Close(&'static str),
}

/// What each shard knows about its peers, fed by both gossip
/// directions (inbound `ShardStatus` frames and the acks the steering
/// thread collects). Shared between the event loop and the steering
/// thread.
struct ShardBoard {
    /// Sticky per-shard completion: once a peer reports its owned
    /// slice validated, that never un-happens (leases only move
    /// never-issued work, and a complete shard has none).
    complete: Vec<bool>,
    /// Each peer's last advertised fresh backlog — the redirect target
    /// picker's input.
    backlog: Vec<u64>,
}

impl ShardBoard {
    fn new(shards: u16) -> Self {
        Self {
            complete: vec![false; usize::from(shards)],
            backlog: vec![0; usize::from(shards)],
        }
    }

    fn note(&mut self, shard: u16, complete: bool, backlog: Option<u64>) {
        let i = usize::from(shard);
        if i < self.complete.len() {
            self.complete[i] |= complete;
            if let Some(b) = backlog {
                self.backlog[i] = b;
            }
        }
    }

    /// True when every shard but `me` has reported completion.
    fn peers_complete(&self, me: u16) -> bool {
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

/// The steering thread: every [`STEER_INTERVAL_MS`] it sends this
/// shard's load picture to each peer and applies whatever comes back
/// (lease grants are adopted and journaled; acks update the board).
/// A peer that is down, slow, or over its connection limit costs one
/// bounded timeout and is retried next tick — steering rides the same
/// listener as agent traffic, so no extra port is needed.
fn steer_loop(
    topo: &ShardTopology,
    grid: &Mutex<MultiGrid>,
    boards: &Mutex<Vec<ShardBoard>>,
    done: &AtomicBool,
) {
    let me = topo.spec.shard_id;
    let campaign_count = grid.lock().unwrap().len();
    let mut backoffs_seen = vec![0u64; campaign_count];
    while !done.load(Relaxed) {
        std::thread::sleep(Duration::from_millis(STEER_INTERVAL_MS));
        let mut all_complete = true;
        for (c, seen) in backoffs_seen.iter_mut().enumerate() {
            // One status per campaign per tick: agent demand is
            // "someone asked this campaign and got nothing since the
            // last tick", which gates hunger so an agent-less drained
            // shard never begs work off a loaded one.
            let (mut status, complete) = {
                let g = grid.lock().unwrap();
                let s = &g.slots()[c].state;
                let backoffs = s.net_stats.backoffs_sent;
                let demand = backoffs > *seen;
                *seen = backoffs;
                let complete = s.is_campaign_complete();
                let fresh = s.core().fresh_backlog() as u64;
                (
                    Message::ShardStatus {
                        shard: me,
                        fresh_backlog: fresh,
                        outstanding: s.outstanding_len() as u64,
                        complete,
                        hungry: !complete && fresh == 0 && demand,
                        leases_held: Vec::new(), // per-peer, filled below
                        campaign: c as u16,
                    },
                    complete,
                )
            };
            all_complete &= complete;
            for peer in 0..topo.spec.shards {
                if peer == me {
                    continue;
                }
                if let Message::ShardStatus { leases_held, .. } = &mut status {
                    *leases_held = grid.lock().unwrap().slots()[c].state.leases_held_from(peer);
                }
                let replies = match steer_exchange(&topo.addrs[usize::from(peer)], &status) {
                    Ok(replies) => replies,
                    Err(_) => continue, // down or slow; next tick retries
                };
                for reply in replies {
                    match reply {
                        Message::LeaseGrant {
                            lease,
                            from_shard,
                            wus,
                            complete: peer_complete,
                            campaign,
                        } => {
                            let mut g = grid.lock().unwrap();
                            let i = usize::from(campaign).min(g.len() - 1);
                            // The shared clock lives in the event loop;
                            // the monotone high-water mark is the right
                            // stamp.
                            let now = SimTime::new(g.last_now());
                            g.slots_mut()[i].state.adopt_lease(now, lease, &wus);
                            drop(g);
                            let mut bs = boards.lock().unwrap();
                            bs[i].note(from_shard, peer_complete, None);
                        }
                        Message::StatusAck {
                            shard,
                            complete: peer_complete,
                        } => boards.lock().unwrap()[c].note(shard, peer_complete, None),
                        _ => {}
                    }
                }
            }
        }
        // Completion is decided here as well as on the sweep tick, so a
        // shard whose last workunit validated long ago still notices
        // the moment its final peer reports complete.
        if all_complete && boards.lock().unwrap().iter().all(|b| b.peers_complete(me)) {
            done.store(true, Relaxed);
        }
    }
}

/// One blocking steering exchange: connect, send the status, read
/// frames until the terminating `StatusAck` (or until the peer hangs
/// up / the timeout fires). Every step is bounded by
/// [`STEER_TIMEOUT_MS`].
fn steer_exchange(addr: &str, status: &Message) -> io::Result<Vec<Message>> {
    let timeout = Duration::from_millis(STEER_TIMEOUT_MS);
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable peer"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    stream.write_all(&encode_with(status, Codec))?;
    let mut replies = Vec::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match decode_versioned(&buf) {
            Ok((msg, consumed, _)) => {
                buf.drain(..consumed);
                let last = matches!(msg, Message::StatusAck { .. } | Message::Busy { .. });
                replies.push(msg);
                if last {
                    return Ok(replies);
                }
                continue;
            }
            Err(DecodeError::Incomplete { .. }) => {}
            Err(_) => return Err(io::ErrorKind::InvalidData.into()),
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(replies),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
}

/// The readiness loop and every piece of context its handlers need.
struct EventLoop {
    /// `Some` while accepting; dropped (closing the socket) the moment
    /// the campaign completes, so no new volunteers join the grace
    /// window.
    listener: Option<TcpListener>,
    grid: Arc<Mutex<MultiGrid>>,
    done: Arc<AtomicBool>,
    deadline_seconds: f64,
    faults: ServerFaults,
    epoch: Instant,
    clock_offset: f64,
    poller: Poller,
    conns: HashMap<i32, Conn>,
    connections: u64,
    rejected: u64,
    /// Live accepted (non-brushoff) connections, against
    /// `faults.max_connections`.
    accepted_active: usize,
    /// Sharded topology, when this server is one shard of several.
    shard: Option<ShardTopology>,
    /// Peer completion/backlog picture, one board per campaign
    /// (shared with steering).
    boards: Arc<Mutex<Vec<ShardBoard>>>,
}

impl EventLoop {
    fn now(&self) -> SimTime {
        SimTime::new(self.clock_offset + self.epoch.elapsed().as_secs_f64())
    }

    /// Whether everything this agent is attached to (not just this
    /// shard's slice of it) is done: local completion of the attached
    /// campaigns plus, when sharded, every peer's on each of them.
    fn globally_complete_for(&self, local_complete: bool, attached: &[bool]) -> bool {
        match &self.shard {
            None => local_complete,
            Some(topo) => {
                local_complete
                    && self
                        .boards
                        .lock()
                        .unwrap()
                        .iter()
                        .enumerate()
                        .all(|(i, b)| {
                            !attached.get(i).copied().unwrap_or(i == 0)
                                || b.peers_complete(topo.spec.shard_id)
                        })
            }
        }
    }

    /// Whether the *whole roster* is done everywhere — the server's
    /// shutdown condition.
    fn globally_all_complete(&self, local_all_complete: bool) -> bool {
        match &self.shard {
            None => local_all_complete,
            Some(topo) => {
                local_all_complete
                    && self
                        .boards
                        .lock()
                        .unwrap()
                        .iter()
                        .all(|b| b.peers_complete(topo.spec.shard_id))
            }
        }
    }

    /// The loop proper. Each iteration: wait for readiness or the next
    /// sweep tick, drain the listener, advance ready connections, and
    /// fire timer events (deadline sweep + journal fsync).
    fn run(&mut self, sweep_interval: Duration) -> io::Result<()> {
        let listener_fd = self.listener.as_ref().unwrap().as_raw_fd();
        self.poller.register(listener_fd, true, false)?;
        let mut events: Vec<IoEvent> = Vec::new();
        let mut next_sweep = Instant::now() + sweep_interval;
        let mut done_since: Option<Instant> = None;

        loop {
            // Timer events fold into the same loop: the poll timeout is
            // exactly the time until the next sweep (bounded by the
            // shutdown grace once the campaign is done).
            if Instant::now() >= next_sweep {
                self.sweep_tick();
                next_sweep = Instant::now() + sweep_interval;
            }
            let done = self.done.load(Relaxed);
            if done {
                let since = done_since.get_or_insert_with(Instant::now);
                // Completion: stop accepting, linger through the grace
                // window answering `campaign_complete`, leave as soon
                // as every volunteer has said Bye. A sharded server
                // keeps its listener through the grace so peers that
                // have not yet heard this shard is complete can get one
                // more ack instead of a connection refusal.
                if self.shard.is_none() {
                    if let Some(listener) = self.listener.take() {
                        self.poller.deregister(listener.as_raw_fd())?;
                        drop(listener);
                    }
                }
                let drained = self.shard.is_none() && self.conns.is_empty();
                if drained || since.elapsed() > SHUTDOWN_GRACE {
                    return Ok(());
                }
            }
            let timeout = next_sweep.saturating_duration_since(Instant::now());
            self.poller.wait(Some(timeout), &mut events)?;

            // advance_conn takes each ready connection out of the map,
            // advances it, decides its fate, and puts it back.
            for ev in events.drain(..) {
                if ev.fd == listener_fd && self.listener.is_some() {
                    self.accept_ready()?;
                    continue;
                }
                self.advance_conn(ev);
            }
        }
    }

    /// One sweep tick: expire deadlines, settle the journal's fsync
    /// debt, and notice campaign completion.
    fn sweep_tick(&mut self) {
        let now = self.now();
        let mut g = self.grid.lock().unwrap();
        g.sweep(now);
        g.flush_journals();
        let local = g.all_complete();
        drop(g);
        if self.globally_all_complete(local) {
            self.done.store(true, Relaxed);
        }
    }

    /// Drains the listener: accept every pending connection, brushing
    /// off anything over the limit with a `Busy` frame.
    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            let (stream, _peer) = match self.listener.as_ref().unwrap().accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            stream.set_nonblocking(true)?;
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let limit = self.faults.max_connections;
            if limit > 0 && self.accepted_active >= limit {
                // Turned away before any frame is read: counted (and
                // telemetered) as a rejection, never as an accepted
                // connection.
                self.rejected += 1;
                let retry_after_ms = self.faults.backoff_base_ms.max(1) * 4;
                telemetry::emit(None, || Event::ConnectionRejected { retry_after_ms });
                let mut conn = Conn::new(stream, true);
                conn.write_buf
                    .extend_from_slice(&encode_with(&Message::Busy { retry_after_ms }, Codec));
                conn.closing = Some("busy");
                self.install(fd, conn);
                continue;
            }
            self.connections += 1;
            self.accepted_active += 1;
            self.install(fd, Conn::new(stream, false));
        }
    }

    /// Flushes what it can, registers the connection, and retires it on
    /// the spot if it is already finished (e.g. a brush-off whose Busy
    /// frame fit in the socket buffer).
    fn install(&mut self, fd: i32, mut conn: Conn) {
        match conn.flush() {
            Ok(_) => {}
            Err(_) => {
                conn.closing.get_or_insert("io");
                self.retire(conn);
                return;
            }
        }
        if conn.closing.is_some() && conn.write_pos >= conn.write_buf.len() {
            self.retire(conn);
            return;
        }
        let interest = conn.wanted_interest();
        conn.interest = interest;
        if self.poller.register(fd, interest.0, interest.1).is_ok() {
            self.conns.insert(fd, conn);
        } else {
            conn.closing.get_or_insert("io");
            self.retire(conn);
        }
    }

    /// Advances one connection's state machine for a readiness event:
    /// read what the socket holds, decode and dispatch every complete
    /// frame, flush queued replies, then update poller interest or
    /// retire the connection.
    fn advance_conn(&mut self, ev: IoEvent) {
        let Some(mut conn) = self.conns.remove(&ev.fd) else {
            return;
        };
        if ev.readable || ev.hangup {
            self.read_and_dispatch(&mut conn);
        }
        if conn.write_pos < conn.write_buf.len() && conn.flush().is_err() {
            conn.closing.get_or_insert("io");
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        let finished_flush = conn.write_pos >= conn.write_buf.len();
        if conn.closing.is_some() && finished_flush {
            let _ = self.poller.deregister(ev.fd);
            self.retire(conn);
            return;
        }
        if ev.hangup && conn.closing.is_none() {
            // Error/hangup with nothing left to read: the peer is gone.
            conn.closing = Some("eof");
            let _ = self.poller.deregister(ev.fd);
            self.retire(conn);
            return;
        }
        let wanted = conn.wanted_interest();
        if wanted != conn.interest {
            conn.interest = wanted;
            let _ = self.poller.reregister(ev.fd, wanted.0, wanted.1);
        }
        self.conns.insert(ev.fd, conn);
    }

    /// The read half of the state machine: read what the socket holds
    /// into the connection's buffer, then decode and dispatch every
    /// complete frame in it (an agent may pipeline several).
    ///
    /// A read that comes back short has drained the socket, so the loop
    /// stops there instead of paying a second `read` for `WouldBlock`;
    /// the poller is level-triggered (see [`crate::sys`]), so anything
    /// that arrives later — an EOF included — raises a new event.
    fn read_and_dispatch(&mut self, conn: &mut Conn) {
        if conn.closing.is_some() || conn.brushoff {
            return;
        }
        loop {
            let space = conn.read_buf.space();
            let offered = space.len();
            match conn.stream.read(space) {
                Ok(0) => {
                    conn.closing = Some("eof");
                    break;
                }
                Ok(n) => {
                    conn.read_buf.filled += n;
                    if n < offered {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.closing = Some("io");
                    break;
                }
            }
        }
        let orderly_close = conn.closing;
        conn.closing = None;
        while conn.closing.is_none() {
            match decode_versioned(conn.read_buf.pending()) {
                Ok((msg, consumed, codec)) => {
                    conn.read_buf.consume(consumed);
                    conn.frames += 1;
                    match self.dispatch(&mut conn.agent, &mut conn.attached, msg) {
                        Disposition::Reply(reply) => {
                            conn.write_buf
                                .extend_from_slice(&encode_with(&reply, codec));
                        }
                        Disposition::ReplyMany(replies) => {
                            for reply in replies {
                                conn.write_buf
                                    .extend_from_slice(&encode_with(&reply, codec));
                            }
                        }
                        Disposition::Close(reason) => conn.closing = Some(reason),
                    }
                }
                Err(DecodeError::Incomplete { .. }) => break,
                Err(_) => conn.closing = Some("protocol"),
            }
        }
        // An EOF/error noticed during the reads only takes effect after
        // every already-buffered frame has been dispatched.
        if conn.closing.is_none() {
            conn.closing = orderly_close;
        }
    }

    /// Maps one decoded frame to a scheduler call and a reply — the
    /// dispatch state of the per-connection machine.
    fn dispatch(
        &mut self,
        agent_id: &mut u64,
        attached: &mut Vec<bool>,
        msg: Message,
    ) -> Disposition {
        let now = self.now();
        match msg {
            Message::Hello {
                agent,
                threads: _,
                campaigns,
            } => {
                *agent_id = agent;
                let grid = self.grid.lock().unwrap();
                *attached = grid.attach_mask(&campaigns);
                // The roster travels only when there is one worth
                // announcing; a solo registry sends the recipe in
                // `campaign` and an empty roster.
                let roster = if grid.len() > 1 {
                    grid.roster()
                } else {
                    Vec::new()
                };
                let params = grid.slots()[0].def.params;
                drop(grid);
                telemetry::emit(Some(now.seconds()), || Event::ConnectionOpened { agent });
                Disposition::Reply(Message::HelloAck {
                    protocol: PROTOCOL_VERSION,
                    campaign: params,
                    deadline_seconds: self.deadline_seconds,
                    campaigns: roster,
                })
            }
            Message::RequestWork => {
                let mask = self.attach_or_default(attached);
                let mut grid = self.grid.lock().unwrap();
                let (cidx, reply) = grid.fetch(now, *agent_id, &mask);
                Disposition::Reply(match reply {
                    WorkReply::Assigned(a) => {
                        let spec = grid.slots()[usize::from(cidx)].campaign.spec(a.workunit);
                        Message::Assignment {
                            replica: a.replica.0,
                            workunit: a.workunit,
                            receptor: spec.receptor.0,
                            ligand: spec.ligand.0,
                            isep_start: spec.isep_start,
                            positions: spec.positions,
                            deadline_seconds: self.deadline_seconds,
                            campaign: cidx,
                        }
                    }
                    WorkReply::Backoff {
                        retry_after_ms,
                        campaign_complete,
                    } => {
                        drop(grid);
                        if let Some(redirect) = self.try_redirect(&mask) {
                            redirect
                        } else {
                            Message::NoWork {
                                campaign_complete: self
                                    .globally_complete_for(campaign_complete, &mask),
                                retry_after_ms,
                            }
                        }
                    }
                })
            }
            Message::ResultReport {
                replica,
                workunit,
                campaign,
                output,
            } => {
                let mask = self.attach_or_default(attached);
                let mut grid = self.grid.lock().unwrap();
                let (_, disposition) =
                    grid.report(now, campaign, ReplicaId(replica), workunit, output);
                let attached_done = grid.attached_complete(&mask);
                let all_done = grid.all_complete();
                drop(grid);
                let campaign_complete = self.globally_complete_for(attached_done, &mask);
                if self.globally_all_complete(all_done) {
                    self.done.store(true, Relaxed);
                }
                Disposition::Reply(Message::ResultAck {
                    accepted: matches!(
                        disposition.verdict,
                        crate::state::Verdict::Accepted
                            | crate::state::Verdict::QuorumPending
                            | crate::state::Verdict::Late
                            | crate::state::Verdict::SpotConfirmed
                            | crate::state::Verdict::SpotVoid
                    ),
                    completed_workunit: disposition.completed_workunit,
                    campaign_complete,
                })
            }
            Message::ShardMapRequest => {
                let (shards, self_shard, addrs) = match &self.shard {
                    Some(topo) => (topo.spec.shards, topo.spec.shard_id, topo.addrs.clone()),
                    None => (1, 0, Vec::new()),
                };
                Disposition::Reply(Message::ShardMap {
                    shards,
                    self_shard,
                    addrs,
                })
            }
            Message::ShardStatus {
                shard,
                fresh_backlog,
                outstanding: _,
                complete,
                hungry,
                leases_held,
                campaign,
            } => self.handle_shard_status(
                now,
                campaign,
                shard,
                fresh_backlog,
                complete,
                hungry,
                leases_held,
            ),
            Message::Bye => Disposition::Close("bye"),
            // Server-to-agent and reply frames arriving here mean a
            // confused peer (LeaseGrant/StatusAck only ever travel as
            // replies on the steering connection).
            _ => Disposition::Close("protocol"),
        }
    }

    /// When this shard has nothing to issue but a peer advertises
    /// fresh backlog, answer an agent's ask with a `Redirect` there
    /// instead of a backoff. The agent follows at most one redirect per
    /// ask, and the target was advertising work moments ago, so a
    /// bounce chain cannot form.
    ///
    /// A shard whose own slice is already complete redirects too: it
    /// is the one state in which it can never again look hungry (a
    /// complete slice is skipped by `fetch`, so it records no demand
    /// and begs no lease), and volunteers parked on it would otherwise
    /// poll `NoWork` for ever while a peer's backlog sat untouched. A
    /// slice that validates within one steering interval gets there
    /// before the first lease could have been cut.
    fn try_redirect(&mut self, attached: &[bool]) -> Option<Message> {
        let topo = self.shard.as_ref()?;
        {
            // A backoff with backlog still on hand was a trust denial
            // (quarantine), not a drained queue: the agent waits here.
            let g = self.grid.lock().unwrap();
            if g.attached_fresh_backlog(attached) > 0 {
                return None;
            }
        }
        // The peer worth bouncing to: the deepest advertised backlog
        // across every campaign this agent is attached to.
        let (cidx, peer) = {
            let bs = self.boards.lock().unwrap();
            bs.iter()
                .enumerate()
                .filter(|&(i, _)| attached.get(i).copied().unwrap_or(i == 0))
                .filter_map(|(i, b)| {
                    b.busiest_peer(topo.spec.shard_id)
                        .map(|(peer, backlog)| (i, peer, backlog))
                })
                .max_by_key(|&(_, _, backlog)| backlog)
                .map(|(i, peer, _)| (i, peer))?
        };
        let addr = topo.addrs.get(usize::from(peer))?.clone();
        self.grid.lock().unwrap().slots_mut()[cidx]
            .state
            .note_redirect();
        Some(Message::Redirect { shard: peer, addr })
    }

    /// Answers one inbound gossip frame: update the board, re-send any
    /// grant the sender has not adopted, cut a fresh lease if the
    /// sender is hungry and this shard has backlog to spare, and ack.
    /// The `LeaseOut` journal record is appended (inside the state
    /// lock) *before* the grant frame is queued, so a crash here can
    /// lose a sent grant only in the direction the re-send heals.
    #[allow(clippy::too_many_arguments)]
    fn handle_shard_status(
        &mut self,
        now: SimTime,
        campaign: u16,
        shard: u16,
        fresh_backlog: u64,
        complete: bool,
        hungry: bool,
        leases_held: Vec<u64>,
    ) -> Disposition {
        let Some(topo) = self.shard.clone() else {
            return Disposition::Close("protocol");
        };
        let me = topo.spec.shard_id;
        if shard >= topo.spec.shards || shard == me {
            return Disposition::Close("protocol");
        }
        let mut g = self.grid.lock().unwrap();
        let c = usize::from(campaign);
        if c >= g.len() {
            return Disposition::Close("protocol");
        }
        self.boards.lock().unwrap()[c].note(shard, complete, Some(fresh_backlog));
        let mut replies = Vec::new();
        let s = &mut g.slots_mut()[c].state;
        let local_complete = s.is_campaign_complete();
        // Re-send grants missing from the sender's holdings: our
        // journal says granted, theirs never said adopted — the grant
        // frame died with a connection or a crash. Idempotent on their
        // side, so over-sending is harmless.
        let held: HashSet<u64> = leases_held.into_iter().collect();
        for (lease, wus) in s.leases_granted_to(shard) {
            if !held.contains(&lease) {
                replies.push(Message::LeaseGrant {
                    lease,
                    from_shard: me,
                    wus,
                    complete: local_complete,
                    campaign,
                });
            }
        }
        if hungry && replies.is_empty() {
            if let Some((lease, wus)) = s.grant_lease(now, shard, LEASE_CHUNK) {
                replies.push(Message::LeaseGrant {
                    lease,
                    from_shard: me,
                    wus,
                    complete: local_complete,
                    campaign,
                });
            }
        }
        drop(g);
        replies.push(Message::StatusAck {
            shard: me,
            complete: local_complete,
        });
        Disposition::ReplyMany(replies)
    }

    /// The connection's attach mask, or the default-campaign mask for a
    /// peer that never said `Hello` (or said it before this registry
    /// grew — masks are sized at `Hello` time).
    fn attach_or_default(&self, attached: &[bool]) -> Vec<bool> {
        let len = self.grid.lock().unwrap().len();
        if attached.len() == len {
            attached.to_vec()
        } else {
            let mut mask = vec![false; len];
            mask[0] = true;
            mask
        }
    }

    /// Final close of a connection: emits the paired `ConnectionClosed`
    /// event (brush-offs were telemetered as rejections instead) and
    /// releases its limit slot.
    fn retire(&mut self, conn: Conn) {
        if !conn.brushoff {
            self.accepted_active -= 1;
            let reason = conn.closing.unwrap_or("eof");
            telemetry::emit(None, || Event::ConnectionClosed {
                agent: conn.agent,
                frames: conn.frames,
                reason: reason.into(),
            });
        }
        drop(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::HEADER_BYTES;

    /// An event loop over a solo tiny campaign, with no listener: the
    /// tests hand it connections directly.
    fn event_loop() -> EventLoop {
        let (grid, clock_offset) = MultiGrid::open(
            vec![CampaignDef::default_solo(CampaignParams::tiny())],
            ServerConfig::default(),
            ServerFaults::default(),
            ShardSpec::solo(),
            None,
        )
        .unwrap();
        EventLoop {
            listener: None,
            grid: Arc::new(Mutex::new(grid)),
            done: Arc::new(AtomicBool::new(false)),
            deadline_seconds: 5.0,
            faults: ServerFaults::default(),
            epoch: Instant::now(),
            clock_offset,
            poller: Poller::new().unwrap(),
            conns: HashMap::new(),
            connections: 0,
            rejected: 0,
            accepted_active: 0,
            shard: None,
            boards: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A connected loopback pair: the agent's blocking end and the
    /// server's nonblocking connection.
    fn socket_pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let agent = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        agent.set_nodelay(true).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (agent, Conn::new(stream, false))
    }

    /// Runs the read half until `until` holds. Loopback delivery is
    /// prompt but not synchronous with the writer's `write`, hence the
    /// polling; the deadline only bounds a failing test.
    fn pump(ev: &mut EventLoop, conn: &mut Conn, until: impl Fn(&Conn) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !until(conn) {
            assert!(Instant::now() < deadline, "connection never got there");
            ev.read_and_dispatch(conn);
            std::thread::yield_now();
        }
    }

    fn hello(campaigns: Vec<String>) -> Vec<u8> {
        let msg = Message::Hello {
            agent: 9,
            threads: 1,
            campaigns,
        };
        encode_with(&msg, Codec).to_vec()
    }

    /// The replies queued on the connection, decoded.
    fn replies(conn: &Conn) -> Vec<Message> {
        let mut out = Vec::new();
        let mut rest = &conn.write_buf[..];
        while !rest.is_empty() {
            let (msg, consumed, _) = decode_versioned(rest).expect("a whole reply");
            out.push(msg);
            rest = &rest[consumed..];
        }
        out
    }

    #[test]
    fn a_frame_split_across_two_writes_dispatches_once() {
        let (mut ev, (mut agent, mut conn)) = (event_loop(), socket_pair());
        let frame = hello(Vec::new());
        agent.write_all(&frame[..10]).unwrap();
        pump(&mut ev, &mut conn, |c| c.read_buf.filled == 10);
        assert_eq!(conn.frames, 0);
        assert!(conn.write_buf.is_empty() && conn.closing.is_none());
        agent.write_all(&frame[10..]).unwrap();
        pump(&mut ev, &mut conn, |c| c.frames > 0);
        assert_eq!((conn.frames, conn.read_buf.filled), (1, 0));
        assert!(matches!(replies(&conn)[..], [Message::HelloAck { .. }]));
    }

    #[test]
    fn two_frames_pipelined_in_one_write_each_dispatch_once() {
        let (mut ev, (mut agent, mut conn)) = (event_loop(), socket_pair());
        let mut wire = hello(Vec::new());
        wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
        agent.write_all(&wire).unwrap();
        pump(&mut ev, &mut conn, |c| c.frames >= 2);
        assert_eq!((conn.frames, conn.read_buf.filled), (2, 0));
        assert!(matches!(
            replies(&conn)[..],
            [Message::HelloAck { .. }, Message::Assignment { .. }]
        ));
    }

    #[test]
    fn a_frame_larger_than_one_read_dispatches_once() {
        let (mut ev, (mut agent, mut conn)) = (event_loop(), socket_pair());
        // Unknown campaign names are ignored, so they only add bulk.
        let frame = hello((0..3000).map(|i| format!("campaign-{i:05}")).collect());
        assert!(frame.len() > 8 * READ_SPACE);
        let writer = std::thread::spawn(move || {
            agent.write_all(&frame).unwrap();
            agent
        });
        pump(&mut ev, &mut conn, |c| c.frames > 0);
        let _agent = writer.join().unwrap();
        assert_eq!((conn.frames, conn.read_buf.filled), (1, 0));
        assert!(matches!(replies(&conn)[..], [Message::HelloAck { .. }]));
        ev.read_and_dispatch(&mut conn);
        assert_eq!(conn.frames, 1, "nothing is dispatched twice");
    }

    /// Well-formed `Hello { agent: 9, threads: 1 }` frames as the
    /// dialects this server no longer speaks framed them, recorded from
    /// the last build that did: JSON (v1) and the two narrower binary
    /// layouts (v2, v3).
    const OLD_HELLOS: [&[u8]; 3] = [
        b"HCMD\x01\x30\0\0\0\x1a\x57\xd9\xd4\x54\x27\xbe\x62\
          {\"Hello\":{\"agent\":9,\"threads\":1,\"campaigns\":[]}}",
        b"HCMD\x02\x0d\0\0\0\x40\x59\xc1\xdd\x66\x25\x5c\x7e\0\x09\0\0\0\0\0\0\0\x01\0\0\0",
        b"HCMD\x03\x0d\0\0\0\x40\x59\xc1\xdd\x66\x25\x5c\x7e\0\x09\0\0\0\0\0\0\0\x01\0\0\0",
    ];

    /// A frame in any other dialect closes its connection with reason
    /// `"protocol"` the moment its header is in — no reply byte, no
    /// dispatch, and nothing queued behind it is served either.
    #[test]
    fn an_old_dialect_hello_is_refused_on_header_arrival() {
        for old in OLD_HELLOS {
            assert_eq!(old.len(), HEADER_BYTES + usize::from(old[5]));
            let (mut ev, (mut agent, mut conn)) = (event_loop(), socket_pair());
            agent.write_all(&old[..HEADER_BYTES]).unwrap();
            pump(&mut ev, &mut conn, |c| c.closing.is_some());
            assert_eq!(conn.closing, Some("protocol"), "version {}", old[4]);
            assert!(conn.write_buf.is_empty(), "zero reply bytes");

            // The whole frame, with a session in today's dialect
            // pipelined behind it: still nothing is dispatched.
            let (mut agent, mut conn) = socket_pair();
            let mut wire = old.to_vec();
            wire.extend_from_slice(&hello(Vec::new()));
            wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
            agent.write_all(&wire).unwrap();
            pump(&mut ev, &mut conn, |c| c.closing.is_some());
            assert_eq!((conn.closing, conn.frames), (Some("protocol"), 0));
            assert!(conn.write_buf.is_empty(), "zero reply bytes");
            let grid = ev.grid.lock().unwrap();
            assert_eq!(grid.slots()[0].state.outstanding_len(), 0, "nothing issued");
        }
    }

    /// The brush-off at the connection cap — sent before the peer has
    /// said anything — is an ordinary frame of the one dialect.
    #[test]
    fn the_cap_brush_off_busy_decodes_with_the_one_decoder() {
        let mut ev = event_loop();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut agent = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        ev.listener = Some(listener);
        ev.faults.max_connections = 1;
        ev.accepted_active = 1;
        ev.accept_ready().unwrap();
        assert_eq!((ev.rejected, ev.connections), (1, 0));

        let mut wire = Vec::new();
        agent.read_to_end(&mut wire).unwrap();
        assert_eq!(wire[4], PROTOCOL_VERSION);
        let (msg, consumed, _) = decode_versioned(&wire).expect("a whole Busy frame");
        assert!(matches!(msg, Message::Busy { retry_after_ms } if retry_after_ms > 0));
        assert_eq!(consumed, wire.len(), "one frame, then the close");
    }

    /// The read loop stops on a short read without seeing the EOF behind
    /// it; the next readiness event must still find it.
    #[test]
    fn eof_behind_a_fully_read_frame_is_still_noticed() {
        let (mut ev, (mut agent, mut conn)) = (event_loop(), socket_pair());
        agent.write_all(&hello(Vec::new())).unwrap();
        drop(agent);
        pump(&mut ev, &mut conn, |c| c.closing.is_some());
        assert_eq!(conn.closing, Some("eof"));
        assert_eq!(conn.frames, 1, "the frame before the EOF was served");
        assert!(matches!(replies(&conn)[..], [Message::HelloAck { .. }]));
    }
}
