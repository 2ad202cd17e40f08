//! The wire-level task server: the loop that moves bytes and keeps
//! time for the core that decides.
//!
//! A small, dependency-free TCP daemon built as a **single-threaded
//! nonblocking event loop**. Every decision — what an ask, a report or
//! a gossip frame is answered with, who is redirected where, when the
//! campaign is over — is [`MultiGrid`]'s ([`crate::registry`]), which
//! the loop owns by value and tells what happened and when; nothing
//! here matches a frame. What is here is the I/O: one
//! [`crate::sys::Poller`] watches the task listener, the ops listener
//! and every socket, and each connection advances a tiny state machine
//! (accumulate bytes → decode frame → hand it to the core → flush what
//! the core queued). Three kinds of connection share that machine:
//!
//! * **inbound** — a volunteer or a peer shard's steering link; which,
//!   the core remembers ([`Caller`]);
//! * **link** — this shard's own steering link to a peer, kept open;
//!   every [`STEER_INTERVAL_MS`] a timer has the core queue its
//!   statuses on it, and the replies go back to the core;
//! * **scrape** — one HTTP request on the ops listener, rendered from
//!   the core between two frames (see [`crate::ops`]).
//!
//! The deadline sweep, steering and the scrape idle cap are timer
//! events on the same loop, which also maps
//! wall-clock time onto the core's [`SimTime`] axis (seconds since
//! server start, so a wall run of a few minutes sits firmly inside day
//! 0's quorum-compare era). The only thing off the loop is the blocking
//! `connect` of a steering link, handed to one dialer thread that sees
//! addresses and returns sockets — never grid state. A server with no
//! peers never starts it.
//!
//! Why an event loop: a thread per agent tops out around the
//! dozens-of-volunteers scale — 10 000 loopback agents would mean
//! 10 000 stacks and a scheduler meltdown. Here every connection is a
//! few kilobytes of buffer state, and because one thread owns the state
//! a request takes no lock and a stalled peer or scraper holds nothing
//! but its own buffers.
//!
//! Nothing is negotiated: every peer speaks the one wire dialect
//! ([`crate::protocol`]), and a frame with any other version byte closes
//! its connection with reason `"protocol"` before a reply is written.

use crate::faults::ServerFaults;
use crate::journal::JournalConfig;
use crate::ops;
use crate::protocol::{decode_versioned, encode_with, CampaignParams, Codec, DecodeError, Message};
use crate::registry::{Caller, CampaignDef, MultiGrid};
use crate::shard::{ShardSpec, STEER_INTERVAL_MS, STEER_TIMEOUT_MS};
use crate::state::NetStats;
use crate::sys::{Event as IoEvent, Poller, ReadBuf};
use gridsim::sched::{ServerConfig, ServerStats};
use gridsim::SimTime;
use maxdo::DockingOutput;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc;
use std::thread;
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
    /// listen address. `None` is one shard of one with no peer
    /// addresses ([`ShardSpec::solo`]) — the same server, fewer peers.
    pub shard: Option<ShardTopology>,
    /// The campaign roster with fair-share weights. Empty hosts the
    /// single implicit campaign built from `campaign` (slot 0, name
    /// `"default"`). Non-empty replaces `campaign` entirely; slot order
    /// is the roster order assignments index.
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
    /// Slot 0's issue/validation statistics, the same value as
    /// `campaigns[0].server_stats`; kept because the benchmark harness
    /// reads it. Anything that sums over campaigns reads `campaigns`.
    pub server_stats: ServerStats,
    /// This server's place in the shard topology (solo when unsharded).
    pub shard: ShardSpec,
    /// Wall-clock duration of the run, seconds.
    pub wall_seconds: f64,
    /// Connections accepted over the run.
    pub connections: u64,
    /// Connections turned away at the limit.
    pub rejected_connections: u64,
    /// Per-campaign results, artifacts included, in registry slot
    /// order. A single implicit campaign still gets its one row here.
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
    /// Registry name (artifact suffix).
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
    /// The validated output of every workunit, in catalog order — the
    /// artifact that must match the in-process baseline byte for byte.
    /// Filled on a solo server only; a shard fills `partial_outputs`.
    pub outputs: Vec<DockingOutput>,
    /// The validated output per workunit, `Some` exactly where this
    /// shard validated — the partial artifact
    /// [`crate::shard::merge_artifacts`] combines across shards. Filled
    /// on a shard only; a solo server fills `outputs`.
    pub partial_outputs: Vec<Option<DockingOutput>>,
    /// Workunits in this campaign's catalog.
    pub workunits: usize,
    /// The campaign scheduler core's issue/validation statistics.
    pub server_stats: ServerStats,
    /// The campaign's wire-layer counters.
    pub net_stats: NetStats,
    /// Reference CPU seconds this campaign burned on results that were
    /// not useful.
    pub wasted_ref_seconds: f64,
    /// This campaign's trust band census at shutdown; `None` when the
    /// policy is off.
    pub trust: Option<crate::state::TrustSummary>,
    /// This campaign's per-agent trust ledger at shutdown, sorted by
    /// agent id; empty when the policy is off.
    pub agent_trust: Vec<(u64, crate::trust::AgentTrust)>,
}

/// A bound, not-yet-running server: the event loop with its listeners
/// registered and any journal already replayed.
pub struct NetServer(EventLoop);

/// How long a finished server waits at most for its volunteers to say
/// `Bye`, so an agent sleeping on a `NoWork` backoff (capped at 2 s
/// agent-side) can wake, ask once more, and be told `campaign_complete`
/// instead of finding a dead socket and burning its whole reconnect
/// budget — while an open, silent socket cannot hold the server for
/// ever. Peers are not waited on by the clock ([`MultiGrid::may_leave`]).
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

const STEER_INTERVAL: Duration = Duration::from_millis(STEER_INTERVAL_MS);
const STEER_TIMEOUT: Duration = Duration::from_millis(STEER_TIMEOUT_MS);

/// What a connection is to the loop — the one thing that differs
/// between the kinds of socket sharing the read/dispatch/flush machine.
enum Role {
    /// Accepted on the task listener: a volunteer or a peer's steering
    /// link — which, and who, is the core's to remember.
    Inbound(Caller),
    /// Turned away at the connection limit: it gets a `Busy` frame and
    /// a close, and was telemetered as *rejected*, so it neither holds
    /// a limit slot nor emits a `ConnectionClosed` event.
    Brushoff,
    /// This shard's steering link to this peer.
    Link(u16),
    /// An ops scrape: accepted at this instant or, once its response is
    /// queued, last seen taking bytes at it.
    Scrape(Instant),
}

/// One live connection's state: buffered bytes in each direction and
/// what closing it takes. The implicit state machine is *reading header
/// → reading payload → handing the frame over → writing reply* — the
/// first two are simply "does `read_buf` decode yet", the last is "is
/// `write_buf` drained yet".
struct Conn {
    stream: TcpStream,
    role: Role,
    /// Bytes received but not yet decoded into frames.
    read_buf: ReadBuf,
    /// Encoded replies not yet flushed to the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has been written so far.
    write_pos: usize,
    /// Frames decoded on this connection (for close telemetry).
    frames: u64,
    /// Set when the connection should close once `write_buf` drains,
    /// carrying the close reason for telemetry.
    closing: Option<&'static str>,
    /// The interest registered with the poller — `None` until the
    /// connection is first filed — so interest updates only hit
    /// `epoll_ctl` when something changed.
    interest: Option<(bool, bool)>,
}

impl Conn {
    fn new(stream: TcpStream, role: Role) -> Self {
        Self {
            stream,
            role,
            read_buf: ReadBuf::default(),
            write_buf: Vec::new(),
            write_pos: 0,
            frames: 0,
            closing: None,
            interest: None,
        }
    }

    /// Drains as much of `write_buf` as the socket will take. Returns
    /// `Ok(true)` when fully flushed.
    fn flush(&mut self) -> io::Result<bool> {
        crate::sys::flush(&mut self.stream, &mut self.write_buf, &mut self.write_pos)
    }

    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    /// The interest this connection wants right now: reads while the
    /// dialogue is open, writes only while bytes are queued.
    fn wanted_interest(&self) -> (bool, bool) {
        (self.closing.is_none(), !self.flushed())
    }
}

impl NetServer {
    /// Binds the listener and materialises the campaign. With a journal
    /// configured, this is also the recovery path: any existing wal
    /// under the journal directory is replayed before the first
    /// connection is accepted.
    pub fn bind(config: NetServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self(EventLoop::open(listener, &config)?))
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.0.listener.local_addr()
    }

    /// The bound observability address, when `ops_addr` is configured
    /// (resolves port 0).
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.0.ops_listener.as_ref()?.local_addr().ok()
    }

    /// Runs the campaign to completion: accepts volunteers, sweeps
    /// deadlines, and returns once every workunit has validated and the
    /// connections have drained (or the shutdown grace expires).
    pub fn run(self) -> io::Result<NetRunReport> {
        let mut ev = self.0;
        let wall_seconds = ev.run()?;
        if let Some(Dialer { jobs, thread, .. }) = ev.dialer.take() {
            drop(jobs); // the dialer's queue closes and it returns
            thread
                .join()
                .map_err(|_| io::Error::other("the dialer thread panicked"))?;
        }
        Ok(ev.into_report(wall_seconds))
    }
}

/// This shard's steering link to one peer.
#[derive(Clone, Copy)]
enum Link {
    /// No connection; the next steering tick dials.
    Down,
    /// The dialer has the address; its answer arrives on the channel.
    Dialing,
    /// Connected: the [`Role::Link`] connection filed under this fd.
    Up(i32),
}

/// The one helper thread: it runs the blocking `connect` of a steering
/// link so the loop never does. It is given a peer id and an address
/// and hands back a socket or an error — no grid state crosses over.
struct Dialer {
    jobs: mpsc::Sender<(u16, String)>,
    dialed: mpsc::Receiver<(u16, io::Result<TcpStream>)>,
    thread: thread::JoinHandle<()>,
}

impl Dialer {
    fn spawn() -> Self {
        let (jobs, queue) = mpsc::channel::<(u16, String)>();
        let (answers, dialed) = mpsc::channel();
        let thread = thread::spawn(move || {
            for (peer, addr) in queue {
                let stream = addr
                    .to_socket_addrs()
                    .and_then(|mut socks| {
                        socks
                            .next()
                            .ok_or_else(|| io::Error::other("unresolvable peer"))
                    })
                    .and_then(|sock| TcpStream::connect_timeout(&sock, STEER_TIMEOUT));
                if answers.send((peer, stream)).is_err() {
                    return; // the loop is gone
                }
            }
        });
        Self {
            jobs,
            dialed,
            thread,
        }
    }
}

/// What a failed `accept` says about the listener it was called on.
#[derive(Debug, PartialEq, Eq)]
enum AcceptFailure {
    /// That one connection died in the backlog; the listener is fine.
    Connection,
    /// The process or the host is out of descriptors or buffers
    /// (EMFILE, ENFILE, ENOBUFS, ENOMEM): the backlog stays, and stays
    /// readable, until something is closed.
    Exhausted,
    /// Anything else: the listener itself is broken.
    Listener,
}

impl AcceptFailure {
    fn of(e: &io::Error) -> Self {
        const ENOMEM: i32 = 12;
        const ENFILE: i32 = 23;
        const EMFILE: i32 = 24;
        const ENOBUFS: i32 = 105;
        match (e.kind(), e.raw_os_error()) {
            (io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset, _) => {
                Self::Connection
            }
            (_, Some(ENOMEM | ENFILE | EMFILE | ENOBUFS)) => Self::Exhausted,
            _ => Self::Listener,
        }
    }
}

/// The readiness loop: every connection, every timer and the core they
/// feed — which makes every decision — owned by value and stepped by one
/// thread.
struct EventLoop {
    listener: TcpListener,
    /// The observability listener, when `ops_addr` is configured.
    ops_listener: Option<TcpListener>,
    /// Listeners (task, ops) whose read interest is off until the next
    /// sweep tick because an `accept` found resources exhausted. The
    /// poller is level-triggered: left armed, a backlog that cannot be
    /// accepted would make every turn a failed `accept`.
    accept_paused: [bool; 2],
    core: MultiGrid,
    /// The steering link to each shard, indexed by shard id (this
    /// shard's own entry stays `Down`).
    links: Vec<Link>,
    /// Started by the first dial, so a server without peers has none.
    dialer: Option<Dialer>,
    faults: ServerFaults,
    epoch: Instant,
    /// Server-clock second the journal replay reached (0 for a fresh
    /// state): added to every `epoch.elapsed()` reading so the SimTime
    /// axis stays monotone across restarts.
    clock_offset: f64,
    sweep_interval: Duration,
    next_sweep: Instant,
    next_steer: Instant,
    poller: Poller,
    events: Vec<IoEvent>,
    conns: HashMap<i32, Conn>,
    connections: u64,
    rejected: u64,
    /// Live [`Role::Inbound`] connections, against
    /// `faults.max_connections`.
    accepted_active: usize,
}

impl EventLoop {
    /// Everything [`NetServer::bind`] does once the task listener is
    /// bound: checks the topology, opens (or recovers) the registry,
    /// binds the ops listener and registers both with the poller.
    fn open(listener: TcpListener, config: &NetServerConfig) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        // std's listen backlog is 128; a 10k-agent reconnect storm
        // overflows that and every dropped SYN costs the dialer a 1 s
        // retransmit. Widen it (the kernel clamps to somaxconn).
        crate::sys::widen_listen_backlog(listener.as_raw_fd(), 4096);
        let (spec, addrs) = match &config.shard {
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
                (topo.spec, topo.addrs.clone())
            }
            None => (ShardSpec::solo(), Vec::new()),
        };
        let defs = if config.campaigns.is_empty() {
            vec![CampaignDef::default_solo(config.campaign)]
        } else {
            config.campaigns.clone()
        };
        let (mut core, clock_offset) = MultiGrid::open(
            defs,
            config.scheduler,
            config.faults,
            spec,
            config.journal.as_ref(),
        )?;
        core.set_addrs(addrs);
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), true, false)?;
        let ops_listener = match &config.ops_addr {
            Some(addr) => {
                let ops = TcpListener::bind(addr)?;
                ops.set_nonblocking(true)?;
                poller.register(ops.as_raw_fd(), true, false)?;
                Some(ops)
            }
            None => None,
        };
        let now = Instant::now();
        let sweep_interval = Duration::from_millis(config.sweep_ms.max(1));
        Ok(Self {
            listener,
            ops_listener,
            accept_paused: [false; 2],
            core,
            links: vec![Link::Down; usize::from(spec.shards)],
            dialer: None,
            faults: config.faults,
            epoch: now,
            clock_offset,
            sweep_interval,
            next_sweep: now + sweep_interval,
            next_steer: now + STEER_INTERVAL,
            poller,
            events: Vec::new(),
            conns: HashMap::new(),
            connections: 0,
            rejected: 0,
            accepted_active: 0,
        })
    }

    /// The wall clock on the core's [`SimTime`] axis — read here, and
    /// handed to the core with whatever happened at it.
    fn now(&self) -> SimTime {
        SimTime::new(self.clock_offset + self.epoch.elapsed().as_secs_f64())
    }

    /// Runs to completion and returns the campaign's wall seconds: from
    /// now until the server may leave. The ops endpoint is served for
    /// [`ops::LINGER`] past completion so a scraper polling mid-run
    /// observes the final state; that wait is not part of the figure
    /// returned.
    fn run(&mut self) -> io::Result<f64> {
        self.epoch = Instant::now();
        let mut done_since: Option<Instant> = None;
        let mut wall_seconds: Option<f64> = None;
        loop {
            if self.core.done() {
                // Completion: keep answering `campaign_complete`, with
                // the listener open — an agent that heard "not yet" a
                // gossip tick ago must be able to come back for the
                // final word — until a volunteer has heard it and every
                // one has said Bye (or the grace ran out), and every
                // peer has heard it. A shard finishes on gossip, not on
                // a report, so its volunteers may all be sleeping with
                // their sockets closed when it does.
                let since = done_since.get_or_insert_with(Instant::now).elapsed();
                let volunteer =
                    |c: &Conn| matches!(&c.role, Role::Inbound(caller) if caller.shard.is_none());
                let drained = self.core.told_done && !self.conns.values().any(volunteer);
                let drained = drained || since > SHUTDOWN_GRACE;
                if wall_seconds.is_none() && drained && self.core.may_leave() {
                    wall_seconds = Some(self.epoch.elapsed().as_secs_f64());
                }
                if let Some(wall) = wall_seconds {
                    if self.ops_listener.is_none() || since > ops::LINGER {
                        return Ok(wall);
                    }
                }
            }
            self.turn(SHUTDOWN_GRACE)?;
        }
    }

    /// The finished run's report. The loop is given up whole, so each
    /// campaign's validated outputs are moved out of its slot, never
    /// copied: the report holds the one copy of the artifact, in
    /// `outputs` on a solo server and in `partial_outputs` on a shard.
    /// A solo server's campaigns must all be complete.
    fn into_report(self, wall_seconds: f64) -> NetRunReport {
        let grid = self.core;
        let spec = grid.spec();
        let fair = grid.fair().clone();
        let now_s = grid.last_now();
        let share_error = grid.share_error();
        let cross_quarantine_denials = grid.cross_quarantine_denials;
        let campaigns: Vec<_> = grid
            .into_slots()
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let server_stats = slot.state.server_stats();
                let net_stats = slot.state.net_stats;
                let wasted_ref_seconds = slot.state.wasted_ref_seconds();
                let trust = slot.state.trust_summary(now_s);
                let agent_trust = slot.state.agent_trust_table();
                let accepted = slot.state.into_outputs();
                let (outputs, partial_outputs) = match spec.shards {
                    1 => (
                        accepted
                            .into_iter()
                            .collect::<Option<_>>()
                            .expect("a solo server reports complete campaigns"),
                        Vec::new(),
                    ),
                    _ => (Vec::new(), accepted),
                };
                CampaignRunReport {
                    name: slot.def.name,
                    share: fair.share(i),
                    priority: slot.def.priority,
                    delivered_ref_seconds: fair.delivered(i),
                    borrows: fair.borrows(i),
                    outputs,
                    partial_outputs,
                    workunits: slot.campaign.len(),
                    server_stats,
                    net_stats,
                    wasted_ref_seconds,
                    trust,
                    agent_trust,
                }
            })
            .collect();
        NetRunReport {
            server_stats: campaigns[0].server_stats,
            shard: spec,
            wall_seconds,
            connections: self.connections,
            rejected_connections: self.rejected,
            campaigns,
            share_error,
            cross_quarantine_denials,
        }
    }

    /// One turn of the loop: fire the timers that are due, wait for
    /// readiness — at most `timeout`, never past the next timer —
    /// advance every ready connection, and adopt any dialed link.
    fn turn(&mut self, timeout: Duration) -> io::Result<()> {
        let now = Instant::now();
        if now >= self.next_sweep {
            self.sweep_tick();
            self.next_sweep = Instant::now() + self.sweep_interval;
        }
        if now >= self.next_steer {
            self.steer_tick();
            self.next_steer = now + STEER_INTERVAL;
        }
        let next_timer = self.next_sweep.min(self.next_steer);
        let timeout = timeout.min(next_timer.saturating_duration_since(Instant::now()));
        let mut events = std::mem::take(&mut self.events);
        self.poller.wait(Some(timeout), &mut events)?;
        self.serve_batch(events.drain(..))?;
        self.events = events;
        self.adopt_dialed();
        Ok(())
    }

    /// Serves one batch of readiness events: every connection first, the
    /// listeners last. The poller is level-triggered, so a listener it
    /// reported before can come back *ahead* of a later connection event,
    /// and one batch can hold a holder's `Bye` (or EOF) behind the
    /// listener its successor waits on. Accepting in batch order would
    /// count the successor against `max_connections` while the holder
    /// still filled the slot, and brush it off with `Busy`.
    /// Every connection is read before any is settled, so the first
    /// write commits the whole batch's records: one `fdatasync`.
    fn serve_batch(&mut self, events: impl IntoIterator<Item = IoEvent>) -> io::Result<()> {
        let listener_fd = self.listener.as_raw_fd();
        let ops_fd = self.ops_listener.as_ref().map(AsRawFd::as_raw_fd);
        let mut accept = [false; 2];
        let mut served = Vec::new();
        for ev in events {
            if ev.fd == listener_fd {
                accept[0] = true;
            } else if Some(ev.fd) == ops_fd {
                accept[1] = true;
            } else if let Some(conn) = self.advance_conn(ev) {
                served.push((ev.fd, conn));
            }
        }
        for (fd, conn) in served {
            self.settle(fd, conn);
        }
        for ops in [false, true] {
            if accept[usize::from(ops)] {
                self.accept_ready(ops)?;
            }
        }
        Ok(())
    }

    /// One sweep tick: re-arm listeners an exhausted `accept` paused,
    /// have the core expire deadlines, and close scrapes that have sat
    /// past the idle cap.
    fn sweep_tick(&mut self) {
        let listeners = [Some(&self.listener), self.ops_listener.as_ref()];
        for (listener, paused) in listeners.into_iter().zip(&mut self.accept_paused) {
            if let (Some(listener), true) = (listener, *paused) {
                // Stays paused, for the next tick to retry, if it fails.
                let armed = self.poller.reregister(listener.as_raw_fd(), true, false);
                *paused = armed.is_err();
            }
        }
        self.core.sweep(self.now());
        if self.ops_listener.is_some() {
            let idle: Vec<i32> = self
                .conns
                .iter()
                .filter(|(_, c)| matches!(c.role, Role::Scrape(t) if t.elapsed() > ops::IDLE_CAP))
                .map(|(&fd, _)| fd)
                .collect();
            for fd in idle {
                self.hang_up(fd, "idle");
            }
        }
    }

    /// One steering tick: tell every peer this shard's load picture on
    /// each campaign, over the link kept open to it. A peer that is
    /// down costs one dial per tick; one that stopped answering has its
    /// link recycled once a status has waited [`STEER_TIMEOUT_MS`].
    /// Steering rides the same listener as agent traffic, so no extra
    /// port is needed.
    fn steer_tick(&mut self) {
        let now = self.now();
        self.core.note_demand();
        let ShardSpec { shard_id, shards } = self.core.spec();
        for peer in (0..shards).filter(|&p| p != shard_id) {
            let p = usize::from(peer);
            if let (Link::Up(fd), true) = (self.links[p], self.core.link_stalled(now, peer)) {
                self.hang_up(fd, "timeout");
            }
            match self.links[p] {
                Link::Down => {
                    let dialer = self.dialer.get_or_insert_with(Dialer::spawn);
                    let addr = self.core.addr(peer).to_string();
                    if dialer.jobs.send((peer, addr)).is_ok() {
                        self.links[p] = Link::Dialing;
                    }
                }
                Link::Dialing => {}
                Link::Up(fd) => {
                    if let Some(mut conn) = self.conns.remove(&fd) {
                        self.core.send_statuses(now, peer, &mut conn.write_buf);
                        self.settle(fd, conn);
                    }
                }
            }
        }
    }

    /// Takes every answer the dialer has ready: a connected socket
    /// becomes the peer's link, a failed dial leaves it `Down` for the
    /// next steering tick and is the core's to judge.
    fn adopt_dialed(&mut self) {
        while let Some((peer, dialed)) = self.dialer.as_ref().and_then(|d| d.dialed.try_recv().ok())
        {
            let p = usize::from(peer);
            self.links[p] = Link::Down;
            let Ok(stream) = dialed else {
                self.core.dial_failed(peer);
                continue;
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            self.links[p] = Link::Up(fd);
            self.settle(fd, Conn::new(stream, Role::Link(peer)));
        }
    }

    /// The ops listener when `ops` (and one is configured), else the
    /// task listener.
    fn listener(&self, ops: bool) -> &TcpListener {
        match &self.ops_listener {
            Some(listener) if ops => listener,
            _ => &self.listener,
        }
    }

    /// Takes a listener's read interest off until the next sweep tick.
    fn pause_accepts(&mut self, ops: bool) -> io::Result<()> {
        let fd = self.listener(ops).as_raw_fd();
        self.poller.reregister(fd, false, false)?;
        self.accept_paused[usize::from(ops)] = true;
        Ok(())
    }

    /// Drains a listener: accept every pending connection. On the task
    /// listener anything over the limit is brushed off with a `Busy`
    /// frame; on the ops listener every connection is one scrape. A
    /// connection that fails by itself is dropped, exhaustion costs one
    /// failed `accept` per sweep tick, and only a broken listener ends
    /// the server.
    fn accept_ready(&mut self, ops: bool) -> io::Result<()> {
        loop {
            let (stream, _peer) = match self.listener(ops).accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => match AcceptFailure::of(&e) {
                    AcceptFailure::Connection => continue,
                    AcceptFailure::Exhausted => return self.pause_accepts(ops),
                    AcceptFailure::Listener => return Err(e),
                },
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            if ops {
                // A scraper sends its request with the connect, so it is
                // usually readable already: answered here, the scrape
                // never costs a poller registration.
                let mut conn = Conn::new(stream, Role::Scrape(Instant::now()));
                self.read_and_dispatch(&mut conn);
                self.settle(fd, conn);
                continue;
            }
            let limit = self.faults.max_connections;
            if limit > 0 && self.accepted_active >= limit {
                // Turned away before any frame is read: counted (and
                // telemetered) as a rejection, never as an accepted
                // connection.
                self.rejected += 1;
                let retry_after_ms = self.faults.backoff_base_ms.max(1) * 4;
                telemetry::emit(None, || Event::ConnectionRejected { retry_after_ms });
                let mut conn = Conn::new(stream, Role::Brushoff);
                let busy = encode_with(&Message::Busy { retry_after_ms }, Codec);
                conn.write_buf.extend_from_slice(&busy);
                conn.closing = Some("busy");
                self.settle(fd, conn);
                continue;
            }
            self.connections += 1;
            self.accepted_active += 1;
            self.settle(fd, Conn::new(stream, Role::Inbound(Caller::default())));
        }
    }

    /// Advances one connection's state machine for a readiness event:
    /// read what the socket holds and hand every complete frame to the
    /// core; the connection comes back, out of `conns`, to be settled.
    fn advance_conn(&mut self, ev: IoEvent) -> Option<Conn> {
        let mut conn = self.conns.remove(&ev.fd)?;
        if ev.readable || ev.hangup {
            self.read_and_dispatch(&mut conn);
        }
        if ev.hangup && conn.closing.is_none() {
            // Error/hangup with nothing left to read: the peer is gone,
            // and with it anyone to flush to.
            conn.closing = Some("eof");
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        if let (true, Role::Scrape(progress)) = (ev.writable, &mut conn.role) {
            *progress = Instant::now();
        }
        Some(conn)
    }

    /// Flushes queued replies, then either retires a connection that is
    /// finished (a brush-off whose `Busy` frame fit the socket buffer is,
    /// before it was ever registered) or files it under the interest it
    /// now wants; no byte leaves before the records ahead of it are on disk.
    fn settle(&mut self, fd: i32, mut conn: Conn) {
        if !conn.flushed() {
            self.core.commit();
            debug_assert_eq!(self.core.uncommitted(), 0, "frame before record");
        }
        if conn.flush().is_err() {
            conn.closing.get_or_insert("io");
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        let wanted = conn.wanted_interest();
        let filed = match conn.interest {
            _ if conn.closing.is_some() && conn.flushed() => false,
            Some(registered) if registered == wanted => true,
            Some(_) => self.poller.reregister(fd, wanted.0, wanted.1).is_ok(),
            None => self.poller.register(fd, wanted.0, wanted.1).is_ok(),
        };
        if filed {
            conn.interest = Some(wanted);
            self.conns.insert(fd, conn);
        } else {
            if conn.interest.is_some() {
                let _ = self.poller.deregister(fd);
            }
            conn.closing.get_or_insert("io");
            self.retire(conn);
        }
    }

    /// Closes the connection filed under `fd` now, whatever it still
    /// had queued.
    fn hang_up(&mut self, fd: i32, reason: &'static str) {
        if let Some(mut conn) = self.conns.remove(&fd) {
            conn.closing = Some(reason);
            let _ = self.poller.deregister(fd);
            self.retire(conn);
        }
    }

    /// The read half of the state machine: read what the socket holds
    /// into the connection's buffer, then hand every complete frame in it
    /// (an agent may pipeline several) to the core, whose replies land in
    /// `write_buf` — or, on a scrape, answer the head once it is whole.
    fn read_and_dispatch(&mut self, conn: &mut Conn) {
        if conn.closing.is_some() {
            return;
        }
        let now = self.now();
        // A scrape's head is bounded while it is read, not after.
        let most = match conn.role {
            Role::Scrape(_) => ops::MAX_REQUEST_HEAD,
            _ => usize::MAX,
        };
        match conn.read_buf.fill(&mut conn.stream, most) {
            Ok(false) => {}
            Ok(true) => conn.closing = Some("eof"),
            Err(_) => conn.closing = Some("io"),
        }
        let orderly_close = conn.closing.take();
        if let Role::Scrape(since) = &mut conn.role {
            let head = conn.read_buf.pending();
            if let Some(response) = ops::respond(head, orderly_close.is_some(), *since, &self.core)
            {
                conn.write_buf = response;
                conn.closing = Some("ops");
                *since = Instant::now();
            }
            return;
        }
        while conn.closing.is_none() {
            match decode_versioned(conn.read_buf.pending()) {
                Ok((msg, consumed, _)) => {
                    conn.read_buf.consume(consumed);
                    conn.frames += 1;
                    let heard = match &mut conn.role {
                        Role::Inbound(caller) => {
                            self.core.inbound(now, caller, msg, &mut conn.write_buf)
                        }
                        Role::Link(peer) => self.core.link_frame(now, *peer, msg),
                        // One is closing, the other was answered above.
                        Role::Brushoff | Role::Scrape(_) => Err("protocol"),
                    };
                    conn.closing = heard.err();
                }
                Err(DecodeError::Incomplete { .. }) => break,
                Err(_) => conn.closing = Some("protocol"),
            }
        }
        // An EOF/error noticed during the reads only takes effect after
        // every already-buffered frame has been handed over.
        if conn.closing.is_none() {
            conn.closing = orderly_close;
        }
    }

    /// Final close of a connection. An inbound one emits the paired
    /// `ConnectionClosed` event and releases its limit slot; the core
    /// is told of either kind that may have been a steering connection.
    fn retire(&mut self, conn: Conn) {
        match conn.role {
            Role::Inbound(caller) => {
                self.accepted_active -= 1;
                let reason = conn.closing.unwrap_or("eof");
                telemetry::emit(None, || Event::ConnectionClosed {
                    agent: caller.agent,
                    frames: conn.frames,
                    reason: reason.into(),
                });
                self.core.caller_lost(&caller);
            }
            Role::Link(peer) => {
                self.links[usize::from(peer)] = Link::Down;
                self.core.link_lost(peer);
            }
            Role::Brushoff | Role::Scrape(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{open_wal, JournalRecord};
    use crate::protocol::{HEADER_BYTES, PROTOCOL_VERSION};
    use crate::registry::Command;
    use crate::shard::merge_artifacts;
    use crate::state::WorkReply;
    use crate::sys::READ_SPACE;
    use std::collections::VecDeque;
    use std::io::{Read, Write};

    fn listener() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").unwrap()
    }

    /// A loop whose timers never come due by themselves: the test
    /// decides when a sweep or steering tick happens.
    fn open(listener: TcpListener, config: &NetServerConfig) -> EventLoop {
        let mut ev = EventLoop::open(listener, config).unwrap();
        let never = Instant::now() + Duration::from_secs(3600);
        (ev.next_sweep, ev.next_steer) = (never, never);
        ev
    }

    /// An event loop over a solo tiny campaign.
    fn event_loop() -> EventLoop {
        open(listener(), &NetServerConfig::loopback(5.0))
    }

    /// One shard of a topology whose task listeners are already bound.
    fn shard_loop(
        own: TcpListener,
        shard_id: u16,
        addrs: &[String],
        journal: Option<JournalConfig>,
    ) -> EventLoop {
        let config = NetServerConfig {
            journal,
            shard: Some(ShardTopology {
                spec: ShardSpec {
                    shard_id,
                    shards: addrs.len() as u16,
                },
                addrs: addrs.to_vec(),
            }),
            ..NetServerConfig::loopback(60.0)
        };
        open(own, &config)
    }

    fn addr_of(listener: &TcpListener) -> String {
        listener.local_addr().unwrap().to_string()
    }

    /// A connected loopback pair: the agent's blocking end and the
    /// server's nonblocking connection.
    fn socket_pair() -> (TcpStream, Conn) {
        let listener = listener();
        let agent = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        agent.set_nodelay(true).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        (agent, Conn::new(stream, Role::Inbound(Caller::default())))
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

    /// Turns every loop, from this one thread and without sleeping (a
    /// turn is a zero-timeout poll), until `until` holds.
    fn spin(loops: &mut [EventLoop], mut until: impl FnMut(&mut [EventLoop]) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !until(loops) {
            assert!(Instant::now() < deadline, "the loops never got there");
            for ev in loops.iter_mut() {
                ev.turn(Duration::ZERO).unwrap();
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_failed_accept_is_the_connection_the_moment_or_the_listener() {
        let os = io::Error::from_raw_os_error;
        for errno in [103, 104] {
            // ECONNABORTED, ECONNRESET
            assert_eq!(AcceptFailure::of(&os(errno)), AcceptFailure::Connection);
        }
        for errno in [12, 23, 24, 105] {
            assert_eq!(AcceptFailure::of(&os(errno)), AcceptFailure::Exhausted);
        }
        for errno in [9, 22, 88, 95] {
            // EBADF, EINVAL, ENOTSOCK, EOPNOTSUPP
            assert_eq!(AcceptFailure::of(&os(errno)), AcceptFailure::Listener);
        }
        let made_up = io::Error::other("no errno");
        assert_eq!(AcceptFailure::of(&made_up), AcceptFailure::Listener);
    }

    /// A paused listener leaves its backlog alone — no accept, failed or
    /// otherwise, until a sweep tick re-arms it — and loses nothing.
    #[test]
    fn a_paused_listener_accepts_again_after_the_next_sweep_tick() {
        let config = NetServerConfig {
            ops_addr: Some("127.0.0.1:0".into()),
            ..NetServerConfig::loopback(5.0)
        };
        let mut ev = open(listener(), &config);
        let ops_addr = addr_of(ev.ops_listener.as_ref().unwrap());
        ev.pause_accepts(false).unwrap();
        ev.pause_accepts(true).unwrap();
        let _agent = TcpStream::connect(addr_of(&ev.listener)).unwrap();
        let mut scraper = TcpStream::connect(ops_addr).unwrap();
        scraper.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        scraper.set_nonblocking(true).unwrap();
        let mut reply = Vec::new();
        for _ in 0..50 {
            ev.turn(Duration::from_millis(1)).unwrap();
            let _ = scraper.read_to_end(&mut reply);
        }
        assert_eq!((ev.connections, reply.len()), (0, 0), "both paused");

        ev.sweep_tick();
        assert_eq!(ev.accept_paused, [false; 2]);
        let loops = &mut [ev];
        spin(loops, |loops| {
            let _ = scraper.read_to_end(&mut reply);
            loops[0].connections == 1 && reply.starts_with(b"HTTP/1.1 200")
        });
    }

    /// The far end of a connection to a loop under test, driven by the
    /// same thread that turns the loops: nonblocking, so waiting for a
    /// reply is spinning the loops, never blocking in `read`.
    struct Client {
        stream: TcpStream,
        inbox: Vec<u8>,
    }

    impl Client {
        fn connect(addr: &str) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream.set_nonblocking(true).unwrap();
            Self {
                stream,
                inbox: Vec::new(),
            }
        }

        /// Connects and introduces itself as `agent`.
        fn hello(addr: &str, agent: u64, loops: &mut [EventLoop]) -> Self {
            let mut client = Self::connect(addr);
            let hello = Message::Hello {
                agent,
                threads: 1,
                campaigns: Vec::new(),
            };
            let ack = client.exchange(&hello, loops);
            assert!(matches!(ack, Message::HelloAck { .. }), "{ack:?}");
            client
        }

        /// Frames here are far smaller than a socket buffer, so the
        /// nonblocking write takes them whole.
        fn send(&mut self, msg: &Message) {
            self.stream.write_all(&encode_with(msg, Codec)).unwrap();
        }

        /// The next whole frame received, if one is in.
        fn poll(&mut self) -> Option<Message> {
            let mut chunk = [0u8; 4096];
            while let Ok(n @ 1..) = self.stream.read(&mut chunk) {
                self.inbox.extend_from_slice(&chunk[..n]);
            }
            let (msg, consumed, _) = decode_versioned(&self.inbox).ok()?;
            self.inbox.drain(..consumed);
            Some(msg)
        }

        fn recv(&mut self, loops: &mut [EventLoop]) -> Message {
            let mut reply = None;
            spin(loops, |_| {
                reply = self.poll();
                reply.is_some()
            });
            reply.unwrap()
        }

        fn exchange(&mut self, msg: &Message, loops: &mut [EventLoop]) -> Message {
            self.send(msg);
            self.recv(loops)
        }

        /// Asks once; an assignment comes back as the report it calls
        /// for (docked from the precomputed `baseline`), anything else
        /// as it is.
        fn ask(
            &mut self,
            loops: &mut [EventLoop],
            baseline: &[DockingOutput],
        ) -> Result<Message, Message> {
            match self.exchange(&Message::RequestWork, loops) {
                Message::Assignment {
                    replica,
                    workunit,
                    campaign,
                    ..
                } => Ok(Message::ResultReport {
                    replica,
                    workunit,
                    campaign,
                    output: baseline[workunit as usize].clone(),
                }),
                other => Err(other),
            }
        }

        fn report(&mut self, report: &Message, loops: &mut [EventLoop]) {
            let ack = self.exchange(report, loops);
            assert!(
                matches!(ack, Message::ResultAck { accepted: true, .. }),
                "{ack:?}"
            );
        }

        /// Asks and reports until an ask draws no assignment; returns
        /// that reply.
        fn work(&mut self, loops: &mut [EventLoop], baseline: &[DockingOutput]) -> Message {
            loop {
                match self.ask(loops, baseline) {
                    Ok(report) => self.report(&report, loops),
                    Err(other) => return other,
                }
            }
        }

        /// One gossip exchange played as shard `me`; returns the leases
        /// granted before the closing `StatusAck`.
        fn gossip(
            &mut self,
            loops: &mut [EventLoop],
            me: u16,
            held: &[u64],
            fresh_backlog: u64,
            hungry: bool,
        ) -> Vec<u64> {
            self.send(&Message::ShardStatus {
                shard: me,
                fresh_backlog,
                outstanding: 0,
                complete: false,
                hungry,
                leases_held: held.to_vec(),
                campaign: 0,
            });
            let mut leases = Vec::new();
            loop {
                match self.recv(loops) {
                    Message::LeaseGrant { lease, .. } => leases.push(lease),
                    Message::StatusAck { .. } => return leases,
                    other => panic!("unexpected steering reply: {other:?}"),
                }
            }
        }
    }

    /// The statuses awaiting an ack on the loop's one steering link.
    fn unacked(ev: &mut EventLoop) -> &mut VecDeque<(u16, SimTime, bool)> {
        let peer = ev.links.iter().position(|l| matches!(l, Link::Up(_)));
        &mut ev.core.unacked[peer.expect("a steering link")]
    }

    fn link_up(ev: &EventLoop, peer: usize) -> bool {
        matches!(ev.links[peer], Link::Up(_))
    }

    fn net_stats(ev: &EventLoop) -> NetStats {
        ev.core.slots()[0].state.net_stats
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
        pump(&mut ev, &mut conn, |c| c.read_buf.pending().len() == 10);
        assert_eq!(conn.frames, 0);
        assert!(conn.write_buf.is_empty() && conn.closing.is_none());
        agent.write_all(&frame[10..]).unwrap();
        pump(&mut ev, &mut conn, |c| c.frames > 0);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (1, 0));
        assert!(matches!(replies(&conn)[..], [Message::HelloAck { .. }]));
    }

    /// The third frame also pins the one-shard topology: a server with
    /// no peers answers `ShardMapRequest` as shard 0 of 1.
    #[test]
    fn frames_pipelined_in_one_write_each_dispatch_once() {
        let (mut ev, (mut agent, mut conn)) = (event_loop(), socket_pair());
        let mut wire = hello(Vec::new());
        wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
        wire.extend_from_slice(&encode_with(&Message::ShardMapRequest, Codec));
        agent.write_all(&wire).unwrap();
        pump(&mut ev, &mut conn, |c| c.frames >= 3);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (3, 0));
        match &replies(&conn)[..] {
            [Message::HelloAck { .. }, Message::Assignment { .. }, Message::ShardMap {
                shards: 1,
                self_shard: 0,
                addrs,
            }] => assert!(addrs.is_empty()),
            other => panic!("{other:?}"),
        }
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
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (1, 0));
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
            let issued = ev.core.slots()[0].state.outstanding_len();
            assert_eq!(issued, 0, "nothing issued");
        }
    }

    /// The brush-off at the connection cap — sent before the peer has
    /// said anything — is an ordinary frame of the one dialect.
    #[test]
    fn the_cap_brush_off_busy_decodes_with_the_one_decoder() {
        let mut ev = event_loop();
        let mut agent = TcpStream::connect(ev.listener.local_addr().unwrap()).unwrap();
        ev.faults.max_connections = 1;
        ev.accepted_active = 1;
        spin(std::slice::from_mut(&mut ev), |l| l[0].rejected == 1);
        assert_eq!(ev.connections, 0);

        let mut wire = Vec::new();
        agent.read_to_end(&mut wire).unwrap();
        assert_eq!(wire[4], PROTOCOL_VERSION);
        let (msg, consumed, _) = decode_versioned(&wire).expect("a whole Busy frame");
        assert!(matches!(msg, Message::Busy { retry_after_ms } if retry_after_ms > 0));
        assert_eq!(consumed, wire.len(), "one frame, then the close");
    }

    /// A batch that holds the task listener ahead of a holder's `Bye` —
    /// what the level-triggered poller hands back when it reported the
    /// listener before — retires the holder before it accepts: at
    /// `max_connections = 1` the newcomer is served, not brushed off.
    #[test]
    fn a_batch_frees_a_leaving_holders_slot_before_it_accepts() {
        let mut ev = event_loop();
        ev.faults.max_connections = 1;
        let addr = addr_of(&ev.listener);
        let mut holder = Client::hello(&addr, 1, std::slice::from_mut(&mut ev));
        let holder_fd = *ev.conns.keys().next().expect("the holder");
        let listener_fd = ev.listener.as_raw_fd();
        holder.send(&Message::Bye);
        let mut newcomer = Client::connect(&addr);

        // Both are in before the batch is served: the Bye on the
        // holder's socket, the newcomer in the listen backlog.
        let mut ready = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while ![listener_fd, holder_fd]
            .iter()
            .all(|&fd| ready.iter().any(|e: &IoEvent| e.fd == fd))
        {
            assert!(Instant::now() < deadline, "never both ready");
            ev.poller.wait(Some(Duration::ZERO), &mut ready).unwrap();
        }
        let readable = |fd| IoEvent {
            fd,
            readable: true,
            writable: false,
            hangup: false,
        };
        ev.serve_batch([readable(listener_fd), readable(holder_fd)])
            .unwrap();
        assert_eq!((ev.rejected, ev.connections), (0, 2));

        let hello = Message::Hello {
            agent: 2,
            threads: 1,
            campaigns: Vec::new(),
        };
        let ack = newcomer.exchange(&hello, std::slice::from_mut(&mut ev));
        assert!(matches!(ack, Message::HelloAck { .. }), "{ack:?}");
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

    /// Asks and reports straight on the loop's core, as agents 1 and 2
    /// in turn volunteering for every campaign, with results from that
    /// campaign's `baselines` row, until neither draws work.
    fn drive(ev: &mut EventLoop, baselines: &[Vec<DockingOutput>]) {
        let attached = vec![true; baselines.len()];
        let mut idle = 0;
        for (step, agent) in (1..=2u64).cycle().enumerate() {
            assert!(step < 10_000, "the core never ran dry");
            let now = SimTime::new(1.0 + step as f64 * 0.01);
            match ev.core.fetch(now, agent, &attached) {
                (campaign, WorkReply::Assigned(a)) => {
                    idle = 0;
                    let output = baselines[usize::from(campaign)][a.workunit as usize].clone();
                    ev.core.report(now, campaign, a.replica, a.workunit, output);
                }
                _ if idle == 1 => return,
                _ => idle += 1,
            }
        }
    }

    /// Where each validated output's rows live in the grid.
    fn row_addresses(ev: &EventLoop) -> Vec<Option<*const maxdo::DockingRow>> {
        let outputs = ev.core.slots()[0].state.outputs();
        outputs
            .iter()
            .map(|o| o.as_ref().map(|o| o.rows.as_ptr()))
            .collect()
    }

    /// The report takes the grid's one copy of the artifact: every
    /// validated output's rows are still where the grid kept them, and
    /// a campaign fills `outputs` on a solo server, `partial_outputs` on
    /// a shard, never both.
    #[test]
    fn the_report_moves_each_output_out_of_the_grid() {
        let mut solo = event_loop();
        let baseline = solo.core.slots()[0].campaign.baseline_outputs();
        assert!(
            baseline.iter().all(|o| !o.rows.is_empty()),
            "rows to point at"
        );
        let baselines = std::slice::from_ref(&baseline);
        drive(&mut solo, baselines);
        assert!(solo.core.all_complete());
        let held = row_addresses(&solo);
        let report = solo.into_report(0.0);
        let c = &report.campaigns[0];
        assert!(c.partial_outputs.is_empty(), "solo fills outputs only");
        assert_eq!(c.outputs, baseline);
        let reported: Vec<_> = c.outputs.iter().map(|o| Some(o.rows.as_ptr())).collect();
        assert_eq!(reported, held, "moved, not copied");

        let (own, peer) = (listener(), listener());
        let addrs = [addr_of(&own), addr_of(&peer)];
        let mut shard = shard_loop(own, 0, &addrs, None);
        drive(&mut shard, baselines);
        let held = row_addresses(&shard);
        assert!(held.iter().any(Option::is_some) && held.iter().any(Option::is_none));
        let report = shard.into_report(0.0);
        let c = &report.campaigns[0];
        assert!(c.outputs.is_empty(), "a shard fills partial_outputs only");
        let reported: Vec<_> = c
            .partial_outputs
            .iter()
            .map(|o| o.as_ref().map(|o| o.rows.as_ptr()))
            .collect();
        assert_eq!(reported, held, "moved, not copied");
    }

    /// Two campaigns under the trust policy, and only beta's volunteer
    /// is a saboteur: each campaign's row reports its own census, so
    /// beta's shows the quarantine and alpha's does not.
    #[test]
    fn each_campaign_reports_its_own_trust_census() {
        let base = CampaignParams::tiny();
        let def = |name: &str, lib_seed, share| CampaignDef {
            name: name.into(),
            params: CampaignParams { lib_seed, ..base },
            share,
            priority: 0,
        };
        let mut config = NetServerConfig {
            campaigns: vec![
                def("alpha", base.lib_seed, 0.7),
                def("beta", base.lib_seed + 1, 0.3),
            ],
            ..NetServerConfig::loopback(5.0)
        };
        config.faults.trust = crate::trust::TrustConfig::on();
        let quarantine_after = config.faults.trust.quarantine_after;
        let mut ev = open(listener(), &config);
        let baselines: Vec<_> = ev
            .core
            .slots()
            .iter()
            .map(|s| s.campaign.baseline_outputs())
            .collect();

        // The saboteur reports second, and wrong, on beta's quorum pairs
        // until quarantine trips; an honest reissue validates each.
        const SABOTEUR: u64 = 9;
        let beta = [false, true];
        let served = |ev: &mut EventLoop, now: f64, agent: u64| {
            let reply = ev.core.fetch(SimTime::new(now), agent, &beta);
            match reply {
                (1, WorkReply::Assigned(a)) => a,
                other => panic!("agent {agent} not served on beta: {other:?}"),
            }
        };
        for k in 0..u64::from(quarantine_after) {
            let now = 1.0 + k as f64;
            let first = served(&mut ev, now, 10 + k);
            let second = served(&mut ev, now, SABOTEUR);
            assert_eq!(first.workunit, second.workunit, "quorum siblings");
            let output = baselines[1][first.workunit as usize].clone();
            let mut corrupted = output.clone();
            corrupted.rows[0].eelec += 1e-9;
            let at = SimTime::new(now + 0.1);
            ev.core
                .report(at, 1, first.replica, first.workunit, output.clone());
            let (_, judged) = ev
                .core
                .report(at, 1, second.replica, second.workunit, corrupted);
            assert_eq!(judged.verdict, crate::state::Verdict::QuorumRejected);
            let reissue = served(&mut ev, now + 0.2, 20 + k);
            assert_eq!(reissue.workunit, first.workunit, "the rejected one");
            let at = SimTime::new(now + 0.3);
            ev.core
                .report(at, 1, reissue.replica, reissue.workunit, output);
        }
        drive(&mut ev, &baselines);
        assert!(ev.core.all_complete());

        let report = ev.into_report(0.0);
        let trust = |i: usize| report.campaigns[i].trust.expect("trust is on");
        assert_eq!(trust(0).ever_quarantined, 0, "alpha: {:?}", trust(0));
        assert_eq!(trust(1).ever_quarantined, 1, "beta: {:?}", trust(1));
        assert!(report.campaigns[1].net_stats.quorum_rejected >= u64::from(quarantine_after));
        assert_eq!(report.campaigns[0].net_stats.quorum_rejected, 0);
    }

    /// A whole sharded campaign — hunger, a lease cut, adopted and
    /// journaled, a redirect off the drained shard, completion gossiped
    /// both ways — as one scripted history: two loops, their agents and
    /// every tick stepped from this thread, in this order.
    #[test]
    fn a_two_shard_history_runs_to_done_on_one_thread() {
        let dir = std::env::temp_dir().join(format!("hcmd-loop-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (l0, l1) = (listener(), listener());
        let addrs = [addr_of(&l0), addr_of(&l1)];
        let journal = crate::journal::JournalConfig::new(&dir);
        let loops = &mut [
            shard_loop(l0, 0, &addrs, None),
            shard_loop(l1, 1, &addrs, Some(journal)),
        ];
        let baseline = loops[0].core.slots()[0].campaign.baseline_outputs();

        // Both links come up.
        loops[0].steer_tick();
        loops[1].steer_tick();
        spin(loops, |l| link_up(&l[0], 1) && link_up(&l[1], 0));

        // Shard 1's agent works its slice dry — all but one result it
        // sits on, so the slice is drained yet not complete — and is
        // told to wait...
        let mut agent1 = Client::hello(&addrs[1], 1, loops);
        let sat_on = agent1.ask(loops, &baseline).expect("work on a fresh shard");
        let dry = agent1.work(loops, &baseline);
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
        loops[1].steer_tick();
        spin(loops, |l| net_stats(&l[1]).shard_leases_in == 1);
        assert_eq!(net_stats(&loops[0]).shard_leases_out, 1);
        let granted = loops[0].core.slots()[0].state.leases_granted_to(1);
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
        loops[1].steer_tick();
        spin(loops, |l| l[0].core.slots()[0].board.backlog[1] > 0);
        let mut agent0 = Client::hello(&addrs[0], 2, loops);
        match agent0.work(loops, &baseline) {
            Message::Redirect { shard: 1, addr } => assert_eq!(addr, addrs[1]),
            other => panic!("a drained, complete shard must redirect, got {other:?}"),
        }
        assert_eq!(net_stats(&loops[0]).shard_redirects, 1);

        // Shard 1 finishes the lease and its own last result; one more
        // round of gossip each way and both loops know it is over.
        agent1.work(loops, &baseline);
        agent1.report(&sat_on, loops);
        assert!(
            !loops[0].core.done(),
            "shard 0 last heard shard 1 had work left"
        );
        loops[0].steer_tick();
        loops[1].steer_tick();
        spin(loops, |l| l[0].core.done() && l[1].core.done());
        let ask = agent0.exchange(&Message::RequestWork, loops);
        assert!(
            matches!(
                ask,
                Message::NoWork {
                    campaign_complete: true,
                    ..
                }
            ),
            "{ask:?}"
        );

        let parts: Vec<_> = loops
            .iter()
            .map(|l| l.core.slots()[0].state.outputs().to_vec())
            .collect();
        assert_eq!(merge_artifacts(&parts).unwrap(), baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer that died with backlog on the board kept drawing
    /// redirects: its advert was only ever overwritten by its next
    /// status, which never came, and every redirected agent was refused,
    /// fell home, asked, and was redirected again without a pause. The
    /// advert now leaves with the steering connection — whichever way
    /// it was dialed.
    #[test]
    fn a_dead_peers_backlog_leaves_with_its_link() {
        let (own, peer) = (listener(), listener());
        let addrs = [addr_of(&own), addr_of(&peer)];
        let loops = &mut [shard_loop(own, 0, &addrs, None)];
        loops[0].steer_tick();
        spin(loops, |l| link_up(&l[0], 1));
        let (far_end, _) = peer.accept().unwrap();

        // Played as shard 1: lease shard 0's whole slice away, so its
        // agents' asks can only back off or bounce.
        let mut gossip = Client::connect(&addrs[0]);
        let mut held = Vec::new();
        loop {
            let leases = gossip.gossip(loops, 1, &held, 0, true);
            if leases.is_empty() {
                break;
            }
            held.extend(leases);
        }
        let mut agent = Client::hello(&addrs[0], 9, loops);
        let mut ask = |loops: &mut [EventLoop]| agent.exchange(&Message::RequestWork, loops);

        gossip.gossip(loops, 1, &held, 5, false);
        assert!(matches!(ask(loops), Message::Redirect { shard: 1, .. }));

        // The link this shard dialed drops: the peer is gone.
        drop(far_end);
        spin(loops, |l| !link_up(&l[0], 1));
        assert_eq!(loops[0].core.slots()[0].board.backlog[1], 0);
        assert!(loops[0].core.try_redirect(&[true]).is_none());
        match ask(loops) {
            Message::NoWork { retry_after_ms, .. } => assert!(retry_after_ms > 0),
            other => panic!("a dead peer must not draw a redirect, got {other:?}"),
        }

        // The same for the link the peer dialed.
        gossip.gossip(loops, 1, &held, 5, false);
        assert!(matches!(ask(loops), Message::Redirect { shard: 1, .. }));
        let before = loops[0].accepted_active;
        drop(gossip);
        spin(loops, |l| l[0].accepted_active < before);
        assert!(matches!(ask(loops), Message::NoWork { .. }));
    }

    /// A stalled peer holds nothing but its own link: agents are served
    /// in the very turns its status sits unanswered, and the link is
    /// recycled once that status is [`STEER_TIMEOUT_MS`] old.
    #[test]
    fn a_peer_that_accepts_and_never_answers_costs_agents_nothing() {
        // Connections complete in this listener's backlog; nobody ever
        // accepts them, let alone answers.
        let (own, silent) = (listener(), listener());
        let addrs = [addr_of(&own), addr_of(&silent)];
        let loops = &mut [shard_loop(own, 0, &addrs, None)];
        loops[0].steer_tick();
        spin(loops, |l| link_up(&l[0], 1));
        loops[0].steer_tick();
        assert_eq!(unacked(&mut loops[0]).len(), 1);

        let mut agent = Client::hello(&addrs[0], 9, loops);
        let reply = agent.exchange(&Message::RequestWork, loops);
        assert!(matches!(reply, Message::Assignment { .. }), "{reply:?}");

        // Younger than the timeout, the link is kept and told again...
        loops[0].steer_tick();
        assert_eq!(unacked(&mut loops[0]).len(), 2);
        // ...older, it is hung up and dialed afresh.
        loops[0].clock_offset += (STEER_TIMEOUT + Duration::from_millis(1)).as_secs_f64();
        loops[0].steer_tick();
        assert!(matches!(loops[0].links[1], Link::Dialing));
        assert!(!loops[0]
            .conns
            .values()
            .any(|c| matches!(c.role, Role::Link(_))));
        spin(loops, |l| link_up(&l[0], 1));
    }

    /// The far end of the steering link `loops[0]` (shard 0) keeps to
    /// shard 1, whose listener the test holds: the link is dialed and
    /// `statuses` steering ticks are sent down it.
    fn far_end_of_link(loops: &mut [EventLoop], peer: &TcpListener, statuses: usize) -> TcpStream {
        loops[0].steer_tick();
        spin(loops, |l| (1..l[0].links.len()).all(|p| link_up(&l[0], p)));
        let (far_end, _) = peer.accept().unwrap();
        for _ in 0..statuses {
            loops[0].steer_tick();
        }
        assert_eq!(unacked(&mut loops[0]).len(), statuses);
        far_end
    }

    /// A `LeaseGrant` is believed only as far as the link it rides: one
    /// for a campaign this server does not host, attributed to another
    /// shard than the peer, or cut under another shard's lease ids
    /// closes the link, moves no workunit and journals nothing — where
    /// adopting it would hand the last campaign a `LeaseIn` it never
    /// earned.
    #[test]
    fn a_forged_lease_grant_changes_nothing_and_closes_the_link() {
        let dir = std::env::temp_dir().join(format!("hcmd-loop-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (own, peer) = (listener(), listener());
        let addrs = [addr_of(&own), addr_of(&peer)];
        let journal = crate::journal::JournalConfig::new(&dir);
        let loops = &mut [shard_loop(own, 0, &addrs, Some(journal))];
        let books = |ev: &EventLoop| {
            let state = &ev.core.slots()[0].state;
            let wal = std::fs::metadata(dir.join("wal.bin")).unwrap().len();
            (
                state.core().owned_count(),
                net_stats(ev).shard_leases_in,
                wal,
            )
        };
        let before = books(&loops[0]);
        let everything: Vec<u32> = (0..loops[0].core.slots()[0].campaign.len() as u32).collect();
        assert!(
            before.0 < everything.len(),
            "shard 1 owns something to forge"
        );

        let lease = crate::shard::lease_id;
        for (campaign, from_shard, lease) in [
            (7, 1, lease(1, 1)),
            (0, 0, lease(1, 1)),
            (0, 1, lease(0, 1)),
        ] {
            let mut far_end = far_end_of_link(loops, &peer, 0);
            let forged = Message::LeaseGrant {
                lease,
                from_shard,
                wus: everything.clone(),
                complete: true,
                campaign,
            };
            far_end.write_all(&encode_with(&forged, Codec)).unwrap();
            spin(loops, |l| !link_up(&l[0], 1));
            assert!(matches!(loops[0].links[1], Link::Down));
            assert_eq!(books(&loops[0]), before, "{forged:?}");
            assert!(!loops[0].core.slots()[0].board.complete[1]);
        }

        // The honest grant the same peer could have sent is adopted.
        let mut far_end = far_end_of_link(loops, &peer, 0);
        let honest = Message::LeaseGrant {
            lease: lease(1, 1),
            from_shard: 1,
            wus: everything.clone(),
            complete: false,
            campaign: 0,
        };
        far_end.write_all(&encode_with(&honest, Codec)).unwrap();
        spin(loops, |l| net_stats(&l[0]).shard_leases_in == 1);
        assert_eq!(books(&loops[0]).0, everything.len());
        assert!(link_up(&loops[0], 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer speaks for itself only. A `StatusAck` in a third shard's
    /// name marks nobody complete — believed, it would (with the peer's
    /// own completion) end this server while shard 2 still had work —
    /// and an inbound steering connection keeps the shard it first named.
    #[test]
    fn a_status_ack_naming_a_third_shard_marks_nobody_complete() {
        let (own, peer, third) = (listener(), listener(), listener());
        let addrs = [addr_of(&own), addr_of(&peer), addr_of(&third)];
        let loops = &mut [shard_loop(own, 0, &addrs, None)];
        let mut far_end = far_end_of_link(loops, &peer, 2);
        for shard in [1, 2] {
            let ack = Message::StatusAck {
                shard,
                complete: true,
            };
            far_end.write_all(&encode_with(&ack, Codec)).unwrap();
        }
        spin(loops, |l| !link_up(&l[0], 1));
        assert_eq!(
            loops[0].core.slots()[0].board.complete,
            [false, true, false]
        );
        assert!(!loops[0].core.slots()[0].board.peers_complete(0));

        // Dialed in as shard 1, then speaking as shard 2: refused, and
        // shard 2's advert is not on the board.
        let mut gossip = Client::connect(&addrs[0]);
        gossip.gossip(loops, 1, &[], 3, false);
        let before = loops[0].accepted_active;
        gossip.send(&Message::ShardStatus {
            shard: 2,
            fresh_backlog: 9,
            outstanding: 0,
            complete: true,
            hungry: false,
            leases_held: Vec::new(),
            campaign: 0,
        });
        spin(loops, |l| l[0].accepted_active < before);
        assert_eq!(loops[0].core.slots()[0].board.backlog, [0, 0, 0]);
        assert_eq!(
            loops[0].core.slots()[0].board.complete,
            [false, true, false]
        );
    }

    /// Scrapes are connections like any other: one that stops half way
    /// through its request line delays neither an agent's frame nor a
    /// second scraper, and is closed at the idle cap.
    #[test]
    fn a_scraper_that_stalls_mid_request_line_delays_nobody() {
        let config = NetServerConfig {
            ops_addr: Some("127.0.0.1:0".into()),
            ..NetServerConfig::loopback(5.0)
        };
        let loops = &mut [open(listener(), &config)];
        let task_addr = addr_of(&loops[0].listener);
        let ops_addr = addr_of(loops[0].ops_listener.as_ref().unwrap());
        let scrapes = |ev: &EventLoop| {
            ev.conns
                .values()
                .filter(|c| matches!(c.role, Role::Scrape(_)))
                .count()
        };

        let mut stalled = TcpStream::connect(&ops_addr).unwrap();
        stalled.write_all(b"GET /metr").unwrap();
        spin(loops, |l| {
            l[0].conns.values().any(|c| c.read_buf.pending().len() == 9)
        });

        Client::hello(&task_addr, 9, loops);
        let mut second = TcpStream::connect(&ops_addr).unwrap();
        second.set_nonblocking(true).unwrap();
        second.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut answer = Vec::new();
        spin(loops, |_| {
            let mut chunk = [0u8; 4096];
            loop {
                match second.read(&mut chunk) {
                    Ok(0) => return true,
                    Ok(n) => answer.extend_from_slice(&chunk[..n]),
                    Err(_) => return false,
                }
            }
        });
        let answer = String::from_utf8(answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer}");
        assert!(answer.contains("hcmd_wu_states{state=\"done\"} 0"));

        // Still there after a sweep inside the cap; gone, with not a
        // byte sent, after one past it.
        loops[0].sweep_tick();
        assert_eq!(scrapes(&loops[0]), 1);
        for conn in loops[0].conns.values_mut() {
            if let Role::Scrape(since) = &mut conn.role {
                *since -= ops::IDLE_CAP + Duration::from_millis(1);
            }
        }
        loops[0].sweep_tick();
        assert_eq!(scrapes(&loops[0]), 0);
        assert_eq!(
            stalled.read(&mut [0u8; 16]).unwrap(),
            0,
            "closed unanswered"
        );
    }
}
