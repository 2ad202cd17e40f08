//! The wire-level task server: the sockets, the readiness poller and
//! the wall clock under the event loop.
//!
//! A small, dependency-free TCP daemon on **one thread**. Every
//! decision is [`MultiGrid`]'s ([`crate::registry`]) and every ordering
//! rule — connections before listeners, commit before a byte leaves,
//! the brush-off at the cap, the timers and the leave rule — is
//! `Loop`'s (`crate::event_loop`). What is here only carries: one
//! [`crate::sys::Poller`] watches the task listener, the ops listener
//! and every connection — volunteers, steering links to and from peer
//! shards, ops scrapes — and each batch it finds ready is handed to the
//! loop with the wall clock read on the core's [`SimTime`] axis
//! (seconds since server start), and each wal batch the loop commits is
//! written to `wal.bin` through the journal's [`WalFile`]. The only
//! thing off the thread is the blocking `connect` of a steering link,
//! handed to one dialer thread that sees addresses and returns sockets
//! — never grid state; a server with no peers never starts it.
//!
//! Why an event loop: a thread per agent tops out around the
//! dozens-of-volunteers scale. Here every connection is a few kilobytes
//! of buffer state, a request takes no lock, and a stalled peer or
//! scraper holds nothing but its own buffers. Nothing is negotiated: a
//! frame with any version byte but the one dialect's
//! ([`crate::protocol`]) closes its connection with reason `"protocol"`
//! before a reply is written.

use crate::event_loop::{Accept, Id, Io, Loop, Ready, SHUTDOWN_GRACE};
use crate::faults::ServerFaults;
use crate::journal::{JournalConfig, WalFile};
use crate::protocol::CampaignParams;
use crate::registry::{CampaignDef, MultiGrid};
use crate::shard::{ShardSpec, STEER_TIMEOUT_MS};
use crate::state::NetStats;
use crate::sys::{Event as IoEvent, Poller};
use gridsim::sched::{ServerConfig, ServerStats};
use gridsim::SimTime;
use maxdo::DockingOutput;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests, benches).
    pub addr: String,
    /// The campaign recipe announced to every agent.
    pub campaign: CampaignParams,
    /// Scheduling-core configuration (deadline, validation switch).
    pub scheduler: ServerConfig,
    /// The connection limit and the trust policy.
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

/// A bound, not-yet-running server: the event loop over its sockets,
/// with its listeners registered and any journal already replayed.
pub struct NetServer {
    lp: Loop<TcpStream>,
    io: Sockets,
    events: Vec<IoEvent>,
    epoch: Instant,
    /// Server-clock second the journal replay reached (0 for a fresh
    /// state): added to every `epoch.elapsed()` reading so the SimTime
    /// axis stays monotone across restarts.
    clock_offset: f64,
}

/// What the loop's bytes ride on: the listeners, the poller watching
/// them and every connection, the dialer, and the wal file.
struct Sockets {
    listener: TcpListener,
    /// The observability listener, when `ops_addr` is configured.
    ops_listener: Option<TcpListener>,
    poller: Poller,
    /// Started by the first dial, so a server without peers has none.
    dialer: Option<Dialer>,
    /// Where the core's committed batches go, when it is journaled.
    wal: Option<WalFile>,
}

impl NetServer {
    /// Binds the listener and materialises the campaign. With a journal
    /// configured, this is also the recovery path: any existing wal
    /// under the journal directory is replayed before the first
    /// connection is accepted, then opened for the batches to come.
    pub fn bind(config: NetServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
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
        let wal = config.journal.as_ref().map(WalFile::append).transpose()?;
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
        let now = SimTime::new(clock_offset);
        let ops = ops_listener.is_some();
        Ok(Self {
            lp: Loop::new(core, config.faults, config.sweep_ms, ops, now),
            io: Sockets {
                listener,
                ops_listener,
                poller,
                dialer: None,
                wal,
            },
            events: Vec::new(),
            epoch: Instant::now(),
            clock_offset,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.io.listener.local_addr()
    }

    /// The bound observability address, when `ops_addr` is configured
    /// (resolves port 0).
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.io.ops_listener.as_ref()?.local_addr().ok()
    }

    /// Runs the campaign to completion: accepts volunteers, sweeps
    /// deadlines, and returns once every workunit has validated, the
    /// volunteers' connections have drained (or the shutdown grace
    /// expires) and no volunteer that left without hearing so may still
    /// be resting (`event_loop::Loop::over`). On the way out the wal
    /// takes the records no reply followed (a last sweep's). A batch the
    /// wal file refuses ends the run with that error.
    pub fn run(mut self) -> io::Result<NetRunReport> {
        self.epoch = Instant::now();
        let wall_seconds = loop {
            if let Some(wall) = self.lp.over(self.now()) {
                break wall;
            }
            self.turn(SHUTDOWN_GRACE)?;
        };
        self.lp.commit(&mut self.io);
        if let Some(e) = self.lp.wal_error.take() {
            return Err(e);
        }
        if let Some(Dialer { jobs, thread, .. }) = self.io.dialer.take() {
            drop(jobs); // the dialer's queue closes and it returns
            thread
                .join()
                .map_err(|_| io::Error::other("the dialer thread panicked"))?;
        }
        Ok(report(self.lp, wall_seconds))
    }

    /// The wall clock on the core's [`SimTime`] axis — read here, and
    /// handed to the loop with whatever happened at it.
    fn now(&self) -> SimTime {
        SimTime::new(self.clock_offset + self.epoch.elapsed().as_secs_f64())
    }

    /// One turn: fire the timers that are due, wait for readiness — at
    /// most `timeout`, never past the next timer — serve the batch, and
    /// hand over any dialed link.
    fn turn(&mut self, timeout: Duration) -> io::Result<()> {
        let now = self.now();
        self.lp.tick(&mut self.io, now);
        let wait = self.lp.next_timer().seconds() - self.now().seconds();
        let timeout = timeout.min(Duration::from_secs_f64(wait.max(0.0)));
        let mut events = std::mem::take(&mut self.events);
        self.io.poller.wait(Some(timeout), &mut events)?;
        let task = self.io.listener.as_raw_fd();
        let ops = self.io.ops_listener.as_ref().map(AsRawFd::as_raw_fd);
        let batch = events.drain(..).map(|ev| match ev.fd {
            fd if fd == task => Ready::Listener(false),
            fd if Some(fd) == ops => Ready::Listener(true),
            _ => Ready::Conn(ev),
        });
        let now = self.now();
        self.lp.serve(&mut self.io, now, batch)?;
        self.events = events;
        while let Some((peer, dialed)) = self
            .io
            .dialer
            .as_ref()
            .and_then(|d| d.dialed.try_recv().ok())
        {
            let link = dialed.ok().map(|stream| (stream.as_raw_fd(), stream));
            self.lp.dialed(&mut self.io, now, peer, link);
        }
        self.lp.wal_error.take().map_or(Ok(()), Err)
    }
}

/// The finished run's report. The loop is given up whole, so each
/// campaign's validated outputs are moved out of its slot, never
/// copied: the report holds the one copy of the artifact, in `outputs`
/// on a solo server and in `partial_outputs` on a shard. A solo
/// server's campaigns must all be complete.
fn report(lp: Loop<TcpStream>, wall_seconds: f64) -> NetRunReport {
    let grid = lp.core;
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
        connections: lp.connections,
        rejected_connections: lp.rejected,
        campaigns,
        share_error,
        cross_quarantine_denials,
    }
}

impl Sockets {
    /// The ops listener when `ops` (and one is configured), else the
    /// task listener.
    fn listener(&self, ops: bool) -> &TcpListener {
        match &self.ops_listener {
            Some(listener) if ops => listener,
            _ => &self.listener,
        }
    }
}

impl Io<TcpStream> for Sockets {
    /// A connection that fails by itself is dropped, exhaustion is
    /// reported, and anything else is the listener broken.
    fn accept(&mut self, ops: bool) -> io::Result<Accept<TcpStream>> {
        loop {
            let stream = match self.listener(ops).accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Accept::Empty),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => match AcceptFailure::of(&e) {
                    AcceptFailure::Connection => continue,
                    AcceptFailure::Exhausted => return Ok(Accept::Exhausted),
                    AcceptFailure::Listener => return Err(e),
                },
            };
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                return Ok(Accept::Conn(stream.as_raw_fd(), stream));
            }
        }
    }

    fn watch(&mut self, id: Id, filed: Option<(bool, bool)>, (read, write): (bool, bool)) -> bool {
        match filed {
            Some(_) => self.poller.reregister(id, read, write),
            None => self.poller.register(id, read, write),
        }
        .is_ok()
    }

    fn forget(&mut self, id: Id) {
        let _ = self.poller.deregister(id);
    }

    fn listen(&mut self, ops: bool, on: bool) -> io::Result<()> {
        let fd = self.listener(ops).as_raw_fd();
        self.poller.reregister(fd, on, false)
    }

    fn dial(&mut self, peer: u16, addr: &str) -> bool {
        let dialer = self.dialer.get_or_insert_with(Dialer::spawn);
        dialer.jobs.send((peer, addr.to_string())).is_ok()
    }

    fn persist(&mut self, batch: &[u8]) -> io::Result<()> {
        let wal = self.wal.as_mut().expect("a journaled core's wal file");
        wal.persist(batch)
    }
}

/// The one helper thread: it runs the blocking `connect` of a steering
/// link so the loop never does. It is given a peer id and an address
/// and hands back a nonblocking socket or an error — no grid state
/// crosses over.
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
                let timeout = Duration::from_millis(STEER_TIMEOUT_MS);
                let stream = addr
                    .to_socket_addrs()
                    .and_then(|mut socks| {
                        socks
                            .next()
                            .ok_or_else(|| io::Error::other("unresolvable peer"))
                    })
                    .and_then(|sock| TcpStream::connect_timeout(&sock, timeout))
                    .and_then(|stream| {
                        stream.set_nonblocking(true)?;
                        let _ = stream.set_nodelay(true);
                        Ok(stream)
                    });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_versioned, CampaignParams, Message, PROTOCOL_VERSION};
    use crate::shard::merge_artifacts;
    use crate::state::WorkReply;
    use crate::world::{pump_until, Client, Pump};
    use std::io::{Read, Write};

    fn listener() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").unwrap()
    }

    fn addr_of(listener: &TcpListener) -> String {
        listener.local_addr().unwrap().to_string()
    }

    /// A server on an already bound listener whose timers never come
    /// due by themselves: the test decides when a sweep or steering
    /// tick happens.
    fn open(listener: TcpListener, config: NetServerConfig) -> NetServer {
        let config = NetServerConfig {
            addr: addr_of(&listener),
            ..config
        };
        drop(listener);
        let mut server = NetServer::bind(config).unwrap();
        server.lp.hold_timers();
        server
    }

    /// A server over a solo tiny campaign.
    fn solo() -> NetServer {
        open(listener(), NetServerConfig::loopback(5.0))
    }

    /// One shard of a topology whose task listeners are already bound.
    fn shard_server(
        own: TcpListener,
        shard_id: u16,
        addrs: &[String],
        journal: Option<JournalConfig>,
    ) -> NetServer {
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
        open(own, config)
    }

    fn connect(addr: &str) -> Client<TcpStream> {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_nonblocking(true).unwrap();
        Client::new(stream)
    }

    /// One round over real sockets: every server takes one turn,
    /// waiting at most a millisecond for something to be ready.
    impl<const N: usize> Pump for [NetServer; N] {
        fn pump(&mut self) {
            for server in self.iter_mut() {
                server.turn(Duration::from_millis(1)).unwrap();
            }
        }
    }

    fn steer(server: &mut NetServer) {
        let now = server.now();
        server.lp.steer_tick(&mut server.io, now);
    }

    fn net_stats(server: &NetServer) -> NetStats {
        server.lp.core.slots()[0].state.net_stats
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
        let server = &mut [open(listener(), config)];
        let ops_addr = server[0].ops_addr().unwrap();
        for ops in [false, true] {
            server[0].io.listen(ops, false).unwrap();
            server[0].lp.accept_paused[usize::from(ops)] = true;
        }
        let _agent = TcpStream::connect(server[0].local_addr().unwrap()).unwrap();
        let mut scraper = TcpStream::connect(ops_addr).unwrap();
        scraper.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        scraper.set_nonblocking(true).unwrap();
        let mut reply = Vec::new();
        for _ in 0..50 {
            server.pump();
            let _ = scraper.read_to_end(&mut reply);
        }
        assert_eq!(
            (server[0].lp.connections, reply.len()),
            (0, 0),
            "both paused"
        );

        let now = server[0].now();
        server[0].lp.sweep_tick(&mut server[0].io, now);
        assert_eq!(server[0].lp.accept_paused, [false; 2]);
        pump_until(server, |s| {
            let _ = scraper.read_to_end(&mut reply);
            s[0].lp.connections == 1 && reply.starts_with(b"HTTP/1.1 200")
        });
    }

    /// The brush-off at the cap — sent before the peer has said
    /// anything — is an ordinary frame of the one dialect, on the wire.
    #[test]
    fn the_cap_brush_off_busy_decodes_with_the_one_decoder() {
        let server = &mut [solo()];
        let mut agent = TcpStream::connect(server[0].local_addr().unwrap()).unwrap();
        server[0].lp.faults.max_connections = 1;
        server[0].lp.accepted_active = 1;
        pump_until(server, |s| s[0].lp.rejected == 1);
        assert_eq!(server[0].lp.connections, 0);

        let mut wire = Vec::new();
        agent.read_to_end(&mut wire).unwrap();
        assert_eq!(wire[4], PROTOCOL_VERSION);
        let (msg, consumed, _) = decode_versioned(&wire).expect("a whole Busy frame");
        assert!(matches!(msg, Message::Busy { retry_after_ms } if retry_after_ms > 0));
        assert_eq!(consumed, wire.len(), "one frame, then the close");
    }

    /// Asks and reports straight on the server's core, as agents 1 and
    /// 2 in turn volunteering for every campaign, with results from that
    /// campaign's `baselines` row, until neither draws work.
    fn drive(server: &mut NetServer, baselines: &[Vec<DockingOutput>]) {
        let attached = vec![true; baselines.len()];
        let core = &mut server.lp.core;
        let mut idle = 0;
        for (step, agent) in (1..=2u64).cycle().enumerate() {
            assert!(step < 10_000, "the core never ran dry");
            let now = SimTime::new(1.0 + step as f64 * 0.01);
            match core.fetch(now, agent, &attached) {
                (campaign, WorkReply::Assigned(a)) => {
                    idle = 0;
                    let output = baselines[usize::from(campaign)][a.workunit as usize].clone();
                    core.report(now, campaign, a.replica, a.workunit, output);
                }
                _ if idle == 1 => return,
                _ => idle += 1,
            }
        }
    }

    /// Where each validated output's rows live in the grid.
    fn row_addresses(server: &NetServer) -> Vec<Option<*const maxdo::DockingRow>> {
        let outputs = server.lp.core.slots()[0].state.outputs();
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
        let mut solo = solo();
        let baseline = solo.lp.core.slots()[0].campaign.baseline_outputs();
        assert!(
            baseline.iter().all(|o| !o.rows.is_empty()),
            "rows to point at"
        );
        let baselines = std::slice::from_ref(&baseline);
        drive(&mut solo, baselines);
        assert!(solo.lp.core.all_complete());
        let held = row_addresses(&solo);
        let report = report(solo.lp, 0.0);
        let c = &report.campaigns[0];
        assert!(c.partial_outputs.is_empty(), "solo fills outputs only");
        assert_eq!(c.outputs, baseline);
        let reported: Vec<_> = c.outputs.iter().map(|o| Some(o.rows.as_ptr())).collect();
        assert_eq!(reported, held, "moved, not copied");

        let (own, peer) = (listener(), listener());
        let addrs = [addr_of(&own), addr_of(&peer)];
        let mut shard = shard_server(own, 0, &addrs, None);
        drive(&mut shard, baselines);
        let held = row_addresses(&shard);
        assert!(held.iter().any(Option::is_some) && held.iter().any(Option::is_none));
        let report = super::report(shard.lp, 0.0);
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
        let mut server = open(listener(), config);
        let baselines: Vec<_> = server
            .lp
            .core
            .slots()
            .iter()
            .map(|s| s.campaign.baseline_outputs())
            .collect();

        // The saboteur reports second, and wrong, on beta's quorum pairs
        // until quarantine trips; an honest reissue validates each.
        const SABOTEUR: u64 = 9;
        let beta = [false, true];
        let served = |server: &mut NetServer, now: f64, agent: u64| {
            let reply = server.lp.core.fetch(SimTime::new(now), agent, &beta);
            match reply {
                (1, WorkReply::Assigned(a)) => a,
                other => panic!("agent {agent} not served on beta: {other:?}"),
            }
        };
        for k in 0..u64::from(quarantine_after) {
            let now = 1.0 + k as f64;
            let first = served(&mut server, now, 10 + k);
            let second = served(&mut server, now, SABOTEUR);
            assert_eq!(first.workunit, second.workunit, "quorum siblings");
            let output = baselines[1][first.workunit as usize].clone();
            let mut corrupted = output.clone();
            corrupted.rows[0].eelec += 1e-9;
            let at = SimTime::new(now + 0.1);
            server
                .lp
                .core
                .report(at, 1, first.replica, first.workunit, output.clone());
            let (_, judged) =
                server
                    .lp
                    .core
                    .report(at, 1, second.replica, second.workunit, corrupted);
            assert_eq!(judged.verdict, crate::state::Verdict::QuorumRejected);
            let reissue = served(&mut server, now + 0.2, 20 + k);
            assert_eq!(reissue.workunit, first.workunit, "the rejected one");
            let at = SimTime::new(now + 0.3);
            server
                .lp
                .core
                .report(at, 1, reissue.replica, reissue.workunit, output);
        }
        drive(&mut server, &baselines);
        assert!(server.lp.core.all_complete());

        let report = report(server.lp, 0.0);
        let trust = |i: usize| report.campaigns[i].trust.expect("trust is on");
        assert_eq!(trust(0).ever_quarantined, 0, "alpha: {:?}", trust(0));
        assert_eq!(trust(1).ever_quarantined, 1, "beta: {:?}", trust(1));
        assert!(report.campaigns[1].net_stats.quorum_rejected >= u64::from(quarantine_after));
        assert_eq!(report.campaigns[0].net_stats.quorum_rejected, 0);
    }

    /// A two-shard campaign over real sockets, both links dialed by the
    /// dialer thread: hunger, a lease cut and adopted over a link,
    /// completion gossiped both ways, stepped from this thread. The
    /// whole history, redirect and wal included, runs on stepped loops
    /// in `event_loop::tests::a_two_shard_history_runs_to_done`.
    #[test]
    fn a_two_shard_history_runs_to_done_over_real_links() {
        let (l0, l1) = (listener(), listener());
        let addrs = [addr_of(&l0), addr_of(&l1)];
        let servers = &mut [
            shard_server(l0, 0, &addrs, None),
            shard_server(l1, 1, &addrs, None),
        ];
        let baseline = servers[0].lp.core.slots()[0].campaign.baseline_outputs();
        steer(&mut servers[0]);
        steer(&mut servers[1]);
        pump_until(servers, |s| s[0].lp.link_up(1) && s[1].lp.link_up(0));

        // Shard 1's agent works its slice dry but for one result it sits
        // on, so its next status is hungry and shard 0 cuts it a lease.
        let mut agent1 = connect(&addrs[1]).hello(1, servers);
        let sat_on = agent1
            .ask(servers, &baseline)
            .expect("work on a fresh shard");
        agent1.work(servers, &baseline);
        steer(&mut servers[1]);
        pump_until(servers, |s| net_stats(&s[1]).shard_leases_in == 1);
        assert_eq!(net_stats(&servers[0]).shard_leases_out, 1);

        // Both slices finish; one round of gossip each way ends both.
        connect(&addrs[0])
            .hello(2, servers)
            .work(servers, &baseline);
        agent1.work(servers, &baseline);
        agent1.report(&sat_on, servers);
        steer(&mut servers[0]);
        steer(&mut servers[1]);
        pump_until(servers, |s| s[0].lp.core.done() && s[1].lp.core.done());
        let parts: Vec<_> = servers
            .iter()
            .map(|s| s.lp.core.slots()[0].state.outputs().to_vec())
            .collect();
        assert_eq!(merge_artifacts(&parts).unwrap(), baseline);
    }
}
