//! The multiplexed fleet driver: thousands of simulated volunteers on
//! one thread.
//!
//! The threaded agent ([`crate::agent::run_agent`]) is the *reference*
//! volunteer — one OS thread, blocking sockets, real docking. It is
//! faithful but it cannot scale a loopback bench past a few dozen
//! agents: 10 000 volunteers would need 10 000 stacks. This module
//! drives N agent state machines through nonblocking sockets on a
//! single thread, mirroring the reference agent's protocol behaviour
//! exactly — Hello/HelloAck, request → compute → report, Busy retries,
//! server-directed backoff, cross-shard redirects (at most one followed
//! per ask, home again when the target is dead, hangs up in the
//! handshake or has no work), and the same per-agent [`FaultDice`]
//! stream (disconnects, stalls past the deadline, corrupted payloads)
//! folded into the state machine as timer events.
//!
//! Three deliberate departures from the reference agent, all chosen for
//! scale rather than fidelity, and the only ones:
//!
//! * **Memoized docking.** Every unique workunit is computed once, on a
//!   helper thread, and the result shared; a corrupting agent mutates
//!   its own clone. 10 000 agents re-docking the same 33 workunits
//!   would measure the docking kernel, not the server's wire path —
//!   and a stalled compute on the driver thread would poison every
//!   other agent's latency sample.
//! * **Sessions close across backoffs.** The reference agent sleeps on
//!   an open socket; here an agent told `NoWork` (or redirected a second
//!   time for one ask) says `Bye`, closes, and reconnects when its
//!   backoff expires. That is how periodic
//!   BOINC volunteers actually behave, and it keeps the peak open-fd
//!   count under [`MuxFleetConfig::max_open`] — a 10k-agent loopback
//!   run owns *both* ends of every socket, which would otherwise need
//!   20 001 descriptors against a typical 1024-or-so rlimit.
//! * **Admission-controlled asks.** At most
//!   [`MuxFleetConfig::max_inflight_asks`] `RequestWork` frames are in
//!   flight at once; agents past the cap park in a FIFO until a reply
//!   frees a slot. The single-threaded server answers one frame at a
//!   time, so a synchronized wave of 10 000 asks serializes into a
//!   ~200 ms queue for whoever lands last — a deep-but-bounded pipeline
//!   keeps the server saturated (throughput is unchanged) while holding
//!   its queue, and therefore request latency, to a few hundred service
//!   times.

use crate::campaign::NetCampaign;
use crate::faults::{FaultAction, FaultDice, FaultProfile};
use crate::protocol::{decode_versioned, encode_with, Codec, DecodeError, Message};
use crate::sys::{Event as IoEvent, Poller};
use maxdo::DockingOutput;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Multiplexed fleet configuration.
#[derive(Debug, Clone)]
pub struct MuxFleetConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Sharded topology: when non-empty, agent *i* dials
    /// `addrs[i % addrs.len()]` instead of `addr`, spreading the fleet
    /// round-robin across every shard of a multi-server campaign.
    pub addrs: Vec<String>,
    /// Number of simulated agents; ids run `1..=agents`.
    pub agents: usize,
    /// Run seed shared with the rest of the campaign fleet.
    pub seed: u64,
    /// Fault profile applied to every simulated agent (each agent still
    /// draws from its own id-salted dice stream).
    pub profile: FaultProfile,
    /// The first `saboteurs` agent ids (1..=saboteurs) corrupt *every*
    /// payload instead of drawing from `profile` — the adversary the
    /// trust policy is designed to starve. Low ids, so a saboteur fleet
    /// is deterministic regardless of fleet size.
    pub saboteurs: usize,
    /// Campaign attachments every fleet agent announces in its Hello.
    /// Empty = the default campaign; `["*"]` = all.
    pub campaigns: Vec<String>,
    /// Peak simultaneously-open connections; agents beyond it queue for
    /// a connect slot. Remember the loopback bench owns both socket
    /// ends, so the process fd bill is twice this number.
    pub max_open: usize,
    /// Connect dispatches per driver iteration. Dialing happens on a
    /// small connector-thread pool — this only bounds how fast the
    /// driver feeds it, so a ramp cannot flood the dial queue.
    pub connect_batch: usize,
    /// Peak `RequestWork` frames in flight at once. The server answers
    /// one frame at a time, so a synchronized burst of N asks queues the
    /// last one behind N − 1 service times (~200 ms at N = 10 000); this
    /// admission cap turns the burst into a pipeline deep enough to keep
    /// the server saturated while bounding its queue.
    pub max_inflight_asks: usize,
    /// Hard wall-clock cap; the driver returns what it has when this
    /// expires (`saw_completion: false`).
    pub timeout: Duration,
}

impl MuxFleetConfig {
    /// A clean (no-fault) fleet of `agents` volunteers.
    pub fn new(addr: impl Into<String>, agents: usize) -> Self {
        Self {
            addr: addr.into(),
            addrs: Vec::new(),
            agents,
            seed: 0,
            profile: FaultProfile::none(),
            saboteurs: 0,
            campaigns: Vec::new(),
            max_open: 8_000,
            connect_batch: 64,
            max_inflight_asks: 16,
            timeout: Duration::from_secs(300),
        }
    }
}

/// What the whole fleet did, aggregated — the mux analogue of summing
/// N [`crate::agent::AgentReport`]s.
#[derive(Debug, Clone, Default)]
pub struct MuxFleetReport {
    /// Assignments received across the fleet.
    pub assignments: u64,
    /// Results reported (honest + corrupted + stalled).
    pub reported: u64,
    /// Reports the server accepted.
    pub accepted: u64,
    /// Injected disconnects.
    pub disconnect_faults: u64,
    /// Injected stalls.
    pub stall_faults: u64,
    /// Injected corruptions.
    pub corrupt_faults: u64,
    /// Round-trip latency of every `RequestWork`, milliseconds.
    pub request_latencies_ms: Vec<f64>,
    /// Whether any agent saw the campaign complete before the timeout.
    pub saw_completion: bool,
    /// Connections the fleet opened over its lifetime.
    pub connections: u64,
    /// Cross-shard redirects followed (sharded servers only).
    pub redirects_followed: u64,
}

/// One simulated agent's protocol position.
enum AState {
    /// Not connected; wants a connect slot once `until` passes.
    Offline { until: Instant },
    /// Handed to the connector pool; waiting for the dialed socket.
    Connecting,
    /// Hello sent, awaiting `HelloAck`.
    Greeting,
    /// Ready to ask but held back by the in-flight ask cap; queued in
    /// the driver's `ask_queue`.
    AskPending,
    /// `RequestWork` sent at `asked`, awaiting the reply.
    Asking { asked: Instant },
    /// Assignment in hand, waiting for the shared compute of its
    /// workunit; the fault drawn on receipt is applied at delivery.
    AwaitCompute {
        replica: u64,
        campaign: u16,
        workunit: u32,
        action: FaultAction,
    },
    /// Stall fault: the finished result is deliberately held past the
    /// deadline, then reported.
    Stalling {
        until: Instant,
        replica: u64,
        campaign: u16,
        workunit: u32,
    },
    /// Report sent, awaiting `ResultAck`.
    AwaitAck,
    /// Saw campaign completion (or was shut down with the fleet).
    Done,
}

/// One agent: identity, fault dice, state, and (while connected) its
/// socket with buffered bytes each way.
struct MuxAgent {
    id: u64,
    dice: FaultDice,
    state: AState,
    conn: Option<MuxConn>,
    /// Where the next session dials when that is not the agent's home
    /// shard: the peer a `Redirect` named.
    away: Option<String>,
    /// A redirect was followed for the current ask. At most one is, so
    /// two drained shards pointing at each other cannot trap an agent
    /// in a loop.
    bounced: bool,
}

struct MuxConn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    interest: (bool, bool),
}

impl MuxConn {
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
}

/// The shared docking cache: each workunit is computed exactly once.
enum CacheEntry {
    /// Compute in flight; these agent indices are waiting on it.
    Pending(Vec<usize>),
    Ready(Arc<DockingOutput>),
}

/// How often the driver scans agent timers (backoffs, stalls, connect
/// queue) when no socket is ready — also the poll-timeout ceiling.
const TIMER_TICK: Duration = Duration::from_millis(5);

/// Reconnect delay after an injected disconnect (matches the reference
/// agent's 20 ms pause before it re-dials).
const DISCONNECT_PAUSE: Duration = Duration::from_millis(20);

/// Reconnect delay after an unexpected socket error.
const ERROR_PAUSE: Duration = Duration::from_millis(50);

/// Backoff after a second `Redirect` for one ask (the reference agent's
/// 100 ms sleep before it asks the same server again).
const REDIRECT_PAUSE: Duration = Duration::from_millis(100);

/// Connector-pool width. Dialing is blocking (a dropped SYN under
/// backlog pressure stalls `connect` for a full retransmit timeout),
/// so it happens on these helper threads: one slow dial delays at most
/// the dials queued behind it on the same worker, never the driver.
const CONNECT_WORKERS: usize = 4;

/// Compute-pool width: all spare cores, at least one. Docking runs on
/// a few persistent nice-19 workers rather than a thread per workunit —
/// dozens of runnable compute threads would out-weigh the driver and
/// server in the scheduler even at the lowest priority, and on a
/// loopback bench every millisecond the kernel holds the core shows up
/// directly in the request-latency tail.
fn compute_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(2)
        .max(1)
}

/// Runs the whole fleet to campaign completion (or the timeout) on the
/// calling thread.
pub fn run_mux_fleet(config: MuxFleetConfig) -> io::Result<MuxFleetReport> {
    Driver::new(config)?.run()
}

struct Driver {
    config: MuxFleetConfig,
    poller: Poller,
    agents: Vec<MuxAgent>,
    /// fd → agent index, for routing readiness events.
    by_fd: HashMap<i32, usize>,
    /// Hosted campaigns the fleet is attached to, indexed by the wire
    /// campaign id (one entry, index 0, on a single-campaign server).
    roster: Vec<Arc<NetCampaign>>,
    deadline_seconds: f64,
    /// Memoized docking results, keyed by campaign id + workunit — the
    /// same workunit index names different work in different campaigns.
    cache: HashMap<(u16, u32), CacheEntry>,
    /// Finished docking results from the compute pool.
    compute_rx: mpsc::Receiver<((u16, u32), DockingOutput)>,
    /// Docking jobs for the persistent compute pool.
    compute_job_tx: mpsc::Sender<(u16, u32, u32, u32, Arc<NetCampaign>)>,
    dial_tx: mpsc::Sender<(usize, String)>,
    dialed_rx: mpsc::Receiver<(usize, io::Result<TcpStream>)>,
    /// Dials handed to the pool and not yet back; counts against
    /// `max_open` so in-flight connects can't overshoot the fd budget.
    pending_connects: usize,
    /// `RequestWork` frames awaiting a reply (agents in `Asking`).
    inflight_asks: usize,
    /// Agents in `AskPending`, oldest first. Entries can go stale when
    /// a queued session drops; `pump_asks` skips those.
    ask_queue: VecDeque<usize>,
    report: MuxFleetReport,
    open: usize,
    complete: bool,
}

impl Driver {
    fn new(config: MuxFleetConfig) -> io::Result<Self> {
        let start = Instant::now();
        let agents = (1..=config.agents as u64)
            .map(|id| {
                // Saboteurs corrupt unconditionally; everyone else rolls
                // the configured profile.
                let profile = if id <= config.saboteurs as u64 {
                    FaultProfile::saboteur()
                } else {
                    config.profile
                };
                MuxAgent {
                    id,
                    dice: FaultDice::new(config.seed, id, profile),
                    state: AState::Offline { until: start },
                    conn: None,
                    away: None,
                    bounced: false,
                }
            })
            .collect();
        let (compute_tx, compute_rx) = mpsc::channel();
        let (compute_job_tx, compute_jobs) =
            mpsc::channel::<(u16, u32, u32, u32, Arc<NetCampaign>)>();
        let compute_jobs = Arc::new(Mutex::new(compute_jobs));
        for _ in 0..compute_workers() {
            let jobs = Arc::clone(&compute_jobs);
            let done = compute_tx.clone();
            thread::spawn(move || {
                // The docking kernel must not starve the driver (or the
                // server, on a loopback bench sharing its core): compute
                // runs at the lowest scheduling priority.
                crate::sys::deprioritize_current_thread();
                loop {
                    let Ok((cidx, workunit, isep_start, positions, campaign)) =
                        jobs.lock().expect("compute queue").recv()
                    else {
                        return;
                    };
                    let spec = campaign.spec(workunit);
                    debug_assert_eq!((spec.isep_start, spec.positions), (isep_start, positions));
                    let output = campaign.compute(spec);
                    // Fails only once the driver is gone; then the job
                    // queue is closed too and the next recv ends us.
                    let _ = done.send(((cidx, workunit), output));
                }
            });
        }
        let (dial_tx, dial_jobs) = mpsc::channel::<(usize, String)>();
        let (dialed_tx, dialed_rx) = mpsc::channel();
        let dial_jobs = Arc::new(Mutex::new(dial_jobs));
        for _ in 0..CONNECT_WORKERS {
            let jobs = Arc::clone(&dial_jobs);
            let done = dialed_tx.clone();
            thread::spawn(move || loop {
                let Ok((idx, addr)) = jobs.lock().expect("dial queue").recv() else {
                    return;
                };
                // Sends fail only once the driver is gone — then the
                // queue is closed too and the next recv ends the worker.
                let _ = done.send((idx, TcpStream::connect(&addr)));
            });
        }
        Ok(Self {
            poller: Poller::new()?,
            agents,
            by_fd: HashMap::new(),
            roster: Vec::new(),
            deadline_seconds: 0.0,
            cache: HashMap::new(),
            compute_rx,
            compute_job_tx,
            dial_tx,
            dialed_rx,
            pending_connects: 0,
            inflight_asks: 0,
            ask_queue: VecDeque::new(),
            report: MuxFleetReport::default(),
            open: 0,
            complete: false,
            config,
        })
    }

    fn run(mut self) -> io::Result<MuxFleetReport> {
        let deadline = Instant::now() + self.config.timeout;
        let mut events: Vec<IoEvent> = Vec::new();
        while !self.complete {
            if Instant::now() > deadline {
                break;
            }
            self.drain_compute_results();
            self.drain_dialed();
            self.fire_timers();
            self.pump_asks();
            self.poller.wait(Some(TIMER_TICK), &mut events)?;
            for ev in events.drain(..) {
                if self.complete {
                    break;
                }
                if let Some(&idx) = self.by_fd.get(&ev.fd) {
                    self.advance_io(idx, ev);
                }
            }
        }
        // Fleet shutdown: every socket drops at once; the server sees
        // the EOFs and drains within its grace window.
        for idx in 0..self.agents.len() {
            self.disconnect(idx);
            self.agents[idx].state = AState::Done;
        }
        self.report.saw_completion = self.complete;
        Ok(self.report)
    }

    /// Applies finished docking computes: the workunit's waiters get
    /// their (possibly fault-shaped) reports queued.
    fn drain_compute_results(&mut self) {
        while let Ok((key, output)) = self.compute_rx.try_recv() {
            let output = Arc::new(output);
            let waiters = match self
                .cache
                .insert(key, CacheEntry::Ready(Arc::clone(&output)))
            {
                Some(CacheEntry::Pending(w)) => w,
                _ => Vec::new(),
            };
            for idx in waiters {
                self.deliver_compute(idx, key, &output);
            }
        }
    }

    /// Moves one agent from `AwaitCompute` toward its report, honouring
    /// the fault it drew when the assignment arrived.
    fn deliver_compute(&mut self, idx: usize, key: (u16, u32), output: &Arc<DockingOutput>) {
        let AState::AwaitCompute {
            replica,
            campaign,
            workunit,
            action,
        } = self.agents[idx].state
        else {
            return;
        };
        if (campaign, workunit) != key {
            return;
        }
        match action {
            FaultAction::Stall => {
                self.agents[idx].state = AState::Stalling {
                    until: Instant::now()
                        + Duration::from_secs_f64(self.deadline_seconds.max(0.0) + 0.3),
                    replica,
                    campaign,
                    workunit,
                };
            }
            FaultAction::Corrupt => {
                let mut corrupted = (**output).clone();
                self.agents[idx].dice.corrupt(&mut corrupted);
                self.send_report(idx, replica, campaign, workunit, corrupted);
            }
            FaultAction::None | FaultAction::Disconnect => {
                self.send_report(idx, replica, campaign, workunit, (**output).clone());
            }
        }
    }

    fn send_report(
        &mut self,
        idx: usize,
        replica: u64,
        campaign: u16,
        workunit: u32,
        output: DockingOutput,
    ) {
        self.queue_frame(
            idx,
            &Message::ResultReport {
                replica,
                workunit,
                campaign,
                output,
            },
        );
        self.report.reported += 1;
        self.agents[idx].state = AState::AwaitAck;
    }

    /// Timer scan: expire stalls, wake offline agents whose backoff
    /// passed (bounded by the connect batch and the open-socket cap).
    fn fire_timers(&mut self) {
        let now = Instant::now();
        let mut budget = self.config.connect_batch;
        for idx in 0..self.agents.len() {
            match self.agents[idx].state {
                AState::Stalling {
                    until,
                    replica,
                    campaign,
                    workunit,
                } if now >= until => {
                    if let Some(CacheEntry::Ready(out)) = self.cache.get(&(campaign, workunit)) {
                        let out = Arc::clone(out);
                        self.send_report(idx, replica, campaign, workunit, (*out).clone());
                    } else {
                        // Compute lost in a shutdown race: nothing to
                        // report, start the session over.
                        self.agents[idx].state = AState::Offline { until: now };
                    }
                }
                AState::Offline { until }
                    if now >= until
                        && budget > 0
                        && self.open + self.pending_connects < self.config.max_open =>
                {
                    budget -= 1;
                    self.pending_connects += 1;
                    self.agents[idx].state = AState::Connecting;
                    let addr = self.dial_addr(idx).to_string();
                    if self.dial_tx.send((idx, addr)).is_err() {
                        // Connector pool gone (only on teardown): retry
                        // later so the state machine stays coherent.
                        self.pending_connects -= 1;
                        self.agents[idx].state = AState::Offline {
                            until: now + ERROR_PAUSE,
                        };
                    }
                }
                _ => {}
            }
        }
    }

    /// Where this agent's next session dials: the peer it was
    /// redirected to, else the shard it calls home — round-robin over
    /// `addrs` when a sharded topology is configured, else the single
    /// `addr`.
    fn dial_addr(&self, idx: usize) -> &str {
        if let Some(peer) = &self.agents[idx].away {
            peer
        } else if self.config.addrs.is_empty() {
            &self.config.addr
        } else {
            &self.config.addrs[idx % self.config.addrs.len()]
        }
    }

    /// Points the agent's next dial back at its home shard, which tracks
    /// global completion and can re-steer. True if it was away.
    fn fall_home(&mut self, idx: usize) -> bool {
        self.agents[idx].bounced = false;
        self.agents[idx].away.take().is_some()
    }

    /// Collects dialed sockets from the connector pool and installs
    /// them on their agents.
    fn drain_dialed(&mut self) {
        while let Ok((idx, dialed)) = self.dialed_rx.try_recv() {
            self.pending_connects -= 1;
            if !matches!(self.agents[idx].state, AState::Connecting) || self.complete {
                continue; // Stale dial; the socket drops here.
            }
            match dialed {
                Ok(stream) => self.install_conn(idx, stream),
                Err(_) => self.lose_session(idx),
            }
        }
    }

    /// Wires a freshly-dialed socket into the poller and queues the
    /// agent's `Hello`.
    fn install_conn(&mut self, idx: usize, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.agents[idx].state = AState::Offline {
                until: Instant::now() + ERROR_PAUSE,
            };
            return;
        }
        let fd = stream.as_raw_fd();
        self.agents[idx].conn = Some(MuxConn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            interest: (false, false),
        });
        self.by_fd.insert(fd, idx);
        self.open += 1;
        self.report.connections += 1;
        if self.poller.register(fd, true, false).is_err() {
            self.lose_session(idx);
            return;
        }
        if let Some(c) = self.agents[idx].conn.as_mut() {
            c.interest = (true, false);
        }
        let threads = 1u32;
        let id = self.agents[idx].id;
        // Before the frame is queued: a peer that resets under the Hello
        // already hung up in the handshake.
        self.agents[idx].state = AState::Greeting;
        self.queue_frame(
            idx,
            &Message::Hello {
                agent: id,
                threads,
                campaigns: self.config.campaigns.clone(),
            },
        );
    }

    /// Encodes `msg` onto the agent's connection and flushes what fits;
    /// leftover bytes raise write interest.
    fn queue_frame(&mut self, idx: usize, msg: &Message) {
        let frame = encode_with(msg, Codec);
        let Some(conn) = self.agents[idx].conn.as_mut() else {
            return;
        };
        conn.write_buf.extend_from_slice(&frame);
        if conn.flush().is_err() {
            self.lose_session(idx);
            return;
        }
        self.update_interest(idx);
    }

    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.agents[idx].conn.as_mut() else {
            return;
        };
        let wanted = (true, conn.write_pos < conn.write_buf.len());
        if wanted != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = wanted;
            let _ = self.poller.reregister(fd, wanted.0, wanted.1);
        }
    }

    /// Tears the socket down (if any) without touching agent state.
    fn disconnect(&mut self, idx: usize) {
        if let Some(conn) = self.agents[idx].conn.take() {
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.deregister(fd);
            self.by_fd.remove(&fd);
            self.open -= 1;
        }
    }

    /// Sends `RequestWork` now if an in-flight slot is free, else parks
    /// the agent in `AskPending` until one opens.
    fn begin_ask(&mut self, idx: usize) {
        if self.inflight_asks >= self.config.max_inflight_asks {
            self.agents[idx].state = AState::AskPending;
            self.ask_queue.push_back(idx);
            return;
        }
        self.inflight_asks += 1;
        self.agents[idx].state = AState::Asking {
            asked: Instant::now(),
        };
        // On a flush error this drops the session, which releases the
        // slot again via `end_ask`.
        self.queue_frame(idx, &Message::RequestWork);
    }

    /// Releases the agent's in-flight ask slot if it holds one,
    /// returning the send time. Call before overwriting an `Asking`
    /// state, from reply handlers and teardown paths alike.
    fn end_ask(&mut self, idx: usize) -> Option<Instant> {
        if let AState::Asking { asked } = self.agents[idx].state {
            self.inflight_asks -= 1;
            // Leave `Asking` with the release so a nested teardown
            // (e.g. `drop_session` after a reply handler already called
            // this) cannot free the slot twice; every caller overwrites
            // this placeholder state before returning to the driver.
            self.agents[idx].state = AState::AskPending;
            Some(asked)
        } else {
            None
        }
    }

    /// The reply to this agent's ask arrived: releases its slot and
    /// records the round trip.
    fn ask_answered(&mut self, idx: usize) {
        if let Some(asked) = self.end_ask(idx) {
            self.report
                .request_latencies_ms
                .push(asked.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Admits parked asks as in-flight slots free up (once per driver
    /// iteration, so reply handlers never re-enter each other).
    fn pump_asks(&mut self) {
        while self.inflight_asks < self.config.max_inflight_asks {
            let Some(idx) = self.ask_queue.pop_front() else {
                return;
            };
            if !matches!(self.agents[idx].state, AState::AskPending) {
                continue; // Session dropped while queued.
            }
            self.inflight_asks += 1;
            self.agents[idx].state = AState::Asking {
                asked: Instant::now(),
            };
            self.queue_frame(idx, &Message::RequestWork);
        }
    }

    /// A session lost to a failed dial, a socket error or a confused
    /// peer: pause, then dial the same server again. A redirect target
    /// that is dead, or hangs up before its `HelloAck`, finished its
    /// drain and closed between gossip ticks — not a dead campaign: the
    /// agent falls home at once instead.
    fn lose_session(&mut self, idx: usize) {
        let state = &self.agents[idx].state;
        let unmet = matches!(state, AState::Connecting | AState::Greeting);
        let pause = if unmet && self.fall_home(idx) {
            Duration::ZERO
        } else {
            ERROR_PAUSE
        };
        self.drop_session(idx, pause);
    }

    /// Closes the session and schedules a reconnect, exactly like the
    /// reference agent's `continue 'session`.
    fn drop_session(&mut self, idx: usize, pause: Duration) {
        self.end_ask(idx);
        self.disconnect(idx);
        self.agents[idx].state = AState::Offline {
            until: Instant::now() + pause,
        };
    }

    /// Readiness on one agent's socket: read, decode, dispatch, flush.
    fn advance_io(&mut self, idx: usize, ev: IoEvent) {
        if ev.readable || ev.hangup {
            let mut chunk = [0u8; 16 * 1024];
            let mut lost = false;
            loop {
                let Some(conn) = self.agents[idx].conn.as_mut() else {
                    return;
                };
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        lost = true;
                        break;
                    }
                    Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            loop {
                let Some(conn) = self.agents[idx].conn.as_mut() else {
                    return;
                };
                match decode_versioned(&conn.read_buf) {
                    Ok((msg, consumed, _)) => {
                        conn.read_buf.drain(..consumed);
                        self.on_message(idx, msg);
                    }
                    Err(DecodeError::Incomplete { .. }) => break,
                    Err(_) => {
                        self.lose_session(idx);
                        return;
                    }
                }
            }
            if lost && self.agents[idx].conn.is_some() {
                self.lose_session(idx);
                return;
            }
        }
        if ev.writable {
            let Some(conn) = self.agents[idx].conn.as_mut() else {
                return;
            };
            if conn.flush().is_err() {
                self.lose_session(idx);
                return;
            }
        }
        self.update_interest(idx);
    }

    /// One server frame against this agent's state machine — the mux
    /// mirror of the reference agent's session-loop `match`.
    fn on_message(&mut self, idx: usize, msg: Message) {
        match msg {
            Message::HelloAck {
                campaign: params,
                deadline_seconds,
                campaigns,
                ..
            } => {
                if self.roster.is_empty() {
                    self.roster = if campaigns.is_empty() {
                        vec![Arc::new(NetCampaign::build(params))]
                    } else {
                        campaigns
                            .iter()
                            .map(|(_, p)| Arc::new(NetCampaign::build(*p)))
                            .collect()
                    };
                }
                self.deadline_seconds = deadline_seconds;
                self.begin_ask(idx);
            }
            Message::Busy { retry_after_ms } => {
                self.drop_session(idx, Duration::from_millis(retry_after_ms.min(2_000)));
            }
            Message::NoWork {
                campaign_complete,
                retry_after_ms,
            } => {
                self.ask_answered(idx);
                self.agents[idx].bounced = false;
                if campaign_complete {
                    self.queue_frame(idx, &Message::Bye);
                    self.disconnect(idx);
                    self.agents[idx].state = AState::Done;
                    self.complete = true;
                    return;
                }
                // A drained redirect target with the campaign still open
                // is the home shard's problem, not this peer's: fall home
                // rather than camping on the peer.
                if self.fall_home(idx) {
                    self.queue_frame(idx, &Message::Bye);
                    self.drop_session(idx, Duration::ZERO);
                    return;
                }
                // Unlike the reference agent, release the socket across
                // the backoff (see the module docs on fd budgets). The
                // deterministic per-agent jitter (up to +25%) spreads
                // reconnects: the server's own backoff jitter is small
                // relative to the exponential steps, and ten thousand
                // agents re-dialing on the same step is a SYN storm.
                let base = retry_after_ms.min(2_000);
                let jitter = (self.agents[idx].id.wrapping_mul(0x9e37_79b9) >> 7) % (base / 4 + 1);
                self.queue_frame(idx, &Message::Bye);
                self.drop_session(idx, Duration::from_millis(base + jitter));
            }
            Message::Redirect { addr: peer, .. } => {
                self.ask_answered(idx);
                let pause = if self.agents[idx].bounced || peer == self.dial_addr(idx) {
                    // Already followed one redirect for this ask (or the
                    // server pointed at itself): back off and ask the
                    // same server again instead of chasing pointers
                    // around a ring of drained shards.
                    self.agents[idx].bounced = false;
                    REDIRECT_PAUSE
                } else {
                    self.report.redirects_followed += 1;
                    self.agents[idx].bounced = true;
                    self.agents[idx].away = Some(peer);
                    Duration::ZERO
                };
                self.queue_frame(idx, &Message::Bye);
                self.drop_session(idx, pause);
            }
            Message::Assignment {
                replica,
                workunit,
                isep_start,
                positions,
                campaign,
                ..
            } => {
                self.ask_answered(idx);
                self.agents[idx].bounced = false;
                self.report.assignments += 1;
                let action = self.agents[idx].dice.draw();
                if action == FaultAction::Disconnect {
                    self.report.disconnect_faults += 1;
                    self.drop_session(idx, DISCONNECT_PAUSE);
                    return;
                }
                if action == FaultAction::Stall {
                    self.report.stall_faults += 1;
                }
                if action == FaultAction::Corrupt {
                    self.report.corrupt_faults += 1;
                }
                self.agents[idx].state = AState::AwaitCompute {
                    replica,
                    campaign,
                    workunit,
                    action,
                };
                self.request_compute(idx, campaign, workunit, isep_start, positions);
            }
            Message::ResultAck {
                accepted,
                campaign_complete,
                ..
            } => {
                if accepted {
                    self.report.accepted += 1;
                }
                if campaign_complete {
                    self.queue_frame(idx, &Message::Bye);
                    self.disconnect(idx);
                    self.agents[idx].state = AState::Done;
                    self.complete = true;
                    return;
                }
                self.begin_ask(idx);
            }
            // Agent-to-server frames or a second HelloAck mean a
            // confused peer: start the session over.
            _ => self.lose_session(idx),
        }
    }

    /// Ensures `workunit`'s docking result exists or is being computed;
    /// delivers immediately on a cache hit.
    fn request_compute(
        &mut self,
        idx: usize,
        campaign: u16,
        workunit: u32,
        isep_start: u32,
        positions: u32,
    ) {
        let key = (campaign, workunit);
        match self.cache.get_mut(&key) {
            Some(CacheEntry::Ready(out)) => {
                let out = Arc::clone(out);
                self.deliver_compute(idx, key, &out);
            }
            Some(CacheEntry::Pending(waiters)) => waiters.push(idx),
            None => {
                self.cache.insert(key, CacheEntry::Pending(vec![idx]));
                let Some(params) = self.roster.get(usize::from(campaign)).map(Arc::clone) else {
                    // HelloAck always precedes assignments; defensive.
                    self.cache.remove(&key);
                    self.lose_session(idx);
                    return;
                };
                if self
                    .compute_job_tx
                    .send((campaign, workunit, isep_start, positions, params))
                    .is_err()
                {
                    // Compute pool gone (only on teardown).
                    self.cache.remove(&key);
                    self.lose_session(idx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetServer, NetServerConfig};
    use crate::trust::{TrustBand, TrustConfig};

    /// A mux fleet alone must carry a campaign to completion and the
    /// server's merged artifact must equal the in-process baseline —
    /// the same bar the threaded fleet is held to.
    #[test]
    fn mux_fleet_completes_a_campaign_with_the_baseline_artifact() {
        let config = NetServerConfig {
            sweep_ms: 25,
            ..NetServerConfig::loopback(5.0)
        };
        let params = config.campaign;
        let server = NetServer::bind(config).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || server.run());

        let fleet = run_mux_fleet(MuxFleetConfig {
            seed: 7,
            timeout: Duration::from_secs(60),
            ..MuxFleetConfig::new(addr, 8)
        })
        .expect("fleet ran");
        let run = server.join().unwrap().expect("server ran");

        assert!(fleet.saw_completion, "fleet should see completion");
        assert!(fleet.assignments > 0 && fleet.reported > 0);
        assert!(!fleet.request_latencies_ms.is_empty());
        let baseline = NetCampaign::build(params).baseline_outputs();
        assert_eq!(
            serde_json::to_string(&run.outputs).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
            "merged artifact must match the baseline"
        );
    }

    /// A redirected simulated volunteer goes where it is sent, like the
    /// reference agent: home answers its ask with a `Redirect` to a real
    /// server and never serves it again, so the campaign finishes only
    /// if the agent dials the peer and stays there while it has work.
    #[test]
    fn a_mux_agent_follows_a_redirect_to_where_the_work_is() {
        use crate::agent::tests::{listen, redirect, serve};
        let config = NetServerConfig {
            sweep_ms: 25,
            ..NetServerConfig::loopback(5.0)
        };
        let params = config.campaign;
        let peer = NetServer::bind(config).expect("bind");
        let peer_addr = peer.local_addr().expect("addr").to_string();
        let peer = thread::spawn(move || peer.run());
        let (home, home_addr) = listen();
        let home = thread::spawn(move || {
            let (mut s, _) = home.accept().unwrap();
            drop(home);
            let mut asks = 0;
            serve(&mut s, || {
                asks += 1;
                redirect(1, &peer_addr)
            });
            asks
        });

        let fleet = run_mux_fleet(MuxFleetConfig {
            timeout: Duration::from_secs(60),
            ..MuxFleetConfig::new(home_addr, 1)
        })
        .expect("fleet ran");
        assert!(fleet.saw_completion, "the agent never left home: {fleet:?}");
        assert_eq!(fleet.redirects_followed, 1);
        assert_eq!(home.join().unwrap(), 1, "one ask at home, then the peer");
        let run = peer.join().unwrap().expect("server ran");
        let baseline = NetCampaign::build(params).baseline_outputs();
        assert_eq!(
            serde_json::to_string(&run.outputs).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
            "merged artifact must match the baseline"
        );
    }

    /// Faulty mux agents must exercise the reissue and quorum paths
    /// without wedging the campaign.
    #[test]
    fn mux_fleet_with_faults_still_converges() {
        let config = NetServerConfig {
            sweep_ms: 25,
            ..NetServerConfig::loopback(2.0)
        };
        let params = config.campaign;
        let server = NetServer::bind(config).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || server.run());

        let fleet = run_mux_fleet(MuxFleetConfig {
            seed: 11,
            profile: FaultProfile::flaky(),
            timeout: Duration::from_secs(120),
            ..MuxFleetConfig::new(addr, 8)
        })
        .expect("fleet ran");
        let run = server.join().unwrap().expect("server ran");

        assert!(fleet.saw_completion);
        assert!(
            fleet.disconnect_faults + fleet.stall_faults + fleet.corrupt_faults > 0,
            "flaky profile should have injected something: {fleet:?}"
        );
        let baseline = NetCampaign::build(params).baseline_outputs();
        assert_eq!(
            serde_json::to_string(&run.outputs).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
        );
    }

    /// A saboteur that corrupts every payload, against a trust-on
    /// server: the campaign must still finish with the baseline
    /// artifact, and the saboteur must end the run quarantined —
    /// starved of work instead of burning replicas.
    #[test]
    fn mux_saboteur_is_quarantined_under_trust() {
        let mut config = NetServerConfig {
            sweep_ms: 25,
            ..NetServerConfig::loopback(2.0)
        };
        config.faults.trust = TrustConfig::on();
        let trust_cfg = config.faults.trust;
        // Quarantine takes `quarantine_after` straight rejects, and a
        // corrupt result only counts as one if it arrives before its
        // workunit's honest quorum. The 16-workunit default campaign
        // gave the saboteur that many only while docking was slow
        // enough for all 8 sessions to queue behind it (1 run in 3
        // fell short once it was not); 200 workunits always do.
        config.campaign.proteins = 6;
        let params = config.campaign;
        let server = NetServer::bind(config).expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || server.run());

        let fleet = run_mux_fleet(MuxFleetConfig {
            seed: 13,
            saboteurs: 1,
            timeout: Duration::from_secs(120),
            ..MuxFleetConfig::new(addr, 8)
        })
        .expect("fleet ran");
        let run = server.join().unwrap().expect("server ran");

        assert!(fleet.saw_completion);
        assert!(fleet.corrupt_faults > 0, "saboteur never got to corrupt");
        let trust = run.trust.expect("trust summary present when enabled");
        assert!(
            trust.ever_quarantined >= 1,
            "saboteur should have been quarantined: {trust:?}"
        );
        let saboteur = run
            .agent_trust
            .iter()
            .find(|(a, _)| *a == 1)
            .map(|(_, t)| *t)
            .expect("saboteur fetched work");
        assert_eq!(
            saboteur.band(f64::MAX, &trust_cfg),
            TrustBand::Probation,
            "a quarantined window resets to a fresh probation ledger"
        );
        assert!(saboteur.quarantine_count >= 1);
        let baseline = NetCampaign::build(params).baseline_outputs();
        assert_eq!(
            serde_json::to_string(&run.outputs).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
            "trust must never cost artifact correctness"
        );
    }
}
