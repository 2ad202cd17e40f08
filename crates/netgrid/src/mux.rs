//! The multiplexed fleet driver: thousands of simulated volunteers on
//! one thread.
//!
//! A volunteer is a [`Session`]: it decides everything the protocol
//! leaves to an agent — what to say after each reply, when to follow a
//! `Redirect` and when to go home, how long to back off, what each
//! injected fault does. [`crate::agent::run_agent`] drives one session
//! with a blocking socket and the calling thread, which is faithful but
//! cannot scale a loopback bench past a few dozen agents: 10 000
//! volunteers would need 10 000 stacks. This module drives N sessions
//! through nonblocking sockets on a single thread. It makes no protocol
//! decision; it only chooses how to carry out three of the steps a
//! session hands it, each differently from the blocking driver, each
//! for scale rather than fidelity, and no others:
//!
//! * **A `Compute` is memoized.** Every unique workunit is docked once,
//!   on a helper thread, and every session that is handed it gets a
//!   clone (a corrupting session mutates its own). 10 000 agents
//!   re-docking the same 33 workunits would measure the docking kernel,
//!   not the server's wire path — and a compute on the driver thread
//!   would poison every other agent's latency sample.
//! * **A `Wait` is spent with the connection closed.** The blocking
//!   driver sleeps on an open socket; here the agent says `Bye`, closes,
//!   and when the wait — stretched by up to 25 % of id-salted jitter,
//!   so ten thousand agents told the same backoff do not re-dial as one
//!   SYN storm — is over the session is told its connection is gone: it
//!   dials, greets and asks again, the same next ask a slept wait leads
//!   to. That is how periodic BOINC volunteers actually behave, and it
//!   keeps the peak open-fd count under [`MAX_OPEN`]. The one wait
//!   slept on the open socket is a stall fault's, because the result it
//!   sits on must still ride that connection.
//! * **An `Ask` waits for admission.** At most [`MAX_INFLIGHT_ASKS`]
//!   `RequestWork` frames are in flight at once; asks past the cap park
//!   in a FIFO until a reply frees a slot.

use crate::agent::{AgentConfig, Input, Session, Step};
use crate::campaign::NetCampaign;
use crate::faults::FaultProfile;
use crate::protocol::{decode_versioned, encode_with, Codec, DecodeError, Message};
use crate::sys::{Event as IoEvent, Poller, ReadBuf};
use maxdo::DockingOutput;
use std::collections::{HashMap, VecDeque};
use std::io;
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
    /// Sharded topology: when non-empty, agent *i* calls
    /// `addrs[i % addrs.len()]` home instead of `addr`, spreading the
    /// fleet round-robin across every shard of a multi-server campaign.
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

/// What the driver owes one agent's session: the step it was last
/// handed, as far as carrying it out has got.
enum AState {
    /// A `Wait` is running out. When `until` passes the session hears
    /// `Lost` if the wait cost it a connection, else `Woke`.
    Waiting { until: Instant, closed: bool },
    /// A `Dial` here is waiting for a connect slot.
    WantsDial(String),
    /// Handed to the connector pool; waiting for the dialed socket.
    Connecting,
    /// A frame is out (or a stalled result is in hand) on an open
    /// connection; whatever arrives on it goes to the session.
    Talking,
    /// An `Ask` held back by the in-flight cap; queued in the driver's
    /// `ask_queue`.
    AskPending,
    /// `RequestWork` sent at `asked`, awaiting the reply.
    Asking { asked: Instant },
    /// A `Compute` waiting for the shared docking of this (campaign,
    /// workunit).
    AwaitCompute((u16, u32)),
}

/// One agent: its session, what the driver is doing for it, and (while
/// connected) its socket with buffered bytes each way.
struct MuxAgent {
    id: u64,
    session: Session,
    state: AState,
    conn: Option<MuxConn>,
}

struct MuxConn {
    stream: TcpStream,
    read_buf: ReadBuf,
    write_buf: Vec<u8>,
    write_pos: usize,
    interest: (bool, bool),
}

impl MuxConn {
    fn flush(&mut self) -> io::Result<bool> {
        crate::sys::flush(&mut self.stream, &mut self.write_buf, &mut self.write_pos)
    }

    /// Queues `msg` and writes as much as the socket takes at once.
    fn send(&mut self, msg: &Message) -> io::Result<bool> {
        self.write_buf.extend_from_slice(&encode_with(msg, Codec));
        self.flush()
    }
}

/// The shared docking cache: each workunit is computed exactly once.
enum CacheEntry {
    /// Compute in flight; these agent indices are waiting on it.
    Pending(Vec<usize>),
    Ready(DockingOutput),
}

/// How often the driver scans agent timers (waits, connect queue) when
/// no socket is ready — also the poll-timeout ceiling.
const TIMER_TICK: Duration = Duration::from_millis(5);

/// Connector-pool width. Dialing is blocking (a dropped SYN under
/// backlog pressure stalls `connect` for a full retransmit timeout),
/// so it happens on these helper threads: one slow dial delays at most
/// the dials queued behind it on the same worker, never the driver.
const CONNECT_WORKERS: usize = 4;

/// Dials handed to the connector pool per driver iteration: the pool is
/// only as fast as [`CONNECT_WORKERS`] blocking connects, so this bounds
/// how fast a ramp (or a herd waking from one backoff) floods its queue.
const CONNECT_BATCH: usize = 64;

/// Peak simultaneously-open connections; dials beyond it wait for a
/// slot. A loopback bench owns *both* ends of every socket, so the
/// process fd bill is twice this — 10 000 always-open agents would need
/// 20 001 descriptors, and `netgrid_e2e` raises the soft limit to
/// 20 000.
const MAX_OPEN: usize = 8_000;

/// Peak `RequestWork` frames in flight at once. The single-threaded
/// server answers one frame at a time, so a synchronized wave of N asks
/// queues the last one behind N − 1 service times (~200 ms at
/// N = 10 000); 16 is a pipeline deep enough to keep the server
/// saturated (throughput is unchanged) while holding its queue, and
/// therefore request latency, to a handful of service times.
const MAX_INFLIGHT_ASKS: usize = 16;

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

/// Starts `workers` helper threads that each run `init` once and then
/// turn jobs from the one queue into results; they end when the driver
/// drops its end of the queue.
fn pool<J: Send + 'static, R: Send + 'static>(
    workers: usize,
    init: fn(),
    work: fn(J) -> R,
) -> (mpsc::Sender<J>, mpsc::Receiver<R>) {
    let (job_tx, jobs) = mpsc::channel::<J>();
    let (done, results) = mpsc::channel();
    let jobs = Arc::new(Mutex::new(jobs));
    for _ in 0..workers {
        let (jobs, done) = (Arc::clone(&jobs), done.clone());
        thread::spawn(move || {
            init();
            loop {
                let Ok(job) = jobs.lock().expect("job queue").recv() else {
                    return;
                };
                // Fails only once the driver is gone; then the job queue
                // is closed too and the next recv ends the worker.
                let _ = done.send(work(job));
            }
        });
    }
    (job_tx, results)
}

/// Runs the whole fleet to campaign completion (or the timeout) on the
/// calling thread.
pub fn run_mux_fleet(config: MuxFleetConfig) -> io::Result<MuxFleetReport> {
    Driver::new(config)?.run()
}

struct Driver {
    timeout: Duration,
    poller: Poller,
    agents: Vec<MuxAgent>,
    /// fd → agent index, for routing readiness events.
    by_fd: HashMap<i32, usize>,
    /// The campaigns the handshake announced, built when the first
    /// `Compute` needs one and shared by the whole fleet; indexed by the
    /// wire campaign id.
    roster: Vec<Arc<NetCampaign>>,
    /// Memoized docking results, keyed by campaign id + workunit — the
    /// same workunit index names different work in different campaigns.
    cache: HashMap<(u16, u32), CacheEntry>,
    /// Finished docking results from the compute pool.
    compute_rx: mpsc::Receiver<((u16, u32), DockingOutput)>,
    /// Docking jobs for the persistent compute pool.
    compute_job_tx: mpsc::Sender<((u16, u32), Arc<NetCampaign>)>,
    dial_tx: mpsc::Sender<(usize, String)>,
    dialed_rx: mpsc::Receiver<(usize, io::Result<TcpStream>)>,
    /// Dials handed to the pool and not yet back; counts against
    /// `MAX_OPEN` so in-flight connects can't overshoot the fd budget.
    pending_connects: usize,
    /// `RequestWork` frames awaiting a reply (agents in `Asking`).
    inflight_asks: usize,
    /// Agents in `AskPending`, oldest first. Entries can go stale when
    /// a queued session drops; `pump_asks` skips those.
    ask_queue: VecDeque<usize>,
    /// Connections opened and ask latencies — what the driver clocks
    /// and counts; the sessions' counters are summed in at the end.
    report: MuxFleetReport,
    open: usize,
    complete: bool,
}

impl Driver {
    fn new(config: MuxFleetConfig) -> io::Result<Self> {
        let start = Instant::now();
        let agents = (1..=config.agents as u64)
            .map(|id| {
                // Where this agent calls home: round-robin over `addrs`
                // when a sharded topology is configured.
                let home = match config.addrs.len() {
                    0 => &config.addr,
                    shards => &config.addrs[(id - 1) as usize % shards],
                };
                let session = Session::new(AgentConfig {
                    // Saboteurs corrupt unconditionally; everyone else
                    // rolls the configured profile.
                    profile: if id <= config.saboteurs as u64 {
                        FaultProfile::saboteur()
                    } else {
                        config.profile
                    },
                    seed: config.seed,
                    campaigns: config.campaigns.clone(),
                    // A simulated volunteer never switches itself off
                    // and never despairs of its server: the fleet ends
                    // by completion or by `timeout`.
                    max_connect_attempts: u32::MAX,
                    ..AgentConfig::new(home.clone(), id)
                });
                MuxAgent {
                    id,
                    session,
                    state: AState::Waiting {
                        until: start,
                        closed: false,
                    },
                    conn: None,
                }
            })
            .collect();
        // The docking kernel must not starve the driver (or the server,
        // on a loopback bench sharing its core): compute runs at the
        // lowest scheduling priority.
        let (compute_job_tx, compute_rx) = pool(
            compute_workers(),
            crate::sys::deprioritize_current_thread,
            |(key, campaign): ((u16, u32), Arc<NetCampaign>)| {
                (key, campaign.compute(campaign.spec(key.1)))
            },
        );
        let (dial_tx, dialed_rx) = pool(
            CONNECT_WORKERS,
            || (),
            |(idx, addr): (usize, String)| (idx, TcpStream::connect(&addr)),
        );
        Ok(Self {
            timeout: config.timeout,
            poller: Poller::new()?,
            agents,
            by_fd: HashMap::new(),
            roster: Vec::new(),
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
        })
    }

    fn run(mut self) -> io::Result<MuxFleetReport> {
        let deadline = Instant::now() + self.timeout;
        let mut events: Vec<IoEvent> = Vec::new();
        while !self.complete && Instant::now() <= deadline {
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
        let mut report = std::mem::take(&mut self.report);
        for idx in 0..self.agents.len() {
            self.disconnect(idx);
            let agent = &self.agents[idx].session.report;
            report.assignments += agent.assignments;
            report.reported += agent.reported;
            report.accepted += agent.accepted;
            report.disconnect_faults += agent.disconnect_faults;
            report.stall_faults += agent.stall_faults;
            report.corrupt_faults += agent.corrupt_faults;
            report.redirects_followed += agent.redirects_followed;
        }
        report.saw_completion = self.complete;
        Ok(report)
    }

    /// Tells the agent's session what happened and carries out the step
    /// it answers with. An ask in flight ends here, whatever ended it;
    /// one a frame answered is a latency sample.
    fn feed(&mut self, idx: usize, input: Input) {
        if let AState::Asking { asked } = self.agents[idx].state {
            self.inflight_asks -= 1;
            // So a step that feeds again (a `Bye`, a failed write)
            // cannot free the slot twice.
            self.agents[idx].state = AState::Talking;
            if let Input::Frame(_) = input {
                let latency_ms = asked.elapsed().as_secs_f64() * 1e3;
                self.report.request_latencies_ms.push(latency_ms);
            }
        }
        let step = self.agents[idx].session.step(input);
        self.perform(idx, step);
    }

    /// Carries out one step, as far as it can be without waiting; the
    /// state left behind says what the driver still owes.
    fn perform(&mut self, idx: usize, step: Step) {
        match step {
            Step::Dial(addr) => {
                self.disconnect(idx);
                self.agents[idx].state = AState::WantsDial(addr);
            }
            Step::Send(msg) => {
                // Before the frame is queued: a write that fails tells
                // the session, which steps again.
                self.agents[idx].state = AState::Talking;
                self.queue_frame(idx, &msg);
            }
            Step::Ask => {
                self.agents[idx].state = AState::AskPending;
                self.ask_queue.push_back(idx);
                self.pump_asks();
            }
            Step::Compute {
                campaign,
                workunit,
                isep_start,
                positions,
            } => {
                self.agents[idx].state = AState::AwaitCompute((campaign, workunit));
                self.request_compute(idx, (campaign, workunit), (isep_start, positions));
            }
            Step::Wait(pause) => {
                // Release the socket across the wait (see the module
                // docs on fd budgets) and spread the reconnects.
                let closed = self.hang_up(idx);
                let ms = pause.as_millis() as u64;
                let jitter = (self.agents[idx].id.wrapping_mul(0x9e37_79b9) >> 7) % (ms / 4 + 1);
                self.agents[idx].state = AState::Waiting {
                    until: Instant::now() + pause + Duration::from_millis(jitter),
                    closed,
                };
            }
            Step::Bye => {
                self.hang_up(idx);
                self.feed(idx, Input::Lost);
            }
            // Fleet sessions neither die on purpose nor give up, so one
            // that finished saw the campaign complete — and with it the
            // fleet: `run` closes every socket.
            Step::Finished(_) => self.complete = true,
        }
    }

    /// Hands finished docking computes to the sessions waiting on them.
    fn drain_compute_results(&mut self) {
        while let Ok((key, output)) = self.compute_rx.try_recv() {
            if let Some(CacheEntry::Pending(waiters)) = self.cache.remove(&key) {
                for idx in waiters {
                    self.deliver_compute(idx, key, output.clone());
                }
            }
            self.cache.insert(key, CacheEntry::Ready(output));
        }
    }

    /// Answers one agent's `Compute` with its own clone of the shared
    /// result — unless the agent has moved on since it asked.
    fn deliver_compute(&mut self, idx: usize, key: (u16, u32), output: DockingOutput) {
        if !matches!(self.agents[idx].state, AState::AwaitCompute(asked) if asked == key) {
            return;
        }
        self.agents[idx].state = AState::Talking;
        match self.agents[idx].session.step(Input::Computed(output)) {
            // A wait with a result in hand is slept on the open socket:
            // the result rides it, and closing would turn every stall
            // into a disconnect.
            Step::Wait(pause) => {
                self.agents[idx].state = AState::Waiting {
                    until: Instant::now() + pause,
                    closed: false,
                }
            }
            step => self.perform(idx, step),
        }
    }

    /// Timer scan: end the waits that have run out, and hand waiting
    /// dials to the connector pool (bounded by the connect batch and the
    /// open-socket cap).
    fn fire_timers(&mut self) {
        let now = Instant::now();
        let mut budget = CONNECT_BATCH;
        for idx in 0..self.agents.len() {
            if let AState::Waiting { until, closed } = self.agents[idx].state {
                if now >= until {
                    self.feed(idx, if closed { Input::Lost } else { Input::Woke });
                }
            }
            if let AState::WantsDial(addr) = &self.agents[idx].state {
                if budget == 0 || self.open + self.pending_connects >= MAX_OPEN {
                    continue;
                }
                // A send fails only once the connector pool is gone, on
                // teardown; the dial keeps waiting.
                if self.dial_tx.send((idx, addr.clone())).is_ok() {
                    budget -= 1;
                    self.pending_connects += 1;
                    self.agents[idx].state = AState::Connecting;
                }
            }
        }
    }

    /// Collects dialed sockets from the connector pool and wires them
    /// into the poller; one that cannot be is a failed dial.
    fn drain_dialed(&mut self) {
        while let Ok((idx, dialed)) = self.dialed_rx.try_recv() {
            self.pending_connects -= 1;
            let wired = dialed.and_then(|stream| {
                let _ = stream.set_nodelay(true);
                stream.set_nonblocking(true)?;
                self.poller.register(stream.as_raw_fd(), true, false)?;
                Ok(stream)
            });
            let Ok(stream) = wired else {
                self.feed(idx, Input::ConnectFailed);
                continue;
            };
            self.by_fd.insert(stream.as_raw_fd(), idx);
            self.agents[idx].conn = Some(MuxConn {
                stream,
                read_buf: ReadBuf::default(),
                write_buf: Vec::new(),
                write_pos: 0,
                interest: (true, false),
            });
            self.open += 1;
            self.report.connections += 1;
            self.feed(idx, Input::Connected);
        }
    }

    /// Sends `msg` on the agent's connection; leftover bytes raise write
    /// interest, and no connection to send on is a lost one.
    fn queue_frame(&mut self, idx: usize, msg: &Message) {
        match self.agents[idx].conn.as_mut().map(|conn| conn.send(msg)) {
            Some(Ok(_)) => self.update_interest(idx),
            Some(Err(_)) | None => self.feed(idx, Input::Lost),
        }
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

    /// Says `Bye`, best effort, and closes. False if there was no
    /// connection to close.
    fn hang_up(&mut self, idx: usize) -> bool {
        let Some(conn) = self.agents[idx].conn.as_mut() else {
            return false;
        };
        let _ = conn.send(&Message::Bye);
        self.disconnect(idx);
        true
    }

    /// Releases parked asks, oldest first, while in-flight slots are
    /// free: when an `Ask` is parked, and once per driver iteration for
    /// the slots replies freed.
    fn pump_asks(&mut self) {
        while self.inflight_asks < MAX_INFLIGHT_ASKS {
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
            // On a flush error the session hears `Lost`, which releases
            // the slot again in `feed`.
            self.queue_frame(idx, &Message::RequestWork);
        }
    }

    /// Readiness on one agent's socket: read, decode, hand each frame to
    /// the session, flush.
    fn advance_io(&mut self, idx: usize, ev: IoEvent) {
        if ev.readable || ev.hangup {
            let Some(conn) = self.agents[idx].conn.as_mut() else {
                return;
            };
            let mut lost = conn
                .read_buf
                .fill(&mut conn.stream, usize::MAX)
                .unwrap_or(true);
            // The session may redial on any frame, and the connection
            // goes with that: look it up afresh for each.
            loop {
                let Some(conn) = self.agents[idx].conn.as_mut() else {
                    return;
                };
                match decode_versioned(conn.read_buf.pending()) {
                    Ok((msg, consumed, _)) => {
                        conn.read_buf.consume(consumed);
                        self.feed(idx, Input::Frame(msg));
                    }
                    Err(DecodeError::Incomplete { .. }) => break,
                    Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            if lost {
                return self.feed(idx, Input::Lost);
            }
        }
        if ev.writable {
            let Some(conn) = self.agents[idx].conn.as_mut() else {
                return;
            };
            if conn.flush().is_err() {
                return self.feed(idx, Input::Lost);
            }
        }
        self.update_interest(idx);
    }

    /// Ensures the docking result of `key` (campaign, workunit) exists or
    /// is being computed; delivers immediately on a cache hit.
    fn request_compute(&mut self, idx: usize, key: (u16, u32), slice: (u32, u32)) {
        match self.cache.get_mut(&key) {
            Some(CacheEntry::Ready(out)) => {
                let out = out.clone();
                self.deliver_compute(idx, key, out);
            }
            Some(CacheEntry::Pending(waiters)) => waiters.push(idx),
            None => {
                if self.roster.is_empty() {
                    let recipes = self.agents[idx].session.roster().iter();
                    self.roster = recipes.map(|p| Arc::new(NetCampaign::build(*p))).collect();
                }
                // The session only hands out campaigns on its roster.
                let campaign = Arc::clone(&self.roster[usize::from(key.0)]);
                let spec = campaign.spec(key.1);
                debug_assert_eq!((spec.isep_start, spec.positions), slice);
                self.cache.insert(key, CacheEntry::Pending(vec![idx]));
                // A send fails only once the compute pool is gone, on
                // teardown; nobody is left to wait for the result.
                let _ = self.compute_job_tx.send((key, campaign));
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
            serde_json::to_string(&run.campaigns[0].outputs).unwrap(),
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
            serde_json::to_string(&run.campaigns[0].outputs).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
            "merged artifact must match the baseline"
        );
    }

    /// One volunteer, two drivers: the same scripted servers — home
    /// redirects to a peer, the peer has nothing, home says wait, then
    /// assigns, then declares the campaign complete — served once to
    /// `run_agent` and once to a fleet of one. Each server receives the
    /// same frames from both, once the fleet's one documented habit is
    /// struck out: it spends the wait closed, so a `Bye` and a fresh
    /// `Hello` surround it.
    #[test]
    fn one_transcript_two_drivers() {
        use crate::agent::tests::{assignment, hello_ack, listen, no_work, redirect};
        use crate::agent::{run_agent, AgentConfig};
        use crate::protocol::{read_message, write_message_with};
        use std::net::TcpListener;

        /// Serves sessions one after another, answering the asks from
        /// `script` in order, until the script is spent and that session
        /// over; returns every frame received.
        fn serve(listener: TcpListener, script: Vec<Message>) -> thread::JoinHandle<Vec<Message>> {
            thread::spawn(move || {
                let (mut script, mut heard) = (script.into_iter().peekable(), Vec::new());
                while script.peek().is_some() {
                    let (mut s, _) = listener.accept().unwrap();
                    while let Ok(Some(frame)) = read_message(&mut s) {
                        heard.push(frame);
                        let reply = match heard.last() {
                            Some(Message::Hello { .. }) => hello_ack(),
                            Some(Message::RequestWork) => script.next().expect("an ask too many"),
                            Some(Message::ResultReport { .. }) => Message::ResultAck {
                                accepted: true,
                                completed_workunit: true,
                                campaign_complete: false,
                            },
                            _ => break,
                        };
                        write_message_with(&mut s, &reply, Codec).unwrap();
                    }
                }
                heard
            })
        }

        let complete = Message::NoWork {
            campaign_complete: true,
            retry_after_ms: 0,
        };
        let mut heard = Vec::new();
        for fleet in [false, true] {
            let ((home, home_addr), (peer, peer_addr)) = (listen(), listen());
            let home_script = vec![
                redirect(1, &peer_addr),
                no_work(5),
                assignment(5.0),
                complete.clone(),
            ];
            let servers = [serve(home, home_script), serve(peer, vec![no_work(5)])];
            if fleet {
                let fleet = run_mux_fleet(MuxFleetConfig {
                    timeout: Duration::from_secs(60),
                    ..MuxFleetConfig::new(home_addr, 1)
                })
                .expect("fleet ran");
                assert!(fleet.saw_completion, "{fleet:?}");
                assert_eq!((fleet.redirects_followed, fleet.accepted), (1, 1));
            } else {
                let report = run_agent(AgentConfig::new(home_addr, 1)).expect("agent ran");
                assert!(report.saw_completion, "{report:?}");
                assert_eq!((report.redirects_followed, report.accepted), (1, 1));
            }
            heard.push(servers.map(|s| s.join().unwrap()));
        }

        let [reference, mut fleet] = <[_; 2]>::try_from(heard).unwrap();
        let kinds = |heard: &[Message]| -> Vec<&str> {
            let kind = |frame: &Message| match frame {
                Message::Hello { .. } => "hello",
                Message::RequestWork => "ask",
                Message::ResultReport { .. } => "report",
                Message::Bye => "bye",
                _ => "?",
            };
            heard.iter().map(kind).collect()
        };
        let at_home = [
            "hello", "ask", "bye", "hello", "ask", "ask", "report", "ask", "bye",
        ];
        assert_eq!(kinds(&reference[0]), at_home);
        assert_eq!(kinds(&reference[1]), ["hello", "ask", "bye"]);
        // The fleet's first `Bye` where the reference says none is the
        // wait; the `Hello` after it is the reconnect.
        let waited = (0..fleet[0].len())
            .find(|&i| fleet[0][i] == Message::Bye && reference[0][i] != Message::Bye)
            .expect("the fleet closes across the wait");
        assert!(matches!(fleet[0][waited + 1], Message::Hello { .. }));
        fleet[0].drain(waited..waited + 2);
        assert_eq!(fleet, reference);
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
            serde_json::to_string(&run.campaigns[0].outputs).unwrap(),
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
        let saboteur = run.campaigns[0]
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
            serde_json::to_string(&run.campaigns[0].outputs).unwrap(),
            serde_json::to_string(&baseline).unwrap(),
            "trust must never cost artifact correctness"
        );
    }
}
