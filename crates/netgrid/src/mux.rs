//! The volunteer driver: every agent's I/O, on one thread.
//!
//! A volunteer is a [`Session`], which decides everything the protocol
//! leaves to an agent. This module carries its steps out over
//! nonblocking sockets, for one session ([`run_agent`], `hcmd-agent`'s
//! volunteer) or for thousands ([`run_mux_fleet`]; blocking sockets
//! would need as many stacks). It makes no protocol decision, and a
//! `Wait` is none: the session hangs up before every wait but a stall's
//! and adds its own jitter, so the driver sleeps it out and says
//! `Woke` — which is also why a resting fleet holds no socket. It only
//! chooses how to carry out three kinds of step, and no others:
//!
//! * **A `Dial` and each frame sent get [`IO_TIMEOUT`]**: a connect
//!   that takes longer failed, and a frame unanswered as long is a lost
//!   connection.
//! * **A `Compute` docks where it holds up no other agent.** A lone
//!   agent docks, and dials, on the driver thread, with its own
//!   `threads`. A fleet docks each unique workunit once on a helper pool
//!   and hands every session its own clone (a corrupting one mutates
//!   it): 10 000 agents re-docking the same 33 workunits would measure
//!   the kernel, not the server's wire path, and a dock on the driver
//!   thread would poison every other agent's latency sample. A fleet's
//!   dials run on a connector pool for the same reason.
//! * **An `Ask` waits for admission.** At most [`MAX_INFLIGHT_ASKS`]
//!   `RequestWork` frames are in flight at once; asks past the cap park
//!   in a FIFO until a reply frees a slot.

use crate::agent::{compute_workunit, AgentConfig, AgentReport, Input, Outcome, Session, Step};
use crate::campaign::NetCampaign;
use crate::faults::FaultProfile;
use crate::protocol::{decode_versioned, encode_with, Codec, DecodeError, Message};
use crate::sys::{Event as IoEvent, Poller, ReadBuf};
use maxdo::DockingOutput;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
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
    /// A `Wait` is running out; when `until` passes the session hears
    /// `Woke`.
    Waiting { until: Instant },
    /// A `Dial` here is waiting for a connect slot.
    WantsDial(String),
    /// Handed to the connector pool; waiting for the dialed socket.
    Connecting,
    /// A frame is out on an open connection; whatever arrives on it
    /// goes to the session.
    Talking,
    /// An `Ask` held back by the in-flight cap; queued in the driver's
    /// `ask_queue`.
    AskPending,
    /// `RequestWork` sent at `asked`, awaiting the reply.
    Asking { asked: Instant },
    /// A `Compute` waiting for the fleet's shared docking of this
    /// (campaign, workunit).
    AwaitCompute(Key),
}

/// One agent: its session, what the driver is doing for it, and (while
/// connected) its socket with buffered bytes each way.
struct MuxAgent {
    session: Session,
    state: AState,
    conn: Option<MuxConn>,
    /// When the frame last sent has gone unanswered too long; `None`
    /// once anything has happened to the session since.
    reply_due: Option<Instant>,
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

/// How long a dial may take, and the reply to a frame sent, before the
/// driver calls the server lost: a live server answers within a turn of
/// its loop, and one that accepts and then says nothing would otherwise
/// hold a volunteer until the kernel gave up. A `Wait` is timed on its
/// own, so a stall past the replica deadline is not cut short by it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A fleet's poll-timeout ceiling: its pools answer on channels the
/// poller cannot see. A lone agent's driver sleeps until its next timer.
const TIMER_TICK: Duration = Duration::from_millis(5);

/// Connector-pool width. Dialing is blocking (a dropped SYN under
/// backlog pressure stalls `connect` for a full retransmit timeout),
/// so a fleet dials on these helper threads: one slow dial delays at
/// most the dials queued behind it on the same worker, never the driver.
const CONNECT_WORKERS: usize = 4;

/// Dials handed to the connector pool per driver iteration: the pool is
/// only as fast as [`CONNECT_WORKERS`] blocking connects, so this bounds
/// how fast a ramp (or a herd waking from one backoff) floods its queue.
const CONNECT_BATCH: usize = 64;

/// Peak simultaneously-open connections; dials beyond it wait for a
/// slot. A loopback bench owns *both* ends of every socket, so the
/// process fd bill is twice this plus a few — 16 000 at the cap, and
/// `netgrid_e2e` raises the soft limit to 20 000
/// ([`crate::sys::raise_nofile_limit`]) before its scale campaign.
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
) -> Pool<J, R> {
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

/// Connects to the first of `addr`'s addresses to answer within
/// `patience`.
fn connect(addr: &str, patience: Duration) -> io::Result<TcpStream> {
    let mut dialed = Err(io::Error::other("the server address resolves to nothing"));
    for sock in addr.to_socket_addrs()? {
        dialed = TcpStream::connect_timeout(&sock, patience);
        if dialed.is_ok() {
            break;
        }
    }
    dialed
}

/// Runs one volunteer until its session finishes — the campaign
/// completes, it dies on purpose (`die_after`), or its connect budget
/// runs out — on the calling thread, which dials, docks and waits in the
/// poller in between. A session that gave up with nothing to show for
/// it returns the last dial's error.
pub fn run_agent(config: AgentConfig) -> io::Result<AgentReport> {
    let mut driver = Driver::new(vec![config], None)?;
    driver.run()?;
    if driver.ended == Some(Outcome::GaveUp) {
        return Err(driver
            .dial_error
            .expect("a session gives up only on a failed dial"));
    }
    let mut report = std::mem::take(&mut driver.agents[0].session.report);
    report.request_latencies_ms = std::mem::take(&mut driver.report.request_latencies_ms);
    Ok(report)
}

/// Runs the whole fleet to campaign completion (or the timeout) on the
/// calling thread.
pub fn run_mux_fleet(config: MuxFleetConfig) -> io::Result<MuxFleetReport> {
    let agents = (1..=config.agents as u64).map(|id| {
        // Where this agent calls home: round-robin over `addrs` when a
        // sharded topology is configured.
        let home = match config.addrs.len() {
            0 => &config.addr,
            shards => &config.addrs[(id - 1) as usize % shards],
        };
        AgentConfig {
            // Saboteurs corrupt unconditionally; everyone else rolls
            // the configured profile.
            profile: if id <= config.saboteurs as u64 {
                FaultProfile::saboteur()
            } else {
                config.profile
            },
            seed: config.seed,
            campaigns: config.campaigns.clone(),
            // A simulated volunteer never switches itself off and never
            // despairs of its server: the fleet ends by completion or by
            // `timeout`.
            max_connect_attempts: u32::MAX,
            ..AgentConfig::new(home.clone(), id)
        }
    });
    let mut driver = Driver::new(agents.collect(), Some(config.timeout))?;
    driver.run()?;
    let mut report = std::mem::take(&mut driver.report);
    for agent in &driver.agents {
        let agent = &agent.session.report;
        report.assignments += agent.assignments;
        report.reported += agent.reported;
        report.accepted += agent.accepted;
        report.disconnect_faults += agent.disconnect_faults;
        report.stall_faults += agent.stall_faults;
        report.corrupt_faults += agent.corrupt_faults;
        report.redirects_followed += agent.redirects_followed;
    }
    // Fleet sessions neither die on purpose nor give up, so the one
    // that finished saw the campaign complete.
    report.saw_completion = driver.ended.is_some();
    Ok(report)
}

/// A job queue into a helper pool, and the results coming back.
type Pool<J, R> = (mpsc::Sender<J>, mpsc::Receiver<R>);

/// A docking's campaign id and workunit: the same workunit index names
/// different work in different campaigns.
type Key = (u16, u32);

/// A fleet's helpers, which a lone agent does without.
struct Pools {
    /// Docking jobs, and their results.
    compute: Pool<(Key, Arc<NetCampaign>), (Key, DockingOutput)>,
    /// What `compute` docked or is docking: each workunit once.
    cache: HashMap<Key, CacheEntry>,
    dial: Pool<(usize, String, Duration), (usize, io::Result<TcpStream>)>,
}

struct Driver {
    /// A fleet's `timeout`, as an instant; `run_agent` runs until its
    /// session finishes.
    deadline: Option<Instant>,
    /// [`IO_TIMEOUT`], which a test shortens.
    io_timeout: Duration,
    poller: Poller,
    agents: Vec<MuxAgent>,
    /// fd → agent index, for routing readiness events.
    by_fd: HashMap<i32, usize>,
    /// The campaigns the handshake announced, built when the first
    /// `Compute` needs one and shared by the whole fleet; indexed by the
    /// wire campaign id.
    roster: Vec<Arc<NetCampaign>>,
    /// `None` for a lone agent, which dials and docks on this thread.
    pools: Option<Pools>,
    /// A lone agent's `AgentConfig::threads`; the pool docks on one.
    threads: usize,
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
    /// How the first session to finish ended; that ends the run.
    ended: Option<Outcome>,
    /// The last dial that failed: a session that gives up returns it.
    dial_error: Option<io::Error>,
}

impl Driver {
    fn new(agents: Vec<AgentConfig>, timeout: Option<Duration>) -> io::Result<Self> {
        let start = Instant::now();
        let threads = agents.first().map_or(1, |config| config.threads);
        // The docking kernel must not starve the driver (or the server,
        // on a loopback bench sharing its core): compute runs at the
        // lowest scheduling priority.
        let pools = (agents.len() > 1).then(|| Pools {
            compute: pool(
                compute_workers(),
                crate::sys::deprioritize_current_thread,
                |(key, campaign): (Key, Arc<NetCampaign>)| {
                    (key, compute_workunit(&campaign, key.1, 1))
                },
            ),
            cache: HashMap::new(),
            dial: pool(
                CONNECT_WORKERS,
                || (),
                |(idx, addr, patience)| (idx, connect(&addr, patience)),
            ),
        });
        let agents = agents
            .into_iter()
            .map(|config| MuxAgent {
                session: Session::new(config),
                state: AState::Waiting { until: start },
                conn: None,
                reply_due: None,
            })
            .collect();
        Ok(Self {
            deadline: timeout.map(|timeout| start + timeout),
            io_timeout: IO_TIMEOUT,
            poller: Poller::new()?,
            agents,
            by_fd: HashMap::new(),
            roster: Vec::new(),
            pools,
            threads,
            pending_connects: 0,
            inflight_asks: 0,
            ask_queue: VecDeque::new(),
            report: MuxFleetReport::default(),
            open: 0,
            ended: None,
            dial_error: None,
        })
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<IoEvent> = Vec::new();
        while self.ended.is_none() && self.deadline.is_none_or(|end| Instant::now() <= end) {
            self.drain_pools();
            self.fire_timers();
            self.pump_asks();
            let timeout = match self.pools {
                Some(_) => Some(TIMER_TICK),
                None => self
                    .next_due()
                    .map(|due| due.saturating_duration_since(Instant::now())),
            };
            self.poller.wait(timeout, &mut events)?;
            for ev in events.drain(..) {
                if self.ended.is_some() {
                    break;
                }
                if let Some(&idx) = self.by_fd.get(&ev.fd) {
                    self.advance_io(idx, ev);
                }
            }
        }
        // Shutdown: every socket drops at once; the server sees the
        // EOFs and drains within its grace window.
        for idx in 0..self.agents.len() {
            self.disconnect(idx);
        }
        Ok(())
    }

    /// When a lone agent's driver next has work no socket wakes it for:
    /// a wait or a reply deadline running out, a dial, the run's end.
    fn next_due(&self) -> Option<Instant> {
        let agents = self.agents.iter().filter_map(|agent| match agent.state {
            AState::Waiting { until } => Some(until),
            AState::WantsDial(_) => Some(Instant::now()),
            _ => agent.reply_due,
        });
        agents.chain(self.deadline).min()
    }

    /// Tells the agent's session what happened and carries out the step
    /// it answers with. An ask in flight ends here, whatever ended it;
    /// one a frame answered is a latency sample.
    fn feed(&mut self, idx: usize, input: Input) {
        self.agents[idx].reply_due = None;
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
                // Closed before the dial, not by it: a server at its
                // connection limit must see the old socket go first.
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
                let key = (campaign, workunit);
                self.agents[idx].state = AState::AwaitCompute(key);
                if self.roster.is_empty() {
                    let recipes = self.agents[idx].session.roster().iter();
                    self.roster = recipes.map(|p| Arc::new(NetCampaign::build(*p))).collect();
                }
                // The session only hands out campaigns on its roster.
                let campaign = Arc::clone(&self.roster[usize::from(campaign)]);
                let spec = campaign.spec(workunit);
                debug_assert_eq!((spec.isep_start, spec.positions), (isep_start, positions));
                let docked = match &mut self.pools {
                    None => Some(compute_workunit(&campaign, workunit, self.threads)),
                    Some(pools) => match pools.cache.get_mut(&key) {
                        Some(CacheEntry::Ready(out)) => Some(out.clone()),
                        Some(CacheEntry::Pending(waiters)) => {
                            waiters.push(idx);
                            None
                        }
                        None => {
                            pools.cache.insert(key, CacheEntry::Pending(vec![idx]));
                            // A send fails only once the compute pool is
                            // gone, on teardown; nobody is left waiting.
                            let _ = pools.compute.0.send((key, campaign));
                            None
                        }
                    },
                };
                if let Some(output) = docked {
                    self.deliver_compute(idx, key, output);
                }
            }
            Step::Wait(pause) => {
                self.agents[idx].state = AState::Waiting {
                    until: Instant::now() + pause,
                };
            }
            Step::Bye => {
                if let Some(conn) = self.agents[idx].conn.as_mut() {
                    let _ = conn.send(&Message::Bye);
                }
                self.disconnect(idx);
                self.feed(idx, Input::Lost);
            }
            Step::Finished(outcome) => {
                self.ended.get_or_insert(outcome);
            }
        }
    }

    /// Hands what a fleet's pools finished to the sessions waiting on
    /// it: dialed sockets, and docking results to every agent handed
    /// that workunit meanwhile.
    fn drain_pools(&mut self) {
        while let Some(pools) = &mut self.pools {
            if let Ok((idx, dialed)) = pools.dial.1.try_recv() {
                self.pending_connects -= 1;
                self.connected(idx, dialed);
            } else if let Ok((key, output)) = pools.compute.1.try_recv() {
                let ready = CacheEntry::Ready(output.clone());
                if let Some(CacheEntry::Pending(waiters)) = pools.cache.insert(key, ready) {
                    for idx in waiters {
                        self.deliver_compute(idx, key, output.clone());
                    }
                }
            } else {
                return;
            }
        }
    }

    /// Answers one agent's `Compute` with its own copy of the result —
    /// unless the agent has moved on since it asked.
    fn deliver_compute(&mut self, idx: usize, key: Key, output: DockingOutput) {
        if !matches!(self.agents[idx].state, AState::AwaitCompute(asked) if asked == key) {
            return;
        }
        self.agents[idx].state = AState::Talking;
        let step = self.agents[idx].session.step(Input::Computed(output));
        self.perform(idx, step);
    }

    /// Timer scan: end the waits that have run out, call the connections
    /// whose reply is overdue lost, and dial — a lone agent here, a
    /// fleet through the connector pool (bounded by the connect batch
    /// and the open-socket cap).
    fn fire_timers(&mut self) {
        let now = Instant::now();
        let mut budget = CONNECT_BATCH;
        for idx in 0..self.agents.len() {
            if let AState::Waiting { until } = self.agents[idx].state {
                if now >= until {
                    self.feed(idx, Input::Woke);
                }
            }
            if self.agents[idx].reply_due.is_some_and(|due| now >= due) {
                self.feed(idx, Input::Lost);
            }
            if let AState::WantsDial(addr) = &self.agents[idx].state {
                if budget == 0 || self.open + self.pending_connects >= MAX_OPEN {
                    continue;
                }
                let addr = addr.clone();
                let Some(pools) = &self.pools else {
                    let dialed = connect(&addr, self.io_timeout);
                    self.connected(idx, dialed);
                    continue;
                };
                // A send fails only once the connector pool is gone, on
                // teardown; the dial keeps waiting.
                if pools.dial.0.send((idx, addr, self.io_timeout)).is_ok() {
                    budget -= 1;
                    self.pending_connects += 1;
                    self.agents[idx].state = AState::Connecting;
                }
            }
        }
    }

    /// Wires a dialed socket into the poller and tells the session; a
    /// socket that cannot be wired is a failed dial.
    fn connected(&mut self, idx: usize, dialed: io::Result<TcpStream>) {
        let wired = dialed.and_then(|stream| {
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true)?;
            self.poller.register(stream.as_raw_fd(), true, false)?;
            Ok(stream)
        });
        let stream = match wired {
            Ok(stream) => stream,
            Err(e) => {
                self.dial_error = Some(e);
                return self.feed(idx, Input::ConnectFailed);
            }
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

    /// Sends `msg` on the agent's connection, due a reply within the
    /// I/O timeout; leftover bytes raise write interest, and no
    /// connection to send on is a lost one.
    fn queue_frame(&mut self, idx: usize, msg: &Message) {
        match self.agents[idx].conn.as_mut().map(|conn| conn.send(msg)) {
            Some(Ok(_)) => {
                self.agents[idx].reply_due = Some(Instant::now() + self.io_timeout);
                self.update_interest(idx);
            }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::{assignment, campaign_done, hello_ack, no_work, redirect};
    use crate::protocol::{read_message, write_message_with, CampaignParams};
    use crate::server::{NetServer, NetServerConfig};
    use crate::trust::{TrustBand, TrustConfig};
    use std::net::TcpListener;

    /// A scripted server's listener on an ephemeral port, and its address.
    fn listen() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    /// Plays a scripted session on `s`: `Hello` gets a tiny-campaign
    /// `HelloAck`, every `RequestWork` gets `on_ask()`, until the agent
    /// says `Bye` or drops the connection.
    fn serve_one(s: &mut TcpStream, mut on_ask: impl FnMut() -> Message) {
        loop {
            let reply = match read_message(s) {
                Ok(Some(Message::Hello { .. })) => hello_ack(),
                Ok(Some(Message::RequestWork)) => on_ask(),
                _ => return,
            };
            if write_message_with(s, &reply, Codec).is_err() {
                return;
            }
        }
    }

    /// Serves sessions one after another, answering the asks from
    /// `script` in order and acknowledging every report, until the
    /// script is spent and that session over; returns every frame
    /// received.
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

    /// A mux fleet alone must carry a campaign to completion and the
    /// server's merged artifact must equal the in-process baseline —
    /// the same bar the threaded fleet is held to. The second input is a
    /// 70/30 two-campaign server with every session attached to `*`:
    /// each campaign's artifact must equal its own recipe's baseline, so
    /// a driver that docks a workunit with another campaign's recipe
    /// fails here.
    #[test]
    fn mux_fleet_completes_a_campaign_with_the_baseline_artifact() {
        let two = crate::registry::tests::defs_70_30();
        for (campaigns, attach) in [(Vec::new(), Vec::new()), (two, vec!["*".into()])] {
            let config = NetServerConfig {
                sweep_ms: 25,
                campaigns,
                ..NetServerConfig::loopback(5.0)
            };
            let recipes: Vec<CampaignParams> = if config.campaigns.is_empty() {
                vec![config.campaign]
            } else {
                config.campaigns.iter().map(|d| d.params).collect()
            };
            let server = NetServer::bind(config).expect("bind");
            let addr = server.local_addr().expect("addr").to_string();
            let server = thread::spawn(move || server.run());

            let fleet = run_mux_fleet(MuxFleetConfig {
                seed: 7,
                campaigns: attach,
                timeout: Duration::from_secs(60),
                ..MuxFleetConfig::new(addr, 8)
            })
            .expect("fleet ran");
            // Before the join: a server whose campaign never validates
            // never returns.
            assert!(fleet.saw_completion, "fleet should see completion");
            let run = server.join().unwrap().expect("server ran");

            assert!(fleet.assignments > 0 && fleet.reported > 0);
            assert!(!fleet.request_latencies_ms.is_empty());
            assert_eq!(run.campaigns.len(), recipes.len());
            for (campaign, params) in run.campaigns.iter().zip(recipes) {
                let baseline = NetCampaign::build(params).baseline_outputs();
                assert_eq!(
                    serde_json::to_string(&campaign.outputs).unwrap(),
                    serde_json::to_string(&baseline).unwrap(),
                    "campaign {:?}: merged artifact must match its baseline",
                    campaign.name
                );
            }
        }
    }

    /// A redirected simulated volunteer goes where it is sent, like the
    /// reference agent: home answers its ask with a `Redirect` to a real
    /// server and never serves it again, so the campaign finishes only
    /// if the agent dials the peer and stays there while it has work.
    #[test]
    fn a_mux_agent_follows_a_redirect_to_where_the_work_is() {
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
            serve_one(&mut s, || {
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

    /// One volunteer, one transcript: scripted servers — home redirects
    /// to a peer, the peer has nothing, home says wait, then assigns,
    /// then declares the campaign complete — hear from `run_agent`
    /// exactly the frames listed here. The session hangs up before it
    /// waits, so a `Bye` and a fresh `Hello` surround the wait; every
    /// `Hello` is the same, and the report carries the kernel's docking
    /// of the workunit.
    #[test]
    fn one_volunteer_one_transcript() {
        let ((home, home_addr), (peer, peer_addr)) = (listen(), listen());
        let home_script = vec![
            redirect(1, &peer_addr),
            no_work(5),
            assignment(5.0),
            campaign_done(),
        ];
        let servers = [serve(home, home_script), serve(peer, vec![no_work(5)])];
        let report = run_agent(AgentConfig::new(home_addr, 1)).expect("agent ran");
        assert!(report.saw_completion, "{report:?}");
        assert_eq!((report.redirects_followed, report.accepted), (1, 1));
        let [at_home, at_peer] = servers.map(|s| s.join().unwrap());

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
        let waited = ["hello", "ask", "bye"];
        let rest = ["hello", "ask", "report", "ask", "bye"];
        assert_eq!(kinds(&at_home), [&waited[..], &waited, &rest].concat());
        assert_eq!(kinds(&at_peer), waited);
        let hello = Message::Hello {
            agent: 1,
            threads: 1,
            campaigns: Vec::new(),
        };
        let mut hellos = at_home.iter().chain(&at_peer);
        assert!(hellos.all(|f| !matches!(f, Message::Hello { .. }) || *f == hello));
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let report = Message::ResultReport {
            replica: 0,
            workunit: 0,
            campaign: 0,
            output: campaign.compute(campaign.spec(0)),
        };
        assert!(
            at_home.contains(&report),
            "the report carries workunit 0's docking"
        );
    }

    /// Regression: an agent whose *every* assignment drew a disconnect
    /// fault has `reported == 0` when the server exits. That agent ran
    /// exactly as configured, so giving up on a vanished server must be
    /// `Ok(report)` — it used to demand `reported > 0` and returned the
    /// connect error instead. One that never got an assignment does
    /// return it. (`stepped_give_up_with_assignments_but_no_reports_is_ok`
    /// is the session's side; this is `run_agent`'s over refused dials.)
    #[test]
    fn give_up_with_assignments_but_no_reports_is_ok() {
        let (listener, addr) = listen();
        let home = addr.clone();
        let server = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Close the listener immediately: once the faulty agent
            // drops this connection, every reconnect is refused.
            drop(listener);
            serve_one(&mut s, || assignment(5.0));
        });

        let report = run_agent(AgentConfig {
            profile: FaultProfile {
                disconnect: 1.0,
                stall: 0.0,
                corrupt: 0.0,
            },
            max_connect_attempts: 3,
            ..AgentConfig::new(addr, 9)
        })
        .expect("an agent that received assignments made progress");
        assert!(report.assignments >= 1, "{report:?}");
        assert_eq!(report.reported, 0, "every assignment disconnected");
        assert_eq!(report.disconnect_faults, report.assignments);
        assert!(!report.saw_completion);
        server.join().unwrap();

        let idle = run_agent(AgentConfig {
            max_connect_attempts: 1,
            ..AgentConfig::new(home, 10)
        });
        assert!(
            idle.is_err(),
            "nothing to show is the connect error: {idle:?}"
        );
    }

    /// A server that accepts and then says nothing holds an agent only
    /// as long as the driver's reply deadline: the unanswered `Hello`
    /// comes back `Lost`, and after its 50 ms backoff the agent dials
    /// again. So over 700 ms at a 200 ms deadline each agent dials two
    /// or three times, a lone one and a fleet's alike; with no deadline
    /// a fleet's agent waited for the fleet's `timeout`. (The connection
    /// completes in the listener's backlog; nobody accepts it, let alone
    /// answers.)
    #[test]
    fn a_silent_server_is_a_lost_connection_within_the_timeout() {
        for agents in [1, 2] {
            let (_silent, addr) = listen();
            let configs = (1..=agents).map(|id| AgentConfig::new(addr.clone(), id));
            let run = Duration::from_millis(700);
            let mut driver = Driver::new(configs.collect(), Some(run)).unwrap();
            driver.io_timeout = Duration::from_millis(200);
            driver.run().unwrap();
            let dials = driver.report.connections;
            assert!(
                dials >= 2 * agents,
                "{agents} agent(s): {dials} dials, no deadline"
            );
            assert!(
                dials <= 3 * agents,
                "{agents} agent(s): {dials} dials, no wait"
            );
            assert!(driver.ended.is_none());
        }
    }

    /// A fleet of one docks on the driver thread: it starts no compute
    /// pool and so holds no memo of what it docked.
    #[test]
    fn a_fleet_of_one_docks_with_no_pool_and_no_memo() {
        let (home, addr) = listen();
        let server = serve(home, vec![assignment(5.0), campaign_done()]);
        let mut driver = Driver::new(vec![AgentConfig::new(addr, 1)], None).unwrap();
        driver.run().unwrap();
        assert_eq!(driver.ended, Some(Outcome::Done));
        assert_eq!(driver.agents[0].session.report.accepted, 1);
        assert!(
            driver.pools.is_none(),
            "a lone agent started the fleet's pools"
        );
        server.join().unwrap();
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
        let trust = run.campaigns[0]
            .trust
            .expect("trust summary present when enabled");
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
