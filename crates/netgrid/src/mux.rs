//! The `Fleet`'s socket driver: every volunteer's I/O, on one thread,
//! for one session ([`run_agent`], `hcmd-agent`'s volunteer) or
//! thousands ([`run_mux_fleet`]; blocking sockets would need as many
//! stacks). It holds the sockets, the poller, the wall clock (read for
//! each input, so an ask's latency runs from its send to its reply's
//! decode) and the campaigns it docks against. Dials and docks go to
//! helper pools; the poller sleeps until a socket is ready, a pool's
//! result writes its wake byte, or the fleet's next due time. A fleet's
//! pools have threads (on the driver's, a dock would poison every other
//! latency sample); a lone agent's have none, so it dials and docks, on
//! its own `threads`, on the driver thread.

use crate::agent::{compute_workunit, AgentConfig, AgentReport, Input, Outcome};
use crate::campaign::NetCampaign;
use crate::fleet::{Fleet, Io, Key, IO_TIMEOUT};
use crate::protocol::{decode_versioned, encode_with, CampaignParams, Codec, DecodeError, Message};
use crate::sys::{self, Event as IoEvent, Poller, ReadBuf};
use gridsim::SimTime;
use maxdo::DockingOutput;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One open connection, with buffered bytes each way.
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
}

/// Connector-pool width: a dropped SYN stalls a blocking `connect` for a
/// retransmit timeout, and only the dials queued behind it on its worker.
const CONNECT_WORKERS: usize = 4;

/// Compute-pool width: all spare cores, at least one, as a few nice-19
/// workers — dozens of runnable compute threads would out-weigh the
/// driver and a loopback server even at the lowest priority.
fn compute_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(2)
        .max(1)
}

/// Jobs into a helper pool, and the results coming back, each followed
/// by a byte on the driver's wake socket.
struct Pool<J, R> {
    submit: Box<dyn Fn(J)>,
    results: mpsc::Receiver<R>,
}

/// Starts `workers` helper threads that each run `init` once and then
/// turn jobs from the one queue into results; they end when the driver
/// drops the pool. With no workers, `submit` runs the job itself.
fn pool<J: Send + 'static, R: Send + 'static>(
    workers: usize,
    init: fn(),
    work: impl Fn(J) -> R + Clone + Send + 'static,
    wake: &Arc<UnixStream>,
) -> Pool<J, R> {
    let ((done, results), wake) = (mpsc::channel(), Arc::clone(wake));
    let finish = move |job| {
        // Fails only once the driver is gone, and nobody waits then.
        let _ = done.send(work(job));
        // A full socket already holds a wake the driver has not read.
        let _ = (&*wake).write(&[1]);
    };
    let submit: Box<dyn Fn(J)> = if workers == 0 {
        Box::new(finish)
    } else {
        let (jobs, queue) = mpsc::channel();
        let queue = Arc::new(Mutex::new(queue));
        for _ in 0..workers {
            let (queue, finish) = (Arc::clone(&queue), finish.clone());
            thread::spawn(move || {
                init();
                loop {
                    let Ok(job) = queue.lock().expect("job queue").recv() else {
                        return;
                    };
                    finish(job);
                }
            });
        }
        Box::new(move |job| drop(jobs.send(job)))
    };
    Pool { submit, results }
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
    if driver.fleet.outcome(0) == Some(Outcome::GaveUp) {
        let gone = driver.io.dial_error;
        return Err(gone.expect("a session gives up only on a failed dial"));
    }
    Ok(driver.fleet.into_reports().remove(0))
}

/// Runs a fleet of volunteers, one per config, on the calling thread,
/// each session to its own end — or all of them to `timeout`, where the
/// ones still running are cut off. Returns every session's report, in
/// the order of `agents`; one that gave up is a report with nothing in
/// it, not an error.
pub fn run_mux_fleet(agents: Vec<AgentConfig>, timeout: Duration) -> io::Result<Vec<AgentReport>> {
    let mut driver = Driver::new(agents, Some(timeout))?;
    driver.run()?;
    Ok(driver.fleet.into_reports())
}

/// The fleet's [`Io`] over sockets.
struct Sockets {
    poller: Poller,
    conns: Vec<Option<MuxConn>>,
    by_fd: HashMap<i32, usize>,
    /// The campaigns the handshake announced, by wire campaign id.
    roster: Vec<Arc<NetCampaign>>,
    compute: Pool<(Key, Arc<NetCampaign>), (Key, DockingOutput)>,
    dial: Pool<(usize, String), (usize, io::Result<TcpStream>)>,
    /// The pools' wake socket, as the poller watches it.
    woken: UnixStream,
    /// The last dial that failed: a session that gives up returns it.
    dial_error: Option<io::Error>,
}

impl Io for Sockets {
    fn dial(&mut self, who: usize, addr: &str) {
        (self.dial.submit)((who, addr.to_owned()));
    }

    /// Queues `msg` and writes as much as the socket takes at once.
    fn send(&mut self, who: usize, msg: &Message) -> bool {
        let Some(conn) = self.conns[who].as_mut() else {
            return false;
        };
        conn.write_buf.extend_from_slice(&encode_with(msg, Codec));
        let sent = conn.flush().is_ok();
        self.update_interest(who);
        sent
    }

    fn close(&mut self, who: usize) {
        if let Some(conn) = self.conns[who].take() {
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.deregister(fd);
            self.by_fd.remove(&fd);
        }
    }

    fn dock(&mut self, _: usize, key: Key, roster: &[CampaignParams]) {
        if self.roster.is_empty() {
            let build = |p: &CampaignParams| Arc::new(NetCampaign::build(*p));
            self.roster = roster.iter().map(build).collect();
        }
        let campaign = Arc::clone(&self.roster[usize::from(key.0)]);
        (self.compute.submit)((key, campaign));
    }
}

impl Sockets {
    /// Wires a dialed socket into the poller, or fails the dial.
    fn wire(&mut self, who: usize, dialed: io::Result<TcpStream>) -> Input {
        let wired = dialed.and_then(|stream| {
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true)?;
            self.poller.register(stream.as_raw_fd(), true, false)?;
            Ok(stream)
        });
        match wired {
            Ok(stream) => {
                self.by_fd.insert(stream.as_raw_fd(), who);
                self.conns[who] = Some(MuxConn {
                    stream,
                    read_buf: ReadBuf::default(),
                    write_buf: Vec::new(),
                    write_pos: 0,
                    interest: (true, false),
                });
                Input::Connected
            }
            Err(e) => {
                self.dial_error = Some(e);
                Input::ConnectFailed
            }
        }
    }

    fn update_interest(&mut self, who: usize) {
        let Some(conn) = self.conns[who].as_mut() else {
            return;
        };
        let wanted = (true, conn.write_pos < conn.write_buf.len());
        if wanted != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = wanted;
            let _ = self.poller.reregister(fd, wanted.0, wanted.1);
        }
    }
}

struct Driver {
    fleet: Fleet,
    io: Sockets,
    start: Instant,
    /// A fleet's `timeout`; `run_agent` runs until its session finishes.
    deadline: Option<Instant>,
}

impl Driver {
    fn new(agents: Vec<AgentConfig>, timeout: Option<Duration>) -> io::Result<Self> {
        let start = Instant::now();
        let (docker, dialers, threads) = match &agents[..] {
            [lone] => (0, 0, lone.threads),
            _ => (compute_workers(), CONNECT_WORKERS, 1),
        };
        let (woken, wake) = UnixStream::pair()?;
        woken.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(woken.as_raw_fd(), true, false)?;
        let wake = Arc::new(wake);
        let dock = move |(k, c): (Key, Arc<NetCampaign>)| (k, compute_workunit(&c, k.1, threads));
        let dial = |(who, addr): (usize, String)| (who, connect(&addr, IO_TIMEOUT));
        let io = Sockets {
            poller,
            conns: agents.iter().map(|_| None).collect(),
            by_fd: HashMap::new(),
            roster: Vec::new(),
            // The docking kernel must not starve the driver (or a
            // loopback server): it runs at the lowest priority.
            compute: pool(docker, sys::deprioritize_current_thread, dock, &wake),
            dial: pool(dialers, || (), dial, &wake),
            woken,
            dial_error: None,
        };
        let mut fleet = Fleet::default();
        for config in agents {
            fleet.join(config, SimTime::ZERO);
        }
        let deadline = timeout.map(|timeout| start + timeout);
        Ok(Self {
            fleet,
            io,
            start,
            deadline,
        })
    }

    /// The fleet's clock: the time since the run started.
    fn now(&self) -> SimTime {
        SimTime::new(self.start.elapsed().as_secs_f64())
    }

    /// Tells the fleet what happened to session `who`.
    fn input(&mut self, who: usize, input: Input) {
        let now = self.now();
        self.fleet.input(&mut self.io, now, who, input);
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<IoEvent> = Vec::new();
        loop {
            let now = self.now();
            self.fleet.tick(&mut self.io, now);
            self.drain();
            // After the dials: one that failed can finish the last
            // session, which leaves the poller nothing to wait for.
            if self.fleet.running == 0 || self.deadline.is_some_and(|end| Instant::now() > end) {
                break;
            }
            let end = self.deadline.map(|end| end - Instant::now().min(end));
            let timeout = self.fleet.next_due(self.now()).into_iter().chain(end).min();
            self.io.poller.wait(timeout, &mut events)?;
            for ev in events.drain(..) {
                if let Some(&who) = self.io.by_fd.get(&ev.fd) {
                    self.advance_io(who, ev);
                } else {
                    // Read before the pools drain: a result sent after
                    // this read writes a byte for the next wait.
                    let _ = io::copy(&mut &self.io.woken, &mut io::sink());
                }
            }
        }
        // At the timeout, the sessions still running are cut off: every
        // socket drops at once, and the server sees the EOFs.
        for who in 0..self.io.conns.len() {
            self.io.close(who);
        }
        Ok(())
    }

    /// Tells the fleet what the pools finished: dials and docks.
    fn drain(&mut self) {
        loop {
            if let Ok((who, dialed)) = self.io.dial.results.try_recv() {
                let input = self.io.wire(who, dialed);
                self.input(who, input);
            } else if let Ok((key, out)) = self.io.compute.results.try_recv() {
                let now = self.now();
                self.fleet.docked(&mut self.io, now, key, out);
            } else {
                return;
            }
        }
    }

    /// Readiness on one session's socket: read, decode, hand on, flush.
    fn advance_io(&mut self, who: usize, ev: IoEvent) {
        if ev.readable || ev.hangup {
            let Some(conn) = self.io.conns[who].as_mut() else {
                return;
            };
            let mut lost = conn
                .read_buf
                .fill(&mut conn.stream, usize::MAX)
                .unwrap_or(true);
            // The session may redial on any frame, and the connection
            // goes with that: look it up afresh for each.
            loop {
                let Some(conn) = self.io.conns[who].as_mut() else {
                    return;
                };
                match decode_versioned(conn.read_buf.pending()) {
                    Ok((msg, consumed, _)) => {
                        conn.read_buf.consume(consumed);
                        self.input(who, Input::Frame(msg));
                    }
                    Err(DecodeError::Incomplete { .. }) => break,
                    Err(_) => {
                        lost = true;
                        break;
                    }
                }
            }
            if lost {
                return self.input(who, Input::Lost);
            }
        }
        let conn = self.io.conns[who].as_mut();
        if ev.writable && conn.is_some_and(|conn| conn.flush().is_err()) {
            return self.input(who, Input::Lost);
        }
        self.io.update_interest(who);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::{assignment, campaign_done, hello_ack, no_work};
    use crate::faults::FaultProfile;
    use crate::protocol::{read_message, write_message_with, CampaignParams};
    use crate::server::{NetServer, NetServerConfig};
    use std::net::TcpListener;

    /// `n` clean volunteers on one run seed calling `addr` home, ids
    /// `1..=n`.
    fn fleet(addr: &str, n: u64, seed: u64) -> Vec<AgentConfig> {
        let volunteer = |id| AgentConfig {
            seed,
            ..AgentConfig::new(addr, id)
        };
        (1..=n).map(volunteer).collect()
    }

    /// One counter summed over a fleet's reports.
    fn total(reports: &[AgentReport], counter: impl Fn(&AgentReport) -> u64) -> u64 {
        reports.iter().map(counter).sum()
    }

    /// Whether some session of the fleet saw the campaign complete.
    fn saw_completion(reports: &[AgentReport]) -> bool {
        reports.iter().any(|r| r.saw_completion)
    }

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

    /// A pool's result wakes a driver asleep in its poller: a lone
    /// agent's pool, which dials inside `submit`, and a fleet's, which
    /// dials on a helper thread. The wait has no timer of the driver's;
    /// its 10 s bound only turns a lost wake into a failure, not a hang.
    #[test]
    fn a_pool_result_wakes_a_driver_asleep_in_its_poller() {
        let (_listener, addr) = listen();
        for n in [1, 2] {
            let mut driver = Driver::new(fleet(&addr, n, 7), None).unwrap();
            (driver.io.dial.submit)((0, addr.clone()));
            let mut events = Vec::new();
            let bound = Some(Duration::from_secs(10));
            driver.io.poller.wait(bound, &mut events).unwrap();
            let woken = driver.io.woken.as_raw_fd();
            let wake = events.iter().any(|ev| ev.fd == woken && ev.readable);
            assert!(wake, "{n} agents: no wake byte within 10 s");
            let (who, dialed) = driver.io.dial.results.try_recv().expect("a result");
            assert!(who == 0 && dialed.is_ok(), "{dialed:?}");
        }
    }

    /// A fleet alone must carry a campaign to completion and the
    /// server's merged artifact must equal the in-process baseline —
    /// the same bar a lone agent is held to. The second input is a
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

            let attached = fleet(&addr, 8, 7).into_iter().map(|config| AgentConfig {
                campaigns: attach.clone(),
                ..config
            });
            let fleet =
                run_mux_fleet(attached.collect(), Duration::from_secs(60)).expect("fleet ran");
            // Before the join: a server whose campaign never validates
            // never returns.
            assert!(saw_completion(&fleet), "fleet should see completion");
            let run = server.join().unwrap().expect("server ran");

            assert!(total(&fleet, |r| r.assignments) > 0 && total(&fleet, |r| r.reported) > 0);
            assert!(fleet.iter().any(|r| !r.request_latencies_ms.is_empty()));
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

    /// One volunteer, one transcript: a scripted server — it says wait,
    /// wait again, then assigns, then declares the campaign complete —
    /// hears from `run_agent`
    /// exactly the frames listed here. The session hangs up before it
    /// waits, so a `Bye` and a fresh `Hello` surround the wait; every
    /// `Hello` is the same, and the report carries the kernel's docking
    /// of the workunit.
    #[test]
    fn one_volunteer_one_transcript() {
        let (listener, addr) = listen();
        let script = vec![no_work(5), no_work(5), assignment(5.0), campaign_done()];
        let server = serve(listener, script);
        let report = run_agent(AgentConfig::new(addr, 1)).expect("agent ran");
        assert!(report.saw_completion, "{report:?}");
        assert_eq!(report.accepted, 1);
        let heard = server.join().unwrap();

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
        assert_eq!(kinds(&heard), [&waited[..], &waited, &rest].concat());
        let hello = Message::Hello {
            agent: 1,
            threads: 1,
            campaigns: Vec::new(),
        };
        assert!(heard
            .iter()
            .all(|f| !matches!(f, Message::Hello { .. }) || *f == hello));
        let campaign = NetCampaign::build(CampaignParams::tiny());
        let report = Message::ResultReport {
            replica: 0,
            workunit: 0,
            campaign: 0,
            output: campaign.compute(campaign.spec(0)),
        };
        assert!(
            heard.contains(&report),
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
}
