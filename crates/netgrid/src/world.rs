//! One stepped world for every multi-party test in this crate: one
//! event loop, journaled or not and with faults (trust included) of its
//! own, M volunteer [`Session`]s with configs of their own, the in-memory
//! pipes between them and into the loop's ops listener, and one clock.
//! Nothing here touches a socket or the wall clock: `now` is whatever
//! the script or the seed says it is.
//!
//! A script drives it a call at a time — `connect`, `pump`, `turn`,
//! `get` — and a seed drives it to the end ([`World::run`]). Either may
//! kill the loop or cut a connection between two turns, or cut the
//! loop's power in the middle of a wal write, and every turn of the loop
//! is held to the same oracle. A journaled loop's disk is a `Vec<u8>`
//! its driver persists batches to. Shared too: the far-end helpers
//! ([`Client`]) and the fixtures the tests open their cores from.

use crate::agent::{AgentReport, Input, Outcome};
use crate::event_loop::{Accept, Id, Io, Loop, Ready};
use crate::fleet::{self, Fleet, Key};
use crate::protocol::{self, decode_versioned, encode_with, CampaignParams, Codec, Message};
use crate::registry::{CampaignDef, MultiGrid};
use crate::state::{GridState, NetStats};
use crate::sys::Event;
use crate::{AgentConfig, FaultProfile, NetCampaign, ServerFaults};
use gridsim::sched::ServerConfig;
use gridsim::SimTime;
use maxdo::DockingOutput;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::OnceLock;

// ---- Fixtures. ----

/// The address every volunteer of a world dials.
pub(crate) const ADDR: &str = "grid";

pub(crate) fn t(seconds: f64) -> SimTime {
    SimTime::new(seconds)
}

/// A core over `defs`, journaled on `wal` when given one: recovered from
/// it, and its later batches the caller's to persist.
pub(crate) fn open_grid(
    defs: Vec<CampaignDef>,
    faults: ServerFaults,
    wal: Option<&mut Vec<u8>>,
) -> MultiGrid {
    let scheduler = ServerConfig {
        deadline_seconds: 2.0,
        ..ServerConfig::default()
    };
    match wal {
        Some(wal) => MultiGrid::open_bytes(defs, scheduler, faults, wal),
        None => MultiGrid::open(defs, scheduler, faults, crate::ShardSpec::solo(), None),
    }
    .unwrap()
    .0
}

/// The tiny campaign's outputs, docked once for every test here.
pub(crate) fn baseline() -> &'static [DockingOutput] {
    static BASELINE: OnceLock<Vec<DockingOutput>> = OnceLock::new();
    BASELINE.get_or_init(|| NetCampaign::build(CampaignParams::tiny()).baseline_outputs())
}

pub(crate) fn frames(mut bytes: &[u8]) -> Vec<Message> {
    let mut decoded = Vec::new();
    while let Ok((msg, consumed, _)) = decode_versioned(bytes) {
        decoded.push(msg);
        bytes = &bytes[consumed..];
    }
    assert!(bytes.is_empty(), "the sink holds whole frames only");
    decoded
}

/// A core's campaign states and wal size.
pub(crate) type Books = (Vec<GridState>, Option<(u64, u64)>);

/// What a refused frame must leave alone: the books a restart would
/// replay to, and the wal's records and bytes.
pub(crate) fn books(grid: &MultiGrid) -> Books {
    let states = grid.slots().iter().map(|s| s.state.clone()).collect();
    (states, grid.wal_size())
}

// ---- Far ends: one helper set over sockets and pipes alike. ----

/// Whatever moves the bytes between a test's far ends and the loop
/// under test: one call is one round of it.
pub(crate) trait Pump {
    fn pump(&mut self);
}

/// Rounds `net` until `until` holds; a bound, in rounds, only on a
/// failing test.
pub(crate) fn pump_until<N: Pump + ?Sized>(net: &mut N, mut until: impl FnMut(&mut N) -> bool) {
    for _ in 0..10_000 {
        if until(net) {
            return;
        }
        net.pump();
    }
    panic!("the loop never got there");
}

/// The far end of a connection to a loop under test: frames out,
/// frames in, never blocking — waiting for a reply is pumping.
pub(crate) struct Client<E> {
    pub(crate) end: E,
    inbox: Vec<u8>,
}

impl<E: Read + Write> Client<E> {
    pub(crate) fn new(end: E) -> Self {
        Self {
            end,
            inbox: Vec::new(),
        }
    }

    /// Frames here are far smaller than a socket buffer, so a
    /// nonblocking write takes them whole; one to a closed end is
    /// lost, as on a socket.
    pub(crate) fn send(&mut self, msg: &Message) {
        let _ = self.end.write_all(&encode_with(msg, Codec));
    }

    /// The next whole frame received, if one is in.
    pub(crate) fn poll(&mut self) -> Option<Message> {
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = self.end.read(&mut chunk) {
            self.inbox.extend_from_slice(&chunk[..n]);
        }
        let (msg, consumed, _) = decode_versioned(&self.inbox).ok()?;
        self.inbox.drain(..consumed);
        Some(msg)
    }

    pub(crate) fn recv(&mut self, net: &mut dyn Pump) -> Message {
        let mut reply = None;
        pump_until(net, |_| {
            reply = self.poll();
            reply.is_some()
        });
        reply.expect("a reply")
    }

    pub(crate) fn exchange(&mut self, msg: &Message, net: &mut dyn Pump) -> Message {
        self.send(msg);
        self.recv(net)
    }

    /// Introduces itself as `agent`.
    pub(crate) fn hello(mut self, agent: u64, net: &mut dyn Pump) -> Self {
        let hello = Message::Hello {
            agent,
            threads: 1,
            campaigns: Vec::new(),
        };
        let ack = self.exchange(&hello, net);
        assert!(matches!(ack, Message::HelloAck { .. }), "{ack:?}");
        self
    }

    /// Asks once; an assignment comes back as the report it calls
    /// for (docked from the precomputed `baseline`), anything else
    /// as it is.
    pub(crate) fn ask(
        &mut self,
        net: &mut dyn Pump,
        baseline: &[DockingOutput],
    ) -> Result<Message, Message> {
        match self.exchange(&Message::RequestWork, net) {
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

    pub(crate) fn report(&mut self, report: &Message, net: &mut dyn Pump) {
        let ack = self.exchange(report, net);
        assert!(
            matches!(ack, Message::ResultAck { accepted: true, .. }),
            "{ack:?}"
        );
    }

    /// Asks and reports until an ask draws no assignment; that reply.
    pub(crate) fn work(&mut self, net: &mut dyn Pump, baseline: &[DockingOutput]) -> Message {
        loop {
            match self.ask(net, baseline) {
                Ok(report) => self.report(&report, net),
                Err(other) => return other,
            }
        }
    }
}

// ---- Pipes: in-memory connections and the driver over them. ----

/// One in-memory connection: the bytes each way (`bytes[e]` written
/// by end `e`), which ends have let go, and whether it broke.
#[derive(Default)]
struct Wire {
    bytes: [VecDeque<u8>; 2],
    gone: [bool; 2],
    cut: bool,
}

impl Wire {
    /// What end `e` reads has ended: the far end let go, or the wire
    /// broke.
    fn ended(&self, e: usize) -> bool {
        self.cut || self.gone[1 - e]
    }

    /// A read at end `e` would find something: bytes, or the close.
    fn readable(&self, e: usize) -> bool {
        self.ended(e) || !self.bytes[1 - e].is_empty()
    }
}

/// One end of a wire (0 dialed, 1 accepted), as a loop or a far end
/// holds it: reads what the far end wrote (`WouldBlock` while there is
/// nothing, EOF once it let go or the wire broke), writes for it to
/// read, and lets go when dropped. An end a loop holds adds what it
/// writes to its driver's `sent`.
pub(crate) struct End {
    wire: Rc<RefCell<Wire>>,
    end: usize,
    sent: Option<Rc<Cell<u64>>>,
}

impl End {
    /// A fresh connection: (dialing end, accepting end).
    pub(crate) fn pair() -> (End, End) {
        let wire = Rc::new(RefCell::new(Wire::default()));
        let end = |end| End {
            wire: wire.clone(),
            end,
            sent: None,
        };
        (end(0), end(1))
    }

    /// The far end has let go, or the wire broke.
    pub(crate) fn far_gone(&self) -> bool {
        self.wire.borrow().ended(self.end)
    }

    /// The connection breaks: both ends find it gone, and whatever was
    /// in flight is lost.
    pub(crate) fn cut(&self) {
        let mut wire = self.wire.borrow_mut();
        wire.cut = true;
        wire.bytes = Default::default();
    }
}

impl Read for End {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut wire = self.wire.borrow_mut();
        if !wire.readable(self.end) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let from = &mut wire.bytes[1 - self.end];
        from.make_contiguous();
        from.read(buf)
    }
}

impl Write for End {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut wire = self.wire.borrow_mut();
        if wire.ended(self.end) {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        wire.bytes[self.end].extend(buf);
        if let Some(sent) = &self.sent {
            sent.set(sent.get() + buf.len() as u64);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for End {
    fn drop(&mut self) {
        let mut wire = self.wire.borrow_mut();
        wire.gone[self.end] = true;
        wire.bytes[1 - self.end].clear();
    }
}

/// The loop's driver over pipes: its listeners' backlogs, the ends it
/// was handed, the bytes it wrote, and its disk.
#[derive(Default)]
pub(crate) struct Pipes {
    next_id: Id,
    /// Connections waiting on the task and the ops listener.
    backlog: [VecDeque<End>; 2],
    paused: [bool; 2],
    /// The wire and end of each end the loop holds, in id order.
    held: Vec<(Id, Rc<RefCell<Wire>>, usize)>,
    sent: Rc<Cell<u64>>,
    /// The wal of a journaled loop as its disk holds it: every batch the
    /// loop committed, and what a power cut let land of the last one.
    disk: Vec<u8>,
    /// A power cut due at the next persist: of that batch, this many
    /// bytes modulo its length plus one land.
    power_cut: Option<u64>,
    /// After a power cut, the disk's length once recovery has cut it
    /// back to its last whole record.
    whole: Option<usize>,
}

impl Pipes {
    /// The pipes of a loop started afresh over the same disk: every
    /// connection and backlog gone with the loop it belonged to.
    fn restart(&mut self) {
        let disk = std::mem::take(&mut self.disk);
        *self = Self {
            disk,
            ..Self::default()
        };
    }

    /// A connection into the task listener (or the ops listener): the
    /// far end's end.
    pub(crate) fn connect(&mut self, ops: bool) -> End {
        let (dialing, accepting) = End::pair();
        self.backlog[usize::from(ops)].push_back(accepting);
        dialing
    }

    /// Names `end`, handed to the loop.
    fn hold(&mut self, mut end: End) -> (Id, End) {
        self.next_id += 1;
        end.sent = Some(self.sent.clone());
        self.held.push((self.next_id, end.wire.clone(), end.end));
        (self.next_id, end)
    }

    /// Everything that reached the loop since it last served: every end
    /// it holds with something to read, in id order, then each listener
    /// with a backlog.
    pub(crate) fn ready(&mut self) -> Vec<Ready> {
        self.held.retain(|(_, wire, e)| !wire.borrow().gone[*e]);
        let readable = self.held.iter().filter(|(_, w, e)| w.borrow().readable(*e));
        let mut batch: Vec<Ready> = readable
            .map(|&(fd, ..)| {
                Ready::Conn(Event {
                    fd,
                    readable: true,
                    writable: false,
                    hangup: false,
                })
            })
            .collect();
        for ops in [false, true] {
            let i = usize::from(ops);
            if !self.paused[i] && !self.backlog[i].is_empty() {
                batch.push(Ready::Listener(ops));
            }
        }
        batch
    }
}

impl Io<End> for Pipes {
    fn accept(&mut self, ops: bool) -> io::Result<Accept<End>> {
        Ok(match self.backlog[usize::from(ops)].pop_front() {
            Some(end) => {
                let (id, end) = self.hold(end);
                Accept::Conn(id, end)
            }
            None => Accept::Empty,
        })
    }

    fn watch(&mut self, _: Id, _: Option<(bool, bool)>, _: (bool, bool)) -> bool {
        true
    }

    fn forget(&mut self, _: Id) {}

    fn listen(&mut self, ops: bool, on: bool) -> io::Result<()> {
        self.paused[usize::from(ops)] = !on;
        Ok(())
    }

    /// Appends the batch to the disk; a power cut instead lets a prefix
    /// of it land, mid-frame as likely as not, and fails the write.
    fn persist(&mut self, batch: &[u8]) -> io::Result<()> {
        let Some(draw) = self.power_cut.take() else {
            self.disk.extend_from_slice(batch);
            return Ok(());
        };
        let landed = &batch[..(draw % (batch.len() as u64 + 1)) as usize];
        let mut whole = 0;
        while let Ok((.., frame)) = protocol::deframe(&landed[whole..]) {
            whole += frame;
        }
        self.whole = Some(self.disk.len() + whole);
        self.disk.extend_from_slice(landed);
        Err(io::Error::other("the power went during a wal write"))
    }
}

// ---- The world. ----

/// What the world's loop runs, and runs again after a kill.
#[derive(Clone)]
pub(crate) struct Server {
    pub(crate) defs: Vec<CampaignDef>,
    pub(crate) faults: ServerFaults,
    /// Whether it keeps a wal, on its pipes' disk.
    pub(crate) journaled: bool,
    /// Whether it answers scrapes on an ops listener.
    pub(crate) ops: bool,
}

impl Server {
    /// The tiny campaign, default faults, no wal, no ops listener.
    pub(crate) fn tiny() -> Self {
        Self {
            defs: vec![CampaignDef::default_solo(CampaignParams::tiny())],
            faults: ServerFaults::default(),
            journaled: false,
            ops: false,
        }
    }

    /// The same, journaled.
    pub(crate) fn journaled(self) -> Self {
        Self {
            journaled: true,
            ..self
        }
    }

    /// Its core, recovered from `disk` when it is journaled.
    fn core(&self, disk: &mut Vec<u8>) -> MultiGrid {
        let wal = self.journaled.then_some(disk);
        open_grid(self.defs.clone(), self.faults, wal)
    }
}

/// The volunteers' side of the fleet's I/O: each one's pipe, and the
/// dials and docks the fleet asked for that no turn has carried out yet.
#[derive(Default)]
struct Ends {
    pipes: Vec<Option<Client<End>>>,
    dials: Vec<bool>,
    /// Each dock out, with the volunteer whose `Compute` asked for it.
    docks: Vec<(usize, Key)>,
}

impl fleet::Io for Ends {
    fn dial(&mut self, v: usize, _: &str) {
        self.dials[v] = true;
    }

    fn send(&mut self, v: usize, msg: &Message) -> bool {
        self.pipes[v].as_mut().map(|pipe| pipe.send(msg)).is_some()
    }

    fn close(&mut self, v: usize) {
        self.pipes[v] = None;
    }

    fn dock(&mut self, v: usize, key: Key, _: &[CampaignParams]) {
        self.docks.push((v, key));
    }
}

/// One event loop, its volunteers' fleet, the pipes between them and
/// the clock. A dial lands in the loop's task listener, and fails once
/// the loop has left. Every turn of the loop is held to an oracle from
/// outside it: bytes left only with its core's records committed.
pub(crate) struct World {
    server: Server,
    pub(crate) lp: Loop<End>,
    pub(crate) pipes: Pipes,
    pub(crate) fleet: Fleet,
    ends: Ends,
    pub(crate) now: f64,
    /// Whether [`Self::run`] cuts connections now and then.
    pub(crate) cuts: bool,
    /// Whether the loop has left, as the real server exits: every
    /// connection to it closed, nothing listening.
    left: bool,
    /// Volunteers' dials that found the loop gone: it had left.
    pub(crate) gone_dials: u64,
    /// Power cuts that landed: each in the middle of a wal write.
    pub(crate) power_cuts: u64,
}

impl World {
    /// A world of this server's loop, started at `now` 1.
    pub(crate) fn new(server: Server) -> Self {
        Self::starting_at(1.0, server)
    }

    fn starting_at(now: f64, server: Server) -> Self {
        let mut pipes = Pipes::default();
        let lp = Self::open(&server, &mut pipes, now);
        Self {
            server,
            lp,
            pipes,
            fleet: Fleet::default(),
            ends: Ends::default(),
            now,
            cuts: false,
            left: false,
            gone_dials: 0,
            power_cuts: 0,
        }
    }

    /// A journaled loop and six volunteers, two of them flaky: what a
    /// seed drives.
    pub(crate) fn seeded(seed: u64) -> Self {
        let mut world = Self::starting_at(0.0, Server::tiny().journaled());
        world.cuts = true;
        for i in 0..6 {
            let profile = match i {
                0 | 1 => FaultProfile::flaky(),
                _ => FaultProfile::none(),
            };
            world.volunteer(AgentConfig {
                seed,
                profile,
                ..AgentConfig::new(ADDR, i + 1)
            });
        }
        world
    }

    /// The loop, its core opened from its disk, started at `now`.
    fn open(server: &Server, pipes: &mut Pipes, now: f64) -> Loop<End> {
        let core = server.core(&mut pipes.disk);
        Loop::new(core, 50, server.ops, t(now))
    }

    /// The loop's open batch goes to its disk, as its driver commits
    /// before a reply leaves or at a clean exit.
    pub(crate) fn commit(&mut self) {
        assert!(self.lp.commit(&mut self.pipes), "the loop could not commit");
    }

    /// The loop's wal, as its disk holds it: what it committed.
    pub(crate) fn wal(&self) -> &[u8] {
        assert!(self.server.journaled, "the loop keeps no wal");
        &self.pipes.disk
    }

    pub(crate) fn stats(&self) -> NetStats {
        self.state().net_stats
    }

    pub(crate) fn state(&self) -> &GridState {
        &self.lp.core.slots()[0].state
    }

    /// A volunteer's connection to the loop.
    pub(crate) fn connect(&mut self) -> Client<End> {
        Client::new(self.pipes.connect(false))
    }

    /// One turn of the loop at `now`, held to the oracle.
    pub(crate) fn turn(&mut self, f: impl FnOnce(&mut Loop<End>, &mut Pipes, SimTime)) {
        let sent = self.pipes.sent.get();
        f(&mut self.lp, &mut self.pipes, t(self.now));
        if self.pipes.sent.get() > sent {
            assert_eq!(
                self.lp.core.uncommitted(),
                0,
                "the loop wrote ahead of its records"
            );
        }
        if self.lp.wal_error.is_some() {
            // The power went mid-write, and the loop with it: it comes
            // back from whatever landed, cut back to its last whole
            // record.
            let whole = self.pipes.whole.take().expect("a power cut");
            self.kill_and_reopen();
            assert_eq!(
                self.pipes.disk.len(),
                whole,
                "the wal was not cut back to its last whole record"
            );
            self.power_cuts += 1;
        }
    }

    /// The loop serves `batch`, if it holds anything.
    pub(crate) fn serve(&mut self, batch: Vec<Ready>) {
        if !batch.is_empty() {
            self.turn(|lp, pipes, now| lp.serve(pipes, now, batch).unwrap());
        }
    }

    /// The loop dies between two turns — a `kill -9`, or a power cut
    /// that lands between two writes — and comes back from its disk: the
    /// records it had not committed die with it, and so does every
    /// connection to it, those waiting in its listeners' backlogs too.
    pub(crate) fn kill_and_reopen(&mut self) {
        self.pipes.restart();
        self.lp = Self::open(&self.server, &mut self.pipes, self.now);
        self.left = false;
    }

    /// The loop leaves, as the real server exits once its loop says it
    /// may: its last records committed, every connection to it closed,
    /// those waiting in its listeners' backlogs too, and later dials to
    /// it fail. Its core stays, for the end of the run to check.
    pub(crate) fn leave(&mut self) {
        self.commit();
        self.lp.conns.clear();
        self.pipes.restart();
        self.left = true;
    }

    /// The loop loses power during its next wal write, which `draw`
    /// tears ([`Pipes`]): it dies there, before a byte of the replies
    /// behind it leaves, and comes back from its disk.
    pub(crate) fn cut_power(&mut self, draw: u64) {
        self.pipes.power_cut = Some(draw);
    }

    /// One request on the loop's ops listener, answered within a round:
    /// the whole response.
    pub(crate) fn scrape(&mut self, request: &str) -> String {
        let mut far = self.pipes.connect(true);
        far.write_all(request.as_bytes()).unwrap();
        pump_until(self, |_| far.far_gone());
        let mut raw = String::new();
        far.read_to_string(&mut raw).unwrap();
        raw
    }

    /// `GET path` on the loop's ops listener: the status and the body.
    pub(crate) fn get(&mut self, path: &str) -> (u16, String) {
        let raw = self.scrape(&format!("GET {path} HTTP/1.1\r\nHost: ops\r\n\r\n"));
        let (head, body) = raw.split_once("\r\n\r\n").expect("a whole response");
        (head[9..12].parse().unwrap(), body.into())
    }

    /// Holders take every replica the loop has to issue — agents 100,
    /// 101, ... until one draws nothing — so the next ask draws
    /// `NoWork`. Each holder, with the reports it owes.
    pub(crate) fn hold_every_replica(&mut self) -> Vec<(Client<End>, Vec<Message>)> {
        let mut holders = Vec::new();
        loop {
            let mut holder = self.connect().hello(100 + holders.len() as u64, self);
            let mut owed = Vec::new();
            while let Ok(report) = holder.ask(self, baseline()) {
                owed.push(report);
            }
            let drew = !owed.is_empty();
            holders.push((holder, owed));
            if !drew {
                return holders;
            }
        }
    }

    /// A volunteer joins, to start at its first turn.
    pub(crate) fn volunteer(&mut self, config: AgentConfig) {
        self.fleet.join(config, t(self.now));
        self.ends.pipes.push(None);
        self.ends.dials.push(false);
    }

    /// Volunteer `v`'s counters.
    pub(crate) fn report(&self, v: usize) -> &AgentReport {
        self.fleet.report(v)
    }

    /// How volunteer `v` finished, once it has.
    pub(crate) fn outcome(&self, v: usize) -> Option<Outcome> {
        self.fleet.outcome(v)
    }

    /// Volunteer `v` takes its turn: the first of its dial, a dock it
    /// asked for (answered from the baseline) or what reached its pipe
    /// goes to the fleet, and then the fleet's timers run. A dial fails
    /// if the loop left.
    fn volunteer_turn(&mut self, v: usize) {
        let (now, ends) = (t(self.now), &mut self.ends);
        if std::mem::take(&mut ends.dials[v]) {
            let dialed = if self.left {
                self.gone_dials += 1;
                Input::ConnectFailed
            } else {
                ends.pipes[v] = Some(Client::new(self.pipes.connect(false)));
                Input::Connected
            };
            self.fleet.input(ends, now, v, dialed);
        } else if let Some(i) = ends.docks.iter().position(|&(asked, _)| asked == v) {
            let (_, key) = ends.docks.remove(i);
            let out = baseline()[key.1 as usize].clone();
            self.fleet.docked(ends, now, key, out);
        } else if let Some(pipe) = &mut ends.pipes[v] {
            match pipe.poll() {
                Some(frame) => self.fleet.input(ends, now, v, Input::Frame(frame)),
                None if pipe.end.far_gone() => self.fleet.input(ends, now, v, Input::Lost),
                None => {}
            }
        }
        self.fleet.tick(&mut self.ends, now);
        if self.fleet.outcome(v) == Some(Outcome::GaveUp) {
            // Giving up is a session's answer to a server gone before it
            // got any work or word of the end, and only the end of the
            // campaign may take the server away.
            let report = self.fleet.report(v);
            let idle = report.assignments == 0 && !report.saw_completion;
            let over = self.lp.core.all_complete();
            assert!(idle && over, "volunteer {v} gave up: {report:?}");
        }
    }

    /// Volunteer `v`'s connection breaks, with whatever is in flight.
    fn cut_volunteer(&mut self, v: usize) {
        if let Some(pipe) = &self.ends.pipes[v] {
            pipe.end.cut();
        }
    }

    /// Runs the world to its end under `rng`: `false` if a budget of
    /// steps ran out first — the campaign did not finish, the loop never
    /// may leave, or a volunteer never finished. Ten milliseconds pass
    /// per step; the loop's own timer decides when it sweeps;
    /// `between(world, step)` then runs (a kill, a scrape); then the seed
    /// picks a few moves: a volunteer's turn, the loop serving everything
    /// that reached it in an order the seed shuffles, or — with `cuts`,
    /// one pick in a hundred or so — a volunteer's connection cut. At the
    /// end of every step a loop that may leave does ([`Self::leave`]);
    /// volunteers still out find it gone.
    pub(crate) fn run(
        &mut self,
        rng: &mut impl Rng,
        mut between: impl FnMut(&mut Self, u32),
    ) -> bool {
        const STEP_BUDGET: u32 = 60_000;
        let start = self.now;
        let mut steps = 0;
        while !self.left || self.fleet.running > 0 {
            steps += 1;
            if steps == STEP_BUDGET {
                return false;
            }
            self.now = start + f64::from(steps) * 0.01;
            if !self.left && t(self.now) >= self.lp.next_timer() {
                self.turn(Loop::tick);
            }
            between(self, steps);
            let v = self.ends.pipes.len();
            for _ in 0..rng.gen_range(1..=6) {
                match rng.gen_range(0..v + 3) {
                    i if i < v => self.volunteer_turn(i),
                    i if i == v => {
                        let mut batch = self.pipes.ready();
                        batch.shuffle(rng);
                        self.serve(batch);
                    }
                    _ if self.cuts && rng.gen_range(0..10) == 0 => {
                        self.cut_volunteer(rng.gen_range(0..v))
                    }
                    _ => {}
                }
            }
            if !self.left && self.lp.over(t(self.now)).is_some() {
                self.leave();
            }
        }
        true
    }

    /// [`Self::run`], which must reach the end.
    pub(crate) fn finish(&mut self, rng: &mut impl Rng, between: impl FnMut(&mut Self, u32)) {
        let ended = self.run(rng, between);
        assert!(
            ended,
            "the campaign does not finish, or the loop never may leave"
        );
    }

    /// Slot 0's artifact: every workunit's validated output.
    pub(crate) fn artifact(&self) -> Vec<DockingOutput> {
        let outputs = self.state().outputs().iter().cloned();
        outputs
            .collect::<Option<_>>()
            .expect("every workunit validated")
    }

    /// The end of a run, checked: the artifact is the baseline, and a
    /// journaled loop's wal, its last records committed as at a clean
    /// exit, replays to its live books — campaign state and fair-share
    /// ledger. The wal's bytes (none when it keeps no wal).
    pub(crate) fn assert_the_end(&mut self) -> Vec<u8> {
        assert_eq!(self.artifact(), baseline());
        if !self.server.journaled {
            return Vec::new();
        }
        self.commit();
        let mut wal = self.pipes.disk.clone();
        let (live, replayed) = (&self.lp.core, self.server.core(&mut wal));
        let same = live.slots().iter().zip(replayed.slots());
        assert!(
            same.clone().all(|(l, r)| l.state == r.state)
                && replayed.fair() == live.fair()
                && replayed.cross_quarantine_denials == live.cross_quarantine_denials
                && replayed.share_error() == live.share_error(),
            "the wal does not replay to the live books"
        );
        wal
    }
}

/// One round: the loop serves everything that reached it, in the order
/// it arrived.
impl Pump for World {
    fn pump(&mut self) {
        let batch = self.pipes.ready();
        self.serve(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::Role;
    use crate::fleet::Owed;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The volunteers' connections the loop holds open.
    fn open(net: &World) -> usize {
        let conns = net.lp.conns.values();
        conns.filter(|c| matches!(c.role, Role::Inbound(_))).count()
    }

    /// A volunteer that dies on purpose (`die_after`) takes its
    /// connection with it, as `run_agent` returning closes its socket:
    /// the loop's open inbound connections drop by one, and it need not
    /// wait out its shutdown grace to drain.
    #[test]
    fn a_volunteer_that_dies_hangs_up() {
        let mut net = World::new(Server::tiny());
        net.volunteer(AgentConfig {
            die_after: Some(1),
            ..AgentConfig::new(ADDR, 1)
        });
        loop {
            net.volunteer_turn(0);
            if net.outcome(0).is_some() {
                break;
            }
            net.pump();
        }
        assert_eq!((net.report(0).assignments, open(&net)), (1, 1));
        net.pump();
        assert_eq!(open(&net), 0, "the dead volunteer's pipe is open");
    }

    /// A volunteer told `NoWork` rests as every driver carries a backoff
    /// out: it hangs up first, so the loop holds no connection of its
    /// through the wait, and waking, it dials and says `Hello` afresh.
    #[test]
    fn a_volunteer_told_no_work_rests_with_no_connection() {
        let mut net = World::new(Server::tiny());
        let holders = net.hold_every_replica();
        net.volunteer(AgentConfig::new(ADDR, 1));
        let due = loop {
            net.volunteer_turn(0);
            net.pump();
            if let Owed::Wake(due) = *net.fleet.owed(0) {
                break due;
            }
        };
        assert_eq!(
            open(&net),
            holders.len(),
            "the resting volunteer holds a connection"
        );
        net.now = due.seconds();
        net.volunteer_turn(0);
        assert!(net.ends.dials[0], "waking, the volunteer does not dial");
        net.volunteer_turn(0);
        let mut pipe = net.ends.pipes[0].take().expect("a fresh connection");
        let greeted = matches!(pipe.recv(&mut net), Message::HelloAck { .. });
        assert!(
            greeted,
            "the volunteer said no Hello on its fresh connection"
        );
    }

    /// Twenty volunteers read their `HelloAck`s and ask in one round:
    /// sixteen `RequestWork` frames reach the loop before any reply is
    /// read, and the other four go out as the replies free slots.
    #[test]
    fn twenty_volunteers_asking_at_once_put_sixteen_asks_in_flight() {
        let mut net = World::new(Server::tiny());
        for agent in 1..=20 {
            net.volunteer(AgentConfig::new(ADDR, agent));
        }
        let round = |net: &mut World| {
            (0..20).for_each(|v| net.volunteer_turn(v));
            (0..3).for_each(|_| net.pump());
        };
        // Each ask the loop read drew a workunit's first or second
        // replica, or a rest.
        let asks = |net: &World| {
            let (state, issued) = (net.state(), net.state().server_stats());
            issued.initial_issues + issued.quorum_issues + state.net_stats.backoffs_sent
        };
        // Every volunteer dials and says `Hello` in the first two turns.
        (0..20).for_each(|v| net.volunteer_turn(v));
        round(&mut net);
        assert_eq!(asks(&net), 0);
        round(&mut net);
        assert_eq!(asks(&net), 16, "asks in flight before a reply");
        round(&mut net);
        assert_eq!(asks(&net), 20, "the parked asks never went out");
    }

    /// A frozen pipe: the loop never serves. The volunteer's `Hello`,
    /// sent at 1 s, is a lost connection once the clock reaches 31 s
    /// (`IO_TIMEOUT`, 30 s), and not before: the volunteer hangs up and,
    /// after its backoff (50 ms and its jitter), dials again.
    #[test]
    fn a_frozen_pipe_is_a_lost_connection_after_thirty_seconds() {
        let mut net = World::new(Server::tiny());
        net.volunteer(AgentConfig::new(ADDR, 1));
        net.volunteer_turn(0);
        net.volunteer_turn(0);
        assert_eq!(net.report(0).connections, 1);
        let hung_up = |net: &World| net.pipes.backlog[0][0].far_gone();
        net.now = 30.99;
        net.volunteer_turn(0);
        assert!(!hung_up(&net), "the connection was lost before the timeout");
        net.now = 31.0;
        net.volunteer_turn(0);
        assert!(hung_up(&net), "the connection outlived the timeout");
        net.now = 31.1;
        net.volunteer_turn(0);
        net.volunteer_turn(0);
        assert_eq!(net.report(0).connections, 2, "the volunteer never redialed");
    }

    /// Two volunteers draw the same workunit while its dock is held back:
    /// they share the one dock, each gets its own copy, and the
    /// saboteur's corruption of its copy leaves the honest one's alone,
    /// so with two more honest volunteers the artifact is the baseline.
    /// The tiny campaign issues a workunit's two replicas one after the
    /// other, so the first two asks draw the same workunit.
    #[test]
    fn two_volunteers_share_a_held_dock_and_each_owns_its_copy() {
        let mut net = World::new(Server::tiny());
        for agent in 1..=4 {
            let profile = match agent {
                2 => FaultProfile::saboteur(),
                _ => FaultProfile::none(),
            };
            net.volunteer(AgentConfig {
                profile,
                ..AgentConfig::new(ADDR, agent)
            });
        }
        // The first turn dials everyone, so all four ask in one round.
        net.volunteer_turn(0);
        let key = loop {
            (0..4).for_each(|v| net.volunteer_turn(v));
            net.pump();
            if let Owed::Dock(key) = *net.fleet.owed(1) {
                break key;
            }
        };
        let docks: Vec<_> = net.ends.docks.iter().filter(|d| d.1 == key).collect();
        let [&(asker, _)] = docks[..] else {
            panic!("{} docks of one workunit", docks.len());
        };
        assert_eq!((asker, net.fleet.owed(0)), (0, &Owed::Dock(key)));
        net.volunteer_turn(0);
        assert_eq!(net.report(1).corrupt_faults, 1, "the saboteur's copy");
        net.finish(&mut ChaCha8Rng::seed_from_u64(3), |_, _| {});
        assert!(net.stats().quorum_rejected >= 1, "{:?}", net.stats());
        net.assert_the_end();
    }

    /// A fleet of one keeps no docked output: each dock goes to the one
    /// session that asked for it, and no further.
    #[test]
    fn a_fleet_of_one_keeps_no_docked_output() {
        let mut net = World::new(Server::tiny());
        net.volunteer(AgentConfig::new(ADDR, 1));
        net.finish(&mut ChaCha8Rng::seed_from_u64(1), |net, _| {
            assert_eq!(net.fleet.docked_outputs(), 0, "a docked output kept");
        });
        assert_eq!(net.outcome(0), Some(Outcome::Done));
        assert!(net.report(0).accepted > 1, "{:?}", net.report(0));
        net.assert_the_end();
    }
}
