//! One stepped world for every multi-party test in this crate: N event
//! loops, each journaled or not and each with faults (trust included) of
//! its own, M volunteer [`Session`]s with configs of their own, the
//! in-memory pipes between them and into each loop's ops listener, and
//! one clock. Nothing here touches a socket or the wall clock: `now` is
//! whatever the script or the seed says it is.
//!
//! A script drives it a call at a time — `connect`, `steer`, `pump`,
//! `turn`, `get` — and a seed drives it to the end ([`World::run`]).
//! Either may kill a loop or cut a connection between two turns, or cut
//! a loop's power in the middle of a wal write, and every turn of a loop
//! is held to the same oracles. A journaled loop's disk is a `Vec<u8>`
//! its driver persists batches to. Shared too: the far-end helpers
//! ([`Client`] runs over a socket in `server.rs` as well) and the
//! fixtures the tests open their cores from.

use crate::agent::{self, AgentReport, Input, Session, Step};
use crate::event_loop::{Accept, Conn, Id, Io, Loop, Ready, Role};
use crate::protocol::{self, decode_versioned, encode_with, CampaignParams, Codec, Message};
use crate::registry::{CampaignDef, MultiGrid, ShardBoard};
use crate::shard::{merge_artifacts, ShardSpec};
use crate::state::{GridState, NetStats};
use crate::sys::Event;
use crate::{AgentConfig, FaultProfile, NetCampaign, ServerFaults};
use gridsim::sched::ServerConfig;
use gridsim::SimTime;
use maxdo::DockingOutput;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::OnceLock;

// ---- Fixtures. ----

pub(crate) fn t(seconds: f64) -> SimTime {
    SimTime::new(seconds)
}

/// One shard of `shards`, addressed `shard-0`, `shard-1`, ... (a solo
/// server, like the real one, has no addresses), journaled on `wal`
/// when given one: recovered from it, and its later batches the
/// caller's to persist.
pub(crate) fn open_shard(
    defs: Vec<CampaignDef>,
    (shard_id, shards): (u16, u16),
    faults: ServerFaults,
    wal: Option<&mut Vec<u8>>,
) -> MultiGrid {
    let scheduler = ServerConfig {
        deadline_seconds: 2.0,
        ..ServerConfig::default()
    };
    let spec = ShardSpec { shard_id, shards };
    let (mut grid, _) = match wal {
        Some(wal) => MultiGrid::open_bytes(defs, scheduler, faults, spec, wal),
        None => MultiGrid::open(defs, scheduler, faults, spec, None),
    }
    .unwrap();
    if shards > 1 {
        grid.set_addrs((0..shards).map(|s| format!("shard-{s}")).collect());
    }
    grid
}

/// The tiny campaign's shard `shard_id` of `shards`, unjournaled.
pub(crate) fn shard(shard_id: u16, shards: u16) -> MultiGrid {
    let solo = vec![CampaignDef::default_solo(CampaignParams::tiny())];
    open_shard(solo, (shard_id, shards), ServerFaults::default(), None)
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

pub(crate) fn status(shard: u16, held: &[u64], fresh_backlog: u64, hungry: bool) -> Message {
    Message::ShardStatus {
        shard,
        fresh_backlog,
        outstanding: 0,
        complete: false,
        hungry,
        leases_held: held.to_vec(),
        campaign: 0,
    }
}

/// A core's campaign states, peer boards and wal size.
pub(crate) type Books = (Vec<GridState>, Vec<Vec<u64>>, Option<(u64, u64)>);

/// What a refused frame must leave alone: the books a restart would
/// replay to, the peer picture, and the wal's records and bytes.
pub(crate) fn books(grid: &MultiGrid) -> Books {
    let slots = grid.slots().iter();
    (
        slots.clone().map(|s| s.state.clone()).collect(),
        slots
            .map(|s| {
                let complete = s.board.complete.iter().map(|&c| u64::from(c));
                complete.chain(s.board.backlog.iter().copied()).collect()
            })
            .collect(),
        grid.wal_size(),
    )
}

// ---- Far ends: one helper set over sockets and pipes alike. ----

/// Whatever moves the bytes between a test's far ends and the loops
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
    panic!("the loops never got there");
}

/// The grants of one gossip exchange, lease id and workunits each.
pub(crate) type Grants = Vec<(u64, Vec<u32>)>;

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

    /// One gossip exchange played as a peer shard: the grants before
    /// the closing `StatusAck`, and that ack.
    pub(crate) fn gossip(&mut self, net: &mut dyn Pump, status: Message) -> (Grants, Message) {
        self.send(&status);
        let mut grants = Vec::new();
        loop {
            match self.recv(net) {
                Message::LeaseGrant { lease, wus, .. } => grants.push((lease, wus)),
                ack @ Message::StatusAck { .. } => return (grants, ack),
                other => panic!("unexpected steering reply: {other:?}"),
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

/// One loop's driver over pipes: its listeners' backlogs, the ends it
/// was handed, the dials it asked for, the bytes it wrote, and its disk.
#[derive(Default)]
pub(crate) struct Pipes {
    next_id: Id,
    /// Connections waiting on the task and the ops listener.
    backlog: [VecDeque<End>; 2],
    paused: [bool; 2],
    /// The wire and end of each end the loop holds, in id order.
    held: Vec<(Id, Rc<RefCell<Wire>>, usize)>,
    dials: Vec<u16>,
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

    fn dial(&mut self, peer: u16, _: &str) -> bool {
        self.dials.push(peer);
        true
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

/// What one loop of a world runs, and runs again after a kill.
#[derive(Clone)]
pub(crate) struct Server {
    pub(crate) defs: Vec<CampaignDef>,
    pub(crate) spec: ShardSpec,
    pub(crate) faults: ServerFaults,
    /// Whether it keeps a wal, on its pipes' disk.
    pub(crate) journaled: bool,
    /// Whether it answers scrapes on an ops listener.
    pub(crate) ops: bool,
}

impl Server {
    /// The tiny campaign's shard `shard_id` of `shards` (1: a solo
    /// server), default faults, no wal, no ops listener.
    pub(crate) fn shard(shard_id: u16, shards: u16) -> Self {
        Self {
            defs: vec![CampaignDef::default_solo(CampaignParams::tiny())],
            spec: ShardSpec { shard_id, shards },
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
        let ShardSpec { shard_id, shards } = self.spec;
        let (defs, faults) = (self.defs.clone(), self.faults);
        open_shard(
            defs,
            (shard_id, shards),
            faults,
            self.journaled.then_some(disk),
        )
    }
}

/// What a volunteer's session is owed next.
enum Owed {
    Input(Input),
    /// [`Input::Woke`], once the clock reaches the time.
    WakeAt(f64),
    /// A frame, or the loss, of its open connection.
    Reply,
    Nothing,
}

struct Volunteer {
    session: Session,
    conn: Option<Client<End>>,
    owed: Owed,
    /// The `Redirect`s it heard and declined: the second bounce of an
    /// ask that had followed one already.
    declined: u64,
    outcome: Option<agent::Outcome>,
}

impl Volunteer {
    fn finished(&self) -> bool {
        self.outcome.is_some()
    }
}

/// Loops joined by pipes, indexed by shard id, their volunteers, and
/// the clock. A dial to a shard with a loop here lands in its task
/// listener, and fails once that loop has left; one to any other shard
/// is answered by a peer that accepted and says nothing, whose end
/// waits in `far`. Every turn of a loop is held to two oracles from
/// outside it: bytes left only with its core's records committed, and
/// a `Busy` went out only while the inbound connections left open
/// filled the cap. After every batch served and every restart, no
/// workunit is owned by two shards.
pub(crate) struct World {
    servers: Vec<Server>,
    pub(crate) loops: Vec<Loop<End>>,
    pub(crate) pipes: Vec<Pipes>,
    pub(crate) far: BTreeMap<u16, End>,
    volunteers: Vec<Volunteer>,
    pub(crate) now: f64,
    /// Whether [`Self::run`] cuts connections now and then.
    pub(crate) cuts: bool,
    /// Which loops have left, as the real server exits: every
    /// connection to or from them closed, nothing listening.
    left: Vec<bool>,
    /// Volunteers' dials that found their loop gone: it had left.
    pub(crate) gone_dials: u64,
    /// Power cuts that landed: each in the middle of a wal write.
    pub(crate) power_cuts: u64,
}

impl World {
    /// A world of these servers' loops, started at `now` 1.
    pub(crate) fn new(servers: Vec<Server>) -> Self {
        Self::starting_at(1.0, servers)
    }

    fn starting_at(now: f64, servers: Vec<Server>) -> Self {
        let mut world = Self {
            pipes: servers.iter().map(|_| Pipes::default()).collect(),
            left: vec![false; servers.len()],
            servers,
            loops: Vec::new(),
            far: BTreeMap::new(),
            volunteers: Vec::new(),
            now,
            cuts: false,
            gone_dials: 0,
            power_cuts: 0,
        };
        world.loops = (0..world.servers.len()).map(|a| world.open(a)).collect();
        world
    }

    /// `shards` journaled loops and six volunteers at home round-robin,
    /// two of them flaky: what a seed drives. `max_connections` is each
    /// loop's home volunteers and its peers' steering links, so a
    /// redirected volunteer or a reconnect racing its own close can
    /// find it full.
    pub(crate) fn seeded(seed: u64, shards: u16) -> Self {
        const VOLUNTEERS: u16 = 6;
        let max_connections = usize::from(VOLUNTEERS.div_ceil(shards) + shards - 1);
        let servers = (0..shards)
            .map(|a| Server {
                faults: ServerFaults {
                    max_connections,
                    ..ServerFaults::default()
                },
                ..Server::shard(a, shards).journaled()
            })
            .collect();
        let mut world = Self::starting_at(0.0, servers);
        world.cuts = true;
        for i in 0..VOLUNTEERS {
            let profile = match i {
                0 | 1 => FaultProfile::flaky(),
                _ => FaultProfile::none(),
            };
            world.volunteer(AgentConfig {
                seed,
                profile,
                ..AgentConfig::new(format!("shard-{}", i % shards), u64::from(i) + 1)
            });
        }
        world
    }

    /// Loop `a`, its core opened from its disk, started now.
    fn open(&mut self, a: usize) -> Loop<End> {
        let server = &self.servers[a];
        let core = server.core(&mut self.pipes[a].disk);
        Loop::new(core, server.faults, 50, server.ops, t(self.now))
    }

    /// Loop `a`'s open batch goes to its disk, as its driver commits
    /// before a reply leaves or at a clean exit.
    pub(crate) fn commit(&mut self, a: usize) {
        assert!(
            self.loops[a].commit(&mut self.pipes[a]),
            "loop {a} could not commit"
        );
    }

    /// Loop `a`'s wal, as its disk holds it: what it committed.
    pub(crate) fn wal(&self, a: usize) -> &[u8] {
        assert!(self.servers[a].journaled, "loop {a} keeps no wal");
        &self.pipes[a].disk
    }

    pub(crate) fn stats(&self, a: usize) -> NetStats {
        self.state(a).net_stats
    }

    pub(crate) fn state(&self, a: usize) -> &GridState {
        &self.loops[a].core.slots()[0].state
    }

    pub(crate) fn board(&self, a: usize) -> &ShardBoard {
        &self.loops[a].core.slots()[0].board
    }

    /// A volunteer's (or a peer's) connection to shard `a`.
    pub(crate) fn connect(&mut self, a: usize) -> Client<End> {
        Client::new(self.pipes[a].connect(false))
    }

    /// One turn of loop `a` at `now`, the dials it asks for answered,
    /// held to the oracles.
    pub(crate) fn turn(&mut self, a: usize, f: impl FnOnce(&mut Loop<End>, &mut Pipes, SimTime)) {
        let (sent, rejected) = (self.pipes[a].sent.get(), self.loops[a].rejected);
        f(&mut self.loops[a], &mut self.pipes[a], t(self.now));
        for peer in std::mem::take(&mut self.pipes[a].dials) {
            let p = usize::from(peer);
            let dialing = match self.pipes.get_mut(p) {
                Some(_) if self.left[p] => None,
                Some(pipes) => Some(pipes.connect(false)),
                None => {
                    let (dialing, accepting) = End::pair();
                    self.far.insert(peer, accepting);
                    Some(dialing)
                }
            };
            let link = dialing.map(|end| self.pipes[a].hold(end));
            self.loops[a].dialed(&mut self.pipes[a], t(self.now), peer, link);
        }
        let lp = &self.loops[a];
        if self.pipes[a].sent.get() > sent {
            assert_eq!(
                lp.core.uncommitted(),
                0,
                "loop {a} wrote ahead of its records"
            );
        }
        if lp.rejected > rejected {
            let inbound = |c: &&Conn<End>| matches!(c.role, Role::Inbound(_));
            let open = lp.conns.values().filter(inbound).count();
            let cap = lp.faults.max_connections;
            assert_eq!(
                open, cap,
                "loop {a} turned away a connection it had room for"
            );
        }
        if lp.wal_error.is_some() {
            // The power went mid-write, and the loop with it: it comes
            // back from whatever landed, cut back to its last whole
            // record.
            let whole = self.pipes[a].whole.take().expect("a power cut");
            self.kill_and_reopen(a);
            assert_eq!(
                self.pipes[a].disk.len(),
                whole,
                "loop {a}'s wal was not cut back to its last whole record"
            );
            self.power_cuts += 1;
        }
    }

    /// Loop `a` serves `batch`, if it holds anything.
    pub(crate) fn serve(&mut self, a: usize, batch: Vec<Ready>) {
        if !batch.is_empty() {
            self.turn(a, |lp, pipes, now| lp.serve(pipes, now, batch).unwrap());
            self.assert_nothing_is_owned_twice();
        }
    }

    /// Loop `a`'s steering tick.
    pub(crate) fn steer(&mut self, a: usize) {
        self.turn(a, Loop::steer_tick);
    }

    /// Loop `a`'s first own steering link (by id, not by the
    /// connection table's hash order) is cut.
    pub(crate) fn cut_link(&mut self, a: usize) {
        let links = self.loops[a].conns.iter();
        let links = links.filter(|(_, c)| matches!(c.role, Role::Link(_)));
        if let Some((_, link)) = links.min_by_key(|&(&id, _)| id) {
            link.stream.cut();
        }
    }

    /// Loop `a` dies between two turns — a `kill -9`, or a power cut
    /// that lands between two writes — and comes back from its disk: the
    /// records it had not committed die with it, and so does every
    /// connection to or from it, those waiting in its listeners'
    /// backlogs too.
    pub(crate) fn kill_and_reopen(&mut self, a: usize) {
        self.pipes[a].restart();
        self.loops[a] = self.open(a);
        self.left[a] = false;
        self.assert_nothing_is_owned_twice();
    }

    /// Loop `a` leaves, as the real server exits once its loop says it
    /// may: its last records committed, every connection to or from it
    /// closed, those waiting in its listeners' backlogs too, and later
    /// dials to it fail. Its core stays, for the end of the run to
    /// check. A test also uses it for a server that is down until
    /// [`Self::kill_and_reopen`] restarts it.
    pub(crate) fn leave(&mut self, a: usize) {
        self.commit(a);
        self.loops[a].conns.clear();
        self.pipes[a].restart();
        self.left[a] = true;
    }

    /// Loop `a` loses power during its next wal write, which `draw`
    /// tears ([`Pipes`]): it dies there, before a byte of the replies
    /// behind it leaves, and comes back from its disk.
    pub(crate) fn cut_power(&mut self, a: usize, draw: u64) {
        self.pipes[a].power_cut = Some(draw);
    }

    /// One request on loop `a`'s ops listener, answered within a round:
    /// the whole response.
    pub(crate) fn scrape(&mut self, a: usize, request: &str) -> String {
        let mut far = self.pipes[a].connect(true);
        far.write_all(request.as_bytes()).unwrap();
        pump_until(self, |_| far.far_gone());
        let mut raw = String::new();
        far.read_to_string(&mut raw).unwrap();
        raw
    }

    /// `GET path` on loop `a`'s ops listener: the status and the body.
    pub(crate) fn get(&mut self, a: usize, path: &str) -> (u16, String) {
        let raw = self.scrape(a, &format!("GET {path} HTTP/1.1\r\nHost: ops\r\n\r\n"));
        let (head, body) = raw.split_once("\r\n\r\n").expect("a whole response");
        (head[9..12].parse().unwrap(), body.into())
    }

    /// Holders on loop `a` take every replica it has to issue — agents
    /// 100, 101, ... until one draws nothing — so the next ask draws
    /// `NoWork`. Each holder, with the reports it owes.
    pub(crate) fn hold_every_replica(&mut self, a: usize) -> Vec<(Client<End>, Vec<Message>)> {
        let mut holders = Vec::new();
        loop {
            let mut holder = self.connect(a).hello(100 + holders.len() as u64, self);
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
        self.volunteers.push(Volunteer {
            session: Session::new(config),
            conn: None,
            owed: Owed::Input(Input::Woke),
            declined: 0,
            outcome: None,
        });
    }

    /// Volunteer `v`'s counters.
    pub(crate) fn report(&self, v: usize) -> &AgentReport {
        &self.volunteers[v].session.report
    }

    /// How volunteer `v` finished, once it has.
    pub(crate) fn outcome(&self, v: usize) -> Option<agent::Outcome> {
        self.volunteers[v].outcome
    }

    /// The `Redirect`s volunteer `v` heard and did not follow.
    pub(crate) fn declined(&self, v: usize) -> u64 {
        self.volunteers[v].declined
    }

    /// Volunteer `v` takes its turn: one input to its session, if one
    /// is due.
    fn volunteer_turn(&mut self, v: usize) {
        let vol = &mut self.volunteers[v];
        let input = match std::mem::replace(&mut vol.owed, Owed::Nothing) {
            Owed::Input(input) => input,
            Owed::WakeAt(due) if due <= self.now => Input::Woke,
            Owed::Reply => {
                let conn = vol
                    .conn
                    .as_mut()
                    .expect("a reply is owed on an open connection");
                match conn.poll() {
                    Some(reply) => Input::Frame(reply),
                    None if conn.end.far_gone() => {
                        vol.conn = None;
                        Input::Lost
                    }
                    None => {
                        vol.owed = Owed::Reply;
                        return;
                    }
                }
            }
            not_yet => {
                vol.owed = not_yet;
                return;
            }
        };
        let redirect = matches!(input, Input::Frame(Message::Redirect { .. }));
        let followed = vol.session.report.redirects_followed;
        let step = vol.session.step(input);
        let declined = vol.session.report.redirects_followed == followed;
        vol.declined += u64::from(redirect && declined);
        self.carry_out(v, step);
    }

    /// Carries out one step of volunteer `v`'s session. A dial finds
    /// the loop whose shard the address names, and fails if it left.
    fn carry_out(&mut self, v: usize, step: Step) {
        let vol = &mut self.volunteers[v];
        let mut send = |msg: &Message| match &mut vol.conn {
            Some(conn) => {
                conn.send(msg);
                Owed::Reply
            }
            None => Owed::Input(Input::Lost),
        };
        let owed = match step {
            Step::Dial(addr) => {
                let named = |a: &usize| format!("shard-{a}") == addr;
                let a = (0..self.loops.len()).find(named).expect("a known address");
                if self.left[a] {
                    self.gone_dials += 1;
                    Owed::Input(Input::ConnectFailed)
                } else {
                    vol.conn = Some(Client::new(self.pipes[a].connect(false)));
                    Owed::Input(Input::Connected)
                }
            }
            Step::Send(msg) => send(&msg),
            Step::Ask => send(&Message::RequestWork),
            Step::Compute { workunit, .. } => {
                Owed::Input(Input::Computed(baseline()[workunit as usize].clone()))
            }
            Step::Wait(pause) => Owed::WakeAt(self.now + pause.as_secs_f64()),
            Step::Bye => {
                if let Some(mut conn) = vol.conn.take() {
                    conn.send(&Message::Bye);
                }
                Owed::Input(Input::Lost)
            }
            Step::Finished(outcome) => {
                // Giving up is a session's answer to a home gone before
                // it got any work or word of the end, and only the end
                // of the campaign may take a home away.
                let report = &vol.session.report;
                let idle = report.assignments == 0 && !report.saw_completion;
                let over = self.loops.iter().all(|l| l.core.all_complete());
                assert!(
                    outcome == agent::Outcome::Done || (idle && over),
                    "volunteer {v} gave up: {report:?}"
                );
                vol.outcome = Some(outcome);
                // `run_agent` returns and its socket closes with it: a
                // volunteer that dies on purpose hangs up mid-workunit.
                vol.conn = None;
                Owed::Nothing
            }
        };
        vol.owed = owed;
    }

    /// Volunteer `v`'s connection is cut.
    fn cut_volunteer(&mut self, v: usize) {
        let vol = &mut self.volunteers[v];
        if vol.conn.take().is_some() && matches!(vol.owed, Owed::Reply) {
            vol.owed = Owed::Input(Input::Lost);
        }
    }

    /// A workunit changes shards only on a frame (a grant heard, a
    /// grant adopted) or a replay.
    fn assert_nothing_is_owned_twice(&self) {
        let Some(first) = self.loops.first() else {
            return;
        };
        for (s, slot) in first.core.slots().iter().enumerate() {
            let mut owner = vec![None; slot.campaign.len()];
            for (a, lp) in self.loops.iter().enumerate() {
                let core = lp.core.slots()[s].state.core();
                for (wu, owner) in (0..).zip(&mut owner) {
                    if core.owns(wu) {
                        let other = owner.replace(a);
                        assert_eq!(
                            other, None,
                            "workunit {wu} owned by a second shard, {a}, at {}",
                            self.now
                        );
                    }
                }
            }
        }
    }

    /// Runs the world to its end under `rng`: `false` if a budget of
    /// steps ran out first — the campaign did not finish, a loop never
    /// may leave, or a volunteer never finished. Ten milliseconds pass
    /// per step; each loop's own timers decide when it sweeps and
    /// steers; `between(world, step)` then runs (a kill, a scrape);
    /// then the seed picks a few moves: a volunteer's turn, a loop
    /// serving everything that reached it in an order the seed
    /// shuffles, or — with `cuts`, one pick in a hundred — a connection
    /// cut. At the end of every step a loop that may leave does
    /// ([`Self::leave`]); volunteers still out find it gone.
    pub(crate) fn run(
        &mut self,
        rng: &mut impl Rng,
        mut between: impl FnMut(&mut Self, u32),
    ) -> bool {
        const STEP_BUDGET: u32 = 60_000;
        let (start, n) = (self.now, self.loops.len());
        let mut steps = 0;
        while self.left.contains(&false) || !self.volunteers.iter().all(Volunteer::finished) {
            steps += 1;
            if steps == STEP_BUDGET {
                return false;
            }
            self.now = start + f64::from(steps) * 0.01;
            for a in 0..n {
                if !self.left[a] && t(self.now) >= self.loops[a].next_timer() {
                    self.turn(a, Loop::tick);
                }
            }
            between(self, steps);
            let v = self.volunteers.len();
            for _ in 0..rng.gen_range(1..=6) {
                match rng.gen_range(0..v + n + 2) {
                    i if i < v => self.volunteer_turn(i),
                    i if i < v + n => {
                        let mut batch = self.pipes[i - v].ready();
                        batch.shuffle(rng);
                        self.serve(i - v, batch);
                    }
                    _ if self.cuts && rng.gen_range(0..10) == 0 => match rng.gen_range(0..v + n) {
                        i if i < v => self.cut_volunteer(i),
                        i => self.cut_link(i - v),
                    },
                    _ => {}
                }
            }
            for a in 0..n {
                if !self.left[a] && self.loops[a].over(t(self.now)).is_some() {
                    self.leave(a);
                }
            }
        }
        true
    }

    /// [`Self::run`], which must reach the end.
    pub(crate) fn finish(&mut self, rng: &mut impl Rng, between: impl FnMut(&mut Self, u32)) {
        let ended = self.run(rng, between);
        assert!(
            ended,
            "the campaign does not finish, or a loop never may leave"
        );
    }

    /// Slot 0's outputs, merged across the loops.
    pub(crate) fn merged(&self) -> Vec<DockingOutput> {
        let parts: Vec<_> = self
            .loops
            .iter()
            .map(|l| l.core.slots()[0].state.outputs().to_vec())
            .collect();
        merge_artifacts(&parts).unwrap()
    }

    /// The end of a run, checked: the merged artifact is the baseline,
    /// and each journaled loop's wal, its last records committed as at
    /// a clean exit, replays to its live books — campaign state, peer
    /// board and fair-share ledger. Each wal's bytes.
    pub(crate) fn assert_the_end(&mut self) -> Vec<Vec<u8>> {
        assert_eq!(self.merged(), baseline());
        let journaled: Vec<usize> = (0..self.loops.len())
            .filter(|&a| self.servers[a].journaled)
            .collect();
        journaled
            .into_iter()
            .map(|a| {
                self.commit(a);
                let mut wal = self.pipes[a].disk.clone();
                let (live, replayed) = (&self.loops[a].core, self.servers[a].core(&mut wal));
                let same = live.slots().iter().zip(replayed.slots()).all(|(l, r)| {
                    let mut state = l.state.clone();
                    // The one counter that is advisory and restarts from zero.
                    state.net_stats.shard_redirects = 0;
                    state == r.state && l.board.complete == r.board.complete
                });
                assert!(
                    same && replayed.fair() == live.fair()
                        && replayed.cross_quarantine_denials == live.cross_quarantine_denials
                        && replayed.share_error() == live.share_error(),
                    "core {a}'s wal does not replay to its live books"
                );
                wal
            })
            .collect()
    }
}

/// One round: each loop serves everything that reached it, in the
/// order it arrived.
impl Pump for World {
    fn pump(&mut self) {
        for a in 0..self.loops.len() {
            let batch = self.pipes[a].ready();
            self.serve(a, batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A volunteer that dies on purpose (`die_after`) takes its
    /// connection with it, as `run_agent` returning closes its socket:
    /// the loop's open inbound connections drop by one, and it need not
    /// wait out its shutdown grace to drain.
    #[test]
    fn a_volunteer_that_dies_hangs_up() {
        let mut net = World::new(vec![Server::shard(0, 1)]);
        net.volunteer(AgentConfig {
            die_after: Some(1),
            ..AgentConfig::new("shard-0", 1)
        });
        loop {
            net.volunteer_turn(0);
            if net.outcome(0).is_some() {
                break;
            }
            net.pump();
        }
        let open = |net: &World| net.loops[0].accepted_active;
        assert_eq!((net.report(0).assignments, open(&net)), (1, 1));
        net.pump();
        assert_eq!(open(&net), 0, "the dead volunteer's pipe is open");
    }

    /// A volunteer told `NoWork` rests as every driver carries a backoff
    /// out: it hangs up first, so the loop holds no connection of its
    /// through the wait, and waking, it dials and says `Hello` afresh.
    #[test]
    fn a_volunteer_told_no_work_rests_with_no_connection() {
        let mut net = World::new(vec![Server::shard(0, 1)]);
        let holders = net.hold_every_replica(0);
        net.volunteer(AgentConfig::new("shard-0", 1));
        let due = loop {
            if let Owed::WakeAt(due) = net.volunteers[0].owed {
                break due;
            }
            net.volunteer_turn(0);
            net.pump();
        };
        net.pump();
        assert_eq!(
            net.loops[0].accepted_active,
            holders.len(),
            "the resting volunteer holds a connection"
        );
        net.now = due;
        net.volunteer_turn(0);
        let dialed = matches!(net.volunteers[0].owed, Owed::Input(Input::Connected));
        assert!(dialed, "waking, the volunteer does not dial");
        net.volunteer_turn(0);
        let mut conn = net.volunteers[0].conn.take().expect("a fresh connection");
        let greeted = matches!(conn.recv(&mut net), Message::HelloAck { .. });
        assert!(
            greeted,
            "the volunteer said no Hello on its fresh connection"
        );
    }
}
