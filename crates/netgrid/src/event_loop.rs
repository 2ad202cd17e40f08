//! The server's event loop with the I/O and the clock taken out: the
//! ordering rules between bytes, timers and the core, kept once.
//!
//! A [`Loop`] owns the [`MultiGrid`] by value, every connection's
//! buffers, role and interest, the steering links and the timers, on the
//! core's [`SimTime`] axis. It is told what happened and when — a batch
//! of ready connections and listeners ([`Loop::serve`]), a tick
//! ([`Loop::tick`]), a dial's answer ([`Loop::dialed`]) — and asks its
//! driver ([`Io`]) to accept, watch, forget, pause, resume and dial.
//! Each connection's bytes go straight between its stream `S` and its
//! own buffers. Two drivers run it: [`crate::server`] over sockets and
//! the wall clock, and the tests over in-memory pipes with `now` a
//! literal or a step counter — so every seeded history runs the rules
//! that ship.

use crate::agent;
use crate::faults::ServerFaults;
use crate::ops;
use crate::protocol::{decode_versioned, encode_with, Codec, DecodeError, Message};
use crate::registry::{Caller, MultiGrid};
use crate::shard::{ShardSpec, STEER_INTERVAL_MS};
use crate::sys::{self, Event, ReadBuf};
use gridsim::SimTime;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::time::Duration;
use telemetry::Event as Telemetry;

/// How long a finished server waits at most for its volunteers, so an
/// open, silent socket cannot hold it for ever. It outlasts
/// [`agent::MAX_REST`], the longest a volunteer sent off to rest waits
/// before it asks again — and hears `campaign_complete` instead of
/// finding a dead port and burning its reconnect budget. Peers are not
/// waited on by the clock ([`MultiGrid::may_leave`]).
pub(crate) const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);
const _: () = assert!(SHUTDOWN_GRACE.as_millis() > agent::MAX_REST.as_millis());

/// The rest a `Busy` brush-off suggests, ms: a fixed hint, which the
/// volunteer rests as said ([`crate::agent`]).
const BUSY_RETRY_MS: u64 = 80;

/// A connection's name, given by the driver: the fd on sockets.
pub(crate) type Id = i32;

/// What the loop asks of the driver that carries its bytes.
pub(crate) trait Io<S> {
    /// The next connection waiting on the task listener, or on the ops
    /// listener when `ops`. An error is the listener itself broken.
    fn accept(&mut self, ops: bool) -> io::Result<Accept<S>>;
    /// Files connection `id` under `(read, write)` interest; `filed` is
    /// what it was filed under, `None` the first time. `false` if it
    /// could not be: the loop closes it.
    fn watch(&mut self, id: Id, filed: Option<(bool, bool)>, wanted: (bool, bool)) -> bool;
    /// Stops watching connection `id`, which is about to close.
    fn forget(&mut self, id: Id);
    /// Turns a listener's accepting on or off.
    fn listen(&mut self, ops: bool, on: bool) -> io::Result<()>;
    /// Starts a connection to `peer` at `addr`, answered through
    /// [`Loop::dialed`]; `false` if it could not be started.
    fn dial(&mut self, peer: u16, addr: &str) -> bool;
}

/// What an `accept` found.
pub(crate) enum Accept<S> {
    /// A connection, and the name the driver gave it.
    Conn(Id, S),
    /// Nothing waiting.
    Empty,
    /// Out of descriptors or buffers: the backlog stays, and stays
    /// ready, until something is closed.
    Exhausted,
}

/// One entry of a batch the driver found ready.
pub(crate) enum Ready {
    /// A connection: its readiness, `fd` its [`Id`].
    Conn(Event),
    /// The task listener, or the ops listener when `true`.
    Listener(bool),
}

/// What a connection is to the loop — the one thing that differs
/// between the kinds of connection sharing the read/dispatch/flush
/// machine.
pub(crate) enum Role {
    /// Accepted on the task listener: a volunteer or a peer's steering
    /// link — which, and who, is the core's to remember.
    Inbound(Caller),
    /// Turned away at the connection limit: it gets a `Busy` frame and
    /// a close, and was telemetered as *rejected*, so it neither holds
    /// a limit slot nor emits a `ConnectionClosed` event.
    Brushoff,
    /// This shard's steering link to this peer.
    Link(u16),
    /// An ops scrape: accepted at this time or, once its response is
    /// queued, last seen taking bytes at it.
    Scrape(SimTime),
}

/// One live connection's state: buffered bytes in each direction and
/// what closing it takes. The implicit state machine is *reading header
/// → reading payload → handing the frame over → writing reply* — the
/// first two are simply "does `read_buf` decode yet", the last is "is
/// `write_buf` drained yet".
pub(crate) struct Conn<S> {
    pub(crate) stream: S,
    pub(crate) role: Role,
    /// Bytes received but not yet decoded into frames.
    pub(crate) read_buf: ReadBuf,
    /// Encoded replies not yet written.
    pub(crate) write_buf: Vec<u8>,
    /// How much of `write_buf` has been written so far.
    write_pos: usize,
    /// Frames decoded on this connection (for close telemetry).
    pub(crate) frames: u64,
    /// Set when the connection should close once `write_buf` drains,
    /// carrying the close reason for telemetry.
    pub(crate) closing: Option<&'static str>,
    /// The interest it is filed under — `None` until it first is — so
    /// the driver only hears of a change.
    interest: Option<(bool, bool)>,
}

impl<S> Conn<S> {
    pub(crate) fn new(stream: S, role: Role) -> Self {
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

    fn flushed(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    /// The interest this connection wants right now: reads while the
    /// dialogue is open, writes only while bytes are queued.
    fn wanted_interest(&self) -> (bool, bool) {
        (self.closing.is_none(), !self.flushed())
    }
}

/// This shard's steering link to one peer.
#[derive(Clone, Copy)]
pub(crate) enum Link {
    /// No connection; the next steering tick dials.
    Down,
    /// Dialed; the answer comes through [`Loop::dialed`].
    Dialing,
    /// Connected: the [`Role::Link`] connection filed under this id.
    Up(Id),
}

/// The server's event loop: every connection, every timer and the core
/// they feed — which makes every decision — owned by value and stepped
/// by one driver.
pub(crate) struct Loop<S> {
    pub(crate) core: MultiGrid,
    pub(crate) conns: HashMap<Id, Conn<S>>,
    /// The steering link to each shard, indexed by shard id (this
    /// shard's own entry stays `Down`).
    pub(crate) links: Vec<Link>,
    /// Listeners (task, ops) whose accepting is off until the next
    /// sweep tick because an `accept` found resources exhausted. Left
    /// on, a backlog that cannot be accepted would make every batch a
    /// failed `accept`.
    pub(crate) accept_paused: [bool; 2],
    ops_listener: bool,
    pub(crate) faults: ServerFaults,
    sweep_seconds: f64,
    next_sweep: SimTime,
    next_steer: SimTime,
    /// When the run started: wall seconds are counted from here.
    started: SimTime,
    /// When the core was first seen done.
    done_since: Option<SimTime>,
    /// The run's wall seconds, once the server may leave.
    left_after: Option<f64>,
    /// Connections accepted over the run.
    pub(crate) connections: u64,
    /// Connections turned away at the limit.
    pub(crate) rejected: u64,
    /// Live [`Role::Inbound`] connections, against
    /// `faults.max_connections`.
    pub(crate) accepted_active: usize,
}

impl<S: Read + Write> Loop<S> {
    /// A loop over `core` started at `now`: its first sweep and
    /// steering ticks come due one interval later. `ops_listener` says
    /// whether scrapes are served (and so lingered for at the end).
    pub(crate) fn new(
        core: MultiGrid,
        faults: ServerFaults,
        sweep_ms: u64,
        ops_listener: bool,
        now: SimTime,
    ) -> Self {
        let sweep_seconds = Duration::from_millis(sweep_ms.max(1)).as_secs_f64();
        Self {
            links: vec![Link::Down; usize::from(core.spec().shards)],
            core,
            conns: HashMap::new(),
            accept_paused: [false; 2],
            ops_listener,
            faults,
            sweep_seconds,
            next_sweep: now.after(sweep_seconds),
            next_steer: now.after(STEER_INTERVAL_MS as f64 / 1e3),
            started: now,
            done_since: None,
            left_after: None,
            connections: 0,
            rejected: 0,
            accepted_active: 0,
        }
    }

    /// When the next timer comes due.
    pub(crate) fn next_timer(&self) -> SimTime {
        self.next_sweep.min(self.next_steer)
    }

    /// Fires the timers due at `now`.
    pub(crate) fn tick(&mut self, io: &mut impl Io<S>, now: SimTime) {
        if now >= self.next_sweep {
            self.sweep_tick(io, now);
            self.next_sweep = now.after(self.sweep_seconds);
        }
        if now >= self.next_steer {
            self.steer_tick(io, now);
            self.next_steer = now.after(STEER_INTERVAL_MS as f64 / 1e3);
        }
    }

    /// The run's wall seconds once it is over at `now`: from the start
    /// until the server may leave. A done core keeps answering
    /// `campaign_complete`, listener open, until a volunteer has heard
    /// it, every one said Bye and every one it sent off to rest has had
    /// its rest out ([`MultiGrid::sent_to_rest`]) — or the grace ran out — and
    /// every peer has heard it: a shard finishes on gossip, so its
    /// volunteers may all be asleep with their sockets closed. The ops
    /// endpoint lingers [`ops::LINGER`] past that, outside the figure
    /// returned.
    pub(crate) fn over(&mut self, now: SimTime) -> Option<f64> {
        if !self.core.done() {
            return None;
        }
        let since = now.seconds() - self.done_since.get_or_insert(now).seconds();
        let volunteer =
            |c: &Conn<S>| matches!(&c.role, Role::Inbound(caller) if caller.shard.is_none());
        let rested = now >= self.core.rest_until;
        let drained = self.core.told_done && rested && !self.conns.values().any(volunteer);
        let drained = drained || since > SHUTDOWN_GRACE.as_secs_f64();
        if self.left_after.is_none() && drained && self.core.may_leave() {
            self.left_after = Some(now.seconds() - self.started.seconds());
        }
        let wall = self.left_after?;
        (!self.ops_listener || since > ops::LINGER.as_secs_f64()).then_some(wall)
    }

    /// Serves one batch of readiness at `now`: every connection first,
    /// the listeners last. A level-triggered driver can report a
    /// listener *ahead* of a later connection event, and one batch can
    /// hold a holder's `Bye` (or EOF) behind the listener its successor
    /// waits on. Accepting in batch order would count the successor
    /// against `max_connections` while the holder still filled the
    /// slot, and brush it off with `Busy`. Every connection is read
    /// before any is settled, so the first write commits the whole
    /// batch's records: one `fdatasync`.
    pub(crate) fn serve(
        &mut self,
        io: &mut impl Io<S>,
        now: SimTime,
        batch: impl IntoIterator<Item = Ready>,
    ) -> io::Result<()> {
        let mut accept = [false; 2];
        let mut served = Vec::new();
        for ready in batch {
            match ready {
                Ready::Listener(ops) => accept[usize::from(ops)] = true,
                Ready::Conn(ev) => {
                    if let Some(conn) = self.advance_conn(now, ev) {
                        served.push((ev.fd, conn));
                    }
                }
            }
        }
        for (id, conn) in served {
            self.settle(io, id, conn);
        }
        for ops in [false, true] {
            if accept[usize::from(ops)] {
                self.accept_ready(io, now, ops)?;
            }
        }
        Ok(())
    }

    /// A dial of `peer` answered: a connection becomes the peer's link,
    /// a failure leaves it `Down` for the next steering tick and is the
    /// core's to judge.
    pub(crate) fn dialed(&mut self, io: &mut impl Io<S>, peer: u16, conn: Option<(Id, S)>) {
        let p = usize::from(peer);
        self.links[p] = Link::Down;
        let Some((id, stream)) = conn else {
            self.core.dial_failed(peer);
            return;
        };
        self.links[p] = Link::Up(id);
        self.settle(io, id, Conn::new(stream, Role::Link(peer)));
    }

    /// One sweep tick: re-arm listeners an exhausted `accept` paused,
    /// have the core expire deadlines, and close scrapes that have sat
    /// past the idle cap.
    pub(crate) fn sweep_tick(&mut self, io: &mut impl Io<S>, now: SimTime) {
        for ops in [false, true] {
            let paused = &mut self.accept_paused[usize::from(ops)];
            if *paused {
                // Stays paused, for the next tick to retry, if it fails.
                *paused = io.listen(ops, true).is_err();
            }
        }
        self.core.sweep(now);
        if self.ops_listener {
            let cap = ops::IDLE_CAP.as_secs_f64();
            let idle: Vec<Id> = self
                .conns
                .iter()
                .filter(
                    |(_, c)| matches!(c.role, Role::Scrape(t) if now.seconds() - t.seconds() > cap),
                )
                .map(|(&id, _)| id)
                .collect();
            for id in idle {
                self.hang_up(io, id, "idle");
            }
        }
    }

    /// One steering tick: tell every peer this shard's load picture on
    /// each campaign, over the link kept open to it. A peer that is
    /// down costs one dial per tick; one that stopped answering has its
    /// link recycled once a status has waited
    /// [`crate::shard::STEER_TIMEOUT_MS`].
    /// Steering rides the same listener as agent traffic, so no extra
    /// port is needed.
    pub(crate) fn steer_tick(&mut self, io: &mut impl Io<S>, now: SimTime) {
        self.core.note_demand();
        let ShardSpec { shard_id, shards } = self.core.spec();
        for peer in (0..shards).filter(|&p| p != shard_id) {
            let p = usize::from(peer);
            if let (Link::Up(id), true) = (self.links[p], self.core.link_stalled(now, peer)) {
                self.hang_up(io, id, "timeout");
            }
            match self.links[p] {
                Link::Down => {
                    if io.dial(peer, self.core.addr(peer)) {
                        self.links[p] = Link::Dialing;
                    }
                }
                Link::Dialing => {}
                Link::Up(id) => {
                    if let Some(mut conn) = self.conns.remove(&id) {
                        self.core.send_statuses(now, peer, &mut conn.write_buf);
                        self.settle(io, id, conn);
                    }
                }
            }
        }
    }

    /// Drains a listener: accept every pending connection. On the task
    /// listener anything over the limit is brushed off with a `Busy`
    /// frame; on the ops listener every connection is one scrape. An
    /// exhausted `accept` pauses the listener until the next sweep tick,
    /// and only a broken listener ends the server.
    fn accept_ready(&mut self, io: &mut impl Io<S>, now: SimTime, ops: bool) -> io::Result<()> {
        loop {
            let (id, stream) = match io.accept(ops)? {
                Accept::Conn(id, stream) => (id, stream),
                Accept::Empty => return Ok(()),
                Accept::Exhausted => {
                    io.listen(ops, false)?;
                    self.accept_paused[usize::from(ops)] = true;
                    return Ok(());
                }
            };
            if ops {
                // A scraper sends its request with the connect, so it is
                // usually readable already: answered here, the scrape
                // never costs a registration.
                let mut conn = Conn::new(stream, Role::Scrape(now));
                self.read_and_dispatch(now, &mut conn);
                self.settle(io, id, conn);
                continue;
            }
            let limit = self.faults.max_connections;
            if limit > 0 && self.accepted_active >= limit {
                // Turned away before any frame is read: counted (and
                // telemetered) as a rejection, never as an accepted
                // connection.
                self.rejected += 1;
                self.core.sent_to_rest(now);
                let retry_after_ms = BUSY_RETRY_MS;
                telemetry::emit(None, || Telemetry::ConnectionRejected { retry_after_ms });
                let mut conn = Conn::new(stream, Role::Brushoff);
                let busy = encode_with(&Message::Busy { retry_after_ms }, Codec);
                conn.write_buf.extend_from_slice(&busy);
                conn.closing = Some("busy");
                self.settle(io, id, conn);
                continue;
            }
            self.connections += 1;
            self.accepted_active += 1;
            self.settle(io, id, Conn::new(stream, Role::Inbound(Caller::default())));
        }
    }

    /// Advances one connection's state machine for a readiness event:
    /// read what it holds and hand every complete frame to the core;
    /// the connection comes back, out of `conns`, to be settled.
    fn advance_conn(&mut self, now: SimTime, ev: Event) -> Option<Conn<S>> {
        let mut conn = self.conns.remove(&ev.fd)?;
        if ev.readable || ev.hangup {
            self.read_and_dispatch(now, &mut conn);
        }
        if ev.hangup && conn.closing.is_none() {
            // Error/hangup with nothing left to read: the peer is gone,
            // and with it anyone to flush to.
            conn.closing = Some("eof");
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        if let (true, Role::Scrape(progress)) = (ev.writable, &mut conn.role) {
            *progress = now;
        }
        Some(conn)
    }

    /// Commits, flushes queued replies, then either retires a connection
    /// that is finished (a brush-off whose `Busy` frame was taken whole
    /// is, before it was ever filed) or files it under the interest it
    /// now wants.
    fn settle(&mut self, io: &mut impl Io<S>, id: Id, mut conn: Conn<S>) {
        if !conn.flushed() {
            self.core.commit();
        }
        if self.flush(&mut conn).is_err() {
            conn.closing.get_or_insert("io");
            conn.write_buf.clear();
            conn.write_pos = 0;
        }
        let wanted = conn.wanted_interest();
        let filed = match conn.interest {
            _ if conn.closing.is_some() && conn.flushed() => false,
            Some(filed) if filed == wanted => true,
            filed => io.watch(id, filed, wanted),
        };
        if filed {
            conn.interest = Some(wanted);
            self.conns.insert(id, conn);
        } else {
            if conn.interest.is_some() {
                io.forget(id);
            }
            conn.closing.get_or_insert("io");
            self.retire(conn);
        }
    }

    /// Writes as much of `conn`'s queued replies as its stream takes;
    /// `Ok(true)` when all of it went. The one place a byte leaves the
    /// loop, so the one place to hold that none leaves before the
    /// records appended ahead of it are committed.
    fn flush(&self, conn: &mut Conn<S>) -> io::Result<bool> {
        debug_assert!(
            conn.flushed() || self.core.uncommitted() == 0,
            "frame before record"
        );
        sys::flush(&mut conn.stream, &mut conn.write_buf, &mut conn.write_pos)
    }

    /// Closes the connection filed under `id` now, whatever it still
    /// had queued.
    fn hang_up(&mut self, io: &mut impl Io<S>, id: Id, reason: &'static str) {
        if let Some(mut conn) = self.conns.remove(&id) {
            conn.closing = Some(reason);
            io.forget(id);
            self.retire(conn);
        }
    }

    /// The read half of the state machine: read what the stream holds
    /// into the connection's buffer, then hand every complete frame in it
    /// (an agent may pipeline several) to the core, whose replies land in
    /// `write_buf` — or, on a scrape, answer the head once it is whole.
    pub(crate) fn read_and_dispatch(&mut self, now: SimTime, conn: &mut Conn<S>) {
        if conn.closing.is_some() {
            return;
        }
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
            let eof = orderly_close.is_some();
            if let Some(response) = ops::respond(head, eof, *since, now, &self.core) {
                conn.write_buf = response;
                conn.closing = Some("ops");
                *since = now;
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

    /// Final close of a connection. An inbound one releases its limit
    /// slot and, if it said `Hello`, emits the `ConnectionClosed` that
    /// pairs its `ConnectionOpened`; the core is told of either kind
    /// that may have been a steering connection.
    fn retire(&mut self, conn: Conn<S>) {
        match conn.role {
            Role::Inbound(caller) => {
                self.accepted_active -= 1;
                if caller.greeted {
                    let reason = conn.closing.unwrap_or("eof");
                    telemetry::emit(None, || Telemetry::ConnectionClosed {
                        agent: caller.agent,
                        frames: conn.frames,
                        reason: reason.into(),
                    });
                }
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
pub(crate) mod tests {
    //! The loop stepped over in-memory pipes from one thread, `now` a
    //! literal: scripted histories on the one stepped world.

    use super::*;
    use crate::protocol::HEADER_BYTES;
    use crate::registry::Command;
    use crate::shard::{lease_id, merge_artifacts, STEER_TIMEOUT_MS};
    use crate::sys::READ_SPACE;
    use crate::world::{baseline, books, frames, pump_until, status, t, Client, End, Pump};
    use crate::world::{Server, World};
    use crate::JournalRecord;

    impl<S> Loop<S> {
        /// Pushes both timers out of any test's reach: the test decides
        /// when a sweep or steering tick happens.
        pub(crate) fn hold_timers(&mut self) {
            let never = self.started.after(3600.0);
            (self.next_sweep, self.next_steer) = (never, never);
        }

        pub(crate) fn link_up(&self, peer: usize) -> bool {
            matches!(self.links[peer], Link::Up(_))
        }
    }

    /// One server of one, with no peer addresses.
    fn solo() -> World {
        World::new(vec![Server::shard(0, 1)])
    }

    /// A connection handed straight to the test, not filed in a loop:
    /// the far end and the loop's side of it.
    fn pair() -> (End, Conn<End>) {
        let (far, near) = End::pair();
        (far, Conn::new(near, Role::Inbound(Caller::default())))
    }

    fn hello(campaigns: Vec<String>) -> Vec<u8> {
        let msg = Message::Hello {
            agent: 9,
            threads: 1,
            campaigns,
        };
        encode_with(&msg, Codec).to_vec()
    }

    #[test]
    fn a_frame_split_across_two_writes_dispatches_once() {
        let (mut net, (mut far, mut conn)) = (solo(), pair());
        let frame = hello(Vec::new());
        far.write_all(&frame[..10]).unwrap();
        net.loops[0].read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (0, 10));
        assert!(conn.write_buf.is_empty() && conn.closing.is_none());
        far.write_all(&frame[10..]).unwrap();
        net.loops[0].read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (1, 0));
        assert!(matches!(
            frames(&conn.write_buf)[..],
            [Message::HelloAck { .. }]
        ));
    }

    /// The third frame also pins the one-shard topology: a server with
    /// no peers answers `ShardMapRequest` as shard 0 of 1.
    #[test]
    fn frames_pipelined_in_one_write_each_dispatch_once() {
        let (mut net, (mut far, mut conn)) = (solo(), pair());
        let mut wire = hello(Vec::new());
        wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
        wire.extend_from_slice(&encode_with(&Message::ShardMapRequest, Codec));
        far.write_all(&wire).unwrap();
        net.loops[0].read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (3, 0));
        match &frames(&conn.write_buf)[..] {
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
        let (mut net, (mut far, mut conn)) = (solo(), pair());
        // Unknown campaign names are ignored, so they only add bulk.
        let frame = hello((0..3000).map(|i| format!("campaign-{i:05}")).collect());
        assert!(frame.len() > 8 * READ_SPACE);
        far.write_all(&frame).unwrap();
        net.loops[0].read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (1, 0));
        assert!(matches!(
            frames(&conn.write_buf)[..],
            [Message::HelloAck { .. }]
        ));
        net.loops[0].read_and_dispatch(t(1.0), &mut conn);
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
            let (mut net, (mut far, mut conn)) = (solo(), pair());
            far.write_all(&old[..HEADER_BYTES]).unwrap();
            net.loops[0].read_and_dispatch(t(1.0), &mut conn);
            assert_eq!(conn.closing, Some("protocol"), "version {}", old[4]);
            assert!(conn.write_buf.is_empty(), "zero reply bytes");

            // The whole frame, with a session in today's dialect
            // pipelined behind it: still nothing is dispatched.
            let (mut far, mut conn) = pair();
            let mut wire = old.to_vec();
            wire.extend_from_slice(&hello(Vec::new()));
            wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
            far.write_all(&wire).unwrap();
            net.loops[0].read_and_dispatch(t(1.0), &mut conn);
            assert_eq!((conn.closing, conn.frames), (Some("protocol"), 0));
            assert!(conn.write_buf.is_empty(), "zero reply bytes");
            let issued = net.loops[0].core.slots()[0].state.outstanding_len();
            assert_eq!(issued, 0, "nothing issued");
        }
    }

    /// The read loop stops on a short read without seeing the EOF
    /// behind it; the next readiness event must still find it.
    #[test]
    fn eof_behind_a_fully_read_frame_is_still_noticed() {
        let (mut net, (mut far, mut conn)) = (solo(), pair());
        far.write_all(&hello(Vec::new())).unwrap();
        drop(far);
        net.loops[0].read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.closing), (1, None), "stopped short");
        net.loops[0].read_and_dispatch(t(1.0), &mut conn);
        assert_eq!(conn.closing, Some("eof"));
        assert_eq!(conn.frames, 1, "the frame before the EOF was served");
        assert!(matches!(
            frames(&conn.write_buf)[..],
            [Message::HelloAck { .. }]
        ));
    }

    /// A volunteer told `NoWork` rests with its socket closed, for up to
    /// [`agent::MAX_REST`], before it asks again. So a loop that is done,
    /// has given its final word and holds no connection still waits that
    /// long after the reply: the volunteer's next ask hears
    /// `campaign_complete` instead of finding the port gone.
    #[test]
    fn a_done_loop_waits_out_the_rest_it_handed_out() {
        let mut net = solo();
        let holders = net.hold_every_replica(0);
        let mut resting = net.connect(0).hello(1, &mut net);
        let told = net.now;
        let reply = resting.exchange(&Message::RequestWork, &mut net);
        let no_work = matches!(
            reply,
            Message::NoWork {
                campaign_complete: false,
                ..
            }
        );
        assert!(no_work, "{reply:?}");
        drop(resting);
        for (mut holder, owed) in holders {
            for report in &owed {
                holder.report(report, &mut net);
            }
        }
        net.pump();
        let lp = &mut net.loops[0];
        assert!(lp.core.done() && lp.core.told_done && lp.conns.is_empty());
        let rest = agent::MAX_REST.as_secs_f64();
        assert_eq!(
            lp.over(t(told + rest - 0.01)),
            None,
            "left while a volunteer rested"
        );
        assert!(lp.over(t(told + rest)).is_some());
    }

    /// A `Busy` sends a volunteer off to rest just as a `NoWork` does,
    /// so a loop that brushed one off waits that rest out too once done,
    /// though the brushed-off volunteer never said `Hello`.
    #[test]
    fn a_done_loop_waits_out_a_busy_rest() {
        let mut net = solo();
        // The last holder drew a `NoWork`; the `Busy` comes later.
        let holders = net.hold_every_replica(0);
        net.loops[0].faults.max_connections = holders.len();
        net.now += 0.5;
        let brushed = net.now;
        let reply = net.connect(0).recv(&mut net);
        assert!(matches!(reply, Message::Busy { .. }), "{reply:?}");
        assert_eq!(net.loops[0].rejected, 1);
        for (mut holder, owed) in holders {
            for report in &owed {
                holder.report(report, &mut net);
            }
        }
        net.pump();
        let lp = &mut net.loops[0];
        assert!(lp.core.done() && lp.core.told_done && lp.conns.is_empty());
        let rest = agent::MAX_REST.as_secs_f64();
        assert_eq!(
            lp.over(t(brushed + rest - 0.01)),
            None,
            "left while a brushed-off volunteer rested"
        );
        assert!(lp.over(t(brushed + rest)).is_some());
    }

    /// A batch that holds the task listener ahead of a holder's `Bye` —
    /// what a level-triggered poller hands back when it reported the
    /// listener before — retires the holder before it accepts: at
    /// `max_connections = 1` the newcomer is served, not brushed off.
    #[test]
    fn a_batch_frees_a_leaving_holders_slot_before_it_accepts() {
        let mut net = solo();
        net.loops[0].faults.max_connections = 1;
        let mut holder = net.connect(0).hello(1, &mut net);
        let holder_id = *net.loops[0].conns.keys().next().expect("the holder");
        holder.send(&Message::Bye);
        let newcomer = net.connect(0);
        let mut batch = net.pipes[0].ready();
        assert_eq!(batch.len(), 2, "the Bye and the newcomer are both in");
        batch.sort_by_key(|ready| matches!(ready, Ready::Conn(_)));
        assert!(
            matches!(batch[..], [Ready::Listener(false), Ready::Conn(ev)] if ev.fd == holder_id)
        );
        net.loops[0]
            .serve(&mut net.pipes[0], t(1.0), batch)
            .unwrap();
        assert_eq!((net.loops[0].rejected, net.loops[0].connections), (0, 2));
        newcomer.hello(2, &mut net);
    }

    /// Scrapes are connections like any other: one that stops half way
    /// through its request line delays neither an agent's frame nor a
    /// second scraper, and is closed at the idle cap.
    #[test]
    fn a_scraper_that_stalls_mid_request_line_delays_nobody() {
        let mut net = World::new(vec![Server {
            ops: true,
            ..Server::shard(0, 1)
        }]);
        let scrapes = |net: &World| {
            let conns = net.loops[0].conns.values();
            conns.filter(|c| matches!(c.role, Role::Scrape(_))).count()
        };

        let mut stalled = net.pipes[0].connect(true);
        stalled.write_all(b"GET /metr").unwrap();
        net.pump();
        let pending = |c: &Conn<End>| c.read_buf.pending().len() == 9;
        assert!(net.loops[0].conns.values().any(pending));

        net.connect(0).hello(9, &mut net);
        let mut second = net.pipes[0].connect(true);
        second.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        net.pump();
        let mut answer = String::new();
        second.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer}");
        assert!(answer.contains("hcmd_wu_states{state=\"done\"} 0"));

        // Still there after a sweep inside the cap; gone, with not a
        // byte sent, after one past it.
        net.now = 1.0 + ops::IDLE_CAP.as_secs_f64();
        net.turn(0, Loop::sweep_tick);
        assert_eq!(scrapes(&net), 1);
        net.now += 0.001;
        net.turn(0, Loop::sweep_tick);
        assert_eq!(scrapes(&net), 0);
        assert_eq!(
            stalled.read(&mut [0u8; 16]).unwrap(),
            0,
            "closed unanswered"
        );
    }

    /// A stalled peer holds nothing but its own link: agents are served
    /// in the very batches its status sits unanswered, and the link is
    /// recycled once that status is `STEER_TIMEOUT_MS` old.
    #[test]
    fn a_peer_that_accepts_and_never_answers_costs_agents_nothing() {
        let mut net = World::new(vec![Server::shard(0, 2)]);
        net.steer(0);
        assert!(net.loops[0].link_up(1));
        net.steer(0);
        let unacked = |net: &World| net.loops[0].core.unacked[1].len();
        assert_eq!(unacked(&net), 1);

        let mut agent = net.connect(0).hello(9, &mut net);
        let reply = agent.exchange(&Message::RequestWork, &mut net);
        assert!(matches!(reply, Message::Assignment { .. }), "{reply:?}");

        // Younger than the timeout, the link is kept and told again...
        net.steer(0);
        assert_eq!(unacked(&net), 2);
        // ...older, it is hung up and dialed afresh.
        let silent = net.far.remove(&1).expect("the silent peer");
        net.now += STEER_TIMEOUT_MS as f64 / 1e3 + 0.001;
        net.turn(0, |lp, pipes, now| {
            lp.steer_tick(pipes, now);
            assert!(matches!(lp.links[1], Link::Dialing));
            assert!(!lp.conns.values().any(|c| matches!(c.role, Role::Link(_))));
        });
        assert!(silent.far_gone(), "the silent peer was hung up on");
        assert!(net.loops[0].link_up(1), "and dialed afresh");
    }

    /// A whole sharded campaign — hunger, a lease cut, adopted and
    /// journaled, a redirect off the drained shard, completion gossiped
    /// both ways — as one scripted history: two loops and their agents
    /// stepped from this thread, in this order.
    #[test]
    fn a_two_shard_history_runs_to_done() {
        let servers = vec![
            Server::shard(0, 2),
            Server::shard(1, 2).journaled("history"),
        ];
        let mut net = World::new(servers);
        let baseline = baseline();

        // Both links come up.
        net.steer(0);
        net.steer(1);
        assert!(net.loops[0].link_up(1) && net.loops[1].link_up(0));

        // Shard 1's agent works its slice dry — all but one result it
        // sits on, so the slice is drained yet not complete — and is
        // told to wait...
        let mut agent1 = net.connect(1).hello(1, &mut net);
        let sat_on = agent1
            .ask(&mut net, baseline)
            .expect("work on a fresh shard");
        let dry = agent1.work(&mut net, baseline);
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
        net.now = 1.2;
        net.steer(1);
        pump_until(&mut net, |net| net.stats(1).shard_leases_in == 1);
        assert_eq!(net.stats(0).shard_leases_out, 1);
        let granted = net.loops[0].core.slots()[0].state.leases_granted_to(1);
        let adopted: Vec<(u64, Vec<u32>)> = crate::journal::open_wal(net.wal(1))
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
        net.now = 1.3;
        net.steer(1);
        pump_until(&mut net, |net| net.board(0).backlog[1] > 0);
        let mut agent0 = net.connect(0).hello(2, &mut net);
        assert_eq!(
            agent0.work(&mut net, baseline),
            Message::Redirect {
                shard: 1,
                addr: "shard-1".into()
            },
            "a drained, complete shard must redirect"
        );
        assert_eq!(net.stats(0).shard_redirects, 1);

        // Shard 1 finishes the lease and its own last result; one more
        // round of gossip each way and both loops know it is over.
        net.now = 1.5;
        agent1.work(&mut net, baseline);
        agent1.report(&sat_on, &mut net);
        assert!(
            !net.loops[0].core.done(),
            "shard 0 last heard shard 1 had work left"
        );
        net.now = 1.6;
        net.steer(0);
        net.steer(1);
        pump_until(&mut net, |net| net.loops.iter().all(|l| l.core.done()));
        let ask = agent0.exchange(&Message::RequestWork, &mut net);
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
        let parts: Vec<_> = net
            .loops
            .iter()
            .map(|l| l.core.slots()[0].state.outputs().to_vec())
            .collect();
        assert_eq!(merge_artifacts(&parts).unwrap(), baseline);
    }

    /// A peer that died with backlog on the board kept drawing
    /// redirects: its advert was only ever overwritten by its next
    /// status, which never came, and every redirected agent was refused,
    /// fell home, asked, and was redirected again without a pause. The
    /// advert now leaves with the steering connection — whichever way
    /// it was dialed — and with nothing else. On the way it pins an
    /// older bug: a shard whose own slice was complete never redirected
    /// (its slice skipped by `fetch`, it recorded no demand and begged
    /// no lease), so volunteers parked on it polled `NoWork` for ever
    /// while a peer's backlog sat untouched.
    #[test]
    fn a_dead_peers_backlog_leaves_with_its_link() {
        let mut net = World::new(vec![Server::shard(0, 2)]);
        net.steer(0);
        let far_end = net.far.remove(&1).expect("shard 0 dialed shard 1");

        // Played as shard 1: lease shard 0's whole slice away, so its
        // agents' asks can only back off or bounce.
        let mut gossip = net.connect(0);
        let mut held = Vec::new();
        loop {
            let (grants, _) = gossip.gossip(&mut net, status(1, &held, 0, true));
            if grants.is_empty() {
                break;
            }
            held.extend(grants.into_iter().map(|(lease, _)| lease));
        }
        let mut agent = net.connect(0).hello(9, &mut net);
        let mut ask = |net: &mut World| agent.exchange(&Message::RequestWork, net);

        let (_, ack) = gossip.gossip(&mut net, status(1, &held, 5, false));
        let complete = matches!(ack, Message::StatusAck { complete: true, .. });
        assert!(complete, "shard 0 leased its whole slice away");
        let redirect = Message::Redirect {
            shard: 1,
            addr: "shard-1".into(),
        };
        assert_eq!(
            ask(&mut net),
            redirect,
            "a drained, complete shard must redirect"
        );
        assert_eq!(net.stats(0).shard_redirects, 1);

        // The link this shard dialed drops: the peer is gone.
        drop(far_end);
        net.pump();
        assert!(!net.loops[0].link_up(1));
        assert_eq!(net.board(0).backlog[1], 0);
        let now = t(net.now);
        assert!(net.loops[0].core.try_redirect(now, &[true]).is_none());
        match ask(&mut net) {
            Message::NoWork { retry_after_ms, .. } => assert!(retry_after_ms > 0),
            other => panic!("a dead peer must not draw a redirect, got {other:?}"),
        }

        // The same for the link the peer dialed.
        gossip.gossip(&mut net, status(1, &held, 5, false));
        assert!(matches!(ask(&mut net), Message::Redirect { shard: 1, .. }));
        let before = net.loops[0].accepted_active;
        drop(gossip);
        net.pump();
        assert_eq!(net.loops[0].accepted_active, before - 1);
        assert!(matches!(ask(&mut net), Message::NoWork { .. }));

        // A volunteer's connection going takes nobody's advert with it.
        let mut gossip = net.connect(0);
        gossip.gossip(&mut net, status(1, &held, 5, false));
        drop(net.connect(0).hello(10, &mut net));
        net.pump();
        assert_eq!(net.loops[0].accepted_active, before);
        assert_eq!(net.board(0).backlog[1], 5);
    }

    /// A `LeaseGrant` is believed only as far as the link it rides: one
    /// for a campaign this server does not host, attributed to another
    /// shard than the peer, or cut under another shard's lease ids
    /// closes the link, moves no workunit and journals nothing — where
    /// adopting it would hand the last campaign a `LeaseIn` it never
    /// earned.
    #[test]
    fn a_forged_lease_grant_changes_nothing_and_closes_the_link() {
        let mut net = World::new(vec![Server::shard(0, 2).journaled("forged")]);
        let before = books(&net.loops[0].core, net.wal(0));
        let everything: Vec<u32> =
            (0..net.loops[0].core.slots()[0].campaign.len() as u32).collect();
        let owned = |net: &World| net.loops[0].core.slots()[0].state.core().owned_count();
        assert!(owned(&net) < everything.len(), "shard 1 owns something");

        let grant = |campaign, from_shard, lease, complete| Message::LeaseGrant {
            lease,
            from_shard,
            wus: everything.clone(),
            complete,
            campaign,
        };
        let on_the_link = |net: &mut World, msg: &Message| {
            net.steer(0);
            let mut far_end = Client::new(net.far.remove(&1).expect("a fresh link"));
            far_end.send(msg);
            net.pump();
            far_end
        };
        for (campaign, from_shard, lease) in [
            (7, 1, lease_id(1, 1)),
            (0, 0, lease_id(1, 1)),
            (0, 1, lease_id(0, 1)),
        ] {
            let forged = grant(campaign, from_shard, lease, true);
            let far_end = on_the_link(&mut net, &forged);
            assert!(far_end.end.far_gone(), "{forged:?} closes the link");
            assert!(matches!(net.loops[0].links[1], Link::Down));
            assert_eq!(books(&net.loops[0].core, net.wal(0)), before, "{forged:?}");
        }

        // The honest grant the same peer could have sent is adopted.
        let honest = grant(0, 1, lease_id(1, 1), false);
        let _far_end = on_the_link(&mut net, &honest);
        assert_eq!(owned(&net), everything.len());
        assert_eq!(net.stats(0).shard_leases_in, 1);
        assert!(net.loops[0].link_up(1));
    }

    /// A peer speaks for itself only. A `StatusAck` in a third shard's
    /// name marks nobody complete — believed, it would (with the peer's
    /// own completion) end this server while shard 2 still had work —
    /// and an inbound steering connection keeps the shard it first named.
    #[test]
    fn a_status_ack_naming_a_third_shard_marks_nobody_complete() {
        let mut net = World::new(vec![Server::shard(0, 3)]);
        net.steer(0);
        net.steer(0);
        net.steer(0);
        assert_eq!(net.loops[0].core.unacked[1].len(), 2);
        let ack = |shard| Message::StatusAck {
            shard,
            complete: true,
        };
        let mut far_end = Client::new(net.far.remove(&1).expect("the link to shard 1"));
        far_end.send(&ack(1));
        far_end.send(&ack(2));
        net.pump();
        assert!(!net.loops[0].link_up(1), "the second ack closed the link");
        assert_eq!(net.board(0).complete, [false, true, false]);
        assert!(!net.board(0).peers_complete(0));
        // An ack nobody was waiting for is refused too.
        net.steer(0);
        let mut far_end = Client::new(net.far.remove(&1).expect("a fresh link"));
        far_end.send(&ack(1));
        net.pump();
        assert!(!net.loops[0].link_up(1));

        // Dialed in as shard 1, then speaking as shard 2: refused, and
        // shard 2's advert is not on the board.
        let mut gossip = net.connect(0);
        gossip.gossip(&mut net, status(1, &[], 3, false));
        assert_eq!(net.board(0).backlog, [0, 3, 0]);
        let mut renamed = status(2, &[], 9, false);
        if let Message::ShardStatus { complete, .. } = &mut renamed {
            *complete = true;
        }
        gossip.send(&renamed);
        net.pump();
        assert_eq!(gossip.poll(), None, "no reply");
        assert!(gossip.end.far_gone(), "closed");
        // The closed steering connection took shard 1's advert along.
        assert_eq!(net.board(0).backlog, [0, 0, 0]);
        assert_eq!(net.board(0).complete, [false, true, false]);
    }
}
