//! The server's event loop with the I/O and the clock taken out: the
//! ordering rules between bytes, timers and the core, kept once.
//!
//! A [`Loop`] owns the [`MultiGrid`] by value, every connection's
//! buffers, role and interest, and the sweep timer, on the core's
//! [`SimTime`] axis. It is told what happened and when — a batch of
//! ready connections and listeners ([`Loop::serve`]), a tick
//! ([`Loop::tick`]) — and asks its driver ([`Io`]) to accept, watch,
//! forget, pause and resume.
//! Each connection's bytes go straight between its stream `S` and its
//! own buffers. Two drivers run it: [`crate::server`] over sockets and
//! the wall clock, and the tests over in-memory pipes with `now` a
//! literal or a step counter — so every seeded history runs the rules
//! that ship.

use crate::agent;
use crate::ops;
use crate::protocol::{decode_versioned, DecodeError};
use crate::registry::{Caller, MultiGrid};
use crate::sys::{self, Event, ReadBuf};
use gridsim::SimTime;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::time::Duration;
use telemetry::Event as Telemetry;

/// How long a finished server waits at most on its volunteers' open
/// sockets, so a silent one cannot hold it for ever: a hang bound, which
/// gives a connected volunteer longer than a resting one is owed. A
/// volunteer that left is waited on by its debt ([`Loop::over`]).
pub(crate) const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);
const _: () = assert!(SHUTDOWN_GRACE.as_millis() > agent::MAX_REST.as_millis());

/// The longest a volunteer sent off to rest waits before it asks again.
const REST: f64 = agent::MAX_REST.as_secs_f64();

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
    /// Puts the core's committed wal `batch` on disk, synced as the
    /// journal's policy says, before any reply behind it is written. An
    /// error stops the loop for good ([`Loop::wal_error`]).
    fn persist(&mut self, batch: &[u8]) -> io::Result<()>;
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
    /// Accepted on the task listener: a volunteer, whose dialogue is the
    /// core's to remember.
    Inbound(Caller),
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

/// The server's event loop: every connection, every timer and the core
/// they feed — which makes every decision — owned by value and stepped
/// by one driver.
pub(crate) struct Loop<S> {
    pub(crate) core: MultiGrid,
    pub(crate) conns: HashMap<Id, Conn<S>>,
    /// Listeners (task, ops) whose accepting is off until the next
    /// sweep tick because an `accept` found resources exhausted. Left
    /// on, a backlog that cannot be accepted would make every batch a
    /// failed `accept`.
    pub(crate) accept_paused: [bool; 2],
    ops_listener: bool,
    sweep_seconds: f64,
    next_sweep: SimTime,
    /// When the run started: wall seconds are counted from here.
    started: SimTime,
    /// When the core was first seen done.
    done_since: Option<SimTime>,
    /// The run's wall seconds, once the server may leave.
    left_after: Option<f64>,
    /// Connections accepted over the run.
    pub(crate) connections: u64,
    /// The final word owed to volunteers that left without it, by agent
    /// id (`None`: any that never said `Hello`, or rested across a
    /// crash): until when each may be resting.
    pub(crate) debts: HashMap<Option<u64>, SimTime>,
    /// Why the driver could not persist a batch. From then on nothing
    /// the loop holds is written, and the driver stops it.
    pub(crate) wal_error: Option<io::Error>,
}

impl<S: Read + Write> Loop<S> {
    /// A loop over `core` started at `now`: its first sweep tick comes
    /// due one interval later. `ops_listener` says
    /// whether scrapes are served (and so lingered for at the end).
    pub(crate) fn new(core: MultiGrid, sweep_ms: u64, ops_listener: bool, now: SimTime) -> Self {
        let sweep_seconds = Duration::from_millis(sweep_ms.max(1)).as_secs_f64();
        let reopened = core.wal_size().is_some_and(|(records, _)| records > 0);
        Self {
            core,
            conns: HashMap::new(),
            accept_paused: [false; 2],
            ops_listener,
            sweep_seconds,
            next_sweep: now.after(sweep_seconds),
            started: now,
            done_since: None,
            left_after: None,
            connections: 0,
            debts: HashMap::from_iter(reopened.then(|| (None, now.after(REST)))),
            wal_error: None,
        }
    }

    /// When the next timer comes due.
    pub(crate) fn next_timer(&self) -> SimTime {
        self.next_sweep
    }

    /// Fires the timer if it is due at `now`.
    pub(crate) fn tick(&mut self, io: &mut impl Io<S>, now: SimTime) {
        if now >= self.next_sweep {
            self.sweep_tick(io, now);
            self.next_sweep = now.after(self.sweep_seconds);
        }
    }

    /// The run's wall seconds once it is over at `now`: from the start
    /// until the server may leave. A done core keeps answering
    /// `campaign_complete`, listener open, while a volunteer is
    /// connected (for at most [`SHUTDOWN_GRACE`]) and while a debt runs —
    /// a volunteer sent off to rest or cut off may still be resting. The
    /// ops endpoint lingers [`ops::LINGER`] past that, outside the figure
    /// returned.
    pub(crate) fn over(&mut self, now: SimTime) -> Option<f64> {
        if !self.core.all_complete() {
            return None;
        }
        let since = now.seconds() - self.done_since.get_or_insert(now).seconds();
        let volunteer = |c: &Conn<S>| matches!(c.role, Role::Inbound(_));
        let connected = self.conns.values().any(volunteer) && since <= SHUTDOWN_GRACE.as_secs_f64();
        let owed = self.debts.values().any(|&until| now < until);
        if self.left_after.is_none() && !connected && !owed {
            self.left_after = Some(now.seconds() - self.started.seconds());
        }
        let wall = self.left_after?;
        (!self.ops_listener || since > ops::LINGER.as_secs_f64()).then_some(wall)
    }

    /// Serves one batch of readiness at `now`: every connection first,
    /// the listeners last. Every connection is read before any is
    /// settled, so the first write commits the whole batch's records:
    /// one `fdatasync`. Accepting is settling too, and a scrape is
    /// answered as it is accepted: an ops listener served in batch
    /// order, ahead of a connection event, would write, and so commit,
    /// before the rest of the batch was read, and the batch would cost
    /// two `fdatasync`s.
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
            self.settle(io, now, id, conn);
        }
        for ops in [false, true] {
            if accept[usize::from(ops)] {
                self.accept_ready(io, now, ops)?;
            }
        }
        Ok(())
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
        self.debts.retain(|_, &mut until| now < until);
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
                self.hang_up(io, now, id, "idle");
            }
        }
    }

    /// Drains a listener: accept every pending connection. On the task
    /// listener each is a volunteer; on the ops listener each is one
    /// scrape. An exhausted `accept` pauses the listener until the next
    /// sweep tick, and only a broken listener ends the server.
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
            let conn = if ops {
                // A scraper sends its request with the connect, so it is
                // usually readable already: answered here, the scrape
                // never costs a registration.
                let mut conn = Conn::new(stream, Role::Scrape(now));
                self.read_and_dispatch(now, &mut conn);
                conn
            } else {
                self.connections += 1;
                Conn::new(stream, Role::Inbound(Caller::default()))
            };
            self.settle(io, now, id, conn);
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

    /// Has the driver persist every record the core appended since the
    /// last commit, once, before any reply behind them is written.
    /// `false` once a persist has failed: the records may not be on
    /// disk, so nothing may leave the loop again.
    pub(crate) fn commit(&mut self, io: &mut impl Io<S>) -> bool {
        if self.wal_error.is_none() {
            self.wal_error = self.core.commit(|batch| io.persist(batch)).err();
        }
        self.wal_error.is_none()
    }

    /// Commits, flushes queued replies, then either retires a connection
    /// that is finished (a scrape answered whole as it was accepted is,
    /// before it was ever filed) or files it under the interest it now
    /// wants. With the wal unwritable the replies are dropped.
    fn settle(&mut self, io: &mut impl Io<S>, now: SimTime, id: Id, mut conn: Conn<S>) {
        let unsent = !conn.flushed() && !self.commit(io);
        if unsent || self.flush(&mut conn).is_err() {
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
            self.retire(now, conn);
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
    fn hang_up(&mut self, io: &mut impl Io<S>, now: SimTime, id: Id, reason: &'static str) {
        if let Some(mut conn) = self.conns.remove(&id) {
            conn.closing = Some(reason);
            io.forget(id);
            self.retire(now, conn);
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
        let caller = match &mut conn.role {
            Role::Inbound(caller) => caller,
            Role::Scrape(since) => {
                let head = conn.read_buf.pending();
                let eof = orderly_close.is_some();
                if let Some(response) = ops::respond(head, eof, *since, now, &self.core) {
                    conn.write_buf = response;
                    conn.closing = Some("ops");
                    *since = now;
                }
                return;
            }
        };
        while conn.closing.is_none() {
            match decode_versioned(conn.read_buf.pending()) {
                Ok((msg, consumed, _)) => {
                    conn.read_buf.consume(consumed);
                    conn.frames += 1;
                    let heard = self.core.inbound(now, caller, msg, &mut conn.write_buf);
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

    /// Final close of a connection, at `now`. An inbound one that said
    /// `Hello` emits the `ConnectionClosed` that pairs its
    /// `ConnectionOpened`. A volunteer that said `Bye` after it was told
    /// the campaign is over has read the final word, and pays its
    /// agent's debt. Any other that was sent off to rest, or left
    /// without a `Bye`, may ask again within a rest, which it is owed
    /// ([`Self::debts`]): a final word queued on a connection that then
    /// broke may never have been read.
    fn retire(&mut self, now: SimTime, conn: Conn<S>) {
        let Role::Inbound(caller) = conn.role else {
            return;
        };
        if let Some(agent) = caller.agent {
            let reason = conn.closing.unwrap_or("eof");
            telemetry::emit(None, || Telemetry::ConnectionClosed {
                agent,
                frames: conn.frames,
                reason: reason.into(),
            });
        }
        let bye = conn.closing == Some("bye");
        if caller.heard && bye {
            if caller.agent.is_some() {
                self.debts.remove(&caller.agent);
            }
        } else if caller.resting || !bye {
            self.debts.insert(caller.agent, now.after(REST));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The loop stepped over in-memory pipes from one thread, `now` a
    //! literal: scripted histories on the one stepped world.

    use super::*;
    use crate::protocol::{encode_with, CampaignParams, Codec, Message, HEADER_BYTES};
    use crate::registry::CampaignDef;
    use crate::sys::READ_SPACE;
    use crate::world::{baseline, frames, pump_until, t, Client, End, Pump, Server, World};

    impl<S> Loop<S> {
        /// Pushes the sweep timer out of any test's reach: the test
        /// decides when a sweep tick happens.
        pub(crate) fn hold_timers(&mut self) {
            self.next_sweep = self.started.after(3600.0);
        }
    }

    /// One server of the tiny campaign.
    fn solo() -> World {
        World::new(Server::tiny())
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
        net.lp.read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (0, 10));
        assert!(conn.write_buf.is_empty() && conn.closing.is_none());
        far.write_all(&frame[10..]).unwrap();
        net.lp.read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (1, 0));
        assert!(matches!(
            frames(&conn.write_buf)[..],
            [Message::HelloAck { .. }]
        ));
    }

    #[test]
    fn frames_pipelined_in_one_write_each_dispatch_once() {
        let (mut net, (mut far, mut conn)) = (solo(), pair());
        let mut wire = hello(Vec::new());
        wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
        wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
        far.write_all(&wire).unwrap();
        net.lp.read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (3, 0));
        match &frames(&conn.write_buf)[..] {
            [Message::HelloAck { .. }, Message::Assignment { workunit: 0, .. }, Message::Assignment { workunit: 0, .. }] =>
                {}
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
        net.lp.read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.read_buf.pending().len()), (1, 0));
        assert!(matches!(
            frames(&conn.write_buf)[..],
            [Message::HelloAck { .. }]
        ));
        net.lp.read_and_dispatch(t(1.0), &mut conn);
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
            net.lp.read_and_dispatch(t(1.0), &mut conn);
            assert_eq!(conn.closing, Some("protocol"), "version {}", old[4]);
            assert!(conn.write_buf.is_empty(), "zero reply bytes");

            // The whole frame, with a session in today's dialect
            // pipelined behind it: still nothing is dispatched.
            let (mut far, mut conn) = pair();
            let mut wire = old.to_vec();
            wire.extend_from_slice(&hello(Vec::new()));
            wire.extend_from_slice(&encode_with(&Message::RequestWork, Codec));
            far.write_all(&wire).unwrap();
            net.lp.read_and_dispatch(t(1.0), &mut conn);
            assert_eq!((conn.closing, conn.frames), (Some("protocol"), 0));
            assert!(conn.write_buf.is_empty(), "zero reply bytes");
            let issued = net.lp.core.slots()[0].state.outstanding_len();
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
        net.lp.read_and_dispatch(t(1.0), &mut conn);
        assert_eq!((conn.frames, conn.closing), (1, None), "stopped short");
        net.lp.read_and_dispatch(t(1.0), &mut conn);
        assert_eq!(conn.closing, Some("eof"));
        assert_eq!(conn.frames, 1, "the frame before the EOF was served");
        assert!(matches!(
            frames(&conn.write_buf)[..],
            [Message::HelloAck { .. }]
        ));
    }

    /// The holders report every replica they took and, the campaign
    /// done, hear the final word on an ask of their own: once they hang
    /// up, the loop owes none of them anything.
    fn report_and_hear_the_end(net: &mut World, holders: Vec<(Client<End>, Vec<Message>)>) {
        let mut heard = Vec::new();
        for (mut holder, owed) in holders {
            for report in &owed {
                holder.report(report, net);
            }
            heard.push(holder);
        }
        for holder in &mut heard {
            hear_the_end(holder, net);
        }
        drop(heard);
        net.pump();
    }

    /// One ask on `client`'s connection that hears `campaign_complete`,
    /// and the `Bye` that says it was read.
    fn hear_the_end(client: &mut Client<End>, net: &mut World) {
        let reply = client.exchange(&Message::RequestWork, net);
        let complete = matches!(
            reply,
            Message::NoWork {
                campaign_complete: true,
                ..
            }
        );
        assert!(complete, "{reply:?}");
        client.send(&Message::Bye);
    }

    /// Volunteer 1, told `NoWork` with the campaign open, which it rests
    /// on with its socket closed after a `Bye`; every holder has since
    /// heard the end.
    /// The world, and when the volunteer was told.
    fn one_volunteer_resting() -> (World, f64) {
        let mut net = solo();
        let holders = net.hold_every_replica();
        let mut resting = net.connect().hello(1, &mut net);
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
        resting.send(&Message::Bye);
        drop(resting);
        report_and_hear_the_end(&mut net, holders);
        (net, told)
    }

    /// A volunteer told `NoWork` rests with its socket closed, for up to
    /// [`agent::MAX_REST`], before it asks again. So a loop that is done
    /// and holds no connection still owes it the final word that long
    /// after it left: its next ask hears `campaign_complete` instead of
    /// finding the port gone.
    #[test]
    fn a_done_loop_waits_out_the_rest_it_handed_out() {
        let (mut net, told) = one_volunteer_resting();
        let lp = &mut net.lp;
        assert!(lp.core.all_complete() && lp.conns.is_empty());
        let rest = agent::MAX_REST.as_secs_f64();
        let owed = HashMap::from([(Some(1), t(told + rest))]);
        assert_eq!(lp.debts, owed, "the resting volunteer alone is owed");
        assert_eq!(
            lp.over(t(told + rest - 0.01)),
            None,
            "left while a volunteer rested"
        );
        assert!(lp.over(t(told + rest)).is_some());
    }

    /// A connection that closes before it says `Hello` may be a
    /// volunteer whose handshake broke, which rests and dials again; a
    /// loop that is done waits that rest out too, though it never
    /// learned who it was.
    #[test]
    fn a_done_loop_waits_out_a_connection_that_closed_before_hello() {
        let mut net = solo();
        let holders = net.hold_every_replica();
        net.now += 0.5;
        let closed = net.now;
        drop(net.connect());
        pump_until(&mut net, |net| net.lp.debts.contains_key(&None));
        report_and_hear_the_end(&mut net, holders);
        let lp = &mut net.lp;
        assert!(lp.core.all_complete() && lp.conns.is_empty());
        let rest = agent::MAX_REST.as_secs_f64();
        let owed = HashMap::from([(None, t(closed + rest))]);
        assert_eq!(lp.debts, owed, "the nameless connection alone is owed");
        assert_eq!(
            lp.over(t(closed + rest - 0.01)),
            None,
            "left while a nameless volunteer may rest"
        );
        assert!(lp.over(t(closed + rest)).is_some());
    }

    /// A debt is paid by the final word: a volunteer sent off to rest
    /// that comes back and hears `campaign_complete` is owed nothing
    /// more, so a loop whose every volunteer has heard it leaves at
    /// once, not a rest after the last `NoWork` it gave.
    #[test]
    fn a_done_loop_leaves_once_every_rested_volunteer_has_heard() {
        let (mut net, _) = one_volunteer_resting();
        hear_the_end(&mut net.connect().hello(1, &mut net), &mut net);
        net.pump();
        let lp = &mut net.lp;
        assert!(lp.debts.is_empty(), "{:?}", lp.debts);
        assert!(
            lp.over(t(net.now)).is_some(),
            "waited on volunteers that had all heard the end"
        );
    }

    /// A final word queued is not a final word read: a volunteer whose
    /// connection breaks after the loop queued `campaign_complete` and
    /// before the volunteer read it comes back within a rest, and the
    /// loop still owes it that rest. Only the volunteer's own `Bye`
    /// after the final word pays the debt.
    #[test]
    fn a_final_word_cut_off_before_it_is_read_pays_no_debt() {
        let (mut net, _) = one_volunteer_resting();
        net.now += 0.5;
        let mut back = net.connect().hello(1, &mut net);
        back.send(&Message::RequestWork);
        net.pump();
        let cut_at = net.now;
        back.end.cut();
        net.pump();
        assert_eq!(back.poll(), None, "the final word was never read");
        let lp = &mut net.lp;
        assert!(lp.core.all_complete() && lp.conns.is_empty());
        let rest = agent::MAX_REST.as_secs_f64();
        let owed = HashMap::from([(Some(1), t(cut_at + rest))]);
        assert_eq!(lp.debts, owed, "the cut-off volunteer is owed a rest");
        assert_eq!(
            lp.over(t(cut_at + rest - 0.01)),
            None,
            "left while the cut-off volunteer may rest"
        );
        assert!(lp.over(t(cut_at + rest)).is_some());
    }

    /// A volunteer that reports and says `Bye` without asking again was
    /// not sent off to rest: it left of its own accord, and nothing is
    /// owed to it. One cut off after the same report may come back, and
    /// is owed a rest, as is one that says `Bye` after a `NoWork`.
    #[test]
    fn a_bye_after_a_report_is_owed_nothing() {
        let rest = agent::MAX_REST.as_secs_f64();
        let mut net = solo();
        for (agent, bye) in [(1, true), (2, false)] {
            let mut leaving = net.connect().hello(agent, &mut net);
            let report = leaving.ask(&mut net, baseline()).expect("work");
            leaving.report(&report, &mut net);
            if bye {
                leaving.send(&Message::Bye);
            }
            drop(leaving);
            net.pump();
        }
        let owed = HashMap::from([(Some(2), t(net.now + rest))]);
        assert_eq!(net.lp.debts, owed, "only the one cut off is owed");
        let (net, told) = one_volunteer_resting();
        let owed = HashMap::from([(Some(1), t(told + rest))]);
        assert_eq!(net.lp.debts, owed);
    }

    /// A loop reopened done from its wal cannot know who was resting
    /// across the crash, so it owes one rest from its start: a volunteer
    /// that wakes inside it still hears `campaign_complete`.
    #[test]
    fn a_loop_reopened_done_keeps_its_listener_for_one_rest() {
        let mut net = World::new(Server::tiny().journaled());
        net.connect().hello(1, &mut net).work(&mut net, baseline());
        assert!(net.lp.core.all_complete());
        net.now += 1.0;
        let reopened = net.now;
        net.kill_and_reopen();
        assert!(net.lp.core.all_complete() && net.lp.conns.is_empty());
        let rest = agent::MAX_REST.as_secs_f64();
        net.now = reopened + rest - 0.01;
        assert_eq!(net.lp.over(t(net.now)), None, "left at once");
        hear_the_end(&mut net.connect().hello(2, &mut net), &mut net);
        net.pump();
        assert_eq!(net.lp.over(t(net.now)), None);
        assert!(net.lp.over(t(reopened + rest)).is_some());
    }

    /// A docking volunteer holds its connection from its `Assignment`
    /// to its report, so a loop serves as many at once as dial it: 200
    /// volunteers on the 880-workunit wire catalog each say `Hello` and
    /// ask on a connection they keep open, at the default faults, and
    /// each is assigned work.
    #[test]
    fn a_loop_serves_two_hundred_volunteers_holding_their_connections() {
        let wire = CampaignParams {
            proteins: 16,
            lib_seed: 87,
            ..CampaignParams::tiny()
        };
        let mut net = World::new(Server {
            defs: vec![CampaignDef::default_solo(wire)],
            ..Server::tiny()
        });
        assert_eq!(net.lp.core.slots()[0].campaign.len(), 880);
        let mut held = Vec::new();
        for agent in 1..=200 {
            let mut volunteer = net.connect().hello(agent, &mut net);
            let reply = volunteer.exchange(&Message::RequestWork, &mut net);
            assert!(
                matches!(reply, Message::Assignment { .. }),
                "volunteer {agent}: {reply:?}"
            );
            held.push(volunteer);
        }
        let inbound = net.lp.conns.values();
        let open = inbound.filter(|c| matches!(c.role, Role::Inbound(_)));
        assert_eq!((open.count(), net.lp.connections), (200, 200));
    }

    /// Scrapes are connections like any other: one that stops half way
    /// through its request line delays neither an agent's frame nor a
    /// second scraper, and is closed at the idle cap.
    #[test]
    fn a_scraper_that_stalls_mid_request_line_delays_nobody() {
        let mut net = World::new(Server {
            ops: true,
            ..Server::tiny()
        });
        let scrapes = |net: &World| {
            let conns = net.lp.conns.values();
            conns.filter(|c| matches!(c.role, Role::Scrape(_))).count()
        };

        let mut stalled = net.pipes.connect(true);
        stalled.write_all(b"GET /metr").unwrap();
        net.pump();
        let pending = |c: &Conn<End>| c.read_buf.pending().len() == 9;
        assert!(net.lp.conns.values().any(pending));

        net.connect().hello(9, &mut net);
        let mut second = net.pipes.connect(true);
        second.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        net.pump();
        let mut answer = String::new();
        second.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer}");
        assert!(answer.contains("hcmd_wu_states{state=\"done\"} 0"));

        // Still there after a sweep inside the cap; gone, with not a
        // byte sent, after one past it.
        net.now = 1.0 + ops::IDLE_CAP.as_secs_f64();
        net.turn(Loop::sweep_tick);
        assert_eq!(scrapes(&net), 1);
        net.now += 0.001;
        net.turn(Loop::sweep_tick);
        assert_eq!(scrapes(&net), 0);
        assert_eq!(
            stalled.read(&mut [0u8; 16]).unwrap(),
            0,
            "closed unanswered"
        );
    }
}
