//! The volunteer driver with the I/O and the clock taken out.
//!
//! A [`Fleet`] holds every [`Session`] of a run and decides how their
//! steps are carried out; its driver does the I/O it asks for through
//! [`Io`] and tells it what came back, with the time: [`crate::mux`]
//! over sockets, the stepped world over pipes. A `Wait` is the
//! session's, so the fleet lets it run out and says `Woke`. It decides:
//!
//! * a frame sent is due a reply within [`IO_TIMEOUT`], or its
//!   connection is lost (a driver gives a dial as long);
//! * at most [`CONNECT_BATCH`] dials unanswered and [`MAX_OPEN`]
//!   connections open or being dialed; other dials park in a FIFO;
//! * at most [`MAX_INFLIGHT_ASKS`] `RequestWork` frames in flight; the
//!   other asks park in a FIFO until replies free slots;
//! * one dock per workunit, shared by the sessions handed it meanwhile,
//!   each getting its own copy (a corrupting one mutates it); a fleet of
//!   one keeps nothing it docked;
//! * a finished session's connection closes at once, with no `Bye`.

use crate::agent::{AgentConfig, AgentReport, Input, Outcome, Session, Step};
use crate::protocol::{CampaignParams, Message};
use gridsim::SimTime;
use maxdo::DockingOutput;
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// A live server answers within a turn of its loop; one that accepts
/// and says nothing would otherwise hold a volunteer until the kernel
/// gave up. A stall's `Wait` is timed on its own, not by this.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A fleet's dials run on a few blocking connects: at most this many are
/// out unanswered, and a ramp (or a herd waking at once) queues here.
const CONNECT_BATCH: usize = 64;

/// A loopback bench owns *both* ends of every socket, so the process fd
/// bill is twice this plus a few — 16 000 at the cap, and `netgrid_e2e`
/// raises the soft limit to 20 000 ([`crate::sys::raise_nofile_limit`]).
const MAX_OPEN: usize = 8_000;

/// The server answers one frame at a time, so a wave of N asks queues
/// the last behind N − 1 service times (~200 ms at N = 10 000); 16
/// keeps it saturated and its queue a handful of service times long.
const MAX_INFLIGHT_ASKS: usize = 16;

/// A docking's campaign id and workunit: the same workunit index names
/// different work in different campaigns.
pub(crate) type Key = (u16, u32);

/// What a fleet asks of its driver; a session is named by its index.
/// A dial or a dock is answered later, through [`Fleet::input`] or
/// [`Fleet::docked`], never inside the call.
pub(crate) trait Io {
    /// Dials `addr` for session `who`: `Connected` or `ConnectFailed`.
    fn dial(&mut self, who: usize, addr: &str);
    /// Writes `msg` on `who`'s connection: `false` if it failed.
    fn send(&mut self, who: usize, msg: &Message) -> bool;
    fn close(&mut self, who: usize);
    /// Docks `key` against `roster`, the recipes `who`'s handshake
    /// announced.
    fn dock(&mut self, who: usize, key: Key, roster: &[CampaignParams]);
}

/// What the fleet owes a session: its last step, as far as carried out.
/// `Talking` is a frame out, or a stall's wait on an open connection.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Owed {
    Wake(SimTime),
    /// A `Dial` waiting for admission.
    Dial,
    Connecting,
    Talking,
    /// An `Ask` parked for admission.
    Admission,
    Asked(SimTime),
    Dock(Key),
    Finished(Outcome),
}

#[derive(Clone, PartialEq)]
struct Volunteer {
    session: Session,
    owed: Owed,
    /// It holds a connection.
    open: bool,
    /// When the frame last sent is overdue; cleared by any input.
    reply_due: Option<SimTime>,
}

/// A dock of one key: the sessions waiting on it, or its output.
#[derive(Clone, PartialEq)]
enum Dock {
    Pending(Vec<usize>),
    Ready(DockingOutput),
}

/// Every session of a run and what is owed to each.
#[derive(Clone, PartialEq, Default)]
pub(crate) struct Fleet {
    volunteers: Vec<Volunteer>,
    /// Sessions parked for admission, oldest first; an entry whose
    /// session moved on is skipped.
    asks: VecDeque<usize>,
    in_flight: usize,
    /// Dials parked for admission, oldest first, the same way.
    dials: VecDeque<usize>,
    /// Dials out and unanswered, and connections open.
    dialing: usize,
    connections: usize,
    /// Sessions not yet finished.
    pub(crate) running: usize,
    docks: BTreeMap<Key, Dock>,
    /// Reply deadlines that ran out.
    pub(crate) timeouts: u64,
}

impl Fleet {
    /// A volunteer joins, to wake at `now`.
    pub(crate) fn join(&mut self, config: AgentConfig, now: SimTime) {
        self.volunteers.push(Volunteer {
            session: Session::new(config),
            owed: Owed::Wake(now),
            open: false,
            reply_due: None,
        });
        self.running += 1;
    }

    pub(crate) fn outcome(&self, who: usize) -> Option<Outcome> {
        match self.volunteers[who].owed {
            Owed::Finished(outcome) => Some(outcome),
            _ => None,
        }
    }

    pub(crate) fn into_reports(self) -> Vec<AgentReport> {
        self.volunteers
            .into_iter()
            .map(|v| v.session.report)
            .collect()
    }

    /// How long from `now` until the fleet has work that no input
    /// brings: a wait or a reply deadline running out, not a parked dial.
    pub(crate) fn next_due(&self, now: SimTime) -> Option<Duration> {
        let due = |v: &Volunteer| match v.owed {
            Owed::Wake(until) => Some(until),
            _ => v.reply_due,
        };
        let next = self.volunteers.iter().filter_map(due).min()?;
        Some(Duration::try_from_secs_f64(next.seconds() - now.seconds()).unwrap_or_default())
    }

    /// The timers at `now`: waits that ran out wake, and overdue
    /// replies are lost connections.
    pub(crate) fn tick(&mut self, io: &mut impl Io, now: SimTime) {
        for who in 0..self.volunteers.len() {
            if matches!(self.volunteers[who].owed, Owed::Wake(until) if now >= until) {
                self.feed(io, now, who, Input::Woke);
            }
            if self.volunteers[who].reply_due.is_some_and(|due| now >= due) {
                self.timeouts += 1;
                self.feed(io, now, who, Input::Lost);
            }
        }
        self.admit(io, now);
    }

    /// What happened to session `who`'s dial or connection: `Connected`,
    /// `ConnectFailed`, a `Frame` or `Lost`.
    pub(crate) fn input(&mut self, io: &mut impl Io, now: SimTime, who: usize, input: Input) {
        let v = &mut self.volunteers[who];
        if v.owed == Owed::Connecting {
            self.dialing -= 1;
            v.open = matches!(input, Input::Connected);
            self.connections += usize::from(v.open);
        }
        self.feed(io, now, who, input);
        self.admit(io, now);
    }

    /// The dock of `key` is done: each session still waiting on it gets
    /// its own copy.
    pub(crate) fn docked(&mut self, io: &mut impl Io, now: SimTime, key: Key, out: DockingOutput) {
        let Some(Dock::Pending(waiting)) = self.docks.remove(&key) else {
            return;
        };
        if self.volunteers.len() > 1 {
            self.docks.insert(key, Dock::Ready(out.clone()));
        }
        for who in waiting {
            if self.volunteers[who].owed == Owed::Dock(key) {
                self.feed(io, now, who, Input::Computed(out.clone()));
            }
        }
        self.admit(io, now);
    }

    /// Tells session `who` what happened and carries out the step it
    /// answers with. An ask in flight ends here, whatever ended it; one a
    /// frame answered is a latency sample.
    fn feed(&mut self, io: &mut impl Io, now: SimTime, who: usize, input: Input) {
        let v = &mut self.volunteers[who];
        if let Owed::Finished(_) = v.owed {
            return;
        }
        v.reply_due = None;
        if let Owed::Asked(at) = v.owed {
            self.in_flight -= 1;
            // So a step that feeds again (a `Bye`, a failed write)
            // cannot free the slot twice.
            v.owed = Owed::Talking;
            if let Input::Frame(_) = input {
                let latency_ms = (now.seconds() - at.seconds()) * 1e3;
                v.session.report.request_latencies_ms.push(latency_ms);
            }
        }
        let step = v.session.step(input);
        self.perform(io, now, who, step);
    }

    /// Carries out one step as far as it can be without waiting; what
    /// `who` is owed says the rest.
    fn perform(&mut self, io: &mut impl Io, now: SimTime, who: usize, step: Step) {
        let owed = match step {
            Step::Dial => {
                // An agent holds at most one connection, on either side.
                self.close(io, who);
                self.dials.push_back(who);
                Owed::Dial
            }
            Step::Send(msg) => {
                // Before a failed write tells the session, which steps.
                self.volunteers[who].owed = Owed::Talking;
                return self.send(io, now, who, &msg);
            }
            Step::Ask => {
                self.asks.push_back(who);
                Owed::Admission
            }
            Step::Compute {
                campaign, workunit, ..
            } => return self.compute(io, now, who, (campaign, workunit)),
            Step::Wait(pause) => Owed::Wake(now.after(pause.as_secs_f64())),
            Step::Bye => {
                if self.volunteers[who].open {
                    io.send(who, &Message::Bye);
                }
                self.close(io, who);
                return self.feed(io, now, who, Input::Lost);
            }
            Step::Finished(outcome) => {
                // With no `Bye`: a `die_after` volunteer just vanishes.
                self.close(io, who);
                self.running -= 1;
                Owed::Finished(outcome)
            }
        };
        self.volunteers[who].owed = owed;
    }

    /// Sends `msg` on `who`'s connection, due a reply within
    /// [`IO_TIMEOUT`]; no connection to send on is a lost one.
    fn send(&mut self, io: &mut impl Io, now: SimTime, who: usize, msg: &Message) {
        if self.volunteers[who].open && io.send(who, msg) {
            self.volunteers[who].reply_due = Some(now.after(IO_TIMEOUT.as_secs_f64()));
        } else {
            self.feed(io, now, who, Input::Lost);
        }
    }

    fn close(&mut self, io: &mut impl Io, who: usize) {
        if std::mem::take(&mut self.volunteers[who].open) {
            self.connections -= 1;
            io.close(who);
        }
    }

    /// Answers `who`'s `Compute` from the one dock of `key`.
    fn compute(&mut self, io: &mut impl Io, now: SimTime, who: usize, key: Key) {
        self.volunteers[who].owed = Owed::Dock(key);
        match self.docks.get_mut(&key) {
            Some(Dock::Ready(out)) => {
                let out = out.clone();
                self.feed(io, now, who, Input::Computed(out));
            }
            Some(Dock::Pending(waiting)) => waiting.push(who),
            None => {
                self.docks.insert(key, Dock::Pending(vec![who]));
                let roster = self.volunteers[who].session.roster();
                io.dock(who, key, roster);
            }
        }
    }

    /// Sends parked asks, oldest first, while in-flight slots are free;
    /// then parked dials, oldest first, while there is room for them.
    fn admit(&mut self, io: &mut impl Io, now: SimTime) {
        while self.in_flight < MAX_INFLIGHT_ASKS {
            let Some(who) = self.asks.pop_front() else {
                break;
            };
            if self.volunteers[who].owed == Owed::Admission {
                self.in_flight += 1;
                self.volunteers[who].owed = Owed::Asked(now);
                // A failed write is `Lost`, which frees the slot in `feed`.
                self.send(io, now, who, &Message::RequestWork);
            }
        }
        while self.dialing < CONNECT_BATCH && self.dialing + self.connections < MAX_OPEN {
            let Some(who) = self.dials.pop_front() else {
                return;
            };
            let v = &mut self.volunteers[who];
            if v.owed == Owed::Dial {
                (self.dialing, v.owed) = (self.dialing + 1, Owed::Connecting);
                io.dial(who, v.session.addr());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::{assignment, hello_ack, no_work};
    use crate::world::t;

    impl Fleet {
        pub(crate) fn report(&self, who: usize) -> &AgentReport {
            &self.volunteers[who].session.report
        }

        /// What session `who` is owed.
        pub(crate) fn owed(&self, who: usize) -> &Owed {
            &self.volunteers[who].owed
        }

        /// How many docked outputs the fleet keeps.
        pub(crate) fn docked_outputs(&self) -> usize {
            let ready = |dock: &&Dock| matches!(dock, Dock::Ready(_));
            self.docks.values().filter(ready).count()
        }
    }

    /// A driver that writes every frame and docks nothing yet, and
    /// records the dials and frames.
    #[derive(Default)]
    struct Record {
        dialed: Vec<usize>,
        sent: Vec<(usize, Message)>,
    }

    impl Io for Record {
        fn dial(&mut self, who: usize, _: &str) {
            self.dialed.push(who);
        }

        fn send(&mut self, who: usize, msg: &Message) -> bool {
            self.sent.push((who, msg.clone()));
            true
        }

        fn close(&mut self, _: usize) {}

        fn dock(&mut self, _: usize, _: Key, _: &[CampaignParams]) {}
    }

    /// `n` volunteers that dialed, heard their `HelloAck`s in order and
    /// asked, all at 1 s.
    fn asking(n: usize) -> (Fleet, Record) {
        let (mut fleet, mut io) = (Fleet::default(), Record::default());
        for id in 1..=n as u64 {
            fleet.join(AgentConfig::new("home", id), t(0.0));
        }
        fleet.tick(&mut io, t(1.0));
        for who in io.dialed.clone() {
            fleet.input(&mut io, t(1.0), who, Input::Connected);
        }
        for who in 0..n {
            fleet.input(&mut io, t(1.0), who, Input::Frame(hello_ack()));
        }
        (fleet, io)
    }

    /// Who sent the `RequestWork` frames, in order.
    fn askers(io: &Record) -> Vec<usize> {
        let asks = io.sent.iter().filter(|(_, m)| *m == Message::RequestWork);
        asks.map(|&(who, _)| who).collect()
    }

    /// Of twenty asks, the first sixteen go out; each reply frees a slot
    /// for the oldest parked ask.
    #[test]
    fn twenty_asks_put_sixteen_in_flight_and_the_rest_go_oldest_first() {
        let (mut fleet, mut io) = asking(20);
        assert_eq!(askers(&io), (0..16).collect::<Vec<_>>());
        for (replies, who) in [3, 0, 9, 15].into_iter().enumerate() {
            fleet.input(&mut io, t(2.0), who, Input::Frame(no_work(5)));
            assert_eq!(askers(&io).len(), 17 + replies);
        }
        assert_eq!(askers(&io)[16..], [16, 17, 18, 19]);
    }

    /// Two hundred sessions due to dial at once: a batch of dials goes
    /// out, and each answer admits the oldest dial parked.
    #[test]
    fn two_hundred_dials_go_out_a_batch_at_a_time_oldest_first() {
        let (mut fleet, mut io) = (Fleet::default(), Record::default());
        for id in 1..=200 {
            fleet.join(AgentConfig::new("home", id), t(0.0));
        }
        fleet.tick(&mut io, t(1.0));
        assert_eq!(io.dialed, (0..CONNECT_BATCH).collect::<Vec<_>>());
        for answered in 1..=200 {
            let who = io.dialed[answered - 1];
            fleet.input(&mut io, t(1.0), who, Input::Connected);
            assert_eq!(io.dialed.len(), (answered + CONNECT_BATCH).min(200));
        }
        assert_eq!(io.dialed, (0..200).collect::<Vec<_>>());
    }

    /// With `MAX_OPEN` connections held, each session docking, one more
    /// dial parks and is not due: no timer can admit it, so a driver
    /// sleeps. The first connection to close admits it.
    #[test]
    fn at_max_open_a_parked_dial_is_not_due_and_a_close_admits_it() {
        let (mut fleet, mut io) = (Fleet::default(), Record::default());
        for id in 0..=MAX_OPEN as u64 {
            fleet.join(AgentConfig::new("home", id + 1), t(0.0));
        }
        fleet.tick(&mut io, t(1.0));
        let work = assignment(5.0);
        let mut answered = 0;
        while answered < io.dialed.len() {
            let who = io.dialed[answered];
            fleet.input(&mut io, t(1.0), who, Input::Connected);
            fleet.input(&mut io, t(1.0), who, Input::Frame(hello_ack()));
            answered += 1;
        }
        let mut assigned = 0;
        while assigned < askers(&io).len() {
            let who = askers(&io)[assigned];
            fleet.input(&mut io, t(1.0), who, Input::Frame(work.clone()));
            assigned += 1;
        }
        assert_eq!((answered, assigned), (MAX_OPEN, MAX_OPEN));
        assert_eq!(fleet.owed(MAX_OPEN), &Owed::Dial);
        assert_eq!(fleet.next_due(t(1.0)), None, "a parked dial is due");
        fleet.input(&mut io, t(2.0), 0, Input::Lost);
        assert_eq!(io.dialed.len(), MAX_OPEN + 1);
        assert_eq!(io.dialed.last(), Some(&MAX_OPEN));
        assert_eq!(fleet.owed(0), &Owed::Dial);
    }

    /// A fleet is a value: a clone fed the same inputs (a reply, a lost
    /// connection, reply deadlines running out) stays `==`, and one other
    /// input makes it `!=`.
    #[test]
    fn a_cloned_fleet_fed_the_same_inputs_stays_equal() {
        let (mut fleet, _) = asking(20);
        let mut twin = fleet.clone();
        let inputs = |fleet: &mut Fleet| {
            let io = &mut Record::default();
            fleet.input(io, t(2.0), 3, Input::Frame(assignment(5.0)));
            fleet.input(io, t(2.5), 7, Input::Lost);
            fleet.tick(io, t(40.0));
        };
        inputs(&mut fleet);
        inputs(&mut twin);
        assert!(fleet == twin, "the same inputs, another fleet");
        assert!(fleet.timeouts > 0, "no reply deadline ran out");
        twin.input(&mut Record::default(), t(41.0), 3, Input::Lost);
        assert!(fleet != twin, "another input, the same fleet");
    }
}
