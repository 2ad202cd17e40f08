//! The discrete-event engine.
//!
//! Determinism matters more than raw speed here — ties are broken by a
//! monotonically increasing sequence number, so two runs with the same
//! seed produce byte-identical traces — but at paper scale (hundreds of
//! thousands of hosts, millions of pending events) raw speed matters
//! too. [`EventQueue`] is therefore backed by a hierarchical timing
//! wheel ([`crate::wheel`]): O(1) amortized schedule/pop against the
//! O(log n) sift of a binary heap, with no per-event allocation in
//! steady state.
//!
//! It is the simulator's only engine. Its contract — events pop in
//! increasing `(at, seq)` order, so equal timestamps pop FIFO — is
//! pinned from outside: `tests/event_engine_identity.rs` runs it against
//! a sorted-`Vec` oracle, holds five campaign traces to recorded
//! digests, and holds six synthetic fleets' pop orders to recorded
//! checksums.

use crate::wheel::TimingWheel;

/// Simulation time in seconds since campaign start.
///
/// A thin wrapper that provides the total order the engine needs (the
/// engine never stores NaN; [`SimTime::new`] rejects it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Wraps a second count.
    ///
    /// # Panics
    /// Panics on NaN or negative time.
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "bad sim time: {seconds}"
        );
        SimTime(seconds)
    }

    /// Seconds since simulation start.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Day index (0-based).
    pub fn day(self) -> usize {
        (self.0 / 86_400.0) as usize
    }

    /// Week index (0-based).
    pub fn week(self) -> usize {
        (self.0 / (7.0 * 86_400.0)) as usize
    }

    /// This time advanced by `seconds`.
    pub fn after(self, seconds: f64) -> SimTime {
        SimTime::new(self.0 + seconds)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The deterministic event queue, backed by a hierarchical timing wheel
/// (see [`crate::wheel`] for the layout and the determinism argument).
///
/// Events with equal timestamps pop in insertion order (FIFO), which
/// keeps simulations reproducible.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
    seq: u64,
    now: SimTime,
    len: usize,
    peak_len: usize,
    pops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            wheel: TimingWheel::new(),
            seq: 0,
            now: SimTime::ZERO,
            len: 0,
            peak_len: 0,
            pops: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.wheel.insert(at, self.seq, event);
        self.seq += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Schedules `event` `delay` seconds from the current time.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        let at = self.now.after(delay.max(0.0));
        self.schedule(at, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.wheel.pop_min()?;
        self.now = entry.at;
        self.pops += 1;
        self.len -= 1;
        Some((entry.at, entry.event))
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of simultaneously pending events so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total events popped so far (the engine's throughput numerator).
    pub fn pops(&self) -> u64 {
        self.pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), "c");
        q.schedule(SimTime::new(1.0), "a");
        q.schedule(SimTime::new(3.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(SimTime::new(7.0), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(2.0), ());
        q.schedule(SimTime::new(9.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().seconds(), 2.0);
        q.pop();
        assert_eq!(q.now().seconds(), 9.0);
        assert!(q.pop().is_none());
        assert_eq!(q.now().seconds(), 9.0);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(10.0), 0);
        q.pop();
        q.schedule_in(5.0, 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.seconds(), 15.0);
    }

    #[test]
    fn negative_delay_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(10.0), 0);
        q.pop();
        q.schedule_in(-3.0, 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.seconds(), 10.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(10.0), 0);
        q.pop();
        q.schedule(SimTime::new(5.0), 1);
    }

    #[test]
    fn time_helpers() {
        let t = SimTime::new(86_400.0 * 7.5);
        assert_eq!(t.day(), 7);
        assert_eq!(t.week(), 1);
        assert_eq!(t.after(86_400.0).day(), 8);
    }

    #[test]
    #[should_panic(expected = "bad sim time")]
    fn nan_time_rejected() {
        SimTime::new(f64::NAN);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::new(1.0), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peak_and_pops_track_traffic() {
        let mut q: EventQueue<u8> = EventQueue::new();
        for i in 0..3 {
            q.schedule(SimTime::new(i as f64), i);
        }
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.schedule(SimTime::new(10.0), 9);
        // Peak is a high-water mark; it does not shrink with pops.
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.pops(), 2);
    }

    #[test]
    fn reschedule_at_now_pops_after_current_ties() {
        // The engine's wake path schedules at exactly `now`+delay while
        // events at the same timestamp are still pending; FIFO must hold
        // across that insert-into-current-bucket path.
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(4.0), "a");
        q.schedule(SimTime::new(4.0), "b");
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, "a");
        q.schedule_in(0.0, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["b", "c"]);
    }
}
