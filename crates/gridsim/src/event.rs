//! The discrete-event engine.
//!
//! Determinism matters more than raw speed here — ties are broken by a
//! monotonically increasing sequence number, so two runs with the same
//! seed produce byte-identical traces — but at paper scale (hundreds of
//! thousands of hosts, millions of pending events) raw speed matters
//! too. The default [`EventQueue`] is therefore backed by a hierarchical
//! timing wheel ([`crate::wheel`]): O(1) amortized schedule/pop against
//! the O(log n) sift of a binary heap, with no per-event allocation in
//! steady state.
//!
//! A `BinaryHeap` engine, [`HeapQueue`], is the reference the wheel is
//! checked against: both implement [`Scheduler`] and must pop in exactly
//! the same `(at, seq)` order, which `tests/event_engine_identity.rs`,
//! the wheel's proptest and the `sim_scale` bench assert. It is public
//! because integration tests cannot see `#[cfg(test)]` items.

use crate::wheel::TimingWheel;
use std::collections::BinaryHeap;

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

/// A deterministic time-ordered event queue.
///
/// Both engine implementations ([`EventQueue`], [`HeapQueue`]) satisfy
/// the same two hard invariants:
///
/// 1. events pop in increasing `(at, seq)` order;
/// 2. events with equal timestamps pop in insertion order (FIFO).
///
/// Together these make the pop sequence a pure function of the schedule
/// sequence, so swapping implementations cannot change a trace.
pub trait Scheduler<E>: Default {
    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before the last popped event).
    fn schedule(&mut self, at: SimTime, event: E);

    /// Schedules `event` `delay` seconds from the current time
    /// (negative delays clamp to now).
    fn schedule_in(&mut self, delay: f64, event: E);

    /// Pops the next event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// The current simulation time (timestamp of the last popped event).
    fn now(&self) -> SimTime;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of simultaneously pending events so far.
    fn peak_len(&self) -> usize;

    /// Total events popped so far (the engine's throughput numerator).
    fn pops(&self) -> u64;
}

/// Pops between telemetry samples of the queue counters (power of two;
/// the sampled flush keeps the hot loop free of atomics).
const TELEMETRY_STRIDE: u64 = 1024;

/// Cached handles for the engine's sampled metrics — zero-sized no-ops
/// when the `telemetry` feature is off.
#[derive(Debug)]
struct QueueTelemetry {
    popped: &'static telemetry::Counter,
    depth: &'static telemetry::Gauge,
    /// Pops already published to `popped` (counters are process-global;
    /// several queues may live in one process).
    flushed: u64,
}

impl QueueTelemetry {
    fn new() -> Self {
        Self {
            popped: telemetry::counter("sim.events.popped"),
            depth: telemetry::gauge("sim.queue.depth"),
            flushed: 0,
        }
    }
}

/// The default deterministic event queue, backed by a hierarchical
/// timing wheel (see [`crate::wheel`] for the layout and the
/// determinism argument).
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
    tele: QueueTelemetry,
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
            tele: QueueTelemetry::new(),
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
        // Sampled gauge/counter flush: one branch per pop, atomics only
        // every TELEMETRY_STRIDE pops, nothing at all when the feature
        // is compiled out (ENABLED is a const false).
        if telemetry::ENABLED && self.pops & (TELEMETRY_STRIDE - 1) == 0 {
            self.tele.popped.add(self.pops - self.tele.flushed);
            self.tele.flushed = self.pops;
            self.tele.depth.set(self.len as i64);
        }
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

impl<E> Scheduler<E> for EventQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        EventQueue::schedule(self, at, event);
    }
    fn schedule_in(&mut self, delay: f64, event: E) {
        EventQueue::schedule_in(self, delay, event);
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn peak_len(&self) -> usize {
        EventQueue::peak_len(self)
    }
    fn pops(&self) -> u64 {
        EventQueue::pops(self)
    }
}

/// The `BinaryHeap` engine: the reference implementation the timing
/// wheel's pop order is compared against (`sim_scale` bench,
/// engine-identity tests). O(log n) schedule/pop with one
/// comparison-heavy sift per operation.
#[derive(Debug)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    seq: u64,
    now: SimTime,
    peak_len: usize,
    pops: u64,
}

/// A heap entry: timestamp, FIFO tie-breaker, and the payload.
///
/// The ordering ignores the payload entirely and is *reversed* on
/// `(at, seq)` so `BinaryHeap` (a max-heap) pops the earliest event
/// first, with equal timestamps resolved in insertion order.
#[derive(Debug)]
struct ScheduledEvent<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
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
        self.heap.push(ScheduledEvent {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Schedules `event` `delay` seconds from the current time.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        let at = self.now.after(delay.max(0.0));
        self.schedule(at, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ScheduledEvent { at, event, .. } = self.heap.pop()?;
        self.now = at;
        self.pops += 1;
        Some((at, event))
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of simultaneously pending events so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total events popped so far.
    pub fn pops(&self) -> u64 {
        self.pops
    }
}

impl<E> Scheduler<E> for HeapQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        HeapQueue::schedule(self, at, event);
    }
    fn schedule_in(&mut self, delay: f64, event: E) {
        HeapQueue::schedule_in(self, delay, event);
    }
    fn pop(&mut self) -> Option<(SimTime, E)> {
        HeapQueue::pop(self)
    }
    fn now(&self) -> SimTime {
        HeapQueue::now(self)
    }
    fn len(&self) -> usize {
        HeapQueue::len(self)
    }
    fn peak_len(&self) -> usize {
        HeapQueue::peak_len(self)
    }
    fn pops(&self) -> u64 {
        HeapQueue::pops(self)
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

    /// Runs the same deterministic mixed workload through both engines
    /// and asserts identical pop sequences — near ticks, same-timestamp
    /// storms, day-scale jumps, 10-day deadlines, far-future spills.
    #[test]
    fn wheel_and_heap_pop_identically() {
        fn workload<S: Scheduler<u32>>() -> Vec<(u64, u32)> {
            let mut q = S::default();
            let mut out = Vec::new();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..400u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let delay = match x % 7 {
                    0 => 0.0,
                    1 => 1.0,
                    2 => (x >> 32) as f64 % 300.0,
                    3 => 86_400.0,
                    4 => 10.0 * 86_400.0,
                    5 => 250.0 * 86_400.0,
                    _ => 400.0 * 86_400.0,
                };
                q.schedule_in(delay, i);
                if x.is_multiple_of(3) {
                    if let Some((t, e)) = q.pop() {
                        out.push((t.seconds().to_bits(), e));
                    }
                }
            }
            while let Some((t, e)) = q.pop() {
                out.push((t.seconds().to_bits(), e));
            }
            out
        }
        assert_eq!(workload::<EventQueue<u32>>(), workload::<HeapQueue<u32>>());
    }

    #[test]
    fn heap_queue_keeps_the_legacy_semantics() {
        let mut q = HeapQueue::new();
        q.schedule(SimTime::new(5.0), "b");
        q.schedule(SimTime::new(5.0), "c");
        q.schedule(SimTime::new(1.0), "a");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peak_len(), 3);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.pops(), 3);
        assert_eq!(q.now().seconds(), 5.0);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn heap_queue_rejects_past_schedules() {
        let mut q = HeapQueue::new();
        q.schedule(SimTime::new(10.0), 0);
        q.pop();
        q.schedule(SimTime::new(5.0), 1);
    }
}
