//! Hierarchical timing wheel — the engine's pending-event store.
//!
//! A calendar-queue layout tuned for campaign simulations: most events
//! land within minutes-to-days of the clock, a long tail (replica
//! deadlines) lands about ten days out, and only pathological
//! configurations schedule months ahead. Three tiers cover that
//! distribution with O(1) amortized insert and pop:
//!
//! * **near wheel** — 4096 (`NEAR_SLOTS`) buckets of one tick
//!   ([`TICK_SECONDS`] = 1 s) each, covering the window currently being
//!   drained (~68 minutes);
//! * **coarse wheel** — 4096 (`COARSE_SLOTS`) buckets, each holding one
//!   full near window (4096 s), covering ~194 days ahead;
//! * **spill list** — a sorted `Vec` for anything farther out.
//!
//! Buckets are plain `Vec`s recycled through a free pool, so steady-state
//! scheduling performs no allocation; occupancy bitmaps make the
//! next-bucket scan a handful of word tests.
//!
//! # Determinism
//!
//! The wheel pops entries in strictly increasing `(at, seq)` order — the
//! order of a list sorted by `(at, seq)`, which is the oracle
//! `tests/event_engine_identity.rs` checks it against — so the layout
//! below cannot change a simulation trace by a byte:
//!
//! 1. Buckets are drained in tick order, and a bucket is sorted by
//!    `(at, seq)` the moment it becomes current; `(at, seq)` keys are
//!    unique, so even an unstable sort is deterministic.
//! 2. Entries scheduled *into* the bucket being drained (the engine
//!    frequently schedules at or just after `now`) are placed by binary
//!    search, preserving the order. Such entries can never sort before
//!    the drain point because scheduling into the past is rejected.
//! 3. Cascading a coarse bucket or a spill group redistributes entries
//!    without consulting their arrival order; the sort at drain time
//!    makes the redistribution order immaterial.

use crate::event::SimTime;

/// log₂ of the near-wheel slot count.
const NEAR_LOG2: u32 = 12;
/// Near-wheel slots: one tick each.
const NEAR_SLOTS: usize = 1 << NEAR_LOG2;
/// log₂ of the coarse-wheel slot count.
const COARSE_LOG2: u32 = 12;
/// Coarse-wheel slots: one near window (NEAR_SLOTS ticks) each.
const COARSE_SLOTS: usize = 1 << COARSE_LOG2;
/// Tick width in simulated seconds.
pub const TICK_SECONDS: f64 = 1.0;
/// Bitmap words per wheel level.
const WORDS: usize = NEAR_SLOTS / 64;
/// Recycled bucket `Vec`s kept around (caps steady-state allocation
/// without hoarding memory after a burst).
const FREE_POOL_MAX: usize = 64;
/// `current_tick` sentinel meaning "no bucket drained yet"; unreachable
/// as a real tick (simulated times are far below 2^53 seconds).
const NO_TICK: u64 = u64::MAX;

/// A pending event: timestamp, FIFO tie-breaker, payload — stored inline
/// in bucket `Vec`s (no per-event box).
#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub at: SimTime,
    pub seq: u64,
    pub event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Tick index of a timestamp (floor; times are non-negative).
#[inline]
fn tick_of(at: SimTime) -> u64 {
    (at.seconds() / TICK_SECONDS) as u64
}

/// The three-tier wheel. Pure container: the clock, sequence counter and
/// statistics live in [`crate::event::EventQueue`].
#[derive(Debug)]
pub(crate) struct TimingWheel<E> {
    /// One-tick buckets for the window `[cbase·4096, (cbase+1)·4096)`.
    near: Box<[Vec<Entry<E>>]>,
    /// One-window buckets for windows `(cbase, cbase + COARSE_SLOTS]`.
    coarse: Box<[Vec<Entry<E>>]>,
    near_occ: [u64; WORDS],
    coarse_occ: [u64; WORDS],
    /// Coarse tick (absolute) of the window mapped onto the near wheel.
    cbase: u64,
    /// Next near slot to scan; slots below it are drained.
    cursor: usize,
    /// The bucket being drained, sorted descending by `(at, seq)` so the
    /// minimum pops from the back.
    current: Vec<Entry<E>>,
    /// Absolute tick of `current` ([`NO_TICK`] before the first drain).
    current_tick: u64,
    /// Far-future entries, sorted descending by `(at, seq)`.
    spill: Vec<Entry<E>>,
    /// Recycled bucket storage.
    free: Vec<Vec<Entry<E>>>,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    pub fn new() -> Self {
        Self {
            near: (0..NEAR_SLOTS).map(|_| Vec::new()).collect(),
            coarse: (0..COARSE_SLOTS).map(|_| Vec::new()).collect(),
            near_occ: [0; WORDS],
            coarse_occ: [0; WORDS],
            cbase: 0,
            cursor: 0,
            current: Vec::new(),
            current_tick: NO_TICK,
            spill: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Inserts an entry. The caller guarantees `at` is not in the past
    /// (i.e. `at >= now` of the owning queue), which is what keeps every
    /// insert inside or ahead of the drain frontier.
    pub fn insert(&mut self, at: SimTime, seq: u64, event: E) {
        let tick = tick_of(at);
        let entry = Entry { at, seq, event };
        if tick == self.current_tick {
            // Into the bucket being drained: placed by binary search so
            // the descending order (and thus pop order) is preserved.
            let key = entry.key();
            let idx = self.current.partition_point(|e| e.key() > key);
            self.current.insert(idx, entry);
            return;
        }
        let window = tick >> NEAR_LOG2;
        if window == self.cbase {
            self.push_near(tick, entry);
        } else if window - self.cbase <= COARSE_SLOTS as u64 {
            // Windows cbase+1 ..= cbase+COARSE_SLOTS map onto the ring
            // without collision (consecutive values mod COARSE_SLOTS).
            let s = (window & (COARSE_SLOTS as u64 - 1)) as usize;
            let slot = &mut self.coarse[s];
            if slot.capacity() == 0 {
                if let Some(v) = self.free.pop() {
                    *slot = v;
                }
            }
            slot.push(entry);
            self.coarse_occ[s >> 6] |= 1 << (s & 63);
        } else {
            // Beyond the coarse horizon (~194 days): sorted spill list.
            let key = entry.key();
            let idx = self.spill.partition_point(|e| e.key() > key);
            self.spill.insert(idx, entry);
        }
    }

    /// Removes and returns the entry with the smallest `(at, seq)`.
    pub fn pop_min(&mut self) -> Option<Entry<E>> {
        loop {
            if let Some(e) = self.current.pop() {
                return Some(e);
            }
            // Drain the next occupied near bucket into `current`.
            if let Some(s) = first_occupied(&self.near_occ, self.cursor) {
                let mut bucket = std::mem::take(&mut self.near[s]);
                self.near_occ[s >> 6] &= !(1 << (s & 63));
                // Unique (at, seq) keys: unstable sort is deterministic.
                bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                let drained = std::mem::replace(&mut self.current, bucket);
                self.recycle(drained);
                self.current_tick = (self.cbase << NEAR_LOG2) + s as u64;
                self.cursor = s + 1;
                continue;
            }
            // Near wheel exhausted: cascade the earliest coarse window
            // (or spill group) down and keep draining.
            self.advance()?;
        }
    }

    /// Maps the earliest pending coarse window (and any spill entries in
    /// that window) onto the near wheel. Returns `None` when nothing is
    /// pending anywhere.
    fn advance(&mut self) -> Option<()> {
        let next_coarse = self.earliest_coarse_window();
        let next_spill = self.spill.last().map(|e| tick_of(e.at) >> NEAR_LOG2);
        let window = match (next_coarse, next_spill) {
            (Some(c), Some(s)) => c.min(s),
            (Some(c), None) => c,
            (None, Some(s)) => s,
            (None, None) => return None,
        };
        self.cbase = window;
        self.cursor = 0;
        if next_coarse == Some(window) {
            let s = (window & (COARSE_SLOTS as u64 - 1)) as usize;
            let mut bucket = std::mem::take(&mut self.coarse[s]);
            self.coarse_occ[s >> 6] &= !(1 << (s & 63));
            for e in bucket.drain(..) {
                let t = tick_of(e.at);
                self.push_near(t, e);
            }
            self.recycle(bucket);
        }
        if next_spill == Some(window) {
            // The spill list is sorted descending, so the earliest
            // window's entries form a suffix.
            while self
                .spill
                .last()
                .is_some_and(|e| tick_of(e.at) >> NEAR_LOG2 == window)
            {
                let e = self.spill.pop().expect("spill suffix non-empty");
                let t = tick_of(e.at);
                self.push_near(t, e);
            }
        }
        Some(())
    }

    /// Smallest absolute coarse window with pending entries.
    fn earliest_coarse_window(&self) -> Option<u64> {
        let mask = COARSE_SLOTS as u64 - 1;
        let start = ((self.cbase + 1) & mask) as usize;
        let s = first_occupied_ring(&self.coarse_occ, start)?;
        let offset = (s as u64).wrapping_sub(start as u64) & mask;
        Some(self.cbase + 1 + offset)
    }

    fn push_near(&mut self, tick: u64, entry: Entry<E>) {
        let s = (tick & (NEAR_SLOTS as u64 - 1)) as usize;
        let slot = &mut self.near[s];
        if slot.capacity() == 0 {
            if let Some(v) = self.free.pop() {
                *slot = v;
            }
        }
        slot.push(entry);
        self.near_occ[s >> 6] |= 1 << (s & 63);
    }

    fn recycle(&mut self, mut bucket: Vec<Entry<E>>) {
        debug_assert!(bucket.is_empty());
        if bucket.capacity() > 0 && self.free.len() < FREE_POOL_MAX {
            bucket.clear();
            self.free.push(bucket);
        }
    }
}

/// First set bit at index `>= from`, scanning to the end (no wrap).
fn first_occupied(bits: &[u64; WORDS], from: usize) -> Option<usize> {
    if from >= WORDS * 64 {
        return None;
    }
    let mut w = from >> 6;
    let mut word = bits[w] & (!0u64 << (from & 63));
    loop {
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == WORDS {
            return None;
        }
        word = bits[w];
    }
}

/// First set bit in ring order starting at `start` (wraps once).
fn first_occupied_ring(bits: &[u64; WORDS], start: usize) -> Option<usize> {
    if let Some(s) = first_occupied(bits, start) {
        return Some(s);
    }
    first_occupied(bits, 0).filter(|&s| s < start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(w: &mut TimingWheel<E>) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| w.pop_min().map(|e| (e.at.seconds(), e.seq))).collect()
    }

    #[test]
    fn pops_in_at_seq_order_across_tiers() {
        let mut w = TimingWheel::new();
        // Near (same window), coarse (days ahead), spill (a year ahead).
        w.insert(SimTime::new(10.0), 0, ());
        w.insert(SimTime::new(400.0 * 86_400.0), 1, ());
        w.insert(SimTime::new(5.0 * 86_400.0), 2, ());
        w.insert(SimTime::new(10.0), 3, ());
        let order = drain(&mut w);
        assert_eq!(
            order,
            vec![
                (10.0, 0),
                (10.0, 3),
                (5.0 * 86_400.0, 2),
                (400.0 * 86_400.0, 1)
            ]
        );
    }

    #[test]
    fn same_tick_different_times_sort_by_time() {
        let mut w = TimingWheel::new();
        // All in tick 7 (one-second bucket), scheduled out of order.
        w.insert(SimTime::new(7.9), 0, ());
        w.insert(SimTime::new(7.1), 1, ());
        w.insert(SimTime::new(7.5), 2, ());
        assert_eq!(drain(&mut w), vec![(7.1, 1), (7.5, 2), (7.9, 0)]);
    }

    #[test]
    fn insert_into_current_bucket_keeps_order() {
        let mut w = TimingWheel::new();
        w.insert(SimTime::new(3.2), 0, ());
        w.insert(SimTime::new(3.8), 1, ());
        let first = w.pop_min().unwrap();
        assert_eq!(first.seq, 0);
        // The bucket for tick 3 is now current; insert into its middle
        // and at its tie point.
        w.insert(SimTime::new(3.5), 2, ());
        w.insert(SimTime::new(3.8), 3, ()); // ties FIFO after seq 1
        assert_eq!(drain(&mut w), vec![(3.5, 2), (3.8, 1), (3.8, 3)]);
    }

    #[test]
    fn window_boundary_ticks_stay_ordered() {
        let mut w = TimingWheel::new();
        let window = (NEAR_SLOTS as f64) * TICK_SECONDS;
        w.insert(SimTime::new(window), 0, ()); // first tick of window 1
        w.insert(SimTime::new(window - 1.0), 1, ()); // last tick of window 0
        w.insert(SimTime::new(2.0 * window - 0.5), 2, ()); // last tick of window 1
        let order = drain(&mut w);
        assert_eq!(
            order,
            vec![(window - 1.0, 1), (window, 0), (2.0 * window - 0.5, 2)]
        );
    }

    #[test]
    fn far_future_entries_spill_and_come_back_in_order() {
        let mut w = TimingWheel::new();
        // First tick strictly beyond the coarse horizon as seen from
        // window 0: window index COARSE_SLOTS + 1.
        let spill_start = (NEAR_SLOTS * (COARSE_SLOTS + 1)) as f64 * TICK_SECONDS;
        w.insert(SimTime::new(spill_start + 10.0), 0, ());
        w.insert(SimTime::new(5.0), 1, ());
        w.insert(SimTime::new(spill_start + 3.0), 2, ());
        w.insert(SimTime::new(spill_start + 10.0), 3, ()); // FIFO tie with seq 0
        assert_eq!(
            drain(&mut w),
            vec![
                (5.0, 1),
                (spill_start + 3.0, 2),
                (spill_start + 10.0, 0),
                (spill_start + 10.0, 3)
            ]
        );
    }

    #[test]
    fn bucket_vecs_are_recycled() {
        let mut w = TimingWheel::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                w.insert(SimTime::new(round as f64 * 16.0 + (i % 16) as f64), i, i);
            }
            while w.pop_min().is_some() {}
        }
        assert!(!w.free.is_empty(), "drained buckets should reach the pool");
        assert!(w.free.len() <= FREE_POOL_MAX);
    }

    #[test]
    fn bitmap_scans() {
        let mut bits = [0u64; WORDS];
        assert_eq!(first_occupied(&bits, 0), None);
        bits[1] |= 1 << 3; // index 67
        assert_eq!(first_occupied(&bits, 0), Some(67));
        assert_eq!(first_occupied(&bits, 67), Some(67));
        assert_eq!(first_occupied(&bits, 68), None);
        assert_eq!(first_occupied_ring(&bits, 68), Some(67));
        assert_eq!(first_occupied(&bits, WORDS * 64), None);
    }
}
