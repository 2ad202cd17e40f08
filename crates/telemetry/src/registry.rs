//! The lock-free metrics registry.
//!
//! Metrics are interned by name: the first [`counter`]/[`gauge`]/
//! [`histogram`] call for a name allocates the metric and leaks it, so
//! every handle is `&'static` and updates are single relaxed atomic
//! operations — no lock is ever taken on the hot path. Call sites that
//! update inside tight loops (the event loop, the docking kernel) should
//! still resolve the handle once and cache it; resolution itself takes a
//! short registry lock.
//!
//! When the `enabled` feature is off, the same API compiles to zero-sized
//! no-ops.

use serde::{Deserialize, Serialize};

/// Point-in-time copy of every registered metric, serializable for run
/// manifests and round-trip tests.
///
/// Ordering is part of the contract: counters, gauges and histograms are
/// each sorted by name (byte order), so two snapshots of the same state
/// render identically — the Prometheus exposition built on top of this
/// ([`crate::exposition`]) is diff-able across scrapes and in CI.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name (sorted).
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name (sorted).
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries by name (sorted).
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Restores the sorted-by-name invariant. The registry produces
    /// sorted snapshots already; snapshots assembled by hand (tests,
    /// external tooling) call this before rendering.
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

/// Summary of one histogram's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Estimated 50th percentile (upper bound of the median's bucket).
    pub p50: u64,
    /// Estimated 99th percentile (upper bound of the bucket).
    pub p99: u64,
    /// Largest recorded value's bucket upper bound.
    pub max: u64,
    /// Occupied log₂ buckets as `(inclusive upper bound, count)` pairs,
    /// sorted by bound. Non-cumulative; the Prometheus exposition
    /// cumulates them into `_bucket{le=...}` series. Empty on snapshots
    /// taken before this field existed (the serde default).
    #[serde(default)]
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{HistogramSnapshot, MetricsSnapshot};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
    use std::sync::Mutex;

    /// A plain local count for a hot loop: tally into a stack value, then
    /// [`Counter::add`] the total once, instead of one atomic RMW per
    /// event.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Tally(u64);

    impl Tally {
        /// Adds `n`.
        #[inline(always)]
        pub fn add(&mut self, n: u64) {
            self.0 += n;
        }

        /// The count so far.
        #[inline(always)]
        pub fn get(self) -> u64 {
            self.0
        }
    }

    /// A monotonically increasing event count.
    #[derive(Debug, Default)]
    pub struct Counter(AtomicU64);

    impl Counter {
        /// Adds one.
        #[inline]
        pub fn inc(&self) {
            self.0.fetch_add(1, Relaxed);
        }

        /// Adds `n`.
        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Relaxed);
        }

        /// Current value.
        pub fn get(&self) -> u64 {
            self.0.load(Relaxed)
        }

        /// Resets to zero (tests/benches).
        pub fn reset(&self) {
            self.0.store(0, Relaxed);
        }
    }

    /// A signed instantaneous value (population size, queue depth, ...).
    #[derive(Debug, Default)]
    pub struct Gauge(AtomicI64);

    impl Gauge {
        /// Overwrites the value.
        #[inline]
        pub fn set(&self, v: i64) {
            self.0.store(v, Relaxed);
        }

        /// Raises the value to at least `v` (peak tracking).
        #[inline]
        pub fn record_max(&self, v: i64) {
            self.0.fetch_max(v, Relaxed);
        }

        /// Current value.
        pub fn get(&self) -> i64 {
            self.0.load(Relaxed)
        }

        /// Resets to zero (tests/benches).
        pub fn reset(&self) {
            self.0.store(0, Relaxed);
        }
    }

    /// Power-of-two bucket count: value `v` lands in bucket
    /// `bit_width(v)`, i.e. bucket `k` covers `[2^(k-1), 2^k)`.
    const BUCKETS: usize = 65;

    /// A fixed-bucket (log₂) histogram of `u64` samples.
    #[derive(Debug)]
    pub struct Histogram {
        buckets: [AtomicU64; BUCKETS],
        count: AtomicU64,
        sum: AtomicU64,
    }

    impl Default for Histogram {
        fn default() -> Self {
            Self {
                buckets: [0u64; BUCKETS].map(AtomicU64::new),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }
        }
    }

    impl Histogram {
        /// Records one sample.
        #[inline]
        pub fn record(&self, v: u64) {
            let bucket = (u64::BITS - v.leading_zeros()) as usize;
            self.buckets[bucket].fetch_add(1, Relaxed);
            self.count.fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
        }

        /// Records a duration as whole microseconds.
        #[inline]
        pub fn record_seconds(&self, seconds: f64) {
            self.record((seconds.max(0.0) * 1e6) as u64);
        }

        /// Number of recorded samples.
        pub fn count(&self) -> u64 {
            self.count.load(Relaxed)
        }

        /// Sum of recorded samples.
        pub fn sum(&self) -> u64 {
            self.sum.load(Relaxed)
        }

        /// Upper bound of the bucket containing quantile `q` (0..=1).
        pub fn quantile_bound(&self, q: f64) -> u64 {
            let total = self.count();
            if total == 0 {
                return 0;
            }
            let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (k, b) in self.buckets.iter().enumerate() {
                seen += b.load(Relaxed);
                if seen >= target {
                    return bucket_bound(k);
                }
            }
            bucket_bound(BUCKETS - 1)
        }

        /// Resets all buckets (tests/benches).
        pub fn reset(&self) {
            for b in &self.buckets {
                b.store(0, Relaxed);
            }
            self.count.store(0, Relaxed);
            self.sum.store(0, Relaxed);
        }

        fn snapshot(&self, name: &str) -> HistogramSnapshot {
            let max = self
                .buckets
                .iter()
                .enumerate()
                .rev()
                .find(|(_, b)| b.load(Relaxed) > 0)
                .map_or(0, |(k, _)| bucket_bound(k));
            let buckets = self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(k, b)| {
                    let n = b.load(Relaxed);
                    (n > 0).then(|| (bucket_bound(k), n))
                })
                .collect();
            HistogramSnapshot {
                name: name.to_string(),
                count: self.count(),
                sum: self.sum(),
                p50: self.quantile_bound(0.5),
                p99: self.quantile_bound(0.99),
                max,
                buckets,
            }
        }
    }

    /// Inclusive upper bound of bucket `k` (`2^k - 1`; bucket 0 holds 0).
    fn bucket_bound(k: usize) -> u64 {
        if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    struct Registry {
        counters: BTreeMap<&'static str, &'static Counter>,
        gauges: BTreeMap<&'static str, &'static Gauge>,
        histograms: BTreeMap<&'static str, &'static Histogram>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
        REGISTRY.get_or_init(|| {
            Mutex::new(Registry {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            })
        })
    }

    /// Interns the counter `name`, creating it on first use.
    pub fn counter(name: &'static str) -> &'static Counter {
        let mut r = registry().lock().unwrap();
        r.counters
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::default())))
    }

    /// Interns the gauge `name`, creating it on first use.
    pub fn gauge(name: &'static str) -> &'static Gauge {
        let mut r = registry().lock().unwrap();
        r.gauges
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Gauge::default())))
    }

    /// Interns the histogram `name`, creating it on first use.
    pub fn histogram(name: &'static str) -> &'static Histogram {
        let mut r = registry().lock().unwrap();
        r.histograms
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::default())))
    }

    /// Copies every registered metric.
    pub fn snapshot() -> MetricsSnapshot {
        let r = registry().lock().unwrap();
        MetricsSnapshot {
            counters: r
                .counters
                .iter()
                .map(|(n, c)| (n.to_string(), c.get()))
                .collect(),
            gauges: r
                .gauges
                .iter()
                .map(|(n, g)| (n.to_string(), g.get()))
                .collect(),
            histograms: r.histograms.iter().map(|(n, h)| h.snapshot(n)).collect(),
        }
    }

    /// Zeroes every registered metric (tests/benches; handles stay valid).
    pub fn reset() {
        let r = registry().lock().unwrap();
        for c in r.counters.values() {
            c.reset();
        }
        for g in r.gauges.values() {
            g.reset();
        }
        for h in r.histograms.values() {
            h.reset();
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::MetricsSnapshot;

    /// No-op local count (telemetry disabled): zero-sized, so a hot
    /// loop that tallies compiles to the loop without it.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct Tally;

    impl Tally {
        /// No-op.
        #[inline(always)]
        pub fn add(&mut self, _n: u64) {}
        /// Always zero.
        #[inline(always)]
        pub fn get(self) -> u64 {
            0
        }
    }

    /// No-op counter (telemetry disabled).
    #[derive(Debug, Default)]
    pub struct Counter;

    impl Counter {
        /// No-op.
        #[inline(always)]
        pub fn inc(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn add(&self, _n: u64) {}
        /// Always zero.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
        /// No-op.
        pub fn reset(&self) {}
    }

    /// No-op gauge (telemetry disabled).
    #[derive(Debug, Default)]
    pub struct Gauge;

    impl Gauge {
        /// No-op.
        #[inline(always)]
        pub fn set(&self, _v: i64) {}
        /// No-op.
        #[inline(always)]
        pub fn record_max(&self, _v: i64) {}
        /// Always zero.
        #[inline(always)]
        pub fn get(&self) -> i64 {
            0
        }
        /// No-op.
        pub fn reset(&self) {}
    }

    /// No-op histogram (telemetry disabled).
    #[derive(Debug, Default)]
    pub struct Histogram;

    impl Histogram {
        /// No-op.
        #[inline(always)]
        pub fn record(&self, _v: u64) {}
        /// No-op.
        #[inline(always)]
        pub fn record_seconds(&self, _seconds: f64) {}
        /// Always zero.
        pub fn count(&self) -> u64 {
            0
        }
        /// Always zero.
        pub fn sum(&self) -> u64 {
            0
        }
        /// Always zero.
        pub fn quantile_bound(&self, _q: f64) -> u64 {
            0
        }
        /// No-op.
        pub fn reset(&self) {}
    }

    static NOOP_COUNTER: Counter = Counter;
    static NOOP_GAUGE: Gauge = Gauge;
    static NOOP_HISTOGRAM: Histogram = Histogram;

    /// Returns the shared no-op counter.
    #[inline(always)]
    pub fn counter(_name: &'static str) -> &'static Counter {
        &NOOP_COUNTER
    }

    /// Returns the shared no-op gauge.
    #[inline(always)]
    pub fn gauge(_name: &'static str) -> &'static Gauge {
        &NOOP_GAUGE
    }

    /// Returns the shared no-op histogram.
    #[inline(always)]
    pub fn histogram(_name: &'static str) -> &'static Histogram {
        &NOOP_HISTOGRAM
    }

    /// Empty snapshot (telemetry disabled).
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// No-op.
    pub fn reset() {}
}

pub use imp::{counter, gauge, histogram, reset, snapshot, Counter, Gauge, Histogram, Tally};

/// Renders every registered metric as a human-readable table (used by the
/// `full_report` binary's observability appendix).
pub fn summary() -> String {
    let snap = snapshot();
    let mut out = String::new();
    out.push_str("telemetry summary\n");
    if !crate::ENABLED {
        out.push_str("  (disabled: build with `--features telemetry`)\n");
        return out;
    }
    if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
        out.push_str("  (no metrics recorded)\n");
        return out;
    }
    if !snap.counters.is_empty() {
        out.push_str("  counters\n");
        for (name, v) in &snap.counters {
            out.push_str(&format!("    {name:<44} {v:>14}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("  gauges\n");
        for (name, v) in &snap.gauges {
            out.push_str(&format!("    {name:<44} {v:>14}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("  histograms (log2 buckets; bounds are bucket tops)\n");
        out.push_str(&format!(
            "    {:<32} {:>10} {:>12} {:>12} {:>12}\n",
            "name", "count", "p50<=", "p99<=", "max<="
        ));
        for h in &snap.histograms {
            out.push_str(&format!(
                "    {:<32} {:>10} {:>12} {:>12} {:>12}\n",
                h.name, h.count, h.p50, h.p99, h.max
            ));
        }
    }
    out
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn counters_count() {
        let c = counter("test.registry.counter");
        c.reset();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Interning returns the same handle.
        assert!(std::ptr::eq(c, counter("test.registry.counter")));
    }

    #[test]
    fn gauges_set_and_peak() {
        let g = gauge("test.registry.gauge");
        g.reset();
        g.set(7);
        g.record_max(3);
        assert_eq!(g.get(), 7);
        g.record_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = histogram("test.registry.hist");
        h.reset();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1107);
        // Median sample is 2 → bucket [2,4) → bound 3.
        assert_eq!(h.quantile_bound(0.5), 3);
        assert!(h.quantile_bound(1.0) >= 1000);
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        counter("test.registry.snap").inc();
        let s = snapshot();
        assert!(s.counters.iter().any(|(n, _)| n == "test.registry.snap"));
    }

    #[test]
    fn summary_renders() {
        counter("test.registry.summary").inc();
        let s = summary();
        assert!(s.contains("test.registry.summary"));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let c = counter("test.registry.concurrent");
        c.reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
