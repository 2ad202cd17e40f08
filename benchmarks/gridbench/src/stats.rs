//! Order statistics for the harness: medians with quartiles and sample
//! counts, and the percentile picker that refuses to report a tail the
//! sample cannot support.

/// Median, quartiles and count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Some(Self {
            median,
            q1,
            q3,
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// regression bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of unsorted values (0.0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// `(q1, median, q3)` of sorted values, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the
/// harness's spreads are the numbers an outside checker computes.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let m = sorted.len();
    match m {
        0 => return (0.0, 0.0, 0.0),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile `p` (0–100) of sorted samples.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 / 99.99 that
/// still has at least [`MIN_TAIL_SAMPLES`] samples beyond it; `None` when
/// even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it) — integer
    // arithmetic, so n = 100 supports p90 exactly.
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| n / one_in >= MIN_TAIL_SAMPLES)
    .map(|(p, _)| p)
}

/// Latency samples in nanoseconds, pooled over every repetition of a
/// run. `u32` holds 4.29 s, far beyond any loopback round trip, at half
/// the memory of `u64` (a wire run pools a few hundred thousand).
#[derive(Debug, Default, Clone)]
pub struct LatencyPool {
    ns: Vec<u32>,
}

impl LatencyPool {
    pub fn push(&mut self, d: std::time::Duration) {
        self.ns
            .push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn extend(&mut self, other: &LatencyPool) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The samples as little-endian `u32`s — how a child process hands
    /// its pool to the parent that pools both passes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.ns.iter().flat_map(|ns| ns.to_le_bytes()).collect()
    }

    pub fn from_bytes(bytes: &[u8]) -> Self {
        Self {
            ns: bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Percentile `p` in microseconds; `None` for an empty pool.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, p).map(|ns| f64::from(ns) / 1e3)
    }

    /// Percentile `p` in microseconds; `None` unless the pool supports it
    /// (see [`highest_supported_percentile`]). A metric named after a
    /// percentile is that percentile or is not reported.
    pub fn supported_percentile_us(&self, p: f64) -> Option<f64> {
        if highest_supported_percentile(self.len())? >= p {
            self.percentile_us(p)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn pool_reports_only_percentiles_it_supports() {
        let mut pool = LatencyPool::default();
        for i in 1..=200u64 {
            pool.push(std::time::Duration::from_micros(i));
        }
        // 200 samples support p90 (20 beyond), not p99 (2 beyond).
        assert_eq!(pool.supported_percentile_us(99.0), None);
        assert_eq!(pool.supported_percentile_us(90.0), Some(180.0));
        assert_eq!(pool.supported_percentile_us(50.0), Some(100.0));
        assert_eq!(pool.percentile_us(99.0), Some(198.0));
        let back = LatencyPool::from_bytes(&pool.to_bytes());
        assert_eq!(back.len(), 200);
        assert_eq!(back.percentile_us(50.0), Some(100.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 3.0, 4.5, 5));
        assert_eq!(s.spread(), 3.5 / 3.0);
    }
}
