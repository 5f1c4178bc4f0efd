//! Log-bucketed latency histogram (HDR-style).
//!
//! Records nanosecond-scale latencies with bounded relative error and
//! answers percentile queries — used by the client drivers to report the
//! median and P99 latencies of Figure 10.

/// Sub-buckets per power of two (relative error ≤ 1/32 ≈ 3%).
const SUBBUCKET_BITS: u32 = 5;
const SUBBUCKETS: usize = 1 << SUBBUCKET_BITS;
/// Covers values up to 2^40 ns ≈ 18 minutes.
const ORDERS: usize = 40;

/// A latency histogram over `u64` nanosecond values.
///
/// # Examples
///
/// ```
/// let mut h = utps_collections::LatencyHistogram::new();
/// for v in [100, 200, 300, 400, 1_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) >= 300 && h.percentile(50.0) <= 320);
/// assert!(h.percentile(99.9) >= 1_000_000);
/// ```
#[derive(Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; ORDERS * SUBBUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn index(value: u64) -> usize {
        let v = value.max(1);
        let order = (63 - v.leading_zeros()) as usize;
        if order < SUBBUCKET_BITS as usize {
            // Small values map 1:1 into the first buckets.
            return v as usize;
        }
        let sub = ((v >> (order as u32 - SUBBUCKET_BITS)) as usize) & (SUBBUCKETS - 1);
        let o = (order - SUBBUCKET_BITS as usize + 1).min(ORDERS - 1);
        o * SUBBUCKETS + sub
    }

    /// Representative (upper-bound) value of bucket `i`.
    fn bucket_value(i: usize) -> u64 {
        if i < SUBBUCKETS {
            return i as u64;
        }
        let o = (i / SUBBUCKETS) as u32;
        let sub = (i % SUBBUCKETS) as u64;
        (SUBBUCKETS as u64 + sub + 1) << (o - 1)
    }

    /// Records one latency observation (nanoseconds).
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at percentile `p` (0–100), with ≤ ~3% relative error.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl core::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "LatencyHistogram {{ n: {}, p50: {}, p99: {}, max: {} }}",
            self.count,
            self.percentile(50.0),
            self.percentile(99.0),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 1..=20u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 10);
        assert_eq!(h.percentile(100.0), 20);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 20);
        assert!((h.mean() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        let values: Vec<u64> = (0..10_000).map(|i| 1_000 + i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = values[((p / 100.0) * values.len() as f64) as usize - 1];
            let approx = h.percentile(p);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.05, "p{p}: exact {exact}, approx {approx}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = (i * 7919) % 100_000 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            assert_eq!(a.percentile(p), c.percentile(p));
        }
    }

    #[test]
    fn empty_and_reset() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) > 0);
    }
}
