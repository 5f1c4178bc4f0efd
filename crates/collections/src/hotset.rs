//! Hot-set identification: sampling → count-min sketch → top-K.
//!
//! This is the background pipeline of §3.2.2: worker threads deposit sampled
//! keys, and a management thread periodically snapshots the hottest K items
//! and refreshes the cache-resident layer's hot cache through an epoch-based
//! switch. Between refreshes the sketch is decayed so the tracker follows
//! hot-set shifts instead of accumulating history forever.

use crate::sketch::CountMinSketch;
use crate::topk::TopK;

/// Tracks approximate key popularity and reports the current hottest keys.
///
/// # Examples
///
/// ```
/// let mut t = utps_collections::HotSetTracker::new(1024, 4, 3);
/// for _ in 0..50 { t.record(7); }
/// for _ in 0..30 { t.record(8); }
/// t.record(9);
/// let hot: Vec<u64> = t.hottest(2).into_iter().map(|(k, _)| k).collect();
/// assert_eq!(hot, vec![7, 8]);
/// ```
#[derive(Clone, Debug)]
pub struct HotSetTracker {
    sketch: CountMinSketch,
    topk: TopK,
    samples: u64,
}

impl HotSetTracker {
    /// Creates a tracker with a `width`×`depth` sketch tracking up to `k`
    /// hot candidates (the paper tracks 10 K items).
    pub fn new(width: usize, depth: usize, k: usize) -> Self {
        HotSetTracker {
            sketch: CountMinSketch::new(width, depth),
            topk: TopK::new(k),
            samples: 0,
        }
    }

    /// Records one sampled access to `key`.
    pub fn record(&mut self, key: u64) {
        self.samples += 1;
        let est = self.sketch.increment(key);
        self.topk.offer(key, est);
    }

    /// Total samples recorded since the last [`HotSetTracker::refresh`].
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The hottest `n` keys with estimated counts, hottest first.
    ///
    /// `n` may exceed the tracker's `k`; at most `k` items are returned.
    pub fn hottest(&self, n: usize) -> Vec<(u64, u32)> {
        let mut v = self.topk.sorted_desc();
        v.truncate(n);
        v
    }

    /// Whether `key` is currently among the tracked hot candidates.
    #[cfg(test)]
    pub(crate) fn is_hot_candidate(&self, key: u64) -> bool {
        self.topk.contains(key)
    }

    /// Ages the tracker: halves sketch counters and rebuilds the top-K from
    /// decayed estimates. Call at each hot-set refresh period.
    pub fn refresh(&mut self) {
        self.sketch.decay();
        let survivors = self.topk.items();
        self.topk.clear();
        for (key, _) in survivors {
            let est = self.sketch.estimate(key);
            if est > 0 {
                self.topk.offer(key, est);
            }
        }
        self.samples = 0;
    }

    /// Approximate memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.sketch.bytes() + self.topk.capacity() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifies_zipf_like_head() {
        let mut t = HotSetTracker::new(4096, 4, 10);
        // Key k gets ~1000/k accesses: a crude zipf head.
        for k in 1..=100u64 {
            for _ in 0..(1000 / k) {
                t.record(k);
            }
        }
        let hot: Vec<u64> = t.hottest(5).into_iter().map(|(k, _)| k).collect();
        assert_eq!(hot, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn refresh_decays_and_allows_new_hot_keys() {
        let mut t = HotSetTracker::new(1024, 4, 2);
        for _ in 0..1000 {
            t.record(1);
        }
        for _ in 0..900 {
            t.record(2);
        }
        assert!(t.is_hot_candidate(1) && t.is_hot_candidate(2));
        // The workload shifts: after several decays, key 3 overtakes.
        for _ in 0..6 {
            t.refresh();
        }
        for _ in 0..200 {
            t.record(3);
        }
        let hot: Vec<u64> = t.hottest(1).into_iter().map(|(k, _)| k).collect();
        assert_eq!(hot, vec![3], "tracker failed to follow the shift");
    }

    #[test]
    fn hottest_truncates() {
        let mut t = HotSetTracker::new(256, 2, 4);
        for k in 0..10u64 {
            t.record(k);
        }
        assert_eq!(t.hottest(100).len(), 4);
        assert_eq!(t.hottest(2).len(), 2);
    }

    #[test]
    fn sample_counter_resets_on_refresh() {
        let mut t = HotSetTracker::new(64, 2, 2);
        t.record(5);
        t.record(5);
        assert_eq!(t.samples(), 2);
        t.refresh();
        assert_eq!(t.samples(), 0);
    }
}
