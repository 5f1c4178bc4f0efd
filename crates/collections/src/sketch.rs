//! Count-min sketch for approximate key frequencies.
//!
//! The management thread samples recently accessed keys and feeds them into
//! this sketch; combined with a top-K heap it identifies the hottest items
//! (§3.2.2, following Cormode & Muthukrishnan \[23\]). Counters are `u32`
//! and can be periodically halved (`CountMinSketch::decay`) so the sketch
//! tracks a moving window of popularity, reacting to hot-set shifts.

use crate::hashutil::mix64;

/// A count-min sketch over `u64` keys.
///
/// # Examples
///
/// ```
/// let mut s = utps_collections::CountMinSketch::new(1024, 4);
/// for _ in 0..100 {
///     s.increment(7);
/// }
/// s.increment(8);
/// assert!(s.estimate(7) >= 100);
/// assert!(s.estimate(8) >= 1);
/// assert_eq!(s.estimate(12345), 0); // no aliasing in an empty sketch
/// ```
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    width: usize,
    rows: Vec<Vec<u32>>,
    seeds: Vec<u64>,
    items: u64,
}

impl CountMinSketch {
    /// Creates a sketch of `width` counters × `depth` rows.
    ///
    /// Width is rounded up to a power of two. Standard accuracy bounds: with
    /// width *w* and depth *d*, estimates overshoot the true count by more
    /// than `2N/w` with probability at most `2^-d` (N = total increments).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        let width = width.next_power_of_two();
        CountMinSketch {
            width,
            rows: vec![vec![0u32; width]; depth],
            seeds: (0..depth as u64)
                .map(|i| mix64(0x5eed_0000u64.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15))))
                .collect(),
            items: 0,
        }
    }

    /// Number of counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Total increments since creation/decay-adjusted.
    pub fn items(&self) -> u64 {
        self.items
    }

    #[inline]
    fn slot(&self, row: usize, key: u64) -> usize {
        (mix64(key ^ self.seeds[row]) & (self.width as u64 - 1)) as usize
    }

    /// Records one occurrence of `key` and returns the new estimate.
    pub fn increment(&mut self, key: u64) -> u32 {
        self.items += 1;
        let mut min = u32::MAX;
        for r in 0..self.rows.len() {
            let s = self.slot(r, key);
            let c = self.rows[r][s].saturating_add(1);
            self.rows[r][s] = c;
            min = min.min(c);
        }
        min
    }

    /// Estimated occurrence count of `key` (never underestimates).
    pub fn estimate(&self, key: u64) -> u32 {
        let mut min = u32::MAX;
        for r in 0..self.rows.len() {
            min = min.min(self.rows[r][self.slot(r, key)]);
        }
        min
    }

    /// Halves every counter — ages out stale popularity so the sketch tracks
    /// a moving window.
    pub(crate) fn decay(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.items /= 2;
    }

    /// Zeroes the sketch.
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.fill(0);
        }
        self.items = 0;
    }

    /// Approximate memory footprint in bytes (the CR layer keeps this small
    /// so the sketch itself stays cache-resident).
    pub fn bytes(&self) -> usize {
        self.rows.len() * self.width * core::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_underestimates() {
        let mut s = CountMinSketch::new(256, 4);
        for k in 0..100u64 {
            for _ in 0..=k {
                s.increment(k);
            }
        }
        for k in 0..100u64 {
            assert!(s.estimate(k) as u64 > k, "under at {k}");
        }
    }

    #[test]
    fn error_bound_holds_on_heavy_hitter() {
        let mut s = CountMinSketch::new(2048, 4);
        // One heavy key among uniform noise.
        for i in 0..10_000u64 {
            s.increment(i % 1000);
        }
        for _ in 0..5_000 {
            s.increment(424242);
        }
        let est = s.estimate(424242) as u64;
        // ε = 2/width → error ≤ 2·15000/2048 ≈ 15 with high probability.
        assert!((5_000..5_100).contains(&est), "estimate {est}");
    }

    #[test]
    fn decay_halves() {
        let mut s = CountMinSketch::new(64, 2);
        for _ in 0..100 {
            s.increment(1);
        }
        s.decay();
        assert_eq!(s.estimate(1), 50);
        assert_eq!(s.items(), 50);
        s.clear();
        assert_eq!(s.estimate(1), 0);
    }

    #[test]
    fn width_rounds_to_power_of_two() {
        let s = CountMinSketch::new(1000, 3);
        assert_eq!(s.width(), 1024);
        assert_eq!(s.depth(), 3);
        assert_eq!(s.bytes(), 1024 * 3 * 4);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut s = CountMinSketch::new(2, 1);
        s.rows[0].fill(u32::MAX - 1);
        s.increment(0);
        s.increment(0);
        assert_eq!(s.estimate(0), u32::MAX);
    }
}
