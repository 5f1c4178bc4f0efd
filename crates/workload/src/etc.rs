//! Meta's ETC pool workload (§5.2.2, following Atikoglu et al. \[16\]).
//!
//! The paper uses ETC's default key/value size distributions and sweeps the
//! get ratio over {10%, 50%, 90%}. Value sizes follow the published mixture:
//! 40% in 1–13 B (zipfian within the band), 55% in 14–300 B (zipfian), and
//! 5% above 300 B (uniform up to 1 KB here, keeping within the paper's item
//! size envelope). Keys are zipfian (θ = 0.99), matching the skewed ETC
//! access pattern.

use crate::rng::SmallRng;

use crate::ycsb::Op;
use crate::zipf::{rng_for, KeyDist};
use crate::Workload;

/// The ETC pool generator.
#[derive(Clone, Debug)]
pub struct EtcWorkload {
    get_ratio: f64,
    dist: KeyDist,
    rng: SmallRng,
    max_large: usize,
}

impl EtcWorkload {
    /// Creates an ETC generator over `keyspace` keys with the given get
    /// ratio (the paper uses 0.1, 0.5, 0.9).
    ///
    /// # Panics
    ///
    /// Panics if `get_ratio` is outside `[0, 1]`.
    pub fn new(keyspace: u64, get_ratio: f64, seed: u64, stream: u64) -> Self {
        assert!((0.0..=1.0).contains(&get_ratio), "get_ratio out of range");
        EtcWorkload {
            get_ratio,
            dist: KeyDist::zipf(keyspace, 0.99),
            rng: rng_for(seed ^ 0xE7C, stream),
            max_large: 1024,
        }
    }

    /// Draws a value size from the ETC mixture.
    pub(crate) fn sample_value_len(&mut self) -> usize {
        let band: f64 = self.rng.gen();
        if band < 0.40 {
            zipf_in_band(&mut self.rng, 1, 13)
        } else if band < 0.95 {
            zipf_in_band(&mut self.rng, 14, 300)
        } else {
            self.rng.gen_range(301..=self.max_large)
        }
    }

    /// The configured get ratio.
    pub fn get_ratio(&self) -> f64 {
        self.get_ratio
    }
}

/// A crude banded zipfian: small sizes in the band are more common,
/// p(size) ∝ 1/(size - lo + 1).
fn zipf_in_band(rng: &mut SmallRng, lo: usize, hi: usize) -> usize {
    let n = (hi - lo + 1) as f64;
    // Inverse CDF of 1/x on [1, n+1): x = (n+1)^u.
    let u: f64 = rng.gen();
    let x = (n + 1.0).powf(u);
    lo + (x as usize - 1).min(hi - lo)
}

impl Workload for EtcWorkload {
    fn next_op(&mut self) -> Op {
        let key = self.dist.sample(&mut self.rng);
        if self.rng.gen::<f64>() < self.get_ratio {
            Op::Get { key }
        } else {
            let value_len = self.sample_value_len();
            Op::Put { key, value_len }
        }
    }

    fn keyspace(&self) -> u64 {
        self.dist.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_size_bands_match_published_mixture() {
        let mut w = EtcWorkload::new(10_000, 0.0, 5, 0);
        let n = 100_000;
        let (mut tiny, mut mid, mut large) = (0, 0, 0);
        let mut sum = 0usize;
        for _ in 0..n {
            match w.next_op() {
                Op::Put { value_len, .. } => {
                    sum += value_len;
                    match value_len {
                        1..=13 => tiny += 1,
                        14..=300 => mid += 1,
                        _ => large += 1,
                    }
                }
                _ => panic!("expected put"),
            }
        }
        let f = |c: i32| c as f64 / n as f64;
        assert!((f(tiny) - 0.40).abs() < 0.01, "tiny {}", f(tiny));
        assert!((f(mid) - 0.55).abs() < 0.01, "mid {}", f(mid));
        assert!((f(large) - 0.05).abs() < 0.01, "large {}", f(large));
        // Within each band small values dominate.
        let mean = sum as f64 / n as f64;
        assert!(mean < 120.0, "mean value size too large: {mean}");
    }

    #[test]
    fn get_ratio_respected() {
        for ratio in [0.1, 0.5, 0.9] {
            let mut w = EtcWorkload::new(1_000, ratio, 6, 0);
            let n = 50_000;
            let gets = (0..n)
                .filter(|_| matches!(w.next_op(), Op::Get { .. }))
                .count();
            let got = gets as f64 / n as f64;
            assert!((got - ratio).abs() < 0.01, "ratio {ratio}: got {got}");
        }
    }

    #[test]
    fn keys_are_skewed() {
        let mut w = EtcWorkload::new(100_000, 0.5, 7, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(w.next_op().key()).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 500, "no hot key under zipf: max {max}");
    }
}
