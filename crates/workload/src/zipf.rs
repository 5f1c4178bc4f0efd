//! Key distributions: uniform and YCSB-style (scrambled) zipfian.

use utps_collections::mix64;

use crate::rng::SmallRng;

/// A zipfian rank generator over `0..n` using YCSB's rejection-free method
/// (Gray et al.), with θ < 1.
///
/// Rank 0 is the most popular. Use `ZipfGen::next_scrambled` to spread hot
/// ranks across the keyspace as YCSB does.
#[derive(Clone, Debug)]
pub struct ZipfGen {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfGen {
    /// Creates a generator over `0..n` with skew `theta` (YCSB default 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty keyspace");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta_cached(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfGen {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// [`Self::zeta`] behind a process-wide memo keyed on `(n, θ)`.
    ///
    /// Every client stream of a run (hundreds of them) builds a generator
    /// over the same keyspace, and a benchmark sweep repeats that across
    /// dozens of cells; the normalizer is a pure O(n) `powf` loop that
    /// would otherwise dominate setup wall-clock. The cached value is the
    /// bit-identical result of the same computation, so sampling is
    /// unchanged. Small keyspaces skip the memo (and its lock) entirely.
    #[allow(
        clippy::disallowed_types,
        reason = "memoises a pure function; generators are built before any step runs"
    )]
    fn zeta_cached(n: u64, theta: f64) -> f64 {
        use std::sync::Mutex;
        static MEMO: Mutex<Vec<((u64, u64), f64)>> = Mutex::new(Vec::new());
        if n < 65_536 {
            return Self::zeta(n, theta);
        }
        let key = (n, theta.to_bits());
        if let Some(&(_, z)) = MEMO
            .lock()
            .expect("zeta memo poisoned")
            .iter()
            .find(|&&(k, _)| k == key)
        {
            return z;
        }
        let z = Self::zeta(n, theta);
        MEMO.lock().expect("zeta memo poisoned").push((key, z));
        z
    }

    /// The harmonic-like normalizer Σ 1/i^θ for i in 1..=n.
    ///
    /// Exact up to 10 M, then extended with the integral approximation
    /// (error < 10⁻⁶ relative for the θ values used here).
    fn zeta(n: u64, theta: f64) -> f64 {
        let exact_n = n.min(10_000_000);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > exact_n {
            // ∫ x^-θ dx from exact_n to n.
            let a = 1.0 - theta;
            sum += ((n as f64).powf(a) - (exact_n as f64).powf(a)) / a;
        }
        sum
    }

    /// Keyspace size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws a zipfian *rank* in `0..n` (0 = hottest).
    pub(crate) fn next_rank(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Draws a zipfian *key*: the rank scrambled over the keyspace, so the
    /// hottest keys are spread out rather than clustered at 0 (YCSB's
    /// `ScrambledZipfian`).
    pub(crate) fn next_scrambled(&self, rng: &mut SmallRng) -> u64 {
        mix64(self.next_rank(rng).wrapping_add(0x9e3779b97f4a7c15)) % self.n
    }

    /// The scrambled key corresponding to rank `r` (to identify the true hot
    /// set in tests and hotspot-redirection experiments).
    pub(crate) fn key_of_rank(&self, r: u64) -> u64 {
        mix64(r.wrapping_add(0x9e3779b97f4a7c15)) % self.n
    }
}

/// A key distribution: uniform or zipfian.
#[derive(Clone, Debug)]
pub enum KeyDist {
    /// Uniform over `0..n`.
    Uniform {
        /// Keyspace size.
        n: u64,
    },
    /// Scrambled zipfian.
    Zipf(ZipfGen),
}

impl KeyDist {
    /// Uniform distribution over `0..n`.
    pub fn uniform(n: u64) -> Self {
        KeyDist::Uniform { n }
    }

    /// Scrambled zipfian over `0..n` with skew `theta`.
    pub fn zipf(n: u64, theta: f64) -> Self {
        if theta == 0.0 {
            KeyDist::Uniform { n }
        } else {
            KeyDist::Zipf(ZipfGen::new(n, theta))
        }
    }

    /// Keyspace size.
    pub fn n(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } => *n,
            KeyDist::Zipf(z) => z.n(),
        }
    }

    /// Draws a key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.gen_range(0..*n),
            KeyDist::Zipf(z) => z.next_scrambled(rng),
        }
    }

    /// Whether the distribution is skewed.
    #[cfg(test)]
    pub(crate) fn is_skewed(&self) -> bool {
        matches!(self, KeyDist::Zipf(_))
    }

    /// The `k` hottest keys under this distribution (empty for uniform).
    pub fn hottest_keys(&self, k: usize) -> Vec<u64> {
        match self {
            KeyDist::Uniform { .. } => Vec::new(),
            KeyDist::Zipf(z) => {
                let mut out: Vec<u64> = (0..(k as u64).min(z.n()))
                    .map(|r| z.key_of_rank(r))
                    .collect();
                out.dedup();
                out
            }
        }
    }
}

/// Creates a deterministic RNG for stream `id` under `seed`.
pub fn rng_for(seed: u64, id: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix64(seed.wrapping_add(mix64(id))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_zipf_head_mass() {
        let z = ZipfGen::new(100_000, 0.99);
        let mut rng = rng_for(7, 0);
        let n = 200_000;
        let mut head = 0u64;
        for _ in 0..n {
            if z.next_rank(&mut rng) < 100 {
                head += 1;
            }
        }
        // Under θ=0.99, the top-100 ranks carry ≈ 40% of the mass for
        // n=100k: p(≤100) = zeta(100)/zeta(100000).
        let expect: f64 = (1..=100).map(|i| 1.0 / (i as f64).powf(0.99)).sum::<f64>()
            / (1..=100_000)
                .map(|i| 1.0 / (i as f64).powf(0.99))
                .sum::<f64>();
        let got = head as f64 / n as f64;
        assert!((got - expect).abs() < 0.02, "got {got}, expect {expect}");
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = ZipfGen::new(10_000, 0.99);
        let mut rng = rng_for(9, 1);
        let mut counts = vec![0u64; 16];
        for _ in 0..100_000 {
            let r = z.next_rank(&mut rng);
            if (r as usize) < counts.len() {
                counts[r as usize] += 1;
            }
        }
        for w in counts.windows(2) {
            // Monotone up to noise; allow slack on the tail.
            assert!(w[0] as f64 > w[1] as f64 * 0.7, "not monotone: {counts:?}");
        }
    }

    #[test]
    fn scrambled_keys_stay_in_range_and_spread() {
        let z = ZipfGen::new(1_000, 0.9);
        let mut rng = rng_for(11, 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let k = z.next_scrambled(&mut rng);
            assert!(k < 1_000);
            seen.insert(k);
        }
        assert!(seen.len() > 300, "scrambling too clustered: {}", seen.len());
        // Hot keys are NOT the numerically smallest.
        assert_ne!(z.key_of_rank(0), 0);
    }

    #[test]
    fn uniform_covers_keyspace() {
        let d = KeyDist::uniform(64);
        let mut rng = rng_for(3, 3);
        let mut counts = vec![0u64; 64];
        for _ in 0..64_000 {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform skewed: {counts:?}");
        }
        assert!(!d.is_skewed());
        assert!(d.hottest_keys(5).is_empty());
    }

    #[test]
    fn zipf_theta_zero_degrades_to_uniform() {
        let d = KeyDist::zipf(100, 0.0);
        assert!(!d.is_skewed());
    }

    #[test]
    fn deterministic_streams() {
        let z = ZipfGen::new(1_000, 0.99);
        let a: Vec<u64> = {
            let mut rng = rng_for(42, 0);
            (0..100).map(|_| z.next_scrambled(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = rng_for(42, 0);
            (0..100).map(|_| z.next_scrambled(&mut rng)).collect()
        };
        let c: Vec<u64> = {
            let mut rng = rng_for(42, 1);
            (0..100).map(|_| z.next_scrambled(&mut rng)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hottest_keys_match_rank_mapping() {
        let d = KeyDist::zipf(10_000, 0.99);
        let hot = d.hottest_keys(3);
        if let KeyDist::Zipf(z) = &d {
            assert_eq!(hot[0], z.key_of_rank(0));
        } else {
            panic!("expected zipf");
        }
    }
}
