//! A small, self-contained pseudo-random number generator.
//!
//! The generators only need a fast, seedable, statistically solid uniform
//! source; this module provides one (xoshiro256++ seeded via splitmix64)
//! with the narrow API surface the workload generators use, so the
//! workspace builds without any external registry dependency. Streams are
//! fully determined by the seed — two generators built from the same seed
//! produce identical sequences on every platform.

use utps_collections::hashutil::splitmix64;

/// A seedable xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Creates a generator whose entire state is derived from `seed` by
    /// splitmix64 (the reference seeding procedure for xoshiro).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || splitmix64(&mut sm);
        SmallRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform sample of `T` (see [`SampleUniform`] for the supported
    /// types); mirrors `rand::Rng::gen`.
    pub(crate) fn gen<T: SampleUniform>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from `range`; mirrors `rand::Rng::gen_range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub(crate) fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Types [`SmallRng::gen`] can produce.
pub(crate) trait SampleUniform {
    /// Draws one uniform sample.
    fn sample(rng: &mut SmallRng) -> Self;
}

impl SampleUniform for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample(rng: &mut SmallRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleUniform for u64 {
    fn sample(rng: &mut SmallRng) -> u64 {
        rng.next_u64()
    }
}

impl SampleUniform for u32 {
    fn sample(rng: &mut SmallRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleUniform for bool {
    fn sample(rng: &mut SmallRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub(crate) trait UniformRange {
    /// The element type of the range.
    type Output;
    /// Draws one uniform sample from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

/// Unbiased sample of `0..span` via Lemire's multiply-then-reject method.
fn below(rng: &mut SmallRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let (hi, lo) = {
            let m = (x as u128) * (span as u128);
            ((m >> 64) as u64, m as u64)
        };
        // Reject the sliver that would bias low results.
        if lo >= span.wrapping_neg() % span {
            return hi;
        }
    }
}

macro_rules! impl_uniform_range {
    ($($t:ty),*) => {$(
        impl UniformRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + below(rng, span) as $t
            }
        }
        impl UniformRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + below(rng, span + 1) as $t
            }
        }
    )*};
}

impl_uniform_range!(u64, usize, u32, u16, u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(0u64..10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn");
        for _ in 0..1_000 {
            let v = rng.gen_range(5usize..=7);
            assert!((5..=7).contains(&v));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} skewed");
        }
    }
}
