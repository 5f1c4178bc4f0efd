//! Strategies for collections.

use core::fmt::Debug;
use core::ops::{Range, RangeInclusive};
use std::collections::BTreeSet;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A target size band for generated collections (half-open).
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        debug_assert!(self.lo < self.hi);
        self.lo + rng.below((self.hi - self.lo) as u64) as usize
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements come from
/// `element`.
pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`fn@vec`].
#[derive(Debug)]
pub struct VecStrategy<E> {
    element: E,
    size: SizeRange,
}

impl<E: Strategy> Strategy for VecStrategy<E> {
    type Value = Vec<E::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<E::Value> {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `BTreeSet` with between `size.lo` and `size.hi - 1` distinct elements
/// (duplicates drawn from `element` are merged, so sparse domains may yield
/// fewer elements than requested — same caveat as upstream).
pub fn btree_set<E>(element: E, size: impl Into<SizeRange>) -> BTreeSetStrategy<E>
where
    E: Strategy,
    E::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
#[derive(Debug)]
pub struct BTreeSetStrategy<E> {
    element: E,
    size: SizeRange,
}

impl<E: Strategy> Strategy for BTreeSetStrategy<E>
where
    E::Value: Ord,
{
    type Value = BTreeSet<E::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<E::Value> {
        let target = self.size.sample(rng);
        let mut set = BTreeSet::new();
        // Bounded attempts: small domains cannot fill large targets.
        for _ in 0..target.saturating_mul(4).max(8) {
            if set.len() >= target {
                break;
            }
            set.insert(self.element.generate(rng));
        }
        set
    }
}
