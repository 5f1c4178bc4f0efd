//! Fast, *fixed-key* non-cryptographic hashing used throughout the
//! workspace (re-exported at its historical `utps_sim::hashutil` path).
//!
//! The cache directory is consulted on every simulated memory access, so its
//! hash map must be cheap. `FxHasher64` is a re-implementation of the
//! Firefox/rustc "Fx" multiply-rotate hash for `u64` keys; [`mix64`] is a
//! Stafford variant-13 finalizer used as a standalone scrambler (key→shard
//! mapping, partial-key tags, deterministic per-seed streams).
//!
//! Determinism contract: the workspace `clippy.toml` bans std's
//! `HashMap`/`HashSet` in every library and binary. Their default SipHash
//! is randomly keyed per process, so iteration order would differ between
//! two same-seed runs. These fixed-key aliases are the blessed wrappers;
//! each carries the one `#[allow]` the ban needs.

use core::hash::{BuildHasherDefault, Hasher};

/// Stafford variant 13 of the MurmurHash3 64-bit finalizer.
///
/// A bijective scrambler on `u64`: good avalanche behaviour, zero allocation,
/// and deterministic across runs and platforms.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// splitmix64: advances `state` by the golden-ratio increment and returns
/// its [`mix64`]. Each stream owns its `state`, so streams never share
/// draws.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

/// Maps a `u64` draw to a uniform `f64` in [0, 1) (its top 53 bits).
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Combines two 64-bit values into one well-mixed value.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a.wrapping_add(0x9e3779b97f4a7c15) ^ b.rotate_left(32).wrapping_mul(0xd6e8feb86659fd93))
}

/// An Fx-style hasher specialized for integer keys.
#[derive(Default)]
pub struct FxHasher64 {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
}

impl FxHasher64 {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed with the fast Fx hasher.
#[allow(
    clippy::disallowed_types,
    reason = "the fixed-key wrapper the std-map ban points to"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast Fx hasher.
#[allow(
    clippy::disallowed_types,
    reason = "the fixed-key wrapper the std-set ban points to"
)]
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_scrambles() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(1), mix64(2));
        // Single-bit input changes should flip roughly half the output bits.
        let a = mix64(0x1000);
        let b = mix64(0x1001);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "weak avalanche: {flipped}");
    }

    #[test]
    fn mix64_has_no_trivial_collisions() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * i);
        }
        assert_eq!(m.get(&31), Some(&961));
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn mix2_differs_from_inputs() {
        assert_ne!(mix2(1, 2), mix2(2, 1));
        assert_ne!(mix2(0, 0), 0);
    }
}
