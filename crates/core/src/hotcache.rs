//! The resizable hot-item cache of the cache-resident layer (§3.2.2).
//!
//! Cached index entries are organized as a pointer-free sorted array (the
//! paper's choice for tree indexes — it halves the footprint and supports
//! binary search over a periodically rebuilt hot set). Each probe charges the
//! simulated cache for the entries it touches, so a hot cache small enough
//! for the CR layer's dedicated LLC ways genuinely stays resident and the
//! benefit emerges from the cache model rather than being assumed.
//!
//! The cache maps hot keys directly to their [`ItemId`]; refreshes rebuild
//! the array wholesale from the hot-set tracker via an epoch-style atomic
//! switch (modeled as a generation bump — the simulator's single-threaded
//! step execution makes the swap atomic by construction, and the cost of the
//! epoch machinery is charged to the manager).

use utps_collections::SortedCache;
use utps_index::ItemId;
use utps_sim::Ctx;

/// Sentinel marking a tombstoned (deleted) cache entry.
const TOMBSTONE: ItemId = ItemId::MAX;

/// The CR layer's hot cache.
pub struct HotCache {
    entries: SortedCache<ItemId>,
    generation: u64,
    /// Tuned target size (the auto-tuner's cache-resize knob, §3.5).
    pub target_size: usize,
    /// Probes that found the key (since last reset).
    pub hits: u64,
    /// Probes that missed (since last reset).
    pub misses: u64,
}

impl HotCache {
    /// Creates an empty cache with a target size (the paper tracks a 10 K
    /// hot set and tunes the cached prefix).
    pub fn new(target_size: usize) -> Self {
        HotCache {
            entries: SortedCache::empty(),
            generation: 0,
            target_size,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current generation (bumped on every refresh/resize).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Charged probe: binary search the sorted array.
    pub fn probe(&mut self, ctx: &mut Ctx<'_>, key: u64) -> Option<ItemId> {
        if self.entries.is_empty() {
            self.misses += 1;
            return None;
        }
        ctx.compute_ns(3);
        let result = self
            .entries
            .probe_with(key, |addr| ctx.read(addr, 16))
            .copied()
            .filter(|&id| id != TOMBSTONE);
        if result.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        result
    }

    /// Charged range probe for scans: collects up to `limit` cached entries
    /// with key ≥ `lo`, returning `(key, item)` pairs in order.
    pub(crate) fn probe_range(
        &mut self,
        ctx: &mut Ctx<'_>,
        lo: u64,
        limit: usize,
    ) -> Vec<(u64, ItemId)> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        ctx.compute_ns(4);
        let out: Vec<(u64, ItemId)> = self
            .entries
            .range(lo, u64::MAX)
            .filter(|&(_, &v)| v != TOMBSTONE)
            .take(limit)
            .map(|(k, &v)| (k, v))
            .collect();
        // Charge the contiguous entry reads (16 B each).
        if !out.is_empty() {
            let (base, _) = self.entries.storage_span();
            ctx.read(base, out.len() * 16);
        }
        out
    }

    /// Rebuilds the cache from `(key, item)` pairs, truncated to the target
    /// size; bumps the generation (epoch switch).
    pub fn rebuild(&mut self, mut pairs: Vec<(u64, ItemId)>) {
        pairs.truncate(self.target_size);
        self.entries = SortedCache::build(pairs);
        // Every generation reuses the same virtual region: the rebuilt array
        // replaces the old one in the same cache lines (epoch switch).
        self.entries.set_virt_base(utps_sim::vaddr::HOT_CACHE);
        self.generation += 1;
    }

    /// Tombstones a cached entry (a delete raced past the cache; the key
    /// must miss until the next refresh rebuilds the array).
    pub fn invalidate(&mut self, ctx: &mut Ctx<'_>, key: u64) -> bool {
        if let Some(slot) = self.entries.get_mut(key) {
            if *slot != TOMBSTONE {
                *slot = TOMBSTONE;
                if let Some(addr) = self.entries.entry_addr(key) {
                    ctx.write(addr, 16);
                }
                return true;
            }
        }
        false
    }

    /// Uncharged membership probe for host-side maintenance (the tier
    /// compactor must not evict hot-cached keys): no simulated cost, no
    /// hit/miss accounting.
    pub(crate) fn contains_native(&mut self, key: u64) -> bool {
        self.entries
            .get_mut(key)
            .is_some_and(|slot| *slot != TOMBSTONE)
    }

    /// Drops every entry (e.g. when the tuner disables the cache).
    pub fn clear(&mut self) {
        self.entries = SortedCache::empty();
        self.generation += 1;
    }

    /// Hit rate since the last [`HotCache::reset_stats`].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Clears the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Memory footprint of the entry array in bytes.
    pub fn bytes(&self) -> usize {
        self.entries.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_sim::config::MachineConfig;
    use utps_sim::{Engine, StatClass};

    fn with_cache<R: 'static>(
        cache: HotCache,
        f: impl FnOnce(&mut Ctx<'_>, &mut HotCache) -> R + 'static,
    ) -> (R, HotCache) {
        Engine::run_once(MachineConfig::tiny(), 1, StatClass::Cr, cache, f)
    }

    #[test]
    fn probe_hits_and_misses() {
        let mut c = HotCache::new(100);
        c.rebuild((0..50).map(|i| (i * 2, i as ItemId)).collect());
        let ((), c) = with_cache(c, |ctx, c| {
            assert_eq!(c.probe(ctx, 10), Some(5));
            assert_eq!(c.probe(ctx, 11), None);
        });
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rebuild_truncates_to_target() {
        let mut c = HotCache::new(10);
        c.rebuild((0..100).map(|i| (i, i as ItemId)).collect());
        assert_eq!(c.len(), 10);
        assert_eq!(c.generation(), 1);
        c.target_size = 3;
        c.rebuild((0..100).map(|i| (i, i as ItemId)).collect());
        assert_eq!(c.len(), 3);
        assert_eq!(c.generation(), 2);
        assert_eq!(c.bytes(), 48);
    }

    #[test]
    fn empty_cache_misses_cheaply() {
        let c = HotCache::new(10);
        let ((), c) = with_cache(c, |ctx, c| {
            assert_eq!(c.probe(ctx, 1), None);
        });
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn range_probe_returns_sorted_prefix() {
        let mut c = HotCache::new(100);
        c.rebuild(vec![(5, 50), (1, 10), (9, 90), (7, 70)]);
        let ((), _) = with_cache(c, |ctx, c| {
            let r = c.probe_range(ctx, 5, 2);
            assert_eq!(r, vec![(5, 50), (7, 70)]);
            let all = c.probe_range(ctx, 0, 10);
            assert_eq!(all.len(), 4);
            assert!(c.probe_range(ctx, 100, 5).is_empty());
        });
    }

    #[test]
    fn invalidate_tombstones_until_rebuild() {
        let mut c = HotCache::new(10);
        c.rebuild(vec![(1, 10), (2, 20)]);
        let ((), mut c) = with_cache(c, |ctx, c| {
            assert_eq!(c.probe(ctx, 1), Some(10));
            assert!(c.invalidate(ctx, 1));
            assert!(!c.invalidate(ctx, 1), "double invalidate is a no-op");
            assert_eq!(c.probe(ctx, 1), None, "tombstone must miss");
            assert_eq!(c.probe(ctx, 2), Some(20), "other entries unaffected");
            assert!(c.probe_range(ctx, 0, 10).iter().all(|&(k, _)| k != 1));
        });
        c.rebuild(vec![(1, 11)]);
        let ((), _) = with_cache(c, |ctx, c| {
            assert_eq!(c.probe(ctx, 1), Some(11), "rebuild clears tombstones");
        });
    }

    #[test]
    fn clear_bumps_generation() {
        let mut c = HotCache::new(5);
        c.rebuild(vec![(1, 1)]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.generation(), 2);
    }
}
