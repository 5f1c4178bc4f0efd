//! Pointer-free sorted-array cache for hot index entries.
//!
//! When the main index is a tree, μTPS stores the cached hot entries as one
//! sorted array (§3.2.2): it eliminates the interior pointers of a tree,
//! halving the cache footprint, and since the hot set is rebuilt wholesale on
//! every refresh there are no online inserts to support — binary search is
//! all that is needed. Range queries use [`SortedCache::range`] so the CR
//! layer can serve the cached prefix of a scan (§4).

/// An immutable sorted `(key, value)` array with binary search.
///
/// # Examples
///
/// ```
/// let c = utps_collections::SortedCache::build(vec![(3, 'c'), (1, 'a'), (2, 'b')]);
/// assert_eq!(c.get(2), Some(&'b'));
/// assert_eq!(c.get(9), None);
/// let in_range: Vec<u64> = c.range(2, 10).map(|(k, _)| k).collect();
/// assert_eq!(in_range, vec![2, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SortedCache<V> {
    entries: Vec<(u64, V)>,
    /// Address accessors report `virt_base + i * entry_size`, so simulated
    /// cache charging is reproducible across runs.
    virt_base: usize,
}

impl<V> SortedCache<V> {
    /// Builds the cache from unsorted pairs. Duplicate keys keep the last
    /// occurrence (the freshest sample wins).
    pub fn build(mut pairs: Vec<(u64, V)>) -> Self {
        pairs.sort_by_key(|&(k, _)| k);
        // Keep the last of each duplicate run.
        let mut entries: Vec<(u64, V)> = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == k => *last = (k, v),
                _ => entries.push((k, v)),
            }
        }
        SortedCache {
            entries,
            virt_base: 0,
        }
    }

    /// Places the entry array in a fixed virtual region for the address
    /// accessors ([`SortedCache::probe_with`], [`SortedCache::storage_span`],
    /// [`SortedCache::entry_addr`]).
    pub fn set_virt_base(&mut self, virt_base: usize) {
        self.virt_base = virt_base;
    }

    fn addr_of_index(&self, i: usize) -> usize {
        self.virt_base + i * core::mem::size_of::<(u64, V)>()
    }

    /// An empty cache.
    pub fn empty() -> Self {
        SortedCache {
            entries: Vec::new(),
            virt_base: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary search that reports the address of every probed entry to
    /// `visit` — callers charge a cache model per touched line.
    pub fn probe_with(&self, key: u64, mut visit: impl FnMut(usize)) -> Option<&V> {
        let (mut lo, mut hi) = (0usize, self.entries.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            visit(self.addr_of_index(mid));
            match self.entries[mid].0.cmp(&key) {
                core::cmp::Ordering::Equal => return Some(&self.entries[mid].1),
                core::cmp::Ordering::Less => lo = mid + 1,
                core::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Binary-searches for `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Mutable lookup (the CR layer updates cached locations in place).
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &mut self.entries[i].1)
    }

    /// The number of binary-search probes a lookup of `key` performs
    /// (for cache-cost modeling: each probe touches one cache line).
    pub fn probes(&self) -> u32 {
        (usize::BITS - self.entries.len().leading_zeros()).max(1)
    }

    /// Iterates entries with `lo <= key <= hi` in ascending key order.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &V)> {
        let start = self.entries.partition_point(|&(k, _)| k < lo);
        self.entries[start..]
            .iter()
            .take_while(move |&&(k, _)| k <= hi)
            .map(|(k, v)| (*k, v))
    }

    /// The base address and byte length of the entry array (for charging the
    /// simulated cache on probes).
    pub fn storage_span(&self) -> (usize, usize) {
        (
            self.virt_base,
            self.entries.len() * core::mem::size_of::<(u64, V)>(),
        )
    }

    /// Address of the entry that a probe sequence for `key` ends at.
    pub fn entry_addr(&self, key: u64) -> Option<usize> {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.addr_of_index(i))
    }

    /// All keys, ascending (for tests and refresh diffing).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let c = SortedCache::build(vec![(5, "old"), (1, "a"), (5, "new"), (3, "c")]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(5), Some(&"new"));
        assert_eq!(c.keys().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn get_hits_and_misses() {
        let c = SortedCache::build((0..100).map(|i| (i * 2, i)).collect());
        for i in 0..100 {
            assert_eq!(c.get(i * 2), Some(&i));
            assert_eq!(c.get(i * 2 + 1), None);
        }
    }

    #[test]
    fn range_bounds_inclusive() {
        let c = SortedCache::build((0..10).map(|i| (i * 10, i)).collect());
        let keys: Vec<u64> = c.range(20, 50).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![20, 30, 40, 50]);
        assert_eq!(c.range(95, 99).count(), 0);
        assert_eq!(c.range(0, u64::MAX).count(), 10);
    }

    #[test]
    fn probes_is_log2() {
        let c = SortedCache::build((0..1024u64).map(|i| (i, ())).collect());
        assert_eq!(c.probes(), 11);
        let tiny = SortedCache::build(vec![(1u64, ())]);
        assert_eq!(tiny.probes(), 1);
    }

    #[test]
    fn empty_cache_behaves() {
        let c: SortedCache<u8> = SortedCache::empty();
        assert!(c.is_empty());
        assert_eq!(c.get(0), None);
        assert_eq!(c.range(0, 100).count(), 0);
    }

    #[test]
    fn probe_with_matches_get_and_visits_log_n() {
        let c = SortedCache::build((0..256u64).map(|i| (i * 2, i)).collect());
        for key in [0u64, 100, 510, 511] {
            let mut touches = 0;
            let via_probe = c.probe_with(key, |_| touches += 1).copied();
            assert_eq!(via_probe, c.get(key).copied());
            assert!(touches <= 9, "binary search touched {touches} entries");
        }
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut c = SortedCache::build(vec![(7, 70)]);
        *c.get_mut(7).unwrap() = 71;
        assert_eq!(c.get(7), Some(&71));
        assert_eq!(c.get_mut(8), None);
    }
}
