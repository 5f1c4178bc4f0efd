//! Bounded top-K tracker: a min-heap over counts with O(1) membership.
//!
//! Paired with the count-min sketch, this is the paper's hot-set identifier
//! (§3.2.2): every sampled key's estimated count is offered to the tracker,
//! which keeps the K keys with the largest counts.

use crate::hashutil::FxHashMap;

/// Tracks the `k` keys with the highest counts.
///
/// # Examples
///
/// ```
/// let mut t = utps_collections::TopK::new(2);
/// t.offer(1, 10);
/// t.offer(2, 20);
/// t.offer(3, 5);   // rejected: smaller than both
/// t.offer(4, 30);  // evicts key 1
/// let mut top = t.items();
/// top.sort_unstable();
/// assert_eq!(top, vec![(2, 20), (4, 30)]);
/// ```
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    /// Min-heap of (count, key); `heap[0]` is the smallest tracked count.
    heap: Vec<(u32, u64)>,
    /// key → heap position.
    pos: FxHashMap<u64, usize>,
}

impl TopK {
    /// Creates a tracker bounded at `k` keys.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be nonzero");
        TopK {
            k,
            heap: Vec::with_capacity(k),
            pos: FxHashMap::with_capacity_and_hasher(k, Default::default()),
        }
    }

    /// Capacity bound `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Number of currently tracked keys.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The smallest tracked count (the admission threshold once full).
    #[cfg(test)]
    pub(crate) fn threshold(&self) -> u32 {
        if self.heap.len() < self.k {
            0
        } else {
            self.heap[0].0
        }
    }

    /// Offers `key` with estimated `count`; updates or admits it if it beats
    /// the current threshold. Returns `true` if the key is tracked after the
    /// call.
    pub fn offer(&mut self, key: u64, count: u32) -> bool {
        if let Some(&i) = self.pos.get(&key) {
            if count > self.heap[i].0 {
                self.heap[i].0 = count;
                self.sift_down(i);
            }
            return true;
        }
        if self.heap.len() < self.k {
            self.heap.push((count, key));
            self.pos.insert(key, self.heap.len() - 1);
            self.sift_up(self.heap.len() - 1);
            true
        } else if count > self.heap[0].0 {
            let evicted = self.heap[0].1;
            self.pos.remove(&evicted);
            self.heap[0] = (count, key);
            self.pos.insert(key, 0);
            self.sift_down(0);
            true
        } else {
            false
        }
    }

    /// Whether `key` is currently among the top K.
    pub fn contains(&self, key: u64) -> bool {
        self.pos.contains_key(&key)
    }

    /// Snapshot of the tracked `(key, count)` pairs, unordered.
    pub fn items(&self) -> Vec<(u64, u32)> {
        self.heap.iter().map(|&(c, k)| (k, c)).collect()
    }

    /// Snapshot sorted by descending count (ties broken by key for
    /// determinism).
    pub fn sorted_desc(&self) -> Vec<(u64, u32)> {
        let mut v = self.items();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Clears all tracked keys.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pos.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 < self.heap[parent].0 {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l].0 < self.heap[smallest].0 {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r].0 < self.heap[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos.insert(self.heap[a].1, a);
        self.pos.insert(self.heap[b].1, b);
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for i in 1..self.heap.len() {
            assert!(self.heap[(i - 1) / 2].0 <= self.heap[i].0, "heap violated");
        }
        assert_eq!(self.pos.len(), self.heap.len());
        for (i, &(_, k)) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[&k], i, "pos map stale for {k}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn keeps_largest_k() {
        let mut t = TopK::new(3);
        for (k, c) in [(1, 5), (2, 50), (3, 10), (4, 1), (5, 40), (6, 45)] {
            t.offer(k, c);
            t.check_invariants();
        }
        let top = t.sorted_desc();
        assert_eq!(top, vec![(2, 50), (6, 45), (5, 40)]);
        assert_eq!(t.threshold(), 40);
    }

    #[test]
    fn updating_existing_key_does_not_duplicate() {
        let mut t = TopK::new(2);
        t.offer(9, 1);
        t.offer(9, 100);
        t.offer(9, 50); // lower count is ignored
        t.check_invariants();
        assert_eq!(t.len(), 1);
        assert_eq!(t.items(), vec![(9, 100)]);
    }

    #[test]
    fn rejects_below_threshold() {
        let mut t = TopK::new(1);
        assert!(t.offer(1, 10));
        assert!(!t.offer(2, 5));
        assert!(t.contains(1));
        assert!(!t.contains(2));
    }

    #[test]
    fn eviction_removes_membership() {
        let mut t = TopK::new(1);
        t.offer(1, 10);
        t.offer(2, 20);
        assert!(!t.contains(1));
        assert!(t.contains(2));
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn randomized_matches_reference() {
        // Deterministic LCG-driven fuzz against a naive reference.
        let mut t = TopK::new(16);
        let mut all: HashMap<u64, u32> = HashMap::new();
        let mut state = 12345u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 200;
            let count = ((state >> 13) % 1000) as u32;
            let e = all.entry(key).or_insert(0);
            *e = (*e).max(count);
            t.offer(key, *e);
            t.check_invariants();
        }
        let mut reference: Vec<(u64, u32)> = all.iter().map(|(&k, &c)| (k, c)).collect();
        reference.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        reference.truncate(16);
        let mut mine = t.sorted_desc();
        // Counts must match exactly on the boundary-free prefix.
        mine.truncate(16);
        let ref_counts: Vec<u32> = reference.iter().map(|x| x.1).collect();
        let my_counts: Vec<u32> = mine.iter().map(|x| x.1).collect();
        assert_eq!(ref_counts, my_counts);
    }
}
