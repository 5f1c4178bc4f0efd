//! A bucketized concurrent cuckoo hash table (libcuckoo-style).
//!
//! Layout: power-of-two bucket array, 4 slots per 64-byte bucket, two hash
//! functions per key. A lookup probes at most two cache lines — the property
//! the paper's μTPS-H inherits from libcuckoo. Buckets carry versioned locks
//! ([`OptLock`]): lookups validate versions (lock-free), inserts lock the two
//! candidate buckets, and displacement (rare) runs a BFS for a cuckoo path
//! under a global displacement lock, locking path buckets as items move.
//!
//! All operations are resumable FSMs (see [`crate::step::Step`]); none holds
//! a lock while blocked.

use utps_collections::mix64;
use utps_sim::{vaddr, Ctx, OptLock};

use crate::item::ItemId;
use crate::step::Step;

/// Slots per bucket.
pub const SLOTS: usize = 4;

const EMPTY: ItemId = ItemId::MAX;
/// BFS search bound, as in libcuckoo.
const MAX_BFS_NODES: usize = 512;
/// Hash cost in picoseconds (two multiplies + shifts).
const HASH_COST: u64 = 3_000;

/// One 64-byte bucket: versioned lock + 4 (key, item) slots.
#[repr(align(64))]
struct Bucket {
    lock: OptLock,
    keys: [u64; SLOTS],
    items: [ItemId; SLOTS],
}

impl Bucket {
    /// A bucket whose lock word charges `addr` (the bucket's virtual line).
    fn new_at(addr: usize) -> Self {
        Bucket {
            lock: OptLock::at(addr),
            keys: [0; SLOTS],
            items: [EMPTY; SLOTS],
        }
    }

    fn find(&self, key: u64) -> Option<usize> {
        (0..SLOTS).find(|&s| self.items[s] != EMPTY && self.keys[s] == key)
    }

    fn free_slot(&self) -> Option<usize> {
        (0..SLOTS).find(|&s| self.items[s] == EMPTY)
    }
}

/// Errors from cuckoo insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertError {
    /// The key is already present (holding this item id).
    Duplicate(ItemId),
    /// No displacement path found — the table is effectively full.
    Full,
}

/// The concurrent cuckoo hash map: `u64` key → [`ItemId`].
pub struct CuckooMap {
    buckets: Box<[Bucket]>,
    mask: usize,
    displace_lock: OptLock,
    len: usize,
}

impl CuckooMap {
    /// Creates a map sized for `capacity` keys at ≈50% load factor.
    pub fn with_capacity(capacity: usize) -> Self {
        let buckets = (capacity / 2).next_power_of_two().max(4);
        CuckooMap {
            buckets: (0..buckets)
                .map(|b| Bucket::new_at(vaddr::BUCKETS + b * core::mem::size_of::<Bucket>()))
                .collect(),
            mask: buckets - 1,
            displace_lock: OptLock::at(vaddr::INDEX_META + 128),
            len: 0,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bucket slots (capacity bound).
    pub fn slots(&self) -> usize {
        self.buckets.len() * SLOTS
    }

    #[inline]
    fn b1(&self, key: u64) -> usize {
        (mix64(key) as usize) & self.mask
    }

    #[inline]
    fn b2(&self, key: u64) -> usize {
        let h = mix64(key ^ 0xdead_beef_cafe_f00d);
        let b = (h as usize) & self.mask;
        if b == self.b1(key) {
            (b + 1) & self.mask
        } else {
            b
        }
    }

    /// The alternate bucket for `key` currently stored in bucket `b`.
    fn alt(&self, key: u64, b: usize) -> usize {
        let (b1, b2) = (self.b1(key), self.b2(key));
        if b == b1 {
            b2
        } else {
            b1
        }
    }

    fn bucket_addr(&self, b: usize) -> usize {
        vaddr::BUCKETS + b * core::mem::size_of::<Bucket>()
    }

    /// Memory addresses of the two candidate buckets for `key` (used by the
    /// passive one-sided baselines to charge NIC DMA against real bucket
    /// lines).
    pub fn probe_bucket_addrs(&self, key: u64) -> [usize; 2] {
        [
            self.bucket_addr(self.b1(key)),
            self.bucket_addr(self.b2(key)),
        ]
    }

    /// Uncharged lookup for tests and verification.
    pub fn get_native(&self, key: u64) -> Option<ItemId> {
        for b in [self.b1(key), self.b2(key)] {
            if let Some(s) = self.buckets[b].find(key) {
                return Some(self.buckets[b].items[s]);
            }
        }
        None
    }

    /// Uncharged removal for host-side maintenance (compaction/recovery).
    pub fn remove_native(&mut self, key: u64) -> Option<ItemId> {
        for b in [self.b1(key), self.b2(key)] {
            if let Some(s) = self.buckets[b].find(key) {
                let item = self.buckets[b].items[s];
                self.buckets[b].items[s] = EMPTY;
                self.len -= 1;
                return Some(item);
            }
        }
        None
    }

    /// Uncharged, lock-free insert for bulk loading.
    ///
    /// # Panics
    ///
    /// Panics if the table cannot accommodate the key (resize is not
    /// modeled; size the table with headroom as the benches do).
    pub(crate) fn bulk_insert(&mut self, key: u64, item: ItemId) {
        assert!(
            self.try_place(key, item),
            "cuckoo table full at {} keys / {} slots",
            self.len,
            self.slots()
        );
        self.len += 1;
    }

    fn try_place(&mut self, key: u64, item: ItemId) -> bool {
        let (b1, b2) = (self.b1(key), self.b2(key));
        debug_assert!(self.buckets[b1].find(key).is_none());
        debug_assert!(self.buckets[b2].find(key).is_none());
        for b in [b1, b2] {
            if let Some(s) = self.buckets[b].free_slot() {
                self.buckets[b].keys[s] = key;
                self.buckets[b].items[s] = item;
                return true;
            }
        }
        match self.find_path(b1, b2) {
            Some(path) => {
                self.apply_path(&path);
                let b = path[0].0;
                let s = self.buckets[b].free_slot().expect("path freed a slot");
                self.buckets[b].keys[s] = key;
                self.buckets[b].items[s] = item;
                true
            }
            None => false,
        }
    }

    /// BFS for a displacement path. Returns buckets from insertion point to
    /// the bucket with a free slot: `[(b_insert, slot), ..., (b_free, slot)]`
    /// where moving each (bucket, slot) key to its alternate bucket — applied
    /// in reverse — frees a slot in `path[0].0`.
    fn find_path(&self, b1: usize, b2: usize) -> Option<Vec<(usize, usize)>> {
        #[derive(Clone, Copy)]
        struct Node {
            bucket: usize,
            parent: usize,
            parent_slot: usize,
        }
        let mut nodes = vec![
            Node {
                bucket: b1,
                parent: usize::MAX,
                parent_slot: 0,
            },
            Node {
                bucket: b2,
                parent: usize::MAX,
                parent_slot: 0,
            },
        ];
        let mut i = 0;
        while i < nodes.len() && nodes.len() < MAX_BFS_NODES {
            let n = nodes[i];
            if self.buckets[n.bucket].free_slot().is_some() && i >= 2 {
                // Reconstruct the path of (bucket, slot) moves.
                let mut path = Vec::new();
                let mut cur = i;
                while nodes[cur].parent != usize::MAX {
                    let p = nodes[cur];
                    path.push((nodes[p.parent].bucket, p.parent_slot));
                    cur = p.parent;
                }
                path.reverse();
                return Some(path);
            }
            for s in 0..SLOTS {
                let key = self.buckets[n.bucket].keys[s];
                if self.buckets[n.bucket].items[s] == EMPTY {
                    continue;
                }
                nodes.push(Node {
                    bucket: self.alt(key, n.bucket),
                    parent: i,
                    parent_slot: s,
                });
            }
            i += 1;
        }
        // The roots themselves may have had a free slot (checked by caller);
        // here only deeper paths are searched.
        None
    }

    /// Applies a displacement path by moving keys from the end backwards.
    fn apply_path(&mut self, path: &[(usize, usize)]) {
        for &(bucket, slot) in path.iter().rev() {
            let key = self.buckets[bucket].keys[slot];
            let item = self.buckets[bucket].items[slot];
            let dst = self.alt(key, bucket);
            let free = self.buckets[dst]
                .free_slot()
                .expect("displacement target must have a free slot");
            self.buckets[dst].keys[free] = key;
            self.buckets[dst].items[free] = item;
            self.buckets[bucket].items[slot] = EMPTY;
        }
    }

    /// Checks structural invariants (tests): every key findable via its two
    /// buckets, length consistent.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut count = 0;
        for (bi, b) in self.buckets.iter().enumerate() {
            for s in 0..SLOTS {
                if b.items[s] != EMPTY {
                    count += 1;
                    let key = b.keys[s];
                    assert!(
                        bi == self.b1(key) || bi == self.b2(key),
                        "key {key} stranded in bucket {bi}"
                    );
                }
            }
        }
        assert_eq!(count, self.len, "len out of sync");
    }
}

/// Resumable lookup: `key → Option<ItemId>`.
///
/// Two-phase: first poll issues prefetches for both candidate buckets (the
/// coroutine switch point for batched indexing); second poll probes and
/// validates versions.
pub struct CuckooGet {
    key: u64,
    prefetched: bool,
}

impl CuckooGet {
    /// Starts a lookup for `key`.
    pub fn new(key: u64) -> Self {
        CuckooGet {
            key,
            prefetched: false,
        }
    }

    /// Advances the lookup.
    pub fn poll(&mut self, ctx: &mut Ctx<'_>, map: &CuckooMap) -> Step<Option<ItemId>> {
        let (b1, b2) = (map.b1(self.key), map.b2(self.key));
        if !self.prefetched {
            ctx.compute_ps(HASH_COST);
            ctx.prefetch(map.bucket_addr(b1), 64);
            ctx.prefetch(map.bucket_addr(b2), 64);
            self.prefetched = true;
            return Step::Ready;
        }
        for b in [b1, b2] {
            let bucket = &map.buckets[b];
            let v = match bucket.lock.read_version(ctx) {
                Some(v) => v,
                None => return Step::Blocked,
            };
            ctx.read(map.bucket_addr(b), 64);
            let found = bucket.find(self.key).map(|s| bucket.items[s]);
            if !bucket.lock.validate(ctx, v) {
                return Step::Ready; // torn probe: restart
            }
            if let Some(id) = found {
                return Step::Done(Some(id));
            }
        }
        Step::Done(None)
    }
}

/// Resumable insert of a *new* key.
pub struct CuckooInsert {
    key: u64,
    item: ItemId,
    prefetched: bool,
}

impl CuckooInsert {
    /// Starts an insert of `key → item`.
    pub fn new(key: u64, item: ItemId) -> Self {
        CuckooInsert {
            key,
            item,
            prefetched: false,
        }
    }

    /// Advances the insert. Never holds locks across a [`Step::Blocked`].
    pub fn poll(
        &mut self,
        ctx: &mut Ctx<'_>,
        map: &mut CuckooMap,
    ) -> Step<Result<(), InsertError>> {
        let (b1, b2) = (map.b1(self.key), map.b2(self.key));
        if !self.prefetched {
            ctx.compute_ps(HASH_COST);
            ctx.prefetch(map.bucket_addr(b1), 64);
            ctx.prefetch(map.bucket_addr(b2), 64);
            self.prefetched = true;
            return Step::Ready;
        }
        // Lock both candidate buckets in index order.
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        if !map.buckets[lo].lock.try_lock(ctx) {
            return Step::Blocked;
        }
        if hi != lo && !map.buckets[hi].lock.try_lock(ctx) {
            map.buckets[lo].lock.unlock(ctx);
            return Step::Blocked;
        }
        ctx.read(map.bucket_addr(b1), 64);
        ctx.read(map.bucket_addr(b2), 64);

        let unlock_both = |map: &mut CuckooMap, ctx: &mut Ctx<'_>| {
            if hi != lo {
                map.buckets[hi].lock.unlock(ctx);
            }
            map.buckets[lo].lock.unlock(ctx);
        };

        // Duplicate check.
        for b in [b1, b2] {
            if let Some(s) = map.buckets[b].find(self.key) {
                let id = map.buckets[b].items[s];
                unlock_both(map, ctx);
                return Step::Done(Err(InsertError::Duplicate(id)));
            }
        }
        // Fast path: a free slot in either bucket.
        for b in [b1, b2] {
            if let Some(s) = map.buckets[b].free_slot() {
                map.buckets[b].keys[s] = self.key;
                map.buckets[b].items[s] = self.item;
                ctx.write(map.bucket_addr(b), 64);
                map.len += 1;
                unlock_both(map, ctx);
                return Step::Done(Ok(()));
            }
        }
        // Slow path: displacement under the global displacement lock.
        if !map.displace_lock.try_lock(ctx) {
            unlock_both(map, ctx);
            return Step::Blocked;
        }
        let path = map.find_path(b1, b2);
        // Charge the BFS reads (one line per examined bucket, bounded).
        ctx.read(map.bucket_addr(b1), 64);
        let result = match path {
            Some(path) => {
                for &(bkt, _) in &path {
                    ctx.read(map.bucket_addr(bkt), 64);
                    ctx.write(map.bucket_addr(bkt), 64);
                }
                map.apply_path(&path);
                let b = path[0].0;
                let s = map.buckets[b].free_slot().expect("path freed a slot");
                map.buckets[b].keys[s] = self.key;
                map.buckets[b].items[s] = self.item;
                ctx.write(map.bucket_addr(b), 64);
                map.len += 1;
                Ok(())
            }
            None => Err(InsertError::Full),
        };
        map.displace_lock.unlock(ctx);
        unlock_both(map, ctx);
        Step::Done(result)
    }
}

/// Resumable removal of a key.
pub struct CuckooRemove {
    key: u64,
}

impl CuckooRemove {
    /// Starts removal of `key`.
    pub fn new(key: u64) -> Self {
        CuckooRemove { key }
    }

    /// Advances the removal; completes with the removed item id, if any.
    pub fn poll(&mut self, ctx: &mut Ctx<'_>, map: &mut CuckooMap) -> Step<Option<ItemId>> {
        let (b1, b2) = (map.b1(self.key), map.b2(self.key));
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        if !map.buckets[lo].lock.try_lock(ctx) {
            return Step::Blocked;
        }
        if hi != lo && !map.buckets[hi].lock.try_lock(ctx) {
            map.buckets[lo].lock.unlock(ctx);
            return Step::Blocked;
        }
        let mut removed = None;
        for b in [b1, b2] {
            ctx.read(map.bucket_addr(b), 64);
            if let Some(s) = map.buckets[b].find(self.key) {
                removed = Some(map.buckets[b].items[s]);
                map.buckets[b].items[s] = EMPTY;
                ctx.write(map.bucket_addr(b), 64);
                map.len -= 1;
                break;
            }
        }
        if hi != lo {
            map.buckets[hi].lock.unlock(ctx);
        }
        map.buckets[lo].lock.unlock(ctx);
        Step::Done(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_sim::{Engine, MachineConfig, StatClass};

    fn with_map<R: 'static>(
        map: CuckooMap,
        f: impl FnOnce(&mut Ctx<'_>, &mut CuckooMap) -> R + 'static,
    ) -> (R, CuckooMap) {
        Engine::run_once(MachineConfig::tiny(), 1, StatClass::Other, map, f)
    }

    fn drive<T>(
        ctx: &mut Ctx<'_>,
        map: &mut CuckooMap,
        mut poll: impl FnMut(&mut Ctx<'_>, &mut CuckooMap) -> Step<T>,
    ) -> T {
        loop {
            match poll(ctx, map) {
                Step::Done(v) => return v,
                Step::Ready => continue,
                Step::Blocked => panic!("unexpected block in single-threaded test"),
            }
        }
    }

    #[test]
    fn insert_then_get() {
        let map = CuckooMap::with_capacity(1024);
        let ((), map) = with_map(map, |ctx, map| {
            for k in 0..500u64 {
                let mut ins = CuckooInsert::new(k, k as ItemId + 1);
                let r = drive(ctx, map, |c, m| ins.poll(c, m));
                assert_eq!(r, Ok(()));
            }
            for k in 0..500u64 {
                let mut get = CuckooGet::new(k);
                let r = drive(ctx, map, |c, m| get.poll(c, m));
                assert_eq!(r, Some(k as ItemId + 1), "key {k}");
            }
            let mut get = CuckooGet::new(9999);
            assert_eq!(drive(ctx, map, |c, m| get.poll(c, m)), None);
        });
        map.check_invariants();
        assert_eq!(map.len(), 500);
    }

    #[test]
    fn duplicate_insert_reports_existing() {
        let map = CuckooMap::with_capacity(64);
        with_map(map, |ctx, map| {
            let mut a = CuckooInsert::new(5, 100);
            assert_eq!(drive(ctx, map, |c, m| a.poll(c, m)), Ok(()));
            let mut b = CuckooInsert::new(5, 200);
            assert_eq!(
                drive(ctx, map, |c, m| b.poll(c, m)),
                Err(InsertError::Duplicate(100))
            );
        });
    }

    #[test]
    fn remove_frees_slot() {
        let map = CuckooMap::with_capacity(64);
        let ((), map) = with_map(map, |ctx, map| {
            let mut ins = CuckooInsert::new(7, 70);
            drive(ctx, map, |c, m| ins.poll(c, m)).unwrap();
            let mut rm = CuckooRemove::new(7);
            assert_eq!(drive(ctx, map, |c, m| rm.poll(c, m)), Some(70));
            let mut rm2 = CuckooRemove::new(7);
            assert_eq!(drive(ctx, map, |c, m| rm2.poll(c, m)), None);
            let mut get = CuckooGet::new(7);
            assert_eq!(drive(ctx, map, |c, m| get.poll(c, m)), None);
        });
        assert_eq!(map.len(), 0);
        map.check_invariants();
    }

    #[test]
    fn bulk_load_high_occupancy_with_displacement() {
        let mut map = CuckooMap::with_capacity(1000);
        // with_capacity(1000) → 512 buckets = 2048 slots; insert 1600 keys
        // (~78% load) to force displacements.
        for k in 0..1600u64 {
            map.bulk_insert(k * 7 + 1, k as ItemId);
        }
        map.check_invariants();
        for k in 0..1600u64 {
            assert_eq!(map.get_native(k * 7 + 1), Some(k as ItemId), "key {k}");
        }
        assert_eq!(map.get_native(2), None);
    }

    #[test]
    fn charged_insert_handles_displacement() {
        // Tiny table to force the displacement path under charging.
        let map = CuckooMap::with_capacity(8); // 4 buckets, 16 slots
        let (ok, map) = with_map(map, |ctx, map| {
            let mut placed = 0;
            for k in 0..16u64 {
                let mut ins = CuckooInsert::new(k, k as ItemId);
                match drive(ctx, map, |c, m| ins.poll(c, m)) {
                    Ok(()) => placed += 1,
                    Err(InsertError::Full) => break,
                    Err(e) => panic!("{e:?}"),
                }
            }
            placed
        });
        assert!(ok >= 12, "expected near-full table, placed {ok}");
        map.check_invariants();
    }

    #[test]
    fn get_blocked_while_bucket_locked() {
        let map = CuckooMap::with_capacity(64);
        with_map(map, |ctx, map| {
            let mut ins = CuckooInsert::new(3, 30);
            drive(ctx, map, |c, m| ins.poll(c, m)).unwrap();
            let b1 = map.b1(3);
            assert!(map.buckets[b1].lock.try_lock(ctx));
            let mut get = CuckooGet::new(3);
            assert_eq!(get.poll(ctx, map), Step::Ready, "prefetch phase");
            assert_eq!(get.poll(ctx, map), Step::Blocked);
            map.buckets[b1].lock.unlock(ctx);
            assert!(matches!(get.poll(ctx, map), Step::Done(Some(30))));
        });
    }

    #[test]
    fn lookup_touches_at_most_two_lines() {
        let map = CuckooMap::with_capacity(4096);
        with_map(map, |ctx, map| {
            let mut ins = CuckooInsert::new(42, 1);
            drive(ctx, map, |c, m| ins.poll(c, m)).unwrap();
            let before = ctx.machine().cache.metrics.combined().total();
            let mut get = CuckooGet::new(42);
            drive(ctx, map, |c, m| get.poll(c, m));
            let after = ctx.machine().cache.metrics.combined().total();
            // 2 prefetches + ≤2 bucket reads + ≤4 version words (same lines).
            assert!(after - before <= 10, "touched {} lines", after - before);
        });
    }
}
