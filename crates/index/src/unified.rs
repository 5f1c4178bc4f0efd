//! A unified front over the two index structures.
//!
//! μTPS-H and μTPS-T differ only in their index (§4); the KVS layers are
//! generic over this enum so every system in the workspace (μTPS, BaseKV,
//! eRPCKV) can run with either index, as in Figure 7's top/bottom halves.

use utps_sim::Ctx;

use crate::btree::{BplusTree, TreeGet, TreeInsert, TreeInsertError, TreeRemove, TreeScan};
use crate::cuckoo::{CuckooGet, CuckooInsert, CuckooMap, CuckooRemove, InsertError};
use crate::item::ItemId;
use crate::step::Step;

/// Which index structure a store uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Bucketized cuckoo hash (libcuckoo-style) — point queries only.
    Hash,
    /// B+-tree with optimistic lock coupling (MassTree substitute) — point
    /// and range queries.
    Tree,
}

/// Unified insertion error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexInsertError {
    /// Key already present with this item.
    Duplicate(ItemId),
    /// Hash table had no displacement path (effectively full).
    Full,
}

/// A key → [`ItemId`] index of either kind.
pub enum Index {
    /// Cuckoo hash variant.
    Hash(CuckooMap),
    /// B+-tree variant.
    Tree(BplusTree),
}

impl Index {
    /// Creates an empty index of `kind` sized for `capacity` keys.
    pub fn new(kind: IndexKind, capacity: usize) -> Self {
        match kind {
            IndexKind::Hash => Index::Hash(CuckooMap::with_capacity(capacity * 2)),
            IndexKind::Tree => Index::Tree(BplusTree::new()),
        }
    }

    /// Builds an index from `(key, item)` pairs (bulk load; pairs need not
    /// be sorted, keys must be distinct).
    pub fn from_pairs(kind: IndexKind, mut pairs: Vec<(u64, ItemId)>) -> Self {
        match kind {
            IndexKind::Hash => {
                let mut m = CuckooMap::with_capacity(pairs.len() * 2);
                for (k, v) in pairs {
                    m.bulk_insert(k, v);
                }
                Index::Hash(m)
            }
            IndexKind::Tree => {
                pairs.sort_unstable_by_key(|&(k, _)| k);
                Index::Tree(BplusTree::bulk_load(&pairs))
            }
        }
    }

    /// The index kind.
    pub fn kind(&self) -> IndexKind {
        match self {
            Index::Hash(_) => IndexKind::Hash,
            Index::Tree(_) => IndexKind::Tree,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        match self {
            Index::Hash(m) => m.len(),
            Index::Tree(t) => t.len(),
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether range scans are supported.
    pub fn supports_scan(&self) -> bool {
        matches!(self, Index::Tree(_))
    }

    /// Uncharged lookup for tests and verification.
    pub fn get_native(&self, key: u64) -> Option<ItemId> {
        match self {
            Index::Hash(m) => m.get_native(key),
            Index::Tree(t) => t.get_native(key),
        }
    }

    /// Uncharged removal for host-side maintenance (compaction/recovery).
    pub fn remove_native(&mut self, key: u64) -> Option<ItemId> {
        match self {
            Index::Hash(m) => m.remove_native(key),
            Index::Tree(t) => t.remove_native(key),
        }
    }
}

/// Unified resumable lookup.
pub enum IndexGet {
    /// Hash lookup.
    Hash(CuckooGet),
    /// Tree lookup.
    Tree(TreeGet),
}

impl IndexGet {
    /// Starts a lookup for `key` against `index`.
    pub fn new(index: &Index, key: u64) -> Self {
        match index {
            Index::Hash(_) => IndexGet::Hash(CuckooGet::new(key)),
            Index::Tree(_) => IndexGet::Tree(TreeGet::new(key)),
        }
    }

    /// Advances the lookup.
    pub fn poll(&mut self, ctx: &mut Ctx<'_>, index: &Index) -> Step<Option<ItemId>> {
        match (self, index) {
            (IndexGet::Hash(f), Index::Hash(m)) => f.poll(ctx, m),
            (IndexGet::Tree(f), Index::Tree(t)) => f.poll(ctx, t),
            _ => panic!("IndexGet used against a different index kind"),
        }
    }
}

/// Unified resumable insert.
pub enum IndexInsert {
    /// Hash insert.
    Hash(CuckooInsert),
    /// Tree insert.
    Tree(TreeInsert),
}

impl IndexInsert {
    /// Starts an insert of `key → item` against `index`.
    pub fn new(index: &Index, key: u64, item: ItemId) -> Self {
        match index {
            Index::Hash(_) => IndexInsert::Hash(CuckooInsert::new(key, item)),
            Index::Tree(_) => IndexInsert::Tree(TreeInsert::new(key, item)),
        }
    }

    /// Advances the insert.
    pub fn poll(
        &mut self,
        ctx: &mut Ctx<'_>,
        index: &mut Index,
    ) -> Step<Result<(), IndexInsertError>> {
        match (self, index) {
            (IndexInsert::Hash(f), Index::Hash(m)) => f.poll(ctx, m).map(|r| {
                r.map_err(|e| match e {
                    InsertError::Duplicate(id) => IndexInsertError::Duplicate(id),
                    InsertError::Full => IndexInsertError::Full,
                })
            }),
            (IndexInsert::Tree(f), Index::Tree(t)) => f.poll(ctx, t).map(|r| {
                r.map_err(|e| match e {
                    TreeInsertError::Duplicate(id) => IndexInsertError::Duplicate(id),
                })
            }),
            _ => panic!("IndexInsert used against a different index kind"),
        }
    }
}

/// Unified resumable removal.
pub enum IndexRemove {
    /// Hash removal.
    Hash(CuckooRemove),
    /// Tree removal.
    Tree(TreeRemove),
}

impl IndexRemove {
    /// Starts removal of `key` against `index`.
    pub fn new(index: &Index, key: u64) -> Self {
        match index {
            Index::Hash(_) => IndexRemove::Hash(CuckooRemove::new(key)),
            Index::Tree(_) => IndexRemove::Tree(TreeRemove::new(key)),
        }
    }

    /// Advances the removal; completes with the removed item id, if any.
    pub fn poll(&mut self, ctx: &mut Ctx<'_>, index: &mut Index) -> Step<Option<ItemId>> {
        match (self, index) {
            (IndexRemove::Hash(f), Index::Hash(m)) => f.poll(ctx, m),
            (IndexRemove::Tree(f), Index::Tree(t)) => f.poll(ctx, t),
            _ => panic!("IndexRemove used against a different index kind"),
        }
    }
}

/// Unified resumable range scan (trees only).
pub struct IndexScan(Option<TreeScan>);

impl IndexScan {
    /// Starts a scan of `[lo, hi]` limited to `limit` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the index does not support scans (hash kind), mirroring
    /// μTPS-H's point-query-only API.
    pub fn new(index: &Index, lo: u64, hi: u64, limit: usize) -> Self {
        match index {
            Index::Tree(_) => IndexScan(Some(TreeScan::new(lo, hi, limit))),
            Index::Hash(_) => panic!("scan on a hash index (μTPS-H is point-query only)"),
        }
    }

    /// Advances the scan.
    pub fn poll(&mut self, ctx: &mut Ctx<'_>, index: &Index) -> Step<Vec<(u64, ItemId)>> {
        match (self.0.as_mut(), index) {
            (Some(f), Index::Tree(t)) => f.poll(ctx, t),
            _ => panic!("IndexScan used against a different index kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_sim::{Engine, MachineConfig, StatClass};

    fn with_index<R: 'static>(
        index: Index,
        f: impl FnOnce(&mut Ctx<'_>, &mut Index) -> R + 'static,
    ) -> (R, Index) {
        Engine::run_once(MachineConfig::tiny(), 1, StatClass::Other, index, f)
    }

    fn exercise(kind: IndexKind) {
        let pairs: Vec<(u64, ItemId)> = (0..200).map(|i| (i * 5, i as ItemId)).collect();
        let index = Index::from_pairs(kind, pairs);
        let ((), index) = with_index(index, move |ctx, index| {
            // Point lookups.
            for k in 0..200u64 {
                let mut get = IndexGet::new(index, k * 5);
                loop {
                    match get.poll(ctx, index) {
                        Step::Done(r) => {
                            assert_eq!(r, Some(k as ItemId));
                            break;
                        }
                        Step::Ready => {}
                        Step::Blocked => panic!("blocked"),
                    }
                }
            }
            // Insert a new key, then remove it.
            let mut ins = IndexInsert::new(index, 1_000_001, 77);
            loop {
                match ins.poll(ctx, index) {
                    Step::Done(r) => {
                        assert_eq!(r, Ok(()));
                        break;
                    }
                    Step::Ready => {}
                    Step::Blocked => panic!("blocked"),
                }
            }
            assert_eq!(index.get_native(1_000_001), Some(77));
            let mut rm = IndexRemove::new(index, 1_000_001);
            loop {
                match rm.poll(ctx, index) {
                    Step::Done(r) => {
                        assert_eq!(r, Some(77));
                        break;
                    }
                    Step::Ready => {}
                    Step::Blocked => panic!("blocked"),
                }
            }
        });
        assert_eq!(index.len(), 200);
        assert_eq!(index.kind(), kind);
    }

    #[test]
    fn hash_end_to_end() {
        exercise(IndexKind::Hash);
    }

    #[test]
    fn tree_end_to_end() {
        exercise(IndexKind::Tree);
    }

    #[test]
    fn scan_only_on_tree() {
        let tree = Index::from_pairs(IndexKind::Tree, (0..50).map(|i| (i, i as ItemId)).collect());
        assert!(tree.supports_scan());
        let ((), _) = with_index(tree, |ctx, index| {
            let mut scan = IndexScan::new(index, 10, 19, 100);
            loop {
                match scan.poll(ctx, index) {
                    Step::Done(v) => {
                        assert_eq!(v.len(), 10);
                        break;
                    }
                    Step::Ready => {}
                    Step::Blocked => panic!("blocked"),
                }
            }
        });
        let hash = Index::new(IndexKind::Hash, 64);
        assert!(!hash.supports_scan());
    }

    #[test]
    #[should_panic(expected = "scan on a hash index")]
    fn scan_on_hash_panics() {
        let hash = Index::new(IndexKind::Hash, 64);
        let _ = IndexScan::new(&hash, 0, 10, 5);
    }
}
