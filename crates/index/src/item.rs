//! Value storage with the paper's per-item concurrency control (§3.3).
//!
//! Each item embeds a lock-and-version word ([`OptLock`]): updates of values
//! ≤ 8 bytes are performed with a single atomic instruction; larger updates
//! CAS the lock bits, copy, bump the version and release; reads are lock-free
//! seqlock-style (version before and after, retry on mismatch). Reads and
//! writes charge the simulated cache for both the value bytes and the network
//! buffer they copy to/from — data never flows through the CR-MR queue.

use utps_sim::{vaddr, Arena, Ctx, OptLock};

use crate::step::Step;

/// Identifier of a stored item.
pub type ItemId = u32;

/// A stored value with its lock/version word.
struct Item {
    lock: OptLock,
    val: Box<[u8]>,
    /// Virtual address of the value bytes; the lock word lives one cache
    /// line below (`val_addr - 64`). See [`utps_sim::vaddr`].
    val_addr: usize,
}

/// Stable-address storage for KV item payloads.
pub struct ItemStore {
    items: Arena<Item>,
    /// Bump cursor for virtual value blocks in [`vaddr::ITEM_VALS`].
    val_bump: usize,
    /// Total live payload bytes (for footprint reporting).
    bytes: usize,
    /// Items logically deleted but not yet reclaimed (epoch-deferred: an
    /// in-flight cached read may still touch the bytes; see §3.2.2's
    /// epoch-based cache switching).
    retired: Vec<ItemId>,
}

/// Cost constants (picoseconds) for the pure-compute part of a copy loop.
const COPY_SETUP: u64 = 2_000;

impl ItemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ItemStore {
            items: Arena::with_virt_base(vaddr::ITEM_SLOTS),
            val_bump: vaddr::ITEM_VALS,
            bytes: 0,
            retired: Vec::new(),
        }
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total live payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Allocates an item holding `val` (uncharged — used by bulk load and by
    /// the insert path, which charges separately).
    pub fn alloc(&mut self, val: &[u8]) -> ItemId {
        self.bytes += val.len();
        let val_addr = self.bump_value_block(val.len());
        self.items.insert(Item {
            lock: OptLock::at(val_addr - 64),
            val: val.into(),
            val_addr,
        })
    }

    /// Reserves a virtual block for a value of `len` bytes: one line for the
    /// lock word, then the value, rounded up to whole lines (a real slab
    /// allocator would do the same). Returns the value address.
    ///
    /// # Panics
    ///
    /// Panics if the block would leave the [`vaddr::ITEM_VALS`] region.
    fn bump_value_block(&mut self, len: usize) -> usize {
        let block = self.val_bump;
        self.val_bump += 64 + len.div_ceil(64).max(1) * 64;
        assert!(
            self.val_bump <= vaddr::ITEM_VALS + vaddr::REGION_BYTES,
            "item values overflow their {} GiB vaddr region",
            vaddr::REGION_BYTES >> 30
        );
        block + 64
    }

    /// Frees an item immediately.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn free(&mut self, id: ItemId) {
        let item = self.items.remove(id);
        self.bytes -= item.val.len();
    }

    /// Logically deletes an item, deferring reclamation: the bytes stay
    /// readable until a quiescent-point reclaim (`reclaim_retired`, which
    /// only tests call so far) frees them, so a reader racing with the
    /// delete sees the old value rather than freed memory (the paper's
    /// epoch discipline).
    pub fn retire(&mut self, id: ItemId) {
        self.retired.push(id);
    }

    /// Number of retired-but-unreclaimed items.
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Frees all retired items. Call only when no operation can still hold
    /// an [`ItemId`] for them (between epochs / after a drain).
    #[cfg(test)]
    pub(crate) fn reclaim_retired(&mut self) {
        for id in core::mem::take(&mut self.retired) {
            self.free(id);
        }
    }

    /// The address of the value bytes (for cache charging).
    pub fn value_addr(&self, id: ItemId) -> usize {
        self.items[id].val_addr
    }

    /// The length of the value in bytes.
    pub fn value_len(&self, id: ItemId) -> usize {
        self.items[id].val.len()
    }

    /// Raw value bytes (uncharged; for verification in tests).
    pub fn value(&self, id: ItemId) -> &[u8] {
        &self.items[id].val
    }

    /// Lock-free read: copies the value into the buffer at `dst_addr`
    /// (a network response buffer), returning the bytes read.
    ///
    /// Seqlock protocol: version before → copy → version after. A torn read
    /// retries; an in-progress writer blocks the caller until its next step.
    pub fn read_into(
        &self,
        ctx: &mut Ctx<'_>,
        id: ItemId,
        dst_addr: usize,
        out: &mut Vec<u8>,
    ) -> Step<usize> {
        let item = &self.items[id];
        let v1 = match item.lock.read_version(ctx) {
            Some(v) => v,
            None => return Step::Blocked,
        };
        let len = item.val.len();
        ctx.compute_ps(COPY_SETUP);
        ctx.read(item.val_addr, len);
        ctx.write(dst_addr, len);
        if item.lock.validate(ctx, v1) {
            out.clear();
            out.extend_from_slice(&item.val);
            Step::Done(len)
        } else {
            // Torn read: retry on the next poll.
            Step::Ready
        }
    }

    /// Writes `src` over the item's value, reading the bytes from the buffer
    /// at `src_addr` (a network receive buffer).
    ///
    /// Values ≤ 8 bytes are updated with one atomic store; larger values take
    /// the item lock (blocking the caller's FSM if a writer holds it).
    /// The value length must match the stored length for in-place updates;
    /// a different length reallocates (uncommon in the paper's workloads).
    pub fn write_from(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: ItemId,
        src_addr: usize,
        src: &[u8],
    ) -> Step<()> {
        // Charge reading the request payload from the receive buffer.
        ctx.read(src_addr, src.len());
        let old_len = self.items[id].val.len();
        if src.len() <= 8 && old_len == src.len() {
            // Single atomic store: no locking required (§3.3).
            let addr = self.items[id].val_addr;
            ctx.atomic(addr);
            self.items[id].val.copy_from_slice(src);
            return Step::Done(());
        }
        let item = &mut self.items[id];
        // The lock line stays hot for the duration of the protected copy.
        let hold = 4_000 + src.len() as u64 * 150;
        if !item.lock.try_lock_hold(ctx, hold) {
            return Step::Blocked;
        }
        ctx.compute_ps(COPY_SETUP);
        if old_len == src.len() {
            ctx.write(item.val_addr, src.len());
            item.val.copy_from_slice(src);
        } else {
            // Length change: reallocate (charged as a write of the new
            // payload plus a constant for the allocator). The value moves to
            // a fresh virtual block; the lock word stays put.
            ctx.compute_ns(40);
            self.bytes = self.bytes - old_len + src.len();
            let new_addr = self.bump_value_block(src.len());
            let item = &mut self.items[id];
            item.val = src.into();
            item.val_addr = new_addr;
            ctx.write(new_addr, src.len());
        }
        let item = &mut self.items[id];
        item.lock.unlock(ctx);
        Step::Done(())
    }

    /// Uncharged in-place value install, used by the cluster migration and
    /// replica-refresh controllers: the transfer cost is charged at the
    /// controller (link serialization + copy compute), not per byte here.
    /// Must only be called at a quiescent point for the item (the caller
    /// drains in-flight ops first), so no lock/version traffic is modeled.
    pub fn set_value_native(&mut self, id: ItemId, val: &[u8]) {
        let old_len = self.items[id].val.len();
        if old_len == val.len() {
            self.items[id].val.copy_from_slice(val);
        } else {
            self.bytes = self.bytes - old_len + val.len();
            let new_addr = self.bump_value_block(val.len());
            let item = &mut self.items[id];
            item.val = val.into();
            item.val_addr = new_addr;
        }
    }

    /// Whether the item's writer lock is currently held (diagnostics).
    pub fn is_locked(&self, id: ItemId) -> bool {
        self.items[id].lock.is_locked()
    }
}

impl Default for ItemStore {
    fn default() -> Self {
        ItemStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_sim::{Engine, MachineConfig, StatClass};

    /// Runs `f` once inside a one-step simulated process.
    fn with_ctx<R: 'static>(f: impl FnOnce(&mut Ctx<'_>, &mut ItemStore) -> R + 'static) -> R {
        Engine::run_once(
            MachineConfig::tiny(),
            1,
            StatClass::Other,
            ItemStore::new(),
            f,
        )
        .0
    }

    #[test]
    #[should_panic(expected = "item values overflow")]
    fn value_bump_stays_inside_its_vaddr_region() {
        let mut store = ItemStore::new();
        store.val_bump = vaddr::ITEM_VALS + vaddr::REGION_BYTES - 128;
        store.alloc(&[0; 64]);
        store.alloc(&[0; 1]);
    }

    #[test]
    fn alloc_read_roundtrip() {
        with_ctx(|ctx, store| {
            let id = store.alloc(b"hello world!");
            let mut out = Vec::new();
            match store.read_into(ctx, id, 0x9000, &mut out) {
                Step::Done(n) => {
                    assert_eq!(n, 12);
                    assert_eq!(&out, b"hello world!");
                }
                other => panic!("unexpected {other:?}"),
            }
        });
    }

    #[test]
    fn small_value_updates_atomically() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&7u64.to_le_bytes());
            let step = store.write_from(ctx, id, 0x9000, &9u64.to_le_bytes());
            assert!(step.is_done());
            assert_eq!(store.value(id), 9u64.to_le_bytes());
            assert!(!store.is_locked(id), "atomic path must not lock");
        });
    }

    #[test]
    fn large_value_locks_and_updates() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&[1u8; 256]);
            let step = store.write_from(ctx, id, 0x9000, &[2u8; 256]);
            assert!(step.is_done());
            assert_eq!(store.value(id), &[2u8; 256][..]);
            assert!(!store.is_locked(id), "lock must be released");
        });
    }

    #[test]
    fn length_change_reallocates() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&[1u8; 16]);
            let before = store.bytes();
            assert!(store.write_from(ctx, id, 0x9000, &[3u8; 64]).is_done());
            assert_eq!(store.value_len(id), 64);
            assert_eq!(store.bytes(), before + 48);
        });
    }

    #[test]
    fn read_blocked_by_held_writer_lock() {
        with_ctx(|ctx, store| {
            let id = store.alloc(&[0u8; 32]);
            // Simulate another thread holding the write lock.
            assert!(store.items[id].lock.try_lock(ctx));
            let mut out = Vec::new();
            assert!(store.read_into(ctx, id, 0x9000, &mut out).is_blocked());
            store.items[id].lock.unlock(ctx);
            assert!(store.read_into(ctx, id, 0x9000, &mut out).is_done());
        });
    }

    #[test]
    fn free_reclaims_bytes() {
        with_ctx(|_ctx, store| {
            let id = store.alloc(&[0u8; 100]);
            assert_eq!(store.bytes(), 100);
            store.free(id);
            assert_eq!(store.bytes(), 0);
            assert!(store.is_empty());
        });
    }

    #[test]
    fn retire_defers_reclamation() {
        with_ctx(|ctx, store| {
            let id = store.alloc(b"still here");
            store.retire(id);
            assert_eq!(store.retired_len(), 1);
            // The bytes remain readable until reclamation.
            let mut out = Vec::new();
            assert!(store.read_into(ctx, id, 0x9000, &mut out).is_done());
            assert_eq!(&out, b"still here");
            store.reclaim_retired();
            assert_eq!(store.retired_len(), 0);
            assert!(store.is_empty());
        });
    }
}
