//! A chunked arena with address-stable elements.
//!
//! Index structures in this workspace charge the cache model with the
//! addresses of the data they touch, so those addresses must never move.
//! Each element's address is virtual — the arena's base plus its slot id
//! times the slot size — and stays fixed until the element is removed.
//! Elements are addressed by a dense `u32` slot id and can be freed and
//! reused through an intrusive free list.

/// Number of elements per chunk. A power of two keeps slot→chunk math cheap.
const CHUNK: usize = 1 << 12;

/// A chunked, address-stable arena of `T` with slot reuse.
///
/// # Examples
///
/// ```
/// let mut arena = utps_sim::Arena::new();
/// let a = arena.insert(10u64);
/// let b = arena.insert(20u64);
/// assert_eq!(arena[a], 10);
/// arena.remove(a);
/// let c = arena.insert(30u64); // reuses slot `a`
/// assert_eq!(c, a);
/// assert_eq!(arena[b], 20);
/// ```
pub struct Arena<T> {
    chunks: Vec<Box<[Slot<T>]>>,
    free_head: u32,
    len: usize,
    virt_base: usize,
}

enum Slot<T> {
    Occupied(T),
    /// Free slot; holds the next free slot id (or `NONE`).
    Free(u32),
}

const NONE: u32 = u32::MAX;

impl<T> Arena<T> {
    /// Creates an empty arena at virtual base 0.
    pub fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            free_head: NONE,
            len: 0,
            virt_base: 0,
        }
    }

    /// Creates an empty arena whose [`Arena::addr_of`] reports addresses in
    /// a fixed virtual region (see [`crate::vaddr`]).
    pub fn with_virt_base(virt_base: usize) -> Self {
        let mut a = Arena::new();
        a.virt_base = virt_base;
        a
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value and returns its slot id.
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free_head != NONE {
            let id = self.free_head;
            let slot = self.slot_mut(id);
            match *slot {
                Slot::Free(next) => {
                    self.free_head = next;
                    *self.slot_mut(id) = Slot::Occupied(value);
                    id
                }
                // The free list only links free slots.
                Slot::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
        } else {
            let id = (self.chunks.len() * CHUNK) as u32;
            let mut chunk = Vec::with_capacity(CHUNK);
            chunk.push(Slot::Occupied(value));
            for i in 1..CHUNK {
                let next = if i + 1 < CHUNK {
                    id + i as u32 + 1
                } else {
                    NONE
                };
                chunk.push(Slot::Free(next));
            }
            self.free_head = id + 1;
            self.chunks.push(chunk.into_boxed_slice());
            id
        }
    }

    /// Removes and returns the value at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an occupied slot.
    pub fn remove(&mut self, id: u32) -> T {
        let head = self.free_head;
        let slot = self.slot_mut(id);
        let old = core::mem::replace(slot, Slot::Free(head));
        match old {
            Slot::Occupied(v) => {
                self.free_head = id;
                self.len -= 1;
                v
            }
            Slot::Free(_) => panic!("remove of free arena slot {id}"),
        }
    }

    /// Returns a reference to the value at `id`, if occupied.
    pub fn get(&self, id: u32) -> Option<&T> {
        match self.slot(id) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns a mutable reference to the value at `id`, if occupied.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let chunk = self.chunks.get_mut(id as usize / CHUNK)?;
        match chunk.get_mut(id as usize % CHUNK) {
            Some(Slot::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns the stable virtual address of the element at `id`:
    /// `base + id * stride`.
    ///
    /// The address is used to charge the simulated cache hierarchy; it stays
    /// valid until the element is removed (slot reuse hands the same address
    /// to the next occupant, which is exactly how a real allocator behaves),
    /// and it is identical run to run.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an occupied slot.
    pub fn addr_of(&self, id: u32) -> usize {
        match self.slot(id) {
            Some(Slot::Occupied(_)) => {
                self.virt_base + id as usize * core::mem::size_of::<Slot<T>>()
            }
            _ => panic!("addr_of on free arena slot {id}"),
        }
    }

    /// Iterates over `(id, &value)` for all occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.chunks.iter().enumerate().flat_map(|(ci, chunk)| {
            chunk.iter().enumerate().filter_map(move |(si, slot)| {
                if let Slot::Occupied(v) = slot {
                    Some(((ci * CHUNK + si) as u32, v))
                } else {
                    None
                }
            })
        })
    }

    fn slot(&self, id: u32) -> Option<&Slot<T>> {
        self.chunks
            .get(id as usize / CHUNK)
            .and_then(|c| c.get(id as usize % CHUNK))
    }

    fn slot_mut(&mut self, id: u32) -> &mut Slot<T> {
        &mut self.chunks[id as usize / CHUNK][id as usize % CHUNK]
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

/// A handle to request/response payload bytes held in a [`PayloadArena`].
///
/// The handle carries its length so wire-size accounting
/// (`Request::wire_len` and friends) needs no arena access. Ownership of the
/// underlying bytes is linear by type, leak-checked by the run ledger: the
/// handle is neither `Copy` nor `Clone`, [`PayloadArena::take`] and
/// [`PayloadArena::free`] consume it by value, and fault redelivery
/// deep-copies via [`PayloadArena::dup`] — so consuming a handle twice, or
/// after moving it elsewhere, does not compile. What the type cannot say — a
/// handle dropped without `take`/`free` — shows up as a slot still counted by
/// [`PayloadArena::live`] when the run ends. There is deliberately no `Drop`
/// impl: messages are destructured field by field on the hot path.
///
/// Consuming a handle twice is a use of a moved value:
///
/// ```compile_fail,E0382
/// let mut p = utps_sim::PayloadArena::new();
/// let r = p.alloc(vec![9].into_boxed_slice());
/// let _ = p.take(r);
/// p.free(r); // error[E0382]: use of moved value: `r`
/// ```
///
/// and a handle cannot be cloned into a second owner:
///
/// ```compile_fail,E0599
/// let mut p = utps_sim::PayloadArena::new();
/// let r = p.alloc(vec![9].into_boxed_slice());
/// let alias = r.clone(); // error[E0599]: no method named `clone`
/// ```
#[must_use = "a dropped PayloadRef leaks its arena slot: `take` or `free` it"]
#[derive(Debug, PartialEq, Eq)]
pub struct PayloadRef {
    id: u32,
    len: u32,
}

impl PayloadRef {
    /// Length of the referenced payload in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// NIC buffer memory: the single home of message payload bytes.
///
/// Requests and responses carry [`PayloadRef`] handles instead of owned
/// byte boxes, so a body is written once (at the client, or when a value is
/// read out of the store) and referenced by descriptor at every later hop —
/// the paper's "copy directly between network buffers and KV storage".
///
/// The arena is pure host-side bookkeeping: it charges no simulated time.
/// (Simulated DMA/memory costs for payloads are charged where they always
/// were — at ring DMA and response transmission.)
///
/// No method lends the bytes out: they leave the arena only by
/// [`PayloadArena::take`] (a move) or [`PayloadArena::dup`] (the one
/// deliberate deep copy). `p.take(r)` compiles; a per-hop copy-out does not:
///
/// ```compile_fail,E0599
/// let mut p = utps_sim::PayloadArena::new();
/// let r = p.alloc(vec![9].into_boxed_slice());
/// let copy = p.get(&r).to_vec(); // error[E0599]: no method named `get`
/// ```
#[derive(Default)]
pub struct PayloadArena {
    slots: Arena<Box<[u8]>>,
}

impl PayloadArena {
    /// Empty arena.
    pub fn new() -> Self {
        PayloadArena::default()
    }

    /// Stores `bytes` and returns the handle.
    pub fn alloc(&mut self, bytes: Box<[u8]>) -> PayloadRef {
        let len = bytes.len() as u32;
        PayloadRef {
            id: self.slots.insert(bytes),
            len,
        }
    }

    /// Consumes `r`, moving the bytes out (the zero-copy handoff into KV
    /// storage, or the client reading its response).
    ///
    /// # Panics
    ///
    /// Panics if `r` was minted by a different arena (cluster runs hold one
    /// per shard) and its slot here is free.
    pub fn take(&mut self, r: PayloadRef) -> Box<[u8]> {
        self.slots.remove(r.id)
    }

    /// Releases `r` without reading it (dropped message, consumed response).
    pub fn free(&mut self, r: PayloadRef) {
        self.slots.remove(r.id);
    }

    /// Deep-copies the payload behind `r` — only for fault redelivery,
    /// where a duplicated message genuinely occupies a second NIC buffer.
    pub fn dup(&mut self, r: &PayloadRef) -> PayloadRef {
        let bytes: Box<[u8]> = self.slots[r.id].clone();
        self.alloc(bytes)
    }

    /// Number of live payloads: what `RunResult::payloads_live` reports at
    /// the end of a run (the leak half of the linearity rule).
    pub fn live(&self) -> usize {
        self.slots.len()
    }
}

impl<T> core::ops::Index<u32> for Arena<T> {
    type Output = T;

    fn index(&self, id: u32) -> &T {
        self.get(id).expect("index of free arena slot")
    }
}

impl<T> core::ops::IndexMut<u32> for Arena<T> {
    fn index_mut(&mut self, id: u32) -> &mut T {
        self.get_mut(id).expect("index of free arena slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut a = Arena::new();
        let ids: Vec<u32> = (0..100).map(|i| a.insert(i * 2)).collect();
        assert_eq!(a.len(), 100);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(a[id], i * 2);
        }
        assert_eq!(a.remove(ids[50]), 100);
        assert_eq!(a.get(ids[50]), None);
        assert_eq!(a.len(), 99);
    }

    #[test]
    fn addresses_stable_across_growth() {
        let mut a = Arena::new();
        let first = a.insert(1u64);
        let addr = a.addr_of(first);
        // Force many chunk allocations.
        for i in 0..(CHUNK * 4) as u64 {
            a.insert(i);
        }
        assert_eq!(a.addr_of(first), addr);
        assert_eq!(a[first], 1);
    }

    #[test]
    fn slot_reuse_lifo() {
        let mut a = Arena::new();
        let x = a.insert('x');
        let y = a.insert('y');
        a.remove(x);
        a.remove(y);
        // LIFO free list: y's slot comes back first.
        assert_eq!(a.insert('a'), y);
        assert_eq!(a.insert('b'), x);
    }

    #[test]
    #[should_panic(expected = "remove of free arena slot")]
    fn double_remove_panics() {
        let mut a = Arena::new();
        let id = a.insert(0u8);
        a.remove(id);
        a.remove(id);
    }

    #[test]
    fn iter_visits_occupied_only() {
        let mut a = Arena::new();
        let ids: Vec<u32> = (0u32..10).map(|i| a.insert(i)).collect();
        a.remove(ids[3]);
        a.remove(ids[7]);
        let mut seen: Vec<u32> = a.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn distinct_addresses() {
        let mut a = Arena::new();
        let i = a.insert(0u64);
        let j = a.insert(1u64);
        assert_ne!(a.addr_of(i), a.addr_of(j));
    }

    #[test]
    fn payload_ref_lifetime() {
        // Linear ownership: alloc → (dup)* → one take/free per ref (a second
        // one does not compile), with live() tracking every outstanding
        // handle.
        let mut p = PayloadArena::new();
        let a = p.alloc(vec![1, 2, 3].into_boxed_slice());
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(p.live(), 1);

        let d = p.dup(&a);
        assert_ne!(a, d, "dup must be an independent handle");
        assert_eq!(p.live(), 2);

        let bytes = p.take(a);
        assert_eq!(&bytes[..], &[1, 2, 3]);
        assert_eq!(p.live(), 1, "taking the original leaves the dup live");

        assert_eq!(&p.take(d)[..], &[1, 2, 3], "dup is a deep copy");
        assert_eq!(p.live(), 0, "all refs consumed: no leaks");
    }
}
