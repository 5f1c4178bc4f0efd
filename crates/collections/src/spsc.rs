//! A bounded single-producer single-consumer FIFO.
//!
//! One such ring forms each lane of μTPS's all-to-all CR-MR queue (§3.4):
//! every (CR thread, MR thread) pair gets a dedicated ring, so no lane ever
//! sees more than one producer or one consumer. The simulator is
//! single-threaded, so the ring stores plain values; what the lock-free
//! protocol costs is charged by the caller on the addresses the `*_addr`
//! accessors report — head and tail index words on separate cache lines,
//! slots after them. Batch push/pop let callers amortize the index updates
//! exactly as the paper's multi-request slots do.

use core::cell::RefCell;
use std::collections::VecDeque;

/// A bounded SPSC ring buffer.
///
/// Every method takes `&self`, as a lock-free ring's would, so producer and
/// consumer can share one reference. The addresses it reports lie in a
/// fixed virtual block at its base (head `+0`, tail `+64`, slots from
/// `+128`), so simulated cache charging is reproducible across runs.
///
/// # Examples
///
/// ```
/// let ring = utps_collections::SpscRing::new(4);
/// assert!(ring.try_push(1).is_ok());
/// assert!(ring.try_push(2).is_ok());
/// assert_eq!(ring.try_pop(), Some(1));
/// assert_eq!(ring.try_pop(), Some(2));
/// assert_eq!(ring.try_pop(), None);
/// ```
pub struct SpscRing<T> {
    cap: usize,
    items: RefCell<VecDeque<T>>,
    virt_base: usize,
}

impl<T> SpscRing<T> {
    /// Creates a ring with capacity for `cap` elements (rounded up to a
    /// power of two) at virtual base 0.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        SpscRing::new_at(cap, 0)
    }

    /// Like [`SpscRing::new`], with the `*_addr` accessors reporting
    /// addresses inside a fixed virtual block at `virt_base`.
    pub fn new_at(cap: usize, virt_base: usize) -> Self {
        assert!(cap > 0, "capacity must be nonzero");
        let cap = cap.next_power_of_two();
        SpscRing {
            cap,
            items: RefCell::new(VecDeque::with_capacity(cap)),
            virt_base,
        }
    }

    /// Maximum number of buffered elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of buffered elements.
    pub fn len(&self) -> usize {
        self.items.borrow().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ring is full.
    pub fn is_full(&self) -> bool {
        self.len() == self.cap
    }

    /// Address of the tail index word — the cache line a producer touches.
    /// Used by the simulator to charge inter-core traffic.
    pub fn tail_addr(&self) -> usize {
        self.virt_base + 64
    }

    /// Address of the head index word — the cache line a consumer touches.
    pub fn head_addr(&self) -> usize {
        self.virt_base
    }

    /// Address of the slot storage for element index `i` (for cache
    /// charging).
    pub fn slot_addr(&self, i: usize) -> usize {
        self.virt_base + 128 + (i & (self.cap - 1)) * Self::stride()
    }

    /// Bytes of the ring's virtual block: head line, tail line and every
    /// slot. A structure placing rings back to back starts the next one at
    /// least this far past the base.
    pub fn span(&self) -> usize {
        128 + self.cap * Self::stride()
    }

    fn stride() -> usize {
        core::mem::size_of::<T>().max(1)
    }

    /// Attempts to enqueue `value`; returns it back if the ring is full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut items = self.items.borrow_mut();
        if items.len() == self.cap {
            return Err(value);
        }
        items.push_back(value);
        Ok(())
    }

    /// Attempts to dequeue one element.
    pub fn try_pop(&self) -> Option<T> {
        self.items.borrow_mut().pop_front()
    }

    /// Pushes up to `batch.len()` elements, stopping at the first failure;
    /// returns how many were enqueued. Elements not enqueued stay in `batch`.
    pub fn push_batch(&self, batch: &mut Vec<T>) -> usize {
        let mut items = self.items.borrow_mut();
        let n = (self.cap - items.len()).min(batch.len());
        items.extend(batch.drain(..n));
        n
    }

    /// Pops up to `max` elements into `out`; returns how many were dequeued.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut items = self.items.borrow_mut();
        let n = max.min(items.len());
        out.extend(items.drain(..n));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let r = SpscRing::new(8);
        for i in 0..8 {
            r.try_push(i).unwrap();
        }
        assert!(r.is_full());
        assert_eq!(r.try_push(99), Err(99));
        for i in 0..8 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_rounds_up() {
        let r: SpscRing<u8> = SpscRing::new(5);
        assert_eq!(r.capacity(), 8);
    }

    #[test]
    fn batch_operations() {
        let r = SpscRing::new(4);
        let mut batch = vec![1, 2, 3, 4, 5, 6];
        assert_eq!(r.push_batch(&mut batch), 4);
        assert_eq!(batch, vec![5, 6]);
        let mut out = Vec::new();
        assert_eq!(r.pop_batch(&mut out, 10), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_many_times() {
        let r = SpscRing::new(4);
        for round in 0..100u64 {
            for i in 0..3 {
                r.try_push(round * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(r.try_pop(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn drops_remaining_elements() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let r = SpscRing::new(4);
            r.try_push(D).unwrap();
            r.try_push(D).unwrap();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn addresses_are_distinct_lines() {
        let r: SpscRing<u64> = SpscRing::new(8);
        assert_ne!(r.head_addr() / 64, r.tail_addr() / 64, "false sharing");
        // The last slot ends exactly where the ring's span does.
        assert_eq!(r.slot_addr(7) + 8, r.head_addr() + r.span());
    }
}
