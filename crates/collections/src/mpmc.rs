//! The single shared queue of the §3.4 counterfactual.
//!
//! §3.4 argues for the CR-MR queue's per-pair lanes because a single shared
//! MPMC queue concentrates every producer and consumer on two cache lines.
//! The `SharedMpmc` transport mode of the CR-MR queue uses this structure so
//! the ablation bench can measure what that sharing costs. The simulator is
//! single-threaded, so the queue stores plain values in a bounded FIFO; what
//! is shared is the layout its `*_addr` accessors report, that of a Vyukov
//! queue: enqueue cursor at `+0`, dequeue cursor at `+64`, slots from `+128`.

use crate::SpscRing;

/// A bounded FIFO with the cache-line layout of a Vyukov MPMC queue.
///
/// # Examples
///
/// ```
/// let q = utps_collections::MpmcQueue::new(4);
/// assert!(q.try_push(1).is_ok());
/// assert!(q.try_push(2).is_ok());
/// assert_eq!(q.try_pop(), Some(1));
/// assert_eq!(q.try_pop(), Some(2));
/// assert_eq!(q.try_pop(), None);
/// ```
pub struct MpmcQueue<T> {
    items: SpscRing<T>,
    virt_base: usize,
}

impl<T> MpmcQueue<T> {
    /// Creates a queue with capacity `cap` (rounded up to a power of two)
    /// at virtual base 0.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        MpmcQueue::new_at(cap, 0)
    }

    /// Like [`MpmcQueue::new`], with the `*_addr` accessors reporting
    /// addresses inside a fixed virtual block at `virt_base`.
    pub fn new_at(cap: usize, virt_base: usize) -> Self {
        MpmcQueue {
            items: SpscRing::new(cap),
            virt_base,
        }
    }

    /// Maximum buffered elements.
    pub fn capacity(&self) -> usize {
        self.items.capacity()
    }

    /// Current number of buffered elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Address of the shared enqueue cursor (the line every producer
    /// contends on — used for cache charging).
    pub fn enqueue_addr(&self) -> usize {
        self.virt_base
    }

    /// Address of the shared dequeue cursor.
    pub fn dequeue_addr(&self) -> usize {
        self.virt_base + 64
    }

    /// Attempts to enqueue; returns the value back if the queue is full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        self.items.try_push(value)
    }

    /// Attempts to dequeue.
    pub fn try_pop(&self) -> Option<T> {
        self.items.try_pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_single_threaded() {
        let q = MpmcQueue::new(8);
        for i in 0..8 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_push(99), Err(99));
        for i in 0..8 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn wraps_many_times() {
        let q = MpmcQueue::new(4);
        for round in 0..200u64 {
            q.try_push(round).unwrap();
            q.try_push(round + 1000).unwrap();
            assert_eq!(q.try_pop(), Some(round));
            assert_eq!(q.try_pop(), Some(round + 1000));
        }
    }

    #[test]
    fn cursor_lines_do_not_false_share() {
        let q: MpmcQueue<u8> = MpmcQueue::new(8);
        assert_ne!(q.enqueue_addr() / 64, q.dequeue_addr() / 64);
    }

    #[test]
    fn drops_remaining() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let q = MpmcQueue::new(4);
            q.try_push(D).map_err(|_| ()).unwrap();
            q.try_push(D).map_err(|_| ()).unwrap();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
