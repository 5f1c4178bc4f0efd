//! Property-based tests for the collection crate's invariants.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;
use utps_collections::{CountMinSketch, LatencyHistogram, MpmcQueue, SortedCache, SpscRing, TopK};

proptest! {
    /// The SPSC ring is FIFO-equivalent to a bounded VecDeque under any
    /// interleaving of pushes and pops.
    #[test]
    fn ring_matches_deque_model(ops in vec(any::<Option<u16>>(), 1..400)) {
        let ring = SpscRing::new(16);
        let mut model: VecDeque<u16> = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    let accepted = ring.try_push(v).is_ok();
                    let model_accepts = model.len() < ring.capacity();
                    prop_assert_eq!(accepted, model_accepts);
                    if accepted {
                        model.push_back(v);
                    }
                }
                None => {
                    prop_assert_eq!(ring.try_pop(), model.pop_front());
                }
            }
            prop_assert_eq!(ring.len(), model.len());
        }
    }

    /// Batch push/pop preserve order and count exactly.
    #[test]
    fn ring_batches_preserve_order(chunks in vec(vec(any::<u32>(), 0..12), 1..40)) {
        let ring = SpscRing::new(32);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut out = Vec::new();
        for chunk in chunks {
            let mut batch = chunk.clone();
            let n = ring.push_batch(&mut batch);
            for v in chunk.into_iter().take(n) {
                model.push_back(v);
            }
            out.clear();
            let popped = ring.pop_batch(&mut out, 5);
            prop_assert_eq!(popped, out.len());
            for v in &out {
                prop_assert_eq!(Some(*v), model.pop_front());
            }
        }
    }

    /// SPSC wraparound at the capacity boundary: fill to capacity, drain
    /// part-way, refill — indices cross the ring's end repeatedly and FIFO
    /// order must survive every crossing.
    #[test]
    fn ring_wraparound_at_capacity(cap in 1usize..24, rounds in vec((1usize..24, 1usize..24), 1..60)) {
        let ring = SpscRing::new(cap);
        let cap = ring.capacity(); // may round up internally
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        // Start full so the very first pop/push pair straddles the boundary.
        while ring.try_push(next).is_ok() {
            model.push_back(next);
            next += 1;
        }
        prop_assert_eq!(ring.len(), cap);
        prop_assert!(ring.is_full());
        prop_assert!(ring.try_push(u64::MAX).is_err(), "push into full ring");
        for (pops, pushes) in rounds {
            for _ in 0..pops {
                prop_assert_eq!(ring.try_pop(), model.pop_front());
            }
            for _ in 0..pushes {
                let ok = ring.try_push(next).is_ok();
                prop_assert_eq!(ok, model.len() < cap, "acceptance at boundary");
                if ok {
                    model.push_back(next);
                }
                next += 1;
            }
            prop_assert_eq!(ring.len(), model.len());
        }
        while let Some(v) = ring.try_pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    /// Batch push/pop across the wraparound point: batches larger than the
    /// remaining space must be split exactly at capacity, never truncated
    /// silently or duplicated.
    #[test]
    fn ring_batch_wraparound(cap in 2usize..16, chunks in vec(vec(any::<u16>(), 1..20), 1..40)) {
        let ring = SpscRing::new(cap);
        let cap = ring.capacity();
        let mut model: VecDeque<u16> = VecDeque::new();
        let mut out = Vec::new();
        for chunk in chunks {
            let space = cap - model.len();
            let mut batch = chunk.clone();
            let n = ring.push_batch(&mut batch);
            prop_assert_eq!(n, chunk.len().min(space), "split point at capacity");
            prop_assert_eq!(batch.len(), chunk.len() - n, "overflow stays with producer");
            for v in chunk.into_iter().take(n) {
                model.push_back(v);
            }
            out.clear();
            let popped = ring.pop_batch(&mut out, cap / 2 + 1);
            prop_assert_eq!(popped, out.len());
            for v in &out {
                prop_assert_eq!(Some(*v), model.pop_front());
            }
        }
    }

    /// Shared queue wraparound at capacity: same boundary discipline as the
    /// SPSC ring.
    #[test]
    fn mpmc_wraparound_at_capacity(cap in 1usize..24, rounds in vec((1usize..24, 1usize..24), 1..60)) {
        let q = MpmcQueue::new(cap);
        let cap = q.capacity();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        while q.try_push(next).is_ok() {
            model.push_back(next);
            next += 1;
        }
        prop_assert_eq!(q.len(), cap);
        prop_assert!(q.try_push(u32::MAX).is_err(), "push into full queue");
        for (pops, pushes) in rounds {
            for _ in 0..pops {
                prop_assert_eq!(q.try_pop(), model.pop_front());
            }
            for _ in 0..pushes {
                let ok = q.try_push(next).is_ok();
                prop_assert_eq!(ok, model.len() < cap);
                if ok {
                    model.push_back(next);
                }
                next += 1;
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        while let Some(v) = q.try_pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    /// Count-min never underestimates, for arbitrary key streams.
    #[test]
    fn sketch_never_underestimates(keys in vec(0u64..500, 1..2000)) {
        let mut s = CountMinSketch::new(512, 4);
        let mut exact = std::collections::HashMap::new();
        for &k in &keys {
            s.increment(k);
            *exact.entry(k).or_insert(0u32) += 1;
        }
        for (&k, &c) in &exact {
            prop_assert!(s.estimate(k) >= c, "under-estimate for {}", k);
        }
    }

    /// TopK contains the exact top-k when counts are distinct and offered
    /// monotonically.
    #[test]
    fn topk_exact_with_distinct_counts(perm in Just(()).prop_flat_map(|_| {
        vec(0u64..1000, 20..100).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    })) {
        let mut t = TopK::new(8);
        // Count of key k is k+1 (distinct).
        for &k in &perm {
            t.offer(k, k as u32 + 1);
        }
        let mut expect = perm.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(8);
        let mut got: Vec<u64> = t.sorted_desc().into_iter().map(|(k, _)| k).collect();
        got.sort_unstable_by(|a, b| b.cmp(a));
        expect.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got, expect);
    }

    /// SortedCache::get agrees with a BTreeMap built from the same pairs
    /// (last duplicate wins).
    #[test]
    fn sorted_cache_matches_map(pairs in vec((0u64..200, any::<u32>()), 0..300), probes in vec(0u64..250, 0..50)) {
        let mut model = std::collections::BTreeMap::new();
        for &(k, v) in &pairs {
            model.insert(k, v);
        }
        let cache = SortedCache::build(pairs);
        prop_assert_eq!(cache.len(), model.len());
        for p in probes {
            prop_assert_eq!(cache.get(p).copied(), model.get(&p).copied());
        }
    }

    /// Histogram percentiles are within 5% relative error of exact order
    /// statistics.
    #[test]
    fn histogram_error_bound(values in vec(1u64..1_000_000, 50..500)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [25.0, 50.0, 90.0] {
            let idx = ((p / 100.0) * sorted.len() as f64).ceil() as usize - 1;
            let exact = sorted[idx.min(sorted.len() - 1)];
            let approx = h.percentile(p);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(err < 0.05, "p{}: exact {} approx {}", p, exact, approx);
        }
    }
}
