//! Fixed virtual address regions for charging the cache model.
//!
//! Charged addresses are never dereferenced — they only name cache lines to
//! the simulated hierarchy — so nothing requires them to be *real* heap
//! addresses. Real addresses vary run to run (ASLR, allocator state), which
//! makes simulated timings drift between identical runs. Every structure
//! that charges the cache therefore places itself in one of these fixed,
//! non-overlapping virtual regions; with all charge sites virtualised, two
//! same-seed runs touch byte-identical line sets and the simulation is
//! exactly reproducible (the determinism regression test asserts this on
//! metric snapshots).
//!
//! Region `k` (1 … 10) is the 8 GiB slot at `k ×` [`REGION_BYTES`], so
//! unrelated structures never share a cache line, and every region starts
//! on a multiple of every power-of-two set span. The last one ends below
//! 2^37, so every charged line number fits the cache model's 31-bit line
//! space (`cache::line_span` panics past it). The largest consumer,
//! `ITEM_VALS`, asserts that its bump allocator stays inside its slot.

/// Bytes of address space each region owns.
pub const REGION_BYTES: usize = 1 << 33;

/// Per-worker NIC receive rings (stride [`RECV_RING_STRIDE`] per worker).
pub const RECV_RING: usize = REGION_BYTES;
/// Address stride between consecutive per-worker receive rings.
pub const RECV_RING_STRIDE: usize = 0x100_0000;
/// Response buffer pool.
pub const RESP_BUF: usize = 2 * REGION_BYTES;
/// `ItemStore` slot metadata arena (the `Arena<Item>` slots themselves).
pub const ITEM_SLOTS: usize = 3 * REGION_BYTES;
/// Bump-allocated per-item value blocks (lock word + value bytes).
pub const ITEM_VALS: usize = 4 * REGION_BYTES;
/// Index node arena (B+-tree nodes).
pub const INDEX_NODES: usize = 5 * REGION_BYTES;
/// Index metadata words: tree root pointer, SMO lock, displace lock.
pub const INDEX_META: usize = 6 * REGION_BYTES;
/// Cuckoo hash bucket array.
pub const BUCKETS: usize = 7 * REGION_BYTES;
/// CR hot-cache entry storage.
pub const HOT_CACHE: usize = 8 * REGION_BYTES;
/// CR–MR lane rings, packed back to back: each lane's block is its ring's
/// span plus one line for its completion word.
pub const CRMR_LANES: usize = 9 * REGION_BYTES;
/// Shared MPMC queue (the §3.4 counterfactual's request queue), followed by
/// its per-producer completion queues at stride [`SHARED_Q_STRIDE`].
pub const SHARED_Q: usize = 10 * REGION_BYTES;
/// Address stride between consecutive shared-mode completion queues.
pub const SHARED_Q_STRIDE: usize = 0x10_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_aligned_and_inside_the_line_space() {
        let mut regions = [
            RECV_RING,
            RESP_BUF,
            ITEM_SLOTS,
            ITEM_VALS,
            INDEX_NODES,
            INDEX_META,
            BUCKETS,
            HOT_CACHE,
            CRMR_LANES,
            SHARED_Q,
        ];
        regions.sort_unstable();
        for pair in regions.windows(2) {
            assert!(pair[0] + REGION_BYTES <= pair[1], "{pair:#x?} overlap");
        }
        for r in regions {
            assert_eq!(r % REGION_BYTES, 0, "{r:#x} is not slot-aligned");
        }
        let line = crate::config::MachineConfig::default().cache.line;
        let end = regions[regions.len() - 1] + REGION_BYTES;
        assert!(end / line <= crate::cache::LINE_LIMIT as usize, "{end:#x}");
    }
}
