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
//! Regions start 2^44 bytes apart, with a few in between: `ITEM_VALS`,
//! `INDEX_META` and `SHARED_Q` sit 2^43 past the region before them and
//! `SCRATCH` 7 · 2^40 past `SHARED_Q`. Every gap is far beyond any
//! plausible footprint, so unrelated structures can never share a cache
//! line.

/// Per-worker NIC receive rings (stride [`RECV_RING_STRIDE`] per worker).
pub const RECV_RING: usize = 0x1000_0000_0000;
/// Address stride between consecutive per-worker receive rings.
pub const RECV_RING_STRIDE: usize = 0x100_0000;
/// Response buffer pool.
pub const RESP_BUF: usize = 0x2000_0000_0000;
/// `ItemStore` slot metadata arena (the `Arena<Item>` slots themselves).
pub const ITEM_SLOTS: usize = 0x3000_0000_0000;
/// Bump-allocated per-item value blocks (lock word + value bytes).
pub const ITEM_VALS: usize = 0x3800_0000_0000;
/// Index node arena (B+-tree nodes).
pub const INDEX_NODES: usize = 0x4000_0000_0000;
/// Index metadata words: tree root pointer, SMO lock, displace lock.
pub const INDEX_META: usize = 0x4800_0000_0000;
/// Cuckoo hash bucket array.
pub const BUCKETS: usize = 0x5000_0000_0000;
/// CR hot-cache entry storage.
pub const HOT_CACHE: usize = 0x6000_0000_0000;
/// CR–MR lane rings, packed back to back: each lane's block is its ring's
/// span plus one line for its completion word.
pub const CRMR_LANES: usize = 0x7000_0000_0000;
/// Shared MPMC queue (the §3.4 counterfactual's request queue), followed by
/// its per-producer completion queues at stride [`SHARED_Q_STRIDE`].
pub const SHARED_Q: usize = 0x7800_0000_0000;
/// Address stride between consecutive shared-mode completion queues.
pub const SHARED_Q_STRIDE: usize = 0x10_0000;
/// Miscellaneous scratch (anything without a dedicated region).
pub const SCRATCH: usize = 0x7f00_0000_0000;
