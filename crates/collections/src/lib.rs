//! Reusable data structures backing μTPS.
//!
//! Everything in this crate is plain, natively usable Rust — no simulator
//! types. The μTPS layers wrap these structures and charge the simulated
//! cache model around them:
//!
//! * [`sketch::CountMinSketch`] + [`topk::TopK`] + [`hotset::HotSetTracker`] —
//!   the hot-set identification pipeline of §3.2.2 (sample → sketch → top-K);
//! * [`spsc::SpscRing`] — the bounded ring underlying each lane of the
//!   all-to-all CR-MR queue (§3.4), with multi-request slots;
//! * [`mpmc::MpmcQueue`] — the single shared queue of the §3.4
//!   counterfactual, with the cache-line layout of a Vyukov MPMC queue;
//! * [`sorted_cache::SortedCache`] — the pointer-free ordered-array layout
//!   for cached index entries of tree-indexed stores;
//! * [`hist::LatencyHistogram`] — log-bucketed percentile tracking for the
//!   latency evaluation (§5.3).

pub mod hashutil;
pub mod hist;
pub mod hotset;
pub mod mpmc;
pub mod sketch;
pub mod sorted_cache;
pub mod spsc;
pub mod topk;

pub use hashutil::{mix2, mix64, FxBuildHasher, FxHashMap, FxHashSet};
pub use hist::LatencyHistogram;
pub use hotset::HotSetTracker;
pub use mpmc::MpmcQueue;
pub use sketch::CountMinSketch;
pub use sorted_cache::SortedCache;
pub use spsc::SpscRing;
pub use topk::TopK;
