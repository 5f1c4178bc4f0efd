//! Reusable data structures backing μTPS.
//!
//! Everything in this crate is plain, natively usable Rust — no simulator
//! types. The μTPS layers wrap these structures and charge the simulated
//! cache model around them:
//!
//! * [`sketch::CountMinSketch`] + [`topk::TopK`] + [`hotset::HotSetTracker`] —
//!   the hot-set identification pipeline of §3.2.2 (sample → sketch → top-K);
//! * [`spsc::SpscRing`] — the lock-free ring underlying each lane of the
//!   all-to-all CR-MR queue (§3.4), with multi-request slots;
//! * [`mpmc::MpmcQueue`] — the bounded Vyukov MPMC queue used as the §3.4
//!   counterfactual (a single shared queue instead of per-pair lanes);
//! * [`sorted_cache::SortedCache`] — the pointer-free ordered-array layout
//!   for cached index entries of tree-indexed stores;
//! * [`hist::LatencyHistogram`] — log-bucketed percentile tracking for the
//!   latency evaluation (§5.3).

// Unsafe hygiene (lint rule R5 rides on this): an `unsafe fn` body gets no
// implicit unsafe block, so every unsafe *operation* needs its own block —
// and therefore its own `// SAFETY:` argument.
#![deny(unsafe_op_in_unsafe_fn)]

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
