//! Baseline KVSs for the μTPS evaluation (§5.1 "Compared systems").
//!
//! * [`basekv`] — **BaseKV**: identical to μTPS except for its
//!   run-to-completion thread architecture. It keeps the reconfigurable RPC,
//!   batching and prefetching; every worker simply executes the whole
//!   request (poll → index → data copy → respond) itself, share-everything.
//! * [`erpckv`] — **eRPCKV**: replaces the RPC module with an eRPC-style
//!   per-worker receive queue (large per-worker buffers, leaner per-message
//!   software path) and a share-nothing architecture that routes requests to
//!   workers by `key mod n`.
//! * [`passive`] — the passive one-sided-RDMA KVSs: **RaceHash** (hash
//!   index; multiple one-sided verbs per operation) and **Sherman**
//!   (B+-tree; client-side caching of internal nodes). Server CPUs are
//!   bypassed entirely — operations cost client-side round trips and NIC
//!   DMA against server memory.
//! * [`run()`](run::run) — a single dispatcher running any [`SystemKind`] under the
//!   shared [`RunConfig`].
//!
//! [`SystemKind`]: utps_core::experiment::SystemKind
//! [`RunConfig`]: utps_core::experiment::RunConfig

pub mod basekv;
pub mod erpckv;
pub mod passive;
pub mod run;

pub use basekv::{run_basekv, BaseKv};
pub use erpckv::run_erpckv;
pub use passive::{run_racehash, run_sherman};
pub use run::run;
