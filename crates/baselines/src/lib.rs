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
//! Each baseline is a [`System`] — [`BaseKv`], [`ErpcKv`], [`RaceHash`],
//! [`Sherman`] — that [`run_system`] runs exactly as it runs μTPS; this
//! crate has no runner of its own.
//!
//! [`SystemKind`]: utps_core::experiment::SystemKind
//! [`RunConfig`]: utps_core::experiment::RunConfig
//! [`System`]: utps_core::System
//! [`run_system`]: utps_core::run_system

pub mod basekv;
pub mod erpckv;
pub mod passive;
pub mod run;

pub use basekv::BaseKv;
pub use erpckv::ErpcKv;
pub use passive::{RaceHash, Sherman};
pub use run::run;
