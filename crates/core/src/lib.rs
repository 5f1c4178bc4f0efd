//! μTPS: a thread-per-stage architecture for in-memory key-value stores.
//!
//! This crate implements the paper's primary contribution — the μTPS thread
//! architecture (§3) — plus the two stores built on it:
//!
//! * **μTPS-H** — cuckoo-hash index, point queries;
//! * **μTPS-T** — ordered (B+-tree) index, point and range queries.
//!
//! Structure mirrors the paper:
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.2.1 Reconfigurable RPC (single-queue receive buffer, SRQ/MP-RQ) | [`rpc`] |
//! | §3.2.2 Resizable cache (hot set, sorted array, epoch switch) | [`hotcache`] |
//! | §3.2.3 FSM execution model (stage engine, CR layer) | [`stage`], [`server`] (`CrStage`) |
//! | §3.3 Memory-resident layer (batched indexing, data copy, CC) | [`server`] (`MrStage`), [`store`] |
//! | §3.4 CR-MR queue (all-to-all SPSC rings, 16-B descriptors) | [`crmr`] |
//! | §3.5 Auto-tuner (thread reassignment, cache resize, LLC ways) | [`tuner`] |
//! | §5 drivers (closed-loop clients, measurement, the one run assembler) | [`client`], [`experiment`], [`system`] |
//!
//! Everything runs inside the deterministic hardware simulation of
//! [`utps_sim`]; see DESIGN.md for the hardware substitution table.

pub mod client;
pub mod crash;
pub mod crmr;
pub mod experiment;
pub mod hotcache;
pub mod msg;
pub mod retry;
pub mod rpc;
pub mod server;
pub mod shardctl;
pub mod stage;
pub mod store;
pub mod system;
pub mod tier;
pub mod tuner;

pub use client::{ClientProc, ClientStats};
pub use crash::{run_crash, CrashReport};
pub use experiment::{RunConfig, RunResult, SystemKind, Utps};
pub use msg::{NetMsg, OpKind, Request, Response};
pub use stage::PipelineRuntime;
pub use store::KvStore;
pub use system::{run_system, System};
pub use tier::{TierConfig, TierRunStats, TierState};
