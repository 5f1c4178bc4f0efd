//! Deterministic discrete-event machine simulator for μTPS.
//!
//! This crate stands in for the hardware the paper evaluates on: a multi-core
//! server with private L1/L2 caches, a shared set-associative last-level
//! cache partitionable by way masks (Intel CAT), a DDIO-style NIC-to-LLC DMA
//! path, and a 200 Gb/s RDMA NIC. All of it is modeled as a single-threaded,
//! seedable discrete-event simulation:
//!
//! * simulated threads ([`engine::Process`]) are stepped in local-clock order
//!   by the [`engine::Engine`];
//! * every memory access is charged through a [`engine::Ctx`] against the
//!   [`cache::CacheHierarchy`], so cache thrashing, way partitioning, DDIO
//!   behaviour and coherence traffic emerge from the same mechanisms as on
//!   real hardware;
//! * synchronization uses [`lock`] primitives whose contention costs are
//!   modeled explicitly;
//! * the [`nic`] module models RDMA send/recv with a shared receive queue as
//!   well as one-sided verbs, with propagation delay, bandwidth and message
//!   rate limits.
//!
//! The simulation is fully deterministic: the same world + seed produces the
//! same event order and the same measured throughput, which the test suite
//! relies on.

pub mod arena;
pub mod cache;
pub mod config;
pub mod device;
pub mod engine;
pub mod fault;
pub mod lock;
pub mod metrics;
pub mod nic;
pub mod schedule;
pub mod time;
pub mod vaddr;
pub mod wheel;

pub use arena::{Arena, PayloadArena, PayloadRef};
// Kept at its historical `utps_sim::hashutil` path; the module itself now
// lives in utps-collections so the bottom layer can use the deterministic
// hashers too (`clippy.toml` bans the randomly keyed std maps).
pub use cache::{CacheHierarchy, StatClass};
pub use config::{CacheConfig, CostConfig, MachineConfig, NetConfig};
pub use engine::{Ctx, Engine, Machine, ProcId, Process, StepOutcome, Waker};
pub use fault::{FaultConfig, FaultPlan, RecvFate, StallWindow};
pub use lock::OptLock;
pub use metrics::{
    AccessKind, Counter, Gauge, Hist, Metrics, MetricsRegistry, MetricsSnapshot, Total,
};
pub use nic::{Fabric, Pipe};
pub use schedule::{shrink_schedule, ScheduleConfig, ScheduleEvent, ScheduleMode, SchedulePlan};
pub use time::{SimTime, MICROS, MILLIS, NANOS, SECS};
pub use utps_collections::hashutil;
pub use wheel::TimerWheel;
