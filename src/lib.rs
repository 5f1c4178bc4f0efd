//! μTPS — a thread-per-stage architecture for in-memory key-value stores.
//!
//! This workspace reproduces *"Rearchitecting the Thread Model of In-Memory
//! Key-Value Stores with μTPS"* (SOSP '25) as a Rust library, running the
//! complete system — two KVSs (μTPS-H / μTPS-T), four baselines, and every
//! experiment of the paper's evaluation — on a deterministic hardware
//! simulation (caches with CAT/DDIO, CAS-storm and DRAM-bandwidth
//! contention, a 200 Gb/s RDMA fabric).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | discrete-event machine: cores, cache hierarchy, NIC |
//! | [`collections`] | sketches, top-k, SPSC rings, histograms |
//! | [`index`] | concurrent cuckoo hash + OLC B+-tree over simulated memory |
//! | [`core`] | the μTPS server, CR-MR queue, reconfigurable RPC, auto-tuner |
//! | [`baselines`] | BaseKV (RTC), eRPCKV (share-nothing), RaceHash, Sherman |
//! | [`cluster`] | sharded scale-out: size/heat-aware router, live migration |
//! | [`workload`] | YCSB, ETC, Twitter-cluster and dynamic generators |
//! | [`oracle`] | linearizability checker over client-observed op histories |
//!
//! # Examples
//!
//! ```
//! use utps::prelude::*;
//!
//! // A small μTPS-T run: 10k keys, YCSB-C, a few milliseconds simulated.
//! let cfg = RunConfig {
//!     keys: 10_000,
//!     workers: 4,
//!     n_cr: 2,
//!     clients: 8,
//!     warmup: 500 * utps::sim::time::MICROS,
//!     duration: 1_000 * utps::sim::time::MICROS,
//!     machine: MachineConfig::tiny(),
//!     workload: WorkloadSpec::Ycsb {
//!         mix: Mix::C,
//!         theta: 0.99,
//!         value_len: 16,
//!         scan_len: 50,
//!     },
//!     ..RunConfig::default()
//! };
//! let result = run_utps(&cfg);
//! assert!(result.completed > 0);
//! ```

pub use utps_baselines as baselines;
pub use utps_cluster as cluster;
pub use utps_collections as collections;
pub use utps_core as core;
pub use utps_index as index;
pub use utps_oracle as oracle;
pub use utps_sim as sim;
pub use utps_wal as wal;
pub use utps_workload as workload;

/// The most common imports for driving experiments.
pub mod prelude {
    pub use utps_baselines::{run, BaseKv};
    pub use utps_cluster::{run_cluster, ClusterConfig, LinkConfig, MigrationSpec, SizeClass};
    pub use utps_core::experiment::{run_utps, RunConfig, RunResult, SystemKind, WorkloadSpec};
    pub use utps_core::retry::RetryConfig;
    pub use utps_core::tuner::{TunerMode, TunerParams};
    pub use utps_core::KvStore;
    pub use utps_core::{run_crash, run_system, CrashReport, System, TierConfig, Utps};
    pub use utps_index::IndexKind;
    pub use utps_oracle::{InitialState, Report, Violation};
    pub use utps_sim::config::MachineConfig;
    pub use utps_sim::device::DeviceConfig;
    pub use utps_sim::{
        shrink_schedule, FaultConfig, ScheduleConfig, ScheduleEvent, ScheduleMode, StallWindow,
    };
    pub use utps_workload::{Mix, TwitterCluster};
}
