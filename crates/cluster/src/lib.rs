//! Sharded cluster scale-out over μTPS and BaseKV.
//!
//! One deterministic simulation hosts N server machines (each an unmodified
//! single-machine pipeline on its own simulated machine) behind a
//! size/heat-aware router:
//!
//! * **Key-hash sharding** — keys map to hash slots, slots to owning
//!   shards; clients route requests host-side ([`router`]).
//! * **Size classes** — large-object traffic is segregated onto its own
//!   shard pool (Minos-style), with per-class p99/p999 latency reported in
//!   `stats_json`'s `cluster` section.
//! * **Hot-key replication** — reads of replicated keys fan out
//!   round-robin across the small shards; writes invalidate at the owner's
//!   claim point and a controller refreshes from committed state
//!   (`migrate::RefreshProc`).
//! * **Live migration** — freeze → drain → chunked copy over a faulty link
//!   → dedup handoff → ownership flip (`migrate::MigrationProc`),
//!   preserving exactly-once end to end.
//! * **Cluster thread tuning** — CR capacity moves between machines under
//!   load imbalance (`tuner::ClusterTunerProc`).
//!
//! Servers and clients are the single-machine ones; everything
//! cluster-shaped reaches them through `utps_core::shardctl::ShardHooks`.
//! A one-shard cluster with every feature off installs no hooks at all and
//! is byte-identical to the single-machine runners (`stats_json` matches
//! the existing goldens) — the transparency guarantee the cluster tests pin.

pub mod client;
pub mod config;
pub mod migrate;
pub mod router;
pub mod runner;
pub mod tuner;
pub mod world;

pub use config::{ClusterConfig, LinkConfig, MigrationSpec};
pub use router::{RouterState, SizeClass, Topology};
pub use runner::{run_cluster, run_cluster_system};
pub use world::{ClusterWorld, ShardProc, ShardWorld};
