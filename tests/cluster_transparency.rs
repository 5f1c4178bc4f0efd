//! N=1 cluster transparency: a one-shard cluster with every cluster
//! feature off must be byte-identical to the single-machine runners.
//!
//! The cluster layer is a pure superset: with one machine, no size split,
//! no replication and no migrations, nothing cluster-shaped is installed —
//! no admission hooks on the servers, no routing hooks on the clients, no
//! controllers, no extra metrics. The processes of such a run are the
//! single-machine ones by construction: a shard's servers are the
//! single-machine `System` hooks and its clients are unrouted `ClientProc`s,
//! the same type `run_system` spawns.
//!
//! What these tests guard is what `run_cluster_system` still writes itself
//! rather than shares: its spawn order, its warmup-boundary reset and its
//! fold/extract order. They reuse the *existing* single-machine goldens
//! (`tests/golden/equiv_*.json`), so any divergence is a transparency
//! regression in the cluster runner, never a golden refresh.

use utps::prelude::*;
use utps::sim::time::MICROS;
use utps_core::experiment::stats_json;
use utps_index::IndexKind;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn quick_cfg(index: IndexKind, seed: u64) -> RunConfig {
    RunConfig {
        index,
        keys: 20_000,
        workers: 6,
        n_cr: 2,
        clients: 12,
        pipeline: 4,
        warmup: 500 * MICROS,
        duration: 1_200 * MICROS,
        machine: MachineConfig::tiny(),
        hot_capacity: 1_000,
        sample_every: 2,
        seed,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        retry: RetryConfig::chaos_default(),
        ..RunConfig::default()
    }
}

fn check(label: &str, system: SystemKind, index: IndexKind) {
    for seed in [42u64, 7, 1234] {
        let cfg = ClusterConfig::new(quick_cfg(index, seed), 1);
        assert!(cfg.is_trivial(), "one-shard default config must be trivial");
        let got = stats_json(&run_cluster(system, &cfg)) + "\n";
        let want = std::fs::read_to_string(format!("{GOLDEN_DIR}/equiv_{label}_{seed}.json"))
            .expect("single-machine golden missing");
        assert_eq!(
            got, want,
            "{label} seed {seed}: a trivial one-shard cluster diverged from \
             the single-machine golden; the cluster layer is not transparent"
        );
    }
}

/// Tier-on rows: no golden pins these, so the reference is the
/// single-machine runner itself on the same config — the `"tier"` section
/// and the `wal.*`/`tier.*`/`device.*` counters included.
fn check_tier(system: SystemKind, index: IndexKind) {
    for seed in [42u64, 7, 1234] {
        let base = RunConfig {
            tier: Some(TierConfig {
                dram_items_max: 15_000,
                evict_batch: 256,
                compact_every_ps: 100 * MICROS,
                ..Default::default()
            }),
            ..quick_cfg(index, seed)
        };
        let want = stats_json(&run(system, &base));
        assert!(want.contains("\"tier\":{"), "reference run lost its tier");
        let cfg = ClusterConfig::new(base, 1);
        assert!(cfg.is_trivial(), "the tier is not a cluster feature");
        assert_eq!(
            stats_json(&run_cluster(system, &cfg)),
            want,
            "{system:?} seed {seed}: a trivial one-shard cluster with the \
             tier on diverged from the single-machine runner"
        );
    }
}

#[test]
fn utps_t_one_shard_cluster_with_tier_is_transparent() {
    check_tier(SystemKind::Utps, IndexKind::Tree);
}

#[test]
fn basekv_one_shard_cluster_with_tier_is_transparent() {
    check_tier(SystemKind::BaseKv, IndexKind::Tree);
}

#[test]
fn utps_h_one_shard_cluster_is_transparent() {
    check("utps_h", SystemKind::Utps, IndexKind::Hash);
}

#[test]
fn utps_t_one_shard_cluster_is_transparent() {
    check("utps_t", SystemKind::Utps, IndexKind::Tree);
}

#[test]
fn basekv_one_shard_cluster_is_transparent() {
    check("basekv", SystemKind::BaseKv, IndexKind::Tree);
}
