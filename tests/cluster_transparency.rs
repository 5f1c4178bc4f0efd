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
//! `run_cluster_system` assembles through the same `PipelineRuntime` as
//! the single-machine runners: machine construction, plan installation,
//! client and sampler spawning and the warm-up reset are shared code. What
//! these tests guard is what it still writes itself: its per-shard spawn
//! loop and its fold/extract order. They reuse the *existing*
//! single-machine goldens (`tests/golden/equiv_*.json`), so any divergence
//! is a transparency regression in the cluster runner, never a golden
//! refresh. The tier-on and timeline-on rows compare against the
//! single-machine runner itself.

mod common;

use utps::prelude::*;
use utps::sim::time::MICROS;
use utps_core::experiment::stats_json;
use utps_index::IndexKind;

fn check(label: &str, system: SystemKind, index: IndexKind) {
    for seed in [42u64, 7, 1234] {
        let cfg = ClusterConfig::new(common::quick_cfg(index, seed), 1);
        assert!(cfg.is_trivial(), "one-shard default config must be trivial");
        let got = stats_json(&run_cluster(system, &cfg)) + "\n";
        let want = common::golden_read(&format!("equiv_{label}_{seed}.json"));
        assert_eq!(
            got, want,
            "{label} seed {seed}: a trivial one-shard cluster diverged from \
             the single-machine golden; the cluster layer is not transparent"
        );
    }
}

/// Rows no golden pins: the reference is the single-machine runner itself
/// on the same config (`with` applied to the quick config), compared on
/// `stats_json` — the `"tier"` section and the `wal.*`/`tier.*`/`device.*`
/// counters included — and on the throughput timeline, sample for sample.
fn check_against_run(system: SystemKind, index: IndexKind, with: fn(RunConfig) -> RunConfig) {
    for seed in [42u64, 7, 1234] {
        let base = with(common::quick_cfg(index, seed));
        let want = run(system, &base);
        let want_json = stats_json(&want);
        if base.tier.is_some() {
            assert!(
                want_json.contains("\"tier\":{"),
                "reference run lost its tier"
            );
        }
        if base.timeline_interval > 0 {
            assert!(!want.timeline.is_empty(), "reference run sampled nothing");
        }
        let cfg = ClusterConfig::new(base, 1);
        assert!(
            cfg.is_trivial(),
            "neither tier nor timeline is a cluster feature"
        );
        let got = run_cluster(system, &cfg);
        assert_eq!(
            stats_json(&got),
            want_json,
            "{system:?} seed {seed}: a trivial one-shard cluster diverged \
             from the single-machine runner"
        );
        assert_eq!(
            got.timeline, want.timeline,
            "{system:?} seed {seed}: the one-shard cluster's timeline diverged"
        );
    }
}

fn with_timeline(cfg: RunConfig) -> RunConfig {
    RunConfig {
        timeline_interval: 100 * MICROS,
        ..cfg
    }
}

#[test]
fn utps_t_one_shard_cluster_with_timeline_is_transparent() {
    check_against_run(SystemKind::Utps, IndexKind::Tree, with_timeline);
}

#[test]
fn basekv_one_shard_cluster_with_timeline_is_transparent() {
    check_against_run(SystemKind::BaseKv, IndexKind::Tree, with_timeline);
}

#[test]
fn utps_t_one_shard_cluster_with_tier_is_transparent() {
    check_against_run(SystemKind::Utps, IndexKind::Tree, common::with_tier);
}

#[test]
fn basekv_one_shard_cluster_with_tier_is_transparent() {
    check_against_run(SystemKind::BaseKv, IndexKind::Tree, common::with_tier);
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
