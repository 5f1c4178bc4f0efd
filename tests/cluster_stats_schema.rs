//! Golden-file regression test for the *cluster* `stats_json` schema.
//!
//! A non-trivial cluster run adds a `cluster` section (shard count,
//! migration/replication tallies, per-size-class p99/p999) and pins the
//! `cluster.*` / `latency.p99.*` metric names in the snapshot. Dropping or
//! renaming any of these must fail loudly — they are consumed by the same
//! plotting/CI tooling as the single-machine schema.
//!
//! The golden regenerates with every other (`tests/common/mod.rs`).

mod common;

use common::keys_of;
use utps::prelude::*;
use utps::sim::time::MICROS;
use utps_core::experiment::stats_json;

fn schema_cfg() -> ClusterConfig {
    let base = common::quick_cfg(IndexKind::Hash, 42);
    ClusterConfig {
        large_shards: 1,
        large_keys: 500,
        replicate_keys: vec![0, 1],
        migrations: vec![MigrationSpec {
            at_ps: 800 * MICROS,
            class: SizeClass::Small,
            slot: 3,
            to_shard: 0,
        }],
        link: LinkConfig::chaos_default(),
        ..ClusterConfig::new(base, 2)
    }
}

#[test]
fn cluster_stats_json_schema_matches_golden() {
    let r = run_cluster(SystemKind::Utps, &schema_cfg());
    common::golden(
        "cluster_stats_schema.txt",
        &(keys_of(&stats_json(&r)).join("\n") + "\n"),
    );
}

#[test]
fn cluster_metrics_are_pinned_in_schema() {
    // The cluster metric names must be present on every non-trivial cluster
    // run — including the per-size-class latency gauges — so dashboards
    // never see a shifting schema.
    let json = stats_json(&run_cluster(SystemKind::Utps, &schema_cfg()));
    for key in [
        "cluster.migrated_items",
        "cluster.migrated_slots",
        "cluster.migrations",
        "cluster.moved_bounce",
        "cluster.replica_read",
        "cluster.replica_refresh",
        "cluster.routed_large",
        "cluster.routed_small",
        "cluster.shards",
        "latency.p99.large",
        "latency.p99.small",
        "latency.p999.large",
        "latency.p999.small",
        "p99_small_ns",
        "p999_small_ns",
        "p99_large_ns",
        "p999_large_ns",
    ] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "cluster stats JSON lost pinned key {key}"
        );
    }
}

#[test]
fn trivial_cluster_run_has_no_cluster_section() {
    // The other face of N=1 transparency: a trivial cluster must not leak
    // any cluster key into the document.
    let cfg = ClusterConfig::new(schema_cfg().base, 1);
    assert!(cfg.is_trivial());
    let json = stats_json(&run_cluster(SystemKind::Utps, &cfg));
    assert!(
        !json.contains("\"cluster") && !json.contains("\"latency.p99"),
        "trivial one-shard cluster leaked cluster keys into stats_json"
    );
}
