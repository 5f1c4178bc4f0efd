//! Golden-file regression test for the `stats_json` schema.
//!
//! The JSON sidecar is the machine-readable contract consumed by plotting
//! and CI tooling; accidentally dropping or renaming a key (including the
//! fault/robustness counters added with the fault-injection subsystem) must
//! fail loudly. The golden file records every key, in document order.
//!
//! It regenerates with every other golden (`tests/common/mod.rs`).

mod common;

use common::keys_of;
use utps::prelude::*;

fn schema_cfg() -> RunConfig {
    common::quick_cfg(IndexKind::Tree, 42)
}

#[test]
fn stats_json_schema_matches_golden() {
    use utps::core::experiment::{run_utps, stats_json};
    let r = run_utps(&schema_cfg());
    common::golden(
        "stats_schema.txt",
        &(keys_of(&stats_json(&r)).join("\n") + "\n"),
    );
}

#[test]
fn fault_counters_are_pinned_in_schema() {
    // The fault counters must be present (zero-valued) even on a fault-free
    // run, so dashboards never see a shifting schema.
    use utps::core::experiment::{run_utps, stats_json};
    let json = stats_json(&run_utps(&schema_cfg()));
    for key in [
        "fault.rx_drop",
        "fault.rx_dup",
        "fault.rx_delay",
        "fault.stall_defer",
        "crmr.corrupt",
        "crmr.lease_reclaim",
        "client.retransmit",
        "client.dup_resp",
        "client.failed",
        "server.dup_suppressed",
        "tuner.frozen_windows",
        "issued",
        "completed_total",
        "retransmits",
        "dup_resps",
        "failed",
    ] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "stats JSON lost pinned key {key}"
        );
    }
}

#[test]
fn faulty_and_clean_runs_share_one_schema() {
    // Injecting faults changes values, never the key set: a dashboard
    // pointed at a chaos run needs no special cases.
    use utps::core::experiment::{run_utps, stats_json};
    let clean = keys_of(&stats_json(&run_utps(&schema_cfg())));
    let faulty_cfg = RunConfig {
        faults: FaultConfig {
            drop_prob: 0.01,
            dup_prob: 0.005,
            ..FaultConfig::default()
        },
        ..schema_cfg()
    };
    let faulty = keys_of(&stats_json(&run_utps(&faulty_cfg)));
    assert_eq!(clean, faulty, "fault injection changed the stats schema");
}

#[test]
fn cache_off_run_keeps_the_hot_cache_and_ring_keys() {
    // With the cache off the hot cache is never probed and nothing is
    // served at the CR layer: those keys are pinned at zero, not dropped.
    use utps::core::experiment::run_utps;
    let r = run_utps(&RunConfig {
        cache_enabled: false,
        ..schema_cfg()
    });
    let snap = r.stage_metrics.as_ref().expect("every runner snapshots");
    for key in ["hot.hits", "hot.misses", "server.cr_local"] {
        assert_eq!(snap.counter(key), Some(0), "cache-off run: {key}");
    }
    for key in ["ring.dma", "ring.polls", "ring.poll_hits"] {
        assert!(snap.counter(key).is_some(), "cache-off run lost {key}");
    }
    // `server.forwarded` restates `cr.forward`: one event, counted once.
    assert_eq!(snap.counter("server.forwarded"), snap.counter("cr.forward"));
}
