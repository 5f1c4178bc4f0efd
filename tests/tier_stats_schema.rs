//! Golden-file regression test for the *tier-enabled* `stats_json` schema.
//!
//! The durable tier adds a `tier` section (WAL, cold-path, compaction and
//! device counters) to the JSON sidecar — but only when the tier is
//! configured. Two contracts pinned here:
//!
//! * a tier-enabled run's key set matches the golden (so the new counters
//!   can't silently drop or rename), and μTPS and BaseKV agree on it;
//! * a tier-*less* run's schema contains none of the tier keys — the
//!   pre-tier golden (`stats_schema.txt`) and the run-equivalence goldens
//!   stay byte-identical, which is the "zero cost when disabled" story.
//!
//! The golden regenerates with every other (`tests/common/mod.rs`).

mod common;

use common::keys_of;
use utps::prelude::*;

fn tier_cfg() -> RunConfig {
    common::with_tier(common::quick_cfg(IndexKind::Tree, 42))
}

#[test]
fn tier_stats_json_schema_matches_golden() {
    use utps::core::experiment::{run_utps, stats_json};
    let r = run_utps(&tier_cfg());
    assert!(r.tier.is_some(), "tier-enabled run reported no tier stats");
    common::golden(
        "tier_stats_schema.txt",
        &(keys_of(&stats_json(&r)).join("\n") + "\n"),
    );
}

#[test]
fn tier_counters_are_pinned_when_enabled() {
    use utps::core::experiment::{run_utps, stats_json};
    let json = stats_json(&run_utps(&tier_cfg()));
    for key in [
        "tier",
        "wal_records",
        "wal_groups",
        "wal_bytes",
        "cold_hits",
        "cold_misses",
        "compactions",
        "evicted",
        "run_items",
        "tombstones",
        "device_reads",
        "device_writes",
        "durable_seq",
        "last_applied",
    ] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "tier stats JSON lost pinned key {key}"
        );
    }
}

#[test]
fn basekv_tier_run_shares_the_schema() {
    // Both systems report the same `tier` section (the stage-metric
    // snapshots legitimately differ — BaseKV has no CR/MR stages): a
    // dashboard reading the tier block needs no per-system special case.
    use utps::core::experiment::stats_json;
    fn tier_block(json: &str) -> Vec<String> {
        let keys = keys_of(json);
        let start = keys.iter().position(|k| k == "tier").expect("no tier key");
        let end = keys
            .iter()
            .position(|k| k == "last_applied")
            .expect("no last_applied key");
        keys[start..=end].to_vec()
    }
    let utps_json = stats_json(&utps::core::experiment::run_utps(&tier_cfg()));
    let base_json = stats_json(&run(SystemKind::BaseKv, &tier_cfg()));
    assert_eq!(
        tier_block(&utps_json),
        tier_block(&base_json),
        "μTPS and BaseKV tier runs disagree on the tier stats schema"
    );
}

#[test]
fn tierless_schema_has_no_tier_keys() {
    // Disabling the tier must remove the whole section — the pre-tier
    // golden (stats_schema.txt) and the run-equivalence goldens rely on
    // tier-less snapshots staying byte-identical to the seed.
    use utps::core::experiment::{run_utps, stats_json};
    let cfg = RunConfig {
        tier: None,
        ..tier_cfg()
    };
    let r = run_utps(&cfg);
    assert!(r.tier.is_none(), "tier-less run reported tier stats");
    let json = stats_json(&r);
    for needle in ["\"tier\":", "\"wal_records\":", "\"device_reads\":"] {
        assert!(
            !json.contains(needle),
            "tier-less stats JSON leaked tier key {needle}"
        );
    }
}

#[test]
fn tier_keys_are_pinned_when_their_events_never_fire() {
    // Reads only, under a DRAM budget the keyspace never exceeds: no WAL
    // record, eviction, cold read or device op happens, and every tier,
    // WAL and device key still reads 0 rather than going missing.
    let cfg = RunConfig {
        workload: WorkloadSpec::Ycsb {
            mix: Mix::C,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        tier: Some(TierConfig {
            dram_items_max: 1_000_000,
            ..tier_cfg().tier.expect("tier config")
        }),
        ..tier_cfg()
    };
    for system in [SystemKind::Utps, SystemKind::BaseKv] {
        let r = run(system, &cfg);
        let snap = r.stage_metrics.as_ref().expect("every runner snapshots");
        for key in [
            "device.reads",
            "device.writes",
            "tier.cold_hit",
            "tier.cold_miss",
            "tier.compactions",
            "tier.evicted",
            "tier.run_items",
            "tier.tombstones",
            "wal.bytes",
            "wal.groups",
            "wal.records",
        ] {
            assert_eq!(snap.counter(key), Some(0), "{}: {key}", system.name());
        }
    }
}
