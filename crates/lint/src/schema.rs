//! The pinned metric-name schema for rule R4 (`metrics-schema`).
//!
//! Every string literal passed to a `MetricsRegistry` method anywhere in the
//! workspace must appear here. This is the compile-time side of the contract
//! that `tests/stats_schema.rs` pins at runtime: the golden file catches a
//! *dropped* key, this list catches an *unreviewed new* key (or a typo'd one
//! — `"cr.hti"` would silently mint a fresh counter and the golden test
//! would only notice the missing sibling much later, if ever).
//!
//! Adding a metric is a two-step, both in one PR: add the name here, then
//! regenerate the golden (`UPDATE_GOLDEN=1 cargo test --test stats_schema`).

/// Every registry instrument name the workspace may use, sorted.
pub(crate) const METRIC_SCHEMA: &[&str] = &[
    // Client-side robustness counters (PR 2).
    "client.dup_resp",
    "client.failed",
    "client.retransmit",
    // Config gauges folded into the snapshot by `extract_result`.
    "cfg.cache_items",
    "cfg.mr_ways",
    "cfg.n_cr",
    // Cluster scale-out: routing, migration and replication tallies plus
    // the per-size-class latency gauges (PR 7).
    "cluster.migrated_items",
    "cluster.migrated_slots",
    "cluster.migrations",
    "cluster.moved_bounce",
    "cluster.replica_read",
    "cluster.replica_refresh",
    "cluster.routed_large",
    "cluster.routed_small",
    "cluster.shards",
    // CR stage.
    "cr.forward",
    "cr.hit",
    "cr.hit_path_ns",
    "cr.miss",
    "cr.response",
    // CR–MR queue fabric.
    "crmr.corrupt",
    "crmr.lane_hwm",
    "crmr.lease_reclaim",
    "crmr.pushed",
    "crmr.shared_hwm",
    // Simulated persistence device (PR 9): read/write op tallies folded
    // into the snapshot only when the tier is enabled.
    "device.reads",
    "device.writes",
    // Engine scheduler internals: timer-wheel cascade operations.
    // Maintained by the engine itself and read off it by `benchmark/`;
    // never folded into `stats_json` snapshots so the run goldens stay
    // byte-identical.
    "engine.wheel_cascades",
    // Fault-injection events.
    "fault.rx_delay",
    "fault.rx_drop",
    "fault.rx_dup",
    "fault.stall_defer",
    // Hot-cache hit tracking.
    "hot.hits",
    "hot.misses",
    // Per-size-class latency gauges reported by cluster runs (PR 7).
    "latency.p99.large",
    "latency.p99.small",
    "latency.p999.large",
    "latency.p999.small",
    // MR stage.
    "mr.batch_size",
    "mr.interleave_depth",
    "mr.traversal_ns",
    // Receive-ring pump.
    "ring.dma",
    "ring.poll_hits",
    "ring.polls",
    // Schedule-exploration stalls (PR 4).
    "schedule.stall",
    // Server-side totals.
    "server.cr_local",
    "server.dup_suppressed",
    "server.forwarded",
    "server.malformed_req",
    "server.responses",
    // Durable tier (PR 9): cold-path and compaction tallies, folded into
    // the snapshot only when the tier is enabled — tier-less snapshots stay
    // byte-identical to the pre-tier goldens.
    "tier.cold_hit",
    "tier.cold_miss",
    "tier.compactions",
    "tier.evicted",
    "tier.run_items",
    "tier.tombstones",
    // Tuner.
    "tuner.frozen_windows",
    // Write-ahead log group commit (PR 9); tier runs only.
    "wal.bytes",
    "wal.groups",
    "wal.records",
];

/// Is `name` a pinned metric name?
pub(crate) fn is_pinned_metric(name: &str) -> bool {
    METRIC_SCHEMA.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for n in METRIC_SCHEMA {
            assert!(seen.insert(n), "duplicate schema entry {n}");
        }
    }

    #[test]
    fn membership() {
        assert!(is_pinned_metric("cr.hit"));
        assert!(!is_pinned_metric("cr.hti"));
    }
}
