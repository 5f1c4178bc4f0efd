//! Cluster linearizability: the Wing–Gong oracle over histories recorded
//! across *live rebalances*, with hot-key replication enabled, under the
//! acceptance fault plan, with the schedule explorer armed.
//!
//! This is the headline guarantee of the cluster layer: sharding, size
//! segregation, replica fan-out reads and mid-run ownership handoff are
//! all invisible to clients — every observed history still linearizes.
//! Each cell runs 2 small shards + 1 large shard with the 4 hottest
//! small-class keys replicated, one live slot migration mid-measurement
//! over a faulty link (drops, duplicates, delays), 1% client-fabric
//! receive drops and a 50 µs core stall, and seeded schedule exploration
//! perturbing every machine.
//!
//! The same runs pin multi-shard behaviour by value:
//! `tests/golden/cluster_digest.txt` holds `label seed fnv1a(stats_json)
//! history_digest` per cell, so a change to the client's routing, bounce or
//! retransmit order shows even when the history still linearizes. It
//! regenerates with every other golden (`tests/common/mod.rs`).

mod common;

use utps::core::system::ServerWorld;
use utps::prelude::*;
use utps::sim::time::MICROS;
use utps_core::experiment::stats_json;
use utps_workload::zipf::KeyDist;

const GOLDEN: &str = "cluster_digest.txt";

fn explore_seeds() -> Vec<u64> {
    std::env::var("EXPLORE_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![42, 7, 1234])
}

/// Checks `label`'s rows of the golden, which the two `check_system` tests
/// share: the other labels' rows are kept as committed, so `UPDATE_GOLDEN`
/// rewrites only this label's. The lock keeps the two tests, which run on
/// parallel threads, from interleaving their read and write.
fn check_golden(label: &str, got: &str) {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = ONE_AT_A_TIME.lock();
    let old = common::golden_read(GOLDEN);
    let mut rows: Vec<&str> = old
        .lines()
        .filter(|l| l.split(' ').next() != Some(label))
        .chain(got.lines())
        .collect();
    rows.sort_by_key(|l| l.split(' ').next());
    common::golden(GOLDEN, &(rows.join("\n") + "\n"));
}

/// The chaos suite's acceptance plan: 1% receive drops plus one 50 µs stall
/// of an MR core (applied on every shard machine).
fn acceptance_faults() -> FaultConfig {
    FaultConfig {
        drop_prob: 0.01,
        stalls: vec![StallWindow {
            core: 4,
            at_ps: 900 * MICROS,
            dur_ps: 50 * MICROS,
        }],
        ..FaultConfig::default()
    }
}

fn cluster_cfg(index: IndexKind, seed: u64) -> ClusterConfig {
    let base = RunConfig {
        faults: acceptance_faults(),
        record_history: true,
        oracle: true,
        schedule: ScheduleMode::Explore(ScheduleConfig::explore(seed)),
        ..common::quick_cfg(index, seed)
    };
    let keys = base.keys;
    let large_keys = 500;
    // Replicate the 4 hottest small-class keys (the scrambled-zipfian hot
    // set; skip any that land in the large-class tail).
    let replicate_keys: Vec<u64> = KeyDist::zipf(keys, 0.99)
        .hottest_keys(8)
        .into_iter()
        .filter(|&k| k < keys - large_keys)
        .take(4)
        .collect();
    ClusterConfig {
        large_shards: 1,
        large_keys,
        replicate_keys,
        // Slot 3 starts round-robin-owned by small shard 1; handing it to
        // shard 0 mid-measurement is a guaranteed live rebalance.
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

fn check_system(label: &str, system: SystemKind, index: IndexKind) {
    let mut got = String::new();
    for seed in explore_seeds() {
        let cfg = cluster_cfg(index, seed);
        let r = run_cluster(system, &cfg);
        got += &format!(
            "{label} {seed} {:016x} {:016x}\n",
            utps_wal::fnv1a(stats_json(&r).as_bytes()),
            r.history_digest.expect("recording was on")
        );
        assert!(r.completed > 0, "{label}/{seed}: nothing completed");
        let cl = r
            .cluster
            .as_ref()
            .expect("non-trivial cluster run must report cluster stats");
        assert_eq!(cl.migrations, 1, "{label}/{seed}: the rebalance never ran");
        assert!(
            cl.migrated_items > 0,
            "{label}/{seed}: rebalance moved no items"
        );
        assert!(
            cl.replica_reads > 0,
            "{label}/{seed}: no read was ever served from a replica"
        );
        assert!(
            cl.routed_large > 0,
            "{label}/{seed}: no request was routed to the large pool"
        );
        let rep = r
            .oracle
            .as_ref()
            .expect("oracle was configured on but produced no report");
        assert!(
            rep.ok(),
            "{label}/{seed}: history across a live rebalance is NOT \
             linearizable.\n\
             schedule trace (replay with ScheduleMode::Replay): {:?}\n\
             violations: {:#?}",
            r.schedule_trace,
            rep.violations
        );
        assert!(
            rep.point_ops as u64 >= r.completed,
            "{label}/{seed}: oracle saw {} point ops for {} completions",
            rep.point_ops,
            r.completed
        );
    }
    // Only the default seed list is pinned.
    if std::env::var_os("EXPLORE_SEEDS").is_none() {
        check_golden(label, &got);
    }
}

#[test]
fn utps_h_cluster_is_linearizable_across_rebalances() {
    check_system("utps_h", SystemKind::Utps, IndexKind::Hash);
}

#[test]
fn basekv_cluster_is_linearizable_across_rebalances() {
    check_system("basekv", SystemKind::BaseKv, IndexKind::Tree);
}

/// `cluster × tier`: a static two-shard cluster with the durable tier on
/// every shard, under the acceptance faults and the explorer. Routing is
/// static (migration and replication copy from DRAM and are rejected with
/// the tier on), so every shard serves — and must log — its own writes.
fn check_tiered<S: System>(label: &str, index: IndexKind)
where
    S::World: utps::cluster::ShardWorld,
{
    for seed in explore_seeds() {
        let base = common::with_tier(cluster_cfg(index, seed).base);
        let cfg = ClusterConfig::new(base, 2);
        let (r, mut shards) = utps::cluster::run_cluster_system::<S>(&cfg);
        assert!(r.completed > 0, "{label}/{seed}: nothing completed");
        for (s, (world, snap)) in shards.iter_mut().enumerate() {
            assert!(world.parts().tier.is_some(), "tier built per shard");
            assert!(
                snap.counter("wal.records").unwrap_or(0) > 0,
                "{label}/{seed}: shard {s} logged no writes in the window"
            );
        }
        let rep = r.oracle.as_ref().expect("oracle was configured on");
        assert!(
            rep.ok(),
            "{label}/{seed}: tiered cluster history is NOT linearizable.\n\
             schedule trace: {:?}\nviolations: {:#?}",
            r.schedule_trace,
            rep.violations
        );
    }
}

#[test]
fn utps_h_tiered_cluster_is_linearizable() {
    check_tiered::<Utps>("utps_h", IndexKind::Hash);
}

#[test]
fn basekv_tiered_cluster_is_linearizable() {
    check_tiered::<BaseKv>("basekv", IndexKind::Tree);
}

#[test]
fn cluster_runs_are_deterministic() {
    // Same seed, same config → byte-identical stats including the cluster
    // section and the recorded schedule trace.
    let a = run_cluster(SystemKind::Utps, &cluster_cfg(IndexKind::Hash, 42));
    let b = run_cluster(SystemKind::Utps, &cluster_cfg(IndexKind::Hash, 42));
    assert_eq!(stats_json(&a), stats_json(&b));
    assert_eq!(a.history_digest, b.history_digest);
    assert_eq!(a.schedule_trace, b.schedule_trace);
}
