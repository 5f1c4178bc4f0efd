//! Cross-crate integration tests: every system, end to end, through the
//! public facade.

use utps::prelude::*;
use utps::sim::time::MICROS;

fn quick(index: IndexKind, workload: WorkloadSpec) -> RunConfig {
    RunConfig {
        index,
        keys: 20_000,
        workers: 6,
        n_cr: 2,
        clients: 12,
        pipeline: 4,
        warmup: 500 * MICROS,
        duration: 1_500 * MICROS,
        machine: MachineConfig::tiny(),
        hot_capacity: 1_000,
        sample_every: 2,
        workload,
        ..RunConfig::default()
    }
}

fn ycsb(mix: Mix, theta: f64, value_len: usize) -> WorkloadSpec {
    WorkloadSpec::Ycsb {
        mix,
        theta,
        value_len,
        scan_len: 20,
    }
}

#[test]
fn every_system_serves_requests() {
    for (system, index) in [
        (SystemKind::Utps, IndexKind::Tree),
        (SystemKind::Utps, IndexKind::Hash),
        (SystemKind::BaseKv, IndexKind::Tree),
        (SystemKind::BaseKv, IndexKind::Hash),
        (SystemKind::ErpcKv, IndexKind::Tree),
        (SystemKind::ErpcKv, IndexKind::Hash),
        (SystemKind::Sherman, IndexKind::Tree),
        (SystemKind::RaceHash, IndexKind::Hash),
    ] {
        let r = run(system, &quick(index, ycsb(Mix::A, 0.99, 64)));
        assert!(
            r.completed > 100,
            "{} ({index:?}): only {} ops",
            system.name(),
            r.completed
        );
        assert_eq!(r.not_found, 0, "{}: missing keys", system.name());
        assert!(
            r.p50_ns >= 1_500,
            "{}: p50 below physical RTT",
            system.name()
        );
        assert!(r.p99_ns >= r.p50_ns, "{}: p99 < p50", system.name());
    }
}

#[test]
fn data_integrity_under_mixed_load() {
    // After a run with puts, every key must still resolve and values must
    // be one of the client fill bytes or the populate filler.
    use utps::core::{run_system, Utps};
    let cfg = quick(IndexKind::Tree, ycsb(Mix::A, 0.9, 32));
    let (r, world) = run_system::<Utps>(&cfg);
    assert!(r.completed > 100);
    let mut checked = 0;
    for key in (0..cfg.keys).step_by(97) {
        let v = world.store.get_native(key).expect("populated key vanished");
        assert!(!v.is_empty());
        let b = v[0];
        assert!(
            b == 0xab || (0x40..0x80).contains(&b),
            "key {key} has unexpected fill byte {b:#x}"
        );
        assert!(v.iter().all(|&x| x == b), "torn value at key {key}");
        checked += 1;
    }
    assert!(checked > 100);
}

#[test]
fn scans_return_expected_counts() {
    let r = run(
        SystemKind::Utps,
        &quick(IndexKind::Tree, ycsb(Mix::SCAN_ONLY, 0.99, 8)),
    );
    assert!(r.completed > 50, "only {} scans", r.completed);
}

#[test]
fn deterministic_same_seed_identical_snapshots() {
    // Every cache-charged address is a fixed virtual address, so two
    // same-seed runs must agree bit for bit — including every stage-level
    // counter and histogram in the metrics snapshot.
    use utps::core::experiment::{run_utps, stats_json};
    let cfg = quick(IndexKind::Hash, ycsb(Mix::C, 0.99, 8));
    let a = run_utps(&cfg);
    let b = run_utps(&cfg);
    assert_eq!(a.completed, b.completed, "same-seed op counts diverged");
    assert_eq!(
        stats_json(&a),
        stats_json(&b),
        "same-seed metrics snapshots are not byte-identical"
    );
}

#[test]
fn different_seeds_differ() {
    let cfg = quick(IndexKind::Hash, ycsb(Mix::C, 0.99, 8));
    let a = run(SystemKind::Utps, &cfg);
    let b = run(SystemKind::Utps, &RunConfig { seed: 777, ..cfg });
    assert!(a.completed != b.completed, "seed had no effect");
}

#[test]
fn reconfiguration_loses_no_requests() {
    use utps::core::tuner::{TunerMode, TunerParams};
    let cfg = RunConfig {
        tuner: TunerMode::Auto,
        tuner_params: TunerParams {
            window: 200 * MICROS,
            settle: 100 * MICROS,
            trigger: 0.0, // hair trigger: search immediately
            trigger_windows: 1,
            cache_step: 1_000,
            cache_max: 1_000,
        },
        duration: 6_000 * MICROS,
        ..quick(IndexKind::Tree, ycsb(Mix::A, 0.99, 16))
    };
    let r = run(SystemKind::Utps, &cfg);
    assert!(r.reconfigs >= 1, "tuner never reassigned threads");
    assert!(r.completed > 500, "requests were lost during reassignment");
    assert_eq!(r.not_found, 0);
}

#[test]
fn stage_metrics_snapshot_contents() {
    // A tuned run's snapshot must expose the paper's per-stage picture: CR
    // hit-rate inputs, an MR traversal-latency histogram, CR-MR lane
    // occupancy, ring poll efficiency — plus a complete tuner trisection
    // trace in the decision log.
    use utps::core::experiment::{run_utps, stats_json};
    use utps::core::tuner::{TunerMode, TunerParams};
    let cfg = RunConfig {
        tuner: TunerMode::Auto,
        tuner_params: TunerParams {
            window: 200 * MICROS,
            settle: 100 * MICROS,
            trigger: 0.0, // hair trigger: search immediately
            trigger_windows: 1,
            cache_step: 1_000,
            cache_max: 1_000,
        },
        duration: 6_000 * MICROS,
        ..quick(IndexKind::Tree, ycsb(Mix::A, 0.99, 16))
    };
    let r = run_utps(&cfg);
    let snap = r.stage_metrics.as_ref().expect("no stage metrics snapshot");

    // CR hit rate is computable and sane.
    let hits = snap.counter("cr.hit").unwrap_or(0);
    let misses = snap.counter("cr.miss").unwrap_or(0);
    assert!(hits + misses > 0, "CR layer recorded no probes");
    let hit_rate = hits as f64 / (hits + misses) as f64;
    assert!((0.0..=1.0).contains(&hit_rate));
    assert!(
        snap.counter("cr.response").unwrap_or(0) > 0,
        "no responses counted"
    );

    // MR traversal latency histogram is populated and ordered.
    let trav = snap
        .hist("mr.traversal_ns")
        .expect("no traversal histogram");
    assert!(trav.count > 0, "no traversals recorded");
    assert!(trav.min <= trav.p50 && trav.p50 <= trav.p99 && trav.p99 <= trav.max);

    // Lane occupancy high-water mark was tracked.
    assert!(
        snap.gauge("crmr.lane_hwm").unwrap_or(0) >= 1,
        "no lane occupancy recorded"
    );

    // Poll efficiency: hits cannot exceed polls.
    let polls = snap.counter("ring.polls").unwrap_or(0);
    let poll_hits = snap.counter("ring.poll_hits").unwrap_or(0);
    assert!(polls > 0 && poll_hits <= polls);

    // At least one complete trisection trace, ending in an accepted probe.
    assert!(!r.tuner_probes.is_empty(), "tuner left no decision log");
    assert!(
        r.tuner_probes.iter().any(|p| p.accepted),
        "no probe was ever accepted"
    );

    // The JSON sidecar carries all of it.
    let json = stats_json(&r);
    for needle in [
        "\"cr.hit\"",
        "\"mr.traversal_ns\"",
        "\"crmr.lane_hwm\"",
        "\"tuner_probes\":[{",
    ] {
        assert!(json.contains(needle), "stats JSON missing {needle}");
    }
}

#[test]
fn skew_helps_utps_more_than_rtc() {
    // Shape check: μTPS's relative position improves with skew (the hot
    // cache only helps when there is a hot set).
    let skew = quick(IndexKind::Tree, ycsb(Mix::C, 0.99, 64));
    let unif = RunConfig {
        cache_enabled: false,
        ..quick(IndexKind::Tree, ycsb(Mix::C, 0.0, 64))
    };
    let utps_s = run(SystemKind::Utps, &skew).mops;
    let base_s = run(SystemKind::BaseKv, &skew).mops;
    let utps_u = run(SystemKind::Utps, &unif).mops;
    let base_u = run(SystemKind::BaseKv, &unif).mops;
    let ratio_s = utps_s / base_s;
    let ratio_u = utps_u / base_u;
    assert!(
        ratio_s > ratio_u * 0.95,
        "skew ratio {ratio_s:.2} not better than uniform {ratio_u:.2}"
    );
}

#[test]
fn passive_kvs_pays_round_trips() {
    // RaceHash gets need 2 RTTs; actively served gets need ~1. Passive
    // median latency must be clearly higher.
    let cfg = quick(IndexKind::Hash, ycsb(Mix::C, 0.0, 64));
    let active = run(SystemKind::Utps, &cfg);
    let passive = run(SystemKind::RaceHash, &cfg);
    assert!(
        passive.p50_ns as f64 > active.p50_ns as f64 * 0.9,
        "passive p50 {} vs active {}",
        passive.p50_ns,
        active.p50_ns
    );
    assert!(passive.mops < active.mops, "passive should not win");
}

#[test]
fn churn_workload_with_deletes() {
    use utps::core::{run_system, Utps};
    // 30% put / 50% get / 20% delete over a small keyspace: keys churn in
    // and out; the hot cache must tombstone deleted entries rather than
    // serving stale items.
    let cfg = RunConfig {
        duration: 3_000 * MICROS,
        ..quick(IndexKind::Tree, ycsb(Mix::CHURN, 0.9, 16))
    };
    let (r, world) = run_system::<Utps>(&cfg);
    assert!(r.completed > 500, "only {} ops", r.completed);
    // Deletes must actually have removed keys (some gets observe misses).
    assert!(r.not_found > 0, "churn produced no observable deletes");
    // Store stays consistent: every indexed key resolves to a live value.
    let mut live = 0;
    for key in 0..cfg.keys {
        if let Some(v) = world.store.get_native(key) {
            assert!(!v.is_empty());
            live += 1;
        }
    }
    assert!(live > 0 && live <= cfg.keys as usize);
    // Retired items await quiescent reclamation, never dangling.
    assert!(world.store.items.retired_len() > 0);
}

#[test]
fn shared_mpmc_counterfactual_works_and_costs_more() {
    use utps::core::crmr::QueueKind;
    // §3.4's justification, measured: the single shared queue must still be
    // correct, but the all-to-all lanes should not lose to it.
    let lanes = run(
        SystemKind::Utps,
        &quick(IndexKind::Tree, ycsb(Mix::A, 0.99, 64)),
    );
    let shared = run(
        SystemKind::Utps,
        &RunConfig {
            queue_kind: QueueKind::SharedMpmc,
            ..quick(IndexKind::Tree, ycsb(Mix::A, 0.99, 64))
        },
    );
    assert!(shared.completed > 100, "shared-queue mode broke");
    assert_eq!(shared.not_found, 0);
    assert!(
        lanes.mops > shared.mops * 0.9,
        "all-to-all lanes ({:.2}M) should not lose to the shared queue ({:.2}M)",
        lanes.mops,
        shared.mops
    );
}
