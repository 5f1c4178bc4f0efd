//! Chaos suite: every fault class against μTPS-H, μTPS-T and BaseKV.
//!
//! Invariants checked for every (fault class × system) cell:
//!
//! * **exactly-once** — no completed request is lost or duplicated: the
//!   ledger `issued == completed_total + failed + in-flight` holds, with
//!   in-flight bounded by the closed-loop window;
//! * **proportional degradation** — a ~1% fault rate may cost throughput,
//!   but never more than half of it;
//! * **determinism** — the same seed under the same fault plan is
//!   byte-identical, fates and all.
//!
//! The seed is overridable via `CHAOS_SEED` so CI can run a fixed matrix.

use utps::prelude::*;
use utps::sim::time::MICROS;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn chaos_cfg(index: IndexKind, faults: FaultConfig) -> RunConfig {
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
        seed: chaos_seed(),
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        retry: RetryConfig::chaos_default(),
        faults,
        ..RunConfig::default()
    }
}

/// The fault classes of the plan, each exercising one injection point.
fn fault_classes() -> Vec<(&'static str, FaultConfig)> {
    vec![
        (
            "drop",
            FaultConfig {
                drop_prob: 0.01,
                ..FaultConfig::default()
            },
        ),
        (
            "dup",
            FaultConfig {
                dup_prob: 0.01,
                ..FaultConfig::default()
            },
        ),
        (
            "delay",
            FaultConfig {
                delay_prob: 0.02,
                delay_ps: 20 * MICROS,
                ..FaultConfig::default()
            },
        ),
        (
            "stall",
            FaultConfig {
                stalls: vec![StallWindow {
                    core: 3, // an MR core for μTPS (n_cr = 2), any worker for BaseKV
                    at_ps: 900 * MICROS,
                    dur_ps: 50 * MICROS,
                }],
                ..FaultConfig::default()
            },
        ),
        (
            "corrupt",
            FaultConfig {
                corrupt_prob: 0.05, // CR-MR lane checks; no-op for BaseKV
                ..FaultConfig::default()
            },
        ),
    ]
}

/// No completed request lost, none completed twice: everything offered is
/// accounted for as completed, failed, or still in the closed-loop window.
fn assert_exactly_once(tag: &str, r: &RunResult, cfg: &RunConfig) {
    let in_flight = r
        .in_flight()
        .unwrap_or_else(|| panic!("{tag}: more ops resolved than the {} issued", r.issued));
    let window = (cfg.clients * cfg.pipeline) as u64;
    assert!(
        in_flight <= window,
        "{tag}: {in_flight} requests vanished (window is {window})"
    );
    assert!(r.completed > 0, "{tag}: no requests completed");
    // Leak half of `PayloadRef` linearity (rustc owns the double consume):
    // a live arena slot belongs to a message on the wire, in a ring or in
    // an op. Redelivered duplicates and retransmits hold a few slots of
    // their own, but at these fault rates no cell ends with more than 29
    // live of a 48-request window, and the count does not grow with run
    // length — which a handle dropped on any path does.
    assert!(
        r.payloads_live as u64 <= window,
        "{tag}: {} payload slots still live at run end (window is {window})",
        r.payloads_live
    );
}

#[test]
fn every_fault_class_preserves_exactly_once() {
    for (system, index) in [
        (SystemKind::Utps, IndexKind::Hash), // μTPS-H
        (SystemKind::Utps, IndexKind::Tree), // μTPS-T
        (SystemKind::BaseKv, IndexKind::Tree),
    ] {
        let clean = run(system, &chaos_cfg(index, FaultConfig::default()));
        for (class, faults) in fault_classes() {
            let tag = format!("{}/{index:?}/{class}", system.name());
            let cfg = chaos_cfg(index, faults);
            let r = run(system, &cfg);
            assert_exactly_once(&tag, &r, &cfg);
            // Proportional degradation: ~1% faults must not halve throughput.
            assert!(
                r.mops >= 0.5 * clean.mops,
                "{tag}: {:.2} Mops vs clean {:.2} Mops",
                r.mops,
                clean.mops
            );
        }
    }
}

#[test]
fn injected_faults_are_observable_in_counters() {
    // Each class must actually fire and show up in the metrics snapshot.
    for (class, faults, counter) in [
        (
            "drop",
            FaultConfig {
                drop_prob: 0.01,
                ..FaultConfig::default()
            },
            "fault.rx_drop",
        ),
        (
            "dup",
            FaultConfig {
                dup_prob: 0.01,
                ..FaultConfig::default()
            },
            "fault.rx_dup",
        ),
        (
            "delay",
            FaultConfig {
                delay_prob: 0.02,
                delay_ps: 20 * MICROS,
                ..FaultConfig::default()
            },
            "fault.rx_delay",
        ),
        (
            "stall",
            FaultConfig {
                stalls: vec![StallWindow {
                    core: 3,
                    at_ps: 900 * MICROS,
                    dur_ps: 50 * MICROS,
                }],
                ..FaultConfig::default()
            },
            "fault.stall_defer",
        ),
        (
            "corrupt",
            FaultConfig {
                corrupt_prob: 0.05,
                ..FaultConfig::default()
            },
            "crmr.corrupt",
        ),
    ] {
        let r = run(SystemKind::Utps, &chaos_cfg(IndexKind::Tree, faults));
        let snap = r.stage_metrics.as_ref().expect("no snapshot");
        assert!(
            snap.counter(counter).unwrap_or(0) > 0,
            "{class}: {counter} never fired"
        );
    }
}

#[test]
fn a_warm_up_stall_is_outside_every_systems_window() {
    // A stall that ends inside the warm-up: every system resets its
    // registry at the boundary, so no system counts its deferred steps.
    let faults = FaultConfig {
        stalls: vec![StallWindow {
            core: 1,
            at_ps: 100 * MICROS,
            dur_ps: 50 * MICROS,
        }],
        ..FaultConfig::default()
    };
    for system in [SystemKind::Utps, SystemKind::BaseKv, SystemKind::ErpcKv] {
        let r = run(system, &chaos_cfg(IndexKind::Tree, faults.clone()));
        let snap = r.stage_metrics.as_ref().expect("every runner snapshots");
        assert_eq!(
            snap.counter("fault.stall_defer"),
            Some(0),
            "{}: warm-up deferrals leaked into the measured window",
            system.name()
        );
    }
}

#[test]
fn same_seed_fault_runs_are_byte_identical() {
    use utps::core::experiment::{run_utps, stats_json};
    let faults = FaultConfig {
        drop_prob: 0.01,
        dup_prob: 0.005,
        delay_prob: 0.01,
        delay_ps: 20 * MICROS,
        ..FaultConfig::default()
    };
    let cfg = chaos_cfg(IndexKind::Hash, faults);
    let a = run_utps(&cfg);
    let b = run_utps(&cfg);
    assert_eq!(
        stats_json(&a),
        stats_json(&b),
        "same-seed fault runs diverged"
    );
}

#[test]
fn zero_fault_plan_is_byte_transparent() {
    // A FaultPlan with zero probabilities and no stalls — even with a
    // nonzero plan seed and the retry machinery armed — must reproduce the
    // plain baseline run byte for byte: the hooks draw no randomness and
    // charge no time unless a fault actually fires.
    use utps::core::experiment::{run_utps, stats_json};
    let base = chaos_cfg(IndexKind::Hash, FaultConfig::default());

    let plain = run_utps(&RunConfig {
        retry: RetryConfig::disabled(),
        ..base.clone()
    });
    let armed = run_utps(&base);
    let seeded_zero_plan = run_utps(&RunConfig {
        faults: FaultConfig {
            seed: 999,
            ..FaultConfig::default()
        },
        ..base.clone()
    });

    assert_eq!(
        stats_json(&plain),
        stats_json(&armed),
        "arming retries on a fault-free run changed the simulation"
    );
    assert_eq!(
        stats_json(&armed),
        stats_json(&seeded_zero_plan),
        "a zero plan's seed leaked into the simulation"
    );
}

#[test]
fn acceptance_plan_drop_plus_stall() {
    // The issue's acceptance plan: 1% receive drops plus one 50 µs MR-core
    // stall. μTPS must complete every offered request exactly once, with a
    // finite p99 reported in stats_json.
    use utps::core::experiment::{run_utps, stats_json};
    let faults = FaultConfig {
        drop_prob: 0.01,
        stalls: vec![StallWindow {
            core: 4,
            at_ps: 900 * MICROS,
            dur_ps: 50 * MICROS,
        }],
        ..FaultConfig::default()
    };
    let cfg = chaos_cfg(IndexKind::Tree, faults);
    let r = run_utps(&cfg);

    assert_exactly_once("acceptance", &r, &cfg);
    assert_eq!(r.failed, 0, "retry budget exhausted under a 1% drop plan");
    assert!(r.p99_ns > 0 && r.p99_ns < u64::MAX, "p99 not finite");
    let json = stats_json(&r);
    for needle in [
        format!("\"p99_ns\":{}", r.p99_ns),
        "\"fault.rx_drop\"".to_string(),
        "\"fault.stall_defer\"".to_string(),
        "\"retransmits\"".to_string(),
    ] {
        assert!(json.contains(&needle), "stats JSON missing {needle}");
    }
    let snap = r.stage_metrics.as_ref().unwrap();
    assert!(snap.counter("fault.rx_drop").unwrap_or(0) > 0);
    assert!(r.retransmits > 0, "drops must force retransmissions");
}

#[test]
fn lease_reclaims_stalled_worker_batch() {
    // A long MR-core stall with descriptor leases armed: the CR must revoke
    // the stalled lane's batch, re-spread it, and nothing may double-execute.
    use utps::core::experiment::run_utps;
    let faults = FaultConfig {
        stalls: vec![StallWindow {
            core: 3,
            at_ps: 800 * MICROS,
            dur_ps: 400 * MICROS,
        }],
        ..FaultConfig::default()
    };
    let cfg = RunConfig {
        lease_ps: 100 * MICROS,
        ..chaos_cfg(IndexKind::Tree, faults)
    };
    let r = run_utps(&cfg);
    assert_exactly_once("lease", &r, &cfg);
    let snap = r.stage_metrics.as_ref().unwrap();
    assert!(
        snap.counter("crmr.lease_reclaim").unwrap_or(0) >= 1,
        "stalled lane was never reclaimed"
    );
}

/// A 4-shard cluster with one live migration mid-measurement; `link`
/// carries the inter-machine fault plan for the migration transfer.
fn cluster_chaos_cfg(link: LinkConfig) -> ClusterConfig {
    ClusterConfig {
        // Slot 2 starts round-robin-owned by shard 2; moving it to shard 0
        // mid-measurement is a guaranteed live rebalance.
        migrations: vec![MigrationSpec {
            at_ps: 800 * MICROS,
            class: SizeClass::Small,
            slot: 2,
            to_shard: 0,
        }],
        link,
        ..ClusterConfig::new(chaos_cfg(IndexKind::Hash, FaultConfig::default()), 4)
    }
}

#[test]
fn cluster_link_faults_preserve_exactly_once() {
    // Every inter-machine link fault class against a 4-shard cluster with a
    // live rebalance: drops (chunk retransmitted), duplicates (idempotent
    // double install), delays, and all three at once. The exactly-once
    // ledger must balance and a faulty link may not halve throughput —
    // the migration moves data, not correctness or the fast path.
    let classes: Vec<(&str, LinkConfig)> = vec![
        (
            "link-drop",
            LinkConfig {
                drop_prob: 0.05,
                ..LinkConfig::default()
            },
        ),
        (
            "link-dup",
            LinkConfig {
                dup_prob: 0.05,
                ..LinkConfig::default()
            },
        ),
        (
            "link-delay",
            LinkConfig {
                delay_prob: 0.10,
                ..LinkConfig::default()
            },
        ),
        ("link-all", LinkConfig::chaos_default()),
    ];
    for system in [SystemKind::Utps, SystemKind::BaseKv] {
        let clean_cfg = cluster_chaos_cfg(LinkConfig::default());
        let clean = run_cluster(system, &clean_cfg);
        assert_exactly_once(
            &format!("{}/link-clean", system.name()),
            &clean,
            &clean_cfg.base,
        );
        for (class, link) in &classes {
            let tag = format!("{}/{class}", system.name());
            let cfg = cluster_chaos_cfg(link.clone());
            let r = run_cluster(system, &cfg);
            assert_exactly_once(&tag, &r, &cfg.base);
            let cl = r.cluster.as_ref().expect("cluster stats missing");
            assert_eq!(cl.migrations, 1, "{tag}: the rebalance never finished");
            assert!(cl.migrated_items > 0, "{tag}: rebalance moved nothing");
            assert!(
                r.mops >= 0.5 * clean.mops,
                "{tag}: {:.2} Mops vs clean {:.2} Mops",
                r.mops,
                clean.mops
            );
        }
    }
}

#[test]
fn crash_plus_device_fault_preserves_exactly_once() {
    // The crash+device-fault cell: receive drops/dups riding on top of a
    // mid-run power loss with the device's seeded torn-tail fault model.
    // The exactly-once ledger must balance on *both sides* of the crash —
    // requests in flight at the power loss are the only allowed gap, and
    // they stay pending ("may have executed") rather than vanishing into a
    // double execution, which the oracle over the combined history would
    // catch as a dedup violation.
    let faults = FaultConfig {
        drop_prob: 0.01,
        dup_prob: 0.005,
        ..FaultConfig::default()
    };
    for (label, runner) in [
        (
            "utps-h",
            run_crash::<Utps> as fn(&RunConfig, u64) -> CrashReport,
        ),
        (
            "basekv",
            run_crash::<BaseKv> as fn(&RunConfig, u64) -> CrashReport,
        ),
    ] {
        let cfg = RunConfig {
            workers: 4,
            clients: 8,
            hot_capacity: 500,
            oracle: true,
            tier: Some(TierConfig {
                dram_items_max: 15_000,
                evict_batch: 256,
                compact_every_ps: 100 * MICROS,
                ..Default::default()
            }),
            ..chaos_cfg(IndexKind::Hash, faults.clone())
        };
        let rep = runner(&cfg, cfg.warmup + cfg.duration / 2);
        let window = (cfg.clients * cfg.pipeline) as u64;
        for (phase, issued, completed, failed) in [
            ("pre", rep.pre_issued, rep.pre_completed, rep.pre_failed),
            ("post", rep.post_issued, rep.post_completed, rep.post_failed),
        ] {
            let tag = format!("{label}/crash+device-fault/{phase}");
            let resolved = completed + failed;
            assert!(
                resolved <= issued,
                "{tag}: resolved {resolved} > issued {issued}"
            );
            assert!(
                issued - resolved <= window,
                "{tag}: {} requests vanished (window is {window})",
                issued - resolved
            );
            assert!(completed > 0, "{tag}: no requests completed");
        }
        assert!(
            rep.pending_at_crash as u64 <= window,
            "{label}: {} ops pending at the crash exceed the closed-loop \
             window {window}",
            rep.pending_at_crash
        );
        assert!(
            rep.acked_preserved,
            "{label}: durable-ack invariant violated"
        );
        assert!(
            rep.oracle.ok(),
            "{label}: combined history not linearizable: {:#?}",
            rep.oracle.violations
        );
    }
}

#[test]
fn tuner_freezes_under_fault_pressure() {
    // With faults active inside a window the tuner must hold its
    // configuration instead of chasing fault-skewed measurements.
    use utps::core::tuner::{TunerMode, TunerParams};
    let faults = FaultConfig {
        drop_prob: 0.02,
        ..FaultConfig::default()
    };
    let cfg = RunConfig {
        tuner: TunerMode::Auto,
        tuner_params: TunerParams {
            window: 200 * MICROS,
            settle: 100 * MICROS,
            trigger: 0.0, // hair trigger: any deviation would search
            trigger_windows: 1,
            cache_step: 1_000,
        },
        duration: 3_000 * MICROS,
        ..chaos_cfg(IndexKind::Tree, faults)
    };
    let r = run(SystemKind::Utps, &cfg);
    assert_exactly_once("tuner-freeze", &r, &cfg);
    let snap = r.stage_metrics.as_ref().unwrap();
    assert!(
        snap.counter("tuner.frozen_windows").unwrap_or(0) >= 1,
        "tuner never froze despite steady fault pressure"
    );
}
