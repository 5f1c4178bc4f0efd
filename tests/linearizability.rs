//! Linearizability matrix: the oracle over every request/response system,
//! with the schedule explorer armed.
//!
//! Every cell runs a system with history recording, seeded schedule
//! exploration and the oracle on, across three run seeds and two fault
//! plans (fault-free, and the acceptance plan: 1% receive drops plus a
//! 50 µs core stall). The oracle must find a linearization of the client-
//! observed history in every cell — a failure here is a real consistency
//! bug, and the failing run's `schedule_trace` is the replayable schedule
//! (see EXPERIMENTS.md for the reproduce/minimize workflow).
//!
//! Seeds are overridable for deeper local soaks:
//!
//! ```text
//! EXPLORE_SEEDS=1,2,3,...,64 cargo test --release --test linearizability
//! ```

mod common;

use utps::prelude::*;
use utps::sim::time::MICROS;
use utps_core::experiment::stats_json;

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

fn lin_cfg(index: IndexKind, seed: u64, faults: FaultConfig) -> RunConfig {
    RunConfig {
        faults,
        record_history: true,
        oracle: true,
        schedule: ScheduleMode::Explore(ScheduleConfig::explore(seed)),
        ..common::quick_cfg(index, seed)
    }
}

/// The chaos suite's acceptance plan: 1% receive drops plus one 50 µs stall
/// of an MR core.
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

fn check_system(label: &str, system: SystemKind, index: IndexKind) {
    for seed in explore_seeds() {
        for (plan, faults) in [
            ("clean", FaultConfig::default()),
            ("acceptance", acceptance_faults()),
        ] {
            let cfg = lin_cfg(index, seed, faults);
            let r = run(system, &cfg);
            assert!(r.completed > 0, "{label}/{seed}/{plan}: nothing completed");
            assert!(
                r.history_digest.is_some(),
                "{label}/{seed}/{plan}: no history recorded"
            );
            let rep = r
                .oracle
                .as_ref()
                .expect("oracle was configured on but produced no report");
            assert!(
                rep.ok(),
                "{label}/{seed}/{plan}: history is NOT linearizable.\n\
                 schedule trace (replay with ScheduleMode::Replay): {:?}\n\
                 violations: {:#?}",
                r.schedule_trace,
                rep.violations
            );
            // The oracle must actually have seen the run, not an empty
            // history.
            assert!(
                rep.point_ops as u64 >= r.completed,
                "{label}/{seed}/{plan}: oracle saw {} point ops for {} \
                 completions",
                rep.point_ops,
                r.completed
            );
        }
    }
}

#[test]
fn utps_h_is_linearizable_under_exploration() {
    check_system("utps_h", SystemKind::Utps, IndexKind::Hash);
}

#[test]
fn utps_t_is_linearizable_under_exploration() {
    check_system("utps_t", SystemKind::Utps, IndexKind::Tree);
}

#[test]
fn basekv_is_linearizable_under_exploration() {
    check_system("basekv", SystemKind::BaseKv, IndexKind::Tree);
}

#[test]
fn erpckv_is_linearizable_under_exploration() {
    check_system("erpckv", SystemKind::ErpcKv, IndexKind::Tree);
}

#[test]
fn utps_t_scans_are_checked_under_concurrent_writes() {
    // YCSB-E on the tree index: 95% range scans racing 5% inserts/updates.
    // The oracle's scan pass must see a substantial scan population and
    // find no phantom or dropped keys.
    let cfg = RunConfig {
        workload: WorkloadSpec::Ycsb {
            mix: Mix::E,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        ..lin_cfg(IndexKind::Tree, 42, FaultConfig::default())
    };
    let r = run(SystemKind::Utps, &cfg);
    let rep = r.oracle.as_ref().unwrap();
    assert!(rep.ok(), "scan violations: {:#?}", rep.violations);
    assert!(rep.scans > 100, "only {} scans checked", rep.scans);
}

#[test]
fn churn_mix_with_deletes_is_linearizable() {
    // The CHURN mix exercises the full API including deletes, on both
    // store-backed systems that serve them.
    for (label, system) in [("utps_t", SystemKind::Utps), ("basekv", SystemKind::BaseKv)] {
        let cfg = RunConfig {
            workload: WorkloadSpec::Ycsb {
                mix: Mix::CHURN,
                theta: 0.99,
                value_len: 64,
                scan_len: 20,
            },
            ..lin_cfg(IndexKind::Tree, 7, FaultConfig::default())
        };
        let r = run(system, &cfg);
        let rep = r.oracle.as_ref().unwrap();
        assert!(rep.ok(), "{label}: {:#?}", rep.violations);
    }
}

#[test]
fn replay_reproduces_an_exploration_run_byte_for_byte() {
    use utps::core::experiment::run_utps;
    let cfg = lin_cfg(IndexKind::Tree, 42, FaultConfig::default());
    let a = run_utps(&cfg);
    assert!(
        !a.schedule_trace.is_empty(),
        "exploration injected no stalls — mean_gap too large for this run?"
    );
    let replay_cfg = RunConfig {
        schedule: ScheduleMode::Replay(a.schedule_trace.clone()),
        ..cfg
    };
    let b = run_utps(&replay_cfg);
    assert_eq!(
        a.history_digest, b.history_digest,
        "replay produced a different op history than the exploration run"
    );
    assert_eq!(
        stats_json(&a),
        stats_json(&b),
        "replay diverged from the exploration run"
    );
    assert_eq!(
        a.schedule_trace, b.schedule_trace,
        "replay did not apply the exact recorded perturbations"
    );
}

#[test]
fn different_exploration_seeds_are_different_interleavings() {
    use utps::core::experiment::run_utps;
    let base = lin_cfg(IndexKind::Tree, 42, FaultConfig::default());
    let a = run_utps(&RunConfig {
        schedule: ScheduleMode::Explore(ScheduleConfig::explore(1)),
        ..base.clone()
    });
    let b = run_utps(&RunConfig {
        schedule: ScheduleMode::Explore(ScheduleConfig::explore(2)),
        ..base
    });
    assert_ne!(
        a.schedule_trace, b.schedule_trace,
        "two exploration seeds produced the same perturbations"
    );
    assert_ne!(
        a.history_digest, b.history_digest,
        "two exploration seeds produced identical interleavings"
    );
    // Both still linearizable, of course.
    assert!(a.oracle.as_ref().unwrap().ok());
    assert!(b.oracle.as_ref().unwrap().ok());
}

#[test]
fn recording_and_oracle_are_byte_transparent() {
    // Turning on history recording + the oracle must not change the
    // simulation at all: no charged time, no randomness, same stats.
    use utps::core::experiment::run_utps;
    let bare = RunConfig {
        record_history: false,
        oracle: false,
        schedule: ScheduleMode::Off,
        ..lin_cfg(IndexKind::Hash, 7, FaultConfig::default())
    };
    let instrumented = RunConfig {
        record_history: true,
        oracle: true,
        schedule: ScheduleMode::Off,
        ..bare.clone()
    };
    let a = run_utps(&bare);
    let b = run_utps(&instrumented);
    assert_eq!(
        stats_json(&a),
        stats_json(&b),
        "history recording perturbed the simulation"
    );
    assert!(a.history_digest.is_none() && a.schedule_trace.is_empty());
    assert!(b.oracle.as_ref().unwrap().ok());
}
