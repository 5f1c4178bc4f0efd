//! End-to-end validation of the oracle + explorer: an intentionally planted
//! consistency bug must be *found*, *replayed byte-for-byte*, and *shrunk*.
//!
//! The `bug-skip-dedup` feature makes [`utps_core::retry::DedupTable`]
//! forget every sequence number it has seen, so duplicated deliveries (and
//! client retransmits) execute twice. A delayed duplicate of a mutation
//! then re-executes *after* later writes to the same key have completed,
//! resurrecting or re-deleting state the history says is gone — a real
//! linearizability violation the oracle must catch.
//!
//! This test only exists under the feature, and must be run alone:
//!
//! ```text
//! cargo test --release --features bug-skip-dedup --test bug_detection
//! ```
//!
//! (Running the *whole* suite with the feature on would rightly fail the
//! chaos exactly-once tests — that is the bug doing its job.)
#![cfg(feature = "bug-skip-dedup")]

mod common;

use utps::prelude::*;
use utps::sim::time::MICROS;

/// A duplication-heavy plan: 5% of polled requests delivered twice, the
/// duplicate delayed 100 µs so it lands after subsequent ops on the key.
fn dup_faults() -> FaultConfig {
    FaultConfig {
        dup_prob: 0.05,
        delay_ps: 100 * MICROS,
        ..FaultConfig::default()
    }
}

fn bug_cfg(seed: u64, schedule: ScheduleMode) -> RunConfig {
    RunConfig {
        workload: WorkloadSpec::Ycsb {
            mix: Mix::CHURN,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        faults: dup_faults(),
        record_history: true,
        oracle: true,
        schedule,
        ..common::quick_cfg(IndexKind::Tree, seed)
    }
}

#[test]
fn planted_dedup_bug_is_caught_replayed_and_shrunk() {
    // 1. Detection: the oracle must flag the bug within a bounded number of
    //    exploration seeds.
    let mut failing: Option<(u64, RunResult)> = None;
    for seed in [42u64, 7, 1234, 5, 99, 2024] {
        let cfg = bug_cfg(seed, ScheduleMode::Explore(ScheduleConfig::explore(seed)));
        let r = run_utps(&cfg);
        if !r.oracle.as_ref().unwrap().ok() {
            failing = Some((seed, r));
            break;
        }
    }
    let (seed, first) =
        failing.expect("the planted dedup bug escaped the oracle across 6 exploration seeds");
    let violations = first.oracle.as_ref().unwrap().violations.len();
    assert!(violations > 0);

    // 2. Replay: re-running the recorded schedule reproduces the exact same
    //    run — same history, same verdict.
    let replay_cfg = bug_cfg(seed, ScheduleMode::Replay(first.schedule_trace.clone()));
    let replayed = run_utps(&replay_cfg);
    assert_eq!(
        first.history_digest, replayed.history_digest,
        "replay of the failing schedule produced a different history"
    );
    assert!(
        !replayed.oracle.as_ref().unwrap().ok(),
        "replay of the failing schedule no longer fails"
    );

    // 3. Shrink: ddmin the perturbation trace down to a minimal failing
    //    schedule (possibly empty — the dup faults alone may suffice).
    let minimal = shrink_schedule(&first.schedule_trace, |events| {
        let cfg = bug_cfg(seed, ScheduleMode::Replay(events.to_vec()));
        !run_utps(&cfg).oracle.as_ref().unwrap().ok()
    });
    assert!(minimal.len() <= first.schedule_trace.len());
    let min_cfg = bug_cfg(seed, ScheduleMode::Replay(minimal.clone()));
    let min_run = run_utps(&min_cfg);
    assert!(
        !min_run.oracle.as_ref().unwrap().ok(),
        "minimized schedule ({} of {} events) no longer reproduces the bug",
        minimal.len(),
        first.schedule_trace.len()
    );
}

#[test]
fn bug_is_invisible_to_aggregate_stats() {
    // The planted bug corrupts *consistency*, not liveness: throughput and
    // completion counts look healthy, which is exactly why the oracle is
    // needed. (Duplicate responses are visible as a counter, but nothing
    // fails without checking the history.)
    let cfg = bug_cfg(42, ScheduleMode::Off);
    let r = run_utps(&cfg);
    assert!(r.completed > 1_000, "run too small to mean anything");
}
