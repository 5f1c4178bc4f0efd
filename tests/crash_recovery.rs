//! Crash-recovery matrix: seeded power loss under the acceptance fault
//! plan, recovery from the surviving media image, and the linearizability
//! oracle over the *combined* pre-crash + post-recovery history.
//!
//! Every cell runs a tier-enabled system (μTPS-H and BaseKV) with the
//! schedule explorer and the acceptance faults armed, crashes it at a
//! seeded mid-run instant, truncates the device at its durable marks (torn
//! in-flight tails per the seeded fault model), replays the surviving WAL
//! over the newest decodable run, resumes a continued client fleet, and
//! hands the stitched history to the oracle. Ops in flight at the crash
//! stay pending — "may or may not have executed" — which is exactly their
//! semantics across a power loss; the oracle treats them as optional.
//!
//! Invariants per cell:
//!
//! * **durable-ack** — every mutation acked before the crash has a WAL
//!   record surviving the torn tail (the group-commit barrier's contract);
//! * **linearizable across the crash** — the combined history has a valid
//!   linearization against the initial fill;
//! * **progress** — both phases complete real work.
//!
//! Across the matrix at least one cell must observe a torn or truncated
//! tail (otherwise the fault model never bit), and the recovered run must
//! be byte-deterministic: same seed, same crash point → same combined
//! history digest.
//!
//! Seeds are overridable for deeper soaks:
//!
//! ```text
//! CRASH_SEEDS=1,2,3 cargo test --release --test crash_recovery
//! ```

mod common;

use utps::prelude::*;
use utps::sim::time::MICROS;

fn crash_seeds() -> Vec<u64> {
    std::env::var("CRASH_SEEDS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<u64>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![42, 7, 1234])
}

/// The chaos suite's acceptance plan: 1% receive drops plus one 50 µs core
/// stall, landed early enough to straddle the first crash point.
fn acceptance_faults() -> FaultConfig {
    FaultConfig {
        drop_prob: 0.01,
        stalls: vec![StallWindow {
            core: 2,
            at_ps: 900 * MICROS,
            dur_ps: 50 * MICROS,
        }],
        ..FaultConfig::default()
    }
}

fn crash_cfg(seed: u64, faults: FaultConfig) -> RunConfig {
    common::with_tier(RunConfig {
        keys: 20_000,
        workers: 4,
        n_cr: 2,
        clients: 8,
        pipeline: 4,
        warmup: 500 * MICROS,
        duration: 1_500 * MICROS,
        machine: MachineConfig::tiny(),
        hot_capacity: 500,
        seed,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        retry: RetryConfig::chaos_default(),
        faults,
        oracle: true,
        schedule: ScheduleMode::Explore(ScheduleConfig::explore(seed)),
        ..RunConfig::default()
    })
}

/// The two seeded crash points: one third and two thirds into the run —
/// the first lands amid warm cache + first compactions, the second amid
/// steady-state group commit under the stall's retransmit backlog.
fn crash_points(cfg: &RunConfig) -> [u64; 2] {
    [
        cfg.warmup + cfg.duration / 3,
        cfg.warmup + 2 * cfg.duration / 3,
    ]
}

fn check_cell(tag: &str, rep: &CrashReport) {
    assert!(
        rep.pre_completed > 100,
        "{tag}: pre-crash did little work ({})",
        rep.pre_completed
    );
    assert!(
        rep.post_completed > 100,
        "{tag}: recovery did little work ({})",
        rep.post_completed
    );
    assert!(
        rep.acked_preserved,
        "{tag}: durable-ack invariant violated — an acked mutation's WAL \
         record did not survive the crash ({} acked mutations)",
        rep.acked_mutations
    );
    assert!(rep.replayed > 0, "{tag}: recovery replayed no WAL records");
    assert!(rep.groups > 0, "{tag}: no commit groups survived");
    assert!(
        rep.oracle.ok(),
        "{tag}: combined pre-crash + post-recovery history is NOT \
         linearizable.\nviolations: {:#?}",
        rep.oracle.violations
    );
}

fn run_matrix(label: &str, runner: impl Fn(&RunConfig, u64) -> CrashReport) {
    let mut torn_anywhere = false;
    for seed in crash_seeds() {
        let cfg = crash_cfg(seed, acceptance_faults());
        for (i, crash_at) in crash_points(&cfg).into_iter().enumerate() {
            let tag = format!("{label}/seed{seed}/crash{i}");
            let rep = runner(&cfg, crash_at);
            check_cell(&tag, &rep);
            torn_anywhere |= rep.torn_segments > 0 || rep.wal_truncated;
        }
    }
    assert!(
        torn_anywhere,
        "{label}: no cell observed a torn or truncated tail — the device \
         fault model never engaged"
    );
}

#[test]
fn utps_crash_matrix_is_linearizable() {
    run_matrix("utps-h", run_crash::<Utps>);
}

#[test]
fn basekv_crash_matrix_is_linearizable() {
    run_matrix("basekv", run_crash::<BaseKv>);
}

#[test]
fn same_seed_crash_recovery_is_byte_identical() {
    // Same seed, same crash point, same fault plan: the crash image, the
    // recovery, and the resumed run must all reproduce byte for byte —
    // the combined history digest covers every op of both phases.
    let cfg = crash_cfg(42, acceptance_faults());
    let crash_at = crash_points(&cfg)[0];
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
        let a = runner(&cfg, crash_at);
        let b = runner(&cfg, crash_at);
        assert_eq!(
            a.combined_digest, b.combined_digest,
            "{label}: same-seed crash recovery diverged"
        );
        assert_eq!(
            a.pre_completed, b.pre_completed,
            "{label}: phase-1 diverged"
        );
        assert_eq!(
            a.post_completed, b.post_completed,
            "{label}: phase-2 diverged"
        );
        assert_eq!(a.replayed, b.replayed, "{label}: recovery diverged");
    }
}
