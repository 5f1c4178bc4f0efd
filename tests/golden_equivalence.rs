//! Same-seed byte-identity goldens across the stage-engine refactor.
//!
//! The stage engine and arena-backed payloads are pure restructurings: no
//! charged cost, counter, ordering or RNG draw may change. These goldens
//! were generated from the pre-refactor runners; every post-refactor run
//! must reproduce the full `stats_json` document byte for byte, for all
//! five systems, on three seeds. The μTPS-T runs are pinned twice: once on
//! the all-to-all CR-MR lanes and once on the §3.4 shared-queue
//! counterfactual. Two more μTPS-T pins cover the CR-MR paths an untuned,
//! fault-free run never takes: descriptor-lease reclaim behind a stalled MR
//! core, and §3.5 thread reassignment under the auto-tuner.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden_equivalence
//! ```

use utps::prelude::*;
use utps::sim::time::MICROS;
use utps_core::crmr::QueueKind;
use utps_core::experiment::stats_json;
use utps_core::tuner::{TunerMode, TunerParams};
use utps_index::IndexKind;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn quick_cfg(index: IndexKind, queue_kind: QueueKind, seed: u64) -> RunConfig {
    RunConfig {
        index,
        queue_kind,
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
        seed,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        retry: RetryConfig::chaos_default(),
        ..RunConfig::default()
    }
}

fn check(label: &str, system: SystemKind, index: IndexKind, queue_kind: QueueKind) {
    check_with(
        label,
        system,
        |seed| quick_cfg(index, queue_kind, seed),
        |_| {},
    );
}

/// Pins `stats_json` of `system` on the config `cfg(seed)` for each seed;
/// `exercised` asserts the run took the path the golden is meant to cover.
fn check_with(
    label: &str,
    system: SystemKind,
    cfg: impl Fn(u64) -> RunConfig,
    exercised: impl Fn(&RunResult),
) {
    for seed in [42u64, 7, 1234] {
        let cfg = cfg(seed);
        let r = run::run(system, &cfg);
        exercised(&r);
        let got = stats_json(&r) + "\n";
        let path = format!("{GOLDEN_DIR}/equiv_{label}_{seed}.json");
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(&path, &got).expect("cannot write golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
        assert_eq!(
            got, want,
            "{label} seed {seed}: stats_json diverged from the pre-refactor \
             golden; the refactor changed simulated behavior"
        );
    }
}

#[test]
fn utps_h_matches_prerefactor_golden() {
    check(
        "utps_h",
        SystemKind::Utps,
        IndexKind::Hash,
        QueueKind::AllToAll,
    );
}

#[test]
fn utps_t_matches_prerefactor_golden() {
    check(
        "utps_t",
        SystemKind::Utps,
        IndexKind::Tree,
        QueueKind::AllToAll,
    );
}

#[test]
fn basekv_matches_prerefactor_golden() {
    check(
        "basekv",
        SystemKind::BaseKv,
        IndexKind::Tree,
        QueueKind::AllToAll,
    );
}

#[test]
fn erpckv_matches_prerefactor_golden() {
    check(
        "erpckv",
        SystemKind::ErpcKv,
        IndexKind::Tree,
        QueueKind::AllToAll,
    );
}

#[test]
fn racehash_matches_golden() {
    check(
        "racehash",
        SystemKind::RaceHash,
        IndexKind::Hash,
        QueueKind::AllToAll,
    );
}

#[test]
fn sherman_matches_golden() {
    check(
        "sherman",
        SystemKind::Sherman,
        IndexKind::Tree,
        QueueKind::AllToAll,
    );
}

#[test]
fn utps_t_shared_queue_matches_golden() {
    check(
        "utps_t_shared",
        SystemKind::Utps,
        IndexKind::Tree,
        QueueKind::SharedMpmc,
    );
}

#[test]
fn utps_t_lease_matches_golden() {
    // Leases armed and MR core 3 stalled mid-measurement: the CR layer
    // revokes the stalled lane's unpopped backlog and re-spreads it.
    let cfg = |seed| RunConfig {
        lease_ps: 100 * MICROS,
        faults: FaultConfig {
            stalls: vec![StallWindow {
                core: 3,
                at_ps: 800 * MICROS,
                dur_ps: 400 * MICROS,
            }],
            ..FaultConfig::default()
        },
        ..quick_cfg(IndexKind::Tree, QueueKind::AllToAll, seed)
    };
    check_with("utps_t_lease", SystemKind::Utps, cfg, |r| {
        let snap = r.stage_metrics.as_ref().expect("no stage metrics");
        assert!(snap.counter("crmr.lease_reclaim").unwrap_or(0) > 0);
    });
}

#[test]
fn utps_t_tuned_matches_golden() {
    // A hair-trigger auto-tuner: the trisection search moves the CR/MR
    // split back and forth, so workers switch roles mid-run.
    let cfg = |seed| RunConfig {
        tuner: TunerMode::Auto,
        tuner_params: TunerParams {
            window: 200 * MICROS,
            settle: 100 * MICROS,
            trigger: 0.0,
            trigger_windows: 1,
            cache_step: 1_000,
        },
        duration: 6_000 * MICROS,
        ..quick_cfg(IndexKind::Tree, QueueKind::AllToAll, seed)
    };
    check_with("utps_t_tuned", SystemKind::Utps, cfg, |r| {
        assert!(r.reconfigs > 0, "the tuner never reassigned a thread");
    });
}
