//! Same-seed byte-identity goldens across the stage-engine refactor.
//!
//! The stage engine and arena-backed payloads are pure restructurings: no
//! charged cost, counter, ordering or RNG draw may change. These goldens
//! were generated from the pre-refactor runners; every post-refactor run
//! must reproduce the full `stats_json` document byte for byte, for all
//! four systems, on three seeds. The μTPS-T runs are pinned twice: once on
//! the all-to-all CR-MR lanes and once on the §3.4 shared-queue
//! counterfactual.
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
    for seed in [42u64, 7, 1234] {
        let cfg = quick_cfg(index, queue_kind, seed);
        let got = stats_json(&run::run(system, &cfg)) + "\n";
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
fn utps_t_shared_queue_matches_golden() {
    check(
        "utps_t_shared",
        SystemKind::Utps,
        IndexKind::Tree,
        QueueKind::SharedMpmc,
    );
}
