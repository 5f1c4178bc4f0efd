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
//! core, and §3.5 thread reassignment under the auto-tuner. One more pins
//! the durable tier's path: WAL group commit, hot-path acks held on the
//! durability barrier, eviction and cold reads.
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

#[test]
fn utps_t_tier_matches_golden() {
    // The durable tier with a DRAM limit below the 20 k keyspace and a
    // compaction pass every 100 µs: the compactor evicts within the window,
    // every ack waits on a device commit, and the run ends with commit
    // groups still in flight.
    let cfg = |seed| RunConfig {
        tier: Some(TierConfig {
            dram_items_max: 15_000,
            evict_batch: 256,
            compact_every_ps: 100 * MICROS,
            ..TierConfig::default()
        }),
        ..quick_cfg(IndexKind::Tree, QueueKind::AllToAll, seed)
    };
    check_with("utps_t_tier", SystemKind::Utps, cfg, |r| {
        let t = r.tier.as_ref().expect("no tier stats");
        assert!(t.compactions > 0, "the compactor never ran");
        assert!(t.evicted > 0, "nothing was evicted");
        assert!(
            t.last_applied > t.durable_seq,
            "no commit group was in flight at the end"
        );
    });
}

/// Known gap, pinned until it is fixed: `crmr.pushed` is the lanes' slot
/// sequence summed at the end of the run. The warm-up reset does not touch
/// it, so it counts warm-up pushes, and the shared queue has no lanes, so
/// it reads 0 there. `cr.forward` counts the window's descriptors.
#[test]
fn known_gap_crmr_pushed_counts_warm_up_and_misses_the_shared_queue() {
    for (queue_kind, pushed, forwarded) in [
        (QueueKind::AllToAll, 6_764, 4_359),
        (QueueKind::SharedMpmc, 0, 3_792),
    ] {
        let cfg = quick_cfg(IndexKind::Tree, queue_kind, 42);
        let r = run::run(SystemKind::Utps, &cfg);
        let snap = r.stage_metrics.as_ref().expect("every runner snapshots");
        assert_eq!(
            (snap.counter("crmr.pushed"), snap.counter("cr.forward")),
            (Some(pushed), Some(forwarded)),
            "{queue_kind:?}"
        );
    }
}
