//! Deterministic step-budget guards: waiting clients and quiet CR and MR
//! workers are parked, not polled.
//!
//! A closed-loop client with its pipeline full and nothing in flight toward
//! it used to be stepped every poll quantum; since `Ctx::park` it owns no
//! scheduler key until `Fabric::server_send` wakes it. A CR worker whose
//! receive/completion poll would repeat exactly parks on its poll grid
//! (`Ctx::park_on_grid`) until an arrival, a completion, its core's cache
//! token, a commit or the seal that puts the first commit group in flight
//! wakes it; an MR worker whose lane scan found every lane empty parks the
//! same way until a push into one of its lanes, its core's cache token or
//! a split request wakes it. Engine steps per completed op is an exact
//! per-seed count, so the budgets below cannot flake: each is the measured
//! value + 25 %. Polling clients and workers exceeded the first 35-fold
//! (178.53 steps/op) and the second 60-fold (416.10); with idle MR scans
//! stepped, the first read 23.58.

mod common;

use utps::core::experiment::build_utps_world;
use utps::core::system::assemble;
use utps::prelude::*;
use utps::sim::time::MICROS;

/// Measured: 4.08 steps per completed op (64 707 / 15 867) with quiet MR
/// workers parked; stepping their idle scans took 23.58 (374 184 / 15 867).
const STEPS_PER_OP_BUDGET: f64 = 4.08 * 1.25;

/// Measured: 5.56 engine steps per completed op (32 065 / 5 768) with
/// quiet CR and MR workers parked on their poll grid and the first commit
/// group's seal announced to them. With CR workers holding acks kept awake
/// until a group was in flight it took 23.46 (135 343 / 5 768); polling the
/// CR workers took 416.10 (2 400 088 / 5 768 — the same ops, 75× the steps).
const TIER_STEPS_PER_OP_BUDGET: f64 = 5.56 * 1.25;

/// A tiny μTPS-T run with enough outstanding requests (24 × 16) to keep the
/// four workers busy, so that what the count measures is the clients'
/// waiting and not the workers' idling. Retries are off (the default): a
/// retrying client keeps polling its own deadlines.
fn budget_cfg() -> RunConfig {
    RunConfig {
        index: IndexKind::Tree,
        keys: 20_000,
        workers: 4,
        n_cr: 2,
        clients: 24,
        pipeline: 16,
        warmup: 500 * MICROS,
        duration: 1_500 * MICROS,
        machine: MachineConfig::tiny(),
        hot_capacity: 500,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        ..RunConfig::default()
    }
}

/// Runs `cfg` assembled phase by phase, the way the benchmark's `sut.rs`
/// assembles its cells at full size, and returns its engine steps per
/// completed op with the two counts it divides.
fn steps_per_op(cfg: &RunConfig) -> (f64, String) {
    let mut rt = assemble::<Utps>(cfg, build_utps_world(cfg));
    rt.spawn_clients(cfg);
    rt.run(|_| {});
    let eng = rt.into_engine();
    let steps = eng.steps();
    let completed = eng.world.driver.completed_total().get();
    assert!(completed > 1_000, "only {completed} ops completed");
    (
        steps as f64 / completed as f64,
        format!("{steps} / {completed}"),
    )
}

#[test]
fn parked_clients_keep_utps_t_within_its_step_budget() {
    let cfg = budget_cfg();
    assert!(!cfg.retry.enabled());
    let (per_op, counts) = steps_per_op(&cfg);
    assert!(
        per_op < STEPS_PER_OP_BUDGET,
        "{per_op:.2} engine steps per completed op ({counts}); \
         budget {STEPS_PER_OP_BUDGET:.2} — is a waiting client or a quiet MR \
         worker polling again?"
    );
}

#[test]
fn parked_cr_workers_keep_utps_t_tier_within_its_step_budget() {
    // The same assembly with the durable tier on: every ack waits on a
    // device commit, so CR workers spend most of the run polling completion
    // words and the durability barrier.
    let (per_op, counts) = steps_per_op(&common::with_tier(budget_cfg()));
    assert!(
        per_op < TIER_STEPS_PER_OP_BUDGET,
        "{per_op:.2} engine steps per completed op ({counts}); \
         budget {TIER_STEPS_PER_OP_BUDGET:.2} — is a quiet CR worker polling again?"
    );
}
