//! Deterministic step-budget guard: waiting clients are parked, not polled.
//!
//! A closed-loop client with its pipeline full and nothing in flight toward
//! it used to be stepped every poll quantum; since `Ctx::park` it owns no
//! scheduler key until `Fabric::server_send` wakes it. Engine steps per
//! completed op is an exact per-seed count, so the budget below cannot
//! flake: it is the measured value + 25 %, and the polling client exceeded
//! it 3.5-fold (178.53 steps/op on this configuration).

use utps::core::experiment::build_utps_world;
use utps::core::system::assemble;
use utps::prelude::*;
use utps::sim::time::MICROS;

/// Measured: 39.80 steps per completed op (631 580 / 15 867).
const STEPS_PER_OP_BUDGET: f64 = 39.80 * 1.25;

#[test]
fn parked_clients_keep_utps_t_within_its_step_budget() {
    // A tiny μTPS-T run assembled phase by phase, the way the benchmark's
    // `sut.rs` assembles its cells at full size, with enough outstanding
    // requests (24 × 16) to keep the four workers busy, so that what the
    // count measures is the clients' waiting and not the workers' idling.
    // Retries are off (the default): a retrying client keeps polling its
    // own deadlines.
    let cfg = RunConfig {
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
    };
    assert!(!cfg.retry.enabled());
    let mut rt = assemble::<Utps>(&cfg, build_utps_world(&cfg));
    rt.spawn_clients(&cfg);
    rt.run(|_| {});
    let eng = rt.into_engine();
    let steps = eng.steps();
    let completed = eng.world.driver.completed_total();
    assert!(completed > 1_000, "only {completed} ops completed");
    let per_op = steps as f64 / completed as f64;
    assert!(
        per_op < STEPS_PER_OP_BUDGET,
        "{per_op:.2} engine steps per completed op ({steps} / {completed}); \
         budget {STEPS_PER_OP_BUDGET:.2} — is a waiting client polling again?"
    );
}
