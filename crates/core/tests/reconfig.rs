//! The §3.5 thread-reassignment protocol, driven directly under load:
//! every direction (grow CR, shrink CR), back to back, must complete without
//! losing requests or stalling the pipeline.

use utps_core::crmr::QueueKind;
use utps_core::experiment::{build_utps_world, RunConfig};
use utps_core::server::{Reconfig, UtpsWorld};
use utps_core::system::assemble;
use utps_core::Utps;
use utps_sim::time::{SimTime, MILLIS};
use utps_sim::Engine;

fn build_engine(workers: usize, n_cr: usize, queue_kind: QueueKind) -> Engine<UtpsWorld> {
    let cfg = RunConfig {
        keys: 100_000,
        workers,
        n_cr,
        clients: 24,
        pipeline: 8,
        queue_kind,
        // The default workload: YCSB-A, θ = 0.99, 64 B values.
        ..RunConfig::default()
    };
    let mut rt = assemble::<Utps>(&cfg, build_utps_world(&cfg));
    rt.spawn_clients(&cfg);
    rt.into_engine()
}

/// Grows CR, shrinks it, grows it again and returns, all under continuous
/// load on a `kind` CR-MR queue.
fn reassign_back_to_back(kind: QueueKind) {
    let mut eng = build_engine(16, 6, kind);
    eng.run_until(SimTime(2 * MILLIS));
    let mut last_total = eng.world.driver.completed_total();
    for (i, &new_n_cr) in [9usize, 4, 11, 6].iter().enumerate() {
        let head = eng.world.ring.head();
        eng.world.reconfig = Some(Reconfig {
            new_n_cr,
            switch_seq: head + 32,
            adopted: vec![false; 16],
        });
        // As `UtpsWorld::request_split` does: parked workers poll next.
        eng.world.fabric.wake_servers();
        eng.world.crmr.wake_consumers();
        eng.run_until(SimTime((4 + 2 * i as u64) * MILLIS));
        assert!(
            eng.world.reconfig.is_none(),
            "reassignment to n_cr={new_n_cr} did not complete"
        );
        assert_eq!(eng.world.cfg.n_cr, new_n_cr);
        let total = eng.world.driver.completed_total();
        let ops = total.since(last_total);
        assert!(
            ops > 500,
            "throughput collapsed during reassignment to {new_n_cr}: {ops} ops"
        );
        last_total = total;
    }
    assert_eq!(eng.world.reconfig_events.len(), 4);
}

#[test]
fn back_to_back_reassignments_complete_under_load() {
    reassign_back_to_back(QueueKind::AllToAll);
}

#[test]
fn shared_queue_reassignments_complete_under_load() {
    // A shrinking CR layer's leaving workers must still receive the
    // completions of what they pushed, or they never drain.
    reassign_back_to_back(QueueKind::SharedMpmc);
}

#[test]
fn owner_mapping_switches_at_the_announced_slot() {
    let mut eng = build_engine(8, 3, QueueKind::AllToAll);
    eng.run_until(SimTime(MILLIS));
    let switch_seq = eng.world.ring.head() + 100;
    eng.world.reconfig = Some(Reconfig {
        new_n_cr: 5,
        switch_seq,
        adopted: vec![false; 8],
    });
    eng.world.fabric.wake_servers();
    eng.world.crmr.wake_consumers();
    // Before the switch slot: old modulo; at/after: new modulo.
    assert_eq!(
        eng.world.owner_of(switch_seq - 1),
        ((switch_seq - 1) % 3) as usize
    );
    assert_eq!(eng.world.owner_of(switch_seq), (switch_seq % 5) as usize);
    assert_eq!(
        eng.world.owner_of(switch_seq + 7),
        ((switch_seq + 7) % 5) as usize
    );
    // While both CR ranges might hold unswitched workers, descriptors only
    // target the intersection of old and new MR sets.
    assert_eq!(eng.world.mr_lo(), 5);
    eng.run_until(SimTime(3 * MILLIS));
    assert!(eng.world.reconfig.is_none(), "reassignment stuck");
    assert_eq!(eng.world.mr_lo(), 5);
}
