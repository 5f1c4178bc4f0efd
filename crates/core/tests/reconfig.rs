//! The §3.5 thread-reassignment protocol, driven directly under load:
//! every direction (grow CR, shrink CR), back to back, must complete without
//! losing requests or stalling the pipeline.

use utps_core::client::{ClientProc, DriverState};
use utps_core::crmr::{CrMrQueue, QueueKind};
use utps_core::experiment::{RunConfig, WorkloadSpec};
use utps_core::hotcache::HotCache;
use utps_core::rpc::{RecvRing, RespBuffers};
use utps_core::server::{Reconfig, ServerConfig, UtpsWorker, UtpsWorld};
use utps_core::store::KvStore;
use utps_core::tuner::{ManagerProc, Tuner, TunerMode, TunerParams};
use utps_index::IndexKind;
use utps_sim::time::{SimTime, MILLIS};
use utps_sim::{Engine, StatClass};
use utps_workload::Mix;

fn build_engine(workers: usize, n_cr: usize, kind: QueueKind) -> (Engine<UtpsWorld>, RunConfig) {
    let cfg = RunConfig {
        index: IndexKind::Tree,
        keys: 100_000,
        workers,
        n_cr,
        clients: 24,
        pipeline: 8,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 50,
        },
        ..RunConfig::default()
    };
    let server_cfg = ServerConfig {
        workers: cfg.workers,
        n_cr: cfg.n_cr,
        batch: cfg.batch,
        sample_every: cfg.sample_every,
        cache_enabled: true,
        lease_ps: 0,
    };
    let world = UtpsWorld {
        fabric: utps_sim::Fabric::new(cfg.machine.net.clone(), cfg.clients),
        ring: RecvRing::new(cfg.ring_slots, cfg.slot_size),
        resp: RespBuffers::new(cfg.workers, 64, 1152),
        store: KvStore::populate(cfg.index, cfg.keys, 64),
        crmr: CrMrQueue::with_kind(cfg.workers, 256, kind),
        hot: HotCache::new(2_000),
        cfg: server_cfg.clone(),
        reconfig: None,
        samples: (0..cfg.workers).map(|_| Default::default()).collect(),
        scan_skips: Default::default(),
        stats: Default::default(),
        driver: DriverState::new(cfg.clients, SimTime(MILLIS)),
        mr_ways: 0,
        tuner_trace: Vec::new(),
        tuner_probes: Vec::new(),
        dedup: utps_core::retry::DedupTable::new(cfg.clients, false),
        cluster: None,
        tier: None,
    };
    let mut eng = Engine::new(cfg.machine.clone(), cfg.workers + 1, world);
    for id in 0..cfg.workers {
        let class = if id < cfg.n_cr {
            StatClass::Cr
        } else {
            StatClass::Mr
        };
        eng.spawn(Some(id), class, Box::new(UtpsWorker::new(id, &server_cfg)));
    }
    eng.spawn(
        Some(cfg.workers),
        StatClass::Other,
        Box::new(ManagerProc::new(
            Tuner::new(TunerMode::Off, TunerParams::default()),
            MILLIS,
            2_000,
        )),
    );
    for c in 0..cfg.clients {
        let wl = cfg.workload.build(cfg.keys, cfg.seed, c as u64);
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(ClientProc::new(c as u32, wl, cfg.pipeline)),
        );
    }
    (eng, cfg)
}

/// Grows CR, shrinks it, grows it again and returns, all under continuous
/// load on a `kind` CR-MR queue.
fn reassign_back_to_back(kind: QueueKind) {
    let (mut eng, _cfg) = build_engine(16, 6, kind);
    eng.run_until(SimTime(2 * MILLIS));
    let mut last_total = eng.world.driver.completed_total();
    for (i, &new_n_cr) in [9usize, 4, 11, 6].iter().enumerate() {
        let head = eng.world.ring.head();
        eng.world.reconfig = Some(Reconfig {
            new_n_cr,
            switch_seq: head + 32,
            adopted: vec![false; 16],
        });
        eng.run_until(SimTime((4 + 2 * i as u64) * MILLIS));
        assert!(
            eng.world.reconfig.is_none(),
            "reassignment to n_cr={new_n_cr} did not complete"
        );
        assert_eq!(eng.world.cfg.n_cr, new_n_cr);
        let total = eng.world.driver.completed_total();
        assert!(
            total > last_total + 500,
            "throughput collapsed during reassignment to {new_n_cr}: {} ops",
            total - last_total
        );
        last_total = total;
    }
    assert_eq!(eng.world.stats.reconfig_events.len(), 4);
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
    let (mut eng, _) = build_engine(8, 3, QueueKind::AllToAll);
    eng.run_until(SimTime(MILLIS));
    let switch_seq = eng.world.ring.head() + 100;
    eng.world.reconfig = Some(Reconfig {
        new_n_cr: 5,
        switch_seq,
        adopted: vec![false; 8],
    });
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
