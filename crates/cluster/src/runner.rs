//! Cluster run harness: N unmodified server pipelines, one simulation.
//!
//! Each shard gets its own simulated machine ([`Engine::add_machine`]) and
//! an unmodified per-shard world built by the system's own
//! [`System::build_world`]; the shard's processes are the exact
//! single-machine [`System::procs`] wrapped in [`ShardProc`]. Clients, the
//! migration/refresh controllers and the cluster tuner run host-side
//! (unpinned), exactly like the single-machine clients.
//!
//! **Spawn order** is the single-machine order per shard, then clients,
//! sampler, and finally the feature-gated controllers. On a
//! [trivial](ClusterConfig::is_trivial) one-shard config no controller is
//! spawned and no hook is installed on either side — the servers carry no
//! [`ShardCtl`] and the clients are unrouted [`ClientProc`]s — so the
//! processes are the single-machine ones by construction. What the N=1
//! transparency tests still guard against the single-machine goldens is
//! this file: its spawn, reset and fold order.

use utps_baselines::BaseKv;
use utps_collections::mix2;
use utps_core::client::{ClientProc, DriverState, SamplerProc};
use utps_core::experiment::{ClusterStats, RunConfig, RunResult, SystemKind, Utps};
use utps_core::shardctl::ShardCtl;
use utps_core::system::{ServerWorld, System};
use utps_sim::time::{SimTime, MICROS};
use utps_sim::{Counter, Engine, FaultPlan, Gauge, SchedulePlan, StatClass};

use std::cell::RefCell;
use std::rc::Rc;

use crate::client::SizeClassWorkload;
use crate::config::ClusterConfig;
use crate::migrate::{MigrationProc, RefreshProc};
use crate::router::RouterState;
use crate::world::{ClusterWorld, ShardProc, ShardWorld};

/// Replica refresh period.
const REFRESH_PS: u64 = 10 * MICROS;

/// Per-machine seed: machine 0 keeps the run seed (N=1 transparency);
/// further machines draw independent fault/schedule streams.
fn machine_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        seed
    } else {
        mix2(seed, shard as u64)
    }
}

/// Runs `system` as a cluster under `cfg`.
pub fn run_cluster(system: SystemKind, cfg: &ClusterConfig) -> RunResult {
    match system {
        SystemKind::Utps => run_cluster_system::<Utps>(cfg).0,
        SystemKind::BaseKv => run_cluster_system::<BaseKv>(cfg).0,
        other => panic!("cluster mode supports Utps and BaseKv, not {other:?}"),
    }
}

/// Builds the engine: machine 0 carries the run's own fault/schedule plans
/// (exactly like `PipelineRuntime`), machines 1.. carry derived streams.
fn build_engine<S: ShardWorld>(
    cfg: &ClusterConfig,
    cores: usize,
    world: ClusterWorld<S>,
) -> Engine<ClusterWorld<S>> {
    let base = &cfg.base;
    let mut eng = Engine::new(base.machine.clone(), cores, world);
    for s in 0..cfg.total_shards() {
        if s > 0 {
            eng.add_machine(base.machine.clone(), cores);
        }
        let seed = machine_seed(base.seed, s);
        let m = eng.machine_mut(s);
        m.faults = FaultPlan::new(base.faults.clone(), seed);
        m.schedule = SchedulePlan::from_mode(base.schedule.clone(), seed);
    }
    eng
}

/// Spawns clients, sampler and the feature-gated controllers.
fn spawn_drivers<S: ShardWorld>(cfg: &ClusterConfig, eng: &mut Engine<ClusterWorld<S>>) {
    let base = &cfg.base;
    if base.record_history || base.oracle {
        eng.world.driver.enable_history();
    }
    for c in 0..base.clients {
        let mut wl = base.workload.build(base.keys, base.seed, c as u64);
        if cfg.large_keys > 0 {
            wl = Box::new(SizeClassWorkload::new(
                wl,
                base.keys,
                cfg.large_keys,
                cfg.large_value_len,
            ));
        }
        let mut client = ClientProc::with_retry(c as u32, wl, base.pipeline, base.retry.clone());
        if !cfg.is_trivial() {
            client = client.routed(eng.world.router.clone());
        }
        eng.spawn(None, StatClass::Other, Box::new(client));
    }
    if base.timeline_interval > 0 {
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(SamplerProc::new(
                base.timeline_interval,
                |w: &mut ClusterWorld<S>| &mut w.driver,
            )),
        );
    }
    if !cfg.migrations.is_empty() {
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(MigrationProc::new(
                cfg.migrations.clone(),
                cfg.link.clone(),
                base.machine.net.clone(),
                base.seed,
            )),
        );
    }
    if !cfg.replicate_keys.is_empty() {
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(RefreshProc::new(REFRESH_PS, base.machine.net.clone())),
        );
    }
}

/// Folds the router's measured-window tallies into machine 0's registry
/// (the `Counter::Cluster*` and `Gauge::Latency*` instruments) and builds
/// the [`ClusterStats`] section. `cluster.moved_bounce` is *not* folded: the
/// per-shard servers already count their own bounces in their registries;
/// the global number lives in the returned stats.
fn cluster_stats<S: ShardWorld>(
    cfg: &ClusterConfig,
    eng: &mut Engine<ClusterWorld<S>>,
) -> ClusterStats {
    let router = eng.world.router.borrow();
    let t = router.tallies.clone();
    let stats = ClusterStats {
        shards: cfg.total_shards(),
        migrations: t.migrations,
        migrated_slots: t.migrated_slots,
        migrated_items: t.migrated_items,
        moved_bounces: t.moved_bounces,
        replica_reads: t.replica_reads,
        replica_refreshes: t.replica_refreshes,
        routed_small: t.routed_small,
        routed_large: t.routed_large,
        p99_small_ns: router.class_hist[0].percentile(99.0),
        p999_small_ns: router.class_hist[0].percentile(99.9),
        p99_large_ns: router.class_hist[1].percentile(99.0),
        p999_large_ns: router.class_hist[1].percentile(99.9),
    };
    drop(router);
    let reg = &mut eng.machine().registry;
    reg.add(Counter::ClusterMovedBounce, 0); // pinned; servers count it live
    reg.add(Counter::ClusterMigrations, stats.migrations);
    reg.add(Counter::ClusterMigratedSlots, stats.migrated_slots);
    reg.add(Counter::ClusterMigratedItems, stats.migrated_items);
    reg.add(Counter::ClusterReplicaRead, stats.replica_reads);
    reg.add(Counter::ClusterReplicaRefresh, stats.replica_refreshes);
    reg.add(Counter::ClusterRoutedSmall, stats.routed_small);
    reg.add(Counter::ClusterRoutedLarge, stats.routed_large);
    reg.set(Gauge::ClusterShards, stats.shards as u64);
    reg.set(Gauge::LatencyP99Small, stats.p99_small_ns);
    reg.set(Gauge::LatencyP999Small, stats.p999_small_ns);
    reg.set(Gauge::LatencyP99Large, stats.p99_large_ns);
    reg.set(Gauge::LatencyP999Large, stats.p999_large_ns);
    stats
}

/// Runs system `S` as a cluster under `cfg`: every shard is `S`'s
/// unmodified single-machine world and processes on a machine of its own.
/// Also returns the final per-shard worlds.
pub fn run_cluster_system<S: System>(cfg: &ClusterConfig) -> (RunResult, Vec<S::World>)
where
    S::World: ShardWorld,
{
    cfg.validate();
    let base = &cfg.base;
    let total = cfg.total_shards();
    let trivial = cfg.is_trivial();
    let router = Rc::new(RefCell::new(RouterState::new(
        cfg.topology(),
        &cfg.replicate_keys,
    )));

    // Every store is fully populated (identical layout to a single-machine
    // run); ownership is enforced purely by admission, and migrations
    // overwrite values in place. Shard `s` seeds its tier/device streams
    // like its fault and schedule plans.
    let shards = (0..total)
        .map(|s| {
            let mut world = S::build_world(&RunConfig {
                seed: machine_seed(base.seed, s),
                ..base.clone()
            });
            if !trivial {
                *world.parts().cluster = Some(ShardCtl {
                    shard: s,
                    hooks: router.clone(),
                });
            }
            world
        })
        .collect();
    let world = ClusterWorld {
        shards,
        router,
        driver: DriverState::new(base.clients, SimTime(base.warmup)),
    };

    let mut eng = build_engine(cfg, S::cores(base), world);
    for s in 0..total {
        S::prepare_machine(base, eng.machine_mut(s));
        for (core, class, proc) in S::procs(base, &eng.world.shards[s]) {
            eng.spawn_on(s, core, class, Box::new(ShardProc::new(s, proc)));
        }
    }
    spawn_drivers(cfg, &mut eng);
    if cfg.cluster_tuner {
        let interval = (base.warmup / 2).max(500 * MICROS);
        if let Some(tuner) = S::World::cluster_tuner(interval, total) {
            eng.spawn(None, StatClass::Other, tuner);
        }
    }

    // Warmup → per-shard reset → measured window.
    eng.run_until(SimTime(base.warmup));
    for s in 0..total {
        let (world, machine) = eng.world_and_machine(s);
        machine.cache.metrics.reset();
        S::reset(&mut world.shards[s], machine);
    }
    if !trivial {
        eng.world.router.borrow_mut().reset_stats();
    }
    eng.run_until(SimTime(base.warmup + base.duration));

    // Fold each shard's world counters into its machine's registry,
    // snapshot machine 0, aggregate the cluster-wide numbers.
    for s in 0..total {
        let (world, machine) = eng.world_and_machine(s);
        S::fold(&world.shards[s], &mut machine.registry);
    }
    let cluster = (!trivial).then(|| cluster_stats(cfg, &mut eng));
    let mut r = RunResult::new(base, &mut eng, |w| &w.driver);
    S::overlay(&eng.world.shards.iter().collect::<Vec<_>>(), &mut r);
    r.cluster = cluster;
    (r, eng.world.shards)
}
