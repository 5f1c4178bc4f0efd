//! The cluster world: N per-shard server worlds behind one shared router.
//!
//! The engine hosts one [`ClusterWorld`] whose `shards` vector holds an
//! unmodified per-shard world (μTPS's `UtpsWorld` or BaseKV's `BaseWorld`)
//! per server machine. Per-shard processes (workers, managers) are wrapped
//! in [`ShardProc`], which projects the cluster world down to the shard's
//! own world — the shard pipelines run exactly the code they run
//! single-machine, on their own simulated machine (see
//! `utps_sim::Engine::add_machine`).

use utps_core::client::{DriverState, KvWorld};
use utps_core::msg::NetMsg;
use utps_core::system::ServerWorld;
use utps_sim::nic::Fabric;
use utps_sim::{Ctx, Process, StepOutcome};

use std::cell::RefCell;
use std::rc::Rc;

use crate::router::RouterState;
use crate::tuner::ClusterTunerProc;

/// A per-shard server world. The cluster controllers reach its store,
/// dedup table and admission hooks through [`ServerWorld::parts`]; the one
/// thing only the cluster layer asks of it is its cluster-level tuner.
pub trait ShardWorld: ServerWorld + Sized {
    /// The process rebalancing threads across `shards` machines every
    /// `interval` ps, for systems that have threads to rebalance.
    fn cluster_tuner(
        _interval: u64,
        _shards: usize,
    ) -> Option<Box<dyn Process<ClusterWorld<Self>>>> {
        None
    }
}

impl ShardWorld for utps_core::server::UtpsWorld {
    fn cluster_tuner(interval: u64, shards: usize) -> Option<Box<dyn Process<ClusterWorld<Self>>>> {
        Some(Box::new(ClusterTunerProc::new(interval, shards)))
    }
}

/// BaseKV has no CR/MR split to rebalance.
impl ShardWorld for utps_baselines::basekv::BaseWorld {}

/// The engine world of a cluster run.
pub struct ClusterWorld<S> {
    /// Per-shard server worlds, indexed by shard id (= machine id).
    pub shards: Vec<S>,
    /// Shared routing/ownership state (also behind every shard's hooks).
    pub router: Rc<RefCell<RouterState>>,
    /// Cluster-level measurement state; the per-shard worlds' own driver
    /// fields stay empty (their tuners run in `Off` mode and never read it).
    pub driver: DriverState,
}

/// What the clients see: one driver, one fabric per shard.
impl<S: ShardWorld> KvWorld for ClusterWorld<S> {
    fn fabric_mut(&mut self) -> &mut Fabric<NetMsg> {
        self.fabric_at(0)
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.driver
    }

    fn fabric_at(&mut self, shard: usize) -> &mut Fabric<NetMsg> {
        self.shards[shard].fabric_mut()
    }
}

/// Adapter running a per-shard process against the cluster world by
/// projecting out its shard. Pure projection: all costs are charged by the
/// inner process through the same `ctx`, so a wrapped worker is
/// byte-identical to the same worker running single-machine.
pub struct ShardProc<S> {
    shard: usize,
    inner: Box<dyn Process<S>>,
}

impl<S> ShardProc<S> {
    /// Wraps `inner` to run against shard `shard`.
    pub fn new(shard: usize, inner: Box<dyn Process<S>>) -> Self {
        ShardProc { shard, inner }
    }
}

impl<S: 'static> Process<ClusterWorld<S>> for ShardProc<S> {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ClusterWorld<S>) -> StepOutcome {
        self.inner.step(ctx, &mut world.shards[self.shard])
    }

    fn skipped_polls(&mut self, ctx: &mut Ctx<'_>, world: &mut ClusterWorld<S>, n: u64) {
        self.inner
            .skipped_polls(ctx, &mut world.shards[self.shard], n);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
