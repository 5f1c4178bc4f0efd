//! One way to assemble a run: the [`System`] trait and the runners on it.
//!
//! The five systems differ in their thread model and nothing else, so
//! everything a runner needs from a system is a handful of hooks — how many
//! cores, how to build the world, which processes and clients to spawn in
//! which order, and how to read the result out. The runners themselves
//! exist once, on top of [`PipelineRuntime`]:
//!
//! | runner | hooks, in call order |
//! |---|---|
//! | [`run_system`] | `build_world` · `cores` · `prepare_machine` · `procs` · `spawn_clients` · `fold` · `driver` · `overlay` |
//! | [`crate::crash::run_crash`] | the same up to `spawn_clients` (pre-crash); then `build_world` · `cores` · `prepare_machine` · `procs` and a continued fleet through `PipelineRuntime::spawn_clients_with` (recovered) |
//! | `utps_cluster::run_cluster_system` | per shard: `build_world` · `prepare_machine` · `procs` (wrapped in `ShardProc`) · `fold`; then `overlay` over all shards |
//!
//! All three build, spawn clients and warm up through [`PipelineRuntime`].
//! Every event is counted once, where it happens, in the machine's
//! registry, so one warmup reset (`Engine::reset_counters`, inside
//! [`PipelineRuntime::run`]) serves all.
//! `prepare_machine`, `fold` and `overlay` default to doing nothing. The
//! crash and cluster runners also need a [`ServerWorld`]: μTPS and BaseKV
//! have one; eRPCKV, RaceHash and Sherman run on `run_system` only.

use utps_sim::{Engine, Machine, MetricsRegistry, Process, StatClass};

use crate::client::{DriverState, KvWorld};
use crate::experiment::{RunConfig, RunResult};
use crate::hotcache::HotCache;
use crate::retry::DedupTable;
use crate::shardctl::ShardCtl;
use crate::stage::PipelineRuntime;
use crate::store::KvStore;
use crate::tier::TierState;

/// Mutable views of the state every server world carries, whatever its
/// thread model — what the compactor, the crash runner and the cluster
/// controllers operate on.
pub struct ServerParts<'a> {
    /// Index + items.
    pub store: &'a mut KvStore,
    /// Exactly-once filter for retransmitted writes.
    pub dedup: &'a mut DedupTable,
    /// Durable tier (`None` = DRAM-only).
    pub tier: &'a mut Option<TierState>,
    /// CR-layer hot cache, for worlds that have one (its keys must stay in
    /// the DRAM index).
    pub hot: Option<&'a mut HotCache>,
    /// Cluster admission hooks (`None` = single machine).
    pub cluster: &'a mut Option<ShardCtl>,
}

/// A server world: client-facing [`KvWorld`] plus the shared server state.
pub trait ServerWorld: KvWorld + 'static {
    /// Splits the world into its shared server state.
    fn parts(&mut self) -> ServerParts<'_>;
}

/// A server process with its pinned core (`None`: unmodeled CPU, such as
/// an RNIC) and stat class.
pub type Proc<W> = (Option<usize>, StatClass, Box<dyn Process<W>>);

/// What the shared runners need from a system.
pub trait System {
    /// The server world the system's processes run against.
    type World: 'static;

    /// Server cores per machine.
    fn cores(cfg: &RunConfig) -> usize;

    /// A fresh world for `cfg` (populated store, tier from config).
    fn build_world(cfg: &RunConfig) -> Self::World;

    /// Static machine set-up before any process runs (CLOS masks).
    fn prepare_machine(_cfg: &RunConfig, _machine: &mut Machine) {}

    /// The server processes, in canonical spawn order.
    fn procs(cfg: &RunConfig, world: &Self::World) -> Vec<Proc<Self::World>>;

    /// Spawns the client fleet, after the server processes.
    fn spawn_clients(rt: &mut PipelineRuntime<Self::World>, cfg: &RunConfig);

    /// The client-side driver state the headline numbers come from.
    fn driver(world: &Self::World) -> &DriverState;

    /// Completes the machine's registry at the end of the run: zero pins
    /// for keys whose event may never fire, and end-of-run levels (queue
    /// totals, configuration gauges, tier sizes).
    fn fold(_world: &Self::World, _reg: &mut MetricsRegistry) {}

    /// Patches the system-specific [`RunResult`] fields. `worlds` holds
    /// one world per machine; per-machine fields report machine 0.
    fn overlay(_worlds: &[&Self::World], _r: &mut RunResult) {}
}

/// Prepares machine 0 and spawns the system's server processes on it.
pub fn spawn_procs<S: System>(rt: &mut PipelineRuntime<S::World>, cfg: &RunConfig) {
    S::prepare_machine(cfg, rt.machine());
    for (core, class, proc) in S::procs(cfg, &rt.engine().world) {
        rt.spawn_process(core, class, proc);
    }
}

/// Builds the [`RunResult`] from a finished single-machine engine.
pub fn extract<S: System>(cfg: &RunConfig, eng: &mut Engine<S::World>) -> RunResult {
    let (world, machine) = eng.world_and_machine(0);
    S::fold(world, &mut machine.registry);
    let mut r = RunResult::new(cfg, eng, |w| S::driver(w));
    S::overlay(&[&eng.world], &mut r);
    r
}

/// A runtime around `world` with the system's server processes spawned.
pub fn assemble<S: System>(cfg: &RunConfig, world: S::World) -> PipelineRuntime<S::World> {
    let mut rt = PipelineRuntime::new(cfg, S::cores(cfg), world);
    spawn_procs::<S>(&mut rt, cfg);
    rt
}

/// Runs system `S` under `cfg`: warmup → reset → measure → extract. Also
/// returns the final world so tests can inspect the store, queues, caches
/// and tier after the run.
pub fn run_system<S: System>(cfg: &RunConfig) -> (RunResult, S::World) {
    let mut rt = assemble::<S>(cfg, S::build_world(cfg));
    S::spawn_clients(&mut rt, cfg);
    rt.run(|_| {});
    let mut eng = rt.into_engine();
    let result = extract::<S>(cfg, &mut eng);
    (result, eng.world)
}
