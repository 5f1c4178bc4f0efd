//! BaseKV: the run-to-completion baseline (§5.1).
//!
//! Identical substrate to μTPS — same reconfigurable RPC receive ring, same
//! store, same batching and prefetching — but each worker executes the whole
//! request monolithically: it polls its slots, traverses the index, copies
//! data, and responds, all on one thread (NP-TPQ in the paper's taxonomy).
//! Share-everything: any worker serves any key, so per-item locks and index
//! node lines bounce between cores under skew, and the worker's index/data
//! accesses evict its own network-buffer lines from the LLC — the two
//! effects μTPS's layer split removes.
//!
//! "Identical except for the thread architecture" holds by construction:
//! admission ([`rpc::admit`]), op construction ([`KvOp::for_desc`]), the
//! batch interleaver ([`BatchOp::poll`]) and the reply ([`Response::reply`])
//! are the functions μTPS calls. What is BaseKV's own is the policy around
//! them: every worker claims its own slots and runs them to completion, and
//! an op blocked on a lock stalls the worker instead of yielding to the
//! rest of the batch.
//!
//! On the stage engine, BaseKV is the degenerate composition: one
//! run-to-completion [`Process`] per worker, never handing off.

use utps_core::client::{DriverState, KvWorld};
use utps_core::crmr::Desc;
use utps_core::experiment::{RunConfig, RunResult};
use utps_core::msg::{NetMsg, Response};
use utps_core::retry::DedupTable;
use utps_core::rpc::{self, send_response, Admission, RecvRing, RespBuffers, SLOT_BYTES};
use utps_core::stage::PipelineRuntime;
use utps_core::store::{KvOp, KvOpOutput, KvStore};
use utps_core::system::{self, Proc, ServerParts, ServerWorld, System};
use utps_core::tier::{
    self, BatchOp, DurabilityBarrier, Polled, TierCompactorProc, TierRunStats, TierState,
};
use utps_sim::nic::Fabric;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Machine, MetricsRegistry, Process, StatClass, StepOutcome};
use utps_wal::WalRecord;

/// BaseKV server world.
pub struct BaseWorld {
    /// Network fabric.
    pub fabric: Fabric<NetMsg>,
    /// Shared receive ring (reconfigurable RPC, same as μTPS).
    pub ring: RecvRing,
    /// Per-worker response buffers.
    pub resp: RespBuffers,
    /// The store (share-everything).
    pub store: KvStore,
    /// Worker count.
    pub workers: usize,
    /// Driver state.
    pub driver: DriverState,
    /// Duplicate-PUT suppression table (active only under retry/faults).
    pub dedup: DedupTable,
    /// Cluster admission hooks; `None` outside cluster runs.
    pub cluster: Option<utps_core::shardctl::ShardCtl>,
    /// Durable tier (WAL + cold sorted run); `None` (DRAM-only) leaves
    /// BaseKV byte-identical to the tier-less build.
    pub tier: Option<TierState>,
}

impl KvWorld for BaseWorld {
    fn fabric_mut(&mut self) -> &mut Fabric<NetMsg> {
        &mut self.fabric
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.driver
    }
}

impl ServerWorld for BaseWorld {
    fn parts(&mut self) -> ServerParts<'_> {
        ServerParts {
            store: &mut self.store,
            dedup: &mut self.dedup,
            tier: &mut self.tier,
            hot: None,
            cluster: &mut self.cluster,
        }
    }
}

/// A run-to-completion worker: the whole request pipeline as one stage.
pub(crate) struct BaseWorker {
    id: usize,
    cursor: u64,
    batch: usize,
    ops: Vec<BatchOp>,
    /// WAL records for the batch in flight, sealed as one commit group
    /// when the batch retires (tier runs only).
    wal_buf: Vec<WalRecord>,
    /// Acks held behind the durability barrier.
    defers: DurabilityBarrier<Response>,
}

impl BaseWorker {
    /// Creates worker `id` of `n` with the given batch size.
    pub fn new(id: usize, batch: usize) -> Self {
        BaseWorker {
            id,
            cursor: id as u64,
            batch: batch.max(1),
            ops: Vec::new(),
            wal_buf: Vec::new(),
            defers: DurabilityBarrier::default(),
        }
    }

    fn run(&mut self, ctx: &mut Ctx<'_>, world: &mut BaseWorld) {
        // Release acks whose commit group has become durable. The dedup
        // table records only at actual send so a retransmit that arrives
        // while its ack is parked re-executes idempotently.
        if let Some(tier) = world.tier.as_mut() {
            for resp in self.defers.drain(tier, ctx.now()) {
                world.dedup.record(resp.client, resp.seq);
                send_response(ctx, &mut world.fabric, resp);
            }
        }
        // Fill the batch: pump the NIC and claim owned slots.
        if self.ops.is_empty() {
            {
                let now = ctx.now();
                let m = ctx.machine();
                world.ring.pump(m, &mut world.fabric, now, 8);
            }
            let n = world.workers as u64;
            while self.ops.len() < self.batch && world.ring.is_posted(self.cursor) {
                let seq = self.cursor;
                self.cursor += n;
                world.ring.claim(ctx, seq);
                // Monolithic loop: parse→index→copy→respond front-end churn.
                ctx.stage_transitions(3);
                let resp_addr = world.resp.addr_for(self.id, seq);
                match rpc::admit(
                    ctx,
                    &mut world.ring,
                    &mut world.fabric,
                    &world.dedup,
                    world.cluster.as_ref(),
                    resp_addr,
                    seq,
                ) {
                    Admission::Bounced | Admission::Suppressed => continue,
                    Admission::Serve => {}
                }
                let d = Desc::of(world.ring.request(seq), seq);
                tier::begin_op(world.tier.as_mut(), d.kind, d.key);
                let op =
                    KvOp::for_desc(ctx, &world.store, &mut world.ring, d, Vec::new(), resp_addr);
                self.ops.push(BatchOp::new(seq, op));
            }
            if self.ops.is_empty() && !self.defers.is_empty() {
                // Nothing runnable and acks parked on the barrier.
                tier::wait_for_commit(ctx, world.tier.as_ref());
            }
            return;
        }

        // Run the batch to completion, interleaving the op FSMs so
        // prefetches overlap (BaseKV keeps μTPS's batching+prefetching).
        // Run-to-completion semantics (§2.2.2): a held lock BLOCKS the
        // worker — it spins until the lock holder finishes, stalling every
        // other stage on this thread.
        let mut i = 0;
        let mut cold_next: Option<SimTime> = None;
        while i < self.ops.len() {
            let seq = self.ops[i].seq;
            match self.ops[i].poll(
                ctx,
                &mut world.store,
                world.tier.as_mut(),
                world.ring.request(seq),
                &mut self.wal_buf,
            ) {
                Polled::Done(out) => {
                    self.ops.swap_remove(i);
                    self.respond(ctx, world, seq, out);
                }
                // Parked on a cold-tier read; resolved on a later pass.
                Polled::Cold(ready) => {
                    cold_next = Some(cold_next.map_or(ready, |m: SimTime| m.min(ready)));
                    i += 1;
                }
                Polled::Ready => i += 1,
                Polled::Blocked => {
                    // Stall the whole worker on this lock (spin charged by
                    // the lock attempt); resume from this op next step.
                    return;
                }
            }
        }
        if self.ops.is_empty() {
            // Batch retired: seal its WAL records as one commit group. The
            // acks queued above stay parked until this group commits.
            if let Some(tier) = world.tier.as_mut() {
                tier.seal_batch(ctx, &mut self.wal_buf);
            }
        } else if let Some(t) = cold_next {
            // Only cold-read waiters remain: jump to the earliest device
            // completion instead of spinning.
            ctx.advance_to(t);
        }
    }

    /// Completes one op: builds the response and either sends it (DRAM-only
    /// build) or parks it behind the durability barrier (tier build).
    fn respond(&mut self, ctx: &mut Ctx<'_>, world: &mut BaseWorld, seq: u64, out: KvOpOutput) {
        let resp_addr = world.resp.addr_for(self.id, seq);
        let resp = Response::reply(world.ring.request(seq), out, resp_addr);
        if let Some(cl) = &world.cluster {
            cl.op_end(seq);
        }
        world.ring.abort(seq);
        if let Some(tier) = &world.tier {
            self.defers.park(tier.last_applied(), resp);
        } else {
            world.dedup.record(resp.client, resp.seq);
            send_response(ctx, &mut world.fabric, resp);
        }
    }
}

impl Process<BaseWorld> for BaseWorker {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut BaseWorld) -> StepOutcome {
        self.run(ctx, world);
        if ctx.progressed() {
            StepOutcome::Progress
        } else {
            StepOutcome::Idle
        }
    }

    fn name(&self) -> &'static str {
        "basekv-rtc"
    }
}

/// BaseKV as a [`System`]: one run-to-completion worker per core, plus
/// the compactor on a core of its own when the tier is on (keeping the
/// tier-less core count — and thus the schedule — intact).
/// `ISOLATE_DDIO = true` is the "TPQ+CAT" variant of Figure 2a: worker CLOS
/// masks exclude the DDIO ways.
pub struct BaseKv<const ISOLATE_DDIO: bool = false>;

impl<const ISOLATE_DDIO: bool> System for BaseKv<ISOLATE_DDIO> {
    type World = BaseWorld;

    fn cores(cfg: &RunConfig) -> usize {
        cfg.workers + usize::from(cfg.tier.is_some())
    }

    fn build_world(cfg: &RunConfig) -> BaseWorld {
        build_base_world(cfg)
    }

    fn prepare_machine(cfg: &RunConfig, machine: &mut Machine) {
        if ISOLATE_DDIO {
            let full = machine.cache.full_mask();
            let ddio = machine.cache.ddio_mask();
            for w in 0..cfg.workers {
                machine.cache.set_clos_mask(w, full & !ddio);
            }
        }
    }

    fn procs(cfg: &RunConfig, _world: &BaseWorld) -> Vec<Proc<BaseWorld>> {
        let mut procs: Vec<Proc<BaseWorld>> = (0..cfg.workers)
            .map(|id| {
                let worker = BaseWorker::new(id, cfg.batch);
                (Some(id), StatClass::Other, Box::new(worker) as _)
            })
            .collect();
        if let Some(tc) = &cfg.tier {
            let compactor = TierCompactorProc::new(cfg.keys, SimTime(tc.compact_every_ps));
            procs.push((Some(cfg.workers), StatClass::Other, Box::new(compactor)));
        }
        procs
    }

    fn spawn_clients(rt: &mut PipelineRuntime<BaseWorld>, cfg: &RunConfig) {
        rt.spawn_clients(cfg);
    }

    fn driver(world: &BaseWorld) -> &DriverState {
        &world.driver
    }

    fn fold(world: &BaseWorld, reg: &mut MetricsRegistry) {
        if let Some(tier) = &world.tier {
            tier.fold_into(reg);
        }
    }

    fn overlay(worlds: &[&BaseWorld], r: &mut RunResult) {
        let snap = r.stage_metrics.as_ref();
        r.tier = (worlds[0].tier.as_ref().zip(snap)).map(|(t, s)| TierRunStats::from_tier(t, s));
    }
}

/// Builds a fresh BaseKV world for `cfg` (populated store, tier from
/// config). The crash runner reuses this and swaps in recovered state.
pub fn build_base_world(cfg: &RunConfig) -> BaseWorld {
    let populate_len = cfg.workload.populate_value_len();
    let store = KvStore::populate(cfg.index, cfg.keys, populate_len);
    BaseWorld {
        fabric: Fabric::new(cfg.machine.net.clone(), cfg.clients),
        ring: RecvRing::new(cfg.ring_slots, cfg.slot_size),
        resp: RespBuffers::new(cfg.workers, 64, SLOT_BYTES),
        store,
        workers: cfg.workers,
        driver: DriverState::new(cfg.clients, SimTime(cfg.warmup)),
        dedup: DedupTable::new(cfg.clients, cfg.retry.enabled() || cfg.faults.net_active()),
        cluster: None,
        tier: cfg.tier.clone().map(|t| TierState::new(t, cfg.seed)),
    }
}

/// [`BaseKv`]'s machine set-up and server processes on a runtime
/// ([`system::spawn_procs`]).
pub fn spawn_base_procs(rt: &mut PipelineRuntime<BaseWorld>, cfg: &RunConfig, isolate_ddio: bool) {
    if isolate_ddio {
        system::spawn_procs::<BaseKv<true>>(rt, cfg);
    } else {
        system::spawn_procs::<BaseKv>(rt, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_core::experiment::WorkloadSpec;
    use utps_core::system::run_system;
    use utps_index::IndexKind;
    use utps_sim::config::MachineConfig;
    use utps_sim::time::MICROS;
    use utps_workload::Mix;

    fn quick_cfg() -> RunConfig {
        RunConfig {
            keys: 20_000,
            workers: 4,
            clients: 8,
            pipeline: 4,
            warmup: 500 * MICROS,
            duration: 1_500 * MICROS,
            machine: MachineConfig::tiny(),
            ..RunConfig::default()
        }
    }

    #[test]
    fn basekv_tree_end_to_end() {
        let (r, _) = run_system::<BaseKv>(&quick_cfg());
        assert!(r.completed > 500, "only {} completed", r.completed);
        assert_eq!(r.not_found, 0);
    }

    #[test]
    fn basekv_hash_with_scans_excluded() {
        let cfg = RunConfig {
            index: IndexKind::Hash,
            workload: WorkloadSpec::Ycsb {
                mix: Mix::A,
                theta: 0.0,
                value_len: 64,
                scan_len: 50,
            },
            ..quick_cfg()
        };
        let (r, _) = run_system::<BaseKv>(&cfg);
        assert!(r.completed > 500);
        assert_eq!(r.not_found, 0);
    }

    #[test]
    fn basekv_tier_serves_evicted_keys() {
        let cfg = RunConfig {
            record_history: true,
            tier: Some(utps_core::tier::TierConfig {
                dram_items_max: 15_000,
                evict_batch: 256,
                compact_every_ps: 100 * MICROS,
                ..Default::default()
            }),
            ..quick_cfg()
        };
        let (r, w) = run_system::<BaseKv>(&cfg);
        assert!(r.completed > 500, "only {} completed", r.completed);
        let t = r.tier.expect("tier stats attached");
        assert!(t.wal_records > 0, "writes must hit the WAL");
        assert!(t.evicted > 0, "compactor never evicted");
        assert!(t.durable_seq <= t.last_applied);
        // No deletes in the default mix and every key pre-populated: any
        // read of an evicted key must be served from the cold run.
        assert_eq!(r.not_found, 0, "cold tier must serve evicted keys");
        assert!(w.tier.expect("tier state").run_items() > 0);
        let (r2, _) = run_system::<BaseKv>(&cfg);
        assert_eq!(r.history_digest, r2.history_digest);
        assert_eq!(r.completed, r2.completed);
    }

    #[test]
    fn ddio_isolation_variant_runs() {
        let (r, _) = run_system::<BaseKv<true>>(&quick_cfg());
        assert!(r.completed > 100);
    }
}
