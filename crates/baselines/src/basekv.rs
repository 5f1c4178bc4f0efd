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
//! On the stage engine, BaseKV is the degenerate composition: one
//! run-to-completion [`Stage`] per worker, never handing off.

use utps_core::client::{DriverState, KvWorld};
use utps_core::experiment::{RunConfig, RunResult};
use utps_core::msg::{NetMsg, OpKind, Response};
use utps_core::retry::DedupTable;
use utps_core::rpc::{send_response, RecvRing, RespBuffers};
use utps_core::stage::{PipelineRuntime, Stage, StageProc, StepOutcome};
use utps_core::store::{KvOp, KvOpOutput, KvStore, OpBuffers};
use utps_core::system::{self, run_system, Proc, ServerParts, ServerWorld, System};
use utps_core::tier::{self, DurabilityBarrier, TierCompactorProc, TierRunStats, TierState};
use utps_index::Step;
use utps_sim::nic::Fabric;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Machine, MetricsRegistry, StatClass};
use utps_wal::WalRecord;
use utps_workload::Op;

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
    /// Responses sent.
    pub responses: u64,
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

struct ActiveOp {
    seq: u64,
    op: KvOp,
    /// A get that missed DRAM but hit the cold run parks here until the
    /// simulated device read completes: (ready time, value snapshot).
    cold: Option<(SimTime, Vec<u8>)>,
}

/// A run-to-completion worker: the whole request pipeline as one stage.
pub struct BaseWorker {
    id: usize,
    cursor: u64,
    batch: usize,
    ops: Vec<ActiveOp>,
    /// WAL records for the batch in flight, sealed as one commit group
    /// when the batch retires (tier runs only).
    wal_buf: Vec<WalRecord>,
    /// Acks `(response, response buffer address)` held behind the
    /// durability barrier.
    defers: DurabilityBarrier<(Response, usize)>,
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

    fn build_op(ctx: &mut Ctx<'_>, world: &mut BaseWorld, id: usize, seq: u64) -> ActiveOp {
        let bufs = OpBuffers {
            recv_addr: world.ring.slot_addr(seq),
            resp_addr: world.resp.addr_for(id, seq),
        };
        let op = match world.ring.request(seq).op.clone() {
            Op::Get { key } => KvOp::get(&world.store, key, bufs),
            // The payload is *moved* out of the receive slot's arena
            // handle, never copied; a PUT without one is a protocol error.
            Op::Put { key, .. } => match world.ring.take_value(seq) {
                Some(v) => {
                    let value = ctx.machine().payloads.take(v);
                    KvOp::put(&world.store, key, value, bufs)
                }
                None => {
                    ctx.machine().registry.counter_inc("server.malformed_req");
                    KvOp::failed(OpKind::Put, key, bufs)
                }
            },
            Op::Scan { key, count } => KvOp::scan(&world.store, key, count, Vec::new(), bufs),
            Op::Delete { key } => KvOp::delete(&world.store, key, bufs),
        };
        ActiveOp {
            seq,
            op,
            cold: None,
        }
    }

    fn run(&mut self, ctx: &mut Ctx<'_>, world: &mut BaseWorld) {
        // Release acks whose commit group has become durable. The dedup
        // table records only at actual send so a retransmit that arrives
        // while its ack is parked re-executes idempotently.
        if let Some(tier) = world.tier.as_mut() {
            for (resp, resp_addr) in self.defers.drain(tier, ctx.now()) {
                world.dedup.record(resp.client, resp.seq);
                world.responses += 1;
                send_response(ctx, &mut world.fabric, resp_addr, resp);
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
                let (rc, rs, sent_at, key, is_mutation, is_scan) = {
                    let req = world.ring.request(seq);
                    (
                        req.client,
                        req.seq,
                        req.sent_at,
                        req.op.key(),
                        matches!(req.op, Op::Put { .. } | Op::Delete { .. }),
                        matches!(req.op, Op::Scan { .. }),
                    )
                };
                // Cluster admission: bounce keys this shard no longer owns
                // (frozen or migrated) so the client re-routes them — same
                // semantics as the μTPS hook in `utps_core::server`.
                if let Some(cl) = &world.cluster {
                    if cl.admit(key, is_mutation) == utps_core::shardctl::Admit::Bounce {
                        ctx.machine().registry.counter_inc("cluster.moved_bounce");
                        if let Some(v) = world.ring.take_value(seq) {
                            ctx.machine().payloads.free(v);
                        }
                        let resp = utps_core::msg::Response {
                            client: rc,
                            seq: rs,
                            ok: false,
                            moved: true,
                            value: None,
                            scan_count: 0,
                            payload_extra: 0,
                            resp_addr: 0,
                            sent_at,
                        };
                        let resp_addr = world.resp.addr_for(self.id, seq);
                        world.ring.abort(seq);
                        send_response(ctx, &mut world.fabric, resp_addr, resp);
                        continue;
                    }
                }
                // Retransmitted mutation already applied? Ack without
                // re-executing (exactly-once under client retransmits).
                if is_mutation && world.dedup.enabled() && world.dedup.seen(rc, rs) {
                    ctx.machine().registry.counter_inc("server.dup_suppressed");
                    // The suppressed write's payload is never consumed.
                    if let Some(v) = world.ring.take_value(seq) {
                        ctx.machine().payloads.free(v);
                    }
                    let resp = utps_core::msg::Response {
                        client: rc,
                        seq: rs,
                        ok: true,
                        moved: false,
                        value: None,
                        scan_count: 0,
                        payload_extra: 0,
                        resp_addr: 0,
                        sent_at,
                    };
                    let resp_addr = world.resp.addr_for(self.id, seq);
                    world.ring.abort(seq);
                    world.responses += 1;
                    send_response(ctx, &mut world.fabric, resp_addr, resp);
                    continue;
                }
                if let Some(cl) = &world.cluster {
                    cl.op_begin(key, seq);
                }
                let op = Self::build_op(ctx, world, self.id, seq);
                self.ops.push(op);
                // Pin the key against eviction (or pause compaction for a
                // scan) while its FSM may hold item/node references.
                if let Some(tier) = world.tier.as_mut() {
                    if is_scan {
                        tier.scan_inc();
                    } else {
                        tier.active_inc(key);
                    }
                }
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
            // Ops parked on a cold-tier device read resolve here once the
            // read completes.
            if let Some((ready, _)) = self.ops[i].cold {
                if ctx.now() < ready {
                    cold_next = Some(cold_next.map_or(ready, |m: SimTime| m.min(ready)));
                    i += 1;
                    continue;
                }
                let finished = self.ops.swap_remove(i);
                let (_, v) = finished.cold.expect("checked above");
                let resp_addr = world.resp.addr_for(self.id, finished.seq);
                let out = KvOpOutput::cold_hit(ctx, resp_addr, v);
                self.respond(ctx, world, finished.seq, out);
                continue;
            }
            ctx.fsm_switch();
            match self.ops[i].op.poll(ctx, &mut world.store) {
                Step::Done(out) => {
                    let op = &mut self.ops[i];
                    let Some(out) = tier::finish_op(
                        ctx,
                        world.tier.as_mut(),
                        &world.store,
                        world.ring.request(op.seq),
                        &mut self.wal_buf,
                        &mut op.cold,
                        out,
                    ) else {
                        // Parked on a cold-tier read; resolved on a later
                        // pass over the batch.
                        if let Some((ready, _)) = self.ops[i].cold {
                            cold_next = Some(cold_next.map_or(ready, |m: SimTime| m.min(ready)));
                        }
                        i += 1;
                        continue;
                    };
                    let finished = self.ops.swap_remove(i);
                    self.respond(ctx, world, finished.seq, out);
                }
                Step::Ready => i += 1,
                Step::Blocked => {
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
        let req = world.ring.request(seq);
        let is_get = matches!(req.op, Op::Get { .. });
        let resp = utps_core::msg::Response {
            client: req.client,
            seq: req.seq,
            ok: out.ok,
            moved: false,
            value: if is_get { out.value } else { None },
            scan_count: out.scan_count,
            payload_extra: if is_get { 0 } else { out.payload },
            resp_addr: 0,
            sent_at: req.sent_at,
        };
        let resp_addr = world.resp.addr_for(self.id, seq);
        if let Some(tier) = &world.tier {
            if let Some(cl) = &world.cluster {
                cl.op_end(seq);
            }
            world.ring.abort(seq);
            self.defers.park(tier.last_applied(), (resp, resp_addr));
        } else {
            world.dedup.record(resp.client, resp.seq);
            if let Some(cl) = &world.cluster {
                cl.op_end(seq);
            }
            world.ring.abort(seq);
            world.responses += 1;
            send_response(ctx, &mut world.fabric, resp_addr, resp);
        }
    }
}

impl Stage<BaseWorld> for BaseWorker {
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
                let worker = StageProc::new(BaseWorker::new(id, cfg.batch));
                (id, StatClass::Other, Box::new(worker) as _)
            })
            .collect();
        if let Some(tc) = &cfg.tier {
            let compactor = TierCompactorProc::new(cfg.keys, SimTime(tc.compact_every_ps));
            procs.push((cfg.workers, StatClass::Other, Box::new(compactor)));
        }
        procs
    }

    /// Baselines reset only the tier counters here (the runners reset the
    /// cache counters; BaseKV's registry runs through warmup).
    fn reset(world: &mut BaseWorld, _machine: &mut Machine) {
        if let Some(tier) = world.tier.as_mut() {
            tier.reset_stats();
        }
    }

    fn fold(world: &BaseWorld, reg: &mut MetricsRegistry) {
        if let Some(tier) = &world.tier {
            tier.fold_into(reg);
        }
    }

    fn overlay(worlds: &[&BaseWorld], r: &mut RunResult) {
        r.tier = worlds[0].tier.as_ref().map(TierRunStats::from_tier);
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
        resp: RespBuffers::new(cfg.workers, 64, 1152),
        store,
        workers: cfg.workers,
        driver: DriverState::new(cfg.clients, SimTime(cfg.warmup)),
        responses: 0,
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

/// Runs BaseKV under `cfg`, optionally as the "TPQ+CAT" variant.
pub fn run_basekv_opts(cfg: &RunConfig, isolate_ddio: bool) -> RunResult {
    if isolate_ddio {
        run_system::<BaseKv<true>>(cfg).0
    } else {
        run_system::<BaseKv>(cfg).0
    }
}

/// Runs BaseKV under `cfg`.
pub fn run_basekv(cfg: &RunConfig) -> RunResult {
    run_system::<BaseKv>(cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_core::experiment::WorkloadSpec;
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
        let r = run_basekv(&quick_cfg());
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
        let r = run_basekv(&cfg);
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
        let r = run_basekv_opts(&quick_cfg(), true);
        assert!(r.completed > 100);
    }
}
