//! eRPCKV: eRPC-style RPC + share-nothing dispatch (§5.1).
//!
//! Differences from BaseKV, following the paper:
//!
//! * **per-worker receive queues** — eRPC allocates ~15 MB of buffers per
//!   worker thread; the large footprint is modeled with a genuinely large
//!   per-worker ring (address range ≫ LLC), while the leaner per-message
//!   software path lowers the parse cost;
//! * **share-nothing** — clients (modeled at the NIC router) direct each
//!   request to worker `key mod n`, so each worker exclusively owns a shard:
//!   no lock contention or coherence traffic ever arises on its items, but
//!   skewed workloads overload the shard holding the hot keys while other
//!   workers idle — the imbalance the paper measures.
//!
//! On the stage engine, eRPCKV is a dispatch stage (the NIC-side
//! `ErpcWorld::route`, free for the CPUs) fused into each shard's
//! run-to-completion [`Process`].

use utps_core::client::{DriverState, KvWorld};
use utps_core::crmr::Desc;
use utps_core::experiment::RunConfig;
use utps_core::msg::{NetMsg, Response};
use utps_core::rpc::{recv_fate, send_response, RecvRing, RespBuffers, SLOT_BYTES};
use utps_core::stage::PipelineRuntime;
use utps_core::store::{KvOp, KvStore};
use utps_core::system::{Proc, System};
use utps_index::Step;
use utps_sim::nic::Fabric;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Machine, Process, StatClass, StepOutcome};

/// eRPC worker buffer budget (the paper: "15-MB buffer per worker thread").
const ERPC_WORKER_BYTES: usize = 15 << 20;

/// eRPCKV server world.
pub struct ErpcWorld {
    /// Network fabric.
    pub fabric: Fabric<NetMsg>,
    /// Per-worker receive rings.
    pub rings: Vec<RecvRing>,
    /// Per-worker response buffers.
    pub resp: RespBuffers,
    /// The store (logically sharded by `key mod workers`).
    pub store: KvStore,
    /// Worker count.
    pub workers: usize,
    /// Requests the router could not place yet (target ring full).
    pub overflow: std::collections::VecDeque<utps_core::msg::Request>,
    /// Driver state.
    pub driver: DriverState,
}

impl KvWorld for ErpcWorld {
    fn fabric_mut(&mut self) -> &mut Fabric<NetMsg> {
        &mut self.fabric
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.driver
    }
}

impl ErpcWorld {
    /// NIC-side routing: steers arrivals to `key mod workers` rings.
    /// Free for the CPUs (clients address worker QPs directly).
    ///
    /// Receive-side fault fates ([`recv_fate`]) apply to fresh fabric
    /// arrivals only — overflow retries already "arrived" once.
    fn route(&mut self, m: &mut Machine, now: SimTime, limit: usize) {
        let mut moved = 0;
        let mut polls = 0;
        while moved < limit && polls < limit * 4 {
            // Retry overflow first to preserve per-flow ordering.
            let req = match self.overflow.pop_front() {
                Some(r) => r,
                None => {
                    polls += 1;
                    match self.fabric.server_poll(now) {
                        Some(NetMsg::Req(r)) => match recv_fate(m, &mut self.fabric, now, r) {
                            Some(r) => r,
                            None => continue,
                        },
                        Some(NetMsg::Resp(_)) => unreachable!("server got a response"),
                        None => break,
                    }
                }
            };
            let target = (req.op.key() % self.workers as u64) as usize;
            match self.rings[target].try_dma(&mut m.cache, req) {
                Ok(_) => moved += 1,
                Err(req) => {
                    self.overflow.push_front(req);
                    break; // head-of-line at the router: backpressure
                }
            }
        }
    }
}

struct ActiveOp {
    seq: u64,
    op: KvOp,
}

/// A share-nothing shard stage: NIC dispatch fused with run-to-completion
/// execution over the worker's exclusive key shard.
pub(crate) struct ErpcWorker {
    id: usize,
    cursor: u64,
    batch: usize,
    ops: Vec<ActiveOp>,
}

impl ErpcWorker {
    /// Creates worker `id` with the given batch size.
    pub fn new(id: usize, batch: usize) -> Self {
        ErpcWorker {
            id,
            cursor: 0,
            batch: batch.max(1),
            ops: Vec::new(),
        }
    }

    fn run(&mut self, ctx: &mut Ctx<'_>, world: &mut ErpcWorld) {
        if self.ops.is_empty() {
            {
                let now = ctx.now();
                world.route(ctx.machine(), now, 8);
            }
            while self.ops.len() < self.batch && world.rings[self.id].is_posted(self.cursor) {
                let seq = self.cursor;
                self.cursor += 1;
                world.rings[self.id].claim(ctx, seq);
                // Monolithic loop: same front-end churn as BaseKV.
                ctx.stage_transitions(3);
                let ring = &mut world.rings[self.id];
                let d = Desc::of(ring.request(seq), seq);
                let resp_addr = world.resp.addr_for(self.id, seq);
                let op = KvOp::for_desc(ctx, &world.store, ring, d, Vec::new(), resp_addr);
                self.ops.push(ActiveOp { seq, op });
            }
            return;
        }

        let mut i = 0;
        while i < self.ops.len() {
            ctx.fsm_switch();
            match self.ops[i].op.poll(ctx, &mut world.store) {
                Step::Done(out) => {
                    let finished = self.ops.swap_remove(i);
                    let ring = &mut world.rings[self.id];
                    let resp_addr = world.resp.addr_for(self.id, finished.seq);
                    let resp = Response::reply(ring.request(finished.seq), out, resp_addr);
                    ring.abort(finished.seq);
                    send_response(ctx, &mut world.fabric, resp);
                }
                Step::Ready => i += 1,
                Step::Blocked => {
                    // Run-to-completion: the worker stalls on the lock.
                    // (Share-nothing eRPCKV rarely hits this — only via
                    // rebalancing-free collisions.)
                    return;
                }
            }
        }
    }
}

impl Process<ErpcWorld> for ErpcWorker {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ErpcWorld) -> StepOutcome {
        self.run(ctx, world);
        if ctx.progressed() {
            StepOutcome::Progress
        } else {
            StepOutcome::Idle
        }
    }

    fn name(&self) -> &'static str {
        "erpc-shard"
    }
}

/// eRPCKV as a [`System`]: one share-nothing shard worker per core.
pub struct ErpcKv;

impl System for ErpcKv {
    type World = ErpcWorld;

    fn cores(cfg: &RunConfig) -> usize {
        cfg.workers
    }

    fn build_world(cfg: &RunConfig) -> ErpcWorld {
        let populate_len = cfg.workload.populate_value_len();
        let store = KvStore::populate(cfg.index, cfg.keys, populate_len);
        // 15 MB per worker at the configured slot size.
        let slots = (ERPC_WORKER_BYTES / cfg.slot_size).next_power_of_two() / 2;
        let rings = (0..cfg.workers)
            .map(|w| {
                let base = utps_sim::vaddr::RECV_RING + w * utps_sim::vaddr::RECV_RING_STRIDE;
                let mut r = RecvRing::new_at(slots.max(64), cfg.slot_size, base);
                r.parse_ns = 6; // eRPC's leaner per-message path
                r
            })
            .collect();
        ErpcWorld {
            fabric: Fabric::new(cfg.machine.net.clone(), cfg.clients),
            rings,
            resp: RespBuffers::new(cfg.workers, 64, SLOT_BYTES),
            store,
            workers: cfg.workers,
            overflow: Default::default(),
            driver: DriverState::new(cfg.clients, SimTime(cfg.warmup)),
        }
    }

    fn procs(cfg: &RunConfig, _world: &ErpcWorld) -> Vec<Proc<ErpcWorld>> {
        (0..cfg.workers)
            .map(|id| {
                let worker = ErpcWorker::new(id, cfg.batch);
                (Some(id), StatClass::Other, Box::new(worker) as _)
            })
            .collect()
    }

    fn spawn_clients(rt: &mut PipelineRuntime<ErpcWorld>, cfg: &RunConfig) {
        rt.spawn_clients(cfg);
    }

    fn driver(world: &ErpcWorld) -> &DriverState {
        &world.driver
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
    fn erpckv_end_to_end() {
        let (r, _) = run_system::<ErpcKv>(&quick_cfg());
        assert!(r.completed > 500, "only {} completed", r.completed);
        assert_eq!(r.not_found, 0);
    }

    #[test]
    fn uniform_load_spreads_over_shards() {
        let cfg = RunConfig {
            index: IndexKind::Hash,
            workload: WorkloadSpec::Ycsb {
                mix: Mix::C,
                theta: 0.0,
                value_len: 8,
                scan_len: 50,
            },
            ..quick_cfg()
        };
        let (r, _) = run_system::<ErpcKv>(&cfg);
        assert!(
            r.completed > 1_000,
            "uniform should be fast: {}",
            r.completed
        );
    }
}
