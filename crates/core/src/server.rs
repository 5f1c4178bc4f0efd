//! The μTPS server: world state and the CR/MR stages.
//!
//! A fixed pool of worker threads is partitioned into the cache-resident
//! layer (workers `0..n_cr`) and the memory-resident layer (the rest). The
//! partition point is a single global variable; the auto-tuner moves it with
//! the non-blocking reassignment protocol of §3.5 (switch at a pre-announced
//! receive-slot sequence number, drain CR-MR lanes before switching roles).
//!
//! Both layers are [`Stage`]s on the stage engine of [`crate::stage`]:
//!
//! **[`CrStage`]** (§3.2.3 FSM): polls the single-queue receive buffer for
//! the slots it owns (`seq mod n == i`), parses, serves hot keys from the
//! resizable cache (skipping index traversal entirely), forwards misses to
//! the MR layer in batched 16-byte descriptors, and sends responses — both
//! for its local hits and, when lane tail counters advance, for MR
//! completions.
//!
//! **[`MrStage`]** (§3.3): pops descriptor batches from its lanes, runs one
//! [`KvOp`] state machine per request, and interleaves them round-robin
//! ([`BatchOp::poll`], the loop body BaseKV shares) so every prefetch issued
//! before a pointer dereference is overlapped with other requests' compute —
//! the stackless-coroutine batching of the paper.
//! Data moves directly between network buffers and the store; only
//! descriptors cross the CR-MR queue, and request/response payloads travel
//! as [`utps_sim::PayloadRef`] arena handles that each stage consumes
//! exactly once.
//!
//! [`UtpsWorker`] composes the two: it drives whichever stage currently owns
//! the core and, when a stage reports [`StepOutcome::Handoff`] (§3.5 thread
//! reassignment), installs the successor stage in its place.

use std::collections::VecDeque;

use utps_index::Step;
use utps_sim::hashutil::FxHashMap;
use utps_sim::nic::Fabric;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Process, StatClass};
use utps_workload::Op;

use crate::client::{DriverState, KvWorld};
use crate::crmr::{CrMrQueue, Desc};
use crate::hotcache::HotCache;
use crate::msg::{NetMsg, OpKind, Response};
use crate::retry::DedupTable;
use crate::rpc::{self, send_response, Admission, RecvRing, RespBuffers};
use crate::stage::{Stage, StepOutcome};
use crate::store::{KvOp, KvOpOutput, KvStore, OpBuffers};
use crate::system::{ServerParts, ServerWorld};
use crate::tier::{self, BatchOp, DurabilityBarrier, Polled};

/// Runtime-adjustable server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Total worker threads (CR + MR).
    pub workers: usize,
    /// Workers currently assigned to the cache-resident layer.
    pub n_cr: usize,
    /// CR→MR descriptor batch size (§5.5.1 sweeps 1..20).
    pub batch: usize,
    /// Sample every Nth request into the hot-set tracker.
    pub sample_every: u32,
    /// Whether the hot cache is active.
    pub cache_enabled: bool,
    /// Descriptor lease in picoseconds: a lane showing no completion
    /// progress for this long has its unpopped backlog reclaimed and
    /// re-forwarded to another MR worker. 0 disables leases (seed behavior).
    pub lease_ps: u64,
}

impl ServerConfig {
    /// Memory-resident worker count.
    pub fn n_mr(&self) -> usize {
        self.workers - self.n_cr
    }
}

/// An in-flight thread reassignment (§3.5).
#[derive(Clone, Debug)]
pub struct Reconfig {
    /// The new CR worker count.
    pub new_n_cr: usize,
    /// Slots with `seq >= switch_seq` use the new assignment.
    pub switch_seq: u64,
    /// Which workers have adopted the new configuration.
    pub adopted: Vec<bool>,
}

/// Server-side counters.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Responses sent.
    pub responses: u64,
    /// Requests served entirely at the CR layer.
    pub cr_local: u64,
    /// Requests forwarded to the MR layer.
    pub forwarded: u64,
    /// Reconfiguration events: (time, n_cr after).
    pub reconfig_events: Vec<(SimTime, usize)>,
}

/// The complete μTPS server world.
pub struct UtpsWorld {
    /// Client↔server fabric.
    pub fabric: Fabric<NetMsg>,
    /// Single-queue receive buffer (§3.2.1).
    pub ring: RecvRing,
    /// Per-worker response buffers.
    pub resp: RespBuffers,
    /// Index + items.
    pub store: KvStore,
    /// All-to-all CR-MR queue (§3.4).
    pub crmr: CrMrQueue,
    /// Resizable hot cache (§3.2.2).
    pub hot: HotCache,
    /// Runtime configuration.
    pub cfg: ServerConfig,
    /// In-flight thread reassignment, if any.
    pub reconfig: Option<Reconfig>,
    /// Per-worker sampled keys for the hot-set tracker.
    pub samples: Vec<VecDeque<u64>>,
    /// Scan skip-lists: seq → keys already served by the CR layer (§4).
    pub scan_skips: FxHashMap<u64, Vec<u64>>,
    /// Server counters.
    pub stats: ServerStats,
    /// Client/measurement state.
    pub driver: DriverState,
    /// LLC ways currently reused by the MR layer (0 = all ways).
    pub mr_ways: usize,
    /// Auto-tuner event trace (Figure 14 annotations).
    pub tuner_trace: Vec<crate::tuner::TunerEvent>,
    /// Auto-tuner decision log: every trisection probe (§3.5), mirrored here
    /// from [`crate::tuner::Tuner::decision_log`] so runs can export it.
    pub tuner_probes: Vec<crate::tuner::TunerProbe>,
    /// Exactly-once filter for retransmitted writes (see [`crate::retry`]).
    pub dedup: DedupTable,
    /// Cluster admission hooks; `None` (single-machine) leaves every code
    /// path byte-identical to the pre-cluster behavior.
    pub cluster: Option<crate::shardctl::ShardCtl>,
    /// Durable tier (WAL + cold sorted run); `None` (DRAM-only) leaves
    /// every code path byte-identical to the pre-tier behavior.
    pub tier: Option<crate::tier::TierState>,
}

impl KvWorld for UtpsWorld {
    fn fabric_mut(&mut self) -> &mut Fabric<NetMsg> {
        &mut self.fabric
    }

    fn driver_mut(&mut self) -> &mut DriverState {
        &mut self.driver
    }
}

impl ServerWorld for UtpsWorld {
    fn parts(&mut self) -> ServerParts<'_> {
        ServerParts {
            store: &mut self.store,
            dedup: &mut self.dedup,
            tier: &mut self.tier,
            hot: Some(&mut self.hot),
            cluster: &mut self.cluster,
        }
    }
}

impl UtpsWorld {
    /// The CR worker owning receive slot `seq` under the current (or
    /// transitional) assignment.
    pub fn owner_of(&self, seq: u64) -> usize {
        match &self.reconfig {
            Some(r) if seq >= r.switch_seq => (seq % r.new_n_cr as u64) as usize,
            _ => (seq % self.cfg.n_cr as u64) as usize,
        }
    }

    /// First MR worker id descriptors may target right now (during a
    /// reassignment both the old and new CR ranges are excluded so movers
    /// can drain).
    pub fn mr_lo(&self) -> usize {
        match &self.reconfig {
            Some(r) => self.cfg.n_cr.max(r.new_n_cr),
            None => self.cfg.n_cr,
        }
    }

    /// Marks `worker` as having adopted the pending reconfiguration;
    /// finalizes it when everyone has.
    pub fn adopt_reconfig(&mut self, worker: usize, now: SimTime) {
        let done = {
            let r = self.reconfig.as_mut().expect("no reconfig in flight");
            r.adopted[worker] = true;
            r.adopted.iter().all(|&a| a)
        };
        if done {
            let r = self.reconfig.take().unwrap();
            self.cfg.n_cr = r.new_n_cr;
            self.stats.reconfig_events.push((now, r.new_n_cr));
        }
    }
}

/// Cache-resident worker state.
struct CrState {
    /// Local copy of `n_cr` (the modulo divisor).
    n_local: usize,
    /// Next owned slot sequence number.
    cursor: u64,
    /// Per-target-MR descriptor accumulation (indexed by worker id).
    out: Vec<Vec<Desc>>,
    /// Per-lane FIFO of forwarded seqs awaiting completion.
    pending: Vec<VecDeque<u64>>,
    /// Last observed completion counter per lane.
    seen: Vec<u64>,
    /// Round-robin MR target.
    mr_rr: usize,
    /// Round-robin completion-poll lane.
    comp_rr: usize,
    /// In-progress local (hot-hit) operation and its claim timestamp.
    local: Option<(u64, KvOp, SimTime)>,
    /// Request counter for sampling.
    sample_ctr: u32,
    /// True when this worker is draining to move to the MR layer.
    draining: bool,
    /// Per-lane descriptor-lease deadline: a lane with pending work past
    /// this time has its unpopped backlog revoked (see `check_leases`).
    lease_at: Vec<SimTime>,
    /// Hot-path acks `(response, claim time)` held behind the tier's
    /// durability barrier. A locally served op may have observed writes
    /// whose commit group is still in flight; its ack leaves only once
    /// `durable_seq` covers them.
    ack_defer: DurabilityBarrier<(Response, SimTime)>,
}

impl CrState {
    /// State for worker `id` starting at slot `cursor`; `seen` is each
    /// lane's completion counter as of now (all zero at run start).
    fn new(n_local: usize, cursor: u64, seen: Vec<u64>) -> Self {
        let workers = seen.len();
        CrState {
            n_local,
            cursor,
            out: (0..workers).map(|_| Vec::new()).collect(),
            pending: (0..workers).map(|_| VecDeque::new()).collect(),
            seen,
            mr_rr: 0,
            comp_rr: 0,
            local: None,
            sample_ctr: 0,
            draining: false,
            lease_at: vec![SimTime::ZERO; workers],
            ack_defer: DurabilityBarrier::default(),
        }
    }

    fn outstanding(&self) -> usize {
        self.out.iter().map(Vec::len).sum::<usize>()
            + self.pending.iter().map(VecDeque::len).sum::<usize>()
    }
}

/// One request being processed at the MR layer.
struct ActiveOp {
    op: BatchOp,
    done: bool,
    /// When the descriptor was popped (traversal-latency measurement).
    started: SimTime,
}

/// One super-batch's completions held behind the durability barrier: the
/// piggybacked lane counters (and shared-mode seqs) advance only once the
/// batch's WAL sequences are durable. Read-only batches carry the same
/// barrier — their responses may have observed not-yet-durable writes
/// applied in place by an earlier batch.
struct TierDefer {
    /// `(producer, count)` lane-counter advances (all-to-all mode).
    lanes: Vec<(usize, u64)>,
    /// Completed seqs (shared-queue counterfactual mode).
    shared: Vec<u64>,
}

/// Memory-resident worker state.
struct MrState {
    ops: Vec<ActiveOp>,
    /// Descriptors popped per producer in the current super-batch.
    lane_pop: Vec<u32>,
    prod_rr: usize,
    scratch: Vec<Desc>,
    /// WAL records of the in-progress super-batch (sealed at `all_done`).
    wal_buf: Vec<utps_wal::WalRecord>,
    /// Shared-mode seqs completed in the current super-batch (deferred).
    shared_done: Vec<u64>,
    /// Commit groups awaiting durability.
    defers: DurabilityBarrier<TierDefer>,
    /// The core's private-cache token right after a lane scan that popped
    /// nothing and read every tail word as a plain L1 hit; while the token
    /// and the lanes stay put, the next scan is replayed (DESIGN.md §10
    /// "Replayed idle scans").
    idle_scan: Option<u64>,
}

impl MrState {
    fn new(workers: usize) -> Self {
        MrState {
            ops: Vec::new(),
            lane_pop: vec![0; workers],
            prod_rr: 0,
            scratch: Vec::new(),
            wal_buf: Vec::new(),
            shared_done: Vec::new(),
            defers: DurabilityBarrier::default(),
            idle_scan: None,
        }
    }

    /// Starts an op, stamped now, for each descriptor just popped into
    /// `scratch`.
    fn start_popped(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld, id: usize) {
        if self.scratch.is_empty() {
            return;
        }
        let got = self.scratch.len() as u64;
        ctx.machine().registry.hist_record("mr.batch_size", got);
        let started = ctx.now();
        for i in 0..self.scratch.len() {
            let d = self.scratch[i];
            let op = BatchOp::new(d.seq, build_mr_op(ctx, world, id, d));
            self.ops.push(ActiveOp {
                op,
                done: false,
                started,
            });
        }
    }
}

// ----------------------------------------------------------------------
// CR stage
// ----------------------------------------------------------------------

/// The cache-resident stage (§3.2.3): NIC polling, parsing, hot-cache
/// serving, descriptor forwarding, and response transmission.
pub struct CrStage {
    id: usize,
    st: CrState,
}

impl CrStage {
    /// A freshly spawned CR stage for worker `id` (run start).
    pub fn fresh(id: usize, cfg: &ServerConfig) -> Self {
        CrStage {
            id,
            st: CrState::new(cfg.n_cr, id as u64, vec![0; cfg.workers]),
        }
    }

    /// One CR scheduling slot; `true` means the worker has switched to the
    /// MR layer and the caller must install an MR stage.
    fn run(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> bool {
        let id = self.id;

        // 0a. Release hot-path acks whose commit groups became durable.
        self.drain_deferred(ctx, world);

        // 0. Finish a blocked/ready local hot-path operation first.
        if let Some((seq, op, started)) = self.st.local.take() {
            self.drive_local(ctx, world, seq, op, started);
            return false;
        }

        // 1. Reconfiguration handling.
        let rc = world
            .reconfig
            .as_ref()
            .map(|r| (r.new_n_cr, r.switch_seq, r.adopted[id]));
        if let Some((new_n_cr, switch_seq, adopted)) = rc {
            if !adopted && self.st.cursor >= switch_seq {
                if id < new_n_cr {
                    // Stay CR: adopt the new modulo and realign.
                    self.st.n_local = new_n_cr;
                    self.st.cursor = align_cursor(switch_seq, id, new_n_cr);
                    world.adopt_reconfig(id, ctx.now());
                } else {
                    // Leave for the MR layer once everything drains.
                    self.st.draining = true;
                    return self.try_depart(ctx, world);
                }
            }
            // Until the switch point, keep processing with the old mapping.
            // Accumulated-but-unpushed descriptors whose target is leaving
            // the MR layer must be redirected, or their requests leak.
            // (The shared-queue counterfactual is target-free: skip.)
            let mr_lo = if world.crmr.is_shared() {
                0
            } else {
                world.mr_lo()
            };
            let mut stale: Vec<Desc> = Vec::new();
            for t in 0..mr_lo.min(self.st.out.len()) {
                stale.append(&mut self.st.out[t]);
            }
            let n_mr = world.cfg.workers - mr_lo;
            for d in stale {
                let target = mr_lo + self.st.mr_rr % n_mr;
                self.st.out[target].push(d);
                if self.st.out[target].len() >= world.cfg.batch {
                    self.push_lane(ctx, &mut world.crmr, target, world.cfg.lease_ps);
                    self.st.mr_rr = (self.st.mr_rr + 1) % n_mr;
                }
            }
        } else if self.st.draining {
            self.st.draining = false;
        }

        // 2. Pump the NIC into the receive ring (DMA is free for the CPU;
        //    this models the RNIC progressing asynchronously).
        {
            let now = ctx.now();
            let m = ctx.machine();
            world.ring.pump(m, &mut world.fabric, now, 8);
        }

        // 3. Poll one lane's completion counter; send finished responses.
        self.poll_completions(ctx, world, 8);

        // 3b. Reclaim descriptor batches whose lease has expired.
        if world.cfg.lease_ps > 0 {
            self.check_leases(ctx, world);
        }

        // 4. Claim and process the next owned slot.
        let backlog = self.st.outstanding();
        let may_claim = backlog < world.cfg.batch * 8 && !self.st.draining;
        let claimed = if may_claim && world.ring.poll_posted(self.st.cursor) {
            let seq = self.st.cursor;
            self.st.cursor += self.st.n_local as u64;
            self.process_request(ctx, world, seq);
            true
        } else {
            false
        };

        // 5. Flush a partial batch when idle so misses never starve
        //    (only toward workers that are legal MR targets right now).
        if !claimed {
            if world.crmr.is_shared() {
                while let Some(d) = self.st.out[0].pop() {
                    if !world.crmr.push_shared(ctx, id, d) {
                        self.st.out[0].push(d);
                        break;
                    }
                }
                return false;
            }
            let mr_lo = world.mr_lo();
            for t in mr_lo..world.cfg.workers {
                if !self.st.out[t].is_empty()
                    && self.push_lane(ctx, &mut world.crmr, t, world.cfg.lease_ps) > 0
                {
                    break;
                }
            }
        }
        false
    }

    /// Pushes the accumulated batch for lane `target`, recording accepted
    /// seqs in the per-lane completion FIFO and arming the lane's
    /// descriptor lease. Returns how many were accepted.
    fn push_lane(
        &mut self,
        ctx: &mut Ctx<'_>,
        crmr: &mut CrMrQueue,
        target: usize,
        lease_ps: u64,
    ) -> usize {
        let st = &mut self.st;
        let mut batch = core::mem::take(&mut st.out[target]);
        let accepted_seqs: Vec<u64> = batch.iter().map(|d| d.seq).collect();
        let pushed = crmr.push_batch(ctx, self.id, target, &mut batch);
        for &seq in &accepted_seqs[..pushed] {
            st.pending[target].push_back(seq);
        }
        if pushed > 0 && lease_ps > 0 {
            st.lease_at[target] = ctx.now() + lease_ps;
        }
        st.out[target] = batch;
        pushed
    }

    /// Reclaims descriptor batches whose lease expired: a lane with pending
    /// work and no completion progress for `lease_ps` has its *unpopped*
    /// backlog revoked and re-forwarded to the other MR workers, so a
    /// stalled consumer delays only the batch it already popped.
    fn check_leases(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) {
        let lease = world.cfg.lease_ps;
        if lease == 0 || world.crmr.is_shared() {
            return;
        }
        let id = self.id;
        let mr_lo = world.mr_lo();
        let n_mr = world.cfg.workers - mr_lo;
        if n_mr < 2 {
            return; // no other worker to hand the backlog to
        }
        let workers = world.cfg.workers;
        let now = ctx.now();
        for t in 0..workers {
            if self.st.pending[t].is_empty() || now <= self.st.lease_at[t] {
                continue;
            }
            let mut revoked: Vec<Desc> = Vec::new();
            let got = world.crmr.revoke_unpopped(ctx, id, t, &mut revoked);
            // Re-arm regardless: the already-popped prefix stays with the
            // consumer and must not re-trigger every step.
            self.st.lease_at[t] = now + lease;
            if got == 0 {
                continue;
            }
            for _ in 0..got {
                self.st.pending[t]
                    .pop_back()
                    .expect("revoked more than pending");
            }
            ctx.machine()
                .registry
                .counter_add("crmr.lease_reclaim", got as u64);
            for d in revoked {
                let mut target = mr_lo + self.st.mr_rr % n_mr;
                if target == t {
                    self.st.mr_rr = (self.st.mr_rr + 1) % n_mr;
                    target = mr_lo + self.st.mr_rr % n_mr;
                }
                self.st.out[target].push(d);
                self.st.mr_rr = (self.st.mr_rr + 1) % n_mr;
            }
            for tt in mr_lo..workers {
                if tt != t && !self.st.out[tt].is_empty() {
                    self.push_lane(ctx, &mut world.crmr, tt, lease);
                }
            }
        }
    }

    /// Processes one claimed receive slot.
    fn process_request(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld, seq: u64) {
        let id = self.id;
        let started = ctx.now();
        world.ring.claim(ctx, seq);
        ctx.stage_transitions(1);
        let resp_addr = world.resp.addr_for(id, seq);
        match rpc::admit(
            ctx,
            &mut world.ring,
            &mut world.fabric,
            &world.dedup,
            world.cluster.as_ref(),
            resp_addr,
            seq,
        ) {
            Admission::Bounced => return,
            Admission::Suppressed => {
                world.stats.responses += 1;
                return;
            }
            Admission::Serve => {}
        }
        let desc = Desc::of(world.ring.request(seq), seq);
        let key = desc.key;

        // Sampling for the hot-set tracker.
        self.st.sample_ctr += 1;
        if world.cfg.cache_enabled && self.st.sample_ctr >= world.cfg.sample_every {
            self.st.sample_ctr = 0;
            let q = &mut world.samples[id];
            if q.len() < 4096 {
                q.push_back(key);
                // One store into the sampling buffer.
                ctx.compute_ns(2);
            }
        }

        let bufs = OpBuffers {
            recv_addr: world.ring.slot_addr(seq),
            resp_addr,
        };

        // Hot-cache probe (§3.2.3 hit path / miss path).
        let cached = if world.cfg.cache_enabled {
            world.hot.probe(ctx, key)
        } else {
            None
        };

        match (desc.kind, cached) {
            (OpKind::Get, Some(item)) => {
                world.stats.cr_local += 1;
                ctx.machine().registry.counter_inc("cr.hit");
                self.drive_local(ctx, world, seq, KvOp::get_cached(key, item, bufs), started);
            }
            // With the durable tier, writes always go through the MR layer:
            // only there can they be sequenced into the WAL.
            (OpKind::Put, Some(item)) if world.tier.is_none() => {
                world.stats.cr_local += 1;
                ctx.machine().registry.counter_inc("cr.hit");
                // Move the payload out of NIC buffer memory — written once
                // by the client, consumed once here.
                let op = match world.ring.take_value(seq) {
                    Some(v) => {
                        let value = ctx.machine().payloads.take(v);
                        KvOp::put_cached(key, item, value, bufs)
                    }
                    None => {
                        ctx.machine().registry.counter_inc("server.malformed_req");
                        KvOp::failed(key, bufs)
                    }
                };
                self.drive_local(ctx, world, seq, op, started);
            }
            (OpKind::Scan, _) => {
                // Hybrid scan (§4): serve the cached portion here, forward
                // the rest with a skip list.
                let count = desc.size as usize;
                let mut skip = Vec::new();
                if world.cfg.cache_enabled {
                    let cached_range = world.hot.probe_range(ctx, key, count);
                    let mut off = 0usize;
                    for (k, item) in cached_range {
                        let len = world.store.items.value_len(item);
                        ctx.read(world.store.items.value_addr(item), len);
                        ctx.write(bufs.resp_addr + off, len);
                        off += len;
                        skip.push(k);
                    }
                }
                skip.sort_unstable();
                if !skip.is_empty() {
                    world.scan_skips.insert(seq, skip);
                }
                world.stats.forwarded += 1;
                self.forward(ctx, world, desc);
            }
            (OpKind::Get | OpKind::Put, _) => {
                world.stats.forwarded += 1;
                ctx.machine().registry.counter_inc("cr.miss");
                self.forward(ctx, world, desc);
            }
            (OpKind::Delete, cached) => {
                // Tombstone any cached entry first, then let the MR layer
                // remove the key from the full index (§3.2.2: the cache is
                // rebuilt at the next refresh).
                if cached.is_some() {
                    world.hot.invalidate(ctx, key);
                }
                world.stats.forwarded += 1;
                self.forward(ctx, world, desc);
            }
        }
    }

    /// Drives a local hot-path op to completion or parks it.
    fn drive_local(
        &mut self,
        ctx: &mut Ctx<'_>,
        world: &mut UtpsWorld,
        seq: u64,
        mut op: KvOp,
        started: SimTime,
    ) {
        loop {
            match op.poll(ctx, &mut world.store) {
                Step::Done(out) => {
                    let id = self.id;
                    finish_local(ctx, world, &mut self.st.ack_defer, id, seq, out, started);
                    return;
                }
                Step::Ready => continue,
                Step::Blocked => {
                    self.st.local = Some((seq, op, started));
                    return;
                }
            }
        }
    }

    /// Queues a descriptor toward the MR layer, pushing full batches.
    fn forward(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld, desc: Desc) {
        let id = self.id;
        ctx.machine().registry.counter_inc("cr.forward");
        let mr_lo = world.mr_lo();
        let n_mr = world.cfg.workers - mr_lo;
        debug_assert!(n_mr > 0, "no MR workers to forward to");
        if world.crmr.is_shared() {
            // Counterfactual transport: one shared queue, one CAS per
            // descriptor; overflow retries from the stash on later steps.
            if !world.crmr.push_shared(ctx, id, desc) {
                self.st.out[0].push(desc);
            }
            return;
        }
        // Fill one target's multi-request slot to the batch size before
        // rotating to the next MR worker (§3.4: a slot is pushed only when
        // enough requests have accumulated).
        let target = mr_lo + self.st.mr_rr % n_mr;
        self.st.out[target].push(desc);
        if self.st.out[target].len() >= world.cfg.batch {
            self.push_lane(ctx, &mut world.crmr, target, world.cfg.lease_ps);
            self.st.mr_rr = (self.st.mr_rr + 1) % n_mr;
        }
    }

    /// Polls completion counters and sends up to `limit` finished responses.
    fn poll_completions(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld, limit: usize) {
        let id = self.id;
        if world.crmr.is_shared() {
            for _ in 0..limit {
                let Some(seq) = world.crmr.pop_completion_shared(ctx, id) else {
                    break;
                };
                send_forwarded(ctx, world, seq);
            }
            return;
        }
        let st = &mut self.st;
        let workers = world.cfg.workers;
        // Find the next lane with forwarded-but-unacknowledged requests.
        let mut lane = None;
        for off in 0..workers {
            let t = (st.comp_rr + off) % workers;
            if !st.pending[t].is_empty() {
                lane = Some(t);
                st.comp_rr = (t + 1) % workers;
                break;
            }
        }
        let Some(t) = lane else { return };
        let completed = world.crmr.completed(ctx, id, t);
        let mut sent = 0;
        while st.seen[t] < completed && sent < limit as u64 {
            st.seen[t] += 1;
            sent += 1;
            let seq = st.pending[t]
                .pop_front()
                .expect("completion without pending seq");
            send_forwarded(ctx, world, seq);
        }
        // Completion progress renews the lane's descriptor lease.
        if sent > 0 && world.cfg.lease_ps > 0 {
            st.lease_at[t] = ctx.now() + world.cfg.lease_ps;
        }
    }

    /// Releases deferred hot-path acks whose durability requirement is now
    /// met (no-op without the tier).
    fn drain_deferred(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) {
        let Some(tier) = world.tier.as_mut() else {
            return;
        };
        for (resp, started) in self.st.ack_defer.drain(tier, ctx.now()) {
            send_local(ctx, world, resp, started);
        }
    }

    /// Attempts to finish draining; `true` once this worker has handed its
    /// core to the MR layer.
    fn try_depart(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> bool {
        let id = self.id;
        // Flush any remaining partial batches first (redirecting any whose
        // target is also leaving the MR layer).
        {
            let mr_lo = world.mr_lo();
            let n_mr = world.cfg.workers - mr_lo;
            let st = &mut self.st;
            let mut stale: Vec<Desc> = Vec::new();
            for t in 0..mr_lo.min(st.out.len()) {
                stale.append(&mut st.out[t]);
            }
            for d in stale {
                let target = mr_lo + st.mr_rr % n_mr;
                st.mr_rr = (st.mr_rr + 1) % n_mr;
                st.out[target].push(d);
            }
            for t in mr_lo..world.cfg.workers {
                if !self.st.out[t].is_empty() {
                    self.push_lane(ctx, &mut world.crmr, t, world.cfg.lease_ps);
                }
            }
        }
        // Keep sending completions for already-forwarded requests (and
        // releasing barrier-held acks).
        self.poll_completions(ctx, world, 8);
        self.drain_deferred(ctx, world);
        if self.st.local.is_none()
            && self.st.outstanding() == 0
            && world.crmr.producer_idle(id)
            && self.st.ack_defer.is_empty()
        {
            // All clear: hand the core to a fresh MR stage.
            ctx.set_class(StatClass::Mr);
            world.adopt_reconfig(id, ctx.now());
            true
        } else {
            ctx.spin();
            false
        }
    }
}

impl Stage<UtpsWorld> for CrStage {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> StepOutcome {
        if self.run(ctx, world) {
            StepOutcome::Handoff
        } else if ctx.progressed() {
            StepOutcome::Progress
        } else {
            StepOutcome::Idle
        }
    }

    fn name(&self) -> &'static str {
        "utps-cr"
    }
}

// ----------------------------------------------------------------------
// MR stage
// ----------------------------------------------------------------------

/// The memory-resident stage (§3.3): descriptor batching and interleaved
/// index traversal.
pub struct MrStage {
    id: usize,
    st: MrState,
    /// The CR stage to install after a [`StepOutcome::Handoff`], built
    /// against the live lane counters *before* the reconfig is adopted.
    successor: Option<CrStage>,
}

impl MrStage {
    /// An MR stage for worker `id` on a `workers`-thread server.
    pub fn new(id: usize, workers: usize) -> Self {
        MrStage {
            id,
            st: MrState::new(workers),
            successor: None,
        }
    }

    /// Advances the durability barrier and releases completions of commit
    /// groups that became durable (no-op without the tier).
    fn drain_tier(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) {
        let Some(tier) = world.tier.as_mut() else {
            return;
        };
        let id = self.id;
        for d in self.st.defers.drain(tier, ctx.now()) {
            for (p, n) in d.lanes {
                world.crmr.complete(ctx, p, id, n);
            }
            for seq in d.shared {
                let owner = world.owner_of(seq);
                world.crmr.complete_shared(ctx, owner, seq);
            }
        }
    }

    /// One MR scheduling slot; `true` means the worker has switched to the
    /// CR layer and the caller must install [`MrStage::successor`].
    fn run(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> bool {
        let id = self.id;

        // Release barrier-held completions first: durability progresses
        // with device time regardless of what this worker does next.
        self.drain_tier(ctx, world);

        // Reconfiguration: become a CR worker when told to and fully idle.
        let rc = world
            .reconfig
            .as_ref()
            .map(|r| (r.new_n_cr, r.switch_seq, r.adopted[id]));
        if let Some((new_n_cr, switch_seq, adopted)) = rc {
            if !adopted && id < new_n_cr {
                if self.st.ops.is_empty()
                    && self.st.defers.is_empty()
                    && world.crmr.consumer_idle(id)
                {
                    // Build the successor before adopting: adoption may
                    // finalize the reconfig and erase `new_n_cr`.
                    // Resync with the lanes' live counters (non-zero when
                    // this worker held the CR role before).
                    let seen = (0..world.cfg.workers)
                        .map(|c| world.crmr.completed_peek(id, c))
                        .collect();
                    let cursor = align_cursor(switch_seq, id, new_n_cr);
                    let st = CrState::new(new_n_cr, cursor, seen);
                    self.successor = Some(CrStage { id, st });
                    ctx.set_class(StatClass::Cr);
                    world.adopt_reconfig(id, ctx.now());
                    return true;
                }
                // Fall through: keep processing to drain.
            } else if !adopted {
                // MR worker staying MR: adopt immediately.
                world.adopt_reconfig(id, ctx.now());
            }
        }

        let st = &mut self.st;

        if st.ops.is_empty() {
            // Write-path backpressure: with too many commit groups awaiting
            // durability, wait for the oldest device write instead of
            // pulling more work (bounds both memory and ack latency).
            if let Some(tier) = world.tier.as_ref() {
                if st.defers.len() >= tier.cfg.defer_max {
                    tier::wait_for_commit(ctx, Some(tier));
                    return false;
                }
            }
            let workers = world.cfg.workers;
            let batch = world.cfg.batch;
            if world.crmr.is_shared() {
                st.scratch.clear();
                world.crmr.pop_shared(ctx, &mut st.scratch, batch);
                st.start_popped(ctx, world, id);
            } else {
                // An idle scan that would repeat its predecessor exactly —
                // same empty lanes, same L1-resident tail words — charges
                // its `workers` L1 hits without re-walking the cache model.
                // `prod_rr` would advance by `workers`, i.e. not at all.
                if st.idle_scan == Some(ctx.private_version())
                    && st.defers.is_empty()
                    && world.reconfig.is_none()
                    && world.crmr.consumer_idle(id)
                {
                    ctx.l1_hits(workers as u64);
                    return false;
                }
                let v0 = ctx.private_version();
                // Fill a super-batch by scanning all producers round-robin.
                let mut scanned = 0;
                while st.ops.len() < batch && scanned < workers {
                    let p = (st.prod_rr + scanned) % workers;
                    scanned += 1;
                    st.scratch.clear();
                    let want = batch - st.ops.len();
                    let got = world.crmr.pop_batch(ctx, p, id, &mut st.scratch, want);
                    if got > 0 {
                        st.lane_pop[p] += got as u32;
                        ctx.stage_transitions(1);
                        st.start_popped(ctx, world, id);
                    }
                }
                st.prod_rr = (st.prod_rr + scanned) % workers;
                let v1 = ctx.private_version();
                st.idle_scan = (st.ops.is_empty() && v1 - v0 == workers as u64).then_some(v1);
            }
            if !st.ops.is_empty() {
                let depth = st.ops.len() as u64;
                ctx.machine()
                    .registry
                    .hist_record("mr.interleave_depth", depth);
            } else if !st.defers.is_empty() {
                // Nothing to pop and groups in flight: wait on the device.
                tier::wait_for_commit(ctx, world.tier.as_ref());
            }
            return false;
        }

        // Interleave the batch: one `BatchOp::poll` per live op. A blocked
        // op does not stall the others — this layer keeps interleaving.
        let mut all_done = true;
        let mut cold_next: Option<SimTime> = None;
        let mut live_fsm = false;
        for i in 0..st.ops.len() {
            if st.ops[i].done {
                continue;
            }
            let seq = st.ops[i].op.seq;
            let out = match st.ops[i].op.poll(
                ctx,
                &mut world.store,
                world.tier.as_mut(),
                world.ring.request(seq),
                &mut st.wal_buf,
            ) {
                Polled::Done(out) => out,
                Polled::Cold(ready) => {
                    all_done = false;
                    cold_next = Some(cold_next.map_or(ready, |m: SimTime| m.min(ready)));
                    continue;
                }
                Polled::Ready | Polled::Blocked => {
                    all_done = false;
                    live_fsm = true;
                    continue;
                }
            };
            st.ops[i].done = true;
            let trav_ns = ctx.now().since(st.ops[i].started) / utps_sim::time::NANOS;
            ctx.machine()
                .registry
                .hist_record("mr.traversal_ns", trav_ns);
            // A delete must tombstone the hot cache at *execution*
            // time, not just at CR forward time: while the delete sat
            // in the CR→MR queue the manager's periodic refresh may
            // have re-cached the key (its index entry still existed),
            // and once the MR removes it from the index that cache
            // entry would serve the dead item forever. Puts are safe:
            // they update the existing item in place, so a cached
            // ItemId stays valid.
            if world.cfg.cache_enabled && out.ok {
                let req = world.ring.request(seq);
                if matches!(req.op, Op::Delete { .. }) {
                    let key = req.op.key();
                    world.hot.invalidate(ctx, key);
                }
            }
            let resp_addr = world.resp.addr_for(id, seq);
            let resp = Response::reply(world.ring.request(seq), out, resp_addr);
            world.ring.complete(seq, resp);
            if world.crmr.is_shared() {
                if world.tier.is_some() {
                    // Held behind the durability barrier with the batch.
                    st.shared_done.push(seq);
                } else {
                    let owner = world.owner_of(seq);
                    world.crmr.complete_shared(ctx, owner, seq);
                }
            }
        }
        if let Some(tier) = world.tier.as_mut().filter(|_| all_done) {
            // Super-batch retired: seal its WAL records as one commit group
            // and hold every completion (reads included — they may have
            // observed earlier un-durable writes) behind the barrier.
            tier.seal_batch(ctx, &mut st.wal_buf);
            let need_seq = tier.last_applied();
            let mut lanes = Vec::new();
            for p in 0..world.cfg.workers {
                if st.lane_pop[p] > 0 {
                    lanes.push((p, st.lane_pop[p] as u64));
                    st.lane_pop[p] = 0;
                }
            }
            let shared = core::mem::take(&mut st.shared_done);
            st.defers.park(need_seq, TierDefer { lanes, shared });
            st.ops.clear();
        } else if all_done {
            // Whole super-batch finished: advance lane tail counters (the
            // piggybacked completion signal; none were popped in shared
            // mode, whose completions already went out one by one).
            for p in 0..world.cfg.workers {
                if st.lane_pop[p] > 0 {
                    let n = st.lane_pop[p] as u64;
                    st.lane_pop[p] = 0;
                    world.crmr.complete(ctx, p, id, n);
                }
            }
            st.ops.clear();
        } else if !live_fsm {
            // Only cold-read waiters remain: jump to the earliest device
            // completion instead of spinning.
            if let Some(t) = cold_next {
                ctx.advance_to(t);
            }
        }
        false
    }
}

impl Stage<UtpsWorld> for MrStage {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> StepOutcome {
        if self.run(ctx, world) {
            StepOutcome::Handoff
        } else if ctx.progressed() {
            StepOutcome::Progress
        } else {
            StepOutcome::Idle
        }
    }

    fn name(&self) -> &'static str {
        "utps-mr"
    }
}

/// Sends the response the MR layer deposited for forwarded slot `seq` and
/// returns the slot to the ring.
fn send_forwarded(ctx: &mut Ctx<'_>, world: &mut UtpsWorld, seq: u64) {
    let resp = world.ring.release(seq);
    world.stats.responses += 1;
    world.dedup.record(resp.client, resp.seq);
    if let Some(cl) = &world.cluster {
        cl.op_end(seq);
    }
    ctx.machine().registry.counter_inc("cr.response");
    send_response(ctx, &mut world.fabric, resp);
}

/// Completes a locally served request and frees its slot. With the durable
/// tier enabled the ack is *not* sent: the hot path may have observed
/// writes applied in place whose commit group is still in flight, so it is
/// parked on `barrier` (dedup is recorded at actual send, so a retransmit
/// meanwhile re-executes idempotently rather than being answered from an
/// un-durable ack).
fn finish_local(
    ctx: &mut Ctx<'_>,
    world: &mut UtpsWorld,
    barrier: &mut DurabilityBarrier<(Response, SimTime)>,
    id: usize,
    seq: u64,
    out: KvOpOutput,
    started: SimTime,
) {
    let resp_addr = world.resp.addr_for(id, seq);
    let resp = Response::reply(world.ring.request(seq), out, resp_addr);
    world.ring.abort(seq);
    if let Some(cl) = &world.cluster {
        cl.op_end(seq);
    }
    match &world.tier {
        Some(tier) => barrier.park(tier.last_applied(), (resp, started)),
        None => send_local(ctx, world, resp, started),
    }
}

/// Sends the ack of a locally served request claimed at `started`.
fn send_local(ctx: &mut Ctx<'_>, world: &mut UtpsWorld, resp: Response, started: SimTime) {
    world.stats.responses += 1;
    world.dedup.record(resp.client, resp.seq);
    let hit_ns = ctx.now().since(started) / utps_sim::time::NANOS;
    let reg = &mut ctx.machine().registry;
    reg.counter_inc("cr.response");
    reg.hist_record("cr.hit_path_ns", hit_ns);
    send_response(ctx, &mut world.fabric, resp);
}

/// First sequence ≥ `from` owned by `id` under divisor `n`.
fn align_cursor(from: u64, id: usize, n: usize) -> u64 {
    let n = n as u64;
    let id = id as u64;
    let base = from / n * n + id;
    if base >= from {
        base
    } else {
        base + n
    }
}

/// Builds the MR-layer [`KvOp`] for a descriptor. The MR worker copies
/// response payloads into *its own* response buffer (§3.3) — the RNIC reads
/// it directly, so the CR layer never touches those lines.
fn build_mr_op(ctx: &mut Ctx<'_>, world: &mut UtpsWorld, consumer: usize, d: Desc) -> KvOp {
    tier::begin_op(world.tier.as_mut(), d.kind, d.key);
    let skip = match d.kind {
        OpKind::Scan => world.scan_skips.remove(&d.seq).unwrap_or_default(),
        _ => Vec::new(),
    };
    let resp_addr = world.resp.addr_for(consumer, d.seq);
    KvOp::for_desc(ctx, &world.store, &mut world.ring, d, skip, resp_addr)
}

// ----------------------------------------------------------------------
// Worker composition
// ----------------------------------------------------------------------

/// Roles a worker can be in.
// One Role per worker for the whole run; boxing the large CR stage would
// add a pointer chase to every step for a few hundred bytes total.
#[allow(clippy::large_enum_variant)]
enum Role {
    Cr(CrStage),
    Mr(MrStage),
}

/// A μTPS worker thread: the CR⇄MR stage composition. Drives whichever
/// stage owns the core and swaps in the successor on
/// [`StepOutcome::Handoff`] (§3.5 thread reassignment).
pub struct UtpsWorker {
    id: usize,
    role: Role,
}

impl UtpsWorker {
    /// Creates worker `id` with its initial stage taken from `cfg`.
    pub fn new(id: usize, cfg: &ServerConfig) -> Self {
        let role = if id < cfg.n_cr {
            Role::Cr(CrStage::fresh(id, cfg))
        } else {
            Role::Mr(MrStage::new(id, cfg.workers))
        };
        UtpsWorker { id, role }
    }
}

impl Process<UtpsWorld> for UtpsWorker {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> StepOutcome {
        let outcome = match &mut self.role {
            Role::Cr(s) => s.step(ctx, world),
            Role::Mr(s) => s.step(ctx, world),
        };
        if matches!(outcome, StepOutcome::Handoff) {
            self.role = match &mut self.role {
                Role::Cr(_) => Role::Mr(MrStage::new(self.id, world.cfg.workers)),
                Role::Mr(s) => Role::Cr(
                    s.successor
                        .take()
                        .expect("MR handoff without successor stage"),
                ),
            };
        }
        // Surface the handoff so the engine ends any burst: the next step
        // runs the other role and should re-enter through the scheduler.
        outcome
    }

    fn name(&self) -> &'static str {
        "utps-worker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_cursor_properties() {
        for n in 1..8usize {
            for id in 0..n {
                for from in 0..40u64 {
                    let c = align_cursor(from, id, n);
                    assert!(c >= from);
                    assert_eq!(c % n as u64, id as u64);
                    assert!(c < from + n as u64);
                }
            }
        }
    }
}
