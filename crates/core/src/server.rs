//! The μTPS server: world state and the CR/MR stages.
//!
//! A fixed pool of worker threads is partitioned into the cache-resident
//! layer (workers `0..n_cr`) and the memory-resident layer (the rest). The
//! partition point is a single global variable; the auto-tuner moves it with
//! the non-blocking reassignment protocol of §3.5 (switch at a pre-announced
//! receive-slot sequence number, drain CR-MR lanes before switching roles).
//!
//! Both layers are stages that `UtpsWorker` drives, one at a time per
//! core, and both reach the CR-MR queue only through their end of it
//! ([`crate::crmr`]'s `Producer` and `Consumer`):
//!
//! **`CrStage`** (§3.2.3 FSM): polls the single-queue receive buffer for
//! the slots it owns (`seq mod n == i`), parses, serves hot keys from the
//! resizable cache (skipping index traversal entirely), forwards misses to
//! the MR layer in batched 16-byte descriptors, and sends responses — both
//! for its local hits and, when lane tail counters advance, for MR
//! completions.
//!
//! **`MrStage`** (§3.3): pops descriptor batches from its lanes, runs one
//! [`KvOp`] state machine per request, and interleaves them round-robin
//! ([`BatchOp::poll`], the loop body BaseKV shares) so every prefetch issued
//! before a pointer dereference is overlapped with other requests' compute —
//! the stackless-coroutine batching of the paper.
//! Data moves directly between network buffers and the store; only
//! descriptors cross the CR-MR queue, and request/response payloads travel
//! as [`utps_sim::PayloadRef`] arena handles that each stage consumes
//! exactly once.
//!
//! `UtpsWorker` composes the two: it drives whichever stage currently owns
//! the core and, when that stage hands the core over (§3.5 thread
//! reassignment), installs the other one in its place; the next step runs
//! the new stage.

use std::collections::VecDeque;
use std::ops::Range;

use utps_index::Step;
use utps_sim::hashutil::FxHashMap;
use utps_sim::nic::Fabric;
use utps_sim::time::SimTime;
use utps_sim::{CacheHierarchy, Counter, Ctx, Hist, Process, StatClass, StepOutcome};
use utps_workload::Op;

use crate::client::{DriverState, KvWorld};
use crate::crmr::{Consumer, CrMrQueue, Desc, Producer, Retired};
use crate::hotcache::HotCache;
use crate::msg::{NetMsg, OpKind, Response};
use crate::retry::DedupTable;
use crate::rpc::{self, send_response, Admission, RecvRing, RespBuffers};
use crate::store::{KvOp, KvOpOutput, KvStore, OpBuffers};
use crate::system::{ServerParts, ServerWorld};
use crate::tier::{self, BatchOp, DurabilityBarrier, Polled};

/// Max unreleased commit groups an MR worker may hold before it stops
/// pulling new batches (write-path backpressure).
const DEFER_MAX: usize = 8;

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
    /// Completed thread reassignments: (time, n_cr after).
    pub reconfig_events: Vec<(SimTime, usize)>,
    /// Client/measurement state.
    pub driver: DriverState,
    /// LLC ways currently reused by the MR layer (0 = all ways).
    pub mr_ways: usize,
    /// Auto-tuner event trace (Figure 14 annotations).
    pub tuner_trace: Vec<crate::tuner::TunerEvent>,
    /// Auto-tuner decision log: every trisection probe (§3.5), appended by
    /// [`crate::tuner::Tuner`] so runs can export it.
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

    /// The worker ids descriptors may target right now.
    pub(crate) fn mr_targets(&self) -> Range<usize> {
        self.mr_lo()..self.cfg.workers
    }

    /// Announces a thread reassignment to `new_n_cr` CR workers (§3.5):
    /// receive slots from two per worker past the ring head on use the new
    /// split. Returns false, announcing nothing, when that split is already
    /// live, would leave a layer without workers, or another reassignment
    /// is still being adopted.
    pub fn request_split(&mut self, new_n_cr: usize) -> bool {
        let workers = self.cfg.workers;
        if self.reconfig.is_some() || new_n_cr == self.cfg.n_cr || !(1..workers).contains(&new_n_cr)
        {
            return false;
        }
        self.reconfig = Some(Reconfig {
            new_n_cr,
            switch_seq: self.ring.head() + 2 * workers as u64,
            adopted: vec![false; workers],
        });
        // A parked worker's next poll or scan reads the announcement.
        self.fabric.wake_servers();
        self.crmr.wake_consumers();
        true
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
            self.reconfig_events.push((now, r.new_n_cr));
        }
    }
}

/// Splits the LLC ways between the layers (CLOS masks, §3.5): CR workers
/// `0..n_cr` keep every way, and MR workers `n_cr..workers` reuse the low
/// `mr_ways` ways (0 = every way).
pub fn split_ways(cache: &mut CacheHierarchy, n_cr: usize, workers: usize, mr_ways: usize) {
    let full = cache.full_mask();
    let mr_mask = if mr_ways == 0 || mr_ways >= full.count_ones() as usize {
        full
    } else {
        (1u32 << mr_ways) - 1
    };
    for w in 0..workers {
        cache.set_clos_mask(w, if w < n_cr { full } else { mr_mask });
    }
}

/// One request being processed at the MR layer.
struct ActiveOp {
    op: BatchOp,
    done: bool,
    /// When the descriptor was popped (traversal-latency measurement).
    started: SimTime,
}

// ----------------------------------------------------------------------
// CR stage
// ----------------------------------------------------------------------

/// The cache-resident stage (§3.2.3): NIC polling, parsing, hot-cache
/// serving, descriptor forwarding, and response transmission.
pub(crate) struct CrStage {
    id: usize,
    /// Local copy of `n_cr` (the modulo divisor).
    n_local: usize,
    /// Next owned slot sequence number.
    cursor: u64,
    /// This worker's end of the CR-MR queue.
    tx: Producer,
    /// In-progress local (hot-hit) operation and its claim timestamp.
    local: Option<(u64, KvOp, SimTime)>,
    /// Request counter for sampling.
    sample_ctr: u32,
    /// Hot-path acks `(response, claim time)` held behind the tier's
    /// durability barrier. A locally served op may have observed writes
    /// whose commit group is still in flight; its ack leaves only once
    /// `durable_seq` covers them.
    ack_defer: DurabilityBarrier<(Response, SimTime)>,
    /// The run of quiet polls that ended with the last step, if it did.
    quiet: Option<Quiet>,
    /// What each poll skipped while parked counts.
    skipped: PollShape,
}

/// A run of quiet CR polls, each a repeat of the one before (DESIGN.md §10
/// "Parked polls").
#[derive(Clone, Copy)]
struct Quiet {
    /// The core's private-cache token when the last one ended.
    token: u64,
    /// Its charge, picoseconds.
    charge: u64,
    /// How many in a row.
    run: usize,
}

/// What one quiet CR poll counts besides its time.
#[derive(Clone, Copy, Default)]
struct PollShape {
    /// Receive-slot checks (`ring.polls`): 0 or 1.
    ring_polls: u64,
    /// Completion words read, each a plain L1 hit: 0 or 1.
    reads: u64,
}

impl CrStage {
    /// The CR stage of worker `id` under divisor `n_local`, next claiming
    /// slot `cursor`.
    pub fn new(id: usize, n_local: usize, cursor: u64, cfg: &ServerConfig) -> Self {
        CrStage {
            id,
            n_local,
            cursor,
            tx: Producer::new(id, cfg.workers, cfg.batch, cfg.lease_ps),
            local: None,
            sample_ctr: 0,
            ack_defer: DurabilityBarrier::default(),
            quiet: None,
            skipped: PollShape::default(),
        }
    }

    /// One CR scheduling slot; `true` means the worker has switched to the
    /// MR layer and the caller must install an MR stage.
    fn run(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> bool {
        let id = self.id;
        let (start, token) = (ctx.now(), ctx.private_version());

        // 0a. Release hot-path acks whose commit groups became durable.
        let released = self.drain_deferred(ctx, world);

        // 0. Finish a blocked/ready local hot-path operation first.
        if let Some((seq, op, started)) = self.local.take() {
            self.quiet = None;
            self.drive_local(ctx, world, seq, op, started);
            return false;
        }

        // 1. Reconfiguration handling.
        let rc = world
            .reconfig
            .as_ref()
            .map(|r| (r.new_n_cr, r.switch_seq, r.adopted[id]));
        if let Some((new_n_cr, switch_seq, adopted)) = rc {
            if !adopted && self.cursor >= switch_seq {
                if id < new_n_cr {
                    // Stay CR: adopt the new modulo and realign.
                    self.n_local = new_n_cr;
                    self.cursor = align_cursor(switch_seq, id, new_n_cr);
                    world.adopt_reconfig(id, ctx.now());
                } else {
                    // Leave for the MR layer once everything drains.
                    return self.try_depart(ctx, world);
                }
            }
            // Until the switch point, keep processing with the old mapping.
            let targets = world.mr_targets();
            self.tx.retarget(ctx, &mut world.crmr, targets, false);
        }

        // 2. Pump the NIC into the receive ring (DMA is free for the CPU;
        //    this models the RNIC progressing asynchronously).
        let head = world.ring.head();
        let now = ctx.now();
        let pumped = world.ring.pump(ctx.machine(), &mut world.fabric, now, 8);
        if pumped > 0 {
            ctx.machine().registry.add(Counter::RingDma, pumped as u64);
        }
        // A slot posted here is visible to its owner's next poll, however
        // late in this step the arrival landed.
        for seq in head..world.ring.head() {
            let owner = world.owner_of(seq);
            if owner != id {
                world.fabric.wake_server(owner);
            }
        }

        // 3. Poll one lane's completion counter; send finished responses.
        let sent = self.poll_completions(ctx, world);

        // 3b. Reclaim descriptor batches whose lease has expired.
        let targets = world.mr_targets();
        self.tx.reclaim_expired(ctx, &mut world.crmr, targets);

        // 4. Claim and process the next owned slot.
        let ring_polls = self.tx.outstanding() < world.cfg.batch * 8;
        let claimed = if ring_polls && world.ring.poll_posted(ctx, self.cursor) {
            let seq = self.cursor;
            self.cursor += self.n_local as u64;
            self.process_request(ctx, world, seq);
            true
        } else {
            false
        };

        // 5. Flush a partial batch when idle so misses never starve.
        if !claimed {
            let targets = world.mr_targets();
            self.tx.flush(ctx, &mut world.crmr, targets);
        }

        // 6. A poll that found nothing may be the repeat that parks.
        if released + pumped + sent == 0 && rc.is_none() && !claimed {
            self.idle(ctx, world, start, token, ring_polls);
        } else {
            self.quiet = None;
        }
        false
    }

    /// Extends the run of quiet polls with this one and, once the next
    /// poll would repeat it exactly, parks the worker on its poll grid
    /// until an arrival, its core's token, a seal, a commit, a lease or a
    /// split request changes what that poll would see (DESIGN.md §10 "Parked
    /// polls").
    fn idle(
        &mut self,
        ctx: &mut Ctx<'_>,
        world: &mut UtpsWorld,
        start: SimTime,
        token: u64,
        ring_polls: bool,
    ) {
        let lanes = self.tx.pending_lanes();
        let shape = PollShape {
            ring_polls: ring_polls as u64,
            reads: lanes.min(1) as u64,
        };
        // Each read a plain L1 hit, and nothing else touched the core.
        let end = ctx.private_version();
        if end - token != shape.reads {
            self.quiet = None;
            return;
        }
        let charge = ctx.now() - start;
        let run = match self.quiet {
            Some(q) if q.token == token && q.charge == charge => q.run + 1,
            _ => 1,
        };
        self.quiet = Some(Quiet {
            token: end,
            charge,
            run,
        });
        // A full rotation of the completion words, read back to back, is
        // what makes each the newest line of its L1 set.
        if run < lanes.max(2) || !self.tx.may_park(&world.crmr, &ctx.machine().cache) {
            return;
        }
        // Acks held on the barrier wait for the oldest commit in flight;
        // with none in flight, the seal that starts one wakes the worker.
        let commit = match &world.tier {
            Some(tier) if !self.ack_defer.is_empty() => tier.next_commit(),
            _ => None,
        };
        // A lane's lease lapses at the first poll whose read ends past it.
        let lease = self
            .tx
            .next_lease()
            .map(|at| SimTime((at.as_ps() + 1).saturating_sub(charge)));
        let deadline = commit.into_iter().chain(lease).min();
        self.skipped = shape;
        world
            .fabric
            .server_park(self.id, ctx.park_on_grid(deadline));
    }

    /// Charges `n` polls skipped while parked: each a repeat of the parking
    /// step's, moving the completion rotation along.
    fn skipped_polls(&mut self, ctx: &mut Ctx<'_>, n: u64) {
        let polls = n * self.skipped.ring_polls;
        ctx.machine().registry.add(Counter::RingPolls, polls);
        self.tx.skip_polls(n);
        ctx.l1_hits(n * self.skipped.reads);
    }

    /// Processes one claimed receive slot.
    fn process_request(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld, seq: u64) {
        let id = self.id;
        let started = ctx.now();
        world.ring.claim(ctx, seq);
        ctx.stage_transitions(1);
        let resp_addr = world.resp.addr_for(id, seq);
        let admission = rpc::admit(
            ctx,
            &mut world.ring,
            &mut world.fabric,
            &world.dedup,
            world.cluster.as_ref(),
            resp_addr,
            seq,
        );
        if admission != Admission::Serve {
            return;
        }
        let desc = Desc::of(world.ring.request(seq), seq);
        let key = desc.key;

        // Sampling for the hot-set tracker.
        self.sample_ctr += 1;
        if world.cfg.cache_enabled && self.sample_ctr >= world.cfg.sample_every {
            self.sample_ctr = 0;
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
                ctx.machine().registry.inc(Counter::CrHit);
                self.drive_local(ctx, world, seq, KvOp::get_cached(key, item, bufs), started);
            }
            // With the durable tier, writes always go through the MR layer:
            // only there can they be sequenced into the WAL.
            (OpKind::Put, Some(item)) if world.tier.is_none() => {
                ctx.machine().registry.inc(Counter::CrHit);
                // Move the payload out of NIC buffer memory — written once
                // by the client, consumed once here.
                let op = match world.ring.take_value(seq) {
                    Some(v) => {
                        let value = ctx.machine().payloads.take(v);
                        KvOp::put_cached(key, item, value, bufs)
                    }
                    None => {
                        ctx.machine().registry.inc(Counter::ServerMalformedReq);
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
                self.forward(ctx, world, desc);
            }
            (OpKind::Get | OpKind::Put, _) => {
                ctx.machine().registry.inc(Counter::CrMiss);
                self.forward(ctx, world, desc);
            }
            (OpKind::Delete, cached) => {
                // Tombstone any cached entry first, then let the MR layer
                // remove the key from the full index (§3.2.2: the cache is
                // rebuilt at the next refresh).
                if cached.is_some() {
                    world.hot.invalidate(ctx, key);
                }
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
                    finish_local(ctx, world, &mut self.ack_defer, id, seq, out, started);
                    return;
                }
                Step::Ready => continue,
                Step::Blocked => {
                    self.local = Some((seq, op, started));
                    return;
                }
            }
        }
    }

    /// Queues a descriptor toward the MR layer.
    fn forward(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld, desc: Desc) {
        let targets = world.mr_targets();
        self.tx.forward(ctx, &mut world.crmr, desc, targets);
    }

    /// Sends up to 8 responses the MR layer has completed; returns how many.
    fn poll_completions(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> usize {
        let UtpsWorld {
            crmr,
            ring,
            fabric,
            dedup,
            cluster,
            ..
        } = world;
        self.tx.poll(ctx, crmr, 8, |ctx, seq| {
            // The response the MR layer deposited; the slot returns to the
            // ring.
            let resp = ring.release(seq);
            dedup.record(resp.client, resp.seq);
            if let Some(cl) = cluster {
                cl.op_end(seq);
            }
            ctx.machine().registry.inc(Counter::CrResponse);
            send_response(ctx, fabric, resp);
        })
    }

    /// Releases deferred hot-path acks whose durability requirement is now
    /// met (no-op without the tier); returns how many.
    fn drain_deferred(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> usize {
        let Some(tier) = world.tier.as_mut() else {
            return 0;
        };
        let mut n = 0;
        for (resp, started) in self.ack_defer.drain(tier, ctx.now()) {
            send_local(ctx, world, resp, started);
            n += 1;
        }
        n
    }

    /// Attempts to finish draining; `true` once this worker has handed its
    /// core to the MR layer.
    fn try_depart(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> bool {
        // Flush any remaining partial batches first (redirecting any whose
        // target is also leaving the MR layer).
        let targets = world.mr_targets();
        self.tx.retarget(ctx, &mut world.crmr, targets, true);
        // Keep sending completions for already-forwarded requests (and
        // releasing barrier-held acks).
        self.poll_completions(ctx, world);
        self.drain_deferred(ctx, world);
        if self.local.is_none()
            && self.tx.outstanding() == 0
            && self.tx.idle(&world.crmr)
            && self.ack_defer.is_empty()
        {
            // All clear: hand the core to a fresh MR stage.
            ctx.set_class(StatClass::Mr);
            world.adopt_reconfig(self.id, ctx.now());
            true
        } else {
            ctx.spin();
            false
        }
    }
}

// ----------------------------------------------------------------------
// MR stage
// ----------------------------------------------------------------------

/// The memory-resident stage (§3.3): descriptor batching and interleaved
/// index traversal.
pub(crate) struct MrStage {
    id: usize,
    /// This worker's end of the CR-MR queue.
    rx: Consumer,
    ops: Vec<ActiveOp>,
    /// WAL records of the in-progress super-batch (sealed at `all_done`).
    wal_buf: Vec<utps_wal::WalRecord>,
    /// Retired super-batches awaiting durability.
    defers: DurabilityBarrier<Retired>,
}

impl MrStage {
    /// An MR stage for worker `id` on a `workers`-thread server.
    pub fn new(id: usize, workers: usize) -> Self {
        MrStage {
            id,
            rx: Consumer::new(id, workers),
            ops: Vec::new(),
            wal_buf: Vec::new(),
            defers: DurabilityBarrier::default(),
        }
    }

    /// Advances the durability barrier and releases completions of commit
    /// groups that became durable (no-op without the tier).
    fn drain_tier(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) {
        let Some(tier) = world.tier.as_mut() else {
            return;
        };
        for retired in self.defers.drain(tier, ctx.now()) {
            self.rx
                .release(ctx, &mut world.crmr, &mut world.fabric, retired);
        }
    }

    /// One MR scheduling slot; `Some` is the CR stage this worker has
    /// switched to, which the caller must install.
    fn run(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> Option<CrStage> {
        let (id, token) = (self.id, ctx.private_version());

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
                if self.ops.is_empty() && self.defers.is_empty() && world.crmr.consumer_idle(id) {
                    // Build the successor before adopting: adoption may
                    // finalize the reconfig and erase `new_n_cr`.
                    let cursor = align_cursor(switch_seq, id, new_n_cr);
                    let successor = CrStage::new(id, new_n_cr, cursor, &world.cfg);
                    ctx.set_class(StatClass::Cr);
                    world.adopt_reconfig(id, ctx.now());
                    return Some(successor);
                }
                // Fall through: keep processing to drain.
            } else if !adopted {
                // MR worker staying MR: adopt immediately.
                world.adopt_reconfig(id, ctx.now());
            }
        }

        if self.ops.is_empty() {
            // Write-path backpressure: with too many commit groups awaiting
            // durability, wait for the oldest device write instead of
            // pulling more work (bounds both memory and ack latency).
            if let Some(tier) = world.tier.as_ref() {
                if self.defers.len() >= DEFER_MAX {
                    tier::wait_for_commit(ctx, Some(tier));
                    return None;
                }
            }
            // Fill a super-batch; each popped batch starts one op per
            // descriptor, stamped at its pop.
            let UtpsWorld {
                crmr,
                ring,
                resp,
                store,
                scan_skips,
                tier,
                cfg,
                ..
            } = world;
            let ops = &mut self.ops;
            let empty = self.rx.pop(ctx, crmr, cfg.batch, |ctx, descs| {
                let got = descs.len() as u64;
                ctx.machine().registry.record(Hist::MrBatchSize, got);
                let started = ctx.now();
                for &d in descs {
                    // The MR worker copies response payloads into *its own*
                    // response buffer (§3.3) — the RNIC reads it directly,
                    // so the CR layer never touches those lines.
                    tier::begin_op(tier.as_mut(), d.kind, d.key);
                    let skip = match d.kind {
                        OpKind::Scan => scan_skips.remove(&d.seq).unwrap_or_default(),
                        _ => Vec::new(),
                    };
                    let resp_addr = resp.addr_for(id, d.seq);
                    let op = KvOp::for_desc(ctx, store, ring, d, skip, resp_addr);
                    ops.push(ActiveOp {
                        op: BatchOp::new(d.seq, op),
                        done: false,
                        started,
                    });
                }
            });
            if !self.ops.is_empty() {
                let depth = self.ops.len() as u64;
                ctx.machine()
                    .registry
                    .record(Hist::MrInterleaveDepth, depth);
            } else if !self.defers.is_empty() {
                // Nothing to pop and groups in flight: wait on the device.
                tier::wait_for_commit(ctx, world.tier.as_ref());
            } else if empty
                && world.reconfig.is_none()
                && ctx.private_version() - token == world.cfg.workers as u64
            {
                // The step was one scan of plain L1 hits, and it repeats
                // exactly until woken (DESIGN.md §10 "Parked polls").
                world.crmr.park_consumer(id, ctx.park_on_grid(None));
            }
            return None;
        }

        // Interleave the batch: one `BatchOp::poll` per live op. A blocked
        // op does not stall the others — this layer keeps interleaving.
        let mut all_done = true;
        let mut cold_next: Option<SimTime> = None;
        let mut live_fsm = false;
        for i in 0..self.ops.len() {
            let active = &mut self.ops[i];
            if active.done {
                continue;
            }
            let seq = active.op.seq;
            let out = match active.op.poll(
                ctx,
                &mut world.store,
                world.tier.as_mut(),
                world.ring.request(seq),
                &mut self.wal_buf,
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
            active.done = true;
            let trav_ns = ctx.now().since(active.started) / utps_sim::time::NANOS;
            ctx.machine().registry.record(Hist::MrTraversalNs, trav_ns);
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
            let hold = world.tier.is_some();
            self.rx.retire(ctx, &mut world.crmr, seq, hold);
        }
        if let Some(tier) = world.tier.as_mut().filter(|_| all_done) {
            // Super-batch retired: seal its WAL records as one commit group
            // and hold every completion (reads included — they may have
            // observed earlier un-durable writes) behind the barrier. A
            // seal that puts the first group in flight gives CR workers
            // holding acks a commit to wait on: announce it.
            if !self.wal_buf.is_empty() && tier.next_commit().is_none() {
                world.fabric.wake_servers();
            }
            tier.seal_batch(ctx, &mut self.wal_buf);
            self.defers.park(tier.last_applied(), self.rx.seal());
            self.ops.clear();
        } else if all_done {
            // Whole super-batch finished: signal its completions (the
            // piggybacked lane tail counters).
            let retired = self.rx.seal();
            self.rx
                .release(ctx, &mut world.crmr, &mut world.fabric, retired);
            self.ops.clear();
        } else if !live_fsm {
            // Only cold-read waiters remain: jump to the earliest device
            // completion instead of spinning.
            if let Some(t) = cold_next {
                ctx.advance_to(t);
            }
        }
        None
    }
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
    world.dedup.record(resp.client, resp.seq);
    let hit_ns = ctx.now().since(started) / utps_sim::time::NANOS;
    let reg = &mut ctx.machine().registry;
    reg.inc(Counter::CrResponse);
    reg.record(Hist::CrHitPathNs, hit_ns);
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
/// stage owns the core and installs the other one when the worker switches
/// layers (§3.5 thread reassignment).
pub(crate) struct UtpsWorker {
    id: usize,
    role: Role,
}

impl UtpsWorker {
    /// Creates worker `id` with its initial stage taken from `cfg`.
    pub fn new(id: usize, cfg: &ServerConfig) -> Self {
        let role = if id < cfg.n_cr {
            Role::Cr(CrStage::new(id, cfg.n_cr, id as u64, cfg))
        } else {
            Role::Mr(MrStage::new(id, cfg.workers))
        };
        UtpsWorker { id, role }
    }
}

impl Process<UtpsWorld> for UtpsWorker {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> StepOutcome {
        let switched = match &mut self.role {
            Role::Cr(s) => s
                .run(ctx, world)
                .then(|| Role::Mr(MrStage::new(self.id, world.cfg.workers))),
            Role::Mr(s) => s.run(ctx, world).map(Role::Cr),
        };
        if let Some(role) = switched {
            self.role = role;
        }
        if ctx.progressed() {
            StepOutcome::Progress
        } else {
            StepOutcome::Idle
        }
    }

    fn skipped_polls(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld, n: u64) {
        match &mut self.role {
            Role::Cr(s) => s.skipped_polls(ctx, n),
            // Each skipped scan: a plain L1 hit per tail word, `prod_rr` kept.
            Role::Mr(_) => ctx.l1_hits(n * world.cfg.workers as u64),
        }
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
