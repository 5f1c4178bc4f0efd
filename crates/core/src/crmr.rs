//! The CR-MR queue (§3.4): all-to-all lock-free lanes between layers.
//!
//! Every (CR worker, MR worker) pair owns a dedicated SPSC ring of compact
//! 16-byte request descriptors, so no lane ever has two producers or two
//! consumers. CR workers spread requests over MR workers round-robin; MR
//! workers scan the lanes of all CR producers. Pushes and pops move whole
//! batches (multi-request slots) to amortize the index-word traffic, and
//! completions are signaled by advancing a per-lane tail counter only after
//! the entire batch's responses sit in the response buffers — the paper's
//! piggybacked completion.
//!
//! The protocol on top of the transport lives here too: a CR worker talks
//! to the queue through its `Producer` end and an MR worker through its
//! `Consumer` end, so neither stage ever learns which [`QueueKind`] carries
//! its descriptors.

use std::collections::VecDeque;
use std::ops::Range;

use utps_collections::{MpmcQueue, SpscRing};
use utps_sim::hashutil::FxHashMap;
use utps_sim::time::SimTime;
use utps_sim::{vaddr, CacheHierarchy, Counter, Ctx, Fabric, Gauge, Waker};
use utps_workload::Op;

use crate::msg::{OpKind, Request};

/// How the CR-MR queue moves descriptors between cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The paper's software design: all-to-all lock-free SPSC lanes whose
    /// index words and slots travel through the cache-coherence fabric.
    AllToAll,
    /// The §3.4 counterfactual: ONE shared MPMC queue instead of per-pair
    /// lanes. Every producer and consumer contends on the same two cursor
    /// cache lines, multi-request slots are impossible, and completions ride
    /// a per-producer MPMC back-channel. Exists to measure what the paper's
    /// all-to-all design avoids.
    SharedMpmc,
}

/// The paper's compact request descriptor. Charged as 16 bytes on the ring
/// (key 8 B, buf 4 B, type+size 4 B); Rust-side it also carries the full
/// 64-bit slot sequence for bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Desc {
    /// The (possibly hashed) 8-byte key.
    pub key: u64,
    /// Receive-buffer slot sequence number (the `buf` field).
    pub seq: u64,
    /// Operation type.
    pub kind: OpKind,
    /// KV item size hint.
    pub size: u32,
}

/// Wire size of a descriptor (§3.4).
pub const DESC_BYTES: usize = 16;

impl Desc {
    /// The descriptor for `req`, claimed at receive slot `seq`. The size
    /// hint is a put's payload length or a scan's item count.
    pub fn of(req: &Request, seq: u64) -> Desc {
        let size = match req.op {
            Op::Put { value_len, .. } => value_len as u32,
            Op::Scan { count, .. } => count as u32,
            Op::Get { .. } | Op::Delete { .. } => 0,
        };
        Desc {
            key: req.op.key(),
            seq,
            kind: req.kind(),
            size,
        }
    }

    /// Packs the descriptor into its 16-byte wire form: key (8 B,
    /// little-endian), receive-slot sequence (4 B — the `buf` field), and a
    /// type+size word (2-bit [`OpKind`] code in the top bits, 30-bit size).
    ///
    /// The wire form narrows `seq` to 32 bits and `size` to 30 bits, exactly
    /// as the paper's descriptor does; [`Desc::decode`] round-trips any
    /// descriptor within those bounds (receive rings are far smaller than
    /// 2^32 slots, so in-flight seqs are distinguishable mod 2^32).
    pub fn encode(&self) -> [u8; DESC_BYTES] {
        let mut out = [0u8; DESC_BYTES];
        out[0..8].copy_from_slice(&self.key.to_le_bytes());
        out[8..12].copy_from_slice(&(self.seq as u32).to_le_bytes());
        let ts = ((self.kind.code() as u32) << 30) | (self.size & 0x3fff_ffff);
        out[12..16].copy_from_slice(&ts.to_le_bytes());
        out
    }

    /// Unpacks a descriptor from its wire form (inverse of [`Desc::encode`]).
    pub fn decode(wire: &[u8; DESC_BYTES]) -> Desc {
        let key = u64::from_le_bytes(wire[0..8].try_into().unwrap());
        let seq = u32::from_le_bytes(wire[8..12].try_into().unwrap()) as u64;
        let ts = u32::from_le_bytes(wire[12..16].try_into().unwrap());
        Desc {
            key,
            seq,
            kind: OpKind::from_code((ts >> 30) as u8),
            size: ts & 0x3fff_ffff,
        }
    }
}

/// One SPSC lane plus its completion counter.
struct Lane {
    ring: SpscRing<Desc>,
    /// Descriptors the consumer has reported complete.
    completed: u64,
    /// Completions the producer has consumed (uncharged producer-side
    /// bookkeeping; it lives with the lane so it survives role switches).
    acked: u64,
    pushed: u64,
    /// Virtual address charged for the completion counter word.
    completed_addr: usize,
}

/// Shared-queue state for [`QueueKind::SharedMpmc`]: one request queue and
/// one completion queue per producer. A side's slot line is charged `+128`
/// past its cursor.
struct SharedState {
    req: MpmcQueue<Desc>,
    comps: Vec<MpmcQueue<u64>>,
    pushed: Vec<u64>,
    completed: Vec<u64>,
    /// Uncharged: which producer pushed each in-flight seq, so its
    /// completion returns to the pusher whatever the CR layer's shape is by
    /// then.
    pusher: FxHashMap<u64, usize>,
}

/// The all-to-all CR-MR queue over `workers` total worker threads.
///
/// Lanes are indexed by *worker ids*, not roles, so thread reassignment
/// (§3.5) never invalidates a lane — a worker that switches layers simply
/// starts using the other side of its lanes.
pub struct CrMrQueue {
    workers: usize,
    lanes: Vec<Lane>,
    shared: Option<SharedState>,
    /// The waker of each consumer parked on its empty lanes, by worker id.
    idle: Vec<Option<Waker>>,
}

impl CrMrQueue {
    /// Creates the queue for `workers` workers with `capacity` descriptors
    /// per lane.
    pub fn new(workers: usize, capacity: usize) -> Self {
        CrMrQueue::with_kind(workers, capacity, QueueKind::AllToAll)
    }

    /// Creates the queue with an explicit transport kind.
    pub fn with_kind(workers: usize, capacity: usize, kind: QueueKind) -> Self {
        let shared = (kind == QueueKind::SharedMpmc).then(|| SharedState {
            req: MpmcQueue::new_at(capacity * workers, vaddr::SHARED_Q),
            comps: (0..workers)
                .map(|i| {
                    MpmcQueue::new_at(capacity, vaddr::SHARED_Q + (i + 1) * vaddr::SHARED_Q_STRIDE)
                })
                .collect(),
            pushed: vec![0; workers],
            completed: vec![0; workers],
            pusher: FxHashMap::default(),
        });
        // Lanes are laid out the way an allocator would place them, one
        // block after another: the ring, then the completion word on a line
        // of its own. A stride that is a multiple of 4 KiB would put every
        // lane's tail word in one L1 set (address bits 6–11 index it), and a
        // consumer's scan would evict its own tail lines on every pass.
        let mut next = vaddr::CRMR_LANES;
        let lanes = (0..workers * workers)
            .map(|_| {
                let ring = SpscRing::new_at(capacity, next);
                let completed_addr = (next + ring.span()).next_multiple_of(64);
                next = completed_addr + 64;
                Lane {
                    ring,
                    completed: 0,
                    acked: 0,
                    pushed: 0,
                    completed_addr,
                }
            })
            .collect();
        CrMrQueue {
            workers,
            lanes,
            shared,
            idle: (0..workers).map(|_| None).collect(),
        }
    }

    /// Whether this queue runs in the shared-MPMC counterfactual mode.
    fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// Shared mode: pushes one descriptor, contending on the global enqueue
    /// cursor. Returns false when the queue is full.
    fn push_shared(&mut self, ctx: &mut Ctx<'_>, producer: usize, d: Desc) -> bool {
        let s = self.shared.as_mut().expect("not in shared mode");
        // Every producer CASes the same cursor line: the storm is real.
        ctx.atomic(s.req.enqueue_addr());
        match s.req.try_push(d) {
            Ok(()) => {
                ctx.write(s.req.enqueue_addr() + 128, DESC_BYTES);
                s.pushed[producer] += 1;
                s.pusher.insert(d.seq, producer);
                let occ = s.req.len() as u64;
                ctx.machine().registry.raise(Gauge::CrmrSharedHwm, occ);
                true
            }
            Err(_) => false,
        }
    }

    /// Shared mode: pops up to `max` descriptors; every consumer contends on
    /// the global dequeue cursor (one CAS per element — no batch publish).
    fn pop_shared(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<Desc>, max: usize) -> usize {
        let s = self.shared.as_mut().expect("not in shared mode");
        let mut n = 0;
        while n < max {
            ctx.atomic(s.req.dequeue_addr());
            match s.req.try_pop() {
                Some(d) => {
                    ctx.read(s.req.dequeue_addr() + 128, DESC_BYTES);
                    out.push(d);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Shared mode: signals completion of `seq` back to the producer that
    /// pushed it.
    fn complete_shared(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        let s = self.shared.as_mut().expect("not in shared mode");
        let producer = s
            .pusher
            .remove(&seq)
            .expect("completion of an unpushed seq");
        ctx.atomic(s.comps[producer].enqueue_addr());
        ctx.write(s.comps[producer].enqueue_addr() + 128, 8);
        s.comps[producer]
            .try_push(seq)
            .expect("completion queue sized for the request queue");
        s.completed[producer] += 1;
    }

    /// Shared mode: pops a completed seq for `producer`.
    fn pop_completion_shared(&mut self, ctx: &mut Ctx<'_>, producer: usize) -> Option<u64> {
        let s = self.shared.as_mut().expect("not in shared mode");
        ctx.read(s.comps[producer].dequeue_addr(), 8);
        let r = s.comps[producer].try_pop();
        if r.is_some() {
            ctx.atomic(s.comps[producer].dequeue_addr());
        }
        r
    }

    #[inline]
    fn lane(&self, producer: usize, consumer: usize) -> &Lane {
        &self.lanes[producer * self.workers + consumer]
    }

    #[inline]
    fn lane_mut(&mut self, producer: usize, consumer: usize) -> &mut Lane {
        &mut self.lanes[producer * self.workers + consumer]
    }

    /// Producer side: pushes a batch of descriptors into lane
    /// (`producer` → `consumer`). Returns how many were accepted (the rest
    /// stay in `batch`).
    pub fn push_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        producer: usize,
        consumer: usize,
        batch: &mut Vec<Desc>,
    ) -> usize {
        assert!(!self.is_shared(), "lanes exist only in all-to-all mode");
        let lane = self.lane_mut(producer, consumer);
        if batch.is_empty() {
            return 0;
        }
        // One head probe + slot writes + one tail publish.
        ctx.read(lane.ring.head_addr(), 8);
        let start = lane.pushed;
        let n = lane.ring.push_batch(batch);
        if n > 0 {
            ctx.write(lane.ring.slot_addr(start as usize), DESC_BYTES * n);
            ctx.atomic(lane.ring.tail_addr());
            lane.pushed += n as u64;
            let occ = lane.ring.len() as u64;
            ctx.machine().registry.raise(Gauge::CrmrLaneHwm, occ);
            // The tail atomic does not always move the consumer's token: a
            // producer still holding the line modified takes it as an L1 hit.
            if let Some(waker) = self.idle[consumer].take() {
                waker.wake_at(SimTime::ZERO);
            }
        }
        n
    }

    /// Leaves a parked `consumer`'s waker for the next push into its lanes.
    pub(crate) fn park_consumer(&mut self, consumer: usize, waker: Waker) {
        self.idle[consumer] = Some(waker);
    }

    /// Wakes every parked consumer at its first scan after the calling step.
    pub fn wake_consumers(&mut self) {
        for waker in self.idle.iter_mut().filter_map(Option::take) {
            waker.wake_at(SimTime::ZERO);
        }
    }

    /// Consumer side: pops up to `max` descriptors from lane
    /// (`producer` → `consumer`).
    pub fn pop_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        producer: usize,
        consumer: usize,
        out: &mut Vec<Desc>,
        max: usize,
    ) -> usize {
        assert!(!self.is_shared(), "lanes exist only in all-to-all mode");
        let lane = self.lane_mut(producer, consumer);
        ctx.read(lane.ring.tail_addr(), 8);
        if lane.ring.is_empty() {
            return 0;
        }
        // Slots between head and tail start at (pushed - len).
        let first = lane.pushed - lane.ring.len() as u64;
        let n = lane.ring.pop_batch(out, max);
        if n > 0 {
            let slot = lane.ring.slot_addr(first as usize);
            ctx.read(slot, DESC_BYTES * n);
            ctx.write(lane.ring.head_addr(), 8);
            // Injected corruption-detection event: the descriptor CRC
            // fails and the consumer must re-read the batch.
            let m = ctx.machine();
            if m.faults.corrupt_active() && m.faults.corrupt_pop() {
                m.registry.inc(Counter::CrmrCorrupt);
                ctx.read(slot, DESC_BYTES * n);
            }
        }
        n
    }

    /// Producer side: revokes every descriptor still unpopped in lane
    /// (`producer` → `consumer`) after a lease expiry, appending them to
    /// `out` in push order. The producer re-reads the revoked slots and
    /// rewinds its publish cursor; descriptors the consumer already popped
    /// stay with the consumer, so a descriptor is never owned twice. In the
    /// single-threaded simulation the pop-and-rewind pair is atomic — it
    /// stands in for the lease handshake a concurrent port would need.
    /// Shared mode has no per-consumer lane to reclaim: returns 0.
    pub fn revoke_unpopped(
        &mut self,
        ctx: &mut Ctx<'_>,
        producer: usize,
        consumer: usize,
        out: &mut Vec<Desc>,
    ) -> usize {
        if self.is_shared() {
            return 0;
        }
        let lane = self.lane_mut(producer, consumer);
        let len = lane.ring.len();
        if len == 0 {
            return 0;
        }
        let first = lane.pushed - len as u64;
        let n = lane.ring.pop_batch(out, len);
        debug_assert_eq!(n, len, "revoke must drain the whole backlog");
        lane.pushed -= n as u64;
        ctx.read(lane.ring.slot_addr(first as usize), DESC_BYTES * n);
        ctx.atomic(lane.ring.tail_addr());
        n
    }

    /// Consumer side: signals that `n` more descriptors from this lane have
    /// completed processing (their responses are in the response buffers).
    pub fn complete(&mut self, ctx: &mut Ctx<'_>, producer: usize, consumer: usize, n: u64) {
        assert!(!self.is_shared(), "lanes exist only in all-to-all mode");
        let lane = self.lane_mut(producer, consumer);
        lane.completed += n;
        ctx.write(lane.completed_addr, 8);
    }

    /// Producer side: reads the lane's completion counter.
    pub fn completed(&self, ctx: &mut Ctx<'_>, producer: usize, consumer: usize) -> u64 {
        assert!(!self.is_shared(), "lanes exist only in all-to-all mode");
        let lane = self.lane(producer, consumer);
        ctx.read(lane.completed_addr, 8);
        lane.completed
    }

    /// Uncharged: descriptors currently queued in the lane.
    #[cfg(test)]
    pub(crate) fn lane_len(&self, producer: usize, consumer: usize) -> usize {
        self.lane(producer, consumer).ring.len()
    }

    /// Uncharged: whether every lane into `consumer` is drained and fully
    /// completed (the §3.5 role-switch precondition).
    pub(crate) fn consumer_idle(&self, consumer: usize) -> bool {
        if let Some(s) = &self.shared {
            return s.req.is_empty();
        }
        (0..self.workers).all(|p| {
            let lane = self.lane(p, consumer);
            lane.ring.is_empty() && lane.completed == lane.pushed
        })
    }

    /// Uncharged: whether every lane out of `producer` is fully completed
    /// (all its forwarded requests have answered).
    pub fn producer_idle(&self, producer: usize) -> bool {
        if let Some(s) = &self.shared {
            return s.pushed[producer] == s.completed[producer] && s.comps[producer].is_empty();
        }
        (0..self.workers).all(|c| {
            let lane = self.lane(producer, c);
            lane.ring.is_empty() && lane.completed == lane.pushed
        })
    }

    /// Uncharged: total descriptors pushed across all lanes (stats).
    pub(crate) fn total_pushed(&self) -> u64 {
        self.lanes.iter().map(|l| l.pushed).sum()
    }
}

/// The CR end of the queue for one worker: per-target descriptor
/// accumulation, a FIFO per lane of the seqs forwarded on it and not yet
/// answered, and each lane's descriptor lease.
///
/// The MR targets of every call are the `targets` range of worker ids
/// (`mr_lo..workers`). The shared counterfactual ignores them: it has one
/// queue, and `out[0]` stashes descriptors it had no room for.
pub(crate) struct Producer {
    id: usize,
    batch: usize,
    lease_ps: u64,
    /// Per-target-MR descriptor accumulation (indexed by worker id).
    out: Vec<Vec<Desc>>,
    /// Per-lane FIFO of forwarded seqs awaiting completion.
    pending: Vec<VecDeque<u64>>,
    /// Round-robin MR target.
    mr_rr: usize,
    /// Round-robin completion-poll lane.
    comp_rr: usize,
    /// Per-lane descriptor-lease deadline: a lane with pending work past
    /// this time has its unpopped backlog revoked (see `reclaim_expired`).
    lease_at: Vec<SimTime>,
}

impl Producer {
    /// The producer end of worker `id` on a `workers`-thread server pushing
    /// `batch`-descriptor slots under `lease_ps` leases (0 disables them).
    pub(crate) fn new(id: usize, workers: usize, batch: usize, lease_ps: u64) -> Self {
        Producer {
            id,
            batch,
            lease_ps,
            out: vec![Vec::new(); workers],
            pending: vec![VecDeque::new(); workers],
            mr_rr: 0,
            comp_rr: 0,
            lease_at: vec![SimTime::ZERO; workers],
        }
    }

    /// Descriptors accumulated but not pushed, plus those pushed and not
    /// yet answered.
    pub(crate) fn outstanding(&self) -> usize {
        self.out.iter().map(Vec::len).sum::<usize>()
            + self.pending.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Uncharged: whether everything this worker forwarded has completed.
    pub(crate) fn idle(&self, q: &CrMrQueue) -> bool {
        q.producer_idle(self.id)
    }

    /// Queues a descriptor toward the MR layer, pushing full batches.
    pub(crate) fn forward(
        &mut self,
        ctx: &mut Ctx<'_>,
        q: &mut CrMrQueue,
        desc: Desc,
        targets: Range<usize>,
    ) {
        ctx.machine().registry.inc(Counter::CrForward);
        let n_mr = targets.len();
        debug_assert!(n_mr > 0, "no MR workers to forward to");
        if q.is_shared() {
            // Counterfactual transport: one shared queue, one CAS per
            // descriptor; overflow retries from the stash on later steps.
            if !q.push_shared(ctx, self.id, desc) {
                self.out[0].push(desc);
            }
            return;
        }
        // Fill one target's multi-request slot to the batch size before
        // rotating to the next MR worker (§3.4: a slot is pushed only when
        // enough requests have accumulated).
        let target = targets.start + self.mr_rr % n_mr;
        self.out[target].push(desc);
        if self.out[target].len() >= self.batch {
            self.push_lane(ctx, q, target);
            self.mr_rr = (self.mr_rr + 1) % n_mr;
        }
    }

    /// Idle flush: pushes one partial batch so misses never starve (only
    /// toward workers that are legal MR targets right now).
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<'_>, q: &mut CrMrQueue, targets: Range<usize>) {
        if q.is_shared() {
            while let Some(d) = self.out[0].pop() {
                if !q.push_shared(ctx, self.id, d) {
                    self.out[0].push(d);
                    break;
                }
            }
            return;
        }
        for t in targets {
            if !self.out[t].is_empty() && self.push_lane(ctx, q, t) > 0 {
                break;
            }
        }
    }

    /// Redirects accumulated descriptors whose target has left `targets`
    /// during a reassignment, or their requests leak. While the worker
    /// keeps the CR role, a redirected slot is pushed once it fills; a
    /// `depart`ing worker spreads them and then pushes every partial slot.
    pub(crate) fn retarget(
        &mut self,
        ctx: &mut Ctx<'_>,
        q: &mut CrMrQueue,
        targets: Range<usize>,
        depart: bool,
    ) {
        if q.is_shared() {
            // Target-free transport: nothing goes stale, but a departing
            // worker still owes its stash.
            if depart {
                self.flush(ctx, q, targets);
            }
            return;
        }
        let (mr_lo, n_mr) = (targets.start, targets.len());
        let mut stale: Vec<Desc> = Vec::new();
        for t in 0..mr_lo {
            stale.append(&mut self.out[t]);
        }
        for d in stale {
            let target = mr_lo + self.mr_rr % n_mr;
            if depart {
                self.mr_rr = (self.mr_rr + 1) % n_mr;
            }
            self.out[target].push(d);
            if !depart && self.out[target].len() >= self.batch {
                self.push_lane(ctx, q, target);
                self.mr_rr = (self.mr_rr + 1) % n_mr;
            }
        }
        if depart {
            for t in targets {
                if !self.out[t].is_empty() {
                    self.push_lane(ctx, q, t);
                }
            }
        }
    }

    /// Polls the next lane with forwarded-but-unanswered requests (the
    /// shared mode: this worker's completion queue) and hands up to `limit`
    /// completed seqs to `send`, each as soon as it is read. Returns how
    /// many it handed over.
    pub(crate) fn poll(
        &mut self,
        ctx: &mut Ctx<'_>,
        q: &mut CrMrQueue,
        limit: usize,
        mut send: impl FnMut(&mut Ctx<'_>, u64),
    ) -> usize {
        if q.is_shared() {
            for n in 0..limit {
                let Some(seq) = q.pop_completion_shared(ctx, self.id) else {
                    return n;
                };
                send(ctx, seq);
            }
            return limit;
        }
        let Some(t) = self.poll_order().next() else {
            return 0;
        };
        let workers = self.pending.len();
        self.comp_rr = (t + 1) % workers;
        let completed = q.completed(ctx, self.id, t);
        let lane = q.lane_mut(self.id, t);
        let n = (completed - lane.acked).min(limit as u64);
        lane.acked += n;
        for _ in 0..n {
            let seq = self.pending[t]
                .pop_front()
                .expect("completion without pending seq");
            send(ctx, seq);
        }
        // Completion progress renews the lane's descriptor lease.
        if n > 0 && self.lease_ps > 0 {
            self.lease_at[t] = ctx.now() + self.lease_ps;
        }
        n as usize
    }

    /// The lanes with forwarded-but-unanswered requests, in the order the
    /// next polls read them.
    fn poll_order(&self) -> impl Iterator<Item = usize> + '_ {
        let workers = self.pending.len();
        (0..workers)
            .map(move |off| (self.comp_rr + off) % workers)
            .filter(|&t| !self.pending[t].is_empty())
    }

    /// How many lanes the completion polls rotate over.
    pub(crate) fn pending_lanes(&self) -> usize {
        self.poll_order().count()
    }

    /// Whether a quiet poll, repeated, may park on its grid: all-to-all
    /// lanes, nothing accumulated and unpushed, no lane holding a
    /// completion the rotation has yet to read, and the lanes' completion
    /// words in distinct L1 sets, so skipping their recency refreshes
    /// changes no victim choice (DESIGN.md §10 "Parked polls").
    pub(crate) fn may_park(&self, q: &CrMrQueue, cache: &CacheHierarchy) -> bool {
        // None of the checks depends on the rotation, so they walk the
        // polled lanes in index order.
        let lanes = || (0..self.pending.len()).filter(|&t| !self.pending[t].is_empty());
        let unread = |t: usize| {
            let lane = q.lane(self.id, t);
            lane.completed != lane.acked
        };
        if q.is_shared() || self.out.iter().any(|o| !o.is_empty()) || lanes().any(unread) {
            return false;
        }
        // Pairwise, without collecting: there are at most as many lanes as
        // MR workers.
        let set = |t: usize| cache.l1_set(q.lane(self.id, t).completed_addr);
        lanes().all(|t| {
            let s = set(t);
            lanes().take_while(|&u| u < t).all(|u| set(u) != s)
        })
    }

    /// The earliest lease deadline of a lane with pending work, if leases
    /// are on.
    pub(crate) fn next_lease(&self) -> Option<SimTime> {
        let leases = self.poll_order().map(|t| self.lease_at[t]);
        leases.min().filter(|_| self.lease_ps > 0)
    }

    /// Moves the completion-poll rotation past `k` skipped quiet polls.
    pub(crate) fn skip_polls(&mut self, k: u64) {
        let m = self.poll_order().count() as u64;
        if m == 0 || k == 0 {
            return;
        }
        let last = self.poll_order().nth(((k - 1) % m) as usize);
        self.comp_rr = (last.expect("k - 1 mod m < m") + 1) % self.pending.len();
    }

    /// Reclaims descriptor batches whose lease expired: a lane with pending
    /// work and no completion progress for `lease_ps` has its *unpopped*
    /// backlog revoked and re-forwarded to the other MR workers, so a
    /// stalled consumer delays only the batch it already popped. The shared
    /// queue has no per-consumer lane to reclaim.
    pub(crate) fn reclaim_expired(
        &mut self,
        ctx: &mut Ctx<'_>,
        q: &mut CrMrQueue,
        targets: Range<usize>,
    ) {
        let lease = self.lease_ps;
        if lease == 0 || q.is_shared() {
            return;
        }
        let (mr_lo, n_mr) = (targets.start, targets.len());
        if n_mr < 2 {
            return; // no other worker to hand the backlog to
        }
        let now = ctx.now();
        for t in 0..self.pending.len() {
            if self.pending[t].is_empty() || now <= self.lease_at[t] {
                continue;
            }
            let mut revoked: Vec<Desc> = Vec::new();
            let got = q.revoke_unpopped(ctx, self.id, t, &mut revoked);
            // Re-arm regardless: the already-popped prefix stays with the
            // consumer and must not re-trigger every step.
            self.lease_at[t] = now + lease;
            if got == 0 {
                continue;
            }
            let kept = self.pending[t]
                .len()
                .checked_sub(got)
                .expect("revoked more than pending");
            self.pending[t].truncate(kept);
            ctx.machine()
                .registry
                .add(Counter::CrmrLeaseReclaim, got as u64);
            for d in revoked {
                let mut target = mr_lo + self.mr_rr % n_mr;
                if target == t {
                    self.mr_rr = (self.mr_rr + 1) % n_mr;
                    target = mr_lo + self.mr_rr % n_mr;
                }
                self.out[target].push(d);
                self.mr_rr = (self.mr_rr + 1) % n_mr;
            }
            for tt in targets.clone() {
                if tt != t && !self.out[tt].is_empty() {
                    self.push_lane(ctx, q, tt);
                }
            }
        }
    }

    /// Pushes the accumulated batch for lane `target`, recording accepted
    /// seqs in the lane's completion FIFO and arming its descriptor lease.
    /// Returns how many were accepted.
    fn push_lane(&mut self, ctx: &mut Ctx<'_>, q: &mut CrMrQueue, target: usize) -> usize {
        let mut batch = core::mem::take(&mut self.out[target]);
        let pending = &mut self.pending[target];
        let before = pending.len();
        pending.extend(batch.iter().map(|d| d.seq));
        let pushed = q.push_batch(ctx, self.id, target, &mut batch);
        pending.truncate(before + pushed);
        if pushed > 0 && self.lease_ps > 0 {
            self.lease_at[target] = ctx.now() + self.lease_ps;
        }
        self.out[target] = batch;
        pushed
    }
}

/// One MR super-batch's completions, signalled together once the whole
/// batch has answered: the piggybacked lane-counter advances, and the
/// shared mode's seqs. With the durable tier it waits on the durability
/// barrier first — read-only batches too, since their responses may have
/// observed not-yet-durable writes applied in place by an earlier batch.
pub(crate) struct Retired {
    /// `(producer, count)` lane-counter advances.
    lanes: Vec<(usize, u64)>,
    /// Retired seqs held back in shared mode.
    shared: Vec<u64>,
}

/// The MR end of the queue for one worker: the producer scan and per-lane
/// pop counts of the current super-batch.
pub(crate) struct Consumer {
    id: usize,
    /// Descriptors popped per producer in the current super-batch.
    lane_pop: Vec<u32>,
    prod_rr: usize,
    scratch: Vec<Desc>,
    /// Shared-mode seqs retired in the current super-batch and held back.
    shared_done: Vec<u64>,
}

impl Consumer {
    /// The consumer end of worker `id` on a `workers`-thread server.
    pub(crate) fn new(id: usize, workers: usize) -> Self {
        Consumer {
            id,
            lane_pop: vec![0; workers],
            prod_rr: 0,
            scratch: Vec::new(),
            shared_done: Vec::new(),
        }
    }

    /// Pops up to `want` descriptors, scanning the producers round-robin,
    /// and hands each non-empty batch to `start` as soon as it is popped.
    /// Returns whether it scanned the lanes and found them all empty.
    pub(crate) fn pop(
        &mut self,
        ctx: &mut Ctx<'_>,
        q: &mut CrMrQueue,
        want: usize,
        mut start: impl FnMut(&mut Ctx<'_>, &[Desc]),
    ) -> bool {
        if q.is_shared() {
            self.scratch.clear();
            q.pop_shared(ctx, &mut self.scratch, want);
            if !self.scratch.is_empty() {
                start(ctx, &self.scratch);
            }
            return false;
        }
        let workers = self.lane_pop.len();
        let mut popped = 0;
        let mut scanned = 0;
        while popped < want && scanned < workers {
            let p = (self.prod_rr + scanned) % workers;
            scanned += 1;
            self.scratch.clear();
            let got = q.pop_batch(ctx, p, self.id, &mut self.scratch, want - popped);
            if got > 0 {
                popped += got;
                self.lane_pop[p] += got as u32;
                ctx.stage_transitions(1);
                start(ctx, &self.scratch);
            }
        }
        self.prod_rr = (self.prod_rr + scanned) % workers;
        popped == 0
    }

    /// Records that the request in slot `seq` has answered. Lanes signal a
    /// whole super-batch at once (see [`Consumer::seal`]); the shared mode
    /// completes each seq here unless `hold` keeps it for the batch.
    pub(crate) fn retire(&mut self, ctx: &mut Ctx<'_>, q: &mut CrMrQueue, seq: u64, hold: bool) {
        if !q.is_shared() {
            return;
        }
        if hold {
            self.shared_done.push(seq);
        } else {
            q.complete_shared(ctx, seq);
        }
    }

    /// Closes the current super-batch, taking its completions.
    pub(crate) fn seal(&mut self) -> Retired {
        let lanes = (self.lane_pop.iter_mut().enumerate())
            .filter(|(_, n)| **n > 0)
            .map(|(p, n)| (p, core::mem::take(n) as u64))
            .collect();
        Retired {
            lanes,
            shared: core::mem::take(&mut self.shared_done),
        }
    }

    /// Signals a sealed super-batch's completions to its producers, waking
    /// each that is parked on its poll grid: the counter write does not
    /// always move its core's token (a line the MR core still holds
    /// modified takes the write as an L1 hit, invalidating no sharer).
    pub(crate) fn release<M>(
        &self,
        ctx: &mut Ctx<'_>,
        q: &mut CrMrQueue,
        fabric: &mut Fabric<M>,
        retired: Retired,
    ) {
        for (p, n) in retired.lanes {
            q.complete(ctx, p, self.id, n);
            fabric.wake_server(p);
        }
        for seq in retired.shared {
            q.complete_shared(ctx, seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_sim::config::MachineConfig;
    use utps_sim::time::SimTime;
    use utps_sim::{Engine, StatClass};

    fn desc(key: u64, seq: u64) -> Desc {
        Desc {
            key,
            seq,
            kind: OpKind::Get,
            size: 8,
        }
    }

    fn with_queue<R: 'static>(
        q: CrMrQueue,
        f: impl FnOnce(&mut Ctx<'_>, &mut CrMrQueue) -> R + 'static,
    ) -> (R, CrMrQueue) {
        with_queue_on(MachineConfig::tiny(), 2, q, f)
    }

    /// Runs `f` once in a process pinned to core 0 of a `cores`-core
    /// machine.
    fn with_queue_on<R: 'static>(
        cfg: MachineConfig,
        cores: usize,
        q: CrMrQueue,
        f: impl FnOnce(&mut Ctx<'_>, &mut CrMrQueue) -> R + 'static,
    ) -> (R, CrMrQueue) {
        Engine::run_once(cfg, cores, StatClass::Cr, q, f)
    }

    #[test]
    fn desc_wire_roundtrip() {
        let cases = [
            Desc {
                key: 0,
                seq: 0,
                kind: OpKind::Get,
                size: 0,
            },
            Desc {
                key: u64::MAX,
                seq: u32::MAX as u64,
                kind: OpKind::Put,
                size: 0x3fff_ffff,
            },
            Desc {
                key: 0xdead_beef_cafe_f00d,
                seq: 7,
                kind: OpKind::Scan,
                size: 1024,
            },
            Desc {
                key: 42,
                seq: 99,
                kind: OpKind::Delete,
                size: 1,
            },
        ];
        // What `Desc::of` builds for each op kind, with its size hint.
        let of = |op| {
            let req = Request {
                client: 0,
                seq: 1,
                op,
                value: None,
                sent_at: SimTime::ZERO,
            };
            Desc::of(&req, 7)
        };
        let put = Op::Put {
            key: 5,
            value_len: 100,
        };
        let made = [
            (of(Op::Get { key: 5 }), OpKind::Get, 0),
            (of(put), OpKind::Put, 100),
            (of(Op::Scan { key: 5, count: 50 }), OpKind::Scan, 50),
            (of(Op::Delete { key: 5 }), OpKind::Delete, 0),
        ];
        for (d, kind, size) in made {
            assert_eq!((d.key, d.seq, d.kind, d.size), (5, 7, kind, size));
        }
        for d in cases.into_iter().chain(made.map(|(d, ..)| d)) {
            let wire = d.encode();
            assert_eq!(Desc::decode(&wire), d);
        }
    }

    #[test]
    fn desc_wire_layout() {
        let d = Desc {
            key: 0x0102_0304_0506_0708,
            seq: 0x0a0b_0c0d,
            kind: OpKind::Scan,
            size: 5,
        };
        let wire = d.encode();
        assert_eq!(
            &wire[0..8],
            &[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]
        );
        assert_eq!(&wire[8..12], &[0x0d, 0x0c, 0x0b, 0x0a]);
        // Type+size word: Scan (code 2) in the top 2 bits, size 5 below.
        assert_eq!(
            u32::from_le_bytes(wire[12..16].try_into().unwrap()),
            (2 << 30) | 5
        );
    }

    #[test]
    fn push_pop_complete_cycle() {
        let q = CrMrQueue::new(4, 64);
        let ((), q) = with_queue(q, |ctx, q| {
            let mut batch = vec![desc(1, 10), desc(2, 11), desc(3, 12)];
            assert_eq!(q.push_batch(ctx, 0, 2, &mut batch), 3);
            assert!(batch.is_empty());
            assert_eq!(q.lane_len(0, 2), 3);
            let mut out = Vec::new();
            assert_eq!(q.pop_batch(ctx, 0, 2, &mut out, 10), 3);
            assert_eq!(out[0].key, 1);
            assert_eq!(out[2].seq, 12);
            assert_eq!(q.completed(ctx, 0, 2), 0);
            q.complete(ctx, 0, 2, 3);
            assert_eq!(q.completed(ctx, 0, 2), 3);
        });
        assert!(q.consumer_idle(2));
        assert!(q.producer_idle(0));
    }

    #[test]
    fn lanes_are_independent() {
        let q = CrMrQueue::new(3, 16);
        let ((), q) = with_queue(q, |ctx, q| {
            let mut b1 = vec![desc(1, 1)];
            let mut b2 = vec![desc(2, 2)];
            q.push_batch(ctx, 0, 1, &mut b1);
            q.push_batch(ctx, 2, 1, &mut b2);
            let mut out = Vec::new();
            assert_eq!(q.pop_batch(ctx, 0, 1, &mut out, 10), 1);
            assert_eq!(out[0].key, 1);
            out.clear();
            assert_eq!(q.pop_batch(ctx, 2, 1, &mut out, 10), 1);
            assert_eq!(out[0].key, 2);
            assert_eq!(q.pop_batch(ctx, 1, 0, &mut out, 10), 0);
        });
        assert!(!q.consumer_idle(1), "completions still outstanding");
    }

    #[test]
    fn capacity_limits_push() {
        let q = CrMrQueue::new(2, 4);
        let ((), _) = with_queue(q, |ctx, q| {
            let mut batch: Vec<Desc> = (0..6).map(|i| desc(i, i)).collect();
            assert_eq!(q.push_batch(ctx, 0, 1, &mut batch), 4);
            assert_eq!(batch.len(), 2, "overflow must remain with producer");
            let mut out = Vec::new();
            q.pop_batch(ctx, 0, 1, &mut out, 2);
            assert_eq!(q.push_batch(ctx, 0, 1, &mut batch), 2);
        });
    }

    #[test]
    fn revoke_reclaims_only_unpopped() {
        let q = CrMrQueue::new(3, 16);
        let ((), q) = with_queue(q, |ctx, q| {
            let mut batch: Vec<Desc> = (0..5).map(|i| desc(i, i)).collect();
            assert_eq!(q.push_batch(ctx, 0, 1, &mut batch), 5);
            let mut popped = Vec::new();
            assert_eq!(q.pop_batch(ctx, 0, 1, &mut popped, 2), 2);
            // Lease expiry: the 3 unpopped descriptors come back; the 2
            // popped ones stay with the (stalled) consumer.
            let mut revoked = Vec::new();
            assert_eq!(q.revoke_unpopped(ctx, 0, 1, &mut revoked), 3);
            assert_eq!(
                revoked.iter().map(|d| d.key).collect::<Vec<_>>(),
                vec![2, 3, 4]
            );
            let mut rest = Vec::new();
            assert_eq!(q.pop_batch(ctx, 0, 1, &mut rest, 10), 0);
            // The popped prefix still completes normally and balances.
            q.complete(ctx, 0, 1, 2);
            assert_eq!(q.completed(ctx, 0, 1), 2);
            // Revoked descriptors are re-forwarded to another consumer.
            assert_eq!(q.push_batch(ctx, 0, 2, &mut revoked), 3);
            let mut redo = Vec::new();
            assert_eq!(q.pop_batch(ctx, 0, 2, &mut redo, 10), 3);
            q.complete(ctx, 0, 2, 3);
            // Empty revoke is a no-op.
            let mut none = Vec::new();
            assert_eq!(q.revoke_unpopped(ctx, 0, 1, &mut none), 0);
        });
        assert!(q.consumer_idle(1));
        assert!(q.consumer_idle(2));
        assert!(q.producer_idle(0), "lanes must balance after revoke");
    }

    #[test]
    fn idle_checks_respect_pending_completions() {
        let q = CrMrQueue::new(2, 8);
        let ((), q) = with_queue(q, |ctx, q| {
            let mut batch = vec![desc(5, 50)];
            q.push_batch(ctx, 0, 1, &mut batch);
            let mut out = Vec::new();
            q.pop_batch(ctx, 0, 1, &mut out, 1);
            // Popped but not completed: neither side is idle.
            assert!(!q.consumer_idle(1));
            assert!(!q.producer_idle(0));
            q.complete(ctx, 0, 1, 1);
        });
        assert!(q.consumer_idle(1));
        assert!(q.producer_idle(0));
        assert_eq!(q.total_pushed(), 1);
    }

    #[test]
    fn idle_mr_scan_stays_in_l1() {
        // With 16 workers an idle MR worker polls 16 tail words per scan.
        // On the default machine (64 L1 sets of 12 ways) they must spread
        // over enough sets to stay resident; the tiny machine's 8 sets
        // would alias any layout.
        let q = CrMrQueue::new(16, 256);
        let ((l1_hits, reads), _) = with_queue_on(MachineConfig::default(), 16, q, |ctx, q| {
            let mut scan = |ctx: &mut Ctx<'_>| {
                for producer in 0..16 {
                    assert_eq!(q.pop_batch(ctx, producer, 0, &mut Vec::new(), 8), 0);
                }
            };
            scan(ctx);
            let before = ctx.machine().cache.metrics.combined();
            for _ in 0..2 {
                // What a quiet scan that parks needs: 16 plain L1 hits.
                let v0 = ctx.private_version();
                scan(ctx);
                assert_eq!(ctx.private_version() - v0, 16);
            }
            let after = ctx.machine().cache.metrics.combined();
            (after.l1 - before.l1, after.total() - before.total())
        });
        assert_eq!(reads, 32, "one tail read per lane per scan");
        assert_eq!(l1_hits, 32, "every tail word stays in L1 after a scan");
    }
}
