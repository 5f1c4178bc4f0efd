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

use utps_collections::{MpmcQueue, SpscRing};
use utps_sim::{vaddr, Ctx};
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
                    MpmcQueue::new_at(
                        capacity,
                        vaddr::SHARED_Q + (i + 1) * vaddr::CRMR_LANE_STRIDE,
                    )
                })
                .collect(),
            pushed: vec![0; workers],
            completed: vec![0; workers],
        });
        CrMrQueue {
            workers,
            lanes: (0..workers * workers)
                .map(|i| {
                    let base = vaddr::CRMR_LANES + i * vaddr::CRMR_LANE_STRIDE;
                    Lane {
                        ring: SpscRing::new_at(capacity, base),
                        completed: 0,
                        pushed: 0,
                        // The completion word lives on its own line, clear of
                        // the ring's slot area.
                        completed_addr: base + vaddr::CRMR_LANE_STRIDE / 2,
                    }
                })
                .collect(),
            shared,
        }
    }

    /// Whether this queue runs in the shared-MPMC counterfactual mode.
    pub fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// Shared mode: pushes one descriptor, contending on the global enqueue
    /// cursor. Returns false when the queue is full.
    pub fn push_shared(&mut self, ctx: &mut Ctx<'_>, producer: usize, d: Desc) -> bool {
        let s = self.shared.as_mut().expect("not in shared mode");
        // Every producer CASes the same cursor line: the storm is real.
        ctx.atomic(s.req.enqueue_addr());
        match s.req.try_push(d) {
            Ok(()) => {
                ctx.write(s.req.enqueue_addr() + 128, DESC_BYTES);
                s.pushed[producer] += 1;
                let occ = s.req.len() as u64;
                ctx.machine().registry.gauge_max("crmr.shared_hwm", occ);
                true
            }
            Err(_) => false,
        }
    }

    /// Shared mode: pops up to `max` descriptors; every consumer contends on
    /// the global dequeue cursor (one CAS per element — no batch publish).
    pub fn pop_shared(&mut self, ctx: &mut Ctx<'_>, out: &mut Vec<Desc>, max: usize) -> usize {
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

    /// Shared mode: signals completion of `seq` back to `producer`.
    pub fn complete_shared(&mut self, ctx: &mut Ctx<'_>, producer: usize, seq: u64) {
        let s = self.shared.as_mut().expect("not in shared mode");
        ctx.atomic(s.comps[producer].enqueue_addr());
        ctx.write(s.comps[producer].enqueue_addr() + 128, 8);
        s.comps[producer]
            .try_push(seq)
            .expect("completion queue sized for the request queue");
        s.completed[producer] += 1;
    }

    /// Shared mode: pops a completed seq for `producer`.
    pub fn pop_completion_shared(&mut self, ctx: &mut Ctx<'_>, producer: usize) -> Option<u64> {
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
        assert!(!self.is_shared(), "use push_shared");
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
            ctx.machine().registry.gauge_max("crmr.lane_hwm", occ);
        }
        n
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
        assert!(!self.is_shared(), "use pop_shared");
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
                m.registry.counter_inc("crmr.corrupt");
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
        assert!(!self.is_shared(), "use complete_shared");
        let lane = self.lane_mut(producer, consumer);
        lane.completed += n;
        ctx.write(lane.completed_addr, 8);
    }

    /// Producer side: reads the lane's completion counter.
    pub fn completed(&self, ctx: &mut Ctx<'_>, producer: usize, consumer: usize) -> u64 {
        assert!(!self.is_shared(), "use pop_completion_shared");
        let lane = self.lane(producer, consumer);
        ctx.read(lane.completed_addr, 8);
        lane.completed
    }

    /// Uncharged: descriptors currently queued in the lane.
    pub fn lane_len(&self, producer: usize, consumer: usize) -> usize {
        self.lane(producer, consumer).ring.len()
    }

    /// Uncharged: whether every lane into `consumer` is drained and fully
    /// completed (the §3.5 role-switch precondition).
    pub fn consumer_idle(&self, consumer: usize) -> bool {
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

    /// Uncharged peek of a lane's completion counter (role-switch resync:
    /// a worker re-entering the CR role must not re-interpret completions
    /// from its previous incarnation).
    pub fn completed_peek(&self, producer: usize, consumer: usize) -> u64 {
        self.lane(producer, consumer).completed
    }

    /// Uncharged: total descriptors pushed across all lanes (stats).
    pub fn total_pushed(&self) -> u64 {
        self.lanes.iter().map(|l| l.pushed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use utps_sim::config::MachineConfig;
    use utps_sim::time::SimTime;
    use utps_sim::{Engine, Process, StatClass, StepOutcome};

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
        struct Once<F, R> {
            f: Option<F>,
            out: Rc<RefCell<Option<R>>>,
        }
        impl<F: FnOnce(&mut Ctx<'_>, &mut CrMrQueue) -> R, R> Process<CrMrQueue> for Once<F, R> {
            fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut CrMrQueue) -> StepOutcome {
                if let Some(f) = self.f.take() {
                    *self.out.borrow_mut() = Some(f(ctx, world));
                }
                ctx.halt();
                StepOutcome::Idle
            }
        }
        let out = Rc::new(RefCell::new(None));
        let mut eng = Engine::new(MachineConfig::tiny(), 2, q);
        eng.spawn(
            Some(0),
            StatClass::Cr,
            Box::new(Once {
                f: Some(f),
                out: Rc::clone(&out),
            }),
        );
        eng.run_until(SimTime::from_millis(1));
        let r = out.borrow_mut().take().expect("did not run");
        (r, eng.world)
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
}
