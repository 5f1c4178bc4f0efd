//! Reconfigurable RPC (§3.2.1): a single-queue receive buffer shared by all
//! worker threads.
//!
//! The server-side RNIC appends requests from all clients to one ring of
//! receive-buffer slots (modeled after an RDMA shared receive queue with
//! multi-packet receive buffers). Worker *i* of *n* claims the slots whose
//! sequence number satisfies `seq mod n == i`; changing `n` is a single
//! global-variable update at a pre-announced switch sequence number, with no
//! client coordination — that is the whole point of the design.
//!
//! Slots are processed independently (no head-of-line blocking): each slot
//! walks Free → Posted → InFlight → Done → Free on its own, and the NIC only
//! stalls (backpressuring clients) when the *next* slot to fill has not been
//! freed yet, which models RNR backpressure on the real SRQ.
//!
//! The NIC's DMA into a slot charges [`CacheHierarchy::nic_write`] — the
//! DDIO path — so a receive buffer small enough to stay LLC-resident makes
//! request polling nearly miss-free, and cache-thrashed buffers produce the
//! DDIO-initiated misses of §2.2.1.
//!
//! [`CacheHierarchy::nic_write`]: utps_sim::cache::CacheHierarchy::nic_write

use utps_sim::cache::CacheHierarchy;
use utps_sim::time::SimTime;
use utps_sim::{vaddr, Counter, Ctx, Fabric, Machine, PayloadRef, RecvFate};
use utps_workload::Op;

use crate::msg::{NetMsg, Request, Response};
use crate::retry::DedupTable;
use crate::shardctl::{Admit, ShardCtl};

/// Per-slot lifecycle.
enum SlotState {
    /// Available for the NIC.
    Free,
    /// DMAed by the NIC, not yet claimed by a worker.
    Posted(Request),
    /// Claimed; the request stays readable (put payloads are copied out of
    /// the receive buffer by the memory-resident layer).
    InFlight(Request),
    /// Response ready to be sent by the owning CR worker.
    Done(Request, Response),
}

/// Bytes per receive-ring slot and per response-buffer region: a 1 KB value
/// plus message headers.
pub const SLOT_BYTES: usize = 1152;

/// The single-queue receive ring.
pub struct RecvRing {
    slot_size: usize,
    nslots: usize,
    /// Virtual base of the slot bytes (see [`utps_sim::vaddr`]); slot
    /// addresses for cache charging are derived from it deterministically.
    virt_base: usize,
    slots: Vec<SlotState>,
    head: u64,
    /// Per-request parse cost in ns. The single-queue reconfigurable RPC
    /// pays slightly more per message (MP-RQ slot bookkeeping) than eRPC's
    /// heavily optimized per-worker path; eRPCKV lowers this.
    pub parse_ns: u64,
}

impl RecvRing {
    /// Creates a ring of `nslots` slots of `slot_size` bytes each.
    ///
    /// The paper keeps the total receive buffer small (≪ LLC) so DDIO keeps
    /// it cache-resident; defaults in [`crate::experiment`] follow that.
    pub fn new(nslots: usize, slot_size: usize) -> Self {
        RecvRing::new_at(nslots, slot_size, vaddr::RECV_RING)
    }

    /// Like [`RecvRing::new`], placing the slots at `virt_base` (per-worker
    /// rings use `RECV_RING + worker * RECV_RING_STRIDE`).
    pub fn new_at(nslots: usize, slot_size: usize, virt_base: usize) -> Self {
        assert!(
            nslots.is_power_of_two(),
            "slot count must be a power of two"
        );
        RecvRing {
            slot_size,
            nslots,
            virt_base,
            slots: (0..nslots).map(|_| SlotState::Free).collect(),
            head: 0,
            parse_ns: 12,
        }
    }

    /// Total receive buffer bytes.
    pub fn bytes(&self) -> usize {
        self.nslots * self.slot_size
    }

    /// Next sequence number the NIC will fill.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Memory address of the slot for `seq`.
    pub fn slot_addr(&self, seq: u64) -> usize {
        self.virt_base + (seq as usize % self.nslots) * self.slot_size
    }

    #[inline]
    fn idx(&self, seq: u64) -> usize {
        seq as usize % self.nslots
    }

    /// NIC-side: DMA one request into the ring. Fails (returning the
    /// request) when the target slot is still occupied — SRQ backpressure.
    pub fn try_dma(&mut self, cache: &mut CacheHierarchy, req: Request) -> Result<u64, Request> {
        let idx = self.idx(self.head);
        if !matches!(self.slots[idx], SlotState::Free) {
            return Err(req);
        }
        let seq = self.head;
        let len = req.wire_len().min(self.slot_size);
        cache.nic_write(self.slot_addr(seq), len);
        self.slots[idx] = SlotState::Posted(req);
        self.head += 1;
        Ok(seq)
    }

    /// Drains up to `limit` arrived requests from the fabric into the ring,
    /// each through [`recv_fate`]. Returns how many were DMAed.
    pub fn pump(
        &mut self,
        m: &mut Machine,
        fabric: &mut Fabric<NetMsg>,
        now: SimTime,
        limit: usize,
    ) -> usize {
        let mut n = 0;
        // Dropped/delayed polls consume no ring slot; bound them separately
        // so a lossy fabric cannot spin this loop unboundedly.
        let mut polls = 0;
        while n < limit && polls < limit * 4 {
            if !matches!(self.slots[self.idx(self.head)], SlotState::Free) {
                break;
            }
            match fabric.server_poll(now) {
                Some(NetMsg::Req(req)) => {
                    polls += 1;
                    let Some(req) = recv_fate(m, fabric, now, req) else {
                        continue;
                    };
                    self.try_dma(&mut m.cache, req).expect("slot checked free");
                    n += 1;
                }
                Some(NetMsg::Resp(_)) => unreachable!("server received a response"),
                None => break,
            }
        }
        n
    }

    /// Whether the slot for `seq` holds an unclaimed request.
    pub fn is_posted(&self, seq: u64) -> bool {
        seq < self.head && matches!(self.slots[self.idx(seq)], SlotState::Posted(_))
    }

    /// Counted variant of [`RecvRing::is_posted`]: the worker polling path,
    /// counting `ring.polls` and `ring.poll_hits` so their ratio measures
    /// how often the poll loop finds work (receive-ring poll efficiency).
    pub(crate) fn poll_posted(&self, ctx: &mut Ctx<'_>, seq: u64) -> bool {
        let hit = self.is_posted(seq);
        let reg = &mut ctx.machine().registry;
        reg.inc(Counter::RingPolls);
        if hit {
            reg.inc(Counter::RingPollHits);
        }
        hit
    }

    /// Worker-side: claims the request at `seq`, charging the header read.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in the `Posted` state.
    pub fn claim(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        ctx.read(self.slot_addr(seq), 64);
        ctx.compute_ns(self.parse_ns); // parse: type, key, size
        let idx = self.idx(seq);
        match core::mem::replace(&mut self.slots[idx], SlotState::Free) {
            SlotState::Posted(req) => self.slots[idx] = SlotState::InFlight(req),
            _ => panic!("claim of non-posted slot {seq}"),
        }
    }

    /// The in-flight request at `seq` (for the MR layer's payload access).
    pub fn request(&self, seq: u64) -> &Request {
        match &self.slots[self.idx(seq)] {
            SlotState::InFlight(r) | SlotState::Done(r, _) => r,
            _ => panic!("no in-flight request at {seq}"),
        }
    }

    /// Takes the payload ref out of the in-flight request at `seq`, leaving
    /// `None` behind. Each request's payload is consumed exactly once (moved
    /// into KV storage or freed); nulling the slot makes a second
    /// consumption — e.g. after lease revocation re-spreads a descriptor —
    /// an immediate panic instead of a silent aliasing bug.
    pub(crate) fn take_value(&mut self, seq: u64) -> Option<PayloadRef> {
        let idx = self.idx(seq);
        match &mut self.slots[idx] {
            SlotState::InFlight(r) | SlotState::Done(r, _) => r.value.take(),
            _ => panic!("no in-flight request at {seq}"),
        }
    }

    /// Deposits the response for `seq` (MR layer or CR local path).
    pub fn complete(&mut self, seq: u64, resp: Response) {
        let idx = self.idx(seq);
        let state = core::mem::replace(&mut self.slots[idx], SlotState::Free);
        match state {
            SlotState::InFlight(req) => self.slots[idx] = SlotState::Done(req, resp),
            _ => panic!("complete of non-inflight slot {seq}"),
        }
    }

    /// Whether `seq` has a response waiting.
    pub fn is_done(&self, seq: u64) -> bool {
        matches!(self.slots[self.idx(seq)], SlotState::Done(..))
    }

    /// Takes the response and frees the slot (the recv buffer slot returns
    /// to the SRQ).
    pub fn release(&mut self, seq: u64) -> Response {
        let idx = self.idx(seq);
        match core::mem::replace(&mut self.slots[idx], SlotState::Free) {
            SlotState::Done(_, resp) => resp,
            _ => panic!("release of incomplete slot {seq}"),
        }
    }

    /// Frees a slot without a response (reconfiguration drains, tests).
    pub fn abort(&mut self, seq: u64) {
        let idx = self.idx(seq);
        self.slots[idx] = SlotState::Free;
    }
}

/// Per-worker response buffers (§3.2.1: small — reused across batches).
pub struct RespBuffers {
    region: usize,
    regions_per_worker: usize,
    virt_base: usize,
    workers: usize,
}

impl RespBuffers {
    /// Creates buffers for `workers` workers, each `regions × region` bytes
    /// (the paper's 64 KB default = 64 × 1 KB).
    pub fn new(workers: usize, regions_per_worker: usize, region: usize) -> Self {
        RespBuffers {
            region,
            regions_per_worker,
            virt_base: vaddr::RESP_BUF,
            workers,
        }
    }

    /// Bytes per worker.
    #[cfg(test)]
    pub(crate) fn worker_bytes(&self) -> usize {
        self.regions_per_worker * self.region
    }

    /// The response-buffer address for request `seq` owned by `worker`.
    pub fn addr_for(&self, worker: usize, seq: u64) -> usize {
        debug_assert!(worker < self.workers);
        let r = (seq as usize) % self.regions_per_worker;
        self.virt_base + (worker * self.regions_per_worker + r) * self.region
    }
}

/// The receive-path fault plan's verdict on one *fresh* fabric arrival
/// (a redelivery or a router's overflow retry already "arrived" once):
/// `None` when the request was dropped — its NIC buffer, payload included,
/// is recycled with the packet — or delayed (redelivered later); otherwise
/// the request to deliver now. A duplicated packet occupies a NIC buffer of
/// its own, so the later copy is a [`Request::dup`] — the one deep copy the
/// zero-copy rule exempts.
pub fn recv_fate(
    m: &mut Machine,
    fabric: &mut Fabric<NetMsg>,
    now: SimTime,
    req: Request,
) -> Option<Request> {
    if !m.faults.net_active() {
        return Some(req);
    }
    match m.faults.recv_fate() {
        RecvFate::Drop => {
            m.registry.inc(Counter::FaultRxDrop);
            if let Some(v) = req.value {
                m.payloads.free(v);
            }
            None
        }
        RecvFate::Delay { delay } => {
            m.registry.inc(Counter::FaultRxDelay);
            fabric.redeliver_server(now + delay, NetMsg::Req(req));
            None
        }
        RecvFate::Duplicate { delay } => {
            m.registry.inc(Counter::FaultRxDup);
            let dup = req.dup(&mut m.payloads);
            fabric.redeliver_server(now + delay, NetMsg::Req(dup));
            Some(req)
        }
        RecvFate::Deliver => Some(req),
    }
}

/// What [`admit`] decided about a claimed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// This shard may not serve the key right now (its hash slot is frozen
    /// for migration, or ownership flipped while the request was in
    /// flight): answered with the `moved` bit, slot freed.
    Bounced,
    /// A retransmitted write whose original already completed: acknowledged
    /// again without executing, slot freed.
    Suppressed,
    /// Execute it; the migration controller's in-flight count includes it.
    Serve,
}

/// Admission of the request a worker just claimed at slot `seq` — the one
/// place a server consults the cluster router and the exactly-once filter.
///
/// A key this shard does not own bounces with [`Response::moved`]; the
/// client re-routes it under the same client sequence number, so
/// exactly-once holds across the handoff. A write the [`DedupTable`] has
/// seen is acknowledged, not re-executed (reads are idempotent and simply
/// run again). Either refusal frees the write's never-consumed payload with
/// the slot and sends the header-only reply from `resp_addr`. Anything else
/// enters execution ([`ShardCtl::op_begin`]).
pub fn admit(
    ctx: &mut Ctx<'_>,
    ring: &mut RecvRing,
    fabric: &mut Fabric<NetMsg>,
    dedup: &DedupTable,
    cluster: Option<&ShardCtl>,
    resp_addr: usize,
    seq: u64,
) -> Admission {
    let req = ring.request(seq);
    let key = req.op.key();
    let is_write = matches!(req.op, Op::Put { .. } | Op::Delete { .. });
    let refusal = if cluster.is_some_and(|cl| cl.admit(key, is_write) == Admit::Bounce) {
        ctx.machine().registry.inc(Counter::ClusterMovedBounce);
        Admission::Bounced
    } else if is_write && dedup.enabled() && dedup.seen(req.client, req.seq) {
        ctx.machine().registry.inc(Counter::ServerDupSuppressed);
        Admission::Suppressed
    } else {
        if let Some(cl) = cluster {
            cl.op_begin(key, seq);
        }
        return Admission::Serve;
    };
    let mut resp = Response::header(req, resp_addr);
    resp.ok = refusal == Admission::Suppressed;
    resp.moved = refusal == Admission::Bounced;
    if let Some(v) = ring.take_value(seq) {
        ctx.machine().payloads.free(v);
    }
    ring.abort(seq);
    send_response(ctx, fabric, resp);
    refusal
}

/// Sends `resp` to its client: the RNIC DMA-reads the response buffer at
/// `resp.resp_addr` (never touching core caches — §3.3) and the worker pays
/// the doorbell.
pub fn send_response(ctx: &mut Ctx<'_>, fabric: &mut Fabric<NetMsg>, resp: Response) {
    ctx.compute_ns(12); // WQE write + doorbell (amortized across a batch)
    let now = ctx.now();
    let wire = resp.wire_len();
    let client = resp.client as usize;
    ctx.machine()
        .cache
        .nic_read(resp.resp_addr, wire.min(1 << 16));
    fabric.server_send(now, wire, client, NetMsg::Resp(resp));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shardctl::StubHooks;
    use std::cell::RefCell;
    use std::rc::Rc;
    use utps_sim::config::MachineConfig;
    use utps_sim::{Engine, StatClass};
    use utps_workload::Op;

    fn req(client: u32, seq: u64, key: u64) -> Request {
        Request {
            client,
            seq,
            op: Op::Get { key },
            value: None,
            sent_at: SimTime::ZERO,
        }
    }

    fn resp(client: u32, seq: u64) -> Response {
        Response {
            client,
            seq,
            ok: true,
            moved: false,
            value: None,
            scan_count: 0,
            payload_extra: 0,
            resp_addr: 0,
            sent_at: SimTime::ZERO,
        }
    }

    struct World {
        ring: RecvRing,
        fabric: Fabric<NetMsg>,
    }

    fn with_world<R: 'static>(
        world: World,
        f: impl FnOnce(&mut Ctx<'_>, &mut World) -> R + 'static,
    ) -> (R, World) {
        Engine::run_once(MachineConfig::tiny(), 2, StatClass::Cr, world, f)
    }

    #[test]
    fn slot_lifecycle() {
        let world = World {
            ring: RecvRing::new(8, 256),
            fabric: Fabric::new(Default::default(), 1),
        };
        let ((), _) = with_world(world, |ctx, w| {
            let cache = &mut ctx.machine().cache;
            let seq = w.ring.try_dma(cache, req(0, 1, 42)).unwrap();
            assert_eq!(seq, 0);
            assert!(w.ring.is_posted(seq));
            w.ring.claim(ctx, seq);
            assert_eq!(w.ring.request(seq).op, Op::Get { key: 42 });
            assert!(!w.ring.is_posted(seq));
            assert_eq!(w.ring.request(seq).seq, 1);
            w.ring.complete(seq, resp(0, 1));
            assert!(w.ring.is_done(seq));
            let out = w.ring.release(seq);
            assert_eq!(out.seq, 1);
            assert!(!w.ring.is_done(seq));
        });
    }

    #[test]
    fn backpressure_when_slot_busy() {
        let world = World {
            ring: RecvRing::new(4, 256),
            fabric: Fabric::new(Default::default(), 1),
        };
        let ((), _) = with_world(world, |ctx, w| {
            let rejected = {
                let cache = &mut ctx.machine().cache;
                // Fill all 4 slots without freeing.
                for i in 0..4 {
                    w.ring.try_dma(cache, req(0, i, i)).unwrap();
                }
                let rejected = w.ring.try_dma(cache, req(0, 9, 9));
                assert!(rejected.is_err(), "ring must backpressure");
                rejected.unwrap_err()
            };
            // Freeing the head slot re-enables DMA at seq 4.
            w.ring.claim(ctx, 0);
            w.ring.complete(0, resp(0, 0));
            w.ring.release(0);
            let cache = &mut ctx.machine().cache;
            let seq = w.ring.try_dma(cache, rejected).unwrap();
            assert_eq!(seq, 4);
        });
    }

    #[test]
    fn pump_moves_fabric_arrivals() {
        let mut fabric = Fabric::new(Default::default(), 1);
        for i in 0..3 {
            fabric.client_send(SimTime::ZERO, 64, NetMsg::Req(req(0, i, i)));
        }
        let world = World {
            ring: RecvRing::new(8, 256),
            fabric,
        };
        let ((), _) = with_world(world, |ctx, w| {
            // Nothing has arrived yet at t≈0.
            let now = ctx.now();
            let m = ctx.machine();
            assert_eq!(w.ring.pump(m, &mut w.fabric, now, 16), 0);
            // Well after the propagation delay, all three arrive.
            let later = SimTime::from_micros(50);
            ctx.advance_to(later);
            let m = ctx.machine();
            assert_eq!(w.ring.pump(m, &mut w.fabric, later, 16), 3);
            assert!(w.ring.is_posted(0) && w.ring.is_posted(1) && w.ring.is_posted(2));
            assert_eq!(w.ring.head(), 3);
        });
    }

    #[test]
    fn ddio_metrics_recorded_on_dma() {
        let world = World {
            ring: RecvRing::new(8, 256),
            fabric: Fabric::new(Default::default(), 1),
        };
        let ((), _) = with_world(world, |ctx, w| {
            let cache = &mut ctx.machine().cache;
            w.ring.try_dma(cache, req(0, 0, 0)).unwrap();
            assert!(cache.metrics.ddio_allocs > 0);
        });
    }

    #[test]
    fn response_buffer_addresses_disjoint_by_worker() {
        let bufs = RespBuffers::new(4, 64, 1024);
        assert_eq!(bufs.worker_bytes(), 64 * 1024);
        let a = bufs.addr_for(0, 0);
        let b = bufs.addr_for(1, 0);
        assert!(b >= a + 64 * 1024);
        // Regions wrap within a worker.
        assert_eq!(bufs.addr_for(2, 3), bufs.addr_for(2, 3 + 64));
    }

    #[test]
    fn admit_bounces_suppresses_or_serves() {
        let world = World {
            ring: RecvRing::new(4, 256),
            fabric: Fabric::new(Default::default(), 2),
        };
        let hooks = Rc::new(RefCell::new(StubHooks::default()));
        let stub = Rc::clone(&hooks);
        let ((), mut world) = with_world(world, move |ctx, w| {
            let ctl = ShardCtl {
                shard: 3,
                hooks: stub.clone(),
            };
            let mut dedup = DedupTable::new(2, true);
            dedup.record(1, 5);
            let live = ctx.machine().payloads.live();
            // Claims a request as (`client`, client seq 5) and admits it.
            let mut claim_and_admit = |ctx: &mut Ctx<'_>, client: u32, key: u64, put: bool| {
                let mut r = req(client, 5, key);
                if put {
                    r.op = Op::Put { key, value_len: 8 };
                    r.value = Some(ctx.machine().payloads.alloc(vec![7u8; 8].into()));
                }
                let seq = w.ring.try_dma(&mut ctx.machine().cache, r).unwrap();
                w.ring.claim(ctx, seq);
                let fabric = &mut w.fabric;
                admit(ctx, &mut w.ring, fabric, &dedup, Some(&ctl), 0x5000, seq)
            };

            // A key the router refuses bounces, whatever the dedup table says.
            stub.borrow_mut().bounce = true;
            assert_eq!(claim_and_admit(ctx, 0, 9, true), Admission::Bounced);
            stub.borrow_mut().bounce = false;
            // A write whose (client, seq) already completed is acked again.
            assert_eq!(claim_and_admit(ctx, 1, 9, true), Admission::Suppressed);
            // Neither refusal entered execution or consumed the payload.
            assert!(stub.borrow().begun.is_empty());
            assert_eq!(ctx.machine().payloads.live(), live);
            // A read with a seen (client, seq) is idempotent: served.
            assert_eq!(claim_and_admit(ctx, 1, 9, false), Admission::Serve);
            assert_eq!(claim_and_admit(ctx, 0, 11, false), Admission::Serve);
            assert_eq!(stub.borrow().begun, [(3, 9, 2), (3, 11, 3)]);
            // Both refused slots were freed: the ring wraps onto them.
            let cache = &mut ctx.machine().cache;
            assert_eq!(w.ring.try_dma(cache, req(0, 6, 1)).unwrap(), 4);
            assert_eq!(w.ring.try_dma(cache, req(0, 7, 1)).unwrap(), 5);
            assert!(w.ring.try_dma(cache, req(0, 8, 1)).is_err());
        });
        assert_eq!(hooks.borrow().ended, 0);
        // Exactly the two refusals answered, header-only.
        let later = SimTime::from_micros(100);
        for (client, ok, moved) in [(0, false, true), (1, true, false)] {
            match world.fabric.client_poll(client, later) {
                Some(NetMsg::Resp(r)) => {
                    assert_eq!((r.seq, r.ok, r.moved), (5, ok, moved));
                    assert_eq!(r.wire_len(), crate::msg::RESP_HEADER);
                }
                other => panic!("unexpected {other:?}"),
            }
            assert!(world.fabric.client_poll(client, later).is_none());
        }
    }

    #[test]
    fn send_response_reaches_client() {
        let world = World {
            ring: RecvRing::new(4, 256),
            fabric: Fabric::new(Default::default(), 2),
        };
        let ((), mut world) = with_world(world, |ctx, w| {
            send_response(ctx, &mut w.fabric, resp(1, 77));
        });
        let msg = world.fabric.client_poll(1, SimTime::from_micros(100));
        match msg {
            Some(NetMsg::Resp(r)) => assert_eq!(r.seq, 77),
            other => panic!("unexpected {other:?}"),
        }
        assert!(world
            .fabric
            .client_poll(0, SimTime::from_micros(100))
            .is_none());
    }
}
