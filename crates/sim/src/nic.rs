//! Simulated RDMA fabric: pipes with bandwidth/message-rate limits plus
//! delay queues.
//!
//! The model covers what the paper's evaluation exercises:
//!
//! * clients send requests over a shared 200 Gb/s inbound pipe; the
//!   server-side RNIC DMAs them into receive-buffer slots (the DMA itself is
//!   performed by the RPC layer, which charges [`CacheHierarchy::nic_write`]
//!   — DDIO — for each delivered message);
//! * the server sends responses over a shared outbound pipe to per-client
//!   delivery queues;
//! * one-sided verbs for the passive baselines are ordinary messages executed
//!   by a NIC DMA-engine process in `utps-baselines`.
//!
//! [`CacheHierarchy::nic_write`]: crate::cache::CacheHierarchy::nic_write

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::config::NetConfig;
use crate::engine::Waker;
use crate::time::SimTime;

/// A message annotated with its delivery time.
struct Pending<M> {
    at: SimTime,
    seq: u64,
    msg: M,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Pending<M> {}

impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap becomes a min-heap on (at, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered delivery queue.
pub(crate) struct DelayQueue<M> {
    heap: BinaryHeap<Pending<M>>,
    seq: u64,
}

impl<M> DelayQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DelayQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `msg` for delivery at `at`.
    pub(crate) fn push_at(&mut self, at: SimTime, msg: M) {
        self.seq += 1;
        self.heap.push(Pending {
            at,
            seq: self.seq,
            msg,
        });
    }

    /// Pops the next message whose delivery time is ≤ `now`.
    pub(crate) fn pop_ready(&mut self, now: SimTime) -> Option<M> {
        if self.heap.peek().map(|p| p.at <= now).unwrap_or(false) {
            Some(self.heap.pop().unwrap().msg)
        } else {
            None
        }
    }

    /// Delivery time of the earliest pending message.
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|p| p.at)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<M> Default for DelayQueue<M> {
    fn default() -> Self {
        DelayQueue::new()
    }
}

/// One direction of a NIC port: serializes messages at wire speed.
pub struct Pipe {
    cfg: NetConfig,
    busy_until: SimTime,
}

impl Pipe {
    /// Creates an idle pipe with the given network parameters.
    pub fn new(cfg: NetConfig) -> Self {
        Pipe {
            cfg,
            busy_until: SimTime::ZERO,
        }
    }

    /// Transmits a message of `payload` bytes entering the NIC at `now`;
    /// returns its arrival time at the far end.
    pub fn transmit(&mut self, now: SimTime, payload: usize) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let wire = self.cfg.wire_time(payload);
        self.busy_until = start + wire;
        self.busy_until + self.cfg.one_way_delay
    }

    /// Time at which the pipe becomes idle.
    #[cfg(test)]
    pub(crate) fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

/// The full client↔server fabric used by every KVS in this workspace.
pub struct Fabric<M> {
    /// Inbound (client→server) shared pipe.
    pub to_server: Pipe,
    /// Outbound (server→client) shared pipe.
    pub to_client: Pipe,
    server_rx: DelayQueue<M>,
    client_rx: Vec<DelayQueue<M>>,
    /// The waker of each client parked on its (empty) delivery queue.
    client_waiter: Vec<Option<Waker>>,
    /// The waker of each server poller's latest park, by poller id. It
    /// stays until the next park replaces it: a wake fires a fork of it, so
    /// a later, earlier-keyed wake still finds it (the engine drops wakes
    /// for a park that has ended).
    server_waiter: Vec<Option<Waker>>,
}

impl<M> Fabric<M> {
    /// Creates a fabric with `clients` client endpoints.
    pub fn new(cfg: NetConfig, clients: usize) -> Self {
        Fabric {
            to_server: Pipe::new(cfg.clone()),
            to_client: Pipe::new(cfg),
            server_rx: DelayQueue::new(),
            client_rx: (0..clients).map(|_| DelayQueue::new()).collect(),
            client_waiter: (0..clients).map(|_| None).collect(),
            server_waiter: Vec::new(),
        }
    }

    /// Number of client endpoints.
    pub fn clients(&self) -> usize {
        self.client_rx.len()
    }

    /// A client sends `msg` of `payload` bytes to the server at `now`, and
    /// wakes every parked server poller at the arrival time.
    pub fn client_send(&mut self, now: SimTime, payload: usize, msg: M) {
        let at = self.to_server.transmit(now, payload);
        self.server_rx.push_at(at, msg);
        self.wake_servers_at(at);
    }

    /// Server-side RNIC: next request that has arrived by `now`.
    pub fn server_poll(&mut self, now: SimTime) -> Option<M> {
        self.server_rx.pop_ready(now)
    }

    /// Re-enqueues `msg` into the server receive queue for delivery at `at`
    /// without charging a fresh wire transit, waking every parked server
    /// poller at `at`. Fault injection uses this for duplicated and delayed
    /// deliveries.
    pub fn redeliver_server(&mut self, at: SimTime, msg: M) {
        self.server_rx.push_at(at, msg);
        self.wake_servers_at(at);
    }

    /// Registers the waker of server poller `poller` (a CR worker) for the
    /// next arrival into the server queue, or a wake by [`Fabric::wake_server`]
    /// or [`Fabric::wake_servers`], replacing any it left before. A poller
    /// that parks while a delivery is already queued also gets its wake at
    /// that delivery's time at once.
    pub fn server_park(&mut self, poller: usize, waker: Waker) {
        if let Some(at) = self.server_rx.next_at() {
            waker.fork().wake_at(at);
        }
        if self.server_waiter.len() <= poller {
            self.server_waiter.resize_with(poller + 1, || None);
        }
        self.server_waiter[poller] = Some(waker);
    }

    /// Wakes every parked server poller at its first poll after the calling
    /// step: for a change to what their polls read that no arrival or cache
    /// access announces (a thread-split request, a first commit group put
    /// in flight).
    pub fn wake_servers(&mut self) {
        self.wake_servers_at(SimTime::ZERO);
    }

    /// Wakes server poller `poller`, if parked, at its first poll after the
    /// calling step: for a change only it reads (a completion counter of
    /// one of its lanes).
    pub fn wake_server(&mut self, poller: usize) {
        if let Some(waker) = self.server_waiter.get(poller).and_then(Option::as_ref) {
            waker.fork().wake_at(SimTime::ZERO);
        }
    }

    fn wake_servers_at(&mut self, at: SimTime) {
        for waker in self.server_waiter.iter().flatten() {
            waker.fork().wake_at(at);
        }
    }

    /// The server sends `msg` of `payload` bytes to `client` at `now`, and
    /// wakes the client at the arrival time if it is parked on its queue.
    pub fn server_send(&mut self, now: SimTime, payload: usize, client: usize, msg: M) {
        let at = self.to_client.transmit(now, payload);
        self.client_rx[client].push_at(at, msg);
        if let Some(waker) = self.client_waiter[client].take() {
            waker.wake_at(at);
        }
    }

    /// Registers `waker` for the next [`Fabric::server_send`] to `client`.
    /// Only a client with nothing in flight toward it may park: one that
    /// can already see a delivery sleeps until it with `advance_to` instead.
    pub fn client_park(&mut self, client: usize, waker: Waker) {
        debug_assert!(
            self.client_rx[client].is_empty(),
            "client {client} parked with a delivery in flight"
        );
        self.client_waiter[client] = Some(waker);
    }

    /// Client-side poll for a delivered response.
    pub fn client_poll(&mut self, client: usize, now: SimTime) -> Option<M> {
        self.client_rx[client].pop_ready(now)
    }

    /// Earliest pending delivery for `client` (for client backoff).
    pub fn client_next_at(&self, client: usize) -> Option<SimTime> {
        self.client_rx[client].next_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::StatClass;
    use crate::config::MachineConfig;
    use crate::engine::{Ctx, Engine, Process, StepOutcome};
    use crate::time::{MICROS, NANOS};

    fn net() -> NetConfig {
        NetConfig::default()
    }

    #[test]
    fn delay_queue_orders_by_time_then_fifo() {
        let mut q = DelayQueue::new();
        q.push_at(SimTime(300), "c");
        q.push_at(SimTime(100), "a");
        q.push_at(SimTime(100), "b");
        let now = SimTime(1_000);
        assert_eq!(q.pop_ready(now), Some("a"));
        assert_eq!(q.pop_ready(now), Some("b"));
        assert_eq!(q.pop_ready(now), Some("c"));
        assert_eq!(q.pop_ready(now), None);
    }

    #[test]
    fn delay_queue_withholds_future_messages() {
        let mut q = DelayQueue::new();
        q.push_at(SimTime(500), 1u32);
        assert_eq!(q.pop_ready(SimTime(499)), None);
        assert_eq!(q.pop_ready(SimTime(500)), Some(1));
    }

    #[test]
    fn pipe_serializes_back_to_back_messages() {
        let mut p = Pipe::new(net());
        let t0 = SimTime::ZERO;
        let a1 = p.transmit(t0, 1024);
        let a2 = p.transmit(t0, 1024);
        let wire = net().wire_time(1024);
        assert_eq!(a1, SimTime(wire + net().one_way_delay));
        assert_eq!(a2, SimTime(2 * wire + net().one_way_delay));
    }

    #[test]
    fn pipe_idles_between_sparse_messages() {
        let mut p = Pipe::new(net());
        let a1 = p.transmit(SimTime::ZERO, 64);
        let late = SimTime(10 * MICROS);
        let a2 = p.transmit(late, 64);
        assert!(a1 < a2);
        assert_eq!(a2, late + net().wire_time(64) + net().one_way_delay);
    }

    #[test]
    fn bandwidth_bound_throughput_at_1kb() {
        // Saturating 1 KB messages should cap near 200 Gb/s.
        let mut p = Pipe::new(net());
        let n = 10_000;
        for _ in 0..n {
            p.transmit(SimTime::ZERO, 1024);
        }
        let total_s = p.busy_until().as_secs_f64();
        let gbps = (n as f64 * (1024 + 66) as f64 * 8.0) / total_s / 1e9;
        assert!((gbps - 200.0).abs() < 1.0, "got {gbps} Gb/s");
    }

    #[test]
    fn message_rate_cap_binds_for_tiny_messages() {
        let mut p = Pipe::new(net());
        let n = 1_000;
        for _ in 0..n {
            p.transmit(SimTime::ZERO, 16);
        }
        let rate = n as f64 / p.busy_until().as_secs_f64() / 1e6;
        // min_msg_gap = 5.12 ns → ~195 M msgs/s.
        assert!((rate - 195.3).abs() < 2.0, "got {rate} M msgs/s");
    }

    /// What the server-waiter tests share: the fabric and the pollers' log
    /// of `(step time, id)`.
    struct Waiters {
        fabric: Fabric<u64>,
        log: Vec<(SimTime, usize)>,
    }

    /// Logs its step, drains what has arrived, charges 1 ns and parks on
    /// that grid with the fabric.
    struct ServerPoller {
        id: usize,
    }

    impl Process<Waiters> for ServerPoller {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut Waiters) -> StepOutcome {
            w.log.push((ctx.now(), self.id));
            while w.fabric.server_poll(ctx.now()).is_some() {}
            ctx.compute_ns(1);
            w.fabric.server_park(self.id, ctx.park_on_grid(None));
            StepOutcome::Idle
        }
    }

    /// At `at`, acts on the fabric once, then halts.
    struct Sender {
        at: SimTime,
        send: fn(&mut Fabric<u64>, SimTime),
    }

    impl Process<Waiters> for Sender {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut Waiters) -> StepOutcome {
            if ctx.now() < self.at {
                ctx.advance_to(self.at);
                return StepOutcome::Idle;
            }
            (self.send)(&mut w.fabric, ctx.now());
            ctx.halt();
            StepOutcome::Progress
        }
    }

    /// Spawns the sender first when `sender_first`, then `pollers` pollers,
    /// and returns the pollers' log up to 10 µs.
    fn waiters(pollers: usize, sender: Sender, sender_first: bool) -> Vec<(SimTime, usize)> {
        let world = Waiters {
            fabric: Fabric::new(net(), 1),
            log: Vec::new(),
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 1, world);
        let mut sender = Some(sender);
        if sender_first {
            eng.spawn(None, StatClass::Other, Box::new(sender.take().unwrap()));
        }
        for id in 0..pollers {
            eng.spawn(None, StatClass::Other, Box::new(ServerPoller { id }));
        }
        if let Some(sender) = sender {
            eng.spawn(None, StatClass::Other, Box::new(sender));
        }
        eng.run_until(SimTime(10 * MICROS));
        eng.world.log
    }

    /// The first point of the pollers' 1 ns grid at or after `at`.
    fn grid_ceil(at: SimTime) -> SimTime {
        SimTime(at.as_ps().div_ceil(NANOS) * NANOS)
    }

    #[test]
    fn client_send_wakes_every_parked_server_poller_at_the_arrival() {
        let sent = SimTime(100 * NANOS + 300);
        let arrival = Pipe::new(net()).transmit(sent, 64);
        let sender = Sender {
            at: sent,
            send: |f, now| f.client_send(now, 64, 7),
        };
        let g = grid_ceil(arrival);
        let log = waiters(2, sender, false);
        assert_eq!(
            log,
            [(SimTime::ZERO, 0), (SimTime::ZERO, 1), (g, 0), (g, 1)]
        );
    }

    #[test]
    fn redeliver_server_wakes_every_parked_server_poller_at_its_time() {
        let at = SimTime(5 * MICROS + 300);
        let sender = Sender {
            at: SimTime(200 * NANOS),
            send: |f, _| f.redeliver_server(SimTime(5 * MICROS + 300), 9),
        };
        let g = grid_ceil(at);
        let log = waiters(3, sender, false);
        let woken: Vec<_> = (0..3).map(|id| (g, id)).collect();
        assert_eq!(log[3..], woken[..]);
        assert_eq!(
            log.len(),
            6,
            "one step each, then asleep until the redelivery"
        );
    }

    #[test]
    fn a_poller_parking_behind_a_queued_delivery_wakes_at_its_arrival() {
        // The sender (pid 0) sends at t = 0, before the poller's first step
        // parks it: no later arrival announces the queued one.
        let arrival = Pipe::new(net()).transmit(SimTime::ZERO, 64);
        let sender = Sender {
            at: SimTime::ZERO,
            send: |f, now| f.client_send(now, 64, 7),
        };
        let log = waiters(1, sender, true);
        assert_eq!(log, [(SimTime::ZERO, 0), (grid_ceil(arrival), 0)]);
    }

    #[test]
    fn fabric_round_trip() {
        let mut f: Fabric<u64> = Fabric::new(net(), 2);
        f.client_send(SimTime::ZERO, 64, 42);
        assert_eq!(f.server_poll(SimTime(100 * NANOS)), None, "still in flight");
        let arrive = SimTime(2 * MICROS);
        assert_eq!(f.server_poll(arrive), Some(42));
        f.server_send(arrive, 64, 1, 43);
        assert_eq!(f.client_poll(0, SimTime(4 * MICROS)), None);
        assert_eq!(f.client_poll(1, SimTime(4 * MICROS)), Some(43));
    }
}
