//! Closed-loop clients and measurement plumbing shared by every system.
//!
//! Each client thread keeps a fixed number of requests outstanding
//! (pipelining, as the paper's client nodes do to generate maximum load),
//! records per-request latency after the warmup boundary, and periodically
//! samples throughput into a timeline for the dynamic-workload experiment
//! (Figure 14). Clients run on unmodeled (client-node) CPUs: their compute
//! is charged as constants and their traffic goes through the shared fabric
//! pipes, so the server NIC's bandwidth and message-rate limits still apply.

use std::cell::RefCell;
use std::rc::Rc;

use utps_collections::{FxHashMap, LatencyHistogram};
use utps_oracle::{fill_digest, value_digest, History, OpClass};
use utps_sim::nic::Fabric;
use utps_sim::time::{SimTime, NANOS};
use utps_sim::{Counter, Ctx, Process, StepOutcome, Total};
use utps_workload::{Op, Workload};

use crate::msg::{NetMsg, Request};
use crate::retry::{RetryConfig, RetryState};
use crate::shardctl::ShardHooks;

/// Per-client measurement state.
#[derive(Default, PartialEq)]
pub struct ClientStats {
    /// Operations completed after warmup.
    pub completed: u64,
    /// Operations completed including warmup.
    pub completed_total: u64,
    /// Latency histogram (nanoseconds), post-warmup.
    pub hist: LatencyHistogram,
    /// Data payload bytes received post-warmup.
    pub payload_bytes: u64,
    /// Gets that returned `ok = false` (missing keys).
    pub not_found: u64,
    /// Distinct operations offered (first sends, not retransmits),
    /// including warmup. The exactly-once ledger:
    /// `issued == completed_total + failed + still-in-flight`.
    pub issued: u64,
    /// Retransmits sent after a timeout, including warmup.
    pub retransmits: u64,
    /// Responses discarded as duplicates, including warmup.
    pub dup_resps: u64,
    /// Operations reported failed after exhausting the retry budget.
    pub failed: u64,
}

/// Measurement state shared by the driver side of every world.
pub struct DriverState {
    /// Per-client stats.
    pub clients: Vec<ClientStats>,
    /// Measurement starts here (end of warmup).
    pub measure_start: SimTime,
    /// Throughput timeline: (time, completed-so-far) samples.
    pub timeline: Vec<(SimTime, Total)>,
    /// Operation history for the linearizability oracle; `None` (the
    /// default) records nothing. Recording is pure host-side bookkeeping —
    /// it charges no simulated time and draws no randomness, so enabling it
    /// leaves the run byte-identical.
    pub history: Option<History>,
}

impl DriverState {
    /// Creates driver state for `clients` clients with the given warmup
    /// boundary.
    pub fn new(clients: usize, measure_start: SimTime) -> Self {
        DriverState {
            clients: (0..clients).map(|_| ClientStats::default()).collect(),
            measure_start,
            timeline: Vec::new(),
            history: None,
        }
    }

    /// Switches history recording on (idempotent; keeps an existing history).
    pub fn enable_history(&mut self) {
        if self.history.is_none() {
            self.history = Some(History::new());
        }
    }

    /// Total post-warmup completions across clients.
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }

    /// Total completions including warmup (the tuner's feedback signal).
    pub fn completed_total(&self) -> Total {
        Total::new(self.clients.iter().map(|c| c.completed_total).sum())
    }

    /// Merged latency histogram.
    pub fn merged_hist(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for c in &self.clients {
            h.merge(&c.hist);
        }
        h
    }
}

/// Access every KVS world must grant to the shared driver machinery.
pub trait KvWorld {
    /// The network fabric.
    fn fabric_mut(&mut self) -> &mut Fabric<NetMsg>;

    /// The driver (clients/measurement) state.
    fn driver_mut(&mut self) -> &mut DriverState;

    /// The fabric of server machine `shard`. A single-machine world has
    /// only the one.
    fn fabric_at(&mut self, _shard: usize) -> &mut Fabric<NetMsg> {
        self.fabric_mut()
    }
}

/// What a client of a sharded deployment carries on top of the closed loop.
struct Routed {
    hooks: Rc<RefCell<dyn ShardHooks>>,
    /// Every in-flight seq → (op, first-send time), kept regardless of the
    /// retry policy: `moved` bounces need the op back to re-route it, and
    /// completions need the key for the per-class latency histograms.
    shadow: FxHashMap<u64, (Op, SimTime)>,
}

/// A closed-loop client process, optionally with request timeouts and
/// bounded exponential backoff (see [`crate::retry`]), optionally
/// [routed](ClientProc::routed) across the shards of a cluster.
pub struct ClientProc {
    id: u32,
    workload: Box<dyn Workload + Send>,
    pipeline: usize,
    outstanding: usize,
    next_seq: u64,
    value_fill: u8,
    retry: RetryConfig,
    pending: RetryState,
    route: Option<Routed>,
}

impl ClientProc {
    /// Creates a client keeping `pipeline` requests outstanding, without
    /// timeouts (the seed behavior).
    pub fn new(id: u32, workload: Box<dyn Workload + Send>, pipeline: usize) -> Self {
        ClientProc::with_retry(id, workload, pipeline, RetryConfig::disabled())
    }

    /// Creates a client with the given retry policy.
    pub fn with_retry(
        id: u32,
        workload: Box<dyn Workload + Send>,
        pipeline: usize,
        retry: RetryConfig,
    ) -> Self {
        ClientProc {
            id,
            workload,
            pipeline: pipeline.max(1),
            outstanding: 0,
            next_seq: 0,
            value_fill: 0x40 + (id as u8 & 0x3f),
            retry,
            pending: RetryState::new(),
            route: None,
        }
    }

    /// Creates a client whose sequence numbers start at `start_seq` instead
    /// of 0 — the post-crash fleet continues each client's pre-crash numbering
    /// so the server's restored dedup floor stays meaningful.
    pub(crate) fn with_start_seq(
        id: u32,
        workload: Box<dyn Workload + Send>,
        pipeline: usize,
        retry: RetryConfig,
        start_seq: u64,
    ) -> Self {
        let mut c = ClientProc::with_retry(id, workload, pipeline, retry);
        c.next_seq = start_seq;
        c
    }

    /// Makes this a client of a sharded cluster (shard id = machine id):
    /// every send goes to the shard `hooks` picks, responses are drained
    /// from every shard's fabric, and a `moved` bounce (non-owner or frozen
    /// slot) re-routes the same (client, seq) pair — the server recorded
    /// nothing for a bounce, so exactly-once accounting is untouched.
    pub fn routed(mut self, hooks: Rc<RefCell<dyn ShardHooks>>) -> Self {
        self.route = Some(Routed {
            hooks,
            shadow: FxHashMap::default(),
        });
        self
    }

    /// Sends `op` as (`self.id`, `seq`) to the shard the hooks pick (0 when
    /// unrouted): a first send, a retransmit or the re-send after a bounce.
    /// The put payload is written into the destination's NIC buffer memory,
    /// rebuilt from the fill byte each time — identical bytes, no copy kept
    /// per in-flight request; the request carries only the arena handle.
    fn send<W: KvWorld>(
        &self,
        ctx: &mut Ctx<'_>,
        world: &mut W,
        seq: u64,
        op: Op,
        first_sent: SimTime,
    ) {
        let dest = self.route.as_ref().map_or(0, |r| {
            let is_write = matches!(op, Op::Put { .. } | Op::Delete { .. });
            r.hooks.borrow_mut().route(op.key(), is_write)
        });
        let value = match &op {
            Op::Put { value_len, .. } => Some(
                ctx.machine_at(dest)
                    .payloads
                    .alloc(vec![self.value_fill; *value_len].into_boxed_slice()),
            ),
            _ => None,
        };
        let req = Request {
            client: self.id,
            seq,
            op,
            value,
            sent_at: first_sent,
        };
        let wire = req.wire_len();
        let at = ctx.now();
        world
            .fabric_at(dest)
            .client_send(at, wire, NetMsg::Req(req));
        ctx.compute_ns(30);
    }
}

impl<W: KvWorld> Process<W> for ClientProc {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome {
        let now = ctx.now();
        self.workload.set_time_ns(now.as_nanos());
        let measure_start = world.driver_mut().measure_start;
        let retry_on = self.retry.enabled();
        let me = self.id as usize;
        // Shard id = machine id; an unrouted client only ever talks to 0.
        let shards = self.route.as_ref().map_or(1, |_| ctx.machine_count());
        // Drain responses from every shard's fabric.
        let mut drained = 0;
        for s in 0..shards {
            while let Some(msg) = world.fabric_at(s).client_poll(me, now) {
                let resp = match msg {
                    NetMsg::Resp(r) => r,
                    NetMsg::Req(_) => unreachable!("client received a request"),
                };
                drained += 1;
                // Recycle the payload's NIC buffer, digesting the returned
                // bytes for the oracle on the way out (dup responses
                // included).
                let wire_len = resp.wire_len();
                let history_on = world.driver_mut().history.is_some();
                let resp_digest = resp.value.and_then(|v| {
                    let bytes = ctx.machine_at(s).payloads.take(v);
                    history_on.then(|| value_digest(&bytes))
                });
                // A moved bounce: the shard no longer owns the key (or froze
                // its slot mid-migration). The server recorded nothing, so
                // re-route and re-send the same seq; latency still counts
                // from the first send. A bounce for a seq no longer in
                // flight is a stale duplicate of an op that completed
                // through another copy.
                if resp.moved {
                    debug_assert!(self.route.is_some(), "unrouted client got a moved response");
                    let bounced = self.route.as_ref().and_then(|r| r.shadow.get(&resp.seq));
                    match bounced.cloned() {
                        Some((op, first_sent)) => self.send(ctx, world, resp.seq, op, first_sent),
                        None => {
                            world.driver_mut().clients[me].dup_resps += 1;
                            ctx.machine().registry.inc(Counter::ClientDupResp);
                        }
                    }
                    continue;
                }
                // With retries on, a response only completes a request still
                // in the pending table; late duplicates are counted and
                // dropped. Latency is measured from the first send either way
                // (they coincide when nothing was retransmitted).
                let first_sent = if retry_on {
                    match self.pending.on_response(resp.seq) {
                        Some(p) => p.first_sent,
                        None => {
                            world.driver_mut().clients[me].dup_resps += 1;
                            ctx.machine().registry.inc(Counter::ClientDupResp);
                            continue;
                        }
                    }
                } else {
                    resp.sent_at
                };
                let routed_op = self.route.as_mut().and_then(|r| r.shadow.remove(&resp.seq));
                self.outstanding -= 1;
                let driver = world.driver_mut();
                if let Some(h) = driver.history.as_mut() {
                    h.response(
                        self.id,
                        resp.seq,
                        now.as_ps(),
                        resp.ok,
                        resp_digest,
                        resp.scan_count,
                    );
                }
                let stats = &mut driver.clients[me];
                stats.completed_total += 1;
                if now >= measure_start {
                    stats.completed += 1;
                    let lat_ns = (now - first_sent) / NANOS;
                    stats.hist.record(lat_ns);
                    stats.payload_bytes += wire_len as u64;
                    if !resp.ok {
                        stats.not_found += 1;
                    }
                    if let (Some(r), Some((op, _))) = (&self.route, routed_op) {
                        r.hooks.borrow_mut().record_completion(op.key(), lat_ns);
                    }
                }
            }
        }
        if drained > 0 {
            ctx.compute_ns(15 * drained);
        }
        // Retransmit timed-out requests (bounded exponential backoff), or
        // report them failed once the retry budget is spent.
        let mut resent = 0;
        if retry_on && !self.pending.is_empty() {
            for seq in self.pending.due(now) {
                resent += 1;
                match self.pending.retransmit(seq, now, &self.retry) {
                    Some((op, first_sent)) => {
                        self.send(ctx, world, seq, op, first_sent);
                        world.driver_mut().clients[me].retransmits += 1;
                        ctx.machine().registry.inc(Counter::ClientRetransmit);
                    }
                    None => {
                        self.outstanding -= 1;
                        if let Some(r) = self.route.as_mut() {
                            r.shadow.remove(&seq);
                        }
                        let driver = world.driver_mut();
                        if let Some(h) = driver.history.as_mut() {
                            // The op stays pending in the history: a delayed
                            // copy of the request may still execute.
                            h.fail(self.id, seq);
                        }
                        driver.clients[me].failed += 1;
                        ctx.machine().registry.inc(Counter::ClientFailed);
                    }
                }
            }
        }
        // Refill the pipeline.
        let mut sent = 0;
        while self.outstanding < self.pipeline {
            let op = self.workload.next_op();
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(h) = world.driver_mut().history.as_mut() {
                let (class, key, digest, limit) = match &op {
                    Op::Get { key } => (OpClass::Get, *key, None, 0),
                    Op::Put { key, value_len } => (
                        OpClass::Put,
                        *key,
                        Some(fill_digest(self.value_fill, *value_len)),
                        0,
                    ),
                    Op::Scan { key, count } => (OpClass::Scan, *key, None, *count as u32),
                    Op::Delete { key } => (OpClass::Delete, *key, None, 0),
                };
                h.invoke(self.id, seq, class, key, digest, limit, ctx.now().as_ps());
            }
            if retry_on {
                self.pending
                    .on_send(seq, ctx.now(), &self.retry, op.clone());
            }
            if let Some(r) = self.route.as_mut() {
                r.shadow.insert(seq, (op.clone(), ctx.now()));
            }
            self.send(ctx, world, seq, op, ctx.now());
            world.driver_mut().clients[me].issued += 1;
            self.outstanding += 1;
            sent += 1;
        }
        if drained == 0 && sent == 0 && resent == 0 {
            // Pipeline full and nothing arrived. Three cases:
            // * a delivery is in flight — sleep until the earliest one over
            //   the shards lands, but never past the next retransmit
            //   deadline, or a fully-dropped pipeline would sleep forever;
            // * nothing in flight, retries off, one fabric — only a
            //   `server_send` can give this client work, so park on the
            //   endpoint and let that send wake us at its arrival time. A
            //   `Waker` is single-use, so it cannot be left with several
            //   fabrics: a client of N > 1 shards keeps polling;
            // * nothing in flight, retries on — keep polling: the deadlines
            //   are this client's own timer and are checked every step.
            let next_at = (0..shards)
                .filter_map(|s| world.fabric_at(s).client_next_at(me))
                .min();
            if let Some(at) = next_at {
                let wake = match self.pending.next_deadline() {
                    Some(dl) if retry_on => at.min(dl),
                    _ => at,
                };
                ctx.advance_to(wake);
            } else if !retry_on && shards == 1 {
                world.fabric_at(0).client_park(me, ctx.park());
            }
            return StepOutcome::Idle;
        }
        StepOutcome::Progress
    }

    fn name(&self) -> &'static str {
        "client"
    }
}

/// A sampler process recording the throughput timeline.
pub struct SamplerProc<W> {
    interval: u64,
    next: SimTime,
    driver: fn(&mut W) -> &mut DriverState,
}

impl<W> SamplerProc<W> {
    /// Samples the world's `driver` every `interval` picoseconds.
    pub fn new(interval: u64, driver: fn(&mut W) -> &mut DriverState) -> Self {
        SamplerProc {
            interval,
            next: SimTime(interval),
            driver,
        }
    }
}

impl<W> Process<W> for SamplerProc<W> {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome {
        let now = ctx.now();
        if now >= self.next {
            let driver = (self.driver)(world);
            let total = driver.completed_total();
            driver.timeline.push((now, total));
            self.next = now + self.interval;
        }
        ctx.advance_to(self.next);
        StepOutcome::Idle
    }

    fn name(&self) -> &'static str {
        "sampler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shardctl::StubHooks;
    use utps_collections::FxHashSet;
    use utps_sim::config::MachineConfig;
    use utps_sim::{Engine, StatClass};
    use utps_workload::{Mix, YcsbWorkload};

    /// A minimal echo world: the "server" is a process bouncing requests.
    struct EchoWorld {
        fabric: Fabric<NetMsg>,
        driver: DriverState,
    }

    impl KvWorld for EchoWorld {
        fn fabric_mut(&mut self) -> &mut Fabric<NetMsg> {
            &mut self.fabric
        }
        fn driver_mut(&mut self) -> &mut DriverState {
            &mut self.driver
        }
    }

    /// Answers every request `ok` with no value. `leak` plants the bug the
    /// run ledger exists to catch: a put's payload handle is dropped instead
    /// of freed, which compiles (no `Drop` impl) and loses an arena slot.
    /// `bounce` plays a shard mid-migration for every op whose key is a
    /// multiple of 3: the first copy of a (client, seq) is answered `moved`,
    /// the second is served — and followed by a stale second bounce.
    #[derive(Default)]
    struct EchoServer {
        leak: bool,
        bounce: bool,
        bounced: FxHashSet<(u32, u64)>,
    }

    impl Process<EchoWorld> for EchoServer {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut EchoWorld) -> StepOutcome {
            let now = ctx.now();
            if let Some(NetMsg::Req(req)) = w.fabric.server_poll(now) {
                ctx.compute_ns(100);
                if let Some(v) = req.value {
                    if !self.leak {
                        ctx.machine().payloads.free(v);
                    }
                }
                let bounce = self.bounce && req.op.key() % 3 == 0;
                let first_copy = bounce && self.bounced.insert((req.client, req.seq));
                let mut replies = vec![first_copy];
                if bounce && !first_copy {
                    replies.push(true);
                }
                for moved in replies {
                    let resp = crate::msg::Response {
                        client: req.client,
                        seq: req.seq,
                        ok: true,
                        moved,
                        value: None,
                        scan_count: 0,
                        payload_extra: 0,
                        resp_addr: 0,
                        sent_at: req.sent_at,
                    };
                    let now = ctx.now();
                    w.fabric.server_send(
                        now,
                        resp.wire_len(),
                        req.client as usize,
                        NetMsg::Resp(resp),
                    );
                }
                return StepOutcome::Progress;
            }
            StepOutcome::Idle
        }
    }

    #[test]
    fn closed_loop_reaches_steady_state() {
        let clients = 2;
        let world = EchoWorld {
            fabric: Fabric::new(Default::default(), clients),
            driver: DriverState::new(clients, SimTime::from_micros(50)),
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 1, world);
        eng.spawn(Some(0), StatClass::Other, Box::new(EchoServer::default()));
        for id in 0..clients {
            let wl = YcsbWorkload::new(
                Mix::C,
                utps_workload::KeyDist::uniform(100),
                8,
                50,
                42,
                id as u64,
            );
            eng.spawn(
                None,
                StatClass::Other,
                Box::new(ClientProc::new(id as u32, Box::new(wl), 4)),
            );
        }
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(SamplerProc::new(
                utps_sim::time::MICROS * 100,
                EchoWorld::driver_mut,
            )),
        );
        eng.run_until(SimTime::from_millis(1));
        let d = &eng.world.driver;
        assert!(d.completed() > 100, "only {} completed", d.completed());
        // Latency must be at least the RTT (~1.8 μs).
        let p50 = d.merged_hist().percentile(50.0);
        assert!(p50 >= 1_800, "p50 {p50} ns below physical RTT");
        assert!(!d.timeline.is_empty());
        // Timeline is monotone.
        for w in d.timeline.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn warmup_excluded_from_stats() {
        let world = EchoWorld {
            fabric: Fabric::new(Default::default(), 1),
            driver: DriverState::new(1, SimTime::MAX), // never measure
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 1, world);
        eng.spawn(Some(0), StatClass::Other, Box::new(EchoServer::default()));
        let wl = YcsbWorkload::new(Mix::C, utps_workload::KeyDist::uniform(10), 8, 50, 1, 0);
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(ClientProc::new(0, Box::new(wl), 2)),
        );
        eng.run_until(SimTime::from_micros(500));
        let d = &eng.world.driver;
        assert_eq!(d.completed(), 0);
        assert!(d.completed_total() > Total::default());
    }

    /// One closed-loop YCSB-A run against `server`, with the clients routed
    /// through `hooks` if given, extracted the way every runner does.
    /// Returns the result, the closed-loop window and the finished engine.
    fn echo_ycsb_a(
        server: EchoServer,
        hooks: Option<Rc<RefCell<StubHooks>>>,
    ) -> (crate::experiment::RunResult, usize, Engine<EchoWorld>) {
        let cfg = crate::experiment::RunConfig {
            clients: 4,
            pipeline: 4,
            warmup: 50 * utps_sim::time::MICROS,
            duration: 450 * utps_sim::time::MICROS,
            machine: MachineConfig::tiny(),
            ..Default::default()
        };
        let world = EchoWorld {
            fabric: Fabric::new(Default::default(), cfg.clients),
            driver: DriverState::new(cfg.clients, SimTime(cfg.warmup)),
        };
        let mut eng = Engine::new(cfg.machine.clone(), 1, world);
        eng.spawn(Some(0), StatClass::Other, Box::new(server));
        for id in 0..cfg.clients {
            let dist = utps_workload::KeyDist::uniform(100);
            let wl = YcsbWorkload::new(Mix::A, dist, 64, 50, cfg.seed, id as u64);
            let mut client = ClientProc::new(id as u32, Box::new(wl), cfg.pipeline);
            if let Some(h) = &hooks {
                client = client.routed(h.clone());
            }
            eng.spawn(None, StatClass::Other, Box::new(client));
        }
        eng.run_until(SimTime(cfg.warmup + cfg.duration));
        let r = crate::experiment::RunResult::new(&cfg, &mut eng, |w| &w.driver);
        (r, cfg.clients * cfg.pipeline, eng)
    }

    #[test]
    fn run_ledger_catches_a_dropped_payload_handle() {
        // The bound `tests/chaos.rs::assert_exactly_once` puts on every run.
        let (honest, window, _) = echo_ycsb_a(EchoServer::default(), None);
        assert!(
            honest.completed > 100,
            "only {} completed",
            honest.completed
        );
        assert!(
            honest.payloads_live <= window,
            "{} slots live with every put freed (window {window})",
            honest.payloads_live
        );
        let leaky_server = EchoServer {
            leak: true,
            ..Default::default()
        };
        let (leaky, window, _) = echo_ycsb_a(leaky_server, None);
        assert!(
            leaky.payloads_live > window,
            "planted leak not visible: {} slots live (window {window}, {} ops)",
            leaky.payloads_live,
            leaky.completed
        );
    }

    #[test]
    fn bounced_ops_complete_exactly_once_timed_from_the_first_send() {
        let hooks = Rc::new(RefCell::new(StubHooks::default()));
        let server = EchoServer {
            bounce: true,
            ..Default::default()
        };
        let (r, window, _) = echo_ycsb_a(server, Some(hooks.clone()));
        assert!(r.completed > 100, "only {} completed", r.completed);
        // A bounce neither completes an op nor frees its pipeline slot, and a
        // stale one is dropped: with retries off the window is full at the
        // end of every client step, so the ledger is exact.
        assert_eq!(r.failed, 0);
        assert_eq!(r.in_flight(), Some(window as u64));
        assert!(r.dup_resps > 0, "no stale bounce was filed as a duplicate");
        let hooks = hooks.borrow();
        assert_eq!(hooks.completions.len() as u64, r.completed);
        // A bounced op crossed the wire four times (RTT ≈ 1.8 μs).
        let bounced = hooks.completions.iter().filter(|(key, _)| key % 3 == 0);
        let fastest = bounced.map(|&(_, ns)| ns).min().expect("no op bounced");
        assert!(
            fastest >= 3_600,
            "a bounced op was timed at {fastest} ns: not from its first send"
        );
    }

    #[test]
    fn one_shard_routed_client_is_the_unrouted_client() {
        let (_, _, plain) = echo_ycsb_a(EchoServer::default(), None);
        let hooks = Rc::new(RefCell::new(StubHooks::default()));
        let (_, _, routed) = echo_ycsb_a(EchoServer::default(), Some(hooks));
        assert!(
            plain.world.driver.clients == routed.world.driver.clients,
            "routing to the only shard changed what the clients measured"
        );
        // Equal step counts: the routed client parks like the unrouted one.
        assert_eq!(plain.steps(), routed.steps());
    }
}
