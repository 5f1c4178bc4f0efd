//! Cluster-aware closed-loop clients.
//!
//! [`ClusterClientProc`] is the charge-for-charge mirror of the
//! single-machine [`ClientProc`]: same constants (30 ns per send, 15 ns per
//! drained response), same histogram/ledger updates, same sleep rule. The
//! differences are purely cluster-shaped: responses are drained from every
//! shard's fabric, sends go to the shard the [`RouterState`] picks, and a
//! `moved` bounce (non-owner or frozen slot) re-routes the same
//! (client, seq) pair — the server recorded nothing for a bounce, so
//! exactly-once accounting is untouched.
//!
//! On a one-shard cluster every decision collapses to shard 0 and the
//! process is byte-identical to `ClientProc` — the N=1 transparency test
//! checks this against the single-machine goldens.
//!
//! [`ClientProc`]: utps_core::client::ClientProc

use utps_collections::FxHashMap;
use utps_core::msg::{NetMsg, Request};
use utps_core::retry::{RetryConfig, RetryState};
use utps_oracle::{fill_digest, value_digest, OpClass};
use utps_sim::time::{SimTime, NANOS};
use utps_sim::{Ctx, Process, StepOutcome};
use utps_workload::{Op, Workload};

use crate::world::{ClusterWorld, ShardWorld};

/// Wraps a workload so that puts to large-class keys carry the large
/// payload size. Reads are untouched (the store returns whatever length is
/// present); with `large_keys == 0` this is a pure pass-through.
pub struct SizeClassWorkload {
    inner: Box<dyn Workload + Send>,
    keys: u64,
    large_keys: u64,
    large_value_len: usize,
}

impl SizeClassWorkload {
    /// Wraps `inner`; keys `>= keys - large_keys` put `large_value_len`
    /// bytes.
    pub fn new(
        inner: Box<dyn Workload + Send>,
        keys: u64,
        large_keys: u64,
        large_value_len: usize,
    ) -> Self {
        SizeClassWorkload {
            inner,
            keys,
            large_keys,
            large_value_len,
        }
    }
}

impl Workload for SizeClassWorkload {
    fn next_op(&mut self) -> Op {
        let op = self.inner.next_op();
        if self.large_keys == 0 {
            return op;
        }
        match op {
            Op::Put { key, .. } if key >= self.keys - self.large_keys => Op::Put {
                key,
                value_len: self.large_value_len,
            },
            other => other,
        }
    }

    fn keyspace(&self) -> u64 {
        self.inner.keyspace()
    }

    fn set_time_ns(&mut self, now_ns: u64) {
        self.inner.set_time_ns(now_ns)
    }
}

/// Whether `op` mutates state (writes never fan out to replicas).
fn is_write(op: &Op) -> bool {
    matches!(op, Op::Put { .. } | Op::Delete { .. })
}

/// A closed-loop client issuing against a sharded cluster.
pub struct ClusterClientProc {
    id: u32,
    workload: Box<dyn Workload + Send>,
    pipeline: usize,
    outstanding: usize,
    next_seq: u64,
    value_fill: u8,
    retry: RetryConfig,
    pending: RetryState,
    /// Every in-flight (seq → op, first-send time), kept regardless of the
    /// retry policy: `moved` bounces need the op back to re-route it, and
    /// completions need the key for the per-class latency histograms.
    shadow: FxHashMap<u64, (Op, SimTime)>,
}

impl ClusterClientProc {
    /// Creates a cluster client keeping `pipeline` requests outstanding.
    pub fn new(
        id: u32,
        workload: Box<dyn Workload + Send>,
        pipeline: usize,
        retry: RetryConfig,
    ) -> Self {
        ClusterClientProc {
            id,
            workload,
            pipeline: pipeline.max(1),
            outstanding: 0,
            next_seq: 0,
            value_fill: 0x40 + (id as u8 & 0x3f),
            retry,
            pending: RetryState::new(),
            shadow: FxHashMap::default(),
        }
    }
}

impl<S: ShardWorld> Process<ClusterWorld<S>> for ClusterClientProc {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ClusterWorld<S>) -> StepOutcome {
        let now = ctx.now();
        self.workload.set_time_ns(now.as_nanos());
        let measure_start = world.driver.measure_start;
        let retry_on = self.retry.enabled();
        let nshards = world.shards.len();
        // Drain responses from every shard's fabric.
        let mut drained = 0;
        for s in 0..nshards {
            while let Some(msg) = world.shards[s]
                .fabric_mut()
                .client_poll(self.id as usize, now)
            {
                let resp = match msg {
                    NetMsg::Resp(r) => r,
                    NetMsg::Req(_) => unreachable!("client received a request"),
                };
                drained += 1;
                let resp_digest = if world.driver.history.is_some() {
                    resp.value
                        .as_ref()
                        .map(|v| value_digest(ctx.machine_at(s).payloads.get(v)))
                } else {
                    None
                };
                let wire_len = resp.wire_len();
                if let Some(v) = resp.value {
                    ctx.machine_at(s).payloads.free(v);
                }
                // A moved bounce: the shard no longer owns the key (or froze
                // its slot mid-migration). The server recorded nothing, so
                // re-route and re-send the same seq; latency still counts
                // from the first send. A bounce for a seq no longer in
                // flight is a stale duplicate of an op that completed
                // through another copy.
                if resp.moved {
                    match self.shadow.get(&resp.seq) {
                        Some((op, first_sent)) => {
                            let (op, first_sent) = (op.clone(), *first_sent);
                            let dest = world.router.borrow_mut().route(op.key(), is_write(&op));
                            let value = match &op {
                                Op::Put { value_len, .. } => {
                                    Some(ctx.machine_at(dest).payloads.alloc(
                                        vec![self.value_fill; *value_len].into_boxed_slice(),
                                    ))
                                }
                                _ => None,
                            };
                            let req = Request {
                                client: self.id,
                                seq: resp.seq,
                                op,
                                value,
                                sent_at: first_sent,
                            };
                            let wire = req.wire_len();
                            let at = ctx.now();
                            world.shards[dest]
                                .fabric_mut()
                                .client_send(at, wire, NetMsg::Req(req));
                            ctx.compute_ns(30);
                        }
                        None => {
                            world.driver.clients[self.id as usize].dup_resps += 1;
                            ctx.machine().registry.counter_inc("client.dup_resp");
                        }
                    }
                    continue;
                }
                let first_sent = if retry_on {
                    match self.pending.on_response(resp.seq) {
                        Some(p) => p.first_sent,
                        None => {
                            world.driver.clients[self.id as usize].dup_resps += 1;
                            ctx.machine().registry.counter_inc("client.dup_resp");
                            continue;
                        }
                    }
                } else {
                    resp.sent_at
                };
                let key = self.shadow.remove(&resp.seq).map(|(op, _)| op.key());
                self.outstanding -= 1;
                if let Some(h) = world.driver.history.as_mut() {
                    h.response(
                        self.id,
                        resp.seq,
                        now.as_ps(),
                        resp.ok,
                        resp_digest,
                        resp.scan_count,
                    );
                }
                let stats = &mut world.driver.clients[self.id as usize];
                stats.completed_total += 1;
                if now >= measure_start {
                    stats.completed += 1;
                    let lat_ns = (now - first_sent) / NANOS;
                    stats.hist.record(lat_ns);
                    stats.payload_bytes += wire_len as u64;
                    if !resp.ok {
                        stats.not_found += 1;
                    }
                    if let Some(k) = key {
                        world.router.borrow_mut().record_completion(k, lat_ns);
                    }
                }
            }
        }
        if drained > 0 {
            ctx.compute_ns(15 * drained);
        }
        // Retransmit timed-out requests. Routing is re-evaluated: ownership
        // may have moved since the first attempt.
        let mut resent = 0;
        if retry_on && !self.pending.is_empty() {
            for seq in self.pending.due(now) {
                resent += 1;
                match self.pending.retransmit(seq, now, &self.retry) {
                    Some((op, first_sent)) => {
                        let dest = world.router.borrow_mut().route(op.key(), is_write(&op));
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
                        world.shards[dest]
                            .fabric_mut()
                            .client_send(at, wire, NetMsg::Req(req));
                        ctx.compute_ns(30);
                        world.driver.clients[self.id as usize].retransmits += 1;
                        ctx.machine().registry.counter_inc("client.retransmit");
                    }
                    None => {
                        self.outstanding -= 1;
                        self.shadow.remove(&seq);
                        if let Some(h) = world.driver.history.as_mut() {
                            h.fail(self.id, seq);
                        }
                        world.driver.clients[self.id as usize].failed += 1;
                        ctx.machine().registry.counter_inc("client.failed");
                    }
                }
            }
        }
        // Refill the pipeline, routing each op to its shard.
        let mut sent = 0;
        while self.outstanding < self.pipeline {
            let op = self.workload.next_op();
            let dest = world.router.borrow_mut().route(op.key(), is_write(&op));
            let value = match &op {
                Op::Put { value_len, .. } => Some(
                    ctx.machine_at(dest)
                        .payloads
                        .alloc(vec![self.value_fill; *value_len].into_boxed_slice()),
                ),
                _ => None,
            };
            if let Some(history) = world.driver.history.as_mut() {
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
                let at = ctx.now().as_ps();
                history.invoke(self.id, self.next_seq, class, key, digest, limit, at);
            }
            if retry_on {
                self.pending
                    .on_send(self.next_seq, ctx.now(), &self.retry, op.clone());
            }
            self.shadow.insert(self.next_seq, (op.clone(), ctx.now()));
            let req = Request {
                client: self.id,
                seq: self.next_seq,
                op,
                value,
                sent_at: ctx.now(),
            };
            self.next_seq += 1;
            let wire = req.wire_len();
            let now = ctx.now();
            world.shards[dest]
                .fabric_mut()
                .client_send(now, wire, NetMsg::Req(req));
            ctx.compute_ns(30);
            world.driver.clients[self.id as usize].issued += 1;
            self.outstanding += 1;
            sent += 1;
        }
        if drained == 0 && sent == 0 && resent == 0 {
            // Sleep until the earliest delivery across shards, clamped to
            // the next retransmit deadline (same rule as `ClientProc`). With
            // nothing in flight this client polls where `ClientProc` parks:
            // it waits on N shard fabrics and a `Waker` is single-use, so it
            // cannot be left with all of them. ROADMAP 5(b) folds this FSM
            // into `ClientProc`, which brings parking with it.
            let mut at: Option<SimTime> = None;
            for s in 0..nshards {
                if let Some(t) = world.shards[s]
                    .fabric_mut()
                    .client_next_at(self.id as usize)
                {
                    at = Some(match at {
                        Some(a) if a <= t => a,
                        _ => t,
                    });
                }
            }
            if let Some(at) = at {
                let wake = match self.pending.next_deadline() {
                    Some(dl) if retry_on => at.min(dl),
                    _ => at,
                };
                ctx.advance_to(wake);
            }
            return StepOutcome::Idle;
        }
        StepOutcome::Progress
    }

    fn name(&self) -> &'static str {
        "client"
    }
}
