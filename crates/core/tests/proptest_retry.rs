//! Property tests for the fault-tolerance machinery: client retry/timeout
//! bookkeeping ([`RetryState`]), server-side sequence dedup ([`DedupTable`]),
//! and CR-MR descriptor-lease reclamation ([`CrMrQueue::revoke_unpopped`]).
//!
//! The first family runs a miniature event-driven channel simulation — no
//! engine, just the bookkeeping structures and a heap of in-flight messages —
//! where every request transmission is assigned an arbitrary fate (delivered,
//! dropped, duplicated, delayed) from a generated byte string. Whatever the
//! interleaving, completion must be exactly-once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::collection::vec;
use proptest::prelude::*;
use utps_core::crmr::{CrMrQueue, Desc};
use utps_core::msg::OpKind;
use utps_core::retry::{DedupTable, RetryConfig, RetryState};
use utps_sim::config::MachineConfig;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Engine, StatClass};
use utps_workload::Op;

/// One-way latency of the model channel (arbitrary units).
const LATENCY: u64 = 10;
/// Extra delay for delayed/duplicated copies — beyond the initial timeout,
/// so delays genuinely race with retransmissions.
const EXTRA: u64 = 150;

/// Event kinds: request arrival at the server, response arrival at the client.
const EV_REQ: u8 = 0;
const EV_RESP: u8 = 1;

type Heap = BinaryHeap<Reverse<(u64, u64, u8, u64)>>; // (time, uid, kind, seq)

struct Channel<'a> {
    heap: Heap,
    fates: &'a [u8],
    tx: usize,
    uid: u64,
}

impl<'a> Channel<'a> {
    fn new(fates: &'a [u8]) -> Self {
        Channel {
            heap: BinaryHeap::new(),
            fates,
            tx: 0,
            uid: 0,
        }
    }

    fn push(&mut self, time: u64, kind: u8, seq: u64) {
        let uid = self.uid;
        self.uid += 1;
        self.heap.push(Reverse((time, uid, kind, seq)));
    }

    /// Transmits a request: its fate comes from the generated byte string.
    /// Fate mix: 1/4 dropped, 1/8 duplicated, 1/8 delayed, 1/2 delivered.
    fn transmit(&mut self, now: u64, seq: u64) {
        let f = self.fates[self.tx % self.fates.len()] % 8;
        self.tx += 1;
        match f {
            0 | 1 => {} // dropped on the floor
            2 => {
                self.push(now + LATENCY, EV_REQ, seq);
                self.push(now + LATENCY + EXTRA, EV_REQ, seq);
            }
            3 => self.push(now + LATENCY + EXTRA, EV_REQ, seq),
            _ => self.push(now + LATENCY, EV_REQ, seq),
        }
    }
}

fn op_for(seq: u64) -> (Op, bool) {
    // Odd seqs are mutations (PUT), even seqs idempotent GETs. Payload bytes
    // live in the arena and are regenerated on retransmit, so the retry
    // table tracks only the operation.
    if seq % 2 == 1 {
        (
            Op::Put {
                key: seq,
                value_len: 8,
            },
            true,
        )
    } else {
        (Op::Get { key: seq }, false)
    }
}

/// Runs `n_ops` requests through the lossy channel and returns
/// (per-op completion counts, per-op server execution counts, failed count).
fn run_channel(n_ops: usize, fates: &[u8]) -> (Vec<u32>, Vec<u32>, u64) {
    let cfg = RetryConfig {
        timeout_ps: 100,
        backoff_max_ps: 1_600,
        max_retries: 8,
    };
    let mut rs = RetryState::new();
    let mut dedup = DedupTable::new(1, true);
    let mut chan = Channel::new(fates);
    let mut exec = vec![0u32; n_ops];
    let mut completed = vec![0u32; n_ops];
    let mut failed = 0u64;

    // Issue everything up front, staggered one tick apart.
    for i in 0..n_ops {
        let seq = i as u64;
        let (op, _) = op_for(seq);
        rs.on_send(seq, SimTime(seq), &cfg, op);
        chan.transmit(seq, seq);
    }

    loop {
        let next_ev = chan.heap.peek().map(|Reverse((t, ..))| *t);
        let now = match (next_ev, rs.next_deadline()) {
            (None, None) => break,
            (Some(t), None) => t,
            (None, Some(d)) => d.0,
            (Some(t), Some(d)) => t.min(d.0),
        };

        // Fire every timeout due by `now`.
        for seq in rs.due(SimTime(now)) {
            match rs.retransmit(seq, SimTime(now), &cfg) {
                Some(_) => chan.transmit(now, seq),
                None => failed += 1, // budget exhausted
            }
        }

        // Deliver every message arriving at `now`.
        while let Some(&Reverse((t, _, kind, seq))) = chan.heap.peek() {
            if t > now {
                break;
            }
            chan.heap.pop();
            match kind {
                EV_REQ => {
                    // Server: apply (unless a duplicate mutation), always ack.
                    let (_, is_mutation) = op_for(seq);
                    if is_mutation {
                        if !dedup.record(0, seq) {
                            exec[seq as usize] += 1;
                        }
                    } else {
                        exec[seq as usize] += 1;
                    }
                    // Responses travel on the reliable direction.
                    chan.push(t + LATENCY, EV_RESP, seq);
                }
                _ => {
                    // Client: at most one completion per seq.
                    if rs.on_response(seq).is_some() {
                        completed[seq as usize] += 1;
                    }
                }
            }
        }
    }
    (completed, exec, failed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactly-once completion under arbitrary drop/duplicate/delay
    /// interleavings: every offered request resolves exactly once (completed
    /// or failed), no request completes twice, and no mutation is ever
    /// applied twice at the server.
    #[test]
    fn exactly_once_under_arbitrary_interleavings(
        fates in vec(any::<u8>(), 16..128),
        n_ops in 1usize..48,
    ) {
        let (completed, exec, failed) = run_channel(n_ops, &fates);
        let done: u64 = completed.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(done + failed, n_ops as u64, "every op must resolve");
        for (seq, &c) in completed.iter().enumerate() {
            prop_assert!(c <= 1, "seq {seq} completed {c} times");
            let mutation = seq % 2 == 1;
            if mutation {
                prop_assert!(exec[seq] <= 1, "mutation {seq} applied {} times", exec[seq]);
                if c == 1 {
                    prop_assert_eq!(exec[seq], 1, "completed mutation {} never applied", seq);
                }
            }
        }
    }

    /// The dedup floor compresses contiguous prefixes: recording seqs in any
    /// order reports a duplicate exactly for repeats, and the sparse
    /// above-floor set stays bounded by the out-of-order window.
    #[test]
    fn dedup_reports_repeats_exactly(seqs in vec(0u64..64, 1..256)) {
        let mut table = DedupTable::new(1, true);
        let mut seen = std::collections::HashSet::new();
        for &s in &seqs {
            let dup = table.record(0, s);
            prop_assert_eq!(dup, !seen.insert(s), "seq {} misclassified", s);
            prop_assert_eq!(table.seen(0, s), true);
        }
    }
}

/// Runs `f` once inside a real simulation step so the queue's charged
/// operations have a live [`Ctx`].
fn with_queue<R: 'static>(
    q: CrMrQueue,
    f: impl FnOnce(&mut Ctx<'_>, &mut CrMrQueue) -> R + 'static,
) -> R {
    Engine::run_once(MachineConfig::tiny(), 2, StatClass::Cr, q, f).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lease reclamation never double-executes a descriptor: after an
    /// arbitrary prefix of a lane's batch has been popped (executed), revoking
    /// the rest and re-pushing it to the other lanes yields each descriptor
    /// exactly once across all pops.
    #[test]
    fn lease_revoke_never_double_executes(
        pushed in 1usize..32,
        popped_frac in 0u8..=100,
        workers in 3usize..6,
    ) {
        let stalled = 1usize; // consumer whose lease expires
        let n_popped = pushed * popped_frac as usize / 100;
        let executed = with_queue(
            CrMrQueue::new(workers, 64),
            move |ctx, q| {
                let mut batch: Vec<Desc> = (0..pushed as u64)
                    .map(|seq| Desc { key: seq, seq, kind: OpKind::Get, size: 8 })
                    .collect();
                let n = q.push_batch(ctx, 0, stalled, &mut batch);
                assert_eq!(n, pushed, "lane must absorb the whole batch");

                let mut executed: Vec<u64> = Vec::new();
                let mut out = Vec::new();
                // The stalled worker got partway through its batch.
                q.pop_batch(ctx, 0, stalled, &mut out, n_popped);
                executed.extend(out.iter().map(|d| d.seq));
                let done = out.len() as u64;
                if done > 0 {
                    q.complete(ctx, 0, stalled, done);
                }

                // Lease expires: reclaim what the worker never popped and
                // spread it over the healthy consumers.
                let mut revoked = Vec::new();
                q.revoke_unpopped(ctx, 0, stalled, &mut revoked);
                assert_eq!(revoked.len(), pushed - n_popped);
                let healthy: Vec<usize> =
                    (1..workers).filter(|&c| c != stalled).collect();
                for (i, d) in revoked.into_iter().enumerate() {
                    let target = healthy[i % healthy.len()];
                    let mut one = vec![d];
                    assert_eq!(q.push_batch(ctx, 0, target, &mut one), 1);
                }

                // Healthy consumers drain their lanes to completion.
                for &c in &healthy {
                    out.clear();
                    q.pop_batch(ctx, 0, c, &mut out, pushed);
                    executed.extend(out.iter().map(|d| d.seq));
                    let done = out.len() as u64;
                    if done > 0 {
                        q.complete(ctx, 0, c, done);
                    }
                }
                assert!(q.producer_idle(0), "all work must be accounted for");
                executed
            },
        );

        // Every descriptor executed exactly once, none lost.
        let mut counts = vec![0u32; pushed];
        for seq in executed {
            counts[seq as usize] += 1;
        }
        for (seq, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c, 1, "desc {} executed {} times", seq, c);
        }
    }
}
