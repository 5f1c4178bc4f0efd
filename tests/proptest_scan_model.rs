//! Property tests for the store against sequential and concurrent models.
//!
//! 1. Arbitrary op streams driven through [`KvOp`] must agree with a
//!    `BTreeMap` model op-for-op (results *and* final state).
//! 2. μTPS-T range scans racing concurrent inserts and deletes must never
//!    return phantom or dropped keys: several simulated processes mutate a
//!    small keyspace while scanners sweep it, every operation is recorded
//!    into a [`History`], and the linearizability oracle validates the lot —
//!    its scan pass bounds each observed count by the keys definitely /
//!    possibly present during the scan window.

use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use utps_core::store::{KvOp, KvOpOutput, KvStore, OpBuffers};
use utps_index::{IndexKind, Step};
use utps_oracle::{check, fill_digest, value_digest, History, InitialState, OpClass};
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Engine, MachineConfig, Process, StatClass, StepOutcome};

const BUFS: OpBuffers = OpBuffers {
    recv_addr: 0x10_0000,
    resp_addr: 0x20_0000,
};

/// One generated operation over a small keyspace.
#[derive(Clone, Debug)]
enum ModelOp {
    Put(u64, u8, usize),
    Delete(u64),
    Get(u64),
    Scan(u64, usize),
}

fn op_strategy(keys: u64) -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (0..keys, 1u8..=255, 1usize..64).prop_map(|(k, f, n)| ModelOp::Put(k, f, n)),
        (0..keys).prop_map(ModelOp::Delete),
        (0..keys).prop_map(ModelOp::Get),
        (0..keys, 1usize..16).prop_map(|(k, n)| ModelOp::Scan(k, n)),
    ]
}

/// Runs `f` inside a one-shot simulated process over `store`.
fn with_store(store: KvStore, f: impl FnOnce(&mut Ctx<'_>, &mut KvStore) + 'static) {
    Engine::run_once(MachineConfig::tiny(), 1, StatClass::Other, store, f);
}

fn drive(ctx: &mut Ctx<'_>, store: &mut KvStore, op: &mut KvOp) -> KvOpOutput {
    loop {
        match op.poll(ctx, store) {
            Step::Done(v) => return v,
            Step::Ready => {}
            Step::Blocked => panic!("blocked in single-process property test"),
        }
    }
}

fn check_sequential_model(ops: Vec<ModelOp>) {
    const POP: u64 = 32;
    let store = KvStore::populate(IndexKind::Tree, POP, 16);
    let mut model: BTreeMap<u64, Vec<u8>> = (0..POP).map(|k| (k, vec![0xab; 16])).collect();
    with_store(store, move |ctx, store| {
        for op in ops {
            match op {
                ModelOp::Put(k, fill, len) => {
                    let value = vec![fill; len];
                    let mut op = KvOp::put(store, k, value.clone().into_boxed_slice(), BUFS);
                    assert!(drive(ctx, store, &mut op).ok);
                    model.insert(k, value);
                }
                ModelOp::Delete(k) => {
                    let mut op = KvOp::delete(store, k, BUFS);
                    let out = drive(ctx, store, &mut op);
                    assert_eq!(out.ok, model.remove(&k).is_some(), "delete {k}");
                }
                ModelOp::Get(k) => {
                    let mut op = KvOp::get(store, k, BUFS);
                    let out = drive(ctx, store, &mut op);
                    match model.get(&k) {
                        Some(want) => {
                            assert!(out.ok, "get {k} missed");
                            let v = out.value.expect("ok get returns bytes");
                            assert_eq!(&ctx.machine().payloads.take(v)[..], &want[..], "get {k}");
                        }
                        None => assert!(!out.ok, "get {k} found a deleted key"),
                    }
                }
                ModelOp::Scan(k, n) => {
                    let mut op = KvOp::scan(store, k, n, vec![], BUFS);
                    let out = drive(ctx, store, &mut op);
                    let want: Vec<&Vec<u8>> = model.range(k..).take(n).map(|(_, v)| v).collect();
                    assert_eq!(out.scan_count as usize, want.len(), "scan [{k}..] x{n}");
                    let bytes: usize = want.iter().map(|v| v.len()).sum();
                    assert_eq!(out.payload, bytes, "scan [{k}..] x{n} payload");
                }
            }
        }
        // Final state equivalence.
        assert_eq!(store.len(), model.len());
        for (&k, v) in model.iter() {
            assert_eq!(store.get_native(k), Some(&v[..]), "final state key {k}");
        }
    });
}

/// A simulated worker that executes its op list one poll per scheduling
/// slot, recording invoke/response into the shared history — mutations and
/// scans from different cores interleave mid-operation.
struct Worker {
    id: u32,
    ops: Vec<ModelOp>,
    next: usize,
    seq: u64,
    cur: Option<KvOp>,
    value_len: usize,
    history: Rc<RefCell<History>>,
}

impl Process<KvStore> for Worker {
    fn step(&mut self, ctx: &mut Ctx<'_>, store: &mut KvStore) -> StepOutcome {
        let Some(op) = &mut self.cur else {
            if self.next >= self.ops.len() {
                ctx.halt();
                return StepOutcome::Idle;
            }
            let op = self.ops[self.next].clone();
            self.next += 1;
            let mut h = self.history.borrow_mut();
            let now = ctx.now().as_ps();
            let kv = match op {
                ModelOp::Put(k, fill, _) => {
                    let value = vec![fill; self.value_len];
                    h.invoke(
                        self.id,
                        self.seq,
                        OpClass::Put,
                        k,
                        Some(fill_digest(fill, self.value_len)),
                        0,
                        now,
                    );
                    KvOp::put(store, k, value.into_boxed_slice(), BUFS)
                }
                ModelOp::Delete(k) => {
                    h.invoke(self.id, self.seq, OpClass::Delete, k, None, 0, now);
                    KvOp::delete(store, k, BUFS)
                }
                ModelOp::Get(k) => {
                    h.invoke(self.id, self.seq, OpClass::Get, k, None, 0, now);
                    KvOp::get(store, k, BUFS)
                }
                ModelOp::Scan(k, n) => {
                    h.invoke(self.id, self.seq, OpClass::Scan, k, None, n as u32, now);
                    KvOp::scan(store, k, n, vec![], BUFS)
                }
            };
            self.cur = Some(kv);
            return StepOutcome::Progress;
        };
        match op.poll(ctx, store) {
            Step::Done(out) => {
                let digest = out
                    .value
                    .map(|v| value_digest(&ctx.machine().payloads.take(v)));
                self.history.borrow_mut().response(
                    self.id,
                    self.seq,
                    ctx.now().as_ps(),
                    out.ok,
                    digest,
                    out.scan_count,
                );
                self.seq += 1;
                self.cur = None;
            }
            Step::Ready | Step::Blocked => {}
        }
        StepOutcome::Progress
    }
}

fn check_concurrent_oracle(mutators: Vec<Vec<ModelOp>>, scans: Vec<ModelOp>) {
    const POP: u64 = 64;
    const LEN: usize = 16;
    let store = KvStore::populate(IndexKind::Tree, POP, LEN);
    let history = Rc::new(RefCell::new(History::new()));
    let cores = mutators.len() + 1;
    let mut eng = Engine::new(MachineConfig::tiny(), cores, store);
    for (i, ops) in mutators.into_iter().enumerate() {
        eng.spawn(
            Some(i),
            StatClass::Other,
            Box::new(Worker {
                id: i as u32,
                ops,
                next: 0,
                seq: 0,
                cur: None,
                value_len: LEN,
                history: Rc::clone(&history),
            }),
        );
    }
    eng.spawn(
        Some(cores - 1),
        StatClass::Other,
        Box::new(Worker {
            id: (cores - 1) as u32,
            ops: scans,
            next: 0,
            seq: 0,
            cur: None,
            value_len: LEN,
            history: Rc::clone(&history),
        }),
    );
    eng.run_until(SimTime::from_millis(1_000));
    let h = history.borrow();
    let init = InitialState {
        keys: POP,
        value_digest: fill_digest(0xab, LEN),
    };
    let report = check(&h, &init);
    assert_eq!(report.pending, 0, "a worker did not finish its ops");
    assert!(report.scans > 0, "no scans were checked");
    assert!(
        report.ok(),
        "concurrent scans/mutations not linearizable: {:#?}",
        report.violations
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential equivalence: every KvOp result and the final store state
    /// match the BTreeMap model.
    #[test]
    fn kv_ops_match_btreemap_model(ops in vec(op_strategy(48), 1..200)) {
        check_sequential_model(ops);
    }

    /// Tree scans under concurrent inserts/deletes return no phantom and no
    /// dropped keys (validated by the oracle's scan presence bounds), and
    /// the interleaved point ops stay linearizable.
    #[test]
    fn concurrent_scans_have_no_phantom_or_dropped_keys(
        muts in vec(vec(op_strategy(64), 20..80), 2..4),
        scans in vec((0u64..64, 1usize..16).prop_map(|(k, n)| ModelOp::Scan(k, n)), 20..60),
    ) {
        check_concurrent_oracle(muts, scans);
    }
}
