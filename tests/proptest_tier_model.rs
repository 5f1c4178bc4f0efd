//! Property test for the cold tier: arbitrary interleavings of point ops
//! and compaction passes over a small keyspace must agree with a flat
//! `BTreeMap` model, no matter how eviction slices the keys between the
//! DRAM store and the sorted run.
//!
//! The tier under test uses an aggressively tiny DRAM budget
//! (`dram_items_max = 8` over a 32-key space) so nearly every compaction
//! pass evicts, every run seal folds old-run survivors with fresh
//! evictions, and reads constantly cross the DRAM/run boundary. Every op
//! completes through `tier::finish_op` — the one op-completion path both
//! servers call — so the semantics under test are the servers' own: a
//! delete acks `ok` when the key lived in DRAM *or* only in the run (a
//! tombstone shadows the run copy until the next seal omits it), a get
//! that misses DRAM parks on the cold read, and every applied write lands
//! in the WAL buffer.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use utps_core::msg::Request;
use utps_core::store::{KvOp, KvOpOutput, KvStore, OpBuffers};
use utps_core::tier::{compact_pass, finish_op, TierConfig, TierState};
use utps_index::{IndexKind, Step};
use utps_sim::{Ctx, Engine, MachineConfig, StatClass};
use utps_wal::{WalOp, WalRecord};
use utps_workload::Op;

const BUFS: OpBuffers = OpBuffers {
    recv_addr: 0x10_0000,
    resp_addr: 0x20_0000,
};
const KEYS: u64 = 32;
const POP: u64 = 24;
const LEN: usize = 16;

/// One generated operation against the tiered store.
#[derive(Clone, Debug)]
enum TierOp {
    Put(u64, u8, usize),
    Delete(u64),
    Get(u64),
    Compact,
}

fn op_strategy() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        (0..KEYS, 1u8..=255, 1usize..48).prop_map(|(k, f, n)| TierOp::Put(k, f, n)),
        (0..KEYS).prop_map(TierOp::Delete),
        (0..KEYS).prop_map(TierOp::Get),
        (0..KEYS).prop_map(|_| TierOp::Compact),
    ]
}

struct TierWorld {
    store: KvStore,
    tier: TierState,
}

/// Runs `f` inside a one-shot simulated process over the tiered world.
fn with_world(world: TierWorld, f: impl FnOnce(&mut Ctx<'_>, &mut TierWorld) + 'static) {
    Engine::run_once(MachineConfig::tiny(), 1, StatClass::Other, world, f);
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

/// Runs `kv` to completion the way a server worker does: pin the key, poll
/// the FSM, then hand the DRAM-side result to the shared `finish_op`.
/// Returns the final output, or the cold-run value the op parked on.
fn serve(
    ctx: &mut Ctx<'_>,
    w: &mut TierWorld,
    op: Op,
    mut kv: KvOp,
    wal: &mut Vec<WalRecord>,
) -> Result<KvOpOutput, Vec<u8>> {
    let req = Request {
        client: 0,
        seq: wal.len() as u64,
        op,
        value: None,
        sent_at: ctx.now(),
    };
    w.tier.active_inc(req.op.key());
    let out = drive(ctx, &mut w.store, &mut kv);
    let mut cold = None;
    match finish_op(ctx, Some(&mut w.tier), &w.store, &req, wal, &mut cold, out) {
        Some(out) => Ok(out),
        None => Err(cold.expect("parked op arms its cold read").1),
    }
}

/// The tiered read path as one map: DRAM shadows the run, tombstones
/// shadow the run's copy of deleted keys.
fn effective(world: &mut TierWorld, key: u64) -> Option<Vec<u8>> {
    if let Some(v) = world.store.get_native(key) {
        return Some(v.to_vec());
    }
    world.tier.run_value(key).map(<[u8]>::to_vec)
}

fn check_tier_model(ops: Vec<TierOp>) {
    let store = KvStore::populate(IndexKind::Tree, POP, LEN);
    let tier = TierState::new(
        TierConfig {
            dram_items_max: 8,
            evict_batch: 4,
            ..Default::default()
        },
        42,
    );
    let mut model: BTreeMap<u64, Vec<u8>> = (0..POP).map(|k| (k, vec![0xab; LEN])).collect();
    with_world(TierWorld { store, tier }, move |ctx, w| {
        let mut wal = Vec::new();
        for op in ops {
            match op {
                TierOp::Put(k, fill, len) => {
                    let value = vec![fill; len];
                    let kv = KvOp::put(&w.store, k, value.clone().into_boxed_slice(), BUFS);
                    let op = Op::Put {
                        key: k,
                        value_len: len,
                    };
                    let out = serve(ctx, w, op, kv, &mut wal).expect("puts never park");
                    assert!(out.ok, "put {k}");
                    let logged = wal.last().expect("applied put is logged");
                    assert_eq!(
                        (logged.key, logged.op, &logged.value),
                        (k, WalOp::Put, &value)
                    );
                    model.insert(k, value);
                }
                TierOp::Delete(k) => {
                    let kv = KvOp::delete(&w.store, k, BUFS);
                    let logged_before = wal.len();
                    let out = serve(ctx, w, Op::Delete { key: k }, kv, &mut wal)
                        .expect("deletes never park");
                    assert_eq!(out.ok, model.remove(&k).is_some(), "delete {k}");
                    assert_eq!(wal.len() - logged_before, usize::from(out.ok));
                }
                TierOp::Get(k) => {
                    let kv = KvOp::get(&w.store, k, BUFS);
                    let got = match serve(ctx, w, Op::Get { key: k }, kv, &mut wal) {
                        Ok(out) if out.ok => {
                            let v = out.value.expect("ok get returns bytes");
                            Some(ctx.machine().payloads.take(v).into_vec())
                        }
                        Ok(_) => None,
                        Err(cold) => Some(cold),
                    };
                    assert_eq!(got.as_deref(), model.get(&k).map(|v| &v[..]), "get {k}");
                }
                TierOp::Compact => {
                    compact_pass(&mut w.tier, &mut w.store, None, KEYS, ctx);
                    // A seal folds the tombstones into the omitted keys.
                    for k in 0..KEYS {
                        assert_eq!(
                            effective(w, k).as_deref(),
                            model.get(&k).map(|v| &v[..]),
                            "post-compaction key {k}"
                        );
                    }
                }
            }
        }
        // Final full-sweep equivalence across both tiers.
        for k in 0..KEYS {
            assert_eq!(
                effective(w, k).as_deref(),
                model.get(&k).map(|v| &v[..]),
                "final state key {k}"
            );
        }
        // Every model item is in DRAM or the run; nothing beyond the model
        // count survives in DRAM (the run may hold shadowed stale copies).
        assert!(w.store.len() <= model.len(), "DRAM holds deleted items");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiered reads/writes/deletes interleaved with compaction passes match
    /// the BTreeMap model key-for-key after every seal.
    #[test]
    fn tiered_ops_match_btreemap_model(ops in vec(op_strategy(), 1..160)) {
        check_tier_model(ops);
    }
}

/// A deterministic regression for the trickiest interleaving: a key is
/// evicted to the run, deleted cold (tombstone), re-put into DRAM, and the
/// next seal must carry the *new* value — not resurrect the old run copy,
/// not lose the key to the stale tombstone.
#[test]
fn tombstone_then_reput_survives_compaction() {
    let store = KvStore::populate(IndexKind::Tree, POP, LEN);
    let tier = TierState::new(
        TierConfig {
            dram_items_max: 0,
            evict_batch: POP as usize,
            ..Default::default()
        },
        7,
    );
    with_world(TierWorld { store, tier }, |ctx, w| {
        // Everything evicts: key 3 now lives only in the run.
        compact_pass(&mut w.tier, &mut w.store, None, KEYS, ctx);
        assert_eq!(w.store.len(), 0);
        assert_eq!(w.tier.run_items(), POP);
        assert!(w.tier.run_value(3).is_some());

        // Cold delete: tombstone shadows the run copy immediately.
        w.tier.tombstone(3);
        assert!(w.tier.run_value(3).is_none());

        // Re-put while the tombstone is still live.
        let mut op = KvOp::put(&w.store, 3, vec![0x5a; 8].into_boxed_slice(), BUFS);
        assert!(drive(ctx, &mut w.store, &mut op).ok);
        assert_eq!(effective(w, 3).as_deref(), Some(&[0x5a; 8][..]));

        // The next seal evicts the fresh copy and clears the tombstone; the
        // new value must win over both the stale run entry and the shadow.
        compact_pass(&mut w.tier, &mut w.store, None, KEYS, ctx);
        assert_eq!(w.store.len(), 0);
        assert_eq!(w.tier.tombstone_count(), 0);
        assert_eq!(w.tier.run_value(3), Some(&[0x5a; 8][..]));
    });
}
