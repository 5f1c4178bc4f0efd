//! Property-based tests: both index structures against model maps, driven
//! through the simulated-execution harness.

use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use utps_index::{Index, IndexGet, IndexInsert, IndexKind, IndexRemove, IndexScan, Step};
use utps_sim::{Ctx, Engine, MachineConfig, StatClass};

/// One generated operation.
#[derive(Clone, Debug)]
enum MapOp {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
    Scan(u64, usize),
}

fn op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0u64..300, any::<u32>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0u64..300).prop_map(MapOp::Remove),
        (0u64..300).prop_map(MapOp::Get),
        (0u64..300, 1usize..20).prop_map(|(k, n)| MapOp::Scan(k, n)),
    ]
}

/// Runs `f` inside a one-shot simulated process over `index`.
fn with_index(index: Index, f: impl FnOnce(&mut Ctx<'_>, &mut Index) + 'static) -> Index {
    Engine::run_once(MachineConfig::tiny(), 1, StatClass::Other, index, f).1
}

fn drive<T>(
    ctx: &mut Ctx<'_>,
    index: &mut Index,
    mut poll: impl FnMut(&mut Ctx<'_>, &mut Index) -> Step<T>,
) -> T {
    loop {
        match poll(ctx, index) {
            Step::Done(v) => return v,
            Step::Ready => {}
            Step::Blocked => panic!("blocked in single-threaded property test"),
        }
    }
}

fn check_against_model(kind: IndexKind, ops: Vec<MapOp>) {
    let index = Index::new(kind, 1024);
    let model: Rc<RefCell<BTreeMap<u64, u32>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let model2 = Rc::clone(&model);
    let index = with_index(index, move |ctx, index| {
        let mut model = model2.borrow_mut();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let mut ins = IndexInsert::new(index, k, v);
                    match drive(ctx, index, |c, i| ins.poll(c, i)) {
                        Ok(()) => {
                            assert!(model.insert(k, v).is_none(), "model had {k}");
                        }
                        Err(utps_index::IndexInsertError::Duplicate(existing)) => {
                            assert_eq!(model.get(&k), Some(&existing));
                        }
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                }
                MapOp::Remove(k) => {
                    let mut rm = IndexRemove::new(index, k);
                    let got = drive(ctx, index, |c, i| rm.poll(c, i));
                    assert_eq!(got, model.remove(&k));
                }
                MapOp::Get(k) => {
                    let mut get = IndexGet::new(index, k);
                    let got = drive(ctx, index, |c, i| get.poll(c, i));
                    assert_eq!(got, model.get(&k).copied());
                }
                MapOp::Scan(lo, n) => {
                    if index.supports_scan() {
                        let mut scan = IndexScan::new(index, lo, u64::MAX, n);
                        let got = drive(ctx, index, |c, i| scan.poll(c, i));
                        let expect: Vec<(u64, u32)> =
                            model.range(lo..).take(n).map(|(&k, &v)| (k, v)).collect();
                        assert_eq!(got, expect, "scan [{lo}..] x{n}");
                    }
                }
            }
        }
    });
    // Final state equivalence.
    let model = model.borrow();
    assert_eq!(index.len(), model.len());
    for (&k, &v) in model.iter() {
        assert_eq!(index.get_native(k), Some(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_matches_btreemap(ops in vec(op_strategy(), 1..250)) {
        check_against_model(IndexKind::Tree, ops);
    }

    #[test]
    fn hash_matches_btreemap(ops in vec(op_strategy(), 1..250)) {
        check_against_model(IndexKind::Hash, ops);
    }

    /// Bulk-loaded trees agree with incremental construction.
    #[test]
    fn bulk_load_equals_inserts(keys in proptest::collection::btree_set(0u64..10_000, 1..500)) {
        let pairs: Vec<(u64, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        let tree = utps_index::BplusTree::bulk_load(&pairs);
        tree.check_invariants();
        prop_assert_eq!(tree.iter_native(), pairs);
    }
}
