//! Equivalence property: [`TimerWheel`] pops in exactly the order of the
//! reference `BinaryHeap<Reverse<(SimTime, ProcId)>>` it replaced.
//!
//! The engine's byte-identity across the scheduler swap rests on this
//! equivalence, so it is pinned here over random interleavings of
//! engine-shaped operations: pushes at offsets spanning every wheel level
//! (granule ties, same-slot neighbours, mid levels, the far-future
//! overflow heap), pops, peeks (which cascade the anchor and so set up
//! below-anchor pushes, as the engine makes while it drains its `pending`
//! lockstep buffer), and cancels.

use proptest::collection::vec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use utps_sim::time::SimTime;
use utps_sim::TimerWheel;

/// Distinct schedulable processes; each holds at most one key, as in the
/// engine (a process is re-pushed only after being popped).
const PIDS: usize = 12;

/// One generated scheduler operation. `Push` offsets are relative to the
/// largest popped time, which keeps every push legal under the wheel's
/// contract while still landing below the anchor after peek cascades.
#[derive(Clone, Debug)]
enum WheelOp {
    /// Schedule pid (if idle) at `last popped + offset`.
    Push(usize, u64),
    /// Pop the minimum from both structures and compare.
    Pop,
    /// Drain the whole minimum tie-run from both structures and compare.
    PopTies,
    /// Compare minima without removing (cascades the wheel internally).
    Peek,
    /// Cancel pid's key in both structures, if scheduled.
    Remove(usize),
}

fn op_strategy() -> impl Strategy<Value = WheelOp> {
    let offset = prop_oneof![
        Just(0u64),              // exact ties: same (time), pid breaks
        1u64..4_096,             // within one level-0 granule
        4_096u64..262_144,       // levels 0-1
        262_144u64..(1 << 30),   // mid levels
        (1u64 << 40)..(1 << 46), // top in-wheel levels
        (1u64 << 47)..(1 << 52), // beyond the horizon: overflow heap
    ];
    prop_oneof![
        (0usize..PIDS, offset).prop_map(|(p, o)| WheelOp::Push(p, o)),
        Just(WheelOp::Pop),
        Just(WheelOp::PopTies),
        Just(WheelOp::Peek),
        (0usize..PIDS).prop_map(WheelOp::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wheel_matches_reference_heap(ops in vec(op_strategy(), 1..400)) {
        let mut wheel = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
        // At most one key per pid, exactly as the engine schedules.
        let mut scheduled: [Option<SimTime>; PIDS] = [None; PIDS];
        let mut popped_hi = 0u64;

        for op in ops {
            match op {
                WheelOp::Push(pid, offset) => {
                    if scheduled[pid].is_none() {
                        let t = SimTime(popped_hi + offset);
                        wheel.push(t, pid);
                        heap.push(Reverse((t, pid)));
                        scheduled[pid] = Some(t);
                    }
                }
                WheelOp::Pop => {
                    let got = wheel.pop();
                    let want = heap.pop().map(|Reverse(k)| k);
                    prop_assert_eq!(got, want);
                    if let Some((t, pid)) = got {
                        popped_hi = t.0;
                        scheduled[pid] = None;
                    }
                }
                WheelOp::PopTies => {
                    // The engine's fast path: one call must equal popping
                    // the reference heap until the time changes.
                    let mut out = Vec::new();
                    let got_t = wheel.pop_ties(&mut out);
                    let mut want = Vec::new();
                    let want_t = heap.peek().map(|&Reverse((t, _))| t);
                    while let Some(&Reverse((t, pid))) = heap.peek() {
                        if Some(t) != want_t {
                            break;
                        }
                        heap.pop();
                        want.push(pid);
                        popped_hi = t.0;
                        scheduled[pid] = None;
                    }
                    prop_assert_eq!(got_t, want_t);
                    prop_assert_eq!(out, want);
                }
                WheelOp::Peek => {
                    prop_assert_eq!(wheel.peek(), heap.peek().map(|&Reverse(k)| k));
                }
                WheelOp::Remove(pid) => {
                    if let Some(t) = scheduled[pid].take() {
                        prop_assert!(wheel.remove(t, pid));
                        heap.retain(|&Reverse(k)| k != (t, pid));
                    } else {
                        // Nothing scheduled for pid: removal must miss.
                        prop_assert!(!wheel.remove(SimTime(popped_hi), pid));
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
        }

        // Drain both: the full remaining pop sequences must coincide.
        while let Some(want) = heap.pop().map(|Reverse(k)| k) {
            prop_assert_eq!(wheel.pop(), Some(want));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }
}
