//! Equivalence property: [`Engine::run_until`] steps processes in exactly
//! the order of a plain `BinaryHeap<Reverse<(SimTime, ProcId)>>` scheduler
//! that pops the minimum key, steps it and re-pushes it.
//!
//! `proptest_wheel.rs` pins the timer wheel alone; this pins what the
//! engine builds on it: tie-cohort draining, the `pending` lockstep buffer,
//! its merge with equal-time wheel keys, and its flush back into the wheel
//! at a deadline. Scripted processes charge per-step costs that favour ties
//! (an idle poll, one or two poll quanta) and also reach every wheel level
//! and the overflow heap; each halts when its script runs out. Every run is
//! split at a few generated deadlines, then driven to completion. The
//! `(time, pid)` step logs, each run's step count and `now()` must equal the
//! reference's, and no process may be left live.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::collection::vec;
use proptest::prelude::*;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Engine, MachineConfig, ProcId, Process, StatClass, StepOutcome};

type Log = Vec<(SimTime, ProcId)>;

/// Logs its step, then charges the next scripted cost (0: an idle poll,
/// which the engine bumps by the poll quantum) or halts if there is none.
struct Scripted {
    charges: Vec<u64>,
    next: usize,
}

impl Process<Log> for Scripted {
    fn step(&mut self, ctx: &mut Ctx<'_>, log: &mut Log) -> StepOutcome {
        log.push((ctx.now(), ctx.pid()));
        let Some(&ps) = self.charges.get(self.next) else {
            ctx.halt();
            return StepOutcome::Idle;
        };
        self.next += 1;
        ctx.compute_ps(ps);
        StepOutcome::Progress
    }
}

/// The scheduler the engine must match, over the same scripts.
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, ProcId)>>,
    scripts: Vec<Vec<u64>>,
    next: Vec<usize>,
    quantum: u64,
    log: Log,
}

impl Reference {
    fn new(scripts: Vec<Vec<u64>>, quantum: u64) -> Self {
        Reference {
            heap: (0..scripts.len())
                .map(|pid| Reverse((SimTime::ZERO, pid)))
                .collect(),
            next: vec![0; scripts.len()],
            scripts,
            quantum,
            log: Vec::new(),
        }
    }

    /// Steps every key before `deadline`; returns the step count and the
    /// time the engine reports as `now()` afterwards.
    fn run_until(&mut self, deadline: SimTime) -> (u64, SimTime) {
        let mut steps = 0;
        while let Some(&Reverse((t, pid))) = self.heap.peek() {
            if t >= deadline {
                break;
            }
            self.heap.pop();
            self.log.push((t, pid));
            steps += 1;
            let Some(&ps) = self.scripts[pid].get(self.next[pid]) else {
                continue;
            };
            self.next[pid] += 1;
            let ps = if ps == 0 { self.quantum } else { ps };
            self.heap.push(Reverse((t + ps, pid)));
        }
        let next = self.heap.peek().map_or(deadline, |&Reverse((t, _))| t);
        (steps, deadline.min(next))
    }
}

fn charge(quantum: u64) -> impl Strategy<Value = u64> {
    let ties = prop_oneof![Just(0u64), Just(quantum), Just(2 * quantum)];
    let levels = prop_oneof![
        1u64..4_096,             // within one level-0 granule
        4_096u64..262_144,       // levels 0-1
        262_144u64..(1 << 30),   // mid levels
        (1u64 << 40)..(1 << 46), // top in-wheel levels
        (1u64 << 47)..(1 << 52), // beyond the horizon: overflow heap
    ];
    prop_oneof![ties, levels]
}

fn deadline() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..(1 << 20),
        (1u64 << 20)..(1 << 32),
        (1u64 << 32)..(1 << 54)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_steps_in_reference_heap_order(
        scripts in vec(vec(charge(MachineConfig::tiny().cost.poll_quantum), 0..40), 1..25),
        deadlines in vec(deadline(), 1..5),
    ) {
        let cfg = MachineConfig::tiny();
        let mut reference = Reference::new(scripts.clone(), cfg.cost.poll_quantum);
        let mut eng = Engine::new(cfg, 1, Log::new());
        for charges in scripts {
            eng.spawn(None, StatClass::Other, Box::new(Scripted { charges, next: 0 }));
        }
        let mut deadlines: Vec<SimTime> = deadlines.into_iter().map(SimTime).collect();
        deadlines.sort();
        deadlines.push(SimTime::MAX);
        for deadline in deadlines {
            let (want_steps, want_now) = reference.run_until(deadline);
            prop_assert_eq!(eng.run_until(deadline), want_steps, "steps before {:?}", deadline);
            prop_assert_eq!(eng.now(), want_now);
        }
        prop_assert_eq!(&eng.world, &reference.log);
        prop_assert_eq!(eng.live_procs(), 0);
    }
}
