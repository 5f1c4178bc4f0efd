//! Equivalence property: [`Engine::run_until`] steps processes in exactly
//! the order of a plain `BinaryHeap<Reverse<(SimTime, ProcId)>>` scheduler
//! that pops the minimum key, steps it and re-pushes it.
//!
//! `proptest_wheel.rs` pins the timer wheel alone; this pins what the
//! engine builds on it: tie-cohort draining, re-keying through the wheel,
//! and the state it leaves between runs. Scripted processes charge per-step
//! costs that favour ties (an idle poll, one or two poll quanta) and also
//! reach every wheel level, the top ones included; each halts when its
//! script runs out. Every run is split at a few generated deadlines, then
//! driven to completion, and after each split run one more scripted process
//! is spawned at `now()` — below the anchor whenever the run's last peek
//! cascaded it past the deadline, which rewinds the wheel. The `(time, pid)`
//! step logs, each run's step count and `now()` must equal the reference's,
//! and no process may be left live.
//!
//! A second property adds parking on the poll grid: scripted steps park
//! (some with a deadline), file wakes for every parked process at a
//! generated time through the fabric, or wake one process after the current
//! step — often one that is not parked any more, so stale and superseded
//! wakes are common, and a woken key often lands on the cohort being
//! drained for a larger pid. The reference is the same heap scheduler with
//! the park rule of DESIGN.md §10 spelled out: a wake moves a sleeper's key
//! forward to its first grid point at or after the event that follows the
//! waking step, and a key that is no longer current is skipped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::collection::vec;
use proptest::prelude::*;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Engine, Fabric, MachineConfig, ProcId, Process, StatClass, StepOutcome};

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

    /// Adds a process with `script`, first stepped at `at`.
    fn spawn(&mut self, at: SimTime, script: Vec<u64>) {
        self.heap.push(Reverse((at, self.scripts.len())));
        self.scripts.push(script);
        self.next.push(0);
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
        (1u64 << 40)..(1 << 46), // levels 4-5
        (1u64 << 47)..(1 << 52), // level 6
        (1u64 << 54)..(1 << 57), // level 7
    ];
    prop_oneof![ties, levels]
}

fn deadline() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..(1 << 20),
        (1u64 << 20)..(1 << 32),
        (1u64 << 32)..(1 << 54),
        (1u64 << 54)..(1 << 62)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_steps_in_reference_heap_order(
        scripts in vec(vec(charge(MachineConfig::tiny().cost.poll_quantum), 0..40), 1..25),
        splits in vec(
            (deadline(), vec(charge(MachineConfig::tiny().cost.poll_quantum), 0..40)),
            1..5,
        ),
    ) {
        let cfg = MachineConfig::tiny();
        let mut reference = Reference::new(scripts.clone(), cfg.cost.poll_quantum);
        let mut eng = Engine::new(cfg, 1, Log::new());
        for charges in scripts {
            eng.spawn(None, StatClass::Other, Box::new(Scripted { charges, next: 0 }));
        }
        let mut splits: Vec<(SimTime, Vec<u64>)> =
            splits.into_iter().map(|(d, late)| (SimTime(d), late)).collect();
        splits.sort_by_key(|&(d, _)| d);
        for (deadline, late) in splits {
            let (want_steps, want_now) = reference.run_until(deadline);
            prop_assert_eq!(eng.run_until(deadline), want_steps, "steps before {:?}", deadline);
            prop_assert_eq!(eng.now(), want_now);
            reference.spawn(want_now, late.clone());
            eng.spawn(None, StatClass::Other, Box::new(Scripted { charges: late, next: 0 }));
        }
        let (want_steps, want_now) = reference.run_until(SimTime::MAX);
        prop_assert_eq!(eng.run_until(SimTime::MAX), want_steps, "steps to the end");
        prop_assert_eq!(eng.now(), want_now);
        prop_assert_eq!(&eng.world, &reference.log);
        prop_assert_eq!(eng.live_procs(), 0);
    }
}

/// One scripted step of a parking process: charge `ps` (0: the poll
/// quantum), then act.
#[derive(Clone, Copy, Debug)]
enum Act {
    /// Nothing more.
    Run,
    /// Park on the grid this step's charge spans, waking by `deadline`
    /// past the step's end if nothing comes first.
    Park(Option<u64>),
    /// Wake every parked process at `at` past this step's start.
    WakeAll(u64),
    /// Wake process `pid % n` after this step, parked or not.
    WakeOne(usize),
}

struct ParkWorld {
    fabric: Fabric<u64>,
    log: Log,
}

struct Parker {
    id: usize,
    script: Vec<(u64, Act)>,
    next: usize,
}

impl Process<ParkWorld> for Parker {
    fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut ParkWorld) -> StepOutcome {
        w.log.push((ctx.now(), ctx.pid()));
        // Nothing is ever delivered: the queue only carries wake times.
        while w.fabric.server_poll(SimTime::MAX).is_some() {}
        let Some(&(ps, act)) = self.script.get(self.next) else {
            ctx.halt();
            return StepOutcome::Idle;
        };
        self.next += 1;
        let start = ctx.now();
        ctx.compute_ps(ps);
        match act {
            Act::Run => {}
            Act::Park(deadline) => {
                let end = ctx.now()
                    + if ps == 0 {
                        ctx.machine().cfg.cost.poll_quantum
                    } else {
                        0
                    };
                let waker = ctx.park_on_grid(deadline.map(|d| end + d));
                w.fabric.server_park(self.id, waker);
            }
            Act::WakeAll(at) => w.fabric.redeliver_server(start + at, 0),
            Act::WakeOne(target) => w.fabric.wake_server(target),
        }
        StepOutcome::Progress
    }
}

/// The heap scheduler with parking spelled out.
struct ParkReference {
    heap: BinaryHeap<Reverse<(SimTime, ProcId)>>,
    /// Each process's current key; a popped key that is not is stale.
    key: Vec<Option<SimTime>>,
    /// A sleeper's grid: its next tick and period.
    grid: Vec<Option<(SimTime, u64)>>,
    scripts: Vec<Vec<(u64, Act)>>,
    next: Vec<usize>,
    quantum: u64,
    log: Log,
}

impl ParkReference {
    fn new(scripts: Vec<Vec<(u64, Act)>>, quantum: u64) -> Self {
        let n = scripts.len();
        ParkReference {
            heap: (0..n).map(|pid| Reverse((SimTime::ZERO, pid))).collect(),
            key: vec![Some(SimTime::ZERO); n],
            grid: vec![None; n],
            next: vec![0; n],
            scripts,
            quantum,
            log: Vec::new(),
        }
    }

    /// The first point of `pid`'s grid at or after `at` that the scheduler
    /// orders after step `(t, by)`, if earlier than its key.
    fn wake(&mut self, pid: ProcId, at: SimTime, t: SimTime, by: ProcId) {
        let Some((tick, period)) = self.grid[pid] else {
            return;
        };
        let x = at.max(t).max(tick);
        let mut g = tick + (x - tick).div_ceil(period) * period;
        if g == t && pid < by {
            g += period;
        }
        if self.key[pid].is_none_or(|k| g < k) {
            self.key[pid] = Some(g);
            self.heap.push(Reverse((g, pid)));
        }
    }

    fn run_until(&mut self, deadline: SimTime) -> (u64, SimTime) {
        let mut steps = 0;
        while let Some(&Reverse((t, pid))) = self.heap.peek() {
            if t >= deadline {
                break;
            }
            self.heap.pop();
            if self.key[pid] != Some(t) {
                continue;
            }
            self.log.push((t, pid));
            steps += 1;
            self.grid[pid] = None;
            self.key[pid] = None;
            let Some(&(ps, act)) = self.scripts[pid].get(self.next[pid]) else {
                continue;
            };
            self.next[pid] += 1;
            let end = t + if ps == 0 { self.quantum } else { ps };
            match act {
                Act::Park(d) => {
                    self.grid[pid] = Some((end, end - t));
                    if let Some(d) = d {
                        self.wake(pid, end + d, t, pid);
                    }
                }
                _ => {
                    self.key[pid] = Some(end);
                    self.heap.push(Reverse((end, pid)));
                }
            }
            let n = self.scripts.len();
            match act {
                Act::WakeAll(at) => {
                    for q in 0..n {
                        self.wake(q, t + at, t, pid);
                    }
                }
                Act::WakeOne(target) => self.wake(target % n, SimTime::ZERO, t, pid),
                _ => {}
            }
        }
        let next = self
            .heap
            .iter()
            .filter(|&&Reverse((t, p))| self.key[p] == Some(t))
            .min();
        let next = next.map_or(deadline, |&Reverse((t, _))| t);
        (steps, deadline.min(next))
    }

    fn parked(&self) -> usize {
        self.grid.iter().filter(|g| g.is_some()).count()
    }
}

fn act(n: usize, quantum: u64) -> impl Strategy<Value = (u64, Act)> {
    let small = move || prop_oneof![Just(0u64), Just(quantum), 1u64..200_000];
    let deadline = prop_oneof![
        Just(None),
        (0u64..300_000).prop_map(Some),
        (1u64 << 30..1 << 40).prop_map(Some)
    ];
    let at = prop_oneof![0u64..50_000, 50_000u64..400_000, (1u64 << 32)..(1 << 44)];
    prop_oneof![
        (charge(quantum), Just(Act::Run)),
        (small(), deadline).prop_map(|(ps, d)| (ps, Act::Park(d))),
        (small(), at).prop_map(|(ps, at)| (ps, Act::WakeAll(at))),
        (small(), 0..n).prop_map(|(ps, t)| (ps, Act::WakeOne(t))),
    ]
}

fn park_scripts() -> impl Strategy<Value = Vec<Vec<(u64, Act)>>> {
    let quantum = MachineConfig::tiny().cost.poll_quantum;
    (1usize..12).prop_flat_map(move |n| vec(vec(act(n, quantum), 0..40), n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parking_engine_steps_in_reference_order(
        scripts in park_scripts(),
        deadlines in vec(deadline(), 1..5),
    ) {
        let cfg = MachineConfig::tiny();
        let n = scripts.len();
        let mut reference = ParkReference::new(scripts.clone(), cfg.cost.poll_quantum);
        let world = ParkWorld { fabric: Fabric::new(cfg.net.clone(), 0), log: Log::new() };
        let mut eng = Engine::new(cfg, 1, world);
        for (id, script) in scripts.into_iter().enumerate() {
            eng.spawn(None, StatClass::Other, Box::new(Parker { id, script, next: 0 }));
        }
        let mut deadlines: Vec<SimTime> = deadlines.into_iter().map(SimTime).collect();
        deadlines.sort();
        deadlines.push(SimTime::MAX);
        for deadline in deadlines {
            let (want_steps, want_now) = reference.run_until(deadline);
            prop_assert_eq!(eng.run_until(deadline), want_steps, "steps before {:?}", deadline);
            prop_assert_eq!(eng.now(), want_now);
        }
        prop_assert_eq!(&eng.world.log, &reference.log);
        // Whoever is still asleep sleeps for good; everyone else halted.
        prop_assert_eq!(eng.live_procs(), reference.parked());
        prop_assert!(n >= reference.parked());
    }
}
