//! Differential property: a poller that parks on its poll grid observes
//! exactly what a poller that keeps stepping observes.
//!
//! The parking of CR and MR workers (DESIGN.md §10 "Parked polls") rests
//! on three engine facts pinned here: a grid park wakes at the first grid
//! point after any event that could change its next poll (a fabric arrival,
//! its core's private-cache token moving, its deadline), the skipped polls
//! charged arithmetically leave the cache model exactly where the polls
//! would have, and a wake that lands on the cohort being drained joins it in
//! pid order.
//!
//! A poller pinned to core 0 reads a set of lines and drains the fabric and
//! a list of timed alarms. It comes in two shapes: one reads the next line
//! of its rotation per step, as a CR worker reads one completion word, and
//! one reads every line per step, as an MR worker scans every lane's tail
//! word. Traffic processes on cores 0–2 read and write those lines and
//! their set neighbours, DDIO-write them, fill the LLC set they live in
//! until it evicts, and send fabric messages, at generated gaps that often
//! land on the poller's grid, and fault-stall windows freeze the poller's
//! core now and then. Each case runs, for each shape, once with the poller
//! stepping and once parking: the logs of effective steps `(time, pid,
//! observed)` — every step that is not an exact repeat of the one before —
//! the cache metrics and a final read sweep by every core must be equal,
//! and the parking run must take strictly fewer steps whenever the poller
//! may park. The sweep first evicts all but each L1 set's newest line, so
//! it shows the recency order a run leaves. The one-line poller may park
//! only once its lines sit in distinct L1 sets, since a partial rotation
//! reorders the recency of lines that share a set. The whole-set poller
//! parks after one quiet step wherever its lines sit: a whole rotation
//! leaves them in the order it found them. Pool lines 8 and 9 alias lines
//! 0 and 1, so both cases come up.

use std::collections::VecDeque;

use proptest::collection::vec;
use proptest::prelude::*;
use utps_sim::time::{SimTime, MICROS};
use utps_sim::{
    CacheHierarchy, Ctx, Engine, Fabric, FaultConfig, FaultPlan, MachineConfig, Metrics, ProcId,
    Process, StallWindow, StatClass, StepOutcome,
};

const LINE: usize = 64;
/// Aligned to the tiny LLC's set span, so pool line `i` maps to L1 set
/// `i % 8` and to LLC set `i`.
const BASE: usize = 1 << 24;
/// Pool lines 0–9: lines 8 and 9 share L1 sets 0 and 1 with lines 0 and 1.
const POOL: usize = 10;
/// The tiny LLC's set count: lines this far apart share an LLC set.
const LLC_SPAN: usize = 128 * LINE;
/// Lines no process touches, which the final sweep reads first: line `k`
/// maps to L1 set `k % 8`, and no fill reaches them.
const FRESH: usize = BASE + (1 << 20);

fn pool(i: usize) -> usize {
    BASE + i * LINE
}

/// One traffic action.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(usize),
    Write(usize),
    /// The NIC DMA-writes a pool line (DDIO).
    Ddio(usize),
    /// Reads a fresh line of pool line 0's LLC set: enough of them evict.
    Fill,
    /// A fabric message of this many bytes to the server side.
    Send(usize),
}

struct World {
    fabric: Fabric<u64>,
    /// Timed events the poller consumes once their time has come.
    alarms: VecDeque<SimTime>,
    log: Vec<(SimTime, ProcId, u64)>,
    sent: u64,
}

/// Applies one scripted op per step, then charges the next gap (0: an idle
/// poll, bumped by the poll quantum); halts when the script runs out.
struct Traffic {
    script: Vec<(u64, Op)>,
    next: usize,
    fills: usize,
}

impl Process<World> for Traffic {
    fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
        let Some(&(gap, op)) = self.script.get(self.next) else {
            ctx.halt();
            return StepOutcome::Idle;
        };
        self.next += 1;
        match op {
            Op::Read(i) => ctx.read(pool(i), 8),
            Op::Write(i) => ctx.write(pool(i), 8),
            Op::Ddio(i) => ctx.machine().cache.nic_write(pool(i), 64),
            Op::Fill => {
                self.fills += 1;
                let addr = pool(0) + (ctx.pid() * 1_000 + self.fills) * LLC_SPAN;
                ctx.read(addr, 8);
            }
            Op::Send(size) => {
                w.sent += 1;
                w.fabric.client_send(ctx.now(), size, w.sent);
            }
        }
        ctx.compute_ps(gap);
        StepOutcome::Progress
    }
}

/// Polls the fabric, the alarms and the next line of its rotation (every
/// line, if `whole`); parks on its grid (when allowed) once its poll has
/// repeated a full rotation.
struct Poller {
    lines: Vec<usize>,
    rr: u64,
    /// The run of quiet polls: the token the last ended on, its charge, and
    /// how many in a row.
    quiet: Option<(u64, u64, usize)>,
    /// Whether it parks.
    park: bool,
    /// Whether each poll reads every line, a whole rotation.
    whole: bool,
}

impl Poller {
    /// Lines each poll reads.
    fn reads(&self) -> u64 {
        if self.whole {
            self.lines.len() as u64
        } else {
            1
        }
    }
}

impl Process<World> for Poller {
    fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
        let (start, token) = (ctx.now(), ctx.private_version());
        let mut events = 0;
        while let Some(msg) = w.fabric.server_poll(start) {
            w.log.push((start, ctx.pid(), msg));
            events += 1;
        }
        if w.alarms.front().is_some_and(|&at| at <= start) {
            w.alarms.pop_front();
            w.log.push((start, ctx.pid(), u64::MAX));
            events += 1;
        }
        ctx.compute_ns(3 * events);
        let before = ctx.now();
        for _ in 0..self.reads() {
            let addr = self.lines[(self.rr % self.lines.len() as u64) as usize];
            self.rr += 1;
            ctx.read(addr, 8);
        }
        let cost = ctx.now() - before;
        let (end, charge) = (ctx.private_version(), ctx.now() - start);
        let quiet = events == 0 && end - token == self.reads();
        let repeat = quiet
            && self
                .quiet
                .is_some_and(|(t, c, _)| t == token && c == charge);
        if !repeat {
            w.log.push((start, ctx.pid(), cost));
        }
        self.quiet = quiet.then(|| {
            let run = self.quiet.filter(|_| repeat).map_or(1, |q| q.2 + 1);
            (end, charge, run)
        });
        let full_rotation = if self.whole {
            1
        } else {
            self.lines.len().max(2)
        };
        if self.park && self.quiet.is_some_and(|q| q.2 >= full_rotation) {
            let deadline = w.alarms.front().copied();
            w.fabric.server_park(0, ctx.park_on_grid(deadline));
        }
        StepOutcome::Idle
    }

    fn skipped_polls(&mut self, ctx: &mut Ctx<'_>, _w: &mut World, n: u64) {
        self.rr += n * self.reads();
        ctx.l1_hits(n * self.reads());
    }
}

#[derive(Debug)]
struct Case {
    lines: Vec<usize>,
    traffic: Vec<(usize, Vec<(u64, Op)>)>,
    alarms: Vec<u64>,
    /// Stall windows `(at, duration)` on the poller's core.
    stalls: Vec<(u64, u64)>,
    poller_slot: usize,
}

struct Outcome {
    log: Vec<(SimTime, ProcId, u64)>,
    steps: u64,
    metrics: Metrics,
    sweep: Vec<u64>,
}

/// Whether pool lines `lines` sit in distinct L1 sets.
fn distinct_sets(lines: &[usize]) -> bool {
    let cache = CacheHierarchy::new(&MachineConfig::tiny(), 1);
    let sets: Vec<usize> = lines.iter().map(|&i| cache.l1_set(pool(i))).collect();
    (1..sets.len()).all(|i| !sets[..i].contains(&sets[i]))
}

/// Whether the poller may park: a whole-set poller always, a one-line one
/// only over lines in distinct L1 sets.
fn may_park(case: &Case, whole: bool) -> bool {
    whole || distinct_sets(&case.lines)
}

fn run(case: &Case, whole: bool, park: bool) -> Outcome {
    let cfg = MachineConfig::tiny();
    let (l1_sets, l1_ways) = (cfg.cache.l1_sets, cfg.cache.l1_ways);
    let busy: u64 = case
        .traffic
        .iter()
        .map(|(_, s)| {
            s.iter()
                .map(|&(gap, _)| gap + cfg.cost.poll_quantum)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let horizon = SimTime(busy + 40 * MICROS);
    let mut alarms = case.alarms.clone();
    alarms.sort_unstable();
    let world = World {
        fabric: Fabric::new(cfg.net.clone(), 1),
        alarms: alarms.into_iter().map(SimTime).collect(),
        log: Vec::new(),
        sent: 0,
    };
    let mut eng = Engine::new(cfg, 3, world);
    let stalls = case.stalls.iter().map(|&(at_ps, dur_ps)| StallWindow {
        core: 0,
        at_ps,
        dur_ps,
    });
    let faults = FaultConfig {
        stalls: stalls.collect(),
        ..FaultConfig::default()
    };
    eng.machine().faults = FaultPlan::new(faults, 1);
    let lines: Vec<usize> = case.lines.iter().map(|&i| pool(i)).collect();
    let park = park && may_park(case, whole);
    for slot in 0..=case.traffic.len() {
        if slot == case.poller_slot {
            let poller = Poller {
                lines: lines.clone(),
                rr: 0,
                quiet: None,
                park,
                whole,
            };
            eng.spawn(Some(0), StatClass::Cr, Box::new(poller));
        }
        if let Some((core, script)) = case.traffic.get(slot) {
            let traffic = Traffic {
                script: script.clone(),
                next: 0,
                fills: 0,
            };
            eng.spawn(Some(*core), StatClass::Mr, Box::new(traffic));
        }
    }
    eng.run_until(horizon);
    let steps = eng.steps();
    let now = eng.now();
    let cache = &mut eng.machine().cache;
    let metrics = cache.metrics.clone();
    // Each core first reads `l1_ways - 1` fresh lines into every L1 set,
    // which leaves only the newest line of each set resident in L1.
    let mut sweep = Vec::new();
    for core in 0..3 {
        for k in 0..l1_sets * (l1_ways - 1) {
            cache.access(core, StatClass::Other, FRESH + k * LINE, 8, false, now);
        }
        for i in 0..POOL {
            sweep.push(cache.access(core, StatClass::Other, pool(i), 8, false, now));
        }
    }
    Outcome {
        log: std::mem::take(&mut eng.world.log),
        steps,
        metrics,
        sweep,
    }
}

fn gap() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),                        // an idle poll: the poll quantum
        (1u64..8).prop_map(|k| k * 1_200), // on the poller's L1-hit grid
        1u64..16_000,                      // inside one poll quantum
        16_000u64..2 * MICROS,             // around the one-way delay
        2 * MICROS..20 * MICROS,           // long silences: the poller parks
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..POOL).prop_map(Op::Read),
        (0..POOL).prop_map(Op::Write),
        (0..POOL).prop_map(Op::Ddio),
        Just(Op::Fill),
        (16usize..2_048).prop_map(Op::Send),
    ]
}

fn case() -> impl Strategy<Value = Case> {
    let traffic = vec((0usize..3, vec((gap(), op()), 0..40)), 1..4);
    let stalls = vec((0..200 * MICROS, 1u64..5 * MICROS), 0..3);
    (
        vec(0..POOL, 1..5),
        traffic,
        vec(0..200 * MICROS, 0..6),
        stalls,
    )
        .prop_flat_map(|(lines, traffic, alarms, stalls)| {
            let slots = 0..traffic.len() + 1;
            (
                Just(lines),
                Just(traffic),
                Just(alarms),
                Just(stalls),
                slots,
            )
        })
        .prop_map(|(lines, traffic, alarms, stalls, poller_slot)| Case {
            lines,
            traffic,
            alarms,
            stalls,
            poller_slot,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parking_poller_observes_what_a_stepping_one_does(case in case()) {
        for whole in [false, true] {
            let stepped = run(&case, whole, false);
            let parked = run(&case, whole, true);
            prop_assert_eq!(&parked.log, &stepped.log, "whole: {}", whole);
            prop_assert_eq!(&parked.metrics, &stepped.metrics, "whole: {}", whole);
            prop_assert_eq!(&parked.sweep, &stepped.sweep, "whole: {}", whole);
            if may_park(&case, whole) {
                prop_assert!(
                    parked.steps < stepped.steps,
                    "whole: {whole}: parking took {} steps, stepping {}",
                    parked.steps, stepped.steps
                );
            } else {
                prop_assert_eq!(parked.steps, stepped.steps);
            }
        }
    }
}
