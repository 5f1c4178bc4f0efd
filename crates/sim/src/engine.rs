//! The discrete-event engine: simulated threads stepped in clock order.
//!
//! Every simulated thread (a [`Process`]) owns a local clock. The engine
//! always steps the process with the smallest clock, which guarantees that
//! when a process observes shared state at time *t*, every other process has
//! already produced all effects it stamped at times ≤ *t*. Combined with
//! single-threaded execution this makes runs bit-for-bit deterministic.
//!
//! A process charges simulated time through its [`Ctx`]: memory accesses go
//! through the [`CacheHierarchy`], pure compute
//! charges a constant, and spinning on an empty queue or held lock charges a
//! spin quantum. A step that charges nothing is treated as one iteration of a
//! polling loop and charged `poll_quantum`, so busy-polling cores consume
//! simulated time just like pinned threads consume real cycles.
//!
//! # Scheduler
//!
//! The ready queue is a hierarchical [`TimerWheel`] whose pop order is
//! bit-identical to the `BinaryHeap<Reverse<(SimTime, ProcId)>>` it replaced:
//! ascending `(time, pid)`, pid breaking ties. Every step is one pop: the
//! schedule-exploration and fault-stall gates run (and count decisions)
//! once, the process steps, and its advanced clock is re-keyed. Pops are
//! drained a tie-cohort at a time, and a lockstep fleet's next cohort is
//! buffered beside the wheel rather than pushed through it. See DESIGN.md
//! §10.
//!
//! # Parking
//!
//! A process waiting on an event some *other* process produces need not poll
//! for it: [`Ctx::park`] takes it off the scheduler and returns a [`Waker`]
//! to leave where the event is produced (the fabric keeps one per client
//! endpoint). `Waker::wake_at` files the wake; the engine drains filed
//! wakes right after the step that filed them and re-keys the sleeper to
//! `max(at, its next poll tick)` — the key its own polling would have reached
//! — so the elided steps are exactly the idle ones. See DESIGN.md §10.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cache::{CacheHierarchy, StatClass};
use crate::config::MachineConfig;
use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// Identifier of a simulated process.
pub type ProcId = usize;

/// What one [`Process::step`] accomplished.
///
/// Nothing in the engine reads it: all costs are charged through [`Ctx`],
/// and the next step is keyed by the process's clock alone. ROADMAP 13(b)
/// deletes it and makes `step` return `()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step did useful work.
    Progress,
    /// Nothing to do; the engine's idle-step accounting applies as usual.
    /// A process that would report this until another process acts can
    /// [`Ctx::park`] instead of being stepped every poll quantum.
    Idle,
}

/// A simulated thread.
///
/// `step` should perform a *bounded* amount of work (one state-machine
/// transition, one batch element, one poll) and return; the engine will
/// re-schedule the process at its advanced clock. Keeping steps short keeps
/// cross-process interleaving fine-grained. A step that calls [`Ctx::park`]
/// is the exception: the process is not re-scheduled until its [`Waker`]
/// fires.
pub trait Process<W> {
    /// Executes one slice of work against the shared `world`.
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome;

    /// Human-readable name for traces.
    fn name(&self) -> &'static str {
        "process"
    }
}

/// The hardware owned by the engine: configuration plus the cache model.
pub struct Machine {
    /// Machine configuration (latencies, geometry, network).
    pub cfg: MachineConfig,
    /// The simulated cache hierarchy.
    pub cache: CacheHierarchy,
    /// Named per-stage instruments (counters, gauges, latency histograms)
    /// any process can record into; see [`crate::metrics::MetricsRegistry`].
    pub registry: crate::metrics::MetricsRegistry,
    /// Active fault plan; the zero plan by default. See [`crate::fault`].
    pub faults: crate::fault::FaultPlan,
    /// Active schedule-perturbation plan; inert by default. See
    /// [`crate::schedule`].
    pub schedule: crate::schedule::SchedulePlan,
    /// NIC buffer memory holding message payload bytes; see
    /// [`crate::arena::PayloadArena`].
    pub payloads: crate::arena::PayloadArena,
}

impl Machine {
    /// Builds the machine with `cores` server cores.
    pub fn new(cfg: MachineConfig, cores: usize) -> Self {
        Machine {
            cache: CacheHierarchy::new(&cfg, cores),
            cfg,
            registry: crate::metrics::MetricsRegistry::new(),
            faults: crate::fault::FaultPlan::inactive(),
            schedule: crate::schedule::SchedulePlan::inactive(),
            payloads: crate::arena::PayloadArena::new(),
        }
    }
}

/// Wakes filed during a step, as `(wake time, sleeper)`; the engine drains
/// the list right after the step returns.
type WakeList = Rc<RefCell<Vec<(SimTime, ProcId)>>>;

/// The one way to resume a process that called [`Ctx::park`].
///
/// One park hands out one `Waker`, and `Waker::wake_at` consumes it, so a
/// sleeper is woken at most once per park and a wake cannot be filed for a
/// process that is not asleep. Dropping a `Waker` unfired leaves its process
/// parked for the rest of the run.
///
/// It is neither `Clone` nor `Copy`:
///
/// ```compile_fail,E0599
/// fn twice(w: utps_sim::Waker) -> (utps_sim::Waker, utps_sim::Waker) {
///     (w.clone(), w)
/// }
/// ```
///
/// and firing it moves it:
///
/// ```compile_fail,E0382
/// fn twice(w: utps_sim::Waker, at: utps_sim::SimTime) {
///     w.wake_at(at);
///     w.wake_at(at);
/// }
/// ```
#[must_use = "a dropped Waker leaves its process parked for the rest of the run"]
pub struct Waker {
    pid: ProcId,
    list: WakeList,
}

impl Waker {
    /// Resumes the parked process at `max(at, its next poll tick)`.
    ///
    /// `at` is when the awaited event becomes visible to the sleeper. It must
    /// be at least one poll quantum past the calling step's start (or, fired
    /// between runs, not before [`Engine::now`]): a polling sleeper could not
    /// have acted on the event any earlier, which is what makes parking
    /// step-for-step equivalent to polling. Debug builds assert it; release
    /// builds clamp.
    pub(crate) fn wake_at(self, at: SimTime) {
        self.list.borrow_mut().push((at, self.pid));
    }
}

/// Per-step execution context handed to a [`Process`].
///
/// A process belongs to exactly one machine (single-machine simulations have
/// only machine 0); its memory accesses are charged against that machine's
/// cache hierarchy and its instruments land in that machine's registry.
/// Cluster-level processes (routers, migration controllers) may reach the
/// other machines through [`Ctx::machine_at`].
pub struct Ctx<'a> {
    machines: &'a mut [Machine],
    mid: usize,
    pid: ProcId,
    core: Option<usize>,
    class: StatClass,
    clock: SimTime,
    start: SimTime,
    halted: bool,
    parked: bool,
    wakes: &'a WakeList,
}

impl<'a> Ctx<'a> {
    /// The process's current local time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The server core this process is pinned to, if any. `None` means the
    /// process runs on an unmodeled CPU (e.g. a client node).
    pub fn core(&self) -> Option<usize> {
        self.core
    }

    /// Changes the metrics attribution class (e.g. when a worker switches
    /// between the CR and MR layers).
    pub fn set_class(&mut self, class: StatClass) {
        self.class = class;
    }

    /// Direct access to the machine this process runs on (CLOS
    /// reconfiguration, metrics).
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machines[self.mid]
    }

    /// Number of machines in the simulation.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Access to an arbitrary machine of the simulation. Cluster-level
    /// processes (shard routers, migration controllers) use this to touch
    /// the payload arenas and registries of other server machines.
    pub fn machine_at(&mut self, idx: usize) -> &mut Machine {
        &mut self.machines[idx]
    }

    /// Charges a memory read of `len` bytes at `addr`.
    pub fn read(&mut self, addr: usize, len: usize) {
        self.mem(addr, len, false)
    }

    /// Charges a memory write of `len` bytes at `addr`.
    pub fn write(&mut self, addr: usize, len: usize) {
        self.mem(addr, len, true)
    }

    fn mem(&mut self, addr: usize, len: usize, write: bool) {
        let m = &mut self.machines[self.mid];
        let cost = match self.core {
            Some(core) => m
                .cache
                .access(core, self.class, addr, len, write, self.clock),
            None => m.cfg.cost.l1_hit,
        };
        self.clock += cost;
    }

    /// The token of this process's core's private cache state
    /// ([`CacheHierarchy::private_version`](crate::cache::CacheHierarchy::private_version)).
    /// Constant 0 for an unpinned process, whose reads touch no modelled
    /// cache.
    pub fn private_version(&self) -> u64 {
        match self.core {
            Some(core) => self.machines[self.mid].cache.private_version(core),
            None => 0,
        }
    }

    /// Charges `n` plain L1 read hits, exactly as `n` [`Ctx::read`]s that
    /// hit L1 would, without walking the tag arrays. Only exact while
    /// [`Ctx::private_version`] shows those reads would hit.
    pub fn l1_hits(&mut self, n: u64) {
        let m = &mut self.machines[self.mid];
        let cost = match self.core {
            Some(_) => m.cache.l1_hits(self.class, n),
            None => n * m.cfg.cost.l1_hit,
        };
        self.clock += cost;
    }

    /// Charges an atomic read-modify-write at `addr`.
    pub fn atomic(&mut self, addr: usize) {
        self.atomic_hold(addr, 0)
    }

    /// Charges an atomic that keeps its line busy for `hold_ps` extra
    /// picoseconds (a short lock-protected critical section).
    pub(crate) fn atomic_hold(&mut self, addr: usize, hold_ps: u64) {
        let m = &mut self.machines[self.mid];
        let cost = match self.core {
            Some(core) => m
                .cache
                .atomic_hold(core, self.class, addr, self.clock, hold_ps),
            None => m.cfg.cost.l1_hit + m.cfg.cost.atomic_extra,
        };
        self.clock += cost;
    }

    /// Issues a software prefetch for `len` bytes at `addr`.
    pub fn prefetch(&mut self, addr: usize, len: usize) {
        let m = &mut self.machines[self.mid];
        if let Some(core) = self.core {
            m.cache.prefetch(core, self.class, addr, len, self.clock);
        }
        self.clock += m.cfg.cost.prefetch_issue;
    }

    /// Charges `ns` nanoseconds of pure computation.
    pub fn compute_ns(&mut self, ns: u64) {
        self.clock += ns * crate::time::NANOS;
    }

    /// Charges `ps` picoseconds of pure computation.
    pub fn compute_ps(&mut self, ps: u64) {
        self.clock += ps;
    }

    /// Charges one spin-loop iteration (contended lock, empty queue).
    pub fn spin(&mut self) {
        self.clock += self.machines[self.mid].cfg.cost.spin_quantum;
    }

    /// Charges one stackless-coroutine switch (batched-FSM executors call
    /// this per interleaved poll; §3.3).
    pub fn fsm_switch(&mut self) {
        self.clock += self.machines[self.mid].cfg.cost.fsm_switch;
    }

    /// Charges `n` functional-stage transitions (front-end refills). A
    /// run-to-completion worker crosses parse→index→copy→respond on every
    /// request; a staged worker stays within one stage's code.
    pub fn stage_transitions(&mut self, n: u64) {
        self.clock += n * self.machines[self.mid].cfg.cost.stage_transition;
    }

    /// Advances the local clock to `t` (sleep/backoff); no-op if in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Marks this process finished; it will not be scheduled again.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Parks this process: once the step returns it owns no scheduler key
    /// and is not stepped again until the returned [`Waker`] fires. Leave the
    /// waker with whatever produces the event being waited for.
    pub fn park(&mut self) -> Waker {
        debug_assert!(!self.parked, "one park per step");
        self.parked = true;
        Waker {
            pid: self.pid,
            list: Rc::clone(self.wakes),
        }
    }

    /// Whether any simulated time was charged in this step so far.
    pub fn progressed(&self) -> bool {
        self.clock > self.start
    }
}

struct ProcEntry<W> {
    proc: Box<dyn Process<W>>,
    clock: SimTime,
    machine: usize,
    core: Option<usize>,
    class: StatClass,
    /// Cleared on halt; dead entries stay in the slab (pids are stable and
    /// never reused) but own no scheduler key and are never stepped again.
    live: bool,
    /// Set by [`Ctx::park`], cleared by the wake: a parked entry is live but
    /// owns no scheduler key, and `clock` holds its next poll tick.
    parked: bool,
}

/// The simulation engine over a world `W`.
///
/// The engine hosts one or more [`Machine`]s under a single global clock:
/// every process is pinned to a machine (and optionally to one of its
/// cores), so a sharded cluster of N server machines runs inside the same
/// deterministic event loop as a single-machine experiment — machine 0 is
/// the only machine unless [`Engine::add_machine`] is called.
pub struct Engine<W> {
    /// Shared world state all processes operate on.
    pub world: W,
    machines: Vec<Machine>,
    /// Flat slab indexed by [`ProcId`]; the scheduler holds only
    /// `(SimTime, ProcId)` keys, one per live process, so a pop never moves
    /// the process entry itself.
    procs: Vec<ProcEntry<W>>,
    wheel: TimerWheel,
    now: SimTime,
    steps: u64,
    live: usize,
    /// Live processes currently parked; guards the wake drain so a run with
    /// no parker pays one integer compare per step.
    parked: usize,
    wakes: WakeList,
    /// Recycled buffer for [`TimerWheel::pop_ties`] tie-cohorts; holding it
    /// on the engine keeps its capacity across `run_until` calls.
    cohort: Vec<ProcId>,
    /// Keys deferred past the live cohort at one shared time (the lockstep
    /// buffer); becomes the next cohort by swap when its time is next.
    pending: Vec<ProcId>,
    /// Scratch for merging wheel ties with `pending` at the same time.
    tie_buf: Vec<ProcId>,
}

impl<W> Engine<W> {
    /// Creates an engine simulating `cores` server cores around `world`.
    pub fn new(cfg: MachineConfig, cores: usize, world: W) -> Self {
        Engine {
            world,
            machines: vec![Machine::new(cfg, cores)],
            procs: Vec::new(),
            wheel: TimerWheel::new(),
            now: SimTime::ZERO,
            steps: 0,
            live: 0,
            parked: 0,
            wakes: WakeList::default(),
            cohort: Vec::new(),
            pending: Vec::new(),
            tie_buf: Vec::new(),
        }
    }

    /// Adds another server machine (its own cache hierarchy, registry,
    /// fault plan and payload arena) and returns its index.
    pub fn add_machine(&mut self, cfg: MachineConfig, cores: usize) -> usize {
        self.machines.push(Machine::new(cfg, cores));
        self.machines.len() - 1
    }

    /// Registers a process on machine 0. `core: Some(c)` pins it to server
    /// core `c` (its memory accesses are charged against that core's
    /// caches); `None` runs it on an unmodeled CPU.
    pub fn spawn(
        &mut self,
        core: Option<usize>,
        class: StatClass,
        proc: Box<dyn Process<W>>,
    ) -> ProcId {
        self.spawn_on(0, core, class, proc)
    }

    /// Registers a process on machine `machine`.
    pub fn spawn_on(
        &mut self,
        machine: usize,
        core: Option<usize>,
        class: StatClass,
        proc: Box<dyn Process<W>>,
    ) -> ProcId {
        assert!(machine < self.machines.len(), "no machine {machine}");
        let pid = self.procs.len();
        self.procs.push(ProcEntry {
            proc,
            clock: self.now,
            machine,
            core,
            class,
            live: true,
            parked: false,
        });
        self.live += 1;
        self.wheel.push(self.now, pid);
        pid
    }

    /// The time of the last completed step.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total steps executed (for diagnostics).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Always 0: the burst fast path it counted is gone, and every step is
    /// a scheduler pop. Kept only because the benchmark's `sut.rs` still
    /// reads it; ROADMAP 1(b) removes that caller, and this accessor with it.
    pub fn bursts(&self) -> u64 {
        0
    }

    /// Scheduler timer-wheel cascade operations performed so far.
    pub fn wheel_cascades(&self) -> u64 {
        self.wheel.cascades()
    }

    /// Machine 0 (for CLOS changes, metrics snapshots).
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machines[0]
    }

    /// Immutable view of machine 0.
    pub fn machine_ref(&self) -> &Machine {
        &self.machines[0]
    }

    /// Mutable access to machine `idx`.
    pub fn machine_mut(&mut self, idx: usize) -> &mut Machine {
        &mut self.machines[idx]
    }

    /// The world and machine `idx` together (disjoint borrows, for code
    /// that moves world-side counters into a machine's registry).
    pub fn world_and_machine(&mut self, idx: usize) -> (&mut W, &mut Machine) {
        (&mut self.world, &mut self.machines[idx])
    }

    /// Immutable view of machine `idx`.
    pub fn machine_at(&self, idx: usize) -> &Machine {
        &self.machines[idx]
    }

    /// Number of machines in the simulation.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Runs until every live process's clock is ≥ `deadline` (or no process
    /// remains). Returns the number of steps executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start_steps = self.steps;
        // Wakes fired between runs (by whoever holds the world).
        if self.parked > 0 {
            self.drain_wakes(self.now);
        }
        // The scheduler drains whole *tie-cohorts*: all keys at the minimum
        // time, processed in ascending pid order — exactly the order the
        // old heap popped them one by one. No gate or step can reschedule a
        // process back to the cohort's time (schedule stalls are ≥ 1 ps,
        // fault stalls end strictly later, an unmoved step clock is bumped
        // by the poll quantum), so the cohort is closed once formed.
        //
        // Cohorts come from two places. The wheel yields one per slot scan
        // (`pop_ties`). The lockstep buffer never touches the wheel: members
        // whose step ends at one shared future time — a polling fleet
        // advancing in lockstep — are appended to `pending`, which becomes
        // the next cohort by buffer swap when its time is next globally.
        // Keys that break the pattern (different time, out-of-order pid,
        // stall deferrals) fall back to the wheel, and a cohort whose time
        // is held by both sides merges the two ascending pid runs. Either
        // way every cohort is the complete sorted set of minimum-time keys,
        // so the step and decision sequence stays byte-identical to the
        // heap scheduler's.
        let mut cohort = std::mem::take(&mut self.cohort);
        let mut pending = std::mem::take(&mut self.pending);
        let mut tie_buf = std::mem::take(&mut self.tie_buf);
        let mut cohort_pos = 0usize;
        let mut cohort_t = SimTime::ZERO;
        // Time shared by every key in `pending`; meaningful only while
        // `pending` is nonempty.
        let mut pending_t = SimTime::ZERO;
        // Per-machine gate flags, hoisted out of the hot loop: plans are
        // installed by runners between `run_until` calls, never mid-run.
        let gates: Vec<(bool, bool, u64)> = self
            .machines
            .iter()
            .map(|m| {
                (
                    m.schedule.armed(),
                    m.faults.has_stalls(),
                    m.cfg.cost.poll_quantum,
                )
            })
            .collect();
        loop {
            if cohort_pos >= cohort.len() {
                cohort.clear();
                cohort_pos = 0;
                let wheel_next = self.wheel.peek();
                let next_t = match (wheel_next, pending.is_empty()) {
                    (Some((wt, _)), false) => wt.min(pending_t),
                    (Some((wt, _)), true) => wt,
                    (None, false) => pending_t,
                    (None, true) => break,
                };
                if next_t >= deadline {
                    break;
                }
                cohort_t = next_t;
                if !pending.is_empty() && pending_t == next_t {
                    if wheel_next.is_some_and(|(wt, _)| wt == next_t) {
                        // Both sides hold keys at `next_t`: merge the two
                        // ascending pid runs.
                        self.wheel.pop_ties(&mut tie_buf);
                        let (mut i, mut j) = (0, 0);
                        while i < pending.len() && j < tie_buf.len() {
                            if pending[i] < tie_buf[j] {
                                cohort.push(pending[i]);
                                i += 1;
                            } else {
                                cohort.push(tie_buf[j]);
                                j += 1;
                            }
                        }
                        cohort.extend_from_slice(&pending[i..]);
                        cohort.extend_from_slice(&tie_buf[j..]);
                        pending.clear();
                    } else {
                        // The whole minimum cohort is the pending buffer.
                        std::mem::swap(&mut cohort, &mut pending);
                        pending.clear();
                    }
                } else {
                    self.wheel.pop_ties(&mut cohort);
                }
            }
            let pid = cohort[cohort_pos];
            cohort_pos += 1;
            let t = cohort_t;
            let entry = &mut self.procs[pid];
            debug_assert!(entry.live);
            debug_assert_eq!(entry.clock, t);
            let mid = entry.machine;
            let (armed, has_stalls, poll_quantum) = gates[mid];
            // Schedule exploration: at seed-chosen decisions, stall the
            // popped process so whichever process is next in clock order
            // runs first. Counted once per pop, so perturbed and replayed
            // runs see the same decision indexing.
            if armed {
                if let Some(stall_ps) = self.machines[mid].schedule.on_pop(pid) {
                    self.machines[mid].registry.counter_inc("schedule.stall");
                    let end = t + stall_ps;
                    entry.clock = end;
                    self.wheel.push(end, pid);
                    continue;
                }
            }
            // A core inside a stall window executes nothing: defer its
            // next step to the window end. Guarded so fault-free runs
            // never pay for the check beyond one branch.
            if has_stalls {
                if let Some(core) = entry.core {
                    if let Some(end) = self.machines[mid].faults.stall_until(core, t) {
                        self.machines[mid].faults.note_stall_defer();
                        self.machines[mid].registry.counter_inc("fault.stall_defer");
                        entry.clock = end;
                        self.wheel.push(end, pid);
                        continue;
                    }
                }
            }
            let mut ctx = Ctx {
                machines: &mut self.machines,
                mid,
                pid,
                core: entry.core,
                class: entry.class,
                clock: t,
                start: t,
                halted: false,
                parked: false,
                wakes: &self.wakes,
            };
            entry.proc.step(&mut ctx, &mut self.world);
            let mut new_clock = ctx.clock;
            let halted = ctx.halted;
            let parked = ctx.parked && !halted;
            entry.class = ctx.class;
            if new_clock == t {
                // Idle polling iteration.
                new_clock += poll_quantum;
            }
            entry.clock = new_clock;
            self.now = t;
            self.steps += 1;
            if halted {
                entry.live = false;
                self.live -= 1;
            }
            if parked {
                entry.parked = true;
                self.parked += 1;
            }
            // Re-key the sleepers this step woke. Every wake key is
            // strictly after `t`, so the cohort being drained stays closed.
            if self.parked > 0 {
                self.drain_wakes(t + poll_quantum);
            }
            if halted || parked {
                continue;
            }
            // Re-schedule: join the pending cohort when the key extends
            // its ascending pid run at the shared time, else the wheel.
            if pending.is_empty() {
                pending_t = new_clock;
                pending.push(pid);
            } else if new_clock == pending_t && *pending.last().expect("nonempty") < pid {
                pending.push(pid);
            } else if new_clock < pending_t {
                // A strictly earlier key: the current pending run is no
                // longer the next-time candidate, park it in the wheel.
                for &p in &pending {
                    self.wheel.push(pending_t, p);
                }
                pending.clear();
                pending_t = new_clock;
                pending.push(pid);
            } else {
                self.wheel.push(new_clock, pid);
            }
        }
        // Park deferred keys in the wheel so the engine's schedule state is
        // self-contained between calls; all buffers go back empty (the
        // cohort is always fully consumed before the loop exits).
        for &p in &pending {
            self.wheel.push(pending_t, p);
        }
        pending.clear();
        cohort.clear();
        self.cohort = cohort;
        self.pending = pending;
        self.tie_buf = tie_buf;
        self.now = deadline.min(self.wheel.peek().map(|(t, _)| t).unwrap_or(deadline));
        self.steps - start_steps
    }

    /// Gives every sleeper with a filed wake its scheduler key back:
    /// `max(at, its next poll tick)`, and never before `floor`.
    fn drain_wakes(&mut self, floor: SimTime) {
        for (at, pid) in self.wakes.borrow_mut().drain(..) {
            let entry = &mut self.procs[pid];
            // A waker outliving its sleeper (halted in the step it parked).
            if !entry.parked {
                continue;
            }
            debug_assert!(at >= floor, "wake at {at:?} precedes {floor:?}");
            entry.parked = false;
            self.parked -= 1;
            entry.clock = at.max(entry.clock).max(floor);
            self.wheel.push(entry.clock, pid);
        }
    }

    /// Runs for `d` picoseconds past the current time.
    pub fn run_for(&mut self, d: u64) -> u64 {
        self.run_until(self.now + d)
    }

    /// Number of live processes (maintained counter; O(1)).
    pub fn live_procs(&self) -> usize {
        self.live
    }

    /// Number of live processes currently parked (maintained counter; O(1)).
    #[cfg(test)]
    pub(crate) fn parked_procs(&self) -> usize {
        self.parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs `(step time, id)` into the world on every step.
    struct Ticker {
        period_ns: u64,
        id: usize,
        remaining: usize,
    }

    impl Process<Vec<(SimTime, usize)>> for Ticker {
        fn step(&mut self, ctx: &mut Ctx<'_>, fired: &mut Vec<(SimTime, usize)>) -> StepOutcome {
            fired.push((ctx.now(), self.id));
            ctx.compute_ns(self.period_ns);
            self.remaining -= 1;
            if self.remaining == 0 {
                ctx.halt();
            }
            StepOutcome::Progress
        }
    }

    #[test]
    fn steps_in_clock_order() {
        let mut eng = Engine::new(MachineConfig::tiny(), 1, Vec::new());
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(Ticker {
                period_ns: 30,
                id: 0,
                remaining: 4,
            }),
        );
        eng.spawn(
            None,
            StatClass::Other,
            Box::new(Ticker {
                period_ns: 20,
                id: 1,
                remaining: 6,
            }),
        );
        eng.run_until(SimTime::from_nanos(1_000));
        // Events must be globally time-ordered.
        for w in eng.world.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {:?}", w);
        }
        assert_eq!(eng.world.len(), 10);
        assert_eq!(eng.live_procs(), 0);
    }

    struct Idle;

    impl Process<u64> for Idle {
        fn step(&mut self, _ctx: &mut Ctx<'_>, world: &mut u64) -> StepOutcome {
            *world += 1;
            StepOutcome::Idle
        }
    }

    #[test]
    fn idle_steps_charge_poll_quantum() {
        let mut eng = Engine::new(MachineConfig::tiny(), 1, 0u64);
        eng.spawn(Some(0), StatClass::Other, Box::new(Idle));
        let quantum = eng.machine_ref().cfg.cost.poll_quantum;
        eng.run_until(SimTime(quantum * 10));
        assert_eq!(eng.world, 10);
    }

    struct Reader {
        addr: usize,
    }

    impl Process<Vec<u64>> for Reader {
        fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut Vec<u64>) -> StepOutcome {
            ctx.read(self.addr, 8);
            world.push(ctx.now().as_ps());
            StepOutcome::Progress
        }
    }

    #[test]
    fn memory_costs_flow_into_clock() {
        let mut eng = Engine::new(MachineConfig::tiny(), 1, Vec::new());
        eng.spawn(Some(0), StatClass::Other, Box::new(Reader { addr: 0x1000 }));
        let dram = eng.machine_ref().cfg.cost.dram;
        let l1 = eng.machine_ref().cfg.cost.l1_hit;
        eng.run_until(SimTime(dram + l1 * 3));
        // First step: DRAM miss; subsequent: L1 hits.
        assert_eq!(eng.world[0], dram);
        assert_eq!(eng.world[1], dram + l1);
    }

    #[test]
    fn simultaneous_processes_step_in_pid_order() {
        let mut eng = Engine::new(MachineConfig::tiny(), 1, Vec::new());
        for id in 0..3 {
            eng.spawn(
                None,
                StatClass::Other,
                Box::new(Ticker {
                    period_ns: 20,
                    id,
                    remaining: 4,
                }),
            );
        }
        eng.run_until(SimTime::from_micros(1));
        // All three share every wakeup time; the (time, pid) tie-break must
        // order them by pid within each instant.
        for (i, &(t, id)) in eng.world.iter().enumerate() {
            assert_eq!(t, SimTime::from_nanos(20 * (i as u64 / 3)));
            assert_eq!(id, i % 3);
        }
        assert_eq!(eng.world.len(), 12);
    }

    /// What the park tests share: the sleepers' log of `(step time, id)`,
    /// one waker slot per sleeper, and [`LogLenTicker`]'s observations.
    #[derive(Default)]
    struct ParkWorld {
        log: Vec<(SimTime, usize)>,
        wakers: Vec<Option<Waker>>,
        ticks: Vec<(SimTime, usize)>,
    }

    /// Logs its step, then parks with its waker in `wakers[id]`.
    struct Sleeper {
        id: usize,
    }

    impl Process<ParkWorld> for Sleeper {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut ParkWorld) -> StepOutcome {
            w.log.push((ctx.now(), self.id));
            w.wakers[self.id] = Some(ctx.park());
            StepOutcome::Idle
        }
    }

    /// At `at`, fires every filed waker for `wake` and halts; until then it
    /// sleeps with `advance_to`.
    struct Alarm {
        at: SimTime,
        wake: SimTime,
    }

    impl Process<ParkWorld> for Alarm {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut ParkWorld) -> StepOutcome {
            if ctx.now() < self.at {
                ctx.advance_to(self.at);
                return StepOutcome::Idle;
            }
            for waker in w.wakers.iter_mut().rev().filter_map(Option::take) {
                waker.wake_at(self.wake);
            }
            ctx.halt();
            StepOutcome::Progress
        }
    }

    fn park_engine(sleepers: usize) -> Engine<ParkWorld> {
        let world = ParkWorld {
            wakers: (0..sleepers).map(|_| None).collect(),
            ..Default::default()
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 1, world);
        for id in 0..sleepers {
            eng.spawn(None, StatClass::Other, Box::new(Sleeper { id }));
        }
        eng
    }

    #[test]
    fn parked_process_is_not_stepped_until_woken() {
        let mut eng = park_engine(1);
        let quantum = eng.machine_ref().cfg.cost.poll_quantum;
        let (at, wake) = (SimTime::from_nanos(500), SimTime::from_nanos(2_000));
        eng.spawn(None, StatClass::Other, Box::new(Alarm { at, wake }));
        eng.run_until(SimTime::from_nanos(1_900));
        // One step at t = 0, then asleep: no poll-quantum grid of steps.
        assert_eq!(eng.world.log, [(SimTime::ZERO, 0)]);
        assert_eq!(eng.parked_procs(), 0, "the alarm at 500 ns woke it");
        eng.run_until(SimTime::from_nanos(2_001));
        assert_eq!(eng.world.log, [(SimTime::ZERO, 0), (wake, 0)]);
        assert_eq!(eng.parked_procs(), 1, "it parked again");
        assert_eq!(eng.live_procs(), 1);
        // A wake earlier than the sleeper's next poll tick runs at that tick.
        // The sleeper last stepped at 2 µs, so its tick is 2 µs + quantum.
        eng.world.wakers[0].take().unwrap().wake_at(eng.now());
        eng.run_until(SimTime::from_micros(3));
        assert_eq!(eng.world.log.last(), Some(&(wake + quantum, 0)));
    }

    /// Ticks every 500 ns, recording how long the sleepers' log was at each
    /// of its steps.
    struct LogLenTicker;

    impl Process<ParkWorld> for LogLenTicker {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut ParkWorld) -> StepOutcome {
            w.ticks.push((ctx.now(), w.log.len()));
            ctx.compute_ns(500);
            StepOutcome::Progress
        }
    }

    #[test]
    fn same_time_wakes_step_in_pid_order_and_tie_with_scheduled_keys() {
        // pids 0, 1: sleepers. pid 2: a ticker whose period puts a key of
        // its own at the wake time. pid 3: the alarm, which fires the wakers
        // in *descending* pid order. pid 4: one more sleeper, so the woken
        // pids bracket the ticker's.
        let mut eng = park_engine(2);
        eng.world.wakers.push(None);
        let (at, wake) = (SimTime::from_nanos(100), SimTime::from_nanos(1_000));
        eng.spawn(None, StatClass::Other, Box::new(LogLenTicker));
        eng.spawn(None, StatClass::Other, Box::new(Alarm { at, wake }));
        eng.spawn(None, StatClass::Other, Box::new(Sleeper { id: 2 }));
        eng.run_until(SimTime::from_nanos(1_001));
        let at_wake: Vec<usize> = eng
            .world
            .log
            .iter()
            .filter(|&&(t, _)| t == wake)
            .map(|&(_, id)| id)
            .collect();
        assert_eq!(at_wake, [0, 1, 2], "pid order, not wake order");
        // At the shared time the ticker (pid 2) steps after sleepers 0 and 1
        // and before sleeper 2 (pid 4): it sees 3 + 2 log entries.
        let ticks = [(SimTime::ZERO, 2), (SimTime::from_nanos(500), 3), (wake, 5)];
        assert_eq!(eng.world.ticks, ticks);
    }

    #[test]
    fn all_parked_run_returns_at_deadline_and_a_later_wake_resumes() {
        let mut eng = park_engine(3);
        let deadline = SimTime::from_micros(5);
        let steps = eng.run_until(deadline);
        assert_eq!(steps, 3, "one step each, then nothing left to schedule");
        assert_eq!(eng.now(), deadline);
        assert_eq!(eng.live_procs(), 3);
        assert_eq!(eng.parked_procs(), 3);
        // Fired between runs by whoever holds the world.
        let wake = SimTime::from_micros(7);
        eng.world.wakers[1].take().unwrap().wake_at(wake);
        eng.run_until(SimTime::from_micros(10));
        assert_eq!(eng.world.log.last(), Some(&(wake, 1)));
        assert_eq!(eng.world.log.len(), 4);
        assert_eq!(eng.now(), SimTime::from_micros(10));
        assert_eq!((eng.live_procs(), eng.parked_procs()), (3, 3));
    }

    /// Polls idly `polls` times, alone in the engine, then parks.
    struct PollThenPark {
        polls: u32,
    }

    impl Process<ParkWorld> for PollThenPark {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut ParkWorld) -> StepOutcome {
            w.log.push((ctx.now(), 0));
            if self.polls == 0 {
                w.wakers[0] = Some(ctx.park());
            } else {
                self.polls -= 1;
            }
            StepOutcome::Idle
        }
    }

    #[test]
    fn park_inside_a_burst_ends_the_burst() {
        let mut eng = park_engine(0);
        eng.world.wakers.push(None);
        eng.spawn(None, StatClass::Other, Box::new(PollThenPark { polls: 5 }));
        let steps = eng.run_until(SimTime::from_micros(1));
        assert_eq!(steps, 6, "five polls and the parking step");
        assert_eq!(eng.parked_procs(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut eng = Engine::new(MachineConfig::tiny(), 2, Vec::new());
            for id in 0..4 {
                eng.spawn(
                    None,
                    StatClass::Other,
                    Box::new(Ticker {
                        period_ns: 10 + id as u64 * 7,
                        id,
                        remaining: 50,
                    }),
                );
            }
            eng.run_until(SimTime::from_micros(100));
            eng.world
        };
        assert_eq!(run(), run());
    }
}
