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
//! endpoint and one per server poller). `Waker::wake_at` files the wake;
//! the engine drains filed wakes right after the step that filed them and
//! re-keys the sleeper to the first point of its poll grid at or after the
//! event and after that step — the key its own polling would have reached
//! — so the elided steps are exactly the idle ones.
//!
//! A poller whose idle step would repeat exactly parks with
//! [`Ctx::park_on_grid`]: its grid period is the parking step's charge, it
//! may name a deadline, and the engine also wakes it when its core's
//! private-cache token moves. Waking it (or ending a run while it sleeps)
//! reports the grid points it skipped through [`Process::skipped_polls`],
//! so it can charge them arithmetically. See DESIGN.md §10.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cache::{CacheHierarchy, StatClass};
use crate::config::MachineConfig;
use crate::metrics::Counter;
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

    /// Charges `n` polls the engine skipped while this process was parked
    /// on its poll grid ([`Ctx::park_on_grid`]): called when the first of
    /// its wake keys pops, and for a process still asleep when `run_until`
    /// returns. Each skipped poll repeats the parking step exactly, so the
    /// process replays its counters; its clock is the grid point it has
    /// reached, and whatever this charges to it is discarded — the grid
    /// already carries the skipped polls' time.
    fn skipped_polls(&mut self, _ctx: &mut Ctx<'_>, _world: &mut W, _n: u64) {}

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

/// Wakes filed during a step, as `(event time, sleeper, park generation)`;
/// the engine drains the list right after the step returns.
type WakeList = Rc<RefCell<Vec<(SimTime, ProcId, u64)>>>;

/// The one way to resume a process that called [`Ctx::park`] or
/// [`Ctx::park_on_grid`].
///
/// One park hands out one `Waker`, and `Waker::wake_at` consumes it, so a
/// waker fires at most once. It carries its park's generation: a wake for a
/// process that has woken since (a poller has other wake sources, and the
/// earliest wins) is stale and the engine drops it. Dropping a `Waker`
/// unfired leaves a plain park asleep for the rest of the run.
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
    gen: u64,
    list: WakeList,
}

impl Waker {
    /// Resumes the parked process at the first point of its poll grid at or
    /// after `at` that the scheduler orders after the calling step (fired
    /// between runs: not before [`Engine::now`]).
    ///
    /// `at` is when the awaited event becomes visible to the sleeper; an
    /// event already visible passes any earlier time. A plain park's grid
    /// is every picosecond: a polling client that sees a delivery in flight
    /// jumps to it, so its first effective step is the arrival itself.
    pub(crate) fn wake_at(self, at: SimTime) {
        self.list.borrow_mut().push((at, self.pid, self.gen));
    }

    /// A second waker for the same park, for a holder that must both fire
    /// one wake now and keep one for a later event.
    pub(crate) fn fork(&self) -> Waker {
        Waker {
            pid: self.pid,
            gen: self.gen,
            list: Rc::clone(&self.list),
        }
    }
}

/// What a parking step asked for.
#[derive(Clone, Copy)]
struct ParkReq {
    /// Parked on its poll grid ([`Ctx::park_on_grid`]).
    grid: bool,
    /// Wake no later than the first grid point at or after this.
    deadline: Option<SimTime>,
}

/// A parked entry's wake state.
#[derive(Clone, Copy, Default)]
struct Parked {
    /// Spacing of the sleeper's poll grid, which starts at its clock.
    period: u64,
    /// A grid poller: told of its skipped polls, run-end included.
    poller: bool,
    /// The private-cache token of its core it parked on, while watched.
    token: Option<u64>,
    /// Its scheduler key, once a deadline or a wake has filed one.
    key: Option<SimTime>,
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
    park: Option<ParkReq>,
    /// The generation a park in this step starts.
    gen: u64,
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
        self.park_with(ParkReq {
            grid: false,
            deadline: None,
        })
    }

    /// Parks a poller whose next polls would repeat this step exactly: it
    /// sleeps on the grid `clock + j·c`, `c` this step's charge (the poll
    /// quantum if none), until the first of: the returned [`Waker`] fires,
    /// another step moves its core's [`Ctx::private_version`], or the grid
    /// reaches `deadline`. The polls it skips are reported through
    /// [`Process::skipped_polls`]. On a machine whose schedule plan is armed
    /// the park is ignored and the process keeps polling, so every poll
    /// stays a schedule decision. See DESIGN.md §10 "Parked CR polls".
    pub fn park_on_grid(&mut self, deadline: Option<SimTime>) -> Waker {
        self.park_with(ParkReq {
            grid: true,
            deadline,
        })
    }

    fn park_with(&mut self, req: ParkReq) -> Waker {
        debug_assert!(self.park.is_none(), "one park per step");
        self.park = Some(req);
        Waker {
            pid: self.pid,
            gen: self.gen,
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
    /// Set by a park, cleared when its first scheduler key pops: a parked
    /// entry is live, owns at most one key (a deadline or a wake), `clock`
    /// holds its next poll tick, the origin of its grid, and the engine's
    /// `parks` slot its wake state.
    parked: bool,
    /// Parks so far; a waker fires only for the park that made it.
    gen: u64,
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
    /// Wake state of each parked entry, by pid (kept out of the slab so a
    /// run that never parks steps over entries no larger than before).
    parks: Vec<Parked>,
    /// The parked grid pollers: token watches and run-end catch-up.
    pollers: Vec<ProcId>,
    wakes: WakeList,
    /// Recycled buffer the wake list is drained into.
    wake_buf: Vec<(SimTime, ProcId, u64)>,
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
            parks: Vec::new(),
            pollers: Vec::new(),
            wakes: WakeList::default(),
            wake_buf: Vec::new(),
            cohort: Vec::new(),
            pending: Vec::new(),
            tie_buf: Vec::new(),
        }
    }

    /// Runs `f` as the single step of a process pinned to core 0 of a fresh
    /// `cores`-core machine of class `class`, and returns its result with
    /// the world: the harness for unit tests that need a live [`Ctx`].
    pub fn run_once<R: 'static>(
        cfg: MachineConfig,
        cores: usize,
        class: StatClass,
        world: W,
        f: impl FnOnce(&mut Ctx<'_>, &mut W) -> R + 'static,
    ) -> (R, W) {
        struct Once<F, R> {
            f: Option<F>,
            out: Rc<RefCell<Option<R>>>,
        }
        impl<W, F: FnOnce(&mut Ctx<'_>, &mut W) -> R, R> Process<W> for Once<F, R> {
            fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome {
                if let Some(f) = self.f.take() {
                    *self.out.borrow_mut() = Some(f(ctx, world));
                }
                ctx.halt();
                StepOutcome::Idle
            }
        }
        let out = Rc::new(RefCell::new(None));
        let mut eng = Engine::new(cfg, cores, world);
        let once = Once {
            f: Some(f),
            out: Rc::clone(&out),
        };
        eng.spawn(Some(0), class, Box::new(once));
        eng.run_until(SimTime::MAX);
        let r = out.borrow_mut().take().expect("the process did not run");
        (r, eng.world)
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
            gen: 0,
        });
        self.parks.push(Parked::default());
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
        let mut cohort = std::mem::take(&mut self.cohort);
        let mut pending = std::mem::take(&mut self.pending);
        let mut tie_buf = std::mem::take(&mut self.tie_buf);
        // Wakes fired and tokens moved between runs (by whoever holds the
        // world).
        if self.parked > 0 {
            self.drain_wakes(self.now, None, &mut cohort, 0);
        }
        // The scheduler drains whole *tie-cohorts*: all keys at the minimum
        // time, processed in ascending pid order — exactly the order the
        // old heap popped them one by one. No gate or step can reschedule a
        // process back to the cohort's time (schedule stalls are ≥ 1 ps,
        // fault stalls end strictly later, an unmoved step clock is bumped
        // by the poll quantum); only a wake can, for a sleeper whose grid
        // point it is and whose pid orders it after the waking step, and
        // `wake` inserts it into the cohort's unprocessed tail in pid order.
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
            // A sleeper's key popped: its deadline, or its earliest wake.
            if self.parked > 0 && self.procs[pid].parked {
                self.unpark(pid, t);
            }
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
                    self.machines[mid].registry.inc(Counter::ScheduleStall);
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
                        self.machines[mid].registry.inc(Counter::FaultStallDefer);
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
                park: None,
                gen: entry.gen + 1,
                wakes: &self.wakes,
            };
            entry.proc.step(&mut ctx, &mut self.world);
            let mut new_clock = ctx.clock;
            let halted = ctx.halted;
            let park = ctx.park.filter(|_| !halted);
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
            let parked = park.is_some_and(|req| self.park(pid, t, req, armed, has_stalls));
            // Re-key the sleepers this step woke or whose token it moved.
            if self.parked > 0 {
                self.drain_wakes(t, Some(pid), &mut cohort, cohort_pos);
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
        // Pollers still asleep have skipped every grid point before the
        // deadline: report them now, so between-run readers (the warm-up
        // reset, stats extraction) see the stepping run's counters.
        if deadline < SimTime::MAX {
            for i in 0..self.pollers.len() {
                let pid = self.pollers[i];
                let entry = &mut self.procs[pid];
                let period = self.parks[pid].period;
                if deadline > entry.clock {
                    let k = (deadline - entry.clock).div_ceil(period);
                    entry.clock += k * period;
                    self.catch_up(pid, k);
                }
            }
        }
        self.now = deadline.min(self.wheel.peek().map(|(t, _)| t).unwrap_or(deadline));
        self.steps - start_steps
    }

    /// Parks `pid` after its step at `t` (its clock is already its next
    /// tick): records its grid and token, and files its deadline key.
    /// Returns false for a grid park under an armed schedule plan, which is
    /// ignored: the poller keeps polling, every poll stays a decision, and
    /// explored schedules (and the goldens that pin them) do not move.
    #[inline(never)]
    fn park(
        &mut self,
        pid: ProcId,
        t: SimTime,
        req: ParkReq,
        armed: bool,
        has_stalls: bool,
    ) -> bool {
        let entry = &mut self.procs[pid];
        let m = &self.machines[entry.machine];
        let tick = entry.clock;
        // Either way the waker this step handed out belongs to a new park.
        entry.gen += 1;
        if armed && req.grid {
            return false;
        }
        self.parked += 1;
        let mut park = Parked {
            period: 1,
            poller: req.grid,
            token: None,
            key: None,
        };
        let mut deadline = req.deadline;
        if req.grid {
            park.period = tick - t;
            if let Some(core) = entry.core {
                park.token = Some(m.cache.private_version(core));
                // A stall window defers the grid point it covers: wake for
                // it, so that deferral happens as it would when polling.
                if let Some(s) = has_stalls
                    .then(|| m.faults.next_stall(core, tick))
                    .flatten()
                {
                    deadline = Some(deadline.map_or(s, |d| d.min(s)));
                }
            }
            self.pollers.push(pid);
        }
        if let Some(d) = deadline {
            let key = tick + d.since(tick).div_ceil(park.period) * park.period;
            park.key = Some(key);
            self.wheel.push(key, pid);
        }
        entry.parked = true;
        self.parks[pid] = park;
        true
    }

    /// Ends the park of `pid`, whose key `t` just popped: a poller is told
    /// how many grid points it skipped.
    #[inline(never)]
    fn unpark(&mut self, pid: ProcId, t: SimTime) {
        let entry = &mut self.procs[pid];
        let park = self.parks[pid];
        entry.parked = false;
        let skipped = (t - entry.clock) / park.period;
        debug_assert_eq!((t - entry.clock) % park.period, 0, "key off the grid");
        entry.clock = t;
        self.parked -= 1;
        if park.poller {
            let i = self.pollers.iter().position(|&p| p == pid);
            self.pollers
                .swap_remove(i.expect("a parked poller is listed"));
            self.catch_up(pid, skipped);
        }
    }

    /// Reports `k` skipped polls to `pid` at its clock.
    #[inline(never)]
    fn catch_up(&mut self, pid: ProcId, k: u64) {
        if k == 0 {
            return;
        }
        let entry = &mut self.procs[pid];
        let mut ctx = Ctx {
            machines: &mut self.machines,
            mid: entry.machine,
            pid,
            core: entry.core,
            class: entry.class,
            clock: entry.clock,
            start: entry.clock,
            halted: false,
            park: None,
            gen: entry.gen + 1,
            wakes: &self.wakes,
        };
        entry.proc.skipped_polls(&mut ctx, &mut self.world, k);
        debug_assert!(
            !ctx.halted && ctx.park.is_none(),
            "skipped_polls only charges"
        );
    }

    /// Files the wakes of step `(t, by)` (`by` is `None` between runs, at
    /// `t = now`): every filed wake of a current park, and every poller
    /// whose core's token moved since it parked. A wake only ever brings a
    /// sleeper's key forward; a later or stale one is dropped.
    #[inline(never)]
    fn drain_wakes(
        &mut self,
        t: SimTime,
        by: Option<ProcId>,
        cohort: &mut Vec<ProcId>,
        pos: usize,
    ) {
        let mut i = 0;
        while i < self.pollers.len() {
            let pid = self.pollers[i];
            i += 1;
            let entry = &self.procs[pid];
            let park = &mut self.parks[pid];
            let (Some(core), Some(token)) = (entry.core, park.token) else {
                continue;
            };
            if self.machines[entry.machine].cache.private_version(core) != token {
                // Whatever moved it is visible from the sleeper's next grid
                // point on; later moves cannot wake it any earlier.
                park.token = None;
                self.wake(pid, t, t, by, cohort, pos);
            }
        }
        let mut filed = std::mem::take(&mut self.wake_buf);
        std::mem::swap(&mut filed, &mut *self.wakes.borrow_mut());
        for &(at, pid, gen) in &filed {
            // A stale wake (its park ended, or another source woke it
            // first) is normal, not only a waker outliving its sleeper.
            if self.procs[pid].gen == gen {
                self.wake(pid, at, t, by, cohort, pos);
            }
        }
        filed.clear();
        self.wake_buf = filed;
    }

    /// Brings sleeper `pid`'s key forward to its first grid point at or
    /// after `at` that follows step `(t, by)`, if that is earlier than the
    /// key it has. A key at `t` itself joins the cohort being drained.
    fn wake(
        &mut self,
        pid: ProcId,
        at: SimTime,
        t: SimTime,
        by: Option<ProcId>,
        cohort: &mut Vec<ProcId>,
        pos: usize,
    ) {
        let entry = &self.procs[pid];
        if !entry.parked {
            return;
        }
        let park = &mut self.parks[pid];
        let (tick, period) = (entry.clock, park.period);
        let mut key = tick + at.max(t).since(tick).div_ceil(period) * period;
        if key == t && by.is_some_and(|b| pid < b) {
            key += period;
        }
        if park.key.is_some_and(|k| k <= key) {
            return;
        }
        if let Some(old) = park.key.replace(key) {
            let removed = self.wheel.remove(old, pid);
            debug_assert!(removed, "a sleeper's key left the wheel");
        }
        if by.is_some() && key == t {
            let at = pos + cohort[pos..].partition_point(|&p| p < pid);
            cohort.insert(at, pid);
        } else {
            self.wheel.push(key, pid);
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
        // The alarm at 500 ns filed its wake; the park ends when that key
        // pops.
        assert_eq!(eng.parked_procs(), 1);
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
