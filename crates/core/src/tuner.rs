//! The auto-tuner and management thread (§3.5).
//!
//! The manager thread drains key samples from the CR workers into the
//! hot-set tracker (count-min sketch + top-K), periodically refreshes the
//! resizable cache through the epoch switch, and runs the auto-tuner: a
//! feedback loop over fixed throughput windows that, when load shifts, runs
//! the paper's hierarchical search —
//!
//! 1. for each candidate cache size (linear probe, fixed step), find the
//!    best thread split with a **trisection** search (throughput is unimodal
//!    in the CR/MR split);
//! 2. keep the best (cache size, split) pair;
//! 3. tune the LLC way allocation with an independent trisection (CR keeps
//!    every way; the search chooses how many ways the MR layer *reuses*).
//!
//! The three levels run as one flat state machine: each manager step waits
//! out a reassignment, a settle or a measurement window, logs the finished
//! probe, then picks the next trial. Thread reassignment uses the
//! non-blocking protocol behind [`UtpsWorld::request_split`], and way
//! splits go through [`split_ways`]; the system keeps serving requests
//! throughout.

use std::collections::BTreeMap;

use utps_collections::HotSetTracker;
use utps_sim::time::SimTime;
use utps_sim::{Counter, Ctx, Process, StepOutcome, Total};

use crate::server::{split_ways, UtpsWorld};

/// Whether the tuner actively searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerMode {
    /// Fixed configuration (still refreshes the hot cache).
    Off,
    /// Full feedback loop + hierarchical search.
    Auto,
}

/// Tuner timing and search-space parameters.
#[derive(Clone, Debug)]
pub struct TunerParams {
    /// Throughput measurement window (ps). The paper uses 10 ms; scaled
    /// runs use smaller windows.
    pub window: u64,
    /// Settle time after applying a configuration before measuring (ps).
    pub settle: u64,
    /// Relative throughput deviation that arms the search.
    pub trigger: f64,
    /// Deviant windows required to start a search.
    pub trigger_windows: u32,
    /// Cache-size linear-probe step (the paper uses 1 K items). The probe
    /// runs up to the run's hot-cache capacity.
    pub cache_step: usize,
}

impl Default for TunerParams {
    fn default() -> Self {
        TunerParams {
            window: 2 * utps_sim::time::MILLIS,
            settle: utps_sim::time::MILLIS,
            trigger: 0.25,
            trigger_windows: 2,
            cache_step: 1_000,
        }
    }
}

/// A recorded tuner event (for the Figure 14 timeline).
#[derive(Clone, Debug)]
pub enum TunerEvent {
    /// A search began.
    SearchStarted(SimTime),
    /// A configuration was applied: (time, n_cr, cache size, MR ways).
    Applied(SimTime, usize, usize, usize),
    /// The search converged.
    SearchEnded(SimTime),
}

/// Which knob a decision-log probe trialed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbePhase {
    /// Inner trisection over the CR/MR thread split.
    Threads,
    /// Final trisection over MR-reused LLC ways.
    Ways,
}

impl ProbePhase {
    /// Stable lower-case name (JSON export).
    pub fn name(self) -> &'static str {
        match self {
            ProbePhase::Threads => "threads",
            ProbePhase::Ways => "ways",
        }
    }
}

/// One entry of the structured tuner decision log: a single trisection
/// probe — the candidate configuration, the observed objective, and whether
/// the probe is the best seen so far in its trisection (§3.5's hierarchical
/// search is verifiable from this log alone).
#[derive(Clone, Debug)]
pub struct TunerProbe {
    /// When the window measurement completed.
    pub at: SimTime,
    /// Which knob was being trialed.
    pub phase: ProbePhase,
    /// Hot-cache target size (items) during the probe.
    pub cache_items: usize,
    /// CR worker count during the probe.
    pub n_cr: usize,
    /// LLC ways the MR layer reused during the probe (0 = all ways).
    pub mr_ways: usize,
    /// Measured objective: completed operations in one window.
    pub objective: f64,
    /// True when this probe became the best point of its trisection.
    pub accepted: bool,
}

/// Upper bound on probes a trisection over `n` candidates may take
/// (tests assert convergence within this budget). Each recorded probe pair
/// shrinks the range to ≈2/3; ranges of ≤3 points are swept exhaustively.
pub fn trisect_probe_budget(n: usize) -> usize {
    let mut range = n;
    let mut probes = 0;
    while range > 3 {
        range = 2 * range / 3 + 1;
        probes += 2;
    }
    probes + 3
}

/// Ternary (trisection) search over a unimodal integer range.
#[derive(Clone, Debug)]
struct Trisect {
    lo: usize,
    hi: usize,
    measured: BTreeMap<usize, f64>,
}

impl Trisect {
    fn new(lo: usize, hi: usize) -> Self {
        Trisect {
            lo,
            hi,
            measured: BTreeMap::new(),
        }
    }

    fn probes(&self) -> (usize, usize) {
        let d = (self.hi - self.lo) / 3;
        (self.lo + d, self.hi - d)
    }

    /// Next point needing a measurement, or `None` if converged.
    fn next(&self) -> Option<usize> {
        if self.hi - self.lo <= 2 {
            (self.lo..=self.hi).find(|x| !self.measured.contains_key(x))
        } else {
            let (a, b) = self.probes();
            if !self.measured.contains_key(&a) {
                Some(a)
            } else if !self.measured.contains_key(&b) {
                Some(b)
            } else {
                None
            }
        }
    }

    /// Records a measurement and narrows the range while possible.
    fn record(&mut self, x: usize, p: f64) {
        self.measured.insert(x, p);
        while self.hi - self.lo > 2 {
            let (a, b) = self.probes();
            match (self.measured.get(&a), self.measured.get(&b)) {
                (Some(&pa), Some(&pb)) => {
                    if pa < pb {
                        self.lo = a + 1;
                    } else {
                        self.hi = b.saturating_sub(1).max(self.lo);
                    }
                }
                _ => break,
            }
        }
    }

    #[cfg(test)]
    fn converged(&self) -> bool {
        self.next().is_none()
    }

    /// Best measured point within the final range.
    fn best(&self) -> (usize, f64) {
        self.measured
            .iter()
            .map(|(&x, &p)| (x, p))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("nothing measured")
    }
}

/// What the search waits for before its next decision.
#[derive(Clone, Copy, Debug)]
enum Wait {
    /// A thread reassignment is still being adopted.
    Reconfig,
    /// The new configuration settles until then.
    Settle(SimTime),
    /// A measurement window ends then; it began at this completed total.
    Measure(SimTime, Total),
}

/// The hierarchical search as one flat state machine. `sizes[0]` is the
/// cache size under search and the rest are still to come; `tri` trisects
/// n_mr at that size, or the MR way count once `ways` is set.
#[derive(Debug)]
struct Search {
    sizes: Vec<usize>,
    tri: Trisect,
    ways: bool,
    /// Best (objective, cache size, n_mr) over the sizes searched so far.
    best: Option<(f64, usize, usize)>,
    /// The value on trial (n_mr or MR ways); `None` settles and measures
    /// nothing.
    trial: Option<usize>,
    wait: Option<Wait>,
}

impl Search {
    /// Advances the search by one manager step. Returns the chosen MR way
    /// count once the search has finished.
    fn step(
        &mut self,
        ctx: &mut Ctx<'_>,
        world: &mut UtpsWorld,
        params: &TunerParams,
    ) -> Option<usize> {
        let now = ctx.now();
        let workers = world.cfg.workers;
        // 1. Wait out the current wait.
        match self.wait {
            Some(Wait::Reconfig) => {
                if world.reconfig.is_none() {
                    let cache = &mut ctx.machine().cache;
                    split_ways(cache, world.cfg.n_cr, workers, world.mr_ways);
                    self.wait = Some(Wait::Settle(now + params.settle));
                }
                return None;
            }
            Some(Wait::Settle(until) | Wait::Measure(until, _)) if now < until => return None,
            Some(Wait::Settle(_)) if self.trial.is_some() => {
                let start = world.driver.completed_total();
                self.wait = Some(Wait::Measure(now + params.window, start));
                return None;
            }
            _ => {}
        }
        // 2. Log a finished measurement.
        if let (Some(Wait::Measure(_, start)), Some(value)) = (self.wait.take(), self.trial.take())
        {
            let objective = world.driver.completed_total().since(start) as f64;
            self.tri.record(value, objective);
            let (phase, n_cr, mr_ways) = if self.ways {
                (ProbePhase::Ways, world.cfg.n_cr, value)
            } else {
                (ProbePhase::Threads, workers - value, world.mr_ways)
            };
            world.tuner_probes.push(TunerProbe {
                at: now,
                phase,
                cache_items: world.hot.target_size,
                n_cr,
                mr_ways,
                objective,
                accepted: self.tri.best().0 == value,
            });
        }
        // 3. Pick the next trial, move on to the next size or to the ways
        //    phase, or finish.
        if let Some(value) = self.tri.next() {
            self.trial = Some(value);
            self.wait = Some(if self.ways {
                world.mr_ways = value;
                split_ways(&mut ctx.machine().cache, world.cfg.n_cr, workers, value);
                Wait::Settle(now + params.settle)
            } else if world.request_split(workers - value) {
                Wait::Reconfig
            } else {
                Wait::Settle(now + params.settle)
            });
            return None;
        }
        if self.ways {
            return Some(self.tri.best().0);
        }
        let (n_mr, objective) = self.tri.best();
        if self.best.is_none_or(|(best, _, _)| objective > best) {
            self.best = Some((objective, self.sizes[0], n_mr));
        }
        self.sizes.remove(0);
        if let Some(&k) = self.sizes.first() {
            set_cache_size(world, k);
            self.tri = Trisect::new(1, workers - 1);
            return None;
        }
        let (_, k, n_mr) = self.best.expect("a searched size");
        set_cache_size(world, k);
        self.ways = true;
        self.tri = Trisect::new(1, ctx.machine().cache.full_mask().count_ones() as usize);
        self.wait = Some(if world.request_split(workers - n_mr) {
            Wait::Reconfig
        } else {
            Wait::Settle(now)
        });
        None
    }
}

/// Installs hot-cache size `k` (items); size 0 also empties the cache.
fn set_cache_size(world: &mut UtpsWorld, k: usize) {
    world.hot.target_size = k;
    if k == 0 {
        world.hot.clear();
    }
}

#[derive(Debug)]
enum TState {
    Warmup(u32),
    Monitor,
    Search(Box<Search>),
}

/// The auto-tuner.
pub struct Tuner {
    mode: TunerMode,
    params: TunerParams,
    /// Largest cache size the search probes (items).
    hot_capacity: usize,
    state: TState,
    window_end: SimTime,
    last_total: Total,
    ewma: f64,
    deviant: u32,
    /// Fault-event count at the last window boundary (freeze guard).
    last_fault_events: u64,
}

impl Tuner {
    /// Creates a tuner whose search probes cache sizes up to
    /// `hot_capacity` items.
    pub fn new(mode: TunerMode, params: TunerParams, hot_capacity: usize) -> Self {
        Tuner {
            mode,
            window_end: SimTime(params.window),
            params,
            hot_capacity,
            state: TState::Warmup(3),
            last_total: Total::default(),
            ewma: 0.0,
            deviant: 0,
            last_fault_events: 0,
        }
    }

    /// The next time the tuner needs to run (`ZERO`: poll soon).
    pub(crate) fn next_wake(&self) -> SimTime {
        match &self.state {
            TState::Search(s) => match s.wait {
                Some(Wait::Settle(t) | Wait::Measure(t, _)) => t,
                Some(Wait::Reconfig) | None => SimTime::ZERO,
            },
            _ => self.window_end,
        }
    }

    /// One tuner step; called by the manager.
    pub fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) {
        if self.mode == TunerMode::Off {
            return;
        }
        let now = ctx.now();
        ctx.compute_ns(150); // feedback-loop bookkeeping
        if let TState::Search(search) = &mut self.state {
            if let Some(w_mr) = search.step(ctx, world, &self.params) {
                world.mr_ways = w_mr;
                let (n_cr, k) = (world.cfg.n_cr, world.hot.target_size);
                split_ways(&mut ctx.machine().cache, n_cr, world.cfg.workers, w_mr);
                world
                    .tuner_trace
                    .push(TunerEvent::Applied(now, n_cr, k, w_mr));
                world.tuner_trace.push(TunerEvent::SearchEnded(now));
                self.state = TState::Monitor;
                self.window_end = now + self.params.window;
                self.last_total = world.driver.completed_total();
                self.ewma = 0.0; // rebuild the baseline
            }
            return;
        }
        if now < self.window_end {
            return;
        }
        let total = world.driver.completed_total();
        let tp = total.since(self.last_total) as f64;
        self.last_total = total;
        self.window_end = now + self.params.window;
        // Freeze guard: a window disturbed by injected faults (drops, stalls,
        // corruption) must not trigger reconfiguration — the throughput dip
        // is the disturbance, not a workload shift, and reassigning threads
        // mid-storm would compound it (§3.5's reassignment is reserved for
        // genuine shifts).
        let fault_events = ctx.machine().faults.events();
        let disturbed =
            fault_events > self.last_fault_events || ctx.machine().faults.stall_active(now);
        self.last_fault_events = fault_events;
        let mut start = false;
        match &mut self.state {
            TState::Warmup(left) => {
                self.ewma = tp;
                *left -= 1;
                if *left == 0 {
                    self.state = TState::Monitor;
                }
            }
            TState::Monitor => {
                if disturbed {
                    self.deviant = 0;
                } else {
                    let dev = if self.ewma > 0.0 {
                        (tp - self.ewma).abs() / self.ewma
                    } else {
                        0.0
                    };
                    if dev > self.params.trigger {
                        self.deviant += 1;
                    } else {
                        self.deviant = 0;
                        self.ewma = 0.7 * self.ewma + 0.3 * tp;
                    }
                    if self.deviant >= self.params.trigger_windows {
                        self.deviant = 0;
                        start = true;
                    }
                }
            }
            TState::Search(_) => unreachable!(),
        }
        if disturbed {
            ctx.machine().registry.inc(Counter::TunerFrozenWindows);
        }
        if start {
            self.start_search(now, world);
        }
    }

    /// Begins a hierarchical search, installing its first cache size so
    /// the first trisection measures the size it is credited to.
    pub fn start_search(&mut self, now: SimTime, world: &mut UtpsWorld) {
        world.tuner_trace.push(TunerEvent::SearchStarted(now));
        let sizes = if world.cfg.cache_enabled {
            let step = self.params.cache_step.max(1);
            (0..=self.hot_capacity).step_by(step).collect()
        } else {
            vec![0]
        };
        set_cache_size(world, sizes[0]);
        self.state = TState::Search(Box::new(Search {
            sizes,
            tri: Trisect::new(1, world.cfg.workers - 1),
            ways: false,
            best: None,
            trial: None,
            wait: None,
        }));
    }

    /// Whether a search is in progress.
    pub fn searching(&self) -> bool {
        matches!(self.state, TState::Search(_))
    }
}

/// The management thread: sampling, hot-set refresh, tuner driving.
pub(crate) struct ManagerProc {
    tracker: HotSetTracker,
    refresh_every: u64,
    next_refresh: SimTime,
    /// The tuner.
    pub tuner: Tuner,
    refreshes: u64,
}

impl ManagerProc {
    /// Creates the manager. `refresh_every` is the hot-set refresh period in
    /// picoseconds.
    pub fn new(tuner: Tuner, refresh_every: u64, hot_k: usize) -> Self {
        ManagerProc {
            tracker: HotSetTracker::new(1 << 16, 4, hot_k.max(16)),
            refresh_every,
            next_refresh: SimTime(refresh_every),
            tuner,
            refreshes: 0,
        }
    }
}

impl Process<UtpsWorld> for ManagerProc {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> StepOutcome {
        let now = ctx.now();
        // 1. Drain worker samples into the tracker.
        let mut drained = 0;
        for q in world.samples.iter_mut() {
            while let Some(key) = q.pop_front() {
                self.tracker.record(key);
                drained += 1;
                if drained >= 4096 {
                    break;
                }
            }
        }
        if drained > 0 {
            ctx.compute_ns(4 * drained);
        }

        // 2. Refresh the hot cache (epoch switch).
        if world.cfg.cache_enabled && now >= self.next_refresh {
            self.next_refresh = now + self.refresh_every;
            let want = world.hot.target_size;
            if want > 0 {
                let hot = self.tracker.hottest(want);
                let mut pairs = Vec::with_capacity(hot.len());
                for (key, _) in hot {
                    if let Some(id) = world.store.index.get_native(key) {
                        pairs.push((key, id));
                    }
                }
                ctx.compute_ns(120 * pairs.len() as u64 + 500);
                world.hot.rebuild(pairs);
            } else {
                world.hot.clear();
            }
            // Age the tracker every few refreshes so it follows hot-set
            // shifts without churning the ranking between refreshes.
            if self.refreshes % 4 == 3 {
                self.tracker.refresh();
            }
            self.refreshes += 1;
        }

        // 3. Drive the tuner.
        self.tuner.step(ctx, world);

        // 4. Sleep until the next interesting moment (bounded, so samples
        //    keep draining).
        let wake = self
            .next_refresh
            .min(match self.tuner.next_wake() {
                SimTime::ZERO => now + 50 * utps_sim::time::MICROS,
                t => t,
            })
            .min(now + 200 * utps_sim::time::MICROS)
            .max(now + 5 * utps_sim::time::MICROS);
        ctx.advance_to(wake);
        if drained > 0 {
            StepOutcome::Progress
        } else {
            StepOutcome::Idle
        }
    }

    fn name(&self) -> &'static str {
        "manager"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{build_utps_world, RunConfig};
    use utps_sim::{Engine, MachineConfig, StatClass};

    /// Known gap (CHANGES.md, FOUND on `Tuner::next_wake`): an `Off`
    /// tuner's `step` returns before it moves `window_end`, so it keeps
    /// naming its first window end, and once that has passed the manager
    /// wakes at its 5 µs floor. Mending it flips this test, and moves every
    /// μTPS digest (hot-set sampling runs on the manager's wakes).
    #[test]
    fn known_gap_off_tuner_keeps_its_first_window_end() {
        let params = TunerParams::default();
        let first = SimTime(params.window);
        let cfg = RunConfig {
            keys: 1_000,
            ..RunConfig::default()
        };
        let world = build_utps_world(&cfg);
        let cores = cfg.workers;
        let (wake, _) = Engine::run_once(MachineConfig::tiny(), cores, StatClass::Other, world, {
            move |ctx, w| {
                let mut tuner = Tuner::new(TunerMode::Off, params.clone(), 100);
                for k in 1..=3 {
                    ctx.advance_to(first + k * params.window);
                    tuner.step(ctx, w);
                }
                tuner.next_wake()
            }
        });
        assert_eq!(wake, first, "an Off tuner now tracks its windows");
    }

    #[test]
    fn trisect_finds_unimodal_max() {
        // f(x) peaks at 17 on [1, 27].
        let f = |x: usize| -((x as f64) - 17.0).powi(2);
        let mut tri = Trisect::new(1, 27);
        let mut evals = 0;
        while let Some(x) = tri.next() {
            tri.record(x, f(x));
            evals += 1;
            assert!(evals < 40, "did not converge");
        }
        let (best, _) = tri.best();
        assert!(
            (16..=18).contains(&best),
            "trisection found {best}, expected ≈17"
        );
        // Far fewer evaluations than a linear sweep.
        assert!(evals <= 14, "{evals} evaluations");
    }

    #[test]
    fn trisect_handles_boundary_maximum() {
        let f = |x: usize| x as f64; // max at hi
        let mut tri = Trisect::new(1, 20);
        while let Some(x) = tri.next() {
            tri.record(x, f(x));
        }
        assert_eq!(tri.best().0, 20);
        let g = |x: usize| -(x as f64); // max at lo
        let mut tri = Trisect::new(1, 20);
        while let Some(x) = tri.next() {
            tri.record(x, g(x));
        }
        assert_eq!(tri.best().0, 1);
    }

    #[test]
    fn trisect_tiny_ranges() {
        let mut tri = Trisect::new(3, 3);
        assert_eq!(tri.next(), Some(3));
        tri.record(3, 1.0);
        assert!(tri.converged());
        assert_eq!(tri.best(), (3, 1.0));
        let mut tri = Trisect::new(1, 2);
        while let Some(x) = tri.next() {
            tri.record(x, (x * 2) as f64);
        }
        assert_eq!(tri.best().0, 2);
    }
}
