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
//! Thread reassignment uses the non-blocking protocol in
//! [`crate::server`]; the system keeps serving requests throughout.

use std::collections::BTreeMap;

use utps_collections::HotSetTracker;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Process, StepOutcome};

use crate::server::{Reconfig, UtpsWorld};

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
    /// Cache-size linear-probe step (the paper uses 1 K items).
    pub cache_step: usize,
    /// Maximum cached items (the tracked hot set, 10 K in the paper).
    pub cache_max: usize,
}

impl Default for TunerParams {
    fn default() -> Self {
        TunerParams {
            window: 2 * utps_sim::time::MILLIS,
            settle: utps_sim::time::MILLIS,
            trigger: 0.25,
            trigger_windows: 2,
            cache_step: 1_000,
            cache_max: 10_000,
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

/// Upper bound on measurements a trisection over `n` candidates may take
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
            .expect("no measurements")
    }
}

/// What the search is currently measuring.
#[derive(Clone, Debug)]
struct Pending {
    /// Value being trialed (n_mr or ways, depending on phase).
    value: usize,
    /// Waiting for a thread reassignment to complete.
    await_reconfig: bool,
    settle_until: SimTime,
    measure_until: Option<SimTime>,
    start_total: u64,
    /// A settle-only pending whose "measurement" is discarded.
    sentinel: bool,
}

#[derive(Clone, Debug)]
enum SearchPhase {
    /// Inner trisection over n_mr for the current cache size.
    Threads,
    /// Final trisection over MR-reused LLC ways.
    Ways(Trisect),
}

#[derive(Clone, Debug)]
struct Search {
    sizes: Vec<usize>,
    size_idx: usize,
    tri: Trisect,
    best_overall: Option<(f64, usize, usize)>,
    phase: SearchPhase,
    pending: Option<Pending>,
}

#[derive(Debug)]
enum TState {
    Warmup(u32),
    Monitor,
    Search(Box<Search>),
}

/// The auto-tuner.
pub struct Tuner {
    /// Operating mode.
    pub mode: TunerMode,
    /// Parameters.
    pub params: TunerParams,
    state: TState,
    window_end: SimTime,
    last_total: u64,
    ewma: f64,
    deviant: u32,
    /// Fault-event count at the last window boundary (freeze guard).
    last_fault_events: u64,
    /// Total single-window measurements taken by searches.
    pub measurements: u64,
    /// Structured log of every trisection probe (cleared only by the owner).
    pub decision_log: Vec<TunerProbe>,
}

impl Tuner {
    /// Creates a tuner.
    pub fn new(mode: TunerMode, params: TunerParams) -> Self {
        Tuner {
            mode,
            window_end: SimTime(params.window),
            params,
            state: TState::Warmup(3),
            last_total: 0,
            ewma: 0.0,
            deviant: 0,
            last_fault_events: 0,
            measurements: 0,
            decision_log: Vec::new(),
        }
    }

    /// The next time the tuner needs to run.
    pub(crate) fn next_wake(&self) -> SimTime {
        match &self.state {
            TState::Search(s) => match &s.pending {
                Some(p) if p.await_reconfig => SimTime::ZERO, // poll soon
                Some(p) => p.measure_until.unwrap_or(p.settle_until),
                None => SimTime::ZERO,
            },
            _ => self.window_end,
        }
    }

    /// Applies CLOS way masks according to current roles and `mr_ways`
    /// (0 = all ways for everyone).
    pub(crate) fn apply_clos(ctx: &mut Ctx<'_>, world: &UtpsWorld, mr_ways: usize) {
        let cache = &mut ctx.machine().cache;
        let full = cache.full_mask();
        let ways = full.count_ones() as usize;
        let mr_mask = if mr_ways == 0 || mr_ways >= ways {
            full
        } else {
            (1u32 << mr_ways) - 1
        };
        for w in 0..world.cfg.workers {
            let mask = if w < world.cfg.n_cr { full } else { mr_mask };
            cache.set_clos_mask(w, mask);
        }
    }

    /// One tuner step; called by the manager.
    pub fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) {
        if self.mode == TunerMode::Off {
            return;
        }
        let now = ctx.now();
        ctx.compute_ns(150); // feedback-loop bookkeeping
        if matches!(self.state, TState::Search(_)) {
            self.search_step(ctx, world);
            return;
        }
        if now < self.window_end {
            return;
        }
        let total = world.driver.completed_total();
        let tp = total.saturating_sub(self.last_total) as f64;
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
            ctx.machine().registry.counter_inc("tuner.frozen_windows");
        }
        if start {
            self.start_search(now, world);
        }
    }

    /// Begins a hierarchical search.
    pub fn start_search(&mut self, now: SimTime, world: &mut UtpsWorld) {
        world.tuner_trace.push(TunerEvent::SearchStarted(now));
        let mut sizes = Vec::new();
        if world.cfg.cache_enabled {
            let mut k = 0;
            while k <= self.params.cache_max {
                sizes.push(k);
                k += self.params.cache_step.max(1);
            }
        } else {
            sizes.push(0);
        }
        let w = world.cfg.workers;
        // recorded by the caller into world.tuner_trace
        self.state = TState::Search(Box::new(Search {
            sizes,
            size_idx: 0,
            tri: Trisect::new(1, w - 1),
            best_overall: None,
            phase: SearchPhase::Threads,
            pending: None,
        }));
    }

    fn search_step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) {
        let now = ctx.now();
        let params = self.params.clone();

        // Phase 1: progress an in-flight measurement (no calls on `self`
        // while `self.state` is borrowed).
        let mut finished: Option<(usize, f64, bool)> = None;
        {
            let TState::Search(search) = &mut self.state else {
                unreachable!()
            };
            if let Some(p) = &mut search.pending {
                if p.await_reconfig {
                    if world.reconfig.is_some() {
                        return; // reassignment still draining
                    }
                    p.await_reconfig = false;
                    p.settle_until = now + params.settle;
                    let w = world.mr_ways;
                    Tuner::apply_clos(ctx, world, w);
                    return;
                }
                if now < p.settle_until {
                    return;
                }
                if p.sentinel {
                    search.pending = None;
                } else {
                    match p.measure_until {
                        None => {
                            p.measure_until = Some(now + params.window);
                            p.start_total = world.driver.completed_total();
                            return;
                        }
                        Some(until) if now < until => return,
                        Some(_) => {
                            let tp =
                                world.driver.completed_total().saturating_sub(p.start_total) as f64;
                            finished = Some((p.value, tp, true));
                            search.pending = None;
                        }
                    }
                }
            }
        }
        if let Some((value, tp, _)) = finished {
            self.measurements += 1;
            let TState::Search(search) = &mut self.state else {
                unreachable!()
            };
            // Record the probe and log the decision: `value` is n_mr in the
            // thread phase, the MR way count in the ways phase.
            let (phase, n_cr, mr_ways, accepted) = match &mut search.phase {
                SearchPhase::Threads => {
                    search.tri.record(value, tp);
                    let accepted = search.tri.best().0 == value;
                    (
                        ProbePhase::Threads,
                        world.cfg.workers - value,
                        world.mr_ways,
                        accepted,
                    )
                }
                SearchPhase::Ways(tri) => {
                    tri.record(value, tp);
                    let accepted = tri.best().0 == value;
                    (ProbePhase::Ways, world.cfg.n_cr, value, accepted)
                }
            };
            let probe = TunerProbe {
                at: now,
                phase,
                cache_items: world.hot.target_size,
                n_cr,
                mr_ways,
                objective: tp,
                accepted,
            };
            world.tuner_probes.push(probe.clone());
            self.decision_log.push(probe);
        }

        // Phase 2: decide the next action.
        enum Act {
            TrialSplit(usize),
            NextSize(usize),
            ToWays { k: usize, n_mr: usize },
            TrialWays(usize),
            Finish(usize),
        }
        let act = {
            let TState::Search(search) = &mut self.state else {
                unreachable!()
            };
            match &mut search.phase {
                SearchPhase::Threads => {
                    if let Some(n_mr) = search.tri.next() {
                        Act::TrialSplit(n_mr)
                    } else {
                        // Converged for this cache size.
                        let (n_mr, tp) = search.tri.best();
                        let k = search.sizes[search.size_idx];
                        if search
                            .best_overall
                            .map(|(best, _, _)| tp > best)
                            .unwrap_or(true)
                        {
                            search.best_overall = Some((tp, k, n_mr));
                        }
                        search.size_idx += 1;
                        if search.size_idx < search.sizes.len() {
                            let next_k = search.sizes[search.size_idx];
                            let w = search.tri.measured.keys().copied().max().unwrap_or(1);
                            let _ = w;
                            Act::NextSize(next_k)
                        } else {
                            let (_, k, n_mr) = search.best_overall.expect("no best");
                            Act::ToWays { k, n_mr }
                        }
                    }
                }
                SearchPhase::Ways(tri) => {
                    if let Some(w_mr) = tri.next() {
                        Act::TrialWays(w_mr)
                    } else {
                        Act::Finish(tri.best().0)
                    }
                }
            }
        };

        // Phase 3: act with full access to `self`.
        match act {
            Act::TrialSplit(n_mr) => {
                let await_reconfig = self.request_split(world, n_mr);
                let TState::Search(search) = &mut self.state else {
                    unreachable!()
                };
                search.pending = Some(Pending {
                    value: n_mr,
                    await_reconfig,
                    settle_until: now + params.settle,
                    measure_until: None,
                    start_total: 0,
                    sentinel: false,
                });
            }
            Act::NextSize(k) => {
                world.hot.target_size = k;
                if k == 0 {
                    world.hot.clear();
                }
                let w = world.cfg.workers;
                let TState::Search(search) = &mut self.state else {
                    unreachable!()
                };
                search.tri = Trisect::new(1, w - 1);
            }
            Act::ToWays { k, n_mr } => {
                world.hot.target_size = k;
                if k == 0 {
                    world.hot.clear();
                }
                let await_reconfig = self.request_split(world, n_mr);
                let ways = ctx.machine().cache.full_mask().count_ones() as usize;
                let TState::Search(search) = &mut self.state else {
                    unreachable!()
                };
                search.phase = SearchPhase::Ways(Trisect::new(1, ways));
                search.pending = Some(Pending {
                    value: 0,
                    await_reconfig,
                    settle_until: now,
                    measure_until: None,
                    start_total: 0,
                    sentinel: true,
                });
            }
            Act::TrialWays(w_mr) => {
                world.mr_ways = w_mr;
                Tuner::apply_clos(ctx, world, w_mr);
                let TState::Search(search) = &mut self.state else {
                    unreachable!()
                };
                search.pending = Some(Pending {
                    value: w_mr,
                    await_reconfig: false,
                    settle_until: now + params.settle,
                    measure_until: None,
                    start_total: 0,
                    sentinel: false,
                });
            }
            Act::Finish(w_mr) => {
                world.mr_ways = w_mr;
                Tuner::apply_clos(ctx, world, w_mr);
                let k = world.hot.target_size;
                let n_cr = world.cfg.n_cr;
                world
                    .tuner_trace
                    .push(TunerEvent::Applied(now, n_cr, k, w_mr));
                world.tuner_trace.push(TunerEvent::SearchEnded(now));
                self.state = TState::Monitor;
                self.window_end = now + params.window;
                self.last_total = world.driver.completed_total();
                self.ewma = 0.0; // rebuild the baseline
            }
        }
    }

    /// Issues a thread reassignment toward `n_mr` MR workers. Returns false
    /// if the config is already in effect (no reconfig needed).
    fn request_split(&mut self, world: &mut UtpsWorld, n_mr: usize) -> bool {
        let new_n_cr = world.cfg.workers - n_mr;
        if new_n_cr == world.cfg.n_cr || world.reconfig.is_some() {
            return false;
        }
        let margin = (world.cfg.workers as u64) * 2;
        world.reconfig = Some(Reconfig {
            new_n_cr,
            switch_seq: world.ring.head() + margin,
            adopted: vec![false; world.cfg.workers],
        });
        true
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
