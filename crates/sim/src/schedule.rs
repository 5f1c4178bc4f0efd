//! Seeded schedule exploration: perturbing *which runnable process steps
//! next* without giving up replayability.
//!
//! The engine is deterministic: it always steps the process with the
//! smallest clock, so one (workload seed, fault seed) pair explores exactly
//! one interleaving. Races that need a specific victim ordering can hide
//! behind that single schedule forever. A [`SchedulePlan`] widens the net:
//! in [`ScheduleMode::Explore`] it counts scheduler *decisions* (heap pops)
//! and, at seed-chosen decisions, injects a bounded stall into the popped
//! process — deferring it so whichever process is next in clock order runs
//! first. Each seed is a distinct, fully deterministic interleaving.
//!
//! Every injected stall is recorded as a [`ScheduleEvent`] keyed by its
//! decision index. Re-running with [`ScheduleMode::Replay`] of a recorded
//! trace reproduces the run byte-for-byte, and — because the run up to the
//! first event is unperturbed and everything after is a pure function of the
//! applied stalls — replaying an Explore run's own trace is identical to the
//! Explore run. That property is what makes shrinking sound:
//! [`shrink_schedule`] bisects a failing trace (ddmin) to a minimal subset
//! of stalls that still triggers the failure, each candidate subset being
//! itself a valid, replayable schedule.

use utps_collections::hashutil::splitmix64;

/// One injected scheduling perturbation: at scheduler decision `decision`
/// (1-based heap-pop count), the popped process `pid` was stalled for
/// `stall_ps` picoseconds before being allowed to step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleEvent {
    /// 1-based index of the heap pop the stall fired on.
    pub decision: u64,
    /// Process that was deferred (diagnostic; replay keys on `decision`).
    pub pid: usize,
    /// Injected stall, picoseconds.
    pub stall_ps: u64,
}

/// Tuning knobs for exploration. [`ScheduleConfig::explore`] gives the
/// defaults used by the test harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleConfig {
    /// Extra seed folded into the run seed for the perturbation stream.
    pub seed: u64,
    /// Mean decisions between injected stalls (geometric-ish via a uniform
    /// draw in `[1, 2*mean_gap]`).
    pub mean_gap: u64,
    /// Maximum injected stall, picoseconds. Stalls are uniform in
    /// `[1, max_stall_ps]` — long enough to reorder against in-flight work,
    /// short enough not to trip retry timeouts by themselves.
    pub max_stall_ps: u64,
    /// Hard cap on injected events per run (keeps traces shrinkable).
    pub max_events: usize,
}

impl ScheduleConfig {
    /// Default exploration shape: a stall roughly every 25k decisions, up to
    /// 2 µs each, at most 64 per run.
    pub fn explore(seed: u64) -> Self {
        ScheduleConfig {
            seed,
            mean_gap: 25_000,
            max_stall_ps: 2_000_000,
            max_events: 64,
        }
    }
}

/// How the engine's scheduler is perturbed for a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ScheduleMode {
    /// No perturbation (the default); runs are identical to builds without
    /// the subsystem wired in.
    #[default]
    Off,
    /// Inject seed-chosen stalls and record the trace.
    Explore(ScheduleConfig),
    /// Re-apply a recorded trace exactly (events keyed by decision index).
    Replay(Vec<ScheduleEvent>),
}

impl ScheduleMode {
    /// Whether this mode perturbs anything.
    pub fn armed(&self) -> bool {
        !matches!(self, ScheduleMode::Off)
    }
}

/// Instantiated schedule plan owned by the [`crate::engine::Machine`].
#[derive(Clone, Debug, Default)]
pub struct SchedulePlan {
    armed: bool,
    exploring: bool,
    cfg: ScheduleConfig,
    rng: u64,
    decision: u64,
    next_fire: u64,
    replay: Vec<ScheduleEvent>,
    replay_pos: usize,
    trace: Vec<ScheduleEvent>,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig::explore(0)
    }
}

impl SchedulePlan {
    /// Instantiates `mode`, folding `run_seed` into the perturbation stream
    /// so two runs differing only in workload seed also explore different
    /// interleavings.
    pub fn from_mode(mode: ScheduleMode, run_seed: u64) -> Self {
        match mode {
            ScheduleMode::Off => SchedulePlan::inactive(),
            ScheduleMode::Explore(cfg) => {
                let mut state = run_seed ^ cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut rng = splitmix64(&mut state);
                let gap = 1 + splitmix64(&mut rng) % (2 * cfg.mean_gap.max(1));
                SchedulePlan {
                    armed: true,
                    exploring: true,
                    cfg,
                    rng,
                    decision: 0,
                    next_fire: gap,
                    replay: Vec::new(),
                    replay_pos: 0,
                    trace: Vec::new(),
                }
            }
            ScheduleMode::Replay(mut events) => {
                events.sort_by_key(|e| e.decision);
                SchedulePlan {
                    armed: !events.is_empty(),
                    exploring: false,
                    cfg: ScheduleConfig::default(),
                    rng: 0,
                    decision: 0,
                    next_fire: 0,
                    replay: events,
                    replay_pos: 0,
                    trace: Vec::new(),
                }
            }
        }
    }

    /// The inert plan: no counting, no stalls.
    pub(crate) fn inactive() -> Self {
        SchedulePlan::default()
    }

    /// Whether the plan can perturb this run (cheap guard for the engine's
    /// hot loop; the inert plan costs one branch per pop).
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Called by the engine on every heap pop of process `pid`. Returns
    /// `Some(stall_ps)` when this decision fires a perturbation; the engine
    /// defers the process by that much and re-schedules it.
    #[inline]
    pub(crate) fn on_pop(&mut self, pid: usize) -> Option<u64> {
        self.decision += 1;
        let d = self.decision;
        if self.exploring {
            if self.trace.len() >= self.cfg.max_events || d != self.next_fire {
                return None;
            }
            let stall = 1 + splitmix64(&mut self.rng) % self.cfg.max_stall_ps.max(1);
            let gap = 1 + splitmix64(&mut self.rng) % (2 * self.cfg.mean_gap.max(1));
            self.next_fire = d + gap;
            self.trace.push(ScheduleEvent {
                decision: d,
                pid,
                stall_ps: stall,
            });
            Some(stall)
        } else {
            while self.replay_pos < self.replay.len() && self.replay[self.replay_pos].decision < d {
                self.replay_pos += 1;
            }
            if self.replay_pos < self.replay.len() && self.replay[self.replay_pos].decision == d {
                let stall = self.replay[self.replay_pos].stall_ps;
                self.replay_pos += 1;
                self.trace.push(ScheduleEvent {
                    decision: d,
                    pid,
                    stall_ps: stall,
                });
                Some(stall)
            } else {
                None
            }
        }
    }

    /// Scheduler decisions (heap pops) counted so far.
    pub fn decisions(&self) -> u64 {
        self.decision
    }

    /// The perturbations actually applied this run, in decision order. For
    /// an Explore run this is the trace to hand to [`ScheduleMode::Replay`]
    /// (and to [`shrink_schedule`]).
    pub fn trace(&self) -> &[ScheduleEvent] {
        &self.trace
    }
}

/// Minimizes a failing schedule: returns a subset of `events` for which
/// `still_fails` (run the system under `ScheduleMode::Replay` of the
/// candidate, return whether the failure reproduces) still holds, such that
/// removing any single remaining event makes the failure vanish. Classic
/// ddmin with chunk halving; `still_fails` is called O(n log n) times.
pub fn shrink_schedule(
    events: &[ScheduleEvent],
    mut still_fails: impl FnMut(&[ScheduleEvent]) -> bool,
) -> Vec<ScheduleEvent> {
    if still_fails(&[]) {
        return Vec::new();
    }
    let mut cur = events.to_vec();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut candidate = Vec::with_capacity(cur.len() - (end - start));
            candidate.extend_from_slice(&cur[..start]);
            candidate.extend_from_slice(&cur[end..]);
            if still_fails(&candidate) {
                cur = candidate;
                reduced = true;
                // Keep the same chunk size; positions after `start` shifted.
            } else {
                start = end;
            }
        }
        if reduced {
            n = n.saturating_sub(1).max(2);
        } else {
            if chunk == 1 {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(plan: &mut SchedulePlan, pops: u64) -> Vec<ScheduleEvent> {
        for i in 0..pops {
            plan.on_pop((i % 7) as usize);
        }
        plan.trace().to_vec()
    }

    #[test]
    fn off_plan_never_fires() {
        let mut plan = SchedulePlan::from_mode(ScheduleMode::Off, 42);
        assert!(!plan.armed());
        for i in 0..10_000 {
            assert_eq!(plan.on_pop(i % 3), None);
        }
        assert!(plan.trace().is_empty());
    }

    #[test]
    fn explore_is_seed_deterministic_and_seed_sensitive() {
        let cfg = ScheduleConfig {
            mean_gap: 100,
            max_stall_ps: 1_000,
            max_events: 32,
            ..ScheduleConfig::explore(0)
        };
        let mut a = SchedulePlan::from_mode(ScheduleMode::Explore(cfg), 7);
        let mut b = SchedulePlan::from_mode(ScheduleMode::Explore(cfg), 7);
        let ta = drive(&mut a, 20_000);
        let tb = drive(&mut b, 20_000);
        assert_eq!(ta, tb);
        assert!(!ta.is_empty(), "no events in 20k decisions at mean_gap 100");
        assert!(ta.len() <= 32);
        let mut c = SchedulePlan::from_mode(ScheduleMode::Explore(cfg), 8);
        let tc = drive(&mut c, 20_000);
        assert_ne!(ta, tc, "different run seeds produced identical schedules");
    }

    #[test]
    fn replay_applies_the_trace_at_the_same_decisions() {
        let cfg = ScheduleConfig {
            mean_gap: 50,
            max_stall_ps: 500,
            max_events: 8,
            ..ScheduleConfig::explore(3)
        };
        let mut explore = SchedulePlan::from_mode(ScheduleMode::Explore(cfg), 42);
        let trace = drive(&mut explore, 5_000);
        let mut replay = SchedulePlan::from_mode(ScheduleMode::Replay(trace.clone()), 42);
        let replayed = drive(&mut replay, 5_000);
        assert_eq!(trace, replayed);
    }

    #[test]
    fn replay_of_subset_fires_only_the_subset() {
        let events = vec![
            ScheduleEvent {
                decision: 10,
                pid: 1,
                stall_ps: 100,
            },
            ScheduleEvent {
                decision: 30,
                pid: 2,
                stall_ps: 200,
            },
        ];
        let mut plan = SchedulePlan::from_mode(ScheduleMode::Replay(events.clone()), 0);
        let mut fired = Vec::new();
        for i in 1..=40u64 {
            if let Some(s) = plan.on_pop(0) {
                fired.push((i, s));
            }
        }
        assert_eq!(fired, vec![(10, 100), (30, 200)]);
    }

    #[test]
    fn shrink_finds_the_single_culprit() {
        let events: Vec<ScheduleEvent> = (0..16)
            .map(|i| ScheduleEvent {
                decision: (i + 1) * 10,
                pid: i as usize,
                stall_ps: 1 + i,
            })
            .collect();
        // Failure requires exactly event with decision 70.
        let mut calls = 0;
        let min = shrink_schedule(&events, |cand| {
            calls += 1;
            cand.iter().any(|e| e.decision == 70)
        });
        assert_eq!(min.len(), 1);
        assert_eq!(min[0].decision, 70);
        assert!(calls < 100, "ddmin used {calls} runs for 16 events");
    }

    #[test]
    fn shrink_finds_a_conjunction() {
        let events: Vec<ScheduleEvent> = (0..12)
            .map(|i| ScheduleEvent {
                decision: (i + 1) * 10,
                pid: 0,
                stall_ps: 5,
            })
            .collect();
        // Failure needs both decision 20 and decision 90.
        let min = shrink_schedule(&events, |cand| {
            cand.iter().any(|e| e.decision == 20) && cand.iter().any(|e| e.decision == 90)
        });
        assert_eq!(min.len(), 2);
        assert!(min.iter().any(|e| e.decision == 20));
        assert!(min.iter().any(|e| e.decision == 90));
    }

    #[test]
    fn shrink_handles_vacuous_failure() {
        let events = vec![ScheduleEvent {
            decision: 1,
            pid: 0,
            stall_ps: 1,
        }];
        let min = shrink_schedule(&events, |_| true);
        assert!(min.is_empty());
    }
}
