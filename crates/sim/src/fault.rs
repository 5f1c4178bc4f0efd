//! Seeded fault injection: a [`FaultPlan`] perturbs the simulated fabric and
//! cores without breaking determinism.
//!
//! The plan models the disturbances a production deployment sees and the
//! paper's evaluation assumes away:
//!
//! * **receive-ring drops** — an RNIC receive descriptor is consumed but the
//!   payload is discarded (PFC storm, ring overrun);
//! * **duplicated deliveries** — the same request is delivered twice (link
//!   retransmit after a lost ack);
//! * **delayed DMA completions** — a delivery is pushed back by a fixed
//!   latency (PCIe backpressure);
//! * **per-core stall windows** — a pinned worker freezes for a span of
//!   simulated time (SMI, cgroup throttle, scheduler preemption);
//! * **lane corruption-detection events** — a popped CR→MR descriptor batch
//!   fails its checksum and must be re-read.
//!
//! All decisions come from a private splitmix64 stream seeded from the run
//! seed, so same-seed fault runs are byte-identical. A zero
//! [`FaultConfig`] never draws from the stream and never charges time, which
//! keeps fault-free runs bit-for-bit identical to builds without the
//! subsystem wired in.

use utps_collections::hashutil::{splitmix64, unit_f64};

use crate::time::SimTime;

/// One scheduled freeze of a pinned core: the core executes no steps in
/// `[at_ps, at_ps + dur_ps)`; its next step is deferred to the window end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    /// Core index (engine `spawn` core) the window applies to.
    pub core: usize,
    /// Window start, picoseconds of simulated time.
    pub at_ps: u64,
    /// Window length, picoseconds.
    pub dur_ps: u64,
}

/// Declarative description of the disturbance to inject. The default is the
/// zero plan: nothing fires, no randomness is consumed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Extra seed folded into the run seed for the fault stream.
    pub seed: u64,
    /// Probability a polled receive-ring request is dropped.
    pub drop_prob: f64,
    /// Probability a polled request is delivered twice.
    pub dup_prob: f64,
    /// Probability a polled request's DMA completion is delayed.
    pub delay_prob: f64,
    /// Delay applied to delayed (and duplicated) deliveries, picoseconds.
    pub delay_ps: u64,
    /// Probability a popped CR→MR descriptor batch trips corruption
    /// detection and is re-read.
    pub corrupt_prob: f64,
    /// Scheduled per-core freezes.
    pub stalls: Vec<StallWindow>,
}

impl FaultConfig {
    /// Whether any receive-path fault can fire.
    pub fn net_active(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.delay_prob > 0.0
    }

    /// Whether the whole plan is the zero plan.
    #[cfg(test)]
    pub(crate) fn is_zero(&self) -> bool {
        !self.net_active() && self.corrupt_prob == 0.0 && self.stalls.is_empty()
    }
}

/// Outcome of the receive-path fault draw for one polled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvFate {
    /// Deliver normally.
    Deliver,
    /// Discard the request; the client must retransmit.
    Drop,
    /// Deliver now and redeliver a copy `0.delay` ps later.
    Duplicate {
        /// Redelivery offset in picoseconds.
        delay: u64,
    },
    /// Push the delivery back by `0.delay` ps.
    Delay {
        /// Delivery offset in picoseconds.
        delay: u64,
    },
}

/// Instantiated fault plan owned by the [`crate::engine::Machine`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: u64,
    events: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::inactive()
    }
}

impl FaultPlan {
    /// Instantiates `cfg`, folding `run_seed` into the fault stream so two
    /// runs differing only in seed see different fault placements.
    pub fn new(cfg: FaultConfig, run_seed: u64) -> Self {
        let mut state = run_seed ^ cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let rng = splitmix64(&mut state);
        FaultPlan {
            cfg,
            rng,
            events: 0,
        }
    }

    /// The zero plan: injects nothing, draws nothing.
    pub(crate) fn inactive() -> Self {
        FaultPlan {
            cfg: FaultConfig::default(),
            rng: 0,
            events: 0,
        }
    }

    /// The plan's configuration.
    pub fn cfg(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether receive-path faults can fire (cheap guard so the hot pump
    /// loop skips the draw entirely on the zero plan).
    #[inline]
    pub fn net_active(&self) -> bool {
        self.cfg.net_active()
    }

    /// Whether corruption-detection events can fire.
    #[inline]
    pub fn corrupt_active(&self) -> bool {
        self.cfg.corrupt_prob > 0.0
    }

    /// Whether any stall window is scheduled.
    #[inline]
    pub(crate) fn has_stalls(&self) -> bool {
        !self.cfg.stalls.is_empty()
    }

    /// Total fault events fired so far (drops + dups + delays + corruptions
    /// + stall deferrals); the tuner reads this as its pressure signal.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Draws the fate of one polled receive-ring request. Call only when
    /// [`Self::net_active`]; one draw decides drop/dup/delay together.
    pub fn recv_fate(&mut self) -> RecvFate {
        let u = unit_f64(splitmix64(&mut self.rng));
        let delay = self.cfg.delay_ps.max(1);
        if u < self.cfg.drop_prob {
            self.events += 1;
            RecvFate::Drop
        } else if u < self.cfg.drop_prob + self.cfg.dup_prob {
            self.events += 1;
            RecvFate::Duplicate { delay }
        } else if u < self.cfg.drop_prob + self.cfg.dup_prob + self.cfg.delay_prob {
            self.events += 1;
            RecvFate::Delay { delay }
        } else {
            RecvFate::Deliver
        }
    }

    /// Draws whether one popped descriptor batch trips corruption
    /// detection. Call only when [`Self::corrupt_active`].
    pub fn corrupt_pop(&mut self) -> bool {
        let hit = unit_f64(splitmix64(&mut self.rng)) < self.cfg.corrupt_prob;
        if hit {
            self.events += 1;
        }
        hit
    }

    /// If `core` is inside a stall window at time `t`, returns the window
    /// end the core's next step must be deferred to.
    pub(crate) fn stall_until(&self, core: usize, t: SimTime) -> Option<SimTime> {
        let ps = t.as_ps();
        self.cfg
            .stalls
            .iter()
            .filter(|w| w.core == core && w.at_ps <= ps && ps < w.at_ps + w.dur_ps)
            .map(|w| SimTime(w.at_ps + w.dur_ps))
            .max()
    }

    /// The earliest time at or after `t` that lies inside a stall window of
    /// `core`: where a process parked on that core's poll grid must wake so
    /// the engine defers that grid point as it would a polling step.
    pub(crate) fn next_stall(&self, core: usize, t: SimTime) -> Option<SimTime> {
        let ps = t.as_ps();
        self.cfg
            .stalls
            .iter()
            .filter(|w| w.core == core && ps < w.at_ps + w.dur_ps)
            .map(|w| SimTime(w.at_ps.max(ps)))
            .min()
    }

    /// Whether any core is inside a stall window at time `t` (the tuner's
    /// "machine is disturbed" check).
    pub fn stall_active(&self, t: SimTime) -> bool {
        let ps = t.as_ps();
        self.cfg
            .stalls
            .iter()
            .any(|w| w.at_ps <= ps && ps < w.at_ps + w.dur_ps)
    }

    /// Records a stall deferral into the event count (called by the engine).
    pub(crate) fn note_stall_defer(&mut self) {
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_inert() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_zero());
        let plan = FaultPlan::new(cfg, 42);
        assert!(!plan.net_active());
        assert!(!plan.corrupt_active());
        assert!(!plan.has_stalls());
        assert_eq!(plan.events(), 0);
        assert_eq!(plan.stall_until(0, SimTime(123)), None);
    }

    #[test]
    fn fate_stream_is_seed_deterministic() {
        let cfg = FaultConfig {
            drop_prob: 0.1,
            dup_prob: 0.1,
            delay_prob: 0.1,
            delay_ps: 1_000_000,
            ..FaultConfig::default()
        };
        let mut a = FaultPlan::new(cfg.clone(), 7);
        let mut b = FaultPlan::new(cfg.clone(), 7);
        let fa: Vec<_> = (0..1000).map(|_| a.recv_fate()).collect();
        let fb: Vec<_> = (0..1000).map(|_| b.recv_fate()).collect();
        assert_eq!(fa, fb);
        let mut c = FaultPlan::new(cfg, 8);
        let fc: Vec<_> = (0..1000).map(|_| c.recv_fate()).collect();
        assert_ne!(fa, fc, "different seeds produced identical fault streams");
    }

    #[test]
    fn fate_rates_roughly_match_probabilities() {
        let cfg = FaultConfig {
            drop_prob: 0.2,
            dup_prob: 0.1,
            delay_prob: 0.05,
            delay_ps: 500_000,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, 42);
        let n = 20_000;
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        for _ in 0..n {
            match plan.recv_fate() {
                RecvFate::Drop => drops += 1,
                RecvFate::Duplicate { .. } => dups += 1,
                RecvFate::Delay { .. } => delays += 1,
                RecvFate::Deliver => {}
            }
        }
        let frac = |c: i32| c as f64 / n as f64;
        assert!(
            (frac(drops) - 0.2).abs() < 0.02,
            "drop rate {}",
            frac(drops)
        );
        assert!((frac(dups) - 0.1).abs() < 0.02, "dup rate {}", frac(dups));
        assert!(
            (frac(delays) - 0.05).abs() < 0.02,
            "delay rate {}",
            frac(delays)
        );
        assert_eq!(plan.events() as i32, drops + dups + delays);
    }

    #[test]
    fn stall_windows_cover_their_span() {
        let cfg = FaultConfig {
            stalls: vec![
                StallWindow {
                    core: 2,
                    at_ps: 1_000,
                    dur_ps: 500,
                },
                StallWindow {
                    core: 2,
                    at_ps: 1_200,
                    dur_ps: 900,
                },
            ],
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg, 1);
        assert_eq!(plan.stall_until(2, SimTime(999)), None);
        assert_eq!(plan.stall_until(2, SimTime(1_000)), Some(SimTime(1_500)));
        // Overlapping windows defer to the latest end.
        assert_eq!(plan.stall_until(2, SimTime(1_300)), Some(SimTime(2_100)));
        assert_eq!(plan.stall_until(2, SimTime(2_100)), None);
        assert_eq!(plan.stall_until(0, SimTime(1_100)), None);
        assert!(plan.stall_active(SimTime(1_100)));
        assert!(!plan.stall_active(SimTime(3_000)));
    }
}
