//! The stage engine: one pipeline runtime for μTPS and every baseline.
//!
//! The paper's core move is splitting request processing into *stages* with
//! explicit handoff points (hit path / miss path, §3.2.3) instead of
//! run-to-completion threads. This module makes that structure first-class:
//!
//! * [`Stage`] — a non-preemptive FSM. `step` runs one scheduling slot to
//!   its next yield point and reports a [`StepOutcome`]: whether it made
//!   progress, found nothing to do, or wants to hand its core to a successor
//!   stage (μTPS's §3.5 thread reassignment).
//! * [`StageProc`] — the adapter driving a single stage as a sim
//!   [`Process`]. The outcome steers only the engine's burst fast path; all
//!   costs are charged through [`Ctx`], so wrapping a stage never perturbs
//!   the simulation.
//! * [`PipelineRuntime`] — owns the engine and the per-run plumbing every
//!   system repeats: fault-plan installation, stage/client spawning, and the
//!   warmup → counter-reset → measure protocol.
//!
//! How the systems map onto it:
//!
//! | System | Stages |
//! |---|---|
//! | μTPS | `CrStage` ⇄ `MrStage` per worker, composed by `UtpsWorker` |
//! | BaseKV | one run-to-completion stage per worker |
//! | eRPCKV | NIC dispatch stage fused into each shard stage |
//! | RaceHash/Sherman | verb-engine process (no server stage at all) |

use utps_sim::time::SimTime;
use utps_sim::{Ctx, Engine, FaultPlan, Machine, Process, SchedulePlan, StatClass};

use crate::client::{ClientProc, KvWorld, SamplerProc};
use crate::experiment::RunConfig;

// `StepOutcome` moved down into the engine when `Process::step` started
// returning it (the burst fast path keys off it); re-exported here so every
// historical `utps_core::stage::StepOutcome` path keeps working. The
// charging contract is unchanged: an outcome never influences simulated
// time or event order, only how the engine hosts the next step.
pub use utps_sim::StepOutcome;

/// A non-preemptive stage of request processing, mirroring the paper's
/// hit-path/miss-path state machine: each `step` call runs to the stage's
/// next yield point and returns.
///
/// Charging discipline: all simulated costs go through `ctx`; the returned
/// [`StepOutcome`] must not influence them.
pub trait Stage<W> {
    /// Runs one scheduling slot.
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome;

    /// Stage name for diagnostics.
    fn name(&self) -> &'static str {
        "stage"
    }
}

/// Adapter: drives one [`Stage`] as an engine [`Process`], surfacing the
/// stage's outcome to the engine's burst fast path (single-stage workers
/// never hand off; compositions like `UtpsWorker` handle
/// [`StepOutcome::Handoff`] themselves).
pub struct StageProc<S> {
    stage: S,
}

impl<S> StageProc<S> {
    /// Wraps `stage`.
    pub fn new(stage: S) -> Self {
        StageProc { stage }
    }
}

impl<W, S: Stage<W>> Process<W> for StageProc<S> {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome {
        self.stage.step(ctx, world)
    }

    fn name(&self) -> &'static str {
        self.stage.name()
    }
}

/// The shared run harness: engine construction, fault-plan installation,
/// stage/client spawning, and the warmup → reset → measure protocol that
/// every runner used to hand-roll.
pub struct PipelineRuntime<W> {
    eng: Engine<W>,
    warmup: SimTime,
    end: SimTime,
}

impl<W: 'static> PipelineRuntime<W> {
    /// Builds the runtime: `cores` server cores around `world`, with the
    /// run's fault plan installed on the machine.
    pub fn new(cfg: &RunConfig, cores: usize, world: W) -> Self {
        let mut eng = Engine::new(cfg.machine.clone(), cores, world);
        eng.machine().faults = FaultPlan::new(cfg.faults.clone(), cfg.seed);
        eng.machine().schedule = SchedulePlan::from_mode(cfg.schedule.clone(), cfg.seed);
        PipelineRuntime {
            eng,
            warmup: SimTime(cfg.warmup),
            end: SimTime(cfg.warmup + cfg.duration),
        }
    }

    /// The engine (world access, extra spawns).
    pub fn engine(&mut self) -> &mut Engine<W> {
        &mut self.eng
    }

    /// Consumes the runtime, handing back the engine (result extraction and
    /// final world inspection).
    pub fn into_engine(self) -> Engine<W> {
        self.eng
    }

    /// The machine (CLOS masks, registry).
    pub fn machine(&mut self) -> &mut Machine {
        self.eng.machine()
    }

    /// Spawns a stage pinned to server core `core` under `class`.
    pub fn spawn_stage(
        &mut self,
        core: Option<usize>,
        class: StatClass,
        stage: impl Stage<W> + 'static,
    ) {
        self.eng.spawn(core, class, Box::new(StageProc::new(stage)));
    }

    /// Spawns a plain process (worker compositions, managers, verb engines).
    pub fn spawn_process(
        &mut self,
        core: Option<usize>,
        class: StatClass,
        proc: Box<dyn Process<W>>,
    ) {
        self.eng.spawn(core, class, proc);
    }

    /// Runs warmup, resets the PCM-style cache counters, applies the
    /// system's extra warmup reset (μTPS also clears its registry and world
    /// counters; baselines reset nothing further), then runs the measured
    /// window. Returns the engine for result extraction.
    pub fn run(&mut self, warmup_reset: impl FnOnce(&mut Engine<W>)) -> &mut Engine<W> {
        self.eng.run_until(self.warmup);
        self.eng.machine().cache.metrics.reset();
        warmup_reset(&mut self.eng);
        self.eng.run_until(self.end);
        &mut self.eng
    }
}

impl<W: KvWorld + 'static> PipelineRuntime<W> {
    /// Spawns the closed-loop client fleet and, when configured, the
    /// throughput sampler — identical across every request/response system.
    pub fn spawn_clients(&mut self, cfg: &RunConfig) {
        if cfg.record_history || cfg.oracle {
            self.eng.world.driver_mut().enable_history();
        }
        for c in 0..cfg.clients {
            let wl = cfg.workload.build(cfg.keys, cfg.seed, c as u64);
            self.eng.spawn(
                None,
                StatClass::Other,
                Box::new(ClientProc::with_retry(
                    c as u32,
                    wl,
                    cfg.pipeline,
                    cfg.retry.clone(),
                )),
            );
        }
        if cfg.timeline_interval > 0 {
            self.eng.spawn(
                None,
                StatClass::Other,
                Box::new(SamplerProc::new(cfg.timeline_interval, W::driver_mut)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage that counts steps and hands off after a threshold.
    struct Counter {
        steps: u32,
        handoff_at: u32,
    }

    impl Stage<u32> for Counter {
        fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut u32) -> StepOutcome {
            self.steps += 1;
            *world += 1;
            if self.steps >= self.handoff_at {
                return StepOutcome::Handoff;
            }
            ctx.compute_ns(10);
            StepOutcome::Progress
        }

        fn name(&self) -> &'static str {
            "counter"
        }
    }

    #[test]
    fn stage_proc_drives_stage_and_ignores_outcome() {
        use utps_sim::MachineConfig;
        let mut eng = Engine::new(MachineConfig::tiny(), 1, 0u32);
        eng.spawn(
            Some(0),
            StatClass::Other,
            Box::new(StageProc::new(Counter {
                steps: 0,
                handoff_at: u32::MAX,
            })),
        );
        eng.run_until(SimTime::from_micros(1));
        assert!(eng.world > 10, "stage was stepped: {}", eng.world);
    }

    #[test]
    fn runtime_runs_warmup_then_reset_then_measure() {
        use utps_sim::time::MICROS;
        use utps_sim::MachineConfig;
        let cfg = RunConfig {
            machine: MachineConfig::tiny(),
            warmup: 10 * MICROS,
            duration: 10 * MICROS,
            ..RunConfig::default()
        };
        let mut rt = PipelineRuntime::new(&cfg, 1, 0u32);
        rt.spawn_stage(
            Some(0),
            StatClass::Other,
            Counter {
                steps: 0,
                handoff_at: u32::MAX,
            },
        );
        let mut at_reset = 0;
        rt.run(|eng| {
            at_reset = eng.world;
            eng.world = 0; // system-specific warmup reset
        });
        let eng = rt.into_engine();
        assert!(at_reset > 0, "warmup window never ran");
        assert!(eng.world > 0, "measured window never ran");
        assert!(
            eng.world < at_reset * 2,
            "reset closure must run between the windows"
        );
    }

    #[test]
    fn handoff_is_reported_not_enforced() {
        // A Handoff outcome from a bare StageProc is informational: the
        // stage keeps being scheduled (compositions interpret handoffs).
        use utps_sim::MachineConfig;
        let mut eng = Engine::new(MachineConfig::tiny(), 1, 0u32);
        eng.spawn(
            Some(0),
            StatClass::Other,
            Box::new(StageProc::new(Counter {
                steps: 0,
                handoff_at: 1,
            })),
        );
        eng.run_until(SimTime::from_nanos(500));
        assert!(eng.world > 1);
    }
}
