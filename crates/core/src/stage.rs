//! The stage engine: one pipeline runtime for μTPS and every baseline.
//!
//! The paper's core move is splitting request processing into *stages* with
//! explicit handoff points (hit path / miss path, §3.2.3) instead of
//! run-to-completion threads. A stage is a sim [`Process`]: a non-preemptive
//! FSM whose `step` runs one scheduling slot to its next yield point and
//! returns. All costs are charged through [`Ctx`](utps_sim::Ctx); the
//! [`utps_sim::StepOutcome`] it reports is read by nothing in the engine.
//! A worker that hands its core to another stage (μTPS's §3.5 thread
//! reassignment) swaps the stage it drives and keeps its scheduler key.
//!
//! [`PipelineRuntime`] owns the engine and the per-run plumbing every
//! runner shares: machine construction and fault/schedule-plan
//! installation, stage/client spawning, and the warmup → counter-reset →
//! measure protocol. [`crate::system::run_system`], the crash runner and
//! the cluster runner all assemble through it, driving each system
//! through its [`System`](crate::system::System) hooks.
//!
//! How the systems map onto it:
//!
//! | System | Stages |
//! |---|---|
//! | `Utps` | `CrStage` ⇄ `MrStage` per worker, composed by `UtpsWorker` |
//! | `BaseKv` | one run-to-completion process per worker |
//! | `ErpcKv` | NIC dispatch stage fused into each shard's process |
//! | `RaceHash`/`Sherman` | verb-engine process on no modeled core (no server stage at all) |

use utps_sim::time::SimTime;
use utps_sim::{Engine, FaultPlan, Machine, Process, SchedulePlan, StatClass};

use crate::client::{ClientProc, KvWorld, SamplerProc};
use crate::experiment::RunConfig;

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
    /// run's fault and schedule plans installed on machine 0.
    pub fn new(cfg: &RunConfig, cores: usize, world: W) -> Self {
        let mut rt = PipelineRuntime {
            eng: Engine::new(cfg.machine.clone(), cores, world),
            warmup: SimTime(cfg.warmup),
            end: SimTime(cfg.warmup + cfg.duration),
        };
        rt.install_plans(0, cfg, cfg.seed);
        rt
    }

    /// Adds a shard machine of `cores` server cores whose fault and
    /// schedule plans draw from `seed`.
    pub fn add_machine(&mut self, cfg: &RunConfig, cores: usize, seed: u64) {
        let m = self.eng.add_machine(cfg.machine.clone(), cores);
        self.install_plans(m, cfg, seed);
    }

    fn install_plans(&mut self, m: usize, cfg: &RunConfig, seed: u64) {
        let machine = self.eng.machine_mut(m);
        machine.faults = FaultPlan::new(cfg.faults.clone(), seed);
        machine.schedule = SchedulePlan::from_mode(cfg.schedule.clone(), seed);
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

    /// Spawns a process pinned to server core `core` (`None`: unpinned)
    /// under `class`.
    pub fn spawn_process(
        &mut self,
        core: Option<usize>,
        class: StatClass,
        proc: Box<dyn Process<W>>,
    ) {
        self.eng.spawn(core, class, proc);
    }

    /// Runs warmup, resets every counter (the PCM-style cache counters and
    /// the metrics registry, the same for every system), calls
    /// `warmup_reset` at the boundary, then runs the measured window.
    /// Returns the engine for result extraction.
    pub fn run(&mut self, warmup_reset: impl FnOnce(&mut Engine<W>)) -> &mut Engine<W> {
        self.eng.run_until(self.warmup);
        self.eng.reset_counters();
        warmup_reset(&mut self.eng);
        self.eng.run_until(self.end);
        &mut self.eng
    }
}

impl<W: KvWorld + 'static> PipelineRuntime<W> {
    /// Spawns the closed-loop client fleet and, when configured, the
    /// throughput sampler — identical across every request/response system.
    pub fn spawn_clients(&mut self, cfg: &RunConfig) {
        self.spawn_clients_with(cfg, |c| {
            let wl = cfg.workload.build(cfg.keys, cfg.seed, c as u64);
            ClientProc::with_retry(c as u32, wl, cfg.pipeline, cfg.retry.clone())
        });
    }

    /// Spawns `client(c)` for every client `c`, after enabling history
    /// recording if the run records or checks it, then the throughput
    /// sampler if the run has a timeline.
    pub fn spawn_clients_with(
        &mut self,
        cfg: &RunConfig,
        mut client: impl FnMut(usize) -> ClientProc,
    ) {
        if cfg.record_history || cfg.oracle {
            self.eng.world.driver_mut().enable_history();
        }
        for c in 0..cfg.clients {
            self.eng.spawn(None, StatClass::Other, Box::new(client(c)));
        }
        if cfg.timeline_interval > 0 {
            let sampler = SamplerProc::new(cfg.timeline_interval);
            self.eng.spawn(None, StatClass::Other, Box::new(sampler));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use utps_sim::{Ctx, StepOutcome};

    /// A process that counts its steps in the world.
    struct Counter;

    impl Process<u32> for Counter {
        fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut u32) -> StepOutcome {
            *world += 1;
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
        eng.spawn(Some(0), StatClass::Other, Box::new(Counter));
        eng.run_until(SimTime::from_micros(1));
        assert!(eng.world > 10, "process was stepped: {}", eng.world);
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
        rt.spawn_process(Some(0), StatClass::Other, Box::new(Counter));
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
}
