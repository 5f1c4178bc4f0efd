//! The system under test, assembled phase by phase.
//!
//! This is the only file that builds a system from `build_*_world`,
//! `PipelineRuntime`, `spawn_*` and the result extractors. It repeats what
//! `utps_baselines::run` does in one call, split so that set-up and the
//! measured window can be timed apart; `tests/equivalence.rs` holds the two
//! to byte-identical `stats_json`.

use std::time::Instant;

use utps_baselines::basekv::{build_base_world, spawn_base_procs};
use utps_baselines::passive::{PassiveClient, PassiveProtocol, PassiveWorld, VerbEngine};
use utps_baselines::run::result_from_driver;
use utps_collections::LatencyHistogram;
use utps_core::client::DriverState;
use utps_core::experiment::{
    build_utps_world, extract_result, reset_utps_counters, spawn_utps_procs, RunConfig, RunResult,
    SystemKind,
};
use utps_core::stage::PipelineRuntime;
use utps_core::store::KvStore;
use utps_sim::{Engine, Fabric, Metrics, SimTime, StatClass};

use crate::spans::Tracer;

/// What one rep of a cell produced.
pub struct Outcome {
    /// The program's own result, as the canonical runner would return it.
    pub result: RunResult,
    /// PCM-style cache counters of the measured window.
    pub cache: Metrics,
    /// Client-observed latencies of the measured window, all clients merged.
    pub latency: LatencyHistogram,
    /// Engine steps, burst-path steps and wheel cascades of the measured
    /// window (the program reports whole-run totals only).
    pub window: EngineCounts,
    /// Simulated server cores.
    pub cores: usize,
    /// Processes live in the engine when the window closed.
    pub procs: usize,
    /// Host seconds from the start of the rep to the warm-up boundary:
    /// build world + runtime/spawn + the simulated warm-up window.
    pub setup_s: f64,
    /// Host seconds of each of the [`SLICES`] equal steps of simulated time
    /// the measured window is run in. Slice `k` does the same work in every
    /// rep of a cell.
    pub slice_s: Vec<f64>,
}

impl Outcome {
    /// Host seconds of the measured window.
    pub fn measure_s(&self) -> f64 {
        self.slice_s.iter().sum()
    }
}

/// Steps of simulated time the measured window is run (and timed) in.
pub const SLICES: u64 = 32;

/// Scheduler tallies over an interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Process steps executed.
    pub steps: u64,
    /// Steps taken on the burst fast path.
    pub bursts: u64,
    /// Timer-wheel cascade operations.
    pub cascades: u64,
}

impl EngineCounts {
    fn of<W>(eng: &Engine<W>) -> Self {
        EngineCounts {
            steps: eng.steps(),
            bursts: eng.bursts(),
            cascades: eng.wheel_cascades(),
        }
    }
}

/// Runs `system` under `cfg` once, in a fresh world.
pub fn run_phased(system: SystemKind, cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    match system {
        SystemKind::Utps => drive(
            cfg,
            cfg.workers + 1,
            tr,
            || build_utps_world(cfg),
            |rt| {
                spawn_utps_procs(rt, cfg);
                rt.spawn_clients(cfg);
            },
            reset_utps_counters,
            |eng| (extract_result(cfg, eng), eng.world.driver.merged_hist()),
        ),
        SystemKind::BaseKv => {
            // `run_basekv` folds tier counters in a private block; no BaseKV
            // cell enables the tier, so the phased path does not repeat it.
            assert!(cfg.tier.is_none(), "BaseKV cells run without the tier");
            drive(
                cfg,
                cfg.workers,
                tr,
                || build_base_world(cfg),
                |rt| {
                    spawn_base_procs(rt, cfg, false);
                    rt.spawn_clients(cfg);
                },
                |_| {},
                |eng| baseline_result(cfg, eng, |w| &w.driver),
            )
        }
        SystemKind::Sherman => {
            let nclients = cfg.clients * cfg.pipeline;
            drive(
                cfg,
                1,
                tr,
                || PassiveWorld {
                    fabric: Fabric::new(cfg.machine.net.clone(), nclients),
                    store: KvStore::populate(
                        cfg.index,
                        cfg.keys,
                        cfg.workload.populate_value_len(),
                    ),
                    driver: DriverState::new(nclients, SimTime(cfg.warmup)),
                },
                |rt| {
                    rt.spawn_process(None, StatClass::Other, Box::new(VerbEngine));
                    for c in 0..nclients {
                        let wl = cfg.workload.build(cfg.keys, cfg.seed, c as u64);
                        let client = PassiveClient::new(c as u32, PassiveProtocol::Sherman, wl);
                        rt.spawn_process(None, StatClass::Other, Box::new(client));
                    }
                },
                |_| {},
                |eng| baseline_result(cfg, eng, |w| &w.driver),
            )
        }
        other => panic!("{} is not a benchmark cell", other.name()),
    }
}

/// A baseline's result and merged client latencies, both from its driver.
fn baseline_result<W>(
    cfg: &RunConfig,
    eng: &mut Engine<W>,
    driver: impl Fn(&W) -> &DriverState + Copy,
) -> (RunResult, LatencyHistogram) {
    let result = result_from_driver(cfg, eng, driver);
    (result, driver(&eng.world).merged_hist())
}

/// The phases every system shares. The warm-up reset closure of
/// `PipelineRuntime::run` is the boundary between set-up and measurement.
///
/// The runtime is given a zero-length window, so its `run` stops at the
/// boundary; the benchmark then steps the engine through the real window
/// slice by slice. The engine's schedule state is self-contained between
/// `run_until` calls, so the steps and their order are those of one call.
fn drive<W: 'static>(
    cfg: &RunConfig,
    cores: usize,
    tr: &mut Tracer,
    build: impl FnOnce() -> W,
    spawn: impl FnOnce(&mut PipelineRuntime<W>),
    reset: impl FnOnce(&mut Engine<W>),
    extract: impl FnOnce(&mut Engine<W>) -> (RunResult, LatencyHistogram),
) -> Outcome {
    let start = Instant::now();
    tr.enter("core.build_world");
    let world = build();
    tr.exit();

    tr.enter("core.spawn");
    let to_boundary = RunConfig {
        duration: 0,
        ..cfg.clone()
    };
    let mut rt = PipelineRuntime::new(&to_boundary, cores, world);
    spawn(&mut rt);
    tr.exit();

    let mut boundary = start;
    let mut at_boundary = EngineCounts::default();
    tr.enter("sim.engine.warmup");
    rt.run(|eng| {
        reset(eng);
        at_boundary = EngineCounts::of(eng);
        tr.exit();
        boundary = Instant::now();
        tr.enter("sim.engine.measure");
    });
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    let mut lap = boundary;
    for k in 1..=SLICES {
        rt.engine()
            .run_until(SimTime(cfg.warmup + cfg.duration * k / SLICES));
        let now = Instant::now();
        slice_s.push((now - lap).as_secs_f64());
        lap = now;
    }
    tr.exit();

    tr.enter("core.extract");
    let mut eng = rt.into_engine();
    let (result, latency) = extract(&mut eng);
    let cache = eng.machine_ref().cache.metrics.clone();
    let at_end = EngineCounts::of(&eng);
    let (cores, procs) = (eng.machine_ref().cache.cores(), eng.live_procs());
    tr.exit();

    tr.enter("core.drop_world");
    drop(eng);
    tr.exit();

    Outcome {
        result,
        cache,
        latency,
        window: EngineCounts {
            steps: at_end.steps - at_boundary.steps,
            bursts: at_end.bursts - at_boundary.bursts,
            cascades: at_end.cascades - at_boundary.cascades,
        },
        cores,
        procs,
        setup_s: (boundary - start).as_secs_f64(),
        slice_s,
    }
}
