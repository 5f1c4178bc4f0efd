//! Unified dispatcher over every system in the evaluation.

use utps_core::client::DriverState;
use utps_core::experiment::{run_utps, RunConfig, RunResult, SystemKind};
use utps_core::stage::PipelineRuntime;
use utps_sim::Engine;

use crate::basekv::run_basekv;
use crate::erpckv::run_erpckv;
use crate::passive::{run_racehash, run_sherman};

/// Runs `system` under `cfg`.
pub fn run(system: SystemKind, cfg: &RunConfig) -> RunResult {
    match system {
        SystemKind::Utps => run_utps(cfg),
        SystemKind::BaseKv => run_basekv(cfg),
        SystemKind::ErpcKv => run_erpckv(cfg),
        SystemKind::RaceHash => run_racehash(cfg),
        SystemKind::Sherman => run_sherman(cfg),
    }
}

/// The one baseline runner: builds a [`PipelineRuntime`] over `world`, lets
/// the system spawn its stages and clients, runs the warmup → reset →
/// measure protocol (baselines reset only the cache counters, which the
/// runtime does itself), and assembles the [`RunResult`] from the driver.
pub fn run_pipeline<W: 'static>(
    cfg: &RunConfig,
    cores: usize,
    world: W,
    spawn: impl FnOnce(&mut PipelineRuntime<W>),
    driver: impl Fn(&W) -> &DriverState,
) -> RunResult {
    let mut rt = PipelineRuntime::new(cfg, cores, world);
    spawn(&mut rt);
    rt.run(|_| {});
    let mut eng = rt.into_engine();
    result_from_driver(cfg, &mut eng, driver)
}

/// Builds a [`RunResult`] for a baseline world from its driver state and
/// machine 0's metrics (baselines have no CR/MR split; per-class rates fall
/// into the combined number).
pub fn result_from_driver<W>(
    cfg: &RunConfig,
    eng: &mut Engine<W>,
    driver: impl Fn(&W) -> &DriverState,
) -> RunResult {
    RunResult::new(cfg, eng, |w| driver(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_index::IndexKind;
    use utps_sim::config::MachineConfig;
    use utps_sim::time::MICROS;

    #[test]
    fn dispatcher_reaches_every_system() {
        let mut cfg = RunConfig {
            keys: 10_000,
            workers: 3,
            n_cr: 1,
            clients: 4,
            pipeline: 2,
            warmup: 300 * MICROS,
            duration: 700 * MICROS,
            machine: MachineConfig::tiny(),
            ..RunConfig::default()
        };
        for system in [
            SystemKind::Utps,
            SystemKind::BaseKv,
            SystemKind::ErpcKv,
            SystemKind::Sherman,
        ] {
            let r = run(system, &cfg);
            assert!(r.completed > 50, "{}: {} ops", system.name(), r.completed);
        }
        cfg.index = IndexKind::Hash;
        let r = run(SystemKind::RaceHash, &cfg);
        assert!(r.completed > 50, "RaceHash: {} ops", r.completed);
    }
}
