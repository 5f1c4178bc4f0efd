//! Unified dispatcher over every system in the evaluation.

use utps_core::client::DriverState;
use utps_core::experiment::{RunConfig, RunResult, SystemKind};
use utps_core::{run_system, Utps};
use utps_sim::Engine;

use crate::basekv::BaseKv;
use crate::erpckv::ErpcKv;
use crate::passive::{RaceHash, Sherman};

/// Runs `system` under `cfg`.
pub fn run(system: SystemKind, cfg: &RunConfig) -> RunResult {
    match system {
        SystemKind::Utps => run_system::<Utps>(cfg).0,
        SystemKind::BaseKv => run_system::<BaseKv>(cfg).0,
        SystemKind::ErpcKv => run_system::<ErpcKv>(cfg).0,
        SystemKind::RaceHash => run_system::<RaceHash>(cfg).0,
        SystemKind::Sherman => run_system::<Sherman>(cfg).0,
    }
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
