//! The auto-tuner against a synthetic unimodal throughput curve (§3.5).
//!
//! A driver process replaces the workers and clients: it instantly adopts
//! every requested thread reassignment and manufactures `completed_total`
//! growth as a unimodal function of the live `n_cr` (peak at 3). The tuner
//! sees exactly the feedback signal the paper assumes — throughput unimodal
//! in the thread split — and its decision log must show trisection
//! converging to the peak within the probe budget.

use utps_core::experiment::{build_utps_world, RunConfig};
use utps_core::server::UtpsWorld;
use utps_core::tuner::{trisect_probe_budget, ProbePhase, Tuner, TunerMode, TunerParams};
use utps_index::IndexKind;
use utps_sim::config::MachineConfig;
use utps_sim::time::{SimTime, MICROS};
use utps_sim::{Ctx, Engine, Process, StatClass, StepOutcome};

const WORKERS: usize = 6;
const PEAK_N_CR: usize = 3;

/// Synthetic operations completed per driver step at the given thread
/// split: unimodal with a strict peak at [`PEAK_N_CR`] (the small linear
/// tilt breaks the symmetric tie around the peak).
fn rate(n_cr: usize) -> u64 {
    let d = n_cr as i64 - PEAK_N_CR as i64;
    (1_000 - 40 * d * d + n_cr as i64) as u64
}

fn build_world() -> UtpsWorld {
    build_utps_world(&RunConfig {
        index: IndexKind::Hash,
        keys: 64,
        workers: WORKERS,
        n_cr: 1,
        clients: 1,
        warmup: 0,
        machine: MachineConfig::tiny(),
        cache_enabled: false,
        ring_slots: 64,
        slot_size: 256,
        ..RunConfig::default()
    })
}

/// Drives the tuner: adopts reconfigs instantly, synthesizes throughput,
/// steps the search.
struct SyntheticDriver {
    tuner: Tuner,
    kicked: bool,
}

impl Process<UtpsWorld> for SyntheticDriver {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut UtpsWorld) -> StepOutcome {
        let now = ctx.now();
        // Reassignments complete instantly: every worker adopts at once.
        while world.reconfig.is_some() {
            let pending: Vec<usize> = {
                let r = world.reconfig.as_ref().unwrap();
                (0..WORKERS).filter(|&w| !r.adopted[w]).collect()
            };
            for w in pending {
                world.adopt_reconfig(w, now);
            }
        }
        // Synthetic load: completions accrue at the unimodal rate.
        world.driver.clients[0].completed_total += rate(world.cfg.n_cr);
        if !self.kicked {
            self.kicked = true;
            self.tuner.start_search(now, world);
        }
        self.tuner.step(ctx, world);
        if self.kicked && !self.tuner.searching() {
            ctx.halt();
            return StepOutcome::Idle;
        }
        ctx.advance_to(now + 25 * MICROS);
        StepOutcome::Progress
    }

    fn name(&self) -> &'static str {
        "synthetic-tuner-driver"
    }
}

#[test]
fn trisection_converges_on_unimodal_curve() {
    let mut eng = Engine::new(MachineConfig::tiny(), WORKERS + 1, build_world());
    let params = TunerParams {
        window: 100 * MICROS,
        settle: 50 * MICROS,
        trigger: 0.25,
        trigger_windows: 1,
        cache_step: 1_000,
        cache_max: 1_000,
    };
    eng.spawn(
        Some(0),
        StatClass::Other,
        Box::new(SyntheticDriver {
            tuner: Tuner::new(TunerMode::Auto, params),
            kicked: false,
        }),
    );
    eng.run_until(SimTime::from_millis(200));
    let world = &eng.world;

    // The search ran to completion and left the split at the peak.
    assert_eq!(
        world.cfg.n_cr, PEAK_N_CR,
        "tuner settled on n_cr={} instead of the peak {}",
        world.cfg.n_cr, PEAK_N_CR
    );
    assert!(world.reconfig.is_none(), "reassignment left dangling");

    // The decision log shows the whole trisection.
    let thread_probes: Vec<_> = world
        .tuner_probes
        .iter()
        .filter(|p| p.phase == ProbePhase::Threads)
        .collect();
    assert!(!thread_probes.is_empty(), "no thread-split probes logged");
    assert!(
        thread_probes.len() <= trisect_probe_budget(WORKERS - 1),
        "{} probes exceed the trisection budget {}",
        thread_probes.len(),
        trisect_probe_budget(WORKERS - 1)
    );

    // Probes measured the synthetic curve faithfully: the best objective in
    // the log belongs to the peak split, and it was marked accepted.
    let best = thread_probes
        .iter()
        .max_by(|a, b| a.objective.total_cmp(&b.objective))
        .unwrap();
    assert_eq!(best.n_cr, PEAK_N_CR, "best-measured probe is off-peak");
    assert!(best.accepted, "the peak probe was not accepted");

    // Rejected probes exist (the search explored both sides of the peak)
    // and every rejected probe measured a lower objective than the peak.
    assert!(
        thread_probes.iter().any(|p| !p.accepted),
        "search never rejected a candidate"
    );
    for p in &thread_probes {
        if p.n_cr != PEAK_N_CR {
            assert!(
                p.objective <= best.objective,
                "off-peak probe n_cr={} beat the peak",
                p.n_cr
            );
        }
    }

    // The ways phase ran after the thread phase converged.
    assert!(
        world
            .tuner_probes
            .iter()
            .any(|p| p.phase == ProbePhase::Ways),
        "LLC-way trisection never ran"
    );
}
