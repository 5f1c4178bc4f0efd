//! Differential property: a consumer that parks on its fabric endpoint
//! observes exactly what a consumer that idle-polls it observes.
//!
//! The benchmark's `sim.digest` staying put across the park/wake change
//! rests on this, so it is pinned here the way `proptest_wheel.rs` pins the
//! scheduler swap: one producer doing [`Fabric::server_send`] at generated
//! times, sizes and targets against a handful of consumers, run once with
//! the consumers written the old way (`client_next_at` → `advance_to`, else
//! an idle poll every quantum) and once parking. The `(consumer, msg,
//! observed-at)` logs must be equal, in order, and the parking run must take
//! strictly fewer engine steps.

use proptest::collection::vec;
use proptest::prelude::*;
use utps_sim::time::{SimTime, MICROS, NANOS};
use utps_sim::{Ctx, Engine, Fabric, MachineConfig, Process, StatClass, StepOutcome};

/// One generated send: the producer's clock gap *after* it (ps), the payload
/// size, and the consumer it goes to.
type Send = (u64, usize, usize);

struct World {
    fabric: Fabric<u64>,
    log: Vec<(usize, u64, SimTime)>,
}

/// Sends one scripted message per step, then halts.
struct Producer {
    script: Vec<Send>,
    next: usize,
}

impl Process<World> for Producer {
    fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
        let Some(&(gap, size, target)) = self.script.get(self.next) else {
            ctx.halt();
            return StepOutcome::Idle;
        };
        w.fabric
            .server_send(ctx.now(), size, target, self.next as u64);
        self.next += 1;
        // A zero gap charges nothing: the engine's poll quantum applies.
        ctx.compute_ps(gap);
        StepOutcome::Progress
    }
}

/// Logs every delivery it can see, charging per message as `ClientProc`
/// does; with nothing to do it waits the old way or the new way.
struct Consumer {
    id: usize,
    park: bool,
}

impl Process<World> for Consumer {
    fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
        let now = ctx.now();
        let mut drained = 0;
        while let Some(msg) = w.fabric.client_poll(self.id, now) {
            w.log.push((self.id, msg, now));
            drained += 1;
        }
        if drained > 0 {
            ctx.compute_ns(15 * drained);
            return StepOutcome::Progress;
        }
        if let Some(at) = w.fabric.client_next_at(self.id) {
            ctx.advance_to(at);
        } else if self.park {
            w.fabric.client_park(self.id, ctx.park());
        }
        StepOutcome::Idle
    }
}

/// Runs `script` against `consumers` consumers, the producer spawned at pid
/// `producer_slot` so generated cases put it before, between and after the
/// consumers in the scheduler's tie-break order.
fn run(
    script: &[Send],
    consumers: usize,
    producer_slot: usize,
    park: bool,
) -> (Vec<(usize, u64, SimTime)>, u64) {
    let cfg = MachineConfig::tiny();
    // Long enough for the last send to drain through a fully backlogged
    // pipe, with idle time left over in which a polling consumer spins.
    let horizon = script.iter().map(|s| s.0).sum::<u64>()
        + script.len() as u64 * (cfg.cost.poll_quantum + 200 * NANOS)
        + 20 * MICROS;
    let world = World {
        fabric: Fabric::new(cfg.net.clone(), consumers),
        log: Vec::new(),
    };
    let mut eng = Engine::new(cfg, 1, world);
    let mut id = 0;
    for slot in 0..=consumers {
        if slot == producer_slot {
            let script = script.to_vec();
            eng.spawn(
                None,
                StatClass::Other,
                Box::new(Producer { script, next: 0 }),
            );
        } else {
            eng.spawn(None, StatClass::Other, Box::new(Consumer { id, park }));
            id += 1;
        }
    }
    eng.run_until(SimTime(horizon));
    (std::mem::take(&mut eng.world.log), eng.steps())
}

fn gap_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),              // back-to-back: one poll quantum apart
        1u64..16 * NANOS,        // inside one poll quantum
        16 * NANOS..2 * MICROS,  // around the one-way delay
        2 * MICROS..20 * MICROS, // long silences: every consumer drains dry
    ]
}

fn case_strategy() -> impl Strategy<Value = (usize, usize, Vec<Send>)> {
    (1usize..6).prop_flat_map(|consumers| {
        let send = (gap_strategy(), 16usize..4096, 0usize..consumers);
        (Just(consumers), 0usize..consumers + 1, vec(send, 1..60))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parking_consumer_observes_what_a_polling_one_does(
        (consumers, producer_slot, script) in case_strategy()
    ) {
        let (polled, polled_steps) = run(&script, consumers, producer_slot, false);
        let (parked, parked_steps) = run(&script, consumers, producer_slot, true);
        prop_assert_eq!(polled.len(), script.len());
        prop_assert_eq!(&parked, &polled);
        prop_assert!(
            parked_steps < polled_steps,
            "parking took {} steps, polling {}", parked_steps, polled_steps
        );
    }
}
