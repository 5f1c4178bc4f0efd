//! Simulated synchronization primitives with modeled contention costs.
//!
//! The simulation is single-threaded, so these locks never block the host;
//! they model the *cost* of synchronization: every acquire attempt charges an
//! atomic read-modify-write against the cache model (so a lock word bouncing
//! between cores pays coherence traffic), failed attempts count as spins, and
//! the caller is expected to retry on its next step — which is exactly how a
//! pinned, non-preemptive worker behaves.

use crate::engine::Ctx;

/// An optimistic versioned lock (OLC-style), doubling as a seqlock.
///
/// The version word is even when unlocked; acquiring sets the low bit (odd =
/// locked), releasing increments again, so any write changes the version a
/// reader observed. Readers use [`OptLock::read_version`] /
/// [`OptLock::validate`]; writers use [`OptLock::try_lock`] /
/// [`OptLock::unlock`]. This matches both the B+-tree node locks and the
/// paper's per-item "lock and version bits" (§3.3).
#[derive(Debug, Default)]
pub struct OptLock {
    version: u64,
    /// Virtual address charged for this lock word (see [`crate::vaddr`]).
    addr: usize,
}

impl OptLock {
    /// Creates an unlocked lock at version 0, charging address 0.
    pub fn new() -> Self {
        OptLock::default()
    }

    /// Creates an unlocked lock charging `addr` for its lock word.
    pub fn at(addr: usize) -> Self {
        OptLock { version: 0, addr }
    }

    /// Sets the virtual address charged for this lock word.
    pub fn set_addr(&mut self, addr: usize) {
        self.addr = addr;
    }

    /// Starts an optimistic read: returns the version, or `None` if a writer
    /// holds the lock (caller should spin and retry).
    pub fn read_version(&self, ctx: &mut Ctx<'_>) -> Option<u64> {
        ctx.read(self.addr, 8);
        if self.version & 1 == 0 {
            Some(self.version)
        } else {
            ctx.spin();
            None
        }
    }

    /// Ends an optimistic read: `true` iff no writer intervened since `v`.
    pub fn validate(&self, ctx: &mut Ctx<'_>, v: u64) -> bool {
        ctx.read(self.addr, 8);
        self.version == v
    }

    /// Attempts to acquire the write lock; charges an atomic RMW either way.
    pub fn try_lock(&mut self, ctx: &mut Ctx<'_>) -> bool {
        self.try_lock_hold(ctx, 0)
    }

    /// Like [`OptLock::try_lock`], declaring that a successful acquire will
    /// keep the line busy for `hold_ps` (the critical-section length) — this
    /// feeds the cache model's CAS-storm serialization.
    pub fn try_lock_hold(&mut self, ctx: &mut Ctx<'_>, hold_ps: u64) -> bool {
        ctx.atomic_hold(self.addr, hold_ps);
        if self.version & 1 == 0 {
            self.version += 1;
            ctx.machine().cache.metrics.lock_acquires += 1;
            true
        } else {
            ctx.machine().cache.metrics.lock_spins += 1;
            ctx.spin();
            false
        }
    }

    /// Upgrades a validated read to a write lock: succeeds only if the
    /// version still equals `v` (no writer won the race).
    pub fn try_upgrade(&mut self, ctx: &mut Ctx<'_>, v: u64) -> bool {
        ctx.atomic(self.addr);
        if self.version == v {
            self.version += 1;
            ctx.machine().cache.metrics.lock_acquires += 1;
            true
        } else {
            ctx.machine().cache.metrics.lock_spins += 1;
            false
        }
    }

    /// Releases the write lock, publishing a new version.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub fn unlock(&mut self, ctx: &mut Ctx<'_>) {
        assert!(self.version & 1 == 1, "unlock of unlocked OptLock");
        self.version += 1;
        ctx.write(self.addr, 8);
    }

    /// Whether a writer currently holds the lock.
    pub fn is_locked(&self) -> bool {
        self.version & 1 == 1
    }

    /// Current raw version (for diagnostics).
    #[cfg(test)]
    pub(crate) fn raw_version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::StatClass;
    use crate::config::MachineConfig;
    use crate::engine::{Engine, Process, StepOutcome};
    use crate::time::SimTime;

    struct World {
        opt: OptLock,
        counter: u64,
        log: Vec<&'static str>,
    }

    /// Acquires, holds for some compute, releases; increments the counter
    /// inside the critical section.
    struct Locker {
        hold_ns: u64,
        rounds: usize,
        holding: bool,
    }

    impl Process<World> for Locker {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
            if self.rounds == 0 {
                ctx.halt();
                return StepOutcome::Idle;
            }
            if self.holding {
                w.counter += 1;
                ctx.compute_ns(self.hold_ns);
                w.opt.unlock(ctx);
                self.holding = false;
                self.rounds -= 1;
            } else if w.opt.try_lock(ctx) {
                self.holding = true;
                w.log.push("acquired");
            } else {
                w.log.push("spun");
            }
            StepOutcome::Progress
        }
    }

    #[test]
    fn contended_lock_serializes_and_spins() {
        let world = World {
            opt: OptLock::new(),
            counter: 0,
            log: Vec::new(),
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 2, world);
        for core in 0..2 {
            eng.spawn(
                Some(core),
                StatClass::Other,
                Box::new(Locker {
                    hold_ns: 200,
                    rounds: 20,
                    holding: false,
                }),
            );
        }
        eng.run_until(SimTime::from_micros(200));
        assert_eq!(eng.world.counter, 40);
        assert!(
            eng.machine().cache.metrics.lock_spins > 0,
            "no contention seen"
        );
        assert_eq!(eng.machine().cache.metrics.lock_acquires, 40);
    }

    struct OptWriter;

    impl Process<World> for OptWriter {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
            if w.opt.try_lock(ctx) {
                ctx.compute_ns(50);
                w.counter += 1;
                w.opt.unlock(ctx);
            }
            if w.counter >= 10 {
                ctx.halt();
            }
            StepOutcome::Progress
        }
    }

    #[test]
    fn optlock_version_advances_by_two_per_write() {
        let world = World {
            opt: OptLock::new(),
            counter: 0,
            log: Vec::new(),
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 1, world);
        eng.spawn(Some(0), StatClass::Other, Box::new(OptWriter));
        eng.run_until(SimTime::from_micros(100));
        assert_eq!(eng.world.counter, 10);
        assert_eq!(eng.world.opt.raw_version(), 20);
        assert!(!eng.world.opt.is_locked());
    }

    struct ReadValidate;

    impl Process<World> for ReadValidate {
        fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
            if let Some(v) = w.opt.read_version(ctx) {
                let ok = w.opt.validate(ctx, v);
                w.log.push(if ok { "valid" } else { "stale" });
                if w.log.len() >= 5 {
                    ctx.halt();
                }
            }
            StepOutcome::Progress
        }
    }

    #[test]
    fn optimistic_read_validates_when_quiescent() {
        let world = World {
            opt: OptLock::new(),
            counter: 0,
            log: Vec::new(),
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 1, world);
        eng.spawn(Some(0), StatClass::Other, Box::new(ReadValidate));
        eng.run_until(SimTime::from_micros(10));
        assert_eq!(eng.world.log, vec!["valid"; 5]);
    }

    #[test]
    fn upgrade_fails_after_concurrent_write() {
        let world = World {
            opt: OptLock::new(),
            counter: 0,
            log: Vec::new(),
        };
        let mut eng = Engine::new(MachineConfig::tiny(), 1, world);
        struct Upgrader;
        impl Process<World> for Upgrader {
            fn step(&mut self, ctx: &mut Ctx<'_>, w: &mut World) -> StepOutcome {
                let v = w.opt.read_version(ctx).unwrap();
                // Simulate an interleaved writer bumping the version.
                assert!(w.opt.try_lock(ctx));
                w.opt.unlock(ctx);
                assert!(!w.opt.try_upgrade(ctx, v), "stale upgrade must fail");
                // And a clean upgrade succeeds.
                let v2 = w.opt.read_version(ctx).unwrap();
                assert!(w.opt.try_upgrade(ctx, v2));
                w.opt.unlock(ctx);
                ctx.halt();
                StepOutcome::Progress
            }
        }
        eng.spawn(Some(0), StatClass::Other, Box::new(Upgrader));
        eng.run_until(SimTime::from_micros(10));
    }
}
