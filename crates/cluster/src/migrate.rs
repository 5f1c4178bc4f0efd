//! Live shard migration and replica refresh controllers.
//!
//! Both run as unpinned host processes (like the clients, they model
//! control-plane nodes whose CPUs are not simulated) and move data over a
//! dedicated inter-machine [`Pipe`], so migration traffic never competes
//! with the client fabric.
//!
//! **Migration protocol** (ownership handoff preserving exactly-once):
//!
//! 1. *Freeze* the (class, slot): admission bounces every request for it,
//!    clients re-route on the `moved` flag and retry until unfrozen.
//! 2. *Drain*: wait until the owner has zero admitted-but-unanswered ops on
//!    the slot (the `op_begin`/`op_end` in-flight counts).
//! 3. *Copy* the slot's items in chunks over the link. Chunks are subject
//!    to seeded drops (retransmitted after a timeout), duplicates (installs
//!    are idempotent value overwrites) and delays. The slot is frozen, so
//!    values cannot change under the copy.
//! 4. *Absorb* the source's duplicate-suppression table into the
//!    destination's (exact union): a retransmit of an op the old owner
//!    already executed is suppressed by the new owner, not re-executed.
//! 5. *Flip* ownership and unfreeze.
//!
//! **Replica refresh**: write-invalidated hot keys are re-installed on
//! every small shard from the owner's committed value, but only while the
//! owner has no in-flight ops on the key's slot — so the copied value is
//! committed and no newer write has been admitted, which is what makes
//! replica reads linearizable.

use utps_collections::hashutil::unit_f64;
use utps_sim::nic::Pipe;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Process, StepOutcome};
use utps_workload::rng::SmallRng;

use crate::config::{LinkConfig, MigrationSpec};
use crate::router::SizeClass;
use crate::world::{ClusterWorld, ShardWorld};

/// Poll period for drain/idle waits.
const POLL_PS: u64 = 500 * utps_sim::time::NANOS;
/// Items per transfer chunk.
const CHUNK_ITEMS: usize = 16;
/// Retransmit timeout after a dropped chunk.
const RETRY_PS: u64 = 30 * utps_sim::time::MICROS;

/// Mutable references to two distinct shards.
fn two<S>(shards: &mut [S], a: usize, b: usize) -> (&mut S, &mut S) {
    assert_ne!(a, b);
    if a < b {
        let (l, r) = shards.split_at_mut(b);
        (&mut l[a], &mut r[0])
    } else {
        let (l, r) = shards.split_at_mut(a);
        (&mut r[0], &mut l[b])
    }
}

/// Copies `key`'s current value from shard `src` to shard `dst`
/// (idempotent overwrite; every store holds every populated key).
fn install<S: ShardWorld>(shards: &mut [S], src: usize, dst: usize, key: u64) -> usize {
    let (s, d) = two(shards, src, dst);
    let (s, d) = (s.parts().store, d.parts().store);
    let val = s
        .get_native(key)
        .expect("migrated key missing at source")
        .to_vec();
    let id = d
        .index
        .get_native(key)
        .expect("migrated key missing at destination");
    d.items.set_value_native(id, &val);
    val.len() + 8 // key + value bytes on the wire
}

enum MigState {
    /// Waiting for the next spec's start time.
    Idle,
    /// Slot frozen; waiting for the owner's in-flight count to hit zero.
    Draining { from: usize, keys: Vec<u64> },
    /// Copying chunks; `pos` is the next un-copied key index.
    Copying {
        from: usize,
        keys: Vec<u64>,
        pos: usize,
    },
}

/// The migration controller: executes [`MigrationSpec`]s in start-time
/// order, one at a time.
pub(crate) struct MigrationProc {
    specs: Vec<MigrationSpec>,
    next: usize,
    link: LinkConfig,
    rng: SmallRng,
    pipe: Pipe,
    state: MigState,
}

impl MigrationProc {
    /// Creates the controller for `specs` (sorted by `at_ps` internally),
    /// drawing link faults from a stream seeded by `seed`.
    pub fn new(
        mut specs: Vec<MigrationSpec>,
        link: LinkConfig,
        net: utps_sim::config::NetConfig,
        seed: u64,
    ) -> Self {
        specs.sort_by_key(|m| m.at_ps);
        MigrationProc {
            specs,
            next: 0,
            link,
            // Salted so the link's fault stream is independent of the
            // client/server fault plans drawn from the same run seed.
            rng: SmallRng::seed_from_u64(seed ^ 0x6d69_6772_6174_6531),
            pipe: Pipe::new(net),
            state: MigState::Idle,
        }
    }
}

impl<S: ShardWorld> Process<ClusterWorld<S>> for MigrationProc {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ClusterWorld<S>) -> StepOutcome {
        let now = ctx.now();
        let state = std::mem::replace(&mut self.state, MigState::Idle);
        self.state = match state {
            MigState::Idle => {
                let Some(spec) = self.specs.get(self.next) else {
                    ctx.halt();
                    return StepOutcome::Idle;
                };
                let at = SimTime(spec.at_ps);
                if now < at {
                    ctx.advance_to(at);
                    return StepOutcome::Idle;
                }
                let mut router = world.router.borrow_mut();
                let from = router.slot_owner(spec.class, spec.slot);
                if from == spec.to_shard {
                    // Already owned by the destination: nothing to move.
                    drop(router);
                    self.next += 1;
                    ctx.advance_to(now + POLL_PS);
                    return StepOutcome::Progress;
                }
                router.freeze(spec.class, spec.slot);
                let keys = router.keys_in_slot(spec.class, spec.slot);
                drop(router);
                ctx.advance_to(now + POLL_PS);
                MigState::Draining { from, keys }
            }
            MigState::Draining { from, keys } => {
                let spec = &self.specs[self.next];
                let quiet = world.router.borrow().quiesced(from, spec.class, spec.slot);
                ctx.advance_to(now + POLL_PS);
                if quiet {
                    MigState::Copying { from, keys, pos: 0 }
                } else {
                    MigState::Draining { from, keys }
                }
            }
            MigState::Copying {
                from,
                keys,
                mut pos,
            } => {
                let spec = &self.specs[self.next];
                if pos < keys.len() {
                    // One chunk per step: draw faults, transmit, install.
                    if unit_f64(self.rng.next_u64()) < self.link.drop_prob {
                        // Chunk lost on the wire: retry after the timeout
                        // without advancing `pos`.
                        ctx.advance_to(now + RETRY_PS);
                        self.state = MigState::Copying { from, keys, pos };
                        return StepOutcome::Progress;
                    }
                    let dup = unit_f64(self.rng.next_u64()) < self.link.dup_prob;
                    let delayed = unit_f64(self.rng.next_u64()) < self.link.delay_prob;
                    let end = (pos + CHUNK_ITEMS).min(keys.len());
                    let mut bytes = 0;
                    for &k in &keys[pos..end] {
                        bytes += install(&mut world.shards, from, spec.to_shard, k);
                        if dup {
                            // Delivered twice: the second install overwrites
                            // with the same bytes.
                            install(&mut world.shards, from, spec.to_shard, k);
                        }
                    }
                    let copied = (end - pos) as u64;
                    pos = end;
                    let mut arrival = self.pipe.transmit(now, bytes);
                    if delayed {
                        arrival += self.link.delay_ps;
                    }
                    world.router.borrow_mut().tallies.migrated_items += copied;
                    ctx.advance_to(arrival);
                    MigState::Copying { from, keys, pos }
                } else {
                    // Copy complete: hand over suppression state, flip
                    // ownership, unfreeze.
                    let (src, dst) = two(&mut world.shards, from, spec.to_shard);
                    dst.parts().dedup.absorb(src.parts().dedup);
                    let mut router = world.router.borrow_mut();
                    router.set_owner(spec.class, spec.slot, spec.to_shard);
                    router.unfreeze(spec.class, spec.slot);
                    router.tallies.migrations += 1;
                    router.tallies.migrated_slots += 1;
                    drop(router);
                    self.next += 1;
                    ctx.advance_to(now + POLL_PS);
                    MigState::Idle
                }
            }
        };
        StepOutcome::Progress
    }

    fn name(&self) -> &'static str {
        "migrator"
    }
}

/// The replica refresh controller: periodically re-installs invalidated
/// hot keys on every small shard from the owner's committed value.
pub(crate) struct RefreshProc {
    interval: u64,
    pipe: Pipe,
}

impl RefreshProc {
    /// Refreshes every `interval` picoseconds over a link with `net`
    /// parameters.
    pub fn new(interval: u64, net: utps_sim::config::NetConfig) -> Self {
        RefreshProc {
            interval,
            pipe: Pipe::new(net),
        }
    }
}

impl<S: ShardWorld> Process<ClusterWorld<S>> for RefreshProc {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ClusterWorld<S>) -> StepOutcome {
        let now = ctx.now();
        let invalid = world.router.borrow().invalid_replicas();
        let mut last_arrival = now;
        for k in invalid {
            let router = world.router.borrow();
            let class = router.topo.class_of(k);
            let slot = router.topo.slot_of(k);
            let owner = router.slot_owner(class, slot);
            // Only refresh from a quiet owner: with zero admitted ops on the
            // slot, the owner's value is committed and no newer write can
            // have been claimed — the invariant replica reads rely on.
            let ready = !router.is_frozen(class, slot) && router.quiesced(owner, class, slot);
            let small = router.topo.small_shards.clone();
            drop(router);
            if !ready || class != SizeClass::Small {
                continue;
            }
            let mut bytes = 0;
            for &s in &small {
                if s != owner {
                    bytes += install(&mut world.shards, owner, s, k);
                }
            }
            if bytes > 0 {
                last_arrival = self.pipe.transmit(now, bytes);
            }
            world.router.borrow_mut().revalidate(k);
        }
        ctx.advance_to(last_arrival.max(now + self.interval));
        StepOutcome::Idle
    }

    fn name(&self) -> &'static str {
        "replica-refresh"
    }
}
