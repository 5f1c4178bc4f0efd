//! Cluster-level thread tuning: move CR capacity toward loaded shards.
//!
//! The per-shard μTPS auto-tuner runs in `Off` mode under the cluster (one
//! global controller beats per-shard trisection probes that would fight
//! each other), and this process takes its place: every window it compares
//! the admitted-op counts of the small shards and shifts one CR thread from
//! the coldest machine to the hottest through the same
//! [`UtpsWorld::request_split`] the single-machine tuner calls — the
//! seqlock'd adoption machinery in the workers is reused unchanged.

use utps_core::server::UtpsWorld;
use utps_sim::time::SimTime;
use utps_sim::{Ctx, Process, StepOutcome};

use crate::world::ClusterWorld;

/// Load imbalance required before moving a thread: hottest shard must see
/// more than `IMBALANCE_NUM/IMBALANCE_DEN` times the coldest's ops.
const IMBALANCE_NUM: u64 = 3;
const IMBALANCE_DEN: u64 = 2;

/// The cluster thread tuner (μTPS shards only — BaseKV has no CR/MR split
/// to rebalance).
pub(crate) struct ClusterTunerProc {
    interval: u64,
    next: SimTime,
    last_served: Vec<u64>,
    /// CR moves issued (exported into `ClusterStats` via the runner).
    pub moves: u64,
}

impl ClusterTunerProc {
    /// Rebalances every `interval` picoseconds across `shards` machines.
    pub fn new(interval: u64, shards: usize) -> Self {
        ClusterTunerProc {
            interval,
            next: SimTime(interval),
            last_served: vec![0; shards],
            moves: 0,
        }
    }
}

impl Process<ClusterWorld<UtpsWorld>> for ClusterTunerProc {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut ClusterWorld<UtpsWorld>) -> StepOutcome {
        let now = ctx.now();
        if now < self.next {
            ctx.advance_to(self.next);
            return StepOutcome::Idle;
        }
        self.next = now + self.interval;
        let router = world.router.borrow();
        let small = router.topo.small_shards.clone();
        let served = router.served.clone();
        drop(router);
        // Per-window deltas for the small pool (large shards keep their
        // static allocation: their traffic is segregated by design).
        let mut hot = None;
        let mut cold = None;
        for &s in &small {
            // Saturating: `served` is zeroed at the warmup boundary while
            // `last_served` still holds the pre-warmup counts.
            let d = served[s].saturating_sub(self.last_served[s]);
            if hot.is_none_or(|(_, dh)| d > dh) {
                hot = Some((s, d));
            }
            if cold.is_none_or(|(_, dc)| d < dc) {
                cold = Some((s, d));
            }
        }
        self.last_served.copy_from_slice(&served);
        let (Some((hot, dh)), Some((cold, dc))) = (hot, cold) else {
            ctx.advance_to(self.next);
            return StepOutcome::Idle;
        };
        if hot != cold && dh * IMBALANCE_DEN > dc * IMBALANCE_NUM + IMBALANCE_DEN {
            let grow = world.shards[hot].cfg.n_cr + 1;
            let shrink = world.shards[cold].cfg.n_cr.saturating_sub(1);
            if world.shards[hot].request_split(grow) {
                self.moves += 1;
            }
            if world.shards[cold].request_split(shrink) {
                self.moves += 1;
            }
        }
        ctx.advance_to(self.next);
        StepOutcome::Progress
    }

    fn name(&self) -> &'static str {
        "cluster-tuner"
    }
}
