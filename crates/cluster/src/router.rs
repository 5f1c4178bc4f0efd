//! Size/heat-aware request routing and cluster ownership state.
//!
//! One [`RouterState`] is shared (host-side, `Rc<RefCell<..>>`) between the
//! cluster clients, the per-shard admission hooks installed into every
//! server world (see [`utps_core::shardctl`]), and the migration/replica
//! controllers. It holds three things:
//!
//! * **Topology** — the size-class split (Minos-style: large-object traffic
//!   segregated onto its own shard class) and the per-class hash-slot →
//!   owning-shard tables.
//! * **Heat** — the replicated hot-key set: small-class keys whose reads fan
//!   out round-robin across every small shard, with write-invalidate at the
//!   owner's claim point and controller-driven refresh.
//! * **Liveness** — per-(shard, slot) in-flight counts from the
//!   `op_begin`/`op_end` hooks, which the migration controller uses to drain
//!   a frozen slot before copying it.
//!
//! Everything here is host-side bookkeeping: no simulated time is charged
//! and no RNG is drawn, so routing decisions never perturb the simulation —
//! a one-shard cluster is byte-identical to the single-machine runners.

use utps_collections::{mix64, FxHashMap, LatencyHistogram};
use utps_core::shardctl::{Admit, ShardHooks};
use utps_sim::Total;

/// Object size class a key belongs to (per-key, fixed for the run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// Small objects (the default class).
    Small = 0,
    /// Large objects, segregated onto the large shard class.
    Large = 1,
}

/// Number of size classes.
pub const NUM_CLASSES: usize = 2;

/// Static cluster topology: which shards serve which class, and how keys
/// map to hash slots.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Total pre-populated keys (`0..keys`).
    pub keys: u64,
    /// Keys `>= keys - large_keys` are [`SizeClass::Large`]; 0 disables the
    /// size split entirely.
    pub large_keys: u64,
    /// Shard ids serving the small class (never empty).
    pub small_shards: Vec<usize>,
    /// Shard ids serving the large class. Empty only when `large_keys == 0`.
    pub large_shards: Vec<usize>,
    /// Hash slots per class (the migration granularity).
    pub slots: usize,
}

impl Topology {
    /// The size class of `key`.
    #[inline]
    pub fn class_of(&self, key: u64) -> SizeClass {
        if self.large_keys > 0 && key >= self.keys - self.large_keys {
            SizeClass::Large
        } else {
            SizeClass::Small
        }
    }

    /// The hash slot of `key` within its class.
    #[inline]
    pub(crate) fn slot_of(&self, key: u64) -> usize {
        (mix64(key) % self.slots as u64) as usize
    }

    /// The shard pool serving `class`.
    pub fn shards_of(&self, class: SizeClass) -> &[usize] {
        match class {
            SizeClass::Small => &self.small_shards,
            SizeClass::Large => &self.large_shards,
        }
    }

    /// Total shard count.
    pub(crate) fn total_shards(&self) -> usize {
        self.small_shards.len() + self.large_shards.len()
    }
}

/// Measured-window tallies the extractor folds into [`ClusterStats`].
///
/// [`ClusterStats`]: utps_core::experiment::ClusterStats
#[derive(Clone, Debug, Default)]
pub struct RouterTallies {
    /// Requests refused at admission (frozen slot or non-owner).
    pub moved_bounces: u64,
    /// GETs admitted at a replica instead of the owner.
    pub replica_reads: u64,
    /// Replica refresh rounds completed by the controller.
    pub replica_refreshes: u64,
    /// Migrations completed.
    pub migrations: u64,
    /// Slots whose ownership flipped.
    pub migrated_slots: u64,
    /// Items copied between machines.
    pub migrated_items: u64,
    /// Small-class routing decisions (sends, retransmits and re-routes).
    pub routed_small: u64,
    /// Large-class routing decisions.
    pub routed_large: u64,
}

/// The shared router: topology, ownership, replication and in-flight state.
pub struct RouterState {
    /// Static topology.
    pub topo: Topology,
    /// `owner[class][slot]` → shard id.
    owner: [Vec<usize>; NUM_CLASSES],
    /// `frozen[class][slot]`: slot is mid-migration, nobody serves it.
    frozen: [Vec<bool>; NUM_CLASSES],
    /// `inflight[shard][class][slot]`: admitted ops not yet responded.
    inflight: Vec<[Vec<u32>; NUM_CLASSES]>,
    /// (shard, ring seq) → (class, slot) for open ops.
    open: FxHashMap<(usize, u64), (usize, usize)>,
    /// Replicated hot keys → replica validity (all small shards at once;
    /// refresh re-installs on every non-owner small shard in one step).
    replicas: FxHashMap<u64, bool>,
    /// Round-robin fan-out cursor per replicated key.
    rr: FxHashMap<u64, usize>,
    /// Ops admitted per shard (cluster-tuner load signal).
    pub served: Vec<Total>,
    /// Measured-window tallies.
    pub tallies: RouterTallies,
    /// Post-warmup latency per size class (ns), recorded by the clients.
    pub class_hist: [LatencyHistogram; NUM_CLASSES],
}

impl RouterState {
    /// Builds the router for `topo`, assigning slots to shards round-robin
    /// within each class and installing `replicate_keys` as (initially
    /// valid — population is identical everywhere) replicated hot keys.
    ///
    /// # Panics
    ///
    /// Panics if a replicated key is not small-class (large objects are
    /// never replicated) or the topology has no shards for a used class.
    pub fn new(topo: Topology, replicate_keys: &[u64]) -> Self {
        assert!(!topo.small_shards.is_empty(), "need >=1 small shard");
        assert!(
            topo.large_keys == 0 || !topo.large_shards.is_empty(),
            "large keys configured but no large shards"
        );
        assert!(topo.slots > 0, "need >=1 hash slot");
        let total = topo.total_shards();
        let owner = [
            (0..topo.slots)
                .map(|s| topo.small_shards[s % topo.small_shards.len()])
                .collect::<Vec<_>>(),
            (0..topo.slots)
                .map(|s| {
                    if topo.large_shards.is_empty() {
                        topo.small_shards[s % topo.small_shards.len()]
                    } else {
                        topo.large_shards[s % topo.large_shards.len()]
                    }
                })
                .collect::<Vec<_>>(),
        ];
        let mut replicas = FxHashMap::default();
        for &k in replicate_keys {
            assert_eq!(
                topo.class_of(k),
                SizeClass::Small,
                "replicated key {k} must be small-class"
            );
            replicas.insert(k, true);
        }
        RouterState {
            owner,
            frozen: [vec![false; topo.slots], vec![false; topo.slots]],
            inflight: (0..total)
                .map(|_| [vec![0; topo.slots], vec![0; topo.slots]])
                .collect(),
            open: FxHashMap::default(),
            replicas,
            rr: FxHashMap::default(),
            served: vec![Total::default(); total],
            tallies: RouterTallies::default(),
            class_hist: [LatencyHistogram::new(), LatencyHistogram::new()],
            topo,
        }
    }

    /// The shard currently owning `key`.
    pub fn owner_of(&self, key: u64) -> usize {
        let class = self.topo.class_of(key);
        self.owner[class as usize][self.topo.slot_of(key)]
    }

    /// The shard currently owning (`class`, `slot`).
    pub(crate) fn slot_owner(&self, class: SizeClass, slot: usize) -> usize {
        self.owner[class as usize][slot]
    }

    /// Replicated keys currently invalid (awaiting refresh), sorted for
    /// deterministic controller iteration.
    pub(crate) fn invalid_replicas(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .replicas
            .iter()
            .filter(|(_, &valid)| !valid)
            .map(|(&k, _)| k)
            .collect();
        v.sort_unstable();
        v
    }

    /// Marks a replicated key valid again (after a refresh install).
    pub(crate) fn revalidate(&mut self, key: u64) {
        if let Some(v) = self.replicas.get_mut(&key) {
            *v = true;
        }
        self.tallies.replica_refreshes += 1;
    }

    /// Freezes (`class`, `slot`): every request for it bounces until
    /// `RouterState::unfreeze`.
    pub fn freeze(&mut self, class: SizeClass, slot: usize) {
        self.frozen[class as usize][slot] = true;
    }

    /// Unfreezes (`class`, `slot`).
    pub(crate) fn unfreeze(&mut self, class: SizeClass, slot: usize) {
        self.frozen[class as usize][slot] = false;
    }

    /// Whether (`class`, `slot`) is currently frozen.
    pub(crate) fn is_frozen(&self, class: SizeClass, slot: usize) -> bool {
        self.frozen[class as usize][slot]
    }

    /// Flips ownership of (`class`, `slot`) to `shard`.
    pub fn set_owner(&mut self, class: SizeClass, slot: usize, shard: usize) {
        self.owner[class as usize][slot] = shard;
    }

    /// Whether `shard` has zero admitted-but-unanswered ops on
    /// (`class`, `slot`) — the migration drain condition.
    pub(crate) fn quiesced(&self, shard: usize, class: SizeClass, slot: usize) -> bool {
        self.inflight[shard][class as usize][slot] == 0
    }

    /// All populated keys hashing to (`class`, `slot`), ascending.
    pub(crate) fn keys_in_slot(&self, class: SizeClass, slot: usize) -> Vec<u64> {
        (0..self.topo.keys)
            .filter(|&k| self.topo.class_of(k) == class && self.topo.slot_of(k) == slot)
            .collect()
    }

    /// Zeroes the measured-window tallies (warmup boundary).
    pub fn reset_stats(&mut self) {
        self.tallies = RouterTallies::default();
        self.served.fill(Total::default());
        self.class_hist = [LatencyHistogram::new(), LatencyHistogram::new()];
    }
}

impl ShardHooks for RouterState {
    fn admit(&mut self, shard: usize, key: u64, is_write: bool) -> Admit {
        let class = self.topo.class_of(key);
        let slot = self.topo.slot_of(key);
        if self.frozen[class as usize][slot] {
            self.tallies.moved_bounces += 1;
            return Admit::Bounce;
        }
        let owner = self.owner[class as usize][slot];
        if shard == owner {
            // Write-invalidate at the claim point: this runs inside the
            // claiming worker's step, before the write executes, so no
            // replica can serve a value newer than its validity bit.
            if is_write {
                if let Some(v) = self.replicas.get_mut(&key) {
                    *v = false;
                }
            }
            return Admit::Serve;
        }
        if !is_write
            && class == SizeClass::Small
            && self.replicas.get(&key) == Some(&true)
            && self.topo.small_shards.contains(&shard)
        {
            self.tallies.replica_reads += 1;
            return Admit::Serve;
        }
        self.tallies.moved_bounces += 1;
        Admit::Bounce
    }

    fn op_begin(&mut self, shard: usize, key: u64, seq: u64) {
        let class = self.topo.class_of(key) as usize;
        let slot = self.topo.slot_of(key);
        self.open.insert((shard, seq), (class, slot));
        self.inflight[shard][class][slot] += 1;
        self.served[shard] += 1;
    }

    fn op_end(&mut self, shard: usize, seq: u64) {
        if let Some((class, slot)) = self.open.remove(&(shard, seq)) {
            // Saturating: a topology epoch change can zero the gauges while
            // ops opened under the old epoch are still in flight.
            self.inflight[shard][class][slot] = self.inflight[shard][class][slot].saturating_sub(1);
        }
    }

    /// Reads of a valid replicated key fan out round-robin across every
    /// small shard; everything else goes to the slot owner.
    fn route(&mut self, key: u64, is_write: bool) -> usize {
        let class = self.topo.class_of(key);
        match class {
            SizeClass::Small => self.tallies.routed_small += 1,
            SizeClass::Large => self.tallies.routed_large += 1,
        }
        let owner = self.owner[class as usize][self.topo.slot_of(key)];
        if !is_write
            && class == SizeClass::Small
            && self.replicas.get(&key) == Some(&true)
            && self.topo.small_shards.len() > 1
        {
            let cursor = self.rr.entry(key).or_insert(0);
            let pick = self.topo.small_shards[*cursor % self.topo.small_shards.len()];
            *cursor += 1;
            return pick;
        }
        owner
    }

    fn record_completion(&mut self, key: u64, ns: u64) {
        let class = self.topo.class_of(key) as usize;
        self.class_hist[class].record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo2() -> Topology {
        Topology {
            keys: 10_000,
            large_keys: 1_000,
            small_shards: vec![0, 1],
            large_shards: vec![2],
            slots: 16,
        }
    }

    #[test]
    fn classes_split_at_boundary() {
        let t = topo2();
        assert_eq!(t.class_of(0), SizeClass::Small);
        assert_eq!(t.class_of(8_999), SizeClass::Small);
        assert_eq!(t.class_of(9_000), SizeClass::Large);
        assert_eq!(t.class_of(9_999), SizeClass::Large);
    }

    #[test]
    fn owner_stays_in_class_pool() {
        let r = RouterState::new(topo2(), &[]);
        for k in (0..10_000).step_by(7) {
            let o = r.owner_of(k);
            match r.topo.class_of(k) {
                SizeClass::Small => assert!(o < 2, "key {k} → shard {o}"),
                SizeClass::Large => assert_eq!(o, 2, "key {k} → shard {o}"),
            }
        }
    }

    #[test]
    fn admit_bounces_non_owner_and_frozen() {
        let mut r = RouterState::new(topo2(), &[]);
        let key = 5u64;
        let owner = r.owner_of(key);
        let other = 1 - owner; // the other small shard
        assert_eq!(r.admit(owner, key, false), Admit::Serve);
        assert_eq!(r.admit(other, key, false), Admit::Bounce);
        let (class, slot) = (r.topo.class_of(key), r.topo.slot_of(key));
        r.freeze(class, slot);
        assert_eq!(r.admit(owner, key, false), Admit::Bounce);
        r.unfreeze(class, slot);
        assert_eq!(r.admit(owner, key, true), Admit::Serve);
        assert_eq!(r.tallies.moved_bounces, 2);
    }

    #[test]
    fn replica_reads_fan_out_and_writes_invalidate() {
        let key = 3u64;
        let mut r = RouterState::new(topo2(), &[key]);
        let owner = r.owner_of(key);
        let other = 1 - owner;
        // Valid replica: both small shards admit the read.
        assert_eq!(r.admit(other, key, false), Admit::Serve);
        assert_eq!(r.tallies.replica_reads, 1);
        // Round-robin routing touches both shards.
        let picks: Vec<usize> = (0..4).map(|_| r.route(key, false)).collect();
        assert!(picks.contains(&0) && picks.contains(&1), "{picks:?}");
        // A write at the owner invalidates; the replica now bounces.
        assert_eq!(r.admit(owner, key, true), Admit::Serve);
        assert_eq!(r.admit(other, key, false), Admit::Bounce);
        assert_eq!(r.invalid_replicas(), vec![key]);
        // Writes always route to the owner.
        assert_eq!(r.route(key, true), owner);
        r.revalidate(key);
        assert_eq!(r.admit(other, key, false), Admit::Serve);
    }

    #[test]
    fn inflight_tracks_begin_end() {
        let mut r = RouterState::new(topo2(), &[]);
        let key = 11u64;
        let (class, slot) = (r.topo.class_of(key), r.topo.slot_of(key));
        let owner = r.owner_of(key);
        assert!(r.quiesced(owner, class, slot));
        r.op_begin(owner, key, 77);
        assert!(!r.quiesced(owner, class, slot));
        r.op_end(owner, 77);
        assert!(r.quiesced(owner, class, slot));
        // Spurious end (never-begun seq) is ignored.
        r.op_end(owner, 78);
        assert!(r.quiesced(owner, class, slot));
    }

    #[test]
    fn keys_in_slot_partition_the_keyspace() {
        let r = RouterState::new(topo2(), &[]);
        let mut total = 0;
        for class in [SizeClass::Small, SizeClass::Large] {
            for slot in 0..r.topo.slots {
                for k in r.keys_in_slot(class, slot) {
                    assert_eq!(r.topo.class_of(k), class);
                    assert_eq!(r.topo.slot_of(k), slot);
                    total += 1;
                }
            }
        }
        assert_eq!(total, 10_000);
    }
}
