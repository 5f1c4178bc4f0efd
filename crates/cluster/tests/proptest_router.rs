//! Property tests for the cluster router.
//!
//! 1. Slot→shard assignment is a pure function of the topology: two routers
//!    built from the same topology agree on every key, across runs.
//! 2. Key-hash sharding is balanced: with enough keys and slots, no small
//!    shard owns more than 1.5× the mean small-class keyspace.
//! 3. Size-class segregation is absolute: a large-class key never routes to
//!    a small-pool shard and vice versa — for reads, writes, replicated
//!    keys, and after arbitrary ownership churn within the class pool.

use proptest::collection::vec;
use proptest::prelude::*;
use utps_cluster::router::Topology;
use utps_cluster::{RouterState, SizeClass};
use utps_core::shardctl::ShardHooks;

#[derive(Clone, Debug)]
struct TopoSpec {
    keys: u64,
    large_keys: u64,
    small: usize,
    large: usize,
    slots: usize,
}

impl TopoSpec {
    fn topology(&self) -> Topology {
        Topology {
            keys: self.keys,
            large_keys: self.large_keys,
            small_shards: (0..self.small).collect(),
            large_shards: (self.small..self.small + self.large).collect(),
            slots: self.slots,
        }
    }
}

fn topo_strategy() -> impl Strategy<Value = TopoSpec> {
    (1usize..=6, 1usize..=3, 2_000u64..20_000, 0u64..1_000).prop_map(
        |(small, large, keys, large_keys)| TopoSpec {
            keys,
            large_keys: large_keys.min(keys / 4),
            small,
            large,
            // Keep slots a generous multiple of the pool so round-robin
            // slot assignment cannot itself skew the shard loads.
            slots: 16 * small.max(large),
        },
    )
}

proptest! {
    #[test]
    fn assignment_is_deterministic(spec in topo_strategy()) {
        let a = RouterState::new(spec.topology(), &[]);
        let b = RouterState::new(spec.topology(), &[]);
        for key in 0..spec.keys {
            prop_assert_eq!(a.owner_of(key), b.owner_of(key));
        }
    }

    #[test]
    fn small_class_load_is_balanced(spec in topo_strategy()) {
        let router = RouterState::new(spec.topology(), &[]);
        let mut per_shard = vec![0u64; spec.small + spec.large];
        let small_keys = spec.keys - spec.large_keys;
        for key in 0..small_keys {
            per_shard[router.owner_of(key)] += 1;
        }
        let mean = small_keys as f64 / spec.small as f64;
        for &s in &spec.topology().small_shards {
            prop_assert!(
                (per_shard[s] as f64) <= 1.5 * mean,
                "shard {} owns {} of {} small keys (mean {:.0})",
                s, per_shard[s], small_keys, mean
            );
        }
    }

    #[test]
    fn size_classes_never_cross_pools(
        spec in topo_strategy(),
        writes in vec(any::<bool>(), 64),
        probe in vec(0u64..20_000, 64),
    ) {
        // Force a non-empty large class (no prop_assume in the hermetic
        // proptest subset).
        let spec = TopoSpec { large_keys: spec.large_keys.clamp(1, spec.keys / 4), ..spec };
        let topo = spec.topology();
        // Replicate a handful of small-class keys to exercise the fan-out
        // path as well as the owner path.
        let replicated: Vec<u64> = (0..4u64)
            .map(|i| i * 37 % (spec.keys - spec.large_keys))
            .collect();
        let mut router = RouterState::new(topo.clone(), &replicated);
        for (i, &raw) in probe.iter().enumerate() {
            let key = raw % spec.keys;
            let class = topo.class_of(key);
            let dest = router.route(key, writes[i]);
            let pool = topo.shards_of(class);
            prop_assert!(
                pool.contains(&dest),
                "{:?} key {} routed to shard {} outside its pool {:?}",
                class, key, dest, pool
            );
        }
    }

    #[test]
    fn ownership_churn_stays_in_pool(
        spec in topo_strategy(),
        moves in vec((any::<bool>(), 0usize..1_000, 0usize..8), 32),
    ) {
        let topo = spec.topology();
        let mut router = RouterState::new(topo.clone(), &[]);
        // Arbitrary ownership churn, always within the class pool (as the
        // migration controller enforces via ClusterConfig::validate).
        for &(is_large, slot, to) in &moves {
            let class = if is_large { SizeClass::Large } else { SizeClass::Small };
            let pool = topo.shards_of(class);
            router.set_owner(class, slot % topo.slots, pool[to % pool.len()]);
        }
        for key in (0..spec.keys).step_by(97) {
            let class = topo.class_of(key);
            prop_assert!(
                topo.shards_of(class).contains(&router.owner_of(key)),
                "after churn, key {key} owned outside its class pool"
            );
        }
    }
}
