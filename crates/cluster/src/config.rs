//! Cluster run configuration.

use utps_core::experiment::{RunConfig, WorkloadSpec};

use crate::router::{SizeClass, Topology};

/// One scheduled live migration: at `at_ps` (absolute simulated time), hand
/// (`class`, `slot`) to `to_shard`.
#[derive(Clone, Debug)]
pub struct MigrationSpec {
    /// Absolute simulated time (ps) the controller starts the migration.
    pub at_ps: u64,
    /// Size class of the migrated slot.
    pub class: SizeClass,
    /// Hash slot to migrate.
    pub slot: usize,
    /// Destination shard (must serve `class`).
    pub to_shard: usize,
}

/// The inter-machine migration link: serialization uses the machine's NIC
/// model; faults are drawn from a private splitmix stream seeded from the
/// run seed, so the link never perturbs the client/server fault plans.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Probability a chunk is dropped (retransmitted after a timeout).
    pub drop_prob: f64,
    /// Probability a chunk is delivered twice (installs are idempotent).
    pub dup_prob: f64,
    /// Probability a chunk is delayed by `delay_ps`.
    pub delay_prob: f64,
    /// Extra delay for delayed chunks (ps).
    pub delay_ps: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_ps: 20 * utps_sim::time::MICROS,
        }
    }
}

impl LinkConfig {
    /// The fault plan used by the cluster chaos/acceptance tests: drops,
    /// duplicates and delays all active on the migration link.
    pub fn chaos_default() -> Self {
        LinkConfig {
            drop_prob: 0.05,
            dup_prob: 0.05,
            delay_prob: 0.10,
            ..LinkConfig::default()
        }
    }
}

/// Full configuration of one cluster run.
///
/// `base` carries the per-shard parameters (workers, batch, machine model,
/// faults, retry, oracle, …) exactly as a single-machine [`RunConfig`];
/// every shard machine is an instance of it. The cluster fields add the
/// topology, the size split, replication, and the migration schedule.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-shard run configuration.
    pub base: RunConfig,
    /// Small-class shard count (>= 1).
    pub shards: usize,
    /// Large-class shard count (0 disables size segregation).
    pub large_shards: usize,
    /// The top `large_keys` keys are large-class (0 disables).
    pub large_keys: u64,
    /// Put payload size for large-class keys.
    pub large_value_len: usize,
    /// Hash slots per class (migration granularity).
    pub slots: usize,
    /// Small-class hot keys replicated to every small shard.
    pub replicate_keys: Vec<u64>,
    /// Live migrations to run.
    pub migrations: Vec<MigrationSpec>,
    /// Inter-machine migration link model.
    pub link: LinkConfig,
    /// Move CR threads between shard machines under load imbalance
    /// (μTPS only; ignored by the BaseKV cluster).
    pub cluster_tuner: bool,
}

impl ClusterConfig {
    /// A cluster around `base` with `shards` small shards and defaults for
    /// everything else (no size split, no replication, no migrations).
    pub fn new(base: RunConfig, shards: usize) -> Self {
        ClusterConfig {
            base,
            shards,
            large_shards: 0,
            large_keys: 0,
            large_value_len: 1024,
            slots: 64,
            replicate_keys: Vec::new(),
            migrations: Vec::new(),
            link: LinkConfig::default(),
            cluster_tuner: false,
        }
    }

    /// Total shard machines.
    pub(crate) fn total_shards(&self) -> usize {
        self.shards + self.large_shards
    }

    /// Whether this is a degenerate one-machine cluster with every cluster
    /// feature off. Such runs attach no [`ClusterStats`] and pin no cluster
    /// metrics, so their `stats_json` is byte-identical to the
    /// single-machine runners — the N=1 transparency guarantee.
    ///
    /// [`ClusterStats`]: utps_core::experiment::ClusterStats
    pub fn is_trivial(&self) -> bool {
        self.total_shards() == 1
            && self.large_keys == 0
            && self.replicate_keys.is_empty()
            && self.migrations.is_empty()
            && !self.cluster_tuner
    }

    /// The router topology for this configuration.
    pub fn topology(&self) -> Topology {
        Topology {
            keys: self.base.keys,
            large_keys: self.large_keys,
            small_shards: (0..self.shards).collect(),
            large_shards: (self.shards..self.total_shards()).collect(),
            slots: self.slots,
        }
    }

    /// Validates cluster-mode restrictions. Cluster routing is point-op
    /// only (get/put): scans span shards and deletes would need tombstone
    /// handoff, neither of which this model implements.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported workload or an inconsistent topology.
    pub fn validate(&self) {
        assert!(self.shards >= 1, "need >= 1 small shard");
        assert!(self.slots >= 1, "need >= 1 slot");
        assert!(
            self.large_keys == 0 || self.large_shards > 0,
            "large keys configured but no large shards"
        );
        assert!(
            self.large_keys <= self.base.keys,
            "more large keys than keys"
        );
        if self.total_shards() > 1 || self.cluster_tuner {
            // One global controller; per-shard trisection tuners would read
            // empty per-shard driver state and fight the cluster tuner.
            assert!(
                matches!(self.base.tuner, utps_core::tuner::TunerMode::Off),
                "set base.tuner = Off in cluster runs (use cluster_tuner)"
            );
        }
        match &self.base.workload {
            WorkloadSpec::Ycsb { mix, .. } => assert!(
                mix.scan == 0.0 && mix.delete == 0.0,
                "cluster mode supports point-op YCSB mixes (A/B/C) only"
            ),
            other => panic!("cluster mode supports YCSB workloads only, got {other:?}"),
        }
        for m in &self.migrations {
            assert!(m.slot < self.slots, "migration slot out of range");
            let pool_ok = match m.class {
                SizeClass::Small => m.to_shard < self.shards,
                SizeClass::Large => m.to_shard >= self.shards && m.to_shard < self.total_shards(),
            };
            assert!(pool_ok, "migration destination outside the class pool");
        }
        // Large values must fit a receive-ring slot next to the header.
        assert!(
            self.large_value_len + 24 <= self.base.slot_size,
            "large_value_len {} does not fit slot_size {}",
            self.large_value_len,
            self.base.slot_size
        );
        // The migration and refresh controllers copy from the DRAM store
        // and would silently miss keys the tier evicted to its cold run.
        assert!(
            self.base.tier.is_none()
                || (self.migrations.is_empty() && self.replicate_keys.is_empty()),
            "migrations/replication with the durable tier on would miss \
             cold-run keys (not implemented: ROADMAP 5(c))"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "ROADMAP 5(c)")]
    fn tier_with_replication_is_rejected() {
        let base = RunConfig {
            tier: Some(Default::default()),
            ..RunConfig::default()
        };
        ClusterConfig {
            replicate_keys: vec![1],
            ..ClusterConfig::new(base, 2)
        }
        .validate();
    }
}
