//! The cluster thread tuner: CR capacity must actually move between shard
//! machines under a skewed load, through the ordinary seqlock'd
//! reconfiguration protocol, without breaking the exactly-once ledger.

use utps_cluster::{run_cluster, ClusterConfig};
use utps_core::experiment::{RunConfig, SystemKind, WorkloadSpec};
use utps_core::retry::RetryConfig;
use utps_index::IndexKind;
use utps_sim::config::MachineConfig;
use utps_sim::time::MICROS;
use utps_workload::Mix;

fn tuner_cfg(seed: u64) -> ClusterConfig {
    let base = RunConfig {
        index: IndexKind::Hash,
        keys: 20_000,
        workers: 6,
        n_cr: 2,
        clients: 12,
        pipeline: 4,
        warmup: 500 * MICROS,
        // Long enough for several tuner windows after warmup.
        duration: 3_000 * MICROS,
        machine: MachineConfig::tiny(),
        hot_capacity: 1_000,
        sample_every: 2,
        seed,
        // Heavy zipf skew: the shard owning the hottest keys sees far more
        // than 1.5x the coldest shard's traffic, which is the move trigger.
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        retry: RetryConfig::chaos_default(),
        ..RunConfig::default()
    };
    ClusterConfig {
        cluster_tuner: true,
        // 4 slots over 3 shards concentrates the zipf head: shard 0's slot
        // pair carries ~2.7x shard 1's mass, well over the 1.5x trigger.
        slots: 4,
        ..ClusterConfig::new(base, 3)
    }
}

#[test]
fn skewed_load_moves_cr_threads_between_machines() {
    let cfg = tuner_cfg(42);
    let r = run_cluster(SystemKind::Utps, &cfg);
    assert!(r.completed > 0, "nothing completed");
    // At least one shard adopted a new CR split: the reconfigs aggregate
    // sums every machine's completed switch-overs.
    assert!(
        r.reconfigs >= 1,
        "cluster tuner never moved a thread (reconfigs = {})",
        r.reconfigs
    );
    // Exactly-once survives reconfiguration mid-flight.
    let window = (cfg.base.clients * cfg.base.pipeline) as u64;
    let in_flight = r.in_flight().expect("more ops resolved than issued");
    assert!(in_flight <= window, "requests vanished");
}

#[test]
fn cluster_tuner_runs_are_deterministic() {
    use utps_core::experiment::stats_json;
    let a = run_cluster(SystemKind::Utps, &tuner_cfg(7));
    let b = run_cluster(SystemKind::Utps, &tuner_cfg(7));
    assert_eq!(stats_json(&a), stats_json(&b));
}
