//! The five pinned cells. Every knob is a constant here; the only input a
//! run takes is the seed.

use utps_core::experiment::{RunConfig, SystemKind, WorkloadSpec};
use utps_core::tier::TierConfig;
use utps_index::IndexKind;
use utps_sim::config::MachineConfig;
use utps_sim::device::DeviceConfig;
use utps_sim::time::{MICROS, MILLIS};
use utps_workload::Mix;

/// One benchmark workload: a system under a fixed configuration.
pub struct Cell {
    /// Workload name (the `--workload` value and the results file stem).
    pub name: &'static str,
    /// Why the cell exists: which layers it loads and which it bypasses.
    pub why: &'static str,
    /// System driven.
    pub system: SystemKind,
    /// Measured window in simulated picoseconds.
    duration: u64,
    /// Cell-specific overrides on top of [`base`].
    shape: fn(RunConfig) -> RunConfig,
}

/// Shared by all cells: the fig7 `--quick` base, μTPS untuned so a cell is
/// one engine run. Closed loop, 48 clients × 16 outstanding.
fn base(seed: u64) -> RunConfig {
    RunConfig {
        keys: 800_000,
        workers: 16,
        n_cr: 6,
        batch: 8,
        clients: 48,
        pipeline: 16,
        warmup: 1_500 * MICROS,
        machine: MachineConfig::default(),
        hot_capacity: 10_000,
        sample_every: 2,
        seed,
        ..RunConfig::default()
    }
}

fn ycsb(mix: Mix, theta: f64, value_len: usize) -> WorkloadSpec {
    WorkloadSpec::Ycsb {
        mix,
        theta,
        value_len,
        scan_len: 50,
    }
}

fn tree_a_skew(cfg: RunConfig) -> RunConfig {
    RunConfig {
        index: IndexKind::Tree,
        workload: ycsb(Mix::A, 0.99, 64),
        ..cfg
    }
}

fn hash_get_uniform(cfg: RunConfig) -> RunConfig {
    RunConfig {
        index: IndexKind::Hash,
        // One more CR worker than the base: at 6 of 16 this cell balances on
        // the edge between a CR-bound and an MR-bound regime and falls to
        // either side by seed (61 or 55 Mops, ring poll hit rate 1.0 or 0.4).
        // At 7 it is MR-bound on every seed, which is what the cell is for.
        n_cr: cfg.n_cr + 1,
        cache_enabled: false,
        workload: ycsb(Mix::C, 0.0, 64),
        ..cfg
    }
}

fn tree_a_tier(cfg: RunConfig) -> RunConfig {
    // The DRAM limit sits at 95 % of the keyspace, so the compactor evicts
    // and reads fall through to the cold run; both scale with a shrunken
    // keyspace (the validation pass). A pass every third of the warm-up
    // gives six passes in the measured window.
    let keys = cfg.keys.min(200_000);
    RunConfig {
        index: IndexKind::Tree,
        keys,
        workload: ycsb(Mix::A, 0.99, 256),
        tier: Some(TierConfig {
            // No latency-tail draws: how many of them land in a 3 ms window
            // is a property of the seed, and moved `sim_mops` by 8.6 % of its
            // median across ten seeds (3.3 % without them).
            device: DeviceConfig {
                tail_prob: 0.0,
                ..DeviceConfig::default()
            },
            dram_items_max: (keys * 95 / 100) as usize,
            evict_batch: 256,
            compact_every_ps: cfg.warmup / 3,
            ..TierConfig::default()
        }),
        ..cfg
    }
}

/// The workloads, in reporting order.
pub const CELLS: [Cell; 5] = [
    Cell {
        name: "utps_tree_a_skew",
        why: "Headline cell: most requests finish in the CR hot cache, so core::hotcache, \
              workload::zipf and the resident path of sim::cache do most of the work.",
        system: SystemKind::Utps,
        duration: 4 * MILLIS,
        shape: tree_a_skew,
    },
    Cell {
        name: "basekv_tree_a_skew",
        why: "Same sim/index/workload layers run to completion with no CR-MR queue and no hot \
              cache: the bypass for every uTPS-only layer and the denominator of Fig 7's ratio.",
        system: SystemKind::BaseKv,
        duration: 6 * MILLIS,
        shape: tree_a_skew,
    },
    Cell {
        name: "utps_hash_get_uniform",
        why: "Every request crosses the CR-MR queue and misses to DRAM in the cuckoo lookup; \
              bypasses hot cache and zipf sampler, so sim::cache's miss path and core::crmr lead.",
        system: SystemKind::Utps,
        duration: 4 * MILLIS,
        shape: hash_get_uniform,
    },
    Cell {
        name: "utps_tree_a_tier",
        why: "Writes beside reads through the MR layer used differently: WAL group commit, \
              durability barrier on every ack, compactor, sim::device, 4x larger payloads.",
        system: SystemKind::Utps,
        duration: 3 * MILLIS,
        shape: tree_a_tier,
    },
    Cell {
        name: "sherman_tree_a_skew",
        why: "768 passive clients spinning on completions: thousands of engine steps per op, so \
              sim::engine/wheel/nic do nearly all the host work and server stage logic none.",
        system: SystemKind::Sherman,
        duration: 2 * MILLIS,
        shape: tree_a_skew,
    },
];

impl Cell {
    /// Looks a cell up by name.
    pub fn by_name(name: &str) -> Option<&'static Cell> {
        CELLS.iter().find(|c| c.name == name)
    }

    /// The full-size configuration measured by a run.
    pub fn config(&self, seed: u64) -> RunConfig {
        (self.shape)(RunConfig {
            duration: self.duration,
            ..base(seed)
        })
    }

    /// The same cell at unit-test scale (20 k keys, tiny machine): the
    /// oracle validation pass and the `sut` equivalence test run this.
    pub fn tiny_config(&self, seed: u64) -> RunConfig {
        (self.shape)(RunConfig {
            keys: 20_000,
            workers: 4,
            n_cr: 2,
            clients: 8,
            pipeline: 4,
            warmup: 500 * MICROS,
            duration: 1_500 * MICROS,
            machine: MachineConfig::tiny(),
            hot_capacity: 500,
            ..base(seed)
        })
    }

    /// Most requests that can be in flight when the window closes: the
    /// closed loop's ceiling on `issued − completed_total`.
    pub fn inflight_bound(cfg: &RunConfig) -> u64 {
        (cfg.clients * cfg.pipeline) as u64
    }
}
