//! Ablation study over μTPS's design choices (DESIGN.md §8).
//!
//! Dimensions:
//!
//! * **hot cache** — off / on (the resizable cache of §3.2.2);
//! * **LLC way partitioning** — shared / CR-protected (the CAT allocation
//!   of §3.5);
//! * **CR-MR transport** — the paper's all-to-all coherence-based lanes vs
//!   the single shared MPMC queue §3.4 argues against;
//! * **batching** — descriptor batch of 1 vs the tuned batch.
//!
//! Each row flips one dimension from the tuned baseline, so the delta is
//! that dimension's contribution.

use utps_bench::{base_config, print_table, Cli};
use utps_core::crmr::QueueKind;
use utps_core::experiment::{run_utps, RunConfig, WorkloadSpec};
use utps_index::IndexKind;
use utps_workload::Mix;

fn main() {
    let cli = Cli::parse();
    let baseline_cfg = RunConfig {
        index: IndexKind::Tree,
        n_cr: 6,
        mr_ways: 6,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 50,
        },
        ..base_config(cli.scale)
    };

    let variants: Vec<(&str, RunConfig)> = vec![
        ("uTPS (tuned baseline)", baseline_cfg.clone()),
        (
            "- hot cache",
            RunConfig {
                cache_enabled: false,
                ..baseline_cfg.clone()
            },
        ),
        (
            "- way partitioning",
            RunConfig {
                mr_ways: 0,
                ..baseline_cfg.clone()
            },
        ),
        (
            "- batching (batch=1)",
            RunConfig {
                batch: 1,
                ..baseline_cfg.clone()
            },
        ),
        (
            "shared MPMC queue (s3.4 counterfactual)",
            RunConfig {
                queue_kind: QueueKind::SharedMpmc,
                ..baseline_cfg.clone()
            },
        ),
    ];

    let base_mops = run_utps(&variants[0].1).mops;
    let mut rows = Vec::new();
    for (label, cfg) in &variants {
        let r = run_utps(cfg);
        rows.push((
            label.to_string(),
            vec![
                r.mops,
                (r.mops / base_mops - 1.0) * 100.0,
                r.p50_ns as f64 / 1000.0,
                r.cr_local_frac * 100.0,
            ],
        ));
    }
    print_table(
        "Ablation: μTPS design choices (YCSB-A, zipf, 64B, tree)",
        &["Mops", "delta %", "P50 us", "CR-local %"],
        &rows,
        cli.csv,
    );
}
