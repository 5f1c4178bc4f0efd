//! The paper's figures, one function each, and the table `utps-fig` picks
//! them from by name.

use utps_baselines::BaseKv;
use utps_core::crmr::QueueKind;
use utps_core::experiment::{run_utps, stats_json, RunConfig, SystemKind, WorkloadSpec};
use utps_index::IndexKind;
use utps_sim::time::MILLIS;
use utps_workload::{Mix, TwitterCluster};

use crate::{
    base_config, dynamic, mops, print_table, ratio, run_system, run_utps_tuned, tune, ycsb, Cli,
    Scale, StatsSink,
};

/// Prints one figure (stats sidecar entries go to the sink).
type Run = fn(&Cli, &mut StatsSink);

/// Every figure in the paper's order: name, the parts `--part` may pick
/// (none: `--part` is an error), and the function that prints it.
const FIGURES: [(&str, &[&str], Run); 11] = [
    ("fig2", &["a", "b", "c"], fig2),
    ("fig7", &[], fig7),
    ("fig8", &["a", "etc"], fig8),
    ("fig9", &[], fig9),
    ("fig10", &[], fig10),
    ("fig11", &[], fig11),
    ("fig12", &[], fig12),
    ("fig13", &["cores", "llc", "cache"], fig13),
    ("fig14", &[], fig14),
    ("ablate", &[], ablate),
    ("stats", &[], stats),
];

/// The systems of a comparison row.
const ACTIVE: [SystemKind; 3] = [SystemKind::Utps, SystemKind::BaseKv, SystemKind::ErpcKv];

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
    format!(
        "usage: utps-fig <{}> [--quick|--full] [--csv] [--stats] [--part <p>]",
        names.join("|")
    )
}

/// Looks up figure `name` and checks `cli.part` against its parts, so both
/// errors surface before any simulation runs. Returns the figure's name
/// (its stats sidecar is `bench_results/<name>_stats.json`) and its
/// function; the error for an unknown name is the usage line.
pub fn select(name: &str, cli: &Cli) -> Result<(&'static str, Run), String> {
    let &(name, parts, run) = FIGURES.iter().find(|f| f.0 == name).ok_or_else(usage)?;
    match cli.part.as_deref() {
        Some(p) if !parts.contains(&p) => {
            Err(format!("{name} has no part {p:?} (parts: {parts:?})"))
        }
        _ => Ok((name, run)),
    }
}

/// Figure 2 — the motivation experiments (§2.2).
///
/// * `--part a`: NP-TPS vs NP-TPQ vs TPQ+CAT, get throughput vs item size
///   under a uniform workload (tree index), plus the per-stage LLC miss
///   rates the paper reports from PCM (stage-1 ≈ 2% vs ≈ 33% in TPQ);
/// * `--part b`: index-lookup throughput with and without hotspot
///   separation under a skewed workload;
/// * `--part c`: put throughput of share-everything (BaseKV),
///   share-nothing (eRPCKV) and TPS (μTPS) as worker count grows — the
///   SE/SN trade-off and its contention crossover.
///
/// Run all parts when `--part` is omitted.
fn fig2(cli: &Cli, _: &mut StatsSink) {
    if cli.wants("a") {
        let sizes: &[usize] = if cli.scale == Scale::Full {
            &[8, 64, 256, 1024]
        } else {
            &[8, 64, 256]
        };
        let mut rows = Vec::new();
        let mut miss_rows = Vec::new();
        for &size in sizes {
            let cfg = RunConfig {
                index: IndexKind::Tree,
                cache_enabled: false, // §2.2.1 separates stages only, no hot cache
                workload: ycsb(Mix::C, 0.0, size),
                ..base_config(cli.scale)
            };
            let tps = run_utps_tuned(&cfg);
            let tpq = run_system(SystemKind::BaseKv, &cfg);
            let tpq_cat = utps_core::run_system::<BaseKv<true>>(&cfg).0;
            rows.push((format!("{size}B"), vec![tps.mops, tpq.mops, tpq_cat.mops]));
            miss_rows.push((
                format!("{size}B"),
                vec![
                    tps.llc_miss_cr * 100.0,
                    tps.llc_miss_mr * 100.0,
                    tpq.llc_miss_all * 100.0,
                ],
            ));
        }
        print_table(
            "Figure 2a: GET throughput, uniform (Mops)",
            &["NP-TPS", "NP-TPQ", "TPQ+CAT"],
            &rows,
            cli.csv,
        );
        print_table(
            "Figure 2a aux: LLC miss rates (%) — paper: stage-1 ~2% vs TPQ ~33%",
            &["TPS-stage1", "TPS-stage2", "TPQ"],
            &miss_rows,
            cli.csv,
        );
    }
    if cli.wants("b") {
        // Hotspot separation: redirect the hottest keys to dedicated threads
        // (the CR layer) vs no separation, same total workers.
        let mut rows = Vec::new();
        for theta in [0.9, 0.99] {
            let cfg = RunConfig {
                index: IndexKind::Tree,
                workload: ycsb(Mix::C, theta, 8),
                ..base_config(cli.scale)
            };
            let with = run_utps_tuned(&RunConfig {
                cache_enabled: true,
                hot_capacity: 1_000,
                ..cfg.clone()
            });
            let without = run_utps_tuned(&RunConfig {
                cache_enabled: false,
                ..cfg
            });
            rows.push((
                format!("zipf {theta}"),
                vec![with.mops, without.mops, with.mops / without.mops],
            ));
        }
        print_table(
            "Figure 2b: hotspot separation (Mops) — paper: ~1.08x avg",
            &["separated", "baseline", "ratio"],
            &rows,
            cli.csv,
        );
    }
    if cli.wants("c") {
        let workers: &[usize] = if cli.scale == Scale::Full {
            &[4, 8, 12, 16, 20, 24]
        } else {
            &[4, 8, 12, 16]
        };
        let mut rows = Vec::new();
        for &w in workers {
            let cfg = RunConfig {
                index: IndexKind::Hash,
                workers: w,
                n_cr: (w / 3).max(1),
                workload: ycsb(Mix::PUT_ONLY, 0.99, 64),
                ..base_config(cli.scale)
            };
            let mut row = mops(&[SystemKind::BaseKv, SystemKind::ErpcKv], &cfg);
            row.push(run_utps(&cfg).mops);
            rows.push((format!("{w} workers"), row));
        }
        print_table(
            "Figure 2c: PUT throughput, skewed 64B (Mops) — SE degrades with threads",
            &["SE", "SN", "TPS"],
            &rows,
            cli.csv,
        );
    }
}

/// Figure 7 — overall performance matrix (§5.2.1).
///
/// {MassTree-style tree, cuckoo hash} × {YCSB-A, B, C, PUT-S, GET-U, PUT-U}
/// × item sizes × {μTPS, BaseKV, eRPCKV, passive (RaceHash/Sherman)}.
/// μTPS is tuned per cell (probe phase standing in for the auto-tuner).
fn fig7(cli: &Cli, sink: &mut StatsSink) {
    // The paper's six operation mixes: (label, mix, theta).
    const MIXES: [(&str, Mix, f64); 6] = [
        ("A", Mix::A, 0.99),
        ("B", Mix::B, 0.99),
        ("C", Mix::C, 0.99),
        ("PUT-S", Mix::PUT_ONLY, 0.99),
        ("GET-U", Mix::C, 0.0),
        ("PUT-U", Mix::PUT_ONLY, 0.0),
    ];
    let sizes: &[usize] = if cli.scale == Scale::Full {
        &[8, 64, 256, 1024]
    } else {
        &[64, 256]
    };
    for (index, index_name, passive) in [
        (IndexKind::Tree, "MassTree-style tree", SystemKind::Sherman),
        (IndexKind::Hash, "cuckoo hash", SystemKind::RaceHash),
    ] {
        let baselines = [SystemKind::BaseKv, SystemKind::ErpcKv, passive];
        let mut rows = Vec::new();
        for (label, mix, theta) in MIXES {
            for &size in sizes {
                let cfg = RunConfig {
                    index,
                    cache_enabled: theta > 0.0,
                    workload: ycsb(mix, theta, size),
                    ..base_config(cli.scale)
                };
                let utps = run_system(SystemKind::Utps, &cfg);
                sink.record(&format!("utps/{index_name}/{label}/{size}B"), &utps);
                let mut row = vec![utps.mops];
                row.extend(mops(&baselines, &cfg));
                row.push(ratio(row[0], row[1]));
                rows.push((format!("{label:>5} {size:>4}B"), row));
                eprintln!(
                    "[fig7] {index_name} {label} {size}B done: uTPS {:.1}M",
                    utps.mops
                );
            }
        }
        print_table(
            &format!("Figure 7 ({index_name}): throughput (Mops)"),
            &["uTPS", "BaseKV", "eRPCKV", passive.name(), "uTPS/Base"],
            &rows,
            cli.csv,
        );
    }
}

/// Figure 8 — scans and the Meta ETC pool (§5.2.1-§5.2.2).
///
/// * `--part a`: scan-only and YCSB-E throughput (8 B items, range ≈ 50);
/// * `--part etc`: ETC with get ratios 10% / 50% / 90%.
fn fig8(cli: &Cli, _: &mut StatsSink) {
    if cli.wants("a") {
        let mut rows = Vec::new();
        for (label, mix) in [("scan-only", Mix::SCAN_ONLY), ("YCSB-E", Mix::E)] {
            let cfg = RunConfig {
                index: IndexKind::Tree,
                workload: ycsb(mix, 0.99, 8),
                ..base_config(cli.scale)
            };
            let mut row = mops(&ACTIVE, &cfg);
            row.push(ratio(row[0], row[1]));
            rows.push((label.to_string(), row));
        }
        print_table(
            "Figure 8a: scan throughput (Mops) — paper: uTPS-T +25-33% over BaseKV",
            &["uTPS-T", "BaseKV", "eRPCKV", "uTPS/Base"],
            &rows,
            cli.csv,
        );
    }
    if cli.wants("etc") {
        let mut rows = Vec::new();
        for get_ratio in [0.1, 0.5, 0.9] {
            let cfg = RunConfig {
                index: IndexKind::Tree,
                workload: WorkloadSpec::Etc { get_ratio },
                ..base_config(cli.scale)
            };
            rows.push((format!("get={:.0}%", get_ratio * 100.0), versus(&cfg)));
        }
        print_table(
            "Figure 8b-c: ETC pool throughput (Mops)",
            &["uTPS-T", "BaseKV", "eRPCKV", "uTPS/Base", "uTPS/eRPC"],
            &rows,
            cli.csv,
        );
    }
}

/// The comparison row of Figures 8b–c and 9: μTPS, BaseKV and eRPCKV Mops,
/// then μTPS over each baseline.
fn versus(cfg: &RunConfig) -> Vec<f64> {
    let mut row = mops(&ACTIVE, cfg);
    row.extend([ratio(row[0], row[1]), ratio(row[0], row[2])]);
    row
}

/// Figure 9 + Table 1 — Twitter production-cache traces (§5.2.2).
///
/// Clusters 12/19/31 synthesized with Table 1's parameters (put ratio,
/// average value size, zipf α).
fn fig9(cli: &Cli, _: &mut StatsSink) {
    println!("Table 1 (trace parameters):");
    println!(
        "{:>12} {:>9} {:>12} {:>10}",
        "", "put", "avg value", "zipf a"
    );
    for c in TwitterCluster::all() {
        let (p, v, a) = c.params();
        println!(
            "{:>12} {:>8.0}% {:>11}B {:>10.2}",
            c.name(),
            p * 100.0,
            v,
            a
        );
    }

    let mut rows = Vec::new();
    for cluster in TwitterCluster::all() {
        let (_, _, alpha) = cluster.params();
        let cfg = RunConfig {
            index: IndexKind::Tree,
            cache_enabled: alpha > 0.0,
            workload: WorkloadSpec::Twitter { cluster },
            ..base_config(cli.scale)
        };
        rows.push((cluster.name().to_string(), versus(&cfg)));
    }
    print_table(
        "Figure 9: Twitter traces throughput (Mops)",
        &["uTPS-T", "BaseKV", "eRPCKV", "uTPS/Base", "uTPS/eRPC"],
        &rows,
        cli.csv,
    );
}

/// Figure 10 — throughput vs P50/P99 latency (§5.3).
///
/// YCSB-A, 8 B items; the client count sweeps the offered load. Reported as
/// (throughput, P50, P99) series per system and index, matching the paper's
/// four panels.
fn fig10(cli: &Cli, _: &mut StatsSink) {
    let client_counts: &[usize] = if cli.scale == Scale::Full {
        &[2, 4, 8, 16, 24, 32, 48, 64]
    } else {
        &[8, 16, 48]
    };
    for (index, index_name) in [(IndexKind::Tree, "tree"), (IndexKind::Hash, "hash")] {
        for system in [SystemKind::Utps, SystemKind::BaseKv] {
            let mut rows = Vec::new();
            for &clients in client_counts {
                let cfg = RunConfig {
                    index,
                    clients,
                    pipeline: 4,
                    workload: ycsb(Mix::A, 0.99, 8),
                    ..base_config(cli.scale)
                };
                let r = run_system(system, &cfg);
                rows.push((
                    format!("{clients} clients"),
                    vec![r.mops, r.p50_ns as f64 / 1000.0, r.p99_ns as f64 / 1000.0],
                ));
            }
            print_table(
                &format!("Figure 10 ({index_name}, {})", system.name()),
                &["Mops", "P50 (us)", "P99 (us)"],
                &rows,
                cli.csv,
            );
        }
    }
}

/// Figure 11 — scalability with worker threads (§5.4).
///
/// YCSB-A, 8 B and 256 B items, both indexes, worker count sweep. The
/// paper's observation: μTPS is similar or slightly worse at few workers
/// (integer thread allocation is too coarse) and pulls ahead as workers
/// grow; BaseKV's hash/256 B point declines from contention.
fn fig11(cli: &Cli, _: &mut StatsSink) {
    let worker_counts: &[usize] = if cli.scale == Scale::Full {
        &[2, 4, 8, 12, 16, 20, 24]
    } else {
        &[4, 8, 16]
    };
    for (index, index_name) in [(IndexKind::Tree, "tree"), (IndexKind::Hash, "hash")] {
        for value_len in [8usize, 256] {
            let mut rows = Vec::new();
            for &workers in worker_counts {
                let cfg = RunConfig {
                    index,
                    workers,
                    n_cr: (workers / 3).max(1),
                    workload: ycsb(Mix::A, 0.99, value_len),
                    ..base_config(cli.scale)
                };
                rows.push((format!("{workers} workers"), mops(&ACTIVE, &cfg)));
            }
            print_table(
                &format!("Figure 11 ({index_name}, {value_len}B): Mops vs workers"),
                &["uTPS", "BaseKV", "eRPCKV"],
                &rows,
                cli.csv,
            );
        }
    }
}

/// Figure 12 — effect of the CR-MR batch size (§5.5.1).
///
/// YCSB-A, 8 B items; batch size 1..20. The paper: batching improves
/// μTPS-T by 51.6% and μTPS-H by 93.7% (μTPS-H is more sensitive because
/// inter-layer communication is a larger share of its per-op cost).
fn fig12(cli: &Cli, _: &mut StatsSink) {
    let batches: &[usize] = if cli.scale == Scale::Full {
        &[1, 2, 4, 8, 12, 16, 20]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let mut rows = Vec::new();
    for &batch in batches {
        let mut cells = Vec::new();
        for index in [IndexKind::Tree, IndexKind::Hash] {
            let cfg = RunConfig {
                index,
                batch,
                workload: ycsb(Mix::A, 0.99, 8),
                ..base_config(cli.scale)
            };
            cells.push(run_utps(&cfg).mops);
        }
        rows.push((format!("batch={batch}"), cells));
    }
    let b1 = rows[0].1.clone();
    let last = rows.last().unwrap().1.clone();
    print_table(
        "Figure 12: μTPS throughput vs batch size (Mops)",
        &["uTPS-T", "uTPS-H"],
        &rows,
        cli.csv,
    );
    println!(
        "gain from batching: uTPS-T +{:.1}%  uTPS-H +{:.1}%  (paper: +51.6% / +93.7%)",
        (last[0] / b1[0] - 1.0) * 100.0,
        (last[1] / b1[1] - 1.0) * 100.0
    );
}

/// Figure 13 — what the auto-tuner chooses (§5.5.2).
///
/// * `--part cores`: fraction of workers assigned to the MR layer as the
///   keyspace / item size / skew vary (paper: more MR workers for larger
///   items and keyspaces; fewer under skew);
/// * `--part llc`: fraction of LLC ways the MR layer reuses (paper: almost
///   all except for uniform small-item workloads);
/// * `--part cache`: cached items as a fraction of the tracked hot set
///   (paper: no clear correlation with skew — the cache doubles as a
///   fine-grained load balancer).
///
/// Each point tunes over n_cr × mr_ways × cache size (the offline stand-in
/// for the tuner's hierarchical search) and reports the chosen
/// configuration.
fn fig13(cli: &Cli, _: &mut StatsSink) {
    let base = base_config(cli.scale);
    let ways_total = base.machine.cache.llc_ways;

    // The paper varies keyspace, item size and skew around YCSB-A on the
    // tree index.
    let scenarios: [(&str, u64, usize, f64); 5] = [
        ("100K keys 8B zipf", 100_000, 8, 0.99),
        ("800K keys 8B zipf", 800_000, 8, 0.99),
        ("800K keys 256B zipf", 800_000, 256, 0.99),
        ("800K keys 8B unif", 800_000, 8, 0.0),
        ("800K keys 256B unif", 800_000, 256, 0.0),
    ];

    let mut cores_rows = Vec::new();
    let mut llc_rows = Vec::new();
    let mut cache_rows = Vec::new();
    for (label, keys, value_len, theta) in scenarios {
        let cfg = RunConfig {
            index: IndexKind::Tree,
            keys,
            cache_enabled: theta > 0.0,
            workload: ycsb(Mix::A, theta, value_len),
            ..base.clone()
        };
        let cache_sizes: &[usize] = if cfg.cache_enabled {
            &[0, 2_500, 5_000, 10_000]
        } else {
            &[0]
        };
        let w = cfg.workers;
        let mut candidates = Vec::new();
        for &k in cache_sizes {
            for sixteenths in [4, 6, 8] {
                for mr_ways in [0, ways_total / 2] {
                    candidates.push(RunConfig {
                        n_cr: (w * sixteenths / 16).clamp(1, w - 1),
                        mr_ways,
                        hot_capacity: k.max(1),
                        cache_enabled: k > 0,
                        ..cfg.clone()
                    });
                }
            }
        }
        let (tuned, r) = tune(candidates);
        let (n_cr, ways) = (tuned.n_cr, tuned.mr_ways);
        let k = if tuned.cache_enabled {
            tuned.hot_capacity
        } else {
            0
        };
        cores_rows.push((
            label.to_string(),
            vec![(w - n_cr) as f64 / w as f64, r.mops],
        ));
        let ways_frac = if ways == 0 {
            1.0
        } else {
            ways as f64 / ways_total as f64
        };
        llc_rows.push((label.to_string(), vec![ways_frac, r.mops]));
        cache_rows.push((
            label.to_string(),
            vec![k as f64 / 10_000.0, r.cr_local_frac],
        ));
        eprintln!("[fig13] {label}: n_cr={n_cr} ways={ways} cache={k}");
    }
    if cli.wants("cores") {
        print_table(
            "Figure 13a: MR worker fraction chosen by tuning",
            &["MR frac", "Mops"],
            &cores_rows,
            cli.csv,
        );
    }
    if cli.wants("llc") {
        print_table(
            "Figure 13b: LLC way fraction reused by the MR layer",
            &["way frac", "Mops"],
            &llc_rows,
            cli.csv,
        );
    }
    if cli.wants("cache") {
        print_table(
            "Figure 13c: cached items / tracked hot set (10K)",
            &["cache frac", "CR-local frac"],
            &cache_rows,
            cli.csv,
        );
    }
}

/// Figure 14 — reacting to a dynamic workload (§5.5.2).
///
/// YCSB-A with the value size switching 512 B → 8 B mid-run; the online
/// auto-tuner detects the throughput shift, runs its hierarchical search
/// (trisection over the thread split per cache size, then LLC ways) and
/// applies a better configuration — without ever stopping the system.
///
/// Times are scaled: the paper switches at t = 4 s and tunes with 10 ms
/// windows; this run compresses the same sequence (switch at 1/3 of the
/// run, sub-millisecond windows) so it completes in seconds of host time.
fn fig14(cli: &Cli, sink: &mut StatsSink) {
    let (cfg, switch_ps) = dynamic(cli.scale);
    let r = run_utps(&cfg);
    sink.record("utps/fig14", &r);
    println!("== Figure 14: throughput over time (value size 512B -> 8B) ==");
    println!(
        "workload switches at t={:.1}ms",
        switch_ps as f64 / MILLIS as f64
    );
    println!("{:>10} {:>10}", "t (ms)", "Mops");
    for (t, mops) in &r.timeline {
        let bar_len = (mops / 2.0) as usize;
        println!(
            "{:>10.2} {:>10.2} {}",
            t * 1e3,
            mops,
            "#".repeat(bar_len.min(60))
        );
    }
    println!("\ntuner events:");
    for e in &r.tuner_events {
        println!("  {e}");
    }
    println!(
        "reconfigurations completed: {}; final n_cr={} of {}; cache={} items; MR ways={}",
        r.reconfigs, r.final_n_cr, r.workers, r.final_cache_items, r.final_mr_ways
    );
    if cli.csv {
        for (t, mops) in &r.timeline {
            println!("csv,{t:.6},{mops:.4}");
        }
    }
}

/// Ablation study over μTPS's design choices (DESIGN.md §8).
///
/// Dimensions:
///
/// * **hot cache** — off / on (the resizable cache of §3.2.2);
/// * **LLC way partitioning** — shared / CR-protected (the CAT allocation
///   of §3.5);
/// * **CR-MR transport** — the paper's all-to-all coherence-based lanes vs
///   the single shared MPMC queue §3.4 argues against;
/// * **batching** — descriptor batch of 1 vs the tuned batch.
///
/// Each row flips one dimension from the tuned baseline, so the delta is
/// that dimension's contribution.
fn ablate(cli: &Cli, _: &mut StatsSink) {
    let baseline_cfg = RunConfig {
        index: IndexKind::Tree,
        n_cr: 6,
        mr_ways: 6,
        workload: ycsb(Mix::A, 0.99, 64),
        ..base_config(cli.scale)
    };

    let flip = |f: fn(&mut RunConfig)| {
        let mut cfg = baseline_cfg.clone();
        f(&mut cfg);
        cfg
    };
    let variants = [
        ("uTPS (tuned baseline)", baseline_cfg.clone()),
        ("- hot cache", flip(|c| c.cache_enabled = false)),
        ("- way partitioning", flip(|c| c.mr_ways = 0)),
        ("- batching (batch=1)", flip(|c| c.batch = 1)),
        (
            "shared MPMC queue (s3.4 counterfactual)",
            flip(|c| c.queue_kind = QueueKind::SharedMpmc),
        ),
    ];
    let results: Vec<_> = variants.iter().map(|(_, cfg)| run_utps(cfg)).collect();
    let base_mops = results[0].mops;
    let mut rows = Vec::new();
    for ((label, _), r) in variants.iter().zip(&results) {
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

/// One observability-focused μTPS run, dumped as JSON.
///
/// Runs the Figure 14 configuration (online auto-tuner armed, value size
/// 512 B → 8 B mid-run) without its timeline, so the run exercises every
/// instrumented stage: CR hit/miss/forward counters and hit-path latency,
/// MR batch sizes / interleave depth / traversal latency, CR-MR lane
/// occupancy high-water marks, receive-ring poll efficiency, and at least
/// one complete tuner trisection trace.
///
/// The stats document goes to stdout and, with `--stats`, to
/// `bench_results/stats_stats.json`.
fn stats(cli: &Cli, sink: &mut StatsSink) {
    let (cfg, _) = dynamic(cli.scale);
    let r = run_utps(&RunConfig {
        timeline_interval: 0,
        ..cfg
    });
    println!("{}", stats_json(&r));
    eprintln!(
        "[utps-stats] {:.2} Mops, {} tuner probes, final n_cr={}",
        r.mops,
        r.tuner_probes.len(),
        r.final_n_cr
    );
    sink.record("utps/stats-run", &r);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(p: &str) -> Cli {
        Cli::parse(["--part".to_string(), p.to_string()]).unwrap()
    }

    #[test]
    fn select_checks_name_and_part_before_running() {
        // Each call returns at once: nothing ran. `fig13 --part bogus` used
        // to run all 125 tuning simulations and then print nothing.
        assert!(select("fig13", &part("bogus")).is_err());
        assert!(select("fig7", &part("a")).is_err());
        assert_eq!(select("fig2", &part("a")).unwrap().0, "fig2");
        for &(name, parts, _) in &FIGURES {
            for p in parts {
                assert_eq!(select(name, &part(p)).unwrap().0, name);
            }
        }
        let quick = Cli::parse([]).unwrap();
        let usage = select("fig99", &quick).unwrap_err();
        for (i, &(name, ..)) in FIGURES.iter().enumerate() {
            assert_eq!(select(name, &quick).unwrap().0, name);
            assert!(usage.contains(&format!("{name}|")) || usage.contains(&format!("{name}>")));
            assert!(FIGURES[..i].iter().all(|f| f.0 != name), "{name} twice");
        }
    }
}
