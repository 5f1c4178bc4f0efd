//! Benchmark harness: everything the figure driver `utps-fig` shares.
//!
//! `utps-fig <name>` regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index for the names). It accepts:
//!
//! * `--quick` — reduced keyspace/duration for CI-speed runs (default);
//! * `--full` — closer to paper scale (minutes of host time per figure);
//! * `--csv` — machine-readable output in addition to the text table;
//! * `--stats` — stage-metrics JSON sidecars into `bench_results/`;
//! * `--part <p>` — one part of a multi-part figure (all parts if omitted).
//!
//! An unknown flag, figure name or part is an error, reported before any
//! simulation runs.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "host-side figure driver: prints tables and writes sidecar files around simulations, never inside one"
)]
mod figures;

pub use figures::{select, stats_run};

use utps_baselines::run;
use utps_core::experiment::{run_utps, RunConfig, RunResult, SystemKind, WorkloadSpec};
use utps_core::tuner::{TunerMode, TunerParams};
use utps_index::IndexKind;
use utps_sim::time::{MICROS, MILLIS};
use utps_workload::Mix;

/// Scale preset parsed from the command line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// CI-speed runs.
    #[default]
    Quick,
    /// Near paper scale.
    Full,
}

/// Parsed flags (everything after the figure name); the default is
/// `--quick` alone.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// Scale preset.
    pub scale: Scale,
    /// Also print CSV lines (prefixed `csv,`).
    pub csv: bool,
    /// Write stage-metrics JSON sidecars into `bench_results/`.
    pub stats: bool,
    /// The one part of a multi-part figure to run (`--part`); all if `None`.
    pub part: Option<String>,
}

impl Cli {
    /// Parses flags; an argument it does not know is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.scale = Scale::Quick,
                "--full" => cli.scale = Scale::Full,
                "--csv" => cli.csv = true,
                "--stats" => cli.stats = true,
                "--part" => cli.part = Some(args.next().ok_or("--part needs a value")?),
                _ => return Err(format!("unknown argument {a:?}")),
            }
        }
        Ok(cli)
    }

    /// Whether part `p` runs: it was asked for, or no part was.
    fn wants(&self, p: &str) -> bool {
        self.part.as_deref().is_none_or(|part| part == p)
    }
}

/// Base experiment configuration for the given scale.
pub(crate) fn base_config(scale: Scale) -> RunConfig {
    let (keys, clients, warmup, duration) = match scale {
        Scale::Quick => (800_000, 48, 3 * MILLIS, 2 * MILLIS),
        Scale::Full => (4_000_000, 64, 4 * MILLIS, 6 * MILLIS),
    };
    RunConfig {
        keys,
        workers: 16,
        n_cr: 6,
        batch: 8,
        clients,
        pipeline: 16,
        warmup,
        duration,
        hot_capacity: 10_000,
        sample_every: 2,
        ..RunConfig::default()
    }
}

/// The YCSB workload of every figure: `mix` at zipf `theta` over
/// `value_len`-byte items, scans of 50 keys.
pub(crate) fn ycsb(mix: Mix, theta: f64, value_len: usize) -> WorkloadSpec {
    WorkloadSpec::Ycsb {
        mix,
        theta,
        value_len,
        scan_len: 50,
    }
}

/// The offline tuner: probes every μTPS candidate briefly (warm-up at most
/// 1.5 ms, an 800 µs window, no timeline) and measures the first best one
/// at full length — a deterministic stand-in for the online auto-tuner's
/// hierarchical search at a fraction of its cost. Returns the winner, so
/// callers can report what was chosen, and its measurement.
pub(crate) fn tune(candidates: Vec<RunConfig>) -> (RunConfig, RunResult) {
    let mut best: Option<(f64, RunConfig)> = None;
    for candidate in candidates {
        let probe = RunConfig {
            warmup: candidate.warmup.min(1_500 * MICROS),
            duration: 800 * MICROS,
            timeline_interval: 0,
            ..candidate.clone()
        };
        let mops = run_utps(&probe).mops;
        if best.as_ref().is_none_or(|(b, _)| mops > *b) {
            best = Some((mops, candidate));
        }
    }
    let (_, tuned) = best.expect("tune needs at least one candidate");
    let r = run_utps(&tuned);
    (tuned, r)
}

/// Runs μTPS the way the paper does: tuned over 5/16 or 8/16 of the
/// workers in the CR layer and, with the hot cache on, 6/16 with half the
/// LLC ways reserved for the MR layer.
pub(crate) fn run_utps_tuned(cfg: &RunConfig) -> RunResult {
    let w = cfg.workers;
    let split = |sixteenths: usize, mr_ways: usize| RunConfig {
        n_cr: (w * sixteenths / 16).clamp(1, w - 1),
        mr_ways,
        ..cfg.clone()
    };
    let mut candidates = vec![split(5, 0), split(8, 0)];
    if cfg.cache_enabled {
        candidates.push(split(6, cfg.machine.cache.llc_ways / 2));
    }
    candidates.dedup_by_key(|c| (c.n_cr, c.mr_ways));
    tune(candidates).1
}

/// Runs `system` under `cfg`, tuning μTPS as the paper does.
pub fn run_system(system: SystemKind, cfg: &RunConfig) -> RunResult {
    match system {
        SystemKind::Utps => run_utps_tuned(cfg),
        other => run(other, cfg),
    }
}

/// One comparison row: each system's Mops under `cfg`, in order.
pub(crate) fn mops(systems: &[SystemKind], cfg: &RunConfig) -> Vec<f64> {
    systems.iter().map(|&s| run_system(s, cfg).mops).collect()
}

/// The Figure 14 run: YCSB-A on the tree with the online auto-tuner armed
/// and the value size switching 512 B → 8 B at a third of the window, the
/// throughput timeline sampled once per tuner window. Returns the
/// configuration and the switch time (ps since simulation start).
pub(crate) fn dynamic(scale: Scale) -> (RunConfig, u64) {
    let (duration, switch, window) = match scale {
        Scale::Quick => (24 * MILLIS, 8 * MILLIS, 400 * MICROS),
        Scale::Full => (60 * MILLIS, 20 * MILLIS, 800 * MICROS),
    };
    let warmup = 2 * MILLIS;
    let switch_ps = warmup + switch;
    let cfg = RunConfig {
        index: IndexKind::Tree,
        keys: 500_000,
        warmup,
        duration,
        tuner: TunerMode::Auto,
        tuner_params: TunerParams {
            window,
            settle: window / 2,
            trigger: 0.25,
            trigger_windows: 2,
            cache_step: 5_000,
        },
        timeline_interval: window,
        workload: WorkloadSpec::Fig14 {
            switch_ns: switch_ps / 1_000,
        },
        ..base_config(scale)
    };
    (cfg, switch_ps)
}

/// Collects machine-readable stats sidecars for a figure.
///
/// Each recorded run is rendered with [`utps_core::experiment::stats_json`];
/// [`StatsSink::finish`] writes one JSON document mapping labels to run
/// stats into `bench_results/<name>_stats.json`. Disabled sinks (no
/// `--stats` flag) are free: both calls are no-ops.
pub struct StatsSink {
    name: &'static str,
    enabled: bool,
    entries: Vec<(String, String)>,
}

impl StatsSink {
    /// Creates a sink for figure `name`, active only when `enabled`.
    pub fn new(name: &'static str, enabled: bool) -> Self {
        StatsSink {
            name,
            enabled,
            entries: Vec::new(),
        }
    }

    /// Records one labeled run.
    pub fn record(&mut self, label: &str, r: &RunResult) {
        if self.enabled {
            self.entries
                .push((label.to_string(), utps_core::experiment::stats_json(r)));
        }
    }

    /// Writes the sidecar; returns the path written (None when disabled or
    /// empty).
    pub fn finish(&self) -> Option<std::path::PathBuf> {
        if !self.enabled || self.entries.is_empty() {
            return None;
        }
        let dir = std::path::Path::new("bench_results");
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        let mut s = String::from("{");
        for (i, (label, json)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{}",
                utps_sim::metrics::json_escape(label),
                json
            ));
        }
        s.push('}');
        let path = dir.join(format!("{}_stats.json", self.name));
        if std::fs::write(&path, s).is_err() {
            return None;
        }
        eprintln!("[{}] wrote {}", self.name, path.display());
        Some(path)
    }
}

/// Renders an aligned text table: header + rows of (label, values).
pub(crate) fn print_table(title: &str, columns: &[&str], rows: &[(String, Vec<f64>)], csv: bool) {
    println!("\n== {title} ==");
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(12))
        .max()
        .unwrap();
    print!("{:label_w$}", "");
    for c in columns {
        print!("  {c:>10}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:label_w$}");
        for v in values {
            print!("  {v:>10.2}");
        }
        println!();
    }
    if csv {
        print!("csv,label");
        for c in columns {
            print!(",{c}");
        }
        println!();
        for (label, values) in rows {
            print!("csv,{label}");
            for v in values {
                print!(",{v:.4}");
            }
            println!();
        }
    }
}

/// Times `f` and prints median ns/op: warms up, then takes 7 samples of an
/// iteration count sized so each sample runs ≥ ~2 ms of host time.
pub fn bench_loop<F: FnMut()>(name: &str, mut f: F) {
    use std::time::Instant;
    let mut iters: u64 = 16;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_micros() >= 2_000 || iters >= 1 << 28 {
            let mut samples: Vec<f64> = (0..7)
                .map(|_| {
                    let s = Instant::now();
                    for _ in 0..iters {
                        f();
                    }
                    s.elapsed().as_nanos() as f64 / iters as f64
                })
                .collect();
            samples.sort_by(|a, b| a.total_cmp(b));
            println!(
                "{name:<24} {:>10.1} ns/op  ({iters} iters/sample)",
                samples[3]
            );
            return;
        }
        iters *= 4;
    }
}

/// Convenience: throughput ratio `a / b` (NaN when `b` is zero).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parses_flags_and_rejects_typos() {
        let cli = Cli::parse(["--full", "--part", "b", "--csv"].map(String::from)).unwrap();
        assert_eq!(cli.part.as_deref(), Some("b"));
        assert_eq!((cli.scale, cli.csv, cli.stats), (Scale::Full, true, false));
        let none = Cli::parse(["--stats"].map(String::from)).unwrap();
        assert_eq!(none.part, None);
        assert_eq!(
            (none.scale, none.csv, none.stats),
            (Scale::Quick, false, true)
        );
        assert!(Cli::parse(["--ful"].map(String::from)).is_err());
        assert!(Cli::parse(["--part"].map(String::from)).is_err());
        assert!(Cli::parse(["fig7"].map(String::from)).is_err());
    }

    #[test]
    fn ratio_handles_zero() {
        assert!(ratio(1.0, 0.0).is_nan());
        assert!((ratio(3.0, 2.0) - 1.5).abs() < 1e-12);
    }
}
