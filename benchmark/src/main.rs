//! Command line of the repo benchmark.
//!
//! ```text
//! utps-benchmark run --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! utps-benchmark all [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! utps-benchmark selfcheck [--seed <n>] [--seconds <s>]
//! ```
//!
//! `run` ends its standard output with one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
//! `--trace 1` the per-layer ones.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use utps_benchmark::cells::{Cell, CELLS};
use utps_benchmark::report::{json_num, metrics_json, Metric, Source, END_TO_END};
use utps_benchmark::runner::{run_cell, RunOpts, RunReport};
use utps_benchmark::spans;

/// Default `--seconds`; `BENCHMARK.json` passes the same.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    opts: RunOpts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        opts: RunOpts {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            trace: false,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                out.opts.seconds = s;
            }
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                out.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, json_num(m.value), m.unit);
    }
}

/// Prints a run's metrics and writes its result (and trace) files.
fn publish(report: &RunReport) -> std::io::Result<()> {
    print_metrics(report.workload, &report.end_to_end);
    print_metrics(report.workload, &report.per_layer);
    for b in &report.breaches {
        println!("{} BREACH {b}", report.workload);
    }
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let json = format!(
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"reps\": {},\n\"correct\": {},\n\
         \"attempted\": {},\n\"failed\": {},\n\"end_to_end\": {},\n\"per_layer\": {},\n\
         \"claim\": null\n}}\n",
        report.workload,
        report.seed,
        report.reps,
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(&report.end_to_end),
        metrics_json(&report.per_layer),
    );
    std::fs::write(dir.join(format!("{}.json", report.workload)), json)?;
    if !report.spans.is_empty() {
        std::fs::write(
            dir.join(format!("{}.trace.json", report.workload)),
            spans::to_json(&report.spans),
        )?;
    }
    Ok(())
}

/// The contract's last line of standard output.
fn result_line(report: &RunReport, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(metrics)
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let cell = Cell::by_name(name).ok_or_else(|| {
        let known: Vec<_> = CELLS.iter().map(|c| c.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let report = run_cell(cell, &cell.config(args.opts.seed), args.opts);
    publish(&report).map_err(|e| format!("writing results: {e}"))?;
    println!("{}", result_line(&report, args.opts.trace));
    Ok(report.correct())
}

/// What `all` and `selfcheck` keep of one cell's run.
struct CellRun {
    workload: &'static str,
    correct: bool,
    /// `(metric, value)` as the run printed them.
    values: Vec<(String, f64)>,
}

impl CellRun {
    fn value(&self, name: &str) -> f64 {
        let found = self.values.iter().find(|(n, _)| n == name);
        found
            .unwrap_or_else(|| panic!("{} printed no {name}", self.workload))
            .1
    }
}

/// Runs `run` for one cell in a process of its own, as the driver does, so
/// that `peak_rss_mb` is that cell's and not the set's so far. Echoes the
/// child's metric lines and reads the values back from them.
fn run_in_child(cell: &'static Cell, opts: RunOpts) -> Result<CellRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", cell.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", cell.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut values = Vec::new();
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        let mut words = line.split(' ').skip(1);
        if let (Some(name), Some(Ok(v))) = (words.next(), words.next().map(str::parse)) {
            values.push((name.to_string(), v));
        }
    }
    Ok(CellRun {
        workload: cell.name,
        correct: out.status.success(),
        values,
    })
}

fn run_set(opts: RunOpts) -> Result<Vec<CellRun>, String> {
    CELLS.iter().map(|cell| run_in_child(cell, opts)).collect()
}

fn all(args: &Args) -> Result<bool, String> {
    let set = run_set(args.opts)?;
    // The repo holds no per-cell paper numbers, so the ratio is reported
    // unvalidated, with no error figure.
    println!(
        "all paper.fig7.tree_a64.utps_over_basekv {} ratio (unvalidated)",
        json_num(set[0].value("sim_mops") / set[1].value("sim_mops"))
    );
    Ok(set.iter().all(|r| r.correct))
}

/// Two full sets back to back: host metrics must agree within their bound,
/// simulated ones exactly.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let opts = RunOpts {
        trace: false,
        ..args.opts
    };
    let (a, b) = (run_set(opts)?, run_set(opts)?);
    let mut ok = a.iter().chain(&b).all(|r| r.correct);
    println!("workload metric first second rel_diff bound verdict");
    for (ra, rb) in a.iter().zip(&b) {
        for def in &END_TO_END {
            let (x, y) = (ra.value(def.name), rb.value(def.name));
            let worse = if def.higher_is_better { x - y } else { y - x };
            let rel = worse / x;
            let pass = match def.source {
                Source::Host => rel.abs() <= def.bound,
                Source::Sim => x == y,
            };
            ok &= pass;
            println!(
                "{} {} {} {} {rel:+.4} {} {}",
                ra.workload,
                def.name,
                json_num(x),
                json_num(y),
                def.bound,
                if pass { "ok" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: utps-benchmark <run|all|selfcheck> [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]");
        return ExitCode::from(2);
    };
    let outcome = parse(rest).and_then(|args| match command.as_str() {
        "run" => run(&args),
        "all" => all(&args),
        "selfcheck" => selfcheck(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("utps-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
