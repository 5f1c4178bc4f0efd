//! Metric values, the end-to-end catalogue with its bounds, and rendering.

use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Whether a metric is read off the host's clock and memory or reported by
/// the modelled hardware (and so repeats exactly for a seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Wall clock or memory of the simulator process.
    Host,
    /// Simulated: identical on every run of one seed.
    Sim,
}

/// Definition of an end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Host or simulated.
    pub source: Source,
}

/// The end-to-end metrics, the same on every workload. `BENCHMARK.json`
/// repeats this table; `tests/contract.rs` holds the two together.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        source: Source::Host,
    },
    EndToEnd {
        name: "sim_ops_per_wall_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.25,
        source: Source::Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
        source: Source::Host,
    },
    EndToEnd {
        name: "sim_mops",
        unit: "Mops/s",
        higher_is_better: true,
        bound: 0.15,
        source: Source::Sim,
    },
    EndToEnd {
        name: "sim_mean_ns",
        unit: "ns",
        higher_is_better: false,
        bound: 0.15,
        source: Source::Sim,
    },
];

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the cell bypasses has no ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// A JSON number with every digit `f64` holds.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v:?}")
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        )
        .expect("write to string");
    }
    s.push('}');
    s
}
