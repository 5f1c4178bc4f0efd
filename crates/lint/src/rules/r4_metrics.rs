//! R4 `metrics-schema`: every metric name handed to the `MetricsRegistry`
//! must come from the pinned schema list.
//!
//! The registry is stringly typed by design (`counter_inc("cr.hit")`), which
//! makes its namespace a silent-drift hazard: a typo mints a fresh counter,
//! a new name changes the `stats_json` schema that plotting/CI tooling
//! consumes, and the runtime golden (`tests/stats_schema.rs`) only notices
//! on configurations that actually touch the key. This rule closes the loop
//! statically: a literal passed to any registry method (`counter_add`,
//! `counter_inc`, `counter`, `gauge_set`, `gauge_max`, `gauge`,
//! `hist_record`, `hist`) must appear in
//! `crate::schema::METRIC_SCHEMA`. Adding a metric means adding it there
//! — one reviewed list — and regenerating the golden.
//!
//! Names that reach the registry through variables (the fold tables in
//! `experiment.rs`) are out of static reach; the runtime golden still covers
//! those.

use crate::rules::{report, t};
use crate::schema::is_pinned_metric;
use crate::{LintWorkspace, Violation};

const RULE: (&str, &str) = ("R4", "metrics-schema");

/// The `MetricsRegistry`/`MetricsSnapshot` name-taking methods.
const REGISTRY_METHODS: &[&str] = &[
    "counter_add",
    "counter_inc",
    "counter",
    "gauge_set",
    "gauge_max",
    "gauge",
    "hist_record",
    "hist",
];

pub fn check(ws: &LintWorkspace, out: &mut Vec<Violation>) {
    for f in &ws.files {
        if f.path_is_test {
            continue;
        }
        for i in 0..f.code.len() {
            if t(f, i) != "." {
                continue;
            }
            let m = t(f, i + 1);
            if !REGISTRY_METHODS.contains(&m) || t(f, i + 2) != "(" {
                continue;
            }
            let Some(lit) = f.code.get(i + 3) else {
                continue;
            };
            if lit.kind != crate::lexer::TokKind::Str || f.is_test_line(lit.line) {
                continue;
            }
            let text = &f.src[lit.start..lit.end];
            let Some(name) = text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
                continue;
            };
            if !is_pinned_metric(name) {
                out.push(report(
                    RULE,
                    f,
                    lit,
                    format!(
                        "metric name \"{name}\" is not in the pinned schema \
                         (add it to crates/lint/src/schema.rs and regenerate the \
                         stats_schema golden)"
                    ),
                ));
            }
        }
    }
}
