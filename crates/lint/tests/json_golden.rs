//! Golden test for the `--json` report: the full byte-exact output over the
//! planted fixture workspace, pinned.
//!
//! The report is CI's reviewable artifact, so its shape is load-bearing:
//! violations sorted by `(file, line, col, rule)`, one stable message per
//! finding, and `wall_ms` as the single intentionally nondeterministic field
//! (normalized to 0 here). If a rule's wording or a fixture's line number
//! changes, this golden changes with it — in the same diff, where a reviewer
//! can see both sides.

use std::path::{Path, PathBuf};

use utps_lint::{lint_root, to_json};

fn fixture_ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

const GOLDEN: &str = concat!(
    r#"{"violations":["#,
    r#"{"rule":"R4","id":"metrics-schema","file":"crates/core/src/metrics_user.rs","line":10,"col":21,"message":"metric name \"cr.hti\" is not in the pinned schema (add it to crates/lint/src/schema.rs and regenerate the stats_schema golden)"}"#,
    r#"],"files_scanned":2,"wall_ms":0,"clean":false}"#,
);

#[test]
fn json_report_matches_golden_byte_for_byte() {
    let (ws, violations) = lint_root(&fixture_ws()).unwrap();
    let json = to_json(&violations, ws.files.len(), 0);
    assert_eq!(
        json, GOLDEN,
        "--json report drifted from the golden; if the change is \
         intentional, update GOLDEN in the same PR"
    );
}

#[test]
fn report_is_deterministic_across_runs() {
    let (ws1, v1) = lint_root(&fixture_ws()).unwrap();
    let (ws2, v2) = lint_root(&fixture_ws()).unwrap();
    assert_eq!(
        to_json(&v1, ws1.files.len(), 0),
        to_json(&v2, ws2.files.len(), 0)
    );
}

#[test]
fn violations_arrive_sorted_by_file_line_col_rule() {
    let (_ws, violations) = lint_root(&fixture_ws()).unwrap();
    let keys: Vec<_> = violations
        .iter()
        .map(|v| (v.file.clone(), v.line, v.col, v.rule_code))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "report order must be the sort order");
}
