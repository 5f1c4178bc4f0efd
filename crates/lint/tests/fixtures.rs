//! End-to-end fixture tests: each rule fires on its planted violation —
//! with the exact rule id, file and line in the JSON output — and each is
//! suppressible with a justified allow directive.
//!
//! The fixtures live in `tests/fixtures/ws`, a miniature workspace whose
//! file paths mirror the real tree (`crates/core/src/server.rs`, …) so the
//! path-scoped rules (R2, R3, R5) fire exactly as they would in anger. A
//! second root, `tests/fixtures/badallow`, holds the unjustified-directive
//! case. The real-workspace walk skips `tests/fixtures` entirely.

use std::path::{Path, PathBuf};

use utps_lint::parser::parse_file;
use utps_lint::{lint_files, lint_root, to_json, LintWorkspace, Violation};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// `(rule code, file, line)` for every planted violation in `ws`.
const PLANTED: &[(&str, &str, u32)] = &[
    // One level below step (PR 5's reach).
    ("R1", "crates/core/src/stage_blocking.rs", 24),
    // Three levels below step — only the transitive call graph sees it.
    ("R1", "crates/core/src/stage_deep.rs", 31),
    ("R2", "crates/sim/src/engine.rs", 4),
    // `.to_vec()` copy-out.
    ("R3", "crates/core/src/server.rs", 14),
    // Byte `.clone()` on a payload chain, in the cluster client.
    ("R3", "crates/cluster/src/client.rs", 9),
    ("R4", "crates/core/src/metrics_user.rs", 10),
    ("R5", "crates/sim/src/lock.rs", 4),
    // Bare `-` on a windowed counter delta.
    ("R6", "crates/core/src/tuner.rs", 10),
];

#[test]
fn each_rule_fires_on_its_planted_fixture() {
    let (ws, violations) = lint_root(&fixture_root("ws")).unwrap();
    assert_eq!(ws.files.len(), 9, "fixture workspace should have 9 files");

    let got: Vec<(&str, &str, u32)> = violations
        .iter()
        .map(|v| (v.rule_code, v.file.as_str(), v.line))
        .collect();
    for want in PLANTED {
        assert!(got.contains(want), "expected {want:?} to fire; got {got:?}");
    }
    assert_eq!(
        violations.len(),
        PLANTED.len(),
        "exactly one violation per planted fixture; got {got:?}"
    );

    // The justified allow in allowed.rs suppresses its Instant::now and is
    // itself clean (no A0).
    assert!(
        violations
            .iter()
            .all(|v| v.file != "crates/core/src/allowed.rs"),
        "justified allow must fully suppress: {got:?}"
    );
}

/// The transitive R1 report names the chain that reaches the blocking call.
#[test]
fn interprocedural_reports_carry_chain_and_path() {
    let (_ws, violations) = lint_root(&fixture_root("ws")).unwrap();
    let deep = violations
        .iter()
        .find(|v| v.file == "crates/core/src/stage_deep.rs")
        .expect("deep R1 fires");
    for part in [
        "`DeepStage::step`",
        "DeepStage::descend → DeepStage::settle → DeepStage::snooze",
        "(depth 3)",
    ] {
        assert!(
            deep.message.contains(part),
            "missing {part:?}: {}",
            deep.message
        );
    }
}

#[test]
fn json_output_carries_exact_rule_file_line() {
    let (ws, violations) = lint_root(&fixture_root("ws")).unwrap();
    let json = to_json(&violations, ws.files.len(), 7);
    for needle in [
        r#""rule":"R1","id":"no-blocking-in-stage","file":"crates/core/src/stage_blocking.rs","line":24"#,
        r#""rule":"R1","id":"no-blocking-in-stage","file":"crates/core/src/stage_deep.rs","line":31"#,
        r#""rule":"R2","id":"determinism","file":"crates/sim/src/engine.rs","line":4"#,
        r#""rule":"R3","id":"payload-copy","file":"crates/core/src/server.rs","line":14"#,
        r#""rule":"R3","id":"payload-copy","file":"crates/cluster/src/client.rs","line":9"#,
        r#""rule":"R4","id":"metrics-schema","file":"crates/core/src/metrics_user.rs","line":10"#,
        r#""rule":"R5","id":"unsafe-audit","file":"crates/sim/src/lock.rs","line":4"#,
        r#""rule":"R6","id":"counter-arithmetic","file":"crates/core/src/tuner.rs","line":10"#,
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    assert!(json.contains(r#""clean":false"#));
    assert!(json.contains(r#""files_scanned":9"#));
    assert!(json.contains(r#""wall_ms":7"#));
}

#[test]
fn unjustified_allow_is_audited_but_still_suppresses() {
    let (ws, violations) = lint_root(&fixture_root("badallow")).unwrap();
    assert_eq!(ws.files.len(), 1);
    // The bare directive suppresses the R2 hit but earns an A0 of its own.
    assert_eq!(violations.len(), 1, "got {violations:?}");
    let v = &violations[0];
    assert_eq!(
        (v.rule_code, v.file.as_str(), v.line),
        ("A0", "crates/core/src/lib.rs", 5)
    );
    assert!(v.message.contains("justification"), "{}", v.message);
}

/// Re-lints the fixture workspace with one file patched: a justified allow
/// comment inserted directly above each planted violation. Every rule must
/// be suppressible through the same escape hatch.
#[test]
fn every_rule_is_suppressible_via_allow() {
    let (ws, violations) = lint_root(&fixture_root("ws")).unwrap();
    for v in &violations {
        let patched_ws = LintWorkspace {
            files: ws
                .files
                .iter()
                .map(|f| {
                    let src = if f.path == v.file {
                        insert_allow(&f.src, v)
                    } else {
                        f.src.clone()
                    };
                    parse_file(&f.path, src)
                })
                .collect(),
        };
        let still_firing = lint_files(&patched_ws)
            .iter()
            .any(|p| p.rule_code == v.rule_code && p.file == v.file);
        assert!(
            !still_firing,
            "allow({}) failed to suppress {} in {}",
            v.rule_id, v.rule_code, v.file
        );
    }
}

/// Inserts `// utps-lint: allow(<id>) — <why>` on its own line directly
/// above the violation's line, preserving indentation.
fn insert_allow(src: &str, v: &Violation) -> String {
    let mut out = String::with_capacity(src.len() + 80);
    for (i, line) in src.lines().enumerate() {
        if i as u32 + 1 == v.line {
            let indent: String = line.chars().take_while(|c| c.is_whitespace()).collect();
            out.push_str(&format!(
                "{indent}// utps-lint: allow({}) — fixture suppression probe\n",
                v.rule_id
            ));
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}
