//! `utps-lint` — workspace static analysis for the μTPS invariants the
//! compiler cannot see.
//!
//! Part of the repo's correctness rests on *conventions*: payload bytes move
//! through the arena instead of being copied per hop, the `stats_json`
//! schema is pinned, and windowed counter deltas cannot wrap. This crate
//! enforces them mechanically:
//!
//! | rule | id | invariant |
//! |------|----|-----------|
//! | R3 | `payload-copy` | no payload byte copies (`.to_vec()`, byte `.clone()`) on hot paths |
//! | R4 | `metrics-schema` | registry names come from the pinned schema |
//! | R6 | `counter-arithmetic` | windowed counter deltas use `saturating_sub`/`checked_sub` |
//!
//! What the toolchain can carry is left to it. The workspace `clippy.toml`
//! bans blocking calls, syscalls, wall clocks and randomly keyed maps at
//! every call site (the non-preemptive `Process::step` contract and
//! same-seed determinism). `PayloadRef` linearity is not a rule here: the
//! handle is move-only, so rustc rejects a double consume in every crate,
//! and a leaked handle shows up in `RunResult::payloads_live`.
//!
//! Suppression is per line and audited:
//! `// utps-lint: allow(<rule>) — <justification>` (a directive without a
//! justification is itself a violation, `A0`). The engine is dependency-free
//! — same precedent as the in-repo `proptest` shim — so it runs in the
//! hermetic build environments the workspace targets.

#![allow(
    clippy::disallowed_methods,
    reason = "host-side tool: walks and reads the source tree, never runs in a simulation"
)]
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod schema;

use std::path::{Path, PathBuf};

use parser::FileData;

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Short code: `R3`..`R6`, or `A0` for a malformed allow directive.
    pub rule_code: &'static str,
    /// Kebab-case rule id (what `allow(...)` names).
    pub rule_id: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// All parsed files of one lint run.
pub struct LintWorkspace {
    /// Parsed files, in walk order.
    pub files: Vec<FileData>,
}

/// The rules in reporting order. `(code, id, description)`.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "R3",
        "payload-copy",
        "no payload byte copies (.to_vec(), byte .clone()) on hot paths",
    ),
    (
        "R4",
        "metrics-schema",
        "registry metric names must come from the pinned schema list",
    ),
    (
        "R6",
        "counter-arithmetic",
        "windowed deltas over unsigned counters use saturating_sub/checked_sub, not bare -",
    ),
    ("A0", "allow-audit", "allow directives need a justification"),
];

/// Is `name` a known rule id or code?
fn known_rule(name: &str) -> bool {
    RULES
        .iter()
        .any(|(code, id, _)| *id == name || code.eq_ignore_ascii_case(name))
}

/// Lints pre-parsed files: runs every rule, then applies the allow
/// directives and audits the directives themselves.
pub fn lint_files(ws: &LintWorkspace) -> Vec<Violation> {
    let mut raw = Vec::new();
    rules::r3_payload::check(ws, &mut raw);
    rules::r4_metrics::check(ws, &mut raw);
    rules::r6_counters::check(ws, &mut raw);

    let mut out: Vec<Violation> = raw
        .into_iter()
        .filter(|v| {
            ws.files
                .iter()
                .find(|f| f.path == v.file)
                .is_none_or(|f| !f.allows_rule_on(v.rule_id, v.rule_code, v.line))
        })
        .collect();

    // Audit the escape hatch: unjustified or unknown-rule allows.
    for f in &ws.files {
        for a in &f.allows {
            if !known_rule(&a.rule) {
                out.push(Violation {
                    rule_code: "A0",
                    rule_id: "allow-audit",
                    file: f.path.clone(),
                    line: a.comment_line,
                    col: 1,
                    message: format!(
                        "allow directive names unknown rule `{}` (known: {})",
                        a.rule,
                        RULES
                            .iter()
                            .map(|(_, id, _)| *id)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            } else if !a.justified {
                out.push(Violation {
                    rule_code: "A0",
                    rule_id: "allow-audit",
                    file: f.path.clone(),
                    line: a.comment_line,
                    col: 1,
                    message: format!(
                        "allow({}) needs a justification: `// utps-lint: allow({}) — <why>`",
                        a.rule, a.rule
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule_code).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule_code,
        ))
    });
    out
}

/// Walks `root` for `.rs` files, parses them, and lints. Returns the
/// workspace (for callers that want file stats) and the violations.
pub fn lint_root(root: &Path) -> std::io::Result<(LintWorkspace, Vec<Violation>)> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for rel in paths {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        files.push(parser::parse_file(&rel_str, src));
    }
    let ws = LintWorkspace { files };
    let violations = lint_files(&ws);
    Ok((ws, violations))
}

/// Directories never descended into: build output, VCS, measurement dumps,
/// and this crate's own planted-violation fixtures.
fn skip_dir(root: &Path, dir: &Path) -> bool {
    let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if matches!(name, "target" | ".git" | "bench_results" | "node_modules") {
        return true;
    }
    let rel = dir.strip_prefix(root).unwrap_or(dir);
    rel.to_string_lossy().replace('\\', "/") == "crates/lint/tests/fixtures"
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if !skip_dir(root, &path) {
                collect_rs_files(root, &path, out)?;
            }
        } else if ty.is_file() && path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// Renders violations as deterministic JSON (sorted input order preserved).
/// `wall_ms` is the lint run's wall-clock in milliseconds; it is the one
/// intentionally nondeterministic field (CI perf visibility — consumers
/// comparing reports normalize it away).
pub fn to_json(violations: &[Violation], files_scanned: usize, wall_ms: u128) -> String {
    let mut s = String::from("{\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"id\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
             \"message\":\"{}\"}}",
            v.rule_code,
            v.rule_id,
            json_escape(&v.file),
            v.line,
            v.col,
            json_escape(&v.message)
        ));
    }
    s.push_str(&format!(
        "],\"files_scanned\":{},\"wall_ms\":{},\"clean\":{}}}",
        files_scanned,
        wall_ms,
        violations.is_empty()
    ));
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one violation in rustc-style `file:line:col` form.
pub fn render_human(v: &Violation) -> String {
    format!(
        "{}:{}:{}: {}({}) {}",
        v.file, v.line, v.col, v.rule_code, v.rule_id, v.message
    )
}
