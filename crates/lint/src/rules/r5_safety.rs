//! R5 `unsafe-audit`: every `unsafe` occurrence in the concurrency-critical
//! files must be immediately preceded by a `// SAFETY:` comment.
//!
//! The audited files are the ones whose unsafe code encodes cross-thread
//! ownership protocols (ring slot hand-off, raw-pointer test harnesses):
//! `crates/collections/src/{spsc,mpmc}.rs` and
//! `crates/sim/src/{lock,engine}.rs`. In these files the safety argument
//! *is* the correctness argument, so it must sit next to the code — an
//! `unsafe` without one is unreviewable. Test modules are **not** exempt
//! here: a raw-pointer test harness can corrupt memory as effectively as
//! production code.
//!
//! "Immediately preceded" accepts: a `SAFETY:` earlier on the same line, or
//! a contiguous comment block (with interleaved attributes) directly above
//! the line, any line of which contains `SAFETY:`.

use crate::lexer::TokKind;
use crate::{LintWorkspace, Violation};

const RULE: (&str, &str) = ("R5", "unsafe-audit");

/// Files under audit.
const AUDITED_FILES: &[&str] = &[
    "crates/collections/src/spsc.rs",
    "crates/collections/src/mpmc.rs",
    "crates/sim/src/lock.rs",
    "crates/sim/src/engine.rs",
];

pub fn check(ws: &LintWorkspace, out: &mut Vec<Violation>) {
    for f in &ws.files {
        if !AUDITED_FILES.contains(&f.path.as_str()) {
            continue;
        }
        let lines: Vec<&str> = f.src.lines().collect();
        // Full token stream: comments must be visible, and `unsafe` inside a
        // string or comment must not count.
        for tok in &f.tokens {
            if tok.kind != TokKind::Ident || &f.src[tok.start..tok.end] != "unsafe" {
                continue;
            }
            if has_safety_comment(&lines, tok.line as usize, tok.col as usize) {
                continue;
            }
            out.push(Violation {
                rule_code: RULE.0,
                rule_id: RULE.1,
                file: f.path.clone(),
                line: tok.line,
                col: tok.col,
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                          (state the invariant that makes this sound)"
                    .to_string(),
            });
        }
    }
}

/// Is there a `SAFETY:` comment covering the `unsafe` token at 1-based
/// `line`/`col`?
fn has_safety_comment(lines: &[&str], line: usize, col: usize) -> bool {
    // Same line, before the token: `... /* SAFETY: x */ unsafe { ... }`.
    if let Some(cur) = lines.get(line - 1) {
        let before = cur
            .get(..col.saturating_sub(1).min(cur.len()))
            .unwrap_or("");
        if before.contains("SAFETY:") {
            return true;
        }
    }
    // Contiguous comment/attribute block directly above.
    let mut l = line - 1; // 0-based index of the previous line
    while l >= 1 {
        let prev = lines[l - 1].trim_start();
        let is_comment = prev.starts_with("//")
            || prev.starts_with("/*")
            || prev.starts_with('*')
            || prev.ends_with("*/");
        if is_comment {
            if prev.contains("SAFETY:") {
                return true;
            }
        } else if !(prev.starts_with("#[") || prev.starts_with("#![")) {
            return false;
        }
        l -= 1;
    }
    false
}
