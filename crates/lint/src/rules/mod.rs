//! The rule implementations. Each rule exposes
//! `check(&LintWorkspace, &mut Vec<Violation>)` and reports *raw* findings;
//! the engine in `lib.rs` applies `allow(...)` suppression afterwards.

pub mod r4_metrics;

use crate::lexer::Token;
use crate::parser::FileData;
use crate::Violation;

/// Text of code token `i` (empty past the end).
pub(crate) fn t(f: &FileData, i: usize) -> &str {
    f.code
        .get(i)
        .map(|tok| &f.src[tok.start..tok.end])
        .unwrap_or("")
}

/// Builds a violation at code token `tok`.
pub(crate) fn report(
    rule: (&'static str, &'static str),
    f: &FileData,
    tok: &Token,
    message: String,
) -> Violation {
    Violation {
        rule_code: rule.0,
        rule_id: rule.1,
        file: f.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}
