//! R3 `payload-copy`: payload bytes live in the NIC-buffer arena and move —
//! they are never copied per hop.
//!
//! A `Request`/`Response` body is written into the `PayloadArena` once and
//! travels as a move-only `PayloadRef`. That the handle is consumed at most
//! once is rustc's job (`E0382`/`E0599`, workspace-wide) and that it is not
//! dropped unconsumed is the run ledger's (`RunResult::payloads_live`); what
//! neither can see is the *bytes* being copied out from behind a borrow. On
//! the server/ring/client hot paths this rule therefore forbids:
//!
//! * `.to_vec()` — the classic copy-out;
//! * `.clone()` on payload-carrying expressions (`value`, `payload`,
//!   `payloads`, `read_buf` chains).
//!
//! The one sanctioned deep copy is `PayloadArena::dup` for fault redelivery,
//! where a duplicated message genuinely occupies a second NIC buffer.

use crate::rules::{report, t};
use crate::{LintWorkspace, Violation};

const RULE: (&str, &str) = ("R3", "payload-copy");

/// Steady-state step code — the files where payload handles flow.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/server.rs",
    "crates/core/src/store.rs",
    "crates/core/src/rpc.rs",
    "crates/core/src/client.rs",
    "crates/baselines/src/basekv.rs",
    "crates/baselines/src/erpckv.rs",
    "crates/cluster/src/client.rs",
];

/// Identifiers that mark a chain as payload-carrying.
const PAYLOAD_IDENTS: &[&str] = &["value", "payload", "payloads", "read_buf"];

pub fn check(ws: &LintWorkspace, out: &mut Vec<Violation>) {
    for f in &ws.files {
        if !HOT_PATH_FILES.contains(&f.path.as_str()) {
            continue;
        }
        for i in 0..f.code.len() {
            if t(f, i) != "." || t(f, i + 2) != "(" || f.is_test_line(f.code[i].line) {
                continue;
            }
            let message = match t(f, i + 1) {
                // Copying bytes out of a borrow.
                "to_vec" => "`.to_vec()` copies payload bytes on the hot path \
                             (move the PayloadRef, or `PayloadArena::dup` for fault redelivery)"
                    .to_string(),
                // Cloning the bytes per hop.
                "clone" => {
                    let chain = chain_idents_before(f, i);
                    match chain.iter().find(|c| PAYLOAD_IDENTS.contains(&c.as_str())) {
                        Some(root) => format!(
                            "`.clone()` on payload-carrying `{root}` copies bytes per hop \
                             (move the PayloadRef, or `PayloadArena::dup` for fault redelivery)"
                        ),
                        None => continue,
                    }
                }
                _ => continue,
            };
            out.push(report(RULE, f, &f.code[i + 1], message));
        }
    }
}

/// Identifiers of the postfix chain ending at the `.` at code index
/// `dot_idx`: for `a.b(x).value.clone()` it walks back over `value`, the
/// call parens, `b`, `a`. Bounded so pathological lines cannot spin.
fn chain_idents_before(f: &crate::parser::FileData, dot_idx: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = dot_idx as isize - 1;
    let mut budget = 40;
    while j >= 0 && budget > 0 {
        budget -= 1;
        let tx = t(f, j as usize);
        match tx {
            ")" | "]" => {
                // Skip the balanced group backwards.
                let close = tx.as_bytes()[0];
                let open = if close == b')' { "(" } else { "[" };
                let close = if close == b')' { ")" } else { "]" };
                let mut depth = 0;
                while j >= 0 && budget > 0 {
                    budget -= 1;
                    let inner = t(f, j as usize);
                    if inner == close {
                        depth += 1;
                    } else if inner == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j -= 1;
                }
                j -= 1;
            }
            "." | "?" => j -= 1,
            _ if f
                .code
                .get(j as usize)
                .is_some_and(|k| k.kind == crate::lexer::TokKind::Ident) =>
            {
                out.push(tx.to_string());
                // Chains continue only through `.`/`::`-ish connectors.
                match t(f, (j - 1).max(0) as usize) {
                    "." | ":" => j -= 1,
                    _ => break,
                }
            }
            _ => break,
        }
    }
    out
}
