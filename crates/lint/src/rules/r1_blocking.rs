//! R1 `no-blocking-in-stage`: nothing that blocks a real OS thread — and no
//! syscall-ish std I/O — may be reachable from a `Process::step`
//! implementation, at *any* call depth.
//!
//! `Process::step` is the paper's non-preemptive NP-TPS contract (§3): a
//! simulated process — a stage, a client, a manager — runs to its next yield
//! point and *returns*; the engine owns the core. A `thread::sleep`, a
//! `Mutex` acquisition or a file write inside a step would stall every
//! process sharing the engine thread and desynchronize
//! simulated time from host time. Simulated synchronization (`OptLock`)
//! charges its cost through `Ctx` and is fine; it is the *std* blocking
//! vocabulary this rule bans.
//!
//! Reach is computed on the workspace [`CallGraph`](crate::callgraph): a
//! cycle-safe BFS from every `Process::step` impl, so a blocking call three
//! helpers down is exactly as visible as one in the step body — and the
//! report prints the chain that gets there
//! (`reachable via UtpsWorker::step → drain → retire`).

use crate::callgraph::CallGraph;
use crate::lexer::TokKind;
use crate::parser::FileData;
use crate::rules::{report, seq, t};
use crate::{LintWorkspace, Violation};

const RULE: (&str, &str) = ("R1", "no-blocking-in-stage");

/// `thread::<x>` members that block or touch OS scheduling.
const THREAD_FNS: &[&str] = &[
    "sleep",
    "sleep_ms",
    "park",
    "park_timeout",
    "yield_now",
    "spawn",
    "scope",
    "Builder",
];

/// std sync primitives that park the calling thread.
const SYNC_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// std modules whose use from a stage means syscalls.
const SYSCALL_MODS: &[&str] = &["fs", "net", "process", "io"];

/// Print-family macros (stdout/stderr syscalls, and nondeterministic
/// interleaving to boot).
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Zero-arg method calls that park: `.lock()`, `.join()`, `.recv()`.
const PARKING_METHODS: &[&str] = &["lock", "join", "recv"];

pub fn check(ws: &LintWorkspace, out: &mut Vec<Violation>) {
    let cg = CallGraph::build(ws);
    let mut found: Vec<Violation> = Vec::new();

    for (fi, f) in ws.files.iter().enumerate() {
        if f.path_is_test {
            continue;
        }
        for (ii, item) in f.fns.iter().enumerate() {
            if item.is_test || item.name != "step" || item.trait_name.as_deref() != Some("Process")
            {
                continue;
            }
            let stage = item.owner.clone().unwrap_or_else(|| "?".into());
            let origin = format!("`{stage}::step` ({}:{})", f.path, item.line);
            let Some(start) = cg.id_of((fi, ii)) else {
                continue; // bodyless declaration
            };
            let reach = cg.reachable(start);
            for &node in &reach.order {
                let (cfi, cii) = cg.nodes[node];
                let cf = &ws.files[cfi];
                let (s, e) = cf.fns[cii].body.expect("graph nodes have bodies");
                let ctx = if node == start {
                    format!("in {origin}")
                } else {
                    let chain: Vec<String> = reach
                        .chain(&cg, ws, node)
                        .iter()
                        .map(|step| step.label.clone())
                        .collect();
                    format!(
                        "reachable from {origin} via {} (depth {})",
                        chain.join(" → "),
                        chain.len() - 1
                    )
                };
                scan_fn(cf, s, e, &ctx, &mut found);
            }
        }
    }
    // The same helper can be reachable from several stages; report each
    // offending token once (first chain wins — reports stay deterministic
    // because stages are visited in file order).
    found.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    found.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.col == b.col);
    out.append(&mut found);
}

/// Scans one function body for the blocking vocabulary.
fn scan_fn(f: &FileData, start: usize, end: usize, ctx: &str, out: &mut Vec<Violation>) {
    let end = end.min(f.code.len());
    for i in start..end {
        let tok = &f.code[i];
        if tok.kind != TokKind::Ident {
            continue;
        }
        let tx = t(f, i);
        let hit: Option<String> = match tx {
            "thread" if t(f, i + 1) == ":" && t(f, i + 2) == ":" => {
                let m = t(f, i + 3);
                THREAD_FNS
                    .contains(&m)
                    .then(|| format!("`thread::{m}` blocks the engine thread"))
            }
            "std" if seq(f, i, &["std", ":", ":", "thread"]) => {
                Some("`std::thread` has no place in a stage".to_string())
            }
            "std" if t(f, i + 1) == ":" && t(f, i + 2) == ":" => {
                let m = t(f, i + 3);
                SYSCALL_MODS
                    .contains(&m)
                    .then(|| format!("`std::{m}` means syscalls on the stage path"))
            }
            "File" if t(f, i + 1) == ":" && t(f, i + 2) == ":" => {
                matches!(t(f, i + 3), "open" | "create")
                    .then(|| "file I/O on the stage path".to_string())
            }
            "stdin" | "stdout" if t(f, i + 1) == "(" => {
                Some(format!("`{tx}()` handle acquisition on the stage path"))
            }
            _ if SYNC_TYPES.contains(&tx) => Some(format!(
                "std sync primitive `{tx}` parks real threads (use OptLock)"
            )),
            _ if PRINT_MACROS.contains(&tx) && t(f, i + 1) == "!" => {
                Some(format!("`{tx}!` writes to stdio from a stage"))
            }
            _ if PARKING_METHODS.contains(&tx)
                && i >= 1
                && t(f, i - 1) == "."
                && t(f, i + 1) == "("
                && t(f, i + 2) == ")" =>
            {
                Some(format!("`.{tx}()` is a parking call"))
            }
            "wait" if i >= 1 && t(f, i - 1) == "." && t(f, i + 1) == "(" => {
                Some("`.wait(...)` is a parking call".to_string())
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push(report(RULE, f, tok, format!("{what} — {ctx}")));
        }
    }
}
