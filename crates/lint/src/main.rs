//! `utps-lint` CLI.
//!
//! ```text
//! cargo run -p utps-lint -- --workspace            # human-readable report
//! cargo run -p utps-lint -- --workspace --json     # machine-readable (CI)
//! cargo run -p utps-lint -- --root path/to/tree    # lint another tree
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "host-side tool: prints its report and times itself, never runs in a simulation"
)]
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // --workspace is the default (and only) scope; accepted for
            // explicitness in CI invocations.
            "--workspace" => {}
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--list-rules" => {
                for (code, id, desc) in utps_lint::RULES {
                    println!("{code}  {id:<22} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "utps-lint: static analysis for the μTPS arena/metrics/counter invariants\n\
                     \n\
                     usage: utps-lint [--workspace] [--json] [--root <dir>] [--list-rules]\n\
                     \n\
                     Suppress a finding with a justified line comment:\n\
                     \x20   // utps-lint: allow(<rule-id>) — <justification>"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => return usage("no workspace root found (run inside the repo or pass --root)"),
        },
    };

    let started = std::time::Instant::now();
    match utps_lint::lint_root(&root) {
        Ok((ws, violations)) => {
            let wall_ms = started.elapsed().as_millis();
            if json {
                println!(
                    "{}",
                    utps_lint::to_json(&violations, ws.files.len(), wall_ms)
                );
            } else if violations.is_empty() {
                println!(
                    "utps-lint: clean — {} files, {} rules",
                    ws.files.len(),
                    utps_lint::RULES.len() - 1
                );
            } else {
                for v in &violations {
                    println!("{}", utps_lint::render_human(v));
                }
                println!(
                    "\nutps-lint: {} violation(s) in {} files scanned",
                    violations.len(),
                    ws.files.len()
                );
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("utps-lint: io error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the first `Cargo.toml` declaring a
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("utps-lint: {msg} (try --help)");
    ExitCode::from(2)
}
