//! The whole workspace passes `utps-lint` and the `clippy.toml` bans — the
//! static invariants hold.
//!
//! These are the in-tree twins of the CI `cargo run -p utps-lint --
//! --workspace` and `cargo clippy --workspace --lib --bins` gates, so
//! `cargo test` alone catches a violation before it reaches CI. Payload
//! copies need neither: `PayloadArena` lends no bytes, so a copy-out does
//! not compile.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let started = Instant::now();
    let (ws, violations) = utps_lint::lint_root(root).expect("lint walk failed");
    let wall = started.elapsed();
    assert!(
        ws.files.len() > 80,
        "suspiciously few files scanned ({}); walk broken?",
        ws.files.len()
    );
    assert!(
        violations.is_empty(),
        "utps-lint violations:\n{}",
        violations
            .iter()
            .map(utps_lint::render_human)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The lint run must stay cheap enough to live in the default CI lint
    // job. 5 s is well over 20x the observed cost on this tree — tripping it
    // means something regressed algorithmically, not that CI had a slow day.
    assert!(
        wall.as_secs_f64() < 5.0,
        "lint run took {:.2?}; it must stay under 5 s",
        wall
    );
}

/// No library or binary blocks the engine thread, makes a syscall, reads a
/// wall clock or keys a map randomly, except at the justified `#[allow]`s.
/// Clippy runs in its own target dir so it never waits on the outer build's
/// lock. A missing clippy fails the test rather than skipping it.
#[test]
fn workspace_passes_the_clippy_bans() {
    let out = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["clippy", "--offline", "--quiet", "--color", "never"])
        .args(["--workspace", "--lib", "--bins", "--target-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-workspace"))
        .arg("--")
        .args(["-D", "clippy::disallowed_methods"])
        .args(["-D", "clippy::disallowed_types"])
        .args(["-D", "clippy::disallowed_macros"])
        .output()
        .expect("cargo clippy must run");
    assert!(
        out.status.success(),
        "clippy bans violated:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
