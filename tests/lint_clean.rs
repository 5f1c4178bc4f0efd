//! The whole workspace passes `utps-lint` — the static invariants hold.
//!
//! This is the in-tree twin of the CI `cargo run -p utps-lint -- --workspace`
//! gate, so `cargo test` alone catches a violation before it reaches CI. It
//! subsumes the old `hot_path_no_copy.rs` grep test: payload-copy patterns on
//! the hot path are now rule R3 (`payload-copy`), which understands tokens
//! and allow directives instead of raw substrings.

use std::path::Path;
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
    // The interprocedural pass (workspace call graph) must stay cheap
    // enough to live in the default CI lint job. 5 s is well over 20x the
    // observed cost on this tree — tripping it means something regressed
    // algorithmically, not that CI had a slow day.
    assert!(
        wall.as_secs_f64() < 5.0,
        "lint run took {:.2?}; the call-graph analysis must stay under 5 s",
        wall
    );
}
