//! The workspace `clippy.toml` bans hold, and fire where they should.
//!
//! `workspace_passes_the_clippy_bans` is the in-tree twin of CI's
//! `cargo clippy --workspace --lib --bins` gate, so `cargo test` alone
//! catches a violation before it reaches CI. `planted_calls_are_flagged_by_line`
//! runs clippy on the planted fixture crate (`tests/fixtures/clippy`) and
//! expects exactly the planted lines, one or more per banned family, and
//! nothing under the justified `#[allow]`.
//!
//! The fixture has its own `[workspace]`, and clippy finds the repo's root
//! `clippy.toml` by walking up from it, so this checks the real config.
//! Clippy runs in its own target dirs so it never waits on the outer
//! build's lock. A missing clippy fails the tests rather than skipping them.

use std::path::Path;
use std::process::{Command, Output};

/// `(line, path)` of every planted call, in report order.
const PLANTED: &[(u32, &str)] = &[
    // `thread::sleep` three calls below `Process::step`.
    (31, "src/lib.rs"),
    // `Instant`.
    (36, "src/lib.rs"),
    // std `HashSet`.
    (40, "src/lib.rs"),
    // `Mutex`, named twice on one line.
    (43, "src/lib.rs"),
    // `println!`.
    (46, "src/lib.rs"),
    // The registry's string shim.
    (50, "src/lib.rs"),
];

/// `cargo clippy <args>` in `dir`, with the three ban lints denied.
fn clippy_with_bans(dir: &Path, target: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO"))
        .current_dir(dir)
        .args(["clippy", "--offline", "--quiet", "--color", "never"])
        .args(args)
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(target))
        .arg("--")
        .args(["-D", "clippy::disallowed_methods"])
        .args(["-D", "clippy::disallowed_types"])
        .args(["-D", "clippy::disallowed_macros"])
        .output()
        .expect("cargo clippy must run")
}

/// No library or binary blocks the engine thread, makes a syscall, reads a
/// wall clock, keys a map randomly or names an instrument by string, except
/// at the justified `#[allow]`s.
#[test]
fn workspace_passes_the_clippy_bans() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = clippy_with_bans(
        root,
        "clippy-workspace",
        &["--workspace", "--lib", "--bins"],
    );
    assert!(
        out.status.success(),
        "clippy bans violated:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn planted_calls_are_flagged_by_line() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy");
    let out = clippy_with_bans(&fixture, "clippy-fixture", &["--message-format", "short"]);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // Short-format diagnostics: `src/lib.rs:31:9: error: use of a disallowed …`.
    let mut got: Vec<(u32, &str)> = stderr
        .lines()
        .filter(|l| l.contains("use of a disallowed"))
        .filter_map(|l| {
            let mut parts = l.splitn(3, ':');
            let path = parts.next()?;
            let line = parts.next()?.parse().ok()?;
            Some((line, path))
        })
        .collect();
    got.dedup();
    assert_eq!(got, PLANTED, "clippy output:\n{stderr}");
}
