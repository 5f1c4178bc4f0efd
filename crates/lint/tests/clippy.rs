//! The workspace `clippy.toml` bans fire where they should: clippy run on
//! the planted fixture crate (`tests/fixtures/clippy`) reports exactly the
//! planted lines, one or more per banned family, and nothing under the
//! justified `#[allow]`.
//!
//! The fixture has its own `[workspace]`, and clippy finds the repo's root
//! `clippy.toml` by walking up from it, so this checks the real config. A
//! missing clippy fails the test rather than skipping it.

use std::path::Path;
use std::process::Command;

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
];

#[test]
fn planted_calls_are_flagged_by_line() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy");
    let out = Command::new(env!("CARGO"))
        .current_dir(&fixture)
        .args(["clippy", "--offline", "--quiet", "--color", "never"])
        .args(["--message-format", "short", "--target-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
        .arg("--")
        .args(["-D", "clippy::disallowed_methods"])
        .args(["-D", "clippy::disallowed_types"])
        .args(["-D", "clippy::disallowed_macros"])
        .output()
        .expect("cargo clippy must run");
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
