//! Golden op-history digests: determinism anchors for the recorded history.
//!
//! Each cell runs a system with history recording on (oracle and schedule
//! exploration off) and compares the 64-bit FNV digest of the full
//! invoke/response history against a committed golden. Any change to
//! request ordering, retry behavior, or client-observed results shows up
//! here even when aggregate stats happen to match.
//!
//! One cell additionally asserts that recording is byte-transparent: the
//! `stats_json` of a recorded run must still match the *stats* golden
//! committed by `golden_equivalence` for the same cell.
//!
//! The digests regenerate with every other golden (`tests/common/mod.rs`).

mod common;

use std::fmt::Write as _;

use utps::prelude::*;
use utps_core::experiment::stats_json;
use utps_index::IndexKind;

fn recorded_cfg(index: IndexKind, seed: u64) -> RunConfig {
    RunConfig {
        record_history: true,
        ..common::quick_cfg(index, seed)
    }
}

#[test]
fn history_digests_match_goldens() {
    let cells: [(&str, SystemKind, IndexKind); 4] = [
        ("utps_h", SystemKind::Utps, IndexKind::Hash),
        ("utps_t", SystemKind::Utps, IndexKind::Tree),
        ("basekv", SystemKind::BaseKv, IndexKind::Tree),
        ("erpckv", SystemKind::ErpcKv, IndexKind::Tree),
    ];
    let mut got = String::new();
    for (label, system, index) in cells {
        for seed in [42u64, 7, 1234] {
            let r = run::run(system, &recorded_cfg(index, seed));
            let digest = r.history_digest.expect("recording was on");
            writeln!(got, "{label} {seed} {digest:016x}").unwrap();
        }
    }
    common::golden("history_digest.txt", &got);
}

#[test]
fn recorded_run_still_matches_stats_golden() {
    // Recording must not perturb the simulation: a run with history on
    // reproduces the stats golden committed by golden_equivalence (which
    // runs with recording off).
    let cfg = recorded_cfg(IndexKind::Tree, 42);
    let got = stats_json(&run::run(SystemKind::Utps, &cfg)) + "\n";
    let want = common::golden_read("equiv_utps_t_42.json");
    assert_eq!(got, want, "history recording perturbed the simulation");
}
