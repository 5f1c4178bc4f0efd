//! The harness the top-level test targets share: the quick run config, the
//! tier overlay, the schema key parser, and the one path by which every
//! golden under `tests/golden/` is checked or rewritten.
//!
//! Each golden has exactly one owner, which checks it through [`golden`];
//! another target that compares against it reads it through
//! [`golden_read`]. One command regenerates every golden after an
//! intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --no-fail-fast
//! ```
//!
//! (`--no-fail-fast` lets every owner run even when a check in an earlier
//! target still reads an old golden.)

#![allow(
    dead_code,
    reason = "each test target compiles this module and uses only part of it"
)]

use utps::prelude::*;
use utps::sim::time::MICROS;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Compares golden `name` with `got`; with `UPDATE_GOLDEN` set, writes `got`
/// to it instead.
pub fn golden(name: &str, got: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{GOLDEN_DIR}/{name}");
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        return;
    }
    assert_eq!(
        got,
        golden_read(name),
        "{name} diverged from its golden; after an intentional change, \
         UPDATE_GOLDEN=1 cargo test --release --no-fail-fast regenerates it"
    );
}

/// The committed golden `name`.
pub fn golden_read(name: &str) -> String {
    std::fs::read_to_string(format!("{GOLDEN_DIR}/{name}"))
        .unwrap_or_else(|e| panic!("golden {name} unreadable: {e}"))
}

/// The quick run every golden pins: 20 k keys on the tiny machine, six
/// workers (two CR), YCSB-A at zipf 0.99 over 64-byte values, 1.2 ms
/// measured after 500 µs of warm-up, retries on.
pub fn quick_cfg(index: IndexKind, seed: u64) -> RunConfig {
    RunConfig {
        index,
        keys: 20_000,
        workers: 6,
        n_cr: 2,
        clients: 12,
        pipeline: 4,
        warmup: 500 * MICROS,
        duration: 1_200 * MICROS,
        machine: MachineConfig::tiny(),
        hot_capacity: 1_000,
        sample_every: 2,
        seed,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        retry: RetryConfig::chaos_default(),
        ..RunConfig::default()
    }
}

/// `cfg` with the durable tier on: a DRAM limit of 15 000 items (below the
/// quick keyspace), evictions 256 at a time and a compaction every 100 µs.
pub fn with_tier(cfg: RunConfig) -> RunConfig {
    RunConfig {
        tier: Some(TierConfig {
            dram_items_max: 15_000,
            evict_batch: 256,
            compact_every_ps: 100 * MICROS,
            ..TierConfig::default()
        }),
        ..cfg
    }
}

/// Every `"key":` in document order. String *values* are skipped because a
/// closing quote followed by anything but `:` is not a key.
pub fn keys_of(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    let mut keys = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                j += 1;
            }
            let mut k = j + 1;
            while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                k += 1;
            }
            if k < bytes.len() && bytes[k] == b':' {
                keys.push(json[start..j].to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    keys
}
