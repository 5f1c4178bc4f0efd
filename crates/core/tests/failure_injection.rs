//! Failure/overload injection: undersized buffers must backpressure, never
//! lose or corrupt requests.

use utps_core::experiment::{RunConfig, Utps, WorkloadSpec};
use utps_core::run_system;
use utps_index::IndexKind;
use utps_sim::config::MachineConfig;
use utps_sim::time::MICROS;
use utps_workload::Mix;

fn base() -> RunConfig {
    RunConfig {
        index: IndexKind::Tree,
        keys: 20_000,
        workers: 6,
        n_cr: 2,
        clients: 16,
        pipeline: 8,
        warmup: 500 * MICROS,
        duration: 2_000 * MICROS,
        machine: MachineConfig::tiny(),
        hot_capacity: 1_000,
        sample_every: 2,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.99,
            value_len: 64,
            scan_len: 20,
        },
        ..RunConfig::default()
    }
}

#[test]
fn tiny_receive_ring_backpressures_without_loss() {
    // 64 slots for 128 outstanding requests: the SRQ must stall the NIC
    // (RNR backpressure) rather than drop; every issued request completes.
    let cfg = RunConfig {
        ring_slots: 64,
        ..base()
    };
    let (r, world) = run_system::<Utps>(&cfg);
    assert!(
        r.completed > 200,
        "only {} ops through a tiny ring",
        r.completed
    );
    assert_eq!(r.not_found, 0);
    // The ring saw real backpressure: its head stayed bounded by slot reuse.
    assert!(world.ring.head() > 64, "ring never wrapped");
}

#[test]
fn oversubscribed_clients_saturate_gracefully() {
    // 10x the usual offered load against a small server: latency inflates,
    // throughput stays at the server's capacity, nothing wedges.
    let normal = run_system::<Utps>(&base()).0;
    let flood = run_system::<Utps>(&RunConfig {
        clients: 64,
        pipeline: 16,
        ..base()
    })
    .0;
    assert!(flood.completed > 200);
    assert!(
        flood.p99_ns > normal.p99_ns,
        "flood p99 {} should exceed normal {}",
        flood.p99_ns,
        normal.p99_ns
    );
    // Throughput under flood within a factor of ~2 of normal capacity
    // (it cannot multiply by the offered load).
    assert!(flood.mops < normal.mops * 3.0 + 1.0);
}

#[test]
fn minimal_worker_and_batch_configuration() {
    // The degenerate 1 CR + 1 MR split with batch 1 must still work.
    let cfg = RunConfig {
        workers: 2,
        n_cr: 1,
        batch: 1,
        ..base()
    };
    let (r, _) = run_system::<Utps>(&cfg);
    assert!(
        r.completed > 100,
        "degenerate config served {}",
        r.completed
    );
    assert_eq!(r.not_found, 0);
}

#[test]
fn value_size_exceeding_slot_is_clamped_on_wire_but_correct() {
    // Values near the slot size exercise the DMA clamp path.
    let cfg = RunConfig {
        slot_size: 256,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::A,
            theta: 0.9,
            value_len: 200,
            scan_len: 20,
        },
        ..base()
    };
    let (r, world) = run_system::<Utps>(&cfg);
    assert!(r.completed > 100);
    // Values written by clients are intact in the store.
    let mut client_written = 0;
    for key in 0..cfg.keys {
        if let Some(v) = world.store.get_native(key) {
            if v[0] != 0xab {
                assert_eq!(v.len(), 200, "client value truncated at {key}");
                assert!(v.iter().all(|&b| b == v[0]), "torn value at {key}");
                client_written += 1;
            }
        }
    }
    assert!(client_written > 10, "no client writes observed");
}

#[test]
fn zero_skew_with_cache_enabled_is_harmless() {
    // A cache that can never find a hot set must not break anything —
    // the tracker just produces an unhelpful hot set and probes miss.
    let cfg = RunConfig {
        cache_enabled: true,
        workload: WorkloadSpec::Ycsb {
            mix: Mix::C,
            theta: 0.0,
            value_len: 8,
            scan_len: 20,
        },
        ..base()
    };
    let (r, _) = run_system::<Utps>(&cfg);
    assert!(r.completed > 200);
    assert!(r.cr_local_frac < 0.30, "uniform traffic cannot be this hot");
}
