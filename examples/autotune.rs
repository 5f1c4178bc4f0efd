//! Watch the auto-tuner react to a workload shift, live.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```
//!
//! Runs μTPS-T under YCSB-A whose value size flips from 512 B to 8 B
//! mid-run (the paper's Figure 14 scenario, time-compressed). The online
//! tuner detects the throughput change, sweeps its hierarchical search —
//! thread split per candidate cache size (trisection), then LLC ways — and
//! applies the winner. Requests keep flowing the whole time: every thread
//! reassignment uses the paper's non-blocking switch protocol.

use utps::core::tuner::{TunerMode, TunerParams};
use utps::prelude::*;
use utps::sim::time::{MICROS, MILLIS};

fn main() {
    let warmup = 2 * MILLIS;
    let switch = 8 * MILLIS;
    let cfg = RunConfig {
        index: IndexKind::Tree,
        keys: 300_000,
        workers: 12,
        n_cr: 4,
        clients: 32,
        pipeline: 12,
        warmup,
        duration: 20 * MILLIS,
        hot_capacity: 8_000,
        sample_every: 2,
        tuner: TunerMode::Auto,
        tuner_params: TunerParams {
            window: 400 * MICROS,
            settle: 200 * MICROS,
            trigger: 0.25,
            trigger_windows: 2,
            cache_step: 4_000,
        },
        timeline_interval: 500 * MICROS,
        workload: WorkloadSpec::Fig14 {
            switch_ns: (warmup + switch) / 1_000,
        },
        ..RunConfig::default()
    };
    let r = run_utps(&cfg);

    println!(
        "value size switches 512B -> 8B at t = {:.0} ms\n",
        (warmup + switch) as f64 / MILLIS as f64
    );
    println!("{:>8}  {:>8}", "t (ms)", "Mops");
    for (t, mops) in &r.timeline {
        println!(
            "{:>8.1}  {:>8.2} {}",
            t * 1e3,
            mops,
            "*".repeat((mops / 2.0) as usize)
        );
    }
    println!("\ntuner events:");
    for e in &r.tuner_events {
        println!("  {e}");
    }
    println!(
        "\n{} thread reassignments, final split {}CR/{}MR, cache {} items",
        r.reconfigs,
        r.final_n_cr,
        r.workers - r.final_n_cr,
        r.final_cache_items
    );
}
