//! `utps-cli` — run any system/workload combination from the command line.
//!
//! ```sh
//! cargo run --release --bin utps-cli -- \
//!     --system utps --index tree --mix A --theta 0.99 --value 64 \
//!     --keys 1000000 --workers 16 --duration-ms 4
//! ```
//!
//! Run with `--help` for all options.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::disallowed_macros,
    reason = "host-side CLI: prints results and times the run around a simulation, never inside one"
)]
use utps::prelude::*;
use utps::sim::time::MILLIS;
use utps::workload::TwitterCluster;

const HELP: &str = "\
utps-cli — drive the μTPS simulation from the command line

OPTIONS (all optional; defaults in brackets):
  --system <utps|basekv|erpckv|racehash|sherman>   system to run [utps]
  --index <tree|hash>                              index structure [tree]
  --mix <A|B|C|E|PUT|SCAN|CHURN>                   YCSB-style mix [A]
  --theta <f64>                                    zipf skew, 0 = uniform [0.99]
  --value <bytes>                                  item size [64]
  --keys <n>                                       pre-populated keys [500000]
  --workers <n>                                    server worker threads [16]
  --n-cr <n>                                       initial CR workers [workers*3/8]
  --batch <n>                                      CR-MR batch size [8]
  --clients <n>                                    client endpoints [48]
  --pipeline <n>                                   outstanding reqs per client [16]
  --warmup-ms <n>                                  warmup milliseconds [3]
  --duration-ms <n>                                measured milliseconds [3]
  --hot <n>                                        hot-cache capacity [10000]
  --mr-ways <n>                                    LLC ways for MR layer, 0=all [0]
  --etc <get_ratio>                                use the Meta ETC workload
  --twitter <12|19|31>                             use a Twitter cluster trace
  --tuner                                          enable the online auto-tuner
  --seed <n>                                       RNG seed [42]
  --help                                           this text
";

fn parse_mix(s: &str) -> Mix {
    match s.to_ascii_uppercase().as_str() {
        "A" => Mix::A,
        "B" => Mix::B,
        "C" => Mix::C,
        "E" => Mix::E,
        "PUT" | "PUT_ONLY" => Mix::PUT_ONLY,
        "SCAN" | "SCAN_ONLY" => Mix::SCAN_ONLY,
        "CHURN" => Mix::CHURN,
        other => die(&format!("unknown mix {other:?}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{HELP}");
    std::process::exit(2)
}

/// The value after `flag`, parsed as `T`; dies naming the flag and the value.
fn flag_value<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, flag: &str) -> T {
    let v = it
        .next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")));
    v.parse()
        .unwrap_or_else(|_| die(&format!("bad {flag} value {v:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut system = SystemKind::Utps;
    let mut cfg = RunConfig {
        index: IndexKind::Tree,
        keys: 500_000,
        workers: 16,
        n_cr: 0, // resolved below
        batch: 8,
        clients: 48,
        pipeline: 16,
        warmup: 3 * MILLIS,
        duration: 3 * MILLIS,
        hot_capacity: 10_000,
        sample_every: 2,
        ..RunConfig::default()
    };
    let (mut mix, mut theta, mut value) = (Mix::A, 0.99f64, 64usize);
    let (mut etc, mut twitter): (Option<f64>, Option<TwitterCluster>) = (None, None);

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            "--system" => {
                system = match flag_value::<String>(&mut it, arg)
                    .to_ascii_lowercase()
                    .as_str()
                {
                    "utps" => SystemKind::Utps,
                    "basekv" => SystemKind::BaseKv,
                    "erpckv" => SystemKind::ErpcKv,
                    "racehash" => SystemKind::RaceHash,
                    "sherman" => SystemKind::Sherman,
                    other => die(&format!("unknown system {other:?}")),
                }
            }
            "--index" => {
                cfg.index = match flag_value::<String>(&mut it, arg)
                    .to_ascii_lowercase()
                    .as_str()
                {
                    "tree" => IndexKind::Tree,
                    "hash" => IndexKind::Hash,
                    other => die(&format!("unknown index {other:?}")),
                }
            }
            "--mix" => mix = parse_mix(&flag_value::<String>(&mut it, arg)),
            "--theta" => theta = flag_value(&mut it, arg),
            "--value" => value = flag_value(&mut it, arg),
            "--keys" => cfg.keys = flag_value(&mut it, arg),
            "--workers" => cfg.workers = flag_value(&mut it, arg),
            "--n-cr" => cfg.n_cr = flag_value(&mut it, arg),
            "--batch" => cfg.batch = flag_value(&mut it, arg),
            "--clients" => cfg.clients = flag_value(&mut it, arg),
            "--pipeline" => cfg.pipeline = flag_value(&mut it, arg),
            "--warmup-ms" => cfg.warmup = flag_value::<u64>(&mut it, arg) * MILLIS,
            "--duration-ms" => cfg.duration = flag_value::<u64>(&mut it, arg) * MILLIS,
            "--hot" => cfg.hot_capacity = flag_value(&mut it, arg),
            "--mr-ways" => cfg.mr_ways = flag_value(&mut it, arg),
            "--etc" => etc = Some(flag_value(&mut it, arg)),
            "--twitter" => {
                twitter = Some(match flag_value::<String>(&mut it, arg).as_str() {
                    "12" => TwitterCluster::Cluster12,
                    "19" => TwitterCluster::Cluster19,
                    "31" => TwitterCluster::Cluster31,
                    other => die(&format!("unknown cluster {other:?}")),
                })
            }
            "--tuner" => cfg.tuner = TunerMode::Auto,
            "--seed" => cfg.seed = flag_value(&mut it, arg),
            other => die(&format!("unknown option {other:?}")),
        }
    }
    if cfg.n_cr == 0 {
        cfg.n_cr = (cfg.workers * 3 / 8).max(1);
    }
    cfg.cache_enabled = theta > 0.0 || etc.is_some() || twitter.is_some();
    cfg.workload = if let Some(get_ratio) = etc {
        WorkloadSpec::Etc { get_ratio }
    } else if let Some(cluster) = twitter {
        WorkloadSpec::Twitter { cluster }
    } else {
        WorkloadSpec::Ycsb {
            mix,
            theta,
            value_len: value,
            scan_len: 50,
        }
    };

    eprintln!(
        "running {} ({:?}) over {} keys, {} workers, {} clients...",
        system.name(),
        cfg.index,
        cfg.keys,
        cfg.workers,
        cfg.clients
    );
    let t0 = std::time::Instant::now();
    let r = run(system, &cfg);
    println!(
        "throughput : {:.2} Mops/s ({} ops in {} ms simulated)",
        r.mops,
        r.completed,
        cfg.duration / MILLIS
    );
    println!(
        "latency    : P50 {:.1} us  P99 {:.1} us  mean {:.1} us",
        r.p50_ns as f64 / 1e3,
        r.p99_ns as f64 / 1e3,
        r.mean_ns / 1e3
    );
    println!(
        "LLC miss   : all {:.1}%  CR {:.1}%  MR {:.1}%",
        r.llc_miss_all * 100.0,
        r.llc_miss_cr * 100.0,
        r.llc_miss_mr * 100.0
    );
    if system == SystemKind::Utps {
        println!(
            "uTPS       : CR-local {:.1}%  final split {}CR/{}MR  cache {} items  MR ways {}",
            r.cr_local_frac * 100.0,
            r.final_n_cr,
            r.workers - r.final_n_cr,
            r.final_cache_items,
            r.final_mr_ways
        );
        if r.reconfigs > 0 {
            println!("tuner      : {} reassignments", r.reconfigs);
            for e in &r.tuner_events {
                println!("             {e}");
            }
        }
    }
    eprintln!("(host time {:.1?})", t0.elapsed());
}
