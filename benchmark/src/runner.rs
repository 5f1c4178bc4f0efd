//! One run of one cell: the validation pass, the untraced reps, the
//! optional traced rep with the layer probes, the correctness gate and the
//! metrics.

use std::time::Instant;

use utps_core::experiment::{stats_json, RunConfig, RunResult, SystemKind};
use utps_sim::time::NANOS;

use crate::cells::Cell;
use crate::probes::{self, Shape};
use crate::report::{median, peak_rss_mb, ratio, Metric};
use crate::spans::{seconds_of, Span, Tracer};
use crate::sut::{run_phased, Outcome, SLICES};

/// What a run takes besides its cell.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Workload seed.
    pub seed: u64,
    /// Host seconds of measured window to accumulate over the untraced
    /// reps (a traced run spends half of it there).
    pub seconds: f64,
    /// Also run the traced rep and the layer probes.
    pub trace: bool,
}

/// Fewest untraced reps a run makes: `setup_s` is their median, and each
/// slice of the window is taken from the fastest of them.
const MIN_REPS: usize = 3;
/// Fewest untraced reps of a traced run, which reports no end-to-end metric.
const MIN_REPS_TRACED: usize = 2;

/// Everything a run produced.
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Untraced reps made.
    pub reps: usize,
    /// Requests issued by one rep, or operations completed where the system
    /// counts no requests (every rep makes the same).
    pub attempted: u64,
    /// Requests of one rep that failed or found no key.
    pub failed: u64,
    /// Correctness breaches; empty when the run is correct.
    pub breaches: Vec<String>,
    /// End-to-end metrics, from the untraced reps.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Spans of the traced run; empty unless traced.
    pub spans: Vec<Span>,
}

impl RunReport {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.breaches.is_empty()
    }
}

/// FNV-1a 64 of the program's own stats document.
fn digest(result: &RunResult) -> u64 {
    utps_wal::fnv1a(stats_json(result).as_bytes())
}

/// The per-result gate: no failed request, no missing key, and no more
/// requests unaccounted for than the closed loop can have in flight.
fn ledger_breaches(what: &str, result: &RunResult, cfg: &RunConfig) -> Vec<String> {
    let mut out = Vec::new();
    if result.failed != 0 {
        out.push(format!("{what}: {} requests failed", result.failed));
    }
    if result.not_found != 0 {
        out.push(format!("{what}: {} keys not found", result.not_found));
    }
    // Passive clients issue verbs, not requests, and report `issued` as 0:
    // there the ledger has nothing to balance.
    let bound = Cell::inflight_bound(cfg);
    let open = result.issued.checked_sub(result.completed_total);
    if result.issued != 0 && open.is_none_or(|o| o > bound) {
        out.push(format!(
            "{what}: issued {} completed {} leaves {open:?} in flight, bound {bound}",
            result.issued, result.completed_total
        ));
    }
    if result.completed == 0 {
        out.push(format!("{what}: nothing completed in the measured window"));
    }
    out
}

/// The untimed pass at unit-test scale under the linearizability oracle
/// (ledger only for Sherman, whose clients record no history).
fn validate(cell: &Cell, seed: u64, tr: &mut Tracer) -> Vec<String> {
    let cfg = RunConfig {
        oracle: cell.system != SystemKind::Sherman,
        ..cell.tiny_config(seed)
    };
    tr.enter_run("oracle.validate");
    let out = run_phased(cell.system, &cfg, tr);
    tr.exit();
    let mut breaches = ledger_breaches("validation", &out.result, &cfg);
    match &out.result.oracle {
        Some(report) if !report.ok() => breaches.push(format!(
            "validation: oracle found {} violations, first: {:?}",
            report.violations.len(),
            report.violations.first()
        )),
        None if cfg.oracle => breaches.push("validation: oracle report missing".into()),
        _ => {}
    }
    breaches
}

/// Runs `cell` under `cfg` (its full-size config, or a smaller one in tests).
pub fn run_cell(cell: &Cell, cfg: &RunConfig, opts: RunOpts) -> RunReport {
    let mut tr = if opts.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let validate_start = Instant::now();
    let mut breaches = validate(cell, opts.seed, &mut tr);
    let validate_s = validate_start.elapsed().as_secs_f64();

    let (min_reps, budget_s) = if opts.trace {
        (MIN_REPS_TRACED, opts.seconds / 2.0)
    } else {
        (MIN_REPS, opts.seconds)
    };
    let mut first: Option<(Outcome, u64)> = None;
    let mut setup_s = Vec::new();
    // slice_s[k][r]: host seconds rep r spent in slice k of the window.
    let mut slice_s = vec![Vec::new(); SLICES as usize];
    let mut measured_s = 0.0;
    let mut rss_mb = 0.0;
    while setup_s.len() < min_reps || measured_s < budget_s {
        let out = run_phased(cell.system, cfg, &mut Tracer::off());
        setup_s.push(out.setup_s);
        measured_s += out.measure_s();
        for (reps, &s) in slice_s.iter_mut().zip(&out.slice_s) {
            reps.push(s);
        }
        // Read after a fixed number of reps: how many more a run makes
        // depends on the host's speed, and the allocator's high-water mark
        // creeps with them (Sherman: 124 MB after three, 135 MB after some
        // fifth reps).
        if setup_s.len() == min_reps {
            rss_mb = peak_rss_mb();
        }
        let d = digest(&out.result);
        match &first {
            None => first = Some((out, d)),
            Some((_, d0)) if *d0 != d => breaches.push(format!(
                "rep {}: sim.digest {d:016x} differs from rep 0's {d0:016x}",
                setup_s.len() - 1
            )),
            Some(_) => {}
        }
    }
    let (first, digest0) = first.expect("at least one rep ran");
    breaches.extend(ledger_breaches("rep 0", &first.result, cfg));

    let r = &first.result;
    // Slice k is identical work in every rep, and interference on a shared
    // host only ever adds time: the window assembled from the fastest
    // observation of each slice is the least disturbed estimate.
    let fastest = |reps: &Vec<f64>| reps.iter().copied().fold(f64::INFINITY, f64::min);
    let measure_best: f64 = slice_s.iter().map(fastest).sum();
    let slice_med: Vec<f64> = slice_s.iter().map(|reps| median(reps)).collect();
    let measure_med: f64 = slice_med.iter().sum();
    let end_to_end = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "sim_ops_per_wall_s",
            r.completed as f64 / measure_best,
            "ops/s",
        ),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::new("sim_mops", r.mops, "Mops/s"),
        Metric::new("sim_mean_ns", r.mean_ns, "ns"),
    ];

    let mut per_layer = Vec::new();
    if opts.trace {
        let run = tr.enter_run("rep");
        let traced = run_phased(cell.system, cfg, &mut tr);
        tr.exit();
        let d = digest(&traced.result);
        if d != digest0 {
            breaches.push(format!(
                "traced rep: sim.digest {d:016x} differs from the untraced {digest0:016x}"
            ));
        }
        let shape = Shape {
            cores: first.cores,
            procs: first.procs,
        };
        let probed = probes::run_all(cfg, &shape, &mut tr);

        per_layer.push(Metric::new("host.oracle.validate_s", validate_s, "s"));
        per_layer.push(Metric::new("host.setup_cold_s", setup_s[0], "s"));
        per_layer.extend(host_phases(tr.spans(), run, &traced, &slice_med));
        per_layer.extend(probed.iter().map(|&(n, v)| Metric::new(n, v, "ns")));
        per_layer.extend(estimated_shares(&first, &probed, measure_med));
        per_layer.extend(sim_counters(&first, cfg, digest0));
    }

    RunReport {
        workload: cell.name,
        seed: opts.seed,
        reps: setup_s.len(),
        attempted: r.issued.max(r.completed_total),
        failed: r.failed + r.not_found,
        breaches,
        end_to_end,
        per_layer,
        spans: tr.spans().to_vec(),
    }
}

/// Host phases of the traced rep, one span each.
fn host_phases(
    spans: &[Span],
    run: u32,
    traced: &Outcome,
    untraced_slice_s: &[f64],
) -> Vec<Metric> {
    let phase = |metric, span| Metric::new(metric, seconds_of(spans, run, span), "s");
    let measure_s = seconds_of(spans, run, "sim.engine.measure");
    // Slice by slice against the untraced reps' median, then the median over
    // the slices: a burst of interference in either run moves few of them.
    let slowdown: Vec<f64> = traced
        .slice_s
        .iter()
        .zip(untraced_slice_s)
        .map(|(t, u)| t / u)
        .collect();
    vec![
        phase("host.core.build_world_s", "core.build_world"),
        phase("host.core.spawn_s", "core.spawn"),
        phase("host.sim.engine.warmup_s", "sim.engine.warmup"),
        phase("host.sim.engine.measure_s", "sim.engine.measure"),
        phase("host.core.extract_s", "core.extract"),
        Metric::new(
            "host.sim.engine.msteps_per_s",
            traced.window.steps as f64 / measure_s / 1e6,
            "Msteps/s",
        ),
        Metric::new(
            "host.us_per_sim_op",
            measure_s * 1e6 / traced.result.completed as f64,
            "us",
        ),
        Metric::new("trace.overhead_frac", median(&slowdown) - 1.0, "ratio"),
    ]
}

/// Count × probe ÷ measured seconds. An estimate: a probe times a layer on
/// its own, with the host's caches to itself, which the program never has.
fn estimated_shares(out: &Outcome, probed: &[(&str, f64)], measure_s: f64) -> Vec<Metric> {
    let ns = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let c = out.cache.combined();
    let window_ns = measure_s * 1e9;
    let engine = out.window.steps as f64 * ns("probe.sim.engine.ns_per_step") / window_ns;
    let cache = ((c.l1 + c.l2) as f64 * ns("probe.sim.cache.ns_per_access_resident")
        + c.llc_lookups() as f64 * ns("probe.sim.cache.ns_per_access_missing"))
        / window_ns;
    let workload = out.result.completed as f64 * ns("probe.workload.ns_per_op") / window_ns;
    vec![
        Metric::new("est.share.sim.engine", engine, "ratio"),
        Metric::new("est.share.sim.cache", cache, "ratio"),
        Metric::new("est.share.workload", workload, "ratio"),
        Metric::new("est.share.rest", 1.0 - engine - cache - workload, "ratio"),
    ]
}

/// Counters the program already emits, exact for a seed. A ratio whose
/// layer the cell bypasses reads 0.
fn sim_counters(out: &Outcome, cfg: &RunConfig, digest: u64) -> Vec<Metric> {
    let r = &out.result;
    let snap = r.stage_metrics.as_ref().expect("every runner snapshots");
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let hist = |name: &str| snap.hist(name);
    let ops = r.completed as f64;
    let c = out.cache.combined();
    let m = &out.cache;
    let tier = r.tier.unwrap_or_default();
    let value_len = cfg.workload.populate_value_len() as f64;
    let count = |name, v: f64| Metric::new(name, v, "count");
    let share = |name, a: f64, b: f64| Metric::new(name, ratio(a, b), "ratio");
    let per_op = |name, a: f64| Metric::new(name, ratio(a, ops), "1/op");
    let nanos = |name, v: f64| Metric::new(name, v, "ns");
    vec![
        // 48 bits, so the value survives a JSON reader that keeps doubles.
        Metric::new("sim.digest", (digest & 0xffff_ffff_ffff) as f64, "hash48"),
        count("sim.engine.steps", out.window.steps as f64),
        share(
            "sim.engine.burst_share",
            out.window.bursts as f64,
            out.window.steps as f64,
        ),
        count("sim.engine.wheel_cascades", out.window.cascades as f64),
        per_op("sim.engine.steps_per_op", out.window.steps as f64),
        per_op("sim.cache.accesses_per_op", c.total() as f64),
        share(
            "sim.cache.l1l2_hit_rate",
            (c.l1 + c.l2) as f64,
            c.total() as f64,
        ),
        Metric::new("sim.cache.llc_miss_rate_cr", r.llc_miss_cr, "ratio"),
        Metric::new("sim.cache.llc_miss_rate_mr", r.llc_miss_mr, "ratio"),
        Metric::new("sim.cache.llc_miss_rate_all", r.llc_miss_all, "ratio"),
        Metric::new(
            "sim.cache.dram_wait_ns_per_op",
            ratio(m.dram_wait_ps as f64 / NANOS as f64, ops),
            "ns/op",
        ),
        per_op("sim.cache.invalidations_per_op", m.invalidations as f64),
        per_op("sim.cache.ddio_allocs_per_op", m.ddio_allocs as f64),
        share(
            "sim.lock.spins_per_acquire",
            m.lock_spins as f64,
            m.lock_acquires as f64,
        ),
        share(
            "core.rpc.poll_hit_rate",
            counter("ring.poll_hits"),
            counter("ring.polls"),
        ),
        Metric::new("core.cr.local_frac", r.cr_local_frac, "ratio"),
        share(
            "core.hotcache.hit_rate",
            counter("hot.hits"),
            counter("hot.hits") + counter("hot.misses"),
        ),
        nanos(
            "core.cr.hit_path_p50_ns",
            hist("cr.hit_path_ns").map_or(0.0, |h| h.p50 as f64),
        ),
        nanos(
            "core.cr.hit_path_p99_ns",
            hist("cr.hit_path_ns").map_or(0.0, |h| h.p99 as f64),
        ),
        per_op("core.crmr.pushed_per_op", counter("crmr.pushed")),
        count(
            "core.crmr.lane_hwm",
            snap.gauge("crmr.lane_hwm").unwrap_or(0) as f64,
        ),
        count(
            "core.mr.batch_mean",
            hist("mr.batch_size").map_or(0.0, |h| h.mean),
        ),
        count(
            "core.mr.interleave_mean",
            hist("mr.interleave_depth").map_or(0.0, |h| h.mean),
        ),
        nanos(
            "core.mr.traversal_p50_ns",
            hist("mr.traversal_ns").map_or(0.0, |h| h.p50 as f64),
        ),
        nanos(
            "core.mr.traversal_p99_ns",
            hist("mr.traversal_ns").map_or(0.0, |h| h.p99 as f64),
        ),
        count("core.client.lat_samples", out.latency.count() as f64),
        nanos("core.client.p50_ns", r.p50_ns as f64),
        nanos("core.client.p99_ns", r.p99_ns as f64),
        nanos("core.client.p999_ns", out.latency.percentile(99.9) as f64),
        count("core.client.retransmits", r.retransmits as f64),
        share(
            "wal.records_per_group",
            tier.wal_records as f64,
            tier.wal_groups as f64,
        ),
        share(
            "wal.bytes_per_user_byte",
            tier.wal_bytes as f64,
            tier.wal_records as f64 * value_len,
        ),
        count("sim.device.writes", tier.device_writes as f64),
        count("sim.device.reads", tier.device_reads as f64),
        share(
            "core.tier.cold_hit_rate",
            tier.cold_hits as f64,
            (tier.cold_hits + tier.cold_misses) as f64,
        ),
        count("core.tier.compactions", tier.compactions as f64),
        count("core.tier.evicted", tier.evicted as f64),
        count(
            "core.tier.durable_lag",
            (tier.last_applied - tier.durable_seq) as f64,
        ),
    ]
}
