//! Experiment harness: builds a μTPS server world, drives it with closed-loop
//! clients, and extracts the measurements the paper reports.
//!
//! Baseline systems (BaseKV, eRPCKV, passive KVSs) reuse this module's
//! [`RunConfig`]/[`RunResult`] and client machinery from `utps-baselines`.

use utps_index::IndexKind;
use utps_sim::config::MachineConfig;
use utps_sim::time::{SimTime, MICROS, SECS};
use utps_sim::{
    Counter, Engine, FaultConfig, Gauge, Machine, MetricsRegistry, ScheduleEvent, ScheduleMode,
    StatClass, Total,
};
use utps_workload::{
    DynamicWorkload, EtcWorkload, KeyDist, Mix, TwitterCluster, TwitterWorkload, Workload,
    YcsbWorkload,
};

use crate::client::{ClientStats, DriverState};
use crate::crmr::CrMrQueue;
use crate::hotcache::HotCache;
use crate::retry::{DedupTable, RetryConfig};
use crate::rpc::{RecvRing, RespBuffers, SLOT_BYTES};
use crate::server::{split_ways, ServerConfig, UtpsWorker, UtpsWorld};
use crate::stage::PipelineRuntime;
use crate::store::KvStore;
use crate::system::{self, run_system, Proc, System};
use crate::tuner::{ManagerProc, Tuner, TunerEvent, TunerMode, TunerParams};

/// Which system to run (dispatch lives in `utps-baselines::run`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// μTPS (this crate).
    Utps,
    /// Run-to-completion baseline with the same RPC/batching/prefetching.
    BaseKv,
    /// eRPC + share-nothing key-mod dispatch.
    ErpcKv,
    /// Passive one-sided-RDMA hash KVS (RACE hashing).
    RaceHash,
    /// Passive one-sided-RDMA B+-tree KVS (Sherman).
    Sherman,
}

impl SystemKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Utps => "uTPS",
            SystemKind::BaseKv => "BaseKV",
            SystemKind::ErpcKv => "eRPCKV",
            SystemKind::RaceHash => "RaceHash",
            SystemKind::Sherman => "Sherman",
        }
    }
}

/// Which workload to generate.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// YCSB-style mix.
    Ycsb {
        /// Operation mix.
        mix: Mix,
        /// Zipfian θ (0 = uniform).
        theta: f64,
        /// Item size.
        value_len: usize,
        /// Mean scan length.
        scan_len: usize,
    },
    /// Meta ETC pool.
    Etc {
        /// Fraction of gets.
        get_ratio: f64,
    },
    /// Twitter cluster trace.
    Twitter {
        /// Which cluster.
        cluster: TwitterCluster,
    },
    /// Figure 14: YCSB-A, 512 B → 8 B at `switch_ns`.
    Fig14 {
        /// Value-size switch time (ns since simulation start, warm-up included).
        switch_ns: u64,
    },
}

impl WorkloadSpec {
    /// Builds a per-client generator stream.
    pub fn build(&self, keys: u64, seed: u64, stream: u64) -> Box<dyn Workload + Send> {
        match self {
            WorkloadSpec::Ycsb {
                mix,
                theta,
                value_len,
                scan_len,
            } => Box::new(YcsbWorkload::new(
                *mix,
                KeyDist::zipf(keys, *theta),
                *value_len,
                *scan_len,
                seed,
                stream,
            )),
            WorkloadSpec::Etc { get_ratio } => {
                Box::new(EtcWorkload::new(keys, *get_ratio, seed, stream))
            }
            WorkloadSpec::Twitter { cluster } => {
                Box::new(TwitterWorkload::new(*cluster, keys, seed, stream))
            }
            WorkloadSpec::Fig14 { switch_ns } => {
                Box::new(DynamicWorkload::figure14(keys, *switch_ns, seed, stream))
            }
        }
    }

    /// Representative item size for store population.
    pub fn populate_value_len(&self) -> usize {
        match self {
            WorkloadSpec::Ycsb { value_len, .. } => *value_len,
            WorkloadSpec::Etc { .. } => 64,
            WorkloadSpec::Twitter { cluster } => cluster.params().1,
            WorkloadSpec::Fig14 { .. } => 512,
        }
    }
}

/// Full configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Index structure (μTPS-H vs μTPS-T and baseline equivalents).
    pub index: IndexKind,
    /// Pre-populated keys (`0..keys`).
    pub keys: u64,
    /// Total server worker threads.
    pub workers: usize,
    /// Initial CR worker count (μTPS only).
    pub n_cr: usize,
    /// CR-MR batch size.
    pub batch: usize,
    /// Client endpoints.
    pub clients: usize,
    /// Outstanding requests per client.
    pub pipeline: usize,
    /// Warmup (ps) before measurement.
    pub warmup: u64,
    /// Measured duration (ps).
    pub duration: u64,
    /// RNG seed.
    pub seed: u64,
    /// Machine model.
    pub machine: MachineConfig,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Auto-tuner mode.
    pub tuner: TunerMode,
    /// Tuner parameters.
    pub tuner_params: TunerParams,
    /// Hot-cache target size (and the largest size the tuner probes).
    pub hot_capacity: usize,
    /// Whether the CR hot cache is enabled.
    pub cache_enabled: bool,
    /// Sample every Nth request for the hot-set tracker.
    pub sample_every: u32,
    /// Receive-ring slots.
    pub ring_slots: usize,
    /// Receive-slot size in bytes.
    pub slot_size: usize,
    /// Static MR way allocation (0 = all ways).
    pub mr_ways: usize,
    /// CR-MR queue transport (the §3.4 shared-queue counterfactual).
    pub queue_kind: crate::crmr::QueueKind,
    /// Throughput timeline sampling interval (ps; 0 = off).
    pub timeline_interval: u64,
    /// Fault-injection plan (default: zero plan, byte-identical to no plan).
    pub faults: FaultConfig,
    /// Client-side timeout/retransmit policy (default: disabled).
    pub retry: RetryConfig,
    /// MR descriptor-lease duration in ps (0 = leases off).
    pub lease_ps: u64,
    /// Record a client-observed op history (see `utps-oracle`). Free of
    /// simulated-time side effects; implied by [`RunConfig::oracle`].
    pub record_history: bool,
    /// Run the linearizability oracle over the recorded history after the
    /// run and attach its report to the result.
    pub oracle: bool,
    /// Scheduler perturbation: off, seeded exploration, or trace replay.
    pub schedule: ScheduleMode,
    /// Durable tier (WAL + cold sorted run) behind the MR layer. `None`
    /// (default) keeps every run byte-identical to the DRAM-only build.
    pub tier: Option<crate::tier::TierConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            index: IndexKind::Tree,
            keys: 200_000,
            workers: 8,
            n_cr: 3,
            batch: 8,
            clients: 16,
            pipeline: 4,
            warmup: 2 * utps_sim::time::MILLIS,
            duration: 6 * utps_sim::time::MILLIS,
            seed: 42,
            machine: MachineConfig::default(),
            workload: WorkloadSpec::Ycsb {
                mix: Mix::A,
                theta: 0.99,
                value_len: 64,
                scan_len: 50,
            },
            tuner: TunerMode::Off,
            tuner_params: TunerParams::default(),
            hot_capacity: 2_000,
            cache_enabled: true,
            sample_every: 8,
            ring_slots: 1 << 12,
            slot_size: SLOT_BYTES,
            mr_ways: 0,
            queue_kind: crate::crmr::QueueKind::AllToAll,
            timeline_interval: 0,
            faults: FaultConfig::default(),
            retry: RetryConfig::disabled(),
            lease_ps: 0,
            record_history: false,
            oracle: false,
            schedule: ScheduleMode::Off,
            tier: None,
        }
    }
}

/// Cluster-level measurements attached by the `utps-cluster` runner.
///
/// `None` for every single-machine run, which keeps [`stats_json`] (and the
/// goldens pinned on it) byte-identical outside cluster mode.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterStats {
    /// Server machines in the cluster.
    pub shards: usize,
    /// Live shard migrations completed during the run.
    pub migrations: u64,
    /// Hash slots handed to a new owner across all migrations.
    pub migrated_slots: u64,
    /// Items copied between machines across all migrations.
    pub migrated_items: u64,
    /// Requests bounced with the `moved` bit (client re-routed them).
    pub moved_bounces: u64,
    /// GETs served by a replica instead of the owning shard.
    pub replica_reads: u64,
    /// Replica entries refreshed after a write invalidated them.
    pub replica_refreshes: u64,
    /// Completed ops routed to small-object shards (measured window).
    pub routed_small: u64,
    /// Completed ops routed to large-object shards (measured window).
    pub routed_large: u64,
    /// p99 latency of small-class ops (ns, measured window).
    pub p99_small_ns: u64,
    /// p99.9 latency of small-class ops (ns).
    pub p999_small_ns: u64,
    /// p99 latency of large-class ops (ns).
    pub p99_large_ns: u64,
    /// p99.9 latency of large-class ops (ns).
    pub p999_large_ns: u64,
}

impl ClusterStats {
    /// Renders the `"cluster"` section of [`stats_json`], deterministically.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shards\":{},\"migrations\":{},\"migrated_slots\":{},\
             \"migrated_items\":{},\"moved_bounces\":{},\"replica_reads\":{},\
             \"replica_refreshes\":{},\"routed_small\":{},\"routed_large\":{},\
             \"p99_small_ns\":{},\"p999_small_ns\":{},\"p99_large_ns\":{},\
             \"p999_large_ns\":{}}}",
            self.shards,
            self.migrations,
            self.migrated_slots,
            self.migrated_items,
            self.moved_bounces,
            self.replica_reads,
            self.replica_refreshes,
            self.routed_small,
            self.routed_large,
            self.p99_small_ns,
            self.p999_small_ns,
            self.p99_large_ns,
            self.p999_large_ns,
        )
    }
}

/// Measurements extracted from one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Millions of operations per second over the measured window.
    pub mops: f64,
    /// Operations completed in the measured window.
    pub completed: u64,
    /// Median latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_ns: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// LLC miss rate of CR-layer threads.
    pub llc_miss_cr: f64,
    /// LLC miss rate of MR-layer threads.
    pub llc_miss_mr: f64,
    /// Combined LLC miss rate.
    pub llc_miss_all: f64,
    /// Fraction of requests served entirely at the CR layer.
    pub cr_local_frac: f64,
    /// Final CR worker count (after tuning).
    pub final_n_cr: usize,
    /// Final total workers.
    pub workers: usize,
    /// Final hot-cache size (items).
    pub final_cache_items: usize,
    /// Final MR-reused LLC ways (0 = all).
    pub final_mr_ways: usize,
    /// Throughput timeline: (seconds, Mops in the interval).
    pub timeline: Vec<(f64, f64)>,
    /// Tuner events rendered for reports.
    pub tuner_events: Vec<String>,
    /// Thread reassignments completed.
    pub reconfigs: usize,
    /// `ok=false` responses observed by clients post-warmup.
    pub not_found: u64,
    /// Requests issued over the whole run (warmup + measurement).
    pub issued: u64,
    /// Responses completed over the whole run (warmup + measurement).
    pub completed_total: u64,
    /// Timed-out requests retransmitted by clients.
    pub retransmits: u64,
    /// Duplicate responses discarded by clients.
    pub dup_resps: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub failed: u64,
    /// Stage-level metrics snapshot at the end of the measured window
    /// (per-stage counters, latency histograms, occupancy high-water marks).
    pub stage_metrics: Option<utps_sim::MetricsSnapshot>,
    /// Tuner decision log: every trisection probe taken during the run.
    pub tuner_probes: Vec<crate::tuner::TunerProbe>,
    /// Digest of the recorded op history (`None` when recording was off).
    /// Interleaving-sensitive: goldens on this catch schedule regressions
    /// that aggregate stats miss. Excluded from [`stats_json`].
    pub history_digest: Option<u64>,
    /// Linearizability report (`None` when the oracle was off).
    pub oracle: Option<utps_oracle::Report>,
    /// Schedule perturbations applied this run (empty when off); the trace
    /// to replay or shrink a failing exploration seed.
    pub schedule_trace: Vec<ScheduleEvent>,
    /// Cluster-level stats; `None` outside `utps-cluster` runs.
    pub cluster: Option<ClusterStats>,
    /// Durable-tier stats; `None` when the tier is disabled (which keeps
    /// [`stats_json`] byte-identical to the pre-tier goldens).
    pub tier: Option<crate::tier::TierRunStats>,
    /// Payload-arena slots still occupied when the run ends, summed over
    /// every machine: the leak half of the `PayloadRef` linearity rule (the
    /// compiler owns the other half). A closed loop bounds it by the
    /// requests in flight, `clients × pipeline`; a handle dropped without
    /// `take`/`free` grows it with run length. Excluded from [`stats_json`].
    pub payloads_live: usize,
}

impl RunResult {
    /// The one constructor: headline numbers from the client-side driver
    /// state (found in the world by `driver`), cache metrics and the
    /// registry snapshot from machine 0, live payloads from every machine.
    /// Fields only a particular system knows start at the
    /// thread-model-free values and are patched by [`System::overlay`].
    pub fn new<W>(
        cfg: &RunConfig,
        eng: &mut Engine<W>,
        driver: impl FnOnce(&mut W) -> &DriverState,
    ) -> RunResult {
        let payloads_live = (0..eng.machine_count())
            .map(|m| eng.machine_at(m).payloads.live())
            .sum();
        let total = |c| -> u64 {
            let machines = 0..eng.machine_count();
            machines
                .map(|m| eng.machine_at(m).registry.counter(c))
                .sum()
        };
        let (hits, forwards) = (total(Counter::CrHit), total(Counter::CrForward));
        let (world, machine) = eng.world_and_machine(0);
        let driver = driver(world);
        // Every fault and robustness counter is in the schema, faulty run
        // or not.
        machine.registry.pin(&[
            Counter::FaultRxDrop,
            Counter::FaultRxDup,
            Counter::FaultRxDelay,
            Counter::FaultStallDefer,
            Counter::CrmrCorrupt,
            Counter::CrmrLeaseReclaim,
            Counter::ClientRetransmit,
            Counter::ClientDupResp,
            Counter::ClientFailed,
            Counter::ServerDupSuppressed,
            Counter::TunerFrozenWindows,
        ]);
        let metrics = &machine.cache.metrics;
        let hist = driver.merged_hist();
        let completed = driver.completed();
        let secs = cfg.duration as f64 / SECS as f64;
        let (history_digest, oracle) = oracle_results(cfg, driver);
        let sum = |f: fn(&ClientStats) -> u64| -> u64 { driver.clients.iter().map(f).sum() };
        RunResult {
            mops: completed as f64 / secs / 1e6,
            completed,
            p50_ns: hist.percentile(50.0),
            p99_ns: hist.percentile(99.0),
            mean_ns: hist.mean(),
            llc_miss_cr: metrics.class[StatClass::Cr as usize].llc_miss_rate(),
            llc_miss_mr: metrics.class[StatClass::Mr as usize].llc_miss_rate(),
            llc_miss_all: metrics.combined().llc_miss_rate(),
            cr_local_frac: hits as f64 / (hits + forwards).max(1) as f64,
            final_n_cr: 0,
            workers: cfg.workers,
            final_cache_items: 0,
            final_mr_ways: 0,
            timeline: render_timeline(&driver.timeline, cfg.timeline_interval),
            tuner_events: Vec::new(),
            reconfigs: 0,
            not_found: sum(|c| c.not_found),
            issued: sum(|c| c.issued),
            completed_total: driver.completed_total().get(),
            retransmits: sum(|c| c.retransmits),
            dup_resps: sum(|c| c.dup_resps),
            failed: sum(|c| c.failed),
            stage_metrics: Some(
                machine
                    .registry
                    .snapshot(SimTime(cfg.warmup + cfg.duration)),
            ),
            tuner_probes: Vec::new(),
            history_digest,
            oracle,
            schedule_trace: machine.schedule.trace().to_vec(),
            cluster: None,
            tier: None,
            payloads_live,
        }
    }

    /// Ops issued and not yet resolved, by [`ClientStats`]'s exactly-once
    /// ledger. `None` when more ops resolved than were issued, and so always
    /// for RaceHash and Sherman, whose clients report `issued` as 0.
    pub fn in_flight(&self) -> Option<u64> {
        self.issued.checked_sub(self.completed_total + self.failed)
    }
}

/// μTPS as a [`System`]: CR/MR workers, the manager on its own core, and
/// (with the tier) the compactor sharing the manager core.
pub struct Utps;

impl System for Utps {
    type World = UtpsWorld;

    fn cores(cfg: &RunConfig) -> usize {
        cfg.workers + 1
    }

    fn build_world(cfg: &RunConfig) -> UtpsWorld {
        build_utps_world(cfg)
    }

    /// Static CLOS assignment of the MR workers when the tuner is off.
    fn prepare_machine(cfg: &RunConfig, machine: &mut Machine) {
        split_ways(&mut machine.cache, cfg.n_cr, cfg.workers, cfg.mr_ways);
    }

    fn procs(cfg: &RunConfig, world: &UtpsWorld) -> Vec<Proc<UtpsWorld>> {
        let mut procs: Vec<Proc<UtpsWorld>> = (0..cfg.workers)
            .map(|id| {
                let class = if id < cfg.n_cr {
                    StatClass::Cr
                } else {
                    StatClass::Mr
                };
                let worker = UtpsWorker::new(id, &world.cfg);
                (Some(id), class, Box::new(worker) as _)
            })
            .collect();
        // Manager on its own core.
        let tuner = Tuner::new(cfg.tuner, cfg.tuner_params.clone(), cfg.hot_capacity);
        let refresh = (cfg.warmup / 2).max(500 * MICROS);
        procs.push((
            Some(cfg.workers),
            StatClass::Other,
            Box::new(ManagerProc::new(tuner, refresh, cfg.hot_capacity)),
        ));
        // Background compactor shares the manager core.
        if let Some(tc) = &cfg.tier {
            procs.push((
                Some(cfg.workers),
                StatClass::Other,
                Box::new(crate::tier::TierCompactorProc::new(
                    cfg.keys,
                    SimTime(tc.compact_every_ps),
                )),
            ));
        }
        procs
    }

    fn spawn_clients(rt: &mut PipelineRuntime<UtpsWorld>, cfg: &RunConfig) {
        rt.spawn_clients(cfg);
    }

    fn driver(w: &UtpsWorld) -> &DriverState {
        &w.driver
    }

    fn fold(w: &UtpsWorld, reg: &mut MetricsRegistry) {
        // A cache-off run never probes the hot cache.
        reg.pin(&[
            Counter::HotHits,
            Counter::HotMisses,
            Counter::RingDma,
            Counter::RingPollHits,
            Counter::RingPolls,
        ]);
        // The `server.*` keys restate CR counters of the same events.
        let responses =
            reg.counter(Counter::CrResponse) + reg.counter(Counter::ServerDupSuppressed);
        reg.add(Counter::ServerResponses, responses);
        reg.add(Counter::ServerCrLocal, reg.counter(Counter::CrHit));
        reg.add(Counter::ServerForwarded, reg.counter(Counter::CrForward));
        // End-of-run levels.
        reg.add(Counter::CrmrPushed, w.crmr.total_pushed());
        reg.set(Gauge::CfgNCr, w.cfg.n_cr as u64);
        reg.set(Gauge::CfgCacheItems, w.hot.len() as u64);
        reg.set(Gauge::CfgMrWays, w.mr_ways as u64);
        if let Some(tier) = &w.tier {
            tier.fold_into(reg);
        }
    }

    fn overlay(worlds: &[&UtpsWorld], r: &mut RunResult) {
        r.reconfigs = worlds.iter().map(|w| w.reconfig_events.len()).sum();
        let w = worlds[0];
        r.final_n_cr = w.cfg.n_cr;
        r.workers = w.cfg.workers;
        r.final_cache_items = w.hot.len();
        r.final_mr_ways = w.mr_ways;
        r.tuner_events = render_tuner_events(&w.tuner_trace);
        r.tuner_probes = w.tuner_probes.clone();
        let snap = r.stage_metrics.as_ref();
        r.tier =
            (w.tier.as_ref().zip(snap)).map(|(t, s)| crate::tier::TierRunStats::from_tier(t, s));
    }
}

/// Runs μTPS under `cfg` and returns its measurements.
pub fn run_utps(cfg: &RunConfig) -> RunResult {
    run_system::<Utps>(cfg).0
}

/// Builds a fresh μTPS server world for `cfg` (populated store, empty
/// tier). The crash runner reuses this and then swaps in recovered state.
pub fn build_utps_world(cfg: &RunConfig) -> UtpsWorld {
    let populate_len = cfg.workload.populate_value_len();
    let store = KvStore::populate(cfg.index, cfg.keys, populate_len);
    assert!(
        cfg.n_cr >= 1 && cfg.n_cr < cfg.workers,
        "need ≥1 worker per layer"
    );

    let server_cfg = ServerConfig {
        workers: cfg.workers,
        n_cr: cfg.n_cr,
        batch: cfg.batch,
        sample_every: cfg.sample_every,
        cache_enabled: cfg.cache_enabled,
        lease_ps: cfg.lease_ps,
    };
    UtpsWorld {
        fabric: utps_sim::Fabric::new(cfg.machine.net.clone(), cfg.clients),
        ring: RecvRing::new(cfg.ring_slots, cfg.slot_size),
        resp: RespBuffers::new(cfg.workers, 64, SLOT_BYTES),
        store,
        crmr: CrMrQueue::with_kind(cfg.workers, 256, cfg.queue_kind),
        hot: HotCache::new(if cfg.cache_enabled {
            cfg.hot_capacity
        } else {
            0
        }),
        cfg: server_cfg,
        reconfig: None,
        samples: (0..cfg.workers).map(|_| Default::default()).collect(),
        scan_skips: Default::default(),
        reconfig_events: Vec::new(),
        driver: DriverState::new(cfg.clients, SimTime(cfg.warmup)),
        mr_ways: cfg.mr_ways,
        tuner_trace: Vec::new(),
        tuner_probes: Vec::new(),
        dedup: DedupTable::new(cfg.clients, cfg.retry.enabled() || cfg.faults.net_active()),
        cluster: None,
        tier: cfg
            .tier
            .clone()
            .map(|t| crate::tier::TierState::new(t, cfg.seed)),
    }
}

/// [`Utps`]'s machine set-up and server processes on a runtime
/// ([`system::spawn_procs`]).
pub fn spawn_utps_procs(rt: &mut PipelineRuntime<UtpsWorld>, cfg: &RunConfig) {
    system::spawn_procs::<Utps>(rt, cfg);
}

/// [`Utps`]'s warmup-boundary hook, in the shape [`PipelineRuntime::run`]
/// takes. Nothing is left for it to do: `run` resets every counter itself.
pub fn reset_utps_counters(_eng: &mut Engine<UtpsWorld>) {}

/// Builds the [`RunResult`] from a finished μTPS engine
/// ([`system::extract`]).
pub fn extract_result(cfg: &RunConfig, eng: &mut Engine<UtpsWorld>) -> RunResult {
    system::extract::<Utps>(cfg, eng)
}

/// Digests the recorded history and, when `cfg.oracle` is set, checks it
/// against the sequential model seeded with the run's initial population.
fn oracle_results(
    cfg: &RunConfig,
    driver: &DriverState,
) -> (Option<u64>, Option<utps_oracle::Report>) {
    let Some(h) = driver.history.as_ref() else {
        return (None, None);
    };
    let digest = Some(h.digest());
    if !cfg.oracle {
        return (digest, None);
    }
    let init = utps_oracle::InitialState {
        keys: cfg.keys,
        value_digest: utps_oracle::fill_digest(0xab, cfg.workload.populate_value_len()),
    };
    (digest, Some(utps_oracle::check(h, &init)))
}

/// Renders the tuner decision log as a deterministic JSON array.
pub(crate) fn tuner_probes_json(probes: &[crate::tuner::TunerProbe]) -> String {
    use utps_sim::metrics::json_f64;
    let mut s = String::from("[");
    for (i, p) in probes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"at_ps\":{},\"phase\":\"{}\",\"cache_items\":{},\"n_cr\":{},\
             \"mr_ways\":{},\"objective\":{},\"accepted\":{}}}",
            p.at.as_ps(),
            p.phase.name(),
            p.cache_items,
            p.n_cr,
            p.mr_ways,
            json_f64(p.objective),
            p.accepted,
        ));
    }
    s.push(']');
    s
}

/// Renders a [`RunResult`] — headline numbers, the stage-metrics snapshot,
/// and the tuner decision log — as one deterministic JSON document. This is
/// the machine-readable sidecar the bench binaries write next to their CSVs.
pub fn stats_json(r: &RunResult) -> String {
    use utps_sim::metrics::json_f64;
    let mut s = String::from("{");
    s.push_str(&format!("\"mops\":{},", json_f64(r.mops)));
    s.push_str(&format!("\"completed\":{},", r.completed));
    s.push_str(&format!("\"p50_ns\":{},", r.p50_ns));
    s.push_str(&format!("\"p99_ns\":{},", r.p99_ns));
    s.push_str(&format!("\"mean_ns\":{},", json_f64(r.mean_ns)));
    s.push_str(&format!("\"llc_miss_cr\":{},", json_f64(r.llc_miss_cr)));
    s.push_str(&format!("\"llc_miss_mr\":{},", json_f64(r.llc_miss_mr)));
    s.push_str(&format!("\"llc_miss_all\":{},", json_f64(r.llc_miss_all)));
    s.push_str(&format!("\"cr_local_frac\":{},", json_f64(r.cr_local_frac)));
    s.push_str(&format!("\"final_n_cr\":{},", r.final_n_cr));
    s.push_str(&format!("\"workers\":{},", r.workers));
    s.push_str(&format!("\"final_cache_items\":{},", r.final_cache_items));
    s.push_str(&format!("\"final_mr_ways\":{},", r.final_mr_ways));
    s.push_str(&format!("\"reconfigs\":{},", r.reconfigs));
    s.push_str(&format!("\"not_found\":{},", r.not_found));
    s.push_str(&format!("\"issued\":{},", r.issued));
    s.push_str(&format!("\"completed_total\":{},", r.completed_total));
    s.push_str(&format!("\"retransmits\":{},", r.retransmits));
    s.push_str(&format!("\"dup_resps\":{},", r.dup_resps));
    s.push_str(&format!("\"failed\":{},", r.failed));
    // Cluster section only in cluster runs: single-machine documents stay
    // byte-identical to the pre-cluster goldens.
    if let Some(c) = &r.cluster {
        s.push_str(&format!("\"cluster\":{},", c.to_json()));
    }
    // Same pattern for the durable tier: section present only when enabled.
    if let Some(t) = &r.tier {
        s.push_str(&format!("\"tier\":{},", t.to_json()));
    }
    s.push_str(&format!(
        "\"tuner_probes\":{},",
        tuner_probes_json(&r.tuner_probes)
    ));
    match &r.stage_metrics {
        Some(snap) => s.push_str(&format!("\"stage_metrics\":{}", snap.to_json())),
        None => s.push_str("\"stage_metrics\":null"),
    }
    s.push('}');
    s
}

/// Converts raw (time, cumulative-count) samples into (sec, Mops) intervals.
fn render_timeline(samples: &[(SimTime, Total)], interval: u64) -> Vec<(f64, f64)> {
    if interval == 0 || samples.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(samples.len());
    let mut prev = Total::default();
    for &(t, total) in samples {
        let delta = total.since(prev);
        prev = total;
        let mops = delta as f64 / (interval as f64 / SECS as f64) / 1e6;
        out.push((t.as_secs_f64(), mops));
    }
    out
}

/// Renders tuner events as strings for reports.
fn render_tuner_events(trace: &[TunerEvent]) -> Vec<String> {
    trace
        .iter()
        .map(|e| match e {
            TunerEvent::SearchStarted(t) => format!("{:.3}s search-start", t.as_secs_f64()),
            TunerEvent::Applied(t, n_cr, k, w) => format!(
                "{:.3}s applied n_cr={n_cr} cache={k} mr_ways={w}",
                t.as_secs_f64()
            ),
            TunerEvent::SearchEnded(t) => format!("{:.3}s search-end", t.as_secs_f64()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        RunConfig {
            keys: 20_000,
            workers: 4,
            n_cr: 2,
            clients: 8,
            pipeline: 4,
            warmup: 500 * MICROS,
            duration: 1_500 * MICROS,
            machine: MachineConfig::tiny(),
            hot_capacity: 500,
            ..RunConfig::default()
        }
    }

    #[test]
    fn utps_tree_end_to_end() {
        let cfg = RunConfig {
            index: IndexKind::Tree,
            ..quick_cfg()
        };
        let r = run_utps(&cfg);
        assert!(r.completed > 500, "only {} ops completed", r.completed);
        assert!(r.p50_ns >= 1_800, "p50 {} below RTT", r.p50_ns);
        assert!(r.mops > 0.1, "throughput {}", r.mops);
        assert_eq!(r.not_found, 0, "keys must all exist");
    }

    #[test]
    fn in_flight_is_none_once_resolved_exceeds_issued() {
        let cfg = quick_cfg();
        let mut r = run_utps(&cfg);
        let open = r.in_flight().expect("an honest run balances its ledger");
        assert!(open <= (cfg.clients * cfg.pipeline) as u64);
        r.failed += open + 1; // every open op fails, and one resolves twice
        assert_eq!(r.in_flight(), None);
    }

    #[test]
    fn utps_hash_end_to_end() {
        let cfg = RunConfig {
            index: IndexKind::Hash,
            workload: WorkloadSpec::Ycsb {
                mix: Mix::B,
                theta: 0.99,
                value_len: 8,
                scan_len: 50,
            },
            ..quick_cfg()
        };
        let r = run_utps(&cfg);
        assert!(r.completed > 500, "only {} ops completed", r.completed);
        assert_eq!(r.not_found, 0);
    }

    #[test]
    fn hot_cache_serves_skewed_traffic() {
        let cfg = RunConfig {
            workload: WorkloadSpec::Ycsb {
                mix: Mix::C,
                theta: 0.99,
                value_len: 8,
                scan_len: 50,
            },
            ..quick_cfg()
        };
        let r = run_utps(&cfg);
        assert!(
            r.cr_local_frac > 0.10,
            "CR layer served only {:.1}% locally",
            r.cr_local_frac * 100.0
        );
    }

    #[test]
    fn tier_enabled_run_serves_evicted_keys() {
        let cfg = RunConfig {
            record_history: true,
            tier: Some(crate::tier::TierConfig {
                dram_items_max: 15_000,
                evict_batch: 256,
                compact_every_ps: 100 * MICROS,
                ..Default::default()
            }),
            ..quick_cfg()
        };
        let (r, w) = run_system::<Utps>(&cfg);
        assert!(r.completed > 500, "only {} ops completed", r.completed);
        let t = r.tier.expect("tier stats attached");
        assert!(t.wal_records > 0, "writes must hit the WAL");
        assert!(t.wal_groups > 0);
        assert!(t.durable_seq <= t.last_applied);
        assert!(t.evicted > 0, "compactor never evicted");
        assert!(t.compactions > 0);
        // Mix::A has no deletes and every key is pre-populated: any read of
        // an evicted key must be served from the cold run, so clients never
        // observe a miss.
        assert_eq!(r.not_found, 0, "cold tier must serve evicted keys");
        let tier = w.tier.expect("tier state");
        assert!(tier.run_items() > 0);
        // Determinism: same seed, byte-identical history.
        let (r2, _) = run_system::<Utps>(&cfg);
        assert_eq!(r.history_digest, r2.history_digest);
        assert_eq!(r.completed, r2.completed);
    }

    #[test]
    fn scans_work_end_to_end() {
        let cfg = RunConfig {
            workload: WorkloadSpec::Ycsb {
                mix: Mix::E,
                theta: 0.99,
                value_len: 8,
                scan_len: 10,
            },
            ..quick_cfg()
        };
        let r = run_utps(&cfg);
        assert!(r.completed > 200, "only {} scans completed", r.completed);
    }
}
