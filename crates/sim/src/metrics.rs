//! Access counters — the simulator's equivalent of Intel PCM — plus the
//! stage-level metrics registry.
//!
//! Counters are kept per [`StatClass`](crate::cache::StatClass) (cache-resident
//! layer, memory-resident layer, other), which is how the paper reports LLC
//! miss rates per stage in §2.2.1.
//!
//! The [`MetricsRegistry`] complements the PCM-style counters with per-stage
//! instruments — counters, high-water-mark gauges, and log-bucketed latency
//! histograms — that any process can record into through
//! `ctx.machine().registry`. Each instrument is a variant of [`Counter`],
//! [`Gauge`] or [`Hist`], which carries its `stats_json` key, so the enums
//! are the stats schema. A registry can be snapshotted at any
//! [`SimTime`] into a [`MetricsSnapshot`], which serializes to deterministic
//! JSON (keys sorted, no host addresses), so two same-seed runs produce
//! byte-identical snapshots.

use utps_collections::LatencyHistogram;

use crate::time::SimTime;

/// Where a memory access was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Served by the core's L1 data cache.
    L1,
    /// Served by the core's private L2.
    L2,
    /// Served by the shared LLC.
    Llc,
    /// Served by main memory (LLC miss).
    Dram,
    /// Served by a cache-to-cache transfer from another core.
    Remote,
}

/// Per-class access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// L1 hits.
    pub l1: u64,
    /// L2 hits.
    pub l2: u64,
    /// LLC hits.
    pub llc: u64,
    /// DRAM accesses (LLC misses).
    pub dram: u64,
    /// Cache-to-cache transfers.
    pub remote: u64,
}

impl ClassCounters {
    /// Total number of accesses.
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.llc + self.dram + self.remote
    }

    /// Accesses that reached the LLC (i.e. missed both private levels).
    pub fn llc_lookups(&self) -> u64 {
        self.llc + self.dram + self.remote
    }

    /// LLC miss rate among accesses that reached the LLC, as in PCM's
    /// `LLC misses / LLC references`. Returns 0 when there were none.
    pub fn llc_miss_rate(&self) -> f64 {
        let lookups = self.llc_lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.dram + self.remote) as f64 / lookups as f64
        }
    }

    fn record(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::L1 => self.l1 += 1,
            AccessKind::L2 => self.l2 += 1,
            AccessKind::Llc => self.llc += 1,
            AccessKind::Dram => self.dram += 1,
            AccessKind::Remote => self.remote += 1,
        }
    }
}

/// Number of stat classes (see [`crate::cache::StatClass`]).
pub const NUM_CLASSES: usize = 3;

/// Machine-wide metrics: per-class cache counters plus event tallies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Cache counters indexed by stat class.
    pub class: [ClassCounters; NUM_CLASSES],
    /// Lines written into the LLC by the NIC via DDIO.
    pub ddio_allocs: u64,
    /// NIC writes that updated a line already resident in the LLC.
    pub ddio_updates: u64,
    /// Private-cache copies invalidated by writes/atomics of other agents.
    pub invalidations: u64,
    /// Failed lock acquisition attempts (spins).
    pub lock_spins: u64,
    /// Successful lock acquisitions.
    pub lock_acquires: u64,
    /// Total picoseconds of CAS-storm serialization waits.
    pub storm_wait_ps: u64,
    /// Total picoseconds of DRAM-channel queuing waits.
    pub dram_wait_ps: u64,
}

impl Metrics {
    /// Records an access of `kind` attributed to `class`.
    #[inline]
    pub fn record(&mut self, class: usize, kind: AccessKind) {
        self.class[class].record(kind);
    }

    /// Sum of the per-class counters.
    pub fn combined(&self) -> ClassCounters {
        let mut out = ClassCounters::default();
        for c in &self.class {
            out.l1 += c.l1;
            out.l2 += c.l2;
            out.llc += c.llc;
            out.dram += c.dram;
            out.remote += c.remote;
        }
        out
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }
}

/// Declares an instrument-name enum: one variant per `stats_json` key, each
/// key written once. Variants are declared in name order
/// (`instrument_names_are_sorted_and_unique` holds them there), so `ALL` is
/// the snapshot order, `from_name` can binary-search it, and `v as usize`
/// is `v`'s slot in the registry.
macro_rules! instruments {
    ($(#[$doc:meta])* $kind:ident { $($(#[$vdoc:meta])* $variant:ident = $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $kind {
            $($(#[$vdoc])* $variant,)*
        }

        impl $kind {
            /// Every variant, in name order (the snapshot order).
            pub const ALL: &'static [$kind] = &[$($kind::$variant,)*];

            /// The instrument's `stats_json` key.
            pub const fn name(self) -> &'static str {
                match self {
                    $($kind::$variant => $name,)*
                }
            }

            /// The variant whose key is `name`, if any.
            pub fn from_name(name: &str) -> Option<Self> {
                Self::ALL
                    .binary_search_by(|v| v.name().cmp(name))
                    .ok()
                    .map(|i| Self::ALL[i])
            }
        }
    };
}

instruments! {
    /// A monotone event counter in the [`MetricsRegistry`].
    Counter {
        /// A client received a response for a request it had already completed.
        ClientDupResp = "client.dup_resp",
        /// A client gave up on a request after its last retry.
        ClientFailed = "client.failed",
        /// A client re-sent a request whose response timed out.
        ClientRetransmit = "client.retransmit",
        /// Items moved between shards by rebalancing.
        ClusterMigratedItems = "cluster.migrated_items",
        /// Hash slots moved between shards by rebalancing.
        ClusterMigratedSlots = "cluster.migrated_slots",
        /// Rebalancing migrations carried out.
        ClusterMigrations = "cluster.migrations",
        /// Requests a shard bounced because their slot had moved.
        ClusterMovedBounce = "cluster.moved_bounce",
        /// Reads served by a hot-key replica.
        ClusterReplicaRead = "cluster.replica_read",
        /// Hot-key replica refreshes.
        ClusterReplicaRefresh = "cluster.replica_refresh",
        /// Requests routed to the large-value shard class.
        ClusterRoutedLarge = "cluster.routed_large",
        /// Requests routed to the small-value shard class.
        ClusterRoutedSmall = "cluster.routed_small",
        /// CR requests forwarded to the MR layer.
        CrForward = "cr.forward",
        /// CR requests answered from the hot cache.
        CrHit = "cr.hit",
        /// CR requests that missed the hot cache.
        CrMiss = "cr.miss",
        /// Responses sent by a CR worker.
        CrResponse = "cr.response",
        /// Injected CR–MR descriptor corruptions (the consumer re-reads the batch).
        CrmrCorrupt = "crmr.corrupt",
        /// Expired CR–MR leases reclaimed.
        CrmrLeaseReclaim = "crmr.lease_reclaim",
        /// Descriptors pushed into the CR–MR queue.
        CrmrPushed = "crmr.pushed",
        /// Persistence-device reads (tier runs only).
        DeviceReads = "device.reads",
        /// Persistence-device writes (tier runs only).
        DeviceWrites = "device.writes",
        /// Received packets delayed by fault injection.
        FaultRxDelay = "fault.rx_delay",
        /// Received packets dropped by fault injection.
        FaultRxDrop = "fault.rx_drop",
        /// Received packets duplicated by fault injection.
        FaultRxDup = "fault.rx_dup",
        /// Process steps deferred by an injected core stall.
        FaultStallDefer = "fault.stall_defer",
        /// Hot-cache lookups that hit.
        HotHits = "hot.hits",
        /// Hot-cache lookups that missed.
        HotMisses = "hot.misses",
        /// Requests DMA'd into the receive ring.
        RingDma = "ring.dma",
        /// Receive-ring polls that found a request.
        RingPollHits = "ring.poll_hits",
        /// Receive-ring polls.
        RingPolls = "ring.polls",
        /// Steps stalled by the schedule explorer.
        ScheduleStall = "schedule.stall",
        /// Requests served entirely in the CR layer.
        ServerCrLocal = "server.cr_local",
        /// Duplicate writes the dedup table kept from executing twice.
        ServerDupSuppressed = "server.dup_suppressed",
        /// Requests forwarded to the MR layer.
        ServerForwarded = "server.forwarded",
        /// Requests rejected as malformed.
        ServerMalformedReq = "server.malformed_req",
        /// Responses sent by the server.
        ServerResponses = "server.responses",
        /// Cold-tier reads that found the key.
        TierColdHit = "tier.cold_hit",
        /// Cold-tier reads that did not find the key.
        TierColdMiss = "tier.cold_miss",
        /// Cold-tier compactions.
        TierCompactions = "tier.compactions",
        /// Items evicted from memory to the cold tier.
        TierEvicted = "tier.evicted",
        /// Items in the cold tier's run.
        TierRunItems = "tier.run_items",
        /// Tombstones in the cold tier's run.
        TierTombstones = "tier.tombstones",
        /// Tuner windows frozen because injected faults disturbed them.
        TunerFrozenWindows = "tuner.frozen_windows",
        /// Bytes appended to the write-ahead log.
        WalBytes = "wal.bytes",
        /// Write-ahead-log group commits.
        WalGroups = "wal.groups",
        /// Records appended to the write-ahead log.
        WalRecords = "wal.records",
    }
}

instruments! {
    /// A last-value or high-water-mark gauge in the [`MetricsRegistry`].
    Gauge {
        /// Hot-cache capacity at the end of the run.
        CfgCacheItems = "cfg.cache_items",
        /// LLC ways reserved for the MR layer at the end of the run.
        CfgMrWays = "cfg.mr_ways",
        /// CR workers at the end of the run.
        CfgNCr = "cfg.n_cr",
        /// Shards in a cluster run.
        ClusterShards = "cluster.shards",
        /// High-water mark of one CR–MR lane's occupancy.
        CrmrLaneHwm = "crmr.lane_hwm",
        /// High-water mark of the shared CR–MR queue's occupancy.
        CrmrSharedHwm = "crmr.shared_hwm",
        /// p99 latency of large-value requests in a cluster run (ns).
        LatencyP99Large = "latency.p99.large",
        /// p99 latency of small-value requests in a cluster run (ns).
        LatencyP99Small = "latency.p99.small",
        /// p99.9 latency of large-value requests in a cluster run (ns).
        LatencyP999Large = "latency.p999.large",
        /// p99.9 latency of small-value requests in a cluster run (ns).
        LatencyP999Small = "latency.p999.small",
    }
}

instruments! {
    /// A latency or size histogram in the [`MetricsRegistry`].
    Hist {
        /// Time from a CR worker taking a request to its local response (ns).
        CrHitPathNs = "cr.hit_path_ns",
        /// Descriptors an MR worker took from the CR–MR queue per batch.
        MrBatchSize = "mr.batch_size",
        /// Index operations an MR worker had in flight at once.
        MrInterleaveDepth = "mr.interleave_depth",
        /// Time an MR worker spent on one index operation (ns).
        MrTraversalNs = "mr.traversal_ns",
    }
}

/// Typed per-stage instruments: counters, gauges and latency histograms
/// (log2 buckets via [`LatencyHistogram`]), one slot per [`Counter`],
/// [`Gauge`] and [`Hist`] variant.
///
/// The kind is part of the name's type, so a histogram cannot be counted:
///
/// ```compile_fail,E0308
/// use utps_sim::metrics::{Hist, MetricsRegistry};
/// let mut reg = MetricsRegistry::new();
/// reg.inc(Hist::MrBatchSize);
/// ```
///
/// and a misspelled name does not exist:
///
/// ```compile_fail,E0599
/// use utps_sim::metrics::{Counter, MetricsRegistry};
/// let mut reg = MetricsRegistry::new();
/// reg.inc(Counter::CrHti);
/// ```
///
/// The well-typed forms compile:
///
/// ```
/// use utps_sim::metrics::{Counter, Hist, MetricsRegistry};
/// let mut reg = MetricsRegistry::new();
/// reg.inc(Counter::CrHit);
/// reg.record(Hist::MrBatchSize, 8);
/// assert_eq!(reg.counter(Counter::CrHit), 1);
/// ```
///
/// An instrument appears in a snapshot iff it was touched since the last
/// [`reset`](Self::reset); snapshots list instruments in name order, so
/// two same-seed runs produce byte-identical JSON.
pub struct MetricsRegistry {
    counters: [Option<u64>; Counter::ALL.len()],
    gauges: [Option<u64>; Gauge::ALL.len()],
    hists: [Option<LatencyHistogram>; Hist::ALL.len()],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [None; Counter::ALL.len()],
            gauges: [None; Gauge::ALL.len()],
            hists: [const { None }; Hist::ALL.len()],
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to counter `c` (creating it at zero).
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        *self.counters[c as usize].get_or_insert(0) += n;
    }

    /// Increments counter `c` by one.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Touches each of `cs` at zero, so its key is in every snapshot even
    /// when its event never fires.
    pub fn pin(&mut self, cs: &[Counter]) {
        for &c in cs {
            self.add(c, 0);
        }
    }

    /// Current value of counter `c` (0 if never touched).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].unwrap_or(0)
    }

    /// Sets gauge `g` to `v`.
    #[inline]
    pub fn set(&mut self, g: Gauge, v: u64) {
        self.gauges[g as usize] = Some(v);
    }

    /// Raises gauge `g` to `v` if `v` exceeds its current value — the
    /// high-water-mark update used for queue occupancies.
    #[inline]
    pub fn raise(&mut self, g: Gauge, v: u64) {
        let cur = self.gauges[g as usize].get_or_insert(0);
        *cur = (*cur).max(v);
    }

    /// Current value of gauge `g` (0 if never set).
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].unwrap_or(0)
    }

    /// Records `v` into histogram `h` (creating it when first used).
    #[inline]
    pub fn record(&mut self, h: Hist, v: u64) {
        self.hists[h as usize]
            .get_or_insert_with(LatencyHistogram::new)
            .record(v);
    }

    /// Histogram `h`, if anything was recorded into it.
    pub fn hist(&self, h: Hist) -> Option<&LatencyHistogram> {
        self.hists[h as usize].as_ref()
    }

    /// String-keyed [`inc`](Self::inc), kept for callers outside the
    /// workspace; panics on a name that is not a [`Counter`].
    #[doc(hidden)]
    pub fn counter_inc(&mut self, name: &'static str) {
        let c = Counter::from_name(name).unwrap_or_else(|| panic!("no counter named {name:?}"));
        self.inc(c);
    }

    /// String-keyed [`record`](Self::record), kept for callers outside the
    /// workspace; panics on a name that is not a [`Hist`].
    #[doc(hidden)]
    pub fn hist_record(&mut self, name: &'static str, v: u64) {
        let h = Hist::from_name(name).unwrap_or_else(|| panic!("no histogram named {name:?}"));
        self.record(h, v);
    }

    /// Clears every instrument (the warmup boundary reset).
    pub fn reset(&mut self) {
        *self = MetricsRegistry::default();
    }

    /// Snapshots every touched instrument at simulated time `at`.
    pub fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
        MetricsSnapshot {
            at_ps: at.0,
            counters: Counter::ALL
                .iter()
                .filter_map(|&c| Some((c.name().to_string(), self.counters[c as usize]?)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .filter_map(|&g| Some((g.name().to_string(), self.gauges[g as usize]?)))
                .collect(),
            hists: Hist::ALL
                .iter()
                .filter_map(|&k| {
                    let h = self.hist(k)?;
                    Some(HistSnapshot {
                        name: k.name().to_string(),
                        count: h.count(),
                        min: h.min(),
                        max: h.max(),
                        mean: h.mean(),
                        p50: h.percentile(50.0),
                        p90: h.percentile(90.0),
                        p99: h.percentile(99.0),
                        p999: h.percentile(99.9),
                    })
                })
                .collect(),
        }
    }
}

/// Frozen summary of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Instrument name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A point-in-time copy of a [`MetricsRegistry`], sorted by name.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Simulated time of the snapshot (picoseconds).
    pub at_ps: u64,
    /// `(name, value)` counter pairs, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, name-sorted.
    pub hists: Vec<HistSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram summary named `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as deterministic JSON: keys appear in sorted
    /// order and floats are printed with fixed precision, so identical
    /// snapshots produce byte-identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"at_ps\": {},\n", self.at_ps));
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"p999\": {}}}",
                json_escape(&h.name),
                h.count,
                h.min,
                h.max,
                json_f64(h.mean),
                h.p50,
                h.p90,
                h.p99,
                h.p999,
            ));
        }
        out.push_str(if self.hists.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
        out.push('}');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Fixed-precision float rendering for deterministic JSON (6 decimals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// A running total read in windows: completions, admitted ops.
///
/// A window's count is the difference of two readings, and that difference
/// is only ever [`Total::since`], floored at zero. A total does go
/// backwards here: a stats reset at the warmup boundary zeroes it while a
/// tuner still holds its pre-reset reading, and a bare `u64` subtraction
/// then wraps to ~2⁶⁴ and steers every decision read from the rate. No
/// `Sub` is implemented, so the wrapping form does not compile:
///
/// ```compile_fail,E0369
/// use utps_sim::Total;
/// let (then, now) = (Total::new(5), Total::new(3));
/// let _window = now - then;
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Total(u64);

impl Total {
    /// A total that has reached `n`.
    pub const fn new(n: u64) -> Self {
        Total(n)
    }

    /// The raw count, for reporting.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Counts added since the `earlier` reading; 0 if the total was reset
    /// below it in between.
    pub const fn since(self, earlier: Total) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl core::ops::AddAssign<u64> for Total {
    fn add_assign(&mut self, n: u64) {
        self.0 += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_since_floors_at_zero_across_a_reset() {
        let (before_reset, mut served) = (Total::new(1_000), Total::default());
        served += 40;
        assert_eq!(served.since(before_reset), 0);
        assert_eq!(served.since(Total::new(33)), 7);
    }

    #[test]
    fn miss_rate_definition() {
        let mut c = ClassCounters::default();
        assert_eq!(c.llc_miss_rate(), 0.0);
        c.l1 = 100; // L1 hits never reach the LLC
        c.llc = 6;
        c.dram = 3;
        c.remote = 1;
        assert_eq!(c.llc_lookups(), 10);
        assert!((c.llc_miss_rate() - 0.4).abs() < 1e-12);
        assert_eq!(c.total(), 110);
    }

    #[test]
    fn record_and_combine() {
        let mut m = Metrics::default();
        m.record(0, AccessKind::L1);
        m.record(1, AccessKind::Dram);
        m.record(2, AccessKind::Llc);
        let all = m.combined();
        assert_eq!(all.total(), 3);
        assert_eq!(m.class[0].l1, 1);
        assert_eq!(m.class[1].dram, 1);
        m.reset();
        assert_eq!(m.combined().total(), 0);
    }

    #[test]
    fn registry_instruments() {
        let mut r = MetricsRegistry::new();
        r.inc(Counter::CrHit);
        r.add(Counter::CrHit, 4);
        r.inc(Counter::CrMiss);
        assert_eq!(r.counter(Counter::CrHit), 5);
        assert_eq!(r.counter(Counter::CrForward), 0);
        r.raise(Gauge::CrmrLaneHwm, 3);
        r.raise(Gauge::CrmrLaneHwm, 1);
        assert_eq!(r.gauge(Gauge::CrmrLaneHwm), 3);
        r.set(Gauge::CrmrLaneHwm, 2);
        assert_eq!(r.gauge(Gauge::CrmrLaneHwm), 2);
        for v in [100, 200, 300] {
            r.record(Hist::MrTraversalNs, v);
        }
        assert_eq!(r.hist(Hist::MrTraversalNs).unwrap().count(), 3);
        r.reset();
        assert_eq!(r.counter(Counter::CrHit), 0);
        assert!(r.hist(Hist::MrTraversalNs).is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut r = MetricsRegistry::new();
        r.inc(Counter::WalRecords);
        r.inc(Counter::ClientFailed);
        r.add(Counter::CrMiss, 0);
        r.record(Hist::MrBatchSize, 42);
        let s = r.snapshot(SimTime(7));
        assert_eq!(s.at_ps, 7);
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["client.failed", "cr.miss", "wal.records"]);
        assert_eq!(s.counter("client.failed"), Some(1));
        assert_eq!(s.counter("cr.miss"), Some(0), "touched at zero is emitted");
        assert_eq!(s.counter("cr.hit"), None, "untouched is not");
        let h = s.hist("mr.batch_size").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 42);
    }

    #[test]
    fn json_is_deterministic_and_wellformed() {
        let mut r = MetricsRegistry::new();
        r.add(Counter::HotMisses, 2);
        r.add(Counter::HotHits, 1);
        r.set(Gauge::CfgNCr, 9);
        r.record(Hist::MrTraversalNs, 1000);
        let s1 = r.snapshot(SimTime(123)).to_json();
        let s2 = r.snapshot(SimTime(123)).to_json();
        assert_eq!(s1, s2, "snapshot JSON must be reproducible");
        // "hot.hits" is serialized before "hot.misses".
        assert!(s1.find("hot.hits").unwrap() < s1.find("hot.misses").unwrap());
        assert!(s1.contains("\"at_ps\": 123"));
        assert!(s1.contains("\"p99\": 1000"));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(
            s1.matches('{').count(),
            s1.matches('}').count(),
            "unbalanced JSON:\n{s1}"
        );
    }

    fn assert_sorted_round_trip<T: Copy + PartialEq + core::fmt::Debug>(
        all: &[T],
        name: fn(T) -> &'static str,
        from_name: fn(&str) -> Option<T>,
    ) {
        for pair in all.windows(2) {
            assert!(name(pair[0]) < name(pair[1]), "{pair:?} out of order");
        }
        for &v in all {
            assert_eq!(from_name(name(v)), Some(v));
        }
        assert_eq!(from_name("cr.hti"), None);
    }

    #[test]
    fn instrument_names_are_sorted_and_unique() {
        assert_sorted_round_trip(Counter::ALL, Counter::name, Counter::from_name);
        assert_sorted_round_trip(Gauge::ALL, Gauge::name, Gauge::from_name);
        assert_sorted_round_trip(Hist::ALL, Hist::name, Hist::from_name);
    }

    #[test]
    #[should_panic(expected = "no counter named \"cr.hti\"")]
    fn string_shim_rejects_an_unknown_name() {
        let mut r = MetricsRegistry::new();
        r.counter_inc("cr.hit");
        assert_eq!(r.counter(Counter::CrHit), 1);
        r.counter_inc("cr.hti");
    }

    #[test]
    fn empty_registry_snapshot_renders() {
        let r = MetricsRegistry::new();
        let json = r.snapshot(SimTime(0)).to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(1.5), "1.500000");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
