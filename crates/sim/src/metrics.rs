//! Access counters — the simulator's equivalent of Intel PCM — plus the
//! stage-level metrics registry.
//!
//! Counters are kept per [`StatClass`](crate::cache::StatClass) (cache-resident
//! layer, memory-resident layer, other), which is how the paper reports LLC
//! miss rates per stage in §2.2.1.
//!
//! The [`MetricsRegistry`] complements the PCM-style counters with typed,
//! *named* instruments — counters, high-water-mark gauges, and log-bucketed
//! latency histograms — that any process can record into through
//! `ctx.machine().registry`. A registry can be snapshotted at any
//! [`SimTime`] into a [`MetricsSnapshot`], which serializes to deterministic
//! JSON (keys sorted, no host addresses), so two same-seed runs produce
//! byte-identical snapshots.

use std::collections::BTreeMap;

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

/// Typed, named per-stage instruments: counters, high-water-mark gauges and
/// latency histograms (log2 buckets via [`LatencyHistogram`]).
///
/// Names are `&'static str` by convention (`"cr.hit"`, `"mr.batch_size"`,
/// …); storage is a `BTreeMap` so iteration — and therefore every snapshot
/// and its JSON rendering — is deterministic.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, LatencyHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn counter_inc(&mut self, name: &'static str) {
        self.counter_add(name, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, v: u64) {
        self.gauges.insert(name, v);
    }

    /// Raises gauge `name` to `v` if `v` exceeds its current value — the
    /// high-water-mark update used for queue occupancies.
    #[inline]
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        let g = self.gauges.entry(name).or_insert(0);
        if v > *g {
            *g = v;
        }
    }

    /// Current value of gauge `name` (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records `v` into histogram `name` (creating it when first used).
    #[inline]
    pub fn hist_record(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// The histogram registered under `name`, if any.
    pub fn hist(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.get(name)
    }

    /// Clears every instrument (the warmup boundary reset).
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }

    /// Snapshots every instrument at simulated time `at`.
    pub fn snapshot(&self, at: SimTime) -> MetricsSnapshot {
        MetricsSnapshot {
            at_ps: at.0,
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(&k, h)| HistSnapshot {
                    name: k.to_string(),
                    count: h.count(),
                    min: h.min(),
                    max: h.max(),
                    mean: h.mean(),
                    p50: h.percentile(50.0),
                    p90: h.percentile(90.0),
                    p99: h.percentile(99.0),
                    p999: h.percentile(99.9),
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
        r.counter_inc("cr.hit");
        r.counter_add("cr.hit", 4);
        r.counter_inc("cr.miss");
        assert_eq!(r.counter("cr.hit"), 5);
        assert_eq!(r.counter("never"), 0);
        r.gauge_max("lane.hwm", 3);
        r.gauge_max("lane.hwm", 1);
        assert_eq!(r.gauge("lane.hwm"), 3);
        r.gauge_set("lane.hwm", 2);
        assert_eq!(r.gauge("lane.hwm"), 2);
        for v in [100, 200, 300] {
            r.hist_record("lat", v);
        }
        assert_eq!(r.hist("lat").unwrap().count(), 3);
        r.reset();
        assert_eq!(r.counter("cr.hit"), 0);
        assert!(r.hist("lat").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut r = MetricsRegistry::new();
        r.counter_inc("zeta");
        r.counter_inc("alpha");
        r.hist_record("h", 42);
        let s = r.snapshot(SimTime(7));
        assert_eq!(s.at_ps, 7);
        assert_eq!(s.counters[0].0, "alpha");
        assert_eq!(s.counters[1].0, "zeta");
        assert_eq!(s.counter("alpha"), Some(1));
        assert_eq!(s.counter("missing"), None);
        let h = s.hist("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 42);
    }

    #[test]
    fn json_is_deterministic_and_wellformed() {
        let mut r = MetricsRegistry::new();
        r.counter_add("b.count", 2);
        r.counter_add("a.count", 1);
        r.gauge_set("g", 9);
        r.hist_record("lat_ns", 1000);
        let s1 = r.snapshot(SimTime(123)).to_json();
        let s2 = r.snapshot(SimTime(123)).to_json();
        assert_eq!(s1, s2, "snapshot JSON must be reproducible");
        // "a.count" is serialized before "b.count".
        assert!(s1.find("a.count").unwrap() < s1.find("b.count").unwrap());
        assert!(s1.contains("\"at_ps\": 123"));
        assert!(s1.contains("\"p99\": 1000"));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(
            s1.matches('{').count(),
            s1.matches('}').count(),
            "unbalanced JSON:\n{s1}"
        );
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
