//! Client-side retry machinery and sequence-number dedup.
//!
//! The paper's evaluation assumes a lossless fabric; under the fault plans of
//! [`utps_sim::fault`] requests can be dropped, duplicated or delayed. This
//! module supplies the two mechanisms that keep the offered stream
//! exactly-once anyway:
//!
//! * [`RetryState`] — per-client tracking of in-flight requests with a
//!   timeout and bounded exponential backoff. A response completes a request
//!   at most once; late duplicates are recognized and discarded. GETs are
//!   idempotent and simply re-issued; PUT/DELETE retransmits carry the same
//!   sequence number so the server can deduplicate re-execution.
//! * [`DedupTable`] — the server-side (and test-side) exactly-once filter: a
//!   per-client completion floor plus a set of out-of-order completions
//!   above it, so memory stays bounded while seq numbers grow.
//!
//! Both structures are pure bookkeeping: they charge no simulated time and
//! draw no randomness, so enabling retries on a fault-free run leaves the
//! simulation byte-identical (timeouts never fire when responses beat the
//! deadline).

use utps_sim::hashutil::{FxHashMap, FxHashSet};
use utps_sim::time::SimTime;
use utps_workload::Op;

/// Timeout/backoff policy for one client. `timeout_ps == 0` disables the
/// machinery entirely (seed behavior).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Initial request timeout in picoseconds; 0 = retries disabled.
    pub timeout_ps: u64,
    /// Cap on the backed-off timeout, picoseconds.
    pub backoff_max_ps: u64,
    /// Retransmits allowed before the request is reported failed.
    pub max_retries: u32,
}

impl RetryConfig {
    /// The seed default: no timeouts, no retransmits.
    pub fn disabled() -> Self {
        RetryConfig {
            timeout_ps: 0,
            backoff_max_ps: 0,
            max_retries: 0,
        }
    }

    /// Defaults used by the chaos suite: 250 µs initial timeout (well above
    /// a healthy p99 on the simulated fabric), doubling per retry up to
    /// 2 ms, at most 10 retransmits.
    pub fn chaos_default() -> Self {
        RetryConfig {
            timeout_ps: 250 * utps_sim::time::MICROS,
            backoff_max_ps: 2 * utps_sim::time::MILLIS,
            max_retries: 10,
        }
    }

    /// Whether the retry machinery is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.timeout_ps > 0
    }

    /// The timeout for attempt `retries` (0 = first send): doubles per
    /// retransmit, capped at `backoff_max_ps`.
    pub(crate) fn timeout_for(&self, retries: u32) -> u64 {
        let shifted = self.timeout_ps.saturating_mul(1u64 << retries.min(20));
        if self.backoff_max_ps > 0 {
            shifted.min(self.backoff_max_ps)
        } else {
            shifted
        }
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig::disabled()
    }
}

/// One in-flight request awaiting its response.
#[derive(Clone, Debug)]
pub struct PendingReq {
    /// The operation, kept for retransmission. Put payloads are *not*
    /// stored: the client's fill byte is deterministic, so a retransmit
    /// regenerates identical bytes instead of keeping a copy per in-flight
    /// request.
    pub op: Op,
    /// When the first attempt was sent; completion latency is measured from
    /// here so retransmitted requests report their true service time.
    pub first_sent: SimTime,
    /// When the current attempt times out.
    pub deadline: SimTime,
    /// Retransmits performed so far.
    pub retries: u32,
}

/// What [`RetryState::retransmit`] hands back: the operation to resend and
/// the original first-send timestamp (latency is measured from the first
/// transmission, not the retry).
pub(crate) type Resend = (Op, SimTime);

/// Per-client in-flight request table keyed by sequence number.
#[derive(Debug, Default)]
pub struct RetryState {
    pending: FxHashMap<u64, PendingReq>,
}

impl RetryState {
    /// Empty table.
    pub fn new() -> Self {
        RetryState::default()
    }

    /// Number of requests in flight.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Records a first send of `seq` at `now`.
    pub fn on_send(&mut self, seq: u64, now: SimTime, cfg: &RetryConfig, op: Op) {
        let prev = self.pending.insert(
            seq,
            PendingReq {
                op,
                first_sent: now,
                deadline: now + cfg.timeout_for(0),
                retries: 0,
            },
        );
        debug_assert!(prev.is_none(), "seq {seq} sent twice");
    }

    /// Completes `seq`; returns its record, or `None` if this response is a
    /// duplicate (or for an already-failed request) and must be ignored.
    pub fn on_response(&mut self, seq: u64) -> Option<PendingReq> {
        self.pending.remove(&seq)
    }

    /// Sequence numbers whose deadline has passed at `now`, ascending (so
    /// retransmission order is deterministic).
    pub fn due(&self, now: SimTime) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&s, _)| s)
            .collect();
        v.sort_unstable();
        v
    }

    /// Marks `seq` retransmitted at `now`: bumps its retry count and pushes
    /// its deadline out by the backed-off timeout. Returns a clone of the
    /// operation to resend, or `None` (after removing the entry) if the
    /// retry budget is exhausted and the request must be reported failed.
    pub fn retransmit(&mut self, seq: u64, now: SimTime, cfg: &RetryConfig) -> Option<Resend> {
        let p = self.pending.get_mut(&seq)?;
        if p.retries >= cfg.max_retries {
            self.pending.remove(&seq);
            return None;
        }
        p.retries += 1;
        p.deadline = now + cfg.timeout_for(p.retries);
        Some((p.op.clone(), p.first_sent))
    }

    /// Earliest deadline among in-flight requests.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.deadline).min()
    }
}

/// Exactly-once completion filter: per-client floor + sparse set above it.
/// `record` answers "was this (client, seq) already completed?" in O(1)
/// amortized with memory bounded by the out-of-order window.
#[derive(Debug)]
pub struct DedupTable {
    enabled: bool,
    floors: Vec<u64>,
    above: Vec<FxHashSet<u64>>,
}

impl DedupTable {
    /// Table for `clients` clients; when `enabled` is false all queries
    /// report "not seen" and record nothing.
    pub fn new(clients: usize, enabled: bool) -> Self {
        DedupTable {
            enabled,
            floors: vec![0; clients],
            above: (0..clients).map(|_| FxHashSet::default()).collect(),
        }
    }

    /// Whether dedup is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether `(client, seq)` has already been recorded.
    pub fn seen(&self, client: u32, seq: u64) -> bool {
        // Oracle self-test bug (feature `bug-skip-dedup`): pretend no request
        // was ever seen, so duplicated deliveries re-execute their op. The
        // linearizability suite must catch the resulting zombie writes.
        if cfg!(feature = "bug-skip-dedup") {
            return false;
        }
        if !self.enabled {
            return false;
        }
        let c = client as usize;
        if c >= self.floors.len() {
            return false;
        }
        seq < self.floors[c] || self.above[c].contains(&seq)
    }

    /// Records `(client, seq)`; returns `true` if it was already recorded
    /// (i.e. this is a duplicate completion).
    pub fn record(&mut self, client: u32, seq: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let c = client as usize;
        if c >= self.floors.len() {
            self.floors.resize(c + 1, 0);
            self.above.resize_with(c + 1, FxHashSet::default);
        }
        if seq < self.floors[c] || !self.above[c].insert(seq) {
            return true;
        }
        // Advance the floor over any now-contiguous prefix.
        while self.above[c].remove(&self.floors[c]) {
            self.floors[c] += 1;
        }
        false
    }

    /// Merges another table's seen-set into this one (shard-migration
    /// ownership handoff). Each table represents, per client, the set
    /// `[0, floor) ∪ above`; the union of two such sets is
    /// `[0, max(floors)) ∪ (above₁ ∪ above₂)` with the contiguous prefix
    /// re-collapsed — exact, so a write executed on *either* shard is
    /// suppressed on the new owner and exactly-once survives the handoff.
    pub fn absorb(&mut self, other: &DedupTable) {
        if !self.enabled || !other.enabled {
            return;
        }
        let n = self.floors.len().max(other.floors.len());
        self.floors.resize(n, 0);
        self.above.resize_with(n, FxHashSet::default);
        for c in 0..other.floors.len() {
            let floor = self.floors[c].max(other.floors[c]);
            for &seq in &other.above[c] {
                if seq >= floor {
                    self.above[c].insert(seq);
                }
            }
            self.above[c].retain(|&s| s >= floor);
            self.floors[c] = floor;
            while self.above[c].remove(&self.floors[c]) {
                self.floors[c] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RetryConfig {
        RetryConfig {
            timeout_ps: 100,
            backoff_max_ps: 400,
            max_retries: 2,
        }
    }

    fn get(key: u64) -> Op {
        Op::Get { key }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let c = cfg();
        assert_eq!(c.timeout_for(0), 100);
        assert_eq!(c.timeout_for(1), 200);
        assert_eq!(c.timeout_for(2), 400);
        assert_eq!(c.timeout_for(3), 400, "backoff must cap");
        assert!(!RetryConfig::disabled().enabled());
        assert!(RetryConfig::chaos_default().enabled());
    }

    #[test]
    fn response_completes_once() {
        let mut st = RetryState::new();
        st.on_send(7, SimTime(0), &cfg(), get(1));
        assert_eq!(st.len(), 1);
        let p = st.on_response(7).expect("first response completes");
        assert_eq!(p.first_sent, SimTime(0));
        assert!(st.on_response(7).is_none(), "duplicate must not complete");
        assert!(st.is_empty());
    }

    #[test]
    fn due_and_retransmit_lifecycle() {
        let c = cfg();
        let mut st = RetryState::new();
        st.on_send(1, SimTime(0), &c, get(1));
        st.on_send(2, SimTime(50), &c, get(2));
        assert!(st.due(SimTime(99)).is_empty());
        assert_eq!(st.due(SimTime(100)), vec![1]);
        assert_eq!(st.due(SimTime(200)), vec![1, 2]);
        // First retransmit: deadline moves to now + 200.
        let (op, first) = st.retransmit(1, SimTime(100), &c).expect("budget left");
        assert_eq!(op, get(1));
        assert_eq!(first, SimTime(0));
        assert_eq!(st.due(SimTime(299)), vec![2]);
        // Exhaust the budget: second retransmit ok, third fails the request.
        assert!(st.retransmit(1, SimTime(300), &c).is_some());
        assert!(st.retransmit(1, SimTime(700), &c).is_none());
        assert_eq!(st.len(), 1, "failed request must leave the table");
        assert_eq!(st.next_deadline(), Some(SimTime(50 + 100)));
    }

    #[test]
    fn dedup_floor_advances_and_bounds_memory() {
        let mut t = DedupTable::new(2, true);
        assert!(!t.record(0, 0));
        assert!(!t.record(0, 1));
        assert!(t.record(0, 1), "second completion of seq 1 is a dup");
        assert!(t.seen(0, 0) && t.seen(0, 1));
        assert!(!t.seen(0, 2));
        // Out-of-order completion keeps the floor low until the gap fills.
        assert!(!t.record(0, 5));
        assert!(!t.record(0, 2));
        assert!(!t.record(0, 3));
        assert!(!t.record(0, 4));
        assert!(t.record(0, 5));
        assert_eq!(t.above[0].len(), 0, "contiguous prefix must collapse");
        assert_eq!(t.floors[0], 6);
        // Per-client isolation.
        assert!(!t.seen(1, 0));
        // Disabled table records nothing.
        let mut off = DedupTable::new(1, false);
        assert!(!off.record(0, 0));
        assert!(!off.record(0, 0));
    }
}
