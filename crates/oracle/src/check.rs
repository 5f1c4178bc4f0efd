//! The linearizability checker.
//!
//! Point operations (get/put/delete) are partitioned by key — linearizability
//! is compositional over disjoint objects, so a history is linearizable iff
//! each per-key sub-history is — and each partition is checked by Wing–Gong
//! search against a single-register model: the key is either absent or holds
//! a value digest. Pending operations (no accepted response) may be
//! linearized at any point after their invoke or dropped entirely, matching
//! the semantics of a timed-out request whose delayed copy may still execute.
//!
//! Range scans cannot be assigned to one key's partition. Each completed
//! scan is instead checked against *presence bounds* at its linearization
//! window `[invoke, response]`: the returned count must be at least the
//! number of keys in range that were definitely present for the whole window
//! (clipped to the requested limit) and at most the number possibly present
//! at any point of it. A count above the upper bound returned phantom keys;
//! one below the lower bound dropped keys. The bounds are conservative, so
//! they stay sound for the hybrid CR/MR scan path's non-atomic traversals.

use std::collections::BTreeMap;

use crate::history::{History, OpClass};

/// The store's state before the run: keys `0..keys` populated with values
/// digesting to `value_digest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InitialState {
    /// Pre-populated key count (keys `0..keys`).
    pub keys: u64,
    /// Digest of every pre-populated value.
    pub value_digest: u64,
}

/// One checker finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The key whose partition failed, or `None` for a scan violation.
    pub key: Option<u64>,
    /// Human-readable description of the failure.
    pub detail: String,
}

/// Checker outcome and statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Point operations checked.
    pub point_ops: usize,
    /// Completed scans checked.
    pub scans: usize,
    /// Distinct keys with point operations.
    pub keys: usize,
    /// Operations that never received a response (checked as optional).
    pub pending: usize,
    /// All violations found (empty = linearizable).
    pub violations: Vec<Violation>,
}

impl Report {
    /// Whether the history is linearizable.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One point op projected into a key's partition.
#[derive(Clone, Copy, Debug)]
struct Entry {
    inv: u64,
    /// `u64::MAX` while pending.
    ret: u64,
    class: OpClass,
    ok: bool,
    digest: Option<u64>,
    client: u32,
    seq: u64,
}

impl Entry {
    fn pending(&self) -> bool {
        self.ret == u64::MAX
    }
}

/// Mutation summary per key, for the scan presence bounds.
#[derive(Clone, Copy, Debug)]
struct KeyMut {
    /// Earliest accepted response among successful puts (`MAX` if none).
    earliest_put_resp: u64,
    /// Earliest invoke among all puts, pending included (`MAX` if none).
    earliest_put_inv: u64,
    /// Earliest invoke among all deletes, pending included (`MAX` if none).
    earliest_del_inv: u64,
}

impl Default for KeyMut {
    fn default() -> Self {
        KeyMut {
            earliest_put_resp: u64::MAX,
            earliest_put_inv: u64::MAX,
            earliest_del_inv: u64::MAX,
        }
    }
}

/// Node-expansion budget per key partition. Real histories have bounded
/// concurrency (the closed-loop window), so hitting this means either a
/// pathological history or a checker bug — both reported loudly.
const SEARCH_BUDGET: usize = 2_000_000;

/// Checks `history` against the sequential model starting from `init`.
pub fn check(history: &History, init: &InitialState) -> Report {
    let mut report = Report::default();
    let mut per_key: BTreeMap<u64, Vec<Entry>> = BTreeMap::new();
    let mut muts: BTreeMap<u64, KeyMut> = BTreeMap::new();
    let mut scans = Vec::new();

    for r in history.records() {
        if r.pending() {
            report.pending += 1;
        }
        match r.class {
            OpClass::Scan => {
                if !r.pending() && r.ok {
                    scans.push(r.clone());
                }
            }
            class => {
                // Pending reads carry no obligation and no effect: drop them.
                if r.pending() && class == OpClass::Get {
                    continue;
                }
                report.point_ops += 1;
                let e = Entry {
                    inv: r.invoke_ps,
                    ret: r.response_ps.unwrap_or(u64::MAX),
                    class,
                    ok: r.ok,
                    digest: r.digest,
                    client: r.client,
                    seq: r.seq,
                };
                per_key.entry(r.key).or_default().push(e);
                if class == OpClass::Put {
                    let m = muts.entry(r.key).or_default();
                    m.earliest_put_inv = m.earliest_put_inv.min(e.inv);
                    if !e.pending() && e.ok {
                        m.earliest_put_resp = m.earliest_put_resp.min(e.ret);
                    }
                } else if class == OpClass::Delete {
                    let m = muts.entry(r.key).or_default();
                    m.earliest_del_inv = m.earliest_del_inv.min(e.inv);
                }
            }
        }
    }

    report.keys = per_key.len();
    for (key, mut ops) in per_key {
        ops.sort_by_key(|e| (e.inv, e.ret));
        let initial = (key < init.keys).then_some(init.value_digest);
        if let Err(detail) = linearizable_register(initial, &ops) {
            report.violations.push(Violation {
                key: Some(key),
                detail,
            });
        }
    }

    report.scans = scans.len();
    for s in &scans {
        let (inv, ret) = (s.invoke_ps, s.response_ps.unwrap());
        let limit = s.scan_limit as u64;
        // Presence bounds over keys >= s.key at the scan window.
        let base = init.keys.saturating_sub(s.key);
        let mut definite = base;
        let mut possible = base;
        for (&k, m) in muts.range(s.key..) {
            let initial = k < init.keys;
            let is_definite = (initial || m.earliest_put_resp <= inv) && m.earliest_del_inv >= ret;
            let is_possible = initial || m.earliest_put_inv < ret;
            if initial && !is_definite {
                definite -= 1;
            }
            if !initial && is_definite {
                definite += 1;
            }
            if !initial && is_possible {
                possible += 1;
            }
        }
        let lower = limit.min(definite);
        let upper = limit.min(possible);
        let count = s.scan_count as u64;
        if count < lower || count > upper {
            let kind = if count < lower { "dropped" } else { "phantom" };
            report.violations.push(Violation {
                key: None,
                detail: format!(
                    "scan(client {}, seq {}) from key {} limit {} returned {count} \
                     items, outside atomic-window bounds [{lower}, {upper}] \
                     ({kind} keys)",
                    s.client, s.seq, s.key, s.scan_limit
                ),
            });
        }
    }

    report
}

/// What applying one op to the register state yields, or `None` if the op's
/// observed result is impossible in that state.
fn apply(state: Option<u64>, e: &Entry) -> Option<Option<u64>> {
    match e.class {
        OpClass::Get => match (e.ok, state, e.digest) {
            (true, Some(s), Some(d)) if s == d => Some(state),
            // An ok get with no digest recorded cannot be value-checked;
            // require only presence.
            (true, Some(_), None) => Some(state),
            (false, None, _) => Some(state),
            _ => None,
        },
        OpClass::Put => {
            if e.pending() || e.ok {
                // Upserts have no precondition; the write's effect is the
                // digest recorded at invoke.
                Some(Some(e.digest.unwrap_or(0)))
            } else {
                // A failed put (index full / malformed) applied nothing.
                Some(state)
            }
        }
        OpClass::Delete => {
            if e.pending() {
                Some(None)
            } else if e.ok {
                state.is_some().then_some(None)
            } else {
                state.is_none().then_some(None)
            }
        }
        OpClass::Scan => unreachable!("scans are not point ops"),
    }
}

/// Wing–Gong search: is this one-key history linearizable against a
/// present-digest-or-absent register starting from `init`?
///
/// The search explores "linearize next any op whose invoke precedes every
/// unlinearized completed op's response", memoizing (linearized-set, state)
/// configurations. Pending ops are optional: acceptance requires only that
/// every *completed* op is linearized.
fn linearizable_register(init: Option<u64>, ops: &[Entry]) -> Result<(), String> {
    let n = ops.len();
    if n == 0 {
        return Ok(());
    }
    let words = n.div_ceil(64);
    let completed_total = ops.iter().filter(|e| !e.pending()).count();

    // DFS over configurations.
    #[allow(
        clippy::disallowed_types,
        reason = "membership only, never iterated, so its order cannot reach the verdict"
    )]
    let mut seen: std::collections::HashSet<(Box<[u64]>, Option<u64>)> =
        std::collections::HashSet::new();
    let mut stack: Vec<(Box<[u64]>, Option<u64>, usize)> =
        vec![(vec![0u64; words].into_boxed_slice(), init, 0)];
    let mut expanded = 0usize;

    while let Some((bits, state, done_completed)) = stack.pop() {
        if done_completed == completed_total {
            return Ok(());
        }
        expanded += 1;
        if expanded > SEARCH_BUDGET {
            return Err(format!(
                "search budget exceeded after {expanded} configurations \
                 ({n} ops; raise SEARCH_BUDGET or reduce the run)"
            ));
        }
        // Minimal-op frontier: an op may linearize next only if no
        // unlinearized op responded before it was invoked.
        let mut min_ret = u64::MAX;
        for (i, e) in ops.iter().enumerate() {
            if bits[i / 64] & (1 << (i % 64)) == 0 {
                min_ret = min_ret.min(e.ret);
            }
        }
        for (i, e) in ops.iter().enumerate() {
            if bits[i / 64] & (1 << (i % 64)) != 0 || e.inv > min_ret {
                continue;
            }
            let Some(next_state) = apply(state, e) else {
                continue;
            };
            let mut next_bits = bits.clone();
            next_bits[i / 64] |= 1 << (i % 64);
            let next_done = done_completed + usize::from(!e.pending());
            if next_done == completed_total {
                return Ok(());
            }
            if seen.insert((next_bits.clone(), next_state)) {
                stack.push((next_bits, next_state, next_done));
            }
        }
    }

    Err(describe_failure(init, ops))
}

/// Builds the failure message: the initial state and a bounded dump of the
/// partition's ops in invoke order.
fn describe_failure(init: Option<u64>, ops: &[Entry]) -> String {
    const SHOW: usize = 16;
    let mut s = format!(
        "no linearization exists ({} ops, initial {:?}); ops:",
        ops.len(),
        init
    );
    for e in ops.iter().take(SHOW) {
        s.push_str(&format!(
            "\n  {:?} client {} seq {} [{}, {}] ok={} digest={:?}",
            e.class,
            e.client,
            e.seq,
            e.inv,
            if e.pending() {
                "pending".to_string()
            } else {
                e.ret.to_string()
            },
            e.ok,
            e.digest
        ));
    }
    if ops.len() > SHOW {
        s.push_str(&format!("\n  ... {} more", ops.len() - SHOW));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;

    const INIT: InitialState = InitialState {
        keys: 10,
        value_digest: 0xab,
    };

    fn get(h: &mut History, c: u32, s: u64, key: u64, at: u64, ret: u64, d: Option<u64>) {
        h.invoke(c, s, OpClass::Get, key, None, 0, at);
        h.response(c, s, ret, d.is_some(), d, 0);
    }

    fn put(h: &mut History, c: u32, s: u64, key: u64, at: u64, ret: u64, d: u64) {
        h.invoke(c, s, OpClass::Put, key, Some(d), 0, at);
        h.response(c, s, ret, true, None, 0);
    }

    fn del(h: &mut History, c: u32, s: u64, key: u64, at: u64, ret: u64, ok: bool) {
        h.invoke(c, s, OpClass::Delete, key, None, 0, at);
        h.response(c, s, ret, ok, None, 0);
    }

    #[test]
    fn sequential_history_passes() {
        let mut h = History::new();
        get(&mut h, 0, 0, 3, 10, 20, Some(0xab));
        put(&mut h, 0, 1, 3, 30, 40, 7);
        get(&mut h, 1, 0, 3, 50, 60, Some(7));
        del(&mut h, 1, 1, 3, 70, 80, true);
        get(&mut h, 0, 2, 3, 90, 100, None);
        del(&mut h, 0, 3, 3, 110, 120, false);
        let r = check(&h, &INIT);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.point_ops, 6);
        assert_eq!(r.keys, 1);
    }

    #[test]
    fn missing_key_read_passes_and_insert_makes_it_present() {
        let mut h = History::new();
        get(&mut h, 0, 0, 42, 10, 20, None); // beyond initial keys
        put(&mut h, 0, 1, 42, 30, 40, 5);
        get(&mut h, 0, 2, 42, 50, 60, Some(5));
        assert!(check(&h, &INIT).ok());
    }

    #[test]
    fn stale_read_is_caught() {
        let mut h = History::new();
        put(&mut h, 0, 0, 3, 10, 20, 7);
        // Strictly after the put completed, a get returns the initial value.
        get(&mut h, 1, 0, 3, 30, 40, Some(0xab));
        let r = check(&h, &INIT);
        assert!(!r.ok());
        assert_eq!(r.violations[0].key, Some(3));
    }

    #[test]
    fn lost_update_is_caught() {
        let mut h = History::new();
        put(&mut h, 0, 0, 3, 10, 20, 7); // acked but (buggy server) lost
        put(&mut h, 1, 0, 3, 30, 40, 9);
        get(&mut h, 0, 1, 3, 50, 60, Some(9));
        // Later read observes the first put's value resurrected.
        get(&mut h, 1, 1, 3, 70, 80, Some(7));
        assert!(!check(&h, &INIT).ok());
    }

    #[test]
    fn concurrent_puts_linearize_in_either_order() {
        let mut h = History::new();
        put(&mut h, 0, 0, 3, 10, 50, 7);
        put(&mut h, 1, 0, 3, 20, 60, 9); // overlaps the first
        get(&mut h, 2, 0, 3, 70, 80, Some(7)); // consistent with order 9,7
        assert!(check(&h, &INIT).ok());
        let mut h2 = History::new();
        put(&mut h2, 0, 0, 3, 10, 50, 7);
        put(&mut h2, 1, 0, 3, 20, 60, 9);
        get(&mut h2, 2, 0, 3, 70, 80, Some(9)); // order 7,9 also fine
        assert!(check(&h2, &INIT).ok());
    }

    #[test]
    fn pending_put_may_or_may_not_apply() {
        // A put that never got a response may be observed...
        let mut h = History::new();
        h.invoke(0, 0, OpClass::Put, 3, Some(7), 0, 10);
        get(&mut h, 1, 0, 3, 50, 60, Some(7));
        assert!(check(&h, &INIT).ok());
        // ...or not observed.
        let mut h2 = History::new();
        h2.invoke(0, 0, OpClass::Put, 3, Some(7), 0, 10);
        get(&mut h2, 1, 0, 3, 50, 60, Some(0xab));
        assert!(check(&h2, &INIT).ok());
        // But it cannot resurrect over a later completed put once observed
        // ordering pins it down: put7 pending, put9 done, read9, read7.
        let mut h3 = History::new();
        h3.invoke(0, 0, OpClass::Put, 3, Some(7), 0, 10);
        put(&mut h3, 1, 0, 3, 20, 30, 9);
        get(&mut h3, 2, 0, 3, 40, 50, Some(9));
        get(&mut h3, 2, 1, 3, 60, 70, Some(7));
        // Still linearizable! The pending put may linearize between the
        // reads — its window never closed. This is the forgiving case the
        // zombie-dedup bug must *not* hide behind when the put DID respond.
        assert!(check(&h3, &INIT).ok());
        // Same shape but put7 completed before put9 was invoked: violation.
        let mut h4 = History::new();
        put(&mut h4, 0, 0, 3, 10, 15, 7);
        put(&mut h4, 1, 0, 3, 20, 30, 9);
        get(&mut h4, 2, 0, 3, 40, 50, Some(9));
        get(&mut h4, 2, 1, 3, 60, 70, Some(7));
        assert!(!check(&h4, &INIT).ok());
    }

    #[test]
    fn scan_bounds_catch_phantom_and_dropped_keys() {
        let scan = |count: u32| {
            let mut h = History::new();
            h.invoke(0, 0, OpClass::Scan, 2, None, 5, 10);
            h.response(0, 0, 20, true, None, count);
            h
        };
        // Keys 2..10 present, limit 5 → exactly 5.
        assert!(check(&scan(5), &INIT).ok());
        assert!(!check(&scan(4), &INIT).ok(), "dropped key undetected");
        assert!(!check(&scan(6), &INIT).ok(), "phantom key undetected");
        // Near the end of the keyspace: keys 8, 9 → exactly 2.
        let tail = |count: u32| {
            let mut h = History::new();
            h.invoke(0, 0, OpClass::Scan, 8, None, 5, 10);
            h.response(0, 0, 20, true, None, count);
            h
        };
        assert!(check(&tail(2), &INIT).ok());
        assert!(!check(&tail(3), &INIT).ok());
    }

    #[test]
    fn scan_bounds_widen_under_concurrent_mutation() {
        // An insert of key 40 concurrent with the scan: count may or may not
        // include it.
        let run = |count: u32| {
            let mut h = History::new();
            h.invoke(0, 0, OpClass::Put, 40, Some(1), 0, 5);
            h.response(0, 0, 25, true, None, 0); // overlaps the scan window
            h.invoke(1, 0, OpClass::Scan, 8, None, 5, 10);
            h.response(1, 0, 20, true, None, count);
            h
        };
        assert!(
            check(&run(2), &INIT).ok(),
            "scan may miss concurrent insert"
        );
        assert!(check(&run(3), &INIT).ok(), "scan may see concurrent insert");
        assert!(!check(&run(4), &INIT).ok());
        // A delete invoked before the scan window's end makes an initial key
        // optional; one completed before the scan's invoke with no overlap
        // still allows either bound only if invoked pre-window.
        let dele = |count: u32| {
            let mut h = History::new();
            h.invoke(0, 0, OpClass::Delete, 9, None, 0, 5);
            h.response(0, 0, 8, true, None, 0); // completed before scan
            h.invoke(1, 0, OpClass::Scan, 8, None, 5, 10);
            h.response(1, 0, 20, true, None, count);
            h
        };
        // Key 9 deleted: only key 8 definitely present; 9 still "possible"
        // by the conservative bound (sound, not tight).
        assert!(check(&dele(1), &INIT).ok());
        assert!(check(&dele(2), &INIT).ok());
        assert!(!check(&dele(0), &INIT).ok(), "key 8 was dropped");
    }

    #[test]
    fn empty_history_passes() {
        let r = check(&History::new(), &INIT);
        assert!(r.ok());
        assert_eq!(r.point_ops + r.scans, 0);
    }
}
