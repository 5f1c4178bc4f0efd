//! Client-observed operation histories.
//!
//! One [`OpRecord`] per *distinct* operation (retransmits extend the same
//! record's window; duplicate responses are ignored by the recorder). An
//! operation whose response never arrives stays pending — the checker treats
//! it as "may or may not have taken effect", which is exactly the semantics
//! of a timed-out request whose delayed copy might still execute server-side.

/// Operation class, mirroring the wire-level op kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Point read.
    Get,
    /// Write (update or insert).
    Put,
    /// Range scan (`scan_limit` keys from `key` upward).
    Scan,
    /// Delete.
    Delete,
}

impl OpClass {
    fn code(self) -> u8 {
        match self {
            OpClass::Get => 0,
            OpClass::Put => 1,
            OpClass::Scan => 2,
            OpClass::Delete => 3,
        }
    }
}

/// One operation as a client observed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Issuing client.
    pub client: u32,
    /// Client-local sequence number.
    pub seq: u64,
    /// Operation class.
    pub class: OpClass,
    /// Target key (start key for scans).
    pub key: u64,
    /// First-send time, picoseconds.
    pub invoke_ps: u64,
    /// Accepted-response time, picoseconds; `None` while pending (in flight
    /// at run end, or abandoned after the retry budget).
    pub response_ps: Option<u64>,
    /// Response `ok` flag (meaningful only when a response arrived).
    pub ok: bool,
    /// Value digest: for puts the digest of the bytes *written* (known at
    /// invoke); for gets the digest of the bytes *returned* (known at
    /// response, `None` for misses).
    pub digest: Option<u64>,
    /// Requested scan length (scans only).
    pub scan_limit: u32,
    /// Returned item count (scans only).
    pub scan_count: u32,
}

impl OpRecord {
    /// Whether no response was ever accepted for this operation.
    pub fn pending(&self) -> bool {
        self.response_ps.is_none()
    }
}

/// A per-run operation history, in client invoke order.
#[derive(Clone, Debug, Default)]
pub struct History {
    records: Vec<OpRecord>,
    /// Open (client, seq) → record index, for response matching.
    #[allow(
        clippy::disallowed_types,
        reason = "lookup only, never iterated, so its order cannot reach any output"
    )]
    open: std::collections::HashMap<(u32, u64), usize>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// All records, in invoke (append) order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records an operation's first send. Retransmits must not call this
    /// again: the operation's window runs from the first send to the
    /// accepted response.
    #[allow(clippy::too_many_arguments)]
    pub fn invoke(
        &mut self,
        client: u32,
        seq: u64,
        class: OpClass,
        key: u64,
        digest: Option<u64>,
        scan_limit: u32,
        now_ps: u64,
    ) {
        let idx = self.records.len();
        self.records.push(OpRecord {
            client,
            seq,
            class,
            key,
            invoke_ps: now_ps,
            response_ps: None,
            ok: false,
            digest,
            scan_limit,
            scan_count: 0,
        });
        let prev = self.open.insert((client, seq), idx);
        debug_assert!(prev.is_none(), "op ({client},{seq}) invoked twice");
    }

    /// Records the accepted response for `(client, seq)`. Duplicate
    /// responses (already completed, or never invoked) are ignored. For
    /// gets, `digest` carries the returned bytes' digest; puts keep the
    /// digest recorded at invoke.
    pub fn response(
        &mut self,
        client: u32,
        seq: u64,
        now_ps: u64,
        ok: bool,
        digest: Option<u64>,
        scan_count: u32,
    ) {
        let Some(idx) = self.open.remove(&(client, seq)) else {
            return;
        };
        let r = &mut self.records[idx];
        r.response_ps = Some(now_ps);
        r.ok = ok;
        if digest.is_some() {
            r.digest = digest;
        }
        r.scan_count = scan_count;
    }

    /// Marks `(client, seq)` abandoned (retry budget exhausted). The record
    /// stays pending: a delayed copy of the request may still execute.
    pub fn fail(&mut self, client: u32, seq: u64) {
        self.open.remove(&(client, seq));
    }

    /// Appends every record of `other` with its timestamps shifted forward
    /// by `shift_ps` — stitching a post-recovery run onto its pre-crash
    /// prefix as one observable history. Pending records stay pending (their
    /// windows extend past the crash: a timed-out op may have executed and
    /// survived recovery), and are not reopened for response matching.
    pub fn append_shifted(&mut self, other: &History, shift_ps: u64) {
        for r in other.records() {
            let mut r = r.clone();
            r.invoke_ps += shift_ps;
            r.response_ps = r.response_ps.map(|t| t + shift_ps);
            self.records.push(r);
        }
    }

    /// Deterministic digest over the full history, in append order. Two runs
    /// with identical interleavings produce identical digests, so goldens on
    /// this value catch interleaving-visible regressions that aggregate
    /// stats miss.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in &self.records {
            for word in [
                r.client as u64,
                r.seq,
                r.class.code() as u64,
                r.key,
                r.invoke_ps,
                r.response_ps.unwrap_or(u64::MAX),
                r.ok as u64,
                r.digest.unwrap_or(0),
                r.digest.is_some() as u64,
                r.scan_limit as u64,
                r.scan_count as u64,
            ] {
                h = fnv_u64(h, word);
            }
        }
        h
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_u64(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// 64-bit FNV-1a digest of a value's bytes.
pub fn value_digest(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of `len` repeated `fill` bytes — the shape of every value the
/// deterministic clients write and the stores are populated with, computed
/// without materializing the buffer.
pub fn fill_digest(fill: u8, len: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for _ in 0..len {
        h = (h ^ fill as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_discriminate() {
        assert_eq!(value_digest(&[7u8; 64]), fill_digest(7, 64));
        assert_ne!(fill_digest(7, 64), fill_digest(8, 64));
        assert_ne!(fill_digest(7, 64), fill_digest(7, 63));
    }

    #[test]
    fn responses_match_and_duplicates_are_ignored() {
        let mut h = History::new();
        h.invoke(0, 0, OpClass::Put, 5, Some(11), 0, 100);
        h.invoke(1, 0, OpClass::Get, 5, None, 0, 120);
        h.response(1, 0, 300, true, Some(11), 0);
        h.response(1, 0, 400, true, Some(99), 0); // dup: ignored
        h.response(2, 9, 400, true, None, 0); // never invoked: ignored
        assert_eq!(h.len(), 2);
        let g = &h.records()[1];
        assert_eq!(g.response_ps, Some(300));
        assert_eq!(g.digest, Some(11));
        assert!(h.records()[0].pending());
    }

    #[test]
    fn history_digest_is_order_sensitive() {
        let mut a = History::new();
        a.invoke(0, 0, OpClass::Get, 1, None, 0, 10);
        a.invoke(0, 1, OpClass::Get, 2, None, 0, 20);
        let mut b = History::new();
        b.invoke(0, 1, OpClass::Get, 2, None, 0, 20);
        b.invoke(0, 0, OpClass::Get, 1, None, 0, 10);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn failed_ops_stay_pending() {
        let mut h = History::new();
        h.invoke(0, 0, OpClass::Put, 5, Some(1), 0, 100);
        h.fail(0, 0);
        assert!(h.records()[0].pending());
        // A very late response after the client gave up is ignored.
        h.response(0, 0, 999, true, None, 0);
        assert!(h.records()[0].pending());
    }
}
