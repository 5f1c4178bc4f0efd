//! Write-ahead log and sorted-run formats for the simulated persistence tier.
//!
//! The durable tier stores two kinds of segments on the [`SimDevice`]:
//!
//! * an append-only **WAL** of group-committed records — every mutation the
//!   MR layer applies appends one [`WalRecord`]; records are framed into
//!   groups, each sealed with a group checksum and a commit marker, and a
//!   group becomes the durability point for every record inside it;
//! * a compacted read-only **sorted run** ([`SortedRun`]) of evicted cold
//!   items, rewritten wholesale by the background compactor and looked up on
//!   hot-cache + index miss.
//!
//! Both formats carry FNV-1a checksums at every level, so a torn tail (the
//! seeded crash fault) or a flipped bit is *detected* and the log is cleanly
//! truncated at the last valid group — never replayed past. [`recover`]
//! rebuilds the post-crash DRAM state, the cold-tier tombstone set and the
//! exactly-once dedup floor from `initial fill + run + WAL tail`, and is
//! idempotent: recovering the recovered log yields the same state.
//!
//! This crate is pure data-plumbing: no simulated time, no I/O — the engine
//! wiring (latency, group timing, crash hook) lives in utps-sim/utps-core.
//!
//! [`SimDevice`]: ../utps_sim/device/struct.SimDevice.html

use std::collections::BTreeMap;

/// Magic opening every WAL group frame.
pub(crate) const GROUP_MAGIC: [u8; 4] = *b"UWAL";
/// Magic closing a committed group.
pub(crate) const COMMIT_MAGIC: [u8; 4] = *b"GCMT";
/// Magic opening a sorted-run segment.
pub(crate) const RUN_MAGIC: [u8; 4] = *b"URUN";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` (same family as the oracle's digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The mutation a WAL record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Insert/overwrite `key` with the record's value bytes.
    Put,
    /// Remove `key`; the value is empty.
    Delete,
}

/// One logged mutation, in the order the MR layer applied it.
///
/// `wal_seq` is the *global apply order* across all MR workers — groups from
/// different workers hold non-contiguous seqs, and recovery sorts by it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Global apply-order sequence number (dense, starts at 1).
    pub wal_seq: u64,
    /// Issuing client id (dedup identity).
    pub client: u32,
    /// Client-local request sequence (dedup identity).
    pub client_seq: u64,
    /// The key mutated.
    pub key: u64,
    /// Put or delete.
    pub op: WalOp,
    /// Value bytes (empty for deletes).
    pub value: Vec<u8>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
    let v = bytes.get(*at..*at + 4)?;
    *at += 4;
    Some(u32::from_le_bytes(v.try_into().unwrap()))
}

fn get_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let v = bytes.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(v.try_into().unwrap()))
}

impl WalRecord {
    /// Encodes the record (with its trailing per-record checksum) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        put_u64(out, self.wal_seq);
        put_u32(out, self.client);
        put_u64(out, self.client_seq);
        put_u64(out, self.key);
        out.push(match self.op {
            WalOp::Put => 0,
            WalOp::Delete => 1,
        });
        put_u32(out, self.value.len() as u32);
        out.extend_from_slice(&self.value);
        let crc = fnv1a(&out[start..]);
        put_u64(out, crc);
    }

    /// Decodes one record at `*at`, verifying its checksum. Advances `*at`
    /// past the record on success; on any mismatch returns `None` with `*at`
    /// unspecified (the caller discards the whole group).
    pub fn decode(bytes: &[u8], at: &mut usize) -> Option<WalRecord> {
        let start = *at;
        let wal_seq = get_u64(bytes, at)?;
        let client = get_u32(bytes, at)?;
        let client_seq = get_u64(bytes, at)?;
        let key = get_u64(bytes, at)?;
        let op = match bytes.get(*at)? {
            0 => WalOp::Put,
            1 => WalOp::Delete,
            _ => return None,
        };
        *at += 1;
        let len = get_u32(bytes, at)? as usize;
        let value = bytes.get(*at..*at + len)?.to_vec();
        *at += len;
        let body_end = *at;
        let crc = get_u64(bytes, at)?;
        if crc != fnv1a(&bytes[start..body_end]) {
            return None;
        }
        Some(WalRecord {
            wal_seq,
            client,
            client_seq,
            key,
            op,
            value,
        })
    }
}

/// Encodes one committed group: magic, group seq, record count, the records
/// (each self-checksummed), a whole-group checksum, and the commit marker.
/// The group is the durability unit — the tier acks an op only once the
/// device write of its group has completed.
pub fn encode_group(group_seq: u64, records: &[WalRecord]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(64 + records.iter().map(|r| r.value.len() + 64).sum::<usize>());
    out.extend_from_slice(&GROUP_MAGIC);
    put_u64(&mut out, group_seq);
    put_u32(&mut out, records.len() as u32);
    for r in records {
        r.encode(&mut out);
    }
    let crc = fnv1a(&out);
    put_u64(&mut out, crc);
    out.extend_from_slice(&COMMIT_MAGIC);
    out
}

/// The result of scanning a (possibly torn) WAL byte stream.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// All records from fully valid groups, in on-log order.
    pub records: Vec<WalRecord>,
    /// Number of valid groups.
    pub groups: u64,
    /// Byte length of the valid prefix (scanning `bytes[..valid_len]` again
    /// yields the identical result — truncation is clean and idempotent).
    pub valid_len: usize,
    /// Whether trailing bytes past the last valid group were discarded.
    pub truncated: bool,
}

/// Scans a WAL byte stream, stopping at the first invalid group. A group is
/// valid only if its magic, every per-record checksum, the group checksum
/// and the commit marker all verify — a torn tail or bit flip anywhere in a
/// group discards that group and everything after it.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan::default();
    let mut at = 0usize;
    'groups: while at < bytes.len() {
        let group_start = at;
        if bytes.get(at..at + 4) != Some(&GROUP_MAGIC) {
            break;
        }
        let mut cur = at + 4;
        let Some(_group_seq) = get_u64(bytes, &mut cur) else {
            break;
        };
        let Some(count) = get_u32(bytes, &mut cur) else {
            break;
        };
        let mut records = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match WalRecord::decode(bytes, &mut cur) {
                Some(r) => records.push(r),
                None => break 'groups,
            }
        }
        let body_end = cur;
        let Some(crc) = get_u64(bytes, &mut cur) else {
            break;
        };
        if crc != fnv1a(&bytes[group_start..body_end]) {
            break;
        }
        if bytes.get(cur..cur + 4) != Some(&COMMIT_MAGIC) {
            break;
        }
        at = cur + 4;
        scan.records.extend(records);
        scan.groups += 1;
        scan.valid_len = at;
    }
    scan.truncated = scan.valid_len < bytes.len();
    scan
}

/// A compacted, read-only sorted run of evicted cold items.
///
/// `wal_floor` is the WAL seq the compactor observed when it sealed the run:
/// every run entry reflects all mutations with `wal_seq < wal_floor`, and
/// the compactor guarantees no run key was resident in DRAM at seal time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedRun {
    /// WAL seq floor: run entries fold in every mutation below it.
    pub wal_floor: u64,
    /// `(key, value)` pairs sorted by key.
    pub entries: Vec<(u64, Vec<u8>)>,
}

impl SortedRun {
    /// Binary-search lookup.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &self.entries[i].1[..])
    }

    /// Whether the run holds `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.binary_search_by_key(&key, |&(k, _)| k).is_ok()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total value bytes.
    pub(crate) fn value_bytes(&self) -> usize {
        self.entries.iter().map(|(_, v)| v.len()).sum()
    }

    /// Encodes the run: magic, floor, count, sorted entries, trailing
    /// whole-segment checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.value_bytes() + self.len() * 12);
        out.extend_from_slice(&RUN_MAGIC);
        put_u64(&mut out, self.wal_floor);
        put_u32(&mut out, self.entries.len() as u32);
        for (k, v) in &self.entries {
            put_u64(&mut out, *k);
            put_u32(&mut out, v.len() as u32);
            out.extend_from_slice(v);
        }
        let crc = fnv1a(&out);
        put_u64(&mut out, crc);
        out
    }

    /// Decodes a run segment; `None` on any damage (a torn run write is
    /// simply ignored at recovery — the previous run is still intact).
    pub fn decode(bytes: &[u8]) -> Option<SortedRun> {
        if bytes.get(..4) != Some(&RUN_MAGIC) {
            return None;
        }
        let mut at = 4usize;
        let wal_floor = get_u64(bytes, &mut at)?;
        let count = get_u32(bytes, &mut at)? as usize;
        let mut entries = Vec::with_capacity(count);
        let mut last_key = None;
        for _ in 0..count {
            let k = get_u64(bytes, &mut at)?;
            if let Some(prev) = last_key {
                if k <= prev {
                    return None;
                }
            }
            last_key = Some(k);
            let len = get_u32(bytes, &mut at)? as usize;
            let v = bytes.get(at..at + len)?.to_vec();
            at += len;
            entries.push((k, v));
        }
        let body_end = at;
        let crc = get_u64(bytes, &mut at)?;
        if at != bytes.len() || crc != fnv1a(&bytes[..body_end]) {
            return None;
        }
        Some(SortedRun { wal_floor, entries })
    }
}

/// The state [`recover`] rebuilds from `initial fill + run + WAL tail`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    /// Post-recovery DRAM contents (keys served cold by the run excluded).
    pub items: BTreeMap<u64, Vec<u8>>,
    /// Run keys deleted at or after the run's floor — the cold tier must
    /// not resurrect these.
    pub tombstones: Vec<u64>,
    /// Every `(client, client_seq)` whose record survived — the exactly-once
    /// dedup floor is rebuilt by replaying these.
    pub acked: Vec<(u32, u64)>,
    /// Next WAL seq to assign (max surviving seq + 1).
    pub next_wal_seq: u64,
    /// Valid WAL prefix length (remount exactly these bytes).
    pub wal_valid_len: usize,
    /// Whether the WAL had a torn/corrupt tail.
    pub truncated: bool,
    /// Records replayed.
    pub replayed: u64,
    /// Valid groups scanned.
    pub groups: u64,
}

/// Replays a WAL tail over the last compacted run and the initial fill.
///
/// Semantics: DRAM is rebuilt as `initial fill + every surviving record in
/// `wal_seq` order`; then every run key whose last surviving mutation is
/// older than the run floor (or untouched) is *evicted* from DRAM — the run
/// holds its authoritative value and the cold path serves it. Run keys whose
/// final state is "deleted at or after the floor" become tombstones.
///
/// Gaps in the seq stream are safe: a lost group's records were never
/// ackable (the group-commit barrier holds completions until the contiguous
/// durable prefix covers them), so dropping them cannot lose an acked op.
pub fn recover<I>(initial: I, run: Option<&SortedRun>, wal: &[u8]) -> Recovered
where
    I: IntoIterator<Item = (u64, Vec<u8>)>,
{
    let scan = scan_wal(wal);
    let mut items: BTreeMap<u64, Vec<u8>> = initial.into_iter().collect();
    let mut records = scan.records;
    records.sort_by_key(|r| r.wal_seq);

    let mut acked = Vec::with_capacity(records.len());
    let mut last_touch: BTreeMap<u64, u64> = BTreeMap::new();
    let mut next_wal_seq = 1;
    for r in &records {
        acked.push((r.client, r.client_seq));
        last_touch.insert(r.key, r.wal_seq);
        next_wal_seq = next_wal_seq.max(r.wal_seq + 1);
        match r.op {
            WalOp::Put => {
                items.insert(r.key, r.value.clone());
            }
            WalOp::Delete => {
                items.remove(&r.key);
            }
        }
    }

    let mut tombstones = Vec::new();
    if let Some(run) = run {
        for (k, _) in &run.entries {
            let touched_past_floor = last_touch.get(k).is_some_and(|&s| s >= run.wal_floor);
            if !touched_past_floor {
                // Run value is authoritative; the key lives cold.
                items.remove(k);
            } else if !items.contains_key(k) {
                // Deleted after the floor: keep the run from resurrecting it.
                tombstones.push(*k);
            }
        }
    }

    Recovered {
        items,
        tombstones,
        acked,
        next_wal_seq,
        wal_valid_len: scan.valid_len,
        truncated: scan.truncated,
        replayed: records.len() as u64,
        groups: scan.groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, key: u64, val: &[u8]) -> WalRecord {
        WalRecord {
            wal_seq: seq,
            client: 1,
            client_seq: seq,
            key,
            op: WalOp::Put,
            value: val.to_vec(),
        }
    }

    fn del(seq: u64, key: u64) -> WalRecord {
        WalRecord {
            wal_seq: seq,
            client: 1,
            client_seq: seq,
            key,
            op: WalOp::Delete,
            value: vec![],
        }
    }

    #[test]
    fn group_round_trip() {
        let recs = vec![rec(1, 10, b"aa"), del(2, 11), rec(3, 12, b"")];
        let bytes = encode_group(7, &recs);
        let scan = scan_wal(&bytes);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.groups, 1);
        assert_eq!(scan.valid_len, bytes.len());
        assert!(!scan.truncated);
    }

    #[test]
    fn torn_tail_truncates_at_last_valid_group() {
        let mut log = encode_group(1, &[rec(1, 5, b"x")]);
        let g1 = log.len();
        log.extend(encode_group(2, &[rec(2, 6, b"y")]));
        let g2 = log.len();
        log.extend(encode_group(3, &[rec(3, 7, b"z")]));
        for cut in g2 + 1..log.len() {
            let scan = scan_wal(&log[..cut]);
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
            assert_eq!(scan.valid_len, g2);
            assert!(scan.truncated);
        }
        let scan = scan_wal(&log[..g1 + 3]);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn bit_flip_detected() {
        let mut log = encode_group(1, &[rec(1, 5, b"hello")]);
        log.extend(encode_group(2, &[rec(2, 6, b"world")]));
        let g1 = encode_group(1, &[rec(1, 5, b"hello")]).len();
        for bit in 0..8 {
            let mut bad = log.clone();
            bad[g1 + 20] ^= 1 << bit;
            let scan = scan_wal(&bad);
            assert_eq!(scan.records.len(), 1, "flip bit {bit} undetected");
            assert!(scan.truncated);
        }
    }

    #[test]
    fn run_round_trip_and_damage() {
        let run = SortedRun {
            wal_floor: 42,
            entries: vec![(1, b"a".to_vec()), (5, b"bb".to_vec()), (9, vec![])],
        };
        let bytes = run.encode();
        assert_eq!(SortedRun::decode(&bytes), Some(run.clone()));
        assert_eq!(run.get(5), Some(&b"bb"[..]));
        assert_eq!(run.get(2), None);
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert_eq!(SortedRun::decode(&bad), None);
        assert_eq!(SortedRun::decode(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn recover_replays_over_run_and_fill() {
        // Initial fill: keys 0..4 = "i". Run (floor 10): keys 1, 2 evicted.
        let fill = (0..4u64).map(|k| (k, b"i".to_vec()));
        let run = SortedRun {
            wal_floor: 10,
            entries: vec![(1, b"cold1".to_vec()), (2, b"cold2".to_vec())],
        };
        // WAL: pre-floor put of 1 (stale vs run), post-floor put of 2,
        // post-floor delete of 3.
        let mut log = encode_group(1, &[rec(7, 1, b"stale")]);
        log.extend(encode_group(2, &[rec(11, 2, b"fresh"), del(12, 3)]));
        let r = recover(fill, Some(&run), &log);
        // Key 1: run authoritative, evicted from DRAM.
        assert!(!r.items.contains_key(&1));
        // Key 2: post-floor put wins, lives in DRAM.
        assert_eq!(r.items.get(&2).map(|v| &v[..]), Some(&b"fresh"[..]));
        // Key 3: deleted; not a run key, no tombstone.
        assert!(!r.items.contains_key(&3));
        assert_eq!(r.tombstones, Vec::<u64>::new());
        assert_eq!(r.items.get(&0).map(|v| &v[..]), Some(&b"i"[..]));
        assert_eq!(r.next_wal_seq, 13);
        assert_eq!(r.acked.len(), 3);
    }

    #[test]
    fn post_floor_delete_of_run_key_tombstones() {
        let run = SortedRun {
            wal_floor: 5,
            entries: vec![(8, b"cold".to_vec())],
        };
        let log = encode_group(1, &[del(6, 8)]);
        let r = recover(std::iter::empty(), Some(&run), &log);
        assert!(!r.items.contains_key(&8));
        assert_eq!(r.tombstones, vec![8]);
    }

    #[test]
    fn recovery_idempotent() {
        let fill: Vec<(u64, Vec<u8>)> = (0..8u64).map(|k| (k, vec![0xab; 4])).collect();
        let mut log = encode_group(1, &[rec(1, 2, b"a"), rec(2, 3, b"b")]);
        log.extend(encode_group(2, &[del(3, 2)]));
        log.extend_from_slice(b"torn garbage");
        let once = recover(fill.clone(), None, &log);
        let twice = recover(fill, None, &log[..once.wal_valid_len]);
        assert!(once.truncated);
        assert!(!twice.truncated);
        assert_eq!(once.items, twice.items);
        assert_eq!(once.acked, twice.acked);
        assert_eq!(once.next_wal_seq, twice.next_wal_seq);
    }
}
