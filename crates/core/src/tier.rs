//! Tiered persistence behind the MR layer: seeded WAL + µs-latency cold tier.
//!
//! The paper's thread-per-stage split keeps the *hot* path in DRAM; this
//! module adds the durable substrate underneath it without perturbing a
//! single hot-path cycle when disabled (`RunConfig::tier == None` leaves the
//! store byte-identical to the DRAM-only build — pinned by the stats
//! goldens).
//!
//! Three pieces:
//!
//! * **Write-ahead log.** Every mutation the MR layer applies is also
//!   appended to a per-run WAL buffer; the batch's records are sealed into
//!   one group commit when the MR super-batch retires (`all_done`), riding
//!   the batch boundary the CR–MR queue already creates — group commit costs
//!   one device write per batch, not per op. Acks (including read acks,
//!   which may observe not-yet-durable writes applied in place) are deferred
//!   behind the **durability barrier**: no response leaves the server until
//!   `durable_seq` covers every WAL sequence the response could depend on.
//! * **Cold tier.** A background compactor evicts cold items from DRAM into
//!   a read-only [`SortedRun`] written to its own device segment. DRAM
//!   misses consult the run; hits park the op for the device read latency
//!   and then complete with the run's value. Deletes of cold keys leave a
//!   tombstone (logged in the WAL) so the run copy cannot resurrect.
//! * **Crash + recovery.** [`SimDevice::crash`] truncates each segment to
//!   its durable prefix (plus a seeded torn tail); [`crate::crash`] rebuilds
//!   a server from the surviving run + WAL via [`utps_wal::recover`] and
//!   proves the combined pre-crash/post-recovery history linearizable.
//!
//! Determinism: the device draws from its own splitmix stream (seeded from
//! the run seed), commit release order is the WAL-sequence order, and the
//! compactor sweeps the key space with a persistent cursor — so equal seeds
//! give byte-identical runs, crash points, and recoveries.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use utps_index::Step;
use utps_sim::device::{DeviceConfig, SimDevice};
use utps_sim::hashutil::FxHashMap;
use utps_sim::time::SimTime;
use utps_sim::{Counter, Ctx, MetricsRegistry, MetricsSnapshot, Process, StepOutcome};
use utps_wal::{SortedRun, WalOp, WalRecord};
use utps_workload::Op;

use crate::hotcache::HotCache;
use crate::msg::{OpKind, Request};
use crate::store::{KvOp, KvOpOutput, KvStore};
use crate::system::ServerWorld;

/// Configuration for the durable tier (absent = DRAM-only, the seed
/// behavior).
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Simulated log/run device.
    pub device: DeviceConfig,
    /// Eviction high-water mark: the compactor evicts cold items once the
    /// DRAM store holds more than this many.
    pub dram_items_max: usize,
    /// Max items evicted per compaction pass.
    pub evict_batch: usize,
    /// Compactor period, picoseconds.
    pub compact_every_ps: u64,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            device: DeviceConfig::default(),
            dram_items_max: 16_000,
            evict_batch: 512,
            compact_every_ps: 50 * utps_sim::time::MICROS,
        }
    }
}

/// Live state of the durable tier, shared by every worker of one machine.
pub struct TierState {
    /// Tier configuration.
    pub cfg: TierConfig,
    /// The simulated device (WAL segment + run segments).
    pub device: SimDevice,
    /// Segment index of the WAL.
    wal_seg: usize,
    /// Highest WAL sequence assigned (sequences start at 1; 0 = none).
    last_applied: u64,
    /// Highest WAL sequence with every predecessor durable.
    durable_seq: u64,
    /// Committed sequences above `durable_seq` (gaps while other workers'
    /// groups are still in flight).
    committed_above: BTreeSet<u64>,
    /// Sealed groups whose device write is still in flight, FIFO by
    /// completion time (the device clamps per-segment completions monotone).
    inflight: VecDeque<(SimTime, Vec<u64>)>,
    /// Next group sequence number.
    next_group_seq: u64,
    /// Current sorted run (the cold tier), if any.
    pub run: Option<SortedRun>,
    /// Keys deleted since the run was sealed whose run copy must not be
    /// served. Cleared when the next run (which omits them) is sealed.
    tombstones: BTreeSet<u64>,
    /// Keys with in-flight server ops (refcounted); the compactor must not
    /// evict them out from under a multi-step op FSM.
    active: FxHashMap<u64, u32>,
    /// In-flight range scans; compaction defers entirely while any run.
    active_scans: u32,
    /// Persistent eviction sweep cursor (determinism: resumes, never
    /// rescans from zero).
    evict_cursor: u64,
}

impl TierState {
    /// Fresh tier: empty WAL segment, no run.
    pub fn new(cfg: TierConfig, run_seed: u64) -> Self {
        let mut device = SimDevice::new(cfg.device.clone(), run_seed);
        let wal_seg = device.new_segment();
        TierState {
            cfg,
            device,
            wal_seg,
            last_applied: 0,
            durable_seq: 0,
            committed_above: BTreeSet::new(),
            inflight: VecDeque::new(),
            next_group_seq: 0,
            run: None,
            tombstones: BTreeSet::new(),
            active: FxHashMap::default(),
            active_scans: 0,
            evict_cursor: 0,
        }
    }

    /// Remounts a tier after crash recovery: the surviving WAL prefix and
    /// run are preloaded as already-durable segments, and sequence numbering
    /// resumes past the highest replayed record.
    pub fn remount(
        cfg: TierConfig,
        run_seed: u64,
        wal_bytes: Vec<u8>,
        run: Option<SortedRun>,
        next_wal_seq: u64,
        next_group_seq: u64,
        tombstones: impl IntoIterator<Item = u64>,
    ) -> Self {
        let mut device = SimDevice::new(cfg.device.clone(), run_seed);
        let wal_seg = device.preload_segment(wal_bytes);
        if let Some(r) = &run {
            device.preload_segment(r.encode());
        }
        TierState {
            cfg,
            device,
            wal_seg,
            last_applied: next_wal_seq - 1,
            durable_seq: next_wal_seq - 1,
            committed_above: BTreeSet::new(),
            inflight: VecDeque::new(),
            next_group_seq,
            run,
            tombstones: tombstones.into_iter().collect(),
            active: FxHashMap::default(),
            active_scans: 0,
            evict_cursor: 0,
        }
    }

    /// Highest WAL sequence assigned so far.
    pub fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// Highest WAL sequence with a fully durable prefix. Acks for anything
    /// that could have observed sequence `s` must wait for
    /// `durable_seq >= s`.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Assigns the next WAL sequence (at apply time, so the global sequence
    /// order is the apply order).
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.last_applied += 1;
        self.last_applied
    }

    /// Seals `records` as one commit group: encodes, appends to the WAL
    /// segment, counts the group and its device write into `reg`, and
    /// tracks the in-flight write. Returns the completion time.
    pub(crate) fn seal_group(
        &mut self,
        reg: &mut MetricsRegistry,
        records: &[WalRecord],
        now: SimTime,
    ) -> SimTime {
        debug_assert!(!records.is_empty());
        let bytes = utps_wal::encode_group(self.next_group_seq, records);
        self.next_group_seq += 1;
        reg.inc(Counter::WalGroups);
        reg.add(Counter::WalRecords, records.len() as u64);
        reg.add(Counter::WalBytes, bytes.len() as u64);
        reg.inc(Counter::DeviceWrites);
        let done = self.device.append(self.wal_seg, &bytes, now);
        self.inflight
            .push_back((done, records.iter().map(|r| r.wal_seq).collect()));
        done
    }

    /// Seals a retired batch's WAL records (if any) as one commit group,
    /// charging the group encode: header plus record copies into the tail.
    pub fn seal_batch(&mut self, ctx: &mut Ctx<'_>, wal_buf: &mut Vec<WalRecord>) {
        if wal_buf.is_empty() {
            return;
        }
        ctx.compute_ns(60 + 8 * wal_buf.len() as u64);
        let now = ctx.now();
        self.seal_group(&mut ctx.machine().registry, wal_buf, now);
        wal_buf.clear();
    }

    /// Retires every commit group whose device write has completed by `now`
    /// and advances `durable_seq` over the contiguous committed prefix.
    /// Safe to call with any worker's clock: completion times only ever
    /// admit groups, never un-admit them. Every caller passes its step's
    /// start, so a call before `TierState::next_commit` is a no-op and a
    /// parked CR worker may skip those calls (DESIGN.md §10 "Parked
    /// polls").
    pub fn advance(&mut self, now: SimTime) {
        while self.inflight.front().is_some_and(|(done, _)| *done <= now) {
            let (_, seqs) = self.inflight.pop_front().expect("checked non-empty");
            self.committed_above.extend(seqs);
        }
        while self.committed_above.remove(&(self.durable_seq + 1)) {
            self.durable_seq += 1;
        }
    }

    /// Completion time of the oldest in-flight commit group, if any — the
    /// time an idle worker should advance to while it waits on the barrier.
    pub(crate) fn next_commit(&self) -> Option<SimTime> {
        self.inflight.front().map(|(done, _)| *done)
    }

    /// The run's live copy of `key`: tombstones shadow the run. Uncounted
    /// and uncopied (the delete path, host-side checks).
    pub fn run_value(&self, key: u64) -> Option<&[u8]> {
        if self.tombstones.contains(&key) {
            return None;
        }
        self.run.as_ref().and_then(|r| r.get(key))
    }

    /// Cold-tier lookup on a DRAM miss, counted into `reg` as
    /// `tier.cold_hit` or `tier.cold_miss`. Returns an owned snapshot (the
    /// run may be replaced while the reader parks on the device latency).
    pub fn cold_get(&self, reg: &mut MetricsRegistry, key: u64) -> Option<Vec<u8>> {
        let v = self.run_value(key).map(<[u8]>::to_vec);
        reg.inc(match v {
            Some(_) => Counter::TierColdHit,
            None => Counter::TierColdMiss,
        });
        v
    }

    /// Records that `key`'s run copy (if any) is dead.
    pub fn tombstone(&mut self, key: u64) {
        self.tombstones.insert(key);
    }

    /// Marks a point op in flight on `key` (blocks eviction of that key).
    pub fn active_inc(&mut self, key: u64) {
        *self.active.entry(key).or_insert(0) += 1;
    }

    /// Releases one in-flight op on `key`.
    pub(crate) fn active_dec(&mut self, key: u64) {
        if let Some(n) = self.active.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.active.remove(&key);
            }
        }
    }

    fn is_active(&self, key: u64) -> bool {
        self.active.contains_key(&key)
    }

    /// Marks a range scan in flight (defers compaction entirely).
    pub(crate) fn scan_inc(&mut self) {
        self.active_scans += 1;
    }

    /// Releases one in-flight range scan.
    pub(crate) fn scan_dec(&mut self) {
        self.active_scans -= 1;
    }

    /// Current run size (items).
    pub fn run_items(&self) -> u64 {
        self.run.as_ref().map_or(0, |r| r.len() as u64)
    }

    /// Live tombstone count.
    pub fn tombstone_count(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Pins the tier's event counters at zero and adds its end-of-run
    /// levels to `reg`. Callers fold only when the tier is enabled, so
    /// tier-less documents stay byte-identical to the pre-tier goldens.
    pub fn fold_into(&self, reg: &mut MetricsRegistry) {
        reg.pin(&[
            Counter::WalRecords,
            Counter::WalGroups,
            Counter::WalBytes,
            Counter::DeviceReads,
            Counter::DeviceWrites,
            Counter::TierColdHit,
            Counter::TierColdMiss,
            Counter::TierCompactions,
            Counter::TierEvicted,
        ]);
        reg.add(Counter::TierRunItems, self.run_items());
        reg.add(Counter::TierTombstones, self.tombstone_count());
    }

    /// Simulates a power loss at `at`: truncates every device segment to
    /// its durable (possibly torn) prefix and returns what a restarting
    /// process would find on media — the WAL image and the newest run
    /// segment that still decodes (a torn newer run falls back to its
    /// predecessor; the never-checkpointed WAL replays over either).
    pub(crate) fn crash_image(&mut self, at: SimTime) -> CrashImage {
        let torn_segments = self.device.crash(at);
        let wal = self.device.bytes(self.wal_seg).to_vec();
        let mut run = None;
        for seg in (0..self.device.segment_count()).rev() {
            if seg == self.wal_seg {
                continue;
            }
            if let Some(r) = utps_wal::SortedRun::decode(self.device.bytes(seg)) {
                run = Some(r);
                break;
            }
        }
        CrashImage {
            torn_segments,
            wal,
            run,
        }
    }
}

/// The on-media state surviving a [`TierState::crash_image`] power loss.
#[derive(Clone, Debug)]
pub(crate) struct CrashImage {
    /// Device segments whose in-flight tail was torn off.
    pub torn_segments: usize,
    /// The WAL segment's surviving bytes (tail possibly torn/corrupt).
    pub wal: Vec<u8>,
    /// Newest decodable compacted run, if any survived.
    pub run: Option<utps_wal::SortedRun>,
}

/// One compaction pass: evict cold DRAM items above the high-water mark
/// (skipping hot-cached and op-active keys), merge them with the surviving
/// old-run entries into a new sorted run, and append it to a fresh device
/// segment. No-op while a range scan is in flight or when there is nothing
/// to fold in. Shared by the μTPS and baseline compactor processes.
pub fn compact_pass(
    tier: &mut TierState,
    store: &mut KvStore,
    mut hot: Option<&mut HotCache>,
    total_keys: u64,
    ctx: &mut Ctx<'_>,
) {
    if tier.active_scans > 0 || total_keys == 0 {
        return;
    }
    // Evict down to the high-water mark, sweeping the key space from the
    // persistent cursor. Hot-cached keys stay (the CR layer's cache maps
    // them to ItemIds that must remain in the index); op-active keys stay
    // (a multi-step FSM may hold their ItemId across polls).
    let mut evicted: Vec<(u64, Vec<u8>)> = Vec::new();
    if store.len() > tier.cfg.dram_items_max {
        let want = tier
            .cfg
            .evict_batch
            .min(store.len() - tier.cfg.dram_items_max);
        let mut scanned = 0u64;
        while evicted.len() < want && scanned < total_keys {
            let key = tier.evict_cursor % total_keys;
            tier.evict_cursor = (key + 1) % total_keys;
            scanned += 1;
            if tier.is_active(key) {
                continue;
            }
            if hot.as_deref_mut().is_some_and(|h| h.contains_native(key)) {
                continue;
            }
            let Some(value) = store.get_native(key).map(<[u8]>::to_vec) else {
                continue;
            };
            let id = store
                .index
                .remove_native(key)
                .expect("indexed key must remove");
            store.items.retire(id);
            evicted.push((key, value));
        }
    }
    if evicted.is_empty() && tier.tombstones.is_empty() {
        return;
    }
    // Merge: surviving old-run entries (not shadowed by DRAM, not
    // tombstoned) + this pass's evictions. The new run reflects every write
    // up to `last_applied`, so replaying WAL sequences >= floor over it
    // reproduces the current state.
    let mut merged: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    if let Some(old) = &tier.run {
        for (key, value) in &old.entries {
            if tier.tombstones.contains(key) || store.get_native(*key).is_some() {
                continue;
            }
            merged.insert(*key, value.clone());
        }
    }
    let n_evicted = evicted.len();
    for (key, value) in evicted {
        merged.insert(key, value);
    }
    let run = SortedRun {
        wal_floor: tier.last_applied + 1,
        entries: merged.into_iter().collect(),
    };
    let bytes = run.encode();
    let seg = tier.device.new_segment();
    tier.device.append(seg, &bytes, ctx.now());
    tier.run = Some(run);
    tier.tombstones.clear();
    let reg = &mut ctx.machine().registry;
    reg.inc(Counter::DeviceWrites);
    reg.inc(Counter::TierCompactions);
    reg.add(Counter::TierEvicted, n_evicted as u64);
    // Host-side restructuring cost: per-item copy plus the index removals.
    ctx.compute_ns(200 + 150 * n_evicted as u64);
}

/// Background compactor for any server world with the tier enabled: one
/// eviction/merge pass per `compact_every_ps`, honoring the world's hot
/// cache when it has one.
pub struct TierCompactorProc {
    total_keys: u64,
    next_at: SimTime,
}

impl TierCompactorProc {
    /// Compactor over a `[0, total_keys)` key space, first pass at
    /// `first_at`.
    pub fn new(total_keys: u64, first_at: SimTime) -> Self {
        TierCompactorProc {
            total_keys,
            next_at: first_at,
        }
    }
}

impl<W: ServerWorld> Process<W> for TierCompactorProc {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome {
        let parts = world.parts();
        let Some(tier) = parts.tier.as_mut() else {
            ctx.halt();
            return StepOutcome::Idle;
        };
        tier.advance(ctx.now());
        if ctx.now() >= self.next_at {
            compact_pass(tier, parts.store, parts.hot, self.total_keys, ctx);
            self.next_at = SimTime(ctx.now().as_ps() + tier.cfg.compact_every_ps);
        }
        ctx.advance_to(self.next_at);
        StepOutcome::Idle
    }

    fn name(&self) -> &'static str {
        "tier-compactor"
    }
}

/// The durability barrier: acks (or completion signals) parked FIFO behind
/// the WAL sequence they depend on. Every ack — reads included, since they
/// may have observed an earlier un-durable write applied in place — waits
/// here when the tier is on; `need_seq` is monotone per worker.
pub struct DurabilityBarrier<T> {
    parked: VecDeque<(u64, T)>,
}

impl<T> Default for DurabilityBarrier<T> {
    fn default() -> Self {
        DurabilityBarrier {
            parked: VecDeque::new(),
        }
    }
}

impl<T> DurabilityBarrier<T> {
    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Entries parked.
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// Parks `item` until every WAL sequence up to `need_seq` is durable.
    pub fn park(&mut self, need_seq: u64, item: T) {
        self.parked.push_back((need_seq, item));
    }

    /// Advances `tier`'s durability to `now` and releases, in FIFO order,
    /// every parked entry it now covers. With nothing parked the tier is
    /// left untouched: durability then progresses only on the clocks of
    /// workers that are actually waiting on it.
    pub fn drain<'a>(
        &'a mut self,
        tier: &mut TierState,
        now: SimTime,
    ) -> impl Iterator<Item = T> + 'a {
        let durable = if self.parked.is_empty() {
            0
        } else {
            tier.advance(now);
            tier.durable_seq()
        };
        std::iter::from_fn(move || {
            let (need, _) = self.parked.front()?;
            if *need > durable {
                return None;
            }
            self.parked.pop_front().map(|(_, item)| item)
        })
    }
}

/// With acks parked on the barrier and nothing else runnable, jumps to the
/// oldest in-flight group commit instead of spinning.
pub fn wait_for_commit(ctx: &mut Ctx<'_>, tier: Option<&TierState>) {
    if let Some(t) = tier.and_then(TierState::next_commit) {
        ctx.advance_to(t);
    }
}

/// Pins an op's target against the compactor while its multi-step FSM may
/// hold item or node references: the key against eviction, or — for a scan,
/// whose descent holds interior node positions across the whole range —
/// compaction entirely. [`finish_op`] releases the pin. No-op without the
/// tier.
pub fn begin_op(tier: Option<&mut TierState>, kind: OpKind, key: u64) {
    match (tier, kind) {
        (None, _) => {}
        (Some(tier), OpKind::Scan) => tier.scan_inc(),
        (Some(tier), _) => tier.active_inc(key),
    }
}

/// Tier bookkeeping when a server op's state machine completes (`req` is
/// the request it served, `out` its DRAM-side result): releases the
/// active-key guard, appends WAL records for applied writes to `wal_buf`,
/// serves get misses from the cold run, and upgrades deletes of run-only
/// keys to successes (a membership test: a delete reads nothing from the
/// device). Returns `None` when the op parked on a cold-tier
/// device read — `cold` is then armed with `(ready time, value snapshot)`
/// and the caller must not complete the op yet. Passthrough without the
/// tier.
pub fn finish_op(
    ctx: &mut Ctx<'_>,
    tier: Option<&mut TierState>,
    store: &KvStore,
    req: &Request,
    wal_buf: &mut Vec<WalRecord>,
    cold: &mut Option<(SimTime, Vec<u8>)>,
    mut out: KvOpOutput,
) -> Option<KvOpOutput> {
    let Some(tier) = tier else {
        return Some(out);
    };
    let key = req.op.key();
    let mut log = |tier: &mut TierState, op: WalOp, value: Vec<u8>| {
        wal_buf.push(WalRecord {
            wal_seq: tier.next_seq(),
            client: req.client,
            client_seq: req.seq,
            key,
            op,
            value,
        });
    };
    match req.op {
        Op::Scan { .. } => {
            tier.scan_dec();
            return Some(out);
        }
        _ => tier.active_dec(key),
    }
    match req.op {
        Op::Put { .. } if out.ok => {
            // The put's write is the most recent mutation of this key, so
            // the current value is exactly what must be logged.
            if let Some(value) = store.get_native(key).map(<[u8]>::to_vec) {
                // Copy the record into the group-commit buffer.
                ctx.compute_ns(10 + value.len() as u64 / 16);
                log(tier, WalOp::Put, value);
            }
        }
        Op::Delete { .. } => {
            let cold_only = !out.ok && tier.run_value(key).is_some();
            if out.ok || cold_only {
                // Kill any run copy; log the delete. A delete that missed
                // DRAM but hit the run succeeds by tombstone alone — the
                // run is immutable, so no device write beyond the WAL is
                // needed.
                tier.tombstone(key);
                ctx.compute_ns(10);
                log(tier, WalOp::Delete, Vec::new());
                out.ok = true;
            }
        }
        Op::Get { .. } if !out.ok => {
            let reg = &mut ctx.machine().registry;
            if let Some(v) = tier.cold_get(reg, key) {
                // Cold hit: park on the device read. The value snapshot is
                // taken now — compaction may replace the run before it
                // lands.
                reg.inc(Counter::DeviceReads);
                let ready = tier.device.read(v.len(), ctx.now());
                *cold = Some((ready, v));
                return None;
            }
        }
        _ => {}
    }
    Some(out)
}

/// One op of an interleaved batch (§3.3): the receive slot it serves, its
/// FSM, and — for a get that missed DRAM but hit the cold run — the device
/// read it is parked on, `(ready time, value snapshot)`. The snapshot is
/// owned because compaction may replace the run mid-read.
pub struct BatchOp {
    /// Receive-ring slot sequence of the request.
    pub seq: u64,
    op: KvOp,
    cold: Option<(SimTime, Vec<u8>)>,
}

/// What one [`BatchOp::poll`] did.
pub enum Polled {
    /// The op completed, tier bookkeeping included: answer with this.
    Done(KvOpOutput),
    /// Parked on a cold-tier device read that lands at this time.
    Cold(SimTime),
    /// Made progress (typically issued a prefetch): poll the others first.
    Ready,
    /// Hit a held lock; the spin is already charged.
    Blocked,
}

impl BatchOp {
    /// Wraps a freshly built op for the request at slot `seq`.
    pub fn new(seq: u64, op: KvOp) -> Self {
        BatchOp {
            seq,
            op,
            cold: None,
        }
    }

    /// One turn of the batch interleaver for this op: a landed cold read is
    /// staged into the op's response buffer like any get hit; otherwise one
    /// coroutine switch and one FSM step, with [`finish_op`] on completion.
    /// `req` is the request at `self.seq`. What to do about the other ops on
    /// `Cold`, `Ready` and `Blocked` is the caller's policy.
    pub fn poll(
        &mut self,
        ctx: &mut Ctx<'_>,
        store: &mut KvStore,
        tier: Option<&mut TierState>,
        req: &Request,
        wal_buf: &mut Vec<WalRecord>,
    ) -> Polled {
        if let Some((ready, _)) = self.cold {
            if ctx.now() < ready {
                return Polled::Cold(ready);
            }
            let (_, v) = self.cold.take().expect("checked above");
            return Polled::Done(KvOpOutput::cold_hit(ctx, self.op.resp_addr(), v));
        }
        ctx.fsm_switch();
        match self.op.poll(ctx, store) {
            Step::Done(out) => {
                match finish_op(ctx, tier, store, req, wal_buf, &mut self.cold, out) {
                    Some(out) => Polled::Done(out),
                    None => Polled::Cold(self.cold.as_ref().expect("armed by finish_op").0),
                }
            }
            Step::Ready => Polled::Ready,
            Step::Blocked => Polled::Blocked,
        }
    }
}

/// Per-run tier measurements, exported on [`crate::experiment::RunResult`]
/// when the tier is enabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierRunStats {
    /// WAL records appended (measured window).
    pub wal_records: u64,
    /// Commit groups sealed.
    pub wal_groups: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Device reads issued.
    pub device_reads: u64,
    /// Device writes issued.
    pub device_writes: u64,
    /// DRAM misses served from the run.
    pub cold_hits: u64,
    /// DRAM misses that missed the run too.
    pub cold_misses: u64,
    /// Compaction passes that sealed a run.
    pub compactions: u64,
    /// Items evicted from DRAM.
    pub evicted: u64,
    /// Final run size, items.
    pub run_items: u64,
    /// Tombstones outstanding at run end.
    pub tombstones: u64,
    /// Highest fully durable WAL sequence at run end.
    pub durable_seq: u64,
    /// Highest WAL sequence assigned at run end.
    pub last_applied: u64,
}

impl TierRunStats {
    /// The window's tier counters from `snap` (the machine's registry
    /// snapshot), the end-of-run levels from live tier state.
    pub fn from_tier(t: &TierState, snap: &MetricsSnapshot) -> Self {
        let count = |c: Counter| snap.counter(c.name()).unwrap_or(0);
        TierRunStats {
            wal_records: count(Counter::WalRecords),
            wal_groups: count(Counter::WalGroups),
            wal_bytes: count(Counter::WalBytes),
            device_reads: count(Counter::DeviceReads),
            device_writes: count(Counter::DeviceWrites),
            cold_hits: count(Counter::TierColdHit),
            cold_misses: count(Counter::TierColdMiss),
            compactions: count(Counter::TierCompactions),
            evicted: count(Counter::TierEvicted),
            run_items: t.run_items(),
            tombstones: t.tombstone_count(),
            durable_seq: t.durable_seq(),
            last_applied: t.last_applied(),
        }
    }

    /// Renders the `"tier"` section of [`crate::experiment::stats_json`],
    /// deterministically.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wal_records\":{},\"wal_groups\":{},\"wal_bytes\":{},\
             \"device_reads\":{},\"device_writes\":{},\"cold_hits\":{},\
             \"cold_misses\":{},\"compactions\":{},\"evicted\":{},\
             \"run_items\":{},\"tombstones\":{},\"durable_seq\":{},\
             \"last_applied\":{}}}",
            self.wal_records,
            self.wal_groups,
            self.wal_bytes,
            self.device_reads,
            self.device_writes,
            self.cold_hits,
            self.cold_misses,
            self.compactions,
            self.evicted,
            self.run_items,
            self.tombstones,
            self.durable_seq,
            self.last_applied,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, key: u64, v: u8) -> WalRecord {
        WalRecord {
            wal_seq: seq,
            client: 0,
            client_seq: seq,
            key,
            op: utps_wal::WalOp::Put,
            value: vec![v; 8],
        }
    }

    #[test]
    fn durable_seq_advances_over_contiguous_prefix() {
        let mut t = TierState::new(TierConfig::default(), 42);
        assert_eq!(t.next_seq(), 1);
        assert_eq!(t.next_seq(), 2);
        assert_eq!(t.next_seq(), 3);
        // Seal {2,3} first, then {1}: durability must wait for seq 1.
        let reg = &mut MetricsRegistry::new();
        let d1 = t.seal_group(reg, &[rec(2, 10, 2), rec(3, 11, 3)], SimTime::ZERO);
        let d2 = t.seal_group(reg, &[rec(1, 12, 1)], SimTime::ZERO);
        assert!(d2 >= d1, "same-segment appends complete in order");
        t.advance(d1);
        // Group {2,3} durable but seq 1 is not: no ack may be released.
        assert_eq!(t.durable_seq(), 0);
        t.advance(d2);
        assert_eq!(t.durable_seq(), 3);
        assert!(t.next_commit().is_none());
    }

    #[test]
    fn barrier_releases_fifo_up_to_durable_seq() {
        let mut t = TierState::new(TierConfig::default(), 42);
        let mut b = DurabilityBarrier::default();
        for seq in 1..=3 {
            assert_eq!(t.next_seq(), seq);
        }
        let reg = &mut MetricsRegistry::new();
        let d1 = t.seal_group(reg, &[rec(1, 10, 1)], SimTime::ZERO);
        // Nothing parked: nothing released, and the tier is not advanced.
        assert_eq!(b.drain(&mut t, d1).count(), 0);
        assert_eq!(t.durable_seq(), 0);
        b.park(1, 'a');
        b.park(1, 'b');
        b.park(3, 'c');
        // Before the group's device write lands nothing is durable.
        assert_eq!(b.drain(&mut t, SimTime::ZERO).count(), 0);
        // Seq 1 durable: its two acks leave in park order, seq 3's stays.
        assert_eq!(b.drain(&mut t, d1).collect::<Vec<_>>(), ['a', 'b']);
        assert_eq!(b.len(), 1);
        let d2 = t.seal_group(reg, &[rec(2, 11, 2), rec(3, 12, 3)], d1);
        assert_eq!(b.drain(&mut t, d2).collect::<Vec<_>>(), ['c']);
        assert!(b.is_empty());
    }

    #[test]
    fn cold_get_respects_tombstones() {
        let mut t = TierState::new(TierConfig::default(), 7);
        t.run = Some(SortedRun {
            wal_floor: 1,
            entries: vec![(5, vec![1, 2, 3]), (9, vec![4])],
        });
        let reg = &mut MetricsRegistry::new();
        assert_eq!(t.cold_get(reg, 5), Some(vec![1, 2, 3]));
        t.tombstone(5);
        assert_eq!(t.cold_get(reg, 5), None);
        assert_eq!(t.cold_get(reg, 9), Some(vec![4]));
        assert_eq!(t.cold_get(reg, 77), None);
        assert_eq!(reg.counter(Counter::TierColdHit), 2);
        assert_eq!(reg.counter(Counter::TierColdMiss), 2);
    }

    #[test]
    fn deleting_a_run_only_key_reads_nothing_cold() {
        let mut t = TierState::new(TierConfig::default(), 7);
        t.run = Some(SortedRun {
            wal_floor: 1,
            entries: vec![(5, vec![1, 2, 3])],
        });
        let req = Request {
            client: 0,
            seq: 0,
            op: Op::Delete { key: 5 },
            value: None,
            sent_at: SimTime::ZERO,
        };
        let (cfg, class) = (utps_sim::MachineConfig::tiny(), utps_sim::StatClass::Mr);
        let ((), t) = utps_sim::Engine::run_once(cfg, 1, class, t, move |ctx, t| {
            let store = KvStore::new(utps_index::IndexKind::Tree, 16);
            let (mut wal, mut cold) = (Vec::new(), None);
            let miss = KvOpOutput::miss();
            let out = finish_op(ctx, Some(t), &store, &req, &mut wal, &mut cold, miss);
            assert!(
                out.expect("a delete never parks").ok,
                "deleted by tombstone"
            );
            let reg = &ctx.machine().registry;
            for c in [
                Counter::TierColdHit,
                Counter::TierColdMiss,
                Counter::DeviceReads,
            ] {
                assert_eq!(reg.counter(c), 0, "{} counted", c.name());
            }
        });
        assert_eq!(t.tombstone_count(), 1);
    }

    #[test]
    fn active_refcount_round_trips() {
        let mut t = TierState::new(TierConfig::default(), 1);
        t.active_inc(4);
        t.active_inc(4);
        assert!(t.is_active(4));
        t.active_dec(4);
        assert!(t.is_active(4));
        t.active_dec(4);
        assert!(!t.is_active(4));
    }

    #[test]
    fn remount_resumes_sequencing() {
        let t = TierState::remount(
            TierConfig::default(),
            42,
            vec![1, 2, 3],
            None,
            17,
            5,
            [8u64, 9],
        );
        assert_eq!(t.last_applied(), 16);
        assert_eq!(t.durable_seq(), 16);
        assert_eq!(t.tombstone_count(), 2);
        assert_eq!(t.device.bytes(0), &[1, 2, 3]);
    }
}
