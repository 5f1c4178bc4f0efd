//! Set-associative cache hierarchy with CAT way partitioning, DDIO, and
//! directory-based coherence.
//!
//! The model tracks, per 64-byte line:
//!
//! * presence in each core's private L1/L2 (tag arrays with LRU),
//! * presence in the shared LLC (tag array with LRU restricted to the
//!   requester's CLOS way mask on allocation — Intel CAT semantics: the mask
//!   limits *fills*, hits are served from any way),
//! * a directory entry recording which cores hold private copies and whether
//!   one of them holds the line modified.
//!
//! NIC DMA follows Intel DDIO: writes update an LLC-resident line in place,
//! otherwise allocate only within the DDIO way mask; DMA reads never allocate.
//! This reproduces the §2.2.1 effect the paper builds on — in a
//! run-to-completion design the index/data stages evict network-buffer lines
//! from the LLC, turning subsequent NIC writes into DDIO-initiated misses.

use crate::config::MachineConfig;
use crate::hashutil::FxHashMap;
use crate::metrics::{AccessKind, Metrics};
use crate::time::SimTime;

/// Attribution class for metrics, mirroring the paper's per-stage PCM
/// measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatClass {
    /// Cache-resident layer threads.
    Cr = 0,
    /// Memory-resident layer threads.
    Mr = 1,
    /// Everything else (clients, management, baseline RTC workers).
    Other = 2,
}

const INVALID_TAG: u32 = u32::MAX;

/// Bit 31 of a tag word: the line is modified (private levels) or dirty
/// (LLC). Line numbers stay below [`LINE_LIMIT`], so they never reach it.
const DIRTY: u32 = 1 << 31;

/// Every line number is below this: the tag word needs bit 31 for
/// [`DIRTY`], and an invalid way's tag without it must match no line.
pub(crate) const LINE_LIMIT: u32 = u32::MAX >> 1;

/// Ways per [`Set`]: one order word and 14 tag words fill 64 bytes.
const MAX_WAYS: usize = 14;

const NIBBLES: u64 = 0x1111_1111_1111_1111;

/// One set of any level, in exactly one host cache line:
///
/// * a tag word is the line number, with [`DIRTY`] as the modified flag, or
///   [`INVALID_TAG`]; ways past the level's associativity stay invalid;
/// * the order word is an exact recency permutation of the ways, one nibble
///   per position: nibble 0 holds the most recent way, nibble `ways - 1` the
///   least recent.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Set {
    order: u64,
    tags: [u32; MAX_WAYS],
}

const _: () = assert!(
    std::mem::size_of::<Set>() == 64,
    "a set is one host cache line"
);

impl Set {
    /// One bit per way whose tag word satisfies `f`, without branching on
    /// any of them.
    #[inline]
    fn ways_where(&self, f: impl Fn(u32) -> bool) -> u32 {
        let mut bits = 0;
        for (way, &t) in self.tags.iter().enumerate() {
            bits |= u32::from(f(t)) << way;
        }
        bits
    }

    /// The first way holding `line`.
    #[inline]
    fn find(&self, line: u32) -> Option<usize> {
        let hits = self.ways_where(|t| t & !DIRTY == line);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// The most recent way.
    #[inline]
    fn mru(&self) -> usize {
        (self.order & 0xF) as usize
    }

    /// Moves `way` to the most recent position.
    #[inline]
    fn touch(&mut self, way: usize) {
        let order = self.order;
        // The lowest zero nibble of `x` is exact (a borrow only flags
        // nibbles above it), and `way` sits at a position below `ways`.
        let x = order ^ (way as u64 * NIBBLES);
        let zero = x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3);
        let shift = zero.trailing_zeros() & !3;
        let newer = order & ((1u64 << shift) - 1);
        let older = order & (!0u64 << shift << 4);
        self.order = older | newer << 4 | way as u64;
    }

    /// Stores `tag` in `way` and makes it the most recent; returns the old
    /// tag word.
    #[inline]
    fn fill(&mut self, way: usize, tag: u32) -> u32 {
        let old = std::mem::replace(&mut self.tags[way], tag);
        self.touch(way);
        old
    }
}

/// Set-associative tag storage shared by every level.
///
/// A fresh set orders its ways `ways - 1, …, 1, 0`, so way 0 is the least
/// recent. Only a fill makes a way valid and every fill touches it, so
/// never-filled ways stay behind the filled ones, lowest way last.
struct TagSets {
    ways: usize,
    sets: Vec<Set>,
}

impl TagSets {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "associativity must be 1..=14 (one 64-byte set)"
        );
        let fresh = Set {
            order: (0..ways).fold(0u64, |o, pos| o | ((ways - 1 - pos) as u64) << (4 * pos)),
            tags: [INVALID_TAG; MAX_WAYS],
        };
        TagSets {
            ways,
            sets: vec![fresh; sets],
        }
    }

    /// The tag words of set `set`'s ways.
    #[cfg(test)]
    fn tags(&self, set: usize) -> &[u32] {
        &self.sets[set].tags[..self.ways]
    }

    /// The least recent way: the last nibble.
    #[inline]
    fn lru(&self, set: usize) -> usize {
        (self.sets[set].order >> (4 * (self.ways - 1))) as usize
    }

    /// The least recent way enabled in `mask`.
    #[inline]
    fn lru_in(&self, set: usize, mask: u32) -> Option<usize> {
        let order = self.sets[set].order;
        (0..self.ways)
            .rev()
            .map(|pos| (order >> (4 * pos)) as usize & 0xF)
            .find(|&w| mask >> w & 1 != 0)
    }

    /// Bytes of tag and order words.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<Set>()
    }
}

/// A cache slot: set index and way.
type Slot = (usize, usize);

/// One private cache level (L1 or L2) of one core.
struct PrivCache {
    set_mask: u32,
    tags: TagSets,
    counter: u64,
    /// Lines dropped by [`PrivCache::invalidate`] or [`PrivCache::clear`]:
    /// the only state changes that do not advance `counter`.
    drops: u64,
}

impl PrivCache {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        PrivCache {
            set_mask: u32::try_from(sets - 1).expect("private set count fits a line number"),
            tags: TagSets::new(sets, ways),
            counter: 0,
            drops: 0,
        }
    }

    /// Advances on every lookup, insert and drop: unchanged means no access
    /// touched this level.
    fn version(&self) -> u64 {
        self.counter + self.drops
    }

    #[inline]
    fn set_of(&self, line: u32) -> usize {
        (line & self.set_mask) as usize
    }

    /// Returns the slot of `line` if present, making it the most recent.
    ///
    /// The most recent way is checked first. If it holds `line`, it is the
    /// first way that does (what the scan would find): every fill and
    /// refresh touches the first holder of its line, a fill never lands
    /// behind another holder, and a drop makes no way more recent.
    fn lookup(&mut self, line: u32) -> Option<Slot> {
        let set = self.set_of(line);
        self.counter += 1;
        let s = &mut self.tags.sets[set];
        let mru = s.mru();
        if s.tags[mru] & !DIRTY == line {
            return Some((set, mru));
        }
        let way = s.find(line)?;
        s.touch(way);
        Some((set, way))
    }

    /// Inserts `line`, returning the evicted line (tag, modified) if any.
    ///
    /// The scan stops at the first invalid way and fills it, so a copy of
    /// `line` in a later way is not seen (ROADMAP 3(a)). A full set evicts
    /// its least recent way.
    fn insert(&mut self, line: u32, modified: bool) -> Option<(u32, bool)> {
        let set = self.set_of(line);
        self.counter += 1;
        let flag = if modified { DIRTY } else { 0 };
        let ways = (1u32 << self.tags.ways) - 1;
        let stop = self.tags.sets[set].ways_where(|t| t & !DIRTY == line || t == INVALID_TAG);
        let way = match (stop & ways).trailing_zeros() as usize {
            32 => self.tags.lru(set),
            way if self.tags.sets[set].tags[way] == INVALID_TAG => way,
            way => {
                // Already present: just refresh state.
                let s = &mut self.tags.sets[set];
                s.tags[way] |= flag;
                s.touch(way);
                return None;
            }
        };
        let old = self.tags.sets[set].fill(way, line | flag);
        (old != INVALID_TAG).then_some((old & !DIRTY, old & DIRTY != 0))
    }

    fn is_modified(&self, (set, way): Slot) -> bool {
        self.tags.sets[set].tags[way] & DIRTY != 0
    }

    /// Marks a resident line modified (RFO upgrade).
    fn mark_modified(&mut self, (set, way): Slot) {
        self.tags.sets[set].tags[way] |= DIRTY;
    }

    /// Drops `line` if present; returns whether it was present and whether it
    /// was modified.
    fn invalidate(&mut self, line: u32) -> (bool, bool) {
        let set = self.set_of(line);
        let s = &mut self.tags.sets[set];
        match s.find(line) {
            Some(way) => {
                let old = std::mem::replace(&mut s.tags[way], INVALID_TAG);
                self.drops += 1;
                (true, old & DIRTY != 0)
            }
            None => (false, false),
        }
    }

    /// Invalidates everything (used when a core changes roles in tests).
    /// The order words stay: an invalid way is chosen by position, not
    /// recency, and becomes the most recent when filled.
    fn clear(&mut self) {
        for set in &mut self.tags.sets {
            set.tags = [INVALID_TAG; MAX_WAYS];
        }
        self.drops += 1;
    }

    fn contains(&self, line: u32) -> bool {
        self.tags.sets[self.set_of(line)].find(line).is_some()
    }
}

/// The shared last-level cache with way-mask-restricted allocation.
struct Llc {
    /// Set count: a line's set is `line % sets`, which need not be a power
    /// of two (the paper machine has 57 344).
    sets: u32,
    tags: TagSets,
}

impl Llc {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "LLC needs a set");
        Llc {
            sets: u32::try_from(sets).expect("LLC set count fits a line number"),
            tags: TagSets::new(sets, ways),
        }
    }

    fn ways(&self) -> usize {
        self.tags.ways
    }

    #[inline]
    fn set_of(&self, line: u32) -> usize {
        (line % self.sets) as usize
    }

    /// Looks up `line` in any way (CAT restricts fills, not hits); returns
    /// its slot. Always a full scan: a remote-dirty fill can put a second
    /// copy of a line in the most recent way, behind its first holder.
    fn lookup(&mut self, line: u32) -> Option<Slot> {
        let set = self.set_of(line);
        let s = &mut self.tags.sets[set];
        let way = s.find(line)?;
        s.touch(way);
        Some((set, way))
    }

    fn mark_dirty(&mut self, (set, way): Slot) {
        self.tags.sets[set].tags[way] |= DIRTY;
    }

    /// Allocates `line` in the least recent way among those enabled in
    /// `mask`: a never-filled way if the mask has one (the lowest first),
    /// else the least recently used. The displaced line needs no
    /// bookkeeping: private copies survive it (non-inclusive hierarchy) and
    /// the directory tracks them on its own.
    fn insert(&mut self, line: u32, mask: u32, dirty: bool) {
        debug_assert!(mask != 0, "empty CLOS mask");
        let set = self.set_of(line);
        let way = self
            .tags
            .lru_in(set, mask)
            .expect("CLOS mask has no ways within associativity");
        self.tags.sets[set].fill(way, if dirty { line | DIRTY } else { line });
    }

    #[cfg(test)]
    fn way_of(&self, line: u32) -> Option<usize> {
        self.tags.sets[self.set_of(line)].find(line)
    }
}

#[derive(Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of cores holding the line in a private cache (a machine has
    /// at most 32 cores).
    sharers: u32,
    /// Core holding the line modified, if any.
    owner: Option<u8>,
}

/// The full simulated cache hierarchy of the server socket.
pub struct CacheHierarchy {
    cfg: MachineConfig,
    /// log2 of the line size.
    line_shift: u32,
    l1: Vec<PrivCache>,
    l2: Vec<PrivCache>,
    llc: Llc,
    dir: FxHashMap<u32, DirEntry>,
    clos: Vec<u32>,
    ddio_mask: u32,
    /// Per-core in-flight software prefetches, (line, ready time), at most
    /// `cost.mshr` of them.
    prefetched: Vec<Vec<(u32, SimTime)>>,
    /// Per-core count of changes to `prefetched[core]` (part of
    /// [`CacheHierarchy::private_version`]).
    pf_changes: Vec<u64>,
    /// Shared-DRAM rate limiter: accesses are counted in coarse time
    /// buckets; once a bucket exceeds the channel's line capacity, each
    /// further access in it waits for its queue position. Bucket-granular
    /// counting is commutative, so the discrete-event engine's bounded
    /// cross-core clock skew cannot create phantom waits.
    dram_bucket: u64,
    dram_counts: [u64; 2],
    /// Per-line atomic contention: under a CAS storm every successful
    /// acquire must win the cache line against each contender, so the
    /// serialized cost of one atomic grows with the number of distinct
    /// cores hammering the line. Tracked per bucket like the DRAM channel.
    atomic_lines: FxHashMap<u32, AtomicLineState>,
    atomic_bucket: u64,
    /// Access and event counters.
    pub metrics: Metrics,
}

#[derive(Clone, Copy, Default)]
struct AtomicLineState {
    bucket: u64,
    count: u64,
    cores: u64,
}

/// Width of a DRAM accounting bucket (must exceed the longest process step).
const DRAM_BUCKET_PS: u64 = 2 * crate::time::MICROS;

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` server cores.
    pub fn new(cfg: &MachineConfig, cores: usize) -> Self {
        let c = &cfg.cache;
        assert!(c.line.is_power_of_two(), "line size must be a power of two");
        assert!(cores <= 32, "directory sharer masks are u32");
        let llc = Llc::new(c.llc_sets, c.llc_ways);
        let full = (1u32 << c.llc_ways) - 1;
        let ddio_mask = ((1u32 << c.ddio_ways) - 1) << (c.llc_ways - c.ddio_ways);
        CacheHierarchy {
            line_shift: c.line.trailing_zeros(),
            l1: (0..cores)
                .map(|_| PrivCache::new(c.l1_sets, c.l1_ways))
                .collect(),
            l2: (0..cores)
                .map(|_| PrivCache::new(c.l2_sets, c.l2_ways))
                .collect(),
            llc,
            dir: FxHashMap::default(),
            clos: vec![full; cores],
            ddio_mask,
            prefetched: (0..cores)
                .map(|_| Vec::with_capacity(cfg.cost.mshr))
                .collect(),
            pf_changes: vec![0; cores],
            dram_bucket: 0,
            dram_counts: [0; 2],
            atomic_lines: FxHashMap::default(),
            atomic_bucket: 0,
            metrics: Metrics::default(),
            cfg: cfg.clone(),
        }
    }

    /// Bytes of tag and order words across every level.
    #[cfg(test)]
    fn tag_bytes(&self) -> usize {
        let private: usize = self.l1.iter().chain(&self.l2).map(|c| c.tags.bytes()).sum();
        private + self.llc.tags.bytes()
    }

    /// Number of simulated server cores.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// The mask covering every LLC way.
    pub fn full_mask(&self) -> u32 {
        (1u32 << self.llc.ways()) - 1
    }

    /// The DDIO allocation mask (the `ddio_ways` rightmost ways in Intel's
    /// numbering, i.e. the highest-numbered ways here).
    pub fn ddio_mask(&self) -> u32 {
        self.ddio_mask
    }

    /// Sets the CLOS (allocation) way mask for `core`.
    ///
    /// # Panics
    ///
    /// Panics if the mask is zero or has bits beyond the associativity.
    pub fn set_clos_mask(&mut self, core: usize, mask: u32) {
        assert!(mask != 0, "CLOS mask must enable at least one way");
        assert_eq!(mask & !self.full_mask(), 0, "mask exceeds associativity");
        self.clos[core] = mask;
    }

    /// A token that moves whenever anything touches `core`'s L1, L2 or
    /// in-flight prefetches: the sum of both levels' lookup/insert and drop
    /// counts and the prefetch table's change count.
    ///
    /// A single-line read that is a *plain L1 hit* (no prefetch in flight,
    /// found by the L1 lookup) moves it by exactly 1; every other read path
    /// moves it by at least 2 (prefetch removal + lookup, or L1 + L2
    /// lookups). So `n` single-line reads that moved it by exactly `n` were
    /// all plain L1 hits, and while it stays put the same reads would hit
    /// again: [`CacheHierarchy::l1_hits`] may charge them instead. Skipping
    /// their recency refresh is exact — those lines already are the most
    /// recent ways of their sets, in read order, and victim selection only
    /// orders ways within a set.
    pub fn private_version(&self, core: usize) -> u64 {
        self.l1[core].version() + self.l2[core].version() + self.pf_changes[core]
    }

    /// The L1 set the line holding `addr` maps to (every core's L1 has the
    /// same geometry): a partial rotation of lines skips exactly only while
    /// no two share a set (DESIGN.md §10 "Parked polls").
    pub fn l1_set(&self, addr: usize) -> usize {
        // A private level's set count is a power of two (`PrivCache::new`).
        (addr >> self.line_shift) & (self.cfg.cache.l1_sets - 1)
    }

    /// Charges `n` plain L1 read hits attributed to `class` without walking
    /// the tag arrays; see [`CacheHierarchy::private_version`] for when that
    /// is exact. Returns their cost.
    pub fn l1_hits(&mut self, class: StatClass, n: u64) -> u64 {
        self.metrics.class[class as usize].l1 += n;
        n * self.cfg.cost.l1_hit
    }

    /// Charges a memory access of `len` bytes at `addr` by `core`.
    ///
    /// Returns the total cost in picoseconds. Multi-line accesses charge the
    /// full latency for the first line and a streaming cost for subsequent
    /// lines that miss (hardware prefetchers hide most of their latency).
    pub fn access(
        &mut self,
        core: usize,
        class: StatClass,
        addr: usize,
        len: usize,
        write: bool,
        now: SimTime,
    ) -> u64 {
        let (first, last) = line_span(addr, len, self.line_shift);
        let mut cost = 0;
        for (i, line) in (first..=last).enumerate() {
            let (c, kind) = self.access_line(core, line, write, now + cost);
            self.metrics.record(class as usize, kind);
            if i > 0 && (kind == AccessKind::Dram) {
                cost += self.cfg.cost.dram_stream;
            } else {
                cost += c;
            }
        }
        cost
    }

    /// Charges an atomic read-modify-write on the line at `addr`.
    /// `hold` is extra picoseconds the line stays unavailable to other
    /// contenders (e.g. the copy a lock protects); pass 0 for bare atomics.
    pub(crate) fn atomic_hold(
        &mut self,
        core: usize,
        class: StatClass,
        addr: usize,
        now: SimTime,
        hold: u64,
    ) -> u64 {
        let line = line_of(addr, self.line_shift);
        let had_others = self
            .dir
            .get(&line)
            .map(|d| d.sharers & !(1u32 << core) != 0)
            .unwrap_or(false);
        let (mut cost, kind) = self.access_line(core, line, true, now);
        self.metrics.record(class as usize, kind);
        cost += self.cfg.cost.atomic_extra;
        if had_others {
            cost += self.cfg.cost.invalidate_extra;
        }
        let storm = self.atomic_line_wait(core, line, now, hold);
        self.metrics.storm_wait_ps += storm;
        cost + storm
    }

    /// Charges an atomic read-modify-write on the line at `addr`.
    pub fn atomic(&mut self, core: usize, class: StatClass, addr: usize, now: SimTime) -> u64 {
        self.atomic_hold(core, class, addr, now, 0)
    }

    /// Serialization delay for an atomic on `line`: each atomic occupies the
    /// line for one cross-core transfer per distinct contender (the CAS
    /// storm) plus the explicit hold time; once a bucket's capacity at that
    /// service rate is exceeded, later atomics queue.
    fn atomic_line_wait(&mut self, core: usize, line: u32, now: SimTime, hold: u64) -> u64 {
        const BUCKET: u64 = DRAM_BUCKET_PS;
        let b = now.as_ps() / BUCKET;
        if b > self.atomic_bucket {
            self.atomic_bucket = b;
            // Drop stale lines but keep live storms (their carry encodes the
            // queue of unserved contenders).
            if self.atomic_lines.len() > 1 << 15 {
                self.atomic_lines.retain(|_, e| e.bucket + 2 >= b);
            }
        }
        let e = self.atomic_lines.entry(line).or_default();
        // Buckets never move backwards: accesses from cores whose clocks lag
        // (bounded engine skew) count into the line's current bucket.
        if b > e.bucket {
            let contenders = (e.cores.count_ones() as u64).max(1);
            let service = self.cfg.cost.remote_dirty * contenders + hold;
            let cap = (BUCKET / service).max(1);
            // Unserved backlog carries into the new bucket so sustained
            // storms keep queueing (mirrors the DRAM channel's carry).
            e.count = if e.bucket + 1 == b {
                e.count.saturating_sub(cap)
            } else {
                0
            };
            if e.bucket + 1 != b {
                e.cores = 0;
            }
            e.bucket = b;
        }
        e.cores |= 1u64 << (core as u64 & 63);
        let contenders = e.cores.count_ones() as u64;
        e.count += 1;
        if contenders < 2 {
            return hold / 8; // uncontended: the hold overlaps with compute
        }
        let service = self.cfg.cost.remote_dirty * contenders + hold;
        let cap = (BUCKET / service).max(1);
        e.count.saturating_sub(cap) * service
    }

    /// Issues a software prefetch: performs the fill state transitions now
    /// and records when the data will be ready; a later access pays only the
    /// remaining latency. Prefetches beyond the core's MSHR budget are
    /// dropped (as real cores do), bounding memory-level parallelism.
    pub fn prefetch(
        &mut self,
        core: usize,
        class: StatClass,
        addr: usize,
        len: usize,
        now: SimTime,
    ) {
        let (first, last) = line_span(addr, len, self.line_shift);
        for line in first..=last {
            if self.prefetched[core].iter().any(|&(l, _)| l == line) {
                continue;
            }
            // Enforce the fill-buffer budget: count in-flight fills,
            // lazily dropping completed entries.
            if self.prefetched[core].len() >= self.cfg.cost.mshr {
                self.prefetched[core].retain(|&(_, ready)| ready > now);
                self.pf_changes[core] += 1;
                if self.prefetched[core].len() >= self.cfg.cost.mshr {
                    continue; // dropped: the demand access pays full latency
                }
            }
            let (cost, kind) = self.access_line(core, line, false, now);
            self.metrics.record(class as usize, kind);
            if cost > self.cfg.cost.l1_hit {
                self.prefetched[core].push((line, now + cost));
                self.pf_changes[core] += 1;
            }
        }
    }

    /// A NIC DMA write (DDIO): update in place on LLC hit, otherwise allocate
    /// within the DDIO ways; any private copies are invalidated.
    pub fn nic_write(&mut self, addr: usize, len: usize) {
        let (first, last) = line_span(addr, len, self.line_shift);
        for line in first..=last {
            self.invalidate_private(line);
            if let Some(slot) = self.llc.lookup(line) {
                self.llc.mark_dirty(slot);
                self.metrics.ddio_updates += 1;
            } else {
                self.llc.insert(line, self.ddio_mask, true);
                self.metrics.ddio_allocs += 1;
            }
        }
    }

    /// A NIC DMA read: served from LLC or DRAM, never allocates, never
    /// disturbs core-private state (the paper relies on this: posting a
    /// response buffer does not cost the CR layer anything).
    pub fn nic_read(&mut self, addr: usize, len: usize) {
        let (first, last) = line_span(addr, len, self.line_shift);
        for line in first..=last {
            // A modified private copy must be snooped back so the NIC reads
            // fresh data; the line stays in the owner's cache as shared.
            if let Some(dir) = self.dir.get_mut(&line) {
                dir.owner = None;
            }
            self.llc.lookup(line);
        }
    }

    /// Invalidates both private levels of `core` (role switches in tests).
    pub fn clear_core(&mut self, core: usize) {
        self.l1[core].clear();
        self.l2[core].clear();
        self.prefetched[core].clear();
        self.pf_changes[core] += 1;
        self.dir.retain(|_, d| {
            if d.owner == Some(core as u8) {
                d.owner = None;
            }
            d.sharers &= !(1u32 << core);
            d.sharers != 0 || d.owner.is_some()
        });
    }

    /// Core access path for one line. Returns (cost, where it was served).
    fn access_line(
        &mut self,
        core: usize,
        line: u32,
        write: bool,
        now: SimTime,
    ) -> (u64, AccessKind) {
        let cost = &self.cfg.cost;
        let (l1_hit, l2_hit, llc_hit, dram, remote_dirty, invalidate_extra) = (
            cost.l1_hit,
            cost.l2_hit,
            cost.llc_hit,
            cost.dram,
            cost.remote_dirty,
            cost.invalidate_extra,
        );

        // Software prefetch in flight? Pay only the remaining latency.
        let pf = &mut self.prefetched[core];
        if let Some(i) = pf.iter().position(|&(l, _)| l == line) {
            let (_, ready) = pf.swap_remove(i);
            self.pf_changes[core] += 1;
            let wait = ready.since(now);
            let extra = if write {
                self.rfo_upgrade(core, line)
            } else {
                0
            };
            // The fill already happened at prefetch time; refresh recency.
            let slot = self.l1[core].lookup(line);
            if write {
                if let Some(slot) = slot {
                    self.l1[core].mark_modified(slot);
                }
                self.dir.entry(line).or_default().owner = Some(core as u8);
            }
            return (wait + l1_hit + extra, AccessKind::L1);
        }

        // L1.
        if let Some(slot) = self.l1[core].lookup(line) {
            let mut c = l1_hit;
            if write && !self.l1[core].is_modified(slot) {
                c += self.rfo_upgrade(core, line);
                self.l1[core].mark_modified(slot);
                self.dir.entry(line).or_default().owner = Some(core as u8);
            }
            return (c, AccessKind::L1);
        }

        // L2.
        if self.l2[core].lookup(line).is_some() {
            let mut c = l2_hit;
            if write {
                c += self.rfo_upgrade(core, line);
                self.dir.entry(line).or_default().owner = Some(core as u8);
            }
            self.fill_private(core, line, write);
            return (c, AccessKind::L2);
        }

        // Coherence: modified in another core's private cache?
        let dir = self.dir.get(&line).copied().unwrap_or_default();
        if let Some(owner) = dir.owner {
            if owner as usize != core {
                let o = owner as usize;
                if write {
                    self.invalidate_private(line);
                } else if let Some(d) = self.dir.get_mut(&line) {
                    // Downgrade the owner's copy to shared; data is also
                    // written back into the LLC.
                    d.owner = None;
                }
                self.llc.insert(line, self.clos[core], true);
                self.fill_private(core, line, write);
                let d = self.dir.entry(line).or_default();
                d.sharers |= 1u32 << core;
                if write {
                    d.owner = Some(core as u8);
                } else {
                    d.sharers |= 1u32 << o;
                }
                return (remote_dirty, AccessKind::Remote);
            }
        }

        // LLC.
        if self.llc.lookup(line).is_some() {
            let mut c = llc_hit;
            if write && dir.sharers & !(1u32 << core) != 0 {
                self.invalidate_private_except(line, core);
                c += invalidate_extra;
            }
            self.fill_private(core, line, write);
            let d = self.dir.entry(line).or_default();
            d.sharers |= 1u32 << core;
            if write {
                d.owner = Some(core as u8);
            }
            return (c, AccessKind::Llc);
        }

        // Another core may hold it clean (shared) while the LLC already
        // evicted it (non-inclusive). Serve as a cache-to-cache transfer.
        if dir.sharers & !(1u32 << core) != 0 {
            let mut c = remote_dirty;
            if write {
                self.invalidate_private_except(line, core);
                c += invalidate_extra;
            }
            self.fill_private(core, line, write);
            let d = self.dir.entry(line).or_default();
            d.sharers |= 1u32 << core;
            if write {
                d.owner = Some(core as u8);
            }
            return (c, AccessKind::Remote);
        }

        // DRAM: allocate in LLC within this core's CLOS mask, then fill
        // private levels. The shared channel serializes concurrent misses,
        // so loaded latency includes the queuing delay.
        self.llc.insert(line, self.clos[core], write);
        self.fill_private(core, line, write);
        let d = self.dir.entry(line).or_default();
        d.sharers |= 1u32 << core;
        if write {
            d.owner = Some(core as u8);
        }
        let queue_wait = self.dram_queue_wait(now);
        self.metrics.dram_wait_ps += queue_wait;
        (dram + queue_wait, AccessKind::Dram)
    }

    /// Charges one line against the shared DRAM channel and returns the
    /// queuing delay once the current bucket oversubscribes its capacity.
    fn dram_queue_wait(&mut self, now: SimTime) -> u64 {
        let svc = self.cfg.cost.dram_line_service;
        if svc == 0 {
            return 0;
        }
        let cap = DRAM_BUCKET_PS / svc;
        let b = now.as_ps() / DRAM_BUCKET_PS;
        if b > self.dram_bucket {
            // Advance: unserved overflow carries into the next bucket.
            let carry = if b == self.dram_bucket + 1 {
                self.dram_counts[1].saturating_sub(cap)
            } else {
                0
            };
            self.dram_counts = [self.dram_counts[1], carry];
            self.dram_bucket = b;
        }
        // Late (skewed) accesses land in the previous bucket's count.
        let idx = if b < self.dram_bucket { 0 } else { 1 };
        self.dram_counts[idx] += 1;
        self.dram_counts[idx].saturating_sub(cap) * svc
    }

    /// Write-upgrade: invalidate all other private copies of `line`.
    /// Returns the extra cost (zero if the line was exclusive already).
    fn rfo_upgrade(&mut self, core: usize, line: u32) -> u64 {
        let others = self
            .dir
            .get(&line)
            .map(|d| {
                d.sharers & !(1u32 << core) != 0 || matches!(d.owner, Some(o) if o as usize != core)
            })
            .unwrap_or(false);
        if others {
            self.invalidate_private_except(line, core);
            self.cfg.cost.invalidate_extra
        } else {
            0
        }
    }

    /// Fills `line` into `core`'s L1 and L2, handling evictions/writebacks.
    fn fill_private(&mut self, core: usize, line: u32, modified: bool) {
        if let Some((e2, d2)) = self.l2[core].insert(line, modified) {
            self.evict_private_line(core, e2, d2);
        }
        if let Some((e1, d1)) = self.l1[core].insert(line, modified) {
            if let Some((e2, d2)) = self.l2[core].insert(e1, d1) {
                self.evict_private_line(core, e2, d2);
            }
        }
    }

    /// Handles a line leaving one of `core`'s private levels.
    fn evict_private_line(&mut self, core: usize, line: u32, dirty: bool) {
        // Non-inclusive private levels: the line may still live in the other
        // level, in which case it has not left the core yet.
        if self.l1[core].contains(line) || self.l2[core].contains(line) {
            return;
        }
        if dirty {
            // Write back into the LLC within the core's mask.
            match self.llc.lookup(line) {
                Some(slot) => self.llc.mark_dirty(slot),
                None => self.llc.insert(line, self.clos[core], true),
            }
        }
        if let Some(d) = self.dir.get_mut(&line) {
            d.sharers &= !(1u32 << core);
            if d.owner == Some(core as u8) {
                d.owner = None;
            }
            if d.sharers == 0 && d.owner.is_none() {
                self.dir.remove(&line);
            }
        }
    }

    /// Invalidates every private copy of `line` (all cores).
    fn invalidate_private(&mut self, line: u32) {
        if let Some(d) = self.dir.remove(&line) {
            let mut sharers = d.sharers;
            while sharers != 0 {
                let c = sharers.trailing_zeros() as usize;
                sharers &= sharers - 1;
                self.l1[c].invalidate(line);
                self.l2[c].invalidate(line);
                self.metrics.invalidations += 1;
            }
        }
    }

    /// Invalidates private copies of `line` in every core except `keep`.
    fn invalidate_private_except(&mut self, line: u32, keep: usize) {
        if let Some(d) = self.dir.get_mut(&line) {
            let mut sharers = d.sharers & !(1u32 << keep);
            d.sharers &= 1u32 << keep;
            if matches!(d.owner, Some(o) if o as usize != keep) {
                d.owner = None;
            }
            while sharers != 0 {
                let c = sharers.trailing_zeros() as usize;
                sharers &= sharers - 1;
                self.l1[c].invalidate(line);
                self.l2[c].invalidate(line);
                self.metrics.invalidations += 1;
            }
        }
    }
}

/// The first and last line of `len` bytes at `addr`.
fn line_span(addr: usize, len: usize, line_shift: u32) -> (u32, u32) {
    (
        line_of(addr, line_shift),
        line_of(addr + len.max(1) - 1, line_shift),
    )
}

/// The line holding `addr`.
///
/// # Panics
///
/// Panics if the line number reaches [`LINE_LIMIT`]: every charged address
/// must come from a `vaddr` region.
#[inline]
fn line_of(addr: usize, line_shift: u32) -> u32 {
    let line = addr >> line_shift;
    assert!(
        line < LINE_LIMIT as usize,
        "address {addr:#x} is past the cache model's 31-bit line space; charge addresses from a sim::vaddr region"
    );
    line as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn hierarchy(cores: usize) -> CacheHierarchy {
        CacheHierarchy::new(&MachineConfig::tiny(), cores)
    }

    const LINE: usize = 64;

    #[test]
    fn first_access_misses_then_hits_l1() {
        let mut h = hierarchy(1);
        let t = SimTime::ZERO;
        let c1 = h.access(0, StatClass::Other, 0x1000, 8, false, t);
        assert_eq!(c1, h.cfg.cost.dram);
        let c2 = h.access(0, StatClass::Other, 0x1008, 8, false, t);
        assert_eq!(c2, h.cfg.cost.l1_hit);
        assert_eq!(h.metrics.class[2].dram, 1);
        assert_eq!(h.metrics.class[2].l1, 1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = hierarchy(1);
        let t = SimTime::ZERO;
        // Fill one L1 set beyond its associativity: tiny L1 has 8 sets ×
        // 4 ways, so 5 lines mapping to set 0 overflow it.
        for i in 0..5usize {
            h.access(0, StatClass::Other, i * 8 * LINE, 8, false, t);
        }
        // The first line was evicted from L1 but lives in L2.
        let c = h.access(0, StatClass::Other, 0, 8, false, t);
        assert_eq!(c, h.cfg.cost.l2_hit);
    }

    #[test]
    fn remote_dirty_line_costs_snoop() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        h.access(0, StatClass::Other, 0x4000, 8, true, t);
        let c = h.access(1, StatClass::Other, 0x4000, 8, false, t);
        assert_eq!(c, h.cfg.cost.remote_dirty);
        assert_eq!(h.metrics.class[2].remote, 1);
        // Now both hold it shared; core 1 hits locally.
        let c2 = h.access(1, StatClass::Other, 0x4000, 8, false, t);
        assert_eq!(c2, h.cfg.cost.l1_hit);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        h.access(0, StatClass::Other, 0x8000, 8, false, t);
        h.access(1, StatClass::Other, 0x8000, 8, false, t);
        // Core 0 upgrades to modified: core 1's copy must die.
        h.access(0, StatClass::Other, 0x8000, 8, true, t);
        assert!(h.metrics.invalidations >= 1);
        // Core 1 reads again: must pay a remote/LLC cost, not L1.
        let c = h.access(1, StatClass::Other, 0x8000, 8, false, t);
        assert!(c > h.cfg.cost.l1_hit, "stale copy survived invalidation");
    }

    #[test]
    fn clos_mask_restricts_allocation() {
        let mut h = hierarchy(1);
        // Allocate only into way 0.
        h.set_clos_mask(0, 0b1);
        let t = SimTime::ZERO;
        // Two different lines in the same LLC set evict each other from the
        // single allowed way. tiny LLC has 128 sets.
        let a = 0usize;
        let b = 128 * LINE;
        h.access(0, StatClass::Other, a, 8, false, t);
        assert_eq!(h.llc.way_of(0), Some(0));
        h.access(0, StatClass::Other, b, 8, false, t);
        assert_eq!(h.llc.way_of(128), Some(0), "b must land in way 0");
        assert_eq!(h.llc.way_of(0), None, "a must be evicted from the LLC");
    }

    #[test]
    fn clos_hits_allowed_outside_mask() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        // Core 1 (full mask by default, but force a distinct way) allocates.
        h.set_clos_mask(1, 0b10);
        h.access(1, StatClass::Other, 0x2000, 8, false, t);
        // Restrict core 0 to way 0 only: it must still *hit* the line that
        // sits in way 1.
        h.set_clos_mask(0, 0b01);
        let c = h.access(0, StatClass::Other, 0x2000, 8, false, t);
        assert!(c <= h.cfg.cost.remote_dirty, "should not go to DRAM");
        assert_eq!(h.metrics.class[2].dram, 1, "only the initial fill missed");
    }

    #[test]
    fn ddio_write_allocates_in_ddio_ways_only() {
        let mut h = hierarchy(1);
        h.nic_write(0x100 * LINE, 64);
        let way = h.llc.way_of(0x100).expect("line must be in LLC");
        let ddio_lowest = h.cfg.cache.llc_ways - h.cfg.cache.ddio_ways;
        assert!(way >= ddio_lowest, "DDIO must use the rightmost ways");
        assert_eq!(h.metrics.ddio_allocs, 1);
    }

    #[test]
    fn ddio_write_updates_resident_line_in_place() {
        let mut h = hierarchy(1);
        let t = SimTime::ZERO;
        // A core pulls the line into LLC way 0 (full mask LRU picks way 0).
        h.access(0, StatClass::Other, 0x300 * LINE, 8, false, t);
        let before = h.llc.way_of(0x300).unwrap();
        h.nic_write(0x300 * LINE, 64);
        assert_eq!(h.llc.way_of(0x300), Some(before), "no re-allocation");
        assert_eq!(h.metrics.ddio_updates, 1);
        assert_eq!(h.metrics.ddio_allocs, 0);
    }

    #[test]
    fn ddio_write_invalidates_private_copies() {
        let mut h = hierarchy(1);
        let t = SimTime::ZERO;
        h.access(0, StatClass::Other, 0x500 * LINE, 8, false, t);
        assert!(h.l1[0].contains(0x500));
        h.nic_write(0x500 * LINE, 64);
        assert!(!h.l1[0].contains(0x500), "NIC write must invalidate");
        // The next core read sees the fresh data in the LLC.
        let c = h.access(0, StatClass::Other, 0x500 * LINE, 8, false, t);
        assert_eq!(c, h.cfg.cost.llc_hit);
    }

    #[test]
    fn nic_read_does_not_allocate() {
        let mut h = hierarchy(1);
        h.nic_read(0x900 * LINE, 64);
        assert_eq!(h.llc.way_of(0x900), None);
    }

    #[test]
    fn prefetch_hides_latency() {
        let mut h = hierarchy(1);
        let t0 = SimTime::ZERO;
        h.prefetch(0, StatClass::Other, 0xA000, 8, t0);
        // Access after the fill completed: only L1 cost remains.
        let later = t0 + h.cfg.cost.dram + 1;
        let c = h.access(0, StatClass::Other, 0xA000, 8, false, later);
        assert_eq!(c, h.cfg.cost.l1_hit);
        // Access "too early" pays the residual wait. Issue at a time when
        // the DRAM channel is idle so the fill takes exactly `dram`.
        let t1 = t0 + 10 * h.cfg.cost.dram;
        h.prefetch(0, StatClass::Other, 0xB000, 8, t1);
        let half = t1 + h.cfg.cost.dram / 2;
        let c2 = h.access(0, StatClass::Other, 0xB000, 8, false, half);
        assert_eq!(
            c2,
            h.cfg.cost.dram - h.cfg.cost.dram / 2 + h.cfg.cost.l1_hit
        );
    }

    #[test]
    fn streaming_access_charges_tail_lines_cheaply() {
        let mut h = hierarchy(1);
        let t = SimTime::ZERO;
        // 4-line cold read: 1 full miss + 3 streamed lines.
        let c = h.access(0, StatClass::Other, 0x40000, 256, false, t);
        assert_eq!(c, h.cfg.cost.dram + 3 * h.cfg.cost.dram_stream);
    }

    #[test]
    fn atomic_costs_more_when_contended() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        // Warm the line so both measurements start from a private copy.
        h.access(0, StatClass::Other, 0xC000, 8, true, t);
        let solo = h.atomic(0, StatClass::Other, 0xC000, t);
        // Second core takes the line, then core 0 re-atomics: now contended.
        h.access(1, StatClass::Other, 0xC000, 8, false, t);
        let contended = h.atomic(0, StatClass::Other, 0xC000, t);
        assert!(contended > solo, "{contended} !> {solo}");
    }

    #[test]
    fn cas_storm_serializes_hot_line() {
        let mut h = hierarchy(8);
        let addr = 0xF000;
        // Warm: single core hammers — cheap (no contention).
        let mut solo_total = 0;
        for i in 0..50 {
            solo_total += h.atomic_hold(0, StatClass::Other, addr, SimTime(i * 100_000), 10_000);
        }
        // Storm: 8 cores hammer the same line within one bucket.
        let mut storm_total = 0;
        for i in 0..50u64 {
            let core = (i % 8) as usize;
            storm_total += h.atomic_hold(
                core,
                StatClass::Other,
                addr,
                SimTime(5_000_000 + i * 1_000),
                10_000,
            );
        }
        assert!(
            storm_total > solo_total * 5,
            "storm {storm_total} vs solo {solo_total}"
        );
    }

    #[test]
    fn dram_channel_saturates_at_configured_bandwidth() {
        let mut cfg = MachineConfig::tiny();
        cfg.cost.dram_line_service = 2_200;
        let mut h = CacheHierarchy::new(&cfg, 8);
        // 8 cores streaming disjoint cold lines as fast as latency allows.
        let mut clocks = [SimTime::ZERO; 8];
        let horizon = SimTime::from_micros(100);
        let mut next_addr: usize = 1 << 30;
        let mut lines = 0u64;
        loop {
            // Step the earliest core (mini engine).
            let (core, _) = clocks
                .iter()
                .enumerate()
                .min_by_key(|&(_, t)| t)
                .map(|(i, &t)| (i, t))
                .unwrap();
            if clocks[core] >= horizon {
                break;
            }
            let cost = h.access(core, StatClass::Other, next_addr, 8, false, clocks[core]);
            next_addr += 4096; // new set every time: always a DRAM miss
            clocks[core] += cost;
            lines += 1;
        }
        let rate_mlps = lines as f64 / 100e-6 / 1e6; // million lines/s
                                                     // Capacity = 1/2.2ns = 454 M lines/s; unthrottled 8 cores at 82 ns
                                                     // latency would reach ~97 M/s... so use more pressure per core: this
                                                     // test instead checks we never exceed capacity plus slack.
        assert!(
            rate_mlps < 470.0,
            "rate {rate_mlps} exceeds channel capacity"
        );
        // And with prefetch-driven parallelism the cap must bind from below:
        let mut h2 = CacheHierarchy::new(&cfg, 8);
        let mut clocks = [SimTime::ZERO; 8];
        let mut addr: usize = 1 << 30;
        let mut lines2 = 0u64;
        loop {
            let (core, _) = clocks
                .iter()
                .enumerate()
                .min_by_key(|&(_, t)| t)
                .map(|(i, &t)| (i, t))
                .unwrap();
            if clocks[core] >= horizon {
                break;
            }
            // 1 KB streaming read: 16 lines in one access.
            let cost = h2.access(core, StatClass::Other, addr, 1024, false, clocks[core]);
            addr += 4096;
            clocks[core] += cost;
            lines2 += 16;
        }
        let rate2 = lines2 as f64 / 100e-6 / 1e6;
        assert!(
            rate2 < 600.0,
            "streaming rate {rate2} M lines/s blows past the 454 M cap"
        );
    }

    #[test]
    fn clear_core_forgets_private_state() {
        let mut h = hierarchy(1);
        let t = SimTime::ZERO;
        h.access(0, StatClass::Other, 0xD000, 8, false, t);
        h.clear_core(0);
        let c = h.access(0, StatClass::Other, 0xD000, 8, false, t);
        assert!(c >= h.cfg.cost.llc_hit, "private copy must be gone");
    }

    /// How far `f` moves core 0's private-state token.
    fn token_delta(h: &mut CacheHierarchy, f: impl FnOnce(&mut CacheHierarchy)) -> u64 {
        let v0 = h.private_version(0);
        f(h);
        h.private_version(0) - v0
    }

    fn read0(h: &mut CacheHierarchy, addr: usize, now: SimTime) -> u64 {
        h.access(0, StatClass::Other, addr, 8, false, now)
    }

    #[test]
    fn private_version_moves_by_one_per_plain_l1_hit() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        read0(&mut h, 0x1000, t);
        read0(&mut h, 0x2040, t);
        let l1 = h.cfg.cost.l1_hit;
        let d = token_delta(&mut h, |h| {
            assert_eq!(read0(h, 0x1000, t), l1);
            assert_eq!(read0(h, 0x2040, t), l1);
        });
        assert_eq!(d, 2);
    }

    #[test]
    fn private_version_moves_by_two_or_more_off_the_plain_l1_path() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        let cost = h.cfg.cost.clone();
        let dram = token_delta(&mut h, |h| assert_eq!(read0(h, 0x1000, t), cost.dram));
        assert!(dram >= 2, "DRAM miss moved the token by {dram}");
        // Five lines in one tiny-L1 set (8 sets × 4 ways): line 0 falls to L2.
        for i in 0..5usize {
            read0(&mut h, i * 8 * LINE, t);
        }
        let l2 = token_delta(&mut h, |h| assert_eq!(read0(h, 0, t), cost.l2_hit));
        assert!(l2 >= 2, "L2 hit moved the token by {l2}");
        // A completed prefetch costs what a plain L1 hit does, but the token
        // tells them apart.
        let mut h = hierarchy(2);
        h.prefetch(0, StatClass::Other, 0xA000, 8, t);
        let later = t + 10 * cost.dram;
        let pf = token_delta(&mut h, |h| assert_eq!(read0(h, 0xA000, later), cost.l1_hit));
        assert!(pf >= 2, "prefetch-path hit moved the token by {pf}");
    }

    #[test]
    fn private_version_sees_changes_from_outside_the_core() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        read0(&mut h, 0x8000, t);
        h.access(1, StatClass::Other, 0x8000, 8, false, t);
        let write = token_delta(&mut h, |h| {
            h.access(1, StatClass::Other, 0x8000, 8, true, t);
        });
        assert!(write >= 1, "another core's write left the token unmoved");
        read0(&mut h, 0x500 * LINE, t);
        let nic = token_delta(&mut h, |h| h.nic_write(0x500 * LINE, 64));
        assert!(nic >= 1, "a DDIO write left the token unmoved");
        let clear = token_delta(&mut h, |h| h.clear_core(0));
        assert!(clear >= 1, "clear_core left the token unmoved");
    }

    #[test]
    fn l1_hits_charges_without_moving_the_token() {
        let mut h = hierarchy(1);
        let l1 = h.cfg.cost.l1_hit;
        let before = h.metrics.class[StatClass::Mr as usize].l1;
        let d = token_delta(&mut h, |h| assert_eq!(h.l1_hits(StatClass::Mr, 5), 5 * l1));
        assert_eq!(d, 0);
        assert_eq!(h.metrics.class[StatClass::Mr as usize].l1, before + 5);
        assert_eq!(h.metrics.combined().total(), 5);
    }

    /// Known gap (ROADMAP 3(a)): `PrivCache::insert` stops at the first
    /// invalid way, so a line already resident in a *later* way of its set
    /// gets a second copy, and `invalidate` drops only the first. This test
    /// pins today's behaviour; the fix flips it.
    #[test]
    fn known_gap_insert_duplicates_a_line_behind_an_invalid_way() {
        let mut c = PrivCache::new(1, 4);
        c.insert(10, false);
        c.insert(11, false);
        c.invalidate(10);
        c.insert(11, false);
        assert_eq!(c.tags.tags(0).iter().filter(|&&t| t == 11).count(), 2);
        c.invalidate(11);
        assert!(c.contains(11), "the second copy survives invalidation");
    }

    /// Known gap (ROADMAP 3(a)): a remote read downgrades the owner in the
    /// directory but leaves its private line modified, so the owner's next
    /// write is a plain L1 hit that invalidates no sharer, and the reader
    /// keeps hitting its stale copy. This test pins today's behaviour; the
    /// fix flips it.
    #[test]
    fn known_gap_owner_keeps_a_modified_line_after_a_downgrade() {
        let mut h = hierarchy(2);
        let cost = h.cfg.cost.clone();
        let t = SimTime::ZERO;
        h.access(0, StatClass::Other, 0x4000, 8, true, t);
        let read = h.access(1, StatClass::Other, 0x4000, 8, false, t);
        assert_eq!(read, cost.remote_dirty);
        let invalidations = h.metrics.invalidations;
        let write = h.access(0, StatClass::Other, 0x4000, 8, true, t);
        assert_eq!(write, cost.l1_hit);
        assert_eq!(h.metrics.invalidations, invalidations, "no sharer died");
        let stale = h.access(1, StatClass::Other, 0x4000, 8, false, t);
        assert_eq!(stale, cost.l1_hit, "the reader's stale copy hits");
    }

    /// Known gap (ROADMAP 3(a)): the remote-dirty path inserts into the LLC
    /// without a lookup, so a line still resident there takes a second way
    /// of its set. This test pins today's behaviour; the fix flips it.
    #[test]
    fn known_gap_remote_dirty_read_duplicates_a_resident_llc_line() {
        let mut h = hierarchy(2);
        let t = SimTime::ZERO;
        let line = (0x4000 / LINE) as u32;
        h.access(0, StatClass::Other, 0x4000, 8, true, t);
        let copies = |h: &CacheHierarchy| {
            let tags = h.llc.tags.tags(h.llc.set_of(line));
            tags.iter().filter(|&&w| w & !DIRTY == line).count()
        };
        assert_eq!(copies(&h), 1);
        let read = h.access(1, StatClass::Other, 0x4000, 8, false, t);
        assert_eq!(read, h.cfg.cost.remote_dirty);
        assert_eq!(copies(&h), 2, "the remote read allocated a second way");
    }

    #[test]
    fn paper_machine_builds_and_serves_accesses() {
        let cfg = MachineConfig::paper();
        let sets = cfg.cache.llc_sets;
        assert!(!sets.is_power_of_two());
        let mut h = CacheHierarchy::new(&cfg, 28);
        let cost = cfg.cost.clone();
        let t = SimTime::ZERO;
        // A line in the top LLC set: `line % sets`, not a mask.
        let a = (3 * sets + sets - 1) * LINE;
        assert_eq!(h.access(0, StatClass::Cr, a, 8, false, t), cost.dram);
        assert_eq!(h.llc.set_of((a / LINE) as u32), sets - 1);
        assert_eq!(h.access(0, StatClass::Cr, a, 8, false, t), cost.l1_hit);
        // Core 27 writes the shared line: an LLC hit that invalidates core 0.
        let w = h.access(27, StatClass::Mr, a, 8, true, t);
        assert_eq!(w, cost.llc_hit + cost.invalidate_extra);
        assert_eq!(h.metrics.invalidations, 1);
        assert_eq!(
            h.access(0, StatClass::Cr, a, 8, false, t),
            cost.remote_dirty
        );
        // A DDIO write allocates in the DDIO ways; a core then reads it from
        // the LLC.
        let b = 5 * LINE;
        h.nic_write(b, 64);
        assert_eq!(h.metrics.ddio_allocs, 1);
        assert!(h.llc.way_of(5).unwrap() >= cfg.cache.llc_ways - cfg.cache.ddio_ways);
        assert_eq!(h.access(13, StatClass::Other, b, 8, false, t), cost.llc_hit);
        // Lines `sets` apart share a set: one allowed way holds one of them.
        h.set_clos_mask(1, 0b1);
        let c = 7 * LINE;
        h.access(1, StatClass::Other, c, 8, false, t);
        h.access(1, StatClass::Other, c + sets * LINE, 8, false, t);
        assert_eq!(h.llc.way_of(7 + sets as u32), Some(0));
        assert_eq!(h.llc.way_of(7), None);
    }

    /// The tag store's size is the host cache footprint of the model: the
    /// default 17-core machine's must stay within 4 MiB.
    #[test]
    fn default_machine_tag_storage_fits_in_four_mib() {
        let h = CacheHierarchy::new(&MachineConfig::default(), 17);
        assert!(h.tag_bytes() <= 4 << 20, "{} B of tags", h.tag_bytes());
    }

    /// One 64-byte set per level and set: 17 × (64 + 2 048) + 8 192 sets
    /// on the default 17-core machine.
    #[test]
    fn default_machine_tag_storage_fits_in_three_mib() {
        let h = CacheHierarchy::new(&MachineConfig::default(), 17);
        assert_eq!(h.tag_bytes(), 2_822_144);
        assert!(h.tag_bytes() <= 3 << 20);
    }

    /// An address past the 31-bit line space (here 2^44) panics rather
    /// than truncate to a lower line.
    #[test]
    #[should_panic(expected = "sim::vaddr")]
    fn addresses_past_the_line_space_panic() {
        hierarchy(1).access(
            0,
            StatClass::Other,
            0x1000_0000_0000,
            8,
            false,
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "associativity must be 1..=14")]
    fn fifteen_ways_do_not_fit_a_set() {
        TagSets::new(1, 15);
    }

    /// The stamp-LRU tag store the packed one replaced, kept as the
    /// reference for `tag_store_matches_the_stamp_lru_reference`.
    mod stamp {
        #[derive(Clone, Copy)]
        pub struct Line {
            pub tag: u32,
            lru: u64,
            pub dirty: bool,
        }

        const EMPTY: Line = Line {
            tag: super::INVALID_TAG,
            lru: 0,
            dirty: false,
        };

        pub struct Cache {
            ways: usize,
            sets: u64,
            pub lines: Vec<Line>,
            counter: u64,
            drops: u64,
        }

        impl Cache {
            pub fn new(sets: usize, ways: usize) -> Self {
                Cache {
                    ways,
                    sets: sets as u64,
                    lines: vec![EMPTY; sets * ways],
                    counter: 0,
                    drops: 0,
                }
            }

            pub fn version(&self) -> u64 {
                self.counter + self.drops
            }

            fn range(&self, line: u32) -> core::ops::Range<usize> {
                let set = (line as u64 % self.sets) as usize;
                set * self.ways..(set + 1) * self.ways
            }

            pub fn lookup(&mut self, line: u32) -> Option<usize> {
                self.counter += 1;
                let i = self.range(line).find(|&i| self.lines[i].tag == line)?;
                self.lines[i].lru = self.counter;
                Some(i)
            }

            /// `PrivCache::insert`: stops at the first invalid way.
            pub fn insert(&mut self, line: u32, dirty: bool) -> Option<(u32, bool)> {
                let range = self.range(line);
                self.counter += 1;
                let mut victim = range.start;
                for i in range {
                    if self.lines[i].tag == line {
                        self.lines[i].lru = self.counter;
                        self.lines[i].dirty |= dirty;
                        return None;
                    }
                    if self.lines[i].tag == super::INVALID_TAG {
                        victim = i;
                        break;
                    }
                    if self.lines[i].lru < self.lines[victim].lru {
                        victim = i;
                    }
                }
                let old = std::mem::replace(
                    &mut self.lines[victim],
                    Line {
                        tag: line,
                        lru: self.counter,
                        dirty,
                    },
                );
                (old.tag != super::INVALID_TAG).then_some((old.tag, old.dirty))
            }

            /// `Llc::insert`: the first invalid way in `mask`, else its
            /// least recent.
            pub fn insert_masked(&mut self, line: u32, mask: u32, dirty: bool) {
                let range = self.range(line);
                self.counter += 1;
                let mut victim: Option<usize> = None;
                for (w, i) in range.enumerate() {
                    if mask & (1 << w) == 0 {
                        continue;
                    }
                    if self.lines[i].tag == super::INVALID_TAG {
                        victim = Some(i);
                        break;
                    }
                    match victim {
                        Some(v) if self.lines[v].lru <= self.lines[i].lru => {}
                        _ => victim = Some(i),
                    }
                }
                self.lines[victim.unwrap()] = Line {
                    tag: line,
                    lru: self.counter,
                    dirty,
                };
            }

            pub fn invalidate(&mut self, line: u32) -> (bool, bool) {
                match self.range(line).find(|&i| self.lines[i].tag == line) {
                    Some(i) => {
                        let d = std::mem::replace(&mut self.lines[i], EMPTY).dirty;
                        self.drops += 1;
                        (true, d)
                    }
                    None => (false, false),
                }
            }

            pub fn clear(&mut self) {
                self.lines.fill(EMPTY);
                self.drops += 1;
            }

            pub fn contains(&self, line: u32) -> bool {
                self.range(line).any(|i| self.lines[i].tag == line)
            }
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum TagOp {
        Lookup(u32),
        /// Lookup, then mark the hit slot modified.
        Modify(u32),
        Insert(u32, bool),
        Invalidate(u32),
        Contains(u32),
        Clear,
        /// `Llc::insert` under a way mask.
        LlcInsert(u32, u32, bool),
        LlcLookup(u32),
    }

    fn tag_op() -> impl proptest::strategy::Strategy<Value = TagOp> {
        use proptest::prelude::*;
        (0u8..16, 0u32..1 << 20, any::<u32>(), any::<bool>()).prop_map(|(k, line, mask, f)| match k
        {
            0..=2 => TagOp::Lookup(line),
            3 => TagOp::Modify(line),
            4..=7 => TagOp::Insert(line, f),
            8 => TagOp::Invalidate(line),
            9 => TagOp::Contains(line),
            10 => TagOp::Clear,
            11..=13 => TagOp::LlcInsert(line, mask, f),
            _ => TagOp::LlcLookup(line),
        })
    }

    /// `(tag, dirty)` of every way, in way order.
    fn packed_ways(t: &TagSets) -> Vec<(u32, bool)> {
        (0..t.sets.len())
            .flat_map(|s| t.tags(s).to_vec())
            .map(|w| {
                if w == INVALID_TAG {
                    (w, false)
                } else {
                    (w & !DIRTY, w & DIRTY != 0)
                }
            })
            .collect()
    }

    fn stamp_ways(c: &stamp::Cache) -> Vec<(u32, bool)> {
        c.lines.iter().map(|l| (l.tag, l.dirty)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The packed tag store picks the same victims as the stamp-LRU one
        /// it replaced, quirks included: every op returns the same answer,
        /// `version()` agrees, and each way holds the same line at the end.
        ///
        /// Every case starts with both duplicate paths planted: a private
        /// insert behind an invalid way copies a line resident in a later
        /// way, and an unchecked LLC fill copies a resident line into a
        /// more recent way. Each copy is then looked up (and the private one
        /// modified), so a lookup that answers from the wrong way fails.
        #[test]
        fn tag_store_matches_the_stamp_lru_reference(
            ways in 1usize..=MAX_WAYS,
            set_bits in 0u32..3,
            llc_sets in 1usize..6,
            ops in proptest::collection::vec(tag_op(), 1..300),
        ) {
            let sets = 1usize << set_bits;
            let (mut p, mut rp) = (PrivCache::new(sets, ways), stamp::Cache::new(sets, ways));
            let (mut l, mut rl) = (Llc::new(llc_sets, ways), stamp::Cache::new(llc_sets, ways));
            let full = (1u32 << ways) - 1;
            // Lines 0 and `sets` share private set 0.
            let (a, b) = (0, sets as u32);
            let planted = [
                TagOp::Insert(a, false),
                TagOp::Insert(b, false),
                TagOp::Invalidate(a),
                TagOp::Insert(b, false),
                TagOp::Lookup(b),
                TagOp::Modify(b),
                TagOp::LlcInsert(a, full, false),
                TagOp::LlcInsert(a, full, true),
                TagOp::LlcLookup(a),
            ];
            for op in planted.into_iter().chain(ops) {
                // Two more lines per set than ways, so sets fill and evict.
                let x = match op {
                    TagOp::LlcInsert(x, ..) | TagOp::LlcLookup(x) => x % (llc_sets * (ways + 2)) as u32,
                    TagOp::Lookup(x) | TagOp::Modify(x) | TagOp::Insert(x, _)
                    | TagOp::Invalidate(x) | TagOp::Contains(x) => x % (sets * (ways + 2)) as u32,
                    TagOp::Clear => 0,
                };
                match op {
                    TagOp::Lookup(_) => {
                        let (s, r) = (p.lookup(x), rp.lookup(x));
                        proptest::prop_assert_eq!(s.map(|(_, w)| w), r.map(|i| i % ways), "{:?}", op);
                        if let (Some(s), Some(r)) = (s, r) {
                            proptest::prop_assert_eq!(p.is_modified(s), rp.lines[r].dirty);
                        }
                    }
                    TagOp::Modify(_) => {
                        let (s, r) = (p.lookup(x), rp.lookup(x));
                        proptest::prop_assert_eq!(s.map(|(_, w)| w), r.map(|i| i % ways), "{:?}", op);
                        if let Some(s) = s {
                            p.mark_modified(s);
                        }
                        if let Some(r) = r {
                            rp.lines[r].dirty = true;
                        }
                    }
                    TagOp::Insert(_, d) => {
                        proptest::prop_assert_eq!(p.insert(x, d), rp.insert(x, d), "{:?}", op);
                    }
                    TagOp::Invalidate(_) => {
                        proptest::prop_assert_eq!(p.invalidate(x), rp.invalidate(x), "{:?}", op);
                    }
                    TagOp::Contains(_) => {
                        proptest::prop_assert_eq!(p.contains(x), rp.contains(x));
                    }
                    TagOp::Clear => {
                        p.clear();
                        rp.clear();
                    }
                    TagOp::LlcInsert(_, m, d) => {
                        let m = if m & full == 0 { 1 << (m as usize % ways) } else { m & full };
                        l.insert(x, m, d);
                        rl.insert_masked(x, m, d);
                    }
                    TagOp::LlcLookup(_) => {
                        let way = l.lookup(x).map(|(_, w)| w);
                        proptest::prop_assert_eq!(way, rl.lookup(x).map(|i| i % ways), "{:?}", op);
                    }
                }
                proptest::prop_assert_eq!(p.version(), rp.version());
                proptest::prop_assert_eq!(packed_ways(&p.tags), stamp_ways(&rp), "after {:?}", op);
            }
            proptest::prop_assert_eq!(packed_ways(&l.tags), stamp_ways(&rl));
        }
    }
}
