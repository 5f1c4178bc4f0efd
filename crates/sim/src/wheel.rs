//! Hierarchical timer wheel: the engine's ready queue.
//!
//! Replaces the original `BinaryHeap<Reverse<(SimTime, ProcId)>>` scheduler
//! with a hashed hierarchical wheel whose pop order is **bit-identical** to
//! the heap's: keys come out in ascending lexicographic `(SimTime, ProcId)`
//! order (ties broken by the smaller pid), which is exactly what
//! `BinaryHeap<Reverse<…>>` produced. `tests/proptest_wheel.rs` pins this
//! equivalence against a reference heap over random interleavings.
//!
//! # Geometry
//!
//! Six levels of 64 slots. Level 0 slots are `2^SHIFT0` ps = 4096 ps ≈ 4 ns
//! wide (a quarter of the 16 ns poll quantum, so back-to-back polls land in
//! distinct slots); each higher level is 64× coarser. The wheel therefore
//! spans `2^(12+36)` ps ≈ 281 simulated seconds past the current anchor —
//! far beyond any run length — and events beyond that horizon go to a
//! `BinaryHeap` overflow level that is drained back into the wheel when the
//! anchor crosses into their 2^48 ps frame.
//!
//! # Placement and the anchor invariant
//!
//! An event at time `t` is placed by the highest bit in which `t` differs
//! from the anchor `cur` (the "hashed wheel" scheme): bit `< SHIFT0+6` →
//! level 0, bits `[SHIFT0+6l, SHIFT0+6(l+1))` → level `l`, bit ≥ 48 →
//! overflow. The slot index is `t`'s own bit-field for that level, so a
//! slot's events share all bits of `t` at and above the level's field.
//!
//! Invariants (maintained by every operation, relied on for correctness):
//!
//! 1. `cur` ≤ every stored key's time. `cur` only advances to popped times
//!    or to slot bases of cascaded slots, both ≤ the wheel minimum.
//! 2. While an event sits at level `l`, `cur`'s bits at and above that
//!    level's field never change (pops rewrite only level-0 bits, a cascade
//!    of level `l'` only bits below `l'+1`'s field, and the overflow jump
//!    only runs on an empty wheel). Hence an event's placement, recomputed
//!    against the *current* `cur`, always names the slot it actually sits
//!    in — which is what makes [`TimerWheel::remove`] a direct lookup.
//! 3. Every level-0 event precedes every event at level ≥ 1 (they agree
//!    with `cur` above the level-0 field; higher-level events differ there),
//!    and every in-wheel event precedes every overflow event. So the global
//!    minimum is found by cascading until level 0 is occupied and scanning
//!    level 0's lowest occupied slot.
//! 4. A key pushed *below* the anchor goes to a small `front` heap instead
//!    of a slot. Inside a run the engine does this only while it drains a
//!    cohort taken from its `pending` lockstep buffer rather than from the
//!    wheel: the peek that chose the cohort may have cascaded the anchor up
//!    to a later wheel key's slot base, and keys the cohort's steps push
//!    (or the buffer flushes) can land below it. Between runs, a spawn or a
//!    wake at the engine's `now()` can land below an anchor the run's last
//!    peek cascaded. Since the anchor never moves backward and never
//!    exceeds the wheel minimum, every front key strictly precedes every
//!    wheel and overflow key, so peek/pop consult the front first and exact
//!    `(time, pid)` order is preserved.
//!
//! A cascade takes the lowest occupied slot of the lowest occupied level,
//! advances `cur` to the slot's base time, and re-places the slot's events;
//! each lands strictly below its old level (it now agrees with `cur` on the
//! old field), so cascading terminates. `cascades` counts re-placed events.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::ProcId;
use crate::time::SimTime;

/// log2 of a level-0 slot width in picoseconds (4096 ps ≈ 4 ns).
const SHIFT0: u32 = 12;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; times differing from the anchor at bit
/// `SHIFT0 + LEVELS*SLOT_BITS` (= 48) or above overflow to the heap.
const LEVELS: usize = 6;
/// First bit above the wheel's span.
const HORIZON_BIT: u32 = SHIFT0 + (LEVELS as u32) * SLOT_BITS;

/// Where a key lives.
enum Place {
    /// Wheel level and slot index.
    Slot(usize, usize),
    /// Beyond the wheel horizon.
    Overflow,
}

/// The engine's ready queue: at most one key per live process.
pub struct TimerWheel {
    /// `slots[level * SLOTS + slot]`, unsorted within a slot.
    slots: Vec<Vec<(SimTime, ProcId)>>,
    /// Per-level occupancy bitmap; bit `s` set ⇔ `slots[l*SLOTS+s]` nonempty.
    occupied: [u64; LEVELS],
    /// Far-future events (≥ 2^48 ps past the anchor's frame).
    overflow: BinaryHeap<Reverse<(SimTime, ProcId)>>,
    /// Events below the anchor (invariant 4); precede everything above.
    front: BinaryHeap<Reverse<(SimTime, ProcId)>>,
    /// The anchor: never exceeds the minimum wheel-stored time (invariant 1).
    cur: u64,
    /// Largest time popped so far (push-contract check).
    popped_hi: u64,
    /// Stored key count.
    len: usize,
    /// Cached minimum, always a key present at level 0.
    cached_min: Option<(SimTime, ProcId)>,
    /// Events re-placed by cascades so far.
    cascades: u64,
    /// Recycled buffer for cascades: swapped with the slot being
    /// redistributed so neither side ever reallocates in steady state.
    scratch: Vec<(SimTime, ProcId)>,
}

impl TimerWheel {
    /// An empty wheel anchored at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            front: BinaryHeap::new(),
            cur: 0,
            popped_hi: 0,
            len: 0,
            cached_min: None,
            cascades: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events re-placed by cascade operations so far.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    fn place(&self, t: u64) -> Place {
        let diff = t ^ self.cur;
        if diff >> HORIZON_BIT != 0 {
            return Place::Overflow;
        }
        let msb = 63u32.saturating_sub(diff.leading_zeros());
        let level = (msb.saturating_sub(SHIFT0) / SLOT_BITS) as usize;
        let slot = (t >> (SHIFT0 + level as u32 * SLOT_BITS)) as usize & (SLOTS - 1);
        Place::Slot(level, slot)
    }

    fn insert_placed(&mut self, t: SimTime, pid: ProcId) {
        match self.place(t.0) {
            Place::Slot(level, slot) => {
                self.slots[level * SLOTS + slot].push((t, pid));
                self.occupied[level] |= 1 << slot;
            }
            Place::Overflow => self.overflow.push(Reverse((t, pid))),
        }
    }

    /// Inserts `(t, pid)`. `t` must be ≥ every time already popped.
    pub fn push(&mut self, t: SimTime, pid: ProcId) {
        debug_assert!(
            t.0 >= self.popped_hi,
            "push({t:?}) behind pop {}",
            self.popped_hi
        );
        if t.0 < self.cur {
            // Below the anchor (a peek cascaded `cur` past `t`): the key
            // precedes every wheel key, so it waits in the front heap
            // (invariant 4).
            self.front.push(Reverse((t, pid)));
            self.len += 1;
            return;
        }
        self.insert_placed(t, pid);
        self.len += 1;
        // A key can only enter the cache if it beats the cached minimum —
        // then it *is* the new minimum (and sits at level 0: it shares the
        // anchor's bits above level 0's field because the old minimum did).
        if let Some(min) = self.cached_min {
            if (t, pid) < min {
                self.cached_min = Some((t, pid));
            }
        }
    }

    /// Cascades until level 0 is occupied; the caller guarantees some level
    /// or the overflow heap is nonempty.
    fn surface_min(&mut self) {
        loop {
            if self.occupied[0] != 0 {
                return;
            }
            match self.occupied.iter().position(|&b| b != 0) {
                Some(level) => {
                    // Redistribute the earliest occupied slot of the lowest
                    // occupied level; everything in it lands below `level`.
                    // The slot's buffer is swapped with `scratch` (not
                    // freed), so steady-state cascading never allocates.
                    let slot = self.occupied[level].trailing_zeros() as usize;
                    let mut events = std::mem::replace(
                        &mut self.slots[level * SLOTS + slot],
                        std::mem::take(&mut self.scratch),
                    );
                    self.occupied[level] &= !(1 << slot);
                    let field_shift = SHIFT0 + level as u32 * SLOT_BITS;
                    let base = events[0].0 .0 >> field_shift << field_shift;
                    debug_assert!(base >= self.cur);
                    self.cur = base;
                    self.cascades += events.len() as u64;
                    for &(t, pid) in &events {
                        self.insert_placed(t, pid);
                    }
                    events.clear();
                    self.scratch = events;
                }
                None => {
                    // Wheel empty: jump the anchor into the overflow
                    // minimum's 2^48 ps frame and pull that frame in. The
                    // heap pops in ascending time, and frame membership is
                    // monotone in time, so draining stops at the first key
                    // beyond the frame.
                    let &Reverse((tmin, _)) = self.overflow.peek().expect("surface on empty wheel");
                    let base = tmin.0 >> HORIZON_BIT << HORIZON_BIT;
                    self.cur = self.cur.max(base);
                    while let Some(&Reverse((t, _))) = self.overflow.peek() {
                        if t.0 >> HORIZON_BIT != self.cur >> HORIZON_BIT {
                            break;
                        }
                        let Reverse((t, pid)) = self.overflow.pop().expect("peeked");
                        self.cascades += 1;
                        self.insert_placed(t, pid);
                    }
                }
            }
        }
    }

    /// The minimum key, without removing it. May cascade internally; the
    /// result is cached until the minimum changes, so a peek-then-pop pair
    /// scans the slot once.
    pub fn peek(&mut self) -> Option<(SimTime, ProcId)> {
        if let Some(&Reverse(k)) = self.front.peek() {
            return Some(k);
        }
        if let Some(min) = self.cached_min {
            return Some(min);
        }
        if self.len == 0 {
            return None;
        }
        self.surface_min();
        let slot = self.occupied[0].trailing_zeros() as usize;
        let min = *self.slots[slot]
            .iter()
            .min()
            .expect("occupied bit for empty slot");
        self.cached_min = Some(min);
        Some(min)
    }

    /// Removes and returns the minimum key; for wheel-resident keys the
    /// anchor advances to its time (front keys leave the anchor alone —
    /// it is already ahead of them).
    pub fn pop(&mut self) -> Option<(SimTime, ProcId)> {
        if let Some(Reverse(k)) = self.front.pop() {
            self.len -= 1;
            self.popped_hi = k.0 .0;
            return Some(k);
        }
        let min = self.peek()?;
        self.remove_at_level0(min);
        self.cur = min.0 .0;
        self.popped_hi = min.0 .0;
        Some(min)
    }

    /// Removes the minimum key **and every key tied with it at the same
    /// time**, leaving their pids in `out` (cleared first) in ascending
    /// order, and returns the shared time. Equivalent to calling [`TimerWheel::pop`]
    /// until the next key's time differs, but costs one slot scan for the
    /// whole tie-run instead of one per key — the engine's fast path for
    /// polling fleets where almost every pop is an exact tie.
    ///
    /// Tied keys always share one home: same time ⇒ identical placement,
    /// front keys (< `cur`) can never tie with wheel keys (≥ `cur`), and
    /// in-wheel keys never tie with overflow keys (invariant 3). So the
    /// whole run sits either in the front heap or in one level-0 slot.
    pub fn pop_ties(&mut self, out: &mut Vec<ProcId>) -> Option<SimTime> {
        out.clear();
        if let Some(&Reverse((t, _))) = self.front.peek() {
            while let Some(&Reverse((ft, _))) = self.front.peek() {
                if ft != t {
                    break;
                }
                let Reverse((_, pid)) = self.front.pop().expect("peeked");
                out.push(pid);
            }
            self.len -= out.len();
            self.popped_hi = t.0;
            out.sort_unstable();
            return Some(t);
        }
        if self.len == 0 {
            return None;
        }
        self.surface_min();
        let slot = self.occupied[0].trailing_zeros() as usize;
        let vec = &mut self.slots[slot];
        let tmin = match self.cached_min {
            Some((t, _)) => t,
            None => vec
                .iter()
                .map(|&(t, _)| t)
                .min()
                .expect("occupied bit for empty slot"),
        };
        let mut i = 0;
        while i < vec.len() {
            if vec[i].0 == tmin {
                out.push(vec.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        if vec.is_empty() {
            self.occupied[0] &= !(1 << slot);
        }
        self.len -= out.len();
        self.cached_min = None;
        self.cur = tmin.0;
        self.popped_hi = tmin.0;
        out.sort_unstable();
        Some(tmin)
    }

    /// Removes a key known to sit at level 0 (any cached minimum does).
    fn remove_at_level0(&mut self, key: (SimTime, ProcId)) {
        let slot = (key.0 .0 >> SHIFT0) as usize & (SLOTS - 1);
        let vec = &mut self.slots[slot];
        let i = vec.iter().position(|&e| e == key).expect("cached key gone");
        vec.swap_remove(i);
        if vec.is_empty() {
            self.occupied[0] &= !(1 << slot);
        }
        self.len -= 1;
        self.cached_min = None;
    }

    /// Removes `(t, pid)` if present (placement invariant 2 makes this a
    /// direct slot lookup). The engine itself never cancels — halted
    /// processes simply are not re-pushed — but schedule tooling and the
    /// equivalence proptest exercise removal.
    pub fn remove(&mut self, t: SimTime, pid: ProcId) -> bool {
        let key = (t, pid);
        if t.0 < self.cur {
            // Below the anchor ⇒ only the front heap can hold it.
            let before = self.front.len();
            self.front.retain(|&Reverse(e)| e != key);
            if self.front.len() == before {
                return false;
            }
            self.len -= 1;
            return true;
        }
        match self.place(t.0) {
            Place::Slot(level, slot) => {
                let vec = &mut self.slots[level * SLOTS + slot];
                let Some(i) = vec.iter().position(|&e| e == key) else {
                    return false;
                };
                vec.swap_remove(i);
                if vec.is_empty() {
                    self.occupied[level] &= !(1 << slot);
                }
            }
            Place::Overflow => {
                let before = self.overflow.len();
                self.overflow.retain(|&Reverse(e)| e != key);
                if self.overflow.len() == before {
                    return false;
                }
            }
        }
        self.len -= 1;
        if self.cached_min == Some(key) {
            self.cached_min = None;
        }
        true
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel) -> Vec<(SimTime, ProcId)> {
        let mut out = Vec::new();
        while let Some(k) = w.pop() {
            out.push(k);
        }
        out
    }

    #[test]
    fn pops_in_lexicographic_order() {
        let mut w = TimerWheel::new();
        let keys = [
            (SimTime(5_000), 3),
            (SimTime(5_000), 1),
            (SimTime(16_000), 0),
            (SimTime(2), 7),
            (SimTime(900_000), 2),
        ];
        for &(t, p) in &keys {
            w.push(t, p);
        }
        let mut expect = keys.to_vec();
        expect.sort();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn same_slot_ties_break_by_pid() {
        let mut w = TimerWheel::new();
        for pid in (0..10).rev() {
            w.push(SimTime(100), pid);
        }
        let popped: Vec<ProcId> = drain(&mut w).into_iter().map(|(_, p)| p).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut w = TimerWheel::new();
        let far = SimTime(1 << 55);
        w.push(far, 1);
        w.push(SimTime(10), 0);
        assert_eq!(w.pop(), Some((SimTime(10), 0)));
        assert_eq!(w.pop(), Some((far, 1)));
        assert!(w.is_empty());
        assert!(w.cascades() >= 1, "overflow drain must count as cascade");
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // Engine-shaped usage: pop the min, re-push it advanced.
        let mut w = TimerWheel::new();
        for pid in 0..8 {
            w.push(SimTime(1_000 * (pid as u64 + 1)), pid);
        }
        let mut last = (SimTime::ZERO, 0);
        for _ in 0..10_000 {
            let (t, pid) = w.pop().expect("wheel never empties");
            assert!(
                (t, pid) > last || last == (SimTime::ZERO, 0),
                "order violated"
            );
            last = (t, pid);
            // Deterministic uneven advance, including same-granule ties.
            let adv = 1 + (t.0 / 7 + pid as u64 * 13) % 40_000;
            w.push(SimTime(t.0 + adv), pid);
        }
    }

    #[test]
    fn below_anchor_push_still_pops_first() {
        // Pending-buffer-shaped sequence: with only a far key stored, a
        // peek cascades the anchor up to that key's slot base; a later push
        // below the anchor (legal — nothing that early was ever popped)
        // must still come out first, and must be removable.
        let mut w = TimerWheel::new();
        w.push(SimTime(1 << 20), 0);
        w.peek();
        w.push(SimTime(5_000), 1);
        w.push(SimTime(6_000), 2);
        assert!(w.remove(SimTime(6_000), 2));
        assert_eq!(w.pop(), Some((SimTime(5_000), 1)));
        assert_eq!(w.pop(), Some((SimTime(1 << 20), 0)));
        assert!(w.is_empty());
    }

    #[test]
    fn pop_ties_matches_pop_by_pop() {
        // Two tie-runs plus a lone key, one tie split across push order.
        let mut w = TimerWheel::new();
        for &(t, p) in &[
            (SimTime(100), 4),
            (SimTime(100), 1),
            (SimTime(100), 9),
            (SimTime(7_000), 2),
            (SimTime(9_000), 5),
            (SimTime(9_000), 0),
        ] {
            w.push(SimTime(t.0), p);
        }
        let mut out = Vec::new();
        assert_eq!(w.pop_ties(&mut out), Some(SimTime(100)));
        assert_eq!(out, vec![1, 4, 9]);
        assert_eq!(w.pop_ties(&mut out), Some(SimTime(7_000)));
        assert_eq!(out, vec![2]);
        assert_eq!(w.pop_ties(&mut out), Some(SimTime(9_000)));
        assert_eq!(out, vec![0, 5]);
        assert_eq!(w.pop_ties(&mut out), None);
        assert!(w.is_empty());
    }

    #[test]
    fn pop_ties_drains_front_run_separately() {
        // Tie-run below the anchor: the whole run must come from the
        // front heap without touching wheel keys at a later time.
        let mut w = TimerWheel::new();
        w.push(SimTime(1 << 20), 0);
        w.peek(); // cascades the anchor to the far key's slot base
        w.push(SimTime(5_000), 3);
        w.push(SimTime(5_000), 1);
        let mut out = Vec::new();
        assert_eq!(w.pop_ties(&mut out), Some(SimTime(5_000)));
        assert_eq!(out, vec![1, 3]);
        assert_eq!(w.pop_ties(&mut out), Some(SimTime(1 << 20)));
        assert_eq!(out, vec![0]);
        assert!(w.is_empty());
    }

    #[test]
    fn remove_hits_wheel_and_overflow() {
        let mut w = TimerWheel::new();
        w.push(SimTime(500), 0);
        w.push(SimTime(1 << 52), 1);
        assert!(w.remove(SimTime(500), 0));
        assert!(!w.remove(SimTime(500), 0));
        assert!(w.remove(SimTime(1 << 52), 1));
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn remove_after_cascade_still_finds_key() {
        let mut w = TimerWheel::new();
        // Two keys in one level-2 slot; popping the first cascades both,
        // re-anchoring the wheel. The second must remain removable.
        let base = 3u64 << (SHIFT0 + SLOT_BITS);
        w.push(SimTime(base + 5), 0);
        w.push(SimTime(base + 900_000), 1);
        assert_eq!(w.pop(), Some((SimTime(base + 5), 0)));
        assert!(w.remove(SimTime(base + 900_000), 1));
        assert!(w.is_empty());
    }
}
