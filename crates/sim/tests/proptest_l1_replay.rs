//! Differential property: charging a repeated run of plain L1 read hits
//! through [`CacheHierarchy::l1_hits`] is indistinguishable from issuing the
//! reads, whenever [`CacheHierarchy::private_version`] licenses it.
//!
//! This is the licence of the catch-up lemma behind parked polls (DESIGN.md
//! §10 "Parked polls"): an MR worker parked after a lane scan of plain L1
//! hits is charged each scan it skipped through `l1_hits` when it wakes, as
//! twin B below charges a sequence it does not issue, and a CR worker's
//! skipped completion reads are charged the same way. Two hierarchies run
//! the same generated traffic — accesses, atomics, prefetches, DDIO writes,
//! DMA reads and core clears from every core, on lines that share sets with
//! a fixed read sequence of core 0. Twin A issues the sequence for real every time. Twin B replays it
//! with `l1_hits` whenever core 0's token still equals its value right after
//! a real issue that moved it by exactly the sequence length. Every call
//! must cost the same on both twins, the metrics must agree, and a final
//! read sweep of every line by every core (which would expose a recency
//! order the replay got wrong) must cost the same too.

use proptest::collection::vec;
use proptest::prelude::*;
use utps_sim::time::SimTime;
use utps_sim::{CacheHierarchy, MachineConfig, StatClass};

const CORES: usize = 4;
const LINE: usize = 64;

/// Lines the traffic and the sequence draw from: six per L1 set in sets
/// 0–3 of the tiny machine's 8 × 4-way L1, so the sequence competes for
/// ways with everything else. The `+ 8`/`+ 16` lines also pair up in L2 sets.
fn pool() -> Vec<usize> {
    (0..4)
        .flat_map(|s| [s, s + 8, s + 16, s + 128, s + 256, s + 384])
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    /// Core 0 reads its sequence.
    Seq,
    Access {
        core: usize,
        line: usize,
        write: bool,
    },
    Atomic {
        core: usize,
        line: usize,
    },
    Prefetch {
        core: usize,
        line: usize,
    },
    NicWrite {
        line: usize,
        lines: usize,
    },
    NicRead {
        line: usize,
    },
    ClearCore {
        core: usize,
    },
}

struct Twins {
    a: CacheHierarchy,
    b: CacheHierarchy,
    /// Twin B's core-0 token right after a real issue of the sequence that
    /// moved it by exactly the sequence length.
    armed: Option<u64>,
    replays: u64,
    now: SimTime,
}

/// Reads `seq` on core 0 the way a process step would: each read charged at
/// the clock the previous ones advanced.
fn issue(h: &mut CacheHierarchy, seq: &[usize], now: SimTime) -> u64 {
    let mut cost = 0;
    for &line in seq {
        cost += h.access(0, StatClass::Mr, line * LINE + 8, 8, false, now + cost);
    }
    cost
}

impl Twins {
    fn new() -> Self {
        let cfg = MachineConfig::tiny();
        Twins {
            a: CacheHierarchy::new(&cfg, CORES),
            b: CacheHierarchy::new(&cfg, CORES),
            armed: None,
            replays: 0,
            now: SimTime::ZERO,
        }
    }

    /// Applies `op` to both twins; returns both costs.
    fn apply(&mut self, op: &Op, seq: &[usize], pool: &[usize]) -> (u64, u64) {
        let now = self.now;
        // Half the line indices name a pool line, half a sequence line.
        let line = |i: usize| pool.get(i).copied().unwrap_or(seq[i % seq.len()]);
        let (ca, cb) = match *op {
            Op::Seq => {
                let ca = issue(&mut self.a, seq, now);
                let cb = if self.armed == Some(self.b.private_version(0)) {
                    self.replays += 1;
                    self.b.l1_hits(StatClass::Mr, seq.len() as u64)
                } else {
                    let v0 = self.b.private_version(0);
                    let cb = issue(&mut self.b, seq, now);
                    let v1 = self.b.private_version(0);
                    self.armed = (v1 - v0 == seq.len() as u64).then_some(v1);
                    cb
                };
                (ca, cb)
            }
            Op::Access {
                core,
                line: l,
                write,
            } => {
                let addr = line(l) * LINE;
                (
                    self.a.access(core, StatClass::Other, addr, 8, write, now),
                    self.b.access(core, StatClass::Other, addr, 8, write, now),
                )
            }
            Op::Atomic { core, line: l } => {
                let addr = line(l) * LINE;
                (
                    self.a.atomic(core, StatClass::Cr, addr, now),
                    self.b.atomic(core, StatClass::Cr, addr, now),
                )
            }
            Op::Prefetch { core, line: l } => {
                let addr = line(l) * LINE;
                self.a.prefetch(core, StatClass::Other, addr, 8, now);
                self.b.prefetch(core, StatClass::Other, addr, 8, now);
                (0, 0)
            }
            Op::NicWrite { line: l, lines } => {
                self.a.nic_write(line(l) * LINE, lines * LINE);
                self.b.nic_write(line(l) * LINE, lines * LINE);
                (0, 0)
            }
            Op::NicRead { line: l } => {
                self.a.nic_read(line(l) * LINE, LINE);
                self.b.nic_read(line(l) * LINE, LINE);
                (0, 0)
            }
            Op::ClearCore { core } => {
                self.a.clear_core(core);
                self.b.clear_core(core);
                (0, 0)
            }
        };
        self.now += ca;
        (ca, cb)
    }

    /// Every core reads every pool line once on both twins; returns the
    /// first `(core, line, cost A, cost B)` that differs.
    fn sweep(&mut self, pool: &[usize]) -> Option<(usize, usize, u64, u64)> {
        for core in 0..CORES {
            for &line in pool {
                let ca = self
                    .a
                    .access(core, StatClass::Other, line * LINE, 8, false, self.now);
                let cb = self
                    .b
                    .access(core, StatClass::Other, line * LINE, 8, false, self.now);
                if ca != cb {
                    return Some((core, line, ca, cb));
                }
                self.now += ca;
            }
        }
        None
    }
}

/// Ops weighted by kind (sequence issues and plain accesses dominate) and
/// by core (core 0, the sequence's owner, issues five in eight).
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..16, 0..2 * CORES, 0usize..48, any::<bool>()).prop_map(|(kind, core, line, flag)| {
        let core = core.saturating_sub(CORES);
        match kind {
            0..=3 => Op::Seq,
            4..=8 => Op::Access {
                core,
                line,
                write: flag,
            },
            9 => Op::Atomic { core, line },
            10..=12 => Op::Prefetch { core, line },
            13 => Op::NicWrite {
                line,
                lines: 1 + flag as usize,
            },
            14 => Op::NicRead { line },
            _ => Op::ClearCore { core },
        }
    })
}

/// Runs `ops` on fresh twins; `Err` names the first divergence.
fn run(seq_idx: &[usize], ops: &[(Op, u64)]) -> Result<u64, String> {
    let pool = pool();
    let seq: Vec<usize> = seq_idx.iter().map(|&i| pool[i]).collect();
    let mut t = Twins::new();
    for (i, (op, gap)) in ops.iter().enumerate() {
        let (ca, cb) = t.apply(op, &seq, &pool);
        if ca != cb {
            return Err(format!("op {i} {op:?}: twin A cost {ca}, twin B {cb}"));
        }
        t.now += *gap;
    }
    if let Some((core, line, ca, cb)) = t.sweep(&pool) {
        return Err(format!("sweep: core {core} line {line}: {ca} vs {cb}"));
    }
    if t.a.metrics != t.b.metrics {
        return Err(format!(
            "metrics differ: {:?} vs {:?}",
            t.a.metrics, t.b.metrics
        ));
    }
    Ok(t.replays)
}

#[test]
fn a_quiet_core_replays_and_a_touched_one_does_not() {
    use Op::*;
    let seq = [0, 6, 12, 18]; // one line in each of L1 sets 0–3
    let ops: Vec<(Op, u64)> = [
        Seq,
        Seq,
        Seq,
        Access {
            core: 1,
            line: 1,
            write: false,
        },
        Seq,
        Access {
            core: 2,
            line: 6,
            write: true,
        },
        Seq,
        Seq,
        Seq,
    ]
    .into_iter()
    .map(|op| (op, 1_000))
    .collect();
    // The first issue misses; the second hits and arms; the third replays,
    // and so does the fourth, since core 1 read a line core 0 never
    // touched. Core 2's write to a sequence line disarms it: the next issue
    // misses that line and does not re-arm, the one after re-arms and the
    // last one replays.
    assert_eq!(run(&seq, &ops), Ok(3));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn replayed_l1_hits_are_indistinguishable_from_issued_reads(
        seq in vec(0usize..24, 1..=12),
        ops in vec((op_strategy(), 0u64..3_000), 1..120),
    ) {
        let r = run(&seq, &ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
