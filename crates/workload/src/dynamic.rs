//! Piecewise (time-varying) workloads for the auto-tuner experiments.
//!
//! Figure 14 changes the value size from 512 B to 8 B at t = 4 s and watches
//! the tuner detect and reconfigure. A [`DynamicWorkload`] strings together
//! phases, each a full workload generator, switched by the driver-supplied
//! elapsed time.

use crate::ycsb::{Mix, Op, YcsbWorkload};
use crate::zipf::KeyDist;
use crate::Workload;

/// One phase of a dynamic workload.
pub struct Phase {
    /// Phase start time in nanoseconds since simulation start, warm-up included.
    pub start_ns: u64,
    /// The generator active during this phase.
    pub workload: Box<dyn Workload + Send>,
}

/// A workload that switches generators at configured times.
pub struct DynamicWorkload {
    phases: Vec<Phase>,
    current: usize,
    now_ns: u64,
}

impl DynamicWorkload {
    /// Creates a dynamic workload from phases sorted by `start_ns`
    /// (the first must start at 0).
    ///
    /// # Panics
    ///
    /// Panics if phases are empty, unsorted, or do not start at 0.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert_eq!(phases[0].start_ns, 0, "first phase must start at t=0");
        for w in phases.windows(2) {
            assert!(w[0].start_ns < w[1].start_ns, "phases must be sorted");
        }
        DynamicWorkload {
            phases,
            current: 0,
            now_ns: 0,
        }
    }

    /// The paper's Figure 14 scenario: YCSB-A, value size 512 B until
    /// `switch_ns`, then 8 B.
    pub fn figure14(keyspace: u64, switch_ns: u64, seed: u64, stream: u64) -> Self {
        DynamicWorkload::new(vec![
            Phase {
                start_ns: 0,
                workload: Box::new(YcsbWorkload::new(
                    Mix::A,
                    KeyDist::zipf(keyspace, 0.99),
                    512,
                    50,
                    seed,
                    stream,
                )),
            },
            Phase {
                start_ns: switch_ns,
                workload: Box::new(YcsbWorkload::new(
                    Mix::A,
                    KeyDist::zipf(keyspace, 0.99),
                    8,
                    50,
                    seed,
                    stream + 1,
                )),
            },
        ])
    }

    /// Advances the workload clock (drivers call this with simulated time).
    pub fn set_time_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        while self.current + 1 < self.phases.len()
            && self.phases[self.current + 1].start_ns <= now_ns
        {
            self.current += 1;
        }
    }

    /// Index of the active phase.
    pub fn current_phase(&self) -> usize {
        self.current
    }
}

impl Workload for DynamicWorkload {
    fn next_op(&mut self) -> Op {
        self.phases[self.current].workload.next_op()
    }

    fn keyspace(&self) -> u64 {
        self.phases[self.current].workload.keyspace()
    }

    fn set_time_ns(&mut self, now_ns: u64) {
        DynamicWorkload::set_time_ns(self, now_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_at_configured_time() {
        let mut w = DynamicWorkload::figure14(1_000, 4_000_000_000, 11, 0);
        assert_eq!(w.current_phase(), 0);
        // Before the switch: 512-byte puts.
        for _ in 0..100 {
            if let Op::Put { value_len, .. } = w.next_op() {
                assert_eq!(value_len, 512);
            }
        }
        w.set_time_ns(3_999_999_999);
        assert_eq!(w.current_phase(), 0);
        w.set_time_ns(4_000_000_000);
        assert_eq!(w.current_phase(), 1);
        for _ in 0..100 {
            if let Op::Put { value_len, .. } = w.next_op() {
                assert_eq!(value_len, 8);
            }
        }
    }

    #[test]
    #[should_panic(expected = "first phase must start at t=0")]
    fn rejects_nonzero_start() {
        DynamicWorkload::new(vec![Phase {
            start_ns: 5,
            workload: Box::new(YcsbWorkload::new(Mix::C, KeyDist::uniform(10), 8, 50, 0, 0)),
        }]);
    }

    #[test]
    fn time_is_monotone_across_phase_skips() {
        let mut w = DynamicWorkload::figure14(100, 1_000, 12, 0);
        w.set_time_ns(10_000); // jump straight past the switch
        assert_eq!(w.current_phase(), 1);
    }
}
