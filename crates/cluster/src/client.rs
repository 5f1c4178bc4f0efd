//! The cluster's size-class workload wrapper. The cluster client itself is
//! the single-machine [`ClientProc`](utps_core::client::ClientProc), routed
//! through the shared [`RouterState`](crate::router::RouterState).

use utps_workload::{Op, Workload};

/// Wraps a workload so that puts to large-class keys carry the large
/// payload size. Reads are untouched (the store returns whatever length is
/// present); with `large_keys == 0` this is a pure pass-through.
pub(crate) struct SizeClassWorkload {
    inner: Box<dyn Workload + Send>,
    keys: u64,
    large_keys: u64,
    large_value_len: usize,
}

impl SizeClassWorkload {
    /// Wraps `inner`; keys `>= keys - large_keys` put `large_value_len`
    /// bytes.
    pub fn new(
        inner: Box<dyn Workload + Send>,
        keys: u64,
        large_keys: u64,
        large_value_len: usize,
    ) -> Self {
        SizeClassWorkload {
            inner,
            keys,
            large_keys,
            large_value_len,
        }
    }
}

impl Workload for SizeClassWorkload {
    fn next_op(&mut self) -> Op {
        let op = self.inner.next_op();
        if self.large_keys == 0 {
            return op;
        }
        match op {
            Op::Put { key, .. } if key >= self.keys - self.large_keys => Op::Put {
                key,
                value_len: self.large_value_len,
            },
            other => other,
        }
    }

    fn keyspace(&self) -> u64 {
        self.inner.keyspace()
    }

    fn set_time_ns(&mut self, now_ns: u64) {
        self.inner.set_time_ns(now_ns)
    }
}
