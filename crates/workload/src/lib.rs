//! Workload generators for the μTPS evaluation.
//!
//! * [`zipf::ZipfGen`] — YCSB's zipfian generator (θ = 0.99 by default) with
//!   the standard scrambling so hot ranks spread across the keyspace;
//! * [`ycsb`] — YCSB core workloads A/B/C/E plus the paper's custom mixes
//!   (100% put skewed/uniform, 100% get uniform);
//! * [`etc`] — Meta's ETC pool: the published value-size mixture
//!   (1–13 B zipfian 40%, 14–300 B zipfian 55%, > 300 B uniform 5%) with a
//!   configurable get ratio (§5.2.2);
//! * [`twitter`] — the three Twitter cluster traces of Table 1, synthesized
//!   from their published parameters (put ratio, average value size, zipf α);
//! * [`dynamic`] — piecewise workloads that shift parameters at a given time,
//!   driving the auto-tuner experiment of Figure 14.
//!
//! The production traces themselves are proprietary; the paper characterizes
//! them by exactly the parameters used here, which is what drives the
//! reported behaviour (see DESIGN.md, substitution table).

pub mod dynamic;
pub mod etc;
pub mod rng;
pub mod twitter;
pub mod ycsb;
pub mod zipf;

pub use dynamic::{DynamicWorkload, Phase};
pub use etc::EtcWorkload;
pub use twitter::{TwitterCluster, TwitterWorkload};
pub use ycsb::{Mix, Op, YcsbWorkload};
pub use zipf::{KeyDist, ZipfGen};

/// Anything that produces a stream of KV operations.
pub trait Workload {
    /// The next operation to issue.
    fn next_op(&mut self) -> Op;

    /// Keyspace size (keys are `0..keyspace`).
    fn keyspace(&self) -> u64;

    /// Informs the workload of elapsed (simulated) time — dynamic workloads
    /// switch phases here; static workloads ignore it.
    fn set_time_ns(&mut self, _now_ns: u64) {}
}
