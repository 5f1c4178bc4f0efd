//! Configuration of the simulated machine.
//!
//! Defaults approximate one NUMA node of the paper's server (Intel Xeon Gold
//! 6330: 28 cores, 48 KB L1D, 1.25 MB L2 per core, 42 MB shared 12-way LLC)
//! and its network (Mellanox ConnectX-6, 200 Gb/s, ~2 μs RTT). Latency
//! numbers follow common Ice Lake measurements and the paper's own framing
//! ("a single cache miss can introduce a delay of 50-150 ns").

use crate::time::NANOS;

/// Geometry and latency of the three-level cache hierarchy.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Cache line size in bytes. Assumed 64 everywhere.
    pub line: usize,
    /// L1 data cache sets per core.
    pub l1_sets: usize,
    /// L1 data cache associativity.
    pub l1_ways: usize,
    /// L2 cache sets per core.
    pub l2_sets: usize,
    /// L2 cache associativity.
    pub l2_ways: usize,
    /// Shared LLC sets.
    pub llc_sets: usize,
    /// Shared LLC associativity — the unit of CAT way partitioning.
    pub llc_ways: usize,
    /// Number of rightmost LLC ways used by DDIO for NIC write allocation.
    pub ddio_ways: usize,
}

impl CacheConfig {
    /// Total LLC capacity in bytes.
    pub fn llc_bytes(&self) -> usize {
        self.llc_sets * self.llc_ways * self.line
    }

    /// A reduced-scale hierarchy for fast tests: same structure, small sizes.
    pub fn tiny() -> Self {
        CacheConfig {
            line: 64,
            l1_sets: 8,
            l1_ways: 4,
            l2_sets: 32,
            l2_ways: 4,
            llc_sets: 128,
            llc_ways: 12,
            ddio_ways: 2,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        // Scaled-down LLC (6 MB, 12-way) matching the scaled-down default
        // database used in benches; `MachineConfig::paper()` restores 42 MB.
        CacheConfig {
            line: 64,
            l1_sets: 64,
            l1_ways: 12, // 48 KB
            l2_sets: 2048,
            l2_ways: 10, // 1.25 MB
            llc_sets: 8192,
            llc_ways: 12, // 6 MB
            ddio_ways: 2,
        }
    }
}

/// Latency and cost model, all in picoseconds.
#[derive(Clone, Debug)]
pub struct CostConfig {
    /// L1 hit latency.
    pub l1_hit: u64,
    /// L2 hit latency.
    pub l2_hit: u64,
    /// LLC hit latency.
    pub llc_hit: u64,
    /// DRAM access latency (LLC miss).
    pub dram: u64,
    /// Fetching a line that is dirty in another core's private cache.
    pub remote_dirty: u64,
    /// Extra cost of an atomic read-modify-write over a plain access.
    pub atomic_extra: u64,
    /// Extra cost when an atomic has to invalidate copies in other cores.
    pub invalidate_extra: u64,
    /// Per-line cost for the tail of a multi-line (streaming) DRAM access;
    /// models hardware prefetch / open-row streaming during memcpy.
    pub dram_stream: u64,
    /// Cost of issuing a software prefetch instruction.
    pub prefetch_issue: u64,
    /// Service interval of the shared DRAM subsystem per 64-byte line, in
    /// picoseconds. Models the socket's effective *random-access* bandwidth
    /// (well below peak streaming bandwidth): concurrent misses from many
    /// cores queue behind each other, so loaded DRAM latency rises with
    /// pressure. 1500 ps/line ≈ 42 GB/s of random 64-B traffic per socket.
    pub dram_line_service: u64,
    /// Maximum outstanding line fills per core (MSHR / line-fill buffers).
    /// Software prefetches beyond this are dropped, exactly as real cores
    /// drop `prefetcht0` when no fill buffer is free — this is what bounds
    /// memory-level parallelism and keeps batched prefetching from hiding
    /// unlimited DRAM latency.
    pub mshr: usize,
    /// Cost of constructing/resuming a stackless coroutine (the paper:
    /// "single-digit nanosecond latencies", §3.3); charged per batched-FSM
    /// poll by the executors.
    pub fsm_switch: u64,
    /// Front-end (L1i/BTB) refill cost when a thread's control flow crosses
    /// into a different functional stage (parse → index → copy → respond).
    /// Monolithic run-to-completion loops pay several per request; staged
    /// threads execute one stage's code and avoid most of it — the paper's
    /// instruction-cache-footprint argument (§2.2.1).
    pub stage_transition: u64,
    /// Cost of one spin-loop iteration on a contended lock or empty queue.
    pub spin_quantum: u64,
    /// Time charged when a process step performs no explicit work
    /// (models one iteration of a polling loop).
    pub poll_quantum: u64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            l1_hit: 1_200,            // ~1.2 ns (4-5 cycles)
            l2_hit: 4_000,            // ~4 ns
            llc_hit: 14_000,          // ~14 ns
            dram: 82_000,             // ~82 ns
            remote_dirty: 60_000,     // ~60 ns cross-core snoop
            atomic_extra: 12_000,     // lock-prefixed op overhead
            invalidate_extra: 25_000, // RFO broadcast when line is shared
            dram_stream: 8_000,       // ~8 GB/s per-core streaming
            prefetch_issue: 1_500,    // prefetcht0 dispatch
            dram_line_service: 2_200, // ~29 GB/s random-access per socket
            mshr: 10,                 // Ice Lake-class L1D fill buffers
            fsm_switch: 3_500,        // stackless coroutine resume
            stage_transition: 28_000, // L1i/BTB refill across stages
            spin_quantum: 18 * NANOS,
            poll_quantum: 16 * NANOS,
        }
    }
}

/// Network model: propagation delay, bandwidth, and message-rate limits.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// One-way propagation + switch + PCIe delay, in picoseconds.
    pub one_way_delay: u64,
    /// Wire time per byte in picoseconds ×1024 (fixed-point so that 200 Gb/s,
    /// i.e. 40 ps/byte, is representable exactly as 40 × 1024).
    pub ps_per_byte_x1024: u64,
    /// Minimum spacing between messages on a NIC port (message-rate cap),
    /// in picoseconds.
    pub min_msg_gap: u64,
    /// Fixed per-message wire overhead in bytes (headers, CRC, IPG).
    pub per_msg_overhead_bytes: usize,
}

impl NetConfig {
    /// Wire time of a message of `payload` bytes, in picoseconds.
    pub(crate) fn wire_time(&self, payload: usize) -> u64 {
        let bytes = (payload + self.per_msg_overhead_bytes) as u64;
        let t = (bytes * self.ps_per_byte_x1024) >> 10;
        t.max(self.min_msg_gap)
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            one_way_delay: 900 * NANOS, // ~1.8 μs RTT before queueing
            // 200 Gb/s = 25 GB/s = 40 ps per byte.
            ps_per_byte_x1024: 40 << 10,
            // ~195 M msgs/s per direction (ConnectX-6 class).
            min_msg_gap: 5_120,
            per_msg_overhead_bytes: 66,
        }
    }
}

/// Full machine description.
#[derive(Clone, Debug, Default)]
pub struct MachineConfig {
    /// Simulated cache hierarchy.
    pub cache: CacheConfig,
    /// Latency/cost model.
    pub cost: CostConfig,
    /// NIC and fabric model.
    pub net: NetConfig,
}

impl MachineConfig {
    /// Full paper-scale machine: 42 MB 12-way LLC.
    pub fn paper() -> Self {
        MachineConfig {
            cache: CacheConfig {
                llc_sets: 57_344, // 42 MB / (64 B × 12 ways)
                ..CacheConfig::default()
            },
            ..MachineConfig::default()
        }
    }

    /// Reduced-scale machine for unit tests.
    pub fn tiny() -> Self {
        MachineConfig {
            cache: CacheConfig::tiny(),
            ..MachineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llc_capacity() {
        assert_eq!(MachineConfig::paper().cache.llc_bytes(), 42 * 1024 * 1024);
        assert_eq!(CacheConfig::default().llc_bytes(), 6 * 1024 * 1024);
    }

    #[test]
    fn wire_time_matches_200gbps() {
        let net = NetConfig::default();
        // 1 KiB + 66 B overhead at 40 ps/B = 43.6 ns.
        let t = net.wire_time(1024);
        assert_eq!(t, (1024 + 66) * 40);
        // Tiny messages are limited by the message-rate cap.
        assert_eq!(net.wire_time(0), net.min_msg_gap.max(66 * 40));
    }

    #[test]
    fn defaults_are_sane() {
        let c = CostConfig::default();
        assert!(c.l1_hit < c.l2_hit && c.l2_hit < c.llc_hit && c.llc_hit < c.dram);
        assert!(c.remote_dirty > c.llc_hit);
    }
}
