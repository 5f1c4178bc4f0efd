//! A deterministic microsecond-latency persistence device.
//!
//! Models the storage tier behind the MR layer: an append-only block device
//! with seeded per-op latency (base + per-KB transfer + occasional tail), a
//! bounded submission queue, and a seeded *torn-tail* fault on crash. All
//! latency draws come from a private splitmix64 stream, so a given
//! `(DeviceConfig, run_seed)` pair produces a bit-identical device timeline —
//! the crash-recovery suite relies on that to replay a failing crash point.
//!
//! The device is a passive world object: processes call [`SimDevice::append`]
//! or [`SimDevice::read`] to obtain a *completion time* and then park
//! themselves (via `ctx.advance_to` or their own state machine) until the
//! simulated clock reaches it. No syscalls, no threads — device I/O stays
//! inside the engine, as the workspace `clippy.toml` bans require.

use utps_collections::hashutil::{splitmix64, unit_f64};

use crate::time::{SimTime, NANOS};

/// Latency/fault model for a [`SimDevice`].
///
/// Defaults follow published microsecond-tier device numbers: ~5 µs reads,
/// ~8 µs writes, ~1 µs per transferred KB, a small heavy tail, and a
/// 16-deep submission queue.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Seed folded with the run seed into the device's latency stream.
    pub seed: u64,
    /// Base read latency in nanoseconds.
    pub read_base_ns: u64,
    /// Base write latency in nanoseconds.
    pub write_base_ns: u64,
    /// Transfer cost per KiB in nanoseconds.
    pub ns_per_kb: u64,
    /// Probability an op draws the latency tail.
    pub tail_prob: f64,
    /// Extra tail latency in nanoseconds.
    pub tail_ns: u64,
    /// Submission queue depth; ops beyond it queue behind the oldest slot.
    pub queue_depth: usize,
    /// Chaos knob: probability of an extra seeded delay on an op.
    pub delay_prob: f64,
    /// Chaos knob: the extra delay in nanoseconds.
    pub delay_ns: u64,
    /// Whether a crash tears the first in-flight write (seeded prefix kept).
    pub torn_tail: bool,
    /// Probability the torn tail also takes a seeded bit flip.
    pub flip_prob: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            seed: 0,
            read_base_ns: 5_000,
            write_base_ns: 8_000,
            ns_per_kb: 1_000,
            tail_prob: 0.01,
            tail_ns: 40_000,
            queue_depth: 16,
            delay_prob: 0.0,
            delay_ns: 0,
            torn_tail: true,
            flip_prob: 0.5,
        }
    }
}

/// One append-only region of the device (a WAL or a sorted-run file).
struct Segment {
    bytes: Vec<u8>,
    /// Write watermarks: `(completion_time, durable_len)` per append, in
    /// submission order. Completion times are clamped monotone per segment,
    /// so a segment's durable prefix at any instant is well defined.
    marks: Vec<(SimTime, usize)>,
}

/// The simulated persistence device: seeded latencies, bounded queue,
/// torn-tail crash semantics.
pub struct SimDevice {
    cfg: DeviceConfig,
    rng: u64,
    segments: Vec<Segment>,
    /// Completion times of the most recent `queue_depth` submissions; the
    /// next op starts no earlier than its slot frees.
    slots: Vec<SimTime>,
    slot_cursor: usize,
}

impl SimDevice {
    /// Creates an empty device; `run_seed` is folded into the latency stream
    /// the same way [`crate::fault::FaultPlan::new`] folds it.
    pub fn new(cfg: DeviceConfig, run_seed: u64) -> Self {
        let mut state = run_seed ^ cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let rng = splitmix64(&mut state);
        let depth = cfg.queue_depth.max(1);
        SimDevice {
            cfg,
            rng,
            segments: Vec::new(),
            slots: vec![SimTime::ZERO; depth],
            slot_cursor: 0,
        }
    }

    /// The device configuration.
    pub fn cfg(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Opens a new empty segment, returning its id.
    pub fn new_segment(&mut self) -> usize {
        self.segments.push(Segment {
            bytes: Vec::new(),
            marks: Vec::new(),
        });
        self.segments.len() - 1
    }

    /// Opens a new segment preloaded with `bytes` already durable (used by
    /// recovery to re-mount surviving WAL/run contents).
    pub fn preload_segment(&mut self, bytes: Vec<u8>) -> usize {
        let len = bytes.len();
        self.segments.push(Segment {
            bytes,
            marks: vec![(SimTime::ZERO, len)],
        });
        self.segments.len() - 1
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The full byte contents of `seg` (host-side; recovery and tests).
    pub fn bytes(&self, seg: usize) -> &[u8] {
        &self.segments[seg].bytes
    }

    /// The durable prefix length of `seg` at time `at`.
    pub(crate) fn durable_len_at(&self, seg: usize, at: SimTime) -> usize {
        self.segments[seg]
            .marks
            .iter()
            .rev()
            .find(|&&(t, _)| t <= at)
            .map(|&(_, len)| len)
            .unwrap_or(0)
    }

    /// One latency draw for an op of `len` bytes.
    fn latency(&mut self, base_ns: u64, len: usize) -> SimTime {
        let mut ns = base_ns + (len as u64 * self.cfg.ns_per_kb) / 1024;
        if self.cfg.tail_prob > 0.0 && unit_f64(splitmix64(&mut self.rng)) < self.cfg.tail_prob {
            ns += self.cfg.tail_ns;
        }
        if self.cfg.delay_prob > 0.0 && unit_f64(splitmix64(&mut self.rng)) < self.cfg.delay_prob {
            ns += self.cfg.delay_ns;
        }
        SimTime::from_nanos(ns)
    }

    /// Claims the next submission slot; the op starts at
    /// `max(now, slot_free)` and the slot is re-armed to the completion.
    fn submit(&mut self, now: SimTime, lat: SimTime) -> SimTime {
        let i = self.slot_cursor;
        self.slot_cursor = (self.slot_cursor + 1) % self.slots.len();
        let start = now.max(self.slots[i]);
        let done = SimTime(start.0 + lat.0);
        self.slots[i] = done;
        done
    }

    /// Appends `data` to `seg`, returning the write's completion time. The
    /// bytes become durable only at that instant; a crash before it tears or
    /// drops them. Completion times are clamped monotone per segment, so
    /// same-segment appends become durable in submission order (the WAL
    /// group-commit rule rides on this).
    pub fn append(&mut self, seg: usize, data: &[u8], now: SimTime) -> SimTime {
        let lat = self.latency(self.cfg.write_base_ns, data.len());
        let mut done = self.submit(now, lat);
        let s = &mut self.segments[seg];
        if let Some(&(last, _)) = s.marks.last() {
            done = done.max(SimTime(last.0 + NANOS));
        }
        s.bytes.extend_from_slice(data);
        let len = s.bytes.len();
        s.marks.push((done, len));
        done
    }

    /// Submits a read of `len` bytes, returning its completion time. The
    /// caller copies the bytes host-side and parks until the returned time —
    /// the latency is what the batched-prefetch machinery hides.
    pub fn read(&mut self, len: usize, now: SimTime) -> SimTime {
        let lat = self.latency(self.cfg.read_base_ns, len);
        self.submit(now, lat)
    }

    /// Crashes the device at time `at`: every segment is truncated to its
    /// durable prefix, plus — if `torn_tail` is set — a seeded prefix of the
    /// first write still in flight at `at` (optionally with a seeded bit
    /// flip inside the torn bytes). Later in-flight writes are wholly lost.
    /// Returns the number of segments that lost bytes.
    pub fn crash(&mut self, at: SimTime) -> usize {
        let mut torn = 0;
        for seg in 0..self.segments.len() {
            let durable = self.durable_len_at(seg, at);
            let s = &self.segments[seg];
            if s.bytes.len() <= durable {
                continue;
            }
            torn += 1;
            // The first in-flight write's extent: from `durable` to its own
            // watermark (marks are in submission order).
            let inflight_end = s
                .marks
                .iter()
                .find(|&&(t, _)| t > at)
                .map(|&(_, len)| len)
                .unwrap_or(durable);
            let mut keep = durable;
            if self.cfg.torn_tail && inflight_end > durable {
                let span = inflight_end - durable;
                keep = durable + (splitmix64(&mut self.rng) as usize) % (span + 1);
            }
            let s = &mut self.segments[seg];
            s.bytes.truncate(keep);
            if keep > durable && self.cfg.flip_prob > 0.0 {
                let torn_span = keep - durable;
                if unit_f64(splitmix64(&mut self.rng)) < self.cfg.flip_prob {
                    let off = durable + (splitmix64(&mut self.rng) as usize) % torn_span;
                    let bit = (splitmix64(&mut self.rng) % 8) as u8;
                    s.bytes[off] ^= 1 << bit;
                }
            }
            s.marks.retain(|&(t, _)| t <= at);
        }
        torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_commit_in_order_and_crash_truncates() {
        let mut dev = SimDevice::new(DeviceConfig::default(), 42);
        let seg = dev.new_segment();
        let t1 = dev.append(seg, &[1; 100], SimTime::ZERO);
        let t2 = dev.append(seg, &[2; 100], SimTime::ZERO);
        let t3 = dev.append(seg, &[3; 100], SimTime::ZERO);
        assert!(t1 < t2 && t2 < t3, "per-segment commit order");
        assert_eq!(dev.durable_len_at(seg, t2), 200);
        // Crash between t2 and t3: first 200 bytes durable, tail torn.
        let mid = SimTime((t2.0 + t3.0) / 2);
        dev.crash(mid);
        let bytes = dev.bytes(seg);
        assert!(
            (200..=300).contains(&bytes.len()),
            "torn within in-flight write"
        );
        assert_eq!(&bytes[..100], &[1; 100][..]);
    }

    #[test]
    fn same_seed_same_timeline() {
        // tail_prob 0.5 so two seeds are ~guaranteed to diverge within 50
        // draws (the default 1% tail can plausibly never fire in 50 ops).
        let run = |seed| {
            let cfg = DeviceConfig {
                tail_prob: 0.5,
                ..DeviceConfig::default()
            };
            let mut dev = SimDevice::new(cfg, seed);
            let seg = dev.new_segment();
            (0..50)
                .map(|i| dev.append(seg, &[i as u8; 64], SimTime::ZERO).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn queue_depth_backpressure() {
        let cfg = DeviceConfig {
            queue_depth: 2,
            tail_prob: 0.0,
            ..DeviceConfig::default()
        };
        let mut dev = SimDevice::new(cfg, 1);
        let seg = dev.new_segment();
        // Third write must start after the first completes.
        let t1 = dev.append(seg, &[0; 8], SimTime::ZERO);
        let _ = dev.append(seg, &[0; 8], SimTime::ZERO);
        let t3 = dev.append(seg, &[0; 8], SimTime::ZERO);
        assert!(t3.0 >= t1.0 + SimTime::from_nanos(8_000).0);
    }

    #[test]
    fn preloaded_segment_is_durable() {
        let mut dev = SimDevice::new(DeviceConfig::default(), 3);
        let seg = dev.preload_segment(vec![9; 128]);
        dev.crash(SimTime::ZERO);
        assert_eq!(dev.bytes(seg).len(), 128);
    }
}
