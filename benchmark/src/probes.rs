//! Layer probes: host nanoseconds per call of each layer's public API.
//!
//! Each probe calls one layer directly, from outside, with inputs shaped by
//! the cell (its key stream, value length, index kind, core and process
//! counts). A probe reports the median over [`BATCHES`] batches, each at
//! least [`MIN_BATCH`] long. APIs that charge simulated time need a `Ctx`,
//! so those probes run inside an engine process that makes [`CHUNK`] calls
//! per step, which amortises the engine's own step cost away.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use utps_collections::{HotSetTracker, LatencyHistogram, SpscRing};
use utps_core::crmr::{CrMrQueue, Desc, QueueKind};
use utps_core::experiment::RunConfig;
use utps_core::hotcache::HotCache;
use utps_core::msg::OpKind;
use utps_core::store::{KvOp, KvStore, OpBuffers};
use utps_index::Step;
use utps_oracle::{History, InitialState, OpClass};
use utps_sim::device::{DeviceConfig, SimDevice};
use utps_sim::time::NANOS;
use utps_sim::{
    CacheHierarchy, Ctx, Engine, Fabric, MetricsRegistry, PayloadArena, Process, SimTime,
    StatClass, StepOutcome, TimerWheel,
};
use utps_wal::{encode_group, recover, WalOp, WalRecord};
use utps_workload::Op;

use crate::spans::Tracer;

/// Batches per probe; the median is reported.
const BATCHES: usize = 5;
/// Shortest batch that is timed.
const MIN_BATCH: Duration = Duration::from_millis(20);
/// Calls an engine-hosted probe makes per engine step.
const CHUNK: u64 = 512;
/// Simulated time one hosted batch may take (100 s; a call charges ~1 us).
const HORIZON_PS: u64 = 100 * utps_sim::time::SECS;
/// Operations in the history the oracle probe checks.
const HISTORY_OPS: usize = 1 << 13;
/// Keys sampled from the cell's workload stream to drive keyed probes.
const KEY_SAMPLE: usize = 1 << 16;

/// Median host ns per call. `batch(n)` makes about `n` calls and returns how
/// many it made; `n` grows until one batch lasts [`MIN_BATCH`].
fn ns_per_call(mut batch: impl FnMut(u64) -> u64) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        black_box(batch(n));
        let took = t.elapsed();
        if took >= MIN_BATCH {
            break;
        }
        let scale = 1.25 * MIN_BATCH.as_secs_f64() / took.as_secs_f64().max(1e-7);
        n = (n as f64 * scale.clamp(2.0, 64.0)) as u64;
    }
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let made = black_box(batch(n));
            t.elapsed().as_nanos() as f64 / made.max(1) as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// An engine process that calls `f` `left` times, [`CHUNK`] per step.
struct Repeat<F> {
    f: F,
    left: u64,
}

impl<W, F: FnMut(&mut Ctx<'_>, &mut W)> Process<W> for Repeat<F> {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut W) -> StepOutcome {
        let n = self.left.min(CHUNK);
        for _ in 0..n {
            (self.f)(ctx, world);
        }
        self.left -= n;
        if self.left == 0 {
            ctx.halt();
        }
        StepOutcome::Progress
    }
}

/// Median host ns per call of `f`, hosted on core 0 of `eng`.
fn ns_per_hosted_call<W: 'static, F>(eng: &mut Engine<W>, f: F) -> f64
where
    F: FnMut(&mut Ctx<'_>, &mut W) + Clone + 'static,
{
    ns_per_call(|n| {
        let proc = Repeat {
            f: f.clone(),
            left: n,
        };
        eng.spawn(Some(0), StatClass::Mr, Box::new(proc));
        // A finite horizon: an engine run to `SimTime::MAX` parks its clock
        // there and would never step a later batch's process.
        eng.run_for(HORIZON_PS);
        assert_eq!(eng.live_procs(), 0, "probe batch outlived its horizon");
        n
    })
}

/// A process that only charges compute; periods differ so the processes
/// do not stay in lockstep.
struct Ticker {
    period_ns: u64,
}

impl Process<()> for Ticker {
    fn step(&mut self, ctx: &mut Ctx<'_>, _: &mut ()) -> StepOutcome {
        ctx.compute_ns(self.period_ns);
        StepOutcome::Progress
    }
}

/// Cycles through a shared key sample.
#[derive(Clone)]
struct Keys {
    keys: Rc<[u64]>,
    at: usize,
}

impl Keys {
    fn next(&mut self) -> u64 {
        self.at = (self.at + 1) % self.keys.len();
        self.keys[self.at]
    }
}

/// What the probes need to know about the cell beyond its config.
pub struct Shape {
    /// Simulated server cores.
    pub cores: usize,
    /// Live processes in the engine.
    pub procs: usize,
}

/// Runs every probe and returns `(metric name, ns per call)` pairs.
pub fn run_all(cfg: &RunConfig, shape: &Shape, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut wl = cfg.workload.build(cfg.keys, cfg.seed, 0);
    let sample: Vec<Op> = (0..KEY_SAMPLE).map(|_| wl.next_op()).collect();
    let keys = Keys {
        keys: sample.iter().map(Op::key).collect(),
        at: 0,
    };
    let value_len = cfg.workload.populate_value_len();
    let inflight = cfg.clients * cfg.pipeline;

    let mut out = Vec::new();
    let mut probe = |name: &'static str, tr: &mut Tracer, f: &mut dyn FnMut() -> f64| {
        tr.enter(name);
        out.push((name, f()));
        tr.exit();
    };
    tr.enter_run("probes");

    probe("probe.sim.engine.ns_per_step", tr, &mut || {
        let mut eng = Engine::new(cfg.machine.clone(), shape.cores, ());
        for i in 0..shape.procs {
            let period_ns = 10 + (i % 7) as u64;
            eng.spawn(None, StatClass::Other, Box::new(Ticker { period_ns }));
        }
        ns_per_call(|n| eng.run_for(n / shape.procs as u64 * 13 * NANOS))
    });

    probe("probe.sim.wheel.ns_per_push_pop", tr, &mut || {
        let mut wheel = TimerWheel::new();
        for pid in 0..shape.procs {
            wheel.push(SimTime(pid as u64 * 977), pid);
        }
        ns_per_call(|n| {
            for _ in 0..n {
                let (t, pid) = wheel.pop().expect("wheel holds every process");
                wheel.push(t + (10 + (pid % 7) as u64) * NANOS, pid);
            }
            n
        })
    });

    let line = cfg.machine.cache.line;
    probe("probe.sim.cache.ns_per_access_resident", tr, &mut || {
        let mut cache = CacheHierarchy::new(&cfg.machine, shape.cores);
        let lines_per_core = 32 * 1024 / line;
        let mut i = 0usize;
        ns_per_call(|n| {
            for _ in 0..n {
                i += 1;
                let core = i % shape.cores;
                let addr = (1 << 30) + (core << 20) + (i / shape.cores % lines_per_core) * line;
                let now = SimTime(i as u64 * NANOS);
                black_box(cache.access(core, StatClass::Cr, addr, 8, false, now));
            }
            n
        })
    });

    probe("probe.sim.cache.ns_per_access_missing", tr, &mut || {
        let mut cache = CacheHierarchy::new(&cfg.machine, shape.cores);
        let span_lines = 4 * cfg.machine.cache.llc_bytes() / line;
        let mut rng = utps_workload::zipf::rng_for(cfg.seed, 1);
        let mut i = 0usize;
        ns_per_call(|n| {
            for _ in 0..n {
                i += 1;
                let addr = (1 << 32) + (rng.next_u64() as usize % span_lines) * line;
                let now = SimTime(i as u64 * 100 * NANOS);
                black_box(cache.access(i % shape.cores, StatClass::Mr, addr, 8, false, now));
            }
            n
        })
    });

    probe("probe.sim.nic.ns_per_roundtrip", tr, &mut || {
        let mut fabric: Fabric<u64> = Fabric::new(cfg.machine.net.clone(), cfg.clients);
        // Messages that never arrive keep the receive queues as deep as the
        // closed loop keeps them.
        for m in 0..inflight {
            fabric.redeliver_server(SimTime::MAX, m as u64);
        }
        let mut now = SimTime::ZERO;
        ns_per_call(|n| {
            for i in 0..n {
                let client = i as usize % cfg.clients;
                fabric.client_send(now, 32, i);
                now += 10_000 * NANOS;
                let msg = fabric.server_poll(now).expect("request arrived");
                fabric.server_send(now, 16 + value_len, client, msg);
                now += 10_000 * NANOS;
                black_box(fabric.client_poll(client, now).expect("response arrived"));
            }
            n
        })
    });

    probe("probe.sim.arena.ns_per_alloc_take", tr, &mut || {
        let mut arena = PayloadArena::new();
        ns_per_call(|n| {
            for _ in 0..n {
                let r = arena.alloc(vec![0xab; value_len].into_boxed_slice());
                black_box(arena.take(r));
            }
            n
        })
    });

    probe("probe.sim.metrics.ns_per_update", tr, &mut || {
        let mut reg = MetricsRegistry::new();
        let mut v = 0u64;
        ns_per_call(|n| {
            for _ in 0..n / 2 {
                v += 37;
                reg.counter_inc("cr.hit");
                reg.hist_record("mr.traversal_ns", 200 + v % 4_000);
            }
            n / 2 * 2
        })
    });

    probe("probe.sim.device.ns_per_write", tr, &mut || {
        // One group commit of a full batch; the device is replaced every
        // 1024 appends so the log it keeps stays small.
        let group = vec![0xcd_u8; cfg.batch * (48 + value_len)];
        let fresh = || {
            let mut dev = SimDevice::new(DeviceConfig::default(), cfg.seed);
            let seg = dev.new_segment();
            (dev, seg)
        };
        let (mut dev, mut seg) = fresh();
        let mut now = SimTime::ZERO;
        ns_per_call(|n| {
            for i in 0..n {
                if i % 1024 == 1023 {
                    (dev, seg) = fresh();
                }
                now += 1_000 * NANOS;
                black_box(dev.append(seg, &group, now));
            }
            n
        })
    });

    probe("probe.collections.spsc.ns_per_push_pop", tr, &mut || {
        let ring: SpscRing<Desc> = SpscRing::new(256);
        let mut keys = keys.clone();
        ns_per_call(|n| {
            for i in 0..n {
                let d = Desc {
                    key: keys.next(),
                    seq: i,
                    kind: OpKind::Get,
                    size: value_len as u32,
                };
                ring.try_push(d).expect("ring has room");
                black_box(ring.try_pop());
            }
            n
        })
    });

    probe("probe.collections.hist.ns_per_record", tr, &mut || {
        let mut hist = LatencyHistogram::new();
        let mut v = 0u64;
        ns_per_call(|n| {
            for _ in 0..n {
                v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                hist.record(5_000 + (v >> 48));
            }
            n
        })
    });

    probe("probe.collections.hotset.ns_per_record", tr, &mut || {
        let mut tracker = HotSetTracker::new(1 << 16, 4, cfg.hot_capacity.max(16));
        let mut keys = keys.clone();
        ns_per_call(|n| {
            for _ in 0..n {
                tracker.record(keys.next());
            }
            n
        })
    });

    probe("probe.workload.ns_per_op", tr, &mut || {
        ns_per_call(|n| {
            for _ in 0..n {
                black_box(wl.next_op());
            }
            n
        })
    });

    let bufs = OpBuffers {
        recv_addr: utps_sim::vaddr::RECV_RING,
        resp_addr: utps_sim::vaddr::RESP_BUF,
    };
    let store = KvStore::populate(cfg.index, cfg.keys, value_len);
    let mut store_eng = Engine::new(cfg.machine.clone(), shape.cores, store);
    for (name, put) in [
        ("probe.index.ns_per_get", false),
        ("probe.index.ns_per_put", true),
    ] {
        probe(name, tr, &mut || {
            let mut keys = keys.clone();
            ns_per_hosted_call(&mut store_eng, move |ctx, store: &mut KvStore| {
                let key = keys.next();
                let mut op = if put {
                    KvOp::put(store, key, vec![0xab; value_len].into(), bufs)
                } else {
                    KvOp::get(store, key, bufs)
                };
                // One process owns the store, so no lock is ever held by
                // another: the op never reports `Blocked`.
                let done = loop {
                    if let Step::Done(done) = op.poll(ctx, store) {
                        break done;
                    }
                };
                assert!(done.ok, "populated key {key} not found");
                if let Some(value) = done.value {
                    ctx.machine().payloads.free(value);
                }
            })
        });
    }
    drop(store_eng);

    probe("probe.core.hotcache.ns_per_lookup", tr, &mut || {
        let mut hot = HotCache::new(if cfg.cache_enabled {
            cfg.hot_capacity
        } else {
            0
        });
        // The keys sampled most often stand in for the tracker's hot set.
        let mut sorted = keys.keys.to_vec();
        sorted.sort_unstable();
        let mut by_count: Vec<(usize, u64)> = sorted
            .chunk_by(|a, b| a == b)
            .map(|run| (run.len(), run[0]))
            .collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        hot.rebuild(by_count.iter().map(|&(_, k)| (k, 1)).collect());
        let mut eng = Engine::new(cfg.machine.clone(), shape.cores, hot);
        let mut keys = keys.clone();
        ns_per_hosted_call(&mut eng, move |ctx, hot: &mut HotCache| {
            black_box(hot.probe(ctx, keys.next()));
        })
    });

    probe("probe.core.crmr.ns_per_desc", tr, &mut || {
        let crmr = CrMrQueue::with_kind(cfg.workers, 256, QueueKind::AllToAll);
        let mut eng = Engine::new(cfg.machine.clone(), shape.cores, crmr);
        let mut keys = keys.clone();
        let batch = cfg.batch;
        let (mut descs, mut popped) = (Vec::new(), Vec::new());
        let per_call = ns_per_hosted_call(&mut eng, move |ctx, crmr: &mut CrMrQueue| {
            descs.extend((0..batch).map(|i| Desc {
                key: keys.next(),
                seq: i as u64,
                kind: OpKind::Get,
                size: value_len as u32,
            }));
            let pushed = crmr.push_batch(ctx, 0, 1, &mut descs);
            popped.clear();
            let got = crmr.pop_batch(ctx, 0, 1, &mut popped, batch);
            assert_eq!((pushed, got), (batch, batch), "lane lost descriptors");
        });
        per_call / batch as f64
    });

    let record = |seq: u64, key: u64| WalRecord {
        wal_seq: seq,
        client: (seq % cfg.clients as u64) as u32,
        client_seq: seq,
        key,
        op: WalOp::Put,
        value: vec![0xab; value_len],
    };
    probe("probe.wal.ns_per_record", tr, &mut || {
        let mut keys = keys.clone();
        let group: Vec<WalRecord> = (0..cfg.batch as u64)
            .map(|s| record(s + 1, keys.next()))
            .collect();
        let mut seq = 0;
        let per_group = ns_per_call(|n| {
            for _ in 0..n {
                seq += 1;
                black_box(encode_group(seq, &group));
            }
            n
        });
        per_group / cfg.batch as f64
    });

    probe("probe.wal.recover_ns_per_record", tr, &mut || {
        const GROUPS: u64 = 256;
        let mut keys = keys.clone();
        let mut wal = Vec::new();
        for g in 0..GROUPS {
            let first = g * cfg.batch as u64;
            let group: Vec<WalRecord> = (0..cfg.batch as u64)
                .map(|s| record(first + s + 1, keys.next()))
                .collect();
            wal.extend(encode_group(g + 1, &group));
        }
        let records = GROUPS * cfg.batch as u64;
        let per_log = ns_per_call(|n| {
            for _ in 0..n {
                let rec = recover(std::iter::empty(), None, &wal);
                assert_eq!(rec.next_wal_seq, records + 1, "log did not replay");
            }
            n
        });
        per_log / records as f64
    });

    probe("probe.oracle.ns_per_op", tr, &mut || {
        // A sequential history over the sampled ops: every get returns the
        // value the latest put to its key wrote.
        let fill = utps_oracle::fill_digest(0xab, value_len);
        let init = InitialState {
            keys: cfg.keys,
            value_digest: fill,
        };
        let mut latest = std::collections::BTreeMap::new();
        let mut history = History::new();
        for (i, op) in sample.iter().take(HISTORY_OPS).enumerate() {
            let (client, seq, t) = ((i % 8) as u32, (i / 8) as u64, i as u64 * 100);
            let key = op.key();
            if op.is_put() {
                let digest = 1 + i as u64;
                latest.insert(key, digest);
                history.invoke(client, seq, OpClass::Put, key, Some(digest), 0, t);
                history.response(client, seq, t + 50, true, None, 0);
            } else {
                let seen = *latest.get(&key).unwrap_or(&fill);
                history.invoke(client, seq, OpClass::Get, key, None, 0, t);
                history.response(client, seq, t + 50, true, Some(seen), 0);
            }
        }
        let per_history = ns_per_call(|n| {
            for _ in 0..n {
                let report = utps_oracle::check(&history, &init);
                assert!(report.ok(), "sequential history rejected: {report:?}");
            }
            n
        });
        per_history / history.len() as f64
    });

    tr.exit();
    out
}
