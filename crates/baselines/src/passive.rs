//! Passive (one-sided RDMA) KVS baselines: RaceHash and Sherman (§5.1).
//!
//! Clients access server memory directly with one-sided verbs; server CPUs
//! are never involved. The server-side RNIC executes each verb as a DMA
//! against the *real* store memory (charged through the DDIO-aware cache
//! model) and returns a completion. Costs per operation follow the papers:
//!
//! * **RaceHash** (RACE hashing): get = READ the two candidate buckets
//!   (combined in one doorbell) + READ the item = 2 round trips;
//!   put = READ buckets + WRITE the item + CAS the slot pointer = 3 round
//!   trips.
//! * **Sherman**: clients cache internal B+-tree nodes, so a get is one
//!   READ of the leaf (plus the item payload); a rare cache miss re-reads
//!   the internal path. A put takes CAS (lock) + WRITE (leaf/payload) +
//!   WRITE (unlock) = 3 round trips. With 1 KB items the payload dominates
//!   and throughput becomes network-bandwidth-bound, which is exactly the
//!   regime where Sherman shines in Figure 7.
//!
//! This module models the *client protocol and network/DMA costs*, not the
//! remote data-structure modification algorithms themselves (the paper's
//! evaluation uses them as throughput baselines only); see DESIGN.md.

use utps_core::client::{ClientStats, DriverState};
use utps_core::experiment::{RunConfig, SystemKind};
use utps_core::stage::PipelineRuntime;
use utps_core::store::KvStore;
use utps_core::system::{Proc, System};
use utps_index::{Index, IndexKind};
use utps_sim::nic::Fabric;
use utps_sim::time::{SimTime, NANOS};
use utps_sim::{Ctx, Process, StatClass, StepOutcome};
use utps_workload::{Op, Workload};

/// A one-sided verb on the wire.
#[derive(Clone, Debug)]
pub enum Verb {
    /// RDMA READ of `len` bytes at the addresses resolved for `key`.
    Read {
        /// Target key (the engine resolves real addresses).
        key: u64,
        /// Which structure lines to touch.
        what: ReadTarget,
    },
    /// RDMA WRITE of `len` bytes into the item for `key`.
    Write {
        /// Target key.
        key: u64,
        /// Payload length.
        len: usize,
    },
    /// RDMA compare-and-swap on a control word of `key`'s slot.
    Cas {
        /// Target key.
        key: u64,
    },
}

/// What a READ verb fetches.
#[derive(Clone, Copy, Debug)]
pub enum ReadTarget {
    /// The two candidate cuckoo buckets (RaceHash).
    HashBuckets,
    /// The item payload.
    Item,
    /// The B+-tree leaf node + item (Sherman fast path).
    Leaf,
    /// The full internal path (Sherman client-cache miss).
    InternalPath,
}

/// Fabric messages for the passive systems.
#[derive(Clone, Debug)]
pub enum PassiveMsg {
    /// Client → server verb.
    Verb {
        /// Issuing client.
        client: u32,
        /// The verb.
        verb: Verb,
    },
    /// Server RNIC → client completion (its wire size is charged by
    /// `server_send`).
    Done,
}

/// Passive server world: just memory + NIC; no server processes touch it.
pub struct PassiveWorld {
    /// Fabric carrying verbs and completions.
    pub fabric: Fabric<PassiveMsg>,
    /// Server memory (index + items).
    pub store: KvStore,
    /// Driver state.
    pub driver: DriverState,
}

/// The server RNIC's DMA engine: executes verbs in arrival order.
pub struct VerbEngine;

impl Process<PassiveWorld> for VerbEngine {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut PassiveWorld) -> StepOutcome {
        let now = ctx.now();
        let mut worked = false;
        for _ in 0..16 {
            let Some(msg) = world.fabric.server_poll(now) else {
                break;
            };
            worked = true;
            let PassiveMsg::Verb { client, verb } = msg else {
                unreachable!("server got a completion");
            };
            // ~250 ns of RNIC processing + PCIe DMA per verb.
            ctx.compute_ns(250);
            let cache = &mut ctx.machine().cache;
            let payload = match verb {
                Verb::Read { key, what } => match what {
                    ReadTarget::HashBuckets => {
                        let Index::Hash(map) = &world.store.index else {
                            panic!("HashBuckets read on a tree store")
                        };
                        for addr in map.probe_bucket_addrs(key) {
                            cache.nic_read(addr, 64);
                        }
                        128
                    }
                    ReadTarget::Item => match world.store.index.get_native(key) {
                        Some(id) => {
                            let len = world.store.items.value_len(id);
                            cache.nic_read(world.store.items.value_addr(id), len);
                            len
                        }
                        None => 8,
                    },
                    ReadTarget::Leaf => {
                        let Index::Tree(tree) = &world.store.index else {
                            panic!("Leaf read on a hash store")
                        };
                        let path = tree.path_addrs(key);
                        let leaf = *path.last().expect("empty path");
                        cache.nic_read(leaf, 256);
                        let item_len = match world.store.index.get_native(key) {
                            Some(id) => {
                                let len = world.store.items.value_len(id);
                                cache.nic_read(world.store.items.value_addr(id), len);
                                len
                            }
                            None => 0,
                        };
                        256 + item_len
                    }
                    ReadTarget::InternalPath => {
                        let Index::Tree(tree) = &world.store.index else {
                            panic!("InternalPath read on a hash store")
                        };
                        let path = tree.path_addrs(key);
                        for addr in &path {
                            cache.nic_read(*addr, 256);
                        }
                        path.len() * 256
                    }
                },
                Verb::Write { key, len } => {
                    if let Some(id) = world.store.index.get_native(key) {
                        let addr = world.store.items.value_addr(id);
                        cache.nic_write(addr, len.min(world.store.items.value_len(id)).max(1));
                    }
                    8
                }
                Verb::Cas { key } => {
                    if let Some(id) = world.store.index.get_native(key) {
                        cache.nic_write(world.store.items.value_addr(id), 8);
                    }
                    8
                }
            };
            let now = ctx.now();
            world
                .fabric
                .server_send(now, payload, client as usize, PassiveMsg::Done);
        }
        if !worked {
            // No verb has arrived: one idle poll (the engine charges the
            // poll quantum).
            return StepOutcome::Idle;
        }
        StepOutcome::Progress
    }

    fn name(&self) -> &'static str {
        "verb-engine"
    }
}

/// Which passive protocol a client speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassiveProtocol {
    /// RACE hashing.
    RaceHash,
    /// Sherman B+-tree with client-side internal-node cache.
    Sherman,
}

/// Per-operation verb scripts.
fn script(proto: PassiveProtocol, op: &Op, miss_roll: f64) -> Vec<Verb> {
    let key = op.key();
    match (proto, op) {
        (PassiveProtocol::RaceHash, Op::Get { .. }) => vec![
            Verb::Read {
                key,
                what: ReadTarget::HashBuckets,
            },
            Verb::Read {
                key,
                what: ReadTarget::Item,
            },
        ],
        (PassiveProtocol::RaceHash, Op::Put { value_len, .. }) => vec![
            Verb::Read {
                key,
                what: ReadTarget::HashBuckets,
            },
            Verb::Write {
                key,
                len: *value_len,
            },
            Verb::Cas { key },
        ],
        (PassiveProtocol::Sherman, Op::Get { .. }) => {
            let mut v = Vec::new();
            if miss_roll < 0.02 {
                v.push(Verb::Read {
                    key,
                    what: ReadTarget::InternalPath,
                });
            }
            v.push(Verb::Read {
                key,
                what: ReadTarget::Leaf,
            });
            v
        }
        (PassiveProtocol::Sherman, Op::Put { value_len, .. }) => vec![
            Verb::Cas { key },
            Verb::Write {
                key,
                len: *value_len,
            },
            Verb::Cas { key }, // unlock write
        ],
        (PassiveProtocol::Sherman, Op::Scan { count, .. }) => {
            // Leaf-chain reads: ≈ count/12 leaves.
            let leaves = (count / 12 + 1).max(1);
            (0..leaves)
                .map(|_| Verb::Read {
                    key,
                    what: ReadTarget::Leaf,
                })
                .collect()
        }
        (PassiveProtocol::RaceHash, Op::Scan { .. }) => {
            panic!("RaceHash does not support scans")
        }
        (PassiveProtocol::RaceHash, Op::Delete { .. }) => vec![
            Verb::Read {
                key,
                what: ReadTarget::HashBuckets,
            },
            Verb::Cas { key }, // clear the slot pointer
        ],
        (PassiveProtocol::Sherman, Op::Delete { .. }) => vec![
            Verb::Cas { key },
            Verb::Write { key, len: 8 },
            Verb::Cas { key },
        ],
    }
}

/// A passive client: one operation at a time, verbs strictly sequential
/// (each depends on the previous — the paper's "multiple one-sided verbs to
/// locate a KV item").
pub struct PassiveClient {
    id: u32,
    proto: PassiveProtocol,
    workload: Box<dyn Workload + Send>,
    rng_state: u64,
    current: Vec<Verb>,
    next_verb: usize,
    op_start: SimTime,
    awaiting: bool,
}

impl PassiveClient {
    /// Creates a client.
    pub fn new(id: u32, proto: PassiveProtocol, workload: Box<dyn Workload + Send>) -> Self {
        PassiveClient {
            id,
            proto,
            workload,
            rng_state: 0x9e3779b97f4a7c15u64.wrapping_mul(id as u64 + 1),
            current: Vec::new(),
            next_verb: 0,
            op_start: SimTime::ZERO,
            awaiting: false,
        }
    }

    fn roll(&mut self) -> f64 {
        self.rng_state = self
            .rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng_state >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Process<PassiveWorld> for PassiveClient {
    fn step(&mut self, ctx: &mut Ctx<'_>, world: &mut PassiveWorld) -> StepOutcome {
        let now = ctx.now();
        if self.awaiting {
            match world.fabric.client_poll(self.id as usize, now) {
                Some(PassiveMsg::Done) => {
                    self.awaiting = false;
                    ctx.compute_ns(20);
                }
                Some(PassiveMsg::Verb { .. }) => unreachable!("client got a verb"),
                None => {
                    // Still polls while its verb is queued at the engine
                    // rather than parking as `ClientProc` does: parking cuts
                    // Sherman to ≈ 4 steps/op, which the benchmark's rep
                    // loop (run until the windows sum to `--seconds`) turns
                    // into ≈ 2 000 fresh worlds per run. ROADMAP 2(b): adopt
                    // once a `benchmark` PR bounds the rep count.
                    if let Some(at) = world.fabric.client_next_at(self.id as usize) {
                        ctx.advance_to(at);
                    }
                    return StepOutcome::Idle;
                }
            }
        }
        if self.next_verb >= self.current.len() {
            // Operation complete (or first ever): record and start the next.
            if !self.current.is_empty() {
                let stats: &mut ClientStats = &mut world.driver.clients[self.id as usize];
                stats.completed_total += 1;
                if now >= world.driver.measure_start {
                    stats.completed += 1;
                    stats.hist.record((now - self.op_start) / NANOS);
                }
            }
            let op = self.workload.next_op();
            let roll = self.roll();
            self.current = script(self.proto, &op, roll);
            self.next_verb = 0;
            self.op_start = now;
        }
        // Issue the next verb.
        let verb = self.current[self.next_verb].clone();
        self.next_verb += 1;
        let wire = match &verb {
            Verb::Write { len, .. } => 32 + *len,
            _ => 32,
        };
        ctx.compute_ns(40); // WQE + doorbell
        let now = ctx.now();
        world.fabric.client_send(
            now,
            wire,
            PassiveMsg::Verb {
                client: self.id,
                verb,
            },
        );
        self.awaiting = true;
        StepOutcome::Progress
    }

    fn name(&self) -> &'static str {
        "passive-client"
    }
}

/// A passive system as a [`System`]: the server RNIC's [`VerbEngine`] is
/// its only process, on no modeled CPU. `SHERMAN` picks the protocol (and
/// the index it needs); see [`RaceHash`] and [`Sherman`].
pub struct Passive<const SHERMAN: bool>;

/// RaceHash: RACE hashing over one-sided verbs (needs a hash index).
pub type RaceHash = Passive<false>;

/// Sherman: a B+-tree over one-sided verbs (needs a tree index).
pub type Sherman = Passive<true>;

impl<const SHERMAN: bool> System for Passive<SHERMAN> {
    type World = PassiveWorld;

    fn cores(_cfg: &RunConfig) -> usize {
        1
    }

    fn build_world(cfg: &RunConfig) -> PassiveWorld {
        let (system, index, kind) = if SHERMAN {
            (SystemKind::Sherman, IndexKind::Tree, "tree")
        } else {
            (SystemKind::RaceHash, IndexKind::Hash, "hash")
        };
        assert_eq!(cfg.index, index, "{} needs a {kind} index", system.name());
        let populate_len = cfg.workload.populate_value_len();
        let store = KvStore::populate(cfg.index, cfg.keys, populate_len);
        // Model client threads: clients × pipeline independent sequential
        // clients (passive clients cannot pipeline verbs of one op).
        let nclients = cfg.clients * cfg.pipeline;
        PassiveWorld {
            fabric: Fabric::new(cfg.machine.net.clone(), nclients),
            store,
            driver: DriverState::new(nclients, SimTime(cfg.warmup)),
        }
    }

    fn procs(_cfg: &RunConfig, _world: &PassiveWorld) -> Vec<Proc<PassiveWorld>> {
        vec![(None, StatClass::Other, Box::new(VerbEngine))]
    }

    /// `clients × pipeline` verb clients, as plain processes: `PassiveWorld`
    /// is not a `KvWorld` (no request/response fabric). One-sided verbs
    /// bypass the receive ring, so network fault fates do not apply; the
    /// runtime's plan still drives per-core stall windows.
    fn spawn_clients(rt: &mut PipelineRuntime<PassiveWorld>, cfg: &RunConfig) {
        let proto = if SHERMAN {
            PassiveProtocol::Sherman
        } else {
            PassiveProtocol::RaceHash
        };
        for c in 0..cfg.clients * cfg.pipeline {
            let wl = cfg.workload.build(cfg.keys, cfg.seed, c as u64);
            let client = PassiveClient::new(c as u32, proto, wl);
            rt.spawn_process(None, StatClass::Other, Box::new(client));
        }
    }

    fn driver(world: &PassiveWorld) -> &DriverState {
        &world.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utps_core::experiment::WorkloadSpec;
    use utps_core::system::run_system;
    use utps_sim::config::MachineConfig;
    use utps_sim::time::MICROS;
    use utps_workload::Mix;

    fn quick_cfg(index: IndexKind) -> RunConfig {
        RunConfig {
            index,
            keys: 20_000,
            workers: 4,
            clients: 8,
            pipeline: 2,
            warmup: 500 * MICROS,
            duration: 1_500 * MICROS,
            machine: MachineConfig::tiny(),
            workload: WorkloadSpec::Ycsb {
                mix: Mix::A,
                theta: 0.99,
                value_len: 64,
                scan_len: 50,
            },
            ..RunConfig::default()
        }
    }

    #[test]
    fn racehash_end_to_end() {
        let (r, _) = run_system::<RaceHash>(&quick_cfg(IndexKind::Hash));
        assert!(r.completed > 100, "only {} completed", r.completed);
        // Multi-RTT ops: median latency must exceed 2 round trips.
        assert!(r.p50_ns > 3_000, "p50 {} too low for 2+ RTT", r.p50_ns);
    }

    #[test]
    fn sherman_end_to_end() {
        let (r, _) = run_system::<Sherman>(&quick_cfg(IndexKind::Tree));
        assert!(r.completed > 100, "only {} completed", r.completed);
    }

    #[test]
    #[should_panic(expected = "needs a hash index")]
    fn racehash_rejects_tree() {
        let _ = run_system::<RaceHash>(&quick_cfg(IndexKind::Tree));
    }
}
