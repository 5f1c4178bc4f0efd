//! Cluster hooks: the server half and the client half.
//!
//! In a sharded cluster (see the `utps-cluster` crate) every server machine
//! runs an unmodified μTPS or BaseKV pipeline and every client is the
//! single-machine [`ClientProc`]; the only cluster-aware points are five
//! calls routed through [`ShardHooks`]. Three sit in the server hot path —
//! the first two behind [`rpc::admit`](crate::rpc::admit), the one admission
//! function μTPS and BaseKV share:
//!
//! * **admit** — when a worker claims a receive slot, the router decides
//!   whether this shard may serve the key right now. It may not if the
//!   key's hash slot is frozen for migration or was already handed to
//!   another shard (the claim raced an ownership flip); the worker then
//!   bounces the request back with the [`Response::moved`] bit and the
//!   client re-routes it — same client sequence number, so the dedup table
//!   on the new owner keeps the operation exactly-once.
//! * **op_begin / op_end** — per-slot in-flight accounting, from admission
//!   to the moment the response leaves (or is parked on the durability
//!   barrier). The migration
//!   controller freezes a hash slot and waits for its in-flight count to
//!   reach zero before copying items, so no request ever observes a
//!   half-moved slot.
//!
//! Two sit in a [routed](crate::client::ClientProc::routed) client:
//!
//! * **route** — which shard a send (first send, retransmit or re-send
//!   after a bounce) goes to.
//! * **record_completion** — a measured completion with its key, for the
//!   per-size-class latency tails.
//!
//! Single-machine runs leave [`UtpsWorld::cluster`]/`BaseWorld::cluster`
//! as `None` and their clients unrouted: the hooks cost one untaken branch
//! and the behavior (and the byte-exact simulation) of every existing
//! experiment is unchanged.
//!
//! [`ClientProc`]: crate::client::ClientProc
//! [`Response::moved`]: crate::msg::Response::moved
//! [`UtpsWorld::cluster`]: crate::server::UtpsWorld::cluster

use std::cell::RefCell;
use std::rc::Rc;

/// The router's admission decision for a claimed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// This shard owns the key (or holds a valid read replica): serve it.
    Serve,
    /// Not servable here: answer with the `moved` bit, client re-routes.
    Bounce,
}

/// Cluster-level state the per-shard server pipelines (`admit`, `op_begin`,
/// `op_end`) and the routed clients (`route`, `record_completion`) call
/// into. Every call is host-side bookkeeping: none charges simulated time
/// or draws randomness.
///
/// Implemented by the `utps-cluster` router; a trait here so `utps-core`
/// stays independent of the cluster crate.
pub trait ShardHooks {
    /// May `shard` serve `key` right now? Called once per claimed request,
    /// before any execution. For writes at the owning shard this is also
    /// the replica write-invalidate point: it runs within the claiming
    /// worker's step, so replicas are invalid before the write executes.
    fn admit(&mut self, shard: usize, key: u64, is_write: bool) -> Admit;

    /// An admitted request entered execution on `shard` under receive-ring
    /// sequence `seq`.
    fn op_begin(&mut self, shard: usize, key: u64, seq: u64);

    /// The request claimed under (`shard`, `seq`) sent its response.
    fn op_end(&mut self, shard: usize, seq: u64);

    /// The shard a client sends an operation on `key` to right now. Asked
    /// again for every retransmit and bounce re-send: ownership may have
    /// moved since the first attempt.
    fn route(&mut self, key: u64, is_write: bool) -> usize;

    /// A client completed an operation on `key` after warmup, `ns` after
    /// its first send.
    fn record_completion(&mut self, key: u64, ns: u64);
}

/// A shard's handle on the shared cluster router state.
pub struct ShardCtl {
    /// This machine's shard index.
    pub shard: usize,
    /// Shared router state. `Rc<RefCell<..>>` is sound here: the engine is
    /// single-threaded and each hook call is contained in one process step.
    pub hooks: Rc<RefCell<dyn ShardHooks>>,
}

impl ShardCtl {
    /// Admission decision for `key` on this shard.
    pub fn admit(&self, key: u64, is_write: bool) -> Admit {
        self.hooks.borrow_mut().admit(self.shard, key, is_write)
    }

    /// Records an admitted request entering execution.
    pub fn op_begin(&self, key: u64, seq: u64) {
        self.hooks.borrow_mut().op_begin(self.shard, key, seq)
    }

    /// Records a response leaving this shard.
    pub fn op_end(&self, seq: u64) {
        self.hooks.borrow_mut().op_end(self.shard, seq)
    }
}

/// Test router for a one-shard "cluster": everything routes to shard 0 and
/// is admitted unless `bounce` is set; what it is told is kept.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct StubHooks {
    pub bounce: bool,
    pub begun: Vec<(usize, u64, u64)>,
    pub ended: u32,
    pub completions: Vec<(u64, u64)>,
}

#[cfg(test)]
impl ShardHooks for StubHooks {
    fn admit(&mut self, _shard: usize, _key: u64, _is_write: bool) -> Admit {
        if self.bounce {
            Admit::Bounce
        } else {
            Admit::Serve
        }
    }
    fn op_begin(&mut self, shard: usize, key: u64, seq: u64) {
        self.begun.push((shard, key, seq));
    }
    fn op_end(&mut self, _shard: usize, _seq: u64) {
        self.ended += 1;
    }
    fn route(&mut self, _key: u64, _is_write: bool) -> usize {
        0
    }
    fn record_completion(&mut self, key: u64, ns: u64) {
        self.completions.push((key, ns));
    }
}
