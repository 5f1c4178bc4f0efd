//! The KV store (index + item storage) and the full-request operation FSM.
//!
//! [`KvOp`] is the complete server-side life of one KV operation *after* RPC
//! parsing: index traversal, item access, and the data copy between network
//! buffers and KV storage (§3.3 — data items never flow through the CR-MR
//! queue; workers copy directly between the network buffer and the store).
//! The memory-resident layer interleaves batches of `KvOp`s; the
//! run-to-completion baselines drive the very same FSM inline.

use utps_index::{
    Index, IndexGet, IndexInsert, IndexInsertError, IndexKind, IndexRemove, IndexScan, ItemId,
    ItemStore, Step,
};
use utps_sim::{Counter, Ctx, PayloadRef};

use crate::crmr::Desc;
use crate::msg::OpKind;
use crate::rpc::RecvRing;

/// The store: an index mapping keys to items plus the item payloads.
pub struct KvStore {
    /// Key → item index (hash or tree).
    pub index: Index,
    /// Item payload storage with per-item concurrency control.
    pub items: ItemStore,
}

impl KvStore {
    /// Creates an empty store of the given index kind, sized for `capacity`
    /// keys.
    pub fn new(kind: IndexKind, capacity: usize) -> Self {
        KvStore {
            index: Index::new(kind, capacity),
            items: ItemStore::new(),
        }
    }

    /// Bulk-populates keys `0..n` with `value_len`-byte values
    /// (the paper pre-populates 10 M items before every experiment).
    pub fn populate(kind: IndexKind, n: u64, value_len: usize) -> Self {
        let mut items = ItemStore::new();
        let filler = vec![0xabu8; value_len];
        let pairs: Vec<(u64, ItemId)> = (0..n).map(|k| (k, items.alloc(&filler))).collect();
        KvStore {
            index: Index::from_pairs(kind, pairs),
            items,
        }
    }

    /// Builds a store from explicit key/value pairs (crash recovery: the
    /// replayed WAL-over-run image). Keys must be unique; order is free.
    pub(crate) fn from_items<I>(kind: IndexKind, items_iter: I) -> Self
    where
        I: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let mut items = ItemStore::new();
        let pairs: Vec<(u64, ItemId)> = items_iter
            .into_iter()
            .map(|(k, v)| (k, items.alloc(&v)))
            .collect();
        KvStore {
            index: Index::from_pairs(kind, pairs),
            items,
        }
    }

    /// Uncharged read of a key's current value (verification).
    pub fn get_native(&self, key: u64) -> Option<&[u8]> {
        self.index.get_native(key).map(|id| self.items.value(id))
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// Result of a completed [`KvOp`].
#[derive(Debug, PartialEq, Eq)]
pub struct KvOpOutput {
    /// Whether the key was found / the write applied.
    pub ok: bool,
    /// Value read (gets only); an arena handle the response takes over.
    pub value: Option<PayloadRef>,
    /// Items returned (scans only).
    pub scan_count: u32,
    /// Response payload bytes (value bytes for get, scan bytes for scan).
    pub payload: usize,
}

impl KvOpOutput {
    pub(crate) fn miss() -> Self {
        KvOpOutput {
            ok: false,
            value: None,
            scan_count: 0,
            payload: 0,
        }
    }

    /// A get served from the cold tier once its device read has landed:
    /// stages `value` into the worker's response buffer at `resp_addr`
    /// like any DRAM get hit.
    pub fn cold_hit(ctx: &mut Ctx<'_>, resp_addr: usize, value: Vec<u8>) -> Self {
        let len = value.len();
        let payload = ctx.machine().payloads.alloc(value.into_boxed_slice());
        ctx.write(resp_addr, len);
        KvOpOutput {
            ok: true,
            value: Some(payload),
            scan_count: 0,
            payload: 0,
        }
    }
}

/// Buffer addresses a [`KvOp`] copies between.
#[derive(Clone, Copy, Debug)]
pub struct OpBuffers {
    /// Receive-buffer slot holding the request (source of put payloads).
    pub recv_addr: usize,
    /// Response-buffer region for this request (destination of get/scan
    /// payloads).
    pub resp_addr: usize,
}

enum OpState {
    GetIndex(IndexGet),
    GetItem(ItemId),
    PutIndex(IndexGet),
    PutItem(ItemId),
    PutAlloc,
    PutInsert(IndexInsert, ItemId),
    DelIndex(IndexRemove),
    Scan(IndexScan),
    /// Malformed request (e.g. a PUT with no payload): completes immediately
    /// as a miss so the client sees a protocol error instead of the server
    /// aborting.
    Failed,
    ScanCopy {
        pairs: Vec<(u64, ItemId)>,
        next: usize,
        copied_payload: usize,
    },
}

/// A resumable, complete KV operation against a [`KvStore`].
pub struct KvOp {
    key: u64,
    /// Put payload (borrowed from the receive slot's parsed request).
    value: Option<Box<[u8]>>,
    /// Keys the CR layer already served for this scan (skip copying).
    scan_skip: Vec<u64>,
    bufs: OpBuffers,
    state: OpState,
    /// Scratch for value reads.
    read_buf: Vec<u8>,
}

impl KvOp {
    /// Starts a get.
    pub fn get(store: &KvStore, key: u64, bufs: OpBuffers) -> Self {
        KvOp {
            key,
            value: None,
            scan_skip: Vec::new(),
            bufs,
            state: OpState::GetIndex(IndexGet::new(&store.index, key)),
            read_buf: Vec::new(),
        }
    }

    /// Starts a put (update-or-insert) of `value`.
    pub fn put(store: &KvStore, key: u64, value: Box<[u8]>, bufs: OpBuffers) -> Self {
        KvOp {
            key,
            value: Some(value),
            scan_skip: Vec::new(),
            bufs,
            state: OpState::PutIndex(IndexGet::new(&store.index, key)),
            read_buf: Vec::new(),
        }
    }

    /// Starts a get that skips index traversal — the CR layer's hot-hit path
    /// (§3.2.3): the cached entry already resolved the item location.
    pub(crate) fn get_cached(key: u64, id: ItemId, bufs: OpBuffers) -> Self {
        KvOp {
            key,
            value: None,
            scan_skip: Vec::new(),
            bufs,
            state: OpState::GetItem(id),
            read_buf: Vec::new(),
        }
    }

    /// Starts a put that skips index traversal (hot-hit path).
    pub(crate) fn put_cached(key: u64, id: ItemId, value: Box<[u8]>, bufs: OpBuffers) -> Self {
        KvOp {
            key,
            value: Some(value),
            scan_skip: Vec::new(),
            bufs,
            state: OpState::PutItem(id),
            read_buf: Vec::new(),
        }
    }

    /// Starts a delete.
    pub fn delete(store: &KvStore, key: u64, bufs: OpBuffers) -> Self {
        KvOp {
            key,
            value: None,
            scan_skip: Vec::new(),
            bufs,
            state: OpState::DelIndex(IndexRemove::new(&store.index, key)),
            read_buf: Vec::new(),
        }
    }

    /// Starts a scan of up to `limit` items from `key`, skipping `skip`
    /// (keys the cache-resident layer already served, §4).
    pub fn scan(store: &KvStore, key: u64, limit: usize, skip: Vec<u64>, bufs: OpBuffers) -> Self {
        KvOp {
            key,
            value: None,
            scan_skip: skip,
            bufs,
            state: OpState::Scan(IndexScan::new(&store.index, key, u64::MAX, limit)),
            read_buf: Vec::new(),
        }
    }

    /// An already-failed operation for malformed requests: its first poll
    /// reports a miss without touching the store.
    pub fn failed(key: u64, bufs: OpBuffers) -> Self {
        KvOp {
            key,
            value: None,
            scan_skip: Vec::new(),
            bufs,
            state: OpState::Failed,
            read_buf: Vec::new(),
        }
    }

    /// Starts the operation descriptor `d` names, for the request in
    /// `ring`'s slot `d.seq`: the one `Op → KvOp` of every server. A put's
    /// payload is *moved* out of the slot's arena handle, never copied — the
    /// slot is left without one, so a second consumption (or a PUT that
    /// arrived with none) is a protocol error: counted, answered
    /// `ok = false`. `skip` is the scan skip list (keys the CR layer already
    /// served, §4); results are staged at `resp_addr`.
    pub fn for_desc(
        ctx: &mut Ctx<'_>,
        store: &KvStore,
        ring: &mut RecvRing,
        d: Desc,
        skip: Vec<u64>,
        resp_addr: usize,
    ) -> Self {
        let bufs = OpBuffers {
            recv_addr: ring.slot_addr(d.seq),
            resp_addr,
        };
        match d.kind {
            OpKind::Get => KvOp::get(store, d.key, bufs),
            OpKind::Put => match ring.take_value(d.seq) {
                Some(v) => KvOp::put(store, d.key, ctx.machine().payloads.take(v), bufs),
                None => {
                    ctx.machine().registry.inc(Counter::ServerMalformedReq);
                    KvOp::failed(d.key, bufs)
                }
            },
            OpKind::Scan => KvOp::scan(store, d.key, d.size as usize, skip, bufs),
            OpKind::Delete => KvOp::delete(store, d.key, bufs),
        }
    }

    /// The response-buffer region this operation stages its payload into.
    pub fn resp_addr(&self) -> usize {
        self.bufs.resp_addr
    }

    /// Advances the operation. Call once per scheduling slot; interleave
    /// other `KvOp`s between `Ready` polls for batched (coroutine) indexing.
    pub fn poll(&mut self, ctx: &mut Ctx<'_>, store: &mut KvStore) -> Step<KvOpOutput> {
        match &mut self.state {
            OpState::GetIndex(fsm) => match fsm.poll(ctx, &store.index) {
                Step::Done(Some(id)) => {
                    // Prefetch the value before the copy stage.
                    ctx.prefetch(store.items.value_addr(id), store.items.value_len(id));
                    self.state = OpState::GetItem(id);
                    Step::Ready
                }
                Step::Done(None) => Step::Done(KvOpOutput::miss()),
                Step::Ready => Step::Ready,
                Step::Blocked => Step::Blocked,
            },
            OpState::GetItem(id) => {
                match store
                    .items
                    .read_into(ctx, *id, self.bufs.resp_addr, &mut self.read_buf)
                {
                    Step::Done(len) => {
                        // The bytes just read into the response buffer become
                        // the response payload: move them into NIC buffer
                        // memory instead of cloning.
                        let bytes = core::mem::take(&mut self.read_buf).into_boxed_slice();
                        Step::Done(KvOpOutput {
                            ok: true,
                            value: Some(ctx.machine().payloads.alloc(bytes)),
                            scan_count: 0,
                            payload: len,
                        })
                    }
                    Step::Ready => Step::Ready,
                    Step::Blocked => Step::Blocked,
                }
            }
            OpState::PutIndex(fsm) => match fsm.poll(ctx, &store.index) {
                Step::Done(Some(id)) => {
                    ctx.prefetch(store.items.value_addr(id), 8);
                    self.state = OpState::PutItem(id);
                    Step::Ready
                }
                Step::Done(None) => {
                    self.state = OpState::PutAlloc;
                    Step::Ready
                }
                Step::Ready => Step::Ready,
                Step::Blocked => Step::Blocked,
            },
            OpState::PutItem(id) => {
                let value = self.value.as_ref().expect("put without payload");
                match store.items.write_from(ctx, *id, self.bufs.recv_addr, value) {
                    Step::Done(()) => Step::Done(KvOpOutput {
                        ok: true,
                        value: None,
                        scan_count: 0,
                        payload: 0,
                    }),
                    Step::Ready => Step::Ready,
                    Step::Blocked => Step::Blocked,
                }
            }
            OpState::PutAlloc => {
                let value = self.value.as_ref().expect("put without payload");
                // Allocate the item and copy the payload from the receive
                // buffer (allocator cost + the copy itself).
                ctx.compute_ns(40);
                ctx.read(self.bufs.recv_addr, value.len());
                let id = store.items.alloc(value);
                ctx.write(store.items.value_addr(id), value.len());
                self.state = OpState::PutInsert(IndexInsert::new(&store.index, self.key, id), id);
                Step::Ready
            }
            OpState::PutInsert(fsm, id) => match fsm.poll(ctx, &mut store.index) {
                Step::Done(Ok(())) => Step::Done(KvOpOutput {
                    ok: true,
                    value: None,
                    scan_count: 0,
                    payload: 0,
                }),
                Step::Done(Err(IndexInsertError::Duplicate(existing))) => {
                    // Lost an insert race: free our item, update the winner.
                    let id = *id;
                    store.items.free(id);
                    ctx.prefetch(store.items.value_addr(existing), 8);
                    self.state = OpState::PutItem(existing);
                    Step::Ready
                }
                Step::Done(Err(IndexInsertError::Full)) => Step::Done(KvOpOutput::miss()),
                Step::Ready => Step::Ready,
                Step::Blocked => Step::Blocked,
            },
            OpState::DelIndex(fsm) => match fsm.poll(ctx, &mut store.index) {
                Step::Done(Some(id)) => {
                    // Deferred reclamation: racing cached reads may still
                    // hold this ItemId (§3.2.2 epoch discipline).
                    store.items.retire(id);
                    Step::Done(KvOpOutput {
                        ok: true,
                        value: None,
                        scan_count: 0,
                        payload: 0,
                    })
                }
                Step::Done(None) => Step::Done(KvOpOutput::miss()),
                Step::Ready => Step::Ready,
                Step::Blocked => Step::Blocked,
            },
            OpState::Failed => Step::Done(KvOpOutput::miss()),
            OpState::Scan(fsm) => match fsm.poll(ctx, &store.index) {
                Step::Done(pairs) => {
                    self.state = OpState::ScanCopy {
                        pairs,
                        next: 0,
                        copied_payload: 0,
                    };
                    Step::Ready
                }
                Step::Ready => Step::Ready,
                Step::Blocked => Step::Blocked,
            },
            OpState::ScanCopy {
                pairs,
                next,
                copied_payload,
            } => {
                // Copy a few items per poll so long scans stay interleaved.
                const PER_POLL: usize = 4;
                let mut copied = 0;
                while *next < pairs.len() && copied < PER_POLL {
                    let (key, id) = pairs[*next];
                    *next += 1;
                    if self.scan_skip.binary_search(&key).is_ok() {
                        continue; // already served by the CR layer
                    }
                    match store.items.read_into(
                        ctx,
                        id,
                        self.bufs.resp_addr + *copied_payload,
                        &mut self.read_buf,
                    ) {
                        Step::Done(len) => {
                            *copied_payload += len;
                            copied += 1;
                        }
                        Step::Ready => {
                            *next -= 1;
                            return Step::Ready;
                        }
                        Step::Blocked => {
                            *next -= 1;
                            return Step::Blocked;
                        }
                    }
                }
                if *next >= pairs.len() {
                    Step::Done(KvOpOutput {
                        ok: true,
                        value: None,
                        scan_count: pairs.len() as u32,
                        payload: *copied_payload,
                    })
                } else {
                    Step::Ready
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Request;
    use utps_sim::time::SimTime;
    use utps_sim::{Engine, MachineConfig, StatClass};
    use utps_workload::Op;

    const BUFS: OpBuffers = OpBuffers {
        recv_addr: 0x10_0000,
        resp_addr: 0x20_0000,
    };

    fn with_store<R: 'static>(
        store: KvStore,
        f: impl FnOnce(&mut Ctx<'_>, &mut KvStore) -> R + 'static,
    ) -> (R, KvStore) {
        Engine::run_once(MachineConfig::tiny(), 1, StatClass::Other, store, f)
    }

    fn drive(ctx: &mut Ctx<'_>, store: &mut KvStore, op: &mut KvOp) -> KvOpOutput {
        loop {
            match op.poll(ctx, store) {
                Step::Done(v) => return v,
                Step::Ready => {}
                Step::Blocked => panic!("unexpected block"),
            }
        }
    }

    fn both_kinds(f: impl Fn(IndexKind) + Copy) {
        f(IndexKind::Hash);
        f(IndexKind::Tree);
    }

    #[test]
    fn get_returns_populated_value() {
        both_kinds(|kind| {
            let store = KvStore::populate(kind, 100, 32);
            let ((), _) = with_store(store, move |ctx, store| {
                let mut op = KvOp::get(store, 42, BUFS);
                let out = drive(ctx, store, &mut op);
                assert!(out.ok);
                assert_eq!(out.payload, 32);
                let v = out.value.expect("get returns a value");
                assert_eq!(&ctx.machine().payloads.take(v)[..], &[0xabu8; 32][..]);
                let mut miss = KvOp::get(store, 10_000, BUFS);
                assert!(!drive(ctx, store, &mut miss).ok);
            });
        });
    }

    #[test]
    fn put_updates_existing() {
        both_kinds(|kind| {
            let store = KvStore::populate(kind, 100, 8);
            let ((), store) = with_store(store, move |ctx, store| {
                // Built the way every server builds it: from a claimed slot.
                let mut ring = RecvRing::new(4, 256);
                let req = Request {
                    client: 0,
                    seq: 1,
                    op: Op::Put {
                        key: 7,
                        value_len: 8,
                    },
                    value: Some(ctx.machine().payloads.alloc(vec![9u8; 8].into())),
                    sent_at: SimTime::ZERO,
                };
                let seq = ring.try_dma(&mut ctx.machine().cache, req).unwrap();
                ring.claim(ctx, seq);
                let d = Desc::of(ring.request(seq), seq);
                let mut op = KvOp::for_desc(ctx, store, &mut ring, d, Vec::new(), BUFS.resp_addr);
                assert!(drive(ctx, store, &mut op).ok);
                assert_eq!(ctx.machine().payloads.live(), 0);
                // The payload was moved out of the slot, so building the op
                // again is the malformed put: counted, failed at its first
                // poll, the store untouched.
                assert_eq!(
                    ctx.machine().registry.counter(Counter::ServerMalformedReq),
                    0
                );
                let mut again =
                    KvOp::for_desc(ctx, store, &mut ring, d, Vec::new(), BUFS.resp_addr);
                assert_eq!(
                    ctx.machine().registry.counter(Counter::ServerMalformedReq),
                    1
                );
                assert!(matches!(again.poll(ctx, store), Step::Done(out) if !out.ok));
            });
            assert_eq!(store.get_native(7), Some(&[9u8; 8][..]));
            assert_eq!(store.len(), 100);
        });
    }

    #[test]
    fn put_inserts_new_key() {
        both_kinds(|kind| {
            let store = KvStore::populate(kind, 100, 8);
            let ((), store) = with_store(store, move |ctx, store| {
                let mut op = KvOp::put(store, 5_000, vec![1u8; 16].into_boxed_slice(), BUFS);
                assert!(drive(ctx, store, &mut op).ok);
            });
            assert_eq!(store.get_native(5_000), Some(&[1u8; 16][..]));
            assert_eq!(store.len(), 101);
        });
    }

    #[test]
    fn delete_removes() {
        both_kinds(|kind| {
            let store = KvStore::populate(kind, 50, 8);
            let ((), store) = with_store(store, move |ctx, store| {
                let mut op = KvOp::delete(store, 10, BUFS);
                assert!(drive(ctx, store, &mut op).ok);
                let mut again = KvOp::delete(store, 10, BUFS);
                assert!(!drive(ctx, store, &mut again).ok);
            });
            assert_eq!(store.get_native(10), None);
            assert_eq!(store.len(), 49);
        });
    }

    #[test]
    fn scan_counts_and_skips() {
        let store = KvStore::populate(IndexKind::Tree, 1_000, 16);
        let ((), _) = with_store(store, |ctx, store| {
            let mut op = KvOp::scan(store, 100, 20, vec![], BUFS);
            let out = drive(ctx, store, &mut op);
            assert_eq!(out.scan_count, 20);
            assert_eq!(out.payload, 20 * 16);
            // Skipped keys count toward scan_count but not payload.
            let mut op = KvOp::scan(store, 100, 20, vec![100, 101, 102], BUFS);
            let out = drive(ctx, store, &mut op);
            assert_eq!(out.scan_count, 20);
            assert_eq!(out.payload, 17 * 16);
        });
    }

    #[test]
    fn value_length_change_supported() {
        let store = KvStore::populate(IndexKind::Hash, 10, 8);
        let ((), store) = with_store(store, |ctx, store| {
            let mut op = KvOp::put(store, 3, vec![5u8; 100].into_boxed_slice(), BUFS);
            assert!(drive(ctx, store, &mut op).ok);
        });
        assert_eq!(store.get_native(3).unwrap().len(), 100);
    }
}
