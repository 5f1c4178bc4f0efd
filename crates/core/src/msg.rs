//! Wire messages between clients and the KVS server.
//!
//! Payload bodies are not carried in the messages themselves: a message
//! holds a [`PayloadRef`] into the machine's [`utps_sim::PayloadArena`]
//! (NIC buffer memory), so bytes are written once at the producer and moved
//! — never copied — into KV storage or back to the client. The handle is
//! linear by type, leak-checked by the run ledger: it is move-only, so
//! neither [`Request`] nor [`Response`] is `Clone` and a message owns its
//! payload until someone moves the handle out.

use utps_sim::time::SimTime;
use utps_sim::{PayloadArena, PayloadRef};
use utps_workload::Op;

use crate::store::KvOpOutput;

/// Request header bytes on the wire (type, key, size, seq, client).
pub(crate) const REQ_HEADER: usize = 24;
/// Response header bytes on the wire.
pub(crate) const RESP_HEADER: usize = 16;

/// Operation discriminator carried in the 16-byte CR-MR descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Point read.
    Get,
    /// Write (update or insert).
    Put,
    /// Range scan.
    Scan,
    /// Delete.
    Delete,
}

impl OpKind {
    /// 2-bit wire code used in the descriptor's type+size word.
    pub fn code(self) -> u8 {
        match self {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::Scan => 2,
            OpKind::Delete => 3,
        }
    }

    /// Inverse of [`OpKind::code`] (only the low 2 bits are inspected).
    pub fn from_code(code: u8) -> OpKind {
        match code & 0b11 {
            0 => OpKind::Get,
            1 => OpKind::Put,
            2 => OpKind::Scan,
            _ => OpKind::Delete,
        }
    }
}

/// A client request.
///
/// Moving a payload handle into a request gives the request sole ownership;
/// using the handle afterwards does not compile:
///
/// ```compile_fail,E0382
/// use utps_core::msg::Request;
/// use utps_sim::{time::SimTime, PayloadArena};
/// use utps_workload::Op;
///
/// let mut arena = PayloadArena::new();
/// let v = arena.alloc(vec![7u8; 8].into_boxed_slice());
/// let req = Request {
///     client: 0,
///     seq: 1,
///     op: Op::Put { key: 5, value_len: 8 },
///     value: Some(v),
///     sent_at: SimTime::ZERO,
/// };
/// arena.free(v); // error[E0382]: use of moved value: `v`
/// ```
#[derive(Debug)]
pub struct Request {
    /// Issuing client endpoint.
    pub client: u32,
    /// Client-local sequence number (latency correlation).
    pub seq: u64,
    /// The operation.
    pub op: Op,
    /// Payload for puts (arena handle; bytes live in NIC buffer memory).
    pub value: Option<PayloadRef>,
    /// Client-side send timestamp.
    pub sent_at: SimTime,
}

impl Request {
    /// Bytes this request occupies on the wire.
    pub fn wire_len(&self) -> usize {
        REQ_HEADER + self.value.as_ref().map_or(0, PayloadRef::len)
    }

    /// The only sanctioned deep copy of a message: fault redelivery, where a
    /// duplicated packet genuinely occupies a second NIC buffer. The header
    /// is copied and the payload, if any, is [`PayloadArena::dup`]ed so the
    /// copy owns its own arena slot.
    pub fn dup(&self, arena: &mut PayloadArena) -> Request {
        Request {
            client: self.client,
            seq: self.seq,
            op: self.op.clone(),
            value: self.value.as_ref().map(|v| arena.dup(v)),
            sent_at: self.sent_at,
        }
    }

    /// The operation kind for the CR-MR descriptor.
    pub fn kind(&self) -> OpKind {
        match self.op {
            Op::Get { .. } => OpKind::Get,
            Op::Put { .. } => OpKind::Put,
            Op::Scan { .. } => OpKind::Scan,
            Op::Delete { .. } => OpKind::Delete,
        }
    }
}

/// A server response.
#[derive(Debug)]
pub struct Response {
    /// Destination client endpoint.
    pub client: u32,
    /// Echoed request sequence number.
    pub seq: u64,
    /// Whether the key was found / the write applied.
    pub ok: bool,
    /// Cluster mode only: the addressed shard no longer owns this key (it
    /// is frozen or was migrated). The client must re-route the request —
    /// same client sequence number — to the current owner. A header bit on
    /// the wire; always `false` outside cluster runs.
    pub moved: bool,
    /// Returned value (gets) or values (scans, concatenated logically);
    /// arena handle, freed by the client at receipt.
    pub value: Option<PayloadRef>,
    /// Number of items returned (scans).
    pub scan_count: u32,
    /// Extra payload bytes on the wire not carried in `value`
    /// (scan results are charged but not materialized in the message).
    pub payload_extra: usize,
    /// Server-internal: the response-buffer address the RNIC DMA-reads the
    /// payload from (the buffer of whichever worker produced the response —
    /// §3.3: the MR layer's own buffer for forwarded requests). Not on the
    /// wire.
    pub resp_addr: usize,
    /// Original client send timestamp (echoed for latency measurement).
    pub sent_at: SimTime,
}

impl Response {
    /// The header-only answer to `req` (`ok = false`, no payload), to be
    /// DMA-read from `resp_addr`: what a bounce or a suppressed duplicate
    /// sends, and what [`Response::reply`] fills in.
    pub fn header(req: &Request, resp_addr: usize) -> Response {
        Response {
            client: req.client,
            seq: req.seq,
            ok: false,
            moved: false,
            value: None,
            scan_count: 0,
            payload_extra: 0,
            resp_addr,
            sent_at: req.sent_at,
        }
    }

    /// The answer to `req` carrying a finished op's result. A get's bytes
    /// travel as the `value` handle; a scan's are charged on the wire only.
    pub fn reply(req: &Request, out: KvOpOutput, resp_addr: usize) -> Response {
        let mut resp = Response::header(req, resp_addr);
        resp.ok = out.ok;
        resp.scan_count = out.scan_count;
        if matches!(req.op, Op::Get { .. }) {
            resp.value = out.value;
        } else {
            resp.payload_extra = out.payload;
        }
        resp
    }

    /// Bytes this response occupies on the wire.
    pub fn wire_len(&self) -> usize {
        RESP_HEADER + self.value.as_ref().map_or(0, PayloadRef::len) + self.payload_extra
    }
}

/// Any message on the fabric.
#[derive(Debug)]
pub enum NetMsg {
    /// Client → server.
    Req(Request),
    /// Server → client.
    Resp(Response),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_lengths() {
        let mut arena = utps_sim::PayloadArena::new();
        let get = Request {
            client: 0,
            seq: 1,
            op: Op::Get { key: 5 },
            value: None,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(get.wire_len(), REQ_HEADER);
        assert_eq!(get.kind(), OpKind::Get);
        let put = Request {
            client: 0,
            seq: 2,
            op: Op::Put {
                key: 5,
                value_len: 100,
            },
            value: Some(arena.alloc(vec![7u8; 100].into_boxed_slice())),
            sent_at: SimTime::ZERO,
        };
        assert_eq!(put.wire_len(), REQ_HEADER + 100);
        assert_eq!(put.kind(), OpKind::Put);
        let resp = Response {
            client: 0,
            seq: 2,
            ok: true,
            moved: false,
            value: Some(arena.alloc(vec![1u8; 64].into_boxed_slice())),
            scan_count: 0,
            payload_extra: 0,
            resp_addr: 0,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(resp.wire_len(), RESP_HEADER + 64);
    }

    #[test]
    fn scan_kind() {
        let scan = Request {
            client: 1,
            seq: 3,
            op: Op::Scan { key: 10, count: 50 },
            value: None,
            sent_at: SimTime::ZERO,
        };
        assert_eq!(scan.kind(), OpKind::Scan);
    }
}
