//! Packets and their payloads.
//!
//! The simulator moves [`Packet`]s between nodes. A packet carries routing
//! metadata (source, destination, flow) plus a [`Payload`] describing what the
//! packet means to the protocol handling it. Payload variants are kept
//! semantically neutral so that transport protocols, application messages, and
//! probe traffic can all share the one wire format without dynamic dispatch.

use crate::time::SimTime;
use crate::units::HEADER_BYTES;
use serde::{Deserialize, Serialize};

/// Identifies a node (host or router) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Identifies a unidirectional link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// Identifies a flow (a transport connection or datagram stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// A transport data segment covering bytes `[offset, offset + len)` of
    /// its flow. `retx` marks retransmissions; `round` is an opaque
    /// sender-side epoch (used by congestion control to detect stale ACKs).
    Data {
        /// First byte of the segment within the flow's byte stream.
        offset: u64,
        /// Payload length in bytes.
        len: u32,
        /// True if this segment is a retransmission.
        retx: bool,
        /// Sender epoch, echoed back in ACKs.
        round: u64,
    },
    /// A cumulative acknowledgment.
    Ack {
        /// All bytes below this offset have been received.
        cum_ack: u64,
        /// Send timestamp of the segment that triggered this ACK, echoed
        /// back for RTT measurement.
        echo_ts: SimTime,
        /// Sender epoch echoed from the ACKed segment.
        round: u64,
    },
    /// A standalone datagram (UDP-style), used by probe flows.
    Datagram {
        /// Sequence number assigned by the sender.
        seq: u64,
    },
    /// An application-level request, e.g. an HTTP GET for a video chunk.
    Request {
        /// Request identifier, echoed in the response stream.
        id: u64,
        /// Number of response bytes requested.
        size: u64,
        /// Requested server pace rate in bits/sec (application-informed
        /// pacing header; `None` leaves the server unpaced).
        pace_bps: Option<f64>,
    },
    /// A QUIC-style stream frame: one packet number carrying bytes
    /// `[offset, offset + len)` of stream `stream` within its connection
    /// (flow). Packet numbers are monotonic and never reused — a
    /// retransmission of the same stream bytes gets a fresh `pkt_num`.
    QuicData {
        /// Monotonic connection-level packet number.
        pkt_num: u64,
        /// Stream the frame belongs to.
        stream: u64,
        /// First byte of the frame within the stream.
        offset: u64,
        /// Frame length in bytes.
        len: u32,
        /// True if this frame is the last of its stream.
        fin: bool,
        /// True if the frame re-sends previously transmitted stream bytes.
        retx: bool,
    },
    /// A QUIC-style acknowledgment: the largest packet number received
    /// plus up to three ACK ranges, and the connection-level flow-control
    /// credit.
    QuicAck {
        /// Largest packet number received so far.
        largest: u64,
        /// Send timestamp of the packet that triggered this ACK, echoed
        /// back for RTT measurement.
        echo_ts: SimTime,
        /// Up to three received packet-number ranges `[start, end)`, in
        /// descending order; `(0, 0)` marks unused slots. The first range
        /// contains `largest`.
        ranges: [(u64, u64); 3],
        /// Connection flow control: the sender may have at most this many
        /// cumulative stream bytes outstanding.
        max_data: u64,
    },
    /// An opaque control message. `tag` selects the meaning; `a`/`b` are
    /// protocol-defined operands.
    Control {
        /// Message kind discriminator (protocol-defined).
        tag: u64,
        /// First operand.
        a: u64,
        /// Second operand.
        b: u64,
    },
}

impl Payload {
    /// Payload bytes on the wire (excluding header overhead).
    fn wire_bytes(&self) -> u64 {
        match *self {
            Payload::Data { len, .. } => len as u64,
            Payload::Ack { .. } => 0,
            Payload::QuicData { len, .. } => len as u64,
            Payload::QuicAck { .. } => 0,
            Payload::Datagram { .. } => 0,
            Payload::Request { .. } => 0,
            Payload::Control { .. } => 0,
        }
    }
}

/// A packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Destination node. The engine routes hop-by-hop toward this node.
    pub dst: NodeId,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Total size on the wire in bytes (headers + payload).
    pub size: u64,
    /// Time the packet was handed to the first link.
    pub sent_at: SimTime,
    /// Protocol payload.
    pub payload: Payload,
}

impl Packet {
    /// Build a packet, deriving the wire size from the payload plus header
    /// overhead. Probe datagrams that want a specific size should override
    /// [`Packet::size`] afterwards or use [`Packet::with_size`].
    pub fn new(src: NodeId, dst: NodeId, flow: FlowId, payload: Payload) -> Self {
        Packet {
            src,
            dst,
            flow,
            size: HEADER_BYTES + payload.wire_bytes(),
            sent_at: SimTime::ZERO,
            payload,
        }
    }

    /// Override the wire size (e.g. a 1200-byte UDP probe).
    pub fn with_size(mut self, size: u64) -> Self {
        debug_assert!(size >= HEADER_BYTES, "packet smaller than its header");
        self.size = size;
        self
    }
}

/// Index of a live packet in the [`PacketStore`].
///
/// Ids are dense and recycled: when a packet leaves the simulation its id
/// goes onto a free list and the next interned packet reuses it. An id is
/// only meaningful while the packet is live; queues and links treat it as
/// an opaque token and never dereference it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u32);

/// The hot-path view of a packet: the dense store id plus the two fields
/// every queueing discipline and link actually reads (wire size and flow).
///
/// This is what moves through [`Queue`](crate::queue::Queue)s, links, and
/// the event loop — 24 bytes; the full [`Packet`] stays in the
/// [`PacketStore`] until the packet is delivered or dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef {
    /// Dense store id (opaque to queues; resolved only by the engine).
    pub id: PacketId,
    /// Total size on the wire in bytes (headers + payload).
    pub size: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
}

/// Storage for in-flight packets.
///
/// The engine interns each injected [`Packet`] into one `Vec` keyed by a
/// dense [`PacketId`]; the hot loop itself moves 24-byte [`PacketRef`]s and
/// comes back to the row for the destination at each hop and for the whole
/// packet at final delivery. Freed ids are recycled LIFO, so id assignment
/// is fully deterministic.
#[derive(Debug, Default)]
pub struct PacketStore {
    /// Packets, indexed by id.
    rows: Vec<Packet>,
    /// LIFO free list of recycled ids.
    free: Vec<u32>,
    /// Number of live (allocated, not yet freed) packets.
    live: usize,
    /// Liveness bitmap guarding double-alloc/double-free (validate builds).
    #[cfg(feature = "validate")]
    occupied: Vec<bool>,
}

impl PacketStore {
    /// An empty store.
    pub fn new() -> Self {
        PacketStore::default()
    }

    /// Intern `pkt`, returning the hot-path handle. The id is recycled from
    /// the free list when possible, so long-running simulations stay within
    /// a small dense id range.
    #[inline(always)]
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        let id = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                #[cfg(feature = "validate")]
                crate::invariant!(
                    "packet-store",
                    !self.occupied[i],
                    "double allocation of packet id {slot}"
                );
                self.rows[i] = pkt;
                slot
            }
            None => {
                let slot = u32::try_from(self.rows.len()).expect("packet store overflow");
                self.rows.push(pkt);
                #[cfg(feature = "validate")]
                self.occupied.push(false);
                slot
            }
        };
        #[cfg(feature = "validate")]
        {
            self.occupied[id as usize] = true;
        }
        self.live += 1;
        PacketRef {
            id: PacketId(id),
            size: pkt.size,
            flow: pkt.flow,
        }
    }

    /// Copy the [`Packet`] out and free the id.
    #[inline]
    pub fn take(&mut self, id: PacketId) -> Packet {
        let pkt = self.rows[id.0 as usize];
        self.discard(id);
        pkt
    }

    /// Free the id without reading the packet (drop paths).
    #[inline]
    pub fn discard(&mut self, id: PacketId) {
        #[cfg(feature = "validate")]
        {
            let i = id.0 as usize;
            crate::invariant!(
                "packet-store",
                self.occupied[i],
                "double free of packet id {}",
                id.0
            );
            self.occupied[i] = false;
        }
        self.live -= 1;
        self.free.push(id.0);
    }

    /// Rebuild the hot-path handle for a live id.
    #[inline]
    pub fn make_ref(&self, id: PacketId) -> PacketRef {
        let pkt = &self.rows[id.0 as usize];
        PacketRef {
            id,
            size: pkt.size,
            flow: pkt.flow,
        }
    }

    /// Destination of a live packet (the one hot routing lookup).
    #[inline]
    pub fn dst(&self, id: PacketId) -> NodeId {
        self.rows[id.0 as usize].dst
    }

    /// Number of live packets currently interned.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live + recycled). Diagnostic.
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Test-only: free an id twice to trip the validate-mode liveness
    /// invariant (used by the mutant harness).
    #[cfg(feature = "validate")]
    pub fn mutant_double_free(&mut self, id: PacketId) {
        self.discard(id);
        self.discard(id);
    }

    /// Test-only: re-free the most recently recycled id, as a buggy dealloc
    /// path would. Must trip the `packet-store` liveness invariant.
    ///
    /// # Panics
    /// Panics (as intended) via the invariant; also panics if no id has
    /// ever cycled through the free list.
    #[cfg(feature = "validate")]
    pub fn mutant_double_free_recycled(&mut self) {
        let slot = *self
            .free
            .last()
            .expect("store mutant needs prior packet traffic");
        self.discard(PacketId(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_size_includes_header() {
        let p = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(7),
            Payload::Data {
                offset: 0,
                len: 1460,
                retx: false,
                round: 0,
            },
        );
        assert_eq!(p.size, 1500);
    }

    #[test]
    fn ack_is_header_only() {
        let p = Packet::new(
            NodeId(1),
            NodeId(0),
            FlowId(7),
            Payload::Ack {
                cum_ack: 1460,
                echo_ts: SimTime::ZERO,
                round: 0,
            },
        );
        assert_eq!(p.size, HEADER_BYTES);
    }

    #[test]
    fn with_size_override() {
        let p = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            Payload::Datagram { seq: 3 },
        )
        .with_size(1200);
        assert_eq!(p.size, 1200);
    }

    fn dgram(seq: u64, size: u64) -> Packet {
        Packet::new(NodeId(2), NodeId(5), FlowId(seq), Payload::Datagram { seq }).with_size(size)
    }

    #[test]
    fn store_insert_take_round_trips() {
        let mut store = PacketStore::new();
        let p = dgram(9, 777);
        let r = store.insert(p);
        assert_eq!(r.size, 777);
        assert_eq!(r.flow, FlowId(9));
        assert_eq!(store.live(), 1);
        assert_eq!(store.dst(r.id), NodeId(5));
        assert_eq!(store.make_ref(r.id), r);
        let back = store.take(r.id);
        assert_eq!(back, p);
        assert_eq!(store.live(), 0);
    }

    #[test]
    fn store_recycles_ids_lifo() {
        let mut store = PacketStore::new();
        let a = store.insert(dgram(0, 100));
        let b = store.insert(dgram(1, 200));
        let c = store.insert(dgram(2, 300));
        assert_eq!((a.id, b.id, c.id), (PacketId(0), PacketId(1), PacketId(2)));
        assert_eq!(store.slots(), 3);
        store.discard(b.id);
        store.discard(a.id);
        // LIFO: the most recently freed id comes back first, and no new
        // slots are allocated while the free list can serve.
        let d = store.insert(dgram(3, 400));
        assert_eq!(d.id, a.id);
        let e = store.insert(dgram(4, 500));
        assert_eq!(e.id, b.id);
        assert_eq!(store.slots(), 3);
        assert_eq!(store.live(), 3);
        // Recycled slots carry the new packet, not the old one.
        assert_eq!(store.make_ref(d.id).size, 400);
        assert_eq!(store.take(e.id).payload, Payload::Datagram { seq: 4 });
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(32))]

        /// The store must behave like a plain id->packet map: every live
        /// handle resolves to exactly the packet inserted under it, across
        /// arbitrary insert/discard/take interleavings, while ids stay
        /// dense (slot count never exceeds the high-water live count).
        #[test]
        fn store_matches_map_model(
            ops in proptest::collection::vec((0u8..3, 64u64..1500), 1..200usize)
        ) {
            let mut store = PacketStore::new();
            let mut model: std::collections::HashMap<u32, Packet> =
                std::collections::HashMap::new();
            let mut live_ids: Vec<PacketId> = Vec::new();
            let mut high_water = 0usize;
            for (n, &(kind, size)) in ops.iter().enumerate() {
                match kind {
                    0 => {
                        let p = dgram(n as u64, size);
                        let r = store.insert(p);
                        proptest::prop_assert!(!model.contains_key(&r.id.0));
                        model.insert(r.id.0, p);
                        live_ids.push(r.id);
                        high_water = high_water.max(model.len());
                    }
                    1 if !live_ids.is_empty() => {
                        let id = live_ids.swap_remove(n % live_ids.len());
                        let got = store.take(id);
                        let want = model.remove(&id.0).unwrap();
                        proptest::prop_assert_eq!(got, want);
                    }
                    2 if !live_ids.is_empty() => {
                        let id = live_ids.swap_remove(n % live_ids.len());
                        store.discard(id);
                        model.remove(&id.0);
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(store.live(), model.len());
                proptest::prop_assert!(store.slots() <= high_water);
                for id in &live_ids {
                    let r = store.make_ref(*id);
                    let want = &model[&id.0];
                    proptest::prop_assert_eq!(r.size, want.size);
                    proptest::prop_assert_eq!(r.flow, want.flow);
                    proptest::prop_assert_eq!(store.dst(*id), want.dst);
                }
            }
        }
    }
}
