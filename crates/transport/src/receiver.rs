//! The TCP receiver: reassembles the byte stream and generates cumulative
//! ACKs.
//!
//! Every arriving data segment triggers an immediate ACK (no delayed ACKs),
//! so out-of-order arrivals produce the duplicate ACKs the sender's fast
//! retransmit relies on. Out-of-order data is buffered as ranges and the
//! cumulative ACK jumps forward once holes fill.

use crate::quic::range_insert;
use netsim::{FlowId, NodeId, Packet, Payload, SimTime};

/// Reassembly and ACK generation for one TCP flow.
#[derive(Debug)]
pub struct TcpReceiver {
    /// This host (ACK source).
    local: NodeId,
    /// The sender (ACK destination).
    remote: NodeId,
    flow: FlowId,
    /// All bytes below this offset have been received contiguously.
    rcv_nxt: u64,
    /// Buffered out-of-order ranges, disjoint, sorted by start.
    ooo: Vec<(u64, u64)>,
    /// Total payload bytes received (including duplicates).
    pub bytes_received: u64,
    /// Payload bytes received that were duplicates of already-held data.
    pub duplicate_bytes: u64,
}

impl TcpReceiver {
    /// Create a receiver at `local` for data sent by `remote` on `flow`.
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId) -> Self {
        TcpReceiver {
            local,
            remote,
            flow,
            rcv_nxt: 0,
            ooo: Vec::new(),
            bytes_received: 0,
            duplicate_bytes: 0,
        }
    }

    /// The flow id this receiver listens on.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Contiguously received prefix length — the application-visible byte
    /// count.
    pub fn contiguous_bytes(&self) -> u64 {
        self.rcv_nxt
    }

    /// Handle an arriving data segment, producing an ACK to send back.
    ///
    /// `None` is returned for packets that are not data segments of this
    /// flow (caller bugs surface as dropped packets, not corruption).
    pub fn on_data(&mut self, _now: SimTime, pkt: &Packet) -> Option<Packet> {
        let Payload::Data {
            offset, len, round, ..
        } = pkt.payload
        else {
            return None;
        };
        if pkt.flow != self.flow {
            return None;
        }
        let end = offset + len as u64;
        self.bytes_received += len as u64;

        if end <= self.rcv_nxt {
            self.duplicate_bytes += len as u64;
        } else {
            let start = offset.max(self.rcv_nxt);
            let newly_covered = range_insert(&mut self.ooo, start, end);
            self.duplicate_bytes += (end - start) - newly_covered;
            self.advance();
        }

        Some(Packet::new(
            self.local,
            self.remote,
            self.flow,
            Payload::Ack {
                cum_ack: self.rcv_nxt,
                echo_ts: pkt.sent_at,
                round,
            },
        ))
    }

    fn advance(&mut self) {
        while let Some(&(s, e)) = self.ooo.first() {
            if s <= self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ooo.remove(0);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_pkt(flow: u64, offset: u64, len: u32, sent_at: SimTime) -> Packet {
        let mut p = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(flow),
            Payload::Data {
                offset,
                len,
                retx: false,
                round: 7,
            },
        );
        p.sent_at = sent_at;
        p
    }

    fn cum(ack: &Packet) -> u64 {
        match ack.payload {
            Payload::Ack { cum_ack, .. } => cum_ack,
            _ => panic!("not an ack"),
        }
    }

    #[test]
    fn in_order_acks_advance() {
        let mut r = TcpReceiver::new(NodeId(1), NodeId(0), FlowId(3));
        let a1 = r
            .on_data(SimTime::ZERO, &data_pkt(3, 0, 1000, SimTime::ZERO))
            .unwrap();
        assert_eq!(cum(&a1), 1000);
        let a2 = r
            .on_data(SimTime::ZERO, &data_pkt(3, 1000, 500, SimTime::ZERO))
            .unwrap();
        assert_eq!(cum(&a2), 1500);
        assert_eq!(r.contiguous_bytes(), 1500);
    }

    #[test]
    fn out_of_order_produces_dupacks_then_jump() {
        let mut r = TcpReceiver::new(NodeId(1), NodeId(0), FlowId(3));
        // Segment 0 lost; 1, 2, 3 arrive.
        for i in 1..4u64 {
            let a = r
                .on_data(SimTime::ZERO, &data_pkt(3, i * 1000, 1000, SimTime::ZERO))
                .unwrap();
            assert_eq!(cum(&a), 0, "holes must hold the cumulative ack");
        }
        // Retransmission of segment 0 fills the hole: cum jumps to 4000.
        let a = r
            .on_data(SimTime::ZERO, &data_pkt(3, 0, 1000, SimTime::ZERO))
            .unwrap();
        assert_eq!(cum(&a), 4000);
        assert!(r.ooo.is_empty());
    }

    #[test]
    fn ack_echoes_send_timestamp() {
        let mut r = TcpReceiver::new(NodeId(1), NodeId(0), FlowId(3));
        let ts = SimTime::from_millis(123);
        let a = r
            .on_data(SimTime::from_millis(130), &data_pkt(3, 0, 100, ts))
            .unwrap();
        match a.payload {
            Payload::Ack { echo_ts, round, .. } => {
                assert_eq!(echo_ts, ts);
                assert_eq!(round, 7);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn duplicate_data_counted() {
        let mut r = TcpReceiver::new(NodeId(1), NodeId(0), FlowId(3));
        r.on_data(SimTime::ZERO, &data_pkt(3, 0, 1000, SimTime::ZERO));
        r.on_data(SimTime::ZERO, &data_pkt(3, 0, 1000, SimTime::ZERO));
        assert_eq!(r.duplicate_bytes, 1000);
        assert_eq!(r.bytes_received, 2000);
        assert_eq!(r.contiguous_bytes(), 1000);
    }

    #[test]
    fn overlapping_ranges_merge() {
        let mut r = TcpReceiver::new(NodeId(1), NodeId(0), FlowId(3));
        r.on_data(SimTime::ZERO, &data_pkt(3, 2000, 1000, SimTime::ZERO));
        r.on_data(SimTime::ZERO, &data_pkt(3, 2500, 1000, SimTime::ZERO));
        r.on_data(SimTime::ZERO, &data_pkt(3, 4000, 500, SimTime::ZERO));
        assert_eq!(r.ooo, vec![(2000, 3500), (4000, 4500)]);
        // Fill the first hole.
        let a = r
            .on_data(SimTime::ZERO, &data_pkt(3, 0, 2000, SimTime::ZERO))
            .unwrap();
        assert_eq!(cum(&a), 3500);
    }

    #[test]
    fn wrong_flow_ignored() {
        let mut r = TcpReceiver::new(NodeId(1), NodeId(0), FlowId(3));
        assert!(r
            .on_data(SimTime::ZERO, &data_pkt(4, 0, 100, SimTime::ZERO))
            .is_none());
        assert_eq!(r.bytes_received, 0);
    }
}
