//! A QUIC-style transport: stream multiplexing over one connection.
//!
//! [`QuicWire`] (the sender's protocol half) and [`QuicReceiver`] implement
//! the transport properties that distinguish QUIC from the TCP model in
//! [`crate::sender`]:
//!
//! - **Stream multiplexing.** Each application transfer is its own stream;
//!   streams share one connection, one congestion controller, and one
//!   pacer.
//! - **Monotonic packet numbers + ACK ranges.** Packets are never
//!   retransmitted under the same number; the receiver acknowledges
//!   received *packet-number ranges*, so the sender knows exactly which
//!   frames arrived.
//! - **Selective retransmission, no head-of-line blocking.** A lost packet
//!   only re-queues its own stream bytes; other streams keep completing,
//!   and there is no go-back-N.
//! - **Connection-level flow control.** The receiver advertises `max_data`
//!   (delivered bytes + window); the sender never has more cumulative
//!   stream bytes outstanding than that credit.
//! - **Loss detection.** Packet-threshold reordering detection (3 packets,
//!   RFC 9002-style) plus a probe timeout (PTO).
//!
//! Pacing, the congestion controller, timer backoff, idle restart and
//! telemetry are not here: [`QuicSender`] runs this wire half under the
//! same [`SenderCore`] as TCP, so the Sammy-vs-baseline A/B can vary
//! transport and congestion control independently.

use crate::core::{CompletedTransfer, Frame, Sender, SenderCore, TcpConfig, Wire};
use netsim::{FlowId, NodeId, Packet, Payload, Rate, SimTime, MSS_BYTES};
use std::collections::VecDeque;

/// QUIC-style sender: streams over one congestion-controlled, paced
/// connection.
pub type QuicSender = Sender<QuicWire>;

/// Reordering threshold before a packet is declared lost (RFC 9002 §6.1.1).
const PACKET_THRESHOLD: u64 = 3;
/// Connection flow-control credit assumed before the first ACK arrives
/// (stands in for QUIC's `initial_max_data` transport parameter).
const INITIAL_MAX_DATA: u64 = 8 << 20;
/// Flow-control window the receiver keeps open beyond delivered bytes.
const FLOW_WINDOW: u64 = 8 << 20;
/// ACK ranges carried per ACK packet (the wire format holds three).
const ACK_RANGES: usize = 3;
/// Received packet-number ranges remembered by the receiver. Older ranges
/// beyond this are forgotten (they are covered by retransmitted data).
const MAX_TRACKED_RANGES: usize = 8;

/// Insert `[start, end)` into a sorted, disjoint range set. Returns the
/// number of bytes newly covered (not previously in the set).
pub(crate) fn range_insert(set: &mut Vec<(u64, u64)>, start: u64, end: u64) -> u64 {
    if start >= end {
        return 0;
    }
    let mut new_start = start;
    let mut new_end = end;
    let mut overlap = 0u64;
    let mut merged = Vec::with_capacity(set.len() + 1);
    let mut placed = false;
    for &(s, e) in set.iter() {
        if e < new_start {
            merged.push((s, e));
        } else if s > new_end {
            if !placed {
                merged.push((new_start, new_end));
                placed = true;
            }
            merged.push((s, e));
        } else {
            overlap += e.min(new_end).saturating_sub(s.max(new_start));
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
    }
    if !placed {
        merged.push((new_start, new_end));
    }
    *set = merged;
    (end - start) - overlap
}

/// Subtract a sorted, disjoint range set from `[start, end)`, yielding the
/// sub-ranges not covered by the set, in order.
fn range_subtract(
    set: &[(u64, u64)],
    start: u64,
    end: u64,
) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut cursor = start;
    let mut covered = set.iter().skip_while(move |&&(_, e)| e <= start);
    std::iter::from_fn(move || {
        while cursor < end {
            let gap_start = cursor;
            match covered.next() {
                Some(&(s, e)) if s < end => {
                    cursor = cursor.max(e);
                    if s > gap_start {
                        return Some((gap_start, s));
                    }
                }
                _ => {
                    cursor = end;
                    return Some((gap_start, end));
                }
            }
        }
        None
    })
}

/// Bookkeeping for one sent (not yet fully resolved) packet.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    pkt_num: u64,
    stream: u64,
    offset: u64,
    len: u32,
    acked: bool,
    lost: bool,
}

/// Sender-side stream state: one application transfer.
#[derive(Debug)]
struct SendStream {
    id: u64,
    len: u64,
    /// Next fresh byte to send.
    sent: u64,
    /// Stream bytes acknowledged, as a sorted disjoint range set.
    acked: Vec<(u64, u64)>,
    acked_bytes: u64,
    /// Stream ranges queued for retransmission, sorted and disjoint.
    retx: Vec<(u64, u64)>,
    pace: Option<Rate>,
    queued_at: SimTime,
    started_at: Option<SimTime>,
    /// `retx-queue-conservation` ledger: bytes declared lost, minus those
    /// `commit` has since retransmitted or found acknowledged. Must equal
    /// what `retx` holds — bytes leave the queue no other way.
    #[cfg(feature = "validate")]
    retx_owed: u64,
}

impl SendStream {
    /// The first queued retransmission range still unacknowledged. Anything
    /// acknowledged since the loss was declared is skipped (a spurious
    /// retransmission wastes the bottleneck) — but only `take_retx`, after
    /// the gate opened, removes it from the queue.
    fn peek_retx(&self) -> Option<(u64, u64)> {
        self.retx
            .iter()
            .find_map(|&(start, end)| range_subtract(&self.acked, start, end).next())
    }

    /// Remove everything below `upto` from the retransmission queue;
    /// returns the bytes removed.
    fn take_retx(&mut self, upto: u64) -> u64 {
        let mut removed = 0;
        while let Some(head) = self.retx.first_mut() {
            removed += head.1.min(upto).saturating_sub(head.0);
            if head.1 > upto {
                head.0 = head.0.max(upto);
                break;
            }
            self.retx.remove(0);
        }
        removed
    }
}

/// QUIC protocol state: packet numbers, per-stream send/ack/retransmit
/// range sets, and connection flow control.
#[derive(Debug)]
pub struct QuicWire {
    next_pkt_num: u64,
    largest_acked: Option<u64>,
    /// Sent packets not yet resolved (acked or lost), ordered by pkt_num.
    sent: VecDeque<SentPacket>,
    bytes_in_flight: u64,

    streams: Vec<SendStream>,
    next_stream_id: u64,

    /// Cumulative fresh stream bytes sent (flow-control consumption).
    conn_sent: u64,
    /// Receiver-advertised connection flow-control credit.
    peer_max_data: u64,

    /// Loss events within one recovery epoch count once: the epoch ends
    /// when a packet numbered at/after this is acknowledged.
    recovery_end: Option<u64>,
}

impl Wire for QuicWire {
    const SANITY_TAG: &'static str = "quic-sender-sanity";

    fn new(_cfg: &TcpConfig) -> Self {
        QuicWire {
            next_pkt_num: 0,
            largest_acked: None,
            sent: VecDeque::new(),
            bytes_in_flight: 0,
            streams: Vec::new(),
            next_stream_id: 0,
            conn_sent: 0,
            peer_max_data: INITIAL_MAX_DATA,
            recovery_end: None,
        }
    }

    /// Open a new stream; its id doubles as the transfer id in completion
    /// reports.
    fn start_transfer(&mut self, now: SimTime, bytes: u64, pace: Option<Rate>) -> u64 {
        let id = self.next_stream_id;
        self.next_stream_id += 1;
        self.streams.push(SendStream {
            id,
            len: bytes,
            sent: 0,
            acked: Vec::new(),
            acked_bytes: 0,
            retx: Vec::new(),
            pace,
            queued_at: now,
            started_at: None,
            #[cfg(feature = "validate")]
            retx_owed: 0,
        });
        id
    }

    fn set_pace(&mut self, id: u64, pace: Option<Rate>) -> bool {
        self.streams
            .iter_mut()
            .find(|s| s.id == id)
            .is_some_and(|s| {
                s.pace = pace;
                s.sent > 0
            })
    }

    fn is_idle(&self) -> bool {
        self.streams.is_empty()
    }

    fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// Retransmissions first (oldest stream first), then fresh data in
    /// stream-open order, subject to cwnd and connection flow control.
    fn peek(&self, cwnd: u64) -> Option<Frame> {
        // Retransmissions bypass the window (they replace bytes that left
        // the flight count), exactly as TCP's recovery retransmit does.
        for (stream, s) in self.streams.iter().enumerate() {
            if let Some((start, end)) = s.peek_retx() {
                return Some(Frame {
                    stream,
                    offset: start,
                    len: (end - start).min(MSS_BYTES),
                    retx: true,
                });
            }
        }
        let budget = self.peer_max_data.saturating_sub(self.conn_sent);
        if self.bytes_in_flight >= cwnd || budget == 0 {
            return None;
        }
        let (stream, s) = self
            .streams
            .iter()
            .enumerate()
            .find(|(_, s)| s.sent < s.len)?;
        Some(Frame {
            stream,
            offset: s.sent,
            len: (s.len - s.sent).min(MSS_BYTES).min(budget),
            retx: false,
        })
    }

    fn commit(&mut self, now: SimTime, frame: &Frame) -> Payload {
        let pkt_num = self.next_pkt_num;
        self.next_pkt_num += 1;
        let s = &mut self.streams[frame.stream];
        s.started_at.get_or_insert(now);
        if frame.retx {
            let _removed = s.take_retx(frame.offset + frame.len);
            #[cfg(feature = "validate")]
            {
                s.retx_owed -= _removed;
            }
        } else {
            debug_assert_eq!(frame.offset, s.sent);
            s.sent += frame.len;
            self.conn_sent += frame.len;
        }
        self.sent.push_back(SentPacket {
            pkt_num,
            stream: s.id,
            offset: frame.offset,
            len: frame.len as u32,
            acked: false,
            lost: false,
        });
        self.bytes_in_flight += frame.len;
        Payload::QuicData {
            pkt_num,
            stream: s.id,
            offset: frame.offset,
            len: frame.len as u32,
            fin: frame.offset + frame.len == s.len,
            retx: frame.retx,
        }
    }

    fn pace_of(&self, frame: &Frame) -> Option<Rate> {
        self.streams[frame.stream].pace
    }

    /// Unsent data held back by flow control is *not* app-limited; only
    /// "every open stream is fully sent, nothing queued to resend" is.
    fn app_limited(&self, cwnd: u64) -> bool {
        self.bytes_in_flight < cwnd
            && !self.streams.is_empty()
            && self
                .streams
                .iter()
                .all(|s| s.sent >= s.len && s.retx.is_empty())
    }

    /// Probe timeout: declare the oldest outstanding packet lost; its
    /// bytes go out again as the probe.
    fn on_timeout(&mut self) {
        if let Some(i) = self.sent.iter().position(|sp| !sp.acked && !sp.lost) {
            self.declare_lost(i);
        }
        self.recovery_end = Some(self.next_pkt_num);
    }

    /// Process an ACK: credit newly acknowledged packets, detect losses by
    /// packet threshold, and report progress, losses and completions to
    /// the core.
    fn on_ack(&mut self, core: &mut SenderCore, now: SimTime, payload: &Payload) -> bool {
        let Payload::QuicAck {
            largest,
            echo_ts,
            ranges,
            max_data,
        } = *payload
        else {
            return false;
        };
        self.peer_max_data = self.peer_max_data.max(max_data);
        let was_in_recovery = self.recovery_end.is_some();

        let acked_range = |pn: u64| ranges.iter().any(|&(s, e)| s < e && pn >= s && pn < e);

        // Pass 1: credit newly acknowledged packets.
        let mut newly_acked = 0u64;
        let mut progressed = false;
        for i in 0..self.sent.len() {
            let sp = self.sent[i];
            if sp.acked || sp.pkt_num > largest || !acked_range(sp.pkt_num) {
                continue;
            }
            self.sent[i].acked = true;
            progressed = true;
            if !sp.lost {
                // Lost packets already left the in-flight count; a late
                // (spurious-loss) ACK must not subtract twice.
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(sp.len as u64);
                newly_acked += sp.len as u64;
            }
            if self.recovery_end.is_some_and(|r| sp.pkt_num >= r) {
                self.recovery_end = None;
            }
            if let Some(s) = self.streams.iter_mut().find(|s| s.id == sp.stream) {
                let added = range_insert(&mut s.acked, sp.offset, sp.offset + sp.len as u64);
                s.acked_bytes += added;
            }
        }

        self.largest_acked = self.largest_acked.max(Some(largest));

        // Progress — and an RTT sample — only when the ACK acknowledged
        // something new (RFC 9002 §5.1).
        let rtt = progressed.then(|| core.on_progress(now, echo_ts)).flatten();

        // Pass 2: packet-threshold loss detection. Anything unacked and
        // PACKET_THRESHOLD below the largest acknowledged packet is lost.
        let largest_acked = self.largest_acked.unwrap_or(0);
        for i in 0..self.sent.len() {
            let sp = self.sent[i];
            if sp.acked || sp.lost {
                continue;
            }
            if sp.pkt_num + PACKET_THRESHOLD > largest_acked {
                break;
            }
            self.declare_lost(i);
            // One congestion response per recovery epoch.
            if self.recovery_end.is_none_or(|r| sp.pkt_num >= r) {
                core.on_loss_event(now);
                self.recovery_end = Some(self.next_pkt_num);
            }
        }

        // Drop fully resolved packets from the front of the deque.
        while self.sent.front().is_some_and(|sp| sp.acked || sp.lost) {
            self.sent.pop_front();
        }

        if newly_acked > 0 {
            core.on_acked(now, newly_acked, rtt, was_in_recovery, self.bytes_in_flight);
        }

        self.streams.retain(|s| {
            let done = s.acked_bytes >= s.len;
            if done {
                core.complete(CompletedTransfer {
                    id: s.id,
                    bytes: s.len,
                    queued_at: s.queued_at,
                    started_at: s.started_at.unwrap_or(s.queued_at),
                    completed_at: now,
                });
            }
            !done
        });

        if self.bytes_in_flight == 0 && self.peek(core.cwnd()).is_none() {
            core.clear_timeout();
        } else if progressed {
            core.arm_timeout(now);
        }
        true
    }

    /// QUIC sanity (validate feature): flow control is never overrun, and
    /// per stream every byte declared lost has been retransmitted, has been
    /// acknowledged since, or is still queued.
    #[cfg(feature = "validate")]
    fn check_invariants(&self) {
        netsim::invariant!(
            "quic-sender-sanity",
            self.conn_sent <= self.peer_max_data,
            "flow control violated: sent {} credit {}",
            self.conn_sent,
            self.peer_max_data
        );
        for s in &self.streams {
            let queued: u64 = s.retx.iter().map(|&(a, b)| b - a).sum();
            netsim::invariant!(
                "retx-queue-conservation",
                s.retx_owed == queued,
                "stream {}: {} lost bytes neither resent nor acked, {} queued",
                s.id,
                s.retx_owed,
                queued
            );
        }
    }
}

impl QuicWire {
    /// Mark `sent[i]` lost: it leaves the flight count and its stream
    /// bytes — minus anything the receiver has meanwhile acknowledged —
    /// are queued for selective retransmission.
    fn declare_lost(&mut self, i: usize) {
        let sp = self.sent[i];
        self.sent[i].lost = true;
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(sp.len as u64);
        if let Some(s) = self.streams.iter_mut().find(|s| s.id == sp.stream) {
            for (start, end) in range_subtract(&s.acked, sp.offset, sp.offset + sp.len as u64) {
                let _added = range_insert(&mut s.retx, start, end);
                #[cfg(feature = "validate")]
                {
                    s.retx_owed += _added;
                }
            }
        }
    }
}

impl QuicSender {
    /// Process an ACK — largest acknowledged packet number, echoed send
    /// timestamp, up to three `[start, end)` packet-number ranges and the
    /// receiver's flow-control credit — then pump.
    pub fn on_quic_ack(
        &mut self,
        now: SimTime,
        largest: u64,
        echo_ts: SimTime,
        ranges: &[(u64, u64); 3],
        max_data: u64,
        out: &mut Vec<Packet>,
    ) {
        let ack = Payload::QuicAck {
            largest,
            echo_ts,
            ranges: *ranges,
            max_data,
        };
        self.wire.on_ack(&mut self.core, now, &ack);
        self.pump(now, out);
    }

    /// Mutant mode: drop the head of the retransmission queue as the
    /// pre-core sender did when it selected a frame and the pacer then
    /// said no — consumed, never emitted. Must trip
    /// `retx-queue-conservation` on the next [`pump`](Self::pump).
    #[cfg(feature = "validate")]
    pub fn mutant_consume_before_gate(&mut self) {
        let frame = self.wire.peek(0).filter(|f| f.retx);
        let frame = frame.expect("mutant needs a queued retransmission");
        self.wire.streams[frame.stream].take_retx(frame.offset + frame.len);
    }
}

/// Receiver-side stream reassembly state.
#[derive(Debug)]
struct RecvStream {
    id: u64,
    /// Contiguously received prefix.
    contig: u64,
    /// Buffered out-of-order ranges.
    ooo: Vec<(u64, u64)>,
    /// Total stream length, learned from the `fin` frame.
    fin_len: Option<u64>,
    done: bool,
}

/// QUIC-style receiver: per-stream reassembly, packet-number range
/// tracking, and connection flow-control advertisement.
#[derive(Debug)]
pub struct QuicReceiver {
    local: NodeId,
    remote: NodeId,
    flow: FlowId,
    /// Largest packet number received.
    largest: Option<u64>,
    /// Received packet-number ranges `[start, end)`, ascending, disjoint.
    pkt_ranges: Vec<(u64, u64)>,
    streams: Vec<RecvStream>,
    /// Sum of contiguous prefixes across all streams — the
    /// application-visible delivered byte count.
    delivered: u64,
    /// Total payload bytes received (including duplicates).
    pub bytes_received: u64,
    /// Payload bytes that duplicated already-held data.
    pub duplicate_bytes: u64,
}

impl QuicReceiver {
    /// Create a receiver at `local` for data sent by `remote` on `flow`.
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId) -> Self {
        QuicReceiver {
            local,
            remote,
            flow,
            largest: None,
            pkt_ranges: Vec::new(),
            streams: Vec::new(),
            delivered: 0,
            bytes_received: 0,
            duplicate_bytes: 0,
        }
    }

    /// The flow id this receiver listens on.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Application-visible delivered bytes: the sum of every stream's
    /// contiguous prefix (the QUIC analogue of TCP's `contiguous_bytes`).
    pub fn contiguous_bytes(&self) -> u64 {
        self.delivered
    }

    /// Handle an arriving [`Payload::QuicData`] frame, producing the ACK
    /// to send back. `None` for packets that are not QUIC data frames of
    /// this flow.
    pub fn on_data(&mut self, _now: SimTime, pkt: &Packet) -> Option<Packet> {
        let Payload::QuicData {
            pkt_num,
            stream,
            offset,
            len,
            fin,
            ..
        } = pkt.payload
        else {
            return None;
        };
        if pkt.flow != self.flow {
            return None;
        }
        self.bytes_received += len as u64;
        range_insert(&mut self.pkt_ranges, pkt_num, pkt_num + 1);
        if self.pkt_ranges.len() > MAX_TRACKED_RANGES {
            // Forget the oldest ranges; data under them is long delivered.
            let excess = self.pkt_ranges.len() - MAX_TRACKED_RANGES;
            self.pkt_ranges.drain(..excess);
        }
        self.largest = Some(self.largest.map_or(pkt_num, |l| l.max(pkt_num)));

        let end = offset + len as u64;
        let s = match self.streams.iter_mut().rev().find(|s| s.id == stream) {
            Some(s) => s,
            None => {
                self.streams.push(RecvStream {
                    id: stream,
                    contig: 0,
                    ooo: Vec::new(),
                    fin_len: None,
                    done: false,
                });
                self.streams.last_mut().expect("just pushed")
            }
        };
        if fin {
            s.fin_len = Some(end);
        }
        if s.done || end <= s.contig {
            self.duplicate_bytes += len as u64;
        } else {
            let added = range_insert(&mut s.ooo, offset.max(s.contig), end);
            self.duplicate_bytes += (end - offset.max(s.contig)) - added;
            // Advance the contiguous prefix over any now-filled holes.
            let before = s.contig;
            while let Some(&(rs, re)) = s.ooo.first() {
                if rs <= s.contig {
                    s.contig = s.contig.max(re);
                    s.ooo.remove(0);
                } else {
                    break;
                }
            }
            self.delivered += s.contig - before;
            if s.fin_len == Some(s.contig) {
                s.done = true;
                s.ooo = Vec::new();
            }
        }

        Some(Packet::new(
            self.local,
            self.remote,
            self.flow,
            Payload::QuicAck {
                largest: self.largest.unwrap_or(0),
                echo_ts: pkt.sent_at,
                ranges: self.ack_ranges(),
                max_data: self.delivered + FLOW_WINDOW,
            },
        ))
    }

    /// The highest [`ACK_RANGES`] received ranges, descending.
    fn ack_ranges(&self) -> [(u64, u64); ACK_RANGES] {
        let mut out = [(0u64, 0u64); ACK_RANGES];
        for (slot, &(s, e)) in self.pkt_ranges.iter().rev().take(ACK_RANGES).enumerate() {
            out[slot] = (s, e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgorithm;
    use netsim::{SimDuration, HEADER_BYTES};

    fn pair() -> (QuicSender, QuicReceiver) {
        let cfg = TcpConfig::default();
        (
            QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg),
            QuicReceiver::new(NodeId(1), NodeId(0), FlowId(1)),
        )
    }

    /// Deliver `pkts` to the receiver (skipping indices in `drop`),
    /// feeding every generated ACK straight back to the sender.
    fn deliver(
        s: &mut QuicSender,
        r: &mut QuicReceiver,
        now: SimTime,
        pkts: Vec<Packet>,
        drop: &[usize],
    ) -> Vec<Packet> {
        let mut next = Vec::new();
        for (i, mut pkt) in pkts.into_iter().enumerate() {
            if drop.contains(&i) {
                continue;
            }
            pkt.sent_at = now;
            let ack = r.on_data(now, &pkt).expect("data frame");
            s.handle_packet(now + SimDuration::from_millis(10), &ack, &mut next);
        }
        next
    }

    #[test]
    fn range_helpers() {
        let mut set = Vec::new();
        assert_eq!(range_insert(&mut set, 0, 10), 10);
        assert_eq!(range_insert(&mut set, 20, 30), 10);
        assert_eq!(range_insert(&mut set, 5, 25), 10);
        assert_eq!(set, vec![(0, 30)]);
        let gaps = |set: &[(u64, u64)], s, e| range_subtract(set, s, e).collect::<Vec<_>>();
        assert_eq!(gaps(&set, 0, 40), vec![(30, 40)]);
        assert_eq!(
            gaps(&[(5, 10), (20, 25)], 0, 30),
            vec![(0, 5), (10, 20), (25, 30)]
        );
        assert_eq!(gaps(&[(0, 10), (20, 25)], 5, 22), vec![(10, 20)]);
        assert_eq!(gaps(&[(0, 10)], 2, 8), vec![]);
    }

    #[test]
    fn single_stream_transfer_completes() {
        let (mut s, mut r) = pair();
        let mut out = Vec::new();
        let id = s.start_transfer(SimTime::ZERO, 10_000, None);
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 7, "10 kB = 7 MSS frames");
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while !s.is_idle() {
            now += SimDuration::from_millis(10);
            let pkts = std::mem::take(&mut out);
            out = deliver(&mut s, &mut r, now, pkts, &[]);
            guard += 1;
            assert!(guard < 100, "transfer wedged");
        }
        let done = s.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].bytes, 10_000);
        assert_eq!(r.contiguous_bytes(), 10_000);
        assert_eq!(s.stats().retx_packets, 0);
    }

    #[test]
    fn lost_packet_does_not_block_other_streams() {
        // Stream A's lost frame must not delay stream B's completion: B
        // completes while A's hole is still outstanding (no go-back-N, no
        // cross-stream head-of-line blocking).
        let (mut s, mut r) = pair();
        let mut out = Vec::new();
        let a = s.start_transfer(SimTime::ZERO, 3 * MSS_BYTES, None);
        let b = s.start_transfer(SimTime::ZERO, 2 * MSS_BYTES, None);
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 5);
        // Drop A's first frame (packet 0); everything else arrives.
        let t1 = SimTime::from_millis(10);
        let pkts = std::mem::take(&mut out);
        out = deliver(&mut s, &mut r, t1, pkts, &[0]);
        // B is fully acked even though A still has a hole.
        let done = s.take_completed();
        assert_eq!(done.len(), 1, "stream B must complete despite A's loss");
        assert_eq!(done[0].id, b);
        // The packet-threshold detector fired and queued A's bytes; the
        // retransmission is in `out`.
        assert_eq!(s.stats().loss_events, 1);
        let retx: Vec<_> = out
            .iter()
            .filter(|p| matches!(p.payload, Payload::QuicData { retx: true, .. }))
            .collect();
        assert_eq!(retx.len(), 1);
        match retx[0].payload {
            Payload::QuicData { stream, offset, .. } => {
                assert_eq!(stream, a);
                assert_eq!(offset, 0);
            }
            _ => unreachable!(),
        }
        // Deliver the tail: A completes.
        let t2 = SimTime::from_millis(20);
        let pkts = std::mem::take(&mut out);
        deliver(&mut s, &mut r, t2, pkts, &[]);
        let done = s.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, a);
        assert_eq!(r.contiguous_bytes(), 5 * MSS_BYTES);
    }

    #[test]
    fn retransmission_uses_fresh_packet_number() {
        let (mut s, mut r) = pair();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 6 * MSS_BYTES, None);
        s.pump(SimTime::ZERO, &mut out);
        let first_nums: Vec<u64> = out
            .iter()
            .map(|p| match p.payload {
                Payload::QuicData { pkt_num, .. } => pkt_num,
                _ => unreachable!(),
            })
            .collect();
        let max_num = *first_nums.iter().max().unwrap();
        let pkts = std::mem::take(&mut out);
        let out = deliver(&mut s, &mut r, SimTime::from_millis(10), pkts, &[1]);
        for p in &out {
            if let Payload::QuicData { pkt_num, retx, .. } = p.payload {
                if retx {
                    assert!(pkt_num > max_num, "retx must use a fresh packet number");
                }
            }
        }
    }

    #[test]
    fn receiver_ack_ranges_describe_gaps() {
        let mut r = QuicReceiver::new(NodeId(1), NodeId(0), FlowId(1));
        let mk = |pkt_num: u64, offset: u64| {
            Packet::new(
                NodeId(0),
                NodeId(1),
                FlowId(1),
                Payload::QuicData {
                    pkt_num,
                    stream: 0,
                    offset,
                    len: 100,
                    fin: false,
                    retx: false,
                },
            )
        };
        r.on_data(SimTime::ZERO, &mk(0, 0));
        r.on_data(SimTime::ZERO, &mk(1, 100));
        // Packet 2 lost.
        r.on_data(SimTime::ZERO, &mk(3, 300));
        let ack = r.on_data(SimTime::ZERO, &mk(5, 500)).unwrap();
        match ack.payload {
            Payload::QuicAck {
                largest, ranges, ..
            } => {
                assert_eq!(largest, 5);
                assert_eq!(ranges[0], (5, 6));
                assert_eq!(ranges[1], (3, 4));
                assert_eq!(ranges[2], (0, 2));
            }
            _ => panic!("not an ack"),
        }
    }

    #[test]
    fn connection_flow_control_caps_outstanding_bytes() {
        let cfg = TcpConfig {
            cc: CcAlgorithm::Cubic,
            ..Default::default()
        };
        let mut s = QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg);
        let mut out = Vec::new();
        // Open far more data than the initial credit; grow cwnd out of the
        // way by acking in a loop and confirm conn_sent never passes the
        // advertised credit.
        s.start_transfer(SimTime::ZERO, 4 * INITIAL_MAX_DATA, None);
        s.pump(SimTime::ZERO, &mut out);
        let sent: u64 = out.iter().map(|p| p.size - netsim::HEADER_BYTES).sum();
        assert!(sent <= INITIAL_MAX_DATA);
        // Simulate a receiver that never raises max_data beyond the
        // initial credit: echo ACKs with the same credit.
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_millis(10);
            let pkts = std::mem::take(&mut out);
            for pkt in pkts {
                if let Payload::QuicData { pkt_num, .. } = pkt.payload {
                    let ranges = [(0, pkt_num + 1), (0, 0), (0, 0)];
                    s.on_quic_ack(
                        now,
                        pkt_num,
                        pkt.sent_at,
                        &ranges,
                        INITIAL_MAX_DATA,
                        &mut out,
                    );
                }
            }
        }
        assert!(
            s.wire.conn_sent <= INITIAL_MAX_DATA,
            "sender violated flow control: {} > {}",
            s.wire.conn_sent,
            INITIAL_MAX_DATA
        );
    }

    #[test]
    fn pto_fires_and_retransmits() {
        let (mut s, _r) = pair();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 2 * MSS_BYTES, None);
        s.pump(SimTime::ZERO, &mut out);
        out.clear();
        // Nothing comes back: the probe timeout must fire.
        let wake = s.next_wakeup(SimTime::ZERO).expect("pto armed");
        s.on_tick(wake, &mut out);
        assert_eq!(s.stats().rtos, 1);
        let retx: Vec<_> = out
            .iter()
            .filter(|p| matches!(p.payload, Payload::QuicData { retx: true, .. }))
            .collect();
        assert!(!retx.is_empty(), "PTO must retransmit a probe");
        // Backoff: the next deadline is further out.
        let w2 = s.next_wakeup(wake).expect("pto re-armed");
        assert!(w2.saturating_since(wake) > wake.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn paced_stream_defers_release() {
        let cfg = TcpConfig {
            max_burst_packets: 4,
            ..Default::default()
        };
        let mut s = QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg);
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 1_000_000, Some(Rate::from_mbps(12.0)));
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 4, "burst limited by burst size");
        let wake = s.next_wakeup(SimTime::ZERO).expect("pacer wakeup");
        assert!(wake > SimTime::ZERO && wake <= SimTime::from_millis(2));
        out.clear();
        s.on_tick(wake, &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn receiver_counts_duplicates() {
        let mut r = QuicReceiver::new(NodeId(1), NodeId(0), FlowId(1));
        let pkt = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            Payload::QuicData {
                pkt_num: 0,
                stream: 0,
                offset: 0,
                len: 1000,
                fin: false,
                retx: false,
            },
        );
        r.on_data(SimTime::ZERO, &pkt);
        let dup = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            Payload::QuicData {
                pkt_num: 1,
                stream: 0,
                offset: 0,
                len: 1000,
                fin: false,
                retx: true,
            },
        );
        r.on_data(SimTime::ZERO, &dup);
        assert_eq!(r.bytes_received, 2000);
        assert_eq!(r.duplicate_bytes, 1000);
        assert_eq!(r.contiguous_bytes(), 1000);
    }

    #[test]
    fn wire_sizes_match_tcp_framing() {
        let data = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            Payload::QuicData {
                pkt_num: 0,
                stream: 0,
                offset: 0,
                len: MSS_BYTES as u32,
                fin: false,
                retx: false,
            },
        );
        assert_eq!(data.size, MSS_BYTES + HEADER_BYTES);
        let ack = Packet::new(
            NodeId(1),
            NodeId(0),
            FlowId(1),
            Payload::QuicAck {
                largest: 0,
                echo_ts: SimTime::ZERO,
                ranges: [(0, 1), (0, 0), (0, 0)],
                max_data: 0,
            },
        );
        assert_eq!(ack.size, HEADER_BYTES);
    }
}
