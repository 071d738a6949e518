//! The sender core: one pacing gate, timer and accounting path under both
//! wire protocols.
//!
//! Sammy's pace rate (§3.2) is an upper bound laid over whatever congestion
//! controller and wire protocol the server runs. [`SenderCore`] is where
//! that bound lives: it owns the controller, the [`Pacer`], the RTT
//! estimator, the retransmission timer and all telemetry, and runs the one
//! emission loop *peek next frame → gate → commit*. A frame leaves the wire
//! half's queues only in [`Wire::commit`], after the gate said yes, so
//! "select a retransmission, ask the pacer, drop it on no" cannot be written.
//!
//! A [`Wire`] half ([`TcpWire`](crate::sender::TcpWire),
//! [`QuicWire`](crate::quic::QuicWire)) is what differs between protocols:
//! framing, ACK parsing, loss *detection*, flow control. [`Sender`] pairs
//! one core with one wire half.

use crate::cc::{CcAlgorithm, CongestionControl};
use crate::mux::Protocol;
use crate::pacing::Pacer;
use crate::rtt::RttEstimator;
use netsim::{FlowId, NodeId, Packet, Payload, Rate, SimDuration, SimTime, HEADER_BYTES};
use tdigest::TDigest;

/// Configuration for a transport sender (TCP or QUIC — the name predates
/// the QUIC-style transport; every field applies to both).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Wire protocol: TCP byte stream or QUIC-style streams.
    pub transport: Protocol,
    /// Congestion-control algorithm.
    pub cc: CcAlgorithm,
    /// Maximum line-rate burst in packets (applies even when unpaced; the
    /// production default in the paper is 40).
    pub max_burst_packets: u32,
    /// Maximum segment lifetime of the flow's send buffer in bytes — how
    /// far ahead of `snd_una` the application may queue. Effectively the
    /// socket send-buffer size.
    pub send_buffer: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            transport: Protocol::Tcp,
            cc: CcAlgorithm::Reno,
            max_burst_packets: 40,
            send_buffer: 64 * 1024 * 1024,
        }
    }
}

/// A completed transfer report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedTransfer {
    /// Application-assigned transfer id.
    pub id: u64,
    /// Payload bytes transferred.
    pub bytes: u64,
    /// When the transfer was queued by the application.
    pub queued_at: SimTime,
    /// When the first byte was sent.
    pub started_at: SimTime,
    /// When the last byte was acknowledged.
    pub completed_at: SimTime,
}

impl CompletedTransfer {
    /// Goodput of this transfer in bits/sec, measured from first send to
    /// completion — the paper's "chunk throughput".
    pub fn throughput(&self) -> Rate {
        let dur = self.completed_at.saturating_since(self.started_at);
        if dur.is_zero() {
            return Rate::ZERO;
        }
        Rate::from_bps(self.bytes as f64 * 8.0 / dur.as_secs_f64())
    }
}

/// Telemetry counters exposed by the sender.
#[derive(Debug, Clone, Default)]
pub struct SenderStats {
    /// Payload bytes sent, including retransmissions.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted.
    pub retx_bytes: u64,
    /// Data packets sent, including retransmissions.
    pub packets_sent: u64,
    /// Data packets retransmitted.
    pub retx_packets: u64,
    /// Loss events (one congestion response each).
    pub loss_events: u64,
    /// Retransmission / probe timeouts.
    pub rtos: u64,
}

impl SenderStats {
    /// Fraction of sent bytes that were retransmissions — the paper's
    /// "% retransmits" congestion metric (§5.1).
    pub fn retransmit_fraction(&self) -> f64 {
        if self.bytes_sent == 0 {
            0.0
        } else {
            self.retx_bytes as f64 / self.bytes_sent as f64
        }
    }
}

/// A frame the wire half proposes to send next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Index of the QUIC stream the bytes belong to (0 for TCP).
    pub stream: usize,
    /// Offset of the first payload byte within the stream.
    pub offset: u64,
    /// Payload bytes.
    pub len: u64,
    /// True for a retransmission.
    pub retx: bool,
}

/// The protocol half of a sender. It answers four questions for the core
/// — [`peek`](Self::peek), [`commit`](Self::commit),
/// [`pace_of`](Self::pace_of), [`app_limited`](Self::app_limited) — and
/// decides nothing about *when* bytes may leave.
pub trait Wire: std::fmt::Debug + Sized {
    /// Tag of this protocol's `validate` sanity invariant.
    const SANITY_TAG: &'static str;

    /// Fresh protocol state for a connection configured by `cfg`.
    fn new(cfg: &TcpConfig) -> Self;
    /// Queue `bytes` of application data paced at `pace`; returns its id.
    fn start_transfer(&mut self, now: SimTime, bytes: u64, pace: Option<Rate>) -> u64;
    /// Record a new pace for transfer `id`; true if it is transmitting now.
    fn set_pace(&mut self, id: u64, pace: Option<Rate>) -> bool;
    /// True when every queued byte has been acknowledged.
    fn is_idle(&self) -> bool;
    /// Bytes sent and neither acknowledged nor declared lost.
    fn bytes_in_flight(&self) -> u64;

    /// The next frame to send under a window of `cwnd`, retransmissions
    /// first — without consuming it.
    fn peek(&self, cwnd: u64) -> Option<Frame>;
    /// The gate opened for `frame`, the last [`peek`](Self::peek) result:
    /// consume it and build its payload.
    fn commit(&mut self, now: SimTime, frame: &Frame) -> Payload;
    /// The application pace of the transfer `frame` belongs to.
    fn pace_of(&self, frame: &Frame) -> Option<Rate>;
    /// With no frame to send: is that for want of application data
    /// (rather than window or flow-control credit)?
    fn app_limited(&self, cwnd: u64) -> bool;

    /// The retransmission timer fired with bytes in flight: queue what
    /// must be resent (TCP: go-back-N; QUIC: the oldest packet as a probe).
    fn on_timeout(&mut self);
    /// If `payload` is this protocol's acknowledgment, process it — feeding
    /// progress, loss events and timer arming to `core` — and return true.
    fn on_ack(&mut self, core: &mut SenderCore, now: SimTime, payload: &Payload) -> bool;
    /// Protocol-specific `validate` invariants.
    fn check_invariants(&self) {}
}

/// Everything a paced, congestion-controlled sender does that is not wire
/// protocol.
#[derive(Debug)]
pub struct SenderCore {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,

    cc: Box<dyn CongestionControl>,
    pacer: Pacer,
    rtt: RttEstimator,

    /// Retransmission-timer deadline (TCP's RTO, QUIC's PTO), if armed.
    timeout: Option<SimTime>,
    /// Consecutive-timeout backoff exponent.
    backoff: u32,
    /// Last time any frame was sent (for idle restart).
    last_send: Option<SimTime>,

    completed: Vec<CompletedTransfer>,
    stats: SenderStats,
    rtt_digest: TDigest,
}

impl SenderCore {
    fn new(src: NodeId, dst: NodeId, flow: FlowId, cfg: &TcpConfig) -> Self {
        SenderCore {
            src,
            dst,
            flow,
            cc: cfg.cc.build(),
            pacer: Pacer::unlimited(cfg.max_burst_packets),
            rtt: RttEstimator::new(),
            timeout: None,
            backoff: 0,
            last_send: None,
            completed: Vec::new(),
            stats: SenderStats::default(),
            rtt_digest: TDigest::new(100.0),
        }
    }

    /// The connection's flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Telemetry counters.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// Per-packet RTT samples (t-digest), as recorded by this connection.
    pub fn rtt_digest(&self) -> &TDigest {
        &self.rtt_digest
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// The rate the pacer currently enforces, if any.
    #[cfg(test)]
    pub(crate) fn pacing_rate(&self) -> Option<Rate> {
        self.pacer.rate()
    }

    /// Drain completed-transfer reports accumulated since the last call.
    pub fn take_completed(&mut self) -> Vec<CompletedTransfer> {
        std::mem::take(&mut self.completed)
    }

    /// Report a transfer whose last byte was just acknowledged.
    pub(crate) fn complete(&mut self, transfer: CompletedTransfer) {
        self.completed.push(transfer);
    }

    /// An ACK made forward progress (the wire half decides when one does):
    /// reset the timeout backoff and sample the RTT from its echoed
    /// timestamp.
    pub(crate) fn on_progress(&mut self, now: SimTime, echo_ts: SimTime) -> Option<SimDuration> {
        self.backoff = 0;
        let rtt = now.checked_since(echo_ts);
        if let Some(r) = rtt {
            self.rtt.on_sample(r);
            self.rtt_digest.add(r.as_millis_f64());
            obs::observe!(
                "transport.srtt_ms",
                self.rtt.srtt().unwrap_or(r).as_millis_f64()
            );
            obs::observe!("transport.cwnd_bytes", self.cc.cwnd() as f64);
        }
        rtt
    }

    /// `bytes` left the flight acknowledged, leaving `flight` outstanding.
    pub(crate) fn on_acked(
        &mut self,
        now: SimTime,
        bytes: u64,
        rtt: Option<SimDuration>,
        in_recovery: bool,
        flight: u64,
    ) {
        self.cc.on_ack(now, bytes, rtt, in_recovery);
        self.cc.on_inflight(now, flight);
    }

    /// The wire half detected a loss that opens a new recovery epoch.
    pub(crate) fn on_loss_event(&mut self, now: SimTime) {
        self.stats.loss_events += 1;
        self.cc.on_loss_event(now);
        obs::counter!("transport.loss_events", 1);
        obs::trace_event!(TcpLossEvent, now.as_nanos(), self.cc.cwnd(), 0);
    }

    /// (Re)arm the retransmission timer one backed-off RTO from `now`.
    pub(crate) fn arm_timeout(&mut self, now: SimTime) {
        let rto = self.rtt.rto().saturating_mul(1 << self.backoff);
        self.timeout = Some(now + rto);
    }

    /// Nothing is outstanding: disarm the retransmission timer.
    pub(crate) fn clear_timeout(&mut self) {
        self.timeout = None;
    }

    /// Pace at the minimum of the application-informed rate `app` and any
    /// rate the congestion controller itself requests (BBR-style).
    fn sync_rate(&mut self, now: SimTime, app: Option<Rate>) {
        let rate = match (app, self.cc.pacing_rate()) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (a, c) => a.or(c),
        };
        if self.pacer.rate().map(|r| r.bps()) != rate.map(|r| r.bps()) {
            // `_new`: referenced only from the obs expansion.
            if let Some(_new) = rate {
                obs::observe!("transport.pacing_rate_mbps", _new.bps() / 1e6);
            }
            self.pacer.set_rate(now, rate);
        }
    }

    /// The one emission loop; every ACK, timer and application path ends here.
    fn pump<W: Wire>(&mut self, wire: &mut W, now: SimTime, out: &mut Vec<Packet>) {
        // Slow-start restart, as production stacks do: nothing in flight,
        // data pending, and the last send more than an RTO ago — the window
        // no longer reflects the path.
        if wire.bytes_in_flight() == 0 {
            if let Some(last) = self.last_send {
                if now.saturating_since(last) > self.rtt.rto()
                    && wire.peek(self.cc.cwnd()).is_some()
                {
                    self.cc.on_idle_restart(now);
                }
            }
        }

        loop {
            let cwnd = self.cc.cwnd();
            let Some(frame) = wire.peek(cwnd) else {
                if wire.app_limited(cwnd) {
                    // Delivery-rate samples taken now understate the path.
                    self.cc.on_app_limited(now);
                }
                break;
            };
            // The gate, checked at the rate in force. Fresh data then moves
            // the pacer to its own transfer's rate; that needs no re-check,
            // since no time has passed since the pacer refilled.
            if !self.pacer.can_send(now, frame.len + HEADER_BYTES) {
                break;
            }
            if !frame.retx {
                self.sync_rate(now, wire.pace_of(&frame));
            }
            let pkt = Packet::new(self.src, self.dst, self.flow, wire.commit(now, &frame));
            self.pacer.on_send(now, pkt.size);
            self.stats.bytes_sent += frame.len;
            self.stats.packets_sent += 1;
            if frame.retx {
                self.stats.retx_bytes += frame.len;
                self.stats.retx_packets += 1;
                obs::counter!("transport.retx_packets", 1);
            }
            self.last_send = Some(now);
            if self.timeout.is_none() {
                self.arm_timeout(now);
            }
            out.push(pkt);
        }
        self.check_invariants(W::SANITY_TAG);
        wire.check_invariants();
    }

    /// Timer callback: fire the retransmission timeout if due, then pump
    /// (a pacing release is just a pump at the right time).
    fn tick<W: Wire>(&mut self, wire: &mut W, now: SimTime, out: &mut Vec<Packet>) {
        if self.timeout.is_some_and(|deadline| now >= deadline) {
            if wire.bytes_in_flight() > 0 {
                self.stats.rtos += 1;
                self.cc.on_rto(now);
                obs::counter!("transport.rtos", 1);
                obs::trace_event!(TcpRto, now.as_nanos(), self.cc.cwnd(), 0);
                self.backoff = (self.backoff + 1).min(10);
                wire.on_timeout();
                self.arm_timeout(now);
            } else {
                // Nothing left to time out; the next emission re-arms.
                self.timeout = None;
            }
        }
        self.pump(wire, now, out);
    }

    /// The earlier of the retransmission deadline and the pacer's release
    /// of the frame that is actually next.
    fn next_wakeup<W: Wire>(&mut self, wire: &W, now: SimTime) -> Option<SimTime> {
        let release = wire
            .peek(self.cc.cwnd())
            .and_then(|f| self.pacer.next_release(now, f.len + HEADER_BYTES));
        match (self.timeout, release) {
            (Some(t), Some(r)) => Some(t.min(r)),
            (t, r) => t.or(r),
        }
    }

    /// Core sanity (validate feature): cwnd never below one MSS, and the
    /// pace (when set) finite, positive, and under a 1 Tbps sanity cap.
    fn check_invariants(&self, _sanity_tag: &'static str) {
        #[cfg(feature = "validate")]
        assert!(
            self.cc.cwnd() >= netsim::MSS_BYTES,
            "{}: cwnd {} below one MSS",
            netsim::invariants::violation_tag(_sanity_tag),
            self.cc.cwnd()
        );
        if let Some(_rate) = self.pacer.rate() {
            netsim::invariant!(
                "pacing-rate-bounds",
                _rate.bps().is_finite() && _rate.bps() > 0.0 && _rate.bps() <= 1e12,
                "pace {} bps outside (0, 1e12]",
                _rate.bps()
            );
        }
    }
}

/// A sender: one [`SenderCore`] driving one [`Wire`] half. Not itself a
/// [`netsim::Endpoint`]; see [`crate::SenderEndpoint`] for the host.
#[derive(Debug)]
pub struct Sender<W: Wire> {
    pub(crate) core: SenderCore,
    pub(crate) wire: W,
}

impl<W: Wire> Sender<W> {
    /// Create a sender for a flow from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        Sender {
            core: SenderCore::new(src, dst, flow, &cfg),
            wire: W::new(&cfg),
        }
    }

    /// The protocol-independent half: window, pacing rate, RTT, telemetry.
    pub fn core(&self) -> &SenderCore {
        &self.core
    }

    /// Telemetry counters.
    pub fn stats(&self) -> &SenderStats {
        &self.core.stats
    }

    /// Queue an application transfer of `bytes`, paced at `pace` (or
    /// unpaced if `None`) from its first byte on. Returns the transfer id.
    pub fn start_transfer(&mut self, now: SimTime, bytes: u64, pace: Option<Rate>) -> u64 {
        assert!(bytes > 0, "empty transfer");
        self.wire.start_transfer(now, bytes, pace)
    }

    /// Change the pace rate of a queued or active transfer. Applies
    /// immediately if the transfer is currently transmitting.
    pub fn set_transfer_pace(&mut self, now: SimTime, id: u64, pace: Option<Rate>) {
        if self.wire.set_pace(id, pace) {
            self.core.sync_rate(now, pace);
        }
    }

    /// Drain completed-transfer reports accumulated since the last call.
    pub fn take_completed(&mut self) -> Vec<CompletedTransfer> {
        self.core.take_completed()
    }

    /// True when every queued byte has been acknowledged.
    pub fn is_idle(&self) -> bool {
        self.wire.is_idle()
    }

    /// Transmit whatever the window, flow control and pacer allow.
    pub fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.core.pump(&mut self.wire, now, out);
    }

    /// Timer callback: retransmission timeouts and pacing releases.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.core.tick(&mut self.wire, now, out);
    }

    /// When the sender next needs [`on_tick`](Self::on_tick), if at all.
    pub fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        self.core.next_wakeup(&self.wire, now)
    }

    /// Feed an arriving packet to the sender. Returns `true` if it was an
    /// acknowledgment of this sender's protocol and flow (and was consumed).
    pub fn handle_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) -> bool {
        let acked =
            pkt.flow == self.core.flow && self.wire.on_ack(&mut self.core, now, &pkt.payload);
        if acked {
            self.pump(now, out);
        }
        acked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::TransportReceiver;
    use crate::quic::QuicWire;
    use crate::sender::TcpWire;
    use netsim::MSS_BYTES;

    const RTT: SimDuration = SimDuration::from_millis(10);

    /// A sender that has just finished a 1 MB unpaced transfer over an
    /// ideal 10 ms path: window grown far past the initial one, nothing in
    /// flight, nothing queued. Returns it with the time of the last ACK.
    fn warmed_up<W: Wire>(proto: Protocol) -> (Sender<W>, SimTime) {
        let mut s = Sender::<W>::new(NodeId(0), NodeId(1), FlowId(1), TcpConfig::default());
        let mut r = TransportReceiver::new(NodeId(1), NodeId(0), FlowId(1), proto);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        s.start_transfer(now, 1_000_000, None);
        s.pump(now, &mut out);
        while !s.is_idle() {
            let sent_at = now;
            now += RTT;
            for mut pkt in std::mem::take(&mut out) {
                pkt.sent_at = sent_at;
                let ack = r.on_data(now, &pkt).expect("data packet");
                assert!(s.handle_packet(now, &ack, &mut out), "{proto} ack");
            }
            s.on_tick(now, &mut out);
        }
        assert!(
            s.core().cwnd() > 20 * MSS_BYTES,
            "{proto}: window did not grow"
        );
        assert_eq!(s.wire.bytes_in_flight(), 0);
        (s, now)
    }

    /// Request-gap vectors after "Poor Video Streaming Performance Explained
    /// (and Fixed)": a video client's off period idles the connection, and
    /// what the next chunk's first burst looks like is decided here, once,
    /// for both protocols.
    fn idle_restart_vectors<W: Wire>(proto: Protocol) {
        // Gap > RTO with data pending: restart from the initial window.
        let (mut s, now) = warmed_up::<W>(proto);
        let mut out = Vec::new();
        let later = now + SimDuration::from_secs(30);
        s.start_transfer(later, 100_000, None);
        s.pump(later, &mut out);
        assert_eq!(out.len(), 10, "{proto}: restart must cap the burst at IW");
        assert_eq!(s.core().cwnd(), 10 * MSS_BYTES);

        // Gap < RTO: the window still describes the path; keep it.
        let (mut s, now) = warmed_up::<W>(proto);
        let grown = s.core().cwnd();
        let mut out = Vec::new();
        let soon = now + SimDuration::from_millis(1);
        s.start_transfer(soon, 100_000, None);
        s.pump(soon, &mut out);
        assert_eq!(
            s.core().cwnd(),
            grown,
            "{proto}: short gap must not restart"
        );
        assert!(out.len() > 10, "{proto}: burst capped at {}", out.len());

        // Gap > RTO but bytes in flight: the connection is not idle (an
        // application stall, not a request gap); no restart.
        let (mut s, now) = warmed_up::<W>(proto);
        let mut out = Vec::new();
        s.start_transfer(now, 1_000_000, None);
        s.pump(now, &mut out);
        assert!(s.wire.bytes_in_flight() > 0);
        let grown = s.core().cwnd();
        s.pump(now + SimDuration::from_secs(30), &mut out);
        assert_eq!(
            s.core().cwnd(),
            grown,
            "{proto}: restart with data in flight"
        );
    }

    #[test]
    fn idle_restart_after_request_gap_tcp() {
        idle_restart_vectors::<TcpWire>(Protocol::Tcp);
    }

    #[test]
    fn idle_restart_after_request_gap_quic() {
        idle_restart_vectors::<QuicWire>(Protocol::Quic);
    }

    /// The gate is peek-then-commit: a frame the pacer refuses stays
    /// exactly where it was, and goes out when the pacer opens.
    fn refused_frame_is_not_consumed<W: Wire>(proto: Protocol) {
        let cfg = TcpConfig {
            max_burst_packets: 2,
            ..Default::default()
        };
        let mut s = Sender::<W>::new(NodeId(0), NodeId(1), FlowId(1), cfg);
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 4 * MSS_BYTES, Some(Rate::from_mbps(1.0)));
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 2, "{proto}: burst of 2");
        let next = s.wire.peek(s.core.cwnd()).expect("two segments left");
        assert_eq!(next.offset, 2 * MSS_BYTES);
        // Pumping against a closed gate any number of times changes nothing.
        for _ in 0..3 {
            s.pump(SimTime::ZERO, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert_eq!(s.wire.peek(s.core.cwnd()), Some(next));
        // The wakeup is for that frame, and it then leaves.
        let wake = s.next_wakeup(SimTime::ZERO).expect("pacer release");
        s.on_tick(wake, &mut out);
        assert_eq!(out.len(), 3, "{proto}: released at the wakeup");
        assert_eq!(s.stats().packets_sent, 3);
    }

    #[test]
    fn refused_frame_is_not_consumed_either_protocol() {
        refused_frame_is_not_consumed::<TcpWire>(Protocol::Tcp);
        refused_frame_is_not_consumed::<QuicWire>(Protocol::Quic);
    }
}
