//! Transport selection: one enum over the TCP and QUIC state machines.
//!
//! Host endpoints ([`crate::SenderEndpoint`], [`crate::ReceiverEndpoint`],
//! the video client) hold a [`TransportSender`]/[`TransportReceiver`] and
//! stay oblivious to which wire protocol is running; [`Protocol`] in
//! [`TcpConfig`] picks the variant. This is what lets the
//! A/B matrix vary transport and congestion control independently of the
//! Sammy pacing policy.

use crate::core::{CompletedTransfer, SenderCore, SenderStats, TcpConfig};
use crate::quic::{QuicReceiver, QuicSender};
use crate::receiver::TcpReceiver;
use crate::sender::TcpSender;
use netsim::{FlowId, NodeId, Packet, Payload, Rate, SimTime};
use tdigest::TDigest;

/// Which wire protocol a sender/receiver pair speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// TCP-style cumulative-ACK byte stream (NewReno recovery).
    #[default]
    Tcp,
    /// QUIC-style streams with ACK ranges and selective retransmission.
    Quic,
}

impl Protocol {
    /// Parse a protocol name (`tcp` / `quic`), as used by CLI flags.
    pub fn parse(s: &str) -> Option<Protocol> {
        s.parse().ok()
    }

    /// Lower-case name for CSV columns and CLI round-tripping.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tcp => "tcp",
            Protocol::Quic => "quic",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The one spelling of each protocol shared by the CLI, the JSON spec
/// API, and CSV headers. Unknown names are a [`netsim::SimError::Parse`], never a
/// panic or a silent default.
impl std::str::FromStr for Protocol {
    type Err = netsim::SimError;

    fn from_str(s: &str) -> Result<Protocol, netsim::SimError> {
        match s.to_ascii_lowercase().as_str() {
            "tcp" => Ok(Protocol::Tcp),
            "quic" => Ok(Protocol::Quic),
            _ => Err(netsim::SimError::Parse {
                what: "transport protocol",
                input: s.to_string(),
                reason: "expected tcp or quic".into(),
            }),
        }
    }
}

/// A sender of either protocol, chosen by [`TcpConfig::transport`].
///
/// Only what the wire protocol decides is dispatched here; everything the
/// two share (flow id, congestion window, RTT, telemetry) is read through
/// [`core`](Self::core).
#[derive(Debug)]
pub enum TransportSender {
    /// TCP byte-stream sender.
    Tcp(TcpSender),
    /// QUIC-style stream sender.
    Quic(QuicSender),
}

/// Run `$body` on whichever protocol's state machine `$self` holds.
macro_rules! either {
    ($enum:ident, $self:expr, $s:ident => $body:expr) => {
        match $self {
            $enum::Tcp($s) => $body,
            $enum::Quic($s) => $body,
        }
    };
}

impl TransportSender {
    /// Build the sender variant selected by `cfg.transport`.
    pub fn new(src: NodeId, dst: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        match cfg.transport {
            Protocol::Tcp => TransportSender::Tcp(TcpSender::new(src, dst, flow, cfg)),
            Protocol::Quic => TransportSender::Quic(QuicSender::new(src, dst, flow, cfg)),
        }
    }

    /// The protocol-independent sender core.
    pub fn core(&self) -> &SenderCore {
        either!(TransportSender, self, s => s.core())
    }

    /// Telemetry counters.
    pub fn stats(&self) -> &SenderStats {
        self.core().stats()
    }

    /// Per-packet RTT samples (t-digest).
    pub fn rtt_digest(&self) -> &TDigest {
        self.core().rtt_digest()
    }

    /// Queue a transfer of `bytes`, paced at `pace`; returns the transfer id.
    pub fn start_transfer(&mut self, now: SimTime, bytes: u64, pace: Option<Rate>) -> u64 {
        either!(TransportSender, self, s => s.start_transfer(now, bytes, pace))
    }

    /// Change a queued/in-flight transfer's pace rate.
    pub fn set_transfer_pace(&mut self, now: SimTime, id: u64, pace: Option<Rate>) {
        either!(TransportSender, self, s => s.set_transfer_pace(now, id, pace))
    }

    /// Transmit whatever the window, flow control, and pacer allow.
    pub fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        either!(TransportSender, self, s => s.pump(now, out))
    }

    /// Timer callback (retransmission timeouts, pacing releases).
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        either!(TransportSender, self, s => s.on_tick(now, out))
    }

    /// Feed an arriving packet to the sender. Returns `true` if it was an
    /// acknowledgment of this sender's protocol and flow (and was
    /// consumed), `false` for anything else — e.g. a [`Payload::Request`],
    /// which the host endpoint handles itself.
    pub fn handle_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) -> bool {
        either!(TransportSender, self, s => s.handle_packet(now, pkt, out))
    }

    /// When the sender next needs a timer callback.
    pub fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        either!(TransportSender, self, s => s.next_wakeup(now))
    }

    /// Drain completed-transfer reports.
    pub fn take_completed(&mut self) -> Vec<CompletedTransfer> {
        either!(TransportSender, self, s => s.take_completed())
    }

    /// True when nothing remains queued or outstanding.
    pub fn is_idle(&self) -> bool {
        either!(TransportSender, self, s => s.is_idle())
    }
}

/// A receiver of either protocol.
#[derive(Debug)]
pub enum TransportReceiver {
    /// TCP cumulative-ACK receiver.
    Tcp(TcpReceiver),
    /// QUIC-style range-ACK receiver.
    Quic(QuicReceiver),
}

impl TransportReceiver {
    /// Build the receiver variant for `protocol`.
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId, protocol: Protocol) -> Self {
        match protocol {
            Protocol::Tcp => TransportReceiver::Tcp(TcpReceiver::new(local, remote, flow)),
            Protocol::Quic => TransportReceiver::Quic(QuicReceiver::new(local, remote, flow)),
        }
    }

    /// Handle an arriving data packet of this receiver's protocol,
    /// producing the ACK to send back. `None` for any other packet.
    pub fn on_data(&mut self, now: SimTime, pkt: &Packet) -> Option<Packet> {
        either!(TransportReceiver, self, r => r.on_data(now, pkt))
    }

    /// Application-visible delivered bytes (contiguous prefix for TCP; sum
    /// of per-stream contiguous prefixes for QUIC).
    pub fn contiguous_bytes(&self) -> u64 {
        either!(TransportReceiver, self, r => r.contiguous_bytes())
    }
}

/// Payload length of a data packet of either protocol, or `None` if the
/// packet carries no transport data. Used by endpoints to record goodput
/// without matching on the payload themselves.
pub fn data_len(pkt: &Packet) -> Option<u64> {
    match pkt.payload {
        Payload::Data { len, .. } => Some(len as u64),
        Payload::QuicData { len, .. } => Some(len as u64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    #[test]
    fn protocol_parse_roundtrip() {
        assert_eq!(Protocol::parse("tcp"), Some(Protocol::Tcp));
        assert_eq!(Protocol::parse("QUIC"), Some(Protocol::Quic));
        assert_eq!(Protocol::parse("sctp"), None);
        for p in [Protocol::Tcp, Protocol::Quic] {
            assert_eq!(Protocol::parse(p.name()), Some(p));
            // Display and FromStr agree with name()/parse(): one spelling
            // for CLI flags, the JSON API, and CSV headers.
            assert_eq!(p.to_string(), p.name());
            assert_eq!(p.to_string().parse::<Protocol>().unwrap(), p);
        }
        let err = "sctp".parse::<Protocol>().unwrap_err();
        assert!(err.to_string().contains("sctp"), "{err}");
        assert!(err.to_string().contains("tcp or quic"), "{err}");
    }

    #[test]
    fn sender_variant_follows_config() {
        let tcp = TransportSender::new(NodeId(0), NodeId(1), FlowId(1), TcpConfig::default());
        assert!(matches!(tcp, TransportSender::Tcp(_)));
        let quic = TransportSender::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            TcpConfig {
                transport: Protocol::Quic,
                ..Default::default()
            },
        );
        assert!(matches!(quic, TransportSender::Quic(_)));
    }

    /// The same request-driven transfer completes over either variant.
    #[test]
    fn both_variants_complete_a_transfer() {
        for proto in [Protocol::Tcp, Protocol::Quic] {
            let cfg = TcpConfig {
                transport: proto,
                ..Default::default()
            };
            let mut s = TransportSender::new(NodeId(0), NodeId(1), FlowId(1), cfg);
            let mut r = TransportReceiver::new(NodeId(1), NodeId(0), FlowId(1), proto);
            let mut out = Vec::new();
            s.start_transfer(SimTime::ZERO, 100_000, None);
            s.pump(SimTime::ZERO, &mut out);
            let mut now = SimTime::ZERO;
            let mut guard = 0;
            while !s.is_idle() {
                now += SimDuration::from_millis(10);
                let pkts = std::mem::take(&mut out);
                for mut pkt in pkts {
                    pkt.sent_at = now;
                    assert!(data_len(&pkt).is_some(), "{proto:?} sent non-data");
                    let ack = r.on_data(now, &pkt).expect("ack");
                    now += SimDuration::from_millis(5);
                    assert!(s.handle_packet(now, &ack, &mut out), "{proto:?} ack");
                }
                guard += 1;
                assert!(guard < 1000, "{proto:?} wedged");
            }
            assert_eq!(s.take_completed().len(), 1, "{proto:?}");
            assert_eq!(r.contiguous_bytes(), 100_000, "{proto:?}");
        }
    }
}
