//! Paced constant-bit-rate datagram flows (UDP-style) with one-way-delay
//! measurement — the neighboring traffic of the paper's Fig 8a.

use netsim::{
    Endpoint, FlowId, GaugeSeries, NodeCtx, NodeId, Packet, Payload, Rate, SimDuration, SimTime,
};

/// A constant-bit-rate datagram source: sends `packet_bytes`-sized packets
/// at `rate`, evenly spaced, from `start` until `stop`.
pub struct UdpCbrSource {
    local: NodeId,
    remote: NodeId,
    flow: FlowId,
    rate: Rate,
    packet_bytes: u64,
    start: SimTime,
    stop: SimTime,
    next_seq: u64,
    /// Total packets emitted.
    pub packets_sent: u64,
}

impl UdpCbrSource {
    /// Create a CBR source. Call [`UdpCbrSource::install`] to attach it.
    pub fn new(
        local: NodeId,
        remote: NodeId,
        flow: FlowId,
        rate: Rate,
        packet_bytes: u64,
        start: SimTime,
        stop: SimTime,
    ) -> Self {
        assert!(packet_bytes >= netsim::HEADER_BYTES);
        assert!(!rate.is_zero(), "CBR source needs a positive rate");
        UdpCbrSource {
            local,
            remote,
            flow,
            rate,
            packet_bytes,
            start,
            stop,
            next_seq: 0,
            packets_sent: 0,
        }
    }

    /// Attach to the simulator and arm the first send.
    pub fn install(self, sim: &mut netsim::Simulator) {
        let node = self.local;
        let start = self.start;
        sim.set_endpoint(node, Box::new(self));
        sim.start_timer(node, start, 0);
    }

    fn interval(&self) -> SimDuration {
        self.rate.time_to_send(self.packet_bytes)
    }
}

impl Endpoint for UdpCbrSource {
    fn on_packet(&mut self, _now: SimTime, _pkt: Packet, _ctx: &mut NodeCtx) {
        // CBR sources ignore inbound traffic.
    }

    fn on_timer(&mut self, now: SimTime, _token: u64, ctx: &mut NodeCtx) {
        if now > self.stop {
            return;
        }
        let pkt = Packet::new(
            self.local,
            self.remote,
            self.flow,
            Payload::Datagram { seq: self.next_seq },
        )
        .with_size(self.packet_bytes);
        self.next_seq += 1;
        self.packets_sent += 1;
        ctx.send(pkt);
        ctx.set_timer(now + self.interval(), 0);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Counts datagram arrivals and records per-packet one-way delay.
pub struct UdpSink {
    flow: FlowId,
    /// One-way delay samples in milliseconds, timestamped by arrival.
    pub owd_ms: GaugeSeries,
    /// Packets received.
    pub packets_received: u64,
    /// Highest sequence number seen (for loss estimation).
    pub max_seq: Option<u64>,
}

impl UdpSink {
    /// Create a sink for `flow`.
    pub fn new(flow: FlowId) -> Self {
        UdpSink {
            flow,
            owd_ms: GaugeSeries::new(),
            packets_received: 0,
            max_seq: None,
        }
    }
}

impl Endpoint for UdpSink {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, _ctx: &mut NodeCtx) {
        let Payload::Datagram { seq } = pkt.payload else {
            return;
        };
        if pkt.flow != self.flow {
            return;
        }
        self.packets_received += 1;
        self.max_seq = Some(self.max_seq.map_or(seq, |m| m.max(seq)));
        let owd = now.saturating_since(pkt.sent_at);
        self.owd_ms.record(now, owd.as_millis_f64());
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, _ctx: &mut NodeCtx) {}

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Dumbbell, DumbbellConfig, Simulator};

    #[test]
    fn cbr_paces_evenly_and_measures_owd() {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        let flow = FlowId(42);
        // 5 Mbps of 1200 B packets for 1 second, as in the paper's Fig 8a.
        let src = UdpCbrSource::new(
            db.left[0],
            db.right[0],
            flow,
            Rate::from_mbps(5.0),
            1200,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        src.install(&mut sim);
        sim.set_endpoint(db.right[0], Box::new(UdpSink::new(flow)));
        sim.run_to_completion();

        let sink: &mut UdpSink = sim.endpoint_mut(db.right[0]).expect("sink present");

        // 5 Mbps / (1200*8 bits) = ~520.8 pkts/sec.
        assert!(
            sink.packets_received >= 519 && sink.packets_received <= 523,
            "got {}",
            sink.packets_received
        );
        // No sequence number was skipped: nothing was lost.
        assert_eq!(sink.max_seq, Some(sink.packets_received - 1));
        // Empty network: OWD is close to propagation-only (2.5 ms + tx).
        let mean = sink.owd_ms.mean_between(SimTime::ZERO, SimTime::MAX);
        assert!(mean > 2.4 && mean < 3.5, "owd mean {mean}");
    }
}
