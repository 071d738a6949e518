//! Ready-made [`netsim::Endpoint`] adapters around the transport state
//! machines.
//!
//! [`SenderEndpoint`] hosts one [`TransportSender`] (TCP or QUIC, per
//! [`TcpConfig::transport`]) and responds to application
//! [`Payload::Request`] messages by starting a transfer of the requested
//! size at the requested pace rate — this is the "server" side of
//! application-informed pacing: the client puts the pace rate in its request
//! (the CMCD `rtp`-style header of §3.2) and the server obeys it.
//!
//! [`ReceiverEndpoint`] hosts one [`TransportReceiver`] and ACKs arriving
//! data. Experiments read progress via [`ReceiverEndpoint::receiver`].
//!
//! Every sender host in the workspace is a [`SenderEndpoint`]:
//! [`MultiSenderEndpoint`](crate::MultiSenderEndpoint) holds N of them and
//! `traffic::BulkSender` one, so the wakeup-timer deduplication exists once.

use crate::core::{CompletedTransfer, TcpConfig};
use crate::mux::{self, Protocol, TransportReceiver, TransportSender};
use netsim::{
    BinnedThroughput, Endpoint, FlowId, NodeCtx, NodeId, Packet, Payload, Rate, SimDuration,
    SimTime,
};

/// Timer token a stand-alone [`SenderEndpoint`] uses for all wakeups.
const TICK: u64 = 1;

/// A server endpoint: one transport sender serving transfer requests.
pub struct SenderEndpoint {
    sender: TransportSender,
    /// Completed transfers drained from the sender after each event.
    pub completed: Vec<CompletedTransfer>,
    /// Token of this endpoint's wakeup timer (distinct per slot when
    /// several share a node).
    pub(crate) token: u64,
    /// Earliest outstanding timer, for deduplication: engine timers are not
    /// cancellable, so without this every ACK would arm a fresh immortal
    /// timer chain and event counts would grow quadratically.
    next_timer: SimTime,
    /// Packets the sender emitted during the current event; drained into
    /// the [`NodeCtx`] by `after_event`, so its capacity is reused.
    out: Vec<Packet>,
}

impl SenderEndpoint {
    /// Create a sender endpoint for a flow from `local` to `remote`.
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        SenderEndpoint {
            sender: TransportSender::new(local, remote, flow, cfg),
            completed: Vec::new(),
            token: TICK,
            next_timer: SimTime::MAX,
            out: Vec::new(),
        }
    }

    /// Access the underlying sender (telemetry, manual transfers).
    pub fn sender(&self) -> &TransportSender {
        &self.sender
    }

    /// Mutable access to the underlying sender.
    pub fn sender_mut(&mut self) -> &mut TransportSender {
        &mut self.sender
    }

    /// Serve a transfer of `size` bytes paced at `pace`, as if a request
    /// for it had just arrived.
    pub fn serve(&mut self, now: SimTime, size: u64, pace: Option<Rate>, ctx: &mut NodeCtx) {
        self.sender.start_transfer(now, size, pace);
        self.sender.pump(now, &mut self.out);
        self.after_event(now, ctx);
    }

    fn after_event(&mut self, now: SimTime, ctx: &mut NodeCtx) {
        for p in self.out.drain(..) {
            ctx.send(p);
        }
        self.completed.extend(self.sender.take_completed());
        if self.next_timer <= now {
            // The recorded timer has fired (or is firing now).
            self.next_timer = SimTime::MAX;
        }
        if let Some(wake) = self.sender.next_wakeup(now) {
            // Nudge past `now` so a stale wakeup cannot spin the event
            // loop without advancing time; only arm when strictly earlier
            // than the outstanding timer (timers are not cancellable).
            let wake = wake.max(now + SimDuration::from_micros(1));
            if wake < self.next_timer {
                self.next_timer = wake;
                ctx.set_timer(wake, self.token);
            }
        }
    }
}

impl Endpoint for SenderEndpoint {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        if !self.sender.handle_packet(now, &pkt, &mut self.out) {
            if let Payload::Request { size, pace_bps, .. } = pkt.payload {
                if pkt.flow == self.sender.core().flow() {
                    return self.serve(now, size, pace_bps.map(Rate::from_bps), ctx);
                }
            }
        }
        self.after_event(now, ctx);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
        if token != self.token {
            return;
        }
        self.sender.on_tick(now, &mut self.out);
        self.after_event(now, ctx);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A client-side endpoint: ACKs data, tracks goodput.
pub struct ReceiverEndpoint {
    receiver: TransportReceiver,
    /// Client-side delivered-byte timeseries (drives the Fig 1/7 traces).
    pub throughput: BinnedThroughput,
}

impl ReceiverEndpoint {
    /// Create a TCP receiver endpoint at `local` for data from `remote`.
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId) -> Self {
        Self::with_protocol(local, remote, flow, Protocol::Tcp)
    }

    /// Create a receiver endpoint speaking `protocol` (must match the
    /// server's [`TcpConfig::transport`]).
    pub fn with_protocol(local: NodeId, remote: NodeId, flow: FlowId, protocol: Protocol) -> Self {
        ReceiverEndpoint {
            receiver: TransportReceiver::new(local, remote, flow, protocol),
            throughput: BinnedThroughput::new(SimDuration::from_millis(100)),
        }
    }

    /// Access the underlying receiver.
    pub fn receiver(&self) -> &TransportReceiver {
        &self.receiver
    }
}

impl Endpoint for ReceiverEndpoint {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        if let Some(len) = mux::data_len(&pkt) {
            if let Some(ack) = self.receiver.on_data(now, &pkt) {
                self.throughput.record(now, len);
                ctx.send(ack);
            }
        }
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

    /// End-to-end transfer over the dumbbell: server sender, client receiver.
    fn run_transfer(bytes: u64, pace: Option<f64>) -> (Simulator, Dumbbell, FlowId) {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        let flow = FlowId(1);
        let server = SenderEndpoint::new(db.left[0], db.right[0], flow, TcpConfig::default());
        let client = ReceiverEndpoint::new(db.right[0], db.left[0], flow);
        sim.set_endpoint(db.left[0], Box::new(server));
        sim.set_endpoint(db.right[0], Box::new(client));

        // Client-side request (as the video player would send).
        let req = Packet::new(
            db.right[0],
            db.left[0],
            flow,
            Payload::Request {
                id: 0,
                size: bytes,
                pace_bps: pace,
            },
        );
        sim.inject(db.right[0], req);
        sim.run_until(SimTime::from_secs(60));
        (sim, db, flow)
    }

    #[test]
    fn unpaced_transfer_completes_at_line_rate() {
        // 5 MB over a 40 Mbps bottleneck: ideal time is 1 s + slow start.
        let (mut sim, db, _flow) = run_transfer(5_000_000, None);
        let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
        assert_eq!(server.completed.len(), 1, "transfer must complete");
        let t = server.completed[0];
        assert_eq!(t.bytes, 5_000_000);
        let tput = t.throughput().mbps();
        // Should reach a large fraction of the 40 Mbps bottleneck.
        assert!(tput > 25.0, "throughput only {tput} Mbps");
        // Loss is expected (queue overflow in slow start overshoot), and
        // recovery must have worked: receiver got every byte.
        let client: &mut ReceiverEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
        assert_eq!(client.receiver().contiguous_bytes(), 5_000_000);
    }

    #[test]
    fn paced_transfer_respects_rate_and_avoids_loss() {
        // Pace at 10 Mbps, well under the 40 Mbps bottleneck.
        let (mut sim, db, flow) = run_transfer(5_000_000, Some(10e6));
        let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
        assert_eq!(server.completed.len(), 1);
        let t = server.completed[0];
        let tput = t.throughput().mbps();
        assert!(tput < 10.5, "pace exceeded: {tput} Mbps");
        assert!(tput > 8.5, "pace underused: {tput} Mbps");
        // Pacing below capacity: zero drops, zero retransmits.
        assert_eq!(server.sender().stats().retx_bytes, 0);
        assert_eq!(sim.flow_stats(flow).dropped_packets, 0);
    }

    #[test]
    fn unpaced_fills_queue_paced_does_not() {
        let (sim_unpaced, db_u, _) = run_transfer(5_000_000, None);
        let max_q_unpaced = sim_unpaced
            .link(db_u.forward)
            .queue
            .stats()
            .max_occupied_bytes;
        let (sim_paced, db_p, _) = run_transfer(5_000_000, Some(10e6));
        let max_q_paced = sim_paced
            .link(db_p.forward)
            .queue
            .stats()
            .max_occupied_bytes;
        assert!(
            max_q_unpaced > 5 * max_q_paced.max(1),
            "unpaced {max_q_unpaced} vs paced {max_q_paced}"
        );
    }

    #[test]
    fn rtt_telemetry_recorded() {
        let (mut sim, db, _) = run_transfer(2_000_000, Some(10e6));
        let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
        let digest = server.sender().rtt_digest();
        assert!(digest.count() > 100);
        // Paced flow on an empty 5 ms network: median RTT near 5 ms.
        let med = digest.median();
        assert!(med > 4.9 && med < 7.0, "median rtt {med} ms");
    }
}
