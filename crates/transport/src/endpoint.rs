//! Ready-made [`netsim::Endpoint`] adapters around the transport state
//! machines.
//!
//! [`SenderEndpoint`] is the one sender host: it serves 1..N flows at a
//! node, each with its own [`TransportSender`] (TCP or QUIC, per
//! [`TcpConfig::transport`]), and responds to application
//! [`Payload::Request`] messages by starting a transfer of the requested
//! size at the requested pace rate — this is the "server" side of
//! application-informed pacing: the client puts the pace rate in its request
//! (the CMCD `rtp`-style header of §3.2) and the server obeys it.
//!
//! An arriving packet finds its slot by a scan of the slots' flow ids (the
//! lab hosts at most eight, so there is no map), and slot `i` arms its
//! wakeups with timer token `1 + i`. A one-flow host (`new`) and the N-flow
//! CDN origin of a [`netsim::SharedTopology`] (`add_flow` per session) are
//! the same code, so the wakeup-timer deduplication exists once.
//!
//! [`ReceiverEndpoint`] hosts one [`TransportReceiver`] and ACKs arriving
//! data. Experiments read progress via [`ReceiverEndpoint::receiver`] and
//! goodput via its 100 ms [`ReceiverEndpoint::throughput`] bins.

use crate::core::{CompletedTransfer, TcpConfig};
use crate::mux::{self, Protocol, TransportReceiver, TransportSender};
use netsim::{
    BinnedThroughput, Endpoint, FlowId, NodeCtx, NodeId, Packet, Payload, Rate, SimDuration,
    SimTime,
};

/// One flow a [`SenderEndpoint`] serves.
struct Slot {
    sender: TransportSender,
    /// Completed transfers drained from the sender after each event.
    completed: Vec<CompletedTransfer>,
    /// Earliest outstanding timer, for deduplication: engine timers are not
    /// cancellable, so without this every ACK would arm a fresh immortal
    /// timer chain and event counts would grow quadratically.
    next_timer: SimTime,
}

/// A server endpoint: one transport sender per flow, serving transfer
/// requests.
///
/// Flows are registered up front ([`new`](Self::new) for the first,
/// [`add_flow`](Self::add_flow) for the rest); packets for unknown flows
/// are ignored.
pub struct SenderEndpoint {
    slots: Vec<Slot>,
    /// `flows[i]` is the flow `slots[i]` serves: the demultiplexing scan
    /// reads this one short array, not a field deep in each sender.
    flows: Vec<FlowId>,
}

impl SenderEndpoint {
    /// Create a sender endpoint serving one flow from `local` to `remote`
    /// (slot 0).
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        let mut host = SenderEndpoint {
            slots: Vec::new(),
            flows: Vec::new(),
        };
        host.add_flow(local, remote, flow, cfg);
        host
    }

    /// Register a sender for `flow` from `local` to `remote`; returns its
    /// slot (also its timer token minus one).
    ///
    /// # Panics
    /// Panics if `flow` is already registered.
    pub fn add_flow(
        &mut self,
        local: NodeId,
        remote: NodeId,
        flow: FlowId,
        cfg: TcpConfig,
    ) -> usize {
        assert!(
            self.find(flow).is_none(),
            "flow {flow:?} already registered"
        );
        self.slots.push(Slot {
            sender: TransportSender::new(local, remote, flow, cfg),
            completed: Vec::new(),
            next_timer: SimTime::MAX,
        });
        self.flows.push(flow);
        self.slots.len() - 1
    }

    /// The slot serving `flow`, if one does.
    fn find(&self, flow: FlowId) -> Option<usize> {
        self.flows.iter().position(|&f| f == flow)
    }

    /// The sender in `slot` (telemetry, manual transfers).
    pub fn sender(&self, slot: usize) -> &TransportSender {
        &self.slots[slot].sender
    }

    /// Mutable access to the sender in `slot`.
    pub fn sender_mut(&mut self, slot: usize) -> &mut TransportSender {
        &mut self.slots[slot].sender
    }

    /// Completed transfers drained from `slot`'s sender so far.
    pub fn completed(&self, slot: usize) -> &[CompletedTransfer] {
        &self.slots[slot].completed
    }

    /// Serve a transfer of `size` bytes paced at `pace` on `slot`, as if a
    /// request for it had just arrived.
    pub fn serve(
        &mut self,
        slot: usize,
        now: SimTime,
        size: u64,
        pace: Option<Rate>,
        ctx: &mut NodeCtx,
    ) {
        let sender = &mut self.slots[slot].sender;
        sender.start_transfer(now, size, pace);
        sender.pump(now, ctx.outbox());
        self.after_event(slot, now, ctx);
    }

    fn after_event(&mut self, slot: usize, now: SimTime, ctx: &mut NodeCtx) {
        let s = &mut self.slots[slot];
        s.completed.extend(s.sender.take_completed());
        if s.next_timer <= now {
            // The recorded timer has fired (or is firing now).
            s.next_timer = SimTime::MAX;
        }
        if let Some(wake) = s.sender.next_wakeup(now) {
            // Nudge past `now` so a stale wakeup cannot spin the event
            // loop without advancing time; only arm when strictly earlier
            // than the outstanding timer (timers are not cancellable).
            let wake = wake.max(now + SimDuration::from_micros(1));
            if wake < s.next_timer {
                s.next_timer = wake;
                ctx.set_timer(wake, 1 + slot as u64);
            }
        }
    }
}

impl Endpoint for SenderEndpoint {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        let Some(slot) = self.find(pkt.flow) else {
            return;
        };
        if !self.slots[slot]
            .sender
            .handle_packet(now, &pkt, ctx.outbox())
        {
            if let Payload::Request { size, pace_bps, .. } = pkt.payload {
                return self.serve(slot, now, size, pace_bps.map(Rate::from_bps), ctx);
            }
        }
        self.after_event(slot, now, ctx);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
        let slot = token.wrapping_sub(1) as usize;
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        s.sender.on_tick(now, ctx.outbox());
        self.after_event(slot, now, ctx);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A client-side endpoint: ACKs data, tracks goodput.
pub struct ReceiverEndpoint {
    receiver: TransportReceiver,
    /// Client-side delivered bytes in 100 ms bins (the Fig 1/7 traces,
    /// Fig 8b's neighbour throughput).
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
    use netsim::{Dumbbell, DumbbellConfig, SharedTopology, SharedTopologyConfig, Simulator};

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
        assert_eq!(server.completed(0).len(), 1, "transfer must complete");
        let t = server.completed(0)[0];
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
        assert_eq!(server.completed(0).len(), 1);
        let t = server.completed(0)[0];
        let tput = t.throughput().mbps();
        assert!(tput < 10.5, "pace exceeded: {tput} Mbps");
        assert!(tput > 8.5, "pace underused: {tput} Mbps");
        // Pacing below capacity: zero drops, zero retransmits.
        assert_eq!(server.sender(0).stats().retx_bytes, 0);
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
        let digest = server.sender(0).rtt_digest();
        assert!(digest.count() > 100);
        // Paced flow on an empty 5 ms network: median RTT near 5 ms.
        let med = digest.median();
        assert!(med > 4.9 && med < 7.0, "median rtt {med} ms");
    }

    /// Two flows served from one node complete independently and both
    /// deliver all bytes.
    #[test]
    fn two_flows_complete_independently() {
        let mut sim = Simulator::new();
        let topo = SharedTopology::build(
            &mut sim,
            SharedTopologyConfig {
                sessions: 2,
                ..Default::default()
            },
        );
        // Both senders live on the origin; one receiver per client.
        let flows = [FlowId(1), FlowId(2)];
        let (c0, c1) = (topo.clients[0], topo.clients[1]);
        let mut ep = SenderEndpoint::new(topo.origin, c0, flows[0], TcpConfig::default());
        assert_eq!(
            ep.add_flow(topo.origin, c1, flows[1], TcpConfig::default()),
            1
        );
        assert_eq!(ep.find(FlowId(2)), Some(1));
        sim.set_endpoint(topo.origin, Box::new(ep));
        for (client, flow) in [(c0, flows[0]), (c1, flows[1])] {
            sim.set_endpoint(
                client,
                Box::new(ReceiverEndpoint::new(client, topo.origin, flow)),
            );
            let req = Packet::new(
                client,
                topo.origin,
                flow,
                Payload::Request {
                    id: 0,
                    size: 1_000_000,
                    pace_bps: Some(8e6),
                },
            );
            sim.inject(client, req);
        }
        sim.run_until(SimTime::from_secs(30));
        let ep: &mut SenderEndpoint = sim.endpoint_mut(topo.origin).unwrap();
        for slot in 0..2 {
            assert_eq!(ep.completed(slot).len(), 1, "slot {slot}");
            assert_eq!(ep.completed(slot)[0].bytes, 1_000_000);
        }
    }
}
