//! Multi-flow sender endpoint for shared-bottleneck topologies.
//!
//! [`MultiSenderEndpoint`] hosts N independent [`SenderEndpoint`]s (TCP or
//! QUIC per flow) at a single node — the CDN origin of a
//! [`netsim::SharedTopology`] serves every video session from one server
//! node, so the endpoint demultiplexes arriving ACKs/requests by [`FlowId`]
//! (a scan of its slots' flow ids: the lab hosts at most eight) and each slot
//! keeps its own timer chain.
//!
//! Timer tokens are `1 + slot_index`, so a single-flow instance uses token
//! `1` — exactly the token of a stand-alone [`SenderEndpoint`] — and drives
//! the engine through an event sequence identical to the one-sender path.
//! That equivalence is what the shared-topology differential test pins down
//! byte-for-byte, and why every video session of the packet lab, one to a
//! host or N to an origin, is served from a host of this type.

use crate::core::{CompletedTransfer, TcpConfig};
use crate::endpoint::SenderEndpoint;
use netsim::{Endpoint, FlowId, NodeCtx, NodeId, Packet, SimTime};

/// A server endpoint hosting one [`SenderEndpoint`] per flow.
///
/// Flows are registered up front with [`add_flow`](Self::add_flow); packets
/// for unknown flows are ignored (same as the single-flow endpoint's flow
/// filter).
#[derive(Default)]
pub struct MultiSenderEndpoint {
    slots: Vec<SenderEndpoint>,
    /// `flows[i]` is the flow `slots[i]` serves: the demultiplexing scan
    /// reads this one short array, not a field deep in each sender.
    flows: Vec<FlowId>,
}

impl MultiSenderEndpoint {
    /// Create an endpoint with no flows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a sender for `flow` from `local` to `remote`; returns the
    /// slot index (also the timer token minus one).
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
        let slot = self.slots.len();
        let mut endpoint = SenderEndpoint::new(local, remote, flow, cfg);
        endpoint.token = 1 + slot as u64;
        self.slots.push(endpoint);
        self.flows.push(flow);
        slot
    }

    /// The slot serving `flow`, if one does.
    fn find(&self, flow: FlowId) -> Option<usize> {
        self.flows.iter().position(|&f| f == flow)
    }

    /// The single-flow endpoint in `slot` (sender, RTT trace, counters).
    pub fn slot(&self, slot: usize) -> &SenderEndpoint {
        &self.slots[slot]
    }

    /// Completed transfers drained from `slot`'s sender so far.
    pub fn completed(&self, slot: usize) -> &[CompletedTransfer] {
        &self.slots[slot].completed
    }
}

impl Endpoint for MultiSenderEndpoint {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        if let Some(slot) = self.find(pkt.flow) {
            self.slots[slot].on_packet(now, pkt, ctx);
        }
    }

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
        let slot = token
            .checked_sub(1)
            .and_then(|s| self.slots.get_mut(s as usize));
        if let Some(slot) = slot {
            slot.on_timer(now, token, ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::ReceiverEndpoint;
    use netsim::{
        Dumbbell, DumbbellConfig, Payload, SharedTopology, SharedTopologyConfig, Simulator,
    };

    fn run_single(bytes: u64, pace: Option<f64>, multi: bool) -> (u64, u64, u64) {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        let flow = FlowId(1);
        if multi {
            let mut ep = MultiSenderEndpoint::new();
            ep.add_flow(db.left[0], db.right[0], flow, TcpConfig::default());
            sim.set_endpoint(db.left[0], Box::new(ep));
        } else {
            let ep = SenderEndpoint::new(db.left[0], db.right[0], flow, TcpConfig::default());
            sim.set_endpoint(db.left[0], Box::new(ep));
        }
        sim.set_endpoint(
            db.right[0],
            Box::new(ReceiverEndpoint::new(db.right[0], db.left[0], flow)),
        );
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
        let st = sim.flow_stats(flow);
        (
            sim.processed_events(),
            st.delivered_bytes,
            st.dropped_packets,
        )
    }

    /// A one-flow MultiSenderEndpoint is event-for-event identical to the
    /// legacy SenderEndpoint: slot 0 arms timer token 1 == TICK, so the
    /// engine sees the same event sequence.
    #[test]
    fn single_flow_matches_legacy_endpoint() {
        for pace in [None, Some(10e6)] {
            let legacy = run_single(2_000_000, pace, false);
            let multi = run_single(2_000_000, pace, true);
            assert_eq!(legacy, multi, "pace {pace:?}");
        }
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
        let mut ep = MultiSenderEndpoint::new();
        // Both senders live on the origin; one receiver per client.
        for (i, flow) in [FlowId(1), FlowId(2)].into_iter().enumerate() {
            let client = topo.clients[i];
            ep.add_flow(topo.origin, client, flow, TcpConfig::default());
            sim.set_endpoint(
                client,
                Box::new(ReceiverEndpoint::new(client, topo.origin, flow)),
            );
        }
        assert_eq!(ep.slots.len(), 2);
        assert_eq!(ep.find(FlowId(2)), Some(1));
        sim.set_endpoint(topo.origin, Box::new(ep));
        for (i, flow) in [FlowId(1), FlowId(2)].into_iter().enumerate() {
            let client = topo.clients[i];
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
        let ep: &mut MultiSenderEndpoint = sim.endpoint_mut(topo.origin).unwrap();
        for slot in 0..2 {
            assert_eq!(ep.completed(slot).len(), 1, "slot {slot}");
            assert_eq!(ep.completed(slot)[0].bytes, 1_000_000);
        }
    }
}
