//! A long-lived bulk flow (the Fig 8b neighbor, Fig 4's cross traffic).
//!
//! [`BulkSender`] starts one large transfer at a configured time and runs
//! until the simulation ends. Its peer is a [`transport::ReceiverEndpoint`]
//! of the same protocol, whose 100 ms goodput bins experiments read to
//! report the flow's average throughput while competing with a video
//! session.

use netsim::{Endpoint, FlowId, NodeCtx, NodeId, Packet, SimTime};
use transport::{SenderEndpoint, TcpConfig};

/// Timer token for the start-of-transfer event (the hosted
/// [`SenderEndpoint`] wakes itself with token 1).
const START: u64 = 4;

/// Server side of the bulk flow: a [`SenderEndpoint`] that starts serving
/// one huge transfer, unasked, at `start_at`.
pub struct BulkSender {
    local: NodeId,
    server: SenderEndpoint,
    start_at: SimTime,
    bytes: u64,
}

impl BulkSender {
    /// A bulk sender from `local` to `remote` transferring `bytes` starting
    /// at `start_at`.
    pub fn new(
        local: NodeId,
        remote: NodeId,
        flow: FlowId,
        cfg: TcpConfig,
        bytes: u64,
        start_at: SimTime,
    ) -> Self {
        // A bulk flow queues its entire (possibly huge) transfer up front;
        // size the send buffer to fit it rather than model backpressure.
        let cfg = TcpConfig {
            send_buffer: cfg.send_buffer.max(bytes + 1),
            ..cfg
        };
        BulkSender {
            local,
            server: SenderEndpoint::new(local, remote, flow, cfg),
            start_at,
            bytes,
        }
    }

    /// Attach to the simulator and arm the start timer.
    pub fn install(self, sim: &mut netsim::Simulator) {
        let node = self.local;
        let at = self.start_at;
        sim.set_endpoint(node, Box::new(self));
        sim.start_timer(node, at, START);
    }
}

impl Endpoint for BulkSender {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        self.server.on_packet(now, pkt, ctx);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
        if token == START {
            self.server.serve(0, now, self.bytes, None, ctx);
        } else {
            self.server.on_timer(now, token, ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
