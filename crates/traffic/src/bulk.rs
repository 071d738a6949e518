//! A long-lived bulk TCP flow (the Fig 8b neighbor).
//!
//! [`BulkSender`] starts one large transfer at a configured time and runs
//! until the simulation ends, recording its delivered-byte timeseries so
//! experiments can report its average throughput while competing with a
//! video session.

use netsim::{
    BinnedThroughput, Endpoint, FlowId, NodeCtx, NodeId, Packet, Payload, SimDuration, SimTime,
};
use transport::{Protocol, SenderEndpoint, TcpConfig, TcpReceiver};

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
        // Its peer is a `BulkReceiver`, which speaks TCP only.
        let cfg = TcpConfig {
            transport: Protocol::Tcp,
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
            self.server.serve(now, self.bytes, None, ctx);
        } else {
            self.server.on_timer(now, token, ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Client side: ACKs the stream and records throughput in 1-second bins.
pub struct BulkReceiver {
    receiver: TcpReceiver,
    /// Delivered-byte timeseries (1 s bins).
    pub throughput: BinnedThroughput,
}

impl BulkReceiver {
    /// A receiver at `local` for the bulk flow from `remote`.
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId) -> Self {
        BulkReceiver {
            receiver: TcpReceiver::new(local, remote, flow),
            throughput: BinnedThroughput::new(SimDuration::from_secs(1)),
        }
    }

    /// Bytes received contiguously.
    pub fn bytes(&self) -> u64 {
        self.receiver.contiguous_bytes()
    }
}

impl Endpoint for BulkReceiver {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        if let Payload::Data { len, .. } = pkt.payload {
            if let Some(ack) = self.receiver.on_data(now, &pkt) {
                self.throughput.record(now, len as u64);
                ctx.send(ack);
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, _ctx: &mut NodeCtx) {}

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
