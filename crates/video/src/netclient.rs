//! The netsim-backed video client.
//!
//! [`VideoClientEndpoint`] glues a [`Player`] to the packet simulator: it
//! sends chunk requests (carrying the application-informed pace rate) to a
//! [`transport::SenderEndpoint`] acting as the CDN server, hands every
//! arriving packet to a [`transport::ReceiverEndpoint`] (which ACKs the
//! data stream, TCP or QUIC, and bins goodput), and reports completed
//! chunks back to the player.

use crate::player::{ChunkRequest, Player, PlayerState};
use netsim::{Endpoint, FlowId, NodeCtx, NodeId, Packet, Payload, SimTime};
use transport::{Protocol, ReceiverEndpoint, TransportReceiver};

/// Timer token for player-deadline wakeups.
const PLAYER_TICK: u64 = 7;

/// A pending chunk download over the transport stream.
#[derive(Debug, Clone, Copy)]
struct Pending {
    request: ChunkRequest,
    /// The chunk is complete when the contiguous byte count reaches this.
    stream_target: u64,
    requested_at: SimTime,
}

/// Client endpoint: video player + transport receiver on one node.
pub struct VideoClientEndpoint {
    local: NodeId,
    server: NodeId,
    flow: FlowId,
    /// The receive path: ACKs the data stream and keeps 100 ms goodput bins.
    data: ReceiverEndpoint,
    player: Player,
    pending: Option<Pending>,
    /// Cumulative bytes requested over the connection so far.
    requested_bytes: u64,
    /// Completed chunk log: (request, download duration) in order.
    pub completed_chunks: Vec<(ChunkRequest, netsim::SimDuration)>,
    /// Earliest outstanding player timer (dedup; engine timers are not
    /// cancellable and every data packet would otherwise arm a new chain).
    next_timer: SimTime,
}

impl VideoClientEndpoint {
    /// Create a TCP client at `local` streaming from `server` over `flow`.
    pub fn new(local: NodeId, server: NodeId, flow: FlowId, player: Player) -> Self {
        Self::with_protocol(local, server, flow, player, Protocol::Tcp)
    }

    /// Create a client speaking `protocol` (must match the server's
    /// transport).
    pub fn with_protocol(
        local: NodeId,
        server: NodeId,
        flow: FlowId,
        player: Player,
        protocol: Protocol,
    ) -> Self {
        VideoClientEndpoint {
            local,
            server,
            flow,
            data: ReceiverEndpoint::with_protocol(local, server, flow, protocol),
            player,
            pending: None,
            requested_bytes: 0,
            completed_chunks: Vec::new(),
            next_timer: SimTime::MAX,
        }
    }

    /// Attach to the simulator and kick off the session at `start`.
    pub fn install(self, sim: &mut netsim::Simulator, start: SimTime) {
        let node = self.local;
        sim.set_endpoint(node, Box::new(self));
        sim.start_timer(node, start, PLAYER_TICK);
    }

    /// The player (for QoE and state inspection after a run).
    pub fn player(&self) -> &Player {
        &self.player
    }

    /// The transport receiver (goodput inspection).
    pub fn receiver(&self) -> &TransportReceiver {
        self.data.receiver()
    }

    /// Goodput over time as `(bin start seconds, bits/sec)` — the Fig 1 /
    /// Fig 7 throughput trace.
    pub fn throughput_series(&self) -> Vec<(f64, f64)> {
        self.data.throughput.series_bps()
    }

    /// Poll the player and act: issue a request and/or arm the next timer.
    fn drive(&mut self, now: SimTime, ctx: &mut NodeCtx) {
        self.player.advance_to(now);

        // Completed download?
        if let Some(p) = self.pending {
            if self.data.receiver().contiguous_bytes() >= p.stream_target {
                let dl = now.saturating_since(p.requested_at);
                self.player.on_chunk_complete(now, dl);
                self.completed_chunks.push((p.request, dl));
                self.pending = None;
            }
        }

        // New request?
        if self.pending.is_none() && self.player.state() != PlayerState::Ended {
            if let Some(req) = self.player.poll_request(now) {
                self.requested_bytes += req.bytes;
                self.pending = Some(Pending {
                    request: req,
                    stream_target: self.requested_bytes,
                    requested_at: now,
                });
                ctx.send(Packet::new(
                    self.local,
                    self.server,
                    self.flow,
                    Payload::Request {
                        id: req.index as u64,
                        size: req.bytes,
                        pace_bps: req.pace.map(|r| r.bps()),
                    },
                ));
            }
        }

        // Arm the player's own deadline (buffer dry-out, room opening).
        // Never arm exactly at `now`: a deadline that has already arrived
        // would re-fire in the same instant without advancing player time,
        // spinning the event loop. A 1 ms nudge is far below any QoE
        // granularity. Only arm when strictly earlier than the outstanding
        // timer — engine timers are not cancellable and arming per data
        // packet would grow the event count quadratically.
        if self.next_timer <= now {
            self.next_timer = SimTime::MAX;
        }
        if let Some(deadline) = self.player.next_deadline(now) {
            let at = deadline.max(now + netsim::SimDuration::from_millis(1));
            if at < self.next_timer {
                self.next_timer = at;
                ctx.set_timer(at, PLAYER_TICK);
            }
        }
    }
}

impl Endpoint for VideoClientEndpoint {
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
        self.data.on_packet(now, pkt, ctx);
        self.drive(now, ctx);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
        if token == PLAYER_TICK {
            self.drive(now, ctx);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr_api::FixedRung;
    use crate::ladder::Ladder;
    use crate::player::PlayerConfig;
    use crate::title::{Title, TitleConfig};
    use crate::vmaf::VmafModel;
    use netsim::{Dumbbell, DumbbellConfig, SimDuration, Simulator};
    use std::sync::Arc;
    use transport::{SenderEndpoint, TcpConfig};

    fn lab_title(secs: u64) -> Arc<Title> {
        Arc::new(Title::generate(
            Ladder::lab(&VmafModel::standard()),
            &TitleConfig {
                duration: SimDuration::from_secs(secs),
                size_cv: 0.0,
                vmaf_sd: 0.0,
                seed: 1,
            },
        ))
    }

    #[test]
    fn full_session_over_packet_network() {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        let flow = FlowId(1);
        let server = SenderEndpoint::new(db.left[0], db.right[0], flow, TcpConfig::default());
        sim.set_endpoint(db.left[0], Box::new(server));

        let title = lab_title(120);
        let player = Player::new(
            title,
            Box::new(FixedRung(4)), // 3.3 Mbps top rung
            PlayerConfig::default(),
            SimTime::ZERO,
        );
        let client = VideoClientEndpoint::new(db.right[0], db.left[0], flow, player);
        client.install(&mut sim, SimTime::ZERO);

        sim.run_until(SimTime::from_secs(200));
        let client: &mut VideoClientEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
        assert_eq!(client.player().state(), PlayerState::Ended);
        let q = client.player().qoe();
        // 40 Mbps network streaming a 3.3 Mbps rung: no rebuffers, fast start.
        assert_eq!(q.rebuffer_count, 0);
        assert!(q.play_delay.unwrap() < SimDuration::from_secs(2));
        assert_eq!(q.played, SimDuration::from_secs(120));
        assert_eq!(client.completed_chunks.len(), 30);
    }
}
