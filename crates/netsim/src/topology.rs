//! The topology builder.
//!
//! Every packet experiment runs on one path: senders, one contended queue,
//! receivers. [`SharedTopology::build`] builds it and installs its routes,
//! leaving the caller to attach endpoints to the host nodes: one CDN origin
//! serves N clients through a shared ISP core link, and cross-traffic host
//! pairs contend on the same core queue. Every other link is fast, short
//! and deep-queued, so the core queue is the only one that matters.
//!
//! [`Dumbbell`] is the paper's lab (§6) seen through that builder: one
//! session and `pairs - 1` cross pairs, named as left hosts (senders) and
//! right hosts (receivers) around the bottleneck.

use crate::engine::Simulator;
use crate::link::LinkConfig;
use crate::packet::{LinkId, NodeId};
use crate::time::SimDuration;
use crate::units::Rate;

/// Configuration for a dumbbell: the lab's bottleneck and its host pairs.
#[derive(Debug, Clone, Copy)]
pub struct DumbbellConfig {
    /// Bottleneck line rate.
    pub bottleneck_rate: Rate,
    /// Round-trip propagation time across the whole path (split between the
    /// two bottleneck directions; edge links add negligible delay).
    pub rtt: SimDuration,
    /// Bottleneck queue size as a multiple of the bandwidth-delay product.
    pub queue_bdp_multiple: f64,
    /// Number of sender/receiver host pairs.
    pub pairs: usize,
}

impl Default for DumbbellConfig {
    /// The paper's lab setup (§6): 40 Mbps bottleneck, 5 ms RTT, 4x BDP
    /// queue, one host pair.
    fn default() -> Self {
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(40.0),
            rtt: SimDuration::from_millis(5),
            queue_bdp_multiple: 4.0,
            pairs: 1,
        }
    }
}

/// A built dumbbell: left hosts (senders), right hosts (receivers), and the
/// two bottleneck directions.
///
/// `left[0]` / `right[0]` are the shared topology's origin and its one
/// client; `left[i]` / `right[i]` for `i >= 1` are its cross-traffic pairs.
/// Host `left[i]` reaches `right[i]` and back.
#[derive(Debug)]
pub struct Dumbbell {
    /// Host nodes on the left (conventionally servers / senders).
    pub left: Vec<NodeId>,
    /// Host nodes on the right (conventionally clients / receivers).
    pub right: Vec<NodeId>,
    /// Bottleneck link carrying left-to-right traffic (the congested
    /// direction in all experiments: data flows server -> client).
    pub forward: LinkId,
    /// Bottleneck link carrying right-to-left traffic (ACKs, requests).
    pub reverse: LinkId,
}

impl Dumbbell {
    /// Build the dumbbell inside `sim` and install all routes.
    ///
    /// # Panics
    /// Panics if `pairs` is zero.
    pub fn build(sim: &mut Simulator, cfg: DumbbellConfig) -> Self {
        let st = SharedTopology::build(sim, cfg.into());
        Dumbbell {
            left: [st.origin].into_iter().chain(st.cross_sources).collect(),
            right: st.clients.into_iter().chain(st.cross_sinks).collect(),
            forward: st.core_down,
            reverse: st.core_up,
        }
    }
}

/// Configuration for a [`SharedTopology`]: how many sessions and cross
/// pairs share the core link, and the core link itself.
#[derive(Debug, Clone, Copy)]
pub struct SharedTopologyConfig {
    /// Number of video clients hanging off the access router.
    pub sessions: usize,
    /// Number of cross-traffic host pairs: sources attach at the core
    /// router, sinks at the access router, so cross flows contend on the
    /// ISP core queue and nothing else.
    pub cross_pairs: usize,
    /// ISP core: core <-> access, both directions. This is the shared
    /// bottleneck; give it an AQM/FQ/shaper discipline via
    /// `core.discipline`.
    pub core: LinkConfig,
}

impl From<DumbbellConfig> for SharedTopologyConfig {
    /// The lab's path: one session and `pairs - 1` cross pairs on its
    /// bottleneck. Each direction carries half the propagation RTT; the
    /// queue is sized from the full RTT's BDP, as in the paper.
    ///
    /// # Panics
    /// Panics if `pairs` is zero.
    fn from(db: DumbbellConfig) -> Self {
        assert!(db.pairs >= 1, "need at least one host pair");
        SharedTopologyConfig {
            sessions: 1,
            cross_pairs: db.pairs - 1,
            core: LinkConfig::with_bdp_queue(
                db.bottleneck_rate,
                SimDuration::from_nanos(db.rtt.as_nanos() / 2),
                db.rtt,
                db.queue_bdp_multiple,
            ),
        }
    }
}

impl Default for SharedTopologyConfig {
    /// The paper's lab at one session: [`DumbbellConfig::default`].
    fn default() -> Self {
        DumbbellConfig::default().into()
    }
}

/// A built shared-bottleneck topology:
///
/// ```text
/// origin ==cdn== core ==ISP core== access --access--> client_0..N-1
///                 |                  |
///            cross sources      cross sinks
/// ```
///
/// All video sessions share every hop; cross traffic shares exactly the
/// ISP core queue (`core_down`).
#[derive(Debug)]
pub struct SharedTopology {
    /// CDN origin node (attach the multi-flow server endpoint here).
    pub origin: NodeId,
    /// ISP core router.
    pub core: NodeId,
    /// Access/aggregation router.
    pub access: NodeId,
    /// Client hosts, one per session.
    pub clients: Vec<NodeId>,
    /// Cross-traffic source hosts (attached at the core router).
    pub cross_sources: Vec<NodeId>,
    /// Cross-traffic sink hosts (attached at the access router).
    pub cross_sinks: Vec<NodeId>,
    /// origin -> core (CDN egress, shared by all sessions).
    pub cdn_down: LinkId,
    /// core -> origin (request/ACK return).
    pub cdn_up: LinkId,
    /// core -> access: THE shared bottleneck queue.
    pub core_down: LinkId,
    /// access -> core.
    pub core_up: LinkId,
    /// access -> client_i, one per session.
    pub access_down: Vec<LinkId>,
    /// client_i -> access.
    pub access_up: Vec<LinkId>,
}

impl SharedTopology {
    /// Build the topology inside `sim` and install all routes.
    ///
    /// # Panics
    /// Panics if `sessions` is zero.
    pub fn build(sim: &mut Simulator, cfg: SharedTopologyConfig) -> Self {
        assert!(cfg.sessions >= 1, "need at least one session");
        // Every link but the core: fast, short, deep-queued so it never
        // interferes.
        let edge = LinkConfig::new(
            Rate::from_gbps(1.0),
            SimDuration::from_micros(10),
            64 * 1024 * 1024,
        );
        let origin = sim.add_node();
        let core = sim.add_node();
        let access = sim.add_node();

        let (cdn_down, cdn_up) = sim.add_duplex_link(origin, core, edge);
        let (core_down, core_up) = sim.add_duplex_link(core, access, cfg.core);

        // Shared-path routes toward the origin.
        sim.add_route(core, origin, cdn_up);
        sim.add_route(access, origin, core_up);

        let mut clients = Vec::with_capacity(cfg.sessions);
        let mut access_down = Vec::with_capacity(cfg.sessions);
        let mut access_up = Vec::with_capacity(cfg.sessions);
        for _ in 0..cfg.sessions {
            let c = sim.add_node();
            let (down, up) = sim.add_duplex_link(access, c, edge);
            sim.add_route(origin, c, cdn_down);
            sim.add_route(core, c, core_down);
            sim.add_route(access, c, down);
            sim.add_route(c, origin, up);
            clients.push(c);
            access_down.push(down);
            access_up.push(up);
        }

        let mut cross_sources = Vec::with_capacity(cfg.cross_pairs);
        let mut cross_sinks = Vec::with_capacity(cfg.cross_pairs);
        for _ in 0..cfg.cross_pairs {
            let src = sim.add_node();
            let sink = sim.add_node();
            let (src_up, src_down) = sim.add_duplex_link(src, core, edge);
            let (sink_up, sink_down) = sim.add_duplex_link(sink, access, edge);
            // Forward: src -> core -> (shared core queue) -> access -> sink.
            sim.add_route(src, sink, src_up);
            sim.add_route(core, sink, core_down);
            sim.add_route(access, sink, sink_down);
            // Reverse: sink -> access -> core -> src.
            sim.add_route(sink, src, sink_up);
            sim.add_route(access, src, core_up);
            sim.add_route(core, src, src_down);
            cross_sources.push(src);
            cross_sinks.push(sink);
        }

        SharedTopology {
            origin,
            core,
            access,
            clients,
            cross_sources,
            cross_sinks,
            cdn_down,
            cdn_up,
            core_down,
            core_up,
            access_down,
            access_up,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Endpoint, NodeCtx};
    use crate::packet::{FlowId, Packet, Payload};
    use crate::time::SimTime;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Sink {
        arrived: Rc<RefCell<Vec<(SimTime, FlowId)>>>,
    }
    impl Endpoint for Sink {
        fn on_packet(&mut self, now: SimTime, pkt: Packet, _ctx: &mut NodeCtx) {
            self.arrived.borrow_mut().push((now, pkt.flow));
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _ctx: &mut NodeCtx) {}
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn default_matches_paper_lab() {
        let cfg = DumbbellConfig::default();
        assert_eq!(cfg.bottleneck_rate, Rate::from_mbps(40.0));
        assert_eq!(cfg.rtt, SimDuration::from_millis(5));
        assert_eq!(cfg.queue_bdp_multiple, 4.0);
    }

    #[test]
    fn cross_traffic_reaches_far_side() {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(
            &mut sim,
            DumbbellConfig {
                pairs: 2,
                ..Default::default()
            },
        );
        let arrived = Rc::new(RefCell::new(Vec::new()));
        for &r in &db.right {
            sim.set_endpoint(
                r,
                Box::new(Sink {
                    arrived: arrived.clone(),
                }),
            );
        }
        // Both left hosts send to their right peers.
        for (i, (&l, &r)) in db.left.iter().zip(db.right.iter()).enumerate() {
            let pkt =
                Packet::new(l, r, FlowId(i as u64), Payload::Datagram { seq: 0 }).with_size(1500);
            sim.inject(l, pkt);
        }
        sim.run_to_completion();
        let got = arrived.borrow();
        assert_eq!(got.len(), 2);
        // RTT/2 = 2.5 ms dominates: both arrive shortly after 2.5 ms.
        for &(t, _) in got.iter() {
            assert!(t > SimTime::from_micros(2500));
            assert!(t < SimTime::from_millis(4));
        }
    }

    #[test]
    fn reverse_path_works() {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        let arrived = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            db.left[0],
            Box::new(Sink {
                arrived: arrived.clone(),
            }),
        );
        let pkt = Packet::new(
            db.right[0],
            db.left[0],
            FlowId(5),
            Payload::Datagram { seq: 1 },
        )
        .with_size(40);
        sim.inject(db.right[0], pkt);
        sim.run_to_completion();
        assert_eq!(arrived.borrow().len(), 1);
    }

    #[test]
    fn bottleneck_queue_sized_from_bdp() {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        // 40 Mbps * 5 ms = 25 kB BDP; 4x = 100 kB.
        assert_eq!(sim.link(db.forward).queue.capacity_bytes(), 100_000);
    }

    #[test]
    fn shared_default_is_the_lab_at_one_session() {
        let mut sim = Simulator::new();
        let st = SharedTopology::build(&mut sim, SharedTopologyConfig::default());
        // Core tier carries the paper-lab bottleneck: 100 kB 4x-BDP queue.
        assert_eq!(sim.link(st.core_down).queue.capacity_bytes(), 100_000);
        assert_eq!(sim.link(st.core_down).rate, Rate::from_mbps(40.0));
        assert_eq!(sim.link(st.cdn_down).rate, Rate::from_gbps(1.0));
        assert_eq!(st.clients.len(), 1);
        assert!(st.cross_sources.is_empty());
    }

    /// The dumbbell is a view, not a second builder: the same nodes and
    /// links, named left and right.
    #[test]
    fn dumbbell_is_the_shared_topology_with_cross_pairs() {
        let cfg = DumbbellConfig {
            pairs: 3,
            ..Default::default()
        };
        let (mut a, mut b) = (Simulator::new(), Simulator::new());
        let db = Dumbbell::build(&mut a, cfg);
        let st = SharedTopology::build(&mut b, cfg.into());
        assert_eq!(st.cross_sources.len(), 2);
        assert_eq!(db.left[0], st.origin);
        assert_eq!(db.left[1..], st.cross_sources[..]);
        assert_eq!(db.right[..1], st.clients[..]);
        assert_eq!(db.right[1..], st.cross_sinks[..]);
        assert_eq!((db.forward, db.reverse), (st.core_down, st.core_up));
    }

    #[test]
    fn shared_sessions_and_cross_traffic_route_end_to_end() {
        let mut sim = Simulator::new();
        let st = SharedTopology::build(
            &mut sim,
            SharedTopologyConfig {
                sessions: 3,
                cross_pairs: 2,
                ..Default::default()
            },
        );
        let arrived = Rc::new(RefCell::new(Vec::new()));
        for &n in st
            .clients
            .iter()
            .chain(&st.cross_sinks)
            .chain([st.origin, st.cross_sources[0], st.cross_sources[1]].iter())
        {
            sim.set_endpoint(
                n,
                Box::new(Sink {
                    arrived: arrived.clone(),
                }),
            );
        }
        // Origin -> every client.
        for (i, &c) in st.clients.iter().enumerate() {
            let pkt = Packet::new(st.origin, c, FlowId(i as u64), Payload::Datagram { seq: 0 })
                .with_size(1500);
            sim.inject(st.origin, pkt);
        }
        // Every client -> origin (request path).
        for (i, &c) in st.clients.iter().enumerate() {
            let pkt = Packet::new(
                c,
                st.origin,
                FlowId(10 + i as u64),
                Payload::Datagram { seq: 0 },
            )
            .with_size(40);
            sim.inject(c, pkt);
        }
        // Cross pairs both ways.
        for j in 0..2 {
            let fwd = Packet::new(
                st.cross_sources[j],
                st.cross_sinks[j],
                FlowId(20 + j as u64),
                Payload::Datagram { seq: 0 },
            )
            .with_size(1500);
            sim.inject(st.cross_sources[j], fwd);
            let rev = Packet::new(
                st.cross_sinks[j],
                st.cross_sources[j],
                FlowId(30 + j as u64),
                Payload::Datagram { seq: 1 },
            )
            .with_size(40);
            sim.inject(st.cross_sinks[j], rev);
        }
        sim.run_to_completion();
        assert_eq!(arrived.borrow().len(), 10);
    }
}
