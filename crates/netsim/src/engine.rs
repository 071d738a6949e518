//! The discrete-event simulation engine.
//!
//! The engine owns the topology (nodes and links), an event queue ordered by
//! `(time, insertion sequence)` for full determinism, and one optional
//! [`Endpoint`] per node. Protocol logic (TCP, UDP probes, video players)
//! lives in endpoints; the engine only moves packets and fires timers.
//!
//! Event flow for a packet: an endpoint emits it via [`NodeCtx::send`]; the
//! engine looks up the next-hop link in the node's routing table and enqueues
//! it. A link is busy until a *time* (`Link::free_at`), not until an event:
//! when the wire is free the head-of-line packet starts serializing at once
//! and its arrival at the far end (serialization plus propagation delay) is
//! due from then on. Only a link with a backlog arms a `LinkTxDone` at
//! `free_at`, to start the next packet; an idle hop costs one event. Arriving
//! packets at their destination are handed to that node's endpoint; at
//! intermediate nodes they are forwarded onward.
//!
//! ## Hot-path layout
//!
//! Endpoint callbacks append what they emit to two `Vec`s that live for
//! the one callback — empty ones allocate nothing, and lending run-long
//! scratch buffers instead bought 3 %, under the 5 % bar (DESIGN.md §11);
//! routing tables and per-link/per-flow state are dense vectors indexed by
//! the id newtypes, and endpoint timers — the dominant event class under
//! pacing — live in a binary heap of their own beside the packet event heap,
//! so neither kind sifts through the other's population. Timers and packet
//! events draw `seq` from one global counter, so the merged dispatch order
//! is exactly the single-heap `(at, seq)` order.
//!
//! A wire is a FIFO. The packets a link has started wait for their arrival
//! in `Link::wire`, already in `(at, seq)` order, and the packet heap holds
//! one `PacketArrive` per link — its front's — not one per packet in flight.
//! Each arrival still draws its `seq` when its packet starts, so dispatch
//! order is what a heap of every arrival would give; dispatching one puts
//! the wire's next front in its place with one sift.

use crate::link::{Link, LinkConfig};
use crate::packet::{FlowId, LinkId, NodeId, Packet, PacketId, PacketRef, PacketStore};
use crate::queue::{Dequeue, EnqueueResult};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};

/// Protocol logic attached to a node.
///
/// Implementations receive arriving packets and expired timers, and react by
/// emitting packets and arming timers through the [`NodeCtx`].
pub trait Endpoint {
    /// A packet addressed to this node arrived.
    fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx);

    /// A timer armed with [`NodeCtx::set_timer`] expired. `token` is the
    /// value passed when arming.
    fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx);

    /// Downcast hook so experiments can inspect endpoint state after a run
    /// via [`Simulator::endpoint_mut`]. Implementations return `self`.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// The interface an [`Endpoint`] uses to act on the network.
///
/// Borrows the two buffers one callback's output is collected in.
pub struct NodeCtx<'a> {
    node: NodeId,
    out: &'a mut Vec<Packet>,
    timers: &'a mut Vec<(SimTime, u64)>,
}

impl NodeCtx<'_> {
    /// The node this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Emit a packet. The engine routes it from this node toward `pkt.dst`.
    pub fn send(&mut self, pkt: Packet) {
        self.out.push(pkt);
    }

    /// The packets emitted so far in this callback, for a sender that
    /// pushes its output straight in; each is routed as [`send`](Self::send)
    /// would route it.
    pub fn outbox(&mut self) -> &mut Vec<Packet> {
        self.out
    }

    /// Arm a timer to fire at absolute time `at` with the given token.
    /// Timers are not cancellable; endpoints must ignore stale tokens.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, token));
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// The wire frees (`Link::free_at`) with packets waiting behind it.
    /// Armed only behind a backlog, at most one per link at a time.
    LinkTxDone(LinkId),
    /// A non-work-conserving queue (token-bucket shaper) asked to be
    /// re-polled at this time: enough tokens will have accrued to release
    /// the head-of-line packet.
    LinkWake(LinkId),
    /// The packet at the front of this link's wire reached the far end.
    /// One is scheduled per link with packets on its wire, keyed by the
    /// front's `(at, seq)`; the rest wait in the link's FIFO (`Link::wire`).
    PacketArrive(LinkId),
}

/// A heap entry: `what` is due at `at`. Every comparison keys on
/// `(at, seq)` alone — the payload must never influence queue order (or
/// equality), and `seq` is globally unique so the order is total and
/// deterministic.
#[derive(Debug, Clone, Copy)]
struct Due<T> {
    at: SimTime,
    seq: u64,
    what: T,
}

impl<T> PartialEq for Due<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<T> Eq for Due<T> {}

impl<T> Ord for Due<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<T> PartialOrd for Due<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Node {
    /// Next-hop link per destination, indexed by `NodeId` (dense; `None`
    /// where no route is installed).
    routes: Vec<Option<LinkId>>,
    endpoint: Option<Box<dyn Endpoint>>,
}

/// Per-flow delivery statistics maintained by the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Bytes delivered to the destination node (wire bytes, incl. headers).
    pub delivered_bytes: u64,
    /// Packets delivered to the destination node.
    pub delivered_packets: u64,
    /// Packets of this flow dropped at any queue.
    pub dropped_packets: u64,
    /// Bytes of this flow dropped at any queue.
    pub dropped_bytes: u64,
    /// Packets this flow's sources handed to the network (first hop only;
    /// forwarding at intermediate nodes does not re-count).
    pub injected_packets: u64,
    /// Bytes this flow's sources handed to the network.
    pub injected_bytes: u64,
}

/// Flow ids below this index live in the dense stats table; anything larger
/// (experiments occasionally grind through synthetic id spaces) falls back to
/// a hash map so the table cannot balloon.
const DENSE_FLOWS: u64 = 4096;

/// The error returned by [`Simulator::run_with_budget`] when the event
/// budget is exhausted before the queue drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Total events processed by the simulator when the budget ran out.
    pub processed_events: u64,
    /// Simulated time reached when the budget ran out.
    pub at: SimTime,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event budget exceeded at t={:?} after {} events",
            self.at, self.processed_events
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// The discrete-event network simulator.
#[derive(Default)]
pub struct Simulator {
    now: SimTime,
    seq: u64,
    /// Packet events (`LinkTxDone`, `LinkWake`, and one `PacketArrive` per
    /// link with packets on its wire).
    events: BinaryHeap<Reverse<Due<EventKind>>>,
    /// Endpoint timers; shares the `seq` counter with `events` so the merged
    /// dispatch order equals the historical single-heap order.
    timers: BinaryHeap<Reverse<Due<(NodeId, u64)>>>,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Every packet currently inside the network (queued, or on a link's
    /// wire: serializing or propagating). The hot loop moves 24-byte
    /// [`PacketRef`]s; full packets are copied out only at final delivery.
    /// Id reuse follows event order, so it is deterministic.
    store: PacketStore,
    /// Dense per-flow stats indexed by `FlowId` (ids < `DENSE_FLOWS`).
    flow_stats: Vec<FlowStats>,
    /// Fallback for out-of-range flow ids.
    flow_stats_overflow: HashMap<FlowId, FlowStats>,
    processed_events: u64,
    /// Scratch buffer for CoDel's head drops surfaced by `Queue::dequeue`.
    scratch_dropped: Vec<PacketRef>,
    /// `(at, seq)` of the most recently dispatched event (validate feature):
    /// dispatch keys must be strictly increasing across the two-heap merge.
    #[cfg(feature = "validate")]
    last_dispatch: Option<(SimTime, u64)>,
}

impl Simulator {
    /// Create an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn processed_events(&self) -> u64 {
        self.processed_events
    }

    /// Add a node (initially a pure router with no endpoint).
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            routes: Vec::new(),
            endpoint: None,
        });
        id
    }

    /// Attach protocol logic to a node.
    ///
    /// # Panics
    /// Panics if the node already has an endpoint.
    pub fn set_endpoint(&mut self, node: NodeId, ep: Box<dyn Endpoint>) {
        let slot = &mut self.nodes[node.0].endpoint;
        assert!(slot.is_none(), "node {node:?} already has an endpoint");
        *slot = Some(ep);
    }

    /// Borrow a node's endpoint downcast to its concrete type.
    ///
    /// Returns `None` if the node has no endpoint or it is of a different
    /// type.
    pub fn endpoint_mut<T: Endpoint + 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.nodes[node.0]
            .endpoint
            .as_mut()
            .and_then(|ep| ep.as_any().downcast_mut::<T>())
    }

    /// Add a unidirectional link and return its id.
    pub(crate) fn add_link(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) -> LinkId {
        assert!(
            src.0 < self.nodes.len() && dst.0 < self.nodes.len(),
            "unknown node"
        );
        let id = LinkId(self.links.len());
        self.links.push(Link::new(src, dst, cfg));
        id
    }

    /// Add a bidirectional connection as two symmetric links.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
        (self.add_link(a, b, cfg), self.add_link(b, a, cfg))
    }

    /// Install a route: packets at `at` destined for `dst` take `via`.
    ///
    /// # Panics
    /// Panics if `via` does not originate at `at`.
    pub fn add_route(&mut self, at: NodeId, dst: NodeId, via: LinkId) {
        assert_eq!(
            self.links[via.0].src, at,
            "route via a link not at this node"
        );
        let routes = &mut self.nodes[at.0].routes;
        if routes.len() <= dst.0 {
            routes.resize(dst.0 + 1, None);
        }
        routes[dst.0] = Some(via);
    }

    /// Immutable access to a link (for reading counters and queue state).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Mutable access to a link (e.g. to reset measurement high-water
    /// marks between experiment phases).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    /// Change a link's line rate mid-run (failure injection, diurnal
    /// capacity models). The packet currently being serialized finishes at
    /// the old rate (its `free_at` and arrival are already fixed); queued
    /// packets serialize at the new rate.
    pub fn set_link_rate(&mut self, id: LinkId, rate: crate::units::Rate) {
        self.links[id.0].rate = rate;
    }

    /// Delivery statistics for a flow (zeros if the flow never delivered).
    pub fn flow_stats(&self, flow: FlowId) -> FlowStats {
        if flow.0 < DENSE_FLOWS {
            self.flow_stats
                .get(flow.0 as usize)
                .copied()
                .unwrap_or_default()
        } else {
            self.flow_stats_overflow
                .get(&flow)
                .copied()
                .unwrap_or_default()
        }
    }

    fn flow_stats_mut(&mut self, flow: FlowId) -> &mut FlowStats {
        if flow.0 < DENSE_FLOWS {
            let i = flow.0 as usize;
            if self.flow_stats.len() <= i {
                self.flow_stats.resize(i + 1, FlowStats::default());
            }
            &mut self.flow_stats[i]
        } else {
            self.flow_stats_overflow.entry(flow).or_default()
        }
    }

    /// Inject a packet into the network from `from` at the current time, as
    /// if an endpoint at that node had sent it.
    pub fn inject(&mut self, from: NodeId, mut pkt: Packet) {
        pkt.sent_at = self.now;
        let st = self.flow_stats_mut(pkt.flow);
        st.injected_packets += 1;
        st.injected_bytes += pkt.size;
        let dst = pkt.dst;
        let pref = self.store.insert(pkt);
        self.route_packet(from, dst, pref);
    }

    /// Arm a timer for a node's endpoint. Endpoints arm theirs through
    /// [`NodeCtx::set_timer`]; from outside this bootstraps a protocol (e.g.
    /// fire token 0 at t=0 to start a flow).
    pub fn start_timer(&mut self, node: NodeId, at: SimTime, token: u64) {
        let timer = self.due(at, (node, token));
        self.timers.push(timer);
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let event = self.due(at, kind);
        self.events.push(event);
    }

    /// Stamp a heap entry with the next sequence number: the one counter
    /// both heaps draw from.
    fn due<T>(&mut self, at: SimTime, what: T) -> Reverse<Due<T>> {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        Reverse(Due { at, seq, what })
    }

    /// Route a packet leaving `from` toward `dst`: pick the next hop and
    /// enqueue it. A dropped packet's store id is freed here.
    fn route_packet(&mut self, from: NodeId, dst: NodeId, pkt: PacketRef) {
        let Some(via) = self.nodes[from.0].routes.get(dst.0).copied().flatten() else {
            panic!("no route from {from:?} to {dst:?}");
        };
        let now = self.now;
        let queue = &mut self.links[via.0].queue;
        match queue.enqueue(now, pkt) {
            EnqueueResult::Accepted => {
                obs::observe!(
                    "netsim.link.queue_depth_bytes",
                    queue.occupied_bytes() as f64
                );
                self.kick_link(via);
            }
            EnqueueResult::Dropped => self.drop_packet(pkt),
        }
    }

    /// Account a packet a queue dropped, on arrival or from its head, to
    /// its flow, and free its store id.
    fn drop_packet(&mut self, pkt: PacketRef) {
        obs::counter!("netsim.link.drops", 1);
        obs::trace_event!(LinkDrop, self.now.as_nanos(), pkt.flow.0, pkt.size);
        let st = self.flow_stats_mut(pkt.flow);
        st.dropped_packets += 1;
        st.dropped_bytes += pkt.size;
        self.store.discard(pkt.id);
    }

    /// Offer a link its next packet: the one place a packet starts
    /// serializing, a `LinkTxDone` is armed or a wake is scheduled. On a
    /// free wire the head-of-line packet starts now and its arrival is armed
    /// now. AQM head-drops are accounted here; a shaper's `Wait` schedules a
    /// deduplicated `LinkWake`.
    fn kick_link(&mut self, id: LinkId) {
        let now = self.now;
        if self.links[id.0].wire_busy(now) {
            self.arm_tx_done(id);
            return;
        }
        let mut dropped = std::mem::take(&mut self.scratch_dropped);
        match self.links[id.0].transmit_next(now, &mut dropped) {
            Dequeue::Packet(pkt) => {
                let link = &self.links[id.0];
                let arrive = link.free_at + link.delay;
                // The arrival draws its seq now, as if it had its own heap
                // entry; it gets one only as the front of the wire.
                let Reverse(due) = self.due(arrive, EventKind::PacketArrive(id));
                if self.links[id.0].push_wire(due.at, due.seq, pkt.id) {
                    self.events.push(Reverse(due));
                }
                self.arm_tx_done(id);
            }
            Dequeue::Wait(at) => {
                // Never wake in the past/present (a stale Wait would spin),
                // and skip if an earlier-or-equal wake is already pending.
                let at = at.max(now + SimDuration::from_nanos(1));
                let pending = self.links[id.0].wake_at;
                if pending.is_none_or(|w| w <= now || at < w) {
                    self.links[id.0].wake_at = Some(at);
                    self.push_event(at, EventKind::LinkWake(id));
                }
            }
            Dequeue::Empty => {}
        }
        for pkt in dropped.drain(..) {
            self.drop_packet(pkt);
        }
        self.scratch_dropped = dropped;
    }

    /// A busy wire with a backlog re-polls its queue when it frees: arm the
    /// link's `LinkTxDone` at `free_at` unless one is already pending.
    fn arm_tx_done(&mut self, id: LinkId) {
        let link = &mut self.links[id.0];
        if !link.done_pending && !link.queue.is_empty() {
            link.done_pending = true;
            let at = link.free_at;
            self.push_event(at, EventKind::LinkTxDone(id));
        }
    }

    /// Run one event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        // Merge the packet heap and the timer heap by (at, seq): both draw
        // seq from the same counter, so the pair is unique and the merged
        // order is the historical single-queue order.
        let packet_key = self.events.peek().map(|Reverse(e)| (e.at, e.seq));
        let timer_key = self.timers.peek().map(|Reverse(e)| (e.at, e.seq));
        let (take_timer, (at, seq)) = match (packet_key, timer_key) {
            (None, None) => return false,
            (None, Some(t)) => (true, t),
            (Some(p), None) => (false, p),
            (Some(p), Some(t)) => (t < p, t.min(p)),
        };
        obs::counter!("netsim.engine.events", 1);
        // Tagged invariant first: under `validate` a backwards clock must
        // surface as [dispatch-order], not a bare debug_assert.
        self.check_dispatch(at, seq);
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.processed_events += 1;
        if take_timer {
            let Reverse(e) = self.timers.pop().expect("peeked entry vanished");
            let (node, token) = e.what;
            self.with_endpoint(node, |ep, ctx| ep.on_timer(at, token, ctx));
        } else {
            let top = self.events.peek_mut().expect("peeked event vanished");
            match top.0.what {
                EventKind::PacketArrive(id) => {
                    let link = &mut self.links[id.0];
                    let (_, _, pid) = link.wire.pop_front().expect("arrival off an empty wire");
                    match link.wire.front() {
                        // The wire's next packet takes the top's place: one
                        // sift down instead of a pop and a push.
                        Some(&(at, seq, _)) => {
                            let mut top = top;
                            (top.0.at, top.0.seq) = (at, seq);
                        }
                        None => {
                            PeekMut::pop(top);
                        }
                    }
                    let node = link.dst;
                    self.deliver(node, pid);
                }
                EventKind::LinkTxDone(id) => {
                    PeekMut::pop(top);
                    self.links[id.0].done_pending = false;
                    self.kick_link(id);
                }
                EventKind::LinkWake(id) => {
                    PeekMut::pop(top);
                    let link = &mut self.links[id.0];
                    if link.wake_at.is_some_and(|w| w <= self.now) {
                        link.wake_at = None;
                    }
                    self.kick_link(id);
                }
            }
        }
        true
    }

    /// Dispatch-order invariant: the clock never runs backwards and the
    /// merged two-heap stream dispatches in strictly increasing
    /// `(time, seq)` — the global event order every golden test pins.
    #[cfg(feature = "validate")]
    fn check_dispatch(&mut self, at: SimTime, seq: u64) {
        crate::invariant!(
            "dispatch-order",
            at >= self.now,
            "event at {:?} behind clock {:?}",
            at,
            self.now
        );
        if let Some((pt, ps)) = self.last_dispatch {
            crate::invariant!(
                "dispatch-order",
                (at, seq) > (pt, ps),
                "dispatch key ({:?}, {}) not after ({:?}, {})",
                at,
                seq,
                pt,
                ps
            );
        }
        self.last_dispatch = Some((at, seq));
    }

    #[cfg(not(feature = "validate"))]
    #[inline(always)]
    fn check_dispatch(&mut self, _at: SimTime, _seq: u64) {}

    /// Mutant mode: jump the clock a minute forward without dispatching
    /// anything, so the next pending event — ACK clock, pacing release, or
    /// at minimum the armed RTO — appears to fire in the past (a reordered
    /// tick). Must trip `dispatch-order` on the next [`step`](Self::step).
    #[cfg(feature = "validate")]
    pub fn mutant_reorder_tick(&mut self) {
        self.now += crate::time::SimDuration::from_secs(60);
    }

    /// Mutant mode: free a packet-store id that is already on the free
    /// list, as a buggy dealloc path would. Must trip `packet-store`.
    ///
    /// # Panics
    /// Panics (as intended) via the invariant; also panics if no id has
    /// ever cycled through the free list (drive some traffic first).
    #[cfg(feature = "validate")]
    pub fn mutant_store_double_free(&mut self) {
        self.store.mutant_double_free_recycled();
    }

    /// Mutant mode: leak bytes in the first link's queue accounting.
    /// Must trip `queue-byte-conservation`.
    #[cfg(feature = "validate")]
    pub fn mutant_queue_byte_leak(&mut self) {
        let link = self.links.first_mut().expect("no links in topology");
        link.queue.mutant_leak_dropped_bytes(1_500);
    }

    /// Mutant mode: claim a packet was injected without sending anything,
    /// as a buggy source-accounting path would. Must trip
    /// `topology-packet-conservation`.
    #[cfg(feature = "validate")]
    pub fn mutant_phantom_inject(&mut self) {
        self.flow_stats_mut(FlowId(0)).injected_packets += 1;
        self.check_topology_conservation();
    }

    /// Mutant mode: shorten every link's propagation delay mid-run, as a
    /// write to a public `delay` field could. The next packet a link with
    /// packets on its wire starts lands ahead of them: must trip
    /// `wire-order`.
    #[cfg(feature = "validate")]
    pub fn mutant_shorten_delays(&mut self) {
        for link in &mut self.links {
            link.delay = SimDuration::ZERO;
        }
    }

    /// Shared-queue conservation across the whole topology: every packet a
    /// source injected is delivered, dropped, or still live in the packet
    /// store, and every live packet is queued on some hop or on some wire.
    /// Checked at run boundaries — O(links + flows), off the per-event path.
    #[cfg(feature = "validate")]
    pub fn check_topology_conservation(&self) {
        let mut injected = 0u64;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for st in self
            .flow_stats
            .iter()
            .chain(self.flow_stats_overflow.values())
        {
            injected += st.injected_packets;
            delivered += st.delivered_packets;
            dropped += st.dropped_packets;
        }
        // Cross-check the store's live count against the link census.
        let queued: u64 = self.links.iter().map(|l| l.queue.len() as u64).sum();
        let on_wire: u64 = self.links.iter().map(|l| l.wire.len() as u64).sum();
        let live = self.store.live() as u64;
        crate::invariant!(
            "topology-packet-conservation",
            queued + on_wire == live,
            "queued {} + on the wire {} != live store count {}",
            queued,
            on_wire,
            live
        );
        crate::invariant!(
            "topology-packet-conservation",
            injected == delivered + dropped + live,
            "injected {} != delivered {} + dropped {} + live {} (queued {})",
            injected,
            delivered,
            dropped,
            live,
            queued
        );
    }

    #[cfg(not(feature = "validate"))]
    #[inline(always)]
    fn check_topology_conservation(&self) {}

    fn deliver(&mut self, node: NodeId, pid: PacketId) {
        let dst = self.store.dst(pid);
        if dst != node {
            // Intermediate hop: keep forwarding — only the handle moves,
            // the packet stays in the store.
            let pkt = self.store.make_ref(pid);
            self.route_packet(node, dst, pkt);
            return;
        }
        let pkt = self.store.take(pid);
        let st = self.flow_stats_mut(pkt.flow);
        st.delivered_bytes += pkt.size;
        st.delivered_packets += 1;
        let now = self.now;
        self.with_endpoint(node, |ep, ctx| ep.on_packet(now, pkt, ctx));
    }

    /// Run one callback on `node`'s endpoint (a node without one ignores
    /// the event), collecting what it emits through a [`NodeCtx`], then
    /// apply it. The endpoint is moved out for the call so `apply_ctx` can
    /// borrow `self` mutably.
    fn with_endpoint(&mut self, node: NodeId, call: impl FnOnce(&mut dyn Endpoint, &mut NodeCtx)) {
        let Some(mut ep) = self.nodes[node.0].endpoint.take() else {
            return;
        };
        let mut out = Vec::new();
        let mut timers = Vec::new();
        let mut ctx = NodeCtx {
            node,
            out: &mut out,
            timers: &mut timers,
        };
        call(ep.as_mut(), &mut ctx);
        self.nodes[node.0].endpoint = Some(ep);
        self.apply_ctx(node, &mut out, &mut timers);
    }

    /// Drain one callback's output into the queues. Timers first,
    /// then packets — the historical seq-assignment order, which golden
    /// tests pin.
    fn apply_ctx(&mut self, node: NodeId, out: &mut Vec<Packet>, timers: &mut Vec<(SimTime, u64)>) {
        for (at, token) in timers.drain(..) {
            self.start_timer(node, at.max(self.now), token);
        }
        for pkt in out.drain(..) {
            self.inject(node, pkt);
        }
    }

    /// Process all events up to and including `deadline`, then set the clock
    /// to `deadline`. Events after the deadline stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.next_event_time().is_some_and(|t| t <= deadline) {
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.check_topology_conservation();
        self.now
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) -> SimTime {
        while self.step() {}
        self.check_topology_conservation();
        self.now
    }

    /// Run until no events remain or `max_events` further events have been
    /// processed, whichever comes first. A drained queue returns `Ok`; an
    /// exhausted budget with events still pending returns the
    /// [`BudgetExceeded`] error so runaway scenarios (routing loops,
    /// self-rearming timers) fail loudly instead of spinning forever.
    pub fn run_with_budget(&mut self, max_events: u64) -> Result<SimTime, BudgetExceeded> {
        let limit = self.processed_events.saturating_add(max_events);
        while self.processed_events < limit && self.step() {}
        self.check_topology_conservation();
        if self.next_event_time().is_none() {
            Ok(self.now)
        } else {
            Err(BudgetExceeded {
                processed_events: self.processed_events,
                at: self.now,
            })
        }
    }

    /// Time of the next pending event, if any.
    fn next_event_time(&self) -> Option<SimTime> {
        let packet_t = self.events.peek().map(|Reverse(e)| e.at);
        let timer_t = self.timers.peek().map(|Reverse(e)| e.at);
        packet_t.into_iter().chain(timer_t).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use crate::time::SimDuration;
    use crate::units::Rate;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records arrival times of packets and timer firings.
    struct Recorder {
        arrivals: Rc<RefCell<Vec<(SimTime, Packet)>>>,
        timers: Rc<RefCell<Vec<(SimTime, u64)>>>,
    }

    impl Endpoint for Recorder {
        fn on_packet(&mut self, now: SimTime, pkt: Packet, _ctx: &mut NodeCtx) {
            self.arrivals.borrow_mut().push((now, pkt));
        }
        fn on_timer(&mut self, now: SimTime, token: u64, _ctx: &mut NodeCtx) {
            self.timers.borrow_mut().push((now, token));
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn two_node_sim(
        rate_mbps: f64,
        delay: SimDuration,
    ) -> (Simulator, NodeId, NodeId, LinkId, LinkId) {
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let b = sim.add_node();
        let cfg = LinkConfig::new(Rate::from_mbps(rate_mbps), delay, 1_000_000);
        let (ab, ba) = sim.add_duplex_link(a, b, cfg);
        sim.add_route(a, b, ab);
        sim.add_route(b, a, ba);
        (sim, a, b, ab, ba)
    }

    #[test]
    fn packet_delivery_timing() {
        // 12 Mbps: a 1500 B packet serializes in 1 ms, plus 5 ms propagation.
        let (mut sim, a, b, _, _) = two_node_sim(12.0, SimDuration::from_millis(5));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
                timers,
            }),
        );

        let pkt = Packet::new(a, b, FlowId(1), Payload::Datagram { seq: 0 }).with_size(1500);
        sim.inject(a, pkt);
        sim.run_to_completion();

        let got = arrivals.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, SimTime::from_millis(6));
        let st = sim.flow_stats(FlowId(1));
        assert_eq!(st.delivered_packets, 1);
        assert_eq!(st.delivered_bytes, 1500);
    }

    #[test]
    fn back_to_back_packets_serialize_sequentially() {
        let (mut sim, a, b, _, _) = two_node_sim(12.0, SimDuration::from_millis(5));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
                timers,
            }),
        );

        for seq in 0..3 {
            let pkt = Packet::new(a, b, FlowId(1), Payload::Datagram { seq }).with_size(1500);
            sim.inject(a, pkt);
        }
        sim.run_to_completion();

        let got = arrivals.borrow();
        assert_eq!(got.len(), 3);
        // Arrivals at 6, 7, 8 ms: serialization is the spacing bottleneck.
        assert_eq!(got[0].0, SimTime::from_millis(6));
        assert_eq!(got[1].0, SimTime::from_millis(7));
        assert_eq!(got[2].0, SimTime::from_millis(8));
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let b = sim.add_node();
        // Queue fits 2 x 1500.
        let cfg = LinkConfig::new(Rate::from_mbps(1.0), SimDuration::from_millis(1), 3000);
        let ab = sim.add_link(a, b, cfg);
        sim.add_route(a, b, ab);

        for seq in 0..5 {
            let pkt = Packet::new(a, b, FlowId(9), Payload::Datagram { seq }).with_size(1500);
            sim.inject(a, pkt);
        }
        sim.run_to_completion();
        let st = sim.flow_stats(FlowId(9));
        // One on the wire, two queued, two dropped.
        assert_eq!(st.delivered_packets, 3);
        assert_eq!(st.dropped_packets, 2);
        assert_eq!(st.dropped_bytes, 3000);
        assert_eq!(st.injected_packets, 5);
        assert_eq!(st.injected_bytes, 7500);
        assert_eq!(sim.link(ab).queue.stats().drops, 2);
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, _a, b, _, _) = two_node_sim(10.0, SimDuration::from_millis(1));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                arrivals,
                timers: timers.clone(),
            }),
        );

        sim.start_timer(b, SimTime::from_millis(30), 3);
        sim.start_timer(b, SimTime::from_millis(10), 1);
        sim.start_timer(b, SimTime::from_millis(20), 2);
        sim.run_to_completion();

        let got = timers.borrow();
        assert_eq!(
            got.as_slice(),
            &[
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(20), 2),
                (SimTime::from_millis(30), 3)
            ]
        );
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let (mut sim, _a, b, _, _) = two_node_sim(10.0, SimDuration::from_millis(1));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                arrivals,
                timers: timers.clone(),
            }),
        );

        let t = SimTime::from_millis(5);
        for token in 0..10 {
            sim.start_timer(b, t, token);
        }
        sim.run_to_completion();
        let got = timers.borrow();
        let tokens: Vec<u64> = got.iter().map(|&(_, tok)| tok).collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn multi_hop_forwarding() {
        // a -- r -- b: packets from a to b are forwarded through r.
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let r = sim.add_node();
        let b = sim.add_node();
        let cfg = LinkConfig::new(Rate::from_mbps(12.0), SimDuration::from_millis(2), 100_000);
        let ar = sim.add_link(a, r, cfg);
        let rb = sim.add_link(r, b, cfg);
        sim.add_route(a, b, ar);
        sim.add_route(r, b, rb);

        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
                timers,
            }),
        );

        let pkt = Packet::new(a, b, FlowId(2), Payload::Datagram { seq: 0 }).with_size(1500);
        sim.inject(a, pkt);
        sim.run_to_completion();

        let got = arrivals.borrow();
        assert_eq!(got.len(), 1);
        // Two hops: 2 x (1 ms serialize + 2 ms propagate) = 6 ms.
        assert_eq!(got[0].0, SimTime::from_millis(6));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, _a, b, _, _) = two_node_sim(10.0, SimDuration::from_millis(1));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                arrivals,
                timers: timers.clone(),
            }),
        );

        sim.start_timer(b, SimTime::from_millis(10), 1);
        sim.start_timer(b, SimTime::from_millis(50), 2);
        let t = sim.run_until(SimTime::from_millis(20));
        assert_eq!(t, SimTime::from_millis(20));
        assert_eq!(timers.borrow().len(), 1);
        sim.run_to_completion();
        assert_eq!(timers.borrow().len(), 2);
    }

    #[test]
    fn run_with_budget_flags_pending_work() {
        let (mut sim, _a, b, _, _) = two_node_sim(10.0, SimDuration::from_millis(1));
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(b, Box::new(Recorder { arrivals, timers }));
        for token in 0..10 {
            sim.start_timer(b, SimTime::from_millis(token + 1), token);
        }

        let err = sim.run_with_budget(4).unwrap_err();
        assert_eq!(err.processed_events, 4);
        assert_eq!(err.at, SimTime::from_millis(4));
        assert_eq!(sim.processed_events(), 4);

        // The remaining six fit; a drained queue is Ok even at exact budget.
        let t = sim.run_with_budget(6).unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        assert!(sim.run_with_budget(0).is_ok());
    }

    #[test]
    fn next_event_time_sees_timers_and_packets() {
        let (mut sim, a, b, _, _) = two_node_sim(12.0, SimDuration::from_millis(5));
        assert_eq!(sim.next_event_time(), None);
        sim.start_timer(b, SimTime::from_millis(50), 1);
        assert_eq!(sim.next_event_time(), Some(SimTime::from_millis(50)));
        let pkt = Packet::new(a, b, FlowId(1), Payload::Datagram { seq: 0 }).with_size(1500);
        sim.inject(a, pkt);
        // A lone packet arms only its arrival (1 ms to serialize + 5 ms to
        // propagate), which now precedes the timer.
        assert_eq!(sim.next_event_time(), Some(SimTime::from_millis(6)));
    }

    #[test]
    fn shaped_link_paces_deliveries_via_wakeups() {
        // 100 Mbps line, 8 Mbps token-bucket shaper with a one-packet
        // burst: deliveries must be spaced ~1 ms by LinkWake events, not
        // by serialization (which takes only 80 us).
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let b = sim.add_node();
        let cfg = LinkConfig::new(
            Rate::from_mbps(100.0),
            SimDuration::from_millis(1),
            1_000_000,
        )
        .with_discipline(crate::queue::Discipline::TokenBucket(
            crate::shaper::TokenBucketConfig::new(Rate::from_mbps(8.0), 1_000),
        ));
        let ab = sim.add_link(a, b, cfg);
        sim.add_route(a, b, ab);

        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            b,
            Box::new(Recorder {
                arrivals: arrivals.clone(),
                timers,
            }),
        );
        for seq in 0..4 {
            let pkt = Packet::new(a, b, FlowId(3), Payload::Datagram { seq }).with_size(1_000);
            sim.inject(a, pkt);
        }
        sim.run_to_completion();

        let got = arrivals.borrow();
        assert_eq!(got.len(), 4);
        // First packet rides the stored burst; each next waits ~1 ms for
        // tokens. Gaps between consecutive arrivals must be ~1 ms.
        for w in got.windows(2) {
            let gap = w[1].0 - w[0].0;
            let gap_us = gap.as_nanos() / 1_000;
            assert!(
                (950..=1_100).contains(&gap_us),
                "arrival gap {gap_us} us, expected ~1000"
            );
        }
        assert_eq!(sim.flow_stats(FlowId(3)).delivered_packets, 4);
    }

    #[test]
    fn packet_larger_than_the_bucket_is_dropped_not_wedged() {
        // 100 Mbps line, 8 Mbps shaper with a 1 000 B bucket: a 1 500 B
        // datagram could never gather its tokens. It is dropped on arrival
        // and the two 500 B datagrams behind it still go out.
        let mut sim = Simulator::new();
        let (a, b) = (sim.add_node(), sim.add_node());
        let shaper = crate::shaper::TokenBucketConfig::new(Rate::from_mbps(8.0), 1_000);
        let cfg = LinkConfig::new(
            Rate::from_mbps(100.0),
            SimDuration::from_millis(1),
            1_000_000,
        )
        .with_discipline(crate::queue::Discipline::TokenBucket(shaper));
        let ab = sim.add_link(a, b, cfg);
        sim.add_route(a, b, ab);
        for (seq, size) in [1_500, 500, 500].into_iter().enumerate() {
            let pkt = Packet::new(a, b, FlowId(3), Payload::Datagram { seq: seq as u64 });
            sim.inject(a, pkt.with_size(size));
        }
        assert!(sim.run_with_budget(1_000_000).is_ok(), "the link wedged");
        let st = sim.flow_stats(FlowId(3));
        assert_eq!((st.delivered_packets, st.dropped_packets), (2, 1));
        assert_eq!(st.dropped_bytes, 1_500);
        assert_eq!(sim.link(ab).queue.stats().drops, 1);
    }

    // ---- a link is busy until a time: what that costs in events ----

    /// A 1500 B datagram of flow 1 (1 ms on a 12 Mbps wire).
    fn dgram(from: NodeId, to: NodeId, seq: u64) -> Packet {
        Packet::new(from, to, FlowId(1), Payload::Datagram { seq }).with_size(1500)
    }

    /// Attach a [`Recorder`] to `node` and return its arrival log.
    fn record_arrivals(sim: &mut Simulator, node: NodeId) -> Rc<RefCell<Vec<(SimTime, Packet)>>> {
        let arrivals = Rc::new(RefCell::new(Vec::new()));
        let timers = Rc::new(RefCell::new(Vec::new()));
        let recorder = Recorder {
            arrivals: arrivals.clone(),
            timers,
        };
        sim.set_endpoint(node, Box::new(recorder));
        arrivals
    }

    fn arrival_times(log: &RefCell<Vec<(SimTime, Packet)>>) -> Vec<SimTime> {
        log.borrow().iter().map(|&(at, _)| at).collect()
    }

    /// On each timer, sends one datagram to `to` with the token as its seq.
    struct SendOnTimer {
        to: NodeId,
    }

    impl Endpoint for SendOnTimer {
        fn on_packet(&mut self, _now: SimTime, _pkt: Packet, _ctx: &mut NodeCtx) {}
        fn on_timer(&mut self, _now: SimTime, token: u64, ctx: &mut NodeCtx) {
            ctx.send(dgram(ctx.node(), self.to, token));
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn idle_path_costs_one_event_per_hop() {
        for k in [1u64, 2, 5] {
            // a -> r1 -> r2 -> b over three equal 12 Mbps / 2 ms hops.
            let mut sim = Simulator::new();
            let nodes: Vec<NodeId> = (0..4).map(|_| sim.add_node()).collect();
            let (a, b) = (nodes[0], nodes[3]);
            let cfg = LinkConfig::new(Rate::from_mbps(12.0), SimDuration::from_millis(2), 100_000);
            for hop in nodes.windows(2) {
                let id = sim.add_link(hop[0], hop[1], cfg);
                sim.add_route(hop[0], b, id);
            }
            for seq in 0..k {
                sim.inject(a, dgram(a, b, seq));
            }
            sim.run_to_completion();
            assert_eq!(sim.flow_stats(FlowId(1)).delivered_packets, k);
            // One PacketArrive per hop. Only the first hop ever has a
            // backlog (it re-spaces the burst to the rate of the next two,
            // where each packet arrives as the wire frees): one LinkTxDone
            // per packet that waited there.
            assert_eq!(sim.processed_events(), 3 * k + (k - 1), "k = {k}");
        }
    }

    /// Every `period`, sends a burst of `burst` datagrams of its flow to
    /// `to`.
    struct Burster {
        to: NodeId,
        flow: FlowId,
        burst: u64,
        period: SimDuration,
    }

    impl Endpoint for Burster {
        fn on_packet(&mut self, _now: SimTime, _pkt: Packet, _ctx: &mut NodeCtx) {}
        fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
            for i in 0..self.burst {
                let seq = token * self.burst + i;
                let pkt = Packet::new(ctx.node(), self.to, self.flow, Payload::Datagram { seq });
                ctx.send(pkt.with_size(1500));
            }
            ctx.set_timer(now + self.period, token + 1);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Answers every packet with a small one back to its source.
    struct Echo;

    impl Endpoint for Echo {
        fn on_packet(&mut self, _now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
            let reply = Packet::new(ctx.node(), pkt.src, pkt.flow, Payload::Datagram { seq: 0 });
            ctx.send(reply.with_size(64));
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _ctx: &mut NodeCtx) {}
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// What reading state between `run_until` steps relies on (the lab's
    /// 100 ms srtt and core-queue samples): stepping to a
    /// deadline in slices processes the same events as one `run_until`,
    /// with timers firing on the slice boundaries and a queue that
    /// overflows across them.
    #[test]
    fn run_until_in_slices_equals_one_run_until() {
        use crate::topology::{Dumbbell, DumbbellConfig};
        let end = SimTime::from_millis(2050);
        let run = |slice: Option<SimDuration>| {
            let mut sim = Simulator::new();
            let db = Dumbbell::build(
                &mut sim,
                DumbbellConfig {
                    pairs: 2,
                    ..Default::default()
                },
            );
            // 30 x 1500 B every 7 ms is ~51 Mbps into the 40 Mbps
            // bottleneck; the 20 ms one lands on every slice boundary.
            for (pair, burst, ms) in [(0, 30, 7), (1, 10, 20)] {
                let burster = Burster {
                    to: db.right[pair],
                    flow: FlowId(1 + pair as u64),
                    burst,
                    period: SimDuration::from_millis(ms),
                };
                sim.set_endpoint(db.left[pair], Box::new(burster));
                sim.set_endpoint(db.right[pair], Box::new(Echo));
                sim.start_timer(db.left[pair], SimTime::ZERO, 0);
            }
            if let Some(slice) = slice {
                let mut at = SimTime::ZERO;
                while at < end {
                    sim.run_until(at);
                    at += slice;
                }
            }
            sim.run_until(end);
            let flows = [FlowId(1), FlowId(2)].map(|f| format!("{:?}", sim.flow_stats(f)));
            let queues =
                [db.forward, db.reverse].map(|l| format!("{:?}", sim.link(l).queue.stats()));
            let drops = sim.link(db.forward).queue.stats().drops;
            (sim.now(), sim.processed_events(), flows, queues, drops)
        };
        let whole = run(None);
        assert_eq!(run(Some(SimDuration::from_millis(100))), whole);
        assert_eq!(run(Some(SimDuration::from_micros(333))), whole);
        // The scenario is not trivially quiet: the bottleneck dropped.
        assert!(whole.4 > 0, "{whole:?}");
    }

    /// What is pending: packet-heap entries, and packets on wires (each
    /// with an arrival due; only a wire's front has a heap entry).
    fn pending(sim: &Simulator) -> (usize, usize) {
        let on_wire = sim.links.iter().map(|l| l.wire.len()).sum();
        (sim.events.len(), on_wire)
    }

    #[test]
    fn tx_done_is_armed_only_behind_a_backlog() {
        let (mut sim, a, b, ab, _) = two_node_sim(12.0, SimDuration::from_millis(5));
        let arrivals = record_arrivals(&mut sim, b);
        // A lone packet: its arrival, nothing else.
        sim.inject(a, dgram(a, b, 0));
        assert_eq!(pending(&sim), (1, 1));
        assert!(!sim.link(ab).done_pending);
        // The first packet to queue behind it arms the one LinkTxDone; the
        // second finds it pending.
        sim.inject(a, dgram(a, b, 1));
        assert_eq!(pending(&sim), (2, 1));
        assert!(sim.link(ab).done_pending);
        sim.inject(a, dgram(a, b, 2));
        assert_eq!(pending(&sim), (2, 1));

        // 1 ms: packet 1 starts with packet 2 still behind it -> re-armed.
        assert!(sim.step());
        assert_eq!(sim.now(), SimTime::from_millis(1));
        assert!(sim.link(ab).done_pending);
        // 2 ms: packet 2 starts and leaves the queue empty -> not re-armed.
        // Three arrivals are due, behind the one heap entry of the wire.
        assert!(sim.step());
        assert_eq!(sim.now(), SimTime::from_millis(2));
        assert!(!sim.link(ab).done_pending);
        assert_eq!(pending(&sim), (1, 3));

        // A packet that finds the wire long free arms only its arrival.
        sim.run_until(SimTime::from_millis(20));
        sim.inject(a, dgram(a, b, 3));
        assert!(!sim.link(ab).done_pending);
        sim.run_to_completion();
        let at_ms = [6, 7, 8, 26].map(SimTime::from_millis);
        assert_eq!(arrival_times(&arrivals), at_ms);
        // Four arrivals and the two LinkTxDones.
        assert_eq!(sim.processed_events(), 6);
    }

    #[test]
    fn arrival_heap_holds_one_entry_per_link() {
        // 1 ms to serialize, 5 ms to propagate: by 4 ms the k = 5 packets
        // injected back to back are all on the wire, none queued.
        let (mut sim, a, b, ab, ba) = two_node_sim(12.0, SimDuration::from_millis(5));
        let arrivals = record_arrivals(&mut sim, b);
        let k = 5;
        for seq in 0..k {
            sim.inject(a, dgram(a, b, seq));
        }
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(sim.link(ab).queue.len(), 0);
        assert_eq!(pending(&sim), (1, k as usize));
        // A packet on the other link is that link's one entry.
        sim.inject(b, dgram(b, a, k));
        assert_eq!(pending(&sim), (2, k as usize + 1));
        assert_eq!(sim.link(ba).wire.len(), 1);

        sim.run_to_completion();
        assert_eq!(pending(&sim), (0, 0));
        let got: Vec<(SimTime, Payload)> = arrivals
            .borrow()
            .iter()
            .map(|(at, pkt)| (*at, pkt.payload))
            .collect();
        let expect = (0..k).map(|seq| (SimTime::from_millis(6 + seq), Payload::Datagram { seq }));
        assert_eq!(got, expect.collect::<Vec<_>>());
        // Four LinkTxDones, k + 1 arrivals.
        assert_eq!(sim.processed_events(), 4 + k + 1);
    }

    #[test]
    fn packet_reaching_the_wire_as_it_frees_starts_at_once() {
        // Packet 0 holds the wire until exactly 1 ms; a timer at 1 ms sends
        // packet 1. Whether that timer was armed before packet 0 started or
        // during its serialization, packet 1 starts at 1 ms.
        let run = |timer_first: bool| {
            let (mut sim, a, b, ab, _) = two_node_sim(12.0, SimDuration::from_millis(5));
            let arrivals = record_arrivals(&mut sim, b);
            sim.set_endpoint(a, Box::new(SendOnTimer { to: b }));
            if timer_first {
                sim.start_timer(a, SimTime::from_millis(1), 1);
            }
            sim.inject(a, dgram(a, b, 0));
            if !timer_first {
                sim.start_timer(a, SimTime::from_millis(1), 1);
            }
            sim.run_to_completion();
            let stats = *sim.link(ab).queue.stats();
            (
                arrival_times(&arrivals),
                sim.processed_events(),
                (stats.drops, stats.max_occupied_bytes),
                sim.link(ab).packets_sent,
            )
        };
        let (arrivals, events, queue, sent) = run(true);
        assert_eq!(arrivals, [6, 7].map(SimTime::from_millis));
        // The timer and two arrivals: no LinkTxDone on either side.
        assert_eq!(events, 3);
        assert_eq!(queue, (0, 1500));
        assert_eq!(sent, 2);
        assert_eq!(run(false), (arrivals, events, queue, sent));
    }

    #[test]
    fn packet_reaching_the_wire_as_it_frees_waits_behind_a_backlog() {
        // Packets 0 and 1 at t = 0: 1 waits for the LinkTxDone at 1 ms. The
        // timer armed before them dispatches first at 1 ms (lower seq) and
        // sends packet 2 onto a wire that is free by the clock, but a
        // backlogged link starts its next packet at its LinkTxDone's place
        // in the dispatch order, not at whichever event ties with it.
        let (mut sim, a, b, ab, _) = two_node_sim(12.0, SimDuration::from_millis(5));
        let arrivals = record_arrivals(&mut sim, b);
        sim.set_endpoint(a, Box::new(SendOnTimer { to: b }));
        sim.start_timer(a, SimTime::from_millis(1), 2);
        sim.inject(a, dgram(a, b, 0));
        sim.inject(a, dgram(a, b, 1));
        assert!(sim.step());
        assert_eq!(sim.now(), SimTime::from_millis(1));
        assert_eq!(sim.link(ab).queue.len(), 2);
        assert_eq!(sim.link(ab).packets_sent, 1);
        sim.run_to_completion();
        let seqs: Vec<(SimTime, Payload)> = arrivals
            .borrow()
            .iter()
            .map(|(at, pkt)| (*at, pkt.payload))
            .collect();
        let expect =
            [0, 1, 2].map(|seq| (SimTime::from_millis(6 + seq), Payload::Datagram { seq }));
        assert_eq!(seqs, expect);
        assert_eq!(sim.link(ab).queue.stats().max_occupied_bytes, 3000);
    }

    #[test]
    fn link_wake_on_a_busy_wire_starts_nothing() {
        // A shaper with tokens to spare on a 12 Mbps wire. A wake made stale
        // by an earlier one fires at 0.5 ms, mid-serialization: it must not
        // start a second packet, and arms a LinkTxDone only for a backlog.
        let run = |packets: u64| {
            let mut sim = Simulator::new();
            let (a, b) = (sim.add_node(), sim.add_node());
            let shaper = crate::shaper::TokenBucketConfig::new(Rate::from_mbps(100.0), 10_000);
            let cfg = LinkConfig::new(Rate::from_mbps(12.0), SimDuration::from_millis(5), 100_000)
                .with_discipline(crate::queue::Discipline::TokenBucket(shaper));
            let ab = sim.add_link(a, b, cfg);
            sim.add_route(a, b, ab);
            let arrivals = record_arrivals(&mut sim, b);
            for seq in 0..packets {
                sim.inject(a, dgram(a, b, seq));
            }
            sim.push_event(SimTime::from_micros(500), EventKind::LinkWake(ab));
            sim.run_to_completion();
            (arrival_times(&arrivals), sim.processed_events())
        };
        // Alone on the wire: the wake and the arrival, no LinkTxDone.
        assert_eq!(run(1), (vec![SimTime::from_millis(6)], 2));
        // With one queued: the LinkTxDone armed at t = 0 is the only one.
        let at_ms = [6, 7].map(SimTime::from_millis).to_vec();
        assert_eq!(run(2), (at_ms, 4));
    }

    #[test]
    fn set_link_rate_mid_serialization_spares_the_wire_packet() {
        let (mut sim, a, b, ab, _) = two_node_sim(12.0, SimDuration::from_millis(5));
        let arrivals = record_arrivals(&mut sim, b);
        sim.inject(a, dgram(a, b, 0));
        sim.inject(a, dgram(a, b, 1));
        sim.run_until(SimTime::from_micros(500));
        sim.set_link_rate(ab, Rate::from_mbps(6.0));
        sim.run_to_completion();
        // Packet 0 finishes at the old rate (1 ms + 5 ms); packet 1 starts
        // at 1 ms and takes 2 ms at the new one.
        assert_eq!(arrival_times(&arrivals), [6, 8].map(SimTime::from_millis));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let b = sim.add_node();
        let pkt = Packet::new(a, b, FlowId(1), Payload::Datagram { seq: 0 });
        sim.inject(a, pkt);
    }

    #[test]
    fn flow_stats_dense_overflow_boundary() {
        let (mut sim, a, b, _, _) = two_node_sim(100.0, SimDuration::from_millis(1));
        // Ids straddling the dense/overflow boundary, in mixed order so the
        // dense table grows out of order too.
        let ids = [
            DENSE_FLOWS,
            0,
            DENSE_FLOWS - 1,
            u64::MAX,
            7,
            DENSE_FLOWS + 1,
        ];
        for (seq, &id) in ids.iter().enumerate() {
            let pkt = Packet::new(a, b, FlowId(id), Payload::Datagram { seq: seq as u64 })
                .with_size(1_000);
            sim.inject(a, pkt);
        }
        sim.run_to_completion();
        for &id in &ids {
            let st = sim.flow_stats(FlowId(id));
            assert_eq!(st.injected_packets, 1, "flow {id}");
            assert_eq!(st.delivered_packets, 1, "flow {id}");
            assert_eq!(st.delivered_bytes, 1_000, "flow {id}");
        }
        // The dense table stops at the boundary; large ids go to the map.
        assert!(sim.flow_stats.len() <= DENSE_FLOWS as usize);
        assert_eq!(sim.flow_stats_overflow.len(), 3);
        assert!(sim.flow_stats_overflow.keys().all(|f| f.0 >= DENSE_FLOWS));
        // Untouched flows read back as zeros on both sides of the boundary.
        assert_eq!(sim.flow_stats(FlowId(3)).injected_packets, 0);
        assert_eq!(sim.flow_stats(FlowId(DENSE_FLOWS + 99)).injected_packets, 0);
    }

    // ---- dispatch order against a flat reference model ----
    //
    // A random script of timers and packets on a four-node ring
    // a → r → b → r' → a (endpoints at a and b, two hops each way), where
    // dispatching one op arms its children. `Model` is the engine's ordering
    // contract in its plainest form: one unsorted list, one arming counter,
    // next = minimum `(at, armed)`.

    /// What one dispatched event showed the outside world.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        Timer(u64),
        Packet(u64),
        /// `LinkTxDone`, or an arrival at a router: no endpoint runs.
        Internal,
    }

    /// One `(time, seen)` per dispatched event.
    type DispatchLog = Rc<RefCell<Vec<(SimTime, Seen)>>>;

    struct Op {
        packet: bool,
        /// Timer delay from arming (unused by packets).
        delay: SimDuration,
        /// Armed when this earlier op dispatches; `None` = armed up front.
        parent: Option<usize>,
    }

    const ENDS: [NodeId; 2] = [NodeId(0), NodeId(2)];
    const PROP_DELAY: SimDuration = SimDuration::from_millis(2);
    /// Added to a timer's half-millisecond grid delay. Packet events land on
    /// that grid (0.5 or 1 ms to serialize, 2 ms to propagate), so timers tie
    /// with them to the nanosecond or miss by one; the last two offsets lie
    /// beyond 2^36 ns.
    const OFFSETS_NS: [u64; 4] = [0, 1, 70_000_000_000, 140_000_000_000];

    /// Op `i` as a packet from `from` to the other end, 1500 B or 750 B.
    fn op_packet(i: usize, from: NodeId) -> Packet {
        let (seq, to) = (i as u64, NodeId((from.0 + 2) % 4));
        Packet::new(from, to, FlowId(seq), Payload::Datagram { seq })
            .with_size(if i.is_multiple_of(2) { 1500 } else { 750 })
    }

    /// The endpoint at both ends: logs what it sees, arms the op's children
    /// in script order (the engine applies one callback's timers first).
    struct Scripted {
        script: Rc<Vec<Op>>,
        log: DispatchLog,
    }

    impl Scripted {
        fn dispatched(&self, seen: Seen, i: u64, now: SimTime, ctx: &mut NodeCtx) {
            self.log.borrow_mut().push((now, seen));
            for (child, op) in armed_by(&self.script, Some(i as usize)) {
                if op.packet {
                    ctx.send(op_packet(child, ctx.node()));
                } else {
                    ctx.set_timer(now + op.delay, child as u64);
                }
            }
        }
    }

    impl Endpoint for Scripted {
        fn on_packet(&mut self, now: SimTime, pkt: Packet, ctx: &mut NodeCtx) {
            self.dispatched(Seen::Packet(pkt.flow.0), pkt.flow.0, now, ctx);
        }
        fn on_timer(&mut self, now: SimTime, token: u64, ctx: &mut NodeCtx) {
            self.dispatched(Seen::Timer(token), token, now, ctx);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// The ops armed when `parent` dispatches (`None`: from outside, up
    /// front, alternating between the two ends), in script order.
    fn armed_by(script: &[Op], parent: Option<usize>) -> impl Iterator<Item = (usize, &Op)> {
        let ops = script.iter().enumerate();
        ops.filter(move |(_, op)| op.parent == parent)
    }

    /// The real engine with the script's roots armed.
    fn scripted_sim(script: &Rc<Vec<Op>>) -> (Simulator, DispatchLog) {
        let mut sim = Simulator::new();
        let log = DispatchLog::default();
        for _ in 0..4 {
            sim.add_node();
        }
        for end in ENDS {
            let (script, log) = (script.clone(), log.clone());
            sim.set_endpoint(end, Box::new(Scripted { script, log }));
        }
        let cfg = LinkConfig::new(Rate::from_mbps(12.0), PROP_DELAY, 1_000_000);
        for n in 0..4 {
            let id = sim.add_link(NodeId(n), NodeId((n + 1) % 4), cfg);
            sim.add_route(NodeId(n), ENDS[(n < 2) as usize], id);
        }
        for (i, op) in armed_by(script, None) {
            let node = ENDS[i % 2];
            if op.packet {
                sim.inject(node, op_packet(i, node));
            } else {
                sim.start_timer(node, SimTime::ZERO + op.delay, i as u64);
            }
        }
        (sim, log)
    }

    enum ModelEvent {
        Timer(NodeId, u64),
        /// Link `n` (node `n` to node `n + 1`) frees with a backlog.
        TxDone(usize),
        Arrive(NodeId, Packet),
    }

    #[derive(Default)]
    struct Model {
        now: SimTime,
        armed: u64,
        pending: Vec<(SimTime, u64, ModelEvent)>,
        /// Per link: when the wire frees, whether a `TxDone` is armed for
        /// that instant, and the packets waiting.
        free_at: [SimTime; 4],
        done_pending: [bool; 4],
        queued: [std::collections::VecDeque<Packet>; 4],
    }

    impl Model {
        fn arm(&mut self, at: SimTime, ev: ModelEvent) {
            self.pending.push((at, self.armed, ev));
            self.armed += 1;
        }

        /// Node `from` forwards `pkt` onto its one outgoing link.
        fn send(&mut self, from: NodeId, pkt: Packet) {
            self.queued[from.0].push_back(pkt);
            self.start(from.0);
        }

        /// A free wire takes the head packet and arms its arrival at once;
        /// a `TxDone` is armed only behind a backlog, one at a time.
        fn start(&mut self, link: usize) {
            if !self.done_pending[link] && self.now >= self.free_at[link] {
                let Some(pkt) = self.queued[link].pop_front() else {
                    return;
                };
                // 12 Mbps: 1500 B in 1 ms, 750 B in 0.5 ms.
                self.free_at[link] = self.now + SimDuration::from_micros(pkt.size * 2 / 3);
                let far_end = NodeId((link + 1) % 4);
                self.arm(
                    self.free_at[link] + PROP_DELAY,
                    ModelEvent::Arrive(far_end, pkt),
                );
            }
            if !self.done_pending[link] && !self.queued[link].is_empty() {
                self.done_pending[link] = true;
                self.arm(self.free_at[link], ModelEvent::TxDone(link));
            }
        }

        /// Run `call` on the scripted endpoint as `node`'s, then arm what it
        /// emitted: its timers first, then its packets.
        fn callback(
            &mut self,
            ep: &mut Scripted,
            node: NodeId,
            call: impl FnOnce(&mut Scripted, &mut NodeCtx),
        ) {
            let (mut out, mut timers) = (Vec::new(), Vec::new());
            call(
                ep,
                &mut NodeCtx {
                    node,
                    out: &mut out,
                    timers: &mut timers,
                },
            );
            for (at, token) in timers {
                self.arm(at, ModelEvent::Timer(node, token));
            }
            for pkt in out {
                self.send(node, pkt);
            }
        }

        /// Dispatch the whole script; the log has one entry per event.
        fn run(script: &Rc<Vec<Op>>) -> Vec<(SimTime, Seen)> {
            let (mut m, log) = (Model::default(), DispatchLog::default());
            let mut ep = Scripted {
                script: script.clone(),
                log: log.clone(),
            };
            for (i, op) in armed_by(script, None) {
                let node = ENDS[i % 2];
                if op.packet {
                    m.send(node, op_packet(i, node));
                } else {
                    m.arm(SimTime::ZERO + op.delay, ModelEvent::Timer(node, i as u64));
                }
            }
            while let Some(next) =
                (0..m.pending.len()).min_by_key(|&k| (m.pending[k].0, m.pending[k].1))
            {
                let (now, _, ev) = m.pending.swap_remove(next);
                m.now = now;
                match ev {
                    ModelEvent::Timer(node, token) => {
                        m.callback(&mut ep, node, |ep, ctx| ep.on_timer(now, token, ctx));
                        continue;
                    }
                    ModelEvent::Arrive(node, pkt) if node == pkt.dst => {
                        m.callback(&mut ep, node, |ep, ctx| ep.on_packet(now, pkt, ctx));
                        continue;
                    }
                    ModelEvent::Arrive(node, pkt) => m.send(node, pkt),
                    ModelEvent::TxDone(link) => {
                        m.done_pending[link] = false;
                        m.start(link);
                    }
                }
                log.borrow_mut().push((now, Seen::Internal));
            }
            log.take()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(32))]

        /// The two-table flow-stats split must behave exactly like one flat
        /// map for any mix of dense, boundary, and huge flow ids.
        #[test]
        fn flow_stats_tables_match_flat_map_model(
            raw in proptest::collection::vec(
                0u64..2 * (DENSE_FLOWS + 32),
                1..128usize,
            )
        ) {
            let (mut sim, a, b, _, _) = two_node_sim(1_000.0, SimDuration::from_micros(10));
            // The upper half of each draw is reflected to the top of the id
            // space so the overflow map sees distant ids, not just
            // boundary-adjacent ones.
            let ids: Vec<u64> = raw
                .iter()
                .map(|&id| {
                    let hi = DENSE_FLOWS + 32;
                    if id >= hi { u64::MAX - (id - hi) } else { id }
                })
                .collect();
            let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
            for (seq, &id) in ids.iter().enumerate() {
                let size = 200 + (id % 1_300);
                let pkt = Packet::new(a, b, FlowId(id), Payload::Datagram { seq: seq as u64 })
                    .with_size(size);
                sim.inject(a, pkt);
                let e = model.entry(id).or_insert((0, 0));
                e.0 += 1;
                e.1 += size;
            }
            sim.run_to_completion();
            for (&id, &(pkts, bytes)) in &model {
                let st = sim.flow_stats(FlowId(id));
                proptest::prop_assert_eq!(st.injected_packets, pkts);
                proptest::prop_assert_eq!(st.injected_bytes, bytes);
                // The queue is far larger than the injected burst, so
                // everything injected must also deliver.
                proptest::prop_assert_eq!(st.delivered_packets, pkts);
            }
            proptest::prop_assert!(sim.flow_stats.len() <= DENSE_FLOWS as usize);
            proptest::prop_assert!(
                sim.flow_stats_overflow.keys().all(|f| f.0 >= DENSE_FLOWS)
            );
        }

        /// The two-heap merge dispatches in `(at, arming order)` — the one
        /// ordering contract every golden rests on — for timers and packets
        /// arming each other, nanosecond ties in both arming orders, and
        /// timers tens of seconds out; and an event budget of `n` stops
        /// after exactly `n` of those events.
        #[test]
        fn dispatch_order_matches_flat_model(
            raw in proptest::collection::vec(
                // (packet?, half-ms delay steps, delay offset, parent selector)
                (0u8..2, 0u64..14, 0usize..OFFSETS_NS.len(), 0usize..1 << 32),
                1..40usize,
            ),
            cut in 0usize..1 << 16,
        ) {
            let script: Rc<Vec<Op>> = Rc::new(
                raw.iter()
                    .enumerate()
                    .map(|(i, &(packet, half_ms, offset, sel))| Op {
                        packet: packet == 1,
                        delay: SimDuration::from_nanos(half_ms * 500_000 + OFFSETS_NS[offset]),
                        // A third of the ops start armed; the rest hang
                        // off an earlier op.
                        parent: (i > 0 && sel % 3 != 0).then(|| sel / 3 % i),
                    })
                    .collect(),
            );
            let model = Model::run(&script);

            let (mut sim, log) = scripted_sim(&script);
            let mut got = Vec::new();
            loop {
                let next = sim.next_event_time();
                let seen_before = log.borrow().len();
                if !sim.step() {
                    proptest::prop_assert_eq!(next, None);
                    break;
                }
                proptest::prop_assert_eq!(next, Some(sim.now()));
                let seen = log.borrow().get(seen_before).copied();
                got.push(seen.unwrap_or((sim.now(), Seen::Internal)));
            }
            proptest::prop_assert_eq!(&got, &model);

            let n = cut % (model.len() + 1);
            let (mut sim, log) = scripted_sim(&script);
            let outcome = sim.run_with_budget(n as u64);
            proptest::prop_assert_eq!(sim.processed_events(), n as u64);
            proptest::prop_assert_eq!(outcome.is_ok(), n == model.len());
            let mut prefix = model[..n].to_vec();
            prefix.retain(|&(_, seen)| seen != Seen::Internal);
            proptest::prop_assert_eq!(&*log.borrow(), &prefix);
        }
    }
}
