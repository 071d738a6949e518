//! Unidirectional links.
//!
//! A [`Link`] serializes packets at a fixed line rate, holds waiting packets
//! in its [`Queue`] under the configured discipline (drop-tail by default),
//! and delivers each packet after a fixed propagation delay. Links are
//! unidirectional; a bidirectional cable is two `Link`s.
//!
//! The packets a link has started carry on along its wire as a FIFO in
//! start order. Starts only move forward (`free_at` never decreases), the
//! delay is fixed and every start draws a larger sequence number, so the
//! FIFO is also in arrival `(time, seq)` order: the engine schedules only
//! its front.

use crate::packet::{NodeId, PacketId, PacketRef};
use crate::queue::{Dequeue, Discipline, Queue};
use crate::time::{SimDuration, SimTime};
use crate::units::Rate;
use std::collections::VecDeque;

/// Configuration for a link.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Line rate.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue capacity in bytes.
    pub queue_bytes: u64,
    /// Queue discipline (drop-tail FIFO unless configured otherwise).
    pub discipline: Discipline,
}

impl LinkConfig {
    /// A link with the given rate, delay and queue size, drop-tail queued.
    pub fn new(rate: Rate, delay: SimDuration, queue_bytes: u64) -> Self {
        LinkConfig {
            rate,
            delay,
            queue_bytes,
            discipline: Discipline::DropTail,
        }
    }

    /// A link with a queue sized to `bdp_multiple` times the
    /// bandwidth-delay product computed from `rate` and `rtt`.
    ///
    /// The paper's lab setup is 40 Mbps, 5 ms RTT, queue of 4x BDP.
    pub fn with_bdp_queue(
        rate: Rate,
        delay: SimDuration,
        rtt: SimDuration,
        bdp_multiple: f64,
    ) -> Self {
        let bdp_bytes = (rate.bps() * rtt.as_secs_f64() / 8.0).ceil();
        let queue_bytes = ((bdp_bytes * bdp_multiple) as u64).max(crate::units::MTU_BYTES * 2);
        LinkConfig {
            rate,
            delay,
            queue_bytes,
            discipline: Discipline::DropTail,
        }
    }

    /// Replace the queue discipline, keeping rate/delay/capacity.
    pub fn with_discipline(mut self, discipline: Discipline) -> Self {
        self.discipline = discipline;
        self
    }
}

/// A unidirectional link between two nodes.
#[derive(Debug)]
pub struct Link {
    /// Node packets enter from.
    pub src: NodeId,
    /// Node packets are delivered to.
    pub dst: NodeId,
    /// Line rate.
    pub rate: Rate,
    /// One-way propagation delay; fixed for the link's life, which is what
    /// keeps the wire in arrival order.
    pub(crate) delay: SimDuration,
    /// Waiting packets, behind the configured discipline.
    pub queue: Queue,
    /// Packets serializing or propagating, as `(arrival, seq, id)` in start
    /// order, which is also `(arrival, seq)` order. The engine's packet-event
    /// heap holds one `PacketArrive` for the front, none for the rest.
    pub(crate) wire: VecDeque<(SimTime, u64, PacketId)>,
    /// The last `(rate, size)` started and its `Rate::time_to_send` — a
    /// division and a rounding on every start otherwise. A link carries one
    /// size each way (full segments, ACKs): on the benchmark's two packet
    /// workloads 99.9 % of starts repeat the last pair.
    last_tx: (Rate, u64, SimDuration),
    /// The wire is serializing a packet until this instant; from it on the
    /// link may start its next one.
    pub(crate) free_at: SimTime,
    /// A `LinkTxDone` is armed at `free_at` to start the next queued packet.
    /// Until it dispatches nothing else starts one, so a packet that reaches
    /// the link at exactly `free_at` cannot move that start in the dispatch
    /// order.
    pub(crate) done_pending: bool,
    /// Pending shaper wakeup already scheduled with the engine, if any
    /// (deduplicates `LinkWake` events).
    pub(crate) wake_at: Option<SimTime>,
    /// Total bytes put on the wire (carried traffic), counted when
    /// serialization starts.
    pub bytes_sent: u64,
    /// Total packets put on the wire.
    pub packets_sent: u64,
}

impl Link {
    /// Create a link from `src` to `dst` with the given configuration.
    pub fn new(src: NodeId, dst: NodeId, cfg: LinkConfig) -> Self {
        Link {
            src,
            dst,
            rate: cfg.rate,
            delay: cfg.delay,
            queue: cfg.discipline.build(cfg.queue_bytes),
            wire: VecDeque::new(),
            last_tx: (cfg.rate, 0, cfg.rate.time_to_send(0)),
            free_at: SimTime::ZERO,
            done_pending: false,
            wake_at: None,
            bytes_sent: 0,
            packets_sent: 0,
        }
    }

    /// True while the wire cannot take a packet at `now`: one is still being
    /// serialized, or the `LinkTxDone` that re-polls the queue is yet to run.
    pub(crate) fn wire_busy(&self, now: SimTime) -> bool {
        self.done_pending || now < self.free_at
    }

    /// Ask the discipline for its next packet and, if it releases one, put
    /// it on the wire: the link is busy until `free_at`. Head-dropped
    /// packets (AQM) are pushed into `dropped` for the caller to account.
    pub(crate) fn transmit_next(&mut self, now: SimTime, dropped: &mut Vec<PacketRef>) -> Dequeue {
        debug_assert!(!self.wire_busy(now), "transmit_next on a busy wire");
        let next = self.queue.dequeue(now, dropped);
        if let Dequeue::Packet(pkt) = &next {
            if (self.last_tx.0, self.last_tx.1) != (self.rate, pkt.size) {
                self.last_tx = (self.rate, pkt.size, self.rate.time_to_send(pkt.size));
            }
            self.free_at = now + self.last_tx.2;
            self.bytes_sent += pkt.size;
            self.packets_sent += 1;
        }
        next
    }

    /// Put a started packet on the wire, due at the far end at `(at, seq)`.
    /// Returns `true` if the wire was empty: the packet is its new front,
    /// whose arrival the engine must schedule.
    pub(crate) fn push_wire(&mut self, at: SimTime, seq: u64, id: PacketId) -> bool {
        crate::invariant!(
            "wire-order",
            self.wire.back().is_none_or(|&(t, s, _)| (t, s) < (at, seq)),
            "arrival ({:?}, {}) behind the wire's last {:?}",
            at,
            seq,
            self.wire.back()
        );
        self.wire.push_back((at, seq, id));
        self.wire.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketId};
    use crate::shaper::TokenBucketConfig;

    fn test_link() -> Link {
        // 12 Mbps => 1500 bytes takes exactly 1 ms.
        Link::new(
            NodeId(0),
            NodeId(1),
            LinkConfig {
                rate: Rate::from_mbps(12.0),
                delay: SimDuration::from_millis(5),
                queue_bytes: 15_000,
                discipline: Discipline::DropTail,
            },
        )
    }

    fn pkt(size: u64) -> PacketRef {
        PacketRef {
            id: PacketId(0),
            size,
            flow: FlowId(0),
        }
    }

    fn start(link: &mut Link, now: SimTime) -> Option<PacketRef> {
        match link.transmit_next(now, &mut Vec::new()) {
            Dequeue::Packet(pkt) => Some(pkt),
            _ => None,
        }
    }

    #[test]
    fn serialization_time() {
        let mut link = test_link();
        link.queue.enqueue(SimTime::ZERO, pkt(1500));
        let p = start(&mut link, SimTime::ZERO).unwrap();
        assert_eq!(p.size, 1500);
        assert_eq!(link.free_at, SimTime::from_millis(1));
        // Busy until the last bit is out, free from that instant on.
        assert!(link.wire_busy(SimTime::from_micros(999)));
        assert!(!link.wire_busy(SimTime::from_millis(1)));
        assert_eq!(link.bytes_sent, 1500);
        assert_eq!(link.packets_sent, 1);
        // A pending LinkTxDone holds the wire even at `free_at`.
        link.done_pending = true;
        assert!(link.wire_busy(SimTime::from_millis(1)));
    }

    #[test]
    fn bdp_queue_sizing() {
        let cfg = LinkConfig::with_bdp_queue(
            Rate::from_mbps(40.0),
            SimDuration::from_micros(2500),
            SimDuration::from_millis(5),
            4.0,
        );
        // BDP = 40e6 * 0.005 / 8 = 25 kB; 4x = 100 kB.
        assert_eq!(cfg.queue_bytes, 100_000);
        assert_eq!(cfg.discipline, Discipline::DropTail);
    }

    #[test]
    fn shaped_link_reports_wait() {
        // Fast line, slow shaper: the second packet must wait on tokens.
        let cfg = LinkConfig::new(
            Rate::from_mbps(100.0),
            SimDuration::from_millis(1),
            1_000_000,
        )
        .with_discipline(Discipline::TokenBucket(TokenBucketConfig::new(
            Rate::from_mbps(8.0),
            1_000,
        )));
        let mut link = Link::new(NodeId(0), NodeId(1), cfg);
        link.queue.enqueue(SimTime::ZERO, pkt(1_000));
        link.queue.enqueue(SimTime::ZERO, pkt(1_000));
        start(&mut link, SimTime::ZERO).unwrap();
        // 80 us of serialization refill 80 B of the 1000 B the head needs.
        let now = link.free_at;
        match link.transmit_next(now, &mut Vec::new()) {
            Dequeue::Wait(at) => assert!(at > now),
            other => panic!("expected Wait from empty bucket, got {other:?}"),
        }
    }
}
