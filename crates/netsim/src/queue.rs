//! Link queues behind a pluggable [`Queue`] discipline trait.
//!
//! The simulator's original model is a drop-tail FIFO sized in bytes — how
//! the paper's lab bottleneck is configured (4x the bandwidth-delay product).
//! The shared-topology experiments add AQM ([`RedQueue`], [`CoDelQueue`]),
//! per-flow fair queuing ([`DrrQueue`]) and a token-bucket ISP shaper
//! ([`TokenBucketQueue`]); all of them implement [`Queue`] so links, the
//! engine, `validate` invariants and `obs` telemetry are discipline-agnostic.
//!
//! ## Contract
//!
//! - [`Queue::enqueue`] offers an arriving packet; a `Dropped` result means
//!   the *arriving* packet was rejected (tail drop or AQM early drop).
//! - [`Queue::dequeue`] asks for the next packet to serialize. AQM
//!   disciplines may *head-drop* packets at this point; those are pushed
//!   into the caller's `dropped` buffer so the engine can account them per
//!   flow. A non-work-conserving discipline (the shaper) may instead return
//!   [`Dequeue::Wait`], telling the engine when to try again.
//! - Every byte offered is eventually accounted exactly once: dequeued,
//!   dropped, or still resident — the `queue-byte-conservation` ledger in
//!   [`QueueStats`] (checked under the `validate` feature).
//!
//! [`RedQueue`]: crate::aqm::RedQueue
//! [`CoDelQueue`]: crate::aqm::CoDelQueue
//! [`DrrQueue`]: crate::fq::DrrQueue
//! [`TokenBucketQueue`]: crate::shaper::TokenBucketQueue

use crate::packet::PacketRef;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// The packet was accepted.
    Accepted,
    /// The packet was dropped (queue full, or AQM early drop).
    Dropped,
}

/// Outcome of asking a queue for its next packet.
#[derive(Debug, Clone)]
pub enum Dequeue {
    /// Serialize this packet now.
    Packet(PacketRef),
    /// The queue holds packets but none may be sent before the given time
    /// (token-bucket shaping). The engine schedules a link wakeup.
    Wait(SimTime),
    /// The queue is empty.
    Empty,
}

/// Counters every queue discipline maintains, plus the `validate`-feature
/// byte ledger proving conservation (enqueued = dequeued + dropped +
/// resident) at every hop.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueStats {
    /// Total packets dropped since creation (tail and head drops).
    pub drops: u64,
    /// Total bytes dropped since creation.
    pub dropped_bytes: u64,
    /// High-water mark of queue occupancy in bytes.
    pub max_occupied_bytes: u64,
    /// Total bytes ever offered to the queue (validate feature).
    #[cfg(feature = "validate")]
    enqueued_bytes: u64,
    /// Total bytes ever dequeued from the queue (validate feature).
    #[cfg(feature = "validate")]
    dequeued_bytes: u64,
}

impl QueueStats {
    /// An arriving packet was accepted; `occupied` is the occupancy after.
    #[inline]
    pub(crate) fn on_accept(&mut self, bytes: u64, occupied: u64) {
        #[cfg(feature = "validate")]
        {
            self.enqueued_bytes += bytes;
        }
        let _ = bytes;
        self.max_occupied_bytes = self.max_occupied_bytes.max(occupied);
        self.check_conservation(occupied);
    }

    /// An arriving packet was rejected (tail or AQM early drop); `occupied`
    /// is the (unchanged) occupancy.
    #[inline]
    pub(crate) fn on_arrival_drop(&mut self, bytes: u64, occupied: u64) {
        #[cfg(feature = "validate")]
        {
            self.enqueued_bytes += bytes;
        }
        self.drops += 1;
        self.dropped_bytes += bytes;
        self.check_conservation(occupied);
    }

    /// A previously accepted packet was head-dropped at dequeue time;
    /// `occupied` is the occupancy after removal.
    #[inline]
    pub(crate) fn on_head_drop(&mut self, bytes: u64, occupied: u64) {
        self.drops += 1;
        self.dropped_bytes += bytes;
        self.check_conservation(occupied);
    }

    /// A packet was dequeued for transmission; `occupied` is the occupancy
    /// after removal.
    #[inline]
    pub(crate) fn on_dequeue(&mut self, bytes: u64, occupied: u64) {
        #[cfg(feature = "validate")]
        {
            self.dequeued_bytes += bytes;
        }
        let _ = bytes;
        self.check_conservation(occupied);
    }

    /// Byte conservation: every byte offered to the queue is either still
    /// queued, was dequeued, or was dropped. A leak on any path (e.g. a
    /// drop that forgets to account its bytes) breaks the ledger.
    #[cfg(feature = "validate")]
    #[inline]
    fn check_conservation(&self, occupied: u64) {
        crate::invariant!(
            "queue-byte-conservation",
            self.enqueued_bytes == self.dequeued_bytes + self.dropped_bytes + occupied,
            "enqueued {} != dequeued {} + dropped {} + occupied {}",
            self.enqueued_bytes,
            self.dequeued_bytes,
            self.dropped_bytes,
            occupied
        );
    }

    #[cfg(not(feature = "validate"))]
    #[inline(always)]
    fn check_conservation(&self, _occupied: u64) {}

    /// Mutant mode: pretend bytes entered the queue and then vanished —
    /// the classic dropped-byte leak where a rejection path forgets to
    /// credit `dropped_bytes`. Must trip `queue-byte-conservation`.
    #[cfg(feature = "validate")]
    pub(crate) fn mutant_leak_dropped_bytes(&mut self, bytes: u64, occupied: u64) {
        self.enqueued_bytes += bytes;
        self.check_conservation(occupied);
    }
}

/// A queue discipline: what a [`Link`](crate::link::Link) holds between
/// packet arrivals and serialization opportunities.
///
/// See the module docs for the enqueue/dequeue/accounting contract.
pub trait Queue: std::fmt::Debug + Send {
    /// Offer an arriving packet at simulated time `now`.
    fn enqueue(&mut self, now: SimTime, pkt: PacketRef) -> EnqueueResult;

    /// Ask for the next packet to serialize at time `now`. Head-dropped
    /// packets (AQM) are pushed into `dropped` for per-flow accounting.
    fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<PacketRef>) -> Dequeue;

    /// Current occupancy in bytes.
    fn occupied_bytes(&self) -> u64;

    /// Number of queued packets.
    fn len(&self) -> usize;

    /// Configured capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Shared drop/occupancy counters.
    fn stats(&self) -> &QueueStats;

    /// Mutable access to the shared counters.
    fn stats_mut(&mut self) -> &mut QueueStats;

    /// True if no packets are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reset the occupancy high-water mark to the current occupancy
    /// (used to measure phases of an experiment separately).
    fn reset_max_occupancy(&mut self) {
        let occ = self.occupied_bytes();
        self.stats_mut().max_occupied_bytes = occ;
    }
}

/// Which queue discipline a link runs, carried by
/// [`LinkConfig`](crate::link::LinkConfig). The capacity in bytes comes from
/// the link config's `queue_bytes`; the discipline holds everything else.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Discipline {
    /// Plain byte-bounded drop-tail FIFO (the legacy behavior).
    #[default]
    DropTail,
    /// Random Early Detection AQM (gentle variant).
    Red(crate::aqm::RedConfig),
    /// CoDel sojourn-time AQM (RFC 8289).
    CoDel(crate::aqm::CoDelConfig),
    /// Deficit-round-robin per-flow fair queuing.
    Drr(crate::fq::DrrConfig),
    /// Token-bucket rate shaper over a FIFO (non-work-conserving).
    TokenBucket(crate::shaper::TokenBucketConfig),
}

impl Discipline {
    /// Construct the discipline's queue with the given byte capacity.
    pub fn build(self, capacity_bytes: u64) -> Box<dyn Queue> {
        match self {
            Discipline::DropTail => Box::new(DropTailQueue::new(capacity_bytes)),
            Discipline::Red(cfg) => Box::new(crate::aqm::RedQueue::new(capacity_bytes, cfg)),
            Discipline::CoDel(cfg) => Box::new(crate::aqm::CoDelQueue::new(capacity_bytes, cfg)),
            Discipline::Drr(cfg) => Box::new(crate::fq::DrrQueue::new(capacity_bytes, cfg)),
            Discipline::TokenBucket(cfg) => {
                Box::new(crate::shaper::TokenBucketQueue::new(capacity_bytes, cfg))
            }
        }
    }
}

/// A drop-tail FIFO queue with a byte-capacity limit.
#[derive(Debug, Clone)]
pub(crate) struct DropTailQueue {
    capacity_bytes: u64,
    occupied_bytes: u64,
    packets: VecDeque<PacketRef>,
    stats: QueueStats,
}

impl DropTailQueue {
    /// Create a queue holding at most `capacity_bytes` of packets.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero: a zero-capacity queue would drop
    /// every packet and almost certainly indicates a misconfigured topology.
    fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        DropTailQueue {
            capacity_bytes,
            occupied_bytes: 0,
            packets: VecDeque::new(),
            stats: QueueStats::default(),
        }
    }
}

impl Queue for DropTailQueue {
    /// Offer a packet. Drop-tail: reject if it would exceed capacity.
    fn enqueue(&mut self, _now: SimTime, pkt: PacketRef) -> EnqueueResult {
        if self.occupied_bytes + pkt.size > self.capacity_bytes {
            self.stats.on_arrival_drop(pkt.size, self.occupied_bytes);
            EnqueueResult::Dropped
        } else {
            self.occupied_bytes += pkt.size;
            self.stats.on_accept(pkt.size, self.occupied_bytes);
            self.packets.push_back(pkt);
            EnqueueResult::Accepted
        }
    }

    fn dequeue(&mut self, _now: SimTime, _dropped: &mut Vec<PacketRef>) -> Dequeue {
        let Some(pkt) = self.packets.pop_front() else {
            return Dequeue::Empty;
        };
        self.occupied_bytes -= pkt.size;
        self.stats.on_dequeue(pkt.size, self.occupied_bytes);
        Dequeue::Packet(pkt)
    }

    fn occupied_bytes(&self) -> u64 {
        self.occupied_bytes
    }

    fn len(&self) -> usize {
        self.packets.len()
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    fn stats(&self) -> &QueueStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut QueueStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketId};

    fn pkt(size: u64) -> PacketRef {
        pkt_id(0, size)
    }

    fn pkt_id(id: u32, size: u64) -> PacketRef {
        PacketRef {
            id: PacketId(id),
            size,
            flow: FlowId(0),
        }
    }

    fn deq(q: &mut dyn Queue) -> Option<PacketRef> {
        let mut dropped = Vec::new();
        match q.dequeue(SimTime::ZERO, &mut dropped) {
            Dequeue::Packet(p) => Some(p),
            _ => None,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10_000);
        for id in 0..3u32 {
            assert_eq!(
                q.enqueue(SimTime::ZERO, pkt_id(id, 100)),
                EnqueueResult::Accepted
            );
        }
        for id in 0..3u32 {
            let p = deq(&mut q).unwrap();
            assert_eq!(p.id, PacketId(id));
        }
        assert!(deq(&mut q).is_none());
    }

    #[test]
    fn drops_when_full() {
        let mut q = DropTailQueue::new(250);
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(100)), EnqueueResult::Accepted);
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(100)), EnqueueResult::Accepted);
        // Third packet would exceed 250 bytes.
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(100)), EnqueueResult::Dropped);
        assert_eq!(q.stats().drops, 1);
        assert_eq!(q.stats().dropped_bytes, 100);
        assert_eq!(q.len(), 2);
        // Dequeuing frees space again.
        deq(&mut q);
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(100)), EnqueueResult::Accepted);
    }

    #[test]
    fn occupancy_accounting() {
        let mut q = DropTailQueue::new(1_000);
        q.enqueue(SimTime::ZERO, pkt(300));
        q.enqueue(SimTime::ZERO, pkt(200));
        assert_eq!(q.occupied_bytes(), 500);
        assert_eq!(q.stats().max_occupied_bytes, 500);
        deq(&mut q);
        assert_eq!(q.occupied_bytes(), 200);
        // High-water mark persists after dequeue.
        assert_eq!(q.stats().max_occupied_bytes, 500);
        q.reset_max_occupancy();
        assert_eq!(q.stats().max_occupied_bytes, 200);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DropTailQueue::new(0);
    }

    #[test]
    fn discipline_default_builds_drop_tail() {
        let q = Discipline::default().build(10_000);
        assert_eq!(q.capacity_bytes(), 10_000);
        assert!(q.is_empty());
    }
}
