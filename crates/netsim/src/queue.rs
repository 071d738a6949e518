//! The link queue: one byte ledger under five disciplines.
//!
//! The simulator's original model is a drop-tail FIFO sized in bytes — how
//! the paper's lab bottleneck is configured (4x the bandwidth-delay product).
//! The shared-topology experiments add AQM (RED and CoDel, [`aqm`]),
//! per-flow fair queuing (DRR, [`fq`]) and a token-bucket ISP shaper
//! ([`shaper`]). A [`Queue`] keeps what they share — the byte capacity, the
//! occupancy and the [`QueueStats`] ledger — and a private policy holds each
//! discipline's packets and the state it decides with, so links, the
//! engine, `validate` invariants and `obs` telemetry are
//! discipline-agnostic.
//!
//! ## Contract
//!
//! - [`Queue::enqueue`] offers an arriving packet; a `Dropped` result means
//!   the *arriving* packet was rejected (tail drop, RED early drop, or a
//!   packet larger than the token bucket, which could never be sent).
//! - [`Queue::dequeue`] asks for the next packet to serialize. CoDel may
//!   *head-drop* packets at this point; those are pushed into the caller's
//!   `dropped` buffer, in order, so the engine can account them per flow.
//!   The non-work-conserving shaper may instead return [`Dequeue::Wait`],
//!   telling the engine when to try again.
//! - Every byte offered is eventually accounted exactly once: dequeued,
//!   dropped, or still resident — the `queue-byte-conservation` ledger in
//!   [`QueueStats`] (checked under the `validate` feature), which only
//!   [`Queue`] writes.
//!
//! [`aqm`]: crate::aqm
//! [`fq`]: crate::fq
//! [`shaper`]: crate::shaper

use crate::aqm::{CoDel, CoDelPass, Red};
use crate::fq::Drr;
use crate::packet::PacketRef;
use crate::shaper::TokenBucket;
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

/// Counters every [`Queue`] keeps, plus the `validate`-feature
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
    fn on_accept(&mut self, bytes: u64, occupied: u64) {
        #[cfg(feature = "validate")]
        {
            self.enqueued_bytes += bytes;
        }
        let _ = bytes;
        self.max_occupied_bytes = self.max_occupied_bytes.max(occupied);
        self.check_conservation(occupied);
    }

    /// An arriving packet was rejected; `occupied`
    /// is the (unchanged) occupancy.
    #[inline]
    fn on_arrival_drop(&mut self, bytes: u64, occupied: u64) {
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
    fn on_head_drop(&mut self, bytes: u64, occupied: u64) {
        self.drops += 1;
        self.dropped_bytes += bytes;
        self.check_conservation(occupied);
    }

    /// A packet was dequeued for transmission; `occupied` is the occupancy
    /// after removal.
    #[inline]
    fn on_dequeue(&mut self, bytes: u64, occupied: u64) {
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
}

/// Which queue discipline a link runs, carried by
/// [`LinkConfig`](crate::link::LinkConfig). The capacity in bytes comes from
/// the link config's `queue_bytes`.
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
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero: a zero-capacity queue would drop
    /// every packet and almost certainly indicates a misconfigured topology.
    pub fn build(self, capacity_bytes: u64) -> Queue {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        let policy = match self {
            Discipline::DropTail => Policy::DropTail(VecDeque::new()),
            Discipline::Red(_) => Policy::Red(Red::new(capacity_bytes)),
            Discipline::CoDel(_) => Policy::CoDel(CoDel::default()),
            Discipline::Drr(_) => Policy::Drr(Drr::default()),
            Discipline::TokenBucket(cfg) => Policy::TokenBucket(TokenBucket::new(cfg)),
        };
        Queue {
            capacity_bytes,
            occupied_bytes: 0,
            len: 0,
            stats: QueueStats::default(),
            policy,
        }
    }
}

/// What a [`Link`](crate::link::Link) holds between packet arrivals and
/// serialization opportunities: a byte-bounded buffer under one
/// [`Discipline`]. See the module docs for the contract.
#[derive(Debug)]
pub struct Queue {
    capacity_bytes: u64,
    occupied_bytes: u64,
    len: usize,
    stats: QueueStats,
    policy: Policy,
}

/// Each discipline's packets and the state it decides with.
#[derive(Debug)]
enum Policy {
    DropTail(VecDeque<PacketRef>),
    Red(Red),
    CoDel(CoDel),
    Drr(Drr),
    TokenBucket(TokenBucket),
}

impl Queue {
    /// Offer an arriving packet at simulated time `now`.
    #[inline]
    pub fn enqueue(&mut self, now: SimTime, pkt: PacketRef) -> EnqueueResult {
        let fits = self.occupied_bytes + pkt.size <= self.capacity_bytes;
        let Policy::DropTail(fifo) = &mut self.policy else {
            return self.enqueue_policy(now, pkt, fits);
        };
        if !fits {
            return self.refuse(pkt);
        }
        fifo.push_back(pkt);
        self.accept(pkt)
    }

    /// Ask for the next packet to serialize at time `now`. Head-dropped
    /// packets (CoDel) are pushed into `dropped` for per-flow accounting.
    #[inline]
    pub fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<PacketRef>) -> Dequeue {
        let Policy::DropTail(fifo) = &mut self.policy else {
            return self.dequeue_policy(now, dropped);
        };
        match fifo.pop_front() {
            Some(pkt) => self.send(pkt),
            None => Dequeue::Empty,
        }
    }

    /// [`Queue::enqueue`] for every policy but drop-tail, out of line so
    /// that the drop-tail path stays as small as a bare FIFO's.
    #[inline(never)]
    fn enqueue_policy(&mut self, now: SimTime, pkt: PacketRef, fits: bool) -> EnqueueResult {
        let accepted = match &mut self.policy {
            Policy::Red(red) => red.admit(now, self.occupied_bytes, fits),
            Policy::TokenBucket(bucket) => fits && bucket.holds(pkt.size),
            Policy::DropTail(_) | Policy::CoDel(_) | Policy::Drr(_) => fits,
        };
        if !accepted {
            return self.refuse(pkt);
        }
        match &mut self.policy {
            Policy::DropTail(fifo)
            | Policy::Red(Red { fifo, .. })
            | Policy::TokenBucket(TokenBucket { fifo, .. }) => fifo.push_back(pkt),
            Policy::CoDel(codel) => codel.fifo.push_back((now, pkt)),
            Policy::Drr(drr) => drr.push(pkt),
        }
        self.accept(pkt)
    }

    /// [`Queue::dequeue`] for every policy but drop-tail.
    #[inline(never)]
    fn dequeue_policy(&mut self, now: SimTime, dropped: &mut Vec<PacketRef>) -> Dequeue {
        let next = match &mut self.policy {
            Policy::DropTail(fifo) => fifo.pop_front(),
            Policy::Red(red) => red.pop(now),
            Policy::CoDel(_) => return self.dequeue_codel(now, dropped),
            Policy::Drr(drr) => drr.pop(),
            Policy::TokenBucket(bucket) => match bucket.pop(now) {
                Ok(next) => next,
                Err(at) => return Dequeue::Wait(at),
            },
        };
        match next {
            Some(pkt) => self.send(pkt),
            None => Dequeue::Empty,
        }
    }

    /// CoDel pops heads until it keeps one; each it drops on the way leaves
    /// through `dropped`. Its verdict reads the occupancy after each pop.
    #[inline(never)]
    fn dequeue_codel(&mut self, now: SimTime, dropped: &mut Vec<PacketRef>) -> Dequeue {
        let Policy::CoDel(codel) = &mut self.policy else {
            unreachable!("dequeue_codel on a non-CoDel queue")
        };
        let mut pass = CoDelPass::First;
        while let Some((enqueued_at, pkt)) = codel.fifo.pop_front() {
            self.occupied_bytes -= pkt.size;
            self.len -= 1;
            if !codel.drops_head(now, enqueued_at, self.occupied_bytes, &mut pass) {
                self.stats.on_dequeue(pkt.size, self.occupied_bytes);
                return Dequeue::Packet(pkt);
            }
            self.stats.on_head_drop(pkt.size, self.occupied_bytes);
            dropped.push(pkt);
        }
        codel.drained(pass);
        Dequeue::Empty
    }

    /// Ledger: an arrival was taken in.
    #[inline(always)]
    fn accept(&mut self, pkt: PacketRef) -> EnqueueResult {
        self.occupied_bytes += pkt.size;
        self.len += 1;
        self.stats.on_accept(pkt.size, self.occupied_bytes);
        EnqueueResult::Accepted
    }

    /// Ledger: an arrival was refused.
    #[inline(always)]
    fn refuse(&mut self, pkt: PacketRef) -> EnqueueResult {
        self.stats.on_arrival_drop(pkt.size, self.occupied_bytes);
        EnqueueResult::Dropped
    }

    /// Ledger: a packet left for the wire.
    #[inline(always)]
    fn send(&mut self, pkt: PacketRef) -> Dequeue {
        self.occupied_bytes -= pkt.size;
        self.len -= 1;
        self.stats.on_dequeue(pkt.size, self.occupied_bytes);
        Dequeue::Packet(pkt)
    }

    /// Current occupancy in bytes.
    pub fn occupied_bytes(&self) -> u64 {
        self.occupied_bytes
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Drop and occupancy counters.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Reset the occupancy high-water mark to the current occupancy
    /// (used to measure phases of an experiment separately).
    pub fn reset_max_occupancy(&mut self) {
        self.stats.max_occupied_bytes = self.occupied_bytes;
    }

    /// Mutant mode: pretend `bytes` entered the queue and then vanished —
    /// the classic dropped-byte leak where a rejection path forgets to
    /// credit `dropped_bytes`. Must trip `queue-byte-conservation`.
    #[cfg(feature = "validate")]
    pub(crate) fn mutant_leak_dropped_bytes(&mut self, bytes: u64) {
        self.stats.enqueued_bytes += bytes;
        self.stats.check_conservation(self.occupied_bytes);
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

    fn deq(q: &mut Queue) -> Option<PacketRef> {
        let mut dropped = Vec::new();
        match q.dequeue(SimTime::ZERO, &mut dropped) {
            Dequeue::Packet(p) => Some(p),
            _ => None,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = Discipline::DropTail.build(10_000);
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
        let mut q = Discipline::DropTail.build(250);
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
        let mut q = Discipline::DropTail.build(1_000);
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
        Discipline::DropTail.build(0);
    }

    #[test]
    fn discipline_default_builds_drop_tail() {
        let q = Discipline::default().build(10_000);
        assert_eq!(q.capacity_bytes(), 10_000);
        assert!(q.is_empty());
    }
}
