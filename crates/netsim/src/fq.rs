//! Per-flow fair queuing: deficit round robin (DRR), as a
//! [`Queue`](crate::Queue) policy.
//!
//! DRR isolates flows sharing a bottleneck: each [`FlowId`] gets its own
//! FIFO, and service cycles round-robin with a byte quantum so flows
//! receive (approximately) equal byte rates regardless of how aggressively
//! they send — the discipline behind the Jain-fairness property tests. The
//! byte capacity is shared: the queue tail-drops an arrival that overflows
//! it, whichever flow it belongs to.
//!
//! Determinism: flow slots are created in first-arrival order and the
//! active list is an explicit `VecDeque` of slot indices; the `HashMap` is
//! used only for point lookups, never iterated.

use crate::packet::{FlowId, PacketRef};
use crate::units::MTU_BYTES;
use std::collections::{HashMap, VecDeque};

/// DRR's settings, all fixed: a quantum of one MTU, the classic choice —
/// every backlogged flow can always send at least one full-sized packet
/// per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct DrrConfig;

/// Bytes of service credit granted per round-robin visit.
const QUANTUM: u64 = MTU_BYTES;

#[derive(Debug)]
struct FlowSlot {
    queue: VecDeque<PacketRef>,
    deficit: u64,
    /// Present in the active round-robin list?
    active: bool,
    /// Received this visit's quantum already (a flow at the head of the
    /// round may be served across several `dequeue` calls)?
    charged: bool,
}

/// A deficit-round-robin schedule over per-flow FIFOs.
#[derive(Debug, Default)]
pub(crate) struct Drr {
    /// Flow slots in first-arrival order (never reordered or removed).
    flows: Vec<FlowSlot>,
    /// Point lookups only — iteration order never matters.
    index: HashMap<FlowId, usize>,
    /// Round-robin list of active slot indices.
    active: VecDeque<usize>,
}

impl Drr {
    /// Queue an admitted packet on its flow's FIFO, entering the flow into
    /// the round with no credit if it was idle.
    #[inline]
    pub(crate) fn push(&mut self, pkt: PacketRef) {
        let i = match self.index.get(&pkt.flow) {
            Some(&i) => i,
            None => {
                self.flows.push(FlowSlot {
                    queue: VecDeque::new(),
                    deficit: 0,
                    active: false,
                    charged: false,
                });
                self.index.insert(pkt.flow, self.flows.len() - 1);
                self.flows.len() - 1
            }
        };
        let slot = &mut self.flows[i];
        slot.queue.push_back(pkt);
        if !slot.active {
            slot.active = true;
            slot.deficit = 0;
            slot.charged = false;
            self.active.push_back(i);
        }
    }

    /// The next packet in round-robin order.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<PacketRef> {
        loop {
            let &i = self.active.front()?;
            let slot = &mut self.flows[i];
            if slot.queue.is_empty() {
                slot.active = false;
                slot.deficit = 0;
                slot.charged = false;
                self.active.pop_front();
                continue;
            }
            if !slot.charged {
                slot.deficit += QUANTUM;
                slot.charged = true;
            }
            let head_size = slot.queue.front().expect("checked non-empty").size;
            if slot.deficit >= head_size {
                let pkt = slot.queue.pop_front().expect("checked non-empty");
                slot.deficit -= pkt.size;
                if slot.queue.is_empty() {
                    // Leave the round: an empty flow keeps no credit.
                    slot.active = false;
                    slot.deficit = 0;
                    slot.charged = false;
                    self.active.pop_front();
                }
                return Some(pkt);
            }
            // Out of credit: carry the deficit to the next round.
            slot.charged = false;
            self.active.pop_front();
            self.active.push_back(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use crate::queue::{Dequeue, Discipline, EnqueueResult, Queue};
    use crate::time::SimTime;

    fn pkt(flow: u64, seq: u64, size: u64) -> PacketRef {
        PacketRef {
            id: PacketId(seq as u32),
            size,
            flow: FlowId(flow),
        }
    }

    fn drr(capacity_bytes: u64) -> Queue {
        Discipline::Drr(DrrConfig::default()).build(capacity_bytes)
    }

    fn drain(q: &mut Queue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut dropped = Vec::new();
        loop {
            match q.dequeue(SimTime::ZERO, &mut dropped) {
                Dequeue::Packet(p) => {
                    out.push((p.flow.0, p.id.0 as u64));
                }
                Dequeue::Empty => break,
                Dequeue::Wait(_) => panic!("DRR is work-conserving"),
            }
        }
        assert!(dropped.is_empty());
        out
    }

    /// Quantum-sized packets from two flows interleave strictly 1:1 even
    /// when one flow enqueued all its packets first. (With packets smaller
    /// than the quantum the carried deficit lets a flow send back-to-back
    /// every few rounds — still byte-fair, just not per-packet alternating.)
    #[test]
    fn two_flows_interleave() {
        let mut q = drr(1_000_000);
        for seq in 0..3 {
            q.enqueue(SimTime::ZERO, pkt(1, seq, MTU_BYTES));
        }
        for seq in 0..3 {
            q.enqueue(SimTime::ZERO, pkt(2, seq, MTU_BYTES));
        }
        let order = drain(&mut q);
        assert_eq!(order, vec![(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)]);
    }

    /// A flow with big packets gets the same *byte* share as one with
    /// small packets: over one full cycle the byte counts stay close.
    #[test]
    fn byte_fairness_with_mixed_sizes() {
        let mut q = drr(10_000_000);
        // Flow 1: 100 x 1500 B; flow 2: 500 x 300 B. Same total bytes.
        for seq in 0..100 {
            q.enqueue(SimTime::ZERO, pkt(1, seq, 1_500));
        }
        for seq in 0..500 {
            q.enqueue(SimTime::ZERO, pkt(2, seq, 300));
        }
        // Serve exactly half the total bytes, then compare shares.
        let mut served = [0u64; 3];
        let mut total = 0u64;
        let mut dropped = Vec::new();
        while total < 150_000 {
            match q.dequeue(SimTime::ZERO, &mut dropped) {
                Dequeue::Packet(p) => {
                    served[p.flow.0 as usize] += p.size;
                    total += p.size;
                }
                other => panic!("queue drained early: {other:?}"),
            }
        }
        let ratio = served[1] as f64 / served[2] as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "byte shares diverged: {served:?}"
        );
    }

    /// Per-flow FIFO order is preserved within each flow.
    #[test]
    fn per_flow_order_preserved() {
        let mut q = drr(1_000_000);
        for seq in 0..10 {
            q.enqueue(SimTime::ZERO, pkt(7, seq, 700));
            q.enqueue(SimTime::ZERO, pkt(8, seq, 1_400));
        }
        let order = drain(&mut q);
        for f in [7u64, 8] {
            let seqs: Vec<u64> = order
                .iter()
                .filter(|&&(fl, _)| fl == f)
                .map(|&(_, s)| s)
                .collect();
            assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        }
    }

    /// The shared byte capacity tail-drops arrivals once exceeded.
    #[test]
    fn shared_capacity_tail_drops() {
        let mut q = drr(2_500);
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1, 0, 1_000)),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(2, 0, 1_000)),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(3, 0, 1_000)),
            EnqueueResult::Dropped
        );
        assert_eq!(q.stats().drops, 1);
        assert_eq!(q.len(), 2);
    }

    /// A flow that drains and comes back re-enters the round with zero
    /// credit (no deficit hoarding across idle periods): flow 1 leaves
    /// 1 000 B of its quantum unspent, and on its return its two 1 000 B
    /// packets alternate with flow 2's, where the hoarded credit would send
    /// them back to back. Its slot is reused.
    #[test]
    fn idle_flow_loses_credit() {
        let mut drr = Drr::default();
        drr.push(pkt(1, 0, 500));
        assert_eq!(drr.pop().map(|p| p.id), Some(PacketId(0)));
        assert_eq!(drr.pop(), None);
        for seq in 1..3 {
            drr.push(pkt(1, seq, 1_000));
        }
        for seq in 0..2 {
            drr.push(pkt(2, seq, MTU_BYTES));
        }
        let order: Vec<_> = std::iter::from_fn(|| drr.pop())
            .map(|p| (p.flow.0, p.id.0 as u64))
            .collect();
        assert_eq!(order, vec![(1, 1), (2, 0), (1, 2), (2, 1)]);
        assert_eq!(drr.flows.len(), 2);
    }
}
