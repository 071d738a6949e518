//! Per-flow fair queuing: deficit round robin (DRR).
//!
//! [`DrrQueue`] isolates flows sharing a bottleneck: each [`FlowId`] gets
//! its own FIFO, and service cycles round-robin with a byte quantum so
//! flows receive (approximately) equal byte rates regardless of how
//! aggressively they send — the discipline behind the Jain-fairness
//! property tests.
//!
//! Determinism: flow slots are created in first-arrival order and the
//! active list is an explicit `VecDeque` of slot indices; the `HashMap` is
//! used only for point lookups, never iterated.

use crate::packet::{FlowId, PacketRef};
use crate::queue::{Dequeue, EnqueueResult, Queue, QueueStats};
use crate::time::SimTime;
use crate::units::MTU_BYTES;
use std::collections::{HashMap, VecDeque};

/// Configuration for [`DrrQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrrConfig {
    /// Bytes of service credit granted per round-robin visit. One MTU is
    /// the classic choice: every backlogged flow can always send at least
    /// one full-sized packet per round.
    pub quantum_bytes: u64,
}

impl Default for DrrConfig {
    fn default() -> Self {
        DrrConfig {
            quantum_bytes: MTU_BYTES,
        }
    }
}

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

/// A deficit-round-robin fair queue over per-flow FIFOs.
#[derive(Debug)]
pub struct DrrQueue {
    capacity_bytes: u64,
    occupied_bytes: u64,
    quantum: u64,
    stats: QueueStats,
    /// Flow slots in first-arrival order (never reordered or removed).
    flows: Vec<FlowSlot>,
    /// Point lookups only — iteration order never matters.
    index: HashMap<FlowId, usize>,
    /// Round-robin list of active slot indices.
    active: VecDeque<usize>,
    len: usize,
}

impl DrrQueue {
    /// Create a DRR queue with a shared byte capacity across all flows.
    ///
    /// # Panics
    /// Panics on zero capacity or zero quantum.
    pub fn new(capacity_bytes: u64, cfg: DrrConfig) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        assert!(cfg.quantum_bytes > 0, "DRR quantum must be positive");
        DrrQueue {
            capacity_bytes,
            occupied_bytes: 0,
            quantum: cfg.quantum_bytes,
            stats: QueueStats::default(),
            flows: Vec::new(),
            index: HashMap::new(),
            active: VecDeque::new(),
            len: 0,
        }
    }

    fn slot_of(&mut self, flow: FlowId) -> usize {
        if let Some(&i) = self.index.get(&flow) {
            return i;
        }
        let i = self.flows.len();
        self.flows.push(FlowSlot {
            queue: VecDeque::new(),
            deficit: 0,
            active: false,
            charged: false,
        });
        self.index.insert(flow, i);
        i
    }
}

impl Queue for DrrQueue {
    fn enqueue(&mut self, _now: SimTime, pkt: PacketRef) -> EnqueueResult {
        // Shared buffer: tail-drop the arriving packet on overflow no
        // matter which flow it belongs to.
        if self.occupied_bytes + pkt.size > self.capacity_bytes {
            self.stats.on_arrival_drop(pkt.size, self.occupied_bytes);
            return EnqueueResult::Dropped;
        }
        let i = self.slot_of(pkt.flow);
        self.occupied_bytes += pkt.size;
        self.len += 1;
        self.stats.on_accept(pkt.size, self.occupied_bytes);
        let slot = &mut self.flows[i];
        slot.queue.push_back(pkt);
        if !slot.active {
            slot.active = true;
            slot.deficit = 0;
            slot.charged = false;
            self.active.push_back(i);
        }
        EnqueueResult::Accepted
    }

    fn dequeue(&mut self, _now: SimTime, _dropped: &mut Vec<PacketRef>) -> Dequeue {
        loop {
            let Some(&i) = self.active.front() else {
                return Dequeue::Empty;
            };
            let slot = &mut self.flows[i];
            if slot.queue.is_empty() {
                slot.active = false;
                slot.deficit = 0;
                slot.charged = false;
                self.active.pop_front();
                continue;
            }
            if !slot.charged {
                slot.deficit += self.quantum;
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
                self.occupied_bytes -= pkt.size;
                self.len -= 1;
                self.stats.on_dequeue(pkt.size, self.occupied_bytes);
                return Dequeue::Packet(pkt);
            }
            // Out of credit: carry the deficit to the next round.
            slot.charged = false;
            self.active.pop_front();
            self.active.push_back(i);
        }
    }

    fn occupied_bytes(&self) -> u64 {
        self.occupied_bytes
    }

    fn len(&self) -> usize {
        self.len
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
    use crate::packet::PacketId;

    fn pkt(flow: u64, seq: u64, size: u64) -> PacketRef {
        PacketRef {
            id: PacketId(seq as u32),
            size,
            flow: FlowId(flow),
        }
    }

    fn drain(q: &mut DrrQueue) -> Vec<(u64, u64)> {
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
        let mut q = DrrQueue::new(1_000_000, DrrConfig::default());
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
        let mut q = DrrQueue::new(10_000_000, DrrConfig::default());
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
        let mut q = DrrQueue::new(1_000_000, DrrConfig::default());
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
        let mut q = DrrQueue::new(2_500, DrrConfig::default());
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
        assert_eq!(q.flows.len(), 2);
    }

    /// A flow that drains and comes back re-enters the round with zero
    /// credit (no deficit hoarding across idle periods).
    #[test]
    fn idle_flow_loses_credit() {
        let mut q = DrrQueue::new(
            1_000_000,
            DrrConfig {
                quantum_bytes: 10_000,
            },
        );
        q.enqueue(SimTime::ZERO, pkt(1, 0, 100));
        drain(&mut q);
        // Re-activate: the big earlier quantum must not have been hoarded.
        q.enqueue(SimTime::ZERO, pkt(1, 1, 100));
        q.enqueue(SimTime::ZERO, pkt(2, 0, 100));
        let order = drain(&mut q);
        assert_eq!(order, vec![(1, 1), (2, 0)]);
        assert_eq!(q.flows.len(), 2);
    }
}
