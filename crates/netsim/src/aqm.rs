//! Active queue management disciplines: RED and CoDel.
//!
//! Both implement [`Queue`] so they can sit on any link. They are fully
//! deterministic: RED draws its early-drop coin flips from a per-queue
//! seeded [`StdRng`], CoDel is deterministic by construction (its control
//! law depends only on sojourn times).
//!
//! - [`RedQueue`] is classic Floyd/Jacobson RED with the "gentle" extension:
//!   the drop probability ramps from 0 to `max_p` between `min_th` and
//!   `max_th`, then from `max_p` to 1 between `max_th` and `2*max_th`.
//!   Thresholds are expressed as fractions of the queue capacity so one
//!   config scales across link speeds.
//! - [`CoDelQueue`] is RFC 8289 CoDel: drop from the head when the packet
//!   sojourn time has exceeded `target` for at least `interval`, then space
//!   subsequent drops by `interval / sqrt(count)`.

use crate::packet::PacketRef;
use crate::queue::{Dequeue, EnqueueResult, Queue, QueueStats};
use crate::time::{SimDuration, SimTime};
use crate::units::MTU_BYTES;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::VecDeque;

/// Configuration for [`RedQueue`]. Thresholds are fractions of the queue's
/// byte capacity; the EWMA weight and `max_p` follow the classic defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedConfig {
    /// Lower threshold on the average occupancy, as a fraction of capacity.
    /// Below it no packet is ever early-dropped.
    pub min_th_frac: f64,
    /// Upper threshold as a fraction of capacity: at `max_th` the early-drop
    /// probability reaches `max_p` (and the gentle ramp to 1 begins).
    pub max_th_frac: f64,
    /// Early-drop probability at `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average-occupancy estimator.
    pub weight: f64,
    /// Reference time to transmit one packet, used to age the average
    /// across idle periods (the estimator decays as if that many empty
    /// slots had passed).
    pub idle_pkt_time: SimDuration,
    /// Seed for the early-drop randomization.
    pub seed: u64,
}

impl Default for RedConfig {
    fn default() -> Self {
        RedConfig {
            min_th_frac: 0.15,
            max_th_frac: 0.45,
            max_p: 0.1,
            weight: 1.0 / 512.0,
            idle_pkt_time: SimDuration::from_micros(300),
            seed: 1,
        }
    }
}

/// The marking probability `p_b` of gentle RED as a pure function of the
/// average occupancy (bytes).
fn red_drop_probability(avg_bytes: f64, min_th: f64, max_th: f64, max_p: f64) -> f64 {
    if avg_bytes < min_th {
        0.0
    } else if avg_bytes < max_th {
        max_p * (avg_bytes - min_th) / (max_th - min_th)
    } else if avg_bytes < 2.0 * max_th {
        // Gentle region: ramp from max_p at max_th to 1 at 2*max_th.
        max_p + (1.0 - max_p) * (avg_bytes - max_th) / max_th
    } else {
        1.0
    }
}

/// Random Early Detection with the gentle extension.
#[derive(Debug)]
pub struct RedQueue {
    capacity_bytes: u64,
    occupied_bytes: u64,
    packets: VecDeque<PacketRef>,
    stats: QueueStats,
    min_th: f64,
    max_th: f64,
    max_p: f64,
    weight: f64,
    idle_pkt_time: SimDuration,
    /// EWMA of the occupancy in bytes, updated on every arrival.
    avg: f64,
    /// Packets accepted since the last early drop (`-1` right after one),
    /// for the uniformized inter-drop spacing.
    count: i64,
    /// Set when the queue drained to empty, to age `avg` across idle time.
    idle_since: Option<SimTime>,
    rng: StdRng,
}

impl RedQueue {
    /// Create a RED queue with `capacity_bytes` of buffer.
    ///
    /// # Panics
    /// Panics on zero capacity or non-increasing thresholds.
    pub fn new(capacity_bytes: u64, cfg: RedConfig) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        let min_th = cfg.min_th_frac * capacity_bytes as f64;
        let max_th = cfg.max_th_frac * capacity_bytes as f64;
        assert!(
            0.0 <= min_th && min_th < max_th,
            "RED thresholds must satisfy 0 <= min_th < max_th"
        );
        RedQueue {
            capacity_bytes,
            occupied_bytes: 0,
            packets: VecDeque::new(),
            stats: QueueStats::default(),
            min_th,
            max_th,
            max_p: cfg.max_p,
            weight: cfg.weight,
            idle_pkt_time: cfg.idle_pkt_time,
            avg: 0.0,
            count: -1,
            idle_since: None,
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    /// The marking probability at a hypothetical average occupancy.
    fn drop_probability(&self, avg_bytes: f64) -> f64 {
        red_drop_probability(avg_bytes, self.min_th, self.max_th, self.max_p)
    }

    /// Update the EWMA for an arrival at `now`.
    fn update_avg(&mut self, now: SimTime) {
        if let Some(idle) = self.idle_since.take() {
            // Age the estimator across the idle period: as if `m` empty
            // transmission slots had been observed.
            let m = (now - idle).as_secs_f64() / self.idle_pkt_time.as_secs_f64();
            if m > 0.0 {
                self.avg *= (1.0 - self.weight).powf(m);
            }
        }
        self.avg += self.weight * (self.occupied_bytes as f64 - self.avg);
    }
}

impl Queue for RedQueue {
    fn enqueue(&mut self, now: SimTime, pkt: PacketRef) -> EnqueueResult {
        self.update_avg(now);
        // Hard byte limit is always enforced (RED degrades to drop-tail
        // when the average estimator lags a burst).
        if self.occupied_bytes + pkt.size > self.capacity_bytes {
            self.count = -1;
            self.stats.on_arrival_drop(pkt.size, self.occupied_bytes);
            return EnqueueResult::Dropped;
        }
        let p_b = self.drop_probability(self.avg);
        let early_drop = if p_b <= 0.0 {
            self.count = -1;
            false
        } else {
            self.count += 1;
            // Uniformize drop spacing: p_a = p_b / (1 - count * p_b).
            let denom = 1.0 - self.count as f64 * p_b;
            let p_a = if denom <= 0.0 {
                1.0
            } else {
                (p_b / denom).min(1.0)
            };
            self.rng.gen::<f64>() < p_a
        };
        if early_drop {
            self.count = -1;
            self.stats.on_arrival_drop(pkt.size, self.occupied_bytes);
            EnqueueResult::Dropped
        } else {
            self.occupied_bytes += pkt.size;
            self.stats.on_accept(pkt.size, self.occupied_bytes);
            self.packets.push_back(pkt);
            EnqueueResult::Accepted
        }
    }

    fn dequeue(&mut self, now: SimTime, _dropped: &mut Vec<PacketRef>) -> Dequeue {
        let Some(pkt) = self.packets.pop_front() else {
            return Dequeue::Empty;
        };
        self.occupied_bytes -= pkt.size;
        if self.packets.is_empty() {
            self.idle_since = Some(now);
        }
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

/// Configuration for [`CoDelQueue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoDelConfig {
    /// Acceptable standing sojourn time (RFC 8289 default 5 ms).
    pub target: SimDuration,
    /// Sliding window over which the sojourn must stay above `target`
    /// before dropping starts (RFC 8289 default 100 ms).
    pub interval: SimDuration,
}

impl Default for CoDelConfig {
    fn default() -> Self {
        CoDelConfig {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
        }
    }
}

/// CoDel (RFC 8289): sojourn-time-driven head-drop AQM.
#[derive(Debug)]
pub struct CoDelQueue {
    capacity_bytes: u64,
    occupied_bytes: u64,
    /// Packets with their enqueue timestamps (for sojourn measurement).
    packets: VecDeque<(SimTime, PacketRef)>,
    stats: QueueStats,
    target: SimDuration,
    interval: SimDuration,
    /// Time at which the sojourn has continuously exceeded `target` long
    /// enough to justify dropping; `None` while below target.
    first_above: Option<SimTime>,
    /// In the dropping state?
    dropping: bool,
    /// Next scheduled drop time while dropping.
    drop_next: SimTime,
    /// Drops in the current dropping episode.
    count: u32,
}

impl CoDelQueue {
    /// Create a CoDel queue with `capacity_bytes` of buffer.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity_bytes: u64, cfg: CoDelConfig) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        CoDelQueue {
            capacity_bytes,
            occupied_bytes: 0,
            packets: VecDeque::new(),
            stats: QueueStats::default(),
            target: cfg.target,
            interval: cfg.interval,
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
        }
    }

    /// `t + interval / sqrt(count)`: the RFC 8289 control law.
    fn control_law(&self, t: SimTime, count: u32) -> SimTime {
        let step = self.interval.as_nanos() as f64 / (count.max(1) as f64).sqrt();
        t + SimDuration::from_nanos(step as u64)
    }

    /// Pop the head and decide whether CoDel would drop it (`ok_to_drop`).
    fn pop_head(&mut self, now: SimTime) -> Option<(PacketRef, bool)> {
        let (enq_t, pkt) = self.packets.pop_front()?;
        self.occupied_bytes -= pkt.size;
        let sojourn = now - enq_t;
        obs::observe!("netsim.queue.sojourn_ms", sojourn.as_millis_f64());
        let ok_to_drop = if sojourn < self.target || self.occupied_bytes <= MTU_BYTES {
            self.first_above = None;
            false
        } else {
            match self.first_above {
                None => {
                    self.first_above = Some(now + self.interval);
                    false
                }
                Some(t) => now >= t,
            }
        };
        Some((pkt, ok_to_drop))
    }

    fn head_drop(&mut self, pkt: PacketRef, dropped: &mut Vec<PacketRef>) {
        self.stats.on_head_drop(pkt.size, self.occupied_bytes);
        dropped.push(pkt);
    }
}

impl Queue for CoDelQueue {
    fn enqueue(&mut self, now: SimTime, pkt: PacketRef) -> EnqueueResult {
        if self.occupied_bytes + pkt.size > self.capacity_bytes {
            self.stats.on_arrival_drop(pkt.size, self.occupied_bytes);
            EnqueueResult::Dropped
        } else {
            self.occupied_bytes += pkt.size;
            self.stats.on_accept(pkt.size, self.occupied_bytes);
            self.packets.push_back((now, pkt));
            EnqueueResult::Accepted
        }
    }

    fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<PacketRef>) -> Dequeue {
        let Some((pkt, ok)) = self.pop_head(now) else {
            self.dropping = false;
            return Dequeue::Empty;
        };
        let (mut pkt, mut ok) = (pkt, ok);
        if self.dropping {
            if !ok {
                self.dropping = false;
            } else {
                while self.dropping && now >= self.drop_next {
                    self.head_drop(pkt, dropped);
                    self.count += 1;
                    match self.pop_head(now) {
                        None => {
                            self.dropping = false;
                            return Dequeue::Empty;
                        }
                        Some((p, o)) => {
                            pkt = p;
                            ok = o;
                            if !ok {
                                self.dropping = false;
                            } else {
                                self.drop_next = self.control_law(self.drop_next, self.count);
                            }
                        }
                    }
                }
            }
        } else if ok {
            // Enter the dropping state: drop the head, deliver the next.
            self.head_drop(pkt, dropped);
            self.dropping = true;
            // Resume at a higher rate if we were dropping recently.
            let recent = now < self.drop_next + self.interval.saturating_mul(16);
            self.count = if self.count > 2 && recent {
                self.count - 2
            } else {
                1
            };
            self.drop_next = self.control_law(now, self.count);
            match self.pop_head(now) {
                None => return Dequeue::Empty,
                Some((p, _)) => pkt = p,
            }
        }
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
        PacketRef {
            id: PacketId(0),
            size,
            flow: FlowId(0),
        }
    }

    /// RED p_b curve: zero below min_th, monotone non-decreasing across the
    /// whole range, strictly increasing inside the gentle region, and
    /// continuous at max_th (no cliff).
    #[test]
    fn red_drop_probability_monotone_in_gentle_region() {
        let q = RedQueue::new(100_000, RedConfig::default());
        let (min_th, max_th) = (15_000.0, 45_000.0);
        assert_eq!(q.drop_probability(0.0), 0.0);
        assert_eq!(q.drop_probability(min_th - 1.0), 0.0);

        let mut prev = -1.0;
        let mut avg = 0.0;
        while avg <= 2.0 * max_th + 10_000.0 {
            let p = q.drop_probability(avg);
            assert!(p >= prev, "p_b not monotone at avg={avg}: {p} < {prev}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
            avg += 500.0;
        }

        // Strictly increasing inside the gentle region [max_th, 2*max_th).
        let mut prev = q.drop_probability(max_th);
        assert!((prev - 0.1).abs() < 1e-12, "p_b(max_th) must equal max_p");
        let mut avg = max_th + 1_000.0;
        while avg < 2.0 * max_th {
            let p = q.drop_probability(avg);
            assert!(p > prev, "gentle region not strictly increasing at {avg}");
            prev = p;
            avg += 1_000.0;
        }
        // Continuity at max_th and saturation at 2*max_th.
        assert!(q.drop_probability(max_th + 1e-6) - 0.1 < 1e-6);
        assert_eq!(q.drop_probability(2.0 * max_th), 1.0);
    }

    /// A RED queue kept in the early-drop band sheds packets probabilistically
    /// but deterministically for a fixed seed.
    #[test]
    fn red_early_drops_are_deterministic() {
        let run = || {
            let mut q = RedQueue::new(100_000, RedConfig::default());
            let mut drops = Vec::new();
            let mut now = SimTime::ZERO;
            for i in 0..2_000u64 {
                now += SimDuration::from_micros(100);
                if q.enqueue(now, pkt(1_000)) == EnqueueResult::Dropped {
                    drops.push(i);
                }
                // Drain slower than arrivals so the average climbs into the
                // early-drop band.
                if i % 2 == 0 {
                    let mut d = Vec::new();
                    q.dequeue(now, &mut d);
                }
            }
            drops
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce the same drop set");
        assert!(!a.is_empty(), "sustained overload must trigger drops");
        // The average estimator must have climbed well into the drop band.
        let mut q = RedQueue::new(100_000, RedConfig::default());
        let mut now = SimTime::ZERO;
        for i in 0..2_000u64 {
            now += SimDuration::from_micros(100);
            q.enqueue(now, pkt(1_000));
            if i % 2 == 0 {
                let mut d = Vec::new();
                q.dequeue(now, &mut d);
            }
        }
        assert!(q.avg > 15_000.0, "avg {} never left the accept band", q.avg);
    }

    /// CoDel against a hand-computed reference trace.
    ///
    /// Setup: 100 packets of 1000 B enqueued at t=0; one dequeue every
    /// 10 ms. Every head packet's sojourn (>= 10 ms) exceeds the 5 ms
    /// target, so `first_above = 10 ms + interval = 110 ms`:
    ///
    /// - t=110 ms: first drop, count=1, drop_next = 110 + 100/sqrt(1) = 210 ms
    /// - t=210 ms: drop, count=2, drop_next = 210 + 100/sqrt(2) = 280.710678 ms
    /// - t=290 ms (first dequeue after drop_next): drop, count=3,
    ///   drop_next = 280.710678 + 100/sqrt(3) = 338.445704 ms
    /// - t=340 ms: drop, count=4, drop_next = 338.445704 + 50 = 388.445704 ms
    /// - t=390 ms: drop, count=5, drop_next = 388.445704 + 100/sqrt(5)
    ///   = 433.167063 ms
    /// - t=440 ms: drop, count=6, drop_next = 433.167063 + 100/sqrt(6)
    ///   = 473.991892 ms
    /// - t=480 ms: drop, count=7, drop_next = 473.991892 + 100/sqrt(7)
    ///   = 511.788339 ms
    /// - t=520 ms: drop, count=8
    #[test]
    fn codel_drop_cadence_matches_hand_computed_trace() {
        let mut q = CoDelQueue::new(1_000_000, CoDelConfig::default());
        for _ in 0..100 {
            assert_eq!(
                q.enqueue(SimTime::ZERO, pkt(1_000)),
                EnqueueResult::Accepted
            );
        }
        let mut drop_times_ms = Vec::new();
        for tick in 1..=52u64 {
            let now = SimTime::from_millis(10 * tick);
            let mut dropped = Vec::new();
            match q.dequeue(now, &mut dropped) {
                Dequeue::Packet(_) => {}
                other => panic!("queue unexpectedly not serving at {now:?}: {other:?}"),
            }
            assert!(
                dropped.len() <= 1,
                "one drop per service slot in this trace"
            );
            if !dropped.is_empty() {
                drop_times_ms.push(10 * tick);
            }
        }
        assert_eq!(drop_times_ms, vec![110, 210, 290, 340, 390, 440, 480, 520]);
        assert_eq!(q.stats().drops, 8);
        assert_eq!(q.stats().dropped_bytes, 8_000);
    }

    /// Below-target sojourns never trigger drops, no matter how long the
    /// run: CoDel leaves short queues alone.
    #[test]
    fn codel_quiescent_below_target() {
        let mut q = CoDelQueue::new(1_000_000, CoDelConfig::default());
        let mut now = SimTime::ZERO;
        for _ in 0..1_000 {
            q.enqueue(now, pkt(1_000));
            now += SimDuration::from_millis(1);
            let mut dropped = Vec::new();
            // Immediate service: sojourn 1 ms < 5 ms target.
            match q.dequeue(now, &mut dropped) {
                Dequeue::Packet(_) => {}
                other => panic!("expected packet, got {other:?}"),
            }
            assert!(dropped.is_empty());
        }
        assert_eq!(q.stats().drops, 0);
    }

    /// Once the standing queue drains, CoDel exits the dropping state.
    #[test]
    fn codel_exits_dropping_when_queue_drains() {
        let mut q = CoDelQueue::new(1_000_000, CoDelConfig::default());
        for _ in 0..30 {
            q.enqueue(SimTime::ZERO, pkt(1_000));
        }
        // Force it into dropping.
        let mut dropped = Vec::new();
        for tick in 1..=12u64 {
            q.dequeue(SimTime::from_millis(10 * tick), &mut dropped);
        }
        assert!(!dropped.is_empty());
        // Drain the rest quickly (sojourn still high, but occupancy falls
        // under one MTU which resets first_above and ends dropping).
        let mut t = SimTime::from_millis(120);
        loop {
            let mut d = Vec::new();
            match q.dequeue(t, &mut d) {
                Dequeue::Empty => break,
                _ => t += SimDuration::from_micros(10),
            }
        }
        let drops_after_drain = q.stats().drops;
        // New, lightly loaded traffic must sail through.
        let mut now = t + SimDuration::from_millis(10);
        for _ in 0..100 {
            q.enqueue(now, pkt(1_000));
            now += SimDuration::from_millis(1);
            let mut d = Vec::new();
            q.dequeue(now, &mut d);
            assert!(d.is_empty());
        }
        assert_eq!(q.stats().drops, drops_after_drain);
    }
}
