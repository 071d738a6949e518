//! Active queue management: RED and CoDel, as [`Queue`](crate::Queue)
//! policies.
//!
//! Both are fully deterministic: RED draws its early-drop coin flips from a
//! per-queue seeded [`StdRng`], CoDel is deterministic by construction (its
//! control law depends only on sojourn times). The queue keeps the byte
//! ledger; these types keep the packets and the state they decide with.
//!
//! - RED is classic Floyd/Jacobson RED with the "gentle" extension: the
//!   drop probability ramps from 0 to `MAX_P` between `min_th` and
//!   `max_th`, then from `MAX_P` to 1 between `max_th` and `2*max_th`.
//!   Thresholds are fractions of the queue capacity so one setting scales
//!   across link speeds.
//! - CoDel is RFC 8289 CoDel: drop from the head when the packet sojourn
//!   time has exceeded `TARGET` for at least `INTERVAL`, then space
//!   subsequent drops by `INTERVAL / sqrt(count)`.

use crate::packet::PacketRef;
use crate::time::{SimDuration, SimTime};
use crate::units::MTU_BYTES;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::VecDeque;

/// RED's settings, all fixed: thresholds at 15 % and 45 % of the queue's
/// byte capacity, the classic `max_p` of 0.1 and EWMA weight of 1/512.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct RedConfig;

/// Lower threshold on the average occupancy, as a fraction of capacity.
/// Below it no packet is ever early-dropped.
const MIN_TH_FRAC: f64 = 0.15;
/// Upper threshold as a fraction of capacity: at `max_th` the early-drop
/// probability reaches `MAX_P` (and the gentle ramp to 1 begins).
const MAX_TH_FRAC: f64 = 0.45;
/// Early-drop probability at `max_th`.
const MAX_P: f64 = 0.1;
/// EWMA weight for the average-occupancy estimator.
const WEIGHT: f64 = 1.0 / 512.0;
/// Reference time to transmit one packet, used to age the average across
/// idle periods (the estimator decays as if that many empty slots had
/// passed).
const IDLE_PKT_TIME: SimDuration = SimDuration::from_micros(300);
/// Seed for the early-drop randomization.
const RED_SEED: u64 = 1;

/// Random Early Detection with the gentle extension.
#[derive(Debug)]
pub(crate) struct Red {
    pub(crate) fifo: VecDeque<PacketRef>,
    min_th: f64,
    max_th: f64,
    /// EWMA of the occupancy in bytes, updated on every arrival.
    avg: f64,
    /// Packets accepted since the last early drop (`-1` right after one),
    /// for the uniformized inter-drop spacing.
    count: i64,
    /// Set when the queue drained to empty, to age `avg` across idle time.
    idle_since: Option<SimTime>,
    rng: StdRng,
}

impl Red {
    pub(crate) fn new(capacity_bytes: u64) -> Self {
        Red {
            fifo: VecDeque::new(),
            min_th: MIN_TH_FRAC * capacity_bytes as f64,
            max_th: MAX_TH_FRAC * capacity_bytes as f64,
            avg: 0.0,
            count: -1,
            idle_since: None,
            rng: StdRng::seed_from_u64(RED_SEED),
        }
    }

    /// The marking probability `p_b` of gentle RED at an average occupancy.
    fn drop_probability(&self, avg_bytes: f64) -> f64 {
        let (min_th, max_th) = (self.min_th, self.max_th);
        if avg_bytes < min_th {
            0.0
        } else if avg_bytes < max_th {
            MAX_P * (avg_bytes - min_th) / (max_th - min_th)
        } else if avg_bytes < 2.0 * max_th {
            // Gentle region: ramp from MAX_P at max_th to 1 at 2*max_th.
            MAX_P + (1.0 - MAX_P) * (avg_bytes - max_th) / max_th
        } else {
            1.0
        }
    }

    /// Whether to take an arrival at `now` into a queue holding `occupied`
    /// bytes; `fits` is whether it fits the byte capacity. The average
    /// moves on every arrival, and a hard-limit drop (RED degrades to
    /// drop-tail when the average lags a burst) restarts the spacing count.
    #[inline]
    pub(crate) fn admit(&mut self, now: SimTime, occupied: u64, fits: bool) -> bool {
        if let Some(idle) = self.idle_since.take() {
            // Age the estimator across the idle period: as if `m` empty
            // transmission slots had been observed.
            let m = (now - idle).as_secs_f64() / IDLE_PKT_TIME.as_secs_f64();
            if m > 0.0 {
                self.avg *= (1.0 - WEIGHT).powf(m);
            }
        }
        self.avg += WEIGHT * (occupied as f64 - self.avg);
        if !fits {
            self.count = -1;
            return false;
        }
        let p_b = self.drop_probability(self.avg);
        if p_b <= 0.0 {
            self.count = -1;
            return true;
        }
        self.count += 1;
        // Uniformize drop spacing: p_a = p_b / (1 - count * p_b).
        let denom = 1.0 - self.count as f64 * p_b;
        let p_a = if denom <= 0.0 {
            1.0
        } else {
            (p_b / denom).min(1.0)
        };
        let early_drop = self.rng.gen::<f64>() < p_a;
        if early_drop {
            self.count = -1;
        }
        !early_drop
    }

    /// The head, noting when it leaves the queue empty.
    #[inline]
    pub(crate) fn pop(&mut self, now: SimTime) -> Option<PacketRef> {
        let pkt = self.fifo.pop_front()?;
        if self.fifo.is_empty() {
            self.idle_since = Some(now);
        }
        Some(pkt)
    }
}

/// CoDel's settings, all fixed at RFC 8289's defaults: a 5 ms target
/// sojourn over a 100 ms interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct CoDelConfig;

/// Acceptable standing sojourn time.
const TARGET: SimDuration = SimDuration::from_millis(5);
/// Sliding window over which the sojourn must stay above `TARGET` before
/// dropping starts.
const INTERVAL: SimDuration = SimDuration::from_millis(100);

/// CoDel (RFC 8289): sojourn-time-driven head-drop AQM.
#[derive(Debug, Default)]
pub(crate) struct CoDel {
    /// Packets with their enqueue timestamps (for sojourn measurement).
    pub(crate) fifo: VecDeque<(SimTime, PacketRef)>,
    /// Time at which the sojourn has continuously exceeded `TARGET` long
    /// enough to justify dropping; `None` while below target.
    first_above: Option<SimTime>,
    /// In the dropping state?
    dropping: bool,
    /// Next scheduled drop time while dropping.
    drop_next: SimTime,
    /// Drops in the current dropping episode.
    count: u32,
}

/// Where one dequeue stands in CoDel's state machine.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CoDelPass {
    /// Judging the first head.
    First,
    /// Dropped a head while already in the dropping state: keep dropping
    /// at the control law's cadence.
    Dropping,
    /// Dropped the first head to enter the dropping state: send the next.
    Entered,
}

impl CoDel {
    /// `t + INTERVAL / sqrt(count)`: the RFC 8289 control law.
    fn control_law(t: SimTime, count: u32) -> SimTime {
        let step = INTERVAL.as_nanos() as f64 / (count.max(1) as f64).sqrt();
        t + SimDuration::from_nanos(step as u64)
    }

    /// Whether to drop the head just popped, enqueued at `enqueued_at` and
    /// leaving `left` bytes behind it; `pass` carries the dequeue's state
    /// from one popped head to the next.
    pub(crate) fn drops_head(
        &mut self,
        now: SimTime,
        enqueued_at: SimTime,
        left: u64,
        pass: &mut CoDelPass,
    ) -> bool {
        let sojourn = now - enqueued_at;
        obs::observe!("netsim.queue.sojourn_ms", sojourn.as_millis_f64());
        let ok_to_drop = if sojourn < TARGET || left <= MTU_BYTES {
            self.first_above = None;
            false
        } else {
            match self.first_above {
                None => {
                    self.first_above = Some(now + INTERVAL);
                    false
                }
                Some(t) => now >= t,
            }
        };
        match *pass {
            CoDelPass::Entered => false,
            _ if !ok_to_drop => {
                self.dropping = false;
                false
            }
            CoDelPass::First if !self.dropping => {
                // Enter the dropping state: drop the head, send the next.
                // Resume at a higher rate if we were dropping recently.
                self.dropping = true;
                let recent = now < self.drop_next + INTERVAL.saturating_mul(16);
                self.count = if self.count > 2 && recent {
                    self.count - 2
                } else {
                    1
                };
                self.drop_next = Self::control_law(now, self.count);
                *pass = CoDelPass::Entered;
                true
            }
            CoDelPass::First | CoDelPass::Dropping => {
                if let CoDelPass::Dropping = pass {
                    self.drop_next = Self::control_law(self.drop_next, self.count);
                }
                if now < self.drop_next {
                    return false;
                }
                self.count += 1;
                *pass = CoDelPass::Dropping;
                true
            }
        }
    }

    /// The queue ran out of packets during a dequeue in `pass`.
    pub(crate) fn drained(&mut self, pass: CoDelPass) {
        if !matches!(pass, CoDelPass::Entered) {
            self.dropping = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketId};
    use crate::queue::{Dequeue, Discipline, EnqueueResult, Queue};

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
        let q = Red::new(100_000);
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
            let mut q = Discipline::Red(RedConfig::default()).build(100_000);
            let (mut drops, mut early) = (Vec::new(), 0);
            let mut now = SimTime::ZERO;
            for i in 0..2_000u64 {
                now += SimDuration::from_micros(100);
                let room = q.occupied_bytes() + 1_000 <= q.capacity_bytes();
                if q.enqueue(now, pkt(1_000)) == EnqueueResult::Dropped {
                    drops.push(i);
                    early += u32::from(room);
                }
                // Drain slower than arrivals so the average climbs into the
                // early-drop band.
                if i % 2 == 0 {
                    let mut d = Vec::new();
                    q.dequeue(now, &mut d);
                }
            }
            (drops, early)
        };
        let (a, early) = run();
        assert_eq!(a, run().0, "same seed must reproduce the same drop set");
        assert!(!a.is_empty(), "sustained overload must trigger drops");
        // The average estimator must have climbed into the drop band: some
        // packets were dropped with room left for them.
        assert!(early > 0, "every drop was a tail drop");
    }

    fn codel(capacity_bytes: u64) -> Queue {
        Discipline::CoDel(CoDelConfig::default()).build(capacity_bytes)
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
        let mut q = codel(1_000_000);
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
        let mut q = codel(1_000_000);
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
        let mut q = codel(1_000_000);
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
