//! Token-bucket rate shaping, as a [`Queue`](crate::Queue) policy.
//!
//! The shaper models an ISP's: a FIFO whose head may only be released when
//! the bucket holds enough byte tokens. Unlike the other disciplines it is
//! *non-work-conserving* — with packets queued and too few tokens,
//! [`Queue::dequeue`](crate::Queue::dequeue) returns
//! [`Dequeue::Wait`](crate::Dequeue::Wait) with the time at which enough
//! tokens will have accumulated, and the engine schedules a link wakeup
//! instead of serializing immediately. A packet larger than the bucket
//! could never gather its tokens, so the queue drops it on arrival, as
//! Linux `tbf` does.

use crate::packet::PacketRef;
use crate::time::{SimDuration, SimTime};
use crate::units::Rate;
use std::collections::VecDeque;

/// Configuration of a token-bucket shaper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketConfig {
    /// Sustained shaping rate (tokens accrue at this byte rate).
    pub rate: Rate,
    /// Bucket depth in bytes: the largest back-to-back burst released at
    /// line rate, and the largest packet the shaper can ever send.
    pub burst_bytes: u64,
}

impl TokenBucketConfig {
    /// A shaper at `rate` with a burst of `burst_bytes`.
    pub fn new(rate: Rate, burst_bytes: u64) -> Self {
        TokenBucketConfig { rate, burst_bytes }
    }
}

/// A token bucket over a FIFO.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    pub(crate) fifo: VecDeque<PacketRef>,
    rate: Rate,
    burst: f64,
    /// Current token level in bytes. `f64` so sub-byte accrual between
    /// closely spaced dequeues is not lost; fully deterministic.
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A full bucket.
    ///
    /// # Panics
    /// Panics on a zero burst or a non-positive rate.
    pub(crate) fn new(cfg: TokenBucketConfig) -> Self {
        assert!(cfg.burst_bytes > 0, "token bucket burst must be positive");
        assert!(cfg.rate.bps() > 0.0, "shaping rate must be positive");
        TokenBucket {
            fifo: VecDeque::new(),
            rate: cfg.rate,
            burst: cfg.burst_bytes as f64,
            // Start full: the first burst goes out unshaped, like a real
            // shaper that has been idle.
            tokens: cfg.burst_bytes as f64,
            last_refill: SimTime::ZERO,
        }
    }

    /// Whether a full bucket covers a packet of `size` bytes.
    pub(crate) fn holds(&self, size: u64) -> bool {
        size as f64 <= self.burst
    }

    /// The head if the bucket covers it, `Err` with the time it will.
    #[inline]
    pub(crate) fn pop(&mut self, now: SimTime) -> Result<Option<PacketRef>, SimTime> {
        let Some(need) = self.fifo.front().map(|head| head.size as f64) else {
            return Ok(None);
        };
        let dt = (now - self.last_refill).as_secs_f64();
        if dt > 0.0 {
            self.tokens = (self.tokens + dt * self.rate.bps() / 8.0).min(self.burst);
            self.last_refill = now;
        }
        if self.tokens >= need {
            self.tokens -= need;
            return Ok(self.fifo.pop_front());
        }
        // Time until the deficit accrues, padded by one nanosecond so
        // float rounding can never wake the link a hair too early.
        let secs = (need - self.tokens) * 8.0 / self.rate.bps();
        Err(now + SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(1))
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

    /// 8 Mbps = 1000 bytes per millisecond; burst of one packet.
    fn bucket_8mbps() -> TokenBucketConfig {
        TokenBucketConfig::new(Rate::from_mbps(8.0), 1_000)
    }

    fn shaper_8mbps() -> Queue {
        Discipline::TokenBucket(bucket_8mbps()).build(1_000_000)
    }

    #[test]
    fn burst_then_wait_then_release() {
        let mut q = shaper_8mbps();
        for _ in 0..3 {
            assert_eq!(
                q.enqueue(SimTime::ZERO, pkt(1_000)),
                EnqueueResult::Accepted
            );
        }
        let mut dropped = Vec::new();
        // Full bucket: first packet released immediately.
        match q.dequeue(SimTime::ZERO, &mut dropped) {
            Dequeue::Packet(p) => assert_eq!(p.size, 1_000),
            other => panic!("expected immediate release, got {other:?}"),
        }
        // Bucket empty: the second must wait ~1 ms for 1000 bytes.
        let at = match q.dequeue(SimTime::ZERO, &mut dropped) {
            Dequeue::Wait(at) => at,
            other => panic!("expected Wait, got {other:?}"),
        };
        let wait_ns = at.as_nanos();
        assert!(
            (1_000_000..=1_000_100).contains(&wait_ns),
            "wait time {wait_ns} ns not ~1 ms"
        );
        // At the advertised time the packet is releasable.
        match q.dequeue(at, &mut dropped) {
            Dequeue::Packet(p) => assert_eq!(p.size, 1_000),
            other => panic!("expected release at {at:?}, got {other:?}"),
        }
        assert!(dropped.is_empty());
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut bucket = TokenBucket::new(bucket_8mbps());
        bucket.fifo.push_back(pkt(1_000));
        // A long idle period cannot store more than one burst.
        assert_eq!(bucket.pop(SimTime::from_secs(10)), Ok(Some(pkt(1_000))));
        assert!(
            bucket.tokens < 1.0,
            "tokens {} exceed burst cap",
            bucket.tokens
        );
    }

    #[test]
    fn packet_larger_than_the_bucket_is_dropped_on_arrival() {
        let mut q = shaper_8mbps();
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(1_001)), EnqueueResult::Dropped);
        assert_eq!((q.stats().drops, q.stats().dropped_bytes), (1, 1_001));
        assert!(q.is_empty());
        // A packet the bucket covers still goes out on the stored burst.
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1_000)),
            EnqueueResult::Accepted
        );
        match q.dequeue(SimTime::ZERO, &mut Vec::new()) {
            Dequeue::Packet(p) => assert_eq!(p.size, 1_000),
            other => panic!("expected release, got {other:?}"),
        }
    }

    #[test]
    fn sustained_rate_is_the_shaping_rate() {
        let mut q = shaper_8mbps();
        for _ in 0..50 {
            q.enqueue(SimTime::ZERO, pkt(1_000));
        }
        // Walk the Wait times: 50 packets at 8 Mbps should span ~49 ms
        // (first goes out on the stored burst).
        let mut now = SimTime::ZERO;
        let mut released = 0;
        let mut dropped = Vec::new();
        while released < 50 {
            match q.dequeue(now, &mut dropped) {
                Dequeue::Packet(_) => released += 1,
                Dequeue::Wait(at) => {
                    assert!(at > now, "Wait must advance time");
                    now = at;
                }
                Dequeue::Empty => panic!("drained early"),
            }
        }
        let ms = now.as_nanos() as f64 / 1e6;
        assert!(
            (48.9..=49.2).contains(&ms),
            "50 packets took {ms} ms, expected ~49"
        );
    }

    #[test]
    fn overflow_tail_drops() {
        let mut q = Discipline::TokenBucket(bucket_8mbps()).build(2_000);
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1_000)),
            EnqueueResult::Accepted
        );
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1_000)),
            EnqueueResult::Accepted
        );
        assert_eq!(q.enqueue(SimTime::ZERO, pkt(1_000)), EnqueueResult::Dropped);
        assert_eq!(q.stats().drops, 1);
    }
}
