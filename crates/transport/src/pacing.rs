//! Packet pacing — the mechanism behind application-informed pacing (§3.2).
//!
//! A [`Pacer`] is a token bucket that upper-bounds the rate at which a sender
//! may release packets, in bursts of at most `burst_packets` MTU-sized
//! packets. With a pace rate R and burst size B, the sender emits up to B
//! packets back to back, then waits until the bucket refills — giving a mean
//! rate of R with line-rate bursts no longer than B packets, exactly the
//! knob the paper sweeps in Fig 4.
//!
//! A pacer with no rate set ([`Pacer::unlimited`]) still caps line-rate
//! bursts at `burst_packets`, modeling the default burst limiting the paper
//! describes for the unpaced production stack (40 packets).

use netsim::{Rate, SimDuration, SimTime, MTU_BYTES};

/// Token-bucket pacer limiting release rate and burst size.
#[derive(Debug, Clone)]
pub struct Pacer {
    /// Current pace rate. `None` means unpaced (rate-unlimited).
    rate: Option<Rate>,
    /// Tokens currently in the bucket, in bytes.
    tokens: f64,
    /// Bucket capacity in bytes: the burst size in MTUs.
    capacity: f64,
    /// Last refill time.
    last_refill: SimTime,
}

impl Pacer {
    /// A pacer with the given rate limit and burst size.
    ///
    /// # Panics
    /// Panics if `burst_packets` is zero.
    pub fn new(rate: Option<Rate>, burst_packets: u32) -> Self {
        assert!(burst_packets > 0, "burst must allow at least one packet");
        let capacity = (burst_packets as u64 * MTU_BYTES) as f64;
        Pacer {
            rate,
            tokens: capacity,
            capacity,
            last_refill: SimTime::ZERO,
        }
    }

    /// An unpaced pacer that still limits line-rate bursts to
    /// `burst_packets` (the production default is 40).
    pub fn unlimited(burst_packets: u32) -> Self {
        Pacer::new(None, burst_packets)
    }

    /// Change the pace rate. Takes effect immediately; accumulated burst
    /// allowance is preserved (but never exceeds the bucket capacity).
    pub fn set_rate(&mut self, now: SimTime, rate: Option<Rate>) {
        self.refill(now);
        self.rate = rate;
    }

    /// Current pace rate, if any.
    pub fn rate(&self) -> Option<Rate> {
        self.rate
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_refill);
        self.last_refill = now;
        if let Some(rate) = self.rate {
            self.tokens =
                (self.tokens + rate.bytes_per_sec() * elapsed.as_secs_f64()).min(self.capacity);
        } else if elapsed > SimDuration::ZERO {
            // Unpaced models an infinitely fast line between *distinct*
            // instants, but the burst cap must still hold within one instant:
            // at most `burst_packets` MTUs back to back, then the sender has
            // to yield to the event loop before the bucket refills.
            self.tokens = self.capacity;
        }
    }

    /// True if a packet of `bytes` may be released now.
    pub fn can_send(&mut self, now: SimTime, bytes: u64) -> bool {
        self.refill(now);
        // Permit a packet whenever a full packet's worth of tokens (or the
        // whole bucket, for tiny buckets) is available.
        self.tokens + 1e-9 >= bytes as f64
    }

    /// Consume tokens for a released packet. Call only after
    /// [`Pacer::can_send`] returned true.
    pub fn on_send(&mut self, now: SimTime, bytes: u64) {
        self.refill(now);
        self.tokens -= bytes as f64;
        debug_assert!(
            self.tokens > -(bytes as f64),
            "pacer sent without permission"
        );
    }

    /// Earliest time a packet of `bytes` may be released, given current
    /// tokens. Returns `now` if it may be released immediately, and `None`
    /// only for a zero-rate pacer (blocked forever). An unpaced pacer whose
    /// burst allowance is exhausted becomes ready again one microsecond
    /// later, when the bucket snaps back to full.
    pub fn next_release(&mut self, now: SimTime, bytes: u64) -> Option<SimTime> {
        let Some(rate) = self.rate else {
            self.refill(now);
            // Unpaced: ready now if the burst allowance covers it, otherwise
            // at the next representable instant (the bucket snaps full as
            // soon as any simulated time passes).
            return if self.tokens + 1e-9 >= bytes as f64 {
                Some(now)
            } else {
                Some(now + SimDuration::from_micros(1))
            };
        };
        self.refill(now);
        if self.tokens + 1e-9 >= bytes as f64 {
            return Some(now);
        }
        if rate.is_zero() {
            return None;
        }
        let deficit = bytes as f64 - self.tokens;
        let wait = deficit / rate.bytes_per_sec();
        Some(now + SimDuration::from_secs_f64(wait))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpaced_burst_cap_is_enforced() {
        // Regression: refill() used to snap the bucket full even with zero
        // elapsed time, so an unpaced sender could emit unbounded
        // back-to-back packets at one instant and `Pacer::unlimited(40)`
        // never actually capped the burst.
        let mut p = Pacer::unlimited(40);
        let t0 = SimTime::from_millis(5);
        for _ in 0..40 {
            assert!(p.can_send(t0, 1500));
            assert_eq!(p.next_release(t0, 1500), Some(t0));
            p.on_send(t0, 1500);
        }
        // 41st packet at the same instant must wait for time to advance.
        assert!(!p.can_send(t0, 1500));
        let next = p.next_release(t0, 1500).unwrap();
        assert!(next > t0, "burst-exhausted unpaced pacer must defer");
        // Any positive time advance restores the full burst allowance.
        assert!(p.can_send(next, 1500));
        for _ in 0..40 {
            assert!(p.can_send(next, 1500));
            p.on_send(next, 1500);
        }
        assert!(!p.can_send(next, 1500));
    }

    #[test]
    fn unpaced_small_burst_splits_window() {
        // An unpaced pacer with burst 2 releases exactly two packets per
        // instant, no matter how many the window would allow.
        let mut p = Pacer::unlimited(2);
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            assert!(p.can_send(now, 1500));
            p.on_send(now, 1500);
            assert!(p.can_send(now, 1500));
            p.on_send(now, 1500);
            assert!(!p.can_send(now, 1500));
            now = p.next_release(now, 1500).unwrap();
        }
    }

    #[test]
    fn burst_then_wait() {
        // 12 Mbps, burst 4: four packets go immediately, then 1500 B per ms.
        let mut p = Pacer::new(Some(Rate::from_mbps(12.0)), 4);
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            assert!(p.can_send(t0, 1500));
            p.on_send(t0, 1500);
        }
        assert!(!p.can_send(t0, 1500));
        let next = p.next_release(t0, 1500).unwrap();
        // Bucket empty: need 1500 bytes at 1.5 MB/s = 1 ms.
        assert_eq!(next, SimTime::from_millis(1));
        assert!(p.can_send(next, 1500));
    }

    #[test]
    fn average_rate_is_respected() {
        let mut p = Pacer::new(Some(Rate::from_mbps(12.0)), 4);
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        // Greedy send for one second.
        while now < SimTime::from_secs(1) {
            if p.can_send(now, 1500) {
                p.on_send(now, 1500);
                sent += 1500;
            } else {
                now = p.next_release(now, 1500).unwrap();
            }
        }
        let rate_bps = sent as f64 * 8.0;
        // Within 1% of 12 Mbps (burst allowance adds a little).
        assert!((rate_bps - 12e6).abs() / 12e6 < 0.01, "rate {rate_bps}");
    }

    #[test]
    fn rate_change_applies_immediately() {
        let mut p = Pacer::new(Some(Rate::from_mbps(1.0)), 1);
        let t0 = SimTime::ZERO;
        assert!(p.can_send(t0, 1500));
        p.on_send(t0, 1500);
        // At 1 Mbps the wait would be 12 ms; raising to 12 Mbps shortens it.
        p.set_rate(t0, Some(Rate::from_mbps(12.0)));
        let next = p.next_release(t0, 1500).unwrap();
        assert_eq!(next, SimTime::from_millis(1));
    }

    #[test]
    fn clearing_rate_unblocks_immediately() {
        let mut p = Pacer::new(Some(Rate::from_bps(10_000.0)), 1);
        let t0 = SimTime::ZERO;
        p.on_send(t0, 1500);
        assert!(!p.can_send(t0, 1500));
        // Application removes the pace limit: the burst allowance for this
        // instant is already spent, but the very next instant is wide open
        // (versus a 1.2 s wait at 10 kbps).
        p.set_rate(t0, None);
        let next = p.next_release(t0, 1500).unwrap();
        assert_eq!(next, t0 + SimDuration::from_micros(1));
        assert!(p.can_send(next, 1500));
    }

    #[test]
    fn zero_rate_blocks_forever() {
        let mut p = Pacer::new(Some(Rate::ZERO), 2);
        let t0 = SimTime::from_secs(1);
        // Initial bucket allows the configured burst...
        assert!(p.can_send(t0, 1500));
        p.on_send(t0, 1500);
        assert!(p.can_send(t0, 1500));
        p.on_send(t0, 1500);
        // ...then never refills.
        assert!(!p.can_send(t0, 1500));
        assert_eq!(p.next_release(t0, 1500), None);
    }

    #[test]
    fn tokens_capped_at_capacity() {
        let mut p = Pacer::new(Some(Rate::from_mbps(100.0)), 2);
        // After a long idle period, burst is still limited to 2 packets.
        let late = SimTime::from_secs(10);
        assert!(p.can_send(late, 1500));
        p.on_send(late, 1500);
        assert!(p.can_send(late, 1500));
        p.on_send(late, 1500);
        assert!(!p.can_send(late, 1500));
    }

    #[test]
    #[should_panic(expected = "burst")]
    fn zero_burst_panics() {
        Pacer::new(None, 0);
    }
}
