//! A LEDBAT-style scavenger congestion controller.
//!
//! The paper's related work (§2.2) discusses scavenger transports (LEDBAT,
//! PCC Proteus) as an alternative way to make video traffic friendlier:
//! they yield to loss-based flows by backing off as soon as queueing delay
//! appears, but they still *fully utilize* the link when no competitor is
//! present. Sammy takes the opposite position — consistently pace near the
//! video's needs regardless of competition. This module implements the
//! scavenger so the two philosophies can be compared head-to-head (see
//! `sammy-bench`'s ablation experiments).
//!
//! The controller follows the LEDBAT design: it estimates queueing delay
//! as `RTT − base RTT`, drives it toward a small `target`, growing the
//! window when below target and shrinking proportionally when above, with
//! a multiplicative decrease on loss.

use crate::cc::{CongestionControl, INITIAL_CWND_SEGMENTS, MAX_CWND_BYTES};
use netsim::{SimDuration, SimTime, MSS_BYTES};

/// Target queueing delay. LEDBAT's RFC allows up to 100 ms; scavengers
/// aiming to be nearly invisible use much less.
const TARGET: SimDuration = SimDuration::from_millis(15);
/// Proportional gain on the window update.
const GAIN: f64 = 1.0;

/// Delay-based scavenger congestion control.
#[derive(Debug, Clone)]
pub struct Ledbat {
    cwnd: u64,
    ssthresh: u64,
    base_rtt: Option<SimDuration>,
}

impl Ledbat {
    /// Current estimate of the path's base (uncongested) RTT.
    pub fn base_rtt(&self) -> Option<SimDuration> {
        self.base_rtt
    }
}

/// A fresh scavenger with the standard initial window.
impl Default for Ledbat {
    fn default() -> Self {
        Ledbat {
            cwnd: INITIAL_CWND_SEGMENTS * MSS_BYTES,
            ssthresh: u64::MAX,
            base_rtt: None,
        }
    }
}

impl CongestionControl for Ledbat {
    fn on_ack(
        &mut self,
        _now: SimTime,
        bytes_acked: u64,
        rtt: Option<SimDuration>,
        in_recovery: bool,
    ) {
        if in_recovery {
            return;
        }
        let Some(rtt) = rtt else {
            return;
        };
        let base = match self.base_rtt {
            None => {
                self.base_rtt = Some(rtt);
                rtt
            }
            Some(b) => {
                if rtt < b {
                    self.base_rtt = Some(rtt);
                    rtt
                } else {
                    b
                }
            }
        };
        let queuing = rtt - base;
        let target = TARGET.as_secs_f64().max(1e-6);
        // In (-inf, 1].
        let off_target = (target - queuing.as_secs_f64()) / target;
        // LEDBAT window update: proportional controller, clamped so one
        // update never moves the window by more than one MSS per MSS acked.
        let delta =
            GAIN * off_target * bytes_acked as f64 * MSS_BYTES as f64 / self.cwnd.max(1) as f64;
        let delta = delta.clamp(-(bytes_acked as f64), bytes_acked as f64);
        let next = self.cwnd as f64 + delta;
        self.cwnd = (next.max((2 * MSS_BYTES) as f64) as u64).min(MAX_CWND_BYTES);
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        self.cwnd = (self.cwnd / 2).max(2 * MSS_BYTES);
        self.ssthresh = self.cwnd;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.cwnd = MSS_BYTES.max(MSS_BYTES);
        self.ssthresh = (self.cwnd / 2).max(2 * MSS_BYTES);
    }

    fn on_idle_restart(&mut self, _now: SimTime) {
        self.cwnd = (INITIAL_CWND_SEGMENTS * MSS_BYTES).min(self.cwnd.max(MSS_BYTES));
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "ledbat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(cc: &mut Ledbat, rtt_ms: u64, times: usize) {
        for _ in 0..times {
            let w = cc.cwnd();
            cc.on_ack(
                SimTime::ZERO,
                w,
                Some(SimDuration::from_millis(rtt_ms)),
                false,
            );
        }
    }

    #[test]
    fn grows_when_delay_below_target() {
        let mut cc = Ledbat::default();
        let w0 = cc.cwnd();
        // RTT at base: zero queueing delay, full positive off-target.
        ack(&mut cc, 20, 10);
        assert!(cc.cwnd() > w0, "window must grow on an empty queue");
    }

    #[test]
    fn shrinks_when_delay_above_target() {
        let mut cc = Ledbat::default();
        ack(&mut cc, 20, 20); // establish base = 20 ms, grow some
        let w = cc.cwnd();
        // Now 60 ms RTT: 40 ms of queueing >> 15 ms target.
        ack(&mut cc, 60, 10);
        assert!(cc.cwnd() < w, "window must shrink under queueing delay");
    }

    #[test]
    fn converges_near_target_delay() {
        // Simple fluid loop: delay grows with cwnd (single queue model).
        // The controller oscillates around its set point, so compare the
        // time-average of the tail, not the final sample.
        let mut cc = Ledbat::default();
        let base_ms = 20.0;
        // Capacity chosen so the initial window fits within the BDP —
        // otherwise the very first RTT sample already contains queueing
        // delay and poisons the base-RTT estimate (a real LEDBAT
        // sensitivity, but not what this test is about).
        let capacity_bytes_per_ms = 1500.0; // 12 Mbps
        let mut tail = Vec::new();
        for i in 0..4000 {
            let queue_ms = (cc.cwnd() as f64 / capacity_bytes_per_ms - base_ms).max(0.0);
            let rtt = SimDuration::from_secs_f64((base_ms + queue_ms) / 1e3);
            cc.on_ack(SimTime::ZERO, MSS_BYTES, Some(rtt), false);
            if i >= 3000 {
                tail.push(queue_ms);
            }
        }
        let avg = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (avg - 15.0).abs() < 8.0,
            "queueing delay should settle near the 15 ms target, got {avg}"
        );
    }

    #[test]
    fn base_rtt_tracks_minimum() {
        let mut cc = Ledbat::default();
        ack(&mut cc, 30, 1);
        ack(&mut cc, 22, 1);
        ack(&mut cc, 40, 1);
        assert_eq!(cc.base_rtt(), Some(SimDuration::from_millis(22)));
    }

    #[test]
    fn loss_halves() {
        let mut cc = Ledbat::default();
        ack(&mut cc, 20, 20);
        let w = cc.cwnd();
        cc.on_loss_event(SimTime::ZERO);
        assert_eq!(cc.cwnd(), (w / 2).max(2 * MSS_BYTES));
    }

    #[test]
    fn floor_is_two_mss() {
        let mut cc = Ledbat::default();
        ack(&mut cc, 20, 5); // base 20
        for _ in 0..5000 {
            let w = cc.cwnd();
            cc.on_ack(SimTime::ZERO, w, Some(SimDuration::from_millis(500)), false);
        }
        assert!(cc.cwnd() >= 2 * MSS_BYTES);
    }
}
