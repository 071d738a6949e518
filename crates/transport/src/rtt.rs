//! Round-trip-time estimation and retransmission timeout (RTO) computation,
//! following the standard smoothed-RTT scheme (RFC 6298).

use netsim::SimDuration;

/// Smoothed RTT estimator producing an RTO.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// Create an estimator with the conventional 200 ms RTO floor and 60 s
    /// ceiling. (Linux uses a 200 ms floor; the classical floor is 1 s, which
    /// is far too conservative for the 5 ms lab RTTs we simulate.)
    pub fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: SimDuration::MAX,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
        }
    }

    /// Record an RTT sample.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.min_rtt = self.min_rtt.min(rtt);
        match self.srtt {
            None => {
                // First sample: srtt = R, rttvar = R/2.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // rttvar = 3/4 rttvar + 1/4 |srtt - R|
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                // srtt = 7/8 srtt + 1/8 R
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + rtt.as_nanos()) / 8,
                ));
            }
        }
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Minimum RTT observed.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        if self.min_rtt == SimDuration::MAX {
            None
        } else {
            Some(self.min_rtt)
        }
    }

    /// Current retransmission timeout: `srtt + 4·rttvar`, clamped to
    /// `[min_rto, max_rto]`. Before any sample, a conservative 1 s.
    pub fn rto(&self) -> SimDuration {
        match self.srtt {
            None => SimDuration::from_secs(1),
            Some(srtt) => {
                let rto = srtt + self.rttvar * 4;
                rto.max(self.min_rto).min(self.max_rto)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn before_any_sample() {
        let e = RttEstimator::new();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.min_rtt(), None);
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_millis(10));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(10)));
        assert_eq!(e.min_rtt(), Some(SimDuration::from_millis(10)));
        // RTO = 10 + 4*5 = 30 ms, but clamped up to the 200 ms floor.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn smoothing_converges() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.on_sample(SimDuration::from_millis(20));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_millis_f64() - 20.0).abs() < 0.1);
        // Constant samples drive rttvar to ~0; RTO sits at the floor.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn variance_raises_rto() {
        let mut e = RttEstimator::new();
        for i in 0..200 {
            let ms = if i % 2 == 0 { 50 } else { 150 };
            e.on_sample(SimDuration::from_millis(ms));
        }
        // High jitter: RTO well above the floor.
        assert!(e.rto() > SimDuration::from_millis(200));
        assert!(e.rto() < SimDuration::from_secs(1));
    }

    #[test]
    fn min_rtt_tracks_smallest() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_millis(30));
        e.on_sample(SimDuration::from_millis(5));
        e.on_sample(SimDuration::from_millis(40));
        assert_eq!(e.min_rtt(), Some(SimDuration::from_millis(5)));
    }
}
