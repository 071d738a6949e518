//! Congestion-control algorithms.
//!
//! The sender drives a [`CongestionControl`] implementation with ACK, loss,
//! and timeout events; the algorithm answers with a congestion window in
//! bytes. Two loss-based algorithms are provided: NewReno-style
//! [`Reno`] (the paper notes Reno is the production default at the streaming
//! service) and [`Cubic`] (the common internet default, used for
//! substrate-sensitivity ablations).

use netsim::{SimDuration, SimTime, MSS_BYTES};

/// Initial congestion window: 10 segments, the modern default.
pub const INITIAL_CWND_SEGMENTS: u64 = 10;

/// Upper bound on the congestion window (1 GiB). Real stacks are bounded by
/// buffer memory; the cap also keeps arithmetic far from integer overflow.
pub const MAX_CWND_BYTES: u64 = 1 << 30;

/// Congestion-control algorithm driven by the TCP sender.
pub trait CongestionControl: std::fmt::Debug {
    /// `bytes_acked` new bytes were cumulatively acknowledged.
    /// `in_recovery` is true while the sender is in fast recovery (window
    /// growth is suspended there).
    fn on_ack(
        &mut self,
        now: SimTime,
        bytes_acked: u64,
        rtt: Option<SimDuration>,
        in_recovery: bool,
    );

    /// A loss event was detected via duplicate ACKs (at most once per
    /// window). Multiplicative decrease happens here.
    fn on_loss_event(&mut self, now: SimTime);

    /// The retransmission timer expired: collapse to one segment.
    fn on_rto(&mut self, now: SimTime);

    /// The connection went idle and is restarting: reset the window to the
    /// initial value without touching ssthresh (slow-start restart).
    fn on_idle_restart(&mut self, now: SimTime);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u64;

    /// True while in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// Algorithm name for reporting.
    fn name(&self) -> &'static str;

    /// A pacing rate chosen by the congestion controller itself (BBR-style).
    /// The sender paces at the *minimum* of this and the application's
    /// requested rate. Loss-based algorithms return `None` (ack-clocked).
    fn pacing_rate(&self) -> Option<netsim::Rate> {
        None
    }

    /// The sender ran out of application data while the window still had
    /// room: delivery-rate samples taken now understate the path capacity.
    /// Model-based controllers (BBR) mark the current sample app-limited;
    /// loss-based algorithms ignore this.
    fn on_app_limited(&mut self, _now: SimTime) {}

    /// Bytes in flight after the sender processed an ACK. Model-based
    /// controllers use this to exit DRAIN once the queue built during
    /// STARTUP has emptied (inflight ≤ BDP). Loss-based algorithms ignore
    /// this.
    fn on_inflight(&mut self, _now: SimTime, _bytes_in_flight: u64) {}
}

/// NewReno congestion control: slow start, AIMD congestion avoidance,
/// halve-on-loss.
#[derive(Debug, Clone)]
pub struct Reno {
    cwnd: u64,
    ssthresh: u64,
    /// Byte accumulator for congestion-avoidance growth.
    acked_since_incr: u64,
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl Reno {
    /// A fresh Reno instance with the standard initial window.
    pub fn new() -> Self {
        Reno {
            cwnd: INITIAL_CWND_SEGMENTS * MSS_BYTES,
            ssthresh: u64::MAX,
            acked_since_incr: 0,
        }
    }
}

impl CongestionControl for Reno {
    fn on_ack(
        &mut self,
        _now: SimTime,
        bytes_acked: u64,
        _rtt: Option<SimDuration>,
        in_recovery: bool,
    ) {
        if in_recovery {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per MSS acked (i.e. grow by bytes acked),
            // not beyond ssthresh.
            self.cwnd = self
                .cwnd
                .saturating_add(bytes_acked)
                .min(self.ssthresh.max(self.cwnd))
                .min(MAX_CWND_BYTES);
        } else {
            // Congestion avoidance: one MSS per cwnd of acked bytes.
            self.acked_since_incr = self.acked_since_incr.saturating_add(bytes_acked);
            if self.acked_since_incr >= self.cwnd {
                self.acked_since_incr -= self.cwnd;
                self.cwnd = (self.cwnd + MSS_BYTES).min(MAX_CWND_BYTES);
            }
        }
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(2 * MSS_BYTES);
        self.cwnd = self.ssthresh;
        self.acked_since_incr = 0;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(2 * MSS_BYTES);
        self.cwnd = MSS_BYTES;
        self.acked_since_incr = 0;
    }

    fn on_idle_restart(&mut self, _now: SimTime) {
        self.cwnd = (INITIAL_CWND_SEGMENTS * MSS_BYTES).min(self.cwnd.max(MSS_BYTES));
        self.acked_since_incr = 0;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

/// CUBIC congestion control (RFC 8312 window growth, β = 0.7, C = 0.4).
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: u64,
    ssthresh: u64,
    /// Window size before the last reduction, in MSS units.
    w_max: f64,
    /// Time of the last loss event.
    epoch_start: Option<SimTime>,
    /// Reno-friendly region estimate, in MSS units.
    w_est: f64,
    acked_since_incr: u64,
}

const CUBIC_BETA: f64 = 0.7;
const CUBIC_C: f64 = 0.4;

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl Cubic {
    /// A fresh CUBIC instance with the standard initial window.
    pub fn new() -> Self {
        Cubic {
            cwnd: INITIAL_CWND_SEGMENTS * MSS_BYTES,
            ssthresh: u64::MAX,
            w_max: 0.0,
            epoch_start: None,
            w_est: 0.0,
            acked_since_incr: 0,
        }
    }

    /// Target window from the cubic function, in MSS units.
    fn w_cubic(&self, t: f64) -> f64 {
        let k = (self.w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        CUBIC_C * (t - k).powi(3) + self.w_max
    }
}

impl CongestionControl for Cubic {
    fn on_ack(
        &mut self,
        now: SimTime,
        bytes_acked: u64,
        rtt: Option<SimDuration>,
        in_recovery: bool,
    ) {
        if in_recovery {
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd = self
                .cwnd
                .saturating_add(bytes_acked)
                .min(self.ssthresh.max(self.cwnd))
                .min(MAX_CWND_BYTES);
            return;
        }
        let epoch = *self.epoch_start.get_or_insert(now);
        let t = now.saturating_since(epoch).as_secs_f64();
        let rtt_s = rtt.map_or(0.05, |r| r.as_secs_f64().max(1e-6));
        let target = self.w_cubic(t + rtt_s);
        let cwnd_mss = self.cwnd as f64 / MSS_BYTES as f64;

        // TCP-friendly region: grow at least as fast as Reno would.
        self.w_est +=
            3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * bytes_acked as f64 / self.cwnd as f64;
        let target = target.max(self.w_est);

        if target > cwnd_mss {
            // Approach the target over roughly one RTT of ACKs.
            let incr = ((target - cwnd_mss) / cwnd_mss) * bytes_acked as f64;
            self.acked_since_incr += incr as u64;
            if self.acked_since_incr >= MSS_BYTES {
                let whole = self.acked_since_incr / MSS_BYTES;
                self.acked_since_incr %= MSS_BYTES;
                self.cwnd = (self.cwnd + whole * MSS_BYTES).min(MAX_CWND_BYTES);
            }
        }
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        let cwnd_mss = self.cwnd as f64 / MSS_BYTES as f64;
        self.w_max = cwnd_mss;
        self.epoch_start = None;
        self.w_est = cwnd_mss * CUBIC_BETA;
        self.cwnd = (((self.cwnd as f64) * CUBIC_BETA) as u64).max(2 * MSS_BYTES);
        self.ssthresh = self.cwnd;
        self.acked_since_incr = 0;
    }

    fn on_rto(&mut self, _now: SimTime) {
        let cwnd_mss = self.cwnd as f64 / MSS_BYTES as f64;
        self.w_max = cwnd_mss;
        self.epoch_start = None;
        self.ssthresh = (((self.cwnd as f64) * CUBIC_BETA) as u64).max(2 * MSS_BYTES);
        self.cwnd = MSS_BYTES;
        self.acked_since_incr = 0;
    }

    fn on_idle_restart(&mut self, _now: SimTime) {
        self.cwnd = (INITIAL_CWND_SEGMENTS * MSS_BYTES).min(self.cwnd.max(MSS_BYTES));
        self.epoch_start = None;
        self.acked_since_incr = 0;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

/// Which congestion-control algorithm a connection should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgorithm {
    /// NewReno (the production default in the paper's deployment).
    #[default]
    Reno,
    /// CUBIC.
    Cubic,
    /// LEDBAT-style delay-based scavenger (related-work comparison, §2.2).
    Ledbat,
    /// BBR-style model-based control: paces at the estimated bottleneck
    /// bandwidth (related-work comparison, §2.2).
    BbrLite,
}

impl CcAlgorithm {
    /// Instantiate the algorithm.
    pub fn build(self) -> Box<dyn CongestionControl> {
        match self {
            CcAlgorithm::Reno => Box::new(Reno::new()),
            CcAlgorithm::Cubic => Box::new(Cubic::new()),
            CcAlgorithm::Ledbat => Box::new(crate::scavenger::Ledbat::default()),
            CcAlgorithm::BbrLite => Box::new(crate::bbr::BbrLite::default()),
        }
    }

    /// Lower-case label for CSV columns and CLI round-tripping.
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::Reno => "reno",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::Ledbat => "ledbat",
            CcAlgorithm::BbrLite => "bbr",
        }
    }
}

impl std::fmt::Display for CcAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The one spelling of each algorithm shared by the CLI, the JSON spec
/// API, and CSV headers. Unknown names are a [`netsim::SimError::Parse`],
/// never a panic or a silent default.
impl std::str::FromStr for CcAlgorithm {
    type Err = netsim::SimError;

    fn from_str(s: &str) -> Result<CcAlgorithm, netsim::SimError> {
        match s.to_ascii_lowercase().as_str() {
            "reno" => Ok(CcAlgorithm::Reno),
            "cubic" => Ok(CcAlgorithm::Cubic),
            "ledbat" => Ok(CcAlgorithm::Ledbat),
            "bbr" | "bbrlite" => Ok(CcAlgorithm::BbrLite),
            _ => Err(netsim::SimError::Parse {
                what: "congestion-control algorithm",
                input: s.to_string(),
                reason: "expected reno, cubic, bbr, or ledbat".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_algorithm_spelling_roundtrip() {
        for cc in [
            CcAlgorithm::Reno,
            CcAlgorithm::Cubic,
            CcAlgorithm::Ledbat,
            CcAlgorithm::BbrLite,
        ] {
            assert_eq!(cc.to_string(), cc.label());
            assert_eq!(cc.to_string().parse::<CcAlgorithm>().unwrap(), cc);
            assert_eq!(cc.label().parse::<CcAlgorithm>().ok(), Some(cc));
        }
        assert_eq!(
            "BBRLite".parse::<CcAlgorithm>().unwrap(),
            CcAlgorithm::BbrLite
        );
        let err = "vegas".parse::<CcAlgorithm>().unwrap_err();
        assert!(err.to_string().contains("vegas"), "{err}");
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut cc = Reno::new();
        let w0 = cc.cwnd();
        // ACK a full window: slow start should double it.
        cc.on_ack(SimTime::ZERO, w0, None, false);
        assert_eq!(cc.cwnd(), 2 * w0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn reno_congestion_avoidance_linear() {
        let mut cc = Reno::new();
        cc.on_loss_event(SimTime::ZERO); // ssthresh = cwnd/2, leave slow start
        let w = cc.cwnd();
        assert!(!cc.in_slow_start());
        // One full window of ACKs adds one MSS.
        cc.on_ack(SimTime::ZERO, w, None, false);
        assert_eq!(cc.cwnd(), w + MSS_BYTES);
    }

    #[test]
    fn reno_loss_halves() {
        let mut cc = Reno::new();
        let w0 = cc.cwnd();
        cc.on_loss_event(SimTime::ZERO);
        assert_eq!(cc.cwnd(), w0 / 2);
        assert_eq!(cc.ssthresh(), w0 / 2);
    }

    #[test]
    fn reno_rto_collapses_to_one_mss() {
        let mut cc = Reno::new();
        cc.on_rto(SimTime::ZERO);
        assert_eq!(cc.cwnd(), MSS_BYTES);
    }

    #[test]
    fn reno_floor_is_two_mss_after_loss() {
        let mut cc = Reno::new();
        for _ in 0..20 {
            cc.on_loss_event(SimTime::ZERO);
        }
        assert_eq!(cc.cwnd(), 2 * MSS_BYTES);
    }

    #[test]
    fn reno_recovery_freezes_growth() {
        let mut cc = Reno::new();
        let w = cc.cwnd();
        cc.on_ack(SimTime::ZERO, w, None, true);
        assert_eq!(cc.cwnd(), w);
    }

    #[test]
    fn idle_restart_resets_to_initial() {
        let mut cc = Reno::new();
        // Grow far beyond initial.
        for _ in 0..100 {
            cc.on_ack(SimTime::ZERO, cc.cwnd(), None, false);
        }
        assert!(cc.cwnd() > 10 * INITIAL_CWND_SEGMENTS * MSS_BYTES);
        cc.on_idle_restart(SimTime::ZERO);
        assert_eq!(cc.cwnd(), INITIAL_CWND_SEGMENTS * MSS_BYTES);
    }

    #[test]
    fn cubic_slow_start_then_cubic_growth() {
        let mut cc = Cubic::new();
        let w0 = cc.cwnd();
        cc.on_ack(SimTime::ZERO, w0, None, false);
        assert_eq!(cc.cwnd(), 2 * w0);

        cc.on_loss_event(SimTime::from_secs(1));
        let w_after_loss = cc.cwnd();
        assert!(w_after_loss < 2 * w0);

        // Feed ACKs over simulated time: the window must grow back toward
        // and past w_max (cubic's concave-then-convex recovery).
        let mut now = SimTime::from_secs(1);
        let rtt = SimDuration::from_millis(50);
        for _ in 0..600 {
            now += rtt;
            cc.on_ack(now, cc.cwnd(), Some(rtt), false);
        }
        assert!(cc.cwnd() > w_after_loss, "cubic failed to grow after loss");
    }

    #[test]
    fn cubic_loss_uses_beta() {
        let mut cc = Cubic::new();
        let w0 = cc.cwnd();
        cc.on_loss_event(SimTime::ZERO);
        let expected = (w0 as f64 * CUBIC_BETA) as u64;
        assert_eq!(cc.cwnd(), expected);
    }

    #[test]
    fn algorithm_selector() {
        assert_eq!(CcAlgorithm::Reno.build().name(), "reno");
        assert_eq!(CcAlgorithm::Cubic.build().name(), "cubic");
        assert_eq!(CcAlgorithm::Ledbat.build().name(), "ledbat");
        assert_eq!(CcAlgorithm::BbrLite.build().name(), "bbr-lite");
        assert_eq!(CcAlgorithm::default(), CcAlgorithm::Reno);
    }
}
