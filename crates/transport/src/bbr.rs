//! A BBR-style model-based congestion controller.
//!
//! §2.2 of the paper contrasts Sammy with BBR: both pace, but "BBR aims to
//! pace close to the bottleneck capacity while Sammy aims to pace
//! significantly lower." This controller reproduces the parts of BBR the
//! comparison needs — a windowed-max bottleneck-bandwidth estimate, a
//! min-RTT estimate with staleness expiry, STARTUP/DRAIN/PROBE_BW/PROBE_RTT
//! phases, app-limited sample marking, and pacing/cwnd gains derived from
//! the bandwidth model — so the ablations can show that BBR smooths packet
//! bursts without reducing *chunk* throughput.
//!
//! Simplifications vs real BBR: loss is ignored except for RTO (as in
//! BBRv1), and delivery rate is estimated from cumulative-ACK byte counts
//! over RTT-length epochs rather than per-packet delivery-rate sampling.
//! The epoch sampler is careful about its clock: the ACK that *opens* an
//! epoch only starts the timer — its bytes arrived during the previous
//! epoch's window, so counting them again would bias the max filter high.

use crate::cc::{CongestionControl, INITIAL_CWND_SEGMENTS, MAX_CWND_BYTES};
use netsim::{Rate, SimDuration, SimTime, MSS_BYTES};
use std::collections::VecDeque;

/// Phases of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Exponential search for the bottleneck bandwidth.
    Startup,
    /// Drain the queue built during startup.
    Drain,
    /// Steady state: cycle pacing gains around 1.0.
    ProbeBw,
    /// Periodically shrink the window to re-measure the propagation RTT.
    ProbeRtt,
}

/// The PROBE_BW gain cycle (BBRv1's eight-phase cycle).
const BW_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Startup pacing gain (2/ln 2).
const STARTUP_GAIN: f64 = 2.885;
/// Steady-state cwnd gain: window of 2x BDP to absorb ACK aggregation.
const CWND_GAIN: f64 = 2.0;
/// The min-RTT estimate expires after this long without a new minimum;
/// expiry triggers PROBE_RTT.
const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// How long PROBE_RTT holds the window down to re-measure the RTT floor.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
/// Minimum in-flight during PROBE_RTT, in segments (BBRMinPipeCwnd).
const PROBE_RTT_CWND_SEGMENTS: u64 = 4;
/// Consecutive DRAIN epochs after which we give up waiting for an
/// in-flight report and move on (senders that never call `on_inflight`).
const DRAIN_EPOCH_LIMIT: u32 = 2;

/// Simplified BBR congestion control.
#[derive(Debug, Clone)]
pub struct BbrLite {
    phase: Phase,
    /// Windowed max-filter of delivery-rate samples: (sample bps, epoch no).
    bw_samples: VecDeque<(f64, u64)>,
    /// Max of `bw_samples` (0 when empty), refreshed wherever the window
    /// changes: `cwnd()` and `pacing_rate()` read it on every packet.
    btlbw_bps: f64,
    /// Epoch counter for the max filter window.
    epoch: u64,
    /// Bytes cumulatively acked during the current epoch (excludes the
    /// epoch-opening ACK, which only starts the clock).
    epoch_bytes: u64,
    /// When the current epoch began.
    epoch_start: Option<SimTime>,
    /// The sender reported running out of data during this epoch: the
    /// sample understates the path and must not lower the max filter.
    epoch_app_limited: bool,
    /// Minimum RTT seen within the current window.
    min_rtt: Option<SimDuration>,
    /// When the current minimum was last confirmed.
    min_rtt_stamp: SimTime,
    /// Consecutive epochs without ≥25% bandwidth growth (startup exit).
    plateau: u32,
    /// Bandwidth at the last startup growth check.
    last_growth_bw: f64,
    /// Index into the PROBE_BW gain cycle.
    cycle_idx: usize,
    /// Epochs spent in DRAIN (fallback exit for inflight-blind senders).
    drain_epochs: u32,
    /// When the active PROBE_RTT may end.
    probe_rtt_end: Option<SimTime>,
    /// Lowest RTT sample observed during the active PROBE_RTT.
    probe_rtt_min: Option<SimDuration>,
    /// Phase to resume after PROBE_RTT.
    resume: Phase,
}

impl Default for BbrLite {
    fn default() -> Self {
        Self::new()
    }
}

impl BbrLite {
    /// A fresh controller in STARTUP.
    pub fn new() -> Self {
        BbrLite {
            phase: Phase::Startup,
            bw_samples: VecDeque::new(),
            btlbw_bps: 0.0,
            epoch: 0,
            epoch_bytes: 0,
            epoch_start: None,
            epoch_app_limited: false,
            min_rtt: None,
            min_rtt_stamp: SimTime::ZERO,
            plateau: 0,
            last_growth_bw: 0.0,
            cycle_idx: 0,
            drain_epochs: 0,
            probe_rtt_end: None,
            probe_rtt_min: None,
            resume: Phase::ProbeBw,
        }
    }

    /// Current bottleneck-bandwidth estimate in bits/sec (the max filter).
    pub fn btlbw_bps(&self) -> f64 {
        self.btlbw_bps
    }

    /// Recompute the max filter after its window changed.
    fn refresh_btlbw(&mut self) {
        let samples = self.bw_samples.iter().map(|&(bw, _)| bw);
        self.btlbw_bps = samples.fold(0.0, f64::max);
    }

    /// Estimated bandwidth-delay product in bytes (0 before any sample,
    /// so the cwnd floor applies).
    fn bdp_bytes(&self) -> u64 {
        match self.min_rtt {
            Some(rtt) => (self.btlbw_bps() * rtt.as_secs_f64() / 8.0) as u64,
            None => 0,
        }
    }

    fn pacing_gain(&self) -> f64 {
        match self.phase {
            Phase::Startup => STARTUP_GAIN,
            Phase::Drain => 1.0 / STARTUP_GAIN,
            Phase::ProbeBw => BW_GAINS[self.cycle_idx],
            Phase::ProbeRtt => 1.0,
        }
    }

    /// The cwnd gain is separate from the pacing gain: STARTUP/DRAIN keep a
    /// high-gain window so pacing (not the window) is the binding limit,
    /// while PROBE_BW holds 2x BDP.
    fn cwnd_gain(&self) -> f64 {
        match self.phase {
            Phase::Startup | Phase::Drain => STARTUP_GAIN,
            Phase::ProbeBw | Phase::ProbeRtt => CWND_GAIN,
        }
    }

    fn enter_probe_rtt(&mut self, now: SimTime) {
        self.resume = match self.phase {
            Phase::Startup => Phase::Startup,
            _ => Phase::ProbeBw,
        };
        self.phase = Phase::ProbeRtt;
        self.probe_rtt_end = Some(now + PROBE_RTT_DURATION);
        self.probe_rtt_min = None;
    }

    fn exit_probe_rtt(&mut self, now: SimTime) {
        if let Some(m) = self.probe_rtt_min {
            self.min_rtt = Some(m);
        }
        self.min_rtt_stamp = now;
        self.probe_rtt_end = None;
        self.probe_rtt_min = None;
        self.phase = self.resume;
        self.cycle_idx = 0;
    }

    fn on_epoch_complete(&mut self, sample_bps: f64, app_limited: bool) {
        // App-limited samples understate the path: they may only *raise*
        // the estimate (a busier path than we thought), never lower it —
        // and they do not advance the filter window, so a converged
        // estimate survives arbitrarily long app-limited gaps instead of
        // decaying to the trickle rate.
        if !app_limited || sample_bps > self.btlbw_bps() {
            self.epoch += 1;
            self.bw_samples.push_back((sample_bps, self.epoch));
            // Keep a 10-epoch window.
            while let Some(&(_, e)) = self.bw_samples.front() {
                if self.epoch - e >= 10 {
                    self.bw_samples.pop_front();
                } else {
                    break;
                }
            }
            self.refresh_btlbw();
        }

        match self.phase {
            Phase::Startup => {
                // Judge growth only on epochs where the sender kept the
                // pipe full; an app-limited lull is not a plateau.
                if !app_limited {
                    let bw = self.btlbw_bps();
                    if bw > self.last_growth_bw * 1.25 {
                        self.last_growth_bw = bw;
                        self.plateau = 0;
                    } else {
                        self.plateau += 1;
                        if self.plateau >= 3 {
                            self.phase = Phase::Drain;
                            self.drain_epochs = 0;
                        }
                    }
                }
            }
            Phase::Drain => {
                // Preferred exit is `on_inflight` (inflight ≤ BDP); this is
                // the fallback for drivers that never report flight.
                self.drain_epochs += 1;
                if self.drain_epochs >= DRAIN_EPOCH_LIMIT {
                    self.phase = Phase::ProbeBw;
                    self.cycle_idx = 0;
                }
            }
            Phase::ProbeBw => {
                self.cycle_idx = (self.cycle_idx + 1) % BW_GAINS.len();
            }
            Phase::ProbeRtt => {}
        }
    }
}

impl CongestionControl for BbrLite {
    fn on_ack(
        &mut self,
        now: SimTime,
        bytes_acked: u64,
        rtt: Option<SimDuration>,
        _in_recovery: bool,
    ) {
        if let Some(r) = rtt {
            match self.min_rtt {
                Some(m) if r < m => {
                    self.min_rtt = Some(r);
                    self.min_rtt_stamp = now;
                }
                None => {
                    self.min_rtt = Some(r);
                    self.min_rtt_stamp = now;
                }
                _ => {}
            }
            if self.phase == Phase::ProbeRtt {
                self.probe_rtt_min = Some(match self.probe_rtt_min {
                    Some(m) if m < r => m,
                    _ => r,
                });
            }
        }

        // PROBE_RTT lifecycle: enter when the min-RTT estimate has gone
        // stale, leave once the probe window has elapsed.
        match self.phase {
            Phase::ProbeRtt => {
                if self.probe_rtt_end.is_some_and(|end| now >= end) {
                    self.exit_probe_rtt(now);
                }
            }
            _ => {
                if self.min_rtt.is_some()
                    && now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW
                {
                    self.enter_probe_rtt(now);
                }
            }
        }

        let epoch_len = self.min_rtt.unwrap_or(SimDuration::from_millis(50));
        match self.epoch_start {
            None => {
                // First ACK of an epoch only starts the clock: its bytes
                // arrived before the window it opens, so counting them
                // would credit the sample with bytes from zero elapsed
                // time and bias the max filter high.
                self.epoch_start = Some(now);
            }
            Some(start) => {
                self.epoch_bytes += bytes_acked;
                let elapsed = now.saturating_since(start);
                if elapsed >= epoch_len && !elapsed.is_zero() {
                    let sample = self.epoch_bytes as f64 * 8.0 / elapsed.as_secs_f64();
                    let app_limited = self.epoch_app_limited;
                    self.on_epoch_complete(sample, app_limited);
                    self.epoch_bytes = 0;
                    self.epoch_start = Some(now);
                    self.epoch_app_limited = false;
                }
            }
        }
    }

    fn on_loss_event(&mut self, _now: SimTime) {
        // BBRv1 deliberately does not back off on isolated losses; its rate
        // model already bounds the queue.
    }

    fn on_rto(&mut self, _now: SimTime) {
        // Timeout: the model is stale. Restart the search.
        self.bw_samples.clear();
        self.refresh_btlbw();
        self.phase = Phase::Startup;
        self.plateau = 0;
        self.last_growth_bw = 0.0;
        self.epoch_bytes = 0;
        self.epoch_start = None;
        self.epoch_app_limited = false;
        self.drain_epochs = 0;
        self.probe_rtt_end = None;
        self.probe_rtt_min = None;
    }

    fn on_idle_restart(&mut self, _now: SimTime) {
        // Keep the model (BBR's rate is remembered across app-limited
        // gaps), but refresh the epoch accounting and mark the restart
        // app-limited: whatever trickles in first understates the path.
        self.epoch_bytes = 0;
        self.epoch_start = None;
        self.epoch_app_limited = true;
    }

    fn on_app_limited(&mut self, _now: SimTime) {
        self.epoch_app_limited = true;
    }

    fn on_inflight(&mut self, _now: SimTime, bytes_in_flight: u64) {
        if self.phase == Phase::Drain && bytes_in_flight <= self.bdp_bytes() {
            // The STARTUP queue has drained: enter steady state.
            self.phase = Phase::ProbeBw;
            self.cycle_idx = 0;
        }
    }

    fn cwnd(&self) -> u64 {
        if self.phase == Phase::ProbeRtt {
            // Hold the pipe nearly empty so queuing delay vanishes and the
            // next samples measure the propagation floor.
            return PROBE_RTT_CWND_SEGMENTS * MSS_BYTES;
        }
        let target = (self.cwnd_gain() * self.bdp_bytes() as f64) as u64;
        target.clamp(INITIAL_CWND_SEGMENTS * MSS_BYTES, MAX_CWND_BYTES)
    }

    fn ssthresh(&self) -> u64 {
        u64::MAX
    }

    fn name(&self) -> &'static str {
        "bbr-lite"
    }

    fn pacing_rate(&self) -> Option<Rate> {
        let bw = self.btlbw_bps();
        if bw <= 0.0 {
            // No estimate yet: let the initial window go unpaced.
            None
        } else {
            Some(Rate::from_bps(bw * self.pacing_gain()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed ACKs simulating a path with the given capacity and RTT.
    fn drive(cc: &mut BbrLite, capacity_mbps: f64, rtt_ms: u64, epochs: usize) {
        drive_from(cc, SimTime::ZERO, capacity_mbps, rtt_ms, epochs);
    }

    /// As [`drive`], but starting the ACK clock at `start`. Returns the
    /// time after the last ACK.
    fn drive_from(
        cc: &mut BbrLite,
        start: SimTime,
        capacity_mbps: f64,
        rtt_ms: u64,
        epochs: usize,
    ) -> SimTime {
        let rtt = SimDuration::from_millis(rtt_ms);
        let bytes_per_epoch = (capacity_mbps * 1e6 / 8.0 * rtt.as_secs_f64()) as u64;
        let mut now = start;
        for _ in 0..epochs {
            // Two ACKs per epoch, half the bytes each.
            cc.on_ack(now, bytes_per_epoch / 2, Some(rtt), false);
            now += rtt / 2;
            cc.on_ack(now, bytes_per_epoch / 2, Some(rtt), false);
            now += rtt / 2;
        }
        now
    }

    #[test]
    fn bandwidth_estimate_converges() {
        let mut cc = BbrLite::new();
        drive(&mut cc, 40.0, 20, 30);
        let bw = cc.btlbw_bps() / 1e6;
        assert!((bw - 40.0).abs() / 40.0 < 0.15, "btlbw {bw} Mbps");
    }

    #[test]
    fn epoch_opening_ack_only_starts_clock() {
        // Regression: the first ACK of an epoch used to contribute its
        // bytes to `epoch_bytes` while also starting the epoch clock, so a
        // two-ACK epoch sampled 1.5x the true delivery rate and the max
        // filter latched the inflated value forever.
        let mut cc = BbrLite::new();
        drive(&mut cc, 40.0, 20, 5);
        let bw = cc.btlbw_bps() / 1e6;
        assert!(
            bw <= 40.0 * 1.05,
            "btlbw {bw} Mbps overestimates a 40 Mbps path"
        );
        assert!(bw >= 40.0 * 0.8, "btlbw {bw} Mbps lost bytes somewhere");
    }

    #[test]
    fn startup_exits_to_probe_bw() {
        let mut cc = BbrLite::new();
        drive(&mut cc, 40.0, 20, 30);
        assert_eq!(cc.phase, Phase::ProbeBw);
    }

    #[test]
    fn drain_exits_when_inflight_reaches_bdp() {
        let mut cc = BbrLite::new();
        // Ride startup until the plateau detector fires.
        let mut now = SimTime::ZERO;
        while cc.phase == Phase::Startup {
            now = drive_from(&mut cc, now, 40.0, 20, 1);
            assert!(now < SimTime::from_secs(5), "startup never exited");
        }
        assert_eq!(cc.phase, Phase::Drain);
        // Flight above BDP: still draining.
        cc.on_inflight(now, cc.bdp_bytes() * 3);
        assert_eq!(cc.phase, Phase::Drain);
        // Flight at/below BDP: steady state.
        cc.on_inflight(now, cc.bdp_bytes());
        assert_eq!(cc.phase, Phase::ProbeBw);
    }

    #[test]
    fn pacing_rate_near_capacity_in_steady_state() {
        let mut cc = BbrLite::new();
        drive(&mut cc, 40.0, 20, 40);
        // Across the gain cycle, pacing stays within [0.75, 1.25] x btlbw.
        let pace = cc.pacing_rate().unwrap().mbps();
        let bw = cc.btlbw_bps() / 1e6;
        assert!(
            pace >= 0.7 * bw && pace <= 1.3 * bw,
            "pace {pace} vs bw {bw}"
        );
    }

    #[test]
    fn cwnd_tracks_two_bdp() {
        let mut cc = BbrLite::new();
        drive(&mut cc, 40.0, 20, 30);
        // BDP = 40 Mbps x 20 ms = 100 kB; cwnd ~ 200 kB in PROBE_BW.
        assert_eq!(cc.phase, Phase::ProbeBw);
        let cwnd = cc.cwnd() as f64 / 1e3;
        assert!(cwnd > 140.0 && cwnd < 280.0, "cwnd {cwnd} kB");
    }

    #[test]
    fn no_estimate_means_unpaced() {
        let cc = BbrLite::new();
        assert_eq!(cc.pacing_rate(), None);
        assert_eq!(cc.cwnd(), INITIAL_CWND_SEGMENTS * MSS_BYTES);
    }

    #[test]
    fn loss_is_ignored_rto_resets() {
        let mut cc = BbrLite::new();
        drive(&mut cc, 40.0, 20, 30);
        let bw = cc.btlbw_bps();
        cc.on_loss_event(SimTime::ZERO);
        assert_eq!(cc.btlbw_bps(), bw, "loss must not clear the model");
        cc.on_rto(SimTime::ZERO);
        assert_eq!(cc.btlbw_bps(), 0.0, "RTO must reset the model");
        assert_eq!(cc.phase, Phase::Startup);
    }

    #[test]
    fn min_rtt_expiry_triggers_probe_rtt() {
        let mut cc = BbrLite::new();
        // Converge with a constant 20 ms RTT; the minimum never refreshes,
        // so a little over MIN_RTT_WINDOW later the probe must fire.
        let mut now = drive_from(&mut cc, SimTime::ZERO, 40.0, 20, 30);
        assert_eq!(cc.phase, Phase::ProbeBw);
        // Feed constant-RTT ACKs one at a time so we observe the exact
        // entry instant (the probe only lasts 200 ms).
        let mut guard = 0;
        while cc.phase != Phase::ProbeRtt {
            now += SimDuration::from_millis(10);
            cc.on_ack(now, 50_000, Some(SimDuration::from_millis(20)), false);
            guard += 1;
            assert!(guard < 5_000, "PROBE_RTT never triggered");
        }
        assert!(now > SimTime::from_secs(10), "probe fired before expiry");
        // During the probe the window collapses to the minimum pipe.
        assert_eq!(cc.cwnd(), PROBE_RTT_CWND_SEGMENTS * MSS_BYTES);

        // RTT samples during the probe re-seed the minimum: feed 30 ms
        // (path got longer) until the probe window elapses.
        let end = now + PROBE_RTT_DURATION + SimDuration::from_millis(50);
        while now < end {
            cc.on_ack(now, 10_000, Some(SimDuration::from_millis(30)), false);
            now += SimDuration::from_millis(15);
        }
        assert_eq!(cc.phase, Phase::ProbeBw, "probe must end");
        assert_eq!(
            cc.min_rtt,
            Some(SimDuration::from_millis(30)),
            "min RTT must re-seed from probe samples"
        );
    }

    #[test]
    fn app_limited_epochs_do_not_lower_estimate() {
        let mut cc = BbrLite::new();
        let now = drive_from(&mut cc, SimTime::ZERO, 40.0, 20, 30);
        let bw = cc.btlbw_bps();
        // A long run of app-limited epochs at a trickle must not displace
        // the converged estimate as the old samples age out of the window.
        let mut t = now;
        for _ in 0..40 {
            cc.on_app_limited(t);
            t = drive_from(&mut cc, t, 1.0, 20, 1);
            cc.on_app_limited(t);
        }
        assert!(
            cc.btlbw_bps() >= bw * 0.99,
            "app-limited trickle dragged btlbw from {bw} to {}",
            cc.btlbw_bps()
        );
    }

    #[test]
    fn idle_restart_does_not_ratchet_estimate() {
        // Regression: an idle restart cleared the epoch clock, and the
        // next ACK's bytes were credited against a window that began at
        // that same ACK — repeated restarts ratcheted btlbw upward.
        let mut cc = BbrLite::new();
        let mut now = drive_from(&mut cc, SimTime::ZERO, 40.0, 20, 30);
        let bw = cc.btlbw_bps() / 1e6;
        for _ in 0..20 {
            cc.on_idle_restart(now);
            now += SimDuration::from_secs(2);
            now = drive_from(&mut cc, now, 40.0, 20, 3);
        }
        let after = cc.btlbw_bps() / 1e6;
        assert!(
            after <= bw * 1.05,
            "idle restarts ratcheted btlbw {bw} -> {after} Mbps"
        );
    }
}
