//! QoE accounting.
//!
//! The paper's three major QoE metrics (§1, §5.2): video quality (VMAF,
//! time-weighted per session, plus "initial VMAF" for the first twenty
//! seconds of playback), play delay, and rebuffers (fraction of sessions
//! with ≥1 rebuffer, and rebuffers per hour streamed).

use netsim::{Rate, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Duration of the "initial" window for initial-VMAF accounting (§5.2:
/// "the VMAF during the first twenty seconds of video playback").
const INITIAL_VMAF_WINDOW: SimDuration = SimDuration::from_secs(20);

/// Accumulates QoE events over a session and produces a [`QoeSummary`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QoeAccumulator {
    session_start: SimTime,
    playback_started: Option<SimTime>,
    rebuffer_count: u64,
    rebuffer_time: SimDuration,
    rebuffer_started: Option<SimTime>,
    /// Running sums over the committed chunks, in playback order, each
    /// `f64` operation the one a sum over per-chunk lists would make: the
    /// content duration (s), and duration × VMAF and duration × bitrate
    /// (bps). They start at −0.0, where `Iterator::sum` starts.
    content_s: f64,
    vmaf_s: f64,
    bitrate_s: f64,
    /// The initial window: the content still missing from it (s), and the
    /// VMAF-weighted and plain durations taken into it.
    window_left: f64,
    window_vmaf_s: f64,
    window_s: f64,
    played: SimDuration,
    ended: Option<SimTime>,
    quality_switches: u64,
}

impl QoeAccumulator {
    /// Start accounting at the moment the user hits play.
    pub fn new(session_start: SimTime) -> Self {
        QoeAccumulator {
            session_start,
            playback_started: None,
            rebuffer_count: 0,
            rebuffer_time: SimDuration::ZERO,
            rebuffer_started: None,
            content_s: -0.0,
            vmaf_s: -0.0,
            bitrate_s: -0.0,
            window_left: INITIAL_VMAF_WINDOW.as_secs_f64(),
            window_vmaf_s: 0.0,
            window_s: 0.0,
            played: SimDuration::ZERO,
            ended: None,
            quality_switches: 0,
        }
    }

    /// Playback started (initial buffering finished).
    pub fn on_playback_start(&mut self, now: SimTime) {
        debug_assert!(self.playback_started.is_none(), "playback started twice");
        self.playback_started = Some(now);
    }

    /// A rebuffer began.
    pub fn on_rebuffer_start(&mut self, now: SimTime) {
        debug_assert!(self.rebuffer_started.is_none(), "nested rebuffer");
        self.rebuffer_count += 1;
        self.rebuffer_started = Some(now);
    }

    /// The rebuffer ended and playback resumed.
    pub fn on_rebuffer_end(&mut self, now: SimTime) {
        if let Some(start) = self.rebuffer_started.take() {
            self.rebuffer_time += now.saturating_since(start);
        }
    }

    /// A chunk was committed to the playback queue.
    pub fn on_chunk(&mut self, duration: SimDuration, vmaf: f64, bitrate: Rate) {
        let d = duration.as_secs_f64();
        self.content_s += d;
        self.vmaf_s += d * vmaf;
        self.bitrate_s += d * bitrate.bps();
        if self.window_left > 0.0 {
            let take = d.min(self.window_left);
            self.window_vmaf_s += take * vmaf;
            self.window_s += take;
            self.window_left -= take;
        }
    }

    /// `elapsed` of content actually played.
    pub fn on_played(&mut self, elapsed: SimDuration) {
        self.played += elapsed;
    }

    /// The selected rung changed between consecutive chunks.
    pub fn on_quality_switch(&mut self) {
        self.quality_switches += 1;
    }

    /// The session ended (title finished or user stopped).
    pub fn on_end(&mut self, now: SimTime) {
        if let Some(start) = self.rebuffer_started.take() {
            self.rebuffer_time += now.saturating_since(start);
        }
        self.ended = Some(now);
    }

    /// Produce the session summary as of `now`: a stall still open at `now`
    /// (the trace ended mid-rebuffer, without [`QoeAccumulator::on_end`])
    /// is counted up to `now` instead of being silently dropped — dropping
    /// it biases the A/B rebuffer metric downward exactly when a session
    /// stalls hardest.
    pub fn summary_at(&self, now: SimTime) -> QoeSummary {
        let mut s = self.summary();
        if let Some(start) = self.rebuffer_started {
            s.rebuffer_time += now.saturating_since(start);
        }
        s
    }

    /// Produce the session summary, counting only closed stalls (prefer
    /// [`QoeAccumulator::summary_at`] when the session may still be open).
    fn summary(&self) -> QoeSummary {
        let play_delay = self
            .playback_started
            .map(|t| t.saturating_since(self.session_start));
        QoeSummary {
            play_delay,
            rebuffer_count: self.rebuffer_count,
            rebuffer_time: self.rebuffer_time,
            mean_vmaf: self.content_mean(self.vmaf_s),
            initial_vmaf: (self.window_s > 0.0).then(|| self.window_vmaf_s / self.window_s),
            mean_bitrate: self.content_mean(self.bitrate_s).map(Rate::from_bps),
            played: self.played,
            quality_switches: self.quality_switches,
        }
    }

    /// The time-weighted mean whose numerator is `weighted_s`; `None`
    /// before any content.
    fn content_mean(&self, weighted_s: f64) -> Option<f64> {
        (self.content_s > 0.0).then(|| weighted_s / self.content_s)
    }
}

/// Final QoE metrics of one session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeSummary {
    /// Time from session start to first frame. `None` if playback never
    /// started.
    pub play_delay: Option<SimDuration>,
    /// Number of rebuffer events after playback started.
    pub rebuffer_count: u64,
    /// Total stalled time.
    pub rebuffer_time: SimDuration,
    /// Time-weighted VMAF over the whole session.
    pub mean_vmaf: Option<f64>,
    /// Time-weighted VMAF over the first 20 s of content.
    pub initial_vmaf: Option<f64>,
    /// Time-weighted average bitrate.
    pub mean_bitrate: Option<Rate>,
    /// Content duration actually played.
    pub played: SimDuration,
    /// Number of rung changes between consecutive chunks.
    pub quality_switches: u64,
}

impl QoeSummary {
    /// Rebuffers per hour of playback — one of Table 2's QoE rows.
    pub fn rebuffers_per_hour(&self) -> f64 {
        let hours = self.played.as_secs_f64() / 3600.0;
        if hours <= 0.0 {
            0.0
        } else {
            self.rebuffer_count as f64 / hours
        }
    }

    /// True if the session had at least one rebuffer.
    pub fn had_rebuffer(&self) -> bool {
        self.rebuffer_count > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The whole-session time-weighted mean over per-chunk
    /// `(duration, value)` lists, as the accumulator computed it before it
    /// kept running sums.
    fn weighted_mean(points: &[(SimDuration, f64)]) -> Option<f64> {
        let total: f64 = points.iter().map(|(d, _)| d.as_secs_f64()).sum();
        if total <= 0.0 {
            return None;
        }
        Some(points.iter().map(|(d, v)| d.as_secs_f64() * v).sum::<f64>() / total)
    }

    /// The time-weighted mean over only the first `window` of content, as
    /// the accumulator computed it before it kept running sums.
    fn initial_window_mean(points: &[(SimDuration, f64)], window: SimDuration) -> Option<f64> {
        let mut remaining = window.as_secs_f64();
        let mut num = 0.0;
        let mut den = 0.0;
        for (d, v) in points {
            if remaining <= 0.0 {
                break;
            }
            let take = d.as_secs_f64().min(remaining);
            num += take * v;
            den += take;
            remaining -= take;
        }
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    }

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    proptest! {
        /// The running sums against the list oracle, to the bit, over
        /// random chunk streams: empty sessions, zero-length chunks, whole
        /// 4 s chunks (the window ends on a boundary), nanosecond
        /// durations (it ends inside a chunk), and VMAFs of ±0.0.
        #[test]
        fn summary_matches_the_list_oracle(
            chunks in prop::collection::vec(
                (0u8..8, 0u64..8_000_000_000, 0u8..8, 0.0f64..100.0, 1e5f64..2e7),
                0..40,
            ),
            empty in 0u8..8,
        ) {
            let n = if empty == 0 { 0 } else { chunks.len() };
            let mut q = QoeAccumulator::new(SimTime::ZERO);
            let (mut vmafs, mut bitrates) = (Vec::new(), Vec::new());
            for &(d_kind, nanos, v_kind, vmaf, bps) in &chunks[..n] {
                let d = match d_kind {
                    0 => SimDuration::ZERO,
                    1..=3 => SimDuration::from_secs(4),
                    _ => SimDuration::from_nanos(nanos),
                };
                let v = match v_kind {
                    0 => 0.0,
                    1 => -0.0,
                    _ => vmaf,
                };
                let rate = Rate::from_bps(bps);
                q.on_chunk(d, v, rate);
                vmafs.push((d, v));
                bitrates.push((d, rate.bps()));
            }
            let s = q.summary();
            prop_assert_eq!(bits(s.mean_vmaf), bits(weighted_mean(&vmafs)));
            prop_assert_eq!(
                bits(s.initial_vmaf),
                bits(initial_window_mean(&vmafs, INITIAL_VMAF_WINDOW))
            );
            prop_assert_eq!(
                bits(s.mean_bitrate.map(|r| r.bps())),
                bits(weighted_mean(&bitrates).map(|b| Rate::from_bps(b).bps()))
            );
        }
    }

    #[test]
    fn play_delay_and_rebuffers() {
        let mut q = QoeAccumulator::new(SimTime::from_secs(10));
        q.on_playback_start(SimTime::from_millis(11_500));
        q.on_rebuffer_start(SimTime::from_secs(20));
        q.on_rebuffer_end(SimTime::from_secs(23));
        q.on_played(SimDuration::from_secs(3600));
        q.on_end(SimTime::from_secs(100));
        let s = q.summary();
        assert_eq!(s.play_delay, Some(SimDuration::from_millis(1500)));
        assert_eq!(s.rebuffer_count, 1);
        assert_eq!(s.rebuffer_time, SimDuration::from_secs(3));
        assert!(s.had_rebuffer());
        assert!((s.rebuffers_per_hour() - 1.0).abs() < 1e-9);
    }

    /// Regression: a stall still open when the trace ends used to vanish
    /// from `rebuffer_time` entirely (only `on_end` closed it). The
    /// as-of-`now` summary must count the open interval to session end.
    #[test]
    fn open_stall_counted_to_session_end() {
        let mut q = QoeAccumulator::new(SimTime::ZERO);
        q.on_playback_start(SimTime::from_secs(1));
        q.on_rebuffer_start(SimTime::from_secs(5));
        // No on_rebuffer_end / on_end: the driver just stopped at t = 9.
        let s = q.summary_at(SimTime::from_secs(9));
        assert_eq!(s.rebuffer_count, 1);
        assert_eq!(s.rebuffer_time, SimDuration::from_secs(4));
        // The accumulator itself is unchanged: a later close still works.
        q.on_rebuffer_end(SimTime::from_secs(11));
        assert_eq!(q.summary().rebuffer_time, SimDuration::from_secs(6));
        // And with no open stall, summary_at adds nothing.
        assert_eq!(
            q.summary_at(SimTime::from_secs(50)).rebuffer_time,
            SimDuration::from_secs(6)
        );
    }

    #[test]
    fn unterminated_rebuffer_closed_at_end() {
        let mut q = QoeAccumulator::new(SimTime::ZERO);
        q.on_playback_start(SimTime::from_secs(1));
        q.on_rebuffer_start(SimTime::from_secs(5));
        q.on_end(SimTime::from_secs(8));
        assert_eq!(q.summary().rebuffer_time, SimDuration::from_secs(3));
    }

    #[test]
    fn time_weighted_vmaf() {
        let mut q = QoeAccumulator::new(SimTime::ZERO);
        q.on_chunk(SimDuration::from_secs(4), 80.0, Rate::from_mbps(3.0));
        q.on_chunk(SimDuration::from_secs(12), 100.0, Rate::from_mbps(6.0));
        let s = q.summary();
        // (4*80 + 12*100) / 16 = 95.
        assert!((s.mean_vmaf.unwrap() - 95.0).abs() < 1e-9);
        // (4*3 + 12*6)/16 = 5.25 Mbps.
        assert!((s.mean_bitrate.unwrap().mbps() - 5.25).abs() < 1e-9);
    }

    #[test]
    fn initial_vmaf_covers_first_20s_only() {
        let mut q = QoeAccumulator::new(SimTime::ZERO);
        // 5 chunks of 4 s at VMAF 60, then high quality.
        for _ in 0..5 {
            q.on_chunk(SimDuration::from_secs(4), 60.0, Rate::from_mbps(1.0));
        }
        for _ in 0..100 {
            q.on_chunk(SimDuration::from_secs(4), 95.0, Rate::from_mbps(8.0));
        }
        let s = q.summary();
        assert!((s.initial_vmaf.unwrap() - 60.0).abs() < 1e-9);
        assert!(s.mean_vmaf.unwrap() > 90.0);
    }

    #[test]
    fn initial_vmaf_partial_chunk_weighting() {
        let mut q = QoeAccumulator::new(SimTime::ZERO);
        // 16 s at 50, then a chunk of 8 s at 90: window takes only 4 s of it.
        for _ in 0..4 {
            q.on_chunk(SimDuration::from_secs(4), 50.0, Rate::from_mbps(1.0));
        }
        q.on_chunk(SimDuration::from_secs(8), 90.0, Rate::from_mbps(8.0));
        let s = q.summary();
        // (16*50 + 4*90)/20 = 58.
        assert!((s.initial_vmaf.unwrap() - 58.0).abs() < 1e-9);
    }

    #[test]
    fn quality_switches_counted() {
        let mut q = QoeAccumulator::new(SimTime::ZERO);
        q.on_chunk(SimDuration::from_secs(4), 80.0, Rate::from_mbps(3.0));
        q.on_quality_switch();
        q.on_quality_switch();
        q.on_played(SimDuration::from_secs(1800));
        let s = q.summary();
        assert_eq!(s.quality_switches, 2);
    }

    #[test]
    fn empty_session() {
        let q = QoeAccumulator::new(SimTime::ZERO);
        let s = q.summary();
        assert_eq!(s.play_delay, None);
        assert_eq!(s.mean_vmaf, None);
        assert_eq!(s.initial_vmaf, None);
        assert_eq!(s.rebuffers_per_hour(), 0.0);
        assert!(!s.had_rebuffer());
    }
}
