//! Baseline smoothers the paper compares against.
//!
//! [`NaivePacedAbr`] is the §5.5 baseline: "just pick a pace rate a bit
//! higher than the maximum bitrate and call it a day" — a constant
//! multiplier applied to *every* chunk, including the initial phase, with
//! no other changes to the ABR. In the paper's production A/B test this
//! reduced chunk throughput by 53% but degraded play delay by 6% and VMAF
//! by 0.2%, tripping the automatic safety stop.
//!
//! [`SmoothingMechanism`] enumerates the Table 1 mechanism ablations:
//! pacing with a small burst, pacing with a large burst (≈ a congestion-
//! window cap, as in Trickle), and a token bucket. In the packet simulator
//! these map onto pacer burst sizes; the enum lets experiments sweep them
//! uniformly (§5.6 shows smaller bursts improve retransmissions with no
//! QoE difference).

use video::{Abr, AbrContext, AbrDecision, ChunkMeasurement};

/// A constant pace multiplier applied to all chunks, all phases.
pub struct NaivePacedAbr<P: Abr> {
    inner: P,
    multiplier: f64,
}

impl<P: Abr> NaivePacedAbr<P> {
    /// Pace every chunk at `multiplier ×` the ladder's top bitrate.
    ///
    /// # Panics
    /// Panics on a non-positive multiplier.
    pub fn new(inner: P, multiplier: f64) -> Self {
        assert!(multiplier > 0.0, "multiplier must be positive");
        NaivePacedAbr { inner, multiplier }
    }
}

impl<P: Abr> Abr for NaivePacedAbr<P> {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        let mut d = self.inner.select(ctx);
        d.pace = Some(ctx.ladder.top_bitrate() * self.multiplier);
        d
    }

    fn on_chunk_downloaded(&mut self, m: &ChunkMeasurement) {
        self.inner.on_chunk_downloaded(m);
    }

    fn name(&self) -> &'static str {
        "naive-paced"
    }
}

/// Mechanisms for limiting server throughput (Table 1), expressed as the
/// burst profile they induce at the packet level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmoothingMechanism {
    /// TCP pacing with a small burst (Sammy's choice; §5.6 uses 4 packets).
    PacingSmallBurst,
    /// TCP pacing with the stack's default 40-packet burst cap.
    PacingDefaultBurst,
    /// A congestion-window cap (Trickle [25]): rate-limits per RTT, so
    /// bursts are up to a full window — modeled as a large burst allowance.
    CwndCap,
    /// A server-side token bucket ([3]): line-rate bursts up to the bucket
    /// depth.
    TokenBucket {
        /// Bucket depth in packets.
        depth_packets: u32,
    },
}

impl SmoothingMechanism {
    /// The pacer burst size (packets) this mechanism corresponds to in the
    /// packet simulator.
    pub fn burst_packets(self) -> u32 {
        match self {
            SmoothingMechanism::PacingSmallBurst => 4,
            SmoothingMechanism::PacingDefaultBurst => 40,
            // A cwnd cap releases up to a window at line rate each RTT;
            // with the windows in our experiments that is ≈ 40+ packets.
            SmoothingMechanism::CwndCap => 40,
            SmoothingMechanism::TokenBucket { depth_packets } => depth_packets,
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SmoothingMechanism::PacingSmallBurst => "pacing(burst=4)",
            SmoothingMechanism::PacingDefaultBurst => "pacing(burst=40)",
            SmoothingMechanism::CwndCap => "cwnd-cap",
            SmoothingMechanism::TokenBucket { .. } => "token-bucket",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr::Mpc;
    use netsim::{SimDuration, SimTime};
    use video::{Ladder, PlayerPhase, ThroughputHistory, Title, TitleConfig, VmafModel};

    fn title() -> Title {
        Title::generate(
            Ladder::lab(&VmafModel::standard()),
            &TitleConfig {
                size_cv: 0.0,
                ..Default::default()
            },
        )
    }

    fn ctx<'a>(t: &'a Title, h: &'a ThroughputHistory, phase: PlayerPhase) -> AbrContext<'a> {
        AbrContext {
            now: SimTime::ZERO,
            phase,
            buffer: SimDuration::from_secs(10),
            max_buffer: SimDuration::from_secs(240),
            ladder: &t.ladder,
            upcoming: t.upcoming(0),
            history: h,
            last_rung: None,
        }
    }

    #[test]
    fn paces_all_phases_at_constant_multiple() {
        let t = title();
        let h = ThroughputHistory::new();
        let mut b = NaivePacedAbr::new(Mpc::default(), 4.0);
        let d_init = b.select(&ctx(&t, &h, PlayerPhase::Initial));
        let d_play = b.select(&ctx(&t, &h, PlayerPhase::Playing));
        assert!((d_init.pace.unwrap().mbps() - 4.0 * 3.3).abs() < 1e-9);
        assert!((d_play.pace.unwrap().mbps() - 4.0 * 3.3).abs() < 1e-9);
    }

    #[test]
    fn mechanism_burst_mapping() {
        assert_eq!(SmoothingMechanism::PacingSmallBurst.burst_packets(), 4);
        assert_eq!(SmoothingMechanism::PacingDefaultBurst.burst_packets(), 40);
        assert_eq!(SmoothingMechanism::CwndCap.burst_packets(), 40);
        assert_eq!(
            SmoothingMechanism::TokenBucket { depth_packets: 16 }.burst_packets(),
            16
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplier_panics() {
        NaivePacedAbr::new(Mpc::default(), 0.0);
    }
}
