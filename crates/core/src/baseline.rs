//! The baseline smoother the paper compares against.
//!
//! [`NaivePacedAbr`] is the §5.5 baseline: "just pick a pace rate a bit
//! higher than the maximum bitrate and call it a day" — a constant
//! multiplier applied to *every* chunk, including the initial phase, with
//! no other changes to the ABR. In the paper's production A/B test this
//! reduced chunk throughput by 53% but degraded play delay by 6% and VMAF
//! by 0.2%, tripping the automatic safety stop.
//!
//! Table 1's other mechanisms need no type of their own: in the packet
//! simulator each is a pacer burst size, so they are read off Fig 4's
//! burst sweep (a cwnd cap ≈ burst 40, a 16-packet token bucket = 16).

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
    #[should_panic(expected = "positive")]
    fn zero_multiplier_panics() {
        NaivePacedAbr::new(Mpc::default(), 0.0);
    }
}
