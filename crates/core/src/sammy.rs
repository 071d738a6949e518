//! Sammy — Algorithm 1: joint bitrate and pace-rate selection.
//!
//! Sammy composes three pieces (§4):
//!
//! 1. **Initial phase** (§4.1): bitrate selection from *initial-only*
//!    historical throughput, with **no pacing** — play delay is the binding
//!    QoE goal and the initial phase is a tiny fraction of traffic.
//! 2. **Playing phase** bitrate: any pacing-aware ABR (one whose selection
//!    depends on a threshold decision rather than an exact bandwidth
//!    estimate — MPC and HYB qualify per §4.2).
//! 3. **Playing phase** pace rate: the buffer-interpolated multiplier of
//!    the top ladder bitrate ([`PaceSelector`]).

use crate::pace::PaceSelector;
use abr::{HistoryPolicy, ProductionAbr, SharedHistory};
use video::{Abr, AbrContext, AbrDecision, ChunkMeasurement, PlayerPhase};

/// Sammy's configuration: the pace selector plus the inner ABR's knobs are
/// carried by the inner ABR itself.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SammyConfig {
    /// The pace-rate multipliers.
    pub pace: PaceSelector,
}

/// Sammy: a pacing-aware ABR wrapper implementing Algorithm 1.
///
/// `P` is the playing-phase ABR (the production stand-in uses
/// [`abr::Mpc`]). Initial-phase selection and the initial-only history
/// policy come from [`ProductionAbr`].
pub struct Sammy<P: Abr> {
    inner: ProductionAbr<P>,
    cfg: SammyConfig,
}

impl<P: Abr> Sammy<P> {
    /// Build Sammy around a playing-phase ABR and the device's historical
    /// store. The store is updated under [`HistoryPolicy::InitialOnly`], as
    /// §4.1 requires.
    pub fn new(playing: P, history: SharedHistory, cfg: SammyConfig) -> Self {
        Sammy {
            inner: ProductionAbr::new(playing, history, HistoryPolicy::InitialOnly),
            cfg,
        }
    }
}

impl<P: Abr> Abr for Sammy<P> {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        let mut d = self.inner.select(ctx);
        d.pace = match ctx.phase {
            // Initial phase: no pacing (Algorithm 1).
            PlayerPhase::Initial => None,
            PlayerPhase::Playing => {
                let fill =
                    (ctx.buffer.as_secs_f64() / ctx.max_buffer.as_secs_f64()).clamp(0.0, 1.0);
                Some(self.cfg.pace.pace_rate(ctx.ladder.top_bitrate(), fill))
            }
        };
        d
    }

    fn on_chunk_downloaded(&mut self, m: &ChunkMeasurement) {
        self.inner.on_chunk_downloaded(m);
    }

    fn name(&self) -> &'static str {
        "sammy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr::{shared_history, Mpc};
    use netsim::{Rate, SimDuration, SimTime};
    use video::{Ladder, ThroughputHistory, Title, TitleConfig, VmafModel};

    fn title() -> Title {
        Title::generate(
            Ladder::lab(&VmafModel::standard()),
            &TitleConfig {
                size_cv: 0.0,
                ..Default::default()
            },
        )
    }

    fn ctx<'a>(
        t: &'a Title,
        h: &'a ThroughputHistory,
        phase: PlayerPhase,
        buffer_s: u64,
    ) -> AbrContext<'a> {
        AbrContext {
            now: SimTime::ZERO,
            phase,
            buffer: SimDuration::from_secs(buffer_s),
            max_buffer: SimDuration::from_secs(240),
            ladder: &t.ladder,
            upcoming: t.upcoming(0),
            history: h,
            last_rung: None,
        }
    }

    fn sammy() -> Sammy<Mpc> {
        Sammy::new(Mpc::default(), shared_history(), SammyConfig::default())
    }

    #[test]
    fn initial_phase_unpaced() {
        let t = title();
        let h = ThroughputHistory::new();
        let d = sammy().select(&ctx(&t, &h, PlayerPhase::Initial, 0));
        assert_eq!(d.pace, None);
    }

    #[test]
    fn playing_phase_paces_off_top_bitrate() {
        let t = title();
        let h = ThroughputHistory::new();
        let mut s = sammy();
        // Empty buffer: 3.2 x 3.3 Mbps.
        let d = s.select(&ctx(&t, &h, PlayerPhase::Playing, 0));
        let pace = d.pace.expect("playing phase must pace");
        assert!((pace.mbps() - 3.2 * 3.3).abs() < 1e-9);
        // Full buffer: 2.8 x 3.3 Mbps.
        let d = s.select(&ctx(&t, &h, PlayerPhase::Playing, 240));
        let pace = d.pace.unwrap();
        assert!((pace.mbps() - 2.8 * 3.3).abs() < 1e-9);
        // Half: 3.0 x.
        let d = s.select(&ctx(&t, &h, PlayerPhase::Playing, 120));
        let pace = d.pace.unwrap();
        assert!((pace.mbps() - 3.0 * 3.3).abs() < 1e-9);
    }

    #[test]
    fn pace_independent_of_selected_rung() {
        // Pace keys off the ladder's top bitrate, not the chosen rung —
        // so a low-quality pick still gets enough headroom to climb back.
        let t = title();
        let mut h = ThroughputHistory::new();
        h.record(ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes: 50_000, // slow measurement => low rung chosen
            download_time: SimDuration::from_secs(1),
            completed_at: SimTime::ZERO,
        });
        let mut s = sammy();
        let d = s.select(&ctx(&t, &h, PlayerPhase::Playing, 0));
        assert!(d.rung < t.ladder.top());
        assert!((d.pace.unwrap().mbps() - 3.2 * 3.3).abs() < 1e-9);
    }

    #[test]
    fn history_updates_initial_only() {
        let t = title();
        let h = ThroughputHistory::new();
        let store = shared_history();
        let mut s = Sammy::new(Mpc::default(), store.clone(), SammyConfig::default());
        // Playing-phase measurement: ignored by the store.
        let _ = s.select(&ctx(&t, &h, PlayerPhase::Playing, 10));
        s.on_chunk_downloaded(&ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes: 1_000_000,
            download_time: SimDuration::from_secs(1),
            completed_at: SimTime::ZERO,
        });
        assert_eq!(store.samples(), 0);
        // Initial-phase measurement: absorbed.
        let _ = s.select(&ctx(&t, &h, PlayerPhase::Initial, 0));
        s.on_chunk_downloaded(&ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes: 1_000_000,
            download_time: SimDuration::from_secs(1),
            completed_at: SimTime::ZERO,
        });
        assert_eq!(store.samples(), 1);
        store.end_session();
        assert!(
            (store.estimate().unwrap() - Rate::from_mbps(8.0))
                .bps()
                .abs()
                < 1.0
        );
    }

    use video::ChunkMeasurement;
}
