//! The naive throughput rule of §2.3.1: pick the highest bitrate below
//! `c · x`, where `x` is the minimum measured throughput over the last few
//! chunks (the paper notes this is the default dash.js rule when the buffer
//! is low).
//!
//! This algorithm is the demonstration vehicle for the *downward spiral*:
//! pace it at `1.5 × bitrate` with `c = 0.5` and each measurement caps the
//! next selection at `0.75 ×` the current bitrate, walking the session down
//! to the lowest rung (reproduced as an experiment in `sammy-core::spiral`).

use video::{Abr, AbrContext, AbrDecision};

/// Safety factor `c` applied to the throughput estimate.
const C: f64 = 0.5;
/// Number of recent chunks in the min-throughput estimate.
const WINDOW: usize = 3;

/// `bitrate ≤ c · min(recent throughput)` selection.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct NaiveThroughputRule;

impl Abr for NaiveThroughputRule {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        match ctx.history.min_last(WINDOW) {
            None => AbrDecision::unpaced(ctx.ladder.lowest()),
            Some(x) => {
                let limit = x * C;
                AbrDecision::unpaced(ctx.ladder.highest_at_most(limit))
            }
        }
    }

    fn name(&self) -> &'static str {
        "naive-throughput"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, SimTime};
    use video::{
        ChunkMeasurement, Ladder, PlayerPhase, ThroughputHistory, Title, TitleConfig, VmafModel,
    };

    fn title() -> Title {
        Title::generate(
            Ladder::hd(&VmafModel::standard()),
            &TitleConfig {
                size_cv: 0.0,
                ..Default::default()
            },
        )
    }

    fn ctx<'a>(t: &'a Title, h: &'a ThroughputHistory) -> AbrContext<'a> {
        AbrContext {
            now: SimTime::ZERO,
            phase: PlayerPhase::Playing,
            buffer: SimDuration::from_secs(10),
            max_buffer: SimDuration::from_secs(240),
            ladder: &t.ladder,
            upcoming: t.upcoming(0),
            history: h,
            last_rung: None,
        }
    }

    fn measurement(mbps: f64) -> ChunkMeasurement {
        ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes: (mbps * 1e6 / 8.0) as u64,
            download_time: SimDuration::from_secs(1),
            completed_at: SimTime::ZERO,
        }
    }

    #[test]
    fn selects_half_of_min_throughput() {
        let t = title();
        let mut h = ThroughputHistory::new();
        h.record(measurement(12.0));
        h.record(measurement(8.0));
        let d = NaiveThroughputRule::default().select(&ctx(&t, &h));
        // min = 8 Mbps, c = 0.5 -> limit 4 Mbps -> 3 Mbps rung.
        assert_eq!(t.ladder.rung(d.rung).bitrate.mbps(), 3.0);
    }

    #[test]
    fn downward_spiral_under_black_box_pacing() {
        // Reproduce the §2.3.1 arithmetic: pace at 1.5x the current bitrate
        // and feed the measured (paced) throughput back in. The selection
        // must walk down to the lowest rung.
        let t = title();
        let mut rule = NaiveThroughputRule::default();
        let mut h = ThroughputHistory::new();
        // Start high: first measurement at full network speed.
        h.record(measurement(100.0));
        let mut rung = rule.select(&ctx(&t, &h)).rung;
        let mut seen = vec![rung];
        for _ in 0..20 {
            // Black-box pacing: next chunk's measured throughput is exactly
            // 1.5x the current rung's bitrate.
            let paced_tput = t.ladder.rung(rung).bitrate.mbps() * 1.5;
            h.record(measurement(paced_tput));
            rung = rule.select(&ctx(&t, &h)).rung;
            seen.push(rung);
        }
        assert_eq!(
            rung,
            t.ladder.lowest(),
            "spiral must reach the bottom; trajectory {seen:?}"
        );
        // And the trajectory is monotonically non-increasing.
        for w in seen.windows(2) {
            assert!(w[1] <= w[0], "spiral went up: {seen:?}");
        }
    }

    #[test]
    fn no_history_lowest() {
        let t = title();
        let h = ThroughputHistory::new();
        assert_eq!(NaiveThroughputRule::default().select(&ctx(&t, &h)).rung, 0);
    }
}
