//! The HYB algorithm with lookahead — the throughput-based ABR the paper
//! analyzes in §4.2 to derive Sammy's pace-rate lower bound.
//!
//! HYB computes a throughput estimate `x` from recent chunk measurements,
//! discounts it by a safety parameter `β ∈ (0, 1]` to offset prediction
//! error, and simulates the buffer over the lookahead horizon using the
//! standard update equation (Appendix A):
//!
//! `B_T = B_0 + D_T − D_T · r / (βx)`
//!
//! It picks the highest rung that keeps the simulated buffer above zero,
//! which implies the selection constraint `r ≤ βx (1 + B_0 / D_T)` of
//! Fig 2a and the minimum-throughput corollary (Eq. 1) of Fig 2b.

use video::{Abr, AbrContext, AbrDecision, ChunkMeasurement};

/// Throughput discount β.
const BETA: f64 = 0.5;
/// Number of recent chunks in the throughput estimate.
const WINDOW: usize = 5;
/// Lookahead horizon in chunks (`T`).
const LOOKAHEAD: usize = 5;

/// Throughput-based ABR with lookahead buffer simulation, at β = 0.5 over
/// a five-chunk estimate and a five-chunk horizon.
#[derive(Debug, Clone, Default)]
pub struct Hyb;

impl Abr for Hyb {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        let Some(est) = ctx.history.harmonic_mean_last(WINDOW) else {
            // No measurements yet: start at the bottom.
            return AbrDecision::unpaced(ctx.ladder.lowest());
        };
        let bx = BETA * est.bps();
        if bx <= 0.0 {
            return AbrDecision::unpaced(ctx.ladder.lowest());
        }
        let horizon = LOOKAHEAD.min(ctx.upcoming.len());

        // Try rungs from the top down; keep the simulated buffer positive
        // over the horizon.
        for rung in (0..ctx.ladder.len()).rev() {
            let mut buf = ctx.buffer.as_secs_f64();
            let mut ok = true;
            for i in 0..horizon {
                let chunk = ctx.upcoming.chunk(i);
                // Standard buffer update (Appendix A): B += d_t − Δ_t.
                // Playback of already-buffered content continues while the
                // chunk downloads, so the step is applied as a whole and
                // the constraint is B_t > 0 after each step.
                let dl = chunk.size(rung) as f64 * 8.0 / bx;
                buf += chunk.duration().as_secs_f64() - dl;
                if buf <= 0.0 {
                    ok = false;
                    break;
                }
            }
            if ok {
                return AbrDecision::unpaced(rung);
            }
        }
        AbrDecision::unpaced(ctx.ladder.lowest())
    }

    fn on_chunk_downloaded(&mut self, _m: &ChunkMeasurement) {}

    fn name(&self) -> &'static str {
        "hyb"
    }
}

/// The analytical form of HYB's decision rule (§4.2): the highest bitrate
/// satisfying `r ≤ βx (1 + B0 / D_T)`. Used by the Fig 2 reproduction and by
/// tests to cross-validate the simulation-based selection above.
pub fn hyb_max_bitrate_bps(beta: f64, throughput_bps: f64, buffer_s: f64, horizon_s: f64) -> f64 {
    assert!(horizon_s > 0.0);
    beta * throughput_bps * (1.0 + buffer_s / horizon_s)
}

/// The minimum throughput estimate needed to select bitrate `r` (Eq. 1 /
/// Fig 2b): `x ≥ (r/β) (1 + B0/D_T)^{-1}`.
pub fn hyb_min_throughput_bps(beta: f64, bitrate_bps: f64, buffer_s: f64, horizon_s: f64) -> f64 {
    assert!(horizon_s > 0.0);
    bitrate_bps / beta / (1.0 + buffer_s / horizon_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Rate, SimDuration, SimTime};
    use video::{Ladder, PlayerPhase, ThroughputHistory, Title, TitleConfig, VmafModel};

    fn title() -> Title {
        Title::generate(
            Ladder::hd(&VmafModel::standard()),
            &TitleConfig {
                size_cv: 0.0,
                ..Default::default()
            },
        )
    }

    fn history_at(mbps: f64) -> ThroughputHistory {
        let mut h = ThroughputHistory::new();
        for i in 0..10 {
            h.record(ChunkMeasurement {
                index: i,
                rung: 0,
                bytes: (mbps * 1e6 / 8.0) as u64,
                download_time: SimDuration::from_secs(1),
                completed_at: SimTime::ZERO,
            });
        }
        h
    }

    fn ctx<'a>(t: &'a Title, h: &'a ThroughputHistory, buffer_s: u64) -> AbrContext<'a> {
        AbrContext {
            now: SimTime::ZERO,
            phase: PlayerPhase::Playing,
            buffer: SimDuration::from_secs(buffer_s),
            max_buffer: SimDuration::from_secs(240),
            ladder: &t.ladder,
            upcoming: t.upcoming(0),
            history: h,
            last_rung: None,
        }
    }

    #[test]
    fn no_history_picks_lowest() {
        let t = title();
        let h = ThroughputHistory::new();
        let d = Hyb.select(&ctx(&t, &h, 0));
        assert_eq!(d.rung, 0);
        assert_eq!(d.pace, None);
    }

    #[test]
    fn empty_buffer_needs_one_over_beta_headroom() {
        // β=0.5, empty buffer: needs throughput ≥ 2x the bitrate.
        let t = title();
        let mut hyb = Hyb;
        // 3 Mbps rung (index 6) requires ≥ 6 Mbps throughput at B0=0.
        let h = history_at(6.5);
        let d = hyb.select(&ctx(&t, &h, 0));
        assert_eq!(t.ladder.rung(d.rung).bitrate, Rate::from_mbps(3.0));
        // Just below the threshold drops one rung.
        let h = history_at(5.5);
        let d = hyb.select(&ctx(&t, &h, 0));
        assert!(t.ladder.rung(d.rung).bitrate < Rate::from_mbps(3.0));
    }

    #[test]
    fn larger_buffer_allows_higher_bitrate() {
        let t = title();
        let mut hyb = Hyb;
        let h = history_at(6.0);
        let d_empty = hyb.select(&ctx(&t, &h, 0));
        let d_full = hyb.select(&ctx(&t, &h, 60));
        assert!(
            d_full.rung > d_empty.rung,
            "buffer must unlock higher rungs: {} vs {}",
            d_full.rung,
            d_empty.rung
        );
    }

    #[test]
    fn simulation_matches_analytical_rule() {
        let t = title();
        let mut hyb = Hyb;
        for &mbps in &[1.0, 2.0, 4.0, 8.0, 16.0, 40.0] {
            for &buf in &[0u64, 8, 20, 60] {
                let h = history_at(mbps);
                let d = hyb.select(&ctx(&t, &h, buf));
                // Horizon: 5 chunks x 4 s = 20 s. The analytical constraint
                // uses B0 at selection; the simulated buffer passes through
                // a pre-chunk dip, making simulation slightly more
                // conservative — it must never pick a *higher* rung.
                let cap = hyb_max_bitrate_bps(0.5, mbps * 1e6, buf as f64, 20.0);
                let analytic = t.ladder.highest_at_most(Rate::from_bps(cap));
                assert!(
                    d.rung <= analytic,
                    "mbps={mbps} buf={buf}: sim {} > analytic {analytic}",
                    d.rung
                );
                assert!(
                    analytic - d.rung <= 1,
                    "sim more than one rung below analytic: mbps={mbps} buf={buf}"
                );
            }
        }
    }

    #[test]
    fn eq1_roundtrip() {
        // Min-throughput and max-bitrate forms are inverses.
        let r = 10e6;
        let x = hyb_min_throughput_bps(0.5, r, 8.0, 20.0);
        let back = hyb_max_bitrate_bps(0.5, x, 8.0, 20.0);
        assert!((back - r).abs() / r < 1e-12);
        // Empty buffer, β=0.5: min throughput is twice the bitrate.
        assert!((hyb_min_throughput_bps(0.5, r, 0.0, 20.0) - 2.0 * r).abs() < 1e-6);
    }
}
