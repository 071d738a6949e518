//! An MPC-style lookahead ABR — the stand-in for the proprietary production
//! algorithm (§4.3: "Sammy uses Netflix's production ABR algorithm, which is
//! an MPC-style algorithm").
//!
//! Following the published MPC formulation, the algorithm maximizes a QoE
//! utility over a lookahead horizon: time-weighted quality, minus a penalty
//! for quality switches, minus a large penalty for predicted rebuffer time.
//! Throughput is predicted with a robust (harmonic-mean, error-discounted)
//! estimator. Quality is measured as the rung's VMAF, so the utility is in
//! VMAF-seconds.
//!
//! ## The rebuffer term
//!
//! Committing to one rung for the whole horizon lets the per-chunk buffer
//! walk collapse into a Lindley-style closed form: with download time
//! `d_j = 8·s_j/x` and uniform chunk duration `cd`, the total predicted
//! rebuffer is
//!
//! ```text
//! R(r) = max(0, max_i [ (8/x)·P_i(r) − i·cd ] − B₀)
//! ```
//!
//! where `P_i(r)` is the byte sum of the first `i+1` upcoming chunks at
//! rung `r`. `select` evaluates it directly: one running `u64` sum over
//! the horizon per rung, `rungs × horizon` (≤ 45) steps a decision, each a
//! load from the window's one chunk-major slice ([`video::Lookahead::sizes`]).

use video::{Abr, AbrContext, AbrDecision, ChunkMeasurement};

/// Lookahead horizon in chunks.
const HORIZON: usize = 5;
/// Recent chunks in the throughput predictor.
const WINDOW: usize = 5;
/// Penalty per unit of VMAF change between adjacent chunks.
const SWITCH_PENALTY: f64 = 1.0;
/// Penalty per second of predicted rebuffering (VMAF-seconds scale;
/// large, as rebuffers dominate QoE).
const REBUFFER_PENALTY: f64 = 500.0;
/// Discount on the throughput prediction (robust-MPC style): the
/// prediction is divided by `1 + ERROR_MARGIN`.
const ERROR_MARGIN: f64 = 0.25;

/// Lookahead QoE-utility maximization.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct Mpc;

impl Abr for Mpc {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        let Some(est) = ctx.history.harmonic_mean_last(WINDOW) else {
            return AbrDecision::unpaced(ctx.ladder.lowest());
        };
        let predicted = est.bps() / (1.0 + ERROR_MARGIN);
        if predicted <= 0.0 {
            return AbrDecision::unpaced(ctx.ladder.lowest());
        }
        let h = HORIZON.min(ctx.upcoming.len());
        let rungs = ctx.ladder.len();
        let inv = 8.0 / predicted; // seconds per byte
        let cd = if h > 0 {
            ctx.upcoming.chunk(0).duration().as_secs_f64()
        } else {
            0.0
        };

        let b0 = ctx.buffer.as_secs_f64();
        let play_s = h as f64 * cd;
        // The horizon's sizes, one row of `rungs` entries per chunk.
        let window = ctx.upcoming.sizes(h);
        let mut best = ctx.ladder.lowest();
        let mut best_u = f64::NEG_INFINITY;
        for rung in 0..rungs {
            // Worst shortfall over the horizon; −∞ (no rebuffer) when no
            // chunks remain.
            let mut bytes = 0u64;
            let mut peak = f64::NEG_INFINITY;
            for (i, row) in window.chunks_exact(rungs).enumerate() {
                bytes += row[rung];
                peak = peak.max(bytes as f64 * inv - i as f64 * cd);
            }
            let rebuffer_s = (peak - b0).max(0.0);
            let vmaf = ctx.ladder.rung(rung).vmaf;
            let switch = match ctx.last_rung {
                Some(prev) => (ctx.ladder.rung(prev).vmaf - vmaf).abs(),
                None => 0.0,
            };
            let u = vmaf * play_s - SWITCH_PENALTY * switch - REBUFFER_PENALTY * rebuffer_s;
            // Ties break upward: equal utility prefers higher quality.
            if u >= best_u {
                best_u = u;
                best = rung;
            }
        }
        AbrDecision::unpaced(best)
    }

    fn on_chunk_downloaded(&mut self, _m: &ChunkMeasurement) {}

    fn name(&self) -> &'static str {
        "mpc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, SimTime};
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

    fn ctx<'a>(
        t: &'a Title,
        h: &'a ThroughputHistory,
        buffer_s: u64,
        last_rung: Option<usize>,
    ) -> AbrContext<'a> {
        AbrContext {
            now: SimTime::ZERO,
            phase: PlayerPhase::Playing,
            buffer: SimDuration::from_secs(buffer_s),
            max_buffer: SimDuration::from_secs(240),
            ladder: &t.ladder,
            upcoming: t.upcoming(0),
            history: h,
            last_rung,
        }
    }

    #[test]
    fn no_history_lowest() {
        let t = title();
        let h = ThroughputHistory::new();
        assert_eq!(Mpc::default().select(&ctx(&t, &h, 0, None)).rung, 0);
    }

    #[test]
    fn ample_throughput_picks_top() {
        let t = title();
        let h = history_at(100.0);
        let d = Mpc::default().select(&ctx(&t, &h, 30, None));
        assert_eq!(d.rung, t.ladder.top());
    }

    #[test]
    fn rebuffer_risk_lowers_choice() {
        let t = title();
        let h = history_at(6.0);
        let mpc = &mut Mpc::default();
        let d_low_buf = mpc.select(&ctx(&t, &h, 1, None));
        let d_high_buf = mpc.select(&ctx(&t, &h, 120, None));
        assert!(d_low_buf.rung < d_high_buf.rung);
        // With 6 Mbps measured (4.8 predicted), never pick 16 Mbps at B=1s.
        assert!(t.ladder.rung(d_low_buf.rung).bitrate.mbps() < 4.8);
    }

    #[test]
    fn monotone_in_throughput() {
        let t = title();
        let mut mpc = Mpc::default();
        let mut prev = 0;
        for mbps in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
            let h = history_at(mbps);
            let d = mpc.select(&ctx(&t, &h, 20, None));
            assert!(d.rung >= prev, "rung decreased at {mbps} Mbps");
            prev = d.rung;
        }
    }
}
