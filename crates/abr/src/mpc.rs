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
//! rung `r`. `select` evaluates it directly in one pass over the window's
//! rows ([`video::Lookahead::sizes`], one chunk-major slice): each row
//! adds every rung's chunk size to that rung's running `u64` byte sum and
//! updates that rung's worst shortfall, `rungs × horizon` (≤ 45) steps a
//! decision in memory order. A second pass over the rungs turns each shortfall into
//! the rung's utility.
//!
//! ## The threshold skip
//!
//! A lookahead ABR's choice is a threshold decision (the paper's §4.2):
//! once the predicted throughput carries the top rung through the horizon
//! without a stall, no rung stalls. `select` therefore walks the top
//! rung's column first (`horizon` steps). A title's sizes never decrease
//! with rung within a chunk ([`video::Lookahead::sizes`]), and every step
//! of the walk — the `u64` sum, its conversion, the product with
//! `8/x`, the subtraction of `i·cd`, the running maximum — is monotone, so
//! no rung's worst shortfall exceeds the top rung's. When the top rung's is
//! at most `B₀`, every rung's rebuffer term is exactly `+0.0` and the
//! row-major walk is skipped; the utility pass runs unchanged, so every
//! utility keeps its bits.

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
/// Most rungs a ladder may have: `video`'s own bound, which that crate
/// keeps private. A longer ladder panics here rather than being cut.
const MAX_RUNGS: usize = 32;

/// Lookahead QoE-utility maximization.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct Mpc;

impl Mpc {
    /// Every rung's horizon utility, `utility[r]` for rung `r`, from a
    /// buffer of `b0` seconds, and the rung that maximizes it; `None`, with
    /// `utility` untouched, when the history predicts no positive
    /// throughput.
    fn plan(ctx: &AbrContext<'_>, b0: f64, utility: &mut [f64; MAX_RUNGS]) -> Option<usize> {
        let est = ctx.history.harmonic_mean_last(WINDOW)?;
        let predicted = est.bps() / (1.0 + ERROR_MARGIN);
        if predicted <= 0.0 {
            return None;
        }
        let h = HORIZON.min(ctx.upcoming.len());
        let rungs = ctx.ladder.len();
        let inv = 8.0 / predicted; // seconds per byte
        let cd = if h > 0 {
            ctx.upcoming.chunk(0).duration().as_secs_f64()
        } else {
            0.0
        };

        let play_s = h as f64 * cd;
        // The horizon's sizes, one row of `rungs` entries per chunk. Every
        // rung's worst shortfall over the horizon starts at −∞ (no
        // rebuffer), which is where it stays when no chunks remain or when
        // the top rung's column clears `b0` (the threshold skip).
        let window = ctx.upcoming.sizes(h);
        let mut peak = [f64::NEG_INFINITY; MAX_RUNGS];
        let peak = &mut peak[..rungs];
        if top_shortfall(window, rungs, inv, cd) > b0 {
            // Row by row: every rung's running byte sum and worst shortfall.
            let mut bytes = [0u64; MAX_RUNGS];
            let bytes = &mut bytes[..rungs];
            for (i, row) in window.chunks_exact(rungs).enumerate() {
                let lead = i as f64 * cd;
                for ((sum, worst), &size) in bytes.iter_mut().zip(peak.iter_mut()).zip(row) {
                    *sum += size;
                    *worst = worst.max(*sum as f64 * inv - lead);
                }
            }
        }
        let last_vmaf = ctx.last_rung.map(|prev| ctx.ladder.rung(prev).vmaf);
        let mut best = ctx.ladder.lowest();
        let mut best_u = f64::NEG_INFINITY;
        for (rung, (&worst, u)) in peak.iter().zip(utility.iter_mut()).enumerate() {
            let rebuffer_s = (worst - b0).max(0.0);
            let vmaf = ctx.ladder.rung(rung).vmaf;
            let switch = last_vmaf.map_or(0.0, |prev| (prev - vmaf).abs());
            *u = vmaf * play_s - SWITCH_PENALTY * switch - REBUFFER_PENALTY * rebuffer_s;
            // Ties break upward: equal utility prefers higher quality.
            if *u >= best_u {
                best_u = *u;
                best = rung;
            }
        }
        Some(best)
    }
}

/// The top rung's worst shortfall over `window` (rows of `rungs` sizes):
/// the row-major walk's value for the last column, step for step; −∞ for
/// an empty window.
fn top_shortfall(window: &[u64], rungs: usize, inv: f64, cd: f64) -> f64 {
    let mut sum = 0u64;
    let mut worst = f64::NEG_INFINITY;
    for (i, row) in window.chunks_exact(rungs).enumerate() {
        sum += row[rungs - 1];
        worst = worst.max(sum as f64 * inv - i as f64 * cd);
    }
    worst
}

impl Abr for Mpc {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        let b0 = ctx.buffer.as_secs_f64();
        let best = Self::plan(ctx, b0, &mut [0.0; MAX_RUNGS]).unwrap_or(ctx.ladder.lowest());
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
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// The per-rung walk `select` ran before its row-major pass: each rung
    /// walks its own column of the window, stride `rungs`, from a buffer of
    /// `b0` seconds. Returns the chosen rung, every rung's utility, and the
    /// top rung's worst shortfall.
    fn per_rung_walk(ctx: &AbrContext<'_>, b0: f64) -> Option<(usize, Vec<f64>, f64)> {
        let est = ctx.history.harmonic_mean_last(WINDOW)?;
        let predicted = est.bps() / (1.0 + ERROR_MARGIN);
        if predicted <= 0.0 {
            return None;
        }
        let h = HORIZON.min(ctx.upcoming.len());
        let rungs = ctx.ladder.len();
        let inv = 8.0 / predicted;
        let cd = if h > 0 {
            ctx.upcoming.chunk(0).duration().as_secs_f64()
        } else {
            0.0
        };
        let play_s = h as f64 * cd;
        let window = ctx.upcoming.sizes(h);
        let mut best = ctx.ladder.lowest();
        let mut best_u = f64::NEG_INFINITY;
        let mut utility = Vec::with_capacity(rungs);
        let mut top_peak = f64::NEG_INFINITY;
        for rung in 0..rungs {
            let mut bytes = 0u64;
            let mut peak = f64::NEG_INFINITY;
            for (i, row) in window.chunks_exact(rungs).enumerate() {
                bytes += row[rung];
                peak = peak.max(bytes as f64 * inv - i as f64 * cd);
            }
            top_peak = peak;
            let rebuffer_s = (peak - b0).max(0.0);
            let vmaf = ctx.ladder.rung(rung).vmaf;
            let switch = match ctx.last_rung {
                Some(prev) => (ctx.ladder.rung(prev).vmaf - vmaf).abs(),
                None => 0.0,
            };
            let u = vmaf * play_s - SWITCH_PENALTY * switch - REBUFFER_PENALTY * rebuffer_s;
            utility.push(u);
            if u >= best_u {
                best_u = u;
                best = rung;
            }
        }
        Some((best, utility, top_peak))
    }

    fn bits(u: &[f64]) -> Vec<u64> {
        u.iter().map(|x| x.to_bits()).collect()
    }

    /// Cases of `row_major_cases` whose top column stalled (the row-major
    /// walk ran) and cleared the buffer (the walk was skipped).
    static WALKED: AtomicUsize = AtomicUsize::new(0);
    static SKIPPED: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        /// The row-major pass against the per-rung walk, over the grid of
        /// `tests/properties.rs::mpc_closed_form_matches_buffer_walk`:
        /// ladders of 1–9 rungs, windows from the full horizon down to
        /// empty, with and without a previous rung, and buffers of 0–240 s,
        /// so that the threshold skip both fires and does not. The chosen
        /// rung and every rung's utility agree to the bit.
        fn row_major_cases(
            title_seed in 0u64..5_000,
            top_mbps in 1.75f64..16.0,
            rungs in 1usize..=9,
            offset in 0usize..=300,
            near_end in any::<bool>(),
            buffer_s in 0u64..=240,
            shallow in any::<bool>(),
            tput_mbps in 0.3f64..60.0,
            last in 0usize..10,
        ) {
            // Half the cases start from under 8 s of buffer, where the top
            // rung often stalls and the row-major walk runs.
            let buffer_s = if shallow { buffer_s % 8 } else { buffer_s };
            let mut rates: Vec<f64> = [0.235, 0.56, 1.05, 1.75, 3.0, 4.3, 5.8, 8.1]
                .iter()
                .map(|m| m * 1e6)
                .filter(|&r| r < top_mbps * 1e6 * 0.99)
                .collect();
            rates.push(top_mbps * 1e6);
            let rates = &rates[rates.len().saturating_sub(rungs)..];
            let t = Title::generate(
                Ladder::from_bitrates(rates, &VmafModel::standard()),
                &TitleConfig { seed: title_seed, ..Default::default() },
            );
            let h = history_at(tput_mbps);
            let last_rung = (last < t.ladder.len()).then_some(last);
            let from = if near_end { t.len() - offset % 6 } else { offset };
            let c = AbrContext {
                upcoming: t.upcoming(from),
                ..ctx(&t, &h, buffer_s, last_rung)
            };
            let b0 = c.buffer.as_secs_f64();
            let mut utility = [f64::NAN; MAX_RUNGS];
            let got = Mpc::plan(&c, b0, &mut utility);
            let (want, want_utility, top_peak) =
                per_rung_walk(&c, b0).expect("a positive prediction");
            let hits = if top_peak <= b0 { &SKIPPED } else { &WALKED };
            hits.fetch_add(1, Ordering::Relaxed);
            prop_assert_eq!(got, Some(want));
            prop_assert_eq!(bits(&utility[..t.ladder.len()]), bits(&want_utility));
            prop_assert_eq!(Mpc::default().select(&c).rung, want);
        }
    }

    #[test]
    fn row_major_mpc_matches_the_per_rung_walk() {
        row_major_cases();
        let (walked, skipped) = (
            WALKED.load(Ordering::Relaxed),
            SKIPPED.load(Ordering::Relaxed),
        );
        assert!(
            walked > 0 && skipped > 0,
            "both branches must be hit: walked {walked}, skipped {skipped}"
        );
    }

    /// The skip's boundary: a buffer equal to the top column's worst
    /// shortfall skips the walk (every rebuffer term is `+0.0`), one ulp
    /// below does not, one ulp above does; the utilities match the
    /// per-rung walk to the bit at all three.
    #[test]
    fn skip_boundary_is_the_top_columns_worst_shortfall() {
        let t = title();
        let h = history_at(6.0);
        let c = ctx(&t, &h, 0, Some(4));
        let (_, _, worst) = per_rung_walk(&c, 0.0).expect("a positive prediction");
        assert!(worst > 0.0, "the top rung must stall from an empty buffer");
        let mut at = Vec::new();
        for b0 in [worst.next_down(), worst, worst.next_up()] {
            let mut utility = [f64::NAN; MAX_RUNGS];
            let got = Mpc::plan(&c, b0, &mut utility);
            let (want, want_utility, _) = per_rung_walk(&c, b0).unwrap();
            assert_eq!(got, Some(want), "b0 = {b0}");
            assert_eq!(
                bits(&utility[..t.ladder.len()]),
                bits(&want_utility),
                "b0 = {b0}"
            );
            at.push(want_utility);
        }
        let top = t.ladder.top();
        // One ulp of shortfall shows in the top rung's utility, so a skip
        // one ulp early would be caught; at and above the worst no rung
        // pays a rebuffer.
        assert_ne!(at[0][top].to_bits(), at[1][top].to_bits());
        assert_eq!(bits(&at[1]), bits(&at[2]));
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
