//! Sammy's pace-rate selection (§4.2).
//!
//! During the playing phase, Sammy interpolates a pace multiplier between
//! two constants by the buffer fill fraction `B̂ = buffer / max_buffer`:
//!
//! `multiplier = c1 · B̂ + c0 · (1 − B̂)`
//!
//! and paces at `multiplier × highest ladder bitrate`. With `c0 > c1` the
//! buffer grows quickly when low (high pace) and slowly when full (low
//! pace). The production parameters chosen in §5 are `c0 = 3.2`,
//! `c1 = 2.8`.
//!
//! [`PaceSelector::validate_against_threshold`] checks the configured
//! multipliers against the Eq. 1 lower bound so the pace rate never drags
//! a pacing-aware ABR below the throughput threshold it needs to keep
//! selecting the top bitrate.

use abr::hyb_min_throughput_bps;
use netsim::Rate;
use serde::{Deserialize, Serialize};

/// The `(c0, c1)` pace-multiplier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaceSelector {
    /// Multiplier at an empty buffer.
    pub c0: f64,
    /// Multiplier at a full buffer.
    pub c1: f64,
}

impl Default for PaceSelector {
    /// The production parameter setting (§5: 3.2x empty, 2.8x full).
    fn default() -> Self {
        PaceSelector { c0: 3.2, c1: 2.8 }
    }
}

impl PaceSelector {
    /// Create a selector.
    ///
    /// # Panics
    /// Panics on non-positive multipliers.
    pub fn new(c0: f64, c1: f64) -> Self {
        assert!(c0 > 0.0 && c1 > 0.0, "pace multipliers must be positive");
        PaceSelector { c0, c1 }
    }

    /// The multiplier for a buffer fill fraction in `[0, 1]` (Algorithm 1).
    pub fn multiplier(&self, fill_fraction: f64) -> f64 {
        let b = fill_fraction.clamp(0.0, 1.0);
        self.c1 * b + self.c0 * (1.0 - b)
    }

    /// The pace rate for a given top ladder bitrate and buffer fill.
    pub fn pace_rate(&self, top_bitrate: Rate, fill_fraction: f64) -> Rate {
        top_bitrate * self.multiplier(fill_fraction)
    }

    /// Verify that for every buffer level the pace rate stays above the
    /// Eq. 1 minimum throughput required to select the top bitrate, for an
    /// HYB-style ABR with discount `beta` and lookahead `d_t_s` seconds,
    /// given `max_buffer_s` of buffer capacity.
    ///
    /// Returns the worst-case headroom ratio `pace / min_throughput` over
    /// the buffer range (≥ 1 means safe everywhere).
    pub fn validate_against_threshold(&self, beta: f64, d_t_s: f64, max_buffer_s: f64) -> f64 {
        let mut worst = f64::INFINITY;
        // Sample the buffer range densely; both curves are monotone so the
        // endpoints dominate, but sampling is cheap and robust.
        for i in 0..=100 {
            let b = max_buffer_s * i as f64 / 100.0;
            let fill = b / max_buffer_s;
            // Normalize to a unit top bitrate: pace and threshold scale
            // identically with the bitrate.
            let pace = self.multiplier(fill);
            let min_x = hyb_min_throughput_bps(beta, 1.0, b, d_t_s);
            worst = worst.min(pace / min_x);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_defaults() {
        let p = PaceSelector::default();
        assert_eq!(p.c0, 3.2);
        assert_eq!(p.c1, 2.8);
    }

    #[test]
    fn interpolation() {
        let p = PaceSelector::new(3.2, 2.8);
        assert!((p.multiplier(0.0) - 3.2).abs() < 1e-12);
        assert!((p.multiplier(1.0) - 2.8).abs() < 1e-12);
        assert!((p.multiplier(0.5) - 3.0).abs() < 1e-12);
        // Out-of-range fills are clamped.
        assert!((p.multiplier(-1.0) - 3.2).abs() < 1e-12);
        assert!((p.multiplier(2.0) - 2.8).abs() < 1e-12);
    }

    #[test]
    fn pace_rate_scales_with_top_bitrate() {
        let p = PaceSelector::default();
        let pace = p.pace_rate(Rate::from_mbps(3.3), 0.0);
        assert!((pace.mbps() - 3.3 * 3.2).abs() < 1e-9);
    }

    #[test]
    fn production_parameters_clear_the_threshold() {
        // β = 0.5, 20 s lookahead, 240 s max buffer: at empty buffer the
        // threshold is 2.0x and the pace is 3.2x — 60% headroom; with any
        // buffer the threshold falls much faster than the pace.
        let headroom = PaceSelector::default().validate_against_threshold(0.5, 20.0, 240.0);
        assert!(headroom >= 1.5, "headroom {headroom}");
    }

    #[test]
    fn too_low_multiplier_fails_validation() {
        // Pacing at 1.0x the top bitrate with an empty buffer starves an
        // HYB with β = 0.5 (needs 2x) — the §2.3.1 failure mode.
        let p = PaceSelector::new(1.0, 1.0);
        let headroom = p.validate_against_threshold(0.5, 20.0, 240.0);
        assert!(headroom < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplier_panics() {
        PaceSelector::new(0.0, 2.8);
    }
}
