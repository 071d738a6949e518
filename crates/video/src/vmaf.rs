//! A perceptual-quality model mapping bitrate to a VMAF-like score.
//!
//! The paper measures video quality with VMAF, a 0–100 perceptual score.
//! The production VMAF model is a learned fusion of video features; for the
//! reproduction all we need is its *shape* as a function of the encoding
//! bitrate: monotone increasing, concave (diminishing returns), saturating
//! below 100 near the top of the ladder. [`VmafModel`] is a two-parameter
//! saturating curve with those properties, calibrated per title class
//! (animation compresses better than sports, etc.).
//!
//! All experiment metrics use VMAF only through per-rung scores aggregated
//! time-weighted per session, so any monotone concave map preserves the
//! orderings and relative changes the paper reports.

use serde::{Deserialize, Serialize};

/// Bitrate → VMAF curve: `vmaf(r) = v_max · r / (r + r_half)` on a log-ish
/// scale, clamped to `[0, 100]`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VmafModel {
    /// Asymptotic score at infinite bitrate (≤ 100).
    pub v_max: f64,
    /// Bitrate (bits/sec) at which the score reaches half of `v_max`.
    pub r_half: f64,
    /// Shape exponent: higher = sharper knee. Typical 0.8–1.2.
    pub shape: f64,
}

impl VmafModel {
    /// A model typical of mainstream live-action content: ~96 VMAF
    /// asymptote, half quality around 350 kbps, soft knee.
    pub fn standard() -> Self {
        VmafModel {
            v_max: 97.0,
            r_half: 350e3,
            shape: 0.9,
        }
    }

    /// Score for an encoding bitrate in bits/sec.
    pub fn score(&self, bitrate_bps: f64) -> f64 {
        if bitrate_bps <= 0.0 {
            return 0.0;
        }
        let x = bitrate_bps.powf(self.shape);
        let h = self.r_half.powf(self.shape);
        (self.v_max * x / (x + h)).clamp(0.0, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_increasing() {
        let m = VmafModel::standard();
        let mut prev = -1.0;
        for kbps in [100.0, 235.0, 560.0, 1050.0, 2350.0, 4300.0, 8100.0, 16000.0] {
            let s = m.score(kbps * 1e3);
            assert!(s > prev, "not monotone at {kbps} kbps");
            prev = s;
        }
    }

    #[test]
    fn concave_diminishing_returns() {
        let m = VmafModel::standard();
        // Equal multiplicative steps give shrinking gains at the top.
        let g1 = m.score(2e6) - m.score(1e6);
        let g2 = m.score(8e6) - m.score(4e6);
        assert!(g1 > g2, "gains must diminish: {g1} vs {g2}");
    }

    #[test]
    fn bounded_0_100() {
        let m = VmafModel::standard();
        assert_eq!(m.score(0.0), 0.0);
        assert_eq!(m.score(-5.0), 0.0);
        assert!(m.score(1e12) <= 100.0);
        assert!(m.score(1e12) > 90.0);
    }

    #[test]
    fn half_rate_semantics() {
        let m = VmafModel {
            v_max: 90.0,
            r_half: 1e6,
            shape: 1.0,
        };
        assert!((m.score(1e6) - 45.0).abs() < 1e-9);
    }
}
