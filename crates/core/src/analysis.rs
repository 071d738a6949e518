//! The buffer-evolution analysis of Appendix A and §4.2.
//!
//! The central identity (Theorem A.1) relates the playback buffer after `T`
//! chunk downloads to the time-average bitrate `r̄` and download-time-
//! weighted average throughput `x̄`:
//!
//! `B_{T+1} = B_0 + D_T − D_T · r̄ / x̄`
//!
//! From it follow the corollaries of §A.1 (average bitrate cannot exceed
//! average throughput without draining the buffer; building buffer costs
//! bitrate; intermediate buffer excursions don't affect average bitrate)
//! and the minimum-throughput threshold (Eq. 1) that lower-bounds Sammy's
//! pace rates, whose closed forms are HYB's
//! ([`abr::hyb_min_throughput_bps`], [`abr::hyb_max_bitrate_bps`]).

use abr::{hyb_max_bitrate_bps, hyb_min_throughput_bps};

/// Buffer level after streaming `total_duration_s` of content at
/// time-average bitrate `avg_bitrate_bps` with download-time-weighted
/// average throughput `avg_throughput_bps`, starting from `b0_s` seconds of
/// buffer (Theorem A.1).
pub fn buffer_after(
    b0_s: f64,
    total_duration_s: f64,
    avg_bitrate_bps: f64,
    avg_throughput_bps: f64,
) -> f64 {
    assert!(avg_throughput_bps > 0.0, "throughput must be positive");
    b0_s + total_duration_s - total_duration_s * avg_bitrate_bps / avg_throughput_bps
}

/// The average bitrate achievable given start/end buffer levels and the
/// average throughput — Theorem A.1 solved for `r̄`:
/// `r̄ = x̄ · (1 − (B_{T+1} − B_0)/D_T)`.
pub fn achievable_bitrate(
    b0_s: f64,
    b_end_s: f64,
    total_duration_s: f64,
    avg_throughput_bps: f64,
) -> f64 {
    assert!(total_duration_s > 0.0);
    avg_throughput_bps * (1.0 - (b_end_s - b0_s) / total_duration_s)
}

/// Data for Fig 2b: for each buffer level, the minimum throughput (as a
/// multiple of the bitrate) an HYB-style ABR needs to keep selecting that
/// bitrate (Eq. 1: `x ≥ (r/β) · (1 + B0/D_T)^{-1}`).
pub fn fig2b_threshold_curve(beta: f64, d_t_s: f64, buffers_s: &[f64]) -> Vec<(f64, f64)> {
    buffers_s
        .iter()
        .map(|&b| (b, hyb_min_throughput_bps(beta, 1.0, b, d_t_s)))
        .collect()
}

/// Data for Fig 2a: bitrate selection cap (as a multiple of the throughput
/// estimate) as a function of buffer level (`r ≤ βx (1 + B0/D_T)`).
pub fn fig2a_selection_curve(beta: f64, d_t_s: f64, buffers_s: &[f64]) -> Vec<(f64, f64)> {
    buffers_s
        .iter()
        .map(|&b| (b, hyb_max_bitrate_bps(beta, 1.0, b, d_t_s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_a1_identity() {
        // 20-minute session, bitrate 75% of throughput, start empty:
        // buffer = D(1 - 0.75) = 300 s (the §A.1.2 example inverted).
        let b = buffer_after(0.0, 1200.0, 7.5e6, 10e6);
        assert!((b - 300.0).abs() < 1e-9);
    }

    #[test]
    fn a11_bitrate_cannot_exceed_throughput_without_buffer_drain() {
        // Nondecreasing buffer => r̄ ≤ x̄.
        let x = 8e6;
        for r in [1e6, 4e6, 8e6] {
            let b_end = buffer_after(10.0, 600.0, r, x);
            if b_end >= 10.0 {
                assert!(r <= x);
            }
        }
        // And draining buffer permits r̄ > x̄.
        let r = 10e6;
        let b_end = buffer_after(300.0, 600.0, r, 8e6);
        assert!(b_end < 300.0);
        assert!(r > 8e6);
    }

    #[test]
    fn a12_building_buffer_costs_bitrate() {
        // Build 5 minutes of buffer over a 20-minute session:
        // r̄ = x̄ (1 − 300/1200) = 0.75 x̄.
        let r = achievable_bitrate(0.0, 300.0, 1200.0, 10e6);
        assert!((r - 7.5e6).abs() < 1e-9);
    }

    #[test]
    fn a13_intermediate_buffer_does_not_matter() {
        // First minute: build 30 s of buffer => r̄ = 0.5 x̄ over that minute.
        let r_first = achievable_bitrate(0.0, 30.0, 60.0, 10e6);
        assert!((r_first - 5e6).abs() < 1e-9);
        // Whole 20-minute session ending at the same 30 s of buffer:
        // r̄ = x̄ (1 − 30/1200) = 0.975 x̄ — the early sacrifice washes out.
        let r_total = achievable_bitrate(0.0, 30.0, 1200.0, 10e6);
        assert!((r_total - 9.75e6).abs() < 1e-9);
    }

    #[test]
    fn eq1_empty_buffer_threshold_is_one_over_beta() {
        // β = 0.5, empty buffer: min throughput = 2x the bitrate.
        let x = hyb_min_throughput_bps(0.5, 3e6, 0.0, 20.0);
        assert!((x - 6e6).abs() < 1e-6);
    }

    #[test]
    fn eq1_threshold_decreases_with_buffer() {
        let mut prev = f64::INFINITY;
        for b in [0.0, 5.0, 10.0, 20.0, 60.0, 240.0] {
            let x = hyb_min_throughput_bps(0.5, 3e6, b, 20.0);
            assert!(x < prev, "threshold must fall as the buffer grows");
            prev = x;
        }
    }

    #[test]
    fn fig2_curves_consistent() {
        let buffers = [0.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        let thresh = fig2b_threshold_curve(0.5, 20.0, &buffers);
        let select = fig2a_selection_curve(0.5, 20.0, &buffers);
        for ((b1, min_x), (b2, max_r)) in thresh.iter().zip(select.iter()) {
            assert_eq!(b1, b2);
            // The two curves are reciprocal: min_x(r=1) * max_r(x=1) = 1.
            assert!((min_x * max_r - 1.0).abs() < 1e-9);
        }
        // At empty buffer the threshold is 1/β = 2.
        assert!((thresh[0].1 - 2.0).abs() < 1e-12);
    }
}
