//! Throughput measurements and estimators.
//!
//! ABR algorithms historically consume throughput measurements of completed
//! chunk downloads (§2.1). [`ThroughputHistory`] records them; the estimator
//! helpers implement the aggregations common across published ABR
//! algorithms: EWMA, harmonic mean, minimum-of-recent, and percentiles.
//!
//! With pacing these measurements no longer estimate *available bandwidth* —
//! they estimate `min(pace rate, available bandwidth)`; Sammy's design
//! (§3.1) makes bitrate decisions robust to exactly that.

use netsim::{Rate, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One completed chunk download, as observed by the client.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ChunkMeasurement {
    /// Chunk index within the title.
    pub index: usize,
    /// Ladder rung downloaded.
    pub rung: usize,
    /// Encoded size in bytes.
    pub bytes: u64,
    /// Time from request to last byte (the Δt of Appendix A).
    pub download_time: SimDuration,
    /// When the download completed.
    pub completed_at: SimTime,
}

impl ChunkMeasurement {
    /// Observed chunk throughput `x_t = s_t / Δ_t`.
    pub fn throughput(&self) -> Rate {
        if self.download_time.is_zero() {
            return Rate::ZERO;
        }
        Rate::from_bps(self.bytes as f64 * 8.0 / self.download_time.as_secs_f64())
    }
}

/// A rolling record of chunk download measurements.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputHistory {
    samples: Vec<ChunkMeasurement>,
}

impl ThroughputHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed download.
    pub fn record(&mut self, m: ChunkMeasurement) {
        self.samples.push(m);
    }

    /// All measurements in arrival order.
    pub fn samples(&self) -> &[ChunkMeasurement] {
        &self.samples
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no measurements were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Most recent measurement.
    pub fn last(&self) -> Option<&ChunkMeasurement> {
        self.samples.last()
    }

    /// Harmonic mean of the last `k` throughputs — robust to outliers, used
    /// by MPC-style algorithms.
    pub fn harmonic_mean_last(&self, k: usize) -> Option<Rate> {
        let tail = self.tail(k);
        if tail.is_empty() {
            return None;
        }
        let sum_inv: f64 = tail
            .iter()
            .map(|m| 1.0 / m.throughput().bps().max(1.0))
            .sum();
        Some(Rate::from_bps(tail.len() as f64 / sum_inv))
    }

    /// Minimum throughput over the last `k` chunks — the conservative
    /// estimate of the dash.js-style rule in §2.3.1.
    pub fn min_last(&self, k: usize) -> Option<Rate> {
        self.tail(k)
            .iter()
            .map(|m| m.throughput())
            .fold(None, |acc: Option<Rate>, x| {
                Some(acc.map_or(x, |a| a.min(x)))
            })
    }

    /// Percentile (0–1) of all recorded throughputs. Used for the paper's
    /// "pre-experiment p95 chunk throughput" user bucketing (Fig 3).
    pub fn percentile(&self, q: f64) -> Option<Rate> {
        if self.samples.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.samples.iter().map(|m| m.throughput().bps()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
        let idx = ((q.clamp(0.0, 1.0)) * (v.len() - 1) as f64).round() as usize;
        Some(Rate::from_bps(v[idx]))
    }

    /// Download-time-weighted average throughput over all samples — the
    /// session "average chunk throughput" of Appendix A Eq. (9) and §5.1.
    pub fn weighted_average(&self) -> Option<Rate> {
        let total_bytes: u64 = self.samples.iter().map(|m| m.bytes).sum();
        let total_time: f64 = self
            .samples
            .iter()
            .map(|m| m.download_time.as_secs_f64())
            .sum();
        if total_time <= 0.0 {
            return None;
        }
        Some(Rate::from_bps(total_bytes as f64 * 8.0 / total_time))
    }

    fn tail(&self, k: usize) -> &[ChunkMeasurement] {
        let n = self.samples.len();
        &self.samples[n.saturating_sub(k)..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(bytes: u64, secs: f64) -> ChunkMeasurement {
        ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes,
            download_time: SimDuration::from_secs_f64(secs),
            completed_at: SimTime::ZERO,
        }
    }

    #[test]
    fn throughput_math() {
        // 1 MB in 1 s = 8 Mbps.
        assert!((m(1_000_000, 1.0).throughput().mbps() - 8.0).abs() < 1e-9);
        assert_eq!(m(1000, 0.0).throughput(), Rate::ZERO);
    }

    #[test]
    fn empty_history() {
        let h = ThroughputHistory::new();
        assert!(h.is_empty());
        assert!(h.harmonic_mean_last(3).is_none());
        assert!(h.min_last(3).is_none());
        assert!(h.percentile(0.95).is_none());
        assert!(h.weighted_average().is_none());
    }

    #[test]
    fn min_and_percentile() {
        let mut h = ThroughputHistory::new();
        for s in [1.0, 2.0, 0.5, 4.0] {
            h.record(m(1_000_000, s)); // throughputs: 8, 4, 16, 2 Mbps
        }
        assert!((h.min_last(4).unwrap().mbps() - 2.0).abs() < 1e-9);
        assert!((h.min_last(2).unwrap().mbps() - 2.0).abs() < 1e-9);
        assert!((h.min_last(1).unwrap().mbps() - 2.0).abs() < 1e-9);
        assert!((h.percentile(0.0).unwrap().mbps() - 2.0).abs() < 1e-9);
        assert!((h.percentile(1.0).unwrap().mbps() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn harmonic_mean_is_conservative() {
        let mut h = ThroughputHistory::new();
        h.record(m(1_000_000, 1.0)); // 8 Mbps
        h.record(m(1_000_000, 4.0)); // 2 Mbps
        let hm = h.harmonic_mean_last(2).unwrap().mbps();
        // Harmonic mean of 8 and 2 = 3.2, below arithmetic mean 5.
        assert!((hm - 3.2).abs() < 1e-9);
    }

    #[test]
    fn weighted_average_matches_eq9() {
        let mut h = ThroughputHistory::new();
        h.record(m(2_000_000, 1.0));
        h.record(m(1_000_000, 3.0));
        // (3 MB * 8) / 4 s = 6 Mbps.
        assert!((h.weighted_average().unwrap().mbps() - 6.0).abs() < 1e-9);
    }
}
