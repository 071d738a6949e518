//! Throughput measurements and estimators.
//!
//! ABR algorithms historically consume throughput measurements of completed
//! chunk downloads (§2.1). [`ThroughputHistory`] records them; the estimator
//! helpers implement the aggregations the ABR algorithms here use: the
//! harmonic mean, the minimum of recent chunks, and the download-time
//! weighted average.
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

/// A recorded measurement beside the reciprocal of its throughput, taken
/// once at [`ThroughputHistory::record`] for the harmonic mean.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Sample {
    m: ChunkMeasurement,
    /// `1 / max(bps, 1)`: the 1 bps floor keeps a zero-time download finite.
    inv_bps: f64,
}

/// A rolling record of chunk download measurements.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ThroughputHistory {
    samples: Vec<Sample>,
}

impl ThroughputHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed download.
    pub fn record(&mut self, m: ChunkMeasurement) {
        let inv_bps = 1.0 / m.throughput().bps().max(1.0);
        self.samples.push(Sample { m, inv_bps });
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
        self.samples.last().map(|s| &s.m)
    }

    /// Harmonic mean of the last `k` throughputs — robust to outliers, used
    /// by MPC-style algorithms. Each throughput is floored at 1 bps.
    pub fn harmonic_mean_last(&self, k: usize) -> Option<Rate> {
        let tail = self.tail(k);
        if tail.is_empty() {
            return None;
        }
        let sum_inv: f64 = tail.iter().map(|s| s.inv_bps).sum();
        Some(Rate::from_bps(tail.len() as f64 / sum_inv))
    }

    /// Minimum throughput over the last `k` chunks — the conservative
    /// estimate of the dash.js-style rule in §2.3.1.
    pub fn min_last(&self, k: usize) -> Option<Rate> {
        self.tail(k)
            .iter()
            .map(|s| s.m.throughput())
            .fold(None, |acc: Option<Rate>, x| {
                Some(acc.map_or(x, |a| a.min(x)))
            })
    }

    /// Download-time-weighted average throughput over all samples — the
    /// session "average chunk throughput" of Appendix A Eq. (9) and §5.1.
    pub fn weighted_average(&self) -> Option<Rate> {
        let total_bytes: u64 = self.samples.iter().map(|s| s.m.bytes).sum();
        let total_time: f64 = self
            .samples
            .iter()
            .map(|s| s.m.download_time.as_secs_f64())
            .sum();
        if total_time <= 0.0 {
            return None;
        }
        Some(Rate::from_bps(total_bytes as f64 * 8.0 / total_time))
    }

    fn tail(&self, k: usize) -> &[Sample] {
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
        assert!(h.weighted_average().is_none());
    }

    #[test]
    fn min_last_over_the_tail() {
        let mut h = ThroughputHistory::new();
        for s in [4.0, 1.0, 2.0, 0.5] {
            h.record(m(1_000_000, s)); // throughputs: 2, 8, 4, 16 Mbps
        }
        assert!((h.min_last(4).unwrap().mbps() - 2.0).abs() < 1e-9);
        assert!((h.min_last(3).unwrap().mbps() - 4.0).abs() < 1e-9);
        assert!((h.min_last(1).unwrap().mbps() - 16.0).abs() < 1e-9);
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

    /// The harmonic mean as it was computed before reciprocals were cached:
    /// one division per sample of the tail, at every call.
    fn per_sample_harmonic_mean(ms: &[ChunkMeasurement], k: usize) -> Option<Rate> {
        let tail = &ms[ms.len().saturating_sub(k)..];
        if tail.is_empty() {
            return None;
        }
        let sum_inv: f64 = tail
            .iter()
            .map(|m| 1.0 / m.throughput().bps().max(1.0))
            .sum();
        Some(Rate::from_bps(tail.len() as f64 / sum_inv))
    }

    /// A download from two (family, raw) draws: sizes tiny, chunk-like or
    /// near `u64::MAX`; times zero (a throughput of 0, floored at 1 bps),
    /// sub-microsecond, or up to ten minutes.
    fn download(
        (size_kind, size_raw, time_kind, time_raw): (u8, u64, u8, u64),
    ) -> ChunkMeasurement {
        let bytes = match size_kind {
            0 => size_raw % 16,
            1 => 1 + size_raw % 20_000_000,
            _ => u64::MAX - size_raw % (u64::MAX >> 8),
        };
        let ns = match time_kind {
            0 => 0,
            1 => 1 + time_raw % 1_000,
            _ => 1_000 + time_raw % 600_000_000_000,
        };
        ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes,
            download_time: SimDuration::from_nanos(ns),
            completed_at: SimTime::ZERO,
        }
    }

    proptest::proptest! {
        /// Summing the reciprocals cached at `record` gives the old
        /// per-sample expression's bits, for every window `k` in 0..=10
        /// after every record.
        #[test]
        fn harmonic_mean_matches_per_sample_expression(
            draws in proptest::collection::vec(
                (0u8..3, proptest::prelude::any::<u64>(), 0u8..3, proptest::prelude::any::<u64>()),
                0..24,
            ),
        ) {
            let stream: Vec<ChunkMeasurement> = draws.into_iter().map(download).collect();
            let mut h = ThroughputHistory::new();
            for (i, &m) in stream.iter().enumerate() {
                h.record(m);
                for k in 0..=10 {
                    proptest::prop_assert_eq!(
                        h.harmonic_mean_last(k).map(|r| r.bps().to_bits()),
                        per_sample_harmonic_mean(&stream[..=i], k).map(|r| r.bps().to_bits()),
                        "k={} after {} records", k, i + 1
                    );
                }
            }
        }
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
