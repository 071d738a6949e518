//! Measurement recorders.
//!
//! Experiments attach these recorders to flows, links, and players to build
//! the timeseries the paper plots: binned throughput (Figs 1, 7, 8b), gauge
//! series for RTT / queue depth / playback buffer (Fig 7), and scalar
//! counters.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Accumulates byte counts into fixed-width time bins, yielding a throughput
/// timeseries (the "chunk throughput" traces of Figs 1 and 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinnedThroughput {
    bin: SimDuration,
    bytes: Vec<u64>,
}

impl BinnedThroughput {
    /// Create a recorder with the given bin width.
    ///
    /// # Panics
    /// Panics if `bin` is zero.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        BinnedThroughput {
            bin,
            bytes: Vec::new(),
        }
    }

    /// Record `bytes` delivered at time `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let idx = (at.as_nanos() / self.bin.as_nanos()) as usize;
        if idx >= self.bytes.len() {
            self.bytes.resize(idx + 1, 0);
        }
        self.bytes[idx] += bytes;
    }

    /// Throughput per bin in bits/sec, as `(bin_start_seconds, bps)` pairs.
    pub fn series_bps(&self) -> Vec<(f64, f64)> {
        let bin_s = self.bin.as_secs_f64();
        self.bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * bin_s, b as f64 * 8.0 / bin_s))
            .collect()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Mean throughput in bits/sec over bins `[from, to)` (by bin index).
    pub fn mean_bps(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.bytes.len());
        if from >= to {
            return 0.0;
        }
        let total: u64 = self.bytes[from..to].iter().sum();
        total as f64 * 8.0 / ((to - from) as f64 * self.bin.as_secs_f64())
    }

    /// Number of bins recorded so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A time-stamped series of instantaneous values (a UDP sink's one-way
/// delays), read as a mean over a time window.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GaugeSeries {
    points: Vec<(SimTime, f64)>,
}

impl GaugeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Samples must be recorded in nondecreasing time order
    /// (the simulator guarantees this; debug builds assert it).
    pub fn record(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "gauge samples out of order"
        );
        self.points.push((at, value));
    }

    /// Mean of samples within `[from, to)`.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            return f64::NAN;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning() {
        let mut t = BinnedThroughput::new(SimDuration::from_millis(100));
        t.record(SimTime::from_millis(10), 1000);
        t.record(SimTime::from_millis(90), 1000);
        t.record(SimTime::from_millis(150), 500);
        assert_eq!(t.len(), 2);
        let s = t.series_bps();
        // First bin: 2000 bytes in 0.1 s = 160 kbps.
        assert!((s[0].1 - 160_000.0).abs() < 1e-6);
        assert!((s[1].1 - 40_000.0).abs() < 1e-6);
        assert_eq!(t.total_bytes(), 2500);
    }

    #[test]
    fn mean_bps_range() {
        let mut t = BinnedThroughput::new(SimDuration::from_secs(1));
        t.record(SimTime::from_millis(500), 125_000); // 1 Mbps in bin 0
        t.record(SimTime::from_millis(1500), 375_000); // 3 Mbps in bin 1
        assert!((t.mean_bps(0, 2) - 2e6).abs() < 1e-6);
        assert!((t.mean_bps(1, 2) - 3e6).abs() < 1e-6);
        assert_eq!(t.mean_bps(5, 9), 0.0);
    }

    #[test]
    fn gauge_window_mean() {
        let mut g = GaugeSeries::new();
        g.record(SimTime::from_secs(1), 10.0);
        g.record(SimTime::from_secs(2), 20.0);
        g.record(SimTime::from_secs(3), 30.0);
        assert_eq!(g.mean_between(SimTime::ZERO, SimTime::MAX), 20.0);
        assert_eq!(
            g.mean_between(SimTime::from_secs(2), SimTime::from_secs(4)),
            25.0
        );
        assert!(g
            .mean_between(SimTime::from_secs(10), SimTime::from_secs(20))
            .is_nan());
        assert!(GaugeSeries::new()
            .mean_between(SimTime::ZERO, SimTime::MAX)
            .is_nan());
    }
}
