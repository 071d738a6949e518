//! Experiment statistics.
//!
//! The paper reports per-arm medians (median over sessions; median of
//! per-session medians for RTT), percent changes vs control, and 95%
//! confidence intervals; non-significant movements are reported as "–"
//! (Tables 2 and 3). The arm statistics come from mergeable summaries
//! ([`StreamingStat`]); the one interval is the paired per-session mean's
//! Poisson bootstrap, folded by [`crate::streaming`] (DESIGN.md §7).

use serde::{Deserialize, Serialize};

/// Percentile `q ∈ [0,1]` of a slice, by linear interpolation between the
/// two nearest order statistics (the "type 7" / numpy-default definition,
/// which the bootstrap CIs rely on).
///
/// Non-finite samples are ignored. Returns NaN for an empty slice or a NaN
/// `q`; `q` outside `[0,1]` clamps to the extremes, so `q = 1.0` is exactly
/// the maximum on slices of any length. The two order statistics are
/// found by selection, not a full sort.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if q.is_nan() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut at_lo, above) =
        v.select_nth_unstable_by(lo, |a, b| a.partial_cmp(b).expect("finite"));
    if lo == hi {
        return at_lo;
    }
    // `hi == lo + 1`: the next order statistic is the least value above.
    let at_hi = above.iter().copied().fold(f64::INFINITY, f64::min);
    at_lo + (at_hi - at_lo) * (pos - lo as f64)
}

/// How an arm-level statistic is computed from per-session values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregate {
    /// Median over sessions (the paper's default).
    Median,
    /// Mean over sessions (used for rates like rebuffers/hr and for
    /// fraction-of-sessions metrics encoded as 0/1).
    Mean,
}

/// Percent change of `treatment` over `control`; NaN when the control is
/// zero or either side is non-finite.
pub(crate) fn pct_change(control: f64, treatment: f64) -> f64 {
    if control == 0.0 || !control.is_finite() || !treatment.is_finite() {
        f64::NAN
    } else {
        (treatment - control) / control.abs() * 100.0
    }
}

/// The mean per-session paired percent difference, with a cluster
/// bootstrap CI over users — the one interval a report carries. The
/// median of a discrete metric (e.g. VMAF, which takes ladder-rung values)
/// ties at zero under small effects, while the paired mean resolves
/// sub-percent shifts — the scale of the paper's QoE movements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedDelta {
    /// Mean of per-session `(t − c)/c × 100` over all pairs.
    pub mean_delta_pct: f64,
    /// 95% cluster-bootstrap CI lower bound (NaN with no replicates).
    pub ci_low: f64,
    /// 95% CI upper bound (NaN with no replicates).
    pub ci_high: f64,
}

impl PairedDelta {
    /// True if the CI is finite and excludes zero.
    pub fn significant(&self) -> bool {
        let (lo, hi) = (self.ci_low, self.ci_high);
        lo.is_finite() && hi.is_finite() && (lo > 0.0 || hi < 0.0)
    }
}

/// A mergeable streaming summary of a metric: exact count/mean plus
/// t-digest quantiles.
///
/// The streaming runner keeps one `StreamingStat` per metric and arm in
/// each shard's [`MetricAcc`](crate::streaming::MetricAcc); shard summaries
/// are then [`merge`](StreamingStat::merge)d into the experiment-wide
/// summary. Count and mean merge exactly (order independent); quantiles
/// come from the underlying [`tdigest::TDigest`], whose estimates are
/// order-*insensitive* within the digest's accuracy bound (≈1% in quantile
/// space at the default compression) but not bit-identical across merge
/// orders — which is why the runner merges in strict shard order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingStat {
    digest: tdigest::TDigest,
    count: u64,
    sum: f64,
}

impl Default for StreamingStat {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStat {
    /// An empty summary with the default digest compression (δ = 100).
    pub fn new() -> Self {
        StreamingStat {
            digest: tdigest::TDigest::new(100.0),
            count: 0,
            sum: 0.0,
        }
    }

    /// Add one sample. Non-finite samples are ignored, matching the
    /// digest's policy.
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.digest.add(value);
        self.count += 1;
        self.sum += value;
    }

    /// Fold another shard's summary into this one.
    pub fn merge(&mut self, other: &StreamingStat) {
        self.digest.merge(&other.digest);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of finite samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of absorbed samples (NaN if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile `q ∈ [0,1]` (NaN if empty).
    pub fn percentile(&self, q: f64) -> f64 {
        self.digest.quantile(q)
    }

    /// Estimated median.
    pub fn median(&self) -> f64 {
        self.digest.median()
    }

    /// Smallest absorbed sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.digest.min()
    }

    /// Largest absorbed sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.digest.max()
    }

    /// Serialize via the [`tdigest::wire`] codec (bit-exact round trip;
    /// used by experiment checkpoints).
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.digest.encode(out);
        tdigest::wire::put_u64(out, self.count);
        tdigest::wire::put_f64(out, self.sum);
    }

    /// Decode a summary written by [`StreamingStat::encode`], refusing
    /// what it never writes: a count other than the digest's, or an empty
    /// summary whose sum is not `+0.0`. A non-finite sum of finite samples
    /// (an overflow) is legal.
    pub fn decode(
        r: &mut tdigest::wire::Reader<'_>,
    ) -> Result<StreamingStat, tdigest::wire::WireError> {
        let bad = |context| tdigest::wire::WireError { context };
        let digest = tdigest::TDigest::decode(r)?;
        let count = r.u64("streaming_stat.count")?;
        if count != digest.count() {
            return Err(bad("streaming_stat.count"));
        }
        let sum = r.f64("streaming_stat.sum")?;
        if count == 0 && sum.to_bits() != 0.0f64.to_bits() {
            return Err(bad("streaming_stat.sum"));
        }
        Ok(StreamingStat { digest, count, sum })
    }
}

impl FromIterator<f64> for StreamingStat {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = StreamingStat::new();
        s.extend(iter);
        s
    }
}

impl Extend<f64> for StreamingStat {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    /// Locks the linear-interpolation ("type 7") definition the bootstrap
    /// CIs use. Pre-fix, percentile rounded to the nearest rank: q = 0.6 on
    /// `[0, 10]` returned 10 instead of 6, and a NaN q silently returned
    /// the minimum.
    #[test]
    fn percentile_interpolates_linearly() {
        assert_eq!(percentile(&[0.0, 10.0], 0.6), 6.0);
        assert_eq!(percentile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        // Unsorted input and non-finite samples are handled.
        assert_eq!(percentile(&[10.0, f64::NAN, 0.0], 0.6), 6.0);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty slice (and all-non-finite, which filters to empty) → NaN.
        assert!(percentile(&[], 0.5).is_nan());
        assert!(percentile(&[f64::NAN, f64::INFINITY], 0.5).is_nan());
        // NaN q → NaN, never a silent minimum.
        assert!(percentile(&[1.0, 2.0], f64::NAN).is_nan());
        // q outside [0,1] clamps to the extremes.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], -0.5), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.5), 3.0);
        // q = 1.0 on short slices is exactly the max (no index overshoot).
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(percentile(&[7.0, 9.0], 1.0), 9.0);
        // q = 0.975 on a 2-element slice interpolates toward the max.
        assert_eq!(percentile(&[0.0, 40.0], 0.975), 39.0);
    }

    /// The definition `percentile` must keep: sort, then interpolate
    /// between the two order statistics around `q·(n−1)`.
    fn sorted_percentile(values: &[f64], q: f64) -> f64 {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }

    /// A sample from a (family, value) draw: often one of five values
    /// (ties), sometimes non-finite (ignored), else any finite value of
    /// either sign.
    fn sample((kind, x): (u8, f64)) -> f64 {
        match kind {
            0..=3 => (x.abs() % 5.0).floor() * 2.5 + 2.5,
            4 => f64::NAN,
            5 => f64::NEG_INFINITY,
            _ => x,
        }
    }

    /// `q` from a (family, value) draw: the bootstrap's and Fig 3's, or
    /// any in [0, 1].
    fn quantile((kind, x): (u8, f64)) -> f64 {
        match kind {
            0 => 0.025,
            1 => 0.5,
            2 => 0.95,
            3 => 0.975,
            _ => x,
        }
    }

    proptest::proptest! {
        /// Selection returns the sort-based value to the bit, for odd and
        /// even counts, duplicates, and the bootstrap's and Fig 3's `q`s.
        #[test]
        fn percentile_matches_sort_reference(
            draws in proptest::collection::vec((0u8..12, -1e6f64..1e6), 0..60),
            q_draw in (0u8..6, 0.0f64..=1.0),
        ) {
            let values: Vec<f64> = draws.into_iter().map(sample).collect();
            let q = quantile(q_draw);
            let got = percentile(&values, q);
            let want = sorted_percentile(&values, q);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "q={} {:?}", q, values);
        }
    }

    #[test]
    fn streaming_stat_tracks_exact_moments() {
        let s: StreamingStat = (0..1000).map(|i| i as f64).collect();
        assert_eq!(s.count(), 1000);
        assert!((s.mean() - 499.5).abs() < 1e-9);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(999.0));
        let med = s.median();
        assert!((med - 499.5).abs() < 15.0, "median estimate off: {med}");
    }

    #[test]
    fn streaming_stat_ignores_non_finite() {
        let mut s = StreamingStat::new();
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.median().is_nan());
    }

    fn encoded(s: &StreamingStat) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    }

    fn decoded(bytes: &[u8]) -> Result<StreamingStat, tdigest::wire::WireError> {
        let mut r = tdigest::wire::Reader::new(bytes);
        let s = StreamingStat::decode(&mut r)?;
        assert_eq!(r.remaining(), 0, "decode must consume the whole encoding");
        Ok(s)
    }

    /// An encoding with its trailing `(count, sum)` replaced.
    fn patched(bytes: &[u8], count: u64, sum: f64) -> Vec<u8> {
        let mut out = bytes[..bytes.len() - 16].to_vec();
        tdigest::wire::put_u64(&mut out, count);
        tdigest::wire::put_f64(&mut out, sum);
        out
    }

    /// Every summary `encode` can write decodes and re-encodes to the same
    /// bytes: empty, one sample, 1 000 samples, a merge of shards, and a
    /// sum that overflowed to +∞.
    #[test]
    fn streaming_stat_round_trips_valid_encodings() {
        let mut merged: StreamingStat = (0..300).map(|i| i as f64).collect();
        merged.merge(&(0..200).map(|i| -(i as f64)).collect());
        let overflow: StreamingStat = [f64::MAX, f64::MAX].into_iter().collect();
        assert_eq!(overflow.mean(), f64::INFINITY);
        for s in [
            StreamingStat::new(),
            std::iter::once(-0.0).collect(),
            (0..1000).map(|i| i as f64).collect(),
            merged,
            overflow,
        ] {
            let bytes = encoded(&s);
            let back = decoded(&bytes).expect("a valid encoding decodes");
            assert_eq!(encoded(&back), bytes);
        }
    }

    /// A count that is not the digest's, or an empty summary's sum that is
    /// not `+0.0`, is refused: a count of 0 beside a 1 000-sample digest
    /// once decoded to a NaN mean and a median of 499.5.
    #[test]
    fn streaming_stat_decode_refuses_what_encode_never_writes() {
        let full = encoded(&(0..1000).map(|i| i as f64).collect());
        let sum = 499_500.0;
        assert!(decoded(&patched(&full, 1000, sum)).is_ok());
        for count in [0, 999, 1001, u64::MAX] {
            let err = decoded(&patched(&full, count, sum)).unwrap_err();
            assert_eq!(err.context, "streaming_stat.count", "count {count}");
        }
        let empty = encoded(&StreamingStat::new());
        assert!(decoded(&patched(&empty, 0, 0.0)).is_ok());
        assert!(decoded(&patched(&empty, 1, 0.0)).is_err());
        for sum in [-0.0, 1.0, f64::NAN, f64::INFINITY] {
            let err = decoded(&patched(&empty, 0, sum)).unwrap_err();
            assert_eq!(err.context, "streaming_stat.sum", "sum {sum}");
        }
    }

    #[test]
    fn streaming_stat_merge_matches_pooled_counts() {
        let mut shards: Vec<StreamingStat> = Vec::new();
        for shard in 0..8 {
            shards.push((0..250).map(|i| (shard * 250 + i) as f64).collect());
        }
        let mut merged = StreamingStat::new();
        for s in &shards {
            merged.merge(s);
        }
        let pooled: StreamingStat = (0..2000).map(|i| i as f64).collect();
        assert_eq!(merged.count(), pooled.count());
        assert!((merged.mean() - pooled.mean()).abs() < 1e-9);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let m = merged.percentile(q);
            let p = pooled.percentile(q);
            assert!(
                (m - p).abs() < 2000.0 * 0.02,
                "q={q}: merged {m} vs pooled {p}"
            );
        }
    }
}
