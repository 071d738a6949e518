//! Experiment statistics.
//!
//! The paper reports per-arm medians (median over sessions; median of
//! per-session medians for RTT), percent changes vs control, and 95%
//! confidence intervals; non-significant movements are reported as "–"
//! (Tables 2 and 3). Each arm of a row keeps only the statistic the row
//! reports ([`StreamingStat`]): a t-digest for a median row, an exact
//! count and sum for a mean row. The one interval is the paired
//! per-session mean's Poisson bootstrap, folded by [`crate::streaming`]
//! (DESIGN.md §7).

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One arm of one report row, keeping exactly the statistic its row's
/// [`Aggregate`] reports: a `Median` row's arm is a bare t-digest (δ = 100;
/// its count is the digest's own), a `Mean` row's arm an exact count and
/// sum.
///
/// The streaming runner keeps one per arm in each shard's
/// [`MetricAcc`](crate::streaming::MetricAcc) and
/// [`merge`](StreamingStat::merge)s shard summaries in strict shard order.
/// Counts are exact; a sum rounds in the order it is added and merged, as
/// a digest's centroids do, so neither is bit-identical across merge
/// orders.
#[derive(Debug, Clone)]
pub enum StreamingStat {
    /// A `Median` row's arm.
    Median(tdigest::TDigest),
    /// A `Mean` row's arm.
    Mean {
        /// Finite samples added.
        count: u64,
        /// Their sum, in the order they were added (`+0.0` while `count`
        /// is 0: `decode` refuses any other).
        sum: f64,
    },
}

impl StreamingStat {
    /// An empty summary for a row aggregated by `agg`.
    pub fn new(agg: Aggregate) -> Self {
        match agg {
            Aggregate::Median => StreamingStat::Median(tdigest::TDigest::new(100.0)),
            Aggregate::Mean => StreamingStat::Mean { count: 0, sum: 0.0 },
        }
    }

    /// Add one sample. Non-finite samples are ignored, matching the
    /// digest's policy.
    pub fn add(&mut self, value: f64) {
        match self {
            StreamingStat::Median(digest) => digest.add(value),
            StreamingStat::Mean { count, sum } => {
                if value.is_finite() {
                    *count += 1;
                    *sum += value;
                }
            }
        }
    }

    /// Fold another shard's summary of the same row into this one.
    ///
    /// # Panics
    /// Panics if the two summaries belong to rows of different aggregates.
    pub fn merge(&mut self, other: &StreamingStat) {
        match (self, other) {
            (StreamingStat::Median(a), StreamingStat::Median(b)) => a.merge(b),
            (StreamingStat::Mean { count, sum }, StreamingStat::Mean { count: n, sum: s }) => {
                *count += n;
                *sum += s;
            }
            _ => panic!("merged summaries of a Median and a Mean row"),
        }
    }

    /// Number of finite samples absorbed.
    pub fn count(&self) -> u64 {
        match self {
            StreamingStat::Median(digest) => digest.count(),
            StreamingStat::Mean { count, .. } => *count,
        }
    }

    /// The row's statistic: the digest's median, or the exact mean (NaN
    /// if empty, either way).
    pub fn value(&self) -> f64 {
        match self {
            StreamingStat::Median(digest) => digest.median(),
            StreamingStat::Mean { count: 0, .. } => f64::NAN,
            StreamingStat::Mean { count, sum } => sum / *count as f64,
        }
    }

    /// Serialize via the [`tdigest::wire`] codec (bit-exact round trip;
    /// used by experiment checkpoints). The aggregate is not written: the
    /// row table says which layout follows.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StreamingStat::Median(digest) => digest.encode(out),
            StreamingStat::Mean { count, sum } => {
                tdigest::wire::put_u64(out, *count);
                tdigest::wire::put_f64(out, *sum);
            }
        }
    }

    /// Decode a summary written by [`StreamingStat::encode`] for a row
    /// aggregated by `agg`, refusing what it never writes: an empty mean
    /// whose sum is not `+0.0`. A non-finite sum of finite samples (an
    /// overflow) is legal.
    pub fn decode(
        r: &mut tdigest::wire::Reader<'_>,
        agg: Aggregate,
    ) -> Result<StreamingStat, tdigest::wire::WireError> {
        Ok(match agg {
            Aggregate::Median => StreamingStat::Median(tdigest::TDigest::decode(r)?),
            Aggregate::Mean => {
                let count = r.u64("streaming_stat.count")?;
                let sum = r.f64("streaming_stat.sum")?;
                if count == 0 && sum.to_bits() != 0.0f64.to_bits() {
                    return Err(tdigest::wire::WireError {
                        context: "streaming_stat.sum",
                    });
                }
                StreamingStat::Mean { count, sum }
            }
        })
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

    /// A summary of `values` for a row aggregated by `agg`.
    fn folded(agg: Aggregate, values: impl IntoIterator<Item = f64>) -> StreamingStat {
        let mut s = StreamingStat::new(agg);
        for v in values {
            s.add(v);
        }
        s
    }

    #[test]
    fn streaming_stat_reports_its_rows_statistic() {
        let values = || (0..1000).map(|i| i as f64);
        let mean = folded(Aggregate::Mean, values());
        assert_eq!(mean.count(), 1000);
        assert_eq!(mean.value(), 499.5);
        let median = folded(Aggregate::Median, values());
        assert_eq!(median.count(), 1000);
        let med = median.value();
        assert!((med - 499.5).abs() < 15.0, "median estimate off: {med}");
    }

    #[test]
    fn streaming_stat_ignores_non_finite() {
        for agg in [Aggregate::Median, Aggregate::Mean] {
            let s = folded(agg, [f64::NAN, f64::INFINITY]);
            assert_eq!(s.count(), 0, "{agg:?}");
            assert!(s.value().is_nan(), "{agg:?}");
            assert_eq!(encoded(&s), encoded(&StreamingStat::new(agg)), "{agg:?}");
        }
    }

    fn encoded(s: &StreamingStat) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    }

    fn decoded(bytes: &[u8], agg: Aggregate) -> Result<StreamingStat, tdigest::wire::WireError> {
        let mut r = tdigest::wire::Reader::new(bytes);
        let s = StreamingStat::decode(&mut r, agg)?;
        assert_eq!(r.remaining(), 0, "decode must consume the whole encoding");
        Ok(s)
    }

    /// A mean arm's encoding: its `(count, sum)`, nothing else.
    fn mean_bytes(count: u64, sum: f64) -> Vec<u8> {
        let mut out = Vec::new();
        tdigest::wire::put_u64(&mut out, count);
        tdigest::wire::put_f64(&mut out, sum);
        out
    }

    /// Every summary `encode` can write decodes and re-encodes to the same
    /// bytes, for either aggregate: empty, one sample, 1 000 samples, a
    /// merge of shards, and a sum that overflowed to +∞.
    #[test]
    fn streaming_stat_round_trips_valid_encodings() {
        for agg in [Aggregate::Median, Aggregate::Mean] {
            let mut merged = folded(agg, (0..300).map(|i| i as f64));
            merged.merge(&folded(agg, (0..200).map(|i| -(i as f64))));
            for s in [
                StreamingStat::new(agg),
                folded(agg, [-0.0]),
                folded(agg, (0..1000).map(|i| i as f64)),
                merged,
                folded(agg, [f64::MAX, f64::MAX]),
            ] {
                let bytes = encoded(&s);
                let back = decoded(&bytes, agg).expect("a valid encoding decodes");
                assert_eq!(encoded(&back), bytes, "{agg:?}");
            }
        }
        let overflow = folded(Aggregate::Mean, [f64::MAX, f64::MAX]);
        assert_eq!(overflow.value(), f64::INFINITY);
        assert_eq!(encoded(&overflow), mean_bytes(2, f64::INFINITY));
    }

    /// An empty mean whose sum is not `+0.0` is refused, and a mean arm's
    /// bytes are not a digest.
    #[test]
    fn streaming_stat_decode_refuses_what_encode_never_writes() {
        assert!(decoded(&mean_bytes(0, 0.0), Aggregate::Mean).is_ok());
        assert!(decoded(&mean_bytes(1, 0.0), Aggregate::Mean).is_ok());
        for sum in [-0.0, 1.0, f64::NAN, f64::INFINITY] {
            let err = decoded(&mean_bytes(0, sum), Aggregate::Mean).unwrap_err();
            assert_eq!(err.context, "streaming_stat.sum", "sum {sum}");
        }
        let full = folded(Aggregate::Mean, (0..1000).map(|i| i as f64));
        assert!(decoded(&encoded(&full), Aggregate::Median).is_err());
    }

    #[test]
    fn streaming_stat_merge_matches_pooled_counts() {
        for agg in [Aggregate::Median, Aggregate::Mean] {
            let mut merged = StreamingStat::new(agg);
            for shard in 0..8 {
                merged.merge(&folded(agg, (0..250).map(|i| (shard * 250 + i) as f64)));
            }
            let pooled = folded(agg, (0..2000).map(|i| i as f64));
            assert_eq!(merged.count(), pooled.count(), "{agg:?}");
            let (m, p) = (merged.value(), pooled.value());
            assert!(
                (m - p).abs() < 2000.0 * 0.02,
                "{agg:?}: merged {m} vs pooled {p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a Median and a Mean row")]
    fn streaming_stat_merge_refuses_the_other_aggregate() {
        StreamingStat::new(Aggregate::Median).merge(&StreamingStat::new(Aggregate::Mean));
    }
}
