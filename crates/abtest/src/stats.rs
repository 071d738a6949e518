//! Experiment statistics.
//!
//! The paper reports per-arm medians (median over sessions; median of
//! per-session medians for RTT), percent changes vs control, and 95%
//! confidence intervals; non-significant movements are reported as "–"
//! (Tables 2 and 3). This module implements those aggregations with a
//! seeded percentile bootstrap.

use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Median of a slice (NaN if empty). Does not require sorted input.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of a slice (NaN if empty), ignoring non-finite values.
pub fn mean(values: &[f64]) -> f64 {
    let v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Percentile `q ∈ [0,1]` of a slice, by linear interpolation between the
/// two nearest order statistics (the "type 7" / numpy-default definition,
/// which the bootstrap CIs rely on).
///
/// Non-finite samples are ignored. Returns NaN for an empty slice or a NaN
/// `q`; `q` outside `[0,1]` clamps to the extremes, so `q = 1.0` is exactly
/// the maximum on slices of any length.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if q.is_nan() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
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

impl Aggregate {
    /// Apply the aggregate.
    pub fn apply(self, values: &[f64]) -> f64 {
        match self {
            Aggregate::Median => median(values),
            Aggregate::Mean => mean(values),
        }
    }
}

/// A finite interval that lies on one side of zero.
fn excludes_zero(lo: f64, hi: f64) -> bool {
    lo.is_finite() && hi.is_finite() && (lo > 0.0 || hi < 0.0)
}

/// A percent-change comparison with a bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PercentChange {
    /// Control-arm statistic.
    pub control: f64,
    /// Treatment-arm statistic.
    pub treatment: f64,
    /// Percent change `(treatment − control) / control × 100`.
    pub pct_change: f64,
    /// 95% CI lower bound on the percent change.
    pub ci_low: f64,
    /// 95% CI upper bound.
    pub ci_high: f64,
}

impl PercentChange {
    /// True if the 95% CI excludes zero — the paper's significance rule.
    pub fn significant(&self) -> bool {
        excludes_zero(self.ci_low, self.ci_high)
    }

    /// Format as the tables do: the change when significant, "–" otherwise,
    /// always with the CI.
    pub fn display(&self) -> String {
        if self.significant() {
            format!(
                "{:+.2}% [{:+.1}, {:+.1}]",
                self.pct_change, self.ci_low, self.ci_high
            )
        } else {
            format!("–      [{:+.1}, {:+.1}]", self.ci_low, self.ci_high)
        }
    }
}

/// Percent change of `treatment` over `control`; NaN when the control is
/// zero or either side is non-finite. Shared by the collecting and the
/// streaming report.
pub(crate) fn pct_change(control: f64, treatment: f64) -> f64 {
    if control == 0.0 || !control.is_finite() || !treatment.is_finite() {
        f64::NAN
    } else {
        (treatment - control) / control.abs() * 100.0
    }
}

/// The point estimate of a paired comparison, `(control, treatment,
/// percent change)`: each arm's finite session values pooled over all
/// users, then aggregated. It is all a `(c0, c1)` evaluation reads
/// (`sweep::evaluate`), so that path resamples nothing.
pub(crate) fn point_change(
    control: &[Vec<f64>],
    treatment: &[Vec<f64>],
    agg: Aggregate,
) -> (f64, f64, f64) {
    assert_eq!(
        control.len(),
        treatment.len(),
        "paired arms must align by user"
    );
    let pool = |arm: &[Vec<f64>]| -> Vec<f64> {
        arm.iter()
            .flatten()
            .copied()
            .filter(|x| x.is_finite())
            .collect()
    };
    let c_stat = agg.apply(&pool(control));
    let t_stat = agg.apply(&pool(treatment));
    (c_stat, t_stat, pct_change(c_stat, t_stat))
}

/// The one cluster bootstrap: `reps` replicates, each drawing `n` users
/// with replacement (one `gen_range(0..n)` per user per replicate — the
/// draw order every printed CI is pinned to) and handing them to `stat`;
/// a replicate whose statistic is not finite is dropped. Returns the 95%
/// percentile interval, NaN when no replicate survives.
fn cluster_bootstrap(
    n: usize,
    reps: usize,
    seed: u64,
    mut stat: impl FnMut(&[usize]) -> f64,
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut boots = Vec::with_capacity(reps);
    let mut users = Vec::with_capacity(n);
    for _ in 0..reps {
        users.clear();
        users.extend((0..n).map(|_| rng.gen_range(0..n)));
        let s = stat(&users);
        if s.is_finite() {
            boots.push(s);
        }
    }
    if boots.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (percentile(&boots, 0.025), percentile(&boots, 0.975))
    }
}

/// Compare treatment vs control for a *paired* experiment: both arms ran
/// the same users (the simulator's exact-counterfactual design; see
/// DESIGN.md §7). `control[i]` and `treatment[i]` hold user `i`'s
/// per-session metric values under each arm. The point estimate pools all
/// sessions; the CI is a cluster bootstrap that resamples users, which
/// respects both within-user correlation and the pairing.
pub fn compare_paired(
    control: &[Vec<f64>],
    treatment: &[Vec<f64>],
    agg: Aggregate,
    reps: usize,
    seed: u64,
) -> PercentChange {
    let (c_stat, t_stat, pct) = point_change(control, treatment, agg);
    let finite = |arm: &[Vec<f64>], users: &[usize]| -> Vec<f64> {
        users
            .iter()
            .flat_map(|&u| &arm[u])
            .copied()
            .filter(|x| x.is_finite())
            .collect()
    };
    let (lo, hi) = cluster_bootstrap(control.len(), reps, seed, |users| {
        pct_change(
            agg.apply(&finite(control, users)),
            agg.apply(&finite(treatment, users)),
        )
    });
    PercentChange {
        control: c_stat,
        treatment: t_stat,
        pct_change: pct,
        ci_low: lo,
        ci_high: hi,
    }
}

/// The mean per-session paired percent difference, with a cluster
/// bootstrap CI over users. Complements [`compare_paired`]: the median of
/// a discrete metric (e.g. VMAF, which takes ladder-rung values) ties at
/// zero under small effects, while the paired mean resolves sub-percent
/// shifts — the scale of the paper's QoE movements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedDelta {
    /// Mean of per-session `(t − c)/c × 100` over all pairs.
    pub mean_delta_pct: f64,
    /// 95% cluster-bootstrap CI lower bound.
    pub ci_low: f64,
    /// 95% CI upper bound.
    pub ci_high: f64,
}

impl PairedDelta {
    /// True if the CI excludes zero.
    pub fn significant(&self) -> bool {
        excludes_zero(self.ci_low, self.ci_high)
    }

    /// Compact rendering, "–" when not significant.
    pub fn display(&self) -> String {
        if self.significant() {
            format!("{:+.3}%", self.mean_delta_pct)
        } else {
            "–".to_string()
        }
    }
}

/// Compute the paired per-session delta statistic. `control[u][i]` pairs
/// with `treatment[u][i]`; pairs with a non-finite or zero control value
/// are skipped.
pub fn paired_delta(
    control: &[Vec<f64>],
    treatment: &[Vec<f64>],
    reps: usize,
    seed: u64,
) -> PairedDelta {
    assert_eq!(control.len(), treatment.len());
    let user_deltas: Vec<Vec<f64>> = control
        .iter()
        .zip(treatment)
        .map(|(c, t)| {
            c.iter()
                .zip(t)
                .filter(|(cv, tv)| cv.is_finite() && tv.is_finite() && **cv != 0.0)
                .map(|(cv, tv)| (tv - cv) / cv.abs() * 100.0)
                .collect()
        })
        .collect();
    let all: Vec<f64> = user_deltas.iter().flatten().copied().collect();
    if all.is_empty() {
        return PairedDelta {
            mean_delta_pct: f64::NAN,
            ci_low: f64::NAN,
            ci_high: f64::NAN,
        };
    }
    let mean_all = all.iter().sum::<f64>() / all.len() as f64;

    // An empty resample has a NaN mean, which the kernel drops.
    let (lo, hi) = cluster_bootstrap(user_deltas.len(), reps, seed, |users| {
        let count: usize = users.iter().map(|&u| user_deltas[u].len()).sum();
        let sum: f64 = users.iter().flat_map(|&u| &user_deltas[u]).sum();
        sum / count as f64
    });
    PairedDelta {
        mean_delta_pct: mean_all,
        ci_low: lo,
        ci_high: hi,
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

    /// Decode a summary written by [`StreamingStat::encode`].
    pub fn decode(
        r: &mut tdigest::wire::Reader<'_>,
    ) -> Result<StreamingStat, tdigest::wire::WireError> {
        let digest = tdigest::TDigest::decode(r)?;
        let count = r.u64("streaming_stat.count")?;
        let sum = r.f64("streaming_stat.sum")?;
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
    fn median_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[f64::NAN, 1.0]), 1.0);
    }

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

    #[test]
    fn paired_compare_detects_small_shift() {
        // 100 users, 5 sessions each; treatment is a consistent -2% on a
        // metric with large between-user spread. An unpaired split would
        // drown this; the paired design must detect it.
        let mut rng = StdRng::seed_from_u64(5);
        let mut control = Vec::new();
        let mut treatment = Vec::new();
        for _ in 0..100 {
            let base = 10.0 * (1.0 + 5.0 * rng.gen::<f64>()); // heavy user spread
            let c: Vec<f64> = (0..5)
                .map(|_| base * (1.0 + 0.05 * (rng.gen::<f64>() - 0.5)))
                .collect();
            let t: Vec<f64> = c.iter().map(|v| v * 0.98).collect();
            control.push(c);
            treatment.push(t);
        }
        let r = compare_paired(&control, &treatment, Aggregate::Median, 400, 9);
        assert!(r.significant(), "{r:?}");
        assert!((r.pct_change + 2.0).abs() < 1.0, "{r:?}");
        assert!(r.display().contains('%'));
    }

    #[test]
    fn paired_compare_identical_is_null() {
        let arm: Vec<Vec<f64>> = (0..50).map(|u| vec![u as f64 + 1.0; 3]).collect();
        let r = compare_paired(&arm, &arm, Aggregate::Median, 200, 3);
        assert!(!r.significant());
        assert_eq!(r.pct_change, 0.0);
        assert!(r.display().contains('–'));
    }

    #[test]
    fn paired_delta_resolves_tiny_shift() {
        // A consistent -0.4% shift on a discrete-ish metric: the median
        // ties but the paired mean delta must surface it.
        let control: Vec<Vec<f64>> = (0..200).map(|u| vec![100.0 + (u % 7) as f64; 3]).collect();
        let treatment: Vec<Vec<f64>> = control
            .iter()
            .map(|c| c.iter().map(|v| v * 0.996).collect())
            .collect();
        let d = paired_delta(&control, &treatment, 300, 4);
        assert!(d.significant(), "{d:?}");
        assert!((d.mean_delta_pct + 0.4).abs() < 0.05, "{d:?}");
    }

    #[test]
    fn paired_delta_empty_and_null() {
        let d = paired_delta(&[vec![]], &[vec![]], 100, 1);
        assert!(d.mean_delta_pct.is_nan());
        let arm: Vec<Vec<f64>> = vec![vec![5.0, 6.0]; 10];
        let d = paired_delta(&arm, &arm, 100, 1);
        assert_eq!(d.mean_delta_pct, 0.0);
        assert!(!d.significant());
    }

    #[test]
    fn mean_aggregate() {
        assert_eq!(Aggregate::Mean.apply(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(Aggregate::Median.apply(&[1.0, 2.0, 30.0]), 2.0);
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

    /// Nine users, uneven session counts, one non-finite value and one
    /// empty user: enough structure that a changed draw order, a changed
    /// pooling order or a dropped filter moves an endpoint.
    fn nine_users() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let control: Vec<Vec<f64>> = (0..9u32)
            .map(|u| {
                (0..(u % 4))
                    .map(|s| 10.0 + f64::from(u * u) * 1.7 + f64::from(s) * 0.9)
                    .collect()
            })
            .collect();
        let mut treatment: Vec<Vec<f64>> = control
            .iter()
            .enumerate()
            .map(|(u, c)| c.iter().map(|v| v * (0.7 + 0.05 * u as f64)).collect())
            .collect();
        treatment[5][0] = f64::NAN;
        (control, treatment)
    }

    /// Every printed CI is pinned to the draw order of the one kernel: one
    /// `gen_range(0..n)` per user per replicate. The constants are what the
    /// two hand-written loops it replaced printed for this fixture.
    #[test]
    fn bootstrap_kernel_keeps_the_draw_order() {
        let (c, t) = nine_users();
        let r = compare_paired(&c, &t, Aggregate::Median, 200, 77);
        assert_eq!(
            (r.control, r.treatment, r.pct_change),
            (39.8, 23.034999999999997, -42.12311557788945)
        );
        assert_eq!(
            (r.ci_low, r.ci_high),
            (-56.123809523809534, 19.801544727077367)
        );
        let r = compare_paired(&c, &t, Aggregate::Mean, 200, 77);
        assert_eq!(
            (r.control, r.treatment, r.pct_change),
            (50.26666666666666, 49.38318181818181, -1.7575958524234376)
        );
        assert_eq!(
            (r.ci_low, r.ci_high),
            (-33.191330732082285, 6.012239919695328)
        );
        let d = paired_delta(&c, &t, 200, 177);
        assert_eq!(
            (d.mean_delta_pct, d.ci_low, d.ci_high),
            (-8.636363636363637, -21.000000000000007, 2.1428571428571463)
        );
        // The point estimate alone is the same numbers, with no seed.
        assert_eq!(
            point_change(&c, &t, Aggregate::Median),
            (39.8, 23.034999999999997, -42.12311557788945)
        );
    }
}
