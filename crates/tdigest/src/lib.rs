//! A merging t-digest for streaming quantile estimation.
//!
//! The t-digest (Dunning) summarizes a stream of values with a bounded set of
//! weighted centroids, sized so that centroids near the median may hold many
//! points while centroids near the tails hold few. This gives accurate tail
//! quantiles with a small, mergeable memory footprint.
//!
//! The Sammy paper stores per-packet RTT samples for each TCP connection in a
//! t-digest, merges the digests of all connections in a session, and reads the
//! session's median RTT (§5.1). [`TDigest`] supports exactly that workflow:
//!
//! ```
//! use tdigest::TDigest;
//!
//! let mut conn_a = TDigest::new(100.0);
//! let mut conn_b = TDigest::new(100.0);
//! for i in 0..1000 {
//!     conn_a.add(5.0 + (i % 10) as f64 / 10.0);
//!     conn_b.add(6.0 + (i % 7) as f64 / 10.0);
//! }
//! let mut session = TDigest::new(100.0);
//! session.merge(&conn_a);
//! session.merge(&conn_b);
//! let median = session.quantile(0.5);
//! assert!(median > 5.0 && median < 7.0);
//! ```

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

#[cfg(test)]
mod golden;
#[cfg(test)]
mod oracle;
pub mod wire;

/// A single centroid: a weighted point summarizing `weight` samples whose
/// mean is `mean`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Centroid {
    /// Mean of the samples merged into this centroid.
    pub mean: f64,
    /// Number of samples merged into this centroid.
    pub weight: f64,
}

/// A merging t-digest.
///
/// Values are buffered and periodically compressed into centroids using the
/// scale function `k(q) = δ/2π · asin(2q − 1)`, which bounds each centroid's
/// quantile span and keeps tails fine-grained.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TDigest {
    scale: Scale,
    /// In mean order, up to the rounding of a merge: a reclustering pass
    /// can leave neighbours an ulp out of order (a merged mean rounds past
    /// the next centroid's), and the next pass sorts first.
    centroids: Vec<Centroid>,
    buffer: Vec<f64>,
    count: f64,
    min: f64,
    max: f64,
}

/// The k1 scale function `k(q) = δ/2π · asin(2q − 1)` and the merge test
/// built on it: a centroid may span at most one unit of k-space.
///
/// With `θ = 2π/δ`, `x = 2q − 1` and `α = asin x₀`, the test
/// `k(q₂) − k(q₀) ≤ 1` is `asin x₂ ≤ α + θ`, which holds for every `x₂`
/// once `x₀ ≥ cos θ` and is otherwise `x₂ ≤ sin(α + θ)`, i.e. `L ≤ R` with
/// `L = x₂ − x₀·cos θ` and `R = √(1 − x₀²)·sin θ ≥ 0` — decided on `L²`
/// against `R²`, with no `asin`, root or division (DESIGN.md §11).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Scale {
    compression: f64,
    cos_theta: f64,
    sin_theta: f64,
}

/// `m`: the squared test decides only when it puts `x₂` this far from the
/// real threshold. The float `k(q₂) − k(q₀)` is within a few ulps of `δ/4`
/// (~1e-16·δ) of its real value and `dk/dx₂ ≥ δ/2π`, so 1e-9 from the
/// threshold it differs from 1 by ≥ 1.6e-10·δ and cannot round across; the
/// other 1e-9 is room for the ~1e-15 by which the reciprocal-multiply
/// `x₀`, `x₂` differ from the original's and `L²`, `R²` round.
const MARGIN: f64 = 2e-9;
/// How far out of order, relative to their magnitude, [`TDigest::decode`]
/// lets neighbouring means be: far above the rounding of a pass of merges
/// (~1e-15), far below any real disorder.
const DECODE_ORDER_SLACK: f64 = 1e-9;

impl Scale {
    fn new(compression: f64) -> Self {
        let theta = 2.0 * std::f64::consts::PI / compression;
        Scale {
            compression,
            cos_theta: theta.cos(),
            sin_theta: theta.sin(),
        }
    }

    /// `2m·sin θ + m²`: `L² ≥ R² + slack` puts `x₂` at least [`MARGIN`]
    /// above the threshold, `L² ≤ R² − slack` at least as far below.
    fn slack(&self) -> f64 {
        2.0 * MARGIN * self.sin_theta + MARGIN * MARGIN
    }

    fn k(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        self.compression / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).asin()
    }

    /// `k(q₂) − k(q₀) <= 1` for `q₀ = so_far / total` and `q₂ = (so_far +
    /// proposed) / total` where the squared test is sure of the outcome of
    /// that float expression, `None` where it is not. `inv` is `1 / total`.
    #[inline(always)]
    fn squared_test(&self, so_far: f64, proposed: f64, inv: f64) -> Option<bool> {
        let x0 = 2.0 * (so_far * inv) - 1.0;
        let x2 = 2.0 * ((so_far + proposed) * inv) - 1.0;
        // `q₂` is clamped; a NaN stays one and fails every test below.
        let x2 = if x2 > 1.0 { 1.0 } else { x2 };
        if x0 >= self.cos_theta + MARGIN {
            // The span reaches `q = 1` inside one k-unit — unless `x₀` is
            // past 1: a `total` too small to invert, not a span.
            return (x0 <= 1.0).then_some(true);
        }
        let l = x2 - x0 * self.cos_theta;
        let (l2, r2) = (l * l, (1.0 - x0 * x0) * (self.sin_theta * self.sin_theta));
        if l > 0.0 && l2 >= r2 + self.slack() {
            return Some(false);
        }
        if l <= -MARGIN || (l >= 0.0 && l2 <= r2 - self.slack()) {
            return Some(true);
        }
        None
    }

    /// `k(q₂) − k(q₀) <= 1`, with exactly the outcome of evaluating that
    /// float expression.
    #[inline]
    fn within_one_k_unit(&self, so_far: f64, proposed: f64, total: f64, inv: f64) -> bool {
        self.squared_test(so_far, proposed, inv)
            .unwrap_or_else(|| self.verbatim(so_far / total, (so_far + proposed) / total))
    }

    /// Too close to call in the reals (or a NaN or out-of-range `x`):
    /// evaluate the definition itself.
    #[cold]
    fn verbatim(&self, q0: f64, q2: f64) -> bool {
        #[cfg(test)]
        tests::VERBATIM_DECISIONS.with(|n| n.set(n.get() + 1));
        self.k(q2) - self.k(q0) <= 1.0
    }
}

impl Default for TDigest {
    fn default() -> Self {
        Self::new(100.0)
    }
}

impl TDigest {
    /// Create a digest with the given compression parameter δ.
    ///
    /// Larger δ means more centroids and better accuracy; 100 is a good
    /// default (≈1% worst-case quantile error, sub-0.1% at the tails).
    ///
    /// # Panics
    /// Panics if `compression < 10`, which would make the digest useless.
    pub fn new(compression: f64) -> Self {
        assert!(compression >= 10.0, "compression must be >= 10");
        TDigest {
            scale: Scale::new(compression),
            centroids: Vec::new(),
            buffer: Vec::new(),
            count: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Total number of samples added (including buffered ones).
    pub fn count(&self) -> u64 {
        (self.count + self.buffer.len() as f64) as u64
    }

    /// True if no samples have been added.
    ///
    /// Tests the weight itself, not [`TDigest::count`]: a digest holding a
    /// single sample of weight 0.3 counts 0 but is not empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0.0 && self.buffer.is_empty()
    }

    /// Smallest sample seen, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample seen, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.max)
        }
    }

    /// Add one sample.
    ///
    /// Non-finite samples are ignored: RTT/throughput telemetry can produce
    /// NaN under pathological clock conditions and must not poison the digest.
    pub fn add(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buffer.push(value);
        // Compress when the buffer reaches a multiple of the centroid budget.
        if self.buffer.len() >= (8.0 * self.scale.compression) as usize {
            self.compress();
        }
    }

    /// Merge another digest into this one.
    ///
    /// Merging is how the paper combines per-connection RTT digests into a
    /// per-session digest. The result summarizes the union of both streams.
    pub fn merge(&mut self, other: &TDigest) {
        let other = other.flushed();
        if other.count == 0.0 {
            return;
        }
        self.flush_buffer();
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.centroids.extend_from_slice(&other.centroids);
        self.count += other.count;
        self.recluster();
    }

    /// Estimate the value at quantile `q` in `[0, 1]`.
    ///
    /// Returns NaN for an empty digest or a NaN `q`. `q` outside `[0,1]` is
    /// clamped.
    pub fn quantile(&self, q: f64) -> f64 {
        if q.is_nan() {
            return f64::NAN;
        }
        self.flushed().quantile_inner(q.clamp(0.0, 1.0))
    }

    /// Estimate the median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Serialize into `out` via the [`wire`] codec.
    ///
    /// Any buffered samples are compressed into centroids first (on a
    /// clone; `self` is untouched), so the encoding is canonical: a digest
    /// and its decoded copy produce bit-identical quantiles and merge
    /// histories. All floats are written as raw bits — round trips are
    /// exact.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let snapshot = self.flushed();
        wire::put_f64(out, snapshot.scale.compression);
        wire::put_f64(out, snapshot.count);
        wire::put_f64(out, snapshot.min);
        wire::put_f64(out, snapshot.max);
        wire::put_u64(out, snapshot.centroids.len() as u64);
        for c in &snapshot.centroids {
            wire::put_f64(out, c.mean);
            wire::put_f64(out, c.weight);
        }
    }

    /// Decode a digest previously written by [`TDigest::encode`].
    ///
    /// Validates what `encode` can emit and nothing stricter (finite sane
    /// compression, non-negative count, finite centroid means ascending up
    /// to the rounding of a merge, positive finite weights, a finite
    /// `min <= max` — or `+∞`, `−∞` when empty) so a corrupt
    /// checkpoint surfaces as an error, never as a digest that later panics
    /// or reports garbage quantiles.
    pub fn decode(r: &mut wire::Reader<'_>) -> Result<TDigest, wire::WireError> {
        let bad = |context| wire::WireError { context };
        let compression = r.f64("tdigest.compression")?;
        if !compression.is_finite() || compression < 10.0 {
            return Err(bad("tdigest.compression"));
        }
        let count = r.f64("tdigest.count")?;
        if !count.is_finite() || count < 0.0 {
            return Err(bad("tdigest.count"));
        }
        let min = r.f64("tdigest.min")?;
        let max = r.f64("tdigest.max")?;
        let n = r.len("tdigest.centroids")?;
        let mut centroids = Vec::with_capacity(n.min(1 << 20));
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..n {
            let mean = r.f64("tdigest.centroid.mean")?;
            let weight = r.f64("tdigest.centroid.weight")?;
            // A merged mean is a few ulps off its real value, so `encode`
            // can write neighbours that far out of order; anything beyond
            // is not something it wrote.
            let disorder = prev - mean > DECODE_ORDER_SLACK * prev.abs().max(mean.abs());
            if !mean.is_finite() || !weight.is_finite() || weight <= 0.0 || disorder {
                return Err(bad("tdigest.centroid"));
            }
            prev = mean;
            centroids.push(Centroid { mean, weight });
        }
        if (count == 0.0) != centroids.is_empty() {
            return Err(bad("tdigest.count"));
        }
        // `quantile` interpolates out to `min` and `max`; an empty digest
        // holds the identities its first sample folds into.
        let (min_ok, max_ok) = if centroids.is_empty() {
            (min == f64::INFINITY, max == f64::NEG_INFINITY)
        } else {
            (min.is_finite(), max.is_finite() && min <= max)
        };
        if !min_ok {
            return Err(bad("tdigest.min"));
        }
        if !max_ok {
            return Err(bad("tdigest.max"));
        }
        Ok(TDigest {
            scale: Scale::new(compression),
            centroids,
            buffer: Vec::new(),
            count,
            min,
            max,
        })
    }

    /// `self` with nothing buffered: borrowed as is when the buffer is
    /// empty, otherwise a compressed clone.
    fn flushed(&self) -> Cow<'_, TDigest> {
        if self.buffer.is_empty() {
            Cow::Borrowed(self)
        } else {
            let mut snapshot = self.clone();
            snapshot.compress();
            Cow::Owned(snapshot)
        }
    }

    fn flush_buffer(&mut self) {
        if !self.buffer.is_empty() {
            self.compress();
        }
    }

    fn compress(&mut self) {
        self.count += self.buffer.len() as f64;
        self.centroids
            .extend(self.buffer.drain(..).map(|v| Centroid {
                mean: v,
                weight: 1.0,
            }));
        self.recluster();
    }

    /// Re-cluster `self.centroids`, in place, so each centroid's quantile
    /// span respects the scale-function bound: walk the centroids in mean
    /// order and merge each into its predecessor while the pair stays
    /// within one unit of k-space.
    fn recluster(&mut self) {
        // Stable, so equal means keep their insertion order and the merge
        // arithmetic below sees them in one defined sequence.
        self.centroids
            .sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("finite means"));
        let n = self.centroids.len();
        let (scale, total) = (self.scale, self.count);
        // Decisions multiply by this; `so_far`, means and weights never do.
        let inv = 1.0 / total;
        // Cumulative weight *before* `current`.
        let mut so_far = 0.0;
        // Until a pair merges the output is the input: skip, writing
        // nothing, the pairs the squared test alone keeps apart.
        let mut read = 1;
        while read < n {
            let weight = self.centroids[read - 1].weight;
            let proposed = weight + self.centroids[read].weight;
            if proposed <= total && scale.squared_test(so_far, proposed, inv) != Some(false) {
                break;
            }
            so_far += weight;
            read += 1;
        }
        if read >= n {
            return;
        }
        // `centroids[..kept]` is the output; it never overtakes the reader.
        let mut kept = read - 1;
        let mut current = self.centroids[kept];
        for read in read..n {
            let c = self.centroids[read];
            let proposed = current.weight + c.weight;
            // The weight cap cannot bind while `count` is the sum of the
            // weights; it is part of the pinned decision all the same.
            if proposed <= total && scale.within_one_k_unit(so_far, proposed, total, inv) {
                current.mean = (current.mean * current.weight + c.mean * c.weight) / proposed;
                current.weight = proposed;
            } else {
                so_far += current.weight;
                self.centroids[kept] = current;
                kept += 1;
                current = c;
            }
        }
        self.centroids[kept] = current;
        self.centroids.truncate(kept + 1);
    }

    fn quantile_inner(&self, q: f64) -> f64 {
        if self.count == 0.0 {
            return f64::NAN;
        }
        if self.centroids.len() == 1 {
            return self.centroids[0].mean;
        }
        let target = q * self.count;
        // Walk centroids, interpolating between adjacent centroid midpoints.
        let mut cum = 0.0;
        for (i, c) in self.centroids.iter().enumerate() {
            let mid = cum + c.weight / 2.0;
            if target <= mid {
                return if i == 0 {
                    // Interpolate between the minimum and the first centroid.
                    let frac = (target / mid).clamp(0.0, 1.0);
                    self.min + frac * (c.mean - self.min)
                } else {
                    let prev = &self.centroids[i - 1];
                    let prev_mid = cum - prev.weight / 2.0;
                    let span = mid - prev_mid;
                    let frac = if span > 0.0 {
                        (target - prev_mid) / span
                    } else {
                        0.5
                    };
                    prev.mean + frac * (c.mean - prev.mean)
                };
            }
            cum += c.weight;
        }
        // Interpolate between the last centroid and the maximum.
        let last = self.centroids.last().expect("non-empty");
        let last_mid = self.count - last.weight / 2.0;
        let span = self.count - last_mid;
        let frac = if span > 0.0 {
            ((target - last_mid) / span).clamp(0.0, 1.0)
        } else {
            1.0
        };
        last.mean + frac * (self.max - last.mean)
    }
}

/// Extend a digest from an iterator of samples.
impl Extend<f64> for TDigest {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.add(v);
        }
    }
}

impl FromIterator<f64> for TDigest {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut d = TDigest::default();
        d.extend(iter);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::golden::{point, threshold, ulps};
    use super::oracle::{check_same, merge_point, Oracle};
    use super::*;
    use rand::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Merge decisions this thread took by evaluating `k(q₂) − k(q₀)`
        /// itself instead of the squared test.
        pub(super) static VERBATIM_DECISIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn verbatim_decisions() -> u64 {
        VERBATIM_DECISIONS.with(Cell::get)
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let idx = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    #[test]
    fn empty_digest_behaviour() {
        let d = TDigest::default();
        assert!(d.is_empty());
        assert_eq!(d.count(), 0);
        assert!(d.quantile(0.5).is_nan());
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    fn single_value() {
        let mut d = TDigest::default();
        d.add(42.0);
        assert_eq!(d.count(), 1);
        assert_eq!(d.quantile(0.0), 42.0);
        assert_eq!(d.quantile(0.5), 42.0);
        assert_eq!(d.quantile(1.0), 42.0);
        assert_eq!(d.min(), Some(42.0));
        assert_eq!(d.max(), Some(42.0));
    }

    #[test]
    fn ignores_non_finite() {
        let mut d = TDigest::default();
        d.add(f64::NAN);
        d.add(f64::INFINITY);
        d.add(f64::NEG_INFINITY);
        assert!(d.is_empty());
        d.add(1.0);
        assert_eq!(d.count(), 1);
        assert_eq!(d.median(), 1.0);
        // NaN q reports NaN instead of an arbitrary centroid.
        assert!(d.quantile(f64::NAN).is_nan());
    }

    #[test]
    fn uniform_quantiles_accurate() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut vals: Vec<f64> = (0..50_000).map(|_| rng.gen::<f64>() * 100.0).collect();
        let d: TDigest = vals.iter().copied().collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = d.quantile(q);
            let exact = exact_quantile(&vals, q);
            assert!((est - exact).abs() < 1.5, "q={q}: est={est} exact={exact}");
        }
    }

    #[test]
    fn heavy_tail_quantiles_accurate() {
        // Pareto-ish tail: tail quantiles must stay accurate. The digest's
        // guarantee is in quantile space; on an unbounded heavy tail the
        // value-space error grows toward q=1, so the far tail gets a wider
        // tolerance than the body.
        let mut rng = StdRng::seed_from_u64(7);
        let mut vals: Vec<f64> = (0..50_000)
            .map(|_| 1.0 / (1.0 - rng.gen::<f64>()).powf(0.7))
            .collect();
        let d: TDigest = vals.iter().copied().collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &(q, tol) in &[(0.5, 0.05), (0.9, 0.05), (0.99, 0.12)] {
            let est = d.quantile(q);
            let exact = exact_quantile(&vals, q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < tol, "q={q}: est={est} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut rng = StdRng::seed_from_u64(21);
        let a_vals: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>() * 10.0).collect();
        let b_vals: Vec<f64> = (0..10_000).map(|_| 5.0 + rng.gen::<f64>() * 10.0).collect();
        let a: TDigest = a_vals.iter().copied().collect();
        let b: TDigest = b_vals.iter().copied().collect();
        let mut merged = TDigest::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), 20_000);

        let mut union: Vec<f64> = a_vals.into_iter().chain(b_vals).collect();
        union.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for &q in &[0.1, 0.5, 0.9] {
            let est = merged.quantile(q);
            let exact = exact_quantile(&union, q);
            assert!((est - exact).abs() < 0.5, "q={q}: est={est} exact={exact}");
        }
    }

    #[test]
    fn merge_empty_is_noop() {
        let mut d: TDigest = (0..100).map(|i| i as f64).collect();
        let before = d.median();
        d.merge(&TDigest::default());
        assert_eq!(d.median(), before);
        assert_eq!(d.count(), 100);
    }

    #[test]
    fn centroid_count_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let d: TDigest = (0..200_000).map(|_| rng.gen::<f64>()).collect();
        let n = d.flushed().centroids.len();
        // k1 scale function bounds centroids to ~2δ.
        assert!(n <= 2 * 100 + 10, "too many centroids: {n}");
    }

    #[test]
    fn quantile_monotone_in_q() {
        let mut rng = StdRng::seed_from_u64(5);
        let d: TDigest = (0..20_000).map(|_| rng.gen::<f64>() * 1000.0).collect();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = d.quantile(q);
            assert!(v >= prev - 1e-9, "quantile not monotone at q={q}");
            prev = v;
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exact() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut d = TDigest::new(100.0);
        for _ in 0..25_000 {
            d.add(rng.gen::<f64>() * 1e4 - 5e3);
        }
        let mut bytes = Vec::new();
        d.encode(&mut bytes);
        let mut r = wire::Reader::new(&bytes);
        let back = TDigest::decode(&mut r).unwrap();
        assert!(r.is_done());
        assert_eq!(back.count(), d.count());
        assert_eq!(back.min(), d.min());
        assert_eq!(back.max(), d.max());
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            assert_eq!(
                back.quantile(q).to_bits(),
                d.quantile(q).to_bits(),
                "q={q} diverged after round trip"
            );
        }
        // Merge histories stay bit-identical too: merging the same digest
        // into the original and into the decoded copy gives equal states.
        let extra: TDigest = (0..500).map(|i| i as f64).collect();
        let mut a = d.clone();
        let mut b = back;
        a.merge(&extra);
        b.merge(&extra);
        assert_eq!(a.median().to_bits(), b.median().to_bits());
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode(&mut ea);
        b.encode(&mut eb);
        assert_eq!(ea, eb);
    }

    #[test]
    fn decode_rejects_corrupt_bytes() {
        let d: TDigest = (0..1000).map(|i| i as f64).collect();
        let mut bytes = Vec::new();
        d.encode(&mut bytes);
        // Truncations at every boundary fail cleanly.
        for cut in [0, 7, 8, 31, bytes.len() - 1] {
            assert!(TDigest::decode(&mut wire::Reader::new(&bytes[..cut])).is_err());
        }
        // A NaN compression is rejected.
        let patched = |at: usize, v: f64| {
            let mut poisoned = bytes.clone();
            poisoned[at..at + 8].copy_from_slice(&v.to_bits().to_le_bytes());
            TDigest::decode(&mut wire::Reader::new(&poisoned)).err()
        };
        assert!(patched(0, f64::NAN).is_some());
        // A min or max `encode` never writes would surface as `quantile(0)`
        // or `quantile(1)`: a NaN, or a min past the max (999).
        let context = |e: Option<wire::WireError>| e.map(|e| e.context);
        assert_eq!(context(patched(16, f64::NAN)), Some("tdigest.min"));
        assert_eq!(context(patched(16, 5000.0)), Some("tdigest.max"));
        assert_eq!(context(patched(24, f64::INFINITY)), Some("tdigest.max"));
        // Empty digests round-trip.
        let mut empty = Vec::new();
        TDigest::default().encode(&mut empty);
        let back = TDigest::decode(&mut wire::Reader::new(&empty)).unwrap();
        assert!(back.is_empty());
        // An empty digest's min and max are the identities of the next
        // sample's `min`/`max`; anything else would outlive that sample.
        let mut poisoned = empty.clone();
        poisoned[16..24].copy_from_slice(&0.0f64.to_bits().to_le_bytes());
        assert!(TDigest::decode(&mut wire::Reader::new(&poisoned)).is_err());
    }

    #[test]
    fn min_max_are_exact() {
        let mut rng = StdRng::seed_from_u64(11);
        let vals: Vec<f64> = (0..10_000)
            .map(|_| rng.gen::<f64>() * 500.0 - 250.0)
            .collect();
        let d: TDigest = vals.iter().copied().collect();
        let exact_min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let exact_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(d.min(), Some(exact_min));
        assert_eq!(d.max(), Some(exact_max));
        assert_eq!(d.quantile(0.0), exact_min);
        assert_eq!(d.quantile(1.0), exact_max);
    }

    /// Regression: `count()` truncates to `u64`, so a digest
    /// whose whole weight is below one used to read as empty — no `min`,
    /// no `max` — while `quantile` answered.
    #[test]
    fn sub_unit_weight_is_not_empty() {
        let mut d = TDigest::default();
        d.merge(&point(41.5, 0.3));
        assert_eq!(d.count(), 0);
        assert!(!d.is_empty());
        assert_eq!(d.min(), Some(41.5));
        assert_eq!(d.max(), Some(41.5));
        assert_eq!(d.median(), 41.5);
    }

    fn round_trip(d: &TDigest) -> Result<TDigest, wire::WireError> {
        let mut bytes = Vec::new();
        d.encode(&mut bytes);
        let back = TDigest::decode(&mut wire::Reader::new(&bytes))?;
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(bytes, again, "re-encoding changed the bytes");
        Ok(back)
    }

    /// Whether some neighbouring centroids are out of mean order.
    fn out_of_order(d: &TDigest) -> bool {
        d.centroids.windows(2).any(|p| p[0].mean > p[1].mean)
    }

    /// Regression: merged means round an ulp past their
    /// neighbour on two-valued streams, and `decode` used to refuse the
    /// bytes `encode` had just written for such a digest.
    #[test]
    fn decode_accepts_what_encode_wrote() {
        let mut unsorted_seen = 0;
        for other in [30.1, 37.3, 1.0 / 3.0, 52.7] {
            let mut d = TDigest::default();
            for i in 0..5000 {
                d.add(if i % 2 == 0 { 0.1 } else { other });
            }
            let back = round_trip(&d).expect("decode(encode(d))");
            unsorted_seen += usize::from(out_of_order(&back));
            assert_eq!(back.median().to_bits(), d.median().to_bits());
        }
        let mut d = TDigest::default();
        for i in 0..5000 {
            d.merge(&point(if i % 2 == 0 { 52.7 } else { 82.7 }, 1.0));
            unsorted_seen += usize::from(out_of_order(&d));
            round_trip(&d).expect("decode(encode(d))");
        }
        assert!(unsorted_seen > 0, "the streams no longer reproduce the bug");
    }

    #[test]
    fn decode_still_rejects_real_disorder() {
        let encode = |centroids: &[(f64, f64)], count: f64| {
            let mut out = Vec::new();
            wire::put_f64(&mut out, 100.0);
            wire::put_f64(&mut out, count);
            wire::put_f64(&mut out, 1.0);
            wire::put_f64(&mut out, 9.0);
            wire::put_u64(&mut out, centroids.len() as u64);
            for &(mean, weight) in centroids {
                wire::put_f64(&mut out, mean);
                wire::put_f64(&mut out, weight);
            }
            out
        };
        let decode = |bytes: &[u8]| TDigest::decode(&mut wire::Reader::new(bytes));
        assert!(decode(&encode(&[(1.0, 2.0), (5.0, 1.0), (9.0, 2.0)], 5.0)).is_ok());
        // An ulp of disorder is a merge's rounding; more is corruption.
        let ulp_down = f64::from_bits(5.0f64.to_bits() - 1);
        let ulp_off = decode(&encode(&[(5.0, 2.0), (ulp_down, 1.0), (9.0, 2.0)], 5.0)).unwrap();
        assert!(out_of_order(&ulp_off));
        assert!(decode(&encode(&[(5.0, 2.0), (4.999, 1.0), (9.0, 2.0)], 5.0)).is_err());
        assert!(decode(&encode(&[(5.0, 2.0), (-5.0, 1.0), (9.0, 2.0)], 5.0)).is_err());
    }

    /// The pass's own output can be an ulp out of order; the next pass
    /// must then sort it as the old pass's stable sort did.
    #[test]
    fn unsorted_array_is_sorted_and_matches() {
        let (mut new, mut old) = (TDigest::default(), Oracle::new(100.0));
        let mut entered_unsorted = 0;
        for i in 0..5000 {
            let v = if i % 2 == 0 { 52.7 } else { 82.7 };
            entered_unsorted += usize::from(out_of_order(&new));
            merge_point(&mut new, &mut old, v, 1.0);
            check_same(&new, &old, true).unwrap();
        }
        assert!(
            entered_unsorted > 0,
            "the stream never left the array unsorted"
        );
        // The flush and merge paths meet the same arrays.
        let (mut sink_new, mut sink_old) = (TDigest::default(), Oracle::new(100.0));
        for i in 0..5000 {
            let v = if i % 2 == 0 { 0.1 } else { 30.1 };
            new.add(v);
            old.add(v);
            if i % 500 == 0 {
                sink_new.merge(&new);
                sink_old.merge(&old);
                check_same(&sink_new, &sink_old, true).unwrap();
            }
        }
        check_same(&new, &old, true).unwrap();
    }

    /// One decision at `total = 1` (so `x₀`, `x₂` are the original's own),
    /// checked against the definition: its outcome, and how many times it
    /// evaluated the original expression.
    fn decide(scale: &Scale, q0: f64, q2: f64) -> (bool, u64) {
        let before = verbatim_decisions();
        let decided = scale.within_one_k_unit(q0, q2 - q0, 1.0, 1.0);
        assert_eq!(
            decided,
            scale.k(q0 + (q2 - q0)) - scale.k(q0) <= 1.0,
            "δ {} q0 {q0} q2 {q2}",
            scale.compression
        );
        (decided, verbatim_decisions() - before)
    }

    /// The squared form has no root to lose accuracy as `|x₀| → 1`, so both
    /// ends are decided without the original expression: `q₀ = 0` — the
    /// first centroid of every pass — both ways, `q₀` next to 0 likewise,
    /// `q₀` next to 1 as open-ended.
    #[test]
    fn the_ends_are_decided_without_the_original_expression() {
        for compression in [10.0, 25.0, 100.0, 333.0] {
            let scale = Scale::new(compression);
            for q0 in [0.0, 1e-16, 1e-8, 4e-7] {
                let on = threshold(compression, q0);
                assert_eq!(decide(&scale, q0, q0 + (on - q0) * 0.5), (true, 0));
                assert_eq!(decide(&scale, q0, on - 1e-4), (true, 0));
                assert_eq!(decide(&scale, q0, on + 1e-4), (false, 0));
                assert_eq!(decide(&scale, q0, 1.0), (false, 0));
            }
            for q0 in [1.0 - 4e-7, 1.0 - 1e-8, 1.0] {
                assert_eq!(decide(&scale, q0, 1.0), (true, 0));
            }
        }
    }

    /// `x₀` within `m` of `cos θ` cannot be called open-ended or not, and
    /// the last pair of a pass (`q₂ = 1`, or past it by the rounding of the
    /// sums: clamped, as the original clamps it) sits on its threshold: the
    /// original expression decides.
    #[test]
    fn next_to_cos_theta_the_original_expression_decides() {
        for compression in [10.0, 25.0, 100.0, 333.0, 1e6] {
            let scale = Scale::new(compression);
            let at_cos = (scale.cos_theta + 1.0) / 2.0;
            for q0 in [at_cos - 0.4 * MARGIN, at_cos, at_cos + 0.4 * MARGIN] {
                for q2 in [1.0, 1.0 + 1e-6] {
                    assert_eq!(decide(&scale, q0, q2).1, 1, "δ {compression} q0 {q0}");
                }
            }
            if compression < 1e6 {
                assert_eq!(decide(&scale, at_cos + MARGIN, 1.0), (true, 0));
            }
        }
    }

    /// A `total` too small to invert (`1/total = ∞`) leaves the squared
    /// test nothing finite to compare: the original expression decides.
    #[test]
    fn subnormal_total_takes_the_original_expression() {
        let (mut new, mut old) = (TDigest::default(), Oracle::new(100.0));
        let before = verbatim_decisions();
        for i in 0..200 {
            let (v, w) = ((i * 37 % 101) as f64, 1e-320 * (1 + i % 3) as f64);
            merge_point(&mut new, &mut old, v, w);
            check_same(&new, &old, true).unwrap();
        }
        assert!(new.centroids.len() > 20);
        assert!(verbatim_decisions() - before > 200 * 10);
    }

    /// `x₂` on the threshold and an ulp either side is decided by the
    /// original expression, one margin further out by the squared test,
    /// and a pass through such a pair matches the oracle.
    #[test]
    fn inside_the_margin_the_original_expression_decides() {
        for compression in [10.0, 25.0, 100.0, 333.0] {
            let scale = Scale::new(compression);
            for q0 in [0.0, 1e-4, 0.05, 0.3, 0.5, 0.8, 0.97] {
                let on = threshold(compression, q0);
                if 2.0 * q0 - 1.0 >= scale.cos_theta {
                    // Open-ended, and far from `cos θ` itself.
                    assert_eq!(decide(&scale, q0, 1.0), (true, 0));
                    continue;
                }
                for q2 in [ulps(on, -1), on, ulps(on, 1)] {
                    assert_eq!(decide(&scale, q0, q2).1, 1, "δ {compression} q0 {q0}");
                }
                // Just past `L² = R² ± slack` the squared test is sure
                // (the band's width in `x₂`, taken in `q₂`: twice over).
                let r2 = (1.0 - (2.0 * q0 - 1.0).powi(2)) * scale.sin_theta.powi(2);
                let reach = (r2 + scale.slack()).sqrt() - r2.sqrt();
                assert_eq!(decide(&scale, q0, on - reach), (true, 0));
                assert_eq!(decide(&scale, q0, on + reach), (false, 0));
            }

            // Through a whole pass: 1+2 is refused by the squared test
            // (`q₀ = 0`), then 2+3 lands on the threshold for `q₀ = 0.3` —
            // where the read-only scan stops, having evaluated nothing, so
            // the original expression runs once; 2+3+4 is far off.
            let on = threshold(compression, 0.3);
            let weights = [0.3, (on - 0.3) / 2.0, (on - 0.3) / 2.0, 1.0 - on];
            let mut new = TDigest::new(compression);
            new.centroids = (weights.iter().zip(1..))
                .map(|(&weight, i)| Centroid {
                    mean: i as f64,
                    weight,
                })
                .collect();
            (new.count, new.min, new.max) = (1.0, 1.0, 4.0);
            let mut old = Oracle(new.clone());
            let before = verbatim_decisions();
            new.recluster();
            old.compress_centroids();
            assert_eq!(verbatim_decisions(), before + 1);
            check_same(&new, &old, true).unwrap();
        }
    }

    /// The point of the kernel: in steady state (a compressed digest taking
    /// one weighted point at a time) the fallback is the rare case.
    #[test]
    fn steady_state_rarely_needs_the_original_expression() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = TDigest::default();
        let before = verbatim_decisions();
        for _ in 0..4000 {
            d.merge(&point(
                20.0 + rng.gen::<f64>() * 60.0,
                0.5 + rng.gen::<f64>() * 4.0,
            ));
        }
        let verbatim = verbatim_decisions() - before;
        assert!(d.centroids.len() > 40);
        // ~65 decisions a pass; 33 in all fall back (4006 while the first
        // centroid, `q₀ = 0`, still did on every pass).
        assert!(
            verbatim < 4000 / 100,
            "{verbatim} fallback decisions in 4000 passes"
        );
    }
}
