//! Order statistics for rep timings.

/// Sorted copy of `xs` (timings are finite, so the total order is safe).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest sample.
pub fn minimum(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "minimum of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample.
pub fn maximum(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "maximum of no samples");
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method) gives them — the
/// same rule the driver's noise gate applies, so `--sets` and the README's
/// spreads are comparable with it. One sample has no spread: both quartiles
/// are that sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `(p75 − p25) / median`: the spread figure the driver bounds.
pub fn iqr_ratio(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// Nearest-rank percentile (`q` in 0..=1) for latency samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }
}
