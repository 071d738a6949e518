//! Property tests for shard-merge correctness: the sharded experiment
//! runner splits work across workers and merges per-shard summaries back
//! together, so merging must be order-invariant for the streaming
//! summaries — the t-digest a `Median` row keeps per arm, and the exact
//! `(count, sum)` a `Mean` row keeps.

use abtest::{Aggregate, StreamingStat};
use proptest::prelude::*;
use tdigest::TDigest;

/// Split `values` into shards whose sizes are driven by `cuts`.
fn shard<T: Clone>(values: &[T], cuts: &[usize]) -> Vec<Vec<T>> {
    let mut shards = Vec::new();
    let mut rest = values;
    for &c in cuts {
        if rest.is_empty() {
            break;
        }
        let take = (c % rest.len()).max(1).min(rest.len());
        let (head, tail) = rest.split_at(take);
        shards.push(head.to_vec());
        rest = tail;
    }
    if !rest.is_empty() {
        shards.push(rest.to_vec());
    }
    shards
}

/// A `Mean` row's summary of `values`.
fn mean_of(values: &[f64]) -> StreamingStat {
    let mut s = StreamingStat::new(Aggregate::Mean);
    for &v in values {
        s.add(v);
    }
    s
}

proptest! {
    /// Merged shards, in an arbitrary order, keep the pooled count
    /// exactly: a mean's to the last bit of rounding, a digest's quantile
    /// estimates within the t-digest accuracy envelope of the pooled
    /// digest.
    #[test]
    fn streaming_stat_merge_order_invariant(
        values in prop::collection::vec(0.0f64..1000.0, 1..300),
        cuts in prop::collection::vec(1usize..60, 0..6),
        rot in 0usize..16,
    ) {
        let pooled: TDigest = values.iter().copied().collect();
        let pooled_mean = mean_of(&values);
        let mut shards = shard(&values, &cuts);
        // Merge in a rotated (arbitrary) order, not shard order.
        let k = rot % shards.len().max(1);
        shards.rotate_left(k);
        let mut merged = TDigest::new(100.0);
        let mut merged_mean = StreamingStat::new(Aggregate::Mean);
        for s in &shards {
            merged.merge(&s.iter().copied().collect());
            merged_mean.merge(&mean_of(s));
        }

        prop_assert_eq!(merged.count(), pooled.count());
        prop_assert_eq!(merged_mean.count(), pooled_mean.count());
        let (m, p) = (merged_mean.value(), pooled_mean.value());
        prop_assert!((m - p).abs() < 1e-9, "means diverged: {} vs {}", m, p);
        // Digest estimates are approximate; bound the divergence by a few
        // percent of the value spread.
        let spread = (merged.max().unwrap() - merged.min().unwrap()).max(1.0);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let d = (merged.quantile(q) - pooled.quantile(q)).abs();
            prop_assert!(
                d <= 0.05 * spread,
                "q={}: merged {} vs pooled {} (spread {})",
                q, merged.quantile(q), pooled.quantile(q), spread
            );
        }
    }

    /// Quantile estimates of a digest merged from shards are monotone in
    /// `q` and stay within its exact min and max.
    #[test]
    fn streaming_stat_percentiles_monotone(
        values in prop::collection::vec(-500.0f64..500.0, 2..200),
        cuts in prop::collection::vec(1usize..30, 0..5),
    ) {
        let mut merged = TDigest::new(100.0);
        for piece in shard(&values, &cuts) {
            merged.merge(&piece.into_iter().collect());
        }
        let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            let (lo, hi) = (merged.quantile(w[0]), merged.quantile(w[1]));
            prop_assert!(lo <= hi + 1e-9, "q={} -> {} > q={} -> {}", w[0], lo, w[1], hi);
        }
        prop_assert!(merged.quantile(0.0) >= merged.min().unwrap() - 1e-9);
        prop_assert!(merged.quantile(1.0) <= merged.max().unwrap() + 1e-9);
    }
}
