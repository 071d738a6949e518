//! Property tests for shard-merge correctness: the sharded experiment
//! runner splits work across workers and merges per-shard summaries back
//! together, so merging must be order-invariant for the streaming
//! summaries.

use abtest::StreamingStat;
use proptest::prelude::*;

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

proptest! {
    /// Count and mean of merged `StreamingStat` shards are exact and
    /// independent of shard boundaries and merge order; quantile estimates
    /// stay within the t-digest accuracy envelope of the pooled digest.
    #[test]
    fn streaming_stat_merge_order_invariant(
        values in prop::collection::vec(0.0f64..1000.0, 1..300),
        cuts in prop::collection::vec(1usize..60, 0..6),
        rot in 0usize..16,
    ) {
        let pooled: StreamingStat = values.iter().copied().collect();
        let mut shards: Vec<StreamingStat> = shard(&values, &cuts)
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect();
        // Merge in a rotated (arbitrary) order, not shard order.
        let k = rot % shards.len().max(1);
        shards.rotate_left(k);
        let mut merged = StreamingStat::new();
        for s in &shards {
            merged.merge(s);
        }

        prop_assert_eq!(merged.count(), pooled.count());
        prop_assert!(
            (merged.mean() - pooled.mean()).abs() < 1e-9,
            "means diverged: {} vs {}", merged.mean(), pooled.mean()
        );
        // Digest estimates are approximate; bound the divergence by a few
        // percent of the value spread.
        let spread = (merged.max().unwrap() - merged.min().unwrap()).max(1.0);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let d = (merged.percentile(q) - pooled.percentile(q)).abs();
            prop_assert!(
                d <= 0.05 * spread,
                "q={}: merged {} vs pooled {} (spread {})",
                q, merged.percentile(q), pooled.percentile(q), spread
            );
        }
    }

    /// Quantile estimates are monotone in `q`, merged or not.
    #[test]
    fn streaming_stat_percentiles_monotone(
        values in prop::collection::vec(-500.0f64..500.0, 2..200),
        cuts in prop::collection::vec(1usize..30, 0..5),
    ) {
        let mut merged = StreamingStat::new();
        for piece in shard(&values, &cuts) {
            merged.merge(&piece.into_iter().collect());
        }
        let qs = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            let (lo, hi) = (merged.percentile(w[0]), merged.percentile(w[1]));
            prop_assert!(lo <= hi + 1e-9, "q={} -> {} > q={} -> {}", w[0], lo, w[1], hi);
        }
        prop_assert!(merged.percentile(0.0) >= merged.min().unwrap() - 1e-9);
        prop_assert!(merged.percentile(1.0) <= merged.max().unwrap() + 1e-9);
    }
}
