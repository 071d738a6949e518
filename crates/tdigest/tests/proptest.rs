//! Property-based tests for the t-digest.

use proptest::prelude::*;
use tdigest::{wire, TDigest};

proptest! {
    /// Quantile estimates always lie inside [min, max].
    #[test]
    fn quantile_within_range(vals in prop::collection::vec(-1e6f64..1e6, 1..2000), q in 0.0f64..=1.0) {
        let d: TDigest = vals.iter().copied().collect();
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let est = d.quantile(q);
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "est={est} not in [{lo},{hi}]");
    }

    /// Count is exact regardless of compression activity.
    #[test]
    fn count_exact(vals in prop::collection::vec(-1e3f64..1e3, 0..5000)) {
        let d: TDigest = vals.iter().copied().collect();
        prop_assert_eq!(d.count(), vals.len() as u64);
    }

    /// Merging two digests yields the sum of counts and bounds within the union.
    #[test]
    fn merge_counts_and_bounds(
        a in prop::collection::vec(-1e3f64..1e3, 1..1000),
        b in prop::collection::vec(-1e3f64..1e3, 1..1000),
    ) {
        let da: TDigest = a.iter().copied().collect();
        let db: TDigest = b.iter().copied().collect();
        let mut m = TDigest::default();
        m.merge(&da);
        m.merge(&db);
        prop_assert_eq!(m.count(), (a.len() + b.len()) as u64);
        let lo = a.iter().chain(&b).cloned().fold(f64::INFINITY, f64::min);
        let hi = a.iter().chain(&b).cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(m.min(), Some(lo));
        prop_assert_eq!(m.max(), Some(hi));
    }

    /// The median of identical values is that value.
    #[test]
    fn constant_stream(v in -1e6f64..1e6, n in 1usize..3000) {
        let d: TDigest = std::iter::repeat_n(v, n).collect();
        let tol = 1e-9 * v.abs().max(1.0);
        prop_assert!((d.median() - v).abs() < tol);
    }

    /// `decode(encode(d))` succeeds and re-encodes to the same bytes on
    /// tie-heavy streams, whose merged means round an ulp past their
    /// neighbours (`decode` used to reject such digests as disordered).
    #[test]
    fn tie_heavy_streams_round_trip(
        values in prop::collection::vec(0.05f64..100.0, 2..5),
        picks in prop::collection::vec(0usize..4, 1..6000),
        merged in any::<bool>(),
    ) {
        let mut d = TDigest::default();
        for pick in picks {
            let v = values[pick % values.len()];
            if merged {
                d.merge(&std::iter::repeat_n(v, 1 + pick % 3).collect());
            } else {
                d.add(v);
            }
        }
        let mut bytes = Vec::new();
        d.encode(&mut bytes);
        let mut r = wire::Reader::new(&bytes);
        let back = TDigest::decode(&mut r);
        prop_assert!(back.is_ok(), "decode(encode(d)) failed: {:?}", back.err());
        prop_assert!(r.is_done());
        let mut again = Vec::new();
        back.unwrap().encode(&mut again);
        prop_assert_eq!(bytes, again);
    }
}
