//! The digest bit golden: seven stream families drive digests through
//! `add`, weighted samples (a weighted sample is the `merge` of a
//! one-centroid digest) and merges of a side digest, and after every
//! operation the digest's `encode` bytes and seven quantile bits go into
//! one FNV-1a hash per family. Any change to which centroids a pass
//! merges, or to the arithmetic of a merge, moves a hash. The same
//! generators feed `oracle`'s differential.

use crate::wire::Fnv;
use crate::{Centroid, TDigest};
use rand::prelude::*;

pub(crate) const QS: [f64; 7] = [0.0, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0];
pub(crate) const COMPRESSIONS: [f64; 4] = [10.0, 25.0, 100.0, 333.0];
const TWO_VALUED: [f64; 6] = [0.1, 30.1, 37.3, 1.0 / 3.0, 52.7, 82.7];
const OPS: usize = 4000;

/// One hash per family: two-valued, uniform, small integers, heavy tail,
/// an ascending ramp, `SESSION` and `EDGES`.
const PINNED: [u64; 7] = [
    0x3d32_7993_3856_31d4,
    0x99dc_dedb_b9de_269f,
    0x3997_233b_8037_baf2,
    0x1ea1_a104_ebdd_418d,
    0x8049_0480_4be6_4e0a,
    0x234d_34cc_c4ca_00a4,
    0xbe40_0942_fb53_38d5,
];

/// The families that are not value distributions: a session-shaped stream
/// of weighted points — a fresh digest, one point merged a chunk, at an
/// uncongested RTT or a congested one, weighted like a chunk's download
/// time — and passes built so that one pair sits a few ulps from the merge
/// threshold.
pub(crate) const SESSION: usize = 5;
pub(crate) const SESSION_CHUNKS: usize = 338;
pub(crate) const EDGES: usize = 6;

/// Everything a reader sees of `d`: its bytes and its quantiles. Each
/// public read compresses a clone of the buffer; one flushed snapshot,
/// which every read borrows as is, serves them all.
fn absorb(h: &mut Fnv, d: &TDigest) {
    let d = d.flushed();
    let mut bytes = Vec::new();
    d.encode(&mut bytes);
    h.write(&bytes);
    for q in QS {
        h.f64(d.quantile(q));
    }
}

/// A digest holding one centroid: `weight` samples at `value`.
pub(crate) fn point(value: f64, weight: f64) -> TDigest {
    let mut d = TDigest::default();
    d.centroids.push(Centroid {
        mean: value,
        weight,
    });
    (d.count, d.min, d.max) = (weight, value, value);
    d
}

fn value(family: usize, rng: &mut StdRng, pair: (f64, f64), step: usize) -> f64 {
    match family {
        0 => {
            if rng.gen::<bool>() {
                pair.0
            } else {
                pair.1
            }
        }
        1 => rng.gen::<f64>() * 200.0 - 100.0,
        2 => rng.gen_range(0..20) as f64,
        3 => 1.0 / (1.0 - rng.gen::<f64>()).powf(0.7),
        _ => step as f64 * 0.37 + 5.0,
    }
}

fn weight(mode: usize, rng: &mut StdRng) -> f64 {
    match mode {
        0 => 1.0,
        1 => 1e-3 + rng.gen::<f64>() * 10.0,
        _ => 2f64.powi(rng.gen_range(-10..=10)),
    }
}

/// One step of a value-family stream.
pub(crate) enum Op {
    /// `add` a sample to the main digest.
    Add(f64),
    /// Merge a weighted sample, `(value, weight)`, into the main digest.
    Point(f64, f64),
    /// `add` a sample to the side digest.
    SideAdd(f64),
    /// Merge a weighted sample into the side digest.
    SidePoint(f64, f64),
    /// Merge the side digest into the main one; start a fresh side digest
    /// when `true`.
    MergeSide(bool),
}

/// `ops` steps of a value family: `add` in runs long enough to fill the
/// buffer of the largest δ, weighted points, and a side digest fed now
/// and then and merged in.
pub(crate) fn stream_ops(seed: u64, family: usize, weights: usize, ops: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pair = (
        TWO_VALUED[rng.gen_range(0..TWO_VALUED.len())],
        TWO_VALUED[rng.gen_range(0..TWO_VALUED.len())],
    );
    let mut add_run = 0usize;
    (0..ops)
        .map(|step| {
            let v = value(family, &mut rng, pair, step);
            let pick = if add_run > 0 {
                0
            } else {
                rng.gen_range(0u32..100)
            };
            match pick {
                0..=39 => {
                    if add_run == 0 {
                        add_run = rng.gen_range(1usize..400);
                    }
                    add_run -= 1;
                    Op::Add(v)
                }
                40..=84 => Op::Point(v, weight(weights, &mut rng)),
                85..=94 if rng.gen::<bool>() => Op::SideAdd(v),
                85..=94 => Op::SidePoint(v, weight(weights, &mut rng)),
                _ => Op::MergeSide(rng.gen::<bool>()),
            }
        })
        .collect()
}

fn stream(h: &mut Fnv, seed: u64, family: usize, weights: usize, compression: f64) {
    let (mut d, mut side) = (TDigest::new(compression), TDigest::new(compression));
    for op in stream_ops(seed, family, weights, OPS) {
        match op {
            Op::Add(v) => d.add(v),
            Op::Point(v, w) => d.merge(&point(v, w)),
            Op::SideAdd(v) => {
                side.add(v);
                absorb(h, &side);
            }
            Op::SidePoint(v, w) => {
                side.merge(&point(v, w));
                absorb(h, &side);
            }
            Op::MergeSide(fresh) => {
                d.merge(&side);
                if fresh {
                    side = TDigest::new(compression);
                }
            }
        }
        absorb(h, &d);
    }
}

/// One `SESSION` stream: `SESSION_CHUNKS` weighted points, each at an
/// uncongested RTT or a congested one and weighted like a chunk's
/// download time.
pub(crate) fn session(rng: &mut StdRng) -> Vec<(f64, f64)> {
    let a = 1.0 + rng.gen::<f64>() * 200.0;
    let b = a + 0.5 + rng.gen::<f64>() * 400.0;
    let congested = rng.gen::<f64>();
    (0..SESSION_CHUNKS)
        .map(|_| {
            let v = if rng.gen::<f64>() < congested { b } else { a };
            (v, 1e-6 + rng.gen::<f64>() * (4.0 - 1e-6))
        })
        .collect()
}

fn sessions(h: &mut Fnv, seed: u64, compression: f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..OPS.div_ceil(SESSION_CHUNKS) {
        let mut d = TDigest::new(compression);
        for (v, w) in session(&mut rng) {
            d.merge(&point(v, w));
            absorb(h, &d);
        }
    }
}

/// The `q₂` on the merge threshold for `q₀`: `(sin(asin x₀ + θ) + 1) / 2`
/// with `x₀ = 2q₀ − 1` and `θ = 2π/δ`.
pub(crate) fn threshold(compression: f64, q0: f64) -> f64 {
    let theta = 2.0 * std::f64::consts::PI / compression;
    let x0 = 2.0 * q0 - 1.0;
    (x0 * theta.cos() + (1.0 - x0 * x0).sqrt() * theta.sin() + 1.0) / 2.0
}

pub(crate) fn ulps(v: f64, n: i64) -> f64 {
    f64::from_bits((v.to_bits() as i64 + n) as u64)
}

/// One `EDGES` pass: a digest of up to three centroids and the weight of
/// the point merged into it last, chosen so that the pair of halves lands
/// a few ulps from `k(q₂) − k(q₀) = 1`, with `x₀ = 2q₀ − 1` at −1 exactly,
/// anywhere, next to ±1 and next to `cos θ` (`θ = 2π/δ`, where the span
/// from `q₀` reaches `q = 1`). Also returns `q₀`.
pub(crate) fn edge_case(rng: &mut StdRng, compression: f64) -> (TDigest, f64, f64) {
    let cos_theta = (2.0 * std::f64::consts::PI / compression).cos();
    let q0 = match rng.gen_range(0..4) {
        0 => 0.0,
        1 => rng.gen::<f64>(),
        2 => {
            let d = 10f64.powf(-rng.gen_range(5.0f64..17.0));
            [d, 1.0 - d][rng.gen_range(0..2usize)]
        }
        _ => (cos_theta + 1.0) / 2.0 + (rng.gen::<f64>() - 0.5) * 8e-9,
    };
    // The `q₂` on the threshold (1 where the span is open-ended).
    let on = if 2.0 * q0 - 1.0 < cos_theta {
        threshold(compression, q0)
    } else {
        1.0
    };
    let on = ulps(on, rng.gen_range(-4i64..=4)).min(1.0);
    // q₀ | two halves that reach `on` together | the rest, merged last.
    let half = (on - q0) / 2.0;
    let weights: Vec<f64> = [q0, half, half, 1.0 - on]
        .into_iter()
        .filter(|&w| w > 0.0)
        .collect();
    let (&last, head) = weights.split_last().expect("q₀ < 1");
    let mut d = TDigest::new(compression);
    d.centroids = (head.iter().zip(1..))
        .map(|(&weight, i)| Centroid {
            mean: i as f64,
            weight,
        })
        .collect();
    (d.count, d.min, d.max) = (head.iter().sum(), 1.0, head.len() as f64);
    (d, last, q0)
}

/// `EDGES` passes, every other one at δ = 10⁶, where `sin θ` is 6e-6 and
/// `cos θ` eleven digits from 1.
fn edges(h: &mut Fnv, seed: u64, compression: f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..OPS / 4 {
        let (mut d, last, _) = edge_case(&mut rng, [compression, 1e6][case % 2]);
        d.merge(&point(9.0, last));
        absorb(h, &d);
    }
}

/// The family's hash over every weight mode × compression, each cell with
/// its own seed.
fn family_hash(family: usize) -> u64 {
    let mut h = Fnv::new();
    for weights in 0..3 {
        for (i, &compression) in COMPRESSIONS.iter().enumerate() {
            let seed = (family * 100 + weights * 10 + i) as u64;
            match family {
                SESSION => sessions(&mut h, seed, compression),
                EDGES => edges(&mut h, seed, compression),
                _ => stream(&mut h, seed, family, weights, compression),
            }
        }
    }
    h.finish()
}

#[test]
fn golden_digest_bits() {
    let got: Vec<u64> = (0..=EDGES).map(family_hash).collect();
    let moved: Vec<String> = (0..=EDGES)
        .filter(|&f| got[f] != PINNED[f])
        .map(|f| format!("family {f}: {:#018x}, pinned {:#018x}", got[f], PINNED[f]))
        .collect();
    assert!(moved.is_empty(), "digest bits moved:\n{}", moved.join("\n"));
}
