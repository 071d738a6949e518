//! The reclustering pass this crate shipped before the in-place kernel
//! ([`TDigest::recluster`]), kept as the reference the kernel is tested
//! against: it sorts on every call, allocates its output and decides every
//! merge with two `asin`. The kernel must reproduce its centroids bit for
//! bit through every ingestion path.

use crate::golden::{
    edge_case, point, session, stream_ops, Op, COMPRESSIONS, EDGES, QS, SESSION, SESSION_CHUNKS,
};
use crate::{Centroid, TDigest};
use proptest::prelude::*;
use rand::prelude::*;

/// A digest driven through the old ingestion paths.
#[derive(Clone)]
pub(crate) struct Oracle(pub(crate) TDigest);

impl Oracle {
    pub(crate) fn new(compression: f64) -> Self {
        Oracle(TDigest::new(compression))
    }

    pub(crate) fn add(&mut self, value: f64) {
        let d = &mut self.0;
        if !value.is_finite() {
            return;
        }
        d.min = d.min.min(value);
        d.max = d.max.max(value);
        d.buffer.push(value);
        if d.buffer.len() >= (8.0 * d.scale.compression) as usize {
            self.compress();
        }
    }

    pub(crate) fn merge(&mut self, other: &Oracle) {
        let mut other = other.clone();
        other.flush_buffer();
        if other.0.count == 0.0 {
            return;
        }
        self.flush_buffer();
        let d = &mut self.0;
        d.min = d.min.min(other.0.min);
        d.max = d.max.max(other.0.max);
        d.centroids.extend_from_slice(&other.0.centroids);
        d.count += other.0.count;
        self.compress_centroids();
    }

    /// What the old read paths computed on: a flushed clone.
    pub(crate) fn flushed(&self) -> TDigest {
        let mut snapshot = self.clone();
        snapshot.flush_buffer();
        snapshot.0
    }

    fn flush_buffer(&mut self) {
        if !self.0.buffer.is_empty() {
            self.compress();
        }
    }

    fn compress(&mut self) {
        let d = &mut self.0;
        let buffered = std::mem::take(&mut d.buffer);
        d.count += buffered.len() as f64;
        d.centroids.extend(buffered.into_iter().map(|v| Centroid {
            mean: v,
            weight: 1.0,
        }));
        self.compress_centroids();
    }

    pub(crate) fn compress_centroids(&mut self) {
        let d = &mut self.0;
        if d.centroids.len() <= 1 {
            return;
        }
        d.centroids
            .sort_by(|a, b| a.mean.partial_cmp(&b.mean).expect("finite means"));
        let total = d.count;
        let mut merged: Vec<Centroid> = Vec::with_capacity(d.centroids.len());
        let mut current = d.centroids[0];
        let mut so_far = 0.0;
        for &c in &d.centroids[1..] {
            let proposed = current.weight + c.weight;
            let q0 = so_far / total;
            let q2 = (so_far + proposed) / total;
            if proposed <= k_size_limit(d.scale.compression, q0, q2, total) {
                let w = proposed;
                current.mean = (current.mean * current.weight + c.mean * c.weight) / w;
                current.weight = w;
            } else {
                so_far += current.weight;
                merged.push(current);
                current = c;
            }
        }
        merged.push(current);
        d.centroids = merged;
    }
}

fn k_size_limit(compression: f64, q0: f64, q2: f64, total: f64) -> f64 {
    if k(compression, q2) - k(compression, q0) <= 1.0 {
        total
    } else {
        0.0
    }
}

fn k(compression: f64, q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    compression / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).asin()
}

/// Feed both digests `weight` samples at `value`: a weighted sample is the
/// merge of a one-centroid digest.
pub(crate) fn merge_point(new: &mut TDigest, old: &mut Oracle, value: f64, weight: f64) {
    let p = point(value, weight);
    new.merge(&p);
    old.merge(&Oracle(p));
}

/// Everything a digest holds, as bits.
fn state_bits(d: &TDigest) -> (Vec<(u64, u64)>, Vec<u64>, [u64; 3]) {
    (
        d.centroids
            .iter()
            .map(|c| (c.mean.to_bits(), c.weight.to_bits()))
            .collect(),
        d.buffer.iter().map(|v| v.to_bits()).collect(),
        [d.count.to_bits(), d.min.to_bits(), d.max.to_bits()],
    )
}

/// The kernel digest and the oracle hold the same state, and every public
/// read of the kernel digest equals the old clone-and-flush read.
pub(crate) fn check_same(new: &TDigest, old: &Oracle, reads: bool) -> Result<(), String> {
    if state_bits(new) != state_bits(&old.0) {
        return Err(format!(
            "state diverged:\n new {:?}\n old {:?}",
            new.centroids, old.0.centroids
        ));
    }
    if !reads {
        return Ok(());
    }
    let old = old.flushed();
    let same = new.flushed().centroids == old.centroids
        && new.min() == Some(old.min).filter(|_| old.count > 0.0)
        && new.max() == Some(old.max).filter(|_| old.count > 0.0)
        && new.count() == old.count as u64
        && QS
            .iter()
            .all(|&q| new.quantile(q).to_bits() == old.quantile_inner(q).to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("reads diverged:\n new {new:?}\n old {old:?}"))
    }
}

fn session_streams(seed: u64, compression: f64, ops: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    for session_no in 0..ops.div_ceil(SESSION_CHUNKS) {
        let (mut new, mut old) = (TDigest::new(compression), Oracle::new(compression));
        for (chunk, (v, w)) in session(&mut rng).into_iter().enumerate() {
            merge_point(&mut new, &mut old, v, w);
            check_same(&new, &old, true).map_err(|e| {
                format!("seed {seed} δ {compression} session {session_no} chunk {chunk}: {e}")
            })?;
        }
    }
    Ok(())
}

fn edge_passes(seed: u64, compression: f64, ops: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..ops / 4 {
        let compression = [compression, 1e6][case % 2];
        let (mut new, last, q0) = edge_case(&mut rng, compression);
        let mut old = Oracle(new.clone());
        merge_point(&mut new, &mut old, 9.0, last);
        check_same(&new, &old, true)
            .map_err(|e| format!("seed {seed} δ {compression} case {case} q0 {q0}: {e}"))?;
    }
    Ok(())
}

/// Drive a kernel digest and an oracle through the same random interleaving
/// of `add`, weighted points and `merge`s of a side digest, comparing after
/// every operation.
fn differential(
    seed: u64,
    family: usize,
    weights: usize,
    compression: f64,
    ops: usize,
) -> Result<(), String> {
    match family {
        SESSION => return session_streams(seed, compression, ops),
        EDGES => return edge_passes(seed, compression, ops),
        _ => {}
    }
    let (mut new, mut old) = (TDigest::new(compression), Oracle::new(compression));
    // A second pair, fed on the side and merged in now and then.
    let (mut side_new, mut side_old) = (TDigest::new(compression), Oracle::new(compression));
    for (step, op) in stream_ops(seed, family, weights, ops)
        .into_iter()
        .enumerate()
    {
        match op {
            Op::Add(v) => {
                new.add(v);
                old.add(v);
            }
            Op::Point(v, w) => merge_point(&mut new, &mut old, v, w),
            Op::SideAdd(v) => {
                side_new.add(v);
                side_old.add(v);
                check_same(&side_new, &side_old, false)?;
            }
            Op::SidePoint(v, w) => {
                merge_point(&mut side_new, &mut side_old, v, w);
                check_same(&side_new, &side_old, false)?;
            }
            Op::MergeSide(fresh) => {
                new.merge(&side_new);
                old.merge(&side_old);
                if fresh {
                    side_new = TDigest::new(compression);
                    side_old = Oracle::new(compression);
                }
            }
        }
        // Reads on a non-empty buffer clone and flush: sample those.
        let reads = new.buffer.is_empty() || step % 61 == 0 || step + 1 == ops;
        check_same(&new, &old, reads).map_err(|e| {
            format!(
                "seed {seed} family {family} weights {weights} δ {compression} step {step}: {e}"
            )
        })?;
    }
    Ok(())
}

/// Every value family × weight mode × compression once, so the default
/// `cargo test` covers the whole grid whatever the proptest draws.
#[test]
fn differential_grid() {
    for family in 0..=EDGES {
        for weights in 0..3 {
            for (i, &compression) in COMPRESSIONS.iter().enumerate() {
                let seed = (family * 100 + weights * 10 + i) as u64;
                differential(seed, family, weights, compression, 4000).unwrap();
            }
        }
    }
}

proptest! {
    #[test]
    fn differential_random(
        seed in any::<u64>(),
        family in 0..=EDGES,
        weights in 0usize..3,
        compression in 0usize..4,
    ) {
        let outcome = differential(seed, family, weights, COMPRESSIONS[compression], 6000);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
