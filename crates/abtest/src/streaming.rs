//! The streaming shard-merge runner — the one runner, behind every A/B in
//! the tree: million-user arms at O(threads) memory, with checkpoint/resume
//! bit-identical to an uninterrupted run. It never materializes anything
//! per-user:
//!
//! 1. The population is split into fixed-size **shards** (user index
//!    ranges). The shard partition depends only on `shard_size` — never on
//!    the thread count — so the merge order below is an invariant of the
//!    configuration.
//! 2. Shards are jobs on the ordered pool ([`crate::pool::ordered`]): a
//!    worker folds each user's paired sessions (in index order) straight
//!    into a [`ShardState`]: per-row t-digest summaries, exact
//!    paired-delta sums, Poisson-bootstrap replicate sums, and the
//!    telemetry registry. Session records die with the user.
//! 3. The pool's consumer (the calling thread) folds completed shards into
//!    the global state in **strict shard order**. Workers that run too far
//!    ahead of it block (the window is `2 × threads` shards), bounding
//!    completed-but-unmerged state to O(threads).
//!
//! Every accumulator merge is deterministic given the merge order, and the
//! merge order is fixed, so the final state — down to t-digest centroid
//! bits and the telemetry JSONL — is identical for 1 thread or 64.
//!
//! **Checkpoints** are the same determinism viewed as fault tolerance: the
//! global state after merging shards `0..K` plus `K` itself. A resumed run
//! decodes the state (bit-exact; see [`tdigest::wire`]) and continues at
//! shard `K`, replaying the identical merge sequence, so a run killed at
//! any checkpoint boundary finishes byte-identical to one that never died.
//! Writes are atomic (tmp + rename), files carry an FNV-1a checksum and a
//! config fingerprint, and the previous checkpoint is retained: a torn
//! write is detected and skipped (with a note in
//! [`StreamRun::fallback_notes`]), a config mismatch is a hard error, and
//! an all-corrupt directory fails with [`SimError::Checkpoint`] — never a
//! silent wrong answer.

use crate::experiment::{
    panic_message, run_user_pair, Arm, ExperimentConfig, MetricTable, SessionRecord,
};
use crate::population::{user_at, PopulationConfig};
use crate::stats::{pct_change, percentile, Aggregate, PairedDelta, StreamingStat};
use netsim::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tdigest::wire::{self, Fnv, Reader};

/// First 8 bytes of every checkpoint file ("SMYCKPT1", little-endian).
const CKPT_MAGIC: u64 = u64::from_le_bytes(*b"SMYCKPT1");
/// Bumped whenever the payload layout *or the meaning of its bytes*
/// changes; old files are rejected. Version 1 filled the replicate arrays
/// under per-metric bootstrap weights; resuming one would splice two
/// keyings into one set of replicates. Version 2 had no row table in its
/// config fingerprint; refusing it by version says why, where a config
/// mismatch would not. Version 3 wrote a digest and an exact `(count,
/// sum)` for every arm of every row; version 4 writes only the row's
/// statistic (a digest on a `Median` row, `(count, sum)` on a `Mean` row),
/// and hashes each row's aggregate into the config fingerprint. Version 5
/// writes the telemetry registry without its gauge, span, wall-clock and
/// ring-capacity fields (an empty registry is 28 bytes, not 60), so a
/// version-4 payload would not decode.
const CKPT_VERSION: u32 = 5;
/// Failure samples retained in the merged state (counts are exact; the
/// samples are the first few in population order, for error messages).
const MAX_FAILURE_SAMPLES: usize = 32;

/// Checkpoint files retained (older ones are pruned). Two means a torn
/// newest file can always fall back to its predecessor.
const KEEP_CHECKPOINTS: usize = 2;

/// Options for the streaming runner (set via the
/// [`ExperimentBuilder`](crate::experiment::ExperimentBuilder) methods).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Users per shard. Defines the merge order, so it — unlike the thread
    /// count — is part of the result's identity.
    pub shard_size: usize,
    /// Merged shards between periodic checkpoints (a final checkpoint is
    /// always written when a checkpoint dir is set).
    pub checkpoint_every: usize,
    /// Where checkpoints live; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// Test/ops hook: stop cleanly after writing this many checkpoints,
    /// simulating a kill at a checkpoint boundary.
    pub abort_after_checkpoints: Option<usize>,
    /// Append one JSONL progress line per merged shard (live tail for the
    /// serve daemon's `GET /runs/:id/metrics`). Lines carry only
    /// deterministic counters — never wall-clock — but the *file* is an
    /// append log across kills and resumes, so it is a monitoring surface,
    /// not part of the run's bit-identity contract.
    pub progress_path: Option<PathBuf>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shard_size: 256,
            checkpoint_every: 16,
            checkpoint_dir: None,
            resume: false,
            abort_after_checkpoints: None,
            progress_path: None,
        }
    }
}

/// One step of a SplitMix64 stream (also its finalizer when used once):
/// the workspace's standard cheap, well-mixed hash.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix two words into an independent key.
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix(&mut s)
}

/// e⁻¹, the probability Knuth's product method compares against.
const E_INV: f64 = 0.367_879_441_171_442_33;

/// One uniform in `[0, 1)` from the next step of a SplitMix64 stream.
fn uniform(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Poisson(1) weight derived from a 64-bit key: Knuth's product method
/// over the key's SplitMix64 uniform stream, capped at 64. Deterministic
/// and order-free, which is what makes the streaming bootstrap mergeable:
/// the weight of user `u` in replicate `r` depends only on `(seed, u, r)`,
/// never on which shard or thread folded it.
///
/// The first three uniforms are drawn unconditionally: a product never
/// grows when `u < 1`, so once `p3 ≤ e⁻¹` the loop's answer is the number
/// of the earlier products still above it. Only a weight of 3 or more
/// (≈ 8 % of draws) takes the loop.
fn poisson1_weight(key: u64) -> u8 {
    let mut state = key;
    let u = [
        uniform(&mut state),
        uniform(&mut state),
        uniform(&mut state),
    ];
    weight_from(u, state)
}

/// The weight of three leading uniforms `u`, with `state` the stream
/// after them.
fn weight_from(u: [f64; 3], state: u64) -> u8 {
    let p1 = u[0];
    let p2 = p1 * u[1];
    let p3 = p2 * u[2];
    if p3 <= E_INV {
        u8::from(p1 > E_INV) + u8::from(p2 > E_INV)
    } else {
        poisson1_tail(state, p3, 3)
    }
}

/// Knuth's loop from `k` with running product `p > e⁻¹`, drawing on from
/// `state`; stops at 64, so a weight fits a byte.
fn poisson1_tail(mut state: u64, mut p: f64, mut k: u8) -> u8 {
    while k < 64 {
        p *= uniform(&mut state);
        if p <= E_INV {
            break;
        }
        k += 1;
    }
    k
}

/// Draw one user's bootstrap weights, one per replicate: replicate `r` is
/// one resampled *population* — a resampled user brings every metric
/// along — so all rows fold the same vector.
fn draw_weights(seed: u64, user_id: u64, weights: &mut [u8]) {
    let key = mix2(mix2(seed, 0xB007_5EED), user_id);
    for (rep, w) in weights.iter_mut().enumerate() {
        *w = poisson1_weight(mix2(key, rep as u64));
    }
}

/// Mergeable accumulator for one row of the report.
///
/// Per arm: a [`StreamingStat`] holding only what the row reports — a
/// bare t-digest on a `Median` row, an exact `(count, sum)` on a `Mean`
/// row — so which layout an accumulator has follows from the row table.
/// For the paired comparison: the exact sum/count of per-session
/// `(t − c)/c × 100` deltas, plus `R` Poisson-bootstrap replicates of that
/// same (sum, count) pair — a cluster bootstrap over users that needs
/// `O(R)` memory instead of `O(users)` resampling. Replicate `r` weighs a
/// user the same in every row, so replicates are jointly usable across
/// rows.
#[derive(Debug, Clone)]
pub struct MetricAcc {
    control: StreamingStat,
    treatment: StreamingStat,
    delta_sum: f64,
    delta_count: u64,
    /// Per bootstrap replicate: (weighted delta sum, weighted pair count).
    boot: Vec<(f64, u64)>,
}

impl MetricAcc {
    fn new(reps: usize, agg: Aggregate) -> Self {
        MetricAcc {
            control: StreamingStat::new(agg),
            treatment: StreamingStat::new(agg),
            delta_sum: 0.0,
            delta_count: 0,
            boot: vec![(0.0, 0); reps],
        }
    }

    /// Fold one user's per-session values for this metric under the
    /// user's bootstrap `weights` (one per replicate; [`draw_weights`]).
    fn fold_user(&mut self, weights: &[u8], c_vals: &[f64], t_vals: &[f64]) {
        debug_assert_eq!(weights.len(), self.boot.len(), "one weight per replicate");
        for &v in c_vals {
            self.control.add(v);
        }
        for &v in t_vals {
            self.treatment.add(v);
        }
        // Paired per-session deltas: session `i` of the control arm pairs
        // with session `i` of the treatment arm (the shorter list bounds
        // the pairs), and a pair is skipped unless both values are finite
        // and the control's is non-zero.
        let mut sum = 0.0;
        let mut n = 0u64;
        for (&cv, &tv) in c_vals.iter().zip(t_vals) {
            if cv.is_finite() && tv.is_finite() && cv != 0.0 {
                sum += (tv - cv) / cv.abs() * 100.0;
                n += 1;
            }
        }
        if n == 0 {
            return;
        }
        self.delta_sum += sum;
        self.delta_count += n;
        if sum.is_finite() {
            // Multiplied, not skipped: a slot starts at +0.0 and a
            // round-to-nearest sum never makes it −0.0, so adding a zero
            // weight's ±0.0 leaves every bit as it was.
            for (slot, &w) in self.boot.iter_mut().zip(weights) {
                slot.0 += f64::from(w) * sum;
                slot.1 += u64::from(w) * n;
            }
        } else {
            // `0 · ±inf` is NaN: a non-finite `sum` must not reach a
            // replicate the user was not drawn into.
            for (slot, &w) in self.boot.iter_mut().zip(weights) {
                if w > 0 {
                    slot.0 += f64::from(w) * sum;
                    slot.1 += u64::from(w) * n;
                }
            }
        }
    }

    /// Fold another shard's accumulator. Exact for every count; the sums
    /// and the digest merge are order-sensitive in their low bits, which is
    /// why shards merge in a fixed order.
    fn merge(&mut self, other: &MetricAcc) {
        assert_eq!(self.boot.len(), other.boot.len(), "bootstrap reps differ");
        self.control.merge(&other.control);
        self.treatment.merge(&other.treatment);
        self.delta_sum += other.delta_sum;
        self.delta_count += other.delta_count;
        for (a, b) in self.boot.iter_mut().zip(&other.boot) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Control-arm summary.
    pub fn control(&self) -> &StreamingStat {
        &self.control
    }

    /// Treatment-arm summary.
    pub fn treatment(&self) -> &StreamingStat {
        &self.treatment
    }

    /// Number of (control, treatment) session pairs that entered the
    /// paired delta.
    pub fn pairs(&self) -> u64 {
        self.delta_count
    }

    /// The paired mean delta with its 95% Poisson-bootstrap CI.
    pub(crate) fn paired_delta(&self) -> PairedDelta {
        if self.delta_count == 0 {
            return PairedDelta {
                mean_delta_pct: f64::NAN,
                ci_low: f64::NAN,
                ci_high: f64::NAN,
            };
        }
        let mean = self.delta_sum / self.delta_count as f64;
        let boots: Vec<f64> = self
            .boot
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(s, n)| s / *n as f64)
            .collect();
        let (lo, hi) = if boots.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (percentile(&boots, 0.025), percentile(&boots, 0.975))
        };
        PairedDelta {
            mean_delta_pct: mean,
            ci_low: lo,
            ci_high: hi,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.control.encode(out);
        self.treatment.encode(out);
        wire::put_f64(out, self.delta_sum);
        wire::put_u64(out, self.delta_count);
        wire::put_u64(out, self.boot.len() as u64);
        for &(s, n) in &self.boot {
            wire::put_f64(out, s);
            wire::put_u64(out, n);
        }
    }

    /// Decode an accumulator written by `encode`, refusing what it never
    /// writes: more pairs than either arm has finite samples (a pair needs
    /// one of each), and a sum beside a zero count — the paired one or a
    /// replicate's — that is not `+0.0` (a zero count means nothing was
    /// added but zero-weight `±0.0`s). A non-finite sum beside a non-zero
    /// count is legal.
    fn decode(
        r: &mut Reader<'_>,
        expect_reps: usize,
        agg: Aggregate,
    ) -> Result<MetricAcc, wire::WireError> {
        let bad = |context| wire::WireError { context };
        let empty_sum = |n: u64, s: f64| n == 0 && s.to_bits() != 0.0f64.to_bits();
        let control = StreamingStat::decode(r, agg)?;
        let treatment = StreamingStat::decode(r, agg)?;
        let delta_sum = r.f64("metric.delta_sum")?;
        let delta_count = r.u64("metric.delta_count")?;
        if delta_count > control.count().min(treatment.count()) {
            return Err(bad("metric.delta_count"));
        }
        if empty_sum(delta_count, delta_sum) {
            return Err(bad("metric.delta_sum"));
        }
        let reps = r.len("metric.boot_len")?;
        if reps != expect_reps {
            return Err(bad("metric.boot_len"));
        }
        let mut boot = Vec::with_capacity(reps);
        for _ in 0..reps {
            let s = r.f64("metric.boot_sum")?;
            let n = r.u64("metric.boot_count")?;
            if empty_sum(n, s) || (delta_count == 0 && n > 0) {
                return Err(bad("metric.boot"));
            }
            boot.push((s, n));
        }
        Ok(MetricAcc {
            control,
            treatment,
            delta_sum,
            delta_count,
            boot,
        })
    }
}

/// A user whose sessions panicked, as retained in the streaming state.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFailure {
    /// The user's id.
    pub user: u64,
    /// The user's index in the population.
    pub index: u64,
    /// The panic payload, stringified.
    pub message: String,
}

/// The mergeable per-shard (and, after merging, global) experiment state:
/// one [`MetricAcc`] per row of its row table, exact user/session/failure
/// counts, a bounded failure sample, and the merged telemetry registry.
#[derive(Debug)]
pub struct ShardState {
    rows: MetricTable,
    metrics: Vec<MetricAcc>,
    /// Users folded in (successes only).
    pub users: u64,
    /// Control-arm sessions folded in.
    pub control_sessions: u64,
    /// Treatment-arm sessions folded in.
    pub treatment_sessions: u64,
    /// Users whose sessions panicked (exact count).
    pub failures: u64,
    /// The first `MAX_FAILURE_SAMPLES` failures in population order.
    pub failure_samples: Vec<StreamFailure>,
    /// Telemetry merged in population order (empty without the `obs`
    /// feature).
    pub registry: obs::Registry,
    scratch: FoldScratch,
}

/// Buffers [`ShardState::fold_user`] reuses from one user to the next.
/// Working memory only: never encoded, merged or fingerprinted.
#[derive(Debug)]
struct FoldScratch {
    /// The user's bootstrap weights, one per replicate.
    weights: Vec<u8>,
    /// The user's per-session values for the metric being folded.
    control: Vec<f64>,
    treatment: Vec<f64>,
}

impl FoldScratch {
    fn new(reps: usize) -> Self {
        FoldScratch {
            weights: vec![0; reps],
            control: Vec::new(),
            treatment: Vec::new(),
        }
    }
}

impl ShardState {
    fn new(reps: usize, rows: MetricTable) -> Self {
        ShardState {
            rows,
            metrics: rows
                .iter()
                .map(|&(_, agg, _)| MetricAcc::new(reps, agg))
                .collect(),
            users: 0,
            control_sessions: 0,
            treatment_sessions: 0,
            failures: 0,
            failure_samples: Vec::new(),
            registry: obs::Registry::new(),
            scratch: FoldScratch::new(reps),
        }
    }

    /// Per-row accumulators, in row-table order.
    pub fn metrics(&self) -> &[MetricAcc] {
        &self.metrics
    }

    fn fold_user(
        &mut self,
        seed: u64,
        user_id: u64,
        control: &[SessionRecord],
        treatment: &[SessionRecord],
        registry: &obs::Registry,
    ) {
        let FoldScratch {
            weights,
            control: c_vals,
            treatment: t_vals,
        } = &mut self.scratch;
        draw_weights(seed, user_id, weights);
        for (acc, &(_, _, f)) in self.metrics.iter_mut().zip(self.rows) {
            c_vals.clear();
            c_vals.extend(control.iter().filter_map(f));
            t_vals.clear();
            t_vals.extend(treatment.iter().filter_map(f));
            acc.fold_user(weights, c_vals, t_vals);
        }
        self.users += 1;
        self.control_sessions += control.len() as u64;
        self.treatment_sessions += treatment.len() as u64;
        self.registry.merge(registry);
    }

    fn record_failure(&mut self, user: u64, index: u64, message: String) {
        self.failures += 1;
        if self.failure_samples.len() < MAX_FAILURE_SAMPLES {
            self.failure_samples.push(StreamFailure {
                user,
                index,
                message,
            });
        }
    }

    fn merge(&mut self, other: &ShardState) {
        for (a, b) in self.metrics.iter_mut().zip(&other.metrics) {
            a.merge(b);
        }
        self.users += other.users;
        self.control_sessions += other.control_sessions;
        self.treatment_sessions += other.treatment_sessions;
        self.failures += other.failures;
        for f in &other.failure_samples {
            if self.failure_samples.len() >= MAX_FAILURE_SAMPLES {
                break;
            }
            self.failure_samples.push(f.clone());
        }
        self.registry.merge(&other.registry);
    }

    /// Serialize (the checkpoint payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.metrics.len() as u64);
        for m in &self.metrics {
            m.encode(out);
        }
        wire::put_u64(out, self.users);
        wire::put_u64(out, self.control_sessions);
        wire::put_u64(out, self.treatment_sessions);
        wire::put_u64(out, self.failures);
        wire::put_u64(out, self.failure_samples.len() as u64);
        for f in &self.failure_samples {
            wire::put_u64(out, f.user);
            wire::put_u64(out, f.index);
            wire::put_str(out, &f.message);
        }
        self.registry.encode(out);
    }

    fn decode(
        r: &mut Reader<'_>,
        expect_reps: usize,
        rows: MetricTable,
    ) -> Result<ShardState, wire::WireError> {
        let n_metrics = r.len("state.metrics")?;
        if n_metrics != rows.len() {
            return Err(wire::WireError {
                context: "state.metrics",
            });
        }
        let mut metrics = Vec::with_capacity(n_metrics);
        for &(_, agg, _) in rows {
            metrics.push(MetricAcc::decode(r, expect_reps, agg)?);
        }
        let users = r.u64("state.users")?;
        let control_sessions = r.u64("state.control_sessions")?;
        let treatment_sessions = r.u64("state.treatment_sessions")?;
        let failures = r.u64("state.failures")?;
        let n_fail = r.len("state.failure_samples")?;
        if n_fail > MAX_FAILURE_SAMPLES {
            return Err(wire::WireError {
                context: "state.failure_samples",
            });
        }
        let mut failure_samples = Vec::with_capacity(n_fail);
        for _ in 0..n_fail {
            failure_samples.push(StreamFailure {
                user: r.u64("failure.user")?,
                index: r.u64("failure.index")?,
                message: r.str("failure.message")?.to_string(),
            });
        }
        let registry = obs::Registry::decode(r)?;
        Ok(ShardState {
            rows,
            metrics,
            users,
            control_sessions,
            treatment_sessions,
            failures,
            failure_samples,
            registry,
            scratch: FoldScratch::new(expect_reps),
        })
    }
}

/// The fingerprint that ties a checkpoint to one exact run configuration.
/// Any difference — population, arms, seeds, session counts, shard size,
/// bootstrap reps, row table — makes resume a hard error instead of a
/// subtle lie. A row's aggregate is hashed beside its name: it decides the
/// row's layout in the payload.
fn config_fingerprint(
    population: &PopulationConfig,
    control: Arm,
    treatment: Arm,
    cfg: &ExperimentConfig,
    shard_size: usize,
    rows: MetricTable,
) -> u64 {
    let mut h = Fnv::new();
    h.u64(crate::population::fingerprint(
        population,
        cfg.users_per_arm,
        cfg.seed,
    ));
    h.str(&control.label());
    h.str(&treatment.label());
    h.u64(cfg.pre_sessions as u64);
    h.u64(cfg.sessions_per_user as u64);
    h.u64(cfg.seed);
    h.u64(cfg.bootstrap_reps as u64);
    h.u64(shard_size as u64);
    for &(name, agg, _) in rows {
        h.str(name);
        h.u64(agg as u64);
    }
    h.finish()
}

/// Why a checkpoint file couldn't be used.
#[derive(Debug)]
enum CkptReject {
    /// Torn/corrupt/truncated — eligible for fallback to an older file.
    Corrupt(String),
    /// Valid file for a *different* run — a hard error, no fallback.
    ConfigMismatch,
    /// A sound file of another `CKPT_VERSION` (the one it carries): a build
    /// that reads another layout wrote it, so it is no torn write — a hard
    /// error, no fallback.
    Version(u32),
}

fn checkpoint_path(dir: &Path, next_shard: usize) -> PathBuf {
    dir.join(format!("ckpt-{next_shard:010}.bin"))
}

/// Checkpoint files in `dir`, ascending by shard index.
fn list_checkpoints(dir: &Path) -> Result<Vec<(PathBuf, usize)>, SimError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if let Some(num) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".bin"))
        {
            if let Ok(shard) = num.parse::<usize>() {
                out.push((path, shard));
            }
        }
    }
    out.sort_by_key(|&(_, shard)| shard);
    Ok(out)
}

/// Atomically write the checkpoint for `next_shard` and prune old files.
fn write_checkpoint(
    dir: &Path,
    config_fp: u64,
    next_shard: usize,
    state: &ShardState,
) -> Result<(), SimError> {
    std::fs::create_dir_all(dir)?;
    let mut buf = Vec::new();
    wire::put_u64(&mut buf, CKPT_MAGIC);
    wire::put_u32(&mut buf, CKPT_VERSION);
    wire::put_u64(&mut buf, config_fp);
    wire::put_u64(&mut buf, next_shard as u64);
    state.encode(&mut buf);
    let mut h = Fnv::new();
    h.write(&buf);
    wire::put_u64(&mut buf, h.finish());

    let tmp = dir.join(format!("ckpt-{next_shard:010}.tmp"));
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, checkpoint_path(dir, next_shard))?;

    let mut files = list_checkpoints(dir)?;
    while files.len() > KEEP_CHECKPOINTS {
        let (path, _) = files.remove(0);
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Validate and decode one checkpoint file.
fn load_checkpoint(
    path: &Path,
    config_fp: u64,
    expect_reps: usize,
    rows: MetricTable,
) -> Result<(ShardState, usize), CkptReject> {
    let corrupt = |what: &str| CkptReject::Corrupt(what.to_string());
    let bytes = std::fs::read(path).map_err(|e| corrupt(&format!("unreadable: {e}")))?;
    if bytes.len() < 8 {
        return Err(corrupt("shorter than its checksum"));
    }
    let (head, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    let mut h = Fnv::new();
    h.write(head);
    if h.finish() != stored {
        return Err(corrupt("checksum mismatch (torn write?)"));
    }
    let mut r = Reader::new(head);
    let magic = r.u64("ckpt.magic").map_err(|e| corrupt(&e.to_string()))?;
    if magic != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = r.u32("ckpt.version").map_err(|e| corrupt(&e.to_string()))?;
    if version != CKPT_VERSION {
        return Err(CkptReject::Version(version));
    }
    let fp = r.u64("ckpt.config").map_err(|e| corrupt(&e.to_string()))?;
    if fp != config_fp {
        return Err(CkptReject::ConfigMismatch);
    }
    let next_shard = r
        .u64("ckpt.next_shard")
        .map_err(|e| corrupt(&e.to_string()))? as usize;
    let state =
        ShardState::decode(&mut r, expect_reps, rows).map_err(|e| corrupt(&e.to_string()))?;
    if !r.is_done() {
        return Err(corrupt("trailing bytes"));
    }
    Ok((state, next_shard))
}

/// Find the newest usable checkpoint: scan descending, skipping corrupt
/// files (noted), erroring hard on a config mismatch, another checkpoint
/// version or an all-corrupt directory. `Ok(None)` = nothing to resume, start fresh.
fn resume_scan(
    dir: &Path,
    config_fp: u64,
    expect_reps: usize,
    rows: MetricTable,
) -> Result<Option<(ShardState, usize, Vec<String>)>, SimError> {
    if !dir.exists() {
        return Ok(None);
    }
    let files = list_checkpoints(dir)?;
    if files.is_empty() {
        return Ok(None);
    }
    let mut notes = Vec::new();
    for (path, _) in files.iter().rev() {
        match load_checkpoint(path, config_fp, expect_reps, rows) {
            Ok((state, next_shard)) => return Ok(Some((state, next_shard, notes))),
            Err(CkptReject::Corrupt(reason)) => {
                notes.push(format!("{}: {reason}", path.display()));
            }
            Err(CkptReject::ConfigMismatch) => {
                return Err(SimError::Checkpoint {
                    path: path.display().to_string(),
                    reason: "config fingerprint mismatch: checkpoint belongs to a different run"
                        .into(),
                });
            }
            Err(CkptReject::Version(found)) => {
                return Err(SimError::Checkpoint {
                    path: path.display().to_string(),
                    reason: format!(
                        "unsupported version {found}: this build reads checkpoint version {CKPT_VERSION}"
                    ),
                });
            }
        }
    }
    Err(SimError::Checkpoint {
        path: dir.display().to_string(),
        reason: format!(
            "all {} checkpoint files are corrupt: {}",
            notes.len(),
            notes.join("; ")
        ),
    })
}

/// Result of a streaming run.
#[derive(Debug)]
pub struct StreamRun {
    /// The merged global state (over `merged_shards` shards).
    pub state: ShardState,
    /// Users in the population.
    pub users: usize,
    /// Total shards in the partition.
    pub shards: usize,
    /// Users per shard.
    pub shard_size: usize,
    /// Shards merged so far (`== shards` iff `completed`).
    pub merged_shards: usize,
    /// False only when the run stopped early via `abort_after_checkpoints`.
    pub completed: bool,
    /// `Some(next_shard)` when this run resumed from a checkpoint.
    pub resumed_from: Option<usize>,
    /// Corrupt checkpoint files skipped during resume (tagged, per file).
    pub fallback_notes: Vec<String>,
    /// Checkpoints written by this process.
    pub checkpoints_written: usize,
}

impl StreamRun {
    /// The report over the merged state, one row per row-table entry.
    pub fn report(&self) -> StreamReport {
        StreamReport::build(&self.state)
    }

    /// FNV-1a fingerprint of the complete merged state (metric
    /// accumulators down to digest centroid bits, counts, failures,
    /// telemetry). Two runs are bit-identical iff their fingerprints
    /// match — the resume/thread-invariance batteries compare these.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        self.state.encode(&mut buf);
        let mut h = Fnv::new();
        h.write(&buf);
        h.u64(self.shards as u64);
        h.u64(self.merged_shards as u64);
        h.finish()
    }
}

/// One row of the report.
#[derive(Debug, Clone)]
pub struct StreamRow {
    /// Row name, as in the row table.
    pub name: &'static str,
    /// How the per-arm statistic is aggregated.
    pub agg: Aggregate,
    /// Control-arm statistic (t-digest median or exact mean, by `agg`).
    pub control: f64,
    /// Treatment-arm statistic.
    pub treatment: f64,
    /// Percent change of the arm statistics (the paper's point statistic).
    pub pct_change: f64,
    /// Paired per-session mean delta with bootstrap CI — the report's one
    /// interval (exact mean; resolves sub-percent effects the quantile
    /// estimate can't).
    pub paired: PairedDelta,
    /// Control sessions with a value for this metric.
    pub control_count: u64,
    /// Treatment sessions with a value for this metric.
    pub treatment_count: u64,
}

/// The A/B report: Table 2 / Table 3 under the default row table, Fig 3
/// under [`crate::experiment::BUCKET_METRICS`].
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Rows in row-table order.
    pub rows: Vec<StreamRow>,
    /// Users folded in.
    pub users: u64,
    /// Users that failed.
    pub failures: u64,
}

impl StreamReport {
    fn build(state: &ShardState) -> StreamReport {
        let rows = state
            .rows
            .iter()
            .zip(state.metrics())
            .map(|(&(name, agg, _), m)| {
                let (control, treatment) = (m.control().value(), m.treatment().value());
                StreamRow {
                    name,
                    agg,
                    control,
                    treatment,
                    pct_change: pct_change(control, treatment),
                    paired: m.paired_delta(),
                    control_count: m.control().count(),
                    treatment_count: m.treatment().count(),
                }
            })
            .collect();
        StreamReport {
            rows,
            users: state.users,
            failures: state.failures,
        }
    }

    /// Look up a row by name.
    pub fn row(&self, name: &str) -> Option<&StreamRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>12} {:>12} {:>10} {:>28}\n",
            "Metric", "Control", "Treatment", "% Chg", "Paired mean [95% CI]"
        ));
        for r in &self.rows {
            let paired = if r.paired.mean_delta_pct.is_nan() {
                "n/a".to_string()
            } else if r.paired.ci_low.is_nan() {
                format!("{:+.3}% [n/a]", r.paired.mean_delta_pct)
            } else if r.paired.significant() {
                format!(
                    "{:+.3}% [{:+.3}, {:+.3}]",
                    r.paired.mean_delta_pct, r.paired.ci_low, r.paired.ci_high
                )
            } else {
                format!("–  [{:+.3}, {:+.3}]", r.paired.ci_low, r.paired.ci_high)
            };
            let chg = if r.pct_change.is_nan() {
                "n/a".to_string()
            } else {
                format!("{:+.2}%", r.pct_change)
            };
            out.push_str(&format!(
                "{:<20} {:>12.4} {:>12.4} {:>10} {:>28}\n",
                r.name, r.control, r.treatment, chg, paired
            ));
        }
        out.push_str(&format!(
            "users: {}   failures: {}\n",
            self.users, self.failures
        ));
        out
    }
}

/// Run one shard: fold users `[shard·size, (shard+1)·size)` of the
/// population `(population, cfg.users_per_arm, cfg.seed)` in index order,
/// isolating per-user panics.
fn compute_shard(
    population: &PopulationConfig,
    shard: usize,
    shard_size: usize,
    control: Arm,
    treatment: Arm,
    cfg: &ExperimentConfig,
    rows: MetricTable,
) -> ShardState {
    let mut state = ShardState::new(cfg.bootstrap_reps, rows);
    let lo = shard * shard_size;
    let hi = ((shard + 1) * shard_size).min(cfg.users_per_arm);
    for index in lo..hi {
        let user = user_at(population, index as u64, cfg.seed);
        // A panic leaves the user's partial registry in the worker's
        // thread-local; the next run_user_pair replaces it, so failed
        // users contribute no telemetry.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_user_pair(&user, control, treatment, cfg)
        }));
        match result {
            Ok(((c, t), registry)) => state.fold_user(cfg.seed, user.id, &c, &t, &registry),
            Err(payload) => state.record_failure(user.id, index as u64, panic_message(payload)),
        }
    }
    state
}

/// Append one progress line to the live JSONL tail. Every field is a
/// deterministic counter over the merged prefix; flushed per line so a
/// tailing reader never sees a torn record from a cooperative writer.
fn write_progress_line(
    f: &mut std::fs::File,
    merged: usize,
    shards: usize,
    global: &ShardState,
) -> Result<(), SimError> {
    use spec::json::{obj, Value};
    use std::io::Write;
    let count = |n: u64| Value::Num(n as f64);
    let line = obj(vec![
        ("type", Value::Str("progress".into())),
        ("shard", count(merged as u64)),
        ("shards", count(shards as u64)),
        ("users", count(global.users)),
        ("failures", count(global.failures)),
        ("control_sessions", count(global.control_sessions)),
        ("treatment_sessions", count(global.treatment_sessions)),
    ]);
    f.write_all(format!("{line}\n").as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| SimError::Io(format!("append progress line: {e}")))
}

/// The streaming shard-merge runner (entry:
/// [`crate::experiment::ExperimentBuilder::run_streaming`]).
pub(crate) fn run_stream_impl(
    population: &PopulationConfig,
    control: Arm,
    treatment: Arm,
    cfg: &ExperimentConfig,
    stream: &StreamConfig,
    rows: MetricTable,
) -> Result<StreamRun, SimError> {
    if stream.resume && stream.checkpoint_dir.is_none() {
        return Err(SimError::InvalidConfig {
            field: "resume",
            reason: "resume requires a checkpoint dir".into(),
        });
    }
    let users = cfg.users_per_arm;
    let shard_size = stream.shard_size.max(1);
    let shards = users.div_ceil(shard_size);
    let reps = cfg.bootstrap_reps;
    let config_fp = config_fingerprint(population, control, treatment, cfg, shard_size, rows);

    let mut global = ShardState::new(reps, rows);
    let mut start_shard = 0usize;
    let mut resumed_from = None;
    let mut fallback_notes = Vec::new();
    if stream.resume {
        let dir = stream.checkpoint_dir.as_deref().expect("checked above");
        if let Some((state, next_shard, notes)) = resume_scan(dir, config_fp, reps, rows)? {
            if next_shard > shards {
                return Err(SimError::Checkpoint {
                    path: dir.display().to_string(),
                    reason: format!(
                        "checkpoint covers {next_shard} shards but the run has {shards}"
                    ),
                });
            }
            global = state;
            start_shard = next_shard;
            resumed_from = Some(next_shard);
            fallback_notes = notes;
        }
    }

    let mut checkpoints_written = 0usize;
    let mut aborted = false;
    let mut merged_shards = start_shard;
    let mut progress = match stream.progress_path.as_deref() {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| SimError::Io(format!("open progress log {path:?}: {e}")))?,
        ),
        None => None,
    };

    // Shards are jobs on the ordered pool; merging them is its consumer,
    // and a requested abort is the consumer stopping early.
    crate::pool::ordered(
        start_shard..shards,
        cfg.threads,
        |shard| compute_shard(population, shard, shard_size, control, treatment, cfg, rows),
        |states| -> Result<(), SimError> {
            for (k, state) in (start_shard..shards).zip(states) {
                global.merge(&state);
                merged_shards = k + 1;
                if let Some(f) = progress.as_mut() {
                    write_progress_line(f, k + 1, shards, &global)?;
                }
                if let Some(dir) = stream.checkpoint_dir.as_deref() {
                    let merged_here = k + 1 - start_shard;
                    let due = stream.checkpoint_every > 0
                        && merged_here.is_multiple_of(stream.checkpoint_every);
                    let last = k + 1 == shards;
                    if due || last {
                        write_checkpoint(dir, config_fp, k + 1, &global)?;
                        checkpoints_written += 1;
                        if stream
                            .abort_after_checkpoints
                            .is_some_and(|n| checkpoints_written >= n)
                            && !last
                        {
                            aborted = true;
                            break;
                        }
                    }
                }
            }
            Ok(())
        },
    )?;

    Ok(StreamRun {
        state: global,
        users,
        shards,
        shard_size,
        merged_shards,
        completed: !aborted,
        resumed_from,
        fallback_notes,
        checkpoints_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{MetricExtractor, METRICS};
    use netsim::{Rate, SimDuration};

    /// A synthetic session whose validity per metric follows `mask`:
    /// bit 0 chunk throughput, bit 1 RTT, bit 2 both VMAF rows, bit 3 play
    /// delay, bit 4 both rebuffer rows (a control session without a
    /// rebuffer has a zero base and forms no pair).
    fn rec(user: u64, v: f64, mask: u8) -> SessionRecord {
        let on = |bit: u8| mask & (1 << bit) != 0;
        SessionRecord {
            user,
            session: 0,
            pre_p95_mbps: v,
            outcome: fluidsim::SessionOutcome {
                qoe: video::QoeSummary {
                    play_delay: on(3).then(|| SimDuration::from_secs_f64(v)),
                    rebuffer_count: u64::from(on(4)),
                    rebuffer_time: SimDuration::ZERO,
                    mean_vmaf: on(2).then_some(v),
                    initial_vmaf: on(2).then_some(v * 0.5),
                    mean_bitrate: None,
                    played: SimDuration::from_secs_f64(60.0 * v),
                    quality_switches: 0,
                },
                avg_chunk_throughput: on(0).then(|| Rate::from_mbps(v)),
                retx_fraction: v / 100.0,
                median_rtt_ms: if on(1) { v } else { f64::NAN },
                chunks: 1,
                congested_byte_fraction: 0.0,
                chunk_throughputs_mbps: Vec::new(),
            },
        }
    }

    /// One user's sessions under both arms: session `s` of user `u` has
    /// validity `masks[s]` and the treatment runs 10 % below control.
    fn user_sessions(u: u64, masks: &[u8]) -> (Vec<SessionRecord>, Vec<SessionRecord>) {
        let value = |s: usize| 1.0 + (u * 7 + s as u64 * 3) as f64 * 0.25;
        let arm = |scale: f64| {
            masks
                .iter()
                .enumerate()
                .map(|(s, &m)| rec(u, value(s) * scale, m))
                .collect()
        };
        (arm(1.0), arm(0.9))
    }

    /// (sum, count) of one user's valid paired deltas for `f` — the
    /// pairing rule of [`MetricAcc::fold_user`], restated.
    fn user_delta(
        f: MetricExtractor,
        control: &[SessionRecord],
        treatment: &[SessionRecord],
    ) -> (f64, u64) {
        let c = control.iter().filter_map(f);
        let t = treatment.iter().filter_map(f);
        let (mut sum, mut n) = (0.0, 0u64);
        for (cv, tv) in c.zip(t) {
            if cv.is_finite() && tv.is_finite() && cv != 0.0 {
                sum += (tv - cv) / cv.abs() * 100.0;
                n += 1;
            }
        }
        (sum, n)
    }

    /// Knuth's product method as the bootstrap drew it before the
    /// three-draw head: multiply uniforms from `next` until the product
    /// falls to e⁻¹, counting the draws before that one, capped at 64.
    fn knuth(mut next: impl FnMut() -> f64) -> u64 {
        let mut p = 1.0f64;
        let mut k = 0u64;
        loop {
            p *= next();
            if p <= E_INV || k >= 64 {
                return k;
            }
            k += 1;
        }
    }

    /// The reference Poisson(1) weight of a key: [`knuth`] over the key's
    /// SplitMix64 uniform stream.
    fn poisson1(key: u64) -> u64 {
        let mut state = key;
        knuth(|| uniform(&mut state))
    }

    #[test]
    fn poisson1_has_unit_mean() {
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n)
            .map(|i| f64::from(poisson1_weight(mix2(42, i))))
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "Poisson(1) mean off: {mean}");
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((0.9..=1.1).contains(&var), "Poisson(1) variance off: {var}");
        // Deterministic per key.
        assert_eq!(poisson1_weight(mix2(7, 9)), poisson1_weight(mix2(7, 9)));
    }

    #[test]
    fn weight_draw_matches_knuths_loop_bit_for_bit() {
        // 3 seeds × 200 users × 200 replicates, keyed as `draw_weights`
        // keys them.
        let mut weights = [0u8; 200];
        let (mut keys, mut tail) = (0u64, 0u64);
        for seed in [0, 1, 2023] {
            for user in 0..200u64 {
                draw_weights(seed, user, &mut weights);
                let key = mix2(mix2(seed, 0xB007_5EED), user);
                for (rep, &w) in weights.iter().enumerate() {
                    let want = poisson1(mix2(key, rep as u64));
                    assert_eq!(u64::from(w), want, "seed {seed} user {user} rep {rep}");
                    keys += 1;
                    tail += u64::from(want >= 3);
                }
            }
        }
        assert!(keys >= 100_000);
        // P(w ≥ 3) = 1 − 2.5/e ≈ 8 %: the loop past the head runs often.
        assert!(tail > keys / 20, "{tail} of {keys} draws reached k ≥ 3");

        // Products landing exactly on e⁻¹ (each comparison's tie), a ulp
        // either side of each, and a head whose product cannot fall to e⁻¹
        // in 64 draws (the cap, reached through `poisson1_tail`).
        let (half, two_thirds, l2) = (0.5, 2.0 / 3.0, 2.0 * E_INV);
        assert_eq!(0.75 * two_thirds * l2, E_INV, "p3 lands on e⁻¹");
        let nudge = |x: f64, d: i64| f64::from_bits(x.to_bits().wrapping_add_signed(d));
        let mut heads = vec![[f64::MAX, 1.0, 1.0]];
        for d in [-1, 0, 1] {
            heads.push([nudge(E_INV, d), 0.9, 0.9]);
            heads.push([half, nudge(l2, d), 0.9]);
            heads.push([0.75, two_thirds, nudge(l2, d)]);
            heads.push([0.99, 0.99, nudge(0.99, d)]);
        }
        for u in heads {
            for state in [1u64, 0xDEAD_BEEF] {
                let mut rest = state;
                let mut stream = u
                    .into_iter()
                    .chain(std::iter::from_fn(|| Some(uniform(&mut rest))));
                let want = knuth(|| stream.next().expect("an endless stream"));
                assert_eq!(u64::from(weight_from(u, state)), want, "head {u:?}");
            }
        }
        assert_eq!(weight_from([f64::MAX, 1.0, 1.0], 7), 64);
    }

    #[test]
    fn row0_replicates_match_the_per_metric_keying_bit_for_bit() {
        // The differential anchor: the shared weight vector is keyed as
        // metric 0 was when every row drew its own, so "Chunk Throughput"
        // replicates are those of the per-metric scheme, to the bit.
        const REPS: usize = 64;
        let seed = 2023;
        let mut st = ShardState::new(REPS, &METRICS);
        let mut want = vec![(0.0f64, 0u64); REPS];
        for u in 0..40u64 {
            // Every fifth user has no throughput sample at all (n == 0).
            let masks = if u % 5 == 0 {
                [0x1E; 3]
            } else {
                [0x1F, 0x1E, 0x1F]
            };
            let (c, t) = user_sessions(u, &masks);
            st.fold_user(seed, u, &c, &t, &obs::Registry::new());
            let (sum, n) = user_delta(METRICS[0].2, &c, &t);
            if n == 0 {
                continue;
            }
            let metric = 0u64;
            let key = mix2(mix2(seed, 0xB007_5EED ^ metric), u);
            for (rep, slot) in want.iter_mut().enumerate() {
                let w = poisson1(mix2(key, rep as u64));
                if w > 0 {
                    slot.0 += w as f64 * sum;
                    slot.1 += w * n;
                }
            }
        }
        let got = &st.metrics()[0].boot;
        assert!(got.iter().any(|&(_, n)| n > 0));
        for (rep, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.0.to_bits(), g.1),
                (w.0.to_bits(), w.1),
                "replicate {rep}"
            );
        }
    }

    proptest::proptest! {
        /// Replicate `r` is one resampled population: two rows that drew
        /// their pairs from the same sessions of the same users see the
        /// same weighted pair count in every replicate.
        #[test]
        fn replicates_are_coherent_across_rows(
            users in proptest::collection::vec(
                proptest::collection::vec(0u8..32, 1..4), 1..24),
            reps in 1usize..48,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut st = ShardState::new(reps, &METRICS);
            // Per metric: each user's valid-pair count.
            let mut pairs = vec![Vec::new(); METRICS.len()];
            for (u, masks) in users.iter().enumerate() {
                let (c, t) = user_sessions(u as u64, masks);
                st.fold_user(seed, u as u64, &c, &t, &obs::Registry::new());
                for (per_user, &(_, _, f)) in pairs.iter_mut().zip(&METRICS) {
                    per_user.push(user_delta(f, &c, &t).1);
                }
            }
            let counts = |i: usize| -> Vec<u64> {
                st.metrics()[i].boot.iter().map(|&(_, n)| n).collect()
            };
            // Built to pair up: the VMAF rows and the rebuffer rows.
            proptest::prop_assert_eq!(&pairs[3], &pairs[4]);
            proptest::prop_assert_eq!(&pairs[6], &pairs[7]);
            for i in 0..METRICS.len() {
                for j in i + 1..METRICS.len() {
                    if pairs[i] == pairs[j] {
                        proptest::prop_assert_eq!(
                            counts(i), counts(j), "{} vs {}", METRICS[i].0, METRICS[j].0
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_delta_reaches_only_the_replicates_that_drew_the_user() {
        const REPS: usize = 200;
        let seed = 5;
        let mut acc = MetricAcc::new(REPS, Aggregate::Median);
        let mut weights = vec![0u8; REPS];
        // Finite users first, so most slots hold bits to keep.
        for u in 0..20u64 {
            draw_weights(seed, u, &mut weights);
            acc.fold_user(&weights, &[10.0 + u as f64], &[9.5]);
        }
        // One delta that overflows to +inf; two that sum to NaN.
        let users: [(u64, &[f64], &[f64]); 2] = [
            (100, &[1e-300], &[1e300]),
            (101, &[1e-300, 1e-300], &[1e300, -1e300]),
        ];
        for (user, c, t) in users {
            let before = acc.boot.clone();
            draw_weights(seed, user, &mut weights);
            acc.fold_user(&weights, c, t);
            let n = c.len() as u64;
            let (mut drawn, mut not_drawn) = (0, 0);
            for (rep, (&w, (got, was))) in
                weights.iter().zip(acc.boot.iter().zip(&before)).enumerate()
            {
                if w == 0 {
                    not_drawn += 1;
                    assert_eq!(
                        (got.0.to_bits(), got.1),
                        (was.0.to_bits(), was.1),
                        "rep {rep}"
                    );
                } else {
                    drawn += 1;
                    assert!(!got.0.is_finite(), "rep {rep}: {}", got.0);
                    assert_eq!(got.1, was.1 + u64::from(w) * n, "rep {rep}");
                }
            }
            assert!(drawn > 0 && not_drawn > 0, "user {user}: {drawn} drawn");
        }
        assert!(acc.boot.iter().any(|s| s.0.is_finite() && s.1 > 0));
    }

    /// `MetricAcc::decode` takes every accumulator `fold_user` and `merge`
    /// can build on either kind of row — non-finite paired and replicate
    /// sums included — and re-encodes it to the same bytes, but refuses
    /// one whose pairs outnumber an arm's samples, or whose paired or
    /// replicate sum beside a zero count is not `+0.0`.
    #[test]
    fn metric_acc_decode_refuses_what_encode_never_writes() {
        const REPS: usize = 40;
        let bytes = |acc: &MetricAcc| {
            let mut out = Vec::new();
            acc.encode(&mut out);
            out
        };
        for agg in [Aggregate::Median, Aggregate::Mean] {
            let decode = |acc: &MetricAcc| {
                MetricAcc::decode(&mut Reader::new(&bytes(acc)), REPS, agg).map_err(|e| e.context)
            };
            let mut weights = vec![0u8; REPS];
            let mut acc = MetricAcc::new(REPS, agg);
            // Two users: some replicate draws neither.
            for u in 0..2u64 {
                draw_weights(2, u, &mut weights);
                acc.fold_user(&weights, &[10.0 + u as f64, f64::NAN], &[9.5, 3.0, 4.0]);
            }
            let mut overflowed = acc.clone();
            draw_weights(2, 2, &mut weights);
            overflowed.fold_user(&weights, &[1e-300, 1e-300], &[1e300, -1e300]);
            assert!(overflowed.delta_sum.is_nan());
            let empty = MetricAcc::new(REPS, agg);
            for valid in [&empty, &acc, &overflowed] {
                let back = decode(valid).expect("a valid encoding decodes");
                assert_eq!(bytes(&back), bytes(valid), "{agg:?}");
            }

            let mut extra_pair = acc.clone();
            extra_pair.delta_count = acc.control.count() + 1;
            assert_eq!(decode(&extra_pair).unwrap_err(), "metric.delta_count");
            for sum in [-0.0, 1.0, f64::NAN] {
                let mut stray = empty.clone();
                stray.delta_sum = sum;
                assert_eq!(decode(&stray).unwrap_err(), "metric.delta_sum", "sum {sum}");
            }
            let empty_slot = acc
                .boot
                .iter()
                .position(|&(_, n)| n == 0)
                .expect("an undrawn slot");
            let mut stray = acc.clone();
            stray.boot[empty_slot].0 = -0.0;
            assert_eq!(decode(&stray).unwrap_err(), "metric.boot");
            let mut counted = empty.clone();
            counted.boot[0].1 = 1;
            assert_eq!(decode(&counted).unwrap_err(), "metric.boot");
        }
    }

    #[test]
    fn bootstrap_interval_covers_a_known_mean() {
        // 150 users, one pair each, delta = TRUTH + zero-mean noise: the
        // nominal 95 % interval should cover TRUTH about 95 % of the time.
        const TRUTH: f64 = -2.0;
        const SEEDS: u64 = 400;
        let mut weights = vec![0u8; 200];
        let mut covered = 0;
        for seed in 0..SEEDS {
            let mut acc = MetricAcc::new(weights.len(), Aggregate::Mean);
            for u in 0..150u64 {
                let mut noise = mix2(seed ^ 0xCA11_B8A7, u);
                let uniform = (splitmix(&mut noise) >> 11) as f64 / (1u64 << 53) as f64;
                let delta = TRUTH + 6.0 * (uniform - 0.5);
                draw_weights(seed, u, &mut weights);
                acc.fold_user(&weights, &[100.0], &[100.0 + delta]);
            }
            let ci = acc.paired_delta();
            covered += u64::from(ci.ci_low <= TRUTH && TRUTH <= ci.ci_high);
        }
        let coverage = covered as f64 / SEEDS as f64;
        assert!(
            (0.90..=0.99).contains(&coverage),
            "95 % interval covered the truth in {covered} of {SEEDS} seeds"
        );
    }

    #[test]
    fn metric_acc_merge_is_exact_and_order_fixed() {
        // The guarantee under test is the runner's: a FIXED shard
        // partition merged in a FIXED order is bit-identical, whether or
        // not the merge passed through a checkpoint (encode/decode)
        // boundary partway. (A different partition gives a different —
        // equally valid — f64 summation order, which is why shard_size is
        // part of the run's identity.)
        let fold = |acc: &mut MetricAcc, users: std::ops::Range<u64>| {
            let mut weights = vec![0u8; 50];
            for u in users {
                let c = [10.0 + u as f64, 12.0];
                let t = [9.0 + u as f64, 11.5];
                draw_weights(1, u, &mut weights);
                acc.fold_user(&weights, &c, &t);
            }
        };
        let shards: Vec<MetricAcc> = (0..4)
            .map(|s| {
                let mut acc = MetricAcc::new(50, Aggregate::Median);
                fold(&mut acc, s * 10..(s + 1) * 10);
                acc
            })
            .collect();

        // Path A: uninterrupted merge of all four shards.
        let mut a = MetricAcc::new(50, Aggregate::Median);
        for s in &shards {
            a.merge(s);
        }
        // Path B: merge two, checkpoint (encode/decode), merge the rest.
        let mut b = MetricAcc::new(50, Aggregate::Median);
        b.merge(&shards[0]);
        b.merge(&shards[1]);
        let mut buf = Vec::new();
        b.encode(&mut buf);
        let mut b = MetricAcc::decode(&mut Reader::new(&buf), 50, Aggregate::Median).unwrap();
        b.merge(&shards[2]);
        b.merge(&shards[3]);

        assert_eq!(a.pairs(), b.pairs());
        assert_eq!(a.delta_sum.to_bits(), b.delta_sum.to_bits());
        assert_eq!(a.boot, b.boot);
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode(&mut ea);
        b.encode(&mut eb);
        assert_eq!(ea, eb, "resumed merge must be bit-identical");
        // Counts are exact regardless of path: 40 users × 2 sessions.
        assert_eq!(a.pairs(), 80);
        assert_eq!(a.control().count(), 80);
    }

    #[test]
    fn shard_state_round_trips_bit_exact() {
        let mut st = ShardState::new(20, &METRICS);
        for u in 0..30u64 {
            let vals: Vec<f64> = (0..3).map(|s| (u * 3 + s) as f64 * 0.25 + 1.0).collect();
            let tvals: Vec<f64> = vals.iter().map(|v| v * 0.9).collect();
            draw_weights(3, u, &mut st.scratch.weights);
            for m in st.metrics.iter_mut() {
                m.fold_user(&st.scratch.weights, &vals, &tvals);
            }
            st.users += 1;
        }
        st.record_failure(99, 99, "boom".into());
        let mut buf = Vec::new();
        st.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = ShardState::decode(&mut r, 20, &METRICS).unwrap();
        assert!(r.is_done());
        let mut buf2 = Vec::new();
        back.encode(&mut buf2);
        assert_eq!(buf, buf2, "decode/encode must be bit-exact");
        assert_eq!(back.failure_samples, st.failure_samples);
    }

    #[test]
    fn checkpoint_write_load_and_corruption() {
        let dir = std::env::temp_dir().join(format!("sammy-ckpt-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ShardState::new(5, &METRICS);
        write_checkpoint(&dir, 0xFEED, 3, &state).unwrap();
        let path = checkpoint_path(&dir, 3);
        let (_, next_shard) = load_checkpoint(&path, 0xFEED, 5, &METRICS).unwrap();
        assert_eq!(next_shard, 3);

        // Wrong config is a mismatch, not corruption.
        assert!(matches!(
            load_checkpoint(&path, 0xBEEF, 5, &METRICS),
            Err(CkptReject::ConfigMismatch)
        ));

        // Any flipped byte (including inside the checksum) is corruption.
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[cut] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    load_checkpoint(&path, 0xFEED, 5, &METRICS),
                    Err(CkptReject::Corrupt(_))
                ),
                "flipped byte {cut} must be detected"
            );
        }
        // Truncation too.
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(
            load_checkpoint(&path, 0xFEED, 5, &METRICS),
            Err(CkptReject::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// [`METRICS`] with its first `Mean` row read as a median: the same
    /// names, another payload layout.
    const FLIPPED: [(&str, Aggregate, MetricExtractor); 8] = {
        let mut rows = METRICS;
        rows[6].1 = Aggregate::Median;
        rows
    };

    /// A table that differs from another only in one row's aggregate
    /// refuses the other's checkpoint as a config mismatch, before its
    /// payload is read in a layout it was not written in.
    #[test]
    fn a_rows_aggregate_is_part_of_the_config_fingerprint() {
        let cfg = ExperimentConfig {
            users_per_arm: 4,
            pre_sessions: 1,
            sessions_per_user: 2,
            seed: 5,
            bootstrap_reps: 5,
            threads: 1,
        };
        let population = PopulationConfig::light();
        let fp = |rows| {
            config_fingerprint(
                &population,
                Arm::Production,
                Arm::HistoryReset,
                &cfg,
                2,
                rows,
            )
        };
        assert_ne!(fp(&METRICS), fp(&FLIPPED));
        let dir = std::env::temp_dir().join(format!("sammy-ckpt-agg-{}", std::process::id()));
        for (written, read) in [(&METRICS, &FLIPPED), (&FLIPPED, &METRICS)] {
            let _ = std::fs::remove_dir_all(&dir);
            let mut st = ShardState::new(cfg.bootstrap_reps, written);
            let (c, t) = user_sessions(1, &[0x1F, 0x1F]);
            st.fold_user(cfg.seed, 1, &c, &t, &obs::Registry::new());
            assert!(st.metrics()[6].control().count() > 0);
            write_checkpoint(&dir, fp(written), 1, &st).unwrap();
            let path = checkpoint_path(&dir, 1);
            assert!(matches!(
                load_checkpoint(&path, fp(read), cfg.bootstrap_reps, read),
                Err(CkptReject::ConfigMismatch)
            ));
            let (back, _) = load_checkpoint(&path, fp(written), cfg.bootstrap_reps, written)
                .unwrap_or_else(|_| panic!("its own table reads it"));
            assert_eq!(
                back.metrics()[6].control().value(),
                st.metrics()[6].control().value()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `ShardState::decode` as the checkpoint loader applies it: the whole
    /// payload, nothing left over.
    fn decode_payload(
        bytes: &[u8],
        reps: usize,
        rows: MetricTable,
    ) -> Result<ShardState, wire::WireError> {
        let mut r = Reader::new(bytes);
        let state = ShardState::decode(&mut r, reps, rows)?;
        if !r.is_done() {
            return Err(wire::WireError {
                context: "trailing bytes",
            });
        }
        Ok(state)
    }

    proptest::proptest! {
        /// Any one byte of a valid payload flipped, or the payload cut
        /// anywhere, is refused or decodes to a state that re-encodes to
        /// exactly the mutated bytes — never a panic. Payloads carry
        /// `Median` and `Mean` rows, no replicates or five, and arms empty
        /// (no users, or no session with the row's value) and not.
        #[test]
        fn mutated_payload_is_refused_or_reencodes_exactly(
            users in proptest::collection::vec(
                proptest::collection::vec(0u8..32, 1..3), 0..4),
            replicates in proptest::prelude::any::<bool>(),
            failure in proptest::prelude::any::<bool>(),
            at in 0.0f64..1.0,
            flip in 1u8..=255,
            cut in proptest::prelude::any::<bool>(),
        ) {
            let reps = if replicates { 5 } else { 0 };
            let mut st = ShardState::new(reps, &METRICS);
            for (u, masks) in users.iter().enumerate() {
                let (c, t) = user_sessions(u as u64, masks);
                st.fold_user(7, u as u64, &c, &t, &obs::Registry::new());
            }
            if failure {
                st.record_failure(9, 9, "boom".into());
            }
            let mut valid = Vec::new();
            st.encode(&mut valid);
            proptest::prop_assert!(decode_payload(&valid, reps, &METRICS).is_ok());
            let i = (at * valid.len() as f64) as usize;
            let mutated = if cut {
                valid[..i].to_vec()
            } else {
                let mut bytes = valid.clone();
                bytes[i] ^= flip;
                bytes
            };
            if let Ok(back) = decode_payload(&mutated, reps, &METRICS) {
                let mut again = Vec::new();
                back.encode(&mut again);
                proptest::prop_assert_eq!(again, mutated, "byte {} (cut: {})", i, cut);
            }
        }
    }

    /// The progress line counts sessions, not the sessions that have a
    /// value in the table's first row.
    #[test]
    fn progress_line_counts_every_session() {
        let mut st = ShardState::new(4, &METRICS);
        // Two sessions an arm; the second has no chunk throughput.
        let (c, t) = user_sessions(3, &[0x1F, 0x1E]);
        st.fold_user(9, 3, &c, &t, &obs::Registry::new());
        assert_eq!(st.metrics()[0].control().count(), 1);

        let path = std::env::temp_dir().join(format!("sammy-progress-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut f = std::fs::File::create(&path).unwrap();
        write_progress_line(&mut f, 1, 1, &st).unwrap();
        let line = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            line.contains(r#""control_sessions":2,"treatment_sessions":2"#),
            "{line}"
        );
    }

    #[test]
    fn checkpoint_pruning_keeps_newest() {
        let dir = std::env::temp_dir().join(format!("sammy-ckpt-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ShardState::new(2, &METRICS);
        for k in 1..=5 {
            write_checkpoint(&dir, 1, k, &state).unwrap();
        }
        let files = list_checkpoints(&dir).unwrap();
        let shards: Vec<usize> = files.iter().map(|&(_, s)| s).collect();
        assert_eq!(shards, vec![4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
