//! The resume-equivalence battery for the streaming shard-merge runner.
//!
//! The contract under test (DESIGN.md §16): for a fixed configuration —
//! population, arms, seed, `shard_size` — the streaming runner's final
//! state is **bit-identical** (a) for every thread count, (b) across any
//! kill-at-a-checkpoint/resume boundary (including chains of kills, and
//! resumes with a different thread count than the killed run), and (c)
//! across corrupt-newest-checkpoint fallback. Corruption is always
//! detected and tagged; an unusable checkpoint directory is a hard
//! [`SimError::Checkpoint`], never a silent wrong answer.
//!
//! The fold's statistics are checked against a reference built here from
//! `run_user` records — the collecting runner the fold replaced: exact
//! counts, means and paired means, a resampling cluster bootstrap for the
//! interval width, and exact pooled medians for the digest's.

use abtest::{
    percentile, run_user, user_at, Aggregate, Arm, Experiment, ExperimentConfig, MetricExtractor,
    PairedDelta, PopulationConfig, StreamRun, UserProfile, METRICS,
};
use netsim::SimError;
use proptest::prelude::*;
use rand::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const USERS: usize = 12;
const SHARD_SIZE: usize = 3; // 4 shards
const SEED: u64 = 77;

/// Short titles so the battery stays fast on one debug-mode core.
fn light_population() -> PopulationConfig {
    PopulationConfig {
        title_duration_s: (20, 45),
        ..PopulationConfig::default()
    }
}

/// The first `n` users of the population `(cfg, SEED)`: the users the
/// runner derives.
fn first_users(cfg: &PopulationConfig, n: usize) -> Vec<UserProfile> {
    (0..n as u64).map(|i| user_at(cfg, i, SEED)).collect()
}

fn light_cfg(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        users_per_arm: USERS,
        pre_sessions: 1,
        sessions_per_user: 1,
        seed: SEED,
        bootstrap_reps: 40,
        threads,
    }
}

const TREATMENT: Arm = Arm::Sammy { c0: 3.2, c1: 2.8 };

fn builder(threads: usize) -> abtest::ExperimentBuilder {
    Experiment::builder()
        .treatment(TREATMENT)
        .config(light_cfg(threads))
        .population_config(light_population())
        .shard_size(SHARD_SIZE)
        .checkpoint_every(1)
}

/// A unique scratch dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sammy-stream-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "bin"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// The uninterrupted single-thread golden run, computed once per process.
fn golden() -> &'static StreamRun {
    static GOLDEN: OnceLock<StreamRun> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let run = builder(1).run_streaming().unwrap();
        assert!(run.completed);
        assert_eq!(run.state.users as usize, USERS);
        run
    })
}

#[test]
fn thread_count_does_not_change_a_single_bit() {
    let base = golden();
    for threads in [4, 8] {
        let run = builder(threads).run_streaming().unwrap();
        assert_eq!(
            run.fingerprint(),
            base.fingerprint(),
            "threads={threads} changed the merged state"
        );
        assert_eq!(run.report().render(), base.report().render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Kill the run after a random checkpoint (under a random thread
    /// count), resume under another thread count: the finished state is
    /// bit-identical to the uninterrupted golden run.
    #[test]
    fn killed_then_resumed_run_is_bit_identical(
        abort_after in 1usize..4,
        kill_threads in 1usize..5,
        resume_threads in 1usize..5,
    ) {
        let dir = ScratchDir::new(&format!("kill{abort_after}t{kill_threads}r{resume_threads}"));
        let partial = builder(kill_threads)
            .checkpoint_dir(dir.path())
            .abort_after_checkpoints(abort_after)
            .run_streaming()
            .unwrap();
        prop_assert!(!partial.completed);
        prop_assert_eq!(partial.merged_shards, abort_after);
        prop_assert_eq!(partial.checkpoints_written, abort_after);

        let resumed = builder(resume_threads)
            .checkpoint_dir(dir.path())
            .resume(true)
            .run_streaming()
            .unwrap();
        prop_assert!(resumed.completed);
        prop_assert_eq!(resumed.resumed_from, Some(abort_after));
        prop_assert!(resumed.fallback_notes.is_empty());
        prop_assert_eq!(resumed.fingerprint(), golden().fingerprint());
        prop_assert_eq!(resumed.report().render(), golden().report().render());
    }
}

#[test]
fn chain_of_two_kills_still_matches() {
    let dir = ScratchDir::new("chain");
    let first = builder(2)
        .checkpoint_dir(dir.path())
        .abort_after_checkpoints(1)
        .run_streaming()
        .unwrap();
    assert_eq!(first.merged_shards, 1);

    let second = builder(1)
        .checkpoint_dir(dir.path())
        .resume(true)
        .abort_after_checkpoints(1)
        .run_streaming()
        .unwrap();
    assert!(!second.completed);
    assert_eq!(second.resumed_from, Some(1));
    assert_eq!(second.merged_shards, 2);

    let finished = builder(3)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap();
    assert!(finished.completed);
    assert_eq!(finished.fingerprint(), golden().fingerprint());
}

#[test]
fn resume_of_a_completed_run_is_identical_without_rerunning() {
    let dir = ScratchDir::new("completed");
    let full = builder(1)
        .checkpoint_dir(dir.path())
        .run_streaming()
        .unwrap();
    assert!(full.completed);
    assert_eq!(full.fingerprint(), golden().fingerprint());

    // The final checkpoint covers every shard: resume decodes it and runs
    // zero sessions, yet the state (and fingerprint) is unchanged.
    let resumed = builder(1)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.resumed_from, Some(resumed.shards));
    assert_eq!(resumed.fingerprint(), golden().fingerprint());
}

#[test]
fn corrupt_newest_checkpoint_falls_back_with_a_tagged_note() {
    let dir = ScratchDir::new("corrupt-one");
    let partial = builder(1)
        .checkpoint_dir(dir.path())
        .abort_after_checkpoints(2)
        .run_streaming()
        .unwrap();
    assert_eq!(partial.checkpoints_written, 2);
    let files = checkpoint_files(dir.path());
    assert_eq!(files.len(), 2, "KEEP_CHECKPOINTS retains two files");

    // Tear the newest file mid-payload.
    let newest = files.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(newest, &bytes).unwrap();

    let resumed = builder(1)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap();
    // Fell back to the shard-1 checkpoint, said so, and still finished
    // bit-identical.
    assert_eq!(resumed.resumed_from, Some(1));
    assert_eq!(resumed.fallback_notes.len(), 1);
    assert!(
        resumed.fallback_notes[0].contains("checksum"),
        "note must name the defect: {:?}",
        resumed.fallback_notes
    );
    assert_eq!(resumed.fingerprint(), golden().fingerprint());
}

#[test]
fn all_checkpoints_corrupt_is_a_hard_tagged_error() {
    let dir = ScratchDir::new("corrupt-all");
    builder(1)
        .checkpoint_dir(dir.path())
        .abort_after_checkpoints(2)
        .run_streaming()
        .unwrap();
    for f in checkpoint_files(dir.path()) {
        let bytes = std::fs::read(&f).unwrap();
        std::fs::write(&f, &bytes[..bytes.len() / 2]).unwrap(); // truncate
    }
    let err = builder(1)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap_err();
    match &err {
        SimError::Checkpoint { reason, .. } => {
            assert!(reason.contains("corrupt"), "{err}");
        }
        other => panic!("expected SimError::Checkpoint, got {other:?}"),
    }
}

#[test]
fn checkpoint_of_an_older_version_is_refused_with_a_tagged_note() {
    // A version-2 file was written before the row table joined the config
    // fingerprint; refusing it by version says why, where a fingerprint
    // mismatch would not. Forge one that is valid in every other respect:
    // rewrite the version word, re-stamp the trailing FNV-1a.
    let dir = ScratchDir::new("old-version");
    builder(1)
        .checkpoint_dir(dir.path())
        .abort_after_checkpoints(1)
        .run_streaming()
        .unwrap();
    let files = checkpoint_files(dir.path());
    assert_eq!(files.len(), 1);
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let body = bytes.len() - 8;
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    let mut h = tdigest::wire::Fnv::new();
    h.write(&bytes[..body]);
    bytes[body..].copy_from_slice(&h.finish().to_le_bytes());
    std::fs::write(&files[0], &bytes).unwrap();

    // The only candidate is unusable: a hard, tagged error.
    let err = builder(1)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap_err();
    match &err {
        SimError::Checkpoint { reason, .. } => {
            assert!(reason.contains("unsupported version 2"), "{err}");
        }
        other => panic!("expected SimError::Checkpoint, got {other:?}"),
    }

    // With a current-version predecessor beside it, resume skips it, says
    // why, and still finishes bit-identical.
    let dir = ScratchDir::new("old-version-fallback");
    builder(1)
        .checkpoint_dir(dir.path())
        .abort_after_checkpoints(1)
        .run_streaming()
        .unwrap();
    std::fs::write(dir.path().join("ckpt-0000000002.bin"), &bytes).unwrap();
    let resumed = builder(1)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap();
    assert_eq!(resumed.resumed_from, Some(1));
    assert_eq!(
        resumed.fallback_notes.len(),
        1,
        "{:?}",
        resumed.fallback_notes
    );
    assert!(resumed.fallback_notes[0].contains("unsupported version 2"));
    assert_eq!(resumed.fingerprint(), golden().fingerprint());
}

#[test]
fn checkpoint_of_a_different_run_is_rejected() {
    let dir = ScratchDir::new("mismatch");
    builder(1)
        .checkpoint_dir(dir.path())
        .abort_after_checkpoints(1)
        .run_streaming()
        .unwrap();
    // Same directory, different seed → different config fingerprint.
    let err = builder(1)
        .config(ExperimentConfig {
            seed: SEED + 1,
            ..light_cfg(1)
        })
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap_err();
    match &err {
        SimError::Checkpoint { reason, .. } => {
            assert!(reason.contains("fingerprint"), "{err}");
        }
        other => panic!("expected SimError::Checkpoint, got {other:?}"),
    }
}

#[test]
fn resume_without_checkpoint_dir_is_invalid_config() {
    let err = builder(1).resume(true).run_streaming().unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig { .. }), "{err}");
}

/// One arm's records, grouped by user in population order — what the
/// collecting runner held.
fn records(
    pop: &[UserProfile],
    arm: Arm,
    cfg: &ExperimentConfig,
) -> Vec<Vec<abtest::SessionRecord>> {
    pop.iter().map(|u| run_user(u, arm, cfg)).collect()
}

/// Per user, the finite values of metric `f`.
fn by_user(arm: &[Vec<abtest::SessionRecord>], f: MetricExtractor) -> Vec<Vec<f64>> {
    arm.iter()
        .map(|u| u.iter().filter_map(f).filter(|v| v.is_finite()).collect())
        .collect()
}

/// The resampling reference for the fold's interval: the paired
/// per-session mean delta, with a cluster bootstrap drawing users with
/// replacement (`StdRng`, one `gen_range(0..n)` per user per replicate).
fn resampled_paired_delta(
    control: &[Vec<f64>],
    treatment: &[Vec<f64>],
    reps: usize,
    seed: u64,
) -> PairedDelta {
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
    let mean = all.iter().sum::<f64>() / all.len() as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = user_deltas.len();
    let boots: Vec<f64> = (0..reps)
        .map(|_| {
            let (mut sum, mut count) = (0.0, 0usize);
            for _ in 0..n {
                let u = &user_deltas[rng.gen_range(0..n)];
                sum += u.iter().sum::<f64>();
                count += u.len();
            }
            sum / count as f64
        })
        .collect();
    PairedDelta {
        mean_delta_pct: mean,
        ci_low: percentile(&boots, 0.025),
        ci_high: percentile(&boots, 0.975),
    }
}

#[test]
fn streaming_stats_match_the_collecting_runner_exactly() {
    // The same users through the fold and through `run_user`:
    // every exact statistic (counts, means, paired mean deltas) must
    // agree; only the CI machinery (resampling vs Poisson replicates) and
    // quantile estimator (sort vs t-digest) are allowed to differ.
    let pop = first_users(&light_population(), USERS);
    let cfg = light_cfg(1);
    let (control, treatment) = (
        records(&pop, Arm::Production, &cfg),
        records(&pop, TREATMENT, &cfg),
    );
    let streamed = golden();

    assert_eq!(streamed.state.users as usize, USERS);
    let sessions = |arm: &[Vec<abtest::SessionRecord>]| arm.iter().map(Vec::len).sum::<usize>();
    assert_eq!(streamed.state.control_sessions as usize, sessions(&control));
    assert_eq!(
        streamed.state.treatment_sessions as usize,
        sessions(&treatment)
    );

    let rows = streamed.report().rows;
    for ((acc, row), &(name, _, f)) in streamed.state.metrics().iter().zip(&rows).zip(&METRICS) {
        let (c_by_user, t_by_user) = (by_user(&control, f), by_user(&treatment, f));
        let c_vals: Vec<f64> = c_by_user.iter().flatten().copied().collect();
        let t_count: usize = t_by_user.iter().map(Vec::len).sum();
        assert_eq!(acc.control().count() as usize, c_vals.len(), "{name}");
        assert_eq!(acc.treatment().count() as usize, t_count, "{name}");
        let c_mean = c_vals.iter().sum::<f64>() / c_vals.len().max(1) as f64;
        assert!(
            (acc.control().mean() - c_mean).abs() <= 1e-9 * c_mean.abs().max(1.0),
            "{name}: streaming mean {} vs collected {c_mean}",
            acc.control().mean()
        );

        let reference = resampled_paired_delta(&c_by_user, &t_by_user, 40, 1);
        let streaming = row.paired;
        if reference.mean_delta_pct.is_nan() {
            assert!(streaming.mean_delta_pct.is_nan(), "{name}");
        } else {
            assert!(
                (streaming.mean_delta_pct - reference.mean_delta_pct).abs()
                    <= 1e-9 * reference.mean_delta_pct.abs().max(1.0),
                "{name}: paired mean {} vs {}",
                streaming.mean_delta_pct,
                reference.mean_delta_pct
            );
        }
    }
}

#[test]
fn streaming_interval_is_as_wide_as_the_resampling_one() {
    // Calibration against the resampling bootstrap: Poisson(1) weights and
    // with-replacement resampling of users estimate the same sampling
    // distribution, so at equal replicate counts the two 95 % intervals have
    // about the same width on every row that has one.
    const CAL_USERS: usize = 48;
    const CAL_REPS: usize = 400;
    let pop = first_users(&light_population(), CAL_USERS);
    let cfg = light_cfg(2);
    let (control, treatment) = (
        records(&pop, Arm::Production, &cfg),
        records(&pop, TREATMENT, &cfg),
    );
    let streamed = builder(2)
        .config(ExperimentConfig {
            users_per_arm: CAL_USERS,
            bootstrap_reps: CAL_REPS,
            ..cfg.clone()
        })
        .run_streaming()
        .unwrap();

    let mut compared = 0;
    for (row, &(name, _, f)) in streamed.report().rows.iter().zip(&METRICS) {
        let reference =
            resampled_paired_delta(&by_user(&control, f), &by_user(&treatment, f), CAL_REPS, 1);
        let streaming = row.paired;
        let want = reference.ci_high - reference.ci_low;
        let got = streaming.ci_high - streaming.ci_low;
        if !(want.is_finite() && got.is_finite()) {
            continue;
        }
        if want == 0.0 {
            // Every pair has the same delta (these short titles never
            // rebuffer or change quality): no resampling spreads it.
            assert_eq!(got, 0.0, "{name}");
            continue;
        }
        compared += 1;
        assert!(
            (0.7..=1.3).contains(&(got / want)),
            "{name}: streaming CI width {got} vs resampling {want}"
        );
    }
    assert!(compared >= 3, "only {compared} rows had a CI of any width");
}

/// The report's point statistic is a digest median; the collecting runner
/// sorted. On a fixed population the two percent changes agree within
/// 1.5 points — the widest gap here is play delay's (0.96 points over 128
/// sessions an arm, interpolated across near-discrete values), against
/// Table 2 effects of 13–58 % on the rows read through this statistic.
#[test]
fn digest_median_change_tracks_the_exact_one() {
    const N: usize = 64;
    let pop = first_users(&PopulationConfig::default(), N);
    let cfg = ExperimentConfig {
        users_per_arm: N,
        pre_sessions: 2,
        sessions_per_user: 2,
        seed: SEED,
        bootstrap_reps: 0,
        threads: 2,
    };
    let (control, treatment) = (
        records(&pop, Arm::Production, &cfg),
        records(&pop, TREATMENT, &cfg),
    );
    let report = Experiment::builder()
        .treatment(TREATMENT)
        .config(cfg)
        .run_table()
        .unwrap()
        .report();
    let exact_median =
        |arm: &[Vec<abtest::SessionRecord>], f| percentile(&by_user(arm, f).concat(), 0.5);
    let mut compared = 0;
    for (row, &(name, agg, f)) in report.rows.iter().zip(&METRICS) {
        if agg != Aggregate::Median {
            continue;
        }
        let (c, t) = (exact_median(&control, f), exact_median(&treatment, f));
        let exact = (t - c) / c * 100.0;
        assert!(
            (row.pct_change - exact).abs() <= 1.5,
            "{name}: digest {} vs exact {exact}",
            row.pct_change
        );
        compared += 1;
    }
    assert_eq!(compared, 6);
}

#[test]
fn resumed_telemetry_jsonl_is_byte_identical() {
    if !obs::ENABLED {
        return; // a default build records nothing to compare
    }
    let dir = ScratchDir::new("obs-jsonl");
    let golden_jsonl = golden().state.registry.to_jsonl();
    assert!(golden_jsonl.contains("abtest.sessions"));

    builder(2)
        .checkpoint_dir(dir.path())
        .abort_after_checkpoints(2)
        .run_streaming()
        .unwrap();
    let resumed = builder(4)
        .checkpoint_dir(dir.path())
        .resume(true)
        .run_streaming()
        .unwrap();
    assert_eq!(resumed.state.registry.to_jsonl(), golden_jsonl);
}
