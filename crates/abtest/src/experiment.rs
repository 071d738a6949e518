//! The A/B experiment runner.
//!
//! Mirrors the paper's methodology (§5): users are randomly assigned to a
//! control arm (the production algorithm) or a treatment arm; sessions run
//! for each user; per-session metrics are folded into per-arm medians and
//! a paired per-session mean with a bootstrap CI
//! ([`crate::streaming`]). As in §5.7, historical throughput
//! is reset (or pre-seeded identically) in both arms for an
//! apples-to-apples comparison, via a configurable pre-experiment phase
//! that also establishes each user's pre-experiment p95 chunk throughput
//! for the Fig 3 bucketing. Fig 6's treatment, [`Arm::HistoryReset`], is
//! the one arm that does not start from that warmed history.

use crate::population::{bucket_label, bucket_of, PopulationConfig, UserProfile};
use crate::stats::{percentile, Aggregate};
use crate::streaming::StreamRun;
use abr::{
    initial_rung_for, shared_history, HistoryPolicy, HistoryStore, InitialSelectorConfig, Mpc,
    ProductionAbr, SharedHistory,
};
use fluidsim::{SessionBuilder, SessionOutcome};
use netsim::{SimDuration, SimError};
use sammy_core::{NaivePacedAbr, PaceSelector, Sammy, SammyConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use video::{Abr, Title};

/// An experiment arm: which algorithm variant users run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Arm {
    /// The production algorithm: MPC playing phase, all-samples history,
    /// no pacing.
    Production,
    /// Sammy with the given pace multipliers (§4.3; production parameters
    /// are `c0 = 3.2`, `c1 = 2.8`).
    Sammy {
        /// Pace multiplier at empty buffer.
        c0: f64,
        /// Pace multiplier at full buffer.
        c1: f64,
    },
    /// Sammy's initial-phase changes only, without pacing (Table 3).
    InitialOnly,
    /// The §5.5 baseline: production ABR with a constant pace multiplier
    /// on every chunk including the initial phase.
    NaivePaced {
        /// Constant pace multiplier (the paper uses 4.0).
        multiplier: f64,
    },
    /// Fig 6's treatment (§5.7): the production algorithm from an empty
    /// history store — the device's historical throughput wiped when the
    /// experiment begins, while the control keeps what the pre-experiment
    /// sessions taught it.
    HistoryReset,
}

impl Arm {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Arm::Production => "production".into(),
            Arm::Sammy { c0, c1 } => format!("sammy(c0={c0},c1={c1})"),
            Arm::InitialOnly => "initial-only".into(),
            Arm::NaivePaced { multiplier } => format!("naive-paced({multiplier}x)"),
            Arm::HistoryReset => "history-reset".into(),
        }
    }

    /// Build the ABR for one session of this arm.
    pub fn build_abr(&self, history: SharedHistory) -> Box<dyn Abr> {
        match *self {
            Arm::Production | Arm::HistoryReset => Box::new(ProductionAbr::new(
                Mpc::default(),
                history,
                HistoryPolicy::AllSamples,
            )),
            Arm::Sammy { c0, c1 } => Box::new(Sammy::new(
                Mpc::default(),
                history,
                SammyConfig {
                    pace: PaceSelector::new(c0, c1),
                },
            )),
            Arm::InitialOnly => Box::new(ProductionAbr::new(
                Mpc::default(),
                history,
                HistoryPolicy::InitialOnly,
            )),
            Arm::NaivePaced { multiplier } => Box::new(NaivePacedAbr::new(
                ProductionAbr::new(Mpc::default(), history, HistoryPolicy::AllSamples),
                multiplier,
            )),
        }
    }
}

/// Every spec-level arm is a runner arm. The converse does not hold:
/// [`Arm::HistoryReset`] is Fig 6's, reached from code only.
impl From<&spec::ArmSpec> for Arm {
    fn from(s: &spec::ArmSpec) -> Arm {
        match *s {
            spec::ArmSpec::Production => Arm::Production,
            spec::ArmSpec::Sammy { c0, c1 } => Arm::Sammy { c0, c1 },
            spec::ArmSpec::InitialOnly => Arm::InitialOnly,
            spec::ArmSpec::NaivePaced { multiplier } => Arm::NaivePaced { multiplier },
        }
    }
}

/// The runner config is the sizing/seed subset of an [`spec::ExperimentSpec`].
impl From<&spec::ExperimentSpec> for ExperimentConfig {
    fn from(s: &spec::ExperimentSpec) -> ExperimentConfig {
        ExperimentConfig {
            users_per_arm: s.users_per_arm,
            pre_sessions: s.pre_sessions,
            sessions_per_user: s.sessions_per_user,
            seed: s.seed,
            bootstrap_reps: s.bootstrap_reps,
            threads: s.threads,
        }
    }
}

/// The population model an [`spec::ExperimentSpec`] asks for.
pub fn population_config_from_spec(s: &spec::ExperimentSpec) -> PopulationConfig {
    if s.light_population {
        PopulationConfig::light()
    } else {
        PopulationConfig::default()
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Users per arm.
    pub users_per_arm: usize,
    /// Pre-experiment sessions per user (run with production; builds
    /// history and pre-experiment throughput).
    pub pre_sessions: usize,
    /// Experiment sessions per user.
    pub sessions_per_user: usize,
    /// Seed for population and session randomness.
    pub seed: u64,
    /// Bootstrap replicates for the paired-mean CI; 0 folds point
    /// estimates only (every interval NaN).
    pub bootstrap_reps: usize,
    /// Worker threads for the sharded runner (0 = all available cores).
    /// Results are bit-identical for every value — see [`Experiment`].
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            users_per_arm: 400,
            pre_sessions: 3,
            sessions_per_user: 4,
            seed: 1,
            bootstrap_reps: 600,
            threads: 0,
        }
    }
}

impl ExperimentConfig {
    /// Sessions simulated for `users` user pairs: each pair runs its
    /// pre-experiment sessions once and its experiment sessions under
    /// both arms.
    pub fn sessions_simulated(&self, users: usize) -> u64 {
        users as u64 * (self.pre_sessions as u64 + 2 * self.sessions_per_user as u64)
    }

    /// Reject configurations that cannot produce a meaningful experiment.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |field: &'static str, reason: &str| {
            Err(SimError::InvalidConfig {
                field,
                reason: reason.to_string(),
            })
        };
        if self.users_per_arm == 0 {
            return invalid("users_per_arm", "must be at least 1");
        }
        if self.sessions_per_user == 0 {
            return invalid("sessions_per_user", "must be at least 1");
        }
        if self.bootstrap_reps > spec::MAX_BOOTSTRAP_REPS {
            return invalid(
                "bootstrap_reps",
                &format!("must be at most {}", spec::MAX_BOOTSTRAP_REPS),
            );
        }
        Ok(())
    }
}

/// Per-session record kept by the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The owning user's id.
    pub user: u64,
    /// The session's position in the experiment phase, counted from 0.
    pub session: u64,
    /// The user's pre-experiment p95 chunk throughput (Mbps).
    pub pre_p95_mbps: f64,
    /// The session's metrics.
    pub outcome: SessionOutcome,
}

/// Run all sessions for one user under `arm`, returning the records.
///
/// The one-arm composition of the two phases a user pair is built from:
/// the pre-experiment warm-up, then the experiment sessions under `arm`
/// from a private copy of the warmed history store.
pub fn run_user(user: &UserProfile, arm: Arm, cfg: &ExperimentConfig) -> Vec<SessionRecord> {
    let warm = warm_up(user, cfg);
    run_arm(user, arm, &warm, &experiment_sessions(user, cfg))
}

/// A user's state when the experiment begins — shared by every arm.
struct WarmUp {
    /// The device's historical store after the pre-experiment sessions
    /// (the cold-start store when `pre_sessions` is 0).
    store: HistoryStore,
    /// The user's pre-experiment p95 chunk throughput (Mbps).
    pre_p95_mbps: f64,
}

/// The pre-experiment phase: `pre_sessions` sessions that always use
/// [`Arm::Production`] (they model the user's traffic before the test
/// began). Their chunk throughputs define the user's pre-experiment p95.
fn warm_up(user: &UserProfile, cfg: &ExperimentConfig) -> WarmUp {
    let history = shared_history();
    let mut pre_tputs: Vec<f64> = Vec::new();
    for s in 0..cfg.pre_sessions as u64 {
        let out = run_one(
            user,
            Arm::Production,
            &history,
            &Session::new(user, s, cfg.seed),
        );
        pre_tputs.extend(out.chunk_throughputs_mbps.iter().copied());
    }
    WarmUp {
        store: history.snapshot(),
        pre_p95_mbps: percentile(&pre_tputs, 0.95),
    }
}

/// Session `index` of a user as any arm plays it: its title and its
/// capacity-jitter stream, each a function of `(user, index, seed)` only,
/// so a user pair draws them once for both arms.
struct Session {
    title: Arc<Title>,
    jitter: Vec<f64>,
}

impl Session {
    fn new(user: &UserProfile, index: u64, seed: u64) -> Self {
        let title = Arc::new(user.title(index));
        let seed = user
            .seed
            .wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(seed);
        let jitter = fluidsim::jitter_stream(&user.network, seed, title.len());
        Session { title, jitter }
    }
}

/// A user's experiment sessions, in run order; every arm plays these.
fn experiment_sessions(user: &UserProfile, cfg: &ExperimentConfig) -> Vec<Session> {
    (cfg.pre_sessions..cfg.pre_sessions + cfg.sessions_per_user)
        .map(|s| Session::new(user, s as u64, cfg.seed))
        .collect()
}

/// The experiment phase under one arm. The arm starts from its own deep
/// copy of the warmed store — [`Arm::HistoryReset`] from an empty one —
/// so what it learns is invisible to every other arm run from the same
/// `warm`.
fn run_arm(
    user: &UserProfile,
    arm: Arm,
    warm: &WarmUp,
    sessions: &[Session],
) -> Vec<SessionRecord> {
    let store = match arm {
        Arm::HistoryReset => HistoryStore::default(),
        _ => warm.store.clone(),
    };
    let history = SharedHistory::from_store(store);
    (0..)
        .zip(sessions)
        .map(|(session, planned)| {
            let outcome = run_one(user, arm, &history, planned);
            obs::counter!("abtest.sessions", 1);
            SessionRecord {
                user: user.id,
                session,
                pre_p95_mbps: warm.pre_p95_mbps,
                outcome,
            }
        })
        .collect()
}

/// One `session` for `user` under `arm`, from the device's `history`
/// store, which then folds in the session's samples. The one session
/// recipe: the A/B runner's warm-up and every arm play their sessions
/// through it.
fn run_one(
    user: &UserProfile,
    arm: Arm,
    history: &SharedHistory,
    session: &Session,
) -> SessionOutcome {
    let estimate = history.discounted_estimate();
    let ladder = &session.title.ladder;
    let predicted_rung = initial_rung_for(estimate, ladder, &InitialSelectorConfig::default());
    let abr = arm.build_abr(history.clone());
    let outcome = SessionBuilder::new(&user.network, session.title.clone(), abr)
        .history_estimate(estimate)
        .predicted_initial_rung(predicted_rung)
        .max_wall_clock(user.title_duration * 3 + SimDuration::from_secs(120))
        .jitter(&session.jitter)
        .startup_latency(user.startup_latency)
        .run();
    // Fold this session's samples into the device's historical store.
    history.end_session();
    outcome
}

/// The single entry point for running experiments.
///
/// One builder, one runner ([`ExperimentBuilder::run_streaming`]), one
/// result type. See [`ExperimentBuilder`] for the options.
///
/// ```ignore
/// let run = Experiment::builder()
///     .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
///     .config(ExperimentConfig { threads: 8, ..Default::default() })
///     .run_streaming()?;
/// println!("{}", run.report().render());
/// ```
pub struct Experiment;

impl Experiment {
    /// Start configuring an experiment.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }
}

/// Options for [`Experiment::builder`].
///
/// Defaults: production vs. Sammy (§4.3 parameters), the default
/// [`ExperimentConfig`], users derived from [`PopulationConfig::default`],
/// the [`METRICS`] row table, and the sharded runner over all cores.
///
/// A run's users are always `user_at(population config, i, cfg.seed)` for
/// `i < cfg.users_per_arm` ([`crate::population::user_at`]): the
/// population is named by its config, users and seed, never handed over.
pub struct ExperimentBuilder {
    cfg: ExperimentConfig,
    control: Arm,
    treatment: Arm,
    population_cfg: PopulationConfig,
    rows: MetricTable,
    stream: crate::streaming::StreamConfig,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            cfg: ExperimentConfig::default(),
            control: Arm::Production,
            treatment: Arm::Sammy { c0: 3.2, c1: 2.8 },
            population_cfg: PopulationConfig::default(),
            rows: &METRICS,
            stream: crate::streaming::StreamConfig::default(),
        }
    }
}

impl ExperimentBuilder {
    /// The control arm (default: [`Arm::Production`]).
    pub fn control(mut self, arm: Arm) -> Self {
        self.control = arm;
        self
    }

    /// The treatment arm (default: Sammy with production parameters).
    pub fn treatment(mut self, arm: Arm) -> Self {
        self.treatment = arm;
        self
    }

    /// The population model users are drawn from (default:
    /// [`PopulationConfig::default`]).
    pub fn population_config(mut self, cfg: PopulationConfig) -> Self {
        self.population_cfg = cfg;
        self
    }

    /// The report's row table (default [`METRICS`]; Fig 3 folds
    /// [`BUCKET_METRICS`]). Part of the run's identity: a checkpoint
    /// written under one table is refused under another.
    pub fn rows(mut self, rows: MetricTable) -> Self {
        self.rows = rows;
        self
    }

    /// The run's sizing, seed and worker count: the whole
    /// [`ExperimentConfig`] at once. Results are bit-identical for every
    /// `threads` value — shard states (and telemetry registries) merge back
    /// in population order.
    pub fn config(mut self, cfg: ExperimentConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Apply a complete [`spec::ExperimentSpec`]: arms, sizing, seed,
    /// population model, and shard size in one call — the spec is the
    /// single schema shared with the HTTP API and the CLI. Network and
    /// transport fields don't apply here (the population model carries
    /// its own network draw); the lab harnesses consume those.
    pub fn spec(mut self, s: &spec::ExperimentSpec) -> Self {
        self.control = (&s.control).into();
        self.treatment = (&s.treatment).into();
        self.cfg = s.into();
        self.population_cfg = population_config_from_spec(s);
        self.stream.shard_size = s.shard_size;
        self
    }

    /// Users per shard for the streaming runner (default 256). The shard
    /// partition — not the thread count — defines the merge order, so
    /// results are bit-identical for every thread count at a fixed
    /// `shard_size`; changing `shard_size` changes digest merge order and
    /// therefore the (equally valid) quantile estimates.
    pub fn shard_size(mut self, n: usize) -> Self {
        self.stream.shard_size = n;
        self
    }

    /// Directory for streaming-run checkpoints (none by default). Each
    /// checkpoint is the full merged state after a prefix of shards;
    /// writes are atomic (tmp + rename) and the previous checkpoint is
    /// retained, so a torn write can always fall back.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.stream.checkpoint_dir = Some(dir.into());
        self
    }

    /// Merged shards between checkpoints (default 16).
    pub fn checkpoint_every(mut self, shards: usize) -> Self {
        self.stream.checkpoint_every = shards;
        self
    }

    /// Resume from the newest valid checkpoint in the checkpoint dir. The
    /// resumed run's final state is bit-identical to an uninterrupted one;
    /// with no checkpoint present the run starts from shard 0.
    pub fn resume(mut self, resume: bool) -> Self {
        self.stream.resume = resume;
        self
    }

    /// Test/ops hook: stop the run cleanly after writing `n` checkpoints,
    /// as if the process had been killed at a checkpoint boundary. The
    /// resume battery uses this to exercise kill/resume without signals.
    pub fn abort_after_checkpoints(mut self, n: usize) -> Self {
        self.stream.abort_after_checkpoints = Some(n);
        self
    }

    /// Append one JSONL progress line per merged shard to `path` (the
    /// serve daemon's live metrics tail). The file is an append log across
    /// resumes; the lines themselves carry only deterministic counters.
    pub fn progress_jsonl(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.stream.progress_path = Some(path.into());
        self
    }

    /// Validate the configuration and run the experiment through the
    /// streaming shard-merge runner.
    ///
    /// The paired design: every user runs both arms with identical titles,
    /// seeds, and pre-experiment history, removing all between-user
    /// variance from the comparison (a simulator can run the exact
    /// counterfactual; production tests need scale instead).
    ///
    /// Workers fold each user's paired sessions directly into per-shard
    /// accumulators (t-digest summaries, exact sums, bootstrap replicate
    /// sums, telemetry registries); shards merge into the global state in
    /// strict shard order. Nothing per-user is retained, so a 10M-user arm
    /// costs the same memory as a 10-user one, and the users themselves
    /// are derived per index ([`crate::population::user_at`]) — the
    /// population is never materialized either. See [`StreamRun`].
    pub fn run_streaming(self) -> Result<StreamRun, SimError> {
        self.cfg.validate()?;
        crate::streaming::run_stream_impl(
            &self.population_cfg,
            self.control,
            self.treatment,
            &self.cfg,
            &self.stream,
            self.rows,
        )
    }

    /// A table-sized run — a figure, a sweep point, the CLI's A/B:
    /// [`run_streaming`](Self::run_streaming) at a fixed 16 users a shard
    /// (a few hundred users spread over every worker), where a user whose
    /// sessions panicked fails the run with [`SimError::Experiment`]
    /// instead of leaving the table short of a user.
    pub fn run_table(self) -> Result<StreamRun, SimError> {
        let run = self.shard_size(TABLE_SHARD_SIZE).run_streaming()?;
        match run.state.failure_samples.first() {
            Some(f) => Err(SimError::Experiment(format!(
                "session for user {} panicked: {}",
                f.user, f.message
            ))),
            None => Ok(run),
        }
    }
}

/// Users per shard of [`ExperimentBuilder::run_table`].
const TABLE_SHARD_SIZE: usize = 16;

/// Paired per-user records: (control sessions, treatment sessions).
pub(crate) type UserSessions = (Vec<SessionRecord>, Vec<SessionRecord>);

/// Run both arms for one user inside a fresh telemetry registry, returning
/// the registry alongside the records so shards can merge deterministically
/// at the user granularity. The caller's registry is restored afterwards.
pub(crate) fn run_user_pair(
    user: &UserProfile,
    control: Arm,
    treatment: Arm,
    cfg: &ExperimentConfig,
) -> (UserSessions, obs::Registry) {
    let outer = obs::install(obs::Registry::new());
    obs::counter!("abtest.users", 1);
    let warm = warm_up(user, cfg);
    let sessions = experiment_sessions(user, cfg);
    let pair = (
        run_arm(user, control, &warm, &sessions),
        run_arm(user, treatment, &warm, &sessions),
    );
    let per_user = obs::install(outer);
    (pair, per_user)
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A per-session metric extractor. Capture-free (`fn`, not a closure) so
/// worker threads can carry a row table without boxing.
pub type MetricExtractor = fn(&SessionRecord) -> Option<f64>;

/// A report's rows: name, aggregation rule, extractor. The fold keeps one
/// accumulator per row, so the table is part of a run's identity.
pub type MetricTable = &'static [(&'static str, Aggregate, MetricExtractor)];

/// The Table 2 metric set: name, aggregation rule, extractor — the
/// default row table.
pub const METRICS: [(&str, Aggregate, MetricExtractor); 8] = [
    ("Chunk Throughput", Aggregate::Median, |s| {
        s.outcome.avg_chunk_throughput.map(|r| r.mbps())
    }),
    ("% Retransmits", Aggregate::Median, |s| {
        Some(s.outcome.retx_fraction * 100.0)
    }),
    ("RTT", Aggregate::Median, |s| {
        let v = s.outcome.median_rtt_ms;
        v.is_finite().then_some(v)
    }),
    ("Initial VMAF", Aggregate::Median, |s| {
        s.outcome.qoe.initial_vmaf
    }),
    ("VMAF", Aggregate::Median, |s| s.outcome.qoe.mean_vmaf),
    ("Play Delay", Aggregate::Median, |s| {
        s.outcome.qoe.play_delay.map(|d| d.as_secs_f64())
    }),
    ("Rebuffers (% sess)", Aggregate::Mean, |s| {
        Some(if s.outcome.qoe.had_rebuffer() {
            1.0
        } else {
            0.0
        })
    }),
    ("Rebuffers (/ hr)", Aggregate::Mean, |s| {
        Some(s.outcome.qoe.rebuffers_per_hour())
    }),
];

/// Fig 3's row table: chunk throughput of the sessions whose user's
/// pre-experiment p95 falls in each bucket. Both arms of a user share that
/// p95, so a user's sessions pair up within one row.
pub const BUCKET_METRICS: [(&str, Aggregate, MetricExtractor); 5] = [
    (bucket_label(0), Aggregate::Median, bucket_throughput::<0>),
    (bucket_label(1), Aggregate::Median, bucket_throughput::<1>),
    (bucket_label(2), Aggregate::Median, bucket_throughput::<2>),
    (bucket_label(3), Aggregate::Median, bucket_throughput::<3>),
    (bucket_label(4), Aggregate::Median, bucket_throughput::<4>),
];

fn bucket_throughput<const B: usize>(s: &SessionRecord) -> Option<f64> {
    let tput = s.outcome.avg_chunk_throughput.map(|r| r.mbps());
    tput.filter(|_| bucket_of(s.pre_p95_mbps) == Some(B))
}

/// Fig 6's row table: mean initial VMAF by day of the experiment, two
/// sessions a day — day `d` is sessions `2d` and `2d + 1`. Mean, not
/// median: initial quality is a discrete ladder value, so a day's median
/// snaps to the top rung as soon as the typical user recovers, hiding the
/// long convergence tail the paper's Fig 6 shows; the mean tracks the
/// minority of sessions still below their warmed-history rung.
pub const DAY_METRICS: [(&str, Aggregate, MetricExtractor); 14] = [
    ("day 0", Aggregate::Mean, day_initial_vmaf::<0>),
    ("day 1", Aggregate::Mean, day_initial_vmaf::<1>),
    ("day 2", Aggregate::Mean, day_initial_vmaf::<2>),
    ("day 3", Aggregate::Mean, day_initial_vmaf::<3>),
    ("day 4", Aggregate::Mean, day_initial_vmaf::<4>),
    ("day 5", Aggregate::Mean, day_initial_vmaf::<5>),
    ("day 6", Aggregate::Mean, day_initial_vmaf::<6>),
    ("day 7", Aggregate::Mean, day_initial_vmaf::<7>),
    ("day 8", Aggregate::Mean, day_initial_vmaf::<8>),
    ("day 9", Aggregate::Mean, day_initial_vmaf::<9>),
    ("day 10", Aggregate::Mean, day_initial_vmaf::<10>),
    ("day 11", Aggregate::Mean, day_initial_vmaf::<11>),
    ("day 12", Aggregate::Mean, day_initial_vmaf::<12>),
    ("day 13", Aggregate::Mean, day_initial_vmaf::<13>),
];

fn day_initial_vmaf<const D: u64>(s: &SessionRecord) -> Option<f64> {
    s.outcome.qoe.initial_vmaf.filter(|_| s.session / 2 == D)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{user_at, PopulationConfig};

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            users_per_arm: 30,
            pre_sessions: 2,
            sessions_per_user: 2,
            seed: 11,
            bootstrap_reps: 200,
            threads: 0,
        }
    }

    #[test]
    fn arm_labels() {
        assert_eq!(Arm::Production.label(), "production");
        assert!(Arm::Sammy { c0: 3.2, c1: 2.8 }.label().contains("3.2"));
        assert!(Arm::NaivePaced { multiplier: 4.0 }.label().contains("4x"));
        assert_eq!(Arm::HistoryReset.label(), "history-reset");
    }

    #[test]
    fn sammy_reduces_chunk_throughput_maintains_vmaf() {
        let report = Experiment::builder()
            .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
            .config(tiny_cfg())
            .run_table()
            .unwrap()
            .report();
        assert_eq!(report.users, 30);

        let tput = report.row("Chunk Throughput").unwrap();
        assert!(
            tput.pct_change < -30.0 && tput.paired.significant(),
            "Sammy must cut chunk throughput substantially: {tput:?}"
        );
        let vmaf = report.row("VMAF").unwrap();
        assert!(
            vmaf.pct_change.abs() < 2.0,
            "Sammy must not meaningfully change VMAF: {vmaf:?}"
        );
        let retx = report.row("% Retransmits").unwrap();
        assert!(
            retx.pct_change < 0.0,
            "retransmits should improve: {retx:?}"
        );
    }

    #[test]
    fn report_renders_and_zero_replicates_are_point_estimates() {
        let run = |reps| {
            Experiment::builder()
                .treatment(Arm::Production)
                .config(ExperimentConfig {
                    users_per_arm: 6,
                    pre_sessions: 1,
                    sessions_per_user: 1,
                    seed: 3,
                    bootstrap_reps: reps,
                    threads: 0,
                })
                .run_table()
                .unwrap()
                .report()
        };
        let s = run(50).render();
        assert!(s.contains("Chunk Throughput"));
        assert!(s.contains("Play Delay"));
        assert!(s.contains("Rebuffers"));

        // No replicates: the same point estimates, every interval NaN.
        let (with, without) = (run(50), run(0));
        for (w, p) in with.rows.iter().zip(&without.rows) {
            assert_eq!(w.pct_change.to_bits(), p.pct_change.to_bits(), "{}", w.name);
            assert_eq!(
                w.paired.mean_delta_pct.to_bits(),
                p.paired.mean_delta_pct.to_bits()
            );
            assert!(p.paired.ci_low.is_nan() && p.paired.ci_high.is_nan());
        }
        assert!(without.render().contains("[n/a]"));
    }

    #[test]
    fn identical_arms_are_exactly_null() {
        // A/A test: in the paired design the same arm on the same users is
        // deterministic, so every metric change is exactly zero.
        let report = Experiment::builder()
            .treatment(Arm::Production)
            .config(ExperimentConfig {
                seed: 21,
                ..tiny_cfg()
            })
            .run_table()
            .unwrap()
            .report();
        for row in &report.rows {
            assert!(
                row.pct_change == 0.0 || row.pct_change.is_nan(),
                "A/A {} moved: {row:?}",
                row.name
            );
            assert!(!row.paired.significant(), "A/A {} significant", row.name);
        }
    }

    #[test]
    fn builder_validates_config() {
        let run = |cfg| Experiment::builder().config(cfg).run_streaming();
        let err = run(ExperimentConfig {
            users_per_arm: 0,
            ..Default::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("users_per_arm"), "{err}");
        assert!(run(ExperimentConfig {
            sessions_per_user: 0,
            ..Default::default()
        })
        .is_err());
        // A replicate count the runner would have to allocate 128 bytes a
        // replicate for, per shard state, is refused.
        for reps in [spec::MAX_BOOTSTRAP_REPS + 1, usize::MAX] {
            let err = run(ExperimentConfig {
                bootstrap_reps: reps,
                ..Default::default()
            })
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    SimError::InvalidConfig {
                        field: "bootstrap_reps",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    /// Fig 3's rows split the throughput row by bucket: every session with
    /// a throughput (and, here, a warm-up behind it) lands in exactly one
    /// of them, and both arms of a user land in the same one.
    #[test]
    fn bucket_rows_partition_the_throughput_row() {
        let fold = |rows: MetricTable| {
            Experiment::builder()
                .config(ExperimentConfig {
                    users_per_arm: 40,
                    seed: 8,
                    ..tiny_cfg()
                })
                .rows(rows)
                .run_table()
                .unwrap()
                .report()
        };
        let (all, buckets) = (fold(&METRICS), fold(&BUCKET_METRICS));
        let tput = &all.rows[0];
        let sum = |f: fn(&crate::streaming::StreamRow) -> u64| -> u64 {
            buckets.rows.iter().map(f).sum()
        };
        assert_eq!(sum(|r| r.control_count), tput.control_count);
        assert_eq!(sum(|r| r.treatment_count), tput.treatment_count);
        for r in &buckets.rows {
            assert_eq!(r.control_count, r.treatment_count, "{}", r.name);
        }
        let names: Vec<&str> = buckets.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, (0..5).map(bucket_label).collect::<Vec<_>>());
    }

    /// Without a warm-up a user's pre-experiment p95 is unknown (NaN), and
    /// their sessions belong to no Fig 3 bucket, not to ">90 Mbps".
    #[test]
    fn unknown_pre_experiment_p95_is_in_no_bucket() {
        let report = Experiment::builder()
            .config(ExperimentConfig {
                users_per_arm: 24,
                pre_sessions: 0,
                ..tiny_cfg()
            })
            .rows(&BUCKET_METRICS)
            .run_table()
            .unwrap()
            .report();
        assert_eq!(report.users, 24);
        for r in &report.rows {
            assert_eq!((r.control_count, r.treatment_count), (0, 0), "{}", r.name);
        }
    }

    /// Record-for-record equality that also holds across the NaN p95 of
    /// `pre_sessions == 0` (`SessionRecord: PartialEq` is IEEE equality).
    fn same_records(a: &[SessionRecord], b: &[SessionRecord]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.user == y.user
                    && x.session == y.session
                    && x.pre_p95_mbps.to_bits() == y.pre_p95_mbps.to_bits()
                    && x.outcome == y.outcome
            })
    }

    const ARMS: [Arm; 5] = [
        Arm::Production,
        Arm::Sammy { c0: 3.2, c1: 2.8 },
        Arm::InitialOnly,
        Arm::NaivePaced { multiplier: 4.0 },
        Arm::HistoryReset,
    ];

    proptest::proptest! {
        /// The pair shares one warm-up and one set of titles between its
        /// arms; each arm must still see exactly what it would have seen
        /// alone. Arms that shared one `HistoryStore` would fail both
        /// halves: the second arm would start from the first's history.
        #[test]
        fn pair_equals_unshared_arms(
            index in 0u64..100_000,
            seed in 0u64..1_000,
            light in 0usize..2,
            control in 0usize..ARMS.len(),
            treatment in 0usize..ARMS.len(),
            pre in 0usize..3,
            experiment in 0usize..2,
        ) {
            let population =
                [PopulationConfig::default(), PopulationConfig::light()][light].clone();
            let user = user_at(&population, index, seed);
            let (control, treatment) = (ARMS[control], ARMS[treatment]);
            let cfg = ExperimentConfig {
                pre_sessions: [0, 1, 3][pre],
                sessions_per_user: [1, 4][experiment],
                seed,
                ..tiny_cfg()
            };

            let ((c, t), _) = run_user_pair(&user, control, treatment, &cfg);
            proptest::prop_assert!(same_records(&c, &run_user(&user, control, &cfg)));
            proptest::prop_assert!(same_records(&t, &run_user(&user, treatment, &cfg)));

            // Swapping the arm order swaps the outputs exactly.
            let ((t2, c2), _) = run_user_pair(&user, treatment, control, &cfg);
            proptest::prop_assert!(same_records(&c, &c2));
            proptest::prop_assert!(same_records(&t, &t2));
        }
    }

    #[test]
    fn no_pre_sessions_is_a_cold_start() {
        let user = &user_at(&PopulationConfig::default(), 0, 5);
        let cfg = ExperimentConfig {
            pre_sessions: 0,
            ..tiny_cfg()
        };
        let warm = warm_up(user, &cfg);
        assert_eq!(warm.store.sessions(), 0);
        assert_eq!(warm.store.samples(), 0);
        assert!(warm.store.estimate().is_none());
        assert!(warm.pre_p95_mbps.is_nan());

        // Experiment sessions are numbered from 0 and carry the NaN p95.
        let first = &experiment_sessions(user, &cfg)[0];
        assert_eq!(first.title.chunk(0).sizes(), user.title(0).chunk(0).sizes());
        assert_eq!(first.jitter, Session::new(user, 0, cfg.seed).jitter);
        let records = run_user(user, Arm::Production, &cfg);
        assert_eq!(records.len(), cfg.sessions_per_user);
        assert!(records.iter().all(|r| r.pre_p95_mbps.is_nan()));
    }

    /// The history-reset arm is the cold start's recipe: its sessions are
    /// `run_one` from a fresh store, in session order, after a warm-up it
    /// ignores. With no warm-up there is nothing to wipe, and it is
    /// `Production` record for record.
    #[test]
    fn history_reset_plays_from_a_fresh_store() {
        let user = &user_at(&PopulationConfig::default(), 3, 17);
        let cfg = ExperimentConfig {
            pre_sessions: 3,
            sessions_per_user: 4,
            ..tiny_cfg()
        };
        let records = run_user(user, Arm::HistoryReset, &cfg);
        let fresh = shared_history();
        for (i, r) in records.iter().enumerate() {
            let idx = (cfg.pre_sessions + i) as u64;
            let outcome = run_one(
                user,
                Arm::Production,
                &fresh,
                &Session::new(user, idx, cfg.seed),
            );
            assert_eq!(r.session, i as u64);
            assert_eq!(r.outcome, outcome, "session {i}");
        }

        let cold = ExperimentConfig {
            pre_sessions: 0,
            ..cfg
        };
        assert!(same_records(
            &run_user(user, Arm::HistoryReset, &cold),
            &run_user(user, Arm::Production, &cold)
        ));
    }

    #[test]
    fn metrics_are_thread_count_invariant() {
        if !obs::ENABLED {
            return; // a default build records nothing to compare
        }
        let jsonl: Vec<String> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let run = Experiment::builder()
                    .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
                    .config(ExperimentConfig {
                        users_per_arm: 6,
                        pre_sessions: 1,
                        sessions_per_user: 1,
                        seed: 23,
                        bootstrap_reps: 50,
                        threads,
                    })
                    .shard_size(2)
                    .run_streaming()
                    .unwrap();
                run.state.registry.to_jsonl()
            })
            .collect();
        assert!(!jsonl[0].is_empty());
        assert_eq!(jsonl[0], jsonl[1]);
        assert!(jsonl[0].contains("abtest.sessions"));
        assert!(jsonl[0].contains("fluidsim.chunks"));
    }
}
