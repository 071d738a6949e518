//! The A/B experiment runner.
//!
//! Mirrors the paper's methodology (§5): users are randomly assigned to a
//! control arm (the production algorithm) or a treatment arm; sessions run
//! for each user; per-session metrics are aggregated as medians with
//! bootstrap CIs on the percent change. As in §5.7, historical throughput
//! is reset (or pre-seeded identically) in both arms for an
//! apples-to-apples comparison, via a configurable pre-experiment phase
//! that also establishes each user's pre-experiment p95 chunk throughput
//! for the Fig 3 bucketing.

use crate::population::{bucket_of, draw_population, PopulationConfig, UserProfile};
use crate::stats::{
    compare_paired, paired_delta, percentile, Aggregate, PairedDelta, PercentChange,
};
use abr::{
    initial_rung_for, shared_history, HistoryPolicy, HistoryStore, InitialSelectorConfig, Mpc,
    ProductionAbr, SharedHistory,
};
use fluidsim::{FluidConfig, SessionBuilder, SessionOutcome};
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
}

impl Arm {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Arm::Production => "production".into(),
            Arm::Sammy { c0, c1 } => format!("sammy(c0={c0},c1={c1})"),
            Arm::InitialOnly => "initial-only".into(),
            Arm::NaivePaced { multiplier } => format!("naive-paced({multiplier}x)"),
        }
    }

    /// Build the ABR for one session of this arm.
    pub fn build_abr(&self, history: SharedHistory) -> Box<dyn Abr> {
        match *self {
            Arm::Production => Box::new(ProductionAbr::new(
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

/// The spec-level arm maps 1:1 onto the runner's arm.
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
    /// Bootstrap replicates for CIs.
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
        if self.bootstrap_reps == 0 {
            return invalid("bootstrap_reps", "must be at least 1");
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
    /// The user's pre-experiment p95 chunk throughput (Mbps).
    pub pre_p95_mbps: f64,
    /// The session's metrics.
    pub outcome: SessionOutcome,
}

/// All sessions of one arm.
#[derive(Debug, Clone, Default)]
pub struct ArmResult {
    /// Session records in run order.
    pub sessions: Vec<SessionRecord>,
}

impl ArmResult {
    /// Absorb another shard's sessions. Callers merge shards in population
    /// order so the merged result is independent of worker scheduling.
    pub fn merge(&mut self, other: ArmResult) {
        self.sessions.extend(other.sessions);
    }

    /// Extract a per-session metric as a vector.
    pub fn metric(&self, f: impl Fn(&SessionRecord) -> Option<f64>) -> Vec<f64> {
        self.sessions.iter().filter_map(f).collect()
    }

    /// Extract a per-session metric grouped by user (cluster structure for
    /// the paired bootstrap). Users appear in first-seen order.
    pub fn metric_by_user(&self, f: impl Fn(&SessionRecord) -> Option<f64>) -> Vec<Vec<f64>> {
        let mut order: Vec<u64> = Vec::new();
        let mut groups: std::collections::HashMap<u64, Vec<f64>> = std::collections::HashMap::new();
        for s in &self.sessions {
            if !groups.contains_key(&s.user) {
                order.push(s.user);
            }
            let entry = groups.entry(s.user).or_default();
            if let Some(v) = f(s) {
                entry.push(v);
            }
        }
        order
            .into_iter()
            .map(|u| groups.remove(&u).unwrap_or_default())
            .collect()
    }
}

/// Run all sessions for one user under `arm`, returning the records.
///
/// The one-arm composition of the two phases a user pair is built from:
/// the pre-experiment warm-up, then the experiment sessions under `arm`
/// from a private copy of the warmed history store.
pub fn run_user(user: &UserProfile, arm: Arm, cfg: &ExperimentConfig) -> Vec<SessionRecord> {
    let warm = warm_up(user, cfg);
    run_arm(user, arm, cfg.seed, &warm, &experiment_sessions(user, cfg))
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
        let title = Arc::new(user.title(s));
        let out = run_one(user, Arm::Production, &history, title, s, cfg.seed);
        pre_tputs.extend(out.chunk_throughputs_mbps.iter().copied());
    }
    WarmUp {
        store: history.snapshot(),
        pre_p95_mbps: percentile(&pre_tputs, 0.95),
    }
}

/// A user's experiment sessions as (session index, title), in run order.
/// A title depends on (user, session index) only, so every arm plays
/// these.
fn experiment_sessions(user: &UserProfile, cfg: &ExperimentConfig) -> Vec<(u64, Arc<Title>)> {
    (cfg.pre_sessions..cfg.pre_sessions + cfg.sessions_per_user)
        .map(|s| (s as u64, Arc::new(user.title(s as u64))))
        .collect()
}

/// The experiment phase under one arm. The arm starts from its own deep
/// copy of the warmed store, so what it learns is invisible to every
/// other arm run from the same `warm`.
fn run_arm(
    user: &UserProfile,
    arm: Arm,
    seed: u64,
    warm: &WarmUp,
    sessions: &[(u64, Arc<Title>)],
) -> Vec<SessionRecord> {
    let history = SharedHistory::from_store(warm.store.clone());
    sessions
        .iter()
        .map(|(session_idx, title)| {
            let outcome = run_one(user, arm, &history, title.clone(), *session_idx, seed);
            obs::counter!("abtest.sessions", 1);
            SessionRecord {
                user: user.id,
                pre_p95_mbps: warm.pre_p95_mbps,
                outcome,
            }
        })
        .collect()
}

fn run_one(
    user: &UserProfile,
    arm: Arm,
    history: &SharedHistory,
    title: Arc<Title>,
    session_idx: u64,
    seed: u64,
) -> SessionOutcome {
    let estimate = history.discounted_estimate();
    let predicted_rung =
        initial_rung_for(estimate, &title.ladder, &InitialSelectorConfig::default());
    let abr = arm.build_abr(history.clone());
    let outcome = SessionBuilder::new(&user.network, title, abr)
        .history_estimate(estimate)
        .predicted_initial_rung(predicted_rung)
        .max_wall_clock(user.title_duration * 3 + SimDuration::from_secs(120))
        .seed(
            user.seed
                .wrapping_add(session_idx.wrapping_mul(0xA24B_AED4_963E_E407))
                .wrapping_add(seed),
        )
        .fluid(FluidConfig::default())
        .startup_latency(user.startup_latency)
        .run();
    // Fold this session's samples into the device's historical store.
    history.end_session();
    outcome
}

/// The single entry point for running experiments.
///
/// One builder, one `run()`, one result type. See [`ExperimentBuilder`]
/// for the options.
///
/// ```ignore
/// let run = Experiment::builder()
///     .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
///     .threads(8)
///     .detailed(true)
///     .run()?;
/// println!("{}", run.report(600, 5).render());
/// ```
pub struct Experiment;

impl Experiment {
    /// Start configuring an experiment.
    pub fn builder() -> ExperimentBuilder<'static> {
        ExperimentBuilder::default()
    }
}

/// Options for [`Experiment::builder`].
///
/// Defaults: production vs. Sammy (§4.3 parameters), the default
/// [`ExperimentConfig`], a population drawn internally from
/// [`PopulationConfig::default`], the sharded runner over all cores, and
/// fail-fast semantics (`detailed(false)`).
///
/// The lifetime `'p` is the borrow of an explicit population passed to
/// [`population`](ExperimentBuilder::population); the builder never clones
/// the slice, so handing a million-user population to several builders
/// costs nothing.
pub struct ExperimentBuilder<'p> {
    cfg: ExperimentConfig,
    control: Arm,
    treatment: Arm,
    population: Option<&'p [UserProfile]>,
    population_cfg: PopulationConfig,
    detailed: bool,
    serial_reference: bool,
    stream: crate::streaming::StreamConfig,
}

impl Default for ExperimentBuilder<'_> {
    fn default() -> Self {
        ExperimentBuilder {
            cfg: ExperimentConfig::default(),
            control: Arm::Production,
            treatment: Arm::Sammy { c0: 3.2, c1: 2.8 },
            population: None,
            population_cfg: PopulationConfig::default(),
            detailed: false,
            serial_reference: false,
            stream: crate::streaming::StreamConfig::default(),
        }
    }
}

impl<'p> ExperimentBuilder<'p> {
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

    /// Run over an explicit pre-drawn population instead of drawing one
    /// from the population config at `run()`. Borrowed, never cloned.
    pub fn population<'q>(self, population: &'q [UserProfile]) -> ExperimentBuilder<'q> {
        ExperimentBuilder {
            cfg: self.cfg,
            control: self.control,
            treatment: self.treatment,
            population: Some(population),
            population_cfg: self.population_cfg,
            detailed: self.detailed,
            serial_reference: self.serial_reference,
            stream: self.stream,
        }
    }

    /// The population model used when no explicit population is given.
    pub fn population_config(mut self, cfg: PopulationConfig) -> Self {
        self.population_cfg = cfg;
        self
    }

    /// Replace the whole [`ExperimentConfig`] at once.
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

    /// Users per arm (ignored when an explicit population is set).
    pub fn users_per_arm(mut self, n: usize) -> Self {
        self.cfg.users_per_arm = n;
        self
    }

    /// Pre-experiment sessions per user.
    pub fn pre_sessions(mut self, n: usize) -> Self {
        self.cfg.pre_sessions = n;
        self
    }

    /// Experiment sessions per user.
    pub fn sessions_per_user(mut self, n: usize) -> Self {
        self.cfg.sessions_per_user = n;
        self
    }

    /// Seed for population and session randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Bootstrap replicates for CIs.
    pub fn bootstrap_reps(mut self, n: usize) -> Self {
        self.cfg.bootstrap_reps = n;
        self
    }

    /// Worker threads (0 = all cores). Results are bit-identical for every
    /// value — per-user results (and telemetry registries) merge back in
    /// population order.
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// `true`: isolate per-user panics and report them in
    /// [`ExperimentRun::failures`]. `false` (default): the first failure
    /// aborts the run with [`SimError::Experiment`].
    pub fn detailed(mut self, detailed: bool) -> Self {
        self.detailed = detailed;
        self
    }

    /// Use the reference single-threaded runner instead of the sharded
    /// pool. Kept (and tested) forever so the sharded runner's
    /// bit-identical-equivalence guarantee stays falsifiable. Panics
    /// propagate (the reference has no isolation boundary).
    pub fn serial_reference(mut self, serial: bool) -> Self {
        self.serial_reference = serial;
        self
    }

    /// Validate the configuration and run the experiment.
    ///
    /// The paired design: every user runs both arms with identical titles,
    /// seeds, and pre-experiment history, removing all between-user
    /// variance from the comparison (a simulator can run the exact
    /// counterfactual; production tests need scale instead). CIs come from
    /// a cluster bootstrap over users ([`compare_paired`]).
    pub fn run(self) -> Result<ExperimentRun, SimError> {
        self.cfg.validate()?;
        let drawn;
        let population: &[UserProfile] = match self.population {
            Some(p) => p,
            None => {
                drawn =
                    draw_population(&self.population_cfg, self.cfg.users_per_arm, self.cfg.seed);
                &drawn
            }
        };
        let run = if self.serial_reference {
            run_serial_impl(population, self.control, self.treatment, &self.cfg)
        } else {
            run_detailed_impl(population, self.control, self.treatment, &self.cfg)
        };
        if !self.detailed {
            if let Some(f) = run.failures.first() {
                return Err(SimError::Experiment(format!(
                    "session for user {} panicked: {}",
                    f.user, f.message
                )));
            }
        }
        Ok(run)
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

    /// Run the experiment through the streaming shard-merge runner.
    ///
    /// Workers fold each user's paired sessions directly into per-shard
    /// accumulators (t-digest summaries, exact sums, bootstrap replicate
    /// sums, telemetry registries); shards merge into the global state in
    /// strict shard order. Nothing per-user is retained, so a 10M-user arm
    /// costs the same memory as a 10-user one, and with no explicit
    /// population the users themselves are derived lazily per index
    /// ([`crate::population::user_at`]) — the population is never
    /// materialized either. See [`StreamRun`](crate::streaming::StreamRun).
    pub fn run_streaming(self) -> Result<crate::streaming::StreamRun, SimError> {
        self.cfg.validate()?;
        let population = match self.population {
            Some(p) => crate::population::Population::Explicit(p),
            None => crate::population::Population::Lazy {
                cfg: self.population_cfg.clone(),
                users: self.cfg.users_per_arm,
                seed: self.cfg.seed,
            },
        };
        crate::streaming::run_stream_impl(
            &population,
            self.control,
            self.treatment,
            &self.cfg,
            &self.stream,
        )
    }
}

/// A user whose sessions panicked mid-experiment (isolated by the sharded
/// runner rather than poisoning the pool).
#[derive(Debug, Clone)]
pub struct UserFailure {
    /// The user's id.
    pub user: u64,
    /// The user's index in the population slice.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

/// Result of a run: merged arms plus any per-user failures and the merged
/// telemetry registry.
#[derive(Debug, Clone, Default)]
pub struct ExperimentRun {
    /// Control-arm sessions of every successful user, population order.
    pub control: ArmResult,
    /// Treatment-arm sessions of every successful user, population order.
    pub treatment: ArmResult,
    /// Users whose sessions panicked, population order.
    pub failures: Vec<UserFailure>,
    /// Telemetry of every successful user, merged in population order.
    /// Empty unless the `obs` feature is on; its deterministic sink
    /// ([`obs::Registry::to_jsonl`]) is byte-identical for every thread
    /// count on a fixed seed.
    pub metrics: obs::Registry,
}

impl ExperimentRun {
    /// The Table 2-style report comparing treatment to control.
    pub fn report(&self, reps: usize, seed: u64) -> Report {
        Report::build(&self.control, &self.treatment, reps, seed)
    }
}

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
    let pair = {
        let _wall = obs::ENABLED.then(|| obs::WallTimer::start("abtest.user_wall"));
        obs::counter!("abtest.users", 1);
        let warm = warm_up(user, cfg);
        let sessions = experiment_sessions(user, cfg);
        (
            run_arm(user, control, cfg.seed, &warm, &sessions),
            run_arm(user, treatment, cfg.seed, &warm, &sessions),
        )
    };
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

/// The reference single-threaded runner behind
/// [`ExperimentBuilder::serial_reference`]. Performs the identical
/// per-user registry swap as the sharded runner so telemetry is
/// byte-identical too.
fn run_serial_impl(
    population: &[UserProfile],
    control: Arm,
    treatment: Arm,
    cfg: &ExperimentConfig,
) -> ExperimentRun {
    let mut run = ExperimentRun::default();
    for user in population.iter() {
        let ((c, t), metrics) = run_user_pair(user, control, treatment, cfg);
        run.control.sessions.extend(c);
        run.treatment.sessions.extend(t);
        run.metrics.merge(&metrics);
    }
    run
}

/// The sharded runner with per-user panic isolation.
///
/// Users are jobs on the ordered pool ([`crate::pool::ordered`]: dynamic
/// load balance — session counts vary wildly between users). A panic
/// inside a user's sessions is caught at the user boundary, inside the
/// job, and reported as that user's failure. Results are folded in
/// population order, so successful users' records — and telemetry
/// registries — are bit-identical to the serial runner's.
fn run_detailed_impl(
    population: &[UserProfile],
    control: Arm,
    treatment: Arm,
    cfg: &ExperimentConfig,
) -> ExperimentRun {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let mut run = ExperimentRun::default();
    crate::pool::ordered(
        0..population.len(),
        cfg.threads,
        |i| {
            // A panic leaves the user's partial registry in the worker's
            // thread-local; the next run_user_pair replaces it, so failed
            // users contribute no telemetry (keeping the merged registry
            // deterministic).
            catch_unwind(AssertUnwindSafe(|| {
                run_user_pair(&population[i], control, treatment, cfg)
            }))
            .map_err(panic_message)
        },
        |results| {
            for (i, result) in results.enumerate() {
                match result {
                    Ok(((c, t), metrics)) => {
                        run.control.sessions.extend(c);
                        run.treatment.sessions.extend(t);
                        run.metrics.merge(&metrics);
                    }
                    Err(message) => run.failures.push(UserFailure {
                        user: population[i].id,
                        index: i,
                        message,
                    }),
                }
            }
        },
    );
    run
}

/// One row of a Table 2 / Table 3 style report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Metric name as the table prints it.
    pub name: String,
    /// The median-based comparison (the paper's headline statistic).
    pub change: PercentChange,
    /// The paired per-session mean delta — resolves sub-percent effects
    /// the pooled median ties away.
    pub paired: PairedDelta,
}

/// The full Table 2-style report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Rows in table order.
    pub rows: Vec<MetricRow>,
}

/// A per-session metric extractor. Capture-free (`fn`, not a closure) so
/// the collecting report and the streaming shard-merge runner share one
/// table ([`METRICS`]) and worker threads can carry it without boxing.
pub type MetricExtractor = fn(&SessionRecord) -> Option<f64>;

/// The Table 2 metric set: name, aggregation rule, extractor. Single
/// source of truth for [`Report::build`] and the streaming runner's
/// per-shard accumulators, so the two paths can never disagree on what a
/// metric means.
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

impl Report {
    /// Build the report comparing `treatment` to `control`.
    pub fn build(control: &ArmResult, treatment: &ArmResult, reps: usize, seed: u64) -> Report {
        let rows = METRICS
            .iter()
            .enumerate()
            .map(|(i, &(name, agg, f))| {
                let c = control.metric_by_user(f);
                let t = treatment.metric_by_user(f);
                MetricRow {
                    name: name.to_string(),
                    change: compare_paired(&c, &t, agg, reps, seed.wrapping_add(i as u64)),
                    paired: paired_delta(&c, &t, reps, seed.wrapping_add(100 + i as u64)),
                }
            })
            .collect();
        Report { rows }
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>12} {:>12} {:>26} {:>12}\n",
            "Metric", "Control", "Treatment", "Median % Chg [95% CI]", "Paired mean"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<20} {:>12.4} {:>12.4} {:>26} {:>12}\n",
                r.name,
                r.change.control,
                r.change.treatment,
                r.change.display(),
                r.paired.display()
            ));
        }
        out
    }

    /// Look up a row by name.
    pub fn row(&self, name: &str) -> Option<&MetricRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Fig 3: percent change in chunk throughput by pre-experiment p95 bucket.
pub fn throughput_by_bucket(
    control: &ArmResult,
    treatment: &ArmResult,
    reps: usize,
    seed: u64,
) -> Vec<(usize, PercentChange)> {
    (0..5)
        .filter_map(|b| {
            let in_bucket = |s: &&SessionRecord| bucket_of(s.pre_p95_mbps) == b;
            let cf = ArmResult {
                sessions: control.sessions.iter().filter(in_bucket).cloned().collect(),
            };
            let tf = ArmResult {
                sessions: treatment
                    .sessions
                    .iter()
                    .filter(in_bucket)
                    .cloned()
                    .collect(),
            };
            if cf.sessions.len() < 10 || tf.sessions.len() < 10 {
                return None;
            }
            let c = cf.metric_by_user(|s| s.outcome.avg_chunk_throughput.map(|r| r.mbps()));
            let t = tf.metric_by_user(|s| s.outcome.avg_chunk_throughput.map(|r| r.mbps()));
            if c.len() != t.len() {
                // A user can land in a bucket in one arm only if sessions
                // were dropped; skip such degenerate buckets.
                return None;
            }
            Some((
                b,
                compare_paired(&c, &t, Aggregate::Median, reps, seed + b as u64),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{draw_population, PopulationConfig};

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
    }

    #[test]
    fn sammy_reduces_chunk_throughput_maintains_vmaf() {
        let cfg = tiny_cfg();
        let run = Experiment::builder()
            .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
            .config(cfg.clone())
            .run()
            .unwrap();
        assert!(!run.control.sessions.is_empty() && !run.treatment.sessions.is_empty());
        let report = run.report(cfg.bootstrap_reps, 5);

        let tput = &report.row("Chunk Throughput").unwrap().change;
        assert!(
            tput.pct_change < -30.0,
            "Sammy must cut chunk throughput substantially: {tput:?}"
        );
        let vmaf = &report.row("VMAF").unwrap().change;
        assert!(
            vmaf.pct_change.abs() < 2.0,
            "Sammy must not meaningfully change VMAF: {vmaf:?}"
        );
        let retx = &report.row("% Retransmits").unwrap().change;
        assert!(
            retx.pct_change < 0.0,
            "retransmits should improve: {retx:?}"
        );
    }

    #[test]
    fn report_renders() {
        let cfg = ExperimentConfig {
            users_per_arm: 6,
            pre_sessions: 1,
            sessions_per_user: 1,
            seed: 3,
            bootstrap_reps: 50,
            threads: 0,
        };
        let pop = draw_population(&PopulationConfig::default(), 12, 3);
        let run = Experiment::builder()
            .population(&pop)
            .treatment(Arm::Production)
            .config(cfg)
            .run()
            .unwrap();
        let report = run.report(50, 1);
        let s = report.render();
        assert!(s.contains("Chunk Throughput"));
        assert!(s.contains("Play Delay"));
        assert!(s.contains("Rebuffers"));
    }

    #[test]
    fn identical_arms_are_exactly_null() {
        // A/A test: in the paired design the same arm on the same users is
        // deterministic, so every metric change is exactly zero.
        let cfg = tiny_cfg();
        let pop = draw_population(&PopulationConfig::default(), cfg.users_per_arm, 21);
        let run = Experiment::builder()
            .population(&pop)
            .treatment(Arm::Production)
            .config(cfg.clone())
            .run()
            .unwrap();
        let report = run.report(cfg.bootstrap_reps, 9);
        for row in &report.rows {
            assert!(
                row.change.pct_change == 0.0 || row.change.pct_change.is_nan(),
                "A/A {} moved: {:?}",
                row.name,
                row.change
            );
            assert!(!row.change.significant(), "A/A {} significant", row.name);
        }
    }

    #[test]
    fn builder_validates_config() {
        let err = Experiment::builder().users_per_arm(0).run().unwrap_err();
        assert!(err.to_string().contains("users_per_arm"), "{err}");
        assert!(Experiment::builder().sessions_per_user(0).run().is_err());
        assert!(Experiment::builder().bootstrap_reps(0).run().is_err());
        // Both runners refuse a replicate count they would have to
        // allocate 128 bytes a replicate for, per shard state.
        for err in [
            Experiment::builder()
                .bootstrap_reps(spec::MAX_BOOTSTRAP_REPS + 1)
                .run()
                .unwrap_err(),
            Experiment::builder()
                .bootstrap_reps(usize::MAX)
                .run_streaming()
                .unwrap_err(),
        ] {
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

    #[test]
    fn builder_serial_reference_matches_sharded() {
        let cfg = ExperimentConfig {
            users_per_arm: 8,
            pre_sessions: 1,
            sessions_per_user: 1,
            seed: 13,
            bootstrap_reps: 50,
            threads: 2,
        };
        let pop = draw_population(&PopulationConfig::default(), cfg.users_per_arm, cfg.seed);
        let treatment = Arm::Sammy { c0: 3.2, c1: 2.8 };
        let new = Experiment::builder()
            .population(&pop)
            .treatment(treatment)
            .config(cfg.clone())
            .run()
            .unwrap();

        // The serial reference produces the identical records.
        let serial = Experiment::builder()
            .population(&pop)
            .treatment(treatment)
            .config(cfg)
            .serial_reference(true)
            .run()
            .unwrap();
        assert_eq!(serial.control.sessions, new.control.sessions);
        assert_eq!(serial.treatment.sessions, new.treatment.sessions);
    }

    #[test]
    fn builder_draws_population_when_none_given() {
        let cfg = ExperimentConfig {
            users_per_arm: 5,
            pre_sessions: 1,
            sessions_per_user: 1,
            seed: 17,
            bootstrap_reps: 50,
            threads: 2,
        };
        let explicit = draw_population(&PopulationConfig::default(), cfg.users_per_arm, cfg.seed);
        let drawn = Experiment::builder()
            .treatment(Arm::Production)
            .config(cfg.clone())
            .run()
            .unwrap();
        let given = Experiment::builder()
            .population(&explicit)
            .treatment(Arm::Production)
            .config(cfg)
            .run()
            .unwrap();
        assert_eq!(drawn.control.sessions, given.control.sessions);
    }

    /// Record-for-record equality that also holds across the NaN p95 of
    /// `pre_sessions == 0` (`SessionRecord: PartialEq` is IEEE equality).
    fn same_records(a: &[SessionRecord], b: &[SessionRecord]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.user == y.user
                    && x.pre_p95_mbps.to_bits() == y.pre_p95_mbps.to_bits()
                    && x.outcome == y.outcome
            })
    }

    const ARMS: [Arm; 4] = [
        Arm::Production,
        Arm::Sammy { c0: 3.2, c1: 2.8 },
        Arm::InitialOnly,
        Arm::NaivePaced { multiplier: 4.0 },
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
            control in 0usize..4,
            treatment in 0usize..4,
            pre in 0usize..3,
            experiment in 0usize..2,
        ) {
            let population =
                [PopulationConfig::default(), PopulationConfig::light()][light].clone();
            let user = crate::population::user_at(&population, index, seed);
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
        let user = &draw_population(&PopulationConfig::default(), 1, 5)[0];
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
        let (first_idx, first_title) = &experiment_sessions(user, &cfg)[0];
        assert_eq!(*first_idx, 0);
        assert_eq!(first_title.chunk(0).sizes(), user.title(0).chunk(0).sizes());
        let records = run_user(user, Arm::Production, &cfg);
        assert_eq!(records.len(), cfg.sessions_per_user);
        assert!(records.iter().all(|r| r.pre_p95_mbps.is_nan()));
    }

    #[test]
    fn metrics_are_thread_count_invariant() {
        if !obs::ENABLED {
            return; // a default build records nothing to compare
        }
        let pop = draw_population(&PopulationConfig::default(), 6, 23);
        let jsonl: Vec<String> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let run = Experiment::builder()
                    .population(&pop)
                    .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
                    .config(ExperimentConfig {
                        users_per_arm: 6,
                        pre_sessions: 1,
                        sessions_per_user: 1,
                        seed: 23,
                        bootstrap_reps: 50,
                        threads,
                    })
                    .run()
                    .unwrap();
                run.metrics.to_jsonl()
            })
            .collect();
        assert!(!jsonl[0].is_empty());
        assert_eq!(jsonl[0], jsonl[1]);
        assert!(jsonl[0].contains("abtest.sessions"));
        assert!(jsonl[0].contains("fluidsim.chunks"));
    }
}
