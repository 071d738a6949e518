//! The four fixed-work workloads.
//!
//! A rep does identical work on every commit: sizes are constants here (and
//! in `BENCHMARK.json`'s `why` lines), every input is derived from `--seed`,
//! and every simulation runs on one thread. Rep 0 is the cold rep; it is also
//! the correctness reference the timed reps are compared with.

use crate::trace::Tracer;
use abtest::Experiment;
use netsim::{CoDelConfig, Discipline, DrrConfig, Rate, RedConfig, SimDuration, TokenBucketConfig};
use sammy_bench::lab::{single_flow, LabArm, LabConfig};
use sammy_bench::matrix::{cc_matrix, matrix_csv_rows, MatrixCell, SUBSTRATES};
use sammy_bench::shared::{shared_sessions, SharedLabConfig};
use sammy_serve::http::http_request;
use sammy_serve::{Daemon, ServeConfig};
use spec::json::{self, obj, Value};
use spec::{ArmSpec, ExperimentSpec};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tdigest::wire::Fnv;

/// Workload names, in suite order.
pub const NAMES: [&str; 4] = ["population_full", "daemon_light", "cc_matrix", "shared_aqm"];

/// Full sizes, or the `--quick` smoke scale (about a tenth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Independent 48-bit seed for `(seed, tag)`. 48 bits because spec seeds
/// travel through JSON numbers (f64) on their way to the daemon.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 16
}

/// What one rep did, in the workload's own operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOutcome {
    /// Operations attempted (user pairs, jobs, cells, sessions).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Fingerprint of the simulated results.
    pub fingerprint: u64,
    /// Wall seconds of each call the rep made into the program, in call
    /// order; the same calls in the same order on every rep.
    pub call_s: Vec<f64>,
}

impl RepOutcome {
    /// Run one call into the program and record its wall time.
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let clock = Instant::now();
        let out = f();
        self.call_s.push(clock.elapsed().as_secs_f64());
        out
    }

    /// Count one operation and whether it succeeded.
    pub fn count(&mut self, succeeded: bool) {
        self.attempted += 1;
        self.failed += u64::from(!succeeded);
    }

    /// Wall seconds of the whole rep.
    pub fn wall_s(&self) -> f64 {
        self.call_s.iter().sum()
    }
}

/// One workload: fixed inputs and a rep that runs them through the program.
pub trait Workload {
    /// What `work_per_s` counts.
    fn work_unit(&self) -> &'static str;
    fn units_per_rep(&self) -> u64;
    /// The constant sizes, for the provenance block.
    fn sizes(&self) -> Value;
    /// True when every rep must reproduce the cold rep's fingerprint (the
    /// inputs do not change between reps).
    fn fingerprint_repeats(&self) -> bool {
        true
    }
    /// Run rep `rep` (0 = cold). `Err` means the benchmark itself could not
    /// run, not that an operation failed.
    fn rep(&mut self, rep: u64, t: &mut Tracer) -> Result<RepOutcome, String>;
    /// The fingerprint the cold rep must have according to an independent
    /// computation, if the workload has one. Computed after the timed reps,
    /// so it is in neither `setup_s` nor `wall_s`.
    fn reference_fingerprint(&mut self) -> Result<Option<u64>, String> {
        Ok(None)
    }
}

/// Build the workload called `name`. `out_dir` is where a workload may keep
/// scratch files (only `daemon_light` does).
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    out_dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    match name {
        "population_full" => Ok(Box::new(PopulationFull::new(seed, scale))),
        "daemon_light" => Ok(Box::new(DaemonLight::start(seed, scale, out_dir)?)),
        "cc_matrix" => Ok(Box::new(CcMatrix::new(seed, scale))),
        "shared_aqm" => Ok(Box::new(SharedAqm::new(seed, scale))),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

// ---------------------------------------------------------------------------
// population_full
// ---------------------------------------------------------------------------

/// The streaming A/B runner over the full (15–30 min title) population:
/// nearly all time is the fluid chunk loop, MPC decisions and title
/// generation; the fold is a sliver.
pub struct PopulationFull {
    specs: Vec<ExperimentSpec>,
}

/// The population spec both population workloads share, differing only in
/// size and in the light/full population switch.
pub fn population_spec(name: &str, users: usize, light: bool, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        control: ArmSpec::Production,
        treatment: ArmSpec::Sammy { c0: 3.2, c1: 2.8 },
        users_per_arm: users,
        pre_sessions: 1,
        sessions_per_user: 1,
        seed,
        bootstrap_reps: 200,
        threads: 1,
        shard_size: 256,
        light_population: light,
        ..ExperimentSpec::default()
    }
}

impl PopulationFull {
    /// Experiments per rep, each over a population of its own.
    pub const RUNS: usize = 5;
    pub const USERS_PER_RUN: usize = 50;

    pub fn new(seed: u64, scale: Scale) -> Self {
        let runs = scale.pick(Self::RUNS, 1);
        PopulationFull {
            specs: (0..runs as u64)
                .map(|k| {
                    population_spec(
                        "population_full",
                        Self::USERS_PER_RUN,
                        false,
                        derive_seed(seed, 100 + k),
                    )
                })
                .collect(),
        }
    }
}

impl Workload for PopulationFull {
    fn work_unit(&self) -> &'static str {
        "user pairs"
    }
    fn units_per_rep(&self) -> u64 {
        self.specs.iter().map(|s| s.users_per_arm as u64).sum()
    }
    fn sizes(&self) -> Value {
        obj(vec![
            ("runs", Value::Num(self.specs.len() as f64)),
            ("spec", self.specs[0].to_json()),
        ])
    }
    fn rep(&mut self, _rep: u64, t: &mut Tracer) -> Result<RepOutcome, String> {
        let mut out = RepOutcome::default();
        let mut h = Fnv::new();
        for spec in &self.specs {
            let run = out
                .call(|| {
                    t.span("abtest.run_streaming", |_| {
                        Experiment::builder().spec(spec).run_streaming()
                    })
                })
                .map_err(|e| format!("run_streaming: {e}"))?;
            let users = spec.users_per_arm as u64;
            out.attempted += users;
            out.failed += run.state.failures + (users - run.users as u64);
            h.u64(run.fingerprint());
        }
        out.fingerprint = h.finish();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// daemon_light
// ---------------------------------------------------------------------------

/// How a submitted job ended, as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// `POST /runs` status code (0 when the connection failed).
    pub post_status: u16,
    /// The id the daemon gave the job, when it accepted it.
    pub id: Option<String>,
    /// Terminal state from `GET /runs/:id`, when the job was accepted.
    pub final_state: Option<String>,
    /// `users`, `failures` and `fingerprint` from `result.json`.
    pub result: Option<(u64, u64, u64)>,
}

impl JobOutcome {
    /// The job went 201 → `done` → 200 with no failed user and `users`
    /// users. Anything else is a failed operation.
    pub fn succeeded(&self, users: u64) -> bool {
        self.post_status == 201
            && self.final_state.as_deref() == Some("done")
            && matches!(self.result, Some((u, 0, _)) if u == users)
    }
}

/// String field `key` of the JSON object in `doc`.
fn json_str_field(doc: &str, key: &str) -> Option<String> {
    json::parse(doc)
        .ok()?
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// A job still not terminal after this long counts as failed, so that a
/// wedged daemon fails the run instead of hanging it.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// Closed loop, one client: submit `body`, poll the status every `poll`,
/// fetch the result. Never more than one connection open at a time.
pub fn submit_and_wait(addr: SocketAddr, body: &str, poll: Duration, t: &mut Tracer) -> JobOutcome {
    let mut out = JobOutcome {
        post_status: 0,
        id: None,
        final_state: None,
        result: None,
    };
    let Ok((status, reply)) = t.span("serve.post_runs", |_| {
        http_request(addr, "POST", "/runs", Some(body))
    }) else {
        return out;
    };
    out.post_status = status;
    let (201, Some(id)) = (status, json_str_field(&reply, "id")) else {
        return out;
    };
    let path = format!("/runs/{id}");
    out.id = Some(id);
    let deadline = Instant::now() + JOB_DEADLINE;
    loop {
        if Instant::now() > deadline {
            out.final_state = Some("timed out".to_string());
            break;
        }
        let polled = t.span("serve.get_status", |_| {
            http_request(addr, "GET", &path, None)
        });
        let state = polled
            .ok()
            .and_then(|(_, doc)| json_str_field(&doc, "state"));
        match state.as_deref() {
            Some("queued" | "running") => {
                // The worker thread is running the job; the client idles.
                t.span("serve.worker_wait", |_| std::thread::sleep(poll));
            }
            other => {
                out.final_state = other.map(str::to_string);
                break;
            }
        }
    }
    if out.final_state.as_deref() == Some("done") {
        let fetched = t.span("serve.get_result", |_| {
            http_request(addr, "GET", &format!("{path}/result"), None)
        });
        if let Ok((200, doc)) = fetched {
            out.result = json::parse(&doc).ok().and_then(|v| {
                let users = v.get("users")?.as_u64()?;
                let failures = v.get("failures")?.as_u64()?;
                let fp = u64::from_str_radix(v.get("fingerprint")?.as_str()?, 16).ok()?;
                Some((users, failures, fp))
            });
        }
    }
    out
}

/// A daemon on the loopback interface over a fresh runs directory that is
/// removed again on drop, also when a rep fails.
pub struct DaemonFixture {
    daemon: Option<Daemon>,
    dir: PathBuf,
}

impl DaemonFixture {
    /// `tag` keeps concurrent fixtures (tests) apart; the process id keeps
    /// concurrent processes apart.
    pub fn start(out_dir: &Path, tag: &str) -> Result<Self, String> {
        let dir = out_dir
            .join("tmp")
            .join(format!("{tag}-{}", std::process::id()));
        // A leftover from a killed run must not be resumed by this one.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // From here on `Drop` removes the directory, also if the start fails.
        let mut fixture = DaemonFixture { daemon: None, dir };
        let cfg = ServeConfig {
            threads: Some(1),
            ..ServeConfig::new(&fixture.dir)
        };
        fixture.daemon =
            Some(Daemon::start("127.0.0.1:0", cfg).map_err(|e| format!("daemon start: {e}"))?);
        Ok(fixture)
    }

    pub fn addr(&self) -> SocketAddr {
        self.daemon
            .as_ref()
            .expect("daemon runs until drop")
            .local_addr()
    }

    pub fn runs_dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for DaemonFixture {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // And `tmp/` itself, unless another fixture still has a dir in it.
        if let Some(tmp) = self.dir.parent() {
            let _ = std::fs::remove_dir(tmp);
        }
    }
}

/// The same streaming runner driven the way a real million-user job is:
/// through `POST /runs` on the daemon, light (20–45 s) titles, a checkpoint
/// after every shard. Per-session fixed cost, the fold, checkpoint
/// encode+fsync+rename, spec parse/render and the HTTP/store path carry a
/// large share; the chunk loop a small one.
pub struct DaemonLight {
    fixture: DaemonFixture,
    base: ExperimentSpec,
    jobs: u64,
}

impl DaemonLight {
    /// Jobs per rep, one after another.
    pub const JOBS: u64 = 4;
    pub const USERS_PER_JOB: usize = 4_000;
    /// Client poll interval. Every poll is a new connection thread beside
    /// the single worker; at 2 ms they compete with it and job wall swings
    /// ±15 %, at 25 ms a job of this size would be quantised to 10 %.
    pub const POLL: Duration = Duration::from_millis(10);

    pub fn start(seed: u64, scale: Scale, out_dir: &Path) -> Result<Self, String> {
        Ok(DaemonLight {
            fixture: DaemonFixture::start(out_dir, "daemon_light")?,
            base: population_spec(
                "daemon_light",
                Self::USERS_PER_JOB,
                true,
                derive_seed(seed, 2),
            ),
            jobs: scale.pick(Self::JOBS, 1),
        })
    }

    /// Job `job` of rep `rep`: every job has a seed of its own, so that a
    /// future content-addressed result cache cannot turn reps into lookups.
    fn job_spec(&self, rep: u64, job: u64) -> ExperimentSpec {
        ExperimentSpec {
            seed: self.base.seed + rep * self.jobs + job,
            ..self.base.clone()
        }
    }
}

impl Workload for DaemonLight {
    fn work_unit(&self) -> &'static str {
        "user pairs"
    }
    fn units_per_rep(&self) -> u64 {
        self.jobs * self.base.users_per_arm as u64
    }
    fn sizes(&self) -> Value {
        obj(vec![
            ("jobs", Value::Num(self.jobs as f64)),
            ("spec", self.base.to_json()),
            ("poll_ms", Value::Num(Self::POLL.as_millis() as f64)),
            ("checkpoint_every", Value::Num(1.0)),
            ("clients", Value::Num(1.0)),
            ("workers", Value::Num(1.0)),
        ])
    }
    fn fingerprint_repeats(&self) -> bool {
        false
    }
    fn rep(&mut self, rep: u64, t: &mut Tracer) -> Result<RepOutcome, String> {
        let mut out = RepOutcome::default();
        let mut h = Fnv::new();
        let users = self.base.users_per_arm as u64;
        for job in 0..self.jobs {
            let body = self.job_spec(rep, job).to_json().to_string();
            let done = out.call(|| submit_and_wait(self.fixture.addr(), &body, Self::POLL, t));
            out.count(done.succeeded(users));
            // A job without a result has fingerprint 0.
            h.u64(done.result.map_or(0, |(_, _, fp)| fp));
        }
        out.fingerprint = h.finish();
        Ok(out)
    }
    /// The cold rep's results must be what `run_streaming` gives in-process
    /// for the same specs.
    fn reference_fingerprint(&mut self) -> Result<Option<u64>, String> {
        let mut h = Fnv::new();
        for job in 0..self.jobs {
            let run = Experiment::builder()
                .spec(&self.job_spec(0, job))
                .run_streaming()
                .map_err(|e| format!("reference run_streaming: {e}"))?;
            h.u64(run.fingerprint());
        }
        Ok(Some(h.finish()))
    }
}

// ---------------------------------------------------------------------------
// cc_matrix
// ---------------------------------------------------------------------------

/// FNV-1a of the matrix CSV rows.
fn matrix_fingerprint(cells: &[MatrixCell]) -> u64 {
    let mut h = Fnv::new();
    for row in matrix_csv_rows(cells) {
        h.write(row.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// A cell made no progress: its post-start chunk throughput is zero or
/// not a number.
fn cell_failed(c: &MatrixCell) -> bool {
    !(c.chunk_tput_mbps.is_finite() && c.chunk_tput_mbps > 0.0)
}

/// The CC × pacing matrix as `fig_cc_matrix` runs it, one flow per
/// simulator on the drop-tail dumbbell: per-packet sender cost over both
/// wire protocols dominates; queue disciplines and multi-flow dispatch are
/// bypassed.
pub struct CcMatrix {
    config: LabConfig,
}

impl CcMatrix {
    /// `LabConfig`'s default: the figure's own run length.
    pub const RUN_FOR_S: u64 = 120;

    pub fn new(seed: u64, scale: Scale) -> Self {
        CcMatrix {
            config: LabConfig {
                run_for: SimDuration::from_secs(scale.pick(Self::RUN_FOR_S, 30)),
                seed: derive_seed(seed, 3),
                ..LabConfig::default()
            },
        }
    }

    pub fn config(&self) -> &LabConfig {
        &self.config
    }
}

/// `cc_matrix` cell by cell: one timed call and one span per `single_flow`.
/// Builds the rows exactly as `sammy_bench::matrix::cc_matrix` does, which
/// `CcMatrix::reference_fingerprint` holds it to.
pub fn cc_matrix_by_cell(
    base: &LabConfig,
    out: &mut RepOutcome,
    t: &mut Tracer,
) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for s in SUBSTRATES {
        for arm in [LabArm::Control, LabArm::Sammy] {
            let cfg = LabConfig {
                cc: s.cc,
                transport: s.transport,
                ..base.clone()
            };
            let name = format!("transport.matrix_cell.{}.{}", s.label, arm.label());
            let r = out.call(|| t.span(&name, |_| single_flow(arm, &cfg)));
            cells.push(MatrixCell {
                substrate: s.label,
                transport: s.transport,
                cc: s.cc,
                arm,
                chunk_tput_mbps: r.chunk_throughput_mbps,
                median_rtt_ms: r.median_rtt_ms,
                retx_fraction: r.retx_fraction,
                play_delay_s: r.play_delay_s,
                rebuffers: r.rebuffers,
                peak_queue_kb: r.max_queue_bytes as f64 / 1e3,
            });
        }
    }
    cells
}

impl Workload for CcMatrix {
    fn work_unit(&self) -> &'static str {
        "simulated flow-seconds"
    }
    fn units_per_rep(&self) -> u64 {
        self.config.run_for.as_secs_f64() as u64 * 2 * SUBSTRATES.len() as u64
    }
    fn sizes(&self) -> Value {
        obj(vec![
            ("run_for_s", Value::Num(self.config.run_for.as_secs_f64())),
            ("cells", Value::Num(2.0 * SUBSTRATES.len() as f64)),
            ("threads", Value::Num(1.0)),
        ])
    }
    fn rep(&mut self, _rep: u64, t: &mut Tracer) -> Result<RepOutcome, String> {
        let mut out = RepOutcome::default();
        let cells = cc_matrix_by_cell(&self.config, &mut out, t);
        out.attempted = cells.len() as u64;
        out.failed = cells.iter().filter(|c| cell_failed(c)).count() as u64;
        out.fingerprint = matrix_fingerprint(&cells);
        Ok(out)
    }
    /// The figure's own entry point must simulate what the cell-by-cell
    /// reps did. It runs its cells on a pool thread, whose allocator arena
    /// would make `peak_rss_mb` depend on thread timing — one more reason it
    /// is checked here and not timed.
    fn reference_fingerprint(&mut self) -> Result<Option<u64>, String> {
        Ok(Some(matrix_fingerprint(&cc_matrix(&self.config, 1))))
    }
}

// ---------------------------------------------------------------------------
// shared_aqm
// ---------------------------------------------------------------------------

/// The same engine used differently: six flows through the three-tier
/// `SharedTopology`, every `Queue`-trait discipline on the shared core,
/// `MultiSenderEndpoint`, packet-train dispatch and `LinkWake`.
pub struct SharedAqm {
    cells: Vec<(&'static str, LabArm, SharedLabConfig)>,
}

impl SharedAqm {
    pub const SESSIONS: usize = 6;
    pub const RUN_FOR_S: u64 = 20;

    /// The five disciplines by metric label. The token bucket runs at
    /// three quarters of the core rate so that it, not the link, binds.
    pub fn disciplines(sessions: usize) -> [(&'static str, Discipline); 5] {
        let core_mbps = SharedLabConfig::default().core_mbps_per_session * sessions as f64;
        [
            ("droptail", Discipline::DropTail),
            ("red", Discipline::Red(RedConfig::default())),
            ("codel", Discipline::CoDel(CoDelConfig::default())),
            ("drr", Discipline::Drr(DrrConfig::default())),
            (
                "tbf",
                Discipline::TokenBucket(TokenBucketConfig::new(
                    Rate::from_mbps(0.75 * core_mbps),
                    30_000,
                )),
            ),
        ]
    }

    pub fn new(seed: u64, scale: Scale) -> Self {
        let sessions = scale.pick(Self::SESSIONS, 4);
        let run_for = scale.pick(Self::RUN_FOR_S, 12);
        let mut cells = Vec::new();
        for (label, discipline) in Self::disciplines(sessions) {
            for arm in [LabArm::Control, LabArm::Sammy] {
                cells.push((
                    label,
                    arm,
                    SharedLabConfig {
                        sessions,
                        run_for: SimDuration::from_secs(run_for),
                        discipline,
                        seed: derive_seed(seed, 4),
                        ..SharedLabConfig::default()
                    },
                ));
            }
        }
        SharedAqm { cells }
    }
}

impl Workload for SharedAqm {
    fn work_unit(&self) -> &'static str {
        "simulated flow-seconds"
    }
    fn units_per_rep(&self) -> u64 {
        self.cells
            .iter()
            .map(|(_, _, c)| c.sessions as u64 * c.run_for.as_secs_f64() as u64)
            .sum()
    }
    fn sizes(&self) -> Value {
        let c = &self.cells[0].2;
        obj(vec![
            ("sessions", Value::Num(c.sessions as f64)),
            ("run_for_s", Value::Num(c.run_for.as_secs_f64())),
            ("cells", Value::Num(self.cells.len() as f64)),
            (
                "disciplines",
                Value::Str("droptail,red,codel,drr,tbf x control,sammy".into()),
            ),
            ("threads", Value::Num(1.0)),
        ])
    }
    fn rep(&mut self, _rep: u64, t: &mut Tracer) -> Result<RepOutcome, String> {
        let mut out = RepOutcome::default();
        let mut h = Fnv::new();
        for (label, arm, cfg) in &self.cells {
            let name = format!("netsim.shared_cell.{label}.{}", arm.label());
            let r = out.call(|| t.span(&name, |_| shared_sessions(*arm, cfg)));
            out.attempted += cfg.sessions as u64;
            // A session with no completed chunk reports exactly 0 Mbps.
            out.failed += r.per_session_mbps.iter().filter(|&&m| m <= 0.0).count() as u64;
            for &m in &r.per_session_mbps {
                h.f64(m);
            }
            h.f64(r.jain);
            h.u64(r.core_drops);
        }
        out.fingerprint = h.finish();
        Ok(out)
    }
}
