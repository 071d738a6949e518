//! The daemon's single worker thread: pops jobs off a queue and executes
//! them via the streaming experiment runner ([`JobKind::Run`]) or the
//! successive-halving optimizer ([`JobKind::Search`]).
//!
//! One worker, on purpose. Parallelism lives *inside* a job (the
//! streaming runner's shard threads); running jobs sequentially keeps the
//! runs directory a deterministic function of the submission sequence,
//! which is what makes the kill/restart battery able to demand
//! byte-identical artifacts.
//!
//! Crash durability is delegated downward: runs checkpoint through the
//! PR 8 codec under `ckpt/`, searches append every fresh evaluation to
//! `evals.jsonl`. The startup scan ([`Scheduler::recover`]) re-enqueues
//! every non-terminal job, so a killed daemon restarted on the same
//! runs-dir finishes all in-flight work with bit-identical results.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use abtest::{halving_search_with, Candidate, Evaluation, Experiment, StreamRun};
use netsim::SimError;
use spec::json::{self, Value};
use spec::{ExperimentSpec, SearchSpec};

use crate::store::{JobKind, JobState, Store};

/// Daemon options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the persistent runs directory.
    pub runs_dir: PathBuf,
    /// When set, overrides each spec's `threads` field. Results are
    /// thread-invariant, so this only changes wall-clock.
    pub threads: Option<usize>,
    /// Shards between run checkpoints (1 = checkpoint every shard; the
    /// daemon default, since service jobs should survive kills tightly).
    pub checkpoint_every: usize,
    /// Test hook: abort each run after this many checkpoints, simulating
    /// a kill at a checkpoint boundary. The run is marked `interrupted`.
    pub abort_runs_after_checkpoints: Option<usize>,
    /// Test hook: abort each search after this many *fresh* evaluations
    /// (cached replays don't count), simulating a kill at an evaluation
    /// boundary. The search is marked `interrupted`.
    pub abort_search_after_evals: Option<usize>,
}

impl ServeConfig {
    /// Config with daemon defaults rooted at `runs_dir`.
    pub fn new(runs_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            runs_dir: runs_dir.into(),
            threads: None,
            checkpoint_every: 1,
            abort_runs_after_checkpoints: None,
            abort_search_after_evals: None,
        }
    }
}

struct SchedInner {
    queue: Mutex<VecDeque<(JobKind, String)>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// Handle on the worker thread + queue.
pub(crate) struct Scheduler {
    inner: Arc<SchedInner>,
    worker: Option<JoinHandle<()>>,
}

/// Cloneable enqueue-only handle for the connection threads.
#[derive(Clone)]
pub(crate) struct SchedHandle {
    inner: Arc<SchedInner>,
}

impl SchedHandle {
    /// Queue a job for execution.
    pub(crate) fn enqueue(&self, kind: JobKind, id: String) {
        self.inner.queue.lock().unwrap().push_back((kind, id));
        self.inner.cv.notify_one();
    }
}

impl Scheduler {
    /// Spawn the worker.
    pub(crate) fn start(store: Store, cfg: ServeConfig) -> Scheduler {
        let inner = Arc::new(SchedInner {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("sammy-serve-worker".into())
            .spawn(move || worker_loop(worker_inner, store, cfg))
            .expect("spawn worker");
        Scheduler {
            inner,
            worker: Some(worker),
        }
    }

    /// Queue a job for execution.
    pub(crate) fn enqueue(&self, kind: JobKind, id: String) {
        self.inner.queue.lock().unwrap().push_back((kind, id));
        self.inner.cv.notify_one();
    }

    /// An enqueue-only handle for connection threads.
    pub(crate) fn handle(&self) -> SchedHandle {
        SchedHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Re-enqueue every non-terminal job found on disk, runs first, in id
    /// (== submission) order. Failed and done jobs are left alone;
    /// interrupted jobs resume from their checkpoints.
    pub(crate) fn recover(&self, store: &Store) -> Result<usize, SimError> {
        let mut recovered = 0;
        for kind in [JobKind::Run, JobKind::Search] {
            for id in store.job_ids(kind) {
                match store.state(kind, &id) {
                    Some(JobState::Done | JobState::Failed) => {}
                    // Non-terminal, or no/unreadable status: a kill between
                    // mkdir and the first status write. The spec is there
                    // (and is validated again when the job runs); queue it.
                    _ => {
                        store.write_status(kind, &id, JobState::Queued, None)?;
                        self.enqueue(kind, id);
                        recovered += 1;
                    }
                }
            }
        }
        Ok(recovered)
    }

    /// Stop after the current job; queued jobs stay `queued` on disk and
    /// are picked up by the next startup scan.
    pub(crate) fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: Arc<SchedInner>, store: Store, cfg: ServeConfig) {
    loop {
        let job = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = inner.cv.wait(q).unwrap();
            }
        };
        let (kind, id) = job;
        let outcome = match kind {
            JobKind::Run => execute_run(&store, &id, &cfg),
            JobKind::Search => execute_search(&store, &id, &cfg),
        };
        if let Err(e) = outcome {
            // Last-resort: record the failure; ignore status-write errors
            // (disk gone — nothing further to do).
            let _ = store.write_status(kind, &id, JobState::Failed, Some(&e.to_string()));
        }
    }
}

/// Execute one experiment run end to end.
fn execute_run(store: &Store, id: &str, cfg: &ServeConfig) -> Result<(), SimError> {
    store.write_status(JobKind::Run, id, JobState::Running, None)?;
    let mut s = ExperimentSpec::from_json(&store.read_spec(JobKind::Run, id)?)?;
    if let Some(t) = cfg.threads {
        s.threads = t;
    }
    let dir = store.job_dir(JobKind::Run, id);

    let mut builder = Experiment::builder()
        .spec(&s)
        .checkpoint_dir(dir.join("ckpt"))
        .checkpoint_every(cfg.checkpoint_every)
        .resume(true)
        .progress_jsonl(dir.join("metrics.jsonl"));
    if let Some(n) = cfg.abort_runs_after_checkpoints {
        builder = builder.abort_after_checkpoints(n);
    }

    match builder.run_streaming() {
        Ok(run) if run.completed => {
            store.write_result(JobKind::Run, id, &run_result_doc(id, &run))?;
            store.write_status(JobKind::Run, id, JobState::Done, None)
        }
        Ok(_) => store.write_status(JobKind::Run, id, JobState::Interrupted, None),
        Err(e) => store.write_status(JobKind::Run, id, JobState::Failed, Some(&e.to_string())),
    }
}

/// Deterministic final report for a completed run. Every number either
/// comes from the merged state (thread- and resume-invariant by the
/// PR 8 batteries) or is a count — no wall-clock, no host identity — so
/// two runs of the same spec produce byte-identical documents.
fn run_result_doc(id: &str, run: &StreamRun) -> Value {
    let report = run.report();
    let rows: Vec<Value> = report
        .rows
        .iter()
        .map(|r| {
            json::obj(vec![
                ("name", Value::Str(r.name.to_string())),
                (
                    "agg",
                    Value::Str(format!("{:?}", r.agg).to_ascii_lowercase()),
                ),
                ("control", Value::Num(r.control)),
                ("treatment", Value::Num(r.treatment)),
                ("pct_change", Value::Num(r.pct_change)),
                (
                    "paired",
                    json::obj(vec![
                        ("mean_delta_pct", Value::Num(r.paired.mean_delta_pct)),
                        ("ci_low", Value::Num(r.paired.ci_low)),
                        ("ci_high", Value::Num(r.paired.ci_high)),
                    ]),
                ),
                ("control_count", Value::Num(r.control_count as f64)),
                ("treatment_count", Value::Num(r.treatment_count as f64)),
            ])
        })
        .collect();
    json::obj(vec![
        ("id", Value::Str(id.to_string())),
        ("users", Value::Num(report.users as f64)),
        ("failures", Value::Num(report.failures as f64)),
        ("shards", Value::Num(run.shards as f64)),
        (
            "fingerprint",
            Value::Str(format!("{:016x}", run.fingerprint())),
        ),
        ("rows", Value::Arr(rows)),
    ])
}

/// Candidate → JSON, the one encoding shared by `evals.jsonl` and
/// `result.json`.
fn candidate_doc(c: &Candidate) -> Value {
    json::obj(vec![
        ("c0", Value::Num(c.c0)),
        ("c1", Value::Num(c.c1)),
        ("tput_pct", Value::Num(c.tput_pct)),
        ("vmaf_pct", Value::Num(c.vmaf_pct)),
        ("play_delay_pct", Value::Num(c.play_delay_pct)),
        ("rebuffer_pct", Value::Num(c.rebuffer_pct)),
        ("feasible", Value::Bool(c.feasible)),
    ])
}

/// Evaluation → JSON: one `evals.jsonl` line, one element of
/// `result.json`'s `evaluations`.
fn evaluation_doc(e: &Evaluation) -> Value {
    json::obj(vec![
        ("rung", Value::Num(e.rung as f64)),
        ("users", Value::Num(e.users as f64)),
        ("candidate", candidate_doc(&e.candidate)),
    ])
}

fn candidate_from_doc(v: &Value) -> Option<Candidate> {
    Some(Candidate {
        c0: v.get("c0")?.as_f64()?,
        c1: v.get("c1")?.as_f64()?,
        tput_pct: v.get("tput_pct")?.as_f64()?,
        vmaf_pct: v.get("vmaf_pct")?.as_f64()?,
        play_delay_pct: v.get("play_delay_pct")?.as_f64()?,
        rebuffer_pct: v.get("rebuffer_pct")?.as_f64()?,
        feasible: v.get("feasible")?.as_bool()?,
    })
}

/// Evaluation cache key: exact bit patterns, because the arms are exact
/// f64s round-tripped through the shortest-representation codec.
fn eval_key(rung: usize, c0: f64, c1: f64) -> (usize, u64, u64) {
    (rung, c0.to_bits(), c1.to_bits())
}

/// Load the persisted evaluation cache from `evals.jsonl`. A torn final
/// line (kill mid-append) is skipped; every complete line is a finished
/// evaluation.
fn load_evals(path: &std::path::Path) -> HashMap<(usize, u64, u64), Candidate> {
    let mut cache = HashMap::new();
    let Ok(text) = fs::read_to_string(path) else {
        return cache;
    };
    for line in text.lines() {
        let Ok(doc) = json::parse(line) else { continue };
        let Some(rung) = doc.get("rung").and_then(Value::as_u64) else {
            continue;
        };
        let Some(c) = doc.get("candidate").and_then(candidate_from_doc) else {
            continue;
        };
        cache.insert(eval_key(rung as usize, c.c0, c.c1), c);
    }
    cache
}

/// Execute one successive-halving search end to end.
fn execute_search(store: &Store, id: &str, cfg: &ServeConfig) -> Result<(), SimError> {
    store.write_status(JobKind::Search, id, JobState::Running, None)?;
    let mut s = SearchSpec::from_json(&store.read_spec(JobKind::Search, id)?)?;
    if let Some(t) = cfg.threads {
        s.base.threads = t;
    }

    let dir = store.job_dir(JobKind::Search, id);
    let evals_path = dir.join("evals.jsonl");
    let cache = std::cell::RefCell::new(load_evals(&evals_path));
    let mut log = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&evals_path)
        .map_err(|e| SimError::Io(format!("open {}: {e}", evals_path.display())))?;

    let mut fresh = 0usize;
    let mut aborted = false;
    let outcome = halving_search_with(
        &s,
        |rung, c0, c1| cache.borrow().get(&eval_key(rung, c0, c1)).cloned(),
        |ev: &Evaluation| {
            let key = eval_key(ev.rung, ev.candidate.c0, ev.candidate.c1);
            if cache.borrow().contains_key(&key) {
                return true; // replayed from the persisted log
            }
            let line = evaluation_doc(ev);
            // Append + flush before continuing: a kill after this point
            // never repeats the evaluation.
            let ok = writeln!(log, "{line}").and_then(|_| log.flush()).is_ok();
            if !ok {
                return false;
            }
            cache.borrow_mut().insert(key, ev.candidate.clone());
            fresh += 1;
            if let Some(limit) = cfg.abort_search_after_evals {
                if fresh >= limit {
                    aborted = true;
                    return false;
                }
            }
            true
        },
    );

    match outcome {
        Ok(out) => {
            let evaluations: Vec<Value> = out.evaluations.iter().map(evaluation_doc).collect();
            let doc = json::obj(vec![
                ("id", Value::Str(id.to_string())),
                ("best", candidate_doc(&out.best)),
                ("rungs_run", Value::Num(out.rungs_run as f64)),
                ("user_sessions", Value::Num(out.user_sessions as f64)),
                ("evaluations", Value::Arr(evaluations)),
            ]);
            store.write_result(JobKind::Search, id, &doc)?;
            store.write_status(JobKind::Search, id, JobState::Done, None)
        }
        Err(_) if aborted => store.write_status(JobKind::Search, id, JobState::Interrupted, None),
        Err(e) => store.write_status(JobKind::Search, id, JobState::Failed, Some(&e.to_string())),
    }
}
