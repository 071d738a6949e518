//! The daemon's single worker thread: pops jobs off a queue and runs each
//! through one lifecycle, [`JobKind::Run`] on the streaming experiment
//! runner and [`JobKind::Search`] on the successive-halving optimizer.
//!
//! One worker, on purpose. Parallelism lives *inside* a job (the
//! streaming runner's shard threads); running jobs sequentially keeps the
//! runs directory a deterministic function of the submission sequence,
//! which is what makes the kill/restart battery able to demand
//! byte-identical artifacts.
//!
//! Crash durability is delegated downward: runs checkpoint every shard
//! under `ckpt/`, searches append every fresh evaluation to
//! `evals.jsonl`, the journal a resumed search replays by position. The
//! startup scan (`Scheduler::recover`) re-enqueues every non-terminal
//! job, so a killed daemon restarted on the same runs-dir finishes all
//! in-flight work with bit-identical results.

use std::collections::VecDeque;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use abtest::{halving_search_with, Candidate, Evaluation, Experiment, StreamRun};
use netsim::SimError;
use spec::json::{self, Value};
use spec::{ExperimentSpec, SearchSpec};

use crate::store::{JobKind, JobState, Store};

/// Shards between run checkpoints: every shard, so a killed run repeats
/// at most one.
const CHECKPOINT_EVERY: usize = 1;

/// Daemon options.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root of the persistent runs directory.
    pub runs_dir: PathBuf,
    /// When set, overrides each spec's `threads` field. Results are
    /// thread-invariant, so this only changes wall-clock.
    pub threads: Option<usize>,
    /// Test hook: abort each run after this many checkpoints, simulating
    /// a kill at a checkpoint boundary. The run is marked `interrupted`.
    pub abort_runs_after_checkpoints: Option<usize>,
    /// Test hook: abort each search after this many *fresh* evaluations
    /// (replayed ones don't count), simulating a kill at an evaluation
    /// boundary. The search is marked `interrupted`.
    pub abort_search_after_evals: Option<usize>,
}

impl ServeConfig {
    /// Config with daemon defaults rooted at `runs_dir`.
    pub fn new(runs_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            runs_dir: runs_dir.into(),
            threads: None,
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
    /// The enqueue handle the connection threads clone.
    pub(crate) handle: SchedHandle,
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
            handle: SchedHandle { inner },
            worker: Some(worker),
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
                        self.handle.enqueue(kind, id);
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
        let inner = &self.handle.inner;
        inner.shutdown.store(true, Ordering::SeqCst);
        inner.cv.notify_all();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: Arc<SchedInner>, store: Store, cfg: ServeConfig) {
    loop {
        let (kind, id) = {
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
        execute(&store, kind, &id, &cfg);
    }
}

/// What a job's body returns: its result document, or `None` when its
/// abort hook stopped it.
type Body = Result<Option<Value>, SimError>;

/// Take one job through its lifecycle: `Running`, then `Done` with
/// `result.json` written, `Interrupted` when its abort hook stopped it,
/// or `Failed` with the error. Each kind supplies only its [`Body`].
fn execute(store: &Store, kind: JobKind, id: &str, cfg: &ServeConfig) {
    let dir = store.job_dir(kind, id);
    let outcome = store
        .write_status(kind, id, JobState::Running, None)
        .and_then(|()| store.read_spec(kind, id))
        .and_then(|spec| match kind {
            JobKind::Run => run_body(id, &spec, &dir, cfg),
            JobKind::Search => search_body(id, &spec, &dir, cfg),
        })
        .and_then(|doc| match doc {
            Some(doc) => store.write_result(kind, id, &doc).map(|()| JobState::Done),
            None => Ok(JobState::Interrupted),
        });
    // A status write that fails here has nowhere left to report to.
    let _ = match outcome {
        Ok(state) => store.write_status(kind, id, state, None),
        Err(e) => store.write_status(kind, id, JobState::Failed, Some(&e.to_string())),
    };
}

/// An experiment run's body: the streaming runner, checkpointing under
/// `ckpt/` and resuming from the newest checkpoint there.
fn run_body(id: &str, spec: &Value, dir: &Path, cfg: &ServeConfig) -> Body {
    let mut s = ExperimentSpec::from_json(spec)?;
    if let Some(t) = cfg.threads {
        s.threads = t;
    }
    let mut builder = Experiment::builder()
        .spec(&s)
        .checkpoint_dir(dir.join("ckpt"))
        .checkpoint_every(CHECKPOINT_EVERY)
        .resume(true)
        .progress_jsonl(dir.join("metrics.jsonl"));
    if let Some(n) = cfg.abort_runs_after_checkpoints {
        builder = builder.abort_after_checkpoints(n);
    }
    let run = builder.run_streaming()?;
    Ok(run.completed.then(|| run_result_doc(id, &run)))
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

/// The inverse of [`evaluation_doc`], reading one `evals.jsonl` line.
fn evaluation_from_line(line: &[u8]) -> Option<Evaluation> {
    let doc = json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let c = doc.get("candidate")?;
    let num = |key| c.get(key).and_then(Value::as_f64);
    Some(Evaluation {
        rung: doc.get("rung")?.as_u64()? as usize,
        users: doc.get("users")?.as_u64()? as usize,
        candidate: Candidate {
            c0: num("c0")?,
            c1: num("c1")?,
            tput_pct: num("tput_pct")?,
            vmaf_pct: num("vmaf_pct")?,
            play_delay_pct: num("play_delay_pct")?,
            rebuffer_pct: num("rebuffer_pct")?,
            feasible: c.get("feasible")?.as_bool()?,
        },
    })
}

/// Open a search's journal for appending and read it once: the longest
/// prefix of complete lines that decode as evaluations. The file is cut
/// back to that prefix, so a tail torn by a kill mid-append goes and its
/// evaluation is simulated again.
fn open_journal(path: &Path) -> Result<(Vec<Evaluation>, fs::File), SimError> {
    let io = |e: std::io::Error| SimError::Io(format!("journal {}: {e}", path.display()));
    let mut file = fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
        .map_err(io)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(io)?;
    let mut journal = Vec::new();
    let mut kept = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let Some(ev) = line.strip_suffix(b"\n").and_then(evaluation_from_line) else {
            break;
        };
        journal.push(ev);
        kept += line.len();
    }
    file.set_len(kept as u64).map_err(io)?;
    Ok((journal, file))
}

/// A halving search's body: replay the journal, append each fresh
/// evaluation to it before the search moves on.
fn search_body(id: &str, spec: &Value, dir: &Path, cfg: &ServeConfig) -> Body {
    let mut s = SearchSpec::from_json(spec)?;
    if let Some(t) = cfg.threads {
        s.base.threads = t;
    }
    let path = dir.join("evals.jsonl");
    let (journal, mut log) = open_journal(&path)?;
    let mut fresh = 0usize;
    let mut aborted = false;
    let outcome = halving_search_with(&s, &journal, |ev| {
        // The line and its newline in one write: a kill leaves at most a
        // torn tail, which the next start cuts off.
        log.write_all(format!("{}\n", evaluation_doc(ev)).as_bytes())
            .map_err(|e| SimError::Io(format!("append {}: {e}", path.display())))?;
        fresh += 1;
        if cfg.abort_search_after_evals.is_some_and(|n| fresh >= n) {
            aborted = true;
            return Err(SimError::Io("search aborted by its test hook".into()));
        }
        Ok(())
    });
    let out = match outcome {
        Err(_) if aborted => return Ok(None),
        out => out?,
    };
    Ok(Some(json::obj(vec![
        ("id", Value::Str(id.to_string())),
        ("best", candidate_doc(&out.best)),
        ("rungs_run", Value::Num(out.rungs_run as f64)),
        ("user_sessions", Value::Num(out.user_sessions as f64)),
        (
            "evaluations",
            Value::Arr(out.evaluations.iter().map(evaluation_doc).collect()),
        ),
    ])))
}
