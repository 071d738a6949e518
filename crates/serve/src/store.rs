//! On-disk layout and atomic JSON persistence for the daemon.
//!
//! ```text
//! <runs_dir>/
//!   runs/r0001/
//!     spec.json      # canonical re-render of the submitted ExperimentSpec
//!     status.json    # {"id","state","error"?} — the run's lifecycle record
//!     metrics.jsonl  # append-only per-shard progress (monitoring surface)
//!     result.json    # deterministic final report (written once, on done)
//!     ckpt/          # streaming-runner checkpoints (PR 8 codec)
//!   searches/s0001/
//!     spec.json      # canonical SearchSpec
//!     status.json
//!     evals.jsonl    # one line per evaluation — the journal a resumed search replays
//!     result.json
//! ```
//!
//! Everything the daemon writes except the two `.jsonl` append logs goes
//! through `write_atomic` (tmp + rename), so a kill mid-write leaves
//! either the old file or the new one, never a torn half. IDs are
//! sequential (`r0001`, `s0001`, …) and allocation is serialized by the
//! daemon's state lock, so a runs-dir replays in submission order after a
//! restart.

use std::fs;
use std::path::{Path, PathBuf};

use netsim::SimError;
use spec::json::{self, Value};

/// Lifecycle states recorded in `status.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the worker.
    Queued,
    /// The worker is executing it.
    Running,
    /// Finished; `result.json` exists.
    Done,
    /// Aborted at a checkpoint/evaluation boundary (a simulated kill).
    /// Re-enqueued on the next startup scan.
    Interrupted,
    /// Failed with an error recorded in `status.json`.
    Failed,
}

impl JobState {
    /// Wire name, as stored in `status.json` and returned by the API.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Interrupted => "interrupted",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire name back.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "interrupted" => JobState::Interrupted,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// True once the job will make no further progress without a restart.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Interrupted
        )
    }
}

/// Which of the two job families a path belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// A single experiment (`POST /runs`).
    Run,
    /// A successive-halving search (`POST /searches`).
    Search,
}

impl JobKind {
    fn subdir(self) -> &'static str {
        match self {
            JobKind::Run => "runs",
            JobKind::Search => "searches",
        }
    }

    fn prefix(self) -> char {
        match self {
            JobKind::Run => 'r',
            JobKind::Search => 's',
        }
    }
}

/// Handle on the runs directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) a runs directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, SimError> {
        let root = root.into();
        for kind in [JobKind::Run, JobKind::Search] {
            fs::create_dir_all(root.join(kind.subdir()))
                .map_err(|e| SimError::Io(format!("create {}: {e}", root.display())))?;
        }
        Ok(Store { root })
    }

    /// Directory of one job.
    pub fn job_dir(&self, kind: JobKind, id: &str) -> PathBuf {
        self.root.join(kind.subdir()).join(id)
    }

    /// All job ids of a kind, sorted (== submission order, ids are
    /// zero-padded sequential). Only `<prefix><digits>` directories are
    /// jobs: anything else in the runs directory is not listed, not
    /// recovered and not written to.
    pub fn job_ids(&self, kind: JobKind) -> Vec<String> {
        let is_id = |name: &str| {
            name.strip_prefix(kind.prefix())
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        };
        let mut ids: Vec<String> = fs::read_dir(self.root.join(kind.subdir()))
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().is_dir())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|name| is_id(name))
                    .collect()
            })
            .unwrap_or_default();
        ids.sort();
        ids
    }

    /// Allocate the next sequential id (`r0001`, …). Caller must hold the
    /// daemon's state lock — allocation is scan-based, not atomic.
    fn next_id(&self, kind: JobKind) -> String {
        let max = self
            .job_ids(kind)
            .iter()
            .filter_map(|id| id[1..].parse::<u64>().ok())
            .max()
            .unwrap_or(0);
        format!("{}{:04}", kind.prefix(), max + 1)
    }

    /// Create a job directory with its canonical spec and a `queued`
    /// status. Returns the new id.
    pub fn create_job(&self, kind: JobKind, spec_json: &Value) -> Result<String, SimError> {
        let id = self.next_id(kind);
        let dir = self.job_dir(kind, &id);
        fs::create_dir_all(&dir)
            .map_err(|e| SimError::Io(format!("create {}: {e}", dir.display())))?;
        write_atomic(&dir.join("spec.json"), spec_json.to_string().as_bytes())?;
        self.write_status(kind, &id, JobState::Queued, None)?;
        Ok(id)
    }

    /// Read a job's canonical spec document.
    pub fn read_spec(&self, kind: JobKind, id: &str) -> Result<Value, SimError> {
        let path = self.job_dir(kind, id).join("spec.json");
        let text = fs::read_to_string(&path)
            .map_err(|e| SimError::Io(format!("read {}: {e}", path.display())))?;
        json::parse(&text)
    }

    /// Overwrite `status.json` atomically.
    pub fn write_status(
        &self,
        kind: JobKind,
        id: &str,
        state: JobState,
        error: Option<&str>,
    ) -> Result<(), SimError> {
        let mut fields = vec![
            ("id", Value::Str(id.to_string())),
            ("state", Value::Str(state.as_str().to_string())),
        ];
        if let Some(e) = error {
            fields.push(("error", Value::Str(e.to_string())));
        }
        let doc = json::obj(fields);
        write_atomic(
            &self.job_dir(kind, id).join("status.json"),
            doc.to_string().as_bytes(),
        )
    }

    /// Read `status.json`, if the job exists.
    pub fn read_status(&self, kind: JobKind, id: &str) -> Option<Value> {
        let path = self.job_dir(kind, id).join("status.json");
        let text = fs::read_to_string(path).ok()?;
        json::parse(&text).ok()
    }

    /// The job's current state (`None` if it does not exist or the
    /// status file is unreadable).
    pub fn state(&self, kind: JobKind, id: &str) -> Option<JobState> {
        self.read_status(kind, id)
            .and_then(|v| v.get("state").and_then(Value::as_str).map(str::to_string))
            .and_then(|s| JobState::parse(&s))
    }

    /// Write the final deterministic result document.
    pub fn write_result(&self, kind: JobKind, id: &str, doc: &Value) -> Result<(), SimError> {
        write_atomic(
            &self.job_dir(kind, id).join("result.json"),
            doc.to_string().as_bytes(),
        )
    }
}

/// Write a file via tmp + rename so readers never observe a torn write.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| SimError::Io(format!("write {}: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| SimError::Io(format!("rename {}: {e}", path.display())))?;
    Ok(())
}
