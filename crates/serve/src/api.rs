//! Route table and handlers — the JSON facade over [`Store`] +
//! the job scheduler (`scheduler::Scheduler`).
//!
//! ```text
//! GET  /healthz                  {"ok":true}
//! POST /runs                     body: ExperimentSpec   → 201 {"id","state"}
//! GET  /runs                     {"runs":[{"id","state"},…]}
//! GET  /runs/:id                 status.json
//! GET  /runs/:id/result          result.json (404 until done)
//! GET  /runs/:id/metrics         chunked JSONL tail until the run is terminal
//! POST /searches                 body: SearchSpec       → 201 {"id","state"}
//! GET  /searches                 {"searches":[…]}
//! GET  /searches/:id             status.json
//! GET  /searches/:id/result      result.json (404 until done)
//! GET  /searches/:id/evals       chunked JSONL tail of the evaluation log
//! ```
//!
//! Submissions are validated by the spec crate's strict parsers: unknown
//! fields, bad enum spellings, and malformed JSON all come back as
//! `400 {"error": …}` with the parser's message, before anything touches
//! disk. Accepted specs are re-rendered canonically into `spec.json`, so
//! the stored document — not the client's formatting — is the identity
//! the determinism guarantees attach to.

use std::io::{Read, Seek, SeekFrom};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use netsim::SimError;
use spec::json::{self, Value};
use spec::{ExperimentSpec, SearchSpec};

use crate::http::{self, ChunkedWriter, HttpError, Request};
use crate::scheduler::SchedHandle;
use crate::store::{JobKind, JobState, Store};

/// Shared state every connection thread gets a handle on.
pub(crate) struct ApiState {
    pub(crate) store: Store,
    pub(crate) sched: SchedHandle,
    /// Serializes id allocation (`Store::create_job` is scan-based).
    pub(crate) submit_lock: Mutex<()>,
    /// Daemon shutdown flag; long-lived tail loops poll it.
    pub(crate) shutdown: Arc<AtomicBool>,
}

fn error_doc(msg: &str) -> String {
    json::obj(vec![("error", Value::Str(msg.to_string()))]).to_string()
}

/// Serve one connection: parse, route, respond, close. A client that stops
/// sending mid-request is dropped after [`http::CONN_READ_TIMEOUT`] rather
/// than holding its thread forever.
pub(crate) fn handle_connection(mut stream: TcpStream, state: &ApiState) {
    // Fails only on a dead socket, which the read below reports anyway.
    let _ = stream.set_read_timeout(Some(http::CONN_READ_TIMEOUT));
    let req = match http::read_request(&mut stream) {
        Ok(req) => req,
        Err(HttpError::Bad(msg)) => {
            let _ = http::respond_json(&mut stream, 400, &error_doc(&msg));
            return;
        }
        Err(HttpError::TooLarge) => {
            let _ = http::respond_json(&mut stream, 413, &error_doc("body too large"));
            return;
        }
        Err(HttpError::HeadTooLarge) => {
            let _ = http::respond_json(&mut stream, 431, &error_doc("request head too large"));
            return;
        }
        Err(HttpError::Io(_)) => return,
    };
    route(&mut stream, &req, state);
}

/// Split `/runs/r0001/result` into segments.
fn segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

fn kind_of(segment: &str) -> Option<JobKind> {
    match segment {
        "runs" => Some(JobKind::Run),
        "searches" => Some(JobKind::Search),
        _ => None,
    }
}

fn route(stream: &mut TcpStream, req: &Request, state: &ApiState) {
    let segs = segments(&req.path);
    let out = match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => http::respond_json(stream, 200, r#"{"ok":true}"#),
        ("POST", [root]) if kind_of(root).is_some() => {
            submit(stream, kind_of(root).unwrap(), &req.body, state)
        }
        ("GET", [root]) if kind_of(root).is_some() => list(stream, kind_of(root).unwrap(), state),
        ("GET", [root, id]) if kind_of(root).is_some() => {
            status(stream, kind_of(root).unwrap(), id, state)
        }
        ("GET", [root, id, "result"]) if kind_of(root).is_some() => {
            result(stream, kind_of(root).unwrap(), id, state)
        }
        ("GET", ["runs", id, "metrics"]) => tail(stream, JobKind::Run, id, "metrics.jsonl", state),
        ("GET", ["searches", id, "evals"]) => {
            tail(stream, JobKind::Search, id, "evals.jsonl", state)
        }
        (_, [root, ..]) if kind_of(root).is_some() => {
            http::respond_json(stream, 405, &error_doc("method not allowed"))
        }
        _ => http::respond_json(stream, 404, &error_doc("no such route")),
    };
    let _ = out;
}

/// Validate the body as a spec, persist it canonically, enqueue.
fn submit(
    stream: &mut TcpStream,
    kind: JobKind,
    body: &[u8],
    state: &ApiState,
) -> std::io::Result<()> {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return http::respond_json(stream, 400, &error_doc("body is not UTF-8")),
    };
    // Strict parse via the spec types: canonical re-render on success,
    // the parser's own message (unknown field, bad enum, byte offset of
    // the syntax error) on failure.
    let canonical: Result<Value, SimError> = match kind {
        JobKind::Run => ExperimentSpec::from_json_str(text).map(|s| s.to_json()),
        JobKind::Search => SearchSpec::from_json_str(text).map(|s| s.to_json()),
    };
    let canonical = match canonical {
        Ok(v) => v,
        Err(e) => return http::respond_json(stream, 400, &error_doc(&e.to_string())),
    };
    let id = {
        let _guard = state.submit_lock.lock().unwrap();
        match state.store.create_job(kind, &canonical) {
            Ok(id) => id,
            Err(e) => return http::respond_json(stream, 500, &error_doc(&e.to_string())),
        }
    };
    state.sched.enqueue(kind, id.clone());
    let doc = json::obj(vec![
        ("id", Value::Str(id)),
        ("state", Value::Str("queued".into())),
    ]);
    http::respond_json(stream, 201, &doc.to_string())
}

fn list(stream: &mut TcpStream, kind: JobKind, state: &ApiState) -> std::io::Result<()> {
    let items: Vec<Value> = state
        .store
        .job_ids(kind)
        .into_iter()
        .map(|id| {
            let s = state
                .store
                .state(kind, &id)
                .map(JobState::as_str)
                .unwrap_or("unknown");
            json::obj(vec![
                ("id", Value::Str(id)),
                ("state", Value::Str(s.to_string())),
            ])
        })
        .collect();
    let key = match kind {
        JobKind::Run => "runs",
        JobKind::Search => "searches",
    };
    let doc = json::obj(vec![(key, Value::Arr(items))]);
    http::respond_json(stream, 200, &doc.to_string())
}

fn status(
    stream: &mut TcpStream,
    kind: JobKind,
    id: &str,
    state: &ApiState,
) -> std::io::Result<()> {
    match state.store.read_status(kind, id) {
        Some(doc) => http::respond_json(stream, 200, &doc.to_string()),
        None => http::respond_json(stream, 404, &error_doc("no such job")),
    }
}

fn result(
    stream: &mut TcpStream,
    kind: JobKind,
    id: &str,
    state: &ApiState,
) -> std::io::Result<()> {
    let Some(job_state) = state.store.state(kind, id) else {
        return http::respond_json(stream, 404, &error_doc("no such job"));
    };
    if job_state != JobState::Done {
        let doc = json::obj(vec![
            ("error", Value::Str("result not available".into())),
            ("state", Value::Str(job_state.as_str().to_string())),
        ]);
        return http::respond_json(stream, 404, &doc.to_string());
    }
    let path = state.store.job_dir(kind, id).join("result.json");
    match std::fs::read_to_string(path) {
        Ok(body) => http::respond_json(stream, 200, &body),
        Err(e) => http::respond_json(stream, 500, &error_doc(&e.to_string())),
    }
}

/// Chunked live tail of an append-only JSONL file: streams what exists,
/// then polls for growth until the job reaches a terminal state (or the
/// daemon shuts down), then closes the stream.
fn tail(
    stream: &mut TcpStream,
    kind: JobKind,
    id: &str,
    file: &str,
    state: &ApiState,
) -> std::io::Result<()> {
    if state.store.state(kind, id).is_none() {
        return http::respond_json(stream, 404, &error_doc("no such job"));
    }
    let path = state.store.job_dir(kind, id).join(file);
    let mut writer = ChunkedWriter::start(stream, 200)?;
    let mut offset = 0u64;
    let mut buf = Vec::new();
    loop {
        if let Ok(mut f) = std::fs::File::open(&path) {
            f.seek(SeekFrom::Start(offset))?;
            buf.clear();
            f.read_to_end(&mut buf)?;
            if !buf.is_empty() {
                offset += buf.len() as u64;
                writer.chunk(&buf)?;
                continue; // drain before checking for the end
            }
        }
        let terminal = state
            .store
            .state(kind, id)
            .map(JobState::terminal)
            .unwrap_or(true);
        if terminal || state.shutdown.load(Ordering::SeqCst) {
            return writer.finish();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
