//! End-to-end daemon battery: submit → poll → result over real sockets,
//! strict 4xx rejection of bad specs, and the headline guarantee — a
//! daemon killed mid-run (or mid-search) and restarted on the same runs
//! directory produces **byte-identical** final artifacts to one that was
//! never interrupted.
//!
//! Kills are simulated at the exact durability boundaries (checkpoint
//! written / evaluation journaled) via the `ServeConfig` abort hooks, so
//! the battery exercises the same resume paths as a real `kill -9`
//! without the flakiness of killing a process at a random instruction.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sammy_serve::http::{http_request, CONN_READ_TIMEOUT, MAX_HEAD};
use sammy_serve::{Daemon, JobState, ServeConfig};
use spec::json::{self, Value};

/// Fresh scratch directory under the system temp dir, removed when the
/// guard drops — at the end of its test, passed or failed.
fn tmp_dir(tag: &str) -> TmpDir {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("sammy-serve-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TmpDir(dir)
}

/// A scratch directory that removes itself on drop.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// So `ServeConfig::new(&dir)` takes the guard as a path.
impl AsRef<std::ffi::OsStr> for TmpDir {
    fn as_ref(&self) -> &std::ffi::OsStr {
        self.0.as_os_str()
    }
}

fn get(daemon: &Daemon, path: &str) -> (u16, String) {
    http_request(daemon.local_addr(), "GET", path, None).expect("GET")
}

fn post(daemon: &Daemon, path: &str, body: &str) -> (u16, String) {
    http_request(daemon.local_addr(), "POST", path, Some(body)).expect("POST")
}

/// Poll a job's status until `want` (panics after 120 s — debug-profile
/// fluid runs are slow but nowhere near that slow).
fn wait_for(daemon: &Daemon, path: &str, want: JobState) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = get(daemon, path);
        assert_eq!(code, 200, "poll {path}: {body}");
        let doc = json::parse(&body).unwrap();
        let state = doc
            .get("state")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        if state == want.as_str() {
            return;
        }
        assert!(
            !JobState::parse(&state).unwrap().terminal(),
            "{path} reached terminal state {state:?} while waiting for {want:?}: {body}"
        );
        assert!(Instant::now() < deadline, "timed out waiting for {path}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Tiny two-shard experiment: 8 users × (1 pre + 1 measured) session.
const RUN_SPEC: &str = r#"{"name":"t1","users_per_arm":8,"pre_sessions":1,"sessions_per_user":1,"seed":7,"bootstrap_reps":40,"threads":2,"shard_size":4,"light_population":true}"#;

/// Three-shard variant for the kill/resume battery (interrupt after the
/// first of three checkpoints).
const RESUME_RUN_SPEC: &str = r#"{"name":"t2","users_per_arm":12,"pre_sessions":1,"sessions_per_user":1,"seed":9,"bootstrap_reps":40,"threads":2,"shard_size":4,"light_population":true}"#;

/// Four-arm, two-rung halving search over a tiny base experiment, with
/// guards loose enough that everything is feasible.
const SEARCH_SPEC: &str = r#"{"name":"s1","arms":[{"c0":1.5,"c1":1.3},{"c0":2.0,"c1":1.75},{"c0":2.5,"c1":2.2},{"c0":3.0,"c1":2.6}],"initial_users":4,"eta":2,"rungs":2,"guards":{"min_vmaf_pct":-100.0,"max_play_delay_pct":1000.0,"max_rebuffer_pct":1000.0},"base":{"name":"s1-base","pre_sessions":1,"sessions_per_user":1,"seed":11,"bootstrap_reps":40,"threads":2,"light_population":true}}"#;

#[test]
fn submit_poll_result_and_metrics_tail() {
    let dir = tmp_dir("e2e");
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();

    let (code, body) = get(&daemon, "/healthz");
    assert_eq!((code, body.as_str()), (200, r#"{"ok":true}"#));

    // Strict validation happens before anything touches disk.
    let (code, body) = post(&daemon, "/runs", "{not json");
    assert_eq!(code, 400, "{body}");
    let (code, body) = post(&daemon, "/runs", r#"{"userz_per_arm":8}"#);
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("unknown field"), "{body}");
    let (code, body) = post(&daemon, "/runs", r#"{"transport":{"cc":"vegas"}}"#);
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("vegas"), "{body}");
    let (code, _) = get(&daemon, "/runs/r9999");
    assert_eq!(code, 404);

    // Happy path: submit, poll to done, fetch the artifacts.
    let (code, body) = post(&daemon, "/runs", RUN_SPEC);
    assert_eq!(code, 201, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("id").and_then(Value::as_str), Some("r0001"));
    wait_for(&daemon, "/runs/r0001", JobState::Done);

    let (code, body) = get(&daemon, "/runs");
    assert_eq!(code, 200);
    assert!(body.contains(r#""id":"r0001""#), "{body}");
    assert!(body.contains(r#""state":"done""#), "{body}");

    let (code, body) = get(&daemon, "/runs/r0001/result");
    assert_eq!(code, 200, "{body}");
    let result = json::parse(&body).unwrap();
    assert_eq!(result.get("users").and_then(Value::as_u64), Some(8));
    assert!(result.get("fingerprint").and_then(Value::as_str).is_some());
    assert_eq!(
        result
            .get("rows")
            .and_then(Value::as_arr)
            .map(|r| !r.is_empty()),
        Some(true)
    );

    // The metrics tail streams one progress line per merged shard.
    let (code, body) = get(&daemon, "/runs/r0001/metrics");
    assert_eq!(code, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "8 users / shard_size 4 = 2 shards: {body}");
    for line in &lines {
        let doc = json::parse(line).unwrap();
        assert_eq!(doc.get("type").and_then(Value::as_str), Some("progress"));
    }

    // The stored spec is the canonical re-render, not the client bytes.
    let stored = std::fs::read_to_string(dir.join("runs/r0001/spec.json")).unwrap();
    let canon = spec::ExperimentSpec::from_json_str(RUN_SPEC).unwrap();
    assert_eq!(stored, canon.to_json().to_string());

    daemon.stop();
}

#[test]
fn killed_run_resumes_bit_identical() {
    // Daemon A dies (simulated) after the first of three checkpoints.
    let dir_a = tmp_dir("resume-a");
    let mut cfg = ServeConfig::new(&dir_a);
    cfg.abort_runs_after_checkpoints = Some(1);
    let daemon = Daemon::start("127.0.0.1:0", cfg).unwrap();
    let (code, body) = post(&daemon, "/runs", RESUME_RUN_SPEC);
    assert_eq!(code, 201, "{body}");
    wait_for(&daemon, "/runs/r0001", JobState::Interrupted);
    assert!(!dir_a.join("runs/r0001/result.json").exists());
    daemon.stop();

    // Daemon A′ restarts on the same runs-dir and finishes the job.
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir_a)).unwrap();
    assert_eq!(daemon.recovered(), 1);
    wait_for(&daemon, "/runs/r0001", JobState::Done);
    daemon.stop();
    let resumed = std::fs::read(dir_a.join("runs/r0001/result.json")).unwrap();

    // Daemon B runs the same spec uninterrupted in a fresh directory.
    let dir_b = tmp_dir("resume-b");
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir_b)).unwrap();
    let (code, _) = post(&daemon, "/runs", RESUME_RUN_SPEC);
    assert_eq!(code, 201);
    wait_for(&daemon, "/runs/r0001", JobState::Done);
    daemon.stop();
    let fresh = std::fs::read(dir_b.join("runs/r0001/result.json")).unwrap();

    assert_eq!(resumed, fresh, "kill/resume must not change a single byte");
}

#[test]
fn killed_search_resumes_bit_identical() {
    // Daemon A dies (simulated) after journaling 3 of the 6 evaluations.
    let dir_a = tmp_dir("search-a");
    let mut cfg = ServeConfig::new(&dir_a);
    cfg.abort_search_after_evals = Some(3);
    let daemon = Daemon::start("127.0.0.1:0", cfg).unwrap();
    let (code, body) = post(&daemon, "/searches", SEARCH_SPEC);
    assert_eq!(code, 201, "{body}");
    assert!(
        json::parse(&body)
            .unwrap()
            .get("id")
            .and_then(Value::as_str)
            == Some("s0001")
    );
    wait_for(&daemon, "/searches/s0001", JobState::Interrupted);
    daemon.stop();
    let journal_after_kill =
        std::fs::read_to_string(dir_a.join("searches/s0001/evals.jsonl")).unwrap();
    assert_eq!(journal_after_kill.lines().count(), 3);

    // Restarted daemon replays the journal and finishes the search.
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir_a)).unwrap();
    assert_eq!(daemon.recovered(), 1);
    wait_for(&daemon, "/searches/s0001", JobState::Done);
    let (code, resumed_result) = get(&daemon, "/searches/s0001/result");
    assert_eq!(code, 200);
    daemon.stop();
    let resumed_journal =
        std::fs::read_to_string(dir_a.join("searches/s0001/evals.jsonl")).unwrap();

    // Daemon B runs the same search uninterrupted.
    let dir_b = tmp_dir("search-b");
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir_b)).unwrap();
    let (code, _) = post(&daemon, "/searches", SEARCH_SPEC);
    assert_eq!(code, 201);
    wait_for(&daemon, "/searches/s0001", JobState::Done);
    let (code, fresh_result) = get(&daemon, "/searches/s0001/result");
    assert_eq!(code, 200);

    // The evals tail endpoint serves the complete journal.
    let (code, tailed) = get(&daemon, "/searches/s0001/evals");
    assert_eq!(code, 200);
    daemon.stop();
    let fresh_journal = std::fs::read_to_string(dir_b.join("searches/s0001/evals.jsonl")).unwrap();

    assert_eq!(
        resumed_result, fresh_result,
        "search result must be byte-identical"
    );
    assert_eq!(
        resumed_journal, fresh_journal,
        "evaluation journal must be byte-identical"
    );
    assert_eq!(tailed, fresh_journal);

    // Sanity on the search outcome itself: 4 + 2 evaluations, a feasible
    // winner, and the spec's budget arithmetic.
    let doc = json::parse(&fresh_result).unwrap();
    assert_eq!(
        doc.get("evaluations")
            .and_then(Value::as_arr)
            .map(|a| a.len()),
        Some(6)
    );
    assert_eq!(doc.get("rungs_run").and_then(Value::as_u64), Some(2));
    // 4 arms × 4 users + 2 arms × 8 users, × (1 pre + 2 arms-per-experiment
    // × 1 measured) sessions.
    assert_eq!(doc.get("user_sessions").and_then(Value::as_u64), Some(96));
    assert_eq!(
        doc.get("best")
            .and_then(|b| b.get("feasible"))
            .and_then(Value::as_bool),
        Some(true)
    );
}

/// A kill can land between a journal line and its newline, or halfway
/// through a line. A restarted daemon cuts such a tail off and simulates
/// that evaluation again: the journal and the result come out byte for
/// byte as an uninterrupted daemon's, and every journal line parses.
#[test]
fn torn_journal_tail_is_cut_and_resimulated() {
    let dir_ref = tmp_dir("torn-ref");
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir_ref)).unwrap();
    assert_eq!(post(&daemon, "/searches", SEARCH_SPEC).0, 201);
    wait_for(&daemon, "/searches/s0001", JobState::Done);
    daemon.stop();
    let read = |dir: &Path, file: &str| std::fs::read(dir.join("searches/s0001").join(file));
    let want_journal = read(&dir_ref, "evals.jsonl").unwrap();
    let want_result = read(&dir_ref, "result.json").unwrap();

    for case in ["no-newline", "half-line"] {
        let dir = tmp_dir(case);
        let mut cfg = ServeConfig::new(&dir);
        cfg.abort_search_after_evals = Some(3);
        let daemon = Daemon::start("127.0.0.1:0", cfg).unwrap();
        assert_eq!(post(&daemon, "/searches", SEARCH_SPEC).0, 201);
        wait_for(&daemon, "/searches/s0001", JobState::Interrupted);
        daemon.stop();
        let path = dir.join("searches/s0001/evals.jsonl");
        let mut journal = std::fs::read(&path).unwrap();
        if case == "no-newline" {
            assert_eq!(journal.pop(), Some(b'\n'));
        } else {
            journal.extend_from_slice(br#"{"rung":0,"us"#);
        }
        std::fs::write(&path, journal).unwrap();

        let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
        wait_for(&daemon, "/searches/s0001", JobState::Done);
        daemon.stop();
        let resumed = read(&dir, "evals.jsonl").unwrap();
        for line in String::from_utf8(resumed.clone()).unwrap().lines() {
            assert!(json::parse(line).is_ok(), "{case}: {line}");
        }
        assert!(resumed == want_journal, "{case}: journal differs");
        assert!(
            read(&dir, "result.json").unwrap() == want_result,
            "{case}: result differs"
        );
    }
}

/// The search that used to be accepted and then abort the whole daemon:
/// a final rung of 4 × (10^11)^2 users was a 41 TB allocation when a
/// rung drew its population whole.
const OVERFLOWING_SEARCH: &str = r#"{"arms":[{"c0":2,"c1":2},{"c0":3,"c1":3}],"initial_users":4,"eta":100000000000,"rungs":3,"base":{"pre_sessions":1,"sessions_per_user":1,"bootstrap_reps":40,"light_population":true}}"#;

#[test]
fn semantically_invalid_submissions_are_400s() {
    let dir = tmp_dir("invalid");
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();

    let arm = r#"{"c0":2,"c1":2}"#;
    for (body, named) in [
        (r#"{"arms":[]}"#.to_string(), "arms"),
        (
            format!(r#"{{"arms":[{arm}],"initial_users":0}}"#),
            "initial_users",
        ),
        (format!(r#"{{"arms":[{arm}],"eta":1}}"#), "eta"),
        (format!(r#"{{"arms":[{arm}],"rungs":0}}"#), "rungs"),
        (format!(r#"{{"arms":[{arm}],"rungs":21}}"#), "rungs"),
        (OVERFLOWING_SEARCH.to_string(), "MAX_SEARCH_USERS"),
        (r#"{"arms":[{"c0":-1,"c1":2}]}"#.to_string(), "c0"),
        (r#"{"arms":[{"c0":2,"c1":0}]}"#.to_string(), "c1"),
    ] {
        let (code, reply) = post(&daemon, "/searches", &body);
        assert_eq!(code, 400, "{body}: {reply}");
        assert!(reply.contains(named), "{body}: {reply}");
    }
    // The first three used to report `done` with `users: 0, failures: 4`
    // and a table of nulls: every user pair panicked in
    // `PaceSelector::new`. The zero-sized ones were 201s whose job then
    // read `failed: invalid config`.
    for (body, named) in [
        (r#"{"treatment":{"kind":"sammy","c0":-1,"c1":0}}"#, "c0"),
        (r#"{"treatment":{"kind":"sammy","c1":0}}"#, "c1"),
        (
            r#"{"control":{"kind":"naive-paced","multiplier":-4}}"#,
            "multiplier",
        ),
        (r#"{"users_per_arm":0}"#, "users_per_arm"),
        (r#"{"sessions_per_user":0}"#, "sessions_per_user"),
        (r#"{"bootstrap_reps":0}"#, "bootstrap_reps"),
    ] {
        let (code, reply) = post(&daemon, "/runs", body);
        assert_eq!(code, 400, "{body}: {reply}");
        assert!(reply.contains(named), "{body}: {reply}");
    }

    // Nothing was persisted or queued, and the daemon is still serving.
    let (code, body) = get(&daemon, "/searches");
    assert_eq!((code, body.as_str()), (200, r#"{"searches":[]}"#));
    let (code, body) = get(&daemon, "/runs");
    assert_eq!((code, body.as_str()), (200, r#"{"runs":[]}"#));
    assert_eq!(get(&daemon, "/healthz").0, 200);
    daemon.stop();
}

/// Everything the server sends on `stream` until it closes, or until
/// `patience` passes (then the read error is returned). A reset after the
/// response ends the read like a close does.
fn read_reply(stream: &mut TcpStream, patience: Duration) -> std::io::Result<String> {
    stream.set_read_timeout(Some(patience))?;
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset && !reply.is_empty() => break,
            Err(e) => return Err(e),
        }
    }
    Ok(String::from_utf8_lossy(&reply).into_owned())
}

#[test]
fn oversized_request_head_is_431_before_the_server_reads_on() {
    let dir = tmp_dir("head");
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();

    // A request line one byte past the cap, with no end in sight.
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut flood = b"POST /runs".to_vec();
    flood.resize(MAX_HEAD + 1, b'a');
    stream.write_all(&flood).unwrap();
    let reply = read_reply(&mut stream, Duration::from_secs(10)).expect("a reply, not a hang");
    assert!(
        reply.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{reply:?}"
    );

    let (code, body) = get(&daemon, "/runs");
    assert_eq!((code, body.as_str()), (200, r#"{"runs":[]}"#));
    assert_eq!(get(&daemon, "/healthz").0, 200);
    daemon.stop();
}

#[test]
fn silent_client_is_dropped_after_the_read_timeout() {
    let dir = tmp_dir("silent");
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();

    let start = Instant::now();
    let mut idle = TcpStream::connect(daemon.local_addr()).unwrap();
    let slack = Duration::from_secs(5);
    let reply = read_reply(&mut idle, CONN_READ_TIMEOUT + slack)
        .expect("the server closes an idle connection");
    assert_eq!(reply, "", "no request, no response");
    assert!(start.elapsed() < CONN_READ_TIMEOUT + slack);

    // The daemon still takes and finishes work.
    let (code, body) = post(&daemon, "/runs", RUN_SPEC);
    assert_eq!(code, 201, "{body}");
    wait_for(&daemon, "/runs/r0001", JobState::Done);
    daemon.stop();
}

#[test]
fn bad_spec_already_on_disk_fails_its_job_not_the_daemon() {
    // A runs directory left behind by a daemon that accepted the
    // overflowing search: `spec.json` is there, nothing has run. The
    // restart used to resume the search into the same allocation abort.
    let dir = tmp_dir("bad-on-disk");
    let job = dir.join("searches/s0001");
    std::fs::create_dir_all(&job).unwrap();
    std::fs::write(job.join("spec.json"), OVERFLOWING_SEARCH).unwrap();

    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    assert_eq!(daemon.recovered(), 1);
    wait_for(&daemon, "/searches/s0001", JobState::Failed);
    let (_, status) = get(&daemon, "/searches/s0001");
    assert!(status.contains("MAX_SEARCH_USERS"), "{status}");
    assert_eq!(get(&daemon, "/healthz").0, 200);

    // And it still takes work.
    let (code, body) = post(&daemon, "/searches", SEARCH_SPEC);
    assert_eq!(code, 201, "{body}");
    wait_for(&daemon, "/searches/s0002", JobState::Done);
    daemon.stop();
}

#[test]
fn stray_directories_in_the_runs_dir_are_not_jobs() {
    // A directory whose name is not `r<digits>` is no job: it is not
    // recovered or written into, and a name that starts with a multi-byte
    // character must not panic id allocation under the submit lock, which
    // would poison it for every later `POST`.
    let dir = tmp_dir("stray");
    let strays = [dir.join("runs/é-notes"), dir.join("runs/notes")];
    for stray in &strays {
        std::fs::create_dir_all(stray).unwrap();
    }

    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    assert_eq!(daemon.recovered(), 0);
    for want in ["r0001", "r0002"] {
        let (code, body) = post(&daemon, "/runs", RUN_SPEC);
        assert_eq!(code, 201, "{body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("id").and_then(Value::as_str), Some(want));
    }
    daemon.stop();
    for stray in &strays {
        assert_eq!(std::fs::read_dir(stray).unwrap().count(), 0, "{stray:?}");
    }
}
