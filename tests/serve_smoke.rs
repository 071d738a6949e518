//! Tier-1 mirror of the serve crate's daemon battery.
//!
//! Plain `cargo test` runs only this root package, so the daemon gets one
//! submit → poll → result round trip over a real socket here, plus the
//! hostile bodies it used to abort on or mis-accept; the kill/resume
//! battery lives in `crates/serve/tests/daemon.rs`. The request parser is
//! driven byte by byte, without a socket.

use std::time::{Duration, Instant};

use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest, ProptestConfig};
use sammy_repro::abtest::METRICS;
use sammy_repro::prelude::*;
use sammy_repro::sammy_serve::http::{http_request, read_request, HttpError, MAX_BODY};
use sammy_repro::sammy_serve::{Daemon, ServeConfig};
use sammy_repro::spec::json::{self, Value};

/// Two shards of three light users, one measured session each.
const SPEC: &str = r#"{"name":"smoke","users_per_arm":6,"pre_sessions":1,"sessions_per_user":1,"seed":7,"bootstrap_reps":40,"threads":2,"shard_size":3,"light_population":true}"#;

/// `doc[key]` as the daemon renders an `f64`: non-finite values are `null`.
fn num(doc: &Value, key: &str) -> Option<f64> {
    doc.get(key).and_then(Value::as_f64)
}

fn rendered(x: f64) -> Option<f64> {
    Some(x).filter(|x| x.is_finite())
}

#[test]
fn run_round_trip_matches_in_process_and_survives_deep_nesting() {
    let dir = std::env::temp_dir().join(format!("sammy-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start("127.0.0.1:0", ServeConfig::new(&dir)).unwrap();
    let addr = daemon.local_addr();

    let (code, body) = http_request(addr, "POST", "/runs", Some(SPEC)).unwrap();
    assert_eq!(code, 201, "{body}");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = http_request(addr, "GET", "/runs/r0001", None).unwrap();
        assert_eq!(code, 200, "{body}");
        let status = json::parse(&body).unwrap();
        match status.get("state").and_then(Value::as_str) {
            Some("done") => break,
            Some("queued" | "running") => {}
            other => panic!("run ended {other:?}: {body}"),
        }
        assert!(Instant::now() < deadline, "timed out: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The daemon's artifact is the in-process streaming run of the same
    // spec, field for field (floats round-trip bit-exactly).
    let spec = ExperimentSpec::from_json_str(SPEC).unwrap();
    let run = Experiment::builder().spec(&spec).run_streaming().unwrap();
    let report = run.report();
    let result = std::fs::read_to_string(dir.join("runs/r0001/result.json")).unwrap();
    let result = json::parse(&result).unwrap();
    assert_eq!(num(&result, "users"), Some(6.0));
    assert_eq!(num(&result, "failures"), Some(0.0));
    assert_eq!(num(&result, "shards"), Some(run.shards as f64));
    assert_eq!(
        result.get("fingerprint").and_then(Value::as_str),
        Some(format!("{:016x}", run.fingerprint()).as_str())
    );
    let rows = result.get("rows").and_then(Value::as_arr).unwrap();
    assert_eq!(rows.len(), METRICS.len());
    for ((got, want), &(name, ..)) in rows.iter().zip(&report.rows).zip(&METRICS) {
        assert_eq!(got.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(want.name, name);
        assert_eq!(num(got, "control"), rendered(want.control), "{name}");
        assert_eq!(num(got, "treatment"), rendered(want.treatment), "{name}");
        assert_eq!(num(got, "pct_change"), rendered(want.pct_change), "{name}");
        let paired = got.get("paired").unwrap();
        assert_eq!(
            num(paired, "mean_delta_pct"),
            rendered(want.paired.mean_delta_pct),
            "{name}"
        );
        assert_eq!(num(paired, "ci_low"), rendered(want.paired.ci_low));
        assert_eq!(num(paired, "ci_high"), rendered(want.paired.ci_high));
        assert_eq!(num(got, "control_count"), Some(want.control_count as f64));
        assert_eq!(
            num(got, "treatment_count"),
            Some(want.treatment_count as f64)
        );
    }

    // The largest body the HTTP layer admits, all openers: a 400 from the
    // JSON nesting cap, and a daemon that is still there afterwards.
    let (code, body) = http_request(addr, "POST", "/runs", Some(&"[".repeat(MAX_BODY))).unwrap();
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    // A number `f64` cannot hold would be stored as `null` and the stored
    // spec would not re-read: refused at the door, not accepted as `inf`.
    let overflow = r#"{"treatment":{"kind":"sammy","c0":1e999,"c1":2.8}}"#;
    let (code, body) = http_request(addr, "POST", "/runs", Some(overflow)).unwrap();
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("out of range"), "{body}");
    // A replicate count the worker could only abort on (16 TB of
    // replicate slots) never reaches the queue.
    let greedy = r#"{"bootstrap_reps":1000000000000}"#;
    let (code, body) = http_request(addr, "POST", "/runs", Some(greedy)).unwrap();
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("bootstrap_reps"), "{body}");
    let (code, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!((code, body.as_str()), (200, r#"{"ok":true}"#));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Characters a rendered request path is drawn from.
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_./";

/// A well-formed request for `method`, a path built from `path` (indices
/// into [`PATH_CHARS`]) and `body`, as a client puts it on the wire.
fn render(method: &str, path: &[usize], body: &[u8]) -> (String, Vec<u8>) {
    let path: String = std::iter::once('/')
        .chain(
            path.iter()
                .map(|&i| PATH_CHARS[i % PATH_CHARS.len()] as char),
        )
        .collect();
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: sammy\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    (path, wire)
}

const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever bytes arrive, the parser answers with a request or an
    /// error; it never panics.
    #[test]
    fn read_request_never_panics_on_random_bytes(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        let _ = read_request(&bytes[..]);
    }

    /// A rendered request parses back to its method, path and body.
    #[test]
    fn rendered_request_parses_back(
        m in 0usize..4,
        path in prop::collection::vec(0usize..64, 0..40),
        body in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let (path, wire) = render(METHODS[m], &path, &body);
        let req = read_request(&wire[..]).map_err(|e| format!("{e:?}"))?;
        prop_assert_eq!(req.method.as_str(), METHODS[m]);
        prop_assert_eq!(req.path, path);
        prop_assert_eq!(req.body, body);
    }

    /// A request line carrying a byte that is not UTF-8 is a 400 (`Bad`),
    /// not a connection closed without an answer.
    #[test]
    fn non_utf8_request_line_is_bad(
        path in prop::collection::vec(0usize..64, 1..40),
        at in 0usize..40,
        byte in 0x80u8..=0xff,
    ) {
        let (_, mut wire) = render("GET", &path, b"");
        // Inside the path: after "GET /", before the space that ends it.
        wire.insert(5 + at % path.len(), byte);
        let got = read_request(&wire[..]);
        prop_assert!(matches!(got, Err(HttpError::Bad(_))), "{got:?}");
    }
}
