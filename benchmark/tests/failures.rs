//! Failure accounting: a failed operation is counted and flips nothing else;
//! a wrong output makes the run incorrect and the exit code non-zero.

use sammy_benchmark::run::Tally;
use sammy_benchmark::trace::Tracer;
use sammy_benchmark::workloads::{population_spec, submit_and_wait, DaemonFixture, RepOutcome};
use spec::json::{self, Value};
use std::path::Path;
use std::process::Command;
use std::time::Duration;

#[test]
fn rejected_and_failed_jobs_count_as_failed_operations_only() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("failures");
    let fixture = DaemonFixture::start(&out_dir, "failures").expect("daemon starts");
    let poll = Duration::from_millis(1);
    let quiet = &mut Tracer::new(false);
    let users = 8;

    let good = population_spec("good", users, true, 1)
        .to_json()
        .to_string();
    let good = submit_and_wait(fixture.addr(), &good, poll, quiet);
    assert!(good.succeeded(users as u64), "{good:?}");

    // Unknown field: the daemon answers 400 before anything touches disk.
    let rejected = submit_and_wait(fixture.addr(), r#"{"bogus_field":1}"#, poll, quiet);
    assert_eq!(rejected.post_status, 400);
    assert_eq!(rejected.final_state, None);

    // Parses, but the runner refuses zero users: accepted, then `failed`.
    let zero = population_spec("zero", 0, true, 1).to_json().to_string();
    let failed = submit_and_wait(fixture.addr(), &zero, poll, quiet);
    assert_eq!(failed.post_status, 201);
    assert_eq!(failed.final_state.as_deref(), Some("failed"));
    assert_eq!(failed.result, None);

    // Counted the way `daemon_light` counts the jobs of a rep.
    let mut rep = RepOutcome::default();
    for job in [&good, &rejected, &failed] {
        rep.count(job.succeeded(users as u64));
    }
    rep.fingerprint = good.result.unwrap().2;
    let mut tally = Tally::new(false);
    tally.add(&rep);
    tally.add(&rep);
    assert_eq!((tally.attempted, tally.failed), (6, 4));
    assert!(tally.correct(), "failed operations are not wrong outputs");
    assert_eq!(tally.reference(), good.result.unwrap().2);

    let runs_dir = fixture.runs_dir().to_path_buf();
    drop(fixture);
    assert!(!runs_dir.exists(), "the fixture removes its runs dir");
}

#[test]
fn fingerprint_mismatch_is_incorrect_and_exits_non_zero() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mismatch");
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", "shared_aqm", "--quick", "--force-mismatch"])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("bench runs");
    assert!(!out.status.success(), "exit code must be non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = json::parse(stdout.lines().last().expect("a result line")).unwrap();
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() > 0);
}
