//! Smoke test at the `--quick` scale: the program emits exactly what
//! `BENCHMARK.json` declares, outputs are correct, and inputs follow the seed.

use sammy_benchmark::run::END_TO_END;
use sammy_benchmark::workloads::NAMES;
use spec::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

/// Run one workload at the quick scale; returns `(detail, result)`.
fn quick(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--quick"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir(&format!("{workload}-{seed}-{trace}")))
        .output()
        .expect("bench runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = json::parse(lines.pop().expect("result line")).expect("result is JSON");
    let detail = json::parse(lines.pop().expect("detail line")).expect("detail is JSON");
    (detail, result)
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} in {v}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result's metrics are exactly the `declared` ones, units included.
fn assert_metrics(result: &Value, declared: &[Value]) {
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{result}");
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));

    let emitted = result.get("metrics").and_then(Value::as_obj).unwrap();
    let mut emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
    let mut declared_names: Vec<&str> = declared.iter().map(|m| str_field(m, "name")).collect();
    emitted_names.sort_unstable();
    declared_names.sort_unstable();
    assert_eq!(emitted_names, declared_names);

    for m in declared {
        let name = str_field(m, "name");
        assert!(valid_name(name), "{name}");
        let got = result.get("metrics").unwrap().get(name).unwrap();
        let unit = str_field(got, "unit");
        assert_eq!(unit, str_field(m, "unit"), "{name}");
        let value = got.get("value").and_then(Value::as_f64).unwrap();
        assert!(value.is_finite(), "{name} = {value}");
        if unit == "count" {
            assert_eq!(value.fract(), 0.0, "{name} is a count");
        }
    }
}

#[test]
fn declaration_and_program_agree() {
    let doc = declared();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(sammy_benchmark::DEFAULT_SECONDS)
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);
    let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (m, (name, unit, bound)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(str_field(m, "name"), name);
        assert_eq!(str_field(m, "unit"), unit);
        assert_eq!(
            m.get("bound").and_then(Value::as_f64),
            Some(bound),
            "{name}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let doc = declared();
    let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
    for workload in NAMES {
        let (detail, result) = quick(workload, 2023, false);
        assert_metrics(&result, end_to_end);
        assert_eq!(str_field(&detail, "sim_fingerprint").len(), 16);
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let doc = declared();
    let per_layer = doc.get("per_layer").and_then(Value::as_arr).unwrap();
    let (detail, result) = quick("shared_aqm", 2023, true);
    assert_metrics(&result, per_layer);
    let budget = detail.get("budget").and_then(Value::as_obj).unwrap();
    let total: f64 = budget.iter().filter_map(|(_, v)| v.as_f64()).sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "shares partition the rep: {total}"
    );
    assert!(Path::new(str_field(&detail, "trace_file")).exists());
}

#[test]
fn inputs_follow_the_seed() {
    for workload in ["population_full", "cc_matrix"] {
        let fp = |seed| str_field(&quick(workload, seed, false).0, "sim_fingerprint").to_string();
        let first = fp(7);
        assert_eq!(first, fp(7), "{workload}: same seed, same simulation");
        assert_ne!(first, fp(8), "{workload}: another seed, another simulation");
    }
}
