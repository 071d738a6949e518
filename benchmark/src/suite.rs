//! The suite: every workload in a child process of its own, one after
//! another and never two at once, then one table of every metric and
//! `results.json`.

use crate::run::{write_file, END_TO_END};
use crate::stats::{iqr_ratio, maximum, median, minimum};
use crate::workloads::NAMES;
use crate::Cli;
use spec::json::{self, obj, Value};
use std::process::{Command, Stdio};

/// One child run as the suite keeps it.
struct ChildRun {
    workload: &'static str,
    /// The contract line, parsed.
    result: Value,
    /// The detail line, parsed.
    detail: Value,
    /// What the child printed before those two (the budget table).
    printed: Vec<String>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }

    fn to_json(&self) -> Value {
        obj(vec![
            ("workload", Value::Str(self.workload.to_string())),
            (
                "fail_ratio",
                Value::Num(self.count("failed") / self.count("attempted").max(1.0)),
            ),
            ("result", self.result.clone()),
            ("detail", self.detail.clone()),
        ])
    }
}

/// The sibling binary with the counting allocator.
pub fn traced_exe() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let traced = exe.with_file_name("bench-traced");
    if traced.exists() {
        Ok(traced)
    } else {
        Err(format!("{} is not built", traced.display()))
    }
}

/// Run one workload in a child and wait for it.
fn child(cli: &Cli, workload: &'static str, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = if trace {
        traced_exe()?
    } else {
        std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", &cli.out_dir.to_string_lossy()])
        .stderr(Stdio::inherit());
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let parse = |line: Option<&str>| {
        line.and_then(|l| json::parse(l).ok())
            .ok_or_else(|| format!("{workload}: no result line (exit {})", out.status))
    };
    let result = parse(lines.pop())?;
    let detail = parse(lines.pop())?;
    Ok(ChildRun {
        workload,
        result,
        detail,
        printed: lines.into_iter().map(str::to_string).collect(),
    })
}

fn print_run(run: &ChildRun) {
    let failed = run.count("failed");
    let attempted = run.count("attempted");
    println!(
        "{:<16} correct: {}  attempted: {}  failed: {}  fail_ratio: {}",
        run.workload,
        run.correct(),
        attempted,
        failed,
        failed / attempted.max(1.0)
    );
    if let Some(fp) = run.detail.get("sim_fingerprint").and_then(Value::as_str) {
        println!("  {:<46} {fp}", "sim_fingerprint");
    }
    if let Some(reps) = run.detail.get("reps").and_then(Value::as_obj) {
        let line: Vec<String> = reps.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  {:<46} {}", "reps", line.join(" "));
    }
    if let Some(metrics) = run.result.get("metrics").and_then(Value::as_obj) {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("  {name:<46} {value:>14.4} {unit}");
        }
    }
    for line in &run.printed {
        println!("{line}");
    }
}

/// First line of a command's output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken; kept apart from the metrics.
fn provenance(cli: &Cli, runs: &[ChildRun]) -> Value {
    let sizes = runs
        .iter()
        .map(|r| {
            (
                r.workload,
                r.detail.get("sizes").cloned().unwrap_or(Value::Null),
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        (
            "git_rev",
            Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(tool_line("rustc", &["--version"]))),
        ("nproc", Value::Num(nproc as f64)),
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.seconds)),
        ("quick", Value::Bool(cli.quick)),
        ("sizes", obj(sizes)),
        (
            "network",
            Value::Str("host loopback, no real link".to_string()),
        ),
        (
            "disk",
            Value::Str("runs dir on the checkout's disk, page cache".to_string()),
        ),
        (
            "threads",
            Value::Str("every simulation on 1 thread; daemon: 1 client + 1 worker".to_string()),
        ),
    ])
}

/// Fewest sets whose quartiles mean something.
const SETS_FOR_SPREAD: usize = 4;

/// Compare the sets metric by metric: the worst relative difference between
/// any two sets and, from four sets up, the spread `(p75 − p25) / median` the
/// driver's noise gate uses, each against the metric's bound. Returns whether
/// all passed.
fn compare_sets(sets: &[Vec<ChildRun>]) -> bool {
    println!();
    println!("repeatability over {} sets", sets.len());
    println!(
        "{:<16} {:<12} {:>12} {:>8} {:>10} {:>6}  verdict",
        "workload", "metric", "median", "spread", "worst pair", "bound"
    );
    let mut all_pass = true;
    for (w, workload) in NAMES.iter().enumerate() {
        for (name, _, bound) in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set.get(w).and_then(|r| r.metric(name)))
                .collect();
            if values.len() != sets.len() {
                println!("{workload:<16} {name:<12} missing from a set  FAIL");
                all_pass = false;
                continue;
            }
            let worst = (maximum(&values) - minimum(&values)) / minimum(&values);
            let spread = (values.len() >= SETS_FOR_SPREAD).then(|| iqr_ratio(&values));
            let pass = worst <= bound && spread.is_none_or(|s| s <= bound);
            all_pass &= pass;
            println!(
                "{:<16} {:<12} {:>12.4} {:>8} {:>9.2}% {:>5.0}%  {}",
                workload,
                name,
                median(&values),
                spread.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0)),
                worst * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    all_pass
}

/// Run the suite. `Ok(false)` means it ran but something is wrong: an
/// incorrect output or two sets apart by more than a bound.
pub fn run(cli: &Cli) -> Result<bool, String> {
    let mut sets = Vec::new();
    let mut ok = true;
    for set in 0..cli.sets {
        if cli.sets > 1 {
            println!("== set {} of {}", set + 1, cli.sets);
        }
        let mut runs = Vec::new();
        for workload in NAMES {
            // Set k runs seed + k, as the driver gives every run another
            // seed: the spread then holds what the inputs add to it.
            let run = child(cli, workload, cli.seed + set as u64, false)?;
            print_run(&run);
            ok &= run.correct();
            runs.push(run);
        }
        sets.push(runs);
    }
    let mut traced = Vec::new();
    if cli.trace {
        println!("== traced runs");
        for workload in NAMES {
            let run = child(cli, workload, cli.seed, true)?;
            print_run(&run);
            ok &= run.correct();
            traced.push(run);
        }
    }
    if cli.sets > 1 {
        ok &= compare_sets(&sets);
    }

    let doc = obj(vec![
        ("provenance", provenance(cli, &sets[0])),
        (
            "sets",
            Value::Arr(
                sets.iter()
                    .map(|set| Value::Arr(set.iter().map(ChildRun::to_json).collect()))
                    .collect(),
            ),
        ),
        (
            "traced",
            Value::Arr(traced.iter().map(ChildRun::to_json).collect()),
        ),
    ]);
    let path = cli.out_dir.join("results.json");
    write_file(&path, &format!("{doc}\n"))?;
    println!("wrote {}", path.display());
    Ok(ok)
}
