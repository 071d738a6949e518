//! One run of one workload: set-up, cold rep, timed reps, checks, metrics.
//!
//! The untraced run produces the end-to-end metrics; the traced run
//! produces the per-layer metrics, the budget table and the span dump.
//!
//! The timing statistic is a floor, not a median. This box has a slow mode
//! (a neighbour on the shared core: +30–50 %, for anything from a fraction
//! of a second to minutes) whose share of a run varies from none of it to
//! all of it, so a run's median says how busy the neighbour was. A rep is a
//! fixed sequence of calls into the program; each call is timed on its own,
//! and `wall_s` is the sum over the calls of each call's fastest time across
//! the reps — what a rep takes when nothing disturbs it. `README.md` has the
//! series this was chosen on.

use crate::layers::{self, AllocProbe, Metric, Metrics};
use crate::stats::{iqr_ratio, median, minimum, quartiles};
use crate::trace::{layer_of, Tracer};
use crate::workloads::{self, RepOutcome, Scale, Workload};
use crate::Cli;
use spec::json::{self, obj, Value};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// End-to-end metrics: name, unit, and the share of the parent's median by
/// which a change may worsen it (`BENCHMARK.json` carries the same bounds;
/// the smoke test holds the two together). Every workload reports all of
/// them.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("work_per_s", "1/s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
];

/// Fresh processes whose set-up is timed for `setup_s`: the run's own, then
/// children spaced evenly through the timed reps, so that a slow stretch of
/// the box cannot cover them all.
const SETUPS: usize = 4;

/// Fewest timed reps of a full-scale run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// The result of a run: the contract line plus what the suite wants beside
/// it.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Rep statistics, fingerprint, sizes, budget: everything that is not a
    /// declared metric.
    pub detail: Value,
}

impl RunReport {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
        .to_string()
    }
}

/// Running totals over the reps of a run, and the fingerprint check.
#[derive(Debug, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprints that differed from the one they had to repeat.
    pub mismatches: u64,
    /// Whether every rep must carry the first rep's fingerprint.
    repeats: bool,
    reference: Option<u64>,
}

impl Tally {
    pub fn new(repeats: bool) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            mismatches: 0,
            repeats,
            reference: None,
        }
    }

    /// Count one rep. The first rep counted (the cold rep) is the reference.
    pub fn add(&mut self, rep: &RepOutcome) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        match self.reference {
            None => self.reference = Some(rep.fingerprint),
            Some(reference) if self.repeats && reference != rep.fingerprint => self.mismatches += 1,
            Some(_) => {}
        }
    }

    /// The cold rep's fingerprint.
    pub fn reference(&self) -> u64 {
        self.reference.unwrap_or(0)
    }

    /// Hold the cold rep to the workload's independent computation of what
    /// it should have produced, if the workload has one.
    fn check_reference(&mut self, w: &mut dyn Workload) -> Result<(), String> {
        if let Some(expected) = w.reference_fingerprint()? {
            if expected != self.reference() {
                eprintln!(
                    "cold rep fingerprint {:016x} != reference {expected:016x}",
                    self.reference()
                );
                self.mismatches += 1;
            }
        }
        Ok(())
    }

    /// Outputs are correct: every fingerprint that had to repeat did.
    /// Failed operations are counted, not folded in here.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    fn report(&self, metrics: Vec<Metric>, detail: Value) -> RunReport {
        RunReport {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            detail,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1e3)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Set-up of a fresh child process of this program, part by part.
fn child_setup(cli: &Cli, workload: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--out-dir", &cli.out_dir.to_string_lossy()])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .and_then(|v| {
            v.as_arr()
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
        })
        .ok_or_else(|| "set-up child printed no times".to_string())
}

/// A workload set up and run once.
struct SetUp {
    workload: Box<dyn Workload>,
    cold: RepOutcome,
    /// The set-up part by part: building the inputs (for `daemon_light`,
    /// starting the daemon), then each call of the cold rep.
    parts_s: Vec<f64>,
}

/// Build the inputs and run the cold rep.
fn set_up(cli: &Cli, workload: &str) -> Result<SetUp, String> {
    let start = Instant::now();
    let mut workload = workloads::build(workload, cli.seed, cli.scale(), &cli.out_dir)?;
    let mut parts_s = vec![start.elapsed().as_secs_f64()];
    let cold = workload.rep(0, &mut Tracer::new(false))?;
    parts_s.extend_from_slice(&cold.call_s);
    Ok(SetUp {
        workload,
        cold,
        parts_s,
    })
}

/// Sum over the parts of each part's fastest time across the samples
/// (`samples[i][k]`: part `k` of sample `i`).
fn floor_s(samples: &[Vec<f64>]) -> f64 {
    let parts = samples.first().map_or(0, Vec::len);
    (0..parts)
        .map(|k| minimum(&samples.iter().map(|s| s[k]).collect::<Vec<_>>()))
        .sum()
}

fn samples_json(samples: &[Vec<f64>]) -> Value {
    let one = |s: &Vec<f64>| Value::Arr(s.iter().map(|&x| Value::Num(x)).collect());
    Value::Arr(samples.iter().map(one).collect())
}

/// Whole-rep walls of `reps[r][k]`, the wall seconds of call `k` of rep `r`.
fn rep_walls(reps: &[Vec<f64>]) -> Vec<f64> {
    reps.iter().map(|rep| rep.iter().sum()).collect()
}

/// The floor of the reps and, for the record, the order statistics of whole
/// reps.
fn rep_stats(reps: &[Vec<f64>]) -> Value {
    let walls = rep_walls(reps);
    let (p25, p75) = quartiles(&walls);
    obj(vec![
        ("n", Value::Num(walls.len() as f64)),
        ("calls_per_rep", Value::Num(reps[0].len() as f64)),
        ("floor_s", Value::Num(floor_s(reps))),
        ("min_s", Value::Num(minimum(&walls))),
        ("p25_s", Value::Num(p25)),
        ("median_s", Value::Num(median(&walls))),
        ("p75_s", Value::Num(p75)),
    ])
}

/// Set up as a run would, tear down again, and return the seconds each
/// part of the set-up took.
pub fn setup_only(cli: &Cli, workload: &str) -> Result<Vec<f64>, String> {
    Ok(set_up(cli, workload)?.parts_s)
}

/// Run `workload` once as `cli` says.
pub fn run(cli: &Cli, workload: &str, probe: Option<AllocProbe>) -> Result<RunReport, String> {
    if cli.trace {
        let probe = probe.ok_or("--trace 1 needs the bench-traced binary")?;
        run_traced(cli, workload, probe)
    } else {
        run_untraced(cli, workload)
    }
}

fn run_untraced(cli: &Cli, workload: &str) -> Result<RunReport, String> {
    let SetUp {
        workload: mut w,
        cold,
        parts_s,
    } = set_up(cli, workload)?;
    let mut setups = vec![parts_s];
    let children = match cli.scale() {
        Scale::Full => SETUPS - 1,
        Scale::Quick => 0,
    };

    let mut tally = Tally::new(w.fingerprint_repeats());
    tally.add(&cold);
    let quiet = &mut Tracer::new(false);
    let mut reps = Vec::new();
    // Seconds spent in timed reps; the set-up children do not count.
    let mut timed = 0.0;
    loop {
        let rep = reps.len() + 1;
        let mut out = w.rep(rep as u64, quiet)?;
        timed += out.wall_s();
        reps.push(std::mem::take(&mut out.call_s));
        if cli.force_mismatch && rep == 1 {
            out.fingerprint ^= 1;
        }
        tally.add(&out);
        // Set-up is sampled in fresh processes, so lazy initialisation and
        // first-call caches are paid every time; this process waits for
        // each child, so still nothing runs beside anything else.
        if setups.len() <= children && timed >= cli.seconds * setups.len() as f64 / children as f64
        {
            setups.push(child_setup(cli, workload)?);
        }
        let enough = match cli.scale() {
            Scale::Quick => true,
            Scale::Full => rep >= MIN_REPS && timed >= cli.seconds,
        };
        if enough {
            break;
        }
    }
    // Before the reference computation below, which is not the workload.
    let peak_rss = peak_rss_mb()?;
    tally.check_reference(w.as_mut())?;

    let wall = floor_s(&reps);
    let values = [
        floor_s(&setups),
        wall,
        w.units_per_rep() as f64 / wall,
        peak_rss,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    let detail = obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Num(cli.seed as f64)),
        ("work_unit", Value::Str(w.work_unit().to_string())),
        ("units_per_rep", Value::Num(w.units_per_rep() as f64)),
        ("reps", rep_stats(&reps)),
        ("rep_iqr_ratio", Value::Num(iqr_ratio(&rep_walls(&reps)))),
        ("call_walls_s", samples_json(&reps)),
        ("setup_parts_s", samples_json(&setups)),
        (
            "sim_fingerprint",
            Value::Str(format!("{:016x}", tally.reference())),
        ),
        ("sizes", w.sizes()),
    ]);
    Ok(tally.report(metrics, detail))
}

/// Share of a traced rep by span name: each name's self time (span minus
/// children) at its fastest across the traced reps, over their sum — the
/// same floor `wall_s` is. The rep's own self time is what the benchmark
/// could not attribute to a call into a layer.
fn budget(t: &Tracer) -> Vec<(String, f64)> {
    let mut floor = std::collections::BTreeMap::<String, u64>::new();
    for root in t.indices_of("bench.rep") {
        for (name, ns) in t.self_times_ns(root) {
            floor
                .entry(name)
                .and_modify(|fastest| *fastest = (*fastest).min(ns))
                .or_insert(ns);
        }
    }
    let rep_ns = floor.values().sum::<u64>().max(1) as f64;
    let mut rows: Vec<(String, f64)> = floor
        .into_iter()
        .map(|(name, ns)| {
            let name = if name == "bench.rep" {
                "(unattributed)".to_string()
            } else {
                name
            };
            (name, ns as f64 / rep_ns)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

fn print_budget(workload: &str, rows: &[(String, f64)]) {
    println!("budget {workload}: share of a traced rep by self time");
    let mut by_layer = std::collections::BTreeMap::<&str, f64>::new();
    for (name, share) in rows {
        println!("  {:<44} {:>6.2} %", name, share * 100.0);
        if name != "(unattributed)" {
            *by_layer.entry(layer_of(name)).or_insert(0.0) += share;
        }
    }
    for (layer, share) in by_layer {
        println!("  layer {:<38} {:>6.2} %", layer, share * 100.0);
    }
}

/// What spans taken from outside cannot see: how a population rep splits
/// inside `run_streaming`, and inside the daemon's worker. Estimated from
/// the layer drivers (which run the same calls at a smaller size), as shares
/// of the rep; the rows of each workload sum to one.
fn inner_budget(workload: &str, metrics: &[Metric]) -> Vec<(&'static str, f64)> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    match workload {
        "population_full" => {
            // A user pair is four sessions: a pre-experiment and an
            // experiment session under each arm, three on MPC, one on Sammy.
            // The fold's cost per pair does not depend on how long the
            // titles are, so the light population's residual stands in.
            let pair_us = get("abtest.run_user_us_p50");
            let fold_us = get("abtest.fold_us_per_pair.light");
            let total_us = pair_us + fold_us;
            let video = 4.0 * get("video.title_generate_us") / total_us;
            let decisions = get("fluidsim.chunks_per_session")
                * (3.0 * get("abr.mpc_ns_per_decision") + get("core.sammy_ns_per_decision"))
                / 1e3
                / total_us;
            vec![
                ("video: title generation", video),
                ("abr + core: chunk decisions", decisions),
                (
                    "fluidsim: chunk loop, the rest of run_user",
                    pair_us / total_us - video - decisions,
                ),
                ("abtest: fold, bootstrap, digests", fold_us / total_us),
            ]
        }
        "daemon_light" => {
            let job = get("serve.job_overhead_ratio");
            let ckpt = get("abtest.ckpt_overhead_ratio");
            let run_user = get("abtest.run_user_share.light");
            vec![
                ("run_user: video + abr + core + fluidsim", run_user / job),
                (
                    "abtest: user_at, fold, bootstrap, digests",
                    (1.0 - run_user) / job,
                ),
                (
                    "abtest: checkpoint encode + fsync + rename",
                    (ckpt - 1.0) / job,
                ),
                (
                    "serve + spec: HTTP, store, scheduler, polls",
                    1.0 - ckpt / job,
                ),
            ]
        }
        // A packet cell is one call from outside; netsim, transport and
        // video inside it need spans inside the crates.
        _ => Vec::new(),
    }
}

fn run_traced(cli: &Cli, workload: &str, probe: AllocProbe) -> Result<RunReport, String> {
    let SetUp {
        workload: mut w,
        cold,
        ..
    } = set_up(cli, workload)?;
    let mut tally = Tally::new(w.fingerprint_repeats());
    tally.add(&cold);

    // Untraced and traced reps alternate, a quarter of the run's seconds,
    // so a slow stretch of the box hits both; the layer drivers get the rest.
    let mut t = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let begin = Instant::now();
    let mut rep = 0;
    loop {
        for spans in [false, true] {
            rep += 1;
            t.set_enabled(spans);
            t.set_rep(rep);
            let mut out = t.span("bench.rep", |t| w.rep(rep, t))?;
            if spans { &mut traced } else { &mut plain }.push(std::mem::take(&mut out.call_s));
            tally.add(&out);
        }
        if cli.scale() == Scale::Quick || begin.elapsed().as_secs_f64() >= cli.seconds / 4.0 {
            break;
        }
    }
    tally.check_reference(w.as_mut())?;
    // The daemon fixture must be gone before the layer drivers start theirs:
    // never two daemons, never more than two busy threads.
    drop(w);

    let Metrics(mut metrics) = layers::run_all(cli.seed, cli.scale(), &cli.out_dir, probe)?;
    for (name, value) in [
        (
            "bench.trace_overhead_ratio",
            floor_s(&traced) / floor_s(&plain),
        ),
        ("bench.rep_iqr_ratio", iqr_ratio(&rep_walls(&plain))),
    ] {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: "ratio",
        });
    }

    let rows = budget(&t);
    print_budget(workload, &rows);
    let inner = inner_budget(workload, &metrics);
    if !inner.is_empty() {
        println!("  inside the rep, estimated from the layer drivers:");
        for (row, share) in &inner {
            println!("  {:<44} {:>6.2} %", row, share * 100.0);
        }
    }
    let dump = cli.out_dir.join(format!("trace-{workload}.jsonl"));
    write_file(&dump, &t.to_jsonl(workload))?;

    let detail = obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Num(cli.seed as f64)),
        ("untraced_reps", rep_stats(&plain)),
        ("traced_reps", rep_stats(&traced)),
        ("spans", Value::Num(t.spans().len() as f64)),
        (
            "trace_file",
            Value::Str(dump.to_string_lossy().into_owned()),
        ),
        (
            "budget",
            Value::Obj(rows.into_iter().map(|(n, s)| (n, Value::Num(s))).collect()),
        ),
        (
            "inner_budget_estimate",
            obj(inner.into_iter().map(|(n, s)| (n, Value::Num(s))).collect()),
        ),
    ]);
    Ok(tally.report(metrics, detail))
}

/// Write `text` to `path`, creating the directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
