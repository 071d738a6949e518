//! The repo benchmark.
//!
//! Two ways in, one program:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload and prints, as the last line of standard output, one JSON
//!   object with exactly `correct`, `attempted`, `failed` and `metrics` —
//!   the end-to-end metrics untraced, the per-layer metrics traced.
//! * without `--workload` it runs the suite: every workload in a child
//!   process of its own, one after another, every metric printed by name
//!   with its unit, `benchmark/out/results.json` written. `--trace` adds the
//!   traced runs, `--quick` is the smoke scale, `--sets K` repeats the
//!   untraced suite and fails when two sets disagree by more than a
//!   metric's bound.
//!
//! See `benchmark/README.md` for the protocol and why it looks this way.

pub mod layers;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

use layers::AllocProbe;
use std::path::PathBuf;
use workloads::Scale;

/// Seconds a run measures when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 22.0;
/// Seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2023;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub sets: usize,
    pub setup_only: bool,
    pub force_mismatch: bool,
    pub out_dir: PathBuf,
}

impl Cli {
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            sets: 1,
            setup_only: false,
            force_mismatch: false,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))
            };
            match flag.as_str() {
                "--workload" => cli.workload = Some(value("a workload name")?),
                "--seed" => {
                    cli.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    cli.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--sets" => {
                    cli.sets = value("a count")?
                        .parse()
                        .map_err(|e| format!("--sets: {e}"))?;
                    if cli.sets == 0 {
                        return Err("--sets must be at least 1".into());
                    }
                }
                "--out-dir" => cli.out_dir = PathBuf::from(value("a directory")?),
                // The driver passes `--trace 0|1`; by hand, a bare `--trace`
                // is enough.
                "--trace" => {
                    cli.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--quick" => cli.quick = true,
                "--setup-only" => cli.setup_only = true,
                "--force-mismatch" => cli.force_mismatch = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }

    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// Entry point of both binaries; `probe` is the counting allocator's reader
/// in `bench-traced` and `None` in `bench`. Returns the exit code: 0, 1 when
/// the benchmark ran and found something wrong (an incorrect output, sets
/// further apart than a bound), 2 when it could not run.
pub fn main(probe: Option<AllocProbe>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, probe) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("sammy-benchmark: {e}");
            2
        }
    }
}

fn dispatch(args: &[String], probe: Option<AllocProbe>) -> Result<bool, String> {
    let cli = Cli::parse(args)?;
    let Some(workload) = &cli.workload else {
        return suite::run(&cli);
    };
    if cli.trace && probe.is_none() {
        // Per-layer metrics need the counting allocator: become the sibling
        // binary that has one.
        use std::os::unix::process::CommandExt;
        let e = std::process::Command::new(suite::traced_exe()?)
            .args(args)
            .exec();
        return Err(format!("exec bench-traced: {e}"));
    }
    if cli.setup_only {
        let parts = run::setup_only(&cli, workload)?;
        let parts = parts.into_iter().map(spec::json::Value::Num).collect();
        println!("{}", spec::json::Value::Arr(parts));
        return Ok(true);
    }
    let report = run::run(&cli, workload, probe)?;
    // The detail line is for the suite and for people; the contract line
    // must stay last.
    println!("{}", report.detail);
    println!("{}", report.contract_line());
    Ok(report.correct)
}
