//! `sammy-sim` — command-line front end for the Sammy reproduction.
//!
//! `sammy-sim <single-flow|matrix|neighbors|abtest|stream|tune|quickstart>
//! [flags]`; run it without arguments for every flag of every subcommand.
//! That text is [`COMMANDS`], which is also what the parser checks flag
//! names against: a name a subcommand does not read exits 2.
//!
//! `single-flow` selects the wire protocol and congestion controller per
//! arm; `matrix` runs the full CC × pacing grid ({Reno, CUBIC, BBR} on
//! TCP plus CUBIC on the QUIC-style transport, each unpaced and paced).
//!
//! `stream` is the million-user front end: the streaming shard-merge
//! runner with a lazily derived population, O(threads) memory, and
//! checkpoint/resume (kill the process, rerun with `--resume`, get the
//! byte-identical result — the printed state fingerprint proves it).
//!
//! `tune` is the successive-halving `(c0, c1)` search over the default
//! arm grid — the same [`SearchSpec`] `POST /searches` takes.
//!
//! Every subcommand accepts `--metrics <path>`: with the `obs` feature
//! enabled, the run's telemetry registry is written to `<path>` as JSON
//! lines (`-` renders the pretty table to stdout instead).

use sammy_repro::abtest::{halving_search, Experiment, ExperimentConfig};
use sammy_repro::netsim::SimError;
use sammy_repro::obs;
use sammy_repro::sammy_bench::lab::{self, LabArm, LabConfig};
use sammy_repro::sammy_bench::matrix as cc_matrix;
use sammy_repro::spec::{ArmPoint, ArmSpec, ExperimentSpec, SearchSpec};

/// A subcommand: name, entry point, and every flag the entry point
/// reads, written as its usage line — `[--name]` is a switch,
/// `[--name VALUE]` takes a value. The parser accepts a flag only if it
/// is here (or is [`METRICS`]) and the usage text is this text, so a flag
/// cannot be accepted and then ignored, or read and left undocumented.
type Command = (&'static str, fn(&Opts), &'static str);

const COMMANDS: &[Command] = &[
    (
        "single-flow",
        single_flow,
        "[--sammy] [--transport tcp|quic] [--cc reno|cubic|bbr|ledbat] [--rate-mbps N] \
         [--rtt-ms N] [--secs N] [--seed N]",
    ),
    (
        "matrix",
        matrix,
        "[--secs N] [--threads N] [--rate-mbps N] [--rtt-ms N] [--seed N]",
    ),
    ("neighbors", neighbors, "[--secs N]"),
    (
        "abtest",
        abtest,
        "[--users N] [--c0 X] [--c1 X] [--seed N] [--threads N] [--sessions N] \
         [--pre-sessions N] [--reps N] [--light]",
    ),
    (
        "stream",
        stream,
        "[--users N] [--c0 X] [--c1 X] [--seed N] [--threads N] [--shard-size N] \
         [--sessions N] [--pre-sessions N] [--reps N] [--light] [--checkpoint-dir DIR] \
         [--checkpoint-every N] [--resume] [--abort-after N]",
    ),
    (
        "tune",
        tune,
        "[--users N] [--initial-users N] [--eta N] [--rungs N] [--seed N] [--threads N] \
         [--sessions N] [--pre-sessions N] [--reps N] [--light]",
    ),
    (
        "quickstart",
        quickstart,
        "[--users N] [--c0 X] [--c1 X] [--seed N] [--threads N] [--sessions N] \
         [--pre-sessions N] [--reps N] [--light] [--transport tcp|quic] \
         [--cc reno|cubic|bbr|ledbat] [--rate-mbps N] [--rtt-ms N] [--secs N]",
    ),
];

/// Read by `main` itself, after any subcommand.
const METRICS: &str = "[--metrics PATH]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        usage();
        return;
    };
    let Some(&(_, run, flags)) = COMMANDS.iter().find(|(n, ..)| n == name) else {
        eprintln!("unknown subcommand '{name}'");
        usage();
        std::process::exit(2);
    };
    let opts = parse_flags(name, flags, &args[1..]);
    // Start from a clean registry so `--metrics` reflects this run only.
    let _ = obs::take();
    run(&opts);
    emit_metrics(&opts, obs::take());
}

fn usage() {
    let names: Vec<&str> = COMMANDS.iter().map(|(n, ..)| *n).collect();
    eprintln!("usage: sammy-sim <{}> [flags]", names.join("|"));
    for (name, _, flags) in COMMANDS {
        usage_of(name, flags);
    }
    eprintln!("  --metrics writes the run's telemetry as JSON lines ('-': a table on stdout)");
}

/// The `(name, value placeholder)` of each `[--name VALUE]` in a usage
/// line, the placeholder empty for a switch.
fn declared(flags: &'static str) -> impl Iterator<Item = (&'static str, &'static str)> {
    flags
        .split(['[', ']'])
        .filter_map(|item| item.strip_prefix("--"))
        .map(|item| item.split_once(' ').unwrap_or((item, "")))
}

fn usage_of(name: &str, flags: &str) {
    // Greedy wrap at 78 columns under a 15-column gutter.
    let mut line = format!("  {name:<12}");
    for item in flags.split_inclusive(']').chain([METRICS]).map(str::trim) {
        if line.len() + 1 + item.len() > 78 {
            eprintln!("{line}");
            line = format!("  {:<12}", "");
        }
        line.push(' ');
        line.push_str(item);
    }
    eprintln!("{line}");
}

/// The flags given on the command line, every one of them declared by
/// the subcommand (or [`METRICS`]). Looking up one the subcommand does not
/// declare finds nothing: it cannot have been given.
struct Opts(Vec<(&'static str, String)>);

impl Opts {
    /// The parsed value of `--key`, or `default` when the flag is absent.
    /// A flag that is present but does not parse exits with status 2: a
    /// typo must not silently run the default experiment.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get_str(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| invalid_value(key, v)),
        }
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.get_str(key).is_some()
    }
}

fn invalid_value(key: &str, value: &str) -> ! {
    eprintln!("invalid value for --{key}: '{value}'");
    std::process::exit(2);
}

/// Match the arguments after the subcommand against its declared flags.
/// Anything else — a misspelt name, a flag of another subcommand, a stray
/// word, a valued flag with its value missing — exits with status 2
/// before anything is simulated: `abtest --user 4` must not report a
/// 150-user experiment.
fn parse_flags(name: &str, flags: &'static str, args: &[String]) -> Opts {
    let mut given = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let found = a.strip_prefix("--").and_then(|key| {
            declared(flags)
                .chain(declared(METRICS))
                .find(|(flag, _)| *flag == key)
        });
        let Some((key, value)) = found else {
            eprintln!("`{name}` does not take '{a}'; it takes");
            usage_of(name, flags);
            std::process::exit(2);
        };
        let value = match value {
            "" => String::new(),
            _ => match it.next_if(|v| *v == "-" || !v.starts_with("--")) {
                Some(v) => v.clone(),
                None => invalid_value(key, ""),
            },
        };
        given.push((key, value));
    }
    Opts(given)
}

/// Write the accumulated telemetry to the `--metrics` sink, if requested.
fn emit_metrics(opts: &Opts, registry: obs::Registry) {
    let Some(path) = opts.get_str("metrics") else {
        return;
    };
    if registry.is_empty() {
        eprintln!(
            "note: no metrics were recorded; rebuild with `--features obs` to enable telemetry"
        );
        if path == "-" {
            return;
        }
    }
    if path == "-" {
        print!("{}", registry.render_table());
    } else if let Err(e) = registry.write_jsonl(std::path::Path::new(path)) {
        eprintln!("failed to write metrics to {path}: {e}");
        std::process::exit(1);
    } else {
        eprintln!(
            "wrote {} metric series to {path}",
            registry.metric_names().len()
        );
    }
}

/// The value, or exit with status 2 and the reason it was refused.
fn accepted<T>(what: &str, r: Result<T, SimError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{what} rejected: {e}");
        std::process::exit(2);
    })
}

/// Resolve the command-line flags into one [`ExperimentSpec`] — the same
/// schema `sammy-serve` accepts over HTTP, so the CLI and the API cannot
/// drift. `defaults` carries the per-subcommand sizing; every flag
/// overrides its spec field, and the whole spec is shown to its own
/// parser, so what `POST /runs` would refuse (`--c0 0`, `--rate-mbps 0`,
/// a seed past 2^53) is refused here, before anything is simulated.
fn spec_from_flags(opts: &Opts, defaults: ExperimentSpec) -> ExperimentSpec {
    let spec = ExperimentSpec {
        treatment: ArmSpec::Sammy {
            c0: opts.get("c0", 3.2),
            c1: opts.get("c1", 2.8),
        },
        users_per_arm: opts.get("users", defaults.users_per_arm),
        pre_sessions: opts.get("pre-sessions", defaults.pre_sessions),
        sessions_per_user: opts.get("sessions", defaults.sessions_per_user),
        seed: opts.get("seed", defaults.seed),
        bootstrap_reps: opts.get("reps", defaults.bootstrap_reps),
        threads: opts.get("threads", defaults.threads),
        shard_size: opts.get("shard-size", defaults.shard_size),
        light_population: opts.flag("light") || defaults.light_population,
        network: sammy_repro::spec::NetworkSpec {
            rate_mbps: opts.get("rate-mbps", defaults.network.rate_mbps),
            rtt_ms: opts.get("rtt-ms", defaults.network.rtt_ms),
            run_secs: opts.get("secs", defaults.network.run_secs),
            ..defaults.network
        },
        transport: sammy_repro::spec::TransportSpec {
            protocol: opts.get("transport", defaults.transport.protocol),
            cc: opts.get("cc", defaults.transport.cc),
            ..defaults.transport
        },
        ..defaults
    };
    accepted("flags", ExperimentSpec::from_json(&spec.to_json()))
}

fn single_flow(opts: &Opts) {
    let spec = spec_from_flags(opts, sixty_second_lab_spec());
    let cfg = LabConfig::from_spec(&spec);
    let arm = if opts.flag("sammy") {
        LabArm::Sammy
    } else {
        LabArm::Control
    };
    let r = lab::single_flow(arm, &cfg);
    println!("arm              : {}", arm.label());
    println!(
        "transport / cc   : {} / {}",
        spec.transport.protocol, spec.transport.cc
    );
    println!("chunk throughput : {:.1} Mbps", r.chunk_throughput_mbps);
    println!("median RTT       : {:.2} ms", r.median_rtt_ms);
    println!("retransmits      : {:.3} %", r.retx_fraction * 100.0);
    println!("play delay       : {:.2} s", r.play_delay_s);
    println!("rebuffers        : {}", r.rebuffers);
    println!(
        "peak queue       : {:.1} kB",
        r.max_queue_bytes as f64 / 1e3
    );
}

/// The 60-second lab default the packet-level subcommands share.
fn sixty_second_lab_spec() -> ExperimentSpec {
    ExperimentSpec {
        network: sammy_repro::spec::NetworkSpec {
            run_secs: 60,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The full CC × pacing grid on the default dumbbell.
fn matrix(opts: &Opts) {
    let spec = spec_from_flags(opts, sixty_second_lab_spec());
    let base = LabConfig::from_spec(&spec);
    let cells = cc_matrix::cc_matrix(&base, spec.threads);
    print!("{}", cc_matrix::render_rows(&cells));
}

fn neighbors(opts: &Opts) {
    let spec = spec_from_flags(opts, sixty_second_lab_spec());
    // Fig 8a averages the neighbor's delay from the video's startup
    // transient on: a run that ends by then has no window to average.
    if spec.network.run_for() <= lab::STARTUP {
        eprintln!(
            "invalid value for --secs: '{}': the Fig 8a window opens at {} s, so a \
             neighbors run must be longer",
            spec.network.run_secs,
            lab::STARTUP.as_secs_f64()
        );
        std::process::exit(2);
    }
    let cfg = LabConfig {
        run_for: spec.network.run_for(),
        ..LabConfig::neighbors()
    };
    println!(
        "{:<18} {:>12} {:>12} {:>8}",
        "neighbor", "control", "sammy", "change"
    );
    type NeighborRow = (&'static str, fn(LabArm, &LabConfig) -> f64, &'static str);
    let rows: [NeighborRow; 3] = [
        ("UDP OWD (ms)", lab::neighbor_udp, "-"),
        ("TCP tput (Mbps)", lab::neighbor_tcp, "+"),
        ("HTTP resp (ms)", lab::neighbor_http, "-"),
    ];
    for (name, f, _dir) in rows {
        let c = f(LabArm::Control, &cfg);
        let s = f(LabArm::Sammy, &cfg);
        println!(
            "{name:<18} {c:>12.2} {s:>12.2} {:>7.0}%",
            (s - c) / c * 100.0
        );
    }
}

fn abtest(opts: &Opts) {
    let spec = spec_from_flags(
        opts,
        ExperimentSpec {
            users_per_arm: 150,
            pre_sessions: 3,
            sessions_per_user: 3,
            seed: 2023,
            bootstrap_reps: 400,
            ..Default::default()
        },
    );
    let run = accepted(
        "abtest setup",
        Experiment::builder().spec(&spec).run_table(),
    );
    println!(
        "Paired A/B: production vs {}, {} users\n",
        sammy_repro::abtest::Arm::from(&spec.treatment).label(),
        spec.users_per_arm
    );
    print!("{}", run.report().render());
    // Fold the experiment's per-user telemetry into this process's registry
    // so `--metrics` sees it.
    obs::with(|r| r.merge(&run.state.registry));
}

/// Streaming shard-merge A/B run: lazily derived population, O(threads)
/// memory, optional checkpoint/resume. Prints the report plus the state
/// fingerprint so interrupted-then-resumed runs can be compared to an
/// uninterrupted golden byte-for-byte (the CI smoke job does exactly that).
fn stream(opts: &Opts) {
    let spec = spec_from_flags(
        opts,
        ExperimentSpec {
            users_per_arm: 100_000,
            pre_sessions: 1,
            sessions_per_user: 1,
            seed: 2023,
            bootstrap_reps: 200,
            ..Default::default()
        },
    );
    // `--light` flows through the spec: the short-title population is the
    // scale knob for million-user demos where the point is the runner,
    // not the sessions.
    let mut b = Experiment::builder()
        .spec(&spec)
        .checkpoint_every(opts.get("checkpoint-every", 16))
        .resume(opts.flag("resume"));
    if let Some(dir) = opts.get_str("checkpoint-dir") {
        b = b.checkpoint_dir(dir);
    }
    let abort_after: usize = opts.get("abort-after", 0);
    if abort_after > 0 {
        b = b.abort_after_checkpoints(abort_after);
    }
    let run = accepted("stream setup", b.run_streaming());
    for note in &run.fallback_notes {
        eprintln!("note: {note}");
    }
    if let Some(shard) = run.resumed_from {
        eprintln!(
            "resumed from checkpoint at shard {shard}/{} ({} users already merged)",
            run.shards,
            shard * run.shard_size
        );
    }
    if !run.completed {
        println!(
            "partial run: merged {}/{} shards, wrote {} checkpoint(s); rerun with --resume to continue",
            run.merged_shards, run.shards, run.checkpoints_written
        );
        println!("state fingerprint: {:016x}", run.fingerprint());
        return;
    }
    println!(
        "Paired A/B (streaming): production vs {}, {} users\n",
        sammy_repro::abtest::Arm::from(&spec.treatment).label(),
        spec.users_per_arm
    );
    print!("{}", run.report().render());
    if run.state.failures > 0 {
        println!("failed user-pairs: {}", run.state.failures);
    }
    println!("state fingerprint: {:016x}", run.fingerprint());
    // Fold the streamed telemetry into this process's registry so
    // `--metrics` sees it.
    obs::with(|r| r.merge(&run.state.registry));
}

/// The default candidate grid: eight arms along the production ratio
/// (c1 = 0.875 × c0, the paper's 3.2/2.8 shape), from barely-paced 1.2×
/// to conservative 4.0×.
fn default_arm_points() -> Vec<ArmPoint> {
    (0..8)
        .map(|i| {
            let c0 = 1.2 + 0.4 * i as f64;
            ArmPoint {
                c0: (c0 * 100.0).round() / 100.0,
                c1: (c0 * 0.875 * 100.0).round() / 100.0,
            }
        })
        .collect()
}

/// The successive-halving search over the default arm grid — same schema
/// as `POST /searches` on `sammy-serve`.
fn tune(opts: &Opts) {
    let base = spec_from_flags(
        opts,
        ExperimentSpec {
            users_per_arm: 40,
            pre_sessions: 2,
            sessions_per_user: 2,
            seed: 7,
            bootstrap_reps: 150,
            ..Default::default()
        },
    );
    let search = SearchSpec {
        name: "tune".into(),
        arms: default_arm_points(),
        initial_users: opts.get("initial-users", base.users_per_arm.div_ceil(4).max(1)),
        eta: opts.get("eta", 2),
        rungs: opts.get("rungs", 3),
        guards: Default::default(),
        base,
    };
    println!(
        "Halving search over {} arms: {} rungs, eta {}, rung-0 users {}...\n",
        search.arms.len(),
        search.rungs,
        search.eta,
        search.initial_users
    );
    let out = accepted("tune setup", halving_search(&search));
    println!(
        "{:>5} {:>6} {:>6} {:>6} {:>10} {:>9} {:>10} {:>9}",
        "rung", "users", "c0", "c1", "tput %", "vmaf %", "delay %", "feasible"
    );
    for e in &out.evaluations {
        let c = &e.candidate;
        println!(
            "{:>5} {:>6} {:>6.2} {:>6.2} {:>10.1} {:>9.3} {:>10.2} {:>9}",
            e.rung, e.users, c.c0, c.c1, c.tput_pct, c.vmaf_pct, c.play_delay_pct, c.feasible
        );
    }
    let b = &out.best;
    println!(
        "\nchosen: c0={}, c1={} -> throughput {:.1}%, VMAF {:.3}%, play delay {:.2}%",
        b.c0, b.c1, b.tput_pct, b.vmaf_pct, b.play_delay_pct
    );
    // The budget comparison EXPERIMENTS.md tabulates: a full grid
    // evaluates every arm at the final-rung population.
    let full_users = search.rung_users(out.rungs_run.saturating_sub(1));
    let grid_equiv = search.arms.len() as u64
        * ExperimentConfig::from(&search.base).sessions_simulated(full_users);
    println!(
        "budget: {} simulated user-sessions over {} evaluations \
         (grid over the same {} arms at {} users/arm: {})",
        out.user_sessions,
        out.evaluations.len(),
        search.arms.len(),
        full_users,
        grid_equiv
    );
}

/// A small end-to-end tour that exercises every instrumented layer: one
/// packet-level lab session (engine + transport + player telemetry) and a
/// small fluid A/B experiment (fluidsim + abtest telemetry).
fn quickstart(opts: &Opts) {
    let spec = spec_from_flags(
        opts,
        ExperimentSpec {
            users_per_arm: 20,
            pre_sessions: 2,
            sessions_per_user: 2,
            seed: 2023,
            bootstrap_reps: 200,
            network: sammy_repro::spec::NetworkSpec {
                run_secs: 30,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let lab_cfg = LabConfig::from_spec(&spec);
    println!("[1/2] packet-level lab session (Sammy arm)...");
    let r = lab::single_flow(LabArm::Sammy, &lab_cfg);
    println!(
        "      chunk throughput {:.1} Mbps, median RTT {:.2} ms, {} rebuffers",
        r.chunk_throughput_mbps, r.median_rtt_ms, r.rebuffers
    );

    println!(
        "[2/2] fluid A/B experiment ({} users per arm)...",
        spec.users_per_arm
    );
    let run = accepted(
        "quickstart setup",
        Experiment::builder().spec(&spec).run_table(),
    );
    print!("{}", run.report().render());
    obs::with(|r| r.merge(&run.state.registry));
}
