//! `sammy-sim` — command-line front end for the Sammy reproduction.
//!
//! ```text
//! sammy-sim single-flow [--sammy] [--transport tcp|quic] [--cc reno|cubic|bbr|ledbat]
//!                       [--rate-mbps 40] [--rtt-ms 5] [--secs 60]
//! sammy-sim matrix      [--secs 60] [--threads 0]
//! sammy-sim neighbors   [--secs 60]
//! sammy-sim abtest      [--users 150] [--c0 3.2] [--c1 2.8] [--threads 0]
//! sammy-sim stream      [--users 100000] [--checkpoint-dir DIR] [--resume] ...
//! sammy-sim tune        [--users 40] [--rounds 2]
//! sammy-sim quickstart  [--users 20]
//! ```
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
//! Every subcommand accepts `--metrics <path>`: with the `obs` feature
//! enabled, the run's telemetry registry is written to `<path>` as JSON
//! lines (`-` renders the pretty table to stdout instead).

use sammy_repro::abtest::{
    draw_population, halving_search, population_config_from_spec, search, Experiment,
    ExperimentConfig, HalvingConfig, QoeGuards,
};
use sammy_repro::netsim::SimDuration;
use sammy_repro::obs;
use sammy_repro::sammy_bench::lab::{self, LabArm, LabConfig};
use sammy_repro::sammy_bench::matrix as cc_matrix;
use sammy_repro::spec::{ArmPoint, ArmSpec, ExperimentSpec, SearchSpec};
use sammy_repro::transport::{CcAlgorithm, Protocol};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return;
    };
    let opts = parse_flags(&args[1..]);
    // Start from a clean registry so `--metrics` reflects this run only.
    let _ = obs::take();
    match cmd.as_str() {
        "single-flow" => single_flow(&opts),
        "matrix" => matrix(&opts),
        "neighbors" => neighbors(&opts),
        "abtest" => abtest(&opts),
        "stream" => stream(&opts),
        "tune" => tune(&opts),
        "quickstart" => quickstart(&opts),
        _ => {
            usage();
            return;
        }
    }
    emit_metrics(&opts, obs::take());
}

fn usage() {
    eprintln!(
        "usage: sammy-sim <single-flow|matrix|neighbors|abtest|stream|tune|quickstart> [flags]"
    );
    eprintln!("  single-flow  [--sammy] [--transport tcp|quic] [--cc reno|cubic|bbr|ledbat]");
    eprintln!("               [--rate-mbps N] [--rtt-ms N] [--secs N]");
    eprintln!("  matrix       [--secs N] [--threads N]");
    eprintln!("  neighbors    [--secs N]");
    eprintln!("  abtest       [--users N] [--c0 X] [--c1 X] [--seed N] [--threads N]");
    eprintln!("  stream       [--users N] [--c0 X] [--c1 X] [--seed N] [--threads N]");
    eprintln!("               [--shard-size N] [--sessions N] [--pre-sessions N] [--reps N]");
    eprintln!("               [--light] [--checkpoint-dir DIR] [--checkpoint-every N]");
    eprintln!("               [--resume] [--abort-after N]");
    eprintln!("  tune         [--users N] [--rounds N] [--seed N] [--threads N]");
    eprintln!("               [--halving] [--initial-users N] [--eta N] [--rungs N]");
    eprintln!("  quickstart   [--users N] [--seed N]");
    eprintln!("  all commands: [--metrics PATH]  (JSON lines; '-' = table on stdout)");
}

struct Opts(Vec<(String, String)>);

impl Opts {
    /// The parsed value of `--key`, or `default` when the flag is absent.
    /// A flag that is present but does not parse exits with status 2: a
    /// typo must not silently run the default experiment.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get_str(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: '{v}'");
                std::process::exit(2);
            }),
        }
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }
}

fn parse_flags(args: &[String]) -> Opts {
    let mut out = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if *v == "-" || !v.starts_with("--") => it.next().unwrap().clone(),
                _ => String::new(),
            };
            out.push((key.to_string(), value));
        }
    }
    Opts(out)
}

/// Write the accumulated telemetry to the `--metrics` sink, if requested.
fn emit_metrics(opts: &Opts, registry: obs::Registry) {
    let Some(path) = opts.get_str("metrics") else {
        return;
    };
    if path.is_empty() {
        eprintln!("--metrics needs a path (or '-' for a table on stdout)");
        std::process::exit(2);
    }
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

/// Parse `--transport` / `--cc` via the enums' `FromStr` (the one
/// spelling shared with the JSON API and CSV headers), exiting with the
/// parse error's own message on junk values.
fn transport_cc(opts: &Opts) -> (Protocol, CcAlgorithm) {
    let transport = match opts.get_str("transport") {
        None => Protocol::default(),
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("--transport: {e}");
            std::process::exit(2);
        }),
    };
    let cc = match opts.get_str("cc") {
        None => CcAlgorithm::default(),
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("--cc: {e}");
            std::process::exit(2);
        }),
    };
    (transport, cc)
}

/// Resolve the command-line flags into one [`ExperimentSpec`] — the same
/// schema `sammy-serve` accepts over HTTP, so the CLI and the API cannot
/// drift. `defaults` carries the per-subcommand sizing; every flag
/// overrides its spec field.
fn spec_from_flags(opts: &Opts, defaults: ExperimentSpec) -> ExperimentSpec {
    let (protocol, cc) = transport_cc(opts);
    ExperimentSpec {
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
            protocol,
            cc,
            ..defaults.transport
        },
        ..defaults
    }
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
    println!(
        "{:<10} {:>6} {:>8} {:>16} {:>14} {:>8} {:>14}",
        "substrate", "proto", "arm", "chunk tput Mbps", "median RTT ms", "retx %", "peak queue kB"
    );
    for c in &cells {
        println!(
            "{:<10} {:>6} {:>8} {:>16.2} {:>14.2} {:>8.3} {:>14.1}",
            c.substrate,
            c.transport.name(),
            c.arm.label(),
            c.chunk_tput_mbps,
            c.median_rtt_ms,
            c.retx_fraction * 100.0,
            c.peak_queue_kb
        );
    }
}

fn neighbors(opts: &Opts) {
    let cfg = LabConfig {
        run_for: SimDuration::from_secs(opts.get("secs", 60)),
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
    let run = match Experiment::builder().spec(&spec).run() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("abtest setup rejected: {e}");
            std::process::exit(2);
        }
    };
    let report = run.report(spec.bootstrap_reps, spec.seed);
    println!(
        "Paired A/B: production vs {}, {} users\n",
        sammy_repro::abtest::Arm::from(&spec.treatment).label(),
        spec.users_per_arm
    );
    print!("{}", report.render());
    // Fold the experiment's per-user telemetry into this process's registry
    // so `--metrics` sees it.
    obs::with(|r| r.merge(&run.metrics));
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
    let run = match b.run_streaming() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("stream setup rejected: {e}");
            std::process::exit(2);
        }
    };
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

fn tune(opts: &Opts) {
    let spec = spec_from_flags(
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
    if opts.flag("halving") {
        tune_halving(opts, &spec);
        return;
    }
    let cfg: ExperimentConfig = (&spec).into();
    let rounds = opts.get("rounds", 2);
    let pop = draw_population(
        &population_config_from_spec(&spec),
        cfg.users_per_arm,
        cfg.seed,
    );
    println!(
        "Searching (c0, c1) over {rounds} fixed-grid rounds, {} users...\n",
        cfg.users_per_arm
    );
    let out = match search(&pop, &cfg, QoeGuards::default(), rounds) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tune setup rejected: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{:>6} {:>6} {:>10} {:>9} {:>10} {:>9}",
        "c0", "c1", "tput %", "vmaf %", "delay %", "feasible"
    );
    for c in &out.trace {
        println!(
            "{:>6.2} {:>6.2} {:>10.1} {:>9.3} {:>10.2} {:>9}",
            c.c0, c.c1, c.tput_pct, c.vmaf_pct, c.play_delay_pct, c.feasible
        );
    }
    let b = &out.best;
    println!(
        "\nchosen: c0={}, c1={} -> throughput {:.1}%, VMAF {:.3}%, play delay {:.2}%",
        b.c0, b.c1, b.tput_pct, b.vmaf_pct, b.play_delay_pct
    );
    println!("(the paper's production choice was c0=3.2, c1=2.8 at -61% throughput)");
    let spent = out.trace.len() as u64 * cfg.sessions_simulated(cfg.users_per_arm);
    println!(
        "budget: {spent} simulated user-sessions over {} evaluations",
        out.trace.len()
    );
}

/// The default candidate grid for halving searches: eight arms along the
/// production ratio (c1 = 0.875 × c0, the paper's 3.2/2.8 shape), from
/// barely-paced 1.2× to conservative 4.0×.
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

/// `tune --halving`: the successive-halving scheduler over the default
/// arm grid — same schema as `POST /searches` on `sammy-serve`.
fn tune_halving(opts: &Opts, base: &ExperimentSpec) {
    let search_spec = SearchSpec {
        name: "tune".into(),
        arms: default_arm_points(),
        initial_users: opts.get("initial-users", base.users_per_arm.div_ceil(4).max(1)),
        eta: opts.get("eta", 2),
        rungs: opts.get("rungs", 3),
        guards: Default::default(),
        base: base.clone(),
    };
    let cfg = HalvingConfig::from_spec(&search_spec);
    println!(
        "Halving search over {} arms: {} rungs, eta {}, rung-0 users {}...\n",
        cfg.arms.len(),
        cfg.rungs,
        cfg.eta,
        cfg.initial_users
    );
    let out = match halving_search(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tune setup rejected: {e}");
            std::process::exit(2);
        }
    };
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
    // The budget comparison EXPERIMENTS.md tabulates: the fixed grid
    // evaluates every arm at the final-rung population.
    let full_users = cfg.initial_users * cfg.eta.pow(out.rungs_run.saturating_sub(1) as u32);
    let grid_equiv = cfg.arms.len() as u64 * cfg.base.sessions_simulated(full_users);
    println!(
        "budget: {} simulated user-sessions over {} evaluations \
         (grid over the same {} arms at {} users/arm: {})",
        out.user_sessions,
        out.evaluations.len(),
        cfg.arms.len(),
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
    let run = match Experiment::builder().spec(&spec).run() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("quickstart setup rejected: {e}");
            std::process::exit(2);
        }
    };
    let report = run.report(spec.bootstrap_reps, spec.seed);
    print!("{}", report.render());
    obs::with(|r| r.merge(&run.metrics));
}
