//! Production-style A/B experiment: Sammy vs the production algorithm over
//! a simulated user population (the Table 2 methodology at example scale),
//! then the same population folded into Fig 3's per-bucket rows.
//!
//! ```text
//! cargo run --example ab_experiment --release
//! cargo run --example ab_experiment --release -- 500   # users per arm
//! cargo run --example ab_experiment --release -- 500 8 # ... on 8 threads
//! cargo run --example ab_experiment --release --features obs -- --metrics out.jsonl
//! ```

use sammy_repro::abtest::BUCKET_METRICS;
use sammy_repro::prelude::*;

fn main() {
    let (positional, metrics) = split_args();
    let users_per_arm: usize = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    // Worker threads for the sharded runner (0 = all cores). The reports
    // are bit-identical for every value.
    let threads: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);

    let cfg = ExperimentConfig {
        users_per_arm,
        pre_sessions: 3,
        sessions_per_user: 3,
        seed: 2023,
        bootstrap_reps: 400,
        threads,
    };
    println!(
        "Paired A/B test: production vs Sammy(c0=3.2, c1=2.8), {} users, {} sessions/arm each\n",
        cfg.users_per_arm, cfg.sessions_per_user
    );

    let experiment = || {
        Experiment::builder()
            .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
            .config(cfg.clone())
    };
    let run = experiment().run_table().expect("valid experiment setup");
    println!("{}", run.report().render());

    println!("Chunk-throughput change by pre-experiment throughput bucket (Fig 3):");
    let buckets = experiment()
        .rows(&BUCKET_METRICS)
        .run_table()
        .expect("valid experiment setup")
        .report();
    print!("{}", buckets.render());
    println!("\nPaper reference (Table 2): tput -61%, retx -35.5%, RTT -13.7%,");
    println!("initial VMAF +0.14%, VMAF +0.04%, play delay -1.29%, rebuffers n.s.");

    emit_metrics(metrics, &run.state.registry);
}

/// Split argv into positional args and an optional `--metrics <path>`.
fn split_args() -> (Vec<String>, Option<String>) {
    let mut positional = Vec::new();
    let mut metrics = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--metrics" {
            metrics = Some(it.next().expect("--metrics needs a path"));
        } else {
            positional.push(a);
        }
    }
    (positional, metrics)
}

/// Write the run's telemetry to `--metrics` (JSON lines; '-' = table).
fn emit_metrics(path: Option<String>, metrics: &Registry) {
    let Some(path) = path else { return };
    if metrics.is_empty() {
        eprintln!("note: no metrics recorded; rebuild with `--features obs`");
    }
    if path == "-" {
        print!("{}", metrics.render_table());
    } else {
        metrics
            .write_jsonl(std::path::Path::new(&path))
            .expect("write metrics");
        eprintln!("wrote metrics to {path}");
    }
}
