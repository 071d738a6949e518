//! Telemetry determinism and zero-overhead guarantees.
//!
//! With the `obs` feature on, the experiment runner's merged registry must
//! be byte-identical for every worker count, and every instrumented layer
//! must actually show up in the output. With the feature off, the same instrumented code paths must
//! record nothing at all — the macros compile to nothing.

use sammy_repro::prelude::*;
use sammy_repro::sammy_bench::lab::{self, LabArm, LabConfig};

const USERS: u64 = 8;
const PRE_SESSIONS: u64 = 1;
const SESSIONS_PER_USER: u64 = 2;

/// The merged registry of a four-shard run on `threads` workers.
fn experiment_metrics(threads: usize) -> Registry {
    let cfg = ExperimentConfig {
        users_per_arm: USERS as usize,
        pre_sessions: PRE_SESSIONS as usize,
        sessions_per_user: SESSIONS_PER_USER as usize,
        seed: 2023,
        bootstrap_reps: 50,
        threads,
    };
    let run = Experiment::builder()
        .treatment(Arm::Sammy { c0: 3.2, c1: 2.8 })
        .config(cfg)
        .shard_size(2)
        .run_streaming()
        .unwrap();
    run.state.registry
}

fn experiment_jsonl(threads: usize) -> String {
    experiment_metrics(threads).to_jsonl()
}

/// A user pair simulates its pre-experiment sessions once and its
/// experiment sessions once per arm — no session is simulated twice.
#[cfg(feature = "obs")]
#[test]
fn session_counts_are_exact() {
    let metrics = experiment_metrics(2);
    assert_eq!(metrics.counter_value("abtest.users"), USERS);
    assert_eq!(
        metrics.counter_value("abtest.sessions"),
        USERS * 2 * SESSIONS_PER_USER
    );
    assert_eq!(
        metrics.counter_value("fluidsim.sessions"),
        USERS * (PRE_SESSIONS + 2 * SESSIONS_PER_USER)
    );
}

#[cfg(feature = "obs")]
#[test]
fn metrics_are_shard_count_invariant() {
    let one = experiment_jsonl(1);
    let two = experiment_jsonl(2);
    let eight = experiment_jsonl(8);
    assert!(!one.is_empty(), "obs build must record telemetry");
    assert_eq!(one, two, "2-thread run diverged from 1-thread");
    assert_eq!(one, eight, "8-thread run diverged from 1-thread");

    // Same seed, same output — byte for byte.
    assert_eq!(eight, experiment_jsonl(8));

    // The fluid experiment layers are all present.
    for name in [
        "abtest.users",
        "abtest.sessions",
        "fluidsim.sessions",
        "fluidsim.chunks",
        "fluidsim.chunk_download",
    ] {
        assert!(one.contains(name), "missing {name} in:\n{one}");
    }
}

#[cfg(feature = "obs")]
#[test]
fn packet_level_layers_are_instrumented() {
    let _ = sammy_repro::obs::take();
    let cfg = LabConfig {
        run_for: SimDuration::from_secs(30),
        ..Default::default()
    };
    let _ = lab::single_flow(LabArm::Sammy, &cfg);
    let reg = sammy_repro::obs::take();
    let names = reg.metric_names();
    for name in [
        "netsim.engine.events",
        "netsim.link.queue_depth_bytes",
        "transport.srtt_ms",
        "transport.cwnd_bytes",
        "transport.pacing_rate_mbps",
        "video.buffer_level_s",
        "video.play_delay",
    ] {
        assert!(
            names.iter().any(|(n, _)| *n == name),
            "missing {name}; instrumented layers: {names:?}"
        );
    }
    // The same run replayed yields the same telemetry bytes (the JSONL sink
    // excludes wall-clock spans for exactly this reason).
    let first = reg.to_jsonl();
    let _ = lab::single_flow(LabArm::Sammy, &cfg);
    assert_eq!(first, sammy_repro::obs::take().to_jsonl());
}

#[cfg(not(feature = "obs"))]
#[test]
fn disabled_feature_records_nothing() {
    let _ = sammy_repro::obs::take();
    // Exercise both instrumented stacks: the packet-level lab session and
    // the fluid experiment runner.
    let cfg = LabConfig {
        run_for: SimDuration::from_secs(10),
        ..Default::default()
    };
    let _ = lab::single_flow(LabArm::Sammy, &cfg);
    let jsonl = experiment_jsonl(2);
    assert!(jsonl.is_empty(), "metrics recorded without obs: {jsonl}");
    let reg = sammy_repro::obs::take();
    assert!(reg.is_empty(), "registry non-empty without obs");
}
