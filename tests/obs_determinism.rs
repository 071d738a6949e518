//! Telemetry determinism and zero-overhead guarantees.
//!
//! With the `obs` feature on, the experiment runner's merged registry must
//! be byte-identical for every worker count, and every instrumented layer
//! must actually show up in the output. With the feature off, the same instrumented code paths must
//! record nothing at all — the macros compile to nothing. In either build
//! a registry blob decodes only as `Registry::encode` writes it.

use proptest::prelude::*;
use sammy_repro::obs::TraceId;
use sammy_repro::prelude::*;
use sammy_repro::sammy_bench::lab::{self, LabArm, LabConfig};
use sammy_repro::tdigest::wire::{Reader, WireError};

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
        "fluidsim.chunk_download_s",
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
    for (name, kind) in [
        ("netsim.engine.events", "counter"),
        ("netsim.link.queue_depth_bytes", "hist"),
        ("transport.srtt_ms", "hist"),
        ("transport.cwnd_bytes", "hist"),
        ("transport.pacing_rate_mbps", "hist"),
        ("video.buffer_level_s", "hist"),
        ("video.play_delay_s", "hist"),
    ] {
        assert!(
            names.contains(&(name, kind)),
            "missing {kind} {name}; instrumented layers: {names:?}"
        );
    }
    // Every line is one of the three kinds, and the window's histogram
    // keeps the extremes a gauge used to report.
    let first = reg.to_jsonl();
    for line in first.lines() {
        assert!(
            ["counter", "hist", "trace"]
                .iter()
                .any(|k| line.starts_with(&format!(r#"{{"kind":"{k}","#))),
            "{line}"
        );
    }
    let cwnd = first
        .lines()
        .find(|l| l.contains(r#""name":"transport.cwnd_bytes""#))
        .unwrap();
    assert!(
        cwnd.contains(r#""min":"#) && cwnd.contains(r#""max":"#),
        "{cwnd}"
    );
    // The same run replayed yields the same telemetry bytes.
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

/// A registry's blob decoded as a checkpoint applies it: the whole blob,
/// nothing left over.
fn decode_registry(bytes: &[u8]) -> Result<Registry, WireError> {
    let mut r = Reader::new(bytes);
    let reg = Registry::decode(&mut r)?;
    if !r.is_done() {
        return Err(WireError {
            context: "trailing bytes",
        });
    }
    Ok(reg)
}

const NAMES: [&str; 6] = ["a.one", "a.one.x", "b.two", "c.three", "c.threee", "d"];
const EVENTS: [TraceId; 3] = [TraceId::LinkDrop, TraceId::RungSwitch, TraceId::TcpRto];

proptest! {
    /// Any one byte of a valid registry blob flipped, or the blob cut
    /// anywhere, is refused or decodes to a registry that re-encodes to
    /// exactly the mutated bytes — never a panic. The registry is built
    /// through its public methods, so this runs with telemetry off too:
    /// counters, histograms (one may hold only skipped samples) and trace
    /// events, none or some of each.
    #[test]
    fn mutated_registry_is_refused_or_reencodes_exactly(
        counters in proptest::collection::vec((0usize..6, 0u64..1 << 40), 0..8),
        samples in proptest::collection::vec((0usize..6, -1e3f64..1e3, any::<bool>()), 0..8),
        events in proptest::collection::vec((0usize..3, any::<u64>(), 0u64..1000), 0..4),
        at in 0.0f64..1.0,
        flip in 1u8..=255,
        cut in any::<bool>(),
    ) {
        let mut reg = Registry::new();
        for &(name, delta) in &counters {
            reg.counter(NAMES[name], delta);
        }
        for &(name, v, skipped) in &samples {
            reg.observe(NAMES[name], if skipped { f64::NAN } else { v });
        }
        for &(id, t_ns, a) in &events {
            reg.trace(EVENTS[id], t_ns, a, t_ns ^ a);
        }
        let mut valid = Vec::new();
        reg.encode(&mut valid);
        prop_assert!(decode_registry(&valid).is_ok());
        let i = (at * valid.len() as f64) as usize;
        let mutated = if cut {
            valid[..i].to_vec()
        } else {
            let mut bytes = valid.clone();
            bytes[i] ^= flip;
            bytes
        };
        if let Ok(back) = decode_registry(&mutated) {
            let mut again = Vec::new();
            back.encode(&mut again);
            prop_assert_eq!(again, mutated, "byte {} (cut: {})", i, cut);
        }
    }
}
