//! Tier-1 mirror of the abtest crate's runner battery.
//!
//! Plain `cargo test` runs only this root package, so the user-pair runner
//! under every experiment surface gets one cheap case of each contract
//! here; the full batteries live in `crates/abtest` (the
//! `pair_equals_unshared_arms` proptest, `tests/streaming_resume.rs`).

use sammy_repro::abtest::{run_user, StreamingStat, METRICS};
use sammy_repro::prelude::*;

const TREATMENT: Arm = Arm::Sammy { c0: 3.2, c1: 2.8 };

fn cfg(users: usize) -> ExperimentConfig {
    ExperimentConfig {
        users_per_arm: users,
        pre_sessions: 2,
        sessions_per_user: 2,
        seed: 41,
        bootstrap_reps: 40,
        threads: 2,
    }
}

/// A pair shares its warm-up and titles between the arms; each arm the
/// fold saw must be what that arm produces run alone — every row's digest,
/// to the bit, against one folded here from `run_user` records (one
/// shard: the fold's per-arm summary merged once into an empty one).
#[test]
fn pair_equals_each_arm_run_alone() {
    let cfg = cfg(3);
    let pop: Vec<UserProfile> = (0..cfg.users_per_arm as u64)
        .map(|i| user_at(&PopulationConfig::default(), i, cfg.seed))
        .collect();
    let run = Experiment::builder()
        .treatment(TREATMENT)
        .config(cfg.clone())
        .run_streaming()
        .unwrap();
    assert_eq!(run.shards, 1);
    let encode = |s: &StreamingStat| {
        let mut buf = Vec::new();
        s.encode(&mut buf);
        buf
    };
    let alone = |arm, f: fn(&_) -> Option<f64>| {
        let shard: StreamingStat = pop
            .iter()
            .flat_map(|u| run_user(u, arm, &cfg))
            .filter_map(|r| f(&r))
            .collect();
        let mut merged = StreamingStat::new();
        merged.merge(&shard);
        encode(&merged)
    };
    for (acc, &(name, _, f)) in run.state.metrics().iter().zip(&METRICS) {
        assert_eq!(encode(acc.control()), alone(Arm::Production, f), "{name}");
        assert_eq!(encode(acc.treatment()), alone(TREATMENT, f), "{name}");
    }
    let tput = &run.state.metrics()[0];
    assert_ne!(encode(tput.control()), encode(tput.treatment()));
}

/// The fold's state for a small light run, pinned: `sammy-sim stream
/// --users 64 --light --seed 2023 --shard-size 16` printed this before the
/// collecting runner went, and a change that moves the fold — its digests,
/// replicates, counts or merge order — moves it.
///
/// Re-baselined once (from `ac514e3343ee1d25`) when a session's median RTT
/// became the exact weighted median of its chunks instead of a t-digest's
/// estimate: the RTT row's inputs moved, nothing else did.
#[test]
fn stream_state_fingerprint_is_pinned() {
    if sammy_repro::obs::ENABLED {
        return; // the fingerprint hashes the telemetry registry too
    }
    let spec = ExperimentSpec {
        users_per_arm: 64,
        pre_sessions: 1,
        sessions_per_user: 1,
        seed: 2023,
        bootstrap_reps: 200,
        threads: 2,
        shard_size: 16,
        light_population: true,
        ..Default::default()
    };
    let run = Experiment::builder().spec(&spec).run_streaming().unwrap();
    assert_eq!(format!("{:016x}", run.fingerprint()), "312028acf82dd169");
}

/// Kill the streaming runner after its first checkpoint, resume: the final
/// state is bit-identical to the uninterrupted run's.
#[test]
fn streaming_resume_matches_uninterrupted() {
    let builder = || {
        Experiment::builder()
            .treatment(TREATMENT)
            .config(ExperimentConfig {
                pre_sessions: 1,
                sessions_per_user: 1,
                ..cfg(8)
            })
            .population_config(PopulationConfig::light())
            .shard_size(2)
            .checkpoint_every(1)
    };
    let golden = builder().run_streaming().unwrap();
    assert!(golden.completed);

    let dir = std::env::temp_dir().join(format!("sammy-abtest-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let partial = builder()
        .checkpoint_dir(&dir)
        .abort_after_checkpoints(1)
        .run_streaming()
        .unwrap();
    assert!(!partial.completed);
    let resumed = builder()
        .checkpoint_dir(&dir)
        .resume(true)
        .run_streaming()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(resumed.completed);
    assert_eq!(resumed.fingerprint(), golden.fingerprint());
}
