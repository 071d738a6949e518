//! Tier-1 mirror of the abtest crate's runner battery.
//!
//! Plain `cargo test` runs only this root package, so the user-pair runner
//! under every experiment surface gets one cheap case of each contract
//! here; the full batteries live in `crates/abtest` (the
//! `pair_equals_unshared_arms` proptest, `tests/streaming_resume.rs`).

use sammy_repro::abtest::run_user;
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

/// A pair shares its warm-up and titles between the arms; each arm's
/// records must equal what that arm produces run alone.
#[test]
fn pair_equals_each_arm_run_alone() {
    let cfg = cfg(3);
    let pop = draw_population(&PopulationConfig::default(), cfg.users_per_arm, cfg.seed);
    let run = Experiment::builder()
        .population(&pop)
        .treatment(TREATMENT)
        .config(cfg.clone())
        .run()
        .unwrap();
    let alone = |arm| -> Vec<_> { pop.iter().flat_map(|u| run_user(u, arm, &cfg)).collect() };
    assert_eq!(run.control.sessions, alone(Arm::Production));
    assert_eq!(run.treatment.sessions, alone(TREATMENT));
    assert_ne!(run.control.sessions, run.treatment.sessions);
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
