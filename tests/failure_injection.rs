//! Failure-injection tests: sudden capacity changes mid-session. The
//! adaptive stack (MPC + Sammy) must degrade gracefully — downshift rungs,
//! keep rebuffers bounded — and recover when capacity returns.

use sammy_repro::abr::{shared_history, HistoryPolicy, Mpc, ProductionAbr};
use sammy_repro::netsim::{
    Dumbbell, DumbbellConfig, FlowId, Rate, SimDuration, SimTime, Simulator,
};
use sammy_repro::sammy_core::{Sammy, SammyConfig};
use sammy_repro::transport::{SenderEndpoint, TcpConfig};
use sammy_repro::video::{
    Abr, Ladder, Player, PlayerConfig, PlayerState, Title, TitleConfig, VideoClientEndpoint,
    VmafModel,
};
use std::sync::Arc;

fn warmed_history() -> sammy_repro::abr::SharedHistory {
    let h = shared_history();
    for _ in 0..20 {
        h.update(Rate::from_mbps(38.0));
        h.end_session();
    }
    h
}

struct Outcome {
    state: PlayerState,
    rebuffers: u64,
    rebuffer_secs: f64,
    mean_bitrate_mbps: f64,
    switches: u64,
    played_secs: f64,
    /// Rung of each completed chunk, in request order.
    rungs: Vec<usize>,
}

/// Stream a 4-minute title while the bottleneck drops from 40 Mbps to
/// `dip_mbps` during [60 s, 120 s].
fn run_with_dip(abr: Box<dyn Abr>, dip_mbps: f64) -> Outcome {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
    let flow = FlowId(1);
    sim.set_endpoint(
        db.left[0],
        Box::new(SenderEndpoint::new(
            db.left[0],
            db.right[0],
            flow,
            TcpConfig {
                max_burst_packets: 4,
                ..Default::default()
            },
        )),
    );
    let title = Arc::new(Title::generate(
        Ladder::lab(&VmafModel::standard()),
        &TitleConfig {
            duration: SimDuration::from_secs(240),
            chunk_duration: SimDuration::from_secs(4),
            size_cv: 0.1,
            vmaf_sd: 0.0,
            seed: 5,
        },
    ));
    let player = Player::new(
        title,
        abr,
        PlayerConfig {
            // Small buffer so the dip actually bites.
            max_buffer: SimDuration::from_secs(30),
            start_threshold: SimDuration::from_secs(8),
            resume_threshold: SimDuration::from_secs(8),
        },
        SimTime::ZERO,
    );
    VideoClientEndpoint::new(db.right[0], db.left[0], flow, player)
        .install(&mut sim, SimTime::ZERO);

    sim.run_until(SimTime::from_secs(60));
    sim.set_link_rate(db.forward, Rate::from_mbps(dip_mbps));
    sim.run_until(SimTime::from_secs(120));
    sim.set_link_rate(db.forward, Rate::from_mbps(40.0));
    sim.run_until(SimTime::from_secs(400));

    let client: &mut VideoClientEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
    let q = client.player().qoe();
    Outcome {
        state: client.player().state(),
        rebuffers: q.rebuffer_count,
        rebuffer_secs: q.rebuffer_time.as_secs_f64(),
        mean_bitrate_mbps: q.mean_bitrate.map(|r| r.mbps()).unwrap_or(0.0),
        switches: q.quality_switches,
        played_secs: q.played.as_secs_f64(),
        rungs: client
            .completed_chunks
            .iter()
            .map(|(req, _)| req.rung)
            .collect(),
    }
}

fn production() -> Box<dyn Abr> {
    Box::new(ProductionAbr::new(
        Mpc::default(),
        warmed_history(),
        HistoryPolicy::AllSamples,
    ))
}

fn sammy() -> Box<dyn Abr> {
    Box::new(Sammy::new(
        Mpc::default(),
        warmed_history(),
        SammyConfig::default(),
    ))
}

#[test]
fn mild_dip_absorbed_by_buffer_and_adaptation() {
    // Dip to 2 Mbps (below the 3.3 Mbps top rung, above lower rungs): the
    // session must adapt down rather than stall, and finish the title.
    for abr in [production(), sammy()] {
        let o = run_with_dip(abr, 2.0);
        assert_eq!(o.state, PlayerState::Ended);
        assert_eq!(o.played_secs, 240.0);
        assert!(o.rebuffers <= 1, "rebuffers {}", o.rebuffers);
        // Adaptation happened: some switches, mean bitrate below top.
        assert!(o.switches >= 1, "expected downshifts");
        assert!(o.mean_bitrate_mbps < 3.3);
    }
}

#[test]
fn severe_dip_recovers_after_restoration() {
    // Dip to 0.4 Mbps (barely above the lowest rung): heavy stress, but the
    // session must still finish once capacity returns, with bounded stalls.
    for abr in [production(), sammy()] {
        let o = run_with_dip(abr, 0.4);
        assert_eq!(o.state, PlayerState::Ended, "session must finish");
        assert_eq!(o.played_secs, 240.0);
        // Stalls are allowed, but bounded by roughly the dip length.
        assert!(o.rebuffer_secs < 70.0, "stalled {}s", o.rebuffer_secs);
    }
}

#[test]
fn abr_recovers_to_pre_dip_quality_after_restoration() {
    // Not just "rebuffers stay bounded during the dip": once capacity
    // returns to 40 Mbps at t = 120 s, the ABR must climb back to within
    // one ladder rung of its pre-dip quality by the end of the title.
    for name in ["production", "sammy"] {
        for dip_mbps in [2.0, 0.4] {
            let o = run_with_dip(abr_by_name(name), dip_mbps);
            assert_eq!(o.state, PlayerState::Ended, "{name} dip {dip_mbps}");
            // Pre-dip steady state: the best rung reached in the first ten
            // chunks (all requested well before the 60 s dip).
            let pre_dip = *o.rungs[..10].iter().max().expect("pre-dip chunks");
            // The dip forced a downshift — otherwise this test is vacuous.
            let during_min = *o.rungs.iter().min().unwrap();
            assert!(
                during_min < pre_dip,
                "{name} dip {dip_mbps}: no downshift observed (rungs {:?})",
                o.rungs
            );
            // Recovery: every one of the final five chunks is back within
            // one rung of the pre-dip level.
            let tail = &o.rungs[o.rungs.len() - 5..];
            for (i, &r) in tail.iter().enumerate() {
                assert!(
                    r + 1 >= pre_dip,
                    "{name} dip {dip_mbps}: tail chunk {i} at rung {r}, \
                     pre-dip {pre_dip} (tail {tail:?})"
                );
            }
        }
    }
}

fn abr_by_name(name: &str) -> Box<dyn Abr> {
    match name {
        "production" => production(),
        _ => sammy(),
    }
}

#[test]
fn worker_panic_is_isolated_and_reported() {
    use sammy_repro::abtest::{
        draw_population, Arm, Experiment, ExperimentConfig, PopulationConfig,
    };
    use sammy_repro::netsim::SimError;

    let cfg = ExperimentConfig {
        users_per_arm: 10,
        pre_sessions: 1,
        sessions_per_user: 2,
        seed: 13,
        bootstrap_reps: 50,
        threads: 4,
    };
    let treatment = Arm::Sammy { c0: 3.2, c1: 2.8 };
    let mut pop = draw_population(&PopulationConfig::default(), cfg.users_per_arm, cfg.seed);
    // Sabotage one user mid-population: a title shorter than one chunk
    // trips `Title::generate`'s assertion inside that user's worker.
    pop[4].title_duration = SimDuration::from_secs(1);

    // One shard, so the healthy users fold exactly as a clean run's do.
    let run = |pop: &[_]| {
        Experiment::builder()
            .population(pop)
            .treatment(treatment)
            .config(cfg.clone())
            .shard_size(cfg.users_per_arm)
            .run_streaming()
            .unwrap()
    };
    let sabotaged = run(&pop);

    // Exactly the sabotaged user failed, with the panic payload captured.
    let state = &sabotaged.state;
    assert_eq!((state.failures, state.users), (1, 9));
    let sample = &state.failure_samples[0];
    assert_eq!((sample.index, sample.user), (4, pop[4].id));
    assert!(
        sample.message.contains("chunk"),
        "unexpected payload: {}",
        sample.message
    );

    // The pool neither deadlocked nor dropped the other nine users: every
    // row of the state equals a clean run of the population without the
    // bad user.
    let healthy: Vec<_> = pop
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 4)
        .map(|(_, u)| u.clone())
        .collect();
    let clean = run(&healthy);
    let encode = |s: &sammy_repro::abtest::StreamingStat| {
        let mut buf = Vec::new();
        s.encode(&mut buf);
        buf
    };
    for (a, b) in state.metrics().iter().zip(clean.state.metrics()) {
        assert_eq!(encode(a.control()), encode(b.control()));
        assert_eq!(encode(a.treatment()), encode(b.treatment()));
    }
    let bits = |d: sammy_repro::abtest::PairedDelta| {
        [d.mean_delta_pct, d.ci_low, d.ci_high].map(f64::to_bits)
    };
    for (a, b) in sabotaged.report().rows.iter().zip(&clean.report().rows) {
        assert_eq!(bits(a.paired), bits(b.paired));
    }
    assert_eq!(state.registry.to_jsonl(), clean.state.registry.to_jsonl());

    // A table-sized run surfaces the same failure as an error instead of
    // returning a silently incomplete experiment.
    let err = Experiment::builder()
        .population(&pop)
        .treatment(treatment)
        .config(cfg.clone())
        .run_table()
        .unwrap_err();
    assert!(
        matches!(err, SimError::Experiment(ref m) if m.contains("chunk")),
        "unexpected error: {err}"
    );
}

#[test]
fn sammy_dip_behaviour_no_worse_than_production() {
    // The paper's safety claim, exercised under failure: pacing must not
    // make the session more fragile than the unpaced control.
    let control = run_with_dip(production(), 1.0);
    let paced = run_with_dip(sammy(), 1.0);
    assert_eq!(paced.state, PlayerState::Ended);
    assert!(
        paced.rebuffer_secs <= control.rebuffer_secs + 10.0,
        "sammy stalled {}s vs control {}s",
        paced.rebuffer_secs,
        control.rebuffer_secs
    );
}
