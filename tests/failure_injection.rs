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

/// One step of SplitMix64 — the fold's replicate weights, restated here so
/// the reference below owes nothing to the runner's code.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix2(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix(&mut s)
}

/// User `user`'s Poisson(1) weight in bootstrap replicate `rep`.
fn replicate_weight(seed: u64, user: u64, rep: u64) -> u64 {
    let mut state = mix2(mix2(mix2(seed, 0xB007_5EED), user), rep);
    let (mut p, mut k) = (1.0f64, 0u64);
    loop {
        p *= (splitmix(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if p <= 0.367_879_441_171_442_33 || k >= 64 {
            return k;
        }
        k += 1;
    }
}

#[test]
fn worker_panic_is_isolated_and_reported() {
    use sammy_repro::abtest::{
        percentile, run_user, user_at, Arm, Experiment, ExperimentConfig, PopulationConfig,
        StreamingStat, METRICS,
    };
    use sammy_repro::netsim::SimError;

    let cfg = ExperimentConfig {
        users_per_arm: 10,
        pre_sessions: 1,
        sessions_per_user: 2,
        seed: 3,
        bootstrap_reps: 50,
        threads: 4,
    };
    let treatment = Arm::Sammy { c0: 3.2, c1: 2.8 };
    // Titles of 1–30 s: a user drawn under one 4 s chunk trips
    // `Title::generate`'s assertion inside that user's worker.
    let population = PopulationConfig {
        title_duration_s: (1, 30),
        ..PopulationConfig::light()
    };
    let users: Vec<_> = (0..cfg.users_per_arm as u64)
        .map(|i| user_at(&population, i, cfg.seed))
        .collect();
    let chunk = SimDuration::from_secs(4);
    let failing: Vec<u64> = users
        .iter()
        .filter(|u| u.title_duration < chunk)
        .map(|u| u.id)
        .collect();
    let healthy: Vec<_> = users.iter().filter(|u| u.title_duration >= chunk).collect();
    assert!(
        !failing.is_empty() && healthy.len() > 1,
        "the population must mix both: failing {failing:?}"
    );

    let builder = || {
        Experiment::builder()
            .population_config(population.clone())
            .treatment(treatment)
            .config(cfg.clone())
    };
    // One shard, so the healthy users fold as the reference below does.
    let run = builder()
        .shard_size(cfg.users_per_arm)
        .run_streaming()
        .unwrap();

    // Exactly the short-title users failed, with the panic payload captured.
    let state = &run.state;
    assert_eq!(state.failures, failing.len() as u64);
    assert_eq!(state.users, healthy.len() as u64);
    let failed: Vec<u64> = state.failure_samples.iter().map(|f| f.index).collect();
    assert_eq!(failed, failing);
    for f in &state.failure_samples {
        assert_eq!(f.user, f.index);
        assert!(
            f.message.contains("chunk"),
            "unexpected payload: {}",
            f.message
        );
    }

    // The pool neither deadlocked nor dropped a healthy user: the state
    // equals a reference folded here from the healthy users' `run_user`
    // records — session counts, each arm's digest to the bit, and the
    // paired mean and its replicate interval to the bit.
    let records = |arm| -> Vec<_> { healthy.iter().map(|u| run_user(u, arm, &cfg)).collect() };
    let (control, treated) = (records(Arm::Production), records(treatment));
    let sessions = |arm: &[Vec<_>]| arm.iter().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(state.control_sessions, sessions(&control));
    assert_eq!(state.treatment_sessions, sessions(&treated));
    let encode = |s: &StreamingStat| {
        let mut buf = Vec::new();
        s.encode(&mut buf);
        buf
    };
    let report = run.report();
    let mut intervals = 0;
    for ((acc, row), &(name, _, f)) in state.metrics().iter().zip(&report.rows).zip(&METRICS) {
        let digest = |arm: &[Vec<_>]| {
            let shard: StreamingStat = arm.iter().flatten().filter_map(f).collect();
            let mut merged = StreamingStat::new();
            merged.merge(&shard);
            encode(&merged)
        };
        assert_eq!(encode(acc.control()), digest(&control), "{name}");
        assert_eq!(encode(acc.treatment()), digest(&treated), "{name}");

        let (mut sum, mut n) = (0.0, 0u64);
        let mut boot = vec![(0.0f64, 0u64); cfg.bootstrap_reps];
        for ((user, c), t) in healthy.iter().zip(&control).zip(&treated) {
            let (mut user_sum, mut user_n) = (0.0, 0u64);
            for (cv, tv) in c.iter().filter_map(f).zip(t.iter().filter_map(f)) {
                if cv.is_finite() && tv.is_finite() && cv != 0.0 {
                    user_sum += (tv - cv) / cv.abs() * 100.0;
                    user_n += 1;
                }
            }
            if user_n == 0 {
                continue;
            }
            sum += user_sum;
            n += user_n;
            for (rep, slot) in boot.iter_mut().enumerate() {
                let w = replicate_weight(cfg.seed, user.id, rep as u64);
                if w > 0 {
                    slot.0 += w as f64 * user_sum;
                    slot.1 += w * user_n;
                }
            }
        }
        let boots: Vec<f64> = boot
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(s, n)| s / n as f64)
            .collect();
        // No pair at all (a rebuffer row whose control never rebuffers)
        // reads NaN throughout.
        let (mean, lo, hi) = if n == 0 {
            (f64::NAN, f64::NAN, f64::NAN)
        } else {
            let ci = |q| percentile(&boots, q);
            (sum / n as f64, ci(0.025), ci(0.975))
        };
        let bits = |v: f64| v.to_bits();
        assert_eq!(bits(row.paired.mean_delta_pct), bits(mean), "{name}");
        assert_eq!(bits(row.paired.ci_low), bits(lo), "{name}");
        assert_eq!(bits(row.paired.ci_high), bits(hi), "{name}");
        intervals += usize::from(lo < hi);
    }
    assert!(
        intervals >= 3,
        "only {intervals} rows had an interval to compare"
    );
    // A failed user's partial telemetry is dropped with it.
    if sammy_repro::obs::ENABLED {
        let healthy_users = healthy.len() as u64;
        assert_eq!(state.registry.counter_value("abtest.users"), healthy_users);
        assert_eq!(
            state.registry.counter_value("abtest.sessions"),
            sessions(&control) + sessions(&treated)
        );
    }

    // A table-sized run surfaces the first failure as an error naming it,
    // instead of returning a silently incomplete experiment.
    let err = builder().run_table().unwrap_err();
    let first = format!("user {} panicked", failing[0]);
    assert!(
        matches!(err, SimError::Experiment(ref m) if m.contains(&first) && m.contains("chunk")),
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
