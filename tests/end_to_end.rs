//! Cross-crate integration tests: full video sessions over the packet
//! simulator, exercising netsim + transport + video + abr + sammy-core
//! together.

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

fn lab_title(secs: u64, seed: u64) -> Arc<Title> {
    Arc::new(Title::generate(
        Ladder::lab(&VmafModel::standard()),
        &TitleConfig {
            duration: SimDuration::from_secs(secs),
            chunk_duration: SimDuration::from_secs(4),
            size_cv: 0.1,
            vmaf_sd: 0.0,
            seed,
        },
    ))
}

fn warmed_history() -> sammy_repro::abr::SharedHistory {
    let h = shared_history();
    for _ in 0..20 {
        h.update(Rate::from_mbps(38.0));
        h.end_session();
    }
    h
}

struct SessionResult {
    chunk_tput_mbps: f64,
    median_rtt_ms: f64,
    retx_fraction: f64,
    play_delay_s: f64,
    rebuffers: u64,
    mean_vmaf: f64,
    state: PlayerState,
    dropped_packets: u64,
}

fn run_lab_session(abr: Box<dyn Abr>, secs: u64) -> SessionResult {
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
    let player = Player::new(
        lab_title(secs, 3),
        abr,
        PlayerConfig::default(),
        SimTime::ZERO,
    );
    VideoClientEndpoint::new(db.right[0], db.left[0], flow, player)
        .install(&mut sim, SimTime::ZERO);
    sim.run_until(SimTime::from_secs(secs + 60));

    let dropped = sim.flow_stats(flow).dropped_packets;
    let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
    let retx = server.sender(0).stats().retransmit_fraction();
    let rtt = server.sender(0).rtt_digest().median();
    let completed = server.completed(0).to_vec();
    let tput = completed
        .iter()
        .skip(2)
        .map(|t| t.throughput().mbps())
        .sum::<f64>()
        / completed.len().saturating_sub(2).max(1) as f64;

    let client: &mut VideoClientEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
    let q = client.player().qoe();
    SessionResult {
        chunk_tput_mbps: tput,
        median_rtt_ms: rtt,
        retx_fraction: retx,
        play_delay_s: q.play_delay.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
        rebuffers: q.rebuffer_count,
        mean_vmaf: q.mean_vmaf.unwrap_or(f64::NAN),
        state: client.player().state(),
        dropped_packets: dropped,
    }
}

#[test]
fn production_session_plays_to_completion() {
    let abr = Box::new(ProductionAbr::new(
        Mpc::default(),
        warmed_history(),
        HistoryPolicy::AllSamples,
    ));
    let r = run_lab_session(abr, 180);
    assert_eq!(r.state, PlayerState::Ended);
    assert_eq!(r.rebuffers, 0);
    assert!(r.play_delay_s < 3.0, "play delay {}", r.play_delay_s);
    // Unpaced: on periods run near the 40 Mbps link rate.
    assert!(r.chunk_tput_mbps > 15.0, "chunk tput {}", r.chunk_tput_mbps);
    assert!(r.mean_vmaf > 80.0, "vmaf {}", r.mean_vmaf);
}

#[test]
fn sammy_session_same_qoe_much_smoother() {
    let control = run_lab_session(
        Box::new(ProductionAbr::new(
            Mpc::default(),
            warmed_history(),
            HistoryPolicy::AllSamples,
        )),
        180,
    );
    let sammy = run_lab_session(
        Box::new(Sammy::new(
            Mpc::default(),
            warmed_history(),
            SammyConfig::default(),
        )),
        180,
    );

    // QoE parity.
    assert_eq!(sammy.state, PlayerState::Ended);
    assert_eq!(sammy.rebuffers, 0);
    assert!(
        (sammy.mean_vmaf - control.mean_vmaf).abs() < 1.0,
        "vmaf {} vs {}",
        sammy.mean_vmaf,
        control.mean_vmaf
    );
    assert!(sammy.play_delay_s < control.play_delay_s + 1.0);

    // Smoothness: throughput cut by more than half.
    assert!(
        sammy.chunk_tput_mbps < 0.5 * control.chunk_tput_mbps,
        "sammy {} vs control {}",
        sammy.chunk_tput_mbps,
        control.chunk_tput_mbps
    );
    // Congestion: lower RTT and far fewer drops. (Sammy's *initial* phase
    // is deliberately unpaced — §4.1 — so it fills the queue during startup
    // exactly like control; the win is everything after playback starts.)
    assert!(sammy.median_rtt_ms < control.median_rtt_ms);
    assert!(sammy.retx_fraction <= control.retx_fraction);
    assert!(
        sammy.dropped_packets < control.dropped_packets / 2,
        "paced flow should drop far less: {} vs {}",
        sammy.dropped_packets,
        control.dropped_packets
    );
}

#[test]
fn sammy_paces_near_three_times_top_bitrate() {
    let sammy = run_lab_session(
        Box::new(Sammy::new(
            Mpc::default(),
            warmed_history(),
            SammyConfig::default(),
        )),
        240,
    );
    // Top bitrate 3.3 Mbps, multipliers 2.8–3.2: chunk throughput must sit
    // in roughly that band (slightly below pace due to ramp + request RTT).
    assert!(
        sammy.chunk_tput_mbps > 6.0 && sammy.chunk_tput_mbps < 12.0,
        "chunk tput {}",
        sammy.chunk_tput_mbps
    );
}

#[test]
fn deterministic_replay() {
    let run = || {
        run_lab_session(
            Box::new(Sammy::new(
                Mpc::default(),
                warmed_history(),
                SammyConfig::default(),
            )),
            120,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.chunk_tput_mbps, b.chunk_tput_mbps);
    assert_eq!(a.median_rtt_ms, b.median_rtt_ms);
    assert_eq!(a.play_delay_s, b.play_delay_s);
}

#[test]
fn parallel_experiment_bit_identical_to_serial() {
    use sammy_repro::abtest::{Arm, Experiment, ExperimentConfig};

    let base = ExperimentConfig {
        users_per_arm: 12,
        pre_sessions: 2,
        sessions_per_user: 2,
        seed: 77,
        bootstrap_reps: 120,
        threads: 1,
    };
    let treatment = Arm::Sammy { c0: 3.2, c1: 2.8 };
    let run = |threads| {
        Experiment::builder()
            .treatment(treatment)
            .config(ExperimentConfig {
                threads,
                ..base.clone()
            })
            .shard_size(3)
            .run_streaming()
            .unwrap()
    };

    let serial = run(1);
    assert_eq!((serial.shards, serial.state.users), (4, 12));
    for threads in [2usize, 8] {
        let parallel = run(threads);
        // The merged state — every digest centroid, replicate sum and
        // count — and the report derived from it are bit-identical to the
        // one-worker run's.
        assert_eq!(
            parallel.fingerprint(),
            serial.fingerprint(),
            "state diverged at {threads} threads"
        );
        assert_eq!(parallel.report().render(), serial.report().render());
    }
}

#[test]
fn constrained_network_adapts_down_without_stalling() {
    // 3 Mbps bottleneck: top rung (3.3 Mbps) is unsustainable; MPC must
    // downshift and keep playing.
    let mut sim = Simulator::new();
    let db = Dumbbell::build(
        &mut sim,
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(3.0),
            ..Default::default()
        },
    );
    let flow = FlowId(1);
    sim.set_endpoint(
        db.left[0],
        Box::new(SenderEndpoint::new(
            db.left[0],
            db.right[0],
            flow,
            TcpConfig::default(),
        )),
    );
    let abr = Box::new(ProductionAbr::new(
        Mpc::default(),
        shared_history(),
        HistoryPolicy::AllSamples,
    ));
    let player = Player::new(
        lab_title(120, 9),
        abr,
        PlayerConfig::default(),
        SimTime::ZERO,
    );
    VideoClientEndpoint::new(db.right[0], db.left[0], flow, player)
        .install(&mut sim, SimTime::ZERO);
    sim.run_until(SimTime::from_secs(400));

    let client: &mut VideoClientEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
    assert_eq!(client.player().state(), PlayerState::Ended);
    let q = client.player().qoe();
    // Quality adapts below the top rung; rebuffers stay rare.
    assert!(q.mean_bitrate.unwrap().mbps() < 3.0);
    assert!(q.rebuffer_count <= 2, "rebuffers {}", q.rebuffer_count);
    assert_eq!(q.played, SimDuration::from_secs(120));
}
