//! The §6 lab experiments on the packet simulator.
//!
//! All experiments share the paper's lab setup: a 40 Mbps bottleneck, 5 ms
//! RTT, drop-tail queue of 4x the bandwidth-delay product, and a video
//! session with a 3.3 Mbps maximum bitrate. Each experiment runs once with
//! the production (control) algorithm and once with Sammy and reports how
//! the neighbor's QoE changes (Figs 7 and 8; Fig 7's traces are also the
//! paper's Fig 1), or sweeps pacing burst sizes under cross traffic (Fig 4,
//! whose bursts are also Table 1's mechanisms). §2.2's LEDBAT scavenger is
//! the same single-flow and Fig 8b runs on the LEDBAT substrate.
//!
//! One recipe serves every lab video session, here and in [`crate::shared`]:
//! `install_video` adds it as a flow of its server node's
//! [`SenderEndpoint`], and `run_sampled` reads a run on the 100 ms grid.

use abr::{shared_history, HistoryPolicy, Mpc, ProductionAbr, SharedHistory};
use netsim::{
    Dumbbell, DumbbellConfig, FlowId, LinkId, NodeId, Rate, SimDuration, SimTime, Simulator,
};
use sammy_core::{Sammy, SammyConfig};
use std::sync::Arc;
use traffic::{BulkSender, HttpClient};
use transport::{
    CcAlgorithm, Protocol, ReceiverEndpoint, SenderEndpoint, TcpConfig, UdpCbrSource, UdpSink,
};
use video::{
    Abr, Ladder, Player, PlayerConfig, Title, TitleConfig, VideoClientEndpoint, VmafModel,
};

/// Which algorithm the video session under test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabArm {
    /// Netflix-production stand-in: MPC, no pacing.
    Control,
    /// Sammy with production parameters (3.2 / 2.8).
    Sammy,
}

impl LabArm {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            LabArm::Control => "control",
            LabArm::Sammy => "sammy",
        }
    }
}

/// The video's startup transient on the lab path: both arms run unpaced
/// until about here, as the paper's Fig 7 shows, so the steady-state
/// readings start at it — the single flow's peak queue and Fig 8a's
/// delay window.
pub const STARTUP: SimDuration = SimDuration::from_secs(15);

/// Title length: longer than any run keeps the session active throughout.
const TITLE_SECS: u64 = 20 * 60;

/// The shared lab scenario configuration.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Dumbbell parameters (defaults to the paper's 40 Mbps / 5 ms / 4x).
    pub dumbbell: DumbbellConfig,
    /// Length of the simulated run.
    pub run_for: SimDuration,
    /// Burst size for the video sender's pacer.
    pub burst_packets: u32,
    /// Client buffer capacity. The single-flow trace uses the production
    /// 240 s (on-off shows once it fills, as in Fig 7); the neighbor
    /// experiments use a deep buffer so the video stays in its
    /// buffer-building phase for the whole measurement window, matching
    /// the regime of the paper's Fig 8 plots.
    pub max_buffer: SimDuration,
    /// Seed for title size wobble.
    pub seed: u64,
    /// Congestion-control substrate for the video sender (the CC x pacing
    /// matrix swaps Reno for CUBIC or BBR, the scavenger contrast for
    /// LEDBAT).
    pub cc: CcAlgorithm,
    /// Wire protocol for the video sender (the CC x pacing matrix runs the
    /// QUIC-style transport beside TCP).
    pub transport: Protocol,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            dumbbell: DumbbellConfig {
                pairs: 2,
                ..Default::default()
            },
            run_for: SimDuration::from_secs(120),
            burst_packets: 4,
            max_buffer: SimDuration::from_secs(240),
            seed: 1,
            cc: CcAlgorithm::Reno,
            transport: Protocol::Tcp,
        }
    }
}

impl LabConfig {
    /// The configuration for the Fig 8 neighbor experiments: a deep client
    /// buffer keeps the video session actively downloading throughout.
    pub fn neighbors() -> Self {
        LabConfig {
            run_for: SimDuration::from_secs(60),
            max_buffer: SimDuration::from_secs(3600),
            ..Default::default()
        }
    }

    /// Build the lab scenario from the shared wire-format spec — the same
    /// `ExperimentSpec` the HTTP API and `sammy-sim` consume. Network
    /// shape, run length, transport substrate, and seed come from the
    /// spec; lab-only knobs (client buffer, host pairs) keep their
    /// defaults.
    pub fn from_spec(s: &spec::ExperimentSpec) -> Self {
        let d = LabConfig::default();
        LabConfig {
            dumbbell: s.network.dumbbell(d.dumbbell.pairs),
            run_for: s.network.run_for(),
            burst_packets: s.transport.burst_packets,
            seed: s.seed,
            cc: s.transport.cc,
            transport: s.transport.protocol,
            ..d
        }
    }

    /// The video sender's transport: this configuration's substrate and
    /// pacer burst.
    pub(crate) fn video_tcp(&self) -> TcpConfig {
        TcpConfig {
            max_burst_packets: self.burst_packets,
            cc: self.cc,
            transport: self.transport,
            ..Default::default()
        }
    }
}

/// Build the arm's ABR with a warmed history (lab devices have seen this
/// network before; estimate near link rate with full confidence).
pub(crate) fn lab_abr(arm: LabArm) -> Box<dyn Abr> {
    let history: SharedHistory = shared_history();
    for _ in 0..30 {
        history.update(Rate::from_mbps(38.0));
        history.end_session();
    }
    match arm {
        LabArm::Control => Box::new(ProductionAbr::new(
            Mpc::default(),
            history,
            HistoryPolicy::AllSamples,
        )),
        LabArm::Sammy => Box::new(Sammy::new(Mpc::default(), history, SammyConfig::default())),
    }
}

/// Install a lab video session on `(server, client, flow)`: the sender
/// joins the server node's [`SenderEndpoint`] (created for its first flow)
/// with transport `tcp`, so one session to a dumbbell host and N to the
/// shared origin are served alike; the client plays
/// the lab title of `seed` (3.3 Mbps top rung, §6) through `abr` from
/// `start`, starting and resuming at 8 s of buffer, up to `max_buffer`.
pub(crate) fn install_video(
    sim: &mut Simulator,
    (server, client, flow): (NodeId, NodeId, FlowId),
    abr: Box<dyn Abr>,
    tcp: TcpConfig,
    max_buffer: SimDuration,
    start: SimTime,
    seed: u64,
) {
    let protocol = tcp.transport;
    match sim.endpoint_mut::<SenderEndpoint>(server) {
        Some(host) => {
            host.add_flow(server, client, flow, tcp);
        }
        None => sim.set_endpoint(
            server,
            Box::new(SenderEndpoint::new(server, client, flow, tcp)),
        ),
    }
    let title = Arc::new(Title::generate(
        Ladder::lab(&VmafModel::standard()),
        &TitleConfig {
            duration: SimDuration::from_secs(TITLE_SECS),
            chunk_duration: SimDuration::from_secs(4),
            size_cv: 0.12,
            vmaf_sd: 0.0,
            seed,
        },
    ));
    let player_cfg = PlayerConfig {
        start_threshold: SimDuration::from_secs(8),
        resume_threshold: SimDuration::from_secs(8),
        max_buffer,
    };
    let player = Player::new(title, abr, player_cfg, start);
    VideoClientEndpoint::with_protocol(client, server, flow, player, protocol).install(sim, start);
}

/// Run `sim` to `run_for`, reading `read` on the 100 ms grid
/// `[0, run_for)`, and reset `bottleneck`'s high-water mark at `startup`
/// if the run outlasts it: the peak a caller reads afterwards is the
/// steady state's, or the whole run's for a run that never leaves the
/// startup transient. Returns the `(s, value)` samples and the drops
/// `bottleneck` counted before the reset (none without one). A grid step
/// moves no event.
pub(crate) fn run_sampled(
    sim: &mut Simulator,
    bottleneck: LinkId,
    startup: SimDuration,
    run_for: SimDuration,
    mut read: impl FnMut(&mut Simulator) -> f64,
) -> (Vec<(f64, f64)>, u64) {
    let mut samples = Vec::new();
    let mut at = SimTime::ZERO;
    let mut run_to = |sim: &mut Simulator, deadline: SimDuration| {
        let deadline = SimTime::ZERO + deadline;
        while at < deadline {
            sim.run_until(at);
            samples.push((at.as_secs_f64(), read(sim)));
            at += SimDuration::from_millis(100);
        }
        sim.run_until(deadline);
    };
    let mut startup_drops = 0;
    if startup < run_for {
        run_to(sim, startup);
        let queue = &mut sim.link_mut(bottleneck).queue;
        queue.reset_max_occupancy();
        startup_drops = queue.stats().drops;
    }
    run_to(sim, run_for);
    (samples, startup_drops)
}

/// The lab dumbbell with the session under test — `arm` on host pair 0,
/// flow 1, from t = 0 — installed: where every single-flow and Fig 8 run
/// starts.
fn lab_with_video(arm: LabArm, cfg: &LabConfig) -> (Simulator, Dumbbell) {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(&mut sim, cfg.dumbbell);
    install_video(
        &mut sim,
        (db.left[0], db.right[0], FlowId(1)),
        lab_abr(arm),
        cfg.video_tcp(),
        cfg.max_buffer,
        SimTime::ZERO,
        cfg.seed,
    );
    (sim, db)
}

/// The sender of the lab video session on host pair 0 (slot 0 of
/// `server`'s [`SenderEndpoint`]).
fn video_sender(sim: &mut Simulator, server: NodeId) -> &transport::TransportSender {
    let host: &mut SenderEndpoint = sim.endpoint_mut(server).expect("video server");
    host.sender(0)
}

/// Results of the single-flow experiment (Fig 7, and the Fig 1 trace).
#[derive(Debug, Clone)]
pub struct SingleFlowResult {
    /// Client goodput per 100 ms bin: `(bin start s, Mbps)`.
    pub throughput_series: Vec<(f64, f64)>,
    /// The sender's smoothed RTT on the same 100 ms grid: `(s, ms)`, NaN
    /// before the first ACK.
    pub rtt_series: Vec<(f64, f64)>,
    /// Mean chunk throughput after playback starts (Mbps).
    pub chunk_throughput_mbps: f64,
    /// Median per-packet RTT (ms).
    pub median_rtt_ms: f64,
    /// Retransmitted-byte fraction.
    pub retx_fraction: f64,
    /// Session play delay (s).
    pub play_delay_s: f64,
    /// Rebuffer count.
    pub rebuffers: u64,
    /// Peak bottleneck queue occupancy after [`STARTUP`], or over the
    /// whole run if it ends sooner (bytes).
    pub max_queue_bytes: u64,
}

/// Run a single video session alone on the dumbbell (Fig 7).
pub fn single_flow(arm: LabArm, cfg: &LabConfig) -> SingleFlowResult {
    let (mut sim, db) = lab_with_video(arm, cfg);
    let server = db.left[0];
    let (rtt_series, _) = run_sampled(&mut sim, db.forward, STARTUP, cfg.run_for, |sim| {
        let srtt = video_sender(sim, server).core().srtt();
        srtt.map_or(f64::NAN, |d| d.as_millis_f64())
    });

    let max_queue_bytes = sim.link(db.forward).queue.stats().max_occupied_bytes;
    // Sender-side stats.
    let host: &mut SenderEndpoint = sim.endpoint_mut(server).expect("video server");
    let stats = host.sender(0).stats().clone();
    let rtt_digest = host.sender(0).rtt_digest().clone();
    let completed = host.completed(0).to_vec();

    let client: &mut VideoClientEndpoint = sim.endpoint_mut(db.right[0]).expect("client endpoint");
    let qoe = client.player().qoe();
    // Goodput trace from the client receiver's 100 ms bins — the Fig 1 /
    // Fig 7 "chunk throughput over time" series.
    let tput_series: Vec<(f64, f64)> = client
        .throughput_series()
        .into_iter()
        .map(|(t, bps)| (t, bps / 1e6))
        .collect();

    // Chunk throughput: average over completed transfers that started after
    // playback (skip the startup phase, as the paper's metric does not).
    let play_delay = qoe.play_delay.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN);
    let post_start: Vec<f64> = completed
        .iter()
        .filter(|t| t.started_at.as_secs_f64() > play_delay)
        .map(|t| t.throughput().mbps())
        .collect();
    let chunk_tput = if post_start.is_empty() {
        f64::NAN
    } else {
        post_start.iter().sum::<f64>() / post_start.len() as f64
    };

    SingleFlowResult {
        throughput_series: tput_series,
        rtt_series,
        chunk_throughput_mbps: chunk_tput,
        median_rtt_ms: rtt_digest.median(),
        retx_fraction: stats.retransmit_fraction(),
        play_delay_s: play_delay,
        rebuffers: qoe.rebuffer_count,
        max_queue_bytes,
    }
}

/// Fig 8a: one-way delay of a neighboring 5 Mbps paced UDP flow.
pub fn neighbor_udp(arm: LabArm, cfg: &LabConfig) -> f64 {
    let (mut sim, db) = lab_with_video(arm, cfg);

    let udp_flow = FlowId(50);
    UdpCbrSource::new(
        db.left[1],
        db.right[1],
        udp_flow,
        Rate::from_mbps(5.0),
        1200,
        SimTime::from_secs(10),
        SimTime::ZERO + cfg.run_for,
    )
    .install(&mut sim);
    sim.set_endpoint(db.right[1], Box::new(UdpSink::new(udp_flow)));

    sim.run_until(SimTime::ZERO + cfg.run_for);
    let sink: &mut UdpSink = sim.endpoint_mut(db.right[1]).expect("udp sink");
    // Mean one-way delay after the video's startup transient.
    sink.owd_ms
        .mean_between(SimTime::ZERO + STARTUP, SimTime::ZERO + cfg.run_for)
}

/// Fig 8b: throughput of a neighboring bulk TCP flow starting 10 s after
/// video playback. Returns mean Mbps over its active period.
pub fn neighbor_tcp(arm: LabArm, cfg: &LabConfig) -> f64 {
    let (mut sim, db) = lab_with_video(arm, cfg);

    let flow = FlowId(60);
    BulkSender::new(
        db.left[1],
        db.right[1],
        flow,
        TcpConfig::default(),
        2_000_000_000, // effectively unbounded for the run length
        SimTime::from_secs(10),
    )
    .install(&mut sim);
    sim.set_endpoint(
        db.right[1],
        Box::new(ReceiverEndpoint::new(db.right[1], db.left[1], flow)),
    );

    sim.run_until(SimTime::ZERO + cfg.run_for);
    let rx: &mut ReceiverEndpoint = sim.endpoint_mut(db.right[1]).expect("bulk receiver");
    // 100 ms bins from 12 s on: skip the bulk flow's own slow start.
    let end_bin = (10.0 * cfg.run_for.as_secs_f64()) as usize;
    rx.throughput.mean_bps(120, end_bin) / 1e6
}

/// Fig 8c: mean response time (ms) of repeated 3 MB HTTP requests.
pub fn neighbor_http(arm: LabArm, cfg: &LabConfig) -> f64 {
    let (mut sim, db) = lab_with_video(arm, cfg);

    let flow = FlowId(70);
    let server = SenderEndpoint::new(db.left[1], db.right[1], flow, TcpConfig::default());
    sim.set_endpoint(db.left[1], Box::new(server));
    HttpClient::new(
        db.right[1],
        db.left[1],
        flow,
        3_000_000,
        SimTime::from_secs(10),
        SimTime::ZERO + cfg.run_for,
    )
    .install(&mut sim);

    sim.run_until(SimTime::ZERO + cfg.run_for + SimDuration::from_secs(5));
    let client: &mut HttpClient = sim.endpoint_mut(db.right[1]).expect("http client");
    client.mean_response_ms()
}

/// Fig 8d: play delay (ms) of a neighboring video session (production ABR)
/// starting a few seconds into the Sammy/control session. Averaged over
/// `trials` seeds, as the paper averages four trials.
pub fn neighbor_video(arm: LabArm, cfg: &LabConfig, trials: u64) -> f64 {
    let mut delays = Vec::new();
    for trial in 0..trials {
        let (mut sim, db) = lab_with_video(arm, cfg);
        // Neighbor session: control ABR, starts at t = 5 s.
        install_video(
            &mut sim,
            (db.left[1], db.right[1], FlowId(2)),
            lab_abr(LabArm::Control),
            cfg.video_tcp(),
            cfg.max_buffer,
            SimTime::from_secs(5),
            cfg.seed + 1000 + trial,
        );
        sim.run_until(SimTime::from_secs(40));
        let client: &mut VideoClientEndpoint =
            sim.endpoint_mut(db.right[1]).expect("neighbor client");
        if let Some(d) = client.player().qoe().play_delay {
            delays.push(d.as_millis_f64());
        }
    }
    if delays.is_empty() {
        f64::NAN
    } else {
        delays.iter().sum::<f64>() / delays.len() as f64
    }
}

/// Fig 4: retransmit fraction of a video flow under congested cross
/// traffic, paced at 2x the max bitrate with a pacer burst of `burst`
/// packets, or unpaced (`None`, the production 40-packet burst cap) — the
/// control the paper's "% change vs not pacing" is read against.
pub fn burst_sweep(burst: Option<u32>, cfg: &LabConfig) -> f64 {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(
        &mut sim,
        DumbbellConfig {
            pairs: 3,
            ..cfg.dumbbell
        },
    );
    // Congested bottleneck: two bulk TCP flows keep the queue full.
    for (i, pair) in [1usize, 2].iter().enumerate() {
        let flow = FlowId(80 + i as u64);
        BulkSender::new(
            db.left[*pair],
            db.right[*pair],
            flow,
            TcpConfig::default(),
            2_000_000_000,
            SimTime::ZERO,
        )
        .install(&mut sim);
        sim.set_endpoint(
            db.right[*pair],
            Box::new(ReceiverEndpoint::new(db.right[*pair], db.left[*pair], flow)),
        );
    }

    // Video flow paced at 2x the max bitrate (§5.6), with the given burst.
    let tcp = TcpConfig {
        max_burst_packets: burst.unwrap_or(40),
        ..Default::default()
    };
    let abr = FixedPaceAbr {
        paced: burst.is_some(),
    };
    let server = db.left[0];
    install_video(
        &mut sim,
        (server, db.right[0], FlowId(1)),
        Box::new(abr),
        tcp,
        SimDuration::from_secs(240),
        SimTime::ZERO,
        cfg.seed,
    );

    sim.run_until(SimTime::ZERO + cfg.run_for);
    video_sender(&mut sim, server).stats().retransmit_fraction()
}

// ---------------------------------------------------------------------------
// Chaos driver: seeded random fluid-vs-packet differential profiles.
//
// The differential oracle (tests/fluid_vs_packet.rs) runs every profile
// through both simulators and asserts the calibrated agreement envelopes;
// under `--features validate` the same sweep doubles as an invariant
// stress: every packet run executes with all runtime checks armed.
// ---------------------------------------------------------------------------

use fluidsim::{download_chunk, NetworkProfile};
use netsim::{Packet, Payload};
use rand::prelude::*;

/// Cross traffic sharing a chaos profile's bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossTraffic {
    /// The transfer is alone on the link.
    None,
    /// A constant-bit-rate UDP flow at the given rate.
    Udp {
        /// CBR rate in Mbps.
        mbps: f64,
    },
}

/// One randomized differential-oracle profile (drawn by [`chaos_profile`]).
#[derive(Debug, Clone, Copy)]
pub struct ChaosProfile {
    /// The seed this profile was drawn from.
    pub seed: u64,
    /// Bottleneck capacity (Mbps).
    pub capacity_mbps: f64,
    /// Path round-trip time (ms).
    pub rtt_ms: u64,
    /// Transfer size (bytes).
    pub chunk_bytes: u64,
    /// Application pace (Mbps); `None` = unpaced.
    pub pace_mbps: Option<f64>,
    /// Cross traffic on the bottleneck.
    pub cross: CrossTraffic,
}

impl ChaosProfile {
    /// Capacity left for the transfer after cross traffic.
    fn available_mbps(&self) -> f64 {
        match self.cross {
            CrossTraffic::None => self.capacity_mbps,
            CrossTraffic::Udp { mbps } => self.capacity_mbps - mbps,
        }
    }
}

/// Draw profile number `seed` of the chaos sweep: capacity 5–100 Mbps,
/// RTT 2–50 ms, 0.3–4 MB transfers, ~35% of profiles with CBR cross
/// traffic, ~60% paced. Paced profiles pace clearly below the available
/// capacity — the regime Sammy operates in (§5.6) and the one the fluid
/// model is calibrated tightly for; unpaced profiles self-congest.
pub fn chaos_profile(seed: u64) -> ChaosProfile {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc4a0_5ca7);
    let capacity_mbps = rng.gen_range(5.0..100.0);
    let rtt_ms = rng.gen_range(2..50u64);
    let chunk_bytes = rng.gen_range(300_000..4_000_000u64);
    let cross = if rng.gen::<f64>() < 0.35 {
        CrossTraffic::Udp {
            mbps: rng.gen_range(0.05..0.35) * capacity_mbps,
        }
    } else {
        CrossTraffic::None
    };
    let avail = match cross {
        CrossTraffic::None => capacity_mbps,
        CrossTraffic::Udp { mbps } => capacity_mbps - mbps,
    };
    let pace_mbps = if rng.gen::<f64>() < 0.6 {
        Some(rng.gen_range(0.15..0.6) * avail)
    } else {
        None
    };
    ChaosProfile {
        seed,
        capacity_mbps,
        rtt_ms,
        chunk_bytes,
        pace_mbps,
        cross,
    }
}

/// Run a chaos profile's transfer on the packet simulator. Returns the
/// download time in seconds (request injection to last byte delivered).
pub fn chaos_packet_download(p: &ChaosProfile) -> f64 {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(
        &mut sim,
        DumbbellConfig {
            pairs: 2,
            bottleneck_rate: Rate::from_mbps(p.capacity_mbps),
            rtt: SimDuration::from_millis(p.rtt_ms),
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
    sim.set_endpoint(
        db.right[0],
        Box::new(ReceiverEndpoint::new(db.right[0], db.left[0], flow)),
    );
    let limit = SimTime::from_secs(300);
    if let CrossTraffic::Udp { mbps } = p.cross {
        let udp_flow = FlowId(50);
        UdpCbrSource::new(
            db.left[1],
            db.right[1],
            udp_flow,
            Rate::from_mbps(mbps),
            1200,
            SimTime::ZERO,
            limit,
        )
        .install(&mut sim);
        sim.set_endpoint(db.right[1], Box::new(UdpSink::new(udp_flow)));
    }
    let req = Packet::new(
        db.right[0],
        db.left[0],
        flow,
        Payload::Request {
            id: 0,
            size: p.chunk_bytes,
            pace_bps: p.pace_mbps.map(|m| m * 1e6),
        },
    );
    sim.inject(db.right[0], req);
    // Step in 1 s slices so cross-traffic events stop as soon as the
    // transfer finishes, instead of simulating the CBR source to `limit`.
    let mut horizon = SimTime::from_secs(1);
    loop {
        sim.run_until(horizon);
        let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).expect("server endpoint");
        if let Some(t) = server.completed(0).first() {
            return t.completed_at.saturating_since(SimTime::ZERO).as_secs_f64();
        }
        assert!(horizon < limit, "chaos transfer did not complete: {p:?}");
        horizon += SimDuration::from_secs(1);
    }
}

/// The fluid model's closed-form prediction for the same transfer. Cross
/// traffic maps to reduced available capacity — the contract the oracle
/// checks is that this reduction is the *only* correction the chunk model
/// needs in the CBR case.
pub fn chaos_fluid_download(p: &ChaosProfile) -> f64 {
    let profile = NetworkProfile {
        capacity: Rate::from_mbps(p.available_mbps()),
        base_rtt: SimDuration::from_millis(p.rtt_ms),
        bufferbloat: SimDuration::from_millis(10),
        ambient_loss: 0.0,
        self_loss: 0.0,
        jitter_cv: 0.0,
        fade_prob: 0.0,
        fade_depth: 0.1,
    };
    download_chunk(
        &profile,
        p.chunk_bytes,
        p.pace_mbps.map(Rate::from_mbps),
        true,
        1.0,
    )
    .download_time
    .as_secs_f64()
}

/// A top-rung ABR paced at a fixed 2x the top bitrate, or unpaced (the
/// §5.6 experiment holds the bitrate and pace constant and varies only the
/// burst size).
struct FixedPaceAbr {
    paced: bool,
}

impl Abr for FixedPaceAbr {
    fn select(&mut self, ctx: &video::AbrContext<'_>) -> video::AbrDecision {
        video::AbrDecision {
            rung: ctx.ladder.top(),
            pace: self.paced.then(|| ctx.ladder.top_bitrate() * 2.0),
        }
    }

    fn name(&self) -> &'static str {
        "fixed-pace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> LabConfig {
        LabConfig {
            run_for: SimDuration::from_secs(60),
            ..Default::default()
        }
    }

    #[test]
    fn fig7_sammy_smooths_and_drains_queue() {
        let cfg = quick_cfg();
        let control = single_flow(LabArm::Control, &cfg);
        let sammy = single_flow(LabArm::Sammy, &cfg);

        // Control saturates the link during on periods; Sammy paces near
        // 3x 3.3 = ~10 Mbps.
        assert!(
            control.chunk_throughput_mbps > 2.0 * sammy.chunk_throughput_mbps,
            "control {} vs sammy {}",
            control.chunk_throughput_mbps,
            sammy.chunk_throughput_mbps
        );
        assert!(sammy.chunk_throughput_mbps > 6.0 && sammy.chunk_throughput_mbps < 13.0);
        // Sammy's RTT returns to the propagation floor; control keeps a
        // standing queue during on periods.
        assert!(sammy.median_rtt_ms < control.median_rtt_ms);
        assert!(
            sammy.median_rtt_ms < 7.0,
            "sammy rtt {}",
            sammy.median_rtt_ms
        );
        // Same QoE: both start quickly and never rebuffer.
        assert_eq!(control.rebuffers, 0);
        assert_eq!(sammy.rebuffers, 0);
        assert!(control.play_delay_s < 5.0 && sammy.play_delay_s < 5.0);
        // Queue: Sammy never fills the 100 kB bottleneck queue.
        assert!(sammy.max_queue_bytes < control.max_queue_bytes);
        // The srtt trace is on the goodput series' 100 ms grid; after
        // startup Sammy's sits near the propagation floor.
        assert_eq!(sammy.rtt_series.len(), 600);
        assert_eq!(sammy.rtt_series[150].0, 15.0);
        assert!(sammy.rtt_series[150..].iter().all(|&(_, ms)| ms < 6.0));
    }

    #[test]
    fn lab_config_tracks_the_spec() {
        let mut s = spec::ExperimentSpec {
            seed: 9,
            ..Default::default()
        };
        s.network.rate_mbps = 25.0;
        s.network.rtt_ms = 12.0;
        s.network.run_secs = 45;
        s.transport.protocol = Protocol::Quic;
        s.transport.cc = CcAlgorithm::Cubic;
        s.transport.burst_packets = 7;
        let cfg = LabConfig::from_spec(&s);
        assert_eq!(cfg.dumbbell.bottleneck_rate, Rate::from_mbps(25.0));
        assert_eq!(cfg.dumbbell.rtt, SimDuration::from_millis(12));
        assert_eq!(cfg.run_for, SimDuration::from_secs(45));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.transport, Protocol::Quic);
        assert_eq!(cfg.cc, CcAlgorithm::Cubic);
        assert_eq!(cfg.burst_packets, 7);
        // Lab-only knobs keep their defaults.
        let d = LabConfig::default();
        assert_eq!(cfg.dumbbell.pairs, d.dumbbell.pairs);
        assert_eq!(cfg.max_buffer, d.max_buffer);
    }

    #[test]
    fn fig8a_udp_delay_improves() {
        let cfg = LabConfig::neighbors();
        let control = neighbor_udp(LabArm::Control, &cfg);
        let sammy = neighbor_udp(LabArm::Sammy, &cfg);
        assert!(
            sammy < control * 0.8,
            "udp OWD should improve markedly: control {control} vs sammy {sammy}"
        );
    }

    #[test]
    fn fig8b_tcp_throughput_improves() {
        let cfg = LabConfig::neighbors();
        let control = neighbor_tcp(LabArm::Control, &cfg);
        let sammy = neighbor_tcp(LabArm::Sammy, &cfg);
        // Control: fair share ~20 Mbps. Sammy: link minus the ~10 Mbps pace.
        assert!(control > 12.0 && control < 28.0, "control {control}");
        assert!(sammy > control * 1.1, "sammy {sammy} vs control {control}");
    }

    /// §2.2: the LEDBAT scavenger runs near link rate when alone, Sammy
    /// near 3x the top bitrate; both leave a bulk TCP neighbor at least
    /// its fair share, and neither rebuffers.
    #[test]
    fn scavenger_fills_link_alone_sammy_does_not() {
        let solo = LabConfig {
            run_for: SimDuration::from_secs(45),
            ..Default::default()
        };
        let ledbat = |cfg: &LabConfig| LabConfig {
            cc: CcAlgorithm::Ledbat,
            ..cfg.clone()
        };
        let scav = single_flow(LabArm::Control, &ledbat(&solo));
        let sammy = single_flow(LabArm::Sammy, &solo);
        let scav_neighbor = neighbor_tcp(LabArm::Control, &ledbat(&LabConfig::neighbors()));
        let sammy_neighbor = neighbor_tcp(LabArm::Sammy, &LabConfig::neighbors());
        // Alone: the scavenger runs near link rate; Sammy near 3x bitrate.
        assert!(
            scav.chunk_throughput_mbps > 2.0 * sammy.chunk_throughput_mbps,
            "scavenger alone {} vs sammy alone {}",
            scav.chunk_throughput_mbps,
            sammy.chunk_throughput_mbps
        );
        // Both are friendly to the TCP neighbor (>= fair share).
        assert!(scav_neighbor > 18.0, "scav neighbor {scav_neighbor}");
        assert!(sammy_neighbor > 18.0, "sammy neighbor {sammy_neighbor}");
        // Neither strategy rebuffers.
        assert_eq!(scav.rebuffers, 0);
        assert_eq!(sammy.rebuffers, 0);
    }
}
