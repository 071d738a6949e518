//! Quickstart: stream one video session over the packet-level lab network,
//! once with the production-style ABR and once with Sammy, and compare
//! smoothness and QoE.
//!
//! ```text
//! cargo run --example quickstart --release
//! cargo run --example quickstart --release --features obs -- --metrics -
//! ```

use sammy_repro::abr::{shared_history, HistoryPolicy, Mpc, ProductionAbr};
use sammy_repro::netsim::{Dumbbell, DumbbellConfig, FlowId, Simulator};
use sammy_repro::prelude::*;
use sammy_repro::sammy_core::{Sammy, SammyConfig};
use sammy_repro::transport::{SenderEndpoint, TcpConfig};
use sammy_repro::video::{Abr, Player, PlayerConfig, VideoClientEndpoint};
use std::sync::Arc;

fn main() {
    println!("Sammy quickstart: one video session on a 40 Mbps / 5 ms lab link\n");
    for use_sammy in [false, true] {
        let label = if use_sammy { "sammy" } else { "production" };
        let (tput, rtt, retx, qoe) = run_session(use_sammy);
        println!("--- {label} ---");
        println!("  chunk throughput : {tput:.1} Mbps");
        println!("  median RTT       : {rtt:.2} ms");
        println!("  retransmits      : {:.3} %", retx * 100.0);
        println!("  play delay       : {:.2} s", qoe.0);
        println!("  mean VMAF        : {:.1}", qoe.1);
        println!("  rebuffers        : {}\n", qoe.2);
    }
    println!("Sammy sends the same video at a fraction of the throughput —");
    println!("same quality, same start time, empty bottleneck queue.");

    // `--metrics <path>` writes the sessions' telemetry (JSON lines; '-'
    // renders the pretty table).
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--metrics" {
            let path = it.next().expect("--metrics needs a path");
            let reg = sammy_repro::obs::take();
            if reg.is_empty() {
                eprintln!("note: no metrics recorded; rebuild with `--features obs`");
            }
            if path == "-" {
                print!("{}", reg.render_table());
            } else {
                reg.write_jsonl(std::path::Path::new(&path))
                    .expect("write metrics");
                eprintln!("wrote metrics to {path}");
            }
        }
    }
}

/// Run one 2-minute session; returns (chunk tput Mbps, median RTT ms,
/// retransmit fraction, (play delay s, mean vmaf, rebuffers)).
fn run_session(use_sammy: bool) -> (f64, f64, f64, (f64, f64, u64)) {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
    let flow = FlowId(1);

    // CDN server: a TCP sender honoring the pace-rate request header.
    let server = SenderEndpoint::new(
        db.left[0],
        db.right[0],
        flow,
        TcpConfig {
            max_burst_packets: 4,
            ..Default::default()
        },
    );
    sim.set_endpoint(db.left[0], Box::new(server));

    // A 10-minute title on the lab ladder (3.3 Mbps top rung).
    let title = Arc::new(Title::generate(
        Ladder::lab(&VmafModel::standard()),
        &TitleConfig {
            duration: SimDuration::from_secs(600),
            chunk_duration: SimDuration::from_secs(4),
            size_cv: 0.12,
            vmaf_sd: 0.0,
            seed: 7,
        },
    ));

    // Device history: this network has been seen before.
    let history = shared_history();
    for _ in 0..30 {
        history.update(Rate::from_mbps(38.0));
        history.end_session();
    }
    let abr: Box<dyn Abr> = if use_sammy {
        Box::new(Sammy::new(Mpc::default(), history, SammyConfig::default()))
    } else {
        Box::new(ProductionAbr::new(
            Mpc::default(),
            history,
            HistoryPolicy::AllSamples,
        ))
    };

    let player = Player::new(title, abr, PlayerConfig::default(), SimTime::ZERO);
    VideoClientEndpoint::new(db.right[0], db.left[0], flow, player)
        .install(&mut sim, SimTime::ZERO);

    sim.run_until(SimTime::from_secs(120));

    let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).expect("server");
    let retx = server.sender(0).stats().retransmit_fraction();
    let rtt = server.sender(0).rtt_digest().median();
    let completed = server.completed(0).to_vec();
    let tput = completed
        .iter()
        .skip(3) // skip startup
        .map(|t| t.throughput().mbps())
        .sum::<f64>()
        / completed.len().saturating_sub(3).max(1) as f64;

    let client: &mut VideoClientEndpoint = sim.endpoint_mut(db.right[0]).expect("client");
    let q = client.player().qoe();
    (
        tput,
        rtt,
        retx,
        (
            q.play_delay.map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
            q.mean_vmaf.unwrap_or(f64::NAN),
            q.rebuffer_count,
        ),
    )
}
