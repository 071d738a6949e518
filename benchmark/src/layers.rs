//! Outside-in layer drivers: the per-layer metrics of the traced run.
//!
//! Every number here is taken by this file calling a crate's public
//! functions and timing the call; no crate is instrumented. Layers are the
//! crates. Timings are medians over the stated number of calls (a packet
//! cell: its fastest over the rounds); values whose unit is `count` are
//! exact. The drivers run the same fixed work whichever workload the traced
//! run was asked for, so a layer metric can be compared across runs of
//! different workloads.

use crate::stats::{median, minimum, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    cc_matrix_by_cell, derive_seed, population_spec, submit_and_wait, CcMatrix, DaemonFixture,
    RepOutcome, Scale, SharedAqm, Workload,
};
use abr::{initial_rung_for, shared_history, InitialSelectorConfig, Mpc, ProductionAbr};
use abtest::{
    population_config_from_spec, run_user, user_at, Arm, Experiment, ExperimentConfig,
    PopulationConfig, UserProfile,
};
use fluidsim::SessionBuilder;
use netsim::prelude::*;
use netsim::{PacketId, SimError};
use sammy_bench::lab::{neighbor_http, neighbor_tcp, neighbor_udp, LabArm, LabConfig};
use sammy_bench::matrix::SUBSTRATES;
use sammy_bench::shared::SharedLabConfig;
use sammy_core::{Sammy, SammyConfig};
use sammy_serve::http::http_request;
use sammy_serve::{JobKind, JobState, Store};
use spec::json;
use spec::ExperimentSpec;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdigest::TDigest;
use transport::{CcAlgorithm, Pacer, Protocol, ReceiverEndpoint, SenderEndpoint, TcpConfig};
use video::{Abr, AbrContext, ChunkMeasurement, PlayerPhase, ThroughputHistory, Title};

/// Reads `(allocations, bytes allocated)` so far from the counting global
/// allocator; only the `bench-traced` binary has one.
pub type AllocProbe = fn() -> (u64, u64);

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Driver sizes: iteration counts and population sizes. Sized so that the
/// whole suite takes about as long as the timed part of an untraced run.
#[derive(Debug, Clone, Copy)]
pub struct DriverSizes {
    /// Calls behind each median of a µs-or-faster item.
    pub calls: usize,
    /// Reps behind each median of a ms-scale item.
    pub reps: usize,
    /// Users behind the per-session and per-user items of the full
    /// population.
    pub users_full: usize,
    /// Users of the light streaming runs and the daemon comparison jobs.
    pub users_light: usize,
    /// Four-user jobs behind the daemon round-trip percentiles.
    pub tiny_jobs: usize,
    /// Interleaved rounds behind each ratio of two runs.
    pub rounds: usize,
}

impl DriverSizes {
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => DriverSizes {
                calls: 200,
                reps: 5,
                users_full: 100,
                users_light: 8_000,
                tiny_jobs: 300,
                rounds: 2,
            },
            Scale::Quick => DriverSizes {
                calls: 20,
                reps: 2,
                users_full: 10,
                users_light: 800,
                tiny_jobs: 20,
                rounds: 1,
            },
        }
    }
}

/// Wall nanoseconds of one call.
fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// Median wall nanoseconds of `n` calls.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| time_ns(&mut f).1).collect();
    median(&samples)
}

fn err(e: SimError) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// netsim
// ---------------------------------------------------------------------------

const ENGINE_PKTS: u64 = 10_000;

/// Drain `ENGINE_PKTS` datagrams through the default dumbbell; returns the
/// events the engine processed.
fn engine_drain() -> u64 {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
    for seq in 0..ENGINE_PKTS {
        let pkt = Packet::new(
            db.left[0],
            db.right[0],
            FlowId(1),
            Payload::Datagram { seq },
        )
        .with_size(1500);
        sim.inject(db.left[0], pkt);
    }
    sim.run_with_budget(1_000_000)
        .expect("a 10k-datagram drain takes ~40k events");
    black_box(sim.flow_stats(FlowId(1)).delivered_packets);
    sim.processed_events()
}

/// Enqueue+dequeue cost of one discipline: `pkts` 1500-byte packets of
/// eight flows arrive one per 120 µs (100 Mbps) into a 400 kB queue that
/// is drained at the same pace behind a 64-packet standing backlog, so
/// CoDel sees sojourn above target, RED sits between its thresholds and the
/// 75 Mbps token bucket binds. Returns ns per arriving packet.
fn queue_ns_per_pkt(discipline: Discipline, pkts: u32) -> f64 {
    let mut q = discipline.build(400_000);
    let mut dropped = Vec::new();
    let step = SimDuration::from_micros(120);
    let mut now = SimTime::ZERO;
    let t = Instant::now();
    for i in 0..pkts {
        let pkt = PacketRef {
            id: PacketId(i),
            size: 1500,
            flow: FlowId(1 + u64::from(i % 8)),
        };
        black_box(q.enqueue(now, pkt));
        if i >= 64 {
            black_box(q.dequeue(now, &mut dropped));
            dropped.clear();
        }
        now += step;
    }
    t.elapsed().as_nanos() as f64 / f64::from(pkts)
}

fn netsim_drivers(m: &mut Metrics, sz: &DriverSizes) {
    let mut events = 0;
    let drain_ns = median_ns(sz.reps * 6, || events = engine_drain());
    m.put(
        "netsim.engine_ns_per_pkt",
        drain_ns / ENGINE_PKTS as f64,
        "ns",
    );
    m.put(
        "netsim.events_per_pkt",
        events as f64 / ENGINE_PKTS as f64,
        "1/pkt",
    );

    for (label, discipline) in SharedAqm::disciplines(SharedAqm::SESSIONS) {
        let samples: Vec<f64> = (0..sz.reps * 4)
            .map(|_| queue_ns_per_pkt(discipline, sz.calls as u32 * 100))
            .collect();
        m.put(
            format!("netsim.queue_ns_per_pkt.{label}"),
            median(&samples),
            "ns",
        );
    }

    let topo = SharedLabConfig {
        sessions: SharedAqm::SESSIONS,
        ..SharedLabConfig::default()
    }
    .topology();
    let build_ns = median_ns(sz.calls, || {
        let mut sim = Simulator::new();
        black_box(SharedTopology::build(&mut sim, topo).clients.len());
    });
    m.put("netsim.topology_build_us", build_ns / 1e3, "us");
}

/// Traced reps of `shared_aqm` at workload size: which discipline owns the
/// workload. Each cell at its fastest over the reps, control and Sammy cells
/// of a discipline summed.
fn shared_cell_drivers(
    m: &mut Metrics,
    sz: &DriverSizes,
    seed: u64,
    scale: Scale,
) -> Result<(), String> {
    let mut t = Tracer::new(true);
    let mut workload = SharedAqm::new(seed, scale);
    for rep in 0..sz.rounds as u64 {
        workload.rep(rep, &mut t)?;
    }
    for (label, _) in SharedAqm::disciplines(SharedAqm::SESSIONS) {
        let ns: f64 = [LabArm::Control, LabArm::Sammy]
            .iter()
            .map(|arm| {
                minimum(&t.durations_ns(&format!("netsim.shared_cell.{label}.{}", arm.label())))
            })
            .sum();
        m.put(format!("netsim.shared_cell_ms.{label}"), ns / 1e6, "ms");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// transport
// ---------------------------------------------------------------------------

/// A 5 MB `Request` transfer over the default dumbbell on CUBIC; returns
/// packets delivered, so the cost is per delivered packet.
fn transfer_5mb(protocol: Protocol) -> u64 {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
    let flow = FlowId(1);
    let cfg = TcpConfig {
        transport: protocol,
        cc: CcAlgorithm::Cubic,
        ..TcpConfig::default()
    };
    sim.set_endpoint(
        db.left[0],
        Box::new(SenderEndpoint::new(db.left[0], db.right[0], flow, cfg)),
    );
    sim.set_endpoint(
        db.right[0],
        Box::new(ReceiverEndpoint::with_protocol(
            db.right[0],
            db.left[0],
            flow,
            protocol,
        )),
    );
    let req = Packet::new(
        db.right[0],
        db.left[0],
        flow,
        Payload::Request {
            id: 0,
            size: 5_000_000,
            pace_bps: None,
        },
    );
    sim.inject(db.right[0], req);
    sim.run_until(SimTime::from_secs(30));
    sim.flow_stats(flow).delivered_packets
}

fn transport_drivers(m: &mut Metrics, sz: &DriverSizes, seed: u64, scale: Scale) {
    // Interleaved so that a slow stretch of the box hits both protocols.
    let (mut tcp, mut quic) = (Vec::new(), Vec::new());
    for _ in 0..sz.reps * 3 {
        for (protocol, samples) in [(Protocol::Tcp, &mut tcp), (Protocol::Quic, &mut quic)] {
            let (pkts, ns) = time_ns(|| transfer_5mb(protocol));
            samples.push(ns / pkts.max(1) as f64);
        }
    }
    let (tcp, quic) = (median(&tcp), median(&quic));
    m.put("transport.tcp_ns_per_pkt", tcp, "ns");
    m.put("transport.quic_ns_per_pkt", quic, "ns");
    m.put("transport.quic_over_tcp", quic / tcp, "ratio");

    // A 10.5 Mbps pacer (3.2 x the lab's 3.3 Mbps top rung) offered a packet
    // every 500 µs: about half the decisions release, half defer.
    let batch = 1_000u64;
    let mut pacer = Pacer::new(Some(Rate::from_mbps(10.5)), 4);
    let mut now = SimTime::ZERO;
    let per_decision = median_ns(sz.calls, || {
        for _ in 0..batch {
            now += SimDuration::from_micros(500);
            if pacer.can_send(now, 1500) {
                pacer.on_send(now, 1500);
            } else {
                black_box(pacer.next_release(now, 1500));
            }
        }
    }) / batch as f64;
    m.put("transport.pacer_ns_per_decision", per_decision, "ns");

    // The matrix cell by cell, each cell at its fastest over the rounds.
    let base = CcMatrix::new(seed, scale).config().clone();
    let mut t = Tracer::new(true);
    let mut cells = Vec::new();
    for _ in 0..sz.rounds {
        cells = cc_matrix_by_cell(&base, &mut RepOutcome::default(), &mut t);
    }
    for s in SUBSTRATES {
        for arm in [LabArm::Control, LabArm::Sammy] {
            let span = format!("transport.matrix_cell.{}.{}", s.label, arm.label());
            m.put(
                format!("transport.matrix_cell_ms.{}.{}", s.label, arm.label()),
                minimum(&t.durations_ns(&span)) / 1e6,
                "ms",
            );
        }
    }
    let quic_sammy = cells
        .iter()
        .find(|c| c.substrate == "quic" && c.arm == LabArm::Sammy)
        .expect("the matrix has a quic/sammy cell");
    m.put(
        "transport.retx_fraction.quic_sammy",
        quic_sammy.retx_fraction,
        "ratio",
    );
}

// ---------------------------------------------------------------------------
// video / abr / core / fluidsim
// ---------------------------------------------------------------------------

/// The first `n` users of a lazy population, as the streaming runner would
/// derive them.
fn first_users(cfg: &PopulationConfig, n: usize, seed: u64) -> Vec<UserProfile> {
    (0..n as u64).map(|i| user_at(cfg, i, seed)).collect()
}

/// Median µs of `user.title(0)` over `users`.
fn title_generate_us(users: &[UserProfile]) -> f64 {
    let samples: Vec<f64> = users
        .iter()
        .map(|u| time_ns(|| black_box(u.title(0).len())).1)
        .collect();
    median(&samples) / 1e3
}

/// Median ns of `Abr::select` in the playing phase, mid-title, on a history
/// of twenty 20 Mbps chunk downloads and a half-full buffer.
fn decision_ns(abr: &mut dyn Abr, title: &Title, calls: usize) -> f64 {
    let mut history = ThroughputHistory::new();
    for i in 0..20 {
        history.record(ChunkMeasurement {
            index: i,
            rung: 3,
            bytes: 2_000_000,
            download_time: SimDuration::from_millis(800),
            completed_at: SimTime::from_secs(4 * (i as u64 + 1)),
        });
    }
    let batch = 100usize;
    median_ns(calls, || {
        for k in 0..batch {
            let ctx = AbrContext {
                now: SimTime::from_secs(100),
                phase: PlayerPhase::Playing,
                buffer: SimDuration::from_secs(120),
                max_buffer: SimDuration::from_secs(240),
                ladder: &title.ladder,
                upcoming: title.upcoming(20 + k),
                history: &history,
                last_rung: Some(3),
            };
            black_box(abr.select(&ctx));
        }
    }) / batch as f64
}

/// Per-session wall (ns) and chunk counts of one production-arm fluid
/// session per user, on a pre-generated title so that title generation
/// (`video`) stays out of the `fluidsim` number.
fn fluid_sessions(users: &[UserProfile]) -> (Vec<f64>, u64) {
    let init = InitialSelectorConfig::default();
    let mut walls = Vec::with_capacity(users.len());
    let mut chunks = 0u64;
    for u in users {
        let title = Arc::new(u.title(0));
        let history = shared_history();
        let estimate = history.discounted_estimate();
        let rung = initial_rung_for(estimate, &title.ladder, &init);
        let session = SessionBuilder::new(&u.network, title, Arm::Production.build_abr(history))
            .history_estimate(estimate)
            .predicted_initial_rung(rung)
            .max_wall_clock(u.title_duration * 3 + SimDuration::from_secs(120))
            .seed(u.seed)
            .startup_latency(u.startup_latency);
        let (out, ns) = time_ns(|| session.run());
        walls.push(ns);
        chunks += out.chunks as u64;
    }
    (walls, chunks)
}

fn session_drivers(m: &mut Metrics, sz: &DriverSizes, seed: u64) {
    let full = first_users(&PopulationConfig::default(), sz.users_full, seed);
    let light = first_users(&PopulationConfig::light(), sz.users_full, seed);

    m.put("video.title_generate_us", title_generate_us(&full), "us");
    m.put(
        "video.title_generate_light_us",
        title_generate_us(&light),
        "us",
    );

    let title = full[0].title(0);
    let mut mpc = ProductionAbr::new(
        Mpc::default(),
        shared_history(),
        abr::HistoryPolicy::AllSamples,
    );
    m.put(
        "abr.mpc_ns_per_decision",
        decision_ns(&mut mpc, &title, sz.calls),
        "ns",
    );
    let mut sammy = Sammy::new(Mpc::default(), shared_history(), SammyConfig::default());
    m.put(
        "core.sammy_ns_per_decision",
        decision_ns(&mut sammy, &title, sz.calls),
        "ns",
    );

    let (walls, chunks) = fluid_sessions(&full);
    m.put("fluidsim.session_us_p50", median(&walls) / 1e3, "us");
    m.put(
        "fluidsim.session_us_p95",
        percentile(&walls, 0.95) / 1e3,
        "us",
    );
    m.put(
        "fluidsim.chunks_per_session",
        chunks as f64 / walls.len() as f64,
        "1/session",
    );
    m.put(
        "fluidsim.ns_per_chunk",
        walls.iter().sum::<f64>() / chunks.max(1) as f64,
        "ns",
    );
    let (light_walls, _) = fluid_sessions(&light);
    m.put(
        "fluidsim.session_light_us_p50",
        median(&light_walls) / 1e3,
        "us",
    );
}

// ---------------------------------------------------------------------------
// abtest
// ---------------------------------------------------------------------------

fn stream(s: &ExperimentSpec) -> Result<abtest::StreamRun, String> {
    Experiment::builder().spec(s).run_streaming().map_err(err)
}

/// What `run_streaming` does per user, done by the benchmark: `user_at`,
/// then `run_user` under each arm. Returns per-user wall ns.
fn shadow_users(s: &ExperimentSpec, t: &mut Tracer) -> Vec<f64> {
    let pop = population_config_from_spec(s);
    let cfg = ExperimentConfig::from(s);
    let (control, treatment) = (Arm::from(&s.control), Arm::from(&s.treatment));
    (0..s.users_per_arm as u64)
        .map(|i| {
            time_ns(|| {
                let user = t.span("abtest.user_at", |_| user_at(&pop, i, s.seed));
                t.span("abtest.run_user", |_| {
                    black_box(run_user(&user, control, &cfg).len());
                    black_box(run_user(&user, treatment, &cfg).len());
                });
            })
            .1
        })
        .collect()
}

/// Allocations and bytes per user pair of one `run_streaming`: exact, from
/// the counting allocator.
fn put_allocs(m: &mut Metrics, kind: &str, allocs: (u64, u64), pairs: f64) {
    m.put(
        format!("abtest.allocs_per_pair.{kind}"),
        allocs.0 as f64 / pairs,
        "1/pair",
    );
    m.put(
        format!("abtest.alloc_bytes_per_pair.{kind}"),
        allocs.1 as f64 / pairs,
        "B/pair",
    );
}

/// `run_streaming` with the allocator read before and after.
fn stream_counted(s: &ExperimentSpec, probe: AllocProbe) -> Result<((u64, u64), f64), String> {
    let before = probe();
    let (run, ns) = time_ns(|| stream(s));
    let after = probe();
    run?;
    Ok(((after.0 - before.0, after.1 - before.1), ns))
}

fn abtest_drivers(
    m: &mut Metrics,
    sz: &DriverSizes,
    seed: u64,
    probe: AllocProbe,
) -> Result<(), String> {
    let quiet = &mut Tracer::new(false);
    let full = population_spec("layer_full", sz.users_full, false, seed);
    let light = population_spec("layer_light", sz.users_light, true, seed);

    m.put(
        "abtest.run_user_us_p50",
        median(&shadow_users(&full, quiet)) / 1e3,
        "us",
    );
    put_allocs(
        m,
        "full",
        stream_counted(&full, probe)?.0,
        full.users_per_arm as f64,
    );

    // `run_streaming` against the same users run by hand, interleaved: the
    // share of the streaming wall that is `run_user`, and the rest of it per
    // pair — the fold / bootstrap / digest self time, taken as a residual
    // because `ShardState`'s fold is not public. Light population only: on
    // the full one the residual (~1 % of the wall) is smaller than the noise
    // of the two runs it is the difference of.
    let (mut walls, mut shadows, mut per_user) = (Vec::new(), Vec::new(), Vec::new());
    let mut allocs = (0, 0);
    for _ in 0..sz.rounds {
        let (counted, ns) = stream_counted(&light, probe)?;
        allocs = counted;
        walls.push(ns);
        per_user = shadow_users(&light, quiet);
        shadows.push(per_user.iter().sum::<f64>());
    }
    let (wall, shadow) = (median(&walls), median(&shadows));
    let pairs = light.users_per_arm as f64;
    m.put(
        "abtest.run_user_light_us_p50",
        median(&per_user) / 1e3,
        "us",
    );
    m.put("abtest.run_user_share.light", shadow / wall, "ratio");
    m.put(
        "abtest.fold_us_per_pair.light",
        (wall - shadow) / pairs / 1e3,
        "us",
    );
    put_allocs(m, "light", allocs, pairs);

    let run = stream(&light)?;
    let mut buf = Vec::new();
    let encode_ns = median_ns(sz.calls, || {
        buf.clear();
        run.state.encode(&mut buf);
        black_box(buf.len());
    });
    m.put("abtest.ckpt_encode_us", encode_ns / 1e3, "us");
    m.put("abtest.ckpt_bytes", buf.len() as f64, "count");

    let two = ExperimentSpec {
        threads: 2,
        ..light.clone()
    };
    let (mut one_t, mut two_t) = (Vec::new(), Vec::new());
    for _ in 0..sz.rounds {
        one_t.push(time_ns(|| stream(&light).map(|r| r.users)).1);
        two_t.push(time_ns(|| stream(&two).map(|r| r.users)).1);
    }
    m.put(
        "abtest.speedup_2t",
        median(&one_t) / median(&two_t),
        "ratio",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// tdigest / spec
// ---------------------------------------------------------------------------

fn tdigest_drivers(m: &mut Metrics, sz: &DriverSizes) {
    let batch = 10_000u64;
    let mut d = TDigest::new(100.0);
    let mut x = 1u64;
    let add_ns = median_ns(sz.calls, || {
        for _ in 0..batch {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            d.add((x >> 40) as f64);
        }
    }) / batch as f64;
    m.put("tdigest.add_ns", add_ns, "ns");

    let mut other = TDigest::new(100.0);
    for i in 0..batch {
        other.add((i * 7919 % 9973) as f64);
    }
    let merge_ns = median_ns(sz.calls, || {
        let mut into = d.clone();
        into.merge(&other);
        black_box(into.count());
    });
    m.put("tdigest.merge_us", merge_ns / 1e3, "us");

    let mut buf = Vec::new();
    let encode_ns = median_ns(sz.calls, || {
        buf.clear();
        d.encode(&mut buf);
        black_box(buf.len());
    });
    m.put("tdigest.encode_us", encode_ns / 1e3, "us");
}

/// Parse and render throughput on `doc` (a `result.json` as the daemon
/// served it), and the cost of turning a submitted body into a spec.
fn spec_drivers(m: &mut Metrics, sz: &DriverSizes, doc: &str, body: &str) -> Result<(), String> {
    let value = json::parse(doc).map_err(err)?;
    let mb = doc.len() as f64 / 1e6;
    let parse_ns = median_ns(sz.calls, || {
        black_box(json::parse(doc).is_ok());
    });
    m.put("spec.parse_mb_per_s", mb / (parse_ns / 1e9), "MB/s");
    let render_ns = median_ns(sz.calls, || {
        black_box(value.to_string().len());
    });
    m.put("spec.render_mb_per_s", mb / (render_ns / 1e9), "MB/s");
    let from_json_ns = median_ns(sz.calls, || {
        black_box(ExperimentSpec::from_json_str(body).is_ok());
    });
    m.put("spec.experiment_from_json_us", from_json_ns / 1e3, "us");
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// The daemon-side drivers. Returns a `result.json` body for the spec
/// drivers. Millisecond daemon latencies swing 25–80 % between batches on
/// this box: these are informational and deliberately not end-to-end.
fn serve_drivers(
    m: &mut Metrics,
    sz: &DriverSizes,
    seed: u64,
    out_dir: &Path,
) -> Result<String, String> {
    let fixture = DaemonFixture::start(out_dir, "layers")?;
    let addr = fixture.addr();
    let quiet = &mut Tracer::new(false);

    // Closed loop of four-user jobs, polled every 250 µs, through the same
    // client the `daemon_light` workload uses; its spans time the requests.
    let tiny = population_spec("tiny", 4, true, seed);
    let mut t = Tracer::new(true);
    let mut roundtrip_ms = Vec::new();
    let mut last_id = None;
    for k in 0..sz.tiny_jobs as u64 {
        let body = ExperimentSpec {
            seed: tiny.seed + k,
            ..tiny.clone()
        }
        .to_json()
        .to_string();
        let (job, ns) =
            time_ns(|| submit_and_wait(addr, &body, Duration::from_micros(250), &mut t));
        if !job.succeeded(4) {
            return Err(format!("tiny job failed: {job:?}"));
        }
        roundtrip_ms.push(ns / 1e6);
        last_id = job.id;
    }
    m.put(
        "serve.post_201_ms_p50",
        median(&t.durations_ns("serve.post_runs")) / 1e6,
        "ms",
    );
    m.put("serve.tiny_roundtrip_ms_p50", median(&roundtrip_ms), "ms");
    m.put(
        "serve.tiny_roundtrip_ms_p95",
        percentile(&roundtrip_ms, 0.95),
        "ms",
    );
    m.put(
        "serve.poll_cost_us",
        median(&t.durations_ns("serve.get_status")) / 1e3,
        "us",
    );
    let result_path = format!("/runs/{}/result", last_id.ok_or("no tiny job ran")?);
    let (_, result_doc) =
        http_request(addr, "GET", &result_path, None).map_err(|e| e.to_string())?;

    // The store on its own, in a directory of its own.
    let store_dir = fixture.runs_dir().join("store-driver");
    let store = Store::open(&store_dir).map_err(err)?;
    let spec_doc = tiny.to_json();
    let mut id = String::new();
    let create_ns = median_ns(sz.calls / 2, || {
        id = store
            .create_job(JobKind::Run, &spec_doc)
            .expect("create_job in a fresh store");
    });
    m.put("serve.store_create_job_us", create_ns / 1e3, "us");
    let status_ns = median_ns(sz.calls / 2, || {
        store
            .write_status(JobKind::Run, &id, JobState::Running, None)
            .expect("write_status on an existing job");
    });
    m.put("serve.store_write_status_us", status_ns / 1e3, "us");

    // The same light job three ways, interleaved: in-process without
    // checkpoints, in-process with the daemon's checkpoint-every-shard, and
    // through the daemon.
    let job = population_spec("overhead", sz.users_light, true, derive_seed(seed, 7));
    let ckpt_dir = fixture.runs_dir().join("ckpt-driver");
    let (mut plain, mut ckpt, mut daemon) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..sz.rounds as u64 {
        let s = ExperimentSpec {
            seed: job.seed + k,
            ..job.clone()
        };
        plain.push(time_ns(|| stream(&s).map(|r| r.users)).1);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let (run, ns) = time_ns(|| {
            Experiment::builder()
                .spec(&s)
                .checkpoint_dir(&ckpt_dir)
                .checkpoint_every(1)
                .run_streaming()
        });
        run.map_err(err)?;
        ckpt.push(ns);
        let body = s.to_json().to_string();
        let (outcome, ns) =
            time_ns(|| submit_and_wait(addr, &body, crate::workloads::DaemonLight::POLL, quiet));
        if !outcome.succeeded(s.users_per_arm as u64) {
            return Err(format!("overhead job failed: {outcome:?}"));
        }
        daemon.push(ns);
    }
    m.put(
        "abtest.ckpt_overhead_ratio",
        median(&ckpt) / median(&plain),
        "ratio",
    );
    m.put(
        "serve.job_overhead_ratio",
        median(&daemon) / median(&plain),
        "ratio",
    );
    Ok(result_doc)
}

// ---------------------------------------------------------------------------
// traffic
// ---------------------------------------------------------------------------

fn traffic_drivers(m: &mut Metrics, seed: u64, scale: Scale) {
    let cfg = LabConfig {
        seed,
        run_for: match scale {
            Scale::Full => LabConfig::neighbors().run_for,
            Scale::Quick => SimDuration::from_secs(20),
        },
        ..LabConfig::neighbors()
    };
    type Neighbor = fn(LabArm, &LabConfig) -> f64;
    let kinds: [(&str, Neighbor); 3] = [
        ("udp", neighbor_udp),
        ("tcp", neighbor_tcp),
        ("http", neighbor_http),
    ];
    for (label, run) in kinds {
        let ns: f64 = [LabArm::Control, LabArm::Sammy]
            .iter()
            .map(|&arm| time_ns(|| black_box(run(arm, &cfg))).1)
            .sum();
        m.put(format!("traffic.neighbor_cell_ms.{label}"), ns / 1e6, "ms");
    }
}

// ---------------------------------------------------------------------------

/// Cost of one `Instant::now()` + `elapsed()` pair, the floor under every
/// ns-scale number above.
fn timer_ns(calls: usize) -> f64 {
    let batch = 1_000;
    median_ns(calls, || {
        for _ in 0..batch {
            black_box(Instant::now().elapsed());
        }
    }) / batch as f64
}

/// Run every layer driver. Metrics come out in layer order.
pub fn run_all(
    seed: u64,
    scale: Scale,
    out_dir: &Path,
    probe: AllocProbe,
) -> Result<Metrics, String> {
    let sz = DriverSizes::new(scale);
    let seed = derive_seed(seed, 9);
    let mut m = Metrics::default();
    netsim_drivers(&mut m, &sz);
    shared_cell_drivers(&mut m, &sz, seed, scale)?;
    transport_drivers(&mut m, &sz, seed, scale);
    session_drivers(&mut m, &sz, seed);
    abtest_drivers(&mut m, &sz, seed, probe)?;
    tdigest_drivers(&mut m, &sz);
    let result_doc = serve_drivers(&mut m, &sz, seed, out_dir)?;
    let body = population_spec("spec_driver", 4, true, seed)
        .to_json()
        .to_string();
    spec_drivers(&mut m, &sz, &result_doc, &body)?;
    traffic_drivers(&mut m, seed, scale);
    m.put("bench.timer_ns", timer_ns(sz.calls), "ns");
    Ok(m)
}
