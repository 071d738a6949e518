//! Golden-snapshot determinism tests for the hot-path optimizations.
//!
//! These fixtures were captured on the tree immediately before the engine
//! and A/B hot paths were rewritten (scratch buffers, Vec-indexed tables,
//! a timer queue of its own, prefix-sum MPC) and have held through every
//! engine mechanism added or deleted since. Any divergence means a change
//! moved observable behavior — event order, per-flow accounting, or the
//! A/B record stream — and must be treated as a bug, not re-baselined.
//!
//! One carve-out: `processed_events` is a work count, not behaviour. It pins
//! the order only while an event costs what it did; a change to how many
//! events a packet costs moves it with every delivered byte, packet and drop
//! beside it untouched. It has moved that way once: the link became busy
//! until a time (`Link::free_at`), an idle hop stopped arming a `LinkTxDone`,
//! and the two transfers went 41_323 → 24_454 and 44_480 → 24_016.

use sammy_repro::abtest::{run_user, user_at, Arm, Experiment, ExperimentConfig, PopulationConfig};
use sammy_repro::netsim::{
    CoDelConfig, Dequeue, Discipline, DrrConfig, Dumbbell, DumbbellConfig, EnqueueResult, FlowId,
    Packet, PacketId, PacketRef, Payload, Rate, RedConfig, SimDuration, SimTime, Simulator,
    TokenBucketConfig,
};
use sammy_repro::obs::Registry;
use sammy_repro::tdigest::wire::Fnv;
use sammy_repro::transport::{ReceiverEndpoint, SenderEndpoint, TcpConfig};

/// A 5 MB TCP transfer over the default dumbbell, identical to the
/// `tcp_transfer` bench scenario. Returns (processed_events, delivered
/// bytes/packets, drops).
fn tcp_transfer(pace_bps: Option<f64>) -> (u64, u64, u64, u64) {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
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
    let req = Packet::new(
        db.right[0],
        db.left[0],
        flow,
        Payload::Request {
            id: 0,
            size: 5_000_000,
            pace_bps,
        },
    );
    sim.inject(db.right[0], req);
    sim.run_until(SimTime::from_secs(30));
    let st = sim.flow_stats(flow);
    (
        sim.processed_events(),
        st.delivered_bytes,
        st.delivered_packets,
        st.dropped_packets,
    )
}

/// Record-stream fingerprint of a tiny seed-2023 table2 experiment
/// (both arms, every session field including per-chunk throughputs).
fn table2_fingerprint() -> u64 {
    let cfg = ExperimentConfig {
        users_per_arm: 20,
        pre_sessions: 3,
        sessions_per_user: 3,
        seed: 2023,
        bootstrap_reps: 50,
        threads: 0,
    };
    let pop: Vec<_> = (0..cfg.users_per_arm as u64)
        .map(|i| user_at(&PopulationConfig::default(), i, cfg.seed))
        .collect();
    let mut h = Fnv::new();
    for arm in [Arm::Production, Arm::Sammy { c0: 3.2, c1: 2.8 }] {
        for r in pop.iter().flat_map(|u| run_user(u, arm, &cfg)) {
            h.u64(r.user);
            h.f64(r.pre_p95_mbps);
            let o = &r.outcome;
            h.u64(o.qoe.play_delay.map_or(u64::MAX, |d| d.as_nanos()));
            h.u64(o.qoe.rebuffer_count);
            h.u64(o.qoe.rebuffer_time.as_nanos());
            h.f64(o.qoe.mean_vmaf.unwrap_or(-1.0));
            h.f64(o.qoe.initial_vmaf.unwrap_or(-1.0));
            h.f64(o.qoe.mean_bitrate.map_or(-1.0, |b| b.bps()));
            h.u64(o.qoe.played.as_nanos());
            h.u64(o.qoe.quality_switches);
            h.f64(o.avg_chunk_throughput.map_or(-1.0, |b| b.bps()));
            h.f64(o.retx_fraction);
            h.f64(o.median_rtt_ms);
            h.u64(o.chunks as u64);
            h.f64(o.congested_byte_fraction);
            for &s in &o.chunk_throughputs_mbps {
                h.f64(s);
            }
        }
    }
    h.finish()
}

/// `StreamRun::fingerprint()` of two small seed-2023 streaming runs at 600
/// bootstrap replicates and 16 users a shard, one over the light population
/// and one over the full one: every digest, delta sum, replicate and count
/// of the folded state. The telemetry registry is emptied first — it is
/// empty anyway without the `obs` feature, and `obs_determinism` pins it —
/// so the literal holds with and without that feature.
fn stream_fold_fingerprint() -> u64 {
    let mut h = Fnv::new();
    for (population, users) in [
        (PopulationConfig::light(), 40),
        (PopulationConfig::default(), 18),
    ] {
        let mut run = Experiment::builder()
            .population_config(population)
            .config(ExperimentConfig {
                users_per_arm: users,
                pre_sessions: 2,
                sessions_per_user: 2,
                seed: 2023,
                bootstrap_reps: 600,
                threads: 1,
            })
            .shard_size(16)
            .run_streaming()
            .expect("a valid config");
        run.state.registry = Registry::new();
        h.u64(run.fingerprint());
    }
    h.finish()
}

/// Every size and VMAF bit of the first two titles of users 0–7 at seed
/// 2023, in the full and the light population, chunk by chunk.
fn title_fingerprint() -> u64 {
    let mut h = Fnv::new();
    for cfg in [PopulationConfig::default(), PopulationConfig::light()] {
        for i in 0..8 {
            let user = user_at(&cfg, i, 2023);
            for k in 0..2 {
                let title = user.title(k);
                for c in 0..title.len() {
                    let chunk = title.chunk(c);
                    for r in 0..title.ladder.len() {
                        h.u64(chunk.size(r));
                        h.f64(chunk.vmaf(r));
                    }
                }
            }
        }
    }
    h.finish()
}

/// Captured on the pre-optimization tree (see module docs): the event
/// count pins the global event order (any reordering shifts the TCP
/// feedback loop and changes the count), and the flow stats pin the
/// delivery/drop accounting.
///
/// Event count re-baselined (41_317 → 41_323) when the pacer's unpaced
/// burst cap was fixed: the cap now holds within a single instant, so
/// over-burst sends defer by 1 µs and add a handful of timer events.
/// Bytes, drops, and loss events are unchanged. Work count only
/// (41_323 → 24_454) when idle links stopped arming `LinkTxDone`.
#[test]
fn golden_tcp_transfer_unpaced() {
    assert_eq!(tcp_transfer(None), (24_454, 5_274_040, 6_851, 101));
}

/// Same transfer with a 12 Mbps application pace: exercises the pacing
/// timer path (the timer heap and its merge with packet events) heavily.
/// Work count only (44_480 → 24_016) when idle links stopped arming
/// `LinkTxDone`.
#[test]
fn golden_tcp_transfer_paced() {
    assert_eq!(tcp_transfer(Some(12e6)), (24_016, 5_274_040, 6_851, 0));
}

/// The full A/B record stream of a tiny seed-2023 table2 experiment,
/// fingerprinted field by field (including every per-chunk throughput
/// sample). Pins ABR decisions, session arithmetic, and run order.
///
/// Re-baselined once (from 0x02504583afd041c5) when
/// `abtest::stats::percentile` switched from nearest-rank to the locked
/// linear-interpolation definition: `pre_p95_mbps` is a percentile of each
/// user's pre-session throughputs, so the definitional fix legitimately
/// shifts every record. Re-baselined once more (from 0x6012dc32e1834f6d)
/// when `median_rtt_ms` became the exact weighted median of a session's
/// chunk RTTs instead of a t-digest's estimate; the stream with that field
/// left out hashed to 0x6016865bb67f53b7 before and after. Re-baselined a
/// third time (from 0xcbc877389860285f) when every simulated user became
/// `user_at`'s: the users changed, not the record arithmetic — the previous
/// tree hashes this same stream over these same users to this value. Any
/// *other* divergence is still a bug.
#[test]
fn golden_table2_record_stream() {
    assert_eq!(table2_fingerprint(), 0xdf8c075ff892aa64);
}

/// The bytes of generated titles, pinned directly rather than only through
/// the sessions that play them: title generation's per-title constants and
/// RNG draw order must not move a size or a VMAF bit. Captured on the tree
/// before those constants were hoisted out of the chunk loop.
#[test]
fn golden_title_bytes() {
    assert_eq!(title_fingerprint(), 0xd705_68ef_333a_bfdc);
}

/// The whole streaming fold, pinned: the bootstrap weight draw, every
/// row's replicate update, the digests and the shard merge. Captured on the
/// tree where each weight was Knuth's loop and a replicate update skipped
/// a zero weight by a branch.
#[test]
fn golden_stream_fold_state() {
    assert_eq!(stream_fold_fingerprint(), 0x55a8_6837_aefd_ad67);
}

/// Hashes what a queue did and counts the decisions that matter.
#[derive(Default)]
struct QueueLog {
    h: u64,
    probe_drops: u64,
    arrival_drops: u64,
    head_drops: u64,
    waits: u64,
}

impl QueueLog {
    fn enqueued(&mut self, h: &mut Fnv, result: EnqueueResult) {
        let accepted = result == EnqueueResult::Accepted;
        self.arrival_drops += u64::from(!accepted);
        h.u64(u64::from(accepted));
    }

    /// Hash one dequeue and its head drops; `None` if a packet left, else
    /// the time to poll again (`ZERO` once empty).
    fn dequeued(
        &mut self,
        h: &mut Fnv,
        d: Dequeue,
        dropped: &mut Vec<PacketRef>,
    ) -> Option<SimTime> {
        let next = match d {
            Dequeue::Packet(p) => {
                h.u64(0);
                h.u64(u64::from(p.id.0));
                None
            }
            Dequeue::Wait(at) => {
                self.waits += 1;
                h.u64(1);
                h.u64(at.as_nanos());
                Some(at)
            }
            Dequeue::Empty => {
                h.u64(2);
                Some(SimTime::ZERO)
            }
        };
        for p in dropped.drain(..) {
            self.head_drops += 1;
            h.u64(3);
            h.u64(u64::from(p.id.0));
        }
        next
    }
}

/// The benchmark's queue probe, then an overload, then a drain, through one
/// discipline: 4 000 arrivals of 1 500 B from eight flows every 120 µs into
/// 400 kB, each served at once behind a 64-packet backlog; 3 000 more every
/// 60 µs, half of them flow 1's, served one for two; service until the
/// queue is empty, at each `Wait`'s time or every 120 µs; then three
/// packets served 50, 200 and 350 ms after they arrive. Hashes every
/// enqueue result, every dequeue outcome (packet id, `Wait` time or
/// `Empty`), every head-dropped id and the final counters; also counts the
/// arrival drops (those of the probe apart), head drops and waits, so the
/// pin shows each discipline's own decisions happening.
fn discipline_log(discipline: Discipline) -> QueueLog {
    let mut q = discipline.build(400_000);
    let mut h = Fnv::new();
    let mut log = QueueLog::default();
    let mut dropped = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..7_000u32 {
        let pkt = PacketRef {
            id: PacketId(i),
            size: 1_500,
            flow: FlowId(if i >= 4_000 && i % 2 == 0 {
                1
            } else {
                1 + u64::from(i % 8)
            }),
        };
        log.enqueued(&mut h, q.enqueue(now, pkt));
        if i == 3_999 {
            log.probe_drops = log.arrival_drops;
        }
        if (64..4_000).contains(&i) || (i >= 4_000 && i % 2 == 0) {
            let d = q.dequeue(now, &mut dropped);
            log.dequeued(&mut h, d, &mut dropped);
        }
        now += SimDuration::from_micros(if i < 4_000 { 120 } else { 60 });
    }
    loop {
        let d = q.dequeue(now, &mut dropped);
        match log.dequeued(&mut h, d, &mut dropped) {
            None => now += SimDuration::from_micros(120),
            Some(SimTime::ZERO) => break,
            Some(at) => now = at,
        }
    }
    // Three packets standing long past CoDel's target: it judges the last
    // two heads by the bytes left behind each (one MTU, then none), not by
    // the bytes before the pop.
    for i in 7_000..7_003u32 {
        let pkt = PacketRef {
            id: PacketId(i),
            size: 1_500,
            flow: FlowId(1),
        };
        log.enqueued(&mut h, q.enqueue(now, pkt));
    }
    for wait_ms in [50, 150, 150] {
        now += SimDuration::from_millis(wait_ms);
        let d = q.dequeue(now, &mut dropped);
        log.dequeued(&mut h, d, &mut dropped);
    }
    let stats = q.stats();
    for v in [stats.drops, stats.dropped_bytes, stats.max_occupied_bytes] {
        h.u64(v);
    }
    log.h = h.finish();
    log
}

/// Every decision of the five queue disciplines, bit for bit: RED's early
/// drops, CoDel's head drops, DRR's rounds and the token bucket's waits, as
/// the shared-bottleneck cells configure them (the bucket at three quarters
/// of a six-session core). Captured on the tree where each discipline was
/// its own `Queue` implementation behind a trait object.
#[test]
fn golden_queue_discipline_decisions() {
    let tbf = TokenBucketConfig::new(Rate::from_mbps(54.0), 30_000);
    let got: Vec<_> = [
        ("droptail", Discipline::DropTail),
        ("red", Discipline::Red(RedConfig::default())),
        ("codel", Discipline::CoDel(CoDelConfig::default())),
        ("drr", Discipline::Drr(DrrConfig::default())),
        ("tbf", Discipline::TokenBucket(tbf)),
    ]
    .into_iter()
    .map(|(name, d)| {
        let log = discipline_log(d);
        (
            name,
            log.h,
            log.probe_drops,
            log.arrival_drops,
            log.head_drops,
            log.waits,
        )
    })
    .collect();
    // (name, hash, probe drops, arrival drops, head drops, waits)
    let pinned = vec![
        ("droptail", 0x1e7d_bd7e_4872_4cc1, 0, 1_298, 0, 0),
        ("red", 0xc531_18c8_fdb0_d2c1, 30, 1_409, 0, 0),
        ("codel", 0x52a5_6954_5d18_ef70, 0, 1_286, 13, 0),
        ("drr", 0xe0f0_5a3a_e37f_1709, 0, 1_298, 0, 0),
        ("tbf", 0xa93b_df87_9271_82dc, 1_590, 3_780, 0, 2_747),
    ];
    assert_eq!(got, pinned);
}
