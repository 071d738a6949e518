//! Property-based tests for the transport layer: every transfer completes
//! exactly, regardless of loss induced by queue sizes, pacing, or chunk
//! sizes.

use netsim::prelude::*;
use proptest::prelude::*;
use transport::{
    BbrLite, CcAlgorithm, CongestionControl, Pacer, Protocol, ReceiverEndpoint, SenderEndpoint,
    TcpConfig,
};

/// One application request of a [`run_scenario`]: (size in kB, pace kind
/// at request time, pace kind switched to mid-transfer, when the switch
/// happens in ms after the request, idle gap in ms after completion).
type Request = (u64, u8, u8, u64, u64);

/// The three pacing regimes relative to the bottleneck: unpaced, well
/// below it (Sammy's operating point), and above it (paced *and* lossy).
fn pace_kind(kind: u8, bottleneck_mbps: f64) -> Option<Rate> {
    match kind % 3 {
        0 => None,
        1 => Some(Rate::from_mbps(bottleneck_mbps * 0.3)),
        _ => Some(Rate::from_mbps(bottleneck_mbps * 1.5)),
    }
}

/// Serve `requests` back to back over the dumbbell through the public
/// `mux` API, churning each transfer's pace mid-flight and idling between
/// them. `Err` names the first request that did not complete, or any
/// byte-accounting mismatch at the end.
fn run_scenario(
    transport: Protocol,
    cc: CcAlgorithm,
    rate_mbps: f64,
    queue_mult: f64,
    burst: u32,
    requests: &[Request],
) -> Result<(), String> {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(
        &mut sim,
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(rate_mbps),
            queue_bdp_multiple: queue_mult,
            ..Default::default()
        },
    );
    let (server, client, flow) = (db.left[0], db.right[0], FlowId(1));
    let cfg = TcpConfig {
        transport,
        cc,
        max_burst_packets: burst,
        ..Default::default()
    };
    sim.set_endpoint(
        server,
        Box::new(SenderEndpoint::new(server, client, flow, cfg)),
    );
    sim.set_endpoint(
        client,
        Box::new(ReceiverEndpoint::with_protocol(
            client, server, flow, transport,
        )),
    );

    let mut now = SimTime::ZERO;
    let mut offered = 0u64;
    for (i, &(kb, pace, churn_pace, churn_ms, gap_ms)) in requests.iter().enumerate() {
        let size = kb * 1000;
        offered += size;
        let req = Payload::Request {
            id: i as u64,
            size,
            pace_bps: pace_kind(pace, rate_mbps).map(|r| r.bps()),
        };
        sim.inject(client, Packet::new(client, server, flow, req));
        now = sim.run_until(now + SimDuration::from_millis(churn_ms));
        let ep: &mut SenderEndpoint = sim.endpoint_mut(server).unwrap();
        // Transfer ids count up from 0 in request order on both protocols.
        ep.sender_mut()
            .set_transfer_pace(now, i as u64, pace_kind(churn_pace, rate_mbps));
        let deadline = now + SimDuration::from_secs(600);
        loop {
            let ep: &mut SenderEndpoint = sim.endpoint_mut(server).unwrap();
            if ep.completed.len() > i {
                break;
            }
            if now >= deadline {
                return Err(format!("request {i} ({size} B) wedged"));
            }
            now = sim.run_until(now + SimDuration::from_millis(100));
        }
        now = sim.run_until(now + SimDuration::from_millis(gap_ms));
    }

    let ep: &mut SenderEndpoint = sim.endpoint_mut(server).unwrap();
    if !ep.sender().is_idle() {
        return Err("sender not idle after every transfer completed".into());
    }
    let sent: u64 = ep.completed.iter().map(|t| t.bytes).sum();
    let rx: &mut ReceiverEndpoint = sim.endpoint_mut(client).unwrap();
    let delivered = rx.receiver().contiguous_bytes();
    if (sent, delivered) != (offered, offered) {
        return Err(format!(
            "offered {offered} B, completed {sent} B, delivered {delivered} B"
        ));
    }
    Ok(())
}

/// Shrunk failures of `transfers_always_complete`, replayed on both
/// protocols. (The in-tree proptest stand-in neither shrinks nor reads
/// `proptest.proptest-regressions`; the seeds recorded there live here.)
///
/// Both wedged the QUIC sender before the sender core: paced above the
/// bottleneck, a lost packet's retransmission was selected while the pacer
/// was empty, and dropped from the queue on the pacer's "no".
#[test]
fn transfers_always_complete_regressions() {
    let cases: [(f64, f64, u32, &[Request]); 2] = [
        (
            33.40697578255556,
            4.96175186793836,
            15,
            &[(756, 2, 0, 156, 1425), (66, 2, 1, 69, 1662)],
        ),
        (30.0, 5.0, 15, &[(700, 2, 2, 1, 0)]),
    ];
    for (rate, queue_mult, burst, requests) in cases {
        for proto in PROTOCOLS {
            run_scenario(proto, CcAlgorithm::Reno, rate, queue_mult, burst, requests)
                .unwrap_or_else(|e| panic!("{proto} {rate} {queue_mult} {burst}: {e}"));
        }
    }
}

const PROTOCOLS: [Protocol; 2] = [Protocol::Tcp, Protocol::Quic];
const CONTROLLERS: [CcAlgorithm; 4] = [
    CcAlgorithm::Reno,
    CcAlgorithm::Cubic,
    CcAlgorithm::BbrLite,
    CcAlgorithm::Ledbat,
];

/// Run one request/response transfer, returning (delivered stream bytes,
/// retransmit fraction).
fn run(
    bytes: u64,
    pace_mbps: Option<f64>,
    rate_mbps: f64,
    queue_mult: f64,
    burst: u32,
) -> (u64, f64) {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(
        &mut sim,
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(rate_mbps),
            queue_bdp_multiple: queue_mult,
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
            TcpConfig {
                max_burst_packets: burst,
                ..Default::default()
            },
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
            size: bytes,
            pace_bps: pace_mbps.map(|m| m * 1e6),
        },
    );
    sim.inject(db.right[0], req);
    sim.run_until(SimTime::from_secs(300));

    let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
    let retx = server.sender().stats().retransmit_fraction();
    let client: &mut ReceiverEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
    (client.receiver().contiguous_bytes(), retx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reliability under loss *and* pacing together, for every protocol ×
    /// controller: across loss-inducing queues, pace below / above / absent,
    /// any burst size, mid-transfer `set_transfer_pace` churn and idle gaps
    /// between back-to-back requests, every transfer completes, delivered
    /// == offered, and the sender ends idle.
    #[test]
    fn transfers_always_complete(
        quic in any::<bool>(),
        cc in 0usize..4,
        rate in 2.0f64..60.0,
        queue_mult in 0.5f64..6.0,
        burst in 1u32..40,
        requests in prop::collection::vec(
            (10u64..800, 0u8..3, 0u8..3, 1u64..400, 0u64..3000),
            1..4,
        ),
    ) {
        let proto = PROTOCOLS[quic as usize];
        let outcome = run_scenario(proto, CONTROLLERS[cc], rate, queue_mult, burst, &requests);
        prop_assert!(
            outcome.is_ok(),
            "{proto} {:?} rate {rate} queue {queue_mult} burst {burst} {requests:?}: {}",
            CONTROLLERS[cc],
            outcome.unwrap_err()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pacing below the bottleneck eliminates retransmissions entirely.
    #[test]
    fn paced_below_capacity_is_lossless(
        kb in 50u64..1500,
        rate in 10.0f64..80.0,
    ) {
        let pace = rate * 0.5;
        let (delivered, retx) = run(kb * 1000, Some(pace), rate, 4.0, 4);
        prop_assert_eq!(delivered, kb * 1000);
        prop_assert!(retx == 0.0, "retx {retx} with pace {pace} < rate {rate}");
    }

    /// Paced transfers never beat the pace rate (with a small burst bucket;
    /// the default 40-packet bucket deliberately allows a 60 kB line-rate
    /// burst, which dominates transfers of comparable size — that is the
    /// burst-size effect of the paper's Fig 4, tested separately).
    #[test]
    fn pace_is_an_upper_bound(kb in 100u64..1000, pace in 2.0f64..20.0) {
        let bytes = kb * 1000;
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        let flow = FlowId(1);
        sim.set_endpoint(
            db.left[0],
            Box::new(SenderEndpoint::new(
                db.left[0],
                db.right[0],
                flow,
                TcpConfig { max_burst_packets: 4, ..Default::default() },
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
            Payload::Request { id: 0, size: bytes, pace_bps: Some(pace * 1e6) },
        );
        sim.inject(db.right[0], req);
        sim.run_until(SimTime::from_secs(600));
        let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
        prop_assert_eq!(server.completed.len(), 1);
        let tput = server.completed[0].throughput().mbps();
        // Allow the initial burst allowance a little slack on tiny files.
        prop_assert!(tput <= pace * 1.15, "tput {tput} > pace {pace}");
    }
}

/// Greedily send MTU packets through `p` until `end`, starting at `now`.
/// Returns (bytes sent, time after the last attempt).
fn greedy_send(p: &mut Pacer, mut now: SimTime, end: SimTime) -> (u64, SimTime) {
    let mut sent = 0u64;
    while now < end {
        if p.can_send(now, MTU_BYTES) {
            p.on_send(now, MTU_BYTES);
            sent += MTU_BYTES;
        } else {
            // A sub-nanosecond token deficit rounds the wait to zero; nudge
            // forward like the endpoints do so the loop always advances.
            match p.next_release(now, MTU_BYTES) {
                Some(t) if t <= end => {
                    now = t.max(now + SimDuration::from_micros(1));
                }
                _ => break,
            }
        }
    }
    (sent, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pacer token-bucket soundness: across arbitrary `set_rate` churn and
    /// idle gaps, a greedy sender can never move more than the integral of
    /// the configured rate over time plus one bucket of burst allowance
    /// (tokens are capped at capacity, so idle time buys at most one
    /// bucket, never a backlog).
    #[test]
    fn pacer_long_run_rate_is_bounded(
        burst in 1u32..40,
        segments in prop::collection::vec(
            // (rate Mbps, duration ms, send during this segment?)
            (1.0f64..50.0, 1u64..400, any::<bool>()),
            1..12,
        ),
    ) {
        let mut p = Pacer::new(Some(Rate::from_mbps(segments[0].0)), burst);
        let capacity = burst as u64 * MTU_BYTES;
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let mut budget_bytes = capacity as f64;
        for &(mbps, ms, active) in &segments {
            p.set_rate(now, Some(Rate::from_mbps(mbps)));
            let end = now + SimDuration::from_millis(ms);
            budget_bytes += mbps * 1e6 / 8.0 * (ms as f64 / 1e3);
            if active {
                let (s, t) = greedy_send(&mut p, now, end);
                sent += s;
                now = t.max(end);
            } else {
                // Idle gap: tokens accrue but are capped at capacity.
                now = end;
            }
        }
        // One extra MTU of slack for the release-epsilon.
        prop_assert!(
            (sent as f64) <= budget_bytes + MTU_BYTES as f64,
            "sent {sent} > budget {budget_bytes:.0} (burst {burst})"
        );
    }

    /// BbrLite's bandwidth estimate converges to within 15% of the path
    /// capacity and stays there across app-limited trickle gaps (the gaps
    /// must neither drag the estimate down nor ratchet it up).
    #[test]
    fn bbr_converges_despite_app_limited_gaps(
        capacity in 5.0f64..80.0,
        rtt_ms in 5u64..40,
        gaps in 1usize..6,
    ) {
        let mut cc = BbrLite::new();
        let mut now = ack_epochs(&mut cc, SimTime::ZERO, capacity, rtt_ms, 25);
        for _ in 0..gaps {
            cc.on_app_limited(now);
            now = ack_epochs(&mut cc, now, 0.5, rtt_ms, 1);
            cc.on_app_limited(now);
            now = ack_epochs(&mut cc, now, capacity, rtt_ms, 3);
        }
        let bw = cc.btlbw_bps() / 1e6;
        prop_assert!(
            (bw - capacity).abs() / capacity < 0.15,
            "btlbw {bw:.2} Mbps vs capacity {capacity:.2} Mbps"
        );
    }

    /// Idle restarts never ratchet the bandwidth estimate upward, no
    /// matter how many occur or how long the gaps are.
    #[test]
    fn bbr_idle_restarts_never_ratchet(
        capacity in 5.0f64..80.0,
        rtt_ms in 5u64..40,
        restarts in 2usize..12,
        gap_ms in 100u64..3000,
    ) {
        let mut cc = BbrLite::new();
        let mut now = ack_epochs(&mut cc, SimTime::ZERO, capacity, rtt_ms, 25);
        let before = cc.btlbw_bps();
        for _ in 0..restarts {
            cc.on_idle_restart(now);
            now += SimDuration::from_millis(gap_ms);
            now = ack_epochs(&mut cc, now, capacity, rtt_ms, 3);
        }
        let after = cc.btlbw_bps();
        prop_assert!(
            after <= before * 1.05,
            "idle restarts ratcheted btlbw {:.2} -> {:.2} Mbps",
            before / 1e6,
            after / 1e6
        );
    }
}

/// Feed `epochs` RTT-length ACK epochs at `capacity_mbps` into `cc`,
/// starting at `start`; returns the time after the last ACK.
fn ack_epochs(
    cc: &mut BbrLite,
    start: SimTime,
    capacity_mbps: f64,
    rtt_ms: u64,
    epochs: usize,
) -> SimTime {
    let rtt = SimDuration::from_millis(rtt_ms);
    let bytes_per_epoch = (capacity_mbps * 1e6 / 8.0 * rtt.as_secs_f64()) as u64;
    let mut now = start;
    for _ in 0..epochs {
        cc.on_ack(now, bytes_per_epoch / 2, Some(rtt), false);
        now += rtt / 2;
        cc.on_ack(now, bytes_per_epoch / 2, Some(rtt), false);
        now += rtt / 2;
    }
    now
}
