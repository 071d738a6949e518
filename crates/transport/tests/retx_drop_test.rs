use netsim::{FlowId, NodeId, Packet, Payload, Rate, SimDuration, SimTime, MSS_BYTES};
use transport::quic::QuicSender;
use transport::TcpConfig;

/// Feed a QUIC ACK (ample flow-control credit) to `s` through
/// `handle_packet`, as its host does; what it permits is pushed into `out`.
fn ack(
    s: &mut QuicSender,
    now: SimTime,
    largest: u64,
    echo_ts: SimTime,
    ranges: [(u64, u64); 3],
    out: &mut Vec<Packet>,
) {
    let payload = Payload::QuicAck {
        largest,
        echo_ts,
        ranges,
        max_data: 8 << 20,
    };
    let pkt = Packet::new(NodeId(1), NodeId(0), FlowId(1), payload);
    assert!(s.handle_packet(now, &pkt, out));
}

#[test]
fn paced_retx_not_dropped_when_pacer_blocked() {
    let cfg = TcpConfig {
        max_burst_packets: 4,
        ..Default::default()
    };
    let mut s = QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg);
    let mut out = Vec::new();
    // 5 MSS stream, paced at a trickle: only 4 packets fit the burst bucket.
    let total = 5 * MSS_BYTES;
    s.start_transfer(SimTime::ZERO, total, Some(Rate::from_bps(100_000.0)));
    s.pump(SimTime::ZERO, &mut out);
    assert_eq!(out.len(), 4, "burst-limited initial send");
    out.clear();

    // ACK only packet 3 => packet 0 is declared lost (threshold 3) and its
    // bytes queued for retransmission; the pacer has ~0 tokens so the
    // retransmission cannot go out yet.
    let t1 = SimTime::from_millis(10);
    ack(
        &mut s,
        t1,
        3,
        SimTime::ZERO,
        [(3, 4), (0, 0), (0, 0)],
        &mut out,
    );
    assert_eq!(s.stats().loss_events, 1);

    // Now ACK packets 1 and 2 too, and give the pacer plenty of time.
    let t2 = SimTime::from_millis(20);
    ack(
        &mut s,
        t2,
        3,
        SimTime::ZERO,
        [(1, 4), (0, 0), (0, 0)],
        &mut out,
    );

    // Drive ticks for 10 simulated minutes, acking every packet that comes
    // out. The lost first MSS must eventually be retransmitted and the
    // stream complete.
    let mut now = t2;
    let mut largest = 3u64;
    for _ in 0..100_000 {
        if s.is_idle() {
            break;
        }
        let wake = match s.next_wakeup(now) {
            Some(w) => w.max(now + SimDuration::from_micros(1)),
            None => now + SimDuration::from_millis(100),
        };
        now = wake;
        let mut fresh = Vec::new();
        s.on_tick(now, &mut fresh);
        for p in fresh {
            if let Payload::QuicData { pkt_num, .. } = p.payload {
                largest = largest.max(pkt_num);
                let mut o = Vec::new();
                let ranges = [(0, largest + 1), (0, 0), (0, 0)];
                ack(
                    &mut s,
                    now + SimDuration::from_millis(1),
                    largest,
                    now,
                    ranges,
                    &mut o,
                );
                out.extend(o);
            }
        }
        if now > SimTime::from_secs(600) {
            break;
        }
    }
    assert!(
        s.is_idle(),
        "stream wedged: lost bytes were dropped from the retx queue"
    );
}
