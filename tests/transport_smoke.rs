//! Tier-1 mirror of the transport crate's reliability battery.
//!
//! Plain `cargo test` runs only this root package, which is how
//! `crates/transport/tests/retx_drop_test.rs` stayed red on main unnoticed.
//! These cases drive both wire protocols through the public `mux` API
//! only, at Sammy's operating point — a pace far below capacity, under
//! loss — and through one ordinary request/response on the dumbbell.

use sammy_repro::netsim::{
    Dumbbell, DumbbellConfig, FlowId, NodeId, Packet, Payload, Rate, SimDuration, SimTime,
    Simulator, MSS_BYTES,
};
use sammy_repro::transport::{
    Protocol, ReceiverEndpoint, SenderEndpoint, TcpConfig, TransportReceiver, TransportSender,
};

const PROTOCOLS: [Protocol; 2] = [Protocol::Tcp, Protocol::Quic];

/// The paced-loss reproducer: a 5-segment transfer at a 100 kbps trickle
/// with a 4-packet burst; the first segment is lost, so its retransmission
/// becomes due while the pacer is empty. It must still go out — once the
/// pacer opens, or at the latest when the retransmission timer fires — and
/// the transfer must complete with every byte delivered exactly once in
/// order.
#[test]
fn paced_retransmission_survives_an_empty_pacer() {
    for proto in PROTOCOLS {
        let cfg = TcpConfig {
            transport: proto,
            max_burst_packets: 4,
            ..Default::default()
        };
        let (a, b, flow) = (NodeId(0), NodeId(1), FlowId(1));
        let mut s = TransportSender::new(a, b, flow, cfg);
        let mut r = TransportReceiver::new(b, a, flow, proto);
        let total = 5 * MSS_BYTES;
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        s.start_transfer(now, total, Some(Rate::from_bps(100_000.0)));
        s.pump(now, &mut out);
        assert_eq!(out.len(), 4, "{proto}: burst-limited initial send");

        let mut first = true;
        let mut retransmitted = 0;
        while !s.is_idle() {
            assert!(now < SimTime::from_secs(600), "{proto}: transfer wedged");
            let sent_at = now;
            now += SimDuration::from_millis(10);
            for mut pkt in std::mem::take(&mut out) {
                if std::mem::take(&mut first) {
                    continue; // the very first segment is lost
                }
                if let Payload::Data { retx, .. } | Payload::QuicData { retx, .. } = pkt.payload {
                    retransmitted += retx as u32;
                }
                pkt.sent_at = sent_at;
                let ack = r.on_data(now, &pkt).expect("data packet");
                assert!(s.handle_packet(now, &ack, &mut out), "{proto}: ack");
            }
            if out.is_empty() {
                if let Some(wake) = s.next_wakeup(now) {
                    now = wake.max(now + SimDuration::from_micros(1));
                    s.on_tick(now, &mut out);
                }
            }
        }
        assert!(
            retransmitted >= 1,
            "{proto}: the lost segment was never resent"
        );
        assert_eq!(r.contiguous_bytes(), total, "{proto}");
        assert_eq!(s.take_completed().len(), 1, "{proto}");
        assert!(s.stats().retx_bytes >= MSS_BYTES, "{proto}");
    }
}

/// One request/response per protocol on the dumbbell, paced above the
/// bottleneck into a shallow queue (paced *and* lossy): the request
/// completes, the client holds every byte, the sender ends idle.
#[test]
fn request_response_completes_on_the_dumbbell() {
    for proto in PROTOCOLS {
        let mut sim = Simulator::new();
        let db = Dumbbell::build(
            &mut sim,
            DumbbellConfig {
                bottleneck_rate: Rate::from_mbps(30.0),
                queue_bdp_multiple: 5.0,
                ..Default::default()
            },
        );
        let (server, client, flow) = (db.left[0], db.right[0], FlowId(1));
        let cfg = TcpConfig {
            transport: proto,
            max_burst_packets: 15,
            ..Default::default()
        };
        sim.set_endpoint(
            server,
            Box::new(SenderEndpoint::new(server, client, flow, cfg)),
        );
        sim.set_endpoint(
            client,
            Box::new(ReceiverEndpoint::with_protocol(client, server, flow, proto)),
        );
        let req = Payload::Request {
            id: 0,
            size: 700_000,
            pace_bps: Some(45e6),
        };
        sim.inject(client, Packet::new(client, server, flow, req));
        sim.run_until(SimTime::from_secs(120));

        let ep: &mut SenderEndpoint = sim.endpoint_mut(server).unwrap();
        assert_eq!(ep.completed.len(), 1, "{proto}: transfer must complete");
        assert_eq!(ep.completed[0].bytes, 700_000);
        assert!(ep.sender().is_idle(), "{proto}: sender not idle");
        assert!(ep.sender().stats().retx_packets > 0, "{proto}: no loss");
        let rx: &mut ReceiverEndpoint = sim.endpoint_mut(client).unwrap();
        assert_eq!(rx.receiver().contiguous_bytes(), 700_000, "{proto}");
    }
}
