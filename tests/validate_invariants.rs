//! Mutant-mode harness for the runtime invariant checker.
//!
//! Each test injects one known corruption through a `mutant_*` hook and
//! proves the checker catches it — panicking with *exactly* the intended
//! invariant's tag (see `netsim::invariants` for the tag registry). A
//! healthy-run control proves the checks stay silent on correct code.
//!
//! The whole file is compiled only under `--features validate`; without
//! the feature the mutant hooks (and the checks they trip) do not exist.
#![cfg(feature = "validate")]

use sammy_repro::netsim::invariants::{panic_message, violation_tag};
use sammy_repro::netsim::{
    Dumbbell, DumbbellConfig, FlowId, NodeId, Packet, Payload, Rate, SimDuration, SimTime,
    Simulator, MSS_BYTES,
};
use sammy_repro::sammy_bench::lab::{
    chaos_fluid_download, chaos_packet_download, chaos_profile, single_flow, LabArm, LabConfig,
};
use sammy_repro::transport::{QuicSender, ReceiverEndpoint, SenderEndpoint, TcpConfig};
use sammy_repro::video::{FixedRung, Ladder, Player, PlayerConfig, Title, TitleConfig, VmafModel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Run `f`, assert it panics, and assert the panic is a violation of
/// exactly the `name` invariant (tag-prefixed message).
fn expect_violation(name: &str, f: impl FnOnce()) {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("mutant must trip an invariant");
    let msg = panic_message(&*err);
    assert!(
        msg.starts_with(&violation_tag(name)),
        "expected a [{name}] violation, got: {msg}"
    );
}

/// A simulator stepped to the middle of an unpaced 5 MB transfer: links
/// busy, packet-store ids cycling, queue loaded — every engine invariant
/// has live state to check.
fn mid_transfer_sim() -> (Simulator, Dumbbell) {
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
            pace_bps: None,
        },
    );
    sim.inject(db.right[0], req);
    sim.run_until(SimTime::from_millis(500));
    (sim, db)
}

#[test]
fn byte_leak_mutant_trips_queue_conservation() {
    let (mut sim, _db) = mid_transfer_sim();
    expect_violation("queue-byte-conservation", || {
        sim.mutant_queue_byte_leak();
    });
}

#[test]
fn reorder_tick_mutant_trips_dispatch_order() {
    let (mut sim, _db) = mid_transfer_sim();
    expect_violation("dispatch-order", || {
        sim.mutant_reorder_tick();
        // Mid-transfer the next pending event (ACK clocking, link
        // serialization) is well inside the jumped-over millisecond.
        for _ in 0..100 {
            sim.step();
        }
    });
}

#[test]
fn phantom_inject_mutant_trips_topology_conservation() {
    let (mut sim, _db) = mid_transfer_sim();
    expect_violation("topology-packet-conservation", || {
        sim.mutant_phantom_inject();
    });
}

#[test]
fn shortened_delay_mutant_trips_wire_order() {
    let (mut sim, _db) = mid_transfer_sim();
    expect_violation("wire-order", || {
        sim.mutant_shorten_delays();
        // Mid-transfer the bottleneck has data on its wire; its next start
        // would now arrive ahead of them.
        for _ in 0..100 {
            sim.step();
        }
    });
}

#[test]
fn store_double_free_mutant_trips_packet_store() {
    let (mut sim, _db) = mid_transfer_sim();
    expect_violation("packet-store", || {
        sim.mutant_store_double_free();
    });
}

#[test]
fn negative_buffer_mutant_trips_player_conservation() {
    let title = Arc::new(Title::generate(
        Ladder::lab(&VmafModel::standard()),
        &TitleConfig {
            duration: SimDuration::from_secs(60),
            chunk_duration: SimDuration::from_secs(4),
            size_cv: 0.0,
            vmaf_sd: 0.0,
            seed: 0,
        },
    ));
    let mut p = Player::new(
        title,
        Box::new(FixedRung(2)),
        PlayerConfig::default(),
        SimTime::ZERO,
    );
    let mut now = SimTime::ZERO;
    let _ = p.poll_request(now).expect("first request");
    now += SimDuration::from_millis(10);
    p.on_chunk_complete(now, SimDuration::from_millis(10));
    expect_violation("player-buffer-conservation", || {
        p.mutant_negative_buffer();
        p.advance_to(now + SimDuration::from_millis(1));
    });
}

/// The bug the sender core removed, re-introduced: a QUIC retransmission
/// taken off its queue before the pacing gate and dropped on the pacer's
/// "no". The byte ledger (lost = retransmitted + acked + queued) must
/// notice on the very next pump.
#[test]
fn consume_before_gate_mutant_trips_retx_queue_conservation() {
    // Sammy's operating point: a trickle pace, a loss, an empty pacer.
    let cfg = TcpConfig {
        max_burst_packets: 4,
        ..Default::default()
    };
    let mut s = QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg);
    let mut out = Vec::new();
    let pace = Some(Rate::from_bps(100_000.0));
    s.start_transfer(SimTime::ZERO, 5 * MSS_BYTES, pace);
    s.pump(SimTime::ZERO, &mut out);
    assert_eq!(out.len(), 4, "burst-limited initial send");
    // ACK only packet 3: packet 0 is declared lost, and its retransmission
    // waits in the queue because the pacer has no tokens.
    let t1 = SimTime::from_millis(10);
    let ack = Payload::QuicAck {
        largest: 3,
        echo_ts: SimTime::ZERO,
        ranges: [(3, 4), (0, 0), (0, 0)],
        max_data: 8 << 20,
    };
    assert!(s.handle_packet(
        t1,
        &Packet::new(NodeId(1), NodeId(0), FlowId(1), ack),
        &mut out
    ));
    assert_eq!(s.stats().loss_events, 1);
    assert_eq!(out.len(), 4, "retransmission held back by the pacer");
    expect_violation("retx-queue-conservation", || {
        s.mutant_consume_before_gate();
        s.pump(t1, &mut out);
    });
}

/// Control: with every invariant armed, healthy code must run clean —
/// a full Sammy lab session plus a slice of the chaos sweep.
#[test]
fn healthy_runs_raise_no_violations() {
    let cfg = LabConfig {
        run_for: SimDuration::from_secs(30),
        ..Default::default()
    };
    let r = single_flow(LabArm::Sammy, &cfg);
    assert_eq!(r.rebuffers, 0);

    for seed in 0..8u64 {
        let p = chaos_profile(seed);
        let pkt = chaos_packet_download(&p);
        let fluid = chaos_fluid_download(&p);
        assert!(pkt > 0.0 && fluid > 0.0);
    }
}
