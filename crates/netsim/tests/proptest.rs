//! Property-based tests for the packet simulator.

use netsim::prelude::*;
use proptest::prelude::*;

/// Inject `n` equally-sized packets and check conservation: every packet is
/// either delivered or dropped, never duplicated or lost silently.
fn run_injection(n: u64, size: u64, queue_bytes: u64, rate_mbps: f64) -> (u64, u64) {
    let mut sim = Simulator::new();
    let a = sim.add_node();
    let b = sim.add_node();
    let (link, _) = sim.add_duplex_link(
        a,
        b,
        LinkConfig::new(
            Rate::from_mbps(rate_mbps),
            SimDuration::from_millis(1),
            queue_bytes,
        ),
    );
    sim.add_route(a, b, link);
    for seq in 0..n {
        let pkt = Packet::new(a, b, FlowId(1), Payload::Datagram { seq }).with_size(size);
        sim.inject(a, pkt);
    }
    sim.run_to_completion();
    let st = sim.flow_stats(FlowId(1));
    (st.delivered_packets, st.dropped_packets)
}

proptest! {
    /// Packet conservation: delivered + dropped == injected.
    #[test]
    fn packet_conservation(
        n in 1u64..500,
        size in 40u64..1500,
        queue_kb in 2u64..100,
        rate in 1.0f64..100.0,
    ) {
        let (delivered, dropped) = run_injection(n, size, queue_kb * 1024, rate);
        prop_assert_eq!(delivered + dropped, n);
        // At least one packet always fits (queue >= 2 kB >= max size + wire slot).
        prop_assert!(delivered >= 1);
    }

    /// With a queue large enough for everything, nothing is dropped and the
    /// total delivery time matches serialization + propagation.
    #[test]
    fn lossless_when_queue_fits(n in 1u64..200, rate in 1.0f64..100.0) {
        let size = 1500u64;
        let (delivered, dropped) = run_injection(n, size, n * size + size, rate);
        prop_assert_eq!(delivered, n);
        prop_assert_eq!(dropped, 0);
    }

    /// Deterministic replay: identical runs give identical outcomes.
    #[test]
    fn deterministic(n in 1u64..200, queue_kb in 2u64..50) {
        let a = run_injection(n, 1000, queue_kb * 1024, 10.0);
        let b = run_injection(n, 1000, queue_kb * 1024, 10.0);
        prop_assert_eq!(a, b);
    }

    /// run_until never goes past the deadline, and the clock never goes
    /// backwards across repeated calls.
    #[test]
    fn clock_monotone(deadlines in prop::collection::vec(0u64..10_000, 1..20)) {
        let mut sim = Simulator::new();
        let a = sim.add_node();
        let b = sim.add_node();
        let (l, _) = sim.add_duplex_link(a, b, LinkConfig::new(
            Rate::from_mbps(10.0),
            SimDuration::from_millis(1),
            100_000,
        ));
        sim.add_route(a, b, l);
        let mut sorted = deadlines.clone();
        sorted.sort();
        let mut prev = SimTime::ZERO;
        for d in sorted {
            let t = sim.run_until(SimTime::from_millis(d));
            prop_assert!(t >= prev);
            prop_assert!(t <= SimTime::from_millis(d));
            prev = t;
        }
    }
}
