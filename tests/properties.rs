//! Cross-crate property-based tests on core invariants.

use proptest::prelude::*;
use sammy_repro::abr;
use sammy_repro::fluidsim::{download_chunk, NetworkProfile};
use sammy_repro::netsim::{Rate, SimDuration};
use sammy_repro::sammy_core::analysis;
use sammy_repro::sammy_core::PaceSelector;
use sammy_repro::video::{Ladder, Title, TitleConfig, VmafModel};

fn profile(capacity_mbps: f64) -> NetworkProfile {
    NetworkProfile {
        capacity: Rate::from_mbps(capacity_mbps),
        base_rtt: SimDuration::from_millis(30),
        bufferbloat: SimDuration::from_millis(40),
        ambient_loss: 0.001,
        self_loss: 0.01,
        jitter_cv: 0.0,
        fade_prob: 0.0,
        fade_depth: 0.1,
    }
}

proptest! {
    /// The pace multiplier always lies between c1 and c0.
    #[test]
    fn pace_multiplier_bounded(c0 in 0.5f64..8.0, c1 in 0.5f64..8.0, fill in -0.5f64..1.5) {
        let p = PaceSelector::new(c0, c1);
        let m = p.multiplier(fill);
        let (lo, hi) = if c0 < c1 { (c0, c1) } else { (c1, c0) };
        prop_assert!(m >= lo - 1e-12 && m <= hi + 1e-12);
    }

    /// Theorem A.1 round trip: buffer_after and achievable_bitrate are
    /// inverses.
    #[test]
    fn theorem_a1_roundtrip(
        b0 in 0.0f64..300.0,
        dur in 10.0f64..3600.0,
        tput in 1e6f64..1e8,
        ratio in 0.05f64..1.0,
    ) {
        let bitrate = tput * ratio;
        let b_end = analysis::buffer_after(b0, dur, bitrate, tput);
        let back = analysis::achievable_bitrate(b0, b_end, dur, tput);
        prop_assert!((back - bitrate).abs() / bitrate < 1e-9);
    }

    /// Eq. 1: the minimum throughput decreases monotonically with buffer
    /// and scales linearly with the bitrate.
    #[test]
    fn eq1_monotonicity(beta in 0.1f64..1.0, r in 1e5f64..2e7, b in 0.0f64..200.0) {
        let d_t = 20.0;
        let x1 = abr::hyb_min_throughput_bps(beta, r, b, d_t);
        let x2 = abr::hyb_min_throughput_bps(beta, r, b + 10.0, d_t);
        prop_assert!(x2 < x1);
        let x_double = abr::hyb_min_throughput_bps(beta, 2.0 * r, b, d_t);
        prop_assert!((x_double - 2.0 * x1).abs() / x1 < 1e-9);
    }

    /// Fluid download time is monotone: more bytes never download faster,
    /// and — within the uncongested regime — a higher pace never downloads
    /// slower. (Crossing the congestion boundary legitimately inflates the
    /// RTT, which can slow a tiny transfer; that is the behaviour Sammy
    /// exploits, not a model bug.)
    #[test]
    fn fluid_download_monotone(
        bytes in 10_000u64..10_000_000,
        pace_ratio in 0.05f64..0.45,
        cap in 5.0f64..200.0,
    ) {
        let pace_mbps = cap * pace_ratio; // 2x pace still below capacity
        let p = profile(cap);
        let t1 = download_chunk(&p, bytes, Some(Rate::from_mbps(pace_mbps)), false, 1.0)
            .download_time;
        let t2 = download_chunk(&p, bytes * 2, Some(Rate::from_mbps(pace_mbps)), false, 1.0)
            .download_time;
        prop_assert!(t2 >= t1);
        let t3 = download_chunk(&p, bytes, Some(Rate::from_mbps(pace_mbps * 2.0)), false, 1.0)
            .download_time;
        prop_assert!(t3 <= t1);
    }

    /// The fluid model never reports a throughput above min(pace, capacity).
    #[test]
    fn fluid_throughput_bounded(
        bytes in 100_000u64..5_000_000,
        pace_mbps in 1.0f64..200.0,
        cap in 2.0f64..150.0,
        cold in any::<bool>(),
    ) {
        let p = profile(cap);
        let out = download_chunk(
            &p,
            bytes,
            Some(Rate::from_mbps(pace_mbps)),
            cold,
            1.0,
        );
        let tput_mbps = bytes as f64 * 8.0 / out.download_time.as_secs_f64() / 1e6;
        prop_assert!(tput_mbps <= pace_mbps.min(cap) * 1.001,
            "tput {tput_mbps} exceeds min(pace {pace_mbps}, cap {cap})");
    }

    /// A fluid chunk's RTT is one of two values: the base RTT plus the
    /// bufferbloat when the chunk self-congests, the base RTT otherwise —
    /// unpaced, paced below or above the jittered capacity, cold or warm.
    /// A session's median RTT is whichever of the two got more download
    /// time, which is right only while no third value can be drawn.
    #[test]
    fn fluid_chunk_rtt_is_base_or_base_plus_bufferbloat(
        cap in 0.5f64..200.0,
        base_us in 100u64..300_000,
        bloat_us in 0u64..400_000,
        losses in (0.0f64..0.05, 0.0f64..0.1),
        pace in 0u32..3,
        pace_ratio in 0.05f64..0.9,
        cold in any::<bool>(),
        jitter in 0.09f64..3.0,
        bytes in 1_000u64..10_000_000,
    ) {
        let p = NetworkProfile {
            capacity: Rate::from_mbps(cap),
            base_rtt: SimDuration::from_micros(base_us),
            // A quarter of the profiles have no bufferbloat.
            bufferbloat: SimDuration::from_micros(if bloat_us < 100_000 { 0 } else { bloat_us }),
            ambient_loss: losses.0,
            self_loss: losses.1,
            jitter_cv: 0.1,
            fade_prob: 0.0,
            fade_depth: 0.1,
        };
        let avail_mbps = cap * jitter;
        let pace = match pace {
            0 => None,
            1 => Some(Rate::from_mbps(avail_mbps * pace_ratio)),
            _ => Some(Rate::from_mbps(avail_mbps / pace_ratio)),
        };
        let out = download_chunk(&p, bytes, pace, cold, jitter);
        let want = if out.congested { p.base_rtt + p.bufferbloat } else { p.base_rtt };
        prop_assert_eq!(
            out.rtt,
            want,
            "rtt {:?}, want {:?} (congested {}, pace {:?})",
            out.rtt,
            want,
            out.congested,
            pace
        );
    }

    /// HYB never selects a rung whose bitrate exceeds the analytical cap.
    #[test]
    fn hyb_respects_analytic_cap(tput_mbps in 0.5f64..100.0, buffer_s in 0u64..200) {
        use sammy_repro::video::{AbrContext, Abr, ChunkMeasurement, PlayerPhase, ThroughputHistory};
        use sammy_repro::netsim::SimTime;

        let title = Title::generate(
            Ladder::hd(&VmafModel::standard()),
            &TitleConfig { size_cv: 0.0, ..Default::default() },
        );
        let mut h = ThroughputHistory::new();
        for i in 0..5 {
            h.record(ChunkMeasurement {
                index: i,
                rung: 0,
                bytes: (tput_mbps * 1e6 / 8.0) as u64,
                download_time: SimDuration::from_secs(1),
                completed_at: SimTime::ZERO,
            });
        }
        let mut hyb = abr::Hyb;
        let ctx = AbrContext {
            now: SimTime::ZERO,
            phase: PlayerPhase::Playing,
            buffer: SimDuration::from_secs(buffer_s),
            max_buffer: SimDuration::from_secs(240),
            ladder: &title.ladder,
            upcoming: title.upcoming(0),
            history: &h,
            last_rung: None,
        };
        let d = hyb.select(&ctx);
        let cap = abr::hyb_max_bitrate_bps(0.5, tput_mbps * 1e6, buffer_s as f64, 20.0);
        prop_assert!(
            title.ladder.rung(d.rung).bitrate.bps() <= cap * 1.001,
            "rung {} bitrate {} exceeds cap {cap}",
            d.rung,
            title.ladder.rung(d.rung).bitrate.bps()
        );
    }

    /// Sammy's default parameters keep headroom over the Eq. 1 threshold
    /// for every buffer capacity and HYB beta in the practical range.
    #[test]
    fn sammy_defaults_always_safe(beta in 0.4f64..1.0, max_buf in 60.0f64..600.0) {
        let headroom = PaceSelector::default().validate_against_threshold(beta, 20.0, max_buf);
        prop_assert!(headroom >= 1.0, "headroom {headroom} at beta {beta}");
    }

    /// The engine's dense Vec-indexed routing tables behave exactly like a
    /// `HashMap<(node, dst), link>` reference model on random tree
    /// topologies: every injected packet follows the modelled path and is
    /// delivered (queues are oversized, so the model predicts zero drops),
    /// with per-flow stats matching the model's packet and byte counts in
    /// both the dense (< 4096) and overflow flow-id regimes.
    #[test]
    fn vec_routing_matches_hashmap_model(n in 2usize..8, seed in 1u64..1_000_000) {
        use sammy_repro::netsim::{FlowId, LinkConfig, Packet, Payload, Rate, Simulator};
        use std::collections::HashMap;

        let mut lcg = seed;
        let mut draw = move |m: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) % m
        };

        let mut sim = Simulator::new();
        let nodes: Vec<_> = (0..n).map(|_| sim.add_node()).collect();

        // Random spanning tree; duplex links with varying rates/delays and
        // queues far larger than the injected traffic.
        let mut adj = vec![Vec::new(); n]; // (neighbor, link out of this node)
        for i in 1..n {
            let p = draw(i as u64) as usize;
            let cfg = LinkConfig::new(
                Rate::from_mbps(10.0 + draw(50) as f64),
                SimDuration::from_millis(1 + draw(20)),
                10_000_000,
            );
            let (ab, ba) = sim.add_duplex_link(nodes[p], nodes[i], cfg);
            adj[p].push((i, ab));
            adj[i].push((p, ba));
        }

        // Reference model: next-hop link for every ordered pair, via BFS.
        let mut model = HashMap::new();
        for src in 0..n {
            let mut prev = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::from([src]);
            prev[src] = src;
            while let Some(u) = queue.pop_front() {
                for &(v, _) in &adj[u] {
                    if prev[v] == usize::MAX {
                        prev[v] = u;
                        queue.push_back(v);
                    }
                }
            }
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                // Walk back from dst to find the first hop out of src.
                let mut hop = dst;
                while prev[hop] != src {
                    hop = prev[hop];
                }
                let link = adj[src].iter().find(|&&(v, _)| v == hop).unwrap().1;
                model.insert((src, dst), link);
                sim.add_route(nodes[src], nodes[dst], link);
            }
        }

        // Model self-check: walking the table reaches the destination.
        for (&(src, dst), &first) in &model {
            let mut at = src;
            let mut via = first;
            for _ in 0..n {
                at = sim.link(via).dst.0;
                if at == dst {
                    break;
                }
                via = model[&(at, dst)];
            }
            prop_assert_eq!(at, dst, "model walk stranded {} -> {}", src, dst);
        }

        // Inject traffic on random pairs, mixing dense and overflow flow
        // ids, and tally what the model says each flow must deliver.
        let mut expect: HashMap<u64, (u64, u64)> = HashMap::new(); // id -> (pkts, bytes)
        for _ in 0..(1 + draw(12)) {
            let src = draw(n as u64) as usize;
            let dst = (src + 1 + draw(n as u64 - 1) as usize) % n;
            let flow = if draw(2) == 0 { draw(16) } else { 4096 + draw(16) };
            let bytes = 200 + draw(1300);
            let e = expect.entry(flow).or_insert((0, 0));
            e.0 += 1;
            e.1 += bytes;
            sim.inject(
                nodes[src],
                Packet::new(nodes[src], nodes[dst], FlowId(flow), Payload::Datagram { seq: 0 })
                    .with_size(bytes),
            );
        }
        sim.run_to_completion();
        for (&flow, &(pkts, bytes)) in &expect {
            let st = sim.flow_stats(FlowId(flow));
            prop_assert_eq!(st.delivered_packets, pkts, "flow {} packets", flow);
            prop_assert_eq!(st.delivered_bytes, bytes, "flow {} bytes", flow);
            prop_assert_eq!(st.dropped_packets, 0u64, "flow {} drops", flow);
        }
    }

    /// MPC's closed-form rebuffer term and rung choice agree with a naive
    /// per-chunk buffer walk over the same horizon, across random titles,
    /// ladders, lookahead offsets, and conditions. Ladders are drawn as the
    /// population draws them (standard lower rungs under a top of
    /// 1.75–16 Mbps), cut to their highest 1–9 rungs, so the window's row
    /// stride varies. Half the cases start in the last `horizon` chunks or
    /// at the end of the title, where the window is shorter than the
    /// horizon (`h < horizon`, down to `h == 0`).
    #[test]
    fn mpc_closed_form_matches_buffer_walk(
        title_seed in 0u64..5_000,
        top_mbps in 1.75f64..16.0,
        rungs in 1usize..=9,
        offset in 0usize..=300,
        near_end in any::<bool>(),
        buffer_s in 0u64..120,
        tput_mbps in 0.3f64..60.0,
        last in 0usize..10,
    ) {
        use sammy_repro::video::{Abr, AbrContext, ChunkMeasurement, PlayerPhase, ThroughputHistory};
        use sammy_repro::netsim::SimTime;

        let mut rates: Vec<f64> = [0.235, 0.56, 1.05, 1.75, 3.0, 4.3, 5.8, 8.1]
            .iter()
            .map(|m| m * 1e6)
            .filter(|&r| r < top_mbps * 1e6 * 0.99)
            .collect();
        rates.push(top_mbps * 1e6);
        let rates = &rates[rates.len().saturating_sub(rungs)..];
        let title = Title::generate(
            Ladder::from_bitrates(rates, &VmafModel::standard()),
            &TitleConfig { seed: title_seed, ..Default::default() },
        );
        let mut h = ThroughputHistory::new();
        for i in 0..5 {
            h.record(ChunkMeasurement {
                index: i,
                rung: 0,
                bytes: (tput_mbps * 1e6 / 8.0) as u64,
                download_time: SimDuration::from_secs(1),
                completed_at: SimTime::ZERO,
            });
        }
        let last_rung = if last >= title.ladder.len() { None } else { Some(last) };
        let from = if near_end { title.len() - offset % 6 } else { offset };
        let ctx = AbrContext {
            now: SimTime::ZERO,
            phase: PlayerPhase::Playing,
            buffer: SimDuration::from_secs(buffer_s),
            max_buffer: SimDuration::from_secs(240),
            ladder: &title.ladder,
            upcoming: title.upcoming(from),
            history: &h,
            last_rung,
        };
        let got = abr::Mpc::default().select(&ctx).rung;

        // Naive reference: simulate the buffer chunk by chunk (horizon 5,
        // the default) and take the same argmax with upward tie-breaks.
        let predicted = tput_mbps * 1e6 / 1.25; // window harmonic mean / (1 + margin)
        let horizon = 5usize.min(ctx.upcoming.len());
        let mut best = 0;
        let mut best_u = f64::NEG_INFINITY;
        for rung in 0..ctx.ladder.len() {
            let mut buf = buffer_s as f64;
            let mut rebuf = 0.0;
            let mut quality = 0.0;
            for i in 0..horizon {
                let c = ctx.upcoming.chunk(i);
                let dl = c.size(rung) as f64 * 8.0 / predicted;
                if dl > buf {
                    rebuf += dl - buf;
                    buf = 0.0;
                } else {
                    buf -= dl;
                }
                buf += c.duration().as_secs_f64();
                quality += ctx.ladder.rung(rung).vmaf * c.duration().as_secs_f64();
            }
            let switch = last_rung.map_or(0.0, |p| {
                (ctx.ladder.rung(p).vmaf - ctx.ladder.rung(rung).vmaf).abs()
            });
            let u = quality - 1.0 * switch - 500.0 * rebuf;
            if u >= best_u {
                best_u = u;
                best = rung;
            }
        }
        prop_assert_eq!(got, best, "closed form chose {}, buffer walk chose {}", got, best);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N homogeneous Reno bulk flows sharing the ISP-core queue under
    /// per-flow DRR fair queuing split the bottleneck evenly: Jain's
    /// index over delivered bytes is at least 0.95.
    #[test]
    fn drr_gives_reno_flows_jain_fairness(n in 2usize..6, rate_step in 0u64..3) {
        use sammy_repro::netsim::{
            Discipline, DrrConfig, DumbbellConfig, FlowId, Rate, SharedTopology,
            SharedTopologyConfig, SimTime, Simulator,
        };
        use sammy_repro::sammy_bench::shared::jain_index;
        use sammy_repro::traffic::BulkSender;
        use sammy_repro::transport::{ReceiverEndpoint, TcpConfig};

        let core_rate = Rate::from_mbps(16.0 + 8.0 * rate_step as f64);
        let lab = SharedTopologyConfig::from(DumbbellConfig {
            bottleneck_rate: core_rate,
            ..Default::default()
        });
        let topo_cfg = SharedTopologyConfig {
            cross_pairs: n,
            core: lab.core.with_discipline(Discipline::Drr(DrrConfig::default())),
            ..lab
        };
        let mut sim = Simulator::new();
        let topo = SharedTopology::build(&mut sim, topo_cfg);
        for i in 0..n {
            let flow = FlowId(100 + i as u64);
            BulkSender::new(
                topo.cross_sources[i],
                topo.cross_sinks[i],
                flow,
                TcpConfig::default(),
                100_000_000, // effectively unbounded for the run length
                SimTime::ZERO,
            )
            .install(&mut sim);
            sim.set_endpoint(
                topo.cross_sinks[i],
                Box::new(ReceiverEndpoint::new(
                    topo.cross_sinks[i],
                    topo.cross_sources[i],
                    flow,
                )),
            );
        }
        sim.run_until(SimTime::from_secs(8));
        let shares: Vec<f64> = (0..n)
            .map(|i| sim.flow_stats(FlowId(100 + i as u64)).delivered_bytes as f64)
            .collect();
        let j = jain_index(&shares);
        prop_assert!(j >= 0.95, "jain {} over {:?} at {:?}", j, shares, core_rate);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Queue byte/packet conservation across random multi-hop topologies
    /// with mixed queue disciplines (drop-tail, RED, CoDel, DRR, token
    /// bucket) and tight buffers: once the network drains, every flow's
    /// always-on ledger balances (injected = delivered + dropped, in both
    /// packets and bytes) and every queue is empty. Under
    /// `--features validate` the same runs also execute the engine's
    /// topology-conservation invariant at every run boundary.
    #[test]
    fn multi_hop_mixed_disciplines_conserve_bytes(n in 2usize..8, seed in 1u64..1_000_000) {
        use sammy_repro::netsim::{
            CoDelConfig, Discipline, DrrConfig, FlowId, LinkConfig, Packet, Payload,
            Rate, RedConfig, Simulator, TokenBucketConfig,
        };
        use std::collections::HashMap;

        let mut lcg = seed;
        let mut draw = move |m: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) % m
        };

        let mut sim = Simulator::new();
        let nodes: Vec<_> = (0..n).map(|_| sim.add_node()).collect();

        // Random spanning tree; each duplex link gets a random discipline
        // and a queue small enough that bursts overflow it.
        let mut adj = vec![Vec::new(); n];
        for i in 1..n {
            let p = draw(i as u64) as usize;
            let disc = match draw(5) {
                0 => Discipline::DropTail,
                1 => Discipline::Red(RedConfig::default()),
                2 => Discipline::CoDel(CoDelConfig::default()),
                3 => Discipline::Drr(DrrConfig::default()),
                _ => Discipline::TokenBucket(TokenBucketConfig::new(
                    Rate::from_mbps(2.0 + draw(20) as f64),
                    6_000,
                )),
            };
            let cfg = LinkConfig::new(
                Rate::from_mbps(10.0 + draw(50) as f64),
                SimDuration::from_millis(1 + draw(10)),
                3_000 + draw(40_000),
            )
            .with_discipline(disc);
            let (ab, ba) = sim.add_duplex_link(nodes[p], nodes[i], cfg);
            adj[p].push((i, ab));
            adj[i].push((p, ba));
        }

        // Routes for every ordered pair via BFS parent pointers.
        for src in 0..n {
            let mut prev = vec![usize::MAX; n];
            let mut queue = std::collections::VecDeque::from([src]);
            prev[src] = src;
            while let Some(u) = queue.pop_front() {
                for &(v, _) in &adj[u] {
                    if prev[v] == usize::MAX {
                        prev[v] = u;
                        queue.push_back(v);
                    }
                }
            }
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                let mut hop = dst;
                while prev[hop] != src {
                    hop = prev[hop];
                }
                let link = adj[src].iter().find(|&&(v, _)| v == hop).unwrap().1;
                sim.add_route(nodes[src], nodes[dst], link);
            }
        }

        // Burst random traffic between random pairs.
        let mut injected: HashMap<u64, (u64, u64)> = HashMap::new(); // id -> (pkts, bytes)
        for _ in 0..(5 + draw(60)) {
            let src = draw(n as u64) as usize;
            let dst = (src + 1 + draw(n as u64 - 1) as usize) % n;
            let flow = draw(6);
            let bytes = 200 + draw(1300);
            let e = injected.entry(flow).or_insert((0, 0));
            e.0 += 1;
            e.1 += bytes;
            sim.inject(
                nodes[src],
                Packet::new(nodes[src], nodes[dst], FlowId(flow), Payload::Datagram { seq: 0 })
                    .with_size(bytes),
            );
        }
        sim.run_to_completion();

        // Per-flow ledger: nothing created, nothing silently destroyed.
        for (&flow, &(pkts, bytes)) in &injected {
            let st = sim.flow_stats(FlowId(flow));
            prop_assert_eq!(st.injected_packets, pkts, "flow {} injected pkts", flow);
            prop_assert_eq!(st.injected_bytes, bytes, "flow {} injected bytes", flow);
            prop_assert_eq!(
                st.delivered_packets + st.dropped_packets, pkts,
                "flow {} pkts: delivered {} + dropped {} != {}",
                flow, st.delivered_packets, st.dropped_packets, pkts
            );
            prop_assert_eq!(
                st.delivered_bytes + st.dropped_bytes, bytes,
                "flow {} bytes: delivered {} + dropped {} != {}",
                flow, st.delivered_bytes, st.dropped_bytes, bytes
            );
        }
        // Every queue fully drained.
        for edges in adj.iter().skip(1) {
            for &(_, link) in edges {
                prop_assert_eq!(sim.link(link).queue.len(), 0usize);
                prop_assert_eq!(sim.link(link).queue.occupied_bytes(), 0u64);
            }
        }
    }
}
