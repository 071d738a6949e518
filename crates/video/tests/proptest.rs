//! Property-based tests for the video substrate: player invariants over
//! arbitrary network schedules, buffer conservation, and QoE accounting.

use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::Arc;
use video::{FixedRung, Ladder, Player, PlayerConfig, PlayerState, Title, TitleConfig, VmafModel};

fn title(chunks: u64) -> Arc<Title> {
    Arc::new(Title::generate(
        Ladder::lab(&VmafModel::standard()),
        &TitleConfig {
            duration: SimDuration::from_secs(4 * chunks),
            size_cv: 0.0,
            vmaf_sd: 0.0,
            seed: 0,
        },
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever per-chunk download times the network produces, the player
    /// terminates, plays every second of content exactly once, and its
    /// rebuffer accounting is consistent.
    #[test]
    fn player_conserves_content(
        chunks in 2u64..30,
        dl_ms in prop::collection::vec(1u64..20_000, 2..30),
    ) {
        let t = title(chunks);
        let mut p = Player::new(
            t,
            Box::new(FixedRung(1)),
            PlayerConfig::default(),
            SimTime::ZERO,
        );
        let mut now = SimTime::ZERO;
        let mut i = 0usize;
        for _ in 0..10_000 {
            if p.state() == PlayerState::Ended {
                break;
            }
            if let Some(_req) = p.poll_request(now) {
                let dl = SimDuration::from_millis(dl_ms[i % dl_ms.len()]);
                i += 1;
                now += dl;
                p.on_chunk_complete(now, dl);
            } else if let Some(d) = p.next_deadline(now) {
                now = d.max(now + SimDuration::from_millis(1));
                p.advance_to(now);
            } else {
                now += SimDuration::from_millis(500);
                p.advance_to(now);
            }
        }
        prop_assert_eq!(p.state(), PlayerState::Ended);
        let q = p.qoe();
        prop_assert_eq!(q.played, SimDuration::from_secs(4 * chunks));
        // Playback can't finish before the content's duration has elapsed
        // since playback start.
        prop_assert!(q.play_delay.is_some());
        // Rebuffer time is bounded by wall clock minus content played.
        let wall = now.as_secs_f64();
        prop_assert!(q.rebuffer_time.as_secs_f64() <= wall);
        // VMAF is within the rung's range.
        let v = q.mean_vmaf.unwrap();
        prop_assert!(v > 0.0 && v <= 100.0);
    }

    /// The buffer level never exceeds max_buffer + one chunk (requests are
    /// gated on room for the next chunk).
    #[test]
    fn buffer_never_wildly_overfills(chunks in 5u64..40, dl_us in 1u64..100_000) {
        let t = title(chunks);
        let max_buffer = SimDuration::from_secs(16);
        let mut p = Player::new(
            t,
            Box::new(FixedRung(0)),
            PlayerConfig {
                start_threshold: SimDuration::from_secs(4),
                resume_threshold: SimDuration::from_secs(4),
                max_buffer,
            },
            SimTime::ZERO,
        );
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            if p.state() == PlayerState::Ended {
                break;
            }
            prop_assert!(
                p.buffer_level() <= max_buffer + SimDuration::from_secs(4),
                "buffer {} exceeded cap",
                p.buffer_level()
            );
            if let Some(_req) = p.poll_request(now) {
                let dl = SimDuration::from_micros(dl_us);
                now += dl;
                p.on_chunk_complete(now, dl);
            } else if let Some(d) = p.next_deadline(now) {
                now = d.max(now + SimDuration::from_millis(1));
                p.advance_to(now);
            } else {
                now += SimDuration::from_secs(1);
                p.advance_to(now);
            }
        }
        prop_assert_eq!(p.state(), PlayerState::Ended);
    }

    /// Play delay equals the time the startup buffer took to fill: with a
    /// constant download time per chunk, that's chunks_needed x dl.
    #[test]
    fn play_delay_formula(dl_ms in 100u64..3000) {
        let t = title(10);
        let mut p = Player::new(
            t,
            Box::new(FixedRung(0)),
            PlayerConfig {
                start_threshold: SimDuration::from_secs(8), // 2 chunks
                resume_threshold: SimDuration::from_secs(4),
                max_buffer: SimDuration::from_secs(240),
            },
            SimTime::ZERO,
        );
        let mut now = SimTime::ZERO;
        while p.state() == PlayerState::Startup {
            if let Some(_r) = p.poll_request(now) {
                now += SimDuration::from_millis(dl_ms);
                p.on_chunk_complete(now, SimDuration::from_millis(dl_ms));
            }
        }
        let q = p.qoe();
        prop_assert_eq!(q.play_delay, Some(SimDuration::from_millis(2 * dl_ms)));
    }
}
