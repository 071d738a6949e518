//! The fluid session runner.
//!
//! Drives a [`video::Player`] through the analytic network model and
//! collects the per-session metrics the paper's production experiments
//! report: QoE ([`video::QoeSummary`]) plus the congestion triple — average
//! chunk throughput (download-time weighted), retransmit fraction, and
//! median RTT (§5.1). The paper reads that median off a t-digest because a
//! real connection yields an unbounded stream of per-packet RTTs; a fluid
//! chunk's RTT is one of two values, so the median here is exact: whichever
//! got more download time.

use crate::network::{download_chunk, jitter_stream, NetworkProfile, IDLE_RESTART_AFTER};
use netsim::{Rate, SimDuration, SimTime};
use std::sync::Arc;
use video::{Abr, Player, PlayerConfig, PlayerState, QoeSummary, Title};

/// Startup threshold at a predicted fill ratio of [`START_SCALE`].
const START_BASE: SimDuration = SimDuration::from_secs(8);
/// Fill ratio `φ = estimate / initial bitrate` at which the startup
/// threshold is [`START_BASE`].
const START_SCALE: f64 = 4.0;
/// Lower clamp on the startup threshold's multiplier.
const START_LO: f64 = 0.8;
/// Upper clamp on the startup threshold's multiplier.
const START_HI: f64 = 2.0;
/// Player buffer capacity.
const MAX_BUFFER: SimDuration = SimDuration::from_secs(240);

/// The startup buffer threshold for one session:
/// `START_BASE · clamp(START_SCALE / φ, START_LO, START_HI)` with
/// `φ = estimate / initial bitrate`.
///
/// Production initial-phase logic uses its throughput estimate not just for
/// the rung but for how much buffer it must bank before starting playback:
/// with a confident, high estimate (downloads much faster than playback) a
/// small buffer suffices; with an estimate close to the chosen bitrate a
/// larger safety buffer is needed. An accurate estimate therefore improves
/// both initial quality *and* play delay — the §5.4 observation.
fn start_threshold(estimate: Option<Rate>, initial_bitrate: Rate) -> SimDuration {
    let phi = match estimate {
        Some(e) if initial_bitrate.bps() > 0.0 => e.bps() / initial_bitrate.bps(),
        // No estimate: assume the worst and bank the most.
        _ => START_LO.max(1e-6),
    };
    START_BASE * (START_SCALE / phi).clamp(START_LO, START_HI)
}

/// Everything the A/B harness needs from one simulated session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The player's QoE summary.
    pub qoe: QoeSummary,
    /// Download-time-weighted average chunk throughput (§5.1, Eq. 9).
    pub avg_chunk_throughput: Option<Rate>,
    /// Retransmitted bytes / total bytes.
    pub retx_fraction: f64,
    /// Median RTT (ms): the lower weighted median of the per-chunk RTTs,
    /// each weighted by its download time (a proxy for packets sent) — the
    /// base RTT unless congested chunks took longer; NaN for no chunk.
    pub median_rtt_ms: f64,
    /// Chunks downloaded.
    pub chunks: usize,
    /// Fraction of bytes sent while self-congesting the bottleneck.
    pub congested_byte_fraction: f64,
    /// Per-chunk throughput samples in Mbps (for p95 bucketing, Fig 3).
    pub chunk_throughputs_mbps: Vec<f64>,
}

/// One fluid session: takes the three required inputs (network profile,
/// title, ABR) and defaults everything else, so call sites only state
/// what they vary.
///
/// ```ignore
/// let outcome = SessionBuilder::new(&profile, title, abr)
///     .seed(42)
///     .run();
/// ```
pub struct SessionBuilder<'a> {
    /// The user's network.
    profile: &'a NetworkProfile,
    /// The title to stream.
    title: Arc<Title>,
    /// The ABR algorithm (consumed; algorithms carry per-session state).
    abr: Box<dyn Abr>,
    /// Historical estimate at session start (for the startup threshold).
    history_estimate: Option<Rate>,
    /// Initial-phase rung the ABR will pick (for the startup threshold).
    predicted_initial_rung: usize,
    /// Maximum wall-clock session time (sessions that stall forever are
    /// abandoned, like real users).
    max_wall_clock: SimDuration,
    /// RNG seed for capacity jitter.
    seed: u64,
    /// The capacity multipliers, one per chunk, when already drawn; `None`
    /// draws them from `seed` when the session runs.
    jitter: Option<&'a [f64]>,
    /// Fixed session-setup latency before the first chunk request
    /// (manifest fetch, DRM license, player init). Real play delays are
    /// dominated by this constant, which is why even large download-rate
    /// changes move play delay by only a few percent (§5.5).
    startup_latency: SimDuration,
}

impl<'a> SessionBuilder<'a> {
    /// Start a session on `profile` streaming `title` with `abr`.
    pub fn new(profile: &'a NetworkProfile, title: Arc<Title>, abr: Box<dyn Abr>) -> Self {
        SessionBuilder {
            profile,
            title,
            abr,
            history_estimate: None,
            predicted_initial_rung: 2,
            max_wall_clock: SimDuration::from_secs(3600),
            seed: 0,
            jitter: None,
            startup_latency: SimDuration::ZERO,
        }
    }

    /// Historical throughput estimate at session start (default: none);
    /// pass the device store's estimate.
    pub fn history_estimate(mut self, estimate: Option<Rate>) -> Self {
        self.history_estimate = estimate;
        self
    }

    /// Initial-phase rung the ABR will pick (default: 2).
    pub fn predicted_initial_rung(mut self, rung: usize) -> Self {
        self.predicted_initial_rung = rung;
        self
    }

    /// Maximum wall-clock session time before abandonment (default: 1 h).
    pub fn max_wall_clock(mut self, d: SimDuration) -> Self {
        self.max_wall_clock = d;
        self
    }

    /// RNG seed for capacity jitter (default: 0): the session plays
    /// [`jitter_stream`]`(profile, seed, chunks)`,
    /// drawn when it runs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Play an already drawn capacity-jitter stream, one multiplier per
    /// chunk of the title (chunk `i` downloads under `stream[i]`), instead
    /// of drawing one from the seed: handing in
    /// [`jitter_stream`]`(profile, s, chunks)` runs
    /// the session `.seed(s)` runs, bit for bit, so sessions that share a
    /// seed can share one draw.
    ///
    /// # Panics
    /// [`SessionBuilder::run`] panics if `stream` is shorter than the title.
    pub fn jitter(mut self, stream: &'a [f64]) -> Self {
        self.jitter = Some(stream);
        self
    }

    /// Fixed session-setup latency before the first chunk (default: zero).
    pub fn startup_latency(mut self, d: SimDuration) -> Self {
        self.startup_latency = d;
        self
    }

    /// Run the session to completion (or abandonment) and report its
    /// metrics.
    pub fn run(self) -> SessionOutcome {
        let SessionBuilder {
            profile,
            title,
            abr,
            history_estimate,
            predicted_initial_rung,
            max_wall_clock,
            seed,
            jitter,
            startup_latency,
        } = self;
        let drawn;
        let jitter = match jitter {
            Some(stream) => {
                assert!(
                    stream.len() >= title.len(),
                    "a jitter stream of {} multipliers for a title of {} chunks",
                    stream.len(),
                    title.len()
                );
                stream
            }
            None => {
                drawn = jitter_stream(profile, seed, title.len());
                &drawn
            }
        };

        let initial_bitrate = title.ladder.rung(predicted_initial_rung).bitrate;
        let threshold = start_threshold(history_estimate, initial_bitrate);
        let cfg = PlayerConfig {
            start_threshold: threshold.min(MAX_BUFFER),
            resume_threshold: SimDuration::from_secs(4).min(MAX_BUFFER),
            max_buffer: MAX_BUFFER,
        };
        let mut player = Player::new(title, abr, cfg, SimTime::ZERO);

        // The player was created at t=0 (the user's click); the first request
        // can only go out after the fixed setup latency.
        let mut now = SimTime::ZERO + startup_latency;
        let mut last_download_end: Option<SimTime> = None;
        let mut total_bytes = 0u64;
        let mut retx_bytes = 0.0f64;
        let mut congested_bytes = 0u64;
        // Download time spent at each of the two chunk RTTs.
        let (mut clear_time, mut congested_time) = (0.0, 0.0);
        // One sample per chunk; size the buffer once instead of growing it.
        let mut chunk_tputs = Vec::with_capacity(player.title().len());
        let deadline = SimTime::ZERO + max_wall_clock;

        loop {
            if player.state() == PlayerState::Ended {
                break;
            }
            if now >= deadline {
                player.abandon(now);
                break;
            }
            if let Some(req) = player.poll_request(now) {
                let cold = match last_download_end {
                    None => true,
                    Some(t) => now.saturating_since(t) > IDLE_RESTART_AFTER,
                };
                let out = download_chunk(profile, req.bytes, req.pace, cold, jitter[req.index]);
                now += out.download_time;
                last_download_end = Some(now);
                player.on_chunk_complete(now, out.download_time);

                // Telemetry: RTT exposure weighted by download duration (a
                // proxy for packets sent), retransmits, congestion exposure.
                let weight = out.download_time.as_secs_f64().max(1e-6);
                if out.congested {
                    congested_time += weight;
                } else {
                    clear_time += weight;
                }
                obs::counter!("fluidsim.chunks", 1);
                obs::span!("fluidsim.chunk_download", out.download_time.as_nanos());
                obs::trace_event!(
                    ChunkDone,
                    now.as_nanos(),
                    req.index as u64,
                    out.download_time.as_nanos() / 1_000_000
                );
                total_bytes += req.bytes;
                retx_bytes += req.bytes as f64 * out.loss;
                if out.congested {
                    congested_bytes += req.bytes;
                }
                chunk_tputs.push(req.bytes as f64 * 8.0 / out.download_time.as_secs_f64() / 1e6);
            } else if let Some(d) = player.next_deadline(now) {
                // Off period or rebuffering: jump to the player's next event.
                now = d.max(now + SimDuration::from_millis(1)).min(deadline);
                player.advance_to(now);
            } else {
                // Waiting with no deadline (e.g. rebuffering with a request
                // outstanding cannot happen here; defensive step).
                now += SimDuration::from_millis(100);
                player.advance_to(now);
            }
        }

        obs::counter!("fluidsim.sessions", 1);
        SessionOutcome {
            qoe: player.qoe(),
            avg_chunk_throughput: player.history().weighted_average(),
            retx_fraction: if total_bytes > 0 {
                retx_bytes / total_bytes as f64
            } else {
                0.0
            },
            median_rtt_ms: median_rtt_ms(profile, clear_time, congested_time),
            chunks: player.history().len(),
            congested_byte_fraction: if total_bytes > 0 {
                congested_bytes as f64 / total_bytes as f64
            } else {
                0.0
            },
            chunk_throughputs_mbps: chunk_tputs,
        }
    }
}

/// The lower weighted median of a session's chunk RTTs, in ms, from the
/// download time spent at each: `download_chunk` gives a chunk the base RTT,
/// or base plus bufferbloat when it self-congests, so the median is the
/// congested RTT when its time is larger, else the base RTT (an exact tie
/// goes to the lower value). NaN when no chunk was downloaded.
fn median_rtt_ms(profile: &NetworkProfile, clear_time: f64, congested_time: f64) -> f64 {
    if clear_time + congested_time == 0.0 {
        f64::NAN
    } else if congested_time > clear_time {
        (profile.base_rtt + profile.bufferbloat).as_millis_f64()
    } else {
        profile.base_rtt.as_millis_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr::{shared_history, HistoryPolicy, Mpc, ProductionAbr};
    use proptest::prelude::*;
    use video::{Ladder, TitleConfig, VmafModel};

    fn title(top_mbps: f64) -> Arc<Title> {
        let ladder = Ladder::from_bitrates(
            &[235e3, 560e3, 1_050e3, 1_750e3, top_mbps * 1e6],
            &VmafModel::standard(),
        );
        Arc::new(Title::generate(
            ladder,
            &TitleConfig {
                duration: SimDuration::from_secs(600),
                size_cv: 0.1,
                seed: 7,
                ..Default::default()
            },
        ))
    }

    /// A session as the tests run it: seed 42, everything else default.
    fn session<'a>(
        profile: &'a NetworkProfile,
        t: Arc<Title>,
        abr: Box<dyn Abr>,
    ) -> SessionBuilder<'a> {
        SessionBuilder::new(profile, t, abr).seed(42)
    }

    fn production(history_mbps: Option<f64>) -> Box<dyn Abr> {
        let store = shared_history();
        if let Some(m) = history_mbps {
            store.update(Rate::from_mbps(m));
        }
        Box::new(ProductionAbr::new(
            Mpc::default(),
            store,
            HistoryPolicy::AllSamples,
        ))
    }

    #[test]
    fn fast_network_full_quality_no_rebuffers() {
        let p = NetworkProfile::fast_cable();
        let t = title(4.0);
        let out = session(&p, t, production(Some(50.0))).run();
        assert_eq!(out.qoe.rebuffer_count, 0);
        assert_eq!(out.qoe.played, SimDuration::from_secs(600));
        // MPC should converge to the top rung: mean bitrate near 4 Mbps.
        assert!(out.qoe.mean_bitrate.unwrap().mbps() > 3.5);
        assert!(out.chunks == 150);
    }

    #[test]
    fn control_self_congests_sammy_does_not() {
        let p = NetworkProfile::fast_cable();
        let t = title(4.0);
        let control = session(&p, t.clone(), production(Some(50.0))).run();
        // Sammy-like pacing at 3x top bitrate = 12 Mbps << 100 Mbps capacity.
        let store = shared_history();
        store.update(Rate::from_mbps(50.0));
        let sammy = Box::new(sammy_core::Sammy::new(
            Mpc::default(),
            store,
            sammy_core::SammyConfig::default(),
        ));
        let paced = session(&p, t, sammy).run();

        // Both play everything at full quality.
        assert_eq!(paced.qoe.rebuffer_count, 0);
        assert!(
            (paced.qoe.mean_vmaf.unwrap() - control.qoe.mean_vmaf.unwrap()).abs() < 0.5,
            "pacing must not cost quality: {} vs {}",
            paced.qoe.mean_vmaf.unwrap(),
            control.qoe.mean_vmaf.unwrap()
        );
        // Chunk throughput drops substantially.
        let c = control.avg_chunk_throughput.unwrap().mbps();
        let s = paced.avg_chunk_throughput.unwrap().mbps();
        assert!(
            s < 0.5 * c,
            "expected big smoothing: control {c} vs sammy {s}"
        );
        // Congestion metrics improve.
        assert!(paced.retx_fraction < control.retx_fraction);
        assert!(paced.median_rtt_ms < control.median_rtt_ms);
        assert!(paced.congested_byte_fraction < 0.2);
        assert!(control.congested_byte_fraction > 0.8);
    }

    #[test]
    fn slow_network_rebuffers_or_downshifts() {
        // Capacity barely above the lowest rung: quality must be low.
        let p = NetworkProfile {
            capacity: Rate::from_mbps(0.6),
            ..NetworkProfile::fast_cable()
        };
        let t = title(4.0);
        let out = session(&p, t, production(None)).run();
        assert!(out.qoe.mean_bitrate.unwrap().mbps() < 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = NetworkProfile::fast_cable();
        let t = title(4.0);
        let a = session(&p, t.clone(), production(Some(30.0))).run();
        let b = session(&p, t, production(Some(30.0))).run();
        assert_eq!(a.qoe.mean_vmaf, b.qoe.mean_vmaf);
        assert_eq!(a.median_rtt_ms, b.median_rtt_ms);
        assert_eq!(a.chunk_throughputs_mbps, b.chunk_throughputs_mbps);
    }

    #[test]
    fn start_threshold_shrinks_with_confidence() {
        let bitrate = Rate::from_mbps(4.0);
        let low = start_threshold(Some(Rate::from_mbps(5.0)), bitrate);
        let high = start_threshold(Some(Rate::from_mbps(80.0)), bitrate);
        let none = start_threshold(None, bitrate);
        assert!(high < low, "confident estimate must start sooner");
        assert!(none >= low, "no estimate must be most conservative");
    }

    #[test]
    fn startup_latency_adds_to_play_delay() {
        let p = NetworkProfile::fast_cable();
        let t = title(4.0);
        let without = session(&p, t.clone(), production(Some(50.0)))
            .seed(77)
            .run();
        let with = session(&p, t, production(Some(50.0)))
            .seed(77)
            .startup_latency(SimDuration::from_secs(2))
            .run();
        let d_without = without.qoe.play_delay.unwrap().as_secs_f64();
        let d_with = with.qoe.play_delay.unwrap().as_secs_f64();
        assert!(
            (d_with - d_without - 2.0).abs() < 0.2,
            "latency must shift play delay by ~2 s: {d_without} -> {d_with}"
        );
    }

    #[test]
    fn abandoned_sessions_terminate() {
        // Hopeless network: capacity below the lowest rung.
        let p = NetworkProfile {
            capacity: Rate::from_bps(100_000.0),
            ..NetworkProfile::fast_cable()
        };
        let t = title(4.0);
        let out = session(&p, t, production(None))
            .max_wall_clock(SimDuration::from_secs(120))
            .run();
        // The runner must terminate and report something sane.
        assert!(out.qoe.played <= SimDuration::from_secs(120));
    }

    /// A session's outcome to the bit: `Debug` prints every `f64` field in
    /// its shortest round-trip form.
    fn bits(out: &SessionOutcome) -> String {
        format!("{out:?}")
    }

    fn sammy(history_mbps: f64) -> Box<dyn Abr> {
        let store = shared_history();
        store.update(Rate::from_mbps(history_mbps));
        Box::new(sammy_core::Sammy::new(
            Mpc::default(),
            store,
            sammy_core::SammyConfig::default(),
        ))
    }

    /// A session abandoned at `max_wall_clock` plays only a prefix of its
    /// stream; `.seed(s)` and the stream drawn from `s` still agree.
    #[test]
    fn abandoned_session_plays_the_seeds_stream() {
        let p = NetworkProfile {
            capacity: Rate::from_bps(100_000.0),
            fade_prob: 0.05,
            ..NetworkProfile::fast_cable()
        };
        let t = title(4.0);
        let wall = SimDuration::from_secs(120);
        let seeded = session(&p, t.clone(), production(None))
            .max_wall_clock(wall)
            .run();
        let stream = jitter_stream(&p, 42, t.len());
        let given = SessionBuilder::new(&p, t.clone(), production(None))
            .max_wall_clock(wall)
            .jitter(&stream)
            .run();
        assert!(seeded.chunks < t.len(), "the session must be abandoned");
        assert_eq!(bits(&seeded), bits(&given));
    }

    proptest! {
        /// `.seed(s)` plays `jitter_stream(profile, s, chunks)`: a session
        /// handed that stream (and a different seed, which it ignores)
        /// reports the same outcome to the bit, paced or not, with jitter,
        /// fades, both or neither, run to the end or abandoned.
        #[test]
        fn seeded_session_equals_its_drawn_stream(
            seed in any::<u64>(),
            capacity_mbps in 0.2f64..60.0,
            jitter_cv in 0.0f64..0.6,
            shape in 0u8..4,
            paced in any::<bool>(),
            abandon in any::<bool>(),
        ) {
            let p = NetworkProfile {
                capacity: Rate::from_mbps(capacity_mbps),
                jitter_cv: if shape & 1 == 0 { jitter_cv } else { 0.0 },
                fade_prob: if shape & 2 == 0 { 0.05 } else { 0.0 },
                ..NetworkProfile::fast_cable()
            };
            let t = title(4.0);
            let abr = || if paced { sammy(20.0) } else { production(Some(20.0)) };
            let wall = SimDuration::from_secs(if abandon { 60 } else { 3600 });
            let seeded = SessionBuilder::new(&p, t.clone(), abr())
                .max_wall_clock(wall)
                .seed(seed)
                .run();
            let stream = jitter_stream(&p, seed, t.len());
            let given = SessionBuilder::new(&p, t.clone(), abr())
                .max_wall_clock(wall)
                .seed(!seed)
                .jitter(&stream)
                .run();
            prop_assert_eq!(bits(&seeded), bits(&given));
        }
    }

    /// The lower weighted median by definition: the samples are sorted by
    /// `(value, weight)` and the total is summed in that order, so the
    /// result depends only on the multiset of samples, not on their order.
    /// NaN when there are none.
    fn sorted_weighted_median(samples: &mut [(f64, f64)]) -> f64 {
        samples.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let half = samples.iter().map(|&(_, w)| w).sum::<f64>() / 2.0;
        let mut cumulative = 0.0;
        samples
            .iter()
            .find(|&&(_, w)| {
                cumulative += w;
                cumulative >= half
            })
            .map_or(f64::NAN, |&(v, _)| v)
    }

    #[test]
    fn median_rtt_of_no_chunk_is_nan() {
        assert!(median_rtt_ms(&NetworkProfile::fast_cable(), 0.0, 0.0).is_nan());
    }

    #[test]
    fn median_rtt_of_one_state_is_its_rtt() {
        let p = NetworkProfile::fast_cable();
        assert_eq!(median_rtt_ms(&p, 0.4, 0.0), 20.0);
        assert_eq!(median_rtt_ms(&p, 0.0, 1e-6), 50.0);
    }

    #[test]
    fn median_rtt_at_an_exact_tie_is_the_base_rtt() {
        let p = NetworkProfile::fast_cable();
        assert_eq!(median_rtt_ms(&p, 1.5, 1.5), 20.0);
        assert_eq!(median_rtt_ms(&p, 1.5, 1.5 + 1e-12), 50.0);
    }

    proptest! {
        /// The two-sum rule against the definition, the sorted scan over
        /// the chunks' `(rtt, download time)` samples, for random chunk
        /// sequences (congested or not; bufferbloat 0 included). Whole
        /// seconds sum exactly, so the rule must match at every total,
        /// exact ties included; real download times, some under the 1 µs
        /// floor, must match whenever the totals differ by more than 1e-9
        /// of their sum, where the order of a sum cannot decide.
        #[test]
        fn median_rtt_is_the_sorted_lower_weighted_median(
            chunks in prop::collection::vec((any::<bool>(), 0u64..6, 0u64..4_000_000_000), 0..200),
            whole_seconds in any::<bool>(),
            base_ms in 1u64..400,
            bloat_ms in 0u64..1_000,
        ) {
            let profile = NetworkProfile {
                base_rtt: SimDuration::from_millis(base_ms),
                // A quarter of the profiles have no bufferbloat.
                bufferbloat: SimDuration::from_millis(if bloat_ms < 250 { 0 } else { bloat_ms }),
                ..NetworkProfile::fast_cable()
            };
            let (mut clear_time, mut congested_time) = (0.0, 0.0);
            let mut samples = Vec::new();
            for &(congested, secs, nanos) in &chunks {
                let download_time = if whole_seconds {
                    SimDuration::from_secs(secs + 1)
                } else {
                    // One draw in six falls under the floor.
                    SimDuration::from_nanos(if secs == 0 { nanos % 1_000 } else { nanos })
                };
                let weight = download_time.as_secs_f64().max(1e-6);
                if congested {
                    congested_time += weight;
                } else {
                    clear_time += weight;
                }
                let rtt = if congested {
                    profile.base_rtt + profile.bufferbloat
                } else {
                    profile.base_rtt
                };
                samples.push((rtt.as_millis_f64(), weight));
            }
            let got = median_rtt_ms(&profile, clear_time, congested_time);
            let want = sorted_weighted_median(&mut samples);
            let decided = (clear_time - congested_time).abs() > 1e-9 * (clear_time + congested_time);
            if whole_seconds || decided {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
