//! The fluid session runner.
//!
//! Drives a [`video::Player`] through the analytic network model and
//! collects the per-session metrics the paper's production experiments
//! report: QoE ([`video::QoeSummary`]) plus the congestion triple — average
//! chunk throughput (download-time weighted), retransmit fraction, and
//! median RTT (§5.1). The paper reads that median off a t-digest because a
//! real connection yields an unbounded stream of per-packet RTTs; a fluid
//! session yields one sample a chunk, weighted by its download time, so the
//! median here is the exact weighted median of those samples.

use crate::network::{
    chunk_multiplier, download_chunk, JitterLaw, NetworkProfile, IDLE_RESTART_AFTER,
};
use netsim::{Rate, SimDuration, SimTime};
use rand::prelude::*;
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
    /// each weighted by its download time (a proxy for packets sent); NaN
    /// for a session that downloaded nothing.
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

    /// RNG seed for capacity jitter (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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
            startup_latency,
        } = self;
        let mut rng = StdRng::seed_from_u64(seed);
        let jitter_law = JitterLaw::new(profile.jitter_cv);

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
        // One sample per chunk; size the buffers once instead of growing them.
        let mut chunk_tputs = Vec::with_capacity(player.title().len());
        let mut rtt_samples = Vec::with_capacity(player.title().len());
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
                let jitter = chunk_multiplier(&mut rng, profile, jitter_law);
                let out = download_chunk(profile, req.bytes, req.pace, cold, jitter);
                now += out.download_time;
                last_download_end = Some(now);
                player.on_chunk_complete(now, out.download_time);

                // Telemetry: RTT samples weighted by download duration (a
                // proxy for packets sent), retransmits, congestion exposure.
                rtt_samples.push((
                    out.rtt.as_millis_f64(),
                    out.download_time.as_secs_f64().max(1e-6),
                ));
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
            median_rtt_ms: weighted_median(&mut rtt_samples),
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

/// The lower weighted median of `(value, weight)` samples: the smallest
/// value whose cumulative weight reaches half the total, as
/// [`sorted_weighted_median`] computes it, bit for bit. A fluid chunk's
/// RTT is one of two values (`download_chunk`: base, or base plus
/// bufferbloat), so [`two_valued_median`] decides almost every session
/// without a sort; what it cannot decide exactly goes to the sorted scan.
/// NaN when there are no samples.
fn weighted_median(samples: &mut [(f64, f64)]) -> f64 {
    two_valued_median(samples).unwrap_or_else(|| {
        #[cfg(test)]
        tests::SORTED_FALLBACKS.with(|n| n.set(n.get() + 1));
        sorted_weighted_median(samples)
    })
}

/// Most samples [`two_valued_median`] decides: its margin covers the
/// rounding of a sum of up to this many weights, in any order.
const TWO_VALUED_MAX_SAMPLES: usize = 1 << 20;

/// Relative gap between two weight totals past which float rounding cannot
/// reorder them. A sum of `n` non-negative weights, in any order, is within
/// `γ ≈ (n − 1)·2⁻⁵³` of the exact sum, relatively. The sorted scan's test
/// `cumulative ≥ half` sets the lower value's sum against half the total,
/// so it comes out as the larger total says once the totals differ by more
/// than `4γ` of their sum: ≈ 4.7e-10 at [`TWO_VALUED_MAX_SAMPLES`].
const TWO_VALUED_MARGIN: f64 = 1e-9;

/// [`sorted_weighted_median`] decided in one pass in input order, for
/// samples that hold at most two distinct values (compared by bits): the
/// value whose weights sum to more. `None` — undecided — on no samples, a
/// third value, a non-finite value or weight, a negative weight, more than
/// [`TWO_VALUED_MAX_SAMPLES`] samples, or totals within
/// [`TWO_VALUED_MARGIN`] of each other (where the order of the sum could
/// decide, and at an exact tie the lower value wins) or too large to sum
/// without overflow.
fn two_valued_median(samples: &[(f64, f64)]) -> Option<f64> {
    let &(a, _) = samples.first()?;
    if samples.len() > TWO_VALUED_MAX_SAMPLES {
        return None;
    }
    // `b` is `a` until a second value appears.
    let (mut b, mut wa, mut wb) = (a, 0.0, 0.0);
    for &(v, w) in samples {
        if !(v.is_finite() && w.is_finite() && w >= 0.0) {
            return None;
        }
        if v.to_bits() == a.to_bits() {
            wa += w;
        } else if b.to_bits() == a.to_bits() || v.to_bits() == b.to_bits() {
            b = v;
            wb += w;
        } else {
            return None;
        }
    }
    let total = wa + wb;
    if (wa - wb).abs() <= TWO_VALUED_MARGIN * total || total >= f64::MAX / 2.0 {
        return None;
    }
    Some(if wa > wb { a } else { b })
}

/// The lower weighted median by definition: the samples are sorted by
/// `(value, weight)` and the total is summed in that order, so the result
/// depends only on the multiset of samples, not on their order. NaN when
/// there are none.
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

#[cfg(test)]
mod tests {
    use super::*;
    use abr::{shared_history, HistoryPolicy, Mpc, ProductionAbr};
    use proptest::prelude::*;
    use std::cell::Cell;
    use video::{Ladder, TitleConfig, VmafModel};

    thread_local! {
        /// Medians this thread computed by the sorted scan because
        /// `two_valued_median` left them undecided.
        pub(super) static SORTED_FALLBACKS: Cell<u64> = const { Cell::new(0) };
    }

    fn sorted_fallbacks() -> u64 {
        SORTED_FALLBACKS.with(Cell::get)
    }

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

    #[test]
    fn weighted_median_of_nothing_is_nan() {
        assert!(weighted_median(&mut []).is_nan());
    }

    #[test]
    fn weighted_median_of_one_value_is_that_value() {
        assert_eq!(weighted_median(&mut [(37.25, 0.4)]), 37.25);
        assert_eq!(weighted_median(&mut [(37.25, 0.4), (37.25, 2.0)]), 37.25);
    }

    #[test]
    fn weighted_median_follows_the_heavier_value() {
        assert_eq!(weighted_median(&mut [(20.0, 0.3), (80.0, 0.7)]), 80.0);
        assert_eq!(weighted_median(&mut [(20.0, 0.7), (80.0, 0.3)]), 20.0);
        assert_eq!(weighted_median(&mut [(80.0, 0.7), (20.0, 0.3)]), 80.0);
    }

    #[test]
    fn weighted_median_at_exactly_half_is_the_lower_value() {
        assert_eq!(weighted_median(&mut [(80.0, 1.5), (20.0, 1.5)]), 20.0);
        assert_eq!(
            weighted_median(&mut [(30.0, 0.25), (10.0, 0.25), (90.0, 0.5)]),
            30.0
        );
    }

    /// A Fisher–Yates shuffle.
    fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
    }

    /// `x` moved `k` ulps up.
    fn ulps_up(x: f64, k: u64) -> f64 {
        f64::from_bits(x.to_bits() + k)
    }

    #[test]
    fn near_tie_whose_sums_round_apart_is_left_to_the_sort() {
        // The lower value's weights summed in input order lose every
        // 2⁻⁵³ to rounding (1.0 < 1 + 2 ulp, so the higher value looks
        // heavier); summed in sorted order, the small weights come first
        // and add up to 5 ulp (the lower value is heavier). The sort
        // decides.
        let tiny = 2f64.powi(-53);
        let mut samples = vec![(20.0, 1.0)];
        samples.extend([(20.0, tiny); 10]);
        samples.push((50.0, ulps_up(1.0, 2)));
        let before = sorted_fallbacks();
        assert_eq!(weighted_median(&mut samples), 20.0);
        assert_eq!(sorted_fallbacks(), before + 1);
    }

    #[test]
    fn two_clear_values_are_decided_without_the_sort() {
        let before = sorted_fallbacks();
        assert_eq!(weighted_median(&mut [(20.0, 0.3), (80.0, 0.7)]), 80.0);
        assert_eq!(weighted_median(&mut [(37.25, 0.4)]), 37.25);
        assert_eq!(sorted_fallbacks(), before);
        assert_eq!(weighted_median(&mut [(80.0, 1.5), (20.0, 1.5)]), 20.0);
        assert_eq!(sorted_fallbacks(), before + 1);
    }

    /// Whole sessions of the population's own users (`abtest::user_at`,
    /// full and light titles, the production and Sammy arms): the fast
    /// path decides their medians, and how often the sort decides instead
    /// is printed.
    #[test]
    fn population_session_medians_are_decided_without_the_sort() {
        use abtest::{Arm, PopulationConfig};
        let arms = [Arm::Production, Arm::Sammy { c0: 3.2, c1: 2.8 }];
        let (mut sessions, before) = (0u64, sorted_fallbacks());
        for (cfg, users) in [
            (PopulationConfig::default(), 12),
            (PopulationConfig::light(), 60),
        ] {
            for i in 0..users {
                let user = abtest::user_at(&cfg, i, 2023);
                // `abtest` links the non-test build of this crate: its
                // profile is the same fields under another type.
                let n = &user.network;
                let profile = NetworkProfile {
                    capacity: n.capacity,
                    base_rtt: n.base_rtt,
                    bufferbloat: n.bufferbloat,
                    ambient_loss: n.ambient_loss,
                    self_loss: n.self_loss,
                    jitter_cv: n.jitter_cv,
                    fade_prob: n.fade_prob,
                    fade_depth: n.fade_depth,
                };
                let title = Arc::new(user.title(0));
                for arm in arms {
                    let out = SessionBuilder::new(
                        &profile,
                        title.clone(),
                        arm.build_abr(shared_history()),
                    )
                    .seed(user.seed)
                    .startup_latency(user.startup_latency)
                    .run();
                    assert!(out.chunks > 0 && out.median_rtt_ms.is_finite());
                    sessions += 1;
                }
            }
        }
        let fell_back = sorted_fallbacks() - before;
        eprintln!("session medians: {sessions} sessions, {fell_back} left to the sort");
        assert!(
            fell_back * 100 <= sessions,
            "{fell_back} of {sessions} sessions fell back"
        );
    }

    /// Integer weights expanded into repeated samples; the lower median of
    /// `n` sorted samples is the `⌈n/2⌉`-th.
    fn expanded_lower_median(samples: &[(f64, f64)]) -> f64 {
        let mut expanded: Vec<f64> = samples
            .iter()
            .flat_map(|&(v, w)| std::iter::repeat_n(v, w as usize))
            .collect();
        expanded.sort_by(f64::total_cmp);
        expanded[expanded.len().div_ceil(2) - 1]
    }

    proptest! {
        #[test]
        fn weighted_median_matches_the_expanded_lower_median(
            raw in prop::collection::vec((0u32..12, 1u32..6), 1..40),
            spread in 0.5f64..200.0,
        ) {
            let mut samples: Vec<(f64, f64)> = raw
                .iter()
                .map(|&(v, w)| (v as f64 * spread, w as f64))
                .collect();
            let want = expanded_lower_median(&samples);
            prop_assert_eq!(weighted_median(&mut samples), want);
        }

        /// The one-pass decision against the sorted scan, to the bit: one
        /// value; two values in random order and in orders that make the
        /// input-order sums round differently from the sorted ones (small
        /// weights after a large one, one value's block before the
        /// other's), their totals often tied exactly; three or more
        /// values; NaN, ±∞ and negative values or weights; and near-ties
        /// whose input-order and sorted-order sums round to different
        /// sides of half.
        #[test]
        fn two_valued_median_matches_the_sorted_scan(
            shape in 0u32..6,
            n in 1usize..300,
            lo in 1.0f64..200.0,
            gap in 0.5f64..500.0,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let hi = lo + gap;
            let weight = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
                0 => rng.gen_range(1e-6..4.0),
                1 => rng.gen_range(1..4u32) as f64 * 0.25,
                2 => 2f64.powi(-rng.gen_range(40..60i32)),
                _ => 1e-6,
            };
            let mut samples: Vec<(f64, f64)> = match shape {
                0 => (0..n).map(|_| (lo, weight(&mut rng))).collect(),
                1 | 2 => {
                    // The higher value's weights, and the lower value's:
                    // the same weights (an exact tie in the reals) or a
                    // draw of their own.
                    let w_hi: Vec<f64> = (0..n).map(|_| weight(&mut rng)).collect();
                    let mut w_lo = w_hi.clone();
                    if rng.gen::<bool>() {
                        w_lo = (0..rng.gen_range(1..=n)).map(|_| weight(&mut rng)).collect();
                    }
                    w_lo.sort_by(|a, b| b.total_cmp(a));
                    let mut s: Vec<_> = w_lo.iter().map(|&w| (lo, w)).collect();
                    s.extend(w_hi.iter().map(|&w| (hi, w)));
                    match (shape, rng.gen_range(0..3u32)) {
                        (1, _) => shuffle(&mut s, &mut rng),
                        (_, 0) => s.reverse(),
                        (_, 1) => s.sort_by(|a, b| b.1.total_cmp(&a.1)),
                        _ => {}
                    }
                    s
                }
                3 => {
                    let k = rng.gen_range(3..6usize);
                    (0..n.max(k))
                        .map(|i| (lo + (i % k) as f64 * gap, weight(&mut rng)))
                        .collect()
                }
                4 => {
                    let mut s: Vec<_> = (0..n)
                        .map(|_| ([lo, hi][rng.gen_range(0..2usize)], weight(&mut rng)))
                        .collect();
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0][rng.gen_range(0..4usize)];
                    let at = rng.gen_range(0..n);
                    if rng.gen::<bool>() { s[at].0 = bad } else { s[at].1 = bad }
                    s
                }
                _ => {
                    // One value: a unit weight, then `m` weights of 2⁻⁵³,
                    // lost to rounding in this order; the other: one
                    // weight `k` ulps above 1. Scaled by a power of two,
                    // which no sum rounds differently.
                    let scale = 2f64.powi(rng.gen_range(-30..30i32));
                    let (a, b) = if rng.gen::<bool>() { (lo, hi) } else { (hi, lo) };
                    let mut s = vec![(a, scale)];
                    s.extend((0..rng.gen_range(0..24usize)).map(|_| (a, 2f64.powi(-53) * scale)));
                    s.insert(rng.gen_range(0..=s.len()), (b, ulps_up(1.0, rng.gen_range(0..8u64)) * scale));
                    s
                }
            };
            let want = sorted_weighted_median(&mut samples.clone());
            prop_assert_eq!(weighted_median(&mut samples).to_bits(), want.to_bits());
        }

        #[test]
        fn weighted_median_ignores_sample_order(
            raw in prop::collection::vec((0u32..6, 1e-6f64..4.0), 1..60),
            seed in any::<u64>(),
        ) {
            let samples: Vec<(f64, f64)> =
                raw.iter().map(|&(v, w)| (10.0 + v as f64 * 7.3, w)).collect();
            let mut shuffled = samples.clone();
            shuffle(&mut shuffled, &mut StdRng::seed_from_u64(seed));
            let want = weighted_median(&mut samples.clone());
            prop_assert_eq!(weighted_median(&mut shuffled).to_bits(), want.to_bits());
        }
    }
}
