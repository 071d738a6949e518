//! Historical throughput and initial-phase bitrate selection (§4.1, §5.7).
//!
//! Initial-phase decisions must be made with few or no in-session
//! measurements, so players use *historical* throughput from previous
//! sessions on the same device. The store's update policy is the crux of
//! Sammy's initial-phase change:
//!
//! - [`HistoryPolicy::AllSamples`] (production): the store is fed every
//!   chunk's throughput. Under pacing these samples reflect the pace rate,
//!   not the network, dragging initial selections down (§5.5). Even
//!   without pacing they are biased low by slow-start restarts after off
//!   periods.
//! - [`HistoryPolicy::InitialOnly`] (Sammy): the store is fed only
//!   initial-phase (unpaced, back-to-back) samples, keeping the estimate a
//!   true bandwidth estimate (§4.1).
//!
//! Within a session, samples accumulate in a pending buffer; they fold into
//! the cross-session estimate at [`HistoryStore::end_session`]. Young
//! estimates are *discounted* by a confidence ramp `n / (n + n₀)` over the
//! number of sessions observed — a device with little history gets
//! conservative initial picks, and takes on the order of a week of viewing
//! to earn full confidence. This is the dependency between sessions that
//! the paper's Fig 6 cold-start experiment exposes.

use netsim::Rate;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use video::{Abr, AbrContext, AbrDecision, ChunkMeasurement, PlayerPhase};

/// Which samples update the historical store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistoryPolicy {
    /// All chunk measurements update history (production behaviour).
    AllSamples,
    /// Only initial-phase measurements update history (Sammy, §4.1).
    InitialOnly,
}

/// Completed sessions at which history confidence reaches 1/2 (`n₀`).
const CONFIDENCE_N0: f64 = 4.0;

/// Cross-session EWMA weight on the newest session's median.
const ALPHA: f64 = 0.3;

/// A per-device store of historical throughput: per-session medians,
/// EWMA-smoothed across sessions, with a session-count confidence ramp.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistoryStore {
    estimate_bps: Option<f64>,
    /// Completed sessions that contributed data.
    sessions: u64,
    /// Current session's samples (bps), folded at `end_session`.
    pending: Vec<f64>,
    /// Total samples ever offered.
    samples: u64,
}

/// An empty store: cross-session EWMA factor [`ALPHA`] and the
/// confidence half-life of 4 sessions.
impl Default for HistoryStore {
    fn default() -> Self {
        HistoryStore {
            estimate_bps: None,
            sessions: 0,
            pending: Vec::new(),
            samples: 0,
        }
    }
}

impl HistoryStore {
    /// Record a throughput sample from the current session.
    pub fn update(&mut self, sample: Rate) {
        let x = sample.bps();
        if !x.is_finite() || x <= 0.0 {
            return;
        }
        self.pending.push(x);
        self.samples += 1;
    }

    /// Fold the current session's samples (their upper median, the order
    /// statistic at `len / 2`) into the cross-session estimate. No-op if
    /// the session produced no samples.
    pub fn end_session(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut v = std::mem::take(&mut self.pending);
        let mid = v.len() / 2;
        let (_, &mut session_median, _) =
            v.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite samples"));
        self.estimate_bps = Some(match self.estimate_bps {
            None => session_median,
            Some(e) => ALPHA * session_median + (1.0 - ALPHA) * e,
        });
        self.sessions += 1;
    }

    /// The raw cross-session estimate, if any session has completed.
    pub fn estimate(&self) -> Option<Rate> {
        self.estimate_bps.map(Rate::from_bps)
    }

    /// Confidence in `[0, 1)`: `n / (n + n₀)` over completed sessions.
    fn confidence(&self) -> f64 {
        self.sessions as f64 / (self.sessions as f64 + CONFIDENCE_N0)
    }

    /// The confidence-discounted estimate used for initial-phase
    /// decisions: `estimate × confidence`.
    pub fn discounted_estimate(&self) -> Option<Rate> {
        self.estimate().map(|e| e * self.confidence())
    }

    /// Completed sessions absorbed.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Total samples offered (including pending ones).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// A shareable, `Send` handle to a device's [`HistoryStore`].
///
/// The experiment harness owns one per simulated device and threads it
/// through that device's sessions. Cloning shares the underlying store.
/// The handle is `Send + Sync`, so a whole per-user session stack can run
/// on any worker thread of the sharded experiment runner; within a worker
/// the lock is uncontended (each user's history is private to the worker
/// running that user), so the `Arc`/`Mutex` cost only matters at shard
/// boundaries.
#[derive(Debug, Clone, Default)]
pub struct SharedHistory {
    store: Arc<Mutex<HistoryStore>>,
}

impl SharedHistory {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing store (e.g. a pre-warmed one).
    pub fn from_store(store: HistoryStore) -> Self {
        SharedHistory {
            store: Arc::new(Mutex::new(store)),
        }
    }

    /// Record a throughput sample from the current session.
    pub fn update(&self, sample: Rate) {
        self.store.lock().update(sample);
    }

    /// Fold the current session's samples into the cross-session estimate.
    pub fn end_session(&self) {
        self.store.lock().end_session();
    }

    /// The raw cross-session estimate, if any session has completed.
    pub fn estimate(&self) -> Option<Rate> {
        self.store.lock().estimate()
    }

    /// The confidence-discounted estimate for initial-phase decisions.
    pub fn discounted_estimate(&self) -> Option<Rate> {
        self.store.lock().discounted_estimate()
    }

    /// Completed sessions absorbed.
    pub fn sessions(&self) -> u64 {
        self.store.lock().sessions()
    }

    /// Total samples offered (including pending ones).
    pub fn samples(&self) -> u64 {
        self.store.lock().samples()
    }

    /// A point-in-time copy of the underlying store.
    pub fn snapshot(&self) -> HistoryStore {
        self.store.lock().clone()
    }
}

/// Create a fresh shared store.
pub fn shared_history() -> SharedHistory {
    SharedHistory::new()
}

/// Configuration for the initial-phase selector.
#[derive(Debug, Clone, Copy)]
pub struct InitialSelectorConfig {
    /// Safety factor applied to the historical estimate.
    pub safety: f64,
    /// Rung used when no history exists (conservative cold-start default).
    pub cold_start_rung: usize,
    /// Highest rung the initial phase may pick (avoid giant first chunks).
    pub max_initial_rung: Option<usize>,
}

impl Default for InitialSelectorConfig {
    fn default() -> Self {
        InitialSelectorConfig {
            safety: 0.7,
            cold_start_rung: 2,
            max_initial_rung: None,
        }
    }
}

/// The initial-phase rung for a ladder given a (discounted) historical
/// estimate — the shared selection rule used by [`ProductionAbr`] and by
/// session runners that need to predict the initial pick (e.g. to size an
/// adaptive startup threshold).
pub fn initial_rung_for(
    estimate: Option<Rate>,
    ladder: &video::Ladder,
    cfg: &InitialSelectorConfig,
) -> usize {
    let rung = match estimate {
        Some(est) => ladder
            .highest_at_most(est * cfg.safety)
            .max(cfg.cold_start_rung.min(ladder.top()).saturating_sub(2)),
        None => cfg.cold_start_rung.min(ladder.top()),
    };
    match cfg.max_initial_rung {
        Some(cap) => rung.min(cap),
        None => rung,
    }
}

/// The production-style ABR stand-in: historical-throughput initial
/// selection plus a delegated playing-phase algorithm. The paper's
/// production algorithm is MPC-style; wire an [`crate::Mpc`] in as the
/// playing-phase ABR for the closest match.
pub struct ProductionAbr<P> {
    playing: P,
    history: SharedHistory,
    policy: HistoryPolicy,
    /// Phase of the most recent selection; measurements completing while
    /// the last decision was initial-phase count as initial samples.
    last_phase: PlayerPhase,
}

impl<P: Abr> ProductionAbr<P> {
    /// Build with a playing-phase algorithm, a per-device history handle,
    /// and an update policy.
    pub fn new(playing: P, history: SharedHistory, policy: HistoryPolicy) -> Self {
        ProductionAbr {
            playing,
            history,
            policy,
            last_phase: PlayerPhase::Initial,
        }
    }

    /// The initial-phase rung for a given ladder and historical estimate.
    fn initial_rung(&self, ctx: &AbrContext<'_>) -> usize {
        initial_rung_for(
            self.history.discounted_estimate(),
            ctx.ladder,
            &InitialSelectorConfig::default(),
        )
    }
}

impl<P: Abr> Abr for ProductionAbr<P> {
    fn select(&mut self, ctx: &AbrContext<'_>) -> AbrDecision {
        self.last_phase = ctx.phase;
        match ctx.phase {
            PlayerPhase::Initial => AbrDecision::unpaced(self.initial_rung(ctx)),
            PlayerPhase::Playing => self.playing.select(ctx),
        }
    }

    fn on_chunk_downloaded(&mut self, m: &ChunkMeasurement) {
        self.playing.on_chunk_downloaded(m);
        let update = match self.policy {
            HistoryPolicy::AllSamples => true,
            HistoryPolicy::InitialOnly => self.last_phase == PlayerPhase::Initial,
        };
        if update {
            self.history.update(m.throughput());
        }
    }

    fn name(&self) -> &'static str {
        "production"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpc::Mpc;
    use netsim::{SimDuration, SimTime};
    use video::{Ladder, ThroughputHistory, Title, TitleConfig, VmafModel};

    fn title() -> Title {
        Title::generate(
            Ladder::hd(&VmafModel::standard()),
            &TitleConfig {
                size_cv: 0.0,
                ..Default::default()
            },
        )
    }

    fn ctx<'a>(t: &'a Title, h: &'a ThroughputHistory, phase: PlayerPhase) -> AbrContext<'a> {
        AbrContext {
            now: SimTime::ZERO,
            phase,
            buffer: SimDuration::from_secs(0),
            max_buffer: SimDuration::from_secs(240),
            ladder: &t.ladder,
            upcoming: t.upcoming(0),
            history: h,
            last_rung: None,
        }
    }

    fn measurement(mbps: f64) -> ChunkMeasurement {
        ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes: (mbps * 1e6 / 8.0) as u64,
            download_time: SimDuration::from_secs(1),
            completed_at: SimTime::ZERO,
        }
    }

    /// Feed one session of a constant rate and close it.
    fn feed_session(store: &SharedHistory, mbps: f64) {
        store.update(Rate::from_mbps(mbps));
        store.end_session();
    }

    #[test]
    fn store_folds_sessions_with_ewma() {
        let store = shared_history();
        assert_eq!(store.estimate(), None);
        feed_session(&store, 10.0);
        assert!((store.estimate().unwrap().mbps() - 10.0).abs() < 1e-9);
        feed_session(&store, 20.0);
        // 0.3*20 + 0.7*10 = 13 Mbps.
        assert!((store.estimate().unwrap().mbps() - 13.0).abs() < 1e-9);
        assert_eq!(store.sessions(), 2);
    }

    #[test]
    fn pending_samples_do_not_move_estimate_mid_session() {
        let mut s = HistoryStore::default();
        s.update(Rate::from_mbps(10.0));
        assert_eq!(s.estimate(), None);
        s.end_session();
        assert!(s.estimate().is_some());
    }

    #[test]
    fn session_median_is_robust() {
        let mut s = HistoryStore::default();
        for m in [10.0, 11.0, 9.0, 100.0, 10.5] {
            s.update(Rate::from_mbps(m));
        }
        s.end_session();
        // Median of the session, not its mean: the 100 Mbps outlier is
        // ignored.
        assert!((s.estimate().unwrap().mbps() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn confidence_ramps_with_sessions() {
        let mut s = HistoryStore::default();
        assert_eq!(s.confidence(), 0.0);
        for i in 1..=8 {
            s.update(Rate::from_mbps(10.0));
            s.end_session();
            let expect = i as f64 / (i as f64 + 4.0);
            assert!((s.confidence() - expect).abs() < 1e-12);
        }
        // Discounted estimate grows toward the raw estimate.
        let raw = s.estimate().unwrap().mbps();
        let disc = s.discounted_estimate().unwrap().mbps();
        assert!(disc < raw);
        assert!(disc > 0.6 * raw);
    }

    #[test]
    fn store_rejects_garbage() {
        let mut s = HistoryStore::default();
        s.update(Rate::ZERO);
        s.end_session();
        assert_eq!(s.estimate(), None);
    }

    #[test]
    fn cold_start_uses_default_rung() {
        let t = title();
        let h = ThroughputHistory::new();
        let mut abr =
            ProductionAbr::new(Mpc::default(), shared_history(), HistoryPolicy::AllSamples);
        let d = abr.select(&ctx(&t, &h, PlayerPhase::Initial));
        assert_eq!(d.rung, 2);
    }

    #[test]
    fn history_drives_initial_rung() {
        let t = title();
        let h = ThroughputHistory::new();
        let store = shared_history();
        // A long history of 60 Mbps sessions earns high confidence.
        for _ in 0..20 {
            feed_session(&store, 60.0);
        }
        let mut abr = ProductionAbr::new(Mpc::default(), store.clone(), HistoryPolicy::AllSamples);
        let d = abr.select(&ctx(&t, &h, PlayerPhase::Initial));
        // 60 × (20/24) × 0.7 = 35 Mbps → top rung (16 Mbps).
        assert_eq!(d.rung, t.ladder.top());
        // A device with a single session gets discounted to 60 × 0.2 × 0.7
        // = 8.4 Mbps → below the top rung.
        let young = shared_history();
        feed_session(&young, 60.0);
        let mut abr2 = ProductionAbr::new(Mpc::default(), young, HistoryPolicy::AllSamples);
        let d2 = abr2.select(&ctx(&t, &h, PlayerPhase::Initial));
        assert!(d2.rung < t.ladder.top());
    }

    #[test]
    fn all_samples_policy_absorbs_paced_throughput() {
        let t = title();
        let h = ThroughputHistory::new();
        let store = shared_history();
        for _ in 0..10 {
            feed_session(&store, 50.0);
        }
        let before = store.estimate().unwrap().mbps();
        let mut abr = ProductionAbr::new(Mpc::default(), store.clone(), HistoryPolicy::AllSamples);
        // Playing-phase paced samples at 10 Mbps drag the estimate down
        // once the session closes.
        let _ = abr.select(&ctx(&t, &h, PlayerPhase::Playing));
        for _ in 0..50 {
            abr.on_chunk_downloaded(&measurement(10.0));
        }
        store.end_session();
        assert!(store.estimate().unwrap().mbps() < before);
    }

    #[test]
    fn initial_only_policy_ignores_playing_samples() {
        let t = title();
        let h = ThroughputHistory::new();
        let store = shared_history();
        for _ in 0..10 {
            feed_session(&store, 50.0);
        }
        let before = store.estimate().unwrap().mbps();
        let mut abr = ProductionAbr::new(Mpc::default(), store.clone(), HistoryPolicy::InitialOnly);
        let _ = abr.select(&ctx(&t, &h, PlayerPhase::Playing));
        for _ in 0..50 {
            abr.on_chunk_downloaded(&measurement(10.0));
        }
        store.end_session();
        // Paced playing-phase samples never entered the store.
        assert!((store.estimate().unwrap().mbps() - before).abs() < 1e-9);
        // But initial-phase samples do update it.
        let _ = abr.select(&ctx(&t, &h, PlayerPhase::Initial));
        abr.on_chunk_downloaded(&measurement(30.0));
        store.end_session();
        assert!(store.estimate().unwrap().mbps() < before);
    }

    #[test]
    fn max_initial_rung_caps() {
        let t = title();
        let store = shared_history();
        for _ in 0..50 {
            feed_session(&store, 200.0);
        }
        let estimate = store.discounted_estimate();
        let capped = InitialSelectorConfig {
            max_initial_rung: Some(5),
            ..Default::default()
        };
        assert!(initial_rung_for(estimate, &t.ladder, &InitialSelectorConfig::default()) > 5);
        assert_eq!(initial_rung_for(estimate, &t.ladder, &capped), 5);
    }

    #[test]
    fn initial_rung_never_collapses_far_below_cold_start() {
        // A tiny discounted estimate must not pick rung 0 on a device that
        // has some history — floor at cold_start_rung - 2.
        let cfg = InitialSelectorConfig::default();
        let ladder = Ladder::hd(&VmafModel::standard());
        let r = initial_rung_for(Some(Rate::from_bps(10_000.0)), &ladder, &cfg);
        assert_eq!(r, 0); // cold_start 2 - 2 = 0: floor is the bottom here
        let cfg2 = InitialSelectorConfig {
            cold_start_rung: 4,
            ..cfg
        };
        let r2 = initial_rung_for(Some(Rate::from_bps(10_000.0)), &ladder, &cfg2);
        assert_eq!(r2, 2);
    }

    /// A throughput in bps from a (family, value) draw: often one of five
    /// rates (ties), else any from 1 kbps to 10 Gbps.
    fn sample_bps((kind, x): (u8, f64)) -> f64 {
        if kind < 2 {
            (x * 5.0).floor() * 1e6 + 1e6
        } else {
            1e3 + x * 1e10
        }
    }

    proptest::proptest! {
        /// The session median taken by selection equals the order
        /// statistic at `len / 2` of the fully sorted samples, to the bit,
        /// through the cross-session EWMA, for odd and even counts and
        /// duplicates.
        #[test]
        fn session_median_matches_sort_reference(
            sessions in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0.0f64..1.0), 1..40),
                1..5,
            ),
        ) {
            let mut s = HistoryStore::default();
            let mut want: Option<f64> = None;
            for session in &sessions {
                let mut v = Vec::new();
                for &draw in session {
                    let r = Rate::from_bps(sample_bps(draw));
                    s.update(r);
                    v.push(r.bps());
                }
                s.end_session();
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let median = v[v.len() / 2];
                want = Some(match want {
                    None => median,
                    Some(e) => 0.3 * median + (1.0 - 0.3) * e,
                });
                proptest::prop_assert_eq!(
                    s.estimate().map(|e| e.bps().to_bits()),
                    want.map(|e| Rate::from_bps(e).bps().to_bits())
                );
            }
        }
    }
}
