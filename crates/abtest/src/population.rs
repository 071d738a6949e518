//! The simulated user population.
//!
//! Stands in for the production fleet: each user gets a network profile
//! drawn from heavy-tailed distributions spanning the paper's
//! pre-experiment throughput buckets (<6, 6–15, 15–30, 30–90, >90 Mbps,
//! Fig 3), a per-title ladder whose top bitrate reflects per-title
//! encoding (most titles top out at a few Mbps — the paper's footnote puts
//! the median session's throughput at ~13x its bitrate), and a watch
//! duration.

use fluidsim::NetworkProfile;
use netsim::{Rate, SimDuration};
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use video::{Ladder, Title, TitleConfig, VmafModel};

/// The pre-experiment throughput buckets of Fig 3 (Mbps boundaries).
const THROUGHPUT_BUCKETS: [(f64, f64); 5] = [
    (0.0, 6.0),
    (6.0, 15.0),
    (15.0, 30.0),
    (30.0, 90.0),
    (90.0, f64::INFINITY),
];

/// Label for a bucket index.
pub const fn bucket_label(idx: usize) -> &'static str {
    [
        "<6 Mbps",
        "6-15 Mbps",
        "15-30 Mbps",
        "30-90 Mbps",
        ">90 Mbps",
    ][idx]
}

/// The bucket index for a throughput in Mbps; `None` for a value that is
/// no throughput (NaN, infinite or negative) — the pre-experiment p95 of a
/// user whose warm-up measured nothing is NaN and belongs to no bucket.
pub fn bucket_of(mbps: f64) -> Option<usize> {
    THROUGHPUT_BUCKETS
        .iter()
        .position(|&(lo, hi)| (lo..hi).contains(&mbps))
}

/// Population-level distribution parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Capacity-range weights for the five buckets (need not sum to 1).
    pub bucket_weights: [f64; 5],
    /// Median base RTT in ms.
    pub rtt_median_ms: f64,
    /// Median bufferbloat (self-congestion queue delay) in ms at 30 Mbps;
    /// slower links get proportionally more.
    pub bloat_median_ms: f64,
    /// Median ambient loss fraction.
    pub ambient_loss_median: f64,
    /// Median self-congestion loss fraction.
    pub self_loss_median: f64,
    /// Weights over top-of-ladder bitrates (Mbps) for per-title ladders.
    pub top_bitrates_mbps: Vec<(f64, f64)>,
    /// Title duration range (seconds).
    pub title_duration_s: (u64, u64),
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            // Roughly FCC-like fixed-broadband mix.
            bucket_weights: [0.08, 0.15, 0.22, 0.33, 0.22],
            rtt_median_ms: 35.0,
            bloat_median_ms: 8.0,
            ambient_loss_median: 0.0045,
            self_loss_median: 0.0025,
            // Per-title ladder tops: mostly a few Mbps (per-title encoding),
            // some premium 4K-ish streams.
            top_bitrates_mbps: vec![
                (1.75, 0.10),
                (2.35, 0.20),
                (3.0, 0.25),
                (4.3, 0.25),
                (5.8, 0.12),
                (8.1, 0.05),
                (16.0, 0.03),
            ],
            title_duration_s: (15 * 60, 30 * 60),
        }
    }
}

impl PopulationConfig {
    /// A trimmed-down population for fast smoke runs (CI, the serve
    /// daemon's tests, `--light` million-user demos): very short titles
    /// and mid-range ladders only. Same model and draw logic, an order of
    /// magnitude less simulated playback per session — not calibrated for
    /// the paper's tables.
    pub fn light() -> Self {
        PopulationConfig {
            top_bitrates_mbps: vec![(1.75, 0.2), (2.35, 0.3), (3.0, 0.3), (4.3, 0.2)],
            title_duration_s: (20, 45),
            ..PopulationConfig::default()
        }
    }
}

/// One simulated user/device.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// Stable user id.
    pub id: u64,
    /// The user's network.
    pub network: NetworkProfile,
    /// Top-of-ladder bitrate for this user's typical titles (Mbps).
    pub top_bitrate_mbps: f64,
    /// Title duration for this user's sessions.
    pub title_duration: SimDuration,
    /// Fixed session-setup latency (manifest, DRM, player init).
    pub startup_latency: SimDuration,
    /// Per-user RNG seed.
    pub seed: u64,
}

impl UserProfile {
    /// The user's bitrate ladder.
    pub fn ladder(&self) -> Ladder {
        ladder_with_top(self.top_bitrate_mbps)
    }

    /// Generate a title for session `session_idx` of this user.
    pub fn title(&self, session_idx: u64) -> Title {
        Title::generate(
            self.ladder(),
            &TitleConfig {
                duration: self.title_duration,
                size_cv: 0.15,
                vmaf_sd: 1.5,
                seed: self.seed ^ (session_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            },
        )
    }
}

/// Build a ladder topping out at `top_mbps`, with standard lower rungs.
fn ladder_with_top(top_mbps: f64) -> Ladder {
    let vmaf = VmafModel::standard();
    let mut rates: Vec<f64> = [0.235, 0.56, 1.05, 1.75, 3.0, 4.3, 5.8, 8.1]
        .iter()
        .map(|m| m * 1e6)
        .filter(|&r| r < top_mbps * 1e6 * 0.99)
        .collect();
    rates.push(top_mbps * 1e6);
    Ladder::from_bitrates(&rates, &vmaf)
}

/// Generate user `index` of the population `(cfg, seed)` in O(1) — the one
/// way this tree draws a simulated user.
///
/// Each user gets an independent RNG derived from `(seed, index)`, so the
/// population never needs materializing: the streaming runner derives
/// users shard by shard and a 10M-user arm costs no more memory than a
/// 10-user one, and any user can be rebuilt outside the runner (a test's
/// reference, the benchmark) without generating its predecessors.
pub fn user_at(cfg: &PopulationConfig, index: u64, seed: u64) -> UserProfile {
    // One SplitMix64 step from `seed + index·φ`: an independent per-user
    // RNG seed, so generation is order-free.
    let mut key = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = StdRng::seed_from_u64(crate::streaming::splitmix(&mut key));
    draw_user(cfg, index, seed, &mut rng)
}

/// A stable fingerprint of the population `(cfg, users, seed)`, folded
/// into checkpoint headers so a resume against different users is
/// rejected instead of silently merging incompatible shard streams. The
/// leading tag `0x1` keeps the bytes of checkpoints written when a second
/// (explicit) population kind existed, so those still resume.
pub(crate) fn fingerprint(cfg: &PopulationConfig, users: usize, seed: u64) -> u64 {
    let mut h = tdigest::wire::Fnv::new();
    h.u64(0x1);
    h.u64(users as u64);
    h.u64(seed);
    for w in cfg.bucket_weights {
        h.f64(w);
    }
    h.f64(cfg.rtt_median_ms);
    h.f64(cfg.bloat_median_ms);
    h.f64(cfg.ambient_loss_median);
    h.f64(cfg.self_loss_median);
    for &(v, w) in &cfg.top_bitrates_mbps {
        h.f64(v);
        h.f64(w);
    }
    h.u64(cfg.title_duration_s.0);
    h.u64(cfg.title_duration_s.1);
    h.finish()
}

fn draw_user(cfg: &PopulationConfig, id: u64, seed: u64, rng: &mut StdRng) -> UserProfile {
    // Capacity: pick a bucket by weight, then log-uniform within it.
    let total: f64 = cfg.bucket_weights.iter().sum();
    let mut pick = rng.gen::<f64>() * total;
    let mut bucket = 0;
    for (i, w) in cfg.bucket_weights.iter().enumerate() {
        if pick < *w {
            bucket = i;
            break;
        }
        pick -= w;
    }
    let (lo, hi) = match bucket {
        0 => (2.0, 6.0),
        1 => (6.0, 15.0),
        2 => (15.0, 30.0),
        3 => (30.0, 90.0),
        _ => (90.0, 500.0),
    };
    let capacity_mbps = log_uniform(rng, lo, hi);

    let base_rtt_ms = lognormal(rng, cfg.rtt_median_ms, 0.5).clamp(5.0, 250.0);
    // Slower links buy cheaper, deeper-buffered gear: bloat scales down
    // with capacity.
    let bloat_scale = (30.0 / capacity_mbps).powf(0.4);
    let bloat_ms = lognormal(rng, cfg.bloat_median_ms * bloat_scale, 0.8).clamp(2.0, 800.0);
    let ambient = lognormal(rng, cfg.ambient_loss_median, 0.9).clamp(0.0, 0.05);
    let self_loss = lognormal(rng, cfg.self_loss_median, 0.7).clamp(0.0005, 0.08);

    let top = weighted_choice(rng, &cfg.top_bitrates_mbps);
    let dur = rng.gen_range(cfg.title_duration_s.0..=cfg.title_duration_s.1);

    UserProfile {
        id,
        network: NetworkProfile {
            capacity: Rate::from_mbps(capacity_mbps),
            base_rtt: SimDuration::from_secs_f64(base_rtt_ms / 1e3),
            bufferbloat: SimDuration::from_secs_f64(bloat_ms / 1e3),
            ambient_loss: ambient,
            self_loss,
            jitter_cv: 0.15,
            fade_prob: 0.03,
            fade_depth: 0.05,
        },
        top_bitrate_mbps: top,
        title_duration: SimDuration::from_secs(dur),
        startup_latency: SimDuration::from_secs_f64(lognormal(rng, 0.9, 0.4).clamp(0.3, 3.0)),
        seed: id.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(seed),
    }
}

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.gen::<f64>() * (hi.ln() - lo.ln()) + lo.ln()).exp()
}

fn lognormal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

fn weighted_choice(rng: &mut StdRng, options: &[(f64, f64)]) -> f64 {
    let total: f64 = options.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.gen::<f64>() * total;
    for &(v, w) in options {
        if pick < w {
            return v;
        }
        pick -= w;
    }
    options.last().expect("non-empty options").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_all_throughputs() {
        assert_eq!(bucket_of(0.0), Some(0));
        assert_eq!(bucket_of(0.1), Some(0));
        assert_eq!(bucket_of(5.99), Some(0));
        assert_eq!(bucket_of(6.0), Some(1));
        assert_eq!(bucket_of(20.0), Some(2));
        assert_eq!(bucket_of(45.0), Some(3));
        assert_eq!(bucket_of(90.0), Some(4));
        assert_eq!(bucket_of(1000.0), Some(4));
        for none in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            assert_eq!(bucket_of(none), None, "{none}");
        }
        assert_eq!(bucket_label(0), "<6 Mbps");
    }

    #[test]
    fn population_deterministic() {
        let cfg = &PopulationConfig::default();
        let draw = |seed| (0..50).map(move |i| user_at(cfg, i, seed));
        for (x, y) in draw(9).zip(draw(9)) {
            assert_eq!(x.network.capacity, y.network.capacity);
            assert_eq!(x.top_bitrate_mbps, y.top_bitrate_mbps);
        }
        assert!(draw(9)
            .zip(draw(10))
            .any(|(x, y)| x.network.capacity != y.network.capacity));
    }

    #[test]
    fn ladders_top_out_correctly() {
        let l = ladder_with_top(4.3);
        assert!((l.top_bitrate().mbps() - 4.3).abs() < 1e-9);
        assert!(l.len() >= 5);
        // Small ladder still valid.
        let l = ladder_with_top(1.75);
        assert!((l.top_bitrate().mbps() - 1.75).abs() < 1e-9);
        assert!(l.len() >= 4);
    }

    #[test]
    fn median_capacity_to_bitrate_ratio_is_high() {
        // The paper's footnote: median session throughput ≈ 13x bitrate.
        // Our population should have capacity >> top bitrate at the median.
        let cfg = PopulationConfig::default();
        let mut ratios: Vec<f64> = (0..2000)
            .map(|i| user_at(&cfg, i, 5))
            .map(|u| u.network.capacity.mbps() / u.top_bitrate_mbps)
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(median > 6.0 && median < 25.0, "median ratio {median}");
    }

    #[test]
    fn population_is_order_free_and_deterministic() {
        let cfg = PopulationConfig::default();
        // Deriving user i never depends on other users: any access order
        // gives the same profiles.
        let forward: Vec<UserProfile> = (0..40).map(|i| user_at(&cfg, i, 7)).collect();
        let backward: Vec<UserProfile> = (0..40).rev().map(|i| user_at(&cfg, i, 7)).collect();
        for (f, b) in forward.iter().zip(backward.iter().rev()) {
            assert_eq!(f.id, b.id);
            assert_eq!(f.seed, b.seed);
            assert_eq!(f.network.capacity, b.network.capacity);
            assert_eq!(f.top_bitrate_mbps, b.top_bitrate_mbps);
            assert_eq!(f.title_duration, b.title_duration);
        }
        // Different seeds give different populations.
        let other = user_at(&cfg, 3, 8);
        assert_ne!(other.seed, forward[3].seed);
    }

    #[test]
    fn capacity_distribution_matches_weights() {
        let cfg = PopulationConfig::default();
        let pop: Vec<_> = (0..5000).map(|i| user_at(&cfg, i, 3)).collect();
        let mut counts = [0usize; 5];
        for u in &pop {
            counts[bucket_of(u.network.capacity.mbps()).expect("a finite capacity")] += 1;
        }
        let total: f64 = cfg.bucket_weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expect = cfg.bucket_weights[i] / total;
            let got = c as f64 / pop.len() as f64;
            assert!(
                (got - expect).abs() < 0.02,
                "bucket {i}: got {got:.3}, expect {expect:.3}"
            );
        }
    }

    #[test]
    fn population_fingerprints_detect_changes() {
        let cfg = PopulationConfig::default();
        assert_eq!(fingerprint(&cfg, 100, 1), fingerprint(&cfg, 100, 1));
        assert_ne!(fingerprint(&cfg, 100, 1), fingerprint(&cfg, 100, 2));
        assert_ne!(fingerprint(&cfg, 100, 1), fingerprint(&cfg, 101, 1));
        assert_ne!(
            fingerprint(&cfg, 100, 1),
            fingerprint(&PopulationConfig::light(), 100, 1)
        );
        // Pinned: a checkpoint header carries these bytes, so a change
        // here strands every checkpoint directory on disk.
        assert_eq!(
            fingerprint(&cfg, 100, 1),
            0x2f84_f15f_10d1_6e55,
            "default population"
        );
        assert_eq!(
            fingerprint(&PopulationConfig::light(), 4096, 2023),
            0xa388_4bde_e850_0f85,
            "light population"
        );
    }

    #[test]
    fn titles_are_deterministic_per_session() {
        let cfg = PopulationConfig::default();
        let user = user_at(&cfg, 0, 1);
        let t1 = user.title(3);
        let t2 = user.title(3);
        let t3 = user.title(4);
        assert_eq!(t1.chunk(0).sizes(), t2.chunk(0).sizes());
        assert_ne!(t1.chunk(0).sizes(), t3.chunk(0).sizes());
    }
}
