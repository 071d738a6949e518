//! The analytic bottleneck-network model.
//!
//! The fluid simulator replaces the packet simulator with a per-chunk
//! closed-form model for A/B-scale runs (thousands of sessions). Each
//! simulated user has a [`NetworkProfile`]; each chunk download computes:
//!
//! - an **effective rate** `min(pace rate, available capacity)` with
//!   per-chunk capacity jitter,
//! - a **slow-start ramp** penalty when the TCP connection restarted after
//!   an idle (off) period — the reason measured chunk throughput sits below
//!   link capacity even without pacing, and the source of the playing-phase
//!   bias that §4.1's initial-only history sidesteps,
//! - **congestion effects**: when the offered rate reaches available
//!   capacity the flow stands up a queue (RTT inflation = the profile's
//!   bufferbloat) and suffers self-inflicted loss; pacing below capacity
//!   leaves only ambient cross-traffic loss and jitter (§5.1's mechanism).

use netsim::{Rate, SimDuration};
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Per-user network characteristics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkProfile {
    /// Bottleneck capacity available to the video session.
    pub capacity: Rate,
    /// Base (uncongested) round-trip time.
    pub base_rtt: SimDuration,
    /// Additional queueing delay when the session self-congests (standing
    /// queue at the access-link bottleneck).
    pub bufferbloat: SimDuration,
    /// Retransmit fraction applied to all bytes (ambient cross-traffic
    /// congestion, wifi loss, etc.).
    pub ambient_loss: f64,
    /// Additional retransmit fraction on bytes sent while self-congesting.
    pub self_loss: f64,
    /// Coefficient of variation of per-chunk capacity jitter.
    pub jitter_cv: f64,
    /// Probability that a chunk download hits a deep capacity fade
    /// (cross-traffic burst, wifi interference).
    pub fade_prob: f64,
    /// Depth range of a fade: the capacity multiplier is drawn uniformly
    /// from `[fade_depth, fade_depth * 4]` (capped at 1.0).
    pub fade_depth: f64,
}

impl NetworkProfile {
    /// A sanity-check profile: a fast, clean cable connection.
    #[cfg(test)]
    pub(crate) fn fast_cable() -> Self {
        NetworkProfile {
            capacity: Rate::from_mbps(100.0),
            base_rtt: SimDuration::from_millis(20),
            bufferbloat: SimDuration::from_millis(30),
            ambient_loss: 0.002,
            self_loss: 0.008,
            jitter_cv: 0.1,
            fade_prob: 0.0,
            fade_depth: 0.1,
        }
    }
}

/// Initial congestion window of the slow-start ramp, in bytes (10 segments).
const INITIAL_WINDOW_BYTES: f64 = 10.0 * 1460.0;

/// Idle gap after which the connection slow-start restarts.
pub(crate) const IDLE_RESTART_AFTER: SimDuration = SimDuration::from_millis(250);

/// The outcome of one chunk download under the model.
#[derive(Debug, Clone, Copy)]
pub struct ChunkOutcome {
    /// Wall-clock download time (request to last byte).
    pub download_time: SimDuration,
    /// True if the offered rate reached available capacity (self-congested).
    pub congested: bool,
    /// Effective RTT experienced by packets of this chunk.
    pub rtt: SimDuration,
    /// Retransmit fraction applied to this chunk's bytes.
    pub loss: f64,
}

/// Compute one chunk download.
///
/// `pace` is the application-informed pace rate (`None` = unpaced);
/// `cold` indicates the connection idled long enough to slow-start
/// restart. `jitter` is the per-chunk capacity multiplier (1.0 for none).
pub fn download_chunk(
    profile: &NetworkProfile,
    bytes: u64,
    pace: Option<Rate>,
    cold: bool,
    jitter: f64,
) -> ChunkOutcome {
    let avail = (profile.capacity.bps() * jitter).max(1e3);
    let offered = pace.map_or(f64::INFINITY, |p| p.bps());
    let target = offered.min(avail);
    // Self-congestion: the sender pushes at (or beyond) what the link has.
    let congested = offered >= avail * 0.98;
    let rtt = if congested {
        profile.base_rtt + profile.bufferbloat
    } else {
        profile.base_rtt
    };
    let loss = profile.ambient_loss + if congested { profile.self_loss } else { 0.0 };

    let rtt_s = rtt.as_secs_f64().max(1e-4);
    // Request round trip to first byte.
    let mut t = rtt_s;
    let mut remaining = bytes as f64;
    if cold {
        // Slow start: the window doubles per RTT until the delivery rate
        // reaches the target; each RTT delivers one window.
        let mut w = INITIAL_WINDOW_BYTES;
        let target_window = target * rtt_s / 8.0;
        while w < target_window && remaining > 0.0 {
            let sent = w.min(remaining);
            remaining -= sent;
            t += rtt_s;
            w *= 2.0;
        }
    }
    t += remaining * 8.0 / target;
    let outcome = ChunkOutcome {
        download_time: SimDuration::from_secs_f64(t),
        congested,
        rtt,
        loss: loss.clamp(0.0, 1.0),
    };
    netsim::invariant!(
        "fluid-chunk-sane",
        t.is_finite() && t > 0.0,
        "download time {t} not finite positive (bytes {bytes}, target {target})"
    );
    netsim::invariant!(
        "fluid-chunk-sane",
        (0.0..=1.0).contains(&outcome.loss) && outcome.rtt >= profile.base_rtt,
        "loss {} outside [0, 1] or rtt {:?} below base {:?}",
        outcome.loss,
        outcome.rtt,
        profile.base_rtt
    );
    outcome
}

/// A session's per-chunk capacity multipliers on `profile`, one for each
/// of a title's `chunks` chunks, drawn from one RNG seeded with `seed`:
/// what [`SessionBuilder::seed`](crate::SessionBuilder::seed) plays. The
/// stream depends on `(profile, seed, chunks)` only, so sessions that
/// share a seed can share one draw through
/// [`SessionBuilder::jitter`](crate::SessionBuilder::jitter).
pub fn jitter_stream(profile: &NetworkProfile, seed: u64, chunks: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let law = JitterLaw::new(profile.jitter_cv);
    (0..chunks)
        .map(|_| chunk_multiplier(&mut rng, profile, law))
        .collect()
}

/// Draw a per-chunk capacity multiplier for `profile` from its evaluated
/// [`JitterLaw`]: log-normal jitter (mean ≈ 1) plus an occasional deep
/// fade. A session draws one multiplier a chunk from one profile.
fn chunk_multiplier(rng: &mut StdRng, profile: &NetworkProfile, law: Option<JitterLaw>) -> f64 {
    let mut j = law.map_or(1.0, |law| law.draw(rng));
    if profile.fade_prob > 0.0 && rng.gen::<f64>() < profile.fade_prob {
        let depth = rng.gen_range(profile.fade_depth..(profile.fade_depth * 4.0).min(1.0));
        j *= depth;
    }
    j
}

/// The per-chunk capacity jitter for one `cv`: a log-normal with
/// `σ = √ln(1 + cv²)` and `μ = −σ²/2` (mean ≈ 1), clamped to [0.3, 3.0] —
/// an `ln` and a root that do not change while `cv` does not.
#[derive(Debug, Clone, Copy)]
struct JitterLaw {
    sigma: f64,
    mu: f64,
}

impl JitterLaw {
    /// `None` for `cv ≤ 0`: no jitter, and nothing drawn from the RNG.
    fn new(cv: f64) -> Option<Self> {
        if cv <= 0.0 {
            return None;
        }
        let sigma = (1.0 + cv * cv).ln().sqrt();
        Some(JitterLaw {
            sigma,
            mu: -sigma * sigma / 2.0,
        })
    }

    fn draw(self, rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp().clamp(0.3, 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> NetworkProfile {
        NetworkProfile::fast_cable()
    }

    #[test]
    fn warm_unpaced_runs_at_capacity() {
        let out = download_chunk(&profile(), 5_000_000, None, false, 1.0);
        // 5 MB at 100 Mbps = 0.4 s plus one congested RTT (20 + 30 ms).
        let t = out.download_time.as_secs_f64();
        assert!((t - 0.45).abs() < 0.01, "t={t}");
        assert!(out.congested);
        assert_eq!(out.rtt, SimDuration::from_millis(50));
        assert!((out.loss - 0.01).abs() < 1e-9);
    }

    #[test]
    fn paced_below_capacity_is_clean() {
        let out = download_chunk(
            &profile(),
            5_000_000,
            Some(Rate::from_mbps(10.0)),
            false,
            1.0,
        );
        assert!(!out.congested);
        assert_eq!(out.rtt, SimDuration::from_millis(20));
        assert!((out.loss - 0.002).abs() < 1e-9);
        // 5 MB at 10 Mbps = 4 s.
        assert!((out.download_time.as_secs_f64() - 4.02).abs() < 0.01);
    }

    #[test]
    fn pace_above_capacity_still_congests() {
        let out = download_chunk(
            &profile(),
            1_000_000,
            Some(Rate::from_mbps(200.0)),
            false,
            1.0,
        );
        assert!(out.congested);
    }

    #[test]
    fn cold_start_slower_than_warm() {
        let warm = download_chunk(&profile(), 1_000_000, None, false, 1.0);
        let cold = download_chunk(&profile(), 1_000_000, None, true, 1.0);
        assert!(cold.download_time > warm.download_time);
        // The ramp penalty matters more for small chunks.
        let small_warm = download_chunk(&profile(), 100_000, None, false, 1.0);
        let small_cold = download_chunk(&profile(), 100_000, None, true, 1.0);
        let small_ratio =
            small_cold.download_time.as_secs_f64() / small_warm.download_time.as_secs_f64();
        let big_ratio = cold.download_time.as_secs_f64() / warm.download_time.as_secs_f64();
        assert!(small_ratio > big_ratio);
    }

    #[test]
    fn cold_start_penalty_smaller_when_paced_low() {
        // Ramping to a low pace takes fewer RTTs than ramping to capacity.
        let p = profile();
        let paced = download_chunk(&p, 1_000_000, Some(Rate::from_mbps(10.0)), true, 1.0);
        let unpaced = download_chunk(&p, 1_000_000, None, true, 1.0);
        let paced_warm = download_chunk(&p, 1_000_000, Some(Rate::from_mbps(10.0)), false, 1.0);
        let unpaced_warm = download_chunk(&p, 1_000_000, None, false, 1.0);
        let paced_penalty =
            paced.download_time.as_secs_f64() - paced_warm.download_time.as_secs_f64();
        let unpaced_penalty =
            unpaced.download_time.as_secs_f64() - unpaced_warm.download_time.as_secs_f64();
        assert!(paced_penalty < unpaced_penalty);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let law = JitterLaw::new(0.2).unwrap();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(law.draw(&mut a), law.draw(&mut b));
        }
    }

    #[test]
    fn jitter_mean_near_one() {
        let law = JitterLaw::new(0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| law.draw(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }
}
