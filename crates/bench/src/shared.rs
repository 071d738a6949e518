//! Shared-bottleneck multi-session experiments.
//!
//! N video sessions served from one CDN origin contend on the ISP core
//! queue of a [`SharedTopology`] (origin → core → access → clients). The
//! two figures this module backs compare N Sammy sessions against N greedy
//! (production-control) sessions:
//!
//! - **Shared-queue occupancy**: the core queue's depth on the lab's
//!   100 ms grid, read from the fairness curve's N = 4 runs. Greedy
//!   sessions keep the shared queue standing; Sammy sessions pace near 3x
//!   the top bitrate and the queue stays shallow.
//! - **Jain's-fairness curves**: Jain's index over per-session mean chunk
//!   throughput as N grows, per arm and per core queue discipline.
//!
//! The core link is provisioned *per session* (default 12 Mbps each), so
//! the aggregate Sammy pace (~10.5 Mbps per session) fits underneath while
//! greedy sessions saturate it — the regime of the paper's §6 neighbor
//! experiments, scaled out.
//!
//! Experiment cells (one `(N, arm)` pair each) run on a worker pool;
//! results are merged in cell order, so every figure is bit-identical for
//! every `--threads` setting — the shared-determinism golden test pins the
//! N=8 fairness CSV across thread counts.

use crate::lab::{install_video, lab_abr, run_sampled, LabArm, LabConfig};
use netsim::{
    Discipline, DumbbellConfig, FlowId, Rate, SharedTopology, SharedTopologyConfig, SimDuration,
    SimTime, Simulator,
};
use transport::SenderEndpoint;

/// Startup transient excluded from the peak-queue and drop counts: both
/// arms saturate the core during the (unpaced) initial phase, so the queue
/// comparison targets steady state, as in the single-flow lab.
const STARTUP: SimDuration = SimDuration::from_secs(10);

/// Configuration for a shared-bottleneck multi-session run.
#[derive(Debug, Clone)]
pub struct SharedLabConfig {
    /// Number of concurrent video sessions.
    pub sessions: usize,
    /// Length of the simulated run.
    pub run_for: SimDuration,
    /// Base seed; session `i` uses `seed + i` for its title wobble.
    pub seed: u64,
    /// Core-link capacity per session (Mbps); the core runs at
    /// `sessions x` this rate.
    pub core_mbps_per_session: f64,
    /// Queue discipline on the shared core queue.
    pub discipline: Discipline,
}

impl Default for SharedLabConfig {
    fn default() -> Self {
        SharedLabConfig {
            sessions: 4,
            run_for: SimDuration::from_secs(30),
            seed: 1,
            core_mbps_per_session: 12.0,
            discipline: Discipline::DropTail,
        }
    }
}

impl SharedLabConfig {
    /// The topology this configuration describes: the paper's lab path
    /// with the core scaled to `sessions x core_mbps_per_session` and
    /// carrying the configured discipline.
    pub fn topology(&self) -> SharedTopologyConfig {
        let lab = SharedTopologyConfig::from(DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(self.core_mbps_per_session * self.sessions as f64),
            ..Default::default()
        });
        SharedTopologyConfig {
            sessions: self.sessions,
            core: lab.core.with_discipline(self.discipline),
            ..lab
        }
    }
}

/// Jain's fairness index of an allocation: `(sum x)^2 / (n * sum x^2)`.
/// 1.0 is perfectly fair; `1/n` is a single flow hogging everything.
/// Empty or all-zero allocations count as fair.
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        1.0
    } else {
        s * s / (n * s2)
    }
}

/// Results of one N-session shared-bottleneck run.
#[derive(Debug, Clone)]
pub struct SharedRunResult {
    /// Mean chunk throughput per session (Mbps), session order.
    pub per_session_mbps: Vec<f64>,
    /// Jain's index over `per_session_mbps`.
    pub jain: f64,
    /// Core queue occupancy over time: `(s, kB)` on the 100 ms grid
    /// `[0, run_for)`, the startup transient included.
    pub core_occupancy_kb: Vec<(f64, f64)>,
    /// Peak core queue occupancy after the startup transient, or over the
    /// whole run if it ends sooner (bytes).
    pub core_peak_queue_bytes: u64,
    /// Packets dropped at the core queue after the startup transient, or
    /// over the whole run if it ends sooner.
    pub core_drops: u64,
}

/// Run N concurrent sessions of `arm` over the shared topology.
pub fn shared_sessions(arm: LabArm, cfg: &SharedLabConfig) -> SharedRunResult {
    let mut sim = Simulator::new();
    let topo = SharedTopology::build(&mut sim, cfg.topology());
    // Each session is a Fig 8 session (a deep buffer keeps it downloading
    // for the whole window), scaled out.
    let fig8 = LabConfig::neighbors();
    for (i, &client) in topo.clients.iter().enumerate() {
        install_video(
            &mut sim,
            (topo.origin, client, FlowId(1 + i as u64)),
            lab_abr(arm),
            fig8.video_tcp(),
            fig8.max_buffer,
            SimTime::ZERO,
            cfg.seed + i as u64,
        );
    }

    let core = topo.core_down;
    let (core_occupancy_kb, startup_drops) =
        run_sampled(&mut sim, core, STARTUP, cfg.run_for, |sim| {
            sim.link(core).queue.occupied_bytes() as f64 / 1e3
        });
    let qstats = sim.link(core).queue.stats();
    let core_peak_queue_bytes = qstats.max_occupied_bytes;
    let core_drops = qstats.drops - startup_drops;

    let server: &mut SenderEndpoint = sim.endpoint_mut(topo.origin).expect("origin");
    let per_session_mbps: Vec<f64> = (0..cfg.sessions)
        .map(|slot| {
            let done = server.completed(slot);
            if done.is_empty() {
                0.0
            } else {
                done.iter().map(|t| t.throughput().mbps()).sum::<f64>() / done.len() as f64
            }
        })
        .collect();

    SharedRunResult {
        jain: jain_index(&per_session_mbps),
        per_session_mbps,
        core_occupancy_kb,
        core_peak_queue_bytes,
        core_drops,
    }
}

impl SharedRunResult {
    /// Mean per-session chunk throughput (Mbps).
    pub fn mean_mbps(&self) -> f64 {
        let xs = &self.per_session_mbps;
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

/// One N on the fairness curve: both arms' runs at the same session count.
#[derive(Debug, Clone)]
pub struct FairnessPoint {
    /// Session count.
    pub n: usize,
    /// The N greedy (production-control) sessions.
    pub greedy: SharedRunResult,
    /// The N Sammy sessions.
    pub sammy: SharedRunResult,
}

/// Compute the N-Sammy-vs-N-greedy fairness curve over `ns` session
/// counts. `threads` sizes the worker pool (0 = all cores); the result is
/// identical for every thread count.
pub fn fairness_curve(ns: &[usize], base: &SharedLabConfig, threads: usize) -> Vec<FairnessPoint> {
    let cells: Vec<(usize, LabArm)> = ns
        .iter()
        .flat_map(|&n| [(n, LabArm::Control), (n, LabArm::Sammy)])
        .collect();
    let mut results = run_cells(&cells, threads, |&(n, arm)| {
        let cfg = SharedLabConfig {
            sessions: n,
            ..base.clone()
        };
        shared_sessions(arm, &cfg)
    })
    .into_iter();
    ns.iter()
        .map(|&n| FairnessPoint {
            n,
            greedy: results.next().expect("greedy cell"),
            sammy: results.next().expect("sammy cell"),
        })
        .collect()
}

/// CSV rows for the fairness figure (one per N), matching the header
/// `n,greedy_jain,sammy_jain,greedy_mean_mbps,sammy_mean_mbps,greedy_peak_kb,sammy_peak_kb`.
/// This exact formatting is pinned by the shared-determinism golden test.
pub fn fairness_csv_rows(points: &[FairnessPoint]) -> Vec<String> {
    let peak_kb = |r: &SharedRunResult| r.core_peak_queue_bytes as f64 / 1e3;
    points
        .iter()
        .map(|p| {
            format!(
                "{},{:.6},{:.6},{:.4},{:.4},{:.2},{:.2}",
                p.n,
                p.greedy.jain,
                p.sammy.jain,
                p.greedy.mean_mbps(),
                p.sammy.mean_mbps(),
                peak_kb(&p.greedy),
                peak_kb(&p.sammy)
            )
        })
        .collect()
}

/// Header for [`fairness_csv_rows`].
pub const FAIRNESS_CSV_HEADER: &str =
    "n,greedy_jain,sammy_jain,greedy_mean_mbps,sammy_mean_mbps,greedy_peak_kb,sammy_peak_kb";

/// Run every cell through the ordered worker pool
/// ([`abtest::pool::ordered`]) and return results in cell order, so output
/// never depends on scheduling. `threads == 0` sizes the pool to all
/// cores. This is the sharding primitive behind the figures grid, the
/// fairness curve, and the fluid-vs-packet differential oracle; each cell
/// must be seed-derived and self-contained so results are byte-identical
/// at every pool size.
pub fn run_cells<C: Sync, T: Send>(
    cells: &[C],
    threads: usize,
    f: impl Fn(&C) -> T + Sync,
) -> Vec<T> {
    abtest::pool::ordered(
        0..cells.len(),
        threads,
        |i| f(&cells[i]),
        |results| results.collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One hog among n flows: index = 1/n.
        assert!((jain_index(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        let mixed = jain_index(&[4.0, 1.0]);
        assert!(mixed > 0.5 && mixed < 1.0, "jain {mixed}");
    }

    fn quick_cfg(sessions: usize) -> SharedLabConfig {
        SharedLabConfig {
            sessions,
            run_for: SimDuration::from_secs(20),
            ..Default::default()
        }
    }

    /// N greedy sessions keep the shared core queue deep; N Sammy sessions
    /// pace under the per-session provisioning and keep it shallow.
    #[test]
    fn sammy_keeps_shared_queue_shallow() {
        let cfg = quick_cfg(3);
        let greedy = shared_sessions(LabArm::Control, &cfg);
        let sammy = shared_sessions(LabArm::Sammy, &cfg);
        for r in [&greedy, &sammy] {
            assert_eq!(r.per_session_mbps.len(), 3);
            assert!(
                r.per_session_mbps.iter().all(|&m| m > 1.0),
                "all sessions make progress: {:?}",
                r.per_session_mbps
            );
        }
        assert!(
            greedy.core_peak_queue_bytes > 2 * sammy.core_peak_queue_bytes,
            "greedy peak {} vs sammy {}",
            greedy.core_peak_queue_bytes,
            sammy.core_peak_queue_bytes
        );
        // Paced sessions don't overflow the shared queue.
        assert_eq!(sammy.core_drops, 0, "sammy dropped at the core");
    }

    /// Every lab reading sits on one 100 ms grid over `[0, run_for)`, each
    /// time once: the shared core's occupancy and the single flow's srtt.
    #[test]
    fn lab_samples_sit_on_the_100ms_grid() {
        let increasing = |s: &[(f64, f64)]| s.windows(2).all(|w| w[0].0 < w[1].0);
        let occupancy = shared_sessions(LabArm::Sammy, &quick_cfg(2)).core_occupancy_kb;
        assert_eq!(occupancy.len(), 200, "20 s at 100 ms");
        assert_eq!(occupancy[0].0, 0.0);
        assert!(increasing(&occupancy), "{occupancy:?}");

        let lab = LabConfig {
            run_for: SimDuration::from_secs(60),
            ..Default::default()
        };
        let rtt = crate::lab::single_flow(LabArm::Sammy, &lab).rtt_series;
        assert_eq!(rtt.len(), 600, "60 s at 100 ms");
        assert!(increasing(&rtt), "{rtt:?}");
    }

    /// A run that never leaves the startup transient reports its whole
    /// run: the peak is at least every sampled occupancy, and the drops
    /// are all of the run's, not only those of its last instant.
    #[test]
    fn run_inside_startup_reports_its_whole_peak_and_drops() {
        let cfg = SharedLabConfig {
            run_for: STARTUP,
            ..quick_cfg(2)
        };
        let r = shared_sessions(LabArm::Control, &cfg);
        let sampled_kb = r.core_occupancy_kb.iter().map(|&(_, kb)| kb);
        let max_sampled_kb = sampled_kb.fold(0.0, f64::max);
        assert!(max_sampled_kb > 0.0, "the greedy start fills the core");
        assert!(
            r.core_peak_queue_bytes as f64 / 1e3 >= max_sampled_kb,
            "peak {} B below a sampled {max_sampled_kb} kB",
            r.core_peak_queue_bytes
        );
        assert!(r.core_drops > 0, "the greedy start overflows the core");
    }

    /// The fairness curve is bit-identical across worker-pool sizes.
    #[test]
    fn fairness_curve_thread_invariant() {
        let base = quick_cfg(0); // sessions overridden per point
        let a = fairness_curve(&[2], &base, 1);
        let b = fairness_curve(&[2], &base, 4);
        assert_eq!(fairness_csv_rows(&a), fairness_csv_rows(&b));
        assert_eq!(a[0].n, 2);
        // Homogeneous sessions: both arms land in a sane fairness range.
        assert!(a[0].sammy.jain > 0.8, "sammy jain {}", a[0].sammy.jain);
        assert!(a[0].greedy.jain > 0.5, "greedy jain {}", a[0].greedy.jain);
    }
}
