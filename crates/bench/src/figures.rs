//! Fluid-simulation generators for the production tables and figures.
//!
//! Each function returns plain data the `figures` binary renders as text
//! and CSV. Sizes are chosen so a full regeneration finishes in minutes on
//! a laptop; the binary accepts a `--scale` factor for larger runs.

use abtest::{
    default_grid, run_sweep, Arm, Experiment, ExperimentConfig, MetricTable, PopulationConfig,
    StreamReport, StreamRow, SweepPoint, BUCKET_METRICS, DAY_METRICS, METRICS,
};
use sammy_core::analysis::{fig2a_selection_curve, fig2b_threshold_curve};

/// The production Sammy parameters used throughout §5.
const SAMMY_PROD: Arm = Arm::Sammy { c0: 3.2, c1: 2.8 };

/// Bootstrap replicates behind every CI of the standard sizing.
const BOOTSTRAP_REPS: usize = 400;

/// Standard experiment sizing (scaled by `scale`). `threads` is the
/// worker count for the parallel runner (0 = all cores); results are
/// bit-identical for every value.
fn experiment_config(scale: f64, seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        users_per_arm: ((200.0 * scale) as usize).max(20),
        pre_sessions: 3,
        sessions_per_user: 3,
        seed,
        bootstrap_reps: BOOTSTRAP_REPS,
        threads,
    }
}

/// One production-vs-`treatment` A/B at the standard sizing, folded into
/// `rows`. Each figure keys its whole experiment — population, sessions
/// and bootstrap — by `seed + offset`, so figures draw distinct
/// populations.
fn ab_report(
    treatment: Arm,
    rows: MetricTable,
    scale: f64,
    seed: u64,
    offset: u64,
    threads: usize,
) -> StreamReport {
    Experiment::builder()
        .treatment(treatment)
        .config(experiment_config(scale, seed + offset, threads))
        .rows(rows)
        .run_table()
        .expect("figure setup is valid")
        .report()
}

/// Table 2: Sammy (c0=3.2, c1=2.8) vs production.
pub fn table2(scale: f64, seed: u64, threads: usize) -> StreamReport {
    ab_report(SAMMY_PROD, &METRICS, scale, seed, 0, threads)
}

/// Table 3: initial-phase changes only (no pacing) vs production.
pub fn table3(scale: f64, seed: u64, threads: usize) -> StreamReport {
    ab_report(Arm::InitialOnly, &METRICS, scale, seed, 1, threads)
}

/// §5.5: the naive constant-4x baseline vs production.
pub fn baseline_4x(scale: f64, seed: u64, threads: usize) -> StreamReport {
    let naive = Arm::NaivePaced { multiplier: 4.0 };
    ab_report(naive, &METRICS, scale, seed, 2, threads)
}

/// Fig 3: chunk-throughput change by pre-experiment throughput bucket —
/// one row per bucket with at least 10 sessions an arm.
pub fn fig3(scale: f64, seed: u64, threads: usize) -> Vec<StreamRow> {
    let report = ab_report(SAMMY_PROD, &BUCKET_METRICS, scale * 1.5, seed, 3, threads);
    report
        .rows
        .into_iter()
        .filter(|r| r.control_count >= 10 && r.treatment_count >= 10)
        .collect()
}

/// Fig 5: the VMAF-vs-chunk-throughput tradeoff over the (c0, c1) grid.
pub fn fig5(scale: f64, seed: u64, threads: usize) -> Vec<SweepPoint> {
    // Smaller per-arm population (one experiment per grid point).
    let cfg = ExperimentConfig {
        users_per_arm: ((80.0 * scale) as usize).max(15),
        pre_sessions: 2,
        sessions_per_user: 2,
        seed: seed + 4,
        bootstrap_reps: 200,
        threads,
    };
    run_sweep(&PopulationConfig::default(), &default_grid(), &cfg).expect("fig5 setup is valid")
}

/// Fig 6: initial-quality difference over days after a history reset —
/// production vs [`Arm::HistoryReset`], folded into [`DAY_METRICS`].
/// Returns the per-day percent change of mean initial VMAF, treatment vs
/// control.
pub fn fig6(scale: f64, seed: u64, threads: usize) -> Vec<f64> {
    let cfg = ExperimentConfig {
        users_per_arm: ((120.0 * scale) as usize).max(20),
        pre_sessions: 6,
        sessions_per_user: 2 * DAY_METRICS.len(),
        seed: seed + 5,
        bootstrap_reps: 0,
        threads,
    };
    let report = Experiment::builder()
        .treatment(Arm::HistoryReset)
        .config(cfg)
        .rows(&DAY_METRICS)
        .run_table()
        .expect("fig6 setup is valid")
        .report();
    report.rows.iter().map(|r| r.pct_change).collect()
}

/// Fig 2a/2b: the HYB analysis curves (pure functions of β and the
/// lookahead). Returns `(buffer_s, max_bitrate_multiple, min_tput_multiple)`.
pub fn fig2(beta: f64, horizon_s: f64) -> Vec<(f64, f64, f64)> {
    let buffers: Vec<f64> = (0..=24).map(|i| i as f64 * 10.0).collect();
    let a = fig2a_selection_curve(beta, horizon_s, &buffers);
    let b = fig2b_threshold_curve(beta, horizon_s, &buffers);
    a.into_iter()
        .zip(b)
        .map(|((buf, max_r), (_, min_x))| (buf, max_r, min_x))
        .collect()
}

/// §2.3.1: the downward spiral of a black-box-paced naive ABR. Returns the
/// selected bitrate (Mbps) per chunk for (a) the naive rule under black-box
/// 1.5x pacing, and (b) Sammy-style pacing keyed to the ladder top.
pub fn spiral() -> (Vec<f64>, Vec<f64>) {
    use abr::NaiveThroughputRule;
    use netsim::{Rate, SimDuration, SimTime};
    use video::{
        Abr, AbrContext, ChunkMeasurement, Ladder, PlayerPhase, ThroughputHistory, Title,
        TitleConfig, VmafModel,
    };

    let title = Title::generate(
        Ladder::hd(&VmafModel::standard()),
        &TitleConfig {
            size_cv: 0.0,
            ..Default::default()
        },
    );

    let run = |pace_of: &dyn Fn(Rate) -> Rate| -> Vec<f64> {
        let mut rule = NaiveThroughputRule::default();
        let mut h = ThroughputHistory::new();
        // First chunk measured at full network speed (100 Mbps).
        h.record(ChunkMeasurement {
            index: 0,
            rung: 0,
            bytes: (100e6 / 8.0) as u64,
            download_time: SimDuration::from_secs(1),
            completed_at: SimTime::ZERO,
        });
        let mut rungs = Vec::new();
        for i in 0..20 {
            let ctx = AbrContext {
                now: SimTime::ZERO,
                phase: PlayerPhase::Playing,
                buffer: SimDuration::from_secs(10),
                max_buffer: SimDuration::from_secs(240),
                ladder: &title.ladder,
                upcoming: title.upcoming(i),
                history: &h,
                last_rung: rungs.last().map(|_| 0),
            };
            let d = rule.select(&ctx);
            let bitrate = title.ladder.rung(d.rung).bitrate;
            rungs.push(bitrate.mbps());
            // The network is fast (100 Mbps); the measured throughput is
            // min(pace, network).
            let pace = pace_of(bitrate);
            let measured = pace.bps().min(100e6);
            h.record(ChunkMeasurement {
                index: i + 1,
                rung: d.rung,
                bytes: (measured / 8.0) as u64,
                download_time: SimDuration::from_secs(1),
                completed_at: SimTime::ZERO,
            });
        }
        rungs
    };

    // (a) Black-box pacing at 1.5x the *selected* bitrate: the spiral.
    let blackbox = run(&|bitrate| bitrate * 1.5);
    // (b) Sammy-style pacing at 3.2x the *top* ladder bitrate: stable.
    let top = title.ladder.top_bitrate();
    let sammy = run(&|_| top * 3.2);
    (blackbox, sammy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shapes() {
        let data = fig2(0.5, 20.0);
        assert_eq!(data.len(), 25);
        // Empty buffer: max bitrate = βx = 0.5, min tput = 1/β = 2.
        assert!((data[0].1 - 0.5).abs() < 1e-12);
        assert!((data[0].2 - 2.0).abs() < 1e-12);
        // Monotone: selection cap rises, threshold falls.
        for w in data.windows(2) {
            assert!(w[1].1 > w[0].1);
            assert!(w[1].2 < w[0].2);
        }
    }

    #[test]
    fn spiral_goes_down_sammy_stays_up() {
        let (blackbox, sammy) = spiral();
        // The black-box spiral reaches the lowest rung and stays there.
        assert!(blackbox.last().unwrap() < &0.3);
        // Sammy-style pacing holds a high bitrate.
        assert!(sammy.last().unwrap() > &3.0);
        // The spiral is monotone non-increasing.
        for w in blackbox.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn tiny_table2_has_expected_directions() {
        let report = table2(0.15, 42, 0);
        let tput = report.row("Chunk Throughput").unwrap().pct_change;
        assert!(tput < -25.0, "chunk throughput change {tput}");
        let vmaf = report.row("VMAF").unwrap().pct_change;
        assert!(vmaf.abs() < 3.0, "vmaf change {vmaf}");
    }
}
