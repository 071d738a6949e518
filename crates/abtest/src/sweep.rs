//! The parameter sweep behind Fig 5: the tradeoff between video quality
//! (VMAF) and chunk throughput across `(c0, c1)` settings.
//!
//! The paper used a Bayesian optimizer (Ax) over ~20 treatment arms across
//! several rounds of A/B tests; the published artifact is the tradeoff
//! curve itself, which a deterministic sweep reproduces.

use crate::experiment::{Arm, Experiment, ExperimentConfig};
use crate::population::PopulationConfig;
use netsim::SimError;
use serde::{Deserialize, Serialize};

/// One sweep point: a Sammy parameter setting and its measured changes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Pace multiplier at empty buffer.
    pub c0: f64,
    /// Pace multiplier at full buffer.
    pub c1: f64,
    /// Percent change in median chunk throughput vs control.
    pub tput_pct: f64,
    /// Percent change in median VMAF vs control.
    pub vmaf_pct: f64,
    /// Percent change in median play delay vs control.
    pub play_delay_pct: f64,
    /// Percent change in rebuffer rate (per hour) vs control.
    pub rebuffer_pct: f64,
}

/// The default grid of `(c0, c1)` arms, spanning aggressive (1.2x) to
/// conservative (6x) pacing — about twenty arms, like the paper's tests.
pub fn default_grid() -> Vec<(f64, f64)> {
    let mut grid = Vec::new();
    // Below ~1x the top bitrate the buffer cannot grow and quality must
    // fall — the knee at the aggressive end of the paper's Fig 5.
    grid.push((0.8, 0.8));
    grid.push((1.0, 0.7));
    for &c0 in &[1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 4.0, 5.0, 6.0] {
        for &c1 in &[c0 - 0.4, c0] {
            if c1 > 0.0 {
                grid.push((c0, c1));
            }
        }
    }
    grid.push((3.2, 2.8)); // the production point
    grid
}

/// The one `(c0, c1)` evaluation, under the Fig 5 sweep and every rung
/// of the halving search alike: Production vs `Sammy { c0, c1 }` over
/// `cfg.users_per_arm` users of the population `(population, cfg.seed)`,
/// read off as the four guarded rows of a table-sized fold. A row with no
/// defined change reads NaN. Non-positive multipliers are rejected here,
/// before anything is simulated for them.
pub(crate) fn evaluate(
    population: &PopulationConfig,
    cfg: &ExperimentConfig,
    c0: f64,
    c1: f64,
) -> Result<SweepPoint, SimError> {
    if !(c0 > 0.0 && c1 > 0.0) {
        return Err(SimError::InvalidConfig {
            field: "(c0, c1)",
            reason: format!("pace multipliers must be positive, got ({c0}, {c1})"),
        });
    }
    // Point estimates only: nothing downstream of a sweep or a search
    // reads an interval, so the fold carries no replicates
    // (`cfg.bootstrap_reps` is unused here).
    let report = Experiment::builder()
        .population_config(population.clone())
        .control(Arm::Production)
        .treatment(Arm::Sammy { c0, c1 })
        .config(ExperimentConfig {
            bootstrap_reps: 0,
            ..cfg.clone()
        })
        .run_table()?
        .report();
    let get = |name: &str| report.row(name).expect("a METRICS row").pct_change;
    Ok(SweepPoint {
        c0,
        c1,
        tput_pct: get("Chunk Throughput"),
        vmaf_pct: get("VMAF"),
        play_delay_pct: get("Play Delay"),
        rebuffer_pct: get("Rebuffers (/ hr)"),
    })
}

/// Run the sweep: one experiment per `(c0, c1)` against a shared control,
/// every point over the same `cfg.users_per_arm` users of `population`.
///
/// Rejects an invalid config (no users, say) or an empty grid before any
/// simulation runs, and a non-positive multiplier when its grid point
/// comes up.
pub fn run_sweep(
    population: &PopulationConfig,
    grid: &[(f64, f64)],
    cfg: &ExperimentConfig,
) -> Result<Vec<SweepPoint>, SimError> {
    cfg.validate()?;
    if grid.is_empty() {
        return Err(SimError::InvalidConfig {
            field: "grid",
            reason: "sweep needs at least one (c0, c1) arm".into(),
        });
    }
    grid.iter()
        .map(|&(c0, c1)| evaluate(population, cfg, c0, c1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::user_at;

    #[test]
    fn grid_has_about_twenty_arms() {
        let g = default_grid();
        assert!(g.len() >= 15 && g.len() <= 25, "grid size {}", g.len());
        assert!(g.contains(&(0.8, 0.8)));
        assert!(g.contains(&(3.2, 2.8)));
        assert!(g.iter().all(|&(c0, c1)| c0 > 0.0 && c1 > 0.0));
    }

    #[test]
    fn lower_multipliers_reduce_throughput_more() {
        let cfg = ExperimentConfig {
            users_per_arm: 50,
            pre_sessions: 2,
            sessions_per_user: 2,
            seed: 4,
            bootstrap_reps: 100,
            threads: 0,
        };
        let pts = run_sweep(
            &PopulationConfig::default(),
            &[(1.6, 1.2), (5.0, 5.0)],
            &cfg,
        )
        .unwrap();
        assert!(
            pts[0].tput_pct < pts[1].tput_pct,
            "aggressive pacing must cut throughput more: {pts:?}"
        );
    }

    /// The evaluation's four numbers are the report's rows, bit for bit —
    /// without the replicates the report folds around them.
    #[test]
    fn sweep_point_equals_report_rows() {
        let cfg = ExperimentConfig {
            users_per_arm: 12,
            pre_sessions: 1,
            sessions_per_user: 2,
            seed: 9,
            bootstrap_reps: 20,
            threads: 0,
        };
        let pop = PopulationConfig::default();
        for (c0, c1) in [(0.8, 0.8), (1.6, 1.2), (3.2, 2.8)] {
            let point = evaluate(&pop, &cfg, c0, c1).unwrap();
            let report = Experiment::builder()
                .treatment(Arm::Sammy { c0, c1 })
                .config(cfg.clone())
                .run_table()
                .unwrap()
                .report();
            let row = |name: &str| report.row(name).unwrap().pct_change.to_bits();
            assert_eq!(point.tput_pct.to_bits(), row("Chunk Throughput"));
            assert_eq!(point.vmaf_pct.to_bits(), row("VMAF"));
            assert_eq!(point.play_delay_pct.to_bits(), row("Play Delay"));
            assert_eq!(point.rebuffer_pct.to_bits(), row("Rebuffers (/ hr)"));
        }
    }

    /// A user whose sessions panic fails the evaluation, naming the panic,
    /// instead of leaving a sweep point one user short.
    #[test]
    fn a_failed_user_fails_the_evaluation() {
        let cfg = ExperimentConfig {
            users_per_arm: 6,
            pre_sessions: 1,
            sessions_per_user: 1,
            seed: 3,
            bootstrap_reps: 20,
            threads: 2,
        };
        // Titles of 1–30 s: a user drawn under one 4 s chunk trips
        // `Title::generate`.
        let pop = PopulationConfig {
            title_duration_s: (1, 30),
            ..PopulationConfig::light()
        };
        let chunk = netsim::SimDuration::from_secs(4);
        let first = (0..cfg.users_per_arm as u64)
            .find(|&i| user_at(&pop, i, cfg.seed).title_duration < chunk)
            .expect("some user draws a title under one chunk");
        let err = evaluate(&pop, &cfg, 3.2, 2.8).unwrap_err();
        let named = format!("user {first} panicked");
        assert!(
            matches!(err, SimError::Experiment(ref m) if m.contains(&named) && m.contains("chunk")),
            "{err}"
        );
    }

    #[test]
    fn sweep_rejects_bad_setups() {
        let cfg = ExperimentConfig::default();
        let pop = PopulationConfig::default();
        assert!(run_sweep(&pop, &[], &cfg).is_err());
        assert!(run_sweep(&pop, &[(0.0, 2.8)], &cfg).is_err());
        assert!(run_sweep(&pop, &[(3.2, -1.0)], &cfg).is_err());
        let bad = ExperimentConfig {
            users_per_arm: 0,
            ..cfg
        };
        assert!(run_sweep(&pop, &[(3.2, 2.8)], &bad).is_err());
    }
}
