//! The historical-data cold-start experiment (Fig 6, §5.7).
//!
//! Using historical throughput creates a dependency between successive
//! sessions. The paper demonstrates it by starting the treatment group
//! with *no* historical measurements while the control group keeps its
//! history; both update identically afterwards. Initial quality in the
//! treatment group starts far lower and converges toward control over
//! about a week.

use crate::experiment::{run_one, Arm};
use crate::population::{user_at, PopulationConfig, UserProfile};
use crate::stats::mean;
use abr::shared_history;
use std::sync::Arc;

/// Configuration for the cold-start experiment.
#[derive(Debug, Clone, Copy)]
pub struct ColdStartConfig {
    /// Days simulated.
    pub days: usize,
    /// Sessions per user per day.
    pub sessions_per_day: usize,
    /// Warmup sessions that build the control group's history before day 0.
    pub warmup_sessions: usize,
    /// Seed for population and session randomness.
    pub seed: u64,
    /// Worker threads (0 = all available cores). Like the A/B runner, the
    /// result is bit-identical for every value.
    pub threads: usize,
}

impl Default for ColdStartConfig {
    fn default() -> Self {
        ColdStartConfig {
            days: 14,
            sessions_per_day: 2,
            warmup_sessions: 6,
            seed: 5,
            threads: 0,
        }
    }
}

/// Daily initial-quality medians for both groups.
#[derive(Debug, Clone)]
pub struct ColdStartResult {
    /// Per-day median initial VMAF, control group.
    pub control_by_day: Vec<f64>,
    /// Per-day median initial VMAF, treatment group (history reset at day 0).
    pub treatment_by_day: Vec<f64>,
}

impl ColdStartResult {
    /// Percent difference (treatment vs control) per day — the Fig 6 series.
    pub fn pct_diff_by_day(&self) -> Vec<f64> {
        self.control_by_day
            .iter()
            .zip(&self.treatment_by_day)
            .map(|(c, t)| (t - c) / c * 100.0)
            .collect()
    }
}

/// Run the cold-start experiment over `users` users of the population
/// `(population, cfg.seed)` ([`user_at`]).
///
/// Each user is simulated twice with identical traffic: once with warmed
/// history (control) and once with history cleared at day 0 (treatment),
/// isolating the effect of the missing historical data exactly as the
/// paper's experiment does. Every session is the A/B runner's, under
/// [`Arm::Production`].
pub fn run_cold_start(
    population: &PopulationConfig,
    users: usize,
    cfg: &ColdStartConfig,
) -> ColdStartResult {
    // Users are jobs on the ordered pool and their day series are folded
    // in population order — bit-identical output for any thread count.
    let mut control_days: Vec<Vec<f64>> = vec![Vec::new(); cfg.days];
    let mut treatment_days: Vec<Vec<f64>> = vec![Vec::new(); cfg.days];
    crate::pool::ordered(
        0..users,
        cfg.threads,
        |i| run_cold_start_user(&user_at(population, i as u64, cfg.seed), cfg),
        |users| {
            for (c, t) in users {
                for (day, vals) in c.into_iter().enumerate() {
                    control_days[day].extend(vals);
                }
                for (day, vals) in t.into_iter().enumerate() {
                    treatment_days[day].extend(vals);
                }
            }
        },
    );

    ColdStartResult {
        // Mean, not median: initial quality is a discrete ladder value, so
        // the per-day median snaps to the top rung as soon as the typical
        // user recovers, hiding the long convergence tail the paper's
        // Fig 6 shows. The mean tracks the minority of sessions still
        // below their warmed-history rung.
        control_by_day: control_days.iter().map(|d| mean(d)).collect(),
        treatment_by_day: treatment_days.iter().map(|d| mean(d)).collect(),
    }
}

/// One user's full cold-start timeline: warmup, then per-day initial-VMAF
/// samples for the control (warmed) and treatment (reset) stores.
fn run_cold_start_user(
    user: &UserProfile,
    cfg: &ColdStartConfig,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut control_days: Vec<Vec<f64>> = vec![Vec::new(); cfg.days];
    let mut treatment_days: Vec<Vec<f64>> = vec![Vec::new(); cfg.days];

    let play = |history, title, idx| run_one(user, Arm::Production, history, title, idx, cfg.seed);
    // Control: a history store warmed before day 0. Treatment: the same
    // user with a fresh store (reset at day 0).
    let (control, treatment) = (shared_history(), shared_history());
    for s in 0..cfg.warmup_sessions as u64 {
        play(&control, Arc::new(user.title(s)), s);
    }

    for day in 0..cfg.days {
        for s in 0..cfg.sessions_per_day {
            let idx = (cfg.warmup_sessions + day * cfg.sessions_per_day + s) as u64;
            // Identical traffic: both stores play the same title.
            let title = Arc::new(user.title(idx));
            let c = play(&control, title.clone(), idx);
            let t = play(&treatment, title, idx);
            control_days[day].extend(c.qoe.initial_vmaf);
            treatment_days[day].extend(t.qoe.initial_vmaf);
        }
    }
    (control_days, treatment_days)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn treatment_starts_lower_and_converges() {
        let cfg = ColdStartConfig {
            days: 8,
            sessions_per_day: 2,
            warmup_sessions: 4,
            seed: 17,
            threads: 0,
        };
        let res = run_cold_start(&PopulationConfig::default(), 40, &cfg);
        let diffs = res.pct_diff_by_day();
        assert_eq!(diffs.len(), 8);
        // Day 0: treatment (no history) meaningfully below control.
        assert!(diffs[0] < -0.5, "day-0 diff should be negative: {diffs:?}");
        // Later days: the gap shrinks (treatment history fills in).
        let early = diffs[0];
        let late = diffs[diffs.len() - 1];
        assert!(late > early, "gap must close over time: {diffs:?}");
        assert!(late > -1.0, "late gap should be small: {diffs:?}");
    }

    #[test]
    fn cold_start_bit_identical_across_thread_counts() {
        let pop = PopulationConfig::default();
        let base = ColdStartConfig {
            days: 3,
            sessions_per_day: 1,
            warmup_sessions: 2,
            seed: 9,
            threads: 1,
        };
        let serial = run_cold_start(&pop, 6, &base);
        for threads in [2usize, 4] {
            let cfg = ColdStartConfig { threads, ..base };
            let res = run_cold_start(&pop, 6, &cfg);
            assert_eq!(
                res.control_by_day, serial.control_by_day,
                "control series diverged at {threads} threads"
            );
            assert_eq!(
                res.treatment_by_day, serial.treatment_by_day,
                "treatment series diverged at {threads} threads"
            );
        }
    }
}
