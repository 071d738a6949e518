//! Parameter search over Sammy's `(c0, c1)` multipliers — the reproduction
//! of §5.3's tuning loop, where the paper used the Ax adaptive-
//! experimentation platform over multiple A/B rounds to find a Pareto
//! improvement on all metrics of interest.
//!
//! Our stand-in is a deterministic coordinate-refinement search: each round
//! evaluates a small grid of candidate arms against control (paired
//! experiments), discards candidates that degrade any guarded QoE metric,
//! and recenters a shrunken grid on the best survivor. This mirrors what
//! the Bayesian optimizer accomplishes — walking the tradeoff curve of
//! Fig 5 to the lowest throughput that still Pareto-improves QoE — without
//! pretending to reproduce Ax internals.

use crate::experiment::{population_config_from_spec, Arm, Experiment, ExperimentConfig};
use crate::population::{PopulationConfig, UserProfile};
use crate::streaming::mix2;
use netsim::SimError;
use serde::{Deserialize, Serialize};

/// Constraints an acceptable arm must satisfy (percent-change bounds vs
/// control, from the median statistic).
#[derive(Debug, Clone, Copy)]
pub struct QoeGuards {
    /// Lowest acceptable VMAF change (e.g. −0.1%).
    pub min_vmaf_pct: f64,
    /// Highest acceptable play-delay change (e.g. +1%).
    pub max_play_delay_pct: f64,
    /// Highest acceptable rebuffer-rate change (e.g. +5%).
    pub max_rebuffer_pct: f64,
}

impl Default for QoeGuards {
    fn default() -> Self {
        QoeGuards {
            min_vmaf_pct: -0.1,
            max_play_delay_pct: 1.0,
            max_rebuffer_pct: 5.0,
        }
    }
}

/// The spec-level guards map 1:1 onto the search guards.
impl From<&spec::GuardSpec> for QoeGuards {
    fn from(s: &spec::GuardSpec) -> QoeGuards {
        QoeGuards {
            min_vmaf_pct: s.min_vmaf_pct,
            max_play_delay_pct: s.max_play_delay_pct,
            max_rebuffer_pct: s.max_rebuffer_pct,
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Pace multiplier at empty buffer.
    pub c0: f64,
    /// Pace multiplier at full buffer.
    pub c1: f64,
    /// Chunk-throughput change vs control (%; more negative = smoother).
    pub tput_pct: f64,
    /// VMAF change (%).
    pub vmaf_pct: f64,
    /// Play-delay change (%).
    pub play_delay_pct: f64,
    /// Rebuffers-per-hour change (%).
    pub rebuffer_pct: f64,
    /// Whether the candidate satisfied all QoE guards.
    pub feasible: bool,
}

/// Result of the search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The chosen parameters (best feasible candidate).
    pub best: Candidate,
    /// Every candidate evaluated, in order.
    pub trace: Vec<Candidate>,
    /// Rounds executed.
    pub rounds: usize,
}

/// Search for the smoothest feasible `(c0, c1)`.
///
/// `rounds` of evaluation, each refining around the best survivor. The
/// objective is minimal chunk throughput subject to the QoE guards.
/// Rejects a zero-round or empty-population setup before any simulation.
pub fn search(
    population: &[UserProfile],
    cfg: &ExperimentConfig,
    guards: QoeGuards,
    rounds: usize,
) -> Result<SearchOutcome, SimError> {
    cfg.validate()?;
    if rounds == 0 {
        return Err(SimError::InvalidConfig {
            field: "rounds",
            reason: "need at least one round".into(),
        });
    }
    if population.is_empty() {
        return Err(SimError::InvalidConfig {
            field: "population",
            reason: "search needs at least one user".into(),
        });
    }
    let mut center = (3.0, 3.0);
    let mut spread = 1.6;
    let mut trace: Vec<Candidate> = Vec::new();

    for _round in 0..rounds {
        let candidates = round_grid(center, spread);
        for (c0, c1) in candidates {
            // Skip re-evaluating near-duplicates from earlier rounds.
            if trace
                .iter()
                .any(|c| (c.c0 - c0).abs() < 0.05 && (c.c1 - c1).abs() < 0.05)
            {
                continue;
            }
            let cand = evaluate(population, cfg, c0, c1, guards)?;
            trace.push(cand);
        }
        if let Some(best) = best_feasible(&trace) {
            center = (best.c0, best.c1);
        }
        spread *= 0.5;
    }

    let best = best_feasible(&trace)
        .cloned()
        // Nothing feasible (extremely strict guards): fall back to the
        // most conservative candidate evaluated.
        .unwrap_or_else(|| {
            trace
                .iter()
                .max_by(|a, b| (a.c0 + a.c1).partial_cmp(&(b.c0 + b.c1)).expect("finite"))
                .expect("non-empty trace")
                .clone()
        });
    Ok(SearchOutcome {
        best,
        trace,
        rounds,
    })
}

fn round_grid(center: (f64, f64), spread: f64) -> Vec<(f64, f64)> {
    let (c0, c1) = center;
    let mut grid = Vec::new();
    for dc0 in [-spread, 0.0, spread] {
        for dc1 in [-spread, 0.0, spread] {
            let a = (c0 + dc0).max(0.6);
            let b = (c1 + dc1).max(0.6).min(a + 0.01);
            grid.push((round2(a), round2(b)));
        }
    }
    grid.dedup();
    grid
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn evaluate(
    population: &[UserProfile],
    cfg: &ExperimentConfig,
    c0: f64,
    c1: f64,
    guards: QoeGuards,
) -> Result<Candidate, SimError> {
    let run = Experiment::builder()
        .population(population)
        .control(Arm::Production)
        .treatment(Arm::Sammy { c0, c1 })
        .config(cfg.clone())
        .run()?;
    let report = run.report(cfg.bootstrap_reps, cfg.seed);
    let get = |name: &str| {
        report
            .row(name)
            .map(|r| {
                let p = r.change.pct_change;
                if p.is_finite() {
                    p
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0)
    };
    let tput_pct = get("Chunk Throughput");
    let vmaf_pct = get("VMAF");
    let play_delay_pct = get("Play Delay");
    let rebuffer_pct = get("Rebuffers (/ hr)");
    let feasible = vmaf_pct >= guards.min_vmaf_pct
        && play_delay_pct <= guards.max_play_delay_pct
        && rebuffer_pct <= guards.max_rebuffer_pct;
    Ok(Candidate {
        c0,
        c1,
        tput_pct,
        vmaf_pct,
        play_delay_pct,
        rebuffer_pct,
        feasible,
    })
}

fn best_feasible(trace: &[Candidate]) -> Option<&Candidate> {
    trace
        .iter()
        .filter(|c| c.feasible)
        .min_by(|a, b| a.tput_pct.partial_cmp(&b.tput_pct).expect("finite"))
}

/// A successive-halving `(c0, c1)` search — the adaptive-budget
/// replacement for the fixed-grid [`search`] (kept as the baseline the
/// EXPERIMENTS budget table compares against).
///
/// Rung `r` evaluates the surviving arms with
/// `initial_users × eta^r` users per arm; QoE-guard violators are pruned
/// immediately and only the `ceil(n / eta)` smoothest survivors advance.
/// Cheap rungs disqualify most arms, so the expensive high-population
/// evaluations are spent on the few contenders — the budget shape of the
/// paper's Ax loop without pretending to reproduce Bayesian internals.
#[derive(Debug, Clone)]
pub struct HalvingConfig {
    /// Candidate `(c0, c1)` arms entering rung 0.
    pub arms: Vec<(f64, f64)>,
    /// Users per arm in rung 0.
    pub initial_users: usize,
    /// Halving factor (survivors per rung = `ceil(n / eta)`).
    pub eta: usize,
    /// Number of rungs.
    pub rungs: usize,
    /// QoE guardrails pruning candidates early.
    pub guards: QoeGuards,
    /// Base sizing/seed config. `users_per_arm` is overridden per rung and
    /// `seed` becomes the root of the per-rung derived-seed scheme.
    pub base: ExperimentConfig,
    /// Population model evaluations draw from.
    pub population: PopulationConfig,
}

impl HalvingConfig {
    /// Build from the wire-format [`spec::SearchSpec`] (the `POST
    /// /searches` body and the CLI both land here).
    pub fn from_spec(s: &spec::SearchSpec) -> HalvingConfig {
        HalvingConfig {
            arms: s.arms.iter().map(|p| (p.c0, p.c1)).collect(),
            initial_users: s.initial_users,
            eta: s.eta,
            rungs: s.rungs,
            guards: (&s.guards).into(),
            base: (&s.base).into(),
            population: population_config_from_spec(&s.base),
        }
    }

    /// Reject nonsensical setups before any simulation.
    pub fn validate(&self) -> Result<(), SimError> {
        self.base.validate()?;
        if self.arms.is_empty() {
            return Err(SimError::InvalidConfig {
                field: "arms",
                reason: "need at least one candidate arm".into(),
            });
        }
        if self.initial_users == 0 {
            return Err(SimError::InvalidConfig {
                field: "initial_users",
                reason: "need at least one user in rung 0".into(),
            });
        }
        if self.eta < 2 {
            return Err(SimError::InvalidConfig {
                field: "eta",
                reason: "halving needs eta >= 2".into(),
            });
        }
        if self.rungs == 0 || self.rungs > 20 {
            return Err(SimError::InvalidConfig {
                field: "rungs",
                reason: "need 1..=20 rungs".into(),
            });
        }
        Ok(())
    }
}

/// One candidate evaluated at one rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Rung index (0-based).
    pub rung: usize,
    /// Users per arm at this rung.
    pub users: usize,
    /// The evaluated candidate (metrics vs control at this rung's
    /// population).
    pub candidate: Candidate,
}

/// Result of a successive-halving search.
#[derive(Debug, Clone)]
pub struct HalvingOutcome {
    /// The winning candidate: smoothest feasible arm at the deepest rung
    /// that produced one (falls back to the most conservative rung-0 arm,
    /// marked infeasible, when the guards rejected everything).
    pub best: Candidate,
    /// Every evaluation, in (rung, submitted-arm-order) order.
    pub evaluations: Vec<Evaluation>,
    /// Rungs actually executed (stops early once no arm survives).
    pub rungs_run: usize,
    /// Simulated user-sessions spent: `users × (pre + 2 arms × experiment
    /// sessions)` summed over evaluations
    /// ([`ExperimentConfig::sessions_simulated`]). This is the budget the
    /// EXPERIMENTS table compares against the fixed grid.
    pub user_sessions: u64,
}

/// Run a successive-halving search to completion.
pub fn halving_search(cfg: &HalvingConfig) -> Result<HalvingOutcome, SimError> {
    halving_search_with(cfg, |_, _, _| None, |_| true)
}

/// [`halving_search`] with a resume cache and a progress callback — the
/// serve daemon's entry point.
///
/// `cached(rung, c0, c1)` may return a previously persisted candidate;
/// the evaluation is then skipped but still *counted* (budget and
/// outcome are properties of the logical search, so a resumed search
/// reports byte-identical totals to an uninterrupted one). `on_eval` fires
/// after every evaluation, cached or fresh, in deterministic order — the
/// daemon checkpoints there. Returning `false` from `on_eval` aborts the
/// search at that evaluation boundary (the daemon's simulated-kill hook);
/// the search then returns [`SimError::Io`] with an "aborted" message.
///
/// Determinism: rung `r` derives `seed_r = mix2(base.seed, r + 1)` and
/// every arm in the rung shares it — the same users, titles, and session
/// randomness — so comparisons are paired *across arms* as well as
/// against control, and a candidate's metrics depend only on
/// `(spec, rung)`: never on thread count, evaluation order, or which
/// other arms survived.
pub fn halving_search_with<C, P>(
    cfg: &HalvingConfig,
    mut cached: C,
    mut on_eval: P,
) -> Result<HalvingOutcome, SimError>
where
    C: FnMut(usize, f64, f64) -> Option<Candidate>,
    P: FnMut(&Evaluation) -> bool,
{
    cfg.validate()?;
    let mut survivors: Vec<(f64, f64)> = cfg.arms.clone();
    let mut evaluations: Vec<Evaluation> = Vec::new();
    let mut user_sessions = 0u64;
    let mut rungs_run = 0usize;
    let mut best: Option<Candidate> = None;

    for rung in 0..cfg.rungs {
        if survivors.is_empty() {
            break;
        }
        let users = cfg
            .initial_users
            .saturating_mul(cfg.eta.saturating_pow(rung as u32));
        let rung_seed = mix2(cfg.base.seed, rung as u64 + 1);
        let rung_cfg = ExperimentConfig {
            users_per_arm: users,
            seed: rung_seed,
            ..cfg.base.clone()
        };
        let population = crate::population::draw_population(&cfg.population, users, rung_seed);

        let mut rung_cands: Vec<Candidate> = Vec::new();
        for &(c0, c1) in &survivors {
            let candidate = match cached(rung, c0, c1) {
                Some(c) => c,
                None => evaluate(&population, &rung_cfg, c0, c1, cfg.guards)?,
            };
            user_sessions += rung_cfg.sessions_simulated(users);
            let ev = Evaluation {
                rung,
                users,
                candidate,
            };
            let keep_going = on_eval(&ev);
            rung_cands.push(ev.candidate.clone());
            evaluations.push(ev);
            if !keep_going {
                return Err(SimError::Io("halving search aborted by caller".to_string()));
            }
        }
        rungs_run = rung + 1;

        // Prune guard violators, rank the rest smoothest-first.
        let mut feasible: Vec<&Candidate> = rung_cands.iter().filter(|c| c.feasible).collect();
        feasible.sort_by(|a, b| a.tput_pct.partial_cmp(&b.tput_pct).expect("sanitized"));
        if let Some(&winner) = feasible.first() {
            // Deepest rung with a feasible arm defines the running winner.
            best = Some(winner.clone());
        }
        let keep = survivors.len().div_ceil(cfg.eta).max(1);
        survivors = feasible.iter().take(keep).map(|c| (c.c0, c.c1)).collect();
    }

    let best = best.unwrap_or_else(|| {
        // Guards rejected everything: fall back to the most conservative
        // (largest multipliers) arm evaluated, marked infeasible.
        evaluations
            .iter()
            .map(|e| &e.candidate)
            .max_by(|a, b| (a.c0 + a.c1).partial_cmp(&(b.c0 + b.c1)).expect("finite"))
            .expect("at least one rung ran")
            .clone()
    });
    Ok(HalvingOutcome {
        best,
        evaluations,
        rungs_run,
        user_sessions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{draw_population, PopulationConfig};

    #[test]
    fn search_finds_a_feasible_smoother_point() {
        let cfg = ExperimentConfig {
            users_per_arm: 24,
            pre_sessions: 2,
            sessions_per_user: 2,
            seed: 6,
            bootstrap_reps: 100,
            threads: 0,
        };
        let pop = draw_population(&PopulationConfig::default(), cfg.users_per_arm, 6);
        let out = search(&pop, &cfg, QoeGuards::default(), 2).unwrap();
        assert!(out.rounds == 2);
        assert!(!out.trace.is_empty());
        let b = &out.best;
        assert!(b.feasible, "search must end feasible: {b:?}");
        // The winner must smooth substantially without violating guards.
        assert!(b.tput_pct < -25.0, "best {b:?}");
        assert!(b.vmaf_pct >= -0.1);
        // And it must be the minimum-throughput feasible candidate.
        for c in out.trace.iter().filter(|c| c.feasible) {
            assert!(b.tput_pct <= c.tput_pct);
        }
    }

    #[test]
    fn infeasible_guards_fall_back_conservatively() {
        let cfg = ExperimentConfig {
            users_per_arm: 10,
            pre_sessions: 1,
            sessions_per_user: 1,
            seed: 8,
            bootstrap_reps: 50,
            threads: 0,
        };
        let pop = draw_population(&PopulationConfig::default(), cfg.users_per_arm, 8);
        // Impossible guard: require a VMAF *gain* of 5%.
        let guards = QoeGuards {
            min_vmaf_pct: 5.0,
            ..Default::default()
        };
        let out = search(&pop, &cfg, guards, 1).unwrap();
        assert!(!out.best.feasible);
        // Fallback is the most conservative (largest multipliers) candidate.
        let max_sum = out
            .trace
            .iter()
            .map(|c| c.c0 + c.c1)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((out.best.c0 + out.best.c1 - max_sum).abs() < 1e-9);
    }

    #[test]
    fn search_rejects_bad_setups() {
        let cfg = ExperimentConfig::default();
        let pop = draw_population(&PopulationConfig::default(), 3, 4);
        assert!(search(&pop, &cfg, QoeGuards::default(), 0).is_err());
        assert!(search(&[], &cfg, QoeGuards::default(), 1).is_err());
    }

    #[test]
    fn grid_respects_floors_and_ordering() {
        for (c0, c1) in round_grid((1.0, 1.0), 1.6) {
            assert!(c0 >= 0.6);
            assert!(c1 >= 0.6);
            assert!(c1 <= c0 + 0.011, "c1 {c1} should not exceed c0 {c0}");
        }
    }

    /// Small halving setup on the light population; guards permissive so
    /// rung structure (not pruning) drives the schedule.
    fn tiny_halving(arms: usize, threads: usize) -> HalvingConfig {
        HalvingConfig {
            arms: (0..arms)
                .map(|i| {
                    let c0 = 1.2 + 0.4 * i as f64;
                    (c0, c0 - 0.2)
                })
                .collect(),
            initial_users: 6,
            eta: 2,
            rungs: 2,
            guards: QoeGuards {
                min_vmaf_pct: -100.0,
                max_play_delay_pct: 1000.0,
                max_rebuffer_pct: 1000.0,
            },
            base: ExperimentConfig {
                users_per_arm: 1,
                pre_sessions: 1,
                sessions_per_user: 1,
                seed: 11,
                bootstrap_reps: 40,
                threads,
            },
            population: PopulationConfig::light(),
        }
    }

    #[test]
    fn halving_is_reproducible_under_thread_churn() {
        // The determinism regression for the derived-seed scheme: a rung's
        // seed depends only on (base seed, rung), so the whole search is
        // bit-identical at any thread count.
        let a = halving_search(&tiny_halving(4, 1)).unwrap();
        let b = halving_search(&tiny_halving(4, 4)).unwrap();
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best, b.best);
        assert_eq!(a.user_sessions, b.user_sessions);
        assert_eq!(a.rungs_run, b.rungs_run);
    }

    #[test]
    fn halving_candidates_do_not_depend_on_arm_order() {
        let mut cfg = tiny_halving(4, 0);
        let fwd = halving_search(&cfg).unwrap();
        cfg.arms.reverse();
        let rev = halving_search(&cfg).unwrap();
        // Same rung-0 metrics per arm (shared rung seed, paired across
        // arms), and the same winner.
        for e in fwd.evaluations.iter().filter(|e| e.rung == 0) {
            let twin = rev
                .evaluations
                .iter()
                .find(|x| x.rung == 0 && x.candidate.c0 == e.candidate.c0)
                .expect("same arm set");
            assert_eq!(twin.candidate, e.candidate);
        }
        assert_eq!(fwd.best, rev.best);
        assert_eq!(fwd.user_sessions, rev.user_sessions);
    }

    #[test]
    fn halving_allocates_budget_in_rungs() {
        let mut cfg = tiny_halving(8, 0);
        cfg.rungs = 3;
        let out = halving_search(&cfg).unwrap();
        // 8 arms at 6 users, 4 at 12, 2 at 24 — each ceil(n/eta) survivors.
        let per_rung: Vec<usize> = (0..3)
            .map(|r| out.evaluations.iter().filter(|e| e.rung == r).count())
            .collect();
        assert_eq!(per_rung, vec![8, 4, 2]);
        for e in &out.evaluations {
            assert_eq!(e.users, 6 << e.rung);
        }
        // users × (1 pre + 2 arms × 1 session) summed over evaluations.
        assert_eq!(out.user_sessions, (8 * 6 + 4 * 12 + 2 * 24) * (1 + 2));
        assert!(out.best.feasible);
        // The winner is the smoothest feasible arm of the deepest rung.
        let last: Vec<&Candidate> = out
            .evaluations
            .iter()
            .filter(|e| e.rung == 2 && e.candidate.feasible)
            .map(|e| &e.candidate)
            .collect();
        assert!(last.iter().all(|c| out.best.tput_pct <= c.tput_pct));
    }

    #[test]
    fn halving_replays_from_cache_without_simulation() {
        let cfg = tiny_halving(2, 0);
        let full = halving_search(&cfg).unwrap();
        // Replay with every evaluation cached: same outcome, same budget
        // accounting (the budget is a property of the logical search).
        let replay = halving_search_with(
            &cfg,
            |rung, c0, c1| {
                full.evaluations
                    .iter()
                    .find(|e| e.rung == rung && e.candidate.c0 == c0 && e.candidate.c1 == c1)
                    .map(|e| e.candidate.clone())
            },
            |_| true,
        )
        .unwrap();
        assert_eq!(replay.evaluations, full.evaluations);
        assert_eq!(replay.best, full.best);
        assert_eq!(replay.user_sessions, full.user_sessions);
    }

    #[test]
    fn halving_stops_early_when_guards_reject_everything() {
        let mut cfg = tiny_halving(3, 0);
        cfg.rungs = 3;
        // Impossible guard: require a VMAF *gain* of 50%.
        cfg.guards = QoeGuards {
            min_vmaf_pct: 50.0,
            ..QoeGuards::default()
        };
        let out = halving_search(&cfg).unwrap();
        assert_eq!(out.rungs_run, 1, "no survivors after rung 0");
        assert!(!out.best.feasible);
        // Fallback is the most conservative (largest multipliers) arm.
        let max_sum = out
            .evaluations
            .iter()
            .map(|e| e.candidate.c0 + e.candidate.c1)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((out.best.c0 + out.best.c1 - max_sum).abs() < 1e-9);
    }

    #[test]
    fn halving_rejects_bad_setups() {
        let ok = tiny_halving(2, 0);
        for breakage in [
            |c: &mut HalvingConfig| c.arms.clear(),
            |c: &mut HalvingConfig| c.initial_users = 0,
            |c: &mut HalvingConfig| c.eta = 1,
            |c: &mut HalvingConfig| c.rungs = 0,
            |c: &mut HalvingConfig| c.rungs = 99,
        ] {
            let mut cfg = ok.clone();
            breakage(&mut cfg);
            assert!(halving_search(&cfg).is_err());
        }
    }

    #[test]
    fn halving_config_tracks_search_spec() {
        let mut s = spec::SearchSpec {
            arms: vec![spec::ArmPoint { c0: 2.0, c1: 1.5 }],
            ..Default::default()
        };
        s.base.light_population = true;
        s.base.seed = 77;
        s.guards.min_vmaf_pct = -0.5;
        let cfg = HalvingConfig::from_spec(&s);
        assert_eq!(cfg.arms, vec![(2.0, 1.5)]);
        assert_eq!(cfg.base.seed, 77);
        assert_eq!(cfg.guards.min_vmaf_pct, -0.5);
        assert_eq!(cfg.eta, s.eta);
        assert_eq!(
            cfg.population.title_duration_s,
            PopulationConfig::light().title_duration_s
        );
    }
}
