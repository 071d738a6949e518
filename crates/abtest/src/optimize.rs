//! The `(c0, c1)` search — the reproduction of §5.3's tuning loop, where
//! the paper used the Ax adaptive-experimentation platform over multiple
//! A/B rounds to find a Pareto improvement on all metrics of interest.
//!
//! Our stand-in is successive halving over a [`spec::SearchSpec`]: rung
//! `r` evaluates the surviving arms against control (paired experiments)
//! with `initial_users × eta^r` users per arm; candidates that degrade a
//! guarded QoE metric are pruned immediately and only the `ceil(n / eta)`
//! smoothest survivors advance. Cheap rungs disqualify most arms, so the
//! expensive high-population evaluations are spent on the few contenders
//! — the budget shape of the Ax loop, walking the tradeoff curve of Fig 5
//! to the lowest throughput that still Pareto-improves QoE, without
//! pretending to reproduce Bayesian internals. The spec is the search's
//! only configuration — the `POST /searches` body, the daemon's
//! `spec.json` and `sammy-sim tune` all hand it over as it is — and
//! [`spec::SearchSpec::validate`] is its only validation. Each evaluation
//! is the Fig 5 sweep's ([`crate::sweep`]), judged against the guards.

use crate::experiment::{population_config_from_spec, ExperimentConfig};
use crate::streaming::mix2;
use crate::sweep::{evaluate, SweepPoint};
use netsim::SimError;
use serde::{Deserialize, Serialize};
use spec::{GuardSpec, SearchSpec};

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

impl Candidate {
    /// Judge an evaluated point against the guards. A change the sweep
    /// reports as NaN is journalled as 0.0: JSON has no NaN.
    fn judge(point: SweepPoint, guards: &GuardSpec) -> Candidate {
        let or_zero = |pct: f64| if pct.is_finite() { pct } else { 0.0 };
        let vmaf_pct = or_zero(point.vmaf_pct);
        let play_delay_pct = or_zero(point.play_delay_pct);
        let rebuffer_pct = or_zero(point.rebuffer_pct);
        Candidate {
            c0: point.c0,
            c1: point.c1,
            tput_pct: or_zero(point.tput_pct),
            vmaf_pct,
            play_delay_pct,
            rebuffer_pct,
            feasible: vmaf_pct >= guards.min_vmaf_pct
                && play_delay_pct <= guards.max_play_delay_pct
                && rebuffer_pct <= guards.max_rebuffer_pct,
        }
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
    /// EXPERIMENTS table compares against a full grid.
    pub user_sessions: u64,
}

/// Run a successive-halving search to completion.
pub fn halving_search(spec: &SearchSpec) -> Result<HalvingOutcome, SimError> {
    halving_search_with(spec, &[], |_| Ok(()))
}

/// [`halving_search`] replaying a journal prefix — the serve daemon's
/// entry point.
///
/// Evaluation `k` of the search is `journal[k]` when the journal has one:
/// it is taken as it stands, not simulated, but still *counted* (budget
/// and outcome are properties of the logical search, so a resumed search
/// reports byte-identical totals to an uninterrupted one). It must name
/// the rung, users and `(c0, c1)` the search is at, or the search fails
/// with an error naming `k`. Past the journal each evaluation is simulated,
/// judged and handed to `on_fresh` before the search moves on; an `Err`
/// from `on_fresh` ends the search with that error. A journal the daemon
/// appended one fresh evaluation at a time is, by construction, a prefix
/// of this deterministic order.
///
/// `spec.base` sizes and seeds every evaluation: its `users_per_arm` is
/// overridden per rung and its `seed` is the root of the per-rung
/// derived-seed scheme. Rung `r` derives
/// `seed_r = mix2(base.seed, r + 1)` and every arm in the rung shares it
/// — the same users, titles, and session randomness — so comparisons are
/// paired *across arms* as well as against control, and a candidate's
/// metrics depend only on `(spec, rung)`: never on thread count,
/// evaluation order, or which other arms survived.
pub fn halving_search_with(
    spec: &SearchSpec,
    journal: &[Evaluation],
    mut on_fresh: impl FnMut(&Evaluation) -> Result<(), SimError>,
) -> Result<HalvingOutcome, SimError> {
    spec.validate()?;
    let base = ExperimentConfig::from(&spec.base);
    let population = population_config_from_spec(&spec.base);
    let mut survivors: Vec<(f64, f64)> = spec.arms.iter().map(|p| (p.c0, p.c1)).collect();
    let mut evaluations: Vec<Evaluation> = Vec::new();
    let mut user_sessions = 0u64;
    let mut rungs_run = 0usize;
    let mut best: Option<Candidate> = None;

    for rung in 0..spec.rungs {
        if survivors.is_empty() {
            break;
        }
        let users = spec.rung_users(rung);
        let rung_seed = mix2(base.seed, rung as u64 + 1);
        let rung_cfg = ExperimentConfig {
            users_per_arm: users,
            seed: rung_seed,
            ..base.clone()
        };
        let mut rung_cands: Vec<Candidate> = Vec::new();
        for &(c0, c1) in &survivors {
            let k = evaluations.len();
            let ev = match journal.get(k) {
                Some(j) => {
                    let c = &j.candidate;
                    let named = (j.rung, j.users, c.c0.to_bits(), c.c1.to_bits());
                    if named != (rung, users, c0.to_bits(), c1.to_bits()) {
                        return Err(SimError::Checkpoint {
                            path: format!("journal[{k}]"),
                            reason: format!(
                                "names rung {} ({} users, {}, {}); the search is at rung {rung} ({users} users, {c0}, {c1})",
                                j.rung, j.users, c.c0, c.c1
                            ),
                        });
                    }
                    j.clone()
                }
                None => {
                    let point = evaluate(&population, &rung_cfg, c0, c1)?;
                    let ev = Evaluation {
                        rung,
                        users,
                        candidate: Candidate::judge(point, &spec.guards),
                    };
                    on_fresh(&ev)?;
                    ev
                }
            };
            user_sessions += rung_cfg.sessions_simulated(users);
            rung_cands.push(ev.candidate.clone());
            evaluations.push(ev);
        }
        rungs_run = rung + 1;

        // Prune guard violators, rank the rest smoothest-first.
        let mut feasible: Vec<&Candidate> = rung_cands.iter().filter(|c| c.feasible).collect();
        feasible.sort_by(|a, b| a.tput_pct.partial_cmp(&b.tput_pct).expect("sanitized"));
        if let Some(&winner) = feasible.first() {
            // Deepest rung with a feasible arm defines the running winner.
            best = Some(winner.clone());
        }
        let keep = survivors.len().div_ceil(spec.eta).max(1);
        survivors = feasible.iter().take(keep).map(|c| (c.c0, c.c1)).collect();
    }

    if journal.len() > evaluations.len() {
        return Err(SimError::Checkpoint {
            path: format!("journal[{}]", evaluations.len()),
            reason: "the search ended before this evaluation".into(),
        });
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
    use crate::population::PopulationConfig;
    use spec::{ArmPoint, ExperimentSpec};

    /// Small halving setup on the light population; guards permissive so
    /// rung structure (not pruning) drives the schedule.
    fn tiny_halving(arms: usize, threads: usize) -> SearchSpec {
        SearchSpec {
            name: "tiny".into(),
            arms: (0..arms)
                .map(|i| {
                    let c0 = 1.2 + 0.4 * i as f64;
                    ArmPoint { c0, c1: c0 - 0.2 }
                })
                .collect(),
            initial_users: 6,
            eta: 2,
            rungs: 2,
            guards: GuardSpec {
                min_vmaf_pct: -100.0,
                max_play_delay_pct: 1000.0,
                max_rebuffer_pct: 1000.0,
            },
            base: ExperimentSpec {
                users_per_arm: 1,
                pre_sessions: 1,
                sessions_per_user: 1,
                seed: 11,
                bootstrap_reps: 40,
                threads,
                light_population: true,
                ..Default::default()
            },
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

    /// A search reads point estimates only, so its base's replicate count
    /// changes nothing — not the outcome, and not the time: at the ceiling
    /// the sixteen CIs an evaluation used to build took minutes a rung.
    #[test]
    fn search_ignores_bootstrap_reps() {
        let mut few = tiny_halving(4, 0);
        few.base.bootstrap_reps = 1;
        let mut many = few.clone();
        many.base.bootstrap_reps = spec::MAX_BOOTSTRAP_REPS;
        let a = halving_search(&few).unwrap();
        let b = halving_search(&many).unwrap();
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best, b.best);
        assert_eq!(a.user_sessions, b.user_sessions);
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

    /// A resumed search replays its journal by position: for a prefix of
    /// any length, `on_fresh` sees exactly the evaluations past it, in
    /// order, and the outcome is the unjournaled search's.
    #[test]
    fn halving_replays_a_journal_prefix_by_position() {
        let cfg = tiny_halving(4, 0);
        let full = halving_search(&cfg).unwrap();
        assert_eq!(full.evaluations.len(), 6);
        for n in [0, 3, 6] {
            let mut fresh = Vec::new();
            let replay = halving_search_with(&cfg, &full.evaluations[..n], |ev| {
                fresh.push(ev.clone());
                Ok(())
            })
            .unwrap();
            assert_eq!(fresh, full.evaluations[n..], "prefix of {n}");
            assert_eq!(replay.evaluations, full.evaluations);
            assert_eq!(replay.best, full.best);
            assert_eq!(replay.rungs_run, full.rungs_run);
            assert_eq!(replay.user_sessions, full.user_sessions);
        }
    }

    /// A journal is trusted only where it names the arm the search is at:
    /// a line that names another arm, or one past the search's end, is
    /// refused by its position, and an error from `on_fresh` ends the
    /// search with that error.
    #[test]
    fn halving_refuses_a_journal_that_names_another_arm() {
        let cfg = tiny_halving(4, 0);
        let full = halving_search(&cfg).unwrap();
        let mut journal = full.evaluations[..3].to_vec();
        journal.swap(1, 2);
        let err = halving_search_with(&cfg, &journal, |_| unreachable!()).unwrap_err();
        assert!(
            matches!(&err, SimError::Checkpoint { path, .. } if path == "journal[1]"),
            "{err}"
        );

        let mut long = full.evaluations.clone();
        long.push(full.evaluations[5].clone());
        let err = halving_search_with(&cfg, &long, |_| unreachable!()).unwrap_err();
        assert!(
            matches!(&err, SimError::Checkpoint { path, .. } if path == "journal[6]"),
            "{err}"
        );

        let err = halving_search_with(&cfg, &full.evaluations[..4], |_| {
            Err(SimError::Io("disk full".into()))
        })
        .unwrap_err();
        assert_eq!(err, SimError::Io("disk full".into()));
    }

    #[test]
    fn halving_stops_early_when_guards_reject_everything() {
        let mut cfg = tiny_halving(3, 0);
        cfg.rungs = 3;
        // Impossible guard: require a VMAF *gain* of 50%.
        cfg.guards = GuardSpec {
            min_vmaf_pct: 50.0,
            ..GuardSpec::default()
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
    fn halving_validates_a_spec_built_in_code() {
        // `SearchSpec::validate` has its own battery in `spec`; this pins
        // that a spec which never went through `from_json` still meets it,
        // and meets it before anything is simulated.
        let mut cfg = tiny_halving(2, 0);
        cfg.eta = 1;
        let err = halving_search_with(&cfg, &[], |_| unreachable!());
        assert!(
            matches!(err, Err(SimError::InvalidConfig { field: "eta", .. })),
            "{err:?}"
        );
        let mut cfg = tiny_halving(2, 0);
        cfg.arms[1].c1 = 0.0;
        assert!(matches!(
            halving_search(&cfg),
            Err(SimError::InvalidConfig {
                field: "(c0, c1)",
                ..
            })
        ));
    }

    /// The differential that keeps the two callers of the one evaluation
    /// honest: the Fig 5 sweep over a grid and rung 0 of a halving search
    /// over the same arms, population and config agree field for field,
    /// bit for bit, wherever the sweep's value is finite — and the
    /// journalled candidate reads 0.0 exactly where it is not.
    #[test]
    fn sweep_equals_rung_zero_candidates() {
        let mut cfg = tiny_halving(5, 0);
        cfg.rungs = 1;
        cfg.initial_users = 9;
        let out = halving_search(&cfg).unwrap();
        assert_eq!(out.evaluations.len(), 5);

        let rung_seed = mix2(cfg.base.seed, 1);
        let rung_cfg = ExperimentConfig {
            users_per_arm: 9,
            seed: rung_seed,
            ..ExperimentConfig::from(&cfg.base)
        };
        let grid: Vec<(f64, f64)> = cfg.arms.iter().map(|p| (p.c0, p.c1)).collect();
        let sweep = crate::sweep::run_sweep(&PopulationConfig::light(), &grid, &rung_cfg).unwrap();

        assert_eq!(sweep.len(), out.evaluations.len());
        let mut finite = 0;
        for (point, e) in sweep.iter().zip(&out.evaluations) {
            let c = &e.candidate;
            assert_eq!(
                (point.c0.to_bits(), point.c1.to_bits()),
                (c.c0.to_bits(), c.c1.to_bits())
            );
            for (swept, journalled) in [
                (point.tput_pct, c.tput_pct),
                (point.vmaf_pct, c.vmaf_pct),
                (point.play_delay_pct, c.play_delay_pct),
                (point.rebuffer_pct, c.rebuffer_pct),
            ] {
                if swept.is_finite() {
                    finite += 1;
                    assert_eq!(swept.to_bits(), journalled.to_bits(), "{point:?} vs {c:?}");
                } else {
                    assert_eq!(journalled, 0.0, "{point:?} vs {c:?}");
                }
            }
        }
        assert!(finite >= 10, "the comparison must not be vacuous: {finite}");
    }
}
