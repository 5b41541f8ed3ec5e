//! Root primal heuristics: relaxation-guided diving plus a RENS
//! neighborhood sub-MILP, run once between the root cut loop and the tree
//! search.
//!
//! Both heuristics try to hand the search a strong starting incumbent so
//! bound pruning bites from the first node:
//!
//! * **Dive** — solve the root LP on a private simplex, then repeatedly fix
//!   the most fractional integer column to a nearby integer and
//!   re-optimize warm (each fix is one dual-simplex bound change). Near-half
//!   fractionalities break ties through a seeded xorshift64* generator, so
//!   repeated runs take the identical trajectory.
//! * **RENS** — restrict every integer column to `[⌊x*⌋, ⌈x*⌉]` around the
//!   root LP point `x*` and solve the restriction as a sub-MILP with a
//!   small node budget ([`SolverOptions::heuristic_node_limit`]).
//!
//! The RENS sub-MILP runs serial, observer-less and with `heuristics` off
//! (no recursion); it inherits the parent's tolerances, cut configuration,
//! cancel token and remaining wall-clock budget. Every accepted point is
//! validated against the *original* model rows and emits a
//! [`SolverEvent::HeuristicIncumbent`]; time spent here lands in the
//! disjoint [`SolveStats::heuristic_seconds`](crate::SolveStats) bucket.
//! Nothing here reads the clock for decisions (deadlines only bound work),
//! so serial solves without a time limit stay bit-for-bit deterministic.

use crate::branch::internal_objective;
use crate::events::{ObserverHandle, SolverEvent};
use crate::model::{Model, VarId};
use crate::options::SolverOptions;
use crate::simplex::{LpStatus, Simplex};
use crate::standard::StandardForm;
use std::time::Instant;

/// Work accounting of the heuristic phase, folded into
/// [`SolveStats`](crate::SolveStats) by [`crate::branch::solve`].
#[derive(Debug, Default)]
pub(crate) struct HeuristicOutcome {
    /// Wall seconds of the whole phase (LP and sub-MILP solves included).
    pub(crate) seconds: f64,
    /// Improving incumbents accepted.
    pub(crate) accepted: u64,
}

/// The seeded tie-break generator (xorshift64*), matching the simplex's
/// perturbation seed so every run of the same model dives identically.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Wall seconds left before the parent's deadline (`+inf` without one).
fn remaining(options: &SolverOptions, start: Instant) -> f64 {
    if options.time_limit.is_finite() {
        options.time_limit - start.elapsed().as_secs_f64()
    } else {
        f64::INFINITY
    }
}

/// Options of a neighborhood sub-MILP: serial, quiet, budgeted, and
/// heuristics off so the recursion stops at depth one.
fn sub_options(options: &SolverOptions, start: Instant) -> SolverOptions {
    let mut sub = options.clone();
    sub.threads = 1;
    sub.heuristics = false;
    sub.node_limit = options.heuristic_node_limit;
    sub.observer = ObserverHandle::none();
    if options.time_limit.is_finite() {
        sub.time_limit = remaining(options, start).max(0.0);
    }
    sub
}

/// Validates `cand` against the original model and installs it as the best
/// point when it strictly improves; emits the heuristic-incumbent event.
fn offer(
    model: &Model,
    sf: &StandardForm,
    options: &SolverOptions,
    best: &mut Option<(Vec<f64>, f64)>,
    out: &mut HeuristicOutcome,
    heuristic: &'static str,
    cand: &[f64],
) -> bool {
    let tol = options.feasibility_tol.max(options.integrality_tol);
    if !model.is_feasible(cand, tol * 10.0) {
        return false;
    }
    let obj = internal_objective(model, sf, cand);
    if best.as_ref().is_some_and(|&(_, b)| obj >= b) {
        return false;
    }
    let objective = sf.user_objective(obj);
    options.observer.emit(|| SolverEvent::HeuristicIncumbent { heuristic, objective });
    *best = Some((cand.to_vec(), obj));
    out.accepted += 1;
    true
}

/// Runs the root heuristic phase over the post-cut form and returns the
/// best starting incumbent (internal scale) — the warm hint when nothing
/// improved on it. `out` collects the time bucket and acceptance count.
#[allow(clippy::too_many_arguments)] // mirrors the search entry points
pub(crate) fn run_root(
    model: &Model,
    sf: &StandardForm,
    options: &SolverOptions,
    int_cols: &[usize],
    root_bounds: &[(f64, f64)],
    warm: Option<(Vec<f64>, f64)>,
    start: Instant,
    out: &mut HeuristicOutcome,
) -> Option<(Vec<f64>, f64)> {
    // The form's structural columns must mirror the model's variables —
    // a model delta that was not propagated into `sf` would make every
    // dive and neighborhood search index the wrong columns.
    debug_assert_eq!(sf.n, model.num_vars(), "form out of sync with the model");
    debug_assert_eq!(root_bounds.len(), model.num_vars());
    let t0 = Instant::now();
    let mut best = warm;
    let int_tol = options.integrality_tol;

    // Root LP on a private simplex: the dive mutates its bounds freely
    // without touching the search workers' state.
    let mut lp = Simplex::new(sf, options);
    if options.time_limit.is_finite() {
        lp.deadline = Some(start + std::time::Duration::from_secs_f64(options.time_limit));
    }
    for &j in int_cols {
        let (l, u) = root_bounds[j];
        lp.set_bounds(j, l, u);
    }
    lp.refresh();
    if !matches!(lp.optimize(), Ok(LpStatus::Optimal)) {
        out.seconds = t0.elapsed().as_secs_f64();
        return best;
    }
    let mut x = Vec::new();
    lp.values_into(&mut x);
    let x_root: Vec<f64> = x[..sf.n].to_vec();

    // Phase 1: dive. Fix the most fractional column toward its nearest
    // integer and re-optimize warm; an integral end point is a candidate.
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for _ in 0..=int_cols.len() {
        if options.cancelled() || remaining(options, start) <= 0.0 {
            break;
        }
        let mut pick: Option<(usize, f64, f64)> = None;
        for &j in int_cols {
            let v = x[j];
            let f = (v - v.round()).abs();
            if f > int_tol && pick.is_none_or(|(_, _, pf)| f > pf) {
                pick = Some((j, v, f));
            }
        }
        let Some((j, v, _)) = pick else {
            let mut cand: Vec<f64> = x[..sf.n].to_vec();
            for &j in int_cols {
                cand[j] = cand[j].round();
            }
            offer(model, sf, options, &mut best, out, "dive", &cand);
            break;
        };
        let f = v - v.floor();
        let target = if (0.45..=0.55).contains(&f) {
            // Near-half fractionality carries no rounding signal: break the
            // tie with the seeded generator so runs stay reproducible.
            if rng.next() & 1 == 0 {
                v.floor()
            } else {
                v.ceil()
            }
        } else {
            v.round()
        };
        let t = target.clamp(lp.lb[j], lp.ub[j]);
        lp.set_bounds(j, t, t);
        lp.refresh();
        match lp.optimize() {
            Ok(LpStatus::Optimal) => lp.values_into(&mut x),
            _ => break, // infeasible dive or numerics: keep what we have
        }
    }

    // Phase 2: RENS around the root LP point.
    if options.heuristic_node_limit > 0 && !options.cancelled() && remaining(options, start) > 0.05
    {
        let mut sub_model = model.clone();
        for &j in int_cols {
            let mut v = x_root[j];
            if (v - v.round()).abs() <= int_tol {
                v = v.round();
            }
            let (rl, ru) = root_bounds[j];
            let l = v.floor().max(rl);
            let u = v.ceil().min(ru).max(l);
            let _ = sub_model.set_bounds(VarId(j), l, u);
        }
        if let Some((v, _)) = &best {
            let _ = sub_model.set_warm_start(v.clone());
        }
        if let Ok(sol) = sub_model.solve_with(&sub_options(options, start)) {
            if sol.has_incumbent() {
                offer(model, sf, options, &mut best, out, "rens", sol.values());
            }
        }
    }

    out.seconds = t0.elapsed().as_secs_f64();
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Objective};

    fn knapsack() -> Model {
        let mut m = Model::new("hk");
        let mut weight = LinExpr::new();
        let mut value = LinExpr::new();
        for i in 0..10 {
            let w = 7.0 + ((i as f64) * 3.0) % 5.0;
            let x = m.binary(format!("x{i}"));
            weight.add_term(x, w);
            value.add_term(x, w + 1.0 + (i as f64) * 0.1);
        }
        m.add_le("cap", weight, 41.0);
        m.set_objective(Objective::Maximize, value);
        m
    }

    fn setup(
        model: &Model,
        options: &SolverOptions,
    ) -> (StandardForm, Vec<usize>, Vec<(f64, f64)>) {
        let sf = StandardForm::from_model(model, options);
        let int_cols: Vec<usize> = (0..model.num_vars()).collect();
        let root_bounds: Vec<(f64, f64)> =
            (0..model.num_vars()).map(|j| (sf.lb[j].ceil(), sf.ub[j].floor())).collect();
        (sf, int_cols, root_bounds)
    }

    #[test]
    fn heuristics_find_a_feasible_incumbent() {
        let model = knapsack();
        let options = SolverOptions::default().threads(1);
        let (sf, int_cols, root_bounds) = setup(&model, &options);
        let mut out = HeuristicOutcome::default();
        let best = run_root(
            &model,
            &sf,
            &options,
            &int_cols,
            &root_bounds,
            None,
            Instant::now(),
            &mut out,
        );
        let (values, obj) = best.expect("the knapsack has trivial feasible points");
        assert!(model.is_feasible(&values, 1e-6), "incumbent must satisfy the model");
        assert!((internal_objective(&model, &sf, &values) - obj).abs() < 1e-9);
        assert!(out.accepted >= 1);
        assert!(out.seconds >= 0.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "form out of sync with the model")]
    fn stale_form_is_caught_in_debug() {
        let mut model = knapsack();
        let options = SolverOptions::default().threads(1);
        // Form built before the model grew a column (an unpropagated delta).
        let sf = StandardForm::from_model(&model, &options);
        model.binary("late");
        let int_cols: Vec<usize> = (0..model.num_vars()).collect();
        let root_bounds = vec![(0.0, 1.0); model.num_vars()];
        let mut out = HeuristicOutcome::default();
        let _ = run_root(
            &model,
            &sf,
            &options,
            &int_cols,
            &root_bounds,
            None,
            Instant::now(),
            &mut out,
        );
    }

    #[test]
    fn repeated_runs_agree_bit_for_bit() {
        let model = knapsack();
        let options = SolverOptions::default().threads(1);
        let (sf, int_cols, root_bounds) = setup(&model, &options);
        let run = || {
            let mut out = HeuristicOutcome::default();
            let best = run_root(
                &model,
                &sf,
                &options,
                &int_cols,
                &root_bounds,
                None,
                Instant::now(),
                &mut out,
            );
            (best.map(|(v, o)| (v, o.to_bits())), out.accepted)
        };
        assert_eq!(run(), run(), "seeded heuristics must replay identically");
    }

    #[test]
    fn worse_points_never_replace_the_warm_hint() {
        let model = knapsack();
        let options = SolverOptions::default().threads(1);
        let (sf, int_cols, root_bounds) = setup(&model, &options);
        // A deliberately unbeatable warm objective: heuristics must keep it.
        let all_zero = vec![0.0; model.num_vars()];
        let warm = Some((all_zero.clone(), f64::NEG_INFINITY));
        let mut out = HeuristicOutcome::default();
        let best = run_root(
            &model,
            &sf,
            &options,
            &int_cols,
            &root_bounds,
            warm,
            Instant::now(),
            &mut out,
        );
        let (values, obj) = best.unwrap();
        assert_eq!(values, all_zero);
        assert_eq!(obj, f64::NEG_INFINITY);
        assert_eq!(out.accepted, 0);
    }

    #[test]
    fn sub_milps_inherit_the_remaining_budget_and_the_parent_token() {
        let token = crate::CancelToken::new();
        let options =
            SolverOptions::default().threads(8).time_limit(10.0).cancel_token(token.clone());
        // A solve that started 4 seconds ago has 6 seconds of budget left:
        // the sub-MILP must inherit the *remaining* budget, not the parent's
        // full limit (that is exactly the overshoot bug).
        let start = Instant::now() - std::time::Duration::from_secs(4);
        let sub = sub_options(&options, start);
        assert_eq!(sub.threads, 1, "sub-MILPs must stay serial");
        assert!(!sub.heuristics, "no recursive heuristic phases");
        assert_eq!(sub.node_limit, options.heuristic_node_limit);
        assert!(
            sub.time_limit <= 6.0 + 0.1,
            "sub-MILP budget {} must be capped at the parent's remaining 6 s",
            sub.time_limit
        );
        assert!(sub.time_limit > 5.0, "remaining budget unexpectedly small: {}", sub.time_limit);
        // The token is shared with the parent, not copied: cancelling the
        // parent must cancel an in-flight sub-MILP.
        assert!(!sub.cancelled());
        token.cancel();
        assert!(sub.cancelled(), "parent CancelToken must reach the sub-MILP");
    }

    #[test]
    fn an_exhausted_budget_pins_the_overshoot_to_the_root_lp() {
        // Near-deadline parent: 5 s limit of which ~4.96 s are already
        // spent. Even with an effectively unbounded sub-MILP node budget,
        // the phase may only run the root LP — the dive loop and the RENS
        // sub-MILP must observe the exhausted budget and back off, so the
        // overshoot is bounded by one LP solve, not a full sub-MILP.
        let model = knapsack();
        let mut options = SolverOptions::default().threads(1).time_limit(5.0);
        options.heuristic_node_limit = usize::MAX / 2;
        let (sf, int_cols, root_bounds) = setup(&model, &options);
        let start = Instant::now() - std::time::Duration::from_millis(4960);
        let t0 = Instant::now();
        let mut out = HeuristicOutcome::default();
        let _ = run_root(&model, &sf, &options, &int_cols, &root_bounds, None, start, &mut out);
        let elapsed = t0.elapsed().as_secs_f64();
        // Generous CI margin; without inheritance the sub-MILP would be
        // free to burn its node budget for arbitrarily long.
        assert!(elapsed < 2.0, "heuristic phase overshot an exhausted deadline by {elapsed} s");
    }

    #[test]
    fn a_full_solve_with_heuristics_respects_a_tight_time_limit() {
        // End-to-end pin through the public API: heuristics on, huge
        // sub-MILP node budget, tiny wall budget.
        let model = knapsack();
        let options = SolverOptions::default()
            .threads(1)
            .time_limit(0.25)
            .heuristic_node_limit(usize::MAX / 2);
        let t0 = Instant::now();
        let _ = model.solve_with(&options).expect("budgeted solve");
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed < 2.25, "solve overshot its 0.25 s budget by {} s", elapsed - 0.25);
    }

    #[test]
    fn cancelled_token_skips_the_sub_milps() {
        let model = knapsack();
        let token = crate::CancelToken::new();
        token.cancel();
        let options = SolverOptions::default().threads(1).cancel_token(token);
        let (sf, int_cols, root_bounds) = setup(&model, &options);
        let mut out = HeuristicOutcome::default();
        // The root LP may still solve (cancellation is cooperative), but no
        // dive iteration or sub-MILP may run once the token is cancelled.
        let _ = run_root(
            &model,
            &sf,
            &options,
            &int_cols,
            &root_bounds,
            None,
            Instant::now(),
            &mut out,
        );
        assert_eq!(out.accepted, 0, "cancelled phase must not accept points");
    }
}
