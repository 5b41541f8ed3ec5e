//! Root primal heuristic: relaxation-guided diving, run once between the
//! root cut loop and the tree search.
//!
//! The dive tries to hand the search a strong starting incumbent so bound
//! pruning bites from the first node: solve the root LP on a private
//! simplex, then repeatedly fix the most fractional integer column to a
//! nearby integer and re-optimize warm (each fix is one dual-simplex bound
//! change). Near-half fractionalities break ties through a seeded
//! xorshift64* generator, so repeated runs take the identical trajectory.
//!
//! The dive stops at the parent's deadline and cancel token. An accepted
//! point is validated against the *original* model rows and emits a
//! [`SolverEvent::HeuristicIncumbent`]; time spent here lands in the
//! disjoint [`SolveStats::heuristic_seconds`](crate::SolveStats) bucket.
//! Nothing here reads the clock for decisions (deadlines only bound work),
//! so serial solves without a time limit stay bit-for-bit deterministic.

use crate::branch::internal_objective;
use crate::events::SolverEvent;
use crate::model::Model;
use crate::options::SolverOptions;
use crate::simplex::{LpStatus, Simplex};
use crate::standard::StandardForm;
use std::time::Instant;

/// Work accounting of the heuristic phase, folded into
/// [`SolveStats`](crate::SolveStats) by [`crate::branch::solve`].
#[derive(Debug, Default)]
pub(crate) struct HeuristicOutcome {
    /// Wall seconds of the whole phase (root LP and dive re-solves).
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

/// Whether the parent's wall-clock budget is spent.
fn time_up(options: &SolverOptions, start: Instant) -> bool {
    options.time_limit.is_finite() && start.elapsed().as_secs_f64() >= options.time_limit
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
    // a model delta that was not propagated into `sf` would make the dive
    // index the wrong columns.
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

    // Fix the most fractional column toward its nearest integer and
    // re-optimize warm; an integral end point is a candidate.
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for _ in 0..=int_cols.len() {
        if options.cancelled() || time_up(options, start) {
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
            // Integral end point: keep it when it passes the original rows
            // and strictly improves on the warm hint.
            let mut cand: Vec<f64> = x[..sf.n].to_vec();
            for &j in int_cols {
                cand[j] = cand[j].round();
            }
            let tol = options.feasibility_tol.max(options.integrality_tol);
            if model.is_feasible(&cand, tol * 10.0) {
                let obj = internal_objective(model, sf, &cand);
                if !best.as_ref().is_some_and(|&(_, b)| obj >= b) {
                    let objective = sf.user_objective(obj);
                    options.observer.emit(|| SolverEvent::HeuristicIncumbent { objective });
                    best = Some((cand, obj));
                    out.accepted += 1;
                }
            }
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
    fn an_exhausted_budget_pins_the_overshoot_to_the_root_lp() {
        // Near-deadline parent: 5 s limit of which ~4.96 s are already
        // spent. The phase may only run the root LP — the dive loop must
        // observe the exhausted budget and back off, so the overshoot is
        // bounded by one LP solve.
        let model = knapsack();
        let options = SolverOptions::default().threads(1).time_limit(5.0);
        let (sf, int_cols, root_bounds) = setup(&model, &options);
        let start = Instant::now() - std::time::Duration::from_millis(4960);
        let t0 = Instant::now();
        let mut out = HeuristicOutcome::default();
        let _ = run_root(&model, &sf, &options, &int_cols, &root_bounds, None, start, &mut out);
        let elapsed = t0.elapsed().as_secs_f64();
        // Generous CI margin.
        assert!(elapsed < 2.0, "heuristic phase overshot an exhausted deadline by {elapsed} s");
    }

    #[test]
    fn a_full_solve_with_heuristics_respects_a_tight_time_limit() {
        // End-to-end pin through the public API: heuristics on, tiny wall
        // budget.
        let model = knapsack();
        let options = SolverOptions::default().threads(1).time_limit(0.25);
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
        // dive iteration may run once the token is cancelled.
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
