//! Node-level bound propagation: activity-based domain tightening over the
//! standard-form rows, run before a node's LP solve.
//!
//! The arithmetic mirrors the presolve tightening pass
//! ([`crate::presolve`]) but works on the *node* box instead of the global
//! one: for every row `a·x + s = b` with slack bounds `s ∈ [sl, su]` the
//! row activity is confined to `a·x ∈ [b − su, b − sl]`, and each integer
//! column's bound is tightened against the residual activity of the other
//! columns. Because the constraint is kept two-sided through the slack
//! bounds, the same loop covers the original model rows *and* the root cut
//! rows installed into the worker LP's form.
//!
//! Soundness: interval tightening never removes a point that satisfies the
//! rows and lies inside the input box, so every integer-feasible point of
//! the node subproblem survives; an empty box proves the subproblem
//! infeasible and the node fathoms without a simplex solve. The pass is
//! pure arithmetic over a fixed iteration order — deterministic, no
//! timestamps — so serial event streams stay bit-for-bit reproducible.

use crate::standard::StandardForm;

/// Result of one node propagation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Propagation {
    /// The node box is empty: no feasible point matches the node's bounds.
    Infeasible,
    /// Some integer bounds were tightened (the count of individual bound
    /// changes).
    Tightened(u64),
    /// Fixpoint on entry — nothing changed.
    Unchanged,
}

/// Bounded fixpoint rounds: each round is a full sweep over the rows, and
/// most of the payoff lands in the first couple of sweeps.
const MAX_ROUNDS: usize = 8;

/// Tightens the integer bounds `lb`/`ub` (structural, length `form.n`)
/// in place against every row of `form` under the slack bounds
/// `slack_lb`/`slack_ub` (length `form.m`, the worker LP's current slack
/// bounds — these encode each row's sense, including appended cut rows).
///
/// Only columns flagged in `is_int` are tightened (their implied bounds
/// round inward with `int_tol`); continuous bounds still participate in
/// the activity intervals. `feas_tol` guards the row-level infeasibility
/// test.
#[allow(clippy::too_many_arguments)]
pub(crate) fn propagate(
    form: &StandardForm,
    is_int: &[bool],
    lb: &mut [f64],
    ub: &mut [f64],
    slack_lb: &[f64],
    slack_ub: &[f64],
    feas_tol: f64,
    int_tol: f64,
) -> Propagation {
    debug_assert_eq!(lb.len(), form.n);
    debug_assert_eq!(ub.len(), form.n);
    debug_assert_eq!(slack_lb.len(), form.m);
    debug_assert_eq!(slack_ub.len(), form.m);
    let mut tightened: u64 = 0;
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for r in 0..form.m {
            let row = form.row(r);
            if row.is_empty() {
                continue;
            }
            // Row activity window: a·x = b − s ∈ [b − su, b − sl].
            let lo = form.b[r] - slack_ub[r];
            let hi = form.b[r] - slack_lb[r];
            let mut act_min = 0.0;
            let mut act_max = 0.0;
            for &(j, c) in row {
                if c > 0.0 {
                    act_min += c * lb[j];
                    act_max += c * ub[j];
                } else {
                    act_min += c * ub[j];
                    act_max += c * lb[j];
                }
            }
            // Scale-aware slack for the row-level infeasibility test.
            let row_tol = feas_tol * act_max.abs().max(act_min.abs()).max(1.0);
            if act_min > hi + row_tol || act_max < lo - row_tol {
                return Propagation::Infeasible;
            }
            for &(j, c) in row {
                if !is_int[j] || c == 0.0 {
                    continue;
                }
                // Residual activity of the other columns. Stale activity
                // bounds (from tightenings earlier in this sweep) are wider
                // than the true ones, so the implied bounds stay valid —
                // merely conservative until the next sweep.
                let (self_min, self_max) =
                    if c > 0.0 { (c * lb[j], c * ub[j]) } else { (c * ub[j], c * lb[j]) };
                let rest_min = act_min - self_min;
                let rest_max = act_max - self_max;
                if !rest_min.is_finite() || !rest_max.is_finite() {
                    continue;
                }
                // lo − rest_max ≤ c·x_j ≤ hi − rest_min.
                let (imp_lb, imp_ub) = if c > 0.0 {
                    ((lo - rest_max) / c, (hi - rest_min) / c)
                } else {
                    ((hi - rest_min) / c, (lo - rest_max) / c)
                };
                let new_lb = (imp_lb - int_tol).ceil();
                let new_ub = (imp_ub + int_tol).floor();
                if new_lb > lb[j] + 0.5 {
                    lb[j] = new_lb;
                    tightened += 1;
                    changed = true;
                }
                if new_ub < ub[j] - 0.5 {
                    ub[j] = new_ub;
                    tightened += 1;
                    changed = true;
                }
                if lb[j] > ub[j] + 0.5 {
                    return Propagation::Infeasible;
                }
            }
        }
        if !changed {
            break;
        }
    }
    if tightened > 0 {
        Propagation::Tightened(tightened)
    } else {
        Propagation::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Model, Objective};

    /// Builds a form plus working buffers from a model whose variables are
    /// all integer, with the node box equal to the root box.
    #[allow(clippy::type_complexity)]
    fn setup(model: &Model) -> (StandardForm, Vec<bool>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let sf = StandardForm::from_model(model);
        let is_int = vec![true; sf.n];
        let lb: Vec<f64> = sf.lb[..sf.n].iter().map(|l| l.ceil()).collect();
        let ub: Vec<f64> = sf.ub[..sf.n].iter().map(|u| u.floor()).collect();
        let slack_lb = sf.lb[sf.n..].to_vec();
        let slack_ub = sf.ub[sf.n..].to_vec();
        (sf, is_int, lb, ub, slack_lb, slack_ub)
    }

    #[test]
    fn knapsack_capacity_tightens_upper_bounds() {
        let mut m = Model::new("p");
        let x = m.integer("x", 0.0, 10.0).unwrap();
        let y = m.integer("y", 0.0, 10.0).unwrap();
        m.add_le("cap", LinExpr::term(x, 3.0) + LinExpr::term(y, 1.0), 7.0);
        m.set_objective(Objective::Maximize, LinExpr::from(x) + LinExpr::from(y));
        let (sf, is_int, mut lb, mut ub, slb, sub) = setup(&m);
        let res = propagate(&sf, &is_int, &mut lb, &mut ub, &slb, &sub, 1e-7, 1e-6);
        // 3x ≤ 7 ⇒ x ≤ 2; y ≤ 7.
        assert!(matches!(res, Propagation::Tightened(_)));
        assert_eq!(ub[x.index()], 2.0);
        assert_eq!(ub[y.index()], 7.0);
        assert_eq!(lb, vec![0.0, 0.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn mismatched_bound_buffers_are_caught_in_debug() {
        let mut m = Model::new("p");
        let x = m.integer("x", 0.0, 10.0).unwrap();
        m.integer("y", 0.0, 10.0).unwrap();
        m.add_le("cap", LinExpr::term(x, 3.0), 7.0);
        let (sf, is_int, mut lb, mut ub, slb, sub) = setup(&m);
        // Buffers sized before the form grew a column (unpropagated delta).
        lb.pop();
        ub.pop();
        let _ = propagate(&sf, &is_int, &mut lb, &mut ub, &slb, &sub, 1e-7, 1e-6);
    }

    #[test]
    fn ge_row_raises_lower_bounds() {
        let mut m = Model::new("p");
        let x = m.integer("x", 0.0, 3.0).unwrap();
        let y = m.integer("y", 0.0, 3.0).unwrap();
        m.add_ge("cover", LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0), 5.0);
        m.set_objective(Objective::Minimize, LinExpr::from(x));
        let (sf, is_int, mut lb, mut ub, slb, sub) = setup(&m);
        let res = propagate(&sf, &is_int, &mut lb, &mut ub, &slb, &sub, 1e-7, 1e-6);
        // x + y ≥ 5 with both ≤ 3 ⇒ both ≥ 2.
        assert!(matches!(res, Propagation::Tightened(_)));
        assert_eq!(lb, vec![2.0, 2.0]);
        assert_eq!(ub, vec![3.0, 3.0]);
    }

    #[test]
    fn empty_box_is_reported_infeasible() {
        let mut m = Model::new("p");
        let x = m.integer("x", 0.0, 2.0).unwrap();
        let y = m.integer("y", 0.0, 2.0).unwrap();
        m.add_ge("too-much", LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0), 9.0);
        m.set_objective(Objective::Minimize, LinExpr::from(x));
        let (sf, is_int, mut lb, mut ub, slb, sub) = setup(&m);
        let res = propagate(&sf, &is_int, &mut lb, &mut ub, &slb, &sub, 1e-7, 1e-6);
        assert_eq!(res, Propagation::Infeasible);
    }

    #[test]
    fn fixpoint_chains_across_rows() {
        // r1 fixes x high, r2 then forces y low: needs a second sweep.
        let mut m = Model::new("p");
        let x = m.integer("x", 0.0, 4.0).unwrap();
        let y = m.integer("y", 0.0, 4.0).unwrap();
        m.add_ge("r1", LinExpr::term(x, 1.0), 4.0);
        m.add_le("r2", LinExpr::term(x, 1.0) + LinExpr::term(y, 2.0), 6.0);
        m.set_objective(Objective::Maximize, LinExpr::from(y));
        let (sf, is_int, mut lb, mut ub, slb, sub) = setup(&m);
        let res = propagate(&sf, &is_int, &mut lb, &mut ub, &slb, &sub, 1e-7, 1e-6);
        assert!(matches!(res, Propagation::Tightened(_)));
        assert_eq!(lb[x.index()], 4.0);
        assert_eq!(ub[y.index()], 1.0);
    }

    use crate::testgen::{build_random, feasible_integer_points, random_binary_milp};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        /// The safety contract, fuzzed: on random binary MILPs, propagation
        /// may shrink the root box but must keep every enumerated
        /// integer-feasible point inside it — a pass that tightened one away
        /// would let branch and bound fathom the optimum. When it reports
        /// `Infeasible` the enumeration must be empty.
        #[test]
        fn propagation_keeps_every_integer_feasible_point(
            milp in random_binary_milp()
        ) {
            let model = build_random(&milp);
            let (sf, is_int, mut lb, mut ub, slb, sub) = setup(&model);
            let res = propagate(&sf, &is_int, &mut lb, &mut ub, &slb, &sub, 1e-7, 1e-6);
            let points = feasible_integer_points(&model);
            if res == Propagation::Infeasible {
                prop_assert!(
                    points.is_empty(),
                    "propagation fathomed a box holding {} feasible points",
                    points.len()
                );
            } else {
                for p in &points {
                    for j in 0..sf.n {
                        prop_assert!(
                            lb[j] - 1e-9 <= p[j] && p[j] <= ub[j] + 1e-9,
                            "point {p:?} tightened away at x{j}: [{}, {}]",
                            lb[j], ub[j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn satisfied_box_is_a_fixpoint() {
        let mut m = Model::new("p");
        let x = m.integer("x", 0.0, 1.0).unwrap();
        let y = m.integer("y", 0.0, 1.0).unwrap();
        m.add_le("cap", LinExpr::term(x, 1.0) + LinExpr::term(y, 1.0), 2.0);
        m.set_objective(Objective::Maximize, LinExpr::from(x));
        let (sf, is_int, mut lb, mut ub, slb, sub) = setup(&m);
        let res = propagate(&sf, &is_int, &mut lb, &mut ub, &slb, &sub, 1e-7, 1e-6);
        assert_eq!(res, Propagation::Unchanged);
        assert_eq!(lb, vec![0.0, 0.0]);
        assert_eq!(ub, vec![1.0, 1.0]);
    }
}
