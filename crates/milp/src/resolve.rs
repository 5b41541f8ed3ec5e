//! Incremental re-solve: [`ResolveSession`] keeps solver state alive
//! between solves of a mutating model.
//!
//! A session owns a [`Model`] and carries three artifacts across solves:
//!
//! 1. the **standard form** the last search ended on — the base rows plus
//!    every cutting plane the root separated,
//! 2. the serial worker's final **basis** (when the search ran on one
//!    thread), and
//! 3. the last solve's proven **dual bound**, which seeds the next root
//!    node: a re-solve whose refreshed incumbent still matches the old
//!    optimum closes the gap without running the root heuristics or
//!    exploring a single node, serial or parallel. A delta
//!    that adds a variable invalidates the bound (a new column can
//!    improve the objective) and resets it; the form and basis still
//!    carry.
//!
//! When a [`ModelDelta`] is a *restriction* (only added rows/variables,
//! tightened bounds or right-hand sides, fixings — see
//! [`DeltaOutcome::restriction`]), the feasible set only shrinks, so every
//! carried cut remains a valid inequality and the carried basis remains
//! dual feasible after the bound edits. The session then patches the
//! carried form in place (appending columns and rows, overwriting bounds
//! and rhs entries), remaps the basis for any appended columns, and
//! re-enters branch and bound warm through the root node. Deltas that
//! relax the model drop the carry and rebuild cold — correctness never
//! depends on the carry, only speed does; a failed basis refactorization
//! likewise degrades to a cold root inside the search itself.
//!
//! Independently of the carry, the incumbent of each solve is installed as
//! the model's warm start, and [`Model::apply_delta`] pads/revalidates it,
//! so even a cold re-solve after a relaxation starts with the previous
//! deployment as a bound.
//!
//! ```
//! use ndp_milp::{LinExpr, Model, Objective, ResolveSession, SolverOptions};
//!
//! let mut m = Model::new("ks");
//! let a = m.binary("a");
//! let b = m.binary("b");
//! m.add_le("cap", LinExpr::term(a, 3.0) + LinExpr::term(b, 4.0), 6.0);
//! m.set_objective(Objective::Maximize, LinExpr::term(a, 4.0) + LinExpr::term(b, 5.0));
//!
//! let mut sess = ResolveSession::new(m, SolverOptions::default().threads(1));
//! let first = sess.solve()?;
//!
//! let mut d = sess.model().delta();
//! d.fix(b, 0.0); // a "core fault": b is no longer available
//! sess.apply(&d)?;
//! let second = sess.solve()?; // warm re-solve on the patched form
//! assert!(second.objective_value() <= first.objective_value());
//! # Ok::<(), ndp_milp::MilpError>(())
//! ```

use crate::branch::{solve_session, ResumeState};
use crate::delta::{DeltaOp, DeltaOutcome, ModelDelta};
use crate::error::Result;
use crate::model::Model;
use crate::options::SolverOptions;
use crate::solution::Solution;

/// Solver state carried between solves: the last standard form (base rows
/// plus all surviving cut rows) and where each model row lives in it.
struct Carry {
    state: ResumeState,
    /// `rowmap[i]` is the standard-form row index of model row `i`. Base
    /// rows keep their position across solves (cut rows only ever append),
    /// so the map stays valid until a non-restriction drops the carry.
    rowmap: Vec<usize>,
}

/// A stateful solve session over a mutating [`Model`].
///
/// See the [module docs](self) for the carry semantics. Typical lifecycle:
/// [`new`](ResolveSession::new) → [`solve`](ResolveSession::solve) →
/// ([`apply`](ResolveSession::apply) → [`solve`](ResolveSession::solve))*.
pub struct ResolveSession {
    model: Model,
    options: SolverOptions,
    carry: Option<Carry>,
    last: Option<Solution>,
}

impl ResolveSession {
    /// Wraps `model` in a fresh session (no carried state yet).
    pub fn new(model: Model, options: SolverOptions) -> Self {
        ResolveSession { model, options, carry: None, last: None }
    }

    /// The session's model. Record deltas against it with [`Model::delta`]
    /// and hand them to [`ResolveSession::apply`] — mutating a clone
    /// directly would bypass the carry bookkeeping.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The options every [`solve`](ResolveSession::solve) runs with
    /// (presolve is forced off internally: carried state is indexed by the
    /// model's own columns and must not be re-shaped under it).
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Mutable access to the solve options, e.g. to adjust the time budget
    /// between re-solves. Presolve remains forced off regardless of what is
    /// set here; changing `threads` simply changes what the next solve can
    /// carry (a parallel search carries cuts but no basis).
    pub fn options_mut(&mut self) -> &mut SolverOptions {
        &mut self.options
    }

    /// The solution of the most recent [`solve`](ResolveSession::solve).
    pub fn last(&self) -> Option<&Solution> {
        self.last.as_ref()
    }

    /// `true` when the next solve will start from carried solver state
    /// (patched form + cuts, and a root basis if the last search was
    /// serial) rather than a cold rebuild.
    pub fn is_warm(&self) -> bool {
        self.carry.is_some()
    }

    /// Installs `values` as the model's warm start (next solve uses it as
    /// a starting incumbent if it is feasible).
    pub fn set_warm_start(&mut self, values: Vec<f64>) -> Result<()> {
        self.model.set_warm_start(values)
    }

    /// Consumes the session, returning the (mutated) model.
    pub fn into_model(self) -> Model {
        self.model
    }

    /// Applies `delta` to the model and patches the carried solver state.
    ///
    /// Restrictions keep the carry: new columns and rows are appended to
    /// the carried form, bounds and right-hand sides are overwritten in
    /// place, and the carried basis is remapped for appended columns.
    /// Non-restrictions (removed rows, relaxed bounds or rhs) drop the
    /// carry; the next solve rebuilds cold but still warm-starts from the
    /// previous incumbent when it remains feasible.
    ///
    /// # Errors
    ///
    /// Propagates [`Model::apply_delta`] errors. The model may be
    /// partially mutated on error; the carry is dropped so the next solve
    /// cannot run against inconsistent state.
    pub fn apply(&mut self, delta: &ModelDelta) -> Result<DeltaOutcome> {
        let outcome = match self.model.apply_delta(delta) {
            Ok(o) => o,
            Err(e) => {
                self.carry = None;
                return Err(e);
            }
        };
        if !outcome.restriction {
            self.carry = None;
            return Ok(outcome);
        }
        if let Some(carry) = &mut self.carry {
            let sf = &mut carry.state.sf;
            let old_n = sf.n;
            for op in &delta.ops {
                match op {
                    DeltaOp::AddVar { obj, .. } => {
                        // The model already holds the appended variable;
                        // its index is the form's next structural column.
                        let j = sf.n;
                        debug_assert!(j < self.model.num_vars());
                        let v = &self.model.vars[j];
                        sf.append_var(v.lb, v.ub, *obj);
                    }
                    DeltaOp::AddRow { expr, sense, rhs, .. } => {
                        let coeffs: Vec<(usize, f64)> =
                            expr.iter().map(|(v, c)| (v.index(), c)).collect();
                        let r = sf.append_model_row(&coeffs, rhs - expr.constant(), *sense);
                        carry.rowmap.push(r);
                    }
                    DeltaOp::SetRhs { row, rhs } => {
                        // The expression is untouched by a rhs edit, so its
                        // constant still folds into b the same way.
                        let expr = &self.model.rows[row.index()].expr;
                        sf.set_rhs(carry.rowmap[row.index()], rhs - expr.constant());
                    }
                    // Bound edits (and fixings / variable removals, which
                    // are bound edits) are handled by the full refresh
                    // below — the model is the source of truth and also
                    // captures binary clamping.
                    DeltaOp::SetBounds { .. } | DeltaOp::RemoveVar { .. } => {}
                    // A restriction batch never removes rows.
                    DeltaOp::RemoveRow { .. } => unreachable!("row removal is not a restriction"),
                }
            }
            for j in 0..self.model.num_vars() {
                let v = &self.model.vars[j];
                sf.set_var_bounds(j, v.lb, v.ub);
            }
            debug_assert_eq!(sf.n, self.model.num_vars());
            debug_assert_eq!(carry.rowmap.len(), self.model.num_constraints());
            if sf.n > old_n {
                let new_n = sf.n;
                carry.state.basis =
                    carry.state.basis.take().map(|b| b.remap_structural_append(old_n, new_n));
            }
            if delta.ops.iter().any(|op| matches!(op, DeltaOp::AddVar { .. })) {
                // A new column can improve the objective, so the previous
                // dual bound no longer bounds the new optimum.
                carry.state.bound = f64::NEG_INFINITY;
            }
        }
        Ok(outcome)
    }

    /// Solves the current model, warm when carried state exists, and
    /// captures the final solver state for the next re-solve.
    ///
    /// The previous incumbent (installed as the model's warm start after
    /// every solve) seeds the search whenever it is still feasible — also
    /// after a relaxation that dropped the carry.
    pub fn solve(&mut self) -> Result<Solution> {
        let mut options = self.options.clone();
        options.presolve = false;

        let (resume, rowmap) = match self.carry.take() {
            Some(c) => {
                debug_assert_eq!(c.state.sf.n, self.model.num_vars());
                (Some(c.state), Some(c.rowmap))
            }
            None => (None, None),
        };
        let mut capture = None;
        let sol = solve_session(&self.model, &options, resume, &mut capture)?;

        // Rebuild the carry from the captured end state. On a cold solve
        // the captured form was built by `from_model`, where model row `i`
        // IS form row `i`; on a warm solve the previous map still holds
        // (cut rows only append past it).
        if let Some(state) = capture {
            let rowmap = rowmap.unwrap_or_else(|| (0..self.model.num_constraints()).collect());
            self.carry = Some(Carry { state, rowmap });
        }
        if !sol.values.is_empty() {
            // Feasible incumbents survive future relaxations; apply_delta
            // keeps the vector padded for appended variables.
            self.model.set_warm_start(sol.values.clone())?;
        }
        self.last = Some(sol.clone());
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintId, LinExpr, Objective, SolveStatus, SolverEvent, VarKind};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn options() -> SolverOptions {
        SolverOptions::default().threads(1)
    }

    /// max Σ vᵢ xᵢ s.t. Σ wᵢ xᵢ ≤ cap over binaries: big enough that the
    /// root LP is fractional and the tree does real work.
    fn knapsack(n: usize, cap: f64) -> Model {
        let mut m = Model::new("ks");
        let mut weight = LinExpr::new();
        let mut value = LinExpr::new();
        for i in 0..n {
            let x = m.binary(format!("x{i}"));
            weight += LinExpr::term(x, 2.0 + ((i * 7) % 5) as f64);
            value += LinExpr::term(x, 3.0 + ((i * 11) % 7) as f64);
        }
        m.add_le("cap", weight, cap);
        m.set_objective(Objective::Maximize, value);
        m
    }

    #[test]
    fn warm_resolve_matches_cold_rebuild_after_restriction() {
        let mut sess = ResolveSession::new(knapsack(10, 14.0), options());
        let first = sess.solve().unwrap();
        assert_eq!(first.status(), SolveStatus::Optimal);
        assert!(sess.is_warm());

        let mut d = sess.model().delta();
        d.fix(crate::VarId(0), 0.0);
        d.set_rhs(ConstraintId(0), 11.0);
        let out = sess.apply(&d).unwrap();
        assert!(out.restriction);
        assert!(sess.is_warm(), "restriction keeps the carry");

        let warm = sess.solve().unwrap();

        // Reference: identical mutation solved from scratch.
        let mut cold = knapsack(10, 14.0);
        let mut d2 = cold.delta();
        d2.fix(crate::VarId(0), 0.0);
        d2.set_rhs(ConstraintId(0), 11.0);
        cold.apply_delta(&d2).unwrap();
        let reference = cold.solve_with(&options()).unwrap();

        assert_eq!(warm.status(), reference.status());
        assert!((warm.objective_value() - reference.objective_value()).abs() < 1e-6);
    }

    #[test]
    fn warm_resolve_reenters_via_carried_basis() {
        let mut sess = ResolveSession::new(knapsack(12, 17.0), options());
        sess.solve().unwrap();
        let mut d = sess.model().delta();
        d.set_rhs(ConstraintId(0), 15.0);
        sess.apply(&d).unwrap();
        let warm = sess.solve().unwrap();
        assert_eq!(warm.status(), SolveStatus::Optimal);
        // The carried basis restores at the root (or a mid-tree node it
        // seeded), so at least one node avoided a cold start.
        assert!(
            warm.stats.warm_starts >= 1,
            "expected a warm node start, got stats {:?}",
            warm.stats
        );
    }

    #[test]
    fn added_task_variable_extends_the_carried_form() {
        let mut sess = ResolveSession::new(knapsack(8, 12.0), options());
        let first = sess.solve().unwrap();

        // An "arriving task": new binary with its own budget row.
        let mut d = sess.model().delta();
        let z = d.add_var("z", VarKind::Binary, 0.0, 1.0, 9.0);
        d.add_le("z-cap", LinExpr::term(z, 1.0), 1.0);
        let out = sess.apply(&d).unwrap();
        assert!(out.restriction);
        assert!(sess.is_warm());

        let warm = sess.solve().unwrap();
        assert_eq!(warm.status(), SolveStatus::Optimal);
        assert!(warm.stats.heuristic_seconds > 0.0, "a reset bound proves nothing: heuristics run");
        // z is free profit: the optimum gains exactly its value.
        assert!((warm.objective_value() - (first.objective_value() + 9.0)).abs() < 1e-6);

        // Against a scratch build of the same mutated model.
        let reference = sess.model().solve_with(&options()).unwrap();
        assert!((warm.objective_value() - reference.objective_value()).abs() < 1e-6);
    }

    #[test]
    fn relaxation_drops_carry_but_keeps_the_incumbent() {
        let mut sess = ResolveSession::new(knapsack(10, 14.0), options());
        let first = sess.solve().unwrap();
        let mut d = sess.model().delta();
        d.set_rhs(ConstraintId(0), 20.0); // relax the budget
        let out = sess.apply(&d).unwrap();
        assert!(!out.restriction);
        assert!(!sess.is_warm(), "relaxation must drop carried cuts/basis");

        let cold = sess.solve().unwrap();
        assert_eq!(cold.status(), SolveStatus::Optimal);
        assert!(cold.objective_value() >= first.objective_value() - 1e-9);
        assert!(sess.is_warm(), "the cold solve re-arms the carry");
    }

    #[test]
    fn proven_resolve_skips_the_root_heuristics() {
        let mut sess = ResolveSession::new(knapsack(10, 14.0), options());
        let first = sess.solve().unwrap();
        // Fix a column the optimum leaves at 0: the carried bound still
        // proves the old optimum, now the warm start.
        let zero = first.values().iter().position(|&v| v < 0.5).unwrap();
        let mut d = sess.model().delta();
        d.fix(crate::VarId(zero), 0.0);
        assert!(sess.apply(&d).unwrap().restriction);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let warm_start = bits(sess.model().warm_start().unwrap());
        let found = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&found);
        *sess.options_mut() = options().observer(Arc::new(move |e: &SolverEvent| {
            seen.fetch_or(matches!(e, SolverEvent::HeuristicIncumbent { .. }), Ordering::Relaxed);
        }));

        let warm = sess.solve().unwrap();
        assert_eq!(warm.status(), SolveStatus::Optimal);
        let stats = &warm.stats;
        assert_eq!((stats.heuristic_seconds, stats.heuristic_incumbents, warm.nodes), (0.0, 0, 0));
        assert!(!found.load(Ordering::Relaxed), "no heuristic incumbent event");
        assert_eq!(bits(warm.values()), warm_start, "the warm start is the answer");
    }

    #[test]
    fn repeated_deltas_stay_consistent() {
        let mut sess = ResolveSession::new(knapsack(9, 13.0), options());
        sess.solve().unwrap();
        for step in 0..4 {
            let mut d = sess.model().delta();
            match step {
                0 => d.fix(crate::VarId(1), 0.0),
                1 => {
                    let z = d.continuous("extra", 0.0, 2.0);
                    d.add_le("extra-row", LinExpr::term(z, 1.0), 1.5);
                }
                2 => d.set_rhs(ConstraintId(0), 12.0),
                _ => d.remove_var(crate::VarId(2)),
            }
            sess.apply(&d).unwrap();
            let warm = sess.solve().unwrap();
            let reference = sess.model().solve_with(&options()).unwrap();
            assert_eq!(warm.status(), reference.status(), "step {step}");
            assert!(
                (warm.objective_value() - reference.objective_value()).abs() < 1e-6,
                "step {step}: warm {} vs reference {}",
                warm.objective_value(),
                reference.objective_value()
            );
        }
    }
}
