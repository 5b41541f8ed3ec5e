//! Cutting-plane engine: Gomory mixed-integer and knapsack cover cuts with
//! a managed pool, tightening the LP relaxation so branch and bound proves
//! optimality with fewer nodes.
//!
//! The engine is opt-in ([`SolverOptions::cuts`], off by default). It pays
//! under most-fractional branching, whose trees it shrinks (210 → 67 nodes
//! on the CI `basis_kernel --cuts-ablation` instance); the figure harness
//! pins it on with that rule. Under the default reliability branching it
//! does not pay. Tree sizes move either way (most seed-7 proofs at
//! M = 4–7 grow with cuts, the 60 small perfbench `exact` proofs shrink by
//! a third), while the appended rows — about 17 per deployment proof,
//! mostly Gomory rows with up to half the columns in their support
//! ([`gomory::GomoryParams::for_form`]) — make every later pivot,
//! refactorization and probe dearer. Deployment proofs and re-solves take
//! about twice as long with cuts as without (EXPERIMENTS.md, "Root cuts
//! off by default").
//!
//! Two separators feed one [`CutPool`]:
//!
//! * [`gomory`] — Gomory mixed-integer (GMI) cuts read off fractional basic
//!   rows via the kernel's BTRAN path ([`Simplex::tableau_row_into`]), with
//!   the textbook safety guards (fractionality window, max support,
//!   dynamism limit).
//! * [`cover`] — knapsack cover cuts (greedy minimal cover + extended-cover
//!   lifting) separated on the model's ≤-rows over binary columns.
//!
//! The pool deduplicates by hashed support, scores by normalized violation,
//! filters near-parallel cuts, and ages out cuts whose slack stayed loose
//! for consecutive rounds. Accepted cuts enter the live LP as appended rows
//! whose slacks join the basis ([`Simplex::append_cut_rows`]), so the dual
//! simplex re-optimizes warm — no cold start per round.
//!
//! [`root_separation`] drives the root loop: separate → select → append →
//! re-optimize, with tailing-off detection on bound improvement. Cuts that
//! survive age-out are installed into the *shared* base form, so every
//! search worker (serial or parallel) prices them. Both separators derive
//! their cuts from the model rows and the root box, so every installed cut
//! is valid at every node of the tree.
//!
//! Determinism: all orderings are stable with index tiebreaks and no
//! timestamps enter any decision, so serial `threads = 1` runs stay
//! bit-for-bit reproducible with cuts enabled.

pub(crate) mod cover;
pub(crate) mod gomory;
pub(crate) mod pool;

pub(crate) use pool::CutPool;

use crate::events::SolverEvent;
use crate::model::Model;
use crate::options::SolverOptions;
use crate::simplex::{LpStatus, Simplex};
use crate::standard::{StandardForm, INFINITE_BOUND};
use std::time::Instant;

/// Direction of a cut's inequality over structural columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CutSense {
    /// `Σ aᵢxᵢ ≤ rhs`.
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`.
    Ge,
}

/// Which separator produced a cut (stats/diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CutFamily {
    /// Gomory mixed-integer cut.
    Gomory,
    /// Knapsack cover cut.
    Cover,
}

/// One cutting plane over structural columns, valid for every
/// integer-feasible point of the model.
#[derive(Debug, Clone)]
pub(crate) struct Cut {
    /// `(column, coefficient)` nonzeros, sorted by column.
    pub coeffs: Vec<(usize, f64)>,
    /// Right-hand side.
    pub rhs: f64,
    /// Inequality direction.
    pub sense: CutSense,
    /// Producing separator (diagnostics; read by tests and assertions).
    #[allow(dead_code)]
    pub family: CutFamily,
}

impl Cut {
    /// Amount by which `x` violates the cut (positive ⇒ violated).
    pub fn violation(&self, x: &[f64]) -> f64 {
        let lhs: f64 = self.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
        match self.sense {
            CutSense::Le => lhs - self.rhs,
            CutSense::Ge => self.rhs - lhs,
        }
    }

    /// Euclidean norm of the coefficient vector.
    pub fn norm(&self) -> f64 {
        self.coeffs.iter().map(|&(_, a)| a * a).sum::<f64>().sqrt()
    }

    /// Whether `x` satisfies the cut within `tol` (validity checks).
    #[cfg(test)]
    pub fn is_satisfied(&self, x: &[f64], tol: f64) -> bool {
        self.violation(x) <= tol
    }
}

/// Work accounting of one separation run, folded into
/// [`crate::SolveStats`] by the caller.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RootCutStats {
    /// Candidate cuts produced by the separators (pre-pool).
    pub generated: u64,
    /// Cuts installed into the shared form after age-out.
    pub applied: u64,
    /// Cuts dropped by slack-based age-out.
    pub aged_out: u64,
    /// Wall seconds spent generating/scoring cuts (LP time excluded).
    pub separation_seconds: f64,
    /// Pivots of the root-loop LP re-solves.
    pub simplex_iterations: u64,
    /// Seconds inside the root-loop simplex (refactorizations excluded).
    pub simplex_seconds: f64,
    /// Seconds refactorizing the root-loop basis.
    pub factor_seconds: f64,
    /// Root-loop refactorization count.
    pub refactorizations: u64,
}

/// Relative bound improvement under which a round counts as tailing off;
/// two consecutive tailing-off rounds stop the loop.
const TAILING_OFF_REL: f64 = 1e-7;
/// Consecutive tailing-off rounds tolerated.
const TAILING_OFF_ROUNDS: u32 = 2;
/// Root separation round budget; the loop also stops on tailing-off bound
/// improvement or when the relaxation goes integral.
const MAX_CUT_ROUNDS: usize = 10;

/// Runs the root separation loop and installs surviving cuts into `sf`.
///
/// The loop owns a private [`Simplex`] over the root box: optimize, read
/// cuts off the fractional optimum, pool-select, append the chosen rows
/// (slacks basic ⇒ warm dual re-optimization), and repeat until the bound
/// tails off, the LP goes integral, the round budget runs out, or the
/// deadline/cancel fires. On any numerical failure or post-cut
/// infeasibility the base form is left untouched (conservative discard).
pub(crate) fn root_separation(
    model: &Model,
    sf: &mut StandardForm,
    options: &SolverOptions,
    int_cols: &[usize],
    root_bounds: &[(f64, f64)],
    start: Instant,
) -> RootCutStats {
    let mut stats = RootCutStats::default();
    let n = sf.n;
    let m0 = sf.m;
    let mut is_int = vec![false; n];
    for &j in int_cols {
        is_int[j] = true;
    }
    let binary: Vec<bool> = (0..n).map(|j| is_int[j] && root_bounds[j] == (0.0, 1.0)).collect();

    let mut lp = Simplex::new(sf, options);
    if options.time_limit.is_finite() {
        lp.deadline = Some(start + std::time::Duration::from_secs_f64(options.time_limit));
    }
    for &j in int_cols {
        let (l, u) = root_bounds[j];
        lp.set_bounds(j, l, u);
    }
    lp.refresh();
    let mut ok = matches!(lp.optimize(), Ok(LpStatus::Optimal));

    let gp = gomory::GomoryParams::for_form(n);
    let cp = cover::CoverParams { min_violation: 1e-4 };
    let mut pool = CutPool::new();
    let mut x: Vec<f64> = Vec::new();
    let mut cands: Vec<Cut> = Vec::new();
    let mut prev = lp.objective();
    let mut stale: u32 = 0;

    if ok {
        for round in 1..=MAX_CUT_ROUNDS {
            if options.cancelled() || lp.deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            lp.values_into(&mut x);
            let fractional = int_cols.iter().any(|&j| {
                let f = x[j] - x[j].floor();
                f > options.integrality_tol && f < 1.0 - options.integrality_tol
            });
            if !fractional {
                break;
            }
            let t0 = Instant::now();
            cands.clear();
            gomory::separate(&mut lp, &is_int, &x, &gp, &mut cands);
            cover::separate(model, root_bounds, &binary, &x, &cp, &mut cands);
            let generated = cands.len();
            stats.generated += generated as u64;
            let chosen = pool.select(std::mem::take(&mut cands), &x);
            stats.separation_seconds += t0.elapsed().as_secs_f64();
            if chosen.is_empty() {
                break;
            }
            if lp.append_cut_rows(&chosen).is_err() {
                ok = false;
                break;
            }
            match lp.optimize() {
                Ok(LpStatus::Optimal) => {}
                // Valid cuts cannot empty the integer-feasible set, so an
                // infeasible LP here means numerics — discard everything.
                Ok(LpStatus::Infeasible) | Err(_) => {
                    ok = false;
                    break;
                }
            }
            lp.values_into(&mut x);
            pool.age_pass(&x, n + m0, 1e-6);
            let bound = lp.objective();
            let applied = chosen.len();
            let user_bound = sf.user_objective(bound - lp.bound_margin());
            options.observer.emit(|| SolverEvent::CutRound {
                round: round as u32,
                generated,
                applied,
                bound: user_bound,
            });
            let improvement = bound - prev;
            prev = bound;
            if improvement <= TAILING_OFF_REL * prev.abs().max(1.0) {
                stale += 1;
                if stale >= TAILING_OFF_ROUNDS {
                    break;
                }
            } else {
                stale = 0;
            }
        }
    }

    stats.simplex_iterations = lp.iterations;
    stats.simplex_seconds = lp.simplex_seconds;
    stats.factor_seconds = lp.factor_seconds;
    stats.refactorizations = lp.refactorizations;
    if ok {
        let (kept, aged_out) = pool.drain_fresh();
        stats.aged_out = aged_out;
        stats.applied = kept.len() as u64;
        for cut in &kept {
            let (sl, su) = match cut.sense {
                CutSense::Le => (0.0, INFINITE_BOUND),
                CutSense::Ge => (-INFINITE_BOUND, 0.0),
            };
            sf.add_cut_row(&cut.coeffs, cut.rhs, sl, su);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VarId;
    use crate::{LinExpr, Objective};

    use crate::testgen::feasible_integer_points;

    /// A knapsack-flavoured model with a fractional LP optimum.
    fn knapsack_model() -> Model {
        let mut m = Model::new("k");
        let vars: Vec<_> = (0..5).map(|i| m.binary(format!("z{i}"))).collect();
        let w = [4.0, 3.0, 5.0, 6.0, 2.0];
        let p = [7.0, 5.0, 9.0, 11.0, 3.0];
        let mut cap = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            cap.add_term(v, w[i]);
            obj.add_term(v, p[i]);
        }
        m.add_le("cap", cap, 10.0);
        m.set_objective(Objective::Maximize, obj);
        m
    }

    /// Every cut generated by either separator at the root LP optimum must
    /// keep every integer-feasible point — the core validity contract —
    /// while cutting off the fractional LP point it was separated from.
    #[test]
    fn generated_cuts_keep_all_integer_points() {
        let model = knapsack_model();
        let options = SolverOptions::default();
        let sf = StandardForm::from_model(&model);
        let n = sf.n;
        let int_cols: Vec<usize> = (0..n).collect();
        let root_bounds: Vec<(f64, f64)> = (0..n).map(|j| model.bounds(VarId(j))).collect();
        let is_int = vec![true; n];
        let binary = vec![true; n];

        let mut lp = Simplex::new(&sf, &options);
        assert_eq!(lp.optimize().unwrap(), LpStatus::Optimal);
        let x = lp.values();
        assert!(
            int_cols.iter().any(|&j| {
                let f = x[j] - x[j].floor();
                f > 1e-6 && f < 1.0 - 1e-6
            }),
            "fixture LP optimum must be fractional"
        );

        let mut cands = Vec::new();
        gomory::separate(&mut lp, &is_int, &x, &gomory::GomoryParams::for_form(n), &mut cands);
        let gomory_count = cands.len();
        cover::separate(
            &model,
            &root_bounds,
            &binary,
            &x,
            &cover::CoverParams { min_violation: 1e-4 },
            &mut cands,
        );
        assert!(!cands.is_empty(), "separators must fire on the fixture");
        assert!(gomory_count > 0, "gomory must fire on the fixture");
        assert!(cands.len() > gomory_count, "cover must fire on the fixture");

        let points = feasible_integer_points(&model);
        assert!(!points.is_empty());
        for (c, cut) in cands.iter().enumerate() {
            assert!(cut.violation(&x) > 0.0, "cut {c} does not cut the LP point");
            for p in &points {
                assert!(
                    cut.is_satisfied(p, 1e-6),
                    "cut {c} ({:?}) removes integer point {p:?}: coeffs {:?} {:?} {}",
                    cut.family,
                    cut.coeffs,
                    cut.sense,
                    cut.rhs
                );
            }
        }
    }

    /// The root loop tightens the relaxation bound without touching the
    /// optimum, and leaves the base form valid (same integer optimum).
    #[test]
    fn root_loop_tightens_bound_and_preserves_optimum() {
        let model = knapsack_model();
        let options = SolverOptions::default();
        let mut sf = StandardForm::from_model(&model);
        let n = sf.n;
        let int_cols: Vec<usize> = (0..n).collect();
        let root_bounds: Vec<(f64, f64)> = (0..n).map(|j| model.bounds(VarId(j))).collect();

        let mut lp0 = Simplex::new(&sf, &options);
        assert_eq!(lp0.optimize().unwrap(), LpStatus::Optimal);
        let bound_before = lp0.objective();

        let m0 = sf.m;
        let stats =
            root_separation(&model, &mut sf, &options, &int_cols, &root_bounds, Instant::now());
        assert!(stats.applied > 0, "fixture must yield applied cuts");
        assert_eq!(sf.m, m0 + stats.applied as usize);

        let mut lp1 = Simplex::new(&sf, &options);
        assert_eq!(lp1.optimize().unwrap(), LpStatus::Optimal);
        assert!(lp1.objective() >= bound_before - 1e-9, "cuts must not weaken the relaxation");
        // All integer points survive the strengthened form: best integer
        // objective is unchanged (checked against enumeration).
        let points = feasible_integer_points(&model);
        let best =
            points.iter().map(|p| model.objective().eval(p)).fold(f64::NEG_INFINITY, f64::max);
        let sol = model.solve_with(&SolverOptions::default()).unwrap();
        assert!((sol.objective_value() - best).abs() < 1e-6);
    }

    use crate::testgen::{build_random, random_binary_milp};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        /// The validity contract, fuzzed: on random binary MILPs, every cut
        /// either separator produces at the root LP optimum must be violated
        /// by that fractional point yet satisfied by EVERY integer-feasible
        /// point. A cut that removes an integer point would silently corrupt
        /// branch and bound, so this is the load-bearing property.
        #[test]
        fn no_generated_cut_removes_an_integer_feasible_point(
            milp in random_binary_milp()
        ) {
            let model = build_random(&milp);
            let options = SolverOptions::default();
            let sf = StandardForm::from_model(&model);
            let n = sf.n;
            let root_bounds: Vec<(f64, f64)> =
                (0..n).map(|j| model.bounds(VarId(j))).collect();
            let is_int = vec![true; n];
            let binary = vec![true; n];

            let mut lp = Simplex::new(&sf, &options);
            // LP-infeasible instances generate nothing to check.
            match lp.optimize() {
                Ok(LpStatus::Optimal) => {}
                _ => return Ok(()),
            }
            let x = lp.values();

            let mut cands = Vec::new();
            gomory::separate(
                &mut lp,
                &is_int,
                &x,
                &gomory::GomoryParams::for_form(n),
                &mut cands,
            );
            cover::separate(
                &model,
                &root_bounds,
                &binary,
                &x,
                &cover::CoverParams { min_violation: 1e-4 },
                &mut cands,
            );

            let points = feasible_integer_points(&model);
            for (c, cut) in cands.iter().enumerate() {
                prop_assert!(
                    cut.violation(&x) > 0.0,
                    "cut {c} does not cut off the LP point"
                );
                for p in &points {
                    prop_assert!(
                        cut.is_satisfied(p, 1e-6),
                        "cut {c} ({:?}) removes integer point {p:?}: \
                         coeffs {:?} {:?} {}",
                        cut.family, cut.coeffs, cut.sense, cut.rhs
                    );
                }
            }
        }
    }
}
