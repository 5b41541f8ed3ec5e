//! Dense ↔ sparse basis-kernel equivalence, and ratio-test regressions.
//!
//! The sparse LU kernel must be *observationally identical* to the dense
//! reference inverse: same solve status and same optimal objective on every
//! instance, LP or MILP. The checks below cross-check the two kernels on
//! 600+ random instances (mirroring the seed's enumeration cross-check
//! scale), and the deterministic tests pin the bound-flip ratio test: the
//! entering variable must never overshoot its opposite bound, and
//! box-crossing steps must resolve as flips rather than pivot grinds.

mod common;

use common::{build_bounded as build, random_bounded as random_instance, RandomLp};
use ndp_milp::{BasisKernel, LinExpr, Model, Objective, SolveStatus, SolverOptions};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Solves with one kernel on top of `base`, single-threaded for
/// reproducibility; returns the status, the objective and the node count.
fn solve_with_kernel(
    lp: &RandomLp,
    base: &SolverOptions,
    kernel: BasisKernel,
) -> (SolveStatus, f64, u64) {
    let m = build(lp);
    let opts = base.clone().threads(1).basis_kernel(kernel);
    let sol = m.solve_with(&opts).expect("solve must not error");
    let obj = if sol.status().has_solution() { sol.objective_value() } else { 0.0 };
    (sol.status(), obj, sol.node_count())
}

/// MILPs: branch-and-bound on top of either kernel proves the same optimum
/// (node paths may differ, answers may not), under the default options and
/// again with presolve, root cuts and the root dive off. The defaults close
/// most of these cases at the root; without those accelerators the search
/// rests on branching, and the check fails unless at least a fifth of its
/// cases explore three nodes or more under the sparse kernel there.
#[test]
fn kernels_agree_on_random_milps() {
    const CASES: usize = 300;
    let strategy = random_instance(true);
    let mut rng = TestRng::for_test("basis_equivalence::kernels_agree_on_random_milps");
    let bare = SolverOptions::default().presolve(false).cuts(false).heuristics(false);
    let mut branching = 0;
    for case in 0..CASES {
        let lp = strategy.generate(&mut rng);
        for (is_bare, base) in [(false, &SolverOptions::default()), (true, &bare)] {
            let (st_dense, obj_dense, _) = solve_with_kernel(&lp, base, BasisKernel::Dense);
            let (st_lu, obj_lu, nodes) = solve_with_kernel(&lp, base, BasisKernel::SparseLu);
            assert_eq!(st_dense, st_lu, "case {case} (bare {is_bare}): status mismatch");
            if st_dense.has_solution() {
                assert!(
                    (obj_dense - obj_lu).abs() < 1e-6,
                    "case {case} (bare {is_bare}): dense {obj_dense} vs sparse {obj_lu}"
                );
            }
            if is_bare {
                branching += usize::from(nodes >= 3);
            }
        }
    }
    assert!(5 * branching >= CASES, "only {branching} of {CASES} cases explored three nodes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Pure LPs: the two kernels must agree on status and objective.
    #[test]
    fn kernels_agree_on_random_lps(lp in random_instance(false)) {
        let base = SolverOptions::default();
        let (st_dense, obj_dense, _) = solve_with_kernel(&lp, &base, BasisKernel::Dense);
        let (st_lu, obj_lu, _) = solve_with_kernel(&lp, &base, BasisKernel::SparseLu);
        prop_assert_eq!(st_dense, st_lu, "status mismatch");
        if st_dense.has_solution() {
            prop_assert!((obj_dense - obj_lu).abs() < 1e-6,
                "dense {} vs sparse {}", obj_dense, obj_lu);
        }
    }

    /// Whatever the kernel, a returned point must satisfy its own bounds
    /// entrywise — the bound-flip regression: before the ratio test was
    /// capped at the entering range, overshooting steps could report values
    /// outside the box.
    #[test]
    fn solutions_respect_bounds_entrywise(
        lp in random_instance(false),
        sparse in any::<bool>(),
    ) {
        let m = build(&lp);
        let kernel = if sparse { BasisKernel::SparseLu } else { BasisKernel::Dense };
        let opts = SolverOptions::default().threads(1).basis_kernel(kernel);
        let sol = m.solve_with(&opts).expect("solve must not error");
        if sol.status().has_solution() {
            for j in 0..lp.n {
                let (lo, hi) = (lp.bounds[j].0.min(lp.bounds[j].1) as f64,
                                lp.bounds[j].0.max(lp.bounds[j].1) as f64);
                let x = sol.values()[j];
                prop_assert!(x >= lo - 1e-6 && x <= hi + 1e-6,
                    "x{} = {} outside [{}, {}]", j, x, lo, hi);
            }
        }
    }
}

/// The canonical flip workload: minimize Σ cᵢxᵢ over the unit box subject to
/// Σ xᵢ ≥ n − ½. The dual simplex starts from the all-lower slack basis with
/// one massively violated row; the optimal point parks every variable at 1
/// except the most expensive one at ½. Without bound flips each variable
/// must be pivoted *through* the one-row basis (≈ n pivots, each
/// overshooting to the next), with flips the whole solve is n − 1 in-place
/// flips plus a single pivot.
#[test]
fn flip_workload_solves_in_few_pivots() {
    let n = 40;
    let mut m = Model::new("flips");
    let mut sum = LinExpr::new();
    let mut obj = LinExpr::new();
    let mut costs = Vec::new();
    for i in 0..n {
        let x = m.continuous(format!("x{i}"), 0.0, 1.0).unwrap();
        sum.add_term(x, 1.0);
        let c = 1.0 + (i as f64) * 0.25;
        costs.push(c);
        obj.add_term(x, c);
    }
    m.add_ge("cover", sum, n as f64 - 0.5);
    m.set_objective(Objective::Minimize, obj);

    let opts = SolverOptions { presolve: false, ..SolverOptions::default() }.threads(1);
    let sol = m.solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Optimal);
    let expect: f64 = costs.iter().sum::<f64>() - 0.5 * costs.last().unwrap();
    assert!(
        (sol.objective_value() - expect).abs() < 1e-6,
        "objective {} vs expected {}",
        sol.objective_value(),
        expect
    );
    // Every value inside the unit box.
    for (j, &x) in sol.values().iter().enumerate().take(n) {
        assert!((-1e-7..=1.0 + 1e-7).contains(&x), "x{j} = {x} escaped the box");
    }
    // The flip refinement keeps the pivot count tiny; the grind this
    // regresses needed roughly one pivot per variable.
    assert!(
        sol.simplex_iterations() <= 5,
        "expected flips, got {} pivots for {} variables",
        sol.simplex_iterations(),
        n
    );
}

/// Same workload, maximization direction: flips must work from the upper
/// bound side too.
#[test]
fn flip_workload_from_upper_bounds() {
    let n = 30;
    let mut m = Model::new("flips-up");
    let mut sum = LinExpr::new();
    let mut obj = LinExpr::new();
    for i in 0..n {
        let x = m.continuous(format!("x{i}"), 0.0, 1.0).unwrap();
        sum.add_term(x, 1.0);
        obj.add_term(x, 1.0 + (i as f64) * 0.5);
    }
    m.add_le("cap", sum, 0.5);
    m.set_objective(Objective::Maximize, obj);

    let opts = SolverOptions { presolve: false, ..SolverOptions::default() }.threads(1);
    let sol = m.solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Optimal);
    // Best: give the whole 0.5 budget to the most valuable variable.
    let expect = 0.5 * (1.0 + ((n - 1) as f64) * 0.5);
    assert!(
        (sol.objective_value() - expect).abs() < 1e-6,
        "objective {} vs expected {}",
        sol.objective_value(),
        expect
    );
    for (j, &x) in sol.values().iter().enumerate().take(n) {
        assert!((-1e-7..=1.0 + 1e-7).contains(&x), "x{j} = {x} escaped the box");
    }
}
