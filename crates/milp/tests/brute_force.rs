//! Cross-validation of the MILP solver against exhaustive enumeration.
//!
//! For random all-binary models we enumerate every 0/1 assignment, compute
//! the true optimum, and require the solver to (a) agree on feasibility and
//! (b) match the optimal objective exactly. A branch-and-bound that prunes
//! incorrectly, or a simplex that returns a wrong LP bound, fails here with
//! high probability.

mod common;

use common::{assert_proves, brute_force, build_binary as build, random_milp};
use ndp_milp::{BranchRule, LinExpr, Model, NodeOrder, Objective, SolveStatus, SolverOptions};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn solver_matches_enumeration(milp in random_milp()) {
        let truth = brute_force(&milp);
        let (m, _) = build(&milp);
        let sol = m.solve().expect("solver must not error");
        match truth {
            None => prop_assert_eq!(sol.status(), SolveStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(sol.status(), SolveStatus::Optimal);
                prop_assert!((sol.objective_value() - best).abs() < 1e-6,
                    "solver {} vs brute force {}", sol.objective_value(), best);
                // The reported incumbent itself must be feasible.
                prop_assert!(m.is_feasible(sol.values(), 1e-6));
            }
        }
    }

    #[test]
    fn best_bound_order_matches_enumeration(milp in random_milp()) {
        let truth = brute_force(&milp);
        let (m, _) = build(&milp);
        let opts = SolverOptions::default()
            .node_order(NodeOrder::BestBound)
            .branch_rule(BranchRule::Reliability);
        let sol = m.solve_with(&opts).expect("solver must not error");
        match truth {
            None => prop_assert_eq!(sol.status(), SolveStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(sol.status(), SolveStatus::Optimal);
                prop_assert!((sol.objective_value() - best).abs() < 1e-6,
                    "solver {} vs brute force {}", sol.objective_value(), best);
            }
        }
    }

    #[test]
    fn gap_is_closed_at_optimality(milp in random_milp()) {
        let (m, _) = build(&milp);
        let sol = m.solve().expect("solver must not error");
        if sol.status() == SolveStatus::Optimal {
            prop_assert!(sol.gap() <= 1e-5, "gap {} too large", sol.gap());
        }
    }
}

/// The second pass of the parallel checks below: presolve, root cuts and
/// the root dive off, so the search rests on branching. The defaults close
/// almost every generated case within two nodes.
fn bare() -> SolverOptions {
    SolverOptions::default().presolve(false).cuts(false).heuristics(false)
}

/// The thread count may change the node exploration order but never the
/// answer: serial (`threads = 1`) and work-stealing (`threads = 4`) solves
/// must both match exhaustive enumeration exactly, under the default
/// options and again under [`bare`]. The check fails unless at least a
/// tenth of its cases explore three or more nodes in the bare pass (31 of
/// these 150 do).
#[test]
fn thread_counts_match_enumeration() {
    const CASES: usize = 150;
    let strategy = random_milp();
    let mut rng = TestRng::for_test("brute_force::thread_counts_match_enumeration");
    let mut branching = 0;
    for case in 0..CASES {
        let milp = strategy.generate(&mut rng);
        let truth = brute_force(&milp);
        let (m, _) = build(&milp);
        for (is_bare, base) in [(false, SolverOptions::default()), (true, bare())] {
            let at = format!("case {case} (bare {is_bare})");
            let serial =
                m.solve_with(&base.clone().threads(1)).expect("serial solve must not error");
            let parallel = m.solve_with(&base.threads(4)).expect("parallel solve must not error");
            assert_proves(&serial, truth, &format!("{at}, threads=1"));
            assert_proves(&parallel, truth, &format!("{at}, threads=4"));
            if truth.is_some() {
                assert!(m.is_feasible(parallel.values(), 1e-6), "{at}: infeasible incumbent");
            }
            // Per-thread node statistics must be consistent with the totals.
            assert!(serial.nodes_per_thread().len() <= 1, "{at}");
            assert!(parallel.nodes_per_thread().len() <= 4, "{at}");
            assert_eq!(serial.nodes_per_thread().iter().sum::<u64>(), serial.node_count(), "{at}");
            assert_eq!(
                parallel.nodes_per_thread().iter().sum::<u64>(),
                parallel.node_count(),
                "{at}"
            );
            if is_bare {
                branching += usize::from(parallel.node_count() >= 3);
            }
        }
    }
    assert!(10 * branching >= CASES, "only {branching} of {CASES} cases explored three nodes");
}

/// Best-bound node order under a worker team: the shared heap must still
/// prove the enumerated optimum, under the default options and again under
/// [`bare`]. The check fails unless at least a tenth of its cases explore
/// three or more nodes in the bare pass (45 of these 150 do).
#[test]
fn parallel_best_bound_matches_enumeration() {
    const CASES: usize = 150;
    let strategy = random_milp();
    let mut rng = TestRng::for_test("brute_force::parallel_best_bound_matches_enumeration");
    let mut branching = 0;
    for case in 0..CASES {
        let milp = strategy.generate(&mut rng);
        let truth = brute_force(&milp);
        let (m, _) = build(&milp);
        for (is_bare, base) in [(false, SolverOptions::default()), (true, bare())] {
            let opts = base.node_order(NodeOrder::BestBound).threads(4);
            let sol = m.solve_with(&opts).expect("solver must not error");
            assert_proves(&sol, truth, &format!("case {case} (bare {is_bare})"));
            if is_bare {
                branching += usize::from(sol.node_count() >= 3);
            }
        }
    }
    assert!(10 * branching >= CASES, "only {branching} of {CASES} cases explored three nodes");
}

/// `threads = 1` is the documented deterministic mode: repeated solves take
/// the identical search path, so node and pivot counts match exactly.
#[test]
fn serial_mode_is_deterministic() {
    let build = || {
        let mut m = Model::new("det");
        let mut obj = LinExpr::new();
        let mut cap = LinExpr::new();
        for i in 0..14 {
            let x = m.binary(format!("x{i}"));
            obj.add_term(x, 3.0 + (i as f64) * 0.7);
            cap.add_term(x, 2.0 + ((i * 5) % 7) as f64);
        }
        m.add_le("cap", cap, 23.0);
        m.set_objective(Objective::Maximize, obj);
        m
    };
    let opts = SolverOptions::default().threads(1);
    let a = build().solve_with(&opts).unwrap();
    let b = build().solve_with(&opts).unwrap();
    assert_eq!(a.status(), b.status());
    assert_eq!(a.objective_value().to_bits(), b.objective_value().to_bits());
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.simplex_iterations(), b.simplex_iterations());
    assert_eq!(a.nodes_per_thread(), b.nodes_per_thread());
    assert_eq!(a.nodes_per_thread(), &[a.node_count()]);
}

#[test]
fn mixed_integer_continuous_against_hand_solution() {
    // max 3x + 2y + w : x,y binary, w in [0, 10] continuous
    //   2x + y + 0.5w <= 4
    //   w <= 6x  (w only usable when x chosen)
    let mut m = Model::new("mixed");
    let x = m.binary("x");
    let y = m.binary("y");
    let w = m.continuous("w", 0.0, 10.0).unwrap();
    m.add_le("cap", LinExpr::term(x, 2.0) + LinExpr::from(y) + LinExpr::term(w, 0.5), 4.0);
    m.add_le("link", LinExpr::from(w) - LinExpr::term(x, 6.0), 0.0);
    m.set_objective(
        Objective::Maximize,
        LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0) + LinExpr::from(w),
    );
    let s = m.solve().unwrap();
    // x=1,y=1: slack for w is 4-3=1 -> w=2 (0.5w<=1) => obj 3+2+2 = 7
    // x=1,y=0: 0.5w <= 2 -> w=4 but w<=6 -> obj 3+4 = 7 -- tie
    // x=0: w=0, y=1 -> 2.
    assert_eq!(s.status(), SolveStatus::Optimal);
    assert!((s.objective_value() - 7.0).abs() < 1e-6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Presolve must never change the answer: status and optimal objective
    /// agree with the raw branch-and-bound on random models.
    #[test]
    fn presolve_preserves_semantics(milp in random_milp()) {
        let (with_presolve, _) = build(&milp);
        let (without_presolve, _) = build(&milp);
        let opts_off = SolverOptions { presolve: false, ..SolverOptions::default() };
        let a = with_presolve.solve().expect("solve with presolve");
        let b = without_presolve.solve_with(&opts_off).expect("solve without presolve");
        prop_assert_eq!(a.status(), b.status());
        if a.status().has_solution() {
            prop_assert!((a.objective_value() - b.objective_value()).abs() < 1e-6,
                "presolve {} vs raw {}", a.objective_value(), b.objective_value());
            // Postsolved incumbents must be feasible in the original model.
            prop_assert!(with_presolve.is_feasible(a.values(), 1e-6));
        }
    }
}
