//! Safety of the branch-and-bound accelerators, cross-checked against
//! exhaustive enumeration.
//!
//! The root dive and node propagation may change *how* the tree is
//! searched — never the answer. Each proptest below isolates one
//! accelerator (the other off) and requires exact agreement with the
//! brute-force optimum on random binary MILPs, plus feasibility of every
//! returned incumbent; the all-on configuration, root cuts included, is
//! checked too, because the features interact (heuristic incumbents
//! prune, propagation fathoms the subtrees they leave).

mod common;

use common::{
    assert_proves, brute_force, build_binary, cut_cases, objective_of, random_milp, satisfies_rows,
    RandomMilp,
};
use ndp_milp::{SolveStatus, SolverOptions};
use proptest::prelude::*;

/// Solves under `opts` and checks exact agreement with enumeration.
fn check_against_enumeration(
    milp: &RandomMilp,
    opts: &SolverOptions,
    name: &str,
) -> std::result::Result<(), TestCaseError> {
    let truth = brute_force(milp);
    let (m, _) = build_binary(milp);
    let sol = m.solve_with(opts).expect("solver must not error");
    match truth {
        None => prop_assert_eq!(sol.status(), SolveStatus::Infeasible, "{} status", name),
        Some(best) => {
            prop_assert_eq!(sol.status(), SolveStatus::Optimal, "{} status", name);
            prop_assert!(
                (sol.objective_value() - best).abs() < 1e-6,
                "{} found {} vs brute force {}",
                name,
                sol.objective_value(),
                best
            );
            prop_assert!(m.is_feasible(sol.values(), 1e-6), "{} incumbent infeasible", name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Node propagation in isolation: tightening a bound that excludes any
    /// integer-feasible point, or fathoming a box that still holds one,
    /// would change the proven optimum of some instance here.
    #[test]
    fn propagation_preserves_the_enumerated_optimum(milp in random_milp()) {
        let opts = SolverOptions::default()
            .threads(1)
            .cuts(false)
            .heuristics(false)
            .propagation(true);
        check_against_enumeration(&milp, &opts, "propagation-only")?;
    }

    /// Heuristics in isolation: a heuristic incumbent that failed validation
    /// (infeasible, or mis-scaled objective) would either surface as a wrong
    /// final objective or prune the true optimum away.
    #[test]
    fn heuristics_preserve_the_enumerated_optimum(milp in random_milp()) {
        let opts = SolverOptions::default()
            .threads(1)
            .cuts(false)
            .propagation(false)
            .heuristics(true);
        check_against_enumeration(&milp, &opts, "heuristics-only")?;
    }

    /// Under a node budget too small to search, any incumbent the solver
    /// reports came from the root heuristics: it must satisfy every row
    /// and never beat the enumerated optimum.
    #[test]
    fn heuristic_incumbents_pass_validation(milp in random_milp()) {
        let opts = SolverOptions::default().threads(1).node_limit(1);
        let (m, _) = build_binary(&milp);
        let sol = m.solve_with(&opts).expect("solver must not error");
        if !sol.has_incumbent() {
            return Ok(());
        }
        prop_assert!(m.is_feasible(sol.values(), 1e-6), "heuristic incumbent infeasible");
        prop_assert!(satisfies_rows(&milp, sol.values()), "incumbent violates a raw row");
        let reported = sol.objective_value();
        prop_assert!(
            (objective_of(&milp, sol.values()) - reported).abs() < 1e-6,
            "reported objective {} disagrees with the point", reported
        );
        if let Some(best) = brute_force(&milp) {
            let ok = if milp.maximize { reported <= best + 1e-6 } else { reported >= best - 1e-6 };
            prop_assert!(ok, "incumbent {} beats the enumerated optimum {}", reported, best);
        }
    }
}

/// Everything on at once — the production default plus root cuts — still
/// matches enumeration exactly on random binary MILPs and random knapsacks
/// ([`common::cut_cases`]), under the default options and again with
/// presolve off. The root loop closes every random-MILP case at the root,
/// so the check fails unless, with presolve off, at least a tenth of the
/// knapsack cases explore three or more nodes (40 of these 150 do).
#[test]
fn all_accelerators_match_enumeration() {
    const CASES: usize = 150;
    let cases = cut_cases("accelerators::all_accelerators_match_enumeration", CASES);
    let mut branching = 0;
    for (case, milp) in cases.iter().enumerate() {
        let truth = brute_force(milp);
        let (m, _) = build_binary(milp);
        for presolve in [true, false] {
            let all_on = SolverOptions::default().threads(1).cuts(true).presolve(presolve);
            let at = format!("case {case} (presolve {presolve})");
            let sol = m.solve_with(&all_on).expect("solver must not error");
            assert_proves(&sol, truth, &at);
            if truth.is_some() {
                assert!(m.is_feasible(sol.values(), 1e-6), "{at}: infeasible incumbent");
            }
            if !presolve && case >= CASES {
                branching += usize::from(sol.node_count() >= 3);
            }
        }
    }
    assert!(10 * branching >= CASES, "only {branching} of {CASES} knapsacks explored three nodes");
}

/// Repeated seeded-heuristic solves agree bit-for-bit on the incumbent:
/// the dive's tie-breaking RNG is seeded per solve, not global.
#[test]
fn repeated_heuristic_solves_agree_bitwise() {
    let opts = SolverOptions::default().threads(1);
    let a = common::hard_knapsack(14).solve_with(&opts).unwrap();
    let b = common::hard_knapsack(14).solve_with(&opts).unwrap();
    assert_eq!(a.objective_value().to_bits(), b.objective_value().to_bits());
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.stats().heuristic_incumbents, b.stats().heuristic_incumbents);
    assert_eq!(a.stats().propagated_bounds, b.stats().propagated_bounds);
    let av: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
    let bv: Vec<u64> = b.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(av, bv, "incumbent points diverged between identical runs");
}
