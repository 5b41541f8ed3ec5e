//! Cutting-plane end-to-end correctness and effectiveness.
//!
//! Cuts may only ever shrink the tree, never change the answer. The
//! enumeration checks cross-check cuts-off, root-only cuts and root+in-tree
//! cuts against exhaustive enumeration on random binary MILPs and random
//! knapsacks ([`common::cut_cases`]), under the default options and again
//! under [`bare`], and fail unless enough knapsack cases reach the tree and
//! its cut rounds; the fixed tests pin that cuts actually reduce node
//! counts on a structured knapsack and that the cut statistics stay
//! internally consistent. Root cuts are opt-in ([`SolverOptions::cuts`]),
//! so every cut arm switches them on.

mod common;

use common::{assert_proves, cut_cases, hard_knapsack, RandomMilp};
use ndp_milp::{SolveStatus, SolverOptions};

/// Cases per instance family in the enumeration checks.
const CASES: usize = 150;

/// Adapts the shared builder to this suite's model-only signature.
fn build(milp: &RandomMilp) -> ndp_milp::Model {
    common::build_binary(milp).0
}

/// The second pass of the enumeration checks: presolve and the root dive
/// off, so the search rests on cuts and branching.
fn bare() -> SolverOptions {
    SolverOptions::default().presolve(false).heuristics(false)
}

/// Cuts off, root cuts only, and root + in-tree cuts (separating at every
/// depth) must all agree with exhaustive enumeration — a cut that removed
/// an integer point would change the status or optimum of some instance
/// here with high probability. The root loop closes every random-MILP case
/// at the root, so the check fails unless, in the [`bare`] pass, at least a
/// tenth of the knapsack cases explore three or more nodes under root cuts
/// (37 of these 150 do) and at least a tenth apply an in-tree cut (31 do).
#[test]
fn cut_configurations_match_enumeration() {
    let cases = cut_cases("cuts::cut_configurations_match_enumeration", CASES);
    let (mut branching, mut tree_cutting) = (0, 0);
    for (case, milp) in cases.iter().enumerate() {
        let truth = common::brute_force(milp);
        let m = build(milp);
        for (is_bare, base) in [(false, SolverOptions::default()), (true, bare())] {
            let solve = |name: &str, opts: SolverOptions| {
                let at = format!("case {case} (bare {is_bare}), {name}");
                let sol = m.solve_with(&opts.threads(1)).expect("solver must not error");
                assert_proves(&sol, truth, &at);
                if truth.is_some() {
                    assert!(m.is_feasible(sol.values(), 1e-6), "{at}: infeasible incumbent");
                }
                sol
            };
            solve("cuts-off", base.clone().cuts(false));
            let root = solve("root-cuts", base.clone().cuts(true));
            let tree = solve("tree-cuts", base.cuts(true).cut_node_interval(1));
            if is_bare && case >= CASES {
                branching += usize::from(root.node_count() >= 3);
                // The root loop does not read the interval, so every cut
                // beyond the root-only arm's was applied in the tree.
                tree_cutting += usize::from(tree.stats().cuts_applied > root.stats().cuts_applied);
            }
        }
    }
    assert!(10 * branching >= CASES, "only {branching} of {CASES} knapsacks explored three nodes");
    assert!(10 * tree_cutting >= CASES, "only {tree_cutting} of {CASES} knapsacks cut in the tree");
}

/// Parallel solves search with root cuts installed (in-tree separation is
/// serial-only, so the interval is ignored); the answer must still match
/// enumeration, under the default options and again under [`bare`]. The
/// check fails unless, in the bare pass, at least a tenth of the knapsack
/// cases explore three or more nodes (about 36 of these 150 do; the count
/// depends on how the workers share the tree).
#[test]
fn parallel_search_over_root_cuts_matches_enumeration() {
    let cases = cut_cases("cuts::parallel_search_over_root_cuts_matches_enumeration", CASES);
    let mut branching = 0;
    for (case, milp) in cases.iter().enumerate() {
        let truth = common::brute_force(milp);
        let m = build(milp);
        for (is_bare, base) in [(false, SolverOptions::default()), (true, bare())] {
            let opts = base.cuts(true).threads(4).cut_node_interval(2);
            let sol = m.solve_with(&opts).expect("solver must not error");
            assert_proves(&sol, truth, &format!("case {case} (bare {is_bare}), threads=4"));
            if is_bare && case >= CASES {
                branching += usize::from(sol.node_count() >= 3);
            }
        }
    }
    assert!(10 * branching >= CASES, "only {branching} of {CASES} knapsacks explored three nodes");
}

/// Cuts must shrink (or at worst not grow) the tree on the structured
/// knapsack, at the same proven optimum, with the work visible in the
/// cut counters.
#[test]
fn cuts_shrink_the_tree_on_a_structured_knapsack() {
    let off = hard_knapsack(16)
        .solve_with(&SolverOptions::default().threads(1).cuts(false))
        .expect("cuts-off solve");
    let on = hard_knapsack(16)
        .solve_with(&SolverOptions::default().threads(1).cuts(true))
        .expect("cuts-on solve");
    assert_eq!(off.status(), SolveStatus::Optimal);
    assert_eq!(on.status(), SolveStatus::Optimal);
    assert!(
        (on.objective_value() - off.objective_value()).abs() < 1e-6,
        "cuts changed the optimum: {} vs {}",
        on.objective_value(),
        off.objective_value()
    );
    assert!(
        on.node_count() <= off.node_count(),
        "cuts grew the tree: {} nodes with cuts vs {} without",
        on.node_count(),
        off.node_count()
    );
    let stats = on.stats();
    assert!(stats.cuts_applied > 0, "fixture must apply cuts");
    assert!(stats.cuts_generated >= stats.cuts_applied);
    assert_eq!(off.stats().cuts_applied, 0, "cuts-off run applied cuts");
}

/// Cut statistics are internally consistent and the separation time is a
/// disjoint bucket of the wall clock.
#[test]
fn cut_stats_are_consistent() {
    let sol = hard_knapsack(14)
        .solve_with(&SolverOptions::default().threads(1).cuts(true))
        .expect("solve");
    let st = sol.stats();
    assert!(st.cuts_applied > 0, "fixture must apply cuts");
    assert!(st.cuts_generated >= st.cuts_applied);
    assert!(st.separation_seconds >= 0.0);
    assert!(st.other_seconds() >= 0.0);
    let attributed = st.presolve_seconds
        + st.simplex_seconds
        + st.factor_seconds
        + st.separation_seconds
        + st.heuristic_seconds
        + st.propagation_seconds;
    assert!(
        attributed <= st.total_seconds * 1.05 + 1e-3,
        "attributed {attributed} vs total {}",
        st.total_seconds
    );
}
