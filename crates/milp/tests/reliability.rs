//! Reliability branching against enumeration.
//!
//! Strong-branching probes only reshape the tree, and a probe side refuted
//! by the incumbent holds no better point, so the proven optimum on plain
//! random instances must match enumeration exactly. Both checks turn
//! presolve, root cuts and the root dive off, so the search rests on
//! branching. Both seed their generator with the stream name of the file
//! they were first written in (`symmetry::…`), so their cases stay the
//! same.

mod common;

use common::{
    assert_proves, brute_force, build_binary, feasible_points, objective_of, random_milp,
};
use ndp_milp::{BranchRule, SolverOptions};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// The options both checks solve under: reliability branching with the
/// root accelerators off.
fn bare(threads: usize) -> SolverOptions {
    SolverOptions::default()
        .presolve(false)
        .cuts(false)
        .heuristics(false)
        .branch_rule(BranchRule::Reliability)
        .threads(threads)
}

/// The proven optimum equals enumeration. Most random instances are still
/// infeasible or integral at the root, so the check also fails unless at
/// least a tenth of its cases probe (33 of these 128 do): a check that
/// never probes would pass a broken probe.
#[test]
fn reliability_matches_enumeration() {
    const CASES: usize = 128;
    let strategy = random_milp();
    let mut rng = TestRng::for_test("symmetry::reliability_matches_enumeration");
    let mut probing = 0;
    for case in 0..CASES {
        let milp = strategy.generate(&mut rng);
        let (model, _) = build_binary(&milp);
        let sol = model.solve_with(&bare(1)).unwrap();
        assert_proves(&sol, brute_force(&milp), &format!("case {case}: {milp:?}"));
        probing += usize::from(sol.stats().strong_branch_probes > 0);
    }
    assert!(10 * probing >= CASES, "only {probing} of {CASES} cases probed");
}

/// A probe side whose LP optimum meets the incumbent is refuted, so a
/// wrong refutation would cut off a better point. From a warm start that
/// is feasible but strictly worse than the optimum (the nearest worse
/// objective, the tightest such cutoff), reliability branching still
/// proves the enumerated optimum, serially and on the parallel path, where
/// workers share the incumbent. Most of these instances close at the root;
/// about a quarter of the solves probe.
#[test]
fn reliability_cutoffs_keep_every_optimum() {
    const CASES: usize = 128;
    let strategy = random_milp();
    let mut rng = TestRng::for_test("symmetry::reliability_cutoffs_keep_every_optimum");
    for case in 0..CASES {
        let milp = strategy.generate(&mut rng);
        let (mut model, _) = build_binary(&milp);
        let best = brute_force(&milp);
        let worse = |v: f64, b: f64| if milp.maximize { v < b } else { v > b };
        if let Some(b) = best {
            let warm = feasible_points(&milp)
                .into_iter()
                .filter(|x| worse(objective_of(&milp, x), b))
                .min_by(|x, y| {
                    let gap = |p: &Vec<f64>| (objective_of(&milp, p) - b).abs();
                    gap(x).total_cmp(&gap(y))
                });
            if let Some(x) = warm {
                model.set_warm_start(x).unwrap();
            }
        }
        for threads in [1, 2] {
            let sol = model.solve_with(&bare(threads)).unwrap();
            assert_proves(&sol, best, &format!("case {case}, threads {threads}: {milp:?}"));
        }
    }
}
