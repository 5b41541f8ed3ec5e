//! Symmetry breaking and reliability branching against enumeration.
//!
//! The symmetry proptests build models with a *known* symmetry group (two
//! relabeled copies of a random binary MILP, swapped by the candidate
//! permutation) and check the lex-leader rows plus orbital fixing never cut
//! off the optimum the brute-force oracle finds. The reliability checks
//! run the plain random generator: strong-branching probes only reshape the
//! tree, and a probe side refuted by the incumbent holds no better point,
//! so the proven optimum must match enumeration exactly.

mod common;

use common::{
    brute_force, build_binary, feasible_points, objective_of, random_milp, recording_observer,
    RandomMilp,
};
use ndp_milp::{BranchRule, LinExpr, Model, Objective, SolveStatus, SolverOptions};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Two relabeled copies of `milp` plus a symmetric coupling row; the swap
/// `a_i ↔ b_i` is a model symmetry by construction. Returns the model and
/// the candidate column permutation.
fn mirrored(milp: &RandomMilp) -> (Model, Vec<Vec<usize>>) {
    let n = milp.n;
    let mut m = Model::new("mirrored");
    let a: Vec<_> = (0..n).map(|i| m.binary(format!("a{i}"))).collect();
    let b: Vec<_> = (0..n).map(|i| m.binary(format!("b{i}"))).collect();
    for (r, (coeffs, sense, rhs)) in milp.rows.iter().enumerate() {
        for (tag, vars) in [("a", &a), ("b", &b)] {
            let mut e = LinExpr::new();
            for (j, &c) in coeffs.iter().enumerate() {
                if c != 0 {
                    e.add_term(vars[j], c as f64);
                }
            }
            match sense {
                0 => m.add_le(format!("{tag}{r}"), e, *rhs as f64),
                1 => m.add_ge(format!("{tag}{r}"), e, *rhs as f64),
                _ => m.add_eq(format!("{tag}{r}"), e, *rhs as f64),
            };
        }
    }
    // A coupling row invariant under the swap, so the copies are not just
    // two independent blocks.
    let mut all = LinExpr::new();
    for &v in a.iter().chain(&b) {
        all.add_term(v, 1.0);
    }
    m.add_le("couple", all, (n + n / 2) as f64);
    let mut obj = LinExpr::new();
    for (j, &c) in milp.obj.iter().enumerate() {
        obj.add_term(a[j], c as f64);
        obj.add_term(b[j], c as f64);
    }
    let dir = if milp.maximize { Objective::Maximize } else { Objective::Minimize };
    m.set_objective(dir, obj);
    let perm: Vec<usize> = (0..2 * n).map(|j| if j < n { j + n } else { j - n }).collect();
    (m, vec![perm])
}

/// Brute-force oracle for the mirrored model: best objective over all
/// feasible `(x_a, x_b)` pairs under the per-copy rows and the coupling row.
fn mirrored_brute_force(milp: &RandomMilp) -> Option<f64> {
    let n = milp.n;
    let cap = (n + n / 2) as f64;
    let points: Vec<Vec<f64>> = (0u32..(1 << n))
        .map(|mask| (0..n).map(|j| ((mask >> j) & 1) as f64).collect::<Vec<f64>>())
        .filter(|x| common::satisfies_rows(milp, x))
        .collect();
    let mut best: Option<f64> = None;
    for xa in &points {
        for xb in &points {
            let total: f64 = xa.iter().chain(xb).sum();
            if total > cap + 1e-9 {
                continue;
            }
            let v = common::objective_of(milp, xa) + common::objective_of(milp, xb);
            best = Some(match best {
                None => v,
                Some(b) if milp.maximize => b.max(v),
                Some(b) => b.min(v),
            });
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lex rows + orbital fixing must never cut off all optima: the proven
    /// optimum of the symmetric model equals enumeration.
    #[test]
    fn symmetry_preserves_the_optimum(milp in random_milp()) {
        let (model, cands) = mirrored(&milp);
        let opts = SolverOptions::default()
            .presolve(false)
            .threads(1)
            .symmetry_candidates(cands);
        let sol = model.solve_with(&opts).unwrap();
        match mirrored_brute_force(&milp) {
            Some(best) => {
                prop_assert_eq!(sol.status(), SolveStatus::Optimal);
                prop_assert!((sol.objective_value() - best).abs() <= 1e-6,
                    "solver {} vs enumeration {}", sol.objective_value(), best);
            }
            None => prop_assert_eq!(sol.status(), SolveStatus::Infeasible),
        }
    }
}

/// Reliability branching is a tree-shaping change only: the proven optimum
/// on plain random instances equals enumeration. Presolve, root cuts and
/// the root dive are off so the search rests on branching. Most random
/// instances are still infeasible or integral at the root, so the check
/// also fails unless at least a tenth of its cases probe (21 of these 128
/// do): a check that never probes would pass a broken probe.
#[test]
fn reliability_matches_enumeration() {
    const CASES: usize = 128;
    let strategy = random_milp();
    let mut rng = TestRng::for_test("symmetry::reliability_matches_enumeration");
    let mut probing = 0;
    for case in 0..CASES {
        let milp = strategy.generate(&mut rng);
        let (model, _) = build_binary(&milp);
        let opts = SolverOptions::default()
            .presolve(false)
            .cuts(false)
            .heuristics(false)
            .branch_rule(BranchRule::Reliability)
            .threads(1);
        let sol = model.solve_with(&opts).unwrap();
        match brute_force(&milp) {
            Some(best) => {
                assert_eq!(sol.status(), SolveStatus::Optimal, "case {case}: {milp:?}");
                assert!(
                    (sol.objective_value() - best).abs() <= 1e-6,
                    "case {case}: solver {} vs enumeration {best}: {milp:?}",
                    sol.objective_value()
                );
            }
            None => assert_eq!(sol.status(), SolveStatus::Infeasible, "case {case}: {milp:?}"),
        }
        probing += usize::from(sol.stats().strong_branch_probes > 0);
    }
    assert!(10 * probing >= CASES, "only {probing} of {CASES} cases probed");
}

proptest! {
    // Most of these instances close at the root; with the root accelerators
    // off about a fifth of the solves probe, so this block runs more cases.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A probe side whose LP optimum meets the incumbent is refuted, so a
    /// wrong refutation would cut off a better point. From a warm start
    /// that is feasible but strictly worse than the optimum (the nearest
    /// worse objective, the tightest such cutoff), reliability branching
    /// still proves the enumerated optimum, serially and on the parallel
    /// path, where workers share the incumbent. Presolve, root cuts and the
    /// root dive are off so the search rests on branching.
    #[test]
    fn reliability_cutoffs_keep_every_optimum(milp in random_milp()) {
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
            let opts = SolverOptions::default()
                .presolve(false)
                .cuts(false)
                .heuristics(false)
                .branch_rule(BranchRule::Reliability)
                .threads(threads);
            let sol = model.solve_with(&opts).unwrap();
            match best {
                Some(b) => {
                    prop_assert_eq!(sol.status(), SolveStatus::Optimal);
                    prop_assert!((sol.objective_value() - b).abs() <= 1e-6,
                        "threads {}: solver {} vs enumeration {}",
                        threads, sol.objective_value(), b);
                }
                None => prop_assert_eq!(sol.status(), SolveStatus::Infeasible),
            }
        }
    }
}

/// A fixed symmetric instance solved twice with both features on must emit
/// bit-for-bit identical event streams under `threads = 1`.
#[test]
fn serial_event_stream_is_deterministic_with_symmetry_and_reliability() {
    let milp = RandomMilp {
        n: 5,
        obj: vec![5, -3, 2, 7, -1],
        maximize: true,
        rows: vec![(vec![2, 3, 1, 4, 2], 0, 6), (vec![1, -1, 2, 1, 3], 1, -2)],
    };
    let run = || {
        let (model, cands) = mirrored(&milp);
        let (events, obs) = recording_observer();
        let opts = SolverOptions::default()
            .presolve(false)
            .threads(1)
            .branch_rule(BranchRule::Reliability)
            .symmetry_candidates(cands)
            .observer(obs);
        let sol = model.solve_with(&opts).unwrap();
        let evs = events.lock().unwrap().clone();
        (sol.objective_value(), sol.node_count(), evs)
    };
    let (obj1, nodes1, ev1) = run();
    let (obj2, nodes2, ev2) = run();
    assert_eq!(obj1, obj2);
    assert_eq!(nodes1, nodes2);
    assert_eq!(ev1.len(), ev2.len(), "event counts differ");
    for (a, b) in ev1.iter().zip(&ev2) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "event streams diverge");
    }
}

/// The symmetry machinery reports its work: orbits detected, lex rows
/// installed (via the event) and — on a model this symmetric — fixings or
/// at least a verified group.
#[test]
fn symmetry_stats_and_event_are_reported() {
    let milp = RandomMilp {
        n: 4,
        obj: vec![3, 5, 2, 4],
        maximize: true,
        rows: vec![(vec![2, 3, 2, 1], 0, 5)],
    };
    let (model, cands) = mirrored(&milp);
    let (events, obs) = recording_observer();
    let opts = SolverOptions::default()
        .presolve(false)
        .threads(1)
        .symmetry_candidates(cands)
        .observer(obs);
    let sol = model.solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Optimal);
    assert!(sol.stats().symmetry_orbits > 0, "swap symmetry should verify");
    let evs = events.lock().unwrap();
    let detected = evs.iter().any(|e| {
        matches!(e, ndp_milp::SolverEvent::SymmetryDetected { generators, rows, .. }
            if *generators == 1 && *rows == 1)
    });
    assert!(detected, "SymmetryDetected event missing: {evs:?}");
}

/// Ablation flags really disable the machinery.
#[test]
fn symmetry_flags_disable_cleanly() {
    let milp = RandomMilp {
        n: 4,
        obj: vec![3, 5, 2, 4],
        maximize: true,
        rows: vec![(vec![2, 3, 2, 1], 0, 5)],
    };
    let (model, cands) = mirrored(&milp);
    let (events, obs) = recording_observer();
    let opts = SolverOptions::default()
        .presolve(false)
        .threads(1)
        .symmetry_candidates(cands)
        .symmetry_breaking(false)
        .orbital_fixing(false)
        .observer(obs);
    let sol = model.solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Optimal);
    assert_eq!(sol.stats().symmetry_orbits, 0);
    assert_eq!(sol.stats().orbital_fixings, 0);
    let evs = events.lock().unwrap();
    assert!(
        !evs.iter().any(|e| matches!(e, ndp_milp::SolverEvent::SymmetryDetected { .. })),
        "no symmetry event expected with both flags off"
    );
}
