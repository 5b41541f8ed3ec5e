//! Shared fixtures for the integration suites: random-instance generators,
//! exhaustive enumeration oracles, structured models and a recording
//! observer.
//!
//! Each `tests/*.rs` file is its own crate, so before this module the
//! generators were duplicated per suite and drifted independently. The
//! suites pull what they need via `mod common;` — the allow below silences
//! the per-crate dead-code noise from unused helpers.
#![allow(dead_code)]

use ndp_milp::{
    ConstraintSense, LinExpr, Model, Objective, Observer, Solution, SolveStatus, SolverEvent, VarId,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::{Arc, Mutex};

/// A random all-binary MILP with small integer data: the workhorse of the
/// enumeration cross-checks (≤ 9 variables, so 2^n is tiny).
#[derive(Debug, Clone)]
pub struct RandomMilp {
    pub n: usize,
    pub obj: Vec<i32>,
    pub maximize: bool,
    /// Rows as (coeffs, sense code 0=Le/1=Ge/2=Eq, rhs).
    pub rows: Vec<(Vec<i32>, u8, i32)>,
}

/// Builds the [`Model`] for a [`RandomMilp`], returning the variable ids in
/// index order.
pub fn build_binary(milp: &RandomMilp) -> (Model, Vec<VarId>) {
    let mut m = Model::new("random");
    let vars: Vec<_> = (0..milp.n).map(|i| m.binary(format!("x{i}"))).collect();
    for (r, (coeffs, sense, rhs)) in milp.rows.iter().enumerate() {
        let mut e = LinExpr::new();
        for (j, &c) in coeffs.iter().enumerate() {
            if c != 0 {
                e.add_term(vars[j], c as f64);
            }
        }
        let sense = match sense {
            0 => ConstraintSense::Le,
            1 => ConstraintSense::Ge,
            _ => ConstraintSense::Eq,
        };
        m.add_constraint(format!("r{r}"), e, sense, *rhs as f64);
    }
    let mut obj = LinExpr::new();
    for (j, &c) in milp.obj.iter().enumerate() {
        obj.add_term(vars[j], c as f64);
    }
    let dir = if milp.maximize { Objective::Maximize } else { Objective::Minimize };
    m.set_objective(dir, obj);
    (m, vars)
}

/// Whether one 0/1 assignment satisfies every row of `milp`.
pub fn satisfies_rows(milp: &RandomMilp, x: &[f64]) -> bool {
    milp.rows.iter().all(|(coeffs, sense, rhs)| {
        let lhs: f64 = coeffs.iter().zip(x).map(|(&c, &v)| c as f64 * v).sum();
        match sense {
            0 => lhs <= *rhs as f64 + 1e-9,
            1 => lhs >= *rhs as f64 - 1e-9,
            _ => (lhs - *rhs as f64).abs() <= 1e-9,
        }
    })
}

/// The objective of one assignment on the user scale.
pub fn objective_of(milp: &RandomMilp, x: &[f64]) -> f64 {
    milp.obj.iter().zip(x).map(|(&c, &v)| c as f64 * v).sum()
}

/// Every feasible 0/1 assignment of `milp`, in mask order.
pub fn feasible_points(milp: &RandomMilp) -> Vec<Vec<f64>> {
    (0u32..(1 << milp.n))
        .map(|mask| (0..milp.n).map(|j| ((mask >> j) & 1) as f64).collect::<Vec<f64>>())
        .filter(|x| satisfies_rows(milp, x))
        .collect()
}

/// Enumerates all 2^n assignments; returns the best objective if feasible.
pub fn brute_force(milp: &RandomMilp) -> Option<f64> {
    feasible_points(milp).into_iter().map(|x| objective_of(milp, &x)).reduce(|a, b| {
        if milp.maximize {
            a.max(b)
        } else {
            a.min(b)
        }
    })
}

/// Asserts that `sol` proves the enumerated optimum `truth` (`None`:
/// infeasible); `at` names the case in the failure message.
pub fn assert_proves(sol: &Solution, truth: Option<f64>, at: &str) {
    match truth {
        None => assert_eq!(sol.status(), SolveStatus::Infeasible, "{at}"),
        Some(best) => {
            assert_eq!(sol.status(), SolveStatus::Optimal, "{at}");
            assert!(
                (sol.objective_value() - best).abs() < 1e-6,
                "{at}: solver {} vs enumeration {best}",
                sol.objective_value()
            );
        }
    }
}

/// Proptest strategy over small random all-binary MILPs.
///
/// Free right-hand sides make most instances infeasible, and an infeasible
/// instance closes at the root. So each instance draws a 0/1 point, and
/// three in four instances set every row's right-hand side from that
/// point's row activity: plus a random non-negative slack for `≤`, minus
/// one for `≥`, the activity itself for `=`. The point is then feasible and
/// the search has something to find. The fourth instance keeps the free
/// right-hand sides, so infeasibility proofs stay covered.
pub fn random_milp() -> impl Strategy<Value = RandomMilp> {
    (2usize..=9, any::<bool>()).prop_flat_map(|(n, maximize)| {
        let obj = proptest::collection::vec(-9i32..=9, n);
        let row = (proptest::collection::vec(-5i32..=5, n), 0u8..=2, -8i32..=12, 0i32..=4);
        let rows = proptest::collection::vec(row, 1..=5);
        let point = proptest::collection::vec(any::<bool>(), n);
        (obj, rows, point, 0u8..4).prop_map(move |(obj, rows, point, anchor)| {
            let rows = rows
                .into_iter()
                .map(|(coeffs, sense, free_rhs, slack)| {
                    let activity: i32 =
                        coeffs.iter().zip(&point).filter(|&(_, &on)| on).map(|(&c, _)| c).sum();
                    let rhs = match (anchor, sense) {
                        (0, _) => free_rhs,
                        (_, 0) => activity + slack,
                        (_, 1) => activity - slack,
                        _ => activity,
                    };
                    (coeffs, sense, rhs)
                })
                .collect();
            RandomMilp { n, obj, maximize, rows }
        })
    })
}

/// A random bounded instance, continuous or all-integer: the fixture of the
/// kernel- and pricing-equivalence suites.
#[derive(Debug, Clone)]
pub struct RandomLp {
    pub n: usize,
    pub obj: Vec<i32>,
    pub maximize: bool,
    pub bounds: Vec<(i32, i32)>,
    pub integral: bool,
    /// Rows as (coeffs, sense code 0=Le/1=Ge/2=Eq, rhs).
    pub rows: Vec<(Vec<i32>, u8, i32)>,
}

/// Builds the [`Model`] for a [`RandomLp`].
pub fn build_bounded(lp: &RandomLp) -> Model {
    let mut m = Model::new("rand");
    let vars: Vec<_> = (0..lp.n)
        .map(|i| {
            let (lo, hi) = lp.bounds[i];
            let (lo, hi) = (lo.min(hi) as f64, lo.max(hi) as f64);
            if lp.integral {
                m.integer(format!("x{i}"), lo, hi).unwrap()
            } else {
                m.continuous(format!("x{i}"), lo, hi).unwrap()
            }
        })
        .collect();
    for (r, (coeffs, sense, rhs)) in lp.rows.iter().enumerate() {
        let mut e = LinExpr::new();
        for (j, &c) in coeffs.iter().enumerate() {
            if c != 0 {
                e.add_term(vars[j], c as f64);
            }
        }
        let sense = match sense {
            0 => ConstraintSense::Le,
            1 => ConstraintSense::Ge,
            _ => ConstraintSense::Eq,
        };
        m.add_constraint(format!("r{r}"), e, sense, *rhs as f64);
    }
    let mut obj = LinExpr::new();
    for (j, &c) in lp.obj.iter().enumerate() {
        obj.add_term(vars[j], c as f64);
    }
    let dir = if lp.maximize { Objective::Maximize } else { Objective::Minimize };
    m.set_objective(dir, obj);
    m
}

/// Proptest strategy over small bounded instances.
pub fn random_bounded(integral: bool) -> impl Strategy<Value = RandomLp> {
    (2usize..=8, any::<bool>()).prop_flat_map(move |(n, maximize)| {
        let obj = proptest::collection::vec(-9i32..=9, n);
        let bounds = proptest::collection::vec((-4i32..=4, -4i32..=6), n);
        let row = (proptest::collection::vec(-5i32..=5, n), 0u8..=2, -10i32..=14);
        let rows = proptest::collection::vec(row, 1..=5);
        (obj, bounds, rows).prop_map(move |(obj, bounds, rows)| RandomLp {
            n,
            obj,
            maximize,
            bounds,
            integral,
            rows,
        })
    })
}

/// A strongly correlated knapsack: profits hug the weights, so the LP bound
/// is tight everywhere and branch and bound must grind through many nodes.
pub fn hard_knapsack(items: usize) -> Model {
    let mut m = Model::new("hard-knapsack");
    let mut weight = LinExpr::new();
    let mut value = LinExpr::new();
    let mut total = 0.0;
    for i in 0..items {
        let w = 97.0 + ((i as f64) * 37.0) % 53.0;
        let x = m.binary(format!("x{i}"));
        weight.add_term(x, w);
        value.add_term(x, w + 10.0);
        total += w;
    }
    m.add_le("cap", weight, (total / 2.0).floor());
    m.set_objective(Objective::Maximize, value);
    m
}

/// A small knapsack-style MILP over general integers with a non-trivial
/// tree.
pub fn tree_model() -> Model {
    let mut m = Model::new("tree");
    let mut weight = LinExpr::new();
    let mut value = LinExpr::new();
    for (i, (w, v)) in [(3.0, 7.0), (5.0, 9.0), (7.0, 12.0), (4.0, 6.0), (6.0, 11.0), (2.0, 3.0)]
        .into_iter()
        .enumerate()
    {
        let x = m.integer(format!("x{i}"), 0.0, 3.0).unwrap();
        weight.add_term(x, w);
        value.add_term(x, v);
    }
    m.add_le("cap", weight, 17.0);
    m.set_objective(Objective::Maximize, value);
    m
}

/// An easy model that still branches a little.
pub fn small_mip() -> Model {
    let mut m = Model::new("small");
    let mut obj = LinExpr::new();
    let mut row = LinExpr::new();
    for i in 0..8 {
        let x = m.binary(format!("x{i}"));
        obj.add_term(x, 1.0 + (i as f64) * 0.37);
        row.add_term(x, 2.0 + (i as f64) * 0.71);
    }
    m.add_le("cap", row, 11.0);
    m.set_objective(Objective::Maximize, obj);
    m
}

/// Collects every emitted event into a shared vector.
pub fn recording_observer() -> (Arc<Mutex<Vec<SolverEvent>>>, Arc<dyn Observer>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let obs: Arc<dyn Observer> =
        Arc::new(move |e: &SolverEvent| sink.lock().unwrap().push(e.clone()));
    (events, obs)
}

/// Proptest strategy over correlated multi-row knapsacks: 6–12 binaries, one
/// or two `≤`-rows with weights in 3..=15 and a capacity of 35–65 % of the
/// row's weight sum, maximizing profits that hug the first row's weights.
/// The root cut loop closes nearly every [`random_milp`] case, so the
/// cut-engine checks draw these too: about a quarter of them still branch
/// under root cuts and apply in-tree cuts.
pub fn random_knapsack() -> impl Strategy<Value = RandomMilp> {
    (6usize..=12, 1usize..=2).prop_flat_map(|(n, m)| {
        let weights = proptest::collection::vec(proptest::collection::vec(3i32..=15, n), m);
        let noise = proptest::collection::vec(0i32..=3, n);
        let fill = proptest::collection::vec(35i32..=65, m);
        (weights, noise, fill).prop_map(move |(weights, noise, fill)| {
            let obj = weights[0].iter().zip(&noise).map(|(w, e)| w + e).collect();
            let rows = weights
                .into_iter()
                .zip(fill)
                .map(|(w, f)| {
                    let cap = w.iter().sum::<i32>() * f / 100;
                    (w, 0u8, cap)
                })
                .collect();
            RandomMilp { n, obj, maximize: true, rows }
        })
    })
}

/// The instances of the cut-engine enumeration checks, drawn from
/// `TestRng::for_test(name)`: `per_family` [`random_milp`] cases (general
/// rows, infeasible cases included) followed by `per_family`
/// [`random_knapsack`] cases (which reach the tree under root cuts).
pub fn cut_cases(name: &str, per_family: usize) -> Vec<RandomMilp> {
    let mut rng = TestRng::for_test(name);
    let (general, knapsacks) = (random_milp(), random_knapsack());
    let mut cases: Vec<RandomMilp> = (0..per_family).map(|_| general.generate(&mut rng)).collect();
    cases.extend((0..per_family).map(|_| knapsacks.generate(&mut rng)));
    cases
}
