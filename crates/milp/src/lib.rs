//! # ndp-milp — a self-contained mixed-integer linear programming solver
//!
//! This crate is the optimization substrate of the `noc-deploy` workspace: a
//! pure-Rust MILP solver used in place of the commercial solver (Gurobi) the
//! reproduced paper relies on. It provides:
//!
//! * a [`Model`] building layer with typed variables ([`VarKind`]), linear
//!   expressions ([`LinExpr`]) and constraints,
//! * a bounded-variable **dual simplex** for LP relaxations,
//! * **branch and bound** with warm-started node re-optimization, branch
//!   priorities, pseudo-cost branching and an LP-rounding incumbent
//!   heuristic,
//! * a **cutting-plane engine** (Gomory mixed-integer and knapsack cover
//!   cuts through a managed pool; see [`SolverOptions::cuts`]),
//! * MIP warm starts ([`Model::set_warm_start`]), node/time/gap limits.
//!
//! The solver targets fully bounded models (every variable with finite
//! bounds); infinite bounds are clamped to a large working bound and a
//! solution resting on a clamped bound is reported as
//! [`SolveStatus::Unbounded`].
//!
//! ## Example
//!
//! A tiny knapsack:
//!
//! ```
//! use ndp_milp::{LinExpr, Model, Objective};
//!
//! let mut m = Model::new("knapsack");
//! let items = [(3.0, 4.0), (4.0, 5.0), (2.0, 3.0)]; // (weight, value)
//! let mut weight = LinExpr::new();
//! let mut value = LinExpr::new();
//! for (i, (w, v)) in items.iter().enumerate() {
//!     let x = m.binary(format!("x{i}"));
//!     weight.add_term(x, *w);
//!     value.add_term(x, *v);
//! }
//! m.add_le("capacity", weight, 6.0);
//! m.set_objective(Objective::Maximize, value);
//! let sol = m.solve()?;
//! assert_eq!(sol.objective_value(), 8.0); // items 1 and 2
//! # Ok::<(), ndp_milp::MilpError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod branch;
mod cuts;
mod delta;
mod error;
mod events;
mod expr;
pub mod fingerprint;
mod heuristics;
mod lu;
mod model;
mod mps;
mod options;
mod parallel;
mod pool;
mod presolve;
mod propagate;
mod resolve;
mod simplex;
mod solution;
mod standard;
#[cfg(test)]
mod testgen;

pub use batch::run_batch;
pub use delta::{DeltaOutcome, ModelDelta};
pub use error::{MilpError, Result};
pub use events::{
    CancelToken, IncumbentFeed, Observer, ObserverHandle, SolverEvent, TerminationReason,
};
pub use expr::LinExpr;
pub use model::{ConstraintId, ConstraintSense, Model, Objective, VarId, VarKind};
pub use mps::{parse_mps, write_mps};
pub use options::{BasisKernel, BranchRule, NodeOrder, Pricing, SolverOptions};
pub use pool::{worker_pool_busy, worker_pool_size};
pub use resolve::ResolveSession;
pub use solution::{Solution, SolveStats, SolveStatus};

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn pure_lp_two_vars() {
        // min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2  => x=2,y=2, obj=-6
        let mut m = Model::new("lp");
        let x = m.continuous("x", 0.0, 3.0).unwrap();
        let y = m.continuous("y", 0.0, 2.0).unwrap();
        m.add_le("cap", LinExpr::from(x) + y, 4.0);
        m.set_objective(Objective::Minimize, LinExpr::term(x, -1.0) + LinExpr::term(y, -2.0));
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Optimal);
        assert_close(s.objective_value(), -6.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn lp_with_equalities() {
        // min x + y s.t. x + y = 2, x - y = 0 => x=y=1
        let mut m = Model::new("eq");
        let x = m.continuous("x", 0.0, 10.0).unwrap();
        let y = m.continuous("y", 0.0, 10.0).unwrap();
        m.add_eq("sum", LinExpr::from(x) + y, 2.0);
        m.add_eq("diff", LinExpr::from(x) - y, 0.0);
        m.set_objective(Objective::Minimize, LinExpr::from(x) + LinExpr::from(y));
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Optimal);
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_lp() {
        let mut m = Model::new("inf");
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        m.add_ge("lo", LinExpr::from(x), 2.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Infeasible);
    }

    #[test]
    fn infeasible_integer_bounds() {
        let mut m = Model::new("inf-int");
        let x = m.integer("x", 0.4, 0.6).unwrap();
        m.set_objective(Objective::Minimize, LinExpr::from(x));
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("unb");
        let x = m.continuous("x", 0.0, f64::INFINITY).unwrap();
        m.set_objective(Objective::Maximize, LinExpr::from(x));
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Unbounded);
    }

    #[test]
    fn binary_knapsack() {
        // max 4a + 5b + 3c s.t. 3a + 4b + 2c <= 6 => b + c = 8
        let mut m = Model::new("ks");
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        let w = LinExpr::term(a, 3.0) + LinExpr::term(b, 4.0) + LinExpr::term(c, 2.0);
        let v = LinExpr::term(a, 4.0) + LinExpr::term(b, 5.0) + LinExpr::term(c, 3.0);
        m.add_le("cap", w, 6.0);
        m.set_objective(Objective::Maximize, v);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Optimal);
        assert_close(s.objective_value(), 8.0);
        assert_eq!(s.int_value(a), 0);
        assert_eq!(s.int_value(b), 1);
        assert_eq!(s.int_value(c), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // x[i][j] and x[j][i] are both walked
    fn assignment_problem_3x3() {
        // Classic assignment: cost matrix, x_ij binary, rows/cols sum to 1.
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new("assign");
        let mut x = vec![];
        let mut obj = LinExpr::new();
        for i in 0..3 {
            let mut row = vec![];
            for j in 0..3 {
                let v = m.binary(format!("x{i}{j}"));
                obj.add_term(v, cost[i][j]);
                row.push(v);
            }
            x.push(row);
        }
        for i in 0..3 {
            let mut r = LinExpr::new();
            let mut c = LinExpr::new();
            for j in 0..3 {
                r.add_term(x[i][j], 1.0);
                c.add_term(x[j][i], 1.0);
            }
            m.add_eq(format!("row{i}"), r, 1.0);
            m.add_eq(format!("col{i}"), c, 1.0);
        }
        m.set_objective(Objective::Minimize, obj);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Optimal);
        // Enumerating the 6 permutations gives an optimum of 12.
        assert_close(s.objective_value(), 12.0);
    }

    #[test]
    fn integer_general_bounds() {
        // max x + y, x,y ∈ Z, 2x + 3y <= 12, x <= 4, y <= 3 -> x=4,y=1 => 5
        let mut m = Model::new("int");
        let x = m.integer("x", 0.0, 4.0).unwrap();
        let y = m.integer("y", 0.0, 3.0).unwrap();
        m.add_le("c", LinExpr::term(x, 2.0) + LinExpr::term(y, 3.0), 12.0);
        m.set_objective(Objective::Maximize, LinExpr::from(x) + LinExpr::from(y));
        let s = m.solve().unwrap();
        assert_close(s.objective_value(), 5.0);
    }

    #[test]
    fn warm_start_used_as_incumbent() {
        let mut m = Model::new("ws");
        let a = m.binary("a");
        let b = m.binary("b");
        m.add_le("c", LinExpr::from(a) + b, 1.0);
        m.set_objective(Objective::Maximize, LinExpr::from(a) + LinExpr::term(b, 2.0));
        m.set_warm_start(vec![1.0, 0.0]).unwrap();
        let s = m.solve().unwrap();
        // Warm start obj 1 must be beaten by true optimum 2.
        assert_close(s.objective_value(), 2.0);
        assert_eq!(s.int_value(b), 1);
    }

    #[test]
    fn node_limit_reports_feasible_or_unknown() {
        let mut m = Model::new("lim");
        let mut obj = LinExpr::new();
        let mut row = LinExpr::new();
        for i in 0..12 {
            let x = m.binary(format!("x{i}"));
            obj.add_term(x, 1.0 + (i as f64) * 0.1);
            row.add_term(x, 2.0 + (i as f64) * 0.3);
        }
        m.add_le("cap", row, 9.5);
        m.set_objective(Objective::Maximize, obj);
        let opts = SolverOptions::default().node_limit(1);
        let s = m.solve_with(&opts).unwrap();
        assert!(matches!(
            s.status(),
            SolveStatus::Feasible | SolveStatus::Unknown | SolveStatus::Optimal
        ));
    }

    #[test]
    fn min_max_epigraph() {
        // Two machines, three jobs of sizes 3,3,2: best makespan is 5
        // ({3,2} vs {3}); the LP bound 4 must be closed by branching.
        let sizes = [3.0, 3.0, 2.0];
        let mut m = Model::new("makespan");
        let z = m.continuous("z", 0.0, 100.0).unwrap();
        let mut load = vec![LinExpr::new(), LinExpr::new()];
        for (i, s) in sizes.iter().enumerate() {
            let a = m.binary(format!("a{i}")); // on machine 0
            load[0].add_term(a, *s);
            // machine 1 gets (1 - a): s - s*a
            load[1].add_term(a, -*s);
            load[1].add_constant(*s);
        }
        for (k, l) in load.into_iter().enumerate() {
            m.add_ge(format!("z{k}"), LinExpr::from(z) - l, 0.0);
        }
        m.set_objective(Objective::Minimize, LinExpr::from(z));
        let s = m.solve().unwrap();
        assert_close(s.objective_value(), 5.0);
    }

    #[test]
    fn maximize_with_constant_offset() {
        let mut m = Model::new("off");
        let x = m.binary("x");
        m.set_objective(Objective::Maximize, LinExpr::term(x, 3.0) + 10.0);
        let s = m.solve().unwrap();
        assert_close(s.objective_value(), 13.0);
    }

    #[test]
    fn branch_rules_agree() {
        // Same small MIP solved under all branch rules must agree.
        let build = || {
            let mut m = Model::new("rules");
            let mut obj = LinExpr::new();
            let mut r1 = LinExpr::new();
            let mut r2 = LinExpr::new();
            let coeffs = [(5.0, 3.0, 2.0), (4.0, 2.0, 3.0), (3.0, 2.0, 2.0), (7.0, 4.0, 5.0)];
            for (i, (v, w1, w2)) in coeffs.iter().enumerate() {
                let x = m.binary(format!("x{i}"));
                obj.add_term(x, *v);
                r1.add_term(x, *w1);
                r2.add_term(x, *w2);
            }
            m.add_le("r1", r1, 6.0);
            m.add_le("r2", r2, 7.0);
            m.set_objective(Objective::Maximize, obj);
            m
        };
        let mut objs = vec![];
        for rule in [BranchRule::MostFractional, BranchRule::Reliability] {
            for order in [NodeOrder::DepthFirst, NodeOrder::BestBound] {
                let opts = SolverOptions::default().branch_rule(rule).node_order(order);
                let s = build().solve_with(&opts).unwrap();
                assert_eq!(s.status(), SolveStatus::Optimal);
                objs.push(s.objective_value());
            }
        }
        for o in &objs {
            assert_close(*o, objs[0]);
        }
    }

    #[test]
    fn branch_priority_still_optimal() {
        let mut m = Model::new("prio");
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.set_branch_priority(c, 100);
        m.set_branch_priority(a, -5);
        m.add_le("r", LinExpr::term(a, 2.0) + LinExpr::term(b, 3.0) + LinExpr::term(c, 4.0), 5.0);
        m.set_objective(
            Objective::Maximize,
            LinExpr::term(a, 2.0) + LinExpr::term(b, 3.0) + LinExpr::term(c, 3.5),
        );
        let s = m.solve().unwrap();
        // Feasible sets: {a,b} weight 5 → 5.0; {c} → 3.5; {b} → 3.0.
        assert_close(s.objective_value(), 5.0);
    }

    #[test]
    fn empty_model_is_optimal() {
        let m = Model::new("empty");
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Optimal);
        assert_eq!(s.objective_value(), 0.0);
    }

    #[test]
    fn constant_infeasible_row() {
        let mut m = Model::new("constrow");
        m.add_ge("impossible", LinExpr::constant_term(0.0), 1.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), SolveStatus::Infeasible);
    }

    #[test]
    fn nan_rejected() {
        let mut m = Model::new("nan");
        let x = m.binary("x");
        m.add_le("bad", LinExpr::term(x, f64::NAN), 1.0);
        assert!(matches!(m.solve(), Err(MilpError::NotANumber { .. })));
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 with x in [-10, 10]
        let mut m = Model::new("neg");
        let x = m.continuous("x", -10.0, 10.0).unwrap();
        m.add_ge("lo", LinExpr::from(x), -5.0);
        m.set_objective(Objective::Minimize, LinExpr::from(x));
        let s = m.solve().unwrap();
        assert_close(s.objective_value(), -5.0);
    }

    #[test]
    fn degenerate_equalities_chain() {
        // A chain of equalities forcing all vars equal; stresses pivoting.
        let mut m = Model::new("chain");
        let n = 15;
        let xs: Vec<_> =
            (0..n).map(|i| m.continuous(format!("x{i}"), 0.0, 10.0).unwrap()).collect();
        for w in xs.windows(2) {
            m.add_eq("link", LinExpr::from(w[0]) - w[1], 0.0);
        }
        m.add_ge("anchor", LinExpr::from(xs[0]), 2.5);
        let mut obj = LinExpr::new();
        for &x in &xs {
            obj.add_term(x, 1.0);
        }
        m.set_objective(Objective::Minimize, obj);
        let s = m.solve().unwrap();
        assert_close(s.objective_value(), 2.5 * n as f64);
    }
}
