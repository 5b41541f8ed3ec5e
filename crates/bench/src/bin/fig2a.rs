//! Fig. 2(a): energy and feasibility under multi-path vs single-path
//! routing, as the horizon factor `α` grows.
//!
//! Paper setup: N = 16, M = 20, L = 6, Gurobi. Our exact arm substitutes the
//! in-workspace branch-and-bound, so the sweep runs at N = 4, M = 5 (see
//! EXPERIMENTS.md); the *shape* under test is (i) feasibility rises with
//! `α`, (ii) multi-path is at least as feasible as single-path, and
//! (iii) multi-path energy ≤ single-path energy.
//!
//! Runs on the batch engine: per seed, the single-path member is linked
//! into the multi-path member so its solution seeds the larger search the
//! moment it lands (`ndp_bench::figs::fig2a`). The whole-family sweep
//! lives in `batch_sweep`.

use ndp_bench::figs::{fig2a, ExperimentContext};

fn main() {
    fig2a(&ExperimentContext::new());
}
