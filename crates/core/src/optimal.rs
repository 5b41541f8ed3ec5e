//! Exact solution of the deployment MILP.
//!
//! This is the paper's "Optimal" arm: problem (10) linearized by
//! [`build_milp`](crate::formulation::build_milp) and handed to the
//! `ndp-milp` branch-and-bound (substituting for Gurobi; see DESIGN.md).
//! The 3-phase heuristic can seed the search as a MIP warm start, which is
//! the standard way to make exact solvers practical on these models.

use crate::error::Result;
use crate::formulation::{DeployObjective, MilpEncoding, PathMode};
use crate::heuristic::heuristic_deployment;
use crate::problem::ProblemInstance;
use crate::solution::Deployment;
use crate::validate::is_valid;
use ndp_milp::{ObserverHandle, SolveStats, SolveStatus, SolverOptions};

/// Configuration of an exact solve.
#[derive(Debug, Clone)]
pub struct OptimalConfig {
    /// Routing flexibility.
    pub path_mode: PathMode,
    /// BE or ME objective.
    pub objective: DeployObjective,
    /// Seed branch and bound with the heuristic solution when it is
    /// feasible (default: true).
    pub warm_start_with_heuristic: bool,
    /// An additional caller-provided warm start (e.g. the single-path
    /// optimum when solving the multi-path model). The better of this and
    /// the heuristic seed is used.
    pub warm_start_deployment: Option<Deployment>,
    /// Options forwarded to the MILP solver (default:
    /// [`SolverOptions::default()`]). Its reliability branching pays for
    /// itself on deployment MILPs, whose early duplication/allocation
    /// choices dominate the tree shape.
    pub solver: SolverOptions,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        OptimalConfig {
            path_mode: PathMode::Multi,
            objective: DeployObjective::BalanceEnergy,
            warm_start_with_heuristic: true,
            warm_start_deployment: None,
            solver: SolverOptions::default(),
        }
    }
}

/// Outcome of an exact solve.
#[derive(Debug, Clone)]
pub struct OptimalOutcome {
    /// The extracted deployment, when one exists.
    pub deployment: Option<Deployment>,
    /// Raw solver status.
    pub status: SolveStatus,
    /// Objective value (mJ) when a deployment exists.
    pub objective_mj: Option<f64>,
    /// Proven bound on the optimum (mJ).
    pub best_bound_mj: f64,
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Nodes processed by each solver worker thread (one entry under
    /// `threads = 1`, empty when presolve answers without a search).
    pub nodes_per_thread: Vec<u64>,
    /// Wall-clock seconds spent in the solver.
    pub solve_seconds: f64,
    /// Per-phase time attribution and work counters of the solve.
    pub stats: SolveStats,
}

impl OptimalOutcome {
    /// Whether a (not necessarily proven-optimal) deployment was found.
    pub fn is_feasible(&self) -> bool {
        self.deployment.is_some()
    }
}

/// Picks the best valid warm-start candidate under `objective` (shared by
/// the legacy one-shot path and [`DeploymentSession`](crate::DeploymentSession)).
pub(crate) fn best_warm_candidate(
    problem: &ProblemInstance,
    objective: DeployObjective,
    candidates: Vec<Deployment>,
) -> Option<Deployment> {
    let score = |d: &Deployment| match objective {
        DeployObjective::BalanceEnergy => d.energy_report(problem).max_mj(),
        DeployObjective::MinimizeTotalEnergy => d.energy_report(problem).total_mj(),
    };
    candidates
        .into_iter()
        .filter(|d| is_valid(problem, d))
        .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite energies"))
}

/// Solves the deployment problem exactly.
///
/// Deprecated spelling of a one-shot
/// [`DeploymentSession::solve`](crate::DeploymentSession::solve). This shim
/// keeps the historical single-solve pipeline (including presolve);
/// sessions trade presolve for the ability to re-solve incrementally after
/// scenario events.
///
/// # Errors
///
/// Propagates [`DeployError::Solver`](crate::DeployError::Solver) on
/// numerical failure; infeasibility is reported through
/// [`OptimalOutcome::status`].
#[deprecated(since = "0.2.0", note = "use `DeploymentSession` (builder + solve/resolve)")]
pub fn solve_optimal(problem: &ProblemInstance, config: &OptimalConfig) -> Result<OptimalOutcome> {
    let mut encoding = MilpEncoding::build(problem, config.path_mode, config.objective)?;
    // Collect warm-start candidates and keep the best objective.
    let mut candidates: Vec<Deployment> = Vec::new();
    if config.warm_start_with_heuristic {
        if let Ok(h) = heuristic_deployment(problem, &ObserverHandle::none()) {
            candidates.push(h);
        }
    }
    if let Some(d) = &config.warm_start_deployment {
        candidates.push(d.clone());
    }
    if let Some(d) = best_warm_candidate(problem, config.objective, candidates) {
        let vals = encoding.warm_start_values(problem, &d);
        encoding.model.set_warm_start(vals)?;
    }
    // Offer the mesh automorphisms as symmetry candidates unless the caller
    // supplied their own; the solver verifies them against the coefficients.
    let mut solver = config.solver.clone();
    if solver.symmetry_candidates.is_empty() {
        solver = solver.symmetry_candidates(encoding.symmetry_candidates(problem));
    }
    let sol = encoding.model.solve_with(&solver)?;
    // `has_incumbent` (not `has_solution`) so a cancelled solve still hands
    // back the best deployment it found.
    let deployment = if sol.has_incumbent() { Some(encoding.extract(problem, &sol)) } else { None };
    let objective_mj = deployment.as_ref().map(|_| sol.objective_value());
    Ok(OptimalOutcome {
        deployment,
        status: sol.status(),
        objective_mj,
        best_bound_mj: sol.best_bound(),
        nodes: sol.node_count(),
        nodes_per_thread: sol.nodes_per_thread().to_vec(),
        solve_seconds: sol.solve_seconds(),
        stats: *sol.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DeploymentSession;
    use crate::validate::validate;
    use ndp_milp::SolveStatus;
    use ndp_noc::{Mesh2D, NocParams, PathKind, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{generate, GeneratorConfig, GraphShape};

    fn small_instance(m: usize, seed: u64, alpha: f64) -> ProblemInstance {
        let mut cfg = GeneratorConfig::typical(m);
        cfg.shape = GraphShape::Chain;
        let g = generate(&cfg, seed).unwrap();
        ProblemInstance::from_original(
            &g,
            Platform::homogeneous(4).unwrap(),
            WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), seed).unwrap(),
            0.95,
            alpha,
        )
        .unwrap()
    }

    fn quick_solver() -> SolverOptions {
        SolverOptions::default().time_limit(20.0)
    }

    /// One solver: the exact arm runs the library's default options.
    #[test]
    fn the_exact_arm_runs_the_default_solver() {
        assert_eq!(OptimalConfig::default().solver, SolverOptions::default());
    }

    #[test]
    fn optimal_solution_is_valid() {
        let p = small_instance(3, 1, 3.0);
        let mut s = DeploymentSession::builder(p.clone()).solver(quick_solver()).build();
        let out = s.solve().unwrap();
        assert!(out.is_feasible(), "status {:?}", out.status);
        let d = out.deployment.unwrap();
        let v = validate(&p, &d);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn optimal_beats_or_matches_heuristic() {
        let p = small_instance(3, 2, 3.0);
        let mut s = DeploymentSession::builder(p.clone()).solver(quick_solver()).build();
        let h = s.heuristic().unwrap();
        let h_obj = h.energy_report(&p).max_mj();
        let out = s.solve().unwrap();
        if out.status == SolveStatus::Optimal {
            let o_obj = out.objective_mj.unwrap();
            assert!(o_obj <= h_obj + 1e-6, "optimal {o_obj} must not exceed heuristic {h_obj}");
        }
    }

    #[test]
    fn single_path_never_beats_multi_path() {
        let p = small_instance(3, 3, 3.0);
        let multi =
            DeploymentSession::builder(p.clone()).solver(quick_solver()).build().solve().unwrap();
        let single = DeploymentSession::builder(p)
            .path_mode(PathMode::SingleFixed(PathKind::EnergyOriented))
            .solver(quick_solver())
            .build()
            .solve()
            .unwrap();
        if multi.status == SolveStatus::Optimal && single.status == SolveStatus::Optimal {
            assert!(multi.objective_mj.unwrap() <= single.objective_mj.unwrap() + 1e-6);
        }
    }

    #[test]
    fn infeasible_under_impossible_horizon() {
        let p = small_instance(3, 4, 3.0).with_horizon(1e-4);
        let mut s = DeploymentSession::builder(p)
            .warm_start_with_heuristic(false)
            .solver(quick_solver())
            .build();
        let out = s.solve().unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(!out.is_feasible());
    }

    /// The deprecated one-shot shim must keep solving (with presolve) and
    /// agree with the session route on a solved-to-optimality instance.
    #[test]
    #[allow(deprecated)]
    fn deprecated_shim_agrees_with_session() {
        let p = small_instance(3, 5, 3.0);
        let cfg = OptimalConfig { solver: quick_solver(), ..OptimalConfig::default() };
        let legacy = solve_optimal(&p, &cfg).unwrap();
        let session = DeploymentSession::builder(p).solver(quick_solver()).build().solve().unwrap();
        if legacy.status == SolveStatus::Optimal && session.status == SolveStatus::Optimal {
            let (a, b) = (legacy.objective_mj.unwrap(), session.objective_mj.unwrap());
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "legacy {a} vs session {b}");
        }
    }
}
