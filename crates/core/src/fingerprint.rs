//! Canonical deployment-instance fingerprints for solution caching.
//!
//! A long-running solve service sees the same deployment request many
//! times (periodic re-deployments, retries, identical tenants). The
//! fingerprint maps a request — problem instance plus the
//! answer-relevant solve configuration — to a 64-bit key: equal keys mean
//! the same mathematical program solved to the same tolerances, so a
//! cached outcome can be replayed without re-running branch and bound.
//!
//! The hash goes through the *built MILP* ([`Model::fingerprint`]), not
//! the raw request: two requests that linearize to the identical program
//! (same task graph after duplication, same platform and NoC tensors,
//! same path mode and objective) share a key even if their surface specs
//! differ. Solver knobs that change only *how* the optimum is found
//! (threads, branching rule, pricing, warm starts, cut configuration,
//! time or node limits) are excluded; tolerances and gaps that change
//! *what* counts as an answer are included.

use crate::error::Result;
use crate::formulation::MilpEncoding;
use crate::optimal::OptimalConfig;
use crate::problem::ProblemInstance;
use ndp_milp::fingerprint::Fnv64;
use ndp_milp::{Model, SolverOptions};

/// Canonical cache key of one exact-solve request.
///
/// Builds the MILP for `problem` under `config` and combines the model's
/// canonical fingerprint with the answer-relevant solver tolerances
/// (integrality and feasibility tolerances, relative and absolute gaps,
/// and the working infinite bound, which participates in bound clamping).
///
/// # Errors
///
/// Propagates formulation failures from [`MilpEncoding::build`].
pub fn instance_fingerprint(problem: &ProblemInstance, config: &OptimalConfig) -> Result<u64> {
    let encoding = MilpEncoding::build(problem, config.path_mode, config.objective)?;
    Ok(model_fingerprint(&encoding.model, &config.solver))
}

/// Cache key of an already-built (possibly delta-mutated) model under
/// `solver`'s answer tolerances.
///
/// This is the primitive behind [`instance_fingerprint`]; online
/// re-deployment uses it directly so that a model mutated by scenario
/// events gets a key reflecting its *current* rows and bounds — hashing
/// the unmutated problem instance would replay stale cached outcomes.
pub fn model_fingerprint(model: &Model, solver: &SolverOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(model.fingerprint());
    h.write_f64(solver.integrality_tol);
    h.write_f64(solver.feasibility_tol);
    h.write_f64(solver.relative_gap);
    h.write_f64(solver.absolute_gap);
    h.write_f64(solver.infinite_bound);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::{DeployObjective, PathMode};
    use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
    use ndp_platform::{Platform, PowerModel, PowerParams, ReliabilityParams, VfTable};
    use ndp_taskset::{generate, GeneratorConfig};

    fn problem(seed: u64) -> ProblemInstance {
        let graph = generate(&GeneratorConfig::typical(4), seed).unwrap();
        let vf = VfTable::synthetic(3, (0.85, 1.10), (300.0, 1000.0)).unwrap();
        let platform = Platform::new(
            4,
            vf,
            PowerModel::new(PowerParams::bulk_70nm()),
            ReliabilityParams::typical(),
        )
        .unwrap();
        let noc = WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), seed).unwrap();
        ProblemInstance::from_original(&graph, platform, noc, 0.95, 1.4).unwrap()
    }

    #[test]
    fn identical_requests_share_a_fingerprint() {
        let config = OptimalConfig::default();
        let a = instance_fingerprint(&problem(7), &config).unwrap();
        let b = instance_fingerprint(&problem(7), &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_instances_or_objectives_get_different_fingerprints() {
        let config = OptimalConfig::default();
        let base = instance_fingerprint(&problem(7), &config).unwrap();
        let other_seed = instance_fingerprint(&problem(8), &config).unwrap();
        assert_ne!(base, other_seed);

        let me = OptimalConfig {
            objective: DeployObjective::MinimizeTotalEnergy,
            ..OptimalConfig::default()
        };
        let me_fp = instance_fingerprint(&problem(7), &me).unwrap();
        assert_ne!(base, me_fp);

        let single = OptimalConfig {
            path_mode: PathMode::SingleFixed(ndp_noc::PathKind::EnergyOriented),
            ..OptimalConfig::default()
        };
        let single_fp = instance_fingerprint(&problem(7), &single).unwrap();
        assert_ne!(base, single_fp);
    }

    #[test]
    fn search_strategy_knobs_do_not_split_the_cache() {
        let reference = instance_fingerprint(&problem(7), &OptimalConfig::default()).unwrap();
        let mut tweaked = OptimalConfig::default();
        tweaked.solver.threads = 4;
        tweaked.solver.time_limit = 1.5;
        tweaked.solver.node_limit = 10;
        tweaked.solver.cuts = false;
        tweaked.solver.heuristics = false;
        tweaked.warm_start_with_heuristic = false;
        let fp = instance_fingerprint(&problem(7), &tweaked).unwrap();
        assert_eq!(reference, fp, "how-to-search knobs must not change the key");

        let mut gap = OptimalConfig::default();
        gap.solver.relative_gap = 0.25;
        let gap_fp = instance_fingerprint(&problem(7), &gap).unwrap();
        assert_ne!(reference, gap_fp, "answer tolerances must change the key");
    }

    /// The request key is a cache key: a change to the hashing primitive or
    /// to the encoding must show up here, not as a silent key shift.
    #[test]
    fn model_fingerprint_is_pinned_on_a_fixed_model() {
        use ndp_milp::{LinExpr, Objective};
        let mut m = Model::new("pin");
        let mut weight = LinExpr::new();
        let mut value = LinExpr::new();
        for i in 0..5 {
            let x = m.binary(format!("x{i}"));
            weight.add_term(x, 2.0 + i as f64);
            value.add_term(x, 3.0 + i as f64);
        }
        m.add_le("cap", weight, 7.0);
        m.set_objective(Objective::Maximize, value);
        assert_eq!(m.fingerprint(), 406_158_733_299_057_963);
        assert_eq!(model_fingerprint(&m, &SolverOptions::default()), 17_647_812_739_114_175_119);
    }
}
