//! Batch-engine figure drivers.
//!
//! Each `fig2x` function reproduces the table of the binary of the same
//! name, but schedules its exact solves through an
//! [`ndp_core::BatchSession`] instead of one `DeploymentSession` per
//! call. All functions share one [`ExperimentContext`]: a process-wide
//! [`SolveCache`] plus an instance memo, so a `(problem, config)` member
//! that several figures have in common — e.g. the `M ∈ {3..6}` BE grid
//! of fig 2(d)/(e)/(f)/(g), or fig 2(b)'s `factor = 1.0` column — is
//! solved once and replayed verbatim everywhere else. `batch_sweep` runs
//! the whole family in one process on one context; the standalone
//! binaries each create a fresh context, which degrades gracefully to
//! per-figure sharing.
//!
//! Printed tables are identical to the pre-batch binaries: the members
//! run the same presolve-free session pipeline with the same budgets in
//! the same member order, and timing columns report solver seconds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::{
    exact_solver_options, heuristic_point, mean_finite, reduce_batch, ExactPoint, InstanceSpec,
};
use ndp_core::{
    communication_computation_ratio, duplicated_count, energy_gap_index, feasibility_ratio,
    max_tasks_per_processor, BatchSession, DeployObjective, OptimalConfig, PathMode,
    ProblemInstance, SolveCache,
};
use ndp_noc::{NocParams, PathKind};
use ndp_platform::ReliabilityParams;

/// Shared artifacts for a family of figure runs: the exact-solve memo
/// cache and an instance memo keyed by the full [`InstanceSpec`].
///
/// One context per process is the intended shape (`batch_sweep`); the
/// per-figure binaries create their own, which still shares within the
/// figure.
#[derive(Default)]
pub struct ExperimentContext {
    cache: SolveCache,
    instances: Mutex<HashMap<String, Arc<ProblemInstance>>>,
}

impl ExperimentContext {
    /// A fresh context with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact-solve memo shared by every batch created from this
    /// context.
    pub fn cache(&self) -> &SolveCache {
        &self.cache
    }

    /// The (memoized) problem instance for `spec`. Two calls with an
    /// identical spec return the same `Arc`, so batches also share the
    /// per-instance heuristic run.
    pub fn instance(&self, spec: &InstanceSpec) -> Arc<ProblemInstance> {
        let key = format!("{spec:?}");
        let mut map = self.instances.lock().expect("instance memo poisoned");
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(spec.build())))
    }

    /// An empty [`BatchSession`] memoizing into this context's cache.
    pub fn batch(&self) -> BatchSession {
        BatchSession::with_cache(self.cache.clone())
    }
}

/// The default exact-arm member config of the figure sweeps.
fn exact_cfg() -> OptimalConfig {
    OptimalConfig { solver: exact_solver_options(), ..OptimalConfig::default() }
}

/// Fig. 2(a): multi-path vs single-path energy/feasibility vs `α`. The
/// single-path member is linked into the multi-path member, so the
/// single-path deployment seeds the multi-path search the moment it lands
/// (as a warm start before the multi solve enters the tree, through its
/// incumbent feed afterwards). Single-path members enter the context's
/// cache; their multi-path targets solve with a live feed and bypass it.
pub fn fig2a(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..6).collect();
    let alphas = [0.25, 0.5, 1.0, 1.5, 2.0];
    println!("# Fig 2(a): multi-path vs single-path (exact solver, N=4, M=5, L=4)");
    println!(
        "{:>6} {:>12} {:>14} {:>13} {:>15}",
        "alpha", "multi_feas", "multi_mJ", "single_feas", "single_mJ"
    );
    for &alpha in &alphas {
        let mut batch = ctx.batch();
        // All single-path members first: on the work-stealing pool they
        // are claimed (and mostly finished) before their multi-path
        // targets start, mirroring the serial solve-single-then-multi
        // order while never blocking a free worker on a barrier.
        let singles: Vec<usize> = seeds
            .iter()
            .map(|&seed| {
                let problem = ctx.instance(&InstanceSpec::new(5, 2, alpha, seed));
                batch.add(
                    problem,
                    OptimalConfig {
                        path_mode: PathMode::SingleFixed(PathKind::EnergyOriented),
                        ..exact_cfg()
                    },
                )
            })
            .collect();
        let pairs: Vec<(usize, usize)> = seeds
            .iter()
            .zip(&singles)
            .map(|(&seed, &single)| {
                let problem = ctx.instance(&InstanceSpec::new(5, 2, alpha, seed));
                let multi = batch.add(problem, exact_cfg());
                batch.link_incumbents(single, multi);
                (multi, single)
            })
            .collect();
        let results = batch.solve_all();
        let rows: Vec<(ExactPoint, ExactPoint)> = pairs
            .iter()
            .map(|&(m, s)| (reduce_batch(&results[m]), reduce_batch(&results[s])))
            .collect();
        let multi_feas = rows.iter().filter(|(m, _)| m.feasible).count() as f64 / rows.len() as f64;
        let single_feas =
            rows.iter().filter(|(_, s)| s.feasible).count() as f64 / rows.len() as f64;
        let both: Vec<&(ExactPoint, ExactPoint)> =
            rows.iter().filter(|(m, s)| m.feasible && s.feasible).collect();
        let multi_mj = mean_finite(&both.iter().map(|(m, _)| m.objective_mj).collect::<Vec<_>>());
        let single_mj = mean_finite(&both.iter().map(|(_, s)| s.objective_mj).collect::<Vec<_>>());
        println!(
            "{alpha:>6.2} {multi_feas:>12.2} {multi_mj:>14.4} {single_feas:>13.2} {single_mj:>15.4}"
        );
    }
}

/// Fig. 2(b): `M_max` vs the communication/computation energy ratio `μ`.
pub fn fig2b(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..5).collect();
    let factors = [0.2, 0.5, 1.0, 2.0, 5.0, 10.0];
    println!("# Fig 2(b): M_max vs mu (exact solver, N=4, M=6, L=4)");
    println!("{:>8} {:>10} {:>8} {:>10}", "factor", "mu", "M_max", "feasible");
    for &factor in &factors {
        let mut batch = ctx.batch();
        let members: Vec<(Arc<ProblemInstance>, f64)> = seeds
            .iter()
            .map(|&seed| {
                let mut spec = InstanceSpec::new(6, 2, 2.0, seed);
                spec.noc = NocParams::typical().scale_energy(factor);
                let problem = ctx.instance(&spec);
                let mu = communication_computation_ratio(&problem);
                batch.add(Arc::clone(&problem), exact_cfg());
                (problem, mu)
            })
            .collect();
        let results = batch.solve_all();
        let rows: Vec<(f64, Option<usize>)> = members
            .iter()
            .zip(&results)
            .map(|((problem, mu), r)| {
                let m_max = r
                    .as_ref()
                    .ok()
                    .and_then(|o| o.outcome.deployment.as_ref())
                    .map(|d| max_tasks_per_processor(problem, d));
                (*mu, m_max)
            })
            .collect();
        let mu = rows.iter().map(|(mu, _)| *mu).sum::<f64>() / rows.len() as f64;
        let solved: Vec<usize> = rows.iter().filter_map(|(_, m)| *m).collect();
        let m_max = if solved.is_empty() {
            f64::NAN
        } else {
            solved.iter().sum::<usize>() as f64 / solved.len() as f64
        };
        let feas = rows.iter().filter(|(_, m)| m.is_some()).count() as f64 / rows.len() as f64;
        println!("{factor:>8.1} {mu:>10.3} {m_max:>8.2} {feas:>10.2}");
    }
}

/// Fig. 2(c): duplicated tasks `M_d` vs the V/F energy-gap index `ε`.
pub fn fig2c(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..5).collect();
    let v_spans = [0.05, 0.15, 0.25, 0.40, 0.55];
    println!("# Fig 2(c): M_d vs epsilon (exact solver, N=4, M=6, L=4)");
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>10}",
        "v_span", "epsilon", "M_d_BE", "M_d_ME", "feasible"
    );
    for &span in &v_spans {
        let mut batch = ctx.batch();
        let members: Vec<(Arc<ProblemInstance>, f64, usize, usize)> = seeds
            .iter()
            .map(|&seed| {
                let mut spec = InstanceSpec::new(6, 2, 2.5, seed);
                spec.v_range = (0.85, 0.85 + span);
                spec.power.lg = 4.0e4;
                spec.reliability = ReliabilityParams { lambda_max_freq: 2e-5, sensitivity: 3.0 };
                spec.reliability_threshold = 0.9995;
                let problem = ctx.instance(&spec);
                let eps = energy_gap_index(&problem);
                let be = batch.add(Arc::clone(&problem), exact_cfg());
                let me = batch.add(
                    Arc::clone(&problem),
                    OptimalConfig {
                        objective: DeployObjective::MinimizeTotalEnergy,
                        ..exact_cfg()
                    },
                );
                (problem, eps, be, me)
            })
            .collect();
        let results = batch.solve_all();
        let dup = |problem: &ProblemInstance, idx: usize| {
            results[idx]
                .as_ref()
                .ok()
                .and_then(|o| o.outcome.deployment.as_ref())
                .map(|d| duplicated_count(problem, d))
        };
        let rows: Vec<(f64, Option<usize>, Option<usize>)> = members
            .iter()
            .map(|(problem, eps, be, me)| (*eps, dup(problem, *be), dup(problem, *me)))
            .collect();
        let eps = rows.iter().map(|(e, _, _)| *e).sum::<f64>() / rows.len() as f64;
        let avg = |xs: Vec<usize>| {
            if xs.is_empty() {
                f64::NAN
            } else {
                xs.iter().sum::<usize>() as f64 / xs.len() as f64
            }
        };
        let m_d_be = avg(rows.iter().filter_map(|(_, b, _)| *b).collect());
        let m_d_me = avg(rows.iter().filter_map(|(_, _, m)| *m).collect());
        let feas = rows.iter().filter(|(_, b, _)| b.is_some()).count() as f64 / rows.len() as f64;
        println!("{span:>8.2} {eps:>10.3} {m_d_be:>8.2} {m_d_me:>8.2} {feas:>10.2}");
    }
}

/// Fig. 2(d): total system energy, BE vs ME objectives.
pub fn fig2d(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..5).collect();
    let task_counts = [3usize, 4, 5, 6];
    println!("# Fig 2(d): total energy, BE vs ME (exact solver, N=4, L=4)");
    println!("{:>4} {:>12} {:>12} {:>10}", "M", "BE_total_mJ", "ME_total_mJ", "ME_saving");
    for &m in &task_counts {
        let results = be_me_grid(ctx, m, &seeds);
        let rows: Vec<(f64, f64)> = results
            .iter()
            .map(|(problem, be, me)| {
                let be_total = be
                    .as_ref()
                    .and_then(|o| o.outcome.deployment.as_ref())
                    .map(|d| d.energy_report(problem).total_mj())
                    .unwrap_or(f64::NAN);
                let me_mj = me.as_ref().and_then(|o| o.outcome.objective_mj).unwrap_or(f64::NAN);
                (be_total, me_mj)
            })
            .collect();
        let be = mean_finite(&rows.iter().map(|(b, _)| *b).collect::<Vec<_>>());
        let me = mean_finite(&rows.iter().map(|(_, m)| *m).collect::<Vec<_>>());
        let saving = (1.0 - me / be) * 100.0;
        println!("{m:>4} {be:>12.4} {me:>12.4} {saving:>9.2}%");
    }
}

/// Fig. 2(e): energy-balance index `φ`, BE vs ME objectives.
pub fn fig2e(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..5).collect();
    let task_counts = [3usize, 4, 5, 6];
    println!("# Fig 2(e): balance index phi, BE vs ME (exact solver, N=4, L=4)");
    println!("{:>4} {:>10} {:>10}", "M", "BE_phi", "ME_phi");
    for &m in &task_counts {
        let results = be_me_grid(ctx, m, &seeds);
        let phi = |problem: &ProblemInstance, out: &Option<ndp_core::BatchOutcome>| {
            out.as_ref()
                .and_then(|o| o.outcome.deployment.as_ref())
                .map(|d| d.energy_report(problem).balance_index())
                .unwrap_or(f64::NAN)
        };
        let rows: Vec<(f64, f64)> =
            results.iter().map(|(p, be, me)| (phi(p, be), phi(p, me))).collect();
        let be = mean_finite(&rows.iter().map(|(b, _)| *b).collect::<Vec<_>>());
        let me = mean_finite(&rows.iter().map(|(_, m)| *m).collect::<Vec<_>>());
        println!("{m:>4} {be:>10.3} {me:>10.3}");
    }
}

/// The shared BE + ME member grid of figs 2(d)/(e): one batch of
/// `2 × seeds` members at task count `m`. Returns per-seed
/// `(problem, BE, ME)`; a failed member surfaces as `None`, matching
/// the serial `.ok()` handling.
#[allow(clippy::type_complexity)]
fn be_me_grid(
    ctx: &ExperimentContext,
    m: usize,
    seeds: &[u64],
) -> Vec<(Arc<ProblemInstance>, Option<ndp_core::BatchOutcome>, Option<ndp_core::BatchOutcome>)> {
    let mut batch = ctx.batch();
    let members: Vec<(Arc<ProblemInstance>, usize, usize)> = seeds
        .iter()
        .map(|&seed| {
            let problem = ctx.instance(&InstanceSpec::new(m, 2, 2.0, seed));
            let be = batch.add(Arc::clone(&problem), exact_cfg());
            let me = batch.add(
                Arc::clone(&problem),
                OptimalConfig { objective: DeployObjective::MinimizeTotalEnergy, ..exact_cfg() },
            );
            (problem, be, me)
        })
        .collect();
    let results = batch.solve_all();
    members
        .into_iter()
        .map(|(problem, be, me)| {
            let take = |i: usize| results[i].as_ref().ok().cloned();
            (problem, take(be), take(me))
        })
        .collect()
}

/// Fig. 2(f): solver wall time vs `M` — optimal vs heuristic.
pub fn fig2f(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..5).collect();
    println!("# Fig 2(f): wall time vs M");
    println!("## exact arm (N=4, L=4, 6 s budget per solve)");
    println!(
        "{:>4} {:>12} {:>10} {:>10} {:>12}",
        "M", "optimal_s", "nodes", "proven", "heuristic_s"
    );
    for m in [3usize, 4, 5, 6] {
        let (problems, exact) = be_grid(ctx, m, &seeds);
        let rows: Vec<(ExactPoint, f64)> = problems
            .iter()
            .zip(&exact)
            .map(|(problem, point)| (*point, heuristic_point(problem).seconds))
            .collect();
        let opt_s = mean_finite(&rows.iter().map(|(e, _)| e.seconds).collect::<Vec<_>>());
        let nodes = rows.iter().map(|(e, _)| e.nodes).sum::<u64>() / rows.len() as u64;
        let proven = rows.iter().filter(|(e, _)| e.proven).count();
        let heu_s = mean_finite(&rows.iter().map(|(_, h)| *h).collect::<Vec<_>>());
        println!("{m:>4} {opt_s:>12.3} {nodes:>10} {:>7}/{:<2} {heu_s:>12.6}", proven, rows.len());
    }
    println!("## heuristic arm at paper sizes (N=16, L=6)");
    println!("{:>4} {:>14} {:>10}", "M", "heuristic_s", "feasible");
    for m in [10usize, 20, 50, 100] {
        let rows = crate::per_seed(&seeds, move |seed| {
            let mut spec = InstanceSpec::new(m, 4, 3.0, seed);
            spec.levels = 6;
            let problem = spec.build();
            heuristic_point(&problem)
        });
        let heu_s = mean_finite(&rows.iter().map(|h| h.seconds).collect::<Vec<_>>());
        let feas = rows.iter().filter(|h| h.feasible()).count() as f64 / rows.len() as f64;
        println!("{m:>4} {heu_s:>14.6} {feas:>10.2}");
    }
}

/// Fig. 2(g): deployment energy vs `M` — heuristic vs optimal.
pub fn fig2g(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..5).collect();
    println!("# Fig 2(g): heuristic vs optimal energy (N=4, L=4)");
    println!(
        "{:>4} {:>12} {:>14} {:>10} {:>8}",
        "M", "optimal_mJ", "heuristic_mJ", "overhead", "pairs"
    );
    let mut overall: Vec<f64> = Vec::new();
    for m in [3usize, 4, 5, 6] {
        let (problems, exact) = be_grid(ctx, m, &seeds);
        let rows: Vec<(ExactPoint, Option<f64>)> = problems
            .iter()
            .zip(&exact)
            .map(|(problem, point)| {
                let h_mj =
                    heuristic_point(problem).deployment.map(|d| d.energy_report(problem).max_mj());
                (*point, h_mj)
            })
            .collect();
        let pairs: Vec<(f64, f64, bool)> = rows
            .iter()
            .filter(|(e, h)| e.feasible && h.is_some())
            .map(|(e, h)| (e.objective_mj, h.expect("filtered"), e.proven || e.gap <= 0.02))
            .collect();
        let o = mean_finite(&pairs.iter().map(|(o, _, _)| *o).collect::<Vec<_>>());
        let h = mean_finite(&pairs.iter().map(|(_, h, _)| *h).collect::<Vec<_>>());
        let overhead = (h / o - 1.0) * 100.0;
        for (o, h, _) in &pairs {
            overall.push((h / o - 1.0) * 100.0);
        }
        let proven = pairs.iter().filter(|(_, _, p)| *p).count();
        println!("{m:>4} {o:>12.4} {h:>14.4} {overhead:>9.2}% {:>5}({proven} proven)", pairs.len());
    }
    println!(
        "\naverage heuristic overhead (lower bound) over {} instances: {:+.2}% (paper: +26.05%)",
        overall.len(),
        mean_finite(&overall)
    );
}

/// The shared BE member grid of figs 2(f)/(g): one batch of one default
/// BE member per seed at task count `m`.
fn be_grid(
    ctx: &ExperimentContext,
    m: usize,
    seeds: &[u64],
) -> (Vec<Arc<ProblemInstance>>, Vec<ExactPoint>) {
    let mut batch = ctx.batch();
    let problems: Vec<Arc<ProblemInstance>> = seeds
        .iter()
        .map(|&seed| {
            let problem = ctx.instance(&InstanceSpec::new(m, 2, 2.0, seed));
            batch.add(Arc::clone(&problem), exact_cfg());
            problem
        })
        .collect();
    let points = batch.solve_all().iter().map(reduce_batch).collect();
    (problems, points)
}

/// Fig. 2(h): feasibility ratio `δ` vs `α`, optimal vs heuristic.
pub fn fig2h(ctx: &ExperimentContext) {
    let seeds: Vec<u64> = (0..20).collect();
    let alphas = [0.25, 0.5, 1.0, 1.5, 2.0];
    println!("# Fig 2(h): feasibility ratio delta vs alpha (N=4, M=5, L=4, 20 graphs)");
    println!("{:>6} {:>14} {:>16}", "alpha", "optimal_delta", "heuristic_delta");
    for &alpha in &alphas {
        let mut batch = ctx.batch();
        let problems: Vec<Arc<ProblemInstance>> = seeds
            .iter()
            .map(|&seed| {
                let problem = ctx.instance(&InstanceSpec::new(5, 2, alpha, seed));
                batch.add(Arc::clone(&problem), exact_cfg());
                problem
            })
            .collect();
        let results = batch.solve_all();
        let rows: Vec<(bool, bool)> = problems
            .iter()
            .zip(&results)
            .map(|(problem, r)| (reduce_batch(r).feasible, heuristic_point(problem).feasible()))
            .collect();
        let opt = feasibility_ratio(&rows.iter().map(|(o, _)| *o).collect::<Vec<_>>());
        let heu = feasibility_ratio(&rows.iter().map(|(_, h)| *h).collect::<Vec<_>>());
        println!("{alpha:>6.2} {opt:>14.2} {heu:>16.2}");
    }
}
