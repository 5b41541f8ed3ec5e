//! # ndp-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (§IV):
//!
//! | binary  | reproduces | series |
//! |---------|-----------|--------|
//! | `fig2a` | Fig. 2(a) | energy & feasibility: multi-path vs single-path (exact solver) |
//! | `fig2b` | Fig. 2(b) | `M_max` vs `μ` (communication/computation energy ratio) |
//! | `fig2c` | Fig. 2(c) | `M_d` vs `ε` (V/F energy-gap index) |
//! | `fig2d` | Fig. 2(d) | total energy: BE vs ME objectives |
//! | `fig2e` | Fig. 2(e) | balance index `φ`: BE vs ME |
//! | `fig2f` | Fig. 2(f) | solver wall-time vs `M`: optimal vs heuristic |
//! | `fig2g` | Fig. 2(g) | energy vs `M`: heuristic overhead over optimal |
//! | `fig2h` | Fig. 2(h) | feasibility ratio `δ` vs `α`: optimal vs heuristic |
//!
//! The exact arm substitutes the in-workspace `ndp-milp` branch-and-bound
//! for the paper's Gurobi, so the optimal sweeps run at moderated sizes
//! (`N = 4`, `M ≤ 6`) while the heuristic also runs at the paper's sizes
//! (`N = 16`, `M = 20`); see DESIGN.md §2 and EXPERIMENTS.md for the
//! mapping. All instances are seeded and reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figs;

use ndp_core::{
    BatchOutcome, CommTimeModel, Deployment, DeploymentSession, OptimalConfig, OptimalOutcome,
    ProblemInstance,
};
use ndp_milp::{
    BasisKernel, BranchRule, NodeOrder, Observer, Pricing, SolveStats, SolveStatus, SolverEvent,
    SolverOptions,
};
use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
use ndp_platform::{Platform, PowerModel, PowerParams, ReliabilityParams, VfTable};
use ndp_taskset::{generate, GeneratorConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything needed to instantiate one experiment point.
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Original task count `M`.
    pub tasks: usize,
    /// Mesh side (`N = side²`).
    pub mesh_side: usize,
    /// Number of V/F levels `L`.
    pub levels: usize,
    /// Horizon multiplier `α`.
    pub alpha: f64,
    /// Reliability threshold `R_th`.
    pub reliability_threshold: f64,
    /// NoC parameters (energy scaling drives the `μ` sweeps).
    pub noc: NocParams,
    /// Voltage corner pair for the synthetic V/F table (drives `ε`).
    pub v_range: (f64, f64),
    /// Frequency corner pair in MHz.
    pub f_range: (f64, f64),
    /// Fault-model parameters.
    pub reliability: ReliabilityParams,
    /// Power-model parameters (leakage scaling drives the `ε` sweeps).
    pub power: PowerParams,
    /// RNG seed for both the task graph and the NoC link weights.
    pub seed: u64,
}

impl InstanceSpec {
    /// The evaluation defaults at a given size/seed; `L = 4` synthetic V/F
    /// table spanning the 70 nm corner points.
    pub fn new(tasks: usize, mesh_side: usize, alpha: f64, seed: u64) -> Self {
        InstanceSpec {
            tasks,
            mesh_side,
            levels: 4,
            alpha,
            reliability_threshold: 0.95,
            noc: NocParams::typical(),
            v_range: (0.85, 1.10),
            f_range: (300.0, 1000.0),
            reliability: ReliabilityParams::typical(),
            power: PowerParams::bulk_70nm(),
            seed,
        }
    }

    /// Materializes the problem instance.
    ///
    /// # Panics
    ///
    /// Panics on invalid spec fields (experiment code treats these as
    /// programmer errors, not recoverable conditions).
    pub fn build(&self) -> ProblemInstance {
        let cfg = GeneratorConfig::typical(self.tasks);
        let graph = generate(&cfg, self.seed).expect("valid generator config");
        let vf =
            VfTable::synthetic(self.levels, self.v_range, self.f_range).expect("valid V/F corners");
        let platform = Platform::new(
            self.mesh_side * self.mesh_side,
            vf,
            PowerModel::new(self.power),
            self.reliability,
        )
        .expect("valid platform");
        let noc = WeightedNoc::new(
            Mesh2D::square(self.mesh_side).expect("positive side"),
            self.noc,
            self.seed,
        )
        .expect("valid NoC params");
        ProblemInstance::from_original(
            &graph,
            platform,
            noc,
            self.reliability_threshold,
            self.alpha,
        )
        .expect("valid problem")
        .with_comm_time_model(CommTimeModel::PerUnit)
    }
}

/// The observer behind the benches' `--trace` flag: prints presolve, root,
/// incumbent, per-worker and termination events to stderr (so stdout tables
/// stay machine-readable), subsamples node events to every 500th, and drops
/// per-pivot prune/refactorization noise.
pub fn trace_observer() -> Arc<dyn Observer> {
    let nodes_seen = AtomicU64::new(0);
    Arc::new(move |e: &SolverEvent| match e {
        SolverEvent::NodeExplored { .. } => {
            let n = nodes_seen.fetch_add(1, Ordering::Relaxed) + 1;
            if n.is_multiple_of(500) {
                eprintln!("[trace] {e}");
            }
        }
        SolverEvent::NodePruned { .. } | SolverEvent::Refactorized { .. } => {}
        _ => eprintln!("[trace] {e}"),
    })
}

/// Default per-solve budget for the exact arm.
///
/// The figure harness (`fig2*`, `batch_sweep`) branches most-fractional
/// with root cuts on, not on the library default: its figures keep their
/// recorded history until they are regenerated on the product's solver.
pub fn exact_solver_options() -> SolverOptions {
    let mut o =
        SolverOptions::default().time_limit(6.0).branch_rule(BranchRule::MostFractional).cuts(true);
    o.relative_gap = 1e-4;
    // The figure harness already fans out across seeds (`per_seed`); keep
    // each individual solve serial so a sweep doesn't oversubscribe the
    // machine. `solver_threads` is the binary that varies this knob.
    o.threads = 1;
    o
}

/// Outcome of one exact solve, reduced to what the figures need.
#[derive(Debug, Clone, Copy)]
pub struct ExactPoint {
    /// Feasible solution found.
    pub feasible: bool,
    /// Proved optimal (vs. stopped at a limit).
    pub proven: bool,
    /// Objective in mJ when feasible.
    pub objective_mj: f64,
    /// Wall time in seconds.
    pub seconds: f64,
    /// Branch-and-bound nodes.
    pub nodes: u64,
    /// Relative optimality gap of the incumbent (0 when proven optimal,
    /// infinite when infeasible/unknown).
    pub gap: f64,
    /// Per-phase time attribution and work counters of the solve (all
    /// zero when the solver returned an error).
    pub stats: SolveStats,
}

/// Reduces an [`OptimalOutcome`] (or error) to an [`ExactPoint`].
pub fn reduce_outcome(
    outcome: &std::result::Result<OptimalOutcome, ndp_core::DeployError>,
    seconds: f64,
) -> ExactPoint {
    match outcome {
        Ok(out @ OptimalOutcome { deployment: Some(_), status, objective_mj, .. }) => {
            let obj = objective_mj.unwrap_or(f64::NAN);
            let gap = ((obj - out.best_bound_mj).abs() / obj.abs().max(1e-9)).max(0.0);
            ExactPoint {
                feasible: true,
                proven: *status == SolveStatus::Optimal,
                objective_mj: obj,
                seconds,
                nodes: out.nodes,
                gap: if *status == SolveStatus::Optimal { 0.0 } else { gap },
                stats: out.stats,
            }
        }
        Ok(out) => ExactPoint {
            feasible: false,
            proven: out.status == SolveStatus::Infeasible,
            objective_mj: f64::NAN,
            seconds,
            nodes: out.nodes,
            gap: f64::INFINITY,
            stats: out.stats,
        },
        Err(_) => ExactPoint {
            feasible: false,
            proven: false,
            objective_mj: f64::NAN,
            seconds,
            nodes: 0,
            gap: f64::INFINITY,
            stats: SolveStats::default(),
        },
    }
}

/// A [`DeploymentSession`] configured like an [`OptimalConfig`]: how the
/// figure binaries reach the exact solver.
pub fn session_for(problem: &ProblemInstance, config: &OptimalConfig) -> DeploymentSession {
    DeploymentSession::builder(problem.clone()).config(config.clone()).build()
}

/// Runs the exact solver on `problem` with `config`, reducing the outcome.
pub fn exact_point(problem: &ProblemInstance, config: &OptimalConfig) -> ExactPoint {
    let mut session = session_for(problem, config);
    let t0 = std::time::Instant::now();
    let outcome = session.solve();
    reduce_outcome(&outcome, t0.elapsed().as_secs_f64())
}

/// Reduces one member result of a `BatchSession::solve_all` to an
/// [`ExactPoint`]. The `seconds` column carries the member's solver
/// seconds — for a cache replay that is the solve time of the original
/// run, not the (near-zero) replay cost.
pub fn reduce_batch(result: &ndp_core::Result<BatchOutcome>) -> ExactPoint {
    match result {
        Ok(b) => reduce_outcome(&Ok(b.outcome.clone()), b.outcome.solve_seconds),
        Err(_) => ExactPoint {
            feasible: false,
            proven: false,
            objective_mj: f64::NAN,
            seconds: 0.0,
            nodes: 0,
            gap: f64::INFINITY,
            stats: SolveStats::default(),
        },
    }
}

/// Outcome of one heuristic run, reduced to what the figures need.
#[derive(Debug, Clone)]
pub struct HeuristicPoint {
    /// The deployment, when all three phases succeeded within the horizon.
    pub deployment: Option<Deployment>,
    /// Wall time of the three phases in seconds.
    pub seconds: f64,
}

impl HeuristicPoint {
    /// Whether the heuristic produced a deployment.
    pub fn feasible(&self) -> bool {
        self.deployment.is_some()
    }
}

/// Runs the heuristic, returning the deployment and wall time.
pub fn heuristic_point(problem: &ProblemInstance) -> HeuristicPoint {
    let session = DeploymentSession::new(problem.clone());
    let t0 = std::time::Instant::now();
    let deployment = session.heuristic().ok();
    HeuristicPoint { deployment, seconds: t0.elapsed().as_secs_f64() }
}

/// Maps `f` over the seeds as work-stealing tasks on the process-global
/// solver worker pool and returns results in seed order.
///
/// Scheduling is non-barriered: seeds are claimed one at a time from a
/// shared cursor, so a slow seed never gates the start of later ones (the
/// old implementation ran fixed chunks under `crossbeam::scope`, where
/// each chunk waited for its slowest member). Output order stays
/// deterministic — result `i` is `f(seeds[i])` regardless of which worker
/// computed it or when it finished.
pub fn per_seed<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    let seeds = seeds.to_vec();
    ndp_milp::run_batch(seeds.len(), move |i| f(seeds[i]))
}

/// Short machine-readable name of a basis kernel for bench tables/JSON.
pub fn kernel_name(k: BasisKernel) -> &'static str {
    match k {
        BasisKernel::Dense => "dense",
        BasisKernel::SparseLu => "sparse-lu",
    }
}

/// Parses a `--pricing` flag value (`dse`/`steepest-edge`, `dantzig`).
pub fn parse_pricing(s: &str) -> Option<Pricing> {
    match s {
        "dse" | "steepest-edge" => Some(Pricing::SteepestEdge),
        "dantzig" => Some(Pricing::Dantzig),
        _ => None,
    }
}

/// Short machine-readable name of a pricing rule for bench tables/JSON.
pub fn pricing_name(p: Pricing) -> &'static str {
    match p {
        Pricing::SteepestEdge => "dse",
        Pricing::Dantzig => "dantzig",
    }
}

/// Parses a `--node-order` flag value (`dfs`/`depth-first`,
/// `best`/`best-bound`).
pub fn parse_node_order(s: &str) -> Option<NodeOrder> {
    match s {
        "dfs" | "depth-first" => Some(NodeOrder::DepthFirst),
        "best" | "best-bound" => Some(NodeOrder::BestBound),
        _ => None,
    }
}

/// Short machine-readable name of a node order for bench tables/JSON.
pub fn node_order_name(o: NodeOrder) -> &'static str {
    match o {
        NodeOrder::DepthFirst => "dfs",
        NodeOrder::BestBound => "best-bound",
    }
}

/// Parses a `--branch-rule` flag value (`most-frac`, `reliability`).
pub fn parse_branch_rule(s: &str) -> Option<BranchRule> {
    match s {
        "most-frac" | "most-fractional" => Some(BranchRule::MostFractional),
        "reliability" => Some(BranchRule::Reliability),
        _ => None,
    }
}

/// Short machine-readable name of a branch rule for bench tables/JSON.
pub fn branch_rule_name(r: BranchRule) -> &'static str {
    match r {
        BranchRule::MostFractional => "most-frac",
        BranchRule::Reliability => "reliability",
    }
}

/// One machine-readable solve record for `BENCH_milp.json`: what the solver
/// configuration was and how much work the solve took.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Instance label, e.g. `M6-N4-seed7`.
    pub instance: String,
    /// Basis kernel (`dense` / `sparse-lu`).
    pub kernel: String,
    /// Pricing rule (`dse` / `dantzig`; `devex` in older records).
    pub pricing: String,
    /// Branch-and-bound node order (`dfs` / `best-bound`).
    pub node_order: String,
    /// Parent-basis warm starts enabled.
    pub warm_start: bool,
    /// Cutting planes enabled.
    pub cuts: bool,
    /// Root primal heuristic (diving) enabled.
    pub heuristics: bool,
    /// Node-level bound propagation enabled.
    pub propagation: bool,
    /// Worker threads.
    pub threads: usize,
    /// Termination status (`Optimal`, `Feasible`, ...).
    pub status: String,
    /// Branch-and-bound nodes evaluated.
    pub nodes: u64,
    /// Total simplex pivots.
    pub pivots: u64,
    /// Basis refactorizations (`SolveStats::refactorizations`). `None`
    /// (serialized as `null`) where the binary has no solver statistics,
    /// such as server-phase and sweep-level records.
    pub refactorizations: Option<u64>,
    /// Seconds spent factorizing bases (`SolveStats::factor_seconds`);
    /// `None` (`null`) wherever `refactorizations` is.
    pub factor_seconds: Option<f64>,
    /// Seconds inside strong-branching probe passes
    /// (`SolveStats::strong_branch_seconds`, which overlaps the simplex and
    /// factorization time); `None` (`null`) wherever `refactorizations` is.
    pub strong_branch_seconds: Option<f64>,
    /// Node LPs started from a parent basis.
    pub warm_starts: u64,
    /// Node LPs started from the slack basis.
    pub cold_starts: u64,
    /// Cuts installed (root survivors plus in-tree rounds).
    pub cuts_applied: u64,
    /// Incumbents contributed by the root primal heuristics.
    pub heuristic_incumbents: u64,
    /// Individual bound tightenings applied by node propagation.
    pub propagated_bounds: u64,
    /// Relative optimality gap of the incumbent: 0 when proven optimal,
    /// the remaining gap for a time/node-limited `Feasible` run, non-finite
    /// (serialized as `null`) when no incumbent exists. Distinguishes a
    /// near-optimal limited run from a poor one — previously a limited run
    /// was reported as a bare `Feasible` with no gap at all.
    pub gap: f64,
    /// Best proven bound on the objective (user scale); non-finite
    /// serializes as `null`.
    pub dual_bound: f64,
    /// Wall-clock seconds of the solve.
    pub seconds: f64,
    /// For re-deployment records: wall-clock ratio of the from-scratch
    /// solve over the incremental re-solve of the same event (>1 means
    /// the warm path won). `None` for ordinary one-shot records.
    pub speedup: Option<f64>,
    /// The record came from the batch engine (`BatchSession` /
    /// `batch_sweep`) rather than a serial one-at-a-time run.
    pub batch: bool,
    /// For sweep-level records: end-to-end wall-clock of the full sweep
    /// this record belongs to. `None` for per-solve records.
    pub sweep_wall_seconds: Option<f64>,
    /// Branch rule of the solve (`most-frac` / `reliability`). `None`
    /// (serialized as `null`) for records written before the field existed
    /// or where the rule is not meaningful.
    pub branch_rule: Option<String>,
}

/// A finite float as JSON, non-finite as `null` (JSON has no Inf/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

impl BenchRecord {
    /// A record of a run under `options`: the configuration columns
    /// (kernel, pricing, node order, warm start, cuts, heuristics,
    /// propagation, threads and branch rule) are read from the options that
    /// ran, `threads` resolved to the worker count. The status is empty,
    /// the counters zero, the gap and bound NaN and the optional columns
    /// `None`, for the caller to fill with struct-update syntax.
    pub fn configured(instance: impl Into<String>, options: &SolverOptions) -> BenchRecord {
        BenchRecord {
            instance: instance.into(),
            kernel: kernel_name(options.basis_kernel).into(),
            pricing: pricing_name(options.pricing).into(),
            node_order: node_order_name(options.node_order).into(),
            warm_start: options.warm_start,
            cuts: options.cuts,
            heuristics: options.heuristics,
            propagation: options.propagation,
            threads: options.effective_threads(),
            status: String::new(),
            nodes: 0,
            pivots: 0,
            refactorizations: None,
            factor_seconds: None,
            strong_branch_seconds: None,
            warm_starts: 0,
            cold_starts: 0,
            cuts_applied: 0,
            heuristic_incumbents: 0,
            propagated_bounds: 0,
            gap: f64::NAN,
            dual_bound: f64::NAN,
            seconds: 0.0,
            speedup: None,
            batch: false,
            sweep_wall_seconds: None,
            branch_rule: Some(branch_rule_name(options.branch_rule).into()),
        }
    }

    /// Serializes the record as one JSON object (hand-formatted: the
    /// workspace carries no JSON dependency).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"instance\":\"{}\",\"kernel\":\"{}\",\"pricing\":\"{}\",",
                "\"node_order\":\"{}\",",
                "\"warm_start\":{},\"cuts\":{},\"heuristics\":{},\"propagation\":{},",
                "\"threads\":{},\"status\":\"{}\",\"nodes\":{},",
                "\"pivots\":{},\"refactorizations\":{},\"factor_seconds\":{},",
                "\"strong_branch_seconds\":{},",
                "\"warm_starts\":{},\"cold_starts\":{},\"cuts_applied\":{},",
                "\"heuristic_incumbents\":{},\"propagated_bounds\":{},",
                "\"gap\":{},\"dual_bound\":{},\"seconds\":{:.4},\"speedup\":{},",
                "\"batch\":{},\"sweep_wall_seconds\":{},",
                "\"branch_rule\":{}}}"
            ),
            self.instance,
            self.kernel,
            self.pricing,
            self.node_order,
            self.warm_start,
            self.cuts,
            self.heuristics,
            self.propagation,
            self.threads,
            self.status,
            self.nodes,
            self.pivots,
            self.refactorizations.map_or_else(|| "null".to_string(), |n| n.to_string()),
            self.factor_seconds.map_or_else(|| "null".to_string(), json_f64),
            self.strong_branch_seconds.map_or_else(|| "null".to_string(), json_f64),
            self.warm_starts,
            self.cold_starts,
            self.cuts_applied,
            self.heuristic_incumbents,
            self.propagated_bounds,
            json_f64(self.gap),
            json_f64(self.dual_bound),
            self.seconds,
            self.speedup.map_or_else(|| "null".to_string(), json_f64),
            self.batch,
            self.sweep_wall_seconds.map_or_else(|| "null".to_string(), json_f64),
            self.branch_rule.as_ref().map_or_else(|| "null".to_string(), |r| format!("\"{r}\"")),
        )
    }
}

/// Writes `records` to `path` as a JSON array, one record per line.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Appends `records` to the bench-trajectory file at `path`, keeping the
/// one-record-per-line JSON array layout of [`write_bench_json`]. A missing
/// or empty file is created; an existing array keeps its records, so the
/// repo-root `BENCH_milp.json` accumulates a history of configurations
/// across runs instead of being clobbered by each one.
///
/// The update is atomic: the merged array is written to a temporary
/// sibling file and renamed into place, so a crash (or a concurrent
/// reader) never observes a truncated `BENCH_milp.json`. Torn records
/// left behind by pre-atomic writers — lines that are not a complete
/// `{...}` object — are dropped during the merge instead of being
/// re-serialized into the array.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn append_bench_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    if records.is_empty() {
        return Ok(());
    }
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines: Vec<String> = existing
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && *l != "[" && *l != "]")
        .map(|l| l.trim_end_matches(',').to_string())
        .filter(|l| l.starts_with('{') && l.ends_with('}'))
        .collect();
    for r in records {
        lines.push(r.to_json());
    }
    let mut out = String::from("[\n");
    for (i, l) in lines.iter().enumerate() {
        out.push_str("  ");
        out.push_str(l);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");

    // Write-then-rename keeps the destination complete at every instant;
    // the temp name embeds the pid so concurrent processes appending to
    // the same file cannot collide on it.
    let target = std::path::Path::new(path);
    let dir = target.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = target
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_string_lossy()
        .into_owned();
    let tmp_name = format!(".{}.{}.tmp", file_name, std::process::id());
    let tmp = match dir {
        Some(d) => d.join(tmp_name),
        None => std::path::PathBuf::from(tmp_name),
    };
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, target).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Mean of the finite entries of `values` (NaN when none).
pub fn mean_finite(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builds_reproducibly() {
        let a = InstanceSpec::new(6, 2, 2.0, 3).build();
        let b = InstanceSpec::new(6, 2, 2.0, 3).build();
        assert_eq!(a.horizon_ms, b.horizon_ms);
        assert_eq!(a.num_tasks(), 12);
        assert_eq!(a.num_processors(), 4);
        assert_eq!(a.num_levels(), 4);
    }

    #[test]
    fn per_seed_preserves_order() {
        let seeds: Vec<u64> = (0..17).collect();
        let out = per_seed(&seeds, |s| s * 2);
        assert_eq!(out, seeds.iter().map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn branch_rule_names_roundtrip() {
        use ndp_milp::BranchRule::{MostFractional, Reliability};
        for r in [MostFractional, Reliability] {
            assert_eq!(parse_branch_rule(branch_rule_name(r)), Some(r));
        }
        assert_eq!(parse_branch_rule("most-fractional"), Some(MostFractional));
        assert!(parse_branch_rule("bogus").is_none());
    }

    #[test]
    fn bench_record_json_roundtrips_fields() {
        let r = BenchRecord {
            instance: "M4-N4-seed7".into(),
            kernel: "sparse-lu".into(),
            pricing: "dse".into(),
            node_order: "dfs".into(),
            warm_start: true,
            cuts: true,
            heuristics: true,
            propagation: true,
            threads: 1,
            status: "Optimal".into(),
            nodes: 12,
            pivots: 345,
            refactorizations: Some(21),
            factor_seconds: Some(0.125),
            strong_branch_seconds: Some(0.0625),
            warm_starts: 11,
            cold_starts: 1,
            cuts_applied: 7,
            heuristic_incumbents: 2,
            propagated_bounds: 610,
            gap: 0.0,
            dual_bound: 42.5,
            seconds: 0.25,
            speedup: None,
            batch: true,
            sweep_wall_seconds: Some(123.5),
            branch_rule: Some("reliability".into()),
        };
        let j = r.to_json();
        for needle in [
            "\"instance\":\"M4-N4-seed7\"",
            "\"kernel\":\"sparse-lu\"",
            "\"pricing\":\"dse\"",
            "\"node_order\":\"dfs\"",
            "\"warm_start\":true",
            "\"cuts\":true",
            "\"heuristics\":true",
            "\"propagation\":true",
            "\"nodes\":12",
            "\"pivots\":345",
            "\"refactorizations\":21",
            "\"factor_seconds\":0.125000",
            "\"strong_branch_seconds\":0.062500",
            "\"warm_starts\":11",
            "\"cold_starts\":1",
            "\"cuts_applied\":7",
            "\"heuristic_incumbents\":2",
            "\"propagated_bounds\":610",
            "\"gap\":0.000000",
            "\"dual_bound\":42.500000",
            "\"seconds\":0.2500",
            "\"batch\":true",
            "\"sweep_wall_seconds\":123.500000",
            "\"branch_rule\":\"reliability\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    /// A limited run without an incumbent carries non-finite gap/bound —
    /// JSON has no Inf/NaN, so both must serialize as `null`.
    #[test]
    fn bench_record_nonfinite_floats_serialize_as_null() {
        let r = BenchRecord {
            instance: "M9-N4-seed1".into(),
            kernel: "dense".into(),
            pricing: "dantzig".into(),
            node_order: "best-bound".into(),
            warm_start: false,
            cuts: false,
            heuristics: false,
            propagation: false,
            threads: 2,
            status: "Unknown".into(),
            nodes: 3,
            pivots: 9,
            refactorizations: None,
            factor_seconds: None,
            strong_branch_seconds: None,
            warm_starts: 0,
            cold_starts: 3,
            cuts_applied: 0,
            heuristic_incumbents: 0,
            propagated_bounds: 0,
            gap: f64::INFINITY,
            dual_bound: f64::NAN,
            seconds: 6.0,
            speedup: None,
            batch: false,
            sweep_wall_seconds: Some(f64::NAN),
            branch_rule: None,
        };
        let j = r.to_json();
        assert!(j.contains("\"gap\":null"), "{j}");
        assert!(j.contains("\"dual_bound\":null"), "{j}");
        assert!(j.contains("\"sweep_wall_seconds\":null"), "{j}");
        assert!(j.contains("\"branch_rule\":null"), "{j}");
        assert!(j.contains("\"refactorizations\":null"), "{j}");
        assert!(j.contains("\"factor_seconds\":null"), "{j}");
        assert!(j.contains("\"strong_branch_seconds\":null"), "{j}");
        assert!(!j.contains("inf") && !j.contains("NaN"), "{j}");
    }

    /// Every configuration column of a record comes from the options that
    /// ran, including options that differ from every default.
    #[test]
    fn configured_record_reports_the_options_that_ran() {
        let options = SolverOptions::default()
            .basis_kernel(BasisKernel::Dense)
            .pricing(Pricing::Dantzig)
            .node_order(NodeOrder::BestBound)
            .warm_start(false)
            .cuts(true)
            .heuristics(false)
            .propagation(false)
            .threads(3)
            .branch_rule(BranchRule::MostFractional);
        let r = BenchRecord::configured("M4-N4-seed7", &options);
        assert_eq!(r.instance, "M4-N4-seed7");
        assert_eq!(
            (r.kernel.as_str(), r.pricing.as_str(), r.node_order.as_str()),
            ("dense", "dantzig", "best-bound")
        );
        assert_eq!(
            (r.warm_start, r.cuts, r.heuristics, r.propagation),
            (false, true, false, false)
        );
        assert_eq!(r.threads, 3);
        assert_eq!(r.branch_rule.as_deref(), Some("most-frac"));

        let d = BenchRecord::configured("d", &SolverOptions::default().threads(1));
        assert_eq!(
            (d.kernel.as_str(), d.pricing.as_str(), d.node_order.as_str()),
            ("sparse-lu", "dse", "dfs")
        );
        assert_eq!((d.warm_start, d.cuts, d.heuristics, d.propagation), (true, false, true, true));
        assert_eq!(d.threads, 1);
        assert_eq!(d.branch_rule.as_deref(), Some("reliability"));
    }

    fn record(instance: &str) -> BenchRecord {
        BenchRecord {
            status: "Optimal".into(),
            nodes: 1,
            pivots: 2,
            refactorizations: Some(1),
            factor_seconds: Some(0.0),
            strong_branch_seconds: Some(0.0),
            cold_starts: 1,
            gap: 0.0,
            dual_bound: 1.0,
            seconds: 0.1,
            ..BenchRecord::configured(instance, &SolverOptions::default().threads(1))
        }
    }

    #[test]
    fn append_bench_json_accumulates_across_runs() {
        let path = std::env::temp_dir().join(format!("bench_append_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        append_bench_json(&path, &[record("a")]).unwrap();
        append_bench_json(&path, &[record("b"), record("c")]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for inst in ["\"instance\":\"a\"", "\"instance\":\"b\"", "\"instance\":\"c\""] {
            assert!(text.contains(inst), "missing {inst} in {text}");
        }
        assert!(text.starts_with("[\n") && text.ends_with("]\n"), "{text}");
        // Three records, comma-separated: exactly two separators.
        assert_eq!(text.matches("},").count(), 2, "{text}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_bench_json_survives_a_torn_partial_write() {
        let path =
            std::env::temp_dir().join(format!("bench_append_torn_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        // A file left behind by a crashed pre-atomic writer: one complete
        // record followed by a record cut off mid-line.
        let torn = format!("[\n  {},\n  {{\"instance\":\"torn\",\"nod", record("keep").to_json());
        std::fs::write(&path, torn).unwrap();

        append_bench_json(&path, &[record("fresh")]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n") && text.ends_with("]\n"), "{text}");
        assert!(text.contains("\"instance\":\"keep\""), "complete record lost: {text}");
        assert!(text.contains("\"instance\":\"fresh\""), "new record lost: {text}");
        assert!(!text.contains("torn"), "torn fragment re-serialized: {text}");
        // Every line between the brackets must be a complete object.
        for line in text.lines().filter(|l| *l != "[" && *l != "]") {
            let body = line.trim().trim_end_matches(',');
            assert!(body.starts_with('{') && body.ends_with('}'), "bad line {line:?}");
        }
        // The temp file must not linger after a successful rename.
        let dir = std::path::Path::new(&path).parent().unwrap();
        let stem = std::path::Path::new(&path).file_name().unwrap().to_string_lossy().into_owned();
        let leftover = std::fs::read_dir(dir).unwrap().any(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.contains(&stem) && name.ends_with(".tmp")
        });
        assert!(!leftover, "temporary file left behind");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pricing_parses_all_names() {
        assert_eq!(parse_pricing("dse"), Some(Pricing::SteepestEdge));
        assert_eq!(parse_pricing("steepest-edge"), Some(Pricing::SteepestEdge));
        assert_eq!(parse_pricing("dantzig"), Some(Pricing::Dantzig));
        assert_eq!(parse_pricing("bogus"), None);
        for p in [Pricing::SteepestEdge, Pricing::Dantzig] {
            assert_eq!(parse_pricing(pricing_name(p)), Some(p));
        }
    }

    #[test]
    fn node_order_parses_all_names() {
        assert_eq!(parse_node_order("dfs"), Some(NodeOrder::DepthFirst));
        assert_eq!(parse_node_order("depth-first"), Some(NodeOrder::DepthFirst));
        assert_eq!(parse_node_order("best"), Some(NodeOrder::BestBound));
        assert_eq!(parse_node_order("best-bound"), Some(NodeOrder::BestBound));
        assert_eq!(parse_node_order("bogus"), None);
        for o in [NodeOrder::DepthFirst, NodeOrder::BestBound] {
            assert_eq!(parse_node_order(node_order_name(o)), Some(o));
        }
    }

    #[test]
    fn mean_finite_skips_nan() {
        assert_eq!(mean_finite(&[1.0, f64::NAN, 3.0]), 2.0);
        assert!(mean_finite(&[f64::NAN]).is_nan());
    }

    #[test]
    fn heuristic_point_runs() {
        let p = InstanceSpec::new(8, 3, 4.0, 1).build();
        let h = heuristic_point(&p);
        assert!(h.seconds >= 0.0);
        assert_eq!(h.feasible(), h.deployment.is_some());
        if let Some(d) = h.deployment {
            assert!(ndp_core::is_valid(&p, &d));
        }
    }
}
