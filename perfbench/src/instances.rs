//! Inputs: the seeded generator, the instance catalog, problem
//! construction, the energy lower bound and the golden table.

use crate::trace::Tracer;
use ndp_core::{CommTimeModel, ProblemInstance};
use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
use ndp_platform::{Platform, PowerModel, PowerParams, ReliabilityParams, VfTable};
use ndp_taskset::{generate, GeneratorConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Horizon multipliers the operations draw from.
pub const ALPHAS: [f64; 3] = [1.2, 1.6, 3.0];
/// V/F levels of every instance.
pub const LEVELS: usize = 3;
/// Reliability threshold `R_th` of every instance.
pub const RELIABILITY_THRESHOLD: f64 = 0.95;

/// SplitMix64: a small seeded generator, so the same workload seed gives
/// the same operation list on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One instance: `m` original tasks on a `side`×`side` mesh with horizon
/// multiplier `alpha`; `seed` drives both the task graph and the NoC link
/// weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Original task count `M`.
    pub m: usize,
    /// Mesh side (`N = side²`).
    pub side: usize,
    /// Horizon multiplier `α`.
    pub alpha: f64,
    /// Task-graph and NoC seed.
    pub seed: u64,
}

impl std::fmt::Display for Spec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m={} n={} a={} seed={}", self.m, self.side * self.side, self.alpha, self.seed)
    }
}

/// Graph seed of entry `i` of the fixed catalog of `m`-task instances.
///
/// Every workload uses the same catalog instances on every run; the
/// workload seed only orders the operations. Instances drawn from the
/// workload seed spread a run's proof time so widely (an M=3 proof takes
/// 0.2–3.3 s depending on the graph, and up to 2.6x more or less with the
/// horizon) that two seeds would differ by more than any regression worth
/// catching.
pub fn catalog_seed(m: usize, i: usize) -> u64 {
    1000 * m as u64 + 1 + i as u64
}

/// Builds the problem instance the same way `ndp_serve::RequestSpec` does
/// for a request with the same knobs. Records `taskset.generate`,
/// `noc.build` and `core.problem` spans under `parent`.
pub fn build_problem(
    spec: Spec,
    tracer: &Tracer,
    op: u64,
    parent: Option<usize>,
) -> Result<ProblemInstance, String> {
    let graph = tracer
        .span("taskset.generate", op, parent, |_| {
            generate(&GeneratorConfig::typical(spec.m), spec.seed)
        })
        .map_err(|e| format!("taskset: {e}"))?;
    let noc = tracer
        .span("noc.build", op, parent, |_| {
            Mesh2D::square(spec.side)
                .and_then(|mesh| WeightedNoc::new(mesh, NocParams::typical(), spec.seed))
        })
        .map_err(|e| format!("noc: {e}"))?;
    tracer.span("core.problem", op, parent, |_| {
        let vf = VfTable::synthetic(LEVELS, (0.85, 1.10), (300.0, 1000.0))
            .map_err(|e| format!("vf-table: {e}"))?;
        let platform = Platform::new(
            spec.side * spec.side,
            vf,
            PowerModel::new(PowerParams::bulk_70nm()),
            ReliabilityParams::typical(),
        )
        .map_err(|e| format!("platform: {e}"))?;
        ProblemInstance::from_original(&graph, platform, noc, RELIABILITY_THRESHOLD, spec.alpha)
            .map(|p| p.with_comm_time_model(CommTimeModel::PerUnit))
            .map_err(|e| format!("problem: {e}"))
    })
}

/// A lower bound on the optimal maximum per-processor energy, from the
/// instance alone: every original task runs at least once at no less than
/// its cheapest level's execution energy, communication costs at least
/// nothing, and the busiest of `N` processors carries at least the mean.
pub fn energy_lower_bound(problem: &ProblemInstance) -> f64 {
    let total: f64 = problem
        .tasks
        .originals()
        .map(|i| {
            problem
                .platform
                .vf_table()
                .iter()
                .map(|(l, _)| problem.exec_energy_mj(i, l))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / problem.num_processors() as f64
}

/// A proven answer: the optimal objective in mJ, or `None` for infeasible.
pub type Answer = Option<f64>;

/// Relative tolerance for comparing two proven objectives (the solver's
/// default relative gap is 1e-6).
pub const ANSWER_RTOL: f64 = 1e-5;

/// Whether two proven answers agree.
pub fn same_answer(a: Answer, b: Answer) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() <= ANSWER_RTOL * x.abs().max(y.abs()).max(1.0),
        (None, None) => true,
        _ => false,
    }
}

/// Renders an answer for the golden file and failure messages.
pub fn show_answer(a: Answer) -> String {
    a.map_or("infeasible".to_string(), |v| format!("{v:.10}"))
}

/// Proven optima recorded from the seed commit, keyed by operation.
pub struct Golden {
    table: BTreeMap<String, Answer>,
    /// Whether an answer with no entry fails its operation. Otherwise it
    /// is only counted in `unchecked`.
    strict: bool,
    unchecked: AtomicU64,
}

/// The recorded table, compiled into the binary.
const GOLDEN: &str = include_str!("../golden.txt");

impl Golden {
    /// Parses `key = answer` lines; `#` starts a comment line. The table
    /// is not strict.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(" = ")
                .ok_or_else(|| format!("golden line {}: no ' = '", n + 1))?;
            let answer = match value.trim() {
                "infeasible" => None,
                v => Some(v.parse::<f64>().map_err(|e| format!("golden line {}: {e}", n + 1))?),
            };
            map.insert(key.trim().to_string(), answer);
        }
        Ok(Golden { table: map, strict: false, unchecked: AtomicU64::new(0) })
    }

    /// The compiled-in table; `strict` makes a missing entry fail.
    pub fn load(strict: bool) -> Golden {
        Golden { strict, ..Golden::parse(GOLDEN).expect("the compiled-in golden table parses") }
    }

    /// The recorded answer for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Answer> {
        self.table.get(key).copied()
    }

    /// Whether an answer with no entry fails its operation.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Counts one proven answer that had no entry to be compared with.
    pub fn note_unchecked(&self) {
        self.unchecked.fetch_add(1, Ordering::Relaxed);
    }

    /// Proven answers that had no entry, on a table that is not strict.
    pub fn unchecked(&self) -> u64 {
        self.unchecked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_decorrelated() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        let mut r = Rng::new(1, 0);
        for _ in 0..1000 {
            let u = r.uniform(0.5, 0.75);
            assert!((0.5..0.75).contains(&u));
            assert!(r.below(3) < 3);
        }
        let mut v: Vec<usize> = (0..10).collect();
        r.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn golden_parses_answers_and_rejects_garbage() {
        let g = Golden::parse("# c\nexact m=2 = 1.5\nredeploy x = infeasible\n").unwrap();
        assert_eq!(g.get("exact m=2"), Some(Some(1.5)));
        assert_eq!(g.get("redeploy x"), Some(None));
        assert_eq!(g.get("nope"), None);
        assert!(Golden::parse("exact m=2 1.5").is_err());
        assert!(Golden::parse("k = x").is_err());
        assert!(same_answer(Some(1.0), Some(1.0 + 1e-7)));
        assert!(!same_answer(Some(1.0), Some(1.001)));
        assert!(!same_answer(Some(1.0), None));
    }

    /// The bound must never exceed a proven optimum, otherwise `energy_rel`
    /// could read below 1 and would not measure distance from the optimum.
    #[test]
    fn lower_bound_never_exceeds_a_golden_optimum() {
        let golden = Golden::load(true);
        let tracer = Tracer::new(false);
        let mut checked = 0;
        for (key, answer) in &golden.table {
            let (Some(spec), Some(optimum)) = (parse_exact_key(key), answer) else { continue };
            let problem = build_problem(spec, &tracer, 0, None).unwrap();
            let lb = energy_lower_bound(&problem);
            assert!(lb > 0.0 && lb <= *optimum * (1.0 + 1e-9), "{key}: bound {lb} > {optimum}");
            checked += 1;
        }
        assert!(checked > 0, "the golden table holds exact answers");
    }

    fn parse_exact_key(key: &str) -> Option<Spec> {
        let rest = key.strip_prefix("exact ")?;
        let mut spec = Spec { m: 0, side: 0, alpha: 0.0, seed: 0 };
        for kv in rest.split(' ') {
            let (k, v) = kv.split_once('=')?;
            match k {
                "m" => spec.m = v.parse().ok()?,
                "n" => spec.side = (v.parse::<f64>().ok()?).sqrt().round() as usize,
                "a" => spec.alpha = v.parse().ok()?,
                "seed" => spec.seed = v.parse().ok()?,
                _ => return None,
            }
        }
        Some(spec)
    }
}
