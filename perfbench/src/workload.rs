//! What every workload shares: the result of one pass, answer checks and
//! per-layer sample collection.

use crate::instances::{same_answer, show_answer, Answer, Golden};
use crate::stats::{Cause, Samples, Tally};
use crate::trace::Span;
use crate::yardstick;
use crate::DEFAULT_SECONDS;
use ndp_core::{validate, OptimalOutcome, ProblemInstance};
use ndp_milp::{SolveStats, SolveStatus};
use std::time::Instant;

/// Per-operation solver budget. It sits far above any operation's time at
/// the seed commit (seconds at most), so it never truncates a healthy
/// operation; one that hits it counts as failed.
pub const BUDGET_S: f64 = 60.0;

/// Operations on either side whose yardstick readings share in one
/// operation's adjustment.
const NEIGHBOURS: usize = 2;

/// Everything one pass over a workload's operation list produced.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Yardstick time around each set-up repetition, ms.
    pub setup_yardstick_ms: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// Latency of every timed operation as its caller saw it, ms.
    pub latencies_ms: Vec<f64>,
    /// Yardstick time around each timed operation, ms.
    pub yardstick_ms: Vec<f64>,
    /// Answer checks.
    pub tally: Tally,
    /// Per-operation returned max per-processor energy over the bound.
    pub energy_ratios: Vec<f64>,
    /// Per-layer samples.
    pub layers: Samples,
    /// Per-operation work counters that must repeat exactly.
    pub counters: Vec<String>,
    /// Proven answers keyed for the golden table.
    pub answers: Vec<(String, Answer)>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl Pass {
    /// Operation latencies adjusted to a host at reference speed, ms. A
    /// reading is noisy by several percent while the host's speed holds
    /// for seconds, so each operation is scaled by the median reading over
    /// it and `NEIGHBOURS` operations on either side.
    pub fn adjusted_latencies_ms(&self) -> Vec<f64> {
        let readings = &self.yardstick_ms;
        let local: Vec<f64> = (0..readings.len())
            .map(|i| {
                let window = i.saturating_sub(NEIGHBOURS)..(i + NEIGHBOURS + 1).min(readings.len());
                let mut near = readings[window].to_vec();
                near.sort_by(f64::total_cmp);
                near[near.len() / 2]
            })
            .collect();
        adjusted(&self.latencies_ms, &local)
    }

    /// Set-up times adjusted to a host at reference speed, s.
    pub fn adjusted_setups_s(&self) -> Vec<f64> {
        adjusted(&self.setup_s, &self.setup_yardstick_ms)
    }

    /// Appends another pass's operations (set-up and timed phase excluded).
    pub fn merge(&mut self, other: Pass) {
        self.latencies_ms.extend(other.latencies_ms);
        self.yardstick_ms.extend(other.yardstick_ms);
        self.tally.merge(other.tally);
        self.energy_ratios.extend(other.energy_ratios);
        self.layers.merge(other.layers);
        self.counters.extend(other.counters);
        self.answers.extend(other.answers);
    }
}

/// Checks one exact outcome: a proof, a valid deployment whose recomputed
/// energy is the returned objective, no task on a faulted core, and the
/// golden answer when one is recorded under `key`.
pub fn check_proof(
    problem: &ProblemInstance,
    out: &OptimalOutcome,
    faulted: &[usize],
    golden: &Golden,
    key: &str,
) -> Result<Answer, Cause> {
    let answer = match out.status {
        SolveStatus::Optimal => {
            let d = out
                .deployment
                .as_ref()
                .ok_or_else(|| Cause::NotProven("optimal without a deployment".into()))?;
            let violations = validate(problem, d);
            if let Some(v) = violations.first() {
                return Err(Cause::Invalid(format!(
                    "{} violations, first {v:?}",
                    violations.len()
                )));
            }
            if let Some(i) = (0..d.active.len())
                .find(|&i| d.active[i] && faulted.contains(&d.processor[i].index()))
            {
                return Err(Cause::Invalid(format!("task {i} on faulted core")));
            }
            let recomputed = d.energy_report(problem).max_mj();
            let objective = out.objective_mj.unwrap_or(f64::NAN);
            if !same_answer(Some(objective), Some(recomputed)) {
                return Err(Cause::Mismatch(format!(
                    "objective {objective} but the deployment's energy is {recomputed}"
                )));
            }
            Some(objective)
        }
        SolveStatus::Infeasible => None,
        SolveStatus::Feasible | SolveStatus::Unknown | SolveStatus::Interrupted => {
            return Err(Cause::Truncated(format!("status {:?}", out.status)))
        }
        SolveStatus::Unbounded => return Err(Cause::NotProven("status Unbounded".into())),
    };
    check_golden(golden, key, answer)?;
    Ok(answer)
}

/// Compares a proven answer with the golden table entry under `key`. A
/// missing entry fails on a strict table and is counted otherwise.
pub fn check_golden(golden: &Golden, key: &str, answer: Answer) -> Result<(), Cause> {
    match golden.get(key) {
        Some(want) if !same_answer(want, answer) => Err(Cause::Mismatch(format!(
            "golden {} but got {}",
            show_answer(want),
            show_answer(answer)
        ))),
        Some(_) => Ok(()),
        None if golden.is_strict() => {
            Err(Cause::Unchecked(format!("no golden answer for \"{key}\"")))
        }
        None => {
            golden.note_unchecked();
            Ok(())
        }
    }
}

/// Records a solve's work counters and time buckets.
pub fn record_milp(layers: &mut Samples, s: &SolveStats) {
    layers.push("milp.heuristics_s", s.heuristic_seconds);
    layers.push("milp.heuristic_incumbents", s.heuristic_incumbents as f64);
    layers.push("milp.simplex_s", s.simplex_seconds);
    layers.push("milp.factor_s", s.factor_seconds);
    layers.push("milp.pivots", s.simplex_iterations as f64);
    layers.push("milp.refactorizations", s.refactorizations as f64);
    layers.push("milp.nodes", s.nodes as f64);
    layers.push("milp.strong_branch_probes", s.strong_branch_probes as f64);
    layers.push("milp.cuts_s", s.separation_seconds);
    layers.push("milp.cuts_applied", s.cuts_applied as f64);
    layers.push("milp.propagate_s", s.propagation_seconds);
    layers.push("milp.presolve_s", s.presolve_seconds);
    layers.push("milp.other_s", s.other_seconds());
    if s.nodes > 0 {
        layers.push("milp.pivots_per_node", s.simplex_iterations as f64 / s.nodes as f64);
        layers.push("milp.refactorizations_per_node", s.refactorizations as f64 / s.nodes as f64);
    }
    if s.warm_starts + s.cold_starts > 0 {
        layers
            .push("milp.warm_share", s.warm_starts as f64 / (s.warm_starts + s.cold_starts) as f64);
    }
    if s.cuts_generated > 0 {
        layers.push("milp.cut_yield", s.cuts_applied as f64 / s.cuts_generated as f64);
    }
}

/// The counters of one solve that must repeat exactly at `threads = 1`.
pub fn milp_counters(s: &SolveStats) -> String {
    format!(
        "nodes={} pivots={} refactorizations={} probes={} cuts={}",
        s.nodes, s.simplex_iterations, s.refactorizations, s.strong_branch_probes, s.cuts_applied
    )
}

/// Splits a run's set-up repetitions into those before the timed phase
/// and those after it, so that `setup_s` samples the host in two windows
/// far apart.
pub fn split_reps(reps: usize) -> (usize, usize) {
    let before = reps.div_ceil(2);
    (before, reps - before)
}

fn adjusted(walls: &[f64], yardstick_ms: &[f64]) -> Vec<f64> {
    walls.iter().zip(yardstick_ms).map(|(&w, &y)| yardstick::adjust(w, y)).collect()
}

/// Runs `set_up` and records its wall time and the yardstick around it.
pub fn timed<T>(pass: &mut Pass, set_up: impl FnOnce() -> T) -> T {
    let before = yardstick::measure_ms();
    let t0 = Instant::now();
    let out = set_up();
    pass.setup_s.push(t0.elapsed().as_secs_f64());
    pass.setup_yardstick_ms.push((before + yardstick::measure_ms()) / 2.0);
    out
}

/// Times a pass's operations, reading the yardstick between them: each
/// operation gets the mean of the readings just before and just after it.
pub struct OpClock {
    last_ms: f64,
}

impl OpClock {
    /// Takes the first yardstick reading.
    pub fn start() -> OpClock {
        OpClock { last_ms: yardstick::measure_ms() }
    }

    /// Runs one operation and records its latency and yardstick time.
    pub fn time<T>(&mut self, pass: &mut Pass, op: impl FnOnce(&mut Pass) -> T) -> T {
        let start = Instant::now();
        let out = op(pass);
        pass.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let next = yardstick::measure_ms();
        pass.yardstick_ms.push((self.last_ms + next) / 2.0);
        self.last_ms = next;
        out
    }
}

/// Number of operations of a kind when a run measures `seconds`: `base`
/// operations per default run length, at least one.
pub fn scaled(base: usize, seconds: f64) -> usize {
    ((base as f64 * seconds / DEFAULT_SECONDS).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{build_problem, Spec};
    use crate::trace::Tracer;
    use ndp_core::DeploymentSession;

    fn outcome(status: SolveStatus) -> OptimalOutcome {
        OptimalOutcome {
            deployment: None,
            status,
            objective_mj: None,
            best_bound_mj: 0.0,
            nodes: 0,
            nodes_per_thread: Vec::new(),
            solve_seconds: 0.0,
            stats: SolveStats::default(),
        }
    }

    #[test]
    fn truncated_unproven_and_mismatched_answers_fail() {
        let spec = Spec { m: 2, side: 2, alpha: 1.6, seed: 2001 };
        let problem = build_problem(spec, &Tracer::new(false), 0, None).unwrap();
        let golden = Golden::parse("k = 1.5\n").unwrap();
        let check = |o: &OptimalOutcome, key: &str| check_proof(&problem, o, &[], &golden, key);
        for status in [SolveStatus::Feasible, SolveStatus::Unknown, SolveStatus::Interrupted] {
            assert!(matches!(check(&outcome(status), "x"), Err(Cause::Truncated(_))));
        }
        assert!(matches!(check(&outcome(SolveStatus::Unbounded), "x"), Err(Cause::NotProven(_))));
        assert!(matches!(check(&outcome(SolveStatus::Optimal), "x"), Err(Cause::NotProven(_))));
        assert!(matches!(check(&outcome(SolveStatus::Infeasible), "k"), Err(Cause::Mismatch(_))));
        assert_eq!(check(&outcome(SolveStatus::Infeasible), "x"), Ok(None));
        assert_eq!(golden.unchecked(), 1);
        let strict = Golden::load(true);
        assert!(matches!(
            check_proof(&problem, &outcome(SolveStatus::Infeasible), &[], &strict, "x"),
            Err(Cause::Unchecked(_))
        ));
        assert_eq!(strict.unchecked(), 0);
    }

    #[test]
    fn an_optimal_answer_must_be_valid_consistent_and_golden() {
        let spec = Spec { m: 2, side: 2, alpha: 1.6, seed: 2001 };
        let problem = build_problem(spec, &Tracer::new(false), 0, None).unwrap();
        let deployment = DeploymentSession::new(problem.clone()).heuristic().unwrap();
        let energy = deployment.energy_report(&problem).max_mj();
        let answered = |objective: f64| OptimalOutcome {
            deployment: Some(deployment.clone()),
            objective_mj: Some(objective),
            ..outcome(SolveStatus::Optimal)
        };
        let golden =
            Golden::parse(&format!("right = {energy}\nwrong = {}\n", energy * 1.01)).unwrap();
        let check = |o: &OptimalOutcome, faulted: &[usize], key: &str| {
            check_proof(&problem, o, faulted, &golden, key)
        };
        assert_eq!(check(&answered(energy), &[], "right"), Ok(Some(energy)));
        assert_eq!(check(&answered(energy), &[], "unrecorded"), Ok(Some(energy)));
        assert!(matches!(check(&answered(energy), &[], "wrong"), Err(Cause::Mismatch(_))));
        assert!(matches!(check(&answered(energy * 1.01), &[], "x"), Err(Cause::Mismatch(_))));
        let used = deployment.processor[0].index();
        assert!(matches!(check(&answered(energy), &[used], "x"), Err(Cause::Invalid(_))));
    }

    #[test]
    fn latencies_are_scaled_by_the_median_reading_around_them() {
        let ms = yardstick::REFERENCE_MS;
        let pass = Pass {
            latencies_ms: vec![10.0, 20.0, 10.0, 10.0, 30.0, 10.0],
            yardstick_ms: vec![ms, ms, 9.0 * ms, ms, 2.0 * ms, 2.0 * ms],
            ..Pass::default()
        };
        // One stray reading is outvoted by its neighbours; a slower host
        // over several operations scales them down.
        assert_eq!(pass.adjusted_latencies_ms(), [10.0, 20.0, 10.0, 5.0, 15.0, 5.0]);
        let set_up =
            Pass { setup_s: vec![0.4], setup_yardstick_ms: vec![2.0 * ms], ..Pass::default() };
        assert_eq!(set_up.adjusted_setups_s(), [0.2]);
    }

    #[test]
    fn set_ups_straddle_the_timed_phase() {
        assert_eq!(split_reps(1), (1, 0));
        assert_eq!(split_reps(5), (3, 2));
        assert_eq!(split_reps(9), (5, 4));
    }

    #[test]
    fn operation_counts_scale_with_run_length() {
        assert_eq!(scaled(24, 25.0), 24);
        assert_eq!(scaled(24, 12.5), 12);
        assert_eq!(scaled(24, 0.1), 1);
    }
}
