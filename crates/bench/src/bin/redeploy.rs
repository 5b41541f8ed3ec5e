//! Online re-deployment: incremental re-solve vs. from-scratch rebuild.
//!
//! Drives a [`DeploymentSession`] through the paper's runtime scenario
//! events — a core fault, a deadline tightening and an aperiodic task
//! arrival — and measures, per event, the *incremental* re-solve (apply
//! the event to the live session, re-enter branch-and-bound warm on the
//! carried cuts/basis/incumbent) against the *from-scratch* baseline (a
//! fresh session on the mutated problem, cold model build + cold search).
//! Both arms run the same solver configuration, so proven answers must
//! coincide; the speedup column is the from-scratch / incremental
//! wall-clock ratio.
//!
//! ```text
//! redeploy [--tasks M] [--mesh N] [--alpha A] [--seeds K]
//!          [--budget SECONDS] [--smoke] [--append-json PATH]
//! ```
//!
//! `--smoke` runs a fixed small grid and exits non-zero if the two arms
//! diverge on any proven answer, if an event class blows its node envelope,
//! or if the incremental arm is slower in aggregate over the events it
//! absorbed in place (a `Rebuilt` event reconstructs the model exactly like
//! the scratch arm, so those rows stay out of the wall-clock gate; the
//! all-row aggregate is printed too) — the CI gate for the re-solve
//! engine. `--append-json`
//! appends one record per (seed, event) in the `BENCH_milp.json`
//! trajectory layout, with the `speedup` column filled in.

use ndp_bench::{append_bench_json, BenchRecord, InstanceSpec};
use ndp_core::{
    DeploymentSession, EventDisposition, OptimalConfig, OptimalOutcome, PathMode, ScenarioEvent,
};
use ndp_milp::{BranchRule, SolveStatus, SolverOptions};
use ndp_platform::ProcessorId;
use ndp_taskset::{Task, TaskId};
use std::time::Instant;

/// One arm's answer to one event.
struct Timed {
    outcome: OptimalOutcome,
    seconds: f64,
}

/// Incremental-vs-scratch comparison for one event on one seed.
struct Row {
    seed: u64,
    label: &'static str,
    disposition: EventDisposition,
    incremental: Timed,
    scratch: Timed,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scratch.seconds / self.incremental.seconds.max(1e-9)
    }

    /// Both arms reached a proven answer (optimal or infeasible) — only
    /// then are they required to agree.
    fn both_proven(&self) -> bool {
        let proven = |s: SolveStatus| matches!(s, SolveStatus::Optimal | SolveStatus::Infeasible);
        proven(self.incremental.outcome.status) && proven(self.scratch.outcome.status)
    }

    fn diverged(&self) -> Option<String> {
        if !self.both_proven() {
            return None;
        }
        let (inc, scr) = (&self.incremental.outcome, &self.scratch.outcome);
        if inc.status != scr.status {
            return Some(format!(
                "seed {} {}: status {:?} (incremental) vs {:?} (scratch)",
                self.seed, self.label, inc.status, scr.status
            ));
        }
        if let (Some(a), Some(b)) = (inc.objective_mj, scr.objective_mj) {
            let tol = 1e-5 * a.abs().max(1.0);
            if (a - b).abs() > tol {
                return Some(format!(
                    "seed {} {}: objective {a:.6} (incremental) vs {b:.6} (scratch), tol {tol:.2e}",
                    self.seed, self.label
                ));
            }
        }
        None
    }
}

/// The paper's runtime scenario against a given instance: lose the
/// highest-numbered core, tighten the first task's deadline by 5 %, then
/// admit an aperiodic arrival that reads from task 0.
fn scenario(session: &DeploymentSession) -> Vec<(&'static str, ScenarioEvent)> {
    let problem = session.problem();
    let last_core = problem.num_processors() - 1;
    let t0 = problem.tasks.graph().task(TaskId(0));
    vec![
        ("fault", ScenarioEvent::CoreFault { processor: ProcessorId(last_core) }),
        (
            "deadline",
            ScenarioEvent::DeadlineChange { task: TaskId(0), deadline_ms: t0.deadline_ms * 0.95 },
        ),
        (
            "arrival",
            ScenarioEvent::TaskArrival {
                task: Task::new("aperiodic", t0.wcec * 0.5, t0.deadline_ms),
                predecessors: vec![(TaskId(0), 1.0)],
            },
        ),
    ]
}

fn config(budget: f64) -> OptimalConfig {
    let mut solver =
        SolverOptions::default().time_limit(budget).branch_rule(BranchRule::MostFractional);
    // Serial + tight gap: both arms must land on the same proven optimum,
    // so the comparison is answer-for-answer, not just wall-clock.
    solver.threads = 1;
    solver.relative_gap = 1e-6;
    OptimalConfig { solver, path_mode: PathMode::Multi, ..OptimalConfig::default() }
}

fn timed_solve(session: &mut DeploymentSession) -> Timed {
    let t0 = Instant::now();
    let outcome = session.solve().expect("solve must not error");
    Timed { outcome, seconds: t0.elapsed().as_secs_f64() }
}

/// Summed (incremental, from-scratch) wall-clock seconds over `rows`.
fn totals<'a>(rows: impl Iterator<Item = &'a Row>) -> (f64, f64) {
    rows.fold((0.0, 0.0), |(inc, scr), r| (inc + r.incremental.seconds, scr + r.scratch.seconds))
}

/// Runs the full scenario on one seed, returning one row per event.
fn run_seed(tasks: usize, mesh: usize, alpha: f64, seed: u64, budget: f64) -> Vec<Row> {
    let problem = InstanceSpec::new(tasks, mesh, alpha, seed).build();
    let cfg = config(budget);
    let events = {
        let probe = ndp_bench::session_for(&problem, &cfg);
        scenario(&probe)
    };

    // The incremental arm: one live session carries solver state across
    // the whole scenario. Its base solve warms the carry.
    let mut live = ndp_bench::session_for(&problem, &cfg);
    let base = timed_solve(&mut live);
    assert!(
        base.outcome.deployment.is_some(),
        "seed {seed}: the base instance must be feasible (got {:?})",
        base.outcome.status
    );

    let mut rows = Vec::new();
    for (idx, (label, event)) in events.iter().enumerate() {
        let disposition = live.apply(event).expect("scenario event must be valid");
        let t0 = Instant::now();
        let outcome = live.solve().expect("incremental re-solve must not error");
        let incremental = Timed { outcome, seconds: t0.elapsed().as_secs_f64() };

        // The from-scratch baseline: rebuild from the original instance,
        // replay the event history cold, build a fresh model and search
        // with no carried state. The replay itself is part of the cost of
        // not having a live session.
        let t0 = Instant::now();
        let mut scratch = ndp_bench::session_for(&problem, &cfg);
        for (_, e) in &events[..=idx] {
            scratch.apply(e).expect("scenario event must be valid");
        }
        let outcome = scratch.solve().expect("from-scratch solve must not error");
        let scratch = Timed { outcome, seconds: t0.elapsed().as_secs_f64() };

        rows.push(Row { seed, label, disposition, incremental, scratch });
    }
    rows
}

fn record(tasks: usize, mesh: usize, row: &Row) -> BenchRecord {
    let out = &row.incremental.outcome;
    BenchRecord {
        instance: format!("redeploy-M{tasks}-N{}-seed{}-{}", mesh * mesh, row.seed, row.label),
        kernel: "sparse-lu".into(),
        pricing: "dse".into(),
        node_order: "best-bound".into(),
        warm_start: true,
        cuts: true,
        heuristics: true,
        propagation: true,
        threads: 1,
        status: format!("{:?}", out.status),
        nodes: out.nodes,
        pivots: out.stats.simplex_iterations,
        refactorizations: Some(out.stats.refactorizations),
        factor_seconds: Some(out.stats.factor_seconds),
        strong_branch_seconds: Some(out.stats.strong_branch_seconds),
        warm_starts: out.stats.warm_starts,
        cold_starts: out.stats.cold_starts,
        cuts_applied: out.stats.cuts_applied,
        heuristic_incumbents: out.stats.heuristic_incumbents,
        propagated_bounds: out.stats.propagated_bounds,
        gap: match out.objective_mj {
            Some(obj) => (obj - out.best_bound_mj).abs() / obj.abs().max(1.0),
            None => f64::INFINITY,
        },
        dual_bound: out.best_bound_mj,
        seconds: row.incremental.seconds,
        speedup: Some(row.speedup()),
        batch: false,
        portfolio: false,
        sweep_wall_seconds: None,
        branch_rule: None,
    }
}

fn main() {
    let mut tasks = 5usize;
    let mut mesh = 2usize;
    let mut alpha = 1.6f64;
    let mut seeds = 3u64;
    let mut budget = 30.0f64;
    let mut smoke = false;
    let mut json: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        let val = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {}", args[i]);
            std::process::exit(2);
        });
        match args[i].as_str() {
            "--tasks" => tasks = val.parse().expect("--tasks takes a count"),
            "--mesh" => mesh = val.parse().expect("--mesh takes a side"),
            "--alpha" => alpha = val.parse().expect("--alpha takes a float"),
            "--seeds" => seeds = val.parse().expect("--seeds takes a count"),
            "--budget" => budget = val.parse().expect("--budget takes seconds"),
            "--append-json" => json = Some(val.clone()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if smoke {
        // The CI grid: small enough to prove every answer quickly, large
        // enough to exercise all three event kinds on multiple seeds. The
        // budget is generous so every arm proves instead of saturating the
        // time limit — proven runs make the node counts deterministic,
        // which the per-class gate below relies on.
        tasks = 4;
        mesh = 2;
        alpha = 1.6;
        seeds = 2;
        budget = 60.0;
    }

    println!(
        "# Online re-deployment: incremental vs from-scratch (M={tasks}, N={}, alpha={alpha}, \
         {seeds} seed(s), {budget} s budget)",
        mesh * mesh
    );
    println!(
        "{:>5} {:>9} {:>12} {:>11} {:>9} {:>12} {:>11} {:>9} {:>12} {:>9}",
        "seed",
        "event",
        "disposition",
        "inc obj",
        "inc nd",
        "inc s",
        "scratch s",
        "scr nd",
        "scratch obj",
        "speedup"
    );

    let mut rows = Vec::new();
    for seed in 0..seeds {
        rows.extend(run_seed(tasks, mesh, alpha, seed, budget));
    }

    let fmt_obj = |o: Option<f64>| o.map_or_else(|| "infeas".into(), |v| format!("{v:.4}"));
    for row in &rows {
        println!(
            "{:>5} {:>9} {:>12} {:>11} {:>9} {:>12.4} {:>11.4} {:>9} {:>12} {:>8.2}x",
            row.seed,
            row.label,
            format!("{:?}", row.disposition),
            fmt_obj(row.incremental.outcome.objective_mj),
            row.incremental.outcome.nodes,
            row.incremental.seconds,
            row.scratch.seconds,
            row.scratch.outcome.nodes,
            fmt_obj(row.scratch.outcome.objective_mj),
            row.speedup(),
        );
    }

    let (inc_total, scr_total) = totals(rows.iter());
    println!(
        "# aggregate over {} re-solves: incremental {inc_total:.3} s, from-scratch \
         {scr_total:.3} s, speedup {:.2}x",
        rows.len(),
        scr_total / inc_total.max(1e-9)
    );
    // Both arms rebuild a `Rebuilt` event's model from scratch and explore
    // the same tree, so host drift alone decides its ratio: the wall-clock
    // gate covers the events absorbed in place.
    let in_place: Vec<&Row> =
        rows.iter().filter(|r| r.disposition != EventDisposition::Rebuilt).collect();
    let (inc_gated, scr_gated) = totals(in_place.iter().copied());
    let aggregate = scr_gated / inc_gated.max(1e-9);
    println!(
        "# aggregate over {} re-solves absorbed in place (gated): incremental {inc_gated:.3} s, \
         from-scratch {scr_gated:.3} s, speedup {aggregate:.2}x",
        in_place.len()
    );
    // Per-event-class aggregates, so a regression in one class (e.g. the
    // arrival rebuild) cannot hide behind the speedups of the others.
    // Wall-clock is noisy per class on a loaded CI box, but node counts
    // under `threads = 1` are deterministic, so the per-class envelope is
    // gated on nodes and only the whole-scenario aggregate on time.
    struct ClassAgg {
        label: &'static str,
        inc: f64,
        scr: f64,
        inc_nodes: u64,
        scr_nodes: u64,
        all_incremental: bool,
    }
    let mut classes: Vec<ClassAgg> = Vec::new();
    for row in &rows {
        match classes.iter_mut().find(|c| c.label == row.label) {
            Some(c) => {
                c.inc += row.incremental.seconds;
                c.scr += row.scratch.seconds;
                c.inc_nodes += row.incremental.outcome.nodes;
                c.scr_nodes += row.scratch.outcome.nodes;
                c.all_incremental &= row.disposition == EventDisposition::Incremental;
            }
            None => classes.push(ClassAgg {
                label: row.label,
                inc: row.incremental.seconds,
                scr: row.scratch.seconds,
                inc_nodes: row.incremental.outcome.nodes,
                scr_nodes: row.scratch.outcome.nodes,
                all_incremental: row.disposition == EventDisposition::Incremental,
            }),
        }
    }
    for c in &classes {
        println!(
            "# class {:>9}: incremental {:.3} s / {} node(s), from-scratch {:.3} s / {} node(s), \
             speedup {:.2}x ({})",
            c.label,
            c.inc,
            c.inc_nodes,
            c.scr,
            c.scr_nodes,
            c.scr / c.inc.max(1e-9),
            if c.all_incremental { "warm re-entry" } else { "rebuild" }
        );
    }

    let divergences: Vec<String> = rows.iter().filter_map(Row::diverged).collect();
    for d in &divergences {
        eprintln!("DIVERGENCE: {d}");
    }

    if let Some(path) = &json {
        let records: Vec<BenchRecord> = rows.iter().map(|r| record(tasks, mesh, r)).collect();
        append_bench_json(path, &records).expect("append --append-json output");
        println!("appended {} record(s) to {path}", records.len());
    }

    if smoke {
        if !divergences.is_empty() {
            eprintln!("smoke gate FAILED: incremental re-solve diverged from scratch");
            std::process::exit(1);
        }
        let mut failed = false;
        // Node envelope per class: warm re-entry may reshape the tree (the
        // carried state encodes the *old* problem's exploration order), so
        // parity is not guaranteed node-for-node — but a class blowing past
        // 30% extra nodes (plus a small absolute floor for near-zero trees)
        // means the carried state has become actively harmful.
        for c in &classes {
            let cap = (c.scr_nodes as f64 * 1.30) as u64 + 64;
            if c.inc_nodes > cap {
                eprintln!(
                    "smoke gate FAILED: {} class explored {} node(s) incrementally vs {} \
                     from scratch (envelope {} node(s))",
                    c.label, c.inc_nodes, c.scr_nodes, cap
                );
                failed = true;
            }
        }
        // The engine must stay a net win in wall-clock over the events it
        // absorbs in place: warm fathoming on the easy events has to pay
        // for any tree reshaping on the hard ones.
        if !in_place.is_empty() && inc_gated >= scr_gated {
            eprintln!(
                "smoke gate FAILED: incremental in-place aggregate ({inc_gated:.3} s) not faster \
                 than from-scratch ({scr_gated:.3} s)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "smoke gate ok: proven answers agree, every class within its node envelope, \
             in-place aggregate {aggregate:.2}x"
        );
    }
}
