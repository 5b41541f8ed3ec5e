//! The decomposition heuristic (paper §III, Algorithms 1–3).
//!
//! The joint problem (10) is split into three sequential subproblems:
//!
//! 1. **P2 — frequency assignment & duplication** ([`phase1`], Algorithm 1):
//!    greedily assigns each task the V/F level that minimizes the running
//!    `max_i e_i^comp`, subject to the deadline (8); duplicates a task when
//!    its reliability misses `R_th` and picks the copy's level to restore
//!    constraint (5) with minimal energy increase.
//! 2. **P3 — allocation & scheduling** ([`phase2`], Algorithm 2): walks
//!    tasks layer by layer (WCEC-descending within a layer) and places each
//!    on the processor minimizing `max_k (E_k^comp + Ē_k^comm)` where
//!    `Ē_k^comm` is the paper's averaged communication estimate; start
//!    times come from list scheduling.
//! 3. **P4 — path selection** ([`phase3`], Algorithm 3): for every ordered
//!    processor pair picks the `ρ` (energy- vs time-oriented path) that
//!    minimizes the balanced energy while keeping every end time within the
//!    horizon (9).

use crate::error::{DeployError, Result};
use crate::problem::ProblemInstance;
use crate::schedule::{Schedule, SchedulePlan};
use crate::solution::{
    add_comm_energy, comp_energy_mj, cross_transfers, receive_time_ms, Deployment, EnergyReport,
    PathChoice,
};
use ndp_milp::{ObserverHandle, SolverEvent};
use ndp_noc::PathKind;
use ndp_platform::{LevelId, ProcessorId, ReliabilityModel};
use ndp_taskset::TaskId;

/// Result of phase 1: activation and frequency decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1 {
    /// `h_i` for all `2M` tasks.
    pub active: Vec<bool>,
    /// `y_il` as a level per task (meaningful for active tasks; inactive
    /// duplicates keep the level that satisfied (5) hypothetically).
    pub frequency: Vec<LevelId>,
}

/// Result of phase 2: allocation on top of phase 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2 {
    /// `x_ik` as a processor per task.
    pub processor: Vec<ProcessorId>,
    /// Start times computed with the paper's *averaged* receive-time
    /// estimates (Algorithm 2, line 18). Phase 3 replaces them with exact
    /// per-path times once `c_{βγρ}` is known.
    pub estimated: crate::schedule::Schedule,
}

/// Algorithm 1: frequency assignment and task duplication.
///
/// # Errors
///
/// [`DeployError::HeuristicInfeasible`] when a task has no level meeting its
/// deadline, or no duplicate level can restore the reliability threshold.
pub fn phase1(problem: &ProblemInstance) -> Result<Phase1> {
    let graph = problem.tasks.graph();
    let vf = problem.platform.vf_table();
    let n_tasks = graph.num_tasks();
    let mut active = vec![false; n_tasks];
    let mut frequency = vec![vf.fastest(); n_tasks];
    let mut assigned_energies: Vec<f64> = Vec::new();
    let infeasible = |reason: String| DeployError::HeuristicInfeasible { phase: 1, reason };

    for i in problem.tasks.originals() {
        active[i.index()] = true;
        let deadline = graph.task(i).deadline_ms;
        let current_max = assigned_energies.iter().cloned().fold(0.0, f64::max);
        let mut best: Option<(LevelId, f64)> = None;
        for (l, _) in vf.iter() {
            if problem.exec_time_ms(i, l) > deadline {
                continue;
            }
            let e = problem.exec_energy_mj(i, l);
            let e_max = current_max.max(e);
            if best.is_none_or(|(_, b)| e_max < b) {
                best = Some((l, e_max));
            }
        }
        let (l, _) = best.ok_or_else(|| {
            infeasible(format!("{i}: no V/F level meets the {deadline} ms deadline"))
        })?;
        frequency[i.index()] = l;
        assigned_energies.push(problem.exec_energy_mj(i, l));

        // Constraint (4): duplicate exactly when r_i < R_th.
        let r = problem.reliability(i, l);
        if r < problem.reliability_threshold {
            let copy = problem.tasks.copy_of(i);
            let deadline_c = graph.task(copy).deadline_ms;
            let current_max = assigned_energies.iter().cloned().fold(0.0, f64::max);
            let mut best: Option<(LevelId, f64)> = None;
            for (l2, _) in vf.iter() {
                if problem.exec_time_ms(copy, l2) > deadline_c {
                    continue;
                }
                let rc = problem.reliability(copy, l2);
                if ReliabilityModel::duplicated_reliability(r, rc) < problem.reliability_threshold {
                    continue; // constraint (5)
                }
                let e = problem.exec_energy_mj(copy, l2);
                let e_max = current_max.max(e);
                if best.is_none_or(|(_, b)| e_max < b) {
                    best = Some((l2, e_max));
                }
            }
            let (l2, _) = best.ok_or_else(|| {
                infeasible(format!(
                    "{i}: reliability {r:.6} below threshold and no duplicate level restores it"
                ))
            })?;
            active[copy.index()] = true;
            frequency[copy.index()] = l2;
            assigned_energies.push(problem.exec_energy_mj(copy, l2));
        }
    }
    Ok(Phase1 { active, frequency })
}

/// The paper's averaged per-processor communication energy estimates:
/// `Ē_k^comm = M₂ · (max_{βγ} e_{βγk1} + min_{βγ} e_{βγk2}) / 2`.
fn estimated_comm_energies(problem: &ProblemInstance, active: &[bool]) -> Vec<f64> {
    let n = problem.num_processors();
    if n <= 1 {
        return vec![0.0; n];
    }
    let m2 = active.iter().filter(|&&a| a).count() as f64;
    (0..n)
        .map(|k| {
            let node = problem.node_of(ProcessorId(k));
            let hi = problem.comm.max_energy_at_mj(node, PathKind::EnergyOriented);
            let lo = problem.comm.min_energy_at_mj(node, PathKind::TimeOriented);
            m2 * (hi + lo) / 2.0
        })
        .collect()
}

/// Algorithm 2: task allocation (scheduling follows by list scheduling).
pub fn phase2(problem: &ProblemInstance, p1: &Phase1) -> Phase2 {
    let n = problem.num_processors();
    let n_tasks = problem.tasks.graph().num_tasks();
    let plan = SchedulePlan::new(problem, &p1.active, &p1.frequency);
    let mut processor = vec![ProcessorId(0); n_tasks];
    let mut comp_energy = vec![0.0; n];
    let comm_estimates = estimated_comm_energies(problem, &p1.active);
    for &i in plan.order() {
        let e_i = problem.exec_energy_mj(i, p1.frequency[i.index()]);
        let mut best: Option<(usize, f64)> = None;
        for k in 0..n {
            comp_energy[k] += e_i;
            let max_energy = (0..n).map(|q| comp_energy[q] + comm_estimates[q]).fold(0.0, f64::max);
            comp_energy[k] -= e_i;
            if best.is_none_or(|(_, b)| max_energy < b) {
                best = Some((k, max_energy));
            }
        }
        let (k, _) = best.expect("at least one processor");
        processor[i.index()] = ProcessorId(k);
        comp_energy[k] += e_i;
    }
    // The paper's averaged receive-time estimate (Algorithm 2, line 18):
    // `t̄_i^comm = M₁ · (max t_{βγρ} + min t_{βγρ}) / 2`, with `M₁` the
    // task's active predecessors.
    let avg_transfer_ms =
        if n > 1 { (problem.comm.max_time_ms() + problem.comm.min_time_ms()) / 2.0 } else { 0.0 };
    let estimated =
        plan.run(&processor, |t| plan.active_predecessors(t).len() as f64 * avg_transfer_ms);
    Phase2 { processor, estimated }
}

/// Algorithm 3: multi-path selection. Returns the final path table.
///
/// Visits the ordered processor pairs once each and keeps, for each, the
/// `ρ` whose full deployment is better: a feasible makespan beats an
/// infeasible one, then lower balanced energy (feasible) or lower
/// makespan (infeasible) wins, ties keeping the earlier `ρ`.
pub fn phase3(problem: &ProblemInstance, p1: &Phase1, p2: &Phase2) -> PathChoice {
    let n = problem.num_processors();
    let processor = &p2.processor;
    let mut paths = PathChoice::uniform(n, PathKind::EnergyOriented);
    // A candidate changes only receive times and communication energies;
    // everything else is fixed by phases 1 and 2 and built once here.
    let plan = SchedulePlan::new(problem, &p1.active, &p1.frequency);
    let transfers: Vec<_> = cross_transfers(problem, &p1.active, processor).collect();
    let mut carries_traffic = vec![false; n * n];
    for &(beta, gamma, _) in &transfers {
        carries_traffic[beta.index() * n + gamma.index()] = true;
    }
    let mut report = EnergyReport {
        comp_mj: comp_energy_mj(problem, &p1.active, &p1.frequency, processor),
        comm_mj: vec![0.0; n],
    };
    let n_tasks = problem.tasks.graph().num_tasks();
    let mut schedule = Schedule { start_ms: vec![0.0; n_tasks], end_ms: vec![0.0; n_tasks] };
    let mut proc_free = vec![0.0; n];
    let mut eval = |paths: &PathChoice| -> (f64, f64) {
        let receive_time = |t: TaskId| {
            let preds = plan.active_predecessors(t).iter().copied();
            receive_time_ms(problem, processor, paths, processor[t.index()], preds)
        };
        let makespan = plan.run_into(processor, receive_time, &mut schedule, &mut proc_free);
        report.comm_mj.fill(0.0);
        add_comm_energy(problem, paths, transfers.iter().copied(), &mut report.comm_mj);
        (report.max_mj(), makespan)
    };
    for beta in 0..n {
        for gamma in 0..n {
            // Without an active transfer from β to γ both ρ evaluate to
            // the same bits, and the strict comparisons keep the first,
            // `EnergyOriented` — the pair's initial value.
            if beta == gamma || !carries_traffic[beta * n + gamma] {
                continue;
            }
            let (b, g) = (ProcessorId(beta), ProcessorId(gamma));
            let mut best: Option<(PathKind, f64, f64)> = None;
            for rho in PathKind::ALL {
                paths.set(b, g, rho);
                let (max_energy, makespan) = eval(&paths);
                let feasible = makespan <= problem.horizon_ms + 1e-9;
                let better = match best {
                    None => true,
                    Some((_, be, bm)) => {
                        let best_feasible = bm <= problem.horizon_ms + 1e-9;
                        match (feasible, best_feasible) {
                            (true, false) => true,
                            (false, true) => false,
                            (true, true) => max_energy < be,
                            (false, false) => makespan < bm,
                        }
                    }
                };
                if better {
                    best = Some((rho, max_energy, makespan));
                }
            }
            let (rho, _, _) = best.expect("two candidates evaluated");
            paths.set(b, g, rho);
        }
    }
    paths
}

/// Builds the full deployment for given phase results: start times come
/// from list scheduling with the *actual* per-path receive times.
fn assemble(problem: &ProblemInstance, p1: &Phase1, p2: &Phase2, paths: PathChoice) -> Deployment {
    let plan = SchedulePlan::new(problem, &p1.active, &p1.frequency);
    let schedule = plan.run(&p2.processor, |t| {
        let preds = plan.active_predecessors(t).iter().copied();
        receive_time_ms(problem, &p2.processor, &paths, p2.processor[t.index()], preds)
    });
    Deployment {
        active: p1.active.clone(),
        frequency: p1.frequency.clone(),
        processor: p2.processor.clone(),
        start_ms: schedule.start_ms,
        paths,
    }
}

/// The 3-phase heuristic: emits a [`SolverEvent::Phase`] marker (`"phase1"`
/// … `"phase3"`, `"assemble"`) into `observer` as each of the paper's
/// subproblems starts. The heuristic is deterministic, so the event
/// sequence is identical across runs.
///
/// # Errors
///
/// [`DeployError::HeuristicInfeasible`] when phase 1 cannot satisfy
/// deadline/reliability constraints, or the final schedule overruns `H`.
pub(crate) fn heuristic_deployment(
    problem: &ProblemInstance,
    observer: &ObserverHandle,
) -> Result<Deployment> {
    observer.emit(|| SolverEvent::Phase { name: "phase1" });
    let p1 = phase1(problem)?;
    observer.emit(|| SolverEvent::Phase { name: "phase2" });
    let p2 = phase2(problem, &p1);
    observer.emit(|| SolverEvent::Phase { name: "phase3" });
    let paths = phase3(problem, &p1, &p2);
    observer.emit(|| SolverEvent::Phase { name: "assemble" });
    let d = assemble(problem, &p1, &p2, paths);
    let makespan =
        problem.tasks.graph().task_ids().map(|t| d.end_ms(problem, t)).fold(0.0, f64::max);
    if makespan > problem.horizon_ms + 1e-9 {
        return Err(DeployError::HeuristicInfeasible {
            phase: 3,
            reason: format!(
                "makespan {makespan:.4} ms exceeds horizon {:.4} ms",
                problem.horizon_ms
            ),
        });
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{is_valid, validate};
    use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{generate, GeneratorConfig};

    fn instance(m: usize, side: usize, alpha: f64, seed: u64) -> ProblemInstance {
        let g = generate(&GeneratorConfig::typical(m), seed).unwrap();
        ProblemInstance::from_original(
            &g,
            Platform::homogeneous(side * side).unwrap(),
            WeightedNoc::new(Mesh2D::square(side).unwrap(), NocParams::typical(), seed).unwrap(),
            0.99,
            alpha,
        )
        .unwrap()
    }

    #[test]
    fn phase1_meets_deadlines_and_reliability() {
        let p = instance(12, 2, 2.0, 3);
        let p1 = phase1(&p).unwrap();
        for i in p.tasks.originals() {
            assert!(p1.active[i.index()]);
            let l = p1.frequency[i.index()];
            assert!(p.exec_time_ms(i, l) <= p.tasks.graph().task(i).deadline_ms + 1e-12);
            let r = p.reliability(i, l);
            let copy = p.tasks.copy_of(i);
            if r < p.reliability_threshold {
                assert!(p1.active[copy.index()], "{i} needs its copy");
                let rc = p.reliability(copy, p1.frequency[copy.index()]);
                assert!(ReliabilityModel::duplicated_reliability(r, rc) >= p.reliability_threshold);
            } else {
                assert!(!p1.active[copy.index()]);
            }
        }
    }

    #[test]
    fn phase2_assigns_every_active_task() {
        let p = instance(10, 2, 2.0, 5);
        let p1 = phase1(&p).unwrap();
        let p2 = phase2(&p, &p1);
        for t in p.tasks.graph().task_ids() {
            assert!(p2.processor[t.index()].index() < p.num_processors());
        }
    }

    #[test]
    fn full_heuristic_is_valid_under_generous_horizon() {
        for seed in 0..8 {
            let p = instance(10, 3, 4.0, seed);
            match heuristic_deployment(&p, &ObserverHandle::none()) {
                Ok(d) => {
                    let violations = validate(&p, &d);
                    assert!(violations.is_empty(), "seed {seed}: {violations:?}");
                }
                Err(DeployError::HeuristicInfeasible { .. }) => {
                    // Permitted: tight random instances can be infeasible.
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn tight_horizon_is_rejected_not_violated() {
        let p = instance(12, 2, 0.05, 7);
        match heuristic_deployment(&p, &ObserverHandle::none()) {
            Err(DeployError::HeuristicInfeasible { .. }) => {}
            Ok(d) => assert!(is_valid(&p, &d), "if it claims success it must be valid"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn duplication_count_grows_with_threshold() {
        let mk = |thr: f64| {
            let g = generate(&GeneratorConfig::typical(12), 11).unwrap();
            let p = ProblemInstance::from_original(
                &g,
                Platform::homogeneous(4).unwrap(),
                WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), 11).unwrap(),
                thr,
                4.0,
            )
            .unwrap();
            let p1 = phase1(&p).unwrap();
            p.tasks.duplicates().filter(|d| p1.active[d.index()]).count()
        };
        assert!(mk(0.999999) >= mk(0.9));
    }

    #[test]
    fn single_processor_platform_works() {
        let g = generate(&GeneratorConfig::typical(5), 2).unwrap();
        let p = ProblemInstance::from_original(
            &g,
            Platform::homogeneous(1).unwrap(),
            WeightedNoc::new(Mesh2D::new(1, 1).unwrap(), NocParams::typical(), 2).unwrap(),
            0.95,
            8.0,
        )
        .unwrap();
        match heuristic_deployment(&p, &ObserverHandle::none()) {
            Ok(d) => {
                assert!(is_valid(&p, &d));
                let report = d.energy_report(&p);
                assert_eq!(report.comm_mj.iter().sum::<f64>(), 0.0);
            }
            Err(DeployError::HeuristicInfeasible { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

#[cfg(test)]
mod phase3_tests {
    use super::*;
    use crate::problem::ProblemInstance;
    use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{generate, GeneratorConfig};

    fn instance(seed: u64) -> ProblemInstance {
        let g = generate(&GeneratorConfig::typical(12), seed).unwrap();
        ProblemInstance::from_original(
            &g,
            Platform::homogeneous(9).unwrap(),
            WeightedNoc::new(Mesh2D::square(3).unwrap(), NocParams::typical(), seed).unwrap(),
            0.95,
            5.0,
        )
        .unwrap()
    }

    /// The reference evaluation: every phase-3 candidate assembles a full
    /// deployment, list-schedules it by scanning for the first ready task,
    /// and re-accounts all of its energy edge by edge. The plan-based
    /// production path must reproduce it bit for bit.
    mod reference {
        use super::*;
        use ndp_noc::NodeId;

        pub fn list_schedule(
            problem: &ProblemInstance,
            active: &[bool],
            frequency: &[LevelId],
            processor: &[ProcessorId],
            comm_time: impl Fn(TaskId) -> f64,
        ) -> Schedule {
            let graph = problem.tasks.graph();
            let n_tasks = graph.num_tasks();
            let mut start = vec![0.0; n_tasks];
            let mut end = vec![0.0; n_tasks];
            let mut scheduled = vec![false; n_tasks];
            let mut proc_free = vec![0.0; problem.num_processors()];
            let mut remaining = crate::schedule::priority_order(problem, active);
            while !remaining.is_empty() {
                let pos = remaining
                    .iter()
                    .position(|&t| {
                        graph
                            .predecessors(t)
                            .all(|(p, _)| !active[p.index()] || scheduled[p.index()])
                    })
                    .expect("a DAG always has a ready task");
                let t = remaining.remove(pos);
                let ready = graph
                    .predecessors(t)
                    .filter(|(p, _)| active[p.index()])
                    .map(|(p, _)| end[p.index()])
                    .fold(0.0, f64::max)
                    + comm_time(t);
                let k = processor[t.index()].index();
                let s = ready.max(proc_free[k]);
                let e = s + problem.exec_time_ms(t, frequency[t.index()]);
                start[t.index()] = s;
                end[t.index()] = e;
                proc_free[k] = e;
                scheduled[t.index()] = true;
            }
            Schedule { start_ms: start, end_ms: end }
        }

        /// Phase 2's estimated schedule, the averaged receive time
        /// recomputed for every task.
        pub fn phase2_estimate(
            problem: &ProblemInstance,
            p1: &Phase1,
            processor: &[ProcessorId],
        ) -> Schedule {
            let graph = problem.tasks.graph();
            list_schedule(problem, &p1.active, &p1.frequency, processor, |i| {
                if problem.num_processors() <= 1 {
                    return 0.0;
                }
                let m1 = graph.predecessors(i).filter(|(p, _)| p1.active[p.index()]).count() as f64;
                let avg = (problem.comm.max_time_ms() + problem.comm.min_time_ms()) / 2.0;
                m1 * avg
            })
        }

        pub fn assemble(
            problem: &ProblemInstance,
            p1: &Phase1,
            p2: &Phase2,
            paths: PathChoice,
        ) -> Deployment {
            let mut d = Deployment {
                active: p1.active.clone(),
                frequency: p1.frequency.clone(),
                processor: p2.processor.clone(),
                start_ms: vec![0.0; problem.tasks.graph().num_tasks()],
                paths,
            };
            let schedule = list_schedule(problem, &p1.active, &p1.frequency, &p2.processor, |t| {
                d.comm_time_ms(problem, t)
            });
            d.start_ms = schedule.start_ms;
            d
        }

        pub fn makespan(problem: &ProblemInstance, d: &Deployment) -> f64 {
            problem.tasks.graph().task_ids().map(|t| d.end_ms(problem, t)).fold(0.0, f64::max)
        }

        /// `max_k E_k^all`, accounted edge by edge over the whole graph.
        pub fn max_energy_mj(problem: &ProblemInstance, d: &Deployment) -> f64 {
            let n = problem.num_processors();
            let mut comp = vec![0.0; n];
            let mut comm = vec![0.0; n];
            for i in problem.tasks.graph().task_ids() {
                if d.active[i.index()] {
                    comp[d.processor[i.index()].index()] +=
                        problem.exec_energy_mj(i, d.frequency[i.index()]);
                }
            }
            for (p, s, data) in problem.tasks.graph().edges() {
                if !(d.active[p.index()] && d.active[s.index()]) {
                    continue;
                }
                let (beta, gamma) = (d.processor[p.index()], d.processor[s.index()]);
                if beta == gamma {
                    continue;
                }
                let rho = d.paths.kind(beta, gamma);
                let (nb, ng) = (problem.node_of(beta), problem.node_of(gamma));
                for (k, c) in comm.iter_mut().enumerate() {
                    let e = problem.comm.energy_at_mj(nb, ng, NodeId(k), rho);
                    if e != 0.0 {
                        *c += data * e;
                    }
                }
            }
            comp.iter().zip(&comm).map(|(a, b)| a + b).fold(0.0, f64::max)
        }

        pub fn phase3(problem: &ProblemInstance, p1: &Phase1, p2: &Phase2) -> PathChoice {
            let n = problem.num_processors();
            let mut paths = PathChoice::uniform(n, PathKind::EnergyOriented);
            let eval = |paths: &PathChoice| -> (f64, f64) {
                let d = assemble(problem, p1, p2, paths.clone());
                (max_energy_mj(problem, &d), makespan(problem, &d))
            };
            for beta in 0..n {
                for gamma in 0..n {
                    if beta == gamma {
                        continue;
                    }
                    let (b, g) = (ProcessorId(beta), ProcessorId(gamma));
                    let mut best: Option<(PathKind, f64, f64)> = None;
                    for rho in PathKind::ALL {
                        paths.set(b, g, rho);
                        let (max_energy, makespan) = eval(&paths);
                        let feasible = makespan <= problem.horizon_ms + 1e-9;
                        let better = match best {
                            None => true,
                            Some((_, be, bm)) => {
                                let best_feasible = bm <= problem.horizon_ms + 1e-9;
                                match (feasible, best_feasible) {
                                    (true, false) => true,
                                    (false, true) => false,
                                    (true, true) => max_energy < be,
                                    (false, false) => makespan < bm,
                                }
                            }
                        };
                        if better {
                            best = Some((rho, max_energy, makespan));
                        }
                    }
                    let (rho, _, _) = best.expect("two candidates evaluated");
                    paths.set(b, g, rho);
                }
            }
            paths
        }
    }

    /// The plan-based phases 2 and 3 against the reference, on every `M` in
    /// 4..=40, mesh sides 1–4 and horizons from tight (α = 0.5 and 1.2
    /// reach infeasible candidates on both sides of the comparison) to
    /// loose: the same path table, and bit-equal estimated schedules,
    /// start times and balanced energies.
    #[test]
    fn phase3_matches_reference_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut deployed, mut rejected) = (0, 0);
        for seed in 0..3 {
            for m in (4 + seed as usize..=40).step_by(3) {
                for side in 1..=4 {
                    for alpha in [0.5, 1.2, 1.6, 3.0] {
                        let g = generate(&GeneratorConfig::typical(m), seed).unwrap();
                        let p = ProblemInstance::from_original(
                            &g,
                            Platform::homogeneous(side * side).unwrap(),
                            WeightedNoc::new(
                                Mesh2D::square(side).unwrap(),
                                NocParams::typical(),
                                seed,
                            )
                            .unwrap(),
                            0.99,
                            alpha,
                        )
                        .unwrap();
                        let key = format!("M={m} side={side} alpha={alpha} seed={seed}");
                        let p1 = phase1(&p).unwrap();
                        let p2 = phase2(&p, &p1);
                        let estimate = reference::phase2_estimate(&p, &p1, &p2.processor);
                        assert_eq!(bits(&p2.estimated.start_ms), bits(&estimate.start_ms), "{key}");
                        assert_eq!(bits(&p2.estimated.end_ms), bits(&estimate.end_ms), "{key}");
                        let paths = reference::phase3(&p, &p1, &p2);
                        assert_eq!(phase3(&p, &p1, &p2), paths, "{key}");
                        let expected = reference::assemble(&p, &p1, &p2, paths);
                        match heuristic_deployment(&p, &ObserverHandle::none()) {
                            Ok(d) => {
                                assert_eq!(bits(&d.start_ms), bits(&expected.start_ms), "{key}");
                                assert_eq!(
                                    d.energy_report(&p).max_mj().to_bits(),
                                    reference::max_energy_mj(&p, &expected).to_bits(),
                                    "{key}"
                                );
                                deployed += 1;
                            }
                            Err(DeployError::HeuristicInfeasible { phase: 3, .. }) => {
                                let makespan = reference::makespan(&p, &expected);
                                assert!(makespan > p.horizon_ms + 1e-9, "{key}");
                                rejected += 1;
                            }
                            Err(e) => panic!("{key}: {e}"),
                        }
                    }
                }
            }
        }
        assert!(deployed > 100 && rejected > 100, "{deployed} deployed, {rejected} rejected");
    }

    /// Phase 3's greedy per-pair refinement must never end up worse than
    /// either all-energy-paths or all-time-paths starting points (it starts
    /// from all-energy and only accepts improving feasible moves, so this
    /// checks the acceptance logic didn't regress).
    #[test]
    fn phase3_beats_uniform_choices() {
        let mut compared = 0;
        for seed in 0..6 {
            let p = instance(seed);
            let Ok(p1) = phase1(&p) else { continue };
            let p2 = phase2(&p, &p1);
            let tuned = phase3(&p, &p1, &p2);
            let energy_of =
                |paths: PathChoice| assemble(&p, &p1, &p2, paths).energy_report(&p).max_mj();
            let tuned_e = energy_of(tuned);
            let uniform_e =
                energy_of(PathChoice::uniform(p.num_processors(), PathKind::EnergyOriented));
            assert!(
                tuned_e <= uniform_e + 1e-9,
                "seed {seed}: tuned {tuned_e} vs uniform-energy {uniform_e}"
            );
            compared += 1;
        }
        assert!(compared > 0);
    }

    /// Phase 1 is deterministic and independent of the NoC (it only reasons
    /// about computation).
    #[test]
    fn phase1_independent_of_noc_seed() {
        let g = generate(&GeneratorConfig::typical(10), 3).unwrap();
        let build = |noc_seed| {
            ProblemInstance::from_original(
                &g,
                Platform::homogeneous(9).unwrap(),
                WeightedNoc::new(Mesh2D::square(3).unwrap(), NocParams::typical(), noc_seed)
                    .unwrap(),
                0.95,
                5.0,
            )
            .unwrap()
        };
        let a = phase1(&build(1)).unwrap();
        let b = phase1(&build(99)).unwrap();
        assert_eq!(a, b);
    }
}
