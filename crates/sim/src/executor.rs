//! Discrete-event execution of a deployment.
//!
//! Replays a [`Deployment`] dynamically. The deployment's per-processor
//! task *order* (the paper's `u_ij` sequencing decision, implied by the
//! static start times) is honoured, but actual times are event-driven: a
//! task begins as soon as its processor reaches it in its queue and every
//! input transfer has arrived over the NoC. Consequently, for a valid
//! deployment, every dynamic end time is ≤ its static counterpart — an
//! invariant the test suite checks.
//!
//! Energy is accounted per processor from the same platform/NoC models the
//! optimizer used, so the trace totals must reproduce
//! [`Deployment::energy_report`] exactly.

use ndp_core::{Deployment, ProblemInstance};
use ndp_taskset::TaskId;

/// Timing record for one executed task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTrace {
    /// The task.
    pub task: TaskId,
    /// Dynamic start in ms.
    pub start_ms: f64,
    /// Dynamic end in ms.
    pub end_ms: f64,
}

/// Result of executing a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// Per-task timings (active tasks only), in task-id order.
    pub tasks: Vec<TaskTrace>,
    /// Completion time of the last task, ms.
    pub makespan_ms: f64,
    /// Per-processor computation energy, mJ.
    pub comp_energy_mj: Vec<f64>,
    /// Per-processor communication energy, mJ.
    pub comm_energy_mj: Vec<f64>,
    /// Per-processor busy time, ms.
    pub busy_ms: Vec<f64>,
}

impl ExecutionTrace {
    /// Dynamic end time of `task`, if it was active.
    pub fn end_of(&self, task: TaskId) -> Option<f64> {
        self.tasks.iter().find(|t| t.task == task).map(|t| t.end_ms)
    }

    /// Total energy over all processors, mJ.
    pub fn total_energy_mj(&self) -> f64 {
        self.comp_energy_mj.iter().sum::<f64>() + self.comm_energy_mj.iter().sum::<f64>()
    }

    /// Per-processor utilization `busy / makespan` in `[0, 1]`; all zeros
    /// when nothing executed.
    pub fn utilization(&self) -> Vec<f64> {
        if self.makespan_ms <= 0.0 {
            return vec![0.0; self.busy_ms.len()];
        }
        self.busy_ms.iter().map(|b| b / self.makespan_ms).collect()
    }
}

/// Executes `deployment` on `problem`'s platform.
///
/// # Panics
///
/// Panics if the deployment's vectors have the wrong lengths for the
/// problem, or if the per-processor order deadlocks against the precedence
/// graph (impossible for deployments that pass
/// [`ndp_core::validate`]).
pub fn execute(problem: &ProblemInstance, deployment: &Deployment) -> ExecutionTrace {
    let graph = problem.tasks.graph();
    let n_tasks = graph.num_tasks();
    assert_eq!(deployment.active.len(), n_tasks, "deployment/problem mismatch");
    let n = problem.num_processors();
    let active = &deployment.active;

    // Per-processor queues in static start order (the u_ij decision).
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n_tasks {
        if active[i] {
            queues[deployment.processor[i].index()].push(i);
        }
    }
    for q in &mut queues {
        q.sort_by(|&a, &b| {
            deployment.start_ms[a]
                .partial_cmp(&deployment.start_ms[b])
                .expect("finite start times")
                .then_with(|| a.cmp(&b))
        });
    }

    let mut done = vec![false; n_tasks];
    let mut end = vec![0.0_f64; n_tasks];
    let mut comm_delay = vec![0.0_f64; n_tasks];
    let mut heads = vec![0usize; n];
    let mut proc_free = vec![0.0_f64; n];
    let mut busy = vec![0.0_f64; n];
    let mut comp_energy = vec![0.0_f64; n];
    let mut comm_energy = vec![0.0_f64; n];
    let mut traces: Vec<TaskTrace> = Vec::new();
    let total: usize = queues.iter().map(Vec::len).sum();

    for _ in 0..total {
        // Find a processor whose queue head has all inputs computed.
        let mut chosen: Option<(usize, usize)> = None;
        for k in 0..n {
            if heads[k] >= queues[k].len() {
                continue;
            }
            let i = queues[k][heads[k]];
            let ready =
                graph.predecessors(TaskId(i)).all(|(p, _)| !active[p.index()] || done[p.index()]);
            if ready {
                chosen = Some((k, i));
                break;
            }
        }
        let (k, i) = chosen.expect("per-processor order consistent with precedence");
        heads[k] += 1;

        // Account transfers from predecessors and compute readiness.
        let mut inputs_done = 0.0_f64;
        for (p, data) in graph.predecessors(TaskId(i)) {
            if !active[p.index()] {
                continue;
            }
            inputs_done = inputs_done.max(end[p.index()]);
            let beta = deployment.processor[p.index()];
            let gamma = deployment.processor[i];
            if beta != gamma {
                let rho = deployment.paths.kind(beta, gamma);
                let (nb, ng) = (problem.node_of(beta), problem.node_of(gamma));
                // Receive serialization (§II-B.5): every incoming transfer
                // adds to the task's receive budget.
                comm_delay[i] += problem.time_weight(data) * problem.comm.time_ms(nb, ng, rho);
                // Only the path's routers have a non-zero `e_{βγkρ}`.
                for &k2 in problem.comm.path(nb, ng, rho).nodes() {
                    let e = problem.comm.energy_at_mj(nb, ng, k2, rho);
                    if e != 0.0 {
                        comm_energy[k2.index()] += data * e;
                    }
                }
            }
        }
        let ready_at = inputs_done + comm_delay[i];
        let start = ready_at.max(proc_free[k]);
        let dur = problem.exec_time_ms(TaskId(i), deployment.frequency[i]);
        let finish = start + dur;
        proc_free[k] = finish;
        busy[k] += dur;
        comp_energy[k] += problem.exec_energy_mj(TaskId(i), deployment.frequency[i]);
        end[i] = finish;
        done[i] = true;
        traces.push(TaskTrace { task: TaskId(i), start_ms: start, end_ms: finish });
    }

    traces.sort_by_key(|t| t.task);
    let makespan = traces.iter().map(|t| t.end_ms).fold(0.0, f64::max);
    ExecutionTrace {
        tasks: traces,
        makespan_ms: makespan,
        comp_energy_mj: comp_energy,
        comm_energy_mj: comm_energy,
        busy_ms: busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_core::{validate, DeploymentSession, ProblemInstance};
    use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{generate, GeneratorConfig};

    fn solved(m: usize, seed: u64) -> Option<(ProblemInstance, ndp_core::Deployment)> {
        let g = generate(&GeneratorConfig::typical(m), seed).unwrap();
        let p = ProblemInstance::from_original(
            &g,
            Platform::homogeneous(9).unwrap(),
            WeightedNoc::new(Mesh2D::square(3).unwrap(), NocParams::typical(), seed).unwrap(),
            0.97,
            4.0,
        )
        .unwrap();
        let d = DeploymentSession::new(p.clone()).heuristic().ok()?;
        assert!(validate(&p, &d).is_empty());
        Some((p, d))
    }

    #[test]
    fn energy_matches_static_report_exactly() {
        let mut checked = 0;
        for seed in 0..10 {
            let Some((p, d)) = solved(10, seed) else { continue };
            let trace = execute(&p, &d);
            let report = d.energy_report(&p);
            for k in 0..p.num_processors() {
                assert!((trace.comp_energy_mj[k] - report.comp_mj[k]).abs() < 1e-9);
                assert!((trace.comm_energy_mj[k] - report.comm_mj[k]).abs() < 1e-9);
            }
            checked += 1;
        }
        assert!(checked > 0, "at least one feasible instance expected");
    }

    #[test]
    fn dynamic_never_later_than_static() {
        let mut checked = 0;
        for seed in 0..10 {
            let Some((p, d)) = solved(8, seed) else { continue };
            let trace = execute(&p, &d);
            for t in &trace.tasks {
                let static_end = d.end_ms(&p, t.task);
                assert!(
                    t.end_ms <= static_end + 1e-6,
                    "seed {seed}: {} dynamic {} > static {}",
                    t.task,
                    t.end_ms,
                    static_end
                );
            }
            assert!(trace.makespan_ms <= p.horizon_ms + 1e-6);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn all_active_tasks_execute_exactly_once() {
        let Some((p, d)) = solved(12, 3) else { return };
        let trace = execute(&p, &d);
        let active_count = d.active.iter().filter(|&&a| a).count();
        assert_eq!(trace.tasks.len(), active_count);
    }

    #[test]
    fn utilization_bounded_and_consistent() {
        let Some((p, d)) = solved(10, 7) else { return };
        let trace = execute(&p, &d);
        for (k, u) in trace.utilization().iter().enumerate() {
            assert!((0.0..=1.0 + 1e-9).contains(u), "θ{k} utilization {u}");
            assert!((u * trace.makespan_ms - trace.busy_ms[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn busy_time_sums_exec_times() {
        let Some((p, d)) = solved(9, 5) else { return };
        let trace = execute(&p, &d);
        let total_busy: f64 = trace.busy_ms.iter().sum();
        let expected: f64 = p
            .tasks
            .graph()
            .task_ids()
            .filter(|t| d.active[t.index()])
            .map(|t| p.exec_time_ms(t, d.frequency[t.index()]))
            .sum();
        assert!((total_busy - expected).abs() < 1e-9);
    }
}
