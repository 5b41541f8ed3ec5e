//! List scheduling shared by the heuristic phases.
//!
//! Given activation, frequency and allocation decisions, computes start
//! times that satisfy the precedence constraint (6) and the non-overlapping
//! constraint (7): tasks become ready when every active predecessor has
//! finished plus the task's receive time `t_i^comm`, and each processor runs
//! one task at a time in the paper's layer-major priority order
//! (Algorithm 2, step b: layers ascending, WCEC descending within a layer).
//!
//! Scheduling is split in two. A [`SchedulePlan`] holds what activation and
//! frequency fix: the priority order, each task's active predecessors and
//! its execution time. Running the plan against an allocation and a
//! receive-time function places the tasks. Phase 2, the final assembly and
//! every path candidate of phase 3 run the same plan code.

use crate::problem::ProblemInstance;
use ndp_platform::{LevelId, ProcessorId};
use ndp_taskset::TaskId;

/// Computed start/end times.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Start times in ms (0 for inactive tasks).
    pub start_ms: Vec<f64>,
    /// End times in ms (equal to start for inactive tasks).
    pub end_ms: Vec<f64>,
}

impl Schedule {
    /// The completion time of the latest task.
    pub fn makespan_ms(&self) -> f64 {
        self.end_ms.iter().cloned().fold(0.0, f64::max)
    }
}

/// The paper's task priority: layer ascending, WCEC descending, id
/// ascending. Returns active task ids in scheduling order.
pub fn priority_order(problem: &ProblemInstance, active: &[bool]) -> Vec<TaskId> {
    let graph = problem.tasks.graph();
    let layers = graph.layers();
    let mut order: Vec<TaskId> = graph.task_ids().filter(|t| active[t.index()]).collect();
    order.sort_by(|&a, &b| {
        layers[a.index()]
            .cmp(&layers[b.index()])
            .then_with(|| {
                graph.task(b).wcec.partial_cmp(&graph.task(a).wcec).expect("finite WCECs")
            })
            .then_with(|| a.cmp(&b))
    });
    order
}

/// The allocation-independent part of list scheduling.
#[derive(Debug)]
pub(crate) struct SchedulePlan {
    /// Active tasks in priority order. `layers()` puts every predecessor in
    /// a strictly lower layer, so the layer-major order is topological and
    /// each task is ready when its turn comes.
    order: Vec<TaskId>,
    /// `preds[pred_start[i]..pred_start[i + 1]]` are the active
    /// predecessors of task `i` with their data sizes, ascending by id.
    pred_start: Vec<usize>,
    preds: Vec<(TaskId, f64)>,
    /// Execution time of each task at its level (0 when inactive).
    exec_ms: Vec<f64>,
    num_processors: usize,
}

impl SchedulePlan {
    /// Fixes the order, predecessor lists and execution times for the
    /// given activation and frequency decisions.
    pub(crate) fn new(problem: &ProblemInstance, active: &[bool], frequency: &[LevelId]) -> Self {
        let graph = problem.tasks.graph();
        let mut pred_start = Vec::with_capacity(graph.num_tasks() + 1);
        let mut preds = Vec::new();
        let mut exec_ms = vec![0.0; graph.num_tasks()];
        pred_start.push(0);
        for t in graph.task_ids() {
            if active[t.index()] {
                preds.extend(graph.predecessors(t).filter(|(p, _)| active[p.index()]));
                exec_ms[t.index()] = problem.exec_time_ms(t, frequency[t.index()]);
            }
            pred_start.push(preds.len());
        }
        let plan = SchedulePlan {
            order: priority_order(problem, active),
            pred_start,
            preds,
            exec_ms,
            num_processors: problem.num_processors(),
        };
        debug_assert!(plan.each_task_is_ready_in_turn(), "priority order must be topological");
        plan
    }

    fn each_task_is_ready_in_turn(&self) -> bool {
        let mut done = vec![false; self.exec_ms.len()];
        self.order.iter().all(|&t| {
            let ready = self.active_predecessors(t).iter().all(|(p, _)| done[p.index()]);
            done[t.index()] = true;
            ready
        })
    }

    /// Active tasks in scheduling order.
    pub(crate) fn order(&self) -> &[TaskId] {
        &self.order
    }

    /// The active predecessors of `t` with data sizes, ascending by id
    /// (empty when `t` is inactive).
    pub(crate) fn active_predecessors(&self, t: TaskId) -> &[(TaskId, f64)] {
        &self.preds[self.pred_start[t.index()]..self.pred_start[t.index() + 1]]
    }

    /// Places every active task on `processor[t]` in priority order,
    /// writing its start and end times into `schedule` and returning the
    /// makespan. Entries of inactive tasks are left as they are.
    /// `proc_free` is scratch with one slot per processor.
    ///
    /// `comm_time(t)` is the total receive time `t_t^comm`.
    pub(crate) fn run_into(
        &self,
        processor: &[ProcessorId],
        mut comm_time: impl FnMut(TaskId) -> f64,
        schedule: &mut Schedule,
        proc_free: &mut [f64],
    ) -> f64 {
        proc_free.fill(0.0);
        let mut makespan = 0.0;
        for &t in &self.order {
            let i = t.index();
            let ready = self
                .active_predecessors(t)
                .iter()
                .map(|(p, _)| schedule.end_ms[p.index()])
                .fold(0.0, f64::max)
                + comm_time(t);
            let k = processor[i].index();
            let s = ready.max(proc_free[k]);
            let e = s + self.exec_ms[i];
            schedule.start_ms[i] = s;
            schedule.end_ms[i] = e;
            proc_free[k] = e;
            makespan = f64::max(makespan, e);
        }
        makespan
    }

    /// [`run_into`](SchedulePlan::run_into) on fresh buffers (inactive
    /// tasks at 0).
    pub(crate) fn run(
        &self,
        processor: &[ProcessorId],
        comm_time: impl FnMut(TaskId) -> f64,
    ) -> Schedule {
        let n_tasks = self.exec_ms.len();
        let mut schedule = Schedule { start_ms: vec![0.0; n_tasks], end_ms: vec![0.0; n_tasks] };
        self.run_into(processor, comm_time, &mut schedule, &mut vec![0.0; self.num_processors]);
        schedule
    }
}

/// Builds the schedule by list scheduling.
///
/// `comm_time(i)` must return the total receive time `t_i^comm` of task `i`
/// under the caller's current (or estimated) allocation and path choice.
pub fn list_schedule(
    problem: &ProblemInstance,
    active: &[bool],
    frequency: &[LevelId],
    processor: &[ProcessorId],
    comm_time: impl Fn(TaskId) -> f64,
) -> Schedule {
    SchedulePlan::new(problem, active, frequency).run(processor, comm_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemInstance;
    use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{Task, TaskGraph};

    fn chain_problem() -> ProblemInstance {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::new("a", 1e6, 50.0));
        let b = g.add_task(Task::new("b", 2e6, 50.0));
        g.add_edge(a, b, 2.0).unwrap();
        ProblemInstance::from_original(
            &g,
            Platform::homogeneous(4).unwrap(),
            WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), 0).unwrap(),
            0.9,
            10.0,
        )
        .unwrap()
    }

    #[test]
    fn chain_respects_precedence_and_comm() {
        let p = chain_problem();
        let fastest = p.platform.vf_table().fastest();
        let active = vec![true, true, false, false];
        let freq = vec![fastest; 4];
        let procs = vec![ProcessorId(0), ProcessorId(1), ProcessorId(0), ProcessorId(0)];
        let s =
            list_schedule(&p, &active, &freq, &procs, |t| if t == TaskId(1) { 0.5 } else { 0.0 });
        let end_a = s.end_ms[0];
        assert!((s.start_ms[1] - (end_a + 0.5)).abs() < 1e-12);
        assert!(s.makespan_ms() > end_a);
    }

    #[test]
    fn same_processor_tasks_serialize() {
        let p = chain_problem();
        let fastest = p.platform.vf_table().fastest();
        // Two independent tasks (a and the *duplicate* of a) on processor 0.
        let active = vec![true, false, true, false];
        let freq = vec![fastest; 4];
        let procs = vec![ProcessorId(0); 4];
        let s = list_schedule(&p, &active, &freq, &procs, |_| 0.0);
        let (s0, e0) = (s.start_ms[0], s.end_ms[0]);
        let (s2, e2) = (s.start_ms[2], s.end_ms[2]);
        assert!(e0 <= s2 + 1e-12 || e2 <= s0 + 1e-12, "intervals must not overlap");
    }

    #[test]
    fn inactive_tasks_stay_at_zero() {
        let p = chain_problem();
        let fastest = p.platform.vf_table().fastest();
        let active = vec![true, true, false, false];
        let freq = vec![fastest; 4];
        let procs = vec![ProcessorId(0); 4];
        let s = list_schedule(&p, &active, &freq, &procs, |_| 0.0);
        assert_eq!(s.start_ms[2], 0.0);
        assert_eq!(s.end_ms[3], 0.0);
    }

    #[test]
    fn priority_order_is_layer_major() {
        let p = chain_problem();
        let order = priority_order(&p, &[true, true, true, true]);
        let layers = p.tasks.graph().layers();
        for w in order.windows(2) {
            assert!(layers[w[0].index()] <= layers[w[1].index()]);
        }
    }
}
