//! Deployment solutions and their energy accounting.

use crate::problem::ProblemInstance;
use ndp_noc::{NodeId, PathKind};
use ndp_platform::{LevelId, ProcessorId};
use ndp_taskset::TaskId;
use serde::{Deserialize, Serialize};

/// Per-ordered-pair path selection `c_{βγρ}`: which `ρ` moves data from
/// processor `β` to processor `γ`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathChoice {
    n: usize,
    kinds: Vec<PathKind>,
}

impl PathChoice {
    /// All pairs use `kind`.
    pub fn uniform(n: usize, kind: PathKind) -> Self {
        PathChoice { n, kinds: vec![kind; n * n] }
    }

    /// Number of processors.
    pub fn num_processors(&self) -> usize {
        self.n
    }

    /// The selected path kind for `beta → gamma`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn kind(&self, beta: ProcessorId, gamma: ProcessorId) -> PathKind {
        self.kinds[beta.index() * self.n + gamma.index()]
    }

    /// Overwrites the selection for one pair.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, beta: ProcessorId, gamma: ProcessorId, kind: PathKind) {
        self.kinds[beta.index() * self.n + gamma.index()] = kind;
    }
}

/// A complete deployment decision: the paper's `(y, h, x, u, c, tˢ)`.
///
/// `u` (the explicit task sequencing) is implied by the start times and
/// processor assignments; `i` precedes `j` on a shared processor iff
/// `end(i) ≤ start(j)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// `h_i`: whether task `i` executes.
    pub active: Vec<bool>,
    /// `y_il`: the level of each task (meaningful when active).
    pub frequency: Vec<LevelId>,
    /// `x_ik`: the processor of each task (meaningful when active).
    pub processor: Vec<ProcessorId>,
    /// `tˢ_i` in ms (meaningful when active).
    pub start_ms: Vec<f64>,
    /// `c_{βγρ}`.
    pub paths: PathChoice,
}

impl Deployment {
    /// Execution time of task `i` under this deployment (0 when inactive).
    pub fn comp_time_ms(&self, problem: &ProblemInstance, i: TaskId) -> f64 {
        if !self.active[i.index()] {
            return 0.0;
        }
        problem.exec_time_ms(i, self.frequency[i.index()])
    }

    /// End time `tᵉ_i = tˢ_i + t_i^comp` (equals start when inactive).
    pub fn end_ms(&self, problem: &ProblemInstance, i: TaskId) -> f64 {
        self.start_ms[i.index()] + self.comp_time_ms(problem, i)
    }

    /// Total receive time `t_i^comm` of task `i`: the sum over its *active*
    /// predecessors allocated to other processors of the selected path's
    /// latency (paper §II-B.5).
    pub fn comm_time_ms(&self, problem: &ProblemInstance, i: TaskId) -> f64 {
        if !self.active[i.index()] {
            return 0.0;
        }
        let preds = problem.tasks.graph().predecessors(i).filter(|(p, _)| self.active[p.index()]);
        receive_time_ms(problem, &self.processor, &self.paths, self.processor[i.index()], preds)
    }

    /// Number of active tasks allocated to each processor.
    pub fn tasks_per_processor(&self, problem: &ProblemInstance) -> Vec<usize> {
        let mut counts = vec![0usize; problem.num_processors()];
        for i in problem.tasks.graph().task_ids() {
            if self.active[i.index()] {
                counts[self.processor[i.index()].index()] += 1;
            }
        }
        counts
    }

    /// Number of duplicate tasks that actually run (`M_d` of Fig. 2(c)).
    pub fn duplicated_count(&self, problem: &ProblemInstance) -> usize {
        problem.tasks.duplicates().filter(|d| self.active[d.index()]).count()
    }

    /// Full per-processor energy breakdown.
    pub fn energy_report(&self, problem: &ProblemInstance) -> EnergyReport {
        let mut comm = vec![0.0; problem.num_processors()];
        add_comm_energy(
            problem,
            &self.paths,
            cross_transfers(problem, &self.active, &self.processor),
            &mut comm,
        );
        EnergyReport {
            comp_mj: comp_energy_mj(problem, &self.active, &self.frequency, &self.processor),
            comm_mj: comm,
        }
    }
}

/// The receive time of a task on `gamma` whose active predecessors are
/// `preds`: each predecessor on another processor adds the selected
/// path's latency, in the order given.
pub(crate) fn receive_time_ms(
    problem: &ProblemInstance,
    processor: &[ProcessorId],
    paths: &PathChoice,
    gamma: ProcessorId,
    preds: impl IntoIterator<Item = (TaskId, f64)>,
) -> f64 {
    let mut total = 0.0;
    for (p, data) in preds {
        let beta = processor[p.index()];
        if beta == gamma {
            continue;
        }
        let rho = paths.kind(beta, gamma);
        let t = problem.comm.time_ms(problem.node_of(beta), problem.node_of(gamma), rho);
        total += problem.time_weight(data) * t;
    }
    total
}

/// `E_k^comp` per processor: active tasks' execution energies, summed in
/// task-id order.
pub(crate) fn comp_energy_mj(
    problem: &ProblemInstance,
    active: &[bool],
    frequency: &[LevelId],
    processor: &[ProcessorId],
) -> Vec<f64> {
    let mut comp = vec![0.0; problem.num_processors()];
    for i in problem.tasks.graph().task_ids() {
        if active[i.index()] {
            comp[processor[i.index()].index()] += problem.exec_energy_mj(i, frequency[i.index()]);
        }
    }
    comp
}

/// The edges between active tasks on different processors, as
/// `(β, γ, data size)` in `edges()` order.
pub(crate) fn cross_transfers<'a>(
    problem: &'a ProblemInstance,
    active: &'a [bool],
    processor: &'a [ProcessorId],
) -> impl Iterator<Item = (ProcessorId, ProcessorId, f64)> + 'a {
    problem
        .tasks
        .graph()
        .edges()
        .filter(move |&(p, s, _)| active[p.index()] && active[s.index()])
        .map(move |(p, s, data)| (processor[p.index()], processor[s.index()], data))
        .filter(|&(beta, gamma, _)| beta != gamma)
}

/// Adds each transfer's per-processor energy under `paths` to `comm`, in
/// the order given (zero entries of `e_{βγkρ}` are skipped).
pub(crate) fn add_comm_energy(
    problem: &ProblemInstance,
    paths: &PathChoice,
    transfers: impl IntoIterator<Item = (ProcessorId, ProcessorId, f64)>,
    comm: &mut [f64],
) {
    for (beta, gamma, data) in transfers {
        let rho = paths.kind(beta, gamma);
        let (nb, ng) = (problem.node_of(beta), problem.node_of(gamma));
        for (k, c) in comm.iter_mut().enumerate() {
            let e = problem.comm.energy_at_mj(nb, ng, NodeId(k), rho);
            if e != 0.0 {
                *c += data * e;
            }
        }
    }
}

/// Per-processor energy totals of a deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// `E_k^comp` in mJ.
    pub comp_mj: Vec<f64>,
    /// `E_k^comm` in mJ.
    pub comm_mj: Vec<f64>,
}

impl EnergyReport {
    fn totals(&self) -> impl Iterator<Item = f64> + '_ {
        self.comp_mj.iter().zip(&self.comm_mj).map(|(a, b)| a + b)
    }

    /// `E_k^all = E_k^comp + E_k^comm` for each processor.
    pub fn per_processor_mj(&self) -> Vec<f64> {
        self.totals().collect()
    }

    /// The paper's objective: `max_k E_k^all`.
    pub fn max_mj(&self) -> f64 {
        self.totals().fold(0.0, f64::max)
    }

    /// Total system energy `Σ_k E_k^all` (the ME objective).
    pub fn total_mj(&self) -> f64 {
        self.totals().sum()
    }

    /// The balance index `φ = max_k E_k / min_{k: E_k ≠ 0} E_k` of
    /// Fig. 2(d)/(e). Returns 1 when at most one processor is loaded.
    pub fn balance_index(&self) -> f64 {
        let loaded: Vec<f64> = self.per_processor_mj().into_iter().filter(|&e| e > 0.0).collect();
        if loaded.len() <= 1 {
            return 1.0;
        }
        let max = loaded.iter().cloned().fold(f64::MIN, f64::max);
        let min = loaded.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_path_choice() {
        let mut pc = PathChoice::uniform(3, PathKind::EnergyOriented);
        assert_eq!(pc.kind(ProcessorId(0), ProcessorId(2)), PathKind::EnergyOriented);
        pc.set(ProcessorId(0), ProcessorId(2), PathKind::TimeOriented);
        assert_eq!(pc.kind(ProcessorId(0), ProcessorId(2)), PathKind::TimeOriented);
        assert_eq!(pc.kind(ProcessorId(2), ProcessorId(0)), PathKind::EnergyOriented);
    }

    #[test]
    fn balance_index_edge_cases() {
        let r = EnergyReport { comp_mj: vec![0.0, 0.0], comm_mj: vec![0.0, 0.0] };
        assert_eq!(r.balance_index(), 1.0);
        let r = EnergyReport { comp_mj: vec![2.0, 0.0], comm_mj: vec![0.0, 0.0] };
        assert_eq!(r.balance_index(), 1.0);
        let r = EnergyReport { comp_mj: vec![2.0, 1.0], comm_mj: vec![0.0, 0.0] };
        assert_eq!(r.balance_index(), 2.0);
    }

    #[test]
    fn report_totals() {
        let r = EnergyReport { comp_mj: vec![1.0, 2.0], comm_mj: vec![0.5, 0.25] };
        assert_eq!(r.max_mj(), 2.25);
        assert_eq!(r.total_mj(), 3.75);
    }
}
