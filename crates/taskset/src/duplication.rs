//! Task duplication transform (paper §II-A.3, Fig. 1(c)).
//!
//! For reliability, every task `τ_i (i ∈ 1..M)` gets a *potential* copy
//! `τ_{i+M}` with identical execution cycles. Duplication rewires the
//! dependencies: if `τ_i → τ_j` in the original graph, then all four of
//! `τ_i → τ_j`, `τ_{i+M} → τ_j`, `τ_i → τ_{j+M}` and `τ_{i+M} → τ_{j+M}`
//! carry data in the expanded graph (a successor must receive its inputs
//! from whichever copies exist).
//!
//! Whether a copy actually runs (`h_{i+M}`) is decided by the deployment;
//! the expanded graph merely makes room for every copy.

use crate::graph::TaskGraph;
use crate::task::{Task, TaskId};
use serde::{Deserialize, Serialize};

/// A task graph expanded with one potential duplicate per original task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DuplicatedGraph {
    graph: TaskGraph,
    original_count: usize,
}

impl DuplicatedGraph {
    /// Expands `original` with duplicates `τ_{i+M}` and the rewired edges.
    pub fn expand(original: &TaskGraph) -> Self {
        let m = original.num_tasks();
        let mut graph = TaskGraph::new();
        for t in original.task_ids() {
            let task = original.task(t);
            graph.add_task(task.clone());
        }
        for t in original.task_ids() {
            let task = original.task(t);
            graph.add_task(Task::new(format!("{}'", task.name), task.wcec, task.deadline_ms));
        }
        for (p, s, d) in original.edges() {
            let pc = TaskId(p.index() + m);
            let sc = TaskId(s.index() + m);
            // All four combinations. Each maps an original edge onto copies
            // of its endpoints, so a cycle here would map back to one in
            // `original`: the expansion of a DAG is a DAG, and the edges
            // skip `add_edge`'s per-edge cycle search.
            graph.insert_edge(p, s, d);
            graph.insert_edge(pc, s, d);
            graph.insert_edge(p, sc, d);
            graph.insert_edge(pc, sc, d);
        }
        debug_assert_eq!(graph.topological_order().len(), 2 * m, "expansion must stay acyclic");
        DuplicatedGraph { graph, original_count: m }
    }

    /// The expanded graph with `2M` tasks.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Number of original tasks `M`.
    pub fn original_count(&self) -> usize {
        self.original_count
    }

    /// Overwrites the relative deadline of an original task *and* its
    /// duplicate (the copy inherits the original's deadline by
    /// construction). Used by online re-deployment when a deadline changes
    /// mid-mission.
    ///
    /// # Panics
    ///
    /// Panics if `original` is not an original task id (`i < M`) or
    /// `deadline_ms` is non-positive or non-finite.
    pub fn set_deadline(&mut self, original: TaskId, deadline_ms: f64) {
        assert!(original.index() < self.original_count, "set_deadline takes an original task id");
        assert!(deadline_ms.is_finite() && deadline_ms > 0.0, "deadline must be positive");
        self.graph.task_mut(original).deadline_ms = deadline_ms;
        self.graph.task_mut(TaskId(original.index() + self.original_count)).deadline_ms =
            deadline_ms;
    }

    /// Rebuilds the original (non-duplicated) graph: tasks `0..M` and the
    /// edges among them. `expand(&g.to_original()) == g` for any graph
    /// produced by [`DuplicatedGraph::expand`].
    pub fn to_original(&self) -> TaskGraph {
        let mut original = TaskGraph::new();
        for i in 0..self.original_count {
            original.add_task(self.graph.task(TaskId(i)).clone());
        }
        for (p, s, d) in self.graph.edges() {
            if p.index() < self.original_count && s.index() < self.original_count {
                original.add_edge(p, s, d).expect("original edges stay acyclic");
            }
        }
        original
    }

    /// Total number of tasks `2M`.
    pub fn total_count(&self) -> usize {
        self.graph.num_tasks()
    }

    /// Whether `t` is an original task (`i < M`).
    pub fn is_original(&self, t: TaskId) -> bool {
        t.index() < self.original_count
    }

    /// The duplicate `τ_{i+M}` of an original task.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not an original task.
    pub fn copy_of(&self, t: TaskId) -> TaskId {
        assert!(self.is_original(t), "{t} is already a duplicate");
        TaskId(t.index() + self.original_count)
    }

    /// The original task behind `t` (identity for originals).
    pub fn original_of(&self, t: TaskId) -> TaskId {
        if self.is_original(t) {
            t
        } else {
            TaskId(t.index() - self.original_count)
        }
    }

    /// Iterates the original task ids.
    pub fn originals(&self) -> impl Iterator<Item = TaskId> {
        (0..self.original_count).map(TaskId)
    }

    /// Iterates the duplicate task ids.
    pub fn duplicates(&self) -> impl Iterator<Item = TaskId> + '_ {
        (self.original_count..self.total_count()).map(TaskId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::new("t1", 1e6, 5.0));
        let b = g.add_task(Task::new("t2", 2e6, 5.0));
        let c = g.add_task(Task::new("t3", 3e6, 5.0));
        g.add_edge(a, b, 1.5).unwrap();
        g.add_edge(b, c, 2.5).unwrap();
        g
    }

    #[test]
    fn expansion_matches_fig_1c() {
        // Fig. 1(c): τ1→τ2→τ3 expands so τ4 (copy of τ1) also feeds τ2 and
        // τ5 (copy of τ2), etc.
        let d = DuplicatedGraph::expand(&chain3());
        let g = d.graph();
        assert_eq!(d.total_count(), 6);
        assert_eq!(g.num_edges(), 8);
        let (t1, t2, t4, t5) = (TaskId(0), TaskId(1), TaskId(3), TaskId(4));
        assert!(g.depends(t1, t2));
        assert!(g.depends(t4, t2));
        assert!(g.depends(t1, t5));
        assert!(g.depends(t4, t5));
    }

    #[test]
    fn copies_share_wcec_and_deadline() {
        let d = DuplicatedGraph::expand(&chain3());
        for o in d.originals() {
            let c = d.copy_of(o);
            assert_eq!(d.graph().task(o).wcec, d.graph().task(c).wcec);
            assert_eq!(d.graph().task(o).deadline_ms, d.graph().task(c).deadline_ms);
            assert_eq!(d.original_of(c), o);
            assert!(d.is_original(o));
            assert!(!d.is_original(c));
        }
    }

    #[test]
    fn data_sizes_preserved() {
        let d = DuplicatedGraph::expand(&chain3());
        let g = d.graph();
        assert_eq!(g.data_size(TaskId(0), TaskId(1)), Some(1.5));
        assert_eq!(g.data_size(TaskId(3), TaskId(4)), Some(1.5));
        assert_eq!(g.data_size(TaskId(3), TaskId(1)), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "already a duplicate")]
    fn copy_of_duplicate_panics() {
        let d = DuplicatedGraph::expand(&chain3());
        let _ = d.copy_of(TaskId(4));
    }

    #[test]
    fn expansion_stays_acyclic() {
        let d = DuplicatedGraph::expand(&chain3());
        assert_eq!(d.graph().topological_order().len(), 6);
    }
}
