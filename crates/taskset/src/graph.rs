//! The task dependency DAG.
//!
//! Encodes the paper's dependency matrix `p = [p_ij]` and data sizes
//! `s_ij`: `p_ij = 1` iff `τ_i` is a direct predecessor of `τ_j`, in which
//! case finishing `τ_i` produces `s_ij` units of data for `τ_j`.

use crate::error::{Result, TasksetError};
use crate::task::{Task, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A directed acyclic task graph.
///
/// ```
/// use ndp_taskset::{Task, TaskGraph, TaskId};
///
/// let mut g = TaskGraph::new();
/// let a = g.add_task(Task::new("a", 1e6, 10.0));
/// let b = g.add_task(Task::new("b", 2e6, 10.0));
/// g.add_edge(a, b, 4.0)?;
/// assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![(b, 4.0)]);
/// # Ok::<(), ndp_taskset::TasksetError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    /// `(pred, succ) → data size (units)`.
    edges: BTreeMap<(TaskId, TaskId), f64>,
    /// The same edges keyed `(succ, pred)`, so predecessor lookups are
    /// range scans like successor lookups.
    incoming: BTreeMap<(TaskId, TaskId), f64>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        self.tasks.push(task);
        TaskId(self.tasks.len() - 1)
    }

    /// Adds the dependency edge `pred → succ` carrying `data_size` units.
    ///
    /// # Errors
    ///
    /// * [`TasksetError::UnknownTask`] if either id is out of range.
    /// * [`TasksetError::SelfDependency`] if `pred == succ`.
    /// * [`TasksetError::CycleDetected`] if the edge would close a cycle.
    /// * [`TasksetError::InvalidDataSize`] if `data_size` is negative/NaN.
    pub fn add_edge(&mut self, pred: TaskId, succ: TaskId, data_size: f64) -> Result<()> {
        for t in [pred, succ] {
            if t.index() >= self.tasks.len() {
                return Err(TasksetError::UnknownTask { index: t.index(), len: self.tasks.len() });
            }
        }
        if pred == succ {
            return Err(TasksetError::SelfDependency { task: pred.index() });
        }
        if !data_size.is_finite() || data_size < 0.0 {
            return Err(TasksetError::InvalidDataSize { value: data_size });
        }
        if self.reaches(succ, pred) {
            return Err(TasksetError::CycleDetected { from: pred.index(), to: succ.index() });
        }
        self.insert_edge(pred, succ, data_size);
        Ok(())
    }

    /// Adds `pred → succ` without [`TaskGraph::add_edge`]'s checks, for
    /// callers whose edges are valid by construction: the ids exist, differ
    /// and close no cycle, and the size is finite and non-negative. Skips
    /// the O(V + E) reachability search `add_edge` runs per edge.
    pub(crate) fn insert_edge(&mut self, pred: TaskId, succ: TaskId, data_size: f64) {
        debug_assert!(pred != succ && pred.index().max(succ.index()) < self.tasks.len());
        self.edges.insert((pred, succ), data_size);
        self.incoming.insert((succ, pred), data_size);
    }

    fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.tasks.len()];
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if std::mem::replace(&mut seen[t.index()], true) {
                continue;
            }
            stack.extend(self.successors(t).map(|(s, _)| s));
        }
        false
    }

    /// Number of tasks `M`.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Mutable access to the task record for `id` (e.g. to update a
    /// deadline for online re-deployment).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Iterates all task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Iterates `(pred, succ, data_size)` for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId, f64)> + '_ {
        self.edges.iter().map(|(&(p, s), &d)| (p, s, d))
    }

    /// The paper's `p_ij`: 1 iff `pred → succ` is an edge.
    pub fn depends(&self, pred: TaskId, succ: TaskId) -> bool {
        self.edges.contains_key(&(pred, succ))
    }

    /// Data size `s_ij` of the edge, if present.
    pub fn data_size(&self, pred: TaskId, succ: TaskId) -> Option<f64> {
        self.edges.get(&(pred, succ)).copied()
    }

    /// Direct successors of `t` with data sizes.
    pub fn successors(&self, t: TaskId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        self.edges.range((t, TaskId(0))..=(t, TaskId(usize::MAX))).map(|(&(_, s), &d)| (s, d))
    }

    /// Direct predecessors of `t` with data sizes, in ascending id order.
    pub fn predecessors(&self, t: TaskId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        self.incoming.range((t, TaskId(0))..=(t, TaskId(usize::MAX))).map(|(&(_, p), &d)| (p, d))
    }

    /// In-degree of `t`.
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.predecessors(t).count()
    }

    /// Out-degree of `t`.
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.successors(t).count()
    }

    /// Whether `a` reaches `b` through directed edges (transitive
    /// dependency). `a` reaches itself.
    pub fn is_ancestor(&self, a: TaskId, b: TaskId) -> bool {
        self.reaches(a, b)
    }

    /// A topological order (stable: ready tasks in index order).
    pub fn topological_order(&self) -> Vec<TaskId> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.in_degree(TaskId(i))).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut next_ready = Vec::new();
        while !ready.is_empty() {
            ready.sort_unstable();
            for &i in &ready {
                order.push(TaskId(i));
                for (s, _) in self.successors(TaskId(i)) {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        next_ready.push(s.index());
                    }
                }
            }
            ready.clear();
            std::mem::swap(&mut ready, &mut next_ready);
        }
        debug_assert_eq!(order.len(), n, "graph is acyclic by construction");
        order
    }

    /// Layer of each task: sources are layer 0, otherwise
    /// `1 + max(layer of predecessors)` (the paper's in/out-degree layering
    /// of Algorithm 2, step b).
    pub fn layers(&self) -> Vec<usize> {
        let mut layer = vec![0usize; self.tasks.len()];
        for t in self.topological_order() {
            let l = self.predecessors(t).map(|(p, _)| layer[p.index()] + 1).max().unwrap_or(0);
            layer[t.index()] = l;
        }
        layer
    }

    /// The critical path: the source→sink chain maximizing the sum of
    /// `node_weight` over its tasks. Returns the task sequence.
    pub fn critical_path(&self, node_weight: impl Fn(TaskId) -> f64) -> Vec<TaskId> {
        let n = self.tasks.len();
        if n == 0 {
            return vec![];
        }
        let mut best = vec![f64::NEG_INFINITY; n];
        let mut pred: Vec<Option<TaskId>> = vec![None; n];
        let order = self.topological_order();
        for &t in &order {
            let w = node_weight(t);
            let incoming = self
                .predecessors(t)
                .map(|(p, _)| (best[p.index()], Some(p)))
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite weights"));
            match incoming {
                Some((bw, bp)) => {
                    best[t.index()] = bw + w;
                    pred[t.index()] = bp;
                }
                None => best[t.index()] = w,
            }
        }
        let mut cur = TaskId(
            (0..n)
                .max_by(|&a, &b| best[a].partial_cmp(&best[b]).expect("finite weights"))
                .expect("nonempty"),
        );
        let mut path = vec![cur];
        while let Some(p) = pred[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::new("a", 1e6, 10.0));
        let b = g.add_task(Task::new("b", 2e6, 10.0));
        let c = g.add_task(Task::new("c", 3e6, 10.0));
        let d = g.add_task(Task::new("d", 1e6, 10.0));
        g.add_edge(a, b, 1.0).unwrap();
        g.add_edge(a, c, 2.0).unwrap();
        g.add_edge(b, d, 3.0).unwrap();
        g.add_edge(c, d, 4.0).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn cycle_rejected() {
        let (mut g, [a, _, _, d]) = diamond();
        assert!(matches!(g.add_edge(d, a, 1.0), Err(TasksetError::CycleDetected { .. })));
    }

    #[test]
    fn self_edge_rejected() {
        let (mut g, [a, ..]) = diamond();
        assert!(matches!(g.add_edge(a, a, 1.0), Err(TasksetError::SelfDependency { .. })));
    }

    #[test]
    fn unknown_task_rejected() {
        let (mut g, [a, ..]) = diamond();
        assert!(g.add_edge(a, TaskId(99), 1.0).is_err());
    }

    #[test]
    fn negative_data_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Task::new("a", 1e6, 1.0));
        let b = g.add_task(Task::new("b", 1e6, 1.0));
        assert!(g.add_edge(a, b, -1.0).is_err());
        assert!(g.add_edge(a, b, f64::NAN).is_err());
    }

    #[test]
    fn degrees_and_queries() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert!(g.depends(a, b));
        assert!(!g.depends(b, a));
        assert_eq!(g.data_size(c, d), Some(4.0));
        assert!(g.is_ancestor(a, d));
        assert!(!g.is_ancestor(b, c));
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> =
            g.task_ids().map(|t| order.iter().position(|&o| o == t).unwrap()).collect();
        for (p, s, _) in g.edges() {
            assert!(pos[p.index()] < pos[s.index()]);
        }
    }

    #[test]
    fn layers_of_diamond() {
        let (g, [a, b, c, d]) = diamond();
        let l = g.layers();
        assert_eq!(l[a.index()], 0);
        assert_eq!(l[b.index()], 1);
        assert_eq!(l[c.index()], 1);
        assert_eq!(l[d.index()], 2);
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        let (g, [a, _b, c, d]) = diamond();
        // Weight = WCEC: path a(1) -> c(3) -> d(1) = 5 beats a -> b -> d = 4.
        let cp = g.critical_path(|t| g.task(t).wcec);
        assert_eq!(cp, vec![a, c, d]);
    }

    use crate::duplication::DuplicatedGraph;
    use crate::gen::{generate, GeneratorConfig, GraphShape};
    use proptest::prelude::*;

    /// `predecessors` / `in_degree` against a brute-force filter over
    /// `edges()`: same tasks, same order, same data sizes.
    fn assert_predecessors_match_edges(g: &TaskGraph) -> std::result::Result<(), TestCaseError> {
        for t in g.task_ids() {
            let fast: Vec<(TaskId, f64)> = g.predecessors(t).collect();
            let brute: Vec<(TaskId, f64)> =
                g.edges().filter(|&(_, s, _)| s == t).map(|(p, _, d)| (p, d)).collect();
            prop_assert_eq!(&fast, &brute, "predecessors of {}: {:?} vs {:?}", t, fast, brute);
            prop_assert_eq!(g.in_degree(t), brute.len(), "in-degree of {}", t);
        }
        Ok(())
    }

    /// `DuplicatedGraph::expand` against the same expansion built with the
    /// checked `add_edge`: same tasks, edges, data sizes and predecessor
    /// order.
    fn assert_expansion_matches_checked(g: &TaskGraph) -> std::result::Result<(), TestCaseError> {
        let m = g.num_tasks();
        let mut reference = TaskGraph::new();
        for t in g.task_ids() {
            reference.add_task(g.task(t).clone());
        }
        for t in g.task_ids() {
            let task = g.task(t);
            reference.add_task(Task::new(format!("{}'", task.name), task.wcec, task.deadline_ms));
        }
        for (p, s, d) in g.edges() {
            let (pc, sc) = (TaskId(p.index() + m), TaskId(s.index() + m));
            for (a, b) in [(p, s), (pc, s), (p, sc), (pc, sc)] {
                reference.add_edge(a, b, d).expect("the expansion of a DAG is a DAG");
            }
        }
        let expanded = DuplicatedGraph::expand(g);
        prop_assert_eq!(expanded.graph(), &reference);
        for t in reference.task_ids() {
            let fast: Vec<(TaskId, f64)> = expanded.graph().predecessors(t).collect();
            let checked: Vec<(TaskId, f64)> = reference.predecessors(t).collect();
            prop_assert_eq!(fast, checked, "predecessors of {}", t);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random edge attempts in both directions (cycle-closing ones are
        /// rejected and must leave no trace), then one existing edge
        /// re-added with a new data size: `add_edge` overwrites, and the
        /// predecessor index must follow. Checked on the graph and on its
        /// duplication expansion. The expansion of that graph, and of a
        /// generated graph of every shape at `M = m`, must also equal the
        /// expansion built edge by edge with the checked `add_edge`.
        #[test]
        fn predecessors_equal_brute_force_filter(
            n in 1usize..14,
            attempts in proptest::collection::vec((0usize..14, 0usize..14, 0.0f64..8.0), 0..48),
            overwrite in (0usize..48, 8.0f64..16.0),
            m in 1usize..=40,
            gen_seed in any::<u64>(),
        ) {
            let mut g = TaskGraph::new();
            for i in 0..n {
                g.add_task(Task::new(format!("t{i}"), 1e6, 10.0));
            }
            for &(p, s, d) in &attempts {
                let _ = g.add_edge(TaskId(p % n), TaskId(s % n), d);
            }
            let edges: Vec<(TaskId, TaskId, f64)> = g.edges().collect();
            if !edges.is_empty() {
                let (p, s, _) = edges[overwrite.0 % edges.len()];
                g.add_edge(p, s, overwrite.1).unwrap();
                prop_assert_eq!(g.data_size(p, s), Some(overwrite.1));
            }
            assert_predecessors_match_edges(&g)?;
            assert_predecessors_match_edges(DuplicatedGraph::expand(&g).graph())?;
            assert_expansion_matches_checked(&g)?;
            for shape in [
                GraphShape::Layered { layers: (m / 4).clamp(2, 6), edge_probability: 0.25 },
                GraphShape::Chain,
                GraphShape::ForkJoin { width: 3 },
                GraphShape::Random { edge_probability: 0.3 },
            ] {
                let config = GeneratorConfig { shape, ..GeneratorConfig::typical(m) };
                assert_expansion_matches_checked(&generate(&config, gen_seed).unwrap())?;
            }
        }
    }

    #[test]
    fn empty_graph_behaves() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert!(g.topological_order().is_empty());
        assert!(g.critical_path(|_| 1.0).is_empty());
    }
}
