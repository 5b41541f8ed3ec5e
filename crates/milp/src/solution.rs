//! Solve results.

use crate::model::VarId;

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// Proved optimal within the configured gap.
    Optimal,
    /// Proved infeasible.
    Infeasible,
    /// Proved unbounded (an improving ray exists).
    Unbounded,
    /// Stopped at a limit with at least one feasible incumbent.
    Feasible,
    /// Stopped at a limit without any incumbent.
    Unknown,
    /// Cancelled through a [`CancelToken`](crate::CancelToken). The best
    /// incumbent found before the cancel, if any, is available; check
    /// [`Solution::has_incumbent`].
    Interrupted,
}

impl SolveStatus {
    /// Whether a usable assignment is guaranteed by the status alone.
    ///
    /// [`SolveStatus::Interrupted`] returns `false` here because a cancelled
    /// solve may or may not have found an incumbent yet; use
    /// [`Solution::has_incumbent`] for the per-solve answer.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Per-phase time attribution and work counters of one solve, returned with
/// every [`Solution`] (see [`Solution::stats`]).
///
/// The three measured phases are disjoint per worker thread, so for a
/// serial solve `presolve_seconds + simplex_seconds + factor_seconds ≤
/// total_seconds` and the remainder ([`SolveStats::other_seconds`]) is
/// model building, node bookkeeping and FTRAN/BTRAN refreshes outside the
/// simplex loop. Under `threads ≥ 2` the per-phase times are CPU-seconds
/// summed across workers and may exceed the wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Wall-clock seconds of the whole solve.
    pub total_seconds: f64,
    /// Seconds spent in presolve reductions.
    pub presolve_seconds: f64,
    /// Seconds spent inside the dual simplex loop, excluding
    /// refactorizations.
    pub simplex_seconds: f64,
    /// Seconds spent (re)factorizing the basis (sparse LU or dense
    /// inversion).
    pub factor_seconds: f64,
    /// Branch-and-bound nodes evaluated.
    pub nodes: u64,
    /// Open nodes discarded by the incumbent bound without an LP solve.
    pub nodes_pruned: u64,
    /// Total simplex pivots across all LP solves.
    pub simplex_iterations: u64,
    /// Basis refactorizations across all workers.
    pub refactorizations: u64,
    /// Incumbent improvements accepted, including pre-search heuristic
    /// finds (warm-start hints not counted).
    pub incumbents: u64,
    /// Nodes obtained by work stealing (0 for serial solves).
    pub steals: u64,
    /// Node LPs warm-started from a parent basis snapshot (restored or
    /// inherited in place). Zero when `SolverOptions::warm_start` is off.
    pub warm_starts: u64,
    /// Node LPs started from the all-slack basis: the root, every node when
    /// warm starts are disabled, and warm-start restores that failed to
    /// factorize and fell back cold.
    pub cold_starts: u64,
    /// Candidate cuts the separators produced (before pool filtering).
    pub cuts_generated: u64,
    /// Cuts accepted by the pool and appended to an LP (root rounds plus
    /// in-tree rounds).
    pub cuts_applied: u64,
    /// Root cuts dropped by the pool's slack-based age-out before the
    /// search started (never installed into the shared base form).
    pub cuts_aged_out: u64,
    /// Seconds spent separating cuts (deriving Gomory rows, building
    /// covers, pool scoring) — disjoint from the simplex and factorization
    /// buckets, which also cover the cut-loop LP re-optimizations.
    pub separation_seconds: f64,
    /// Seconds spent in the root primal heuristics (diving and the RENS
    /// sub-MILP), including their LP and sub-MILP solves — disjoint from
    /// every other bucket. `0.0` when the phase did not run, e.g. on a
    /// resumed re-solve whose carried bound proves its warm start.
    pub heuristic_seconds: f64,
    /// Seconds spent in node-level bound propagation (interval-activity
    /// analysis and bound edits; the node LP re-solve is not included) —
    /// disjoint from every other bucket.
    pub propagation_seconds: f64,
    /// Improving incumbents contributed by the root primal heuristics
    /// before the tree search started.
    pub heuristic_incumbents: u64,
    /// Individual variable bounds tightened by node propagation.
    pub propagated_bounds: u64,
    /// Nodes fathomed by propagation (empty box) without an LP solve.
    pub propagation_fathoms: u64,
    /// Conflict (no-good) cuts derived from infeasible nodes.
    pub conflict_cuts_generated: u64,
    /// Conflict cuts accepted by the pool and appended to a worker LP.
    pub conflict_cuts_applied: u64,
    /// Nontrivial integer-column orbits of the verified symmetry group
    /// (0 when no candidates were supplied or none verified).
    pub symmetry_orbits: u64,
    /// Column fixings applied by node-level lex (orbital) propagation.
    pub orbital_fixings: u64,
    /// Strong-branching probe LPs solved by reliability branching.
    pub strong_branch_probes: u64,
}

impl SolveStats {
    /// Wall-clock time not attributed to presolve/simplex/factorization/
    /// separation/heuristics/propagation: `max(0, total − the six measured
    /// buckets)`. Only meaningful for serial solves (see the struct docs).
    pub fn other_seconds(&self) -> f64 {
        (self.total_seconds
            - self.presolve_seconds
            - self.simplex_seconds
            - self.factor_seconds
            - self.separation_seconds
            - self.heuristic_seconds
            - self.propagation_seconds)
            .max(0.0)
    }
}

/// Result of solving a [`Model`](crate::Model).
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) status: SolveStatus,
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
    pub(crate) best_bound: f64,
    pub(crate) nodes: u64,
    pub(crate) nodes_per_thread: Vec<u64>,
    pub(crate) simplex_iterations: u64,
    pub(crate) solve_seconds: f64,
    pub(crate) stats: SolveStats,
}

impl Solution {
    /// The termination status.
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// Whether an incumbent assignment is available. Unlike
    /// [`SolveStatus::has_solution`] this also covers an
    /// [`Interrupted`](SolveStatus::Interrupted) solve that found an
    /// incumbent before it was cancelled.
    pub fn has_incumbent(&self) -> bool {
        self.status.has_solution()
            || (self.status == SolveStatus::Interrupted && !self.values.is_empty())
    }

    /// The objective value of the incumbent.
    ///
    /// # Panics
    ///
    /// Panics if no incumbent is available; check
    /// [`Solution::has_incumbent`] first.
    pub fn objective_value(&self) -> f64 {
        assert!(self.has_incumbent(), "no incumbent: status {:?}", self.status);
        self.objective
    }

    /// The incumbent value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if no incumbent is available or `var` is out of range.
    pub fn value(&self, var: VarId) -> f64 {
        assert!(self.has_incumbent(), "no incumbent: status {:?}", self.status);
        self.values[var.index()]
    }

    /// The full assignment indexed by raw variable id.
    ///
    /// Empty when no incumbent exists.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The best proven bound on the optimum (lower bound when minimizing,
    /// upper bound when maximizing). Equal to the objective when optimal.
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// Relative gap `|obj − bound| / max(1, |obj|)`; zero when optimal,
    /// infinite when no incumbent exists.
    pub fn gap(&self) -> f64 {
        if !self.has_incumbent() {
            return f64::INFINITY;
        }
        (self.objective - self.best_bound).abs() / self.objective.abs().max(1.0)
    }

    /// Number of branch-and-bound nodes processed.
    pub fn node_count(&self) -> u64 {
        self.nodes
    }

    /// Nodes processed by each worker thread of the branch and bound, in
    /// worker order. A serial solve (`threads = 1`) reports one entry; a
    /// solve answered by presolve alone reports an empty slice.
    pub fn nodes_per_thread(&self) -> &[u64] {
        &self.nodes_per_thread
    }

    /// Total simplex pivots across all LP solves.
    pub fn simplex_iterations(&self) -> u64 {
        self.simplex_iterations
    }

    /// Wall-clock time of the solve in seconds.
    pub fn solve_seconds(&self) -> f64 {
        self.solve_seconds
    }

    /// Per-phase time attribution and work counters of this solve.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Rounds `value(var)` to the nearest integer as `i64`; convenient for
    /// binary/integer variables.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.value(var).round() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_has_solution() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unbounded.has_solution());
        assert!(!SolveStatus::Unknown.has_solution());
        assert!(!SolveStatus::Interrupted.has_solution());
    }

    #[test]
    fn interrupted_incumbent_is_accessible() {
        let s = Solution {
            status: SolveStatus::Interrupted,
            values: vec![1.0],
            objective: 3.0,
            best_bound: 2.0,
            nodes: 5,
            nodes_per_thread: vec![5],
            simplex_iterations: 10,
            solve_seconds: 0.1,
            stats: SolveStats::default(),
        };
        assert!(s.has_incumbent());
        assert_eq!(s.objective_value(), 3.0);
        assert!(s.gap().is_finite());
        let none = Solution { values: vec![], ..s.clone() };
        assert!(!none.has_incumbent());
        assert!(none.gap().is_infinite());
    }

    #[test]
    fn stats_other_seconds_is_the_remainder() {
        let st = SolveStats {
            total_seconds: 1.0,
            presolve_seconds: 0.1,
            simplex_seconds: 0.5,
            factor_seconds: 0.2,
            separation_seconds: 0.05,
            heuristic_seconds: 0.04,
            propagation_seconds: 0.01,
            ..SolveStats::default()
        };
        assert!((st.other_seconds() - 0.10).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no incumbent")]
    fn objective_panics_without_solution() {
        let s = Solution {
            status: SolveStatus::Infeasible,
            values: vec![],
            objective: 0.0,
            best_bound: 0.0,
            nodes: 0,
            nodes_per_thread: vec![],
            simplex_iterations: 0,
            solve_seconds: 0.0,
            stats: SolveStats::default(),
        };
        let _ = s.objective_value();
    }
}
