//! Solver configuration.

use crate::events::{CancelToken, IncumbentFeed, Observer, ObserverHandle};
use std::sync::Arc;

/// Rule used to pick the fractional integer variable to branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BranchRule {
    /// Branch on the variable whose LP value is closest to 0.5 (after
    /// priority ordering). A solid general-purpose default.
    #[default]
    MostFractional,
    /// Branch on the first fractional variable in index order (Bland-like,
    /// deterministic, useful for debugging).
    FirstFractional,
    /// Pseudo-cost branching: estimates objective degradation per variable
    /// from past branchings and picks the variable with the largest expected
    /// product of down/up degradations.
    PseudoCost,
    /// Reliability branching: pseudo-cost scoring whose estimates are
    /// initialized by strong-branching lookahead. Until a column's down/up
    /// observation counts both reach
    /// [`SolverOptions::reliability_threshold`], its children LPs are probed
    /// with a bounded dual-simplex pivot budget
    /// ([`SolverOptions::strong_branch_pivot_limit`]) warm from the node
    /// basis, and the observed degradations seed the pseudo-cost table —
    /// replacing the flat fallback score that otherwise makes the earliest
    /// (tree-shaping) branchings near-uniform. A probe that proves a child
    /// infeasible fixes the column the other way on the spot.
    Reliability,
}

/// Which linear-algebra kernel backs the dual simplex basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BasisKernel {
    /// Sparse LU factorization (Markowitz ordering, threshold partial
    /// pivoting) with product-form eta updates per pivot and sparse
    /// FTRAN/BTRAN. The default: node cost scales with basis sparsity
    /// instead of `m²`/`m³`.
    #[default]
    SparseLu,
    /// Dense explicit basis inverse, O(m²) per pivot and O(m³) per
    /// refactorization. Kept as a reference implementation and numerical
    /// fallback; the equivalence test suite pins both kernels to the same
    /// optima.
    Dense,
}

/// Rule used by the dual simplex to pick the leaving row (dual pricing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pricing {
    /// Dual steepest edge (Forrest–Goldfarb): rows are scored by
    /// `violation² / ‖eᵣᵀB⁻¹‖²` with exact reference-weight updates (one
    /// extra FTRAN per pivot). The default: dramatically fewer pivots on
    /// the degenerate deployment MILPs, at a modest per-pivot surcharge.
    #[default]
    SteepestEdge,
    /// Dual devex: the same `violation² / wᵣ` score with cheap approximate
    /// reference weights (no extra FTRAN; weights reset when they drift too
    /// far). A middle ground when FTRANs are expensive.
    Devex,
    /// Classic Dantzig rule: pick the most violated basic variable. The
    /// historical behavior, kept for A/B comparison and as the cheapest
    /// per-iteration choice.
    Dantzig,
}

/// Order in which open branch-and-bound nodes are explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeOrder {
    /// Depth-first: dives to find incumbents quickly, minimal memory.
    #[default]
    DepthFirst,
    /// Best-bound-first: explores the node with the best LP bound, proving
    /// optimality with fewer nodes at the cost of memory.
    BestBound,
}

/// Tunable limits and tolerances for [`Model::solve_with`].
///
/// Configure with the consuming builder methods, all of which follow the
/// same `options.field(value)` pattern:
///
/// ```
/// use ndp_milp::{BranchRule, SolverOptions};
///
/// let opts = SolverOptions::default()
///     .time_limit(5.0)
///     .node_limit(10_000)
///     .branch_rule(BranchRule::PseudoCost)
///     .threads(4);
/// ```
///
/// [`Model::solve_with`]: crate::Model::solve_with
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Values within this distance of an integer are considered integral.
    pub integrality_tol: f64,
    /// Feasibility tolerance for simplex bound/row checks.
    pub feasibility_tol: f64,
    /// Relative optimality gap at which branch and bound stops.
    pub relative_gap: f64,
    /// Absolute optimality gap at which branch and bound stops.
    pub absolute_gap: f64,
    /// Maximum number of branch-and-bound nodes (0 = unlimited).
    pub node_limit: usize,
    /// Wall-clock limit in seconds (`f64::INFINITY` = unlimited).
    pub time_limit: f64,
    /// Simplex iteration limit per LP solve.
    pub simplex_iteration_limit: usize,
    /// Replacement magnitude for infinite variable bounds.
    pub infinite_bound: f64,
    /// Branching variable selection rule.
    pub branch_rule: BranchRule,
    /// Node exploration order.
    pub node_order: NodeOrder,
    /// Whether to run the LP-rounding incumbent heuristic at each node.
    pub rounding_heuristic: bool,
    /// Refactorize the basis inverse every this many simplex pivots.
    pub refactor_interval: usize,
    /// Linear-algebra kernel backing the simplex basis.
    pub basis_kernel: BasisKernel,
    /// Dual-simplex leaving-row rule (pricing). See [`Pricing`].
    pub pricing: Pricing,
    /// Warm-start node LPs from the parent's basis: each branch-and-bound
    /// node snapshots its optimal basis on expansion and both children
    /// restore it (re-factorizing through the LU path) before
    /// re-optimizing, so a child typically finishes in a handful of dual
    /// pivots. `false` re-solves every node from the all-slack basis (the
    /// cold-start reference the ablation benches compare against).
    pub warm_start: bool,
    /// Sparse-LU only: maximum length of the product-form eta file before a
    /// refactorization is forced, independently of `refactor_interval`.
    /// Longer files make FTRAN/BTRAN slower and drift-prone; shorter files
    /// refactorize more often.
    pub eta_limit: usize,
    /// Run presolve reductions before branch and bound.
    pub presolve: bool,
    /// Number of branch-and-bound worker threads. `0` (the default) uses the
    /// machine's available parallelism. `1` runs the original serial search
    /// and reproduces its node ordering bit-for-bit; `≥ 2` explores the tree
    /// with a work-stealing node pool (same optima, different node order).
    pub threads: usize,
    /// Master switch of the cutting-plane engine (root separation loop and,
    /// when [`SolverOptions::cut_node_interval`] is set, in-tree rounds).
    /// Cuts tighten the LP relaxation so the tree is proven with fewer
    /// nodes; `false` reproduces the pure branch-and-bound search.
    pub cuts: bool,
    /// Enable Gomory mixed-integer cuts (requires `cuts`). Root-only: they
    /// are derived from the root basis via the kernel's BTRAN path.
    pub gomory_cuts: bool,
    /// Enable knapsack cover cuts (requires `cuts`). Globally valid, so
    /// they also drive the optional in-tree separation.
    pub cover_cuts: bool,
    /// Maximum root separation rounds; the loop also stops on tailing-off
    /// bound improvement or when the relaxation goes integral.
    pub max_cut_rounds: usize,
    /// In-tree separation interval: every `k`-th depth of the serial search
    /// separates cover cuts at the node relaxation. `0` (default) disables
    /// in-tree rounds (root cuts only). Ignored under `threads ≥ 2` —
    /// appended rows are worker-local and would break snapshot sharing
    /// economics, so parallel workers search with root cuts only.
    pub cut_node_interval: usize,
    /// Master switch of the root primal heuristics (relaxation-guided
    /// diving plus a RENS neighborhood sub-MILP). Heuristics run after root
    /// separation and before the tree search, seeding the incumbent so
    /// pruning bites from the first node. Deterministic: the only random
    /// choices use a fixed-seed xorshift generator.
    pub heuristics: bool,
    /// Node budget of the heuristic RENS neighborhood sub-MILP.
    /// Larger budgets find better incumbents at a higher fixed cost.
    pub heuristic_node_limit: usize,
    /// Node-level bound propagation: before each node's LP solve, tighten
    /// the node box by interval-activity analysis over the rows (the
    /// presolve arithmetic applied at node bounds). Nodes whose box empties
    /// fathom without a simplex solve.
    pub propagation: bool,
    /// Conflict (no-good) cuts: when a node whose branching path consists
    /// entirely of binary fixings proves LP-infeasible, a globally valid
    /// no-good clause over that fixing set is appended to the worker's LP,
    /// fathoming every other node that repeats the assignment. Serial-only
    /// (appended rows are worker-local), like in-tree cover cuts.
    pub conflict_cuts: bool,
    /// Candidate column permutations of the model (each a full-length map
    /// `j ↦ σ(j)` over structural columns), typically lifted from mesh
    /// automorphisms by the encoding layer. Every candidate is verified
    /// *exactly* against the model at solve time — objective, bounds, kinds,
    /// priorities and the constraint multiset must all be invariant — so an
    /// unsound candidate is silently rejected rather than trusted. Empty by
    /// default (no symmetry handling).
    pub symmetry_candidates: Arc<Vec<Vec<usize>>>,
    /// Install lexicographic symmetry-breaking rows at the root for the
    /// verified symmetry group (requires `symmetry_candidates`). Each row
    /// keeps the lex-greatest representative of every solution orbit, so at
    /// least one optimum always survives.
    pub symmetry_breaking: bool,
    /// Propagate the lex-leader constraints at every node (orbital fixing):
    /// once a prefix column is fixed, its images under the group are fixed
    /// or the node fathoms. Sound with or without the root rows installed.
    pub orbital_fixing: bool,
    /// Reliability threshold `η` of [`BranchRule::Reliability`]: a column is
    /// strong-branched until both its down and up pseudo-cost observation
    /// counts reach this value.
    pub reliability_threshold: u32,
    /// Dual-simplex pivot budget of one strong-branching probe LP.
    pub strong_branch_pivot_limit: usize,
    /// Receiver of the structured event stream ([`crate::SolverEvent`]);
    /// unset by default. See [`SolverOptions::observer`].
    pub observer: ObserverHandle,
    /// Cooperative cancellation token checked at node boundaries and inside
    /// long simplex loops; unset by default. See
    /// [`SolverOptions::cancel_token`].
    pub cancel: Option<CancelToken>,
    /// External incumbent feed polled at node boundaries: feasible points
    /// published by a racing portfolio arm are installed as incumbents
    /// mid-solve; unset by default. See [`SolverOptions::incumbent_feed`].
    pub incumbent_feed: Option<IncumbentFeed>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            integrality_tol: 1e-6,
            feasibility_tol: 1e-7,
            relative_gap: 1e-6,
            absolute_gap: 1e-9,
            node_limit: 0,
            time_limit: f64::INFINITY,
            simplex_iteration_limit: 50_000,
            infinite_bound: 1e9,
            branch_rule: BranchRule::default(),
            node_order: NodeOrder::default(),
            rounding_heuristic: true,
            refactor_interval: 128,
            basis_kernel: BasisKernel::default(),
            pricing: Pricing::default(),
            warm_start: true,
            eta_limit: 64,
            presolve: true,
            threads: 0,
            cuts: true,
            gomory_cuts: true,
            cover_cuts: true,
            max_cut_rounds: 10,
            cut_node_interval: 0,
            heuristics: true,
            heuristic_node_limit: 200,
            propagation: true,
            conflict_cuts: true,
            symmetry_candidates: Arc::new(Vec::new()),
            symmetry_breaking: true,
            orbital_fixing: true,
            reliability_threshold: 8,
            strong_branch_pivot_limit: 100,
            observer: ObserverHandle::none(),
            cancel: None,
            incumbent_feed: None,
        }
    }
}

impl SolverOptions {
    /// Sets the wall-clock limit in seconds, builder-style
    /// (`f64::INFINITY` = unlimited).
    pub fn time_limit(mut self, seconds: f64) -> Self {
        self.time_limit = seconds;
        self
    }

    /// Sets the node limit, builder-style.
    pub fn node_limit(mut self, nodes: usize) -> Self {
        self.node_limit = nodes;
        self
    }

    /// Sets the branch rule, builder-style.
    pub fn branch_rule(mut self, rule: BranchRule) -> Self {
        self.branch_rule = rule;
        self
    }

    /// Sets the node order, builder-style.
    pub fn node_order(mut self, order: NodeOrder) -> Self {
        self.node_order = order;
        self
    }

    /// Sets the relative MIP gap, builder-style.
    pub fn relative_gap(mut self, gap: f64) -> Self {
        self.relative_gap = gap;
        self
    }

    /// Sets the absolute MIP gap, builder-style.
    pub fn absolute_gap(mut self, gap: f64) -> Self {
        self.absolute_gap = gap;
        self
    }

    /// Enables or disables presolve, builder-style.
    pub fn presolve(mut self, on: bool) -> Self {
        self.presolve = on;
        self
    }

    /// Enables or disables the LP-rounding incumbent heuristic,
    /// builder-style.
    pub fn rounding_heuristic(mut self, on: bool) -> Self {
        self.rounding_heuristic = on;
        self
    }

    /// Sets the per-LP simplex iteration limit, builder-style.
    pub fn simplex_iteration_limit(mut self, limit: usize) -> Self {
        self.simplex_iteration_limit = limit;
        self
    }

    /// Registers an [`Observer`] to receive the structured event stream
    /// ([`crate::SolverEvent`]), builder-style. Any
    /// `Fn(&SolverEvent) + Send + Sync` closure qualifies.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = ObserverHandle::new(observer);
        self
    }

    /// Registers a [`CancelToken`], builder-style. Keep a clone and call
    /// [`CancelToken::cancel`] from any thread to interrupt the solve; the
    /// solver returns its best incumbent with
    /// [`SolveStatus::Interrupted`](crate::SolveStatus::Interrupted).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether cancellation has been requested through the registered token.
    #[inline]
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Registers an [`IncumbentFeed`], builder-style. Keep a clone and
    /// [`publish`](IncumbentFeed::publish) feasible points from any thread
    /// — a racing heuristic arm, another solve of a portfolio — and the
    /// search installs improving ones as incumbents at its next node
    /// boundary. Infeasible or non-improving points are silently dropped,
    /// so feeding never changes the optimum, only how fast it is proven.
    pub fn incumbent_feed(mut self, feed: IncumbentFeed) -> Self {
        self.incumbent_feed = Some(feed);
        self
    }

    /// Sets the worker-thread count, builder-style (`0` = auto, `1` =
    /// serial/deterministic; see [`SolverOptions::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the simplex basis kernel, builder-style.
    pub fn basis_kernel(mut self, kernel: BasisKernel) -> Self {
        self.basis_kernel = kernel;
        self
    }

    /// Sets the eta-file length limit of the sparse kernel, builder-style.
    pub fn eta_limit(mut self, limit: usize) -> Self {
        self.eta_limit = limit;
        self
    }

    /// Selects the dual-simplex pricing rule, builder-style.
    pub fn pricing(mut self, pricing: Pricing) -> Self {
        self.pricing = pricing;
        self
    }

    /// Enables or disables parent-basis node warm starts, builder-style.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Enables or disables the cutting-plane engine, builder-style.
    pub fn cuts(mut self, on: bool) -> Self {
        self.cuts = on;
        self
    }

    /// Enables or disables Gomory mixed-integer cuts, builder-style.
    pub fn gomory_cuts(mut self, on: bool) -> Self {
        self.gomory_cuts = on;
        self
    }

    /// Enables or disables knapsack cover cuts, builder-style.
    pub fn cover_cuts(mut self, on: bool) -> Self {
        self.cover_cuts = on;
        self
    }

    /// Sets the root separation round budget, builder-style.
    pub fn max_cut_rounds(mut self, rounds: usize) -> Self {
        self.max_cut_rounds = rounds;
        self
    }

    /// Sets the in-tree separation interval (`0` = root only),
    /// builder-style.
    pub fn cut_node_interval(mut self, every_k_depths: usize) -> Self {
        self.cut_node_interval = every_k_depths;
        self
    }

    /// Enables or disables the root primal heuristics, builder-style.
    pub fn heuristics(mut self, on: bool) -> Self {
        self.heuristics = on;
        self
    }

    /// Sets the node budget of the heuristic RENS sub-MILP, builder-style.
    pub fn heuristic_node_limit(mut self, nodes: usize) -> Self {
        self.heuristic_node_limit = nodes;
        self
    }

    /// Enables or disables node-level bound propagation, builder-style.
    pub fn propagation(mut self, on: bool) -> Self {
        self.propagation = on;
        self
    }

    /// Enables or disables conflict (no-good) cuts, builder-style.
    pub fn conflict_cuts(mut self, on: bool) -> Self {
        self.conflict_cuts = on;
        self
    }

    /// Supplies candidate column permutations for symmetry handling,
    /// builder-style. See [`SolverOptions::symmetry_candidates`].
    pub fn symmetry_candidates(mut self, candidates: Vec<Vec<usize>>) -> Self {
        self.symmetry_candidates = Arc::new(candidates);
        self
    }

    /// Enables or disables root lex symmetry-breaking rows, builder-style.
    pub fn symmetry_breaking(mut self, on: bool) -> Self {
        self.symmetry_breaking = on;
        self
    }

    /// Enables or disables node-level orbital fixing, builder-style.
    pub fn orbital_fixing(mut self, on: bool) -> Self {
        self.orbital_fixing = on;
        self
    }

    /// Sets the reliability threshold `η`, builder-style.
    pub fn reliability_threshold(mut self, eta: u32) -> Self {
        self.reliability_threshold = eta;
        self
    }

    /// Sets the strong-branching probe pivot budget, builder-style.
    pub fn strong_branch_pivot_limit(mut self, pivots: usize) -> Self {
        self.strong_branch_pivot_limit = pivots;
        self
    }

    /// The concrete worker count after resolving `threads = 0` to the
    /// machine's available parallelism (capped at 8: branch-and-bound trees
    /// on this workspace's models rarely feed more workers than that).
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_chain() {
        let o = SolverOptions::default()
            .time_limit(5.0)
            .node_limit(100)
            .branch_rule(BranchRule::PseudoCost)
            .node_order(NodeOrder::BestBound)
            .relative_gap(1e-3)
            .threads(3)
            .basis_kernel(BasisKernel::Dense)
            .eta_limit(32);
        assert_eq!(o.time_limit, 5.0);
        assert_eq!(o.node_limit, 100);
        assert_eq!(o.branch_rule, BranchRule::PseudoCost);
        assert_eq!(o.node_order, NodeOrder::BestBound);
        assert_eq!(o.relative_gap, 1e-3);
        assert_eq!(o.threads, 3);
        assert_eq!(o.basis_kernel, BasisKernel::Dense);
        assert_eq!(o.eta_limit, 32);
    }

    #[test]
    fn cuts_default_on_with_root_only_separation() {
        let o = SolverOptions::default();
        assert!(o.cuts && o.gomory_cuts && o.cover_cuts);
        assert_eq!(o.max_cut_rounds, 10);
        assert_eq!(o.cut_node_interval, 0, "in-tree rounds are opt-in");
        let o = o
            .cuts(false)
            .gomory_cuts(false)
            .cover_cuts(false)
            .max_cut_rounds(3)
            .cut_node_interval(4);
        assert!(!o.cuts && !o.gomory_cuts && !o.cover_cuts);
        assert_eq!(o.max_cut_rounds, 3);
        assert_eq!(o.cut_node_interval, 4);
    }

    #[test]
    fn accelerators_default_on() {
        let o = SolverOptions::default();
        assert!(o.heuristics && o.propagation && o.conflict_cuts);
        assert!(o.heuristic_node_limit > 0);
        let o = o.heuristics(false).propagation(false).conflict_cuts(false).heuristic_node_limit(7);
        assert!(!o.heuristics && !o.propagation && !o.conflict_cuts);
        assert_eq!(o.heuristic_node_limit, 7);
    }

    #[test]
    fn symmetry_and_reliability_defaults() {
        let o = SolverOptions::default();
        assert!(o.symmetry_candidates.is_empty(), "no candidates unless supplied");
        assert!(o.symmetry_breaking && o.orbital_fixing, "passes armed once candidates exist");
        assert_eq!(o.reliability_threshold, 8);
        assert_eq!(o.strong_branch_pivot_limit, 100);
        assert_eq!(o.branch_rule, BranchRule::MostFractional, "Reliability is opt-in");
        let o = o
            .symmetry_candidates(vec![vec![1, 0]])
            .symmetry_breaking(false)
            .orbital_fixing(false)
            .reliability_threshold(4)
            .strong_branch_pivot_limit(50)
            .branch_rule(BranchRule::Reliability);
        assert_eq!(o.symmetry_candidates.as_ref(), &vec![vec![1, 0]]);
        assert!(!o.symmetry_breaking && !o.orbital_fixing);
        assert_eq!(o.reliability_threshold, 4);
        assert_eq!(o.strong_branch_pivot_limit, 50);
        assert_eq!(o.branch_rule, BranchRule::Reliability);
    }

    #[test]
    fn incumbent_feed_registers_builder_style() {
        let o = SolverOptions::default();
        assert!(o.incumbent_feed.is_none());
        let feed = crate::IncumbentFeed::new();
        let o = o.incumbent_feed(feed.clone());
        assert_eq!(o.incumbent_feed, Some(feed));
    }

    #[test]
    fn observer_and_cancel_default_unset() {
        let o = SolverOptions::default();
        assert!(!o.observer.is_set());
        assert!(o.cancel.is_none());
        assert!(o.incumbent_feed.is_none());
        assert!(!o.cancelled());
        let tok = crate::CancelToken::new();
        let o = o.cancel_token(tok.clone());
        assert!(!o.cancelled());
        tok.cancel();
        assert!(o.cancelled());
    }

    #[test]
    fn sparse_kernel_is_the_default() {
        assert_eq!(SolverOptions::default().basis_kernel, BasisKernel::SparseLu);
        assert!(SolverOptions::default().eta_limit > 0);
    }

    #[test]
    fn warm_dse_is_the_default() {
        let o = SolverOptions::default();
        assert_eq!(o.pricing, Pricing::SteepestEdge);
        assert!(o.warm_start);
        let o = o.pricing(Pricing::Devex).warm_start(false);
        assert_eq!(o.pricing, Pricing::Devex);
        assert!(!o.warm_start);
    }

    #[test]
    fn effective_threads_resolves_auto() {
        assert_eq!(SolverOptions::default().threads(1).effective_threads(), 1);
        assert_eq!(SolverOptions::default().threads(4).effective_threads(), 4);
        let auto = SolverOptions::default().effective_threads();
        assert!((1..=8).contains(&auto), "auto resolved to {auto}");
    }
}
