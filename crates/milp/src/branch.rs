//! Branch and bound over the LP relaxation.
//!
//! Nodes are explored depth-first (default) or best-bound-first. Because the
//! dual simplex state stays dual-feasible under arbitrary bound changes, a
//! search thread shares a *single* simplex instance across its nodes:
//! entering a node applies its bound deltas and installs the basis snapshot
//! its parent captured when it branched ([`OpenNode::parent_basis`]), so
//! every node LP starts one bound change away from its parent's optimum —
//! on a depth-first dive the basis is already in place and the restore is
//! skipped. With [`SolverOptions::warm_start`] off, every node solves from
//! the all-slack basis (the cold-start ablation reference).
//!
//! With [`SolverOptions::threads`] ≥ 2 the open-node pool is shared by a
//! team of workers (see [`crate::parallel`]); each worker owns its own
//! simplex and pseudo-costs, while the incumbent and the pruning bound are
//! global. `threads = 1` runs the serial search in this module unchanged,
//! preserving its exact node order.

use crate::error::{MilpError, Result};
use crate::events::{SolverEvent, TerminationReason};
use crate::model::{Model, VarKind};
use crate::options::{BranchRule, NodeOrder, SolverOptions};
use crate::parallel;
use crate::presolve::{presolve, Presolved};
use crate::simplex::{BasisSnapshot, LpStatus, Simplex};
use crate::solution::{Solution, SolveStats, SolveStatus};
use crate::standard::StandardForm;
use std::sync::Arc;
use std::time::Instant;

/// Per-variable pseudo-cost statistics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PseudoCost {
    down_sum: f64,
    down_n: u32,
    up_sum: f64,
    up_n: u32,
}

impl PseudoCost {
    fn down(&self, fallback: f64) -> f64 {
        if self.down_n == 0 {
            fallback
        } else {
            self.down_sum / self.down_n as f64
        }
    }
    fn up(&self, fallback: f64) -> f64 {
        if self.up_n == 0 {
            fallback
        } else {
            self.up_sum / self.up_n as f64
        }
    }
}

/// One open node in the search: the bound deltas that define it relative to
/// the root, plus its parent's LP bound.
#[derive(Debug, Clone)]
pub(crate) struct OpenNode {
    /// `(column, lb, ub)` deltas from the root relaxation.
    pub(crate) deltas: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (internal minimization scale).
    pub(crate) bound: f64,
    /// Branch bookkeeping for pseudo-costs: `(column, fractionality, up?)`.
    branched: Option<(usize, f64, bool)>,
    /// The parent's optimal basis, snapshot when it branched. Shared by
    /// `Arc` between both children (and across threads when the node is
    /// stolen). `None` for the root or when warm starts are disabled.
    pub(crate) parent_basis: Option<Arc<BasisSnapshot>>,
}

impl OpenNode {
    /// The root node: no deltas, parent bound `bound` (`-inf` on a fresh
    /// search, the carried dual bound on a resumed one).
    pub(crate) fn root(bound: f64) -> Self {
        OpenNode { deltas: vec![], bound, branched: None, parent_basis: None }
    }
}

/// Where a search keeps its best integral point. The serial search holds it
/// directly; the parallel search guards it behind a lock shared by workers.
pub(crate) trait Incumbent {
    /// Objective (internal minimization scale) of the best point so far;
    /// `+inf` when none exists.
    fn best_obj(&self) -> f64;
    /// Installs `values` as the incumbent if `obj` still improves on the
    /// current best at acceptance time; returns whether it was accepted.
    fn offer(&mut self, values: &[f64], obj: f64) -> bool;
}

/// Whether the gap between `bound` and the incumbent `inc_obj` is closed
/// under `options`' gap tolerances.
pub(crate) fn gap_closed(options: &SolverOptions, inc_obj: f64, bound: f64) -> bool {
    if inc_obj.is_infinite() {
        return false;
    }
    bound >= inc_obj - options.absolute_gap
        || bound >= inc_obj - options.relative_gap * inc_obj.abs().max(1.0)
}

pub(crate) fn internal_objective(model: &Model, sf: &StandardForm, values: &[f64]) -> f64 {
    let user = model.objective().eval(values);
    let signed = user - sf.obj_offset;
    if sf.maximize {
        -signed
    } else {
        signed
    }
}

/// The per-thread half of the search: one simplex, one pseudo-cost table,
/// and the node-evaluation logic. Both the serial search and every parallel
/// worker drive one of these.
pub(crate) struct NodeWorker<'a> {
    pub(crate) model: &'a Model,
    pub(crate) sf: &'a StandardForm,
    pub(crate) lp: Simplex,
    pub(crate) options: &'a SolverOptions,
    pub(crate) int_cols: &'a [usize],
    pseudo: Vec<PseudoCost>,
    /// Nodes this worker evaluated.
    pub(crate) nodes: u64,
    pub(crate) start: Instant,
    /// Set when a node could not be solved (deadline or numerics); the
    /// search stops gracefully with whatever incumbent exists.
    pub(crate) hit_limit: bool,
    /// Set when the cancel token fired; reported as
    /// [`SolveStatus::Interrupted`].
    pub(crate) interrupted: bool,
    /// Open nodes this worker discarded against the incumbent bound.
    pub(crate) pruned: u64,
    /// Best (lowest, internal scale) bound over the *other* open nodes,
    /// maintained by the search loop so incumbent events can report the
    /// global gap instead of the node-local one. `INFINITY` when unknown;
    /// only ever loosens the reported gap, never the search itself.
    pub(crate) dual_bound: f64,
    /// The snapshot the worker's basis currently equals, if any: set when a
    /// node branches (its children carry this snapshot), cleared before any
    /// LP solve. Lets a depth-first dive skip the restore entirely.
    loaded: Option<Arc<BasisSnapshot>>,
    /// Node LPs that started from a parent basis (restored or inherited).
    pub(crate) warm_starts: u64,
    /// Node LPs that started from the slack basis (root, warm starts off,
    /// or a snapshot that failed to factorize).
    pub(crate) cold_starts: u64,
    /// Scratch for the node LP's full primal vector.
    xbuf: Vec<f64>,
    /// Scratch for the rounding heuristic's candidate point.
    round_buf: Vec<f64>,
    /// In-tree cover separation is armed for this worker (serial search
    /// with `SolverOptions::cut_node_interval > 0`); parallel workers keep
    /// it off because appended rows are worker-local.
    tree_cuts: bool,
    /// Pool for the worker's in-tree cuts (dedup/scoring only — in-tree
    /// cuts stay in this worker's LP for the rest of its search).
    tree_pool: crate::cuts::CutPool,
    /// Root box per structural column (cover separation needs the global
    /// bounds of non-binary terms).
    cut_bounds: Vec<(f64, f64)>,
    /// Binary columns under the root box (cover cut candidates).
    binary: Vec<bool>,
    /// In-tree candidate cuts generated by this worker.
    pub(crate) cuts_generated: u64,
    /// In-tree cuts appended to this worker's LP.
    pub(crate) cuts_applied: u64,
    /// Seconds this worker spent separating in-tree cuts.
    pub(crate) separation_seconds: f64,
    /// Node-level bound propagation is armed
    /// ([`SolverOptions::propagation`] with integer columns present).
    propagate_on: bool,
    /// Conflict no-good derivation is armed: worker-local rows allowed
    /// (serial search) with [`SolverOptions::conflict_cuts`] on.
    conflicts_on: bool,
    /// Structural integrality mask (length `model.num_vars()`).
    int_mask: Vec<bool>,
    /// Scratch structural lower bounds for the propagation pass.
    prop_lb: Vec<f64>,
    /// Scratch structural upper bounds for the propagation pass.
    prop_ub: Vec<f64>,
    /// Scratch reference point for conflict-cut pool scoring.
    conflict_ref: Vec<f64>,
    /// Pool for this worker's conflict no-goods (dedup/scoring; conflict
    /// rows stay in this worker's LP like in-tree covers).
    conflict_pool: crate::cuts::CutPool,
    /// Individual bounds tightened by node propagation.
    pub(crate) propagated_bounds: u64,
    /// Nodes fathomed by propagation without an LP solve.
    pub(crate) propagation_fathoms: u64,
    /// Seconds spent propagating node bounds.
    pub(crate) propagation_seconds: f64,
    /// Conflict no-goods derived from infeasible nodes.
    pub(crate) conflict_cuts_generated: u64,
    /// Conflict no-goods accepted by the pool and appended to the LP.
    pub(crate) conflict_cuts_applied: u64,
    /// Verified symmetry plan for node-level lex (orbital) propagation;
    /// armed by [`NodeWorker::arm_symmetry`] after construction. `None`
    /// when no symmetry was verified or orbital fixing is off.
    symmetry: Option<Arc<crate::symmetry::SymmetryPlan>>,
    /// Column fixings applied by lex propagation at this worker's nodes.
    pub(crate) orbital_fixings: u64,
    /// Strong-branching probe LPs this worker solved (reliability rule).
    pub(crate) strong_branch_probes: u64,
}

/// Outcome of a reliability strong-branching pass at one node.
enum ProbeResult {
    /// Pseudo-costs seeded (or nothing to probe); branch normally.
    Done,
    /// One probe direction proved infeasible: branch single-sided the other
    /// way (`up` is the direction of the surviving child).
    Forced { j: usize, v: f64, up: bool },
    /// Both probe directions proved infeasible: the node carries no integer
    /// point.
    Fathomed,
}

/// Ceiling on in-tree cuts one worker may append to its LP: every row is
/// priced on every later node of this worker, so unbounded growth would
/// trade node count for per-node cost.
const MAX_TREE_CUTS: usize = 200;

/// Ceiling on conflict no-goods one worker may append, for the same
/// pricing-cost reason as [`MAX_TREE_CUTS`].
const MAX_CONFLICT_CUTS: usize = 200;

/// Outcome of one in-tree separation round.
enum TreeCutResult {
    /// No violated cut survived the pool — continue with the current point.
    NoCuts,
    /// Cuts appended and the LP re-optimized to the new (tighter) bound;
    /// the caller's primal vector has been refreshed.
    Resolved(f64),
    /// The LP went infeasible over globally valid cuts: the node carries no
    /// integer point and fathoms.
    Fathomed,
    /// Deadline/cancel/numerics during the re-solve (limit semantics).
    Unsolved,
}

impl<'a> NodeWorker<'a> {
    pub(crate) fn new(
        model: &'a Model,
        sf: &'a StandardForm,
        options: &'a SolverOptions,
        int_cols: &'a [usize],
        root_bounds: &[(f64, f64)],
        start: Instant,
        allow_tree_cuts: bool,
    ) -> Self {
        let mut lp = Simplex::new(sf, options);
        if options.time_limit.is_finite() {
            lp.deadline = Some(start + std::time::Duration::from_secs_f64(options.time_limit));
        }
        // Apply the root's inward-rounded integer bounds (continuous columns
        // already match the standard form's bounds).
        for &j in int_cols {
            let (l, u) = root_bounds[j];
            lp.set_bounds(j, l, u);
        }
        lp.refresh();
        let tree_cuts = allow_tree_cuts
            && options.cuts
            && options.cover_cuts
            && options.cut_node_interval > 0
            && !int_cols.is_empty();
        let mut is_int = vec![false; model.num_vars()];
        for &j in int_cols {
            is_int[j] = true;
        }
        let propagate_on = options.propagation && !int_cols.is_empty();
        let conflicts_on = allow_tree_cuts && options.conflict_cuts && !int_cols.is_empty();
        let binary = if tree_cuts || conflicts_on {
            (0..model.num_vars()).map(|j| is_int[j] && root_bounds[j] == (0.0, 1.0)).collect()
        } else {
            Vec::new()
        };
        NodeWorker {
            model,
            sf,
            lp,
            options,
            int_cols,
            pseudo: vec![PseudoCost::default(); model.num_vars()],
            nodes: 0,
            start,
            hit_limit: false,
            interrupted: false,
            pruned: 0,
            dual_bound: f64::INFINITY,
            loaded: None,
            warm_starts: 0,
            cold_starts: 0,
            xbuf: Vec::new(),
            round_buf: Vec::new(),
            tree_cuts,
            tree_pool: crate::cuts::CutPool::new(),
            cut_bounds: if tree_cuts { root_bounds.to_vec() } else { Vec::new() },
            binary,
            cuts_generated: 0,
            cuts_applied: 0,
            separation_seconds: 0.0,
            propagate_on,
            conflicts_on,
            int_mask: is_int,
            prop_lb: Vec::new(),
            prop_ub: Vec::new(),
            conflict_ref: Vec::new(),
            conflict_pool: crate::cuts::CutPool::new(),
            propagated_bounds: 0,
            propagation_fathoms: 0,
            propagation_seconds: 0.0,
            conflict_cuts_generated: 0,
            conflict_cuts_applied: 0,
            symmetry: None,
            orbital_fixings: 0,
            strong_branch_probes: 0,
        }
    }

    /// Arms node-level lex (orbital) propagation with a verified symmetry
    /// plan. Kept out of `new` so the existing construction sites (tests,
    /// parallel workers) stay untouched when no symmetry is present.
    pub(crate) fn arm_symmetry(&mut self, plan: Arc<crate::symmetry::SymmetryPlan>) {
        self.symmetry = Some(plan);
    }

    pub(crate) fn time_up(&self) -> bool {
        self.options.time_limit.is_finite()
            && self.start.elapsed().as_secs_f64() > self.options.time_limit
    }

    /// Records a prune-by-bound of a node with inherited bound
    /// `bound_internal` and emits the matching event.
    pub(crate) fn note_pruned(&mut self, bound_internal: f64) {
        self.pruned += 1;
        let sf = self.sf;
        self.options
            .observer
            .emit(|| SolverEvent::NodePruned { bound: sf.user_objective(bound_internal) });
    }

    /// Emits the node-evaluation event: the root emits
    /// [`SolverEvent::RootRelaxation`], everything else
    /// [`SolverEvent::NodeExplored`].
    fn emit_node(&self, node: &OpenNode, bound_internal: f64, pivots: u64) {
        let sf = self.sf;
        let n = self.nodes;
        self.options.observer.emit(|| {
            let bound = sf.user_objective(bound_internal);
            if node.deltas.is_empty() {
                SolverEvent::RootRelaxation { bound }
            } else {
                SolverEvent::NodeExplored { node: n, bound, depth: node.deltas.len(), pivots }
            }
        });
    }

    /// Emits the incumbent-accepted event. The reported bound is the global
    /// dual bound: the current node's LP bound tightened by the best bound
    /// among the other open nodes ([`NodeWorker::dual_bound`]).
    fn emit_incumbent(&self, obj_internal: f64, bound_internal: f64) {
        let sf = self.sf;
        let bound_internal = bound_internal.min(self.dual_bound);
        self.options.observer.emit(|| SolverEvent::Incumbent {
            objective: sf.user_objective(obj_internal),
            bound: sf.user_objective(bound_internal),
            gap: (obj_internal - bound_internal).abs() / obj_internal.abs().max(1.0),
        });
    }

    /// Solves the LP at the current bound state with one numerical retry.
    /// `Ok(None)` means the node could not be solved (deadline, cancel or
    /// numerics); a cancel additionally sets [`NodeWorker::interrupted`].
    fn solve_node_lp(&mut self) -> Result<Option<LpStatus>> {
        match self.lp.optimize() {
            Ok(s) => Ok(Some(s)),
            Err(MilpError::Interrupted) => {
                self.interrupted = true;
                Ok(None)
            }
            Err(MilpError::IterationLimit { .. }) | Err(MilpError::SingularBasis) => {
                if self.time_up() {
                    return Ok(None);
                }
                self.lp.reset_to_slack_basis();
                match self.lp.optimize() {
                    Ok(s) => Ok(Some(s)),
                    Err(MilpError::Interrupted) => {
                        self.interrupted = true;
                        Ok(None)
                    }
                    Err(MilpError::IterationLimit { .. }) | Err(MilpError::SingularBasis) => {
                        Ok(None)
                    }
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Most fractional / first / pseudo-cost selection among integer columns.
    fn pick_branch_var(&self, x: &[f64]) -> Option<(usize, f64)> {
        let tol = self.options.integrality_tol;
        // Respect priority classes: only consider the highest priority class
        // that contains a fractional variable (int_cols is priority-sorted).
        let mut best: Option<(usize, f64, f64)> = None; // (col, value, score)
        let mut active_priority: Option<i32> = None;
        for &j in self.int_cols {
            let v = x[j];
            let frac = (v - v.round()).abs();
            if frac <= tol {
                continue;
            }
            let prio = self.model.vars[j].branch_priority;
            match active_priority {
                None => active_priority = Some(prio),
                Some(p) if prio < p => break,
                _ => {}
            }
            match self.options.branch_rule {
                BranchRule::FirstFractional => return Some((j, v)),
                BranchRule::MostFractional => {
                    // `frac` is already the distance to the nearest integer
                    // (∈ (tol, 0.5]); larger means more fractional.
                    let score = frac;
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((j, v, score));
                    }
                }
                BranchRule::PseudoCost | BranchRule::Reliability => {
                    // Reliability scores identically; its strong-branching
                    // probes (run before selection) have already seeded the
                    // pseudo-costs of unreliable columns.
                    let f = v - v.floor();
                    let pc = &self.pseudo[j];
                    let fallback = 1.0;
                    let score =
                        (pc.down(fallback) * f).max(1e-6) * (pc.up(fallback) * (1.0 - f)).max(1e-6);
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((j, v, score));
                    }
                }
            }
        }
        best.map(|(j, v, _)| (j, v))
    }

    /// Tries rounding the LP point into an incumbent candidate; offers any
    /// feasible rounding to `incumbent` and returns the objective of an
    /// accepted offer.
    fn try_rounding(&mut self, x: &[f64], incumbent: &mut dyn Incumbent) -> Option<f64> {
        if !self.options.rounding_heuristic {
            return None;
        }
        let mut cand = std::mem::take(&mut self.round_buf);
        cand.clear();
        cand.extend_from_slice(x);
        for &j in self.int_cols {
            cand[j] = cand[j].round();
        }
        let tol = self.options.feasibility_tol.max(self.options.integrality_tol);
        let mut accepted = None;
        if self.model.is_feasible(&cand, tol * 10.0) {
            let obj = internal_objective(self.model, self.sf, &cand);
            if incumbent.offer(&cand, obj) {
                accepted = Some(obj);
            }
        }
        self.round_buf = cand;
        accepted
    }

    fn record_pseudocost(&mut self, node: &OpenNode, child_bound: f64) {
        if let Some((j, frac, up)) = node.branched {
            if node.bound.is_finite() && child_bound.is_finite() {
                let degradation = (child_bound - node.bound).max(0.0);
                let pc = &mut self.pseudo[j];
                if up {
                    let per_unit = degradation / (1.0 - frac).max(1e-6);
                    pc.up_sum += per_unit;
                    pc.up_n += 1;
                } else {
                    let per_unit = degradation / frac.max(1e-6);
                    pc.down_sum += per_unit;
                    pc.down_n += 1;
                }
            }
        }
    }

    /// Applies a node's deltas on top of the root bounds, then installs the
    /// node's starting basis (see [`OpenNode::parent_basis`]).
    pub(crate) fn enter_node(&mut self, node: &OpenNode, root_bounds: &[(f64, f64)]) {
        // Resetting exactly the integer columns touched by any delta path is
        // expensive to track; reset all integer columns to root, then apply.
        for &j in self.int_cols {
            let (l, u) = root_bounds[j];
            self.lp.set_bounds(j, l, u);
        }
        for &(j, l, u) in &node.deltas {
            self.lp.set_bounds(j, l, u);
        }
        // Basis selection comes *after* the bound edits so a restore
        // recomputes reduced costs and basic values against this node's box.
        // Every arm below leaves the basic values freshly computed.
        if !self.options.warm_start {
            // Ablation reference: every node LP solves from the slack basis.
            self.cold_starts += 1;
            self.lp.reset_to_slack_basis();
            return;
        }
        match &node.parent_basis {
            Some(snap) => {
                let inherited = self.loaded.as_ref().is_some_and(|l| Arc::ptr_eq(l, snap));
                if inherited {
                    // Depth-first dive: the worker's basis already *is* the
                    // parent's optimal basis — no refactorization needed,
                    // only a value refresh for the edited bounds.
                    self.warm_starts += 1;
                    self.lp.refresh();
                } else if self.lp.restore_snapshot(snap).is_ok() {
                    // Backtrack or steal: reinstall the parent basis.
                    self.warm_starts += 1;
                } else {
                    // The snapshot basis would not factorize under this
                    // kernel (numerics): fall back to a cold start.
                    self.cold_starts += 1;
                    self.lp.reset_to_slack_basis();
                }
            }
            None => {
                // The root node. A fresh simplex already sits on the slack
                // basis; the explicit reset also covers re-entry paths.
                self.cold_starts += 1;
                self.lp.reset_to_slack_basis();
            }
        }
    }

    /// Evaluates one node whose deltas are already applied. Returns the
    /// children to explore (empty when pruned/integral) and the node's LP
    /// bound. New integral points and rounding candidates are pushed into
    /// `incumbent`.
    pub(crate) fn eval_node(
        &mut self,
        node: &OpenNode,
        incumbent: &mut dyn Incumbent,
    ) -> Result<(Vec<OpenNode>, f64)> {
        self.nodes += 1;
        // The solve moves the basis away from whatever snapshot was loaded.
        self.loaded = None;
        if self.symmetry.is_some() && self.propagate_symmetry() {
            // Lex propagation refuted the node: every point of its box is
            // lex-dominated by a symmetric image, so the representative
            // optimum lives elsewhere. Same event/conflict shape as a
            // propagation fathom.
            self.emit_node(node, f64::INFINITY, 0);
            if self.conflicts_on {
                self.maybe_conflict_cut(node);
            }
            return Ok((vec![], f64::INFINITY));
        }
        if self.propagate_on && self.propagate_node() {
            // Propagation emptied the node box: fathom without an LP solve.
            // The node still emits its exploration event (bound +inf, zero
            // pivots) so node-counting observers see every evaluated node.
            self.emit_node(node, f64::INFINITY, 0);
            if self.conflicts_on {
                self.maybe_conflict_cut(node);
            }
            return Ok((vec![], f64::INFINITY));
        }
        let pivots_before = self.lp.iterations;
        let status = match self.solve_node_lp()? {
            Some(s) => s,
            None => {
                // Unsolved node: stop the search conservatively.
                self.hit_limit = true;
                return Ok((vec![], node.bound));
            }
        };
        let pivots = self.lp.iterations - pivots_before;
        if status == LpStatus::Infeasible {
            // An infeasible node's bound is +inf (internal scale); the event
            // reports the corresponding user-scale extreme.
            self.emit_node(node, f64::INFINITY, pivots);
            if self.conflicts_on {
                self.maybe_conflict_cut(node);
            }
            return Ok((vec![], f64::INFINITY));
        }
        // The LP point is optimal for the *perturbed* costs; subtracting the
        // margin gives a valid bound for the true costs. The node's own
        // bound (parent LP bound, or the carried dual bound at a resumed
        // root) is also valid for this subproblem, so keep the tighter of
        // the two — this is what lets a carried bound prune the whole tree
        // once the incumbent reaches the previous optimum.
        let mut bound = (self.lp.objective() - self.lp.bound_margin()).max(node.bound);
        self.emit_node(node, bound, pivots);
        self.record_pseudocost(node, bound);
        if gap_closed(self.options, incumbent.best_obj(), bound) {
            return Ok((vec![], bound));
        }
        let mut full = std::mem::take(&mut self.xbuf);
        self.lp.values_into(&mut full);
        if self.tree_cuts_due(node) {
            match self.separate_in_tree(&mut full)? {
                TreeCutResult::NoCuts => {}
                TreeCutResult::Resolved(b) => {
                    bound = b.max(bound);
                    if gap_closed(self.options, incumbent.best_obj(), bound) {
                        self.xbuf = full;
                        return Ok((vec![], bound));
                    }
                }
                TreeCutResult::Fathomed => {
                    self.xbuf = full;
                    return Ok((vec![], f64::INFINITY));
                }
                TreeCutResult::Unsolved => {
                    self.hit_limit = true;
                    self.xbuf = full;
                    return Ok((vec![], node.bound));
                }
            }
        }
        let result = self.branch_or_fathom(node, incumbent, &full, bound);
        self.xbuf = full;
        result
    }

    /// Activity-based bound propagation on the current node box (the bound
    /// state `enter_node` installed): returns `true` when the box is
    /// provably empty. Runs over the worker LP's *own* form so appended cut
    /// rows participate. Time lands in the disjoint propagation bucket.
    ///
    /// The fixpoint arithmetic tightens freely (deeper chains find more
    /// fathoms), but only tightenings that *fix* a column (`lb == ub`) are
    /// written into the live LP: a binary tightening is always a fixing, so
    /// 0/1 models keep the full effect, while partial interval shrinks on
    /// general-integer columns — which barely prune but perturb the LP
    /// optimum enough to reroute branching — stay out of the node. Applied
    /// fixings feed the branched children through `branch_or_fathom`'s
    /// bound reads.
    fn propagate_node(&mut self) -> bool {
        let t0 = Instant::now();
        let n = self.sf.n;
        let mut plb = std::mem::take(&mut self.prop_lb);
        let mut pub_ = std::mem::take(&mut self.prop_ub);
        plb.clear();
        plb.extend_from_slice(&self.lp.lb[..n]);
        pub_.clear();
        pub_.extend_from_slice(&self.lp.ub[..n]);
        let res = crate::propagate::propagate(
            self.lp.form(),
            &self.int_mask,
            &mut plb,
            &mut pub_,
            &self.lp.lb[n..],
            &self.lp.ub[n..],
            self.options.feasibility_tol,
            self.options.integrality_tol,
        );
        let mut fathomed = false;
        let mut count: u64 = 0;
        match res {
            crate::propagate::Propagation::Infeasible => {
                fathomed = true;
                self.propagation_fathoms += 1;
            }
            crate::propagate::Propagation::Tightened(_) => {
                let mut any = false;
                for j in 0..n {
                    if plb[j] == pub_[j] && (plb[j] != self.lp.lb[j] || pub_[j] != self.lp.ub[j]) {
                        if plb[j] > self.lp.lb[j] {
                            count += 1;
                        }
                        if pub_[j] < self.lp.ub[j] {
                            count += 1;
                        }
                        self.lp.set_bounds(j, plb[j], pub_[j]);
                        any = true;
                    }
                }
                self.propagated_bounds += count;
                if any {
                    self.lp.refresh();
                }
            }
            crate::propagate::Propagation::Unchanged => {}
        }
        self.prop_lb = plb;
        self.prop_ub = pub_;
        self.propagation_seconds += t0.elapsed().as_secs_f64();
        if fathomed || count > 0 {
            let node = self.nodes;
            let tightened = count.min(u32::MAX as u64) as u32;
            self.options.observer.emit(|| SolverEvent::NodePropagated {
                node,
                tightened,
                fathomed,
            });
        }
        fathomed
    }

    /// Lex (orbital) propagation on the current node box: under the
    /// "keep the lex-greatest point of every symmetry orbit" rule, a fixed
    /// prefix position forces fixings on its image columns, and a provably
    /// violated prefix means every point of the box is lex-dominated by a
    /// symmetric image — the surviving representative lives in another
    /// subtree, so the node fathoms. Returns `true` on fathom. Applied
    /// fixings land in the live LP exactly like propagation fixings and
    /// feed the branched children through `branch_or_fathom`'s bound reads.
    fn propagate_symmetry(&mut self) -> bool {
        let Some(plan) = self.symmetry.clone() else {
            return false;
        };
        let t0 = Instant::now();
        let n = self.sf.n;
        let mut plb = std::mem::take(&mut self.prop_lb);
        let mut pub_ = std::mem::take(&mut self.prop_ub);
        plb.clear();
        plb.extend_from_slice(&self.lp.lb[..n]);
        pub_.clear();
        pub_.extend_from_slice(&self.lp.ub[..n]);
        let mut fixed: Vec<(usize, f64)> = Vec::new();
        let ok = crate::symmetry::propagate_lex(&plan.pairs, &mut plb, &mut pub_, &mut fixed);
        if ok && !fixed.is_empty() {
            for &(j, v) in &fixed {
                self.lp.set_bounds(j, v, v);
            }
            self.orbital_fixings += fixed.len() as u64;
            self.lp.refresh();
        }
        self.prop_lb = plb;
        self.prop_ub = pub_;
        self.propagation_seconds += t0.elapsed().as_secs_f64();
        !ok
    }

    /// Derives a globally valid no-good cut from an infeasible node whose
    /// branching path consists entirely of binary fixings, and appends it
    /// to this worker's LP through the conflict pool. LP (or propagation)
    /// infeasibility under the fixings proves no integer point matches all
    /// of them while the remaining columns roam the root box, so
    /// `Σ_{fixed 0} x_j − Σ_{fixed 1} x_j ≥ 1 − #fixed-to-1` holds for
    /// every integer-feasible point of the model.
    fn maybe_conflict_cut(&mut self, node: &OpenNode) {
        if node.deltas.is_empty() || self.conflict_pool.installed() >= MAX_CONFLICT_CUTS {
            return;
        }
        // Fold the path into the final interval per column (later deltas
        // overwrite earlier ones, matching `enter_node`).
        let mut fix: Vec<(usize, f64, f64)> = Vec::new();
        for &(j, l, u) in &node.deltas {
            match fix.iter_mut().find(|&&mut (k, _, _)| k == j) {
                Some(e) => {
                    e.1 = l;
                    e.2 = u;
                }
                None => fix.push((j, l, u)),
            }
        }
        // The no-good argument needs every path column fixed to 0 or 1 under
        // the root box; a general-integer or interval delta disqualifies the
        // node (no cut — conservative).
        let mut ones = 0usize;
        for &(j, l, u) in &fix {
            if !self.binary[j] || l != u || (l != 0.0 && l != 1.0) {
                return;
            }
            if l == 1.0 {
                ones += 1;
            }
        }
        let mut coeffs: Vec<(usize, f64)> =
            fix.iter().map(|&(j, _, u)| (j, if u == 1.0 { -1.0 } else { 1.0 })).collect();
        coeffs.sort_unstable_by_key(|&(j, _)| j);
        let cut = crate::cuts::Cut {
            coeffs,
            rhs: 1.0 - ones as f64,
            sense: crate::cuts::CutSense::Ge,
            family: crate::cuts::CutFamily::Conflict,
            validity: crate::cuts::CutValidity::Global,
        };
        self.conflict_cuts_generated += 1;
        // Score the candidate at the refuted assignment itself, where its
        // violation is exactly 1.
        let mut x_ref = std::mem::take(&mut self.conflict_ref);
        x_ref.clear();
        x_ref.resize(self.model.num_vars(), 0.0);
        for &(j, _, u) in &fix {
            if u == 1.0 {
                x_ref[j] = 1.0;
            }
        }
        let chosen = self.conflict_pool.select(vec![cut], &x_ref);
        self.conflict_ref = x_ref;
        if chosen.is_empty() {
            return;
        }
        if self.lp.append_cut_rows(&chosen).is_err() {
            // The extended basis would not refactorize: fall back to the
            // slack basis over the grown form (always factorizable).
            self.lp.reset_to_slack_basis();
        }
        self.conflict_cuts_applied += chosen.len() as u64;
        let (depth, size) = (node.deltas.len(), fix.len());
        self.options.observer.emit(|| SolverEvent::ConflictCut { depth, size });
    }

    /// Whether this node is an in-tree separation point: the serial search
    /// separates cover cuts every [`SolverOptions::cut_node_interval`]
    /// depths (never at the root, whose cuts the root loop already owns).
    fn tree_cuts_due(&self, node: &OpenNode) -> bool {
        self.tree_cuts
            && !node.deltas.is_empty()
            && node.deltas.len().is_multiple_of(self.options.cut_node_interval)
            && self.tree_pool.installed() < MAX_TREE_CUTS
    }

    /// One round of in-tree cover separation at the node optimum held in
    /// `full`. Appended cuts are globally valid, so they stay in this
    /// worker's LP for the rest of its search; on `Resolved` the re-solved
    /// primal vector replaces `full`.
    fn separate_in_tree(&mut self, full: &mut Vec<f64>) -> Result<TreeCutResult> {
        let t0 = Instant::now();
        let x = &full[..self.model.num_vars()];
        let params = crate::cuts::cover::CoverParams { min_violation: 1e-4, big: self.sf.big };
        let mut cands = Vec::new();
        crate::cuts::cover::separate(
            self.model,
            &self.cut_bounds,
            &self.binary,
            x,
            &params,
            &mut cands,
        );
        self.cuts_generated += cands.len() as u64;
        let chosen = self.tree_pool.select(cands, x);
        self.separation_seconds += t0.elapsed().as_secs_f64();
        if chosen.is_empty() {
            return Ok(TreeCutResult::NoCuts);
        }
        if self.lp.append_cut_rows(&chosen).is_err() {
            // The extended basis would not refactorize: fall back to the
            // slack basis over the grown form (always factorizable).
            self.lp.reset_to_slack_basis();
        }
        self.cuts_applied += chosen.len() as u64;
        match self.solve_node_lp()? {
            None => Ok(TreeCutResult::Unsolved),
            Some(LpStatus::Infeasible) => Ok(TreeCutResult::Fathomed),
            Some(LpStatus::Optimal) => {
                self.lp.values_into(full);
                Ok(TreeCutResult::Resolved(self.lp.objective() - self.lp.bound_margin()))
            }
        }
    }

    /// Ceiling on columns probed by one reliability pass; the rest of the
    /// unreliable candidates wait for later nodes (or real branch
    /// observations) to seed their pseudo-costs.
    const MAX_PROBE_CANDIDATES: usize = 8;

    /// Reliability strong branching: for fractional columns of the active
    /// priority class whose pseudo-costs have fewer than
    /// [`SolverOptions::reliability_threshold`] observations on a side,
    /// solve both child LPs under a pivot budget
    /// ([`SolverOptions::strong_branch_pivot_limit`]), warm from this
    /// node's optimal basis, and seed the pseudo-costs with the observed
    /// degradations. A capped probe still yields a valid degradation
    /// estimate (any dual-feasible iterate bounds the child from below);
    /// a primal-infeasible probe is a rigorous proof the child is empty,
    /// which forces a single-sided branch (or fathoms the node when both
    /// sides are refuted).
    fn strong_branch_probe(&mut self, x: &[f64]) -> Result<ProbeResult> {
        let eta = self.options.reliability_threshold;
        let cap = self.options.strong_branch_pivot_limit;
        if eta == 0 || cap == 0 {
            return Ok(ProbeResult::Done);
        }
        let tol = self.options.integrality_tol;
        // Unreliable fractional candidates of the active (highest) priority
        // class, most fractional first, index tiebreak for determinism.
        let mut cands: Vec<(usize, f64)> = Vec::new();
        let mut active_priority: Option<i32> = None;
        for &j in self.int_cols {
            let v = x[j];
            if (v - v.round()).abs() <= tol {
                continue;
            }
            let prio = self.model.vars[j].branch_priority;
            match active_priority {
                None => active_priority = Some(prio),
                Some(p) if prio < p => break,
                _ => {}
            }
            if self.pseudo[j].down_n.min(self.pseudo[j].up_n) < eta {
                cands.push((j, v));
            }
        }
        if cands.is_empty() {
            return Ok(ProbeResult::Done);
        }
        cands.sort_by(|a, b| {
            let fa = (a.1 - a.1.round()).abs();
            let fb = (b.1 - b.1.round()).abs();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        cands.truncate(Self::MAX_PROBE_CANDIDATES);

        let node_obj = self.lp.objective();
        let snap = self.lp.snapshot();
        let mut outcome = ProbeResult::Done;
        let mut fatal: Option<MilpError> = None;
        'cands: for &(j, v) in &cands {
            let (lb, ub) = (self.lp.lb[j], self.lp.ub[j]);
            let (mut inf_down, mut inf_up) = (false, false);
            for up in [false, true] {
                if self.options.cancelled() {
                    self.interrupted = true;
                    break 'cands;
                }
                if self.time_up() {
                    break 'cands;
                }
                if up {
                    self.lp.set_bounds(j, v.ceil(), ub);
                } else {
                    self.lp.set_bounds(j, lb, v.floor());
                }
                self.lp.refresh();
                self.strong_branch_probes += 1;
                let res = self.lp.optimize_capped(cap);
                self.lp.set_bounds(j, lb, ub);
                match res {
                    Ok(LpStatus::Optimal) | Err(MilpError::IterationLimit { .. }) => {
                        // Optimal or capped (incl. deadline): the current
                        // objective only *under*states the degradation, the
                        // safe direction for a pseudo-cost seed.
                        let deg = (self.lp.objective() - node_obj).max(0.0);
                        let frac = v - v.floor();
                        let pc = &mut self.pseudo[j];
                        if up {
                            pc.up_sum += deg / (1.0 - frac).max(1e-6);
                            pc.up_n += 1;
                        } else {
                            pc.down_sum += deg / frac.max(1e-6);
                            pc.down_n += 1;
                        }
                    }
                    Ok(LpStatus::Infeasible) => {
                        // Primal infeasibility is cost-independent: rigorous.
                        if up {
                            inf_up = true;
                        } else {
                            inf_down = true;
                        }
                    }
                    Err(MilpError::Interrupted) => {
                        self.interrupted = true;
                        break 'cands;
                    }
                    Err(MilpError::SingularBasis) => {
                        // Numerics under the probe bound: abandon probing;
                        // the restore below recovers the node state.
                        break 'cands;
                    }
                    Err(e) => {
                        fatal = Some(e);
                        break 'cands;
                    }
                }
                // Re-seat the node basis so the next probe warm-starts from
                // the node optimum rather than the previous probe's basis.
                if self.lp.restore_snapshot(&snap).is_err() {
                    self.lp.reset_to_slack_basis();
                    break 'cands;
                }
            }
            if inf_down && inf_up {
                outcome = ProbeResult::Fathomed;
                break;
            }
            if inf_down {
                outcome = ProbeResult::Forced { j, v, up: true };
                break;
            }
            if inf_up {
                outcome = ProbeResult::Forced { j, v, up: false };
                break;
            }
        }
        // Node bounds were restored per probe; reinstall the node basis for
        // the branching snapshot (slack fallback keeps the LP usable).
        if self.lp.restore_snapshot(&snap).is_err() {
            self.lp.reset_to_slack_basis();
        }
        if let Some(e) = fatal {
            return Err(e);
        }
        Ok(outcome)
    }

    /// The post-solve half of [`NodeWorker::eval_node`]: accept an integral
    /// optimum, or pick a branching variable and build the children.
    fn branch_or_fathom(
        &mut self,
        node: &OpenNode,
        incumbent: &mut dyn Incumbent,
        full: &[f64],
        bound: f64,
    ) -> Result<(Vec<OpenNode>, f64)> {
        let x = &full[..self.model.num_vars()];
        if matches!(self.options.branch_rule, BranchRule::Reliability) {
            match self.strong_branch_probe(x)? {
                ProbeResult::Done => {}
                ProbeResult::Fathomed => {
                    // Both directions of some fractional column are primal
                    // infeasible: no integer point in this box.
                    if self.conflicts_on {
                        self.maybe_conflict_cut(node);
                    }
                    return Ok((vec![], f64::INFINITY));
                }
                ProbeResult::Forced { j, v, up } => {
                    // One direction refuted: branch single-sided the other
                    // way — same bookkeeping as a normal branch, one child.
                    let frac = v - v.floor();
                    let lb = self.lp.lb[j];
                    let ub = self.lp.ub[j];
                    let parent_basis = if self.options.warm_start {
                        let snap = Arc::new(self.lp.snapshot());
                        self.loaded = Some(Arc::clone(&snap));
                        Some(snap)
                    } else {
                        None
                    };
                    let delta = if up { (j, v.ceil(), ub) } else { (j, lb, v.floor()) };
                    let child = OpenNode {
                        deltas: push_delta(&node.deltas, delta),
                        bound,
                        branched: Some((j, frac, up)),
                        parent_basis,
                    };
                    return Ok((vec![child], bound));
                }
            }
        }
        match self.pick_branch_var(x) {
            None => {
                // Integral LP optimum: new incumbent.
                let obj = internal_objective(self.model, self.sf, x);
                if incumbent.offer(x, obj) {
                    self.emit_incumbent(obj, bound);
                }
                Ok((vec![], bound))
            }
            Some((j, v)) => {
                if let Some(obj) = self.try_rounding(x, incumbent) {
                    self.emit_incumbent(obj, bound);
                }
                if gap_closed(self.options, incumbent.best_obj(), bound) {
                    return Ok((vec![], bound));
                }
                let frac = v - v.floor();
                let lb = self.lp.lb[j];
                let ub = self.lp.ub[j];
                // Both children restart from this node's optimal basis:
                // snapshot it once, share it by `Arc`, and remember that the
                // worker's basis currently equals the snapshot so an
                // immediate dive skips the restore.
                let parent_basis = if self.options.warm_start {
                    let snap = Arc::new(self.lp.snapshot());
                    self.loaded = Some(Arc::clone(&snap));
                    Some(snap)
                } else {
                    None
                };
                let down = OpenNode {
                    deltas: push_delta(&node.deltas, (j, lb, v.floor())),
                    bound,
                    branched: Some((j, frac, false)),
                    parent_basis: parent_basis.clone(),
                };
                let up = OpenNode {
                    deltas: push_delta(&node.deltas, (j, v.ceil(), ub)),
                    bound,
                    branched: Some((j, frac, true)),
                    parent_basis,
                };
                // Explore the nearer child first under DFS.
                let children = if frac <= 0.5 { vec![down, up] } else { vec![up, down] };
                Ok((children, bound))
            }
        }
    }
}

/// Aggregated result of a search run, in internal (minimization) scale.
pub(crate) struct SearchOutcome {
    pub(crate) incumbent: Option<Vec<f64>>,
    pub(crate) incumbent_obj: f64,
    pub(crate) best_bound_internal: f64,
    pub(crate) nodes: u64,
    pub(crate) nodes_per_thread: Vec<u64>,
    pub(crate) simplex_iterations: u64,
    pub(crate) hit_limit: bool,
    /// The cancel token fired during the search.
    pub(crate) interrupted: bool,
    /// Open nodes discarded against the incumbent bound.
    pub(crate) pruned: u64,
    /// Incumbent improvements accepted during the search.
    pub(crate) incumbents: u64,
    /// Nodes obtained by work stealing (0 for serial runs).
    pub(crate) steals: u64,
    /// CPU-seconds inside the simplex loops, summed over workers.
    pub(crate) simplex_seconds: f64,
    /// CPU-seconds factorizing bases, summed over workers.
    pub(crate) factor_seconds: f64,
    /// Basis refactorizations, summed over workers.
    pub(crate) refactorizations: u64,
    /// Node LPs warm-started from a parent basis, summed over workers.
    pub(crate) warm_starts: u64,
    /// Node LPs started from the slack basis, summed over workers.
    pub(crate) cold_starts: u64,
    /// In-tree candidate cuts generated (0 for parallel runs).
    pub(crate) cuts_generated: u64,
    /// In-tree cuts appended to a worker LP (0 for parallel runs).
    pub(crate) cuts_applied: u64,
    /// Seconds separating in-tree cuts, summed over workers.
    pub(crate) separation_seconds: f64,
    /// Individual bounds tightened by node propagation, summed over workers.
    pub(crate) propagated_bounds: u64,
    /// Nodes fathomed by propagation without an LP solve.
    pub(crate) propagation_fathoms: u64,
    /// Seconds propagating node bounds, summed over workers.
    pub(crate) propagation_seconds: f64,
    /// Conflict no-goods derived (0 for parallel runs).
    pub(crate) conflict_cuts_generated: u64,
    /// Conflict no-goods appended to a worker LP (0 for parallel runs).
    pub(crate) conflict_cuts_applied: u64,
    /// Column fixings applied by lex (orbital) propagation, summed over
    /// workers.
    pub(crate) orbital_fixings: u64,
    /// Strong-branching probe LPs solved (reliability rule), summed over
    /// workers.
    pub(crate) strong_branch_probes: u64,
}

/// Carried solver state between the solves of a
/// [`ResolveSession`](crate::ResolveSession): the standard form the last
/// search ended on (base rows plus every cut row separated so far) and the
/// basis the serial worker held when it stopped. The session patches the
/// form in place after a model delta, remaps the basis for appended
/// columns, and hands both back to [`solve_session`] so the next search
/// re-enters warm.
pub(crate) struct ResumeState {
    /// The standard form to search over (already patched for any delta).
    pub(crate) sf: StandardForm,
    /// Root starting basis, remapped to `sf`'s dimensions. `None` after a
    /// parallel search (worker bases are private) — cuts still carry.
    pub(crate) basis: Option<BasisSnapshot>,
    /// Dual bound of the previous solve (internal minimization scale). A
    /// pure restriction only shrinks the feasible set, so the old bound
    /// stays a valid lower bound on the new optimum: the resumed search
    /// seeds its root node with it (serial and parallel alike), and a
    /// re-solve whose incumbent still matches the old optimum closes the
    /// gap without exploring a single node. When it closes the gap on the
    /// validated warm start, the root heuristic phase is skipped as well.
    /// [`ResolveSession`](crate::ResolveSession) resets this to
    /// `NEG_INFINITY` whenever a delta adds a variable (a new column can
    /// improve the objective, invalidating the bound).
    pub(crate) bound: f64,
}

/// Entry point of the incremental re-solve engine
/// ([`ResolveSession`](crate::ResolveSession)): like [`solve`] but
/// *without presolve* — the carried solver state is indexed by the caller's
/// model columns, so the model must not be re-shaped under it — and with an
/// optional carried form + root basis to resume from. On return `capture`
/// holds the final form and basis for the next re-solve (basis only when
/// the search ran serial; a parallel search carries its cut rows cold).
pub(crate) fn solve_session(
    model: &Model,
    options: &SolverOptions,
    resume: Option<ResumeState>,
    capture: &mut Option<ResumeState>,
) -> Result<Solution> {
    let start = Instant::now();
    *capture = None;
    validate_nan(model)?;
    if model.num_vars() == 0 {
        return Ok(solve_constant(model, options, start));
    }
    let (sf, basis, carried_bound) = match resume {
        Some(r) => (r.sf, r.basis, Some(r.bound)),
        None => (StandardForm::from_model(model, options), None, None),
    };
    solve_on_form(model, options, sf, basis, carried_bound, Some(capture), start, 0.0)
}

/// Validates every expression of the model for NaN up front.
pub(crate) fn validate_nan(model: &Model) -> Result<()> {
    if model.objective().has_nan() {
        return Err(MilpError::NotANumber { context: "objective".into() });
    }
    for row in &model.rows {
        if row.expr.has_nan() || row.rhs.is_nan() {
            return Err(MilpError::NotANumber { context: format!("constraint `{}`", row.name) });
        }
    }
    Ok(())
}

/// Solves a model with no variables: feasible iff every row holds constant.
pub(crate) fn solve_constant(model: &Model, options: &SolverOptions, start: Instant) -> Solution {
    let feasible = model.rows.iter().all(|r| {
        let lhs = r.expr.constant();
        match r.sense {
            crate::ConstraintSense::Le => lhs <= r.rhs + options.feasibility_tol,
            crate::ConstraintSense::Ge => lhs >= r.rhs - options.feasibility_tol,
            crate::ConstraintSense::Eq => (lhs - r.rhs).abs() <= options.feasibility_tol,
        }
    });
    let obj = model.objective().constant();
    let status = if feasible { SolveStatus::Optimal } else { SolveStatus::Infeasible };
    let reason =
        if feasible { TerminationReason::GapClosed } else { TerminationReason::ProvenInfeasible };
    options.observer.emit(|| SolverEvent::Terminated { status, reason });
    let total = start.elapsed().as_secs_f64();
    Solution {
        status,
        values: vec![],
        objective: obj,
        best_bound: obj,
        nodes: 0,
        nodes_per_thread: vec![],
        simplex_iterations: 0,
        solve_seconds: total,
        stats: SolveStats { total_seconds: total, ..SolveStats::default() },
    }
}

/// Entry point used by [`Model::solve_with`].
pub(crate) fn solve(model: &Model, options: &SolverOptions) -> Result<Solution> {
    let start = Instant::now();
    validate_nan(model)?;

    if model.num_vars() == 0 {
        return Ok(solve_constant(model, options, start));
    }

    // Presolve, solve the reduced model, postsolve the incumbent.
    let mut presolve_seconds = 0.0;
    if options.presolve {
        let t_pre = Instant::now();
        let presolved = presolve(model, options.feasibility_tol)?;
        presolve_seconds = t_pre.elapsed().as_secs_f64();
        match presolved {
            Presolved::Infeasible => {
                options.observer.emit(|| SolverEvent::Presolve {
                    eliminated_vars: model.num_vars(),
                    eliminated_rows: model.num_constraints(),
                });
                options.observer.emit(|| SolverEvent::Terminated {
                    status: SolveStatus::Infeasible,
                    reason: TerminationReason::ProvenInfeasible,
                });
                let total = start.elapsed().as_secs_f64();
                return Ok(Solution {
                    status: SolveStatus::Infeasible,
                    values: vec![],
                    objective: f64::NAN,
                    best_bound: f64::NAN,
                    nodes: 0,
                    nodes_per_thread: vec![],
                    simplex_iterations: 0,
                    solve_seconds: total,
                    stats: SolveStats {
                        total_seconds: total,
                        presolve_seconds,
                        ..SolveStats::default()
                    },
                });
            }
            Presolved::Reduced(red) => {
                let eliminated_vars = red.eliminated_vars();
                let eliminated_rows =
                    model.num_constraints().saturating_sub(red.model.num_constraints());
                options
                    .observer
                    .emit(|| SolverEvent::Presolve { eliminated_vars, eliminated_rows });
                let shrunk = eliminated_vars > 0 || eliminated_rows > 0;
                if shrunk {
                    let red = Arc::new(red);
                    let mut inner = options.clone();
                    inner.presolve = false;
                    // Symmetry candidates are indexed by the caller's
                    // columns; presolve re-shapes the model, so they do not
                    // survive the reduction.
                    inner.symmetry_candidates = Arc::new(Vec::new());
                    // A feed publishes points in the caller's column space;
                    // route them through the same presolve mapping as warm
                    // starts so the reduced search can consume them.
                    if let Some(feed) = inner.incumbent_feed.take() {
                        let map_red = Arc::clone(&red);
                        let tol = options.integrality_tol.max(options.feasibility_tol);
                        inner.incumbent_feed = Some(
                            feed.mapped(Arc::new(move |p: &[f64]| map_red.presolve_point(p, tol))),
                        );
                    }
                    let mut reduced_model = red.model.clone();
                    if let Some(ws) = model.warm_start() {
                        if let Some(rws) = red.presolve_point(
                            ws,
                            options.integrality_tol.max(options.feasibility_tol),
                        ) {
                            let _ = reduced_model.set_warm_start(rws);
                        }
                    }
                    let sol = reduced_model.solve_with(&inner)?;
                    let values =
                        if sol.has_incumbent() { red.postsolve(sol.values()) } else { vec![] };
                    let total = start.elapsed().as_secs_f64();
                    let stats = SolveStats {
                        total_seconds: total,
                        presolve_seconds: sol.stats.presolve_seconds + presolve_seconds,
                        ..sol.stats
                    };
                    return Ok(Solution {
                        status: sol.status,
                        values,
                        objective: sol.objective,
                        best_bound: sol.best_bound,
                        nodes: sol.nodes,
                        nodes_per_thread: sol.nodes_per_thread.clone(),
                        simplex_iterations: sol.simplex_iterations,
                        solve_seconds: total,
                        stats,
                    });
                }
            }
        }
    }

    let sf = StandardForm::from_model(model, options);
    solve_on_form(model, options, sf, None, None, None, start, presolve_seconds)
}

/// The shared back half of [`solve`] and [`solve_session`]: root cuts,
/// heuristics and branch and bound over a prepared standard form. A
/// resumed session passes the carried `root_basis` (remapped to `sf`'s
/// columns) so the serial root node re-enters warm, and `capture` to
/// receive the final form + basis for the next re-solve.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_on_form(
    model: &Model,
    options: &SolverOptions,
    mut sf: StandardForm,
    root_basis: Option<BasisSnapshot>,
    carried_bound: Option<f64>,
    capture: Option<&mut Option<ResumeState>>,
    start: Instant,
    presolve_seconds: f64,
) -> Result<Solution> {
    let resumed = carried_bound.is_some();
    // Integer columns ordered by branch priority (desc), then index.
    let mut int_cols: Vec<usize> =
        (0..model.num_vars()).filter(|&j| model.vars[j].kind != VarKind::Continuous).collect();
    int_cols.sort_by_key(|&j| (-model.vars[j].branch_priority, j));

    // Root bounds are the standard form's clamped bounds (what a fresh
    // simplex starts from), with integer bounds rounded inward.
    let mut root_bounds: Vec<(f64, f64)> =
        (0..model.num_vars()).map(|j| (sf.lb[j], sf.ub[j])).collect();
    for &j in &int_cols {
        let l = root_bounds[j].0.ceil();
        let u = root_bounds[j].1.floor();
        root_bounds[j] = (l, u);
        if l > u {
            options.observer.emit(|| SolverEvent::Terminated {
                status: SolveStatus::Infeasible,
                reason: TerminationReason::ProvenInfeasible,
            });
            let total = start.elapsed().as_secs_f64();
            return Ok(Solution {
                status: SolveStatus::Infeasible,
                values: vec![],
                objective: f64::NAN,
                best_bound: f64::NAN,
                nodes: 0,
                nodes_per_thread: vec![],
                simplex_iterations: 0,
                solve_seconds: total,
                stats: SolveStats {
                    total_seconds: total,
                    presolve_seconds,
                    ..SolveStats::default()
                },
            });
        }
    }

    // Root cutting planes: tighten the shared form before any worker is
    // built, so every search thread prices the surviving cuts. A resumed
    // search skips re-separation: the carried form already holds every cut
    // of the previous search (all still valid after a restriction), and a
    // fresh separation pass on top of them mostly perturbs the search
    // while growing every LP.
    let mut cut_stats = crate::cuts::RootCutStats::default();
    if options.cuts
        && !resumed
        && options.max_cut_rounds > 0
        && !int_cols.is_empty()
        && (options.gomory_cuts || options.cover_cuts)
    {
        cut_stats =
            crate::cuts::root_separation(model, &mut sf, options, &int_cols, &root_bounds, start);
    }

    // Verified symmetry: lex-leader rows into the shared form (every search
    // thread prices them) and a propagation plan armed on every worker.
    // Disabled whenever a resume capture is requested or the search resumes
    // from carried state — a session's carried form must stay
    // representative-free, because a later model delta can re-rank the
    // orbit representatives and turn the lex rows invalid.
    let mut symmetry_plan: Option<Arc<crate::symmetry::SymmetryPlan>> = None;
    let mut symmetry_orbits: u64 = 0;
    if (options.symmetry_breaking || options.orbital_fixing)
        && capture.is_none()
        && !resumed
        && !options.symmetry_candidates.is_empty()
        && !int_cols.is_empty()
    {
        if let Some(plan) =
            crate::symmetry::build_plan(model, &options.symmetry_candidates, &root_bounds)
        {
            let mut rows = 0usize;
            if options.symmetry_breaking {
                let big = sf.big;
                for cut in plan.lex_cuts() {
                    // Installed directly (not through the cut pool): lex rows
                    // are structural symmetry breakers, not violated cuts —
                    // the pool's violation filter would drop them all.
                    sf.add_cut_row(&cut.coeffs, cut.rhs, -big, 0.0);
                    rows += 1;
                }
            }
            symmetry_orbits = plan.orbits;
            let (generators, orbits) = (plan.generators, plan.orbits);
            options.observer.emit(|| SolverEvent::SymmetryDetected { generators, orbits, rows });
            if options.orbital_fixing {
                symmetry_plan = Some(Arc::new(plan));
            }
        }
    }
    let sf = sf;

    // Warm start from a user hint.
    let warm = model.warm_start().and_then(|ws| {
        if model.is_feasible(ws, options.integrality_tol.max(options.feasibility_tol)) {
            Some((ws.to_vec(), internal_objective(model, &sf, ws)))
        } else {
            None
        }
    });
    if let Some((_, obj)) = &warm {
        let objective = sf.user_objective(*obj);
        // No bound is proven before the root solves; the warm-start
        // incumbent is reported against an open (infinite) bound.
        let bound = if sf.maximize { f64::INFINITY } else { f64::NEG_INFINITY };
        options.observer.emit(|| SolverEvent::Incumbent { objective, bound, gap: f64::INFINITY });
    }

    // Root primal heuristics: dive the relaxation and search the RENS
    // neighborhood for a strong starting incumbent; improvements merge
    // into `warm` so both search modes prune from the first node. Skipped
    // when the carried bound already proves the warm start: the root is
    // pruned on its first pop, so the phase could gain less than the gap.
    let root_bound = carried_bound.unwrap_or(f64::NEG_INFINITY);
    let proven = warm.as_ref().is_some_and(|&(_, obj)| gap_closed(options, obj, root_bound));
    let mut heur = crate::heuristics::HeuristicOutcome::default();
    let warm = if options.heuristics && !proven && !int_cols.is_empty() && !options.cancelled() {
        crate::heuristics::run_root(
            model,
            &sf,
            options,
            &int_cols,
            &root_bounds,
            warm,
            start,
            &mut heur,
        )
    } else {
        warm
    };

    let threads = options.effective_threads();
    let outcome = if threads <= 1 {
        serial_search(
            model,
            &sf,
            options,
            &int_cols,
            &root_bounds,
            warm,
            start,
            root_basis.map(Arc::new),
            root_bound,
            capture,
            symmetry_plan,
        )?
    } else {
        let out = parallel::search(
            model,
            &sf,
            options,
            &int_cols,
            &root_bounds,
            warm,
            start,
            threads,
            root_bound,
            symmetry_plan,
        )?;
        // Parallel workers keep their bases and in-tree cuts private; the
        // session carries the shared root form (with its root cuts) cold.
        if let Some(cap) = capture {
            let bound = if out.hit_limit { out.best_bound_internal } else { out.incumbent_obj };
            *cap = Some(ResumeState { sf: sf.clone(), basis: None, bound });
        }
        out
    };

    let solve_seconds = start.elapsed().as_secs_f64();
    let status = match (&outcome.incumbent, outcome.hit_limit) {
        (Some(_), false) => SolveStatus::Optimal,
        (Some(_), true) => SolveStatus::Feasible,
        (None, false) => SolveStatus::Infeasible,
        (None, true) => SolveStatus::Unknown,
    };

    // Unbounded detection: an incumbent resting on a clamped infinite bound
    // with a nonzero objective coefficient signals a true ray.
    let mut status = status;
    if let Some(values) = &outcome.incumbent {
        let big = options.infinite_bound;
        for (j, &x) in values.iter().enumerate() {
            if sf.clamped[j] && sf.c[j] != 0.0 && x.abs() >= big * (1.0 - 1e-6) {
                status = SolveStatus::Unbounded;
            }
        }
    }
    // Cancellation overrides the limit statuses but never a completed proof
    // (optimality, infeasibility or unboundedness reached before the token
    // was noticed stands).
    if outcome.interrupted && matches!(status, SolveStatus::Feasible | SolveStatus::Unknown) {
        status = SolveStatus::Interrupted;
    }

    let (values, objective) = match &outcome.incumbent {
        Some(v) => (v.clone(), sf.user_objective(outcome.incumbent_obj)),
        None => (vec![], f64::NAN),
    };
    let best_bound = if outcome.best_bound_internal.is_finite() {
        sf.user_objective(outcome.best_bound_internal)
    } else if status == SolveStatus::Optimal {
        objective
    } else if sf.maximize {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };

    let reason = termination_reason(options, &outcome, status, start);
    options.observer.emit(|| SolverEvent::Terminated { status, reason });

    Ok(Solution {
        status,
        values,
        objective,
        best_bound,
        nodes: outcome.nodes,
        nodes_per_thread: outcome.nodes_per_thread.clone(),
        simplex_iterations: outcome.simplex_iterations + cut_stats.simplex_iterations,
        solve_seconds,
        stats: SolveStats {
            total_seconds: solve_seconds,
            presolve_seconds,
            simplex_seconds: outcome.simplex_seconds + cut_stats.simplex_seconds,
            factor_seconds: outcome.factor_seconds + cut_stats.factor_seconds,
            nodes: outcome.nodes,
            nodes_pruned: outcome.pruned,
            simplex_iterations: outcome.simplex_iterations + cut_stats.simplex_iterations,
            refactorizations: outcome.refactorizations + cut_stats.refactorizations,
            incumbents: outcome.incumbents + heur.accepted,
            steals: outcome.steals,
            warm_starts: outcome.warm_starts,
            cold_starts: outcome.cold_starts,
            cuts_generated: cut_stats.generated + outcome.cuts_generated,
            cuts_applied: cut_stats.applied + outcome.cuts_applied,
            cuts_aged_out: cut_stats.aged_out,
            separation_seconds: cut_stats.separation_seconds + outcome.separation_seconds,
            heuristic_seconds: heur.seconds,
            propagation_seconds: outcome.propagation_seconds,
            heuristic_incumbents: heur.accepted,
            propagated_bounds: outcome.propagated_bounds,
            propagation_fathoms: outcome.propagation_fathoms,
            conflict_cuts_generated: outcome.conflict_cuts_generated,
            conflict_cuts_applied: outcome.conflict_cuts_applied,
            symmetry_orbits,
            orbital_fixings: outcome.orbital_fixings,
            strong_branch_probes: outcome.strong_branch_probes,
        },
    })
}

/// Why the search stopped, derived from the outcome flags and the limits.
fn termination_reason(
    options: &SolverOptions,
    outcome: &SearchOutcome,
    status: SolveStatus,
    start: Instant,
) -> TerminationReason {
    if outcome.interrupted {
        return TerminationReason::Cancelled;
    }
    if !outcome.hit_limit {
        return match status {
            SolveStatus::Infeasible => TerminationReason::ProvenInfeasible,
            SolveStatus::Unbounded => TerminationReason::ProvenUnbounded,
            _ => TerminationReason::GapClosed,
        };
    }
    if node_limit_hit(options, outcome.nodes) {
        TerminationReason::NodeLimit
    } else if options.time_limit.is_finite() && start.elapsed().as_secs_f64() > options.time_limit {
        TerminationReason::TimeLimit
    } else {
        TerminationReason::Numerics
    }
}

/// The serial search (`threads = 1`): one [`NodeWorker`], one node stack or
/// heap, node order identical to the historical single-threaded solver.
#[allow(clippy::too_many_arguments)]
fn serial_search(
    model: &Model,
    sf: &StandardForm,
    options: &SolverOptions,
    int_cols: &[usize],
    root_bounds: &[(f64, f64)],
    warm: Option<(Vec<f64>, f64)>,
    start: Instant,
    root_basis: Option<Arc<BasisSnapshot>>,
    root_bound: f64,
    capture: Option<&mut Option<ResumeState>>,
    symmetry: Option<Arc<crate::symmetry::SymmetryPlan>>,
) -> Result<SearchOutcome> {
    let mut worker = NodeWorker::new(model, sf, options, int_cols, root_bounds, start, true);
    if let Some(plan) = symmetry {
        worker.arm_symmetry(plan);
    }
    let mut incumbent = LocalIncumbent::from_warm(warm);

    // A carried basis enters through the root node: `enter_node` restores
    // it like any parent basis and falls back cold if the factorization
    // fails, so a stale snapshot degrades gracefully. A carried dual bound
    // seeds the root, so a re-solve whose refreshed incumbent already
    // matches the previous optimum closes the gap on the first pop.
    let root = OpenNode { parent_basis: root_basis, ..OpenNode::root(root_bound) };
    let best_bound_internal = match options.node_order {
        NodeOrder::DepthFirst => run_dfs(&mut worker, &mut incumbent, root_bounds, root)?,
        NodeOrder::BestBound => run_best_bound(&mut worker, &mut incumbent, root_bounds, root)?,
    };

    // Capture the worker's final form (base + root cuts + every in-tree
    // and conflict cut it appended; structural bounds untouched because
    // `set_bounds` edits only the working copies) and its last basis.
    if let Some(cap) = capture {
        let bound = if worker.hit_limit { best_bound_internal } else { incumbent.obj };
        *cap = Some(ResumeState {
            sf: worker.lp.form().clone(),
            basis: Some(worker.lp.snapshot()),
            bound,
        });
    }

    let nodes = worker.nodes;
    options.observer.emit(|| SolverEvent::ThreadStats { worker: 0, nodes, steals: 0 });
    Ok(SearchOutcome {
        incumbent: incumbent.values,
        incumbent_obj: incumbent.obj,
        best_bound_internal,
        nodes: worker.nodes,
        nodes_per_thread: vec![worker.nodes],
        simplex_iterations: worker.lp.iterations,
        hit_limit: worker.hit_limit,
        interrupted: worker.interrupted,
        pruned: worker.pruned,
        incumbents: incumbent.accepted,
        steals: 0,
        simplex_seconds: worker.lp.simplex_seconds,
        factor_seconds: worker.lp.factor_seconds,
        refactorizations: worker.lp.refactorizations,
        warm_starts: worker.warm_starts,
        cold_starts: worker.cold_starts,
        cuts_generated: worker.cuts_generated,
        cuts_applied: worker.cuts_applied,
        separation_seconds: worker.separation_seconds,
        propagated_bounds: worker.propagated_bounds,
        propagation_fathoms: worker.propagation_fathoms,
        propagation_seconds: worker.propagation_seconds,
        conflict_cuts_generated: worker.conflict_cuts_generated,
        conflict_cuts_applied: worker.conflict_cuts_applied,
        orbital_fixings: worker.orbital_fixings,
        strong_branch_probes: worker.strong_branch_probes,
    })
}

/// Plain owned incumbent for the serial search.
pub(crate) struct LocalIncumbent {
    pub(crate) values: Option<Vec<f64>>,
    pub(crate) obj: f64,
    /// Offers accepted (warm starts not counted).
    pub(crate) accepted: u64,
}

impl LocalIncumbent {
    pub(crate) fn from_warm(warm: Option<(Vec<f64>, f64)>) -> Self {
        match warm {
            Some((v, o)) => LocalIncumbent { values: Some(v), obj: o, accepted: 0 },
            None => LocalIncumbent { values: None, obj: f64::INFINITY, accepted: 0 },
        }
    }
}

impl Incumbent for LocalIncumbent {
    fn best_obj(&self) -> f64 {
        self.obj
    }
    fn offer(&mut self, values: &[f64], obj: f64) -> bool {
        if obj < self.obj {
            self.obj = obj;
            self.values = Some(values.to_vec());
            self.accepted += 1;
            true
        } else {
            false
        }
    }
}

fn node_limit_hit(options: &SolverOptions, nodes: u64) -> bool {
    options.node_limit != 0 && nodes >= options.node_limit as u64
}

/// Polls the registered [`IncumbentFeed`](crate::IncumbentFeed) (if any)
/// and offers a freshly published point to `incumbent`. Points are vetted
/// exactly like user warm starts — full-length, feasible at the solver's
/// tolerances — so a bad publication is dropped rather than corrupting the
/// search. Returns whether the incumbent improved. Shared by the serial
/// loops and every parallel worker (each keeps its own `cursor`).
pub(crate) fn poll_feed(
    worker: &NodeWorker<'_>,
    cursor: &mut u64,
    incumbent: &mut dyn Incumbent,
    bound_internal: f64,
) -> bool {
    let Some(feed) = &worker.options.incumbent_feed else {
        return false;
    };
    let Some(point) = feed.poll(cursor) else {
        return false;
    };
    let tol = worker.options.integrality_tol.max(worker.options.feasibility_tol);
    if point.len() != worker.model.num_vars() || !worker.model.is_feasible(&point, tol) {
        return false;
    }
    let obj = internal_objective(worker.model, worker.sf, &point);
    if incumbent.offer(&point, obj) {
        worker.emit_incumbent(obj, bound_internal);
        true
    } else {
        false
    }
}

fn run_dfs(
    worker: &mut NodeWorker<'_>,
    incumbent: &mut LocalIncumbent,
    root_bounds: &[(f64, f64)],
    root: OpenNode,
) -> Result<f64> {
    let options = worker.options;
    let mut stack = vec![root];
    let mut best_open_bound = f64::INFINITY;
    let mut feed_cursor = 0u64;
    while let Some(node) = stack.pop() {
        if options.cancelled() {
            worker.interrupted = true;
        }
        // Same cadence as the cancel check: a point published by a racing
        // portfolio arm lands before this node is bounded or evaluated.
        poll_feed(worker, &mut feed_cursor, incumbent, node.bound);
        if worker.interrupted || worker.time_up() || node_limit_hit(options, worker.nodes) {
            worker.hit_limit = true;
            best_open_bound = best_open_bound.min(node.bound);
            for n in &stack {
                best_open_bound = best_open_bound.min(n.bound);
            }
            break;
        }
        if gap_closed(options, incumbent.best_obj(), node.bound) {
            worker.note_pruned(node.bound);
            continue;
        }
        worker.enter_node(&node, root_bounds);
        worker.dual_bound = stack.iter().fold(f64::INFINITY, |m, n| m.min(n.bound));
        let (children, bound) = worker.eval_node(&node, incumbent)?;
        if worker.hit_limit {
            best_open_bound = best_open_bound.min(bound);
            for n in &stack {
                best_open_bound = best_open_bound.min(n.bound);
            }
            break;
        }
        // DFS: push far child first so the near child pops next.
        for c in children.into_iter().rev() {
            stack.push(c);
        }
    }
    if !worker.hit_limit {
        Ok(incumbent.obj)
    } else {
        Ok(best_open_bound.min(incumbent.obj))
    }
}

fn run_best_bound(
    worker: &mut NodeWorker<'_>,
    incumbent: &mut LocalIncumbent,
    root_bounds: &[(f64, f64)],
    root: OpenNode,
) -> Result<f64> {
    use std::collections::BinaryHeap;

    let options = worker.options;
    let mut heap = BinaryHeap::new();
    heap.push(HeapNode(root));
    let mut best_open_bound = f64::INFINITY;
    let mut feed_cursor = 0u64;
    while let Some(HeapNode(node)) = heap.pop() {
        if options.cancelled() {
            worker.interrupted = true;
        }
        poll_feed(worker, &mut feed_cursor, incumbent, node.bound);
        if worker.interrupted || worker.time_up() || node_limit_hit(options, worker.nodes) {
            worker.hit_limit = true;
            best_open_bound = node.bound;
            break;
        }
        if gap_closed(options, incumbent.best_obj(), node.bound) {
            worker.note_pruned(node.bound);
            continue;
        }
        worker.enter_node(&node, root_bounds);
        worker.dual_bound = heap.peek().map_or(f64::INFINITY, |h| h.0.bound);
        let (children, bound) = worker.eval_node(&node, incumbent)?;
        if worker.hit_limit {
            best_open_bound = bound;
            break;
        }
        for c in children {
            heap.push(HeapNode(c));
        }
    }
    if !worker.hit_limit {
        Ok(incumbent.obj)
    } else {
        Ok(best_open_bound.min(incumbent.obj))
    }
}

/// Min-bound-first ordering adaptor for [`std::collections::BinaryHeap`].
pub(crate) struct HeapNode(pub(crate) OpenNode);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: invert to pop the smallest bound first.
        other.0.bound.partial_cmp(&self.0.bound).unwrap_or(std::cmp::Ordering::Equal)
    }
}

pub(crate) fn push_delta(
    base: &[(usize, f64, f64)],
    delta: (usize, f64, f64),
) -> Vec<(usize, f64, f64)> {
    let mut v = Vec::with_capacity(base.len() + 1);
    v.extend_from_slice(base);
    v.push(delta);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Objective};

    /// A node whose parent snapshot will not factorize must fall back to a
    /// cold (slack-basis) start and still solve its LP correctly — the
    /// recovery path `enter_node` takes when `restore_snapshot` reports a
    /// singular basis.
    #[test]
    fn singular_parent_snapshot_falls_back_cold_and_solves() {
        let mut model = Model::new("fallback");
        let xs: Vec<_> =
            (0..3).map(|i| model.integer(format!("x{i}"), 0.0, 5.0).unwrap()).collect();
        let mut cover = LinExpr::new();
        let mut mix = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &x) in xs.iter().enumerate() {
            cover.add_term(x, 1.0);
            mix.add_term(x, 1.0 + (i % 2) as f64);
            obj.add_term(x, 1.0 + i as f64 * 0.7);
        }
        model.add_ge("cover", cover, 7.0);
        model.add_le("mix", mix, 20.0);
        model.set_objective(Objective::Minimize, obj);

        let options = SolverOptions::default().threads(1);
        let sf = StandardForm::from_model(&model, &options);
        let int_cols: Vec<usize> = (0..model.num_vars()).collect();
        let root_bounds: Vec<(f64, f64)> =
            (0..model.num_vars()).map(|j| (sf.lb[j].ceil(), sf.ub[j].floor())).collect();
        let start = Instant::now();
        let mut worker =
            NodeWorker::new(&model, &sf, &options, &int_cols, &root_bounds, start, false);
        let mut inc = LocalIncumbent::from_warm(None);

        // Solve the root properly so the worker is mid-search state.
        let root = OpenNode::root(f64::NEG_INFINITY);
        worker.enter_node(&root, &root_bounds);
        worker.eval_node(&root, &mut inc).unwrap();
        assert_eq!(worker.cold_starts, 1, "the root starts cold");

        // Hand the worker a node whose parent basis is corrupt: duplicating
        // a basic column makes the basis matrix singular for any kernel.
        let mut snap = worker.lp.snapshot();
        let last = snap.basis[snap.basis.len() - 1];
        snap.basis[0] = last;
        let node = OpenNode {
            deltas: vec![(0, 0.0, 2.0)],
            bound: f64::NEG_INFINITY,
            branched: None,
            parent_basis: Some(Arc::new(snap)),
        };
        worker.enter_node(&node, &root_bounds);
        assert_eq!(worker.warm_starts, 0, "singular snapshot must not count as warm");
        assert_eq!(worker.cold_starts, 2, "corrupt snapshot must fall back to a cold start");

        // The fallback leaves a fully usable state: the node LP solves and
        // produces a finite bound.
        let (_, bound) = worker.eval_node(&node, &mut inc).unwrap();
        assert!(bound.is_finite(), "node LP must still solve after the fallback");
        assert!(!worker.hit_limit, "the fallback must not be treated as a limit");
    }

    /// A healthy parent snapshot restores and counts as a warm start.
    #[test]
    fn healthy_parent_snapshot_counts_warm() {
        let mut model = Model::new("warm");
        let x = model.integer("x", 0.0, 9.0).unwrap();
        let y = model.integer("y", 0.0, 9.0).unwrap();
        model.add_ge("r", LinExpr::term(x, 2.0) + LinExpr::term(y, 3.0), 11.0);
        model.set_objective(Objective::Minimize, LinExpr::term(x, 1.0) + LinExpr::term(y, 1.3));

        let options = SolverOptions::default().threads(1);
        let sf = StandardForm::from_model(&model, &options);
        let int_cols: Vec<usize> = (0..model.num_vars()).collect();
        let root_bounds: Vec<(f64, f64)> =
            (0..model.num_vars()).map(|j| (sf.lb[j].ceil(), sf.ub[j].floor())).collect();
        let start = Instant::now();
        let mut worker =
            NodeWorker::new(&model, &sf, &options, &int_cols, &root_bounds, start, false);
        let mut inc = LocalIncumbent::from_warm(None);

        let root = OpenNode::root(f64::NEG_INFINITY);
        worker.enter_node(&root, &root_bounds);
        worker.eval_node(&root, &mut inc).unwrap();

        let snap = Arc::new(worker.lp.snapshot());
        let node = OpenNode {
            deltas: vec![(0, 0.0, 3.0)],
            bound: f64::NEG_INFINITY,
            branched: None,
            parent_basis: Some(Arc::clone(&snap)),
        };
        worker.enter_node(&node, &root_bounds);
        assert_eq!(worker.warm_starts, 1, "healthy snapshot must restore warm");
        assert_eq!(worker.cold_starts, 1, "only the root started cold");
        let (_, bound) = worker.eval_node(&node, &mut inc).unwrap();
        assert!(bound.is_finite());
    }
}
