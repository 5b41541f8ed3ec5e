//! Solver observability and control: the structured event stream and the
//! cooperative cancellation token.
//!
//! # Event stream
//!
//! An [`Observer`] registered through
//! [`SolverOptions::observer`](crate::SolverOptions::observer) receives a
//! [`SolverEvent`] at every significant point of a solve: presolve
//! reductions, the root relaxation, node exploration/pruning, incumbent
//! improvements, basis refactorizations, per-worker statistics and the
//! final termination. Events carry **no wall-clock timestamps** so that a
//! serial (`threads = 1`) solve emits a bit-for-bit deterministic sequence;
//! time attribution lives in [`SolveStats`](crate::SolveStats) instead.
//!
//! Under `threads ≥ 2` every worker emits through the same observer
//! concurrently, so the observer must be `Send + Sync` and the interleaving
//! of node-level events is nondeterministic (the *set* of presolve/
//! termination events is not).
//!
//! Any `Fn(&SolverEvent) + Send + Sync` closure is an observer via the
//! blanket implementation:
//!
//! ```
//! use ndp_milp::{LinExpr, Model, Objective, SolverEvent, SolverOptions};
//! use std::sync::Arc;
//!
//! let mut m = Model::new("traced");
//! let x = m.binary("x");
//! m.set_objective(Objective::Maximize, LinExpr::from(x));
//! let opts = SolverOptions::default()
//!     .observer(Arc::new(|e: &SolverEvent| eprintln!("{e}")));
//! let sol = m.solve_with(&opts)?;
//! # Ok::<(), ndp_milp::MilpError>(())
//! ```
//!
//! # Cancellation
//!
//! A [`CancelToken`] registered through
//! [`SolverOptions::cancel_token`](crate::SolverOptions::cancel_token) is
//! checked cooperatively at every node boundary and every 128 simplex
//! iterations, in both the serial and the work-stealing parallel search.
//! Cancelled solves stop promptly and return the best incumbent found so
//! far with [`SolveStatus::Interrupted`](crate::SolveStatus::Interrupted).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::solution::SolveStatus;

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminationReason {
    /// The optimality gap was closed (tree exhausted or gap tolerance met).
    GapClosed,
    /// The model was proven infeasible.
    ProvenInfeasible,
    /// The model was detected unbounded.
    ProvenUnbounded,
    /// The wall-clock limit (`SolverOptions::time_limit`) was hit.
    TimeLimit,
    /// The node limit (`SolverOptions::node_limit`) was hit.
    NodeLimit,
    /// A [`CancelToken`] was triggered.
    Cancelled,
    /// A node could not be solved (iteration limit or irreparable basis);
    /// the search stopped conservatively with the incumbent it had.
    Numerics,
}

impl fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TerminationReason::GapClosed => "gap closed",
            TerminationReason::ProvenInfeasible => "proven infeasible",
            TerminationReason::ProvenUnbounded => "proven unbounded",
            TerminationReason::TimeLimit => "time limit",
            TerminationReason::NodeLimit => "node limit",
            TerminationReason::Cancelled => "cancelled",
            TerminationReason::Numerics => "numerical stop",
        };
        f.write_str(s)
    }
}

/// One entry of the solver's structured event stream.
///
/// Objective values and bounds are reported in the **user** scale (the
/// scale of [`Solution::objective_value`](crate::Solution::objective_value)),
/// already corrected for maximization and constant offsets. Events carry no
/// timestamps; see the module docs for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverEvent {
    /// Presolve finished its reductions (emitted even when nothing shrank).
    Presolve {
        /// Variables eliminated by fixing/substitution.
        eliminated_vars: usize,
        /// Constraint rows removed as redundant.
        eliminated_rows: usize,
    },
    /// The root LP relaxation was solved.
    RootRelaxation {
        /// LP bound at the root (user scale).
        bound: f64,
    },
    /// One round of the root cutting-plane loop finished (emitted after the
    /// LP re-optimized over the freshly appended cuts). Timestamp-free like
    /// every event, so serial streams stay deterministic with cuts on.
    CutRound {
        /// 1-based round number within the root loop.
        round: u32,
        /// Candidate cuts the separators produced this round.
        generated: usize,
        /// Cuts the pool accepted and appended to the LP this round.
        applied: usize,
        /// Root LP bound after re-optimizing (user scale).
        bound: f64,
    },
    /// A branch-and-bound node was evaluated.
    NodeExplored {
        /// Node ordinal within the emitting worker (1-based; global node
        /// ids are not stable under work stealing).
        node: u64,
        /// The node's LP bound (user scale).
        bound: f64,
        /// Depth = number of branching bound changes from the root.
        depth: usize,
        /// Dual simplex pivots this node's LP re-optimization took. Warm
        /// starts from the parent basis keep this in the single digits;
        /// cold starts pay the full re-solve.
        pivots: u64,
    },
    /// An open node was discarded because its parent bound could no longer
    /// improve on the incumbent.
    NodePruned {
        /// The pruned node's inherited bound (user scale).
        bound: f64,
    },
    /// An improving integral point found by the root primal heuristics
    /// (diving or the RENS neighborhood sub-MILP) *before* the tree
    /// search started. Distinct from [`SolverEvent::Incumbent`] so the
    /// search stream keeps its canonical `root → incumbent` ordering;
    /// heuristic finds land in the pre-root window like
    /// [`SolverEvent::CutRound`].
    HeuristicIncumbent {
        /// Which heuristic produced the point: `"dive"` or `"rens"`.
        heuristic: &'static str,
        /// Objective of the accepted point (user scale).
        objective: f64,
    },
    /// Node-level bound propagation changed a node: it tightened at least
    /// one variable bound or proved the node box empty. Quiet nodes emit
    /// nothing, keeping streams compact.
    NodePropagated {
        /// Node ordinal within the emitting worker (matches the `node`
        /// field of the following [`SolverEvent::NodeExplored`]).
        node: u64,
        /// Individual variable bounds tightened at this node.
        tightened: u32,
        /// Whether propagation proved the node infeasible, fathoming it
        /// without an LP solve.
        fathomed: bool,
    },
    /// The solver verified a nontrivial symmetry group of the model from
    /// the supplied candidate permutations (emitted once, before the tree
    /// search; timestamp-free like every event so serial streams replay
    /// bit-for-bit).
    SymmetryDetected {
        /// Verified non-identity group elements (after closure).
        generators: usize,
        /// Nontrivial integer-column orbits under the group.
        orbits: u64,
        /// Lexicographic symmetry-breaking rows installed at the root.
        rows: usize,
    },
    /// A globally valid conflict (no-good) cut was derived from an
    /// infeasible node's binary fixing set and appended to the worker LP.
    ConflictCut {
        /// Depth of the infeasible node the conflict came from.
        depth: usize,
        /// Fixed binaries in the no-good (the cut's support size).
        size: usize,
    },
    /// A new best integral solution was accepted.
    Incumbent {
        /// Objective of the new incumbent (user scale).
        objective: f64,
        /// Tightest bound known at emission time: the emitting node's LP
        /// bound (under best-bound order this is the global bound), or the
        /// warm-start marker `±inf` before the search starts.
        bound: f64,
        /// Relative gap `|objective − bound| / max(1, |objective|)`.
        gap: f64,
    },
    /// The simplex rebuilt its basis factorization from scratch.
    Refactorized {
        /// Lifetime refactorization count of the emitting simplex instance.
        count: u64,
    },
    /// A heuristic/pipeline phase boundary (used by higher layers such as
    /// the `ndp-core` 3-phase heuristic; never emitted by branch and bound).
    Phase {
        /// Phase name, e.g. `"phase1"`.
        name: &'static str,
    },
    /// A worker thread finished: its share of the search.
    ThreadStats {
        /// Worker index (0-based; a serial solve has exactly worker 0).
        worker: usize,
        /// Nodes this worker evaluated.
        nodes: u64,
        /// Nodes this worker obtained from another worker's deque.
        steals: u64,
    },
    /// The solve finished; always the final event of a successful solve.
    Terminated {
        /// The reported [`SolveStatus`].
        status: SolveStatus,
        /// Why the solve stopped.
        reason: TerminationReason,
    },
}

impl fmt::Display for SolverEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverEvent::Presolve { eliminated_vars, eliminated_rows } => {
                write!(f, "presolve: -{eliminated_vars} vars, -{eliminated_rows} rows")
            }
            SolverEvent::RootRelaxation { bound } => write!(f, "root relaxation: bound {bound:.6}"),
            SolverEvent::CutRound { round, generated, applied, bound } => {
                write!(
                    f,
                    "cut round {round}: {generated} generated, {applied} applied, bound {bound:.6}"
                )
            }
            SolverEvent::NodeExplored { node, bound, depth, pivots } => {
                write!(f, "node {node}: bound {bound:.6} depth {depth} pivots {pivots}")
            }
            SolverEvent::NodePruned { bound } => write!(f, "pruned: bound {bound:.6}"),
            SolverEvent::HeuristicIncumbent { heuristic, objective } => {
                write!(f, "heuristic incumbent ({heuristic}): obj {objective:.6}")
            }
            SolverEvent::NodePropagated { node, tightened, fathomed } => {
                write!(
                    f,
                    "node {node} propagated: {tightened} bounds tightened, fathomed {fathomed}"
                )
            }
            SolverEvent::SymmetryDetected { generators, orbits, rows } => {
                write!(f, "symmetry: {generators} generators, {orbits} orbits, {rows} lex rows")
            }
            SolverEvent::ConflictCut { depth, size } => {
                write!(f, "conflict cut: depth {depth}, {size} literals")
            }
            SolverEvent::Incumbent { objective, bound, gap } => {
                write!(f, "incumbent: obj {objective:.6} bound {bound:.6} gap {:.3}%", gap * 100.0)
            }
            SolverEvent::Refactorized { count } => write!(f, "refactorized (#{count})"),
            SolverEvent::Phase { name } => write!(f, "phase: {name}"),
            SolverEvent::ThreadStats { worker, nodes, steals } => {
                write!(f, "worker {worker}: {nodes} nodes, {steals} steals")
            }
            SolverEvent::Terminated { status, reason } => {
                write!(f, "terminated: {status:?} ({reason})")
            }
        }
    }
}

/// Receiver of the solver's event stream.
///
/// Implementations must be cheap and non-blocking: events are emitted from
/// the hot search loop. Every `Fn(&SolverEvent) + Send + Sync` closure
/// implements this trait.
pub trait Observer: Send + Sync {
    /// Called once per emitted event, in emission order per worker.
    fn event(&self, event: &SolverEvent);
}

impl<F: Fn(&SolverEvent) + Send + Sync> Observer for F {
    fn event(&self, event: &SolverEvent) {
        self(event)
    }
}

/// A shareable, cloneable handle to an optional [`Observer`].
///
/// This is what [`SolverOptions`](crate::SolverOptions) actually stores: it
/// keeps `SolverOptions` cheap to clone and lets an unset observer cost a
/// single branch per emission.
#[derive(Clone, Default)]
pub struct ObserverHandle(Option<Arc<dyn Observer>>);

impl ObserverHandle {
    /// A handle that drops every event (the default).
    pub fn none() -> Self {
        ObserverHandle(None)
    }

    /// Wraps an observer.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        ObserverHandle(Some(observer))
    }

    /// Whether an observer is registered.
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }

    /// Emits the event built by `f` if an observer is registered. The
    /// closure keeps event construction off the fast path when unobserved.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> SolverEvent) {
        if let Some(obs) = &self.0 {
            obs.event(&f());
        }
    }
}

impl fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("ObserverHandle(set)"),
            None => f.write_str("ObserverHandle(none)"),
        }
    }
}

impl PartialEq for ObserverHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

/// Cooperative cancellation for a running solve.
///
/// Clone the token, hand one clone to
/// [`SolverOptions::cancel_token`](crate::SolverOptions::cancel_token) and
/// call [`CancelToken::cancel`] from any thread; the solver notices at the
/// next node boundary or within 128 simplex iterations and returns the best
/// incumbent with [`SolveStatus::Interrupted`](crate::SolveStatus).
/// Cancellation is level-triggered and permanent: a cancelled token stays
/// cancelled, and a solve started with an already-cancelled token stops at
/// its first check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Requests cancellation. Safe to call from any thread, any number of
    /// times.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The versioned slot behind an [`IncumbentFeed`].
struct FeedSlot {
    /// Incremented after every publication; pollers compare against their
    /// last-seen version so an unchanged feed costs one atomic load.
    version: AtomicU64,
    /// The most recently published point (later publications overwrite
    /// earlier ones).
    point: Mutex<Option<Vec<f64>>>,
}

/// Mapping applied to published points before a solve consumes them (used
/// internally to translate a feed into a presolve-reduced column space).
type FeedMap = dyn Fn(&[f64]) -> Option<Vec<f64>> + Send + Sync;

/// A shared slot through which an external producer — a racing portfolio
/// arm, a heuristic, or another solve — injects feasible points into a
/// *running* solve.
///
/// Register a clone through
/// [`SolverOptions::incumbent_feed`](crate::SolverOptions::incumbent_feed)
/// and call [`IncumbentFeed::publish`] from any thread. The search polls the
/// feed at every node boundary (the same cadence as [`CancelToken`]);
/// points that are feasible for the model at the solver's tolerances and
/// improve on the current incumbent are installed exactly as if a node had
/// produced them, so pruning tightens mid-solve. Infeasible or worse points
/// are ignored, which makes feeding always safe: a feed can only shrink the
/// search, never change the optimum.
///
/// Publications overwrite each other (the slot keeps only the latest
/// point); publish improvements only. Like cancellation, a feed couples the
/// solve to external timing, so a fed serial solve keeps its *result*
/// determinism for proven statuses but not its node-for-node event stream.
#[derive(Clone)]
pub struct IncumbentFeed {
    slot: Arc<FeedSlot>,
    /// Optional column-space translation applied at poll time.
    map: Option<Arc<FeedMap>>,
}

impl IncumbentFeed {
    /// A fresh, empty feed.
    pub fn new() -> Self {
        IncumbentFeed {
            slot: Arc::new(FeedSlot { version: AtomicU64::new(0), point: Mutex::new(None) }),
            map: None,
        }
    }

    /// Publishes `point` (in the column space of the model the consuming
    /// solve was handed), replacing any earlier publication. Safe from any
    /// thread, any number of times.
    pub fn publish(&self, point: Vec<f64>) {
        *self.slot.point.lock() = Some(point);
        self.slot.version.fetch_add(1, Ordering::Release);
    }

    /// Whether anything has ever been published.
    pub fn has_point(&self) -> bool {
        self.slot.version.load(Ordering::Acquire) > 0
    }

    /// Returns the latest published point if its version is newer than
    /// `*cursor`, advancing the cursor. The unchanged-feed fast path is a
    /// single atomic load.
    pub(crate) fn poll(&self, cursor: &mut u64) -> Option<Vec<f64>> {
        let version = self.slot.version.load(Ordering::Acquire);
        if version == *cursor {
            return None;
        }
        *cursor = version;
        let point = self.slot.point.lock().clone()?;
        match &self.map {
            Some(map) => map(&point),
            None => Some(point),
        }
    }

    /// A view of the same slot whose polled points pass through `map`
    /// first (e.g. into a presolve-reduced column space). Publishing goes
    /// through either handle; mapping composes outside-in.
    pub(crate) fn mapped(&self, map: Arc<FeedMap>) -> Self {
        let inner = self.map.clone();
        let composed: Arc<FeedMap> = match inner {
            Some(first) => Arc::new(move |p: &[f64]| first(p).and_then(|q| map(&q))),
            None => map,
        };
        IncumbentFeed { slot: Arc::clone(&self.slot), map: Some(composed) }
    }
}

impl Default for IncumbentFeed {
    fn default() -> Self {
        IncumbentFeed::new()
    }
}

impl fmt::Debug for IncumbentFeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IncumbentFeed(version {}{})",
            self.slot.version.load(Ordering::Acquire),
            if self.map.is_some() { ", mapped" } else { "" }
        )
    }
}

impl PartialEq for IncumbentFeed {
    fn eq(&self, other: &Self) -> bool {
        let maps_match = match (&self.map, &other.map) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        Arc::ptr_eq(&self.slot, &other.slot) && maps_match
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn cancel_token_is_shared_by_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(t, u);
        assert_ne!(t, CancelToken::new());
    }

    #[test]
    fn observer_handle_emits_only_when_set() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let handle = ObserverHandle::new(Arc::new(move |e: &SolverEvent| {
            sink.lock().unwrap().push(e.clone());
        }));
        assert!(handle.is_set());
        handle.emit(|| SolverEvent::Phase { name: "p" });
        ObserverHandle::none().emit(|| panic!("must not build events when unset"));
        assert_eq!(*seen.lock().unwrap(), vec![SolverEvent::Phase { name: "p" }]);
    }

    #[test]
    fn incumbent_feed_polls_latest_once() {
        let feed = IncumbentFeed::new();
        let consumer = feed.clone();
        let mut cursor = 0u64;
        assert!(!feed.has_point());
        assert_eq!(consumer.poll(&mut cursor), None);
        feed.publish(vec![1.0]);
        feed.publish(vec![2.0]);
        assert!(feed.has_point());
        // Only the latest publication is visible, and only once per cursor.
        assert_eq!(consumer.poll(&mut cursor), Some(vec![2.0]));
        assert_eq!(consumer.poll(&mut cursor), None);
        feed.publish(vec![3.0]);
        assert_eq!(consumer.poll(&mut cursor), Some(vec![3.0]));
    }

    #[test]
    fn incumbent_feed_mapping_composes_and_shares_the_slot() {
        let feed = IncumbentFeed::new();
        let doubled = feed.mapped(Arc::new(|p: &[f64]| Some(p.iter().map(|x| 2.0 * x).collect())));
        let gated = doubled.mapped(Arc::new(|p: &[f64]| (p[0] < 10.0).then(|| p.to_vec())));
        feed.publish(vec![3.0]);
        let mut cursor = 0u64;
        assert_eq!(doubled.poll(&mut cursor), Some(vec![6.0]));
        // A map returning None still advances the cursor (the point is
        // consumed, just unusable in the mapped space).
        let mut gated_cursor = 0u64;
        feed.publish(vec![7.0]);
        assert_eq!(gated.poll(&mut gated_cursor), None);
        feed.publish(vec![2.0]);
        assert_eq!(gated.poll(&mut gated_cursor), Some(vec![4.0]));
        assert_eq!(feed, feed.clone());
        assert_ne!(feed, doubled);
        assert_ne!(feed, IncumbentFeed::new());
    }

    #[test]
    fn events_render_compactly() {
        let e = SolverEvent::Incumbent { objective: 2.0, bound: 1.0, gap: 0.5 };
        assert_eq!(e.to_string(), "incumbent: obj 2.000000 bound 1.000000 gap 50.000%");
        let t = SolverEvent::Terminated {
            status: SolveStatus::Interrupted,
            reason: TerminationReason::Cancelled,
        };
        assert_eq!(t.to_string(), "terminated: Interrupted (cancelled)");
        let h = SolverEvent::HeuristicIncumbent { heuristic: "dive", objective: 4.25 };
        assert_eq!(h.to_string(), "heuristic incumbent (dive): obj 4.250000");
        let p = SolverEvent::NodePropagated { node: 3, tightened: 2, fathomed: false };
        assert_eq!(p.to_string(), "node 3 propagated: 2 bounds tightened, fathomed false");
        let c = SolverEvent::ConflictCut { depth: 4, size: 4 };
        assert_eq!(c.to_string(), "conflict cut: depth 4, 4 literals");
        let s = SolverEvent::SymmetryDetected { generators: 7, orbits: 3, rows: 7 };
        assert_eq!(s.to_string(), "symmetry: 7 generators, 3 orbits, 7 lex rows");
    }
}
