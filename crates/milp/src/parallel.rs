//! Parallel branch and bound: a work-stealing pool of open nodes shared by
//! worker threads drawn from the process-global worker pool.
//!
//! Each worker owns a full [`NodeWorker`] (its own warm-started simplex and
//! pseudo-cost table) and drains nodes from the shared pool. A stolen node
//! carries its parent's basis snapshot (an `Arc` shared with its sibling),
//! so the thief warm-starts exactly like the owner would have; if the
//! snapshot fails to factorize on the thief's kernel, the node falls back
//! to a slack-basis cold start. Two pieces of state are global:
//!
//! * the **incumbent** ([`SharedIncumbent`]): the point lives behind a
//!   `parking_lot` mutex, while its objective is mirrored into an atomic so
//!   pruning tests never take the lock. A stale read only *under*-prunes —
//!   the node is evaluated and discarded one level later — so correctness
//!   does not depend on the mirror being fresh;
//! * the **open-node pool**: per-worker LIFO deques with work stealing under
//!   [`NodeOrder::DepthFirst`] (owners dive depth-first, idle workers steal
//!   the oldest — closest to the root — entries, which splits the tree near
//!   its top), or a single mutex-guarded best-bound heap under
//!   [`NodeOrder::BestBound`].
//!
//! Termination uses an `in_flight` counter of nodes that are queued or being
//! expanded: children are registered *before* their parent retires, so the
//! counter only reaches zero once the whole tree is exhausted.
//!
//! **Threading.** Workers are not spawned per solve: worker 0 runs on the
//! calling thread while workers `1..threads` are submitted as tasks to the
//! bounded process-global [`crate::pool`]. The caller always makes progress
//! even when the pool is saturated by other jobs, and helper tasks that
//! never got claimed are revoked once the caller finishes — a job never
//! waits behind another tenant's queue. Each worker (caller included) runs
//! under `catch_unwind`: a panic anywhere in the search (e.g. inside a
//! user-supplied observer) stops only the owning job, which reports
//! [`MilpError::WorkerPanicked`]; concurrent solves and the pool threads
//! are untouched.

use crate::branch::{
    gap_closed, poll_feed, HeapNode, Incumbent, NodeWorker, OpenNode, SearchOutcome,
};
use crate::error::{MilpError, Result};
use crate::events::SolverEvent;
use crate::model::Model;
use crate::options::{NodeOrder, SolverOptions};
use crate::pool as global_pool;
use crate::standard::StandardForm;
use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Best integral point found by any worker. The objective is mirrored into
/// `best_bits` (as `f64` bits) for lock-free reads on the pruning fast path.
struct SharedIncumbent {
    best_bits: AtomicU64,
    point: Mutex<Option<(Vec<f64>, f64)>>,
    /// Offers accepted across all workers (warm starts not counted).
    accepted: AtomicU64,
}

impl SharedIncumbent {
    fn new(warm: Option<(Vec<f64>, f64)>) -> Self {
        let obj = warm.as_ref().map_or(f64::INFINITY, |&(_, o)| o);
        SharedIncumbent {
            best_bits: AtomicU64::new(obj.to_bits()),
            point: Mutex::new(warm),
            accepted: AtomicU64::new(0),
        }
    }

    fn best_obj(&self) -> f64 {
        f64::from_bits(self.best_bits.load(Ordering::Acquire))
    }

    fn offer(&self, values: &[f64], obj: f64) -> bool {
        // Cheap reject without the lock; re-checked under it.
        if obj >= self.best_obj() {
            return false;
        }
        let mut point = self.point.lock();
        let current = point.as_ref().map_or(f64::INFINITY, |&(_, o)| o);
        if obj < current {
            *point = Some((values.to_vec(), obj));
            self.best_bits.store(obj.to_bits(), Ordering::Release);
            self.accepted.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Takes the incumbent out (the search is over; `&self` because the
    /// state lives in an `Arc` shared with possibly-revoked pool tasks).
    fn take_parts(&self) -> (Option<Vec<f64>>, f64, u64) {
        let accepted = self.accepted.load(Ordering::Relaxed);
        match self.point.lock().take() {
            Some((v, o)) => (Some(v), o, accepted),
            None => (None, f64::INFINITY, accepted),
        }
    }
}

/// Adapter giving a [`NodeWorker`] the shared incumbent through the
/// [`Incumbent`] trait it expects.
struct SharedHandle<'s>(&'s SharedIncumbent);

impl Incumbent for SharedHandle<'_> {
    fn best_obj(&self) -> f64 {
        self.0.best_obj()
    }
    fn offer(&mut self, values: &[f64], obj: f64) -> bool {
        self.0.offer(values, obj)
    }
}

/// Where workers get their next node from.
enum Pool {
    /// Per-worker deques + global injector (depth-first with stealing).
    Deques { injector: Injector<OpenNode>, stealers: Vec<Stealer<OpenNode>> },
    /// One global best-bound heap.
    Heap(Mutex<BinaryHeap<HeapNode>>),
}

impl Pool {
    /// Pops a node for worker `id` (owning `local` in deque mode). The flag
    /// is `true` when the node was stolen from *another worker's* deque —
    /// injector pops, own-deque pops and heap pops don't count as steals.
    fn pop(&self, id: usize, local: Option<&Deque<OpenNode>>) -> Option<(OpenNode, bool)> {
        match self {
            Pool::Deques { injector, stealers } => {
                if let Some(n) = local.and_then(|d| d.pop()) {
                    return Some((n, false));
                }
                if let Some(n) = injector.steal().success() {
                    return Some((n, false));
                }
                // Round-robin steal starting after our own slot so workers
                // don't all hammer the same victim.
                let k = stealers.len();
                for step in 1..=k {
                    let victim = (id + step) % k;
                    if victim == id {
                        continue;
                    }
                    if let Some(n) = stealers[victim].steal().success() {
                        return Some((n, true));
                    }
                }
                None
            }
            Pool::Heap(heap) => heap.lock().pop().map(|HeapNode(n)| (n, false)),
        }
    }

    /// Pushes `node` for worker `id`.
    fn push(&self, node: OpenNode, local: Option<&Deque<OpenNode>>) {
        match self {
            Pool::Deques { injector, .. } => match local {
                Some(d) => d.push(node),
                None => injector.push(node),
            },
            Pool::Heap(heap) => heap.lock().push(HeapNode(node)),
        }
    }
}

/// Cross-worker control state.
struct Control {
    /// Nodes queued or currently being expanded; zero means the tree is done.
    in_flight: AtomicUsize,
    /// Raised on any limit or error: workers drain and exit.
    stop: AtomicBool,
    /// Whether the stop was a limit (vs. natural exhaustion).
    hit_limit: AtomicBool,
    /// Whether any worker observed the cancel token.
    interrupted: AtomicBool,
    /// Total nodes expanded, for the node limit.
    nodes: AtomicU64,
    /// Minimum LP bound among abandoned open nodes (valid on early stop).
    open_bound_min: Mutex<f64>,
    /// Root LP bound (`f64` bits; `INFINITY` until the root is evaluated).
    /// A conservative global dual bound for incumbent-event gaps — exact
    /// open-node tracking would serialize the pool for a telemetry nicety.
    root_bound: AtomicU64,
    /// First worker error, propagated after join.
    error: Mutex<Option<MilpError>>,
}

impl Control {
    fn fold_open_bound(&self, bound: f64) {
        let mut min = self.open_bound_min.lock();
        if bound < *min {
            *min = bound;
        }
    }

    fn node_limit_hit(&self, options: &SolverOptions) -> bool {
        options.node_limit != 0 && self.nodes.load(Ordering::Relaxed) >= options.node_limit as u64
    }
}

/// Everything one job's workers share. Owned (not borrowed) because helper
/// workers run as `'static` tasks on the process-global pool; the clones of
/// model and standard form are one-time O(nnz) costs, negligible next to
/// the tree search they enable.
struct SearchShared {
    model: Model,
    sf: StandardForm,
    options: SolverOptions,
    int_cols: Vec<usize>,
    root_bounds: Vec<(f64, f64)>,
    start: Instant,
    pool: Pool,
    control: Control,
    incumbent: SharedIncumbent,
    /// Per-worker stats, filled in by whichever thread ran the worker.
    stats: Mutex<Vec<Option<WorkerStats>>>,
    /// Helpers that have not finished (or been revoked) yet.
    helpers_left: Mutex<usize>,
    helpers_done: Condvar,
}

impl SearchShared {
    fn helper_finished(&self) {
        let mut left = self.helpers_left.lock();
        *left -= 1;
        if *left == 0 {
            self.helpers_done.notify_all();
        }
    }

    fn wait_helpers(&self) {
        let mut left = self.helpers_left.lock();
        while *left > 0 {
            self.helpers_done.wait(&mut left);
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Runs worker `id` with panic containment: a panic anywhere inside the
/// worker loop stops this job with a structured error instead of unwinding
/// into the caller (worker 0) or the pool thread (helpers).
fn run_worker(shared: &SearchShared, id: usize, local: Option<Deque<OpenNode>>) {
    match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, id, local))) {
        Ok(stats) => shared.stats.lock()[id] = Some(stats),
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            {
                let mut slot = shared.control.error.lock();
                if slot.is_none() {
                    *slot = Some(MilpError::WorkerPanicked { worker: id, message });
                }
            }
            // The panicking worker may have died holding an in-flight node,
            // so `in_flight` can never drain to zero: `stop` is the signal
            // the surviving workers of *this* job exit on.
            shared.control.stop.store(true, Ordering::Release);
        }
    }
}

/// Runs the work-stealing search with `threads ≥ 2` workers. Same contract
/// as the serial search: returns the incumbent and the proven global bound
/// (internal minimization scale). `root_bound` seeds the root node, as in
/// the serial search.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search(
    model: &Model,
    sf: &StandardForm,
    options: &SolverOptions,
    int_cols: &[usize],
    root_bounds: &[(f64, f64)],
    warm: Option<(Vec<f64>, f64)>,
    start: Instant,
    threads: usize,
    root_bound: f64,
) -> Result<SearchOutcome> {
    // Build the open-node pool and seed it with the root node.
    let root = OpenNode::root(root_bound);
    let mut locals: Vec<Option<Deque<OpenNode>>> = Vec::with_capacity(threads);
    let pool = match options.node_order {
        NodeOrder::DepthFirst => {
            let deques: Vec<Deque<OpenNode>> = (0..threads).map(|_| Deque::new_lifo()).collect();
            let stealers = deques.iter().map(|d| d.stealer()).collect();
            locals.extend(deques.into_iter().map(Some));
            let injector = Injector::new();
            injector.push(root);
            Pool::Deques { injector, stealers }
        }
        NodeOrder::BestBound => {
            locals.extend((0..threads).map(|_| None));
            let mut heap = BinaryHeap::new();
            heap.push(HeapNode(root));
            Pool::Heap(Mutex::new(heap))
        }
    };

    let shared = Arc::new(SearchShared {
        model: model.clone(),
        sf: sf.clone(),
        options: options.clone(),
        int_cols: int_cols.to_vec(),
        root_bounds: root_bounds.to_vec(),
        start,
        pool,
        control: Control {
            in_flight: AtomicUsize::new(1), // the root
            stop: AtomicBool::new(false),
            hit_limit: AtomicBool::new(false),
            interrupted: AtomicBool::new(false),
            nodes: AtomicU64::new(0),
            open_bound_min: Mutex::new(f64::INFINITY),
            root_bound: AtomicU64::new(f64::INFINITY.to_bits()),
            error: Mutex::new(None),
        },
        incumbent: SharedIncumbent::new(warm),
        stats: Mutex::new(vec![None; threads]),
        helpers_left: Mutex::new(threads - 1),
        helpers_done: Condvar::new(),
    });

    // Helpers 1..threads go to the process-global pool; worker 0 is us.
    let mut locals = locals.into_iter();
    let local0 = locals.next().expect("threads >= 2 in the parallel arm");
    let mut handles = Vec::with_capacity(threads - 1);
    for (i, local) in locals.enumerate() {
        let id = i + 1;
        let task_shared = Arc::clone(&shared);
        handles.push(global_pool::global().submit(Box::new(move || {
            run_worker(&task_shared, id, local);
            task_shared.helper_finished();
        })));
    }
    run_worker(&shared, 0, local0);

    // The caller is done, so the tree is either exhausted or stopped:
    // helpers that never got claimed by a pool worker have nothing to do.
    // Revoke them instead of waiting behind other jobs' queued tasks.
    for h in &handles {
        if h.revoke() {
            shared.helper_finished();
        }
    }
    shared.wait_helpers();

    if let Some(e) = shared.control.error.lock().take() {
        return Err(e);
    }

    let mut per_worker: Vec<WorkerStats> = vec![WorkerStats::default(); threads];
    for (id, stats) in shared.stats.lock().iter().enumerate() {
        if let Some(s) = stats {
            per_worker[id] = *s;
        }
    }

    // Fold nodes still parked in the shared pool (unreachable on a natural
    // exhaustion, where the pool is empty).
    match &shared.pool {
        Pool::Deques { injector, .. } => {
            while let Some(n) = injector.steal().success() {
                shared.control.fold_open_bound(n.bound);
            }
        }
        Pool::Heap(heap) => {
            if let Some(HeapNode(n)) = heap.lock().peek() {
                shared.control.fold_open_bound(n.bound);
            }
        }
    }

    let hit_limit = shared.control.hit_limit.load(Ordering::Acquire);
    let interrupted = shared.control.interrupted.load(Ordering::Acquire);
    let (incumbent, incumbent_obj, incumbents) = shared.incumbent.take_parts();
    let open_min = *shared.control.open_bound_min.lock();
    let best_bound_internal = if hit_limit { open_min.min(incumbent_obj) } else { incumbent_obj };

    let nodes_per_thread: Vec<u64> = per_worker.iter().map(|w| w.nodes).collect();
    Ok(SearchOutcome {
        incumbent,
        incumbent_obj,
        best_bound_internal,
        nodes: nodes_per_thread.iter().sum(),
        nodes_per_thread,
        simplex_iterations: per_worker.iter().map(|w| w.iterations).sum(),
        hit_limit,
        interrupted,
        pruned: per_worker.iter().map(|w| w.pruned).sum(),
        incumbents,
        steals: per_worker.iter().map(|w| w.steals).sum(),
        simplex_seconds: per_worker.iter().map(|w| w.simplex_seconds).sum(),
        factor_seconds: per_worker.iter().map(|w| w.factor_seconds).sum(),
        refactorizations: per_worker.iter().map(|w| w.refactorizations).sum(),
        warm_starts: per_worker.iter().map(|w| w.warm_starts).sum(),
        cold_starts: per_worker.iter().map(|w| w.cold_starts).sum(),
        propagated_bounds: per_worker.iter().map(|w| w.propagated_bounds).sum(),
        propagation_fathoms: per_worker.iter().map(|w| w.propagation_fathoms).sum(),
        propagation_seconds: per_worker.iter().map(|w| w.propagation_seconds).sum(),
        strong_branch_probes: per_worker.iter().map(|w| w.strong_branch_probes).sum(),
        strong_branch_cutoffs: per_worker.iter().map(|w| w.strong_branch_cutoffs).sum(),
        strong_branch_seconds: per_worker.iter().map(|w| w.strong_branch_seconds).sum(),
    })
}

/// Counters one worker brings home from its [`worker_loop`].
#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    nodes: u64,
    iterations: u64,
    pruned: u64,
    steals: u64,
    simplex_seconds: f64,
    factor_seconds: f64,
    refactorizations: u64,
    warm_starts: u64,
    cold_starts: u64,
    propagated_bounds: u64,
    propagation_fathoms: u64,
    propagation_seconds: f64,
    strong_branch_probes: u64,
    strong_branch_cutoffs: u64,
    strong_branch_seconds: f64,
}

/// One worker: pops nodes until the tree is exhausted or a stop is raised.
fn worker_loop(shared: &SearchShared, id: usize, local: Option<Deque<OpenNode>>) -> WorkerStats {
    let SearchShared { model, sf, options, int_cols, root_bounds, start, pool, control, .. } =
        shared;
    let incumbent = &shared.incumbent;
    let mut worker = NodeWorker::new(model, sf, options, int_cols, root_bounds, *start);
    let mut handle = SharedHandle(incumbent);
    let local = local.as_ref();
    let mut steals: u64 = 0;
    let mut feed_cursor = 0u64;

    loop {
        if control.stop.load(Ordering::Acquire) {
            // Abandon local work, folding bounds so the final global bound
            // stays valid.
            if let Some(d) = local {
                while let Some(n) = d.pop() {
                    control.fold_open_bound(n.bound);
                }
            }
            break;
        }
        let (node, stolen) = match pool.pop(id, local) {
            Some(n) => n,
            None => {
                if control.in_flight.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            }
        };
        if stolen {
            steals += 1;
        }

        if options.cancelled() {
            worker.interrupted = true;
            control.interrupted.store(true, Ordering::Release);
        }
        // Every worker polls the external feed with its own cursor; the
        // shared incumbent dedups concurrent offers of the same point.
        poll_feed(&worker, &mut feed_cursor, &mut handle, node.bound);
        if worker.interrupted || worker.time_up() || control.node_limit_hit(options) {
            control.hit_limit.store(true, Ordering::Release);
            control.stop.store(true, Ordering::Release);
            control.fold_open_bound(node.bound);
            control.in_flight.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if gap_closed(options, incumbent.best_obj(), node.bound) {
            worker.note_pruned(node.bound);
            control.in_flight.fetch_sub(1, Ordering::AcqRel);
            continue;
        }

        worker.enter_node(&node, root_bounds);
        worker.dual_bound = f64::from_bits(control.root_bound.load(Ordering::Relaxed));
        control.nodes.fetch_add(1, Ordering::Relaxed);
        match worker.eval_node(&node, &mut handle) {
            Ok((children, bound)) => {
                if node.deltas.is_empty() {
                    control.root_bound.store(bound.to_bits(), Ordering::Relaxed);
                }
                if worker.hit_limit {
                    // Deadline, cancel or numerics inside the node.
                    if worker.interrupted {
                        control.interrupted.store(true, Ordering::Release);
                    }
                    control.hit_limit.store(true, Ordering::Release);
                    control.stop.store(true, Ordering::Release);
                    control.fold_open_bound(bound);
                } else {
                    // Register children before retiring the parent so
                    // `in_flight` cannot dip to zero early. Push in reverse
                    // so the LIFO owner pops the near child first, matching
                    // the serial dive order.
                    for c in children.into_iter().rev() {
                        control.in_flight.fetch_add(1, Ordering::AcqRel);
                        pool.push(c, local);
                    }
                }
                control.in_flight.fetch_sub(1, Ordering::AcqRel);
            }
            Err(e) => {
                let mut slot = control.error.lock();
                if slot.is_none() {
                    *slot = Some(e);
                }
                control.stop.store(true, Ordering::Release);
                control.in_flight.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    let nodes = worker.nodes;
    options.observer.emit(|| SolverEvent::ThreadStats { worker: id, nodes, steals });
    WorkerStats {
        nodes,
        iterations: worker.lp.iterations,
        pruned: worker.pruned,
        steals,
        simplex_seconds: worker.lp.simplex_seconds,
        factor_seconds: worker.lp.factor_seconds,
        refactorizations: worker.lp.refactorizations,
        warm_starts: worker.warm_starts,
        cold_starts: worker.cold_starts,
        propagated_bounds: worker.propagated_bounds,
        propagation_fathoms: worker.propagation_fathoms,
        propagation_seconds: worker.propagation_seconds,
        strong_branch_probes: worker.strong_branch_probes,
        strong_branch_cutoffs: worker.strong_branch_cutoffs,
        strong_branch_seconds: worker.strong_branch_seconds,
    }
}
