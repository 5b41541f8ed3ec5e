//! Batch solve engine: [`run_batch`], a work-stealing scatter over `n`
//! independent jobs.
//!
//! One shared atomic cursor hands out job indices; the calling thread
//! drains jobs itself while helper drainers run as **revocable tasks** on
//! the process-global [`crate::pool`]. There are no chunk barriers: a slow
//! job delays only itself, every other core keeps pulling work. Results
//! come back in job-index order, so output determinism is free.
//!
//! Batch scheduling composes with the parallel search: a member solve with
//! `threads ≥ 2` submits its own helper tasks to the same pool, and because
//! every submitting thread also drains its own work (here and in
//! [`crate::parallel`]), saturation degrades to serial progress, never to
//! deadlock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::pool as global_pool;

/// Shared state of one [`run_batch`] scatter.
struct BatchState<T, F> {
    f: F,
    jobs: usize,
    /// Next unclaimed job index; claiming is one `fetch_add`.
    next: AtomicUsize,
    /// Results parked by index until the caller collects them.
    results: Mutex<Vec<Option<T>>>,
    /// Jobs not yet completed (claimed-and-running jobs count).
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload message, re-raised on the calling thread.
    panic: Mutex<Option<String>>,
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> BatchState<T, F> {
    /// Claims and runs jobs until the cursor runs out. Panics in `f` are
    /// contained per job so one bad member cannot strand the batch.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                return;
            }
            match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                Ok(value) => self.results.lock()[i] = Some(value),
                Err(payload) => {
                    let mut slot = self.panic.lock();
                    if slot.is_none() {
                        *slot = Some(crate::parallel::panic_message(payload.as_ref()));
                    }
                }
            }
            let mut rem = self.remaining.lock();
            *rem -= 1;
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }

    fn wait_all(&self) {
        let mut rem = self.remaining.lock();
        while *rem > 0 {
            self.done.wait(&mut rem);
        }
    }
}

/// Runs `jobs` independent jobs (`f(0) .. f(jobs - 1)`) across the calling
/// thread and the process-global worker pool, returning results in job
/// order.
///
/// Scheduling is work-stealing over a single shared cursor: the moment any
/// participant finishes a job it claims the next one, so a slow member
/// never gates the rest of the batch (unlike chunked scatter/gather, where
/// the slowest member of each chunk holds the barrier). Helper drainers are
/// submitted as revocable pool tasks; any helper still queued when the work
/// runs out is revoked instead of occupying a pool slot. The calling thread
/// always participates, so progress is guaranteed even with the pool
/// saturated by other tenants — and a job is free to start its own nested
/// parallel solve on the same pool without deadlock.
///
/// # Panics
///
/// If a job panics, the remaining jobs still run to completion and the
/// first panic message is re-raised on the calling thread afterwards.
pub fn run_batch<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if jobs == 0 {
        return Vec::new();
    }
    if jobs == 1 {
        // Nothing to scatter; skip the shared-state machinery.
        return vec![f(0)];
    }
    let state = Arc::new(BatchState {
        f,
        jobs,
        next: AtomicUsize::new(0),
        results: Mutex::new((0..jobs).map(|_| None).collect()),
        remaining: Mutex::new(jobs),
        done: Condvar::new(),
        panic: Mutex::new(None),
    });
    // One drainer per pool worker is enough: each drainer loops over jobs.
    let helpers = global_pool::global().workers().min(jobs - 1);
    let handles: Vec<_> = (0..helpers)
        .map(|_| {
            let s = Arc::clone(&state);
            global_pool::global().submit(Box::new(move || s.drain()))
        })
        .collect();
    state.drain();
    // The cursor is exhausted: claimed helpers are finishing their last
    // job, unclaimed ones have nothing left to contribute.
    for h in &handles {
        h.revoke();
    }
    state.wait_all();
    if let Some(message) = state.panic.lock().take() {
        panic!("batch job panicked: {message}");
    }
    let mut results = state.results.lock();
    results.drain(..).map(|r| r.expect("every completed job parked a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IncumbentFeed, LinExpr, Model, Objective, SolveStatus, SolverOptions};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_batch_returns_results_in_job_order() {
        let out = run_batch(64, |i| i * i);
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert_eq!(run_batch(0, |i| i), Vec::<usize>::new());
        assert_eq!(run_batch(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn run_batch_runs_every_job_exactly_once() {
        let hits = Arc::new(Mutex::new(vec![0u32; 97]));
        let h = Arc::clone(&hits);
        run_batch(97, move |i| {
            h.lock()[i] += 1;
        });
        assert!(hits.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn run_batch_propagates_a_job_panic_after_finishing() {
        let completed = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&completed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_batch(8, move |i| {
                if i == 3 {
                    panic!("member 3 exploded");
                }
                c.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let message = crate::parallel::panic_message(result.unwrap_err().as_ref());
        assert!(message.contains("member 3 exploded"), "got: {message}");
        // The other seven members still ran (no strand on panic).
        assert_eq!(completed.load(Ordering::Relaxed), 7);
    }

    /// A small knapsack whose optimum is known (items 1 and 2, value 8).
    fn knapsack() -> Model {
        let mut m = Model::new("ks");
        let items = [(3.0, 4.0), (4.0, 5.0), (2.0, 3.0)];
        let mut weight = LinExpr::new();
        let mut value = LinExpr::new();
        for (i, (w, v)) in items.iter().enumerate() {
            let x = m.binary(format!("x{i}"));
            weight.add_term(x, *w);
            value.add_term(x, *v);
        }
        m.add_le("capacity", weight, 6.0);
        m.set_objective(Objective::Maximize, value);
        m
    }

    #[test]
    fn feed_published_point_does_not_change_the_optimum() {
        // Publish the known optimum before the solve starts: the search
        // must install it (or find it itself) and still prove the same
        // objective — a feed can only accelerate, never divert.
        let model = knapsack();
        let feed = IncumbentFeed::new();
        feed.publish(vec![0.0, 1.0, 1.0]);
        let opts = SolverOptions::default().incumbent_feed(feed.clone());
        let sol = model.solve_with(&opts).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!((sol.objective_value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_feed_points_are_ignored() {
        let model = knapsack();
        let feed = IncumbentFeed::new();
        feed.publish(vec![1.0, 1.0, 1.0]); // violates the capacity row
        feed.publish(vec![1.0]); // wrong arity
        let opts = SolverOptions::default().incumbent_feed(feed);
        let sol = model.solve_with(&opts).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!((sol.objective_value() - 8.0).abs() < 1e-9);
    }
}
