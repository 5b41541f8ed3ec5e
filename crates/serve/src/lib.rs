//! `ndp-serve`: a long-running multi-tenant deployment-solve server.
//!
//! The evaluation binaries solve one instance and exit; the ROADMAP
//! north-star is a *service* that accepts deployment requests continuously
//! (task graph + platform + solver options), multiplexes concurrent solves
//! fairly over the bounded process-global MILP worker pool, honors per-job
//! deadlines, streams live [`SolverEvent`]s to clients and answers repeated
//! requests from a solution cache. This crate is that service:
//!
//! * **Admission + scheduling** — [`SolveServer`] holds a bounded FIFO job
//!   queue drained by a small set of runner threads. A full queue rejects
//!   new work at submission time (admission control) instead of queueing
//!   unboundedly; every accepted job gets its own [`CancelToken`].
//! * **Deadlines** — a job's `deadline_ms` is measured from *submission*,
//!   so time spent waiting in the queue counts against it. A job whose
//!   deadline passed in the queue finishes `deadline` when a runner picks
//!   it up, without touching the solver; a running job hands the remaining
//!   budget to the solver as its wall-clock limit, which the solver checks
//!   at the same points as the cancel token. The token fires only on a
//!   client cancel, so `cancelled` always means the client asked.
//! * **Fault isolation** — runner threads wrap each job in
//!   `catch_unwind`, and the solver itself contains worker panics to the
//!   owning job ([`ndp_milp::MilpError::WorkerPanicked`]); one tenant's
//!   crash becomes that job's structured failure, never the server's.
//! * **Solution cache** — answers come from one [`SolveCache`], keyed by
//!   the canonical model fingerprint
//!   ([`ndp_core::DeploymentSession::fingerprint`], the hash of the built
//!   MILP plus answer-relevant tolerances). Only proven outcomes (optimal
//!   or infeasible) are stored; an identical later request is answered
//!   with zero solver nodes. A job never waits on another job's solve of
//!   the same key, which could outlast its deadline: it solves the key
//!   itself. The cache's hit/miss counters surface in [`ServerStats`].
//! * **Online re-deployment** — a solve submitted with `session=on`
//!   retains its [`DeploymentSession`] (keyed by the job id) after the
//!   answer is delivered. A later `delta` request names that session plus
//!   a scenario event (core fault, deadline change, aperiodic arrival) and
//!   re-solves *incrementally* on the session's carried solver state
//!   instead of building a fresh model. The cache key is recomputed from
//!   the **mutated** model, so a delta can never be answered from the
//!   stale pre-delta cache entry.
//! * **Line protocol** — an offline-friendly, transport-agnostic text
//!   protocol (stdin/stdout in the shipped binary): `solve`/`delta`/
//!   `cancel`/`stats`/`shutdown` in, `ack`/`event`/`done`/`stats`/`bye`
//!   out, one `key=value` record per line. See [`PROTOCOL`].

use ndp_core::{
    CommTimeModel, DeployObjective, DeploymentSession, OptimalConfig, ProblemInstance,
    ScenarioEvent, SolveCache,
};
use ndp_milp::{CancelToken, Observer, SolveStatus, SolverEvent};
use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
use ndp_platform::{Platform, PowerModel, PowerParams, ProcessorId, ReliabilityParams, VfTable};
use ndp_taskset::{generate, GeneratorConfig, Task, TaskId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One deployment request: the synthetic-instance knobs shared with the
/// bench harness plus per-job service parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// Original task count `M`.
    pub tasks: usize,
    /// Mesh side (`N = side²` processors).
    pub mesh_side: usize,
    /// Number of V/F levels `L`.
    pub levels: usize,
    /// Horizon multiplier `α`.
    pub alpha: f64,
    /// Instance seed (task graph + NoC link weights).
    pub seed: u64,
    /// BE (balance) or ME (total) energy objective.
    pub objective: DeployObjective,
    /// Solver threads for this job (0 = solver default).
    pub threads: usize,
    /// Relative MIP gap; `None` keeps the solver default.
    pub gap: Option<f64>,
    /// Wall-clock deadline in milliseconds, measured from submission.
    pub deadline_ms: Option<u64>,
    /// Stream solver events for this job.
    pub events: bool,
    /// Retain the deployment session after the solve so later `delta`
    /// requests can re-solve incrementally against it (keyed by this
    /// job's id).
    pub session: bool,
}

impl Default for RequestSpec {
    fn default() -> Self {
        RequestSpec {
            tasks: 4,
            mesh_side: 2,
            levels: 3,
            alpha: 1.4,
            seed: 1,
            objective: DeployObjective::BalanceEnergy,
            threads: 2,
            gap: None,
            deadline_ms: None,
            events: false,
            session: false,
        }
    }
}

impl RequestSpec {
    /// Admission-time validation: reject obviously hostile or absurd specs
    /// before they consume a runner.
    fn validate(&self) -> Result<(), String> {
        if self.tasks == 0 || self.tasks > 16 {
            return Err(format!("tasks={} out of range 1..=16", self.tasks));
        }
        if self.mesh_side == 0 || self.mesh_side > 4 {
            return Err(format!("mesh={} out of range 1..=4", self.mesh_side));
        }
        if self.levels == 0 || self.levels > 6 {
            return Err(format!("levels={} out of range 1..=6", self.levels));
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 {
            return Err(format!("alpha={} must be finite and positive", self.alpha));
        }
        if self.threads > 8 {
            return Err(format!("threads={} out of range 0..=8", self.threads));
        }
        Ok(())
    }

    /// Materializes the problem instance (the bench harness defaults at
    /// this size/seed).
    fn build_problem(&self) -> Result<ProblemInstance, String> {
        let cfg = GeneratorConfig::typical(self.tasks);
        let graph = generate(&cfg, self.seed).map_err(|e| format!("taskset: {e}"))?;
        let vf = VfTable::synthetic(self.levels, (0.85, 1.10), (300.0, 1000.0))
            .map_err(|e| format!("vf-table: {e}"))?;
        let platform = Platform::new(
            self.mesh_side * self.mesh_side,
            vf,
            PowerModel::new(PowerParams::bulk_70nm()),
            ReliabilityParams::typical(),
        )
        .map_err(|e| format!("platform: {e}"))?;
        let mesh = Mesh2D::square(self.mesh_side).map_err(|e| format!("mesh: {e}"))?;
        let noc = WeightedNoc::new(mesh, NocParams::typical(), self.seed)
            .map_err(|e| format!("noc: {e}"))?;
        ProblemInstance::from_original(&graph, platform, noc, 0.95, self.alpha)
            .map(|p| p.with_comm_time_model(CommTimeModel::PerUnit))
            .map_err(|e| format!("problem: {e}"))
    }

    /// The solve configuration before per-job control (token, deadline,
    /// observer) is attached; this is also what the cache key hashes.
    fn config(&self) -> OptimalConfig {
        let mut config = OptimalConfig { objective: self.objective, ..OptimalConfig::default() };
        config.solver.threads = self.threads;
        if let Some(gap) = self.gap {
            config.solver.relative_gap = gap;
        }
        config
    }
}

/// Terminal state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Proven optimal deployment.
    Optimal,
    /// A deployment without a completed proof: the time budget (the job's
    /// deadline, or a delta's `budget_ms`) stopped the search after it
    /// found one.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// The time budget ran out before any deployment was found: in the
    /// queue, or mid-solve.
    Deadline,
    /// Cancelled by the client (or drained from the queue at server
    /// shutdown).
    Cancelled,
    /// Rejected at admission (full queue or invalid spec).
    Rejected,
    /// The solve failed: a structured solver error, a contained panic, or
    /// a search that stopped without a deployment before its time budget
    /// ran out (numerics).
    Failed,
}

impl JobStatus {
    /// Protocol wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Optimal => "optimal",
            JobStatus::Feasible => "feasible",
            JobStatus::Infeasible => "infeasible",
            JobStatus::Deadline => "deadline",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Rejected => "rejected",
            JobStatus::Failed => "failed",
        }
    }
}

/// Result of one job, as reported to clients.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Client-visible job id.
    pub id: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// Objective (mJ) when a deployment was found.
    pub objective_mj: Option<f64>,
    /// Branch-and-bound nodes spent on this request (0 on a cache hit).
    pub nodes: u64,
    /// Wall milliseconds from submission to completion (queue included).
    pub wall_ms: f64,
    /// Whether the answer came from the solution cache.
    pub cache_hit: bool,
    /// Failure detail for [`JobStatus::Failed`]/[`JobStatus::Rejected`].
    pub error: Option<String>,
}

/// Server counters, all monotone except `queue_depth`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that reached a terminal state (any status).
    pub completed: u64,
    /// Jobs that ended `Cancelled`.
    pub cancelled: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Jobs answered from the solution cache.
    pub cache_hits: u64,
    /// Jobs that had to solve (fingerprint not cached).
    pub cache_misses: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Threads in the process-global solver worker pool.
    pub pool_workers: usize,
    /// Deployment sessions currently retained for `delta` requests.
    pub sessions: usize,
}

/// Where protocol output lines go (stdout in the binary, a collector in
/// tests and benches). Lines arrive without trailing newline.
pub type OutputSink = Arc<dyn Fn(&str) + Send + Sync>;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent solve runners (jobs in flight at once).
    pub runners: usize,
    /// Admission bound: queued jobs beyond this are rejected.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { runners: 2, queue_capacity: 64 }
    }
}

enum JobState {
    Queued,
    Running,
    Done(JobOutcome),
}

/// What a queued job does when a runner picks it up.
#[derive(Debug, Clone)]
enum JobKind {
    /// Build and solve a fresh instance (optionally retaining a session).
    Solve(RequestSpec),
    /// Apply a scenario event to a retained session and re-solve
    /// incrementally under an optional wall-clock budget.
    Delta { session: u64, event: ScenarioEvent, budget_ms: Option<u64> },
}

struct Job {
    kind: JobKind,
    /// Fires only on a client cancel; deadlines reach the solver as its
    /// time limit.
    token: CancelToken,
    submitted: Instant,
    deadline: Option<Instant>,
    state: JobState,
}

struct Inner {
    cfg: ServerConfig,
    sink: Option<OutputSink>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    jobs: Mutex<HashMap<u64, Job>>,
    done_cv: Condvar,
    /// Proven outcomes keyed by [`DeploymentSession::fingerprint`].
    cache: SolveCache,
    /// Retained deployment sessions keyed by the solve job's id. A `delta`
    /// job takes its session out while re-solving (one delta in flight per
    /// session) and puts the mutated session back when done.
    sessions: Mutex<HashMap<u64, DeploymentSession>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
}

/// The multi-tenant solve server. Construct with [`SolveServer::start`],
/// drive either in-process ([`SolveServer::submit`]/[`SolveServer::wait`])
/// or through the line protocol ([`handle_line`]), stop with
/// [`SolveServer::shutdown`].
pub struct SolveServer {
    inner: Arc<Inner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SolveServer {
    /// Spawns the runner threads and returns the ready server. `sink`
    /// receives every protocol output line.
    pub fn start(cfg: ServerConfig, sink: Option<OutputSink>) -> Self {
        let runners = cfg.runners.max(1);
        let inner = Arc::new(Inner {
            cfg,
            sink,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            cache: SolveCache::new(),
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let threads = (0..runners)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ndp-serve-runner-{i}"))
                    .spawn(move || runner_main(&inner))
                    .expect("spawn runner")
            })
            .collect();
        SolveServer { inner, threads: Mutex::new(threads) }
    }

    /// Submits a request under a server-assigned id.
    ///
    /// # Errors
    ///
    /// Returns the admission failure (invalid spec, full queue, or a
    /// shutting-down server); rejected submissions are counted in
    /// [`ServerStats::rejected`].
    pub fn submit(&self, spec: RequestSpec) -> Result<u64, String> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.submit_with_id(id, spec).map(|()| id)
    }

    /// Submits a request under a client-chosen id (the line protocol path).
    ///
    /// # Errors
    ///
    /// As [`SolveServer::submit`], plus duplicate-id rejection.
    pub fn submit_with_id(&self, id: u64, spec: RequestSpec) -> Result<(), String> {
        if let Err(e) = spec.validate() {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let deadline_ms = spec.deadline_ms;
        self.enqueue(id, JobKind::Solve(spec), deadline_ms)
    }

    /// Submits an incremental re-solve: apply `event` to the retained
    /// session of solve job `session` and re-solve on its carried solver
    /// state, under an optional `budget_ms` wall-clock budget. The mutated
    /// session stays retained for further deltas.
    ///
    /// # Errors
    ///
    /// Admission failures as [`SolveServer::submit`]; an unknown session
    /// id is reported on the job outcome, not here (the session may be in
    /// use by an in-flight delta at submission time).
    pub fn submit_delta(
        &self,
        session: u64,
        event: ScenarioEvent,
        budget_ms: Option<u64>,
    ) -> Result<u64, String> {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.submit_delta_with_id(id, session, event, budget_ms).map(|()| id)
    }

    /// [`submit_delta`](SolveServer::submit_delta) under a client-chosen
    /// id (the line protocol path).
    ///
    /// # Errors
    ///
    /// As [`SolveServer::submit_delta`], plus duplicate-id rejection.
    pub fn submit_delta_with_id(
        &self,
        id: u64,
        session: u64,
        event: ScenarioEvent,
        budget_ms: Option<u64>,
    ) -> Result<(), String> {
        self.enqueue(id, JobKind::Delta { session, event, budget_ms }, None)
    }

    fn enqueue(&self, id: u64, kind: JobKind, deadline_ms: Option<u64>) -> Result<(), String> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err("server is shutting down".into());
        }
        let submitted = Instant::now();
        let deadline = deadline_ms.map(|ms| submitted + Duration::from_millis(ms));
        {
            let mut jobs = self.inner.jobs.lock();
            if jobs.contains_key(&id) {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(format!("duplicate job id {id}"));
            }
            let mut queue = self.inner.queue.lock();
            if queue.len() >= self.inner.cfg.queue_capacity {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(format!("queue full ({} jobs waiting)", queue.len()));
            }
            jobs.insert(
                id,
                Job {
                    kind,
                    token: CancelToken::new(),
                    submitted,
                    deadline,
                    state: JobState::Queued,
                },
            );
            queue.push_back(id);
        }
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.queue_cv.notify_one();
        Ok(())
    }

    /// Cancels a queued or running job. Returns `false` for unknown or
    /// already-finished ids.
    pub fn cancel(&self, id: u64) -> bool {
        let jobs = self.inner.jobs.lock();
        match jobs.get(&id) {
            Some(job) if !matches!(job.state, JobState::Done(_)) => {
                job.token.cancel();
                true
            }
            _ => false,
        }
    }

    /// Blocks until job `id` reaches a terminal state; `None` for unknown
    /// ids.
    pub fn wait(&self, id: u64) -> Option<JobOutcome> {
        let mut jobs = self.inner.jobs.lock();
        loop {
            match jobs.get(&id) {
                None => return None,
                Some(Job { state: JobState::Done(outcome), .. }) => return Some(outcome.clone()),
                Some(_) => self.inner.done_cv.wait(&mut jobs),
            }
        }
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            cache_hits: self.inner.cache.hits(),
            cache_misses: self.inner.cache.misses(),
            queue_depth: self.inner.queue.lock().len(),
            pool_workers: ndp_milp::worker_pool_size(),
            sessions: self.inner.sessions.lock().len(),
        }
    }

    /// Drains the queue (queued jobs finish `Cancelled`), waits for
    /// running jobs, and stops all server threads.
    pub fn shutdown(&self) {
        let drained: Vec<u64> = {
            let mut queue = self.inner.queue.lock();
            queue.drain(..).collect()
        };
        for id in drained {
            let error = Some("server shutdown".into());
            finish_job(&self.inner, id, Answer { error, ..Answer::status(JobStatus::Cancelled) });
        }
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.queue_cv.notify_all();
        let threads = { std::mem::take(&mut *self.threads.lock()) };
        for t in threads {
            let _ = t.join();
        }
        self.inner.sessions.lock().clear();
    }
}

fn emit(inner: &Inner, line: &str) {
    if let Some(sink) = &inner.sink {
        sink(line);
    }
}

fn runner_main(inner: &Inner) {
    loop {
        let id = {
            let mut queue = inner.queue.lock();
            loop {
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                inner.queue_cv.wait(&mut queue);
            }
        };
        // One tenant's panic must never take a runner down with it; the
        // job is failed with the payload as a structured message.
        let result = catch_unwind(AssertUnwindSafe(|| run_job(inner, id)));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<&'static str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            finish_job(inner, id, Answer::failed(msg));
        }
    }
}

/// What a runner reports for one job; [`finish_job`] adds the id and the
/// wall time.
struct Answer {
    status: JobStatus,
    objective_mj: Option<f64>,
    nodes: u64,
    cache_hit: bool,
    error: Option<String>,
}

impl Answer {
    /// `status` without a deployment, nodes or error.
    fn status(status: JobStatus) -> Self {
        Answer { status, objective_mj: None, nodes: 0, cache_hit: false, error: None }
    }

    fn failed(error: String) -> Self {
        Answer { error: Some(error), ..Answer::status(JobStatus::Failed) }
    }
}

/// Marks `id` done, bumps counters, wakes waiters and emits the `done`
/// protocol line.
fn finish_job(inner: &Inner, id: u64, answer: Answer) {
    let outcome = {
        let mut jobs = inner.jobs.lock();
        let Some(job) = jobs.get_mut(&id) else { return };
        if matches!(job.state, JobState::Done(_)) {
            return;
        }
        let outcome = JobOutcome {
            id,
            status: answer.status,
            objective_mj: answer.objective_mj,
            nodes: answer.nodes,
            wall_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
            cache_hit: answer.cache_hit,
            error: answer.error,
        };
        job.state = JobState::Done(outcome.clone());
        outcome
    };
    inner.completed.fetch_add(1, Ordering::Relaxed);
    if outcome.status == JobStatus::Cancelled {
        inner.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    inner.done_cv.notify_all();
    let mut line = format!(
        "done id={} status={} nodes={} wall_ms={:.1} cache={}",
        id,
        outcome.status.name(),
        outcome.nodes,
        outcome.wall_ms,
        if outcome.cache_hit { "hit" } else { "miss" }
    );
    if let Some(obj) = outcome.objective_mj {
        line.push_str(&format!(" objective_mj={obj:.6}"));
    }
    if let Some(e) = &outcome.error {
        line.push_str(&format!(" error={}", e.replace([' ', '\n'], "_")));
    }
    emit(inner, &line);
}

/// The job status of a finished search. The job's token fires only on a
/// client cancel, so `Interrupted` is a cancel. A search stopped without a
/// deployment ran out of its time budget when `out_of_time`, and failed
/// (numerics) otherwise.
fn job_status(status: SolveStatus, out_of_time: bool) -> JobStatus {
    match status {
        SolveStatus::Optimal => JobStatus::Optimal,
        SolveStatus::Feasible => JobStatus::Feasible,
        SolveStatus::Infeasible => JobStatus::Infeasible,
        SolveStatus::Interrupted => JobStatus::Cancelled,
        SolveStatus::Unknown if out_of_time => JobStatus::Deadline,
        SolveStatus::Unknown | SolveStatus::Unbounded => JobStatus::Failed,
    }
}

fn run_job(inner: &Inner, id: u64) {
    let (kind, token, deadline) = {
        let mut jobs = inner.jobs.lock();
        let Some(job) = jobs.get_mut(&id) else { return };
        if matches!(job.state, JobState::Done(_)) {
            return;
        }
        job.state = JobState::Running;
        (job.kind.clone(), job.token.clone(), job.deadline)
    };
    // A job cancelled or out of time while it waited never touches the
    // solver.
    let answer = if token.is_cancelled() {
        Answer::status(JobStatus::Cancelled)
    } else if deadline.is_some_and(|d| Instant::now() >= d) {
        Answer::status(JobStatus::Deadline)
    } else {
        match kind {
            JobKind::Solve(spec) => run_solve_job(inner, id, &spec, &token, deadline),
            JobKind::Delta { session, event, budget_ms } => {
                run_delta_job(inner, session, &event, budget_ms, &token)
            }
        }
        .unwrap_or_else(Answer::failed)
    };
    finish_job(inner, id, answer);
}

fn run_solve_job(
    inner: &Inner,
    id: u64,
    spec: &RequestSpec,
    token: &CancelToken,
    deadline: Option<Instant>,
) -> Result<Answer, String> {
    let mut session =
        DeploymentSession::builder(spec.build_problem()?).config(spec.config()).build();
    if spec.events {
        if let Some(sink) = &inner.sink {
            let stream = Arc::clone(sink);
            let observer: Arc<dyn Observer> = Arc::new(move |e: &SolverEvent| match e {
                SolverEvent::RootRelaxation { .. }
                | SolverEvent::HeuristicIncumbent { .. }
                | SolverEvent::Incumbent { .. }
                | SolverEvent::Terminated { .. } => stream(&format!("event id={id} {e}")),
                _ => {}
            });
            session.solver_mut().observer = ndp_milp::ObserverHandle::new(observer);
        }
    }
    let answer =
        solve_or_replay(inner, &mut session, token, deadline).map_err(|e| e.to_string())?;
    // Retained on a cache hit too: later deltas need live solver state,
    // which the cache does not carry.
    if spec.session {
        inner.sessions.lock().insert(id, session);
    }
    Ok(answer)
}

fn run_delta_job(
    inner: &Inner,
    session_id: u64,
    event: &ScenarioEvent,
    budget_ms: Option<u64>,
    token: &CancelToken,
) -> Result<Answer, String> {
    // Take the session out of the map while re-solving: ownership transfer
    // keeps one delta in flight per session without holding the map lock
    // across a solve. A second delta racing on the same session sees it
    // missing and fails cleanly.
    let mut session = inner
        .sessions
        .lock()
        .remove(&session_id)
        .ok_or_else(|| format!("unknown session {session_id}"))?;
    // A rejected event (e.g. faulting the last working core) leaves the
    // session untouched; either way it stays retained.
    let answer = session.apply(event).and_then(|_| {
        if let Some(ms) = budget_ms {
            session.solver_mut().time_limit = ms as f64 / 1e3;
        }
        solve_or_replay(inner, &mut session, token, None)
    });
    inner.sessions.lock().insert(session_id, session);
    answer.map_err(|e| e.to_string())
}

/// Answers a job on `session`: replays the proven outcome cached under the
/// session's current fingerprint, or solves under `token` and the
/// session's time limit, cut to what is left before `deadline`, and caches
/// the outcome if it is proven. A delta re-fingerprints its mutated model
/// here, so it never replays the pre-delta entry.
fn solve_or_replay(
    inner: &Inner,
    session: &mut DeploymentSession,
    token: &CancelToken,
    deadline: Option<Instant>,
) -> ndp_core::Result<Answer> {
    let key = session.fingerprint()?;
    if let Some(hit) = inner.cache.replay(key) {
        let status = job_status(hit.status, false);
        return Ok(Answer {
            objective_mj: hit.objective_mj,
            cache_hit: true,
            ..Answer::status(status)
        });
    }
    let solver = session.solver_mut();
    solver.cancel = Some(token.clone());
    if let Some(d) = deadline {
        let remaining = d.saturating_duration_since(Instant::now()).as_secs_f64();
        solver.time_limit = solver.time_limit.min(remaining);
    }
    let started = Instant::now();
    let outcome = session.solve()?;
    // The solver stops at its limit once its own clock, started after
    // `started`, passes it; so a limit stop always reads out of time here.
    let out_of_time = started.elapsed().as_secs_f64() >= session.solver().time_limit;
    let status = job_status(outcome.status, out_of_time);
    let answer = Answer {
        status,
        objective_mj: outcome.objective_mj,
        nodes: outcome.nodes,
        cache_hit: false,
        error: (status == JobStatus::Failed).then(|| format!("solver status {:?}", outcome.status)),
    };
    // Only proven answers are sound for every later requester.
    if matches!(status, JobStatus::Optimal | JobStatus::Infeasible) {
        inner.cache.publish(key, outcome);
    }
    Ok(answer)
}

// --------------------------------------------------------------------------
// Line protocol
// --------------------------------------------------------------------------

fn parse_kv(tokens: &[&str]) -> HashMap<String, String> {
    let mut kv = HashMap::new();
    for t in tokens {
        if let Some((k, v)) = t.split_once('=') {
            kv.insert(k.to_string(), v.to_string());
        }
    }
    kv
}

fn parse_spec(kv: &HashMap<String, String>) -> Result<RequestSpec, String> {
    let mut spec = RequestSpec::default();
    let get = |key: &str| kv.get(key).map(String::as_str);
    if let Some(v) = get("tasks") {
        spec.tasks = v.parse().map_err(|_| format!("bad tasks={v}"))?;
    }
    if let Some(v) = get("mesh") {
        spec.mesh_side = v.parse().map_err(|_| format!("bad mesh={v}"))?;
    }
    if let Some(v) = get("levels") {
        spec.levels = v.parse().map_err(|_| format!("bad levels={v}"))?;
    }
    if let Some(v) = get("alpha") {
        spec.alpha = v.parse().map_err(|_| format!("bad alpha={v}"))?;
    }
    if let Some(v) = get("seed") {
        spec.seed = v.parse().map_err(|_| format!("bad seed={v}"))?;
    }
    if let Some(v) = get("threads") {
        spec.threads = v.parse().map_err(|_| format!("bad threads={v}"))?;
    }
    if let Some(v) = get("gap") {
        spec.gap = Some(v.parse().map_err(|_| format!("bad gap={v}"))?);
    }
    if let Some(v) = get("deadline_ms") {
        spec.deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline_ms={v}"))?);
    }
    if let Some(v) = get("events") {
        spec.events = matches!(v, "on" | "true" | "1");
    }
    if let Some(v) = get("session") {
        spec.session = matches!(v, "on" | "true" | "1");
    }
    if let Some(v) = get("objective") {
        spec.objective = match v {
            "be" => DeployObjective::BalanceEnergy,
            "me" => DeployObjective::MinimizeTotalEnergy,
            other => return Err(format!("bad objective={other} (want be|me)")),
        };
    }
    Ok(spec)
}

/// Parses the `delta` command's event grammar:
///
/// * `fault:<proc>` — processor `<proc>` failed;
/// * `deadline:<task>:<ms>` — original task `<task>` now has relative
///   deadline `<ms>` milliseconds;
/// * `arrival:<wcec>:<deadline_ms>[:<pred>x<data>]*` — an aperiodic task
///   with the given WCEC (megacycles) and deadline arrives, reading
///   `<data>` units from each existing original task `<pred>`.
fn parse_event(s: &str) -> Result<ScenarioEvent, String> {
    let mut parts = s.split(':');
    let kind = parts.next().unwrap_or_default();
    let mut next = |what: &str| {
        parts.next().filter(|p| !p.is_empty()).ok_or_else(|| format!("event missing {what}"))
    };
    match kind {
        "fault" => {
            let proc: usize =
                next("processor")?.parse().map_err(|_| "bad fault processor".to_string())?;
            Ok(ScenarioEvent::CoreFault { processor: ProcessorId(proc) })
        }
        "deadline" => {
            let task: usize = next("task")?.parse().map_err(|_| "bad deadline task".to_string())?;
            let ms: f64 = next("ms")?.parse().map_err(|_| "bad deadline ms".to_string())?;
            if !ms.is_finite() || ms <= 0.0 {
                return Err(format!("deadline ms={ms} must be finite and positive"));
            }
            Ok(ScenarioEvent::DeadlineChange { task: TaskId(task), deadline_ms: ms })
        }
        "arrival" => {
            let wcec: f64 = next("wcec")?.parse().map_err(|_| "bad arrival wcec".to_string())?;
            let ms: f64 =
                next("deadline_ms")?.parse().map_err(|_| "bad arrival deadline".to_string())?;
            if !wcec.is_finite() || wcec <= 0.0 || !ms.is_finite() || ms <= 0.0 {
                return Err("arrival wcec and deadline must be finite and positive".into());
            }
            let mut predecessors = Vec::new();
            for edge in parts {
                let (pred, data) =
                    edge.split_once('x').ok_or_else(|| format!("bad arrival edge {edge}"))?;
                let pred: usize =
                    pred.parse().map_err(|_| format!("bad arrival predecessor {pred}"))?;
                let data: f64 =
                    data.parse().map_err(|_| format!("bad arrival data size {data}"))?;
                if !data.is_finite() || data < 0.0 {
                    return Err(format!("arrival data size {data} must be non-negative"));
                }
                predecessors.push((TaskId(pred), data));
            }
            Ok(ScenarioEvent::TaskArrival { task: Task::new("arrival", wcec, ms), predecessors })
        }
        other => Err(format!("unknown event kind {other} (want fault|deadline|arrival)")),
    }
}

/// The line protocol [`handle_line`] accepts, one command per line;
/// `ndp-serve --help` prints it.
pub const PROTOCOL: &str = "\
solve id=<n> [tasks=<m> mesh=<side> levels=<l> alpha=<a> seed=<s> threads=<t>
      gap=<g> deadline_ms=<ms> events=on session=on objective=be|me]
delta id=<n> session=<solve-id> event=<event> [budget_ms=<ms>]
      <event> = fault:<proc> | deadline:<task>:<ms>
              | arrival:<wcec>:<deadline_ms>[:<pred>x<data>]...
cancel id=<n>
stats
shutdown
Replies are ack, event, done, stats, err and bye lines of key=value fields.
Blank lines and lines starting with # are ignored.";

/// The `id=` of a job command, or `None` after emitting the protocol error
/// for a missing or malformed one.
fn job_id(server: &SolveServer, kv: &HashMap<String, String>) -> Option<u64> {
    let id = kv.get("id").and_then(|v| v.parse().ok());
    if id.is_none() {
        emit(&server.inner, "err reason=missing-or-bad-id");
    }
    id
}

/// Emits `ack` for an accepted submission, or its `err` line.
fn acknowledge(server: &SolveServer, id: u64, submitted: Result<(), String>) {
    let line = match submitted {
        Ok(()) => format!("ack id={id}"),
        Err(e) => format!("err id={id} reason={}", e.replace([' ', '\n'], "_")),
    };
    emit(&server.inner, &line);
}

/// Parses a `delta` command's `session=`, optional `budget_ms=` and
/// `event=`.
fn parse_delta(kv: &HashMap<String, String>) -> Result<(u64, ScenarioEvent, Option<u64>), String> {
    let session = kv.get("session").and_then(|v| v.parse().ok()).ok_or("missing-or-bad-session")?;
    let budget_ms =
        kv.get("budget_ms").map(|v| v.parse().map_err(|_| "bad-budget_ms")).transpose()?;
    let event = parse_event(kv.get("event").ok_or("missing event")?)?;
    Ok((session, event, budget_ms))
}

/// Handles one protocol input line (grammar in [`PROTOCOL`]), emitting
/// response lines through the server's sink. Returns `false` once the
/// client asked for `shutdown` (the server is already stopped at that
/// point). Unknown commands get an `err` line.
pub fn handle_line(server: &SolveServer, line: &str) -> bool {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return true;
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let kv = parse_kv(&tokens[1..]);
    match tokens[0] {
        "solve" => {
            let Some(id) = job_id(server, &kv) else { return true };
            acknowledge(
                server,
                id,
                parse_spec(&kv).and_then(|spec| server.submit_with_id(id, spec)),
            );
        }
        "delta" => {
            let Some(id) = job_id(server, &kv) else { return true };
            let submitted = parse_delta(&kv).and_then(|(session, event, budget_ms)| {
                server.submit_delta_with_id(id, session, event, budget_ms)
            });
            acknowledge(server, id, submitted);
        }
        "cancel" => {
            let Some(id) = job_id(server, &kv) else { return true };
            let known = server.cancel(id);
            emit(&server.inner, &format!("ack cancel id={id} known={known}"));
        }
        "stats" => {
            let s = server.stats();
            emit(
                &server.inner,
                &format!(
                    "stats submitted={} completed={} cancelled={} rejected={} cache_hits={} \
                     cache_misses={} queue={} pool_workers={} sessions={}",
                    s.submitted,
                    s.completed,
                    s.cancelled,
                    s.rejected,
                    s.cache_hits,
                    s.cache_misses,
                    s.queue_depth,
                    s.pool_workers,
                    s.sessions
                ),
            );
        }
        "shutdown" => {
            server.shutdown();
            emit(&server.inner, "bye");
            return false;
        }
        other => emit(&server.inner, &format!("err reason=unknown-command-{other}")),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> (Arc<Mutex<Vec<String>>>, OutputSink) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let sink: OutputSink = Arc::new(move |l: &str| sink_lines.lock().push(l.to_string()));
        (lines, sink)
    }

    fn small_spec(seed: u64) -> RequestSpec {
        RequestSpec {
            tasks: 3,
            mesh_side: 2,
            levels: 2,
            seed,
            threads: 2,
            deadline_ms: Some(60_000),
            ..RequestSpec::default()
        }
    }

    #[test]
    fn identical_requests_hit_the_cache_with_zero_nodes() {
        let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 8 }, None);
        let first = server.submit(small_spec(3)).unwrap();
        let first = server.wait(first).expect("first outcome");
        assert_eq!(first.status, JobStatus::Optimal);
        assert!(!first.cache_hit);
        assert!(first.nodes > 0);

        let second = server.submit(small_spec(3)).unwrap();
        let second = server.wait(second).expect("second outcome");
        assert_eq!(second.status, JobStatus::Optimal);
        assert!(second.cache_hit, "identical request must be served from cache");
        assert_eq!(second.nodes, 0, "cache hits must not spend solver nodes");
        assert_eq!(second.objective_mj, first.objective_mj);

        let stats = server.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        server.shutdown();
    }

    #[test]
    fn cancelled_and_deadline_jobs_report_their_status() {
        let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 8 }, None);
        // A pre-cancelled job: cancel can land while it is still queued.
        let id = server.submit(small_spec(11)).unwrap();
        assert!(server.cancel(id));
        let out = server.wait(id).expect("outcome");
        assert!(
            matches!(out.status, JobStatus::Cancelled | JobStatus::Optimal),
            "late cancel may lose the race, got {:?}",
            out.status
        );
        // An already-expired deadline never touches the solver.
        let expired = RequestSpec { deadline_ms: Some(0), ..small_spec(12) };
        let id = server.submit(expired).unwrap();
        let out = server.wait(id).expect("outcome");
        assert_eq!(out.status, JobStatus::Deadline);
        assert_eq!(out.nodes, 0);
        server.shutdown();
    }

    #[test]
    fn admission_rejects_invalid_specs_and_overflow() {
        let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 1 }, None);
        let bad = RequestSpec { tasks: 0, ..RequestSpec::default() };
        assert!(server.submit(bad).is_err());
        assert_eq!(server.stats().rejected, 1);
        server.shutdown();
    }

    #[test]
    fn a_delta_never_replays_the_stale_pre_delta_cache_entry() {
        let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 8 }, None);
        let base = RequestSpec { session: true, ..small_spec(3) };
        let solve_id = server.submit(base.clone()).unwrap();
        let before = server.wait(solve_id).expect("base outcome");
        assert_eq!(before.status, JobStatus::Optimal);
        assert!(!before.cache_hit);
        assert_eq!(server.stats().sessions, 1, "session=on must retain the session");

        // Fault a core: the feasible set shrinks, so the cached pre-delta
        // optimum is stale for the mutated model and must NOT be replayed.
        let delta_id = server
            .submit_delta(solve_id, ScenarioEvent::CoreFault { processor: ProcessorId(0) }, None)
            .unwrap();
        let after = server.wait(delta_id).expect("delta outcome");
        assert!(
            !after.cache_hit,
            "mutated model must re-fingerprint off the pre-delta cache entry"
        );
        assert!(
            matches!(after.status, JobStatus::Optimal | JobStatus::Infeasible),
            "delta re-solve must reach a proven answer, got {:?}",
            after.status
        );
        if let (Some(b), Some(a)) = (before.objective_mj, after.objective_mj) {
            assert!(a >= b - 1e-6, "restricting the model cannot improve the optimum");
        }
        // The session survives the delta and stays addressable; the
        // *unmutated* base request still answers from its own cache entry.
        assert_eq!(server.stats().sessions, 1);
        let replay = server.submit(RequestSpec { session: false, ..base }).unwrap();
        let replay = server.wait(replay).expect("replay outcome");
        assert!(replay.cache_hit, "the untouched base instance must still cache-hit");
        assert_eq!(replay.objective_mj, before.objective_mj);

        // Unknown session ids fail the job, not the server.
        let bogus = server
            .submit_delta(9999, ScenarioEvent::CoreFault { processor: ProcessorId(1) }, None)
            .unwrap();
        let bogus = server.wait(bogus).expect("bogus outcome");
        assert_eq!(bogus.status, JobStatus::Failed);
        assert!(bogus.error.as_deref().unwrap_or_default().contains("unknown session"));
        server.shutdown();
        assert_eq!(server.stats().sessions, 0, "shutdown drops retained sessions");
    }

    #[test]
    fn the_delta_line_protocol_round_trips() {
        let (lines, sink) = collector();
        let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 8 }, Some(sink));
        assert!(handle_line(
            &server,
            "solve id=1 tasks=3 mesh=2 levels=2 session=on deadline_ms=60000"
        ));
        let _ = server.wait(1);
        assert!(handle_line(&server, "delta id=2 session=1 event=deadline:0:900 budget_ms=60000"));
        let _ = server.wait(2);
        assert!(handle_line(&server, "delta id=3 session=1 event=arrival:1.5:800:0x2"));
        let _ = server.wait(3);
        assert!(handle_line(&server, "delta id=4 session=1 event=bogus:0"));
        assert!(handle_line(&server, "stats"));
        assert!(!handle_line(&server, "shutdown"));
        let lines = lines.lock();
        for id in [1, 2, 3] {
            assert!(
                lines.iter().any(|l| l == &format!("ack id={id}")),
                "missing ack {id}: {lines:?}"
            );
            assert!(
                lines.iter().any(|l| l.starts_with(&format!("done id={id} status="))),
                "missing done {id}: {lines:?}"
            );
        }
        assert!(
            lines.iter().any(|l| l.starts_with("err id=4 reason=unknown_event_kind")),
            "bad event must be rejected at parse time: {lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("stats ") && l.contains("sessions=1")),
            "stats must count the retained session: {lines:?}"
        );
    }

    #[test]
    fn the_line_protocol_round_trips() {
        let (lines, sink) = collector();
        let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 8 }, Some(sink));
        assert!(handle_line(&server, "solve id=1 tasks=3 mesh=2 levels=2 deadline_ms=60000"));
        assert!(handle_line(&server, "# a comment"));
        assert!(handle_line(&server, "stats"));
        let _ = server.wait(1);
        assert!(!handle_line(&server, "shutdown"));
        let lines = lines.lock();
        assert!(lines.iter().any(|l| l == "ack id=1"), "missing ack: {lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("stats ")), "missing stats: {lines:?}");
        assert!(
            lines.iter().any(|l| l.starts_with("done id=1 status=optimal")),
            "missing done: {lines:?}"
        );
        assert!(lines.iter().any(|l| l == "bye"), "missing bye: {lines:?}");
    }

    /// A deadline that expires mid-search ends `deadline`, or `feasible`
    /// once a deployment exists, never `failed`: the solver's time limit
    /// is the only clock. The heuristic is infeasible on each instance, so
    /// no warm start hands the search a deployment.
    #[test]
    fn deadline_stops_never_report_failed() {
        let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 8 }, None);
        let cases = [(8, 0.5, 2, 100), (9, 0.6, 5, 150), (10, 0.6, 6, 200), (6, 0.45, 7, 50)];
        for (tasks, alpha, seed, deadline_ms) in cases {
            let spec = RequestSpec {
                tasks,
                alpha,
                seed,
                threads: 1,
                deadline_ms: Some(deadline_ms),
                ..RequestSpec::default()
            };
            let session = DeploymentSession::new(spec.build_problem().unwrap());
            assert!(session.heuristic().is_err(), "M={tasks} seed {seed}: heuristic deploys");
            let out = server.wait(server.submit(spec).unwrap()).expect("outcome");
            assert!(
                matches!(out.status, JobStatus::Deadline | JobStatus::Feasible),
                "M={tasks} alpha={alpha} seed {seed} at {deadline_ms} ms: {:?} {:?}",
                out.status,
                out.error
            );
        }
        server.shutdown();
    }
}
