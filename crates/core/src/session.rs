//! Online re-deployment: a stateful [`DeploymentSession`] over a mutating
//! mission.
//!
//! The paper deploys once, offline. Real missions change while running: a
//! core faults, a deadline tightens mid-flight, an aperiodic task arrives.
//! Each of those is a small edit to the deployment MILP, not a new problem
//! — so the session keeps the solver state of the previous solve alive
//! (via [`ndp_milp::ResolveSession`]) and absorbs
//! [`ScenarioEvent`]s as incremental model deltas:
//!
//! * [`ScenarioEvent::CoreFault`] fixes the faulted processor's allocation
//!   column `x[·][k]` to 0 — a pure restriction, re-solved warm on the
//!   carried basis (and cut rows, when the solver separates cuts).
//! * [`ScenarioEvent::DeadlineChange`] rewrites the `deadline[i]` rows of
//!   the task and its duplicate in place. A tightening stays warm; a
//!   relaxation falls back to a cold rebuild (the previous deployment
//!   still seeds the search as an incumbent).
//! * [`ScenarioEvent::TaskArrival`] changes the duplication structure and
//!   every scheduling disjunction, so the model is rebuilt from the
//!   mutated problem; standing core faults are re-applied and the next
//!   solve warm-starts from the heuristic on the new problem.
//!
//! The session is also the one front door for one-shot exact solving:
//!
//! ```
//! use ndp_core::prelude::*;
//! use ndp_taskset::Task;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generate(&GeneratorConfig::typical(3), 7)?;
//! let problem = ProblemInstance::from_original(
//!     &graph,
//!     Platform::homogeneous(4)?,
//!     WeightedNoc::new(Mesh2D::square(2)?, NocParams::typical(), 7)?,
//!     0.95,
//!     3.0,
//! )?;
//! let mut session = DeploymentSession::builder(problem)
//!     .solver(SolverOptions::default().time_limit(20.0))
//!     .build();
//! let before = session.solve()?; // full solve, state captured
//!
//! // Core 2 faults: fix its column, re-solve warm within a 5 s budget.
//! session.apply(&ScenarioEvent::CoreFault { processor: ProcessorId(2) })?;
//! let after = session.resolve(5.0)?;
//! # let _ = (before, after);
//! # Ok(())
//! # }
//! ```

use crate::error::{DeployError, Result};
use crate::formulation::{DeployObjective, MilpEncoding, PathMode};
use crate::heuristic::heuristic_deployment;
use crate::optimal::{best_warm_candidate, OptimalConfig, OptimalOutcome};
use crate::problem::ProblemInstance;
use crate::schedule::list_schedule;
use crate::solution::Deployment;
use ndp_milp::{Model, ResolveSession, SolverOptions};
use ndp_platform::{LevelId, ProcessorId};
use ndp_taskset::{Task, TaskId};
use std::collections::BTreeSet;

/// A mid-mission change the session can absorb.
#[derive(Debug, Clone)]
pub enum ScenarioEvent {
    /// Processor `processor` has failed: no task (original or duplicate)
    /// may be allocated to it from now on.
    CoreFault {
        /// The failed processor.
        processor: ProcessorId,
    },
    /// The relative deadline of an original task changed (its duplicate
    /// inherits the new deadline).
    DeadlineChange {
        /// The original task whose deadline changed.
        task: TaskId,
        /// New relative deadline in milliseconds.
        deadline_ms: f64,
    },
    /// An aperiodic task arrives, depending on data from existing original
    /// tasks. The problem is re-expanded (the arrival gets a duplicate and
    /// full routing/scheduling structure like every other task).
    TaskArrival {
        /// The arriving task.
        task: Task,
        /// `(existing original task, data size)` edges into the arrival.
        predecessors: Vec<(TaskId, f64)>,
    },
}

/// How [`DeploymentSession::apply`] absorbed an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventDisposition {
    /// Patched into the carried solver state; the next solve re-enters
    /// warm on the previous form and cut rows (and basis, when the search
    /// was serial).
    Incremental,
    /// Carried solver state was dropped (relaxation, or no state yet); the
    /// next solve rebuilds cold but still seeds from the last deployment.
    ColdRestart,
    /// The model was rebuilt from the mutated problem (task arrival).
    Rebuilt,
}

/// Consuming builder for a [`DeploymentSession`], mirroring the
/// [`SolverOptions`] builder style.
#[derive(Debug, Clone)]
pub struct DeploymentSessionBuilder {
    problem: ProblemInstance,
    path_mode: PathMode,
    objective: DeployObjective,
    warm_start_with_heuristic: bool,
    warm_start_deployment: Option<Deployment>,
    solver: SolverOptions,
    horizon_alpha: Option<f64>,
}

impl DeploymentSessionBuilder {
    /// Routing flexibility (default: [`PathMode::Multi`]).
    pub fn path_mode(mut self, mode: PathMode) -> Self {
        self.path_mode = mode;
        self
    }

    /// BE or ME objective (default: BE).
    pub fn objective(mut self, objective: DeployObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Seed branch and bound with the 3-phase heuristic when it is
    /// feasible (default: true).
    pub fn warm_start_with_heuristic(mut self, yes: bool) -> Self {
        self.warm_start_with_heuristic = yes;
        self
    }

    /// An additional caller-provided warm start; the better of this and
    /// the heuristic seed is used.
    pub fn warm_start_deployment(mut self, d: Option<Deployment>) -> Self {
        self.warm_start_deployment = d;
        self
    }

    /// Options forwarded to the MILP solver (default:
    /// [`SolverOptions::default()`], reliability branching). Presolve is
    /// forced off inside the session (carried solver state must stay
    /// aligned with the model's own columns).
    pub fn solver(mut self, solver: SolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Recompute the horizon `H` with this `alpha` (the paper's
    /// critical-path formula) when a task arrival rebuilds the problem.
    /// Without it the current horizon is kept.
    pub fn horizon_alpha(mut self, alpha: f64) -> Self {
        self.horizon_alpha = Some(alpha);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> DeploymentSession {
        DeploymentSession {
            problem: self.problem,
            path_mode: self.path_mode,
            objective: self.objective,
            warm_start_with_heuristic: self.warm_start_with_heuristic,
            pending_warm: self.warm_start_deployment,
            solver: self.solver,
            horizon_alpha: self.horizon_alpha,
            faulted: BTreeSet::new(),
            encoding: None,
            milp: None,
            last: None,
        }
    }
}

/// A stateful deployment session: the unified entry point for solving the
/// deployment problem and re-solving it after [`ScenarioEvent`]s.
///
/// See the [module docs](self) for the event semantics and an example.
pub struct DeploymentSession {
    problem: ProblemInstance,
    path_mode: PathMode,
    objective: DeployObjective,
    warm_start_with_heuristic: bool,
    /// Caller-provided warm start, consumed by the first model build.
    pending_warm: Option<Deployment>,
    solver: SolverOptions,
    horizon_alpha: Option<f64>,
    /// Processors fixed out by fault events; re-applied on every rebuild.
    faulted: BTreeSet<usize>,
    /// Variable/row registry of the current model (model detached into
    /// `milp`).
    encoding: Option<MilpEncoding>,
    /// The incremental MILP session owning the model and carried state.
    milp: Option<ResolveSession>,
    /// Deployment extracted from the most recent solve.
    last: Option<Deployment>,
}

impl DeploymentSession {
    /// Starts a builder with the defaults of [`OptimalConfig`].
    pub fn builder(problem: ProblemInstance) -> DeploymentSessionBuilder {
        let defaults = OptimalConfig::default();
        DeploymentSessionBuilder {
            problem,
            path_mode: defaults.path_mode,
            objective: defaults.objective,
            warm_start_with_heuristic: defaults.warm_start_with_heuristic,
            warm_start_deployment: None,
            solver: defaults.solver,
            horizon_alpha: None,
        }
    }

    /// A session with all defaults (multi-path, BE, heuristic seeding).
    pub fn new(problem: ProblemInstance) -> Self {
        Self::builder(problem).build()
    }

    /// The session's (possibly mutated) problem.
    pub fn problem(&self) -> &ProblemInstance {
        &self.problem
    }

    /// Processors removed by [`ScenarioEvent::CoreFault`] so far.
    pub fn faulted_processors(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        self.faulted.iter().map(|&k| ProcessorId(k))
    }

    /// The deployment extracted from the most recent solve.
    pub fn last_deployment(&self) -> Option<&Deployment> {
        self.last.as_ref()
    }

    /// `true` when the next solve re-enters warm on carried solver state.
    pub fn is_warm(&self) -> bool {
        self.milp.as_ref().is_some_and(|m| m.is_warm())
    }

    /// The solver options used by the next solve.
    pub fn solver(&self) -> &SolverOptions {
        &self.solver
    }

    /// Mutable access to the solver options (e.g. to attach a per-solve
    /// cancel token or observer). The options are re-synced into the
    /// internal MILP session before every solve; presolve stays forced
    /// off. Changing an answer tolerance here changes
    /// [`fingerprint`](DeploymentSession::fingerprint) accordingly.
    pub fn solver_mut(&mut self) -> &mut SolverOptions {
        &mut self.solver
    }

    /// Runs the paper's 3-phase decomposition heuristic on the current
    /// problem (Algorithms 1–3), emitting phase markers into the solver
    /// options' observer.
    ///
    /// The heuristic is stateless and fault-oblivious: after a
    /// [`ScenarioEvent::CoreFault`] its deployment may use the faulted
    /// core, in which case the exact path simply rejects it as a seed.
    ///
    /// # Errors
    ///
    /// [`DeployError::HeuristicInfeasible`] when a phase cannot satisfy
    /// its constraints.
    pub fn heuristic(&self) -> Result<Deployment> {
        heuristic_deployment(&self.problem, &self.solver.observer)
    }

    /// The MILP encoding of the current problem (building it on first
    /// use). The encoding's `model` field is detached — the model lives in
    /// the internal [`ResolveSession`] — but every registry accessor
    /// ([`MilpEncoding::x_var`], [`MilpEncoding::deadline_row`],
    /// [`MilpEncoding::warm_start_values`], …) works.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn encoding(&mut self) -> Result<&MilpEncoding> {
        self.ensure_model()?;
        Ok(self.encoding.as_ref().expect("ensure_model built the encoding"))
    }

    /// The live MILP model of the current problem (building it on first
    /// use) — the model side of the registry returned by
    /// [`encoding`](DeploymentSession::encoding), e.g. for feasibility
    /// probes of [`MilpEncoding::warm_start_values`] points.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn model(&mut self) -> Result<&ndp_milp::Model> {
        self.ensure_model()?;
        Ok(self.milp.as_ref().expect("ensure_model built the session").model())
    }

    /// Canonical cache key of the session's *current* model under the
    /// configured answer tolerances (building the model on first use).
    ///
    /// Unlike [`instance_fingerprint`](crate::instance_fingerprint), this
    /// hashes the live model — including every row, bound and rhs edited
    /// by scenario events — so a cache keyed on it can never replay a
    /// pre-event outcome.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn fingerprint(&mut self) -> Result<u64> {
        self.ensure_model()?;
        let milp = self.milp.as_ref().expect("ensure_model built the session");
        Ok(crate::fingerprint::model_fingerprint(milp.model(), &self.solver))
    }

    /// Absorbs a scenario event, mutating the problem and (when possible)
    /// patching the carried solver state instead of discarding it.
    ///
    /// # Errors
    ///
    /// [`DeployError::InvalidParameter`] for out-of-range processors,
    /// tasks or non-positive deadlines; graph errors for a task arrival
    /// that references unknown predecessors. On error the carried solver
    /// state is dropped (never left half-patched).
    pub fn apply(&mut self, event: &ScenarioEvent) -> Result<EventDisposition> {
        match event {
            ScenarioEvent::CoreFault { processor } => self.apply_fault(*processor),
            ScenarioEvent::DeadlineChange { task, deadline_ms } => {
                self.apply_deadline(*task, *deadline_ms)
            }
            ScenarioEvent::TaskArrival { task, predecessors } => {
                self.apply_arrival(task.clone(), predecessors)
            }
        }
    }

    /// Solves the current model with the configured options, capturing
    /// solver state for the next re-solve.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; infeasibility is reported through
    /// [`OptimalOutcome::status`].
    pub fn solve(&mut self) -> Result<OptimalOutcome> {
        self.solve_inner(None)
    }

    /// [`solve`](DeploymentSession::solve) under a wall-clock budget in
    /// seconds — the online re-deployment entry point: absorb an event
    /// with [`apply`](DeploymentSession::apply), then `resolve(budget)`
    /// before the mission deadline. The budget persists as the session's
    /// time limit until changed.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](DeploymentSession::solve).
    pub fn resolve(&mut self, budget_seconds: f64) -> Result<OptimalOutcome> {
        self.solve_inner(Some(budget_seconds))
    }

    fn apply_fault(&mut self, processor: ProcessorId) -> Result<EventDisposition> {
        let k = processor.index();
        let n = self.problem.num_processors();
        if k >= n {
            return Err(DeployError::InvalidParameter { name: "processor", value: k as f64 });
        }
        if n - self.faulted.len() <= 1 && !self.faulted.contains(&k) {
            // Refuse to fault the last working core: the model would be
            // trivially infeasible and the mistake is usually an id typo.
            return Err(DeployError::InvalidParameter {
                name: "last_working_processor",
                value: k as f64,
            });
        }
        self.faulted.insert(k);
        let (Some(milp), Some(enc)) = (self.milp.as_mut(), self.encoding.as_ref()) else {
            return Ok(EventDisposition::ColdRestart);
        };
        let mut delta = milp.model().delta();
        for i in 0..enc.num_tasks() {
            delta.fix(enc.x_var(i, k), 0.0);
        }
        match milp.apply(&delta) {
            Ok(out) => {
                debug_assert!(out.restriction, "fixing binaries to 0 is a restriction");
                // The carried incumbent dies with the core when it used it;
                // a repaired copy (displaced tasks re-homed, schedule
                // rebuilt) is usually a much stronger seed than the
                // fault-oblivious heuristic. Validated before use.
                if self.pending_warm.is_none() {
                    self.pending_warm = match &self.last {
                        Some(d) => self.repair_after_fault(d),
                        None => None,
                    };
                }
                Ok(EventDisposition::Incremental)
            }
            Err(e) => Err(DeployError::Solver(e)),
        }
    }

    /// Re-homes every task the last deployment ran on a now-faulted core:
    /// greedily, task by task, onto the working core that keeps the
    /// objective smallest (energy does not depend on start times, so the
    /// score is exact), then rebuilds the whole schedule by list
    /// scheduling. Returns `None` when nothing was displaced (the carried
    /// deployment is still a seed candidate as-is) or no core works. The
    /// result is a warm-start *candidate* — callers must still validate it.
    fn repair_after_fault(&self, old: &Deployment) -> Option<Deployment> {
        let problem = &self.problem;
        if old.active.len() != problem.tasks.graph().num_tasks() {
            return None;
        }
        let displaced: Vec<usize> = (0..old.active.len())
            .filter(|&i| old.active[i] && self.faulted.contains(&old.processor[i].index()))
            .collect();
        if displaced.is_empty() {
            return None;
        }
        let working: Vec<ProcessorId> = (0..problem.num_processors())
            .map(ProcessorId)
            .filter(|p| !self.faulted.contains(&p.index()))
            .collect();
        if working.is_empty() {
            return None;
        }
        let score = |d: &Deployment| match self.objective {
            DeployObjective::BalanceEnergy => d.energy_report(problem).max_mj(),
            DeployObjective::MinimizeTotalEnergy => d.energy_report(problem).total_mj(),
        };
        let mut d = old.clone();
        for &i in &displaced {
            let mut best: Option<(f64, ProcessorId)> = None;
            for &k in &working {
                d.processor[i] = k;
                let s = score(&d);
                if best.is_none_or(|(b, _)| s < b) {
                    best = Some((s, k));
                }
            }
            d.processor[i] = best?.1;
        }
        let placed = d.clone();
        let schedule = list_schedule(problem, &d.active, &d.frequency, &d.processor, |t| {
            placed.comm_time_ms(problem, t)
        });
        d.start_ms = schedule.start_ms;
        Some(d)
    }

    fn apply_deadline(&mut self, task: TaskId, deadline_ms: f64) -> Result<EventDisposition> {
        let m = self.problem.num_original();
        if task.index() >= m {
            return Err(DeployError::InvalidParameter { name: "task", value: task.index() as f64 });
        }
        if !(deadline_ms.is_finite() && deadline_ms > 0.0) {
            return Err(DeployError::InvalidParameter { name: "deadline_ms", value: deadline_ms });
        }
        self.problem.tasks.set_deadline(task, deadline_ms);
        let (Some(milp), Some(enc)) = (self.milp.as_mut(), self.encoding.as_ref()) else {
            return Ok(EventDisposition::ColdRestart);
        };
        let mut delta = milp.model().delta();
        delta.set_rhs(enc.deadline_row(task.index()), deadline_ms);
        delta.set_rhs(enc.deadline_row(task.index() + m), deadline_ms);
        match milp.apply(&delta) {
            // A tightened deadline keeps the carry; a relaxed one dropped
            // it inside `apply` (previous cuts may cut off newly feasible
            // points).
            Ok(out) if out.restriction => Ok(EventDisposition::Incremental),
            Ok(_) => Ok(EventDisposition::ColdRestart),
            Err(e) => Err(DeployError::Solver(e)),
        }
    }

    fn apply_arrival(
        &mut self,
        task: Task,
        predecessors: &[(TaskId, f64)],
    ) -> Result<EventDisposition> {
        let m = self.problem.num_original();
        for &(p, _) in predecessors {
            if p.index() >= m {
                return Err(DeployError::InvalidParameter {
                    name: "predecessor",
                    value: p.index() as f64,
                });
            }
        }
        // Re-expand from the mutated original graph: the arrival gets a
        // duplicate and the full routing/scheduling structure.
        let mut original = self.problem.tasks.to_original();
        let new_id = original.add_task(task);
        for &(p, d) in predecessors {
            original
                .add_edge(p, new_id, d)
                .map_err(|_| DeployError::InvalidParameter { name: "edge", value: d })?;
        }
        let old_horizon = self.problem.horizon_ms;
        let rebuilt = ProblemInstance::from_original(
            &original,
            self.problem.platform.clone(),
            self.problem.noc.clone(),
            self.problem.reliability_threshold,
            self.horizon_alpha.unwrap_or(1.0),
        )?
        .with_comm_time_model(self.problem.comm_time_model);
        // Keep the configured horizon policy: recompute via alpha when one
        // was given (never shrinking below the standing horizon — tasks
        // already admitted must stay schedulable), else keep the old H.
        let horizon = if self.horizon_alpha.is_some() {
            rebuilt.horizon_ms.max(old_horizon)
        } else {
            old_horizon
        };
        let prev = self.last.take();
        self.problem = rebuilt.with_horizon(horizon);
        // A new task reshapes the whole model: drop encoding + solver
        // state. The previous deployment no longer matches the task count,
        // but lifted into the new index space (with the arrival appended
        // greedily) it is usually a strong warm start; `ensure_model`
        // validates it and simply drops it when the greedy placement
        // breaks a constraint.
        self.encoding = None;
        self.milp = None;
        if self.pending_warm.is_none() {
            self.pending_warm = prev.and_then(|d| self.lift_after_arrival(&d));
        }
        Ok(EventDisposition::Rebuilt)
    }

    /// Lifts a pre-arrival deployment (`m` originals) into the rebuilt
    /// `m + 1`-original index space: originals keep their indices, the old
    /// duplicate `m + i` moves to `m + 1 + i`, and the arrival (plus its
    /// duplicate when the reliability threshold demands one) is appended
    /// at the tail of its first predecessor's processor schedule. The
    /// result is a warm-start *candidate* — callers must still validate it.
    fn lift_after_arrival(&self, old: &Deployment) -> Option<Deployment> {
        let problem = &self.problem;
        let m_new = problem.num_original();
        let m_old = m_new.checked_sub(1)?;
        if old.active.len() != 2 * m_old {
            return None;
        }
        let total = 2 * m_new;
        let map = |i: usize| if i < m_old { i } else { i + 1 };
        let mut d = Deployment {
            active: vec![false; total],
            frequency: vec![LevelId(0); total],
            processor: vec![ProcessorId(0); total],
            start_ms: vec![0.0; total],
            paths: old.paths.clone(),
        };
        for i in 0..2 * m_old {
            let j = map(i);
            d.active[j] = old.active[i];
            d.frequency[j] = old.frequency[i];
            d.processor[j] = old.processor[i];
            d.start_ms[j] = old.start_ms[i];
        }
        let arrival = TaskId(m_old);
        let dup = problem.tasks.copy_of(arrival);
        // Existing tasks keep their (often proven-optimal) placement and
        // levels, so the seed quality hinges on where the arrival lands:
        // try every working processor × level (the duplicate — constraint
        // (4) is an iff — follows from the level's reliability, on the
        // same core), rebuild the schedule by list scheduling (energy does
        // not depend on start times), and let `best_warm_candidate`
        // validate and score the combinations.
        let mut cands = Vec::new();
        for k in (0..problem.num_processors()).map(ProcessorId) {
            if self.faulted.contains(&k.index()) {
                continue;
            }
            for l in (0..problem.num_levels()).map(LevelId) {
                let mut c = d.clone();
                c.active[arrival.index()] = true;
                c.processor[arrival.index()] = k;
                c.frequency[arrival.index()] = l;
                let dup_active = problem.reliability(arrival, l) < problem.reliability_threshold;
                c.active[dup.index()] = dup_active;
                c.processor[dup.index()] = k;
                c.frequency[dup.index()] = l;
                let placed = c.clone();
                let schedule = list_schedule(problem, &c.active, &c.frequency, &c.processor, |t| {
                    placed.comm_time_ms(problem, t)
                });
                c.start_ms = schedule.start_ms;
                cands.push(c);
            }
        }
        best_warm_candidate(problem, self.objective, cands)
    }

    /// Builds the encoding and the incremental MILP session on first use
    /// (or after a rebuild), seeding the warm start and re-applying
    /// standing core faults.
    fn ensure_model(&mut self) -> Result<()> {
        if self.milp.is_some() {
            return Ok(());
        }
        let mut enc = MilpEncoding::build(&self.problem, self.path_mode, self.objective)?;
        let mut candidates: Vec<Deployment> = Vec::new();
        if self.warm_start_with_heuristic {
            if let Ok(h) = self.heuristic() {
                candidates.push(h);
            }
        }
        if let Some(d) = self.pending_warm.take() {
            candidates.push(d);
        }
        if let Some(d) = &self.last {
            candidates.push(d.clone());
        }
        if let Some(d) = best_warm_candidate(&self.problem, self.objective, candidates) {
            let vals = enc.warm_start_values(&self.problem, &d);
            enc.model.set_warm_start(vals).map_err(DeployError::Solver)?;
        }
        let mut model = std::mem::replace(&mut enc.model, Model::new("detached"));
        for &k in &self.faulted {
            for i in 0..enc.num_tasks() {
                model.set_bounds(enc.x_var(i, k), 0.0, 0.0).map_err(DeployError::Solver)?;
            }
        }
        self.milp = Some(ResolveSession::new(model, self.solver.clone()));
        self.encoding = Some(enc);
        Ok(())
    }

    /// Re-seeds the model's warm start before a re-solve on an existing
    /// model. Scenario events can invalidate the carried incumbent (it
    /// used a now-faulted core, or misses a tightened deadline), and a
    /// fresh heuristic on the *mutated* problem is usually a strong
    /// feasible start — without this, the from-scratch rebuild would enter
    /// the search better seeded than the incremental re-solve. Candidates
    /// that land on a faulted processor or fail validation are filtered
    /// out; when none survive, the model's existing warm start is left in
    /// place (the solver revalidates it against the current bounds
    /// anyway).
    fn refresh_warm_start(&mut self) -> Result<()> {
        let mut candidates: Vec<Deployment> = Vec::new();
        if self.warm_start_with_heuristic {
            if let Ok(h) = self.heuristic() {
                candidates.push(h);
            }
        }
        if let Some(d) = self.pending_warm.take() {
            candidates.push(d);
        }
        if let Some(d) = &self.last {
            candidates.push(d.clone());
        }
        candidates.retain(|d| {
            !d.processor
                .iter()
                .enumerate()
                .any(|(i, p)| d.active[i] && self.faulted.contains(&p.index()))
        });
        if let Some(d) = best_warm_candidate(&self.problem, self.objective, candidates) {
            let enc = self.encoding.as_ref().expect("model built before refresh");
            let vals = enc.warm_start_values(&self.problem, &d);
            let milp = self.milp.as_mut().expect("model built before refresh");
            milp.set_warm_start(vals).map_err(DeployError::Solver)?;
        }
        Ok(())
    }

    fn solve_inner(&mut self, budget_seconds: Option<f64>) -> Result<OptimalOutcome> {
        let had_model = self.milp.is_some();
        self.ensure_model()?;
        if had_model {
            // A freshly built model was already seeded by `ensure_model`.
            self.refresh_warm_start()?;
        }
        if let Some(budget) = budget_seconds {
            self.solver.time_limit = budget;
        }
        let milp = self.milp.as_mut().expect("ensure_model built the session");
        // `self.solver` is the single source of truth: re-sync so edits via
        // `solver_mut` (and the `resolve` budget) reach the MILP session.
        *milp.options_mut() = self.solver.clone();
        let sol = milp.solve().map_err(DeployError::Solver)?;
        let enc = self.encoding.as_ref().expect("ensure_model built the encoding");
        let deployment =
            if sol.has_incumbent() { Some(enc.extract(&self.problem, &sol)) } else { None };
        if let Some(d) = &deployment {
            self.last = Some(d.clone());
        }
        let objective_mj = deployment.as_ref().map(|_| sol.objective_value());
        Ok(OptimalOutcome {
            deployment,
            status: sol.status(),
            objective_mj,
            best_bound_mj: sol.best_bound(),
            nodes: sol.node_count(),
            nodes_per_thread: sol.nodes_per_thread().to_vec(),
            solve_seconds: sol.solve_seconds(),
            stats: *sol.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use ndp_milp::{ObserverHandle, SolveStatus, SolverEvent};
    use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{generate, GeneratorConfig, GraphShape};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn small_instance(m: usize, seed: u64) -> ProblemInstance {
        let mut cfg = GeneratorConfig::typical(m);
        cfg.shape = GraphShape::Chain;
        let g = generate(&cfg, seed).unwrap();
        ProblemInstance::from_original(
            &g,
            Platform::homogeneous(4).unwrap(),
            WeightedNoc::new(Mesh2D::square(2).unwrap(), NocParams::typical(), seed).unwrap(),
            0.95,
            3.0,
        )
        .unwrap()
    }

    fn quick() -> SolverOptions {
        SolverOptions::default().time_limit(20.0).threads(1)
    }

    #[test]
    fn session_solve_matches_one_shot_config() {
        let p = small_instance(3, 1);
        let mut s = DeploymentSession::builder(p.clone()).solver(quick()).build();
        let out = s.solve().unwrap();
        assert!(out.is_feasible(), "status {:?}", out.status);
        let d = out.deployment.as_ref().unwrap();
        assert!(validate(&p, d).is_empty());
        assert!(s.is_warm(), "first solve must arm the carry");
    }

    /// Root cuts are opt-in: a default session solve runs no separation
    /// round and installs no cut, while the same solve with
    /// [`SolverOptions::cuts`] on does both, so the check is not vacuous.
    #[test]
    fn default_session_solve_separates_no_cuts() {
        let p = small_instance(3, 1);
        let solve = |cuts: bool| {
            let rounds = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&rounds);
            let mut s = DeploymentSession::new(p.clone());
            s.solver_mut().cuts |= cuts;
            s.solver_mut().observer = ObserverHandle::new(Arc::new(move |e: &SolverEvent| {
                if matches!(e, SolverEvent::CutRound { .. }) {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            }));
            let out = s.solve().unwrap();
            assert_eq!(out.status, SolveStatus::Optimal);
            (rounds.load(Ordering::Relaxed), out.stats.cuts_applied)
        };
        assert_eq!(solve(false), (0, 0), "default solve: (cut rounds, cuts applied)");
        let (rounds, applied) = solve(true);
        assert!(rounds > 0 && applied > 0, "cuts on: {rounds} round(s), {applied} cut(s)");
    }

    #[test]
    fn core_fault_is_respected_after_warm_resolve() {
        let p = small_instance(3, 2);
        let mut s = DeploymentSession::builder(p).solver(quick()).build();
        let before = s.solve().unwrap();
        assert!(before.is_feasible());

        let disp = s.apply(&ScenarioEvent::CoreFault { processor: ProcessorId(0) }).unwrap();
        assert_eq!(disp, EventDisposition::Incremental);
        let after = s.resolve(20.0).unwrap();
        assert!(after.is_feasible(), "status {:?}", after.status);
        let d = after.deployment.unwrap();
        for (i, &proc) in d.processor.iter().enumerate() {
            if d.active[i] {
                assert_ne!(proc.index(), 0, "task {i} placed on the faulted core");
            }
        }
        assert!(validate(s.problem(), &d).is_empty());
    }

    #[test]
    fn deadline_tightening_is_incremental_and_respected() {
        let p = small_instance(3, 3);
        let mut s = DeploymentSession::builder(p).solver(quick()).build();
        let before = s.solve().unwrap();
        assert!(before.is_feasible());
        let d0 = before.deployment.unwrap();
        // Tighten task 0's deadline to just above its current execution
        // time; the event must stay incremental and the solution valid.
        let t0 = TaskId(0);
        let exec = d0.end_ms(s.problem(), t0) - d0.start_ms[0];
        let new_deadline = (exec * 1.05).max(1e-3);
        let disp = s.apply(&ScenarioEvent::DeadlineChange { task: t0, deadline_ms: new_deadline });
        let disp = disp.unwrap();
        assert_eq!(disp, EventDisposition::Incremental, "tightening keeps the carry");
        let after = s.resolve(20.0).unwrap();
        if let Some(d) = after.deployment {
            assert!(validate(s.problem(), &d).is_empty());
        }
        // Relaxing it back is a cold restart but must still solve.
        let disp = s.apply(&ScenarioEvent::DeadlineChange { task: t0, deadline_ms: 1e6 }).unwrap();
        assert_eq!(disp, EventDisposition::ColdRestart);
        let relaxed = s.resolve(20.0).unwrap();
        assert!(relaxed.is_feasible());
    }

    #[test]
    fn task_arrival_rebuilds_and_solves() {
        let p = small_instance(3, 4);
        let tasks_before = p.num_tasks();
        let mut s = DeploymentSession::builder(p).solver(quick()).build();
        s.solve().unwrap();
        let wcec = s.problem().tasks.graph().task(TaskId(0)).wcec;
        let disp = s
            .apply(&ScenarioEvent::TaskArrival {
                task: Task::new("arrival", wcec, 1e5),
                predecessors: vec![(TaskId(0), 1.0)],
            })
            .unwrap();
        assert_eq!(disp, EventDisposition::Rebuilt);
        assert_eq!(s.problem().num_tasks(), tasks_before + 2, "arrival plus its duplicate");
        let out = s.resolve(20.0).unwrap();
        assert!(out.is_feasible(), "status {:?}", out.status);
        let d = out.deployment.unwrap();
        assert!(validate(s.problem(), &d).is_empty());
    }

    #[test]
    fn faulting_every_core_is_rejected() {
        let p = small_instance(3, 5);
        let mut s = DeploymentSession::builder(p).solver(quick()).build();
        for k in 0..3 {
            s.apply(&ScenarioEvent::CoreFault { processor: ProcessorId(k) }).unwrap();
        }
        let err = s.apply(&ScenarioEvent::CoreFault { processor: ProcessorId(3) });
        assert!(matches!(err, Err(DeployError::InvalidParameter { .. })));
    }

    #[test]
    fn infeasible_horizon_reports_infeasible() {
        let p = small_instance(3, 7).with_horizon(1e-4);
        let mut s =
            DeploymentSession::builder(p).warm_start_with_heuristic(false).solver(quick()).build();
        let out = s.solve().unwrap();
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(!out.is_feasible());
    }
}
