//! Batch solving of deployment-problem families.
//!
//! Experiment sweeps (the fig2 family, ablations, seed grids) solve many
//! closely related instances: the same task set under several configs, or
//! the same (instance, config) pair reached from different figures. A
//! [`BatchSession`] turns such a family into one scheduling unit:
//!
//! * **Shared artifacts** — the 3-phase heuristic is computed once per
//!   problem instance and shared by every member that seeds from it, and
//!   a [`SolveCache`] memoizes whole exact solves by a canonical
//!   fingerprint (model + answer tolerances + trajectory-relevant solver
//!   knobs + warm start), so identical members across figures replay the
//!   first result verbatim instead of re-running branch and bound.
//! * **Pool scheduling** — members run as revocable work-stealing tasks
//!   on the process-global MILP worker pool (via
//!   [`ndp_milp::run_batch`]), not as chunked scoped-thread barriers.
//!   Results come back in member order regardless of completion order.
//! * **Cross-member seeding** —
//!   [`link_incumbents`](BatchSession::link_incumbents) forwards one
//!   member's deployment to another as soon as it lands: as a warm-start
//!   candidate when the target has not started, through the target's
//!   [`IncumbentFeed`] when it is already solving (fig2a seeds the
//!   multi-path solve from the single-path optimum this way).
//!
//! Every member runs the same presolve-free [`DeploymentSession`]
//! pipeline as a serial one-at-a-time solve, so every member that is not
//! a link target solves bit-identically to the serial baseline; cached
//! replays return the first (serial-pipeline) result verbatim. A link
//! target's seeds can only change *how fast* a proven answer is found, never the
//! proven status or optimal objective. Members whose trajectory is not a
//! pure function of the request — a caller
//! [`CancelToken`](ndp_milp::CancelToken) (wall-clock dependent) or the
//! live incumbent feed of a link target (seed-arrival dependent) — bypass
//! the cache entirely, in both directions.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::error::Result;
use crate::formulation::MilpEncoding;
use crate::heuristic::heuristic_deployment;
use crate::optimal::{best_warm_candidate, OptimalConfig, OptimalOutcome};
use crate::problem::ProblemInstance;
use crate::session::DeploymentSession;
use crate::solution::Deployment;
use ndp_milp::fingerprint::Fnv64;
use ndp_milp::{run_batch, IncumbentFeed, SolverOptions};

/// Digest of the solver knobs that steer the search trajectory.
///
/// [`DeploymentSession::fingerprint`] deliberately excludes how-to-search
/// knobs so a solution *service* can share answers across budgets. The
/// batch cache must be stricter: a time-limited solve under a 6 s budget
/// is a different (deterministic) outcome than the same model under 60 s,
/// so every knob that can change the returned incumbent participates in
/// the member key. The destructuring names every field, so a field added
/// to or removed from [`SolverOptions`] fails to compile here until the
/// digest decides about it.
fn trajectory_digest(s: &SolverOptions) -> u64 {
    let SolverOptions {
        time_limit,
        node_limit,
        threads,
        warm_start,
        presolve,
        cuts,
        heuristics,
        propagation,
        branch_rule,
        node_order,
        basis_kernel,
        pricing,
        // `session.fingerprint()`, the other half of the member key, folds
        // the answer tolerances.
        integrality_tol: _,
        feasibility_tol: _,
        relative_gap: _,
        absolute_gap: _,
        // Not search knobs: the observer only watches, and `solve_exact`
        // keeps members with a cancel token or a live feed out of the cache.
        observer: _,
        cancel: _,
        incumbent_feed: _,
    } = s;
    let mut h = Fnv64::with_state(0x9e37_79b9_7f4a_7c15);
    h.write_f64(*time_limit);
    for v in [node_limit, threads] {
        h.write_u64(*v as u64);
    }
    for (i, b) in [warm_start, presolve, cuts, heuristics, propagation].into_iter().enumerate() {
        h.write_u64((i as u64) << 1 | u64::from(*b));
    }
    h.write_str(&format!("{branch_rule:?}"));
    h.write_str(&format!("{node_order:?}"));
    h.write_str(&format!("{basis_kernel:?}"));
    h.write_str(&format!("{pricing:?}"));
    h.finish()
}

/// Digest of the chosen warm-start deployment (the model fingerprint does
/// not cover MIP start values).
fn warm_digest(d: Option<&Deployment>) -> u64 {
    let mut h = Fnv64::with_state(0x517c_c1b7_2722_0a95);
    h.write_u64(u64::from(d.is_some()));
    let Some(d) = d else { return h.finish() };
    for (i, &a) in d.active.iter().enumerate() {
        h.write_u64((i as u64) << 1 | u64::from(a));
        h.write_u64(d.frequency[i].index() as u64);
        h.write_u64(d.processor[i].index() as u64);
        h.write_f64(d.start_ms[i]);
    }
    let n = d.paths.num_processors();
    for b in 0..n {
        for g in 0..n {
            use ndp_platform::ProcessorId;
            h.write_str(&format!("{:?}", d.paths.kind(ProcessorId(b), ProcessorId(g))));
        }
    }
    h.finish()
}

/// A shared, thread-safe memo of exact-solve outcomes under 64-bit keys
/// that each caller chooses.
///
/// [`BatchSession`] keys a member by its trajectory (model + answer
/// tolerances + trajectory knobs + warm start) and memoizes every member
/// whose search is a pure function of that key. The `ndp-serve` solve
/// server keys a request by its answer
/// ([`DeploymentSession::fingerprint`]) and stores proven (optimal or
/// infeasible) outcomes only, which hold for a later request whatever its
/// budget. One store and one pair of counters serve both.
///
/// Clone it to share one cache across several [`BatchSession`]s — e.g. a
/// whole-experiment sweep where different figures re-solve identical
/// (instance, config) members. Replayed outcomes are returned verbatim,
/// so a cache hit is bit-identical to the solve that populated it.
///
/// Duplicate batch members scheduled *concurrently* are deduplicated in
/// flight: the first claimant of a key runs the solve, later claimants
/// block until the result is published and replay it, so a batch of `k`
/// identical members always costs exactly one search regardless of how
/// the pool interleaves them. A claimant that fails releases the key and
/// wakes the waiters, the first of which takes over the solve. A caller
/// that must honour its own deadline or cancel instead uses
/// [`replay`](SolveCache::replay) and [`publish`](SolveCache::publish),
/// which never wait on another caller's solve.
#[derive(Clone, Default)]
pub struct SolveCache {
    inner: Arc<CacheSync>,
}

#[derive(Default)]
struct CacheSync {
    state: Mutex<CacheInner>,
    published: Condvar,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<u64, Slot>,
    hits: u64,
    misses: u64,
}

enum Slot {
    /// A claimant is solving this key right now.
    InFlight,
    Done(Box<OptimalOutcome>),
}

/// Outcome of [`SolveCache::claim`]: replay a published result or solve
/// on behalf of every concurrent duplicate.
enum Claim<'a> {
    Replay(Box<OptimalOutcome>),
    Solve(ClaimGuard<'a>),
}

/// Exclusive right (and obligation) to solve one key. Dropping the guard
/// without [`fulfill`](ClaimGuard::fulfill)ing it — the solve errored —
/// releases the key so a waiting duplicate can take over.
struct ClaimGuard<'a> {
    cache: &'a SolveCache,
    key: u64,
    fulfilled: bool,
}

impl ClaimGuard<'_> {
    fn fulfill(mut self, outcome: OptimalOutcome) {
        self.fulfilled = true;
        self.cache.publish(self.key, outcome);
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        let mut state = self.cache.inner.state.lock().expect("solve cache poisoned");
        if matches!(state.map.get(&self.key), Some(Slot::InFlight)) {
            state.map.remove(&self.key);
        }
        drop(state);
        self.cache.inner.published.notify_all();
    }
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized outcomes (in-flight claims excluded).
    pub fn len(&self) -> usize {
        let state = self.inner.state.lock().expect("solve cache poisoned");
        state.map.values().filter(|s| matches!(s, Slot::Done(_))).count()
    }

    /// Whether the cache holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache so far (including duplicates that
    /// waited for an in-flight solve).
    pub fn hits(&self) -> u64 {
        self.inner.state.lock().expect("solve cache poisoned").hits
    }

    /// Lookups that found no published outcome so far: claims that ran a
    /// real solve, and replays that missed.
    pub fn misses(&self) -> u64 {
        self.inner.state.lock().expect("solve cache poisoned").misses
    }

    /// Returns the outcome published under `key`, counting a hit, or
    /// counts a miss. It never waits: a key another caller is still
    /// solving is a miss.
    pub fn replay(&self, key: u64) -> Option<OptimalOutcome> {
        let mut state = self.inner.state.lock().expect("solve cache poisoned");
        if let Some(Slot::Done(outcome)) = state.map.get(&key) {
            let outcome = (**outcome).clone();
            state.hits += 1;
            Some(outcome)
        } else {
            state.misses += 1;
            None
        }
    }

    /// Publishes `outcome` under `key`, replacing any earlier one, and
    /// wakes the claimants waiting for it.
    pub fn publish(&self, key: u64, outcome: OptimalOutcome) {
        let mut state = self.inner.state.lock().expect("solve cache poisoned");
        state.map.insert(key, Slot::Done(Box::new(outcome)));
        drop(state);
        self.inner.published.notify_all();
    }

    /// Replays `key` if published, waits if a duplicate is solving it,
    /// or claims it for the caller. Blocking here is deadlock-free: the
    /// claimant is always an actively running job that publishes or
    /// releases the key when it finishes, never one parked behind the
    /// waiter in the pool queue.
    fn claim(&self, key: u64) -> Claim<'_> {
        let mut state = self.inner.state.lock().expect("solve cache poisoned");
        loop {
            match state.map.get(&key) {
                Some(Slot::Done(outcome)) => {
                    let outcome = outcome.clone();
                    state.hits += 1;
                    return Claim::Replay(outcome);
                }
                Some(Slot::InFlight) => {
                    state = self.inner.published.wait(state).expect("solve cache poisoned");
                }
                None => {
                    state.map.insert(key, Slot::InFlight);
                    state.misses += 1;
                    return Claim::Solve(ClaimGuard { cache: self, key, fulfilled: false });
                }
            }
        }
    }
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock().expect("solve cache poisoned");
        f.debug_struct("SolveCache")
            .field("len", &state.map.values().filter(|s| matches!(s, Slot::Done(_))).count())
            .field("hits", &state.hits)
            .field("misses", &state.misses)
            .finish()
    }
}

/// One member's result from [`BatchSession::solve_all`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The exact-solve outcome, on the same pipeline a serial
    /// [`DeploymentSession::solve`] would have used.
    pub outcome: OptimalOutcome,
    /// Whether the outcome was replayed from the [`SolveCache`] instead
    /// of solved.
    pub from_cache: bool,
    /// Whether a heuristic or linked-member point was available as the
    /// member's starting incumbent when it entered the search.
    pub seeded: bool,
}

#[derive(Clone)]
struct Member {
    problem: Arc<ProblemInstance>,
    config: OptimalConfig,
}

/// Per-member cross-member seeding state.
#[derive(Default)]
struct SeedState {
    /// The member has begun assembling its solve.
    started: bool,
    /// Deployment-space seeds from linked members that arrived before the
    /// member started.
    seeds: Vec<Deployment>,
    /// Mid-solve injection channel, attached to the solver options of a
    /// link target.
    feed: Option<IncumbentFeed>,
}

struct SharedState {
    members: Vec<Member>,
    /// `links[from]` lists the members seeded by `from`'s deployment.
    links: Vec<Vec<usize>>,
    cache: SolveCache,
    /// Heuristic deployments keyed by problem-instance identity
    /// (`Arc::as_ptr`): members added with the same `Arc` share one
    /// heuristic run. The heuristic is deterministic, so sharing never
    /// changes what a member would have computed for itself.
    heuristics: Mutex<HashMap<usize, Option<Deployment>>>,
    seed_state: Vec<Mutex<SeedState>>,
}

/// A family of deployment solves scheduled together on the global worker
/// pool, with shared heuristic/solve artifacts and cross-member seeding.
/// See the [module docs](self).
pub struct BatchSession {
    members: Vec<Member>,
    links: Vec<(usize, usize)>,
    cache: SolveCache,
}

impl BatchSession {
    /// An empty batch with a fresh private [`SolveCache`].
    pub fn new() -> Self {
        Self::with_cache(SolveCache::new())
    }

    /// An empty batch memoizing into (and replaying from) `cache`.
    pub fn with_cache(cache: SolveCache) -> Self {
        BatchSession { members: Vec::new(), links: Vec::new(), cache }
    }

    /// Adds one `(problem, config)` member; returns its index (the
    /// position of its result in [`solve_all`](BatchSession::solve_all)).
    pub fn add(&mut self, problem: Arc<ProblemInstance>, config: OptimalConfig) -> usize {
        self.members.push(Member { problem, config });
        self.members.len() - 1
    }

    /// Adds one instance under many configs (a per-instance config
    /// sweep); returns the member indices in config order.
    pub fn add_configs<I>(&mut self, problem: Arc<ProblemInstance>, configs: I) -> Vec<usize>
    where
        I: IntoIterator<Item = OptimalConfig>,
    {
        configs.into_iter().map(|c| self.add(Arc::clone(&problem), c)).collect()
    }

    /// Forwards member `from`'s deployment to member `to` as soon as it
    /// lands: installed as a warm-start candidate when `to` has not
    /// started, published into `to`'s incumbent feed when it is already
    /// solving.
    ///
    /// # Panics
    ///
    /// When either index is out of range or `from == to`.
    pub fn link_incumbents(&mut self, from: usize, to: usize) {
        assert!(from < self.members.len(), "link source {from} out of range");
        assert!(to < self.members.len(), "link target {to} out of range");
        assert_ne!(from, to, "a member cannot seed itself");
        self.links.push((from, to));
    }

    /// Number of members added so far.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The cache this batch memoizes into.
    pub fn cache(&self) -> &SolveCache {
        &self.cache
    }

    /// Solves every member on the global worker pool and returns their
    /// results in member order (deterministic regardless of completion
    /// order). Individual member failures do not abort the batch.
    pub fn solve_all(&self) -> Vec<Result<BatchOutcome>> {
        let n = self.members.len();
        let mut links: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut linked_target = vec![false; n];
        for &(from, to) in &self.links {
            links[from].push(to);
            linked_target[to] = true;
        }
        let seed_state = (0..n)
            .map(|i| {
                let feed = linked_target[i].then(IncumbentFeed::new);
                Mutex::new(SeedState { feed, ..SeedState::default() })
            })
            .collect();
        let shared = Arc::new(SharedState {
            members: self.members.clone(),
            links,
            cache: self.cache.clone(),
            heuristics: Mutex::new(HashMap::new()),
            seed_state,
        });
        run_batch(n, move |i| solve_member(&shared, i))
    }
}

impl Default for BatchSession {
    fn default() -> Self {
        Self::new()
    }
}

/// The member's shared heuristic point (computing and memoizing it on
/// first use). Heuristic phase events go to the observer of whichever
/// member computes it first.
fn member_heuristic(shared: &SharedState, i: usize) -> Option<Deployment> {
    let member = &shared.members[i];
    let key = Arc::as_ptr(&member.problem) as usize;
    if let Some(h) = shared.heuristics.lock().expect("heuristic cache poisoned").get(&key) {
        return h.clone();
    }
    // Computed outside the lock: concurrent members may duplicate the
    // (deterministic, milliseconds-scale) run, but never block on it.
    let h = heuristic_deployment(&member.problem, &member.config.solver.observer).ok();
    shared
        .heuristics
        .lock()
        .expect("heuristic cache poisoned")
        .entry(key)
        .or_insert_with(|| h.clone());
    h
}

fn solve_member(shared: &SharedState, i: usize) -> Result<BatchOutcome> {
    let result = solve_exact(shared, i);
    // Forward this member's deployment to linked members the moment it
    // lands: as a pre-start warm candidate, or through the live feed.
    if let Ok(out) = &result {
        if let Some(d) = &out.outcome.deployment {
            for &to in &shared.links[i] {
                publish_seed(shared, to, d);
            }
        }
    }
    result
}

/// Hands `d` to member `to`: queued as a warm-start candidate when `to`
/// has not entered its solve, otherwise mapped through `to`'s encoding
/// and published into its incumbent feed.
fn publish_seed(shared: &SharedState, to: usize, d: &Deployment) {
    let feed = {
        let mut state = shared.seed_state[to].lock().expect("seed state poisoned");
        if !state.started {
            state.seeds.push(d.clone());
            return;
        }
        state.feed.clone()
    };
    let Some(feed) = feed else { return };
    let member = &shared.members[to];
    let Ok(enc) =
        MilpEncoding::build(&member.problem, member.config.path_mode, member.config.objective)
    else {
        return;
    };
    feed.publish(enc.warm_start_values(&member.problem, d));
}

/// One member's solve: assemble warm-start candidates, consult the memo
/// cache, and otherwise run the member through the same presolve-free
/// `DeploymentSession` pipeline a serial solve uses.
fn solve_exact(shared: &SharedState, i: usize) -> Result<BatchOutcome> {
    let member = &shared.members[i];
    let cfg = &member.config;

    // Candidate set mirrors the serial session: heuristic seed (shared),
    // caller-provided warm start, plus any linked-member seeds.
    let mut candidates: Vec<Deployment> = Vec::new();
    if cfg.warm_start_with_heuristic {
        candidates.extend(member_heuristic(shared, i));
    }
    candidates.extend(cfg.warm_start_deployment.clone());
    // Mark started and drain pre-start seeds under one lock so a
    // concurrent publisher either lands in `seeds` or sees `started`.
    let feed = {
        let mut state = shared.seed_state[i].lock().expect("seed state poisoned");
        state.started = true;
        candidates.append(&mut state.seeds);
        state.feed.clone()
    };
    let seeded = !candidates.is_empty();
    let chosen = best_warm_candidate(&member.problem, cfg.objective, candidates);

    let mut solver = cfg.solver.clone();
    let live_feed = feed.is_some();
    if let Some(f) = feed {
        solver = solver.incumbent_feed(f);
    }
    let mut session = DeploymentSession::builder((*member.problem).clone())
        .path_mode(cfg.path_mode)
        .objective(cfg.objective)
        .warm_start_with_heuristic(false)
        .warm_start_deployment(chosen.clone())
        .solver(solver)
        .build();

    // Cache participation requires a timing-independent trajectory: a
    // caller cancel token makes the outcome depend on wall-clock, and a
    // live incumbent feed makes it depend on *when* seeds arrive. Such
    // members neither replay from the cache (a cached no-feed result
    // would silently drop the seeding contract) nor populate it (a
    // feed-assisted incumbent may differ from the unassisted one within
    // the proof gap, which would break bit-identity for later no-feed
    // members).
    let guard = if cfg.solver.cancel.is_none() && !live_feed {
        let mut k = Fnv64::with_state(session.fingerprint()?);
        k.write_u64(trajectory_digest(&cfg.solver));
        k.write_u64(warm_digest(chosen.as_ref()));
        match shared.cache.claim(k.finish()) {
            Claim::Replay(hit) => {
                return Ok(BatchOutcome { outcome: *hit, from_cache: true, seeded })
            }
            Claim::Solve(guard) => Some(guard),
        }
    } else {
        None
    };

    // A `?` here drops an unfulfilled `guard`, releasing the key to any
    // waiting duplicate.
    let outcome = session.solve()?;
    if let Some(guard) = guard {
        guard.fulfill(outcome.clone());
    }
    Ok(BatchOutcome { outcome, from_cache: false, seeded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::{DeployObjective, PathMode};
    use crate::validate::validate;
    use ndp_milp::{CancelToken, SolverOptions};
    use ndp_noc::{Mesh2D, NocParams, PathKind, WeightedNoc};
    use ndp_platform::Platform;
    use ndp_taskset::{generate, GeneratorConfig, GraphShape};

    #[test]
    fn trajectory_digest_tracks_every_folded_knob() {
        use ndp_milp::{BasisKernel, BranchRule, NodeOrder, Pricing};
        let base = SolverOptions::default();
        assert_eq!(trajectory_digest(&base), trajectory_digest(&SolverOptions::default()));
        let b = || base.clone();
        let flips = [
            ("time_limit", b().time_limit(6.0)),
            ("node_limit", b().node_limit(10)),
            ("threads", b().threads(2)),
            ("warm_start", b().warm_start(false)),
            ("presolve", b().presolve(false)),
            ("cuts", b().cuts(true)),
            ("heuristics", b().heuristics(false)),
            ("propagation", b().propagation(false)),
            ("branch_rule", b().branch_rule(BranchRule::MostFractional)),
            ("node_order", b().node_order(NodeOrder::BestBound)),
            ("basis_kernel", b().basis_kernel(BasisKernel::Dense)),
            ("pricing", b().pricing(Pricing::Dantzig)),
        ];
        let mut seen = std::collections::HashSet::from([trajectory_digest(&base)]);
        for (knob, o) in &flips {
            assert!(seen.insert(trajectory_digest(o)), "flipping {knob} left the digest unchanged");
        }
    }

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

    fn quick() -> OptimalConfig {
        OptimalConfig {
            solver: SolverOptions::default().time_limit(20.0).threads(1),
            ..OptimalConfig::default()
        }
    }

    fn serial_solve(problem: &ProblemInstance, cfg: &OptimalConfig) -> OptimalOutcome {
        DeploymentSession::builder(problem.clone()).config(cfg.clone()).build().solve().unwrap()
    }

    #[test]
    fn batch_matches_serial_per_member() {
        let mut batch = BatchSession::new();
        let problems: Vec<_> = (0..3).map(|s| Arc::new(small_instance(3, 10 + s as u64))).collect();
        for p in &problems {
            batch.add(Arc::clone(p), quick());
        }
        let results = batch.solve_all();
        assert_eq!(results.len(), 3);
        for (p, r) in problems.iter().zip(&results) {
            let got = r.as_ref().unwrap();
            let want = serial_solve(p, &quick());
            assert_eq!(got.outcome.status, want.status);
            assert_eq!(got.outcome.objective_mj, want.objective_mj, "bit-identical objective");
            let d = got.outcome.deployment.as_ref().unwrap();
            assert!(validate(p, d).is_empty());
        }
    }

    #[test]
    fn identical_members_replay_from_the_cache() {
        let mut batch = BatchSession::new();
        let p = Arc::new(small_instance(3, 20));
        for _ in 0..3 {
            batch.add(Arc::clone(&p), quick());
        }
        let results = batch.solve_all();
        let solved: Vec<_> = results.iter().map(|r| r.as_ref().unwrap()).collect();
        assert_eq!(solved.iter().filter(|o| !o.from_cache).count(), 1, "one real solve");
        assert_eq!(solved.iter().filter(|o| o.from_cache).count(), 2, "two replays");
        for o in &solved[1..] {
            assert_eq!(o.outcome.status, solved[0].outcome.status);
            assert_eq!(o.outcome.objective_mj, solved[0].outcome.objective_mj);
        }
        assert_eq!(batch.cache().hits(), 2);
        assert_eq!(batch.cache().len(), 1);
    }

    #[test]
    fn cache_is_shared_across_sessions() {
        let cache = SolveCache::new();
        let p = Arc::new(small_instance(3, 21));
        let mut first = BatchSession::with_cache(cache.clone());
        first.add(Arc::clone(&p), quick());
        let a = first.solve_all().remove(0).unwrap();
        assert!(!a.from_cache);

        let mut second = BatchSession::with_cache(cache.clone());
        second.add(Arc::clone(&p), quick());
        let b = second.solve_all().remove(0).unwrap();
        assert!(b.from_cache, "second session replays the first session's solve");
        assert_eq!(a.outcome.objective_mj, b.outcome.objective_mj);
    }

    #[test]
    fn distinct_configs_do_not_collide_in_the_cache() {
        let mut batch = BatchSession::new();
        let p = Arc::new(small_instance(3, 22));
        let me = OptimalConfig { objective: DeployObjective::MinimizeTotalEnergy, ..quick() };
        batch.add(Arc::clone(&p), quick());
        batch.add(Arc::clone(&p), me);
        let results = batch.solve_all();
        for r in &results {
            assert!(!r.as_ref().unwrap().from_cache);
        }
        assert_eq!(batch.cache().len(), 2);
    }

    #[test]
    fn linked_member_is_seeded_by_the_source_deployment() {
        let mut batch = BatchSession::new();
        let p = Arc::new(small_instance(3, 40));
        let single =
            OptimalConfig { path_mode: PathMode::SingleFixed(PathKind::EnergyOriented), ..quick() };
        let from = batch.add(Arc::clone(&p), single);
        let to = batch.add(Arc::clone(&p), quick());
        batch.link_incumbents(from, to);
        let results = batch.solve_all();
        let single_out = results[from].as_ref().unwrap();
        let multi_out = results[to].as_ref().unwrap();
        assert!(single_out.outcome.is_feasible());
        assert!(multi_out.outcome.is_feasible());
        // Multi-path relaxes routing, so its optimum is never worse.
        assert!(
            multi_out.outcome.objective_mj.unwrap()
                <= single_out.outcome.objective_mj.unwrap() + 1e-9
        );
        // The source solves without a feed, so it is memoized; the target
        // solves with a live feed, so it neither replays nor publishes.
        assert!(!single_out.from_cache, "the link source must be solved");
        assert_eq!(batch.cache().misses(), 1, "only the link source claims a key");
        assert!(!multi_out.from_cache, "a link target must not replay");
        assert_eq!(batch.cache().len(), 1, "a link target must not publish");
    }

    #[test]
    fn replay_never_waits_and_counts_every_lookup() {
        let cache = SolveCache::new();
        let outcome = serial_solve(&small_instance(3, 23), &quick());
        let Claim::Solve(guard) = cache.claim(7) else {
            panic!("an empty cache must hand out the claim")
        };
        assert!(cache.replay(7).is_none(), "a key being solved is a miss, not a wait");
        guard.fulfill(outcome.clone());
        let hit = cache.replay(7).expect("a published key replays");
        assert_eq!(hit.objective_mj, outcome.objective_mj);
        cache.publish(8, outcome);
        assert!(cache.replay(8).is_some());
        assert!(cache.replay(9).is_none());
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 3, 2));
    }

    #[test]
    fn cancelled_members_bypass_the_cache() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut cfg = quick();
        cfg.solver.cancel = Some(cancel);
        let mut batch = BatchSession::new();
        let p = Arc::new(small_instance(3, 50));
        batch.add(Arc::clone(&p), cfg.clone());
        batch.add(Arc::clone(&p), cfg);
        let results = batch.solve_all();
        for r in &results {
            assert!(!r.as_ref().unwrap().from_cache);
        }
        assert!(batch.cache().is_empty(), "wall-clock-dependent outcomes are not memoized");
    }
}
