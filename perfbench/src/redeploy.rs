//! `redeploy`: one mission runtime keeps live deployment sessions and
//! absorbs a seeded stream of scenario events on them.
//!
//! Each M=3 session is solved once during set-up. Each operation then
//! applies one event and re-solves: deadline tightening and core faults
//! patch the carried solver state (`Incremental`), a deadline relaxation
//! restarts cold (`ColdRestart`) and a task arrival rebuilds the model
//! (`Rebuilt`). Arrivals cost several times a tightening, so they stay a
//! minority and come last in their session. This uses the MILP layer the
//! other way round from `exact`: the model is mutated and the solver
//! re-enters warm.

use crate::exact::{self, solver};
use crate::instances::{build_problem, energy_lower_bound, Golden, Rng};
use crate::stats::Cause;
use crate::trace::Tracer;
use crate::workload::{
    check_proof, milp_counters, record_milp, scaled, split_reps, timed, OpClock, Pass, BUDGET_S,
};
use ndp_core::{DeploymentSession, EventDisposition, ScenarioEvent};
use ndp_platform::ProcessorId;
use ndp_taskset::{Task, TaskId};
use std::time::Instant;

/// Live sessions, on the M=3 catalog graphs from `FIRST_GRAPH` on (`exact`
/// proves the same graphs from scratch; here they are mutated). Four
/// sessions keep a set-up's base solves near 3 s.
pub const SESSIONS: usize = 4;
/// Catalog index of the first session's graph.
const FIRST_GRAPH: usize = 13;
/// Events per session per default run length, before the arrivals.
pub const EVENTS_PER_SESSION: usize = 18;
/// Sessions whose stream ends in a task arrival.
pub const ARRIVALS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tighten,
    Fault,
    Relax,
    Arrival,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Tighten => "deadline",
            Kind::Fault => "fault",
            Kind::Relax => "relax",
            Kind::Arrival => "arrival",
        }
    }

    fn disposition(self) -> EventDisposition {
        match self {
            Kind::Tighten | Kind::Fault => EventDisposition::Incremental,
            Kind::Relax => EventDisposition::ColdRestart,
            Kind::Arrival => EventDisposition::Rebuilt,
        }
    }
}

/// The repeating event pattern of a session: at most one fault, one
/// relaxation per cycle, tightenings otherwise.
const PATTERN: [Kind; 5] = [Kind::Tighten, Kind::Fault, Kind::Tighten, Kind::Relax, Kind::Tighten];

/// Event kinds of a session with `n` events before an optional arrival.
fn kinds(n: usize, arrival: bool) -> Vec<Kind> {
    let mut out: Vec<Kind> = (0..n)
        .map(|j| match PATTERN[j % PATTERN.len()] {
            Kind::Fault if j >= PATTERN.len() => Kind::Tighten,
            k => k,
        })
        .collect();
    if arrival {
        out.push(Kind::Arrival);
    }
    out
}

/// Turns event kinds into concrete events against the session's current
/// problem, mirroring the deadlines each event leaves behind.
fn events(
    session: &DeploymentSession,
    kinds: &[Kind],
    rng: &mut Rng,
) -> Vec<(Kind, ScenarioEvent, String)> {
    let problem = session.problem();
    let m = problem.num_original();
    let mut deadlines: Vec<f64> =
        (0..m).map(|t| problem.tasks.graph().task(TaskId(t)).deadline_ms).collect();
    let mut out = Vec::new();
    for &kind in kinds {
        let (event, desc) = match kind {
            Kind::Tighten | Kind::Relax => {
                let t = rng.below(m);
                let factor = if kind == Kind::Tighten {
                    rng.uniform(0.88, 0.96)
                } else {
                    rng.uniform(1.08, 1.2)
                };
                deadlines[t] *= factor;
                let d = deadlines[t];
                (
                    ScenarioEvent::DeadlineChange { task: TaskId(t), deadline_ms: d },
                    format!("{} t={t} d={d:.9}", kind.label()),
                )
            }
            Kind::Fault => {
                let p = rng.below(problem.num_processors());
                (ScenarioEvent::CoreFault { processor: ProcessorId(p) }, format!("fault p={p}"))
            }
            Kind::Arrival => {
                let pred = rng.below(m);
                let size = rng.uniform(1.0, 6.0);
                let wcec = rng.uniform(0.5e6, 2.0e6);
                let deadline = wcec / 1e6 * rng.uniform(1.6, 3.5);
                (
                    ScenarioEvent::TaskArrival {
                        task: Task::new("arrival", wcec, deadline),
                        predecessors: vec![(TaskId(pred), size)],
                    },
                    format!("arrival pred={pred} size={size:.9} wcec={wcec:.3} d={deadline:.9}"),
                )
            }
        };
        out.push((kind, event, desc));
    }
    out
}

struct Live {
    session: DeploymentSession,
    key: String,
    events: Vec<(Kind, ScenarioEvent, String)>,
}

/// Builds and solves the sessions; records the base answers' checks.
fn set_up(seconds: f64, golden: &Golden, pass: &mut Pass) -> Vec<Live> {
    let off = Tracer::new(false);
    let per_session = scaled(EVENTS_PER_SESSION, seconds);
    (0..SESSIONS)
        .map(|s| {
            let spec = exact::catalog_spec(3, FIRST_GRAPH + s);
            let problem = build_problem(spec, &off, 0, None).expect("catalog instance builds");
            let mut session = DeploymentSession::builder(problem).solver(solver()).build();
            let key = exact::key(spec);
            let verdict = session
                .solve()
                .map_err(|e| Cause::Error(format!("base solve: {e}")))
                .and_then(|out| check_proof(session.problem(), &out, &[], golden, &key));
            if let Ok(answer) = &verdict {
                pass.answers.push((key.clone(), *answer));
            }
            pass.tally.record(&format!("redeploy base {spec}"), verdict.map(|_| ()));
            // The sessions and their events do not depend on the workload
            // seed (see `catalog_seed`): a re-solve's time swings by 5x with
            // the horizon and with which task is tightened by how much, and
            // 40 events cannot average that out between seeds.
            let events =
                events(&session, &kinds(per_session, s < ARRIVALS), &mut Rng::new(spec.seed, 5));
            Live { session, key: format!("session {spec}"), events }
        })
        .collect()
}

fn absorb(
    live: &mut Live,
    j: usize,
    golden: &Golden,
    tracer: &Tracer,
    id: u64,
    root: Option<usize>,
    pass: &mut Pass,
) -> Result<(), Cause> {
    let (kind, event, desc) = &live.events[j];
    live.key = format!("{} | {desc}", live.key);
    let session = &mut live.session;
    let disposition = tracer
        .span("core.session.apply", id, root, |_| session.apply(event))
        .map_err(|e| Cause::Error(format!("apply: {e}")))?;
    let t0 = Instant::now();
    let out = tracer
        .span("core.session.resolve", id, root, |_| session.resolve(BUDGET_S))
        .map_err(|e| Cause::Error(format!("resolve: {e}")))?;
    let resolve_ms = t0.elapsed().as_secs_f64() * 1e3;
    if tracer.is_on() {
        let model = session.model().map_err(|e| Cause::Error(format!("model: {e}")))?;
        pass.layers.push("core.formulation.vars", model.num_vars() as f64);
        pass.layers.push("core.formulation.rows", model.num_constraints() as f64);
    }
    pass.layers.push(
        match kind {
            Kind::Tighten => "core.session.resolve_ms.deadline",
            Kind::Fault => "core.session.resolve_ms.fault",
            Kind::Relax => "core.session.resolve_ms.relax",
            Kind::Arrival => "core.session.resolve_ms.arrival",
        },
        resolve_ms,
    );
    pass.layers.push("core.session.zero_node_share", f64::from(u8::from(out.nodes == 0)));
    pass.layers.push(
        match disposition {
            EventDisposition::Incremental => "core.session.incremental",
            EventDisposition::ColdRestart => "core.session.cold_restarts",
            EventDisposition::Rebuilt => "core.session.rebuilds",
        },
        1.0,
    );
    record_milp(&mut pass.layers, &out.stats);
    pass.counters.push(format!("{desc} {disposition:?} {}", milp_counters(&out.stats)));
    if disposition != kind.disposition() {
        return Err(Cause::Mismatch(format!(
            "disposition {disposition:?}, expected {:?}",
            kind.disposition()
        )));
    }
    let faulted: Vec<usize> = session.faulted_processors().map(|p| p.index()).collect();
    let answer = tracer.span("core.validate", id, root, |_| {
        check_proof(session.problem(), &out, &faulted, golden, &live.key)
    })?;
    if let Some(objective) = answer {
        pass.energy_ratios.push(objective / energy_lower_bound(session.problem()));
    }
    pass.answers.push((live.key.clone(), answer));
    Ok(())
}

/// One pass: every event once, sessions taking turns in an order drawn
/// from the workload seed, between `reps` timed set-ups.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, golden: &Golden, reps: usize) -> Pass {
    let mut pass = Pass::default();
    let (before, after) = split_reps(reps);
    let mut sessions = Vec::new();
    // Only the sessions of the last set-up before the timed phase are
    // used, and only their base answers count.
    let mut base = Pass::default();
    for _ in 0..before {
        base = Pass::default();
        sessions = timed(&mut pass, || set_up(seconds, golden, &mut base));
    }
    pass.merge(base);
    let mut order_rng = Rng::new(seed, 3);
    let rounds = sessions.iter().map(|l| l.events.len()).max().unwrap_or(0);
    let t0 = Instant::now();
    let mut clock = OpClock::start();
    let mut id = 0u64;
    for j in 0..rounds {
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        order_rng.shuffle(&mut order);
        for s in order {
            if j >= sessions[s].events.len() {
                continue;
            }
            let live = &mut sessions[s];
            let verdict = clock.time(&mut pass, |pass| {
                tracer.span("op", id, None, |root| absorb(live, j, golden, tracer, id, root, pass))
            });
            pass.tally.record(&format!("redeploy session {s} event {j}"), verdict);
            id += 1;
        }
    }
    pass.timed_s = t0.elapsed().as_secs_f64();
    drop(sessions);
    for _ in 0..after {
        timed(&mut pass, || set_up(seconds, golden, &mut Pass::default()));
    }
    pass
}
