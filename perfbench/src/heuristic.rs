//! `heuristic`: one caller deploys the paper's 16-core instances with the
//! 3-phase decomposition heuristic — no MILP at all.
//!
//! Each operation generates a catalog task graph (M ∈ {20, 30, 40}),
//! builds the 4×4-mesh NoC and the problem, runs
//! `DeploymentSession::heuristic()` and validates the deployment. This is
//! the bypass workload for every solver change, and the one where task-set
//! generation, NoC construction, problem construction and heuristic phases
//! 1–3 do all the work.

use crate::instances::{build_problem, catalog_seed, energy_lower_bound, Rng, Spec};
use crate::stats::Cause;
use crate::trace::Tracer;
use crate::workload::{scaled, split_reps, timed, OpClock, Pass};
use ndp_core::{validate, DeploymentSession};
use ndp_milp::{Observer, ObserverHandle, SolverEvent};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Operations of each task count per default run length.
pub const OPS_PER_SIZE: usize = 125;
/// Task counts, in equal shares.
pub const SIZES: [usize; 3] = [20, 30, 40];
/// Horizon multipliers. At `α = 1.2` the heuristic's schedule overruns the
/// horizon on 11 of 300 instances measured (`HeuristicInfeasible`, the
/// decomposition's documented limit on tight horizons, not a wrong
/// answer), which would make the workload's failure count depend on the
/// seed; at 1.6 and 3.0 it overran on none of 600.
pub const ALPHAS: [f64; 2] = [1.6, 3.0];

/// The catalog graphs of every size, with `α` alternating, in an order
/// drawn from the workload seed. Graphs drawn from the seed would add the
/// spread of the instances themselves to the spread of the median latency
/// between seeds.
fn op_list(seed: u64, seconds: f64) -> Vec<Spec> {
    let mut specs = Vec::new();
    for m in SIZES {
        for i in 0..scaled(OPS_PER_SIZE, seconds) {
            let alpha = ALPHAS[i % ALPHAS.len()];
            specs.push(Spec { m, side: 4, alpha, seed: catalog_seed(m, i) });
        }
    }
    Rng::new(seed, 2).shuffle(&mut specs);
    specs
}

/// Turns the heuristic's phase markers into `core.heuristic.phase1..3`
/// spans under the enclosing `core.heuristic` span.
fn phase_observer(tracer: Arc<Tracer>, op: u64, parent: Option<usize>) -> ObserverHandle {
    let open = Mutex::new(None);
    let observer: Arc<dyn Observer> = Arc::new(move |e: &SolverEvent| {
        if let SolverEvent::Phase { name } = e {
            let mut open = open.lock().expect("phase state poisoned");
            tracer.end(open.take());
            let span = match *name {
                "phase1" => Some("core.heuristic.phase1"),
                "phase2" => Some("core.heuristic.phase2"),
                "phase3" => Some("core.heuristic.phase3"),
                _ => None,
            };
            *open = span.and_then(|s| tracer.begin(s, op, parent));
        }
    });
    ObserverHandle::new(observer)
}

fn deploy(
    spec: Spec,
    tracer: &Arc<Tracer>,
    id: u64,
    root: Option<usize>,
    pass: &mut Pass,
) -> Result<(), Cause> {
    let problem = build_problem(spec, tracer, id, root).map_err(Cause::Error)?;
    let mut session = DeploymentSession::new(problem);
    let deployment = tracer
        .span("core.heuristic", id, root, |h| {
            if tracer.is_on() {
                session.solver_mut().observer = phase_observer(Arc::clone(tracer), id, h);
            }
            session.heuristic()
        })
        .map_err(|e| Cause::HeuristicInfeasible(e.to_string()))?;
    let problem = session.problem();
    tracer.span("core.validate", id, root, |_| {
        let violations = validate(problem, &deployment);
        match violations.first() {
            Some(v) => Err(Cause::Invalid(format!("{} violations, first {v:?}", violations.len()))),
            None => Ok(()),
        }
    })?;
    let energy = deployment.energy_report(problem).max_mj();
    pass.energy_ratios.push(energy / energy_lower_bound(problem));
    pass.counters.push(format!("{spec} energy={energy:.12e}"));
    Ok(())
}

/// Builds the operation list and runs the untimed warm-up: two
/// deployments per size, of graphs outside the catalog.
fn set_up(seed: u64, seconds: f64) -> Vec<Spec> {
    let ops = op_list(seed, seconds);
    let off = Arc::new(Tracer::new(false));
    for (k, m) in SIZES.into_iter().cycle().take(2 * SIZES.len()).enumerate() {
        let spec = Spec { m, side: 4, alpha: 1.6, seed: u64::MAX - k as u64 };
        deploy(spec, &off, 0, None, &mut Pass::default()).expect("warm-up deployment");
    }
    ops
}

/// One pass: every operation once, between `reps` timed set-ups.
pub fn run(seed: u64, seconds: f64, tracer: &Arc<Tracer>, reps: usize) -> Pass {
    let mut pass = Pass::default();
    let (before, after) = split_reps(reps);
    let mut ops = Vec::new();
    for _ in 0..before {
        ops = timed(&mut pass, || set_up(seed, seconds));
    }
    let t0 = Instant::now();
    let mut clock = OpClock::start();
    for (id, spec) in ops.into_iter().enumerate() {
        let id = id as u64;
        let verdict = clock.time(&mut pass, |pass| {
            tracer.span("op", id, None, |root| deploy(spec, tracer, id, root, pass))
        });
        pass.tally.record(&format!("heuristic {spec}"), verdict);
    }
    pass.timed_s = t0.elapsed().as_secs_f64();
    for _ in 0..after {
        timed(&mut pass, || set_up(seed, seconds));
    }
    pass
}
