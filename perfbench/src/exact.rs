//! `exact`: one caller proves deployment instances one at a time — the
//! paper's exact arm at the size where it proves optimality in seconds.
//!
//! Each operation builds a `DeploymentSession` with the exact arm's
//! defaults at `threads = 1`, calls `encoding()` then `solve()`, and checks
//! the answer. The MILP layers do almost all the work; session deltas are
//! bypassed.

use crate::instances::{
    build_problem, catalog_seed, energy_lower_bound, Golden, Rng, Spec, ALPHAS,
};
use crate::stats::Cause;
use crate::trace::Tracer;
use crate::workload::{
    check_proof, milp_counters, record_milp, scaled, split_reps, timed, OpClock, Pass, BUDGET_S,
};
use ndp_core::{DeploymentSession, OptimalConfig, ProblemInstance};
use ndp_milp::SolverOptions;
use std::time::Instant;

/// M=2 proofs per default run length.
pub const M2_OPS: usize = 36;
/// M=3 proofs per default run length: 40 % of the operations, so that p75
/// falls among the M=3 proofs, where latencies lie close together, rather
/// than in the gap between the two sizes.
pub const M3_OPS: usize = 24;
/// Catalog graphs per task count; the golden table covers all of them at
/// every `α`.
pub const CATALOG: [(usize, usize); 2] = [(2, M2_OPS), (3, M3_OPS)];

/// Instances solved, untimed, at the end of every set-up: graphs outside
/// the catalog, so the warm-up caches no answer an operation reuses.
const WARMUP: [Spec; 2] =
    [Spec { m: 2, side: 2, alpha: 1.6, seed: 1 }, Spec { m: 3, side: 2, alpha: 1.6, seed: 1 }];

/// Options of every exact solve: the exact arm's defaults, serial so the
/// work repeats exactly, with a budget no healthy proof reaches.
pub fn solver() -> SolverOptions {
    OptimalConfig::default().solver.threads(1).time_limit(BUDGET_S)
}

/// Golden-table key of a catalog proof.
pub fn key(spec: Spec) -> String {
    format!("exact {spec}")
}

/// Number of catalog graphs with `m` tasks.
pub fn catalog_len(m: usize) -> usize {
    CATALOG.iter().find(|(mm, _)| *mm == m).map_or(0, |(_, n)| *n)
}

struct Op {
    spec: Spec,
    problem: ProblemInstance,
    lower_bound: f64,
}

impl Op {
    fn new(spec: Spec) -> Op {
        let problem =
            build_problem(spec, &Tracer::new(false), 0, None).expect("catalog instance builds");
        Op { spec, lower_bound: energy_lower_bound(&problem), problem }
    }
}

/// Catalog entry `i` of the `m`-task graphs.
pub fn catalog_spec(m: usize, i: usize) -> Spec {
    let i = i % catalog_len(m);
    Spec { m, side: 2, alpha: ALPHAS[i % ALPHAS.len()], seed: catalog_seed(m, i) }
}

/// The catalog entries in an order drawn from the workload seed.
fn op_list(seed: u64, seconds: f64) -> Vec<Op> {
    let mut specs = Vec::new();
    for (m, base) in [(2, M2_OPS), (3, M3_OPS)] {
        specs.extend((0..scaled(base, seconds)).map(|i| catalog_spec(m, i)));
    }
    Rng::new(seed, 1).shuffle(&mut specs);
    specs.into_iter().map(Op::new).collect()
}

/// Solves one instance and checks the answer.
fn prove(
    Op { spec, problem, lower_bound }: Op,
    golden: &Golden,
    tracer: &Tracer,
    id: u64,
    root: Option<usize>,
    pass: &mut Pass,
) -> Result<(), Cause> {
    let mut session = DeploymentSession::builder(problem).solver(solver()).build();
    tracer
        .span("core.session.encoding", id, root, |_| session.encoding().map(|_| ()))
        .map_err(|e| Cause::Error(format!("encoding: {e}")))?;
    if tracer.is_on() {
        let model = session.model().map_err(|e| Cause::Error(format!("model: {e}")))?;
        pass.layers.push("core.formulation.vars", model.num_vars() as f64);
        pass.layers.push("core.formulation.rows", model.num_constraints() as f64);
    }
    let out = tracer
        .span("core.session.solve", id, root, |_| session.solve())
        .map_err(|e| Cause::Error(format!("solve: {e}")))?;
    record_milp(&mut pass.layers, &out.stats);
    pass.counters.push(format!("{spec} {}", milp_counters(&out.stats)));
    let k = key(spec);
    let answer = tracer.span("core.validate", id, root, |_| {
        check_proof(session.problem(), &out, &[], golden, &k)
    })?;
    if let Some(objective) = answer {
        pass.energy_ratios.push(objective / lower_bound);
    }
    pass.answers.push((k, answer));
    Ok(())
}

/// Builds the operation list and runs the untimed warm-up.
fn set_up(seed: u64, seconds: f64) -> Vec<Op> {
    let ops = op_list(seed, seconds);
    let off = Tracer::new(false);
    for spec in WARMUP {
        let warm = build_problem(spec, &off, 0, None).expect("warm-up instance builds");
        DeploymentSession::builder(warm).solver(solver()).build().solve().expect("warm-up solve");
    }
    ops
}

/// One pass: every operation once, between `reps` timed set-ups.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, golden: &Golden, reps: usize) -> Pass {
    let mut pass = Pass::default();
    let (before, after) = split_reps(reps);
    let mut ops = Vec::new();
    for _ in 0..before {
        ops = timed(&mut pass, || set_up(seed, seconds));
    }
    let t0 = Instant::now();
    let mut clock = OpClock::start();
    for (id, op) in ops.into_iter().enumerate() {
        let id = id as u64;
        let spec = op.spec;
        let verdict = clock.time(&mut pass, |pass| {
            tracer.span("op", id, None, |root| prove(op, golden, tracer, id, root, pass))
        });
        pass.tally.record(&format!("exact {spec}"), verdict);
    }
    pass.timed_s = t0.elapsed().as_secs_f64();
    for _ in 0..after {
        timed(&mut pass, || set_up(seed, seconds));
    }
    pass
}

/// Proves every catalog graph at every `α`, for the golden table.
pub fn catalog_answers(golden: &Golden) -> Vec<(String, Option<f64>)> {
    let off = Tracer::new(false);
    let mut pass = Pass::default();
    for (m, n) in CATALOG {
        for i in 0..n {
            for alpha in ALPHAS {
                let spec = Spec { m, side: 2, alpha, seed: catalog_seed(m, i) };
                if let Err(cause) = prove(Op::new(spec), golden, &off, 0, None, &mut pass) {
                    panic!("catalog proof {spec} failed: {cause}");
                }
            }
        }
    }
    pass.answers
}
