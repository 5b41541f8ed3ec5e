//! Online re-deployment equivalence: an incremental warm re-solve must
//! land on the same answer as a from-scratch rebuild of the mutated model.
//!
//! Two layers:
//!
//! * a property test on raw MILPs — random knapsack-like models, random
//!   restriction/relaxation deltas, [`ResolveSession`] apply + warm
//!   re-solve vs [`Model::solve_with`] on the mutated model;
//! * fixed-instance regressions on [`DeploymentSession`] for the paper's
//!   runtime events (core fault, deadline change, aperiodic arrival).
//!
//! Objectives are compared to 1e-5: each warm re-solve may carry the
//! previous proven bound, so answers can drift by the solver's own gap
//! tolerance per re-solve (never more).

use ndp_core::{
    validate, DeploymentSession, EventDisposition, OptimalConfig, OptimalOutcome, ProblemInstance,
    ScenarioEvent,
};
use ndp_milp::{
    ConstraintId, LinExpr, Model, Objective, ResolveSession, SolveStatus, SolverOptions, VarId,
    VarKind,
};
use ndp_noc::{Mesh2D, NocParams, WeightedNoc};
use ndp_platform::{Platform, ProcessorId};
use ndp_taskset::{generate, GeneratorConfig, GraphShape, Task, TaskId};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Raw-MILP equivalence property
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RandomMilp {
    /// Objective coefficient per binary variable.
    values: Vec<f64>,
    /// One knapsack row per entry: (weights, capacity).
    rows: Vec<(Vec<f64>, f64)>,
}

#[derive(Debug, Clone)]
enum RandomDelta {
    /// Fix variable `v % n` to 0 (restriction).
    Fix(usize),
    /// Scale row `r % rows` capacity by `factor` (tightening < 1.0 keeps
    /// the carry, relaxing > 1.0 drops it — both must stay consistent).
    ScaleRhs(usize, f64),
    /// Add a fresh binary with its own value and a private capacity row.
    AddVar(f64),
    /// Tighten the upper bound of `v % n` to 0.0 via set_bounds.
    TightenBound(usize),
}

fn random_milp() -> impl Strategy<Value = RandomMilp> {
    let values = proptest::collection::vec(1.0f64..9.0, 3..=6);
    values.prop_flat_map(|values| {
        let n = values.len();
        let row = (proptest::collection::vec(1.0f64..5.0, n), 2.0f64..12.0);
        proptest::collection::vec(row, 1..=4)
            .prop_map(move |rows| RandomMilp { values: values.clone(), rows })
    })
}

fn random_deltas() -> impl Strategy<Value = Vec<RandomDelta>> {
    let delta = ((0u8..4), (0usize..6), (0.0f64..1.0)).prop_map(|(kind, idx, t)| match kind {
        0 => RandomDelta::Fix(idx),
        // Half the draws tighten (0.5..0.95), half relax (1.1..1.6) —
        // relaxations must drop the carry yet still agree with scratch.
        1 if t < 0.5 => RandomDelta::ScaleRhs(idx, 0.5 + t * 0.9),
        1 => RandomDelta::ScaleRhs(idx, 1.1 + (t - 0.5)),
        2 => RandomDelta::AddVar(1.0 + t * 8.0),
        _ => RandomDelta::TightenBound(idx),
    });
    proptest::collection::vec(delta, 1..=3)
}

fn build_model(m: &RandomMilp) -> (Model, Vec<VarId>, Vec<ConstraintId>) {
    let mut model = Model::new("prop");
    let vars: Vec<VarId> = (0..m.values.len()).map(|i| model.binary(format!("x{i}"))).collect();
    let mut obj = LinExpr::new();
    for (i, &v) in m.values.iter().enumerate() {
        obj += LinExpr::term(vars[i], v);
    }
    let mut rows = Vec::new();
    for (r, (weights, cap)) in m.rows.iter().enumerate() {
        let mut row = LinExpr::new();
        for (i, &w) in weights.iter().enumerate() {
            row += LinExpr::term(vars[i], w);
        }
        rows.push(model.add_le(format!("cap{r}"), row, *cap));
    }
    model.set_objective(Objective::Maximize, obj);
    (model, vars, rows)
}

fn serial_options() -> SolverOptions {
    SolverOptions::default().threads(1).time_limit(10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// apply + warm re-solve == rebuild-from-scratch, for every prefix of
    /// a random delta sequence, with the session searching serial or
    /// parallel (the scratch reference stays serial). One pass runs the
    /// default options and one switches root cuts on, so cut rows carried
    /// through the deltas stay covered.
    #[test]
    fn warm_resolve_equals_scratch_rebuild(
        milp in random_milp(),
        deltas in random_deltas(),
        threads in 1usize..=2,
    ) {
        for cuts in [false, true] {
            let (model, mut vars, mut rows) = build_model(&milp);
            let mut sess = ResolveSession::new(model, serial_options().cuts(cuts).threads(threads));
            sess.solve().expect("base solve");
            // The model has no public rhs accessor, so mirror row capacities
            // here.
            let mut caps: Vec<f64> = milp.rows.iter().map(|(_, c)| *c).collect();
            for step in &deltas {
                let mut d = sess.model().delta();
                let n = vars.len();
                match step {
                    RandomDelta::Fix(v) => d.fix(vars[v % n], 0.0),
                    RandomDelta::ScaleRhs(r, factor) => {
                        let row = r % caps.len();
                        caps[row] *= factor;
                        d.set_rhs(rows[row], caps[row]);
                    }
                    RandomDelta::AddVar(value) => {
                        let z = d.add_var(format!("z{n}"), VarKind::Binary, 0.0, 1.0, *value);
                        rows.push(d.add_le(format!("zcap{n}"), LinExpr::term(z, 1.0), 1.0));
                        vars.push(z);
                        caps.push(1.0);
                    }
                    RandomDelta::TightenBound(v) => d.set_bounds(vars[v % n], 0.0, 0.0),
                }
                sess.apply(&d).expect("delta applies");
                let warm = sess.solve().expect("warm re-solve");
                let scratch = sess.model().solve_with(&serial_options()).expect("scratch solve");
                prop_assert_eq!(warm.status(), scratch.status(), "cuts {} delta {:?}", cuts, step);
                if warm.status() == SolveStatus::Optimal {
                    let (w, s) = (warm.objective_value(), scratch.objective_value());
                    prop_assert!(
                        (w - s).abs() <= 1e-5 * s.abs().max(1.0),
                        "cuts {} delta {:?}: warm {} vs scratch {}", cuts, step, w, s
                    );
                }
            }
        }
    }
}

/// A parallel re-solve after a restriction the old optimum survives is
/// proven by the carried bound at the root, like the serial one.
#[test]
fn parallel_resolve_of_a_preserved_optimum_explores_no_node() {
    let milp = RandomMilp {
        values: vec![5.0, 4.0, 3.0, 7.0, 2.0, 6.0],
        rows: vec![(vec![3.0, 2.0, 4.0, 5.0, 1.0, 4.0], 9.5)],
    };
    let (model, vars, _) = build_model(&milp);
    let mut sess = ResolveSession::new(model, serial_options().threads(2));
    let first = sess.solve().expect("base solve");
    let zero = first.values().iter().position(|&v| v < 0.5).expect("a column left at 0");
    let mut d = sess.model().delta();
    d.fix(vars[zero], 0.0);
    assert!(sess.apply(&d).expect("delta applies").restriction);
    let warm = sess.solve().expect("warm re-solve");
    assert_eq!(warm.status(), SolveStatus::Optimal);
    assert_eq!(warm.node_count(), 0, "the carried bound must seed the parallel root");
    assert_eq!(warm.objective_value(), first.objective_value());
}

// ---------------------------------------------------------------------------
// DeploymentSession fixed-instance regressions
// ---------------------------------------------------------------------------

fn fixed_problem(m: usize, seed: u64) -> ProblemInstance {
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

fn session(p: &ProblemInstance) -> DeploymentSession {
    let mut solver = SolverOptions::default().threads(1).time_limit(30.0);
    solver.relative_gap = 1e-6;
    DeploymentSession::builder(p.clone())
        .path_mode(OptimalConfig::default().path_mode)
        .solver(solver)
        .build()
}

fn assert_same_proven(a: &OptimalOutcome, b: &OptimalOutcome, what: &str) {
    assert_eq!(a.status, SolveStatus::Optimal, "{what}: incremental not proven");
    assert_eq!(b.status, SolveStatus::Optimal, "{what}: scratch not proven");
    let (x, y) = (a.objective_mj.unwrap(), b.objective_mj.unwrap());
    assert!(
        (x - y).abs() <= 1e-5 * y.abs().max(1.0),
        "{what}: incremental {x} mJ vs scratch {y} mJ"
    );
}

#[test]
fn core_fault_resolves_to_the_scratch_answer() {
    let p = fixed_problem(3, 5);
    let mut live = session(&p);
    assert!(live.solve().unwrap().is_feasible());

    let event = ScenarioEvent::CoreFault { processor: ProcessorId(3) };
    let disp = live.apply(&event).unwrap();
    assert_eq!(disp, EventDisposition::Incremental);
    let warm = live.solve().unwrap();

    let mut scratch = session(&p);
    scratch.apply(&event).unwrap();
    let cold = scratch.solve().unwrap();

    assert_same_proven(&warm, &cold, "core fault");
    let d = warm.deployment.unwrap();
    assert!(validate(live.problem(), &d).is_empty());
    for (i, &proc) in d.processor.iter().enumerate() {
        assert!(!d.active[i] || proc.index() != 3, "task {i} on the faulted core");
    }
}

#[test]
fn task_arrival_rebuilds_and_schedules_the_new_task() {
    let p = fixed_problem(3, 8);
    let mut live = session(&p);
    let base = live.solve().unwrap();
    assert!(base.is_feasible());

    let t0 = live.problem().tasks.graph().task(TaskId(0)).clone();
    let event = ScenarioEvent::TaskArrival {
        task: Task::new("aperiodic", t0.wcec * 0.5, t0.deadline_ms),
        predecessors: vec![(TaskId(0), 1.0)],
    };
    let disp = live.apply(&event).unwrap();
    assert_eq!(disp, EventDisposition::Rebuilt);
    let after = live.solve().unwrap();

    let mut scratch = session(&p);
    scratch.apply(&event).unwrap();
    let cold = scratch.solve().unwrap();
    assert_same_proven(&after, &cold, "task arrival");

    // The arrival is an original task of the re-expanded problem and must
    // be scheduled like any other.
    let problem = live.problem();
    let arrival = problem
        .tasks
        .originals()
        .find(|&i| problem.tasks.graph().task(i).name == "aperiodic")
        .expect("the arrival is part of the problem");
    let d = after.deployment.unwrap();
    assert!(d.active[arrival.index()], "the arrival must be scheduled");
    assert!(validate(problem, &d).is_empty());
    // More work on the same platform can never cost less (BE objective).
    assert!(after.objective_mj.unwrap() >= base.objective_mj.unwrap() - 1e-6);
}
