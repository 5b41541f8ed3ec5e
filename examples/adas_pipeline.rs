//! A realistic scenario: deploying an ADAS perception/planning pipeline.
//!
//! The task graph mirrors a camera-based driver-assistance stack — the kind
//! of dependent, deadline-constrained workload the paper's introduction
//! motivates. The pipeline is deployed on a 4×4 NoC multicore, executed in
//! the discrete-event simulator and stress-tested with transient-fault
//! injection — and then the mission goes sideways: the busiest core fails
//! permanently, and the [`DeploymentSession`] re-deploys the pipeline
//! around it under a wall-clock budget.
//!
//! ```text
//! cargo run -p ndp-examples --bin adas_pipeline
//! ```

use ndp_core::prelude::*;
use ndp_platform::{PowerModel, ReliabilityParams, VfTable};
use ndp_sim::{analytic_task_reliability, execute, inject_faults};
use ndp_taskset::{Task, TaskGraph};

/// Builds the ADAS pipeline: two camera front-ends feeding detection,
/// lane-keeping and tracking, fused and planned.
fn adas_graph() -> Result<TaskGraph, Box<dyn std::error::Error>> {
    let mut g = TaskGraph::new();
    // (name, WCEC in cycles, deadline in ms)
    let cam_l = g.add_task(Task::new("capture-left", 0.6e6, 2.5));
    let cam_r = g.add_task(Task::new("capture-right", 0.6e6, 2.5));
    let pre_l = g.add_task(Task::new("preprocess-left", 1.2e6, 4.0));
    let pre_r = g.add_task(Task::new("preprocess-right", 1.2e6, 4.0));
    let detect = g.add_task(Task::new("object-detect", 3.2e6, 8.0));
    let lane = g.add_task(Task::new("lane-detect", 1.8e6, 6.0));
    let track = g.add_task(Task::new("object-track", 1.5e6, 5.0));
    let fuse = g.add_task(Task::new("sensor-fusion", 1.0e6, 4.0));
    let plan = g.add_task(Task::new("path-plan", 2.2e6, 7.0));
    let act = g.add_task(Task::new("actuate", 0.4e6, 2.0));
    // Data sizes in flit-units (~KB).
    g.add_edge(cam_l, pre_l, 8.0)?;
    g.add_edge(cam_r, pre_r, 8.0)?;
    g.add_edge(pre_l, detect, 4.0)?;
    g.add_edge(pre_r, detect, 4.0)?;
    g.add_edge(pre_l, lane, 3.0)?;
    g.add_edge(pre_r, lane, 3.0)?;
    g.add_edge(detect, track, 2.0)?;
    g.add_edge(detect, fuse, 1.5)?;
    g.add_edge(lane, fuse, 1.0)?;
    g.add_edge(track, fuse, 1.0)?;
    g.add_edge(fuse, plan, 1.0)?;
    g.add_edge(plan, act, 0.5)?;
    Ok(g)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = adas_graph()?;
    // Safety-critical setting: elevated fault rate, tight threshold. (Note
    // that Algorithm 1 assigns the original's frequency energy-first and
    // relies on duplication to recover reliability, so the environment must
    // leave the fastest level able to do that — the paper's heuristic has
    // the same requirement.)
    let platform = Platform::new(
        16,
        VfTable::preset_70nm(),
        PowerModel::default(),
        ReliabilityParams { lambda_max_freq: 1e-4, sensitivity: 2.0 },
    )?;
    let noc = WeightedNoc::new(Mesh2D::square(4)?, NocParams::typical(), 7)?;
    let problem = ProblemInstance::from_original(&graph, platform, noc, 0.999, 3.0)?;

    // Single-path (time-oriented) routing keeps the exact model small enough for the
    // budgeted online re-solve below; the heuristic is routing-agnostic.
    let mut session = DeploymentSession::builder(problem)
        .path_mode(PathMode::SingleFixed(PathKind::TimeOriented))
        .solver(SolverOptions::default().time_limit(30.0))
        .build();
    let deployment = session.heuristic()?;
    let problem = session.problem();
    let violations = validate(problem, &deployment);
    assert!(violations.is_empty(), "{violations:?}");

    println!("=== ADAS pipeline deployment ===");
    for t in problem.tasks.graph().task_ids() {
        if deployment.active[t.index()] {
            let name = &problem.tasks.graph().task(t).name;
            println!(
                "  {name:<20} θ{:<2} level {} start {:>6.3} ms",
                deployment.processor[t.index()].index(),
                deployment.frequency[t.index()].index(),
                deployment.start_ms[t.index()],
            );
        }
    }
    println!("duplicated tasks: {}", deployment.duplicated_count(problem));

    // Execute event-driven.
    let trace = execute(problem, &deployment);
    println!("\n=== execution ===");
    println!("makespan : {:.3} ms (horizon {:.3} ms)", trace.makespan_ms, problem.horizon_ms);
    println!("energy   : {:.4} mJ", trace.total_energy_mj());

    // Fault injection campaign.
    let campaign = inject_faults(problem, &deployment, 100_000, 99);
    println!("\n=== 100k-trial fault injection ===");
    println!("injected faults    : {}", campaign.injected_faults);
    println!("system reliability : {:.6}", campaign.system_reliability());
    for i in problem.tasks.originals() {
        let analytic = analytic_task_reliability(problem, &deployment, i);
        let measured = campaign.task_reliability(i);
        let name = &problem.tasks.graph().task(i).name;
        println!("  {name:<20} analytic {analytic:.6}  measured {measured:.6}");
    }

    // Mid-mission, the busiest core fails permanently. The session absorbs
    // the fault as a model edit and re-deploys under a wall-clock budget
    // (the exact model is large at this mesh size, so give the root LP and
    // the root dive a couple of minutes).
    let report = deployment.energy_report(problem);
    let per_proc = report.per_processor_mj().to_vec();
    let (hot, hot_mj) = per_proc
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("the mesh has processors");
    println!("\n=== core θ{hot} fails ({hot_mj:.4} mJ of load) — online re-deployment ===");
    session.apply(&ScenarioEvent::CoreFault { processor: ProcessorId(hot) })?;
    let outcome = session.resolve(120.0)?;
    println!("re-solve status: {:?} ({} nodes)", outcome.status, outcome.nodes);
    let Some(redeployed) = outcome.deployment.as_ref() else {
        println!("no re-deployment found within the budget — rerun with a larger one");
        return Ok(());
    };
    let problem = session.problem();
    assert!(validate(problem, redeployed).is_empty());
    assert!(
        problem.tasks.graph().task_ids().all(
            |t| !redeployed.active[t.index()] || redeployed.processor[t.index()].index() != hot
        ),
        "no task may run on the faulted core"
    );
    println!(
        "max energy {:.4} mJ (was {:.4} mJ on the full mesh)",
        redeployed.energy_report(problem).max_mj(),
        report.max_mj()
    );
    for t in problem.tasks.graph().task_ids() {
        if redeployed.active[t.index()] {
            let name = &problem.tasks.graph().task(t).name;
            println!("  {name:<20} θ{:<2}", redeployed.processor[t.index()].index());
        }
    }
    Ok(())
}
