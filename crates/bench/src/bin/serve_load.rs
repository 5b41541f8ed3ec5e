//! Multi-tenant load exercise of the `ndp-serve` solve server.
//!
//! Two phases, both against an in-process [`SolveServer`]:
//!
//! 1. **Cache pair** — a single-runner server receives the same request
//!    twice. The first solve populates the solution cache; the second must
//!    be answered from it with *zero* branch-and-bound nodes (this is the
//!    acceptance check for the server's fingerprint cache, asserted here).
//! 2. **Mixed load** — a multi-runner server receives a burst of jobs of
//!    different sizes and seeds, one of which is cancelled mid-flight and
//!    one of which carries a tight deadline. Reports per-job outcomes and
//!    the aggregate throughput (jobs served per second over the shared
//!    worker pool).
//!
//! ```text
//! serve_load [--jobs N] [--runners K] [--json PATH]
//! ```
//!
//! `--json PATH` appends one record per phase to the bench-trajectory file
//! (the repo-root `BENCH_milp.json` layout), so server throughput is
//! tracked alongside the solver ablations.

use ndp_bench::{append_bench_json, BenchRecord};
use ndp_serve::{JobOutcome, JobStatus, RequestSpec, ServerConfig, SolveServer};
use std::time::Instant;

fn spec(tasks: usize, seed: u64, deadline_ms: Option<u64>) -> RequestSpec {
    RequestSpec {
        tasks,
        mesh_side: 2,
        levels: 3,
        seed,
        threads: 2,
        deadline_ms,
        ..RequestSpec::default()
    }
}

/// A server-phase record in the solver-trajectory layout: solver-ablation
/// columns hold the solver defaults, `nodes`/`seconds` hold the phase
/// aggregate.
fn record(instance: &str, status: &str, nodes: u64, seconds: f64, threads: usize) -> BenchRecord {
    BenchRecord {
        instance: instance.into(),
        kernel: "sparse-lu".into(),
        pricing: "dse".into(),
        node_order: "best-bound".into(),
        warm_start: true,
        cuts: true,
        heuristics: true,
        propagation: true,
        threads,
        status: status.into(),
        nodes,
        pivots: 0,
        refactorizations: None,
        factor_seconds: None,
        strong_branch_seconds: None,
        warm_starts: 0,
        cold_starts: 0,
        cuts_applied: 0,
        heuristic_incumbents: 0,
        propagated_bounds: 0,
        gap: 0.0,
        dual_bound: f64::INFINITY,
        seconds,
        speedup: None,
        batch: false,
        portfolio: false,
        sweep_wall_seconds: None,
        branch_rule: None,
    }
}

fn outcome_line(out: &JobOutcome) {
    println!(
        "  job {:>2}  {:<10} nodes {:>6}  wall {:>8.1} ms  cache {}",
        out.id,
        out.status.name(),
        out.nodes,
        out.wall_ms,
        if out.cache_hit { "hit" } else { "miss" }
    );
}

fn main() {
    let mut jobs = 8usize;
    let mut runners = 2usize;
    let mut json: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {}", args[i]);
            std::process::exit(2);
        });
        match args[i].as_str() {
            "--jobs" => jobs = val.parse().expect("--jobs takes a count"),
            "--runners" => runners = val.parse().expect("--runners takes a count"),
            "--json" => json = Some(val.clone()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    let mut records: Vec<BenchRecord> = Vec::new();

    // Phase 1: identical pair — second request must be a cache hit with
    // zero solver nodes.
    println!("# phase 1: cache pair (1 runner)");
    let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 16 }, None);
    let started = Instant::now();
    let a = server.submit(spec(4, 3, Some(120_000))).expect("submit");
    let b = server.submit(spec(4, 3, Some(120_000))).expect("submit");
    let a = server.wait(a).expect("outcome a");
    let b = server.wait(b).expect("outcome b");
    let pair_seconds = started.elapsed().as_secs_f64();
    outcome_line(&a);
    outcome_line(&b);
    assert_eq!(a.status, JobStatus::Optimal, "first solve must be optimal");
    assert!(!a.cache_hit && a.nodes > 0, "first solve must actually search");
    assert_eq!(b.status, JobStatus::Optimal, "cached answer must keep the status");
    assert!(b.cache_hit, "second identical request must hit the cache");
    assert_eq!(b.nodes, 0, "cache hit must spend zero solver nodes");
    assert_eq!(b.objective_mj, a.objective_mj, "cache must replay the objective");
    let stats = server.stats();
    server.shutdown();
    println!(
        "  cache pair ok: {} -> 0 nodes, hits={} misses={}",
        a.nodes, stats.cache_hits, stats.cache_misses
    );
    records.push(record("serve-cache-pair", "Optimal", a.nodes, pair_seconds, 1));

    // Phase 2: mixed burst over the shared pool — sizes, seeds, one
    // mid-flight cancel, one tight deadline.
    println!("# phase 2: mixed load ({jobs} jobs, {runners} runners)");
    let server = SolveServer::start(ServerConfig { runners, queue_capacity: 64 }, None);
    let started = Instant::now();
    let mut ids = Vec::new();
    for j in 0..jobs {
        let tasks = 3 + j % 3;
        let deadline = if j == 1 { Some(40) } else { Some(120_000) };
        ids.push(server.submit(spec(tasks, 100 + j as u64, deadline)).expect("submit"));
    }
    if let Some(&victim) = ids.get(2) {
        std::thread::sleep(std::time::Duration::from_millis(5));
        server.cancel(victim);
    }
    let outcomes: Vec<JobOutcome> =
        ids.iter().map(|&id| server.wait(id).expect("outcome")).collect();
    let burst_seconds = started.elapsed().as_secs_f64();
    for out in &outcomes {
        outcome_line(out);
    }
    let stats = server.stats();
    server.shutdown();
    let solved = outcomes.iter().filter(|o| o.status == JobStatus::Optimal).count();
    let total_nodes: u64 = outcomes.iter().map(|o| o.nodes).sum();
    let throughput = outcomes.len() as f64 / burst_seconds;
    println!(
        "  {} jobs in {:.2} s ({:.2} jobs/s): {} optimal, {} cancelled, {} deadline, \
         pool_workers={}",
        outcomes.len(),
        burst_seconds,
        throughput,
        solved,
        outcomes.iter().filter(|o| o.status == JobStatus::Cancelled).count(),
        outcomes.iter().filter(|o| o.status == JobStatus::Deadline).count(),
        stats.pool_workers
    );
    records.push(record(
        &format!("serve-load-J{jobs}-R{runners}"),
        "Optimal",
        total_nodes,
        burst_seconds,
        runners,
    ));

    if let Some(path) = json {
        append_bench_json(&path, &records).expect("append --json output");
        println!("appended {} record(s) to {path}", records.len());
    }
}
