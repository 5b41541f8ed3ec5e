//! Thread-scaling of the exact branch-and-bound (`SolverOptions::threads`).
//!
//! Runs the Fig. 2 medium exact instance (M = 5 on the N = 4 mesh) at
//! 1/2/4/8 workers under a fixed per-solve time budget and reports node
//! throughput. The heuristic warm start is disabled so every run explores a
//! non-trivial tree, and the per-thread node counts show how evenly the
//! work-stealing pool spreads the search.
//!
//! Speedup is relative to `threads = 1` and is bounded by the host's
//! available parallelism (printed in the header): on a single-core host the
//! workers interleave and throughput stays flat.
//!
//! ```text
//! solver_threads [--pricing dse|dantzig] [--warm on|off]
//!                [--cuts on|off] [--json PATH] [--trace]
//! ```
//!
//! `--warm` toggles the *parent-basis* node warm start (not the heuristic
//! incumbent). `--cuts` toggles root cutting planes (on by default; turning
//! them off grows the tree, which is useful when probing pure node
//! throughput). `--json PATH` writes one record per (threads, seed) solve.
//! `--trace` streams solver events (presolve, root, incumbents, per-worker
//! stats, termination) to stderr while the table prints to stdout.

use ndp_bench::{
    parse_pricing, pricing_name, trace_observer, write_bench_json, BenchRecord, InstanceSpec,
};
use ndp_core::OptimalConfig;
use ndp_milp::{BranchRule, Pricing, SolverOptions};

fn main() {
    let mut trace = false;
    let mut pricing = Pricing::SteepestEdge;
    let mut warm = true;
    let mut cuts = true;
    let mut json: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace" {
            trace = true;
            i += 1;
            continue;
        }
        let val = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for {}", args[i]);
            std::process::exit(2);
        });
        match args[i].as_str() {
            "--pricing" => {
                pricing = parse_pricing(val).unwrap_or_else(|| {
                    eprintln!("--pricing takes dse|dantzig");
                    std::process::exit(2);
                })
            }
            "--warm" => {
                warm = match val.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => {
                        eprintln!("--warm takes on|off");
                        std::process::exit(2);
                    }
                }
            }
            "--cuts" => {
                cuts = match val.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => {
                        eprintln!("--cuts takes on|off");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => json = Some(val.clone()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 2;
    }

    let seeds: Vec<u64> = (0..3).collect();
    let time_limit = 2.0;
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "# Solver thread scaling (M=5, N=4, {time_limit} s budget per solve, \
         pricing={}, warm={warm}, cuts={cuts})",
        pricing_name(pricing)
    );
    println!("# host parallelism: {cores} core(s)");
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>10} {:>8}  nodes per worker (seed 0)",
        "threads", "nodes", "pivots", "s/solve", "nodes/s", "speedup"
    );
    let mut base_throughput = f64::NAN;
    let mut records: Vec<BenchRecord> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut nodes = 0u64;
        let mut pivots = 0u64;
        let mut total_seconds = 0.0;
        let mut spread = String::new();
        for &seed in &seeds {
            let problem = InstanceSpec::new(5, 2, 2.0, seed).build();
            let mut solver = SolverOptions::default()
                .branch_rule(BranchRule::MostFractional)
                .time_limit(time_limit)
                .threads(threads)
                .pricing(pricing)
                .warm_start(warm)
                .cuts(cuts);
            if trace {
                eprintln!("[trace] --- threads={threads} seed={seed} ---");
                solver = solver.observer(trace_observer());
            }
            solver.relative_gap = 1e-6;
            let cfg = OptimalConfig {
                warm_start_with_heuristic: false,
                solver,
                ..OptimalConfig::default()
            };
            let out = ndp_bench::session_for(&problem, &cfg).solve().expect("solve must not error");
            nodes += out.nodes;
            pivots += out.stats.simplex_iterations;
            total_seconds += out.solve_seconds;
            if seed == 0 {
                spread = format!("{:?}", out.nodes_per_thread);
            }
            records.push(BenchRecord {
                status: format!("{:?}", out.status),
                nodes: out.nodes,
                pivots: out.stats.simplex_iterations,
                refactorizations: Some(out.stats.refactorizations),
                factor_seconds: Some(out.stats.factor_seconds),
                strong_branch_seconds: Some(out.stats.strong_branch_seconds),
                warm_starts: out.stats.warm_starts,
                cold_starts: out.stats.cold_starts,
                cuts_applied: out.stats.cuts_applied,
                heuristic_incumbents: out.stats.heuristic_incumbents,
                propagated_bounds: out.stats.propagated_bounds,
                // Same formula as `Solution::gap`: relative to the incumbent,
                // infinite (→ null in JSON) when none was found.
                gap: match out.objective_mj {
                    Some(obj) => (obj - out.best_bound_mj).abs() / obj.abs().max(1.0),
                    None => f64::INFINITY,
                },
                dual_bound: out.best_bound_mj,
                seconds: out.solve_seconds,
                ..BenchRecord::configured(format!("M5-N4-seed{seed}"), &cfg.solver)
            });
        }
        let throughput = nodes as f64 / total_seconds;
        if threads == 1 {
            base_throughput = throughput;
        }
        let speedup = throughput / base_throughput;
        println!(
            "{threads:>8} {nodes:>10} {pivots:>12} {:>10.3} {throughput:>10.1} {speedup:>7.2}x  {spread}",
            total_seconds / seeds.len() as f64,
        );
    }
    if let Some(path) = json {
        write_bench_json(&path, &records).expect("write --json output");
        println!("wrote {} record(s) to {path}", records.len());
    }
}
