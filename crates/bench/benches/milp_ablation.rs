//! Ablation: how solver design choices (branch rule, node order, warm
//! start) affect the exact arm. Called out in DESIGN.md §4.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndp_bench::InstanceSpec;
use ndp_core::{DeployObjective, MilpEncoding, OptimalConfig, PathMode};
use ndp_milp::{BranchRule, NodeOrder, SolverOptions};

fn branch_rules(c: &mut Criterion) {
    let problem = InstanceSpec::new(3, 2, 2.0, 5).build();
    let mut group = c.benchmark_group("milp-branch-rule");
    group.sample_size(10);
    for (name, rule) in
        [("most-fractional", BranchRule::MostFractional), ("reliability", BranchRule::Reliability)]
    {
        let cfg = OptimalConfig {
            solver: SolverOptions::default().time_limit(4.0).branch_rule(rule),
            ..OptimalConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("rule", name), &cfg, |b, cfg| {
            b.iter(|| ndp_bench::session_for(&problem, cfg).solve())
        });
    }
    group.finish();
}

fn node_orders(c: &mut Criterion) {
    let problem = InstanceSpec::new(3, 2, 2.0, 5).build();
    let mut group = c.benchmark_group("milp-node-order");
    group.sample_size(10);
    for (name, order) in [("dfs", NodeOrder::DepthFirst), ("best-bound", NodeOrder::BestBound)] {
        let cfg = OptimalConfig {
            solver: SolverOptions::default().time_limit(4.0).node_order(order),
            ..OptimalConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("order", name), &cfg, |b, cfg| {
            b.iter(|| ndp_bench::session_for(&problem, cfg).solve())
        });
    }
    group.finish();
}

fn warm_start_effect(c: &mut Criterion) {
    let problem = InstanceSpec::new(3, 2, 2.0, 5).build();
    let mut group = c.benchmark_group("milp-warm-start");
    group.sample_size(10);
    for (name, warm) in [("with-heuristic-seed", true), ("cold", false)] {
        let cfg = OptimalConfig {
            warm_start_with_heuristic: warm,
            solver: SolverOptions::default().time_limit(4.0),
            ..OptimalConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("seed", name), &cfg, |b, cfg| {
            b.iter(|| ndp_bench::session_for(&problem, cfg).solve())
        });
    }
    group.finish();
}

fn encoding_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp-encoding-build");
    for m in [4usize, 8, 12] {
        let problem = InstanceSpec::new(m, 2, 2.0, 5).build();
        group.bench_with_input(BenchmarkId::new("build", m), &problem, |b, p| {
            b.iter(|| MilpEncoding::build(p, PathMode::Multi, DeployObjective::BalanceEnergy))
        });
    }
    group.finish();
}

criterion_group!(benches, branch_rules, node_orders, warm_start_effect, encoding_build);
criterion_main!(benches);
