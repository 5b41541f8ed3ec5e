//! The repository benchmark: three closed-loop workloads over the public
//! API of `ndp-core`, with every answer checked.
//!
//! ```text
//! perfbench --workload <exact|heuristic|redeploy> [--seed N] [--seconds S]
//!           [--trace 0|1] [--spans PATH]
//! perfbench golden
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! operation list twice in one process, untraced then traced, asserts that
//! the work counters repeat exactly (the determinism check), and prints the
//! per-layer metrics plus the tracing overhead; `--spans` writes the spans
//! as JSON lines. `golden` prints the table of proven optima the checks
//! compare against. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod exact;
mod heuristic;
mod instances;
mod redeploy;
mod stats;
mod trace;
mod workload;
mod yardstick;

use instances::{show_answer, Golden};
use stats::{geomean, harrell_davis, Samples};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use trace::{self_times, Tracer};
use workload::Pass;

/// The seed the golden table's session answers were recorded with.
const DEFAULT_SEED: u64 = 1;
/// The run length the operation counts are sized for.
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Exact,
    Heuristic,
    Redeploy,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "exact" => Some(Workload::Exact),
            "heuristic" => Some(Workload::Heuristic),
            "redeploy" => Some(Workload::Redeploy),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Exact => "exact",
            Workload::Heuristic => "heuristic",
            Workload::Redeploy => "redeploy",
        }
    }

    /// The tail percentile `tail_ms` reports: the highest of p75 and p90
    /// that keeps ten samples beyond it at the default run length (60 and
    /// 74 operations for `exact` and `redeploy`, 375 for `heuristic`).
    fn tail(self) -> f64 {
        match self {
            Workload::Exact | Workload::Redeploy => 75.0,
            Workload::Heuristic => 90.0,
        }
    }

    /// Set-up repetitions of an untraced run, split around the timed
    /// phase; `setup_s` is their median. `redeploy`'s set-up (four base
    /// proofs, about 2.5 s) gets fewer to keep the run short.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Redeploy => 3,
            Workload::Exact | Workload::Heuristic => 5,
        }
    }

    /// Operations of one run at the default run length.
    #[cfg(test)]
    fn default_ops(self) -> usize {
        match self {
            Workload::Exact => exact::M2_OPS + exact::M3_OPS,
            Workload::Heuristic => heuristic::OPS_PER_SIZE * heuristic::SIZES.len(),
            Workload::Redeploy => {
                redeploy::SESSIONS * redeploy::EVENTS_PER_SESSION + redeploy::ARRIVALS
            }
        }
    }

    /// Whether per-layer metric `name` is a layer that works during this
    /// workload's timed phase where the benchmark cannot see it: inside a
    /// session call (the heuristic warm start, a rebuild on task arrival).
    /// Such a metric reads `UNMEASURED`, not a 0 that would mean "no work".
    fn unmeasured(self, name: &str) -> bool {
        let warm_start = name.starts_with("core.heuristic");
        match self {
            Workload::Exact => warm_start,
            Workload::Heuristic => false,
            Workload::Redeploy => {
                warm_start || matches!(name, "core.problem_ms" | "core.session.build_ms")
            }
        }
    }

    fn run(
        self,
        seed: u64,
        seconds: f64,
        tracer: &Arc<Tracer>,
        golden: &Golden,
        reps: usize,
    ) -> Pass {
        let mut pass = match self {
            Workload::Exact => exact::run(seed, seconds, tracer, golden, reps),
            Workload::Heuristic => heuristic::run(seed, seconds, tracer, reps),
            Workload::Redeploy => redeploy::run(seed, seconds, tracer, golden, reps),
        };
        pass.spans = tracer.spans();
        pass
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.first().map(String::as_str) == Some("golden") {
        return Ok(None);
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut spans) =
        (DEFAULT_SEED, DEFAULT_SECONDS, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace, spans }))
}

/// The value of a per-layer metric the workload cannot measure.
const UNMEASURED: f64 = -1.0;

/// Samples ranked above the nearest-rank `q` quantile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

/// The median adjusted set-up of the run.
fn setup_s(pass: &Pass) -> f64 {
    harrell_davis(&pass.adjusted_setups_s(), 0.5).unwrap_or(0.0)
}

/// The end-to-end metrics; every timing is adjusted to a host at
/// reference speed (see `yardstick`).
fn end_to_end(w: Workload, pass: &Pass) -> Vec<Metric> {
    let latencies = pass.adjusted_latencies_ms();
    let n = latencies.len();
    let p50 = harrell_davis(&latencies, 0.5).unwrap_or(0.0);
    let tail = harrell_davis(&latencies, w.tail() / 100.0).unwrap_or(0.0);
    let busy_s = latencies.iter().sum::<f64>() / 1e3;
    vec![
        metric("setup_s", setup_s(pass), "s"),
        metric("ops_per_s", n as f64 / busy_s, "1/s"),
        metric("p50_ms", p50, "ms"),
        metric("tail_ms", tail, "ms"),
        metric("ok_share", pass.tally.ok_share(), "share"),
        metric("energy_rel", geomean(&pass.energy_ratios).unwrap_or(0.0), "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// How a per-layer metric is reduced from the pass.
enum Agg {
    /// Sum of the samples recorded under the metric's name.
    Sum,
    /// Mean of the samples recorded under the metric's name.
    Mean,
    /// Median yardstick reading around the pass's operations, ms.
    Yardstick,
    /// Mean self time per call of the named span, in ms.
    SelfMs(&'static str),
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// bypasses reads 0 there; one it cannot see reads `UNMEASURED`.
const PER_LAYER: &[(&str, &str, Agg)] = &[
    ("milp.heuristics_s", "s", Agg::Sum),
    ("milp.heuristic_incumbents", "count", Agg::Sum),
    ("milp.simplex_s", "s", Agg::Sum),
    ("milp.factor_s", "s", Agg::Sum),
    ("milp.pivots", "count", Agg::Sum),
    ("milp.refactorizations", "count", Agg::Sum),
    ("milp.pivots_per_node", "ratio", Agg::Mean),
    ("milp.refactorizations_per_node", "ratio", Agg::Mean),
    ("milp.warm_share", "share", Agg::Mean),
    ("milp.nodes", "count", Agg::Sum),
    ("milp.strong_branch_probes", "count", Agg::Sum),
    ("milp.cuts_s", "s", Agg::Sum),
    ("milp.cuts_applied", "count", Agg::Sum),
    ("milp.cut_yield", "share", Agg::Mean),
    ("milp.propagate_s", "s", Agg::Sum),
    ("milp.presolve_s", "s", Agg::Sum),
    ("milp.other_s", "s", Agg::Sum),
    ("core.heuristic.phase1_ms", "ms", Agg::SelfMs("core.heuristic.phase1")),
    ("core.heuristic.phase2_ms", "ms", Agg::SelfMs("core.heuristic.phase2")),
    ("core.heuristic.phase3_ms", "ms", Agg::SelfMs("core.heuristic.phase3")),
    ("core.heuristic_ms", "ms", Agg::SelfMs("core.heuristic")),
    ("taskset.generate_ms", "ms", Agg::SelfMs("taskset.generate")),
    ("noc.build_ms", "ms", Agg::SelfMs("noc.build")),
    ("core.problem_ms", "ms", Agg::SelfMs("core.problem")),
    ("core.session.build_ms", "ms", Agg::SelfMs("core.session.encoding")),
    ("core.formulation.vars", "count", Agg::Mean),
    ("core.formulation.rows", "count", Agg::Mean),
    ("core.session.solve_ms", "ms", Agg::SelfMs("core.session.solve")),
    ("core.session.apply_ms", "ms", Agg::SelfMs("core.session.apply")),
    ("core.session.resolve_ms.deadline", "ms", Agg::Mean),
    ("core.session.resolve_ms.fault", "ms", Agg::Mean),
    ("core.session.resolve_ms.relax", "ms", Agg::Mean),
    ("core.session.resolve_ms.arrival", "ms", Agg::Mean),
    ("core.session.zero_node_share", "share", Agg::Mean),
    ("core.session.incremental", "count", Agg::Sum),
    ("core.session.cold_restarts", "count", Agg::Sum),
    ("core.session.rebuilds", "count", Agg::Sum),
    ("core.validate_ms", "ms", Agg::SelfMs("core.validate")),
    ("host.yardstick_ms", "ms", Agg::Yardstick),
];

fn per_layer(w: Workload, pass: &Pass) -> Vec<Metric> {
    let own = self_times(&pass.spans);
    let mut by_span = Samples::default();
    for (s, own) in pass.spans.iter().zip(own) {
        by_span.push(s.name, own * 1e3);
    }
    PER_LAYER
        .iter()
        .map(|(name, unit, agg)| {
            let value = match agg {
                _ if w.unmeasured(name) => UNMEASURED,
                Agg::Sum => pass.layers.sum(name),
                Agg::Mean => pass.layers.mean(name),
                Agg::Yardstick => harrell_davis(&pass.yardstick_ms, 0.5).unwrap_or(0.0),
                Agg::SelfMs(span) => by_span.mean(span),
            };
            metric(name, value, unit)
        })
        .collect()
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest representation that round-trips: all digits.
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_failures(pass: &Pass) {
    for (op, cause) in pass.tally.failures() {
        println!("FAILED {op}: {cause}");
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        if m.value == UNMEASURED {
            println!("  {:<34} {:>14} {}", m.name, "unmeasured", m.unit);
        } else {
            println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
}

fn print_unchecked(golden: &Golden) {
    if golden.unchecked() > 0 {
        println!(
            "  {} proven answers had no golden entry: the table covers runs of {DEFAULT_SECONDS} s",
            golden.unchecked()
        );
    }
}

fn run(args: &Args) {
    // The session histories in the golden table depend on the operation
    // counts, so a missing entry fails only at the default run length.
    let golden = Golden::load(args.seconds == DEFAULT_SECONDS);
    let w = args.workload;
    let (seed, seconds) = (args.seed, args.seconds);
    if !args.trace {
        let pass = w.run(seed, seconds, &Arc::new(Tracer::new(false)), &golden, w.setup_reps());
        let metrics = end_to_end(w, &pass);
        let n = pass.latencies_ms.len();
        let setups: Vec<String> = pass.setup_s.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "{} seed={seed}: {n} ops; tail_ms is p{} with {} samples beyond",
            w.name(),
            w.tail(),
            beyond(n, w.tail() / 100.0)
        );
        println!(
            "  wall clock: timed phase {:.3} s ({:.4} ops/s, p50 {:.3} ms); set-ups {} s",
            pass.timed_s,
            n as f64 / pass.timed_s,
            harrell_davis(&pass.latencies_ms, 0.5).unwrap_or(0.0),
            setups.join(" ")
        );
        println!(
            "  yardstick: median {:.4} ms around the operations; timings below are scaled to {} ms",
            harrell_davis(&pass.yardstick_ms, 0.5).unwrap_or(0.0),
            yardstick::REFERENCE_MS
        );
        println!(
            "  failed_share {:.6} ({} of {})",
            1.0 - pass.tally.ok_share(),
            pass.tally.failed(),
            pass.tally.attempted()
        );
        print_failures(&pass);
        print_unchecked(&golden);
        print_metrics(&metrics);
        let failed = pass.tally.failed();
        println!("{}", result_line(failed == 0, pass.tally.attempted(), failed, &metrics));
        return;
    }
    let plain = w.run(seed, seconds, &Arc::new(Tracer::new(false)), &golden, 1);
    let traced = w.run(seed, seconds, &Arc::new(Tracer::new(true)), &golden, 1);
    let differ = plain.counters.len().abs_diff(traced.counters.len())
        + plain.counters.iter().zip(&traced.counters).filter(|(a, b)| a != b).count();
    for (a, b) in plain.counters.iter().zip(&traced.counters).filter(|(a, b)| a != b).take(5) {
        println!("NOT REPEATED: {a}  vs  {b}");
    }
    println!(
        "{} seed={seed}: determinism check: {} of {} counter records repeat exactly",
        w.name(),
        plain.counters.len() - differ.min(plain.counters.len()),
        plain.counters.len()
    );
    // Adjusted busy time, so that host drift between the passes cancels.
    let busy_s = |p: &Pass| p.adjusted_latencies_ms().iter().sum::<f64>() / 1e3;
    let overhead = (busy_s(&traced) / busy_s(&plain) - 1.0) * 100.0;
    println!(
        "  untraced {:.3} s, traced {:.3} s (adjusted busy time; wall {:.3} s and {:.3} s) over {} ops and {} spans",
        busy_s(&plain),
        busy_s(&traced),
        plain.timed_s,
        traced.timed_s,
        traced.latencies_ms.len(),
        traced.spans.len()
    );
    print_failures(&plain);
    print_failures(&traced);
    if let Some(path) = &args.spans {
        let write = std::path::Path::new(path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, trace::to_json_lines(&traced.spans)));
        if let Err(e) = write {
            eprintln!("cannot write spans to {path}: {e}");
        }
    }
    print_unchecked(&golden);
    let mut metrics = per_layer(w, &traced);
    metrics.push(metric("trace.overhead_pct", overhead, "%"));
    print_metrics(&metrics);
    let failed = plain.tally.failed() + traced.tally.failed() + differ as u64;
    let attempted = plain.tally.attempted() + traced.tally.attempted();
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
}

/// Records every proven answer the checks compare against: each catalog
/// graph at every `α`, and the session answers of the default seed.
fn golden() {
    let empty = Golden::parse("").expect("empty table");
    let off = Arc::new(Tracer::new(false));
    let mut answers: BTreeMap<String, Option<f64>> =
        exact::catalog_answers(&empty).into_iter().collect();
    let pass = Workload::Redeploy.run(DEFAULT_SEED, DEFAULT_SECONDS, &off, &empty, 1);
    assert_eq!(pass.tally.failed(), 0, "redeploy failed while recording");
    answers.extend(pass.answers);
    println!("# Proven optima (mJ) recorded from the seed commit with `perfbench golden`:");
    println!("# every catalog graph at every alpha, and the seed-{DEFAULT_SEED} session events.");
    for (key, answer) in answers {
        println!("{key} = {}", show_answer(answer));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(None) => {
            golden();
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => {
            run(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tail_has_ten_samples_beyond_it_at_the_default_run_length() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(40, 0.75), 10);
        assert_eq!(beyond(39, 0.75), 9);
        assert_eq!(beyond(1, 0.9), 0);
        for w in [Workload::Exact, Workload::Heuristic, Workload::Redeploy] {
            let n = w.default_ops();
            assert!(beyond(n, w.tail() / 100.0) >= 10, "{}: {n} ops", w.name());
        }
    }
}
