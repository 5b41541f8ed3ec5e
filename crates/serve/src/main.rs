//! `ndp-serve` binary: the multi-tenant deployment-solve server over
//! stdin/stdout.
//!
//! Default mode reads one protocol command per line from stdin and writes
//! response lines to stdout (see [`ndp_serve::handle_line`] for the
//! command set):
//!
//! ```text
//! $ cargo run --release -p ndp-serve
//! solve id=1 tasks=4 mesh=2 seed=3 deadline_ms=60000
//! ack id=1
//! done id=1 status=optimal nodes=17 wall_ms=41.0 cache=miss objective_mj=...
//! shutdown
//! bye
//! ```
//!
//! `--smoke` runs the self-contained CI exercise instead: two identical
//! requests (the second must be a cache hit with zero solver nodes), one
//! cancelled request, and one request whose deadline expires mid-search
//! (it must end `deadline` or `feasible`, never `failed`), then a clean
//! shutdown; exits non-zero on any violated expectation.

use ndp_serve::{
    handle_line, JobStatus, OutputSink, RequestSpec, ServerConfig, SolveServer, PROTOCOL,
};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn serve_stdio() -> ExitCode {
    let stdout_sink: OutputSink = Arc::new(|line: &str| {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    });
    let server = SolveServer::start(ServerConfig::default(), Some(stdout_sink));
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if !handle_line(&server, &line) {
            return ExitCode::SUCCESS;
        }
    }
    // EOF without an explicit shutdown command: stop cleanly anyway.
    server.shutdown();
    ExitCode::SUCCESS
}

fn smoke() -> ExitCode {
    // One runner makes the cache interaction deterministic: job 1 finishes
    // (and populates the cache) before job 2 is dequeued.
    let server = SolveServer::start(ServerConfig { runners: 1, queue_capacity: 8 }, None);
    let spec = RequestSpec {
        tasks: 4,
        mesh_side: 2,
        levels: 3,
        seed: 3,
        threads: 2,
        deadline_ms: Some(120_000),
        ..RequestSpec::default()
    };

    let first = server.submit(spec.clone()).expect("submit first");
    let second = server.submit(spec.clone()).expect("submit second");
    let third = server.submit(spec).expect("submit third");
    server.cancel(third);

    let first = server.wait(first).expect("first outcome");
    let second = server.wait(second).expect("second outcome");
    let third = server.wait(third).expect("third outcome");
    // Submitted to the idle runner, so the deadline expires mid-search,
    // not in the queue. The heuristic finds no deployment at this horizon,
    // so the search has none when the deadline stops it.
    let tight = RequestSpec {
        tasks: 8,
        alpha: 0.5,
        seed: 2,
        threads: 1,
        deadline_ms: Some(100),
        ..RequestSpec::default()
    };
    let fourth = server.submit(tight).expect("submit fourth");
    let fourth = server.wait(fourth).expect("fourth outcome");
    let stats = server.stats();
    server.shutdown();

    let mut failures = Vec::new();
    if first.status != JobStatus::Optimal {
        failures.push(format!("first job not optimal: {:?}", first.status));
    }
    if first.cache_hit {
        failures.push("first job must be a cache miss".into());
    }
    if second.status != JobStatus::Optimal {
        failures.push(format!("second job not optimal: {:?}", second.status));
    }
    if !second.cache_hit {
        failures.push("second (identical) job must be a cache hit".into());
    }
    if second.nodes != 0 {
        failures.push(format!("cache hit spent {} solver nodes", second.nodes));
    }
    if second.objective_mj != first.objective_mj {
        failures.push("cached objective differs from the solved one".into());
    }
    // The cancel can only lose the race if the single runner reached job 3
    // before this process issued the cancel — impossible here, since both
    // happen before wait(); still, a cache-served Optimal is tolerated to
    // keep the smoke test robust on slow machines.
    if !matches!(third.status, JobStatus::Cancelled | JobStatus::Optimal) {
        failures.push(format!("third job unexpected status: {:?}", third.status));
    }
    if stats.cache_hits < 1 {
        failures.push(format!("expected ≥1 cache hit, saw {}", stats.cache_hits));
    }
    if !matches!(fourth.status, JobStatus::Deadline | JobStatus::Feasible) {
        failures.push(format!(
            "deadline-stopped job reported {:?} ({:?})",
            fourth.status, fourth.error
        ));
    }
    if stats.completed != 4 {
        failures.push(format!("expected 4 completed jobs, saw {}", stats.completed));
    }

    if failures.is_empty() {
        println!(
            "smoke ok: miss->hit nodes {}->{} wall_ms {:.1}->{:.1} third={} fourth={} \
             ({} nodes, {:.1} ms) cache_hits={} pool_workers={}",
            first.nodes,
            second.nodes,
            first.wall_ms,
            second.wall_ms,
            third.status.name(),
            fourth.status.name(),
            fourth.nodes,
            fourth.wall_ms,
            stats.cache_hits,
            stats.pool_workers
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("smoke FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("--help" | "-h") => {
            println!(
                "ndp-serve — multi-tenant deployment-solve server\n\n\
                 USAGE:\n  ndp-serve            read protocol lines from stdin\n  \
                 ndp-serve --smoke    run the self-test (2 identical jobs, 1 cancel, \
                 1 deadline stop)\n\nPROTOCOL:\n{PROTOCOL}"
            );
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown argument: {other} (try --help)");
            ExitCode::FAILURE
        }
        None => serve_stdio(),
    }
}
