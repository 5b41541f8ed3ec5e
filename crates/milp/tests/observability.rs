//! Integration tests of the observer event stream, per-phase solve
//! statistics and cooperative cancellation.

mod common;

use common::{hard_knapsack, recording_observer, small_mip};
use ndp_milp::{
    BranchRule, CancelToken, SolveStatus, SolverEvent, SolverOptions, TerminationReason,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn event_stream_has_the_canonical_order() {
    let (events, obs) = recording_observer();
    let opts = SolverOptions::default().threads(1).observer(obs);
    let sol = small_mip().solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Optimal);

    let events = events.lock().unwrap();
    let pos = |pred: &dyn Fn(&SolverEvent) -> bool| events.iter().position(pred);
    let presolve = pos(&|e| matches!(e, SolverEvent::Presolve { .. })).expect("presolve event");
    let root = pos(&|e| matches!(e, SolverEvent::RootRelaxation { .. })).expect("root event");
    let incumbent = pos(&|e| matches!(e, SolverEvent::Incumbent { .. })).expect("incumbent event");
    let stats = pos(&|e| matches!(e, SolverEvent::ThreadStats { .. })).expect("thread stats");
    let term = pos(&|e| matches!(e, SolverEvent::Terminated { .. })).expect("terminated event");

    assert!(presolve < root, "presolve before root");
    assert!(root < incumbent, "root before the first incumbent");
    assert!(stats < term, "per-worker stats before termination");
    // Heuristics run on the root box before the search: every
    // HeuristicIncumbent event must land in the presolve..root window.
    for (i, e) in events.iter().enumerate() {
        if matches!(e, SolverEvent::HeuristicIncumbent { .. }) {
            assert!(presolve < i && i < root, "heuristic incumbent outside presolve..root");
        }
    }
    assert_eq!(term, events.len() - 1, "terminated is the final event");
    assert_eq!(
        events.iter().filter(|e| matches!(e, SolverEvent::Terminated { .. })).count(),
        1,
        "exactly one terminated event"
    );
    match &events[term] {
        SolverEvent::Terminated { status, reason } => {
            assert_eq!(*status, SolveStatus::Optimal);
            assert_eq!(*reason, TerminationReason::GapClosed);
        }
        other => panic!("unexpected final event {other:?}"),
    }
}

/// Cut rounds run on the root box before the search: every
/// [`SolverEvent::CutRound`] must land after presolve and before the root
/// relaxation event, with rounds numbered 1, 2, … and the applied count
/// never exceeding the generated count.
#[test]
fn cut_round_events_precede_the_root_and_are_well_formed() {
    let (events, obs) = recording_observer();
    let opts = SolverOptions::default().threads(1).cuts(true).observer(obs);
    let sol = hard_knapsack(14).solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Optimal);

    let events = events.lock().unwrap();
    let presolve = events
        .iter()
        .position(|e| matches!(e, SolverEvent::Presolve { .. }))
        .expect("presolve event");
    let root = events
        .iter()
        .position(|e| matches!(e, SolverEvent::RootRelaxation { .. }))
        .expect("root event");
    let rounds: Vec<(usize, u32, usize, usize)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            SolverEvent::CutRound { round, generated, applied, .. } => {
                Some((i, *round, *generated, *applied))
            }
            _ => None,
        })
        .collect();
    assert!(!rounds.is_empty(), "fixture must emit cut rounds");
    assert!(sol.stats().cuts_applied > 0, "fixture must apply cuts");
    for (k, &(pos, round, generated, applied)) in rounds.iter().enumerate() {
        assert!(presolve < pos && pos < root, "cut round outside presolve..root window");
        assert_eq!(round as usize, k + 1, "rounds must be numbered from 1");
        assert!(applied <= generated, "applied {applied} > generated {generated}");
    }
}

#[test]
fn serial_event_stream_is_deterministic() {
    let run = || {
        let (events, obs) = recording_observer();
        let opts = SolverOptions::default().threads(1).observer(obs);
        small_mip().solve_with(&opts).unwrap();
        let e = events.lock().unwrap();
        e.iter().map(|ev| format!("{ev:?}")).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "threads = 1 must replay the identical event sequence");
}

/// Determinism must survive in-tree separation: `CutRound` is
/// timestamp-free and the cover separator is deterministic, so a serial
/// solve with cuts at every depth replays bit-for-bit. The fixture applies
/// cuts in the tree, beyond the root loop's.
#[test]
fn serial_event_stream_is_deterministic_with_tree_cuts() {
    let root_only = SolverOptions::default().threads(1).cuts(true);
    let root_cuts = hard_knapsack(14).solve_with(&root_only).unwrap().stats().cuts_applied;
    let run = || {
        let (events, obs) = recording_observer();
        let opts = root_only.clone().cut_node_interval(1).observer(obs);
        let sol = hard_knapsack(14).solve_with(&opts).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!(sol.stats().cuts_applied > root_cuts, "fixture must cut in the tree");
        let e = events.lock().unwrap();
        e.iter().map(|ev| format!("{ev:?}")).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "in-tree cuts broke serial determinism");
}

#[test]
fn incumbent_events_report_shrinking_gap_on_maximization() {
    let (events, obs) = recording_observer();
    let opts = SolverOptions::default().threads(1).observer(obs);
    let sol = small_mip().solve_with(&opts).unwrap();
    let events = events.lock().unwrap();
    let incumbents: Vec<(f64, f64)> = events
        .iter()
        .filter_map(|e| match e {
            SolverEvent::Incumbent { objective, gap, .. } => Some((*objective, *gap)),
            _ => None,
        })
        .collect();
    assert!(!incumbents.is_empty());
    // Maximization: each accepted incumbent strictly improves the objective,
    // and the reported global gap never widens (the dual bound only
    // tightens as subtrees close).
    for pair in incumbents.windows(2) {
        assert!(pair[1].0 > pair[0].0, "incumbents must improve: {incumbents:?}");
        assert!(pair[1].1 <= pair[0].1 + 1e-9, "gap must not widen: {incumbents:?}");
    }
    let last = incumbents.last().unwrap();
    assert!((last.0 - sol.objective_value()).abs() < 1e-9);
    // The root heuristics report on the same user scale: any heuristic
    // incumbent must not beat the final optimum of a maximization.
    for e in events.iter() {
        if let SolverEvent::HeuristicIncumbent { objective, .. } = e {
            assert!(*objective <= sol.objective_value() + 1e-9);
        }
    }
}

/// Probe time is reported only where reliability branching probes, and a
/// serial solve cannot spend more of its wall time probing than it took.
#[test]
fn strong_branch_seconds_cover_only_probe_passes() {
    let solve = |rule: BranchRule| {
        let opts = SolverOptions::default().threads(1).branch_rule(rule);
        *hard_knapsack(14).solve_with(&opts).unwrap().stats()
    };
    let plain = solve(BranchRule::MostFractional);
    assert_eq!((plain.strong_branch_probes, plain.strong_branch_seconds), (0, 0.0));
    let probed = solve(BranchRule::Reliability);
    assert!(probed.strong_branch_probes > 0, "reliability branching must probe here");
    assert!(
        probed.strong_branch_seconds > 0.0 && probed.strong_branch_seconds <= probed.total_seconds,
        "{} s probing in a {} s solve",
        probed.strong_branch_seconds,
        probed.total_seconds
    );
}

/// Probe sides refuted by the incumbent are counted: never without
/// probes, and at least once on a reliability solve warm-started at its own
/// optimum, where no probe side can beat the incumbent.
#[test]
fn strong_branch_cutoffs_count_probe_sides_refuted_by_the_incumbent() {
    let model = hard_knapsack(14);
    let opts = |rule: BranchRule| SolverOptions::default().threads(1).branch_rule(rule);
    let plain = model.solve_with(&opts(BranchRule::MostFractional)).unwrap();
    assert_eq!(plain.stats().strong_branch_cutoffs, 0);
    let optimum = model.solve_with(&opts(BranchRule::Reliability)).unwrap();
    assert_eq!(optimum.status(), SolveStatus::Optimal);
    let mut warm = model.clone();
    warm.set_warm_start(optimum.values().to_vec()).unwrap();
    let sol = warm.solve_with(&opts(BranchRule::Reliability)).unwrap();
    assert_eq!(sol.objective_value(), optimum.objective_value());
    let st = sol.stats();
    assert!(
        st.strong_branch_cutoffs > 0 && st.strong_branch_cutoffs <= st.strong_branch_probes,
        "{} cutoffs for {} probes",
        st.strong_branch_cutoffs,
        st.strong_branch_probes
    );
}

#[test]
fn stats_buckets_are_consistent() {
    let opts = SolverOptions::default().threads(1);
    let sol = hard_knapsack(14).solve_with(&opts).unwrap();
    let st = sol.stats();
    assert!(st.total_seconds > 0.0);
    assert!(st.presolve_seconds >= 0.0);
    assert!(st.simplex_seconds >= 0.0);
    assert!(st.factor_seconds >= 0.0);
    assert!(st.separation_seconds >= 0.0);
    assert!(st.heuristic_seconds >= 0.0);
    assert!(st.propagation_seconds >= 0.0);
    assert!(st.other_seconds() >= 0.0);
    assert!(st.cuts_generated >= st.cuts_applied);
    assert!(st.heuristic_incumbents <= st.incumbents);
    // Serial: the measured phases are disjoint slices of the wall clock.
    let attributed = st.presolve_seconds
        + st.simplex_seconds
        + st.factor_seconds
        + st.separation_seconds
        + st.heuristic_seconds
        + st.propagation_seconds;
    assert!(
        attributed <= st.total_seconds * 1.05 + 1e-3,
        "attributed {attributed} vs total {}",
        st.total_seconds
    );
    assert_eq!(st.nodes, sol.node_count());
    assert_eq!(st.simplex_iterations, sol.simplex_iterations());
    assert!(st.incumbents >= 1);
    assert_eq!(st.steals, 0, "serial solves cannot steal");
    assert!((st.total_seconds - sol.solve_seconds()).abs() < 1e-9);
}

/// The accelerator events must reconcile exactly with the solve counters:
/// one `HeuristicIncumbent` per accepted heuristic point, and
/// `NodePropagated` tightenings summing to the `propagated_bounds` counter.
/// Whether the root dive rounds to a packable point on one knapsack depends
/// on the root LP vertex, so the check runs over several sizes
/// and requires at least one heuristic incumbent and one propagation event
/// over the list.
#[test]
fn accelerator_events_match_the_solve_counters() {
    let (mut heuristic_total, mut propagation_events) = (0, 0);
    for items in [11, 14, 18] {
        let (events, obs) = recording_observer();
        let opts = SolverOptions::default().threads(1).observer(obs);
        let sol = hard_knapsack(items).solve_with(&opts).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        let st = sol.stats();
        let events = events.lock().unwrap();

        let heuristic_events =
            events.iter().filter(|e| matches!(e, SolverEvent::HeuristicIncumbent { .. })).count();
        assert_eq!(heuristic_events as u64, st.heuristic_incumbents, "{items} items");
        heuristic_total += st.heuristic_incumbents;

        let mut tightened_sum: u64 = 0;
        let mut fathom_events: u64 = 0;
        for e in events.iter() {
            if let SolverEvent::NodePropagated { tightened, fathomed, .. } = e {
                assert!(*tightened > 0 || *fathomed, "vacuous propagation event");
                tightened_sum += u64::from(*tightened);
                if *fathomed {
                    fathom_events += 1;
                }
                propagation_events += 1;
            }
        }
        assert_eq!(tightened_sum, st.propagated_bounds, "{items} items");
        assert_eq!(fathom_events, st.propagation_fathoms, "{items} items");
    }
    assert!(heuristic_total >= 1, "the dive must find a packable point");
    assert!(propagation_events >= 1, "propagation must tighten a node");
}

/// Turning every accelerator on must keep the serial stream bit-for-bit
/// reproducible — the dive uses a fixed seed, propagation is pure
/// arithmetic, and reliability branching's probes are deterministic.
#[test]
fn serial_event_stream_is_deterministic_with_all_accelerators() {
    let run = || {
        let (events, obs) = recording_observer();
        let opts = SolverOptions::default()
            .threads(1)
            .cuts(true)
            .cut_node_interval(1)
            .heuristics(true)
            .propagation(true)
            .observer(obs);
        let sol = hard_knapsack(14).solve_with(&opts).unwrap();
        assert_eq!(sol.status(), SolveStatus::Optimal);
        // The default reliability branching probes here, so the stream
        // covers strong branching and cut rounds too.
        assert!(sol.stats().strong_branch_probes > 0, "reliability branching must probe");
        assert!(sol.stats().cuts_applied > 0, "the fixture must apply cuts");
        let e = events.lock().unwrap();
        e.iter().map(|ev| format!("{ev:?}")).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "accelerators broke serial determinism");
}

/// Cancels the solve from inside the observer after `after` node events,
/// which guarantees the token fires mid-search.
fn cancel_after_nodes(token: &CancelToken, after: u64) -> Arc<dyn ndp_milp::Observer> {
    let seen = AtomicU64::new(0);
    let token = token.clone();
    Arc::new(move |e: &SolverEvent| {
        if matches!(e, SolverEvent::NodeExplored { .. })
            && seen.fetch_add(1, Ordering::Relaxed) + 1 == after
        {
            token.cancel();
        }
    })
}

#[test]
fn cancellation_mid_solve_serial_returns_best_incumbent() {
    let token = CancelToken::new();
    let mut model = hard_knapsack(26);
    // Feasible warm start (nothing packed) so an incumbent always exists.
    model.set_warm_start(vec![0.0; 26]).unwrap();
    let opts = SolverOptions::default()
        .threads(1)
        .observer(cancel_after_nodes(&token, 20))
        .cancel_token(token.clone());
    let sol = model.solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Interrupted, "nodes: {}", sol.node_count());
    assert!(sol.has_incumbent());
    assert!(!sol.values().is_empty());
    assert!(sol.objective_value().is_finite());
    assert!(token.is_cancelled());
}

#[test]
fn cancellation_mid_solve_parallel_returns_best_incumbent() {
    let token = CancelToken::new();
    let mut model = hard_knapsack(26);
    model.set_warm_start(vec![0.0; 26]).unwrap();
    // Reliability branching can prove this knapsack on four threads in
    // 10-16 nodes, before the cancel lands; most-fractional takes more.
    let opts = SolverOptions::default()
        .branch_rule(BranchRule::MostFractional)
        .threads(4)
        .observer(cancel_after_nodes(&token, 20))
        .cancel_token(token.clone());
    let sol = model.solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Interrupted, "nodes: {}", sol.node_count());
    assert!(sol.has_incumbent());
    assert!(sol.objective_value().is_finite());
}

#[test]
fn pre_cancelled_token_stops_immediately() {
    let token = CancelToken::new();
    token.cancel();
    for threads in [1usize, 4] {
        let opts = SolverOptions::default().threads(threads).cancel_token(token.clone());
        let sol = hard_knapsack(26).solve_with(&opts).unwrap();
        assert_eq!(sol.status(), SolveStatus::Interrupted, "threads {threads}");
        assert!(!sol.has_incumbent(), "no warm start, no time to find anything");
    }
}

#[test]
fn completed_proof_is_not_masked_by_late_cancel() {
    // Cancel only after the solve already terminated: status stays Optimal.
    let token = CancelToken::new();
    let opts = SolverOptions::default().threads(1).cancel_token(token.clone());
    let sol = small_mip().solve_with(&opts).unwrap();
    token.cancel();
    assert_eq!(sol.status(), SolveStatus::Optimal);
}

#[test]
fn parallel_event_stream_reports_every_worker() {
    let (events, obs) = recording_observer();
    let opts = SolverOptions::default().threads(3).observer(obs);
    let sol = hard_knapsack(14).solve_with(&opts).unwrap();
    assert_eq!(sol.status(), SolveStatus::Optimal);
    let events = events.lock().unwrap();
    let mut workers: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            SolverEvent::ThreadStats { worker, .. } => Some(*worker),
            _ => None,
        })
        .collect();
    workers.sort_unstable();
    assert_eq!(workers, vec![0, 1, 2], "one ThreadStats event per worker");
    let nodes_sum: u64 = events
        .iter()
        .filter_map(|e| match e {
            SolverEvent::ThreadStats { nodes, .. } => Some(*nodes),
            _ => None,
        })
        .sum();
    assert_eq!(nodes_sum, sol.node_count());
}
