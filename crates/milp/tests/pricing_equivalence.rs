//! Pricing-rule and warm-start equivalence.
//!
//! The leaving-row pricing rule (Dantzig / dual steepest edge) and
//! the parent-basis warm start change *which* pivots the dual simplex makes
//! and *where* each node LP starts — never the answer. The proptest blocks
//! cross-check every pricing rule × warm-start combination against the
//! Dantzig/cold reference on random bounded MILPs, and the determinism
//! tests pin that a `threads = 1` solve emits a bit-for-bit identical event
//! sequence when repeated, under every combination.

mod common;

use common::{build_bounded as build, random_bounded as random_instance, RandomLp};
use ndp_milp::{Pricing, SolveStatus, SolverEvent, SolverOptions};
use proptest::prelude::*;

const ALL_PRICING: [Pricing; 2] = [Pricing::SteepestEdge, Pricing::Dantzig];

/// Solves single-threaded under one pricing × warm-start configuration.
fn solve_config(lp: &RandomLp, pricing: Pricing, warm: bool) -> (SolveStatus, f64) {
    let m = build(lp);
    let opts = SolverOptions::default().threads(1).pricing(pricing).warm_start(warm);
    let sol = m.solve_with(&opts).expect("solve must not error");
    (sol.status(), if sol.status().has_solution() { sol.objective_value() } else { 0.0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Random MILPs: every pricing rule, warm and cold, proves the same
    /// status and optimum as the Dantzig/cold reference.
    #[test]
    fn all_pricing_warm_combinations_agree_on_milps(lp in random_instance(true)) {
        let (st_ref, obj_ref) = solve_config(&lp, Pricing::Dantzig, false);
        for pricing in ALL_PRICING {
            for warm in [true, false] {
                if pricing == Pricing::Dantzig && !warm {
                    continue;
                }
                let (st, obj) = solve_config(&lp, pricing, warm);
                prop_assert_eq!(st, st_ref,
                    "status mismatch for {:?}/warm={}", pricing, warm);
                if st_ref.has_solution() {
                    prop_assert!((obj - obj_ref).abs() < 1e-6,
                        "{:?}/warm={} found {} vs reference {}", pricing, warm, obj, obj_ref);
                }
            }
        }
    }

    /// Random pure LPs: same agreement without the branch and bound on top.
    #[test]
    fn all_pricing_warm_combinations_agree_on_lps(lp in random_instance(false)) {
        let (st_ref, obj_ref) = solve_config(&lp, Pricing::Dantzig, false);
        for pricing in ALL_PRICING {
            let (st, obj) = solve_config(&lp, pricing, true);
            prop_assert_eq!(st, st_ref, "status mismatch for {:?}", pricing);
            if st_ref.has_solution() {
                prop_assert!((obj - obj_ref).abs() < 1e-6,
                    "{:?} found {} vs reference {}", pricing, obj, obj_ref);
            }
        }
    }
}

use common::{recording_observer, tree_model};

/// Runs the tree model serially and returns the full event transcript.
fn event_transcript(pricing: Pricing, warm: bool) -> Vec<SolverEvent> {
    let (events, obs) = recording_observer();
    let opts = SolverOptions::default().threads(1).pricing(pricing).warm_start(warm).observer(obs);
    let sol = tree_model().solve_with(&opts).expect("solve must not error");
    assert_eq!(sol.status(), SolveStatus::Optimal);
    let e = events.lock().unwrap();
    e.clone()
}

/// `threads = 1` must be reproducible event-for-event (including per-node
/// pivot counts and refactorization counters) under every pricing rule ×
/// warm-start combination.
#[test]
fn serial_event_stream_is_deterministic_for_every_combination() {
    for pricing in ALL_PRICING {
        for warm in [true, false] {
            let a = event_transcript(pricing, warm);
            let b = event_transcript(pricing, warm);
            assert!(!a.is_empty(), "no events for {pricing:?}/warm={warm}");
            assert_eq!(
                a, b,
                "event streams diverged between identical runs for {pricing:?}/warm={warm}"
            );
        }
    }
}

/// All six configurations must prove the same optimum on the tree model,
/// and the warm-started runs must not need more pivots than their cold
/// twins (the point of carrying the parent basis).
#[test]
fn tree_model_pivot_counts_and_optimum() {
    let mut reference: Option<f64> = None;
    for pricing in ALL_PRICING {
        let mut pivots = [0u64; 2];
        for (slot, warm) in [(0usize, true), (1usize, false)] {
            // Cuts off: this test probes the warm/cold node-start machinery,
            // which needs a tree the root cutting planes would collapse.
            let opts =
                SolverOptions::default().threads(1).pricing(pricing).warm_start(warm).cuts(false);
            let sol = tree_model().solve_with(&opts).expect("solve must not error");
            assert_eq!(sol.status(), SolveStatus::Optimal);
            match reference {
                None => reference = Some(sol.objective_value()),
                Some(o) => assert!(
                    (sol.objective_value() - o).abs() < 1e-6,
                    "{pricing:?}/warm={warm} optimum {} vs {}",
                    sol.objective_value(),
                    o
                ),
            }
            pivots[slot] = sol.simplex_iterations();
            let stats = sol.stats();
            if warm {
                assert!(stats.warm_starts > 0, "warm run recorded no warm starts");
            } else {
                assert_eq!(stats.warm_starts, 0, "cold run recorded warm starts");
                assert_eq!(stats.cold_starts, sol.node_count(), "every node must start cold");
            }
        }
        assert!(
            pivots[0] <= pivots[1],
            "{pricing:?}: warm start took more pivots than cold ({} > {})",
            pivots[0],
            pivots[1]
        );
    }
}

/// Warm/cold counters partition the node count on a serial solve.
#[test]
fn warm_cold_counters_partition_nodes() {
    let opts = SolverOptions::default().threads(1);
    let sol = tree_model().solve_with(&opts).expect("solve must not error");
    let stats = sol.stats();
    assert_eq!(
        stats.warm_starts + stats.cold_starts,
        sol.node_count(),
        "every evaluated node is exactly one of warm/cold"
    );
    // The root always starts cold.
    assert!(stats.cold_starts >= 1);
}
