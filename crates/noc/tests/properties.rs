//! Property tests for the NoC substrate.

use ndp_noc::{
    k_shortest_paths, shortest_path, xy_path, CommMatrices, Mesh2D, NocParams, NodeId, PathKind,
    WeightedNoc,
};
use proptest::prelude::*;

/// Meshes from 1×1 to 5×5 whose link weights tie in a third of the cases
/// (`jitter = 0`: every minimal path costs the same, so the routing
/// tie-break alone picks the path).
fn tie_prone_noc_strategy() -> impl Strategy<Value = WeightedNoc> {
    (1usize..=5, 1usize..=5, 0usize..3, 0.0f64..0.95, any::<u64>()).prop_map(
        |(c, r, mode, jitter, seed)| {
            let mut params = NocParams::typical();
            params.jitter = if mode == 0 { 0.0 } else { jitter };
            WeightedNoc::new(Mesh2D::new(c, r).expect("positive dims"), params, seed)
                .expect("valid params")
        },
    )
}

/// Every table of `CommMatrices::build` against the per-pair reference
/// `shortest_path`, bit for bit: the path, `t_{βγρ}` against its
/// `Path::time_ms`, every `e_{βγkρ}` against its `Path::energy_at_mj`, and
/// the per-processor extremes against a fold over all off-diagonal pairs.
fn check_matrices_against_per_pair_paths(noc: &WeightedNoc) -> Result<(), TestCaseError> {
    let mats = CommMatrices::build(noc);
    let n = noc.mesh().num_nodes();
    prop_assert_eq!(mats.num_nodes(), n);
    for beta in 0..n {
        for gamma in 0..n {
            for rho in PathKind::ALL {
                let (b, g) = (NodeId(beta), NodeId(gamma));
                let reference = shortest_path(noc, b, g, rho);
                prop_assert_eq!(mats.path(b, g, rho), &reference, "path {} -> {} {:?}", b, g, rho);
                prop_assert_eq!(
                    mats.time_ms(b, g, rho).to_bits(),
                    reference.time_ms(noc).to_bits(),
                    "time {} -> {} {:?}",
                    b,
                    g,
                    rho
                );
                for k in noc.mesh().nodes() {
                    prop_assert_eq!(
                        mats.energy_at_mj(b, g, k, rho).to_bits(),
                        reference.energy_at_mj(noc, k).to_bits(),
                        "energy at {} of {} -> {} {:?}",
                        k,
                        b,
                        g,
                        rho
                    );
                }
            }
        }
    }
    for k in noc.mesh().nodes() {
        for rho in PathKind::ALL {
            let off_diagonal = || {
                (0..n)
                    .flat_map(move |b| (0..n).map(move |g| (NodeId(b), NodeId(g))))
                    .filter(|(b, g)| b != g)
                    .map(|(b, g)| mats.energy_at_mj(b, g, k, rho))
            };
            let (hi, lo) = if n > 1 {
                (off_diagonal().fold(f64::MIN, f64::max), off_diagonal().fold(f64::MAX, f64::min))
            } else {
                (0.0, 0.0)
            };
            prop_assert_eq!(mats.max_energy_at_mj(k, rho).to_bits(), hi.to_bits());
            prop_assert_eq!(mats.min_energy_at_mj(k, rho).to_bits(), lo.to_bits());
        }
    }
    Ok(())
}

/// With every cost zero all paths tie at zero, whatever the length.
#[test]
fn matrices_match_per_pair_paths_at_zero_cost() {
    let params = NocParams {
        link_time_ms: 0.0,
        router_time_ms: 0.0,
        link_energy_mj: 0.0,
        router_energy_mj: 0.0,
        jitter: 0.0,
    };
    for (c, r) in [(1, 1), (2, 2), (4, 3), (5, 5)] {
        let noc = WeightedNoc::new(Mesh2D::new(c, r).expect("positive dims"), params, 3)
            .expect("zero costs are valid");
        check_matrices_against_per_pair_paths(&noc).unwrap();
    }
}

fn noc_strategy() -> impl Strategy<Value = WeightedNoc> {
    (2usize..=5, 2usize..=5, 0.0f64..0.5, any::<u64>()).prop_map(|(c, r, jitter, seed)| {
        let mut params = NocParams::typical();
        params.jitter = jitter;
        WeightedNoc::new(Mesh2D::new(c, r).expect("positive dims"), params, seed)
            .expect("valid params")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra's path is never worse than the deterministic XY route under
    /// the same weighting.
    #[test]
    fn dijkstra_beats_or_matches_xy(noc in noc_strategy(), a_raw in 0usize..25, b_raw in 0usize..25) {
        let n = noc.mesh().num_nodes();
        let (a, b) = (NodeId(a_raw % n), NodeId(b_raw % n));
        let xy = xy_path(noc.mesh(), a, b);
        let pe = shortest_path(&noc, a, b, PathKind::EnergyOriented);
        let pt = shortest_path(&noc, a, b, PathKind::TimeOriented);
        prop_assert!(pe.energy_mj(&noc) <= xy.energy_mj(&noc) + 1e-12);
        prop_assert!(pt.time_ms(&noc) <= xy.time_ms(&noc) + 1e-12);
    }

    /// Path latency obeys the triangle inequality through any waypoint.
    #[test]
    fn time_paths_triangle_inequality(
        noc in noc_strategy(),
        a_raw in 0usize..25, b_raw in 0usize..25, c_raw in 0usize..25,
    ) {
        let n = noc.mesh().num_nodes();
        let (a, b, c) = (NodeId(a_raw % n), NodeId(b_raw % n), NodeId(c_raw % n));
        let direct = shortest_path(&noc, a, c, PathKind::TimeOriented).time_ms(&noc);
        let via = shortest_path(&noc, a, b, PathKind::TimeOriented).time_ms(&noc)
            + shortest_path(&noc, b, c, PathKind::TimeOriented).time_ms(&noc);
        prop_assert!(direct <= via + 1e-9);
    }

    /// The cost matrices agree with freshly computed shortest paths, bit
    /// for bit.
    #[test]
    fn matrices_consistent_with_paths(noc in tie_prone_noc_strategy()) {
        check_matrices_against_per_pair_paths(&noc)?;
    }

    /// Yen's k paths contain the shortest path and stay sorted.
    #[test]
    fn yen_paths_sorted(noc in noc_strategy(), a_raw in 0usize..25, b_raw in 0usize..25, k in 1usize..5) {
        let n = noc.mesh().num_nodes();
        let (a, b) = (NodeId(a_raw % n), NodeId(b_raw % n));
        let paths = k_shortest_paths(&noc, a, b, PathKind::EnergyOriented, k);
        prop_assert!(!paths.is_empty());
        prop_assert_eq!(&paths[0], &shortest_path(&noc, a, b, PathKind::EnergyOriented));
        let costs: Vec<f64> = paths.iter().map(|p| p.energy_mj(&noc)).collect();
        for w in costs.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }
}
