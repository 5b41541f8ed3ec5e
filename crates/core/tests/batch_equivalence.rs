//! Batch ↔ serial equivalence on random instance families.
//!
//! The batch engine's contract (DESIGN.md §8.8): a `BatchSession` member
//! returns the same status and objective as a serial one-at-a-time
//! `DeploymentSession` solve of the same `(problem, config)` — bitwise,
//! because it is the same pipeline plus verbatim cache replays — and is
//! undisturbed for the surviving members when another member is revoked
//! mid-batch.
//!
//! Case counts are small: every case runs real branch-and-bound solves.

use ndp_core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A chain-shaped instance small enough to prove within the budget.
fn chain_instance(m: usize, seed: u64) -> ProblemInstance {
    let mut cfg = GeneratorConfig::typical(m);
    cfg.shape = GraphShape::Chain;
    let g = generate(&cfg, seed).expect("valid generator config");
    ProblemInstance::from_original(
        &g,
        Platform::homogeneous(4).expect("platform"),
        WeightedNoc::new(Mesh2D::square(2).expect("side"), NocParams::typical(), seed)
            .expect("noc"),
        0.95,
        3.0,
    )
    .expect("problem")
}

fn config(minimize_total: bool) -> OptimalConfig {
    OptimalConfig {
        objective: if minimize_total {
            DeployObjective::MinimizeTotalEnergy
        } else {
            DeployObjective::BalanceEnergy
        },
        solver: SolverOptions::default().time_limit(20.0).threads(1),
        ..OptimalConfig::default()
    }
}

fn serial_solve(problem: &ProblemInstance, cfg: &OptimalConfig) -> OptimalOutcome {
    DeploymentSession::builder(problem.clone())
        .config(cfg.clone())
        .build()
        .solve()
        .expect("serial solve")
}

/// `(task count, seed, minimize-total?)` per member; duplicates are
/// likely and deliberately so — they exercise the cache-replay path.
fn family() -> impl Strategy<Value = Vec<(usize, u64, bool)>> {
    proptest::collection::vec((2..=3usize, 0..8u64, any::<bool>()), 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Status and objective are bit-identical to serial.
    #[test]
    fn batch_members_match_serial_bitwise(members in family()) {
        let mut batch = BatchSession::new();
        let built: Vec<(Arc<ProblemInstance>, OptimalConfig)> = members
            .iter()
            .map(|&(m, seed, me)| (Arc::new(chain_instance(m, seed)), config(me)))
            .collect();
        for (p, cfg) in &built {
            batch.add(Arc::clone(p), cfg.clone());
        }
        let results = batch.solve_all();
        for ((p, cfg), r) in built.iter().zip(&results) {
            let got = r.as_ref().expect("batch member");
            let want = serial_solve(p, cfg);
            prop_assert_eq!(got.outcome.status, want.status);
            prop_assert_eq!(
                got.outcome.objective_mj.map(f64::to_bits),
                want.objective_mj.map(f64::to_bits),
                "objective must be bit-identical"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Mid-batch revocation: a member cancelled while the batch is in
    /// flight reports `Interrupted` (without poisoning the cache), and
    /// every surviving member still matches serial bitwise.
    #[test]
    fn cancelled_member_does_not_disturb_the_rest(
        members in family(),
        cancel_at in 0..3usize,
    ) {
        let cancel_at = cancel_at % members.len();
        let token = CancelToken::new();
        token.cancel();
        let mut batch = BatchSession::new();
        let built: Vec<(Arc<ProblemInstance>, OptimalConfig)> = members
            .iter()
            .enumerate()
            .map(|(i, &(m, seed, me))| {
                let mut cfg = config(me);
                if i == cancel_at {
                    cfg.solver.cancel = Some(token.clone());
                }
                (Arc::new(chain_instance(m, seed)), cfg)
            })
            .collect();
        for (p, cfg) in &built {
            batch.add(Arc::clone(p), cfg.clone());
        }
        let results = batch.solve_all();
        for (i, ((p, cfg), r)) in built.iter().zip(&results).enumerate() {
            let got = r.as_ref().expect("batch member");
            if i == cancel_at {
                prop_assert_eq!(got.outcome.status, SolveStatus::Interrupted);
                prop_assert!(!got.from_cache);
            } else {
                let want = serial_solve(p, cfg);
                prop_assert_eq!(got.outcome.status, want.status);
                prop_assert_eq!(
                    got.outcome.objective_mj.map(f64::to_bits),
                    want.objective_mj.map(f64::to_bits)
                );
            }
        }
    }
}
