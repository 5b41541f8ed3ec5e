//! `CommMatrices::build` against the per-pair reference construction.
//!
//! The per-pair reference runs one early-exit `shortest_path` per
//! `(β, γ, ρ)` and fills `e_{βγkρ}` from `Path::energy_at_mj` for every
//! processor `k`. The build grows one shortest-path tree per source and `ρ`
//! and writes only the routers on each path.
//!
//! First every table the build exposes is compared bit for bit with the
//! reference: paths, `t_{βγρ}`, every `e_{βγkρ}` and the min/max helpers.
//! That runs on square meshes of side 1–8 × jitter {0, 0.25, 0.9} × seeds
//! 0–3; jitter 0 makes every minimal path tie, so the routing tie-break
//! decides. Then both constructions are timed at 4×4, 6×6 and 8×8 (typical
//! parameters, seed 1), alternating, and the median of the repeats is
//! printed with the speed-up.
//!
//! ```text
//! cargo run --release -p ndp-bench --bin noc_tables
//! ```
//!
//! Exits 1 on any bit difference. The times are reported, not gated.

use ndp_noc::{
    shortest_path, CommMatrices, Mesh2D, NocParams, NodeId, Path, PathKind, WeightedNoc,
};
use std::hint::black_box;
use std::time::Instant;

/// Mesh sides timed, with the number of repeats of each construction.
const TIMED: [(usize, usize); 3] = [(4, 201), (6, 51), (8, 21)];

/// The tables built pair by pair: one early-exit search per `(β, γ, ρ)`.
struct PerPair {
    n: usize,
    /// `[(β·n + γ)·2 + ρ]`
    time: Vec<f64>,
    /// `[((β·n + γ)·n + k)·2 + ρ]`
    energy: Vec<f64>,
    /// `[(β·n + γ)·2 + ρ]`
    paths: Vec<Path>,
}

impl PerPair {
    fn build(noc: &WeightedNoc) -> Self {
        let n = noc.mesh().num_nodes();
        let mut time = vec![0.0; n * n * 2];
        let mut energy = vec![0.0; n * n * n * 2];
        let mut paths = Vec::with_capacity(n * n * 2);
        for b in 0..n {
            for g in 0..n {
                for kind in PathKind::ALL {
                    let p = shortest_path(noc, NodeId(b), NodeId(g), kind);
                    let rho = kind.index();
                    time[(b * n + g) * 2 + rho] = p.time_ms(noc);
                    for k in 0..n {
                        energy[((b * n + g) * n + k) * 2 + rho] = p.energy_at_mj(noc, NodeId(k));
                    }
                    paths.push(p);
                }
            }
        }
        PerPair { n, time, energy, paths }
    }
}

/// Folds `values(pair)` over the off-diagonal pairs `β·n + γ` in ascending
/// order; 0 when there is none.
fn fold_off_diagonal<I: IntoIterator<Item = f64>>(
    n: usize,
    init: f64,
    f: fn(f64, f64) -> f64,
    values: impl Fn(usize) -> I,
) -> f64 {
    if n < 2 {
        return 0.0;
    }
    (0..n * n).filter(|pair| pair / n != pair % n).flat_map(values).fold(init, f)
}

/// Records a difference when `got` and `want` differ in any bit.
fn check(out: &mut Vec<String>, what: impl FnOnce() -> String, got: f64, want: f64) {
    if got.to_bits() != want.to_bits() {
        out.push(format!("{}: build {got:e}, per-pair {want:e}", what()));
    }
}

/// Every difference between `mats` and `reference`, one line each.
fn differences(mats: &CommMatrices, reference: &PerPair) -> Vec<String> {
    let n = reference.n;
    let mut out = Vec::new();
    for pair in 0..n * n {
        let (b, g) = (NodeId(pair / n), NodeId(pair % n));
        for rho in PathKind::ALL {
            let r = rho.index();
            if mats.path(b, g, rho) != &reference.paths[pair * 2 + r] {
                out.push(format!("path {b}->{g} {rho:?}"));
            }
            let (got, want) = (mats.time_ms(b, g, rho), reference.time[pair * 2 + r]);
            check(&mut out, || format!("t {b}->{g} {rho:?}"), got, want);
            for k in 0..n {
                let got = mats.energy_at_mj(b, g, NodeId(k), rho);
                let want = reference.energy[(pair * n + k) * 2 + r];
                check(&mut out, || format!("e {b}->{g} at n{k} {rho:?}"), got, want);
            }
        }
    }
    for k in 0..n {
        for rho in PathKind::ALL {
            let at = |pair: usize| [reference.energy[(pair * n + k) * 2 + rho.index()]];
            let hi = fold_off_diagonal(n, f64::MIN, f64::max, at);
            let lo = fold_off_diagonal(n, f64::MAX, f64::min, at);
            let node = NodeId(k);
            check(
                &mut out,
                || format!("max e at {node} {rho:?}"),
                mats.max_energy_at_mj(node, rho),
                hi,
            );
            check(
                &mut out,
                || format!("min e at {node} {rho:?}"),
                mats.min_energy_at_mj(node, rho),
                lo,
            );
        }
    }
    let at = |pair: usize| [reference.time[pair * 2], reference.time[pair * 2 + 1]];
    let (hi, lo) = (
        fold_off_diagonal(n, f64::MIN, f64::max, at),
        fold_off_diagonal(n, f64::MAX, f64::min, at),
    );
    check(&mut out, || "max t".into(), mats.max_time_ms(), hi);
    check(&mut out, || "min t".into(), mats.min_time_ms(), lo);
    let any = reference.energy.iter().copied().fold(f64::MIN, f64::max);
    check(&mut out, || "max e".into(), mats.max_energy_any_mj(), any);
    out
}

fn noc(side: usize, jitter: f64, seed: u64) -> WeightedNoc {
    let params = NocParams { jitter, ..NocParams::typical() };
    WeightedNoc::new(Mesh2D::square(side).expect("positive side"), params, seed)
        .expect("valid params")
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let mut mismatched = 0;
    let mut compared = 0;
    for side in 1..=8 {
        for jitter in [0.0, 0.25, 0.9] {
            for seed in 0..4 {
                let noc = noc(side, jitter, seed);
                let diffs = differences(&CommMatrices::build(&noc), &PerPair::build(&noc));
                compared += 1;
                if !diffs.is_empty() {
                    mismatched += 1;
                    eprintln!(
                        "side {side} jitter {jitter} seed {seed}: {} differences",
                        diffs.len()
                    );
                    for d in diffs.iter().take(5) {
                        eprintln!("  {d}");
                    }
                }
            }
        }
    }
    println!("bit-identical tables: {}/{compared} instances", compared - mismatched);

    println!(
        "{:>5} {:>4} {:>8} {:>13} {:>13} {:>8}",
        "mesh", "N", "repeats", "build_ms", "per_pair_ms", "ratio"
    );
    for (side, repeats) in TIMED {
        let noc = noc(side, NocParams::typical().jitter, 1);
        let (mut build, mut per_pair) = (Vec::new(), Vec::new());
        for _ in 0..repeats {
            let t = Instant::now();
            black_box(CommMatrices::build(black_box(&noc)));
            build.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            black_box(PerPair::build(black_box(&noc)));
            per_pair.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let (build, per_pair) = (median_ms(build), median_ms(per_pair));
        println!(
            "{:>5} {:>4} {repeats:>8} {build:>13.4} {per_pair:>13.4} {:>7.1}x",
            format!("{side}x{side}"),
            side * side,
            per_pair / build
        );
    }
    if mismatched > 0 {
        eprintln!("noc_tables: {mismatched} instance(s) differ from the per-pair construction");
        std::process::exit(1);
    }
}
