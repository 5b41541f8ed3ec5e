//! The managed cut pool: duplicate detection by hashed support, violation
//! scoring with a near-parallel filter, and slack-based age-out.
//!
//! The pool is the single gatekeeper between the separators and the LP:
//! candidates enter [`CutPool::select`] each round, survivors are appended
//! to the live LP in the returned order, and [`CutPool::age_pass`] tracks
//! which installed cuts kept their slack loose (non-binding) so
//! [`CutPool::drain_fresh`] can drop the stale ones before the surviving
//! cuts are installed into the shared base form.
//!
//! Everything is deterministic: candidates are scored with stable sorts and
//! index tiebreaks, and the duplicate hash is a fixed FNV-1a over the
//! sense-normalized, scale-normalized quantized support — no `HashMap`
//! iteration order ever leaks into cut selection.

use crate::cuts::{Cut, CutSense};
use crate::fingerprint::Fnv64;
use std::collections::HashSet;

/// Cuts accepted per separation round.
const MAX_PER_ROUND: usize = 20;
/// Consecutive loose-slack rounds before a cut ages out.
const MAX_AGE: u32 = 3;
/// Cosine-similarity ceiling between two accepted cuts of one round.
const MAX_PARALLEL: f64 = 0.95;
/// Minimum normalized violation (violation / ‖a‖₂) to accept a candidate.
const MIN_NORM_VIOLATION: f64 = 1e-7;

/// One installed cut plus its age-out bookkeeping.
#[derive(Debug, Clone)]
struct PoolEntry {
    cut: Cut,
    /// Consecutive rounds the cut row's slack stayed loose.
    age: u32,
}

/// The managed pool (see module docs).
#[derive(Debug, Default)]
pub(crate) struct CutPool {
    /// Support hashes of every cut ever accepted (duplicate rejection).
    seen: HashSet<u64>,
    /// Installed cuts in LP row order.
    entries: Vec<PoolEntry>,
}

impl CutPool {
    /// An empty pool.
    pub fn new() -> Self {
        CutPool::default()
    }

    /// Scores, deduplicates and filters `cands` against the pool and each
    /// other, installs the survivors, and returns them in installation
    /// order (the caller appends them to the LP in exactly this order).
    pub fn select(&mut self, cands: Vec<Cut>, x: &[f64]) -> Vec<Cut> {
        // A cut referencing a column past the LP point means the form was
        // mutated (e.g. by a model delta) without refreshing the pool.
        debug_assert!(
            cands.iter().all(|c| c.coeffs.iter().all(|&(j, _)| j < x.len())),
            "cut column index out of range for the LP point ({} values)",
            x.len()
        );
        struct Scored {
            cut: Cut,
            score: f64,
            norm: f64,
            key: u64,
            ord: usize,
        }
        let mut scored: Vec<Scored> = Vec::new();
        for (ord, cut) in cands.into_iter().enumerate() {
            let norm = cut.norm();
            if !norm.is_finite() || norm <= 1e-12 {
                continue;
            }
            let nv = cut.violation(x) / norm;
            if nv < MIN_NORM_VIOLATION {
                continue;
            }
            let key = support_hash(&cut);
            if self.seen.contains(&key) {
                continue;
            }
            scored.push(Scored { cut, score: nv, norm, key, ord });
        }
        // Best normalized violation first; generation order breaks ties —
        // both deterministic.
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.ord.cmp(&b.ord))
        });
        let mut chosen: Vec<Scored> = Vec::new();
        for s in scored {
            if chosen.len() >= MAX_PER_ROUND {
                break;
            }
            if chosen.iter().any(|c| cosine(&c.cut, c.norm, &s.cut, s.norm) > MAX_PARALLEL) {
                continue;
            }
            // Duplicate keys can also collide within one round (e.g. the
            // same cover reached through two rows).
            if chosen.iter().any(|c| c.key == s.key) {
                continue;
            }
            chosen.push(s);
        }
        let mut out = Vec::with_capacity(chosen.len());
        for s in chosen {
            self.seen.insert(s.key);
            self.entries.push(PoolEntry { cut: s.cut.clone(), age: 0 });
            out.push(s.cut);
        }
        out
    }

    /// Updates ages from the re-solved LP point: entry `k` owns the slack
    /// column `slack_base + k`. A loose (non-binding) slack bumps the age;
    /// a binding one resets it.
    pub fn age_pass(&mut self, values: &[f64], slack_base: usize, tol: f64) {
        for (k, e) in self.entries.iter_mut().enumerate() {
            let col = slack_base + k;
            if col >= values.len() {
                break;
            }
            let s = values[col];
            // ≤-cut slack lives in [0, big] (binding at 0), ≥-cut slack in
            // [−big, 0] (binding at 0): binding ⇔ |s| ≤ tol either way.
            if s.abs() > tol {
                e.age += 1;
            } else {
                e.age = 0;
            }
        }
    }

    /// Returns `(fresh cuts, aged-out count)`: the cuts whose slack was
    /// binding recently enough to keep, in installation order.
    pub fn drain_fresh(&mut self) -> (Vec<Cut>, u64) {
        let mut fresh = Vec::new();
        let mut aged = 0u64;
        for e in self.entries.drain(..) {
            if e.age >= MAX_AGE {
                aged += 1;
            } else {
                fresh.push(e.cut);
            }
        }
        (fresh, aged)
    }
}

/// Absolute cosine similarity between two cuts' sense-normalized
/// coefficient vectors (both sorted by column).
fn cosine(a: &Cut, norm_a: f64, b: &Cut, norm_b: f64) -> f64 {
    let sign_a = sense_sign(a.sense);
    let sign_b = sense_sign(b.sense);
    let mut dot = 0.0;
    let (mut i, mut k) = (0usize, 0usize);
    while i < a.coeffs.len() && k < b.coeffs.len() {
        let (ja, va) = a.coeffs[i];
        let (jb, vb) = b.coeffs[k];
        match ja.cmp(&jb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => k += 1,
            std::cmp::Ordering::Equal => {
                dot += (sign_a * va) * (sign_b * vb);
                i += 1;
                k += 1;
            }
        }
    }
    (dot / (norm_a * norm_b).max(1e-30)).abs()
}

/// `≥`-normalization sign: a `≤`-cut `a·x ≤ r` is compared as `−a·x ≥ −r`.
fn sense_sign(s: CutSense) -> f64 {
    match s {
        CutSense::Le => -1.0,
        CutSense::Ge => 1.0,
    }
}

/// FNV-1a over the quantized, scale- and sense-normalized support.
pub(crate) fn support_hash(cut: &Cut) -> u64 {
    let sign = sense_sign(cut.sense);
    let max_abs = cut.coeffs.iter().map(|&(_, v)| v.abs()).fold(0.0_f64, f64::max).max(1e-30);
    let mut h = Fnv64::new();
    let quantize = |v: f64| (sign * v / max_abs * 1e6).round() as i64 as u64;
    for &(j, v) in &cut.coeffs {
        h.write_u64(j as u64);
        h.write_u64(quantize(v));
    }
    h.write_u64(quantize(cut.rhs));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::CutFamily;

    fn cut(coeffs: Vec<(usize, f64)>, rhs: f64, sense: CutSense) -> Cut {
        Cut { coeffs, rhs, sense, family: CutFamily::Cover }
    }

    #[test]
    fn duplicate_and_scaled_duplicate_cuts_are_rejected() {
        let mut pool = CutPool::new();
        let x = [0.5, 0.5];
        let a = cut(vec![(0, 1.0), (1, 1.0)], 0.5, CutSense::Le);
        let scaled = cut(vec![(0, 2.0), (1, 2.0)], 1.0, CutSense::Le);
        let negated = cut(vec![(0, -1.0), (1, -1.0)], -0.5, CutSense::Ge);
        let got = pool.select(vec![a.clone()], &x);
        assert_eq!(got.len(), 1);
        assert!(pool.select(vec![a], &x).is_empty(), "exact duplicate accepted");
        assert!(pool.select(vec![scaled], &x).is_empty(), "scaled duplicate accepted");
        assert!(pool.select(vec![negated], &x).is_empty(), "sense-flipped duplicate accepted");
        let (kept, aged_out) = pool.drain_fresh();
        assert_eq!((kept.len(), aged_out), (got.len(), 0), "the pool holds the one selection");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cut column index out of range")]
    fn out_of_range_cut_column_is_caught_in_debug() {
        let mut pool = CutPool::new();
        let x = [0.5]; // one-column LP point, cut references column 3
        let stale = cut(vec![(3, 1.0)], 0.1, CutSense::Le);
        let _ = pool.select(vec![stale], &x);
    }

    #[test]
    fn non_violated_cuts_are_filtered() {
        let mut pool = CutPool::new();
        let x = [0.0, 0.0];
        let satisfied = cut(vec![(0, 1.0), (1, 1.0)], 1.0, CutSense::Le);
        assert!(pool.select(vec![satisfied], &x).is_empty());
    }

    #[test]
    fn near_parallel_round_mates_are_filtered() {
        let mut pool = CutPool::new();
        let x = [1.0, 1.0];
        let a = cut(vec![(0, 1.0), (1, 1.0)], 0.5, CutSense::Le);
        let b = cut(vec![(0, 1.0), (1, 1.001)], 0.6, CutSense::Le);
        let orthogonal = cut(vec![(0, 1.0), (1, -1.0)], -0.5, CutSense::Le);
        let got = pool.select(vec![a, b, orthogonal], &x);
        assert_eq!(got.len(), 2, "parallel mate must be dropped, orthogonal kept");
    }

    #[test]
    fn age_out_drops_consistently_loose_cuts() {
        let mut pool = CutPool::new();
        let x = [1.0, 1.0];
        let a = cut(vec![(0, 1.0)], 0.5, CutSense::Le);
        let b = cut(vec![(1, 1.0)], 0.5, CutSense::Le);
        assert_eq!(pool.select(vec![a, b], &x).len(), 2);
        // Entry 0's slack binding (0.0), entry 1's loose, for MAX_AGE rounds.
        for _ in 0..MAX_AGE {
            pool.age_pass(&[1.0, 1.0, 0.0, 5.0], 2, 1e-6);
        }
        let (fresh, aged) = pool.drain_fresh();
        assert_eq!(aged, 1);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].coeffs, vec![(0, 1.0)]);
    }
}
