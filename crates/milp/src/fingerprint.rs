//! Canonical model fingerprints.
//!
//! A fingerprint is a 64-bit FNV-1a hash over a canonical byte encoding of
//! the *mathematical program*: optimization direction, objective terms,
//! variable kinds and bounds, and constraint rows with their senses and
//! right-hand sides. Presentation details that cannot change the feasible
//! set or the optimum — variable and row names, warm-start hints, branch
//! priorities — are deliberately excluded, so two models that pose the same
//! program hash identically. Term coefficients are folded in sorted
//! variable order (zero coefficients skipped) and floats are hashed by
//! their bit patterns with `-0.0` normalized to `0.0`, making the
//! fingerprint deterministic across processes and platforms with IEEE-754
//! doubles.
//!
//! The intended consumer is solution caching in long-running services:
//! identical deployment requests map to identical fingerprints and can be
//! answered without re-solving.
//!
//! [`Fnv64`] is the workspace's one hashing primitive: the cut pool's
//! duplicate keys and `ndp-core`'s request and batch-member keys are built
//! on it too.

use crate::expr::LinExpr;
use crate::model::Model;

/// Incremental 64-bit FNV-1a over byte chunks.
///
/// Integers are folded as little-endian bytes and floats by their bit
/// patterns with `-0.0` normalized to `0.0`, so a digest is the same in
/// every process and on every IEEE-754 platform.
///
/// ```
/// use ndp_milp::fingerprint::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_u64(7);
/// h.write_f64(-0.0);
/// let mut g = Fnv64::new();
/// g.write_u64(7);
/// g.write_f64(0.0);
/// assert_eq!(h.finish(), g.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// FNV-1a 64-bit offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// A hasher continuing from `state`: a previous [`Fnv64::finish`] to
    /// extend a digest, or a domain seed that keeps unrelated digests apart.
    pub const fn with_state(state: u64) -> Self {
        Fnv64(state)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by its bit pattern, with the sign of zero
    /// canonicalized so algebraically identical inputs cannot hash apart.
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }

    /// Folds a string, length-prefixed so adjacent strings cannot alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

fn write_expr(h: &mut Fnv64, expr: &LinExpr) {
    h.write_f64(expr.constant());
    for (var, coeff) in expr.iter() {
        if coeff == 0.0 {
            continue;
        }
        h.write_u64(var.index() as u64);
        h.write_f64(coeff);
    }
}

impl Model {
    /// Canonical 64-bit fingerprint of the mathematical program.
    ///
    /// Hashes the optimization direction, objective, variable kinds and
    /// bounds, and all constraint rows; ignores names, warm starts and
    /// branch priorities (none of which can change the optimum). Two models
    /// with equal fingerprints pose the same program modulo hash
    /// collisions, so the fingerprint is a sound cache key for solve
    /// results.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.direction as u64);
        write_expr(&mut h, &self.objective);
        h.write_u64(self.vars.len() as u64);
        for v in &self.vars {
            h.write_u64(v.kind as u64);
            h.write_f64(v.lb);
            h.write_f64(v.ub);
        }
        h.write_u64(self.rows.len() as u64);
        for r in &self.rows {
            h.write_u64(r.sense as u64);
            h.write_f64(r.rhs);
            write_expr(&mut h, &r.expr);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::{LinExpr, Model, Objective};

    fn knapsack(names: &str) -> (Model, Vec<crate::VarId>) {
        let mut m = Model::new(names);
        let mut weight = LinExpr::new();
        let mut value = LinExpr::new();
        let mut ids = Vec::new();
        for i in 0..5 {
            let x = m.binary(format!("{names}{i}"));
            weight.add_term(x, 2.0 + i as f64);
            value.add_term(x, 3.0 + i as f64);
            ids.push(x);
        }
        m.add_le("cap", weight, 7.0);
        m.set_objective(Objective::Maximize, value);
        (m, ids)
    }

    #[test]
    fn identical_programs_hash_identically_regardless_of_names() {
        let (a, _) = knapsack("a");
        let (b, _) = knapsack("completely_different_names");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn warm_starts_and_priorities_do_not_change_the_fingerprint() {
        let (a, _) = knapsack("m");
        let (mut b, ids) = knapsack("m");
        b.set_warm_start(vec![0.0; 5]).unwrap();
        b.set_branch_priority(ids[0], 9);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn any_structural_change_changes_the_fingerprint() {
        let base = knapsack("m").0.fingerprint();
        // Different RHS.
        let (mut m, _) = knapsack("m");
        m.rows[0].rhs = 8.0;
        assert_ne!(m.fingerprint(), base);
        // Different sense.
        let (mut m, _) = knapsack("m");
        m.rows[0].sense = crate::ConstraintSense::Ge;
        assert_ne!(m.fingerprint(), base);
        // Different direction.
        let (mut m, _) = knapsack("m");
        m.direction = Objective::Minimize;
        assert_ne!(m.fingerprint(), base);
        // Different bound.
        let (mut m, _) = knapsack("m");
        m.vars[2].ub = 2.0;
        assert_ne!(m.fingerprint(), base);
    }

    /// The hashes are cache and dedup keys: a change to the primitive or to
    /// an encoding must show up here, not as a silent key shift.
    #[test]
    fn fingerprints_are_pinned_on_fixed_inputs() {
        use crate::cuts::{Cut, CutFamily, CutSense};
        assert_eq!(knapsack("m").0.fingerprint(), 406_158_733_299_057_963);
        let cut = Cut {
            coeffs: vec![(0, 2.0), (3, -1.5), (7, 0.25)],
            rhs: 1.0,
            sense: CutSense::Le,
            family: CutFamily::Cover,
        };
        assert_eq!(crate::cuts::pool::support_hash(&cut), 3_916_812_769_144_257_218);
    }
}
