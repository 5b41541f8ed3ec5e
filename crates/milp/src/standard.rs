//! Conversion of a [`Model`] into the solver's standard computational form.
//!
//! Standard form: minimize `cᵀx` subject to `A x + s = b`, `lb ≤ (x, s) ≤ ub`,
//! where one slack `s_r` is appended per row and the row sense is encoded in
//! the slack's bounds:
//!
//! * `≤` rows: `s ∈ [0, +∞)`
//! * `≥` rows: `s ∈ (−∞, 0]`
//! * `=` rows: `s ∈ [0, 0]`
//!
//! Maximization is handled by negating the cost vector; infinite bounds are
//! clamped to `±INFINITE_BOUND` so the bounded-variable simplex can always
//! start from a dual-feasible slack basis.

use crate::model::{ConstraintSense, Model, Objective};

/// The working infinity: infinite bounds, and bounds beyond it, are clamped
/// here; cut rows appended later reuse it for their slack bounds.
pub(crate) const INFINITE_BOUND: f64 = 1e9;

/// A sparse column: `(row, coefficient)` pairs sorted by row.
pub(crate) type SparseCol = Vec<(usize, f64)>;

/// Standard-form data shared by the simplex and branch-and-bound.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    /// Structural columns (length `n`).
    pub cols: Vec<SparseCol>,
    /// Row-major mirror of the structural matrix: `rows[r]` lists the
    /// `(column, coefficient)` nonzeros of row `r`. Pricing iterates the
    /// nonzeros of the (usually very sparse) BTRAN row `ρ = eᵣᵀB⁻¹` and
    /// scatters through these rows instead of dotting every column with a
    /// dense `ρ`.
    pub rows_nz: Vec<Vec<(usize, f64)>>,
    /// Right-hand sides (length `m`).
    pub b: Vec<f64>,
    /// Structural costs (length `n`), already negated for maximization.
    pub c: Vec<f64>,
    /// Bounds for all `n + m` columns (structural then slack).
    pub lb: Vec<f64>,
    /// Upper bounds for all `n + m` columns.
    pub ub: Vec<f64>,
    /// Which original bounds were infinite before clamping (for unbounded
    /// detection), length `n + m`.
    pub clamped: Vec<bool>,
    /// Number of structural variables.
    pub n: usize,
    /// Number of rows.
    pub m: usize,
    /// Constant objective offset from the model's objective expression.
    pub obj_offset: f64,
    /// `true` when the model maximizes (results must be negated back).
    pub maximize: bool,
}

impl StandardForm {
    /// Builds the standard form of `model`.
    pub fn from_model(model: &Model) -> Self {
        let n = model.num_vars();
        let m = model.num_constraints();
        let big = INFINITE_BOUND;

        let mut cols: Vec<SparseCol> = vec![Vec::new(); n];
        let mut b = Vec::with_capacity(m);
        let mut lb = Vec::with_capacity(n + m);
        let mut ub = Vec::with_capacity(n + m);
        let mut clamped = vec![false; n + m];

        for (j, v) in model.vars.iter().enumerate() {
            let mut l = v.lb;
            let mut u = v.ub;
            if l.is_infinite() || l < -big {
                l = -big;
                clamped[j] = true;
            }
            if u.is_infinite() || u > big {
                u = big;
                clamped[j] = true;
            }
            lb.push(l);
            ub.push(u);
        }

        for (r, row) in model.rows.iter().enumerate() {
            // Move the expression constant to the right-hand side.
            let rhs = row.rhs - row.expr.constant();
            b.push(rhs);
            for (var, coeff) in row.expr.iter() {
                if coeff != 0.0 {
                    cols[var.index()].push((r, coeff));
                }
            }
            let (sl, su) = match row.sense {
                ConstraintSense::Le => (0.0, big),
                ConstraintSense::Ge => (-big, 0.0),
                ConstraintSense::Eq => (0.0, 0.0),
            };
            if row.sense != ConstraintSense::Eq {
                clamped[n + r] = true;
            }
            lb.push(sl);
            ub.push(su);
        }

        let maximize = model.direction() == Objective::Maximize;
        let sign = if maximize { -1.0 } else { 1.0 };
        let mut c = vec![0.0; n];
        for (var, coeff) in model.objective().iter() {
            c[var.index()] = sign * coeff;
        }
        let obj_offset = model.objective().constant();

        let mut rows_nz: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                rows_nz[r].push((j, v));
            }
        }

        StandardForm { cols, rows_nz, b, c, lb, ub, clamped, n, m, obj_offset, maximize }
    }

    /// Appends a cut row `Σ coeffs·x (sense) rhs` over structural columns.
    ///
    /// The new row's slack takes column index `n + m` (the end of the index
    /// space), so every existing column/row index keeps its meaning; the
    /// slack bounds encode the sense exactly like [`StandardForm::from_model`]
    /// (`≥` rows: `s ∈ [−big, 0]`, `≤` rows: `s ∈ [0, big]`).
    pub fn add_cut_row(&mut self, coeffs: &[(usize, f64)], rhs: f64, slack_lb: f64, slack_ub: f64) {
        let r = self.m;
        for &(j, v) in coeffs {
            debug_assert!(j < self.n, "cut coefficients must be structural");
            debug_assert!(v != 0.0);
            // `r` is the largest row index so far, so pushing keeps the
            // column's row ordering sorted.
            self.cols[j].push((r, v));
        }
        self.rows_nz.push(coeffs.to_vec());
        self.b.push(rhs);
        // Bounds are laid out structural-then-slack, so the new slack's slot
        // is exactly the end of `lb`/`ub`.
        self.lb.push(slack_lb);
        self.ub.push(slack_ub);
        self.clamped.push(true);
        self.m += 1;
    }

    /// Overwrites the bounds of structural column `j` in place, re-applying
    /// the clamping rules of [`StandardForm::from_model`]. Used by the
    /// incremental re-solve engine to patch a cached form after a
    /// [`ModelDelta`](crate::ModelDelta) instead of rebuilding it.
    pub fn set_var_bounds(&mut self, j: usize, lb: f64, ub: f64) {
        debug_assert!(j < self.n, "only structural bounds can be patched");
        let mut l = lb;
        let mut u = ub;
        let mut cl = false;
        if l.is_infinite() || l < -INFINITE_BOUND {
            l = -INFINITE_BOUND;
            cl = true;
        }
        if u.is_infinite() || u > INFINITE_BOUND {
            u = INFINITE_BOUND;
            cl = true;
        }
        self.lb[j] = l;
        self.ub[j] = u;
        self.clamped[j] = cl;
    }

    /// Overwrites the right-hand side of row `r` in place. `rhs` must
    /// already have the row expression's constant moved across (callers
    /// patch with `model_rhs - expr.constant()`).
    pub fn set_rhs(&mut self, r: usize, rhs: f64) {
        debug_assert!(r < self.m);
        self.b[r] = rhs;
    }

    /// Tombstones row `r` in place: all structural coefficients are removed
    /// (from both the column and row mirrors) and the row becomes the
    /// trivially true `0 ≤ 0`, mirroring how
    /// [`Model::apply_delta`](crate::Model::apply_delta) tombstones removed
    /// rows. Every other row and column index keeps its meaning.
    ///
    /// Not yet reached from the session layer (a row removal relaxes the
    /// model, so `ResolveSession` drops its carry instead of patching), but
    /// kept alongside the other patch methods for a future carry that
    /// survives removals with cuts re-checked.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn tombstone_row(&mut self, r: usize) {
        debug_assert!(r < self.m);
        for &(j, _) in &self.rows_nz[r] {
            self.cols[j].retain(|&(row, _)| row != r);
        }
        self.rows_nz[r].clear();
        self.b[r] = 0.0;
        // ≤-sense slack bounds: s ∈ [0, big], satisfied by s = 0.
        self.lb[self.n + r] = 0.0;
        self.ub[self.n + r] = INFINITE_BOUND;
        self.clamped[self.n + r] = true;
    }

    /// Appends a model constraint row `Σ coeffs·x (sense) rhs` at the end of
    /// the row space, deriving the slack bounds and clamp flag from `sense`
    /// exactly like [`StandardForm::from_model`]. Returns the new row index.
    pub fn append_model_row(
        &mut self,
        coeffs: &[(usize, f64)],
        rhs: f64,
        sense: ConstraintSense,
    ) -> usize {
        let r = self.m;
        let (sl, su) = match sense {
            ConstraintSense::Le => (0.0, INFINITE_BOUND),
            ConstraintSense::Ge => (-INFINITE_BOUND, 0.0),
            ConstraintSense::Eq => (0.0, 0.0),
        };
        for &(j, v) in coeffs {
            debug_assert!(j < self.n, "row coefficients must be structural");
            if v != 0.0 {
                self.cols[j].push((r, v));
            }
        }
        self.rows_nz.push(coeffs.iter().copied().filter(|&(_, v)| v != 0.0).collect());
        self.b.push(rhs);
        self.lb.push(sl);
        self.ub.push(su);
        self.clamped.push(sense != ConstraintSense::Eq);
        self.m += 1;
        r
    }

    /// Appends a structural column with bounds `[lb, ub]` and model-space
    /// objective coefficient `obj` (sign-adjusted internally for
    /// maximization). The column starts empty; nonzeros arrive through
    /// subsequently appended rows. Returns the new column index.
    ///
    /// Appending a structural column implicitly shifts every slack index up
    /// by one (slack `r` lives at `n + r`); callers holding a
    /// [`BasisSnapshot`](crate::simplex::BasisSnapshot) must remap it.
    pub fn append_var(&mut self, lb: f64, ub: f64, obj: f64) -> usize {
        let j = self.n;
        let mut l = lb;
        let mut u = ub;
        let mut cl = false;
        if l.is_infinite() || l < -INFINITE_BOUND {
            l = -INFINITE_BOUND;
            cl = true;
        }
        if u.is_infinite() || u > INFINITE_BOUND {
            u = INFINITE_BOUND;
            cl = true;
        }
        self.cols.push(Vec::new());
        let sign = if self.maximize { -1.0 } else { 1.0 };
        self.c.push(sign * obj);
        // Bounds are laid out structural-then-slack: the new structural slot
        // is position `n`, in front of every slack.
        self.lb.insert(j, l);
        self.ub.insert(j, u);
        self.clamped.insert(j, cl);
        self.n += 1;
        j
    }

    /// The structural nonzeros of row `r` as `(column, coefficient)` pairs
    /// (the slack of row `r` is implicit: column `n + r`, coefficient 1).
    #[inline]
    pub fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.rows_nz[r]
    }

    /// Converts an internal (minimization) objective value back to the
    /// model's orientation, including the constant offset.
    pub fn user_objective(&self, internal: f64) -> f64 {
        let signed = if self.maximize { -internal } else { internal };
        signed + self.obj_offset
    }

    /// The column for index `j`: structural columns come from `cols`, slack
    /// column `n + r` is the unit vector `e_r`.
    pub fn column(&self, j: usize) -> ColumnRef<'_> {
        if j < self.n {
            ColumnRef::Structural(&self.cols[j])
        } else {
            ColumnRef::Slack(j - self.n)
        }
    }

    /// Cost of column `j` (slacks cost zero).
    pub fn cost(&self, j: usize) -> f64 {
        if j < self.n {
            self.c[j]
        } else {
            0.0
        }
    }
}

/// Borrowed view of a standard-form column.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColumnRef<'a> {
    /// A structural column with explicit nonzeros.
    Structural(&'a [(usize, f64)]),
    /// The slack unit column `e_r`.
    Slack(usize),
}

impl ColumnRef<'_> {
    /// Sparse dot product with a dense vector.
    #[inline]
    pub fn dot(&self, dense: &[f64]) -> f64 {
        match self {
            ColumnRef::Structural(nz) => nz.iter().map(|&(r, v)| dense[r] * v).sum(),
            ColumnRef::Slack(r) => dense[*r],
        }
    }

    /// Adds `scale ·
    /// column` into `out`.
    #[inline]
    pub fn axpy(&self, scale: f64, out: &mut [f64]) {
        match self {
            ColumnRef::Structural(nz) => {
                for &(r, v) in *nz {
                    out[r] += scale * v;
                }
            }
            ColumnRef::Slack(r) => out[*r] += scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Model};

    #[test]
    fn slack_bounds_encode_sense() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0).unwrap();
        m.add_le("le", LinExpr::from(x), 5.0);
        m.add_ge("ge", LinExpr::from(x), 1.0);
        m.add_eq("eq", LinExpr::from(x), 2.0);
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.m, 3);
        assert_eq!(sf.lb[1], 0.0); // ≤ slack
        assert!(sf.ub[1] > 1e8);
        assert!(sf.lb[2] < -1e8); // ≥ slack
        assert_eq!(sf.ub[2], 0.0);
        assert_eq!((sf.lb[3], sf.ub[3]), (0.0, 0.0)); // = slack
    }

    #[test]
    fn maximize_negates_costs() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        m.set_objective(crate::Objective::Maximize, LinExpr::term(x, 3.0) + 2.0);
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.c[0], -3.0);
        // internal optimum -3 maps back to user objective 3 + offset 2.
        assert_eq!(sf.user_objective(-3.0), 5.0);
    }

    #[test]
    fn row_major_mirror_matches_columns() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        let y = m.continuous("y", 0.0, 1.0).unwrap();
        m.add_le("r0", LinExpr::term(x, 2.0) + LinExpr::term(y, -3.0), 1.0);
        m.add_ge("r1", LinExpr::from(y), 0.5);
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.row(0), &[(0, 2.0), (1, -3.0)]);
        assert_eq!(sf.row(1), &[(1, 1.0)]);
        // Every column nonzero appears exactly once in its row mirror.
        let total: usize = (0..sf.m).map(|r| sf.row(r).len()).sum();
        let by_cols: usize = sf.cols.iter().map(Vec::len).sum();
        assert_eq!(total, by_cols);
    }

    #[test]
    fn add_cut_row_extends_all_mirrors() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        let y = m.continuous("y", 0.0, 1.0).unwrap();
        m.add_le("r0", LinExpr::term(x, 2.0) + LinExpr::term(y, -3.0), 1.0);
        let mut sf = StandardForm::from_model(&m);
        let (n0, m0) = (sf.n, sf.m);
        sf.add_cut_row(&[(0, 1.0), (1, 1.0)], 0.5, -INFINITE_BOUND, 0.0);
        assert_eq!((sf.n, sf.m), (n0, m0 + 1));
        assert_eq!(sf.row(m0), &[(0, 1.0), (1, 1.0)]);
        assert_eq!(sf.b[m0], 0.5);
        // The ≥-sense slack landed at column n + m0 with bounds [-big, 0].
        assert_eq!(sf.ub[n0 + m0], 0.0);
        assert!(sf.lb[n0 + m0] < -1e8);
        assert!(sf.clamped[n0 + m0]);
        // Column mirrors stay sorted by row.
        for col in &sf.cols {
            assert!(col.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn patch_methods_match_a_rebuild() {
        // Mutating the form in place must agree with from_model on the
        // equivalently mutated model.
        let build = |extra: bool| {
            let mut m = Model::new("t");
            let x = m.continuous("x", 0.0, 10.0).unwrap();
            let y = m.continuous("y", 0.0, 10.0).unwrap();
            m.add_le("r0", LinExpr::term(x, 2.0) + LinExpr::from(y), if extra { 4.0 } else { 5.0 });
            m.add_ge("r1", LinExpr::from(y), 1.0);
            if extra {
                let z = m.continuous("z", 0.0, f64::INFINITY).unwrap();
                m.objective.add_term(z, 2.5);
                m.add_eq("r2", LinExpr::from(z) + LinExpr::from(x), 3.0);
                m.set_bounds(x, 1.0, 10.0).unwrap();
            }
            m
        };
        let mut patched = StandardForm::from_model(&build(false));
        patched.set_rhs(0, 4.0);
        let z = patched.append_var(0.0, f64::INFINITY, 2.5);
        patched.append_model_row(&[(z, 1.0), (0, 1.0)], 3.0, ConstraintSense::Eq);
        patched.set_var_bounds(0, 1.0, 10.0);
        let rebuilt = StandardForm::from_model(&build(true));
        assert_eq!(patched.n, rebuilt.n);
        assert_eq!(patched.m, rebuilt.m);
        assert_eq!(patched.b, rebuilt.b);
        assert_eq!(patched.c, rebuilt.c);
        assert_eq!(patched.lb, rebuilt.lb);
        assert_eq!(patched.ub, rebuilt.ub);
        assert_eq!(patched.clamped, rebuilt.clamped);
        for r in 0..patched.m {
            let mut a = patched.row(r).to_vec();
            let mut b = rebuilt.row(r).to_vec();
            a.sort_by_key(|&(j, _)| j);
            b.sort_by_key(|&(j, _)| j);
            assert_eq!(a, b, "row {r}");
        }
    }

    #[test]
    fn tombstoned_row_clears_both_mirrors() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        let y = m.continuous("y", 0.0, 1.0).unwrap();
        m.add_le("r0", LinExpr::term(x, 2.0) + LinExpr::from(y), 1.0);
        m.add_ge("r1", LinExpr::from(y), 0.5);
        let mut sf = StandardForm::from_model(&m);
        sf.tombstone_row(0);
        assert!(sf.row(0).is_empty());
        assert!(sf.cols[0].is_empty());
        assert_eq!(sf.cols[1], vec![(1, 1.0)]);
        assert_eq!(sf.b[0], 0.0);
        assert_eq!(sf.lb[sf.n], 0.0);
        assert_eq!(sf.m, 2, "row indices stay valid");
    }

    #[test]
    fn expression_constant_moves_to_rhs() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0).unwrap();
        m.add_le("r", LinExpr::from(x) + 1.5, 5.0);
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.b[0], 3.5);
    }
}
