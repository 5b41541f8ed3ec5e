//! Sparse LU factorization of the simplex basis with product-form updates.
//!
//! The deployment MILPs this solver targets produce very sparse bases
//! (precedence rows, big-M non-overlap rows and Lemma-2.2 envelope rows each
//! touch a handful of columns), so the dense `m × m` inverse the simplex
//! historically carried wastes both memory (O(m²)) and time (O(m²) per
//! pivot, O(m³) per Gauss-Jordan refactorization). This module provides the
//! sparse replacement:
//!
//! * [`LuFactors::factorize`] — right-looking sparse Gaussian elimination
//!   with **Markowitz ordering** (pivot chosen to minimize
//!   `(r_i − 1)(c_j − 1)` fill-in over a small set of lowest-count candidate
//!   columns) under **threshold partial pivoting** (`|a_ij| ≥ τ·max|a_·j|`,
//!   bounding every L multiplier by `1/τ`). Simplex bases are mostly slack
//!   columns, so most elimination steps have four or more singleton
//!   columns to choose from; an index of them ([`Singletons`]) yields
//!   those steps' candidates without visiting every alive column, and only
//!   the remaining steps pay the `O(alive)` candidate scan.
//! * [`EtaFile`] — product-form updates: each basis exchange appends one eta
//!   vector instead of touching the factorization, so a pivot costs
//!   O(nnz(B⁻¹A_q)). The file length is capped by the caller
//!   (`SolverOptions::eta_limit`); exceeding it forces a refactorization.
//! * Sparse **FTRAN/BTRAN** solves that skip structural zeros, so the cost
//!   tracks the factor fill rather than `m²`.
//!
//! Factors are stored in *elimination-step* space: step `k` pivoted original
//! row `row_at[k]` and basis position `col_at[k]`. `L` is unit lower
//! triangular (diagonal implicit), `U` upper triangular, both column-major.

use crate::error::{MilpError, Result};
use crate::standard::{ColumnRef, StandardForm};

/// Threshold partial pivoting factor `τ`: an entry is an acceptable pivot
/// only if its magnitude is at least `τ` times the largest magnitude in its
/// column, which bounds every multiplier by `1/τ`.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Absolute pivot magnitude floor; below this the basis is declared
/// singular (mirrors the dense kernel's `1e-11` Gauss-Jordan floor).
const PIVOT_FLOOR: f64 = 1e-11;
/// Eliminated fill-in smaller than this is dropped.
const DROP_TOL: f64 = 1e-14;
/// Number of lowest-count candidate columns scanned per Markowitz search.
const SEARCH_COLS: usize = 4;

/// The alive columns of the active submatrix whose count is 1, as a bitset
/// over basis positions, with the number of alive columns of count 1 and
/// of count 0. [`LuFactors::factorize`] reports every count change and
/// every column death, so the index always matches `ccount`.
struct Singletons {
    bits: Vec<u64>,
    ones: usize,
    zeros: usize,
    /// No word below this one holds a set bit.
    lo: usize,
}

impl Singletons {
    fn new(m: usize) -> Self {
        Singletons { bits: vec![0; m.div_ceil(64)], ones: 0, zeros: 0, lo: 0 }
    }

    /// Alive column `c` enters with count `count`.
    fn enter(&mut self, c: usize, count: usize) {
        match count {
            0 => self.zeros += 1,
            1 => {
                self.bits[c / 64] |= 1 << (c % 64);
                self.ones += 1;
                self.lo = self.lo.min(c / 64);
            }
            _ => {}
        }
    }

    /// Column `c` of count `count` dies (or is about to be recounted).
    fn leave(&mut self, c: usize, count: usize) {
        match count {
            0 => self.zeros -= 1,
            1 => {
                self.bits[c / 64] &= !(1 << (c % 64));
                self.ones -= 1;
            }
            _ => {}
        }
    }

    /// Alive column `c`'s count went from `old` to `new`.
    fn recount(&mut self, c: usize, old: usize, new: usize) {
        if old != new {
            self.leave(c, old);
            self.enter(c, new);
        }
    }

    /// The candidates of the insertion scan in
    /// [`LuFactors::factorize`] when at least [`SEARCH_COLS`] count-1
    /// columns and no count-0 column are alive: the lowest-position count-1
    /// columns, in position order. The scan builds exactly that list. Only
    /// a strictly smaller count displaces a held column, so nothing
    /// displaces a count-1 column, and each count-1 column enters right
    /// behind those already held until the list is full. `None` when the
    /// condition fails.
    fn lowest(&mut self) -> Option<[usize; SEARCH_COLS]> {
        if self.zeros > 0 || self.ones < SEARCH_COLS {
            return None;
        }
        while self.bits[self.lo] == 0 {
            self.lo += 1;
        }
        let mut cand = [usize::MAX; SEARCH_COLS];
        let mut k = 0;
        for (w, &word) in self.bits.iter().enumerate().skip(self.lo) {
            let mut word = word;
            while word != 0 {
                cand[k] = w * 64 + word.trailing_zeros() as usize;
                k += 1;
                if k == SEARCH_COLS {
                    return Some(cand);
                }
                word &= word - 1;
            }
        }
        unreachable!("the index holds {} count-1 columns", self.ones)
    }
}

/// The insertion scan of [`LuFactors::factorize`] over `alive` in the order
/// given: each column enters the fixed-size list in front of the first
/// held column of strictly larger count (or into the first empty slot),
/// and the column it displaces moves on the same way.
fn scan_candidates(alive: &[usize], ccount: &[usize]) -> [usize; SEARCH_COLS] {
    let mut cand = [usize::MAX; SEARCH_COLS];
    for &c in alive {
        let mut hold = c;
        for slot in cand.iter_mut() {
            if *slot == usize::MAX || ccount[hold] < ccount[*slot] {
                std::mem::swap(&mut hold, slot);
                if hold == usize::MAX {
                    break;
                }
            }
        }
    }
    cand
}

/// A sparse LU factorization of one basis matrix.
#[derive(Debug, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// `row_at[k]` = original row eliminated at step `k`.
    row_at: Vec<usize>,
    /// `col_at[k]` = basis position eliminated at step `k`.
    col_at: Vec<usize>,
    /// `L` columns in step space: `l_cols[k]` holds `(step, multiplier)`
    /// with `step > k`; the unit diagonal is implicit.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `U` columns in step space: `u_cols[k]` holds `(step, value)` with
    /// `step < k`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// `U` diagonal by step.
    u_diag: Vec<f64>,
}

/// `clone_from` copies into the existing factor storage (every `L`/`U`
/// column keeps its allocation and grows only when the source column is
/// longer), so rolling a simplex state back to a checkpoint costs O(nnz);
/// a derived `clone_from` would reallocate every column.
impl Clone for LuFactors {
    fn clone(&self) -> Self {
        LuFactors {
            m: self.m,
            row_at: self.row_at.clone(),
            col_at: self.col_at.clone(),
            l_cols: self.l_cols.clone(),
            u_cols: self.u_cols.clone(),
            u_diag: self.u_diag.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.m = source.m;
        self.row_at.clone_from(&source.row_at);
        self.col_at.clone_from(&source.col_at);
        self.l_cols.clone_from(&source.l_cols);
        self.u_cols.clone_from(&source.u_cols);
        self.u_diag.clone_from(&source.u_diag);
    }
}

impl LuFactors {
    /// Factors of the identity basis (the all-slack start).
    pub fn identity(m: usize) -> Self {
        LuFactors {
            m,
            row_at: (0..m).collect(),
            col_at: (0..m).collect(),
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: vec![1.0; m],
        }
    }

    /// Total stored nonzeros in `L` and `U` (diagnostics).
    #[allow(dead_code)] // exercised in tests
    pub fn fill(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.m
    }

    /// Factorizes the basis `B = [A_{basis[0]} … A_{basis[m−1]}]`.
    ///
    /// Each elimination step takes its Markowitz candidates from an
    /// insertion scan of the alive columns by count. When four or more
    /// count-1 columns and no count-0 column are alive, the scan's list is
    /// the four lowest-position count-1 columns ([`Singletons::lowest`]),
    /// which the singleton index yields in `O(m/64)`. The other steps run
    /// the scan over a position-sorted list of the alive columns, `O(alive)`
    /// each. On slack-heavy simplex bases almost every step takes the index,
    /// so the search no longer costs `O(m²)` per factorization, and the
    /// factors are those of the full scan bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::SingularBasis`] when no acceptable pivot exists
    /// (a numerically empty column/row in the active submatrix).
    pub fn factorize(sf: &StandardForm, basis: &[usize]) -> Result<Self> {
        let m = basis.len();
        // Active submatrix, column-major over basis positions; entries keep
        // original row indices. `rows_touch[r]` lists the positions whose
        // column (may) hold an entry in row `r`.
        let mut acols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut rows_touch: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut rcount = vec![0usize; m];
        let mut ccount = vec![0usize; m];
        let mut singles = Singletons::new(m);
        for (pos, &j) in basis.iter().enumerate() {
            let col: Vec<(usize, f64)> = match sf.column(j) {
                ColumnRef::Structural(nz) => nz.to_vec(),
                ColumnRef::Slack(r) => vec![(r, 1.0)],
            };
            for &(r, _) in &col {
                rcount[r] += 1;
                rows_touch[r].push(pos);
            }
            ccount[pos] = col.len();
            singles.enter(pos, col.len());
            acols.push(col);
        }
        // The alive positions in ascending order, built when the index
        // first cannot answer and pruned of dead columns at each later scan.
        let mut alive: Option<Vec<usize>> = None;

        let mut row_alive = vec![true; m];
        let mut col_alive = vec![true; m];
        let mut row_step = vec![usize::MAX; m]; // original row -> step
        let mut row_at = Vec::with_capacity(m);
        let mut col_at = Vec::with_capacity(m);
        let mut l_raw: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m); // original-row space
        let mut u_by_pos: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m]; // (step, value)
        let mut u_diag = Vec::with_capacity(m);
        // Dense scratch: marker[r] = position+1 of row r in the column being
        // updated (0 = absent).
        let mut marker = vec![0usize; m];

        for step in 0..m {
            // --- Markowitz pivot search over low-count candidate columns ---
            let cand = singles.lowest().unwrap_or_else(|| {
                let alive = alive.get_or_insert_with(|| (0..m).filter(|&c| col_alive[c]).collect());
                alive.retain(|&c| col_alive[c]);
                scan_candidates(alive, &ccount)
            });
            let mut best: Option<(usize, usize, f64, u64)> = None; // (row, col, val, cost)
            for &c in cand.iter().take_while(|&&c| c != usize::MAX) {
                // Compact: drop dead rows and numerically vanished entries.
                acols[c].retain(|&(r, v)| {
                    if !row_alive[r] {
                        return false;
                    }
                    if v.abs() < DROP_TOL {
                        rcount[r] -= 1;
                        return false;
                    }
                    true
                });
                singles.recount(c, ccount[c], acols[c].len());
                ccount[c] = acols[c].len();
                let colmax = acols[c].iter().map(|&(_, v)| v.abs()).fold(0.0, f64::max);
                if colmax < PIVOT_FLOOR {
                    // An alive column with no usable entry can never pivot.
                    return Err(MilpError::SingularBasis);
                }
                for &(r, v) in &acols[c] {
                    if v.abs() < PIVOT_THRESHOLD * colmax || v.abs() < PIVOT_FLOOR {
                        continue;
                    }
                    let cost = (rcount[r] as u64 - 1) * (ccount[c] as u64 - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                    };
                    if better {
                        best = Some((r, c, v, cost));
                    }
                }
            }
            let Some((pr, pc, pv, _)) = best else {
                return Err(MilpError::SingularBasis);
            };

            // --- Eliminate pivot (pr, pc) ---
            row_at.push(pr);
            col_at.push(pc);
            row_step[pr] = step;
            u_diag.push(pv);
            col_alive[pc] = false;
            singles.leave(pc, ccount[pc]);
            row_alive[pr] = false;
            // The pivot column leaves the active submatrix.
            let mut mult: Vec<(usize, f64)> = Vec::new();
            for &(r, v) in &acols[pc] {
                rcount[r] = rcount[r].saturating_sub(1);
                if r != pr {
                    mult.push((r, v / pv));
                }
            }
            acols[pc].clear();

            // Update every alive column holding the pivot row.
            let touched = std::mem::take(&mut rows_touch[pr]);
            for &c in &touched {
                if !col_alive[c] {
                    continue;
                }
                let Some(pos) = acols[c].iter().position(|&(r, _)| r == pr) else {
                    continue; // stale reference (entry dropped earlier)
                };
                let before = ccount[c];
                let (_, vpc) = acols[c].swap_remove(pos);
                ccount[c] = ccount[c].saturating_sub(1);
                u_by_pos[c].push((step, vpc));
                if !mult.is_empty() && vpc != 0.0 {
                    // Scatter `col_c ← col_c − vpc · mult` with a dense marker.
                    for (p, &(r, _)) in acols[c].iter().enumerate() {
                        marker[r] = p + 1;
                    }
                    for &(r, l) in &mult {
                        let delta = -l * vpc;
                        match marker[r] {
                            0 => {
                                if delta.abs() >= DROP_TOL && row_alive[r] {
                                    acols[c].push((r, delta));
                                    ccount[c] += 1;
                                    rcount[r] += 1;
                                    rows_touch[r].push(c);
                                }
                            }
                            p => acols[c][p - 1].1 += delta,
                        }
                    }
                    for &(r, _) in &acols[c] {
                        marker[r] = 0;
                    }
                }
                singles.recount(c, before, ccount[c]);
            }
            l_raw.push(mult);
        }

        // Re-index L into step space and U into elimination order.
        let l_cols: Vec<Vec<(usize, f64)>> = l_raw
            .into_iter()
            .map(|col| col.into_iter().map(|(r, v)| (row_step[r], v)).collect())
            .collect();
        let u_cols: Vec<Vec<(usize, f64)>> =
            col_at.iter().map(|&pos| std::mem::take(&mut u_by_pos[pos])).collect();

        Ok(LuFactors { m, row_at, col_at, l_cols, u_cols, u_diag })
    }

    /// Solves `B x = v` in place (`v` indexed by row on entry, by basis
    /// position on exit). `work` is caller-provided scratch of length `m`.
    pub fn ftran(&self, v: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            work[k] = v[self.row_at[k]];
        }
        // L forward substitution; skipping zero positions makes the cost
        // proportional to the reachable nonzero set of the rhs.
        for k in 0..m {
            let x = work[k];
            if x != 0.0 {
                for &(i, l) in &self.l_cols[k] {
                    work[i] -= l * x;
                }
            }
        }
        // U backward substitution.
        for k in (0..m).rev() {
            let x = work[k] / self.u_diag[k];
            work[k] = x;
            if x != 0.0 {
                for &(i, u) in &self.u_cols[k] {
                    work[i] -= u * x;
                }
            }
        }
        for k in 0..m {
            v[self.col_at[k]] = work[k];
        }
    }

    /// Solves `Bᵀ y = c` in place (`c` indexed by basis position on entry,
    /// by row on exit). `work` is caller-provided scratch of length `m`.
    pub fn btran(&self, c: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        // Uᵀ forward substitution (gather form).
        for k in 0..m {
            let mut s = c[self.col_at[k]];
            for &(i, u) in &self.u_cols[k] {
                s -= u * work[i];
            }
            work[k] = s / self.u_diag[k];
        }
        // Lᵀ backward substitution (gather form).
        for k in (0..m).rev() {
            let mut s = work[k];
            for &(i, l) in &self.l_cols[k] {
                s -= l * work[i];
            }
            work[k] = s;
        }
        for k in 0..m {
            c[self.row_at[k]] = work[k];
        }
    }
}

/// One product-form update: basis position `r` was replaced by a column
/// whose FTRAN image `aq` has the pivot `aq[r]`; its other nonzeros are
/// `entries[start..end]` in the [`EtaFile`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct EtaHead {
    r: usize,
    pivot: f64,
    start: usize,
    end: usize,
}

/// The eta file: pending product-form updates on top of [`LuFactors`].
///
/// The updates live in two flat buffers: one head per update, and every
/// update's other nonzeros back to back. So once they have grown a pivot
/// allocates nothing: `clear` keeps their capacity, and `clone_from`
/// copies into them.
#[derive(Debug, Default)]
pub(crate) struct EtaFile {
    heads: Vec<EtaHead>,
    entries: Vec<(usize, f64)>,
}

impl Clone for EtaFile {
    fn clone(&self) -> Self {
        EtaFile { heads: self.heads.clone(), entries: self.entries.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.heads.clone_from(&source.heads);
        self.entries.clone_from(&source.entries);
    }
}

impl EtaFile {
    /// Number of pending updates.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Drops all pending updates (after a refactorization).
    pub fn clear(&mut self) {
        self.heads.clear();
        self.entries.clear();
    }

    /// Records the basis exchange at position `r`; `aq` is the FTRAN'd
    /// entering column (so `aq[r]` is the pivot element).
    pub fn push(&mut self, r: usize, aq: &[f64]) {
        let start = self.entries.len();
        self.entries.extend(
            aq.iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v.abs() >= DROP_TOL)
                .map(|(i, &v)| (i, v)),
        );
        self.heads.push(EtaHead { r, pivot: aq[r], start, end: self.entries.len() });
    }

    /// Applies `E_1⁻¹ … E_k⁻¹` left-to-right to an FTRAN result (position
    /// space): completes `x = E_k⁻¹…E_1⁻¹ B₀⁻¹ v`.
    pub fn apply_ftran(&self, x: &mut [f64]) {
        for e in &self.heads {
            let xr = x[e.r] / e.pivot;
            if xr != 0.0 {
                for &(i, v) in &self.entries[e.start..e.end] {
                    x[i] -= v * xr;
                }
            }
            x[e.r] = xr;
        }
    }

    /// Applies `E_k⁻ᵀ … E_1⁻ᵀ` (newest first) to a BTRAN right-hand side
    /// *before* the factor solve: `Bᵀy = c` with `B = B₀E_1…E_k` becomes
    /// `B₀ᵀ y = E_1⁻ᵀ(…(E_k⁻ᵀ c))`.
    pub fn apply_btran_rhs(&self, c: &mut [f64]) {
        for e in self.heads.iter().rev() {
            let mut s = c[e.r];
            for &(i, v) in &self.entries[e.start..e.end] {
                s -= v * c[i];
            }
            c[e.r] = s / e.pivot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::options::SolverOptions;
    use crate::LinExpr;
    use proptest::prelude::*;

    /// A standard form with a non-trivial sparse structural block.
    fn fixture() -> StandardForm {
        let mut m = Model::new("lu");
        let xs: Vec<_> =
            (0..6).map(|i| m.continuous(format!("x{i}"), -5.0, 5.0).unwrap()).collect();
        m.add_le("r0", LinExpr::term(xs[0], 2.0) + LinExpr::term(xs[1], -1.0), 3.0);
        m.add_ge("r1", LinExpr::term(xs[1], 4.0) + LinExpr::term(xs[2], 1.5), -2.0);
        m.add_eq("r2", LinExpr::term(xs[2], 1.0) + LinExpr::term(xs[3], -2.5), 0.5);
        m.add_le("r3", LinExpr::term(xs[0], 0.5) + LinExpr::term(xs[4], 3.0), 4.0);
        m.add_ge("r4", LinExpr::term(xs[3], 1.0) + LinExpr::term(xs[5], -1.0), -1.0);
        m.add_le("r5", LinExpr::term(xs[4], 2.0) + LinExpr::term(xs[5], 2.0), 6.0);
        StandardForm::from_model(&m)
    }

    /// Dense multiplication `B · x` for checking the solves.
    fn mat_vec(sf: &StandardForm, basis: &[usize], x: &[f64]) -> Vec<f64> {
        let m = basis.len();
        let mut out = vec![0.0; m];
        for (pos, &j) in basis.iter().enumerate() {
            sf.column(j).axpy(x[pos], &mut out);
        }
        out
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-8, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn identity_factors_are_noops() {
        let lu = LuFactors::identity(4);
        let mut v = vec![1.0, -2.0, 3.5, 0.0];
        let mut work = vec![0.0; 4];
        let orig = v.clone();
        lu.ftran(&mut v, &mut work);
        assert_close(&v, &orig);
        lu.btran(&mut v, &mut work);
        assert_close(&v, &orig);
    }

    #[test]
    fn ftran_solves_structural_basis() {
        let sf = fixture();
        // A mixed basis: five structural columns plus the row-5 slack.
        let basis = vec![0, 1, 2, 3, 4, 11];
        let lu = LuFactors::factorize(&sf, &basis).unwrap();
        let rhs = vec![1.0, 2.0, -1.0, 0.5, 3.0, -2.0];
        let mut x = rhs.clone();
        let mut work = vec![0.0; 6];
        lu.ftran(&mut x, &mut work);
        assert_close(&mat_vec(&sf, &basis, &x), &rhs);
    }

    #[test]
    fn btran_solves_transpose() {
        let sf = fixture();
        let basis = vec![0, 1, 2, 3, 4, 11];
        let lu = LuFactors::factorize(&sf, &basis).unwrap();
        let c = vec![0.5, -1.0, 2.0, 0.0, 1.0, 3.0];
        let mut y = c.clone();
        let mut work = vec![0.0; 6];
        lu.btran(&mut y, &mut work);
        // Check Bᵀ y = c, i.e. for each position: column · y = c[pos].
        for (pos, &j) in basis.iter().enumerate() {
            let dot = sf.column(j).dot(&y);
            assert!((dot - c[pos]).abs() < 1e-8, "position {pos}: {dot} vs {}", c[pos]);
        }
    }

    #[test]
    fn singular_basis_rejected() {
        let sf = fixture();
        // Same column twice: rank deficient.
        let basis = vec![0, 0, 2, 3, 6, 8];
        assert!(matches!(LuFactors::factorize(&sf, &basis), Err(MilpError::SingularBasis)));
    }

    #[test]
    fn eta_updates_track_basis_exchange() {
        let sf = fixture();
        let mut basis = vec![6, 7, 8, 9, 10, 11]; // all slacks = identity
        let lu = LuFactors::factorize(&sf, &basis).unwrap();
        let mut etas = EtaFile::default();

        // Exchange position 1: bring in structural column 1 (pivot 4.0).
        let entering = 1usize;
        let mut aq = vec![0.0; 6];
        sf.column(entering).axpy(1.0, &mut aq);
        let mut work = vec![0.0; 6];
        lu.ftran(&mut aq, &mut work);
        etas.apply_ftran(&mut aq);
        assert!(aq[1].abs() > 1e-12, "pivot must be nonzero");
        etas.push(1, &aq);
        basis[1] = entering;
        assert_eq!(etas.len(), 1);

        // FTRAN through LU+eta must agree with a fresh factorization.
        let fresh = LuFactors::factorize(&sf, &basis).unwrap();
        let rhs = vec![1.0, -1.0, 2.0, 0.0, 0.5, 1.5];
        let mut a = rhs.clone();
        lu.ftran(&mut a, &mut work);
        etas.apply_ftran(&mut a);
        let mut b = rhs.clone();
        fresh.ftran(&mut b, &mut work);
        assert_close(&a, &b);

        // Same for BTRAN.
        let c = vec![2.0, 0.0, -1.0, 1.0, 0.0, 0.5];
        let mut a = c.clone();
        etas.apply_btran_rhs(&mut a);
        lu.btran(&mut a, &mut work);
        let mut b = c.clone();
        fresh.btran(&mut b, &mut work);
        assert_close(&a, &b);

        etas.clear();
        assert_eq!(etas.len(), 0);
    }

    /// `clone_from` must copy into the target's column buffers, not
    /// replace them: a rollback to a checkpoint then allocates nothing.
    #[test]
    fn clone_from_reuses_the_target_buffers() {
        let sf = fixture();
        let lu = LuFactors::factorize(&sf, &[0, 1, 2, 3, 4, 11]).unwrap();
        let mut to = lu.clone();
        let cols = |f: &LuFactors| -> Vec<*const (usize, f64)> {
            f.l_cols.iter().chain(&f.u_cols).filter(|c| !c.is_empty()).map(|c| c.as_ptr()).collect()
        };
        let before = cols(&to);
        assert!(!before.is_empty(), "fixture must have off-diagonal factor entries");
        to.clone_from(&lu);
        assert_eq!(cols(&to), before);
        assert_eq!(to.u_diag, lu.u_diag);

        let mut etas = EtaFile::default();
        etas.push(0, &[2.0, 1.0, 0.0, -1.0]);
        etas.push(3, &[0.5, 0.0, 0.0, 4.0]);
        let mut to = etas.clone();
        let buffers = |e: &EtaFile| (e.heads.as_ptr(), e.entries.as_ptr());
        let before = buffers(&to);
        to.clone_from(&etas);
        assert_eq!(buffers(&to), before);
        assert_eq!((&to.heads, &to.entries), (&etas.heads, &etas.entries));
        // A shorter source also copies in place.
        let mut one = EtaFile::default();
        one.push(1, &[0.0, 3.0, 0.0, 0.0]);
        to.clone_from(&one);
        assert_eq!(buffers(&to), before);
        assert_eq!(to.len(), 1);
        assert_eq!((&to.heads, &to.entries), (&one.heads, &one.entries));
    }

    /// `clear` keeps the buffers: pushing the same updates again after a
    /// refactorization allocates nothing.
    #[test]
    fn cleared_eta_file_pushes_into_its_buffers() {
        let push_two = |etas: &mut EtaFile| {
            etas.push(0, &[2.0, 1.0, 0.0, -1.0]);
            etas.push(3, &[0.5, 0.0, 0.0, 4.0]);
        };
        let mut etas = EtaFile::default();
        push_two(&mut etas);
        assert_eq!(etas.entries, [(1, 1.0), (3, -1.0), (0, 0.5)]);
        let first = etas.heads.clone();
        let (ptr, capacity) = (etas.entries.as_ptr(), etas.entries.capacity());
        etas.clear();
        assert_eq!(etas.len(), 0);
        push_two(&mut etas);
        assert_eq!((etas.entries.as_ptr(), etas.entries.capacity()), (ptr, capacity));
        assert_eq!(etas.heads, first);
        let updates: Vec<_> = etas.heads.iter().map(|e| (e.r, e.pivot, e.start, e.end)).collect();
        assert_eq!(updates, [(0, 2.0, 0, 2), (3, 4.0, 2, 3)]);
    }

    /// The factorization as it was before the singleton index: the
    /// insertion scan visits every alive column at every step. Kept as the
    /// reference the indexed search must reproduce bit for bit.
    fn factorize_reference(sf: &StandardForm, basis: &[usize]) -> Result<LuFactors> {
        let m = basis.len();
        let mut acols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut rows_touch: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut rcount = vec![0usize; m];
        let mut ccount = vec![0usize; m];
        for (pos, &j) in basis.iter().enumerate() {
            let col: Vec<(usize, f64)> = match sf.column(j) {
                ColumnRef::Structural(nz) => nz.to_vec(),
                ColumnRef::Slack(r) => vec![(r, 1.0)],
            };
            for &(r, _) in &col {
                rcount[r] += 1;
                rows_touch[r].push(pos);
            }
            ccount[pos] = col.len();
            acols.push(col);
        }

        let mut row_alive = vec![true; m];
        let mut col_alive = vec![true; m];
        let mut row_step = vec![usize::MAX; m];
        let mut row_at = Vec::with_capacity(m);
        let mut col_at = Vec::with_capacity(m);
        let mut l_raw: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_by_pos: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut u_diag = Vec::with_capacity(m);
        let mut marker = vec![0usize; m];

        for step in 0..m {
            let mut cand = [usize::MAX; SEARCH_COLS];
            for (c, _) in col_alive.iter().enumerate().filter(|&(_, &alive)| alive) {
                let mut hold = c;
                for slot in cand.iter_mut() {
                    if *slot == usize::MAX || ccount[hold] < ccount[*slot] {
                        std::mem::swap(&mut hold, slot);
                        if hold == usize::MAX {
                            break;
                        }
                    }
                }
            }
            let mut best: Option<(usize, usize, f64, u64)> = None;
            for &c in cand.iter().take_while(|&&c| c != usize::MAX) {
                acols[c].retain(|&(r, v)| {
                    if !row_alive[r] {
                        return false;
                    }
                    if v.abs() < DROP_TOL {
                        rcount[r] -= 1;
                        return false;
                    }
                    true
                });
                ccount[c] = acols[c].len();
                let colmax = acols[c].iter().map(|&(_, v)| v.abs()).fold(0.0, f64::max);
                if colmax < PIVOT_FLOOR {
                    return Err(MilpError::SingularBasis);
                }
                for &(r, v) in &acols[c] {
                    if v.abs() < PIVOT_THRESHOLD * colmax || v.abs() < PIVOT_FLOOR {
                        continue;
                    }
                    let cost = (rcount[r] as u64 - 1) * (ccount[c] as u64 - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                    };
                    if better {
                        best = Some((r, c, v, cost));
                    }
                }
            }
            let Some((pr, pc, pv, _)) = best else {
                return Err(MilpError::SingularBasis);
            };

            row_at.push(pr);
            col_at.push(pc);
            row_step[pr] = step;
            u_diag.push(pv);
            col_alive[pc] = false;
            row_alive[pr] = false;
            let mut mult: Vec<(usize, f64)> = Vec::new();
            for &(r, v) in &acols[pc] {
                rcount[r] = rcount[r].saturating_sub(1);
                if r != pr {
                    mult.push((r, v / pv));
                }
            }
            acols[pc].clear();

            let touched = std::mem::take(&mut rows_touch[pr]);
            for &c in &touched {
                if !col_alive[c] {
                    continue;
                }
                let Some(pos) = acols[c].iter().position(|&(r, _)| r == pr) else {
                    continue;
                };
                let (_, vpc) = acols[c].swap_remove(pos);
                ccount[c] = ccount[c].saturating_sub(1);
                u_by_pos[c].push((step, vpc));
                if mult.is_empty() || vpc == 0.0 {
                    continue;
                }
                for (p, &(r, _)) in acols[c].iter().enumerate() {
                    marker[r] = p + 1;
                }
                for &(r, l) in &mult {
                    let delta = -l * vpc;
                    match marker[r] {
                        0 => {
                            if delta.abs() >= DROP_TOL && row_alive[r] {
                                acols[c].push((r, delta));
                                ccount[c] += 1;
                                rcount[r] += 1;
                                rows_touch[r].push(c);
                            }
                        }
                        p => acols[c][p - 1].1 += delta,
                    }
                }
                for &(r, _) in &acols[c] {
                    marker[r] = 0;
                }
            }
            l_raw.push(mult);
        }

        let l_cols: Vec<Vec<(usize, f64)>> = l_raw
            .into_iter()
            .map(|col| col.into_iter().map(|(r, v)| (row_step[r], v)).collect())
            .collect();
        let u_cols: Vec<Vec<(usize, f64)>> =
            col_at.iter().map(|&pos| std::mem::take(&mut u_by_pos[pos])).collect();

        Ok(LuFactors { m, row_at, col_at, l_cols, u_cols, u_diag })
    }

    /// `Ok` when both results are errors, or both are factors with the same
    /// permutations and bit-identical `L`, `U` and diagonal.
    fn same_factors(
        a: &Result<LuFactors>,
        b: &Result<LuFactors>,
    ) -> std::result::Result<(), String> {
        let bits = |cols: &[Vec<(usize, f64)>]| -> Vec<Vec<(usize, u64)>> {
            cols.iter().map(|c| c.iter().map(|&(i, v)| (i, v.to_bits())).collect()).collect()
        };
        match (a, b) {
            (Err(MilpError::SingularBasis), Err(MilpError::SingularBasis)) => Ok(()),
            (Ok(a), Ok(b)) => {
                let diag = |f: &LuFactors| f.u_diag.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                if a.m != b.m || a.row_at != b.row_at || a.col_at != b.col_at {
                    return Err(format!(
                        "pivots differ: rows {:?} vs {:?}, positions {:?} vs {:?}",
                        a.row_at, b.row_at, a.col_at, b.col_at
                    ));
                }
                if bits(&a.l_cols) != bits(&b.l_cols) || bits(&a.u_cols) != bits(&b.u_cols) {
                    return Err("L or U entries differ".into());
                }
                if diag(a) != diag(b) {
                    return Err("U diagonals differ".into());
                }
                Ok(())
            }
            (a, b) => Err(format!(
                "outcomes differ: {:?} vs {:?}",
                a.as_ref().map(|_| "factors"),
                b.as_ref().map(|_| "factors")
            )),
        }
    }

    /// A standard form holding `cols` as its structural columns over `m`
    /// rows; only the columns matter to a factorization.
    fn form_of(m: usize, cols: Vec<Vec<(usize, f64)>>) -> StandardForm {
        let n = cols.len();
        let mut rows_nz = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                rows_nz[r].push((j, v));
            }
        }
        StandardForm {
            cols,
            rows_nz,
            b: vec![0.0; m],
            c: vec![0.0; n],
            lb: vec![0.0; n + m],
            ub: vec![1.0; n + m],
            clamped: vec![false; n + m],
            n,
            m,
            obj_offset: 0.0,
            maximize: false,
        }
    }

    /// A random `m × m` basis drawn from `seed`. The draw picks a slack
    /// share (none to 95 %), and may make the structural columns
    /// singletons with |v| above or below 1, give them a fill-heavy
    /// nucleus, sprinkle entries between `DROP_TOL` and `PIVOT_FLOOR` (and
    /// below `DROP_TOL`), or add empty and duplicated columns. Each column
    /// owns one diagonal row of a random permutation, so most bases without
    /// empty or duplicated columns factorize.
    fn random_basis(seed: u64, m: usize) -> (StandardForm, Vec<usize>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let slack_share = [0.0, 0.5, 0.85, 0.95][rng.gen_range(0..4usize)];
        let singleton_share = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
        let nucleus = rng.gen_bool(0.3);
        let tiny = rng.gen_bool(0.3);
        let degenerate = rng.gen_bool(0.2);
        let mut rows: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            rows.swap(i, rng.gen_range(0..=i));
        }
        let value = |rng: &mut StdRng| -> f64 {
            let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
            let magnitude = match rng.gen_range(0..8usize) {
                0 if tiny => 10f64.powf(rng.gen_range(-14.0..-11.0)),
                1 if tiny => 10f64.powf(rng.gen_range(-16.0..-14.0)),
                2 => 1.0,
                3 | 4 => rng.gen_range(0.05..0.99),
                _ => rng.gen_range(1.01..8.0),
            };
            sign * magnitude
        };
        // `None` marks the slack of the position's diagonal row.
        let mut picks: Vec<Option<usize>> = Vec::with_capacity(m);
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        for &row in &rows {
            if rng.gen_bool(slack_share) {
                picks.push(None);
                continue;
            }
            if degenerate && !cols.is_empty() && rng.gen_bool(0.1) {
                // The same structural column twice in the basis.
                picks.push(Some(rng.gen_range(0..cols.len())));
                continue;
            }
            let mut col = Vec::new();
            if !(degenerate && rng.gen_bool(0.1)) {
                col.push((row, value(&mut rng)));
                let extra = if rng.gen_bool(singleton_share) {
                    0
                } else if nucleus {
                    rng.gen_range(1..=m.div_ceil(2))
                } else {
                    rng.gen_range(1..=3usize)
                };
                for _ in 0..extra.min(m - 1) {
                    let r = rng.gen_range(0..m);
                    if col.iter().all(|&(q, _)| q != r) {
                        col.push((r, value(&mut rng)));
                    }
                }
                col.sort_by_key(|&(r, _)| r);
            }
            picks.push(Some(cols.len()));
            cols.push(col);
        }
        let n = cols.len();
        let basis = picks.iter().zip(&rows).map(|(p, &row)| p.unwrap_or(n + row)).collect();
        (form_of(m, cols), basis)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The indexed candidate search returns the factors of the full
        /// scan bit for bit, and fails exactly where the scan fails.
        #[test]
        fn factorize_matches_the_full_scan_bit_for_bit(seed in any::<u64>(), m in 1usize..=60) {
            let (sf, basis) = random_basis(seed, m);
            let indexed = LuFactors::factorize(&sf, &basis);
            let reference = factorize_reference(&sf, &basis);
            if let Err(msg) = same_factors(&indexed, &reference) {
                return Err(TestCaseError::fail(format!("m = {m}, basis {basis:?}: {msg}")));
            }
        }

        /// The index answers with exactly the scan's candidate list
        /// whenever it answers, and declines exactly when a count-0 column
        /// is alive or fewer than four count-1 columns are, under random
        /// count changes and column deaths.
        #[test]
        fn singleton_index_answers_with_the_scans_list(
            seed in any::<u64>(),
            m in 1usize..=150,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            // Some cases never draw a count-0 column, so the index answers
            // for long stretches; the others keep declining and recovering.
            let p_zero = [0.0, 0.02, 0.1][rng.gen_range(0..3usize)];
            let draw = |rng: &mut StdRng| {
                if rng.gen_bool(p_zero) {
                    0
                } else if rng.gen_bool(0.6) {
                    1
                } else {
                    rng.gen_range(2..6usize)
                }
            };
            let mut ccount: Vec<usize> = (0..m).map(|_| draw(&mut rng)).collect();
            let mut alive = vec![true; m];
            let mut index = Singletons::new(m);
            for (c, &k) in ccount.iter().enumerate() {
                index.enter(c, k);
            }
            for _ in 0..2 * m {
                let c = rng.gen_range(0..m);
                if !alive[c] {
                    continue;
                }
                if rng.gen_bool(0.3) {
                    alive[c] = false;
                    index.leave(c, ccount[c]);
                } else {
                    let k = draw(&mut rng);
                    index.recount(c, ccount[c], k);
                    ccount[c] = k;
                }
                let positions: Vec<usize> = (0..m).filter(|&c| alive[c]).collect();
                let scan = scan_candidates(&positions, &ccount);
                let ones = positions.iter().filter(|&&c| ccount[c] == 1).count();
                let zeros = positions.iter().filter(|&&c| ccount[c] == 0).count();
                let expected = (zeros == 0 && ones >= SEARCH_COLS).then_some(scan);
                prop_assert_eq!(index.lowest(), expected);
            }
        }

        /// Every basis the dual simplex passes through, pivot by pivot, on
        /// a small random binary MILP and along a dive that fixes its
        /// fractional columns, factorizes bit for bit like the full scan.
        #[test]
        fn factorize_matches_the_full_scan_on_simplex_iterates(
            milp in crate::testgen::random_binary_milp(),
        ) {
            let model = crate::testgen::build_random(&milp);
            let checked = walk_iterates(&model)?;
            prop_assert!(checked > 0);
        }
    }

    /// Runs the dual simplex one pivot at a time from the slack basis,
    /// fixing the first fractional column to its floor at each LP optimum,
    /// and checks the factorization of every basis on the way. Returns the
    /// number of bases checked.
    fn walk_iterates(model: &Model) -> std::result::Result<usize, TestCaseError> {
        use crate::simplex::{LpStatus, Simplex};
        let opts = SolverOptions::default();
        let sf = StandardForm::from_model(model);
        let mut lp = Simplex::new(&sf, &opts);
        let mut checked = 0;
        for _ in 0..10_000 {
            let basis: Vec<usize> = (0..lp.nrows()).map(|r| lp.basis_col(r)).collect();
            if let Err(msg) = same_factors(
                &LuFactors::factorize(lp.form(), &basis),
                &factorize_reference(lp.form(), &basis),
            ) {
                return Err(TestCaseError::fail(format!("basis {basis:?}: {msg}")));
            }
            checked += 1;
            match lp.optimize_capped(1) {
                Err(MilpError::IterationLimit { .. }) => {}
                Ok(LpStatus::Optimal) => {
                    let fractional = (0..model.num_vars()).find(|&j| {
                        let v = lp.value(j);
                        (v - v.round()).abs() > 1e-6
                    });
                    let Some(j) = fractional else { break };
                    let floor = lp.value(j).floor();
                    lp.set_bounds(j, floor, floor);
                    lp.refresh();
                }
                Ok(LpStatus::Infeasible) | Err(_) => break,
            }
        }
        Ok(checked)
    }

    /// Real iterates on larger models than the property above draws: a
    /// sparse random knapsack-style binary MILP of 30 columns and 24 `≤`
    /// rows per seed, maximized, so the dual simplex starts from every
    /// column at its upper bound and pivots for a while.
    #[test]
    fn factorize_matches_the_full_scan_on_larger_simplex_iterates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut checked = 0;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 30;
            let rows = (0..24)
                .map(|_| {
                    let coeffs = (0..n)
                        .map(|_| if rng.gen_bool(0.2) { rng.gen_range(1i32..=5) } else { 0 })
                        .collect();
                    (coeffs, 0, rng.gen_range(1i32..=8))
                })
                .collect();
            let obj = (0..n).map(|_| rng.gen_range(1i32..=9)).collect();
            let milp = crate::testgen::RandomBinaryMilp { n, obj, maximize: true, rows };
            checked += walk_iterates(&crate::testgen::build_random(&milp)).unwrap();
        }
        assert!(checked >= 100, "only {checked} bases checked");
    }

    #[test]
    fn markowitz_keeps_sparse_bases_sparse() {
        // A band-ish basis should factor with bounded fill.
        let sf = fixture();
        let basis = vec![0, 1, 2, 3, 4, 5];
        let lu = LuFactors::factorize(&sf, &basis).unwrap();
        // The structural block has 12 nonzeros; Markowitz must not blow it
        // up to anything near the dense 36.
        assert!(lu.fill() <= 18, "fill {} too large", lu.fill());
    }
}
