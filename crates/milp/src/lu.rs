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
//!   O(nnz(B⁻¹A_q)). The file length is capped by the caller (the simplex's
//!   eta limit); exceeding it forces a refactorization.
//! * Sparse **FTRAN/BTRAN** solves whose work follows the nonzeros of the
//!   right-hand side and of the factors, not `m²`. FTRAN takes a dense or a
//!   sparse right-hand side ([`LuFactors::ftran_sparse`]), visits only the
//!   nonempty `L` columns and skips every zero step of `U`. BTRAN scatters
//!   over the rows of `U`, skipping zero steps, and gathers over the
//!   nonempty `L` columns.
//!
//! Factors are stored in *elimination-step* space: step `k` pivoted original
//! row `row_at[k]` and basis position `col_at[k]`. `L` is unit lower
//! triangular (diagonal implicit), `U` upper triangular, both column-major;
//! `U` is also kept by rows for the BTRAN scatter.

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

/// Growable lists stored back to back in one buffer: the per-call work
/// space of [`LuFactors::factorize`], so a factorization allocates a fixed
/// number of buffers instead of one per column, row and step. Each list
/// owns a segment of `data`; a push into a full segment moves the list to
/// the end of `data` with twice the room and leaves a hole behind. The
/// operations mirror `Vec`'s, element order included.
struct Lists<T> {
    data: Vec<T>,
    seg: Vec<Segment>,
}

#[derive(Clone, Copy)]
struct Segment {
    start: usize,
    len: usize,
    cap: usize,
}

impl<T: Copy + Default> Lists<T> {
    /// Empty lists laid out back to back with the given capacities.
    fn with_capacities(caps: impl ExactSizeIterator<Item = usize>) -> Self {
        let mut seg = Vec::with_capacity(caps.len());
        let mut start = 0;
        for cap in caps {
            seg.push(Segment { start, len: 0, cap });
            start += cap;
        }
        let data = vec![T::default(); start];
        Lists { data, seg }
    }

    fn get(&self, i: usize) -> &[T] {
        let s = self.seg[i];
        &self.data[s.start..s.start + s.len]
    }

    fn get_mut(&mut self, i: usize) -> &mut [T] {
        let s = self.seg[i];
        &mut self.data[s.start..s.start + s.len]
    }

    fn push(&mut self, i: usize, item: T) {
        let s = &mut self.seg[i];
        if s.len == s.cap {
            let start = self.data.len();
            let cap = (2 * s.cap).max(4);
            self.data.extend_from_within(s.start..s.start + s.len);
            self.data.resize(start + cap, T::default());
            (s.start, s.cap) = (start, cap);
        }
        self.data[s.start + s.len] = item;
        s.len += 1;
    }

    /// `Vec::swap_remove` on list `i`.
    fn swap_remove(&mut self, i: usize, k: usize) -> T {
        let s = &mut self.seg[i];
        let item = self.data[s.start + k];
        s.len -= 1;
        self.data[s.start + k] = self.data[s.start + s.len];
        item
    }

    /// `Vec::retain` on list `i`: visits every item once, in order.
    fn retain(&mut self, i: usize, mut keep: impl FnMut(T) -> bool) {
        let s = &mut self.seg[i];
        let mut kept = s.start;
        for k in s.start..s.start + s.len {
            let item = self.data[k];
            if keep(item) {
                self.data[kept] = item;
                kept += 1;
            }
        }
        s.len = kept - s.start;
    }

    fn clear(&mut self, i: usize) {
        self.seg[i].len = 0;
    }
}

/// A sparse LU factorization of one basis matrix.
///
/// `L` and `U` are stored column by column in elimination-step space, each
/// in one flat buffer: column `k` of `L` is `l_entries[l_start[k]..l_start[k + 1]]`,
/// and likewise for `U`. Three arrays derived from those columns are built
/// once per factorization ([`LuFactors::from_columns`]) so that a solve
/// follows the nonzeros: the row→step map through which a sparse
/// right-hand side enters FTRAN, the list of nonempty `L` columns, and `U`
/// stored by rows for the BTRAN scatter.
#[derive(Debug, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// `row_at[k]` = original row eliminated at step `k`.
    row_at: Vec<usize>,
    /// `col_at[k]` = basis position eliminated at step `k`.
    col_at: Vec<usize>,
    /// `row_step[row_at[k]] = k`: the step that eliminated each original row.
    row_step: Vec<usize>,
    /// Offsets of the `L` columns in `l_entries` (length `m + 1`).
    l_start: Vec<usize>,
    /// `L` entries `(step, multiplier)` with `step > k` in column `k`; the
    /// unit diagonal is implicit.
    l_entries: Vec<(usize, f64)>,
    /// The steps whose `L` column holds an entry, ascending.
    l_nonempty: Vec<usize>,
    /// Offsets of the `U` columns in `u_entries` (length `m + 1`).
    u_start: Vec<usize>,
    /// `U` entries `(step, value)` with `step < k` in column `k`, in
    /// ascending step order (the order [`LuFactors::factorize`] eliminates
    /// them in).
    u_entries: Vec<(usize, f64)>,
    /// Offsets of the `U` rows in `u_row_entries` (length `m + 1`).
    u_row_start: Vec<usize>,
    /// `U` by rows: row `i` holds `(k, value)` for each entry `(i, value)`
    /// of column `k`, in ascending `k`.
    u_row_entries: Vec<(usize, f64)>,
    /// `U` diagonal by step.
    u_diag: Vec<f64>,
}

/// `clone_from` copies into the existing factor buffers (growing one only
/// when the source is longer), so rolling a simplex state back to a
/// checkpoint costs O(nnz); a derived `clone_from` would reallocate them.
impl Clone for LuFactors {
    fn clone(&self) -> Self {
        LuFactors {
            m: self.m,
            row_at: self.row_at.clone(),
            col_at: self.col_at.clone(),
            row_step: self.row_step.clone(),
            l_start: self.l_start.clone(),
            l_entries: self.l_entries.clone(),
            l_nonempty: self.l_nonempty.clone(),
            u_start: self.u_start.clone(),
            u_entries: self.u_entries.clone(),
            u_row_start: self.u_row_start.clone(),
            u_row_entries: self.u_row_entries.clone(),
            u_diag: self.u_diag.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.m = source.m;
        self.row_at.clone_from(&source.row_at);
        self.col_at.clone_from(&source.col_at);
        self.row_step.clone_from(&source.row_step);
        self.l_start.clone_from(&source.l_start);
        self.l_entries.clone_from(&source.l_entries);
        self.l_nonempty.clone_from(&source.l_nonempty);
        self.u_start.clone_from(&source.u_start);
        self.u_entries.clone_from(&source.u_entries);
        self.u_row_start.clone_from(&source.u_row_start);
        self.u_row_entries.clone_from(&source.u_row_entries);
        self.u_diag.clone_from(&source.u_diag);
    }
}

impl LuFactors {
    /// Factors of the identity basis (the all-slack start).
    pub fn identity(m: usize) -> Self {
        Self::from_columns(
            (0..m).collect(),
            (0..m).collect(),
            vec![0; m + 1],
            Vec::new(),
            vec![0; m + 1],
            Vec::new(),
            vec![1.0; m],
        )
    }

    /// Factors from their pivot sequence and their `L` and `U` columns,
    /// with the derived solve indexes built: the row→step map, the
    /// nonempty `L` columns and the rows of `U`. Each `U` column must list
    /// its steps in ascending order, which makes each row list ascending
    /// too.
    fn from_columns(
        row_at: Vec<usize>,
        col_at: Vec<usize>,
        l_start: Vec<usize>,
        l_entries: Vec<(usize, f64)>,
        u_start: Vec<usize>,
        u_entries: Vec<(usize, f64)>,
        u_diag: Vec<f64>,
    ) -> Self {
        let m = row_at.len();
        let mut row_step = vec![0; m];
        for (k, &row) in row_at.iter().enumerate() {
            row_step[row] = k;
        }
        let l_nonempty = (0..m).filter(|&k| l_start[k + 1] > l_start[k]).collect();
        // Transpose `U`: count per row, then fill each row through a cursor
        // that ends on the next row's offset, then shift the offsets back.
        let mut u_row_start = vec![0; m + 1];
        for &(i, _) in &u_entries {
            u_row_start[i + 1] += 1;
        }
        for i in 0..m {
            u_row_start[i + 1] += u_row_start[i];
        }
        let mut u_row_entries = vec![(0, 0.0); u_entries.len()];
        for k in 0..m {
            for &(i, u) in &u_entries[u_start[k]..u_start[k + 1]] {
                u_row_entries[u_row_start[i]] = (k, u);
                u_row_start[i] += 1;
            }
        }
        u_row_start.copy_within(0..m, 1);
        u_row_start[0] = 0;
        LuFactors {
            m,
            row_at,
            col_at,
            row_step,
            l_start,
            l_entries,
            l_nonempty,
            u_start,
            u_entries,
            u_row_start,
            u_row_entries,
            u_diag,
        }
    }

    /// Column `k` of `L`.
    #[inline]
    fn l_col(&self, k: usize) -> &[(usize, f64)] {
        &self.l_entries[self.l_start[k]..self.l_start[k + 1]]
    }

    /// Column `k` of `U`.
    #[inline]
    fn u_col(&self, k: usize) -> &[(usize, f64)] {
        &self.u_entries[self.u_start[k]..self.u_start[k + 1]]
    }

    /// Row `i` of `U`, as `(step, value)` pairs.
    #[inline]
    fn u_row(&self, i: usize) -> &[(usize, f64)] {
        &self.u_row_entries[self.u_row_start[i]..self.u_row_start[i + 1]]
    }

    /// Total stored nonzeros in `L` and `U` (diagnostics).
    #[allow(dead_code)] // exercised in tests
    pub fn fill(&self) -> usize {
        self.l_entries.len() + self.u_entries.len() + self.m
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
        let len = |j: usize| match sf.column(j) {
            ColumnRef::Structural(nz) => nz.len(),
            ColumnRef::Slack(_) => 1,
        };
        // Active submatrix, column-major over basis positions; entries keep
        // original row indices. Each list starts with room for one fill.
        let mut rcount = vec![0usize; m];
        let mut ccount = vec![0usize; m];
        let nnz: usize = basis.iter().map(|&j| len(j)).sum();
        let mut acols: Lists<(usize, f64)> =
            Lists::with_capacities(basis.iter().map(|&j| len(j) + 1));
        for (pos, &j) in basis.iter().enumerate() {
            let slack;
            let col = match sf.column(j) {
                ColumnRef::Structural(nz) => nz,
                ColumnRef::Slack(r) => {
                    slack = [(r, 1.0)];
                    &slack[..]
                }
            };
            for &(r, v) in col {
                rcount[r] += 1;
                acols.push(pos, (r, v));
            }
            ccount[pos] = col.len();
        }
        // `rows_touch` lists, per row, the positions whose column (may)
        // hold an entry in that row, in position order.
        let mut rows_touch: Lists<usize> = Lists::with_capacities(rcount.iter().map(|&k| k + 1));
        let mut singles = Singletons::new(m);
        for (pos, &count) in ccount.iter().enumerate() {
            for &(r, _) in acols.get(pos) {
                rows_touch.push(r, pos);
            }
            singles.enter(pos, count);
        }
        // The alive positions in ascending order, built when the index
        // first cannot answer and pruned of dead columns at each later scan.
        let mut alive: Option<Vec<usize>> = None;

        let mut row_alive = vec![true; m];
        let mut col_alive = vec![true; m];
        let mut row_step = vec![usize::MAX; m]; // original row -> step
        let mut row_at = Vec::with_capacity(m);
        let mut col_at = Vec::with_capacity(m);
        // L columns in original-row space until the final re-index.
        let mut l_start = Vec::with_capacity(m + 1);
        let mut l_entries: Vec<(usize, f64)> = Vec::with_capacity(nnz);
        // U entries `(step, value)` by basis position.
        let mut u_by_pos: Lists<(usize, f64)> = Lists::with_capacities(ccount.iter().copied());
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
                acols.retain(c, |(r, v)| {
                    if !row_alive[r] {
                        return false;
                    }
                    if v.abs() < DROP_TOL {
                        rcount[r] -= 1;
                        return false;
                    }
                    true
                });
                let col = acols.get(c);
                singles.recount(c, ccount[c], col.len());
                ccount[c] = col.len();
                let colmax = col.iter().map(|&(_, v)| v.abs()).fold(0.0, f64::max);
                if colmax < PIVOT_FLOOR {
                    // An alive column with no usable entry can never pivot.
                    return Err(MilpError::SingularBasis);
                }
                for &(r, v) in col {
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
            // The pivot column leaves the active submatrix; its multipliers
            // are L's column for this step.
            let l_first = l_entries.len();
            l_start.push(l_first);
            for &(r, v) in acols.get(pc) {
                rcount[r] = rcount[r].saturating_sub(1);
                if r != pr {
                    l_entries.push((r, v / pv));
                }
            }
            acols.clear(pc);
            let mult = &l_entries[l_first..];

            // Update every alive column holding the pivot row. Row `pr` is
            // dead, so no fill lands in its list while it is walked.
            for t in 0..rows_touch.get(pr).len() {
                let c = rows_touch.get(pr)[t];
                if !col_alive[c] {
                    continue;
                }
                let Some(pos) = acols.get(c).iter().position(|&(r, _)| r == pr) else {
                    continue; // stale reference (entry dropped earlier)
                };
                let before = ccount[c];
                let (_, vpc) = acols.swap_remove(c, pos);
                ccount[c] = ccount[c].saturating_sub(1);
                u_by_pos.push(c, (step, vpc));
                if !mult.is_empty() && vpc != 0.0 {
                    // Scatter `col_c ← col_c − vpc · mult` with a dense marker.
                    for (p, &(r, _)) in acols.get(c).iter().enumerate() {
                        marker[r] = p + 1;
                    }
                    for &(r, l) in mult {
                        let delta = -l * vpc;
                        match marker[r] {
                            0 => {
                                if delta.abs() >= DROP_TOL && row_alive[r] {
                                    acols.push(c, (r, delta));
                                    ccount[c] += 1;
                                    rcount[r] += 1;
                                    rows_touch.push(r, c);
                                }
                            }
                            p => acols.get_mut(c)[p - 1].1 += delta,
                        }
                    }
                    for &(r, _) in acols.get(c) {
                        marker[r] = 0;
                    }
                }
                singles.recount(c, before, ccount[c]);
            }
            rows_touch.clear(pr);
        }
        l_start.push(l_entries.len());

        // Re-index L into step space and lay U out in elimination order.
        for e in &mut l_entries {
            e.0 = row_step[e.0];
        }
        let mut u_start = Vec::with_capacity(m + 1);
        let mut u_entries = Vec::with_capacity(u_by_pos.seg.iter().map(|s| s.len).sum());
        u_start.push(0);
        for &pos in &col_at {
            u_entries.extend_from_slice(u_by_pos.get(pos));
            u_start.push(u_entries.len());
        }

        Ok(Self::from_columns(row_at, col_at, l_start, l_entries, u_start, u_entries, u_diag))
    }

    /// Solves `B x = v` in place (`v` indexed by row on entry, by basis
    /// position on exit). `work` is caller-provided scratch of length `m`.
    pub fn ftran(&self, v: &mut [f64], work: &mut [f64]) {
        for (w, &row) in work.iter_mut().zip(&self.row_at) {
            *w = v[row];
        }
        self.ftran_steps(work);
        for (&w, &pos) in work.iter().zip(&self.col_at) {
            v[pos] = w;
        }
    }

    /// Solves `B x = v` for a sparse `v` given as `(row, value)` entries
    /// (a row listed twice sums), writing `x` by basis position into `out`.
    /// The entries enter through the row→step map, so nothing is gathered
    /// over all rows. `work` is caller-provided scratch of length `m`.
    pub fn ftran_sparse(
        &self,
        rhs: impl IntoIterator<Item = (usize, f64)>,
        out: &mut [f64],
        work: &mut [f64],
    ) {
        work.fill(0.0);
        for (row, x) in rhs {
            work[self.row_step[row]] += x;
        }
        self.ftran_steps(work);
        for (&w, &pos) in work.iter().zip(&self.col_at) {
            out[pos] = w;
        }
    }

    /// The `L` and `U` substitutions of FTRAN on a right-hand side in step
    /// space. The `L` pass visits the nonempty columns only, and the `U`
    /// pass divides and scatters the nonzero steps only, so the work
    /// follows the nonzeros the right-hand side reaches.
    fn ftran_steps(&self, work: &mut [f64]) {
        for &k in &self.l_nonempty {
            let x = work[k];
            if x != 0.0 {
                for &(i, l) in self.l_col(k) {
                    work[i] -= l * x;
                }
            }
        }
        for k in (0..self.m).rev() {
            if work[k] != 0.0 {
                let x = work[k] / self.u_diag[k];
                work[k] = x;
                for &(i, u) in self.u_col(k) {
                    work[i] -= u * x;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c` in place (`c` indexed by basis position on entry,
    /// by row on exit). `work` is caller-provided scratch of length `m`.
    ///
    /// `Uᵀ` is solved in scatter form over the rows of `U`, skipping zero
    /// steps. Each `U` column lists its steps in ascending order, so every
    /// step receives its terms in the order the gather form would subtract
    /// them, and the sums are the gather's bit for bit (up to the sign of a
    /// zero). `Lᵀ` keeps its gather form over the nonempty `L` columns: `L`
    /// columns are not stored in step order, so a scatter would reorder
    /// their sums.
    pub fn btran(&self, c: &mut [f64], work: &mut [f64]) {
        for (w, &pos) in work.iter_mut().zip(&self.col_at) {
            *w = c[pos];
        }
        for k in 0..self.m {
            if work[k] != 0.0 {
                let x = work[k] / self.u_diag[k];
                work[k] = x;
                for &(j, u) in self.u_row(k) {
                    work[j] -= u * x;
                }
            }
        }
        for &k in self.l_nonempty.iter().rev() {
            let mut s = work[k];
            for &(i, l) in self.l_col(k) {
                s -= l * work[i];
            }
            work[k] = s;
        }
        for (&w, &row) in work.iter().zip(&self.row_at) {
            c[row] = w;
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
/// copies into them. A push reads the entering column through the index of
/// its nonzeros that the simplex keeps, so recording a pivot costs the
/// column's nonzeros, not `m`.
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
    /// entering column (so `aq[r]` is the pivot element) and `nz` lists its
    /// nonzero positions in ascending order, so the push reads only those.
    pub fn push(&mut self, r: usize, aq: &[f64], nz: &[usize]) {
        let start = self.entries.len();
        self.entries
            .extend(nz.iter().filter(|&&i| i != r && aq[i].abs() >= DROP_TOL).map(|&i| (i, aq[i])));
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

    /// The nonzero positions of `v`, ascending.
    fn nonzeros(v: &[f64]) -> Vec<usize> {
        (0..v.len()).filter(|&i| v[i] != 0.0).collect()
    }

    /// [`EtaFile::push`] with the index of `aq`'s nonzeros built here.
    fn push_dense(etas: &mut EtaFile, r: usize, aq: &[f64]) {
        etas.push(r, aq, &nonzeros(aq));
    }

    /// The eta push as it was before the entering column's nonzero index:
    /// a scan of the dense column. The reference for the indexed push.
    fn push_reference(etas: &mut EtaFile, r: usize, aq: &[f64]) {
        let start = etas.entries.len();
        etas.entries.extend(
            aq.iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v.abs() >= DROP_TOL)
                .map(|(i, &v)| (i, v)),
        );
        etas.heads.push(EtaHead { r, pivot: aq[r], start, end: etas.entries.len() });
    }

    /// FTRAN as it was before the solve indexes: a gather of the whole
    /// right-hand side, an `L` pass over every column and a `U` pass that
    /// divides every step. The reference the indexed solves must match.
    fn ftran_reference(lu: &LuFactors, v: &mut [f64], work: &mut [f64]) {
        let m = lu.m;
        for k in 0..m {
            work[k] = v[lu.row_at[k]];
        }
        for k in 0..m {
            let x = work[k];
            if x != 0.0 {
                for &(i, l) in lu.l_col(k) {
                    work[i] -= l * x;
                }
            }
        }
        for k in (0..m).rev() {
            let x = work[k] / lu.u_diag[k];
            work[k] = x;
            if x != 0.0 {
                for &(i, u) in lu.u_col(k) {
                    work[i] -= u * x;
                }
            }
        }
        for k in 0..m {
            v[lu.col_at[k]] = work[k];
        }
    }

    /// BTRAN as it was before the rows of `U`: `Uᵀ` and `Lᵀ` both in
    /// gather form over every column.
    fn btran_reference(lu: &LuFactors, c: &mut [f64], work: &mut [f64]) {
        let m = lu.m;
        for k in 0..m {
            let mut s = c[lu.col_at[k]];
            for &(i, u) in lu.u_col(k) {
                s -= u * work[i];
            }
            work[k] = s / lu.u_diag[k];
        }
        for k in (0..m).rev() {
            let mut s = work[k];
            for &(i, l) in lu.l_col(k) {
                s -= l * work[i];
            }
            work[k] = s;
        }
        for k in 0..m {
            c[lu.row_at[k]] = work[k];
        }
    }

    /// `Ok` when `a` and `b` are equal under `==` entry by entry (so a
    /// zero may differ in sign), NaN matching NaN.
    fn same_values(what: &str, a: &[f64], b: &[f64]) -> std::result::Result<(), String> {
        match a.iter().zip(b).position(|(x, y)| x != y && !(x.is_nan() && y.is_nan())) {
            None => Ok(()),
            Some(i) => Err(format!("{what}: entry {i} reads {} against {}", a[i], b[i])),
        }
    }

    /// Runs the indexed solves against the reference bodies on factors
    /// `lu` with the pending updates `etas` (possibly none), over the form
    /// `sf` whose rows `lu` spans: FTRAN of a dense right-hand side, of
    /// columns of `sf` entered as sparse entries, and of BTRAN rows entered
    /// through their nonzero index; BTRAN of a dense and of unit
    /// right-hand sides. Also checks the factors' `U` storage order.
    fn check_solves(
        lu: &LuFactors,
        etas: &EtaFile,
        sf: &StandardForm,
    ) -> std::result::Result<(), String> {
        let m = lu.m;
        for k in 0..m {
            if !lu.u_col(k).windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("U column {k} is not in ascending step order"));
            }
        }
        let mut work = vec![0.0; m];
        let dense: Vec<f64> = (0..m)
            .map(|i| if i % 3 == 0 { 0.0 } else { 1.0 + 0.37 * i as f64 - (i % 5) as f64 })
            .collect();
        let (mut new, mut reference) = (dense.clone(), dense.clone());
        lu.ftran(&mut new, &mut work);
        etas.apply_ftran(&mut new);
        ftran_reference(lu, &mut reference, &mut work);
        etas.apply_ftran(&mut reference);
        same_values("dense FTRAN", &new, &reference)?;

        for j in (0..sf.n + sf.m).step_by(1 + (sf.n + sf.m) / 12) {
            let entries: Vec<(usize, f64)> = match sf.column(j) {
                ColumnRef::Structural(nz) => nz.to_vec(),
                ColumnRef::Slack(row) => vec![(row, 1.0)],
            };
            lu.ftran_sparse(entries.iter().copied(), &mut new, &mut work);
            etas.apply_ftran(&mut new);
            reference.fill(0.0);
            sf.column(j).axpy(1.0, &mut reference);
            ftran_reference(lu, &mut reference, &mut work);
            etas.apply_ftran(&mut reference);
            same_values(&format!("sparse FTRAN of column {j}"), &new, &reference)?;
        }

        for r in (0..m).step_by(1 + m / 8) {
            let mut unit = vec![0.0; m];
            unit[r] = 1.0;
            let (mut new, mut reference) = (unit.clone(), unit);
            etas.apply_btran_rhs(&mut new);
            lu.btran(&mut new, &mut work);
            etas.apply_btran_rhs(&mut reference);
            btran_reference(lu, &mut reference, &mut work);
            same_values(&format!("unit BTRAN of row {r}"), &new, &reference)?;
            // The BTRAN row as an indexed right-hand side, as the steepest
            // edge update enters it.
            let rho = reference;
            let mut out = vec![0.0; m];
            lu.ftran_sparse(nonzeros(&rho).iter().map(|&i| (i, rho[i])), &mut out, &mut work);
            etas.apply_ftran(&mut out);
            let mut reference = rho.clone();
            ftran_reference(lu, &mut reference, &mut work);
            etas.apply_ftran(&mut reference);
            same_values(&format!("indexed FTRAN of row {r}"), &out, &reference)?;
        }

        let (mut new, mut reference) = (dense.clone(), dense);
        etas.apply_btran_rhs(&mut new);
        lu.btran(&mut new, &mut work);
        etas.apply_btran_rhs(&mut reference);
        btran_reference(lu, &mut reference, &mut work);
        same_values("dense BTRAN", &new, &reference)
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
        etas.push(1, &aq, &nonzeros(&aq));
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
        let buffers = |f: &LuFactors| -> [*const (usize, f64); 2] {
            [f.l_entries.as_ptr(), f.u_entries.as_ptr()]
        };
        let before = buffers(&to);
        assert!(lu.fill() > lu.m, "fixture must have off-diagonal factor entries");
        to.clone_from(&lu);
        assert_eq!(buffers(&to), before);
        assert_eq!((&to.l_entries, &to.u_entries), (&lu.l_entries, &lu.u_entries));
        assert_eq!(to.u_diag, lu.u_diag);

        let mut etas = EtaFile::default();
        push_dense(&mut etas, 0, &[2.0, 1.0, 0.0, -1.0]);
        push_dense(&mut etas, 3, &[0.5, 0.0, 0.0, 4.0]);
        let mut to = etas.clone();
        let buffers = |e: &EtaFile| (e.heads.as_ptr(), e.entries.as_ptr());
        let before = buffers(&to);
        to.clone_from(&etas);
        assert_eq!(buffers(&to), before);
        assert_eq!((&to.heads, &to.entries), (&etas.heads, &etas.entries));
        // A shorter source also copies in place.
        let mut one = EtaFile::default();
        push_dense(&mut one, 1, &[0.0, 3.0, 0.0, 0.0]);
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
            push_dense(etas, 0, &[2.0, 1.0, 0.0, -1.0]);
            push_dense(etas, 3, &[0.5, 0.0, 0.0, 4.0]);
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

        // Lay the columns out back to back, as the factor storage holds them.
        let flat = |cols: Vec<Vec<(usize, f64)>>| {
            let start = std::iter::once(0)
                .chain(cols.iter().scan(0, |end, c| {
                    *end += c.len();
                    Some(*end)
                }))
                .collect();
            (start, cols.concat())
        };
        let (l_start, l_entries) = flat(l_cols);
        let (u_start, u_entries) = flat(u_cols);
        Ok(LuFactors::from_columns(row_at, col_at, l_start, l_entries, u_start, u_entries, u_diag))
    }

    /// `Ok` when both results are errors, or both are factors with the same
    /// permutations and bit-identical `L`, `U` and diagonal.
    fn same_factors(
        a: &Result<LuFactors>,
        b: &Result<LuFactors>,
    ) -> std::result::Result<(), String> {
        let bits = |entries: &[(usize, f64)]| -> Vec<(usize, u64)> {
            entries.iter().map(|&(i, v)| (i, v.to_bits())).collect()
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
                if a.l_start != b.l_start
                    || a.u_start != b.u_start
                    || bits(&a.l_entries) != bits(&b.l_entries)
                    || bits(&a.u_entries) != bits(&b.u_entries)
                {
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

        /// On random bases, the indexed FTRAN (dense, sparse and indexed
        /// right-hand sides) and the scatter BTRAN return the reference
        /// bodies' values, without and with pending eta updates, and every
        /// `U` column lists its steps in ascending order.
        #[test]
        fn solves_match_the_reference_bodies(seed in any::<u64>(), m in 1usize..=60) {
            let (sf, basis) = random_basis(seed, m);
            let Ok(lu) = LuFactors::factorize(&sf, &basis) else { return Ok(()) };
            let mut etas = EtaFile::default();
            check_solves(&lu, &etas, &sf).map_err(TestCaseError::fail)?;
            // Exchange a few positions for other columns of the form, as
            // pivots do, and check again with those updates pending.
            let mut work = vec![0.0; m];
            let mut aq = vec![0.0; m];
            for t in 0..m.min(6) {
                let j = (seed as usize).wrapping_add(7 * t) % (sf.n + m);
                lu.ftran_sparse(match sf.column(j) {
                    ColumnRef::Structural(nz) => nz.to_vec(),
                    ColumnRef::Slack(row) => vec![(row, 1.0)],
                }, &mut aq, &mut work);
                etas.apply_ftran(&mut aq);
                let Some(r) = (0..m).rev().find(|&r| aq[r].abs() > 1e-3) else { continue };
                let mut reference = etas.clone();
                push_dense(&mut etas, r, &aq);
                push_reference(&mut reference, r, &aq);
                prop_assert_eq!(&etas.heads, &reference.heads);
                prop_assert_eq!(&etas.entries, &reference.entries);
            }
            check_solves(&lu, &etas, &sf).map_err(TestCaseError::fail)?;
        }

        /// Every basis the dual simplex passes through, pivot by pivot, on
        /// a small random binary MILP and along a dive that fixes its
        /// fractional columns, factorizes bit for bit like the full scan,
        /// and the live kernel (with its pending etas) and the fresh
        /// factors both solve like the reference bodies.
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
            let fresh = LuFactors::factorize(lp.form(), &basis);
            if let Err(msg) = same_factors(&fresh, &factorize_reference(lp.form(), &basis)) {
                return Err(TestCaseError::fail(format!("basis {basis:?}: {msg}")));
            }
            let fresh = fresh.map_err(|e| TestCaseError::fail(format!("iterate: {e}")))?;
            let (live, etas) = lp.lu_kernel().expect("the default kernel is the sparse LU");
            for (lu, etas) in [(&fresh, &EtaFile::default()), (live, etas)] {
                check_solves(lu, etas, lp.form())
                    .map_err(|msg| TestCaseError::fail(format!("basis {basis:?}: {msg}")))?;
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
