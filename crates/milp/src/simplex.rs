//! Bounded-variable dual simplex over a pluggable basis kernel.
//!
//! The solver works exclusively with the *dual* simplex method:
//!
//! * The all-slack starting basis is made dual feasible by parking every
//!   structural variable at the bound matching its cost sign (possible
//!   because [`StandardForm`] clamps all bounds to finite values).
//! * Branch-and-bound only changes variable *bounds*, which never disturbs
//!   dual feasibility of the current basis, so every node after the root is
//!   warm-started from its parent's basis ([`BasisSnapshot`], captured at
//!   branch time and restored with [`Simplex::restore_snapshot`]) and
//!   usually re-optimizes in a handful of pivots.
//!
//! Leaving-row pricing is selected by [`SolverOptions::pricing`]: dual
//! steepest edge (exact Forrest–Goldfarb reference weights, default) or
//! classic Dantzig most-violated, the reference.
//!
//! The basis linear algebra is abstracted behind [`Kernel`], selected by
//! [`SolverOptions::basis_kernel`]:
//!
//! * [`BasisKernel::SparseLu`] (default) — Markowitz-ordered sparse LU with
//!   product-form eta updates and sparse FTRAN/BTRAN (see [`crate::lu`]).
//!   Pivot cost tracks basis sparsity; the eta file is capped at
//!   [`ETA_LIMIT`] before a refactorization is forced.
//! * [`BasisKernel::Dense`] — explicit dense `m × m` inverse, O(m²) per
//!   pivot. Kept as the reference implementation and numerical fallback.
//!
//! A pivot's vectors are sparse (on the perfbench `exact` catalog the BTRAN
//! row ρ holds about 35 nonzeros of some 460 rows, the entering column
//! `B⁻¹A_q` about 85, and about 36 of some 770 columns are eligible in the
//! ratio test), so each pivot keeps an index of the nonzeros it touches and
//! its work follows them instead of `m` and `n + m`:
//!
//! * Pricing scatters the (sparse) BTRAN row through [`StandardForm::row`]
//!   instead of dotting every column against a dense ρ. The scatter lists
//!   ρ's nonzero rows in ascending order and the columns of the pivot row
//!   α it touches; the next scatter clears only those. The ratio test and
//!   the reduced-cost update visit the touched columns only: every other
//!   entry of α is `+0.0`, never eligible, and leaves `d` as it is.
//! * The bound-flipping ratio test takes its candidates one at a time in
//!   ratio order instead of sorting them all; flips are rare, so that is
//!   usually one pass.
//! * One scan lists the nonzero rows of the entering column; that list
//!   drives the basic-value update, the steepest-edge weight update and
//!   the eta push. ρ's list is the sparse right-hand side of the
//!   steepest-edge FTRAN `τ = B⁻¹ρ`.
//!
//! Every pivot chooses the row and column the dense loops chose, and every
//! value is theirs up to the sign of a zero, which no comparison sees.
//!
//! Ratio test: when the dual min-ratio step would push the entering variable
//! past its *opposite* bound, the variable is **bound-flipped** in place (no
//! basis change) and the leaving row is re-examined — the classic
//! bounded-variable refinement that spares a pivot per flip and keeps the
//! iterate inside its box.
//!
//! Anti-cycling: after a run of degenerate pivots the pricing switches to a
//! Bland-like smallest-index rule (flips disabled), which guarantees
//! termination.

use crate::error::{MilpError, Result};
use crate::events::{CancelToken, ObserverHandle, SolverEvent};
use crate::lu::{EtaFile, LuFactors};
use crate::options::{BasisKernel, Pricing, SolverOptions};
use crate::standard::{ColumnRef, StandardForm, INFINITE_BOUND};
use std::cmp::Ordering;
use std::time::Instant;

/// Primal feasibility tolerance (absolute, plus relative to bound size).
const PTOL: f64 = 1e-7;
/// Dual feasibility / reduced cost tolerance.
const DTOL: f64 = 1e-7;
/// Pivot element magnitude floor.
const ZTOL: f64 = 1e-9;
/// Degenerate pivots tolerated before switching to Bland's rule.
const DEGEN_LIMIT: u32 = 200;
/// Floor for DSE reference weights (guards the score division).
const WEIGHT_FLOOR: f64 = 1e-4;
/// Pivot limit of one LP solve (strong-branching probes cap it lower).
const ITERATION_LIMIT: usize = 50_000;
/// The basis is refactorized every this many pivots.
const REFACTOR_INTERVAL: usize = 128;
/// Sparse-LU only: maximum length of the product-form eta file before a
/// refactorization is forced, independently of [`REFACTOR_INTERVAL`].
/// Longer files make FTRAN/BTRAN slower and drift-prone.
const ETA_LIMIT: usize = 64;
/// Bound-flipping ratio test: candidates taken one at a time, each by a
/// linear minimum scan, before the rest are sorted at once.
const LAZY_PICKS: usize = 8;

/// The order in which the bound-flipping ratio test takes its candidates
/// `(ratio, column)`: ratio ascending, ties toward larger `|α_j|` for
/// stability, then smaller index for determinism. Ratios and `α` are never
/// NaN and indices differ, so this is a total order.
fn bfrt_order(alpha: &[f64], (ra, ja): (f64, usize), (rb, jb): (f64, usize)) -> Ordering {
    ra.partial_cmp(&rb)
        .unwrap_or(Ordering::Equal)
        .then_with(|| alpha[jb].abs().partial_cmp(&alpha[ja].abs()).unwrap_or(Ordering::Equal))
        .then_with(|| ja.cmp(&jb))
}

/// Hands the candidates of `cand` to `flip` in [`bfrt_order`] until it
/// declines one, and returns that one (the pivot), or `None` when every
/// candidate flips. The sequence is that of a full sort, since the order is
/// total, but the first [`LAZY_PICKS`] candidates are each selected by one
/// linear scan; flips are rare, so the walk is usually a single pass. The
/// remainder is sorted once, so the worst case stays `O(k log k)`.
fn bfrt_walk(
    cand: &mut [(f64, usize)],
    alpha: &[f64],
    mut flip: impl FnMut(usize) -> bool,
) -> Option<(f64, usize)> {
    for t in 0..cand.len() {
        if t < LAZY_PICKS {
            let best = (t..cand.len())
                .min_by(|&a, &b| bfrt_order(alpha, cand[a], cand[b]))
                .expect("t < cand.len()");
            cand.swap(t, best);
        } else if t == LAZY_PICKS {
            cand[t..].sort_unstable_by(|&a, &b| bfrt_order(alpha, a, b));
        }
        let (ratio, j) = cand[t];
        if !flip(j) {
            return Some((ratio, j));
        }
    }
    None
}

/// Status of a single LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LpStatus {
    /// Primal and dual feasible: LP optimum reached.
    Optimal,
    /// Dual unbounded ⇒ primal infeasible under current bounds.
    Infeasible,
}

/// Bound status of a column: basic, or nonbasic parked at one of its bounds.
/// `pub(crate)` so the cut separators can classify nonbasic columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stat {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
}

/// A restorable image of the simplex basis: the basic column set, every
/// column's bound status and the dual steepest-edge weight of every basis
/// row. Captured with [`Simplex::snapshot`] when a branch-and-bound node is
/// expanded and installed in its children with
/// [`Simplex::restore_snapshot`], so each child LP starts one bound change
/// away from its parent's optimal basis instead of wherever the worker's
/// basis drifted (or the all-slack basis), and prices its first pivots with
/// that basis's weights instead of unit ones.
///
/// The weights `‖eᵣᵀB⁻¹‖²` depend on the basis alone, so they hold under
/// any node's bounds; they cost 8·m bytes per snapshot. Basic *values* and
/// reduced costs depend on the node's bounds and are recomputed on restore,
/// which also keeps the snapshot small enough to share across threads by
/// `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct BasisSnapshot {
    pub(crate) basis: Vec<usize>,
    stat: Vec<Stat>,
    /// Pricing weight per basis row, as [`Simplex::weights`] held them.
    weights: Vec<f64>,
}

impl BasisSnapshot {
    /// Remaps a snapshot taken over a form with `old_n` structural columns
    /// onto a form with `new_n ≥ old_n` where the new columns were appended
    /// at the end of the structural range (shifting every slack index up by
    /// `new_n − old_n`). New structural columns enter nonbasic at their
    /// lower bound; [`Simplex::restore_snapshot`] flips them to the dual
    /// feasible side and pads any rows appended after the snapshot, so the
    /// remapped snapshot restores onto any monotone extension of the form.
    /// Appended columns are nonbasic and move no basis position, so the
    /// basis matrix and with it every pricing weight carry over unchanged.
    pub(crate) fn remap_structural_append(&self, old_n: usize, new_n: usize) -> BasisSnapshot {
        debug_assert!(new_n >= old_n);
        debug_assert!(self.stat.len() >= old_n);
        let k = new_n - old_n;
        let basis =
            self.basis.iter().map(|&j| if j >= old_n { j + k } else { j }).collect::<Vec<_>>();
        let mut stat = Vec::with_capacity(self.stat.len() + k);
        stat.extend_from_slice(&self.stat[..old_n]);
        stat.extend(std::iter::repeat_n(Stat::Lower, k));
        stat.extend_from_slice(&self.stat[old_n..]);
        BasisSnapshot { basis, stat, weights: self.weights.clone() }
    }
}

/// The LP state [`Simplex::restore_snapshot`] leaves behind: basis, bound
/// statuses, the kernel (fresh factors with an empty eta file, or the dense
/// inverse), basic values, reduced costs and the pricing weights the
/// snapshot carried. Captured with
/// [`Simplex::checkpoint_into`] and reinstalled with [`Simplex::rollback`],
/// which reproduces the captured state bit for bit — without a
/// refactorization — as long as the bounds and the form are those of the
/// capture. Strong-branching probes re-seat their node this way.
///
/// The caller owns one checkpoint and refills it in place: a capture or a
/// rollback copies into existing buffers and allocates only to grow one.
#[derive(Debug, Default)]
pub(crate) struct LpCheckpoint {
    basis: Vec<usize>,
    stat: Vec<Stat>,
    /// `None` until the first capture.
    kernel: Option<Kernel>,
    xb: Vec<f64>,
    d: Vec<f64>,
    weights: Vec<f64>,
    pivots_since_refactor: usize,
}

/// The linear-algebra backend representing `B⁻¹`.
#[derive(Debug)]
enum Kernel {
    /// Explicit dense row-major `m × m` inverse.
    Dense { binv: Vec<f64> },
    /// Sparse LU factors plus the product-form eta file accumulated since
    /// the last refactorization. The factors are boxed so the two variants
    /// stay close in size; a refactorization writes into the box.
    Lu { lu: Box<LuFactors>, etas: EtaFile, eta_limit: usize },
}

/// `clone_from` between kernels of the same kind copies into the existing
/// buffers, so a [`Simplex::rollback`] allocates only where a live buffer
/// is shorter than the checkpoint's.
impl Clone for Kernel {
    fn clone(&self) -> Self {
        match self {
            Kernel::Dense { binv } => Kernel::Dense { binv: binv.clone() },
            Kernel::Lu { lu, etas, eta_limit } => {
                Kernel::Lu { lu: lu.clone(), etas: etas.clone(), eta_limit: *eta_limit }
            }
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Kernel::Dense { binv }, Kernel::Dense { binv: from }) => binv.clone_from(from),
            (
                Kernel::Lu { lu, etas, eta_limit },
                Kernel::Lu { lu: lu_from, etas: etas_from, eta_limit: limit_from },
            ) => {
                lu.clone_from(lu_from);
                etas.clone_from(etas_from);
                *eta_limit = *limit_from;
            }
            (to, from) => *to = from.clone(),
        }
    }
}

impl Kernel {
    fn new(kind: BasisKernel, m: usize) -> Self {
        match kind {
            BasisKernel::Dense => {
                let mut binv = vec![0.0; m * m];
                for r in 0..m {
                    binv[r * m + r] = 1.0;
                }
                Kernel::Dense { binv }
            }
            BasisKernel::SparseLu => Kernel::Lu {
                lu: Box::new(LuFactors::identity(m)),
                etas: EtaFile::default(),
                eta_limit: ETA_LIMIT,
            },
        }
    }

    /// Resets to the identity basis representation (all-slack basis).
    fn reset_identity(&mut self, m: usize) {
        match self {
            Kernel::Dense { binv } => {
                binv.iter_mut().for_each(|v| *v = 0.0);
                for r in 0..m {
                    binv[r * m + r] = 1.0;
                }
            }
            Kernel::Lu { lu, etas, .. } => {
                **lu = LuFactors::identity(m);
                etas.clear();
            }
        }
    }

    /// Rebuilds the representation of the current basis from scratch.
    fn refactorize(&mut self, sf: &StandardForm, basis: &[usize]) -> Result<()> {
        match self {
            Kernel::Dense { binv } => {
                *binv = dense_invert(sf, basis)?;
                Ok(())
            }
            Kernel::Lu { lu, etas, .. } => {
                **lu = LuFactors::factorize(sf, basis)?;
                etas.clear();
                Ok(())
            }
        }
    }

    /// Solves `B x = v` in place: `v` enters indexed by row, leaves indexed
    /// by basis position. `work` is scratch of length `m`.
    fn ftran(&self, v: &mut [f64], work: &mut [f64]) {
        match self {
            Kernel::Dense { binv } => {
                let m = v.len();
                for (i, w) in work.iter_mut().enumerate() {
                    *w = binv[i * m..(i + 1) * m].iter().zip(v.iter()).map(|(a, b)| a * b).sum();
                }
                v.copy_from_slice(work);
            }
            Kernel::Lu { lu, etas, .. } => {
                lu.ftran(v, work);
                etas.apply_ftran(v);
            }
        }
    }

    /// Computes `out = B⁻¹ A_q` exploiting the sparsity of column `q`: the
    /// sparse kernel enters the column's entries through its row→step map.
    fn ftran_col(&self, sf: &StandardForm, q: usize, out: &mut [f64], work: &mut [f64]) {
        match self {
            Kernel::Dense { binv } => {
                let m = out.len();
                out.iter_mut().for_each(|v| *v = 0.0);
                match sf.column(q) {
                    ColumnRef::Structural(nz) => {
                        for &(row, v) in nz {
                            for (i, o) in out.iter_mut().enumerate() {
                                *o += binv[i * m + row] * v;
                            }
                        }
                    }
                    ColumnRef::Slack(row) => {
                        for (i, o) in out.iter_mut().enumerate() {
                            *o = binv[i * m + row];
                        }
                    }
                }
            }
            Kernel::Lu { lu, etas, .. } => {
                match sf.column(q) {
                    ColumnRef::Structural(nz) => lu.ftran_sparse(nz.iter().copied(), out, work),
                    ColumnRef::Slack(row) => lu.ftran_sparse([(row, 1.0)], out, work),
                }
                etas.apply_ftran(out);
            }
        }
    }

    /// Computes `out = B⁻¹ v` for a row-indexed `v` whose nonzero rows are
    /// listed in `nz`; the sparse kernel reads `v` through that list only.
    fn ftran_indexed(&self, v: &[f64], nz: &[usize], out: &mut [f64], work: &mut [f64]) {
        match self {
            Kernel::Dense { .. } => {
                out.copy_from_slice(v);
                self.ftran(out, work);
            }
            Kernel::Lu { lu, etas, .. } => {
                lu.ftran_sparse(nz.iter().map(|&i| (i, v[i])), out, work);
                etas.apply_ftran(out);
            }
        }
    }

    /// Solves `Bᵀ y = c` in place: `c` enters indexed by basis position,
    /// leaves indexed by row. `work` is scratch of length `m`.
    fn btran(&self, c: &mut [f64], work: &mut [f64]) {
        match self {
            Kernel::Dense { binv } => {
                let m = c.len();
                work.iter_mut().for_each(|v| *v = 0.0);
                for (r, &cr) in c.iter().enumerate() {
                    if cr != 0.0 {
                        for (w, &b) in work.iter_mut().zip(&binv[r * m..(r + 1) * m]) {
                            *w += cr * b;
                        }
                    }
                }
                c.copy_from_slice(work);
            }
            Kernel::Lu { lu, etas, .. } => {
                etas.apply_btran_rhs(c);
                lu.btran(c, work);
            }
        }
    }

    /// Extracts `ρ = eᵣᵀ B⁻¹` (row `r` of the inverse) into `out`; the
    /// sparse kernel's BTRAN skips every zero step of `Uᵀ`.
    fn unit_row(&self, r: usize, out: &mut [f64], work: &mut [f64]) {
        match self {
            Kernel::Dense { binv } => {
                let m = out.len();
                out.copy_from_slice(&binv[r * m..(r + 1) * m]);
            }
            Kernel::Lu { lu, etas, .. } => {
                out.iter_mut().for_each(|v| *v = 0.0);
                out[r] = 1.0;
                etas.apply_btran_rhs(out);
                lu.btran(out, work);
            }
        }
    }

    /// Records the basis exchange at position `r` with FTRAN'd entering
    /// column `aq`, whose nonzero positions `aq_nz` lists in ascending
    /// order. Returns `true` when the caller should refactorize now (sparse
    /// kernel: eta file reached its cap).
    fn update(&mut self, r: usize, aq: &[f64], aq_nz: &[usize]) -> bool {
        match self {
            Kernel::Dense { binv } => {
                let m = aq.len();
                let inv_piv = 1.0 / aq[r];
                for k in 0..m {
                    binv[r * m + k] *= inv_piv;
                }
                for i in 0..m {
                    if i != r {
                        let f = aq[i];
                        if f != 0.0 {
                            for k in 0..m {
                                binv[i * m + k] -= f * binv[r * m + k];
                            }
                        }
                    }
                }
                false
            }
            Kernel::Lu { etas, eta_limit, .. } => {
                etas.push(r, aq, aq_nz);
                etas.len() >= *eta_limit
            }
        }
    }
}

/// Dense Gauss-Jordan inversion of the basis matrix (reference kernel).
fn dense_invert(sf: &StandardForm, basis: &[usize]) -> Result<Vec<f64>> {
    let m = basis.len();
    // Build dense B column by column.
    let mut bmat = vec![0.0; m * m];
    for (r, &j) in basis.iter().enumerate() {
        match sf.column(j) {
            ColumnRef::Structural(nz) => {
                for &(row, v) in nz {
                    bmat[row * m + r] = v;
                }
            }
            ColumnRef::Slack(row) => bmat[row * m + r] = 1.0,
        }
    }
    // Gauss-Jordan with partial pivoting on the augmented [B | I].
    let mut inv = vec![0.0; m * m];
    for r in 0..m {
        inv[r * m + r] = 1.0;
    }
    for col in 0..m {
        let mut piv_row = col;
        let mut piv_val = bmat[col * m + col].abs();
        for r in (col + 1)..m {
            let v = bmat[r * m + col].abs();
            if v > piv_val {
                piv_val = v;
                piv_row = r;
            }
        }
        if piv_val < 1e-11 {
            return Err(MilpError::SingularBasis);
        }
        if piv_row != col {
            for k in 0..m {
                bmat.swap(piv_row * m + k, col * m + k);
                inv.swap(piv_row * m + k, col * m + k);
            }
        }
        let piv = bmat[col * m + col];
        let inv_piv = 1.0 / piv;
        for k in 0..m {
            bmat[col * m + k] *= inv_piv;
            inv[col * m + k] *= inv_piv;
        }
        for r in 0..m {
            if r != col {
                let f = bmat[r * m + col];
                if f != 0.0 {
                    for k in 0..m {
                        bmat[r * m + k] -= f * bmat[col * m + k];
                        inv[r * m + k] -= f * inv[col * m + k];
                    }
                }
            }
        }
    }
    Ok(inv)
}

/// Re-optimizable bounded-variable dual simplex over a constraint matrix
/// with mutable bounds.
///
/// Owns a private copy of the [`StandardForm`] (cloned from the shared base
/// at construction) so cut rows can be appended to a *live* LP with
/// [`Simplex::append_cut_rows`] without disturbing other workers.
#[derive(Debug, Clone)]
pub(crate) struct Simplex {
    sf: StandardForm,
    /// Working bounds, mutated by branch and bound. Length `n + m`.
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    basis: Vec<usize>,
    stat: Vec<Stat>,
    /// Basis linear-algebra backend.
    kernel: Kernel,
    /// Values of basic variables by row.
    xb: Vec<f64>,
    /// Reduced costs for all columns (basic entries are ~0).
    d: Vec<f64>,
    m: usize,
    ncols: usize,
    pivots_since_refactor: usize,
    iteration_limit: usize,
    /// Total pivots performed over the lifetime of this state.
    pub iterations: u64,
    /// Wall-clock deadline checked periodically inside [`Simplex::optimize`].
    pub deadline: Option<Instant>,
    /// Cancellation token checked alongside the deadline.
    cancel: Option<CancelToken>,
    /// Event sink for [`SolverEvent::Refactorized`].
    observer: ObserverHandle,
    /// Seconds spent inside [`Simplex::optimize`], refactorizations
    /// excluded.
    pub simplex_seconds: f64,
    /// Seconds spent in [`Simplex::refactorize`] (LU factorization or dense
    /// inversion).
    pub factor_seconds: f64,
    /// Lifetime basis refactorizations.
    pub refactorizations: u64,
    /// Perturbed structural costs used internally to break dual degeneracy
    /// (length `n`); slacks stay at zero cost.
    c_pert: Vec<f64>,
    /// Safe bound correction: `true_optimum ≥ objective() − bound_margin`.
    bound_margin: f64,
    /// Leaving-row selection rule.
    pricing: Pricing,
    /// Reference weights for steepest-edge row pricing, one per basis row.
    /// `weights[r]` tracks `‖eᵣᵀ B⁻¹‖²`. All-ones under Dantzig, which
    /// never reads them. They depend on the basis alone, so they survive
    /// refactorizations and travel with it: a [`BasisSnapshot`] carries
    /// them and [`Simplex::restore_snapshot`] reinstalls them, a
    /// [`Simplex::rollback`] reinstalls its checkpoint's, and
    /// [`Simplex::append_cut_rows`] keeps every existing row's weight and
    /// gives each new row its exact norm. Only the slack basis (`B = I`,
    /// [`Simplex::new`] and [`Simplex::reset_to_slack_basis`]) starts from
    /// unit weights, which are then exact.
    weights: Vec<f64>,
    /// Scratch buffers reused across pivots.
    scratch_rho: Vec<f64>,
    scratch_aq: Vec<f64>,
    /// The pivot row `α` over all `n + m` columns. Only the columns in
    /// `alpha_nz` may hold anything but `+0.0`.
    scratch_alpha: Vec<f64>,
    /// The columns the last scatter into `scratch_alpha` touched, in touch
    /// order; the next scatter zeroes only these.
    alpha_nz: Vec<usize>,
    /// Per column: listed in `alpha_nz`.
    alpha_mark: Vec<bool>,
    /// The nonzero rows of `scratch_rho` at the last scatter, ascending.
    rho_nz: Vec<usize>,
    /// The nonzero positions of `scratch_aq` in the current pivot,
    /// ascending.
    aq_nz: Vec<usize>,
    scratch_work: Vec<f64>,
    scratch_flip: Vec<f64>,
    /// Scratch for the DSE cross-term FTRAN `τ = B⁻¹ρ`.
    scratch_tau: Vec<f64>,
    /// Scratch for the BTRAN right-hand side of `recompute_reduced_costs`.
    scratch_y: Vec<f64>,
    /// Scratch for the FTRAN right-hand side of `recompute_xb`.
    scratch_bt: Vec<f64>,
    /// BFRT scratch owned between calls so `optimize` is allocation-free
    /// after warm-up: ratio-sorted entering candidates...
    scratch_cand: Vec<(f64, usize)>,
    /// ...and the columns bound-flipped in the current iteration.
    scratch_flips: Vec<usize>,
}

impl Simplex {
    /// Creates a dual-feasible initial state (all-slack basis, structural
    /// variables parked at cost-sign bounds). The basis kernel and its
    /// limits come from `options`. The standard form is cloned so this
    /// state can grow cut rows independently of the shared base.
    pub fn new(sf: &StandardForm, options: &SolverOptions) -> Self {
        let m = sf.m;
        let ncols = sf.n + sf.m;
        // Deterministic tiny cost perturbation: the min–max style models this
        // solver targets are massively dual degenerate, which stalls the
        // dual simplex for thousands of pivots per node. Perturbing each
        // structural cost by ~1e-9 removes the degenerate faces; the exact
        // bound is recovered by subtracting `bound_margin` (the maximum
        // objective shift the perturbation can cause over the box).
        let mut c_pert = sf.c.clone();
        let mut bound_margin = 0.0;
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        for (j, c) in c_pert.iter_mut().enumerate().take(sf.n) {
            let range = sf.ub[j] - sf.lb[j];
            if range.is_finite() && range <= 1e6 {
                // xorshift64* keeps this reproducible without an RNG dep.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = ((state >> 11) as f64 / (1u64 << 53) as f64) + 0.5; // [0.5, 1.5)
                let delta = 1e-9 * unit;
                *c += delta;
                bound_margin += delta * range;
            }
        }
        let mut stat = vec![Stat::Lower; ncols];
        let mut d = vec![0.0; ncols];
        for j in 0..sf.n {
            d[j] = c_pert[j];
            stat[j] = if c_pert[j] >= 0.0 { Stat::Lower } else { Stat::Upper };
        }
        let mut basis = Vec::with_capacity(m);
        for r in 0..m {
            basis.push(sf.n + r);
            stat[sf.n + r] = Stat::Basic;
        }
        let kernel = Kernel::new(options.basis_kernel, m);
        let mut s = Simplex {
            lb: sf.lb.clone(),
            ub: sf.ub.clone(),
            sf: sf.clone(),
            basis,
            stat,
            kernel,
            xb: vec![0.0; m],
            d,
            m,
            ncols,
            pivots_since_refactor: 0,
            iteration_limit: ITERATION_LIMIT,
            iterations: 0,
            deadline: None,
            cancel: options.cancel.clone(),
            observer: options.observer.clone(),
            simplex_seconds: 0.0,
            factor_seconds: 0.0,
            refactorizations: 0,
            c_pert,
            bound_margin,
            pricing: options.pricing,
            weights: vec![1.0; m],
            scratch_rho: vec![0.0; m],
            scratch_aq: vec![0.0; m],
            scratch_alpha: vec![0.0; ncols],
            alpha_nz: Vec::new(),
            alpha_mark: vec![false; ncols],
            rho_nz: Vec::new(),
            aq_nz: Vec::new(),
            scratch_work: vec![0.0; m],
            scratch_flip: vec![0.0; m],
            scratch_tau: vec![0.0; m],
            scratch_y: vec![0.0; m],
            scratch_bt: vec![0.0; m],
            scratch_cand: Vec::new(),
            scratch_flips: Vec::new(),
        };
        s.recompute_xb();
        s
    }

    #[inline]
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.stat[j] {
            Stat::Lower => self.lb[j],
            Stat::Upper => self.ub[j],
            Stat::Basic => unreachable!("basic variable has no bound value"),
        }
    }

    /// Internal (perturbed) cost of column `j`.
    #[inline]
    fn pcost(&self, j: usize) -> f64 {
        if j < self.sf.n {
            self.c_pert[j]
        } else {
            0.0
        }
    }

    /// The safe correction to subtract from [`Simplex::objective`] when
    /// using it as a lower bound for the *unperturbed* LP.
    pub fn bound_margin(&self) -> f64 {
        self.bound_margin
    }

    #[inline]
    fn is_fixed(&self, j: usize) -> bool {
        self.ub[j] - self.lb[j] <= ZTOL
    }

    /// Recomputes `xb = B⁻¹ (b − N x_N)` from scratch.
    fn recompute_xb(&mut self) {
        let sf = &self.sf;
        self.scratch_bt.copy_from_slice(&sf.b);
        for j in 0..self.ncols {
            if self.stat[j] != Stat::Basic {
                let v = self.nonbasic_value(j);
                if v != 0.0 {
                    sf.column(j).axpy(-v, &mut self.scratch_bt);
                }
            }
        }
        self.kernel.ftran(&mut self.scratch_bt, &mut self.scratch_work);
        self.xb.copy_from_slice(&self.scratch_bt);
    }

    /// Rebuilds the kernel's basis representation from scratch and
    /// recomputes reduced costs and basic values.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::SingularBasis`] if the basis cannot be factored;
    /// the caller may fall back to [`Simplex::reset_to_slack_basis`].
    fn refactorize(&mut self) -> Result<()> {
        let t0 = Instant::now();
        let r = self.kernel.refactorize(&self.sf, &self.basis);
        self.factor_seconds += t0.elapsed().as_secs_f64();
        r?;
        self.refactorizations += 1;
        let count = self.refactorizations;
        self.observer.emit(|| SolverEvent::Refactorized { count });
        self.pivots_since_refactor = 0;
        self.recompute_reduced_costs();
        self.recompute_xb();
        Ok(())
    }

    /// Recomputes `d = c − cᵦ B⁻¹ A` from scratch.
    fn recompute_reduced_costs(&mut self) {
        let sf = &self.sf;
        // y solves Bᵀ y = c_B.
        for r in 0..self.m {
            let j = self.basis[r];
            self.scratch_y[r] = if j < sf.n { self.c_pert[j] } else { 0.0 };
        }
        self.kernel.btran(&mut self.scratch_y, &mut self.scratch_work);
        for j in 0..self.ncols {
            if self.stat[j] == Stat::Basic {
                self.d[j] = 0.0;
            } else {
                self.d[j] = self.pcost(j) - sf.column(j).dot(&self.scratch_y);
            }
        }
    }

    /// Sets the pricing weight of every basis row from `first` on to its
    /// exact `‖eᵣᵀB⁻¹‖²`, one BTRAN per row (unit weights under Dantzig,
    /// which never reads them). Used for rows whose slack just joined the
    /// basis below an existing block: for `[[B, 0], [C, I]]` row `r` of the
    /// inverse is `[−C_r B⁻¹, e_r]`, whose norm is `1 + ‖C_r B⁻¹‖²`.
    fn set_exact_weights_from(&mut self, first: usize) {
        for r in first..self.m {
            self.weights[r] = match self.pricing {
                Pricing::Dantzig => 1.0,
                Pricing::SteepestEdge => {
                    self.kernel.unit_row(r, &mut self.scratch_rho, &mut self.scratch_work);
                    self.scratch_rho.iter().map(|&x| x * x).sum::<f64>().max(WEIGHT_FLOOR)
                }
            };
        }
    }

    /// Captures the current basis, bound statuses and pricing weights for
    /// later [`Simplex::restore_snapshot`].
    pub fn snapshot(&self) -> BasisSnapshot {
        BasisSnapshot {
            basis: self.basis.clone(),
            stat: self.stat.clone(),
            weights: self.weights.clone(),
        }
    }

    /// Installs a previously captured basis: copies the basic set and bound
    /// statuses, refactorizes through the kernel and recomputes reduced
    /// costs and basic values under the *current* bounds (apply bound edits
    /// before calling this). The snapshot's pricing weights are reinstalled
    /// as they were: they depend on the basis alone, so they are as exact
    /// under the new bounds as they were at capture.
    ///
    /// The restored state is a pure function of the snapshot, the current
    /// bounds and the form. A caller that re-installs one snapshot several
    /// times under unchanged bounds and form restores it once, captures the
    /// result with [`Simplex::checkpoint_into`] and re-installs it with
    /// [`Simplex::rollback`]: the same state, without the refactorization.
    ///
    /// # Errors
    ///
    /// [`MilpError::SingularBasis`] when the snapshot basis cannot be
    /// factorized. The state is then *inconsistent* (basis arrays updated,
    /// kernel stale) and the caller must immediately
    /// [`Simplex::reset_to_slack_basis`].
    ///
    /// A snapshot captured *before* rows were appended — a resumed
    /// [`crate::ResolveSession`] carries its basis across a restriction
    /// delta whose `AddRow` appends a row to the carried form — is padded:
    /// every missing trailing row keeps its own slack basic, giving the block
    /// lower-triangular basis `[[B_snap, 0], [C, I]]`, nonsingular whenever
    /// the snapshot basis is. The snapshot's rows keep their weights, which
    /// that basis leaves exact, and each padded row gets its exact norm.
    pub fn restore_snapshot(&mut self, snap: &BasisSnapshot) -> Result<()> {
        let snap_m = snap.basis.len();
        let snap_cols = snap.stat.len();
        debug_assert!(snap_m <= self.m, "snapshot from a larger LP");
        debug_assert_eq!(snap_cols - snap_m, self.ncols - self.m, "structural count mismatch");
        self.basis[..snap_m].copy_from_slice(&snap.basis);
        self.stat[..snap_cols].copy_from_slice(&snap.stat);
        for r in snap_m..self.m {
            self.basis[r] = self.sf.n + r;
        }
        for j in snap_cols..self.ncols {
            self.stat[j] = Stat::Basic;
        }
        self.refactorize()?;
        self.make_dual_feasible();
        self.recompute_xb();
        self.weights[..snap_m].copy_from_slice(&snap.weights);
        self.set_exact_weights_from(snap_m);
        Ok(())
    }

    /// Copies the current LP state into `cp`, reusing its buffers.
    pub(crate) fn checkpoint_into(&self, cp: &mut LpCheckpoint) {
        cp.basis.clone_from(&self.basis);
        cp.stat.clone_from(&self.stat);
        match &mut cp.kernel {
            Some(kernel) => kernel.clone_from(&self.kernel),
            empty => *empty = Some(self.kernel.clone()),
        }
        cp.xb.clone_from(&self.xb);
        cp.d.clone_from(&self.d);
        cp.weights.clone_from(&self.weights);
        cp.pivots_since_refactor = self.pivots_since_refactor;
    }

    /// Reinstalls the state captured in `cp` by copy. The caller guarantees
    /// that the bounds and the form (no rows appended since) are those of
    /// the capture; the state then equals the captured one bit for bit,
    /// refactorization interval included.
    pub(crate) fn rollback(&mut self, cp: &LpCheckpoint) {
        debug_assert_eq!(cp.basis.len(), self.m, "checkpoint of another form");
        debug_assert_eq!(cp.stat.len(), self.ncols, "checkpoint of another form");
        self.basis.clone_from(&cp.basis);
        self.stat.clone_from(&cp.stat);
        self.kernel.clone_from(cp.kernel.as_ref().expect("rollback of an empty checkpoint"));
        self.xb.clone_from(&cp.xb);
        self.d.clone_from(&cp.d);
        self.weights.clone_from(&cp.weights);
        self.pivots_since_refactor = cp.pivots_since_refactor;
    }

    /// Discards the basis entirely and restarts from the dual-feasible
    /// all-slack basis. Used as a last-resort numerical recovery.
    pub fn reset_to_slack_basis(&mut self) {
        let m = self.m;
        for j in 0..self.ncols {
            self.stat[j] = if j < self.sf.n {
                if self.c_pert[j] >= 0.0 {
                    Stat::Lower
                } else {
                    Stat::Upper
                }
            } else {
                Stat::Basic
            };
            self.d[j] = self.pcost(j);
        }
        for r in 0..m {
            self.basis[r] = self.sf.n + r;
        }
        self.kernel.reset_identity(m);
        self.pivots_since_refactor = 0;
        self.make_dual_feasible();
        self.recompute_xb();
        // Slack basis ⇒ B = I ⇒ every row norm is exactly 1.
        self.weights.fill(1.0);
    }

    /// Flips nonbasic variables whose reduced cost sign disagrees with their
    /// bound status. Keeps the state dual feasible after cost drift.
    fn make_dual_feasible(&mut self) {
        for j in 0..self.ncols {
            if self.stat[j] == Stat::Basic || self.is_fixed(j) {
                continue;
            }
            if self.stat[j] == Stat::Lower && self.d[j] < -DTOL {
                self.stat[j] = Stat::Upper;
            } else if self.stat[j] == Stat::Upper && self.d[j] > DTOL {
                self.stat[j] = Stat::Lower;
            }
        }
    }

    /// Tightens/relaxes the working bounds of column `j` **without**
    /// refreshing basic values; call [`Simplex::refresh`] after a batch of
    /// bound edits and before [`Simplex::optimize`]. Dual feasibility is
    /// preserved automatically.
    pub fn set_bounds(&mut self, j: usize, lb: f64, ub: f64) {
        self.lb[j] = lb;
        self.ub[j] = ub;
        if self.stat[j] != Stat::Basic {
            // Keep the nonbasic value inside the new interval and the bound
            // status consistent with the reduced-cost sign.
            if self.stat[j] == Stat::Lower && self.d[j] < -DTOL && !self.is_fixed(j) {
                self.stat[j] = Stat::Upper;
            } else if self.stat[j] == Stat::Upper && self.d[j] > DTOL && !self.is_fixed(j) {
                self.stat[j] = Stat::Lower;
            }
        }
    }

    /// Recomputes basic values after one or more [`Simplex::set_bounds`]
    /// edits.
    pub fn refresh(&mut self) {
        self.recompute_xb();
    }

    /// Current primal value of column `j`.
    #[allow(dead_code)] // diagnostic accessor, exercised in tests
    pub fn value(&self, j: usize) -> f64 {
        match self.stat[j] {
            Stat::Basic => {
                let r = self.basis.iter().position(|&b| b == j).expect("basic column in basis");
                self.xb[r]
            }
            _ => self.nonbasic_value(j),
        }
    }

    /// Extracts the full primal vector of length `n + m`.
    #[allow(dead_code)] // convenience wrapper over `values_into`, used in tests
    pub fn values(&self) -> Vec<f64> {
        let mut x = Vec::new();
        self.values_into(&mut x);
        x
    }

    /// Writes the full primal vector of length `n + m` into `out`,
    /// clearing and resizing it. Allocation-free once `out` has capacity.
    pub fn values_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.ncols, 0.0);
        for (j, xj) in out.iter_mut().enumerate() {
            if self.stat[j] != Stat::Basic {
                *xj = self.nonbasic_value(j);
            }
        }
        for (r, &j) in self.basis.iter().enumerate() {
            out[j] = self.xb[r];
        }
    }

    /// Internal (minimization) objective of the current point.
    pub fn objective(&self) -> f64 {
        let mut obj = 0.0;
        for j in 0..self.ncols {
            let x = if self.stat[j] == Stat::Basic { continue } else { self.nonbasic_value(j) };
            obj += self.sf.cost(j) * x;
        }
        for (r, &j) in self.basis.iter().enumerate() {
            obj += self.sf.cost(j) * self.xb[r];
        }
        obj
    }

    /// Runs the dual simplex to primal feasibility (= LP optimality, since
    /// dual feasibility is maintained throughout).
    ///
    /// # Errors
    ///
    /// * [`MilpError::IterationLimit`] if the per-LP pivot limit is hit.
    /// * [`MilpError::SingularBasis`] if refactorization fails repeatedly.
    /// * [`MilpError::Interrupted`] if the registered [`CancelToken`] fired.
    pub fn optimize(&mut self) -> Result<LpStatus> {
        let t0 = Instant::now();
        let factor_before = self.factor_seconds;
        let r = self.optimize_inner();
        // Attribute the loop's wall time minus any refactorizations it
        // triggered, so simplex and factorization buckets stay disjoint.
        let factor_delta = self.factor_seconds - factor_before;
        self.simplex_seconds += (t0.elapsed().as_secs_f64() - factor_delta).max(0.0);
        r
    }

    /// [`Simplex::optimize`] under a temporary per-call pivot cap, used by
    /// strong-branching probes: [`ITERATION_LIMIT`] is swapped for `cap` for
    /// this one call and restored on every exit path.
    /// At a cap-induced [`MilpError::IterationLimit`] the state is a
    /// dual-feasible iterate, so [`Simplex::objective`] still reads a valid
    /// dual bound for the probe LP (modulo [`Simplex::bound_margin`]).
    pub(crate) fn optimize_capped(&mut self, cap: usize) -> Result<LpStatus> {
        let saved = self.iteration_limit;
        self.iteration_limit = cap;
        let r = self.optimize();
        self.iteration_limit = saved;
        r
    }

    fn optimize_inner(&mut self) -> Result<LpStatus> {
        // Detach the BFRT scratch so the loop can sort and iterate it while
        // reading other fields of `self`; reattached on every exit path.
        let mut cand = std::mem::take(&mut self.scratch_cand);
        let mut flips = std::mem::take(&mut self.scratch_flips);
        let r = self.optimize_loop(&mut cand, &mut flips);
        self.scratch_cand = cand;
        self.scratch_flips = flips;
        r
    }

    fn optimize_loop(
        &mut self,
        cand: &mut Vec<(f64, usize)>,
        flips: &mut Vec<usize>,
    ) -> Result<LpStatus> {
        let mut degenerate_run: u32 = 0;
        let mut local_iters: usize = 0;
        // After this many pivots without finishing, switch to Bland's rule
        // permanently: slow but guaranteed to terminate.
        let stall_limit = (4 * self.m).max(2_000);
        loop {
            if local_iters >= self.iteration_limit {
                return Err(MilpError::IterationLimit { limit: self.iteration_limit });
            }
            if local_iters.is_multiple_of(128) {
                if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                    return Err(MilpError::Interrupted);
                }
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return Err(MilpError::IterationLimit { limit: local_iters });
                    }
                }
            }
            // --- Leaving variable: best pricing score among violated rows.
            // Dantzig scores by raw violation; steepest edge by
            // violation²/weight, the dual-step-length measure that actually
            // ranks progress per pivot (Forrest–Goldfarb). ---
            let dantzig = self.pricing == Pricing::Dantzig;
            let mut r_best = usize::MAX;
            let mut score_best = 0.0;
            let mut below = false;
            for r in 0..self.m {
                let j = self.basis[r];
                let x = self.xb[r];
                let tol_lo = PTOL * (1.0 + self.lb[j].abs());
                let tol_hi = PTOL * (1.0 + self.ub[j].abs());
                let (v, is_below) = if x < self.lb[j] - tol_lo {
                    (self.lb[j] - x, true)
                } else if x > self.ub[j] + tol_hi {
                    (x - self.ub[j], false)
                } else {
                    continue;
                };
                let score = if dantzig { v } else { v * v / self.weights[r].max(WEIGHT_FLOOR) };
                if score > score_best {
                    score_best = score;
                    r_best = r;
                    below = is_below;
                }
            }
            if r_best == usize::MAX {
                return Ok(LpStatus::Optimal);
            }
            let r = r_best;
            let p = self.basis[r];
            let sigma = if below { -1.0 } else { 1.0 };

            // --- rho = row r of B⁻¹; alpha~_j = σ · rho·A_j. ---
            self.kernel.unit_row(r, &mut self.scratch_rho, &mut self.scratch_work);
            self.scatter_pivot_row(sigma);
            let bland = degenerate_run > DEGEN_LIMIT || local_iters > stall_limit;
            let target = if below { self.lb[p] } else { self.ub[p] };
            let mut q = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            flips.clear();
            if bland {
                // Bland mode: smallest index among minimal ratios, no
                // flipping — the configuration with the termination proof.
                // Its tolerance tie rule depends on the scan order, so it
                // scans every column in ascending order.
                for j in 0..self.ncols {
                    if self.stat[j] == Stat::Basic || self.is_fixed(j) {
                        continue;
                    }
                    let a = self.scratch_alpha[j];
                    let eligible = match self.stat[j] {
                        Stat::Lower => a > ZTOL,
                        Stat::Upper => a < -ZTOL,
                        Stat::Basic => false,
                    };
                    if !eligible {
                        continue;
                    }
                    let ratio = (self.d[j] / a).max(0.0);
                    if ratio < best_ratio - 1e-12 || (ratio < best_ratio + 1e-12 && j < q) {
                        best_ratio = ratio;
                        q = j;
                    }
                }
            } else {
                // Bound-flip ratio test (BFRT): walk the eligible columns
                // in dual-ratio order. A candidate whose entire range
                // cannot absorb the remaining violation of row r is
                // *flipped* to its opposite bound (no basis change, one
                // candidate's worth of violation retired); the first
                // candidate that can absorb the rest becomes the pivot.
                // The eventual θ-update with the pivot's ratio — which
                // dominates every flipped ratio — pushes each flipped
                // column's reduced cost across zero, exactly the sign its
                // new bound status requires, so dual feasibility survives.
                // Only touched columns can be eligible: the others hold
                // `+0.0`.
                cand.clear();
                for &j in &self.alpha_nz {
                    if self.stat[j] == Stat::Basic || self.is_fixed(j) {
                        continue;
                    }
                    let a = self.scratch_alpha[j];
                    let eligible = match self.stat[j] {
                        Stat::Lower => a > ZTOL,
                        Stat::Upper => a < -ZTOL,
                        Stat::Basic => false,
                    };
                    if eligible {
                        cand.push(((self.d[j] / a).max(0.0), j));
                    }
                }
                // Remaining violation of row r, positive in the σ frame
                // (each flip of candidate j retires |alpha_j|·range_j).
                let mut v = sigma * (self.xb[r] - target);
                let pivot = bfrt_walk(cand, &self.scratch_alpha, |j| {
                    let absorb = self.scratch_alpha[j].abs() * (self.ub[j] - self.lb[j]);
                    let flip = v > absorb + PTOL;
                    if flip {
                        flips.push(j);
                        v -= absorb;
                    }
                    flip
                });
                if let Some((ratio, j)) = pivot {
                    q = j;
                    best_ratio = ratio;
                }
            }
            if q == usize::MAX {
                // No pivot candidate (or, in BFRT, flipping every eligible
                // column still cannot repair row r): primal infeasible
                // under the current bounds. Nothing has been mutated.
                return Ok(LpStatus::Infeasible);
            }

            let m = self.m;
            // --- Apply the recorded flips: statuses, then one FTRAN of the
            // accumulated bound-shift to update the basic values. ---
            if !flips.is_empty() {
                self.scratch_flip.iter_mut().for_each(|x| *x = 0.0);
                for &j in flips.iter() {
                    let (delta, flipped) = match self.stat[j] {
                        Stat::Lower => (self.ub[j] - self.lb[j], Stat::Upper),
                        Stat::Upper => (self.lb[j] - self.ub[j], Stat::Lower),
                        Stat::Basic => unreachable!("flip candidates are nonbasic"),
                    };
                    self.stat[j] = flipped;
                    self.sf.column(j).axpy(delta, &mut self.scratch_flip);
                }
                self.kernel.ftran(&mut self.scratch_flip, &mut self.scratch_work);
                for i in 0..m {
                    self.xb[i] -= self.scratch_flip[i];
                }
            }

            // --- FTRAN: aq = B⁻¹ A_q. ---
            self.kernel.ftran_col(&self.sf, q, &mut self.scratch_aq, &mut self.scratch_work);
            let alpha_q_true = self.scratch_aq[r];
            if alpha_q_true.abs() < ZTOL {
                // The alpha row disagrees with the FTRAN column: numerical
                // drift. Refactorize and retry the whole iteration. (Any
                // flips just applied carry stale reduced-cost signs; the
                // `make_dual_feasible` pass below reconciles status with
                // the freshly recomputed reduced costs.)
                self.refactorize()?;
                self.make_dual_feasible();
                self.recompute_xb();
                local_iters += 1;
                continue;
            }
            self.aq_nz.clear();
            self.aq_nz.extend((0..m).filter(|&i| self.scratch_aq[i] != 0.0));

            // --- Pivot step length (post-flip, so |t| ≤ range of q). ---
            let t = (self.xb[r] - target) / alpha_q_true;
            let theta = best_ratio; // d_q / alpha~_q, ≥ 0.
            if theta <= 1e-12 && t.abs() <= 1e-12 {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            // Reduced costs: d_j ← d_j − θ·alpha~_j; d_p = −σθ; d_q = 0.
            // (Fixed columns keep consistent d for later bound relaxations
            // during branch backtracking; their alpha is already exact.)
            // θ > 0 here, so an untouched column's `d − θ·(+0.0)` is `d`
            // bit for bit: only the touched columns are updated.
            if theta != 0.0 {
                for &j in &self.alpha_nz {
                    if self.stat[j] != Stat::Basic {
                        self.d[j] -= theta * self.scratch_alpha[j];
                    }
                }
            }
            self.d[p] = -sigma * theta;
            self.d[q] = 0.0;

            // Basic values: x_B ← x_B − t·aq, entering takes row r.
            let x_q_new = self.nonbasic_value(q) + t;
            for &i in &self.aq_nz {
                if i != r {
                    self.xb[i] -= t * self.scratch_aq[i];
                }
            }
            self.xb[r] = x_q_new;

            // Pricing weights for the next iteration, while the kernel
            // still represents the outgoing basis.
            self.update_weights(r, alpha_q_true);

            // Kernel update for the exchange at (r, q).
            debug_assert!(
                self.aq_nz.iter().copied().eq((0..m).filter(|&i| self.scratch_aq[i] != 0.0)),
                "the entering-column index must list its nonzeros in ascending order"
            );
            let force_refactor = self.kernel.update(r, &self.scratch_aq, &self.aq_nz);

            self.basis[r] = q;
            self.stat[q] = Stat::Basic;
            self.stat[p] = if below { Stat::Lower } else { Stat::Upper };

            self.iterations += 1;
            local_iters += 1;
            self.pivots_since_refactor += 1;
            if force_refactor || self.pivots_since_refactor >= REFACTOR_INTERVAL {
                match self.refactorize() {
                    Ok(()) => {
                        self.make_dual_feasible();
                        self.recompute_xb();
                    }
                    Err(_) => {
                        self.reset_to_slack_basis();
                    }
                }
            }
        }
    }

    /// Updates the row pricing weights for the exchange at row `r` with
    /// pivot element `alpha_r`, using the FTRAN'd entering column in
    /// `scratch_aq` (through `aq_nz`) and (for DSE) the BTRAN row in
    /// `scratch_rho` (through `rho_nz`). Must run *before* the kernel
    /// records the exchange: the DSE cross term needs `τ = B⁻¹ρ` in the
    /// outgoing basis.
    fn update_weights(&mut self, r: usize, alpha_r: f64) {
        let inv = 1.0 / alpha_r;
        match self.pricing {
            Pricing::Dantzig => {}
            Pricing::SteepestEdge => {
                // Exact Forrest–Goldfarb. The leaving row's true squared
                // norm is recomputed from the BTRAN row already at hand
                // (self-correcting against drift); the cross term costs one
                // extra FTRAN per pivot, with ρ as a sparse right-hand side.
                // Only rows where `aq` is nonzero change weight.
                let rho = &self.scratch_rho;
                let wr =
                    self.rho_nz.iter().map(|&i| rho[i] * rho[i]).sum::<f64>().max(WEIGHT_FLOOR);
                self.kernel.ftran_indexed(
                    &self.scratch_rho,
                    &self.rho_nz,
                    &mut self.scratch_tau,
                    &mut self.scratch_work,
                );
                for &i in &self.aq_nz {
                    if i == r {
                        continue;
                    }
                    let kappa = self.scratch_aq[i] * inv;
                    if kappa != 0.0 {
                        let w = self.weights[i] - 2.0 * kappa * self.scratch_tau[i]
                            + kappa * kappa * wr;
                        self.weights[i] = w.max(WEIGHT_FLOOR);
                    }
                }
                self.weights[r] = (wr * inv * inv).max(WEIGHT_FLOOR);
            }
        }
    }

    /// The standard form this state currently solves (base rows plus any
    /// appended cut rows).
    #[inline]
    pub fn form(&self) -> &StandardForm {
        &self.sf
    }

    /// Current row count (grows as cut rows are appended).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Current column count `n + m`.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.ncols
    }

    /// The column basic in row `r`.
    #[inline]
    pub fn basis_col(&self, r: usize) -> usize {
        self.basis[r]
    }

    /// The value of the variable basic in row `r`.
    #[inline]
    pub fn basic_value(&self, r: usize) -> f64 {
        self.xb[r]
    }

    /// The bound status of column `j`.
    #[inline]
    pub fn col_stat(&self, j: usize) -> Stat {
        self.stat[j]
    }

    /// Extracts tableau row `r` — `α = eᵣᵀ B⁻¹ A` over all `n + m` columns —
    /// into `alpha` (cleared and refilled). This is the Gomory read-off
    /// path: one BTRAN for `ρ = eᵣᵀB⁻¹`, then pricing's own scatter of ρ's
    /// nonzeros through the sparse rows, copied out.
    pub fn tableau_row_into(&mut self, r: usize, alpha: &mut Vec<f64>) {
        self.kernel.unit_row(r, &mut self.scratch_rho, &mut self.scratch_work);
        self.scatter_pivot_row(1.0);
        alpha.clear();
        alpha.extend_from_slice(&self.scratch_alpha);
    }

    /// Scatters `σ·ρ` (ρ in `scratch_rho`) through the sparse constraint
    /// rows into `scratch_alpha`, so `α_j = σ·ρ·A_j`, instead of dotting
    /// every column against a dense ρ. Zeroes the columns the previous
    /// scatter touched first, lists ρ's nonzero rows in `rho_nz`
    /// (ascending) and the columns it touches in `alpha_nz`. ρ is scanned
    /// in ascending row order, so every `α_j` sums its terms in the order
    /// a dense clear-and-scatter would.
    fn scatter_pivot_row(&mut self, sigma: f64) {
        for &j in &self.alpha_nz {
            self.scratch_alpha[j] = 0.0;
            self.alpha_mark[j] = false;
        }
        self.alpha_nz.clear();
        self.rho_nz.clear();
        let n = self.sf.n;
        for (i, &ri) in self.scratch_rho.iter().enumerate() {
            if ri == 0.0 {
                continue;
            }
            self.rho_nz.push(i);
            let s = sigma * ri;
            for &(j, v) in self.sf.row(i).iter().chain(&[(n + i, 1.0)]) {
                if !self.alpha_mark[j] {
                    self.alpha_mark[j] = true;
                    self.alpha_nz.push(j);
                }
                self.scratch_alpha[j] += s * v;
            }
        }
        debug_assert!(
            (0..self.ncols).all(|j| self.alpha_mark[j] || self.scratch_alpha[j].to_bits() == 0),
            "a column outside the pivot-row index holds a value other than +0.0"
        );
    }

    /// Appends `cuts` as new rows of the live LP. Each cut's slack joins the
    /// basis (the extended basis `[[B, 0], [C, I]]` is nonsingular whenever
    /// the current one is), so the following [`Simplex::optimize`] call
    /// re-optimizes *warm* with the dual simplex instead of cold-starting —
    /// the classic cutting-plane recipe. The extended inverse
    /// `[[B⁻¹, 0], [−CB⁻¹, I]]` leaves every existing row's pricing weight
    /// exact, so those are kept, and each new row gets its exact norm.
    ///
    /// # Errors
    ///
    /// [`MilpError::SingularBasis`] when the extended basis cannot be
    /// refactorized (numerically, not structurally, singular). The caller
    /// should treat the state as unusable and rebuild.
    pub fn append_cut_rows(&mut self, cuts: &[crate::cuts::Cut]) -> Result<()> {
        if cuts.is_empty() {
            return Ok(());
        }
        let old_m = self.m;
        for cut in cuts {
            let row = self.sf.m;
            let (sl, su) = match cut.sense {
                crate::cuts::CutSense::Le => (0.0, INFINITE_BOUND),
                crate::cuts::CutSense::Ge => (-INFINITE_BOUND, 0.0),
            };
            self.sf.add_cut_row(&cut.coeffs, cut.rhs, sl, su);
            // The new slack lands at column index `old ncols`; existing
            // column and row indices keep their meaning.
            self.lb.push(sl);
            self.ub.push(su);
            self.stat.push(Stat::Basic);
            self.basis.push(self.sf.n + row);
            self.d.push(0.0);
            self.xb.push(0.0);
            self.m += 1;
            self.ncols += 1;
        }
        self.weights.resize(self.m, 1.0);
        self.scratch_rho.resize(self.m, 0.0);
        self.scratch_aq.resize(self.m, 0.0);
        self.scratch_work.resize(self.m, 0.0);
        self.scratch_flip.resize(self.m, 0.0);
        self.scratch_tau.resize(self.m, 0.0);
        self.scratch_y.resize(self.m, 0.0);
        self.scratch_bt.resize(self.m, 0.0);
        self.scratch_alpha.resize(self.ncols, 0.0);
        self.alpha_mark.resize(self.ncols, false);
        self.refactorize()?;
        self.make_dual_feasible();
        self.recompute_xb();
        self.set_exact_weights_from(old_m);
        Ok(())
    }

    /// The sparse kernel's factors and pending eta updates; `None` under
    /// the dense kernel.
    #[cfg(test)]
    pub(crate) fn lu_kernel(&self) -> Option<(&LuFactors, &EtaFile)> {
        match &self.kernel {
            Kernel::Lu { lu, etas, .. } => Some((lu, etas)),
            Kernel::Dense { .. } => None,
        }
    }

    /// Maximum primal bound violation over basic variables (diagnostics).
    #[allow(dead_code)] // diagnostic accessor, exercised in tests
    pub fn primal_infeasibility(&self) -> f64 {
        let mut worst = 0.0_f64;
        for r in 0..self.m {
            let j = self.basis[r];
            let x = self.xb[r];
            worst = worst.max(self.lb[j] - x).max(x - self.ub[j]);
        }
        worst.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::{LinExpr, Objective};

    /// A small LP whose optimum moves several structurals into the basis.
    fn sf_fixture() -> StandardForm {
        let mut m = Model::new("snap");
        let xs: Vec<_> = (0..4).map(|i| m.continuous(format!("x{i}"), 0.0, 4.0).unwrap()).collect();
        m.add_ge("r0", LinExpr::term(xs[0], 1.0) + LinExpr::term(xs[1], 1.0), 3.0);
        m.add_ge("r1", LinExpr::term(xs[1], 2.0) + LinExpr::term(xs[2], 1.0), 4.0);
        m.add_le("r2", LinExpr::term(xs[0], 1.0) + LinExpr::term(xs[3], 2.0), 5.0);
        let mut obj = LinExpr::new();
        for (i, &x) in xs.iter().enumerate() {
            obj.add_term(x, 1.0 + i as f64);
        }
        m.set_objective(Objective::Minimize, obj);
        StandardForm::from_model(&m)
    }

    #[test]
    fn snapshot_restore_recovers_the_optimal_basis() {
        let sf = sf_fixture();
        let opts = SolverOptions::default();
        let mut s = Simplex::new(&sf, &opts);
        assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
        let obj = s.objective();
        let snap = s.snapshot();
        // Drift the basis away from the snapshot with a tighter bound.
        s.set_bounds(1, 2.0, 4.0);
        s.refresh();
        assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
        // Back to the original box, restore, and re-optimize: the restored
        // basis is already optimal, so no pivots are needed.
        s.set_bounds(1, 0.0, 4.0);
        let before = s.iterations;
        s.restore_snapshot(&snap).unwrap();
        assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
        assert_eq!(s.iterations, before, "restored optimal basis must re-optimize pivot-free");
        assert!((s.objective() - obj).abs() < 1e-9, "{} vs {obj}", s.objective());
    }

    #[test]
    fn corrupt_snapshot_restore_reports_singular_basis() {
        let sf = sf_fixture();
        let opts = SolverOptions::default();
        let mut s = Simplex::new(&sf, &opts);
        assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
        let obj = s.objective();
        let mut snap = s.snapshot();
        // Duplicate a basic column: the basis matrix is singular.
        snap.basis[1] = snap.basis[0];
        assert!(matches!(s.restore_snapshot(&snap), Err(MilpError::SingularBasis)));
        // The documented recovery: a slack reset returns a usable state
        // that still reaches the optimum.
        s.reset_to_slack_basis();
        assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
        assert!((s.objective() - obj).abs() < 1e-9);
    }

    #[test]
    fn dense_kernel_rejects_corrupt_snapshot_too() {
        let sf = sf_fixture();
        let opts = SolverOptions::default().basis_kernel(BasisKernel::Dense);
        let mut s = Simplex::new(&sf, &opts);
        assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
        let mut snap = s.snapshot();
        snap.basis[2] = snap.basis[0];
        assert!(matches!(s.restore_snapshot(&snap), Err(MilpError::SingularBasis)));
    }

    #[test]
    fn appended_cut_row_is_absorbed_warm_and_respected() {
        let sf = sf_fixture();
        for kernel in [BasisKernel::SparseLu, BasisKernel::Dense] {
            let opts = SolverOptions::default().basis_kernel(kernel);
            let mut s = Simplex::new(&sf, &opts);
            assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
            let obj0 = s.objective();
            // A valid-but-violated cut: x0 + x1 ≥ 3.5 (the r0 row demands
            // only 3.0, and the optimum sits on it).
            let cut = crate::cuts::Cut {
                coeffs: vec![(0, 1.0), (1, 1.0)],
                rhs: 3.5,
                sense: crate::cuts::CutSense::Ge,
                family: crate::cuts::CutFamily::Cover,
            };
            s.append_cut_rows(std::slice::from_ref(&cut)).unwrap();
            assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
            let x = s.values();
            assert!(x[0] + x[1] >= 3.5 - 1e-6, "cut violated: {} + {}", x[0], x[1]);
            assert!(s.objective() >= obj0 - 1e-9, "cut must not improve the LP");
            // A pre-cut snapshot restores via monotone padding.
            let mut s2 = Simplex::new(&sf, &opts);
            assert_eq!(s2.optimize().unwrap(), LpStatus::Optimal);
            let old_snap = s2.snapshot();
            s2.append_cut_rows(std::slice::from_ref(&cut)).unwrap();
            assert_eq!(s2.optimize().unwrap(), LpStatus::Optimal);
            s2.restore_snapshot(&old_snap).unwrap();
            assert_eq!(s2.optimize().unwrap(), LpStatus::Optimal);
            let x2 = s2.values();
            assert!(x2[0] + x2[1] >= 3.5 - 1e-6, "padded restore kept the cut row");
        }
    }

    /// A 3 × 4 transportation LP whose optimum ships on several routes;
    /// fixing one of them at a bound takes pivots to repair.
    fn transport_fixture() -> StandardForm {
        let supply = [7.0, 9.0, 6.0];
        let demand = [5.0, 6.0, 4.0, 5.0];
        let mut m = Model::new("transport");
        let x: Vec<Vec<_>> = (0..3)
            .map(|i| (0..4).map(|j| m.continuous(format!("x{i}{j}"), 0.0, 6.0).unwrap()).collect())
            .collect();
        for (i, &cap) in supply.iter().enumerate() {
            let row = (0..4).fold(LinExpr::new(), |e, j| e + LinExpr::term(x[i][j], 1.0));
            m.add_le(format!("supply{i}"), row, cap);
        }
        for (j, &need) in demand.iter().enumerate() {
            let col = (0..3).fold(LinExpr::new(), |e, i| e + LinExpr::term(x[i][j], 1.0));
            m.add_ge(format!("demand{j}"), col, need);
        }
        let mut obj = LinExpr::new();
        for (i, row) in x.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                obj.add_term(v, 1.0 + ((3 * i + 5 * j) % 7) as f64);
            }
        }
        m.set_objective(Objective::Minimize, obj);
        StandardForm::from_model(&m)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two states are the same LP state bit for bit, including the
    /// kernel's answers to one FTRAN and one BTRAN of a fixed vector.
    fn assert_same_state(a: &mut Simplex, b: &mut Simplex) {
        assert_eq!(a.basis, b.basis, "basis");
        assert_eq!(a.stat, b.stat, "statuses");
        assert_eq!(bits(&a.xb), bits(&b.xb), "basic values");
        assert_eq!(bits(&a.d), bits(&b.d), "reduced costs");
        assert_eq!(bits(&a.weights), bits(&b.weights), "pricing weights");
        assert_eq!(a.pivots_since_refactor, b.pivots_since_refactor, "refactorization interval");
        let v: Vec<f64> = (0..a.m).map(|r| 1.0 + r as f64 * 0.37 - (r % 3) as f64).collect();
        for s in [&mut *a, &mut *b] {
            s.scratch_bt.copy_from_slice(&v);
            s.kernel.ftran(&mut s.scratch_bt, &mut s.scratch_work);
            s.scratch_y.copy_from_slice(&v);
            s.kernel.btran(&mut s.scratch_y, &mut s.scratch_work);
        }
        assert_eq!(bits(&a.scratch_bt), bits(&b.scratch_bt), "FTRAN");
        assert_eq!(bits(&a.scratch_y), bits(&b.scratch_y), "BTRAN");
    }

    #[test]
    fn rollback_reproduces_a_fresh_snapshot_restore_bit_for_bit() {
        let sf = transport_fixture();
        // An eta limit of 2 makes the probe re-optimizations outlast the eta
        // file, so the rolled-back kernel replaces one that was rebuilt.
        for (kernel, eta_limit) in
            [(BasisKernel::SparseLu, 64), (BasisKernel::SparseLu, 2), (BasisKernel::Dense, 64)]
        {
            let opts = SolverOptions::default().basis_kernel(kernel);
            let mut s = Simplex::new(&sf, &opts);
            if let Kernel::Lu { eta_limit: limit, .. } = &mut s.kernel {
                *limit = eta_limit;
            }
            assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
            let snap = s.snapshot();
            s.restore_snapshot(&snap).unwrap();
            let mut cp = LpCheckpoint::default();
            s.checkpoint_into(&mut cp);
            // Probe every basic route with a positive flow the way strong
            // branching does: fix it at each of its bounds, re-optimize,
            // loosen it again, re-seat.
            let routes: Vec<usize> =
                (0..sf.n).filter(|&j| s.stat[j] == Stat::Basic && s.value(j) > 0.5).collect();
            assert!(routes.len() >= 2, "fixture must have several basic routes");
            let (mut pivots, mut eta_refactors) = (0, 0);
            for &j in &routes {
                let (lb, ub) = (s.lb[j], s.ub[j]);
                for fix in [lb, ub] {
                    s.set_bounds(j, fix, fix);
                    s.refresh();
                    let (iters, refactors) = (s.iterations, s.refactorizations);
                    s.optimize().unwrap();
                    pivots += s.iterations - iters;
                    eta_refactors += s.refactorizations - refactors;
                    s.set_bounds(j, lb, ub);
                    let mut fresh = s.clone();
                    fresh.restore_snapshot(&snap).unwrap();
                    let refactors = s.refactorizations;
                    s.rollback(&cp);
                    assert_eq!(s.refactorizations, refactors, "a rollback must not refactorize");
                    assert_same_state(&mut s, &mut fresh);
                }
            }
            assert!(pivots > routes.len() as u64, "probes must pivot ({pivots})");
            if kernel == BasisKernel::SparseLu && eta_limit == 2 {
                assert!(eta_refactors > 0, "probes must hit the eta limit");
            }
        }
    }

    /// Asserts every pricing weight is the exact `‖eᵣᵀB⁻¹‖²` of the current
    /// basis, from a dense inverse, within 1e-9 relative.
    fn assert_exact_weights(s: &Simplex) {
        let m = s.m;
        let binv = dense_invert(&s.sf, &s.basis).unwrap();
        for r in 0..m {
            let exact: f64 = binv[r * m..(r + 1) * m].iter().map(|x| x * x).sum();
            let w = s.weights[r];
            assert!((w - exact).abs() <= 1e-9 * exact, "row {r}: weight {w} vs exact {exact}");
        }
    }

    /// Two cuts over basic routes of the transport optimum, so each new
    /// row's `C_r B⁻¹` is nonzero and its exact weight exceeds 1.
    fn route_cuts(s: &Simplex) -> Vec<crate::cuts::Cut> {
        let basic: Vec<usize> = (0..s.sf.n).filter(|&j| s.stat[j] == Stat::Basic).collect();
        assert!(basic.len() >= 3, "fixture must have several basic routes");
        [(basic[0], basic[1]), (basic[1], basic[2])]
            .iter()
            .map(|&(a, b)| crate::cuts::Cut {
                coeffs: vec![(a, 1.0), (b, 1.0)],
                rhs: s.value(a) + s.value(b) - 0.5,
                sense: crate::cuts::CutSense::Le,
                family: crate::cuts::CutFamily::Cover,
            })
            .collect()
    }

    #[test]
    fn snapshot_restore_reinstalls_the_captured_weights() {
        let sf = transport_fixture();
        for kernel in [BasisKernel::SparseLu, BasisKernel::Dense] {
            let mut s = Simplex::new(&sf, &SolverOptions::default().basis_kernel(kernel));
            assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
            let snap = s.snapshot();
            assert!(snap.weights.iter().any(|&w| w != 1.0), "fixture must move the weights");
            s.reset_to_slack_basis();
            s.restore_snapshot(&snap).unwrap();
            assert_eq!(bits(&s.weights), bits(&snap.weights), "{kernel:?}");
            assert_exact_weights(&s);
        }
    }

    #[test]
    fn appended_cut_rows_keep_old_weights_and_get_exact_norms() {
        let sf = transport_fixture();
        for kernel in [BasisKernel::SparseLu, BasisKernel::Dense] {
            let mut s = Simplex::new(&sf, &SolverOptions::default().basis_kernel(kernel));
            assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
            let before = s.weights.clone();
            assert!(before.iter().any(|&w| w != 1.0), "fixture must move the weights");
            let cuts = route_cuts(&s);
            s.append_cut_rows(&cuts).unwrap();
            let old_m = before.len();
            assert_eq!(bits(&s.weights[..old_m]), bits(&before), "{kernel:?}");
            assert!(s.weights[old_m..].iter().all(|&w| w > 1.0), "{:?}", &s.weights[old_m..]);
            assert_exact_weights(&s);
        }
    }

    #[test]
    fn padded_restore_gives_the_padded_rows_exact_norms() {
        let sf = transport_fixture();
        for kernel in [BasisKernel::SparseLu, BasisKernel::Dense] {
            let mut s = Simplex::new(&sf, &SolverOptions::default().basis_kernel(kernel));
            assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
            let snap = s.snapshot();
            let cuts = route_cuts(&s);
            s.append_cut_rows(&cuts).unwrap();
            assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
            s.restore_snapshot(&snap).unwrap();
            let old_m = snap.weights.len();
            assert_eq!(bits(&s.weights[..old_m]), bits(&snap.weights), "{kernel:?}");
            assert!(s.weights[old_m..].iter().all(|&w| w > 1.0), "{:?}", &s.weights[old_m..]);
            assert_exact_weights(&s);
        }
    }

    /// The lazy walk hands out candidates in the order of a full sort by
    /// [`bfrt_order`] and stops at the same pivot: on lists with tied
    /// ratios, tied `|α|` and both, longer and shorter than
    /// [`LAZY_PICKS`], when the first candidate pivots, when every
    /// candidate but the last flips and when every candidate flips.
    #[test]
    fn lazy_bfrt_walk_follows_the_full_sort() {
        // α by column: |α| ties in pairs, with both signs.
        let alpha: Vec<f64> = (0..40).map(|j| [2.0, -2.0, 0.5, -0.5, 1.0][j % 5]).collect();
        let lists: Vec<Vec<(f64, usize)>> = vec![
            vec![(0.5, 3)],
            vec![(1.0, 7), (1.0, 2), (1.0, 12), (0.0, 9), (0.0, 4), (0.0, 1)],
            (0..30).map(|j| (f64::from(j % 4) * 0.25, 39 - j as usize)).collect(),
            (0..30).map(|j| (0.0, j)).rev().collect(),
            (0..12).map(|j| (f64::from(j as u8 % 3), (7 * j) % 40)).collect(),
        ];
        for list in lists {
            let mut sorted = list.clone();
            sorted.sort_unstable_by(|&a, &b| bfrt_order(&alpha, a, b));
            let k = list.len();
            for stop in [0, k / 2, k - 1, k] {
                let mut cand = list.clone();
                let mut seen = Vec::new();
                let pivot = bfrt_walk(&mut cand, &alpha, |j| {
                    seen.push(j);
                    seen.len() <= stop
                });
                let expected: Vec<usize> = sorted.iter().take(stop + 1).map(|c| c.1).collect();
                assert_eq!(seen, expected, "order of {list:?}, stop {stop}");
                assert_eq!(pivot, sorted.get(stop).copied(), "pivot of {list:?}, stop {stop}");
            }
        }
    }

    #[test]
    fn pricing_weights_stay_floored_and_reset_on_basis_replacement() {
        let sf = sf_fixture();
        let mut s = Simplex::new(&sf, &SolverOptions::default());
        assert_eq!(s.optimize().unwrap(), LpStatus::Optimal);
        assert!(s.iterations > 0, "fixture must pivot");
        for &w in &s.weights {
            assert!(w >= WEIGHT_FLOOR && w.is_finite(), "weight {w} out of range");
        }
        s.reset_to_slack_basis();
        assert!(s.weights.iter().all(|&w| w == 1.0), "reset must restore unit weights");
    }
}
