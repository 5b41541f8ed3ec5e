//! Gomory mixed-integer (GMI) cut separation.
//!
//! For a basic integer column `x_p` with fractional value `β̃` in row `r`,
//! the tableau row `x_p + Σ_j α_j x_j = β̃` (over nonbasic `j`) is shifted
//! into nonnegative variables `t_j ≥ 0` (distance from the active bound),
//! the GMI disjunction is applied, and the cut is translated back to the
//! original space with every slack eliminated through its defining row
//! `s_i = b_i − A_i·x`. The result is a `≥`-cut over structural columns
//! only, so it survives installation into the shared base form.
//!
//! Textbook safety guards keep the cuts numerically trustworthy:
//! fractionality window on `β̃`, max support, coefficient dynamism limit,
//! magnitude ceiling, and a minimum normalized violation. Tiny
//! coefficients are dropped only with a conservative right-hand-side
//! relaxation over the root box (never an unsound strengthening).

use crate::cuts::{Cut, CutFamily, CutSense};
use crate::simplex::{Simplex, Stat};

/// Tuning knobs of the GMI separator.
#[derive(Debug, Clone)]
pub(crate) struct GomoryParams {
    /// `β̃` fractional part must lie in `[f0_min, 1 − f0_min]`.
    pub f0_min: f64,
    /// Maximum nonzeros a cut may carry.
    pub max_support: usize,
    /// Maximum `max|aᵢ| / min|aᵢ|` coefficient ratio.
    pub max_dynamism: f64,
    /// Fractional basic rows examined per round (closest to ½ first).
    pub max_rows: usize,
    /// Minimum violation / ‖a‖₂ for a cut to be emitted.
    pub min_violation: f64,
}

impl GomoryParams {
    /// Defaults scaled to a form with `n` structural columns.
    pub fn for_form(n: usize) -> Self {
        GomoryParams {
            f0_min: 0.01,
            max_support: (n / 2).max(16),
            max_dynamism: 1e7,
            max_rows: 20,
            min_violation: 1e-6,
        }
    }
}

/// Largest absolute coefficient tolerated in a finished cut.
const MAX_COEFF: f64 = 1e8;
/// A dropped-coefficient relaxation larger than this rejects the drop.
const MAX_DROP_RELAX: f64 = 1e-7;

/// Separates GMI cuts at the current LP optimum `x` (full primal vector of
/// length `n + m`), appending them to `out`.
pub(crate) fn separate(
    lp: &mut Simplex,
    is_int: &[bool],
    x: &[f64],
    params: &GomoryParams,
    out: &mut Vec<Cut>,
) {
    let n = lp.form().n;
    let m = lp.nrows();
    // Candidate rows: basic integer columns with usefully fractional
    // values, most fractional (closest to ½) first, index tiebreak.
    let mut rows: Vec<(f64, usize)> = Vec::new();
    for r in 0..m {
        let j = lp.basis_col(r);
        if j >= n || !is_int[j] {
            continue;
        }
        let beta = lp.basic_value(r);
        let f0 = beta - beta.floor();
        if f0 < params.f0_min || f0 > 1.0 - params.f0_min {
            continue;
        }
        rows.push(((f0 - 0.5).abs(), r));
    }
    rows.sort_by(|a, b| {
        a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });
    rows.truncate(params.max_rows);

    let mut alpha: Vec<f64> = Vec::new();
    let mut dense = vec![0.0; n];
    let mut mark = vec![false; n];
    let mut touched: Vec<usize> = Vec::new();
    for &(_, r) in &rows {
        if let Some(cut) =
            derive(lp, r, is_int, x, params, &mut alpha, &mut dense, &mut mark, &mut touched)
        {
            out.push(cut);
        }
    }
}

/// Derives one GMI cut from basic row `r`, or `None` when a guard trips.
#[allow(clippy::too_many_arguments)]
fn derive(
    lp: &mut Simplex,
    r: usize,
    is_int: &[bool],
    x: &[f64],
    params: &GomoryParams,
    alpha: &mut Vec<f64>,
    dense: &mut [f64],
    mark: &mut [bool],
    touched: &mut Vec<usize>,
) -> Option<Cut> {
    let beta = lp.basic_value(r);
    let f0 = beta - beta.floor();
    let ratio = f0 / (1.0 - f0);
    lp.tableau_row_into(r, alpha);
    let n = lp.form().n;
    let ncols = lp.num_cols();

    for &j in touched.iter() {
        dense[j] = 0.0;
        mark[j] = false;
    }
    touched.clear();
    // The cut starts as Σ_j γ_j t_j ≥ f0 in the shifted space.
    let mut rhs = f0;

    for j in 0..ncols {
        let stat = lp.col_stat(j);
        if stat == Stat::Basic {
            continue;
        }
        let lbj = lp.lb[j];
        let ubj = lp.ub[j];
        let range = ubj - lbj;
        if range <= 1e-12 {
            // Fixed column: t_j ≡ 0 contributes nothing.
            continue;
        }
        // Shift to t_j ≥ 0: a_j is the tableau coefficient of t_j.
        let at_lower = stat == Stat::Lower;
        let a = if at_lower { alpha[j] } else { -alpha[j] };
        if a == 0.0 {
            continue;
        }
        // GMI coefficient. Integer nonbasics use the rounding form (their
        // t_j is integral because the active bound is integral at the
        // root); slacks and continuous columns use the continuous form.
        let gamma = if j < n && is_int[j] {
            let fj = a - a.floor();
            fj.min(ratio * (1.0 - fj))
        } else if a >= 0.0 {
            a
        } else {
            ratio * -a
        };
        if gamma <= 0.0 {
            continue;
        }
        if gamma * range <= 1e-10 {
            // Dropping γ·t_j (0 ≤ t_j ≤ range) relaxes the ≥-cut by at
            // most γ·range — subtract it so validity is preserved.
            rhs -= gamma * range;
            continue;
        }
        // Un-shift to the original variable.
        let (coef, shift) = if at_lower { (gamma, gamma * lbj) } else { (-gamma, -gamma * ubj) };
        rhs += shift;
        if j < n {
            if !mark[j] {
                mark[j] = true;
                touched.push(j);
            }
            dense[j] += coef;
        } else {
            // Slack elimination: s_i = b_i − A_i·x, uniformly valid for
            // base rows and earlier cut rows alike.
            let i = j - n;
            rhs -= coef * lp.form().b[i];
            for &(k, v) in lp.form().row(i) {
                if !mark[k] {
                    mark[k] = true;
                    touched.push(k);
                }
                dense[k] -= coef * v;
            }
        }
    }

    // Assemble with guards. Sorted columns keep everything deterministic.
    touched.sort_unstable();
    let max_abs = touched.iter().map(|&j| dense[j].abs()).fold(0.0_f64, f64::max);
    if max_abs <= 1e-10 || max_abs > MAX_COEFF || !rhs.is_finite() || rhs.abs() > 1e9 {
        return None;
    }
    let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(touched.len());
    let mut min_abs = f64::INFINITY;
    for &j in touched.iter() {
        let d = dense[j];
        if d.abs() < max_abs * 1e-10 {
            if d != 0.0 {
                // For a ≥-cut, removing d·x_j requires rhs − max(d·x_j)
                // over the root box; reject when the drop is too costly.
                let relax = (d * lp.lb[j]).max(d * lp.ub[j]);
                if relax.abs() > MAX_DROP_RELAX {
                    return None;
                }
                rhs -= relax;
            }
            continue;
        }
        min_abs = min_abs.min(d.abs());
        coeffs.push((j, d));
    }
    if coeffs.is_empty() || coeffs.len() > params.max_support {
        return None;
    }
    if max_abs / min_abs > params.max_dynamism {
        return None;
    }
    let cut = Cut { coeffs, rhs, sense: CutSense::Ge, family: CutFamily::Gomory };
    let norm = cut.norm();
    if cut.violation(x) < params.min_violation * norm.max(1.0) {
        return None;
    }
    Some(cut)
}
