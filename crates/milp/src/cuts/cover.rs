//! Knapsack cover cut separation with extended-cover lifting.
//!
//! Every model row is normalized to a `≤`-knapsack over binary columns
//! (`≥`-rows negated, `=`-rows processed in both directions): negative
//! binary weights are complemented (`z = 1 − x`) and non-binary terms are
//! moved to the right-hand side conservatively through their global bounds.
//! A greedy minimal cover `C` (smallest `(1 − z̄)/w` first) is lifted to
//! the extended cover `E(C) = C ∪ {j : w_j ≥ max_{i∈C} w_i}`, giving
//! `Σ_{j∈E(C)} z_j ≤ |C| − 1`, which is then un-complemented back to the
//! original binaries. Cover cuts depend only on the model rows and global
//! bounds, so they are globally valid.

use crate::cuts::{Cut, CutFamily, CutSense};
use crate::model::{ConstraintSense, Model};
use crate::standard::INFINITE_BOUND;

/// Tuning knobs of the cover separator.
#[derive(Debug, Clone)]
pub(crate) struct CoverParams {
    /// Minimum violation at the separation point for a cut to be emitted.
    pub min_violation: f64,
}

/// One binary item of the normalized knapsack.
#[derive(Debug, Clone, Copy)]
struct Item {
    /// Structural column index.
    col: usize,
    /// Positive weight after complementation.
    weight: f64,
    /// LP value of the (possibly complemented) literal `z̄`.
    zbar: f64,
    /// Whether the literal is `1 − x` rather than `x`.
    complemented: bool,
}

/// Separates cover cuts violated at `x` (structural values), appending
/// them to `out`.
pub(crate) fn separate(
    model: &Model,
    global_bounds: &[(f64, f64)],
    binary: &[bool],
    x: &[f64],
    params: &CoverParams,
    out: &mut Vec<Cut>,
) {
    let mut items: Vec<Item> = Vec::new();
    for row in model.rows.iter() {
        let base_rhs = row.rhs - row.expr.constant();
        match row.sense {
            ConstraintSense::Le => {
                try_row(row, 1.0, base_rhs, global_bounds, binary, x, params, &mut items, out);
            }
            ConstraintSense::Ge => {
                try_row(row, -1.0, -base_rhs, global_bounds, binary, x, params, &mut items, out);
            }
            ConstraintSense::Eq => {
                try_row(row, 1.0, base_rhs, global_bounds, binary, x, params, &mut items, out);
                try_row(row, -1.0, -base_rhs, global_bounds, binary, x, params, &mut items, out);
            }
        }
    }
}

/// Attempts one cover cut from `sign · row ≤ sign · rhs`.
#[allow(clippy::too_many_arguments)]
fn try_row(
    row: &crate::model::RowConstraint,
    sign: f64,
    rhs: f64,
    global_bounds: &[(f64, f64)],
    binary: &[bool],
    x: &[f64],
    params: &CoverParams,
    items: &mut Vec<Item>,
    out: &mut Vec<Cut>,
) {
    items.clear();
    let mut cap = rhs;
    for (var, c0) in row.expr.iter() {
        let j = var.index();
        let a = sign * c0;
        if a == 0.0 {
            continue;
        }
        if binary[j] {
            if a > 0.0 {
                items.push(Item { col: j, weight: a, zbar: x[j], complemented: false });
            } else {
                // a·x = a − a·(1 − x): complement to weight −a ≥ 0.
                cap -= a;
                items.push(Item { col: j, weight: -a, zbar: 1.0 - x[j], complemented: true });
            }
        } else {
            // Remove the non-binary term conservatively: the knapsack must
            // stay valid for every feasible value of x_j.
            let (l, u) = global_bounds[j];
            if l <= -INFINITE_BOUND * 0.99 || u >= INFINITE_BOUND * 0.99 {
                return; // effectively unbounded — no finite relaxation
            }
            cap -= (a * l).min(a * u);
        }
    }
    if items.len() < 2 || !cap.is_finite() {
        return;
    }
    let total: f64 = items.iter().map(|i| i.weight).sum();
    if total <= cap + 1e-9 {
        return; // no cover exists
    }
    if cap < -1e-9 {
        return; // binaries alone infeasible; leave to the solver
    }

    // Greedy cover: cheapest (1 − z̄)/w first — prefers items the LP point
    // already uses. Deterministic tiebreaks: larger weight, then index.
    items.sort_by(|a, b| {
        let ka = (1.0 - a.zbar) / a.weight;
        let kb = (1.0 - b.zbar) / b.weight;
        ka.partial_cmp(&kb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.weight.partial_cmp(&a.weight).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.col.cmp(&b.col))
    });
    let mut cover: Vec<Item> = Vec::new();
    let mut wsum = 0.0;
    for it in items.iter() {
        cover.push(*it);
        wsum += it.weight;
        if wsum > cap + 1e-9 {
            break;
        }
    }
    if wsum <= cap + 1e-9 {
        return;
    }

    // Minimalize: drop the heaviest members that are not needed to stay a
    // cover (heaviest-first keeps |C| small and the cut strong).
    cover.sort_by(|a, b| {
        b.weight.partial_cmp(&a.weight).unwrap_or(std::cmp::Ordering::Equal).then(a.col.cmp(&b.col))
    });
    let mut keep: Vec<Item> = Vec::new();
    let mut remaining: f64 = cover.iter().map(|i| i.weight).sum();
    for it in cover.iter() {
        if remaining - it.weight > cap + 1e-9 {
            remaining -= it.weight; // still a cover without it
        } else {
            keep.push(*it);
        }
    }
    let cover = keep;
    if cover.len() < 2 {
        return;
    }

    // Extended-cover lifting: every item at least as heavy as the heaviest
    // cover member joins the left-hand side at coefficient 1.
    let wmax = cover.iter().map(|i| i.weight).fold(0.0_f64, f64::max);
    let in_cover = |col: usize| cover.iter().any(|i| i.col == col);
    let mut extended: Vec<Item> = cover.clone();
    for it in items.iter() {
        if !in_cover(it.col) && it.weight >= wmax - 1e-12 {
            extended.push(*it);
        }
    }
    let cap_terms = cover.len() as f64 - 1.0;
    let violation: f64 = extended.iter().map(|i| i.zbar).sum::<f64>() - cap_terms;
    if violation < params.min_violation {
        return;
    }

    // Un-complement back to the original binaries: z = 1 − x contributes
    // −x to the left-hand side and −1 to the right-hand side.
    let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(extended.len());
    let mut rhs_out = cap_terms;
    for it in &extended {
        if it.complemented {
            coeffs.push((it.col, -1.0));
            rhs_out -= 1.0;
        } else {
            coeffs.push((it.col, 1.0));
        }
    }
    coeffs.sort_unstable_by_key(|&(j, _)| j);
    out.push(Cut { coeffs, rhs: rhs_out, sense: CutSense::Le, family: CutFamily::Cover });
}
