//! MILP encoding of the deployment problem (paper §II-B).
//!
//! The MINLP (10) is linearized exactly:
//!
//! * **Lemma 2.1** (threshold indicator) encodes constraint (4) linking the
//!   duplication variable `h_{i+M}` to the reliability `r_i`.
//! * **Lemma 2.2 / McCormick envelopes** replace every product of decision
//!   variables. Pure binary×binary products (`h_i·h_j`, `y_il·h y_{i+M,l'}`)
//!   use the three-inequality envelope; binary×bounded-continuous products
//!   (`x_ik · e_i^comp`) use the four-inequality envelope.
//! * The five-factor communication product
//!   `h_i h_j x_{iβ} x_{jγ} c_{βγρ}` is linearized with the
//!   *assignment-flow* reformulation: a transportation variable
//!   `q_{ijβγ} ∈ [0,1]` with row/column marginals bounded by `x_{iβ}` /
//!   `x_{jγ}` and total mass `h_i h_j`, split over `ρ` by
//!   `q²_{ijβγρ} ≤ c_{βγρ}`. At integral points this equals the paper's
//!   chained Lemma 2.2 expansion while giving a tighter LP relaxation and
//!   far fewer rows.
//!
//! Both the **BE** (balance, min–max) and **ME** (minimize total) objectives
//! are supported, as are multi-path and fixed-single-path routing (the
//! Fig. 2(a) comparison).

// Index-based loops here deliberately mirror the paper's Σ_{i,l} subscript
// notation; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

use crate::error::Result;
use crate::problem::ProblemInstance;
use crate::solution::{Deployment, PathChoice};
use ndp_milp::{ConstraintId, LinExpr, Model, Objective, Solution, VarId};
use ndp_noc::PathKind;
use ndp_platform::{LevelId, ProcessorId};
use ndp_taskset::TaskId;

/// Routing flexibility of the encoded problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMode {
    /// The paper's problem (10): path selection `c_{βγρ}` is optimized.
    Multi,
    /// Single-path baseline of Fig. 2(a): every pair is fixed to one kind.
    SingleFixed(PathKind),
}

/// Objective of the encoded problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeployObjective {
    /// BE: minimize `max_k (E_k^comp + E_k^comm)` (the paper's (10)).
    #[default]
    BalanceEnergy,
    /// ME: minimize `Σ_k (E_k^comp + E_k^comm)` (Fig. 2(d)/(e) baseline).
    MinimizeTotalEnergy,
}

/// The built model plus the variable registry needed to read solutions back
/// and to translate heuristic deployments into MIP warm starts.
#[derive(Debug)]
pub struct MilpEncoding {
    /// The assembled model, ready for `ndp_milp`.
    pub model: Model,
    path_mode: PathMode,
    n_tasks: usize,
    n_procs: usize,
    n_levels: usize,
    /// `y[i][l]`.
    y: Vec<Vec<VarId>>,
    /// `h_{i+M}` per original.
    hd: Vec<VarId>,
    /// `x[i][k]`.
    x: Vec<Vec<VarId>>,
    /// `c[(β·N+γ)·2+ρ]` for `β≠γ` (undefined slots reused arbitrarily).
    c: Vec<Option<VarId>>,
    /// `hy[i][l]` — equals `y` for originals, aux vars for duplicates.
    hy: Vec<Vec<VarId>>,
    /// `g[i][l][l']` reliability products per original.
    g: Vec<Vec<Vec<VarId>>>,
    /// `b` products for duplicate×duplicate edges, by edge index.
    eh_aux: Vec<Option<VarId>>,
    /// `q[e][β][γ]`.
    q: Vec<Vec<VarId>>,
    /// `q2[e][(β·N+γ)·2+ρ]` (Multi mode only).
    q2: Vec<Vec<Option<VarId>>>,
    /// `ω[i][k]` comp-energy products.
    omega: Vec<Vec<VarId>>,
    /// `u` per independent pair, keyed by `(i, j)` with `i < j`.
    u: Vec<((usize, usize), VarId)>,
    ts: Vec<VarId>,
    te: Vec<VarId>,
    /// Epigraph variable (BE only).
    z: Option<VarId>,
    edges: Vec<(TaskId, TaskId, f64)>,
    /// `deadline[i]` row per task, in task order — the handle used by
    /// re-deployment deltas to tighten a deadline in place.
    deadline_rows: Vec<ConstraintId>,
    /// Variable count at build time. [`MilpEncoding::warm_start_values`]
    /// sizes its vector from this, so it keeps working after the session
    /// layer detaches `model` into a
    /// [`ResolveSession`](ndp_milp::ResolveSession).
    n_model_vars: usize,
}

/// `h_i` as a linear expression: constant 1 for originals, the `hd` variable
/// for duplicates.
fn h_expr(problem: &ProblemInstance, hd: &[VarId], i: usize) -> LinExpr {
    let m = problem.num_original();
    if i < m {
        LinExpr::constant_term(1.0)
    } else {
        LinExpr::from(hd[i - m])
    }
}

/// Builds the full MILP for `problem` (the implementation behind
/// [`MilpEncoding::build`]).
fn encode(
    problem: &ProblemInstance,
    path_mode: PathMode,
    objective: DeployObjective,
) -> Result<MilpEncoding> {
    let graph = problem.tasks.graph();
    let m_orig = problem.num_original();
    let t_cnt = problem.num_tasks();
    let n = problem.num_processors();
    let l_cnt = problem.num_levels();
    let h_ms = problem.horizon_ms;
    let r_th = problem.reliability_threshold;
    let sigma = problem.sigma();
    let r_max = problem.max_reliability();
    let edges: Vec<(TaskId, TaskId, f64)> = graph.edges().collect();

    let mut model = Model::new("task-deployment");

    // --- Decision variables -------------------------------------------------
    let y: Vec<Vec<VarId>> = (0..t_cnt)
        .map(|i| (0..l_cnt).map(|l| model.binary(format!("y[{i}][{l}]"))).collect())
        .collect();
    let hd: Vec<VarId> = (0..m_orig).map(|i| model.binary(format!("hd[{i}]"))).collect();
    let x: Vec<Vec<VarId>> = (0..t_cnt)
        .map(|i| (0..n).map(|k| model.binary(format!("x[{i}][{k}]"))).collect())
        .collect();
    let mut c: Vec<Option<VarId>> = vec![None; n * n * 2];
    if path_mode == PathMode::Multi {
        for beta in 0..n {
            for gamma in 0..n {
                if beta == gamma {
                    continue;
                }
                for rho in 0..2 {
                    c[(beta * n + gamma) * 2 + rho] =
                        Some(model.binary(format!("c[{beta}][{gamma}][{rho}]")));
                }
            }
        }
    }
    let ts: Vec<VarId> = (0..t_cnt)
        .map(|i| model.continuous(format!("ts[{i}]"), 0.0, h_ms).expect("valid bounds"))
        .collect();
    let te: Vec<VarId> = (0..t_cnt)
        .map(|i| model.continuous(format!("te[{i}]"), 0.0, h_ms).expect("valid bounds"))
        .collect();

    // Branch priorities: duplication first, then frequencies, allocation,
    // paths, sequencing.
    for &v in &hd {
        model.set_branch_priority(v, 100);
    }
    for row in &y {
        for &v in row {
            model.set_branch_priority(v, 50);
        }
    }
    for row in &x {
        for &v in row {
            model.set_branch_priority(v, 30);
        }
    }
    for v in c.iter().flatten() {
        model.set_branch_priority(*v, 20);
    }

    // --- (1) (2) (3): assignment constraints --------------------------------
    for i in 0..t_cnt {
        let mut e = LinExpr::new();
        for &v in &y[i] {
            e.add_term(v, 1.0);
        }
        model.add_eq(format!("one-level[{i}]"), e, 1.0);
        let mut e = LinExpr::new();
        for &v in &x[i] {
            e.add_term(v, 1.0);
        }
        model.add_eq(format!("one-proc[{i}]"), e, 1.0);
    }
    if path_mode == PathMode::Multi {
        for beta in 0..n {
            for gamma in 0..n {
                if beta == gamma {
                    continue;
                }
                let mut e = LinExpr::new();
                for rho in 0..2 {
                    e.add_term(c[(beta * n + gamma) * 2 + rho].expect("multi mode"), 1.0);
                }
                model.add_eq(format!("one-path[{beta}][{gamma}]"), e, 1.0);
            }
        }
    }

    // --- hy products: hy[i][l] = h_i · y[i][l] -------------------------------
    let mut hy: Vec<Vec<VarId>> = Vec::with_capacity(t_cnt);
    for i in 0..t_cnt {
        if i < m_orig {
            hy.push(y[i].clone());
        } else {
            let dup = i - m_orig;
            let row: Vec<VarId> = (0..l_cnt)
                .map(|l| {
                    let v =
                        model.continuous(format!("hy[{i}][{l}]"), 0.0, 1.0).expect("valid bounds");
                    model.add_le(format!("hy-le-y[{i}][{l}]"), LinExpr::from(v) - y[i][l], 0.0);
                    model.add_le(format!("hy-le-h[{i}][{l}]"), LinExpr::from(v) - hd[dup], 0.0);
                    model.add_ge(
                        format!("hy-ge[{i}][{l}]"),
                        LinExpr::from(v) - y[i][l] - hd[dup],
                        -1.0,
                    );
                    v
                })
                .collect();
            hy.push(row);
        }
    }

    // Level helper tables.
    let tcomp_il = |i: usize, l: usize| problem.exec_time_ms(TaskId(i), LevelId(l));
    let ecomp_il = |i: usize, l: usize| problem.exec_energy_mj(TaskId(i), LevelId(l));
    let r_il = |i: usize, l: usize| problem.reliability(TaskId(i), LevelId(l));

    // Expression builders over hy.
    let tcomp_expr = |i: usize| {
        let mut e = LinExpr::new();
        for l in 0..l_cnt {
            e.add_term(hy[i][l], tcomp_il(i, l));
        }
        e
    };
    let ecomp_expr = |i: usize| {
        let mut e = LinExpr::new();
        for l in 0..l_cnt {
            e.add_term(hy[i][l], ecomp_il(i, l));
        }
        e
    };

    // --- te definition, start gating, deadlines (8) -------------------------
    let mut deadline_rows: Vec<ConstraintId> = Vec::with_capacity(t_cnt);
    for i in 0..t_cnt {
        model.add_eq(format!("te-def[{i}]"), LinExpr::from(te[i]) - ts[i] - tcomp_expr(i), 0.0);
        if i >= m_orig {
            // ts_i ≤ H·h_i keeps inactive duplicates parked at time zero.
            model.add_le(
                format!("ts-gate[{i}]"),
                LinExpr::from(ts[i]) - LinExpr::term(hd[i - m_orig], h_ms),
                0.0,
            );
        }
        deadline_rows.push(model.add_le(
            format!("deadline[{i}]"),
            tcomp_expr(i),
            graph.task(TaskId(i)).deadline_ms,
        ));
    }

    // --- (4) Lemma 2.1 + (5) combined reliability ---------------------------
    let mut g: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(m_orig);
    for i in 0..m_orig {
        let copy = i + m_orig;
        // (4a): r_i + r_max·hd ≤ r_max + R_th − σ.
        let mut e = LinExpr::new();
        for l in 0..l_cnt {
            e.add_term(y[i][l], r_il(i, l));
        }
        e.add_term(hd[i], r_max);
        model.add_le(format!("lemma21a[{i}]"), e, r_max + r_th - sigma);
        // (4b): R_th·(1 − hd) ≤ r_i  ⇔  −r_i − R_th·hd ≤ −R_th.
        let mut e = LinExpr::new();
        for l in 0..l_cnt {
            e.add_term(y[i][l], -r_il(i, l));
        }
        e.add_term(hd[i], -r_th);
        model.add_le(format!("lemma21b[{i}]"), e, -r_th);

        // (5): r_i + rc_i − r_i·rc_i ≥ R_th with
        // r_i·rc_i = Σ_{l,l'} r_il·r_{c,l'} · (y_il · hy_{c,l'}).
        let mut gi: Vec<Vec<VarId>> = Vec::with_capacity(l_cnt);
        let mut rel = LinExpr::new();
        for l in 0..l_cnt {
            rel.add_term(y[i][l], r_il(i, l));
            rel.add_term(hy[copy][l], r_il(copy, l));
        }
        for l in 0..l_cnt {
            let mut row = Vec::with_capacity(l_cnt);
            for l2 in 0..l_cnt {
                let v =
                    model.continuous(format!("g[{i}][{l}][{l2}]"), 0.0, 1.0).expect("valid bounds");
                model.add_le(format!("g-le-y[{i}][{l}][{l2}]"), LinExpr::from(v) - y[i][l], 0.0);
                model.add_le(
                    format!("g-le-hy[{i}][{l}][{l2}]"),
                    LinExpr::from(v) - hy[copy][l2],
                    0.0,
                );
                model.add_ge(
                    format!("g-ge[{i}][{l}][{l2}]"),
                    LinExpr::from(v) - y[i][l] - hy[copy][l2],
                    -1.0,
                );
                rel.add_term(v, -r_il(i, l) * r_il(copy, l2));
                row.push(v);
            }
            gi.push(row);
        }
        model.add_ge(format!("reliability[{i}]"), rel, r_th);
        g.push(gi);
    }

    // --- Communication flow variables ---------------------------------------
    // eh_e = h_i·h_j per edge.
    let mut eh_aux: Vec<Option<VarId>> = Vec::with_capacity(edges.len());
    let mut eh_exprs: Vec<LinExpr> = Vec::with_capacity(edges.len());
    for (idx, &(p, s, _)) in edges.iter().enumerate() {
        let (pi, si) = (p.index(), s.index());
        let (p_dup, s_dup) = (pi >= m_orig, si >= m_orig);
        let expr = match (p_dup, s_dup) {
            (false, false) => {
                eh_aux.push(None);
                LinExpr::constant_term(1.0)
            }
            (true, false) => {
                eh_aux.push(None);
                LinExpr::from(hd[pi - m_orig])
            }
            (false, true) => {
                eh_aux.push(None);
                LinExpr::from(hd[si - m_orig])
            }
            (true, true) => {
                let v = model.continuous(format!("eh[{idx}]"), 0.0, 1.0).expect("valid bounds");
                model.add_le(format!("eh-le-hi[{idx}]"), LinExpr::from(v) - hd[pi - m_orig], 0.0);
                model.add_le(format!("eh-le-hj[{idx}]"), LinExpr::from(v) - hd[si - m_orig], 0.0);
                model.add_ge(
                    format!("eh-ge[{idx}]"),
                    LinExpr::from(v) - hd[pi - m_orig] - hd[si - m_orig],
                    -1.0,
                );
                eh_aux.push(Some(v));
                LinExpr::from(v)
            }
        };
        eh_exprs.push(expr);
    }

    // q[e][β][γ] with marginals ≤ x and total mass eh_e.
    let mut q: Vec<Vec<VarId>> = Vec::with_capacity(edges.len());
    let mut q2: Vec<Vec<Option<VarId>>> = Vec::with_capacity(edges.len());
    for (idx, &(p, s, _)) in edges.iter().enumerate() {
        let (pi, si) = (p.index(), s.index());
        let qe: Vec<VarId> = (0..n * n)
            .map(|bg| {
                model
                    .continuous(format!("q[{idx}][{}][{}]", bg / n, bg % n), 0.0, 1.0)
                    .expect("valid bounds")
            })
            .collect();
        for beta in 0..n {
            let mut e = LinExpr::new();
            for gamma in 0..n {
                e.add_term(qe[beta * n + gamma], 1.0);
            }
            model.add_le(format!("q-row[{idx}][{beta}]"), e - x[pi][beta], 0.0);
        }
        for gamma in 0..n {
            let mut e = LinExpr::new();
            for beta in 0..n {
                e.add_term(qe[beta * n + gamma], 1.0);
            }
            model.add_le(format!("q-col[{idx}][{gamma}]"), e - x[si][gamma], 0.0);
        }
        let mut e = LinExpr::new();
        for &v in &qe {
            e.add_term(v, 1.0);
        }
        model.add_eq(format!("q-mass[{idx}]"), e - eh_exprs[idx].clone(), 0.0);

        let mut q2e: Vec<Option<VarId>> = vec![None; n * n * 2];
        if path_mode == PathMode::Multi {
            for beta in 0..n {
                for gamma in 0..n {
                    if beta == gamma {
                        continue;
                    }
                    let mut sum = LinExpr::new();
                    for rho in 0..2 {
                        let v = model
                            .continuous(format!("q2[{idx}][{beta}][{gamma}][{rho}]"), 0.0, 1.0)
                            .expect("valid bounds");
                        model.add_le(
                            format!("q2-le-c[{idx}][{beta}][{gamma}][{rho}]"),
                            LinExpr::from(v) - c[(beta * n + gamma) * 2 + rho].expect("multi mode"),
                            0.0,
                        );
                        sum.add_term(v, 1.0);
                        q2e[(beta * n + gamma) * 2 + rho] = Some(v);
                    }
                    model.add_eq(
                        format!("q2-split[{idx}][{beta}][{gamma}]"),
                        sum - qe[beta * n + gamma],
                        0.0,
                    );
                }
            }
        }
        q.push(qe);
        q2.push(q2e);
    }

    // Per-(edge,β,γ,ρ) communication *time* coefficient access.
    let t_bg = |beta: usize, gamma: usize, rho: PathKind| {
        problem.comm.time_ms(ndp_noc::NodeId(beta), ndp_noc::NodeId(gamma), rho)
    };
    let e_bgk = |beta: usize, gamma: usize, k: usize, rho: PathKind| {
        problem.comm.energy_at_mj(
            ndp_noc::NodeId(beta),
            ndp_noc::NodeId(gamma),
            ndp_noc::NodeId(k),
            rho,
        )
    };

    // tcomm expression per *successor* task: sums over incoming edges.
    let tcomm_expr = |j: usize| {
        let mut e = LinExpr::new();
        for (idx, &(_, s, data)) in edges.iter().enumerate() {
            if s.index() != j {
                continue;
            }
            let w = problem.time_weight(data);
            for beta in 0..n {
                for gamma in 0..n {
                    if beta == gamma {
                        continue;
                    }
                    match path_mode {
                        PathMode::Multi => {
                            for rho in PathKind::ALL {
                                let v = q2[idx][(beta * n + gamma) * 2 + rho.index()]
                                    .expect("multi mode");
                                e.add_term(v, w * t_bg(beta, gamma, rho));
                            }
                        }
                        PathMode::SingleFixed(kind) => {
                            e.add_term(q[idx][beta * n + gamma], w * t_bg(beta, gamma, kind));
                        }
                    }
                }
            }
        }
        e
    };

    // --- (6) precedence ------------------------------------------------------
    for &(p, s, _) in &edges {
        let (pi, si) = (p.index(), s.index());
        // ts_j + H(1 − h_j) ≥ te_i + tcomm_j.
        let mut e = LinExpr::from(te[pi]) + tcomm_expr(si) - ts[si];
        let h_j = h_expr(problem, &hd, si);
        e += (LinExpr::constant_term(1.0) - h_j) * (-h_ms);
        model.add_le(format!("precedence[{pi}][{si}]"), e, 0.0);
    }

    // --- (7) non-overlap ------------------------------------------------------
    let mut u: Vec<((usize, usize), VarId)> = Vec::new();
    for i in 0..t_cnt {
        for j in (i + 1)..t_cnt {
            let (ti, tj) = (TaskId(i), TaskId(j));
            if graph.is_ancestor(ti, tj) || graph.is_ancestor(tj, ti) {
                continue;
            }
            let uij = model.binary(format!("u[{i}][{j}]"));
            model.set_branch_priority(uij, 10);
            u.push(((i, j), uij));
            let h_slack = {
                // (2 − h_i − h_j)·H as an expression.
                let hi = h_expr(problem, &hd, i);
                let hj = h_expr(problem, &hd, j);
                (LinExpr::constant_term(2.0) - hi - hj) * h_ms
            };
            for k in 0..n {
                // te_i ≤ ts_j + (2−x_ik−x_jk)H + (1−u)H + (2−h_i−h_j)H
                // ⇔ te_i − ts_j + (x_ik+x_jk)H + uH − (2−h_i−h_j)H ≤ 3H.
                let mut e = LinExpr::from(te[i]) - ts[j];
                e.add_term(x[i][k], h_ms);
                e.add_term(x[j][k], h_ms);
                e.add_term(uij, h_ms);
                e -= h_slack.clone();
                model.add_le(format!("no-overlap-a[{i}][{j}][{k}]"), e, 3.0 * h_ms);
                // te_j ≤ ts_i + (2−x_ik−x_jk)H + u·H + (2−h_i−h_j)H
                // ⇔ te_j − ts_i + (x_ik+x_jk)H − uH − (2−h_i−h_j)H ≤ 2H.
                let mut e = LinExpr::from(te[j]) - ts[i];
                e.add_term(x[i][k], h_ms);
                e.add_term(x[j][k], h_ms);
                e.add_term(uij, -h_ms);
                e -= h_slack.clone();
                model.add_le(format!("no-overlap-b[{i}][{j}][{k}]"), e, 2.0 * h_ms);
            }
        }
    }

    // --- Energy --------------------------------------------------------------
    // ω[i][k] = x_ik · E_i with E_i ∈ [0, emax_i].
    let emax: Vec<f64> =
        (0..t_cnt).map(|i| (0..l_cnt).map(|l| ecomp_il(i, l)).fold(0.0, f64::max)).collect();
    let mut omega: Vec<Vec<VarId>> = Vec::with_capacity(t_cnt);
    for i in 0..t_cnt {
        let row: Vec<VarId> = (0..n)
            .map(|k| {
                let v =
                    model.continuous(format!("w[{i}][{k}]"), 0.0, emax[i]).expect("valid bounds");
                model.add_le(
                    format!("w-le-x[{i}][{k}]"),
                    LinExpr::from(v) - LinExpr::term(x[i][k], emax[i]),
                    0.0,
                );
                model.add_le(format!("w-le-E[{i}][{k}]"), LinExpr::from(v) - ecomp_expr(i), 0.0);
                // ω ≥ E_i − emax·(1 − x_ik)  ⇔  ω − E_i − emax·x_ik ≥ −emax.
                model.add_ge(
                    format!("w-ge[{i}][{k}]"),
                    LinExpr::from(v) - ecomp_expr(i) - LinExpr::term(x[i][k], emax[i]),
                    -emax[i],
                );
                v
            })
            .collect();
        omega.push(row);
    }

    // E_k = E_k^comp + E_k^comm as expressions.
    let energy_k = |k: usize| {
        let mut e = LinExpr::new();
        for i in 0..t_cnt {
            e.add_term(omega[i][k], 1.0);
        }
        for (idx, &(_, _, data)) in edges.iter().enumerate() {
            for beta in 0..n {
                for gamma in 0..n {
                    if beta == gamma {
                        continue;
                    }
                    match path_mode {
                        PathMode::Multi => {
                            for rho in PathKind::ALL {
                                let coeff = data * e_bgk(beta, gamma, k, rho);
                                if coeff != 0.0 {
                                    let v = q2[idx][(beta * n + gamma) * 2 + rho.index()]
                                        .expect("multi mode");
                                    e.add_term(v, coeff);
                                }
                            }
                        }
                        PathMode::SingleFixed(kind) => {
                            let coeff = data * e_bgk(beta, gamma, k, kind);
                            if coeff != 0.0 {
                                e.add_term(q[idx][beta * n + gamma], coeff);
                            }
                        }
                    }
                }
            }
        }
        e
    };

    let z = match objective {
        DeployObjective::BalanceEnergy => {
            // Safe upper bound for the epigraph variable.
            let mut zmax: f64 = emax.iter().sum();
            let mut worst_edge = 0.0_f64;
            for beta in 0..n {
                for gamma in 0..n {
                    if beta == gamma {
                        continue;
                    }
                    for rho in PathKind::ALL {
                        worst_edge = worst_edge.max(problem.comm.total_energy_mj(
                            ndp_noc::NodeId(beta),
                            ndp_noc::NodeId(gamma),
                            rho,
                        ));
                    }
                }
            }
            for &(_, _, data) in &edges {
                zmax += data * worst_edge;
            }
            let z = model.continuous("z", 0.0, zmax.max(1.0)).expect("valid bounds");
            for k in 0..n {
                model.add_ge(format!("epigraph[{k}]"), LinExpr::from(z) - energy_k(k), 0.0);
            }
            model.set_objective(Objective::Minimize, LinExpr::from(z));
            Some(z)
        }
        DeployObjective::MinimizeTotalEnergy => {
            let mut total = LinExpr::new();
            for k in 0..n {
                total += energy_k(k);
            }
            model.set_objective(Objective::Minimize, total);
            None
        }
    };

    let n_model_vars = model.num_vars();
    Ok(MilpEncoding {
        model,
        path_mode,
        n_tasks: t_cnt,
        n_procs: n,
        n_levels: l_cnt,
        y,
        hd,
        x,
        c,
        hy,
        g,
        eh_aux,
        q,
        q2,
        omega,
        u,
        ts,
        te,
        z,
        edges,
        deadline_rows,
        n_model_vars,
    })
}

impl MilpEncoding {
    /// Builds the full MILP for `problem`.
    ///
    /// # Errors
    ///
    /// Propagates variable-construction failures from the solver layer
    /// (which cannot occur for the bounds used here, but the signature
    /// stays honest).
    pub fn build(
        problem: &ProblemInstance,
        path_mode: PathMode,
        objective: DeployObjective,
    ) -> Result<MilpEncoding> {
        encode(problem, path_mode, objective)
    }

    /// Number of tasks (originals + duplicates) the encoding covers.
    pub fn num_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Number of processors the encoding covers.
    pub fn num_processors(&self) -> usize {
        self.n_procs
    }

    /// Handle of the allocation binary `x[task][processor]` — used by
    /// re-deployment deltas (e.g. fixing a faulted core's column to 0).
    ///
    /// # Panics
    ///
    /// Panics when `task` or `processor` is out of range.
    pub fn x_var(&self, task: usize, processor: usize) -> VarId {
        self.x[task][processor]
    }

    /// Handle of the `deadline[task]` row — used by re-deployment deltas
    /// to tighten a deadline in place.
    ///
    /// # Panics
    ///
    /// Panics when `task` is out of range.
    pub fn deadline_row(&self, task: usize) -> ConstraintId {
        self.deadline_rows[task]
    }

    /// Reads a solved model back into a [`Deployment`].
    ///
    /// # Panics
    ///
    /// Panics if `sol` has no incumbent (check the status first).
    pub fn extract(&self, problem: &ProblemInstance, sol: &Solution) -> Deployment {
        let m_orig = problem.num_original();
        let n = self.n_procs;
        let mut active = vec![true; self.n_tasks];
        for i in m_orig..self.n_tasks {
            active[i] = sol.value(self.hd[i - m_orig]) > 0.5;
        }
        let pick_max = |vars: &[VarId]| {
            vars.iter()
                .enumerate()
                .max_by(|a, b| {
                    sol.value(*a.1).partial_cmp(&sol.value(*b.1)).expect("finite values")
                })
                .map(|(idx, _)| idx)
                .expect("nonempty")
        };
        let frequency: Vec<LevelId> =
            (0..self.n_tasks).map(|i| LevelId(pick_max(&self.y[i]))).collect();
        let processor: Vec<ProcessorId> =
            (0..self.n_tasks).map(|i| ProcessorId(pick_max(&self.x[i]))).collect();
        let start_ms: Vec<f64> =
            (0..self.n_tasks).map(|i| sol.value(self.ts[i]).max(0.0)).collect();
        let mut paths = match self.path_mode {
            PathMode::Multi => PathChoice::uniform(n, PathKind::EnergyOriented),
            PathMode::SingleFixed(kind) => PathChoice::uniform(n, kind),
        };
        if self.path_mode == PathMode::Multi {
            for beta in 0..n {
                for gamma in 0..n {
                    if beta == gamma {
                        continue;
                    }
                    let e_var = self.c[(beta * n + gamma) * 2].expect("multi mode");
                    let kind = if sol.value(e_var) > 0.5 {
                        PathKind::EnergyOriented
                    } else {
                        PathKind::TimeOriented
                    };
                    paths.set(ProcessorId(beta), ProcessorId(gamma), kind);
                }
            }
        }
        Deployment { active, frequency, processor, start_ms, paths }
    }

    /// Translates a feasible [`Deployment`] (e.g. the heuristic's) into a
    /// full variable assignment usable as a MIP warm start: every auxiliary
    /// product/flow variable is set to the value its constraints force.
    pub fn warm_start_values(&self, problem: &ProblemInstance, d: &Deployment) -> Vec<f64> {
        let m_orig = problem.num_original();
        let n = self.n_procs;
        let mut vals = vec![0.0; self.n_model_vars];
        let active = |i: usize| d.active[i];
        for i in 0..self.n_tasks {
            vals[self.y[i][d.frequency[i].index()].index()] = 1.0;
            vals[self.x[i][d.processor[i].index()].index()] = 1.0;
            vals[self.ts[i].index()] = d.start_ms[i];
            vals[self.te[i].index()] = d.end_ms(problem, TaskId(i));
        }
        for i in 0..m_orig {
            vals[self.hd[i].index()] = if active(i + m_orig) { 1.0 } else { 0.0 };
        }
        if self.path_mode == PathMode::Multi {
            for beta in 0..n {
                for gamma in 0..n {
                    if beta == gamma {
                        continue;
                    }
                    let kind = d.paths.kind(ProcessorId(beta), ProcessorId(gamma));
                    for rho in PathKind::ALL {
                        let v = self.c[(beta * n + gamma) * 2 + rho.index()].expect("multi");
                        vals[v.index()] = if rho == kind { 1.0 } else { 0.0 };
                    }
                }
            }
        }
        // hy for duplicates: active ? y : 0.
        for i in m_orig..self.n_tasks {
            for l in 0..self.n_levels {
                let yv = vals[self.y[i][l].index()];
                vals[self.hy[i][l].index()] = if active(i) { yv } else { 0.0 };
            }
        }
        // g[i][l][l'] = y_il · hy_{copy,l'}.
        for i in 0..m_orig {
            for l in 0..self.n_levels {
                for l2 in 0..self.n_levels {
                    let a = vals[self.y[i][l].index()];
                    let b = vals[self.hy[i + m_orig][l2].index()];
                    vals[self.g[i][l][l2].index()] = a * b;
                }
            }
        }
        // eh / q / q2.
        for (idx, &(p, s, _)) in self.edges.iter().enumerate() {
            let both = active(p.index()) && active(s.index());
            if let Some(v) = self.eh_aux[idx] {
                vals[v.index()] = if both { 1.0 } else { 0.0 };
            }
            if both {
                let beta = d.processor[p.index()].index();
                let gamma = d.processor[s.index()].index();
                vals[self.q[idx][beta * n + gamma].index()] = 1.0;
                if beta != gamma && self.path_mode == PathMode::Multi {
                    let kind = d.paths.kind(ProcessorId(beta), ProcessorId(gamma));
                    let v =
                        self.q2[idx][(beta * n + gamma) * 2 + kind.index()].expect("multi mode");
                    vals[v.index()] = 1.0;
                }
            }
        }
        // ω[i][k] = x_ik · E_i (E_i = 0 when inactive).
        for i in 0..self.n_tasks {
            if active(i) {
                let e = problem.exec_energy_mj(TaskId(i), d.frequency[i]);
                vals[self.omega[i][d.processor[i].index()].index()] = e;
            }
        }
        // u: order colocated pairs by end/start; arbitrary otherwise.
        for &((i, j), v) in &self.u {
            let before = d.end_ms(problem, TaskId(i)) <= d.start_ms[j] + 1e-9;
            vals[v.index()] = if before { 1.0 } else { 0.0 };
        }
        if let Some(z) = self.z {
            vals[z.index()] = d.energy_report(problem).max_mj();
        }
        vals
    }
}
