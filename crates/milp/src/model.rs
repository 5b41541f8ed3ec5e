//! Model-building layer: variables, constraints, objective.
//!
//! A [`Model`] is an in-memory MILP
//! `min/max cᵀx  s.t.  lᵢ ≤ rowᵢ·x ≤ uᵢ, lb ≤ x ≤ ub, xⱼ ∈ ℤ for j ∈ I`.
//! Constraints are expressed with a [`LinExpr`] left-hand side, a
//! [`ConstraintSense`] and a right-hand side.
//!
//! ```
//! use ndp_milp::{Model, LinExpr, ConstraintSense, Objective};
//!
//! // max x + 2y s.t. x + y <= 1, binaries
//! let mut m = Model::new("tiny");
//! let x = m.binary("x");
//! let y = m.binary("y");
//! m.add_constraint("cap", LinExpr::from(x) + y, ConstraintSense::Le, 1.0);
//! m.set_objective(Objective::Maximize, LinExpr::from(x) + LinExpr::from(y) * 2.0);
//! let sol = m.solve()?;
//! assert_eq!(sol.objective_value(), 2.0);
//! # Ok::<(), ndp_milp::MilpError>(())
//! ```

use crate::error::{MilpError, Result};
use crate::expr::LinExpr;
use crate::options::SolverOptions;
use crate::solution::Solution;

/// Handle to a variable in a [`Model`].
///
/// `VarId`s are only meaningful for the model that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The raw column index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VarKind {
    /// Real-valued within its bounds.
    #[default]
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer with implied bounds `[0, 1]`.
    Binary,
}

/// Direction of a constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintSense {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize the objective expression (the default).
    #[default]
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: String,
    pub kind: VarKind,
    pub lb: f64,
    pub ub: f64,
    /// Larger values are branched on earlier. Defaults to 0.
    pub branch_priority: i32,
}

#[derive(Debug, Clone)]
pub(crate) struct RowConstraint {
    pub name: String,
    pub expr: LinExpr,
    pub sense: ConstraintSense,
    pub rhs: f64,
}

/// Handle to a constraint row in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// The raw row index of the constraint.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An in-memory mixed-integer linear program.
///
/// See the module-level documentation for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<Variable>,
    pub(crate) rows: Vec<RowConstraint>,
    pub(crate) objective: LinExpr,
    pub(crate) direction: Objective,
    warm_start: Option<Vec<f64>>,
}

impl Model {
    /// Creates an empty model with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Model { name: name.into(), ..Model::default() }
    }

    /// The model's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Number of integer/binary variables.
    pub fn num_integers(&self) -> usize {
        self.vars.iter().filter(|v| v.kind != VarKind::Continuous).count()
    }

    /// Adds a variable with explicit kind and bounds.
    ///
    /// Non-finite bounds are accepted here; they are clamped to the solver's
    /// working bound, ±1e9, at solve time.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidBounds`] if `lb > ub` or a bound is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lb: f64,
        ub: f64,
    ) -> Result<VarId> {
        let name = name.into();
        if lb.is_nan() || ub.is_nan() || lb > ub {
            return Err(MilpError::InvalidBounds { name, lb, ub });
        }
        let (lb, ub) = match kind {
            VarKind::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        if lb > ub {
            return Err(MilpError::InvalidBounds { name, lb, ub });
        }
        self.vars.push(Variable { name, kind, lb, ub, branch_priority: 0 });
        Ok(VarId(self.vars.len() - 1))
    }

    /// Adds a binary (0/1) variable.
    ///
    /// # Panics
    ///
    /// Never panics: binary bounds are always valid.
    pub fn binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0).expect("binary bounds are valid")
    }

    /// Adds a continuous variable in `[lb, ub]`.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidBounds`] if `lb > ub` or a bound is NaN.
    pub fn continuous(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Result<VarId> {
        self.add_var(name, VarKind::Continuous, lb, ub)
    }

    /// Adds an integer variable in `[lb, ub]`.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidBounds`] if `lb > ub` or a bound is NaN.
    pub fn integer(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> Result<VarId> {
        self.add_var(name, VarKind::Integer, lb, ub)
    }

    /// The `(lb, ub)` bounds of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.0];
        (v.lb, v.ub)
    }

    /// Overwrites the bounds of `var`.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidBounds`] if `lb > ub` or a bound is NaN.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) -> Result<()> {
        if lb.is_nan() || ub.is_nan() || lb > ub {
            return Err(MilpError::InvalidBounds { name: self.vars[var.0].name.clone(), lb, ub });
        }
        self.vars[var.0].lb = lb;
        self.vars[var.0].ub = ub;
        Ok(())
    }

    /// Fixes `var` to a single value.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::InvalidBounds`] if `value` is NaN.
    pub fn fix(&mut self, var: VarId, value: f64) -> Result<()> {
        self.set_bounds(var, value, value)
    }

    /// The diagnostic name of `var`.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// The integrality kind of `var`.
    pub fn var_kind(&self, var: VarId) -> VarKind {
        self.vars[var.0].kind
    }

    /// Sets the branching priority of `var`; higher priorities are branched
    /// on first. The default priority is 0.
    pub fn set_branch_priority(&mut self, var: VarId, priority: i32) {
        self.vars[var.0].branch_priority = priority;
    }

    /// Adds the constraint `expr (sense) rhs` and returns its id.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        sense: ConstraintSense,
        rhs: f64,
    ) -> ConstraintId {
        self.rows.push(RowConstraint { name: name.into(), expr, sense, rhs });
        ConstraintId(self.rows.len() - 1)
    }

    /// Shorthand for `expr ≤ rhs`.
    pub fn add_le(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) -> ConstraintId {
        self.add_constraint(name, expr, ConstraintSense::Le, rhs)
    }

    /// Shorthand for `expr ≥ rhs`.
    pub fn add_ge(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) -> ConstraintId {
        self.add_constraint(name, expr, ConstraintSense::Ge, rhs)
    }

    /// Shorthand for `expr = rhs`.
    pub fn add_eq(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) -> ConstraintId {
        self.add_constraint(name, expr, ConstraintSense::Eq, rhs)
    }

    /// Sets the objective `direction expr`.
    pub fn set_objective(&mut self, direction: Objective, expr: LinExpr) {
        self.direction = direction;
        self.objective = expr;
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The optimization direction.
    pub fn direction(&self) -> Objective {
        self.direction
    }

    /// Supplies a candidate assignment used as the initial incumbent if it is
    /// feasible. Infeasible warm starts are silently ignored at solve time.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::WarmStartLength`] if `values.len()` differs from
    /// [`Model::num_vars`].
    pub fn set_warm_start(&mut self, values: Vec<f64>) -> Result<()> {
        if values.len() != self.vars.len() {
            return Err(MilpError::WarmStartLength {
                got: values.len(),
                expected: self.vars.len(),
            });
        }
        self.warm_start = Some(values);
        Ok(())
    }

    pub(crate) fn warm_start(&self) -> Option<&[f64]> {
        self.warm_start.as_deref()
    }

    pub(crate) fn warm_start_mut(&mut self) -> Option<&mut Vec<f64>> {
        self.warm_start.as_mut()
    }

    /// Checks whether `values` satisfies all bounds, integrality requirements
    /// and constraints within `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if v.kind != VarKind::Continuous && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for row in &self.rows {
            let lhs = row.expr.eval(values);
            let ok = match row.sense {
                ConstraintSense::Le => lhs <= row.rhs + tol,
                ConstraintSense::Ge => lhs >= row.rhs - tol,
                ConstraintSense::Eq => (lhs - row.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Solves the model with default [`SolverOptions`].
    ///
    /// # Errors
    ///
    /// Propagates numerical failures from the simplex; infeasibility and
    /// unboundedness are reported through [`Solution::status`], not as errors.
    pub fn solve(&self) -> Result<Solution> {
        self.solve_with(&SolverOptions::default())
    }

    /// Solves the model with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures from the simplex; infeasibility and
    /// unboundedness are reported through [`Solution::status`], not as errors.
    pub fn solve_with(&self, options: &SolverOptions) -> Result<Solution> {
        crate::branch::solve(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::new("t");
        let b = m.add_var("b", VarKind::Binary, -5.0, 9.0).unwrap();
        assert_eq!(m.bounds(b), (0.0, 1.0));
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut m = Model::new("t");
        assert!(matches!(m.continuous("x", 2.0, 1.0), Err(MilpError::InvalidBounds { .. })));
        assert!(m.continuous("y", f64::NAN, 1.0).is_err());
    }

    #[test]
    fn feasibility_checker_respects_integrality() {
        let mut m = Model::new("t");
        let b = m.binary("b");
        m.add_le("r", LinExpr::from(b), 1.0);
        assert!(m.is_feasible(&[1.0], 1e-9));
        assert!(!m.is_feasible(&[0.5], 1e-9));
        assert!(!m.is_feasible(&[2.0], 1e-9));
    }

    #[test]
    fn warm_start_length_checked() {
        let mut m = Model::new("t");
        m.binary("b");
        assert!(m.set_warm_start(vec![1.0, 2.0]).is_err());
        assert!(m.set_warm_start(vec![1.0]).is_ok());
    }

    #[test]
    fn fix_narrows_bounds() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0).unwrap();
        m.fix(x, 3.5).unwrap();
        assert_eq!(m.bounds(x), (3.5, 3.5));
    }
}
