//! Problem builder: variables with box bounds, linear constraints, and an
//! objective sense. This is the single entry point both solvers consume.

use std::borrow::Cow;

use crate::basis::{name_key, positional_row_key};
use crate::error::LpError;
use crate::solution::Solution;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// Opaque handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Positional index of the variable inside its model (also the index
    /// into [`Solution::values`]).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild a handle from [`VarId::index`]. The caller is responsible for
    /// pairing it with the model it came from, exactly as with `index()`.
    pub fn from_index(i: usize) -> VarId {
        VarId(i)
    }
}

/// Opaque handle to a model constraint (row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Positional index of the constraint inside its model.
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild a handle from [`ConstraintId::index`].
    pub fn from_index(i: usize) -> ConstraintId {
        ConstraintId(i)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    /// Warm-start identity: the caller's key for keyed columns, else
    /// [`name_key`] of the name.
    pub key: u64,
    /// Diagnostic name; `None` for keyed columns, which store no string.
    pub name: Option<Box<str>>,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    /// Warm-start identity ([`Model::key_constraint`], or [`name_key`] of
    /// a [`Model::name_constraint`] name). `None` rows match positionally;
    /// see [`crate::basis::WarmStart`].
    pub key: Option<u64>,
    /// Diagnostic name, when the row was named rather than keyed.
    pub name: Option<Box<str>>,
    /// (variable index, coefficient) pairs; duplicates are summed when the
    /// model is lowered to matrix form.
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// [`Model::validate`]'s check of variable `var`: a finite objective
/// coefficient and a non-empty box with no NaN bound.
pub(crate) fn check_var(var: usize, lb: f64, ub: f64, obj: f64) -> Result<(), LpError> {
    if !obj.is_finite() {
        return Err(LpError::NonFiniteInput {
            what: "objective coefficient",
        });
    }
    if lb.is_nan() || ub.is_nan() {
        return Err(LpError::NonFiniteInput {
            what: "variable bound",
        });
    }
    // `lb = +inf` / `ub = -inf` make the box empty without tripping the
    // `lb > ub` comparison when the other bound is also infinite.
    if lb == f64::INFINITY || ub == f64::NEG_INFINITY || lb > ub {
        return Err(LpError::InvertedBounds { var, lb, ub });
    }
    Ok(())
}

/// [`Model::validate`]'s check of a constraint coefficient.
pub(crate) fn check_coefficient(coef: f64) -> Result<(), LpError> {
    if coef.is_finite() {
        Ok(())
    } else {
        Err(LpError::NonFiniteInput {
            what: "constraint coefficient",
        })
    }
}

/// Renders the keys of keyed columns and rows for diagnostics
/// ([`Model::var_name`], [`Model::constraint_name`]); set by the model's
/// builder, which alone knows its key layout.
#[derive(Debug, Clone, Copy)]
pub struct KeyNames {
    pub var: fn(u64) -> String,
    pub row: fn(u64) -> String,
}

/// A linear program under construction.
///
/// Variables carry box bounds `[lb, ub]` (either side may be infinite) and an
/// objective coefficient. Constraints are arbitrary sparse linear rows.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) cons: Vec<Constraint>,
    pub(crate) key_names: Option<KeyNames>,
}

impl Model {
    /// Create an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            cons: Vec::new(),
            key_names: None,
        }
    }

    /// Shorthand for `Model::new(Sense::Minimize)`.
    pub fn minimize() -> Self {
        Model::new(Sense::Minimize)
    }

    /// Optimization sense of this model.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a variable with bounds `[lb, ub]` and objective coefficient `obj`.
    ///
    /// Either bound may be `±f64::INFINITY`. Bad data (NaN bounds, non-finite
    /// objective, inverted boxes) is accepted here and rejected by
    /// [`Model::validate`], which every solver runs before touching the model.
    ///
    /// The variable's warm-start key is [`name_key`] of `name`.
    pub fn add_var(&mut self, name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> VarId {
        let name: String = name.into();
        self.push_var(name_key(&name), Some(name.into_boxed_str()), lb, ub, obj)
    }

    /// [`Model::add_var`] for a column identified by an opaque `key`
    /// instead of a name: no string is stored, and warm starts match the
    /// column by `key` alone.
    pub fn add_keyed_var(&mut self, key: u64, lb: f64, ub: f64, obj: f64) -> VarId {
        self.push_var(key, None, lb, ub, obj)
    }

    fn push_var(&mut self, key: u64, name: Option<Box<str>>, lb: f64, ub: f64, obj: f64) -> VarId {
        self.vars.push(Variable {
            key,
            name,
            lb,
            ub,
            obj,
        });
        VarId(self.vars.len() - 1)
    }

    /// Append a full column to a live model: a new variable identified by
    /// the opaque `key` (see [`Model::add_keyed_var`]) together with its
    /// coefficients in *existing* rows. This is the incremental entry
    /// point for delayed column generation — after a restricted master has
    /// been built and solved, columns that price out (see
    /// [`crate::pricing`]) are appended here and, in the same order, to the
    /// master's [`crate::Session`] ([`crate::Session::append_column`]),
    /// which re-optimizes from the incumbent basis; the new column starts
    /// nonbasic at a bound, exactly the state a freshly priced-in column
    /// should have.
    ///
    /// Rows not mentioned get a zero coefficient. Mentioning the same row
    /// twice sums the coefficients (the same convention as duplicate terms
    /// in [`Model::add_constraint`]).
    ///
    /// # Panics
    ///
    /// Panics if a term references a constraint that does not exist yet;
    /// columns can only be appended into rows that are already present.
    pub fn add_keyed_column(
        &mut self,
        key: u64,
        lb: f64,
        ub: f64,
        obj: f64,
        terms: impl IntoIterator<Item = (ConstraintId, f64)>,
    ) -> VarId {
        let v = self.add_keyed_var(key, lb, ub, obj);
        for (c, coef) in terms {
            assert!(
                c.0 < self.cons.len(),
                "add_keyed_column term references unknown constraint {}",
                c.0
            );
            self.cons[c.0].terms.push((v.0, coef));
        }
        v
    }

    /// Add a constraint `Σ coef·var  cmp  rhs`.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        cmp: Cmp,
        rhs: f64,
    ) -> ConstraintId {
        let terms: Vec<(usize, f64)> = terms.into_iter().map(|(v, c)| (v.0, c)).collect();
        self.cons.push(Constraint {
            key: None,
            name: None,
            terms,
            cmp,
            rhs,
        });
        ConstraintId(self.cons.len() - 1)
    }

    /// Name a constraint so its slack's basis status can be matched in a
    /// [`crate::basis::WarmStart`] (by [`name_key`] of the name) even when
    /// the row order changes between model rebuilds. Rows with neither a
    /// name nor a key fall back to positional keys.
    pub fn name_constraint(&mut self, c: ConstraintId, name: impl Into<String>) {
        let name: String = name.into();
        self.cons[c.0].key = Some(name_key(&name));
        self.cons[c.0].name = Some(name.into_boxed_str());
    }

    /// Identify a constraint by an opaque `key` instead of a name (see
    /// [`Model::name_constraint`]); no string is stored.
    pub fn key_constraint(&mut self, c: ConstraintId, key: u64) {
        self.cons[c.0].key = Some(key);
        self.cons[c.0].name = None;
    }

    /// Render keyed columns and rows through `names` in diagnostics.
    pub fn set_key_names(&mut self, names: KeyNames) {
        self.key_names = Some(names);
    }

    /// Name of a constraint, for diagnostics: its name, its rendered key,
    /// or empty if it was never named or keyed.
    pub fn constraint_name(&self, c: ConstraintId) -> Cow<'_, str> {
        let con = &self.cons[c.0];
        match (&con.name, con.key) {
            (Some(name), _) => Cow::Borrowed(name),
            (None, Some(key)) => Cow::Owned(match self.key_names {
                Some(names) => (names.row)(key),
                None => format!("#k{key:016x}"),
            }),
            (None, None) => Cow::Borrowed(""),
        }
    }

    /// Warm-start key of a row: its own key, else its positional key.
    pub fn constraint_key(&self, c: ConstraintId) -> u64 {
        self.cons[c.0]
            .key
            .unwrap_or_else(|| positional_row_key(c.0))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Name of a variable, for diagnostics only: its name, or its key
    /// rendered through [`Model::set_key_names`] (hex without one).
    pub fn var_name(&self, v: VarId) -> Cow<'_, str> {
        let var = &self.vars[v.0];
        match &var.name {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(match self.key_names {
                Some(names) => (names.var)(var.key),
                None => format!("#k{:016x}", var.key),
            }),
        }
    }

    /// Warm-start key of a variable.
    pub fn var_key(&self, v: VarId) -> u64 {
        self.vars[v.0].key
    }

    /// Bounds of a variable.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lb, self.vars[v.0].ub)
    }

    /// Objective coefficient of a variable.
    pub fn var_obj(&self, v: VarId) -> f64 {
        self.vars[v.0].obj
    }

    /// All variable ids, in insertion order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len()).map(VarId)
    }

    /// All constraint ids, in insertion order.
    pub fn constraint_ids(&self) -> impl Iterator<Item = ConstraintId> {
        (0..self.cons.len()).map(ConstraintId)
    }

    /// Terms of a constraint, exactly as added (duplicates not summed).
    pub fn constraint_terms(&self, c: ConstraintId) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.cons[c.0]
            .terms
            .iter()
            .map(|&(v, coef)| (VarId(v), coef))
    }

    /// Comparison operator of a constraint.
    pub fn constraint_cmp(&self, c: ConstraintId) -> Cmp {
        self.cons[c.0].cmp
    }

    /// Right-hand side of a constraint.
    pub fn constraint_rhs(&self, c: ConstraintId) -> f64 {
        self.cons[c.0].rhs
    }

    /// Validate structural sanity: finite objective coefficients, non-NaN
    /// bounds with a non-empty box, finite rhs/coefficients, known variable
    /// ids, non-inverted bounds.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            check_var(i, v.lb, v.ub, v.obj)?;
        }
        for c in &self.cons {
            if !c.rhs.is_finite() {
                return Err(LpError::NonFiniteInput {
                    what: "constraint rhs",
                });
            }
            for &(v, coef) in &c.terms {
                if v >= self.vars.len() {
                    return Err(LpError::UnknownVariable { var: v });
                }
                check_coefficient(coef)?;
            }
        }
        Ok(())
    }

    /// Objective value of an assignment (no feasibility checking).
    pub fn objective_of(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, xi)| v.obj * xi).sum()
    }

    /// Maximum constraint / bound violation of an assignment.
    ///
    /// Returns `0.0` for feasible points; used pervasively in tests to check
    /// solver output against the *original* model rather than any derived
    /// standard form.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for (v, &xi) in self.vars.iter().zip(x) {
            if v.lb.is_finite() {
                worst = worst.max(v.lb - xi);
            }
            if v.ub.is_finite() {
                worst = worst.max(xi - v.ub);
            }
        }
        for c in &self.cons {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v]).sum();
            let viol = match c.cmp {
                Cmp::Le => lhs - c.rhs,
                Cmp::Ge => c.rhs - lhs,
                Cmp::Eq => (lhs - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// True if `x` satisfies every constraint and bound within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.vars.len() && self.max_violation(x) <= tol
    }

    /// Solve with the production solver ([`crate::revised::RevisedSimplex`])
    /// under default options.
    pub fn solve(&self) -> Result<Solution, LpError> {
        crate::revised::RevisedSimplex::default().solve(self)
    }

    /// Solve with the dense tableau oracle (small models only).
    pub fn solve_dense(&self) -> Result<Solution, LpError> {
        crate::dense::DenseSimplex::default().solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_introspect() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 2.5);
        let y = m.add_var("y", -1.0, f64::INFINITY, -1.0);
        let c = m.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Le, 3.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(m.var_bounds(y), (-1.0, f64::INFINITY));
        assert_eq!(m.var_obj(x), 2.5);
        assert_eq!(c.index(), 0);
        assert_eq!(x.index(), 0);
        m.validate().unwrap();
    }

    #[test]
    fn validate_catches_inverted_bounds() {
        let mut m = Model::minimize();
        m.add_var("x", 2.0, 1.0, 0.0);
        assert!(matches!(
            m.validate(),
            Err(LpError::InvertedBounds { var: 0, .. })
        ));
    }

    #[test]
    fn validate_catches_unknown_var() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        let mut m2 = Model::minimize();
        m2.add_constraint([(x, 1.0)], Cmp::Le, 1.0);
        assert!(matches!(
            m2.validate(),
            Err(LpError::UnknownVariable { var: 0 })
        ));
    }

    #[test]
    fn validate_catches_nan_objective() {
        let mut m = Model::minimize();
        m.add_var("x", 0.0, 1.0, f64::NAN);
        assert!(matches!(
            m.validate(),
            Err(LpError::NonFiniteInput {
                what: "objective coefficient"
            })
        ));
        let mut m = Model::minimize();
        m.add_var("x", 0.0, 1.0, f64::INFINITY);
        assert!(matches!(
            m.validate(),
            Err(LpError::NonFiniteInput {
                what: "objective coefficient"
            })
        ));
    }

    #[test]
    fn validate_catches_nan_bounds() {
        let mut m = Model::minimize();
        m.add_var("x", f64::NAN, 1.0, 0.0);
        assert!(matches!(
            m.validate(),
            Err(LpError::NonFiniteInput {
                what: "variable bound"
            })
        ));
        let mut m = Model::minimize();
        m.add_var("x", 0.0, f64::NAN, 0.0);
        assert!(matches!(
            m.validate(),
            Err(LpError::NonFiniteInput {
                what: "variable bound"
            })
        ));
    }

    #[test]
    fn validate_catches_empty_infinite_boxes() {
        // lb = +inf with ub = +inf: no finite point exists, but lb > ub is
        // false, so this needs its own check.
        let mut m = Model::minimize();
        m.add_var("x", f64::INFINITY, f64::INFINITY, 0.0);
        assert!(matches!(
            m.validate(),
            Err(LpError::InvertedBounds { var: 0, .. })
        ));
        let mut m = Model::minimize();
        m.add_var("x", f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0);
        assert!(matches!(
            m.validate(),
            Err(LpError::InvertedBounds { var: 0, .. })
        ));
    }

    #[test]
    fn solve_rejects_invalid_models_instead_of_panicking() {
        let mut m = Model::minimize();
        m.add_var("x", 0.0, 1.0, f64::NAN);
        assert!(matches!(m.solve(), Err(LpError::NonFiniteInput { .. })));
    }

    #[test]
    fn row_accessors_expose_constraints() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        let c = m.add_constraint([(x, 2.0), (y, -1.0)], Cmp::Ge, 0.5);
        assert_eq!(m.constraint_ids().count(), 1);
        assert_eq!(m.var_ids().collect::<Vec<_>>(), vec![x, y]);
        assert_eq!(m.constraint_cmp(c), Cmp::Ge);
        assert_eq!(m.constraint_rhs(c), 0.5);
        assert_eq!(
            m.constraint_terms(c).collect::<Vec<_>>(),
            vec![(x, 2.0), (y, -1.0)]
        );
    }

    #[test]
    fn constraint_names_roundtrip() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let c0 = m.add_constraint([(x, 1.0)], Cmp::Le, 1.0);
        let c1 = m.add_constraint([(x, 1.0)], Cmp::Ge, 0.0);
        assert_eq!(m.constraint_name(c0), "");
        m.name_constraint(c0, "cap_row");
        assert_eq!(m.constraint_name(c0), "cap_row");
        assert_eq!(m.constraint_name(c1), "");
        assert_eq!(m.constraint_key(c0), name_key("cap_row"));
        assert_eq!(m.constraint_key(c1), positional_row_key(1));
    }

    #[test]
    fn keyed_columns_and_rows_store_no_name() {
        let mut m = Model::minimize();
        let x = m.add_keyed_var(42, 0.0, 1.0, 1.0);
        let c = m.add_constraint([(x, 1.0)], Cmp::Ge, 0.5);
        m.key_constraint(c, 7);
        let y = m.add_keyed_column(43, 0.0, 1.0, 2.0, [(c, 1.0)]);
        assert_eq!(m.var_key(x), 42);
        assert_eq!(m.var_key(y), 43);
        assert_eq!(m.constraint_key(c), 7);
        assert!(m.vars.iter().all(|v| v.name.is_none()));
        assert!(m.cons[0].name.is_none());
        // Diagnostics render the raw key until the builder says how.
        assert_eq!(m.var_name(x), "#k000000000000002a");
        m.set_key_names(KeyNames {
            var: |k| format!("col{k}"),
            row: |k| format!("row{k}"),
        });
        assert_eq!(m.var_name(y), "col43");
        assert_eq!(m.constraint_name(c), "row7");
        assert!((m.solve().unwrap().objective() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_nonfinite_rhs() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, f64::INFINITY);
        assert!(matches!(m.validate(), Err(LpError::NonFiniteInput { .. })));
    }

    #[test]
    fn violation_measures_all_constraint_kinds() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 0.5);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 0.2);
        m.add_constraint([(x, 2.0)], Cmp::Eq, 0.6);
        assert!(m.is_feasible(&[0.3], 1e-9));
        assert!(!m.is_feasible(&[0.8], 1e-9)); // violates Le and Eq
        assert!((m.max_violation(&[0.8]) - 1.0).abs() < 1e-12); // |1.6-0.6| = 1.0
    }

    #[test]
    fn objective_of_sums_terms() {
        let mut m = Model::minimize();
        m.add_var("x", 0.0, 1.0, 3.0);
        m.add_var("y", 0.0, 1.0, -2.0);
        assert!((m.objective_of(&[1.0, 0.5]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_column_appends_into_existing_rows() {
        // min 3x s.t. x ≥ 2 → 6; appending y (cost 1, same row) → y=2, obj 2.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 3.0);
        let c = m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
        assert!((m.solve().unwrap().objective() - 6.0).abs() < 1e-6);
        let y = m.add_keyed_column(name_key("y"), 0.0, 10.0, 1.0, [(c, 1.0)]);
        m.validate().unwrap();
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 2.0).abs() < 1e-6);
        assert!((sol.value_of(y) - 2.0).abs() < 1e-6);
        assert!(sol.value_of(x).abs() < 1e-6);
        assert_eq!(m.num_vars(), 2);
    }

    #[test]
    fn add_column_then_warm_resolve_matches_cold() {
        // The appended column must survive a dual re-solve from the
        // incumbent basis (it starts nonbasic at its lower bound).
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let r0 = m.add_constraint([(x, 1.0)], Cmp::Ge, 4.0);
        let r1 = m.add_constraint([(x, 1.0)], Cmp::Le, 8.0);
        m.name_constraint(r0, "demand");
        m.name_constraint(r1, "cap");
        let sol = m.solve().unwrap();
        let basis = sol.warm_start().cloned().unwrap();
        m.add_keyed_column(name_key("y"), 0.0, 10.0, 1.0, [(r0, 1.0), (r1, 1.0)]);
        let warm = crate::dual::solve_dual_from_basis(&m, &basis).unwrap();
        assert_eq!(warm.stats().warm, crate::basis::WarmOutcome::Dual);
        let cold = m.solve().unwrap();
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
        assert!((warm.objective() - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "unknown constraint")]
    fn add_column_rejects_unknown_rows() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 1.0);
        m.add_keyed_column(name_key("y"), 0.0, 1.0, 0.0, [(ConstraintId(3), 1.0)]);
    }

    #[test]
    fn duplicate_terms_allowed_in_builder() {
        // duplicates must be summed at lowering time, so feasibility checks
        // must treat (x,1.0),(x,1.0) as 2x.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0), (x, 1.0)], Cmp::Ge, 4.0);
        let sol = m.solve().unwrap();
        assert!((sol.value_of(x) - 2.0).abs() < 1e-6);
    }
}
