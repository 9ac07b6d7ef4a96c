//! Lowering of a [`Model`] into computational standard form
//! `min c'x  s.t.  A x = b,  l ≤ x ≤ u`.
//!
//! One slack column is appended per row; the slack's bounds encode the row
//! sense (`≤` → `[0, ∞)`, `≥` → `(-∞, 0]`, `=` → `[0, 0]`). A maximization
//! objective is negated here and un-negated when the solution is assembled,
//! so the solvers only ever minimize.

use crate::model::{Cmp, Model, Sense};
use crate::sparse::{merge_column, splice_exact, CscMatrix};

/// A model lowered to `min c'x, Ax = b, l ≤ x ≤ u`.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Constraint matrix including slack columns (m × (n_structural + m)).
    pub a: CscMatrix,
    /// Right-hand sides (length m).
    pub b: Vec<f64>,
    /// Objective over all columns; slacks have zero cost (length n).
    pub c: Vec<f64>,
    /// Lower bounds (length n), possibly `-∞`.
    pub lb: Vec<f64>,
    /// Upper bounds (length n), possibly `+∞`.
    pub ub: Vec<f64>,
    /// Number of structural (original) variables; columns
    /// `n_structural..n_structural+m` are slacks for rows `0..m`.
    pub n_structural: usize,
    /// `true` if the original model maximized (objective already negated).
    pub negated: bool,
}

impl StandardForm {
    /// Lower `model` into standard form. The model must already have passed
    /// [`Model::validate`].
    pub fn from_model(model: &Model) -> Self {
        let n = model.vars.len();
        let m = model.cons.len();
        let negated = model.sense == Sense::Maximize;
        let sign = if negated { -1.0 } else { 1.0 };

        let mut c: Vec<f64> = model.vars.iter().map(|v| sign * v.obj).collect();
        let mut lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
        let mut ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
        c.resize(n + m, 0.0);

        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = Vec::with_capacity(m);
        for (i, con) in model.cons.iter().enumerate() {
            for &(v, coef) in &con.terms {
                triplets.push((i, v, coef));
            }
            // Slack column for row i.
            triplets.push((i, n + i, 1.0));
            let (slo, shi) = match con.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(slo);
            ub.push(shi);
            b.push(con.rhs);
        }
        let a = CscMatrix::from_triplets(m, n + m, triplets);
        StandardForm {
            a,
            b,
            c,
            lb,
            ub,
            n_structural: n,
            negated,
        }
    }

    /// Insert `batch`'s columns after the structurals, before the slacks.
    /// The result is bitwise the lowering of the model with the batch's
    /// columns appended: same column order, same merged coefficients,
    /// same costs and bounds.
    pub(crate) fn insert_structurals(&mut self, batch: &ColumnBatch) {
        let at = self.n_structural;
        self.a
            .insert_columns(at, &batch.ends, &batch.rows, &batch.vals);
        splice_exact(&mut self.c, at, batch.c.iter().copied());
        splice_exact(&mut self.lb, at, batch.lb.iter().copied());
        splice_exact(&mut self.ub, at, batch.ub.iter().copied());
        self.n_structural += batch.len();
    }

    /// Total number of columns (structural + slack).
    pub fn ncols(&self) -> usize {
        self.a.ncols()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.a.nrows()
    }

    /// Recover the objective value in the original sense from the internal
    /// minimization objective.
    pub fn external_objective(&self, internal: f64) -> f64 {
        if self.negated {
            -internal
        } else {
            internal
        }
    }
}

/// Structural columns queued for [`StandardForm::insert_structurals`],
/// already lowered: costs in the internal minimization sense, entries
/// merged into a CSC fragment.
#[derive(Debug, Default)]
pub(crate) struct ColumnBatch {
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) c: Vec<f64>,
    /// End offset of each column's entries in `rows`/`vals`.
    pub(crate) ends: Vec<usize>,
    pub(crate) rows: Vec<usize>,
    pub(crate) vals: Vec<f64>,
}

impl ColumnBatch {
    /// Number of queued columns.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Queue one column whose `(row, coefficient)` entries are in `bucket`.
    /// [`StandardForm::from_model`] meets a column's entries row by row,
    /// each row's in the order they were given, so a stable sort by row
    /// hands the shared merge the same sequence and the merged column
    /// comes out bitwise the same.
    pub(crate) fn push(&mut self, lb: f64, ub: f64, c: f64, bucket: &mut [(usize, f64)]) {
        bucket.sort_by_key(|&(r, _)| r);
        merge_column(bucket, &mut self.rows, &mut self.vals);
        self.ends.push(self.rows.len());
        self.lb.push(lb);
        self.ub.push(ub);
        self.c.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    #[test]
    fn slack_bounds_encode_row_sense() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 5.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 0.5);
        m.add_constraint([(x, 1.0)], Cmp::Eq, 0.7);
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.nrows(), 3);
        assert_eq!(sf.ncols(), 4); // x + 3 slacks
        assert_eq!(sf.n_structural, 1);
        assert_eq!((sf.lb[1], sf.ub[1]), (0.0, f64::INFINITY)); // Le
        assert_eq!((sf.lb[2], sf.ub[2]), (f64::NEG_INFINITY, 0.0)); // Ge
        assert_eq!((sf.lb[3], sf.ub[3]), (0.0, 0.0)); // Eq
        assert_eq!(sf.b, vec![5.0, 0.5, 0.7]);
    }

    #[test]
    fn maximize_negates_costs() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", 0.0, 1.0, 3.0);
        let sf = StandardForm::from_model(&m);
        assert!(sf.negated);
        assert_eq!(sf.c[0], -3.0);
        assert_eq!(sf.external_objective(-3.0), 3.0);
    }

    #[test]
    fn slack_columns_are_unit() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        let y = m.add_var("y", 0.0, 1.0, 0.0);
        m.add_constraint([(x, 2.0), (y, -1.0)], Cmp::Le, 1.0);
        let sf = StandardForm::from_model(&m);
        let slack_col: Vec<_> = sf.a.col(2).collect();
        assert_eq!(slack_col, vec![(0, 1.0)]);
        assert_eq!(sf.c[2], 0.0);
    }

    #[test]
    fn equality_point_satisfies_ax_eq_b() {
        // x + y = 2, with slack fixed at 0: check A[x,y,s] = b at x=1.5,y=0.5.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 2.0, 1.0);
        let y = m.add_var("y", 0.0, 2.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let sf = StandardForm::from_model(&m);
        let ax = sf.a.mul_dense(&[1.5, 0.5, 0.0]);
        assert!((ax[0] - sf.b[0]).abs() < 1e-12);
    }
}
