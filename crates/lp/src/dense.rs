//! Textbook two-phase tableau simplex.
//!
//! This solver exists to *check* the production solver, not to compete with
//! it: it is written for obviousness (full dense tableau, explicit
//! variable-transformation bookkeeping) and is quadratic-to-cubic per pivot,
//! so it is only suitable for small models. Tests cross-validate
//! [`crate::revised::RevisedSimplex`] against it on thousands of random LPs.
//!
//! Model lowering differs from the production path on purpose — bounds are
//! handled by *substitution* (shift / negate / split / explicit rows) rather
//! than natively — so the two solvers share as little code as possible and a
//! bug in one lowering cannot mask the same bug in the other.

#![allow(clippy::needless_range_loop)]

use std::collections::BTreeMap;

use crate::error::LpError;
use crate::model::{Cmp, Model, Sense};
use crate::solution::Solution;

/// Tableau simplex solver (oracle-grade).
#[derive(Debug, Clone)]
pub struct DenseSimplex {
    /// Hard pivot cap (both phases).
    pub max_iterations: usize,
    /// Reduced-cost / feasibility tolerance.
    pub tol: f64,
}

impl Default for DenseSimplex {
    fn default() -> Self {
        DenseSimplex {
            max_iterations: 50_000,
            tol: 1e-9,
        }
    }
}

/// How an original variable maps onto nonnegative tableau variables.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = x' + shift`, `x' >= 0`.
    Shifted { col: usize, shift: f64 },
    /// `x = shift - x'`, `x' >= 0` (upper-bounded, no finite lower bound).
    Negated { col: usize, shift: f64 },
    /// `x = x⁺ − x⁻`, both `>= 0` (free variable).
    Split { pos: usize, neg: usize },
}

/// A lowered constraint row, dense over z-columns.
struct Row {
    coefs: Vec<f64>,
    cmp: Cmp,
    rhs: f64,
}

impl DenseSimplex {
    /// Solve `model` to optimality.
    pub fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        model.validate()?;

        // ---- Lower to: min c'z, A z (<=,>=,=) b, z >= 0 ----
        let mut maps: Vec<VarMap> = Vec::with_capacity(model.vars.len());
        let mut ncols = 0usize;
        let mut c: Vec<f64> = Vec::new();
        let mut obj_const = 0.0;
        let sense_sign = if model.sense == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        // Extra rows for upper bounds of doubly-bounded variables.
        let mut bound_rows: Vec<(usize, f64)> = Vec::new(); // (col, ub - lb)

        for v in &model.vars {
            let obj = sense_sign * v.obj;
            match (v.lb.is_finite(), v.ub.is_finite()) {
                (true, _) => {
                    maps.push(VarMap::Shifted {
                        col: ncols,
                        shift: v.lb,
                    });
                    c.push(obj);
                    obj_const += obj * v.lb;
                    if v.ub.is_finite() {
                        bound_rows.push((ncols, v.ub - v.lb));
                    }
                    ncols += 1;
                }
                (false, true) => {
                    maps.push(VarMap::Negated {
                        col: ncols,
                        shift: v.ub,
                    });
                    c.push(-obj);
                    obj_const += obj * v.ub;
                    ncols += 1;
                }
                (false, false) => {
                    maps.push(VarMap::Split {
                        pos: ncols,
                        neg: ncols + 1,
                    });
                    c.push(obj);
                    c.push(-obj);
                    ncols += 2;
                }
            }
        }

        // Rows: original constraints then bound rows.
        let mut rows: Vec<Row> = Vec::new();
        for con in &model.cons {
            let mut coefs = vec![0.0; ncols];
            let mut rhs = con.rhs;
            for &(vi, a) in &con.terms {
                match maps[vi] {
                    VarMap::Shifted { col, shift } => {
                        coefs[col] += a;
                        rhs -= a * shift;
                    }
                    VarMap::Negated { col, shift } => {
                        coefs[col] -= a;
                        rhs -= a * shift;
                    }
                    VarMap::Split { pos, neg } => {
                        coefs[pos] += a;
                        coefs[neg] -= a;
                    }
                }
            }
            rows.push(Row {
                coefs,
                cmp: con.cmp,
                rhs,
            });
        }
        for &(col, gap) in &bound_rows {
            let mut coefs = vec![0.0; ncols];
            coefs[col] = 1.0;
            rows.push(Row {
                coefs,
                cmp: Cmp::Le,
                rhs: gap,
            });
        }

        // Normalize rhs >= 0.
        for row in &mut rows {
            if row.rhs < 0.0 {
                for a in &mut row.coefs {
                    *a = -*a;
                }
                row.rhs = -row.rhs;
                row.cmp = match row.cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
            }
        }

        // ---- Build tableau with slacks / surplus / artificials ----
        let m = rows.len();
        let n_slack: usize = rows.iter().filter(|r| r.cmp != Cmp::Eq).count();
        let n_art: usize = rows.iter().filter(|r| r.cmp != Cmp::Le).count();
        let total = ncols + n_slack + n_art;
        let width = total + 1; // + rhs column
        let mut t = vec![vec![0.0; width]; m];
        let mut basis = vec![0usize; m];
        let mut art_cols: Vec<usize> = Vec::new();
        // Scale of the row each artificial belongs to, indexed by column,
        // for the per-row relative infeasibility check after phase 1.
        let mut art_row_scale: BTreeMap<usize, f64> = BTreeMap::new();
        let mut next_slack = ncols;
        let mut next_art = ncols + n_slack;
        for (i, row) in rows.iter().enumerate() {
            t[i][..ncols].copy_from_slice(&row.coefs);
            t[i][total] = row.rhs;
            match row.cmp {
                Cmp::Le => {
                    t[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    t[i][next_slack] = -1.0;
                    next_slack += 1;
                    t[i][next_art] = 1.0;
                    basis[i] = next_art;
                    art_cols.push(next_art);
                    art_row_scale.insert(next_art, 1.0 + row.rhs.abs());
                    next_art += 1;
                }
                Cmp::Eq => {
                    t[i][next_art] = 1.0;
                    basis[i] = next_art;
                    art_cols.push(next_art);
                    art_row_scale.insert(next_art, 1.0 + row.rhs.abs());
                    next_art += 1;
                }
            }
        }

        let mut iterations = 0usize;

        // ---- Phase 1 ----
        let mut art_flag = vec![false; total];
        for &j in &art_cols {
            art_flag[j] = true;
        }
        if !art_cols.is_empty() {
            let mut d = vec![0.0; total];
            for &j in &art_cols {
                d[j] = 1.0;
            }
            // No growth guard in phase 1: artificial mass may shuffle
            // between rows while the total strictly decreases.
            let no_guard = vec![false; total];
            self.optimize(
                &mut t,
                &mut basis,
                &d,
                total,
                &mut iterations,
                &[],
                &no_guard,
            )?;
            // Per-row relative residual: each basic artificial's value is
            // its origin row's residual; compare to that row's scale.
            for (i, &b) in basis.iter().enumerate() {
                if let Some(scale) = art_row_scale.get(&b) {
                    if t[i][total] / scale > 1e-7 {
                        return Err(LpError::Infeasible);
                    }
                }
            }
        }

        // ---- Phase 2 (artificials barred from entering and, when still
        // basic at zero, barred from growing back above zero) ----
        let mut c_full = vec![0.0; total];
        c_full[..ncols].copy_from_slice(&c);
        self.optimize(
            &mut t,
            &mut basis,
            &c_full,
            total,
            &mut iterations,
            &art_cols,
            &art_flag,
        )?;

        // ---- Extract ----
        let mut z = vec![0.0; total];
        for (i, &b) in basis.iter().enumerate() {
            z[b] = t[i][total];
        }
        let mut x = vec![0.0; model.vars.len()];
        for (vi, map) in maps.iter().enumerate() {
            x[vi] = match *map {
                VarMap::Shifted { col, shift } => z[col] + shift,
                VarMap::Negated { col, shift } => shift - z[col],
                VarMap::Split { pos, neg } => z[pos] - z[neg],
            };
        }
        let internal: f64 = c_full.iter().zip(&z).map(|(c, z)| c * z).sum::<f64>() + obj_const;
        let external = if model.sense == Sense::Maximize {
            -internal
        } else {
            internal
        };
        // The tableau method does not track duals; report an empty vector.
        Ok(Solution::new(external, x, Vec::new(), iterations))
    }

    /// Run the tableau to optimality for cost vector `d`; returns the
    /// objective value (without constants). `barred` columns may not enter;
    /// columns flagged in `pinned` are additionally not allowed to *grow*
    /// while basic (used to keep phase-1 artificials at zero in phase 2).
    #[allow(clippy::too_many_arguments)]
    fn optimize(
        &self,
        t: &mut [Vec<f64>],
        basis: &mut [usize],
        d: &[f64],
        total: usize,
        iterations: &mut usize,
        barred: &[usize],
        pinned: &[bool],
    ) -> Result<f64, LpError> {
        let m = t.len();
        let mut degenerate_run = 0usize;
        loop {
            if *iterations >= self.max_iterations {
                return Err(LpError::IterationLimit {
                    iterations: *iterations,
                });
            }
            // Reduced costs: r_j = d_j − Σ_i d_{basis i} · t[i][j].
            let bland = degenerate_run > 2 * m + 50;
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..total {
                if barred.contains(&j) || basis.contains(&j) {
                    continue;
                }
                let mut r = d[j];
                for i in 0..m {
                    let db = d[basis[i]];
                    if db != 0.0 {
                        r -= db * t[i][j];
                    }
                }
                if r < -self.tol {
                    if bland {
                        entering = Some((j, r));
                        break;
                    }
                    match entering {
                        Some((_, best)) if best <= r => {}
                        _ => entering = Some((j, r)),
                    }
                }
            }
            let Some((q, _)) = entering else {
                let obj: f64 = (0..m).map(|i| d[basis[i]] * t[i][total]).sum();
                return Ok(obj);
            };

            // Ratio test. A pinned basic variable (phase-1 artificial at
            // zero) must not grow, so a negative column entry forces a
            // degenerate pivot that evicts it.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..m {
                let ratio = if t[i][q] > self.tol {
                    t[i][total] / t[i][q]
                } else if pinned[basis[i]] && t[i][q] < -self.tol {
                    debug_assert!(t[i][total] <= 1e-6, "pinned basic above zero");
                    0.0
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((li, lr)) => {
                        ratio < lr - 1e-12 || (ratio <= lr + 1e-12 && bland && basis[i] < basis[li])
                    }
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
            let Some((r, ratio)) = leave else {
                return Err(LpError::Unbounded);
            };
            if ratio <= 1e-12 {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            // Pivot on (r, q).
            let piv = t[r][q];
            for v in &mut t[r] {
                *v /= piv;
            }
            let pivot: Vec<f64> = t[r].clone();
            for (i, row) in t.iter_mut().enumerate() {
                if i != r && row[q] != 0.0 {
                    let factor = row[q];
                    for (v, pv) in row.iter_mut().zip(&pivot) {
                        *v -= factor * pv;
                    }
                }
            }
            basis[r] = q;
            *iterations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn textbook_maximization() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.objective(), 36.0);
    }

    #[test]
    fn bounded_box_variables() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, -1.0);
        let y = m.add_var("y", 0.0, 1.0, -2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 1.5);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.objective(), -2.5); // y=1, x=0.5
        assert!(m.is_feasible(sol.values(), 1e-7));
    }

    #[test]
    fn shifted_lower_bounds() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 2.0, 10.0, 1.0);
        let y = m.add_var("y", 3.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 7.0);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.objective(), 7.0);
        assert!(m.is_feasible(sol.values(), 1e-7));
    }

    #[test]
    fn negated_upper_only_variable() {
        // x <= 4 with no lower bound; min -x -> x = 4.
        let mut m = Model::minimize();
        let x = m.add_var("x", f64::NEG_INFINITY, 4.0, -1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, -100.0);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.value_of(x), 4.0);
    }

    #[test]
    fn split_free_variable() {
        let mut m = Model::minimize();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, -7.0);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.value_of(x), -7.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(m.solve_dense().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(m.solve_dense().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // -x <= -3  ⇔  x >= 3.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, -1.0)], Cmp::Le, -3.0);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.value_of(x), 3.0);
    }

    #[test]
    fn equality_rows() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.objective(), 14.0);
    }

    #[test]
    fn maximization_with_negative_coeffs() {
        // max -x + 2y, x,y in [0,5], x + y >= 2 -> x=0..? need x+y>=2:
        // best is y=5, x=0 (feasible since 5 >= 2), obj = 10.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 5.0, -1.0);
        let y = m.add_var("y", 0.0, 5.0, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        let sol = m.solve_dense().unwrap();
        assert_close(sol.objective(), 10.0);
    }
}
