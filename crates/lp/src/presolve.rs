//! Presolve: cheap model reductions applied before the simplex runs.
//!
//! The scheduling LPs routinely contain structure a solver shouldn't waste
//! pivots on: variables fixed by their bounds (`lb == ub` — e.g. pinned
//! placements), singleton rows (`a·x ≤ b` — pure bound tightenings), empty
//! rows, rows no point of the variable box can violate (redundant capacity
//! on barely-loaded machines), and *dominated columns* — the algebraic form
//! of the paper's Fig-1 dominance argument, where an arc whose cost can
//! only hurt the objective and whose removal cannot tighten any constraint
//! is pinned to a bound outright. Presolve eliminates them and returns a
//! [`Restore`] that maps a reduced solution — values, duals, and warm-start
//! basis — back onto the original model.
//!
//! Two option sets matter in practice: [`PresolveOptions::default`] turns
//! everything on and is right when only primal values are consumed;
//! [`certified_options`] disables singleton-row elimination because a bound
//! tightened out of a row cannot be represented in the restored duals (the
//! dropped row gets multiplier zero, but a tightened bound active at the
//! optimum needs that row's multiplier to certify), and the epoch pipeline
//! KKT-certifies every solve.
//!
//! ```
//! use lips_lp::{Model, Cmp};
//! use lips_lp::presolve::presolve;
//!
//! let mut m = Model::minimize();
//! let x = m.add_var("x", 2.0, 2.0, 5.0);          // fixed
//! let y = m.add_var("y", 0.0, 10.0, 1.0);
//! m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 6.0);
//! let (reduced, restore) = presolve(&m).unwrap();
//! assert_eq!(reduced.num_vars(), 1);              // x substituted out
//! let sol = reduced.solve().unwrap();
//! let full = restore.restore(sol.values());
//! assert!((full[0] - 2.0).abs() < 1e-9);
//! assert!((full[1] - 4.0).abs() < 1e-9);
//! ```

use crate::basis::{positional_row_key, BasisStatus, WarmStart};
use crate::error::LpError;
use crate::model::{Cmp, Model, Sense};
use crate::solution::Solution;
use crate::{ConstraintId, VarId, TOL};

/// Which reductions [`presolve_with`] applies.
#[derive(Debug, Clone, Copy)]
pub struct PresolveOptions {
    /// Turn singleton rows (`a·x cmp b`) into variable bounds and drop
    /// them. Not certification-safe: see [`certified_options`].
    pub singleton_rows: bool,
    /// Drop rows that no point of the variable box can violate (and detect
    /// rows no point can *satisfy* as infeasibility). A dropped row's
    /// restored dual is zero, which is exact: a never-binding row supports
    /// a zero multiplier in any KKT certificate.
    pub redundant_rows: bool,
    /// Fix columns whose objective coefficient pushes them toward a bound
    /// and whose constraint coefficients all push the same way (the Fig-1
    /// dominance calculus in LP form). Fixing is certification-safe: the
    /// sign structure guarantees the column's reduced cost under any dual
    /// feasible multiplier, so the fixed bound is where the optimum puts it
    /// anyway.
    pub dominated_columns: bool,
}

impl Default for PresolveOptions {
    fn default() -> Self {
        PresolveOptions {
            singleton_rows: true,
            redundant_rows: true,
            dominated_columns: true,
        }
    }
}

/// The reductions that compose with KKT certification of the *original*
/// model: everything except singleton-row elimination.
///
/// A singleton row dropped into a variable bound leaves no trace in the
/// restored duals; if the tightened bound is active at the optimum, the
/// original model's stationarity needs a nonzero multiplier on that row,
/// which the zero-filled restoration cannot provide. Redundant rows and
/// dominated columns carry their own zero-/sign-argument certificates.
#[must_use]
pub fn certified_options() -> PresolveOptions {
    PresolveOptions {
        singleton_rows: false,
        redundant_rows: true,
        dominated_columns: true,
    }
}

/// Maps a reduced solution back to the original variable space.
#[derive(Debug, Clone)]
pub struct Restore {
    /// For each original variable: `Ok(reduced index)` if it survived,
    /// `Err(fixed value)` if presolve fixed it.
    mapping: Vec<Result<usize, f64>>,
    /// For each original row: `Some(reduced index)` if it survived, `None`
    /// if presolve dropped it.
    row_mapping: Vec<Option<usize>>,
    /// Objective contribution of the eliminated variables.
    pub objective_offset: f64,
}

impl Restore {
    /// Expand reduced-space values into original-space values.
    pub fn restore(&self, reduced: &[f64]) -> Vec<f64> {
        self.mapping
            .iter()
            .map(|m| match m {
                Ok(idx) => reduced[*idx],
                Err(v) => *v,
            })
            .collect()
    }

    /// Expand reduced-space row duals into original-space duals. Dropped
    /// rows get multiplier zero — exact for redundant rows (never binding)
    /// and for empty rows, approximate for singleton rows whose tightened
    /// bound binds (hence [`certified_options`] keeps those).
    pub fn restore_duals(&self, reduced: &[f64]) -> Vec<f64> {
        self.row_mapping
            .iter()
            .map(|m| m.map_or(0.0, |idx| reduced[idx]))
            .collect()
    }

    /// Number of variables presolve eliminated.
    pub fn eliminated(&self) -> usize {
        self.mapping.iter().filter(|m| m.is_err()).count()
    }

    /// Number of rows presolve dropped (empty, singleton, redundant).
    pub fn dropped_rows(&self) -> usize {
        self.row_mapping.iter().filter(|m| m.is_none()).count()
    }

    /// Total reductions: eliminated variables plus dropped rows.
    pub fn removed(&self) -> usize {
        self.eliminated() + self.dropped_rows()
    }

    /// Project a warm start for the *original* model onto the reduced one:
    /// statuses of eliminated variables and dropped rows are discarded,
    /// positional row keys ([`crate::basis::positional_row_key`]) are
    /// renumbered.
    pub fn map_warm_start(&self, original: &Model, ws: &WarmStart) -> WarmStart {
        let vars = (0..self.mapping.len())
            .filter(|&i| self.mapping[i].is_ok())
            .filter_map(|i| {
                let key = original.var_key(VarId(i));
                ws.var(key).map(|st| (key, st))
            });
        let rows = self.row_mapping.iter().enumerate().filter_map(|(ri, m)| {
            let new_idx = (*m)?;
            let c = ConstraintId(ri);
            let st = ws.row(original.constraint_key(c))?;
            let key = if original.constraint_is_keyed(c) {
                original.constraint_key(c)
            } else {
                positional_row_key(new_idx)
            };
            Some((key, st))
        });
        WarmStart::from_entries(vars, rows)
    }

    /// Lift a warm start produced on the reduced model back to the
    /// original: eliminated variables rest at the bound they were fixed
    /// to, dropped rows' slacks are basic (the rows are slack by
    /// construction), positional row keys are renumbered back.
    pub fn unmap_warm_start(&self, original: &Model, ws: &WarmStart) -> WarmStart {
        let vars = self.mapping.iter().enumerate().filter_map(|(i, m)| {
            let key = original.var_key(VarId(i));
            let st = match m {
                Ok(_) => ws.var(key)?,
                Err(v) => {
                    let (lo, hi) = original.var_bounds(VarId(i));
                    if hi.is_finite() && (v - hi).abs() <= (v - lo).abs() {
                        BasisStatus::AtUpper
                    } else {
                        BasisStatus::AtLower
                    }
                }
            };
            Some((key, st))
        });
        let rows = self.row_mapping.iter().enumerate().filter_map(|(ri, m)| {
            let c = ConstraintId(ri);
            let key = original.constraint_key(c);
            let st = match m {
                Some(new_idx) => {
                    let reduced_key = if original.constraint_is_keyed(c) {
                        key
                    } else {
                        positional_row_key(*new_idx)
                    };
                    ws.row(reduced_key)?
                }
                None => BasisStatus::Basic,
            };
            Some((key, st))
        });
        WarmStart::from_entries(vars, rows)
    }

    /// Lift a full reduced-model [`Solution`] back to the original model:
    /// values and duals expanded, objective offset re-added, solve stats
    /// carried through, and the warm start unmapped so the caller can seed
    /// the next epoch with an original-space basis.
    pub fn restore_solution(&self, original: &Model, sol: &Solution) -> Solution {
        let values = self.restore(sol.values());
        let duals = self.restore_duals(sol.duals());
        let mut out = Solution::new(
            sol.objective() + self.objective_offset,
            values,
            duals,
            sol.iterations(),
        )
        .with_stats(*sol.stats());
        if let Some(ws) = sol.warm_start() {
            out = out.with_warm_start(self.unmap_warm_start(original, ws));
        }
        out
    }
}

/// Apply all presolve reductions (see [`PresolveOptions::default`]).
/// Returns the reduced model plus the restore map, or an error if a
/// reduction proves the model infeasible outright.
pub fn presolve(model: &Model) -> Result<(Model, Restore), LpError> {
    presolve_with(model, PresolveOptions::default())
}

/// Apply the selected presolve reductions.
#[allow(clippy::too_many_lines)] // the passes share working state; splitting obscures the order
pub fn presolve_with(model: &Model, opts: PresolveOptions) -> Result<(Model, Restore), LpError> {
    model.validate()?;
    let n = model.num_vars();

    // Working bounds, tightened by singleton rows and dominance fixing.
    let mut lb: Vec<f64> = (0..n).map(|i| model.var_bounds(VarId(i)).0).collect();
    let mut ub: Vec<f64> = (0..n).map(|i| model.var_bounds(VarId(i)).1).collect();

    // Pass 1: merge duplicate terms, drop empty rows, and (optionally)
    // fold singleton rows into bounds. Merged terms are kept for the later
    // passes.
    let mut keep_row = vec![true; model.cons.len()];
    let mut merged: Vec<Vec<(usize, f64)>> = Vec::with_capacity(model.cons.len());
    for (ri, con) in model.cons.iter().enumerate() {
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for &(v, c) in &con.terms {
            if c == 0.0 {
                continue;
            }
            match terms.iter_mut().find(|(tv, _)| *tv == v) {
                // lips-allow(float-accum-in-loop): duplicate-term merge in the model's fixed term order
                Some((_, tc)) => *tc += c,
                None => terms.push((v, c)),
            }
        }
        terms.retain(|&(_, c)| c != 0.0);
        match terms.len() {
            0 => {
                // Empty row: 0 cmp rhs must hold.
                let ok = match con.cmp {
                    Cmp::Le => 0.0 <= con.rhs + TOL,
                    Cmp::Ge => 0.0 >= con.rhs - TOL,
                    Cmp::Eq => con.rhs.abs() <= TOL,
                };
                if !ok {
                    return Err(LpError::Infeasible);
                }
                keep_row[ri] = false;
            }
            1 if opts.singleton_rows => {
                // Singleton: pure bound information.
                let (v, c) = terms[0];
                let bound = con.rhs / c;
                match (con.cmp, c > 0.0) {
                    (Cmp::Le, true) | (Cmp::Ge, false) => ub[v] = ub[v].min(bound),
                    (Cmp::Ge, true) | (Cmp::Le, false) => lb[v] = lb[v].max(bound),
                    (Cmp::Eq, _) => {
                        lb[v] = lb[v].max(bound);
                        ub[v] = ub[v].min(bound);
                    }
                }
                if lb[v] > ub[v] + TOL {
                    return Err(LpError::Infeasible);
                }
                keep_row[ri] = false;
            }
            _ => {}
        }
        merged.push(terms);
    }

    // Dominance pass: a column whose (minimization-sense) cost is strictly
    // positive, that appears in no equality row, with nonnegative
    // coefficients in every ≤ row and nonpositive in every ≥ row, has
    // reduced cost ≥ its objective cost under *any* dual feasible
    // multiplier (≤ duals are ≤ 0, ≥ duals are ≥ 0) — so every optimum
    // rests it at its lower bound. Symmetrically for strictly negative
    // cost at the upper bound. This is the LP form of the paper's Fig-1
    // arc dominance.
    if opts.dominated_columns {
        #[derive(Clone, Copy, Default)]
        struct ColFacts {
            eq: bool,
            le_pos: bool,
            le_neg: bool,
            ge_pos: bool,
            ge_neg: bool,
        }
        let mut facts = vec![ColFacts::default(); n];
        for (ri, terms) in merged.iter().enumerate() {
            if !keep_row[ri] {
                continue;
            }
            let cmp = model.cons[ri].cmp;
            for &(v, c) in terms {
                let f = &mut facts[v];
                match cmp {
                    Cmp::Eq => f.eq = true,
                    Cmp::Le => {
                        if c > 0.0 {
                            f.le_pos = true;
                        } else {
                            f.le_neg = true;
                        }
                    }
                    Cmp::Ge => {
                        if c > 0.0 {
                            f.ge_pos = true;
                        } else {
                            f.ge_neg = true;
                        }
                    }
                }
            }
        }
        let sense_mul = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for v in 0..n {
            if (ub[v] - lb[v]).abs() <= TOL {
                continue; // already fixed
            }
            let f = facts[v];
            if f.eq {
                continue;
            }
            let chat = sense_mul * model.var_obj(VarId(v));
            if chat > TOL && lb[v].is_finite() && !f.le_neg && !f.ge_pos {
                ub[v] = lb[v];
            } else if chat < -TOL && ub[v].is_finite() && !f.le_pos && !f.ge_neg {
                lb[v] = ub[v];
            }
        }
    }

    // Pass 2: fixed variables (after tightening and dominance fixing).
    let mut mapping: Vec<Result<usize, f64>> = Vec::with_capacity(n);
    let mut objective_offset = 0.0;
    let mut next = 0usize;
    for i in 0..n {
        if (ub[i] - lb[i]).abs() <= TOL && lb[i].is_finite() {
            let v = (lb[i] + ub[i]) / 2.0;
            // lips-allow(float-accum-in-loop): fixed-variable offset summed in ascending index order
            objective_offset += model.var_obj(VarId(i)) * v;
            mapping.push(Err(v));
        } else {
            mapping.push(Ok(next));
            next += 1;
        }
    }

    // Build the reduced model. Variable and row identities (keys and
    // names) are preserved so warm starts resolve across the reduction.
    let mut reduced = Model::new(model.sense());
    reduced.key_names = model.key_names;
    for i in 0..n {
        if mapping[i].is_ok() {
            reduced.add_var_like(model, VarId(i), lb[i], ub[i], model.var_obj(VarId(i)));
        }
    }
    let mut row_mapping: Vec<Option<usize>> = vec![None; model.cons.len()];
    for (ri, con) in model.cons.iter().enumerate() {
        if !keep_row[ri] {
            continue;
        }
        let mut rhs = con.rhs;
        let mut survivors: Vec<(usize, f64)> = Vec::new();
        for &(v, c) in &merged[ri] {
            match mapping[v] {
                Ok(_) => survivors.push((v, c)),
                Err(fixed) => rhs -= c * fixed,
            }
        }
        let rtol = TOL * (1.0 + rhs.abs());
        if survivors.is_empty() {
            let ok = match con.cmp {
                Cmp::Le => 0.0 <= rhs + rtol,
                Cmp::Ge => 0.0 >= rhs - rtol,
                Cmp::Eq => rhs.abs() <= rtol,
            };
            if !ok {
                return Err(LpError::Infeasible);
            }
            continue;
        }
        if opts.redundant_rows {
            // Activity range over the (tightened) variable box. Each
            // term's extreme is finite or the matching infinity, so the
            // sums never mix +∞ and −∞.
            let mut sup = 0.0_f64;
            let mut inf = 0.0_f64;
            for &(v, c) in &survivors {
                if c > 0.0 {
                    // lips-allow(float-accum-in-loop): activity range in the row's fixed term order
                    sup += c * ub[v];
                    // lips-allow(float-accum-in-loop): activity range in the row's fixed term order
                    inf += c * lb[v];
                } else {
                    // lips-allow(float-accum-in-loop): activity range in the row's fixed term order
                    sup += c * lb[v];
                    // lips-allow(float-accum-in-loop): activity range in the row's fixed term order
                    inf += c * ub[v];
                }
            }
            let (impossible, redundant) = match con.cmp {
                Cmp::Le => (inf > rhs + rtol, sup <= rhs + rtol),
                Cmp::Ge => (sup < rhs - rtol, inf >= rhs - rtol),
                Cmp::Eq => (
                    inf > rhs + rtol || sup < rhs - rtol,
                    sup <= rhs + rtol && inf >= rhs - rtol,
                ),
            };
            if impossible {
                return Err(LpError::Infeasible);
            }
            if redundant {
                continue;
            }
        }
        let terms: Vec<(VarId, f64)> = survivors
            .into_iter()
            .map(|(v, c)| {
                let idx = match mapping[v] {
                    Ok(idx) => idx,
                    Err(_) => unreachable!("survivors hold only surviving vars"),
                };
                (VarId(idx), c)
            })
            .collect();
        let id = reduced.add_constraint(terms, con.cmp, rhs);
        reduced.copy_row_identity(id, model, ConstraintId(ri));
        row_mapping[ri] = Some(id.0);
    }

    Ok((
        reduced,
        Restore {
            mapping,
            row_mapping,
            objective_offset,
        },
    ))
}

/// Solve via presolve: reduce, solve, restore. The returned objective is
/// for the *original* model (offset re-added).
pub fn solve_presolved(model: &Model) -> Result<(f64, Vec<f64>), LpError> {
    let (reduced, restore) = presolve(model)?;
    if reduced.num_vars() == 0 {
        // Everything fixed; verify feasibility of the fixed point.
        let full = restore.restore(&[]);
        if !model.is_feasible(&full, 1e-6) {
            return Err(LpError::Infeasible);
        }
        return Ok((model.objective_of(&full), full));
    }
    let sol = reduced.solve()?;
    let full = restore.restore(sol.values());
    Ok((sol.objective() + restore.objective_offset, full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model};

    #[test]
    fn fixed_variables_are_substituted() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 3.0, 3.0, 2.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        let (reduced, restore) = presolve(&m).unwrap();
        assert_eq!(reduced.num_vars(), 1);
        assert_eq!(restore.eliminated(), 1);
        assert_eq!(restore.objective_offset, 6.0);
        let (obj, full) = solve_presolved(&m).unwrap();
        assert!((obj - 8.0).abs() < 1e-6); // x=3 (cost 6) + y=2 (cost 2)
        assert!((full[x.index()] - 3.0).abs() < 1e-9);
        assert!((full[y.index()] - 2.0).abs() < 1e-6);
        assert!(m.is_feasible(&full, 1e-6));
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 100.0, -1.0);
        m.add_constraint([(x, 2.0)], Cmp::Le, 10.0); // x <= 5
        m.add_constraint([(x, -1.0)], Cmp::Le, -2.0); // x >= 2
        let (reduced, restore) = presolve(&m).unwrap();
        assert_eq!(reduced.num_constraints(), 0);
        // Once the rows fold into bounds, the cost −1 column is dominated
        // toward its (tightened) upper bound and fixed there too.
        assert_eq!(reduced.num_vars(), 0);
        assert_eq!(restore.restore(&[]), vec![5.0]);
        let (obj, _) = solve_presolved(&m).unwrap();
        assert!((obj + 5.0).abs() < 1e-6);
    }

    #[test]
    fn certified_options_keep_singleton_rows() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 100.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
        let (reduced, restore) = presolve_with(&m, certified_options()).unwrap();
        assert_eq!(reduced.num_constraints(), 1);
        assert_eq!(restore.dropped_rows(), 0);
    }

    #[test]
    fn empty_rows_checked() {
        let mut m = Model::minimize();
        let _ = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint(Vec::<(crate::VarId, f64)>::new(), Cmp::Le, -1.0);
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn contradictory_singletons_detected() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 8.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 3.0);
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn fixed_substitution_can_empty_a_row_infeasibly() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 2.0, 2.0, 0.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 5.0); // 2 >= 5: impossible
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn duplicate_terms_merged_before_classification() {
        // (x,1)+(x,1) is a singleton row 2x <= 8 -> x <= 4.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 100.0, -1.0);
        m.add_constraint([(x, 1.0), (x, 1.0)], Cmp::Le, 8.0);
        let (reduced, _) = presolve(&m).unwrap();
        assert_eq!(reduced.num_constraints(), 0);
        let (obj, _) = solve_presolved(&m).unwrap();
        assert!((obj + 4.0).abs() < 1e-6);
    }

    #[test]
    fn all_variables_fixed_feasible() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0, 1.0, 3.0);
        let y = m.add_var("y", 2.0, 2.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        let (obj, full) = solve_presolved(&m).unwrap();
        assert_eq!(full, vec![1.0, 2.0]);
        assert!((obj - 5.0).abs() < 1e-12);
    }

    #[test]
    fn all_variables_fixed_infeasible() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0, 1.0, 0.0);
        m.add_constraint([(x, 1.0)], Cmp::Eq, 2.0);
        assert_eq!(solve_presolved(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn redundant_rows_are_dropped() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 5.0); // sup = 2 ≤ 5
        let c = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0); // binding
        m.name_constraint(c, "cover");
        let (reduced, restore) = presolve(&m).unwrap();
        assert_eq!(reduced.num_constraints(), 1);
        assert_eq!(restore.dropped_rows(), 1);
        assert_eq!(reduced.constraint_name(ConstraintId(0)), "cover");
        let duals = restore.restore_duals(&[7.0]);
        assert_eq!(duals, vec![0.0, 7.0]);
    }

    #[test]
    fn impossible_row_activity_is_infeasible() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0); // sup = 2 < 3
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn dominated_column_fixed_at_lower() {
        // min x + y with x only in ≤ rows with positive coefficients:
        // every optimum has x = 0.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 5.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        m.add_constraint([(y, 1.0)], Cmp::Ge, 2.0);
        let (reduced, restore) = presolve_with(&m, certified_options()).unwrap();
        assert_eq!(reduced.num_vars(), 1);
        assert_eq!(restore.eliminated(), 1);
        let sol = reduced.solve().unwrap();
        let full = restore.restore(sol.values());
        assert!((full[x.index()] - 0.0).abs() < 1e-9);
        assert!((full[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dominated_column_fixed_at_upper() {
        // max 3z with z only in a ≥ row with positive coefficient: z = ub.
        let mut m = Model::new(crate::Sense::Maximize);
        let z = m.add_var("z", 0.0, 2.0, 3.0);
        let w = m.add_var("w", 0.0, 1.0, 0.0);
        m.add_constraint([(z, 1.0), (w, 1.0)], Cmp::Ge, 1.0);
        let (reduced, restore) = presolve_with(&m, certified_options()).unwrap();
        assert!(restore.eliminated() >= 1);
        let _ = reduced;
        let full = restore.restore(&vec![0.0; reduced.num_vars()]);
        assert!((full[z.index()] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equality_rows_block_dominance() {
        // x has positive cost but sits in an Eq row: must NOT be fixed.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Eq, 3.0);
        let (reduced, restore) = presolve_with(&m, certified_options()).unwrap();
        assert_eq!(restore.eliminated(), 0);
        assert_eq!(reduced.num_vars(), 1);
    }

    #[test]
    fn warm_start_round_trips_through_reduction() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0); // dominated -> fixed at 0
        let y = m.add_var("y", 0.0, 5.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 9.0); // redundant
        let c = m.add_constraint([(y, 1.0)], Cmp::Ge, 2.0);
        m.name_constraint(c, "floor");
        let (reduced, restore) = presolve_with(&m, certified_options()).unwrap();

        let key = crate::basis::name_key;
        let mut ws = WarmStart::new();
        ws.set_var(key("x"), BasisStatus::AtLower);
        ws.set_var(key("y"), BasisStatus::Basic);
        ws.set_row(positional_row_key(0), BasisStatus::Basic);
        ws.set_row(key("floor"), BasisStatus::AtLower);
        let mapped = restore.map_warm_start(&m, &ws);
        assert_eq!(mapped.var(key("x")), None); // eliminated
        assert_eq!(mapped.var(key("y")), Some(BasisStatus::Basic));
        assert_eq!(mapped.row(key("floor")), Some(BasisStatus::AtLower));

        let sol = reduced.solve_warm(Some(&mapped)).unwrap();
        let restored = restore.restore_solution(&m, &sol);
        assert!((restored.objective() - 2.0).abs() < 1e-6);
        let back = restored.warm_start().unwrap();
        assert_eq!(back.var(key("x")), Some(BasisStatus::AtLower));
        assert_eq!(back.row(positional_row_key(0)), Some(BasisStatus::Basic)); // dropped row
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn presolved_agrees_with_direct_on_random_models() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let mut checked = 0;
        for case in 0..200 {
            let n = rng.gen_range(2..8);
            let mut m = Model::minimize();
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    let lo = rng.gen_range(-2.0..2.0);
                    // 30% of variables are fixed.
                    let hi = if rng.gen_bool(0.3) {
                        lo
                    } else {
                        lo + rng.gen_range(0.0..3.0)
                    };
                    m.add_var(format!("x{i}"), lo, hi, rng.gen_range(-2.0..2.0))
                })
                .collect();
            for _ in 0..rng.gen_range(1..6) {
                let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][rng.gen_range(0..3)];
                // 30% singleton rows.
                let terms: Vec<_> = if rng.gen_bool(0.3) {
                    vec![(vars[rng.gen_range(0..n)], rng.gen_range(-2.0..2.0f64))]
                } else {
                    vars.iter()
                        .map(|&v| (v, rng.gen_range(-2.0..2.0)))
                        .collect()
                };
                m.add_constraint(terms, cmp, rng.gen_range(-4.0..4.0));
            }
            let direct = m.solve();
            let pre = solve_presolved(&m);
            match (direct, pre) {
                (Ok(a), Ok((obj, full))) => {
                    checked += 1;
                    assert!(
                        (a.objective() - obj).abs() / (1.0 + a.objective().abs()) < 1e-5,
                        "case {case}: {} vs {obj}",
                        a.objective()
                    );
                    assert!(m.is_feasible(&full, 1e-5), "case {case}");
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("case {case}: {a:?} vs {b:?}"),
            }
        }
        assert!(checked > 30, "too few feasible cases: {checked}");
    }
}
