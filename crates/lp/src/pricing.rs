//! Column pricing for delayed column generation.
//!
//! A restricted master problem (RMP) carries only a subset of a full
//! model's columns. After the RMP solves to optimality, every *excluded*
//! column must be priced against the master's duals: a column whose
//! reduced cost is negative (in the internal minimization sense) would
//! improve the master and has to be appended ([`crate::Model::add_keyed_column`])
//! before the incumbent can be called optimal for the full model. When no
//! excluded column prices out, the master's optimal basis is optimal for
//! the full model — the excluded columns are nonbasic at their (zero)
//! lower bound with nonnegative reduced cost, which is precisely the dual
//! feasibility condition the KKT certificate checks.
//!
//! All reduced costs here are in the solver's internal minimization sense
//! (the convention of [`crate::Solution::duals`]): `d_j = c_j − yᵀa_j` with `c`
//! negated for `Maximize` models. Under that convention the entering rule
//! is uniform regardless of the model's sense: a column at its lower bound
//! *prices out* (improves the objective) iff `d_j < −tol`.

use crate::model::{ConstraintId, Sense};
use crate::TOL;
use lips_par::Pool;

/// Prices candidate columns against a solved master's duals.
///
/// Borrowing the duals once up front amortizes the sense bookkeeping over
/// the typically thousands of candidate columns priced per round.
#[derive(Debug)]
pub struct ColumnPricer<'a> {
    duals: &'a [f64],
    /// +1 for `Minimize`, −1 for `Maximize` (internal costs are negated).
    sign: f64,
}

impl<'a> ColumnPricer<'a> {
    /// A pricer for a master of the given `sense` whose optimum has the
    /// multipliers `duals`, one per row, in the internal minimization
    /// sense ([`crate::Solution::duals`], [`crate::Session::duals`]).
    pub fn new(sense: Sense, duals: &'a [f64]) -> Self {
        ColumnPricer {
            duals,
            sign: match sense {
                Sense::Minimize => 1.0,
                Sense::Maximize => -1.0,
            },
        }
    }

    /// Reduced cost `c_j − yᵀa_j` of a candidate column, in the internal
    /// minimization sense. `obj` is the column's objective coefficient in
    /// the *model's own* sense; `terms` are its coefficients in the
    /// master's rows (rows not mentioned contribute zero).
    pub fn reduced_cost(&self, obj: f64, terms: &[(ConstraintId, f64)]) -> f64 {
        let mut d = self.sign * obj;
        for &(c, coef) in terms {
            d -= self.duals[c.index()] * coef;
        }
        d
    }

    /// True iff a column held at its lower bound would improve the master:
    /// `reduced_cost < −tol` with the crate default tolerance [`TOL`].
    pub fn prices_out(&self, obj: f64, terms: &[(ConstraintId, f64)]) -> bool {
        self.reduced_cost(obj, terms) < -TOL
    }

    /// Price `n` candidate columns across `pool`'s workers and return the
    /// indices of those that price out, **ascending** — the merge is in
    /// candidate order, so the result is bitwise identical at any thread
    /// count.
    ///
    /// `fill` describes candidate `i`: it writes the column's terms into
    /// the supplied buffer (already cleared) and returns the objective
    /// coefficient. The buffer is per-worker scratch reused across every
    /// candidate that worker prices, so a batch pass performs no per-arc
    /// heap allocation — with [`Pool::serial`] this is also the allocation
    /// discipline of the serial pricing loop.
    pub fn price_out_batch<F>(&self, pool: Pool, n: usize, fill: F) -> Vec<usize>
    where
        F: Fn(usize, &mut Vec<(ConstraintId, f64)>) -> f64 + Sync,
    {
        pool.par_filter_indices_with(n, Vec::new, |buf, i| {
            buf.clear();
            let obj = fill(i, buf);
            self.prices_out(obj, buf)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model};

    /// min 2x + 3y s.t. x + y ≥ 4, x ≤ 3 → x=3, y=1, obj 9.
    /// The excluded column z (cost 1, coefficient 1 in the demand row)
    /// would drop the optimum to 4, so it must price out.
    #[test]
    fn excluded_improving_column_prices_out() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let y = m.add_var("y", 0.0, 10.0, 3.0);
        let demand = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let cap = m.add_constraint([(x, 1.0)], Cmp::Le, 3.0);
        let sol = m.solve().unwrap();
        let pricer = ColumnPricer::new(m.sense(), sol.duals());
        // y is basic at optimality → its reduced cost is ~0; x leans on its
        // upper bound → negative reduced cost, but it is *in* the master.
        assert!(pricer.reduced_cost(3.0, &[(demand, 1.0)]).abs() < 1e-9);
        // The improving excluded column: d = 1 − y_demand = 1 − 3 = −2.
        let d = pricer.reduced_cost(1.0, &[(demand, 1.0)]);
        assert!((d + 2.0).abs() < 1e-9, "d = {d}");
        assert!(pricer.prices_out(1.0, &[(demand, 1.0)]));
        // A dear excluded column must not: d = 5 − 3 = 2.
        assert!(!pricer.prices_out(5.0, &[(demand, 1.0)]));
        // Rows not mentioned contribute nothing.
        let with_cap = pricer.reduced_cost(1.0, &[(demand, 1.0), (cap, 0.0)]);
        assert!((with_cap - d).abs() < 1e-12);
    }

    #[test]
    fn appending_priced_out_column_reaches_full_optimum() {
        // The full colgen contract in miniature: open a session on the
        // restricted master, price, append to the model and the session,
        // resume, price again → nothing left, objective matches the
        // from-scratch full model.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let demand = m.add_constraint([(x, 1.0)], Cmp::Ge, 4.0);
        m.name_constraint(demand, "demand");
        let mut session = crate::Session::open(&m, &crate::WarmStart::new()).unwrap();
        let cand = [(demand, 1.0)];
        assert!(ColumnPricer::new(m.sense(), session.duals()).prices_out(1.0, &cand));
        m.add_keyed_column(crate::name_key("z"), 0.0, 10.0, 1.0, cand);
        session.append_column(0.0, 10.0, 1.0, cand).unwrap();
        session.resume().unwrap();
        let pricer = ColumnPricer::new(m.sense(), session.duals());
        assert!(!pricer.prices_out(1.0, &cand), "column already in master");
        let sol = session.into_solution(&m);
        assert!((sol.objective() - 4.0).abs() < 1e-6);
        assert!((sol.objective() - m.solve().unwrap().objective()).abs() < 1e-9);
    }

    #[test]
    fn maximize_sense_is_handled_internally() {
        // max x s.t. x + y ≤ 5 (y excluded, profit 3): internally costs are
        // negated, so the excluded column's d = −3 − (−1)·1 = −2 < 0.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let cap = m.add_constraint([(x, 1.0)], Cmp::Le, 5.0);
        let sol = m.solve().unwrap();
        let pricer = ColumnPricer::new(m.sense(), sol.duals());
        assert!(pricer.prices_out(3.0, &[(cap, 1.0)]));
        // An excluded column with profit below the row's marginal value
        // must not enter: d = −0.5 + 1 = 0.5 ≥ 0.
        assert!(!pricer.prices_out(0.5, &[(cap, 1.0)]));
    }

    #[test]
    fn batch_pricing_matches_per_column_calls_at_any_width() {
        // A master with several rows and a spread of candidate columns:
        // the batch API must select exactly the candidates the one-by-one
        // API selects, in ascending candidate order, at every pool width.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let y = m.add_var("y", 0.0, 10.0, 3.0);
        let demand = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let cap = m.add_constraint([(x, 1.0)], Cmp::Le, 3.0);
        let sol = m.solve().unwrap();
        let pricer = ColumnPricer::new(m.sense(), sol.duals());
        // Candidate i: cost i/4 dollars, one unit in the demand row, plus a
        // capacity coefficient on every third candidate.
        let describe = |i: usize, buf: &mut Vec<(ConstraintId, f64)>| -> f64 {
            buf.push((demand, 1.0));
            if i.is_multiple_of(3) {
                buf.push((cap, 0.5));
            }
            i as f64 / 4.0
        };
        let n = 500;
        let serial: Vec<usize> = (0..n)
            .filter(|&i| {
                let mut buf = Vec::new();
                let obj = describe(i, &mut buf);
                pricer.prices_out(obj, &buf)
            })
            .collect();
        assert!(!serial.is_empty() && serial.len() < n, "degenerate test");
        for threads in [1, 2, 8] {
            let batch = pricer.price_out_batch(Pool::new(threads), n, |i, buf| describe(i, buf));
            assert_eq!(serial, batch, "threads={threads}");
        }
    }
}
