//! One solve session per restricted master: column generation's rounds
//! on one live worker.
//!
//! A delayed-column-generation master is solved, priced, grown by the
//! columns that price out, and solved again until nothing prices out.
//! Each re-solve starts from the previous optimum, which the new columns
//! leave primal feasible: they enter nonbasic at a bound, so only primal
//! phase 2 has work to do (Lübbecke & Desrosiers, "Selected Topics in
//! Column Generation", Oper. Res. 2005). A [`Session`] keeps everything
//! that restart needs — the lowered model, the CSR mirror, the basis, its
//! factorization and eta file, the reduced costs — in one
//! [`Worker`](crate::revised), so a round after the first pays for its
//! pivots and no setup:
//!
//! * [`Session::open`] validates and lowers the model, matches a carried
//!   [`WarmStart`] by key, seeds the basis (the carried one, else the slack
//!   basis) and runs the shifted dual walk and its primal finisher
//!   ([`crate::dual`]). A carried basis the walk declines restarts from
//!   the slack basis on the same worker.
//! * [`Session::append_column`] validates a priced column as
//!   [`Model::validate`] would and queues it.
//! * [`Session::resume`] inserts the queued columns after the structurals
//!   and before the slacks, nonbasic at their bound, and runs primal phase
//!   2. It validates no unchanged row, lowers nothing, matches no key and
//!   refactorizes nothing on entry: the factorization and the eta file
//!   index basis positions, which an insertion does not move. The grown
//!   standard form is bitwise the lowering of the grown model.
//! * [`Session::duals`] are the current optimum's multipliers, for pricing.
//! * [`Session::into_solution`] reads out the one [`Solution`], with its
//!   keyed warm start for the next epoch.

use crate::basis::{DeclinedBasis, DualDecline, WarmOutcome, WarmStart};
use crate::clock::Stopwatch;
use crate::dual::{
    match_warm_states, seed_basis, seed_slack_basis, select_leaving, shifted_dual_solve,
};
use crate::error::LpError;
use crate::model::{check_coefficient, check_var, ConstraintId, Model};
use crate::revised::{extract_warm_start, RevisedOptions, Worker};
use crate::solution::{Solution, SolveStats};
use crate::standard::{ColumnBatch, StandardForm};

/// A master LP solved by the dual simplex and re-optimized in place as
/// priced columns arrive. See the [module docs](self).
pub struct Session {
    w: Worker,
    /// Simplex multipliers of the current optimum (internal minimization
    /// sense, like [`Solution::duals`]).
    duals: Vec<f64>,
    /// Columns appended since the last solve, lowered and merged.
    pending: ColumnBatch,
    /// Work of the session's solves; the worker's own counters are added
    /// by [`Session::stats`].
    stats: SolveStats,
    /// Reused `(row, coefficient)` scratch for one appended column.
    bucket: Vec<(usize, f64)>,
}

impl Session {
    /// Solve `model` by the dual simplex from `warm`, exactly as
    /// [`crate::solve_dual_from_basis`] does, and keep the worker.
    ///
    /// An empty or unmatched `warm` starts from the slack basis and reports
    /// [`WarmOutcome::Cold`]. So does a carried basis the walk declines,
    /// at seeding or mid-walk (flip thrash, a singular pivot): its reason
    /// and the pivots it spent land in [`SolveStats::declined`], and the
    /// same worker restarts from the slack basis without lowering the
    /// model again. A walk from the slack basis that fails returns its
    /// error: [`LpError::DualDeclined`] when it thrashes,
    /// [`LpError::Infeasible`] when the dual became unbounded — the model
    /// has no feasible point.
    pub fn open(model: &Model, warm: &WarmStart) -> Result<Session, LpError> {
        let t0 = Stopwatch::start();
        model.validate()?;
        let sf = StandardForm::from_model(model);
        let states = if warm.is_empty() {
            None
        } else {
            match_warm_states(model, &sf, warm)
        };
        let mut w = Worker::new(sf, RevisedOptions::default());
        #[cfg(test)]
        {
            w.work.lowerings += 1;
            w.work.key_matches += usize::from(!warm.is_empty());
        }
        let mut outcome = WarmOutcome::Cold;
        let mut declined = None;
        match states.map(|st| seed_basis(&mut w, &st)) {
            Some(Ok(())) => outcome = WarmOutcome::Dual,
            Some(Err(reason)) => {
                declined = Some(DeclinedBasis { reason, pivots: 0 });
                seed_slack_basis(&mut w)?;
            }
            None => seed_slack_basis(&mut w)?,
        }
        let mut setup_ms = t0.elapsed_ms();
        w.set_phase2_costs();
        let mut walk = shifted_dual_solve(&mut w);
        let reason = match &walk {
            Err(LpError::DualDeclined(d)) => Some(d.reason),
            Err(LpError::SingularBasis) => Some(DualDecline::Singular),
            _ => None,
        };
        if let (WarmOutcome::Dual, Some(reason)) = (outcome, reason) {
            // A carried basis declined mid-walk restarts where one declined
            // at seeding does: the slack basis, on this worker.
            declined = Some(DeclinedBasis {
                reason,
                pivots: w.iterations,
            });
            outcome = WarmOutcome::Cold;
            let t = Stopwatch::start();
            seed_slack_basis(&mut w)?;
            setup_ms += t.elapsed_ms();
            w.set_phase2_costs();
            w.restart_pricing();
            walk = shifted_dual_solve(&mut w);
        }
        let (dual_pivots, bound_flips) = walk?;
        let duals = w.current_duals();
        let stats = SolveStats {
            warm: outcome,
            setup_ms,
            solve_ms: t0.elapsed_ms(),
            dual_pivots,
            bound_flips,
            declined,
            ..SolveStats::default()
        };
        Ok(Session {
            w,
            duals,
            pending: ColumnBatch::default(),
            stats,
            bucket: Vec::new(),
        })
    }

    /// Queue a column for the next [`Session::resume`]: bounds
    /// `[lb, ub]`, objective coefficient `obj` in the model's own sense,
    /// coefficients `terms` in existing rows (a row named twice sums, as in
    /// [`Model::add_keyed_column`]). The column is checked as
    /// [`Model::validate`] checks a variable and its coefficients; a row
    /// the model does not have is [`LpError::UnknownConstraint`]. A
    /// rejected column is not queued.
    ///
    /// The caller appends the same column to its [`Model`], in the same
    /// order, so the model keeps describing the session's LP.
    pub fn append_column(
        &mut self,
        lb: f64,
        ub: f64,
        obj: f64,
        terms: impl IntoIterator<Item = (ConstraintId, f64)>,
    ) -> Result<(), LpError> {
        check_var(self.w.sf.n_structural + self.pending.len(), lb, ub, obj)?;
        let m = self.w.m();
        self.bucket.clear();
        for (c, coef) in terms {
            if c.index() >= m {
                return Err(LpError::UnknownConstraint { row: c.index() });
            }
            check_coefficient(coef)?;
            self.bucket.push((c.index(), coef));
        }
        let sign = if self.w.sf.negated { -1.0 } else { 1.0 };
        self.pending.push(lb, ub, sign * obj, &mut self.bucket);
        Ok(())
    }

    /// Insert the queued columns, nonbasic at their bound, and re-optimize
    /// by primal phase 2 from the current basis, which columns resting at
    /// zero leave primal feasible. (A column resting off zero can push a
    /// basic past its bound; the shifted dual walk then repairs it first,
    /// as [`Session::open`] would.) Nothing is validated, lowered, matched
    /// or refactorized on entry. After an `Err` the session is spent: drop
    /// it.
    pub fn resume(&mut self) -> Result<(), LpError> {
        let t0 = Stopwatch::start();
        self.w.insert_structurals(std::mem::take(&mut self.pending));
        self.stats.setup_ms += t0.elapsed_ms();
        self.w.set_phase2_costs();
        self.w.restart_pricing();
        if select_leaving(&self.w).is_some() {
            let (dual_pivots, bound_flips) = shifted_dual_solve(&mut self.w)?;
            self.stats.dual_pivots += dual_pivots;
            self.stats.bound_flips += bound_flips;
        } else {
            self.w.run()?;
        }
        self.duals = self.w.current_duals();
        self.stats.solve_ms += t0.elapsed_ms();
        Ok(())
    }

    /// Simplex multipliers of the current optimum, one per row, in the
    /// internal minimization sense: price candidate columns with
    /// [`crate::ColumnPricer`].
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Objective of the current optimum, in the model's own sense.
    pub fn objective(&self) -> f64 {
        self.w.sf.external_objective(self.w.objective())
    }

    /// The work of every solve of this session so far.
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            iterations: self.w.iterations,
            refactors: self.w.refactors,
            singular_refactors: self.w.singular_refactors,
            factor_ms: self.w.factor_ms,
            ftran_nnz: self.w.ftran_nnz,
            btran_nnz: self.w.btran_nnz,
            eta_reads: self.w.eta_reads,
            ..self.stats
        }
    }

    /// The current optimum as a [`Solution`] of `model` — the model the
    /// session was opened on with every appended column added in order —
    /// with its keyed warm start.
    pub fn into_solution(self, model: &Model) -> Solution {
        let w = &self.w;
        debug_assert_eq!(model.num_vars(), w.sf.n_structural);
        debug_assert_eq!(model.num_constraints(), w.m());
        let values = w.x[..w.sf.n_structural].to_vec();
        let objective = self.objective();
        let (warm, stats) = (extract_warm_start(model, w), self.stats());
        Solution::new(objective, values, self.duals, w.iterations)
            .with_stats(stats)
            .with_warm_start(warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Sense, VarId};
    use crate::revised::Work;
    use rand::{Rng, SeedableRng};

    /// A random bounded model over `n` candidate columns, of which the
    /// ones `keep` selects are in the model: returns the model and, per
    /// candidate, its `(lb, ub, obj, terms)`. Rows are coverage (`≥`) and
    /// capacity (`≤`) rows that every candidate set keeps feasible.
    #[allow(clippy::type_complexity)]
    fn random_columns(
        seed: u64,
        n: usize,
        rows: usize,
    ) -> (
        Sense,
        Vec<Cmp>,
        Vec<f64>,
        Vec<(f64, f64, f64, Vec<(usize, f64)>)>,
    ) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let sense = if seed.is_multiple_of(3) {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        let cmps: Vec<Cmp> = (0..rows)
            .map(|r| if r % 2 == 0 { Cmp::Ge } else { Cmp::Le })
            .collect();
        let rhs: Vec<f64> = cmps
            .iter()
            .map(|c| match c {
                Cmp::Ge => rng.gen_range(0.1..0.6),
                _ => rng.gen_range(1.0..3.0),
            })
            .collect();
        let cols = (0..n)
            .map(|j| {
                let lb = if j % 7 == 3 { -0.5 } else { 0.0 };
                let obj = match sense {
                    Sense::Minimize => rng.gen_range(0.1..2.0),
                    Sense::Maximize => rng.gen_range(-2.0..-0.1),
                };
                let mut terms: Vec<(usize, f64)> = Vec::new();
                for r in 0..rows {
                    if rng.gen_bool(0.4) {
                        terms.push((r, rng.gen_range(0.2..1.5)));
                    }
                }
                // A repeated row sums, as in the model.
                if let Some(&(r, _)) = terms.first() {
                    terms.push((r, 0.25));
                }
                (lb, 1.0, obj, terms)
            })
            .collect();
        (sense, cmps, rhs, cols)
    }

    /// The rows of `random_columns`, plus one covering column per row so
    /// the seed model is feasible whatever subset it holds.
    fn seed_model(sense: Sense, cmps: &[Cmp], rhs: &[f64]) -> Model {
        let mut m = Model::new(sense);
        let rows: Vec<ConstraintId> = cmps
            .iter()
            .zip(rhs)
            .map(|(&c, &b)| m.add_constraint([], c, b))
            .collect();
        for (r, &row) in rows.iter().enumerate() {
            m.name_constraint(row, format!("r{r}"));
            if cmps[r] == Cmp::Ge {
                let cost = if sense == Sense::Minimize { 5.0 } else { -5.0 };
                m.add_keyed_column(1_000 + r as u64, 0.0, 1.0, cost, [(row, 1.0)]);
            }
        }
        m
    }

    fn add(
        m: &mut Model,
        s: Option<&mut Session>,
        j: usize,
        col: &(f64, f64, f64, Vec<(usize, f64)>),
    ) {
        let (lb, ub, obj, terms) = col;
        let terms: Vec<(ConstraintId, f64)> =
            terms.iter().map(|&(r, v)| (ConstraintId(r), v)).collect();
        m.add_keyed_column(j as u64, *lb, *ub, *obj, terms.iter().copied());
        if let Some(s) = s {
            s.append_column(*lb, *ub, *obj, terms).unwrap();
        }
    }

    fn assert_same_form(a: &StandardForm, b: &StandardForm) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (ap, ar, av) = a.a.raw();
        let (bp, br, bv) = b.a.raw();
        assert_eq!((ap, ar), (bp, br));
        assert_eq!(bits(av), bits(bv));
        assert_eq!(bits(&a.c), bits(&b.c));
        assert_eq!(bits(&a.lb), bits(&b.lb));
        assert_eq!(bits(&a.ub), bits(&b.ub));
        assert_eq!(bits(&a.b), bits(&b.b));
        assert_eq!(a.n_structural, b.n_structural);
    }

    #[test]
    fn resumed_rounds_match_fresh_solves_and_a_fresh_lowering() {
        let mut rounds = 0usize;
        for seed in 0..40u64 {
            let (sense, cmps, rhs, cols) = random_columns(seed, 30, 8);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xabc);
            let mut m = seed_model(sense, &cmps, &rhs);
            let mut order: Vec<usize> = (0..cols.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let (seeded, rest) = order.split_at(10);
            for &j in seeded {
                add(&mut m, None, j, &cols[j]);
            }
            let mut s = Session::open(&m, &WarmStart::new()).unwrap();
            for batch in rest.chunks(7) {
                for &j in batch {
                    add(&mut m, Some(&mut s), j, &cols[j]);
                }
                let before = s.w.work;
                let refactors = s.w.refactors;
                s.w.insert_structurals(std::mem::take(&mut s.pending));
                // Nothing on entry: no lowering, no key match, no
                // refactorization, no BTRAN.
                let after: Work = s.w.work;
                assert_eq!(after.lowerings, before.lowerings);
                assert_eq!(after.key_matches, before.key_matches);
                assert_eq!(after.btrans, before.btrans);
                assert_eq!(s.w.refactors, refactors);
                assert_same_form(&s.w.sf, &StandardForm::from_model(&m));
                s.resume().unwrap();
                let fresh = m.solve().unwrap();
                let got = s.objective();
                assert!(
                    (got - fresh.objective()).abs() <= 1e-9 * (1.0 + fresh.objective().abs()),
                    "seed {seed}: session {got} vs fresh {}",
                    fresh.objective()
                );
                rounds += 1;
            }
            assert_same_form(&s.w.sf, &StandardForm::from_model(&m));
            let sol = s.into_solution(&m);
            assert!(m.is_feasible(sol.values(), 1e-7), "seed {seed}");
            assert_eq!(sol.values().len(), m.num_vars());
            assert_eq!(sol.duals().len(), m.num_constraints());
        }
        assert!(rounds >= 40, "{rounds} rounds");
    }

    #[test]
    fn a_column_that_prices_in_nothing_costs_one_btran() {
        // min x s.t. x + y ≥ 1 with y dear: x is basic. A dear column z
        // appended and resumed: one fresh pricing, no pivot, no refactor.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 2.0, 1.0);
        let y = m.add_var("y", 0.0, 2.0, 3.0);
        let row = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let mut s = Session::open(&m, &WarmStart::new()).unwrap();
        let (btrans, refactors, iterations) = (s.w.work.btrans, s.w.refactors, s.w.iterations);
        m.add_keyed_column(7, 0.0, 1.0, 4.0, [(row, 1.0)]);
        s.append_column(0.0, 1.0, 4.0, [(row, 1.0)]).unwrap();
        s.resume().unwrap();
        // The refresh that prices, then the duals for pricing.
        assert_eq!(s.w.work.btrans - btrans, 2);
        assert_eq!(s.w.refactors, refactors);
        assert_eq!(s.w.iterations, iterations);
        let sol = s.into_solution(&m);
        assert!((sol.objective() - 1.0).abs() < 1e-12);
        assert_eq!(sol.value_of(VarId(2)), 0.0);
    }

    #[test]
    fn a_carried_walk_declined_mid_way_restarts_from_the_slack_basis() {
        // Two disjoint covering rows, Σ x ≥ 280 over 300 boxed columns
        // each. The carried basis keeps both slacks basic (both rows
        // violated) and puts `z`, which costs something and sits in no
        // row, at its upper bound: a wrong-signed reduced cost, shifted.
        // The first dual pivot flips ~279 columns of one row while the
        // other row is still violated, past the thrash guard.
        use crate::basis::{name_key, BasisStatus};
        let mut m = Model::minimize();
        let mut warm = WarmStart::new();
        for r in 0..2u32 {
            let cols: Vec<VarId> = (0..300u32)
                .map(|j| {
                    let name = format!("x{r}_{j}");
                    warm.set_var(name_key(&name), BasisStatus::AtLower);
                    m.add_var(
                        name,
                        0.0,
                        1.0,
                        1.0 + 0.01 * f64::from(j) + 0.5 * f64::from(r),
                    )
                })
                .collect();
            let row = m.add_constraint(cols.iter().map(|&v| (v, 1.0)), Cmp::Ge, 280.0);
            m.name_constraint(row, format!("r{r}"));
            warm.set_row(name_key(&format!("r{r}")), BasisStatus::Basic);
        }
        m.add_var("z", 0.0, 1.0, 1.0);
        warm.set_var(name_key("z"), BasisStatus::AtUpper);

        let s = Session::open(&m, &warm).unwrap();
        let stats = s.stats();
        let declined = stats.declined.expect("the carried walk was declined");
        assert_eq!(declined.reason, DualDecline::Thrash);
        assert!(declined.pivots > 0, "declined at seeding, not mid-walk");
        assert_eq!(stats.warm, WarmOutcome::Cold);
        assert_eq!(s.w.work.lowerings, 1);
        let primal = m.solve().unwrap();
        let got = s.objective();
        assert!(
            (got - primal.objective()).abs() <= 1e-9 * (1.0 + primal.objective().abs()),
            "session {got} vs primal {}",
            primal.objective()
        );
    }

    #[test]
    fn append_column_validates_like_the_model() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let row = m.add_constraint([(x, 1.0)], Cmp::Ge, 0.5);
        let mut s = Session::open(&m, &WarmStart::new()).unwrap();
        assert_eq!(
            s.append_column(0.0, 1.0, f64::NAN, [(row, 1.0)]),
            Err(LpError::NonFiniteInput {
                what: "objective coefficient"
            })
        );
        assert_eq!(
            s.append_column(1.0, 0.0, 1.0, [(row, 1.0)]),
            Err(LpError::InvertedBounds {
                var: 1,
                lb: 1.0,
                ub: 0.0
            })
        );
        assert_eq!(
            s.append_column(0.0, 1.0, 1.0, [(row, f64::INFINITY)]),
            Err(LpError::NonFiniteInput {
                what: "constraint coefficient"
            })
        );
        assert_eq!(
            s.append_column(0.0, 1.0, 1.0, [(ConstraintId(3), 1.0)]),
            Err(LpError::UnknownConstraint { row: 3 })
        );
        // Nothing rejected was queued: the session still solves `m`.
        s.resume().unwrap();
        assert_same_form(&s.w.sf, &StandardForm::from_model(&m));
    }
}
