//! Optimality certificates: given a [`Model`] and a claimed-optimal
//! [`Solution`], independently recompute primal feasibility, dual
//! feasibility, complementary slackness, and the duality gap — the
//! textbook KKT conditions for a bounded-variable LP — without re-running
//! the solver.
//!
//! All dual arithmetic happens in the solver's *internal minimization
//! sense* (the convention of [`Solution::duals`]): a `Maximize` model's
//! costs are negated, exactly as `lips_lp::sensitivity` does. With
//! internal costs `c`, duals `y`, and reduced costs `d = c − yᵀA`:
//!
//! * dual feasibility: `y_i ≥ 0` on `Ge` rows, `y_i ≤ 0` on `Le` rows,
//!   free on `Eq`; `d_j ≥ 0` where `ub_j = ∞`, `d_j ≤ 0` where
//!   `lb_j = −∞`;
//! * the dual objective is `bᵀy + Σ_j ([d_j]⁺·lb_j + [d_j]⁻·ub_j)`;
//! * complementary slackness: `y_i·(a_iᵀx − b_i) = 0` per row,
//!   `[d_j]⁺·(x_j − lb_j) = 0` and `[d_j]⁻·(ub_j − x_j) = 0` per column.
//!
//! Weak duality makes the certificate sound: any dual-feasible `y` bounds
//! the optimum, so a feasible `x` whose gap to `bᵀy + …` is ~0 is optimal
//! regardless of how the solver found it.

use lips_lp::{Cmp, ConstraintId, Model, Sense, Solution};

/// Relative tolerance for the duality gap and slackness tests
/// (acceptance: gap ≤ `GAP_RTOL · (1 + |objective|)`).
pub const GAP_RTOL: f64 = 1e-6;

/// Absolute tolerance for primal/dual feasibility residuals, scaled by
/// problem magnitudes.
pub const FEAS_RTOL: f64 = 1e-6;

/// Why a certificate could not be computed at all (as opposed to computed
/// and failed — that is a non-[`Certificate::is_optimal`] report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// The solution carries no (or wrong-arity) dual values — e.g. the
    /// dense tableau oracle, which reports an empty dual vector.
    MissingDuals { expected: usize, got: usize },
    /// Primal value vector length does not match the model.
    DimensionMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::MissingDuals { expected, got } => write!(
                f,
                "solution has {got} dual values but the model has {expected} rows; \
                 cannot certify (dense-solver solutions carry no duals)"
            ),
            CertifyError::DimensionMismatch { expected, got } => write!(
                f,
                "solution has {got} primal values but the model has {expected} variables"
            ),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Independent optimality report for one (model, solution) pair.
///
/// All `max_*` fields are violations normalized by the relevant problem
/// scale, so `is_optimal` compares each against a single relative
/// tolerance.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Objective recomputed from the primal values, in the model's own
    /// sense (matches [`Solution::objective`] when the solver is honest).
    pub primal_objective: f64,
    /// Dual objective in the model's own sense.
    pub dual_objective: f64,
    /// `|primal − dual|` in the internal minimization sense.
    pub duality_gap: f64,
    /// Worst primal constraint/bound violation (raw units).
    pub max_primal_violation: f64,
    /// Worst dual-sign violation, normalized by the largest |cost|.
    pub max_dual_violation: f64,
    /// Worst complementary-slackness product, normalized by
    /// `1 + |primal objective|`.
    pub max_slackness_violation: f64,
    /// `|sol.objective() − recomputed objective|`, a solver-honesty check.
    pub objective_mismatch: f64,
    /// Scale used for the primal feasibility test: `1 + max |rhs|`.
    pub primal_scale: f64,
    /// Scale used for the gap test: `1 + |primal objective|` (internal).
    pub gap_scale: f64,
}

impl Certificate {
    /// True when every KKT condition holds within tolerance: the solution
    /// is optimal (weak duality), not merely claimed so.
    pub fn is_optimal(&self) -> bool {
        self.max_primal_violation <= FEAS_RTOL * self.primal_scale
            && self.max_dual_violation <= FEAS_RTOL
            && self.max_slackness_violation <= GAP_RTOL
            && self.duality_gap <= GAP_RTOL * self.gap_scale
            && self.objective_mismatch <= GAP_RTOL * self.gap_scale
    }

    /// Human-readable list of every failed condition (empty iff
    /// [`Certificate::is_optimal`]).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.max_primal_violation > FEAS_RTOL * self.primal_scale {
            out.push(format!(
                "primal infeasible: violation {:.3e} > {:.3e}",
                self.max_primal_violation,
                FEAS_RTOL * self.primal_scale
            ));
        }
        if self.max_dual_violation > FEAS_RTOL {
            out.push(format!(
                "dual infeasible: normalized sign violation {:.3e} > {FEAS_RTOL:.3e}",
                self.max_dual_violation
            ));
        }
        if self.max_slackness_violation > GAP_RTOL {
            out.push(format!(
                "complementary slackness violated: normalized product {:.3e} > {GAP_RTOL:.3e}",
                self.max_slackness_violation
            ));
        }
        if self.duality_gap > GAP_RTOL * self.gap_scale {
            out.push(format!(
                "duality gap {:.3e} > {:.3e} (primal {:.6}, dual {:.6})",
                self.duality_gap,
                GAP_RTOL * self.gap_scale,
                self.primal_objective,
                self.dual_objective
            ));
        }
        if self.objective_mismatch > GAP_RTOL * self.gap_scale {
            out.push(format!(
                "reported objective disagrees with recomputation by {:.3e}",
                self.objective_mismatch
            ));
        }
        out
    }
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_optimal() {
            write!(
                f,
                "OPTIMAL: objective {:.6}, duality gap {:.3e}, worst primal \
                 violation {:.3e}",
                self.primal_objective, self.duality_gap, self.max_primal_violation
            )
        } else {
            write!(f, "NOT CERTIFIED: {}", self.failures().join("; "))
        }
    }
}

/// Verify `sol` against `model`, recomputing everything from scratch.
///
/// Fails with [`CertifyError`] only when the inputs are structurally
/// unusable (no duals, wrong arity); a *wrong* solution yields an `Ok`
/// certificate whose [`Certificate::is_optimal`] is false and whose
/// [`Certificate::failures`] explain why.
///
/// One pass over the rows, then one over the columns, each summing in
/// index order, so every residual and every sum has one summation order.
pub fn certify(model: &Model, sol: &Solution) -> Result<Certificate, CertifyError> {
    let n = model.num_vars();
    let m = model.num_constraints();
    let x = sol.values();
    let y = sol.duals();
    if x.len() != n {
        return Err(CertifyError::DimensionMismatch {
            expected: n,
            got: x.len(),
        });
    }
    if y.len() != m {
        return Err(CertifyError::MissingDuals {
            expected: m,
            got: y.len(),
        });
    }

    // Internal minimization sense (the duals' convention).
    let sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    // --- scales (serial: two cheap O(m+n) scans) ------------------------
    let primal_objective = model.objective_of(x);
    let p_int = sign * primal_objective;
    let objective_mismatch = (sol.objective() - primal_objective).abs();

    let mut max_rhs = 0.0f64;
    let mut max_cost = 0.0f64;
    for c in model.constraint_ids() {
        max_rhs = max_rhs.max(model.constraint_rhs(c).abs());
    }
    for v in model.var_ids() {
        max_cost = max_cost.max(model.var_obj(v).abs());
    }
    let primal_scale = 1.0 + max_rhs;
    let gap_scale = 1.0 + p_int.abs();
    let cost_scale = 1.0 + max_cost;

    // The largest raw primal, dual-sign and slackness violations, kept raw
    // and normalized once at the end (same value: division by a positive
    // scale commutes with max), and the dual objective.
    let mut max_primal = 0.0f64;
    let mut max_sign = 0.0f64;
    let mut max_slack = 0.0f64;
    let mut dual_obj = 0.0;

    // --- row pass -------------------------------------------------------
    // Primal residuals, dual sign violations, row slackness products and
    // `bᵀy`; every row also subtracts its `y_i·a_ij` products from the
    // reduced costs, in row order.
    let mut reduced: Vec<f64> = model.var_ids().map(|v| sign * model.var_obj(v)).collect();
    for c in model.constraint_ids() {
        let yi = y[c.index()];
        let mut lhs = 0.0;
        for (v, coef) in model.constraint_terms(c) {
            reduced[v.index()] -= yi * coef;
            lhs += coef * x[v.index()];
        }
        let rhs = model.constraint_rhs(c);
        // Sign condition per row type (internal minimize: Ge rows carry
        // y ≥ 0, Le rows y ≤ 0, Eq free), and the primal residual of the
        // same row (the row half of `Model::max_violation`).
        let (sign_violation, primal_violation) = match model.constraint_cmp(c) {
            Cmp::Ge => ((-yi).max(0.0), rhs - lhs),
            Cmp::Le => (yi.max(0.0), lhs - rhs),
            Cmp::Eq => (0.0, (lhs - rhs).abs()),
        };
        max_primal = max_primal.max(primal_violation);
        max_sign = max_sign.max(sign_violation);
        // Row complementary slackness: y_i · (a_iᵀx − b_i) ≈ 0.
        max_slack = max_slack.max((yi * (lhs - rhs)).abs());
        dual_obj += yi * rhs;
    }

    // --- column pass ----------------------------------------------------
    // Needs every row's reduced-cost update, so it runs strictly after
    // the row pass.
    for v in model.var_ids() {
        let d = reduced[v.index()];
        let (lb, ub) = model.var_bounds(v);
        let xv = x[v.index()];
        // Bound half of `Model::max_violation`.
        if lb.is_finite() {
            max_primal = max_primal.max(lb - xv);
        }
        if ub.is_finite() {
            max_primal = max_primal.max(xv - ub);
        }
        // Bound-side dual feasibility: a positive reduced cost needs a
        // finite lower bound to lean on, a negative one a finite upper.
        if lb == f64::NEG_INFINITY {
            max_sign = max_sign.max(d.max(0.0));
        }
        if ub == f64::INFINITY {
            max_sign = max_sign.max((-d).max(0.0));
        }
        // Column complementary slackness and the bound terms of the dual
        // objective. Products with an infinite bound are skipped: their
        // reduced-cost side is already charged as a dual violation above.
        if d > 0.0 && lb.is_finite() {
            max_slack = max_slack.max((d * (xv - lb)).abs());
            dual_obj += d * lb;
        }
        if d < 0.0 && ub.is_finite() {
            max_slack = max_slack.max((d * (ub - xv)).abs());
            dual_obj += d * ub;
        }
    }

    Ok(Certificate {
        primal_objective,
        dual_objective: sign * dual_obj,
        duality_gap: (p_int - dual_obj).abs(),
        max_primal_violation: max_primal,
        max_dual_violation: max_sign / cost_scale,
        max_slackness_violation: max_slack / gap_scale,
        objective_mismatch,
        primal_scale,
        gap_scale,
    })
}

/// KKT certificate for a restricted master claimed optimal for its *full*
/// model: the master's own [`Certificate`] plus a pricing pass over every
/// excluded column.
///
/// Soundness: extend the master's optimal solution with zeros for the
/// excluded columns. Primal feasibility and complementary slackness carry
/// over unchanged (a zero column contributes nothing to any row and sits
/// on its lower bound), and the dual objective is unchanged (no `[d]⁺·lb`
/// term for `lb = 0`). The only new KKT condition is dual feasibility of
/// the excluded columns — reduced cost ≥ 0 within tolerance — which is
/// exactly what [`RestrictedCertificate::max_excluded_violation`] measures.
/// A master whose excluded columns were never priced to nonnegativity
/// therefore *cannot* pass [`RestrictedCertificate::is_optimal`].
#[derive(Debug, Clone)]
pub struct RestrictedCertificate {
    /// The master's own KKT report.
    pub master: Certificate,
    /// Worst negative reduced cost among excluded columns, normalized by
    /// `1 + max |cost|` over master and excluded columns (the same scale
    /// as the master's dual-feasibility test). 0 when nothing prices out.
    pub max_excluded_violation: f64,
    /// Key of the worst offending column (None when nothing prices out).
    pub worst_excluded: Option<u64>,
    /// Number of excluded columns priced.
    pub excluded_priced: usize,
}

impl RestrictedCertificate {
    /// True when the master certifies *and* no excluded column prices out:
    /// the master's solution, zero-extended, is optimal for the full model.
    pub fn is_optimal(&self) -> bool {
        self.master.is_optimal() && self.max_excluded_violation <= FEAS_RTOL
    }

    /// Human-readable list of every failed condition.
    pub fn failures(&self) -> Vec<String> {
        let mut out = self.master.failures();
        if self.max_excluded_violation > FEAS_RTOL {
            out.push(format!(
                "excluded column {} prices out: normalized reduced cost -{:.3e} < -{FEAS_RTOL:.3e}",
                self.worst_excluded
                    .map_or_else(|| "?".to_string(), |k| format!("#k{k:016x}")),
                self.max_excluded_violation
            ));
        }
        out
    }
}

impl std::fmt::Display for RestrictedCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_optimal() {
            write!(
                f,
                "OPTIMAL (full model): {} excluded columns priced, worst reduced-cost \
                 violation {:.3e}; master {}",
                self.excluded_priced, self.max_excluded_violation, self.master
            )
        } else {
            write!(f, "NOT CERTIFIED: {}", self.failures().join("; "))
        }
    }
}

/// The pricing pass over the excluded columns priced so far: the largest
/// raw reduced-cost violation `max(0, −d_j)` and the key of the first
/// column attaining it, the largest violation before that column, and the
/// largest `|obj|`.
#[derive(Debug, Clone, Copy, Default)]
struct Priced {
    worst: f64,
    worst_key: Option<u64>,
    before_worst: f64,
    max_obj: f64,
}

impl Priced {
    /// Extend the pass by the next column: its key, raw violation and
    /// objective coefficient.
    fn push(&mut self, key: u64, viol: f64, obj: f64) {
        self.max_obj = self.max_obj.max(obj.abs());
        if viol > self.worst {
            self.before_worst = self.worst;
            self.worst = viol;
            self.worst_key = Some(key);
        }
    }
}

/// The raw reduced-cost violation `max(0, −d)` of one excluded column, `d
/// = sign·obj − Σ y_i·a_ij` summed in `terms` order.
fn raw_violation(
    y: &[f64],
    sign: f64,
    obj: f64,
    terms: &[(ConstraintId, f64)],
) -> Result<f64, usize> {
    let mut d = sign * obj;
    for &(c, coef) in terms {
        let i = c.index();
        let yi = y.get(i).ok_or(i)?;
        d -= yi * coef;
    }
    Ok((-d).max(0.0))
}

/// Verify a restricted master against its full model without ever building
/// the full model: certify the master's solution as usual, then price every
/// excluded column against the master's duals.
///
/// An excluded column is a variable held at value 0 (its lower bound): the
/// master simply never materialized it. `column` describes one: it writes
/// the column's coefficients in the master's rows, by [`ConstraintId`], to
/// the buffer it is handed (empty on every call; rows it does not touch
/// contribute zero) and returns the column's key (see
/// [`lips_lp::Model::add_keyed_var`], reported back in
/// [`RestrictedCertificate::worst_excluded`]) and its objective
/// coefficient in the model's own sense. The columns are re-derived from
/// the caller's `excluded` items as they are priced, into one reused
/// buffer, so pricing allocates nothing per column.
///
/// The pricing folds the columns in order with a strictly-greater
/// comparison, so ties resolve to the earliest column.
///
/// A *wrong* claim (master not optimal, or an excluded column with negative
/// reduced cost) yields an `Ok` certificate whose
/// [`RestrictedCertificate::is_optimal`] is false; `Err` is reserved for
/// structurally unusable inputs, as with [`certify`].
pub fn certify_restricted_with<T>(
    master: &Model,
    sol: &Solution,
    excluded: &[T],
    mut column: impl FnMut(&T, &mut Vec<(ConstraintId, f64)>) -> (u64, f64),
) -> Result<RestrictedCertificate, CertifyError> {
    let cert = certify(master, sol)?;
    let y = sol.duals();
    let sign = match master.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let out_of_range = |i: usize| CertifyError::DimensionMismatch {
        expected: master.num_constraints(),
        got: i + 1,
    };

    // The violations are normalized by a scale that covers the excluded
    // costs too, which are only known once every column has been
    // described, so the pass folds raw violations. Division by a positive
    // scale is monotone, so the normalized worst is the normalized raw
    // worst, bit for bit. The first bad column ends the pass.
    let mut terms = Vec::new();
    let mut priced = Priced::default();
    for item in excluded {
        terms.clear();
        let (key, obj) = column(item, &mut terms);
        let viol = raw_violation(y, sign, obj, &terms).map_err(out_of_range)?;
        priced.push(key, viol, obj);
    }

    // Same normalization as the master's dual-feasibility test, but the
    // scale must cover the excluded costs too (an excluded column can be
    // the dearest in the full model).
    let mut max_cost = priced.max_obj;
    for v in master.var_ids() {
        max_cost = max_cost.max(master.var_obj(v).abs());
    }
    let cost_scale = 1.0 + max_cost;
    let max_excluded_violation = priced.worst / cost_scale;

    // The worst column is the first whose *normalized* violation reaches
    // the maximum: the raw worst, unless rounding makes an earlier,
    // slightly smaller violation normalize to the same value. Only then
    // are the columns priced again, up to the first that does.
    let mut worst_excluded = priced.worst_key.filter(|_| max_excluded_violation > 0.0);
    if worst_excluded.is_some() && priced.before_worst / cost_scale == max_excluded_violation {
        for item in excluded {
            terms.clear();
            let (key, obj) = column(item, &mut terms);
            let viol = raw_violation(y, sign, obj, &terms).map_err(out_of_range)?;
            if viol / cost_scale == max_excluded_violation {
                worst_excluded = Some(key);
                break;
            }
        }
    }
    Ok(RestrictedCertificate {
        master: cert,
        max_excluded_violation,
        worst_excluded,
        excluded_priced: excluded.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_lp::Model;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// An excluded column as the tests describe one.
    #[derive(Debug, Clone)]
    struct Col {
        key: u64,
        obj: f64,
        terms: Vec<(ConstraintId, f64)>,
    }

    fn col(key: u64, obj: f64, terms: Vec<(ConstraintId, f64)>) -> Col {
        Col { key, obj, terms }
    }

    /// The `column` callback over [`Col`]s.
    fn describe(c: &Col, terms: &mut Vec<(ConstraintId, f64)>) -> (u64, f64) {
        assert!(terms.is_empty(), "the buffer must arrive empty");
        terms.extend_from_slice(&c.terms);
        (c.key, c.obj)
    }

    fn certify_restricted(
        m: &Model,
        sol: &Solution,
        excluded: &[Col],
    ) -> Result<RestrictedCertificate, CertifyError> {
        certify_restricted_with(m, sol, excluded, describe)
    }

    /// The pricing pass as it was before columns were described by a
    /// callback: every column's terms materialized up front, each
    /// violation normalized before the in-order, first-of-ties fold.
    /// Returns `(max_excluded_violation, worst_excluded)`.
    fn slice_of_columns_pass(
        master: &Model,
        sol: &Solution,
        excluded: &[Col],
    ) -> Result<(f64, Option<u64>), CertifyError> {
        let y = sol.duals();
        let sign = match master.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut max_cost = 0.0f64;
        for v in master.var_ids() {
            max_cost = max_cost.max(master.var_obj(v).abs());
        }
        for c in excluded {
            max_cost = max_cost.max(c.obj.abs());
        }
        let cost_scale = 1.0 + max_cost;
        let (mut worst, mut worst_key) = (0.0f64, None);
        for c in excluded {
            let mut d = sign * c.obj;
            for &(r, coef) in &c.terms {
                let i = r.index();
                if i >= y.len() {
                    return Err(CertifyError::DimensionMismatch {
                        expected: master.num_constraints(),
                        got: i + 1,
                    });
                }
                d -= y[i] * coef;
            }
            let viol = (-d).max(0.0) / cost_scale;
            if viol > worst {
                (worst, worst_key) = (viol, Some(c.key));
            }
        }
        Ok((worst, worst_key))
    }

    /// The callback certificate against [`slice_of_columns_pass`]: the
    /// same violation bits, the same worst key, the same error.
    fn assert_matches_slice_pass(m: &Model, sol: &Solution, excluded: &[Col]) {
        let want = slice_of_columns_pass(m, sol, excluded);
        let got = certify_restricted_with(m, sol, excluded, describe).map(|c| {
            assert_eq!(c.excluded_priced, excluded.len());
            (c.max_excluded_violation, c.worst_excluded)
        });
        match (want, got) {
            (Ok((wv, wk)), Ok((gv, gk))) => {
                assert_eq!(wv.to_bits(), gv.to_bits());
                assert_eq!(wk, gk);
            }
            (want, got) => assert_eq!(want.err(), got.err()),
        }
    }

    /// min 2x + 3y  s.t.  x + y ≥ 4,  x ≤ 3,  x,y ∈ [0,10] → x=3, y=1, obj 9.
    fn sample() -> Model {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let y = m.add_var("y", 0.0, 10.0, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 3.0);
        m
    }

    #[test]
    fn certifies_solver_output() {
        let m = sample();
        let sol = m.solve().unwrap();
        let cert = certify(&m, &sol).unwrap();
        assert!(cert.is_optimal(), "{cert}");
        assert!((cert.primal_objective - 9.0).abs() < 1e-9);
        assert!((cert.dual_objective - 9.0).abs() < 1e-6);
        assert!(cert.failures().is_empty());
    }

    #[test]
    fn certifies_maximization() {
        // max x + y  s.t.  2x + y ≤ 4,  x + 3y ≤ 6  → x=1.2, y=1.6, obj 2.8.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 2.0), (y, 1.0)], Cmp::Le, 4.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let sol = m.solve().unwrap();
        let cert = certify(&m, &sol).unwrap();
        assert!(cert.is_optimal(), "{cert}");
        assert!((cert.primal_objective - 2.8).abs() < 1e-6);
    }

    #[test]
    fn equality_rows_certify() {
        // min x + 2y  s.t.  x + y = 3,  y ≥ 1 → x=2, y=1, obj 4.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        m.add_constraint([(y, 1.0)], Cmp::Ge, 1.0);
        let sol = m.solve().unwrap();
        let cert = certify(&m, &sol).unwrap();
        assert!(cert.is_optimal(), "{cert}");
        assert!((cert.primal_objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_feasible_but_suboptimal_point() {
        let m = sample();
        let real = m.solve().unwrap();
        // Hand the verifier a feasible interior point (x=3, y=4, obj 18)
        // with the solver's duals: the gap must expose it.
        let fake = lips_lp::Solution::from_parts(18.0, vec![3.0, 4.0], real.duals().to_vec(), 0);
        let cert = certify(&m, &fake).unwrap();
        assert!(!cert.is_optimal());
        assert!(cert.duality_gap > 1.0);
        assert!(
            cert.failures().iter().any(|s| s.contains("duality gap")),
            "{cert}"
        );
    }

    #[test]
    fn rejects_infeasible_point() {
        let m = sample();
        let real = m.solve().unwrap();
        let fake = lips_lp::Solution::from_parts(0.0, vec![0.0, 0.0], real.duals().to_vec(), 0);
        let cert = certify(&m, &fake).unwrap();
        assert!(!cert.is_optimal());
        assert!(cert.max_primal_violation >= 4.0 - 1e-12);
    }

    #[test]
    fn rejects_sign_flipped_duals() {
        let m = sample();
        let real = m.solve().unwrap();
        let flipped: Vec<f64> = real.duals().iter().map(|d| -d).collect();
        let fake =
            lips_lp::Solution::from_parts(real.objective(), real.values().to_vec(), flipped, 0);
        let cert = certify(&m, &fake).unwrap();
        assert!(!cert.is_optimal(), "{cert}");
        assert!(cert.max_dual_violation > 0.0 || cert.duality_gap > 1e-6);
    }

    #[test]
    fn rejects_lying_objective() {
        let m = sample();
        let real = m.solve().unwrap();
        let fake = lips_lp::Solution::from_parts(
            real.objective() - 5.0,
            real.values().to_vec(),
            real.duals().to_vec(),
            0,
        );
        let cert = certify(&m, &fake).unwrap();
        assert!(!cert.is_optimal());
        assert!((cert.objective_mismatch - 5.0).abs() < 1e-9);
    }

    #[test]
    fn missing_duals_is_an_error_not_a_pass() {
        let m = sample();
        let sol = m.solve_dense().unwrap(); // dense oracle: no duals
        match certify(&m, &sol) {
            Err(CertifyError::MissingDuals {
                expected: 2,
                got: 0,
            }) => {}
            other => panic!("expected MissingDuals, got {other:?}"),
        }
    }

    #[test]
    fn restricted_master_with_unpriced_improving_column_is_rejected() {
        // Master: min 2x s.t. x ≥ 4 → x=4, obj 8, y_demand = 2.
        // Excluded column z (cost 1, coefficient 1 in the demand row) has
        // reduced cost 1 − 2 = −1: the master is NOT optimal for the full
        // model and the certificate must say so, even though the master's
        // own KKT report is clean.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let demand = m.add_constraint([(x, 1.0)], Cmp::Ge, 4.0);
        let sol = m.solve().unwrap();
        let excluded = vec![col(26, 1.0, vec![(demand, 1.0)])];
        let cert = certify_restricted(&m, &sol, &excluded).unwrap();
        assert!(cert.master.is_optimal(), "master alone certifies");
        assert!(!cert.is_optimal(), "{cert}");
        assert_eq!(cert.worst_excluded, Some(26));
        assert_eq!(cert.excluded_priced, 1);
        assert!(
            cert.failures().iter().any(|s| s.contains("prices out")),
            "{cert}"
        );
    }

    #[test]
    fn restricted_master_with_dear_excluded_columns_certifies() {
        // Same master, but the excluded column costs more than the row's
        // marginal value (3 > 2): zero-extension is full-model optimal.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let demand = m.add_constraint([(x, 1.0)], Cmp::Ge, 4.0);
        let sol = m.solve().unwrap();
        let excluded = vec![col(26, 3.0, vec![(demand, 1.0)])];
        let cert = certify_restricted(&m, &sol, &excluded).unwrap();
        assert!(cert.is_optimal(), "{cert}");
        assert_eq!(cert.max_excluded_violation, 0.0);
        assert!(cert.worst_excluded.is_none());
        // And the full model agrees: appending z does not move the optimum.
        let mut full = m.clone();
        full.add_keyed_column(26, 0.0, 10.0, 3.0, [(demand, 1.0)]);
        assert!((full.solve().unwrap().objective() - sol.objective()).abs() < 1e-9);
    }

    #[test]
    fn restricted_rejects_out_of_range_rows() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 4.0);
        let sol = m.solve().unwrap();
        let excluded = vec![col(1, 1.0, vec![(ConstraintId::from_index(7), 1.0)])];
        assert!(matches!(
            certify_restricted(&m, &sol, &excluded),
            Err(CertifyError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_excluded_set_degrades_to_plain_certify() {
        let m = sample();
        let sol = m.solve().unwrap();
        let cert = certify_restricted(&m, &sol, &[]).unwrap();
        assert_eq!(cert.max_excluded_violation, 0.0);
        assert!(cert.is_optimal());
        assert_eq!(cert.excluded_priced, 0);
    }

    /// A master of `k` coupled covering rows over `3k` variables, solved
    /// to optimality.
    fn coupled_master(k: usize) -> (Model, Vec<ConstraintId>) {
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..3 * k)
            .map(|j| {
                #[allow(clippy::cast_precision_loss)]
                let cost = 1.0 + (j % 17) as f64 * 0.25;
                m.add_var(format!("v{j}"), 0.0, 8.0, cost)
            })
            .collect();
        let rows: Vec<_> = (0..k)
            .map(|i| {
                let terms = [
                    (vars[3 * i], 1.0),
                    (vars[3 * i + 1], 1.0),
                    (vars[(3 * i + 5) % (3 * k)], 0.5),
                ];
                m.add_constraint(terms, Cmp::Ge, 2.0 + (i % 5) as f64)
            })
            .collect();
        (m, rows)
    }

    #[test]
    fn certificates_are_bitwise_identical_run_to_run() {
        // Hundreds of rows and columns, summed in one order per pass.
        let (m, rows) = coupled_master(200);
        let sol = m.solve().unwrap();
        let base = certify(&m, &sol).unwrap();
        assert!(base.is_optimal(), "{base}");
        // Excluded columns with a deliberate tie: columns 100 and 700 have
        // identical violations, so first-of-ties selection is exercised.
        let excluded: Vec<Col> = (0..1200)
            .map(|i| {
                let obj = if i == 100 || i == 700 { 0.01 } else { 2.5 };
                col(i as u64, obj, vec![(rows[i % rows.len()], 1.0)])
            })
            .collect();
        let rbase = certify_restricted(&m, &sol, &excluded).unwrap();
        let cert = certify(&m, &sol).unwrap();
        for (a, b) in [
            (base.primal_objective, cert.primal_objective),
            (base.dual_objective, cert.dual_objective),
            (base.duality_gap, cert.duality_gap),
            (base.max_primal_violation, cert.max_primal_violation),
            (base.max_dual_violation, cert.max_dual_violation),
            (base.max_slackness_violation, cert.max_slackness_violation),
            (base.objective_mismatch, cert.objective_mismatch),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let rcert = certify_restricted(&m, &sol, &excluded).unwrap();
        assert_eq!(
            rbase.max_excluded_violation.to_bits(),
            rcert.max_excluded_violation.to_bits()
        );
        assert_eq!(rbase.worst_excluded, rcert.worst_excluded);
        // The tie resolved to the earlier column.
        if rbase.max_excluded_violation > 0.0 {
            assert_eq!(rbase.worst_excluded, Some(100));
        }
    }

    #[test]
    fn callback_pass_matches_the_slice_of_columns_pass() {
        let (m, rows) = coupled_master(120);
        let sol = m.solve().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for case in 0..24 {
            // Up to 1600 columns over random rows, costs that price some of
            // them out, and exact repeats of earlier columns under new keys:
            // ties near and far apart.
            let n = rng.gen_range(0..1600);
            let mut excluded: Vec<Col> = Vec::with_capacity(n);
            for i in 0..n {
                let key = (case << 32) | i as u64;
                if i > 0 && rng.gen_bool(0.2) {
                    let twin = excluded[rng.gen_range(0..i)].clone();
                    excluded.push(col(key, twin.obj, twin.terms));
                    continue;
                }
                let terms = (0..rng.gen_range(1..5))
                    .map(|_| (rows[rng.gen_range(0..rows.len())], rng.gen_range(-2.0..3.0)))
                    .collect();
                excluded.push(col(key, rng.gen_range(-1.0..6.0), terms));
            }
            if case % 6 == 5 && n > 0 {
                // An out-of-range row: the same error from both passes.
                let at = rng.gen_range(0..n);
                excluded[at]
                    .terms
                    .push((ConstraintId::from_index(rows.len() + 3), 1.0));
            }
            assert_matches_slice_pass(&m, &sol, &excluded);
        }
    }

    #[test]
    fn worst_excluded_is_first_of_normalized_ties() {
        // One row with dual 1: a column of cost 0 and coefficient a has
        // raw violation a. The master's cost 2 makes the scale 3. Raw
        // violations in [1.5, 2) normalize into [0.5, 0.67), whose spacing
        // is half again theirs, so two adjacent ones can normalize to the
        // same value; the earlier, smaller one is then the worst column.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let row = m.add_constraint([(x, 1.0)], Cmp::Ge, 1.0);
        let sol = lips_lp::Solution::from_parts(2.0, vec![1.0], vec![1.0], 0);
        let (a, b) = (1..1000)
            .map(|k| 1.5 + f64::from(k) * f64::EPSILON)
            .map(|b| (b.next_down(), b))
            .find(|&(a, b)| a / 3.0 == b / 3.0)
            .unwrap();
        let excluded = vec![
            col(1, 0.0, vec![(row, 0.25)]),
            col(2, 0.0, vec![(row, a)]),
            col(3, 0.0, vec![(row, b)]),
            col(4, 0.0, vec![(row, b)]),
        ];
        let cert = certify_restricted(&m, &sol, &excluded).unwrap();
        assert_eq!(cert.max_excluded_violation.to_bits(), (b / 3.0).to_bits());
        assert_eq!(cert.worst_excluded, Some(2));
        assert_matches_slice_pass(&m, &sol, &excluded);
        // Without the smaller twin the raw worst stands.
        let cert = certify_restricted(&m, &sol, &excluded[2..]).unwrap();
        assert_eq!(cert.worst_excluded, Some(3));
        assert_matches_slice_pass(&m, &sol, &excluded[2..]);
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let m = sample();
        let fake = lips_lp::Solution::from_parts(0.0, vec![1.0], vec![0.0, 0.0], 0);
        assert!(matches!(
            certify(&m, &fake),
            Err(CertifyError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }
}
