//! Production solver: two-phase, bounded-variable revised primal simplex.
//!
//! Design notes (why this shape):
//!
//! * **Bounded variables.** Every variable of the LiPS scheduling LPs lives
//!   in `[0, 1]`; handling bounds natively (nonbasic-at-lower /
//!   nonbasic-at-upper, bound flips in the ratio test) keeps the basis a
//!   fraction of the size that a split `x = x⁺ − x⁻` reformulation would
//!   need.
//! * **Sparse product-form updates.** The basis inverse is represented as a
//!   Markowitz-ordered sparse LU factorization ([`crate::slu::SparseLu`])
//!   plus a file of sparse eta vectors, refactorized periodically.
//!   FTRAN/BTRAN cost is proportional to the stored nonzeros rather than
//!   `m²`, which matters because the scheduler's bases are mostly slack
//!   (unit) columns.
//! * **Phase 1 with per-row artificials.** Rows whose slack cannot absorb
//!   the initial residual get a signed artificial column; phase 1 minimizes
//!   the artificial mass, phase 2 pins artificials to `[0,0]` and restores
//!   the true costs without rebuilding the basis.
//! * **Devex pricing on updated reduced costs + Bland fallback.** Devex
//!   reference weights approximate steepest-edge at a fraction of the cost
//!   and cut pivot counts on the long thin scheduling LPs; a
//!   partial-pricing window bounds the scan per iteration. Pricing reads
//!   one reduced-cost vector `d` that every basis change updates from its
//!   pivot row (`d ← d − (d_q/α_rq)·α_r`), the same row the
//!   devex weights and the dual ratio test need, so a pivot does one BTRAN
//!   and no dot product per priced column. `d` is recomputed from fresh
//!   duals after every refactorization and before a phase may declare
//!   optimality, so an optimum is never declared on drifted reduced
//!   costs. After a run of degenerate pivots the solver switches to
//!   Bland's rule, which guarantees termination, and switches back once
//!   the objective moves again.
//! * **Cold only.** This solver always starts from its crash basis. A
//!   carried basis goes to the bounded dual simplex ([`crate::dual`]),
//!   which reuses this module's `Worker` — factorization, eta file,
//!   FTRAN/BTRAN and phase 2 — as its machinery and primal finisher.

#![allow(clippy::needless_range_loop)] // simplex kernels read clearer with indices

use crate::basis::{BasisStatus, WarmStart};
use crate::error::LpError;
use crate::model::{ConstraintId, Model, VarId};
use crate::slu::SparseLu;
use crate::solution::{Solution, SolveStats};
use crate::sparse::CsrMatrix;
use crate::standard::StandardForm;
use crate::{PIVOT_TOL, TOL};

/// Devex weights above this trigger a reference-framework reset (all
/// weights back to 1); unbounded weight growth makes the scores meaningless.
const DEVEX_RESET: f64 = 1e8;

/// Pricing tolerance of a phase 2 resumed because the reduced costs it
/// accepted left too wide a duality gap, relative to the normal one.
const POLISH_TOL_FACTOR: f64 = 1e-3;

/// Tuning knobs for [`RevisedSimplex`].
#[derive(Debug, Clone)]
pub struct RevisedOptions {
    /// Hard cap on total pivots across both phases.
    pub max_iterations: usize,
    /// Refactorize the basis after this many eta updates.
    pub refactor_interval: usize,
    /// Reduced-cost / feasibility tolerance.
    pub tol: f64,
    /// Minimum acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_trigger: usize,
    /// Partial pricing window: scan at most this many *eligible* columns
    /// per pricing pass, resuming where the previous pass stopped
    /// (`None` = full pricing). Cuts per-iteration cost from
    /// `O(n)` to `O(window)` on wide models at the price of slightly less
    /// greedy pivots; the optimum is unaffected (a pass that finds no
    /// eligible column in the window continues scanning the rest).
    pub partial_pricing: Option<usize>,
}

impl Default for RevisedOptions {
    fn default() -> Self {
        RevisedOptions {
            max_iterations: 200_000,
            refactor_interval: 96,
            tol: TOL,
            pivot_tol: PIVOT_TOL,
            bland_trigger: 200,
            partial_pricing: Some(64),
        }
    }
}

/// The solver itself; stateless between `solve` calls.
#[derive(Debug, Clone, Default)]
pub struct RevisedSimplex {
    /// Options used for every solve.
    pub options: RevisedOptions,
}

impl RevisedSimplex {
    /// Construct with explicit options.
    pub fn with_options(options: RevisedOptions) -> Self {
        RevisedSimplex { options }
    }

    /// Solve `model` to proven optimality (or a definitive error), cold
    /// from the crash basis.
    pub fn solve(&self, model: &Model) -> Result<Solution, LpError> {
        model.validate()?;
        let t0 = crate::clock::Stopwatch::start();
        let sf = StandardForm::from_model(model);
        let mut w = Worker::new(&sf, &self.options);
        w.init_basis();
        w.refactor()?;

        // Phase 1: minimize total artificial mass. A crash basis whose
        // slacks absorb every row residual has no artificials and skips it.
        if w.has_artificials() {
            w.set_phase1_costs();
            w.run()?;
            // Per-row relative residual check: an artificial's value is the
            // residual of *its own* row, so compare it against that row's
            // scale — a global max-|b| scale would let large capacity rows
            // mask real infeasibility on small rows.
            if w.worst_relative_infeasibility() > 1e-7 {
                return Err(LpError::Infeasible);
            }
            w.pin_artificials();
        }
        w.phase1_iterations = w.iterations;

        // Phase 2: the real objective.
        w.set_phase2_costs();
        w.run()?;

        let values = w.x[..sf.n_structural].to_vec();
        let internal = w.objective();
        let duals = w.current_duals();
        let stats = SolveStats {
            iterations: w.iterations,
            phase1_iterations: w.phase1_iterations,
            refactors: w.refactors,
            ftran_nnz: w.ftran_nnz,
            solve_ms: t0.elapsed_ms(),
            ..SolveStats::default()
        };
        let next_warm = extract_warm_start(model, &sf, &w);
        Ok(
            Solution::new(sf.external_objective(internal), values, duals, w.iterations)
                .with_stats(stats)
                .with_warm_start(next_warm),
        )
    }
}

/// Snapshot the final basis as a key-indexed warm start for the next solve.
pub(crate) fn extract_warm_start(model: &Model, sf: &StandardForm, w: &Worker) -> WarmStart {
    WarmStart::from_entries(
        (0..sf.n_structural).map(|j| (model.var_key(VarId(j)), to_basis_status(w.state[j]))),
        (0..sf.nrows()).map(|i| {
            (
                model.constraint_key(ConstraintId(i)),
                to_basis_status(w.state[sf.n_structural + i]),
            )
        }),
    )
}

pub(crate) fn to_basis_status(s: VarState) -> BasisStatus {
    match s {
        VarState::Basic => BasisStatus::Basic,
        VarState::AtLower => BasisStatus::AtLower,
        VarState::AtUpper => BasisStatus::AtUpper,
        VarState::Free => BasisStatus::Free,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic,
    AtLower,
    AtUpper,
    /// Nonbasic with both bounds infinite; rests at zero.
    Free,
}

/// One product-form update: `B_new = B_old · E` where `E` is the identity
/// with column `row` replaced by the FTRAN'd entering column. Only the
/// nonzeros are stored: `diag` is the pivot entry, `nnz` the off-pivot
/// entries — the columns are typically very sparse and the dense scan was
/// measurable on large bases.
pub(crate) struct Eta {
    pub(crate) row: usize,
    pub(crate) diag: f64,
    pub(crate) nnz: Vec<(usize, f64)>,
}

/// The pivot row of a basis change at row `r`, against the basis before
/// the change: `ρ_r = B⁻ᵀe_r` and `α_r = ρ_rᵀA`. The primal loop feeds it
/// to the devex weights and the reduced-cost update, the dual loop to its
/// ratio test and the same update ([`Worker::pivot_row`] computes it for
/// both).
pub(crate) struct PivotRow {
    /// `ρ_r = B⁻ᵀe_r`, indexed by row.
    pub(crate) rho: Vec<f64>,
    /// `α_rj` for the columns in `touched`, zero for every other column.
    pub(crate) alpha: Vec<f64>,
    /// Every column the accumulation reached, basic ones included, in
    /// accumulation order. A column whose partial sum cancelled to exactly
    /// zero on the way may be listed twice, so a consumer either tolerates
    /// repeats or sorts and dedups (the dual ratio test does).
    pub(crate) touched: Vec<usize>,
}

impl PivotRow {
    /// Scratch for a basis of `m` rows over `n` columns.
    pub(crate) fn new(m: usize, n: usize) -> Self {
        PivotRow {
            rho: vec![0.0; m],
            alpha: vec![0.0; n],
            touched: Vec::new(),
        }
    }

    /// Forget the row: zero `alpha` where it was set.
    pub(crate) fn clear(&mut self) {
        for &j in &self.touched {
            self.alpha[j] = 0.0;
        }
        self.touched.clear();
    }
}

/// Work counters the tests account for (`one_btran_per_basis_change`,
/// `updated_reduced_costs_match_fresh_ones_at_every_optimum`).
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Work {
    /// BTRANs of any kind.
    pub(crate) btrans: usize,
    /// Primal pivots that changed the basis (bound flips do not).
    pub(crate) basis_changes: usize,
    /// Fresh pricings a primal phase made to confirm an optimum that its
    /// updated reduced costs found.
    pub(crate) confirmations: usize,
    /// Largest `|d_j − fresh d_j| / (1 + |c_j|)` over the nonbasic columns
    /// at any confirmation: how far the updates drifted.
    pub(crate) drift: f64,
}

pub(crate) struct Worker<'a> {
    pub(crate) sf: &'a StandardForm,
    pub(crate) opts: &'a RevisedOptions,
    /// Number of non-artificial columns (structural + slack).
    pub(crate) n_real: usize,
    /// Artificial column sign per row (`0.0` = row has no artificial).
    art_sign: Vec<f64>,
    /// Column ids of created artificials (each ≥ `n_real`).
    art_cols: Vec<usize>,
    /// Maps artificial column id → row.
    art_row: Vec<usize>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) costs: Vec<f64>,
    pub(crate) state: Vec<VarState>,
    /// Basic variable per row.
    pub(crate) basis: Vec<usize>,
    /// Current value of every column.
    pub(crate) x: Vec<f64>,
    /// The factorization of the basis at the last refactorization (the
    /// identity until the first one), with `etas` on top.
    factor: SparseLu,
    pub(crate) etas: Vec<Eta>,
    /// Length-`m` scratch for the factorization's solves.
    scratch: Vec<f64>,
    /// Reused per-refactorization workspace: the basis columns handed to
    /// the sparse factorization (drained by it, refilled next time).
    spcols: Vec<Vec<(usize, f64)>>,
    /// Row-major mirror of `sf.a` for pivot-row computation (devex
    /// weights, the reduced-cost updates, the dual ratio test).
    pub(crate) csr: CsrMatrix,
    /// Devex reference weights, one per column (artificials included).
    devex_w: Vec<f64>,
    /// Reduced cost of every column under the current cost vector (zero
    /// for basic ones): updated from the pivot row at each basis change,
    /// recomputed by [`Worker::refresh_reduced_costs`].
    pub(crate) d: Vec<f64>,
    pub(crate) iterations: usize,
    pub(crate) phase1_iterations: usize,
    pub(crate) refactors: usize,
    /// Nonzeros produced by entering-column FTRANs (see
    /// [`SolveStats::ftran_nnz`]).
    pub(crate) ftran_nnz: u64,
    pub(crate) degenerate_run: usize,
    pub(crate) bland: bool,
    in_phase1: bool,
    /// Rotating start offset for partial pricing.
    price_cursor: usize,
    #[cfg(test)]
    pub(crate) work: Work,
}

impl<'a> Worker<'a> {
    pub(crate) fn new(sf: &'a StandardForm, opts: &'a RevisedOptions) -> Self {
        let n_real = sf.ncols();
        let m = sf.nrows();
        Worker {
            sf,
            opts,
            n_real,
            art_sign: vec![0.0; m],
            art_cols: Vec::new(),
            art_row: Vec::new(),
            lb: sf.lb.clone(),
            ub: sf.ub.clone(),
            costs: vec![0.0; n_real],
            state: vec![VarState::AtLower; n_real],
            basis: Vec::with_capacity(m),
            x: vec![0.0; n_real],
            factor: SparseLu::identity(m),
            etas: Vec::new(),
            scratch: vec![0.0; m],
            spcols: Vec::new(),
            csr: CsrMatrix::from_csc(&sf.a),
            devex_w: vec![1.0; n_real],
            d: vec![0.0; n_real],
            iterations: 0,
            phase1_iterations: 0,
            refactors: 0,
            ftran_nnz: 0,
            degenerate_run: 0,
            bland: false,
            in_phase1: false,
            price_cursor: 0,
            #[cfg(test)]
            work: Work::default(),
        }
    }

    pub(crate) fn m(&self) -> usize {
        self.sf.nrows()
    }

    pub(crate) fn ncols(&self) -> usize {
        self.n_real + self.art_cols.len()
    }

    fn has_artificials(&self) -> bool {
        !self.art_cols.is_empty()
    }

    /// Visit the nonzero entries of a column (handles artificial columns,
    /// which are signed unit vectors). Closure-based to stay allocation-free
    /// on the pricing hot path.
    pub(crate) fn for_col(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n_real {
            for (r, v) in self.sf.a.col(j) {
                f(r, v);
            }
        } else {
            let row = self.art_row[j - self.n_real];
            f(row, self.art_sign[row]);
        }
    }

    /// Cold-start nonbasic placement: rest at the finite bound nearest
    /// zero.
    fn default_nonbasic(lo: f64, hi: f64) -> (VarState, f64) {
        match (lo.is_finite(), hi.is_finite()) {
            (true, true) => {
                if lo.abs() <= hi.abs() {
                    (VarState::AtLower, lo)
                } else {
                    (VarState::AtUpper, hi)
                }
            }
            (true, false) => (VarState::AtLower, lo),
            (false, true) => (VarState::AtUpper, hi),
            (false, false) => (VarState::Free, 0.0),
        }
    }

    /// Place column `j` nonbasic, honoring a requested status when it is
    /// consistent with the bounds, falling back to the cold placement.
    pub(crate) fn place_nonbasic(&mut self, j: usize, requested: Option<BasisStatus>) {
        let (lo, hi) = (self.lb[j], self.ub[j]);
        let (st, v) = match requested {
            Some(BasisStatus::AtLower) if lo.is_finite() => (VarState::AtLower, lo),
            Some(BasisStatus::AtUpper) if hi.is_finite() => (VarState::AtUpper, hi),
            Some(BasisStatus::Free) if !lo.is_finite() && !hi.is_finite() => (VarState::Free, 0.0),
            _ => Self::default_nonbasic(lo, hi),
        };
        self.state[j] = st;
        self.x[j] = v;
    }

    /// Place structural and slack variables at their initial nonbasic
    /// positions, choose the starting basis (slack where it can absorb the
    /// row residual, artificial otherwise).
    fn init_basis(&mut self) {
        let n_struct = self.sf.n_structural;
        let m = self.m();

        // Structural variables: rest at the finite bound nearest zero.
        for j in 0..n_struct {
            let (st, v) = Self::default_nonbasic(self.lb[j], self.ub[j]);
            self.state[j] = st;
            self.x[j] = v;
        }

        // Row residuals with only structural variables placed.
        let mut resid = self.sf.b.clone();
        for j in 0..n_struct {
            if self.x[j] != 0.0 {
                for (r, v) in self.sf.a.col(j) {
                    resid[r] -= v * self.x[j];
                }
            }
        }

        // One slack per row: basic if it can hold the residual, else pinned
        // at its nearest bound with an artificial absorbing the rest.
        self.basis.clear();
        for i in 0..m {
            let s = n_struct + i;
            let (lo, hi) = (self.lb[s], self.ub[s]);
            let r = resid[i];
            if r >= lo - self.opts.tol && r <= hi + self.opts.tol {
                self.state[s] = VarState::Basic;
                self.x[s] = r;
                self.basis.push(s);
            } else {
                let v = if r < lo { lo } else { hi };
                self.state[s] = if v == lo {
                    VarState::AtLower
                } else {
                    VarState::AtUpper
                };
                self.x[s] = v;
                let excess = r - v;
                let sign = if excess >= 0.0 { 1.0 } else { -1.0 };
                let col = self.push_artificial(i, sign);
                self.x[col] = excess.abs();
                self.basis.push(col);
            }
        }
    }

    /// Append a basic artificial column for `row` with the given sign and
    /// return its column id. The caller sets its value and basis slot.
    fn push_artificial(&mut self, row: usize, sign: f64) -> usize {
        debug_assert_eq!(self.art_sign[row], 0.0, "row already has an artificial");
        self.art_sign[row] = sign;
        let col = self.n_real + self.art_cols.len();
        self.art_cols.push(col);
        self.art_row.push(row);
        self.lb.push(0.0);
        self.ub.push(f64::INFINITY);
        self.costs.push(0.0);
        self.state.push(VarState::Basic);
        self.x.push(0.0);
        self.devex_w.push(1.0);
        self.d.push(0.0);
        col
    }

    fn set_phase1_costs(&mut self) {
        self.in_phase1 = true;
        for c in &mut self.costs {
            *c = 0.0;
        }
        for &j in &self.art_cols {
            self.costs[j] = 1.0;
        }
        // New phase, new devex reference framework.
        self.devex_w.fill(1.0);
    }

    pub(crate) fn set_phase2_costs(&mut self) {
        self.in_phase1 = false;
        for (j, c) in self.costs.iter_mut().enumerate() {
            *c = if j < self.n_real { self.sf.c[j] } else { 0.0 };
        }
        self.devex_w.fill(1.0);
    }

    /// Largest artificial value relative to its own row's magnitude.
    fn worst_relative_infeasibility(&self) -> f64 {
        self.art_cols
            .iter()
            .map(|&j| {
                let row = self.art_row[j - self.n_real];
                self.x[j].max(0.0) / (1.0 + self.sf.b[row].abs())
            })
            .fold(0.0, f64::max)
    }

    /// After a successful phase 1, forbid artificials from ever re-entering:
    /// clamp them into `[0, 0]`.
    fn pin_artificials(&mut self) {
        for &j in &self.art_cols {
            self.lb[j] = 0.0;
            self.ub[j] = 0.0;
            if self.state[j] != VarState::Basic {
                self.state[j] = VarState::AtLower;
                self.x[j] = 0.0;
            }
        }
    }

    /// Rebuild the basis factorization and recompute the basic values from
    /// scratch (limits numerical drift).
    ///
    /// The working storage is recycled across calls: the per-column
    /// workspace the previous factorization drained is refilled.
    /// Refactorization happens every few dozen pivots, and on large
    /// bases the repeated allocation (and its page faults) used to dominate
    /// the factorization itself.
    pub(crate) fn refactor(&mut self) -> Result<(), LpError> {
        let m = self.m();
        self.refactors += 1;
        let mut cols = std::mem::take(&mut self.spcols);
        cols.resize_with(m, Vec::new);
        for (i, &j) in self.basis.iter().enumerate() {
            cols[i].clear();
            self.for_col(j, |r, v| cols[i].push((r, v)));
        }
        let res = SparseLu::factorize(m, &mut cols, self.opts.pivot_tol);
        self.spcols = cols;
        self.factor = res?;
        self.etas.clear();
        self.recompute_basic_values();
        Ok(())
    }

    /// xB = B⁻¹ (b − N x_N).
    pub(crate) fn recompute_basic_values(&mut self) {
        let m = self.m();
        let mut rhs = self.sf.b.clone();
        for j in 0..self.ncols() {
            if self.state[j] != VarState::Basic && self.x[j] != 0.0 {
                let xj = self.x[j];
                self.for_col(j, |r, v| rhs[r] -= v * xj);
            }
        }
        self.ftran(&mut rhs);
        for i in 0..m {
            self.x[self.basis[i]] = rhs[i];
        }
    }

    /// Solve `B t = v` in place.
    pub(crate) fn ftran(&mut self, v: &mut [f64]) {
        let Worker {
            factor,
            scratch,
            etas,
            ..
        } = self;
        factor.solve_in_place(v, scratch);
        for eta in etas.iter() {
            let tr = v[eta.row] / eta.diag;
            if tr != 0.0 {
                for &(i, w) in &eta.nnz {
                    v[i] -= w * tr;
                }
            }
            v[eta.row] = tr;
        }
    }

    /// Solve `Bᵀ y = v` in place.
    pub(crate) fn btran(&mut self, v: &mut [f64]) {
        #[cfg(test)]
        {
            self.work.btrans += 1;
        }
        let Worker {
            factor,
            scratch,
            etas,
            ..
        } = self;
        for eta in etas.iter().rev() {
            let mut s = v[eta.row];
            for &(i, w) in &eta.nnz {
                s -= w * v[i];
            }
            v[eta.row] = s / eta.diag;
        }
        factor.solve_transpose_in_place(v, scratch);
    }

    /// Simplex multipliers `y = B⁻ᵀc_B` for the *current* cost vector.
    pub(crate) fn current_duals(&mut self) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&j| self.costs[j]).collect();
        self.btran(&mut y);
        y
    }

    /// Recompute `d` from fresh duals: one BTRAN, then `c_j − yᵀa_j` for
    /// every nonbasic column. The primal loop, the dual loop and the dual
    /// cost shifts all price fresh through this one routine.
    pub(crate) fn refresh_reduced_costs(&mut self) {
        let y = self.current_duals();
        for j in 0..self.ncols() {
            self.d[j] = if self.state[j] == VarState::Basic {
                0.0
            } else {
                self.reduced_cost(&y, j)
            };
        }
    }

    /// The pivot row at basis row `r` into `row`, which must be clear:
    /// `ρ_r` by one BTRAN, then `α_r` accumulated over the CSR rows of
    /// `ρ_r`'s support. Artificial columns are signed unit vectors, so
    /// their `α_rj` is `ρ[row]·sign`.
    pub(crate) fn pivot_row(&mut self, r: usize, row: &mut PivotRow) {
        let PivotRow {
            rho,
            alpha,
            touched,
        } = row;
        rho.fill(0.0);
        rho[r] = 1.0;
        self.btran(rho);
        for i in 0..self.m() {
            let ri = rho[i];
            if ri == 0.0 {
                continue;
            }
            for (j, a) in self.csr.row(i) {
                if alpha[j] == 0.0 {
                    touched.push(j);
                }
                // lips-allow(float-accum-in-loop): serial pivot-row accumulation in fixed CSR row order
                alpha[j] += ri * a;
            }
        }
        for (k, &j) in self.art_cols.iter().enumerate() {
            let i = self.art_row[k];
            let a = rho[i] * self.art_sign[i];
            if a != 0.0 {
                touched.push(j);
                alpha[j] = a;
            }
        }
    }

    /// The reduced-cost update of a basis change that brought `q` in and
    /// took `out` out, with `theta = d_q / α_rq`: `d ← d − θ·α_r` over the
    /// nonbasic columns, then `d_q = 0` and `d_out = −θ`. Runs after the
    /// states are swapped, and leaves `row` clear for the next pivot.
    pub(crate) fn update_reduced_costs(
        &mut self,
        row: &mut PivotRow,
        q: usize,
        out: usize,
        theta: f64,
    ) {
        for &j in &row.touched {
            // Taking α_rj as it is used makes a repeated column harmless.
            let a = std::mem::take(&mut row.alpha[j]);
            if self.state[j] != VarState::Basic {
                self.d[j] -= theta * a;
            }
        }
        row.touched.clear();
        self.d[q] = 0.0;
        self.d[out] = -theta;
    }

    /// Reduced cost of nonbasic column `j` given multipliers `y`.
    pub(crate) fn reduced_cost(&self, y: &[f64], j: usize) -> f64 {
        if j < self.n_real {
            self.costs[j] - self.sf.a.dot_col(y, j)
        } else {
            let row = self.art_row[j - self.n_real];
            self.costs[j] - y[row] * self.art_sign[row]
        }
    }

    /// Pick the entering column by its reduced cost in `d`, honoring the
    /// pricing rule or Bland mode: a reduced cost must beat `tol` in the
    /// improving direction. Returns `(column, direction)` with direction
    /// `+1` (increase from lower/free) or `-1` (decrease from upper).
    fn price(&mut self, tol: f64) -> Option<(usize, f64)> {
        let n = self.ncols();
        let window = if self.bland {
            None
        } else {
            self.opts.partial_pricing
        };
        let start = self.price_cursor % n.max(1);
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, score)
        let mut eligible_seen = 0usize;
        for step in 0..n {
            // Bland mode must scan in plain index order for its
            // termination guarantee; otherwise rotate from the cursor so
            // partial pricing covers all columns fairly across passes.
            let j = if self.bland { step } else { (start + step) % n };
            // Fixed columns (including pinned artificials) can never move.
            if self.lb[j] == self.ub[j] {
                continue;
            }
            let d = self.d[j];
            let (dir, viol) = match self.state[j] {
                VarState::AtLower | VarState::Free if d < -tol => (1.0, -d),
                VarState::AtUpper | VarState::Free if d > tol => (-1.0, d),
                _ => continue,
            };
            if self.bland {
                // Bland: first eligible index wins.
                return Some((j, dir));
            }
            // Devex reference weights (approximate steepest edge): the
            // column maximizing `d_j² / w_j` enters.
            let score = viol * viol / self.devex_w[j];
            match best {
                Some((_, _, bs)) if bs >= score => {}
                _ => best = Some((j, dir, score)),
            }
            eligible_seen += 1;
            if let Some(w) = window {
                if eligible_seen >= w {
                    // Resume the next pass after this column.
                    self.price_cursor = (start + step + 1) % n;
                    break;
                }
            }
        }
        best.map(|(j, d, _)| (j, d))
    }

    /// Devex reference-weight update for entering column `q` at pivot row
    /// `r`, with pivot element `alpha_rq` and the pivot `row` computed
    /// against the basis *before* the pivot: the classical update
    /// `w_j = max(w_j, (α_rj/α_rq)² w_q)`.
    fn devex_update(&mut self, q: usize, r: usize, alpha_rq: f64, row: &PivotRow) {
        let gq = self.devex_w[q];
        let mut needs_reset = false;
        for &j in &row.touched {
            if j == q || self.state[j] == VarState::Basic || self.lb[j] == self.ub[j] {
                continue;
            }
            let ratio = row.alpha[j] / alpha_rq;
            let cand = ratio * ratio * gq;
            if cand > self.devex_w[j] {
                self.devex_w[j] = cand;
                needs_reset |= cand > DEVEX_RESET;
            }
        }
        // The leaving variable re-enters the nonbasic pool with the weight
        // the devex recurrence assigns it.
        let out = self.basis[r];
        self.devex_w[out] = (gq / (alpha_rq * alpha_rq)).max(1.0);
        if needs_reset {
            self.devex_w.fill(1.0);
        }
    }

    /// The first phase-2 optimum, checked once more before it is accepted:
    /// the duality gap its accepted reduced costs leave open — each
    /// nonbasic column whose reduced cost is wrong-signed but within `tol`
    /// contributes `|d_j|` times its bound range — must stay within
    /// `tol · (1 + |z|)`. Dozens of tied task arcs each just inside the
    /// tolerance can add up to more than that. When it does, the eta
    /// file's drift is cleared first by a refactorization (phase 2 resumes
    /// if the fresh duals price a column in), and if the gap is still too
    /// wide phase 2 resumes at a pricing tolerance a thousand times
    /// tighter. `d` must be fresh on entry. Returns the entering column, if
    /// any, and leaves `d` and `tol` as the resumed phase must use them.
    fn recheck_optimum(&mut self, tol: &mut f64) -> Result<Option<(usize, f64)>, LpError> {
        if self.open_gap() <= *tol * (1.0 + self.objective().abs()) {
            return Ok(None);
        }
        if !self.etas.is_empty() {
            self.refactor()?;
            self.refresh_reduced_costs();
            if let Some(e) = self.price(*tol) {
                return Ok(Some(e));
            }
            if self.open_gap() <= *tol * (1.0 + self.objective().abs()) {
                return Ok(None);
            }
        }
        *tol *= POLISH_TOL_FACTOR;
        Ok(self.price(*tol))
    }

    /// The duality gap left open by nonbasic columns whose reduced cost in
    /// `d` is wrong-signed: `Σ |d_j| · (u_j − l_j)` over finite ranges.
    fn open_gap(&self) -> f64 {
        let mut gap = 0.0;
        for j in 0..self.ncols() {
            let range = self.ub[j] - self.lb[j];
            if self.state[j] == VarState::Basic || range == 0.0 || !range.is_finite() {
                continue;
            }
            let d = self.d[j];
            let wrong = match self.state[j] {
                VarState::AtLower => (-d).max(0.0),
                VarState::AtUpper => d.max(0.0),
                VarState::Free | VarState::Basic => 0.0,
            };
            // lips-allow(float-accum-in-loop): serial sum in column order
            gap += wrong * range;
        }
        gap
    }

    /// Objective value under the current cost vector.
    pub(crate) fn objective(&self) -> f64 {
        self.costs.iter().zip(&self.x).map(|(c, x)| c * x).sum()
    }

    /// Price fresh once more where the updated reduced costs found no
    /// entering column: an optimum is declared only on fresh duals.
    fn confirm_optimum(&mut self) {
        #[cfg(test)]
        let stale = self.d.clone();
        self.refresh_reduced_costs();
        #[cfg(test)]
        {
            self.work.confirmations += 1;
            for j in 0..self.ncols() {
                if self.state[j] != VarState::Basic {
                    let drift = (stale[j] - self.d[j]).abs() / (1.0 + self.costs[j].abs());
                    self.work.drift = self.work.drift.max(drift);
                }
            }
        }
    }

    /// One full simplex phase with the current cost vector.
    pub(crate) fn run(&mut self) -> Result<(), LpError> {
        let m = self.m();
        // Per-phase scratch, reused across every iteration of the loop —
        // the per-iteration allocations here used to dominate small pivots.
        let mut w = vec![0.0; m];
        let mut row = PivotRow::new(m, self.ncols());
        let mut tol = self.opts.tol;
        let mut checked = false;
        self.refresh_reduced_costs();
        // Whether `d` was priced fresh at the current basis.
        let mut d_fresh = true;
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            let mut entering = self.price(tol);
            if entering.is_none() && !d_fresh {
                self.confirm_optimum();
                d_fresh = true;
                entering = self.price(tol);
            }
            if entering.is_none() && !self.in_phase1 && !checked {
                checked = true;
                entering = self.recheck_optimum(&mut tol)?;
            }
            let Some((q, dir)) = entering else {
                return Ok(()); // phase optimal
            };

            // FTRAN the entering column.
            w.fill(0.0);
            self.for_col(q, |r, v| w[r] += v);
            self.ftran(&mut w);

            // Ratio test: how far can x_q move?
            let bound_gap = if self.lb[q].is_finite() && self.ub[q].is_finite() {
                self.ub[q] - self.lb[q]
            } else {
                f64::INFINITY
            };
            let mut t = bound_gap;
            let mut leaving: Option<(usize, VarState)> = None;
            let mut wnnz = 0u64;
            for i in 0..m {
                let wi = w[i];
                if wi != 0.0 {
                    wnnz += 1;
                }
                if wi.abs() <= self.opts.pivot_tol {
                    continue;
                }
                let bvar = self.basis[i];
                // x_B changes at rate −dir·w per unit of t.
                let delta = dir * wi;
                let (limit, hits) = if delta > 0.0 {
                    let lo = self.lb[bvar];
                    if lo.is_finite() {
                        ((self.x[bvar] - lo) / delta, VarState::AtLower)
                    } else {
                        continue;
                    }
                } else {
                    let hi = self.ub[bvar];
                    if hi.is_finite() {
                        ((hi - self.x[bvar]) / (-delta), VarState::AtUpper)
                    } else {
                        continue;
                    }
                };
                let limit = limit.max(0.0);
                let better = match leaving {
                    None => limit < t - 1e-12,
                    Some((cur, _)) => {
                        if self.bland {
                            // Bland tie-break: smaller basic variable index.
                            limit < t - 1e-12
                                || (limit <= t + 1e-12 && self.basis[i] < self.basis[cur])
                        } else {
                            // Prefer larger pivot magnitude on near-ties for
                            // numerical stability.
                            limit < t - 1e-12 || (limit <= t + 1e-12 && wi.abs() > w[cur].abs())
                        }
                    }
                };
                if better {
                    t = limit.min(t);
                    leaving = Some((i, hits));
                }
            }
            self.ftran_nnz += wnnz;

            if t.is_infinite() {
                return if self.in_phase1 {
                    // Phase-1 objective is bounded below by 0; an unbounded
                    // ray here means numerical trouble.
                    Err(LpError::SingularBasis)
                } else {
                    Err(LpError::Unbounded)
                };
            }

            match leaving {
                None => {
                    // Bound flip: x_q jumps to its opposite bound.
                    for i in 0..m {
                        if w[i] != 0.0 {
                            self.x[self.basis[i]] -= dir * t * w[i];
                        }
                    }
                    self.x[q] = if dir > 0.0 { self.ub[q] } else { self.lb[q] };
                    self.state[q] = if dir > 0.0 {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    };
                }
                Some((r, hits)) => {
                    if w[r].abs() <= self.opts.pivot_tol {
                        // Pivot too small; refactorize and retry this
                        // iteration with fresh numerics.
                        self.refactor()?;
                        self.refresh_reduced_costs();
                        d_fresh = true;
                        continue;
                    }
                    // The pivot row and the devex weights are taken
                    // against the basis *before* this pivot is applied.
                    self.pivot_row(r, &mut row);
                    if !self.bland {
                        self.devex_update(q, r, w[r], &row);
                    }
                    for i in 0..m {
                        if w[i] != 0.0 {
                            self.x[self.basis[i]] -= dir * t * w[i];
                        }
                    }
                    self.x[q] += dir * t;
                    let out = self.basis[r];
                    self.state[out] = hits;
                    // Snap the leaving variable exactly onto its bound.
                    self.x[out] = if hits == VarState::AtLower {
                        self.lb[out]
                    } else {
                        self.ub[out]
                    };
                    self.basis[r] = q;
                    self.state[q] = VarState::Basic;
                    let diag = w[r];
                    let theta = self.d[q] / diag;
                    self.update_reduced_costs(&mut row, q, out, theta);
                    d_fresh = false;
                    #[cfg(test)]
                    {
                        self.work.basis_changes += 1;
                    }
                    let nnz: Vec<(usize, f64)> = w
                        .iter()
                        .enumerate()
                        .filter(|&(i, &v)| i != r && v != 0.0)
                        .map(|(i, &v)| (i, v))
                        .collect();
                    self.etas.push(Eta { row: r, diag, nnz });
                    if self.etas.len() >= self.opts.refactor_interval {
                        self.refactor()?;
                        self.refresh_reduced_costs();
                        d_fresh = true;
                    }
                }
            }

            // Degeneracy bookkeeping → Bland switch.
            if t <= 1e-10 {
                self.degenerate_run += 1;
                if self.degenerate_run > self.opts.bland_trigger {
                    self.bland = true;
                }
            } else {
                self.degenerate_run = 0;
                self.bland = false;
            }
            self.iterations += 1;
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
    fn trivial_bounds_only() {
        // min 2x - y, 0<=x<=3, 1<=y<=4  ->  x=0, y=4, obj=-4.
        let mut m = Model::minimize();
        m.add_var("x", 0.0, 3.0, 2.0);
        m.add_var("y", 1.0, 4.0, -1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), -4.0);
        assert_close(sol.values()[0], 0.0);
        assert_close(sol.values()[1], 4.0);
    }

    #[test]
    fn textbook_2d() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18, x,y>=0 -> (2,6), 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 36.0);
        assert_close(sol.value_of(x), 2.0);
        assert_close(sol.value_of(y), 6.0);
    }

    #[test]
    fn equality_constraints_need_phase1() {
        // min x + 2y s.t. x + y = 10, x - y = 2 -> x=6, y=4, obj=14.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 14.0);
        assert_close(sol.value_of(x), 6.0);
        assert_close(sol.value_of(y), 4.0);
    }

    #[test]
    fn ge_constraints_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6 -> (3,1), obj=9.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Ge, 6.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 9.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_infeasible_contradictory_rows() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 5.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 3.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bound_flip_path() {
        // min -x - 2y with x,y in [0,1] and x + y <= 3 (slack basic, both
        // structural vars reach their upper bounds by bound flips).
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, -1.0);
        let y = m.add_var("y", 0.0, 1.0, -2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 3.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), -3.0);
        assert_close(sol.value_of(x), 1.0);
        assert_close(sol.value_of(y), 1.0);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y, x >= 2, y >= 3, x + y >= 7 -> obj 7 (e.g. x=4,y=3).
        let mut m = Model::minimize();
        let x = m.add_var("x", 2.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 3.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 7.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 7.0);
        assert!(m.is_feasible(sol.values(), 1e-7));
    }

    #[test]
    fn negative_bounds() {
        // min x, -5 <= x <= -1, x >= -3  ->  x = -3.
        let mut m = Model::minimize();
        let x = m.add_var("x", -5.0, -1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, -3.0);
        let sol = m.solve().unwrap();
        assert_close(sol.value_of(x), -3.0);
    }

    #[test]
    fn free_variable() {
        // min x + y, x free, y >= 0, x + y = 1, x >= -2  ->  x=-2, y=3, obj=1
        // (obj is constant along the constraint, any feasible point works).
        let mut m = Model::minimize();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, -2.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 1.0);
        assert!(m.is_feasible(sol.values(), 1e-7));
    }

    #[test]
    fn free_variable_drives_objective() {
        // min x with x free and x >= -7 via constraint  ->  x = -7.
        let mut m = Model::minimize();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, -7.0);
        let sol = m.solve().unwrap();
        assert_close(sol.value_of(x), -7.0);
    }

    /// Classic degeneracy: redundant constraints through the optimum.
    fn degenerate_model() -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 1.0);
        m.add_constraint([(y, 1.0)], Cmp::Le, 1.0);
        m.add_constraint([(x, 2.0), (y, 1.0)], Cmp::Le, 2.0);
        m.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Le, 2.0);
        m
    }

    #[test]
    fn degenerate_model_terminates() {
        let sol = degenerate_model().solve().unwrap();
        assert_close(sol.objective(), 1.0);
    }

    #[test]
    fn transportation_like_structure() {
        // 2 supplies x 3 demands min-cost transportation; optimal cost by
        // inspection: supply0->d1 (cost 1)*10, supply0->d0 (2)*5,
        // Solve and verify against the dense oracle instead of by hand.
        let mut m = Model::minimize();
        let costs = [[2.0, 1.0, 4.0], [3.0, 2.0, 1.0]];
        let supply = [15.0, 20.0];
        let demand = [5.0, 10.0, 20.0];
        let mut vars = [[None; 3]; 2];
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                vars[i][j] = Some(m.add_var(format!("x{i}{j}"), 0.0, f64::INFINITY, c));
            }
        }
        for (i, &s) in supply.iter().enumerate() {
            m.add_constraint((0..3).map(|j| (vars[i][j].unwrap(), 1.0)), Cmp::Le, s);
        }
        for (j, &d) in demand.iter().enumerate() {
            m.add_constraint((0..2).map(|i| (vars[i][j].unwrap(), 1.0)), Cmp::Ge, d);
        }
        let sol = m.solve().unwrap();
        let oracle = m.solve_dense().unwrap();
        assert_close(sol.objective(), oracle.objective());
        assert!(m.is_feasible(sol.values(), 1e-6));
    }

    #[test]
    fn duals_satisfy_strong_duality_on_standard_problem() {
        // max 3x+5y (textbook_2d): primal opt 36; b'y must equal 36 too.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = m.solve().unwrap();
        let b = [4.0, 12.0, 18.0];
        let by: f64 = b.iter().zip(sol.duals()).map(|(b, y)| b * y).sum();
        // Internally minimized −obj, so b'y == −36.
        assert_close(by, -36.0);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let solver = RevisedSimplex::with_options(RevisedOptions {
            max_iterations: 0,
            ..Default::default()
        });
        assert!(matches!(
            solver.solve(&m),
            Err(LpError::IterationLimit { .. })
        ));
    }

    #[test]
    fn refactor_interval_one_still_correct() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Ge, 6.0);
        let solver = RevisedSimplex::with_options(RevisedOptions {
            refactor_interval: 1,
            ..Default::default()
        });
        let sol = solver.solve(&m).unwrap();
        assert_close(sol.objective(), 9.0);
    }

    #[test]
    fn empty_model_solves_to_zero() {
        let m = Model::minimize();
        let sol = m.solve().unwrap();
        assert_eq!(sol.objective(), 0.0);
        assert!(sol.values().is_empty());
    }

    #[test]
    fn fixed_variables() {
        // x fixed at 2 by bounds; min y with y >= 10 - 3x = 4.
        let mut m = Model::minimize();
        let x = m.add_var("x", 2.0, 2.0, 0.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 3.0), (y, 1.0)], Cmp::Ge, 10.0);
        let sol = m.solve().unwrap();
        assert_close(sol.value_of(x), 2.0);
        assert_close(sol.value_of(y), 4.0);
    }

    #[test]
    fn partial_pricing_reaches_the_same_optimum() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        for case in 0..30 {
            let n = rng.gen_range(5..40);
            let mut m = Model::minimize();
            let vars: Vec<_> = (0..n)
                .map(|i| m.add_var(format!("x{i}"), 0.0, 1.0, rng.gen_range(-2.0..2.0)))
                .collect();
            for _ in 0..rng.gen_range(1..8) {
                let terms: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.0..2.0))).collect();
                let cap = f64::from(n) * 0.3;
                m.add_constraint(terms, Cmp::Le, cap);
            }
            let full = m.solve().unwrap();
            for window in [1usize, 4, 16] {
                let solver = RevisedSimplex::with_options(RevisedOptions {
                    partial_pricing: Some(window),
                    ..Default::default()
                });
                let partial = solver.solve(&m).unwrap();
                assert!(
                    (full.objective() - partial.objective()).abs() / (1.0 + full.objective().abs())
                        < 1e-7,
                    "case {case} window {window}: {} vs {}",
                    full.objective(),
                    partial.objective()
                );
            }
        }
    }

    #[test]
    fn partial_pricing_infeasible_and_unbounded_still_detected() {
        let solver = RevisedSimplex::with_options(RevisedOptions {
            partial_pricing: Some(1),
            ..Default::default()
        });
        let mut inf = Model::minimize();
        let x = inf.add_var("x", 0.0, 1.0, 1.0);
        inf.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(solver.solve(&inf).unwrap_err(), LpError::Infeasible);

        let mut unb = Model::minimize();
        let y = unb.add_var("y", 0.0, f64::INFINITY, -1.0);
        unb.add_constraint([(y, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(solver.solve(&unb).unwrap_err(), LpError::Unbounded);
    }

    /// Build a mid-size random LP for oracle/pricing agreement tests.
    fn random_model(seed: u64, n: usize, rows: usize) -> Model {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), 0.0, 1.0, rng.gen_range(-2.0..2.0)))
            .collect();
        for r in 0..rows {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.3) {
                    terms.push((v, rng.gen_range(0.1..2.0)));
                }
            }
            if terms.is_empty() {
                continue;
            }
            let cmp = if r % 3 == 0 { Cmp::Ge } else { Cmp::Le };
            let rhs = match cmp {
                Cmp::Ge => rng.gen_range(0.0..0.5) * terms.len() as f64 * 0.3,
                _ => rng.gen_range(0.3..1.0) * terms.len() as f64 * 0.6,
            };
            m.add_constraint(terms, cmp, rhs);
        }
        m
    }

    #[test]
    fn revised_matches_dense_tableau_oracle() {
        for seed in 0..10u64 {
            let m = random_model(seed, 40, 25);
            match (RevisedSimplex::default().solve(&m), m.solve_dense()) {
                (Ok(a), Ok(b)) => {
                    let scale = 1.0 + a.objective().abs().max(b.objective().abs());
                    assert!(
                        (a.objective() - b.objective()).abs() / scale < 1e-7,
                        "seed {seed}: {} vs {}",
                        a.objective(),
                        b.objective()
                    );
                    assert!(m.is_feasible(a.values(), 1e-6), "seed {seed}");
                }
                (a, b) => panic!("seed {seed}: revised vs oracle disagree {a:?} vs {b:?}"),
            }
        }
    }

    /// Run `model`'s phases as [`RevisedSimplex::solve`] does and hand the
    /// worker to `check` after each one that ends optimal, with the work
    /// counters and the refactorization count the phase started from.
    fn each_phase(
        model: &Model,
        opts: &RevisedOptions,
        mut check: impl FnMut(&mut Worker, Work, usize),
    ) {
        let sf = StandardForm::from_model(model);
        let mut w = Worker::new(&sf, opts);
        w.init_basis();
        w.refactor().unwrap();
        if w.has_artificials() {
            w.set_phase1_costs();
            let (work, refactors) = (w.work, w.refactors);
            w.run().unwrap();
            check(&mut w, work, refactors);
            if w.worst_relative_infeasibility() > 1e-7 {
                return; // infeasible: there is no phase 2
            }
            w.pin_artificials();
        }
        w.set_phase2_costs();
        let (work, refactors) = (w.work, w.refactors);
        w.run().unwrap();
        check(&mut w, work, refactors);
    }

    /// The random family of `revised_matches_dense_tableau_oracle`, the
    /// degenerate model, and the phase-1 textbook cases.
    fn property_models() -> Vec<Model> {
        let mut models: Vec<Model> = (0..10u64).map(|seed| random_model(seed, 40, 25)).collect();
        models.push(degenerate_model());
        let mut eq = Model::minimize();
        let x = eq.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = eq.add_var("y", 0.0, f64::INFINITY, 2.0);
        eq.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        eq.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
        models.push(eq);
        models
    }

    #[test]
    fn updated_reduced_costs_match_fresh_ones_at_every_optimum() {
        let mut confirmations = 0usize;
        for (k, model) in property_models().iter().enumerate() {
            for refactor_interval in [96, 7] {
                let opts = RevisedOptions {
                    refactor_interval,
                    ..Default::default()
                };
                each_phase(model, &opts, |w, start, _| {
                    // The reduced costs the phase priced its optimum with.
                    let y = w.current_duals();
                    for j in 0..w.ncols() {
                        if w.state[j] == VarState::Basic {
                            continue;
                        }
                        let mut fresh = w.costs[j];
                        w.for_col(j, |r, v| fresh -= y[r] * v);
                        let bound = 1e-9 * (1.0 + w.costs[j].abs());
                        assert!(
                            (w.d[j] - fresh).abs() <= bound,
                            "model {k}, column {j}: priced {} vs fresh {fresh}",
                            w.d[j]
                        );
                    }
                    // The updated ones the fresh pricing replaced.
                    assert!(w.work.drift <= 1e-9, "model {k}: drift {}", w.work.drift);
                    confirmations += w.work.confirmations - start.confirmations;
                });
            }
        }
        assert!(confirmations > 10, "only {confirmations} confirmations");
    }

    #[test]
    fn one_btran_per_basis_change() {
        let mut changes = 0usize;
        let mut refactors = 0usize;
        for (k, model) in property_models().iter().enumerate() {
            for refactor_interval in [96, 7] {
                let opts = RevisedOptions {
                    refactor_interval,
                    ..Default::default()
                };
                each_phase(model, &opts, |w, start, refactors_at_start| {
                    let phase_changes = w.work.basis_changes - start.basis_changes;
                    let phase_refactors = w.refactors - refactors_at_start;
                    let confirmations = w.work.confirmations - start.confirmations;
                    // Fresh pricings: the phase's entry, each
                    // refactorization, each optimality confirmation.
                    let fresh = 1 + phase_refactors + confirmations;
                    assert_eq!(
                        w.work.btrans - start.btrans,
                        phase_changes + fresh,
                        "model {k}, refactor interval {refactor_interval}"
                    );
                    assert!(
                        confirmations <= 2,
                        "model {k}: {confirmations} confirmations"
                    );
                    changes += phase_changes;
                    refactors += phase_refactors;
                });
            }
        }
        assert!(
            changes > 100 && refactors > 10,
            "{changes} pivots, {refactors} refactors"
        );
    }

    #[test]
    fn solve_stats_are_populated() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Ge, 6.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.stats().iterations, sol.iterations());
        assert!(sol.stats().refactors >= 1);
        assert!(sol.stats().ftran_nnz > 0);
        assert!(sol.stats().phase1_iterations <= sol.stats().iterations);
        assert!(sol.warm_start().is_some());
        let ws = sol.warm_start().unwrap();
        // Two structural vars + two row slacks recorded.
        assert_eq!(ws.len(), 4);
    }
}
