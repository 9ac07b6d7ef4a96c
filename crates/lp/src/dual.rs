//! Bounded-variable dual simplex for warm re-solves after churn, and for
//! cold solves from the slack basis.
//!
//! This is the only solver that accepts a carried basis. The epoch loop's
//! perturbations — a revoked machine, a lost store, a repriced transfer —
//! change bounds and right-hand sides but leave the carried basis *dual
//! feasible*: the reduced costs keep their signs, only some basic values
//! land outside their bounds. The dual simplex treats that as a starting
//! point and walks back to primal feasibility directly, typically in a
//! handful of pivots. A column-generation master grown by priced columns
//! has nothing to walk: the new columns rest nonbasic at zero and leave
//! the incumbent primal feasible, so its [`Session`] resumes primal phase
//! 2 on the live worker instead of opening a new solve.
//!
//! The same holds with no carried basis at all. Every cost of the
//! scheduling LPs is non-negative, so the *slack basis* — every structural
//! at its lower bound, every slack basic — is already dual feasible, and a
//! cold solve needs no phase 1: the dual walk starts at once. An empty or
//! unmatched warm start starts there, and so does a carried basis that is
//! declined at seeding (under-full or singular), on the same standard
//! form and CSR mirror, so a declined warm start never costs a second
//! model build.
//!
//! Design notes:
//!
//! * **Same machinery, different outer loop.** The solver reuses the primal
//!   [`Worker`](crate::revised): the Markowitz sparse LU, the eta file,
//!   FTRAN/BTRAN, the pivot-row kernel, the reduced-cost update and the
//!   keyed warm-start matching. Only the pivot selection differs: the
//!   *row* (most-violated basic) is chosen first and the *column* comes
//!   out of a dual ratio test over the pivot row, which the primal loop's
//!   kernel accumulates sparsely from the CSR mirror over the support of
//!   `ρ = B⁻ᵀe_r`. The same row updates every reduced cost after the
//!   pivot, as in the primal loop, so a pivot needs neither a BTRAN for
//!   the duals nor a dot product per candidate; they are recomputed from
//!   fresh duals at each refactorization.
//! * **Bound flips, long-step ratio test.** All structural variables of the
//!   scheduling LPs are boxed in `[0, 1]`, which makes the generalized
//!   (long-step) dual ratio test effective: when the minimum-ratio column is
//!   boxed and the dual objective's slope survives pushing it to its other
//!   bound, the column flips instead of entering and the ratio test
//!   continues to the next breakpoint. One pivot can absorb many flips.
//! * **Harris two-pass tolerances.** Pass 1 finds the minimum ratio with
//!   reduced costs relaxed by a tolerance; pass 2 picks the largest pivot
//!   magnitude among columns within the relaxed minimum. Degenerate runs
//!   fall back to Bland's rule (exact ratios, smallest index) exactly like
//!   the primal solver.
//! * **Cost-shifting dual phase-1: shift, walk, finish.** A wrong-signed
//!   reduced cost (a repriced slack, or a column orphaned when a
//!   revocation forced slack completions into the basis) is temporarily
//!   *shifted* so the reduced cost is exactly zero — dual feasible, and
//!   side-effect free, because a cost shift never perturbs the primal
//!   feasible region (the unbounded-dual ⇒ infeasible-primal verdict
//!   stays sound, unlike artificial-bound schemes). The walk then works
//!   off the genuine primal damage with shifted columns held in a
//!   second-tier reserve: they enter only when a row has no unshifted way
//!   out, and a flip-thrash guard declines the walk (to the caller's cold
//!   solve, via [`LpError::DualDeclined`]) when the shifted set starts
//!   churning instead of converging. Afterwards the model's own costs are
//!   restored bit for bit and a warm primal phase-2 *finisher* absorbs any
//!   remaining cost drift — a no-op when the walk's duals already
//!   sign-corrected everything. Primal bound violations are never
//!   "repaired" here — they are the work the dual pivots do.

#![allow(clippy::needless_range_loop)] // simplex kernels read clearer with indices

use crate::basis::{BasisStatus, DeclinedBasis, DualDecline, WarmStart};
use crate::error::LpError;
use crate::model::{ConstraintId, Model, VarId};
use crate::revised::{Eta, PivotRow, SparseVec, VarState, Worker};
use crate::session::Session;
use crate::solution::Solution;
use crate::standard::StandardForm;
use crate::{PIVOT_TOL, TOL};

/// Primal step below which a dual pivot counts as degenerate.
const DEGENERATE_EPS: f64 = 1e-10;
/// Minimum dual-objective slope a bound flip must leave behind.
const SLOPE_EPS: f64 = 1e-12;

/// Re-optimize `model` by the dual simplex starting from `warm`: a
/// [`Session::open`] read out at once by [`Session::into_solution`].
///
/// An empty or unmatched `warm` starts from the slack basis and reports
/// [`WarmOutcome::Cold`](crate::WarmOutcome::Cold); so does a carried
/// basis declined at seeding, whose reason lands in
/// [`SolveStats::declined`](crate::SolveStats::declined). A carried basis
/// that is seeded but declined mid-walk returns [`LpError::DualDeclined`]
/// so the caller can fall back to a cold solve. [`LpError::Infeasible`]
/// means the dual became unbounded — the model has no feasible point.
pub fn solve_dual_from_basis(model: &Model, warm: &WarmStart) -> Result<Solution, LpError> {
    Session::open(model, warm).map(|s| s.into_solution(model))
}

/// Map a warm start's keyed statuses onto this model's standard-form
/// columns. Returns `None` when not a single status matched (treat as
/// cold — the warm start is for a different model).
pub(crate) fn match_warm_states(
    model: &Model,
    sf: &StandardForm,
    ws: &WarmStart,
) -> Option<Vec<Option<BasisStatus>>> {
    let mut states: Vec<Option<BasisStatus>> = vec![None; sf.ncols()];
    let mut matched = 0usize;
    for j in 0..sf.n_structural {
        if let Some(st) = ws.var(model.var_key(VarId(j))) {
            states[j] = Some(st);
            matched += 1;
        }
    }
    for i in 0..sf.nrows() {
        if let Some(st) = ws.row(model.constraint_key(ConstraintId(i))) {
            states[sf.n_structural + i] = Some(st);
            matched += 1;
        }
    }
    (matched > 0).then_some(states)
}

/// Seed the basis from matched warm statuses without any primal repair:
/// trim an over-full basis, complete an under-full one with slacks, and
/// factorize (degrading through the rank sweep once). Primal bound
/// violations among the basics are left in place — they are the dual
/// solver's work list, not damage. On `Err` the worker is half-seeded and
/// the caller reseeds it from the slack basis.
pub(crate) fn seed_basis(
    w: &mut Worker,
    states: &[Option<BasisStatus>],
) -> Result<(), DualDecline> {
    let m = w.m();
    let n_struct = w.sf.n_structural;
    let mut basics: Vec<usize> = Vec::new();
    for j in 0..w.n_real {
        if states[j] == Some(BasisStatus::Basic) {
            basics.push(j);
        } else {
            w.place_nonbasic(j, states[j]);
        }
    }
    // Over-full (key collisions): demote highest-index extras, the
    // cheapest to re-derive.
    while basics.len() > m {
        let j = basics.pop().unwrap_or_default();
        w.place_nonbasic(j, None);
    }
    // A slack-completed basis is a *good* dual start (the slacks are dual
    // feasible at cost zero; the violations they park on the basics are
    // the dual loop's normal work), so under-full is tolerated until the
    // basis is mostly guessed slacks — then the slack basis itself is the
    // better start.
    if m - basics.len() > m / 2 {
        return Err(DualDecline::UnderFull);
    }
    let mut in_basis = vec![false; w.n_real];
    for &j in &basics {
        in_basis[j] = true;
    }
    for i in 0..m {
        if basics.len() == m {
            break;
        }
        let s = n_struct + i;
        if !in_basis[s] {
            in_basis[s] = true;
            basics.push(s);
        }
    }
    basics.sort_unstable();
    for &j in &basics {
        w.state[j] = VarState::Basic;
    }
    w.basis = basics;
    if !refactor_or_prune(w) {
        return Err(DualDecline::Singular);
    }
    Ok(())
}

/// Refactorize, and on singularity retry once after swapping the
/// dependent columns for slacks (see [`prune_dependent_basics`]).
fn refactor_or_prune(w: &mut Worker) -> bool {
    w.refactor().is_ok() || (prune_dependent_basics(w) && w.refactor().is_ok())
}

/// Whether the basis's structural rank deficit — `m` less a maximum
/// matching of basis positions to the rows of their nonzeros — exceeds
/// `limit`. A greedy matching bounds the deficit from above, so Kuhn's
/// augmenting-path search runs only when the greedy pass leaves more than
/// `limit` positions free. It stops as soon as the verdict is known: when
/// at most `limit` positions are left unmatched, or when more than
/// `limit` have no augmenting path (such a position stays unmatched in
/// every matching that later augmentations grow from this one).
fn structurally_deficient(w: &Worker, limit: usize) -> bool {
    const FREE: usize = usize::MAX;
    let m = w.m();
    let mut ptr = Vec::with_capacity(m + 1);
    let mut rows: Vec<usize> = Vec::new();
    ptr.push(0);
    for &j in &w.basis {
        w.for_col(j, |r, v| {
            if v != 0.0 {
                rows.push(r);
            }
        });
        ptr.push(rows.len());
    }
    let mut row_match = vec![FREE; m];
    let mut free: Vec<usize> = Vec::new();
    for p in 0..m {
        match rows[ptr[p]..ptr[p + 1]]
            .iter()
            .find(|&&r| row_match[r] == FREE)
        {
            Some(&r) => row_match[r] = p,
            None => free.push(p),
        }
    }
    if free.len() <= limit {
        return false;
    }
    // One depth-first search per free position, over alternating paths:
    // a position's rows, then the positions those rows are matched to.
    // Each frame is (position, next entry, row it was entered through).
    let mut seen = vec![usize::MAX; m];
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    let (mut open, mut unmatched) = (free.len(), 0);
    for (search, &p0) in free.iter().enumerate() {
        stack.clear();
        stack.push((p0, ptr[p0], FREE));
        let mut found = false;
        while let Some(top) = stack.last_mut() {
            let (p, e) = (top.0, top.1);
            if e == ptr[p + 1] {
                stack.pop();
                continue;
            }
            top.1 += 1;
            let r = rows[e];
            if seen[r] == search {
                continue;
            }
            seen[r] = search;
            if row_match[r] == FREE {
                // Augment: every position on the path takes the row the
                // search left it through.
                row_match[r] = p;
                for i in (1..stack.len()).rev() {
                    row_match[stack[i].2] = stack[i - 1].0;
                }
                found = true;
                break;
            }
            stack.push((row_match[r], ptr[row_match[r]], r));
        }
        if found {
            open -= 1;
            if open <= limit {
                return false;
            }
        } else {
            unmatched += 1;
            if unmatched > limit {
                return true;
            }
        }
    }
    false
}

/// The seeded warm basis failed to factorize: some key-matched columns
/// no longer span the row space. Identify a maximal independent subset
/// with a dense rank-revealing elimination and replace each dependent
/// column with the slack of a row the independent set leaves uncovered
/// (slacks are unit columns, so the result is structurally nonsingular).
/// Runs only on the factorization-failure path, so the O(m³) dense sweep
/// never touches a healthy solve. Returns `false` when no full basis can
/// be assembled (the caller declines the carried basis), including
/// when more than an eighth of the rows (at least 8) are dependent: a
/// basis that far gone is mostly guessed slacks. A basis whose structural
/// rank deficit already passes that limit is declined before the sweep:
/// numerical rank never exceeds structural rank, so the sweep would count
/// more dependent columns than its limit too.
fn prune_dependent_basics(w: &mut Worker) -> bool {
    let m = w.m();
    let limit = (m / 8).max(8);
    if structurally_deficient(w, limit) {
        return false;
    }
    #[cfg(test)]
    {
        w.work.sweeps += 1;
    }
    let n_struct = w.sf.n_structural;
    // Dense copy of the seeded basis columns, a[r * m + p].
    let mut a = vec![0.0; m * m];
    for (p, &j) in w.basis.iter().enumerate() {
        w.for_col(j, |r, v| a[r * m + p] = v);
    }
    let mut row_used = vec![false; m];
    let mut dependent: Vec<usize> = Vec::new();
    for p in 0..m {
        let mut best = PIVOT_TOL;
        let mut best_row = usize::MAX;
        for (r, used) in row_used.iter().enumerate() {
            if !used && a[r * m + p].abs() > best {
                best = a[r * m + p].abs();
                best_row = r;
            }
        }
        if best_row == usize::MAX {
            dependent.push(p);
            if dependent.len() > limit {
                // Past the limit the attempt is doomed: stop the O(m³)
                // sweep here.
                return false;
            }
            continue;
        }
        row_used[best_row] = true;
        // Eliminate the pivot row from later columns. Earlier pivot rows
        // are already zero in column p, so skipping used rows is exact.
        let piv = a[best_row * m + p];
        for q in (p + 1)..m {
            let f = a[best_row * m + q] / piv;
            if f == 0.0 {
                continue;
            }
            for (r, used) in row_used.iter().enumerate() {
                if !used {
                    a[r * m + q] -= f * a[r * m + p];
                }
            }
        }
    }
    if dependent.is_empty() {
        // Full rank by this sweep yet LU refused: numerical trouble a
        // carried basis is not worth fighting.
        return false;
    }
    let mut is_basic = vec![false; w.ncols()];
    for &j in &w.basis {
        is_basic[j] = true;
    }
    let mut unused: Vec<usize> = (0..m).filter(|&r| !row_used[r]).collect();
    for &p in &dependent {
        let Some(pos) = unused.iter().position(|&r| !is_basic[n_struct + r]) else {
            return false;
        };
        let r = unused.swap_remove(pos);
        let out = w.basis[p];
        is_basic[out] = false;
        w.place_nonbasic(out, None);
        let s = n_struct + r;
        is_basic[s] = true;
        w.state[s] = VarState::Basic;
        w.basis[p] = s;
    }
    true
}

/// Seed the slack basis: every structural at its lower bound (the upper
/// one if there is none, zero if free) and every slack basic. With
/// non-negative costs this basis is dual feasible as it stands, and any
/// wrong-signed cost is left to [`restore_dual_feasibility`]'s shifts.
pub(crate) fn seed_slack_basis(w: &mut Worker) -> Result<(), LpError> {
    let n_struct = w.sf.n_structural;
    for j in 0..n_struct {
        let (lo, hi) = (w.sf.lb[j], w.sf.ub[j]);
        let (st, v) = if lo.is_finite() {
            (VarState::AtLower, lo)
        } else if hi.is_finite() {
            (VarState::AtUpper, hi)
        } else {
            (VarState::Free, 0.0)
        };
        w.state[j] = st;
        w.x[j] = v;
    }
    w.basis = (n_struct..w.n_real).collect();
    for s in n_struct..w.n_real {
        w.state[s] = VarState::Basic;
    }
    w.refactor()
}

/// Run to a *true* optimum in three acts. (1) *Shift*: every wrong-signed
/// nonbasic reduced cost — boxed or one-sided — is cost-shifted to exactly
/// zero, which is dual feasible and moves nothing: no mass bound flips, no
/// induced primal violations, and (because cost shifts never perturb the
/// primal feasible region) the unbounded-dual ⇒ infeasible-primal verdict
/// stays sound. (2) *Walk*: the dual loop works off the genuine primal
/// damage (revoked capacity, drifted rhs), with shifted columns barred
/// from long-step flipping — at ratio ≈ 0 they are natural *entering*
/// candidates, and entering is the informed move where batch-flipping
/// them would thrash. (3) *Finish*: the shifted columns get the model's
/// own costs back and a warm primal phase-2 under them absorbs whatever
/// cost drift remains — devex-priced re-optimization instead of a dual
/// flip storm, and a no-op when the walk's duals already sign-corrected
/// everything.
///
/// Returns `(dual_pivots, bound_flips)`; primal finisher iterations count
/// into `w.iterations` like any others but are not dual pivots.
pub(crate) fn shifted_dual_solve(w: &mut Worker) -> Result<(usize, usize), LpError> {
    let shifted = restore_dual_feasibility(w);
    let mut barred = vec![false; w.n_real];
    for &j in &shifted {
        barred[j] = true;
    }
    let (dual_pivots, bound_flips) = dual_loop(w, &barred, !shifted.is_empty())?;
    // Copy the costs back rather than subtract each shift: `(c − d) + d`
    // can land a few ulps off `c`, and the finisher must optimize the
    // model's own cost vector.
    for j in shifted {
        w.costs[j] = w.sf.c[j];
    }
    w.run()?;
    Ok((dual_pivots, bound_flips))
}

/// Make the nonbasic reduced costs sign-consistent by shifting each
/// wrong-signed cost so the reduced cost is exactly zero. Returns the
/// shifted columns for the caller to restore. Leaves `w.d` fresh: a shift
/// moves only its own column's cost, and no basic cost, so the duals stand
/// and every other reduced cost with them.
fn restore_dual_feasibility(w: &mut Worker) -> Vec<usize> {
    w.refresh_reduced_costs();
    let mut shifted: Vec<usize> = Vec::new();
    for j in 0..w.n_real {
        if w.state[j] == VarState::Basic || w.sf.lb[j] == w.sf.ub[j] {
            continue;
        }
        let d = w.d[j];
        let wrong = match w.state[j] {
            VarState::AtLower => d < -TOL,
            VarState::AtUpper => d > TOL,
            VarState::Free => d.abs() > TOL,
            VarState::Basic => false,
        };
        if wrong {
            w.costs[j] -= d;
            w.d[j] = 0.0;
            shifted.push(j);
        }
    }
    shifted
}

/// Pick the leaving row: the basic variable with the largest relative bound
/// violation (Bland mode: the violated basic with the smallest variable
/// index). Returns `(row, σ)` where `σ = −1` for a below-lower violation
/// and `+1` for above-upper; `None` means primal feasible — optimal.
pub(crate) fn select_leaving(w: &Worker) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for i in 0..w.m() {
        let j = w.basis[i];
        let v = w.x[j];
        let (lo, hi) = (w.sf.lb[j], w.sf.ub[j]);
        let below = lo.is_finite() && v < lo - TOL * (1.0 + lo.abs());
        let above = hi.is_finite() && v > hi + TOL * (1.0 + hi.abs());
        let viol = if below {
            lo - v
        } else if above {
            v - hi
        } else {
            continue;
        };
        if w.bland {
            match best {
                Some((bi, _)) if w.basis[bi] <= j => {}
                _ => best = Some((i, viol)),
            }
        } else {
            match best {
                Some((_, bv)) if bv >= viol => {}
                _ => best = Some((i, viol)),
            }
        }
    }
    best.map(|(i, _)| {
        let j = w.basis[i];
        let lo = w.sf.lb[j];
        let sigma = if lo.is_finite() && w.x[j] < lo {
            -1.0
        } else {
            1.0
        };
        (i, sigma)
    })
}

/// One dual ratio-test candidate: column, `ᾱ_j = σ·α_rj`, reduced cost.
struct Candidate {
    col: usize,
    abar: f64,
    d: f64,
}

impl Candidate {
    /// Breakpoint ratio `d_j / ᾱ_j`, clamped to zero (a within-tolerance
    /// wrong sign must not produce a negative step).
    fn ratio(&self) -> f64 {
        (self.d / self.abar).max(0.0)
    }
}

/// Choose the entering candidate index. Bland mode takes the smallest
/// column index attaining the exact minimum ratio; otherwise a Harris
/// two-pass picks the largest `|ᾱ|` among ratios within the relaxed
/// minimum. `None` means no eligible column: the dual is unbounded.
fn choose_entering(cand: &[Candidate], harris: f64, bland: bool) -> Option<usize> {
    if cand.is_empty() {
        return None;
    }
    if bland {
        let rmin = cand
            .iter()
            .map(Candidate::ratio)
            .fold(f64::INFINITY, f64::min);
        return cand.iter().position(|c| c.ratio() <= rmin + DEGENERATE_EPS);
    }
    let mut theta_rel = f64::INFINITY;
    for c in cand {
        let rel = (c.d.abs() + harris) / c.abar.abs();
        if rel < theta_rel {
            theta_rel = rel;
        }
    }
    let mut best: Option<(usize, f64)> = None;
    for (k, c) in cand.iter().enumerate() {
        if c.ratio() <= theta_rel {
            match best {
                Some((_, ba)) if ba >= c.abar.abs() => {}
                _ => best = Some((k, c.abar.abs())),
            }
        }
    }
    best.map(|(k, _)| k)
}

/// One walk of the dual pivot loop, from the current (dual-feasible,
/// possibly cost-shifted) basis to primal feasibility. Columns flagged in
/// `barred` (the phase-1 shifted ones) sit the walk out entirely: at a
/// shifted reduced cost of zero they would otherwise enter chaotically at
/// ratio ≈ 0 — hundreds of them after a churn epoch swaps jobs in — when
/// the devex-priced primal finisher brings them in far more cheaply.
/// `any_barred` downgrades the no-candidate verdict from "infeasible" to
/// "not dual feasible", since a dual ray found while columns are barred
/// may be an artifact of the restriction. Returns the `(dual_pivots,
/// bound_flips)` this walk performed.
#[allow(clippy::too_many_lines)] // one pivot iteration reads best as a unit
fn dual_loop(w: &mut Worker, barred: &[bool], any_barred: bool) -> Result<(usize, usize), LpError> {
    let m = w.m();
    let n = w.n_real;
    let harris = TOL;
    let mut row = PivotRow::new(m, n);
    let mut wvec = SparseVec::new(m);
    let mut flip_rhs = SparseVec::new(m);
    let mut dual_pivots = 0usize;
    let mut bound_flips = 0usize;
    let mut tiny_pivot_retries = 0usize;
    // `w.d` is updated after each pivot from the pivot row (no BTRAN for
    // the duals and no column dot products per pivot) and recomputed from
    // fresh duals after a refactorization; the cost shifts left it fresh.
    let mut d_fresh = true;

    loop {
        if w.iterations >= w.opts.max_iterations {
            return Err(LpError::IterationLimit {
                iterations: w.iterations,
            });
        }
        let Some((r, sigma)) = select_leaving(w) else {
            return Ok((dual_pivots, bound_flips)); // primal feasible
        };
        // Flip-thrash guard: a healthy long-step walk flips at most a
        // small multiple of its pivot count. When shifted columns are in
        // play and flips outrun pivots by 4×, the walk is shuffling the
        // shifted set instead of repairing primal damage (a churn-epoch
        // storm) — decline to a cold solve before burning the budget.
        if any_barred && bound_flips > 4 * dual_pivots + 256 {
            return Err(thrash(w));
        }

        // Pivot row α_r = (B⁻ᵀe_r)ᵀA. Its columns are put in column order
        // so candidates run in column order — deterministic tie-breaks
        // for free.
        w.pivot_row(r, &mut row);
        if row.touched.len() * 16 > n {
            // A dense pivot row: one scan of `alpha` costs less than the
            // sort (columns whose sum cancelled to zero drop out, which
            // changes nothing — they are never eligible).
            row.touched.clear();
            row.touched.extend((0..n).filter(|&j| row.alpha[j] != 0.0));
        } else {
            row.touched.sort_unstable();
            row.touched.dedup();
        }

        if !d_fresh {
            w.refresh_reduced_costs();
            d_fresh = true;
        }
        let mut cand: Vec<Candidate> = Vec::with_capacity(row.touched.len());
        let mut reserve: Vec<Candidate> = Vec::new();
        for &j in &row.touched {
            if w.state[j] == VarState::Basic || w.sf.lb[j] == w.sf.ub[j] {
                continue;
            }
            let abar = sigma * row.alpha[j];
            let eligible = match w.state[j] {
                VarState::AtLower => abar > PIVOT_TOL,
                VarState::AtUpper => abar < -PIVOT_TOL,
                VarState::Free => abar.abs() > PIVOT_TOL,
                VarState::Basic => false,
            };
            if eligible {
                let c = Candidate {
                    col: j,
                    abar,
                    d: w.d[j],
                };
                // Shifted columns are second-tier: they only enter when a
                // row has no unshifted way out, so the walk stays on the
                // carried column set and the finisher prices the rest.
                if barred[j] {
                    reserve.push(c);
                } else {
                    cand.push(c);
                }
            }
        }

        // Long-step ratio test: flip boxed breakpoint columns while the
        // dual objective's slope survives, then enter at the first
        // breakpoint that exhausts it. Nothing is mutated until the pivot
        // element is confirmed, so a refactor-retry restarts cleanly.
        let out = w.basis[r];
        let mut slope = if sigma < 0.0 {
            w.sf.lb[out] - w.x[out]
        } else {
            w.x[out] - w.sf.ub[out]
        };
        let mut flips_this: Vec<usize> = Vec::new();
        let entering = loop {
            let Some(k) = choose_entering(&cand, harris, w.bland) else {
                if let Some(k) = choose_entering(&reserve, harris, w.bland) {
                    // A shifted column is the only way out of this row.
                    break reserve.swap_remove(k);
                }
                if any_barred {
                    // The restriction to unshifted columns may be what
                    // starved the ratio test: decline rather than
                    // misreport the true model as infeasible.
                    return Err(thrash(w));
                }
                // No breakpoint left: the dual ray is unbounded, so the
                // perturbed primal admits no feasible point.
                return Err(LpError::Infeasible);
            };
            let boxed = w.sf.lb[cand[k].col].is_finite() && w.sf.ub[cand[k].col].is_finite();
            let gap = w.sf.ub[cand[k].col] - w.sf.lb[cand[k].col];
            if !w.bland && boxed && slope - gap * cand[k].abar.abs() > SLOPE_EPS {
                slope -= gap * cand[k].abar.abs();
                let c = cand.remove(k);
                flips_this.push(c.col);
                continue;
            }
            break cand.swap_remove(k);
        };
        let q = entering.col;

        // FTRAN the entering column; its r-th component is the
        // authoritative pivot element.
        wvec.clear();
        w.for_col(q, |ri, v| {
            wvec.val[ri] += v;
            wvec.nz.push(ri);
        });
        w.ftran(&mut wvec);
        let piv = wvec.val[r];
        if piv.abs() <= PIVOT_TOL {
            // The CSR-accumulated α_rq disagreed with the FTRAN through
            // stale etas: refactorize and retry the iteration with fresh
            // numerics, giving up after repeated failures.
            tiny_pivot_retries += 1;
            if tiny_pivot_retries > 2 {
                return Err(LpError::SingularBasis);
            }
            row.clear();
            w.refactor()?;
            d_fresh = false;
            continue;
        }
        tiny_pivot_retries = 0;
        w.ftran_nnz += wvec.nz.len() as u64;

        // Apply the accumulated bound flips: one FTRAN for the whole batch.
        if !flips_this.is_empty() {
            flip_rhs.clear();
            for &j in &flips_this {
                let (st, xv) = match w.state[j] {
                    VarState::AtLower => (VarState::AtUpper, w.sf.ub[j]),
                    _ => (VarState::AtLower, w.sf.lb[j]),
                };
                let dx = xv - w.x[j];
                w.for_col(j, |ri, v| {
                    flip_rhs.val[ri] += v * dx;
                    flip_rhs.nz.push(ri);
                });
                w.state[j] = st;
                w.x[j] = xv;
                bound_flips += 1;
            }
            w.ftran(&mut flip_rhs);
            for &i in &flip_rhs.nz {
                w.x[w.basis[i]] -= flip_rhs.val[i];
            }
        }

        // Pivot: x_q moves by −δ/α_rq, which lands x_out exactly on its
        // violated bound (δ re-read after the flips moved the basics).
        let target = if sigma < 0.0 {
            w.sf.lb[out]
        } else {
            w.sf.ub[out]
        };
        let delta = target - w.x[out];
        let step = -delta / piv;
        for &i in &wvec.nz {
            w.x[w.basis[i]] -= wvec.val[i] * step;
        }
        w.x[q] += step;
        w.state[out] = if sigma < 0.0 {
            VarState::AtLower
        } else {
            VarState::AtUpper
        };
        w.x[out] = target;
        w.basis[r] = q;
        w.state[q] = VarState::Basic;
        // d' = d − (d_q / α_rq)·α_r: the entering column prices to zero,
        // the leaving one to −d_q / α_rq, columns off the pivot row keep
        // theirs.
        w.update_reduced_costs(&mut row, q, out, entering.d / piv, false);

        w.etas.push(Eta::new(r, &wvec));
        if w.etas.len() >= w.opts.refactor_interval {
            w.refactor()?;
            d_fresh = false;
        }

        // Degeneracy bookkeeping → Bland switch, mirroring the primal loop.
        if step.abs() <= DEGENERATE_EPS {
            w.degenerate_run += 1;
            if w.degenerate_run > w.opts.bland_trigger {
                w.bland = true;
            }
        } else {
            w.degenerate_run = 0;
            w.bland = false;
        }
        w.iterations += 1;
        dual_pivots += 1;
        #[cfg(test)]
        {
            w.work
                .first_dual_pivot_refreshes
                .get_or_insert(w.work.refreshes);
        }
    }
}

/// The decline of a walk over cost-shifted columns, after the pivots it
/// spent.
fn thrash(w: &Worker) -> LpError {
    LpError::DualDeclined(DeclinedBasis {
        reason: DualDecline::Thrash,
        pivots: w.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{name_key, WarmOutcome};
    use crate::model::{Cmp, Model, Sense};
    use crate::revised::RevisedOptions;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    /// Build the textbook LP, solve it primally, and return model+basis.
    fn textbook() -> (Model, WarmStart) {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18, 0<=x,y<=10.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 3.0);
        let y = m.add_var("y", 0.0, 10.0, 5.0);
        let c0 = m.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        let c1 = m.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        let c2 = m.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        m.name_constraint(c0, "c0");
        m.name_constraint(c1, "c1");
        m.name_constraint(c2, "c2");
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 36.0);
        let ws = sol.warm_start().unwrap().clone();
        (m, ws)
    }

    #[test]
    fn reoptimizes_after_rhs_tightening() {
        let (_m, ws) = textbook();
        // Tighten the joint capacity row enough to push the basic x
        // below its lower bound: the old basis stays dual feasible but
        // primal-violated, and the dual walk fixes it.
        let mut m2 = Model::new(Sense::Maximize);
        let x = m2.add_var("x", 0.0, 10.0, 3.0);
        let y = m2.add_var("y", 0.0, 10.0, 5.0);
        let c0 = m2.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        let c1 = m2.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        let c2 = m2.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 10.0);
        m2.name_constraint(c0, "c0");
        m2.name_constraint(c1, "c1");
        m2.name_constraint(c2, "c2");
        let dual_sol = solve_dual_from_basis(&m2, &ws).unwrap();
        let fresh = m2.solve().unwrap();
        assert_close(dual_sol.objective(), fresh.objective());
        assert_eq!(dual_sol.stats().warm, WarmOutcome::Dual);
        assert!(dual_sol.stats().dual_pivots > 0);
        assert_eq!(dual_sol.stats().phase1_iterations, 0);

        // Rows added and removed, the survivor in a new position: named
        // rows let the basis follow it.
        let mut m3 = Model::new(Sense::Maximize);
        let x = m3.add_var("x", 0.0, 10.0, 3.0);
        let y = m3.add_var("y", 0.0, 10.0, 5.0);
        let z = m3.add_var("z", 0.0, 5.0, 1.0);
        let fresh_row = m3.add_constraint([(y, 1.0), (z, 1.0)], Cmp::Le, 7.0);
        let c2 = m3.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        m3.name_constraint(fresh_row, "fresh");
        m3.name_constraint(c2, "c2");
        let dual_sol = solve_dual_from_basis(&m3, &ws).unwrap();
        assert_close(dual_sol.objective(), m3.solve().unwrap().objective());
        assert!(m3.is_feasible(dual_sol.values(), 1e-6));
    }

    #[test]
    fn noop_resolve_takes_zero_pivots() {
        let (m, ws) = textbook();
        let dual_sol = solve_dual_from_basis(&m, &ws).unwrap();
        assert_close(dual_sol.objective(), 36.0);
        assert_eq!(dual_sol.stats().dual_pivots, 0);
        assert_eq!(dual_sol.stats().bound_flips, 0);

        // An equality-constrained model needs phase 1 cold; from its own
        // optimal basis it needs no pivot at all.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
        let cold = m.solve().unwrap();
        assert!(cold.stats().phase1_iterations > 0);
        let again = solve_dual_from_basis(&m, cold.warm_start().unwrap()).unwrap();
        assert_eq!(again.stats().warm, WarmOutcome::Dual);
        assert_eq!(again.iterations(), 0);
        assert_close(again.objective(), cold.objective());
    }

    /// min 2x + 3y + z  s.t.  x + y >= 4,  x + 3y + z >= 6,  y + z = 2,
    /// 0 <= x,y,z <= 5: non-negative costs, so the slack basis is dual
    /// feasible, and every row is violated by it.
    fn covering() -> Model {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 5.0, 2.0);
        let y = m.add_var("y", 0.0, 5.0, 3.0);
        let z = m.add_var("z", 0.0, 5.0, 1.0);
        let c0 = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let c1 = m.add_constraint([(x, 1.0), (y, 3.0), (z, 1.0)], Cmp::Ge, 6.0);
        let c2 = m.add_constraint([(y, 1.0), (z, 1.0)], Cmp::Eq, 2.0);
        m.name_constraint(c0, "c0");
        m.name_constraint(c1, "c1");
        m.name_constraint(c2, "c2");
        m
    }

    #[test]
    fn slack_start_reaches_cold_optimum_without_phase1() {
        let m = covering();
        let cold = m.solve().unwrap();
        assert_eq!(cold.stats().warm, WarmOutcome::Cold);
        assert!(
            cold.stats().phase1_iterations > 0,
            "the primal needs phase 1 here"
        );
        let dual = solve_dual_from_basis(&m, &WarmStart::new()).unwrap();
        assert_close(dual.objective(), cold.objective());
        assert!(m.is_feasible(dual.values(), 1e-7));
        assert_eq!(dual.stats().warm, WarmOutcome::Cold);
        assert_eq!(dual.stats().phase1_iterations, 0);
        assert!(dual.stats().dual_pivots > 0);
        assert_eq!(dual.stats().declined, None);
        // A warm start for another model matches nothing: same slack start.
        let mut alien = WarmStart::new();
        alien.set_var(name_key("a"), BasisStatus::Basic);
        let again = solve_dual_from_basis(&m, &alien).unwrap();
        assert_eq!(again.stats().warm, WarmOutcome::Cold);
        assert_eq!(again.objective().to_bits(), dual.objective().to_bits());
        // One claiming every column basic is trimmed to a full basis and
        // still reaches the optimum.
        let mut all_basic = WarmStart::new();
        for v in ["x", "y", "z"] {
            all_basic.set_var(name_key(v), BasisStatus::Basic);
        }
        for r in ["c0", "c1", "c2"] {
            all_basic.set_row(name_key(r), BasisStatus::Basic);
        }
        let trimmed = solve_dual_from_basis(&m, &all_basic).unwrap();
        assert_close(trimmed.objective(), cold.objective());
        assert!(m.is_feasible(trimmed.values(), 1e-7));
    }

    #[test]
    fn slack_start_shifts_wrong_signed_costs() {
        // The textbook LP maximizes positive costs: negated, the slack
        // basis is dual infeasible and cost shifting carries the start.
        let (m, _) = textbook();
        let sol = solve_dual_from_basis(&m, &WarmStart::new()).unwrap();
        assert_close(sol.objective(), 36.0);
        assert_eq!(sol.stats().warm, WarmOutcome::Cold);
        assert_eq!(sol.stats().phase1_iterations, 0);
    }

    #[test]
    fn one_fresh_pricing_before_the_first_dual_pivot() {
        // The covering LP starts dual feasible; with a negative-cost column
        // its slack start shifts that cost. Either way the walk starts on
        // the reduced costs the shift pass priced: one refresh in all.
        let mut shifted = covering();
        let w = shifted.add_var("w", 0.0, 1.0, -1.0);
        shifted.add_constraint([(w, 1.0)], Cmp::Ge, 0.5);
        for m in [covering(), shifted] {
            let sf = StandardForm::from_model(&m);
            let mut w = Worker::new(sf, RevisedOptions::default());
            seed_slack_basis(&mut w).unwrap();
            w.set_phase2_costs();
            shifted_dual_solve(&mut w).unwrap();
            assert_eq!(w.work.first_dual_pivot_refreshes, Some(1));
        }
    }

    #[test]
    fn under_full_carried_basis_restarts_from_slack_basis() {
        let m = covering();
        // One basic out of three rows: under-full past the half-way mark.
        let mut sparse = WarmStart::new();
        sparse.set_var(name_key("x"), BasisStatus::Basic);
        sparse.set_var(name_key("y"), BasisStatus::AtLower);
        sparse.set_row(name_key("c0"), BasisStatus::AtLower);
        sparse.set_row(name_key("c1"), BasisStatus::AtLower);
        sparse.set_row(name_key("c2"), BasisStatus::AtLower);
        let sol = solve_dual_from_basis(&m, &sparse).unwrap();
        assert_close(sol.objective(), m.solve().unwrap().objective());
        assert_eq!(sol.stats().warm, WarmOutcome::Cold);
        assert_eq!(
            sol.stats().declined,
            Some(DeclinedBasis {
                reason: DualDecline::UnderFull,
                pivots: 0
            })
        );
        // The carried optimum itself is accepted as a dual start.
        let ws = sol.warm_start().unwrap();
        let again = solve_dual_from_basis(&m, ws).unwrap();
        assert_eq!(again.stats().warm, WarmOutcome::Dual);
        assert_eq!(again.stats().declined, None);
        assert_eq!(again.stats().dual_pivots, 0);
    }

    /// Twenty rows; `x0` covers them all, `x1..=x{tied}` share row 0, and
    /// `tied + 1..=9` more columns sit alone in rows 10 and up. A warm
    /// start making every column basic completes the basis with the slacks
    /// of the first rows, so the tied columns compete for row 0 with one
    /// slack: a structural rank deficit of `tied`.
    fn tied_basis(tied: usize) -> Result<(), DualDecline> {
        let mut m = Model::minimize();
        let n = tied.max(9) + 1;
        let x: Vec<VarId> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), 0.0, 1.0, 1.0))
            .collect();
        for r in 0..20 {
            let mut terms = vec![(x[0], 1.0)];
            if r == 0 {
                terms.extend((1..=tied).map(|i| (x[i], 1.0 + i as f64)));
            }
            if r >= 10 && tied + r - 9 < n {
                terms.push((x[tied + r - 9], 1.0));
            }
            m.add_constraint(terms, Cmp::Le, 100.0);
        }
        let mut ws = WarmStart::new();
        for i in 0..n {
            ws.set_var(name_key(&format!("x{i}")), BasisStatus::Basic);
        }
        let sf = StandardForm::from_model(&m);
        let states = match_warm_states(&m, &sf, &ws).unwrap();
        let mut w = Worker::new(sf, RevisedOptions::default());
        let seeded = seed_basis(&mut w, &states);
        // The deficit passes the limit of 8 exactly when the basis is
        // declined after the failed factorization, without a rank sweep.
        // Either way the first attempt found the basis singular.
        let (refactors, sweeps) = if tied > 8 { (1, 0) } else { (2, 1) };
        assert_eq!(
            (w.refactors, w.singular_refactors, w.work.sweeps),
            (refactors, 1, sweeps),
            "tied {tied}"
        );
        // A session reports the failed attempt too: the slack basis it
        // falls back to, and every later refactorization, factorize.
        let stats = Session::open(&m, &ws).unwrap().stats();
        assert_eq!(stats.singular_refactors, 1, "tied {tied}");
        assert!(stats.refactors > stats.singular_refactors, "tied {tied}");
        seeded
    }

    #[test]
    fn structurally_deficient_basis_declines_before_the_sweep() {
        assert_eq!(tied_basis(11), Err(DualDecline::Singular));
        assert_eq!(tied_basis(9), Err(DualDecline::Singular));
        // Within the limit the sweep still swaps the tied columns out.
        assert_eq!(tied_basis(3), Ok(()));
        assert_eq!(tied_basis(8), Ok(()));
    }

    #[test]
    fn detects_infeasibility_after_tightening() {
        // x + y >= 5 with x,y in [0,1] is infeasible; seed from the
        // feasible wide version's basis.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 4.0, 1.0);
        let y = m.add_var("y", 0.0, 4.0, 2.0);
        let c = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        m.name_constraint(c, "cover");
        let ws = m.solve().unwrap().warm_start().unwrap().clone();

        let mut m2 = Model::minimize();
        let x = m2.add_var("x", 0.0, 1.0, 1.0);
        let y = m2.add_var("y", 0.0, 1.0, 2.0);
        let c = m2.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        m2.name_constraint(c, "cover");
        let err = solve_dual_from_basis(&m2, &ws).unwrap_err();
        assert_eq!(err, LpError::Infeasible);

        // A bound edit instead of a row edit: x ≥ 4 once held with x basic
        // at 4; with x ≤ 2 no point is left.
        let mut m3 = Model::minimize();
        let x = m3.add_var("x", 0.0, 10.0, 1.0);
        m3.add_constraint([(x, 1.0)], Cmp::Ge, 4.0);
        let ws = m3.solve().unwrap().warm_start().unwrap().clone();
        let mut m4 = Model::minimize();
        let x = m4.add_var("x", 0.0, 2.0, 1.0);
        m4.add_constraint([(x, 1.0)], Cmp::Ge, 4.0);
        assert_eq!(
            solve_dual_from_basis(&m4, &ws).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn objective_drift_resolves_without_dual_pivots() {
        // Boxed LP where flipping the cost sign moves the optimum to the
        // opposite bounds without any constraint becoming binding: the
        // basis stays primal feasible, so the dual walk has nothing to do
        // and the primal finisher absorbs the drift as pure bound flips.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        let c = m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        m.name_constraint(c, "cap");
        let ws = m.solve().unwrap().warm_start().unwrap().clone();

        let mut m2 = Model::minimize();
        let x = m2.add_var("x", 0.0, 1.0, -1.0);
        let y = m2.add_var("y", 0.0, 1.0, -1.0);
        let c = m2.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        m2.name_constraint(c, "cap");
        let dual_sol = solve_dual_from_basis(&m2, &ws).unwrap();
        assert_close(dual_sol.objective(), -2.0);
        assert_eq!(dual_sol.stats().dual_pivots, 0);
        // Two primal bound-flip iterations, nothing structural.
        assert!(dual_sol.stats().iterations <= 2);

        // Jittered costs on the textbook LP keep its basis primal
        // feasible: the finisher alone re-optimizes, in no more pivots
        // than a cold solve.
        let (_, ws) = textbook();
        let mut m3 = Model::new(Sense::Maximize);
        let x = m3.add_var("x", 0.0, 10.0, 3.4);
        let y = m3.add_var("y", 0.0, 10.0, 1.9);
        let c0 = m3.add_constraint([(x, 1.0)], Cmp::Le, 4.0);
        let c1 = m3.add_constraint([(y, 2.0)], Cmp::Le, 12.0);
        let c2 = m3.add_constraint([(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        m3.name_constraint(c0, "c0");
        m3.name_constraint(c1, "c1");
        m3.name_constraint(c2, "c2");
        let cold = m3.solve().unwrap();
        let warm = solve_dual_from_basis(&m3, &ws).unwrap();
        assert_eq!(warm.stats().warm, WarmOutcome::Dual);
        assert_eq!(warm.stats().dual_pivots, 0);
        assert_close(warm.objective(), cold.objective());
        assert!(warm.iterations() <= cold.iterations());
    }

    #[test]
    fn matches_primal_on_random_perturbations() {
        // Deterministic xorshift; perturb rhs/costs and compare the dual
        // re-solve against a from-scratch primal solve.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut checked = 0usize;
        for _case in 0..60 {
            let nv = 2 + (rng() * 4.0) as usize;
            let nc = 1 + (rng() * 3.0) as usize;
            // Shared structure, sampled once.
            let costs: Vec<f64> = (0..nv).map(|_| 1.0 + rng()).collect();
            let coeffs: Vec<f64> = (0..nc * nv).map(|_| 0.5 + rng()).collect();
            let rhs: Vec<f64> = (0..nc).map(|_| 0.5 + rng()).collect();
            let build = |rhs_scale: f64, cost_bump: f64| {
                let mut m = Model::minimize();
                let vars: Vec<_> = (0..nv)
                    .map(|j| m.add_var(format!("v{j}"), 0.0, 1.0, costs[j] + cost_bump))
                    .collect();
                for i in 0..nc {
                    let terms: Vec<_> = vars
                        .iter()
                        .enumerate()
                        .map(|(j, &v)| (v, coeffs[i * nv + j]))
                        .collect();
                    let c = m.add_constraint(terms, Cmp::Ge, rhs_scale * rhs[i]);
                    m.name_constraint(c, format!("r{i}"));
                }
                m
            };
            let base = build(1.0, 0.0);
            let Ok(sol) = base.solve() else { continue };
            let ws = sol.warm_start().unwrap().clone();
            // Perturb: scale rhs up (basics pushed past bounds) and bump
            // costs uniformly (reduced costs drift but stay sign-safe for
            // a min-sense covering LP).
            let perturbed = build(1.4, 0.25);
            let Ok(fresh) = perturbed.solve() else {
                continue;
            };
            match solve_dual_from_basis(&perturbed, &ws) {
                Ok(d) => {
                    assert_close(d.objective(), fresh.objective());
                    checked += 1;
                }
                Err(LpError::DualDeclined(_)) => {} // honest fallback
                Err(e) => panic!("unexpected dual error: {e}"),
            }
        }
        assert!(checked > 10, "only {checked} dual re-solves succeeded");
    }

    #[test]
    fn finisher_sees_the_model_costs_bit_for_bit() {
        // Cost edits leave nonbasic structurals wrong-signed under the
        // carried basis's duals. Each is shifted for the walk and must get
        // the model's own cost back exactly: `(c − d) + d` need not be `c`.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let (nv, nc) = (8, 3);
        let mut shifted_structurals = 0usize;
        for _case in 0..20 {
            let coeffs: Vec<f64> = (0..nc * nv).map(|_| 0.3 + rng()).collect();
            let rhs: Vec<f64> = (0..nc).map(|_| 1.0 + rng()).collect();
            let build = |costs: &[f64]| {
                let mut m = Model::minimize();
                let vars: Vec<_> = (0..nv)
                    .map(|j| m.add_var(format!("v{j}"), 0.0, 1.0, costs[j]))
                    .collect();
                for i in 0..nc {
                    let terms: Vec<_> = (0..nv).map(|j| (vars[j], coeffs[i * nv + j])).collect();
                    let c = m.add_constraint(terms, Cmp::Ge, rhs[i]);
                    m.name_constraint(c, format!("r{i}"));
                }
                m
            };
            let costs: Vec<f64> = (0..nv).map(|_| 0.5 + rng()).collect();
            let Ok(sol) = build(&costs).solve() else {
                continue;
            };
            let ws = sol.warm_start().unwrap().clone();
            let edited: Vec<f64> = costs.iter().map(|c| c - 0.6 * rng()).collect();
            let m = build(&edited);
            let sf = StandardForm::from_model(&m);
            let opts = RevisedOptions::default();
            let states = match_warm_states(&m, &sf, &ws).unwrap();
            let mut w = Worker::new(sf, opts.clone());
            assert!(seed_basis(&mut w, &states).is_ok());
            w.set_phase2_costs();
            let y = w.current_duals();
            shifted_structurals += (0..w.sf.n_structural)
                .filter(|&j| w.state[j] == VarState::AtLower && w.reduced_cost(&y, j) < -crate::TOL)
                .count();
            if shifted_dual_solve(&mut w).is_err() {
                continue;
            }
            let costs: Vec<u64> = w.costs[..w.n_real].iter().map(|c| c.to_bits()).collect();
            let model: Vec<u64> = w.sf.c.iter().map(|c| c.to_bits()).collect();
            assert_eq!(costs, model);
        }
        assert!(
            shifted_structurals > 10,
            "only {shifted_structurals} shifts"
        );
    }
}
