//! Sparse LU factorization of the simplex basis.
//!
//! The scheduling LPs produce bases that are overwhelmingly sparse: most
//! basic columns are slacks (unit vectors) and the structural columns have
//! a handful of nonzeros each. A dense factorization pays `O(m³)` and
//! `O(m²)` memory regardless; this module factorizes in time roughly
//! proportional to the fill-in it creates.
//!
//! Design:
//!
//! * **Right-looking elimination with Markowitz ordering.** At each step
//!   the pivot `(i, j)` minimizes `(r_i − 1)(c_j − 1)` (the worst-case
//!   fill) among entries passing relative threshold pivoting
//!   (`|a_ij| ≥ 0.1 · max |a_·j|`), which balances sparsity against
//!   numerical stability — the classical compromise from Markowitz 1957 /
//!   Suhl & Suhl 1990.
//! * **Singletons first, from a live set.** A zero-cost pivot — a column
//!   singleton, or an entry whose row no other active column holds —
//!   cannot be beaten, so the lowest basis position offering one is taken
//!   before any Markowitz search, as in Suhl & Suhl. Those positions live
//!   in a bitset that a step re-evaluates only for the columns it changed
//!   and the columns of rows whose count reached or left one, so a
//!   slack-heavy basis factorizes in time linear in its nonzeros. The
//!   Markowitz scan runs only when the set is empty, over a compacted
//!   list of the active columns. Both searches pick exactly what a scan
//!   of every active column in position order would (the test module
//!   keeps that scan as the oracle).
//! * **Factors stored sparsely.** `L` is a sequence of elimination steps
//!   (pivot row + multiplier list), `U` a per-step column of upper
//!   entries. Each factor also keeps its step graph both ways round: the
//!   step each `L` entry's row is pivoted at, and the row-wise structure
//!   of `U` and of `L`.
//! * **Hypersparse solves.** A simplex right-hand side is a column or a
//!   unit vector, and so is most of its solution: on the scheduler's
//!   bases an FTRAN result has about a dozen nonzeros out of ~150 rows.
//!   FTRAN and BTRAN therefore find the steps reachable from the
//!   right-hand side's nonzeros in the step graph (Gilbert & Peierls
//!   1988; Hall & McKinnon, "Hyper-sparsity in the revised simplex
//!   method", 2005), sort that reach into elimination order and do the
//!   dense loops' arithmetic on the reached steps only, the same operands
//!   in the same order. Every nonzero of the result is bitwise what the
//!   dense loops give; only an entry the solve never reaches stays `+0.0`
//!   where the dense loops could leave `−0.0`. A right-hand side or an
//!   `L` reach above a fixed share of the rows runs the dense loops.
//! * **Caller-owned workspaces.** The factorization input (the basis
//!   columns), the elimination workspace ([`LuWork`]) and the solve
//!   workspace ([`SolveWork`]) are caller-provided and reused across
//!   refactorizations, so the steady-state solver allocates only the
//!   factors it returns.

use crate::bitset::BitSet;
use crate::error::LpError;

/// Relative threshold for Markowitz pivot admissibility: a candidate must
/// be at least this fraction of the largest magnitude in its column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// A solve whose right-hand side, or whose reach through `L`, has more
/// than `m / HYPERSPARSE_DIVISOR` steps of an `m`-row basis runs the dense
/// loops: past that share, sorting the reach costs more than the steps it
/// skips.
const HYPERSPARSE_DIVISOR: usize = 8;

/// The magnitude a pivot candidate in `col` must reach (threshold
/// pivoting), or `None` when the whole column is within `pivot_tol` of
/// zero.
fn admission(col: &[(usize, f64)], pivot_tol: f64) -> Option<f64> {
    let colmax = col.iter().map(|&(_, v)| v.abs()).fold(0.0f64, f64::max);
    (colmax > pivot_tol).then_some(MARKOWITZ_THRESHOLD * colmax)
}

/// The zero-cost pivot column `col` offers: among its admissible entries
/// that are a column singleton or alone in their row, the first of
/// largest `|v|`, as `(row, value)`.
fn zero_cost_pivot(
    col: &[(usize, f64)],
    row_count: &[usize],
    pivot_tol: f64,
) -> Option<(usize, f64)> {
    let admit = admission(col, pivot_tol)?;
    let singleton = col.len() == 1;
    let mut best: Option<(usize, f64)> = None;
    for &(r, v) in col {
        if v.abs() < admit || v.abs() <= pivot_tol || !(singleton || row_count[r] == 1) {
            continue;
        }
        if best.is_none_or(|(_, bv)| v.abs() > bv.abs()) {
            best = Some((r, v));
        }
    }
    best
}

/// The Markowitz pivot over the `active` columns, in the order given:
/// least `(row_count − 1)·(ccount − 1)`, ties to the larger `|v|`, then
/// to the first seen. Returns `(row, column, value)`.
fn markowitz_pivot(
    cols: &[Vec<(usize, f64)>],
    active: &[usize],
    row_count: &[usize],
    pivot_tol: f64,
) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, usize, f64, usize)> = None; // (row, col, val, cost)
    for &j in active {
        let col = &cols[j];
        let Some(admit) = admission(col, pivot_tol) else {
            continue;
        };
        let ccount = col.len();
        for &(r, v) in col {
            if v.abs() < admit || v.abs() <= pivot_tol {
                continue;
            }
            let cost = (row_count[r] - 1) * (ccount - 1);
            let better = match best {
                None => true,
                // On Markowitz ties prefer the larger pivot.
                Some((_, _, bv, bcost)) => cost < bcost || (cost == bcost && v.abs() > bv.abs()),
            };
            if better {
                best = Some((r, j, v, cost));
            }
        }
    }
    best.map(|(r, j, v, _)| (r, j, v))
}

/// Elimination workspace of [`SparseLu::factorize`], owned by the caller
/// and reused across refactorizations: after the first factorization of
/// a basis size, refactorizing allocates only the factors.
#[derive(Debug, Default)]
pub struct LuWork {
    /// Upper entries per column position, remapped to steps at the end.
    upper: Vec<Vec<(usize, f64)>>,
    col_active: Vec<bool>,
    /// `row_count[r]` = number of active columns containing row `r`
    /// (kept exact).
    row_count: Vec<usize>,
    /// `row_cols[r]` = columns that may contain row `r` (lazily pruned).
    row_cols: Vec<Vec<usize>>,
    /// Dense scratch for the column updates; all zero between steps.
    acc: Vec<f64>,
    /// The pivot column's multipliers.
    lmults: Vec<(usize, f64)>,
    /// Active columns offering a zero-cost pivot ([`zero_cost_pivot`]).
    zero: BitSet,
    /// No member of `zero` lies below this position.
    zero_lo: usize,
    /// Active columns in ascending order, compacted before each Markowitz
    /// scan.
    active: Vec<usize>,
    /// Columns the current step eliminated the pivot row from.
    touched: Vec<usize>,
    /// Rows whose count the current step changed, with the count before.
    dirty: Vec<(usize, usize)>,
    /// The step that last noted each row in `dirty`.
    row_step: Vec<usize>,
    /// The step that last re-evaluated each column's `zero` membership.
    col_step: Vec<usize>,
    /// Column entries the pivot search visited (zero-set evaluations,
    /// picks and Markowitz scans).
    #[cfg(test)]
    visits: usize,
}

impl LuWork {
    /// Size every buffer for an `m`-row basis and clear it.
    fn reset(&mut self, m: usize) {
        reset_lists(&mut self.upper, m);
        reset_lists(&mut self.row_cols, m);
        reset_to(&mut self.col_active, m, true);
        reset_to(&mut self.row_count, m, 0);
        reset_to(&mut self.acc, m, 0.0);
        reset_to(&mut self.row_step, m, usize::MAX);
        reset_to(&mut self.col_step, m, usize::MAX);
        self.lmults.clear();
        self.zero.reset(m);
        self.zero_lo = 0;
        self.active.clear();
        self.active.extend(0..m);
        self.touched.clear();
        self.dirty.clear();
        #[cfg(test)]
        {
            self.visits = 0;
        }
    }
}

/// Make `lists` `m` empty lists, keeping every allocation.
fn reset_lists<T>(lists: &mut Vec<Vec<T>>, m: usize) {
    lists.truncate(m);
    lists.iter_mut().for_each(Vec::clear);
    lists.resize_with(m, Vec::new);
}

/// Refill `v` with `m` copies of `x`, keeping its allocation.
fn reset_to<T: Copy>(v: &mut Vec<T>, m: usize, x: T) {
    v.clear();
    v.resize(m, x);
}

/// Record row `r` in `dirty` with `count`, its count before step `k`
/// first changes it.
fn note_row(
    dirty: &mut Vec<(usize, usize)>,
    row_step: &mut [usize],
    count: usize,
    r: usize,
    k: usize,
) {
    if row_step[r] != k {
        row_step[r] = k;
        dirty.push((r, count));
    }
}

/// Sparse `B = L·U` factorization (row and column permutations implicit in
/// the pivot order).
///
/// Both factors are stored *flat-packed* (CSR-style pointer/index/value
/// triples) rather than as per-step `Vec<Vec<_>>`: a dense solve walks
/// every stored nonzero, and with one contiguous allocation per factor
/// that walk is a linear scan instead of a pointer chase through `m`
/// separate heap blocks. The step graphs the hypersparse solves search
/// are packed the same way.
#[derive(Debug, Clone)]
pub struct SparseLu {
    m: usize,
    /// `prow[k]` = original row pivoted at elimination step `k`.
    prow: Vec<usize>,
    /// `pcol[k]` = basis *position* (column index) pivoted at step `k`.
    pcol: Vec<usize>,
    /// `rstep[r]` = the step that pivots row `r` (inverse of `prow`).
    rstep: Vec<usize>,
    /// `cstep[p]` = the step that pivots position `p` (inverse of `pcol`).
    cstep: Vec<usize>,
    /// Step `k`'s L multipliers live at `lptr[k]..lptr[k+1]` in
    /// `lrow`/`lval`; applying the step does `v[lrow[e]] -= lval[e] * t`.
    lptr: Vec<usize>,
    lrow: Vec<usize>,
    lval: Vec<f64>,
    /// `lstep[e] = rstep[lrow[e]]`, a later step: L's step graph.
    lstep: Vec<usize>,
    /// Row-wise structure of L: the steps whose multipliers touch step
    /// `k`'s pivot row are `ltstep[ltptr[k]..ltptr[k+1]]`, all earlier.
    ltptr: Vec<usize>,
    ltstep: Vec<usize>,
    /// Step `k`'s upper entries live at `uptr[k]..uptr[k+1]` in
    /// `ustep`/`uval`: `ustep[e]` is an earlier step `k'` with
    /// `U[k'][k] = uval[e]`; the diagonal lives in `udiag`.
    uptr: Vec<usize>,
    ustep: Vec<usize>,
    uval: Vec<f64>,
    udiag: Vec<f64>,
    /// Row-wise structure of U: the later steps `k` with `U[k'][k] ≠ 0`
    /// are `urstep[urptr[k']..urptr[k'+1]]`.
    urptr: Vec<usize>,
    urstep: Vec<usize>,
    nnz: usize,
}

/// Caller-owned workspace of [`SparseLu`]'s solves, reused across them.
/// Between two solves `vals` is all zero, `mark` all false and `reach`
/// empty.
#[derive(Debug, Default)]
pub struct SolveWork {
    /// A hypersparse solve's values, indexed by elimination step.
    vals: Vec<f64>,
    /// The steps in `reach`.
    mark: Vec<bool>,
    /// The steps a hypersparse solve reaches.
    reach: Vec<usize>,
    /// Scratch of the dense loops.
    dense: Vec<f64>,
    /// Entries a hypersparse solve visited: graph edges searched, values
    /// moved and multiply-adds done.
    #[cfg(test)]
    visits: usize,
    /// Solves that ran the dense loops.
    #[cfg(test)]
    dense_solves: usize,
}

impl SolveWork {
    /// Make room for an `m`-row basis.
    fn fit(&mut self, m: usize) {
        if self.vals.len() < m {
            self.vals.resize(m, 0.0);
            self.mark.resize(m, false);
            self.dense.resize(m, 0.0);
        }
    }

    /// Add the unmarked `k` to the reach.
    fn reach_step(&mut self, k: usize) {
        if !self.mark[k] {
            self.mark[k] = true;
            self.reach.push(k);
        }
    }

    /// Extend the reach by every step reachable from it along the edges
    /// `k → adj[ptr[k]..ptr[k+1]]`, using the reach list itself as the
    /// search's worklist. Returns `false` as soon as the reach grows past
    /// `limit`.
    fn search(&mut self, ptr: &[usize], adj: &[usize], limit: usize) -> bool {
        let mut i = 0;
        while i < self.reach.len() {
            let k = self.reach[i];
            i += 1;
            let edges = &adj[ptr[k]..ptr[k + 1]];
            #[cfg(test)]
            {
                self.visits += edges.len();
            }
            for &t in edges {
                if !self.mark[t] {
                    self.mark[t] = true;
                    self.reach.push(t);
                }
            }
            if self.reach.len() > limit {
                return false;
            }
        }
        true
    }

    /// Forget the reach of an abandoned hypersparse attempt.
    fn abandon(&mut self) {
        for &k in &self.reach {
            self.mark[k] = false;
        }
        self.reach.clear();
        #[cfg(test)]
        {
            self.dense_solves += 1;
        }
    }
}

/// The transpose of the step graph `k → adj[ptr[k]..ptr[k+1]]` over `m`
/// steps, as its own `(ptr, adj)` pair.
fn transpose(m: usize, ptr: &[usize], adj: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut tptr = vec![0usize; m + 1];
    for &t in adj {
        tptr[t + 1] += 1;
    }
    for k in 0..m {
        tptr[k + 1] += tptr[k];
    }
    let mut next = tptr.clone();
    let mut tadj = vec![0usize; adj.len()];
    for k in 0..m {
        for &t in &adj[ptr[k]..ptr[k + 1]] {
            tadj[next[t]] = k;
            next[t] += 1;
        }
    }
    (tptr, tadj)
}

/// Stored entries of the `steps` in the factor whose pointer array is
/// `ptr`.
#[cfg(test)]
fn entries(ptr: &[usize], steps: &[usize]) -> usize {
    steps.iter().map(|&k| ptr[k + 1] - ptr[k]).sum()
}

/// `inv[perm[k]] = k`.
fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (k, &i) in perm.iter().enumerate() {
        inv[i] = k;
    }
    inv
}

impl SparseLu {
    /// Factorize the basis whose columns are given in `cols` (sparse
    /// `(row, value)` lists, one per basis position), eliminating in
    /// `work`. `cols` is consumed as elimination workspace too: on return
    /// every column is empty, ready to be refilled for the next
    /// refactorization.
    pub fn factorize(
        m: usize,
        cols: &mut [Vec<(usize, f64)>],
        work: &mut LuWork,
        pivot_tol: f64,
    ) -> Result<Self, LpError> {
        assert_eq!(cols.len(), m);
        let mut lu = SparseLu {
            prow: Vec::with_capacity(m),
            pcol: Vec::with_capacity(m),
            udiag: Vec::with_capacity(m),
            ..SparseLu::empty(m)
        };
        work.reset(m);
        let LuWork {
            upper,
            col_active,
            row_count,
            row_cols,
            acc,
            lmults,
            zero,
            zero_lo,
            active,
            touched,
            dirty,
            row_step,
            col_step,
            #[cfg(test)]
            visits,
        } = work;
        for (j, col) in cols.iter().enumerate() {
            for &(r, _) in col {
                assert!(r < m, "column {j}: row {r} out of range");
                row_count[r] += 1;
                row_cols[r].push(j);
            }
        }
        for (j, col) in cols.iter().enumerate() {
            #[cfg(test)]
            {
                *visits += col.len();
            }
            zero.set(j, zero_cost_pivot(col, row_count, pivot_tol).is_some());
        }

        for k in 0..m {
            // --- pivot search: the lowest zero-cost column, else Markowitz
            let pick = match zero.iter_from(*zero_lo).next() {
                Some(j) => {
                    *zero_lo = j;
                    #[cfg(test)]
                    {
                        *visits += cols[j].len();
                    }
                    zero_cost_pivot(&cols[j], row_count, pivot_tol).map(|(r, v)| (r, j, v))
                }
                None => {
                    *zero_lo = m;
                    active.retain(|&j| col_active[j]);
                    #[cfg(test)]
                    {
                        *visits += active.iter().map(|&j| cols[j].len()).sum::<usize>();
                    }
                    markowitz_pivot(cols, active, row_count, pivot_tol)
                }
            };
            let Some((pr, pc, pv)) = pick else {
                return Err(LpError::SingularBasis);
            };
            lu.prow.push(pr);
            lu.pcol.push(pc);
            lu.udiag.push(pv);

            // --- build L multipliers from the pivot column ---------------
            lmults.clear();
            for &(r, v) in &cols[pc] {
                if r != pr {
                    lmults.push((r, v / pv));
                    // Pivot column leaves the active set: its rows lose one.
                    note_row(dirty, row_step, row_count[r], r, k);
                    row_count[r] -= 1;
                }
            }
            cols[pc].clear();
            col_active[pc] = false;
            zero.set(pc, false);

            // --- eliminate the pivot row from the other active columns ---
            // Take the candidate list to appease the borrow checker; it is
            // rebuilt below only for rows gaining fill-in.
            let candidates = std::mem::take(&mut row_cols[pr]);
            for &j in &candidates {
                if !col_active[j] {
                    continue;
                }
                // Find the pivot-row entry (lazy candidate lists may hold
                // stale columns that no longer touch this row).
                let Some(pos) = cols[j].iter().position(|&(r, _)| r == pr) else {
                    continue;
                };
                touched.push(j);
                let uval = cols[j][pos].1;
                upper[j].push((k, uval));
                cols[j].swap_remove(pos);
                row_count[pr] = row_count[pr].saturating_sub(1);
                if lmults.is_empty() || uval == 0.0 {
                    continue;
                }
                // Scatter, update, gather.
                for &(r, v) in &cols[j] {
                    acc[r] = v;
                }
                for &(r, l) in lmults.iter() {
                    let before = acc[r];
                    let after = before - l * uval;
                    if before == 0.0 && after != 0.0 {
                        // Fill-in: row r gains column j.
                        let present = cols[j].iter().any(|&(rr, _)| rr == r);
                        if !present {
                            note_row(dirty, row_step, row_count[r], r, k);
                            row_count[r] += 1;
                            row_cols[r].push(j);
                            cols[j].push((r, 0.0));
                        }
                    }
                    acc[r] = after;
                }
                // Gather back, dropping exact zeros.
                let mut w = 0;
                for i in 0..cols[j].len() {
                    let (r, _) = cols[j][i];
                    let v = acc[r];
                    acc[r] = 0.0;
                    if v != 0.0 {
                        cols[j][w] = (r, v);
                        w += 1;
                    } else {
                        note_row(dirty, row_step, row_count[r], r, k);
                        row_count[r] = row_count[r].saturating_sub(1);
                    }
                }
                cols[j].truncate(w);
            }

            // --- re-evaluate the zero-cost set where it may have changed:
            // the columns this step rewrote, and every active column of a
            // row whose count reached or left one.
            let mut revisit = |j: usize| {
                if col_step[j] != k {
                    col_step[j] = k;
                    #[cfg(test)]
                    {
                        *visits += cols[j].len();
                    }
                    let on = zero_cost_pivot(&cols[j], row_count, pivot_tol).is_some();
                    zero.set(j, on);
                    if on {
                        *zero_lo = (*zero_lo).min(j);
                    }
                }
            };
            for &j in touched.iter() {
                revisit(j);
            }
            for &(r, before) in dirty.iter() {
                if (before == 1) != (row_count[r] == 1) {
                    row_cols[r].retain(|&j| col_active[j]);
                    for &j in &row_cols[r] {
                        revisit(j);
                    }
                }
            }
            touched.clear();
            dirty.clear();

            lu.nnz += 1 + lmults.len() + upper[pc].len();
            for &(r, l) in lmults.iter() {
                lu.lrow.push(r);
                lu.lval.push(l);
            }
            lu.lptr.push(lu.lrow.len());
            lmults.clear();
        }

        // Pack upper entries, remapped from column positions to
        // elimination steps.
        for k in 0..m {
            for &(k2, u) in &upper[lu.pcol[k]] {
                lu.ustep.push(k2);
                lu.uval.push(u);
            }
            lu.uptr.push(lu.ustep.len());
        }
        lu.index_steps();
        Ok(lu)
    }

    /// A factorization of `m` rows with no step taken yet.
    fn empty(m: usize) -> Self {
        SparseLu {
            m,
            prow: Vec::new(),
            pcol: Vec::new(),
            rstep: Vec::new(),
            cstep: Vec::new(),
            lptr: vec![0],
            lrow: Vec::new(),
            lval: Vec::new(),
            lstep: Vec::new(),
            ltptr: Vec::new(),
            ltstep: Vec::new(),
            uptr: vec![0],
            ustep: Vec::new(),
            uval: Vec::new(),
            udiag: Vec::new(),
            urptr: Vec::new(),
            urstep: Vec::new(),
            nnz: 0,
        }
    }

    /// Derive the step graphs the hypersparse solves search from the
    /// finished factors.
    fn index_steps(&mut self) {
        self.rstep = invert(&self.prow);
        self.cstep = invert(&self.pcol);
        self.lstep = self.lrow.iter().map(|&r| self.rstep[r]).collect();
        (self.ltptr, self.ltstep) = transpose(self.m, &self.lptr, &self.lstep);
        (self.urptr, self.urstep) = transpose(self.m, &self.uptr, &self.ustep);
    }

    /// The factorization of the `m × m` identity: no multipliers, no
    /// upper entries, unit diagonal. A solver holds it until its first
    /// basis is factorized, so it never has to ask whether one exists.
    pub fn identity(m: usize) -> Self {
        let mut lu = SparseLu {
            prow: (0..m).collect(),
            pcol: (0..m).collect(),
            lptr: vec![0; m + 1],
            uptr: vec![0; m + 1],
            udiag: vec![1.0; m],
            nnz: m,
            ..SparseLu::empty(m)
        };
        lu.index_steps();
        lu
    }

    /// Stored nonzeros in `L` and `U` (fill-in diagnostic).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Solve `B x = v` in place. On entry `v` is indexed by *row* and is
    /// zero (of either sign) off `nz`, which may name an index twice or
    /// name zeros. On exit `v` is indexed by *basis position* (matching the
    /// dense backend's convention) and is zero off `nz`, which then names
    /// each index at most once, in no particular order.
    ///
    /// The solve walks the reach of `nz` (see the [module docs](self)): a
    /// search of L's step graph from the right-hand side's steps, the `L`
    /// pass over that reach in ascending step order, a search of U's graph
    /// from it, and the `U` pass over the grown reach in descending order.
    /// A right-hand side or an `L` reach above `m / HYPERSPARSE_DIVISOR`
    /// steps runs the dense loops instead and leaves `nz = 0..m`.
    pub fn solve_in_place(&self, v: &mut [f64], nz: &mut Vec<usize>, work: &mut SolveWork) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        work.fit(m);
        let limit = m / HYPERSPARSE_DIVISOR;
        if nz.len() <= limit {
            for &r in nz.iter() {
                work.reach_step(self.rstep[r]);
            }
        }
        if nz.len() > limit || !work.search(&self.lptr, &self.lstep, limit) {
            work.abandon();
            self.solve_dense(v, &mut work.dense[..m]);
            nz.clear();
            nz.extend(0..m);
            return;
        }
        // Into step space: z_k lives at vals[k].
        for &k in &work.reach {
            let r = self.prow[k];
            work.vals[k] = v[r];
            v[r] = 0.0;
        }
        // Forward: L z = v, the reached steps in elimination order.
        work.reach.sort_unstable();
        let SolveWork { vals, reach, .. } = &mut *work;
        for &k in reach.iter() {
            let t = vals[k];
            if t != 0.0 {
                for e in self.lptr[k]..self.lptr[k + 1] {
                    vals[self.lstep[e]] -= self.lval[e] * t;
                }
            }
        }
        #[cfg(test)]
        {
            work.visits += work.reach.len() + entries(&self.lptr, &work.reach);
        }
        // Backward: U x = z, over the reach grown through U's graph.
        work.search(&self.uptr, &self.ustep, usize::MAX);
        work.reach.sort_unstable();
        let SolveWork { vals, reach, .. } = &mut *work;
        for &k in reach.iter().rev() {
            let xk = vals[k] / self.udiag[k];
            vals[k] = xk;
            if xk != 0.0 {
                for e in self.uptr[k]..self.uptr[k + 1] {
                    vals[self.ustep[e]] -= self.uval[e] * xk;
                }
            }
        }
        #[cfg(test)]
        {
            work.visits += 2 * work.reach.len() + entries(&self.uptr, &work.reach);
        }
        // Step space -> basis positions.
        nz.clear();
        let SolveWork {
            vals, mark, reach, ..
        } = work;
        for &k in reach.iter() {
            let p = self.pcol[k];
            v[p] = vals[k];
            vals[k] = 0.0;
            mark[k] = false;
            nz.push(p);
        }
        reach.clear();
    }

    /// Solve `Bᵀ y = v` in place. On entry `v` is indexed by *basis
    /// position*, on exit by *row* (again matching the dense backend);
    /// `nz` names its support as for [`SparseLu::solve_in_place`].
    ///
    /// The reach runs the other way round: a search of U's row-wise
    /// structure from the right-hand side's steps, the `Uᵀ` pass in
    /// ascending step order, a search of L's row-wise structure, and the
    /// `Lᵀ` pass in descending order. Both passes pull each step's value
    /// from its stored column, as the dense loops do; a step outside the
    /// reach holds zero.
    pub fn solve_transpose_in_place(
        &self,
        v: &mut [f64],
        nz: &mut Vec<usize>,
        work: &mut SolveWork,
    ) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        work.fit(m);
        let limit = m / HYPERSPARSE_DIVISOR;
        if nz.len() <= limit {
            for &p in nz.iter() {
                work.reach_step(self.cstep[p]);
            }
        }
        if nz.len() > limit || !work.search(&self.urptr, &self.urstep, limit) {
            work.abandon();
            self.solve_transpose_dense(v, &mut work.dense[..m]);
            nz.clear();
            nz.extend(0..m);
            return;
        }
        for &k in &work.reach {
            let p = self.pcol[k];
            work.vals[k] = v[p];
            v[p] = 0.0;
        }
        // Forward: Uᵀ w = v, in step order.
        work.reach.sort_unstable();
        let SolveWork { vals, reach, .. } = &mut *work;
        for &k in reach.iter() {
            let mut s = vals[k];
            for e in self.uptr[k]..self.uptr[k + 1] {
                s -= self.uval[e] * vals[self.ustep[e]];
            }
            vals[k] = s / self.udiag[k];
        }
        #[cfg(test)]
        {
            work.visits += work.reach.len() + entries(&self.uptr, &work.reach);
        }
        // Backward: Lᵀ y = w, over the reach grown through L's rows.
        work.search(&self.ltptr, &self.ltstep, usize::MAX);
        work.reach.sort_unstable();
        let SolveWork { vals, reach, .. } = &mut *work;
        for &k in reach.iter().rev() {
            let mut s = vals[k];
            for e in self.lptr[k]..self.lptr[k + 1] {
                s -= self.lval[e] * vals[self.lstep[e]];
            }
            vals[k] = s;
        }
        #[cfg(test)]
        {
            work.visits += 2 * work.reach.len() + entries(&self.lptr, &work.reach);
        }
        // Step space -> rows.
        nz.clear();
        let SolveWork {
            vals, mark, reach, ..
        } = work;
        for &k in reach.iter() {
            let r = self.prow[k];
            v[r] = vals[k];
            vals[k] = 0.0;
            mark[k] = false;
            nz.push(r);
        }
        reach.clear();
    }

    /// [`SparseLu::solve_in_place`] by the dense loops, which walk every
    /// step: `v` in rows on entry, in basis positions on exit. `scratch`
    /// must have length `m`.
    ///
    /// The forward pass runs guarded (skipping steps whose pivot value is
    /// exactly zero) while the solve vector stays sparse, and switches to
    /// an unguarded scan once the tracked nonzero count passes a quarter
    /// of the rows: on a densified vector the zero check is pure
    /// branch-miss cost. The switch cannot change the result — a skipped
    /// step subtracts exact zeros.
    pub(crate) fn solve_dense(&self, v: &mut [f64], scratch: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        debug_assert_eq!(scratch.len(), m);
        // Forward: L z = v, in original row space.
        let window = m / 4;
        let mut live = v.iter().filter(|&&x| x != 0.0).count();
        let mut k = 0usize;
        while k < m && live <= window {
            let t = v[self.prow[k]];
            if t != 0.0 {
                for e in self.lptr[k]..self.lptr[k + 1] {
                    v[self.lrow[e]] -= self.lval[e] * t;
                }
                // Upper bound on the fill the step produced; an
                // overestimate only flips to the dense scan early.
                live += self.lptr[k + 1] - self.lptr[k];
            }
            k += 1;
        }
        while k < m {
            let t = v[self.prow[k]];
            for e in self.lptr[k]..self.lptr[k + 1] {
                v[self.lrow[e]] -= self.lval[e] * t;
            }
            k += 1;
        }
        // Backward: U x = z, in step space (z_k lives at v[prow[k]]).
        for k in (0..m).rev() {
            let xk = v[self.prow[k]] / self.udiag[k];
            v[self.prow[k]] = xk;
            if xk != 0.0 {
                for e in self.uptr[k]..self.uptr[k + 1] {
                    v[self.prow[self.ustep[e]]] -= self.uval[e] * xk;
                }
            }
        }
        // Permute step space -> basis positions.
        for k in 0..m {
            scratch[self.pcol[k]] = v[self.prow[k]];
        }
        v.copy_from_slice(scratch);
    }

    /// [`SparseLu::solve_transpose_in_place`] by the dense loops: `v` in
    /// basis positions on entry, in rows on exit. `scratch` must have
    /// length `m`.
    ///
    /// A unit right-hand side leaves every step before the pivot's own
    /// trivially zero: the forward pass skips whole steps until the first
    /// nonzero input appears, which is exact because all earlier
    /// intermediate values are zero too.
    pub(crate) fn solve_transpose_dense(&self, v: &mut [f64], scratch: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(v.len(), m);
        debug_assert_eq!(scratch.len(), m);
        // Forward: Uᵀ w = v, in step order (scratch holds w).
        let mut seen_nonzero = false;
        for k in 0..m {
            let x = v[self.pcol[k]];
            if !seen_nonzero {
                if x == 0.0 {
                    scratch[k] = 0.0;
                    continue;
                }
                seen_nonzero = true;
            }
            let mut s = x;
            for e in self.uptr[k]..self.uptr[k + 1] {
                s -= self.uval[e] * scratch[self.ustep[e]];
            }
            scratch[k] = s / self.udiag[k];
        }
        // Backward: Lᵀ y = w, writing y into v by original row.
        for k in (0..m).rev() {
            let mut s = scratch[k];
            for e in self.lptr[k]..self.lptr[k + 1] {
                s -= self.lval[e] * v[self.lrow[e]];
            }
            v[self.prow[k]] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::DenseLu;

    /// Factorize with a fresh workspace.
    fn factorize(m: usize, cols: &mut [Vec<(usize, f64)>], tol: f64) -> Result<SparseLu, LpError> {
        SparseLu::factorize(m, cols, &mut LuWork::default(), tol)
    }

    /// The oracle: the factorization as it was before the zero-cost set,
    /// whose pivot search rescans every active column in position order
    /// at each step and stops early only on a zero-cost pivot. The
    /// production search must choose exactly what this one chooses.
    fn reference_factorize(
        m: usize,
        cols: &mut [Vec<(usize, f64)>],
        pivot_tol: f64,
    ) -> Result<SparseLu, LpError> {
        let mut lu = SparseLu::empty(m);
        let mut upper: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut col_active = vec![true; m];
        let mut row_count = vec![0usize; m];
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, _) in col {
                row_count[r] += 1;
                row_cols[r].push(j);
            }
        }
        let mut acc = vec![0.0f64; m];
        let mut lmults: Vec<(usize, f64)> = Vec::new();
        for k in 0..m {
            let mut best: Option<(usize, usize, f64, usize)> = None;
            for (j, col) in cols.iter().enumerate() {
                if !col_active[j] {
                    continue;
                }
                let colmax = col.iter().map(|&(_, v)| v.abs()).fold(0.0f64, f64::max);
                if colmax <= pivot_tol {
                    continue;
                }
                let admit = MARKOWITZ_THRESHOLD * colmax;
                let ccount = col.len();
                for &(r, v) in col {
                    if v.abs() < admit || v.abs() <= pivot_tol {
                        continue;
                    }
                    let cost = (row_count[r] - 1) * (ccount - 1);
                    let better = match best {
                        None => true,
                        Some((_, _, bv, bcost)) => {
                            cost < bcost || (cost == bcost && v.abs() > bv.abs())
                        }
                    };
                    if better {
                        best = Some((r, j, v, cost));
                    }
                }
                if matches!(best, Some((_, _, _, 0))) {
                    break;
                }
            }
            let Some((pr, pc, pv, _)) = best else {
                return Err(LpError::SingularBasis);
            };
            lu.prow.push(pr);
            lu.pcol.push(pc);
            lu.udiag.push(pv);
            lmults.clear();
            for &(r, v) in &cols[pc] {
                if r != pr {
                    lmults.push((r, v / pv));
                    row_count[r] -= 1;
                }
            }
            cols[pc].clear();
            col_active[pc] = false;
            for j in std::mem::take(&mut row_cols[pr]) {
                if !col_active[j] {
                    continue;
                }
                let Some(pos) = cols[j].iter().position(|&(r, _)| r == pr) else {
                    continue;
                };
                let uval = cols[j][pos].1;
                upper[j].push((k, uval));
                cols[j].swap_remove(pos);
                row_count[pr] = row_count[pr].saturating_sub(1);
                if lmults.is_empty() || uval == 0.0 {
                    continue;
                }
                for &(r, v) in &cols[j] {
                    acc[r] = v;
                }
                for &(r, l) in &lmults {
                    let before = acc[r];
                    let after = before - l * uval;
                    if before == 0.0 && after != 0.0 && !cols[j].iter().any(|&(rr, _)| rr == r) {
                        row_count[r] += 1;
                        row_cols[r].push(j);
                        cols[j].push((r, 0.0));
                    }
                    acc[r] = after;
                }
                let mut w = 0;
                for i in 0..cols[j].len() {
                    let (r, _) = cols[j][i];
                    let v = acc[r];
                    acc[r] = 0.0;
                    if v != 0.0 {
                        cols[j][w] = (r, v);
                        w += 1;
                    } else {
                        row_count[r] = row_count[r].saturating_sub(1);
                    }
                }
                cols[j].truncate(w);
            }
            lu.nnz += 1 + lmults.len() + upper[pc].len();
            for &(r, l) in &lmults {
                lu.lrow.push(r);
                lu.lval.push(l);
            }
            lu.lptr.push(lu.lrow.len());
        }
        for k in 0..m {
            for &(k2, u) in &upper[lu.pcol[k]] {
                lu.ustep.push(k2);
                lu.uval.push(u);
            }
            lu.uptr.push(lu.ustep.len());
        }
        lu.index_steps();
        Ok(lu)
    }

    /// Same pivots, same structure, bitwise-equal values.
    fn assert_identical(got: &SparseLu, want: &SparseLu, case: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.prow, want.prow, "{case}: prow");
        assert_eq!(got.pcol, want.pcol, "{case}: pcol");
        assert_eq!(
            (&got.lptr, &got.lrow),
            (&want.lptr, &want.lrow),
            "{case}: L"
        );
        assert_eq!(bits(&got.lval), bits(&want.lval), "{case}: L values");
        assert_eq!(
            (&got.uptr, &got.ustep),
            (&want.uptr, &want.ustep),
            "{case}: U"
        );
        assert_eq!(bits(&got.uval), bits(&want.uval), "{case}: U values");
        assert_eq!(bits(&got.udiag), bits(&want.udiag), "{case}: diagonal");
        assert_eq!(got.nnz, want.nnz, "{case}: nnz");
    }

    /// A random basis of one of four shapes: slack-heavy, rich in row
    /// singletons, a dense nucleus in a slack frame, or singular. Values
    /// come from a small set, so magnitude ties and threshold-edge
    /// entries are common, and a few entries are explicit zeros.
    fn random_basis(rng: &mut rand_chacha::ChaCha8Rng, shape: usize) -> Vec<Vec<(usize, f64)>> {
        use rand::Rng;
        const VALUES: [f64; 7] = [1.0, -1.0, 2.0, 0.5, -0.25, 0.09, 3.0];
        let m = rng.gen_range(1..48usize);
        let mut dense = vec![0.0f64; m * m];
        let mut put = |rng: &mut rand_chacha::ChaCha8Rng, i: usize, j: usize| {
            dense[i * m + j] = VALUES[rng.gen_range(0..VALUES.len())];
        };
        match shape {
            // Mostly unit columns, some structurals over random rows.
            0 => {
                for j in 0..m {
                    put(rng, j, j);
                    if rng.gen_bool(0.3) {
                        for _ in 0..rng.gen_range(1..4) {
                            let i = rng.gen_range(0..m);
                            put(rng, i, j);
                        }
                    }
                }
            }
            // A permuted upper-triangular band: chains of row singletons.
            1 => {
                for j in 0..m {
                    put(rng, j, j);
                    for i in j.saturating_sub(2)..j {
                        if rng.gen_bool(0.7) {
                            put(rng, i, j);
                        }
                    }
                }
            }
            // A dense nucleus among slack columns.
            2 => {
                let k = rng.gen_range(1..=m.min(10));
                for j in 0..m {
                    put(rng, j, j);
                    if j < k {
                        for i in 0..k {
                            if rng.gen_bool(0.8) {
                                put(rng, i, j);
                            }
                        }
                    }
                }
            }
            // Singular: a repeated column or an empty one.
            _ => {
                for j in 0..m {
                    for i in 0..m {
                        if i == j || rng.gen_bool(0.1) {
                            put(rng, i, j);
                        }
                    }
                }
                let (a, b) = (rng.gen_range(0..m), rng.gen_range(0..m));
                for i in 0..m {
                    dense[i * m + b] = if rng.gen_bool(0.5) {
                        dense[i * m + a]
                    } else {
                        0.0
                    };
                }
            }
        }
        // Shuffle positions so singletons are not simply in order.
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
            .iter()
            .map(|&j| {
                let mut col: Vec<(usize, f64)> = (0..m)
                    .filter(|&i| dense[i * m + j] != 0.0)
                    .map(|i| (i, dense[i * m + j]))
                    .collect();
                if m > 1 && rng.gen_bool(0.05) {
                    col.push((rng.gen_range(0..m), 0.0));
                    col.dedup_by_key(|e| e.0);
                }
                col
            })
            .collect()
    }

    #[test]
    fn pivots_match_the_exhaustive_search_on_random_bases() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        // One workspace across every basis size, as a worker reuses it.
        let mut work = LuWork::default();
        let mut singular = 0;
        for case in 0..800 {
            let cols = random_basis(&mut rng, case % 4);
            let m = cols.len();
            let mut mine = cols.clone();
            let mut theirs = cols;
            let got = SparseLu::factorize(m, &mut mine, &mut work, 1e-9);
            let want = reference_factorize(m, &mut theirs, 1e-9);
            let case = format!("case {case} (m = {m})");
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_identical(&got, &want, &case);
                    assert!(
                        mine.iter().all(Vec::is_empty),
                        "{case}: columns not drained"
                    );
                }
                (Err(LpError::SingularBasis), Err(LpError::SingularBasis)) => singular += 1,
                (got, want) => panic!("{case}: {:?} vs {:?}", got.err(), want.err()),
            }
        }
        assert!(singular >= 50, "only {singular} singular cases");
    }

    #[test]
    fn pivot_search_work_is_linear_on_a_slack_heavy_basis() {
        // 8 192 structurals over the first rows, upper bidiagonal with a
        // link into the slack rows, then 8 192 slacks. Every structural
        // position sits below every slack, and only the last structural
        // starts with a zero-cost pivot: the exhaustive search rescanned
        // the structurals before each pick, about m·nnz/2 entry visits.
        let s = 8192;
        let m = 2 * s;
        let mut cols: Vec<Vec<(usize, f64)>> = (0..s)
            .map(|p| {
                let mut col = vec![(p, 2.0), (s + p, 0.5)];
                if p > 0 {
                    col.push((p - 1, 0.5));
                }
                col
            })
            .collect();
        cols.extend((s..m).map(|r| vec![(r, 1.0)]));
        let nnz: usize = cols.iter().map(Vec::len).sum();
        let mut work = LuWork::default();
        let lu = SparseLu::factorize(m, &mut cols, &mut work, 1e-9).unwrap();
        assert_eq!(lu.prow.len(), m);
        assert!(
            work.visits <= 4 * nnz,
            "{} visits for {nnz} nonzeros",
            work.visits
        );
    }

    fn to_sparse_cols(n: usize, a: &[f64]) -> Vec<Vec<(usize, f64)>> {
        (0..n)
            .map(|j| {
                (0..n)
                    .filter_map(|i| {
                        let v = a[i * n + j];
                        (v != 0.0).then_some((i, v))
                    })
                    .collect()
            })
            .collect()
    }

    /// The nonzero indices of `v`.
    fn support(v: &[f64]) -> Vec<usize> {
        (0..v.len()).filter(|&i| v[i] != 0.0).collect()
    }

    fn ftran(lu: &SparseLu, rhs: &[f64]) -> Vec<f64> {
        let mut v = rhs.to_vec();
        lu.solve_in_place(&mut v, &mut support(rhs), &mut SolveWork::default());
        v
    }

    fn btran(lu: &SparseLu, rhs: &[f64]) -> Vec<f64> {
        let mut v = rhs.to_vec();
        lu.solve_transpose_in_place(&mut v, &mut support(rhs), &mut SolveWork::default());
        v
    }

    /// Equal bit for bit, except that `+0.0` and `−0.0` are equal.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    /// A random right-hand side of `m` rows with a few nonzeros, as
    /// `(values, nz)`; `nz` sometimes names an index twice or a zero.
    fn random_rhs(rng: &mut rand_chacha::ChaCha8Rng, m: usize) -> (Vec<f64>, Vec<usize>) {
        use rand::Rng;
        const VALUES: [f64; 6] = [1.0, -1.0, 0.5, 3.0, -0.125, 1e-3];
        let mut v = vec![0.0; m];
        let mut nz = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize.min(m)) {
            let i = rng.gen_range(0..m);
            v[i] = VALUES[rng.gen_range(0..VALUES.len())];
            nz.push(i);
        }
        if rng.gen_bool(0.1) {
            nz.push(nz[0]);
            nz.push(rng.gen_range(0..m));
        }
        (v, nz)
    }

    #[test]
    fn hypersparse_solves_match_the_dense_loops() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(30);
        // One workspace across every basis, as a worker reuses it.
        let mut work = SolveWork::default();
        let mut solves = 0;
        for case in 0..600 {
            let mut cols = random_basis(&mut rng, case % 3);
            let m = cols.len();
            let Ok(lu) = factorize(m, &mut cols, 1e-9) else {
                continue;
            };
            let mut scratch = vec![0.0; m];
            for rhs in 0..8 {
                let (v, nz) = random_rhs(&mut rng, m);
                for transpose in [false, true] {
                    let (mut got, mut got_nz, mut want) = (v.clone(), nz.clone(), v.clone());
                    if transpose {
                        lu.solve_transpose_in_place(&mut got, &mut got_nz, &mut work);
                        lu.solve_transpose_dense(&mut want, &mut scratch);
                    } else {
                        lu.solve_in_place(&mut got, &mut got_nz, &mut work);
                        lu.solve_dense(&mut want, &mut scratch);
                    }
                    let what = format!("case {case} rhs {rhs} transpose {transpose} (m = {m})");
                    for i in 0..m {
                        assert!(
                            same(got[i], want[i]),
                            "{what}: {i}: {} vs {}",
                            got[i],
                            want[i]
                        );
                    }
                    let mut listed = got_nz.clone();
                    listed.sort_unstable();
                    listed.dedup();
                    assert_eq!(listed.len(), got_nz.len(), "{what}: repeats");
                    for i in support(&got) {
                        assert!(listed.binary_search(&i).is_ok(), "{what}: {i} unlisted");
                    }
                    solves += 1;
                }
            }
            assert!(work.vals.iter().all(|&x| x == 0.0) && work.reach.is_empty());
            assert!(!work.mark.iter().any(|&b| b), "case {case}: marks left");
        }
        // Both the reach and the dense fallback were exercised.
        assert!(solves > 4000, "{solves} solves");
        assert!(work.dense_solves > 300, "{} dense", work.dense_solves);
        assert!(
            solves - work.dense_solves > 2000,
            "{} dense",
            work.dense_solves
        );
    }

    #[test]
    fn unit_solves_visit_their_reach_not_every_row() {
        // The slack-heavy basis of the pivot-search test: 8 192
        // structurals in an upper-bidiagonal chain linked to the slack
        // rows, then 8 192 slacks. A unit vector's reach runs along the
        // part of the chain it touches; a dense solve walks all 16 384
        // steps.
        let s = 8192;
        let m = 2 * s;
        let mut cols: Vec<Vec<(usize, f64)>> = (0..s)
            .map(|p| {
                let mut col = vec![(p, 2.0), (s + p, 0.5)];
                if p > 0 {
                    col.push((p - 1, 0.5));
                }
                col
            })
            .collect();
        cols.extend((s..m).map(|r| vec![(r, 1.0)]));
        let lu = factorize(m, &mut cols, 1e-9).unwrap();
        let mut work = SolveWork::default();
        let mut v = vec![0.0; m];
        let mut nz = Vec::new();
        // FTRAN of a slack row, of structural rows near the chain's end,
        // and BTRAN of positions near its start, and of slack positions.
        let cases = [
            (false, s + 5),
            (false, m - 1),
            (false, 0),
            (false, 37),
            (true, s - 1),
            (true, s - 40),
            (true, m - 1),
            (true, m - 3),
        ];
        for (transpose, i) in cases {
            v[i] = 1.0;
            nz.clear();
            nz.push(i);
            work.visits = 0;
            if transpose {
                lu.solve_transpose_in_place(&mut v, &mut nz, &mut work);
            } else {
                lu.solve_in_place(&mut v, &mut nz, &mut work);
            }
            assert!(
                work.visits <= 8 * nz.len() && nz.len() <= 100,
                "transpose {transpose}, index {i}: {} visits, reach {}",
                work.visits,
                nz.len()
            );
            for &j in &nz {
                v[j] = 0.0;
            }
        }
        assert_eq!(work.dense_solves, 0);
    }

    #[test]
    fn solves_identity() {
        let mut cols = to_sparse_cols(2, &[1.0, 0.0, 0.0, 1.0]);
        let lu = factorize(2, &mut cols, 1e-9).unwrap();
        assert_eq!(ftran(&lu, &[3.0, -4.0]), vec![3.0, -4.0]);
        assert_eq!(btran(&lu, &[5.0, 6.0]), vec![5.0, 6.0]);
    }

    #[test]
    fn identity_matches_factorized_identity() {
        let mut cols = to_sparse_cols(3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let factorized = factorize(3, &mut cols, 1e-9).unwrap();
        let placeholder = SparseLu::identity(3);
        assert_eq!(placeholder.nnz(), factorized.nnz());
        let v = [2.5, -1.0, 0.0];
        assert_eq!(ftran(&placeholder, &v), ftran(&factorized, &v));
        assert_eq!(btran(&placeholder, &v), btran(&factorized, &v));
    }

    #[test]
    fn solves_permutation() {
        // B = [[0,1],[1,0]] — forces off-diagonal pivots.
        let mut cols = to_sparse_cols(2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = factorize(2, &mut cols, 1e-9).unwrap();
        assert_eq!(ftran(&lu, &[7.0, 9.0]), vec![9.0, 7.0]);
    }

    #[test]
    fn singular_is_rejected() {
        let mut cols = to_sparse_cols(2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            factorize(2, &mut cols, 1e-9),
            Err(LpError::SingularBasis)
        ));
    }

    #[test]
    fn random_roundtrip_matches_dense_lu() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for n in [1usize, 2, 3, 5, 17, 40, 80] {
            // Sparse-ish random matrix with a boosted diagonal.
            let mut a = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..n {
                    if i == j || rng.gen_bool(0.15) {
                        a[i * n + j] = rng.gen_range(-1.0..1.0);
                    }
                }
                a[i * n + i] += 3.0;
            }
            let dense = DenseLu::factorize(n, a.clone(), 1e-12).unwrap();
            let mut cols = to_sparse_cols(n, &a);
            let sparse = factorize(n, &mut cols, 1e-12).unwrap();
            // Workspace columns are drained by the factorization.
            assert!(cols.iter().all(Vec::is_empty));

            let rhs: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut want = rhs.clone();
            dense.solve_in_place(&mut want);
            let got = ftran(&sparse, &rhs);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-8, "n={n}: ftran {g} vs {w}");
            }

            let mut want_t = rhs.clone();
            dense.solve_transpose_in_place(&mut want_t);
            let got_t = btran(&sparse, &rhs);
            for (g, w) in got_t.iter().zip(&want_t) {
                assert!((g - w).abs() < 1e-8, "n={n}: btran {g} vs {w}");
            }
        }
    }

    #[test]
    fn unit_vectors_roundtrip_through_sparse_guards() {
        // Unit right-hand sides keep both solves inside the guarded sparse
        // phase (BTRAN skips every step before the pivot's own; FTRAN skips
        // steps with a zero pivot value) — the exact shape every dual pivot
        // produces. Results must still match the dense backend.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let n = 33;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j || rng.gen_bool(0.12) {
                    a[i * n + j] = rng.gen_range(-1.0..1.0);
                }
            }
            a[i * n + i] += 3.0;
        }
        let dense = DenseLu::factorize(n, a.clone(), 1e-12).unwrap();
        let mut cols = to_sparse_cols(n, &a);
        let sparse = factorize(n, &mut cols, 1e-12).unwrap();
        for r in 0..n {
            let mut e = vec![0.0; n];
            e[r] = 1.0;

            let mut want = e.clone();
            dense.solve_in_place(&mut want);
            let got = ftran(&sparse, &e);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-8, "r={r}: ftran {g} vs {w}");
            }

            let mut want_t = e.clone();
            dense.solve_transpose_in_place(&mut want_t);
            let got_t = btran(&sparse, &e);
            for (g, w) in got_t.iter().zip(&want_t) {
                assert!((g - w).abs() < 1e-8, "r={r}: btran {g} vs {w}");
            }
        }
    }

    #[test]
    fn unit_slack_heavy_basis_has_no_fill() {
        // A basis that is mostly unit columns (the common simplex case):
        // factorization must not blow up the nonzero count.
        let m = 50;
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        cols[3] = vec![(3, 2.0), (7, 1.0), (19, -1.0)];
        cols[7] = vec![(7, 1.5), (3, 0.5)];
        let lu = factorize(m, &mut cols, 1e-9).unwrap();
        assert!(lu.nnz() <= 56, "nnz {}", lu.nnz());
        let mut rhs = vec![1.0; m];
        lu.solve_in_place(&mut rhs, &mut (0..m).collect(), &mut SolveWork::default());
    }
}
