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
//! * **Factors stored sparsely.** `L` is a sequence of elimination steps
//!   (pivot row + multiplier list), `U` a per-step column of upper
//!   entries; FTRAN/BTRAN walk only stored nonzeros.
//! * **Caller-owned workspaces.** Both the factorization input (the basis
//!   columns) and the solve scratch are caller-provided and reused across
//!   refactorizations, so the steady-state solver does not allocate here.

use crate::error::LpError;

/// Relative threshold for Markowitz pivot admissibility: a candidate must
/// be at least this fraction of the largest magnitude in its column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// Sparse `B = L·U` factorization (row and column permutations implicit in
/// the pivot order).
///
/// Both factors are stored *flat-packed* (CSR-style pointer/index/value
/// triples) rather than as per-step `Vec<Vec<_>>`: FTRAN and BTRAN walk
/// every stored nonzero once per solve, and with one contiguous allocation
/// per factor that walk is a linear scan instead of a pointer chase
/// through `m` separate heap blocks. Dual-simplex pivots are BTRAN-heavy,
/// which makes the packing measurable.
#[derive(Debug, Clone)]
pub struct SparseLu {
    m: usize,
    /// `prow[k]` = original row pivoted at elimination step `k`.
    prow: Vec<usize>,
    /// `pcol[k]` = basis *position* (column index) pivoted at step `k`.
    pcol: Vec<usize>,
    /// Step `k`'s L multipliers live at `lptr[k]..lptr[k+1]` in
    /// `lrow`/`lval`; applying the step does `v[lrow[e]] -= lval[e] * t`.
    lptr: Vec<usize>,
    lrow: Vec<usize>,
    lval: Vec<f64>,
    /// Step `k`'s upper entries live at `uptr[k]..uptr[k+1]` in
    /// `ustep`/`uval`: `ustep[e]` is an earlier step `k'` with
    /// `U[k'][k] = uval[e]`; the diagonal lives in `udiag`.
    uptr: Vec<usize>,
    ustep: Vec<usize>,
    uval: Vec<f64>,
    udiag: Vec<f64>,
    nnz: usize,
}

impl SparseLu {
    /// Factorize the basis whose columns are given in `cols` (sparse
    /// `(row, value)` lists, one per basis position). `cols` is consumed
    /// as elimination workspace: on return every column is empty, ready
    /// to be refilled for the next refactorization.
    pub fn factorize(
        m: usize,
        cols: &mut [Vec<(usize, f64)>],
        pivot_tol: f64,
    ) -> Result<Self, LpError> {
        assert_eq!(cols.len(), m);
        let mut lu = SparseLu {
            m,
            prow: Vec::with_capacity(m),
            pcol: Vec::with_capacity(m),
            lptr: vec![0],
            lrow: Vec::new(),
            lval: Vec::new(),
            uptr: vec![0],
            ustep: Vec::new(),
            uval: Vec::new(),
            udiag: Vec::with_capacity(m),
            nnz: 0,
        };
        // Upper entries accumulate per *column position* during
        // elimination and are remapped to steps at the end.
        let mut upper: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];

        let mut col_active = vec![true; m];
        let mut row_active = vec![true; m];
        // row_count[r] = number of active columns containing row r
        // (kept exact); row_cols[r] = columns that may contain row r
        // (lazily pruned).
        let mut row_count = vec![0usize; m];
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, _) in col {
                assert!(r < m, "column {j}: row {r} out of range");
                row_count[r] += 1;
                row_cols[r].push(j);
            }
        }

        // Dense scratch for the column updates.
        let mut acc = vec![0.0f64; m];
        let mut lmults: Vec<(usize, f64)> = Vec::new();

        for _step in 0..m {
            // --- pivot search ------------------------------------------
            let mut best: Option<(usize, usize, f64, usize)> = None; // (row, col, val, cost)
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
                        // On Markowitz ties prefer the larger pivot.
                        Some((_, _, bv, bcost)) => {
                            cost < bcost || (cost == bcost && v.abs() > bv.abs())
                        }
                    };
                    if better {
                        best = Some((r, j, v, cost));
                    }
                }
                // A zero-cost pivot cannot be beaten; stop searching.
                if matches!(best, Some((_, _, _, 0))) {
                    break;
                }
            }
            let Some((pr, pc, pv, _)) = best else {
                return Err(LpError::SingularBasis);
            };
            let k = lu.prow.len();
            lu.prow.push(pr);
            lu.pcol.push(pc);
            lu.udiag.push(pv);

            // --- build L multipliers from the pivot column ---------------
            lmults.clear();
            for &(r, v) in &cols[pc] {
                if r != pr {
                    lmults.push((r, v / pv));
                    // Pivot column leaves the active set: its rows lose one.
                    row_count[r] -= 1;
                }
            }
            cols[pc].clear();
            col_active[pc] = false;
            row_active[pr] = false;

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
                for &(r, l) in &lmults {
                    let before = acc[r];
                    let after = before - l * uval;
                    if before == 0.0 && after != 0.0 {
                        // Fill-in: row r gains column j.
                        let present = cols[j].iter().any(|&(rr, _)| rr == r);
                        if !present {
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
        Ok(lu)
    }

    /// Stored nonzeros in `L` and `U` (fill-in diagnostic).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Solve `B x = v` in place. On entry `v` is indexed by *row*; on exit
    /// it is indexed by *basis position* (matching the dense backend's
    /// convention). `scratch` must have length `m`.
    ///
    /// The forward pass runs guarded (skipping steps whose pivot value is
    /// exactly zero) while the solve vector stays sparse, and switches to
    /// an unguarded scan once the tracked nonzero count passes a quarter
    /// of the rows: on a densified vector the zero check is pure
    /// branch-miss cost. The switch cannot change the result — a skipped
    /// step subtracts exact zeros.
    pub fn solve_in_place(&self, v: &mut [f64], scratch: &mut [f64]) {
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

    /// Solve `Bᵀ y = v` in place. On entry `v` is indexed by *basis
    /// position*; on exit by *row* (again matching the dense backend).
    /// `scratch` must have length `m`.
    ///
    /// BTRAN is the dual simplex's hot path (`ρ = B⁻ᵀe_r` every pivot),
    /// and a unit right-hand side leaves every step before the pivot's
    /// own trivially zero: the forward pass skips whole steps until the
    /// first nonzero input appears, which is exact because all earlier
    /// intermediate values are zero too.
    pub fn solve_transpose_in_place(&self, v: &mut [f64], scratch: &mut [f64]) {
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

    fn ftran(lu: &SparseLu, rhs: &[f64]) -> Vec<f64> {
        let mut v = rhs.to_vec();
        let mut s = vec![0.0; rhs.len()];
        lu.solve_in_place(&mut v, &mut s);
        v
    }

    fn btran(lu: &SparseLu, rhs: &[f64]) -> Vec<f64> {
        let mut v = rhs.to_vec();
        let mut s = vec![0.0; rhs.len()];
        lu.solve_transpose_in_place(&mut v, &mut s);
        v
    }

    #[test]
    fn solves_identity() {
        let mut cols = to_sparse_cols(2, &[1.0, 0.0, 0.0, 1.0]);
        let lu = SparseLu::factorize(2, &mut cols, 1e-9).unwrap();
        assert_eq!(ftran(&lu, &[3.0, -4.0]), vec![3.0, -4.0]);
        assert_eq!(btran(&lu, &[5.0, 6.0]), vec![5.0, 6.0]);
    }

    #[test]
    fn solves_permutation() {
        // B = [[0,1],[1,0]] — forces off-diagonal pivots.
        let mut cols = to_sparse_cols(2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = SparseLu::factorize(2, &mut cols, 1e-9).unwrap();
        assert_eq!(ftran(&lu, &[7.0, 9.0]), vec![9.0, 7.0]);
    }

    #[test]
    fn singular_is_rejected() {
        let mut cols = to_sparse_cols(2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            SparseLu::factorize(2, &mut cols, 1e-9),
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
            let sparse = SparseLu::factorize(n, &mut cols, 1e-12).unwrap();
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
        let sparse = SparseLu::factorize(n, &mut cols, 1e-12).unwrap();
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
        let lu = SparseLu::factorize(m, &mut cols, 1e-9).unwrap();
        assert!(lu.nnz() <= 56, "nnz {}", lu.nnz());
        let mut rhs = vec![1.0; m];
        let mut s = vec![0.0; m];
        lu.solve_in_place(&mut rhs, &mut s);
    }
}
