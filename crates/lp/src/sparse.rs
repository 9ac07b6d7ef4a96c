//! Compressed-sparse-column matrix used to store the constraint matrix.
//!
//! The revised simplex only ever needs two access patterns: "iterate the
//! nonzeros of column j" (pricing denominators, FTRAN right-hand sides) and
//! "dot a dense row-vector with column j" (reduced costs). CSC serves both.

/// Immutable CSC matrix.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes the nonzeros of column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from unsorted triplets; duplicate `(row, col)` entries are
    /// summed, exact zeros after summation are dropped.
    ///
    /// The entries are counted per column and scattered, in input order,
    /// into one flat array: each column's run reaches `merge_column` in
    /// the order its triplets arrived, with no allocation per column.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let triplets: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        // `col_ptr[c + 1]` counts column `c`; the prefix sum turns
        // `col_ptr[c]` into the start of its run.
        let mut col_ptr = vec![0usize; ncols + 1];
        for &(r, c, _) in &triplets {
            assert!(
                r < nrows && c < ncols,
                "triplet ({r},{c}) out of {nrows}x{ncols}"
            );
            col_ptr[c + 1] += 1;
        }
        for c in 0..ncols {
            col_ptr[c + 1] += col_ptr[c];
        }
        // Scatter: `col_ptr[c]` walks from the start of column `c`'s run
        // to its end, which is where column `c + 1`'s run starts.
        let mut flat = vec![(0usize, 0.0f64); triplets.len()];
        for &(r, c, v) in &triplets {
            flat[col_ptr[c]] = (r, v);
            col_ptr[c] += 1;
        }
        drop(triplets);
        let mut row_idx = Vec::with_capacity(flat.len());
        let mut values = Vec::with_capacity(flat.len());
        let mut start = 0;
        for ptr in &mut col_ptr[..ncols] {
            let end = *ptr;
            *ptr = row_idx.len();
            merge_column(&mut flat[start..end], &mut row_idx, &mut values);
            start = end;
        }
        col_ptr[ncols] = row_idx.len();
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Insert columns before column `at`, shifting it and every later
    /// column right. The new columns arrive as a CSC fragment: `ends[t]`
    /// is the end of column `t`'s entries in `rows`/`vals`, each column's
    /// rows sorted and merged as [`merge_column`] leaves them. Storage
    /// grows by exactly the inserted entries.
    pub(crate) fn insert_columns(
        &mut self,
        at: usize,
        ends: &[usize],
        rows: &[usize],
        vals: &[f64],
    ) {
        let nnz = rows.len();
        let base = self.col_ptr[at];
        splice_exact(&mut self.row_idx, base, rows.iter().copied());
        splice_exact(&mut self.values, base, vals.iter().copied());
        for p in &mut self.col_ptr[at + 1..] {
            *p += nnz;
        }
        splice_exact(&mut self.col_ptr, at + 1, ends.iter().map(|&e| base + e));
        self.ncols += ends.len();
    }

    /// The raw storage `(col_ptr, row_idx, values)`, for bitwise
    /// comparisons in tests.
    #[cfg(test)]
    pub(crate) fn raw(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.col_ptr, &self.row_idx, &self.values)
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Nonzeros of column `j` as `(row, value)` pairs.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Dense dot product `row_vec · column j`.
    pub fn dot_col(&self, row_vec: &[f64], j: usize) -> f64 {
        debug_assert_eq!(row_vec.len(), self.nrows);
        self.col(j).map(|(r, v)| row_vec[r] * v).sum()
    }

    /// Scatter column `j` into a dense vector: `out[r] += scale * v`.
    pub fn scatter_col(&self, j: usize, scale: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.nrows);
        for (r, v) in self.col(j) {
            out[r] += scale * v;
        }
    }

    /// Materialize column `j` as a dense vector (allocates).
    pub fn dense_col(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows];
        self.scatter_col(j, 1.0, &mut out);
        out
    }

    /// Dense `A · x` (allocates the result).
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.ncols);
        let mut out = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                self.scatter_col(j, xj, &mut out);
            }
        }
        out
    }
}

/// Insert `new` into `v` before index `at`, growing `v`'s storage by
/// exactly `new.len()`.
pub(crate) fn splice_exact<T>(v: &mut Vec<T>, at: usize, new: impl ExactSizeIterator<Item = T>) {
    v.reserve_exact(new.len());
    v.splice(at..at, new);
}

/// Append one column's entries to CSC storage: sort `bucket` by row, sum
/// duplicate rows, drop exact zeros. Every column of a [`CscMatrix`] goes
/// through this one merge, so a column built by hand sums its duplicates
/// in the same order as [`CscMatrix::from_triplets`] when `bucket` arrives
/// in the same order.
pub(crate) fn merge_column(
    bucket: &mut [(usize, f64)],
    row_idx: &mut Vec<usize>,
    values: &mut Vec<f64>,
) {
    bucket.sort_unstable_by_key(|&(r, _)| r);
    let mut i = 0;
    while i < bucket.len() {
        let r = bucket[i].0;
        let mut v = 0.0;
        while i < bucket.len() && bucket[i].0 == r {
            v += bucket[i].1;
            i += 1;
        }
        if v != 0.0 {
            row_idx.push(r);
            values.push(v);
        }
    }
}

/// Compressed-sparse-row mirror of a [`CscMatrix`].
///
/// Devex pricing needs the row-oriented access pattern "iterate the nonzeros
/// of row i" to turn a BTRAN'd pivot row `ρ = B⁻ᵀe_r` into the dense pivot
/// row `α_r = ρᵀA` in time proportional to the touched nonzeros. Built once
/// per solve, and rebuilt when a session inserts columns.
#[derive(Debug, Clone, Default)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Transpose-copy a CSC matrix into row-major form.
    pub fn from_csc(a: &CscMatrix) -> Self {
        let (nrows, ncols, nnz) = (a.nrows(), a.ncols(), a.nnz());
        let mut row_ptr = vec![0usize; nrows + 1];
        for &r in &a.row_idx {
            row_ptr[r + 1] += 1;
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        // Cursor per row while scattering column-by-column (keeps each row's
        // entries sorted by column, since CSC columns are visited in order).
        let mut cursor = row_ptr.clone();
        for j in 0..ncols {
            for (r, v) in a.col(j) {
                let at = cursor[r];
                col_idx[at] = j;
                values[at] = v;
                cursor[r] = at + 1;
            }
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Nonzeros of row `i` as `(col, value)` pairs, sorted by column.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CscMatrix::from_triplets(2, 3, [(0, 0, 1.0), (1, 1, 3.0), (0, 2, 2.0)])
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (2, 3, 3));
    }

    #[test]
    fn column_iteration() {
        let m = sample();
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0)]);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(m.col(2).collect::<Vec<_>>(), vec![(0, 2.0)]);
    }

    #[test]
    fn duplicates_are_summed_zeros_dropped() {
        let m =
            CscMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0), (1, 1, -5.0)]);
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 3.0)]);
        assert_eq!(m.col(1).count(), 0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn dot_and_scatter() {
        let m = sample();
        assert_eq!(m.dot_col(&[2.0, 5.0], 1), 15.0);
        let mut out = vec![0.0; 2];
        m.scatter_col(2, 0.5, &mut out);
        assert_eq!(out, vec![1.0, 0.0]);
    }

    #[test]
    fn mul_dense_matches_by_hand() {
        let m = sample();
        // A * [1, 2, 3] = [1*1 + 2*3, 3*2] = [7, 6]
        assert_eq!(m.mul_dense(&[1.0, 2.0, 3.0]), vec![7.0, 6.0]);
    }

    #[test]
    fn dense_col_materializes() {
        let m = sample();
        assert_eq!(m.dense_col(2), vec![2.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_triplet_panics() {
        CscMatrix::from_triplets(1, 1, [(1, 0, 1.0)]);
    }

    /// The bucketed lowering `from_triplets` replaced: one `Vec` per
    /// column, each merged in arrival order.
    fn bucketed(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> CscMatrix {
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
        for &(r, c, v) in triplets {
            cols[c].push((r, v));
        }
        let mut col_ptr = vec![0];
        let (mut row_idx, mut values) = (Vec::new(), Vec::new());
        for bucket in &mut cols {
            merge_column(bucket, &mut row_idx, &mut values);
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Counting and scattering matches the bucketed oracle bitwise,
        /// duplicate `(row, col)` entries (summed in arrival order) and
        /// entries cancelling to zero included.
        #[test]
        fn from_triplets_matches_the_bucketed_oracle(
            shape in (1usize..6, 1usize..8),
            raw in proptest::collection::vec((0usize..6, 0usize..8, -4i32..5, 0.0f64..1.0), 0..60),
        ) {
            let (nrows, ncols) = shape;
            // Small integer parts make exact cancellations and repeated
            // cells common; the fractional part makes summation order
            // visible in the last bits.
            let triplets: Vec<(usize, usize, f64)> = raw
                .iter()
                .map(|&(r, c, whole, frac)| {
                    let v = if whole == 0 { 0.0 } else { f64::from(whole) + frac * 1e-3 };
                    (r % nrows, c % ncols, v)
                })
                .collect();
            let got = CscMatrix::from_triplets(nrows, ncols, triplets.iter().copied());
            let want = bucketed(nrows, ncols, &triplets);
            let (gp, gr, gv) = got.raw();
            let (wp, wr, wv) = want.raw();
            proptest::prop_assert_eq!(gp, wp);
            proptest::prop_assert_eq!(gr, wr);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(gv), bits(wv));
            proptest::prop_assert_eq!((got.nrows(), got.ncols()), (nrows, ncols));
        }
    }

    #[test]
    fn csr_mirror_matches_csc() {
        let m = sample();
        let csr = CsrMatrix::from_csc(&m);
        assert_eq!((csr.nrows(), csr.ncols()), (2, 3));
        assert_eq!(csr.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(csr.row(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
    }
}
