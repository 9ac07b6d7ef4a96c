//! Dense LU factorization with partial pivoting: the reference the sparse
//! basis factorization ([`crate::slu::SparseLu`]) is tested against.

#![allow(clippy::needless_range_loop)] // index math mirrors the textbook formulas

use crate::error::LpError;
use crate::PIVOT_TOL;

/// Dense PA = LU factorization (row-major storage, partial pivoting).
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    /// Packed LU factors: strictly-lower triangle holds L (unit diagonal
    /// implied), upper triangle + diagonal holds U.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row moved to position `i`.
    perm: Vec<usize>,
}

impl DenseLu {
    /// Factorize the `n × n` matrix given in row-major order.
    pub fn factorize(n: usize, mut a: Vec<f64>, pivot_tol: f64) -> Result<Self, LpError> {
        assert_eq!(a.len(), n * n);
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: largest |a[i][k]| for i >= k.
            let mut piv = k;
            let mut best = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            if best <= pivot_tol {
                return Err(LpError::SingularBasis);
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                perm.swap(k, piv);
            }
            let diag = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / diag;
                a[i * n + k] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        a[i * n + j] -= factor * a[k * n + j];
                    }
                }
            }
        }
        Ok(DenseLu { n, lu: a, perm })
    }

    /// Solve `A x = rhs` in place (`rhs` becomes `x`).
    pub fn solve_in_place(&self, rhs: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(rhs.len(), n);
        // Apply permutation: y = P * rhs.
        let mut y: Vec<f64> = (0..n).map(|i| rhs[self.perm[i]]).collect();
        // Forward: L z = y (unit diagonal).
        for i in 1..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * y[j];
            }
            y[i] = s;
        }
        // Backward: U x = z.
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.lu[i * n + j] * y[j];
            }
            y[i] = s / self.lu[i * n + i];
        }
        rhs.copy_from_slice(&y);
    }

    /// Solve `Aᵀ x = rhs` in place.
    pub fn solve_transpose_in_place(&self, rhs: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(rhs.len(), n);
        // A = Pᵀ L U  ⇒  Aᵀ = Uᵀ Lᵀ P. Solve Uᵀ z = rhs, then Lᵀ w = z,
        // then x = Pᵀ w (i.e. x[perm[i]] = w[i]).
        let mut z = rhs.to_vec();
        // Uᵀ is lower triangular: forward substitution.
        for i in 0..n {
            let mut s = z[i];
            for j in 0..i {
                s -= self.lu[j * n + i] * z[j];
            }
            z[i] = s / self.lu[i * n + i];
        }
        // Lᵀ is unit upper triangular: backward substitution.
        for i in (0..n).rev() {
            let mut s = z[i];
            for j in (i + 1)..n {
                s -= self.lu[j * n + i] * z[j];
            }
            z[i] = s;
        }
        for i in 0..n {
            rhs[self.perm[i]] = z[i];
        }
    }
}

/// Convenience: factorize with the crate-default pivot tolerance.
pub fn factorize(n: usize, a: Vec<f64>) -> Result<DenseLu, LpError> {
    DenseLu::factorize(n, a, PIVOT_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_vec(n: usize, a: &[f64], x: &[f64]) -> Vec<f64> {
        (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
            .collect()
    }

    #[test]
    fn solves_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let lu = factorize(2, a).unwrap();
        let mut x = vec![3.0, -4.0];
        lu.solve_in_place(&mut x);
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_small_system() {
        // A = [[2,1],[1,3]], b = [5, 10] -> x = [1, 3]
        let a = vec![2.0, 1.0, 1.0, 3.0];
        let lu = factorize(2, a).unwrap();
        let mut x = vec![5.0, 10.0];
        lu.solve_in_place(&mut x);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Leading zero forces a row swap.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let lu = factorize(2, a).unwrap();
        let mut x = vec![7.0, 9.0];
        lu.solve_in_place(&mut x);
        assert_eq!(x, vec![9.0, 7.0]);
    }

    #[test]
    fn transpose_solve_matches_transposed_matrix() {
        // Asymmetric so the transpose solve is actually exercised.
        let a = vec![2.0, 1.0, 0.5, 0.0, 3.0, 1.0, 1.0, 0.0, 4.0];
        let lu = factorize(3, a.clone()).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        // rhs = Aᵀ x_true
        let mut rhs = vec![0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                rhs[j] += a[i * 3 + j] * x_true[i];
            }
        }
        lu.solve_transpose_in_place(&mut rhs);
        for (got, want) in rhs.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn random_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for n in [1usize, 2, 5, 17, 40] {
            let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // Diagonal boost keeps it comfortably nonsingular.
            let mut a2 = a.clone();
            for i in 0..n {
                a2[i * n + i] += 3.0;
            }
            let lu = factorize(n, a2.clone()).unwrap();
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut rhs = mat_vec(n, &a2, &x_true);
            lu.solve_in_place(&mut rhs);
            for (got, want) in rhs.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(matches!(factorize(2, a), Err(LpError::SingularBasis)));
    }
}
