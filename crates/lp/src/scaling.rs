//! Equilibration scaling: condition a badly scaled model before solving.
//!
//! Scheduling LPs mix units brutally — dollar coefficients near 1e-5 sit
//! next to ECU-second capacities near 1e5. Geometric-mean equilibration
//! rescales rows and columns so coefficient magnitudes cluster near 1,
//! which keeps simplex pivots well away from the tolerance cliffs.
//!
//! The transformation substitutes `x_j = c_j · x'_j` and multiplies row
//! `i` by `r_i`; [`ScaleMap::unscale`] maps a scaled solution back.
//!
//! ```
//! use lips_lp::{Model, Cmp};
//! use lips_lp::scaling::equilibrate;
//!
//! let mut m = Model::minimize();
//! let x = m.add_var("x", 0.0, 1e8, 1e-6);
//! m.add_constraint([(x, 1e6)], Cmp::Ge, 2e6);
//! let (scaled, map) = equilibrate(&m);
//! let sol = scaled.solve().unwrap();
//! let x_orig = map.unscale(sol.values());
//! assert!((x_orig[0] - 2.0).abs() < 1e-6);
//! ```

use crate::model::Model;

/// Column scales for mapping a scaled solution back to the original space.
#[derive(Debug, Clone)]
pub struct ScaleMap {
    col_scale: Vec<f64>,
}

impl ScaleMap {
    /// `x_original[j] = x_scaled[j] · col_scale[j]`.
    pub fn unscale(&self, scaled: &[f64]) -> Vec<f64> {
        scaled
            .iter()
            .zip(&self.col_scale)
            .map(|(x, c)| x * c)
            .collect()
    }

    /// The per-column scale factors.
    pub fn col_scales(&self) -> &[f64] {
        &self.col_scale
    }
}

/// One pass of geometric-mean scaling over rows then columns, iterated
/// twice (the standard recipe; more passes give diminishing returns).
#[allow(clippy::needless_range_loop)] // paired lo/hi arrays read clearer indexed
pub fn equilibrate(model: &Model) -> (Model, ScaleMap) {
    let n = model.num_vars();
    let m_rows = model.num_constraints();
    let mut row_scale = vec![1.0f64; m_rows];
    let mut col_scale = vec![1.0f64; n];

    for _ in 0..2 {
        // Row pass: r_i = 1 / sqrt(max·min |a_ij·c_j|).
        for (ri, con) in model.cons.iter().enumerate() {
            let mut lo = f64::INFINITY;
            let mut hi = 0.0f64;
            for &(v, coef) in &con.terms {
                let a = (coef * col_scale[v]).abs();
                if a > 0.0 {
                    lo = lo.min(a);
                    hi = hi.max(a);
                }
            }
            if hi > 0.0 {
                row_scale[ri] = 1.0 / (lo * hi).sqrt();
            }
        }
        // Column pass: likewise over each column's scaled entries.
        let mut lo = vec![f64::INFINITY; n];
        let mut hi = vec![0.0f64; n];
        for (ri, con) in model.cons.iter().enumerate() {
            for &(v, coef) in &con.terms {
                let a = (coef * row_scale[ri]).abs();
                if a > 0.0 {
                    lo[v] = lo[v].min(a);
                    hi[v] = hi[v].max(a);
                }
            }
        }
        for j in 0..n {
            if hi[j] > 0.0 {
                col_scale[j] = 1.0 / (lo[j] * hi[j]).sqrt();
            }
        }
    }

    // Build the scaled model: x = C x' with C = diag(col_scale).
    let mut scaled = Model::new(model.sense());
    for j in 0..n {
        let v = crate::VarId(j);
        let (lb, ub) = model.var_bounds(v);
        let c = col_scale[j];
        // Bounds divide by the scale (c > 0 always).
        scaled.add_var_like(model, v, lb / c, ub / c, model.var_obj(v) * c);
    }
    for (ri, con) in model.cons.iter().enumerate() {
        let r = row_scale[ri];
        let terms: Vec<(crate::VarId, f64)> = con
            .terms
            .iter()
            .map(|&(v, coef)| (crate::VarId(v), coef * r * col_scale[v]))
            .collect();
        scaled.add_constraint(terms, con.cmp, con.rhs * r);
    }
    (scaled, ScaleMap { col_scale })
}

/// Solve via equilibration; returns `(objective, original-space values)`.
pub fn solve_scaled(model: &Model) -> Result<(f64, Vec<f64>), crate::LpError> {
    let (scaled, map) = equilibrate(model);
    let sol = scaled.solve()?;
    Ok((sol.objective(), map.unscale(sol.values())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model};

    #[test]
    fn scaling_preserves_optimum() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        m.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Ge, 6.0);
        let direct = m.solve().unwrap();
        let (obj, vals) = solve_scaled(&m).unwrap();
        assert!((obj - direct.objective()).abs() < 1e-8);
        assert!(m.is_feasible(&vals, 1e-7));
    }

    #[test]
    fn conditions_pathological_coefficients() {
        // Coefficients spanning 12 orders of magnitude.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1e-6);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1e6);
        m.add_constraint([(x, 1e6), (y, 1e-6)], Cmp::Ge, 2e6);
        let (scaled, _) = equilibrate(&m);
        // Scaled coefficient magnitudes land near 1.
        for con in &scaled.cons {
            for &(_, coef) in &con.terms {
                assert!(
                    (1e-2..=1e2).contains(&coef.abs()),
                    "coef still badly scaled: {coef}"
                );
            }
        }
        let (obj, vals) = solve_scaled(&m).unwrap();
        assert!(m.is_feasible(&vals, 1e-4));
        assert!((obj - m.objective_of(&vals)).abs() < 1e-6);
    }

    #[test]
    fn scaled_agrees_with_direct_on_random_models() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let mut solved = 0;
        for case in 0..150 {
            let n = rng.gen_range(2..7);
            let mut m = Model::minimize();
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    // Deliberately wild magnitudes.
                    let mag = 10.0f64.powi(rng.gen_range(-5..5));
                    m.add_var(
                        format!("x{i}"),
                        0.0,
                        rng.gen_range(1.0..10.0) * mag,
                        rng.gen_range(-2.0..2.0),
                    )
                })
                .collect();
            for _ in 0..rng.gen_range(1..5) {
                let terms: Vec<_> = vars
                    .iter()
                    .map(|&v| {
                        (
                            v,
                            rng.gen_range(0.1..2.0) * 10.0f64.powi(rng.gen_range(-4..4)),
                        )
                    })
                    .collect();
                m.add_constraint(terms, Cmp::Le, rng.gen_range(0.5..100.0));
            }
            let direct = m.solve();
            let scaled = solve_scaled(&m);
            match (direct, scaled) {
                (Ok(a), Ok((obj, vals))) => {
                    solved += 1;
                    let denom = 1.0 + a.objective().abs();
                    assert!(
                        (a.objective() - obj).abs() / denom < 1e-5,
                        "case {case}: {} vs {obj}",
                        a.objective()
                    );
                    assert!(m.max_violation(&vals) / denom < 1e-5, "case {case}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
                (a, b) => panic!("case {case}: {a:?} vs {b:?}"),
            }
        }
        assert!(solved > 100, "only {solved} solved");
    }

    #[test]
    fn unscale_roundtrip() {
        let mut m = Model::minimize();
        m.add_var("x", 0.0, 1e9, 1.0);
        let (_, map) = equilibrate(&m);
        // No constraints: column untouched.
        assert_eq!(map.col_scales(), &[1.0]);
        assert_eq!(map.unscale(&[5.0]), vec![5.0]);
    }
}
