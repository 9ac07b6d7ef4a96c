//! Post-optimal sensitivity analysis: shadow prices and reduced costs.
//!
//! For the scheduler these answer operational questions directly: the
//! shadow price of a machine's capacity row is *the dollars saved per
//! extra ECU-second of capacity on that node* — i.e. how much renting one
//! more cheap node would be worth this epoch.

use crate::model::{Model, Sense};
use crate::solution::Solution;

/// Sensitivity report for an optimal solution.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Per-constraint shadow price in the *original* model sense: the rate
    /// of change of the optimal objective per unit increase of the rhs.
    pub shadow_prices: Vec<f64>,
    /// Per-variable reduced cost in the original sense: the rate at which
    /// the objective would change per unit increase of a nonbasic
    /// variable (≈ 0 for basic variables).
    pub reduced_costs: Vec<f64>,
}

/// Internal duals are for the minimization form; a maximization model's
/// objective was negated, so its duals and reduced costs flip back.
fn sense_sign(model: &Model) -> f64 {
    match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    }
}

/// Per-constraint shadow prices in the original model sense (see
/// [`Sensitivity::shadow_prices`]), without the reduced-cost pass of
/// [`analyze`]. Empty when the solution carries no duals.
pub fn shadow_prices(model: &Model, solution: &Solution) -> Vec<f64> {
    let duals = solution.duals();
    if duals.len() != model.num_constraints() {
        return Vec::new();
    }
    let sign = sense_sign(model);
    duals.iter().map(|&y| sign * y).collect()
}

/// Compute sensitivity information from a solved model.
///
/// Requires the solution to carry duals (the revised solver provides them;
/// the dense oracle does not — its solutions yield empty reports).
pub fn analyze(model: &Model, solution: &Solution) -> Sensitivity {
    let duals = solution.duals();
    if duals.len() != model.num_constraints() {
        return Sensitivity {
            shadow_prices: Vec::new(),
            reduced_costs: Vec::new(),
        };
    }
    let shadow_prices = shadow_prices(model, solution);
    let sign = sense_sign(model);

    // Reduced cost: d_j = c_j − y·A_j (internal), mapped back by the same
    // sign flip.
    let n = model.num_vars();
    let mut reduced = vec![0.0; n];
    for (j, r) in reduced.iter_mut().enumerate() {
        let c_internal = match model.sense() {
            Sense::Minimize => model.var_obj(crate::VarId(j)),
            Sense::Maximize => -model.var_obj(crate::VarId(j)),
        };
        *r = sign * c_internal;
    }
    for (ri, con) in model.cons.iter().enumerate() {
        // reduced_internal -= y_internal · coef, mapped back by `sign`.
        for &(v, coef) in &con.terms {
            reduced[v] -= sign * duals[ri] * coef;
        }
    }
    Sensitivity {
        shadow_prices,
        reduced_costs: reduced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    /// Finite-difference check: perturbing a binding constraint's rhs by ε
    /// moves the optimum by ≈ shadow_price · ε.
    fn check_shadow_by_fd(build: impl Fn(f64, usize) -> Model, n_cons: usize) {
        let base = build(0.0, usize::MAX);
        let sol = base.solve().unwrap();
        let sens = analyze(&base, &sol);
        let eps = 1e-4;
        for ci in 0..n_cons {
            let perturbed = build(eps, ci);
            if let Ok(psol) = perturbed.solve() {
                let fd = (psol.objective() - sol.objective()) / eps;
                assert!(
                    (fd - sens.shadow_prices[ci]).abs() < 1e-3,
                    "constraint {ci}: fd {fd} vs dual {}",
                    sens.shadow_prices[ci]
                );
            }
        }
    }

    #[test]
    fn shadow_prices_match_finite_differences_min() {
        // min 2x + 3y, x + y >= 4, x + 3y >= 6.
        let build = |eps: f64, which: usize| {
            let mut m = Model::minimize();
            let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
            let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
            m.add_constraint(
                [(x, 1.0), (y, 1.0)],
                Cmp::Ge,
                4.0 + if which == 0 { eps } else { 0.0 },
            );
            m.add_constraint(
                [(x, 1.0), (y, 3.0)],
                Cmp::Ge,
                6.0 + if which == 1 { eps } else { 0.0 },
            );
            m
        };
        check_shadow_by_fd(build, 2);
    }

    #[test]
    fn shadow_prices_match_finite_differences_max() {
        // The textbook product-mix LP.
        let build = |eps: f64, which: usize| {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
            let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
            m.add_constraint(
                [(x, 1.0)],
                Cmp::Le,
                4.0 + if which == 0 { eps } else { 0.0 },
            );
            m.add_constraint(
                [(y, 2.0)],
                Cmp::Le,
                12.0 + if which == 1 { eps } else { 0.0 },
            );
            m.add_constraint(
                [(x, 3.0), (y, 2.0)],
                Cmp::Le,
                18.0 + if which == 2 { eps } else { 0.0 },
            );
            m
        };
        check_shadow_by_fd(build, 3);
    }

    #[test]
    fn shadow_prices_alone_match_analyze_in_both_senses() {
        for sense in [Sense::Minimize, Sense::Maximize] {
            let mut m = Model::new(sense);
            let x = m.add_var("x", 0.0, 10.0, 1.0);
            m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0);
            m.add_constraint([(x, 1.0)], Cmp::Le, 5.0);
            let sol = m.solve().unwrap();
            assert_eq!(shadow_prices(&m, &sol), analyze(&m, &sol).shadow_prices);
        }
    }

    #[test]
    fn slack_constraints_have_zero_shadow_price() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 5.0); // binding
        m.add_constraint([(x, 1.0)], Cmp::Le, 100.0); // slack
        let sol = m.solve().unwrap();
        let sens = analyze(&m, &sol);
        assert!(sens.shadow_prices[0].abs() > 0.5); // =1: $1 per unit rhs
        assert!(sens.shadow_prices[1].abs() < 1e-9);
    }

    #[test]
    fn basic_variables_have_zero_reduced_cost() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let sol = m.solve().unwrap();
        let sens = analyze(&m, &sol);
        // Optimal: x=4 basic (reduced 0), y nonbasic at 0 (reduced 1).
        assert!(sens.reduced_costs[0].abs() < 1e-9);
        assert!((sens.reduced_costs[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dense_solution_yields_empty_report() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 0.5);
        let sol = m.solve_dense().unwrap();
        let sens = analyze(&m, &sol);
        assert!(sens.shadow_prices.is_empty());
        assert!(sens.reduced_costs.is_empty());
    }
}
