//! Degeneracy and anti-cycling in the revised simplex.
//!
//! Every test here runs with `bland_trigger: 0`, so the very first
//! degenerate pivot flips the solver into Bland's rule — the worst case
//! for pivot-selection quality and the configuration where cycling bugs
//! surface. The solver must still terminate inside the iteration cap,
//! reach the known optimum (and the dense tableau oracle's), and produce
//! a solution the KKT certificate checker accepts.

#![allow(clippy::needless_range_loop)] // structured LP builders read clearer with indices

use lips_audit::certify;
use lips_lp::revised::{RevisedOptions, RevisedSimplex};
use lips_lp::{Cmp, Model, Sense, Solution};

fn solve_bland(m: &Model) -> Solution {
    let solver = RevisedSimplex::with_options(RevisedOptions {
        bland_trigger: 0,
        ..Default::default()
    });
    let sol = solver.solve(m).expect("degenerate model must still solve");
    assert!(
        sol.iterations() < RevisedOptions::default().max_iterations,
        "hit the iteration cap: likely cycling ({} iterations)",
        sol.iterations()
    );
    sol
}

fn assert_certified(m: &Model, sol: &Solution, label: &str) {
    let cert = certify(m, sol).expect("revised simplex reports duals");
    assert!(
        cert.is_optimal(),
        "{label}: Bland-mode solution failed certification:\n{cert}"
    );
}

/// Beale's classic cycling example: Dantzig pricing without anti-cycling
/// loops forever on this model.
fn beale() -> (Model, f64) {
    let mut m = Model::minimize();
    let x4 = m.add_var("x4", 0.0, f64::INFINITY, -0.75);
    let x5 = m.add_var("x5", 0.0, f64::INFINITY, 150.0);
    let x6 = m.add_var("x6", 0.0, f64::INFINITY, -0.02);
    let x7 = m.add_var("x7", 0.0, f64::INFINITY, 6.0);
    m.add_constraint(
        [(x4, 0.25), (x5, -60.0), (x6, -0.04), (x7, 9.0)],
        Cmp::Le,
        0.0,
    );
    m.add_constraint(
        [(x4, 0.5), (x5, -90.0), (x6, -0.02), (x7, 3.0)],
        Cmp::Le,
        0.0,
    );
    m.add_constraint([(x6, 1.0)], Cmp::Le, 1.0);
    (m, -0.05)
}

/// Marshall–Suurballe-style cycler: both rows are tight at the origin, so
/// the first pivots are all degenerate. Boxed into `[0, 1]` to keep it
/// bounded; the optimum is taken from the dense tableau oracle.
fn marshall_suurballe() -> (Model, f64) {
    let mut m = Model::minimize();
    let x1 = m.add_var("x1", 0.0, 1.0, -2.3);
    let x2 = m.add_var("x2", 0.0, 1.0, -2.15);
    let x3 = m.add_var("x3", 0.0, 1.0, 13.55);
    let x4 = m.add_var("x4", 0.0, 1.0, 0.4);
    m.add_constraint([(x1, 0.4), (x2, 0.2), (x3, -1.4), (x4, -0.2)], Cmp::Le, 0.0);
    m.add_constraint([(x1, -7.8), (x2, -1.4), (x3, 7.8), (x4, 0.4)], Cmp::Le, 0.0);
    let oracle = m.solve_dense().expect("boxed model is bounded").objective();
    (m, oracle)
}

/// All-equal-cost assignment relaxation: every vertex is optimal and the
/// endgame is a long run of zero-length pivots.
fn degenerate_assignment(n: usize) -> (Model, f64) {
    let mut m = Model::minimize();
    let mut x = vec![vec![None; n]; n];
    for (i, row) in x.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = Some(m.add_var(format!("x{i}{j}"), 0.0, 1.0, 1.0));
        }
    }
    for i in 0..n {
        m.add_constraint((0..n).map(|j| (x[i][j].unwrap(), 1.0)), Cmp::Eq, 1.0);
        m.add_constraint((0..n).map(|j| (x[j][i].unwrap(), 1.0)), Cmp::Eq, 1.0);
    }
    (m, n as f64)
}

/// Klee–Minty twisted cube: not degenerate, but the canonical stress for
/// pivot rules — under forced Bland the path is long yet must terminate.
fn klee_minty(n: usize) -> (Model, f64) {
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> = (0..n)
        .map(|i| {
            m.add_var(
                format!("x{i}"),
                0.0,
                f64::INFINITY,
                if i == n - 1 { 1.0 } else { 0.0 },
            )
        })
        .collect();
    for i in 0..n {
        let mut terms = Vec::new();
        for (j, &xj) in xs.iter().enumerate().take(i) {
            terms.push((xj, 2.0f64.powi((i - j) as i32 + 1)));
        }
        terms.push((xs[i], 1.0));
        m.add_constraint(terms, Cmp::Le, 5.0f64.powi(i as i32 + 1));
    }
    (m, 5.0f64.powi(n as i32))
}

#[test]
fn beale_terminates_and_certifies_under_forced_bland() {
    let (m, expect) = beale();
    let sol = solve_bland(&m);
    assert!(
        (sol.objective() - expect).abs() < 1e-6,
        "{} vs {expect}",
        sol.objective()
    );
    assert_certified(&m, &sol, "beale");
}

#[test]
fn marshall_suurballe_terminates_and_certifies_under_forced_bland() {
    let (m, expect) = marshall_suurballe();
    let sol = solve_bland(&m);
    assert!(
        (sol.objective() - expect).abs() < 1e-6,
        "{} vs {expect}",
        sol.objective()
    );
    assert_certified(&m, &sol, "marshall-suurballe");
}

#[test]
fn degenerate_assignment_terminates_and_certifies_under_forced_bland() {
    let (m, expect) = degenerate_assignment(10);
    let sol = solve_bland(&m);
    assert!(
        (sol.objective() - expect).abs() < 1e-6,
        "{} vs {expect}",
        sol.objective()
    );
    assert_certified(&m, &sol, "assignment");
}

#[test]
fn klee_minty_terminates_and_certifies_under_forced_bland() {
    for n in [4usize, 6] {
        let (m, expect) = klee_minty(n);
        let sol = solve_bland(&m);
        assert!(
            (sol.objective() - expect).abs() / expect < 1e-9,
            "n={n}: {} vs {expect}",
            sol.objective()
        );
        assert_certified(&m, &sol, "klee-minty");
    }
}

#[test]
fn bland_optima_match_the_dense_tableau_oracle() {
    // The dense tableau simplex shares no factorization or pricing code
    // with the revised simplex, so agreement on these degenerate models
    // checks the forced-Bland path against an independent solver.
    for (m, _) in [beale(), marshall_suurballe(), degenerate_assignment(6)] {
        let a = solve_bland(&m);
        let b = m.solve_dense().expect("oracle solves");
        assert!(
            (a.objective() - b.objective()).abs() < 1e-9 * (1.0 + b.objective().abs()),
            "revised vs dense oracle: {} vs {}",
            a.objective(),
            b.objective()
        );
    }
}
