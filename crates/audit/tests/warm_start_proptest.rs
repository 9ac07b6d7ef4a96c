//! Property test: warm starting is an optimization of the *path*, never of
//! the *answer*.
//!
//! Mirrors the epoch loop's lifecycle: solve a Fig-4-shaped base model
//! cold, capture its basis, then perturb the model the way epochs do —
//! jitter the costs, add a job's columns, drop a job's columns — and
//! re-solve by the dual simplex seeded from the stale basis, the one solver
//! that accepts a carried basis. The warm objective must match an
//! independent cold solve of the *same perturbed model* to tolerance, and
//! the warm solution must still pass full KKT certification.

#![allow(clippy::needless_range_loop)] // structured LP builders read clearer with indices

use lips_audit::certify;
use lips_lp::{solve_dual_from_basis, Cmp, Model, VarId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const TOL: f64 = 1e-6;

/// A small epoch-LP lookalike: `jobs × machines` placement variables in
/// `[0, 1]` with named columns and rows, per-job coverage rows, and
/// per-machine capacity rows. `n_jobs` controls the add/remove-a-job
/// perturbation; names stay stable across job sets so the warm basis can
/// match what survives.
fn epoch_model(rng: &mut ChaCha8Rng, jobs: &[usize], machines: usize) -> Model {
    let mut m = Model::minimize();
    let mut x: Vec<Vec<VarId>> = Vec::new();
    for &job in jobs {
        let row: Vec<VarId> = (0..machines)
            .map(|l| m.add_var(format!("x_{job}_{l}"), 0.0, 1.0, rng.gen_range(0.1..2.0)))
            .collect();
        x.push(row);
    }
    for (k, &job) in jobs.iter().enumerate() {
        let c = m.add_constraint((0..machines).map(|l| (x[k][l], 1.0)), Cmp::Ge, 1.0);
        m.name_constraint(c, format!("cov_{job}"));
    }
    for l in 0..machines {
        let cap = rng.gen_range(0.6..1.5) * jobs.len() as f64 / machines as f64 + 0.5;
        let c = m.add_constraint((0..jobs.len()).map(|k| (x[k][l], 1.0)), Cmp::Le, cap);
        m.name_constraint(c, format!("cap_{l}"));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Costs jittered, one job added, one job removed: the stale basis must
    /// re-optimize (or restart from the slack basis) into the same optimum
    /// a cold solve finds, and the result must certify.
    #[test]
    fn warm_solve_of_perturbed_model_matches_cold_and_certifies(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let machines = rng.gen_range(3usize..8);
        let n_jobs = rng.gen_range(3usize..9);
        let base_jobs: Vec<usize> = (0..n_jobs).collect();

        // Epoch e: cold solve, capture the basis.
        let base = epoch_model(&mut rng, &base_jobs, machines);
        let base_sol = base.solve().expect("base model is feasible");
        let warm = base_sol.warm_start().expect("revised solve records a basis").clone();

        // Epoch e+1: drop one job, add a fresh one, re-jitter every cost
        // (epoch_model redraws costs from the same rng stream).
        let mut next_jobs = base_jobs;
        let drop_at = rng.gen_range(0..next_jobs.len());
        next_jobs.remove(drop_at);
        next_jobs.push(n_jobs); // a job id the warm basis has never seen
        let next = epoch_model(&mut rng, &next_jobs, machines);

        let warm_sol = solve_dual_from_basis(&next, &warm).expect("perturbed model is feasible");
        let cold_sol = next.solve().expect("same model, cold");

        prop_assert!(
            (warm_sol.objective() - cold_sol.objective()).abs()
                <= TOL * (1.0 + cold_sol.objective().abs()),
            "seed {seed}: warm {} vs cold {}",
            warm_sol.objective(),
            cold_sol.objective()
        );
        let cert = certify(&next, &warm_sol).expect("duals present");
        prop_assert!(
            cert.is_optimal(),
            "seed {seed}: warm-started solution failed certification:\n{cert}"
        );
    }

    /// Unperturbed re-solve: the previous optimal basis is optimal as-is,
    /// so the warm solve must not run a single phase-1 iteration.
    #[test]
    fn warm_resolve_of_identical_model_skips_phase1(seed in 0u64..2_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let machines = rng.gen_range(3usize..8);
        let jobs: Vec<usize> = (0..rng.gen_range(3usize..9)).collect();
        let m = epoch_model(&mut rng, &jobs, machines);
        let cold = m.solve().expect("feasible");
        let warm = cold.warm_start().expect("basis recorded").clone();
        let again = solve_dual_from_basis(&m, &warm).expect("feasible");
        prop_assert_eq!(again.stats().phase1_iterations, 0,
            "identical model re-solve ran phase 1");
        prop_assert!(
            (again.objective() - cold.objective()).abs()
                <= TOL * (1.0 + cold.objective().abs()),
            "seed {seed}: {} vs {}", again.objective(), cold.objective()
        );
    }
}
