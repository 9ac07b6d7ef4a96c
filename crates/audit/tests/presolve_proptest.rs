//! Property test: epoch presolve is an optimization of the *model*, never
//! of the *answer*.
//!
//! Mirrors the `EpochSolver::presolve` fast path end to end: build a
//! Fig-4-shaped LP, presolve it with the certification-safe reductions
//! (redundant-row dropping + dominated-column fixing), solve the reduced
//! model — cold, warm-started through `Restore::map_warm_start`, and by
//! the dual simplex — and restore. The restored solution must match an
//! unreduced solve's objective to tolerance and pass full KKT
//! certification against the *original* model, duals and basis included.

#![allow(clippy::needless_range_loop)] // structured LP builders read clearer with indices

use lips_audit::certify;
use lips_lp::presolve::{certified_options, presolve_with};
use lips_lp::revised::RevisedOptions;
use lips_lp::{solve_dual_with_options, Cmp, LpError, Model, VarId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const TOL: f64 = 1e-6;

/// The same epoch-LP lookalike the warm-start properties use, plus the
/// structure presolve feeds on: a few *loose* capacity rows (redundant by
/// activity range) and an occasional strictly-dominated duplicate column.
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
        // Every few machines, a capacity far beyond worst-case activity:
        // redundant-row elimination must fire and must not change the
        // optimum.
        let cap = if l % 3 == 0 {
            jobs.len() as f64 + 2.0
        } else {
            rng.gen_range(0.6..1.5) * jobs.len() as f64 / machines as f64 + 0.5
        };
        let c = m.add_constraint((0..jobs.len()).map(|k| (x[k][l], 1.0)), Cmp::Le, cap);
        m.name_constraint(c, format!("cap_{l}"));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cold path: solve the presolved model, restore, and the answer —
    /// objective, duals, basis — must be indistinguishable from solving
    /// the unreduced model.
    #[test]
    fn presolved_then_restored_matches_unreduced_and_certifies(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let machines = rng.gen_range(3usize..8);
        let jobs: Vec<usize> = (0..rng.gen_range(3usize..9)).collect();
        let m = epoch_model(&mut rng, &jobs, machines);

        let full = m.solve().expect("full model is feasible");
        let (reduced, restore) = presolve_with(&m, certified_options())
            .expect("presolve never errors on a feasible model");
        let red_sol = reduced.solve().expect("reduced model is feasible");
        let restored = restore.restore_solution(&m, &red_sol);

        prop_assert!(
            (restored.objective() - full.objective()).abs()
                <= TOL * (1.0 + full.objective().abs()),
            "seed {seed}: restored {} vs unreduced {}",
            restored.objective(),
            full.objective()
        );
        let cert = certify(&m, &restored).expect("restored duals present");
        prop_assert!(
            cert.is_optimal(),
            "seed {seed}: restored solution failed certification against the full model:\n{cert}"
        );
    }

    /// Warm + dual path: capture a basis, perturb the next epoch, map the
    /// basis into the reduced space, dual re-solve there, restore — same
    /// optimum, still certified, exactly like `EpochSolver::dual` +
    /// `EpochSolver::presolve` chain them.
    #[test]
    fn presolved_dual_resolve_matches_unreduced_and_certifies(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let machines = rng.gen_range(3usize..8);
        let jobs: Vec<usize> = (0..rng.gen_range(3usize..9)).collect();

        let base = epoch_model(&mut rng, &jobs, machines);
        let warm = base
            .solve()
            .expect("base model is feasible")
            .warm_start()
            .expect("revised solve records a basis")
            .clone();

        // Next epoch: same structure, re-jittered costs and capacities.
        let next = epoch_model(&mut rng, &jobs, machines);
        let full = next.solve().expect("perturbed model is feasible");

        let (reduced, restore) = presolve_with(&next, certified_options())
            .expect("presolve never errors on a feasible model");
        let mapped = restore.map_warm_start(&next, &warm);
        let red_sol = match solve_dual_with_options(&reduced, &mapped, &RevisedOptions::default()) {
            Ok(s) => s,
            // The honest fallbacks the epoch ladder also takes.
            Err(LpError::DualDeclined(_) | LpError::SingularBasis) => {
                reduced.solve_warm(Some(&mapped)).expect("reduced model is feasible")
            }
            Err(e) => panic!("seed {seed}: unexpected dual error: {e}"),
        };
        let restored = restore.restore_solution(&next, &red_sol);

        prop_assert!(
            (restored.objective() - full.objective()).abs()
                <= TOL * (1.0 + full.objective().abs()),
            "seed {seed}: restored {} vs unreduced {}",
            restored.objective(),
            full.objective()
        );
        let cert = certify(&next, &restored).expect("restored duals present");
        prop_assert!(
            cert.is_optimal(),
            "seed {seed}: presolved dual re-solve failed certification:\n{cert}"
        );
    }
}
