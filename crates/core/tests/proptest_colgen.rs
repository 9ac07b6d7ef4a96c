//! Property tests for the column-generated restricted master: across
//! random clusters and epoch sequences, `solve_master` must land
//! on the full model's optimum (it certifies that itself — these tests
//! re-assert it externally against an independent full solve), and the
//! restricted certificate must reject masters whose excluded columns
//! were never priced in.

use lips_audit::certify_restricted_with;
use lips_cluster::{ec2_mixed_cluster, DataId, StoreId};
use lips_core::lp_build::{
    solve_full, solve_master, ColGenOptions, LpInstance, LpJob, PruneConfig,
};
use lips_lp::{Cmp, ConstraintId, Model};
use lips_workload::JobId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomEpochs {
    nodes: usize,
    c1: f64,
    seed: u64,
    jobs: Vec<(f64, f64, usize)>, // (size_mb, tcp, holder index)
    duration: f64,
    seed_arcs: usize,
    epochs: usize,
}

fn epochs_strategy() -> impl Strategy<Value = RandomEpochs> {
    (
        6usize..24,
        0.0f64..0.8,
        0u64..5000,
        prop::collection::vec((64.0f64..2048.0, 0.05f64..3.0, 0usize..100), 2..7),
        2_000.0f64..50_000.0,
        (1usize..6, 1usize..4),
    )
        .prop_map(
            |(nodes, c1, seed, jobs, duration, (seed_arcs, epochs))| RandomEpochs {
                nodes,
                c1,
                seed,
                jobs,
                duration,
                seed_arcs,
                epochs,
            },
        )
}

fn lp_jobs(ri: &RandomEpochs, epoch: usize) -> Vec<LpJob> {
    ri.jobs
        .iter()
        .enumerate()
        .map(|(k, &(size, tcp, h))| LpJob {
            id: JobId(k),
            data: Some(DataId(k)),
            // Remaining data shrinks across epochs like the scheduler's
            // steady state, perturbing costs without changing structure.
            size_mb: size * 0.9f64.powi(epoch as i32),
            tcp,
            fixed_ecu: 0.0,
            avail: vec![(StoreId(h % ri.nodes), 1.0)],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline soundness property: over a chained epoch sequence
    /// (cross-epoch column + basis reuse), every colgen objective matches
    /// the independently solved full model's within LP tolerance.
    #[test]
    fn colgen_objective_matches_full_model(ri in epochs_strategy()) {
        let cluster = ec2_mixed_cluster(ri.nodes, ri.c1, 1e9, ri.seed);
        let opts = ColGenOptions {
            seed_arcs_per_job: ri.seed_arcs,
        };
        let mut state = None;
        for e in 0..ri.epochs {
            let inst = LpInstance {
                cluster: &cluster,
                jobs: lp_jobs(&ri, e),
                duration: ri.duration,
                fake_cost: Some(1.0),
                allow_moves: true,
                enforce_transfer_time: false,
                store_free_mb: vec![],
                pool_floors: vec![],
                prune: PruneConfig::default(),
            };
            let full = solve_full(&inst)
                .map_err(|e| TestCaseError::fail(format!("full LP failed: {e}")))?
                .schedule;
            let out = solve_master(&inst, state.as_ref(), &opts)
                .map_err(|e| TestCaseError::fail(format!("colgen failed: {e}")))?;
            let cert = &out.certificate;
            prop_assert!(cert.is_optimal(), "epoch {e}: {cert}");
            let (cg_state, cg_stats) = out.master.expect("a master carries state");
            let scale = 1.0 + full.lp_objective.abs();
            prop_assert!(
                (out.schedule.lp_objective - full.lp_objective).abs() / scale < 1e-6,
                "epoch {e}: colgen {} vs full {}",
                out.schedule.lp_objective,
                full.lp_objective
            );
            prop_assert!(cg_stats.active_columns <= cg_stats.total_columns);
            state = Some(cg_state);
        }
    }

    /// The certificate must catch a lazy master: if an improving column
    /// was excluded and never priced in, `certify_restricted_with` reports a
    /// dual-feasibility violation and refuses optimality.
    #[test]
    fn certification_rejects_unpriced_masters(
        cheap in 0.05f64..0.9,
        dear in 1.0f64..10.0,
        demand in 1.0f64..8.0,
    ) {
        // Master: min dear·x s.t. x ≥ demand. Excluded: a cheaper column
        // in the same row. The master alone is optimal; the restriction
        // is not, and the restricted certificate must say so.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 100.0, dear);
        let row = m.add_constraint([(x, 1.0)], Cmp::Ge, demand);
        let sol = m.solve().unwrap();
        // Each excluded column is a `(key, cost)` pair with the one
        // coefficient 1 in the demand row.
        let column = |&(key, obj): &(u64, f64), terms: &mut Vec<(ConstraintId, f64)>| {
            terms.push((row, 1.0));
            (key, obj)
        };
        let excluded = [(1, cheap * dear)];
        let cert = certify_restricted_with(&m, &sol, &excluded, column).unwrap();
        prop_assert!(cert.master.is_optimal(), "master itself is optimal");
        prop_assert!(
            !cert.is_optimal(),
            "unpriced improving column must be rejected: {cert}"
        );
        prop_assert_eq!(cert.worst_excluded, Some(1));

        // Sanity: pricing the column in (dear excluded instead) passes.
        let fine = [(2, dear * 2.0)];
        let cert2 = certify_restricted_with(&m, &sol, &fine, column).unwrap();
        prop_assert!(cert2.is_optimal(), "{cert2}");
    }
}
