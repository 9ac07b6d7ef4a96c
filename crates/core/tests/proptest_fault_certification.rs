//! Property: objective certification survives random revocation schedules.
//!
//! Machines are revoked (tp_ecu = 0) in random waves across a chained
//! epoch sequence. Each epoch the epoch LP is re-solved by the restricted
//! master from the previous master's columns and basis as they stand, as
//! on the scheduler's ladder: carried keys that name a revoked machine
//! match nothing in the new model. The carried solve must land on exactly
//! the optimum an independent cold solve certifies — a carry that
//! resurrected a dead machine's columns or rows would either fail KKT
//! certification, move the objective or schedule work on that machine.

use lips_cluster::{ec2_mixed_cluster, DataId, StoreId};
use lips_core::lp_build::{
    solve_full, solve_master, ColGenOptions, ColGenState, LpInstance, LpJob, PruneConfig,
};
use lips_workload::JobId;
use proptest::prelude::*;

fn jobs(n: usize, stores: usize) -> Vec<LpJob> {
    (0..n)
        .map(|k| LpJob {
            id: JobId(k),
            data: Some(DataId(k)),
            size_mb: 512.0 + 256.0 * (k % 3) as f64,
            tcp: 1.0,
            fixed_ecu: 0.0,
            avail: vec![(StoreId(k % stores), 1.0)],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn certification_holds_on_random_revocation_schedules(
        nodes in 8usize..20,
        seed in 0u64..200,
        n_jobs in 4usize..10,
        kill_mask in prop::collection::vec(any::<bool>(), 20),
        epochs in 2usize..5,
    ) {
        let mut cluster = ec2_mixed_cluster(nodes, 0.4, 1e9, seed);
        let mut carry: Option<ColGenState> = None;
        for e in 0..epochs {
            // A fresh wave of revocations each epoch: machine i dies in
            // epoch i % epochs if the mask says so — but never the whole
            // cluster.
            for (i, &kill) in kill_mask.iter().enumerate().take(nodes) {
                let live = cluster.machines.iter().filter(|m| m.tp_ecu > 0.0).count();
                if live > 1 && kill && i % epochs == e {
                    cluster.machines[i].tp_ecu = 0.0;
                }
            }
            let inst = LpInstance {
                cluster: &cluster,
                jobs: jobs(n_jobs, cluster.num_stores()),
                duration: 600.0,
                fake_cost: Some(1.0),
                allow_moves: true,
                enforce_transfer_time: true,
                store_free_mb: vec![],
                pool_floors: vec![],
                prune: PruneConfig::default(),
            };
            // The chained state still names the machines revoked since it
            // was taken; the bug class under test is silently reusing
            // rows/columns of vanished machines.
            let mut warm = solve_master(&inst, carry.as_ref(), &ColGenOptions::default())
                .map_err(|err| TestCaseError::fail(format!("epoch {e}: warm solve failed: {err}")))?;
            let warm_cert = &warm.certificate;
            prop_assert!(warm_cert.is_optimal(), "epoch {e}: {warm_cert}");

            let cold = solve_full(&inst)
                .map_err(|err| TestCaseError::fail(format!("epoch {e}: cold solve failed: {err}")))?;
            // Both solves are KKT-certified, which bounds each to within
            // the certifier's gap tolerance of the optimum — so the two
            // objectives may differ by that tolerance, not exact equality.
            let scale = 1.0 + cold.schedule.lp_objective.abs();
            prop_assert!(
                (warm.schedule.lp_objective - cold.schedule.lp_objective).abs() / scale < 1e-4,
                "epoch {e}: warm {} vs cold {}",
                warm.schedule.lp_objective,
                cold.schedule.lp_objective
            );
            // No task fraction may land on a dead machine.
            for &(_, m, _, f) in &warm.schedule.assignments {
                if f > 1e-9 {
                    prop_assert!(
                        cluster.machine(m).tp_ecu > 0.0,
                        "epoch {e}: fraction {f} scheduled on dead {m:?}"
                    );
                }
            }
            carry = warm.take_carry();
        }
    }
}
