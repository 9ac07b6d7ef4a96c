//! Regression: an epoch LP of a SWIM-trace fault run whose primal solve
//! once failed certification. Phase 2 stopped on an optimum found through
//! a long eta file, and the drift left a duality gap of 2.4e-6 against a
//! certificate tolerance of 1.2e-6, so both primal rungs (warm and cold)
//! were rejected and the epoch ended `Degraded`. Phase 2 now refactors at
//! the optimum and resumes if the fresh factorization prices anything in.
//!
//! The instance is the queue the scheduler saw at that epoch: 20 nodes
//! (`ec2_mixed_cluster` seed 2413, the SWIM trace of the same seed bound
//! round-robin), 600-s epoch, no machine revoked at that moment.

use lips_cluster::{ec2_mixed_cluster, DataId, StoreId};
use lips_core::lp_build::{solve_full, LpInstance, LpJob, PruneConfig};
use lips_workload::{bind_workload, swim_trace, JobId, PlacementPolicy, SwimCfg};

const SEED: u64 = 2413;

/// `(job, data, remaining MB, ECU-s per MB, fixed ECU-s, avail)`.
type Job = (usize, Option<usize>, f64, f64, f64, &'static [(usize, f64)]);

const JOBS: &[Job] = &[
    (
        322,
        Some(300),
        7957.333333333285,
        1.171875,
        0.0,
        &[(0, 1.0)],
    ),
    (350, Some(327), 2624.0, 1.171875, 0.0, &[(7, 1.0)]),
    (351, Some(328), 128.0, 0.578125, 0.0, &[(8, 1.0)]),
    (352, Some(329), 512.0, 1.40625, 0.0, &[(9, 1.0)]),
    (353, Some(330), 1024.0, 0.578125, 0.0, &[(10, 1.0)]),
    (354, Some(331), 448.0, 0.3125, 0.0, &[(11, 1.0)]),
    (355, Some(332), 448.0, 0.578125, 0.0, &[(12, 1.0)]),
    (356, Some(333), 384.0, 1.40625, 0.0, &[(13, 1.0)]),
    (357, Some(334), 5440.0, 0.3125, 0.0, &[(14, 1.0)]),
    (358, Some(335), 128.0, 1.171875, 0.0, &[(15, 1.0)]),
    (359, Some(336), 192.0, 1.171875, 0.0, &[(16, 1.0)]),
    (360, Some(337), 384.0, 0.578125, 0.0, &[(17, 1.0)]),
    (361, Some(338), 64.0, 0.578125, 0.0, &[(18, 1.0)]),
    (362, Some(339), 192.0, 1.40625, 0.0, &[(19, 1.0)]),
    (363, Some(340), 1600.0, 0.578125, 0.0, &[(0, 1.0)]),
    (364, Some(341), 192.0, 0.578125, 0.0, &[(1, 1.0)]),
];

const STORE_FREE_MB: [f64; 20] = [
    0.0,
    0.0,
    0.0,
    90701.82630630629,
    155999.0582582582,
    79084.8730330331,
    196162.06990990968,
    210789.3083483483,
    193167.36,
    259477.33333333334,
    120960.0,
    344320.0,
    233216.0,
    290304.0,
    340736.0,
    265600.0,
    305280.0,
    214592.0,
    342528.0,
    202688.0,
];

#[test]
fn cold_primal_rung_certifies_the_drift_epoch() {
    let cfg = SwimCfg {
        jobs: 1000,
        hours: 20,
        ..SwimCfg::default()
    };
    let mut cluster = ec2_mixed_cluster(20, 0.5, 1e9, SEED);
    bind_workload(
        &mut cluster,
        swim_trace(&cfg, SEED),
        PlacementPolicy::RoundRobin,
        SEED,
    );
    // The cluster is the one the run saw.
    assert_eq!(cluster.machines[0].cpu_cost, 1.1222248016034263e-5);
    assert_eq!(cluster.machines[19].cpu_cost, 5.770852656192998e-5);
    let inst = LpInstance {
        cluster: &cluster,
        jobs: JOBS
            .iter()
            .map(|&(id, data, size_mb, tcp, fixed_ecu, avail)| LpJob {
                id: JobId(id),
                data: data.map(DataId),
                size_mb,
                tcp,
                fixed_ecu,
                avail: avail.iter().map(|&(s, f)| (StoreId(s), f)).collect(),
            })
            .collect(),
        duration: 600.0,
        fake_cost: Some(1.0),
        allow_moves: true,
        enforce_transfer_time: true,
        store_free_mb: STORE_FREE_MB.to_vec(),
        pool_floors: vec![],
        prune: PruneConfig {
            max_machines_per_job: None,
            max_new_stores_per_job: Some(8),
        },
    };
    // The ladder's last rung: a cold primal solve with no carried state.
    let report =
        solve_full(&inst, Some(1)).unwrap_or_else(|e| panic!("the cold primal rung failed: {e}"));
    assert!(report.certificate.is_optimal());
    assert!(
        report.schedule.stats.phase1_iterations > 0,
        "a primal solve"
    );
}
