//! Property tests for the determinism contract of the epoch pipeline:
//! across random clusters and chained epoch sequences — including
//! mid-chain machine revocations — two runs of model build, column
//! pricing, and certification must produce **bitwise** identical
//! reports. Not "close": identical, down to the last mantissa bit of
//! every objective and certificate residual.

use lips_cluster::{ec2_mixed_cluster, Cluster, DataId, StoreId};
use lips_core::lp_build::{
    solve_full, solve_master, ColGenOptions, LpInstance, LpJob, PruneConfig, SolveReport,
};
use lips_lp::WarmStart;
use lips_workload::JobId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomChain {
    nodes: usize,
    c1: f64,
    seed: u64,
    jobs: Vec<(f64, f64, usize)>, // (size_mb, tcp, holder index)
    duration: f64,
    seed_arcs: usize,
    epochs: usize,
    /// Machine index to revoke (tp_ecu = 0) at epoch 1, if any — the
    /// chained state, carried as it stands, must solve identically in
    /// every run.
    revoke: Option<usize>,
}

fn chain_strategy() -> impl Strategy<Value = RandomChain> {
    (
        6usize..20,
        0.0f64..0.8,
        0u64..5000,
        prop::collection::vec((64.0f64..2048.0, 0.05f64..3.0, 0usize..100), 2..6),
        2_000.0f64..50_000.0,
        // Last element encodes `Option<usize>`: ≥ 100 means no revocation.
        (1usize..5, 2usize..4, 0usize..200),
    )
        .prop_map(
            |(nodes, c1, seed, jobs, duration, (seed_arcs, epochs, revoke))| RandomChain {
                nodes,
                c1,
                seed,
                jobs,
                duration,
                seed_arcs,
                epochs,
                revoke: (revoke < 100).then_some(revoke),
            },
        )
}

fn lp_jobs(rc: &RandomChain, epoch: usize) -> Vec<LpJob> {
    rc.jobs
        .iter()
        .enumerate()
        .map(|(k, &(size, tcp, h))| LpJob {
            id: JobId(k),
            data: Some(DataId(k)),
            size_mb: size * 0.9f64.powi(epoch as i32),
            tcp,
            fixed_ecu: 0.0,
            // Two replica holders so a revocation never strands a job.
            avail: vec![
                (StoreId(h % rc.nodes), 1.0),
                (StoreId((h + rc.nodes / 2 + 1) % rc.nodes), 1.0),
            ],
        })
        .collect()
}

fn instance<'c>(rc: &RandomChain, cluster: &'c Cluster, epoch: usize) -> LpInstance<'c> {
    LpInstance {
        cluster,
        jobs: lp_jobs(rc, epoch),
        duration: rc.duration,
        fake_cost: Some(1.0),
        allow_moves: true,
        enforce_transfer_time: false,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig::default(),
    }
}

/// Assert every observable of two same-epoch reports is bit-identical.
fn assert_bitwise(a: &SolveReport, b: &SolveReport, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.schedule.lp_objective.to_bits(),
        b.schedule.lp_objective.to_bits(),
        "{}: lp_objective {} vs {}",
        ctx,
        a.schedule.lp_objective,
        b.schedule.lp_objective
    );
    prop_assert_eq!(
        a.schedule.predicted_dollars.to_bits(),
        b.schedule.predicted_dollars.to_bits(),
        "{}: predicted_dollars",
        ctx
    );
    prop_assert_eq!(
        &a.schedule.assignments,
        &b.schedule.assignments,
        "{}: assignments",
        ctx
    );
    prop_assert_eq!(&a.schedule.moves, &b.schedule.moves, "{}: moves", ctx);
    prop_assert_eq!(
        a.schedule.stats.iterations,
        b.schedule.stats.iterations,
        "{}: iterations",
        ctx
    );
    let shadow_bits = |r: &SolveReport| -> Vec<(usize, u64)> {
        r.shadow_prices
            .iter()
            .map(|&(m, p)| (m.0, p.to_bits()))
            .collect()
    };
    prop_assert_eq!(shadow_bits(a), shadow_bits(b), "{}: shadow_prices", ctx);
    let (ca, cb) = (&a.certificate, &b.certificate);
    prop_assert_eq!(
        ca.master.duality_gap.to_bits(),
        cb.master.duality_gap.to_bits(),
        "{}: duality_gap",
        ctx
    );
    prop_assert_eq!(
        ca.master.max_dual_violation.to_bits(),
        cb.master.max_dual_violation.to_bits(),
        "{}: max_dual_violation",
        ctx
    );
    prop_assert_eq!(
        ca.max_excluded_violation.to_bits(),
        cb.max_excluded_violation.to_bits(),
        "{}: max_excluded_violation",
        ctx
    );
    prop_assert_eq!(
        &ca.worst_excluded,
        &cb.worst_excluded,
        "{}: worst_excluded",
        ctx
    );
    prop_assert_eq!(ca.is_optimal(), cb.is_optimal(), "{}: verdict", ctx);
    Ok(())
}

/// The cold primal on the full model certifies the same objective as
/// `report`, and its own report is bitwise identical from run to run.
fn assert_cold_parity(
    inst: &LpInstance<'_>,
    report: &SolveReport,
    epoch: usize,
) -> Result<(), TestCaseError> {
    let full =
        || solve_full(inst).map_err(|e| TestCaseError::fail(format!("cold primal failed: {e}")));
    let cold = full()?;
    assert_bitwise(&cold, &full()?, &format!("epoch {epoch} full model"))?;
    let (p, m) = (cold.schedule.lp_objective, report.schedule.lp_objective);
    prop_assert!(
        (p - m).abs() <= 1e-6 * (1.0 + p.abs()),
        "epoch {}: cold primal {} vs master {}",
        epoch,
        p,
        m
    );
    Ok(())
}

/// Apply the chain's scripted revocation to the live cluster at epoch 1.
fn maybe_revoke(rc: &RandomChain, cluster: &mut Cluster, epoch: usize) {
    if epoch == 1 {
        if let Some(m) = rc.revoke {
            let m = m % cluster.machines.len();
            // Leave at least one machine up so the epoch stays solvable.
            if cluster.machines.iter().filter(|x| x.tp_ecu > 0.0).count() > 1 {
                cluster.machines[m].tp_ecu = 0.0;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Colgen chains (build + batch pricing + restricted certification,
    /// the carried basis reused across epochs, as it stands across a
    /// mid-chain revocation) are certified, land on the cold primal's
    /// optimum, and two chains run side by side are bitwise identical.
    #[test]
    fn colgen_chain_is_bitwise_identical_run_to_run(rc in chain_strategy()) {
        let mut cluster = ec2_mixed_cluster(rc.nodes, rc.c1, 1e9, rc.seed);
        let opts = ColGenOptions {
            seed_arcs_per_job: rc.seed_arcs,
        };
        let mut first: Option<WarmStart> = None;
        let mut second: Option<WarmStart> = None;
        for e in 0..rc.epochs {
            maybe_revoke(&rc, &mut cluster, e);
            let inst = instance(&rc, &cluster, e);
            let run = |state: Option<&WarmStart>| {
                solve_master(&inst, state, &opts)
                    .map_err(|e| TestCaseError::fail(format!("colgen failed: {e}")))
            };
            let a = run(first.as_ref())?;
            let b = run(second.as_ref())?;
            assert_bitwise(&a, &b, &format!("epoch {e}"))?;
            prop_assert!(a.certificate.is_optimal(), "epoch {}: {}", e, a.certificate);
            assert_cold_parity(&inst, &a, e)?;
            let (sa, stats_a) = a.master.expect("a master carries state");
            let (sb, stats_b) = b.master.expect("a master carries state");
            prop_assert_eq!(&sa, &sb, "epoch {}", e);
            prop_assert_eq!(stats_a.active_columns, stats_b.active_columns);
            prop_assert_eq!(stats_a.appended, stats_b.appended);
            prop_assert_eq!(stats_a.rounds, stats_b.rounds);
            first = Some(sa);
            second = Some(sb);
        }
    }

    /// A master with nothing carried starts its dual from the slack
    /// basis: on random Fig-4 epochs (revocations included) it certifies
    /// the cold primal's objective, needs no phase 1, and its run is
    /// bitwise identical from run to run.
    #[test]
    fn slack_start_master_matches_cold_primal(rc in chain_strategy()) {
        let mut cluster = ec2_mixed_cluster(rc.nodes, rc.c1, 1e9, rc.seed);
        for e in 0..rc.epochs {
            maybe_revoke(&rc, &mut cluster, e);
            let inst = instance(&rc, &cluster, e);
            let master = || {
                solve_master(&inst, None, &ColGenOptions::default())
                    .map_err(|e| TestCaseError::fail(format!("slack-start master failed: {e}")))
            };
            let a = master()?;
            let b = master()?;
            assert_bitwise(&a, &b, &format!("epoch {e}"))?;
            assert_cold_parity(&inst, &a, e)?;
            let stats = a.schedule.stats;
            prop_assert_eq!(stats.warm, lips_lp::WarmOutcome::Cold);
            prop_assert_eq!(stats.phase1_iterations, 0);
            prop_assert_eq!(stats.declined, None);
        }
    }
}
