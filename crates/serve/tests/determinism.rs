//! The daemon's determinism contract, property-tested: over random
//! clusters, arrival streams, and mid-stream revocations, a trajectory
//! must be **bitwise** identical at any solver worker-thread count —
//! every admission decision, epoch boundary, LP objective, and the final
//! bill, down to the last mantissa bit. The drained trajectory must also
//! pass the simulator's billing and conservation checks
//! (`lips_sim::validate_report`) with no action refused.

use lips_cluster::ec2_mixed_cluster;
use lips_serve::{Daemon, ServeConfig};
use lips_sim::{validate_report, Violation};
use lips_workload::{
    assign_arrivals, random_workload, ArrivalProcess, BoundWorkload, JobKind, JobSpec,
    RandomWorkloadCfg,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    nodes: usize,
    c1: f64,
    seed: u64,
    jobs: usize,
    horizon: f64,
    reduce_every: usize,
    /// Revoke machine `(revoke % nodes)` after `revoke_at` epochs;
    /// `revoke >= 100` disables.
    revoke: usize,
    revoke_at: usize,
    tune: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (6usize..14, 0.0f64..0.8, 0u64..10_000),
        (4usize..10, 1_000.0f64..8_000.0, 2usize..5),
        (0usize..200, 1usize..4, any::<bool>()),
    )
        .prop_map(
            |((nodes, c1, seed), (jobs, horizon, reduce_every), (revoke, revoke_at, tune))| {
                Scenario {
                    nodes,
                    c1,
                    seed,
                    jobs,
                    horizon,
                    reduce_every,
                    revoke,
                    revoke_at,
                    tune,
                }
            },
        )
}

/// A trajectory fingerprint where every float is captured by its bits.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    admissions: Vec<(u64, usize, String)>,
    epochs: Vec<(u64, u64, String, bool, usize, u64, usize)>,
    completed: Vec<(usize, u64)>,
    total_dollars: u64,
    objectives: Vec<u64>,
}

/// What the executor checks say about a drained trajectory.
#[derive(Debug)]
struct Checks {
    violations: Vec<Violation>,
    refused_actions: usize,
    reduce_jobs: usize,
}

fn run(s: &Scenario, threads: usize) -> (Fingerprint, Checks) {
    let mut config = ServeConfig::default();
    config.scheduler.threads = Some(threads);
    if s.tune {
        config.tuning = Some(lips_serve::TuneConfig::default());
    }
    let mut d = Daemon::new(ec2_mixed_cluster(s.nodes, s.c1, 1e9, s.seed), config);
    let mut specs = random_workload(
        &RandomWorkloadCfg {
            jobs: s.jobs,
            ..Default::default()
        },
        s.seed,
    );
    assign_arrivals(&mut specs, ArrivalProcess::Poisson, s.horizon, s.seed);
    let mut handed = Vec::new();
    for (i, mut spec) in specs.into_iter().enumerate() {
        if i % s.reduce_every == 0 {
            let tcp = spec.tcp_ecu_sec_per_mb;
            spec = spec.with_reduce(2, 256.0, tcp.max(0.1));
        }
        handed.push(spec.clone());
        assert!(d.enqueue(spec));
    }
    // Extra mid-run control-path submission, after some epochs.
    for _ in 0..s.revoke_at {
        d.run_epoch();
    }
    let late = JobSpec::new(d.fresh_job_id(), "late", JobKind::Grep, 777.0, 3);
    handed.push(late.clone());
    d.submit(late).expect("a fresh id is accepted");
    if s.revoke < 100 {
        d.revoke(s.revoke % s.nodes);
        for _ in 0..2 {
            d.run_epoch();
        }
        d.rejoin(s.revoke % s.nodes);
    }
    d.run_until_drained(250);

    // The workload the daemon ran is what it admitted.
    let admitted: Vec<usize> = d
        .admission_log()
        .iter()
        .filter(|e| e.decision == "admitted")
        .map(|e| e.job)
        .collect();
    let jobs: Vec<JobSpec> = handed
        .into_iter()
        .filter(|j| admitted.contains(&j.id.0))
        .collect();
    let reduce_jobs = jobs.iter().filter(|j| j.reduce.is_some()).count();
    let report = d.report().expect("the stream drains");
    let checks = Checks {
        violations: validate_report(&report, d.cluster(), &BoundWorkload { jobs }),
        refused_actions: d.summary().refused_actions,
        reduce_jobs,
    };

    let fingerprint = Fingerprint {
        admissions: d
            .admission_log()
            .iter()
            .map(|e| (e.now.to_bits(), e.job, e.decision.clone()))
            .collect(),
        epochs: d
            .epoch_log()
            .iter()
            .map(|e| {
                (
                    e.now.to_bits(),
                    e.epoch_s.to_bits(),
                    e.outcome.clone(),
                    e.incremental,
                    e.chunks,
                    e.moved_mb.to_bits(),
                    e.queue_depth,
                )
            })
            .collect(),
        completed: d
            .completed()
            .iter()
            .map(|j| (j.id.0, j.completed.to_bits()))
            .collect(),
        total_dollars: d.total_dollars().to_bits(),
        objectives: d
            .scheduler()
            .epoch_records()
            .iter()
            .map(|r| r.objective.to_bits())
            .collect(),
    };
    (fingerprint, checks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn trajectories_are_bitwise_identical_across_thread_counts(s in scenario()) {
        let (serial, checks) = run(&s, 1);
        // Every scenario runs reduce jobs, and the executor's checks hold
        // on the drained run.
        prop_assert!(checks.reduce_jobs > 0);
        prop_assert!(checks.violations.is_empty(), "{:?}", checks.violations);
        prop_assert_eq!(checks.refused_actions, 0);
        let (wide, _) = run(&s, 4);
        prop_assert_eq!(&serial, &wide);
        // And re-running serially is self-consistent (no hidden state).
        let (again, _) = run(&s, 1);
        prop_assert_eq!(&serial, &again);
    }
}
