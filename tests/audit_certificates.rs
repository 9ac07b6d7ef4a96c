//! End-to-end audit coverage for the paper models: every Fig 2 / Fig 3 /
//! Fig 4 LP built by `lips-core` must (a) pass the model linter and the
//! paper-invariant audit with zero errors, and (b) produce a solution the
//! independent certificate verifier certifies as optimal.

use lips::audit::Severity;
use lips::cluster::ec2_20_node;
use lips::core::lp_build::{audit_instance, build_audited, solve_full, LpInstance, PruneConfig};
use lips::core::offline::lp_jobs_from_specs;
use lips::sim::{validate_certificate, Placement};
use lips::workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

/// One bound workload on the 20-node testbed, reused by every figure.
fn testbed(seed: u64) -> (lips::cluster::Cluster, Vec<lips::core::lp_build::LpJob>) {
    let mut cluster = ec2_20_node(0.5, 3600.0);
    let jobs = vec![
        JobSpec::new(0, "grep", JobKind::Grep, 1024.0, 16),
        JobSpec::new(1, "stress", JobKind::Stress2, 512.0, 8),
        JobSpec::new(2, "wc", JobKind::WordCount, 768.0, 12),
        JobSpec::new(3, "pi", JobKind::Pi, 0.0, 4),
    ];
    let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RandomUniform, seed);
    let placement = Placement::from_cluster(&cluster);
    let lp_jobs = lp_jobs_from_specs(&bound.jobs, &placement);
    (cluster, lp_jobs)
}

/// Fig 2: data immobile, full assignment, no fake node.
fn fig2<'a>(
    cluster: &'a lips::cluster::Cluster,
    jobs: Vec<lips::core::lp_build::LpJob>,
) -> LpInstance<'a> {
    LpInstance {
        cluster,
        jobs,
        duration: 3600.0,
        fake_cost: None,
        allow_moves: false,
        enforce_transfer_time: false,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig::default(),
    }
}

/// Fig 3: co-scheduling — planned copies allowed.
fn fig3<'a>(
    cluster: &'a lips::cluster::Cluster,
    jobs: Vec<lips::core::lp_build::LpJob>,
) -> LpInstance<'a> {
    LpInstance {
        allow_moves: true,
        ..fig2(cluster, jobs)
    }
}

/// Fig 4: the online epoch model — fake node, transfer-time budget.
fn fig4<'a>(
    cluster: &'a lips::cluster::Cluster,
    jobs: Vec<lips::core::lp_build::LpJob>,
) -> LpInstance<'a> {
    LpInstance {
        duration: 600.0,
        fake_cost: Some(1.0),
        enforce_transfer_time: true,
        ..fig3(cluster, jobs)
    }
}

fn check_instance(name: &str, inst: &LpInstance<'_>) {
    // Static pass: lint + paper invariants, no errors allowed.
    let lints = audit_instance(inst);
    let errors: Vec<_> = lints
        .iter()
        .filter(|l| l.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "{name}: audit errors: {errors:?}");

    // Dynamic pass: solve and certify through the independent verifier.
    let report = solve_full(inst, None).expect("solvable");
    let schedule = report.schedule;
    let cert = report.certificate.master;
    assert!(cert.is_optimal(), "{name}: {cert}");
    assert!(
        cert.duality_gap <= 1e-6 * (1.0 + cert.primal_objective.abs()),
        "{name}: {cert}"
    );
    assert!(
        cert.max_slackness_violation <= 1e-6 * cert.gap_scale,
        "{name}: {cert}"
    );
    assert!(schedule.lp_objective.is_finite());

    // The sim-facing wrapper agrees with the raw certificate.
    let (model, _, _) = build_audited(inst);
    let sol = model.solve().expect("solvable");
    assert!(
        validate_certificate(&model, &sol).is_empty(),
        "{name}: sim wrapper disagrees"
    );
}

#[test]
fn fig2_models_lint_clean_and_certify_optimal() {
    for seed in 0..3 {
        let (cluster, jobs) = testbed(seed);
        check_instance("fig2", &fig2(&cluster, jobs));
    }
}

#[test]
fn fig3_models_lint_clean_and_certify_optimal() {
    for seed in 0..3 {
        let (cluster, jobs) = testbed(seed);
        check_instance("fig3", &fig3(&cluster, jobs));
    }
}

#[test]
fn fig4_models_lint_clean_and_certify_optimal() {
    for seed in 0..3 {
        let (cluster, jobs) = testbed(seed);
        check_instance("fig4", &fig4(&cluster, jobs));
    }
}
