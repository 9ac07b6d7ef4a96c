//! The fault-mode acceptance criterion, end to end: a multi-epoch LiPS
//! run under machine revocations and a store loss completes with every
//! epoch either certified or explicitly marked degraded, and no job work
//! lost (executed ECU-seconds = demand + the burned fraction of killed
//! chunks).

use lips::cluster::{ec2_20_node, MachineId, StoreId};
use lips::core::{EpochOutcome, LipsScheduler, RunSummary, SchedulerConfig};
use lips::sim::{assert_valid, FaultPlan, Placement, Simulation};
use lips::workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

fn fault_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(0, "grep", JobKind::Grep, 2048.0, 32),
        JobSpec::new(1, "wc", JobKind::WordCount, 2048.0, 32),
        JobSpec::new(2, "stress", JobKind::Stress2, 1024.0, 16),
        JobSpec::new(3, "pi", JobKind::Pi, 0.0, 4),
    ]
}

#[test]
fn twenty_epoch_fault_run_certifies_or_degrades_every_epoch() {
    let mut cluster = ec2_20_node(0.5, 1e9);
    let workload = bind_workload(&mut cluster, fault_jobs(), PlacementPolicy::RoundRobin, 1);
    // Two replicas of every block: one store loss is always survivable.
    let placement = Placement::spread_blocks_replicated(&cluster, 1, 2);

    // Calibrate the epoch so the run spans >= 20 epochs: shrinking the
    // epoch also shrinks the makespan (less idle waiting between ticks),
    // so iterate until the ratio settles.
    let mut epoch = 400.0;
    let mut m = f64::INFINITY;
    for _ in 0..4 {
        let mut probe = LipsScheduler::new(SchedulerConfig::small_cluster(epoch));
        let clean = Simulation::new(&cluster, &workload)
            .with_placement(placement.clone())
            .run(&mut probe)
            .expect("clean run completes");
        m = clean.makespan;
        if m / epoch >= 22.0 {
            break;
        }
        epoch = m / 26.0;
    }
    let plan = FaultPlan::new()
        .revoke_at(0.15 * m, MachineId(3))
        .lose_store_at(0.25 * m, StoreId(6))
        .revoke_at(0.35 * m, MachineId(8))
        .revoke_at(0.55 * m, MachineId(13))
        .rejoin_at(0.75 * m, MachineId(3));

    let mut sched = LipsScheduler::new(SchedulerConfig::small_cluster(epoch));
    let report = Simulation::new(&cluster, &workload)
        .with_placement(placement)
        .with_faults(plan)
        .run(&mut sched)
        .expect("fault run completes without panicking");

    // Faults were actually delivered.
    assert_eq!(report.metrics.faults.revocations, 3);
    assert_eq!(report.metrics.faults.store_losses, 1);
    assert_eq!(report.metrics.faults.rejoins, 1);

    // Every job completed, the books balance, no work went missing.
    assert_eq!(report.outcomes.len(), fault_jobs().len());
    assert_valid(&report, &cluster, &workload);
    let demand: f64 = fault_jobs()
        .iter()
        .map(lips::workload::JobSpec::total_ecu_sec_with_reduce)
        .sum();
    let executed: f64 = report.metrics.ecu_sec_by_machine.values().sum();
    assert!(
        (executed - demand - report.metrics.faults.lost_ecu_sec).abs() < 1e-3 * (1.0 + demand),
        "executed {executed} != demand {demand} + burned {}",
        report.metrics.faults.lost_ecu_sec
    );

    // The headline: >= 20 epochs, each one certified (master or cold)
    // or explicitly degraded — never silently unaccounted.
    let records = sched.epoch_records();
    let outcomes: Vec<&str> = records.iter().map(|r| r.outcome.as_str()).collect();
    assert!(outcomes.len() >= 20, "only {} epochs ran", outcomes.len());
    let count = |o: EpochOutcome| outcomes.iter().filter(|&&s| s == o.as_str()).count();
    let degraded = count(EpochOutcome::Degraded);
    assert_eq!(
        degraded, report.metrics.faults.degraded_epochs,
        "the report must carry the scheduler's degraded-epoch count"
    );
    let master = count(EpochOutcome::Certified);
    let certified = master + count(EpochOutcome::CertifiedCold);
    assert_eq!(certified + degraded, outcomes.len());
    // The run summary must agree with the per-epoch records.
    assert_eq!(master, RunSummary::from_records(records).master_epochs);

    // The first epoch has nothing carried: the master serves it, its dual
    // starting from the slack basis, and it is not an incremental solve.
    let first = &records[0];
    assert_eq!(
        outcomes[0],
        EpochOutcome::Certified.as_str(),
        "the first epoch must be served by the master: {outcomes:?}"
    );
    assert_eq!(first.warm, "Cold");
    assert!(!first.incremental);
    assert_eq!(first.phase1_iterations, 0);
    assert!(first.dual_pivots > 0);
    // Every later epoch re-solves the master from the columns and basis
    // the previous one carried, revocations included.
    for r in &records[1..] {
        assert!(
            r.incremental,
            "epoch {} was not incremental: {outcomes:?}",
            r.epoch
        );
    }
}

#[test]
fn job_survives_revocation_of_its_only_holders_machine() {
    // All input sits on one store. Its colocated machine — the only free
    // read path — dies mid-run. The job must finish anyway (remote reads,
    // a re-replicated copy, or fake-node deferral), never vanish.
    let mut cluster = ec2_20_node(0.0, 1e9);
    let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
    let workload = bind_workload(
        &mut cluster,
        jobs.clone(),
        PlacementPolicy::SingleStore(StoreId(0)),
        1,
    );
    let placement = Placement::from_cluster(&cluster);
    let victim = cluster
        .store(StoreId(0))
        .colocated
        .expect("store 0 is a DataNode");

    let mut probe = LipsScheduler::new(SchedulerConfig::small_cluster(300.0));
    let clean = Simulation::new(&cluster, &workload)
        .with_placement(placement.clone())
        .run(&mut probe)
        .expect("clean run completes");

    let plan = FaultPlan::new().revoke_at(clean.makespan * 0.2, victim);
    let mut sched = LipsScheduler::new(SchedulerConfig::small_cluster(clean.makespan / 8.0));
    let report = Simulation::new(&cluster, &workload)
        .with_placement(placement)
        .with_faults(plan)
        .run(&mut sched)
        .expect("job must survive the revocation");

    assert_eq!(report.metrics.faults.revocations, 1);
    assert_eq!(report.outcomes.len(), 1, "the job vanished");
    assert_valid(&report, &cluster, &workload);
    // Work that could no longer run locally went somewhere else: remote
    // reads or data movement off the orphaned store.
    assert!(
        report.metrics.remote_read_mb > 0.0 || report.metrics.moved_mb > 0.0,
        "all reads stayed local despite the only local machine dying"
    );
    // And nothing executed on the dead machine after its revocation
    // beyond what it burned before dying.
    let on_victim = report
        .metrics
        .busy_sec_by_machine
        .get(&victim)
        .copied()
        .unwrap_or(0.0);
    assert!(
        on_victim <= clean.makespan * 0.2 * f64::from(cluster.machine(victim).slots) + 1e-6,
        "the dead machine kept working: {on_victim}s busy"
    );
}
