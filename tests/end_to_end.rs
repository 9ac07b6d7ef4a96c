//! Cross-crate integration: cluster → workload → simulation → metrics,
//! under every scheduler, with conservation checks.

use lips::cluster::{ec2_20_node, ec2_mixed_cluster};
use lips::core::{
    DelayScheduler, FairScheduler, HadoopDefaultScheduler, LipsScheduler, SchedulerConfig,
};
use lips::sim::{Placement, Scheduler, SimReport, Simulation};
use lips::workload::{bind_workload, table_iv_suite, JobKind, JobSpec, PlacementPolicy};

fn mixed_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(0, "grep", JobKind::Grep, 2048.0, 32),
        JobSpec::new(1, "wc", JobKind::WordCount, 2048.0, 32),
        JobSpec::new(2, "stress", JobKind::Stress2, 1024.0, 16),
        JobSpec::new(3, "pi", JobKind::Pi, 0.0, 4),
    ]
}

fn run(sched: &mut dyn Scheduler, jobs: Vec<JobSpec>, seed: u64) -> SimReport {
    let mut cluster = ec2_20_node(0.5, 1e9);
    let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, seed);
    let placement = Placement::spread_blocks(&cluster, seed);
    Simulation::new(&cluster, &workload)
        .with_placement(placement)
        .run(sched)
        .expect("simulation completes")
}

#[test]
fn every_scheduler_completes_the_mixed_workload() {
    let scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(LipsScheduler::new(SchedulerConfig::small_cluster(400.0))),
        Box::new(HadoopDefaultScheduler::new()),
        Box::new(DelayScheduler::default()),
        Box::new(FairScheduler::new()),
    ];
    for mut s in scheds {
        let name = s.name().to_string();
        let r = run(s.as_mut(), mixed_jobs(), 1);
        assert_eq!(r.outcomes.len(), 4, "{name}");
        assert!(r.metrics.total_dollars() > 0.0, "{name}");
        assert!(r.makespan > 0.0, "{name}");
    }
}

#[test]
fn executed_ecu_seconds_match_workload_demand() {
    // Conservation: the simulator must execute exactly the ECU-seconds the
    // workload demands — no lost or duplicated work — for every scheduler.
    let demand: f64 = mixed_jobs()
        .iter()
        .map(lips::workload::JobSpec::total_ecu_sec)
        .sum();
    let scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(LipsScheduler::new(SchedulerConfig::small_cluster(400.0))),
        Box::new(HadoopDefaultScheduler::new()),
        Box::new(DelayScheduler::default()),
    ];
    for mut s in scheds {
        let name = s.name().to_string();
        let r = run(s.as_mut(), mixed_jobs(), 2);
        let executed: f64 = r.metrics.ecu_sec_by_machine.values().sum();
        assert!(
            (executed - demand).abs() < 1e-3,
            "{name}: executed {executed} vs demand {demand}"
        );
    }
}

#[test]
fn cpu_bill_equals_priced_work() {
    // The CPU bill must equal Σ (per-machine ECU-seconds × that machine's
    // price): billing is exact, not approximated.
    let mut cluster = ec2_20_node(0.5, 1e9);
    let workload = bind_workload(&mut cluster, mixed_jobs(), PlacementPolicy::RoundRobin, 3);
    let placement = Placement::spread_blocks(&cluster, 3);
    let mut sched = LipsScheduler::new(SchedulerConfig::small_cluster(400.0));
    let r = Simulation::new(&cluster, &workload)
        .with_placement(placement)
        .run(&mut sched)
        .unwrap();
    let expected: f64 = r
        .metrics
        .ecu_sec_by_machine
        .iter()
        .map(|(m, ecu)| cluster.machine(*m).cpu_dollars(*ecu))
        .sum();
    assert!((r.metrics.cpu_dollars - expected).abs() < 1e-9);
}

#[test]
fn paper_cost_ordering_holds_on_the_table_iv_suite() {
    // The headline claim, end to end, on the real suite: LiPS (long epoch)
    // is strictly cheaper than the default and delay schedulers on the
    // heterogeneous testbed.
    let mut costs = std::collections::BTreeMap::new();
    let scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(LipsScheduler::new(SchedulerConfig::small_cluster(2000.0))),
        Box::new(HadoopDefaultScheduler::new()),
        Box::new(DelayScheduler::default()),
    ];
    for mut s in scheds {
        let name = s.name().to_string();
        let r = run(s.as_mut(), table_iv_suite(), 4);
        assert_eq!(r.outcomes.len(), 9, "{name}");
        costs.insert(name, r.metrics.total_dollars());
    }
    assert!(costs["lips"] < costs["hadoop-default"], "{costs:?}");
    assert!(costs["lips"] < costs["delay"], "{costs:?}");
    // And by a substantial margin on the 50% c1.medium testbed.
    assert!(
        costs["lips"] < 0.6 * costs["delay"],
        "expected >40% savings: {costs:?}"
    );
}

#[test]
fn lips_saving_grows_with_heterogeneity() {
    // Figure 6's shape: savings in (iii) exceed savings in (i).
    let saving = |c1: f64| {
        let run_on = |sched: &mut dyn Scheduler| {
            let mut cluster = ec2_mixed_cluster(20, c1, 1e9, 7);
            let workload =
                bind_workload(&mut cluster, mixed_jobs(), PlacementPolicy::RoundRobin, 7);
            let placement = Placement::spread_blocks(&cluster, 7);
            Simulation::new(&cluster, &workload)
                .with_placement(placement)
                .run(sched)
                .unwrap()
                .metrics
                .total_dollars()
        };
        let lips = run_on(&mut LipsScheduler::new(SchedulerConfig::small_cluster(
            2000.0,
        )));
        let delay = run_on(&mut DelayScheduler::default());
        1.0 - lips / delay
    };
    let homogeneous = saving(0.0);
    let heterogeneous = saving(0.5);
    assert!(
        heterogeneous > homogeneous,
        "hetero {heterogeneous} vs homo {homogeneous}"
    );
}

#[test]
fn online_arrivals_complete_under_all_schedulers() {
    let jobs: Vec<JobSpec> = (0..8)
        .map(|i| {
            JobSpec::new(i, format!("j{i}"), JobKind::Grep, 640.0, 10).arriving_at(i as f64 * 300.0)
        })
        .collect();
    let scheds: Vec<Box<dyn Scheduler>> = vec![
        Box::new(LipsScheduler::new(SchedulerConfig::small_cluster(400.0))),
        Box::new(HadoopDefaultScheduler::new()),
        Box::new(DelayScheduler::default()),
        Box::new(FairScheduler::new()),
    ];
    for mut s in scheds {
        let name = s.name().to_string();
        let r = run(s.as_mut(), jobs.clone(), 5);
        assert_eq!(r.outcomes.len(), 8, "{name}");
        for o in &r.outcomes {
            assert!(o.completed >= o.arrival, "{name}: {o:?}");
        }
    }
}
