//! `EpochRecord::epoch_ms` is the wall-time of the scheduler's whole
//! epoch: the solve ladder, decode, basis extraction and the carry, not
//! just the timed phases. It therefore bounds their sum from above, and
//! like every phase it reads exactly zero with the solver clock off.
//!
//! The clock switch is process-wide, so both halves live in one test in
//! a binary of their own.

use lips_cluster::ec2_20_node;
use lips_core::{EpochRecord, LipsScheduler, SchedulerConfig};
use lips_sim::{Placement, Simulation};
use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

fn run_records() -> Vec<EpochRecord> {
    let mut cluster = ec2_20_node(0.5, 1e9);
    let jobs = vec![
        JobSpec::new(0, "g", JobKind::Grep, 4096.0, 64),
        JobSpec::new(1, "w", JobKind::WordCount, 4096.0, 64),
        JobSpec::new(2, "p", JobKind::Pi, 0.0, 4),
        JobSpec::new(3, "s", JobKind::Grep, 2048.0, 32).arriving_at(900.0),
    ];
    let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 7);
    let mut sched = LipsScheduler::new(SchedulerConfig::small_cluster(600.0));
    Simulation::new(&cluster, &bound)
        .with_placement(Placement::spread_blocks(&cluster, 7))
        .run(&mut sched)
        .unwrap();
    sched.epoch_records().to_vec()
}

#[test]
fn epoch_ms_bounds_the_phase_sum_and_reads_zero_with_the_clock_off() {
    let on = run_records();
    assert!(on.len() >= 2, "{} epochs", on.len());
    for r in &on {
        let phases = r.build_ms + r.solve_ms + r.certify_ms;
        assert!(
            r.epoch_ms >= phases && r.epoch_ms > 0.0,
            "epoch {}: epoch_ms {} < phases {phases}",
            r.epoch,
            r.epoch_ms
        );
        assert!(
            r.factor_ms <= r.solve_ms,
            "epoch {}: factor_ms {} > solve_ms {}",
            r.epoch,
            r.factor_ms,
            r.solve_ms
        );
    }

    lips_lp::clock::set_enabled(false);
    let off = run_records();
    lips_lp::clock::set_enabled(true);
    assert_eq!(off.len(), on.len());
    for r in &off {
        assert_eq!(
            [
                r.epoch_ms,
                r.build_ms,
                r.solve_ms,
                r.factor_ms,
                r.certify_ms
            ],
            [0.0; 5],
            "epoch {}",
            r.epoch
        );
    }
}
