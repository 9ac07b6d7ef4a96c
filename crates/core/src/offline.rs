//! Offline one-shot solvers: Fig 2 (simple task scheduling), Fig 3
//! (co-scheduling), and the §IV greedy.
//!
//! These operate analytically on an instance — no simulation — and return
//! the optimal fractional schedule and its predicted dollar cost. The
//! Figure 5 sweep compares [`co_schedule`] against the 100 %-locality
//! "ideal delay" cost computed by the bench harness.

use lips_cluster::Cluster;
use lips_sim::Placement;
use lips_workload::JobSpec;

use crate::lp_build::{
    solve_full, EpochSolveError, FractionalSchedule, LpInstance, LpJob, PruneConfig,
};

/// Result of an offline solve (alias; all schedule queries live on
/// [`FractionalSchedule`]).
pub type OfflineSchedule = FractionalSchedule;

/// Convert bound job specs plus a data placement into LP jobs.
///
/// Availability fractions are `MB at store / job input size`, clamped to 1.
pub fn lp_jobs_from_specs(jobs: &[JobSpec], placement: &Placement) -> Vec<LpJob> {
    jobs.iter()
        .map(|spec| {
            let effective = spec.effective_input_mb();
            let avail = match spec.data {
                Some(d) if effective > 0.0 => placement
                    .stores_of(d)
                    .into_iter()
                    .map(|(s, mb)| (s, (mb / effective).min(1.0)))
                    .collect(),
                _ => Vec::new(),
            };
            LpJob {
                id: spec.id,
                data: spec.data,
                size_mb: effective,
                tcp: spec.tcp_ecu_sec_per_mb,
                fixed_ecu: spec.ecu_sec_per_task * f64::from(spec.tasks),
                avail,
            }
        })
        .collect()
}

/// **Fig 2** — offline simple task scheduling: data is pre-placed and
/// immobile; minimize execution + runtime-read dollars over `uptime`.
pub fn simple_task_schedule(
    cluster: &Cluster,
    jobs: Vec<LpJob>,
    uptime: f64,
) -> Result<OfflineSchedule, EpochSolveError> {
    let inst = LpInstance {
        cluster,
        jobs,
        duration: uptime,
        fake_cost: None,
        allow_moves: false,
        enforce_transfer_time: false,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig::default(),
    };
    solve_full(&inst, None).map(|r| r.schedule)
}

/// **Fig 3** — offline cost-efficient co-scheduling: data placement and
/// task placement optimized jointly.
pub fn co_schedule(
    cluster: &Cluster,
    jobs: Vec<LpJob>,
    uptime: f64,
) -> Result<OfflineSchedule, EpochSolveError> {
    let inst = LpInstance {
        cluster,
        jobs,
        duration: uptime,
        fake_cost: None,
        allow_moves: true,
        enforce_transfer_time: false,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig::default(),
    };
    solve_full(&inst, None).map(|r| r.schedule)
}

/// **§IV greedy** — for each job pick the `(machine, holder-store)` pair
/// with the lowest `JM + MS·Size` cost, ignoring capacity. The paper notes
/// this equals the LP optimum when every node could absorb the whole
/// workload, and can be arbitrarily bad otherwise.
///
/// A job nothing can run — the cluster has no machines, or a data job has
/// no holder with a positive fraction — is skipped: it is left out of
/// the picks and adds nothing to the total.
///
/// Returns `(schedule, predicted dollars)`.
pub fn greedy_schedule(cluster: &Cluster, jobs: &[LpJob]) -> (Vec<(LpJob, usize)>, f64) {
    let mut total = 0.0;
    let mut picks = Vec::with_capacity(jobs.len());
    for job in jobs {
        let work = job.work_ecu();
        let mut best: Option<(usize, f64)> = None;
        for machine in &cluster.machines {
            if job.size_mb > 0.0 {
                for &(s, frac) in &job.avail {
                    if frac <= 0.0 {
                        continue;
                    }
                    // Cost if the whole job ran here reading from s.
                    let cost =
                        work * machine.cpu_cost + job.size_mb * cluster.ms_cost(machine.id, s);
                    if best.is_none_or(|(_, c)| cost < c) {
                        best = Some((machine.id.0, cost));
                    }
                }
            } else {
                let cost = work * machine.cpu_cost;
                if best.is_none_or(|(_, c)| cost < c) {
                    best = Some((machine.id.0, cost));
                }
            }
        }
        let Some((m, c)) = best else { continue };
        total += c;
        picks.push((job.clone(), m));
    }
    (picks, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{ec2_20_node, StoreId};
    use lips_workload::{bind_workload, JobKind, PlacementPolicy};

    fn setup() -> (Cluster, Vec<LpJob>) {
        let mut cluster = ec2_20_node(0.5, 1e6);
        let jobs = vec![
            JobSpec::new(0, "g", JobKind::Grep, 2048.0, 32),
            JobSpec::new(1, "w", JobKind::WordCount, 2048.0, 32),
            JobSpec::new(2, "p", JobKind::Pi, 0.0, 4),
        ];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::from_cluster(&cluster);
        let lp_jobs = lp_jobs_from_specs(&bound.jobs, &placement);
        (cluster, lp_jobs)
    }

    #[test]
    fn conversion_carries_availability() {
        let (_, jobs) = setup();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].avail.len(), 1);
        assert!((jobs[0].avail[0].1 - 1.0).abs() < 1e-12);
        assert!(jobs[2].avail.is_empty()); // Pi
        assert!(jobs[2].work_ecu() > 0.0);
    }

    #[test]
    fn conversion_with_spread_blocks() {
        let mut cluster = ec2_20_node(0.0, 1e6);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 10.0 * 1024.0, 160)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 5);
        let lp_jobs = lp_jobs_from_specs(&bound.jobs, &placement);
        let total_avail: f64 = lp_jobs[0].avail.iter().map(|&(_, f)| f).sum();
        assert!(
            (total_avail - 1.0).abs() < 1e-9,
            "fractions sum to 1: {total_avail}"
        );
        assert!(lp_jobs[0].avail.len() > 10);
    }

    #[test]
    fn co_schedule_never_costs_more_than_simple() {
        // Data movement is an extra degree of freedom; with it the optimum
        // can only improve.
        let (cluster, jobs) = setup();
        let simple = simple_task_schedule(&cluster, jobs.clone(), 1e6).unwrap();
        let co = co_schedule(&cluster, jobs, 1e6).unwrap();
        assert!(co.predicted_dollars <= simple.predicted_dollars + 1e-9);
    }

    #[test]
    fn lp_never_costs_more_than_greedy() {
        // The greedy ignores capacity; with abundant capacity both exist
        // and LP ≤ greedy (paper §IV: they coincide under abundance).
        let (cluster, jobs) = setup();
        let lp = simple_task_schedule(&cluster, jobs.clone(), 1e9).unwrap();
        let (_, greedy_cost) = greedy_schedule(&cluster, &jobs);
        assert!(lp.predicted_dollars <= greedy_cost + 1e-9);
        // Under abundance they should in fact match.
        assert!(
            (lp.predicted_dollars - greedy_cost).abs() / greedy_cost < 1e-6,
            "lp {} vs greedy {}",
            lp.predicted_dollars,
            greedy_cost
        );
    }

    #[test]
    fn greedy_prefers_cheap_machine_for_pi() {
        let (cluster, jobs) = setup();
        let (picks, _) = greedy_schedule(&cluster, &jobs);
        let (pi_job, machine) = picks.iter().find(|(j, _)| j.data.is_none()).unwrap();
        assert!(pi_job.size_mb == 0.0);
        let min_cost = cluster.min_cpu_cost();
        assert!((cluster.machines[*machine].cpu_cost - min_cost).abs() < 1e-15);
    }

    #[test]
    fn greedy_skips_jobs_nothing_can_run() {
        let (cluster, jobs) = setup();
        // A data job whose only holder has nothing left to read is skipped;
        // the Pi job beside it is still placed and priced alone.
        let mut stranded = jobs[0].clone();
        stranded.avail = vec![(StoreId(0), 0.0)];
        let pi = jobs[2].clone();
        let (picks, total) = greedy_schedule(&cluster, &[stranded, pi.clone()]);
        let (_, pi_total) = greedy_schedule(&cluster, &[pi]);
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].0.id, jobs[2].id);
        assert_eq!(total, pi_total);
        // A cluster with no machines runs nothing at all.
        let empty = lips_cluster::ClusterBuilder::new().build();
        let (picks, total) = greedy_schedule(&empty, &jobs);
        assert!(picks.is_empty());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn all_jobs_fully_assigned_offline() {
        let (cluster, jobs) = setup();
        let n = jobs.len();
        let sched = co_schedule(&cluster, jobs, 1e6).unwrap();
        assert!(sched.deferred.is_empty());
        for k in 0..n {
            let total: f64 = sched
                .assignments
                .iter()
                .filter(|&&(j, _, _, _)| j.0 == k)
                .map(|&(_, _, _, f)| f)
                .sum();
            assert!((total - 1.0).abs() < 1e-5, "job {k}: {total}");
        }
    }

    #[test]
    fn single_store_origin_costs_more_than_spread() {
        // All data on one node: remote reads/moves are unavoidable for the
        // load the one node cannot hold; cost is at least the spread case.
        let mut c1 = ec2_20_node(0.0, 2000.0);
        let jobs1 = bind_workload(
            &mut c1,
            vec![JobSpec::new(0, "g", JobKind::Stress2, 10.0 * 1024.0, 160)],
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let p1 = Placement::from_cluster(&c1);
        let lp1 = co_schedule(&c1, lp_jobs_from_specs(&jobs1.jobs, &p1), 2000.0).unwrap();

        let mut c2 = ec2_20_node(0.0, 2000.0);
        let jobs2 = bind_workload(
            &mut c2,
            vec![JobSpec::new(0, "g", JobKind::Stress2, 10.0 * 1024.0, 160)],
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let p2 = Placement::spread_blocks(&c2, 7);
        let lp2 = co_schedule(&c2, lp_jobs_from_specs(&jobs2.jobs, &p2), 2000.0).unwrap();
        assert!(lp1.predicted_dollars >= lp2.predicted_dollars - 1e-9);
    }
}
