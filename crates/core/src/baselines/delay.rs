//! Delay scheduling (Zaharia et al., EuroSys'10).
//!
//! Jobs are served in max-min fairness order (fewest running tasks first).
//! When the head-of-line job cannot launch a *node-local* task on the free
//! tracker, it yields — up to a skip budget — letting later jobs launch
//! their local tasks instead. With input blocks spread across the cluster
//! this achieves near-100 % data locality, which is why the paper uses it
//! as the strongest "move computation to data" comparator.

use std::collections::BTreeMap;

use lips_sim::{Action, Scheduler, SchedulerContext};
use lips_workload::JobId;

use super::{any_busy, best_source, chunk_mb, free_machines, unread};

/// The delay scheduler.
#[derive(Debug)]
pub struct DelayScheduler {
    /// Scheduling opportunities each job has passed up waiting for
    /// locality.
    skips: BTreeMap<JobId, u32>,
    /// Skip budget (the paper's D; EuroSys default is a few multiples of
    /// the cluster size's worth of heartbeats — we count per-opportunity).
    pub max_skips: u32,
}

impl Default for DelayScheduler {
    fn default() -> Self {
        DelayScheduler {
            skips: BTreeMap::new(),
            max_skips: 20,
        }
    }
}

impl DelayScheduler {
    pub fn new(max_skips: u32) -> Self {
        DelayScheduler {
            max_skips,
            ..Default::default()
        }
    }
}

impl Scheduler for DelayScheduler {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        // Max-min fairness: fewest running chunks first, then arrival.
        let mut order: Vec<usize> = (0..ctx.queue.len())
            .filter(|&i| ctx.queue[i].has_unassigned_work())
            .collect();
        if order.is_empty() {
            return vec![];
        }
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&ctx.queue[a], &ctx.queue[b]);
            ja.running_chunks
                .cmp(&jb.running_chunks)
                .then(ja.arrival.total_cmp(&jb.arrival))
                .then(ja.id.cmp(&jb.id))
        });

        for machine in free_machines(ctx) {
            let own_store = ctx.cluster.store_of_machine(machine);
            // Pass 1: in fairness order, launch the first job that is
            // node-local here or out of skip budget.
            for &idx in &order {
                let job = &ctx.queue[idx];
                if job.remaining_mb <= lips_sim::WORK_EPS {
                    // Input-less work is location-free: launch immediately.
                    let ecu = job.task_fixed_ecu.min(job.remaining_fixed_ecu);
                    return vec![Action::RunChunk {
                        job: job.id,
                        machine,
                        source: None,
                        mb: 0.0,
                        fixed_ecu: ecu,
                    }];
                }
                let local = own_store
                    .zip(job.data)
                    .map(|(s, d)| (s, unread(ctx, d, s)))
                    .filter(|&(_, unread)| unread > lips_sim::WORK_EPS);
                if let Some((store, local_unread)) = local {
                    let mb = chunk_mb(job, local_unread);
                    self.skips.insert(job.id, 0);
                    return vec![Action::RunChunk {
                        job: job.id,
                        machine,
                        source: Some(store),
                        mb,
                        fixed_ecu: 0.0,
                    }];
                }
                // Not local here: spend a skip.
                let s = self.skips.entry(job.id).or_insert(0);
                *s += 1;
                if *s > self.max_skips {
                    if let Some((store, _, unread)) = best_source(ctx, job, machine) {
                        let mb = chunk_mb(job, unread);
                        self.skips.insert(job.id, 0);
                        return vec![Action::RunChunk {
                            job: job.id,
                            machine,
                            source: Some(store),
                            mb,
                            fixed_ecu: 0.0,
                        }];
                    }
                }
            }
        }

        // Anti-starvation: if nothing is running anywhere, no future event
        // would re-invoke us — force the fairness head to launch non-local.
        let job = &ctx.queue[order[0]];
        if !any_busy(ctx) && job.remaining_mb > lips_sim::WORK_EPS {
            // An idle cluster has every slot free.
            if let Some(&machine) = free_machines(ctx).first() {
                if let Some((store, _, unread)) = best_source(ctx, job, machine) {
                    let mb = chunk_mb(job, unread);
                    self.skips.insert(job.id, 0);
                    return vec![Action::RunChunk {
                        job: job.id,
                        machine,
                        source: Some(store),
                        mb,
                        fixed_ecu: 0.0,
                    }];
                }
            }
        }
        vec![]
    }

    fn name(&self) -> &str {
        "delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::ec2_20_node;
    use lips_sim::{Placement, Simulation};
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    fn run_suite(max_skips: u32) -> lips_sim::SimReport {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![
            JobSpec::new(0, "g", JobKind::Grep, 8192.0, 128),
            JobSpec::new(1, "w", JobKind::WordCount, 8192.0, 128),
            JobSpec::new(2, "s", JobKind::Stress2, 8192.0, 128),
        ];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 11);
        Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut DelayScheduler::new(max_skips))
            .unwrap()
    }

    #[test]
    fn achieves_near_perfect_locality() {
        let report = run_suite(30);
        assert_eq!(report.outcomes.len(), 3);
        assert!(
            report.metrics.locality_ratio() > 0.9,
            "locality {}",
            report.metrics.locality_ratio()
        );
        assert_eq!(report.metrics.moved_mb, 0.0);
    }

    #[test]
    fn zero_skip_budget_degrades_locality() {
        // With no patience the policy behaves like plain fair scheduling;
        // locality can only be ≤ the patient variant.
        let patient = run_suite(30);
        let eager = run_suite(0);
        assert!(
            eager.metrics.locality_ratio() <= patient.metrics.locality_ratio() + 1e-9,
            "eager {} patient {}",
            eager.metrics.locality_ratio(),
            patient.metrics.locality_ratio()
        );
    }

    #[test]
    fn single_remote_origin_still_completes() {
        // All data on one node: locality impossible for most slots; the
        // skip budget must not deadlock the run.
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 1280.0, 20)];
        let bound = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(lips_cluster::StoreId(0)),
            1,
        );
        let report = Simulation::new(&cluster, &bound)
            .run(&mut DelayScheduler::new(5))
            .unwrap();
        assert_eq!(report.outcomes.len(), 1);
    }

    #[test]
    fn fairness_spreads_across_jobs() {
        // Two equal jobs: neither should monopolize the cluster; completion
        // times should be close.
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![
            JobSpec::new(0, "a", JobKind::Stress2, 4096.0, 64),
            JobSpec::new(1, "b", JobKind::Stress2, 4096.0, 64),
        ];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 4);
        let report = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut DelayScheduler::default())
            .unwrap();
        let t0 = report.outcomes[0].completed;
        let t1 = report.outcomes[1].completed;
        assert!((t0 - t1).abs() / t0.max(t1) < 0.5, "t0 {t0} t1 {t1}");
    }
}
