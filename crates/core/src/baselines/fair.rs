//! FairScheduler-style pool scheduling (Facebook).
//!
//! Every pool is entitled to an equal share of the cluster; the pool
//! furthest below its share schedules next. Within a pool, FIFO with
//! greedy locality (like the default scheduler). No delay behaviour, no
//! data movement.

use std::collections::BTreeMap;

use lips_sim::{Action, Scheduler, SchedulerContext};

use super::{best_source, chunk_mb, free_machines};

/// Pool-based fair scheduler.
#[derive(Debug, Default)]
pub struct FairScheduler;

impl FairScheduler {
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for FairScheduler {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        // Running chunks per pool = the pool's current share.
        let mut running_per_pool: BTreeMap<&str, usize> = BTreeMap::new();
        for j in ctx.queue {
            *running_per_pool.entry(j.pool.as_str()).or_default() += j.running_chunks;
        }
        // Candidate jobs ordered by (pool share asc, arrival, id): the most
        // starved pool's oldest job first.
        let mut order: Vec<usize> = (0..ctx.queue.len())
            .filter(|&i| ctx.queue[i].has_unassigned_work())
            .collect();
        if order.is_empty() {
            return vec![];
        }
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&ctx.queue[a], &ctx.queue[b]);
            let sa = running_per_pool.get(ja.pool.as_str()).copied().unwrap_or(0);
            let sb = running_per_pool.get(jb.pool.as_str()).copied().unwrap_or(0);
            sa.cmp(&sb)
                .then(ja.arrival.total_cmp(&jb.arrival))
                .then(ja.id.cmp(&jb.id))
        });
        let job = &ctx.queue[order[0]];

        for machine in free_machines(ctx) {
            if job.remaining_mb > lips_sim::WORK_EPS {
                if let Some((store, _, unread)) = best_source(ctx, job, machine) {
                    let mb = chunk_mb(job, unread);
                    return vec![Action::RunChunk {
                        job: job.id,
                        machine,
                        source: Some(store),
                        mb,
                        fixed_ecu: 0.0,
                    }];
                }
            } else {
                let ecu = job.task_fixed_ecu.min(job.remaining_fixed_ecu);
                return vec![Action::RunChunk {
                    job: job.id,
                    machine,
                    source: None,
                    mb: 0.0,
                    fixed_ecu: ecu,
                }];
            }
        }
        vec![]
    }

    fn name(&self) -> &str {
        "fair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::ec2_20_node;
    use lips_sim::{Placement, Simulation};
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    #[test]
    fn pools_share_the_cluster() {
        // One pool with a huge job, another with a small one arriving just
        // after: under FIFO the small job would wait; under fair pools it
        // should finish long before the big job.
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![
            JobSpec::new(0, "big", JobKind::Stress2, 16_384.0, 256).in_pool("etl"),
            JobSpec::new(1, "small", JobKind::Grep, 320.0, 5)
                .arriving_at(1.0)
                .in_pool("adhoc"),
        ];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 8);
        let report = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut FairScheduler::new())
            .unwrap();
        let t = |name: &str| {
            report
                .outcomes
                .iter()
                .find(|o| o.name == name)
                .unwrap()
                .completed
        };
        assert!(
            t("small") < t("big") / 2.0,
            "small {} big {}",
            t("small"),
            t("big")
        );
    }

    #[test]
    fn completes_multi_pool_workload() {
        let mut cluster = ec2_20_node(0.25, 3600.0);
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| {
                JobSpec::new(i, format!("j{i}"), JobKind::Grep, 1280.0, 20)
                    .in_pool(format!("pool-{}", i % 3))
            })
            .collect();
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 9);
        let report = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut FairScheduler::new())
            .unwrap();
        assert_eq!(report.outcomes.len(), 6);
        // Pools received comparable service.
        assert!(
            report.pool_fairness_jain() > 0.9,
            "{}",
            report.pool_fairness_jain()
        );
    }

    #[test]
    fn never_moves_data() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let report = Simulation::new(&cluster, &bound)
            .run(&mut FairScheduler::new())
            .unwrap();
        assert_eq!(report.metrics.moved_mb, 0.0);
    }
}
