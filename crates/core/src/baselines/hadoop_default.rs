//! Hadoop's default scheduler: FIFO over five priorities with greedy
//! locality.
//!
//! "When a TaskTracker becomes idle, the JobTracker assigns it the oldest
//! highest priority task in the incoming queue. For increased data
//! locality, the JobTracker greedily picks the task with data closest to
//! the TaskTracker" (§II). Never moves data, never considers dollars.

use lips_sim::{Action, Scheduler, SchedulerContext};

use super::{chunk_mb, free_machines, ReadLedger};

/// The Hadoop 0.20 default policy.
#[derive(Debug, Default)]
pub struct HadoopDefaultScheduler {
    ledger: ReadLedger,
}

impl HadoopDefaultScheduler {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for HadoopDefaultScheduler {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        // FIFO order: priority desc, then arrival, then id.
        let mut order: Vec<usize> = (0..ctx.queue.len())
            .filter(|&i| ctx.queue[i].has_unassigned_work())
            .collect();
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&ctx.queue[a], &ctx.queue[b]);
            jb.priority
                .cmp(&ja.priority)
                .then(ja.arrival.total_cmp(&jb.arrival))
                .then(ja.id.cmp(&jb.id))
        });
        let Some(&head) = order.first() else {
            return vec![];
        };
        let job = &ctx.queue[head];

        // One launch per invocation; the engine re-invokes until quiet.
        for machine in free_machines(ctx) {
            if job.remaining_mb > lips_sim::WORK_EPS {
                if let Some((data, store, _, unread)) =
                    self.ledger
                        .best_source(ctx.cluster, ctx.placement, job, machine)
                {
                    let mb = chunk_mb(job, unread);
                    self.ledger.issue(data, store, mb);
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
        "hadoop-default"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::ec2_20_node;
    use lips_sim::{Placement, Simulation};
    use lips_workload::{bind_workload, JobKind, JobPriority, JobSpec, PlacementPolicy};

    #[test]
    fn completes_suite_with_high_locality() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![
            JobSpec::new(0, "g", JobKind::Grep, 4096.0, 64),
            JobSpec::new(1, "w", JobKind::WordCount, 4096.0, 64),
        ];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 2);
        let report = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut HadoopDefaultScheduler::new())
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        // Blocks are spread over every node; greedy locality should keep
        // most reads node-local.
        assert!(
            report.metrics.locality_ratio() > 0.5,
            "{}",
            report.metrics.locality_ratio()
        );
    }

    #[test]
    fn respects_priorities() {
        // Low-priority early job vs high-priority late job: on a
        // one-machine cluster the high-priority job (arriving just after)
        // should finish well before the low one despite arriving later.
        let mut cluster = lips_cluster::ec2_mixed_cluster(1, 0.0, 3600.0, 1);
        let jobs = vec![
            JobSpec::new(0, "low", JobKind::Stress2, 1280.0, 20).with_priority(JobPriority::Low),
            JobSpec::new(1, "high", JobKind::Stress2, 1280.0, 20)
                .with_priority(JobPriority::VeryHigh)
                .arriving_at(1.0),
        ];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let report = Simulation::new(&cluster, &bound)
            .run(&mut HadoopDefaultScheduler::new())
            .unwrap();
        let t = |name: &str| {
            report
                .outcomes
                .iter()
                .find(|o| o.name == name)
                .unwrap()
                .completed
        };
        assert!(t("high") < t("low"), "high {} low {}", t("high"), t("low"));
    }

    #[test]
    fn pi_jobs_complete() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "pi", JobKind::Pi, 0.0, 8)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let report = Simulation::new(&cluster, &bound)
            .run(&mut HadoopDefaultScheduler::new())
            .unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.metrics.inputless_chunks, 8);
    }

    #[test]
    fn never_moves_data() {
        let mut cluster = ec2_20_node(0.5, 3600.0);
        let jobs = vec![JobSpec::new(0, "w", JobKind::WordCount, 4096.0, 64)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 2);
        let report = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut HadoopDefaultScheduler::new())
            .unwrap();
        assert_eq!(report.metrics.moved_mb, 0.0);
        assert_eq!(report.metrics.move_dollars, 0.0);
    }
}
