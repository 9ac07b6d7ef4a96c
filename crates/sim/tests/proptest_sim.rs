//! Simulator property tests: physical conservation laws must hold for any
//! workload under any (correct) scheduler, and the engine must reject any
//! physically impossible action.

use lips_cluster::{ec2_mixed_cluster, MachineId};
use lips_sim::{Action, Placement, Scheduler, SchedulerContext, Simulation};
use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};
use proptest::prelude::*;

/// A legal but erratic scheduler: places one pseudo-randomly sized chunk
/// of a pseudo-randomly chosen job on a pseudo-randomly chosen machine,
/// reading from a legal source, every time it is invoked. Exercises the
/// engine far outside the tidy policies' behaviour.
struct Erratic {
    state: u64,
}

impl Erratic {
    fn new(seed: u64) -> Self {
        Erratic { state: seed.max(1) }
    }
    fn next(&mut self, bound: u64) -> u64 {
        // xorshift: deterministic, no external RNG state.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state % bound.max(1)
    }
}

impl Scheduler for Erratic {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let candidates: Vec<usize> = (0..ctx.queue.len())
            .filter(|&i| ctx.queue[i].has_unassigned_work())
            .collect();
        if candidates.is_empty() {
            return vec![];
        }
        let job = &ctx.queue[candidates[self.next(candidates.len() as u64) as usize]];
        let machine = MachineId(self.next(ctx.cluster.num_machines() as u64) as usize);
        if job.remaining_mb > 1e-6 {
            let data = job.data.unwrap();
            // Pick a holder with unread budget.
            let read = |s| ctx.reads_used.get(&(data, s)).copied().unwrap_or(0.0);
            let holders: Vec<(lips_cluster::StoreId, f64)> = ctx
                .placement
                .stores_of(data)
                .into_iter()
                .map(|(s, mb)| (s, mb - read(s)))
                .filter(|&(_, un)| un > 1e-6)
                .collect();
            let Some(&(store, unread)) = holders.get(self.next(holders.len() as u64) as usize)
            else {
                return vec![];
            };
            // Chunk between 10% and 100% of a natural task.
            let frac = (self.next(10) + 1) as f64 / 10.0;
            let mb = (job.task_mb * frac).min(job.remaining_mb).min(unread);
            vec![Action::RunChunk {
                job: job.id,
                machine,
                source: Some(store),
                mb,
                fixed_ecu: 0.0,
            }]
        } else {
            let ecu = (job.task_fixed_ecu * ((self.next(10) + 1) as f64 / 10.0))
                .min(job.remaining_fixed_ecu);
            vec![Action::RunChunk {
                job: job.id,
                machine,
                source: None,
                mb: 0.0,
                fixed_ecu: ecu,
            }]
        }
    }
    fn name(&self) -> &str {
        "erratic"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: whatever legal schedule the erratic policy produces,
    /// executed ECU-seconds equal workload demand, every job completes,
    /// and money is an exact function of work and transfers.
    #[test]
    fn erratic_scheduler_conserves_work_and_money(
        seed in 1u64..5000,
        nodes in 4usize..24,
        c1 in 0.0f64..0.6,
        njobs in 1usize..5,
    ) {
        let mut cluster = ec2_mixed_cluster(nodes, c1, 1e9, seed);
        let jobs: Vec<JobSpec> = (0..njobs)
            .map(|i| {
                let kind = [JobKind::Grep, JobKind::Stress2, JobKind::WordCount, JobKind::Pi][i % 4];
                let mb = if kind == JobKind::Pi { 0.0 } else { 256.0 * (i + 1) as f64 };
                JobSpec::new(i, format!("j{i}"), kind, mb, 4 * (i as u32 + 1))
            })
            .collect();
        let demand: f64 = jobs.iter().map(lips_workload::JobSpec::total_ecu_sec).sum();
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, seed);
        let placement = Placement::spread_blocks(&cluster, seed);
        let report = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut Erratic::new(seed))
            .unwrap();

        prop_assert_eq!(report.outcomes.len(), njobs);
        let executed: f64 = report.metrics.ecu_sec_by_machine.values().sum();
        prop_assert!((executed - demand).abs() < 1e-3,
            "executed {executed} vs demand {demand}");
        // CPU dollars = Σ per-machine work × price, exactly.
        let expect: f64 = report
            .metrics
            .ecu_sec_by_machine
            .iter()
            .map(|(m, e)| cluster.machine(*m).cpu_dollars(*e))
            .sum();
        prop_assert!((report.metrics.cpu_dollars - expect).abs() < 1e-9);
        // Makespan is the last completion.
        let last = report.outcomes.iter().map(|o| o.completed).fold(0.0f64, f64::max);
        prop_assert!((report.makespan - last).abs() < 1e-9);
        // No read was billed below zero, no locality counter lost.
        prop_assert!(report.metrics.read_dollars >= 0.0);
        let chunks: usize = report.metrics.chunks_by_locality.iter().sum::<usize>()
            + report.metrics.inputless_chunks;
        prop_assert_eq!(chunks, report.outcomes.iter().map(|o| o.chunks).sum::<usize>());
    }

    /// Replicated placements only improve (or preserve) locality for the
    /// same erratic decision stream — more replicas, never fewer options.
    #[test]
    fn replication_never_reduces_available_data(
        seed in 1u64..1000,
        replicas in 1usize..4,
    ) {
        let mut cluster = ec2_mixed_cluster(10, 0.5, 1e9, seed);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 512.0, 8)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, seed);
        let data = bound.jobs[0].data.unwrap();
        let p = Placement::spread_blocks_replicated(&cluster, seed, replicas);
        let total: f64 = p.stores_of(data).iter().map(|&(_, mb)| mb).sum();
        prop_assert!((total - 512.0 * replicas as f64).abs() < 1e-6);
        // Every holder is a DataNode.
        for (s, _) in p.stores_of(data) {
            prop_assert!(cluster.store(s).colocated.is_some());
        }
    }
}
