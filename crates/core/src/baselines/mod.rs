//! Baseline schedulers the paper compares LiPS against.
//!
//! All are event-driven [`lips_sim::Scheduler`]s that never move data:
//!
//! * [`HadoopDefaultScheduler`] — FIFO over 5 priorities; when a slot
//!   frees, the oldest highest-priority job launches the task whose data
//!   is closest to the tracker (node-local > zone > remote).
//! * [`DelayScheduler`] — Zaharia et al.: jobs are served in max-min
//!   fairness order, but a job that cannot launch a *node-local* task
//!   yields (up to a skip budget) so others can; near-100 % locality on
//!   workloads with spread blocks.
//! * [`FairScheduler`] — Facebook-style pools with equal shares; within a
//!   pool, FIFO with greedy locality.

mod delay;
mod fair;
mod hadoop_default;

pub use delay::DelayScheduler;
pub use fair::FairScheduler;
pub use hadoop_default::HadoopDefaultScheduler;

use lips_cluster::{DataId, MachineId, StoreId};
use lips_sim::{PendingJob, SchedulerContext};

/// Unread MB of `data` at `store`: what is placed there less what the
/// executor's ledger says was already read (each byte of input is read
/// exactly once; reads do not deplete the placement).
pub(crate) fn unread(ctx: &SchedulerContext<'_>, data: DataId, store: StoreId) -> f64 {
    let read = ctx.reads_used.get(&(data, store)).copied().unwrap_or(0.0);
    (ctx.placement.amount(data, store) - read).max(0.0)
}

/// The best source for reading `job`'s data from `machine`: the store
/// with unread data at the lowest locality level (then most unread, then
/// lowest id). Returns `(store, locality, unread_mb)`.
pub(crate) fn best_source(
    ctx: &SchedulerContext<'_>,
    job: &PendingJob,
    machine: MachineId,
) -> Option<(StoreId, u8, f64)> {
    let data = job.data?;
    ctx.placement
        .stores_of(data)
        .into_iter()
        .filter_map(|(s, _)| {
            let unread = unread(ctx, data, s);
            (unread > lips_sim::WORK_EPS)
                .then(|| (s, ctx.cluster.locality_level(machine, s), unread))
        })
        .min_by(|a, b| a.1.cmp(&b.1).then(b.2.total_cmp(&a.2)).then(a.0.cmp(&b.0)))
}

/// Machines with at least one free slot at `now`, in id order.
pub(crate) fn free_machines(ctx: &SchedulerContext<'_>) -> Vec<MachineId> {
    ctx.machines
        .iter()
        .enumerate()
        .filter(|(_, m)| m.free_slots(ctx.now) > 0)
        .map(|(i, _)| MachineId(i))
        .collect()
}

/// Is any slot in the cluster still running work (i.e., will a ChunkDone
/// event arrive)?
pub(crate) fn any_busy(ctx: &SchedulerContext<'_>) -> bool {
    ctx.machines.iter().any(|m| m.idle_at() > ctx.now)
}

/// Standard one-task chunk size for a job at a source: one natural task,
/// capped by what is unread there and what remains overall.
pub(crate) fn chunk_mb(job: &PendingJob, unread: f64) -> f64 {
    job.task_mb.min(job.remaining_mb).min(unread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use lips_cluster::ec2_20_node;
    use lips_sim::{MachineState, Placement};
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    #[test]
    fn best_source_skips_stock_the_ledger_covers() {
        // Two holders of one input: the reader's own store and a remote
        // one. The executor's ledger already covers all of the local
        // stock, so the remote holder is the only source left.
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let bound = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(2)),
            1,
        );
        let pj = PendingJob::from_spec(&bound.jobs[0]);
        let d = pj.data.unwrap();
        let machine = MachineId(0);
        let own = cluster.store_of_machine(machine).unwrap();
        assert_ne!(own, StoreId(2));
        let mut placement = Placement::from_cluster(&cluster);
        placement.add_copy(d, own, 640.0, 0.0);
        let machines: Vec<MachineState> = cluster.machines.iter().map(MachineState::new).collect();
        let queue = vec![pj];
        let mut reads = BTreeMap::new();
        // `(unread at store, best source of machine 0)` under `reads`.
        let probe = |reads: &BTreeMap<_, _>, store| {
            let ctx = SchedulerContext {
                now: 0.0,
                cluster: &cluster,
                placement: &placement,
                queue: &queue,
                machines: &machines,
                reads_used: reads,
            };
            (
                unread(&ctx, d, store),
                best_source(&ctx, &queue[0], machine),
            )
        };
        // Nothing read yet: the local copy wins.
        assert_eq!(probe(&reads, own), (640.0, Some((own, 0, 640.0))));
        // Part of the local stock read: still local, with what is left.
        reads.insert((d, own), 200.0);
        assert_eq!(probe(&reads, own), (440.0, Some((own, 0, 440.0))));
        // All of it read: skipped, the remote holder serves.
        reads.insert((d, own), 640.0);
        let (local, best) = probe(&reads, own);
        let (store, level, mb) = best.unwrap();
        assert_eq!((local, store, mb), (0.0, StoreId(2), 640.0));
        assert!(level > 0);
        // A store that holds none of the input has nothing unread.
        assert_eq!(probe(&reads, StoreId(3)).0, 0.0);
    }

    #[test]
    fn best_source_prefers_locality() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 10.0 * 1024.0, 160)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 3);
        let pj = PendingJob::from_spec(&bound.jobs[0]);
        let machines: Vec<MachineState> = cluster.machines.iter().map(MachineState::new).collect();
        let queue = vec![pj];
        let ctx = SchedulerContext {
            now: 0.0,
            cluster: &cluster,
            placement: &placement,
            queue: &queue,
            machines: &machines,
            reads_used: &BTreeMap::new(),
        };
        // Machine 0's own store should win when it holds blocks.
        let own = cluster.store_of_machine(MachineId(0)).unwrap();
        if unread(&ctx, queue[0].data.unwrap(), own) > 0.0 {
            let (s, level, _) = best_source(&ctx, &queue[0], MachineId(0)).unwrap();
            assert_eq!(s, own);
            assert_eq!(level, 0);
        }
    }

    #[test]
    fn chunk_mb_caps() {
        let spec = JobSpec::new(0, "g", JobKind::Grep, 640.0, 10);
        let mut pj = PendingJob::from_spec(&spec);
        assert_eq!(chunk_mb(&pj, 1000.0), 64.0); // one block
        assert_eq!(chunk_mb(&pj, 10.0), 10.0); // capped by unread
        pj.remaining_mb = 5.0;
        assert_eq!(chunk_mb(&pj, 1000.0), 5.0); // capped by remaining
    }
}
