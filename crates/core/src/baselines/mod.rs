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

use std::collections::BTreeMap;

use lips_cluster::{Cluster, DataId, MachineId, StoreId};
use lips_sim::{PendingJob, Placement, SchedulerContext};

/// Shared bookkeeping: how much of each (data, store) this scheduler has
/// already handed to chunks (reads don't deplete placement, but each byte
/// of input is read exactly once).
#[derive(Debug, Default)]
pub(crate) struct ReadLedger {
    issued: BTreeMap<(DataId, StoreId), f64>,
}

impl ReadLedger {
    /// Unread MB of `data` at `store`.
    pub fn unread(&self, placement: &Placement, data: DataId, store: StoreId) -> f64 {
        (placement.amount(data, store) - self.issued.get(&(data, store)).copied().unwrap_or(0.0))
            .max(0.0)
    }

    /// Record `mb` as issued.
    pub fn issue(&mut self, data: DataId, store: StoreId, mb: f64) {
        *self.issued.entry((data, store)).or_default() += mb;
    }

    /// The best source for reading `job`'s data from `machine`: the store
    /// with unread data at the lowest locality level (then most unread,
    /// then lowest id). Returns `(data, store, locality, unread_mb)`, so a
    /// match also names the job's input.
    pub fn best_source(
        &self,
        cluster: &Cluster,
        placement: &Placement,
        job: &PendingJob,
        machine: MachineId,
    ) -> Option<(DataId, StoreId, u8, f64)> {
        let data = job.data?;
        placement
            .stores_of(data)
            .into_iter()
            .filter_map(|(s, _)| {
                let unread = self.unread(placement, data, s);
                (unread > lips_sim::WORK_EPS)
                    .then(|| (s, cluster.locality_level(machine, s), unread))
            })
            .min_by(|a, b| a.1.cmp(&b.1).then(b.2.total_cmp(&a.2)).then(a.0.cmp(&b.0)))
            .map(|(s, level, unread)| (data, s, level, unread))
    }
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
    use lips_cluster::ec2_20_node;
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    #[test]
    fn ledger_tracks_unread() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let bound = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(2)),
            1,
        );
        let placement = Placement::from_cluster(&cluster);
        let mut ledger = ReadLedger::default();
        let d = bound.jobs[0].data.unwrap();
        assert_eq!(ledger.unread(&placement, d, StoreId(2)), 640.0);
        ledger.issue(d, StoreId(2), 200.0);
        assert_eq!(ledger.unread(&placement, d, StoreId(2)), 440.0);
        assert_eq!(ledger.unread(&placement, d, StoreId(3)), 0.0);
    }

    #[test]
    fn best_source_prefers_locality() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 10.0 * 1024.0, 160)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 3);
        let ledger = ReadLedger::default();
        let pj = lips_sim::PendingJob::from_spec(&bound.jobs[0]);
        // Machine 0's own store should win when it holds blocks.
        let own = cluster.store_of_machine(MachineId(0)).unwrap();
        if ledger.unread(&placement, pj.data.unwrap(), own) > 0.0 {
            let (_, s, level, _) = ledger
                .best_source(&cluster, &placement, &pj, MachineId(0))
                .unwrap();
            assert_eq!(s, own);
            assert_eq!(level, 0);
        }
    }

    #[test]
    fn chunk_mb_caps() {
        let spec = JobSpec::new(0, "g", JobKind::Grep, 640.0, 10);
        let mut pj = lips_sim::PendingJob::from_spec(&spec);
        assert_eq!(chunk_mb(&pj, 1000.0), 64.0); // one block
        assert_eq!(chunk_mb(&pj, 10.0), 10.0); // capped by unread
        pj.remaining_mb = 5.0;
        assert_eq!(chunk_mb(&pj, 1000.0), 5.0); // capped by remaining
    }
}
