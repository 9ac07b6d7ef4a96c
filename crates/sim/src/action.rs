//! The scheduler interface: what a policy sees and what it may do.

use std::collections::BTreeMap;

use lips_cluster::{Cluster, DataId, MachineId, StoreId};
use lips_workload::JobId;

use crate::job_state::PendingJob;
use crate::machine_state::MachineState;
use crate::placement::Placement;
use crate::Time;

/// A scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Copy `mb` of `data` from `from` to `to` (billed at the `SS` price;
    /// readable at the destination once the copy completes).
    MoveData {
        data: DataId,
        from: StoreId,
        to: StoreId,
        mb: f64,
    },
    /// Run a chunk of `job` on `machine`: read `mb` of its input from
    /// `source` (None for input-less work) and burn
    /// `mb·TCP + fixed_ecu` ECU-seconds.
    RunChunk {
        job: JobId,
        machine: MachineId,
        source: Option<StoreId>,
        mb: f64,
        fixed_ecu: f64,
    },
}

/// Read-only view handed to a scheduler at each decision point.
pub struct SchedulerContext<'a> {
    pub now: Time,
    /// The *live* cluster: under fault injection, revoked machines show
    /// `tp_ecu == 0` and repriced machines their current `cpu_cost`.
    pub cluster: &'a Cluster,
    pub placement: &'a Placement,
    /// Arrived, unfinished jobs in arrival order.
    pub queue: &'a [PendingJob],
    /// Slot occupancy, indexed by machine id.
    pub machines: &'a [MachineState],
    /// The executor's read ledger ([`crate::Executor::reads_used`]): MB
    /// already read per `(data, store)`, net of fault refunds, with an
    /// input's entries gone once no queued job reads it. A store's unread
    /// stock of an object is its placed MB less this; schedulers read it
    /// here instead of keeping a ledger of their own.
    pub reads_used: &'a BTreeMap<(DataId, StoreId), f64>,
}

impl SchedulerContext<'_> {
    /// Jobs that still have unassigned work, in arrival order.
    pub fn jobs_with_work(&self) -> impl Iterator<Item = &PendingJob> {
        self.queue.iter().filter(|j| j.has_unassigned_work())
    }

    /// Total unassigned ECU-seconds across the queue.
    pub fn backlog_ecu(&self) -> f64 {
        self.queue
            .iter()
            .map(super::job_state::PendingJob::unassigned_ecu)
            .sum()
    }
}

/// A scheduling policy.
///
/// Event-driven policies (`epoch() == None`) are invoked after every
/// simulator event; they typically fill whatever slots are free *now*.
/// Epoch policies are invoked every `epoch()` seconds and may plan work
/// and data movement for the whole upcoming epoch.
pub trait Scheduler {
    /// Decide at a decision point. May return an empty vector (nothing to
    /// do now); the simulator re-invokes on the next event.
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action>;

    /// Fixed invocation period, or `None` for event-driven.
    fn epoch(&self) -> Option<Time> {
        None
    }

    /// Number of epochs this scheduler gave up on its optimizer and fell
    /// back to a degraded (greedy) plan. Copied into
    /// [`crate::Metrics::faults`] at the end of a run. Policies without a
    /// degradation ladder report zero.
    fn degraded_epochs(&self) -> usize {
        0
    }

    /// Human-readable policy name (report labels).
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_workload::{JobKind, JobSpec};

    #[test]
    fn context_helpers() {
        let cluster = lips_cluster::ec2_20_node(0.0, 3600.0);
        let placement = Placement::from_cluster(&cluster);
        let machines: Vec<MachineState> = cluster.machines.iter().map(MachineState::new).collect();
        let mut j0 = PendingJob::from_spec(&JobSpec::new(0, "a", JobKind::Grep, 640.0, 10));
        let j1 = PendingJob::from_spec(&JobSpec::new(1, "b", JobKind::Pi, 0.0, 4));
        j0.remaining_mb = 0.0; // j0 fully assigned
        let queue = vec![j0, j1];
        let ctx = SchedulerContext {
            now: 0.0,
            cluster: &cluster,
            placement: &placement,
            queue: &queue,
            machines: &machines,
            reads_used: &BTreeMap::new(),
        };
        let with_work: Vec<JobId> = ctx.jobs_with_work().map(|j| j.id).collect();
        assert_eq!(with_work, vec![JobId(1)]);
        assert!((ctx.backlog_ecu() - 1600.0).abs() < 1e-9);
    }
}
