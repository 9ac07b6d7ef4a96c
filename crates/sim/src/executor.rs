//! The executor core: the state and rules every executor of a schedule
//! shares — the placement, the job queue, the read-budget and map-output
//! ledgers, the bill ([`Metrics`]) and the completed jobs. It knows no
//! time beyond the instants its callers pass: the event engine
//! ([`crate::Simulation`]) adds slots, durations, stragglers, speculation
//! and faults, the `lips-serve` daemon finishes every chunk within its
//! epoch, and both bill through the same calls.

use std::collections::BTreeMap;

use lips_cluster::{Cluster, DataId, MachineId, StoreId};
use lips_workload::JobId;

use crate::engine::SimError;
use crate::job_state::{JobOutcome, JobPhase, PendingJob};
use crate::metrics::Metrics;
use crate::placement::Placement;
use crate::{Time, WORK_EPS};

/// Shared executor state; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    pub(crate) placement: Placement,
    pub(crate) queue: Vec<PendingJob>,
    /// MB read per `(data, store)`: total reads from a store are capped by
    /// the MB placed there (constraint (13)). A data object's entries are
    /// dropped once no queued job reads it.
    pub(crate) reads_used: BTreeMap<(DataId, StoreId), f64>,
    /// Map-phase ECU-seconds per `(job, machine)`: where a job's shuffle
    /// output materializes for its reduce phase. Dropped when the job
    /// settles.
    map_ecu: BTreeMap<(JobId, MachineId), f64>,
    pub(crate) metrics: Metrics,
    pub(crate) outcomes: Vec<JobOutcome>,
}

/// A chunk that passed every check of [`Executor::check_chunk`] and is not
/// yet charged. Start it with [`Executor::start_chunk`] before any other
/// call changes the executor.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub(crate) job: JobId,
    pub(crate) mb: f64,
    pub(crate) fixed_ecu: f64,
    /// ECU-seconds of work in the chunk.
    pub ecu: f64,
    /// `(data, source)` the chunk reads, if it reads input.
    pub(crate) read: Option<(DataId, StoreId)>,
    /// When the source copy becomes readable (0 for input-less chunks).
    pub(crate) ready_at: Time,
    /// Locality level of the requested machine to the source.
    pub(crate) locality: Option<u8>,
    /// Whether the chunk's ECU feeds the job's shuffle placement.
    track_map: bool,
}

impl Chunk {
    /// Read dollars of the chunk when it runs on `machine`.
    pub(crate) fn read_dollars(&self, cluster: &Cluster, machine: MachineId) -> f64 {
        self.read
            .map_or(0.0, |(_, src)| self.mb * cluster.ms_cost(machine, src))
    }
}

impl Executor {
    /// An executor over `placement` with an empty queue and bill.
    pub fn new(placement: Placement) -> Self {
        Executor {
            placement,
            ..Executor::default()
        }
    }

    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Queued (arrived, unfinished) jobs in arrival order.
    pub fn queue(&self) -> &[PendingJob] {
        &self.queue
    }

    /// The read-budget ledger, for [`crate::SchedulerContext::reads_used`].
    pub fn reads_used(&self) -> &BTreeMap<(DataId, StoreId), f64> {
        &self.reads_used
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Completed jobs in completion order.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Append an arrived job to the queue. A job with no work left is
    /// settled by the next [`Executor::settle`] call for it.
    pub fn admit(&mut self, job: PendingJob) {
        self.queue.push(job);
    }

    /// Register a copy of a new object (an input bound after start-up),
    /// readable from `ready`. Not billed: the data was produced there.
    pub fn add_object(&mut self, data: DataId, store: StoreId, mb: f64, ready: Time) {
        self.placement.add_copy(data, store, mb, ready);
    }

    /// Validated move: copy `mb` of `data` from `from` to `to` and bill
    /// it. The copy lands at the time `land` reads off the placement
    /// before the copy; returns that time, or `None` for an empty move.
    pub fn move_data(
        &mut self,
        cluster: &Cluster,
        data: DataId,
        from: StoreId,
        to: StoreId,
        mb: f64,
        land: impl FnOnce(&Placement) -> Time,
    ) -> Result<Option<Time>, SimError> {
        if mb <= WORK_EPS {
            return Ok(None);
        }
        if !self.placement.has(data, from, mb) {
            return Err(SimError::MissingData {
                data,
                store: from,
                wanted_mb: mb,
                present_mb: self.placement.amount(data, from),
            });
        }
        let cap = cluster.store(to).capacity_mb;
        let would = self.placement.used_mb(to) + mb;
        if would > cap + WORK_EPS {
            return Err(SimError::StoreOverflow {
                store: to,
                capacity_mb: cap,
                would_use_mb: would,
            });
        }
        let ready = land(&self.placement);
        self.placement.add_copy(data, to, mb, ready);
        self.metrics.record_move(mb, mb * cluster.ss_cost(from, to));
        Ok(Some(ready))
    }

    /// Validate a `RunChunk` without changing anything: the machine is
    /// live, the job is queued and has the work, and a data-reading chunk
    /// names a source whose unread budget covers it. `Ok(None)` for an
    /// empty chunk.
    pub fn check_chunk(
        &self,
        cluster: &Cluster,
        job: JobId,
        machine: MachineId,
        source: Option<StoreId>,
        mb: f64,
        fixed_ecu: f64,
    ) -> Result<Option<Chunk>, SimError> {
        if mb <= WORK_EPS && fixed_ecu <= WORK_EPS {
            return Ok(None);
        }
        if cluster.machine(machine).tp_ecu <= 0.0 {
            return Err(SimError::MachineRevoked(machine));
        }
        let pj = self
            .queue
            .iter()
            .find(|j| j.id == job)
            .ok_or(SimError::UnknownJob(job))?;
        if mb > pj.remaining_mb + WORK_EPS || fixed_ecu > pj.remaining_fixed_ecu + WORK_EPS {
            return Err(SimError::OverAssignment(job));
        }
        let mut chunk = Chunk {
            job,
            mb,
            fixed_ecu,
            ecu: mb * pj.tcp + fixed_ecu,
            read: None,
            ready_at: 0.0,
            locality: None,
            track_map: pj.phase == JobPhase::Map && pj.has_pending_reduce(),
        };
        if mb > WORK_EPS {
            let src = source.ok_or(SimError::SourceRequired(job))?;
            let data = pj.data.ok_or(SimError::NoInput(job))?;
            let used = self.reads_used.get(&(data, src)).copied().unwrap_or(0.0);
            let present = self.placement.amount(data, src);
            if used + mb > present + WORK_EPS {
                return Err(SimError::MissingData {
                    data,
                    store: src,
                    wanted_mb: used + mb,
                    present_mb: present,
                });
            }
            chunk.read = Some((data, src));
            chunk.ready_at = self.placement.ready_at(data, src);
            chunk.locality = Some(cluster.locality_level(machine, src));
        }
        Ok(Some(chunk))
    }

    /// Start a checked chunk on `machine` (the requested one, or the
    /// backup that replaced it), busy for `busy_sec`: charge its reads,
    /// take its work from the job, track its map output and bill it.
    /// Returns the CPU dollars billed.
    pub fn start_chunk(
        &mut self,
        cluster: &Cluster,
        chunk: &Chunk,
        machine: MachineId,
        busy_sec: f64,
    ) -> f64 {
        let mut remote_mb = 0.0;
        if let Some(key) = chunk.read {
            *self.reads_used.entry(key).or_default() += chunk.mb;
            if chunk.locality.is_some_and(|l| l > 0) {
                remote_mb = chunk.mb;
            }
        }
        if let Some(pj) = self.queue.iter_mut().find(|j| j.id == chunk.job) {
            pj.consume(chunk.mb, chunk.fixed_ecu);
        }
        if chunk.track_map {
            *self.map_ecu.entry((chunk.job, machine)).or_default() += chunk.ecu;
        }
        let cpu_dollars = cluster.machine(machine).cpu_dollars(chunk.ecu);
        self.metrics.record_chunk(
            machine,
            chunk.ecu,
            busy_sec,
            cpu_dollars,
            chunk.read_dollars(cluster, machine),
            remote_mb,
            chunk.locality,
        );
        cpu_dollars
    }

    /// Undo a started chunk that was killed on `machine` before it
    /// finished: refund its read budget, drop its map output and return
    /// its work to the job. The bill is the caller's to adjust.
    pub(crate) fn revert_chunk(
        &mut self,
        chunk: &Chunk,
        machine: MachineId,
    ) -> Result<(), SimError> {
        if let Some(key) = chunk.read {
            if let Some(used) = self.reads_used.get_mut(&key) {
                *used = (*used - chunk.mb).max(0.0);
            }
        }
        if chunk.track_map {
            if let Some(e) = self.map_ecu.get_mut(&(chunk.job, machine)) {
                *e = (*e - chunk.ecu).max(0.0);
            }
        }
        let pj = self
            .queue
            .iter_mut()
            .find(|j| j.id == chunk.job)
            .ok_or(SimError::UnknownJob(chunk.job))?;
        pj.restore(chunk.mb, chunk.fixed_ecu);
        Ok(())
    }

    /// One job-settling step at `now`: `finished` of the job's running
    /// chunks completed. A job left with no work unassigned or running
    /// completes and leaves the queue, or, with a reduce phase to come,
    /// enters it (returns true): the shuffle output `shuffle` is placed on
    /// the stores of the machines that ran its maps in proportion to their
    /// map ECU-seconds, the rest on the first DataNode.
    pub fn settle(
        &mut self,
        cluster: &Cluster,
        job: JobId,
        finished: usize,
        now: Time,
        shuffle: DataId,
    ) -> bool {
        let Some(pos) = self.queue.iter().position(|j| j.id == job) else {
            return false;
        };
        let pj = &mut self.queue[pos];
        pj.running_chunks = pj.running_chunks.saturating_sub(finished);
        if !pj.is_complete() {
            return false;
        }
        let (input, reduce) = (pj.data, pj.reduce);
        if let Some(spec) = reduce {
            let shares: Vec<(MachineId, f64)> = self
                .map_ecu
                .range((job, MachineId(0))..=(job, MachineId(usize::MAX)))
                .map(|(&(_, m), &e)| (m, e))
                .collect();
            self.map_ecu.retain(|&(j, _), _| j != job);
            let total: f64 = shares.iter().map(|(_, e)| *e).sum();
            let mut placed = 0.0;
            if total > WORK_EPS {
                for (machine, ecu) in shares {
                    if let Some(store) = cluster.store_of_machine(machine) {
                        let mb = spec.shuffle_mb * ecu / total;
                        self.placement.add_copy(shuffle, store, mb, now);
                        placed += mb;
                    }
                }
            }
            if placed < spec.shuffle_mb - WORK_EPS {
                let fallback = cluster.stores.iter().find(|s| s.colocated.is_some());
                let store = fallback.map_or(StoreId(0), |s| s.id);
                let rest = spec.shuffle_mb - placed;
                self.placement.add_copy(shuffle, store, rest, now);
            }
            self.queue[pos].enter_reduce(spec, shuffle);
        } else {
            let done = self.queue.remove(pos);
            self.outcomes.push(JobOutcome {
                id: done.id,
                name: done.name,
                pool: done.pool,
                arrival: done.arrival,
                completed: now,
                chunks: done.chunks_started,
            });
        }
        if let Some(data) = input.filter(|&d| self.queue.iter().all(|j| j.data != Some(d))) {
            self.reads_used.retain(|&(d, _), _| d != data);
        }
        reduce.is_some()
    }
}
