//! The daemon: a continuous-arrival front end over the LiPS epoch
//! pipeline.
//!
//! The daemon owns a mutable copy of the cluster, a block placement, and
//! the admitted-job queue, and advances *virtual* time one epoch at a
//! time. Each epoch boundary:
//!
//! 1. pops due arrivals off the [`ArrivalQueue`] and runs them through
//!    admission control ([`crate::admission`]);
//! 2. hands the live state to [`LipsScheduler::decide`] — the scheduler
//!    keeps its column-generation state across calls, so new arrivals
//!    enter the incumbent restricted master as freshly priced columns and
//!    the carried basis is re-optimized by the dual simplex instead of a
//!    cold rebuild;
//! 3. applies the actions *fluidly* through the event engine's
//!    [`Executor`]: every action is validated and billed exactly as
//!    `lips_sim::Simulation::run` validates and bills it, but chunks
//!    complete within the epoch and moves land at its start. An action
//!    the executor refuses is skipped and counted
//!    ([`ServeSummary::refused_actions`]), never applied;
//! 4. settles every queued job at the epoch's end through the same
//!    executor: a job whose maps are done enters its reduce phase with the
//!    shuffle placed where the maps ran (the engine's rule), a job with
//!    nothing left completes;
//! 5. feeds the observed backlog to the epoch-length tuner
//!    ([`lips_core::tuner`]), closing the loop on the cost-vs-makespan knob.
//!
//! The bill, the placement and the completed jobs are the executor's, so a
//! drained daemon hands back a [`SimReport`] that
//! [`lips_sim::validate_report`] checks like any simulated run.
//!
//! Everything runs on virtual time and deterministic data structures, so
//! a trajectory is bitwise reproducible from run to run.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use lips_cluster::{Cluster, DataId, DataObject, StoreId};
use lips_core::{LipsScheduler, RunSummary, SchedulerConfig};
use lips_sim::{
    Action, Executor, JobOutcome, MachineState, PendingJob, Placement, Scheduler, SchedulerContext,
    SimReport,
};
use lips_workload::{JobId, JobSpec};

use crate::admission::{admit, AdmissionConfig, AdmissionDecision};
use crate::queue::ArrivalQueue;
use lips_core::{EpochTuner, TuneConfig};

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The epoch scheduler's knobs.
    pub scheduler: SchedulerConfig,
    pub admission: AdmissionConfig,
    /// Closed-loop epoch-length tuning; `None` pins the configured
    /// `epoch_s`.
    pub tuning: Option<TuneConfig>,
    /// Seed for the input-binding round-robin offset.
    pub bind_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scheduler: SchedulerConfig::default(),
            admission: AdmissionConfig::default(),
            tuning: None,
            bind_seed: 2013,
        }
    }
}

/// One admission-control decision, for audit and determinism checks.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct AdmissionEvent {
    pub now: f64,
    pub job: usize,
    pub pool: String,
    pub decision: String,
}

/// Per-epoch serve-level telemetry (the solver-level counterpart lives in
/// [`lips_core::EpochRecord`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeEpochRecord {
    /// Daemon epoch index (counts idle epochs too).
    pub epoch: usize,
    /// Virtual time at the epoch's start.
    pub now: f64,
    /// Epoch length used for this epoch.
    pub epoch_s: f64,
    /// Arrivals that came due at this boundary.
    pub arrived: usize,
    pub admitted: usize,
    pub rejected: usize,
    /// Queue depth at solve time (after admission).
    pub queue_depth: usize,
    /// Unassigned ECU-seconds at solve time.
    pub backlog_ecu: f64,
    /// Whether an LP decision epoch ran (false = idle or greedy-only).
    pub lp: bool,
    /// Whether the solve re-used carried state (see `EpochRecord`).
    pub incremental: bool,
    /// Ladder outcome label, empty when no LP ran.
    pub outcome: String,
    pub objective: f64,
    pub solve_ms: f64,
    pub actions: usize,
    pub chunks: usize,
    pub moved_mb: f64,
    /// Jobs completed by the end of this epoch.
    pub completed: usize,
    /// Epoch length the tuner picked for the next epoch.
    pub next_epoch_s: f64,
}

/// End-of-run roll-up: serve-level counters plus the solver-level
/// [`RunSummary`] aggregated from the scheduler's epoch records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeSummary {
    pub epochs_run: usize,
    pub lp_epochs: usize,
    pub admitted: usize,
    pub rejected_queue_full: usize,
    pub rejected_pool_budget: usize,
    pub completed: usize,
    pub queued: usize,
    pub pending_arrivals: usize,
    /// The bill, as the executor metered it.
    pub chunks: usize,
    pub moved_mb: f64,
    pub cpu_dollars: f64,
    pub read_dollars: f64,
    pub move_dollars: f64,
    pub total_dollars: f64,
    /// Scheduler actions the executor refused (skipped, not applied).
    #[serde(default)]
    pub refused_actions: usize,
    pub mean_queue_depth: f64,
    pub max_queue_depth: usize,
    /// Mean completed-job latency (completion − arrival) in virtual
    /// seconds.
    pub mean_latency_s: f64,
    pub solver: RunSummary,
}

/// A submit under a job id the daemon has already seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateJob(pub usize);

impl fmt::Display for DuplicateJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job id {} was already submitted", self.0)
    }
}

impl std::error::Error for DuplicateJob {}

/// The continuous-arrival scheduler daemon.
pub struct Daemon {
    config: ServeConfig,
    cluster: Cluster,
    /// Original `tp_ecu` per machine, for rejoin after a revocation.
    saved_tp: Vec<f64>,
    scheduler: LipsScheduler,
    arrivals: ArrivalQueue,
    /// Placement, admitted queue, ledgers, bill and completed jobs.
    exec: Executor,
    now: f64,
    epochs_run: usize,
    /// Id of every job handed to the daemon, whatever became of it: the
    /// scheduler and the executor look jobs up by id.
    job_ids: BTreeSet<usize>,
    /// Colocated stores, the round-robin ring for input binding.
    bind_ring: Vec<StoreId>,
    bind_cursor: usize,
    admitted: usize,
    rejected_queue_full: usize,
    rejected_pool_budget: usize,
    refused_actions: usize,
    admission_log: Vec<AdmissionEvent>,
    epoch_log: Vec<ServeEpochRecord>,
    tuner: Option<EpochTuner>,
}

impl Daemon {
    /// Build a daemon over `cluster`. Pre-registered data objects keep
    /// their catalog placement (one copy at the origin store).
    pub fn new(cluster: Cluster, config: ServeConfig) -> Self {
        let exec = Executor::new(Placement::from_cluster(&cluster));
        let saved_tp = cluster.machines.iter().map(|m| m.tp_ecu).collect();
        let mut bind_ring: Vec<StoreId> = (0..cluster.num_machines())
            .filter_map(|m| cluster.store_of_machine(lips_cluster::MachineId(m)))
            .collect();
        bind_ring.sort_unstable_by_key(|s| s.0);
        bind_ring.dedup();
        if bind_ring.is_empty() {
            bind_ring = cluster.stores.iter().map(|s| s.id).collect();
        }
        let bind_cursor = if bind_ring.is_empty() {
            0
        } else {
            (config.bind_seed as usize) % bind_ring.len()
        };
        let tuner = config.tuning.map(EpochTuner::new);
        let scheduler = LipsScheduler::new(config.scheduler.clone());
        Daemon {
            config,
            saved_tp,
            scheduler,
            arrivals: ArrivalQueue::new(),
            exec,
            now: 0.0,
            epochs_run: 0,
            job_ids: BTreeSet::new(),
            bind_ring,
            bind_cursor,
            admitted: 0,
            rejected_queue_full: 0,
            rejected_pool_budget: 0,
            refused_actions: 0,
            admission_log: Vec::new(),
            epoch_log: Vec::new(),
            tuner,
            cluster,
        }
    }

    /// A fresh job id no submitted job has used yet.
    pub fn fresh_job_id(&self) -> usize {
        self.job_ids.last().map_or(0, |&id| id + 1)
    }

    /// Hand a spec to the daemon. Arrivals in the future (or at `now`)
    /// wait in the arrival queue and face admission at the epoch boundary
    /// where they come due; past arrivals are clamped to `now`. A spec
    /// whose id the daemon has already seen (pending arrival, queued,
    /// turned away or completed) is refused: returns false.
    pub fn enqueue(&mut self, mut spec: JobSpec) -> bool {
        if !self.job_ids.insert(spec.id.0) {
            return false;
        }
        if spec.arrival_s < self.now {
            spec.arrival_s = self.now;
        }
        self.arrivals.push(spec);
        true
    }

    /// Submit a spec through the control path. A future arrival waits in
    /// the queue (`Ok(None)`: decision deferred to its boundary); a due
    /// one faces admission immediately. A known id is refused, as by
    /// [`Daemon::enqueue`].
    pub fn submit(&mut self, spec: JobSpec) -> Result<Option<AdmissionDecision>, DuplicateJob> {
        let id = spec.id.0;
        if spec.arrival_s > self.now {
            return if self.enqueue(spec) {
                Ok(None)
            } else {
                Err(DuplicateJob(id))
            };
        }
        if !self.job_ids.insert(id) {
            return Err(DuplicateJob(id));
        }
        Ok(Some(self.try_admit(spec)))
    }

    /// Admission decision for `spec` right now: bind its input data and
    /// append it to the scheduler queue, or turn it away.
    fn try_admit(&mut self, mut spec: JobSpec) -> AdmissionDecision {
        let decision = admit(&self.config.admission, self.exec.queue(), &spec);
        self.admission_log.push(AdmissionEvent {
            now: self.now,
            job: spec.id.0,
            pool: spec.pool.clone(),
            decision: decision.as_str().to_owned(),
        });
        match decision {
            AdmissionDecision::Admitted => {
                self.admitted += 1;
                if spec.reads_input() && spec.data.is_none() {
                    spec.data = Some(self.bind_input(&spec.name, spec.input_mb));
                }
                self.exec.admit(PendingJob::from_spec(&spec));
            }
            AdmissionDecision::RejectedQueueFull => self.rejected_queue_full += 1,
            AdmissionDecision::RejectedPoolBudget => self.rejected_pool_budget += 1,
        }
        decision
    }

    /// Register a new input object in the owned catalog and placement,
    /// round-robin over colocated stores with a capacity check (the same
    /// rule as `lips_workload::bind_workload`'s round-robin policy).
    fn bind_input(&mut self, name: &str, mb: f64) -> DataId {
        let n = self.bind_ring.len().max(1);
        let mut origin = self.bind_ring[self.bind_cursor % n];
        // Prefer the first ring store from the cursor with room; fall
        // back to the cursor's store if none fits.
        for off in 0..n {
            let s = self.bind_ring[(self.bind_cursor + off) % n];
            let free = self.cluster.store(s).capacity_mb - self.exec.placement().used_mb(s);
            if free >= mb {
                origin = s;
                self.bind_cursor += off + 1;
                break;
            }
        }
        let id = DataId(self.cluster.data.len());
        self.cluster
            .data
            .push(DataObject::new(id.0, format!("input-{name}"), mb, origin));
        self.exec.add_object(id, origin, mb, self.now);
        id
    }

    /// Revoke a machine (fault injection / decommission): its throughput
    /// drops to zero at the next epoch boundary. Returns false for an
    /// unknown or already-revoked machine.
    pub fn revoke(&mut self, machine: usize) -> bool {
        match self.cluster.machines.get_mut(machine) {
            Some(m) if m.tp_ecu > 0.0 => {
                m.tp_ecu = 0.0;
                true
            }
            _ => false,
        }
    }

    /// Restore a previously revoked machine to its original throughput.
    pub fn rejoin(&mut self, machine: usize) -> bool {
        match self.cluster.machines.get_mut(machine) {
            Some(m) if m.tp_ecu == 0.0 => {
                m.tp_ecu = self.saved_tp[machine];
                true
            }
            _ => false,
        }
    }

    /// Advance one epoch: admit due arrivals, solve, apply fluidly, tune.
    pub fn run_epoch(&mut self) -> &ServeEpochRecord {
        let epoch_s = self.scheduler.config.epoch_s;
        let epoch = self.epochs_run;

        // 1. Arrivals due at this boundary.
        let due = self.arrivals.pop_due(self.now);
        let arrived = due.len();
        let before_admitted = self.admitted;
        for spec in due {
            self.try_admit(spec);
        }
        let admitted = self.admitted - before_admitted;
        let rejected = arrived - admitted;

        // 2. Decide. `reads_used: None` keeps the scheduler's private
        // issued ledger authoritative, which is exact here because chunks
        // complete within the epoch and are never killed mid-flight.
        let records_before = self.scheduler.epoch_records().len();
        let solves_before = self.scheduler.solves();
        let machines: Vec<MachineState> = self
            .cluster
            .machines
            .iter()
            .map(MachineState::new)
            .collect();
        let ctx = SchedulerContext {
            now: self.now,
            cluster: &self.cluster,
            placement: self.exec.placement(),
            queue: self.exec.queue(),
            machines: &machines,
            reads_used: None,
        };
        let (queue_depth, backlog_ecu) = (ctx.queue.len(), ctx.backlog_ecu());
        let actions = if ctx.jobs_with_work().next().is_some() {
            self.scheduler.decide(&ctx)
        } else {
            Vec::new()
        };
        let lp = self.scheduler.solves() > solves_before;

        // 3. Apply fluidly.
        let n_actions = actions.len();
        let (epoch_chunks, epoch_moved) = self.apply(actions);

        // 4. Every dispatched chunk finished within the epoch: settle each
        // queued job at its end. A job entering its reduce phase gets its
        // shuffle output registered in the catalog.
        let end = self.now + epoch_s;
        let jobs: Vec<(JobId, usize)> = self
            .exec
            .queue()
            .iter()
            .map(|j| (j.id, j.running_chunks))
            .collect();
        for (job, running) in jobs {
            let shuffle = DataId(self.cluster.data.len());
            if self.exec.settle(&self.cluster, job, running, end, shuffle) {
                self.register_shuffle(job, shuffle);
            }
        }

        // 5. Close the loop on the epoch-length knob.
        let next_epoch_s = if let Some(t) = self.tuner {
            let remaining: f64 = self
                .exec
                .queue()
                .iter()
                .map(PendingJob::unassigned_ecu)
                .sum();
            t.next_epoch(remaining, t.target_rate(&self.cluster), epoch_s)
        } else {
            epoch_s
        };
        self.scheduler.config.epoch_s = next_epoch_s;

        // 6. Record and advance virtual time.
        let (incremental, outcome, objective, solve_ms) =
            match self.scheduler.epoch_records().get(records_before) {
                Some(r) => (r.incremental, r.outcome.clone(), r.objective, r.solve_ms),
                None => (false, String::new(), 0.0, 0.0),
            };
        let idx = self.epoch_log.len();
        self.epoch_log.push(ServeEpochRecord {
            epoch,
            now: self.now,
            epoch_s,
            arrived,
            admitted,
            rejected,
            queue_depth,
            backlog_ecu,
            lp,
            incremental,
            outcome,
            objective,
            solve_ms,
            actions: n_actions,
            chunks: epoch_chunks,
            moved_mb: epoch_moved,
            completed: self.exec.outcomes().len(),
            next_epoch_s,
        });
        self.now = end;
        self.epochs_run += 1;
        &self.epoch_log[idx]
    }

    /// Apply one decision through the executor: moves land at `now`, a
    /// chunk keeps its machine busy for `slot_seconds_for(ecu)`. A refused
    /// action is skipped and counted. Returns the chunks started and the
    /// MB moved.
    fn apply(&mut self, actions: Vec<Action>) -> (usize, f64) {
        let now = self.now;
        let mut chunks = 0usize;
        let mut moved = 0.0f64;
        for action in actions {
            let applied = match action {
                Action::MoveData { data, from, to, mb } => self
                    .exec
                    .move_data(&self.cluster, data, from, to, mb, |_| now)
                    .map(|landed| {
                        if landed.is_some() {
                            moved += mb;
                        }
                    }),
                Action::RunChunk {
                    job,
                    machine,
                    source,
                    mb,
                    fixed_ecu,
                } => self
                    .exec
                    .check_chunk(&self.cluster, job, machine, source, mb, fixed_ecu)
                    .map(|chunk| {
                        if let Some(chunk) = chunk {
                            let busy = self.cluster.machine(machine).slot_seconds_for(chunk.ecu);
                            self.exec.start_chunk(&self.cluster, &chunk, machine, busy);
                            chunks += 1;
                        }
                    }),
            };
            if applied.is_err() {
                self.refused_actions += 1;
            }
        }
        (chunks, moved)
    }

    /// Register `job`'s shuffle output `data` in the catalog, its origin
    /// the store holding most of it.
    fn register_shuffle(&mut self, job: JobId, data: DataId) {
        let Some(j) = self.exec.queue().iter().find(|j| j.id == job) else {
            return;
        };
        let origin = self
            .exec
            .placement()
            .stores_of(data)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)))
            .map_or(StoreId(0), |(s, _)| s);
        let object = DataObject::new(
            data.0,
            format!("shuffle-{}", j.name),
            j.remaining_mb,
            origin,
        );
        self.cluster.data.push(object);
    }

    /// Run epochs until both the queue and the arrival stream are empty
    /// or `max_epochs` epochs have elapsed, fast-forwarding idle gaps to
    /// the next arrival. Returns the number of epochs run.
    pub fn run_until_drained(&mut self, max_epochs: usize) -> usize {
        let start = self.epochs_run;
        while self.epochs_run - start < max_epochs {
            if self.exec.queue().is_empty() {
                match self.arrivals.next_arrival() {
                    Some(t) => self.now = self.now.max(t),
                    None => break,
                }
            }
            self.run_epoch();
        }
        self.epochs_run - start
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    pub fn epoch_s(&self) -> f64 {
        self.scheduler.config.epoch_s
    }

    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    pub fn queue_len(&self) -> usize {
        self.exec.queue().len()
    }

    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    pub fn completed(&self) -> &[JobOutcome] {
        self.exec.outcomes()
    }

    pub fn admission_log(&self) -> &[AdmissionEvent] {
        &self.admission_log
    }

    pub fn epoch_log(&self) -> &[ServeEpochRecord] {
        &self.epoch_log
    }

    pub fn scheduler(&self) -> &LipsScheduler {
        &self.scheduler
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn total_dollars(&self) -> f64 {
        self.exec.metrics().total_dollars()
    }

    /// The run as a [`SimReport`], once the queue and the arrival stream
    /// are drained (`None` before): the executor's bill, completed jobs
    /// and final placement, the makespan at the last completion.
    pub fn report(&self) -> Option<SimReport> {
        if !(self.exec.queue().is_empty() && self.arrivals.is_empty()) {
            return None;
        }
        let outcomes = self.exec.outcomes().to_vec();
        let makespan = outcomes.iter().map(|o| o.completed).fold(0.0, f64::max);
        Some(SimReport {
            scheduler: self.scheduler.name().to_owned(),
            metrics: self.exec.metrics().clone(),
            outcomes,
            makespan,
            events: self.epochs_run,
            final_placement: self.exec.placement().clone(),
        })
    }

    /// Roll up the run so far.
    pub fn summary(&self) -> ServeSummary {
        let solver = RunSummary::from_records(self.scheduler.epoch_records());
        let depths: Vec<usize> = self.epoch_log.iter().map(|e| e.queue_depth).collect();
        let mean_queue_depth = if depths.is_empty() {
            0.0
        } else {
            depths.iter().sum::<usize>() as f64 / depths.len() as f64
        };
        let completed = self.exec.outcomes();
        let mean_latency_s = if completed.is_empty() {
            0.0
        } else {
            completed
                .iter()
                .map(|j| j.completed - j.arrival)
                .sum::<f64>()
                / completed.len() as f64
        };
        let metrics = self.exec.metrics();
        ServeSummary {
            epochs_run: self.epochs_run,
            lp_epochs: self.scheduler.solves(),
            admitted: self.admitted,
            rejected_queue_full: self.rejected_queue_full,
            rejected_pool_budget: self.rejected_pool_budget,
            completed: completed.len(),
            queued: self.exec.queue().len(),
            pending_arrivals: self.arrivals.len(),
            chunks: metrics.chunks(),
            moved_mb: metrics.moved_mb,
            cpu_dollars: metrics.cpu_dollars,
            read_dollars: metrics.read_dollars,
            move_dollars: metrics.move_dollars,
            total_dollars: metrics.total_dollars(),
            refused_actions: self.refused_actions,
            mean_queue_depth,
            max_queue_depth: depths.into_iter().max().unwrap_or(0),
            mean_latency_s,
            solver,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{ec2_20_node, MachineId};
    use lips_workload::JobKind;

    fn daemon() -> Daemon {
        Daemon::new(ec2_20_node(0.5, 1e9), ServeConfig::default())
    }

    #[test]
    fn enqueue_refuses_a_known_id() {
        let mut d = daemon();
        assert!(d.enqueue(JobSpec::new(0, "g", JobKind::Grep, 512.0, 4)));
        assert!(!d.enqueue(JobSpec::new(0, "wc", JobKind::WordCount, 2048.0, 4)));
        assert!(d.enqueue(JobSpec::new(1, "g1", JobKind::Grep, 256.0, 4)));
        assert_eq!(d.pending_arrivals(), 2);
        assert_eq!(d.run_until_drained(10), 1);
        let done: Vec<&str> = d.completed().iter().map(|j| j.name.as_str()).collect();
        assert_eq!(done, ["g", "g1"]);
        // A known id stays refused after its job completed, on either path.
        assert!(!d.enqueue(JobSpec::new(1, "again", JobKind::Grep, 64.0, 1)));
        let late = JobSpec::new(0, "again", JobKind::Grep, 64.0, 1).arriving_at(d.now());
        assert_eq!(d.submit(late), Err(DuplicateJob(0)));
    }

    #[test]
    fn refused_actions_are_counted_not_applied() {
        let mut d = daemon();
        let id = d.fresh_job_id();
        let decision = d.submit(JobSpec::new(id, "g", JobKind::Grep, 512.0, 4));
        assert_eq!(decision, Ok(Some(AdmissionDecision::Admitted)));
        let job = JobId(id);
        let data = d.exec.queue()[0].data.expect("input bound at admission");
        let holder = d.exec.placement().stores_of(data)[0].0;
        let empty = StoreId((holder.0 + 1) % d.cluster.stores.len());
        let bogus = vec![
            // A job the daemon never admitted.
            Action::RunChunk {
                job: JobId(99),
                machine: MachineId(0),
                source: Some(holder),
                mb: 64.0,
                fixed_ecu: 0.0,
            },
            // More input than the job has.
            Action::RunChunk {
                job,
                machine: MachineId(0),
                source: Some(holder),
                mb: 4096.0,
                fixed_ecu: 0.0,
            },
            // A data-reading chunk without a source.
            Action::RunChunk {
                job,
                machine: MachineId(0),
                source: None,
                mb: 64.0,
                fixed_ecu: 0.0,
            },
            // A read from a store that holds none of the input.
            Action::RunChunk {
                job,
                machine: MachineId(0),
                source: Some(empty),
                mb: 64.0,
                fixed_ecu: 0.0,
            },
            // A move of data the source store does not hold.
            Action::MoveData {
                data,
                from: empty,
                to: holder,
                mb: 64.0,
            },
        ];
        assert_eq!(d.apply(bogus), (0, 0.0));
        assert_eq!(d.refused_actions, 5);
        let s = d.summary();
        assert_eq!((s.refused_actions, s.chunks, s.total_dollars), (5, 0, 0.0));
        assert_eq!(d.exec.queue()[0].remaining_mb, 512.0);
        // The daemon still runs the job to completion, refusing nothing more.
        d.run_until_drained(10);
        assert_eq!(d.completed().len(), 1);
        assert_eq!(d.refused_actions, 5);
        assert!(d.total_dollars() > 0.0);
    }
}
