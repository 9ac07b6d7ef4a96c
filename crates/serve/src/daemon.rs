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
//! 3. applies the actions *fluidly*: chunks complete within the epoch,
//!    moves land immediately, map→reduce transitions materialize shuffle
//!    data where the maps ran (mirroring the event engine's rule);
//! 4. feeds the observed backlog to the epoch-length tuner
//!    ([`lips_core::tuner`]), closing the loop on the cost-vs-makespan knob.
//!
//! Everything runs on virtual time and deterministic data structures, so
//! a trajectory is bitwise reproducible at any worker-thread count.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use lips_cluster::{Cluster, DataId, DataObject, StoreId};
use lips_core::{LipsScheduler, RunSummary, SchedulerConfig};
use lips_sim::{
    Action, JobOutcome, JobPhase, MachineState, PendingJob, Placement, Scheduler, SchedulerContext,
};
use lips_workload::JobSpec;

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
    pub chunks: usize,
    pub moved_mb: f64,
    pub cpu_dollars: f64,
    pub read_dollars: f64,
    pub move_dollars: f64,
    pub total_dollars: f64,
    pub mean_queue_depth: f64,
    pub max_queue_depth: usize,
    /// Mean completed-job latency (completion − arrival) in virtual
    /// seconds.
    pub mean_latency_s: f64,
    pub solver: RunSummary,
}

/// The continuous-arrival scheduler daemon.
pub struct Daemon {
    config: ServeConfig,
    cluster: Cluster,
    /// Original `tp_ecu` per machine, for rejoin after a revocation.
    saved_tp: Vec<f64>,
    placement: Placement,
    scheduler: LipsScheduler,
    arrivals: ArrivalQueue,
    queue: Vec<PendingJob>,
    now: f64,
    epochs_run: usize,
    /// Id of every job handed to the daemon, whatever became of it.
    job_ids: BTreeSet<usize>,
    /// Colocated stores, the round-robin ring for input binding.
    bind_ring: Vec<StoreId>,
    bind_cursor: usize,
    /// Map-phase ECU per (job, machine), driving shuffle placement.
    map_ecu: BTreeMap<usize, BTreeMap<usize, f64>>,
    completed: Vec<JobOutcome>,
    admitted: usize,
    rejected_queue_full: usize,
    rejected_pool_budget: usize,
    admission_log: Vec<AdmissionEvent>,
    cpu_dollars: f64,
    read_dollars: f64,
    move_dollars: f64,
    moved_mb: f64,
    chunks: usize,
    epoch_log: Vec<ServeEpochRecord>,
    tuner: Option<EpochTuner>,
}

impl Daemon {
    /// Build a daemon over `cluster`. Pre-registered data objects keep
    /// their catalog placement (one copy at the origin store).
    pub fn new(cluster: Cluster, config: ServeConfig) -> Self {
        let placement = Placement::from_cluster(&cluster);
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
            placement,
            scheduler,
            arrivals: ArrivalQueue::new(),
            queue: Vec::new(),
            now: 0.0,
            epochs_run: 0,
            job_ids: BTreeSet::new(),
            bind_ring,
            bind_cursor,
            map_ecu: BTreeMap::new(),
            completed: Vec::new(),
            admitted: 0,
            rejected_queue_full: 0,
            rejected_pool_budget: 0,
            admission_log: Vec::new(),
            cpu_dollars: 0.0,
            read_dollars: 0.0,
            move_dollars: 0.0,
            moved_mb: 0.0,
            chunks: 0,
            epoch_log: Vec::new(),
            tuner,
            cluster,
        }
    }

    /// A fresh job id no submitted job has used yet.
    pub fn fresh_job_id(&self) -> usize {
        self.job_ids.last().map_or(0, |&id| id + 1)
    }

    /// Whether a job with this id was already handed to the daemon:
    /// pending arrival, queued, turned away or completed.
    pub fn knows_job(&self, id: usize) -> bool {
        self.job_ids.contains(&id)
    }

    /// Hand a spec to the daemon. Arrivals in the future (or at `now`)
    /// wait in the arrival queue and face admission at the epoch boundary
    /// where they come due; past arrivals are clamped to `now`.
    pub fn enqueue(&mut self, mut spec: JobSpec) {
        if spec.arrival_s < self.now {
            spec.arrival_s = self.now;
        }
        self.job_ids.insert(spec.id.0);
        self.arrivals.push(spec);
    }

    /// Submit a spec through the control path. A future arrival waits in
    /// the queue (`None`: decision deferred to its boundary); a due one
    /// faces admission immediately.
    pub fn submit(&mut self, spec: JobSpec) -> Option<AdmissionDecision> {
        if spec.arrival_s > self.now {
            self.enqueue(spec);
            None
        } else {
            self.job_ids.insert(spec.id.0);
            Some(self.try_admit(spec))
        }
    }

    /// Admission decision for `spec` right now: bind its input data and
    /// append it to the scheduler queue, or turn it away.
    fn try_admit(&mut self, mut spec: JobSpec) -> AdmissionDecision {
        let decision = admit(&self.config.admission, &self.queue, &spec);
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
                self.queue.push(PendingJob::from_spec(&spec));
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
            let free = self.cluster.store(s).capacity_mb - self.placement.used_mb(s);
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
        self.placement.add_copy(id, origin, mb, self.now);
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

        let queue_depth = self.queue.len();
        let backlog_ecu: f64 = self.queue.iter().map(PendingJob::unassigned_ecu).sum();

        // 2. Decide. The scheduler context is hand-built (no live engine):
        // `reads_used: None` keeps the scheduler's private issued ledger
        // authoritative, which is exact here because chunks complete
        // within the epoch and are never killed mid-flight.
        let records_before = self.scheduler.epoch_records().len();
        let solves_before = self.scheduler.solves();
        let actions = if self.queue.iter().any(PendingJob::has_unassigned_work) {
            let machines: Vec<MachineState> = self
                .cluster
                .machines
                .iter()
                .map(MachineState::new)
                .collect();
            let ctx = SchedulerContext {
                now: self.now,
                cluster: &self.cluster,
                placement: &self.placement,
                queue: &self.queue,
                machines: &machines,
                reads_used: None,
            };
            self.scheduler.decide(&ctx)
        } else {
            Vec::new()
        };
        let lp = self.scheduler.solves() > solves_before;

        // 3. Apply fluidly.
        let n_actions = actions.len();
        let mut epoch_chunks = 0usize;
        let mut epoch_moved = 0.0f64;
        for action in actions {
            match action {
                Action::MoveData { data, from, to, mb } => {
                    // lips-allow(float-accum-in-loop): dollar ledger summed in the scheduler's deterministic action order
                    self.move_dollars += mb * self.cluster.ss_cost(from, to);
                    self.placement.add_copy(data, to, mb, self.now);
                    // lips-allow(float-accum-in-loop): per-epoch MB tally in the same fixed action order
                    epoch_moved += mb;
                }
                Action::RunChunk {
                    job,
                    machine,
                    source,
                    mb,
                    fixed_ecu,
                } => {
                    let Some(j) = self.queue.iter_mut().find(|j| j.id == job) else {
                        continue;
                    };
                    j.consume(mb, fixed_ecu);
                    let ecu = mb * j.tcp + fixed_ecu;
                    // lips-allow(float-accum-in-loop): dollar ledger summed in the scheduler's deterministic action order
                    self.cpu_dollars += self.cluster.machine(machine).cpu_dollars(ecu);
                    if let Some(s) = source {
                        // lips-allow(float-accum-in-loop): dollar ledger summed in the scheduler's deterministic action order
                        self.read_dollars += mb * self.cluster.ms_cost(machine, s);
                    }
                    if j.phase == JobPhase::Map && j.has_pending_reduce() {
                        *self
                            .map_ecu
                            .entry(job.0)
                            .or_default()
                            .entry(machine.0)
                            .or_insert(0.0) += ecu;
                    }
                    epoch_chunks += 1;
                }
            }
        }
        self.chunks += epoch_chunks;
        self.moved_mb += epoch_moved;

        // 4. Fluid completion: every dispatched chunk finishes within the
        // epoch. Map-done jobs with a reduce spec transition (shuffle data
        // materializes where the maps ran, as in the event engine); fully
        // done jobs leave the queue.
        let end = self.now + epoch_s;
        let mut i = 0;
        while i < self.queue.len() {
            self.queue[i].running_chunks = 0;
            if self.queue[i].has_unassigned_work() {
                i += 1;
                continue;
            }
            if self.queue[i].has_pending_reduce() {
                let shuffle = self.materialize_shuffle(i);
                self.queue[i].enter_reduce(shuffle);
                i += 1;
                continue;
            }
            let job = self.queue.remove(i);
            self.map_ecu.remove(&job.id.0);
            self.completed.push(JobOutcome {
                id: job.id,
                name: job.name,
                pool: job.pool,
                arrival: job.arrival,
                completed: end,
                chunks: job.chunks_started,
            });
        }

        // 5. Close the loop on the epoch-length knob.
        let next_epoch_s = if let Some(t) = self.tuner {
            let remaining: f64 = self.queue.iter().map(PendingJob::unassigned_ecu).sum();
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
            completed: self.completed.len(),
            next_epoch_s,
        });
        self.now = end;
        self.epochs_run += 1;
        &self.epoch_log[idx]
    }

    /// Shuffle data for the job at queue index `i`: registered in the
    /// catalog and placed proportionally to where its map ECU ran
    /// (remainder and machines without local stores fall to the first
    /// ring store) — the event engine's materialization rule.
    fn materialize_shuffle(&mut self, i: usize) -> DataId {
        let job = &self.queue[i];
        // Callers gate on `has_pending_reduce`; a map-only job shuffles
        // nothing.
        let shuffle_mb = job.reduce.map_or(0.0, |r| r.shuffle_mb);
        let name = format!("shuffle-{}", job.name);
        let per_machine = self.map_ecu.remove(&job.id.0).unwrap_or_default();
        let total: f64 = per_machine.values().sum();
        let fallback = self.bind_ring[0];
        let mut placed: BTreeMap<StoreId, f64> = BTreeMap::new();
        if total > 0.0 {
            for (&m, &ecu) in &per_machine {
                let share = shuffle_mb * ecu / total;
                let store = self
                    .cluster
                    .store_of_machine(lips_cluster::MachineId(m))
                    .unwrap_or(fallback);
                *placed.entry(store).or_insert(0.0) += share;
            }
        } else {
            placed.insert(fallback, shuffle_mb);
        }
        let origin = placed
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0 .0.cmp(&a.0 .0)))
            .map_or(fallback, |(&s, _)| s);
        let id = DataId(self.cluster.data.len());
        self.cluster
            .data
            .push(DataObject::new(id.0, name, shuffle_mb, origin));
        for (store, mb) in placed {
            if mb > 0.0 {
                self.placement.add_copy(id, store, mb, self.now);
            }
        }
        id
    }

    /// Run epochs until both the queue and the arrival stream are empty
    /// or `max_epochs` epochs have elapsed, fast-forwarding idle gaps to
    /// the next arrival. Returns the number of epochs run.
    pub fn run_until_drained(&mut self, max_epochs: usize) -> usize {
        let start = self.epochs_run;
        while self.epochs_run - start < max_epochs {
            if self.queue.is_empty() {
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
        self.queue.len()
    }

    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    pub fn completed(&self) -> &[JobOutcome] {
        &self.completed
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
        self.cpu_dollars + self.read_dollars + self.move_dollars
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
        let mean_latency_s = if self.completed.is_empty() {
            0.0
        } else {
            self.completed
                .iter()
                .map(|j| j.completed - j.arrival)
                .sum::<f64>()
                / self.completed.len() as f64
        };
        ServeSummary {
            epochs_run: self.epochs_run,
            lp_epochs: self.scheduler.solves(),
            admitted: self.admitted,
            rejected_queue_full: self.rejected_queue_full,
            rejected_pool_budget: self.rejected_pool_budget,
            completed: self.completed.len(),
            queued: self.queue.len(),
            pending_arrivals: self.arrivals.len(),
            chunks: self.chunks,
            moved_mb: self.moved_mb,
            cpu_dollars: self.cpu_dollars,
            read_dollars: self.read_dollars,
            move_dollars: self.move_dollars,
            total_dollars: self.total_dollars(),
            mean_queue_depth,
            max_queue_depth: depths.into_iter().max().unwrap_or(0),
            mean_latency_s,
            solver,
        }
    }
}
