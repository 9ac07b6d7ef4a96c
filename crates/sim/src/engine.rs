//! The discrete-event simulation driver.
//!
//! [`Simulation::run`] replays job arrivals, epoch ticks, chunk
//! completions and scripted faults through an event queue. Everything a
//! schedule's bill depends on — validating and applying actions, the read
//! and map-output ledgers, the shuffle rule, job completion — lives in the
//! shared [`Executor`]; the engine adds what only a timed executor has:
//! slots, transfer and compute durations, stragglers, speculative backups,
//! network interference and faults.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use lips_cluster::{Cluster, DataId, MachineId, StoreId};
use lips_workload::{BoundWorkload, JobId};

use crate::action::{Action, Scheduler, SchedulerContext};
use crate::event::{EventKind, EventQueue};
use crate::executor::{Chunk, Executor};
use crate::fault::{FaultEvent, FaultPlan};
use crate::job_state::PendingJob;
use crate::machine_state::MachineState;
use crate::metrics::SimReport;
use crate::placement::Placement;
use crate::Time;

/// Simulation failures: all indicate a buggy or stalled *scheduler* (the
/// simulator validates every action against physical reality).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Action referenced a job that is not queued (or already complete).
    UnknownJob(JobId),
    /// Chunk consumed more work than the job has left.
    OverAssignment(JobId),
    /// Chunk read data from a store that does not hold (enough of) it.
    MissingData {
        data: DataId,
        store: StoreId,
        wanted_mb: f64,
        present_mb: f64,
    },
    /// Move would overflow the destination store's capacity.
    StoreOverflow {
        store: StoreId,
        capacity_mb: f64,
        would_use_mb: f64,
    },
    /// A data-reading chunk did not name a source store.
    SourceRequired(JobId),
    /// A chunk read input MB for a job with no input data object.
    NoInput(JobId),
    /// Chunk targeted a machine that is currently revoked (a fault-aware
    /// scheduler must respect the live cluster's `tp_ecu == 0` marker).
    MachineRevoked(MachineId),
    /// All events drained but unfinished jobs remain — the scheduler
    /// stopped scheduling.
    Stalled { unfinished: usize },
    /// The scheduler kept emitting actions without making progress.
    ActionLoop,
    /// An epoch scheduler reported no epoch, or a non-positive one.
    BadEpoch,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownJob(j) => write!(f, "action references unknown job {j:?}"),
            SimError::OverAssignment(j) => write!(f, "job {j:?} over-assigned"),
            SimError::MissingData {
                data,
                store,
                wanted_mb,
                present_mb,
            } => write!(
                f,
                "chunk wants {wanted_mb} MB of {data:?} at {store:?}, only {present_mb} present"
            ),
            SimError::StoreOverflow {
                store,
                capacity_mb,
                would_use_mb,
            } => {
                write!(
                    f,
                    "store {store:?} capacity {capacity_mb} MB exceeded ({would_use_mb})"
                )
            }
            SimError::SourceRequired(j) => {
                write!(f, "data-reading chunk for {j:?} lacks a source store")
            }
            SimError::NoInput(j) => write!(f, "chunk reads input for {j:?}, which has none"),
            SimError::MachineRevoked(m) => {
                write!(f, "chunk scheduled on revoked machine {m:?}")
            }
            SimError::Stalled { unfinished } => {
                write!(f, "simulation stalled with {unfinished} unfinished jobs")
            }
            SimError::ActionLoop => write!(f, "scheduler emitted actions without progress"),
            SimError::BadEpoch => write!(f, "epoch scheduler reported no positive epoch"),
        }
    }
}

impl std::error::Error for SimError {}

/// Straggler injection: with probability `prob`, a chunk's compute time
/// is multiplied by `slowdown` (the work and its bill are unchanged — the
/// node simply delivers its cycles slowly, as the paper's §II discussion
/// of speculative execution and LATE assumes).
#[derive(Debug, Clone, Copy)]
pub struct StragglerModel {
    pub prob: f64,
    pub slowdown: f64,
    pub seed: u64,
}

/// One simulation run, consumed by [`Simulation::run`].
pub struct Simulation<'a> {
    cluster: &'a Cluster,
    workload: &'a BoundWorkload,
    /// Initial data placement; defaults to "everything at its origin".
    initial_placement: Option<Placement>,
    /// Optional straggler injection.
    stragglers: Option<StragglerModel>,
    /// Network interference factor: a chunk's read time is multiplied by
    /// `1 + factor × (busy sibling slots at start)` — co-scheduled
    /// I/O-intensive tasks saturate the node's NIC (§I). 0 = off.
    interference: f64,
    /// Hadoop-style speculative execution: when a chunk is hit by a
    /// straggler slowdown, a backup copy launches on the globally
    /// earliest-free slot; whichever finishes first wins, the loser is
    /// killed and billed for the cycles it burned. Only meaningful with
    /// stragglers enabled.
    speculation: bool,
    /// Scripted cluster faults, replayed through the event loop.
    faults: Option<FaultPlan>,
    /// Hard event cap (runaway guard); default scales with workload size.
    pub max_events: usize,
}

/// One dispatched, not-yet-finished chunk — everything needed to unwind it
/// if its machine is revoked.
struct RunningChunk {
    chunk: Chunk,
    machine: MachineId,
    start: Time,
    end: Time,
    /// CPU dollars billed at dispatch (at the dispatch-time price).
    cpu_dollars: f64,
}

/// The engine's own state for one run, around the shared [`Executor`].
struct Run {
    /// The cluster the run actually sees: faults mutate this copy
    /// (revocation zeroes `tp_ecu`, repricing moves `cpu_cost`), so every
    /// scheduler decision and every bill reflects the surviving topology.
    live: Cluster,
    exec: Executor,
    machines: Vec<MachineState>,
    events: EventQueue,
    stragglers: Option<(rand_chacha::ChaCha8Rng, StragglerModel)>,
    interference: f64,
    speculation: bool,
    /// In-flight chunks by id; a `ChunkDone` whose id is absent was killed.
    /// Ordered so revocation kills victims in chunk-id order.
    running: BTreeMap<u64, RunningChunk>,
    next_chunk: u64,
    /// Objects that lost a replica to a store loss (moves of these count
    /// as re-replication traffic).
    lost_data: BTreeSet<DataId>,
    /// Original `tp_ecu` of currently revoked machines.
    revoked_ecu: BTreeMap<MachineId, f64>,
}

impl<'a> Simulation<'a> {
    pub fn new(cluster: &'a Cluster, workload: &'a BoundWorkload) -> Self {
        let max_events = 200_000 + 2_000 * workload.jobs.len();
        Simulation {
            cluster,
            workload,
            initial_placement: None,
            stragglers: None,
            interference: 0.0,
            speculation: false,
            faults: None,
            max_events,
        }
    }

    /// Replay a [`FaultPlan`] during the run: machines get revoked (their
    /// in-flight chunks killed, the work returned to the queue) and may
    /// rejoin, stores lose their replicas, prices move. Incompatible with
    /// speculation (the paper disables speculation for LiPS; combining the
    /// two would need kill-ordering rules this engine does not define).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable speculative execution (see the field docs). The paper
    /// disables this for LiPS because duplicate copies "will only result
    /// in additional unnecessary cost" — this switch lets you measure
    /// exactly that.
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Enable network-interference modeling: each busy sibling slot at a
    /// chunk's start inflates its read time by `factor` (e.g. 0.5 → two
    /// concurrent readers each run 1.5× slower on the wire).
    pub fn with_interference(mut self, factor: f64) -> Self {
        assert!(factor >= 0.0);
        self.interference = factor;
        self
    }

    /// Inject stragglers: each chunk independently runs `slowdown`× slower
    /// with probability `prob` (seeded, deterministic).
    pub fn with_stragglers(mut self, prob: f64, slowdown: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob) && slowdown >= 1.0);
        self.stragglers = Some(StragglerModel {
            prob,
            slowdown,
            seed,
        });
        self
    }

    /// Start from an explicit placement (e.g.
    /// [`Placement::spread_blocks`]) instead of the catalog origins.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.initial_placement = Some(placement);
        self
    }

    /// Execute the workload under `scheduler` and return the report.
    pub fn run(&self, scheduler: &mut dyn Scheduler) -> Result<SimReport, SimError> {
        assert!(
            !(self.speculation && self.faults.is_some()),
            "speculation and fault injection are mutually exclusive"
        );
        let cluster = self.cluster;
        let placement = self
            .initial_placement
            .clone()
            .unwrap_or_else(|| Placement::from_cluster(cluster));
        let mut run = Run {
            live: cluster.clone(),
            exec: Executor::new(placement),
            machines: cluster.machines.iter().map(MachineState::new).collect(),
            events: EventQueue::new(),
            stragglers: self.stragglers.map(|m| {
                use rand::SeedableRng;
                (rand_chacha::ChaCha8Rng::seed_from_u64(m.seed), m)
            }),
            interference: self.interference,
            speculation: self.speculation,
            running: BTreeMap::new(),
            next_chunk: 0,
            lost_data: BTreeSet::new(),
            revoked_ecu: BTreeMap::new(),
        };
        // Synthetic data ids for shuffle outputs start above the catalog.
        let shuffle_data_base = cluster.num_data();

        let specs: BTreeMap<JobId, &lips_workload::JobSpec> =
            self.workload.jobs.iter().map(|j| (j.id, j)).collect();
        let mut arrivals_pending = 0usize;
        for job in &self.workload.jobs {
            run.events
                .push(job.arrival_s, EventKind::JobArrival(job.id));
            arrivals_pending += 1;
        }
        if let Some(plan) = &self.faults {
            for &(time, fe) in plan.events() {
                run.events.push(time, EventKind::Fault(fe));
            }
        }
        let epoch = scheduler.epoch();
        if let Some(e) = epoch {
            if e <= 0.0 {
                return Err(SimError::BadEpoch);
            }
            // First decision at t = 0 (arrivals at t = 0 are queued first
            // because they were pushed first); later decisions every `e`.
            run.events.push(0.0, EventKind::EpochTick);
        }

        let mut makespan: Time = 0.0;
        let mut processed = 0usize;

        while let Some(ev) = run.events.pop() {
            processed += 1;
            if processed > self.max_events {
                return Err(SimError::ActionLoop);
            }
            let now = ev.time;
            match ev.kind {
                EventKind::JobArrival(id) => {
                    arrivals_pending -= 1;
                    run.exec.admit(PendingJob::from_spec(specs[&id]));
                    // A degenerate zero-work job settles at once.
                    run.exec
                        .settle(&run.live, id, 0, now, DataId(shuffle_data_base + id.0));
                }
                EventKind::ChunkDone { job, chunk, .. } => {
                    if run.running.remove(&chunk).is_none() {
                        // The chunk was killed by a revocation before it
                        // finished: its work is already back in the queue
                        // and no state changed — skip the stale completion.
                        continue;
                    }
                    makespan = makespan.max(now);
                    run.exec
                        .settle(&run.live, job, 1, now, DataId(shuffle_data_base + job.0));
                }
                EventKind::MoveDone { .. } => {
                    makespan = makespan.max(now);
                }
                EventKind::EpochTick => {}
                EventKind::Fault(fe) => run.fault(fe, now)?,
            }

            // Decision point. Event-driven schedulers react to everything;
            // epoch schedulers only to their tick.
            let is_tick = matches!(ev.kind, EventKind::EpochTick);
            if epoch.is_none() || is_tick {
                // Let event-driven schedulers fill multiple slots: re-invoke
                // until they go quiet (bounded).
                for round in 0.. {
                    if round > 10_000 {
                        return Err(SimError::ActionLoop);
                    }
                    let actions = {
                        let ctx = SchedulerContext {
                            now,
                            cluster: &run.live,
                            placement: run.exec.placement(),
                            queue: run.exec.queue(),
                            machines: &run.machines,
                            reads_used: run.exec.reads_used(),
                        };
                        scheduler.decide(&ctx)
                    };
                    if actions.is_empty() {
                        break;
                    }
                    for action in actions {
                        run.apply(action, now)?;
                    }
                    if epoch.is_some() {
                        break; // epoch schedulers decide once per tick
                    }
                }
            }

            if is_tick {
                let work_left =
                    !run.exec.queue().is_empty() || arrivals_pending > 0 || !run.running.is_empty();
                if work_left {
                    // Re-query: adaptive schedulers may change their epoch
                    // between ticks (§V-B).
                    match scheduler.epoch() {
                        Some(next) if next > 0.0 => {
                            run.events.push(now + next, EventKind::EpochTick);
                        }
                        _ => return Err(SimError::BadEpoch),
                    }
                }
            }
        }

        let Executor {
            placement,
            queue,
            mut metrics,
            outcomes,
            ..
        } = run.exec;
        if !queue.is_empty() {
            return Err(SimError::Stalled {
                unfinished: queue.len(),
            });
        }
        metrics.faults.degraded_epochs = scheduler.degraded_epochs();
        Ok(SimReport {
            scheduler: scheduler.name().to_string(),
            metrics,
            outcomes,
            makespan,
            events: processed,
            final_placement: placement,
        })
    }
}

impl Run {
    /// Replay one scripted fault at `now`.
    fn fault(&mut self, fe: FaultEvent, now: Time) -> Result<(), SimError> {
        let faults = &mut self.exec.metrics.faults;
        match fe {
            FaultEvent::RevokeMachine { machine } => {
                if self.live.machines[machine.0].tp_ecu > 0.0 {
                    self.revoked_ecu
                        .insert(machine, self.live.machines[machine.0].tp_ecu);
                    self.live.machines[machine.0].tp_ecu = 0.0;
                    faults.revocations += 1;
                    // Kill every in-flight chunk on the machine: the burned
                    // fraction stays billed (the provider charged for it)
                    // but the partial output is lost, so the whole chunk's
                    // work goes back to the queue and its read budget is
                    // refunded.
                    let victims: Vec<u64> = self
                        .running
                        .iter()
                        .filter(|(_, c)| c.machine == machine)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in victims {
                        let Some(c) = self.running.remove(&id) else {
                            continue;
                        };
                        let dur = c.end - c.start;
                        let frac = if dur > 0.0 {
                            ((now - c.start) / dur).clamp(0.0, 1.0)
                        } else {
                            1.0
                        };
                        let metrics = &mut self.exec.metrics;
                        metrics.refund_chunk(
                            machine,
                            c.chunk.ecu * (1.0 - frac),
                            (c.end - now).max(0.0),
                            c.cpu_dollars * (1.0 - frac),
                        );
                        metrics.faults.killed_chunks += 1;
                        metrics.faults.lost_ecu_sec += c.chunk.ecu * frac;
                        self.exec.revert_chunk(&c.chunk, machine)?;
                    }
                    self.machines[machine.0].release_all(now);
                }
            }
            FaultEvent::RejoinMachine { machine } => {
                if let Some(tp) = self.revoked_ecu.remove(&machine) {
                    self.live.machines[machine.0].tp_ecu = tp;
                    faults.rejoins += 1;
                }
            }
            FaultEvent::LoseStore { store } => {
                let dropped = self.exec.placement.drop_store(store);
                // The store's read ledger dies with its contents: replicas
                // copied there later are readable afresh.
                self.exec.reads_used.retain(|&(_, s), _| s != store);
                let metrics = &mut self.exec.metrics;
                metrics.faults.store_losses += 1;
                for &(data, mb) in &dropped {
                    metrics.faults.lost_store_mb += mb;
                    self.lost_data.insert(data);
                }
            }
            FaultEvent::Reprice { machine, cpu_cost } => {
                self.live.machines[machine.0].cpu_cost = cpu_cost;
                faults.repricings += 1;
            }
        }
        Ok(())
    }

    /// Validate and apply one scheduler action at `now`.
    fn apply(&mut self, action: Action, now: Time) -> Result<(), SimError> {
        match action {
            Action::MoveData { data, from, to, mb } => {
                let live = &self.live;
                let landed = self.exec.move_data(live, data, from, to, mb, |p| {
                    p.ready_at(data, from).max(now) + mb / live.bandwidth_store_store(from, to)
                })?;
                if let Some(ready) = landed {
                    if self.lost_data.contains(&data) {
                        // Re-replication traffic: this object lost a
                        // replica to a store failure and is being copied
                        // again.
                        self.exec.metrics.faults.recopied_mb += mb;
                    }
                    self.events.push(ready, EventKind::MoveDone { data, to });
                }
                Ok(())
            }
            Action::RunChunk {
                job,
                machine,
                source,
                mb,
                fixed_ecu,
            } => {
                if let Some(chunk) = self
                    .exec
                    .check_chunk(&self.live, job, machine, source, mb, fixed_ecu)?
                {
                    self.run_chunk(&chunk, machine, now);
                }
                Ok(())
            }
        }
    }

    /// Time a checked chunk on `machine` (or on a speculative backup that
    /// beats it), start it in the executor and schedule its completion.
    fn run_chunk(&mut self, chunk: &Chunk, machine: MachineId, now: Time) {
        let cluster = &self.live;
        let machines = &mut self.machines;
        let (job, mb, ecu) = (chunk.job, chunk.mb, chunk.ecu);
        let start_floor = now.max(chunk.ready_at);
        let mut transfer_time = chunk.read.map_or(0.0, |(_, src)| {
            mb / cluster.bandwidth_machine_store(machine, src)
        });
        let m = cluster.machine(machine);
        let (slot, free_at) = machines[machine.0].earliest_slot();
        let start = start_floor.max(free_at);
        if self.interference > 0.0 && transfer_time > 0.0 {
            // Siblings still busy when this chunk starts contend for the
            // node's NIC.
            let busy = machines[machine.0].busy_slots(start);
            transfer_time *= 1.0 + self.interference * busy as f64;
        }
        let mut compute_time = m.slot_seconds_for(ecu);
        let mut straggled = false;
        if let Some((rng, model)) = &mut self.stragglers {
            use rand::Rng;
            if rng.gen_bool(model.prob) {
                compute_time *= model.slowdown;
                straggled = true;
            }
        }
        let end = start + transfer_time + compute_time;

        // Speculative execution: back up straggling chunks on the globally
        // earliest-free slot; the first finisher wins and the loser is
        // killed (its burned cycles are still billed).
        let backup = if self.speculation && straggled {
            (0..machines.len())
                .filter(|&i| i != machine.0)
                .min_by(|&a, &b| {
                    machines[a]
                        .earliest_slot()
                        .1
                        .total_cmp(&machines[b].earliest_slot().1)
                })
        } else {
            None
        };
        let mut winner = (machine, slot, start, end);
        if let Some(bi) = backup {
            let bm = cluster.machine(MachineId(bi));
            let (bslot, bfree) = machines[bi].earliest_slot();
            let bstart = start_floor.max(bfree);
            // The backup re-reads the data (billed again) and computes at
            // clean speed.
            let btransfer = chunk.read.map_or(0.0, |(_, src)| {
                mb / cluster.bandwidth_machine_store(bm.id, src)
            });
            let bend = bstart + btransfer + bm.slot_seconds_for(ecu);
            let metrics = &mut self.exec.metrics;
            if bend < end {
                // Backup wins. If it finishes before the original's slot
                // even frees, the original is never launched; otherwise it
                // is killed at `bend` and billed for the work it completed.
                if bend > start {
                    let ran = (bend - start).clamp(0.0, end - start);
                    let frac = if end > start {
                        ran / (end - start)
                    } else {
                        1.0
                    };
                    machines[machine.0].occupy(slot, bend);
                    metrics.record_chunk(
                        machine,
                        ecu * frac,
                        ran,
                        m.cpu_dollars(ecu * frac),
                        chunk.read_dollars(cluster, machine),
                        0.0,
                        chunk.locality,
                    );
                }
                winner = (bm.id, bslot, bstart, bend);
            } else {
                // Original wins: the backup burns until `end` then is
                // killed; bill its partial work.
                let ran = (end - bstart).clamp(0.0, bend - bstart);
                let frac = if bend > bstart {
                    ran / (bend - bstart)
                } else {
                    0.0
                };
                machines[bi].occupy(bslot, end.max(bfree));
                metrics.record_chunk(
                    bm.id,
                    ecu * frac,
                    ran,
                    bm.cpu_dollars(ecu * frac),
                    chunk.read_dollars(cluster, bm.id),
                    0.0,
                    chunk.locality,
                );
            }
        }
        let (machine, slot, start, end) = winner;
        machines[machine.0].occupy(slot, end);
        let cpu_dollars = self.exec.start_chunk(cluster, chunk, machine, end - start);
        let id = self.next_chunk;
        self.next_chunk += 1;
        self.running.insert(
            id,
            RunningChunk {
                chunk: *chunk,
                machine,
                start,
                end,
                cpu_dollars,
            },
        );
        self.events.push(
            end,
            EventKind::ChunkDone {
                job,
                machine,
                slot,
                chunk: id,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{ec2_20_node, MachineId};
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    /// Minimal greedy policy for engine tests: first job with work goes to
    /// the machine co-located with its data (or machine 0), one natural
    /// task per free slot.
    struct LocalGreedy;

    impl Scheduler for LocalGreedy {
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
            let mut actions = Vec::new();
            for j in ctx.jobs_with_work() {
                if let Some(data) = j.data {
                    // Read from wherever the data is.
                    let (store, _) = ctx.placement.stores_of(data)[0];
                    let machine = ctx.cluster.store(store).colocated.unwrap_or(MachineId(0));
                    if ctx.machines[machine.0].free_slots(ctx.now) == 0 {
                        continue;
                    }
                    let mb = j.task_mb.min(j.remaining_mb);
                    actions.push(Action::RunChunk {
                        job: j.id,
                        machine,
                        source: Some(store),
                        mb,
                        fixed_ecu: 0.0,
                    });
                    return actions; // one action per invocation: re-invoked until quiet
                } else {
                    let machine = MachineId(j.id.0 % ctx.cluster.num_machines());
                    if ctx.machines[machine.0].free_slots(ctx.now) == 0 {
                        continue;
                    }
                    let ecu = j.task_fixed_ecu.min(j.remaining_fixed_ecu);
                    actions.push(Action::RunChunk {
                        job: j.id,
                        machine,
                        source: None,
                        mb: 0.0,
                        fixed_ecu: ecu,
                    });
                    return actions;
                }
            }
            actions
        }
        fn name(&self) -> &str {
            "local-greedy"
        }
    }

    fn run_simple(jobs: Vec<JobSpec>) -> SimReport {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap()
    }

    #[test]
    fn single_job_completes_with_costs() {
        let r = run_simple(vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)]);
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.makespan > 0.0);
        assert!(r.metrics.cpu_dollars > 0.0);
        // All reads node-local -> no read dollars.
        assert_eq!(r.metrics.read_dollars, 0.0);
        assert_eq!(r.metrics.chunks_by_locality[0], 10);
        assert!((r.metrics.locality_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pi_job_runs_without_data() {
        let r = run_simple(vec![JobSpec::new(0, "pi", JobKind::Pi, 0.0, 4)]);
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.metrics.inputless_chunks, 4);
        assert_eq!(r.metrics.remote_read_mb, 0.0);
    }

    #[test]
    fn cpu_billing_matches_work() {
        // One grep, 640 MB at 20/64 ECU-s/MB = 200 ECU-s total.
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let r = Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap();
        let total_ecu: f64 = r.metrics.ecu_sec_by_machine.values().sum();
        assert!((total_ecu - 200.0).abs() < 1e-6);
        // All chunks ran on one machine at its price.
        let (mid, _) = r.metrics.ecu_sec_by_machine.iter().next().unwrap();
        let expect = cluster.machine(*mid).cpu_dollars(200.0);
        assert!((r.metrics.cpu_dollars - expect).abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_honored() {
        let jobs = vec![
            JobSpec::new(0, "a", JobKind::Grep, 64.0, 1),
            JobSpec::new(1, "b", JobKind::Grep, 64.0, 1).arriving_at(500.0),
        ];
        let r = run_simple(jobs);
        let b = r.outcomes.iter().find(|o| o.id == JobId(1)).unwrap();
        assert!(b.arrival >= 500.0);
        assert!(b.completed > 500.0);
    }

    #[test]
    fn stalled_scheduler_is_detected() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn decide(&mut self, _: &SchedulerContext<'_>) -> Vec<Action> {
                Vec::new()
            }
            fn name(&self) -> &str {
                "lazy"
            }
        }
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 64.0, 1)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let err = Simulation::new(&cluster, &workload)
            .run(&mut Lazy)
            .unwrap_err();
        assert_eq!(err, SimError::Stalled { unfinished: 1 });
    }

    #[test]
    fn over_assignment_rejected() {
        struct Greedy;
        impl Scheduler for Greedy {
            fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
                ctx.jobs_with_work()
                    .map(|j| Action::RunChunk {
                        job: j.id,
                        machine: MachineId(0),
                        source: Some(StoreId(0)),
                        mb: j.remaining_mb * 2.0, // too much
                        fixed_ecu: 0.0,
                    })
                    .collect()
            }
            fn name(&self) -> &str {
                "bad"
            }
        }
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 64.0, 1)];
        let workload = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let err = Simulation::new(&cluster, &workload)
            .run(&mut Greedy)
            .unwrap_err();
        assert_eq!(err, SimError::OverAssignment(JobId(0)));
    }

    #[test]
    fn reading_from_empty_store_rejected() {
        struct WrongSource;
        impl Scheduler for WrongSource {
            fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
                ctx.jobs_with_work()
                    .take(1)
                    .map(|j| Action::RunChunk {
                        job: j.id,
                        machine: MachineId(0),
                        source: Some(StoreId(19)), // data is on store 0
                        mb: j.remaining_mb,
                        fixed_ecu: 0.0,
                    })
                    .collect()
            }
            fn name(&self) -> &str {
                "wrong-source"
            }
        }
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 64.0, 1)];
        let workload = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let err = Simulation::new(&cluster, &workload)
            .run(&mut WrongSource)
            .unwrap_err();
        assert!(matches!(err, SimError::MissingData { .. }));
    }

    #[test]
    fn move_then_read_waits_for_arrival() {
        // Move the data cross-zone, then read it at the destination; the
        // read must start after the move completes.
        struct MoveThenRun {
            moved: bool,
        }
        impl Scheduler for MoveThenRun {
            fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
                let Some(j) = ctx.jobs_with_work().next() else {
                    return vec![];
                };
                let data = j.data.unwrap();
                if !self.moved {
                    self.moved = true;
                    return vec![Action::MoveData {
                        data,
                        from: StoreId(0),
                        to: StoreId(1), // zone b (machines round-robin zones)
                        mb: 64.0,
                    }];
                }
                if ctx.placement.amount(data, StoreId(1)) > 0.0 {
                    return vec![Action::RunChunk {
                        job: j.id,
                        machine: MachineId(1),
                        source: Some(StoreId(1)),
                        mb: j.remaining_mb,
                        fixed_ecu: 0.0,
                    }];
                }
                vec![]
            }
            fn name(&self) -> &str {
                "move-then-run"
            }
        }
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 64.0, 1)];
        let workload = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let r = Simulation::new(&cluster, &workload)
            .run(&mut MoveThenRun { moved: false })
            .unwrap();
        // Move was billed (stores 0 and 1 are in different zones).
        assert!(r.metrics.move_dollars > 0.0);
        assert_eq!(r.metrics.moved_mb, 64.0);
        // The chunk could not start before the move's completion:
        // move takes 64 MB / cross-zone bandwidth ≈ 2.05 s.
        let move_time = 64.0 / cluster.bandwidth_store_store(StoreId(0), StoreId(1));
        assert!(r.makespan > move_time);
        // Read at destination was node-local: no read dollars.
        assert_eq!(r.metrics.read_dollars, 0.0);
        assert_eq!(r.metrics.chunks_by_locality[0], 1);
    }

    #[test]
    fn store_capacity_enforced() {
        struct BigMove;
        impl Scheduler for BigMove {
            fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
                let Some(j) = ctx.jobs_with_work().next() else {
                    return vec![];
                };
                vec![Action::MoveData {
                    data: j.data.unwrap(),
                    from: StoreId(0),
                    to: StoreId(1),
                    mb: 64.0,
                }]
            }
            fn name(&self) -> &str {
                "big-move"
            }
        }
        let mut cluster = ec2_20_node(0.0, 3600.0);
        cluster.stores[1].capacity_mb = 10.0; // too small
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 64.0, 1)];
        let workload = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let err = Simulation::new(&cluster, &workload)
            .run(&mut BigMove)
            .unwrap_err();
        assert!(matches!(err, SimError::StoreOverflow { .. }));
    }

    #[test]
    fn makespan_equals_last_completion() {
        let r = run_simple(vec![
            JobSpec::new(0, "a", JobKind::Grep, 640.0, 10),
            JobSpec::new(1, "b", JobKind::Stress2, 640.0, 10),
        ]);
        let last = r
            .outcomes
            .iter()
            .map(|o| o.completed)
            .fold(0.0f64, f64::max);
        assert!((r.makespan - last).abs() < 1e-9);
    }

    #[test]
    fn stragglers_slow_the_run_but_not_the_bill() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 1280.0, 20)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let base = Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap();
        let slow = Simulation::new(&cluster, &workload)
            .with_stragglers(1.0, 4.0, 9)
            .run(&mut LocalGreedy)
            .unwrap();
        assert!(
            slow.makespan > base.makespan * 2.0,
            "{} vs {}",
            slow.makespan,
            base.makespan
        );
        // Work-based billing is unchanged.
        assert!((slow.metrics.total_dollars() - base.metrics.total_dollars()).abs() < 1e-12);
    }

    #[test]
    fn straggler_injection_is_deterministic() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 1280.0, 20)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let a = Simulation::new(&cluster, &workload)
            .with_stragglers(0.5, 3.0, 42)
            .run(&mut LocalGreedy)
            .unwrap();
        let b = Simulation::new(&cluster, &workload)
            .with_stragglers(0.5, 3.0, 42)
            .run(&mut LocalGreedy)
            .unwrap();
        assert_eq!(a.makespan, b.makespan);
        let c = Simulation::new(&cluster, &workload)
            .with_stragglers(0.5, 3.0, 43)
            .run(&mut LocalGreedy)
            .unwrap();
        assert_ne!(a.makespan, c.makespan);
    }

    #[test]
    fn final_placement_reflects_moves() {
        struct MoveOnly {
            done: bool,
        }
        impl Scheduler for MoveOnly {
            fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
                let Some(j) = ctx.jobs_with_work().next() else {
                    return vec![];
                };
                let data = j.data.unwrap();
                if !self.done {
                    self.done = true;
                    return vec![Action::MoveData {
                        data,
                        from: StoreId(0),
                        to: StoreId(2),
                        mb: 32.0,
                    }];
                }
                vec![Action::RunChunk {
                    job: j.id,
                    machine: MachineId(0),
                    source: Some(StoreId(0)),
                    mb: j.remaining_mb,
                    fixed_ecu: 0.0,
                }]
            }
            fn name(&self) -> &str {
                "move-only"
            }
        }
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 64.0, 1)];
        let workload = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let r = Simulation::new(&cluster, &workload)
            .run(&mut MoveOnly { done: false })
            .unwrap();
        let d = workload.jobs[0].data.unwrap();
        assert_eq!(r.final_placement.amount(d, StoreId(2)), 32.0);
        assert_eq!(r.final_placement.amount(d, StoreId(0)), 64.0);
    }

    #[test]
    fn interference_inflates_read_time_only() {
        // A 2-slot c1.medium reading two chunks concurrently: with
        // interference each read contends with the sibling.
        let mut cluster = lips_cluster::ec2_mixed_cluster(1, 1.0, 3600.0, 1);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 128.0, 2)];
        let workload = bind_workload(
            &mut cluster,
            jobs,
            PlacementPolicy::SingleStore(StoreId(0)),
            1,
        );
        let clean = Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap();
        let noisy = Simulation::new(&cluster, &workload)
            .with_interference(1.0)
            .run(&mut LocalGreedy)
            .unwrap();
        assert!(
            noisy.makespan > clean.makespan,
            "{} vs {}",
            noisy.makespan,
            clean.makespan
        );
        // Billing is untouched by contention.
        assert_eq!(noisy.metrics.total_dollars(), clean.metrics.total_dollars());
    }

    #[test]
    fn zero_interference_is_identity() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let a = Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap();
        let b = Simulation::new(&cluster, &workload)
            .with_interference(0.0)
            .run(&mut LocalGreedy)
            .unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn reduce_phase_runs_after_maps_and_is_billed() {
        // WordCount with a reduce: 640 MB maps (200 ECU-s at grep tcp...
        // actually WordCount 90/64), shuffle 128 MB at 0.5 ECU-s/MB.
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs =
            vec![JobSpec::new(0, "wc", JobKind::WordCount, 640.0, 10).with_reduce(4, 128.0, 0.5)];
        let map_ecu = 640.0 * 90.0 / 64.0;
        let reduce_ecu = 128.0 * 0.5;
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let r = Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap();
        assert_eq!(r.outcomes.len(), 1);
        let executed: f64 = r.metrics.ecu_sec_by_machine.values().sum();
        assert!(
            (executed - (map_ecu + reduce_ecu)).abs() < 1e-6,
            "executed {executed} vs {}",
            map_ecu + reduce_ecu
        );
        // The shuffle object landed in the placement.
        let shuffle = DataId(cluster.num_data());
        let total_shuffle: f64 = r
            .final_placement
            .stores_of(shuffle)
            .iter()
            .map(|&(_, mb)| mb)
            .sum();
        assert!(
            (total_shuffle - 128.0).abs() < 1e-6,
            "shuffle {total_shuffle}"
        );
    }

    #[test]
    fn map_only_jobs_are_unaffected_by_reduce_support() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let r = Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap();
        let executed: f64 = r.metrics.ecu_sec_by_machine.values().sum();
        assert!((executed - 200.0).abs() < 1e-6);
    }

    #[test]
    fn reduce_completion_time_is_after_map_completion() {
        let _cluster = ec2_20_node(0.0, 3600.0);
        let with_reduce =
            vec![JobSpec::new(0, "wc", JobKind::WordCount, 640.0, 10).with_reduce(2, 640.0, 1.0)];
        let map_only = vec![JobSpec::new(0, "wc", JobKind::WordCount, 640.0, 10)];
        let mut c1 = ec2_20_node(0.0, 3600.0);
        let w1 = bind_workload(&mut c1, with_reduce, PlacementPolicy::RoundRobin, 1);
        let mut c2 = ec2_20_node(0.0, 3600.0);
        let w2 = bind_workload(&mut c2, map_only, PlacementPolicy::RoundRobin, 1);
        let r1 = Simulation::new(&c1, &w1).run(&mut LocalGreedy).unwrap();
        let r2 = Simulation::new(&c2, &w2).run(&mut LocalGreedy).unwrap();
        assert!(r1.makespan > r2.makespan);
    }

    #[test]
    fn speculation_trades_dollars_for_makespan_under_stragglers() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 2560.0, 40)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let base = Simulation::new(&cluster, &workload)
            .with_stragglers(0.3, 8.0, 5)
            .run(&mut LocalGreedy)
            .unwrap();
        let spec = Simulation::new(&cluster, &workload)
            .with_stragglers(0.3, 8.0, 5)
            .with_speculation(true)
            .run(&mut LocalGreedy)
            .unwrap();
        // The paper's §VI-A reasoning, quantified: speculative copies cost
        // extra dollars and buy completion time.
        assert!(
            spec.metrics.total_dollars() > base.metrics.total_dollars(),
            "spec {} vs base {}",
            spec.metrics.total_dollars(),
            base.metrics.total_dollars()
        );
        assert!(
            spec.makespan < base.makespan,
            "spec {} vs base {}",
            spec.makespan,
            base.makespan
        );
        assert_eq!(spec.outcomes.len(), 1);
    }

    #[test]
    fn speculation_without_stragglers_is_inert() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let a = Simulation::new(&cluster, &workload)
            .run(&mut LocalGreedy)
            .unwrap();
        let b = Simulation::new(&cluster, &workload)
            .with_speculation(true)
            .run(&mut LocalGreedy)
            .unwrap();
        assert_eq!(a.metrics.total_dollars(), b.metrics.total_dollars());
        assert_eq!(a.makespan, b.makespan);
    }
}
