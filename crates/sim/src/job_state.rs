//! Per-job runtime state: remaining divisible work and completion facts.

use lips_cluster::DataId;
use lips_workload::{JobId, JobPriority, JobSpec, ReduceSpec};

use crate::{Time, WORK_EPS};

/// Which phase of the MapReduce job is currently being scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    Map,
    Reduce,
}

/// A job in the simulator's queue (arrived, not yet finished).
#[derive(Debug, Clone)]
pub struct PendingJob {
    pub id: JobId,
    pub name: String,
    pub priority: JobPriority,
    pub pool: String,
    pub arrival: Time,
    /// Input object, if the job reads data.
    pub data: Option<DataId>,
    /// `TCP`: ECU-seconds per MB.
    pub tcp: f64,
    /// MB of input not yet assigned to any chunk.
    pub remaining_mb: f64,
    /// Fixed (input-less) ECU-seconds not yet assigned (Pi-style work).
    pub remaining_fixed_ecu: f64,
    /// Natural per-task input share, the rounding granularity (MB).
    pub task_mb: f64,
    /// Natural per-task fixed work (ECU-seconds).
    pub task_fixed_ecu: f64,
    /// Chunks currently executing.
    pub running_chunks: usize,
    /// Total chunks ever started (stats).
    pub chunks_started: usize,
    /// Current phase.
    pub phase: JobPhase,
    /// Reduce phase still to come (consumed on transition).
    pub reduce: Option<ReduceSpec>,
}

impl PendingJob {
    pub fn from_spec(spec: &JobSpec) -> Self {
        PendingJob {
            id: spec.id,
            name: spec.name.clone(),
            priority: spec.priority,
            pool: spec.pool.clone(),
            arrival: spec.arrival_s,
            data: spec.data,
            tcp: spec.tcp_ecu_sec_per_mb,
            remaining_mb: spec.effective_input_mb(),
            remaining_fixed_ecu: spec.ecu_sec_per_task * f64::from(spec.tasks),
            task_mb: spec.mb_per_task(),
            task_fixed_ecu: spec.ecu_sec_per_task,
            running_chunks: 0,
            chunks_started: 0,
            phase: JobPhase::Map,
            reduce: spec.reduce,
        }
    }

    /// Transition to the reduce phase `spec` (the job's pending
    /// [`PendingJob::reduce`], now consumed): the map outputs have
    /// materialized as `data` (placed by the engine where the maps ran);
    /// the job's remaining work becomes the shuffle consumption.
    pub fn enter_reduce(&mut self, spec: ReduceSpec, data: DataId) {
        self.reduce = None;
        debug_assert!(self.is_complete(), "maps must be done first");
        self.phase = JobPhase::Reduce;
        self.data = Some(data);
        self.tcp = spec.tcp_ecu_sec_per_mb;
        self.remaining_mb = spec.shuffle_mb;
        self.remaining_fixed_ecu = 0.0;
        self.task_mb = spec.shuffle_mb / f64::from(spec.tasks);
        self.task_fixed_ecu = 0.0;
    }

    /// Whether a reduce phase is still pending after the current work.
    pub fn has_pending_reduce(&self) -> bool {
        self.reduce.is_some()
    }

    /// Unassigned work remains?
    pub fn has_unassigned_work(&self) -> bool {
        self.remaining_mb > WORK_EPS || self.remaining_fixed_ecu > WORK_EPS
    }

    /// Fully done (nothing unassigned, nothing running)?
    pub fn is_complete(&self) -> bool {
        !self.has_unassigned_work() && self.running_chunks == 0
    }

    /// Total unassigned ECU-seconds.
    pub fn unassigned_ecu(&self) -> f64 {
        self.remaining_mb * self.tcp + self.remaining_fixed_ecu
    }

    /// Consume `mb` of input work and `fixed_ecu` of fixed work (called
    /// when a chunk is dispatched). Clamps tiny negative residue to zero.
    pub fn consume(&mut self, mb: f64, fixed_ecu: f64) {
        assert!(
            mb <= self.remaining_mb + WORK_EPS && fixed_ecu <= self.remaining_fixed_ecu + WORK_EPS,
            "over-consuming job {:?}: mb {mb}/{}, ecu {fixed_ecu}/{}",
            self.id,
            self.remaining_mb,
            self.remaining_fixed_ecu,
        );
        self.remaining_mb = (self.remaining_mb - mb).max(0.0);
        self.remaining_fixed_ecu = (self.remaining_fixed_ecu - fixed_ecu).max(0.0);
        self.running_chunks += 1;
        self.chunks_started += 1;
    }

    /// Inverse of [`PendingJob::consume`]: a dispatched chunk was killed
    /// (machine revoked) and its partial output lost, so the whole chunk's
    /// work returns to the unassigned pool. `chunks_started` is history and
    /// stays.
    pub fn restore(&mut self, mb: f64, fixed_ecu: f64) {
        assert!(
            self.running_chunks > 0,
            "restoring a chunk to job {:?} with none running",
            self.id
        );
        self.remaining_mb += mb;
        self.remaining_fixed_ecu += fixed_ecu;
        self.running_chunks -= 1;
    }
}

/// Completion record for a finished job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub id: JobId,
    pub name: String,
    pub pool: String,
    pub arrival: Time,
    pub completed: Time,
    pub chunks: usize,
}

impl JobOutcome {
    /// Wall-clock duration from arrival to completion.
    pub fn duration(&self) -> Time {
        self.completed - self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_workload::{JobKind, JobSpec};

    fn grep_job() -> PendingJob {
        PendingJob::from_spec(&JobSpec::new(0, "g", JobKind::Grep, 640.0, 10))
    }

    #[test]
    fn from_spec_fields() {
        let p = grep_job();
        assert_eq!(p.remaining_mb, 640.0);
        assert_eq!(p.remaining_fixed_ecu, 0.0);
        assert!((p.task_mb - 64.0).abs() < 1e-12);
        assert!(p.has_unassigned_work());
        assert!(!p.is_complete());
    }

    #[test]
    fn pi_job_has_fixed_work_only() {
        let p = PendingJob::from_spec(&JobSpec::new(1, "pi", JobKind::Pi, 0.0, 4));
        assert_eq!(p.remaining_mb, 0.0);
        assert!((p.remaining_fixed_ecu - 1600.0).abs() < 1e-9);
        assert!((p.unassigned_ecu() - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn consume_tracks_running() {
        let mut p = grep_job();
        p.consume(64.0, 0.0);
        assert!((p.remaining_mb - 576.0).abs() < 1e-9);
        assert_eq!(p.running_chunks, 1);
        assert_eq!(p.chunks_started, 1);
        assert!(!p.is_complete());
        p.remaining_mb = 0.0;
        assert!(!p.is_complete()); // still one chunk running
        p.running_chunks = 0;
        assert!(p.is_complete());
    }

    #[test]
    #[should_panic]
    fn over_consume_panics() {
        grep_job().consume(1000.0, 0.0);
    }

    #[test]
    fn restore_undoes_consume() {
        let mut p = grep_job();
        p.consume(64.0, 0.0);
        assert!((p.remaining_mb - 576.0).abs() < 1e-9);
        p.restore(64.0, 0.0);
        assert!((p.remaining_mb - 640.0).abs() < 1e-9);
        assert_eq!(p.running_chunks, 0);
        assert_eq!(p.chunks_started, 1); // history survives
        assert!(p.has_unassigned_work());
    }

    #[test]
    #[should_panic]
    fn restore_without_running_chunk_panics() {
        grep_job().restore(64.0, 0.0);
    }

    #[test]
    fn outcome_duration() {
        let o = JobOutcome {
            id: JobId(0),
            name: "x".into(),
            pool: "p".into(),
            arrival: 10.0,
            completed: 35.0,
            chunks: 3,
        };
        assert_eq!(o.duration(), 25.0);
    }

    #[test]
    fn reduce_transition_resets_work() {
        let spec = JobSpec::new(0, "wc", JobKind::WordCount, 640.0, 10).with_reduce(5, 100.0, 0.5);
        let mut p = PendingJob::from_spec(&spec);
        assert_eq!(p.phase, JobPhase::Map);
        assert!(p.has_pending_reduce());
        p.remaining_mb = 0.0;
        assert!(p.is_complete());
        p.enter_reduce(p.reduce.unwrap(), lips_cluster::DataId(99));
        assert_eq!(p.phase, JobPhase::Reduce);
        assert!(!p.has_pending_reduce());
        assert_eq!(p.remaining_mb, 100.0);
        assert_eq!(p.tcp, 0.5);
        assert_eq!(p.task_mb, 20.0);
        assert_eq!(p.data, Some(lips_cluster::DataId(99)));
        assert!(!p.is_complete());
    }
}
