//! Job specifications — the paper's set `J`.

use serde::{Deserialize, Serialize};

use lips_cluster::{DataId, BLOCK_MB};

use crate::kind::JobKind;

/// The reduce side of a job: after all map work completes, `tasks` reduce
/// tasks consume the map outputs (`shuffle_mb` in total, distributed where
/// the maps ran) at `tcp_ecu_sec_per_mb` of CPU per shuffled MB.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReduceSpec {
    pub tasks: u32,
    /// Total intermediate (shuffle) bytes in MB.
    pub shuffle_mb: f64,
    /// ECU-seconds of reduce CPU per shuffled MB.
    pub tcp_ecu_sec_per_mb: f64,
}

/// Most map or reduce tasks one job may declare: 65 536, a 4 TB input at
/// the 64 MB HDFS block size. Task counts set how finely the scheduler
/// cuts a job, and its per-epoch work grows with them, so inputs that
/// reach the scheduler from outside (the `lips-serve` control API) are
/// refused above this bound rather than stalling the daemon.
pub const MAX_TASKS_PER_JOB: u32 = 65_536;

/// Largest input or shuffle one job may declare, in MB: 4 TiB, the
/// [`MAX_TASKS_PER_JOB`] tasks of one 64 MB block each. A job's LP work
/// grows with its size as its task count does, so the `lips-serve`
/// control API refuses sizes above this bound for the same reason.
pub const MAX_JOB_MB: f64 = MAX_TASKS_PER_JOB as f64 * BLOCK_MB;

/// Index of a job within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub usize);

/// Hadoop's five FIFO priorities (the default scheduler drains higher
/// priorities first).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum JobPriority {
    VeryLow,
    Low,
    #[default]
    Normal,
    High,
    VeryHigh,
}

/// A MapReduce job: a bag of virtually identical, independent map tasks
/// over (a share of) one input data object.
///
/// Jobs are *divisible*: the LP schedules fractional portions `x^t_klm` of a
/// job and rounds to the minimum viable task size afterwards. `tasks` is the
/// job's natural task count (one per input block for data-driven jobs),
/// which also bounds rounding granularity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    pub id: JobId,
    pub name: String,
    pub kind: JobKind,
    /// Total input size in MB (0 for Pi).
    pub input_mb: f64,
    /// Natural number of map tasks.
    pub tasks: u32,
    /// `TCP`: ECU-seconds of CPU per MB of input.
    pub tcp_ecu_sec_per_mb: f64,
    /// Fixed ECU-seconds per task regardless of input (Pi).
    pub ecu_sec_per_task: f64,
    /// Fraction of the input object this job actually reads — the paper's
    /// fractional `JD_ij` ("ratio of the expected data traffic between
    /// J_i and D_j to the total size of D_j"). 1.0 = full scan.
    pub read_fraction: f64,
    /// Arrival time in seconds since experiment start (0 = offline).
    pub arrival_s: f64,
    pub priority: JobPriority,
    /// Fair-scheduler pool / submitting user.
    pub pool: String,
    /// The cluster data object holding this job's input, once bound.
    pub data: Option<DataId>,
    /// Optional reduce phase (None = map-only, the paper's accounting).
    pub reduce: Option<ReduceSpec>,
}

impl JobSpec {
    /// Build a job of `kind` with the kind's Table I intensity.
    pub fn new(
        id: usize,
        name: impl Into<String>,
        kind: JobKind,
        input_mb: f64,
        tasks: u32,
    ) -> Self {
        assert!(tasks > 0, "a job needs at least one task");
        assert!(input_mb >= 0.0);
        JobSpec {
            id: JobId(id),
            name: name.into(),
            kind,
            input_mb,
            tasks,
            tcp_ecu_sec_per_mb: kind.tcp_ecu_sec_per_mb(),
            ecu_sec_per_task: kind.ecu_sec_per_task(),
            read_fraction: 1.0,
            arrival_s: 0.0,
            priority: JobPriority::Normal,
            pool: "default".into(),
            data: None,
            reduce: None,
        }
    }

    /// Builder-style arrival time.
    pub fn arriving_at(mut self, t: f64) -> Self {
        self.arrival_s = t;
        self
    }

    /// Builder-style fractional data access (`JD_ij` ∈ (0, 1]): the job
    /// will only read this share of its input object.
    pub fn reading_fraction(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "read fraction must be in (0, 1]");
        self.read_fraction = f;
        self
    }

    /// MB of input this job actually reads (`Size(D) · JD`).
    pub fn effective_input_mb(&self) -> f64 {
        self.input_mb * self.read_fraction
    }

    /// Builder-style reduce phase: `tasks` reducers over `shuffle_mb` of
    /// intermediate data at `tcp` ECU-seconds per MB.
    pub fn with_reduce(mut self, tasks: u32, shuffle_mb: f64, tcp: f64) -> Self {
        assert!(tasks > 0 && shuffle_mb > 0.0 && tcp >= 0.0);
        self.reduce = Some(ReduceSpec {
            tasks,
            shuffle_mb,
            tcp_ecu_sec_per_mb: tcp,
        });
        self
    }

    /// Total ECU-seconds including the reduce phase.
    pub fn total_ecu_sec_with_reduce(&self) -> f64 {
        self.total_ecu_sec()
            + self
                .reduce
                .map_or(0.0, |r| r.shuffle_mb * r.tcp_ecu_sec_per_mb)
    }

    /// Builder-style priority.
    pub fn with_priority(mut self, p: JobPriority) -> Self {
        self.priority = p;
        self
    }

    /// Builder-style pool assignment.
    pub fn in_pool(mut self, pool: impl Into<String>) -> Self {
        self.pool = pool.into();
        self
    }

    /// `CPU(J)`: total ECU-seconds the whole job needs (CPU follows the
    /// bytes actually read).
    pub fn total_ecu_sec(&self) -> f64 {
        self.tcp_ecu_sec_per_mb * self.effective_input_mb()
            + self.ecu_sec_per_task * f64::from(self.tasks)
    }

    /// Input MB consumed by one natural task.
    pub fn mb_per_task(&self) -> f64 {
        self.effective_input_mb() / f64::from(self.tasks)
    }

    /// ECU-seconds one natural task needs.
    pub fn ecu_sec_per_natural_task(&self) -> f64 {
        self.total_ecu_sec() / f64::from(self.tasks)
    }

    /// Whether this job reads any input at all (Pi does not).
    pub fn reads_input(&self) -> bool {
        self.effective_input_mb() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grep_totals() {
        // 20 GB grep, 320 tasks: 20480 MB * 20/64 = 6400 ECU-s.
        let j = JobSpec::new(0, "grep", JobKind::Grep, 20.0 * 1024.0, 320);
        assert!((j.total_ecu_sec() - 6400.0).abs() < 1e-9);
        assert!((j.mb_per_task() - 64.0).abs() < 1e-9);
        assert!((j.ecu_sec_per_natural_task() - 20.0).abs() < 1e-9);
        assert!(j.reads_input());
    }

    #[test]
    fn pi_totals() {
        let j = JobSpec::new(0, "pi", JobKind::Pi, 0.0, 4);
        assert!((j.total_ecu_sec() - 1600.0).abs() < 1e-9);
        assert!(!j.reads_input());
        assert_eq!(j.mb_per_task(), 0.0);
    }

    #[test]
    fn builder_chain() {
        let j = JobSpec::new(1, "wc", JobKind::WordCount, 1024.0, 16)
            .arriving_at(42.0)
            .with_priority(JobPriority::High)
            .in_pool("analytics");
        assert_eq!(j.arrival_s, 42.0);
        assert_eq!(j.priority, JobPriority::High);
        assert_eq!(j.pool, "analytics");
    }

    #[test]
    fn priority_ordering() {
        assert!(JobPriority::VeryHigh > JobPriority::Normal);
        assert!(JobPriority::Normal > JobPriority::VeryLow);
        assert_eq!(JobPriority::default(), JobPriority::Normal);
    }

    #[test]
    #[should_panic]
    fn zero_tasks_rejected() {
        JobSpec::new(0, "bad", JobKind::Grep, 64.0, 0);
    }

    #[test]
    fn fractional_read_scales_work_and_traffic() {
        let j = JobSpec::new(0, "g", JobKind::Grep, 1024.0, 16).reading_fraction(0.25);
        assert!((j.effective_input_mb() - 256.0).abs() < 1e-12);
        assert!((j.total_ecu_sec() - 256.0 * 20.0 / 64.0).abs() < 1e-9);
        assert!((j.mb_per_task() - 16.0).abs() < 1e-12);
        assert!(j.reads_input());
    }

    #[test]
    fn default_read_fraction_is_full_scan() {
        let j = JobSpec::new(0, "g", JobKind::Grep, 1024.0, 16);
        assert_eq!(j.read_fraction, 1.0);
        assert_eq!(j.effective_input_mb(), j.input_mb);
    }

    #[test]
    #[should_panic]
    fn zero_read_fraction_rejected() {
        JobSpec::new(0, "g", JobKind::Grep, 1024.0, 16).reading_fraction(0.0);
    }

    #[test]
    fn reduce_spec_builder_and_totals() {
        let j = JobSpec::new(0, "wc", JobKind::WordCount, 1024.0, 16).with_reduce(4, 256.0, 0.5);
        let r = j.reduce.unwrap();
        assert_eq!(r.tasks, 4);
        assert_eq!(r.shuffle_mb, 256.0);
        let map_ecu = j.total_ecu_sec();
        assert!((j.total_ecu_sec_with_reduce() - (map_ecu + 128.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_shuffle_rejected() {
        JobSpec::new(0, "wc", JobKind::WordCount, 1024.0, 16).with_reduce(4, 0.0, 0.5);
    }
}
