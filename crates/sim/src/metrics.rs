//! Cost and performance metering — the quantities the paper's figures plot.

use std::collections::BTreeMap;

use lips_cluster::MachineId;

use crate::job_state::JobOutcome;
use crate::Time;

/// Aggregated simulation metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Dollars spent on CPU (ECU-seconds × per-node price).
    pub cpu_dollars: f64,
    /// Dollars spent on execution-time reads (machine ← store).
    pub read_dollars: f64,
    /// Dollars spent on placement moves (store → store).
    pub move_dollars: f64,
    /// ECU-seconds executed per machine. Ordered so every consumer
    /// (validators, reports) visits machines deterministically.
    pub ecu_sec_by_machine: BTreeMap<MachineId, f64>,
    /// Busy wall-clock seconds per machine (accumulated CPU time of
    /// Figure 11).
    pub busy_sec_by_machine: BTreeMap<MachineId, f64>,
    /// MB moved by placement actions.
    pub moved_mb: f64,
    /// MB read remotely (non-node-local) during execution.
    pub remote_read_mb: f64,
    /// Chunk counts by locality level (0 node-local, 1 zone, 2 remote).
    pub chunks_by_locality: [usize; 3],
    /// Chunks with no input at all (Pi).
    pub inputless_chunks: usize,
    /// Fault-injection counters (all zero on fault-free runs).
    pub faults: FaultMetrics,
}

/// What the cluster's failures cost the run (see [`crate::fault`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultMetrics {
    /// Machines revoked / rejoined / repriced, stores lost.
    pub revocations: usize,
    pub rejoins: usize,
    pub store_losses: usize,
    pub repricings: usize,
    /// In-flight chunks killed by revocations.
    pub killed_chunks: usize,
    /// ECU-seconds burned by killed chunks whose output was lost (billed
    /// but re-executed elsewhere).
    pub lost_ecu_sec: f64,
    /// MB of replicas dropped by store losses.
    pub lost_store_mb: f64,
    /// MB of lost objects copied again after their store died.
    pub recopied_mb: f64,
    /// Epochs the scheduler explicitly degraded to its greedy fallback
    /// (reported via [`crate::Scheduler::degraded_epochs`]).
    pub degraded_epochs: usize,
}

impl FaultMetrics {
    /// Any fault fired at all?
    pub fn any(&self) -> bool {
        self.revocations + self.rejoins + self.store_losses + self.repricings > 0
    }
}

impl Metrics {
    /// Total dollars (the paper's headline metric).
    pub fn total_dollars(&self) -> f64 {
        self.cpu_dollars + self.read_dollars + self.move_dollars
    }

    /// Transfer dollars only (reads + moves).
    pub fn transfer_dollars(&self) -> f64 {
        self.read_dollars + self.move_dollars
    }

    /// Chunks billed: every locality level plus the input-less ones (a
    /// killed speculative copy counts too).
    pub fn chunks(&self) -> usize {
        self.chunks_by_locality.iter().sum::<usize>() + self.inputless_chunks
    }

    /// Fraction of data-reading chunks that were node-local.
    pub fn locality_ratio(&self) -> f64 {
        let total: usize = self.chunks_by_locality.iter().sum();
        if total == 0 {
            return 1.0;
        }
        self.chunks_by_locality[0] as f64 / total as f64
    }

    /// Record one executed chunk.
    #[allow(clippy::too_many_arguments)] // a chunk simply has this many billing facets
    pub fn record_chunk(
        &mut self,
        machine: MachineId,
        ecu_sec: f64,
        busy_sec: f64,
        cpu_dollars: f64,
        read_dollars: f64,
        read_mb_remote: f64,
        locality: Option<u8>,
    ) {
        self.cpu_dollars += cpu_dollars;
        self.read_dollars += read_dollars;
        *self.ecu_sec_by_machine.entry(machine).or_default() += ecu_sec;
        *self.busy_sec_by_machine.entry(machine).or_default() += busy_sec;
        self.remote_read_mb += read_mb_remote;
        match locality {
            Some(l) => self.chunks_by_locality[l.min(2) as usize] += 1,
            None => self.inputless_chunks += 1,
        }
    }

    /// Record one placement move.
    pub fn record_move(&mut self, mb: f64, dollars: f64) {
        self.moved_mb += mb;
        self.move_dollars += dollars;
    }

    /// Refund the *unexecuted* share of a killed chunk: the dispatch-time
    /// bill covered the whole chunk, but a revocation at time `t` means
    /// only the fraction run by `t` was actually burned (and charged —
    /// matching how the speculation path bills a killed loser).
    pub fn refund_chunk(&mut self, machine: MachineId, ecu_sec: f64, busy_sec: f64, dollars: f64) {
        self.cpu_dollars -= dollars;
        if let Some(e) = self.ecu_sec_by_machine.get_mut(&machine) {
            *e = (*e - ecu_sec).max(0.0);
        }
        if let Some(b) = self.busy_sec_by_machine.get_mut(&machine) {
            *b = (*b - busy_sec).max(0.0);
        }
    }
}

/// Full simulation report: metrics plus per-job outcomes.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the scheduler that produced this run.
    pub scheduler: String,
    pub metrics: Metrics,
    /// Completion records, one per job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Time the last piece of work finished.
    pub makespan: Time,
    /// Total simulator events processed.
    pub events: usize,
    /// Data placement at the end of the run (original blocks plus every
    /// copy the scheduler made) — lets follow-up runs (e.g. DAG levels)
    /// start from where this one left off.
    pub final_placement: crate::placement::Placement,
}

impl SimReport {
    /// Sum of per-job durations ("total job execution time" as the paper
    /// plots it in Figures 7/8/10).
    pub fn total_job_duration(&self) -> f64 {
        self.outcomes
            .iter()
            .map(super::job_state::JobOutcome::duration)
            .sum()
    }

    /// Mean job duration.
    pub fn mean_job_duration(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.total_job_duration() / self.outcomes.len() as f64
    }

    /// Jain fairness index over per-pool aggregate received ECU-seconds…
    /// approximated by per-pool completed work share: 1 = perfectly fair.
    pub fn pool_fairness_jain(&self) -> f64 {
        let mut per_pool: BTreeMap<&str, f64> = BTreeMap::new();
        for o in &self.outcomes {
            *per_pool.entry(o.pool.as_str()).or_default() += o.chunks as f64;
        }
        let xs: Vec<f64> = per_pool.values().copied().collect();
        jain_index(&xs)
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`; 1.0 when all equal.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_workload::JobId;

    #[test]
    fn totals_add_up() {
        let mut m = Metrics::default();
        m.record_chunk(MachineId(0), 10.0, 5.0, 1.0, 0.5, 64.0, Some(2));
        m.record_chunk(MachineId(0), 10.0, 5.0, 1.0, 0.0, 0.0, Some(0));
        m.record_move(128.0, 0.25);
        assert!((m.total_dollars() - 2.75).abs() < 1e-12);
        assert!((m.transfer_dollars() - 0.75).abs() < 1e-12);
        assert_eq!(m.ecu_sec_by_machine[&MachineId(0)], 20.0);
        assert_eq!(m.busy_sec_by_machine[&MachineId(0)], 10.0);
        assert_eq!(m.chunks_by_locality, [1, 0, 1]);
        assert_eq!(m.moved_mb, 128.0);
    }

    #[test]
    fn refund_reverses_part_of_a_chunk() {
        let mut m = Metrics::default();
        m.record_chunk(MachineId(2), 100.0, 50.0, 4.0, 0.5, 0.0, Some(1));
        // Half the chunk ran before the kill: refund the other half.
        m.refund_chunk(MachineId(2), 50.0, 25.0, 2.0);
        assert!((m.cpu_dollars - 2.0).abs() < 1e-12);
        assert!((m.ecu_sec_by_machine[&MachineId(2)] - 50.0).abs() < 1e-12);
        assert!((m.busy_sec_by_machine[&MachineId(2)] - 25.0).abs() < 1e-12);
        // Read dollars are sunk and stay billed.
        assert!((m.read_dollars - 0.5).abs() < 1e-12);
        assert!(!m.faults.any());
    }

    #[test]
    fn locality_ratio() {
        let mut m = Metrics::default();
        assert_eq!(m.locality_ratio(), 1.0); // vacuous
        m.chunks_by_locality = [3, 1, 0];
        assert!((m.locality_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        let skew = jain_index(&[10.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12);
        let mid = jain_index(&[4.0, 2.0]);
        assert!(mid > 1.0 / 2.0 && mid < 1.0);
    }

    #[test]
    fn report_durations() {
        let outcome = |arr: f64, done: f64| JobOutcome {
            id: JobId(0),
            name: "j".into(),
            pool: "p".into(),
            arrival: arr,
            completed: done,
            chunks: 1,
        };
        let r = SimReport {
            scheduler: "test".into(),
            metrics: Metrics::default(),
            outcomes: vec![outcome(0.0, 10.0), outcome(5.0, 25.0)],
            makespan: 25.0,
            events: 42,
            final_placement: crate::placement::Placement::empty(),
        };
        assert_eq!(r.total_job_duration(), 30.0);
        assert_eq!(r.mean_job_duration(), 15.0);
    }
}
