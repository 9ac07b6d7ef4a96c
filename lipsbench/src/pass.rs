//! What one timed pass over a workload produces, and the statistics the
//! benchmark derives from it.

use std::collections::BTreeMap;

use lips_core::EpochRecord;

/// The outcome of one pass: host timings, the program's own records, and
/// the virtual-time results the correctness gate compares bit for bit.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of the timed phase, the probe's own time taken out.
    pub timed_s: f64,
    /// Peak heap of the stream's set-up and pass, in MB (see `heap`).
    pub peak_heap_mb: f64,
    /// Host ms of every LP decision epoch (an epoch that appended an
    /// `EpochRecord`), in order.
    pub epoch_ms: Vec<f64>,
    /// The host-speed factor measured right after each of those epochs
    /// (see `host`).
    pub speed: Vec<f64>,
    pub submitted: usize,
    pub completed: usize,
    pub cpu_dollars: f64,
    pub read_dollars: f64,
    pub move_dollars: f64,
    /// The executor's own total, checked against cpu + read + move.
    pub total_dollars: f64,
    /// ECU-seconds of the jobs that completed.
    pub completed_ecu_s: f64,
    /// `(job id, arrival, completion)` in virtual seconds, by job id.
    pub outcomes: Vec<(usize, f64, f64)>,
    /// The scheduler's epoch records for this pass.
    pub records: Vec<EpochRecord>,
    /// Invariant or regime-guard failures found by the workload.
    pub violations: Vec<String>,
    /// Workload-specific per-layer numbers (serve.*, sim.*, ...).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Everything that must be bit-identical between two passes of one
    /// seed, at any solver width: dollars, job completions, and the LP
    /// objective of every epoch.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut f = vec![
            self.cpu_dollars.to_bits(),
            self.read_dollars.to_bits(),
            self.move_dollars.to_bits(),
            self.total_dollars.to_bits(),
            self.completed as u64,
        ];
        for &(id, arrival, done) in &self.outcomes {
            f.extend([id as u64, arrival.to_bits(), done.to_bits()]);
        }
        f.extend(self.records.iter().map(|r| r.objective.to_bits()));
        f
    }

    /// LP epoch times scaled to reference host speed, in ms.
    pub fn ref_epoch_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.epoch_ms.iter().zip(&self.speed).map(|(ms, f)| ms * f)
    }

    /// The timed phase at reference host speed, in seconds: each LP epoch
    /// scaled by its own speed factor, the rest of the pass by the pass's
    /// median factor.
    pub fn ref_timed_s(&self) -> f64 {
        let epochs_s = self.epoch_ms.iter().sum::<f64>() / 1e3;
        self.ref_epoch_ms().sum::<f64>() / 1e3 + (self.timed_s - epochs_s) * median(&self.speed)
    }

    pub fn lp_epochs(&self) -> usize {
        self.records.len()
    }

    pub fn certified_epochs(&self) -> usize {
        self.records.iter().filter(|r| r.certified).count()
    }

    pub fn incremental_share(&self) -> f64 {
        share(
            self.records.iter().filter(|r| r.incremental).count(),
            self.records.len(),
        )
    }

    /// Virtual seconds from arrival to billed completion, per completed job.
    pub fn latencies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|&(_, a, c)| c - a).collect()
    }

    /// The invariants every workload must meet: all LP epochs certified,
    /// every submitted job completed, the dollar ledger adds up, and at
    /// least `MIN_LP_EPOCHS` LP epochs.
    pub fn check_common(&mut self) {
        if self.certified_epochs() != self.lp_epochs() {
            self.violations.push(format!(
                "{} of {} LP epochs not certified",
                self.lp_epochs() - self.certified_epochs(),
                self.lp_epochs()
            ));
        }
        if self.completed != self.submitted {
            self.violations.push(format!(
                "{} of {} submitted jobs did not complete",
                self.submitted - self.completed,
                self.submitted
            ));
        }
        let parts = self.cpu_dollars + self.read_dollars + self.move_dollars;
        if (parts - self.total_dollars).abs() > 1e-9 * self.total_dollars.abs().max(1.0) {
            self.violations.push(format!(
                "cpu + read + move = {parts} but the total is {}",
                self.total_dollars
            ));
        }
        if self.lp_epochs() < MIN_LP_EPOCHS {
            self.violations.push(format!(
                "regime: {} LP epochs, fewer than {MIN_LP_EPOCHS}",
                self.lp_epochs()
            ));
        }
    }
}

/// Every workload must run at least this many LP epochs per pass, so that
/// at least ten epoch samples lie beyond p90.
pub const MIN_LP_EPOCHS: usize = 100;

pub fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Nearest-rank quantile (`0.0` for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
