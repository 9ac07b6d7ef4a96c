//! The `BENCH_serve.json` trajectory: long continuous-arrival daemon runs
//! with incremental re-solves.
//!
//! Each run seeds a [`lips_serve::Daemon`] with a couple hundred jobs
//! arriving over a long virtual horizon (a Poisson synthetic stream and a
//! Google-trace-shaped stream) and drives epochs until the target number
//! of *LP decision epochs* has been reached or the stream drains. The
//! acceptance story this artifact documents:
//!
//! * every LP epoch ends KKT-certified (the daemon inherits the
//!   scheduler's degradation-ladder guarantee), and
//! * at least 80 % of LP epochs are *incremental* — the carried
//!   column-generation master absorbed the new arrivals and the carried
//!   basis re-optimized (dual simplex first) instead of a cold rebuild.
//!
//! Queue-depth, completed-job latency, ladder-rung counts, and p50/p99
//! solve latency ride along in the summary, plus the full per-epoch serve
//! log for trend inspection.

use serde::Serialize;

use lips_cluster::ec2_mixed_cluster;
use lips_serve::{Daemon, ServeConfig, ServeEpochRecord, ServeSummary, TuneConfig};
use lips_workload::{
    assign_arrivals, google_records_to_jobs, google_synth, random_workload, ArrivalProcess,
    GoogleSynthCfg, JobSpec, RandomWorkloadCfg,
};

/// One continuous-arrival run.
#[derive(Debug, Clone, Serialize)]
pub struct ServeTrajectory {
    pub stream: String,
    pub nodes: usize,
    pub jobs: usize,
    pub seed: u64,
    pub horizon_s: f64,
    /// Daemon epochs advanced (idle epochs included).
    pub epochs_run: usize,
    /// LP decision epochs solved.
    pub lp_epochs: usize,
    pub all_certified: bool,
    pub incremental_share: f64,
    pub summary: ServeSummary,
    /// The full per-epoch serve log (queue depth, backlog, outcome,
    /// tuned epoch lengths).
    pub epochs: Vec<ServeEpochRecord>,
}

/// The whole artifact.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    pub config: String,
    pub runs: Vec<ServeTrajectory>,
}

fn stream_jobs(stream: &str, jobs: usize, horizon_s: f64, seed: u64) -> Vec<JobSpec> {
    match stream {
        "synth" => {
            let mut specs = random_workload(
                &RandomWorkloadCfg {
                    jobs,
                    ..Default::default()
                },
                seed,
            );
            assign_arrivals(&mut specs, ArrivalProcess::Poisson, horizon_s, seed);
            specs
        }
        "google" => {
            let records = google_synth(
                &GoogleSynthCfg {
                    jobs,
                    window_s: horizon_s,
                    ..Default::default()
                },
                seed,
            );
            google_records_to_jobs(&records)
        }
        other => panic!("unknown serve stream {other:?}"),
    }
}

/// Drive one continuous-arrival run until `target_lp_epochs` LP decision
/// epochs have been solved (or the stream drains), then drain the rest.
pub fn run_serve_trajectory(
    stream: &str,
    nodes: usize,
    jobs: usize,
    target_lp_epochs: usize,
    seed: u64,
) -> ServeTrajectory {
    // Horizon sized so arrivals trickle: roughly one to two jobs per
    // (untuned) epoch keeps the incumbent master warm with fresh columns.
    // The Google-shaped stream arrives in prod/batch bursts with dead air
    // between them; a tighter window keeps bursts overlapping so the
    // carried master still holds live columns when the next burst lands.
    let horizon_s = match stream {
        "google" => target_lp_epochs as f64 * 250.0,
        _ => target_lp_epochs as f64 * 400.0,
    };
    let config = ServeConfig {
        tuning: Some(TuneConfig::default()),
        ..Default::default()
    };
    let mut daemon = Daemon::new(ec2_mixed_cluster(nodes, 0.5, 1e9, seed), config);
    for spec in stream_jobs(stream, jobs, horizon_s, seed) {
        daemon.enqueue(spec);
    }
    // Epoch budget: tuning can stretch epochs (fewer boundaries per
    // arrival), so leave generous room over the LP-epoch target.
    let budget = target_lp_epochs * 4;
    while daemon.scheduler().solves() < target_lp_epochs {
        if daemon.queue_len() == 0 && daemon.pending_arrivals() == 0 {
            break;
        }
        if daemon.epochs_run() >= budget {
            break;
        }
        if daemon.queue_len() == 0 {
            // Fast-forward the idle gap to the next arrival.
            daemon.run_until_drained(1);
            continue;
        }
        daemon.run_epoch();
    }
    daemon.run_until_drained(budget.saturating_sub(daemon.epochs_run()));

    let summary = daemon.summary();
    ServeTrajectory {
        stream: stream.to_string(),
        nodes,
        jobs,
        seed,
        horizon_s,
        epochs_run: daemon.epochs_run(),
        lp_epochs: summary.solver.epochs,
        all_certified: summary.solver.certified_share == 1.0,
        incremental_share: summary.solver.incremental_share,
        summary,
        epochs: daemon.epoch_log().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_synth_trajectory_is_certified_and_incremental() {
        let t = run_serve_trajectory("synth", 12, 40, 30, 7);
        assert!(t.lp_epochs >= 20, "too few LP epochs: {}", t.lp_epochs);
        assert!(t.all_certified);
        assert!(
            t.incremental_share >= 0.8,
            "incremental share {}",
            t.incremental_share
        );
        assert_eq!(t.summary.queued, 0, "stream did not drain");
    }
}
