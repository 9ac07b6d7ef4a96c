//! `/metrics`-style text rendering of daemon state.
//!
//! Prometheus exposition format (`# HELP` / `# TYPE` / samples), built
//! entirely from virtual-time state and the scheduler's per-epoch records
//! — no wall clocks beyond the solver's own gated [`lips_lp` stopwatch]
//! timings already captured in `PhaseTimings`.
//!
//! [`lips_lp` stopwatch]: lips_core::EpochRecord

use std::fmt::Write as _;

use lips_core::RunSummary;

use crate::daemon::Daemon;

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

fn counter(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Render the daemon's current state as Prometheus exposition text.
#[allow(clippy::cast_precision_loss)]
pub fn render(daemon: &Daemon) -> String {
    let s: RunSummary = RunSummary::from_records(daemon.scheduler().epoch_records());
    let mut out = String::new();

    gauge(
        &mut out,
        "lips_serve_virtual_time_seconds",
        "Virtual time at the daemon's clock.",
        daemon.now(),
    );
    gauge(
        &mut out,
        "lips_serve_epoch_seconds",
        "Current (tuned) epoch length.",
        daemon.epoch_s(),
    );
    counter(
        &mut out,
        "lips_serve_epochs_total",
        "Daemon epochs advanced (including idle epochs).",
        daemon.epochs_run() as f64,
    );
    gauge(
        &mut out,
        "lips_serve_queue_depth",
        "Admitted, unfinished jobs.",
        daemon.queue_len() as f64,
    );
    gauge(
        &mut out,
        "lips_serve_pending_arrivals",
        "Jobs waiting for their arrival time.",
        daemon.pending_arrivals() as f64,
    );

    let summary = daemon.summary();
    counter(
        &mut out,
        "lips_serve_jobs_admitted_total",
        "Jobs that passed admission control.",
        summary.admitted as f64,
    );
    let _ = writeln!(
        out,
        "# HELP lips_serve_jobs_rejected_total Jobs turned away by admission control."
    );
    let _ = writeln!(out, "# TYPE lips_serve_jobs_rejected_total counter");
    let _ = writeln!(
        out,
        "lips_serve_jobs_rejected_total{{reason=\"queue_full\"}} {}",
        summary.rejected_queue_full
    );
    let _ = writeln!(
        out,
        "lips_serve_jobs_rejected_total{{reason=\"pool_budget\"}} {}",
        summary.rejected_pool_budget
    );
    counter(
        &mut out,
        "lips_serve_jobs_completed_total",
        "Jobs run to completion.",
        summary.completed as f64,
    );
    counter(
        &mut out,
        "lips_serve_dollars_total",
        "Cumulative bill (cpu + reads + moves).",
        summary.total_dollars,
    );
    counter(
        &mut out,
        "lips_serve_refused_actions_total",
        "Scheduler actions the executor refused (skipped, not applied).",
        summary.refused_actions as f64,
    );

    // Solver-side telemetry, from the stable per-epoch record schema.
    counter(
        &mut out,
        "lips_epochs_solved_total",
        "LP decision epochs solved.",
        s.epochs as f64,
    );
    counter(
        &mut out,
        "lips_epochs_certified_total",
        "Epochs with a KKT-certified optimum.",
        s.certified_epochs as f64,
    );
    gauge(
        &mut out,
        "lips_certified_share",
        "Certified fraction of LP epochs.",
        s.certified_share,
    );
    let _ = writeln!(
        out,
        "# HELP lips_epochs_by_rung_total Epochs by degradation-ladder rung."
    );
    let _ = writeln!(out, "# TYPE lips_epochs_by_rung_total counter");
    let _ = writeln!(
        out,
        "lips_epochs_by_rung_total{{rung=\"master\"}} {}",
        s.master_epochs
    );
    let _ = writeln!(
        out,
        "lips_epochs_by_rung_total{{rung=\"cold_retry\"}} {}",
        s.cold_retry_epochs
    );
    let _ = writeln!(
        out,
        "lips_epochs_by_rung_total{{rung=\"degraded\"}} {}",
        s.degraded_epochs
    );
    counter(
        &mut out,
        "lips_epochs_incremental_total",
        "Epochs re-solved from carried basis/columns (not cold).",
        s.incremental_epochs as f64,
    );
    gauge(
        &mut out,
        "lips_incremental_share",
        "Incremental fraction of LP epochs.",
        s.incremental_share,
    );
    let _ = writeln!(
        out,
        "# HELP lips_solve_latency_ms Simplex solve latency quantiles across epochs."
    );
    let _ = writeln!(out, "# TYPE lips_solve_latency_ms gauge");
    let _ = writeln!(
        out,
        "lips_solve_latency_ms{{quantile=\"0.5\"}} {}",
        s.p50_solve_ms
    );
    let _ = writeln!(
        out,
        "lips_solve_latency_ms{{quantile=\"0.99\"}} {}",
        s.p99_solve_ms
    );
    let _ = writeln!(
        out,
        "# HELP lips_epoch_latency_ms End-to-end epoch latency quantiles (build+solve+certify)."
    );
    let _ = writeln!(out, "# TYPE lips_epoch_latency_ms gauge");
    let _ = writeln!(
        out,
        "lips_epoch_latency_ms{{quantile=\"0.5\"}} {}",
        s.p50_epoch_ms
    );
    let _ = writeln!(
        out,
        "lips_epoch_latency_ms{{quantile=\"0.99\"}} {}",
        s.p99_epoch_ms
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, ServeConfig};
    use lips_cluster::ec2_20_node;

    #[test]
    fn renders_all_families() {
        let daemon = Daemon::new(ec2_20_node(0.5, 1e9), ServeConfig::default());
        let text = render(&daemon);
        for family in [
            "lips_serve_epochs_total",
            "lips_serve_queue_depth",
            "lips_serve_jobs_rejected_total{reason=\"queue_full\"}",
            "lips_certified_share",
            "lips_incremental_share",
            "lips_solve_latency_ms{quantile=\"0.99\"}",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
