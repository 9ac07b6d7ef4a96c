//! Pieces shared by the two `lips-serve` workloads.

use std::collections::BTreeMap;

use lips_core::SchedulerConfig;
use lips_serve::{Daemon, ServeConfig};

use crate::pass::Pass;

/// The daemon's default configuration (`ServeConfig::default()`: warm
/// start, dual rung and incremental colgen re-solves, default admission)
/// with a fixed epoch, the tuner off, and a pinned solver width.
pub fn serve_config(epoch_s: f64, threads: usize, seed: u64) -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        scheduler: SchedulerConfig {
            epoch_s,
            threads: Some(threads),
            ..defaults.scheduler
        },
        tuning: None,
        bind_seed: seed,
        ..defaults
    }
}

/// Fill a pass from the daemon's public state once its stream is drained.
pub fn finish_serve_pass(pass: &mut Pass, daemon: &Daemon, ecu: &BTreeMap<usize, f64>) {
    let summary = daemon.summary();
    pass.cpu_dollars = summary.cpu_dollars;
    pass.read_dollars = summary.read_dollars;
    pass.move_dollars = summary.move_dollars;
    pass.total_dollars = summary.total_dollars;
    pass.completed = summary.completed;
    let mut outcomes: Vec<(usize, f64, f64)> = daemon
        .completed()
        .iter()
        .map(|o| (o.id.0, o.arrival, o.completed))
        .collect();
    outcomes.sort_by_key(|o| o.0);
    pass.completed_ecu_s = outcomes
        .iter()
        .map(|o| ecu.get(&o.0).copied().unwrap_or(0.0))
        .sum();
    pass.outcomes = outcomes;
    pass.records = daemon.scheduler().epoch_records().to_vec();
    pass.layer.insert(
        "core.stale_basis_entries_dropped",
        daemon.scheduler().stale_basis_entries_dropped() as f64,
    );
    pass.layer
        .insert("serve.queue_depth_mean", summary.mean_queue_depth);
    pass.layer.insert(
        "serve.rejected",
        (summary.rejected_queue_full + summary.rejected_pool_budget) as f64,
    );
    pass.check_common();
}
