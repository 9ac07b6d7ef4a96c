//! Adaptive epoch control (§V-B): "the epoch length can be either fixed in
//! advance, or adaptively changed as the performance and cost preferences
//! are changed by users."
//!
//! [`AdaptiveLips`] wraps [`LipsScheduler`] and re-derives the epoch before
//! every decision with the shared [`EpochTuner`]. Under its default
//! [`TuneConfig::adaptive`] rule the cost-preference dial σ = 1 selects
//! the cheapest-priced nodes and the epoch is sized so that the whole
//! current backlog fits into one epoch of them:
//! `e = backlog / Σ TP(target set)`, clamped into `[min_epoch, max_epoch]`.
//!
//! This is exactly the knee observed in Figure 8: the cost-optimal epoch
//! for a backlog is the one that lets the LP place all of it on the cheap
//! nodes; anything longer buys nothing, anything shorter forces spill.

use lips_sim::{Action, Scheduler, SchedulerContext, Time};

use crate::lips::{LipsScheduler, SchedulerConfig};
use crate::tuner::{EpochTuner, TuneConfig};

/// LiPS with backlog-driven epoch adaptation.
#[derive(Debug)]
pub struct AdaptiveLips {
    inner: LipsScheduler,
    pub tuner: EpochTuner,
    current_epoch: f64,
}

impl AdaptiveLips {
    pub fn new(base: SchedulerConfig, tuning: TuneConfig) -> Self {
        assert!((0.0..=1.0).contains(&tuning.cost_preference));
        assert!(tuning.min_epoch_s > 0.0 && tuning.max_epoch_s >= tuning.min_epoch_s);
        AdaptiveLips {
            inner: LipsScheduler::new(base),
            tuner: EpochTuner::new(tuning),
            current_epoch: tuning.min_epoch_s,
        }
    }

    /// The epoch currently in force.
    pub fn current_epoch(&self) -> f64 {
        self.current_epoch
    }
}

impl Scheduler for AdaptiveLips {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let rate = self.tuner.target_rate(ctx.cluster);
        self.current_epoch = self
            .tuner
            .next_epoch(ctx.backlog_ecu(), rate, self.current_epoch);
        self.inner.config.epoch_s = self.current_epoch;
        self.inner.decide(ctx)
    }

    fn epoch(&self) -> Option<Time> {
        Some(self.current_epoch)
    }

    fn name(&self) -> &str {
        "lips-adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::ec2_20_node;
    use lips_sim::{Placement, Simulation};
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    fn run(pref: f64, seed: u64) -> lips_sim::SimReport {
        let mut cluster = ec2_20_node(0.5, 1e9);
        let jobs = vec![
            JobSpec::new(0, "a", JobKind::Stress2, 4096.0, 64),
            JobSpec::new(1, "b", JobKind::WordCount, 4096.0, 64),
        ];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, seed);
        let placement = Placement::spread_blocks(&cluster, seed);
        let mut sched = AdaptiveLips::new(
            SchedulerConfig::small_cluster(400.0),
            TuneConfig {
                cost_preference: pref,
                ..TuneConfig::adaptive()
            },
        );
        Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut sched)
            .unwrap()
    }

    #[test]
    fn completes_at_both_extremes() {
        for pref in [0.0, 1.0] {
            let r = run(pref, 1);
            assert_eq!(r.outcomes.len(), 2, "pref {pref}");
        }
    }

    #[test]
    fn cost_preference_trades_dollars_for_time() {
        let cheap = run(1.0, 2);
        let fast = run(0.0, 2);
        assert!(
            cheap.metrics.total_dollars() <= fast.metrics.total_dollars() + 1e-9,
            "cheap {} vs fast {}",
            cheap.metrics.total_dollars(),
            fast.metrics.total_dollars()
        );
        assert!(
            fast.makespan <= cheap.makespan + 1e-9,
            "fast {} vs cheap {}",
            fast.makespan,
            cheap.makespan
        );
    }

    #[test]
    fn adaptive_epoch_tracks_backlog() {
        // With σ=1 on the 50% c1 cluster the target rate is the cheapest
        // c1 node(s); the first epoch must be sized to the whole backlog.
        let mut cluster = ec2_20_node(0.5, 1e9);
        let jobs = vec![JobSpec::new(0, "a", JobKind::Stress2, 2048.0, 32)];
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 3);
        let placement = Placement::spread_blocks(&cluster, 3);
        let mut sched = AdaptiveLips::new(
            SchedulerConfig::small_cluster(400.0),
            TuneConfig::adaptive(),
        );
        let _ = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut sched)
            .unwrap();
        // After the run the last computed epoch reflects an empty backlog
        // clamp; mid-run values were exercised via the engine's re-query.
        assert!(sched.current_epoch() >= 60.0);
    }

    #[test]
    #[should_panic]
    fn invalid_preference_rejected() {
        AdaptiveLips::new(
            SchedulerConfig::small_cluster(400.0),
            TuneConfig {
                cost_preference: 2.0,
                ..TuneConfig::adaptive()
            },
        );
    }
}
