//! High-level experiment builder: cluster + workload + policy in one
//! fluent chain.
//!
//! Collapses the bind/place/simulate boilerplate that every study repeats:
//!
//! ```
//! use lips::experiment::{Experiment, SchedulerChoice};
//! use lips::workload::{JobKind, JobSpec};
//!
//! let report = Experiment::new()
//!     .ec2_mixed(20, 0.5)
//!     .jobs(vec![JobSpec::new(0, "grep", JobKind::Grep, 1024.0, 16)])
//!     .scheduler(SchedulerChoice::Lips { epoch_s: 800.0 })
//!     .seed(7)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.outcomes.len(), 1);
//! ```

use lips_cluster::{ec2_100_node, ec2_mixed_cluster, Cluster};
use lips_core::{
    AdaptiveLips, DelayScheduler, FairScheduler, HadoopDefaultScheduler, LipsScheduler,
    SchedulerConfig, TuneConfig,
};
use lips_sim::{Placement, Scheduler, SimError, SimReport, Simulation};
use lips_workload::{bind_workload, JobSpec, PlacementPolicy};

/// Which policy an [`Experiment`] runs.
#[derive(Debug, Clone)]
pub enum SchedulerChoice {
    /// LiPS with a fixed epoch (exact small-cluster model).
    Lips { epoch_s: f64 },
    /// LiPS with an explicit configuration.
    LipsConfigured(SchedulerConfig),
    /// Adaptive-epoch LiPS at a cost preference σ ∈ [0,1].
    LipsAdaptive { cost_preference: f64 },
    /// Hadoop's default FIFO-locality scheduler.
    HadoopDefault,
    /// Delay scheduling.
    Delay,
    /// FairScheduler-style pools.
    Fair,
}

impl SchedulerChoice {
    fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerChoice::Lips { epoch_s } => {
                Box::new(LipsScheduler::new(SchedulerConfig::small_cluster(*epoch_s)))
            }
            SchedulerChoice::LipsConfigured(cfg) => Box::new(LipsScheduler::new(cfg.clone())),
            SchedulerChoice::LipsAdaptive { cost_preference } => Box::new(AdaptiveLips::new(
                SchedulerConfig::small_cluster(400.0),
                TuneConfig {
                    cost_preference: *cost_preference,
                    ..TuneConfig::adaptive()
                },
            )),
            SchedulerChoice::HadoopDefault => Box::new(HadoopDefaultScheduler::new()),
            SchedulerChoice::Delay => Box::new(DelayScheduler::default()),
            SchedulerChoice::Fair => Box::new(FairScheduler::new()),
        }
    }
}

/// Fluent experiment description. Defaults: 20-node 50 % c1.medium
/// testbed, empty workload, LiPS at a 600 s epoch, seed 2013, replication
/// 1, no stragglers/interference/speculation.
pub struct Experiment {
    cluster: Option<Cluster>,
    jobs: Vec<JobSpec>,
    scheduler: SchedulerChoice,
    seed: u64,
    replication: usize,
    stragglers: Option<(f64, f64)>,
    interference: f64,
    speculation: bool,
    validate: bool,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            cluster: None,
            jobs: Vec::new(),
            scheduler: SchedulerChoice::Lips { epoch_s: 600.0 },
            seed: 2013,
            replication: 1,
            stragglers: None,
            interference: 0.0,
            speculation: false,
            validate: true,
        }
    }
}

impl Experiment {
    pub fn new() -> Self {
        Self::default()
    }

    /// Use the Fig-6-style testbed: `nodes` machines, `c1_fraction` of
    /// them c1.medium, three zones.
    pub fn ec2_mixed(mut self, nodes: usize, c1_fraction: f64) -> Self {
        self.cluster = Some(ec2_mixed_cluster(nodes, c1_fraction, 1e9, self.seed));
        self
    }

    /// Use the Fig-9 100-node, three-type testbed.
    pub fn ec2_hundred(mut self) -> Self {
        self.cluster = Some(ec2_100_node(1e9, self.seed));
        self
    }

    /// Use an explicit cluster.
    pub fn cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// The workload to run.
    pub fn jobs(mut self, jobs: Vec<JobSpec>) -> Self {
        self.jobs = jobs;
        self
    }

    /// The scheduling policy.
    pub fn scheduler(mut self, s: SchedulerChoice) -> Self {
        self.scheduler = s;
        self
    }

    /// Seed for binding, block spread, and any injection (set *before*
    /// `ec2_*` if the cluster should share it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// HDFS replication factor for the initial block spread.
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r.max(1);
        self
    }

    /// Straggler injection `(probability, slowdown)`.
    pub fn stragglers(mut self, prob: f64, slowdown: f64) -> Self {
        self.stragglers = Some((prob, slowdown));
        self
    }

    /// Network interference factor (see `Simulation::with_interference`).
    pub fn interference(mut self, factor: f64) -> Self {
        self.interference = factor;
        self
    }

    /// Hadoop-style speculative execution (needs stragglers to matter).
    pub fn speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Skip the post-run invariant check (on by default).
    pub fn without_validation(mut self) -> Self {
        self.validate = false;
        self
    }

    /// Build everything and run to completion.
    pub fn run(self) -> Result<SimReport, SimError> {
        let mut cluster = self
            .cluster
            .unwrap_or_else(|| ec2_mixed_cluster(20, 0.5, 1e9, self.seed));
        assert!(!self.jobs.is_empty(), "experiment needs at least one job");
        let bound = bind_workload(
            &mut cluster,
            self.jobs,
            PlacementPolicy::RoundRobin,
            self.seed,
        );
        let placement = if self.replication > 1 {
            Placement::spread_blocks_replicated(&cluster, self.seed, self.replication)
        } else {
            Placement::spread_blocks(&cluster, self.seed)
        };
        let mut sim = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .with_interference(self.interference)
            .with_speculation(self.speculation);
        if let Some((p, f)) = self.stragglers {
            sim = sim.with_stragglers(p, f, self.seed);
        }
        let mut sched = self.scheduler.build();
        let report = sim.run(sched.as_mut())?;
        if self.validate {
            lips_sim::assert_valid(&report, &cluster, &bound);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_workload::JobKind;

    fn small_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(0, "g", JobKind::Grep, 512.0, 8),
            JobSpec::new(1, "w", JobKind::WordCount, 512.0, 8),
        ]
    }

    #[test]
    fn default_experiment_runs_and_validates() {
        let r = Experiment::new().jobs(small_jobs()).run().unwrap();
        assert_eq!(r.outcomes.len(), 2);
    }

    #[test]
    fn every_scheduler_choice_works() {
        for choice in [
            SchedulerChoice::Lips { epoch_s: 400.0 },
            SchedulerChoice::LipsConfigured(SchedulerConfig::large_cluster(400.0)),
            SchedulerChoice::LipsAdaptive {
                cost_preference: 0.5,
            },
            SchedulerChoice::HadoopDefault,
            SchedulerChoice::Delay,
            SchedulerChoice::Fair,
        ] {
            let r = Experiment::new()
                .ec2_mixed(12, 0.5)
                .jobs(small_jobs())
                .scheduler(choice)
                .run()
                .unwrap();
            assert_eq!(r.outcomes.len(), 2);
        }
    }

    #[test]
    fn injections_compose() {
        let r = Experiment::new()
            .jobs(small_jobs())
            .replication(3)
            .stragglers(0.2, 3.0)
            .speculation(true)
            .interference(0.3)
            .scheduler(SchedulerChoice::Delay)
            .run()
            .unwrap();
        assert_eq!(r.outcomes.len(), 2);
    }

    #[test]
    #[should_panic]
    fn empty_workload_rejected() {
        let _ = Experiment::new().run();
    }
}
