//! # lips-core — the LiPS cost-efficient data/task co-scheduler
//!
//! The paper's contribution, faithfully implemented on top of the workspace
//! substrates:
//!
//! * [`analysis`] — the Figure 1 break-even calculus: moving a job's data
//!   from node A to node B pays off when `c·a > c·b + d`.
//! * [`lp_build`] — lowering of a scheduling instance into the paper's LP
//!   models (Figures 2, 3, 4), shared by the offline solvers and the
//!   online epoch scheduler.
//! * [`paper_audit`] — the paper-invariant audit: checks a built model's
//!   keyed columns and rows against the Fig 2/3/4 structure.
//! * [`offline`] — one-shot solvers: simple task scheduling (Fig 2, data
//!   pre-placed), full co-scheduling (Fig 3), and the §IV greedy that is
//!   optimal only under abundant capacity.
//! * [`lips`] — [`lips::LipsScheduler`]: the online epoch-based scheduler
//!   (Fig 4) with the fake node, minimum-task-size rounding, and
//!   configurable pruning for large clusters.
//! * [`baselines`] — Hadoop's default FIFO-locality scheduler, the delay
//!   scheduler (Zaharia et al.), and a FairScheduler-style pool scheduler,
//!   all as [`lips_sim::Scheduler`] implementations for head-to-head runs.
//!
//! ```
//! use lips_core::{SchedulerConfig, LipsScheduler, DelayScheduler};
//! use lips_sim::{Placement, Scheduler, Simulation};
//! use lips_cluster::ec2_20_node;
//! use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};
//!
//! let run = |sched: &mut dyn Scheduler| {
//!     let mut cluster = ec2_20_node(0.5, 1e9);
//!     let jobs = vec![JobSpec::new(0, "wc", JobKind::WordCount, 1024.0, 16)];
//!     let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
//!     let placement = Placement::spread_blocks(&cluster, 1);
//!     Simulation::new(&cluster, &bound)
//!         .with_placement(placement)
//!         .run(sched)
//!         .unwrap()
//!         .metrics
//!         .total_dollars()
//! };
//! let lips = run(&mut LipsScheduler::new(SchedulerConfig::small_cluster(2000.0)));
//! let delay = run(&mut DelayScheduler::default());
//! assert!(lips < delay); // the paper's headline, in five lines
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod adaptive;
pub mod advisor;
pub mod analysis;
pub mod baselines;
pub mod config;
pub mod dag;
pub mod lips;
pub mod lp_build;
pub mod offline;
pub mod paper_audit;
pub mod report;
pub mod tuner;

pub use adaptive::AdaptiveLips;
pub use advisor::{capacity_advice, CapacityAdvice};
pub use analysis::{break_even_ratio, move_pays_off, savings_per_mb};
pub use baselines::{DelayScheduler, FairScheduler, HadoopDefaultScheduler};
pub use config::{ConfigError, Preset, SchedulerConfig, SchedulerConfigBuilder};
pub use dag::{run_dag, DagReport, DagRunError};
pub use lips::{EpochOutcome, LipsScheduler};
pub use lp_build::{
    solve_full, solve_master, ColGenOptions, ColGenStats, ColKey, EpochSolveError, RowKey,
    SolveReport,
};
pub use offline::{co_schedule, greedy_schedule, simple_task_schedule, OfflineSchedule};
pub use report::{EpochRecord, RunSummary};
pub use tuner::{EpochTuner, TuneConfig};
