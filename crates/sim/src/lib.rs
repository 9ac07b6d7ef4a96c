//! # lips-sim — a discrete-event MapReduce cluster simulator
//!
//! Stands in for the paper's Hadoop-on-EC2 testbed. The simulator executes
//! a bound workload ([`lips_workload::BoundWorkload`]) on a cluster
//! ([`lips_cluster::Cluster`]) under a pluggable [`Scheduler`], and meters
//! exactly what the paper's experiments meter: **dollars** (CPU-seconds ×
//! per-node price, plus transferred MB × link price), **makespan**, and
//! **per-node accumulated CPU time**.
//!
//! ## Execution model
//!
//! * Jobs are *divisible*: schedulers place work in fractional **chunks**
//!   (`RunChunk`), each reading a share of the job's input from a concrete
//!   store. A chunk occupies one map slot; its duration is read time
//!   (`MB / bandwidth`) plus compute time (`ECU-seconds / slot-share`).
//! * Data placement is a first-class action (`MoveData`): store-to-store
//!   copies take `MB / bandwidth` seconds and are billed at the
//!   store-to-store price. Chunks reading from a destination store wait
//!   for the arrival to complete.
//! * Two scheduler styles are supported: **event-driven** (invoked whenever
//!   a slot frees or a job arrives — Hadoop default / delay scheduling) and
//!   **epoch-based** (invoked on a fixed period — LiPS), selected by
//!   [`Scheduler::epoch`].
//! * Speculative execution is absent and transfers never time out,
//!   matching the paper's experimental configuration (§VI-A).
//! * Applying and billing actions, the read and map-output ledgers, the
//!   shuffle rule and job completion live in [`Executor`], which the
//!   `lips-serve` daemon drives too: both executors bill identically.
//!
//! The simulator is fully deterministic: ties break on sequence numbers,
//! never on hash order or wall-clock.
//!
//! ```
//! use lips_sim::{Placement, Simulation};
//! use lips_cluster::ec2_20_node;
//! use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};
//! # use lips_sim::{Action, Scheduler, SchedulerContext};
//! # struct Greedy;
//! # impl Scheduler for Greedy {
//! #     fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
//! #         let Some(j) = ctx.jobs_with_work().next() else { return vec![] };
//! #         let (store, _) = ctx.placement.stores_of(j.data.unwrap())[0];
//! #         let machine = ctx.cluster.store(store).colocated.unwrap();
//! #         vec![Action::RunChunk { job: j.id, machine, source: Some(store),
//! #             mb: j.task_mb.min(j.remaining_mb), fixed_ecu: 0.0 }]
//! #     }
//! #     fn name(&self) -> &str { "greedy" }
//! # }
//!
//! let mut cluster = ec2_20_node(0.5, 3600.0);
//! let jobs = vec![JobSpec::new(0, "grep", JobKind::Grep, 640.0, 10)];
//! let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
//! let report = Simulation::new(&cluster, &workload).run(&mut Greedy).unwrap();
//! assert_eq!(report.outcomes.len(), 1);
//! assert!(report.metrics.total_dollars() > 0.0);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod action;
pub mod engine;
pub mod event;
pub mod executor;
pub mod fault;
pub mod job_state;
pub mod machine_state;
pub mod metrics;
pub mod placement;
pub mod validate;

pub use action::{Action, Scheduler, SchedulerContext};
pub use engine::{SimError, Simulation, StragglerModel};
pub use event::{Event, EventKind};
pub use executor::{Chunk, Executor};
pub use fault::{FaultEvent, FaultPlan};
pub use job_state::{JobOutcome, JobPhase, PendingJob};
pub use machine_state::MachineState;
pub use metrics::{FaultMetrics, Metrics, SimReport};
pub use placement::Placement;
pub use validate::{assert_valid, validate_certificate, validate_report, Violation};

/// Simulation clock time, in seconds.
pub type Time = f64;

/// Work smaller than this (MB or ECU-seconds) is treated as zero.
pub const WORK_EPS: f64 = 1e-6;
