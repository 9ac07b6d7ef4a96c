//! # lips-serve — a continuous-arrival scheduler daemon over LiPS
//!
//! The rest of the workspace answers "given these jobs, what is the
//! cheapest schedule?"; this crate answers "keep scheduling as jobs keep
//! arriving". It wraps [`lips_core::LipsScheduler`] in a daemon that owns
//! the cluster state and advances virtual time epoch by epoch:
//!
//! * [`queue::ArrivalQueue`] — time-ordered arrival stream (seeded from
//!   the `lips-workload` generators or fed live over the control API);
//! * [`admission`] — per-pool ECU budgets and a global queue cap decide
//!   at arrival time whether a job enters the scheduler queue;
//! * [`EpochTuner`] (from `lips-core`) — closed-loop epoch-length tuning
//!   on the paper's cost-vs-makespan knob (Fig 8), driven by observed
//!   backlog;
//! * [`daemon::Daemon`] — the fluid epoch executor with *incremental
//!   re-solves*: the column-generation master's basis flows across
//!   epochs, so new arrivals are priced into the incumbent
//!   restricted master and re-optimized by the dual simplex rather than
//!   rebuilding the LP from scratch;
//! * [`control`] — an LDJSON command API (`submit` / `run` / `drain` /
//!   `status` / `metrics` / `revoke` / `rejoin` / `shutdown`), one JSON
//!   object per line;
//! * [`metrics`] — Prometheus-style exposition text for scraping.
//!
//! ```
//! use lips_cluster::ec2_20_node;
//! use lips_serve::{Daemon, ServeConfig};
//! use lips_workload::{JobKind, JobSpec};
//!
//! let mut daemon = Daemon::new(ec2_20_node(0.5, 1e9), ServeConfig::default());
//! daemon.enqueue(JobSpec::new(0, "g0", JobKind::Grep, 512.0, 8));
//! daemon.enqueue(JobSpec::new(1, "g1", JobKind::Grep, 256.0, 4).arriving_at(800.0));
//! daemon.run_until_drained(100);
//! let s = daemon.summary();
//! assert_eq!(s.completed, 2);
//! assert_eq!(s.solver.certified_share, 1.0);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod admission;
pub mod control;
pub mod daemon;
pub mod metrics;
pub mod queue;

pub use admission::{admit, AdmissionConfig, AdmissionDecision};
pub use control::{handle_line, Command};
pub use daemon::{AdmissionEvent, Daemon, ServeConfig, ServeEpochRecord, ServeSummary};
pub use lips_core::{EpochTuner, TuneConfig};
pub use queue::ArrivalQueue;
