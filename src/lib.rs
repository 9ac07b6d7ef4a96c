//! # LiPS — cost-efficient data and task co-scheduling for MapReduce
//!
//! A full Rust reproduction of *LiPS: A Cost-Efficient Data and Task
//! Co-Scheduler for MapReduce* (Ehsan, Chen, Kang, Sion, Wong — IPDPS 2013).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! * [`lp`] — the linear-programming substrate (two-phase bounded-variable
//!   revised simplex; GLPK replacement).
//! * [`cluster`] — heterogeneous cloud model: machines, data stores,
//!   availability zones, instance pricing, the paper's `JD/JM/MS/SS/B`
//!   matrices.
//! * [`workload`] — MapReduce job models (Grep, Stress, WordCount, Pi), the
//!   Table IV suite, and the SWIM-like Facebook trace generator.
//! * [`sim`] — a discrete-event Hadoop-like cluster simulator with
//!   dollar-cost billing.
//! * [`core`] — the LiPS scheduler itself (offline Fig 2/3, online Fig 4
//!   epoch model) plus the Hadoop-default, delay, and fair baselines.
//! * [`audit`] — static analysis for LP models (lint rules, paper-invariant
//!   checks) and an independent optimality-certificate verifier.
//!
//! See `examples/quickstart.rs` for a five-minute tour and the `lips-bench`
//! crate for binaries regenerating every table and figure of the paper.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod experiment;

pub use experiment::{Experiment, SchedulerChoice};
pub use lips_audit as audit;
pub use lips_cluster as cluster;
pub use lips_core as core;
pub use lips_hdfs as hdfs;
pub use lips_lp as lp;
pub use lips_sim as sim;
pub use lips_workload as workload;
