//! # lips-workload — MapReduce job models and trace generation
//!
//! The jobs the paper evaluates with, as data:
//!
//! * [`kind`] — the five benchmark kinds of Table I with their CPU
//!   intensities (ECU-seconds per 64 MB input block): Grep 20, Stress1 37,
//!   Stress2 75, WordCount 90, Pi ∞ (no input).
//! * [`job`] — [`job::JobSpec`]: a divisible MapReduce job (tasks, input
//!   size, CPU intensity, arrival time, priority, pool).
//! * [`suite`] — the J1–J9 suite of Table IV (1608 map tasks, 100 GB).
//! * [`swim`] — a seeded SWIM-like Facebook workload generator for the
//!   100-node experiments (Figures 9/10).
//! * [`rand_gen`] — fully random workloads for the Figure 5 sweep.
//! * [`google_trace`] — Google cluster-data per-job summary reader and a
//!   trace-shaped synthetic generator for the 1k/10k-node scale runs.
//! * [`bind`] — attaches a workload's inputs to a cluster as data objects.
//!
//! ```
//! use lips_workload::{table_iv_suite, JobKind};
//!
//! let suite = table_iv_suite();
//! assert_eq!(suite.iter().map(|j| j.tasks).sum::<u32>(), 1608);
//! assert_eq!(JobKind::Grep.ecu_sec_per_block(), Some(20.0));
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod arrivals;
pub mod bind;
pub mod dag;
pub mod google_trace;
pub mod job;
pub mod kind;
pub mod rand_gen;
pub mod suite;
pub mod swim;
pub mod swim_tsv;

pub use arrivals::{assign_arrivals, ArrivalProcess};
pub use bind::{bind_workload, BoundWorkload, PlacementPolicy};
pub use dag::{DagError, JobDag};
pub use google_trace::{
    google_records_to_jobs, google_synth, parse_google_tsv, write_google_tsv, GoogleParseError,
    GoogleSynthCfg, GoogleTraceRecord, GOOGLE_PROD_PRIORITY,
};
pub use job::{JobId, JobPriority, JobSpec, ReduceSpec, MAX_JOB_MB, MAX_TASKS_PER_JOB};
pub use kind::JobKind;
pub use rand_gen::{random_workload, RandomWorkloadCfg};
pub use suite::table_iv_suite;
pub use swim::{swim_trace, SwimCfg};
pub use swim_tsv::{parse_swim_tsv, records_to_jobs, write_swim_tsv, SwimConvertCfg, SwimRecord};
