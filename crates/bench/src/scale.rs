//! The `BENCH_scale.json` trajectory: nodes × jobs vs. per-phase epoch
//! wall-time at 100 / 1k / 10k nodes.
//!
//! Each point replays a Google-trace-shaped workload
//! ([`lips_workload::google_synth`], round-tripped through the TSV
//! *reader* so the benchmark exercises the same parsing path a real
//! cluster-data summary file takes) against an `ec2_mixed_cluster` of the
//! point's size, solved by a column-generation [`LipsScheduler`] through
//! [`LipsScheduler::solve_epoch`] — the scheduler's own ladder, its
//! dual-first restricted master carrying its basis across epochs.
//! Every epoch is the scheduler's own record, with the solver-metered
//! build / solve / certify split, and every epoch is certified against
//! the full model, 10k nodes included: certification is a small share of
//! an epoch at every point (see DESIGN.md §3.14).

use std::io::Cursor;

use lips_cluster::{ec2_mixed_cluster, Cluster, DataId, StoreId};
use lips_core::lp_build::{LpInstance, LpJob, PruneConfig};
use lips_core::{LipsScheduler, SchedulerConfig};
use lips_workload::{
    google_records_to_jobs, google_synth, parse_google_tsv, write_google_tsv, GoogleSynthCfg,
};
use serde::Serialize;

/// One scale point's workload + solve policy.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleSpec {
    pub nodes: usize,
    pub jobs: usize,
    pub epochs: usize,
}

/// One epoch of a scale point, on the workspace-wide stable schema
/// ([`lips_core::EpochRecord`]): the colgen scheduler's record as it
/// wrote it.
pub type ScaleEpoch = lips_core::EpochRecord;

/// One (nodes × jobs) point of the trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    pub nodes: usize,
    pub jobs: usize,
    pub epochs: Vec<ScaleEpoch>,
    pub total_build_ms: f64,
    pub total_solve_ms: f64,
    pub total_certify_ms: f64,
    pub total_epoch_ms: f64,
    pub all_certified: bool,
}

/// The default 100 / 1k / 10k trajectory of the acceptance criterion.
pub fn default_series() -> Vec<ScaleSpec> {
    vec![
        ScaleSpec {
            nodes: 100,
            jobs: 512,
            epochs: 3,
        },
        ScaleSpec {
            nodes: 1000,
            jobs: 2048,
            epochs: 3,
        },
        ScaleSpec {
            nodes: 10_000,
            jobs: 2048,
            epochs: 2,
        },
    ]
}

/// Build the point's LP job set by synthesizing a Google-shaped trace and
/// feeding it through the real TSV reader. Every data-bearing job holds
/// its input on one store (round-robin), exactly like the epoch-sequence
/// benchmark; input-less service jobs carry fixed CPU work.
pub fn google_scale_jobs(cluster: &Cluster, n_jobs: usize, seed: u64) -> Vec<LpJob> {
    let cfg = GoogleSynthCfg {
        jobs: n_jobs,
        ..Default::default()
    };
    let mut buf = Vec::new();
    write_google_tsv(&google_synth(&cfg, seed), &mut buf).expect("in-memory write");
    let recs = parse_google_tsv(Cursor::new(buf)).expect("synth emits well-formed TSV");
    let specs = google_records_to_jobs(&recs);
    let stores = cluster.num_stores();
    specs
        .iter()
        .map(|s| {
            let size = s.effective_input_mb();
            LpJob {
                id: s.id,
                data: (size >= 1.0).then_some(DataId(s.id.0)),
                size_mb: size,
                tcp: s.tcp_ecu_sec_per_mb,
                fixed_ecu: s.ecu_sec_per_task * f64::from(s.tasks),
                avail: if size >= 1.0 {
                    vec![(StoreId(s.id.0 % stores), 1.0)]
                } else {
                    vec![]
                },
            }
        })
        .collect()
}

/// The epoch-`e` view of the base job set: surviving data shrinks ~3 % per
/// epoch (same steady-state drift as the epoch-sequence benchmark).
fn decayed(base: &[LpJob], epoch: usize) -> Vec<LpJob> {
    let remaining = 0.97f64.powi(epoch as i32).max(0.25);
    base.iter()
        .cloned()
        .map(|mut j| {
            j.size_mb *= remaining;
            j
        })
        .collect()
}

fn instance<'c>(cluster: &'c Cluster, jobs: Vec<LpJob>) -> LpInstance<'c> {
    LpInstance {
        cluster,
        jobs,
        duration: 600.0,
        fake_cost: Some(1.0),
        allow_moves: true,
        enforce_transfer_time: true,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig {
            max_machines_per_job: Some(16),
            max_new_stores_per_job: Some(6),
        },
    }
}

/// A [`LipsScheduler`] (its column-generation ladder) solving `epochs`
/// decayed views of `base`, returning its records.
fn colgen_epochs(cluster: &Cluster, base: &[LpJob], epochs: usize) -> Vec<ScaleEpoch> {
    let mut sched = LipsScheduler::new(SchedulerConfig::default());
    for e in 0..epochs {
        sched.solve_epoch(&instance(cluster, decayed(base, e)));
    }
    sched.epoch_records().to_vec()
}

/// Run one point of the trajectory.
pub fn run_scale_point(spec: &ScaleSpec) -> ScalePoint {
    let cluster = ec2_mixed_cluster(spec.nodes, 0.4, 1e9, 1);
    let base = google_scale_jobs(&cluster, spec.jobs, 1);
    let epochs = colgen_epochs(&cluster, &base, spec.epochs);
    ScalePoint {
        nodes: spec.nodes,
        jobs: spec.jobs,
        total_build_ms: epochs.iter().map(|r| r.build_ms).sum(),
        total_solve_ms: epochs.iter().map(|r| r.solve_ms).sum(),
        total_certify_ms: epochs.iter().map(|r| r.certify_ms).sum(),
        total_epoch_ms: epochs.iter().map(|r| r.epoch_ms).sum(),
        all_certified: epochs.iter().all(|r| r.certified),
        epochs,
    }
}

/// The full `BENCH_scale.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleReport {
    pub config: String,
    pub points: Vec<ScalePoint>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_jobs_feed_the_lp() {
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let jobs = google_scale_jobs(&cluster, 32, 1);
        assert_eq!(jobs.len(), 32);
        // Data-bearing jobs hold their input on a real store; service jobs
        // carry fixed work instead.
        for j in &jobs {
            if j.size_mb >= 1.0 {
                assert_eq!(j.avail.len(), 1);
                assert!(j.avail[0].0 .0 < cluster.num_stores());
            } else {
                assert!(j.fixed_ecu > 0.0, "input-less job with no work");
            }
        }
        // Deterministic per seed (the whole bench depends on it).
        let again = google_scale_jobs(&cluster, 32, 1);
        for (a, b) in jobs.iter().zip(&again) {
            assert_eq!(a.size_mb.to_bits(), b.size_mb.to_bits());
        }
    }

    #[test]
    fn tiny_certified_point_records_phases() {
        let spec = ScaleSpec {
            nodes: 20,
            jobs: 12,
            epochs: 2,
        };
        let p = run_scale_point(&spec);
        assert!(p.all_certified);
        assert_eq!(p.epochs.len(), 2);
        for r in &p.epochs {
            assert!(r.certified);
            assert!(r.pricing_rounds > 0 && r.active_columns > 0);
            assert!(r.build_ms > 0.0 && r.solve_ms > 0.0 && r.certify_ms > 0.0);
            assert!(r.build_ms + r.solve_ms + r.certify_ms <= r.epoch_ms * 1.05 + 1.0);
        }
    }
}
