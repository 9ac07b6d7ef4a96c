//! The `BENCH_scale.json` trajectory: nodes × jobs vs. per-phase epoch
//! wall-time at 100 / 1k / 10k nodes.
//!
//! Each point replays a Google-trace-shaped workload
//! ([`lips_workload::google_synth`], round-tripped through the TSV
//! *reader* so the benchmark exercises the same parsing path a real
//! cluster-data summary file takes) against an `ec2_mixed_cluster` of the
//! point's size, solved by a column-generation [`LipsScheduler`] through
//! [`LipsScheduler::solve_epoch`] — the scheduler's own ladder, its
//! dual-first restricted master carrying columns and basis across epochs.
//! Every certified epoch is the scheduler's own record, with the
//! solver-metered build / solve / certify split.
//!
//! The 10k-node point runs the §IV greedy **uncertified** by default —
//! the honest scale story is that certification (a full-model KKT pass:
//! every excluded column priced) costs more than the solve at that scale
//! — and records a *certified probe* alongside it: one colgen epoch at
//! the same node count (optionally a reduced job count) whose phase split
//! documents exactly what certification costs there. See DESIGN.md §3.14.

use std::io::Cursor;
use std::time::Instant;

use lips_cluster::{ec2_mixed_cluster, Cluster, DataId, StoreId};
use lips_core::lp_build::{LpInstance, LpJob, PruneConfig};
use lips_core::offline::greedy_schedule;
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
    /// `true`: the colgen certified path. `false`: the §IV greedy,
    /// uncertified (10k-node default).
    pub certified: bool,
    /// With `certified = false`, additionally run one *certified* colgen
    /// epoch at this node count with this many jobs, recording what the
    /// certified path costs at the scale the greedy serves.
    pub probe_jobs: Option<usize>,
}

/// One epoch of a scale point, on the workspace-wide stable schema
/// ([`lips_core::EpochRecord`]). Certified epochs are the colgen
/// scheduler's records as it wrote them. A greedy epoch is a degraded
/// record with `outcome` `"greedy"`, its wall-clock in `solve_ms` and
/// `epoch_ms` and its predicted dollars in `objective`; every model-side
/// counter stays at zero — it builds no model and certifies nothing,
/// which is the point being measured.
pub type ScaleEpoch = lips_core::EpochRecord;

/// One (nodes × jobs) point of the trajectory.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    pub nodes: usize,
    pub jobs: usize,
    /// `"colgen"` (certified) or `"greedy"` (uncertified).
    pub mode: String,
    pub epochs: Vec<ScaleEpoch>,
    pub total_build_ms: f64,
    pub total_solve_ms: f64,
    pub total_certify_ms: f64,
    pub total_epoch_ms: f64,
    pub all_certified: bool,
    /// Greedy points only: one certified colgen epoch at the same node
    /// count (`probe_jobs` jobs) — the measured certification cost the
    /// greedy avoids.
    pub certified_probe: Option<ScaleEpoch>,
    /// Job count of the certified probe, when present.
    pub probe_jobs: Option<usize>,
}

/// The default 100 / 1k / 10k trajectory of the acceptance criterion.
pub fn default_series() -> Vec<ScaleSpec> {
    vec![
        ScaleSpec {
            nodes: 100,
            jobs: 512,
            epochs: 3,
            certified: true,
            probe_jobs: None,
        },
        ScaleSpec {
            nodes: 1000,
            jobs: 2048,
            epochs: 3,
            certified: true,
            probe_jobs: None,
        },
        ScaleSpec {
            nodes: 10_000,
            jobs: 2048,
            epochs: 2,
            certified: false,
            probe_jobs: Some(256),
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

/// The certified path: a [`LipsScheduler`] (its column-generation ladder)
/// solving `epochs` decayed views of `base`, returning its records.
fn colgen_epochs(
    cluster: &Cluster,
    base: &[LpJob],
    epochs: usize,
    threads: usize,
) -> Vec<ScaleEpoch> {
    let mut sched = LipsScheduler::new(SchedulerConfig {
        threads: (threads > 0).then_some(threads),
        ..SchedulerConfig::default()
    });
    for e in 0..epochs {
        sched.solve_epoch(&instance(cluster, decayed(base, e)));
    }
    sched.epoch_records().to_vec()
}

/// One §IV greedy epoch, timed around the call.
fn greedy_epoch(cluster: &Cluster, jobs: &[LpJob], epoch: usize) -> ScaleEpoch {
    #[expect(clippy::disallowed_methods, reason = "bench timing, reported only")]
    let t = Instant::now();
    let (_picks, dollars) = greedy_schedule(cluster, jobs);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let mut rec = ScaleEpoch::degraded(epoch, jobs.len());
    rec.outcome = "greedy".to_string();
    rec.solve_ms = ms;
    rec.epoch_ms = ms;
    rec.objective = dollars;
    rec
}

/// Run one point of the trajectory.
pub fn run_scale_point(spec: &ScaleSpec, threads: usize) -> ScalePoint {
    let cluster = ec2_mixed_cluster(spec.nodes, 0.4, 1e9, 1);
    let base = google_scale_jobs(&cluster, spec.jobs, 1);
    let epochs = if spec.certified {
        colgen_epochs(&cluster, &base, spec.epochs, threads)
    } else {
        (0..spec.epochs)
            .map(|e| greedy_epoch(&cluster, &decayed(&base, e), e))
            .collect()
    };
    // Greedy points only: one certified epoch at the same node count.
    let certified_probe = spec.probe_jobs.filter(|_| !spec.certified).and_then(|pj| {
        colgen_epochs(&cluster, &google_scale_jobs(&cluster, pj, 1), 1, threads).pop()
    });
    ScalePoint {
        nodes: spec.nodes,
        jobs: spec.jobs,
        mode: if spec.certified { "colgen" } else { "greedy" }.to_string(),
        total_build_ms: epochs.iter().map(|r| r.build_ms).sum(),
        total_solve_ms: epochs.iter().map(|r| r.solve_ms).sum(),
        total_certify_ms: epochs.iter().map(|r| r.certify_ms).sum(),
        total_epoch_ms: epochs.iter().map(|r| r.epoch_ms).sum(),
        all_certified: spec.certified && epochs.iter().all(|r| r.certified),
        probe_jobs: certified_probe.as_ref().and(spec.probe_jobs),
        certified_probe,
        epochs,
    }
}

/// The full `BENCH_scale.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleReport {
    pub config: String,
    pub threads: usize,
    pub host_parallelism: usize,
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
            certified: true,
            probe_jobs: None,
        };
        let p = run_scale_point(&spec, 1);
        assert!(p.all_certified);
        assert_eq!(p.epochs.len(), 2);
        for r in &p.epochs {
            assert!(r.certified);
            assert!(r.pricing_rounds > 0 && r.active_columns > 0);
            assert!(r.build_ms > 0.0 && r.solve_ms > 0.0 && r.certify_ms > 0.0);
            assert!(r.build_ms + r.solve_ms + r.certify_ms <= r.epoch_ms * 1.05 + 1.0);
        }
    }

    #[test]
    fn tiny_greedy_point_probes_certification_cost() {
        let spec = ScaleSpec {
            nodes: 20,
            jobs: 12,
            epochs: 1,
            certified: false,
            probe_jobs: Some(8),
        };
        let p = run_scale_point(&spec, 1);
        assert!(!p.all_certified);
        assert_eq!(p.mode, "greedy");
        assert!(p.epochs[0].objective > 0.0);
        let probe = p.certified_probe.as_ref().expect("probe requested");
        assert!(probe.certified);
        assert!(probe.certify_ms > 0.0, "the probe exists to meter this");
        assert_eq!(p.probe_jobs, Some(8));
    }
}
