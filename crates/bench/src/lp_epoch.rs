//! The 20-epoch LP workload behind `BENCH_lp_epoch.json`.
//!
//! Models the scheduler's steady state. A LiPS epoch is ~2000 s and the
//! Table-IV jobs run for hours, so consecutive epochs almost always see
//! the *same* job set with shrinking remaining data (transfers and maps
//! completed last epoch), and only occasionally a departure + arrival.
//! The sequence here mirrors that: sizes decay a few percent per epoch of
//! a job's age, and every `churn_every` epochs `churn` jobs complete and
//! are replaced by fresh ones. Two series solve it:
//!
//! * `cold` ([`run_cold`]) — each epoch's full model from scratch on the
//!   primal simplex, nothing carried: the objective-parity oracle;
//! * `colgen` ([`run_epochs`]) — the scheduler's ladder: a dual-first
//!   restricted master carrying the surviving columns *and* the basis
//!   across epochs.
//!
//! The bench builds no ladder of its own: `colgen` calls
//! [`LipsScheduler::solve_epoch`], the same call that serves every epoch
//! of a simulation or a `lips-serve` run, and reads the scheduler's own
//! [`EpochRecord`]s back. Every epoch is KKT-certified in both series
//! (the restricted master against the **full** model, excluded columns
//! priced), so the comparison can never trade correctness for speed.
//!
//! [`run_epochs_faulted`] additionally scripts mid-sequence machine
//! revocations, rejoins, repricings, and a store loss into the epoch loop
//! — the LP-level half of the fault story: the scheduler repairs its
//! carried state (dead-machine rows/columns dropped) instead of
//! discarding it, and every epoch must end certified against the
//! *surviving* cluster or be recorded as degraded.

use std::collections::BTreeMap;
use std::time::Instant;

use lips_cluster::{Cluster, DataId, StoreId};
use lips_core::lp_build::{solve_full, LpInstance, LpJob, PruneConfig};
pub use lips_core::EpochRecord;
use lips_core::{EpochOutcome, LipsScheduler, SchedulerConfig};
use lips_workload::JobId;
use serde::Serialize;

/// Epoch count used by the benchmark and the acceptance gate.
pub const EPOCHS: usize = 20;

/// A full epoch sequence under one solve path: the per-epoch records and
/// their totals.
#[derive(Debug, Clone, Serialize)]
pub struct EpochRun {
    /// `"cold"`, `"colgen"`, or `"faults_colgen"`.
    pub mode: String,
    pub epochs: Vec<EpochRecord>,
    pub total_iterations: usize,
    pub total_solve_ms: f64,
    /// Solver-metered model-construction wall-time summed over epochs.
    pub total_build_ms: f64,
    /// Solver-metered certification wall-time summed over epochs.
    pub total_certify_ms: f64,
    /// Whole-epoch wall-time summed over epochs: the scheduler's ladder
    /// (failed rungs included), or the oracle's whole solve call.
    pub total_epoch_ms: f64,
    pub total_pricing_rounds: usize,
    /// Epochs that started from the previous basis (the first epoch is
    /// always cold).
    pub warm_solves: usize,
    /// Mean `active_columns / total_columns` across epochs (1.0 for the
    /// cold series). The acceptance gate wants ≤ 0.5 for colgen.
    pub active_column_share: f64,
    pub all_certified: bool,
}

impl EpochRun {
    fn from_records(mode: &str, epochs: Vec<EpochRecord>) -> Self {
        let share_sum: f64 = epochs
            .iter()
            .map(|r| {
                if r.total_columns > 0 {
                    r.active_columns as f64 / r.total_columns as f64
                } else {
                    1.0
                }
            })
            .sum();
        EpochRun {
            mode: mode.to_string(),
            total_iterations: epochs.iter().map(|r| r.iterations).sum(),
            total_solve_ms: epochs.iter().map(|r| r.solve_ms).sum(),
            total_build_ms: epochs.iter().map(|r| r.build_ms).sum(),
            total_certify_ms: epochs.iter().map(|r| r.certify_ms).sum(),
            total_epoch_ms: epochs.iter().map(|r| r.epoch_ms).sum(),
            total_pricing_rounds: epochs.iter().map(|r| r.pricing_rounds).sum(),
            warm_solves: epochs.iter().filter(|r| r.warm != "Cold").count(),
            active_column_share: if epochs.is_empty() {
                1.0
            } else {
                share_sum / epochs.len() as f64
            },
            all_certified: epochs.iter().all(|r| r.certified),
            epochs,
        }
    }
}

/// Job set of epoch `e`: a sliding window over job ids that advances by
/// `churn` every `churn_every` epochs, with each surviving job's remaining
/// data shrinking ~3 % per epoch of age (work completed since arrival).
fn epoch_jobs(
    cluster: &Cluster,
    epoch: usize,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
) -> Vec<LpJob> {
    let first = (epoch / churn_every.max(1)) * churn;
    (first..first + base_jobs)
        .map(|k| {
            // Epoch the sliding window first reached job k.
            let arrived = if k < base_jobs {
                0
            } else {
                ((k - base_jobs) / churn.max(1) + 1) * churn_every.max(1)
            };
            let age = epoch.saturating_sub(arrived);
            let remaining = 0.97f64.powi(age as i32).max(0.25);
            LpJob {
                id: JobId(k),
                data: Some(DataId(k)),
                size_mb: 2048.0 * remaining,
                tcp: 1.0,
                fixed_ecu: 0.0,
                avail: vec![(StoreId(k % cluster.num_stores()), 1.0)],
            }
        })
        .collect()
}

/// The epoch LP over `jobs` on `cluster`: a 600 s epoch with the fake
/// node, data moves, and the large-cluster candidate pruning.
fn epoch_instance(cluster: &Cluster, jobs: Vec<LpJob>) -> LpInstance<'_> {
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

/// The objective-parity oracle: `epochs` consecutive Fig-4 solves on
/// `cluster`, each epoch's full model cold on the primal simplex and
/// certified. An epoch whose solve fails is recorded as degraded.
pub fn run_cold(
    cluster: &Cluster,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
    epochs: usize,
) -> EpochRun {
    let records = (0..epochs)
        .map(|e| {
            let inst = epoch_instance(
                cluster,
                epoch_jobs(cluster, e, base_jobs, churn, churn_every),
            );
            #[expect(clippy::disallowed_methods, reason = "bench timing, reported only")]
            let t = Instant::now();
            let mut record = match solve_full(&inst) {
                Ok(report) => EpochRecord::from_solve_report(
                    e,
                    inst.jobs.len(),
                    EpochOutcome::CertifiedCold,
                    &report,
                    false,
                ),
                Err(err) => EpochRecord {
                    failed_rungs: vec![format!("cold: {err}")],
                    ..EpochRecord::degraded(e, inst.jobs.len())
                },
            };
            record.epoch_ms = t.elapsed().as_secs_f64() * 1e3;
            record
        })
        .collect();
    EpochRun::from_records("cold", records)
}

/// Run `epochs` consecutive Fig-4 epochs on `cluster` through
/// [`LipsScheduler::solve_epoch`] and return the scheduler's own records.
pub fn run_epochs(
    cluster: &Cluster,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
    epochs: usize,
) -> EpochRun {
    let mut sched = LipsScheduler::new(SchedulerConfig::default());
    for e in 0..epochs {
        let jobs = epoch_jobs(cluster, e, base_jobs, churn, churn_every);
        sched.solve_epoch(&epoch_instance(cluster, jobs));
    }
    EpochRun::from_records("colgen", sched.epoch_records().to_vec())
}

/// One scripted LP-level fault, applied at the *start* of an epoch before
/// its model is built.
#[derive(Debug, Clone, Copy)]
pub enum EpochFault {
    /// Machine index loses all capacity (`tp_ecu = 0`).
    Revoke(usize),
    /// A previously revoked machine index returns at full capacity.
    Rejoin(usize),
    /// Machine index is repriced to a new `$ / ECU-second`.
    Reprice(usize, f64),
    /// Store index drops out of every job's availability list (its
    /// replicas are gone; surviving replicas carry the coverage).
    LoseStore(usize),
}

/// Faults keyed by the epoch they strike at.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    pub events: Vec<(usize, EpochFault)>,
}

impl FaultScript {
    /// The acceptance-criterion script: three machine revocations, one
    /// store loss, one repricing, and one rejoin spread over the run.
    /// Events deliberately avoid the churn epochs (every `churn_every`-th
    /// epoch swaps jobs and advances the window): an epoch that takes both
    /// a fault and a job swap is dominated by churn damage that every
    /// solver pays identically, which would confound the fault-re-solve
    /// measurement the script exists to make.
    pub fn acceptance(cluster: &Cluster) -> Self {
        let n = cluster.machines.len();
        FaultScript {
            events: vec![
                (3, EpochFault::Revoke(n / 4)),
                (6, EpochFault::LoseStore(0)),
                (8, EpochFault::Revoke(n / 2)),
                (
                    9,
                    EpochFault::Reprice(n - 1, cluster.machines[n - 1].cpu_cost * 1.5),
                ),
                (12, EpochFault::Revoke(3 * n / 4)),
                (17, EpochFault::Rejoin(n / 4)),
            ],
        }
    }
}

/// A cluster under a [`FaultScript`]: the surviving machines and the lost
/// stores after the faults struck so far.
struct FaultedCluster {
    live: Cluster,
    /// Capacity of each revoked machine, restored on rejoin.
    revoked_tp: BTreeMap<usize, f64>,
    lost_stores: Vec<usize>,
}

impl FaultedCluster {
    fn new(cluster: &Cluster) -> Self {
        FaultedCluster {
            live: cluster.clone(),
            revoked_tp: BTreeMap::new(),
            lost_stores: Vec::new(),
        }
    }

    /// Apply one fault; returns its description, or `None` when it
    /// changed nothing (revoking a dead machine, rejoining a live one).
    fn strike(&mut self, fault: EpochFault) -> Option<String> {
        match fault {
            EpochFault::Revoke(m) => {
                let tp = self.live.machines[m].tp_ecu;
                (tp > 0.0).then(|| {
                    self.revoked_tp.insert(m, tp);
                    self.live.machines[m].tp_ecu = 0.0;
                    format!("revoke m{m}")
                })
            }
            EpochFault::Rejoin(m) => self.revoked_tp.remove(&m).map(|tp| {
                self.live.machines[m].tp_ecu = tp;
                format!("rejoin m{m}")
            }),
            EpochFault::Reprice(m, cost) => {
                self.live.machines[m].cpu_cost = cost;
                Some(format!("reprice m{m} to {cost:.2e}"))
            }
            EpochFault::LoseStore(s) => {
                self.lost_stores.push(s);
                Some(format!("lose s{s}"))
            }
        }
    }

    /// Job set of epoch `e`: the same sliding window as [`run_epochs`]
    /// but with **two** full replica holders per job (the HDFS
    /// replication the fault story requires) minus any lost stores.
    fn jobs(&self, epoch: usize, base_jobs: usize, churn: usize, churn_every: usize) -> Vec<LpJob> {
        let stores = self.live.num_stores();
        epoch_jobs(&self.live, epoch, base_jobs, churn, churn_every)
            .into_iter()
            .map(|mut j| {
                let primary = j.avail[0].0;
                let replica = StoreId((primary.0 + stores / 2 + 1) % stores);
                j.avail = [primary, replica]
                    .into_iter()
                    .filter(|s| !self.lost_stores.contains(&s.0))
                    .map(|s| (s, 1.0))
                    .collect();
                j
            })
            .collect()
    }
}

/// The fault-mode epoch sequence recorded into `BENCH_lp_epoch.json` by
/// `lp_bench --faults`: the scheduler's records plus, per epoch, what
/// struck it.
#[derive(Debug, Clone, Serialize)]
pub struct FaultEpochRun {
    /// The scheduler's records over the faulted sequence, with the same
    /// totals as a plain series (`"faults_colgen"`).
    pub run: EpochRun,
    /// Per epoch: the faults that struck it (empty on quiet epochs).
    pub events: Vec<Vec<String>>,
    pub revocations: usize,
    pub rejoins: usize,
    pub repricings: usize,
    pub store_losses: usize,
}

/// Run `epochs` consecutive Fig-4 epochs through
/// [`LipsScheduler::solve_epoch`] with `script`'s faults injected. The
/// scheduler carries its state across each topology change and degrades
/// an epoch it cannot solve; this driver only applies the faults and
/// reads the records.
pub fn run_epochs_faulted(
    cluster: &Cluster,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
    epochs: usize,
    script: &FaultScript,
) -> FaultEpochRun {
    let mut faulted = FaultedCluster::new(cluster);
    let mut sched = LipsScheduler::new(SchedulerConfig::default());
    let mut events = Vec::with_capacity(epochs);
    let (mut revocations, mut rejoins, mut repricings, mut store_losses) = (0, 0, 0, 0);
    for e in 0..epochs {
        let mut struck = Vec::new();
        for &(_, fault) in script.events.iter().filter(|&&(at, _)| at == e) {
            let Some(what) = faulted.strike(fault) else {
                continue;
            };
            *match fault {
                EpochFault::Revoke(_) => &mut revocations,
                EpochFault::Rejoin(_) => &mut rejoins,
                EpochFault::Reprice(..) => &mut repricings,
                EpochFault::LoseStore(_) => &mut store_losses,
            } += 1;
            struck.push(what);
        }
        let inst = epoch_instance(
            &faulted.live,
            faulted.jobs(e, base_jobs, churn, churn_every),
        );
        sched.solve_epoch(&inst);
        events.push(struck);
    }
    FaultEpochRun {
        run: EpochRun::from_records("faults_colgen", sched.epoch_records().to_vec()),
        events,
        revocations,
        rejoins,
        repricings,
        store_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::ec2_mixed_cluster;

    fn assert_same_optima(oracle: &[EpochRecord], run: &[EpochRecord], what: &str) {
        assert_eq!(oracle.len(), run.len());
        for (a, b) in oracle.iter().zip(run) {
            assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "epoch {}: cold {} vs {what} {}",
                a.epoch,
                a.objective,
                b.objective
            );
        }
    }

    #[test]
    fn faulted_sequence_accounts_for_every_epoch() {
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let script = FaultScript {
            events: vec![
                (1, EpochFault::Revoke(4)),
                (2, EpochFault::LoseStore(0)),
                (3, EpochFault::Revoke(9)),
                (
                    4,
                    EpochFault::Reprice(1, cluster.machines[1].cpu_cost * 2.0),
                ),
                (5, EpochFault::Rejoin(4)),
            ],
        };
        let faults = run_epochs_faulted(&cluster, 8, 1, 3, 6, &script);
        assert_eq!(faults.revocations, 2);
        assert_eq!(faults.rejoins, 1);
        assert_eq!(faults.repricings, 1);
        assert_eq!(faults.store_losses, 1);
        let run = &faults.run;
        assert_eq!(run.epochs.len(), 6);
        // Every epoch certified or explicitly degraded; this small script
        // leaves the cluster solvable, so all must certify.
        for (r, events) in run.epochs.iter().zip(&faults.events) {
            assert!(
                r.certified ^ (r.outcome == "Degraded"),
                "epoch {} unaccounted",
                r.epoch
            );
            assert!(r.certified, "epoch {} degraded: {events:?}", r.epoch);
        }
        // The carried state kept warm-starting alive across the faults (a
        // structural break may legitimately fall back to cold, but the
        // majority of post-fault epochs must still reuse their basis).
        assert!(run.warm_solves >= 3, "only {} warm epochs", run.warm_solves);
        // The master serves a fault epoch from the carried basis.
        assert!(
            run.epochs
                .iter()
                .zip(&faults.events)
                .any(|(r, events)| !events.is_empty() && r.warm == "Dual"),
            "the master never re-solved a fault epoch from its carried basis"
        );
        // Same models, same optima as a cold solve of each faulted epoch.
        let mut faulted = FaultedCluster::new(&cluster);
        let cold: Vec<EpochRecord> = (0..6)
            .map(|e| {
                for &(_, fault) in script.events.iter().filter(|&&(at, _)| at == e) {
                    faulted.strike(fault);
                }
                let inst = epoch_instance(&faulted.live, faulted.jobs(e, 8, 1, 3));
                let report = solve_full(&inst).unwrap();
                EpochRecord::from_solve_report(e, 8, EpochOutcome::CertifiedCold, &report, false)
            })
            .collect();
        assert_same_optima(&cold, &run.epochs, "faults");
    }

    #[test]
    fn scheduler_series_are_bitwise_identical_run_to_run() {
        // Every epoch of the colgen and fault series — objective bits
        // included — must be identical when the series is run again.
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let script = FaultScript {
            events: vec![
                (1, EpochFault::Revoke(4)),
                (2, EpochFault::LoseStore(0)),
                (5, EpochFault::Rejoin(4)),
            ],
        };
        let series = || {
            [
                run_epochs(&cluster, 8, 1, 3, 6),
                run_epochs_faulted(&cluster, 8, 1, 3, 6, &script).run,
            ]
        };
        for (s, w) in series().iter().zip(series()) {
            assert_eq!(s.epochs.len(), w.epochs.len());
            for (a, b) in s.epochs.iter().zip(&w.epochs) {
                let at = format!("{} epoch {}", s.mode, a.epoch);
                assert_eq!(
                    a.objective.to_bits(),
                    b.objective.to_bits(),
                    "{at}: {} vs {}",
                    a.objective,
                    b.objective
                );
                assert_eq!(a.iterations, b.iterations, "{at}");
                assert_eq!(a.dual_pivots, b.dual_pivots, "{at}");
                assert_eq!(a.bound_flips, b.bound_flips, "{at}");
                assert_eq!(a.warm, b.warm, "{at}");
                assert_eq!(a.pricing_rounds, b.pricing_rounds, "{at}");
            }
        }
    }

    #[test]
    fn colgen_sequence_matches_full_model_optima() {
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let cold = run_cold(&cluster, 8, 1, 3, 6);
        let cg = run_epochs(&cluster, 8, 1, 3, 6);
        assert!(cold.all_certified && cg.all_certified);
        assert_eq!(cold.warm_solves, 0);
        // The first epoch has nothing carried: the master's dual starts
        // from the slack basis — cold, with dual pivots and no phase 1.
        let first = &cg.epochs[0];
        assert_eq!(first.warm, "Cold");
        assert_eq!(first.phase1_iterations, 0);
        assert!(first.dual_pivots > 0);
        // The steady-state epochs (no churn) re-solve the master from the
        // carried basis, in fewer pivots than the cold oracle.
        let dual_served = cg.epochs.iter().filter(|r| r.warm == "Dual").count();
        assert!(dual_served >= 2, "only {dual_served} epochs dual-resolved");
        assert!(cg.total_iterations < cold.total_iterations);
        // Every master round is a dual solve with no phase 1: a walk
        // declined mid-way restarts from the slack basis, not the primal.
        for r in &cg.epochs {
            assert_eq!(r.phase1_iterations, 0, "epoch {}", r.epoch);
        }
        assert!(cg.active_column_share < 1.0, "master never shrank");
        assert!(cg.total_pricing_rounds >= cg.epochs.len());
        assert_same_optima(&cold.epochs, &cg.epochs, "colgen");
        for r in &cg.epochs {
            assert!(r.active_columns <= r.total_columns);
        }
        // The per-phase clocks are populated and consistent in every mode:
        // build/solve/certify are each nonzero somewhere and sum to no
        // more than the whole-epoch wall-time.
        for run in [&cold, &cg] {
            assert!(
                run.total_build_ms > 0.0,
                "{}: build phase unmetered",
                run.mode
            );
            assert!(
                run.total_solve_ms > 0.0,
                "{}: solve phase unmetered",
                run.mode
            );
            assert!(
                run.total_certify_ms > 0.0,
                "{}: certify phase unmetered",
                run.mode
            );
            for r in &run.epochs {
                assert!(
                    r.build_ms + r.solve_ms + r.certify_ms <= r.epoch_ms * 1.05 + 1.0,
                    "{} epoch {}: phases {}+{}+{} exceed wall {}",
                    run.mode,
                    r.epoch,
                    r.build_ms,
                    r.solve_ms,
                    r.certify_ms,
                    r.epoch_ms
                );
            }
        }
    }
}
