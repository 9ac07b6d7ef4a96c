//! The 20-epoch cold/warm/colgen LP workload behind `BENCH_lp_epoch.json`.
//!
//! Models the scheduler's steady state. A LiPS epoch is ~2000 s and the
//! Table-IV jobs run for hours, so consecutive epochs almost always see
//! the *same* job set with shrinking remaining data (transfers and maps
//! completed last epoch), and only occasionally a departure + arrival.
//! The sequence here mirrors that: sizes decay a few percent per epoch of
//! a job's age, and every `churn_every` epochs `churn` jobs complete and
//! are replaced by fresh ones. Four solve policies are compared:
//!
//! * [`EpochMode::Cold`] — each epoch's full model from scratch;
//! * [`EpochMode::Warm`] — full model, chaining each epoch's optimal basis
//!   into the next ([`EpochSolver::warm`]);
//! * [`EpochMode::ColGen`] — a column-generated restricted master
//!   ([`EpochSolver::colgen`]) carrying the surviving active columns *and*
//!   the basis across epochs;
//! * [`EpochMode::Dual`] — the bounded dual simplex from the carried
//!   basis, warm primal when the walk is declined.
//!
//! Every epoch is KKT-certified in all modes (the restricted modes
//! against the **full** model, excluded columns priced), so the
//! comparison can never trade correctness for speed.
//!
//! [`run_epochs_faulted`] additionally scripts mid-sequence machine
//! revocations, rejoins, repricings, and a store loss into the epoch loop
//! — the LP-level half of the fault story: the chained basis is repaired
//! (dead-machine rows/columns dropped) instead of discarded, and every
//! epoch must end certified against the *surviving* cluster or be
//! explicitly recorded as degraded.

use std::collections::HashMap;
use std::time::Instant;

use lips_cluster::{ec2_mixed_cluster, Cluster, DataId, StoreId};
use lips_core::lp_build::{
    sanitize_warm_start, ColGenOptions, ColGenState, EpochSolveError, EpochSolver, LpInstance,
    LpJob, PruneConfig,
};
pub use lips_core::EpochRecord;
use lips_lp::{LpError, WarmOutcome, WarmStart};
use lips_workload::JobId;
use serde::Serialize;

/// Epoch count used by the benchmark and the acceptance gate.
pub const EPOCHS: usize = 20;

/// The large-cluster configuration of the acceptance criterion: 100 nodes,
/// 40 % c1.medium, Fig-6 three-zone layout.
pub fn large_cluster() -> Cluster {
    ec2_mixed_cluster(100, 0.4, 1e9, 1)
}

/// How consecutive epoch LPs are solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// Full model, cold start every epoch.
    Cold,
    /// Full model, warm-started from the previous epoch's basis.
    Warm,
    /// Column-generated restricted master with cross-epoch column + basis
    /// reuse.
    ColGen,
    /// The churn fast path: bounded dual-simplex re-solve from the
    /// previous epoch's basis ([`EpochSolver::dual`]), or from the slack
    /// basis on the first epoch, falling back to the warm primal when the
    /// walk is declined.
    Dual,
}

impl EpochMode {
    fn label(self) -> &'static str {
        match self {
            EpochMode::Cold => "cold",
            EpochMode::Warm => "warm",
            EpochMode::ColGen => "colgen",
            EpochMode::Dual => "dual",
        }
    }
}

// One epoch's solver telemetry is recorded on the workspace-wide stable
// schema, `lips_core::EpochRecord` (re-exported above): the same shape the
// online scheduler logs per decision epoch and the serve daemon exposes
// over its metrics endpoint. Bench-specific semantics of shared fields:
// `outcome` holds the [`EpochMode`] label (the rung is *chosen* here, not
// discovered by a ladder), `epoch_ms` is the honest whole-call wall-time
// (build + solve + pricing + certification, metered around the call rather
// than summed from phase timings), and `incremental` means the mode
// re-used carried state — a chained basis that warmed, or carried
// colgen state.

/// A full epoch sequence under one starting policy.
#[derive(Debug, Clone, Serialize)]
pub struct EpochRun {
    pub mode: String,
    pub epochs: Vec<EpochRecord>,
    pub total_iterations: usize,
    pub total_solve_ms: f64,
    /// Solver-metered model-construction wall-time summed over epochs.
    pub total_build_ms: f64,
    /// Solver-metered certification wall-time summed over epochs.
    pub total_certify_ms: f64,
    /// Build + solve + certify wall-time summed over epochs.
    pub total_epoch_ms: f64,
    pub total_ftran_nnz: u64,
    pub total_pricing_rounds: usize,
    /// Epochs that actually started from the previous basis (warm/colgen
    /// modes; the first epoch is always cold).
    pub warm_solves: usize,
    /// Mean `active_columns / total_columns` across epochs (1.0 for the
    /// full-model modes). The acceptance gate wants ≤ 0.5 for colgen.
    pub active_column_share: f64,
    pub all_certified: bool,
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

/// Apply an explicit worker count to a solver (`0` keeps the default).
fn with_width<'a, 'b>(s: EpochSolver<'a, 'b>, threads: usize) -> EpochSolver<'a, 'b> {
    if threads > 0 {
        s.threads(threads)
    } else {
        s
    }
}

/// Run `epochs` consecutive Fig-4 solves on `cluster` under `mode`.
///
/// `threads` sets the worker count for model build, pricing, and
/// certification (`0` keeps [`EpochSolver`]'s default: `LIPS_THREADS` or
/// the host parallelism). The solve is bitwise identical at any width.
pub fn run_epochs(
    cluster: &Cluster,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
    epochs: usize,
    mode: EpochMode,
    threads: usize,
) -> EpochRun {
    let mut basis: Option<WarmStart> = None;
    let mut colgen_state: Option<ColGenState> = None;
    let mut share_sum = 0.0;
    let mut out = EpochRun {
        mode: mode.label().to_string(),
        epochs: Vec::with_capacity(epochs),
        total_iterations: 0,
        total_solve_ms: 0.0,
        total_build_ms: 0.0,
        total_certify_ms: 0.0,
        total_epoch_ms: 0.0,
        total_ftran_nnz: 0,
        total_pricing_rounds: 0,
        warm_solves: 0,
        active_column_share: 1.0,
        all_certified: true,
    };
    for e in 0..epochs {
        let jobs = epoch_jobs(cluster, e, base_jobs, churn, churn_every);
        let n_jobs = jobs.len();
        let inst = LpInstance {
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
        };
        let t = Instant::now();
        let (sched, certified, active, total, rounds, timings) = match mode {
            EpochMode::Cold | EpochMode::Warm => {
                let seed = if mode == EpochMode::Warm {
                    basis.as_ref()
                } else {
                    None
                };
                let report = with_width(EpochSolver::new(&inst), threads)
                    .warm(seed)
                    .certify()
                    .run()
                    .expect("epoch LP solves");
                let certified = report
                    .certificate
                    .as_ref()
                    .expect("certification was requested")
                    .is_optimal();
                basis = Some(report.basis);
                (report.schedule, certified, 0, 0, 1, report.timings)
            }
            EpochMode::Dual => {
                // Dual solve from the carried basis (from the slack basis
                // on the first epoch or when the carried one is declined
                // at seeding); when the walk is declined mid-way the warm
                // primal takes over, and the
                // decline stays on the record — exactly the scheduler's
                // ladder.
                let mut declined = None;
                let mut report = with_width(EpochSolver::new(&inst), threads)
                    .warm(basis.as_ref())
                    .dual()
                    .certify()
                    .run()
                    .or_else(|e| {
                        if let EpochSolveError::Lp(LpError::DualDeclined(d)) = e {
                            declined = Some(d);
                        }
                        with_width(EpochSolver::new(&inst), threads)
                            .warm(basis.as_ref())
                            .certify()
                            .run()
                    })
                    .expect("epoch LP solves");
                report.schedule.stats.declined = report.schedule.stats.declined.or(declined);
                let certified = report
                    .certificate
                    .as_ref()
                    .expect("certification was requested")
                    .is_optimal();
                basis = Some(report.basis);
                (report.schedule, certified, 0, 0, 1, report.timings)
            }
            EpochMode::ColGen => {
                let report = with_width(EpochSolver::new(&inst), threads)
                    .colgen(ColGenOptions::default(), colgen_state.as_ref())
                    .run()
                    .expect("epoch LP solves");
                let certified = report
                    .certificate
                    .as_ref()
                    .expect("colgen mode always certifies")
                    .is_optimal();
                let (state, stats) = report.colgen.expect("colgen mode carries state");
                colgen_state = Some(state);
                (
                    report.schedule,
                    certified,
                    stats.active_columns,
                    stats.total_columns,
                    stats.rounds,
                    report.timings,
                )
            }
        };
        let epoch_ms = t.elapsed().as_secs_f64() * 1e3;

        // Cold/warm/dual solve the full model: active = total by
        // definition. The restricted modes report their own counts.
        let (active, total) = if mode == EpochMode::ColGen {
            (active, total)
        } else {
            let full = lp_build_columns(&inst);
            (full, full)
        };
        share_sum += if total > 0 {
            active as f64 / total as f64
        } else {
            1.0
        };

        let stats = sched.stats;
        if stats.warm != WarmOutcome::Cold {
            out.warm_solves += 1;
        }
        out.total_iterations += stats.iterations;
        out.total_solve_ms += stats.solve_ms;
        out.total_build_ms += timings.build_ms;
        out.total_certify_ms += timings.certify_ms;
        out.total_epoch_ms += epoch_ms;
        out.total_ftran_nnz += stats.ftran_nnz;
        out.total_pricing_rounds += rounds;
        out.all_certified &= certified;
        let incremental = e > 0
            && match mode {
                EpochMode::Cold => false,
                EpochMode::Warm | EpochMode::Dual => stats.warm != WarmOutcome::Cold,
                EpochMode::ColGen => true,
            };
        out.epochs.push(
            EpochRecord {
                epoch: e,
                jobs: n_jobs,
                outcome: mode.label().to_string(),
                warm: format!("{:?}", stats.warm),
                iterations: stats.iterations,
                phase1_iterations: stats.phase1_iterations,
                refactors: stats.refactors,
                ftran_nnz: stats.ftran_nnz,
                dual_pivots: stats.dual_pivots,
                bound_flips: stats.bound_flips,
                pricing_rounds: rounds,
                active_columns: active,
                total_columns: total,
                presolve_removed: 0,
                build_ms: timings.build_ms,
                solve_ms: stats.solve_ms,
                certify_ms: timings.certify_ms,
                epoch_ms,
                objective: sched.predicted_dollars,
                certified,
                incremental,
                declined: String::new(),
                declined_pivots: 0,
            }
            .with_declined(stats.declined),
        );
    }
    if epochs > 0 {
        out.active_column_share = share_sum / epochs as f64;
    }
    out
}

/// Task-column count of the full (pruned) model for an instance — the
/// denominator of the colgen active-share metric.
fn lp_build_columns(inst: &LpInstance<'_>) -> usize {
    lips_core::lp_build::count_task_columns(inst)
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

/// One epoch of the fault-mode series.
#[derive(Debug, Clone, Serialize)]
pub struct FaultEpochRecord {
    pub epoch: usize,
    pub jobs: usize,
    /// Faults that struck at this epoch (human-readable).
    pub events: Vec<String>,
    /// Warm-start entries dropped while repairing the chained basis
    /// against the surviving cluster.
    pub repaired: usize,
    pub iterations: usize,
    /// `"Cold"`, `"Warm"`, `"WarmRepaired"`, or `"Dual"`.
    pub warm: String,
    /// Dual-simplex pivots (0 unless the dual rung served this epoch).
    pub dual_pivots: usize,
    /// Nonbasic bound flips by the dual solver.
    pub bound_flips: usize,
    /// Head-to-head control (dual ladder, fault epochs only): iterations
    /// the repaired-warm *primal* rung spends on this exact model from
    /// this exact incoming basis. `None` on non-fault epochs, on the
    /// baseline ladder, or when the probe solve failed.
    pub primal_iterations: Option<usize>,
    pub solve_ms: f64,
    pub epoch_ms: f64,
    pub objective: f64,
    /// KKT-certified optimal against the surviving cluster.
    pub certified: bool,
    /// Every LP rung failed; the epoch fell off the ladder.
    pub degraded: bool,
}

/// The fault-mode epoch sequence summary recorded into
/// `BENCH_lp_epoch.json` by `lp_bench --faults`.
#[derive(Debug, Clone, Serialize)]
pub struct FaultEpochRun {
    pub epochs: Vec<FaultEpochRecord>,
    pub revocations: usize,
    pub rejoins: usize,
    pub repricings: usize,
    pub store_losses: usize,
    pub total_iterations: usize,
    pub total_epoch_ms: f64,
    /// Epochs that started from the (possibly repaired) previous basis.
    pub warm_solves: usize,
    /// Epochs served by the dual-simplex rung (only with the dual ladder).
    pub dual_solves: usize,
    pub certified_epochs: usize,
    pub degraded_epochs: usize,
    /// Every epoch either certified or explicitly degraded — the
    /// acceptance criterion. Always true by construction; serialized so
    /// the JSON is self-describing.
    pub all_accounted: bool,
}

/// Job set of epoch `e` in fault mode: same sliding window as
/// [`run_epochs`] but with **two** full replica holders per job (the HDFS
/// replication the fault story requires) minus any lost stores.
fn fault_epoch_jobs(
    cluster: &Cluster,
    epoch: usize,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
    lost_stores: &[usize],
) -> Vec<LpJob> {
    let stores = cluster.num_stores();
    epoch_jobs(cluster, epoch, base_jobs, churn, churn_every)
        .into_iter()
        .map(|mut j| {
            let primary = j.avail[0].0;
            let replica = StoreId((primary.0 + stores / 2 + 1) % stores);
            j.avail = [primary, replica]
                .into_iter()
                .filter(|s| !lost_stores.contains(&s.0))
                .map(|s| (s, 1.0))
                .collect();
            j
        })
        .collect()
}

/// Run `epochs` consecutive Fig-4 solves with `script`'s faults injected,
/// chaining (and repairing) the warm basis across topology changes.
///
/// Degradation ladder per epoch: dual re-solve from the repaired basis
/// (only with `dual`) → repaired-warm exact → cold exact → recorded as
/// degraded. Never panics on a solvable-cluster script. `dual = false` is
/// the PR-4 baseline ladder, kept so `lp_bench` can measure how many
/// simplex iterations the dual rung saves on exactly the same fault
/// script.
#[allow(clippy::too_many_arguments)] // a benchmark entry point, not an API
pub fn run_epochs_faulted(
    cluster: &Cluster,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
    epochs: usize,
    script: &FaultScript,
    threads: usize,
    dual: bool,
) -> FaultEpochRun {
    let mut live = cluster.clone();
    let mut revoked_tp: HashMap<usize, f64> = HashMap::new();
    let mut lost_stores: Vec<usize> = Vec::new();
    let mut basis: Option<WarmStart> = None;
    let mut out = FaultEpochRun {
        epochs: Vec::with_capacity(epochs),
        revocations: 0,
        rejoins: 0,
        repricings: 0,
        store_losses: 0,
        total_iterations: 0,
        total_epoch_ms: 0.0,
        warm_solves: 0,
        dual_solves: 0,
        certified_epochs: 0,
        degraded_epochs: 0,
        all_accounted: true,
    };
    for e in 0..epochs {
        let mut events = Vec::new();
        for &(at, fault) in &script.events {
            if at != e {
                continue;
            }
            match fault {
                EpochFault::Revoke(m) => {
                    let tp = live.machines[m].tp_ecu;
                    if tp > 0.0 {
                        revoked_tp.insert(m, tp);
                        live.machines[m].tp_ecu = 0.0;
                        out.revocations += 1;
                        events.push(format!("revoke m{m}"));
                    }
                }
                EpochFault::Rejoin(m) => {
                    if let Some(tp) = revoked_tp.remove(&m) {
                        live.machines[m].tp_ecu = tp;
                        out.rejoins += 1;
                        events.push(format!("rejoin m{m}"));
                    }
                }
                EpochFault::Reprice(m, cost) => {
                    live.machines[m].cpu_cost = cost;
                    out.repricings += 1;
                    events.push(format!("reprice m{m} to {cost:.2e}"));
                }
                EpochFault::LoseStore(s) => {
                    lost_stores.push(s);
                    out.store_losses += 1;
                    events.push(format!("lose s{s}"));
                }
            }
        }

        let jobs = fault_epoch_jobs(&live, e, base_jobs, churn, churn_every, &lost_stores);
        let n_jobs = jobs.len();
        let inst = LpInstance {
            cluster: &live,
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
        };
        // Repair the chained basis against the surviving cluster instead
        // of cold-restarting: drop rows/columns naming dead machines.
        let repaired = match basis.as_mut() {
            Some(ws) => sanitize_warm_start(ws, &live),
            None => 0,
        };
        // Head-to-head probe: on fault epochs the dual ladder also solves
        // the same model from the same repaired basis with the primal
        // rung, so the recorded ratio compares the two methods on
        // identical inputs instead of across divergent chains. Runs
        // outside the timed section and never touches the chained basis.
        let primal_iterations = if dual && !events.is_empty() {
            with_width(EpochSolver::new(&inst), threads)
                .warm(basis.as_ref())
                .certify()
                .run()
                .ok()
                .map(|r| r.schedule.stats.iterations)
        } else {
            None
        };
        let t = Instant::now();
        let solved = if dual {
            with_width(EpochSolver::new(&inst), threads)
                .warm(basis.as_ref())
                .dual()
                .certify()
                .run()
                .or_else(|_| {
                    with_width(EpochSolver::new(&inst), threads)
                        .warm(basis.as_ref())
                        .certify()
                        .run()
                })
                .or_else(|_| with_width(EpochSolver::new(&inst), threads).certify().run())
        } else {
            with_width(EpochSolver::new(&inst), threads)
                .warm(basis.as_ref())
                .certify()
                .run()
                .or_else(|_| with_width(EpochSolver::new(&inst), threads).certify().run())
        };
        let epoch_ms = t.elapsed().as_secs_f64() * 1e3;
        out.total_epoch_ms += epoch_ms;
        match solved {
            Ok(report) => {
                let certified = report
                    .certificate
                    .as_ref()
                    .expect("certification was requested")
                    .is_optimal();
                let stats = report.schedule.stats;
                if stats.warm != WarmOutcome::Cold {
                    out.warm_solves += 1;
                }
                if stats.warm == WarmOutcome::Dual {
                    out.dual_solves += 1;
                }
                out.total_iterations += stats.iterations;
                out.certified_epochs += usize::from(certified);
                out.degraded_epochs += usize::from(!certified);
                out.epochs.push(FaultEpochRecord {
                    epoch: e,
                    jobs: n_jobs,
                    events,
                    repaired,
                    iterations: stats.iterations,
                    warm: format!("{:?}", stats.warm),
                    dual_pivots: stats.dual_pivots,
                    bound_flips: stats.bound_flips,
                    primal_iterations,
                    solve_ms: stats.solve_ms,
                    epoch_ms,
                    objective: report.schedule.predicted_dollars,
                    certified,
                    degraded: !certified,
                });
                basis = Some(report.basis);
            }
            Err(_) => {
                // Both exact rungs failed: record the epoch as degraded
                // (the simulator's ladder would place greedily here) and
                // drop the basis so the next epoch restarts cleanly.
                out.degraded_epochs += 1;
                out.epochs.push(FaultEpochRecord {
                    epoch: e,
                    jobs: n_jobs,
                    events,
                    repaired,
                    iterations: 0,
                    warm: "Cold".to_string(),
                    dual_pivots: 0,
                    bound_flips: 0,
                    primal_iterations,
                    solve_ms: 0.0,
                    epoch_ms,
                    objective: 0.0,
                    certified: false,
                    degraded: true,
                });
                basis = None;
            }
        }
    }
    out
}

/// Total simplex iterations spent on the epochs where fault events
/// actually struck — a chain-level summary of how much each ladder paid
/// for the script's damage (the two ladders' chains diverge, so this is
/// context, not a controlled comparison; see [`dual_fault_head_to_head`]).
pub fn fault_epoch_iterations(run: &FaultEpochRun) -> usize {
    run.epochs
        .iter()
        .filter(|r| !r.events.is_empty())
        .map(|r| r.iterations)
        .sum()
}

/// The controlled fault-re-solve comparison from a dual-ladder run:
/// `(primal_iterations, dual_iterations)` summed over the fault epochs the
/// dual rung served, where both methods solved the *same* model from the
/// *same* repaired incoming basis (the head-to-head probe). This is the
/// numerator/denominator of `lp_bench`'s `dual_fault_iteration_ratio`.
/// `None` when the run has no dual-served fault epoch with a probe.
pub fn dual_fault_head_to_head(run: &FaultEpochRun) -> Option<(usize, usize)> {
    let pairs: Vec<(usize, usize)> = run
        .epochs
        .iter()
        .filter(|r| !r.events.is_empty() && r.warm == "Dual")
        .filter_map(|r| r.primal_iterations.map(|p| (p, r.iterations)))
        .collect();
    if pairs.is_empty() {
        return None;
    }
    Some(pairs.iter().fold((0, 0), |(a, b), &(p, d)| (a + p, b + d)))
}

/// One width of the thread-scaling series: the colgen epoch sequence
/// (build + pricing + certification — every parallelised stage) re-run at
/// a fixed worker count.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadScalingPoint {
    pub threads: usize,
    /// Build + solve + price + certify wall-time summed over epochs.
    pub total_epoch_ms: f64,
    /// Simplex-only wall-time (serial in every width; a sanity baseline —
    /// the scaling headroom is `total_epoch_ms − total_solve_ms`).
    pub total_solve_ms: f64,
    /// `1-thread total_epoch_ms ÷ this width's` (higher = faster).
    pub speedup_vs_serial: f64,
    /// Every epoch's objective is **bitwise** equal to the 1-thread run's
    /// and the certificate verdicts match — the determinism contract,
    /// checked on the real workload rather than assumed.
    pub identical_to_serial: bool,
}

/// Run the colgen epoch sequence once per width in `widths` and compare
/// every run against the first (serial) one bit-for-bit.
///
/// The first entry of `widths` should be `1`; its `speedup_vs_serial` is
/// 1.0 by construction. On a single-core host the speedups will hover
/// around 1.0 — the point of the series is then the `identical_to_serial`
/// column, which must hold on any host.
pub fn thread_scaling(
    cluster: &Cluster,
    base_jobs: usize,
    churn: usize,
    churn_every: usize,
    epochs: usize,
    widths: &[usize],
) -> Vec<ThreadScalingPoint> {
    let mut serial: Option<EpochRun> = None;
    let mut out = Vec::with_capacity(widths.len());
    for &w in widths {
        let run = run_epochs(
            cluster,
            base_jobs,
            churn,
            churn_every,
            epochs,
            EpochMode::ColGen,
            w.max(1),
        );
        let baseline = serial.get_or_insert_with(|| run.clone());
        let identical = baseline.epochs.len() == run.epochs.len()
            && baseline.epochs.iter().zip(&run.epochs).all(|(a, b)| {
                a.objective.to_bits() == b.objective.to_bits()
                    && a.certified == b.certified
                    && a.active_columns == b.active_columns
                    && a.pricing_rounds == b.pricing_rounds
            });
        out.push(ThreadScalingPoint {
            threads: w.max(1),
            total_epoch_ms: run.total_epoch_ms,
            total_solve_ms: run.total_solve_ms,
            speedup_vs_serial: if run.total_epoch_ms > 0.0 {
                baseline.total_epoch_ms / run.total_epoch_ms
            } else {
                1.0
            },
            identical_to_serial: identical,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_sequence_chains_bases_and_certifies() {
        // Small config so the test stays fast; the full large-cluster
        // numbers are produced by the `lp_bench` binary.
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let cold = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::Cold, 1);
        let warm = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::Warm, 1);
        assert!(cold.all_certified && warm.all_certified);
        assert_eq!(cold.warm_solves, 0);
        assert!(
            warm.warm_solves >= 3,
            "only {}/4 possible epochs warm-started",
            warm.warm_solves
        );
        assert!(
            warm.total_iterations < cold.total_iterations,
            "warm {} vs cold {} iterations",
            warm.total_iterations,
            cold.total_iterations
        );
        // Same models, same optima regardless of starting basis.
        for (a, b) in cold.epochs.iter().zip(&warm.epochs) {
            assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "epoch {}: cold {} vs warm {}",
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
        let run = run_epochs_faulted(&cluster, 8, 1, 3, 6, &script, 1, false);
        assert_eq!(run.revocations, 2);
        assert_eq!(run.rejoins, 1);
        assert_eq!(run.repricings, 1);
        assert_eq!(run.store_losses, 1);
        assert_eq!(run.epochs.len(), 6);
        // Every epoch certified or explicitly degraded; this small script
        // leaves the cluster solvable, so all must certify.
        for r in &run.epochs {
            assert!(r.certified ^ r.degraded, "epoch {} unaccounted", r.epoch);
            assert!(r.certified, "epoch {} degraded: {:?}", r.epoch, r.events);
        }
        // The revocation epochs repaired the chained basis rather than
        // silently reusing rows for dead machines.
        assert!(
            run.epochs[1].repaired > 0 && run.epochs[3].repaired > 0,
            "revocation epochs must repair the basis: {:?}",
            run.epochs.iter().map(|r| r.repaired).collect::<Vec<_>>()
        );
        // And the repair kept warm-starting alive across the faults (a
        // structural break may legitimately fall back to cold, but the
        // majority of post-fault epochs must still reuse their basis).
        assert!(run.warm_solves >= 3, "only {} warm epochs", run.warm_solves);
    }

    #[test]
    fn dual_mode_is_bitwise_identical_across_thread_widths() {
        // The dual pivot loop is serial by design; threads parallelize the
        // model build, pricing, and certification around it. Every epoch
        // record — objective bits included — must be identical at any
        // width.
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let serial = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::Dual, 1);
        for threads in [2usize, 4] {
            let wide = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::Dual, threads);
            assert_eq!(serial.epochs.len(), wide.epochs.len());
            for (a, b) in serial.epochs.iter().zip(&wide.epochs) {
                assert_eq!(
                    a.objective.to_bits(),
                    b.objective.to_bits(),
                    "epoch {}: {} threads diverged bitwise ({} vs {})",
                    a.epoch,
                    threads,
                    a.objective,
                    b.objective
                );
                assert_eq!(a.iterations, b.iterations, "epoch {}", a.epoch);
                assert_eq!(a.dual_pivots, b.dual_pivots, "epoch {}", a.epoch);
                assert_eq!(a.bound_flips, b.bound_flips, "epoch {}", a.epoch);
                assert_eq!(a.warm, b.warm, "epoch {}", a.epoch);
            }
        }
    }

    #[test]
    fn dual_sequence_matches_optima_with_fewer_iterations() {
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let cold = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::Cold, 1);
        let dual = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::Dual, 1);
        assert!(dual.all_certified);
        // The steady-state epochs (no churn) must actually take the dual
        // rung from the carried basis.
        let dual_served = dual.epochs.iter().filter(|r| r.warm == "Dual").count();
        assert!(dual_served >= 2, "only {dual_served} epochs dual-resolved");
        // The first epoch has no basis: the dual starts from the slack
        // basis — cold, with dual pivots and no phase 1.
        let first = &dual.epochs[0];
        assert_eq!(first.warm, "Cold");
        assert_eq!(first.phase1_iterations, 0);
        assert!(first.dual_pivots > 0);
        // Every epoch is a dual solve with no phase 1, unless its walk was
        // declined mid-way: then the primal path served it, with no dual
        // pivots, and the record names the decline.
        for r in &dual.epochs {
            let walk_declined = r.declined == "Thrash" || r.declined_pivots > 0;
            if walk_declined {
                assert_eq!(r.dual_pivots, 0, "epoch {}", r.epoch);
            } else {
                assert_eq!(r.phase1_iterations, 0, "epoch {}", r.epoch);
            }
        }
        // Same models, same optima — the fast path is a path, not a model
        // change.
        assert!(dual.total_iterations < cold.total_iterations);
        for (a, b) in cold.epochs.iter().zip(&dual.epochs) {
            assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "epoch {}: cold {} vs dual {}",
                a.epoch,
                a.objective,
                b.objective
            );
        }
    }

    #[test]
    fn dual_fault_ladder_matches_baseline_and_saves_iterations() {
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        // Faults land off the churn epochs (0 and 3 here) for the same
        // reason as `FaultScript::acceptance`: a churn+fault compound
        // epoch measures churn damage, not fault recovery.
        let script = FaultScript {
            events: vec![
                (1, EpochFault::Revoke(4)),
                (
                    2,
                    EpochFault::Reprice(1, cluster.machines[1].cpu_cost * 2.0),
                ),
                (5, EpochFault::Rejoin(4)),
            ],
        };
        let base = run_epochs_faulted(&cluster, 8, 1, 3, 6, &script, 1, false);
        let dual = run_epochs_faulted(&cluster, 8, 1, 3, 6, &script, 1, true);
        assert_eq!(base.epochs.len(), dual.epochs.len());
        assert!(dual.dual_solves > 0, "the dual rung never served an epoch");
        assert_eq!(base.dual_solves, 0);
        for (a, b) in base.epochs.iter().zip(&dual.epochs) {
            assert!(a.certified && b.certified);
            assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "epoch {}: baseline {} vs dual-ladder {}",
                a.epoch,
                a.objective,
                b.objective
            );
        }
        assert!(
            dual.total_iterations <= base.total_iterations,
            "dual ladder cost extra pivots: {} vs {}",
            dual.total_iterations,
            base.total_iterations
        );
        // The headline savings are on the *fault* epochs themselves,
        // measured head-to-head: both methods solve the same model from
        // the same repaired basis, and the dual path must not lose.
        let (bf, df) = (fault_epoch_iterations(&base), fault_epoch_iterations(&dual));
        assert!(
            df <= bf,
            "fault-epoch dual re-solves cost extra: {df} vs {bf} chain iterations"
        );
        let (p, d) = dual_fault_head_to_head(&dual)
            .expect("no dual-served fault epoch carried a head-to-head probe");
        assert!(
            d * 2 <= p,
            "head-to-head: dual path spent {d} iterations vs primal's {p} on the same bases"
        );
    }

    #[test]
    fn colgen_sequence_matches_full_model_optima() {
        let cluster = ec2_mixed_cluster(20, 0.4, 1e9, 1);
        let cold = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::Cold, 1);
        let cg = run_epochs(&cluster, 8, 1, 3, 6, EpochMode::ColGen, 1);
        assert!(cg.all_certified);
        assert!(cg.active_column_share < 1.0, "master never shrank");
        assert!(cg.total_pricing_rounds >= cg.epochs.len());
        for (a, b) in cold.epochs.iter().zip(&cg.epochs) {
            assert!(
                (a.objective - b.objective).abs() <= 1e-6 * (1.0 + a.objective.abs()),
                "epoch {}: cold {} vs colgen {}",
                a.epoch,
                a.objective,
                b.objective
            );
            assert!(b.active_columns <= b.total_columns);
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
