//! The LiPS online scheduler — Figure 4 of the paper.
//!
//! Every epoch `e`, LiPS snapshots the queue and the current data
//! placement, lowers them into the Fig 4 LP (via [`crate::lp_build`]),
//! solves it, and turns the fractional solution into simulator actions:
//!
//! * planned copies become [`Action::MoveData`]s (split across current
//!   holders, cheapest-first, so no single holder is over-drawn);
//! * task fractions become [`Action::RunChunk`]s, split into
//!   natural-task-size pieces (the paper's minimum-viable-task rounding);
//! * the **fake node** share is simply *not emitted* — that work stays in
//!   the queue for the next epoch, exactly the paper's deferral semantics.
//!
//! The epoch length is the cost↔makespan knob (Figure 8): longer epochs
//! let the LP concentrate work on the cheapest nodes; shorter epochs force
//! parallelism.

use std::collections::BTreeMap;

use lips_cluster::{DataId, StoreId};
use lips_lp::clock::Stopwatch;
use lips_lp::{WarmOutcome, WarmStart};
use lips_sim::{Action, Scheduler, SchedulerContext, WORK_EPS};
use lips_workload::JobId;

use crate::baselines::{any_busy, unread};
pub use crate::config::SchedulerConfig;
use crate::lp_build::{
    solve_full, solve_master, ColGenOptions, EpochSolveError, FractionalSchedule, LpInstance,
    LpJob, PruneConfig, SolveReport,
};
use crate::report::EpochRecord;

/// How one epoch's scheduling decision was ultimately produced — the
/// rungs of the degradation ladder a fault-mode run reports per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    /// The column-generation master solved the epoch LP, possibly with
    /// the fairness floors relaxed, and was independently certified
    /// optimal against the full model. Its first round is the bounded
    /// dual simplex, from the carried basis when it was usable
    /// (`warm == Dual`), else from the slack basis (`warm == Cold`).
    Certified,
    /// A cold full-model primal solve behind a failed master, solved and
    /// certified, with the fairness floors relaxed when there were any.
    CertifiedCold,
    /// Every LP rung failed; the epoch was served by cheapest-feasible
    /// greedy placement and the LP will be retried next epoch.
    Degraded,
}

impl EpochOutcome {
    /// The stable schema spelling (see [`crate::report::EpochRecord`]).
    pub fn as_str(self) -> &'static str {
        match self {
            EpochOutcome::Certified => "Certified",
            EpochOutcome::CertifiedCold => "CertifiedCold",
            EpochOutcome::Degraded => "Degraded",
        }
    }
}

/// One step of the degradation ladder ([`LipsScheduler::run_rung`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Column generation: a restricted master seeded by the carried
    /// basis, its first round dual-simplex-first.
    Master,
    /// Primal simplex on the full model with nothing carried.
    Cold,
}

/// What one ladder rung hands back to the record keeper: the full
/// [`SolveReport`] plus whether the solve re-used the carried basis
/// instead of starting cold — the serve daemon's
/// incremental-re-solve criterion.
struct RungResult {
    report: SolveReport,
    incremental: bool,
}

/// The LiPS epoch scheduler.
#[derive(Debug)]
pub struct LipsScheduler {
    pub config: SchedulerConfig,
    /// What the previous epoch's master left for the next one
    /// ([`SolveReport::take_carry`]): its final basis, whose `Basic` and
    /// `AtUpper` task arcs also seed the next master. `None` before the
    /// first solve and after an epoch the master did not serve.
    carried: Option<WarmStart>,
    /// Per-epoch records on the stable schema
    /// ([`crate::report::EpochRecord`]): one per LP decision epoch.
    records: Vec<EpochRecord>,
}

impl LipsScheduler {
    pub fn new(config: SchedulerConfig) -> Self {
        LipsScheduler {
            config,
            carried: None,
            records: Vec::new(),
        }
    }

    /// With the default configuration and a given epoch.
    pub fn with_epoch(epoch_s: f64) -> Self {
        Self::new(SchedulerConfig {
            epoch_s,
            ..Default::default()
        })
    }

    /// Number of LP decision epochs so far (one record each).
    pub fn solves(&self) -> usize {
        self.records.len()
    }

    /// Always 0: nothing is dropped from the carried basis (a revoked
    /// machine has no columns or rows in the next epoch's model, so
    /// carried keys naming it match nothing). Kept so existing callers
    /// still find it.
    pub fn stale_basis_entries_dropped(&self) -> usize {
        0
    }

    /// Per-epoch records on the stable reporting schema, one per LP
    /// decision epoch (see [`crate::report`]). This is what the
    /// `lips-serve` metrics endpoint and the benches aggregate.
    pub fn epoch_records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Run one ladder rung on `inst`. The master takes the carried basis
    /// as its prior, as it stands: keys naming a revoked machine match
    /// nothing in the new model, whose builder gives that machine no
    /// columns or rows. The rung's carry replaces it: the master's final
    /// basis, nothing after a cold solve. On failure the carry is dropped:
    /// no later rung reads it, and a failing carry is not retried forever.
    fn run_rung(
        &mut self,
        inst: &LpInstance<'_>,
        rung: Rung,
    ) -> Result<RungResult, EpochSolveError> {
        let prior = match rung {
            Rung::Master => self.carried.take(),
            Rung::Cold => None,
        };
        let mut report = match rung {
            Rung::Master => solve_master(inst, prior.as_ref(), &ColGenOptions::default()),
            Rung::Cold => solve_full(inst),
        }?;
        self.carried = report.take_carry();
        Ok(RungResult {
            incremental: prior.is_some() && report.schedule.stats.warm != WarmOutcome::Cold,
            report,
        })
    }

    /// The degradation ladder, one rung solve per step:
    /// the dual-first restricted master → the same with the fairness
    /// floors relaxed → the cold full model (floors relaxed) → `None`.
    ///
    /// `None` means the caller degrades to greedy placement and retries
    /// the LP next epoch. Every rung that returns a schedule returned a
    /// *certified* one. A dual walk the master declined on the way, and
    /// the error of every rung that failed before the decision
    /// ([`EpochRecord::failed_rungs`]), are kept on its record. The
    /// record's `epoch_ms` times the whole ladder, failed rungs included.
    ///
    /// [`Scheduler::decide`] serves every LP epoch through this call, and
    /// the benches drive it directly with instances of their own, so what
    /// they measure is the path that serves an epoch.
    pub fn solve_epoch(&mut self, inst: &LpInstance<'_>) -> Option<FractionalSchedule> {
        let t_epoch = Stopwatch::start();
        let epoch = self.records.len();
        let jobs = inst.jobs.len();
        // Fairness floors can conflict with data/capacity constraints
        // (and with a shrunken post-fault cluster); cost-only scheduling
        // is the sane fallback. The failed rung before it dropped the
        // carried basis, so the relaxed master starts from the slack basis.
        let relaxed = (!inst.pool_floors.is_empty()).then(|| LpInstance {
            pool_floors: Vec::new(),
            ..inst.clone()
        });
        let unfloored = relaxed.as_ref().unwrap_or(inst);
        let ladder = [
            Some(("master", Rung::Master, inst)),
            relaxed
                .as_ref()
                .map(|r| ("master, floors relaxed", Rung::Master, r)),
            Some(("cold", Rung::Cold, unfloored)),
        ];
        let mut failed_rungs = Vec::new();
        for (name, rung, inst) in ladder.into_iter().flatten() {
            match self.run_rung(inst, rung) {
                Ok(r) => {
                    let outcome = match rung {
                        Rung::Master => EpochOutcome::Certified,
                        Rung::Cold => EpochOutcome::CertifiedCold,
                    };
                    let mut record = EpochRecord::from_solve_report(
                        epoch,
                        jobs,
                        outcome,
                        &r.report,
                        r.incremental,
                    );
                    record.epoch_ms = t_epoch.elapsed_ms();
                    record.failed_rungs = failed_rungs;
                    self.records.push(record);
                    return Some(r.report.schedule);
                }
                Err(e) => failed_rungs.push(format!("{name}: {e}")),
            }
        }
        let mut record = EpochRecord::degraded(epoch, jobs);
        record.epoch_ms = t_epoch.elapsed_ms();
        record.failed_rungs = failed_rungs;
        self.records.push(record);
        None
    }

    /// Build the epoch LP jobs from the queue snapshot.
    fn lp_jobs(&self, ctx: &SchedulerContext<'_>) -> Vec<LpJob> {
        ctx.queue
            .iter()
            .filter(|j| j.has_unassigned_work())
            .take(self.config.max_jobs_per_lp)
            .map(|j| {
                let mut avail: Vec<(StoreId, f64)> = match j.data {
                    Some(d) if j.remaining_mb > WORK_EPS => ctx
                        .placement
                        .stores_of(d)
                        .into_iter()
                        .filter_map(|(s, _)| {
                            let un = unread(ctx, d, s);
                            (un > WORK_EPS).then(|| (s, (un / j.remaining_mb).min(1.0)))
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                // Holder pruning: keep the K largest stocks; the rest of
                // the data simply waits for a later epoch.
                if let Some(k) = self.config.max_holder_stores_per_job {
                    if avail.len() > k {
                        avail.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                        avail.truncate(k);
                        avail.sort_by_key(|&(s, _)| s);
                    }
                }
                LpJob {
                    id: j.id,
                    data: j.data,
                    size_mb: if j.remaining_mb > WORK_EPS {
                        j.remaining_mb
                    } else {
                        0.0
                    },
                    tcp: j.tcp,
                    fixed_ecu: j.remaining_fixed_ecu,
                    avail,
                }
            })
            .collect()
    }

    /// Fair-share floors for the epoch LP: sigma * min(pool demand,
    /// equal share of epoch capacity) ECU-seconds per pool.
    fn pool_floors(&self, ctx: &SchedulerContext<'_>, jobs: &[LpJob]) -> Vec<(Vec<usize>, f64)> {
        if self.config.fairness <= 0.0 {
            return Vec::new();
        }
        let mut pools: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (k, job) in jobs.iter().enumerate() {
            if let Some(pj) = ctx.queue.iter().find(|j| j.id == job.id) {
                pools.entry(pj.pool.as_str()).or_default().push(k);
            }
        }
        if pools.len() < 2 {
            return Vec::new(); // fairness is vacuous with one pool
        }
        let capacity: f64 = ctx
            .cluster
            .machines
            .iter()
            .map(|m| m.capacity_ecu_seconds(self.config.epoch_s))
            .sum();
        let share = capacity / pools.len() as f64;
        let mut floors: Vec<(Vec<usize>, f64)> = pools
            .into_values()
            .map(|members| {
                let demand: f64 = members.iter().map(|&k| jobs[k].work_ecu()).sum();
                let floor = self.config.fairness * demand.min(share);
                (members, floor)
            })
            .collect();
        floors.sort_by(|a, b| a.0.cmp(&b.0));
        floors
    }

    /// Emergency progress: one natural-task chunk of the oldest job on the
    /// cheapest feasible *live* machine. Used when the LP solver fails
    /// (the Degraded rung of the ladder), so a numerical hiccup or a
    /// hostile fault schedule can never stall the cluster.
    fn greedy_fallback(ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let cheapest_live = ctx
            .cluster
            .machines
            .iter()
            .filter(|m| m.tp_ecu > 0.0)
            .min_by(|a, b| a.cpu_cost.total_cmp(&b.cpu_cost))
            .map(|m| m.id);
        let Some(cheapest_live) = cheapest_live else {
            return vec![]; // every machine revoked: nothing can run
        };
        let Some(job) = ctx.jobs_with_work().next() else {
            return vec![];
        };
        if job.remaining_mb > WORK_EPS {
            // Jobs with remaining MB always carry a data id; degrade to
            // "no action this epoch" instead of panicking if not.
            let Some(d) = job.data else { return vec![] };
            let source = ctx
                .placement
                .stores_of(d)
                .into_iter()
                .map(|(s, _)| s)
                .find(|&s| unread(ctx, d, s) > WORK_EPS);
            let Some(s) = source else { return vec![] };
            let mb = job.task_mb.min(job.remaining_mb).min(unread(ctx, d, s));
            // Data-local if the co-located machine is alive, else the
            // cheapest survivor reads remotely.
            let machine = ctx
                .cluster
                .store(s)
                .colocated
                .filter(|&m| ctx.cluster.machine(m).tp_ecu > 0.0)
                .unwrap_or(cheapest_live);
            vec![Action::RunChunk {
                job: job.id,
                machine,
                source: Some(s),
                mb,
                fixed_ecu: 0.0,
            }]
        } else {
            let ecu = job.task_fixed_ecu.min(job.remaining_fixed_ecu);
            vec![Action::RunChunk {
                job: job.id,
                machine: cheapest_live,
                source: None,
                mb: 0.0,
                fixed_ecu: ecu,
            }]
        }
    }

    /// Turn an epoch's fractional schedule into simulator actions: the
    /// planned copies, then task chunks rounded to natural task sizes.
    fn emit(&self, ctx: &SchedulerContext<'_>, sched: FractionalSchedule) -> Vec<Action> {
        let mut actions: Vec<Action> = Vec::new();
        // Track how much will be present at each (data, store) after the
        // planned moves, so chunk emission can honour constraint (13)
        // (each entry starts from the *unread* amount).
        let mut budget: BTreeMap<(DataId, StoreId), f64> = BTreeMap::new();

        // --- 1. data moves (already per-source from the LP decode) ------
        for &(data, src, dst, mb) in &sched.moves {
            // Clamp by what the source physically holds (the LP worked in
            // unread fractions, which never exceed the holder's stock, but
            // guard against float drift).
            let take = mb.min(ctx.placement.amount(data, src));
            if take <= WORK_EPS {
                continue;
            }
            actions.push(Action::MoveData {
                data,
                from: src,
                to: dst,
                mb: take,
            });
            *budget
                .entry((data, dst))
                .or_insert_with(|| unread(ctx, data, dst)) += take;
        }

        // --- 2. task chunks, rounded to natural task sizes --------------
        // A job's LP fractions can sum a hair above 1, so every
        // assignment is clamped to what the job's earlier assignments of
        // this epoch left over: the chunks never claim more work than the
        // job has.
        let mut emitted: BTreeMap<JobId, (f64, f64)> = BTreeMap::new();
        for (job_id, machine, source, frac) in sched.assignments {
            let Some(pj) = ctx.queue.iter().find(|j| j.id == job_id) else {
                continue;
            };
            let (emitted_mb, emitted_ecu) = emitted.entry(job_id).or_default();
            match source {
                Some(store) => {
                    // A sourced assignment for a dataless job cannot be
                    // emitted by the builder; skip rather than panic.
                    let Some(data) = pj.data else { continue };
                    let want = (frac * pj.remaining_mb).min(pj.remaining_mb - *emitted_mb);
                    let cap = *budget
                        .entry((data, store))
                        .or_insert_with(|| unread(ctx, data, store));
                    let mut total = want.min(cap);
                    // Minimum-viable-task rounding: defer crumbs unless
                    // they finish the job.
                    let min_mb = self.config.min_task_fraction * pj.task_mb;
                    if total < min_mb && total < pj.remaining_mb - WORK_EPS {
                        continue;
                    }
                    if let Some(b) = budget.get_mut(&(data, store)) {
                        *b -= total;
                    }
                    *emitted_mb += total;
                    while total > WORK_EPS {
                        let mb = total.min(pj.task_mb);
                        actions.push(Action::RunChunk {
                            job: job_id,
                            machine,
                            source: Some(store),
                            mb,
                            fixed_ecu: 0.0,
                        });
                        total -= mb;
                    }
                }
                None => {
                    let mut total =
                        (frac * pj.remaining_fixed_ecu).min(pj.remaining_fixed_ecu - *emitted_ecu);
                    let min_ecu = self.config.min_task_fraction * pj.task_fixed_ecu;
                    if total < min_ecu && total < pj.remaining_fixed_ecu - WORK_EPS {
                        continue;
                    }
                    *emitted_ecu += total;
                    while total > WORK_EPS {
                        let ecu = total.min(pj.task_fixed_ecu);
                        actions.push(Action::RunChunk {
                            job: job_id,
                            machine,
                            source: None,
                            mb: 0.0,
                            fixed_ecu: ecu,
                        });
                        total -= ecu;
                    }
                }
            }
        }
        actions
    }
}

impl Scheduler for LipsScheduler {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let jobs = self.lp_jobs(ctx);
        if jobs.is_empty() {
            return vec![];
        }
        let store_free_mb: Vec<f64> = ctx
            .cluster
            .stores
            .iter()
            .map(|s| (s.capacity_mb - ctx.placement.used_mb(s.id)).max(0.0))
            .collect();
        let pool_floors = self.pool_floors(ctx, &jobs);
        let inst = LpInstance {
            cluster: ctx.cluster,
            jobs,
            duration: self.config.epoch_s,
            fake_cost: Some(self.config.fake_cost),
            allow_moves: true,
            enforce_transfer_time: self.config.enforce_transfer_time,
            store_free_mb,
            pool_floors,
            prune: PruneConfig {
                max_machines_per_job: self.config.max_machines_per_job,
                max_new_stores_per_job: self.config.max_new_stores_per_job,
            },
        };
        let Some(sched) = self.solve_epoch(&inst) else {
            // Bottom rung: cheapest-feasible greedy placement for this
            // epoch; the LP is retried from scratch next epoch.
            return Self::greedy_fallback(ctx);
        };

        let actions = self.emit(ctx, sched);

        // Guarantee progress even if the LP deferred everything while the
        // cluster is idle (can only happen with a degenerate config).
        if actions.is_empty() && !any_busy(ctx) && ctx.jobs_with_work().next().is_some() {
            return Self::greedy_fallback(ctx);
        }
        actions
    }

    fn epoch(&self) -> Option<f64> {
        Some(self.config.epoch_s)
    }

    fn degraded_epochs(&self) -> usize {
        self.records.iter().filter(|r| !r.certified).count()
    }

    fn name(&self) -> &str {
        "lips"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{ec2_20_node, ec2_mixed_cluster};
    use lips_sim::{Placement, Simulation};
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    fn outcomes(sched: &LipsScheduler) -> Vec<&str> {
        sched
            .epoch_records()
            .iter()
            .map(|r| r.outcome.as_str())
            .collect()
    }

    fn run_lips(
        c1_fraction: f64,
        jobs: Vec<JobSpec>,
        epoch: f64,
        seed: u64,
    ) -> lips_sim::SimReport {
        let mut cluster = ec2_20_node(c1_fraction, 1e9);
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, seed);
        let placement = Placement::spread_blocks(&cluster, seed);
        Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut LipsScheduler::new(SchedulerConfig::small_cluster(
                epoch,
            )))
            .unwrap()
    }

    fn small_suite() -> Vec<JobSpec> {
        vec![
            JobSpec::new(0, "g", JobKind::Grep, 4096.0, 64),
            JobSpec::new(1, "w", JobKind::WordCount, 4096.0, 64),
            JobSpec::new(2, "p", JobKind::Pi, 0.0, 4),
        ]
    }

    #[test]
    fn ladder_falls_through_master_and_cold_to_degraded_on_infeasible_epoch() {
        // Two machines totalling 7 ECU; no fake node, so slashing the
        // epoch duration below the work's space leaves *every* rung —
        // restricted master, cold primal — infeasible.
        let mut b = lips_cluster::ClusterBuilder::new();
        let za = b.add_zone("a");
        let zb = b.add_zone("b");
        b.add_machine(za, lips_cluster::InstanceType::M1_MEDIUM, 1.0, 100_000.0);
        b.add_machine(zb, lips_cluster::InstanceType::C1_MEDIUM, 0.0, 100_000.0);
        let cluster = b.build();
        let job = LpJob {
            id: lips_workload::JobId(0),
            data: Some(DataId(0)),
            size_mb: 1024.0,
            tcp: 10.0,
            fixed_ecu: 0.0,
            avail: vec![(StoreId(0), 1.0)],
        };
        let feasible = LpInstance {
            cluster: &cluster,
            jobs: vec![job],
            duration: 100_000.0,
            fake_cost: None,
            allow_moves: true,
            enforce_transfer_time: false,
            store_free_mb: vec![],
            pool_floors: vec![],
            prune: PruneConfig::default(),
        };
        let mut infeasible = feasible.clone();
        infeasible.duration = 1024.0 * 10.0 / 7.0 * 0.9; // 10% short of capacity

        let mut sched = LipsScheduler::new(SchedulerConfig::small_cluster(600.0));
        // Epoch 0: nothing carried — the master's dual starts from the
        // slack basis: cold, no phase 1, not incremental.
        assert!(sched.solve_epoch(&feasible).is_some());
        // Epoch 1: unchanged model, carried basis — the master
        // again, now warm from the carried basis.
        assert!(sched.solve_epoch(&feasible).is_some());
        // Epoch 2: infeasible. The master must fail fast (the shrunken
        // model admits no feasible point), the cold rung after it must
        // fail too, and the ladder must land on Degraded — not panic, not
        // return an uncertified schedule.
        assert!(sched.solve_epoch(&infeasible).is_none());
        assert_eq!(outcomes(&sched), ["Certified", "Certified", "Degraded"]);
        assert_eq!(sched.degraded_epochs(), 1);
        let r = sched.epoch_records();
        assert_eq!(r.iter().map(|r| r.epoch).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!((r[0].warm.as_str(), r[0].incremental), ("Cold", false));
        assert_eq!(r[0].phase1_iterations, 0);
        assert_eq!((r[1].warm.as_str(), r[1].incremental), ("Dual", true));
        assert!(!r[2].certified);
        // A degraded record still carries the time its failed rungs took.
        assert!(r[2].epoch_ms > 0.0);
        // An infeasibility verdict is not a declined basis, but each
        // failed rung keeps its reason, in ladder order.
        assert!(r.iter().all(|r| r.declined.is_empty()));
        assert!(r[..2].iter().all(|r| r.failed_rungs.is_empty()));
        assert_eq!(r[2].failed_rungs.len(), 2, "{:?}", r[2].failed_rungs);
        assert!(r[2].failed_rungs[0].starts_with("master: "));
        assert!(r[2].failed_rungs[1].starts_with("cold: "));
        assert!(
            r[2].failed_rungs.iter().all(|f| f.contains("infeasible")),
            "{:?}",
            r[2].failed_rungs
        );
        // Epoch 3: capacity restored — the scheduler recovers on its own,
        // on the master from the slack basis (the failed rungs dropped the
        // carried basis).
        assert!(sched.solve_epoch(&feasible).is_some());
        assert_eq!(outcomes(&sched)[3], "Certified");
        assert_eq!(sched.epoch_records()[3].warm, "Cold");
    }

    #[test]
    fn chunks_never_over_consume_when_fractions_overshoot() {
        // Two machines, each with its own store holding a full copy of the
        // input, so the read budget never clamps; only the per-job clamp
        // stands between the overshoot and `PendingJob::consume`.
        let mut b = lips_cluster::ClusterBuilder::new();
        let za = b.add_zone("a");
        let zb = b.add_zone("b");
        b.add_machine(za, lips_cluster::InstanceType::M1_MEDIUM, 1.0, 100_000.0);
        b.add_machine(zb, lips_cluster::InstanceType::C1_MEDIUM, 0.0, 100_000.0);
        let cluster = b.build();
        let mut grep =
            lips_sim::PendingJob::from_spec(&JobSpec::new(0, "g", JobKind::Grep, 10_240.0, 16));
        grep.data = Some(DataId(0));
        let mut pi = lips_sim::PendingJob::from_spec(&JobSpec::new(1, "p", JobKind::Pi, 0.0, 4));
        pi.remaining_fixed_ecu = 40_960.0;
        pi.task_fixed_ecu = 10_240.0;
        let mut placement = Placement::empty();
        placement.add_copy(DataId(0), StoreId(0), 10_240.0, 0.0);
        placement.add_copy(DataId(0), StoreId(1), 10_240.0, 0.0);
        let queue = vec![grep, pi];
        let machines: Vec<lips_sim::MachineState> = cluster
            .machines
            .iter()
            .map(lips_sim::MachineState::new)
            .collect();
        let ctx = SchedulerContext {
            now: 0.0,
            cluster: &cluster,
            placement: &placement,
            queue: &queue,
            machines: &machines,
            reads_used: &BTreeMap::new(),
        };
        // Each job's fractions sum to 1 + 1e-9.
        let (m0, m1) = (lips_cluster::MachineId(0), lips_cluster::MachineId(1));
        let (half, over) = (0.5, 0.5 + 1e-9);
        let sched = FractionalSchedule {
            assignments: vec![
                (JobId(0), m0, Some(StoreId(0)), half),
                (JobId(0), m1, Some(StoreId(1)), over),
                (JobId(1), m0, None, half),
                (JobId(1), m1, None, over),
            ],
            moves: vec![],
            deferred: BTreeMap::new(),
            predicted_dollars: 0.0,
            lp_objective: 0.0,
            iterations: 0,
            stats: lips_lp::SolveStats::default(),
        };
        let lips = LipsScheduler::new(SchedulerConfig::small_cluster(600.0));
        let actions = lips.emit(&ctx, sched);
        let mut after = queue.clone();
        for a in &actions {
            if let Action::RunChunk {
                job, mb, fixed_ecu, ..
            } = *a
            {
                after[job.0].consume(mb, fixed_ecu); // panics on over-consumption
            }
        }
        // All of both jobs went out, and not a MB or ECU-second more.
        assert!(after.iter().all(|j| !j.has_unassigned_work()));
    }

    #[test]
    fn completes_mixed_workload() {
        let report = run_lips(0.5, small_suite(), 400.0, 1);
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.metrics.total_dollars() > 0.0);
    }

    #[test]
    fn beats_hadoop_default_on_cost() {
        // The paper's central claim, as an invariant on a heterogeneous
        // cluster.
        let lips = run_lips(0.5, small_suite(), 600.0, 1);

        let mut cluster = ec2_20_node(0.5, 1e9);
        let bound = bind_workload(&mut cluster, small_suite(), PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 1);
        let default = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut crate::baselines::HadoopDefaultScheduler::new())
            .unwrap();

        assert!(
            lips.metrics.total_dollars() < default.metrics.total_dollars(),
            "lips {} vs default {}",
            lips.metrics.total_dollars(),
            default.metrics.total_dollars()
        );
    }

    #[test]
    fn pi_work_lands_on_cheapest_nodes() {
        let report = run_lips(
            0.5,
            vec![JobSpec::new(0, "p", JobKind::Pi, 0.0, 8)],
            400.0,
            2,
        );
        let cluster = ec2_20_node(0.5, 1e9);
        let min_cost = cluster.min_cpu_cost();
        // All ECU-seconds must be billed at (near) the cheapest price.
        let billed = report.metrics.cpu_dollars;
        let total_ecu: f64 = report.metrics.ecu_sec_by_machine.values().sum();
        assert!(
            billed / total_ecu < min_cost * 1.2,
            "avg price {} vs min {}",
            billed / total_ecu,
            min_cost
        );
    }

    #[test]
    fn longer_epoch_does_not_cost_more() {
        // Fig 8(b): cost is non-increasing in epoch length.
        let short = run_lips(0.5, small_suite(), 200.0, 3);
        let long = run_lips(0.5, small_suite(), 1600.0, 3);
        assert!(
            long.metrics.total_dollars() <= short.metrics.total_dollars() * 1.05,
            "long {} vs short {}",
            long.metrics.total_dollars(),
            short.metrics.total_dollars()
        );
    }

    #[test]
    fn shorter_epoch_finishes_sooner() {
        // Fig 8(a): shorter epochs → more parallelism → shorter makespan.
        let short = run_lips(0.5, small_suite(), 200.0, 3);
        let long = run_lips(0.5, small_suite(), 1600.0, 3);
        assert!(
            short.makespan <= long.makespan * 1.05,
            "short {} vs long {}",
            short.makespan,
            long.makespan
        );
    }

    #[test]
    fn pruned_config_completes_on_larger_cluster() {
        let mut cluster = ec2_mixed_cluster(40, 0.5, 1e9, 5);
        let bound = bind_workload(&mut cluster, small_suite(), PlacementPolicy::RoundRobin, 5);
        let placement = Placement::spread_blocks(&cluster, 5);
        let mut sched = LipsScheduler::new(SchedulerConfig::large_cluster(400.0));
        let report = Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut sched)
            .unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert!(sched.solves() > 0);
        assert_eq!(sched.degraded_epochs(), 0);
    }

    #[test]
    fn epochs_warm_start_from_previous_basis() {
        // Across a multi-epoch run, most solves after the first should find
        // the previous basis usable (same machine rows, drifting jobs).
        // Not necessarily all: an epoch whose block transfers restructure
        // a large share of the LP's rows deliberately falls back cold —
        // repairing that much of the basis is worse than the crash basis.
        // The workload must overflow one epoch's capacity so the fake node
        // defers work and the loop actually re-solves.
        let jobs = vec![
            JobSpec::new(0, "big-g", JobKind::Stress2, 16384.0, 256),
            JobSpec::new(1, "big-w", JobKind::WordCount, 16384.0, 256),
        ];
        let mut cluster = ec2_20_node(0.5, 1e9);
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let placement = Placement::spread_blocks(&cluster, 1);
        let mut sched = LipsScheduler::new(SchedulerConfig::small_cluster(200.0));
        Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut sched)
            .unwrap();
        assert!(sched.solves() > 1, "need a multi-epoch run");
        let warm_solves = sched
            .epoch_records()
            .iter()
            .filter(|r| r.warm != "Cold")
            .count();
        assert!(
            warm_solves >= sched.solves() / 2,
            "only {warm_solves}/{} solves warm-started",
            sched.solves()
        );
        assert_eq!(sched.degraded_epochs(), 0);
    }

    #[test]
    fn master_epochs_match_the_cold_oracle() {
        // The ladder is a solve path, not a model: every epoch the
        // restricted master serves, carried state and all, must land on
        // the optimum a cold full-model solve of the same instance
        // certifies.
        let cluster = ec2_20_node(0.5, 1e9);
        let stores = cluster.num_stores();
        let mut sched = LipsScheduler::new(SchedulerConfig::small_cluster(400.0));
        let mut oracle = Vec::new();
        for e in 0..6 {
            // A sliding window of shrinking jobs: one departs and one
            // arrives every other epoch.
            let jobs = (e / 2..e / 2 + 4)
                .map(|k| LpJob {
                    id: JobId(k),
                    data: Some(DataId(k)),
                    size_mb: 4096.0 * 0.8f64.powi(e as i32),
                    tcp: 0.25 + k as f64,
                    fixed_ecu: 0.0,
                    avail: vec![(StoreId(5 * k % stores), 1.0)],
                })
                .collect();
            let inst = LpInstance {
                cluster: &cluster,
                jobs,
                duration: 400.0,
                fake_cost: Some(1.0),
                allow_moves: true,
                enforce_transfer_time: true,
                store_free_mb: vec![],
                pool_floors: vec![],
                prune: PruneConfig::default(),
            };
            assert!(sched.solve_epoch(&inst).is_some());
            let cold = solve_full(&inst).unwrap();
            oracle.push(cold.schedule.lp_objective);
        }
        let records = sched.epoch_records();
        for (r, cold) in records.iter().zip(&oracle) {
            assert_eq!(r.outcome, "Certified", "epoch {}", r.epoch);
            // Every epoch priced against a restricted master.
            assert!(r.pricing_rounds >= 1 && r.total_columns > 0);
            let scale = 1.0 + cold.abs();
            assert!(
                (r.objective - cold).abs() / scale < 1e-6,
                "epoch {}: master {} vs cold {cold}",
                r.epoch,
                r.objective
            );
        }
        assert!(records[1..].iter().any(|r| r.incremental));
    }

    #[test]
    fn respects_arrivals() {
        let jobs = vec![
            JobSpec::new(0, "early", JobKind::Grep, 1280.0, 20),
            JobSpec::new(1, "late", JobKind::Grep, 1280.0, 20).arriving_at(3000.0),
        ];
        let report = run_lips(0.25, jobs, 400.0, 4);
        let late = report.outcomes.iter().find(|o| o.name == "late").unwrap();
        assert!(late.completed > 3000.0);
    }

    #[test]
    fn fairness_guarantees_minority_pool_service() {
        // Two pools on a capacity-tight epoch: without fairness the LP
        // picks one vertex (one pool may be fully deferred); with sigma = 1
        // both pools get scheduled work in the first epoch.
        let jobs = vec![
            JobSpec::new(0, "etl-a", JobKind::Stress2, 8192.0, 128).in_pool("etl"),
            JobSpec::new(1, "adhoc-b", JobKind::Stress2, 8192.0, 128).in_pool("adhoc"),
        ];
        let mut cluster = ec2_20_node(0.5, 1e9);
        let bound = lips_workload::bind_workload(
            &mut cluster,
            jobs,
            lips_workload::PlacementPolicy::RoundRobin,
            21,
        );
        let placement = lips_sim::Placement::spread_blocks(&cluster, 21);
        let mut cfg = SchedulerConfig::small_cluster(200.0); // tight epochs
        cfg.fairness = 1.0;
        let mut sched = LipsScheduler::new(cfg);
        let r = lips_sim::Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut sched)
            .unwrap();
        assert_eq!(r.outcomes.len(), 2);
        // Both pools finish within 2x of each other (fair service).
        let t0 = r
            .outcomes
            .iter()
            .find(|o| o.pool == "etl")
            .unwrap()
            .completed;
        let t1 = r
            .outcomes
            .iter()
            .find(|o| o.pool == "adhoc")
            .unwrap()
            .completed;
        assert!(t0.max(t1) / t0.min(t1) < 2.0, "etl {t0} adhoc {t1}");
        assert_eq!(sched.degraded_epochs(), 0);
    }

    #[test]
    fn fairness_never_lowers_cost() {
        // Fairness is a constraint: the fair optimum cannot beat the
        // unconstrained one.
        let run = |sigma: f64| {
            let jobs = vec![
                JobSpec::new(0, "a", JobKind::Grep, 4096.0, 64).in_pool("p0"),
                JobSpec::new(1, "b", JobKind::WordCount, 4096.0, 64).in_pool("p1"),
            ];
            let mut cluster = ec2_20_node(0.5, 1e9);
            let bound = lips_workload::bind_workload(
                &mut cluster,
                jobs,
                lips_workload::PlacementPolicy::RoundRobin,
                22,
            );
            let placement = lips_sim::Placement::spread_blocks(&cluster, 22);
            let mut cfg = SchedulerConfig::small_cluster(400.0);
            cfg.fairness = sigma;
            lips_sim::Simulation::new(&cluster, &bound)
                .with_placement(placement)
                .run(&mut LipsScheduler::new(cfg))
                .unwrap()
                .metrics
                .total_dollars()
        };
        let unfair = run(0.0);
        let fair = run(1.0);
        assert!(fair >= unfair - 1e-9, "fair {fair} vs unfair {unfair}");
    }

    #[test]
    fn single_pool_fairness_is_vacuous() {
        let jobs = vec![JobSpec::new(0, "a", JobKind::Grep, 1024.0, 16)];
        let mut cluster = ec2_20_node(0.25, 1e9);
        let bound = lips_workload::bind_workload(
            &mut cluster,
            jobs,
            lips_workload::PlacementPolicy::RoundRobin,
            23,
        );
        let p1 = lips_sim::Placement::spread_blocks(&cluster, 23);
        let p2 = lips_sim::Placement::spread_blocks(&cluster, 23);
        let mut cfg = SchedulerConfig::small_cluster(400.0);
        cfg.fairness = 1.0;
        let with_fair = lips_sim::Simulation::new(&cluster, &bound)
            .with_placement(p1)
            .run(&mut LipsScheduler::new(cfg))
            .unwrap();
        let without = lips_sim::Simulation::new(&cluster, &bound)
            .with_placement(p2)
            .run(&mut LipsScheduler::new(SchedulerConfig::small_cluster(
                400.0,
            )))
            .unwrap();
        assert_eq!(
            with_fair.metrics.total_dollars(),
            without.metrics.total_dollars()
        );
    }

    #[test]
    fn schedules_reduce_phases_end_to_end() {
        // A shuffle-heavy WordCount: LiPS must schedule the reduce chunks
        // (placed where the maps ran) and still complete and win on cost.
        let jobs = vec![
            JobSpec::new(0, "wc", JobKind::WordCount, 2048.0, 32).with_reduce(8, 1024.0, 1.0),
            JobSpec::new(1, "g", JobKind::Grep, 2048.0, 32).with_reduce(4, 256.0, 0.2),
        ];
        let mut cluster = ec2_20_node(0.5, 1e9);
        let bound = lips_workload::bind_workload(
            &mut cluster,
            jobs.clone(),
            lips_workload::PlacementPolicy::RoundRobin,
            31,
        );
        let placement = lips_sim::Placement::spread_blocks(&cluster, 31);
        let lips = lips_sim::Simulation::new(&cluster, &bound)
            .with_placement(placement)
            .run(&mut LipsScheduler::new(SchedulerConfig::small_cluster(
                2000.0,
            )))
            .unwrap();
        assert_eq!(lips.outcomes.len(), 2);
        let demand: f64 = jobs
            .iter()
            .map(lips_workload::JobSpec::total_ecu_sec_with_reduce)
            .sum();
        let executed: f64 = lips.metrics.ecu_sec_by_machine.values().sum();
        assert!((executed - demand).abs() < 1e-3, "{executed} vs {demand}");

        let mut c2 = ec2_20_node(0.5, 1e9);
        let bound2 = lips_workload::bind_workload(
            &mut c2,
            jobs,
            lips_workload::PlacementPolicy::RoundRobin,
            31,
        );
        let p2 = lips_sim::Placement::spread_blocks(&c2, 31);
        let default = lips_sim::Simulation::new(&c2, &bound2)
            .with_placement(p2)
            .run(&mut crate::baselines::HadoopDefaultScheduler::new())
            .unwrap();
        assert!(
            lips.metrics.total_dollars() < default.metrics.total_dollars(),
            "lips {} vs default {}",
            lips.metrics.total_dollars(),
            default.metrics.total_dollars()
        );
    }
}
