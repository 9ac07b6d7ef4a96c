//! End-to-end fault-injection tests: scripted revocations, store losses,
//! repricings, and rejoins against a simple fault-aware greedy policy.
//!
//! The invariant under test everywhere: a run under faults still
//! completes every job, conserves work (executed ≥ demand — the burned
//! fraction of killed chunks is extra), and passes the full
//! [`lips_sim::validate_report`] battery.

use lips_cluster::{ec2_20_node, MachineId};
use lips_sim::{
    assert_valid, Action, FaultPlan, Placement, Scheduler, SchedulerContext, SimError, Simulation,
};
use lips_workload::{bind_workload, BoundWorkload, JobKind, JobSpec, PlacementPolicy};

/// Greedy local-first policy that respects the live topology: reads from
/// the first surviving holder and never targets a revoked machine. With
/// `max_inflight`, chunks serialize so mid-run faults always catch work
/// both before and after them.
struct FaultAwareGreedy {
    max_inflight: usize,
}

impl FaultAwareGreedy {
    fn new() -> Self {
        FaultAwareGreedy {
            max_inflight: usize::MAX,
        }
    }

    fn serialized() -> Self {
        FaultAwareGreedy { max_inflight: 1 }
    }
}

fn cheapest_live(ctx: &SchedulerContext<'_>) -> MachineId {
    ctx.cluster
        .machines
        .iter()
        .filter(|m| m.tp_ecu > 0.0)
        .min_by(|a, b| a.cpu_cost.total_cmp(&b.cpu_cost))
        .expect("at least one live machine")
        .id
}

impl Scheduler for FaultAwareGreedy {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        for j in ctx.jobs_with_work() {
            if j.running_chunks >= self.max_inflight {
                continue;
            }
            if let Some(data) = j.data {
                let chunk = j.task_mb.min(j.remaining_mb);
                // First holder with unread budget left (the engine caps
                // total reads per store at the MB placed there).
                let used = |s| {
                    ctx.reads_used
                        .and_then(|r| r.get(&(data, s)))
                        .copied()
                        .unwrap_or(0.0)
                };
                let holders = ctx.placement.stores_of(data);
                let Some(&(store, _)) = holders
                    .iter()
                    .find(|&&(s, mb)| mb - used(s) >= chunk - 1e-9)
                else {
                    continue;
                };
                let machine = match ctx.cluster.store(store).colocated {
                    Some(m) if ctx.cluster.machine(m).tp_ecu > 0.0 => m,
                    _ => cheapest_live(ctx),
                };
                return vec![Action::RunChunk {
                    job: j.id,
                    machine,
                    source: Some(store),
                    mb: chunk,
                    fixed_ecu: 0.0,
                }];
            }
            return vec![Action::RunChunk {
                job: j.id,
                machine: cheapest_live(ctx),
                source: None,
                mb: 0.0,
                fixed_ecu: j.task_fixed_ecu.min(j.remaining_fixed_ecu),
            }];
        }
        vec![]
    }

    fn name(&self) -> &str {
        "fault-aware-greedy"
    }
}

/// Fault-*unaware* twin: always runs on the holder's colocated machine,
/// dead or not.
struct NaiveGreedy;

impl Scheduler for NaiveGreedy {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        if let Some(j) = ctx.jobs_with_work().next() {
            let data = j.data.expect("test jobs carry data");
            let (store, _) = ctx.placement.stores_of(data)[0];
            let machine = ctx.cluster.store(store).colocated.expect("DataNode");
            return vec![Action::RunChunk {
                job: j.id,
                machine,
                source: Some(store),
                mb: j.task_mb.min(j.remaining_mb),
                fixed_ecu: 0.0,
            }];
        }
        vec![]
    }

    fn name(&self) -> &str {
        "naive-greedy"
    }
}

fn workload(cluster: &mut lips_cluster::Cluster) -> BoundWorkload {
    let jobs = vec![
        JobSpec::new(0, "g", JobKind::Grep, 640.0, 10),
        JobSpec::new(1, "w", JobKind::WordCount, 320.0, 5),
    ];
    bind_workload(cluster, jobs, PlacementPolicy::RoundRobin, 1)
}

/// The machine the greedy runs job 0 on: colocated with its first holder.
fn primary_machine(cluster: &lips_cluster::Cluster, bound: &BoundWorkload) -> MachineId {
    let data = bound.jobs[0].data.expect("grep has data");
    let placement = Placement::from_cluster(cluster);
    let (store, _) = placement.stores_of(data)[0];
    cluster.store(store).colocated.expect("DataNode store")
}

#[test]
fn revocation_mid_run_kills_chunks_but_loses_no_work() {
    let mut cluster = ec2_20_node(0.25, 3600.0);
    let bound = workload(&mut cluster);
    let clean = Simulation::new(&cluster, &bound)
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();
    let victim = primary_machine(&cluster, &bound);

    let plan = FaultPlan::new().revoke_at(clean.makespan * 0.3, victim);
    let report = Simulation::new(&cluster, &bound)
        .with_faults(plan)
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();

    assert_eq!(report.metrics.faults.revocations, 1);
    assert!(
        report.metrics.faults.killed_chunks >= 1,
        "no chunk was in flight"
    );
    assert!(report.metrics.faults.any());
    assert_eq!(report.outcomes.len(), 2, "every job still completes");
    // Work conservation + billing identity + meters, post-fault.
    assert_valid(&report, &cluster, &bound);
    // The burned fraction shows up as extra executed work, never missing.
    let demand: f64 = bound
        .jobs
        .iter()
        .map(lips_workload::JobSpec::total_ecu_sec_with_reduce)
        .sum();
    let executed: f64 = report.metrics.ecu_sec_by_machine.values().sum();
    assert!(
        executed >= demand - 1e-6,
        "executed {executed} < demand {demand}"
    );
    assert!(
        (executed - demand - report.metrics.faults.lost_ecu_sec).abs() < 1e-6,
        "over-execution {} must equal the burned fraction {}",
        executed - demand,
        report.metrics.faults.lost_ecu_sec
    );
}

#[test]
fn chunk_targeting_a_revoked_machine_is_rejected() {
    let mut cluster = ec2_20_node(0.25, 3600.0);
    let bound = workload(&mut cluster);
    let clean = Simulation::new(&cluster, &bound)
        .run(&mut NaiveGreedy)
        .unwrap();
    let victim = primary_machine(&cluster, &bound);

    // The naive policy keeps targeting the colocated machine after its
    // revocation — the engine must refuse, not silently run on a ghost.
    let plan = FaultPlan::new().revoke_at(clean.makespan * 0.3, victim);
    let err = Simulation::new(&cluster, &bound)
        .with_faults(plan)
        .run(&mut NaiveGreedy)
        .unwrap_err();
    assert_eq!(err, SimError::MachineRevoked(victim));
}

#[test]
fn store_loss_falls_back_to_surviving_replica() {
    let mut cluster = ec2_20_node(0.25, 3600.0);
    let bound = workload(&mut cluster);
    // Two full replicas of every block, so one store loss is survivable.
    let placement = Placement::spread_blocks_replicated(&cluster, 7, 2);
    let clean = Simulation::new(&cluster, &bound)
        .with_placement(placement.clone())
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();

    let data = bound.jobs[0].data.expect("grep has data");
    let (victim, _) = placement.stores_of(data)[0];
    let plan = FaultPlan::new().lose_store_at(clean.makespan * 0.2, victim);
    let report = Simulation::new(&cluster, &bound)
        .with_placement(placement)
        .with_faults(plan)
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();

    assert_eq!(report.metrics.faults.store_losses, 1);
    assert!(report.metrics.faults.lost_store_mb > 0.0);
    assert_eq!(report.outcomes.len(), 2);
    // The lost store holds nothing at the end of the run.
    assert!(report
        .final_placement
        .stores_of(data)
        .iter()
        .all(|&(s, _)| s != victim));
    assert_valid(&report, &cluster, &bound);
}

#[test]
fn reprice_mid_run_changes_the_bill_from_that_instant() {
    let mut cluster = ec2_20_node(0.0, 3600.0);
    let bound = workload(&mut cluster);
    let clean = Simulation::new(&cluster, &bound)
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();
    let victim = primary_machine(&cluster, &bound);

    let new_price = cluster.machine(victim).cpu_cost * 5.0;
    let plan = FaultPlan::new().reprice_at(clean.makespan * 0.3, victim, new_price);
    let report = Simulation::new(&cluster, &bound)
        .with_faults(plan)
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();

    assert_eq!(report.metrics.faults.repricings, 1);
    assert_eq!(report.outcomes.len(), 2);
    // Chunks dispatched after the hike pay the new price; the run costs
    // strictly more than the clean one.
    assert!(
        report.metrics.cpu_dollars > clean.metrics.cpu_dollars + 1e-12,
        "repriced {} vs clean {}",
        report.metrics.cpu_dollars,
        clean.metrics.cpu_dollars
    );
    // Validation still passes: the billing identity is skipped (and must
    // be — the single-price reconstruction no longer holds).
    assert_valid(&report, &cluster, &bound);
}

#[test]
fn rejoin_restores_the_machine_for_later_chunks() {
    let mut cluster = ec2_20_node(0.25, 3600.0);
    let bound = workload(&mut cluster);
    let clean = Simulation::new(&cluster, &bound)
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();
    let victim = primary_machine(&cluster, &bound);

    let plan = FaultPlan::new()
        .revoke_at(clean.makespan * 0.2, victim)
        .rejoin_at(clean.makespan * 0.4, victim);
    let report = Simulation::new(&cluster, &bound)
        .with_faults(plan)
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();

    assert_eq!(report.metrics.faults.revocations, 1);
    assert_eq!(report.metrics.faults.rejoins, 1);
    assert_eq!(report.outcomes.len(), 2);
    assert_valid(&report, &cluster, &bound);
}

/// After a store loss, a scheduler that re-replicates a lost object from a
/// surviving holder gets the copy counted as `recopied_mb`.
struct ReplicatingGreedy {
    inner: FaultAwareGreedy,
    /// Holder count per data id at first sight; a later shrink means a
    /// store died and its share must be re-copied.
    baseline: std::collections::BTreeMap<lips_cluster::DataId, usize>,
    repaired: bool,
}

impl Scheduler for ReplicatingGreedy {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        if !self.repaired {
            for j in ctx.queue {
                let Some(data) = j.data else { continue };
                let holders = ctx.placement.stores_of(data);
                let seen = *self.baseline.entry(data).or_insert(holders.len());
                if holders.len() < seen {
                    // Replicas died: re-copy a surviving share elsewhere.
                    let (from, mb) = holders[0];
                    let to = ctx
                        .cluster
                        .stores
                        .iter()
                        .find(|s| s.colocated.is_some() && holders.iter().all(|&(h, _)| h != s.id))
                        .expect("a non-holding DataNode exists")
                        .id;
                    self.repaired = true;
                    return vec![Action::MoveData { data, from, to, mb }];
                }
            }
        }
        self.inner.decide(ctx)
    }

    fn name(&self) -> &str {
        "replicating-greedy"
    }
}

#[test]
fn rereplication_of_lost_data_is_metered() {
    let mut cluster = ec2_20_node(0.25, 3600.0);
    let bound = workload(&mut cluster);
    let placement = Placement::spread_blocks_replicated(&cluster, 7, 2);
    let clean = Simulation::new(&cluster, &bound)
        .with_placement(placement.clone())
        .run(&mut FaultAwareGreedy::serialized())
        .unwrap();

    let data = bound.jobs[0].data.expect("grep has data");
    let (victim, _) = placement.stores_of(data)[0];
    let plan = FaultPlan::new().lose_store_at(clean.makespan * 0.2, victim);
    let mut sched = ReplicatingGreedy {
        inner: FaultAwareGreedy::serialized(),
        baseline: std::collections::BTreeMap::new(),
        repaired: false,
    };
    let report = Simulation::new(&cluster, &bound)
        .with_placement(placement)
        .with_faults(plan)
        .run(&mut sched)
        .unwrap();

    assert!(sched.repaired, "the repair branch never fired");
    assert!(
        report.metrics.faults.recopied_mb > 0.0,
        "re-replication of a lost object must be metered"
    );
    assert_eq!(report.outcomes.len(), 2);
    assert_valid(&report, &cluster, &bound);
}

#[test]
fn revoking_an_idle_machine_changes_nothing_but_the_count() {
    let mut cluster = ec2_20_node(0.25, 3600.0);
    let bound = workload(&mut cluster);
    let clean = Simulation::new(&cluster, &bound)
        .run(&mut FaultAwareGreedy::new())
        .unwrap();
    // A machine the greedy never touches (no busy seconds in the clean run).
    let idle = cluster
        .machines
        .iter()
        .find(|m| {
            clean
                .metrics
                .busy_sec_by_machine
                .get(&m.id)
                .copied()
                .unwrap_or(0.0)
                == 0.0
        })
        .expect("some machine is idle under greedy")
        .id;
    let plan = FaultPlan::new().revoke_at(clean.makespan * 0.5, idle);
    let report = Simulation::new(&cluster, &bound)
        .with_faults(plan)
        .run(&mut FaultAwareGreedy::new())
        .unwrap();
    assert_eq!(report.metrics.faults.revocations, 1);
    assert_eq!(report.metrics.faults.killed_chunks, 0);
    assert!((report.metrics.cpu_dollars - clean.metrics.cpu_dollars).abs() < 1e-9);
    assert_valid(&report, &cluster, &bound);
}
