//! `sim-faults`: the `lips-sim` event engine under the default
//! `LipsScheduler` (warm-started full model plus the dual rung, no column
//! generation) over a SWIM-shaped trace, with a scripted `FaultPlan` of
//! machine revoke/rejoin pairs. `validate_report` checks every run.
//!
//! This is the only workload on the non-colgen solve path (string-keyed
//! warm starts, their sanitisation after a revocation, the repaired-warm
//! and dual rungs), on the event engine, and on fault handling.

use std::collections::BTreeMap;
use std::time::Instant;

use lips_cluster::{ec2_mixed_cluster, Cluster, MachineId};
use lips_core::{LipsScheduler, SchedulerConfig};
use lips_sim::{validate_report, Action, FaultPlan, Scheduler, SchedulerContext, Simulation};
use lips_workload::{bind_workload, swim_trace, BoundWorkload, PlacementPolicy, SwimCfg};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pass::Pass;
use crate::trace::Tracer;
use crate::Workload;

const NODES: usize = 20;
const JOBS: usize = 1000;
const HOURS: usize = 20;
const EPOCH_S: f64 = 600.0;
const FAULT_PAIRS: usize = 8;

pub struct SimFaults;

pub struct Input {
    cluster: Cluster,
    workload: BoundWorkload,
    plan: FaultPlan,
    scheduler: LipsScheduler,
}

/// `FAULT_PAIRS` revoke/rejoin pairs spread evenly over the trace, each on
/// a seeded machine, each outage shorter than the gap to the next one.
fn fault_plan(seed: u64) -> FaultPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed_fa17);
    let span = HOURS as f64 * 3600.0;
    let slot = span / FAULT_PAIRS as f64;
    (0..FAULT_PAIRS).fold(FaultPlan::new(), |plan, i| {
        let machine = MachineId(rng.gen_range(0..NODES));
        let at = slot * i as f64 + rng.gen_range(0.1..0.4) * slot;
        let back = at + rng.gen_range(0.2..0.5) * slot;
        plan.revoke_at(at, machine).rejoin_at(back, machine)
    })
}

/// Forwards to the scheduler under test and times every decision.
struct Timed<'a> {
    inner: &'a mut LipsScheduler,
    tr: &'a mut Tracer,
    parent: Option<usize>,
    /// Host ms of every decide call, and of the LP ones with their record
    /// index and the host-speed factor measured right after.
    decide_ms: f64,
    lp: Vec<(usize, f64, f64)>,
}

impl Scheduler for Timed<'_> {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> Vec<Action> {
        let before = self.inner.epoch_records().len();
        let open = self.tr.open("core.decide", self.parent, None);
        let actions = self.inner.decide(ctx);
        let ms = self.tr.close(open);
        self.decide_ms += ms;
        if self.inner.epoch_records().len() > before {
            self.tr.set_epoch(open, before);
            let speed = self.tr.host_speed(self.parent);
            self.lp.push((before, ms, speed));
        }
        actions
    }

    fn epoch(&self) -> Option<f64> {
        self.inner.epoch()
    }

    fn degraded_epochs(&self) -> usize {
        self.inner.degraded_epochs()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Workload for SimFaults {
    type Stream = u64;
    type Input = Input;
    const INCREMENTAL_SHARE: (f64, f64) = (0.0, 1.0);

    fn stream(&self, seed: u64) -> u64 {
        seed
    }

    fn setup(&self, &seed: &u64, threads: usize, tr: &mut Tracer) -> Input {
        let cfg = SwimCfg {
            jobs: JOBS,
            hours: HOURS,
            ..SwimCfg::default()
        };
        let ((jobs, plan), _) = tr.time("workload.gen", None, || {
            (swim_trace(&cfg, seed), fault_plan(seed))
        });
        let (mut cluster, _) = tr.time("cluster.build", None, || {
            ec2_mixed_cluster(NODES, 0.5, 1e9, seed)
        });
        let (workload, _) = tr.time("workload.bind", None, || {
            bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, seed)
        });
        let config = SchedulerConfig::builder()
            .epoch_s(EPOCH_S)
            .threads(Some(threads))
            .build()
            .expect("the default configuration validates");
        let (scheduler, _) = tr.time("core.new", None, || LipsScheduler::new(config));
        Input {
            cluster,
            workload,
            plan,
            scheduler,
        }
    }

    fn jobs(&self, input: &Input) -> usize {
        input.workload.jobs.len()
    }

    fn run(&self, input: Input, tr: &mut Tracer) -> Pass {
        let Input {
            cluster,
            workload,
            plan,
            mut scheduler,
        } = input;
        let mut pass = Pass {
            submitted: workload.jobs.len(),
            ..Pass::default()
        };
        let probe_ms = tr.probe_ms();
        let start = Instant::now();
        let open = tr.open("sim.run", None, None);
        let mut timed = Timed {
            inner: &mut scheduler,
            tr,
            parent: open.id(),
            decide_ms: 0.0,
            lp: Vec::new(),
        };
        let result = Simulation::new(&cluster, &workload)
            .with_faults(plan)
            .run(&mut timed);
        let Timed { decide_ms, lp, .. } = timed;
        let run_ms = tr.close(open);
        let probe_ms = tr.probe_ms() - probe_ms;
        pass.timed_s = start.elapsed().as_secs_f64() - probe_ms / 1e3;

        let report = match result {
            Ok(r) => r,
            Err(e) => {
                pass.violations.push(format!("simulation failed: {e}"));
                return pass;
            }
        };
        let (violations, validate_ms) = tr.time("sim.validate", None, || {
            validate_report(&report, &cluster, &workload)
        });
        pass.violations
            .extend(violations.iter().map(|v| format!("validate_report: {v}")));

        let records = scheduler.epoch_records();
        let mut core_self_ms = 0.0;
        for &(i, ms, speed) in &lp {
            let r = &records[i];
            pass.epoch_ms.push(ms);
            pass.speed.push(speed);
            core_self_ms += ms - (r.build_ms + r.solve_ms + r.certify_ms);
        }
        let ecu: BTreeMap<usize, f64> = workload
            .jobs
            .iter()
            .map(|j| (j.id.0, j.total_ecu_sec_with_reduce()))
            .collect();
        let m = &report.metrics;
        pass.cpu_dollars = m.cpu_dollars;
        pass.read_dollars = m.read_dollars;
        pass.move_dollars = m.move_dollars;
        pass.total_dollars = m.total_dollars();
        pass.completed = report.outcomes.len();
        let mut outcomes: Vec<(usize, f64, f64)> = report
            .outcomes
            .iter()
            .map(|o| (o.id.0, o.arrival, o.completed))
            .collect();
        outcomes.sort_by_key(|o| o.0);
        pass.completed_ecu_s = outcomes
            .iter()
            .map(|o| ecu.get(&o.0).copied().unwrap_or(0.0))
            .sum();
        pass.outcomes = outcomes;
        pass.records = records.to_vec();
        pass.layer.insert("sim.decide_ms", decide_ms);
        pass.layer
            .insert("sim.engine_self_ms", run_ms - decide_ms - probe_ms);
        pass.layer.insert("sim.events", report.events as f64);
        pass.layer
            .insert("sim.killed_chunks", m.faults.killed_chunks as f64);
        pass.layer.insert("sim.validate_ms", validate_ms);
        pass.layer.insert("core.self_ms", core_self_ms);
        pass.layer.insert(
            "core.stale_basis_entries_dropped",
            scheduler.stale_basis_entries_dropped() as f64,
        );
        pass.check_common();
        pass
    }
}
