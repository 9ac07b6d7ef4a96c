//! Property tests on the LP scheduler outputs: every fractional schedule
//! the builder decodes must be *physically* consistent with the instance
//! it was built from — independent of what the simulator would later
//! check.

use std::collections::BTreeMap;

use lips_cluster::{ec2_mixed_cluster, DataId, MachineId, StoreId};
use lips_core::lp_build::{
    solve_full, EpochSolveError, FractionalSchedule, LpInstance, LpJob, PruneConfig,
};
use lips_workload::JobId;
use proptest::prelude::*;

/// The certified full-model schedule of `inst`.
fn solve(inst: &LpInstance<'_>) -> Result<FractionalSchedule, EpochSolveError> {
    solve_full(inst, None).map(|r| r.schedule)
}

#[derive(Debug, Clone)]
struct RandomInstance {
    nodes: usize,
    c1: f64,
    seed: u64,
    jobs: Vec<(f64, f64, usize)>, // (size_mb, tcp, holder index)
    duration: f64,
    fake: bool,
}

fn instance_strategy() -> impl Strategy<Value = RandomInstance> {
    (
        4usize..20,
        0.0f64..0.8,
        0u64..5000,
        prop::collection::vec((64.0f64..2048.0, 0.05f64..3.0, 0usize..100), 1..5),
        500.0f64..50_000.0,
        any::<bool>(),
    )
        .prop_map(|(nodes, c1, seed, jobs, duration, fake)| RandomInstance {
            nodes,
            c1,
            seed,
            jobs,
            duration,
            fake,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decoded_schedules_are_physically_consistent(ri in instance_strategy()) {
        let cluster = ec2_mixed_cluster(ri.nodes, ri.c1, 1e9, ri.seed);
        let jobs: Vec<LpJob> = ri
            .jobs
            .iter()
            .enumerate()
            .map(|(k, &(size, tcp, h))| LpJob {
                id: JobId(k),
                data: Some(DataId(k)),
                size_mb: size,
                tcp,
                fixed_ecu: 0.0,
                avail: vec![(StoreId(h % ri.nodes), 1.0)],
            })
            .collect();
        let inst = LpInstance {
            cluster: &cluster,
            jobs: jobs.clone(),
            duration: ri.duration,
            fake_cost: if ri.fake { Some(1.0) } else { None },
            allow_moves: true,
            enforce_transfer_time: false,
            store_free_mb: vec![],
            pool_floors: vec![],
            prune: PruneConfig::default(),
        };
        let sched = match solve(&inst) {
            Ok(s) => s,
            // Without the fake node, tight durations are legitimately
            // infeasible.
            Err(_) if !ri.fake => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("fake-node LP failed: {e}"))),
        };

        // 1. Fractions in [0,1]; per-job totals + deferral == 1.
        let mut per_job: BTreeMap<JobId, f64> = BTreeMap::new();
        for &(j, _, _, f) in &sched.assignments {
            prop_assert!((0.0..=1.0 + 1e-6).contains(&f));
            *per_job.entry(j).or_default() += f;
        }
        for job in &jobs {
            let assigned = per_job.get(&job.id).copied().unwrap_or(0.0);
            let deferred = sched.deferred.get(&job.id).copied().unwrap_or(0.0);
            prop_assert!(
                (assigned + deferred - 1.0).abs() < 1e-5,
                "{:?}: assigned {assigned} + deferred {deferred} != 1",
                job.id
            );
        }

        // 2. Machine capacity: Σ work·frac ≤ TP·duration (+tol).
        let mut per_machine: BTreeMap<MachineId, f64> = BTreeMap::new();
        for &(j, l, _, f) in &sched.assignments {
            let work = jobs[j.0].work_ecu();
            *per_machine.entry(l).or_default() += work * f;
        }
        for (l, used) in per_machine {
            let cap = cluster.machine(l).capacity_ecu_seconds(ri.duration);
            prop_assert!(used <= cap * (1.0 + 1e-6) + 1e-6, "machine {l:?}: {used} > {cap}");
        }

        // 3. Link constraint: reads from a store ≤ availability + copies.
        let mut moved_to: BTreeMap<(DataId, StoreId), f64> = BTreeMap::new();
        for &(d, _, to, mb) in &sched.moves {
            prop_assert!(mb >= -1e-9);
            *moved_to.entry((d, to)).or_default() += mb;
        }
        let mut reads: BTreeMap<(JobId, StoreId), f64> = BTreeMap::new();
        for &(j, _, s, f) in &sched.assignments {
            if let Some(s) = s {
                *reads.entry((j, s)).or_default() += f;
            }
        }
        for ((j, s), frac) in reads {
            let job = &jobs[j.0];
            let avail: f64 = job
                .avail
                .iter()
                .filter(|&&(st, _)| st == s)
                .map(|&(_, a)| a)
                .sum();
            let new = moved_to
                .get(&(job.data.unwrap(), s))
                .copied()
                .unwrap_or(0.0)
                / job.size_mb;
            prop_assert!(
                frac <= avail + new + 1e-5,
                "{j:?} reads {frac} from {s:?} with avail {avail} + new {new}"
            );
        }

        // 4. Moves only from actual holders.
        for &(d, from, _, _) in &sched.moves {
            let job = jobs.iter().find(|j| j.data == Some(d)).unwrap();
            prop_assert!(job.avail.iter().any(|&(s, _)| s == from));
        }

        // 5. Objective is nonnegative and finite.
        prop_assert!(sched.predicted_dollars.is_finite());
        prop_assert!(sched.predicted_dollars >= -1e-9);
    }

    /// Pruned instances are always feasible when the exact one is, and
    /// never cheaper (pruning only removes options).
    #[test]
    fn pruning_is_sound(ri in instance_strategy()) {
        let cluster = ec2_mixed_cluster(ri.nodes, ri.c1, 1e9, ri.seed);
        let jobs: Vec<LpJob> = ri
            .jobs
            .iter()
            .enumerate()
            .map(|(k, &(size, tcp, h))| LpJob {
                id: JobId(k),
                data: Some(DataId(k)),
                size_mb: size,
                tcp,
                fixed_ecu: 0.0,
                avail: vec![(StoreId(h % ri.nodes), 1.0)],
            })
            .collect();
        let mk = |prune: PruneConfig| LpInstance {
            cluster: &cluster,
            jobs: jobs.clone(),
            duration: 1e7, // abundant so both are feasible
            fake_cost: None,
            allow_moves: true,
            enforce_transfer_time: false,
            store_free_mb: vec![],
            pool_floors: vec![],
            prune,
        };
        let exact = solve(&mk(PruneConfig::default())).unwrap();
        let pruned = solve(&mk(PruneConfig {
            max_machines_per_job: Some(3),
            max_new_stores_per_job: Some(2),
        }))
        .unwrap();
        prop_assert!(
            pruned.predicted_dollars >= exact.predicted_dollars - 1e-9,
            "pruned {} < exact {}",
            pruned.predicted_dollars,
            exact.predicted_dollars
        );
    }
}
