//! Post-run validation: conservation laws every simulation report must
//! satisfy, as a reusable checker.
//!
//! The engine validates *actions* as they are applied; this module checks
//! the *outcome* — work conservation, exact billing, completion
//! accounting — so tests, examples, and external users can assert a run
//! was physically coherent with one call.

use lips_cluster::Cluster;
use lips_workload::BoundWorkload;

use crate::metrics::SimReport;

/// A violated invariant (human-readable; used in assertions).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub what: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.what, self.detail)
    }
}

/// Check a report against the workload and cluster it came from.
/// Returns every violated invariant (empty = the run was coherent).
pub fn validate_report(
    report: &SimReport,
    cluster: &Cluster,
    workload: &BoundWorkload,
) -> Vec<Violation> {
    let mut v = Vec::new();

    // 1. Every job completed exactly once.
    if report.outcomes.len() != workload.jobs.len() {
        v.push(Violation {
            what: "completion count",
            detail: format!(
                "{} outcomes for {} jobs",
                report.outcomes.len(),
                workload.jobs.len()
            ),
        });
    }
    let mut seen = std::collections::BTreeSet::new();
    for o in &report.outcomes {
        if !seen.insert(o.id) {
            v.push(Violation {
                what: "duplicate outcome",
                detail: format!("{:?}", o.id),
            });
        }
        if o.completed < o.arrival {
            v.push(Violation {
                what: "time travel",
                detail: format!(
                    "{:?} completed {} before arrival {}",
                    o.id, o.completed, o.arrival
                ),
            });
        }
    }

    // 2. Work conservation: executed ECU-seconds = workload demand
    //    (map + reduce), to within float noise.
    let demand: f64 = workload
        .jobs
        .iter()
        .map(lips_workload::JobSpec::total_ecu_sec_with_reduce)
        .sum();
    let executed: f64 = report.metrics.ecu_sec_by_machine.values().sum();
    // Speculative duplicates legitimately execute extra work, so only
    // under-execution is a violation.
    if executed < demand - 1e-3 {
        v.push(Violation {
            what: "lost work",
            detail: format!("executed {executed:.3} ECU-s of {demand:.3} demanded"),
        });
    }

    // 3. Exact CPU billing: dollars = Σ per-machine work × price. Mid-run
    //    repricing bills different chunks at different prices, so the
    //    single-price identity only holds on runs without repricings.
    if report.metrics.faults.repricings == 0 {
        let expected: f64 = report
            .metrics
            .ecu_sec_by_machine
            .iter()
            .map(|(m, e)| cluster.machine(*m).cpu_dollars(*e))
            .sum();
        if (report.metrics.cpu_dollars - expected).abs() > 1e-9 * (1.0 + expected) {
            v.push(Violation {
                what: "billing mismatch",
                detail: format!("cpu ${} vs priced ${expected}", report.metrics.cpu_dollars),
            });
        }
    }

    // 4. Nonnegative meters.
    for (name, val) in [
        ("read_dollars", report.metrics.read_dollars),
        ("move_dollars", report.metrics.move_dollars),
        ("moved_mb", report.metrics.moved_mb),
        ("remote_read_mb", report.metrics.remote_read_mb),
        ("makespan", report.makespan),
        ("lost_ecu_sec", report.metrics.faults.lost_ecu_sec),
        ("lost_store_mb", report.metrics.faults.lost_store_mb),
        ("recopied_mb", report.metrics.faults.recopied_mb),
    ] {
        if val < 0.0 || !val.is_finite() {
            v.push(Violation {
                what: "bad meter",
                detail: format!("{name} = {val}"),
            });
        }
    }

    // 5. Makespan covers every completion.
    let last = report
        .outcomes
        .iter()
        .map(|o| o.completed)
        .fold(0.0f64, f64::max);
    if report.makespan + 1e-9 < last {
        v.push(Violation {
            what: "makespan too small",
            detail: format!("{} < last completion {last}", report.makespan),
        });
    }

    v
}

/// Check an LP solution against its model with the `lips-audit`
/// certificate verifier and report any failure in the same [`Violation`]
/// vocabulary as [`validate_report`].
///
/// Use this when a scheduler's decisions came from an LP solve: the
/// report-level checks above say the *simulation* was coherent, while the
/// certificate says the *plan it executed* was actually optimal (primal
/// and dual feasible, complementary, and gap-free). A solution whose duals
/// were dropped or tampered with fails here even if the simulated run
/// balances its books.
pub fn validate_certificate(
    model: &lips_lp::Model,
    solution: &lips_lp::Solution,
) -> Vec<Violation> {
    match lips_audit::certify(model, solution) {
        Ok(cert) if cert.is_optimal() => Vec::new(),
        Ok(cert) => cert
            .failures()
            .into_iter()
            .map(|detail| Violation {
                what: "lp certificate",
                detail,
            })
            .collect(),
        Err(e) => vec![Violation {
            what: "lp certificate",
            detail: e.to_string(),
        }],
    }
}

/// Panic with a readable message if the report is incoherent (test/demo
/// helper).
pub fn assert_valid(report: &SimReport, cluster: &Cluster, workload: &BoundWorkload) {
    let violations = validate_report(report, cluster, workload);
    assert!(
        violations.is_empty(),
        "simulation report violates {} invariant(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;
    use lips_cluster::ec2_20_node;
    use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

    // Reuse the engine's test scheduler pattern: greedy local FIFO.
    struct Greedy;
    impl crate::Scheduler for Greedy {
        fn decide(&mut self, ctx: &crate::SchedulerContext<'_>) -> Vec<crate::Action> {
            if let Some(j) = ctx.jobs_with_work().next() {
                if let Some(data) = j.data {
                    let (store, _) = ctx.placement.stores_of(data)[0];
                    let machine = ctx
                        .cluster
                        .store(store)
                        .colocated
                        .unwrap_or(lips_cluster::MachineId(0));
                    let mb = j.task_mb.min(j.remaining_mb);
                    return vec![crate::Action::RunChunk {
                        job: j.id,
                        machine,
                        source: Some(store),
                        mb,
                        fixed_ecu: 0.0,
                    }];
                }
                let ecu = j.task_fixed_ecu.min(j.remaining_fixed_ecu);
                return vec![crate::Action::RunChunk {
                    job: j.id,
                    machine: lips_cluster::MachineId(0),
                    source: None,
                    mb: 0.0,
                    fixed_ecu: ecu,
                }];
            }
            vec![]
        }
        fn name(&self) -> &str {
            "greedy"
        }
    }

    #[test]
    fn clean_run_validates() {
        let mut cluster = ec2_20_node(0.25, 3600.0);
        let jobs = vec![
            JobSpec::new(0, "g", JobKind::Grep, 640.0, 10),
            JobSpec::new(1, "p", JobKind::Pi, 0.0, 4),
            JobSpec::new(2, "wc", JobKind::WordCount, 320.0, 5).with_reduce(2, 64.0, 0.5),
        ];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let report = Simulation::new(&cluster, &workload)
            .run(&mut Greedy)
            .unwrap();
        assert_valid(&report, &cluster, &workload);
        assert!(validate_report(&report, &cluster, &workload).is_empty());
    }

    #[test]
    fn speculative_run_validates_despite_extra_work() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 1280.0, 20)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let report = Simulation::new(&cluster, &workload)
            .with_stragglers(0.4, 6.0, 3)
            .with_speculation(true)
            .run(&mut Greedy)
            .unwrap();
        assert_valid(&report, &cluster, &workload);
    }

    #[test]
    fn tampered_solution_is_caught() {
        // The LP analogue of `tampered_report_is_caught`: cook the books on
        // a solver-optimal solution and the certificate must call it out.
        use lips_lp::{Cmp, Model, Sense};
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let y = m.add_var("y", 0.0, 10.0, 3.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let sol = m.solve().unwrap();
        assert!(
            validate_certificate(&m, &sol).is_empty(),
            "honest solve must certify"
        );

        // Claim a better objective than the solve achieved.
        let cooked = lips_lp::Solution::from_parts(
            sol.objective() - 1.0,
            sol.values().to_vec(),
            sol.duals().to_vec(),
            sol.iterations(),
        );
        let v = validate_certificate(&m, &cooked);
        assert!(!v.is_empty(), "cooked objective must fail certification");
        assert!(v.iter().all(|x| x.what == "lp certificate"), "{v:?}");

        // Drop the duals entirely: an error, not a silent pass.
        let undocumented = lips_lp::Solution::from_parts(
            sol.objective(),
            sol.values().to_vec(),
            vec![],
            sol.iterations(),
        );
        let v = validate_certificate(&m, &undocumented);
        assert!(!v.is_empty(), "missing duals must fail certification");
    }

    #[test]
    fn tampered_report_is_caught() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![JobSpec::new(0, "g", JobKind::Grep, 640.0, 10)];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let mut report = Simulation::new(&cluster, &workload)
            .run(&mut Greedy)
            .unwrap();
        report.metrics.cpu_dollars *= 2.0; // cook the books
        let v = validate_report(&report, &cluster, &workload);
        assert!(v.iter().any(|x| x.what == "billing mismatch"), "{v:?}");
        report.makespan = 0.0;
        let v = validate_report(&report, &cluster, &workload);
        assert!(v.iter().any(|x| x.what == "makespan too small"));
    }

    #[test]
    fn repeated_outcome_is_caught() {
        let mut cluster = ec2_20_node(0.0, 3600.0);
        let jobs = vec![
            JobSpec::new(0, "a", JobKind::Grep, 320.0, 5),
            JobSpec::new(1, "b", JobKind::Grep, 320.0, 5),
        ];
        let workload = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, 1);
        let mut report = Simulation::new(&cluster, &workload)
            .run(&mut Greedy)
            .unwrap();
        assert!(validate_report(&report, &cluster, &workload).is_empty());
        // Same outcome count, but one job lost and the other reported twice.
        report.outcomes[1] = report.outcomes[0].clone();
        let v = validate_report(&report, &cluster, &workload);
        assert_eq!(
            v,
            vec![Violation {
                what: "duplicate outcome",
                detail: format!("{:?}", report.outcomes[0].id),
            }]
        );
    }
}
