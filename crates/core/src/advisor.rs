//! Capacity advisor: which node is worth renting more of?
//!
//! Runs the Fig-3/4 LP with dual extraction and ranks machines by the
//! shadow price of their CPU-capacity constraint: the dollars the optimal
//! schedule would save per additional ECU-second on that node. A cheap,
//! saturated node carries a strongly negative shadow price ("rent more of
//! these"); idle or expensive nodes carry zero ("these are not the
//! bottleneck").

use lips_cluster::{Cluster, MachineId};

use crate::lp_build::{solve_full, EpochSolveError, LpInstance, LpJob, PruneConfig};

/// One row of advice.
#[derive(Debug, Clone)]
pub struct CapacityAdvice {
    pub machine: MachineId,
    /// Instance type name (for "rent more of these" reporting).
    pub instance: &'static str,
    /// Dollars saved per extra ECU-second of capacity (≤ 0).
    pub shadow_dollars_per_ecu_sec: f64,
    /// Dollars saved per extra *node-hour* of this instance type.
    pub dollars_per_node_hour: f64,
}

/// Rank machines by marginal capacity value for a workload that must fit
/// within `horizon_s`. Results are sorted most-valuable first and include
/// only machines with a binding capacity constraint.
pub fn capacity_advice(
    cluster: &Cluster,
    jobs: Vec<LpJob>,
    horizon_s: f64,
) -> Result<Vec<CapacityAdvice>, EpochSolveError> {
    // No fake node: its astronomic price would dominate every dual. If
    // the workload cannot fit the horizon at all, the LP is infeasible
    // and the honest answer is "any capacity helps" — surfaced as the
    // error rather than a fabricated number.
    let inst = LpInstance {
        cluster,
        jobs,
        duration: horizon_s,
        fake_cost: None,
        allow_moves: true,
        enforce_transfer_time: false,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig::default(),
    };
    let mut advice: Vec<CapacityAdvice> = solve_full(&inst, None)?
        .shadow_prices
        .into_iter()
        .filter(|&(_, s)| s < -1e-15)
        .map(|(m, s)| {
            let mach = cluster.machine(m);
            CapacityAdvice {
                machine: m,
                instance: mach.instance.name,
                shadow_dollars_per_ecu_sec: s,
                // One node-hour of this type adds tp_ecu × 3600 ECU-seconds.
                dollars_per_node_hour: -s * mach.tp_ecu * 3600.0,
            }
        })
        .collect();
    advice.sort_by(|a, b| {
        a.shadow_dollars_per_ecu_sec
            .total_cmp(&b.shadow_dollars_per_ecu_sec)
            .then(a.machine.cmp(&b.machine))
    });
    Ok(advice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{ec2_20_node, StoreId};
    use lips_workload::JobId;

    fn cpu_heavy_jobs(n: usize, work_each: f64) -> Vec<LpJob> {
        (0..n)
            .map(|k| LpJob {
                id: JobId(k),
                data: Some(lips_cluster::DataId(k)),
                size_mb: 1024.0,
                tcp: work_each / 1024.0,
                fixed_ecu: 0.0,
                avail: vec![(StoreId(k % 20), 1.0)],
            })
            .collect()
    }

    #[test]
    fn saturated_cheap_nodes_are_most_valuable() {
        let cluster = ec2_20_node(0.5, 1e9);
        // Horizon at which the work fits but the cheap (c1) tier is
        // exactly saturated: 40,000 ECU-s over 800 s = the c1 rate.
        let advice = capacity_advice(&cluster, cpu_heavy_jobs(8, 5000.0), 850.0).unwrap();
        assert!(!advice.is_empty(), "tight horizon must bind some capacity");
        // The most valuable node is a c1.medium (cheap cycles).
        assert_eq!(advice[0].instance, "c1.medium");
        // Advice is sorted by marginal value.
        for w in advice.windows(2) {
            assert!(w[0].shadow_dollars_per_ecu_sec <= w[1].shadow_dollars_per_ecu_sec + 1e-18);
        }
        // Node-hour figures are positive and consistent with the shadow.
        for a in &advice {
            assert!(a.dollars_per_node_hour > 0.0);
        }
    }

    #[test]
    fn infeasible_horizon_is_an_error_not_a_number() {
        let cluster = ec2_20_node(0.5, 1e9);
        // 40,000 ECU-s cannot fit 70 ECU × 400 s = 28,000.
        assert!(capacity_advice(&cluster, cpu_heavy_jobs(8, 5000.0), 400.0).is_err());
    }

    #[test]
    fn shadow_prices_are_bounded_by_real_price_spreads() {
        // Without a fake node, no capacity can be worth more per
        // ECU-second than the cluster's own price spread.
        let cluster = ec2_20_node(0.5, 1e9);
        let advice = capacity_advice(&cluster, cpu_heavy_jobs(8, 5000.0), 850.0).unwrap();
        let spread = cluster.max_cpu_cost() - cluster.min_cpu_cost();
        for a in &advice {
            assert!(
                -a.shadow_dollars_per_ecu_sec <= spread * 1.01,
                "{a:?} exceeds spread {spread}"
            );
        }
    }

    #[test]
    fn abundant_capacity_yields_no_advice() {
        let cluster = ec2_20_node(0.5, 1e9);
        let advice = capacity_advice(&cluster, cpu_heavy_jobs(2, 100.0), 1e6).unwrap();
        // Nothing binds: no machine is worth paying more for.
        assert!(advice.is_empty(), "{advice:?}");
    }
}
