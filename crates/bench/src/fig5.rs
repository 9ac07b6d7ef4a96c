//! The Figure 5 analytic sweep: average cost reduction of the LiPS LP
//! optimum versus the 100 %-locality ideal-delay baseline, on random
//! clusters and workloads, as a function of problem size.
//!
//! Exactly the paper's §VI-B simulation: "The simulator creates and solves
//! the LP problem, and therefore, computes the dollar cost of the optimal
//! scheduling result. With the same setting, it then shuffles the data
//! blocks randomly within the cluster and then schedules ALL tasks local
//! to the data blocks … the result of such a default scheduling is the
//! same as the ideal delay scheduler."

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use lips_cluster::{random_cluster, RandomClusterCfg, StoreId, BLOCK_MB};
use lips_core::lp_build::{solve_full, LpInstance, LpJob, PruneConfig};
use lips_workload::{random_workload, RandomWorkloadCfg};

/// One x-axis point of Figure 5.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Total task count `J` (the figure's first coordinate).
    pub tasks: usize,
    /// Data stores `S`.
    pub stores: usize,
    /// Computation nodes `M`.
    pub machines: usize,
}

/// Result of one point, averaged over trials.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    pub point: Fig5Point,
    /// Mean LP-optimal dollars.
    pub lips_dollars: f64,
    /// Mean ideal-delay (100 % locality after random shuffle) dollars.
    pub ideal_delay_dollars: f64,
    /// Mean cost reduction `1 − lips/ideal`.
    pub reduction: f64,
    pub trials: usize,
}

/// Paper x-axis points (reading Figure 5's axis labels).
pub fn paper_points() -> Vec<Fig5Point> {
    vec![
        Fig5Point {
            tasks: 200,
            stores: 10,
            machines: 10,
        },
        Fig5Point {
            tasks: 400,
            stores: 25,
            machines: 25,
        },
        Fig5Point {
            tasks: 600,
            stores: 50,
            machines: 50,
        },
        Fig5Point {
            tasks: 800,
            stores: 75,
            machines: 75,
        },
        Fig5Point {
            tasks: 1000,
            stores: 100,
            machines: 100,
        },
    ]
}

/// Evaluate one Figure 5 point over `trials` random instances.
pub fn fig5_point(point: Fig5Point, trials: usize, seed: u64) -> Fig5Result {
    let mut lips_sum = 0.0;
    let mut ideal_sum = 0.0;
    for t in 0..trials {
        let trial_seed = seed.wrapping_mul(1_000_003).wrapping_add(t as u64);
        let (lips, ideal) = one_trial(point, trial_seed);
        lips_sum += lips;
        ideal_sum += ideal;
    }
    let (lips, ideal) = (lips_sum / trials as f64, ideal_sum / trials as f64);
    Fig5Result {
        point,
        lips_dollars: lips,
        ideal_delay_dollars: ideal,
        reduction: 1.0 - lips / ideal,
        trials,
    }
}

/// One random instance: returns `(lips_dollars, ideal_delay_dollars)`.
fn one_trial(point: Fig5Point, seed: u64) -> (f64, f64) {
    let cluster_cfg = RandomClusterCfg {
        machines: point.machines,
        stores: point.stores.max(point.machines),
        ..Default::default()
    };
    let cluster = random_cluster(&cluster_cfg, seed);
    // ~50 tasks per job, each task one block (paper jobs are block-split).
    let n_jobs = (point.tasks / 50).max(2);
    let blocks_per_job = point.tasks / n_jobs;
    let wl_cfg = RandomWorkloadCfg {
        jobs: n_jobs,
        input_mb: (
            blocks_per_job as f64 * BLOCK_MB,
            blocks_per_job as f64 * BLOCK_MB,
        ),
        ..Default::default()
    };
    let jobs = random_workload(&wl_cfg, seed.wrapping_add(1));
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(2));

    // --- LiPS: LP optimum with each job's data at one random origin -----
    let lp_jobs: Vec<LpJob> = jobs
        .iter()
        .map(|j| LpJob {
            id: j.id,
            data: Some(lips_cluster::DataId(j.id.0)),
            size_mb: j.input_mb,
            tcp: j.tcp_ecu_sec_per_mb,
            fixed_ecu: 0.0,
            avail: vec![(StoreId(rng.gen_range(0..point.machines)), 1.0)],
        })
        .collect();
    let uptime = 1e7; // abundant time: the offline setting
                      // With abundant capacity the LP only ever uses the cheapest machines,
                      // so pruning the candidate sets loses nothing while keeping the
                      // 100-node points fast.
    let inst = LpInstance {
        cluster: &cluster,
        jobs: lp_jobs,
        duration: uptime,
        fake_cost: None,
        allow_moves: true,
        enforce_transfer_time: false,
        store_free_mb: vec![],
        pool_floors: vec![],
        prune: PruneConfig {
            max_machines_per_job: Some(40),
            max_new_stores_per_job: Some(12),
        },
    };
    let sched = solve_full(&inst, None)
        .expect("offline LP solvable")
        .schedule;
    let lips_dollars = sched.predicted_dollars;

    // --- Ideal delay: random block shuffle, every task local ------------
    // Each block lands on a random machine's store and runs there:
    // cost = block work × that machine's CPU price; zero transfer.
    let mut ideal = 0.0;
    for j in &jobs {
        let blocks = (j.input_mb / BLOCK_MB).ceil() as usize;
        let work_per_block = j.total_ecu_sec() / blocks as f64;
        for _ in 0..blocks {
            let m = rng.gen_range(0..point.machines);
            ideal += work_per_block * cluster.machines[m].cpu_cost;
        }
    }
    (lips_dollars, ideal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_point_positive_reduction() {
        let r = fig5_point(
            Fig5Point {
                tasks: 100,
                stores: 8,
                machines: 8,
            },
            3,
            1,
        );
        assert!(r.lips_dollars > 0.0);
        assert!(r.ideal_delay_dollars > 0.0);
        assert!(r.reduction > 0.0, "LP must beat random-local: {r:?}");
        assert!(r.reduction < 1.0);
    }

    #[test]
    fn reduction_grows_with_cluster_size() {
        // The figure's headline shape: more nodes = more freedom = larger
        // savings. Averaged over enough trials that the gap dominates
        // per-seed noise, and compared with a small slack: the claim is
        // about the trend across a 3x size jump, not about any single
        // seed's sampling noise, so a strict zero-margin comparison would
        // make the test a coin flip near ties.
        let small = fig5_point(
            Fig5Point {
                tasks: 200,
                stores: 10,
                machines: 10,
            },
            10,
            7,
        );
        let large = fig5_point(
            Fig5Point {
                tasks: 400,
                stores: 30,
                machines: 30,
            },
            10,
            7,
        );
        assert!(
            large.reduction > small.reduction - 0.01,
            "small {} large {}",
            small.reduction,
            large.reduction
        );
        // Both ends of the sweep must still show a real saving.
        assert!(small.reduction > 0.05, "small point saved nothing");
        assert!(large.reduction > 0.05, "large point saved nothing");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Fig5Point {
            tasks: 100,
            stores: 8,
            machines: 8,
        };
        let a = fig5_point(p, 2, 3);
        let b = fig5_point(p, 2, 3);
        assert_eq!(a.lips_dollars, b.lips_dollars);
        assert_eq!(a.ideal_delay_dollars, b.ideal_delay_dollars);
    }
}
