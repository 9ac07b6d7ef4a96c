//! LP solver performance — the §VI-A overhead claim.
//!
//! The paper reports GLPK solving "problems involving thousands of tasks"
//! in tens of milliseconds. This bench measures our revised simplex on
//! Fig-4-shaped instances of growing size, plus raw solver benchmarks on
//! dense random LPs and a refactorization-interval ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lips_bench::lp_epoch::{run_cold, run_epochs, run_epochs_faulted, FaultScript};
use lips_cluster::{ec2_mixed_cluster, DataId, StoreId};
use lips_core::lp_build::{solve_full, LpInstance, LpJob, PruneConfig};
use lips_lp::revised::{RevisedOptions, RevisedSimplex};
use lips_lp::{Cmp, Model, Sense};
use lips_workload::JobId;

/// Build a Fig-4-style epoch instance: `jobs` jobs on a mixed cluster,
/// each job's data on one store.
fn epoch_instance(cluster: &lips_cluster::Cluster, jobs: usize) -> LpInstance<'_> {
    let lp_jobs: Vec<LpJob> = (0..jobs)
        .map(|k| LpJob {
            id: JobId(k),
            data: Some(DataId(k)),
            size_mb: 2048.0,
            tcp: 1.0,
            fixed_ecu: 0.0,
            avail: vec![(StoreId(k % cluster.num_stores()), 1.0)],
        })
        .collect();
    LpInstance {
        cluster,
        jobs: lp_jobs,
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

fn bench_epoch_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("epoch_lp");
    g.sample_size(10);
    for (jobs, machines) in [(8usize, 20usize), (16, 50), (32, 100)] {
        let cluster = ec2_mixed_cluster(machines, 0.4, 1e9, 1);
        let inst = epoch_instance(&cluster, jobs);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("J{jobs}_M{machines}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let report = solve_full(inst, None).unwrap();
                    black_box(report.schedule.predicted_dollars)
                });
            },
        );
    }
    g.finish();
}

fn bench_epoch_sequence(c: &mut Criterion) {
    // The solve-path story end to end: a whole chained epoch sequence per
    // iteration — the cold oracle vs the scheduler's column-generation
    // ladder — on a mid-size cluster (the full 100-node, 20-epoch
    // acceptance numbers come from the `lp_bench` binary).
    let cluster = ec2_mixed_cluster(50, 0.4, 1e9, 1);
    let mut g = c.benchmark_group("epoch_sequence");
    g.sample_size(10);
    g.bench_function("cold", |b| {
        b.iter(|| black_box(run_cold(&cluster, 16, 2, 3, 8, 1).total_iterations));
    });
    g.bench_function("colgen", |b| {
        b.iter(|| black_box(run_epochs(&cluster, 16, 2, 3, 8, 1).total_iterations));
    });
    g.finish();
}

/// Random sparse LP of n vars, m constraints (feasible by construction).
fn random_lp(n: usize, m: usize, seed: u64) -> Model {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut model = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|i| model.add_var(format!("x{i}"), 0.0, 1.0, rng.gen_range(-1.0..1.0)))
        .collect();
    for _ in 0..m {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.3) {
                terms.push((v, rng.gen_range(0.1..1.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let cap = terms.len() as f64 * 0.5;
        model.add_constraint(terms, Cmp::Le, cap);
    }
    model
}

fn bench_raw_simplex(c: &mut Criterion) {
    let mut g = c.benchmark_group("revised_simplex");
    g.sample_size(10);
    for (n, m) in [(100usize, 50usize), (400, 200), (1000, 400)] {
        let model = random_lp(n, m, 7);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &model,
            |b, model| b.iter(|| black_box(model.solve().unwrap().objective())),
        );
    }
    g.finish();
}

fn bench_refactor_interval(c: &mut Criterion) {
    // Ablation: eta-file length vs refactorization frequency.
    let model = random_lp(400, 200, 11);
    let mut g = c.benchmark_group("refactor_interval");
    g.sample_size(10);
    for interval in [16usize, 96, 512] {
        let solver = RevisedSimplex::with_options(RevisedOptions {
            refactor_interval: interval,
            ..Default::default()
        });
        g.bench_with_input(BenchmarkId::from_parameter(interval), &solver, |b, s| {
            b.iter(|| black_box(s.solve(&model).unwrap().objective()));
        });
    }
    g.finish();
}

/// The scheduler's ladder re-solving through the scripted fault
/// sequence — revocations, a store loss, a repricing, and a rejoin
/// mid-run. This is the microbenchmark behind `lp_bench --faults`.
fn bench_churn_resolve(c: &mut Criterion) {
    let cluster = ec2_mixed_cluster(50, 0.4, 1e9, 1);
    let script = FaultScript::acceptance(&cluster);
    let mut g = c.benchmark_group("churn_resolve");
    g.sample_size(10);
    g.bench_function("colgen", |b| {
        b.iter(|| {
            black_box(
                run_epochs_faulted(&cluster, 16, 2, 3, 8, &script, 1)
                    .run
                    .total_iterations,
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_epoch_lp,
    bench_epoch_sequence,
    bench_raw_simplex,
    bench_refactor_interval,
    bench_churn_resolve
);
criterion_main!(benches);
