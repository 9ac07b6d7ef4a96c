//! Per-decision scheduler overhead: one full `decide()` call (LP build +
//! solve + rounding for LiPS; queue scan for the baselines) on a realistic
//! cluster state. The paper's claim: LiPS's per-epoch overhead is tens of
//! milliseconds, negligible against multi-minute job durations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

use lips_cluster::{ec2_mixed_cluster, Cluster};
use lips_core::{DelayScheduler, HadoopDefaultScheduler, LipsScheduler, SchedulerConfig};
use lips_sim::{MachineState, PendingJob, Placement, Scheduler, SchedulerContext};
use lips_workload::{bind_workload, BoundWorkload, JobKind, JobSpec, PlacementPolicy};

struct Fixture {
    cluster: Cluster,
    #[allow(dead_code)]
    bound: BoundWorkload,
    placement: Placement,
    queue: Vec<PendingJob>,
    machines: Vec<MachineState>,
}

fn fixture(machines: usize, jobs: usize) -> Fixture {
    let mut cluster = ec2_mixed_cluster(machines, 0.4, 1e9, 1);
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            let kind = [JobKind::Grep, JobKind::Stress2, JobKind::WordCount][i % 3];
            JobSpec::new(i, format!("j{i}"), kind, 2048.0, 32)
        })
        .collect();
    let bound = bind_workload(&mut cluster, specs, PlacementPolicy::RoundRobin, 1);
    let placement = Placement::spread_blocks(&cluster, 1);
    let queue: Vec<PendingJob> = bound.jobs.iter().map(PendingJob::from_spec).collect();
    let machine_states: Vec<MachineState> =
        cluster.machines.iter().map(MachineState::new).collect();
    Fixture {
        cluster,
        bound,
        placement,
        queue,
        machines: machine_states,
    }
}

fn bench_decide(c: &mut Criterion) {
    let mut g = c.benchmark_group("decide");
    g.sample_size(10);
    for (m, j) in [(20usize, 9usize), (100, 32)] {
        let fx = fixture(m, j);
        let label = format!("M{m}_J{j}");
        g.bench_with_input(BenchmarkId::new("lips", &label), &fx, |b, fx| {
            b.iter(|| {
                // Fresh scheduler each iteration: `decide` carries its
                // basis into the next call, and a carried basis would
                // change the work.
                let mut s = LipsScheduler::new(SchedulerConfig::large_cluster(600.0));
                let ctx = SchedulerContext {
                    now: 0.0,
                    cluster: &fx.cluster,
                    placement: &fx.placement,
                    queue: &fx.queue,
                    machines: &fx.machines,
                    reads_used: &BTreeMap::new(),
                };
                black_box(s.decide(&ctx).len())
            });
        });
        g.bench_with_input(BenchmarkId::new("hadoop_default", &label), &fx, |b, fx| {
            b.iter(|| {
                let mut s = HadoopDefaultScheduler::new();
                let ctx = SchedulerContext {
                    now: 0.0,
                    cluster: &fx.cluster,
                    placement: &fx.placement,
                    queue: &fx.queue,
                    machines: &fx.machines,
                    reads_used: &BTreeMap::new(),
                };
                black_box(s.decide(&ctx).len())
            });
        });
        g.bench_with_input(BenchmarkId::new("delay", &label), &fx, |b, fx| {
            b.iter(|| {
                let mut s = DelayScheduler::default();
                let ctx = SchedulerContext {
                    now: 0.0,
                    cluster: &fx.cluster,
                    placement: &fx.placement,
                    queue: &fx.queue,
                    machines: &fx.machines,
                    reads_used: &BTreeMap::new(),
                };
                black_box(s.decide(&ctx).len())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_decide);
criterion_main!(benches);
