//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Candidate pruning** — exact Fig-4 LP vs. the pruned production
//!    configuration: solution cost and decision latency.
//! 2. **HDFS replication factor** — how baseline locality (and therefore
//!    LiPS's relative savings) changes with 1× / 2× / 3× block replicas.
//! 3. **Stragglers & speculation** — 10 % of chunks running 4× slower:
//!    dollar bills are untouched (work-based billing) while makespans
//!    stretch; turning Hadoop-style speculative execution on buys the time
//!    back for extra dollars — exactly why the paper disables it (§VI-A).
//! 4. **Fairness dial σ** — the price of pool fairness floors.
//!
//! Flags: `--json`.

use std::time::Instant;

use lips_bench::report::{emit_json, ExperimentRecord};
use lips_bench::table::{dollars, pct, secs};
use lips_bench::Table;
use lips_cluster::ec2_mixed_cluster;
use lips_core::{DelayScheduler, LipsScheduler, SchedulerConfig};
use lips_sim::{Placement, Simulation};
use lips_workload::{bind_workload, JobKind, JobSpec, PlacementPolicy};

fn jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(0, "grep", JobKind::Grep, 6144.0, 96),
        JobSpec::new(1, "wc", JobKind::WordCount, 6144.0, 96).in_pool("analytics"),
        JobSpec::new(2, "stress", JobKind::Stress2, 4096.0, 64).in_pool("etl"),
        JobSpec::new(3, "pi", JobKind::Pi, 0.0, 8),
    ]
}

fn run_with(
    nodes: usize,
    cfg: SchedulerConfig,
    replicas: usize,
    stragglers: Option<(f64, f64)>,
) -> (lips_sim::SimReport, f64) {
    let mut cluster = ec2_mixed_cluster(nodes, 0.5, 1e9, 7);
    let bound = bind_workload(&mut cluster, jobs(), PlacementPolicy::RoundRobin, 7);
    let placement = if replicas > 1 {
        Placement::spread_blocks_replicated(&cluster, 7, replicas)
    } else {
        Placement::spread_blocks(&cluster, 7)
    };
    let mut sim = Simulation::new(&cluster, &bound).with_placement(placement);
    if let Some((p, f)) = stragglers {
        sim = sim.with_stragglers(p, f, 7);
    }
    let mut sched = LipsScheduler::new(cfg);
    #[expect(clippy::disallowed_methods, reason = "bench timing, reported only")]
    let t0 = Instant::now();
    let report = sim.run(&mut sched).expect("completes");
    (report, t0.elapsed().as_secs_f64())
}

fn run_delay(nodes: usize, replicas: usize, stragglers: Option<(f64, f64)>) -> lips_sim::SimReport {
    run_delay_spec(nodes, replicas, stragglers, false)
}

fn run_delay_spec(
    nodes: usize,
    replicas: usize,
    stragglers: Option<(f64, f64)>,
    speculation: bool,
) -> lips_sim::SimReport {
    let mut cluster = ec2_mixed_cluster(nodes, 0.5, 1e9, 7);
    let bound = bind_workload(&mut cluster, jobs(), PlacementPolicy::RoundRobin, 7);
    let placement = if replicas > 1 {
        Placement::spread_blocks_replicated(&cluster, 7, replicas)
    } else {
        Placement::spread_blocks(&cluster, 7)
    };
    let mut sim = Simulation::new(&cluster, &bound)
        .with_placement(placement)
        .with_speculation(speculation);
    if let Some((p, f)) = stragglers {
        sim = sim.with_stragglers(p, f, 7);
    }
    let mut sched = DelayScheduler::default();
    sim.run(&mut sched).expect("completes")
}

fn main() {
    let mut records = Vec::new();

    // ---- 1. pruning ------------------------------------------------------
    println!("Ablation 1 — candidate pruning (40-node cluster, epoch 2000 s)\n");
    let mut t = Table::new(["config", "total $", "wall time (whole sim)"]);
    let exact = SchedulerConfig::small_cluster(2000.0);
    let mut pruned = SchedulerConfig::large_cluster(2000.0);
    pruned.epoch_s = 2000.0;
    let (re, we) = run_with(40, exact, 1, None);
    let (rp, wp) = run_with(40, pruned, 1, None);
    t.row([
        "exact (no pruning)".to_string(),
        dollars(re.metrics.total_dollars()),
        format!("{we:.2} s"),
    ]);
    t.row([
        "pruned (16 machines / 20 holders / 6 dests)".to_string(),
        dollars(rp.metrics.total_dollars()),
        format!("{wp:.2} s"),
    ]);
    t.print();
    let gap = rp.metrics.total_dollars() / re.metrics.total_dollars() - 1.0;
    println!(
        "Pruning cost gap: {} (positive = pruned slightly dearer)\n",
        pct(gap)
    );
    records.push(
        ExperimentRecord::new("ablation", "pruning")
            .value("exact_dollars", re.metrics.total_dollars())
            .value("pruned_dollars", rp.metrics.total_dollars())
            .value("cost_gap", gap),
    );

    // ---- 2. replication --------------------------------------------------
    println!("Ablation 2 — HDFS replication factor (delay locality & LiPS edge)\n");
    let mut t = Table::new([
        "replicas",
        "delay $",
        "delay locality",
        "LiPS $",
        "LiPS saving",
    ]);
    for r in [1usize, 2, 3] {
        let d = run_delay(20, r, None);
        let (l, _) = run_with(20, SchedulerConfig::small_cluster(2000.0), r, None);
        t.row([
            format!("{r}"),
            dollars(d.metrics.total_dollars()),
            pct(d.metrics.locality_ratio()),
            dollars(l.metrics.total_dollars()),
            pct(1.0 - l.metrics.total_dollars() / d.metrics.total_dollars()),
        ]);
        records.push(
            ExperimentRecord::new("ablation", format!("replication_{r}"))
                .value("delay_dollars", d.metrics.total_dollars())
                .value("lips_dollars", l.metrics.total_dollars())
                .value("delay_locality", d.metrics.locality_ratio()),
        );
    }
    t.print();
    println!();

    // ---- 3. stragglers ----------------------------------------------------
    println!("Ablation 3 — stragglers (10% of chunks run 4x slower)\n");
    let mut t = Table::new([
        "scheduler",
        "clean makespan",
        "straggler makespan",
        "$ change",
    ]);
    let (l0, _) = run_with(20, SchedulerConfig::small_cluster(2000.0), 1, None);
    let (l1, _) = run_with(
        20,
        SchedulerConfig::small_cluster(2000.0),
        1,
        Some((0.1, 4.0)),
    );
    let d0 = run_delay(20, 1, None);
    let d1 = run_delay(20, 1, Some((0.1, 4.0)));
    t.row([
        "LiPS".to_string(),
        secs(l0.makespan),
        secs(l1.makespan),
        pct(l1.metrics.total_dollars() / l0.metrics.total_dollars() - 1.0),
    ]);
    t.row([
        "Delay".to_string(),
        secs(d0.makespan),
        secs(d1.makespan),
        pct(d1.metrics.total_dollars() / d0.metrics.total_dollars() - 1.0),
    ]);
    let d2 = run_delay_spec(20, 1, Some((0.1, 4.0)), true);
    t.row([
        "Delay + speculation".to_string(),
        secs(d0.makespan),
        secs(d2.makespan),
        pct(d2.metrics.total_dollars() / d0.metrics.total_dollars() - 1.0),
    ]);
    t.print();
    println!("(stragglers stretch time, never dollars; speculation recovers the");
    println!(" delay at a duplicate-work premium — under LiPS's pre-determined");
    println!(" placements the paper turns it off as pure extra cost)\n");
    records.push(
        ExperimentRecord::new("ablation", "stragglers")
            .value("lips_clean_makespan", l0.makespan)
            .value("lips_straggler_makespan", l1.makespan),
    );

    // ---- 4. fairness dial --------------------------------------------------
    println!("Ablation 4 — fairness floors sigma (two pools, tight 200 s epochs)\n");
    let mut t = Table::new(["sigma", "total $", "pool completion spread"]);
    for sigma in [0.0, 0.5, 1.0] {
        let mut cfg = SchedulerConfig::small_cluster(200.0);
        cfg.fairness = sigma;
        let (r, _) = run_with(20, cfg, 1, None);
        let mut by_pool: std::collections::BTreeMap<&str, f64> = Default::default();
        for o in &r.outcomes {
            let e = by_pool.entry(o.pool.as_str()).or_insert(0.0);
            *e = e.max(o.completed);
        }
        let spread = {
            let max = by_pool.values().fold(0.0f64, |a, &b| a.max(b));
            let min = by_pool.values().fold(f64::INFINITY, |a, &b| a.min(b));
            max / min
        };
        t.row([
            format!("{sigma:.1}"),
            dollars(r.metrics.total_dollars()),
            format!("{spread:.2}x"),
        ]);
        records.push(
            ExperimentRecord::new("ablation", format!("fairness_{sigma}"))
                .value("total_dollars", r.metrics.total_dollars())
                .value("pool_spread", spread),
        );
    }
    t.print();
    println!("(fairness floors can only raise cost; they compress pool completion spread)");
    emit_json(&records);
}
