//! Generic scenario runner: describe a cluster, a workload, and a
//! scheduler in JSON, get the bill.
//!
//! ```bash
//! simulate --config scenario.json
//! simulate --print-sample-config > scenario.json   # starting template
//! ```
//!
//! The config covers every knob the library exposes: cluster presets or
//! explicit machine lists, workload presets / SWIM traces / inline job
//! lists (including priorities, pools, arrival times, fractional reads),
//! scheduler choice with LiPS tuning, replication, stragglers, and
//! interference.

use std::fs;

use serde::{Deserialize, Serialize};

use lips_cluster::{ec2_100_node, ec2_mixed_cluster, Cluster};
use lips_core::{
    AdaptiveLips, DelayScheduler, FairScheduler, HadoopDefaultScheduler, LipsScheduler,
    SchedulerConfig, TuneConfig,
};
use lips_sim::{Placement, Scheduler, Simulation};
use lips_workload::{bind_workload, swim_trace, table_iv_suite, JobSpec, PlacementPolicy, SwimCfg};

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Config {
    cluster: ClusterCfg,
    workload: WorkloadCfg,
    scheduler: SchedulerCfg,
    #[serde(default = "default_seed")]
    seed: u64,
    /// HDFS replication factor for the initial block spread.
    #[serde(default = "default_replication")]
    replication: usize,
    /// Optional straggler injection (probability, slowdown).
    #[serde(default)]
    stragglers: Option<(f64, f64)>,
    /// Network interference factor (0 = off).
    #[serde(default)]
    interference: f64,
}

fn default_seed() -> u64 {
    2013
}
fn default_replication() -> usize {
    1
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
enum ClusterCfg {
    /// The Fig 6 testbed shape: n nodes, a c1.medium fraction.
    Ec2Mixed { nodes: usize, c1_fraction: f64 },
    /// The Fig 9 testbed: 100 nodes, three types, three zones.
    Ec2Hundred,
    /// A cluster serialized with serde (e.g. from a previous run).
    File { path: String },
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
enum WorkloadCfg {
    /// Table IV's J1-J9.
    TableIv,
    /// A SWIM-like trace.
    Swim { jobs: usize, hours: usize },
    /// Inline job list (full `JobSpec` serde format).
    Jobs { jobs: Vec<JobSpec> },
    /// Job list from a JSON file.
    File { path: String },
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
enum SchedulerCfg {
    Lips {
        epoch_s: f64,
        #[serde(default)]
        fairness: f64,
        #[serde(default)]
        pruned: bool,
    },
    LipsAdaptive {
        cost_preference: f64,
    },
    HadoopDefault,
    Delay,
    Fair,
}

fn sample_config() -> Config {
    Config {
        cluster: ClusterCfg::Ec2Mixed {
            nodes: 20,
            c1_fraction: 0.5,
        },
        workload: WorkloadCfg::Swim { jobs: 50, hours: 4 },
        scheduler: SchedulerCfg::Lips {
            epoch_s: 600.0,
            fairness: 0.0,
            pruned: false,
        },
        seed: 2013,
        replication: 1,
        stragglers: None,
        interference: 0.0,
    }
}

fn build_cluster(cfg: &ClusterCfg, seed: u64) -> Cluster {
    match cfg {
        ClusterCfg::Ec2Mixed { nodes, c1_fraction } => {
            ec2_mixed_cluster(*nodes, *c1_fraction, 1e9, seed)
        }
        ClusterCfg::Ec2Hundred => ec2_100_node(1e9, seed),
        ClusterCfg::File { path } => {
            let json = fs::read_to_string(path).expect("cluster file readable");
            let c: Cluster = serde_json::from_str(&json).expect("cluster JSON parses");
            c.validate().expect("cluster file is structurally valid");
            c
        }
    }
}

fn build_jobs(cfg: &WorkloadCfg, seed: u64) -> Vec<JobSpec> {
    match cfg {
        WorkloadCfg::TableIv => table_iv_suite(),
        WorkloadCfg::Swim { jobs, hours } => swim_trace(
            &SwimCfg {
                jobs: *jobs,
                hours: *hours,
                ..Default::default()
            },
            seed,
        ),
        WorkloadCfg::Jobs { jobs } => jobs.clone(),
        WorkloadCfg::File { path } => {
            let json = fs::read_to_string(path).expect("workload file readable");
            serde_json::from_str(&json).expect("workload JSON parses")
        }
    }
}

fn build_scheduler(cfg: &SchedulerCfg) -> Box<dyn Scheduler> {
    match cfg {
        SchedulerCfg::Lips {
            epoch_s,
            fairness,
            pruned,
        } => {
            let mut c = if *pruned {
                SchedulerConfig::large_cluster(*epoch_s)
            } else {
                SchedulerConfig::small_cluster(*epoch_s)
            };
            c.fairness = *fairness;
            Box::new(LipsScheduler::new(c))
        }
        SchedulerCfg::LipsAdaptive { cost_preference } => Box::new(AdaptiveLips::new(
            SchedulerConfig::small_cluster(400.0),
            TuneConfig {
                cost_preference: *cost_preference,
                ..TuneConfig::adaptive()
            },
        )),
        SchedulerCfg::HadoopDefault => Box::new(HadoopDefaultScheduler::new()),
        SchedulerCfg::Delay => Box::new(DelayScheduler::default()),
        SchedulerCfg::Fair => Box::new(FairScheduler::new()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--print-sample-config") {
        println!(
            "{}",
            serde_json::to_string_pretty(&sample_config()).unwrap()
        );
        return;
    }
    let path = args
        .iter()
        .position(|a| a == "--config")
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| {
            eprintln!("usage: simulate --config scenario.json | --print-sample-config");
            std::process::exit(2);
        });
    let cfg: Config = serde_json::from_str(
        &fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}")),
    )
    .unwrap_or_else(|e| panic!("bad config: {e}"));

    let mut cluster = build_cluster(&cfg.cluster, cfg.seed);
    let jobs = build_jobs(&cfg.workload, cfg.seed);
    let n_jobs = jobs.len();
    let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RoundRobin, cfg.seed);
    let placement = if cfg.replication > 1 {
        Placement::spread_blocks_replicated(&cluster, cfg.seed, cfg.replication)
    } else {
        Placement::spread_blocks(&cluster, cfg.seed)
    };
    let mut sim = Simulation::new(&cluster, &bound)
        .with_placement(placement)
        .with_interference(cfg.interference);
    if let Some((p, f)) = cfg.stragglers {
        sim = sim.with_stragglers(p, f, cfg.seed);
    }
    let mut sched = build_scheduler(&cfg.scheduler);
    let r = sim
        .run(sched.as_mut())
        .unwrap_or_else(|e| panic!("simulation failed: {e}"));

    println!("scheduler        : {}", r.scheduler);
    println!("jobs completed   : {} / {n_jobs}", r.outcomes.len());
    println!("total dollars    : {:.4}", r.metrics.total_dollars());
    println!("  cpu            : {:.4}", r.metrics.cpu_dollars);
    println!("  reads          : {:.4}", r.metrics.read_dollars);
    println!("  moves          : {:.4}", r.metrics.move_dollars);
    println!("makespan         : {:.0} s", r.makespan);
    println!("mean job duration: {:.0} s", r.mean_job_duration());
    println!(
        "data locality    : {:.1}%",
        r.metrics.locality_ratio() * 100.0
    );
    println!("moved data       : {:.0} MB", r.metrics.moved_mb);
    println!("pool fairness    : {:.3} (Jain)", r.pool_fairness_jain());
    println!("events processed : {}", r.events);
}
