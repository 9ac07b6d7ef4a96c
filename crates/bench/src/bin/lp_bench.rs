//! Epoch-loop LP solver benchmark: 20 consecutive Fig-4 epochs on the
//! large-cluster configuration, solved the way the scheduler solves them.
//!
//! Every run records two series over the same churn sequence: `cold`
//! (each epoch's full model from scratch — the objective-parity oracle)
//! and `colgen` (`LipsScheduler::solve_epoch`: the dual-first restricted
//! master carrying columns and basis). The records are the scheduler's
//! own, so the numbers are those of the path that serves an epoch.
//!
//! Prints a per-epoch table and the per-series totals; with `--json`,
//! additionally writes `BENCH_lp_epoch.json` in the current directory so
//! the README perf table and CI gates can consume the numbers.
//!
//! Flags: `--json`,
//! `--faults` (also run the scheduler over a scripted sequence of machine
//! revocations, a store loss, a repricing, and a rejoin:
//! `faults_colgen`),
//! `--audit` (exit non-zero unless every epoch of every series certified),
//! `--nodes N` (cluster size, default 100),
//! `--scale` (run *only* the 100/1k/10k-node scale trajectory on
//! Google-trace-shaped workloads and write `BENCH_scale.json` with
//! per-phase build/solve/certify wall-times; every epoch certified),
//! `--jobs N` (default 32), `--epochs N` (default 20), `--churn N`
//! (default 2), `--churn-every N` (default 5 — a LiPS epoch is ~2000 s,
//! so a Table-IV-sized job spans several epochs before a
//! departure/arrival pair perturbs the LP's structure).

use lips_bench::lp_epoch::{
    run_cold, run_epochs, run_epochs_faulted, EpochRun, FaultEpochRun, FaultScript, EPOCHS,
};
use lips_bench::scale::{default_series, run_scale_point, ScaleReport};
use lips_bench::Table;
use lips_cluster::ec2_mixed_cluster;
use lips_core::RunSummary;
use serde::Serialize;

#[derive(Serialize)]
struct BenchReport {
    config: String,
    /// Each epoch's full model cold: the objective-parity oracle.
    cold: EpochRun,
    /// The scheduler's ladder.
    colgen: EpochRun,
    /// Present only with `--faults`: the scheduler's ladder over the same
    /// epoch sequence with scripted machine revocations, a store loss, a
    /// repricing, and a rejoin.
    faults_colgen: Option<FaultEpochRun>,
    /// Mean active/total column share of the colgen master (the
    /// acceptance gate wants ≤ 0.5).
    colgen_active_share: f64,
}

fn flag_value(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = flag_value(&args, "--jobs", 32);
    let epochs = flag_value(&args, "--epochs", EPOCHS);
    let churn = flag_value(&args, "--churn", 2);
    let churn_every = flag_value(&args, "--churn-every", 5);
    let nodes = flag_value(&args, "--nodes", 100);
    let with_faults = args.iter().any(|a| a == "--faults");

    if args.iter().any(|a| a == "--scale") {
        run_scale_series(&args);
        return;
    }

    let cluster = ec2_mixed_cluster(nodes, 0.4, 1e9, 1);
    let config = format!(
        "{} nodes, {jobs} jobs/epoch, churn {churn} every {churn_every} epochs, {epochs} epochs",
        cluster.machines.len()
    );
    println!("LP epoch-sequence benchmark — {config}\n");

    let cold = run_cold(&cluster, jobs, churn, churn_every, epochs);
    let colgen = run_epochs(&cluster, jobs, churn, churn_every, epochs);
    let faults_colgen = with_faults.then(|| {
        let script = FaultScript::acceptance(&cluster);
        run_epochs_faulted(&cluster, jobs, churn, churn_every, epochs, &script)
    });

    let mut t = Table::new(vec![
        "epoch",
        "cold iters",
        "cold ms",
        "cg iters",
        "cg ms",
        "cg start",
        "cg cols",
        "cg rounds",
    ]);
    for (c, cg) in cold.epochs.iter().zip(&colgen.epochs) {
        t.row(vec![
            c.epoch.to_string(),
            c.iterations.to_string(),
            format!("{:.2}", c.epoch_ms),
            cg.iterations.to_string(),
            format!("{:.2}", cg.epoch_ms),
            cg.warm.clone(),
            format!("{}/{}", cg.active_columns, cg.total_columns),
            cg.pricing_rounds.to_string(),
        ]);
    }
    t.print();

    let report = BenchReport {
        colgen_active_share: colgen.active_column_share,
        config,
        cold,
        colgen,
        faults_colgen,
    };
    println!();
    for run in [&report.cold, &report.colgen] {
        print_totals(run);
    }
    println!(
        "{:.0}% of full columns active in the colgen master",
        report.colgen_active_share * 100.0
    );
    if let Some(f) = &report.faults_colgen {
        print_fault_series(f);
    }

    let all_certified = [&report.cold, &report.colgen]
        .into_iter()
        .chain(report.faults_colgen.iter().map(|f| &f.run))
        .all(|r| r.all_certified);
    println!("all certified: {all_certified}");

    if args.iter().any(|a| a == "--json") {
        let path = "BENCH_lp_epoch.json";
        std::fs::write(
            path,
            serde_json::to_string_pretty(&report).expect("report serializes"),
        )
        .expect("write BENCH_lp_epoch.json");
        println!("wrote {path}");
    }

    if args.iter().any(|a| a == "--audit") && !all_certified {
        eprintln!("--audit: at least one epoch failed certification");
        std::process::exit(1);
    }
}

/// One series' totals, plus which ladder rung served its epochs and how
/// each solve started.
fn print_totals(run: &EpochRun) {
    let rungs = RunSummary::from_records(&run.epochs);
    let starts = |w: &str| run.epochs.iter().filter(|r| r.warm == w).count();
    println!(
        "{:>13}: {} iters / {:.1} ms solve / {:.1} ms epoch / {} pricing rounds / {:.0}% columns active",
        run.mode,
        run.total_iterations,
        run.total_solve_ms,
        run.total_epoch_ms,
        run.total_pricing_rounds,
        run.active_column_share * 100.0
    );
    println!(
        "{:>13}  rungs {} Certified (master) / {} CertifiedCold / {} Degraded; \
         starts {} Dual / {} Cold",
        "",
        rungs.master_epochs,
        rungs.cold_retry_epochs,
        rungs.degraded_epochs,
        starts("Dual"),
        starts("Cold")
    );
}

/// A fault series: per epoch, what struck, what the scheduler repaired,
/// and which rung served the epoch; then the totals.
fn print_fault_series(f: &FaultEpochRun) {
    let mut t = Table::new(vec![
        "epoch",
        "faults",
        "repaired",
        "iters",
        "pivots/flips",
        "ms",
        "rung",
        "start",
        "state",
    ]);
    for ((r, events), repaired) in f.run.epochs.iter().zip(&f.events).zip(&f.repaired) {
        t.row(vec![
            r.epoch.to_string(),
            if events.is_empty() {
                "-".to_string()
            } else {
                events.join(", ")
            },
            repaired.to_string(),
            r.iterations.to_string(),
            format!("{}/{}", r.dual_pivots, r.bound_flips),
            format!("{:.2}", r.epoch_ms),
            r.outcome.clone(),
            r.warm.clone(),
            if r.certified {
                "certified".to_string()
            } else {
                "DEGRADED".to_string()
            },
        ]);
    }
    println!(
        "\n{} ({} revocations, {} store loss(es), {} repricing(s), {} rejoin(s)):",
        f.run.mode, f.revocations, f.store_losses, f.repricings, f.rejoins
    );
    t.print();
    print_totals(&f.run);
}

/// The `--scale` series: the 100 / 1k / 10k-node trajectory on
/// Google-trace-shaped workloads, written to `BENCH_scale.json`. Runs
/// *instead of* the epoch-sequence battery (a 10k-node model has no
/// monolithic baseline to compare against — that is the point).
fn run_scale_series(args: &[String]) {
    let series = default_series();
    let config = series
        .iter()
        .map(|s| format!("{}x{}", s.nodes, s.jobs))
        .collect::<Vec<_>>()
        .join(", ");
    println!("LP scale trajectory — nodes x jobs: {config}\n");
    let mut points = Vec::with_capacity(series.len());
    for spec in &series {
        println!(
            "running {} nodes x {} jobs x {} epochs ...",
            spec.nodes, spec.jobs, spec.epochs
        );
        points.push(run_scale_point(spec));
    }

    let mut t = Table::new(vec![
        "nodes",
        "jobs",
        "epoch",
        "build ms",
        "solve ms",
        "certify ms",
        "epoch ms",
        "rounds",
        "cols",
        "state",
    ]);
    for p in &points {
        for r in &p.epochs {
            t.row(vec![
                p.nodes.to_string(),
                p.jobs.to_string(),
                r.epoch.to_string(),
                format!("{:.1}", r.build_ms),
                format!("{:.1}", r.solve_ms),
                format!("{:.1}", r.certify_ms),
                format!("{:.1}", r.epoch_ms),
                r.pricing_rounds.to_string(),
                format!("{}/{}", r.active_columns, r.total_columns),
                if r.certified {
                    "certified".to_string()
                } else {
                    "FAILED".to_string()
                },
            ]);
        }
    }
    t.print();

    let ok = points.iter().all(|p| p.all_certified);
    println!("all points certified: {ok}");

    let report = ScaleReport { config, points };
    if args.iter().any(|a| a == "--json") {
        let path = "BENCH_scale.json";
        std::fs::write(
            path,
            serde_json::to_string_pretty(&report).expect("report serializes"),
        )
        .expect("write BENCH_scale.json");
        println!("wrote {path}");
    }
    if args.iter().any(|a| a == "--audit") && !ok {
        eprintln!("--audit: a scale epoch failed certification");
        std::process::exit(1);
    }
}
