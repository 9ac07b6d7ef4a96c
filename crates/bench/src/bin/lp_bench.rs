//! Epoch-loop LP solver benchmark: 20 consecutive Fig-4 epochs on the
//! large-cluster configuration, cold starts vs warm-start chaining vs
//! delayed column generation.
//!
//! Prints a per-epoch table and the per-mode totals; with `--json`,
//! additionally writes `BENCH_lp_epoch.json` in the current directory so
//! the README perf table and CI gates can consume the numbers.
//!
//! Flags: `--json`, `--colgen` (also run the column-generated restricted
//! master and record active-column counts + pricing rounds per epoch),
//! `--mode dual` (also run the churn fast path — dual-simplex re-solve
//! from the carried basis — and, with `--faults`, a second fault series
//! whose ladder tries the dual rung first; records
//! `dual_pivots`/`bound_flips` per epoch and the fault-epoch iteration
//! ratio vs the primal repair ladder),
//! `--audit` (exit non-zero unless every epoch of every mode certified),
//! `--threads N` (worker count for model build, pricing, and
//! certification; default 0 = `LIPS_THREADS` or the host parallelism),
//! `--scaling` (re-run the colgen sequence at 1/2/4/8 workers and record
//! per-width wall-time plus a bitwise determinism check),
//! `--nodes N` (cluster size, default 100),
//! `--scale` (run *only* the 100/1k/10k-node scale trajectory on
//! Google-trace-shaped workloads and write `BENCH_scale.json` with
//! per-phase build/solve/certify wall-times),
//! `--jobs N` (default 32), `--epochs N` (default 20), `--churn N`
//! (default 2), `--churn-every N` (default 5 — a LiPS epoch is ~2000 s,
//! so a Table-IV-sized job spans several epochs before a
//! departure/arrival pair perturbs the LP's structure).

use lips_bench::lp_epoch::{
    dual_fault_head_to_head, fault_epoch_iterations, run_epochs, run_epochs_faulted,
    thread_scaling, EpochMode, EpochRun, FaultEpochRun, FaultScript, ThreadScalingPoint, EPOCHS,
};
use lips_bench::scale::{default_series, run_scale_point, ScaleReport};
use lips_bench::Table;
use lips_cluster::ec2_mixed_cluster;
use serde::Serialize;

#[derive(Serialize)]
struct BenchReport {
    config: String,
    cold: EpochRun,
    warm: EpochRun,
    /// Present only with `--colgen`.
    colgen: Option<EpochRun>,
    /// Present only with `--mode dual`: the churn fast path (dual-simplex
    /// re-solve from the carried basis, else the slack basis; warm primal
    /// when the walk is declined).
    dual: Option<EpochRun>,
    /// Present only with `--faults`: the same epoch sequence with scripted
    /// machine revocations, a store loss, a repricing, and a rejoin.
    faults: Option<FaultEpochRun>,
    /// Present only with `--faults --mode dual`: the fault series re-run
    /// with the dual rung first in the ladder.
    faults_dual: Option<FaultEpochRun>,
    /// Worker count used for the cold/warm/colgen/fault runs (0 = solver
    /// default: `LIPS_THREADS` or the host parallelism).
    threads: usize,
    /// `std::thread::available_parallelism()` of the machine that produced
    /// these numbers — read the scaling series against this. On a 1-core
    /// host every width shares the core and the speedups sit near 1.0.
    host_parallelism: usize,
    /// Present only with `--scaling`: the colgen sequence re-run at
    /// 1/2/4/8 workers, each width checked bitwise against the serial run.
    thread_scaling: Option<Vec<ThreadScalingPoint>>,
    /// cold ÷ warm total simplex iterations (higher = warm wins).
    iteration_ratio: f64,
    /// cold ÷ warm total solve wall-time.
    walltime_ratio: f64,
    /// cold ÷ warm total FTRAN nonzeros.
    ftran_nnz_ratio: f64,
    /// warm ÷ colgen total epoch wall-time (build + solve + certify;
    /// higher = colgen wins). `None` without `--colgen`.
    colgen_epoch_ms_ratio: Option<f64>,
    /// Mean active/total column share of the colgen master (the
    /// acceptance gate wants ≤ 0.5). `None` without `--colgen`.
    colgen_active_share: Option<f64>,
    /// cold ÷ dual total simplex iterations over the churn sequence
    /// (higher = the dual fast path wins). `None` without `--mode dual`.
    dual_iteration_ratio: Option<f64>,
    /// Head-to-head fault re-solve ratio: on each dual-served fault
    /// epoch both methods solve the same model from the same repaired
    /// basis, and this is primal ÷ dual summed iterations (higher = the
    /// dual path wins; the acceptance target is ≥ 5). `None` without
    /// `--faults --mode dual`.
    dual_fault_iteration_ratio: Option<f64>,
    /// Chain-level context: fault-epoch iterations spent by the primal
    /// repair ladder ÷ by the dual-first ladder, each on its own chain.
    dual_fault_chain_ratio: Option<f64>,
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
    let threads = flag_value(&args, "--threads", 0);
    let nodes = flag_value(&args, "--nodes", 100);
    let with_colgen = args.iter().any(|a| a == "--colgen");
    let with_dual = args.windows(2).any(|w| w[0] == "--mode" && w[1] == "dual");
    let with_faults = args.iter().any(|a| a == "--faults");
    let with_scaling = args.iter().any(|a| a == "--scaling");
    // lips-allow(thread-width-dependence): reported in the bench header only; never feeds results
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);

    if args.iter().any(|a| a == "--scale") {
        run_scale_series(threads, host_parallelism, &args);
        return;
    }

    let cluster = ec2_mixed_cluster(nodes, 0.4, 1e9, 1);
    let config = format!(
        "{} nodes, {jobs} jobs/epoch, churn {churn} every {churn_every} epochs, {epochs} epochs",
        cluster.machines.len()
    );
    println!("LP epoch-sequence benchmark — {config}");
    println!("threads: {threads} (0 = solver default), host parallelism: {host_parallelism}\n");

    let cold = run_epochs(
        &cluster,
        jobs,
        churn,
        churn_every,
        epochs,
        EpochMode::Cold,
        threads,
    );
    let warm = run_epochs(
        &cluster,
        jobs,
        churn,
        churn_every,
        epochs,
        EpochMode::Warm,
        threads,
    );
    let colgen = with_colgen.then(|| {
        run_epochs(
            &cluster,
            jobs,
            churn,
            churn_every,
            epochs,
            EpochMode::ColGen,
            threads,
        )
    });
    let dual = with_dual.then(|| {
        run_epochs(
            &cluster,
            jobs,
            churn,
            churn_every,
            epochs,
            EpochMode::Dual,
            threads,
        )
    });
    let faults = with_faults.then(|| {
        let script = FaultScript::acceptance(&cluster);
        run_epochs_faulted(
            &cluster,
            jobs,
            churn,
            churn_every,
            epochs,
            &script,
            threads,
            false,
        )
    });
    let faults_dual = (with_faults && with_dual).then(|| {
        let script = FaultScript::acceptance(&cluster);
        run_epochs_faulted(
            &cluster,
            jobs,
            churn,
            churn_every,
            epochs,
            &script,
            threads,
            true,
        )
    });
    let scaling = with_scaling
        .then(|| thread_scaling(&cluster, jobs, churn, churn_every, epochs, &[1, 2, 4, 8]));

    let mut header = vec![
        "epoch",
        "cold iters",
        "cold ms",
        "warm iters",
        "warm ms",
        "start",
    ];
    if with_colgen {
        header.extend(["cg iters", "cg ms", "cg cols", "cg rounds"]);
    }
    if with_dual {
        header.extend(["dual iters", "dual ms", "pivots/flips"]);
    }
    let mut t = Table::new(header);
    for (i, (c, w)) in cold.epochs.iter().zip(&warm.epochs).enumerate() {
        let mut row = vec![
            c.epoch.to_string(),
            c.iterations.to_string(),
            format!("{:.2}", c.epoch_ms),
            w.iterations.to_string(),
            format!("{:.2}", w.epoch_ms),
            w.warm.clone(),
        ];
        if let Some(cg) = colgen.as_ref().and_then(|r| r.epochs.get(i)) {
            row.extend([
                cg.iterations.to_string(),
                format!("{:.2}", cg.epoch_ms),
                format!("{}/{}", cg.active_columns, cg.total_columns),
                cg.pricing_rounds.to_string(),
            ]);
        }
        if let Some(d) = dual.as_ref().and_then(|r| r.epochs.get(i)) {
            row.extend([
                d.iterations.to_string(),
                format!("{:.2}", d.epoch_ms),
                format!("{}/{}", d.dual_pivots, d.bound_flips),
            ]);
        }
        t.row(row);
    }
    t.print();

    let ratio = |c: f64, w: f64| if w > 0.0 { c / w } else { f64::INFINITY };
    let report = BenchReport {
        iteration_ratio: ratio(cold.total_iterations as f64, warm.total_iterations as f64),
        walltime_ratio: ratio(cold.total_solve_ms, warm.total_solve_ms),
        ftran_nnz_ratio: ratio(cold.total_ftran_nnz as f64, warm.total_ftran_nnz as f64),
        colgen_epoch_ms_ratio: colgen
            .as_ref()
            .map(|cg| ratio(warm.total_epoch_ms, cg.total_epoch_ms)),
        colgen_active_share: colgen.as_ref().map(|cg| cg.active_column_share),
        dual_iteration_ratio: dual
            .as_ref()
            .map(|d| ratio(cold.total_iterations as f64, d.total_iterations as f64)),
        dual_fault_iteration_ratio: faults_dual
            .as_ref()
            .and_then(dual_fault_head_to_head)
            .map(|(p, d)| ratio(p as f64, d as f64)),
        dual_fault_chain_ratio: match (&faults, &faults_dual) {
            (Some(base), Some(d)) => Some(ratio(
                fault_epoch_iterations(base) as f64,
                fault_epoch_iterations(d) as f64,
            )),
            _ => None,
        },
        config,
        cold,
        warm,
        colgen,
        dual,
        faults,
        faults_dual,
        threads,
        host_parallelism,
        thread_scaling: scaling,
    };
    println!(
        "\ntotals: cold {} iters / {:.1} ms solve / {:.1} ms epoch / {} FTRAN nnz",
        report.cold.total_iterations,
        report.cold.total_solve_ms,
        report.cold.total_epoch_ms,
        report.cold.total_ftran_nnz
    );
    println!(
        "        warm {} iters / {:.1} ms solve / {:.1} ms epoch / {} FTRAN nnz ({}/{} epochs warm-started)",
        report.warm.total_iterations,
        report.warm.total_solve_ms,
        report.warm.total_epoch_ms,
        report.warm.total_ftran_nnz,
        report.warm.warm_solves,
        epochs.saturating_sub(1).max(1)
    );
    if let Some(cg) = &report.colgen {
        println!(
            "        colgen {} iters / {:.1} ms solve / {:.1} ms epoch / {} pricing rounds / {:.0}% columns active",
            cg.total_iterations,
            cg.total_solve_ms,
            cg.total_epoch_ms,
            cg.total_pricing_rounds,
            cg.active_column_share * 100.0
        );
    }
    println!(
        "speedup: {:.2}x iterations, {:.2}x wall-time, {:.2}x FTRAN nnz (cold/warm)",
        report.iteration_ratio, report.walltime_ratio, report.ftran_nnz_ratio,
    );
    if let Some(d) = &report.dual {
        let pivots: usize = d.epochs.iter().map(|e| e.dual_pivots).sum();
        let flips: usize = d.epochs.iter().map(|e| e.bound_flips).sum();
        println!(
            "        dual {} iters / {:.1} ms solve / {:.1} ms epoch / {} dual pivots / {} bound flips",
            d.total_iterations, d.total_solve_ms, d.total_epoch_ms, pivots, flips
        );
    }
    if let (Some(r), Some(s)) = (report.colgen_epoch_ms_ratio, report.colgen_active_share) {
        println!(
            "colgen:  {:.2}x epoch wall-time vs warm, {:.0}% of full columns active",
            r,
            s * 100.0
        );
    }
    if let Some(r) = report.dual_iteration_ratio {
        println!("dual:    {r:.2}x iterations vs cold over the churn sequence");
    }
    let print_fault_series = |label: &str, f: &FaultEpochRun| {
        let mut t = Table::new(vec![
            "epoch",
            "faults",
            "repaired",
            "iters",
            "pivots/flips",
            "ms",
            "start",
            "state",
        ]);
        for r in &f.epochs {
            t.row(vec![
                r.epoch.to_string(),
                if r.events.is_empty() {
                    "-".to_string()
                } else {
                    r.events.join(", ")
                },
                r.repaired.to_string(),
                r.iterations.to_string(),
                format!("{}/{}", r.dual_pivots, r.bound_flips),
                format!("{:.2}", r.epoch_ms),
                r.warm.clone(),
                if r.certified {
                    "certified".to_string()
                } else {
                    "DEGRADED".to_string()
                },
            ]);
        }
        println!(
            "
{label} ({} revocations, {} store loss(es), {} repricing(s), {} rejoin(s)):",
            f.revocations, f.store_losses, f.repricings, f.rejoins
        );
        t.print();
        println!(
            "faults:  {} iters / {:.1} ms epoch / {} warm / {} dual / {} certified / {} degraded",
            f.total_iterations,
            f.total_epoch_ms,
            f.warm_solves,
            f.dual_solves,
            f.certified_epochs,
            f.degraded_epochs
        );
    };
    if let Some(f) = &report.faults {
        print_fault_series("fault-mode series", f);
    }
    if let Some(f) = &report.faults_dual {
        print_fault_series("fault-mode series, dual-first ladder", f);
    }
    if let Some(r) = report.dual_fault_iteration_ratio {
        println!(
            "dual faults: {r:.2}x fewer simplex iterations than repaired-warm primal \
             on the same fault epochs and bases (head-to-head)"
        );
    }
    if let Some(r) = report.dual_fault_chain_ratio {
        println!("dual ladder: {r:.2}x fewer fault-epoch iterations than the primal repair chain");
    }

    if let Some(series) = &report.thread_scaling {
        let mut t = Table::new(vec![
            "threads", "epoch ms", "solve ms", "speedup", "bitwise",
        ]);
        for p in series {
            t.row(vec![
                p.threads.to_string(),
                format!("{:.1}", p.total_epoch_ms),
                format!("{:.1}", p.total_solve_ms),
                format!("{:.2}x", p.speedup_vs_serial),
                if p.identical_to_serial {
                    "identical".to_string()
                } else {
                    "DIVERGED".to_string()
                },
            ]);
        }
        println!("\nthread-scaling series (colgen mode, whole-epoch wall-time):");
        t.print();
    }

    let deterministic = report
        .thread_scaling
        .as_ref()
        .is_none_or(|s| s.iter().all(|p| p.identical_to_serial));
    let all_certified = report.cold.all_certified
        && report.warm.all_certified
        && report.colgen.as_ref().is_none_or(|cg| cg.all_certified)
        && report.dual.as_ref().is_none_or(|d| d.all_certified)
        && report.faults.as_ref().is_none_or(|f| f.all_accounted)
        && report.faults_dual.as_ref().is_none_or(|f| f.all_accounted)
        && deterministic;
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

/// The `--scale` series: the 100 / 1k / 10k-node trajectory on
/// Google-trace-shaped workloads, written to `BENCH_scale.json`. Runs
/// *instead of* the epoch-sequence battery (a 10k-node model has no
/// monolithic baseline to compare against — that is the point).
fn run_scale_series(threads: usize, host_parallelism: usize, args: &[String]) {
    let series = default_series();
    let config = series
        .iter()
        .map(|s| format!("{}x{}", s.nodes, s.jobs))
        .collect::<Vec<_>>()
        .join(", ");
    println!("LP scale trajectory — nodes x jobs: {config}");
    println!("threads: {threads} (0 = solver default), host parallelism: {host_parallelism}\n");
    let mut points = Vec::with_capacity(series.len());
    for spec in &series {
        println!(
            "running {} nodes x {} jobs x {} epochs ({}) ...",
            spec.nodes,
            spec.jobs,
            spec.epochs,
            if spec.certified {
                "colgen, certified"
            } else {
                "greedy, uncertified"
            }
        );
        points.push(run_scale_point(spec, threads));
    }

    let mut t = Table::new(vec![
        "nodes",
        "jobs",
        "mode",
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
                p.mode.clone(),
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
                    "greedy".to_string()
                },
            ]);
        }
        if let Some(probe) = &p.certified_probe {
            t.row(vec![
                p.nodes.to_string(),
                p.probe_jobs.unwrap_or(0).to_string(),
                "probe".to_string(),
                probe.epoch.to_string(),
                format!("{:.1}", probe.build_ms),
                format!("{:.1}", probe.solve_ms),
                format!("{:.1}", probe.certify_ms),
                format!("{:.1}", probe.epoch_ms),
                probe.pricing_rounds.to_string(),
                format!("{}/{}", probe.active_columns, probe.total_columns),
                if probe.certified {
                    "certified".to_string()
                } else {
                    "FAILED".to_string()
                },
            ]);
        }
    }
    t.print();

    let ok = points.iter().all(|p| {
        (p.mode != "colgen" || p.all_certified)
            && p.certified_probe.as_ref().is_none_or(|r| r.certified)
    });
    println!("certified points + probes optimal: {ok}");

    let report = ScaleReport {
        config,
        threads,
        host_parallelism,
        points,
    };
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
        eprintln!("--audit: a certified scale point or probe failed certification");
        std::process::exit(1);
    }
}
