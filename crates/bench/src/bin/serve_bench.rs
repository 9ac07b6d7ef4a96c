//! `serve-bench` — the continuous-arrival daemon trajectories behind
//! `BENCH_serve.json`.
//!
//! Two 200-LP-epoch runs (a Poisson synthetic stream and a Google-trace
//! shaped stream) through `lips-serve`'s daemon with closed-loop epoch
//! tuning. The acceptance gate: every LP epoch KKT-certified, and at
//! least 80 % of them incremental re-solves (the carried colgen master's
//! columns and basis reused). Exits nonzero if either run misses the gate.
//!
//! ```bash
//! serve-bench            # full 200-epoch runs, writes BENCH_serve.json
//! serve-bench --quick    # 30-epoch smoke, no artifact
//! ```

use lips_bench::serve_traj::{run_serve_trajectory, ServeReport, ServeTrajectory};
use lips_bench::Table;

fn print_run(t: &ServeTrajectory) {
    let s = &t.summary;
    let mut table = Table::new(vec![
        "stream",
        "nodes",
        "jobs",
        "lp_epochs",
        "certified",
        "incremental",
        "master",
        "cold",
        "degraded",
    ]);
    table.row(vec![
        t.stream.clone(),
        t.nodes.to_string(),
        t.jobs.to_string(),
        t.lp_epochs.to_string(),
        format!("{:.3}", s.solver.certified_share),
        format!("{:.3}", s.solver.incremental_share),
        s.solver.master_epochs.to_string(),
        s.solver.cold_retry_epochs.to_string(),
        s.solver.degraded_epochs.to_string(),
    ]);
    table.print();
    println!(
        "  queue depth mean {:.2} max {} | latency mean {:.0}s | solve p50 {:.3}ms p99 {:.3}ms | ${:.4}",
        s.mean_queue_depth,
        s.max_queue_depth,
        s.mean_latency_s,
        s.solver.p50_solve_ms,
        s.solver.p99_solve_ms,
        s.total_dollars,
    );
    println!(
        "  completed {}/{} admitted, {} rejected, {} chunks, {:.0} MB moved",
        s.completed,
        s.admitted,
        s.rejected_queue_full + s.rejected_pool_budget,
        s.chunks,
        s.moved_mb,
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (epochs, jobs) = if quick { (30, 40) } else { (200, 300) };

    let mut runs = Vec::new();
    for stream in ["synth", "google"] {
        // Google-shaped jobs are mostly tiny (log-uniform inputs) and turn
        // over within an epoch; double the stream density so consecutive
        // masters share live columns and the incremental path gets a fair
        // shot, matching the per-epoch concurrency of the synth stream.
        let stream_jobs = if stream == "google" { jobs * 2 } else { jobs };
        println!("== {stream} stream: target {epochs} LP epochs ==");
        let t = run_serve_trajectory(stream, 20, stream_jobs, epochs, 2013);
        print_run(&t);
        runs.push(t);
    }

    let mut ok = true;
    for t in &runs {
        if !t.all_certified {
            eprintln!("FAIL: {} run has uncertified epochs", t.stream);
            ok = false;
        }
        if t.incremental_share < 0.8 {
            eprintln!(
                "FAIL: {} run incremental share {:.3} < 0.8",
                t.stream, t.incremental_share
            );
            ok = false;
        }
        if !quick && t.lp_epochs < epochs {
            eprintln!(
                "FAIL: {} run solved only {} LP epochs (target {epochs})",
                t.stream, t.lp_epochs
            );
            ok = false;
        }
    }

    if !quick {
        let report = ServeReport {
            config: format!("20 nodes, {jobs} jobs/stream, {epochs} LP epochs, tuned"),
            runs,
        };
        let path = "BENCH_serve.json";
        std::fs::write(
            path,
            serde_json::to_string_pretty(&report).expect("serialize serve report"),
        )
        .expect("write BENCH_serve.json");
        println!("wrote {path}");
    }
    assert!(ok, "serve acceptance gate failed");
}
