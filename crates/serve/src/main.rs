//! `lips-serve` — run the continuous-arrival scheduler daemon.
//!
//! Two modes:
//!
//! * **batch** (default): seed the arrival queue from a workload
//!   generator, drain it, print the run summary as JSON;
//! * **`--control`**: read LDJSON commands from stdin, write one JSON
//!   reply per line to stdout (see `lips_serve::control`).
//!
//! ```bash
//! lips-serve --nodes 20 --stream synth --jobs 64 --max-epochs 400
//! printf '%s\n' '{"cmd":"submit","input_mb":512}' '{"cmd":"drain"}' \
//!     '{"cmd":"shutdown"}' | lips-serve --control
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::io::{BufRead, Write as _};
use std::process::ExitCode;

use lips_cluster::ec2_mixed_cluster;
use lips_core::{Preset, SchedulerConfig};
use lips_serve::{control, metrics, Daemon, ServeConfig, TuneConfig};
use lips_workload::{
    assign_arrivals, google_records_to_jobs, google_synth, random_workload, swim_trace,
    ArrivalProcess, GoogleSynthCfg, JobSpec, RandomWorkloadCfg, SwimCfg,
};

struct Args {
    nodes: usize,
    c1_frac: f64,
    seed: u64,
    preset: Preset,
    epoch_s: f64,
    stream: Option<String>,
    jobs: usize,
    horizon: f64,
    max_epochs: usize,
    max_queue: usize,
    pool_budget: Option<f64>,
    tune: bool,
    control: bool,
    metrics_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            nodes: 20,
            c1_frac: 0.5,
            seed: 2013,
            preset: Preset::Small,
            epoch_s: 400.0,
            stream: None,
            jobs: 64,
            horizon: 4000.0,
            max_epochs: 1000,
            max_queue: 512,
            pool_budget: None,
            tune: false,
            control: false,
            metrics_out: None,
        }
    }
}

const USAGE: &str = "usage: lips-serve [options]
  --nodes N          cluster size (default 20)
  --c1-frac F        c1.medium fraction (default 0.5)
  --seed S           generator seed (default 2013)
  --preset P         scheduler preset: small | large (default small)
  --epoch-s F        initial epoch length in seconds (default 400)
  --stream S         arrival stream: synth | google | swim | none
                     (default: synth in batch mode, none with --control)
  --jobs N           jobs in the stream (default 64)
  --horizon F        arrival horizon in seconds (default 4000)
  --max-epochs N     epoch budget for the drain (default 1000)
  --max-queue N      admission: max queued jobs (default 512)
  --pool-budget F    admission: per-pool backlog budget in ECU-seconds
  --tune             enable closed-loop epoch-length tuning
  --control          LDJSON control mode on stdin/stdout
  --metrics-out P    also write Prometheus metrics text to P
";

/// Parse the command line (`argv` without the program name).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--nodes" => args.nodes = val("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--c1-frac" => args.c1_frac = val("--c1-frac")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--preset" => {
                let p = val("--preset")?;
                args.preset = Preset::parse(&p).ok_or_else(|| format!("unknown preset {p:?}"))?;
            }
            "--epoch-s" => args.epoch_s = val("--epoch-s")?.parse().map_err(|e| format!("{e}"))?,
            "--stream" => args.stream = Some(val("--stream")?),
            "--jobs" => args.jobs = val("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--horizon" => args.horizon = val("--horizon")?.parse().map_err(|e| format!("{e}"))?,
            "--max-epochs" => {
                args.max_epochs = val("--max-epochs")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--max-queue" => {
                args.max_queue = val("--max-queue")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--pool-budget" => {
                args.pool_budget = Some(val("--pool-budget")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--tune" => args.tune = true,
            "--control" => args.control = true,
            "--metrics-out" => args.metrics_out = Some(val("--metrics-out")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.nodes == 0 {
        return Err("--nodes must be >= 1".to_owned());
    }
    Ok(args)
}

fn stream_jobs(args: &Args) -> Result<Vec<JobSpec>, String> {
    // Control mode starts empty unless a stream is explicitly requested —
    // the operator's submits are the workload. Batch mode seeds synth.
    let default_stream = if args.control { "none" } else { "synth" };
    match args.stream.as_deref().unwrap_or(default_stream) {
        "none" => Ok(Vec::new()),
        "synth" => {
            let mut jobs = random_workload(
                &RandomWorkloadCfg {
                    jobs: args.jobs,
                    ..Default::default()
                },
                args.seed,
            );
            assign_arrivals(&mut jobs, ArrivalProcess::Poisson, args.horizon, args.seed);
            Ok(jobs)
        }
        "google" => {
            let records = google_synth(
                &GoogleSynthCfg {
                    jobs: args.jobs,
                    window_s: args.horizon,
                    ..Default::default()
                },
                args.seed,
            );
            Ok(google_records_to_jobs(&records))
        }
        "swim" => {
            let hours = 4;
            Ok(swim_trace(
                &SwimCfg {
                    jobs: args.jobs,
                    hours,
                    bucket_s: args.horizon / hours as f64,
                    ..Default::default()
                },
                args.seed,
            ))
        }
        other => Err(format!("unknown stream {other:?}")),
    }
}

fn build_daemon(args: &Args) -> Result<Daemon, String> {
    let scheduler: SchedulerConfig = SchedulerConfig::preset(args.preset, args.epoch_s)
        .build()
        .map_err(|e| format!("invalid scheduler config: {e}"))?;
    let mut config = ServeConfig {
        scheduler,
        bind_seed: args.seed,
        ..Default::default()
    };
    config.admission.max_queue_jobs = args.max_queue;
    config.admission.default_pool_budget_ecu = args.pool_budget;
    if args.tune {
        config.tuning = Some(TuneConfig::default());
    }
    let cluster = ec2_mixed_cluster(args.nodes, args.c1_frac, 1e9, args.seed);
    Ok(Daemon::new(cluster, config))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lips-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut daemon = match build_daemon(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lips-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match stream_jobs(&args) {
        Ok(jobs) => {
            for job in jobs {
                daemon.enqueue(job);
            }
        }
        Err(e) => {
            eprintln!("lips-serve: {e}");
            return ExitCode::FAILURE;
        }
    }

    if args.control {
        let mut input = std::io::stdin().lock();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let mut line = Vec::new();
        loop {
            line.clear();
            match input.read_until(b'\n', &mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    eprintln!("lips-serve: read stdin: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if std::str::from_utf8(&line).is_ok_and(|l| l.trim().is_empty()) {
                continue;
            }
            let (reply, shutdown) = control::handle_bytes(&mut daemon, &line);
            if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
                break;
            }
            if shutdown {
                break;
            }
        }
    } else {
        daemon.run_until_drained(args.max_epochs);
        let summary = daemon.summary();
        match serde_json::to_string_pretty(&summary) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("lips-serve: serialize summary: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, metrics::render(&daemon)) {
            eprintln!("lips-serve: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn zero_nodes_is_rejected() {
        let e = parse(&["--nodes", "0"])
            .err()
            .expect("--nodes 0 must not parse");
        assert!(e.contains("--nodes"), "{e}");
        assert_eq!(parse(&["--nodes", "1"]).map(|a| a.nodes), Ok(1));
    }
}
