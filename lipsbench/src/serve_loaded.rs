//! `serve-loaded`: `lips-serve` in batch-stream mode under load.
//!
//! A Google-trace-shaped stream goes through the trace file path
//! (`google_synth` → `write_google_tsv` → `parse_google_tsv` →
//! `google_records_to_jobs`) and is enqueued up front, as the `lips-serve`
//! binary does in batch mode. Epochs then advance one `run_until_drained(1)`
//! call at a time — the batch drain's own loop, idle-gap fast-forward
//! included — with a fixed epoch length and the tuner off. Arrivals are
//! dense enough that carried solver state almost never survives an epoch:
//! this is the cold path.

use std::collections::BTreeMap;
use std::time::Instant;

use lips_cluster::ec2_mixed_cluster;
use lips_serve::{Daemon, ServeConfig};
use lips_workload::{
    google_records_to_jobs, google_synth, parse_google_tsv, write_google_tsv, GoogleSynthCfg,
    JobSpec,
};

use crate::pass::Pass;
use crate::serve_common::{finish_serve_pass, serve_config};
use crate::trace::Tracer;
use crate::Workload;

const NODES: usize = 20;
const JOBS: usize = 1200;
/// Nominal arrival window; each stream's is rescaled to offer `LOAD`.
const HORIZON_S: f64 = 24_000.0;
/// Offered load: the stream's ECU-seconds over the cluster's ECU-seconds in
/// the arrival window. Near saturation queueing delay is steep in the
/// load, so an unscaled heavy-tailed draw (0.76–0.91 here) would decide
/// the stream's epoch times and latencies by itself.
const LOAD: f64 = 0.78;
const EPOCH_S: f64 = 200.0;
/// Runaway guard: far more epochs than the stream can need.
const MAX_EPOCHS: usize = 2000;
/// Regime guard: second-half mean queue depth ≤ 2 × first half + this.
const QUEUE_SLACK_JOBS: f64 = 10.0;

pub struct ServeLoaded;

/// A stream's seed and the arrival-time scale that makes it offer `LOAD`.
pub struct Stream {
    seed: u64,
    scale: f64,
}

pub struct Input {
    daemon: Daemon,
    /// ECU-seconds of every job, by id.
    ecu: BTreeMap<usize, f64>,
    /// The stream's arrival window after load scaling.
    window_s: f64,
}

fn synth_cfg() -> GoogleSynthCfg {
    GoogleSynthCfg {
        jobs: JOBS,
        window_s: HORIZON_S,
        ..GoogleSynthCfg::default()
    }
}

impl Workload for ServeLoaded {
    type Stream = Stream;
    type Input = Input;
    /// Under load almost no epoch re-uses carried state.
    const INCREMENTAL_SHARE: (f64, f64) = (0.0, 0.10);

    /// The scale that stretches or squeezes the arrival window so that the
    /// stream offers exactly `LOAD` of the cluster's capacity. It is the
    /// benchmark's choice of input, not work a user pays for, so it is
    /// found once per run, outside the timed set-up.
    fn stream(&self, seed: u64) -> Stream {
        let cluster = ec2_mixed_cluster(NODES, 0.5, 1e9, seed);
        let capacity_ecu: f64 = cluster.machines.iter().map(|m| m.tp_ecu).sum();
        let work: f64 = google_records_to_jobs(&google_synth(&synth_cfg(), seed))
            .iter()
            .map(JobSpec::total_ecu_sec_with_reduce)
            .sum();
        Stream {
            seed,
            scale: work / (LOAD * capacity_ecu * HORIZON_S),
        }
    }

    fn setup(&self, stream: &Stream, threads: usize, tr: &mut Tracer) -> Input {
        let &Stream { seed, scale } = stream;
        let (cluster, _) = tr.time("cluster.build", None, || {
            ec2_mixed_cluster(NODES, 0.5, 1e9, seed)
        });
        let (records, _) = tr.time("workload.gen", None, || {
            let mut records = google_synth(&synth_cfg(), seed);
            for r in &mut records {
                r.submit_time_us = (r.submit_time_us as f64 * scale) as u64;
            }
            records
        });
        let window_s = HORIZON_S * scale;
        let (records, _) = tr.time("workload.parse", None, || {
            let mut tsv = Vec::new();
            write_google_tsv(&records, &mut tsv).expect("writing a TSV into memory");
            parse_google_tsv(tsv.as_slice()).expect("the generated trace parses")
        });
        let (jobs, _) = tr.time("workload.bind", None, || google_records_to_jobs(&records));
        let ecu = jobs
            .iter()
            .map(|j| (j.id.0, j.total_ecu_sec_with_reduce()))
            .collect();
        let config: ServeConfig = serve_config(EPOCH_S, threads, seed);
        let (daemon, _) = tr.time("serve.enqueue", None, || {
            let mut daemon = Daemon::new(cluster, config);
            for job in jobs {
                daemon.enqueue(job);
            }
            daemon
        });
        Input {
            daemon,
            ecu,
            window_s,
        }
    }

    fn jobs(&self, input: &Input) -> usize {
        input.daemon.pending_arrivals()
    }

    fn run(&self, input: Input, tr: &mut Tracer) -> Pass {
        let Input {
            mut daemon,
            ecu,
            window_s,
        } = input;
        let mut pass = Pass {
            submitted: daemon.pending_arrivals(),
            ..Pass::default()
        };
        let mut epoch_sum_ms = 0.0;
        let mut self_ms = 0.0;
        let probe_ms = tr.probe_ms();
        let start = Instant::now();
        while daemon.queue_len() > 0 || daemon.pending_arrivals() > 0 {
            if daemon.epochs_run() >= MAX_EPOCHS {
                pass.violations
                    .push(format!("stream not drained after {MAX_EPOCHS} epochs"));
                break;
            }
            let before = daemon.scheduler().epoch_records().len();
            let open = tr.open("serve.epoch", None, None);
            daemon.run_until_drained(1);
            let ms = tr.close(open);
            if let Some(r) = daemon.scheduler().epoch_records().get(before) {
                tr.set_epoch(open, before);
                pass.epoch_ms.push(ms);
                epoch_sum_ms += ms;
                self_ms += ms - (r.build_ms + r.solve_ms + r.certify_ms);
                pass.speed.push(tr.host_speed(None));
            }
        }
        pass.timed_s = start.elapsed().as_secs_f64() - (tr.probe_ms() - probe_ms) / 1e3;
        finish_serve_pass(&mut pass, &daemon, &ecu);
        pass.layer.insert("serve.epoch_ms", epoch_sum_ms);
        pass.layer.insert("serve.self_ms", self_ms);

        // The backlog must not grow: mean queue depth over the second half
        // of the arrival window stays within slack of the first half's. The
        // heavy-tailed stream alone moves the halves' ratio between about
        // 0.4 and 2; an overloaded daemon's queue grows without bound.
        let half = |lo: f64, hi: f64| {
            let depths: Vec<f64> = daemon
                .epoch_log()
                .iter()
                .filter(|e| e.now >= lo && e.now < hi)
                .map(|e| e.queue_depth as f64)
                .collect();
            depths.iter().sum::<f64>() / depths.len().max(1) as f64
        };
        let first = half(0.0, window_s / 2.0);
        let second = half(window_s / 2.0, window_s);
        let slack = first + QUEUE_SLACK_JOBS;
        if second > first + slack {
            pass.violations.push(format!(
                "regime: backlog grows, mean queue {first} then {second} (slack {slack})"
            ));
        }
        pass
    }
}
