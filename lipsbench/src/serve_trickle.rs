//! `serve-trickle`: `lips-serve` driven only through its LDJSON control
//! API (`lips_serve::handle_line`).
//!
//! A sparse Google-trace-shaped stream is replayed as a client would: each
//! job goes in as a `submit` line, carrying its trace `arrival_s`, at the
//! epoch boundary where it comes due; one `run` line advances each epoch;
//! a `status` + `metrics` scrape follows every `SCRAPE_EVERY` epochs.
//! Arrivals are sparse, so most epochs are incremental re-solves of a few
//! pivots and the serve/control layer's own overhead is a large share.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use lips_cluster::ec2_mixed_cluster;
use lips_serve::{handle_line, Daemon};
use lips_workload::{google_records_to_jobs, google_synth, GoogleSynthCfg, JobKind, JobSpec};

use crate::pass::Pass;
use crate::serve_common::{finish_serve_pass, serve_config};
use crate::trace::Tracer;
use crate::Workload;

const NODES: usize = 20;
const JOBS: usize = 2000;
const HORIZON_S: f64 = 400_000.0;
const EPOCH_S: f64 = 400.0;
/// A `status` + `metrics` scrape after every this many `run` lines.
const SCRAPE_EVERY: usize = 10;
/// Runaway guard: far more epochs than the stream can need.
const MAX_EPOCHS: usize = 4000;

pub struct ServeTrickle;

/// One client-side submit line, due at `arrival_s`.
struct Submit {
    arrival_s: f64,
    line: String,
}

pub struct Input {
    daemon: Daemon,
    submits: Vec<Submit>,
    /// ECU-seconds of every job as the daemon will build it, by id.
    ecu: BTreeMap<usize, f64>,
}

fn kind_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Grep => "grep",
        JobKind::WordCount => "wordcount",
        JobKind::Pi => "pi",
        JobKind::Stress1 => "stress1",
        JobKind::Stress2 => "stress2",
    }
}

/// The control line for a trace job, and the spec the daemon builds from
/// it. The control API carries kind, size, tasks, pool and arrival; an
/// input-less job therefore runs at the Pi kind's default work.
fn submit_line(job: &JobSpec) -> (String, JobSpec) {
    let kind = kind_name(job.kind);
    let mut line = String::with_capacity(160);
    let _ = write!(
        line,
        "{{\"cmd\":\"submit\",\"id\":{},\"name\":\"{}\",\"kind\":\"{kind}\",\"input_mb\":{},\"tasks\":{},\"pool\":\"{}\",\"arrival_s\":{}}}",
        job.id.0, job.name, job.input_mb, job.tasks, job.pool, job.arrival_s
    );
    let spec = JobSpec::new(
        job.id.0,
        job.name.clone(),
        job.kind,
        job.input_mb,
        job.tasks,
    )
    .in_pool(job.pool.clone())
    .arriving_at(job.arrival_s);
    (line, spec)
}

/// Pull `"key":<number>` out of a reply line.
fn field(reply: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = reply.find(&pat)? + pat.len();
    let rest = &reply[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

impl Workload for ServeTrickle {
    type Stream = u64;
    type Input = Input;
    /// At a trickle almost every epoch re-uses carried state.
    const INCREMENTAL_SHARE: (f64, f64) = (0.80, 1.0);

    fn stream(&self, seed: u64) -> u64 {
        seed
    }

    fn setup(&self, &seed: &u64, threads: usize, tr: &mut Tracer) -> Input {
        let cfg = GoogleSynthCfg {
            jobs: JOBS,
            window_s: HORIZON_S,
            ..GoogleSynthCfg::default()
        };
        let (jobs, _) = tr.time("workload.gen", None, || {
            google_records_to_jobs(&google_synth(&cfg, seed))
        });
        let ((submits, ecu), _) = tr.time("workload.render", None, || {
            let mut submits = Vec::with_capacity(jobs.len());
            let mut ecu = BTreeMap::new();
            for job in &jobs {
                let (line, spec) = submit_line(job);
                ecu.insert(spec.id.0, spec.total_ecu_sec_with_reduce());
                submits.push(Submit {
                    arrival_s: job.arrival_s,
                    line,
                });
            }
            (submits, ecu)
        });
        let (cluster, _) = tr.time("cluster.build", None, || {
            ec2_mixed_cluster(NODES, 0.5, 1e9, seed)
        });
        let config = serve_config(EPOCH_S, threads, seed);
        let (daemon, _) = tr.time("serve.enqueue", None, || Daemon::new(cluster, config));
        Input {
            daemon,
            submits,
            ecu,
        }
    }

    fn jobs(&self, input: &Input) -> usize {
        input.submits.len()
    }

    fn run(&self, input: Input, tr: &mut Tracer) -> Pass {
        let Input {
            mut daemon,
            submits,
            ecu,
        } = input;
        let mut pass = Pass {
            submitted: submits.len(),
            ..Pass::default()
        };
        let (mut control_ms, mut scrape_ms, mut epoch_sum_ms, mut self_ms) = (0.0, 0.0, 0.0, 0.0);
        let mut bad_replies = 0usize;
        let mut next = 0usize;
        let mut now = 0.0f64;
        let mut queue = 0usize;
        let mut runs = 0usize;
        let probe_ms = tr.probe_ms();
        let start = Instant::now();
        while next < submits.len() || queue > 0 {
            if runs >= MAX_EPOCHS {
                pass.violations
                    .push(format!("stream not drained after {MAX_EPOCHS} epochs"));
                break;
            }
            // Submit everything that came due by this boundary.
            let due = submits[next..].partition_point(|s| s.arrival_s <= now);
            if due > 0 {
                let open = tr.open("serve.control", None, None);
                for s in &submits[next..next + due] {
                    let (reply, _) = handle_line(&mut daemon, &s.line);
                    bad_replies += usize::from(!reply.starts_with("{\"ok\":true"));
                }
                control_ms += tr.close(open);
                next += due;
            }
            // Advance one epoch.
            let before = daemon.scheduler().epoch_records().len();
            let open = tr.open("serve.epoch", None, None);
            let (reply, _) = handle_line(&mut daemon, "{\"cmd\":\"run\",\"epochs\":1}");
            let ms = tr.close(open);
            runs += 1;
            match (field(&reply, "now"), field(&reply, "queue")) {
                (Some(t), Some(q)) => {
                    now = t;
                    queue = q as usize;
                }
                _ => {
                    pass.violations.push(format!("bad run reply: {reply}"));
                    break;
                }
            }
            if let Some(r) = daemon.scheduler().epoch_records().get(before) {
                tr.set_epoch(open, before);
                pass.epoch_ms.push(ms);
                epoch_sum_ms += ms;
                self_ms += ms - (r.build_ms + r.solve_ms + r.certify_ms);
                pass.speed.push(tr.host_speed(None));
            }
            if runs.is_multiple_of(SCRAPE_EVERY) {
                let open = tr.open("serve.scrape", None, None);
                for line in ["{\"cmd\":\"status\"}", "{\"cmd\":\"metrics\"}"] {
                    let (reply, _) = handle_line(&mut daemon, line);
                    bad_replies += usize::from(!reply.starts_with("{\"ok\":true"));
                }
                scrape_ms += tr.close(open);
            }
        }
        pass.timed_s = start.elapsed().as_secs_f64() - (tr.probe_ms() - probe_ms) / 1e3;
        if bad_replies > 0 {
            pass.violations
                .push(format!("{bad_replies} control replies were not ok"));
        }
        finish_serve_pass(&mut pass, &daemon, &ecu);
        pass.layer.insert("serve.epoch_ms", epoch_sum_ms);
        pass.layer.insert("serve.self_ms", self_ms);
        pass.layer.insert("serve.control_ms", control_ms);
        pass.layer.insert("serve.scrape_ms", scrape_ms);
        pass
    }
}
