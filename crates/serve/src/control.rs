//! The LDJSON control API: one JSON object per line in, one per line out.
//!
//! ```text
//! {"cmd":"submit","name":"g1","kind":"grep","input_mb":512,"tasks":8}
//! {"cmd":"run","epochs":3}
//! {"cmd":"drain"}
//! {"cmd":"status"}
//! {"cmd":"metrics"}
//! {"cmd":"revoke","machine":4}
//! {"cmd":"rejoin","machine":4}
//! {"cmd":"shutdown"}
//! ```
//!
//! Every reply carries `"ok"`; errors come back as
//! `{"ok":false,"error":"..."}` and never kill the daemon.

use serde::{Deserialize, Serialize};

use lips_workload::{JobKind, JobSpec, MAX_JOB_MB, MAX_TASKS_PER_JOB};

use crate::daemon::Daemon;
use crate::metrics;

fn default_input_mb() -> f64 {
    1024.0
}
fn default_tasks() -> u32 {
    8
}
fn default_run_epochs() -> usize {
    1
}
fn default_drain_epochs() -> usize {
    MAX_EPOCHS_PER_COMMAND
}

/// Most epochs one `run` or `drain` line may ask for: a line must not hold
/// the daemon for ever.
pub const MAX_EPOCHS_PER_COMMAND: usize = 10_000;

/// One parsed control line.
#[derive(Debug, Deserialize)]
#[serde(tag = "cmd", rename_all = "snake_case", deny_unknown_fields)]
pub enum Command {
    Submit {
        #[serde(default)]
        id: Option<usize>,
        #[serde(default)]
        name: Option<String>,
        /// Workload kind: grep | wordcount | pi | stress1 | stress2.
        #[serde(default)]
        kind: Option<String>,
        #[serde(default = "default_input_mb")]
        input_mb: f64,
        #[serde(default = "default_tasks")]
        tasks: u32,
        #[serde(default)]
        pool: Option<String>,
        /// Arrival time in virtual seconds (absent: the daemon's `now`).
        #[serde(default)]
        arrival_s: Option<f64>,
        #[serde(default)]
        read_fraction: Option<f64>,
        #[serde(default)]
        reduce_tasks: Option<u32>,
        #[serde(default)]
        shuffle_mb: Option<f64>,
    },
    Run {
        #[serde(default = "default_run_epochs")]
        epochs: usize,
    },
    Drain {
        #[serde(default = "default_drain_epochs")]
        max_epochs: usize,
    },
    Status,
    Metrics,
    Revoke {
        machine: usize,
    },
    Rejoin {
        machine: usize,
    },
    Shutdown,
}

#[derive(Serialize)]
struct SubmitReply {
    ok: bool,
    id: usize,
    /// "queued" for future arrivals, otherwise the admission verdict.
    decision: String,
}

#[derive(Serialize)]
struct RunReply {
    ok: bool,
    epochs_run: usize,
    now: f64,
    queue: usize,
    completed: usize,
}

#[derive(Serialize)]
struct StatusReply {
    ok: bool,
    now: f64,
    epoch_s: f64,
    epochs_run: usize,
    queue: usize,
    pending_arrivals: usize,
    admitted: usize,
    completed: usize,
    certified_share: f64,
    incremental_share: f64,
    total_dollars: f64,
    refused_actions: usize,
}

#[derive(Serialize)]
struct MetricsReply {
    ok: bool,
    metrics: String,
}

#[derive(Serialize)]
struct FlagReply {
    ok: bool,
    changed: bool,
}

fn err(msg: &str) -> String {
    // The shim serializes `str` directly (quoting + escaping).
    let quoted = serde_json::to_string(msg).unwrap_or_else(|_| "\"error\"".to_owned());
    format!("{{\"ok\":false,\"error\":{quoted}}}")
}

fn parse_kind(s: &str) -> Option<JobKind> {
    match s.to_ascii_lowercase().as_str() {
        "grep" => Some(JobKind::Grep),
        "wordcount" | "word_count" | "wc" => Some(JobKind::WordCount),
        "pi" => Some(JobKind::Pi),
        "stress1" => Some(JobKind::Stress1),
        "stress2" => Some(JobKind::Stress2),
        _ => None,
    }
}

/// Handle one control line against the daemon. Returns the reply line and
/// whether the caller should shut down.
pub fn handle_line(daemon: &mut Daemon, line: &str) -> (String, bool) {
    let line = line.trim();
    if line.is_empty() {
        return (err("empty line"), false);
    }
    let cmd: Command = match serde_json::from_str(line) {
        Ok(c) => c,
        Err(e) => return (err(&format!("bad command: {e:?}")), false),
    };
    let reply = match cmd {
        Command::Submit {
            id,
            name,
            kind,
            input_mb,
            tasks,
            pool,
            arrival_s,
            read_fraction,
            reduce_tasks,
            shuffle_mb,
        } => {
            let Some(kind) = parse_kind(kind.as_deref().unwrap_or("grep")) else {
                return (err("unknown kind"), false);
            };
            if !((0.0..=MAX_JOB_MB).contains(&input_mb) && (1..=MAX_TASKS_PER_JOB).contains(&tasks))
            {
                return (
                    err(&format!(
                        "input_mb must be in 0..={MAX_JOB_MB}, tasks in 1..={MAX_TASKS_PER_JOB}"
                    )),
                    false,
                );
            }
            if read_fraction.is_some_and(|f| !(f > 0.0 && f <= 1.0)) {
                return (err("read_fraction must be in (0, 1]"), false);
            }
            if arrival_s.is_some_and(|t| !t.is_finite()) {
                return (err("arrival_s must be finite"), false);
            }
            // A reduce spec is both fields or neither: half of one is
            // refused, not silently dropped.
            let reduce = match (reduce_tasks, shuffle_mb) {
                (None, None) => None,
                (Some(rt), Some(smb))
                    if (1..=MAX_TASKS_PER_JOB).contains(&rt) && smb > 0.0 && smb <= MAX_JOB_MB =>
                {
                    Some((rt, smb))
                }
                _ => {
                    return (
                        err(&format!(
                            "a reduce spec needs both reduce_tasks in 1..={MAX_TASKS_PER_JOB} \
                             and shuffle_mb in (0, {MAX_JOB_MB}]"
                        )),
                        false,
                    )
                }
            };
            let id = id.unwrap_or_else(|| daemon.fresh_job_id());
            let name = name.unwrap_or_else(|| format!("job-{id}"));
            let mut spec = JobSpec::new(id, name, kind, input_mb, tasks);
            if let Some(p) = pool {
                spec = spec.in_pool(p);
            }
            // A submit with no arrival time arrives now, not at t = 0.
            spec = spec.arriving_at(arrival_s.unwrap_or_else(|| daemon.now()));
            if let Some(f) = read_fraction {
                spec = spec.reading_fraction(f);
            }
            if let Some((rt, smb)) = reduce {
                let tcp = spec.tcp_ecu_sec_per_mb;
                spec = spec.with_reduce(rt, smb, tcp);
            }
            // The scheduler and the executor look jobs up by id: a second
            // job under a known id is refused.
            let decision = match daemon.submit(spec) {
                Err(e) => return (err(&e.to_string()), false),
                Ok(None) => "queued".to_owned(),
                Ok(Some(d)) => d.as_str().to_owned(),
            };
            serde_json::to_string(&SubmitReply {
                ok: true,
                id,
                decision,
            })
        }
        Command::Run { epochs } | Command::Drain { max_epochs: epochs }
            if epochs > MAX_EPOCHS_PER_COMMAND =>
        {
            return (
                err(&format!(
                    "at most {MAX_EPOCHS_PER_COMMAND} epochs per command, got {epochs}"
                )),
                false,
            );
        }
        Command::Run { epochs } => {
            for _ in 0..epochs {
                daemon.run_epoch();
            }
            serde_json::to_string(&RunReply {
                ok: true,
                epochs_run: daemon.epochs_run(),
                now: daemon.now(),
                queue: daemon.queue_len(),
                completed: daemon.completed().len(),
            })
        }
        Command::Drain { max_epochs } => {
            let ran = daemon.run_until_drained(max_epochs);
            serde_json::to_string(&RunReply {
                ok: true,
                epochs_run: ran,
                now: daemon.now(),
                queue: daemon.queue_len(),
                completed: daemon.completed().len(),
            })
        }
        Command::Status => {
            let s = daemon.summary();
            serde_json::to_string(&StatusReply {
                ok: true,
                now: daemon.now(),
                epoch_s: daemon.epoch_s(),
                epochs_run: daemon.epochs_run(),
                queue: s.queued,
                pending_arrivals: s.pending_arrivals,
                admitted: s.admitted,
                completed: s.completed,
                certified_share: s.solver.certified_share,
                incremental_share: s.solver.incremental_share,
                total_dollars: s.total_dollars,
                refused_actions: s.refused_actions,
            })
        }
        Command::Metrics => serde_json::to_string(&MetricsReply {
            ok: true,
            metrics: metrics::render(daemon),
        }),
        Command::Revoke { machine } => serde_json::to_string(&FlagReply {
            ok: true,
            changed: daemon.revoke(machine),
        }),
        Command::Rejoin { machine } => serde_json::to_string(&FlagReply {
            ok: true,
            changed: daemon.rejoin(machine),
        }),
        Command::Shutdown => return ("{\"ok\":true}".to_owned(), true),
    };
    match reply {
        Ok(r) => (r, false),
        Err(e) => (err(&format!("serialize reply: {e:?}")), false),
    }
}

/// [`handle_line`] for a raw input line: bytes that are not UTF-8 are
/// refused like any other malformed command, and the daemon keeps going.
pub fn handle_bytes(daemon: &mut Daemon, line: &[u8]) -> (String, bool) {
    match std::str::from_utf8(line) {
        Ok(line) => handle_line(daemon, line),
        Err(e) => (err(&format!("line is not UTF-8: {e}")), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;
    use lips_cluster::ec2_20_node;

    fn daemon() -> Daemon {
        Daemon::new(ec2_20_node(0.5, 1e9), ServeConfig::default())
    }

    #[test]
    fn submit_run_status_round_trip() {
        let mut d = daemon();
        let (r, stop) = handle_line(
            &mut d,
            r#"{"cmd":"submit","name":"g1","kind":"grep","input_mb":256,"tasks":4}"#,
        );
        assert!(!stop);
        assert!(r.contains("\"ok\":true") && r.contains("admitted"), "{r}");
        let (r, _) = handle_line(&mut d, r#"{"cmd":"run","epochs":2}"#);
        assert!(r.contains("\"epochs_run\":2"), "{r}");
        let (r, _) = handle_line(&mut d, r#"{"cmd":"status"}"#);
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    #[test]
    fn future_submit_queues() {
        let mut d = daemon();
        let (r, _) = handle_line(
            &mut d,
            r#"{"cmd":"submit","input_mb":64,"tasks":1,"arrival_s":500.0}"#,
        );
        assert!(r.contains("queued"), "{r}");
        assert_eq!(d.pending_arrivals(), 1);
    }

    #[test]
    fn submit_without_arrival_arrives_now() {
        let mut d = daemon();
        handle_line(&mut d, r#"{"cmd":"run","epochs":3}"#);
        let submitted = d.now();
        assert!(submitted > 0.0);
        let (r, _) = handle_line(&mut d, r#"{"cmd":"submit","input_mb":256,"tasks":4}"#);
        assert!(r.contains("admitted"), "{r}");
        handle_line(&mut d, r#"{"cmd":"drain"}"#);
        let job = &d.completed()[0];
        assert_eq!(job.arrival, submitted);
        assert!(job.completed - job.arrival < d.now(), "{job:?}");
    }

    #[test]
    fn bad_lines_err_without_shutdown() {
        let mut d = daemon();
        for line in [
            "",
            "not json",
            r#"{"cmd":"unknown"}"#,
            r#"{"cmd":"submit","kind":"mystery","input_mb":1}"#,
            r#"{"cmd":"submit","input_mb":64,"reduce_tasks":0,"shuffle_mb":16}"#,
            r#"{"cmd":"submit","input_mb":64,"reduce_tasks":2,"shuffle_mb":0}"#,
            r#"{"cmd":"submit","input_mb":64,"reduce_tasks":2,"shuffle_mb":-8}"#,
            r#"{"cmd":"submit","input_mb":64,"read_fraction":0}"#,
            r#"{"cmd":"submit","input_mb":64,"read_fraction":1.5}"#,
            r#"{"cmd":"submit","input_mb":64,"tasks":4294967295}"#,
            r#"{"cmd":"submit","input_mb":64,"reduce_tasks":4294967295,"shuffle_mb":16}"#,
            r#"{"cmd":"submit","input_mb":64,"reduce_tasks":0}"#,
            r#"{"cmd":"submit","input_mb":64,"reduce_tasks":4294967295}"#,
            r#"{"cmd":"submit","input_mb":64,"shuffle_mb":-5}"#,
            r#"{"cmd":"submit","input_mb":512,"tasks":4,"arrival_s":1e999}"#,
            r#"{"cmd":"submit","input_mb":1e6,"tasks":4,"read_fraction":0.5,"reduce_tasks":65536,"shuffle_mb":18446744073709551615}"#,
            r#"{"cmd":"submit","input_mb":1e308,"tasks":4}"#,
            r#"{"cmd":"run","epochs":18446744073709551615}"#,
            r#"{"cmd":"drain","max_epochs":10001}"#,
        ] {
            let (r, stop) = handle_line(&mut d, line);
            assert!(r.contains("\"ok\":false"), "{line} -> {r}");
            assert!(!stop);
        }
    }

    #[test]
    fn duplicate_job_ids_are_refused() {
        let mut d = daemon();
        let submit = |d: &mut Daemon, line: &str| handle_line(d, line).0;
        let r = submit(
            &mut d,
            r#"{"cmd":"submit","id":0,"kind":"grep","input_mb":512,"tasks":4}"#,
        );
        assert!(r.contains("\"ok\":true"), "{r}");
        // A second job 0 while the first is queued.
        let r = submit(
            &mut d,
            r#"{"cmd":"submit","id":0,"kind":"wordcount","input_mb":2048,"tasks":4}"#,
        );
        assert!(r.contains("\"ok\":false"), "{r}");
        // A second job 1 while the first is still a pending arrival.
        let r = submit(
            &mut d,
            r#"{"cmd":"submit","id":1,"input_mb":64,"tasks":1,"arrival_s":500.0}"#,
        );
        assert!(r.contains("queued"), "{r}");
        let r = submit(&mut d, r#"{"cmd":"submit","id":1,"input_mb":64,"tasks":1}"#);
        assert!(r.contains("\"ok\":false"), "{r}");
        handle_line(&mut d, r#"{"cmd":"drain"}"#);
        assert_eq!(d.completed().len(), 2);
        // A second job 0 after the first completed.
        let r = submit(&mut d, r#"{"cmd":"submit","id":0,"input_mb":64,"tasks":1}"#);
        assert!(r.contains("\"ok\":false"), "{r}");
        // Ids the daemon draws itself skip every id it has seen.
        let r = submit(&mut d, r#"{"cmd":"submit","input_mb":64,"tasks":1}"#);
        assert!(r.contains("\"ok\":true") && r.contains("\"id\":2"), "{r}");
    }

    #[test]
    fn shutdown_signals() {
        let mut d = daemon();
        let (r, stop) = handle_line(&mut d, r#"{"cmd":"shutdown"}"#);
        assert!(stop);
        assert!(r.contains("\"ok\":true"));
    }

    #[test]
    fn revoke_and_rejoin_flags() {
        let mut d = daemon();
        let (r, _) = handle_line(&mut d, r#"{"cmd":"revoke","machine":3}"#);
        assert!(r.contains("\"changed\":true"), "{r}");
        let (r, _) = handle_line(&mut d, r#"{"cmd":"revoke","machine":3}"#);
        assert!(r.contains("\"changed\":false"), "{r}");
        let (r, _) = handle_line(&mut d, r#"{"cmd":"rejoin","machine":3}"#);
        assert!(r.contains("\"changed\":true"), "{r}");
        let (r, _) = handle_line(&mut d, r#"{"cmd":"revoke","machine":999}"#);
        assert!(r.contains("\"changed\":false"), "{r}");
    }
}
