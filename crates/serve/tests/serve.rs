//! End-to-end daemon behavior: continuous arrivals drain certified and
//! mostly incremental, reduce phases materialize shuffle data, faults
//! heal, the tuner stays in band, and admission control enforces its
//! caps.

use lips_cluster::ec2_mixed_cluster;
use lips_serve::{Daemon, ServeConfig, TuneConfig};
use lips_workload::{
    assign_arrivals, random_workload, ArrivalProcess, JobKind, JobSpec, RandomWorkloadCfg,
};

fn daemon(nodes: usize, seed: u64) -> Daemon {
    Daemon::new(
        ec2_mixed_cluster(nodes, 0.5, 1e9, seed),
        ServeConfig::default(),
    )
}

fn poisson_stream(jobs: usize, horizon: f64, seed: u64) -> Vec<JobSpec> {
    let mut specs = random_workload(
        &RandomWorkloadCfg {
            jobs,
            ..Default::default()
        },
        seed,
    );
    assign_arrivals(&mut specs, ArrivalProcess::Poisson, horizon, seed);
    specs
}

#[test]
fn continuous_arrivals_drain_certified_and_incremental() {
    let mut d = daemon(16, 7);
    for spec in poisson_stream(24, 6000.0, 7) {
        d.enqueue(spec);
    }
    d.run_until_drained(400);
    let s = d.summary();
    assert_eq!(s.admitted, 24);
    assert_eq!(s.completed, 24, "queue did not drain: {s:?}");
    assert_eq!(s.queued, 0);
    assert_eq!(s.pending_arrivals, 0);
    assert_eq!(
        s.solver.certified_share,
        1.0,
        "uncertified epochs in a healthy run: {:?}",
        d.scheduler().epoch_records()
    );
    assert!(
        s.solver.incremental_share >= 0.8,
        "incremental share {} below 0.8 over {} LP epochs",
        s.solver.incremental_share,
        s.solver.epochs
    );
    // More than one LP epoch actually ran, so the shares mean something.
    assert!(s.solver.epochs >= 5, "only {} LP epochs", s.solver.epochs);
}

#[test]
fn reduce_jobs_materialize_shuffle_and_complete() {
    let mut d = daemon(12, 3);
    let catalog_before = d.cluster().num_data();
    for i in 0..4usize {
        d.enqueue(
            JobSpec::new(i, format!("mr{i}"), JobKind::WordCount, 1024.0, 8)
                .with_reduce(4, 512.0, 0.5),
        );
    }
    d.run_until_drained(200);
    let s = d.summary();
    assert_eq!(s.completed, 4, "reduce jobs stuck: {s:?}");
    // 4 inputs + 4 shuffle objects entered the catalog.
    assert_eq!(d.cluster().num_data(), catalog_before + 8);
    assert_eq!(s.solver.certified_share, 1.0);
}

#[test]
fn revocation_mid_stream_recovers() {
    let mut d = daemon(10, 11);
    for spec in poisson_stream(12, 3000.0, 11) {
        d.enqueue(spec);
    }
    for _ in 0..3 {
        d.run_epoch();
    }
    assert!(d.revoke(2));
    for _ in 0..3 {
        d.run_epoch();
    }
    assert!(d.rejoin(2));
    d.run_until_drained(300);
    let s = d.summary();
    assert_eq!(s.completed, 12, "drain incomplete after fault: {s:?}");
    assert_eq!(
        s.solver.certified_share,
        1.0,
        "fault broke certification: {:?}",
        d.scheduler().epoch_records()
    );
}

#[test]
fn tuner_tracks_backlog_and_stays_in_band() {
    let tune = TuneConfig {
        min_epoch_s: 100.0,
        max_epoch_s: 1600.0,
        target_epochs: 2.0,
        smoothing: 1.0,
        ..Default::default()
    };
    let mut config = ServeConfig {
        tuning: Some(tune),
        ..Default::default()
    };
    config.scheduler.epoch_s = 400.0;
    let mut d = Daemon::new(ec2_mixed_cluster(8, 0.5, 1e9, 5), config);
    // A heavy burst at t = 0 should stretch epochs toward the cost end.
    for i in 0..16usize {
        d.enqueue(JobSpec::new(
            i,
            format!("h{i}"),
            JobKind::Stress2,
            4096.0,
            32,
        ));
    }
    d.run_epoch();
    let first = &d.epoch_log()[0];
    assert!(
        first.next_epoch_s >= first.epoch_s,
        "tuner shortened under backlog: {first:?}"
    );
    d.run_until_drained(300);
    for e in d.epoch_log() {
        assert!(
            (tune.min_epoch_s..=tune.max_epoch_s).contains(&e.next_epoch_s),
            "epoch length {e:?} left the band"
        );
    }
    // Once drained, the loop relaxes to the responsive end.
    assert_eq!(d.epoch_log().last().unwrap().next_epoch_s, tune.min_epoch_s);
}

#[test]
fn admission_caps_enforce_queue_and_pool_budgets() {
    let mut config = ServeConfig::default();
    config.admission.max_queue_jobs = 4;
    let mut d = Daemon::new(ec2_mixed_cluster(8, 0.5, 1e9, 1), config);
    for i in 0..10usize {
        d.enqueue(JobSpec::new(i, format!("q{i}"), JobKind::Grep, 512.0, 4));
    }
    d.run_epoch();
    let s = d.summary();
    assert_eq!(s.admitted, 4);
    assert_eq!(s.rejected_queue_full, 6);
    assert_eq!(
        d.admission_log()
            .iter()
            .filter(|e| e.decision == "queue_full")
            .count(),
        6
    );

    // Pool budgets: the "tight" pool can hold one job's worth of backlog.
    let probe = JobSpec::new(100, "probe", JobKind::Grep, 1024.0, 4).in_pool("tight");
    let mut config = ServeConfig::default();
    config
        .admission
        .pool_budgets_ecu
        .insert("tight".into(), probe.total_ecu_sec_with_reduce() * 1.2);
    let mut d = Daemon::new(ec2_mixed_cluster(8, 0.5, 1e9, 1), config);
    for i in 0..3usize {
        d.enqueue(JobSpec::new(i, format!("t{i}"), JobKind::Grep, 1024.0, 4).in_pool("tight"));
    }
    d.run_epoch();
    let s = d.summary();
    assert_eq!(s.admitted, 1);
    assert_eq!(s.rejected_pool_budget, 2);
}

#[test]
fn idle_gaps_fast_forward_without_lp_epochs() {
    let mut d = daemon(8, 2);
    d.enqueue(JobSpec::new(0, "early", JobKind::Grep, 256.0, 4));
    d.enqueue(JobSpec::new(1, "late", JobKind::Grep, 256.0, 4).arriving_at(50_000.0));
    d.run_until_drained(100);
    let s = d.summary();
    assert_eq!(s.completed, 2);
    // The idle gap was skipped, not ground through epoch by epoch.
    assert!(
        s.epochs_run < 20,
        "fast-forward failed: {} epochs",
        s.epochs_run
    );
    assert!(d.now() >= 50_000.0);
}

#[test]
fn control_mode_refuses_a_non_utf8_line_and_keeps_reading() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_lips-serve"))
        .arg("--control")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(
            b"{\"cmd\":\"status\"}\n\xff\xfe\n{\"cmd\":\"status\"}\n{\"cmd\":\"shutdown\"}\n",
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 4, "{replies:?}");
    assert!(
        replies[1].starts_with("{\"ok\":false") && replies[1].contains("not UTF-8"),
        "{}",
        replies[1]
    );
    for r in [replies[0], replies[2], replies[3]] {
        assert!(r.starts_with("{\"ok\":true"), "{r}");
    }
}
