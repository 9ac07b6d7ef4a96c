//! Workload-generator property tests: every generator must produce
//! structurally sound, seed-deterministic workloads whose aggregates match
//! their configuration.

use lips_cluster::BLOCK_MB;
use lips_workload::{
    random_workload, swim_trace, JobDag, JobId, JobKind, JobSpec, RandomWorkloadCfg, SwimCfg,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn swim_traces_are_sound(
        jobs in 1usize..300,
        hours in 1usize..30,
        seed in 0u64..10_000,
    ) {
        let cfg = SwimCfg { jobs, hours, ..Default::default() };
        let trace = swim_trace(&cfg, seed);
        prop_assert_eq!(trace.len(), jobs);
        let horizon = hours as f64 * cfg.bucket_s;
        for (i, j) in trace.iter().enumerate() {
            prop_assert_eq!(j.id, JobId(i));
            prop_assert!(j.arrival_s >= 0.0 && j.arrival_s < horizon);
            prop_assert!(j.tasks >= 1);
            if j.kind == JobKind::Pi {
                prop_assert_eq!(j.input_mb, 0.0);
            } else {
                // Data jobs are block-granular.
                let blocks = j.input_mb / BLOCK_MB;
                prop_assert!((blocks - blocks.round()).abs() < 1e-9);
                prop_assert!(j.total_ecu_sec() > 0.0);
            }
        }
        // Sorted by arrival.
        for w in trace.windows(2) {
            prop_assert!(w[0].arrival_s <= w[1].arrival_s);
        }
    }

    #[test]
    fn random_workloads_respect_configured_ranges(
        jobs in 1usize..60,
        lo_mb in 64.0f64..512.0,
        hi_extra in 0.0f64..4096.0,
        seed in 0u64..10_000,
    ) {
        let cfg = RandomWorkloadCfg {
            jobs,
            input_mb: (lo_mb, lo_mb + hi_extra),
            cpu_ecu_sec: (5.0, 500.0),
        };
        let w = random_workload(&cfg, seed);
        prop_assert_eq!(w.len(), jobs);
        for j in &w {
            prop_assert!(j.input_mb >= lo_mb - 1e-9);
            prop_assert!(j.input_mb <= lo_mb + hi_extra + 1e-9);
            let cpu = j.total_ecu_sec();
            prop_assert!((5.0 - 1e-9..=500.0 + 1e-9).contains(&cpu));
        }
    }

    #[test]
    fn dag_levels_respect_every_edge(
        n in 1usize..20,
        edge_seeds in prop::collection::vec((0usize..20, 0usize..20), 0..30),
    ) {
        // Build only forward edges (a < b) so the graph is a DAG by
        // construction; leveling must then place a strictly before b.
        let jobs: Vec<JobSpec> =
            (0..n).map(|i| JobSpec::new(i, format!("j{i}"), JobKind::Grep, 64.0, 1)).collect();
        let edges: Vec<(JobId, JobId)> = edge_seeds
            .into_iter()
            .filter_map(|(a, b)| {
                let (a, b) = (a % n, b % n);
                (a < b).then_some((JobId(a), JobId(b)))
            })
            .collect();
        let dag = JobDag::new(jobs, edges.clone()).unwrap();
        let levels = dag.levels().unwrap();
        let level_of: std::collections::BTreeMap<JobId, usize> = levels
            .iter()
            .enumerate()
            .flat_map(|(li, level)| level.iter().map(move |&j| (j, li)))
            .collect();
        // Every job appears exactly once.
        prop_assert_eq!(level_of.len(), n);
        for (a, b) in edges {
            prop_assert!(level_of[&a] < level_of[&b], "{a:?} !< {b:?}");
        }
    }

    #[test]
    fn fractional_reads_scale_linearly(frac in 0.01f64..1.0) {
        let full = JobSpec::new(0, "g", JobKind::WordCount, 4096.0, 64);
        let part = JobSpec::new(0, "g", JobKind::WordCount, 4096.0, 64).reading_fraction(frac);
        prop_assert!((part.effective_input_mb() - full.input_mb * frac).abs() < 1e-9);
        prop_assert!((part.total_ecu_sec() - full.total_ecu_sec() * frac).abs() < 1e-6);
    }
}
