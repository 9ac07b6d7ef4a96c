//! The `--audit` flag shared by the reproduction binaries.
//!
//! When present, the binary first lints and *certifies* the paper's three
//! LP families (Fig 2 immobile-data, Fig 3 co-scheduling, Fig 4 online
//! epoch) on the same 20-node testbed the experiments run on, across all
//! three node-mix settings. Any lint error or failed optimality
//! certificate aborts the run — numbers produced from an uncertified
//! model never reach the tables.

use lips_audit::Severity;
use lips_cluster::ec2_20_node;
use lips_core::lp_build::{audit_instance, solve_full, LpInstance, PruneConfig};
use lips_core::offline::lp_jobs_from_specs;
use lips_sim::Placement;
use lips_workload::{bind_workload, table_iv_suite, PlacementPolicy};

/// True when `--audit` was passed on the command line.
pub fn requested() -> bool {
    std::env::args().any(|a| a == "--audit")
}

/// Run the audit if `--audit` was passed; panics on any failure so a
/// broken model can never produce a quietly-wrong figure.
pub fn maybe_audit(epoch: f64) {
    if requested() {
        run(epoch);
    }
}

/// Lint + certify the Fig 2/3/4 models on the 20-node testbed.
pub fn run(epoch: f64) {
    println!("-- audit: linting and certifying Fig 2/3/4 LPs on the 20-node testbed --");
    for (label, c1_fraction) in [
        ("(i) 0%c1", 0.0),
        ("(ii) 25%c1", 0.25),
        ("(iii) 50%c1", 0.5),
    ] {
        let mut cluster = ec2_20_node(c1_fraction, 3600.0);
        let jobs = table_iv_suite();
        let bound = bind_workload(&mut cluster, jobs, PlacementPolicy::RandomUniform, 2013);
        let placement = Placement::from_cluster(&cluster);
        let lp_jobs = lp_jobs_from_specs(&bound.jobs, &placement);

        let fig2 = LpInstance {
            cluster: &cluster,
            jobs: lp_jobs,
            duration: 3600.0,
            fake_cost: None,
            allow_moves: false,
            enforce_transfer_time: false,
            store_free_mb: vec![],
            pool_floors: vec![],
            prune: PruneConfig::default(),
        };
        let fig3 = LpInstance {
            allow_moves: true,
            ..fig2.clone()
        };
        let fig4 = LpInstance {
            duration: epoch,
            fake_cost: Some(1.0),
            enforce_transfer_time: true,
            ..fig3.clone()
        };

        for (family, inst) in [("fig2", &fig2), ("fig3", &fig3), ("fig4", &fig4)] {
            let lints = audit_instance(inst);
            let errors: Vec<_> = lints
                .iter()
                .filter(|l| l.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "audit {family} {label}: {errors:?}");
            let cert = solve_full(inst, None)
                .unwrap_or_else(|e| panic!("audit {family} {label}: solve failed: {e}"))
                .certificate;
            assert!(cert.is_optimal(), "audit {family} {label}: {cert}");
            println!(
                "   {family} {label}: {} warnings, gap {:.2e} -> OPTIMAL",
                lints.len(),
                cert.master.duality_gap
            );
        }
    }
    println!("-- audit passed --\n");
}
