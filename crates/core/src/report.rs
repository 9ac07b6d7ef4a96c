//! The unified reporting surface: everything an epoch solve tells the
//! outside world, under one roof with one stable serde schema.
//!
//! This module re-exports the in-memory report types
//! ([`SolveReport`], which `lp_build::solve_master` and
//! `lp_build::solve_full` both return, [`PhaseTimings`], [`ColGenStats`],
//! [`EpochOutcome`]) and defines the one on-disk/on-wire schema
//! ([`EpochRecord`], [`RunSummary`]) shared by `lp_bench`, the scaling
//! series, and the `lips-serve` metrics endpoint.
//!
//! Fields a solve does not exercise are recorded as their zero values
//! rather than omitted (a full solve has no master: 1 pricing round, 0
//! active and 0 total columns), so every consumer can parse every
//! producer's output.

use serde::{Deserialize, Serialize};

pub use crate::lips::EpochOutcome;
pub use crate::lp_build::{ColGenStats, EpochSolveError, PhaseTimings, SolveReport};
pub use lips_lp::{DeclinedBasis, SolveStats, WarmOutcome};

/// One epoch solve, flattened to the stable serde schema.
///
/// This is the record `lp_bench` writes per epoch, the scaling series
/// embeds per point, and the daemon's metrics endpoint aggregates — the
/// same field names everywhere.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index within the run.
    pub epoch: usize,
    /// Jobs the epoch LP saw.
    pub jobs: usize,
    /// Ladder rung that produced the decision: `"Certified"` (the colgen
    /// master), `"CertifiedCold"`, or `"Degraded"` (see [`EpochOutcome`]).
    pub outcome: String,
    /// How the simplex started: `"Cold"` or `"Dual"` (see
    /// [`WarmOutcome`]).
    pub warm: String,
    /// Total simplex pivots (both phases, all master rounds).
    pub iterations: usize,
    /// Pivots spent in phase 1.
    pub phase1_iterations: usize,
    /// Basis refactorizations attempted, the failed ones included.
    pub refactors: usize,
    /// The attempts among `refactors` that found the basis singular
    /// ([`lips_lp::SolveStats::singular_refactors`]).
    #[serde(default)]
    pub singular_refactors: usize,
    /// Nonzeros produced by the entering-column FTRANs — the honest
    /// measure of linear algebra done, independent of wall clock.
    pub ftran_nnz: u64,
    /// Nonzeros of the pivot rows' `ρ_r`, the BTRAN density
    /// ([`lips_lp::SolveStats::btran_nnz`]).
    #[serde(default)]
    pub btran_nnz: u64,
    /// Eta-file entries the BTRANs read
    /// ([`lips_lp::SolveStats::eta_reads`]).
    #[serde(default)]
    pub eta_reads: u64,
    /// Dual-simplex pivots (also counted in `iterations`).
    pub dual_pivots: usize,
    /// Nonbasic bound flips by the dual solver (not counted in
    /// `iterations`).
    pub bound_flips: usize,
    /// Restricted-master solve/price rounds (1 for full solves).
    pub pricing_rounds: usize,
    /// Task columns of the final master (0 for full solves).
    pub active_columns: usize,
    /// Task columns of the full model (0 for full solves, which do not
    /// count them).
    pub total_columns: usize,
    /// Always 0: epoch presolve was deleted. Kept so existing readers of
    /// the schema still find the field.
    pub presolve_removed: usize,
    /// Model-construction wall-time (candidate enumeration, build,
    /// pricing, appends), from [`PhaseTimings`].
    pub build_ms: f64,
    /// Simplex wall-time, from [`PhaseTimings`].
    pub solve_ms: f64,
    /// The part of `solve_ms` spent before pivoting, summed over the
    /// epoch's solves ([`lips_lp::SolveStats::setup_ms`]): validation,
    /// lowering, key matching and a seeded, factorized basis per opened
    /// solve, the column insertion per resumed master round.
    #[serde(default)]
    pub setup_ms: f64,
    /// The part of `solve_ms` spent factorizing bases, summed over the
    /// epoch's solves ([`lips_lp::SolveStats::factor_ms`]).
    #[serde(default)]
    pub factor_ms: f64,
    /// Independent KKT-certification wall-time, from [`PhaseTimings`].
    pub certify_ms: f64,
    /// Wall-time of the whole epoch call: [`crate::LipsScheduler`] times
    /// its whole degradation ladder (failed rungs, decode and the carry
    /// included) and the benches time their own calls;
    /// [`EpochRecord::from_solve_report`] alone fills in the phase sum.
    pub epoch_ms: f64,
    /// LP objective (dollars, fake-node share included).
    pub objective: f64,
    /// Whether the decision carries an independent KKT certificate.
    pub certified: bool,
    /// Whether the solve *re-used carried state* (prior basis or master
    /// columns) instead of building cold — the daemon's
    /// incremental-re-solve criterion.
    pub incremental: bool,
    /// Why the dual simplex declined the carried basis this epoch:
    /// `"UnderFull"`, `"Singular"`, or `"Thrash"` (see
    /// [`lips_lp::DualDecline`]); empty when nothing was declined.
    #[serde(default)]
    pub declined: String,
    /// Pivots the declined attempt spent before declining (0 when it was
    /// declined at seeding).
    #[serde(default)]
    pub declined_pivots: usize,
    /// Every ladder rung that failed before this epoch's decision, in
    /// ladder order, each as `"<rung>: <error>"` (`"master"`, `"master,
    /// floors relaxed"`, `"cold"`); empty when the first rung served.
    #[serde(default)]
    pub failed_rungs: Vec<String>,
}

impl EpochRecord {
    /// Flatten one [`SolveReport`] into the stable schema.
    ///
    /// `incremental` is the caller's claim that carried state existed
    /// going in; it is ANDed with the solver's own account (a carried
    /// basis that could not be salvaged reports `Cold` and is not
    /// incremental, except in restricted modes where carried *columns*
    /// still seed the master).
    pub fn from_solve_report(
        epoch: usize,
        jobs: usize,
        outcome: EpochOutcome,
        report: &SolveReport,
        incremental: bool,
    ) -> Self {
        let stats = report.schedule.stats;
        let (pricing_rounds, active_columns, total_columns) = match &report.master {
            Some((_, cg)) => (cg.rounds, cg.active_columns, cg.total_columns),
            None => (1, 0, 0),
        };
        let timings = report.timings;
        EpochRecord {
            epoch,
            jobs,
            outcome: outcome.as_str().to_string(),
            warm: warm_label(stats.warm).to_string(),
            iterations: stats.iterations,
            phase1_iterations: stats.phase1_iterations,
            refactors: stats.refactors,
            singular_refactors: stats.singular_refactors,
            ftran_nnz: stats.ftran_nnz,
            btran_nnz: stats.btran_nnz,
            eta_reads: stats.eta_reads,
            dual_pivots: stats.dual_pivots,
            bound_flips: stats.bound_flips,
            pricing_rounds,
            active_columns,
            total_columns,
            presolve_removed: 0,
            build_ms: timings.build_ms,
            solve_ms: timings.solve_ms,
            setup_ms: stats.setup_ms,
            factor_ms: stats.factor_ms,
            certify_ms: timings.certify_ms,
            epoch_ms: timings.build_ms + timings.solve_ms + timings.certify_ms,
            objective: report.schedule.lp_objective,
            certified: outcome != EpochOutcome::Degraded,
            incremental,
            declined: String::new(),
            declined_pivots: 0,
            failed_rungs: Vec::new(),
        }
        .with_declined(stats.declined)
    }

    /// Record a carried basis the dual simplex declined this epoch.
    pub fn with_declined(mut self, declined: Option<DeclinedBasis>) -> Self {
        if let Some(d) = declined {
            self.declined = d.reason.as_str().to_string();
            self.declined_pivots = d.pivots;
        }
        self
    }

    /// A record for an epoch every LP rung failed on (the greedy rung):
    /// zeros everywhere, `certified: false`.
    pub fn degraded(epoch: usize, jobs: usize) -> Self {
        EpochRecord {
            epoch,
            jobs,
            outcome: EpochOutcome::Degraded.as_str().to_string(),
            warm: warm_label(WarmOutcome::Cold).to_string(),
            iterations: 0,
            phase1_iterations: 0,
            refactors: 0,
            singular_refactors: 0,
            ftran_nnz: 0,
            btran_nnz: 0,
            eta_reads: 0,
            dual_pivots: 0,
            bound_flips: 0,
            pricing_rounds: 0,
            active_columns: 0,
            total_columns: 0,
            presolve_removed: 0,
            build_ms: 0.0,
            solve_ms: 0.0,
            setup_ms: 0.0,
            factor_ms: 0.0,
            certify_ms: 0.0,
            epoch_ms: 0.0,
            objective: 0.0,
            certified: false,
            incremental: false,
            declined: String::new(),
            declined_pivots: 0,
            failed_rungs: Vec::new(),
        }
    }
}

/// The solver-facing spelling of a [`WarmOutcome`], stable across the
/// schema (`"Cold"` / `"Dual"`).
pub fn warm_label(warm: WarmOutcome) -> &'static str {
    match warm {
        WarmOutcome::Cold => "Cold",
        WarmOutcome::Dual => "Dual",
    }
}

/// Aggregates over a run's [`EpochRecord`]s — what the daemon's metrics
/// endpoint reports and what the benches summarize.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Epochs recorded.
    pub epochs: usize,
    /// Epochs carrying an independent KKT certificate.
    pub certified_epochs: usize,
    /// `certified_epochs / epochs` (1.0 for an empty run).
    pub certified_share: f64,
    /// Epochs solved by the colgen master (`"Certified"`). Reads the
    /// field's former name too, so older summaries still parse.
    #[serde(alias = "primal_epochs")]
    pub master_epochs: usize,
    /// Epochs rescued by the cold retry (`"CertifiedCold"`).
    pub cold_retry_epochs: usize,
    /// Epochs served greedily (`"Degraded"`).
    pub degraded_epochs: usize,
    /// Epochs that re-used carried state instead of building cold.
    pub incremental_epochs: usize,
    /// `incremental_epochs / epochs` (0.0 for an empty run).
    pub incremental_share: f64,
    /// Total simplex pivots across the run.
    pub iterations: usize,
    /// Median simplex wall-time per epoch (ms; 0.0 with the solver clock
    /// disabled).
    pub p50_solve_ms: f64,
    /// 99th-percentile simplex wall-time per epoch (ms).
    pub p99_solve_ms: f64,
    /// Median whole-epoch wall-time (ms).
    pub p50_epoch_ms: f64,
    /// 99th-percentile whole-epoch wall-time (ms).
    pub p99_epoch_ms: f64,
}

impl RunSummary {
    /// Aggregate a run's records.
    pub fn from_records(records: &[EpochRecord]) -> Self {
        let n = records.len();
        let count = |label: &str| records.iter().filter(|r| r.outcome == label).count();
        let certified_epochs = records.iter().filter(|r| r.certified).count();
        let incremental_epochs = records.iter().filter(|r| r.incremental).count();
        let solve: Vec<f64> = records.iter().map(|r| r.solve_ms).collect();
        let epoch: Vec<f64> = records.iter().map(|r| r.epoch_ms).collect();
        RunSummary {
            epochs: n,
            certified_epochs,
            certified_share: if n == 0 {
                1.0
            } else {
                certified_epochs as f64 / n as f64
            },
            master_epochs: count(EpochOutcome::Certified.as_str()),
            cold_retry_epochs: count(EpochOutcome::CertifiedCold.as_str()),
            degraded_epochs: count(EpochOutcome::Degraded.as_str()),
            incremental_epochs,
            incremental_share: if n == 0 {
                0.0
            } else {
                incremental_epochs as f64 / n as f64
            },
            iterations: records.iter().map(|r| r.iterations).sum(),
            p50_solve_ms: quantile(&solve, 0.50),
            p99_solve_ms: quantile(&solve, 0.99),
            p50_epoch_ms: quantile(&epoch, 0.50),
            p99_epoch_ms: quantile(&epoch, 0.99),
        }
    }
}

/// Empirical quantile by the nearest-rank method (`q` clamped to
/// `[0, 1]`; `0.0` for an empty sample). Deterministic: ties broken by
/// total order, NaNs sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(outcome: EpochOutcome, solve_ms: f64, incremental: bool) -> EpochRecord {
        let mut r = EpochRecord::degraded(0, 1);
        r.outcome = outcome.as_str().to_string();
        r.certified = outcome != EpochOutcome::Degraded;
        r.solve_ms = solve_ms;
        r.epoch_ms = solve_ms;
        r.incremental = incremental;
        r
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_counts_outcomes_and_shares() {
        let records = vec![
            rec(EpochOutcome::Certified, 1.0, true),
            rec(EpochOutcome::Certified, 2.0, true),
            rec(EpochOutcome::Certified, 3.0, false),
            rec(EpochOutcome::CertifiedCold, 4.0, false),
            rec(EpochOutcome::Degraded, 0.0, false),
        ];
        let s = RunSummary::from_records(&records);
        assert_eq!(s.epochs, 5);
        assert_eq!(s.certified_epochs, 4);
        assert_eq!(s.master_epochs, 3);
        assert_eq!(s.cold_retry_epochs, 1);
        assert_eq!(s.degraded_epochs, 1);
        assert_eq!(s.incremental_epochs, 2);
        assert!((s.incremental_share - 0.4).abs() < 1e-12);
        assert_eq!(s.p50_solve_ms, 2.0);
        assert_eq!(s.p99_solve_ms, 4.0);
        // Summaries written under the field's former name still parse.
        let json = serde_json::to_string(&s).unwrap();
        let old = json.replace("\"master_epochs\"", "\"primal_epochs\"");
        assert!(old.contains("\"primal_epochs\":3"), "{old}");
        let back: RunSummary = serde_json::from_str(&old).unwrap();
        assert_eq!(back.master_epochs, 3);
    }

    #[test]
    fn empty_run_summary_is_vacuously_certified() {
        let s = RunSummary::from_records(&[]);
        assert_eq!(s.epochs, 0);
        assert_eq!(s.certified_share, 1.0);
        assert_eq!(s.incremental_share, 0.0);
    }

    #[test]
    fn record_serializes_with_stable_field_names() {
        let json = serde_json::to_string(&EpochRecord::degraded(3, 7)).unwrap();
        for key in [
            "\"epoch\"",
            "\"jobs\"",
            "\"outcome\"",
            "\"warm\"",
            "\"iterations\"",
            "\"pricing_rounds\"",
            "\"solve_ms\"",
            "\"objective\"",
            "\"certified\"",
            "\"incremental\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = EpochRecord::degraded(9, 4);
        r.objective = 1.25;
        r.iterations = 17;
        r.certified = true;
        let json = serde_json::to_string(&r).unwrap();
        let back: EpochRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.epoch, 9);
        assert_eq!(back.declined, "");
        assert_eq!(back.jobs, 4);
        assert_eq!(back.iterations, 17);
        assert!(back.certified);
        assert_eq!(back.objective, 1.25);
    }

    #[test]
    fn declined_attempt_is_recorded_and_optional_on_the_wire() {
        let r = EpochRecord::degraded(2, 3).with_declined(Some(DeclinedBasis {
            reason: lips_lp::DualDecline::Thrash,
            pivots: 41,
        }));
        assert_eq!(r.declined, "Thrash");
        assert_eq!(r.declined_pivots, 41);
        let json = serde_json::to_string(&r).unwrap();
        let back: EpochRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(
            (back.declined.as_str(), back.declined_pivots),
            ("Thrash", 41)
        );
        // Records written before the fields existed still parse.
        let old = json
            .replace(",\"declined\":\"Thrash\"", "")
            .replace(",\"declined_pivots\":41", "");
        assert!(!old.contains("declined"), "{old}");
        let back: EpochRecord = serde_json::from_str(&old).unwrap();
        assert_eq!((back.declined.as_str(), back.declined_pivots), ("", 0));
    }

    #[test]
    fn failed_rungs_round_trip_and_are_optional_on_the_wire() {
        let mut r = EpochRecord::degraded(2, 3);
        r.failed_rungs = vec![
            "master: LP solve failed: linear program is infeasible".to_string(),
            "cold: LP solve failed: linear program is infeasible".to_string(),
        ];
        let json = serde_json::to_string(&r).unwrap();
        let back: EpochRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.failed_rungs, r.failed_rungs);
        // Records written before the field existed still parse.
        let cut = json.find(",\"failed_rungs\"").unwrap();
        let old = format!("{}}}", &json[..cut]);
        let back: EpochRecord = serde_json::from_str(&old).unwrap();
        assert!(back.failed_rungs.is_empty());
    }

    #[test]
    fn records_with_removed_shard_fields_still_parse() {
        // Records written while the sharded solve mode existed carry three
        // fields the schema no longer has; the committed BENCH files hold
        // such records.
        let json = serde_json::to_string(&EpochRecord::degraded(5, 2)).unwrap();
        let old = json.replacen(
            "\"presolve_removed\"",
            "\"shards\":3,\"shard_failures\":1,\"subproblem_ms\":12.5,\"presolve_removed\"",
            1,
        );
        assert!(old.contains("\"subproblem_ms\":12.5"), "{old}");
        let back: EpochRecord = serde_json::from_str(&old).unwrap();
        assert_eq!((back.epoch, back.jobs), (5, 2));
        assert_eq!(back.outcome, "Degraded");
    }
}
