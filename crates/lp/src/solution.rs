//! Solver output: status, primal values, objective, and (when available)
//! dual values, solve statistics, and a reusable warm-start basis.

use crate::basis::{DeclinedBasis, WarmOutcome, WarmStart};
use crate::model::VarId;

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
}

/// Work counters for one solve, for benchmarking and tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Total simplex pivots (both phases).
    pub iterations: usize,
    /// Pivots spent in phase 1 (always zero for the dual solver, which
    /// needs none).
    pub phase1_iterations: usize,
    /// Basis refactorizations attempted, the failed ones included.
    pub refactors: usize,
    /// The attempts among `refactors` that found the basis singular and
    /// factorized nothing (a carried basis declined at seeding, a rank
    /// sweep's first try).
    pub singular_refactors: usize,
    /// Nonzeros produced by the entering-column FTRANs, summed over all
    /// pivots — the honest measure of how much linear algebra the solve
    /// did, independent of wall clock.
    pub ftran_nnz: u64,
    /// Nonzeros of the pivot rows' `ρ_r = B⁻ᵀe_r`, summed over all basis
    /// changes: the density of the BTRANs, which a dense/hypersparse
    /// switch keys on.
    pub btran_nnz: u64,
    /// Eta-file entries read by the BTRANs, summed over the solve: BTRAN
    /// applies only the etas its vector reaches, so this is the work of
    /// its eta pass.
    pub eta_reads: u64,
    /// How the solve started (cold, or dual from a carried basis).
    pub warm: WarmOutcome,
    /// Wall-clock time of the simplex itself (validation and lowering
    /// through the final pivot), excluding model construction and any
    /// later certification.
    pub solve_ms: f64,
    /// The part of `solve_ms` spent before the first pivot: validation,
    /// lowering, key matching and a seeded, factorized basis when a
    /// solve opens, the column insertion when a [`crate::Session`]
    /// resumes. Summed over a session's rounds. `0.0` when the solver
    /// clock is disabled ([`crate::clock::set_enabled`]).
    pub setup_ms: f64,
    /// The part of `solve_ms` spent inside the basis factorization
    /// ([`crate::slu::SparseLu::factorize`]), summed over every
    /// refactorization of the solve (a session's rounds included). `0.0`
    /// when the solver clock is disabled.
    pub factor_ms: f64,
    /// Dual-simplex pivots performed (0 for primal solves). Dual pivots
    /// are also counted in `iterations`.
    pub dual_pivots: usize,
    /// Nonbasic bound flips performed by the dual solver — both the
    /// dual-feasibility-restoring flips at initialization and the
    /// long-step flips inside the dual ratio test. Flips are not pivots
    /// and are not counted in `iterations`.
    pub bound_flips: usize,
    /// A carried basis the dual solver declined before this solve: at
    /// seeding (the dual solve then restarted from the slack basis on the
    /// same model) or mid-walk (a later ladder rung then solved it).
    pub declined: Option<DeclinedBasis>,
}

/// Result of a successful solve.
///
/// Infeasibility, unboundedness, and iteration exhaustion are reported as
/// [`crate::LpError`] variants instead of statuses, so a `Solution` always
/// carries a usable optimal point.
#[derive(Debug, Clone)]
pub struct Solution {
    status: Status,
    objective: f64,
    values: Vec<f64>,
    duals: Vec<f64>,
    iterations: usize,
    stats: SolveStats,
    warm_start: Option<WarmStart>,
}

impl Solution {
    pub(crate) fn new(
        objective: f64,
        values: Vec<f64>,
        duals: Vec<f64>,
        iterations: usize,
    ) -> Self {
        Solution {
            status: Status::Optimal,
            objective,
            values,
            duals,
            iterations,
            stats: SolveStats {
                iterations,
                ..SolveStats::default()
            },
            warm_start: None,
        }
    }

    pub(crate) fn with_stats(mut self, stats: SolveStats) -> Self {
        self.stats = stats;
        self
    }

    pub(crate) fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = Some(warm);
        self
    }

    /// Assemble a solution from raw parts.
    ///
    /// Exists for verification tooling (`lips-audit`) and tests that need
    /// to feed hand-built — possibly deliberately wrong — solutions to an
    /// independent checker; solvers use the crate-private constructor.
    pub fn from_parts(
        objective: f64,
        values: Vec<f64>,
        duals: Vec<f64>,
        iterations: usize,
    ) -> Self {
        Solution::new(objective, values, duals, iterations)
    }

    /// Termination status (always [`Status::Optimal`] for a returned value).
    pub fn status(&self) -> Status {
        self.status
    }

    /// Optimal objective value in the *original* model sense (a maximization
    /// model reports the maximum, not the negated internal minimum).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Primal values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Primal value of one variable.
    pub fn value_of(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Dual values (simplex multipliers `y`), one per constraint, in the
    /// internal minimization sense. Diagnostic only.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Number of simplex pivots performed (both phases).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Work counters for this solve.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The optimal basis, keyed by variable and row keys, for seeding the next solve of the
    /// same or a perturbed model. `None` for solutions not produced by the
    /// revised simplex (the dense oracle, hand-built solutions).
    pub fn warm_start(&self) -> Option<&WarmStart> {
        self.warm_start.as_ref()
    }

    /// Move the basis out of the solution (see [`Solution::warm_start`]),
    /// for a caller that chains it into the next solve and needs no copy.
    pub fn take_warm_start(&mut self) -> Option<WarmStart> {
        self.warm_start.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{name_key, BasisStatus};

    #[test]
    fn accessors_roundtrip() {
        let s = Solution::new(1.5, vec![0.5, 1.0], vec![2.0], 7);
        assert_eq!(s.status(), Status::Optimal);
        assert_eq!(s.objective(), 1.5);
        assert_eq!(s.values(), &[0.5, 1.0]);
        assert_eq!(s.value_of(VarId(1)), 1.0);
        assert_eq!(s.duals(), &[2.0]);
        assert_eq!(s.iterations(), 7);
        assert_eq!(s.stats().iterations, 7);
        assert_eq!(s.stats().warm, WarmOutcome::Cold);
        assert!(s.warm_start().is_none());
    }

    #[test]
    fn stats_and_warm_start_attach() {
        let mut ws = WarmStart::new();
        ws.set_var(name_key("x"), BasisStatus::Basic);
        let s = Solution::new(0.0, vec![], vec![], 3)
            .with_stats(SolveStats {
                iterations: 3,
                phase1_iterations: 1,
                refactors: 2,
                ftran_nnz: 42,
                warm: WarmOutcome::Dual,
                ..SolveStats::default()
            })
            .with_warm_start(ws);
        assert_eq!(s.stats().phase1_iterations, 1);
        assert_eq!(s.stats().ftran_nnz, 42);
        assert_eq!(s.stats().warm, WarmOutcome::Dual);
        assert_eq!(
            s.warm_start().unwrap().var(name_key("x")),
            Some(BasisStatus::Basic)
        );
    }
}
