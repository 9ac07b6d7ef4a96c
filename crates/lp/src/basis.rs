//! Warm-start basis descriptions.
//!
//! The LiPS epoch loop re-solves a structurally near-identical LP every
//! epoch: the same machines, stores, and capacity rows, with a few job
//! columns added or removed and costs drifting as transfers complete. A
//! [`WarmStart`] captures the basis of an optimal solution in a form that
//! survives those edits: statuses are keyed by *variable name* and *row
//! name*, not by position, so the next model can reuse whatever part of the
//! basis still exists and the solver repairs or cold-starts the rest.

use std::collections::BTreeMap;

/// Simplex status of one variable (or of a row's slack) in a basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable (rests at zero).
    Free,
}

/// How a solve actually started (reported in
/// [`crate::solution::SolveStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmOutcome {
    /// From scratch: no warm start given, or the given basis could not be
    /// salvaged (singular after repair, wrong shape). The primal solver
    /// runs phase 1 from its crash basis; the dual solver starts from the
    /// slack basis and needs no phase 1.
    #[default]
    Cold,
    /// The warm basis was primal feasible as-is; phase 1 was skipped
    /// entirely.
    Warm,
    /// The warm basis needed repair (some basics violated their bounds
    /// after model edits); a short phase 1 over the repair artificials ran
    /// before phase 2.
    WarmRepaired,
    /// The bounded dual simplex re-optimized the *carried* warm basis
    /// directly — no phase 1, no artificials (see
    /// [`crate::dual::solve_dual_from_basis`]). A dual solve that started
    /// from the slack basis reports [`WarmOutcome::Cold`].
    Dual,
}

/// Why the bounded dual simplex declined a carried basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualDecline {
    /// Fewer than half the rows kept a carried basic: the slack-completed
    /// basis would be mostly guessed slacks.
    UnderFull,
    /// The carried basis did not factorize even after the rank sweep, or
    /// a pivot went singular during the walk.
    Singular,
    /// The walk over cost-shifted columns churned bound flips instead of
    /// converging (or its restricted ratio test ran dry).
    Thrash,
}

impl DualDecline {
    /// The stable schema spelling: `"UnderFull"`, `"Singular"`, `"Thrash"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DualDecline::UnderFull => "UnderFull",
            DualDecline::Singular => "Singular",
            DualDecline::Thrash => "Thrash",
        }
    }
}

/// A carried basis the dual simplex declined, with the pivots it spent on
/// the basis before declining (0 when declined at seeding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeclinedBasis {
    pub reason: DualDecline,
    pub pivots: usize,
}

/// A basis snapshot keyed by names, suitable for seeding a later solve of
/// the same or a perturbed model.
///
/// Produced by [`crate::solution::Solution::warm_start`] after every
/// revised-simplex solve; consumed by
/// [`crate::revised::RevisedSimplex::solve_with_warm_start`] or
/// [`crate::model::Model::solve_warm`]. Rows without an explicit name (see
/// [`crate::model::Model::name_constraint`]) are keyed positionally as
/// `"#<index>"`, which still round-trips when the constraint list does not
/// change shape.
///
/// Name collisions degrade gracefully: the status of the last variable with
/// a given name wins, and any resulting over- or under-full basis is
/// trimmed / completed with slacks before factorization (with a cold solve
/// as the final fallback), so a warm start can never change the optimum —
/// only the path to it.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    vars: BTreeMap<String, BasisStatus>,
    rows: BTreeMap<String, BasisStatus>,
}

impl WarmStart {
    /// An empty warm start (equivalent to passing `None`).
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// True if no statuses are recorded.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.rows.is_empty()
    }

    /// Number of recorded statuses (variables + rows).
    pub fn len(&self) -> usize {
        self.vars.len() + self.rows.len()
    }

    /// Record the status of a variable by name.
    pub fn set_var(&mut self, name: impl Into<String>, status: BasisStatus) {
        self.vars.insert(name.into(), status);
    }

    /// Record the status of a row's slack by row name.
    pub fn set_row(&mut self, name: impl Into<String>, status: BasisStatus) {
        self.rows.insert(name.into(), status);
    }

    /// Look up a variable status by name.
    pub fn var(&self, name: &str) -> Option<BasisStatus> {
        self.vars.get(name).copied()
    }

    /// Look up a row-slack status by row name.
    pub fn row(&self, name: &str) -> Option<BasisStatus> {
        self.rows.get(name).copied()
    }

    /// Keep only the variable statuses whose name satisfies `keep`.
    ///
    /// Used when the model the basis was taken from loses structure — e.g.
    /// a machine is revoked and every column touching it vanishes. Feeding
    /// the stale names to the repair loop would seed garbage; dropping them
    /// up front leaves a smaller but honest basis the solver completes with
    /// slacks.
    pub fn retain_vars(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.vars.retain(|name, _| keep(name));
    }

    /// Keep only the row statuses whose name satisfies `keep`.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.rows.retain(|name, _| keep(name));
    }

    /// Number of variables and rows recorded as [`BasisStatus::Basic`].
    pub fn num_basic(&self) -> usize {
        self.vars
            .values()
            .chain(self.rows.values())
            .filter(|&&s| s == BasisStatus::Basic)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_counts() {
        let mut ws = WarmStart::new();
        assert!(ws.is_empty());
        ws.set_var("x", BasisStatus::Basic);
        ws.set_var("y", BasisStatus::AtUpper);
        ws.set_row("cap", BasisStatus::Basic);
        ws.set_row("#1", BasisStatus::AtLower);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws.num_basic(), 2);
        assert_eq!(ws.var("x"), Some(BasisStatus::Basic));
        assert_eq!(ws.var("z"), None);
        assert_eq!(ws.row("cap"), Some(BasisStatus::Basic));
        // Re-setting a name overwrites.
        ws.set_var("x", BasisStatus::Free);
        assert_eq!(ws.var("x"), Some(BasisStatus::Free));
        assert_eq!(ws.len(), 4);
    }

    #[test]
    fn retain_drops_only_rejected_names() {
        let mut ws = WarmStart::new();
        ws.set_var("xt_0_1", BasisStatus::Basic);
        ws.set_var("xt_0_2", BasisStatus::AtLower);
        ws.set_row("cpu_1", BasisStatus::Basic);
        ws.set_row("cpu_2", BasisStatus::AtLower);
        ws.retain_vars(|name| !name.ends_with("_1"));
        ws.retain_rows(|name| !name.ends_with("_1"));
        assert_eq!(ws.var("xt_0_1"), None);
        assert_eq!(ws.var("xt_0_2"), Some(BasisStatus::AtLower));
        assert_eq!(ws.row("cpu_1"), None);
        assert_eq!(ws.row("cpu_2"), Some(BasisStatus::AtLower));
        assert_eq!(ws.len(), 2);
    }
}
