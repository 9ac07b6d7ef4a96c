//! Model lint pass: structural diagnostics over a [`Model`] that the solver
//! itself would either tolerate silently (duplicate terms, unused columns,
//! bad scaling) or only discover the expensive way (bound-infeasible rows,
//! unbounded cost directions).

use std::collections::BTreeMap;

use lips_lp::{Cmp, Model, Sense};

/// Coefficient-magnitude spread beyond which a row is flagged as badly
/// scaled (condition risk for the LU factorization).
pub const SCALING_SPREAD_LIMIT: f64 = 1e8;

/// Agreement tolerance when comparing two `Eq` rows' right-hand sides.
const EQ_RHS_TOL: f64 = 1e-9;

/// Which lint fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A constraint row has no terms, or every coefficient is exactly zero.
    EmptyRow,
    /// A variable appears in no constraint row.
    UnusedVariable,
    /// The same variable appears more than once in one row (the solver sums
    /// duplicates, which is almost always a builder bug).
    DuplicateTerm,
    /// Two `Eq` rows have identical coefficient vectors but different
    /// right-hand sides — the model is infeasible by construction.
    ConflictingEq,
    /// A row no point in the variables' boxes can satisfy (interval
    /// arithmetic on the bounds alone).
    BoundInfeasibleRow,
    /// A variable's cost improves without limit toward an infinite bound —
    /// unboundedness risk unless some constraint caps it.
    UnboundedCost,
    /// Coefficient magnitudes in one row (or the objective) span more than
    /// [`SCALING_SPREAD_LIMIT`].
    BadScaling,
    /// A paper-structure invariant was violated (emitted by the model's
    /// builder, which alone knows its layout — `lips-core`'s
    /// `paper_audit` — never by [`lint`]).
    PaperInvariant,
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but solvable.
    Warning,
    /// The model is broken: infeasible, unbounded, or structurally wrong.
    Error,
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Lint {
    pub rule: Rule,
    pub severity: Severity,
    /// Human-readable anchor: `"row 3"`, `"var xt_0_1_2"`, …
    pub location: String,
    pub detail: String,
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{sev}[{:?}] {}: {}",
            self.rule, self.location, self.detail
        )
    }
}

/// Run every lint rule over `model`, returning findings in row/column order.
pub fn lint(model: &Model) -> Vec<Lint> {
    let mut out = Vec::new();
    empty_rows(model, &mut out);
    unused_variables(model, &mut out);
    duplicate_terms(model, &mut out);
    conflicting_eq_rows(model, &mut out);
    bound_infeasible_rows(model, &mut out);
    unbounded_cost_directions(model, &mut out);
    bad_scaling(model, &mut out);
    out
}

fn row_location(model: &Model, c: lips_lp::ConstraintId) -> String {
    let _ = model;
    format!("row {}", c.index())
}

fn var_location(model: &Model, v: lips_lp::VarId) -> String {
    format!("var {}", model.var_name(v))
}

fn empty_rows(model: &Model, out: &mut Vec<Lint>) {
    for c in model.constraint_ids() {
        let mut any_term = false;
        let mut any_nonzero = false;
        for (_, coef) in model.constraint_terms(c) {
            any_term = true;
            if coef != 0.0 {
                any_nonzero = true;
            }
        }
        if any_nonzero {
            continue;
        }
        // An all-zero lhs is the constant 0; the row is then either vacuous
        // or unsatisfiable depending on cmp/rhs.
        let rhs = model.constraint_rhs(c);
        let satisfied = match model.constraint_cmp(c) {
            Cmp::Le => 0.0 <= rhs,
            Cmp::Ge => 0.0 >= rhs,
            Cmp::Eq => rhs == 0.0,
        };
        let (severity, what) = if satisfied {
            (Severity::Warning, "vacuous")
        } else {
            (Severity::Error, "unsatisfiable")
        };
        let kind = if any_term { "all-zero" } else { "empty" };
        out.push(Lint {
            rule: Rule::EmptyRow,
            severity,
            location: row_location(model, c),
            detail: format!("{kind} row is {what} (lhs is constant 0, rhs {rhs})"),
        });
    }
}

fn unused_variables(model: &Model, out: &mut Vec<Lint>) {
    let mut used = vec![false; model.num_vars()];
    for c in model.constraint_ids() {
        for (v, _) in model.constraint_terms(c) {
            used[v.index()] = true;
        }
    }
    for v in model.var_ids() {
        if !used[v.index()] {
            out.push(Lint {
                rule: Rule::UnusedVariable,
                severity: Severity::Warning,
                location: var_location(model, v),
                detail: "variable appears in no constraint; only its box bounds \
                         and objective coefficient act on it"
                    .into(),
            });
        }
    }
}

fn duplicate_terms(model: &Model, out: &mut Vec<Lint>) {
    for c in model.constraint_ids() {
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        for (v, _) in model.constraint_terms(c) {
            *seen.entry(v.index()).or_insert(0) += 1;
        }
        let mut dups: Vec<(usize, usize)> = seen.into_iter().filter(|&(_, n)| n > 1).collect();
        dups.sort_unstable();
        for (v, n) in dups {
            out.push(Lint {
                rule: Rule::DuplicateTerm,
                severity: Severity::Warning,
                location: row_location(model, c),
                detail: format!(
                    "variable {} appears {n} times in one row; the solver sums \
                     the coefficients",
                    model.var_name(lips_lp::VarId::from_index(v)),
                ),
            });
        }
    }
}

/// Canonical form of a row's lhs: duplicates summed, zeros dropped, sorted
/// by variable index.
fn canonical_terms(model: &Model, c: lips_lp::ConstraintId) -> Vec<(usize, f64)> {
    let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
    for (v, coef) in model.constraint_terms(c) {
        *sums.entry(v.index()).or_insert(0.0) += coef;
    }
    let mut terms: Vec<(usize, f64)> = sums.into_iter().filter(|&(_, coef)| coef != 0.0).collect();
    terms.sort_unstable_by_key(|&(v, _)| v);
    terms
}

fn conflicting_eq_rows(model: &Model, out: &mut Vec<Lint>) {
    // Group Eq rows by their canonical lhs (bit-exact coefficient match;
    // near-parallel rows are a scaling question, not this rule's).
    let mut groups: BTreeMap<Vec<(usize, u64)>, Vec<lips_lp::ConstraintId>> = BTreeMap::new();
    for c in model.constraint_ids() {
        if model.constraint_cmp(c) != Cmp::Eq {
            continue;
        }
        let key: Vec<(usize, u64)> = canonical_terms(model, c)
            .into_iter()
            .map(|(v, coef)| (v, coef.to_bits()))
            .collect();
        groups.entry(key).or_default().push(c);
    }
    let mut findings: Vec<(usize, Lint)> = Vec::new();
    for rows in groups.values() {
        let first = rows[0];
        for &c in &rows[1..] {
            let (a, b) = (model.constraint_rhs(first), model.constraint_rhs(c));
            if (a - b).abs() > EQ_RHS_TOL * (1.0 + a.abs().max(b.abs())) {
                findings.push((
                    c.index(),
                    Lint {
                        rule: Rule::ConflictingEq,
                        severity: Severity::Error,
                        location: row_location(model, c),
                        detail: format!(
                            "Eq row duplicates row {}'s coefficients but asks \
                             for rhs {b} instead of {a}; no point satisfies both",
                            first.index()
                        ),
                    },
                ));
            }
        }
    }
    findings.sort_by_key(|&(i, _)| i);
    out.extend(findings.into_iter().map(|(_, l)| l));
}

fn bound_infeasible_rows(model: &Model, out: &mut Vec<Lint>) {
    'rows: for c in model.constraint_ids() {
        // Interval arithmetic over the canonical lhs: [lo, hi] of Σ coef·x
        // given each x's box. Empty boxes are validate()'s problem, skip.
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for (v, coef) in canonical_terms(model, c) {
            let (lb, ub) = model.var_bounds(lips_lp::VarId::from_index(v));
            if lb > ub {
                continue 'rows;
            }
            let (a, b) = (coef * lb, coef * ub);
            lo += a.min(b);
            hi += a.max(b);
        }
        if lo.is_nan() || hi.is_nan() {
            continue; // e.g. 0·∞ from an unbounded box; can't conclude
        }
        let rhs = model.constraint_rhs(c);
        let reason = match model.constraint_cmp(c) {
            Cmp::Le if lo > rhs => Some(format!("lhs ≥ {lo} but row asks ≤ {rhs}")),
            Cmp::Ge if hi < rhs => Some(format!("lhs ≤ {hi} but row asks ≥ {rhs}")),
            Cmp::Eq if lo > rhs || hi < rhs => {
                Some(format!("lhs ranges over [{lo}, {hi}] but row asks = {rhs}"))
            }
            _ => None,
        };
        if let Some(reason) = reason {
            out.push(Lint {
                rule: Rule::BoundInfeasibleRow,
                severity: Severity::Error,
                location: row_location(model, c),
                detail: format!("row is infeasible from variable bounds alone: {reason}"),
            });
        }
    }
}

fn unbounded_cost_directions(model: &Model, out: &mut Vec<Lint>) {
    let mut constrained = vec![false; model.num_vars()];
    for c in model.constraint_ids() {
        for (v, coef) in model.constraint_terms(c) {
            if coef != 0.0 {
                constrained[v.index()] = true;
            }
        }
    }
    for v in model.var_ids() {
        let obj = model.var_obj(v);
        if obj == 0.0 {
            continue;
        }
        let (lb, ub) = model.var_bounds(v);
        // In the model's own sense, which bound does the objective push
        // toward, and is that bound infinite?
        let improving = match model.sense() {
            Sense::Minimize => obj < 0.0,
            Sense::Maximize => obj > 0.0,
        };
        let escapes = if improving {
            ub == f64::INFINITY
        } else {
            lb == f64::NEG_INFINITY
        };
        if !escapes {
            continue;
        }
        // With no constraint touching the column the model is certainly
        // unbounded; otherwise a row may still cap the ray.
        let severity = if constrained[v.index()] {
            Severity::Warning
        } else {
            Severity::Error
        };
        out.push(Lint {
            rule: Rule::UnboundedCost,
            severity,
            location: var_location(model, v),
            detail: format!(
                "objective coefficient {obj} improves toward an infinite bound \
                 ({}); unboundedness risk",
                if constrained[v.index()] {
                    "only constraints can cap it"
                } else {
                    "and no constraint touches it: the LP is unbounded"
                }
            ),
        });
    }
}

fn spread_lint(location: String, what: &str, min: f64, max: f64, out: &mut Vec<Lint>) {
    if min > 0.0 && max / min > SCALING_SPREAD_LIMIT {
        out.push(Lint {
            rule: Rule::BadScaling,
            severity: Severity::Warning,
            location,
            detail: format!(
                "{what} coefficient magnitudes span [{min:e}, {max:e}] \
                 (spread {:.1e} > {SCALING_SPREAD_LIMIT:e}); expect numerical trouble",
                max / min
            ),
        });
    }
}

fn bad_scaling(model: &Model, out: &mut Vec<Lint>) {
    for c in model.constraint_ids() {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for (_, coef) in model.constraint_terms(c) {
            let a = coef.abs();
            if a > 0.0 {
                min = min.min(a);
                max = max.max(a);
            }
        }
        spread_lint(row_location(model, c), "row", min, max, out);
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    for v in model.var_ids() {
        let a = model.var_obj(v).abs();
        if a > 0.0 {
            min = min.min(a);
            max = max.max(a);
        }
    }
    spread_lint("objective".into(), "objective", min, max, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_lp::Model;

    fn clean_model() -> Model {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 2.0);
        let y = m.add_var("y", 0.0, 1.0, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        m.add_constraint([(x, 2.0)], Cmp::Le, 1.5);
        m
    }

    fn rules(model: &Model) -> Vec<Rule> {
        lint(model).iter().map(|l| l.rule).collect()
    }

    #[test]
    fn clean_model_has_no_findings() {
        assert!(lint(&clean_model()).is_empty());
    }

    #[test]
    fn empty_row_flagged() {
        let mut m = clean_model();
        m.add_constraint([], Cmp::Le, 1.0); // vacuous: 0 <= 1
        let found = lint(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::EmptyRow);
        assert_eq!(found[0].severity, Severity::Warning);

        // Unsatisfiable flavour: 0 >= 1.
        let mut m = clean_model();
        m.add_constraint([], Cmp::Ge, 1.0);
        let found = lint(&m);
        assert_eq!(found[0].rule, Rule::EmptyRow);
        assert_eq!(found[0].severity, Severity::Error);
    }

    #[test]
    fn all_zero_row_flagged_as_empty() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 0.0)], Cmp::Eq, 0.5);
        let found = lint(&m);
        assert!(found
            .iter()
            .any(|l| l.rule == Rule::EmptyRow && l.severity == Severity::Error));
    }

    #[test]
    fn unused_variable_flagged() {
        let mut m = clean_model();
        m.add_var("orphan", 0.0, 1.0, 1.0);
        assert_eq!(rules(&m), vec![Rule::UnusedVariable]);
    }

    #[test]
    fn duplicate_term_flagged() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0), (x, 1.0)], Cmp::Ge, 4.0);
        let found = lint(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::DuplicateTerm);
        assert!(found[0].detail.contains("2 times"), "{}", found[0].detail);
    }

    #[test]
    fn conflicting_eq_rows_flagged() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Eq, 3.0);
        m.add_constraint([(y, 2.0), (x, 1.0)], Cmp::Eq, 4.0); // same lhs, reordered
        let found = lint(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::ConflictingEq);
        assert_eq!(found[0].severity, Severity::Error);

        // Same rhs is fine (merely redundant, not conflicting).
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Eq, 3.0);
        m.add_constraint([(x, 1.0)], Cmp::Eq, 3.0);
        assert!(lint(&m).is_empty());
    }

    #[test]
    fn bound_infeasible_rows_flagged() {
        // x,y ∈ [0,1] can sum to at most 2 < 3.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        let found = lint(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::BoundInfeasibleRow);

        // Negative coefficient direction: -x ∈ [-1, 0] can never be ≥ 0.5…
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, -1.0)], Cmp::Ge, 0.5);
        assert_eq!(rules(&m), vec![Rule::BoundInfeasibleRow]);

        // …while a satisfiable row stays silent.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, -1.0)], Cmp::Ge, -0.5);
        assert!(lint(&m).is_empty());
    }

    #[test]
    fn unbounded_cost_flagged() {
        // Minimize with obj < 0 and ub = ∞, no constraints: certain
        // unboundedness.
        let mut m = Model::minimize();
        m.add_var("x", 0.0, f64::INFINITY, -1.0);
        let found = lint(&m);
        // The orphan column also trips UnusedVariable; the rule under test
        // must be the Error.
        let unb: Vec<&Lint> = found
            .iter()
            .filter(|l| l.rule == Rule::UnboundedCost)
            .collect();
        assert_eq!(unb.len(), 1);
        assert_eq!(unb[0].severity, Severity::Error);

        // Same column capped by a row: only a Warning.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        m.add_constraint([(x, 1.0)], Cmp::Le, 5.0);
        let found = lint(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::UnboundedCost);
        assert_eq!(found[0].severity, Severity::Warning);

        // Maximize flips the improving direction.
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", f64::NEG_INFINITY, 0.0, 1.0);
        assert!(lint(&m).iter().all(|l| l.rule != Rule::UnboundedCost));
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", 0.0, f64::INFINITY, 1.0);
        assert!(lint(&m).iter().any(|l| l.rule == Rule::UnboundedCost));
    }

    #[test]
    fn bad_scaling_flagged() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1e-5), (y, 1e5)], Cmp::Le, 1.0); // spread 1e10
        let found = lint(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::BadScaling);

        // Spread exactly at the limit is accepted.
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1e8)], Cmp::Le, 1.0);
        assert!(lint(&m).is_empty());
    }

    #[test]
    fn objective_scaling_checked_too() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0, 1.0, 1e-6);
        let y = m.add_var("y", 0.0, 1.0, 1e6);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let found = lint(&m);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::BadScaling);
        assert_eq!(found[0].location, "objective");
    }

    #[test]
    fn display_is_readable() {
        let mut m = clean_model();
        m.add_var("orphan", 0.0, 1.0, 1.0);
        let s = lint(&m)[0].to_string();
        assert!(s.starts_with("warning[UnusedVariable] var orphan:"), "{s}");
    }
}
