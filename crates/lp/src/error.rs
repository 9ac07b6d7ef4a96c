//! Error type shared by every solver in the crate.

use std::fmt;

use crate::basis::DeclinedBasis;

/// Everything that can go wrong while building or solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraint system admits no point satisfying all constraints and
    /// variable bounds (phase-1 objective stayed positive).
    Infeasible,
    /// The objective can be improved without bound along a feasible ray.
    Unbounded,
    /// The solver exceeded its iteration budget; usually indicates cycling
    /// on a severely degenerate model even under Bland's rule, or a model far
    /// larger than the configured limit allows.
    IterationLimit { iterations: usize },
    /// A variable was declared with `lb > ub`.
    InvertedBounds { var: usize, lb: f64, ub: f64 },
    /// A coefficient, bound, or right-hand side was NaN or infinite where a
    /// finite value is required.
    NonFiniteInput { what: &'static str },
    /// A constraint referenced a variable id not belonging to this model.
    UnknownVariable { var: usize },
    /// A column appended to a [`crate::Session`] referenced a row its
    /// model does not have.
    UnknownConstraint { row: usize },
    /// The basis matrix became numerically singular and refactorization did
    /// not recover it.
    SingularBasis,
    /// The dual simplex's walk from the slack basis thrashed: bound flips
    /// over cost-shifted columns outran its pivots, or its restricted
    /// ratio test ran dry. Not a property of the model — the primal
    /// simplex can still solve it. (A carried basis declined mid-walk is
    /// not an error: [`crate::Session::open`] restarts it from the slack
    /// basis.)
    DualDeclined(DeclinedBasis),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit { iterations } => {
                write!(
                    f,
                    "simplex iteration limit reached after {iterations} iterations"
                )
            }
            LpError::InvertedBounds { var, lb, ub } => {
                write!(f, "variable {var} has inverted bounds [{lb}, {ub}]")
            }
            LpError::NonFiniteInput { what } => {
                write!(f, "non-finite input where finite required: {what}")
            }
            LpError::UnknownVariable { var } => {
                write!(f, "constraint references unknown variable id {var}")
            }
            LpError::UnknownConstraint { row } => {
                write!(f, "column references unknown constraint id {row}")
            }
            LpError::SingularBasis => write!(f, "basis matrix is numerically singular"),
            LpError::DualDeclined(d) => write!(
                f,
                "dual simplex declined the warm basis ({}) after {} pivots",
                d.reason.as_str(),
                d.pivots
            ),
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_distinct() {
        let errs = [
            LpError::Infeasible,
            LpError::Unbounded,
            LpError::IterationLimit { iterations: 7 },
            LpError::InvertedBounds {
                var: 1,
                lb: 2.0,
                ub: 1.0,
            },
            LpError::NonFiniteInput { what: "rhs" },
            LpError::UnknownVariable { var: 3 },
            LpError::UnknownConstraint { row: 3 },
            LpError::SingularBasis,
            LpError::DualDeclined(DeclinedBasis {
                reason: crate::basis::DualDecline::Thrash,
                pivots: 5,
            }),
        ];
        let msgs: Vec<String> = errs.iter().map(std::string::ToString::to_string).collect();
        for (i, a) in msgs.iter().enumerate() {
            for b in msgs.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn iteration_limit_reports_count() {
        let e = LpError::IterationLimit { iterations: 42 };
        assert!(e.to_string().contains("42"));
    }
}
