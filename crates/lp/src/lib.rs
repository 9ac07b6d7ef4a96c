//! # lips-lp — a self-contained linear-programming solver
//!
//! The LiPS scheduler (Ehsan et al., IPDPS 2013) reduces cost-optimal
//! data/task co-scheduling to linear programs (Figures 2–4 of the paper) and
//! solves them with GLPK.  This crate is the GLPK substitute: a from-scratch,
//! dependency-free LP solver tuned for the scheduler's problem shapes
//! (thousands of rows, tens of thousands of sparse columns, all variables
//! boxed into `[0, 1]`).
//!
//! Three solvers are provided:
//!
//! * [`revised::RevisedSimplex`] — the production cold solver: a two-phase,
//!   bounded-variable revised primal simplex with a Markowitz-ordered
//!   sparse-LU factorization of the basis ([`slu::SparseLu`]), sparse
//!   product-form (eta-file) updates between refactorizations, devex
//!   pricing over a partial-pricing window, and a Bland anti-cycling
//!   fallback.
//! * [`dual::solve_dual_from_basis`] — the bounded dual simplex on the
//!   same machinery, and the only solver that accepts a prior basis
//!   ([`basis::WarmStart`]): the epoch loop's resolve-the-same-LP-again
//!   workload, and cold solves from the slack basis. A
//!   [`session::Session`] runs the same solve and keeps its worker, so a
//!   column-generation master grows by priced columns and re-optimizes in
//!   place.
//! * [`dense::DenseSimplex`] — a textbook two-phase tableau simplex used as a
//!   cross-checking oracle in tests and for very small models.
//!
//! All consume the same [`model::Model`] builder and return the same
//! [`solution::Solution`].
//!
//! ```
//! use lips_lp::{Model, Sense, Cmp};
//!
//! // min 2x + 3y  s.t.  x + y >= 4,  x <= 3,  0 <= x,y <= 10
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.add_var("x", 0.0, 10.0, 2.0);
//! let y = m.add_var("y", 0.0, 10.0, 3.0);
//! m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
//! m.add_constraint([(x, 1.0)], Cmp::Le, 3.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective() - 9.0).abs() < 1e-6); // x=3, y=1
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod basis;
mod bitset;
pub mod clock;
pub mod dense;
pub mod dual;
pub mod error;
#[cfg(test)]
mod lu;
pub mod model;
pub mod pricing;
pub mod revised;
pub mod sensitivity;
pub mod session;
pub mod slu;
pub mod solution;
pub mod sparse;
pub mod standard;

pub use basis::{
    name_key, positional_row_key, BasisStatus, DeclinedBasis, DualDecline, WarmOutcome, WarmStart,
};
pub use dual::solve_dual_from_basis;
pub use error::LpError;
pub use model::{Cmp, ConstraintId, KeyNames, Model, Sense, VarId};
pub use pricing::ColumnPricer;
pub use session::Session;
pub use solution::{Solution, SolveStats, Status};

/// Default feasibility / optimality tolerance used across the crate.
pub const TOL: f64 = 1e-7;

/// Pivot-magnitude tolerance: elements smaller than this are treated as zero
/// during elimination and the ratio test.
pub const PIVOT_TOL: f64 = 1e-9;
