//! # lips-audit — static analysis for the LiPS linear programs
//!
//! The reproduction's credibility rests on two things this crate checks
//! mechanically, without re-running the solver:
//!
//! * the *models* handed to the solver are well-formed and match the paper's
//!   Fig 2/3/4 structure ([`lint()`], [`audit_paper_invariants`]);
//! * the *solutions* the solver returns are genuinely optimal, proven by an
//!   independently recomputed primal/dual certificate ([`certify`]).
//!
//! All three passes are pure functions over `lips_lp::Model` /
//! `lips_lp::Solution`; nothing here mutates or solves.
//!
//! ```
//! use lips_lp::{Cmp, Model};
//!
//! let mut m = Model::minimize();
//! let x = m.add_var("x", 0.0, 10.0, 2.0);
//! let y = m.add_var("y", 0.0, 10.0, 3.0);
//! m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
//!
//! assert!(lips_audit::lint(&m).is_empty());
//! let sol = m.solve().unwrap();
//! let cert = lips_audit::certify(&m, &sol).unwrap();
//! assert!(cert.is_optimal());
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod certificate;
pub mod invariants;
pub mod lint;

pub use certificate::{
    certify, certify_restricted_with, Certificate, CertifyError, RestrictedCertificate,
};
pub use invariants::{
    audit_paper_invariants, ModelAnnotations, PaperExpectations, RowKind, VarKind,
};
pub use lint::{lint, Lint, Rule, Severity};
