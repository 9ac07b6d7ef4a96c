//! The restricted certificate describes excluded columns into one reused
//! buffer, never one per column.
//!
//! The workspace forbids `unsafe`, which rules out a counting
//! `#[global_allocator]`; the probe is the callback instead. It counts the
//! buffers it is handed that are fresh: with no capacity yet (a buffer
//! that was written before keeps its capacity when cleared), or with
//! storage at another address than the previous call saw. Each column
//! here has at most four terms, which the first write to a fresh buffer
//! makes room for, so a reused buffer never moves.

use lips_audit::certify_restricted_with;
use lips_lp::{Cmp, ConstraintId, Model};

/// A master of 40 covering rows, solved, and its row handles.
fn master() -> (Model, Vec<ConstraintId>) {
    let mut m = Model::minimize();
    let x: Vec<_> = (0..80)
        .map(|j| m.add_var(format!("x{j}"), 0.0, 4.0, 1.0 + f64::from(j % 7) * 0.5))
        .collect();
    let rows = (0..40)
        .map(|i| m.add_constraint([(x[2 * i], 1.0), (x[2 * i + 1], 1.0)], Cmp::Ge, 1.0))
        .collect();
    (m, rows)
}

/// Certify `n` excluded columns; returns (calls, fresh buffers).
fn probe(n: usize) -> (usize, usize) {
    let (m, rows) = master();
    let sol = m.solve().unwrap();
    let items: Vec<usize> = (0..n).collect();
    let mut calls = 0;
    let mut fresh = 0;
    // Storage address of the buffer the previous call got.
    let mut last = 0;
    let cert = certify_restricted_with(&m, &sol, &items, |&i, terms| {
        assert!(terms.is_empty(), "the buffer must arrive empty");
        let unused = terms.capacity() == 0;
        // Up to four terms, so the buffer never grows past its first
        // allocation.
        for t in 0..1 + i % 4 {
            terms.push((rows[(i + 7 * t) % rows.len()], 1.0));
        }
        let at = terms.as_ptr() as usize;
        let moved = std::mem::replace(&mut last, at) != at;
        if unused || moved {
            fresh += 1;
        }
        calls += 1;
        (i as u64, 50.0)
    })
    .unwrap();
    assert!(cert.is_optimal(), "{cert}");
    assert_eq!(cert.excluded_priced, n);
    (calls, fresh)
}

#[test]
fn certification_reuses_one_buffer() {
    for n in [100, 10_000] {
        let (calls, fresh) = probe(n);
        // Every column is described exactly once: the passing
        // certificate prices no column twice.
        assert_eq!(calls, n);
        assert_eq!(fresh, 1, "{fresh} buffers for {n} columns");
    }
}
