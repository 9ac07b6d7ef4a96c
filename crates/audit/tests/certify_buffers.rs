//! The restricted certificate describes excluded columns into one reused
//! buffer per pricing chunk, never one per column.
//!
//! The workspace forbids `unsafe`, which rules out a counting
//! `#[global_allocator]`; the probe is the callback instead. It counts the
//! buffers it is handed that are fresh: with no capacity yet (a buffer
//! that was written before keeps its capacity when cleared), or with
//! storage at another address than the previous call on the same thread
//! saw. Each column here has at most four terms, which the first write to
//! a fresh buffer makes room for, so a reused buffer never moves.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use lips_audit::certify_restricted_with;
use lips_lp::{Cmp, ConstraintId, Model};
use lips_par::Pool;

/// Columns per pricing chunk of the certificate.
const COL_CHUNK: usize = 512;

thread_local! {
    /// Storage address of the buffer the previous call on this thread got.
    static LAST: Cell<usize> = const { Cell::new(0) };
}

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

/// Certify `n` excluded columns over `pool`; returns (calls, fresh
/// buffers).
fn probe(pool: Pool, n: usize) -> (usize, usize) {
    let (m, rows) = master();
    let sol = m.solve().unwrap();
    let items: Vec<usize> = (0..n).collect();
    let calls = AtomicUsize::new(0);
    let fresh = AtomicUsize::new(0);
    let cert = certify_restricted_with(pool, &m, &sol, &items, |&i, terms| {
        assert!(terms.is_empty(), "the buffer must arrive empty");
        let unused = terms.capacity() == 0;
        // Up to four terms, so the buffer never grows past its first
        // allocation.
        for t in 0..1 + i % 4 {
            terms.push((rows[(i + 7 * t) % rows.len()], 1.0));
        }
        let at = terms.as_ptr() as usize;
        let moved = LAST.with(|last| last.replace(at)) != at;
        if unused || moved {
            fresh.fetch_add(1, Relaxed);
        }
        calls.fetch_add(1, Relaxed);
        (i as u64, 50.0)
    })
    .unwrap();
    assert!(cert.is_optimal(), "{cert}");
    assert_eq!(cert.excluded_priced, n);
    (calls.into_inner(), fresh.into_inner())
}

#[test]
fn certification_reuses_one_buffer_per_chunk() {
    for pool in [Pool::serial(), Pool::new(3)] {
        for n in [100, 10_000] {
            let (calls, fresh) = probe(pool, n);
            // Every column is described exactly once: the passing
            // certificate prices no column twice.
            assert_eq!(calls, n);
            let chunks = n.div_ceil(COL_CHUNK);
            assert!(
                fresh <= chunks,
                "{fresh} buffers for {n} columns in {chunks} chunks at width {}",
                pool.threads()
            );
        }
    }
}
