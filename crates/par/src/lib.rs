//! # lips-par — a dependency-free scoped worker pool with deterministic reduce
//!
//! The epoch pipeline's remaining hot paths — per-arc reduced-cost pricing,
//! per-job model assembly, and the KKT certification residual passes — are
//! embarrassingly parallel over independent (job, machine, store) arcs, but
//! the scheduler's correctness story (certified optima, byte-identical
//! replays) cannot tolerate run-to-run nondeterminism. This crate provides
//! the one primitive both needs: fork work across [`std::thread::scope`]
//! workers, then merge results **in index order**, so the output of every
//! operation is bitwise identical at any thread count.
//!
//! Two rules make that guarantee hold:
//!
//! * per-*item* operations ([`Pool::par_map`], [`Pool::par_map_with`],
//!   [`Pool::par_filter_indices_with`]) compute each item's result
//!   independently and concatenate per-worker outputs in worker (= index)
//!   order — no item's value can depend on scheduling;
//! * *reductions* over non-associative arithmetic (floating-point sums in
//!   the KKT certificate) go through [`Pool::par_chunk_fold`], whose chunk
//!   boundaries depend only on the fixed `chunk_size` — never on the thread
//!   count — and whose partial results are folded left-to-right in chunk
//!   order. Changing `Pool::new(1)` to `Pool::new(8)` changes which OS
//!   thread computes a chunk, not the chunk set or the fold order.
//!
//! There are no persistent worker threads: each call spawns scoped workers
//! and joins them before returning (`unsafe_code = "forbid"` holds — scoped
//! borrows need no `'static` laundering). Spawn cost is ~10 µs per worker,
//! amortized over thousands of arcs (or dozens of heavy per-job blocks) per
//! call; callers with sub-millisecond workloads should pass
//! [`Pool::serial`], which runs everything inline on the caller thread
//! through the same chunking and merge order.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::num::NonZeroUsize;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "LIPS_THREADS";

/// Worker count for this process: `LIPS_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 if even
/// that is unknown).
#[expect(
    clippy::disallowed_methods,
    reason = "lips-par owns the thread width; every other crate asks it"
)]
pub fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A scoped worker pool: a thread-count budget plus the fork/merge
/// strategies documented at the crate root. `Copy` on purpose — a `Pool`
/// is configuration, not a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

impl Pool {
    /// A pool running on `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A single-worker pool: everything runs inline on the caller thread,
    /// through the same chunking and merge order as any other width.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// The process-default pool ([`default_threads`]).
    pub fn from_env() -> Self {
        Pool::new(default_threads())
    }

    /// Worker budget of this pool.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Split `0..len` into at most `self.threads` contiguous ranges of
    /// near-equal size. Items may be arbitrarily heavy (a whole job's
    /// column block, a 256-row chunk), so no minimum-items cutoff is
    /// applied — granularity is the caller's choice, and a one-item split
    /// degrades to an inline call with no spawn at all.
    fn ranges(self, len: usize) -> Vec<(usize, usize)> {
        let workers = self.threads.min(len.max(1));
        (0..workers)
            .map(|w| (w * len / workers, (w + 1) * len / workers))
            .collect()
    }

    /// Run `work` over each range, first range on the caller thread and the
    /// rest on scoped workers, returning per-range outputs in range order.
    fn fork<R: Send>(
        self,
        ranges: &[(usize, usize)],
        work: impl Fn(usize, usize) -> R + Sync,
    ) -> Vec<R> {
        if ranges.len() <= 1 {
            return ranges.iter().map(|&(lo, hi)| work(lo, hi)).collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges[1..]
                .iter()
                .map(|&(lo, hi)| {
                    s.spawn({
                        let work = &work;
                        move || work(lo, hi)
                    })
                })
                .collect();
            let first = work(ranges[0].0, ranges[0].1);
            let mut out = Vec::with_capacity(ranges.len());
            out.push(first);
            for h in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "re-raises a worker's panic on the caller"
                )]
                out.push(h.join().expect("lips-par worker panicked"));
            }
            out
        })
    }

    /// Map every item to a result, in input order.
    pub fn par_map<T: Sync, R: Send>(
        self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        self.par_map_with(items, || (), |(), i, t| f(i, t))
    }

    /// [`Pool::par_map`] with a per-worker scratch value: `scratch` runs
    /// once per worker and the result is threaded through every call that
    /// worker makes — reusable buffers without per-item allocation.
    pub fn par_map_with<S, T: Sync, R: Send>(
        self,
        items: &[T],
        scratch: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let parts = self.fork(&self.ranges(items.len()), |lo, hi| {
            let mut s = scratch();
            items[lo..hi]
                .iter()
                .enumerate()
                .map(|(off, t)| f(&mut s, lo + off, t))
                .collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(items.len());
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Indices `i ∈ 0..n` for which `pred` holds, ascending. `pred` gets a
    /// per-worker scratch value, making this the shape of a pricing pass:
    /// fill a reusable buffer, test the candidate, keep the survivors in
    /// index order regardless of which worker priced them.
    pub fn par_filter_indices_with<S>(
        self,
        n: usize,
        scratch: impl Fn() -> S + Sync,
        pred: impl Fn(&mut S, usize) -> bool + Sync,
    ) -> Vec<usize> {
        let parts = self.fork(&self.ranges(n), |lo, hi| {
            let mut s = scratch();
            (lo..hi)
                .filter(|&i| pred(&mut s, i))
                .collect::<Vec<usize>>()
        });
        let mut out = Vec::new();
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Chunked map-reduce whose result is independent of the worker count:
    /// `items` is cut into chunks of exactly `chunk_size` (last one
    /// shorter), `map` turns each chunk into a partial result, and `fold`
    /// combines the partials **left-to-right in chunk order**. Use this —
    /// not per-worker accumulation — whenever the combine step is not
    /// exactly associative (floating-point sums): the chunk set and fold
    /// order are fixed by `chunk_size` alone, so `Pool::new(1)` and
    /// `Pool::new(64)` produce bitwise-identical results.
    ///
    /// `map` receives `(chunk_index, item_offset, chunk)`.
    pub fn par_chunk_fold<T: Sync, R: Send, A>(
        self,
        items: &[T],
        chunk_size: usize,
        map: impl Fn(usize, usize, &[T]) -> R + Sync,
        init: A,
        mut fold: impl FnMut(A, R) -> A,
    ) -> A {
        let chunk_size = chunk_size.max(1);
        let n_chunks = items.len().div_ceil(chunk_size);
        // Workers take contiguous runs of whole chunks so concatenating
        // per-worker outputs yields the partials in chunk order.
        let chunk_ranges = self.ranges(n_chunks);
        let parts = self.fork(&chunk_ranges, |clo, chi| {
            (clo..chi)
                .map(|c| {
                    let lo = c * chunk_size;
                    let hi = (lo + chunk_size).min(items.len());
                    map(c, lo, &items[lo..hi])
                })
                .collect::<Vec<R>>()
        });
        let mut acc = init;
        for part in parts {
            for r in part {
                acc = fold(acc, r);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..1000).collect();
        let serial = Pool::serial().par_map(&items, |i, &x| i * 31 + x);
        for threads in [2, 3, 8, 64] {
            let par = Pool::new(threads).par_map(&items, |i, &x| i * 31 + x);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn par_map_with_reuses_worker_scratch() {
        // The scratch buffer must be created once per worker, not per item:
        // record its capacity growth — a fresh Vec per item would stay tiny.
        let items: Vec<usize> = (0..512).collect();
        let out = Pool::new(4).par_map_with(&items, Vec::<usize>::new, |buf, i, &x| {
            buf.clear();
            buf.extend(0..x % 7);
            i + buf.len()
        });
        let expect: Vec<usize> = items.iter().map(|&x| x + x % 7).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn filter_indices_ascending_and_width_independent() {
        let n = 4097;
        let keep = |_s: &mut (), i: usize| i.is_multiple_of(13) || i % 97 == 3;
        let serial = Pool::serial().par_filter_indices_with(n, || (), keep);
        assert!(serial.windows(2).all(|w| w[0] < w[1]), "not ascending");
        for threads in [2, 5, 16] {
            let par = Pool::new(threads).par_filter_indices_with(n, || (), keep);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn chunk_fold_is_bitwise_identical_across_widths() {
        // A sum of floats whose value depends on association order: the
        // fixed chunking must make every width agree bit for bit.
        let items: Vec<f64> = (0..10_000)
            .map(|i| (f64::from(i) * 0.1).sin() * 1e-3 + 1.0)
            .collect();
        let sum = |pool: Pool| {
            pool.par_chunk_fold(
                &items,
                256,
                |_c, _off, chunk| chunk.iter().sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            )
        };
        let s1 = sum(Pool::serial());
        for threads in [2, 4, 32] {
            assert_eq!(
                s1.to_bits(),
                sum(Pool::new(threads)).to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn chunk_fold_passes_offsets_and_handles_ragged_tail() {
        let items: Vec<u64> = (0..103).collect();
        let total = Pool::new(3).par_chunk_fold(
            &items,
            10,
            |c, off, chunk| {
                assert_eq!(off, c * 10);
                assert!(chunk.len() == 10 || (c == 10 && chunk.len() == 3));
                chunk.iter().sum::<u64>()
            },
            0u64,
            |a, b| a + b,
        );
        assert_eq!(total, 103 * 102 / 2);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let empty: [u8; 0] = [];
        assert!(Pool::new(8).par_map(&empty, |_, &b| b).is_empty());
        assert!(Pool::new(8)
            .par_filter_indices_with(0, || (), |(), _| true)
            .is_empty());
        let acc = Pool::new(8).par_chunk_fold(&empty, 16, |_, _, c| c.len(), 7usize, |a, b| a + b);
        assert_eq!(acc, 7);
    }

    #[test]
    fn pool_width_is_clamped_and_env_is_read() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::from_env().threads() >= 1);
        assert!(default_threads() >= 1);
    }
}
