//! The arrival queue: jobs that have been handed to the daemon but whose
//! arrival time is still in the (virtual) future.
//!
//! Arrivals are kept sorted by `(arrival_s, id)` so that pops at an epoch
//! boundary are deterministic regardless of submission interleaving — two
//! daemons fed the same set of specs in any order pop identical batches.

use std::cmp::Ordering;
use std::collections::VecDeque;

use lips_workload::JobSpec;

/// A time-ordered queue of not-yet-arrived job specs.
#[derive(Debug, Default)]
pub struct ArrivalQueue {
    /// Sorted by `(arrival_s, id)`, front = earliest.
    pending: VecDeque<JobSpec>,
}

impl ArrivalQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a spec at its sorted position (stable for equal keys): after
    /// every pending spec whose key is not above its own, found by binary
    /// search.
    pub fn push(&mut self, spec: JobSpec) {
        let key = (spec.arrival_s, spec.id.0);
        let at = self.pending.partition_point(|j| {
            (j.arrival_s, j.id.0).partial_cmp(&key) != Some(Ordering::Greater)
        });
        self.pending.insert(at, spec);
    }

    /// Remove and return every spec with `arrival_s <= now`, earliest
    /// first.
    pub fn pop_due(&mut self, now: f64) -> Vec<JobSpec> {
        let mut due = Vec::new();
        while let Some(j) = self.pending.pop_front() {
            if j.arrival_s <= now {
                due.push(j);
            } else {
                self.pending.push_front(j);
                break;
            }
        }
        due
    }

    /// Arrival time of the next pending spec, if any.
    pub fn next_arrival(&self) -> Option<f64> {
        self.pending.front().map(|j| j.arrival_s)
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_workload::{JobKind, JobSpec};

    fn spec(id: usize, at: f64) -> JobSpec {
        JobSpec::new(id, format!("j{id}"), JobKind::Grep, 128.0, 2).arriving_at(at)
    }

    #[test]
    fn pops_in_time_then_id_order() {
        let mut q = ArrivalQueue::new();
        q.push(spec(3, 10.0));
        q.push(spec(1, 5.0));
        q.push(spec(2, 10.0));
        assert_eq!(q.next_arrival(), Some(5.0));
        let due = q.pop_due(10.0);
        let ids: Vec<usize> = due.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn binary_insert_matches_linear_insert_order() {
        // 1 000 specs over 40 arrival times and 300 ids, so equal
        // `(arrival_s, id)` keys recur; names tell the duplicates apart.
        let mut specs: Vec<JobSpec> = (0..1000)
            .map(|n| {
                let mut s = spec(n % 300, f64::from((n * 7 % 40) as u32) * 2.5);
                s.name = format!("s{n}");
                s
            })
            .collect();
        // Deterministic Fisher–Yates shuffle (64-bit LCG).
        let mut state: u64 = 0x2013;
        for i in (1..specs.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % (i + 1);
            specs.swap(i, j);
        }
        // The reference: the linear scan the queue used to do.
        let mut linear: Vec<JobSpec> = Vec::new();
        let mut q = ArrivalQueue::new();
        for s in specs {
            let key = (s.arrival_s, s.id.0);
            let at = linear
                .iter()
                .position(|j| (j.arrival_s, j.id.0) > key)
                .unwrap_or(linear.len());
            linear.insert(at, s.clone());
            q.push(s);
        }
        let popped: Vec<String> = q
            .pop_due(f64::INFINITY)
            .into_iter()
            .map(|j| j.name)
            .collect();
        let expected: Vec<String> = linear.into_iter().map(|j| j.name).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn future_arrivals_stay_queued() {
        let mut q = ArrivalQueue::new();
        q.push(spec(0, 100.0));
        assert!(q.pop_due(99.9).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(100.0).len(), 1);
    }
}
