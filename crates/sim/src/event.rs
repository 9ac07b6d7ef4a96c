//! The simulator's event queue: a deterministic min-heap over (time, seq).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lips_cluster::{DataId, MachineId, StoreId};
use lips_workload::JobId;

use crate::Time;

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A job entered the queue.
    JobArrival(JobId),
    /// A scheduled chunk finished on a machine slot. `chunk` is the
    /// engine-assigned id of the dispatch; a completion whose id is no
    /// longer registered was killed by a fault and is ignored.
    ChunkDone {
        job: JobId,
        machine: MachineId,
        slot: u32,
        chunk: u64,
    },
    /// A data movement completed.
    MoveDone { data: DataId, to: StoreId },
    /// Periodic scheduler invocation (epoch-based schedulers).
    EpochTick,
    /// A scripted cluster fault fires (see [`crate::fault::FaultPlan`]).
    Fault(crate::fault::FaultEvent),
}

/// A timestamped event. Sequence numbers make ordering total and
/// deterministic for equal timestamps (insertion order wins).
#[derive(Debug, Clone)]
pub struct Event {
    pub time: Time,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the earliest event.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute time `time`.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite: {time}"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::EpochTick);
        q.push(1.0, EventKind::JobArrival(JobId(0)));
        q.push(3.0, EventKind::EpochTick);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::JobArrival(JobId(7)));
        q.push(2.0, EventKind::JobArrival(JobId(8)));
        q.push(2.0, EventKind::JobArrival(JobId(9)));
        let ids: Vec<JobId> = std::iter::from_fn(|| q.pop())
            .map(|e| {
                let EventKind::JobArrival(j) = e.kind else {
                    panic!("expected a job arrival, got {:?}", e.kind)
                };
                j
            })
            .collect();
        assert_eq!(ids, vec![JobId(7), JobId(8), JobId(9)]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(4.0, EventKind::EpochTick);
        assert_eq!(q.peek_time(), Some(4.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_nan_time() {
        EventQueue::new().push(f64::NAN, EventKind::EpochTick);
    }
}
