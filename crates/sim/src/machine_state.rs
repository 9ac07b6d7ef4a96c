//! Per-machine runtime state: slot occupancy.

use lips_cluster::Machine;

use crate::Time;

/// Slot occupancy of one machine.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Time each slot becomes free (≤ now means free now).
    slot_free_at: Vec<Time>,
}

impl MachineState {
    /// Every machine gets at least one slot, as in
    /// [`Machine::slot_seconds_for`] (a 0-slot machine fails
    /// `Cluster::validate` anyway).
    pub fn new(machine: &Machine) -> Self {
        MachineState {
            slot_free_at: vec![0.0; machine.slots.max(1) as usize],
        }
    }

    pub fn slots(&self) -> usize {
        self.slot_free_at.len()
    }

    /// Number of slots free at `now`.
    pub fn free_slots(&self, now: Time) -> usize {
        self.slot_free_at.iter().filter(|&&t| t <= now).count()
    }

    /// Slot index that frees earliest (deterministic: lowest index wins
    /// ties).
    pub fn earliest_slot(&self) -> (u32, Time) {
        // `new` books at least one slot.
        let mut best = (0, self.slot_free_at[0]);
        for (i, &t) in self.slot_free_at.iter().enumerate().skip(1) {
            if t.total_cmp(&best.1).is_lt() {
                best = (i as u32, t);
            }
        }
        best
    }

    /// Occupy `slot` until `until`.
    pub fn occupy(&mut self, slot: u32, until: Time) {
        let t = &mut self.slot_free_at[slot as usize];
        assert!(until >= *t, "slot booked backwards: {until} < {t}");
        *t = until;
    }

    /// Number of slots still occupied at `t`.
    pub fn busy_slots(&self, t: Time) -> usize {
        self.slot_free_at.iter().filter(|&&f| f > t).count()
    }

    /// Free every slot no later than `now` (machine revocation: the
    /// chunks that had the slots booked were killed). Slots already free
    /// earlier keep their earlier time.
    pub fn release_all(&mut self, now: Time) {
        for t in &mut self.slot_free_at {
            *t = t.min(now);
        }
    }

    /// When the machine is completely idle.
    pub fn idle_at(&self) -> Time {
        self.slot_free_at.iter().fold(0.0f64, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{InstanceType, Machine, ZoneId};

    fn c1_state() -> MachineState {
        let m = Machine::from_instance(0, "m", ZoneId(0), InstanceType::C1_MEDIUM, 0.5, 3600.0);
        MachineState::new(&m)
    }

    #[test]
    fn slots_match_instance() {
        assert_eq!(c1_state().slots(), 2);
    }

    #[test]
    fn occupancy_tracking() {
        let mut s = c1_state();
        assert_eq!(s.free_slots(0.0), 2);
        s.occupy(0, 100.0);
        assert_eq!(s.free_slots(0.0), 1);
        assert_eq!(s.free_slots(100.0), 2);
        let (slot, t) = s.earliest_slot();
        assert_eq!((slot, t), (1, 0.0));
        s.occupy(1, 50.0);
        assert_eq!(s.earliest_slot(), (1, 50.0));
        assert_eq!(s.idle_at(), 100.0);
    }

    #[test]
    fn release_all_frees_booked_slots() {
        let mut s = c1_state();
        s.occupy(0, 100.0);
        s.occupy(1, 30.0);
        s.release_all(40.0);
        // Slot 0's booking is cut to `now`; slot 1 keeps its earlier time.
        assert_eq!(s.free_slots(40.0), 2);
        assert_eq!(s.earliest_slot(), (1, 30.0));
    }

    #[test]
    #[should_panic]
    fn cannot_book_backwards() {
        let mut s = c1_state();
        s.occupy(0, 100.0);
        s.occupy(0, 50.0);
    }
}
