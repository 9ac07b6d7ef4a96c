//! Replication target choosers: where does the next replica of a block go?
//!
//! The chooser sees the cluster, the block's existing replica set, the
//! writing machine (if any), and current store usage; it returns the next
//! target store. The NameNode enforces capacity and no-duplicate rules —
//! choosers only express *preference order*.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use lips_cluster::{Cluster, MachineId, StoreId};

/// A placement policy for new replicas.
pub trait ReplicationTargetChooser {
    /// Choose a target for the `replica_idx`-th replica (0-based) of a
    /// block written from `writer`, given the replicas already placed.
    /// `usable` lists the stores with room, in id order. Implementations
    /// must return one of `usable`, and `None` only when it is empty.
    fn choose(
        &mut self,
        cluster: &Cluster,
        writer: Option<MachineId>,
        existing: &[StoreId],
        replica_idx: usize,
        usable: &[StoreId],
    ) -> Option<StoreId>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// Hadoop's default policy: first replica on the writer's local DataNode,
/// second on a node in a *different* zone ("off-rack"), third in the same
/// zone as the second but on a different node, the rest random.
pub struct DefaultTargetChooser {
    rng: ChaCha8Rng,
}

impl DefaultTargetChooser {
    pub fn new(seed: u64) -> Self {
        DefaultTargetChooser {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn random_from(&mut self, candidates: &[StoreId]) -> Option<StoreId> {
        (!candidates.is_empty()).then(|| candidates[self.rng.gen_range(0..candidates.len())])
    }
}

impl ReplicationTargetChooser for DefaultTargetChooser {
    fn choose(
        &mut self,
        cluster: &Cluster,
        writer: Option<MachineId>,
        existing: &[StoreId],
        replica_idx: usize,
        usable: &[StoreId],
    ) -> Option<StoreId> {
        match replica_idx {
            0 => {
                // Writer-local when possible.
                if let Some(w) = writer {
                    if let Some(local) = cluster.store_of_machine(w) {
                        if usable.contains(&local) {
                            return Some(local);
                        }
                    }
                }
                self.random_from(usable)
            }
            1 => {
                // A different zone than the first replica.
                let first_zone = existing.first().map(|&s| cluster.store(s).zone);
                let off_zone: Vec<StoreId> = usable
                    .iter()
                    .copied()
                    .filter(|&s| Some(cluster.store(s).zone) != first_zone)
                    .collect();
                if off_zone.is_empty() {
                    self.random_from(usable)
                } else {
                    self.random_from(&off_zone)
                }
            }
            2 => {
                // Same zone as the second replica, different node.
                let second_zone = existing.get(1).map(|&s| cluster.store(s).zone);
                let same_zone: Vec<StoreId> = usable
                    .iter()
                    .copied()
                    .filter(|&s| Some(cluster.store(s).zone) == second_zone)
                    .collect();
                if same_zone.is_empty() {
                    self.random_from(usable)
                } else {
                    self.random_from(&same_zone)
                }
            }
            _ => self.random_from(usable),
        }
    }

    fn name(&self) -> &'static str {
        "hadoop-default"
    }
}

/// LiPS's cost-aware chooser: prefer the store whose co-located machine
/// sells the cheapest cycles, net of the transfer price of putting the
/// replica there — Figure 1's `c·a > c·b + d` applied at *write time*, so
/// data is born where it will be cheap to process.
///
/// `tcp_hint` is the expected CPU intensity (ECU-seconds per MB) of the
/// jobs that will read this data; higher values shift the balance toward
/// cheap cycles over cheap transfers.
pub struct CostAwareTargetChooser {
    pub tcp_hint: f64,
}

impl CostAwareTargetChooser {
    pub fn new(tcp_hint: f64) -> Self {
        assert!(tcp_hint >= 0.0);
        CostAwareTargetChooser { tcp_hint }
    }

    /// Expected dollars per MB if the replica lives at `s`: processing at
    /// the co-located machine's price plus shipping the block from the
    /// writer.
    fn score(&self, cluster: &Cluster, writer: Option<MachineId>, s: StoreId) -> f64 {
        let cpu = cluster
            .store(s)
            .colocated
            .map_or_else(|| cluster.max_cpu_cost(), |m| cluster.machine(m).cpu_cost);
        let transfer = writer
            .and_then(|w| cluster.store_of_machine(w))
            .map_or(0.0, |from| cluster.ss_cost(from, s));
        self.tcp_hint * cpu + transfer
    }
}

impl ReplicationTargetChooser for CostAwareTargetChooser {
    fn choose(
        &mut self,
        cluster: &Cluster,
        writer: Option<MachineId>,
        _existing: &[StoreId],
        _replica_idx: usize,
        usable: &[StoreId],
    ) -> Option<StoreId> {
        usable.iter().copied().min_by(|&a, &b| {
            self.score(cluster, writer, a)
                .total_cmp(&self.score(cluster, writer, b))
                .then(a.cmp(&b))
        })
    }

    fn name(&self) -> &'static str {
        "lips-cost-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::ec2_20_node;

    fn usable(c: &Cluster) -> Vec<StoreId> {
        c.stores
            .iter()
            .filter(|s| s.colocated.is_some())
            .map(|s| s.id)
            .collect()
    }

    #[test]
    fn default_first_replica_is_writer_local() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut ch = DefaultTargetChooser::new(1);
        let w = MachineId(5);
        let s = ch.choose(&c, Some(w), &[], 0, &usable(&c)).unwrap();
        assert_eq!(c.store(s).colocated, Some(w));
    }

    #[test]
    fn default_second_replica_is_off_zone() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut ch = DefaultTargetChooser::new(2);
        let first = StoreId(0);
        for _ in 0..20 {
            let s = ch.choose(&c, None, &[first], 1, &usable(&c)).unwrap();
            assert_ne!(c.store(s).zone, c.store(first).zone);
        }
    }

    #[test]
    fn default_third_replica_matches_second_zone() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut ch = DefaultTargetChooser::new(3);
        let (first, second) = (StoreId(0), StoreId(1));
        for _ in 0..20 {
            let s = ch
                .choose(&c, None, &[first, second], 2, &usable(&c))
                .unwrap();
            assert_eq!(c.store(s).zone, c.store(second).zone);
        }
    }

    #[test]
    fn cost_aware_prefers_cheap_cycles_for_cpu_heavy_data() {
        // At tcp_hint = 5 ECU-sec/MB the CPU-class gap (C1 vs M1 is
        // ≥ 1.5e-4 $/MB) dwarfs any transfer differential (cross-zone is
        // ~1e-5 $/MB), so the replica must land on a cheap-cycle C1 node.
        // Within the C1 class the per-node price spread is smaller than a
        // zone transfer, so the exact node is a price-vs-distance tradeoff
        // and not asserted.
        // Asserted by price class, not instance name: any node whose
        // cycles price in the cheap (C1) half of the cluster's range
        // satisfies the claim, so per-node price jitter cannot flip the
        // test between two near-tied cheap nodes.
        let c = ec2_20_node(0.5, 3600.0);
        let mut ch = CostAwareTargetChooser::new(5.0); // very CPU-heavy
        let s = ch
            .choose(&c, Some(MachineId(15)), &[], 0, &usable(&c))
            .unwrap();
        let m = c.store(s).colocated.unwrap();
        let min = c.min_cpu_cost();
        let max = c
            .machines
            .iter()
            .map(|m| m.cpu_cost)
            .fold(f64::MIN, f64::max);
        assert!(max > min, "test needs a heterogeneous cluster");
        assert!(
            c.machine(m).cpu_cost < (min + max) / 2.0,
            "chose {} at {} $/ECU-s (cluster range {min}..{max})",
            c.machine(m).instance.name,
            c.machine(m).cpu_cost
        );
    }

    #[test]
    fn cost_aware_stays_near_writer_for_io_heavy_data() {
        // With a negligible CPU hint and pricey cross-zone transfer, the
        // writer's own zone wins.
        let mut c = ec2_20_node(0.5, 3600.0);
        c.network.cross_zone_dollars_per_mb = 0.1 / 1024.0 * 100.0; // very dear
        let mut ch = CostAwareTargetChooser::new(0.01);
        let w = MachineId(13);
        let s = ch.choose(&c, Some(w), &[], 0, &usable(&c)).unwrap();
        assert_eq!(c.store(s).zone, c.machine(w).zone);
    }

    #[test]
    fn cost_aware_is_deterministic() {
        let c = ec2_20_node(0.25, 3600.0);
        let mut a = CostAwareTargetChooser::new(1.0);
        let mut b = CostAwareTargetChooser::new(1.0);
        let u = usable(&c);
        assert_eq!(
            a.choose(&c, Some(MachineId(2)), &[], 0, &u),
            b.choose(&c, Some(MachineId(2)), &[], 0, &u)
        );
    }
}
