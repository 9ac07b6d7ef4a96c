//! Cluster construction: a general builder plus the paper's testbeds.
//!
//! * [`ec2_20_node`] — the Figure 6/7/8 testbed: 20 nodes across three
//!   zones, a tunable fraction of them c1.medium (the rest m1.medium).
//! * [`ec2_100_node`] — the Figure 9/10 testbed: 100 nodes, three zones,
//!   three instance types.
//! * [`random_cluster`] — the Figure 5 simulation world with uniformly
//!   random CPU prices and per-pair transfer prices.

#![allow(clippy::needless_range_loop)] // symmetric-matrix fill

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cluster::{Cluster, CostOverrides};
use crate::data::DataObject;
use crate::instance::InstanceType;
use crate::machine::{Machine, MachineId};
use crate::store::{Store, StoreId};
use crate::zone::{NetworkPolicy, Zone, ZoneId};
use crate::MILLICENT;

/// Incremental cluster builder. Machines added through
/// [`ClusterBuilder::add_machine`] automatically get a co-located data
/// store sized from the instance's local storage.
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    zones: Vec<Zone>,
    machines: Vec<Machine>,
    stores: Vec<Store>,
    data: Vec<DataObject>,
    network: NetworkPolicy,
    overrides: Option<CostOverrides>,
}

impl ClusterBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an availability zone; returns its id.
    pub fn add_zone(&mut self, name: impl Into<String>) -> ZoneId {
        let id = ZoneId(self.zones.len());
        self.zones.push(Zone::new(id.0, name));
        id
    }

    /// Add a machine of `instance` type in `zone` with a co-located store.
    /// `price_t` in \[0,1\] positions the node inside the instance's published
    /// price range (models the hourly price diversity the paper observed).
    pub fn add_machine(
        &mut self,
        zone: ZoneId,
        instance: InstanceType,
        price_t: f64,
        uptime: f64,
    ) -> MachineId {
        let mid = MachineId(self.machines.len());
        let name = format!("{}-{}", instance.name, mid.0);
        self.machines.push(Machine::from_instance(
            mid.0, name, zone, instance, price_t, uptime,
        ));
        let sid = StoreId(self.stores.len());
        self.stores.push(Store::new(
            sid.0,
            format!("dn-{}", mid.0),
            zone,
            instance.storage_gb * 1024.0,
            Some(mid),
        ));
        mid
    }

    /// Add a standalone (not co-located) store.
    pub fn add_store(&mut self, zone: ZoneId, capacity_mb: f64) -> StoreId {
        let sid = StoreId(self.stores.len());
        self.stores.push(Store::new(
            sid.0,
            format!("store-{}", sid.0),
            zone,
            capacity_mb,
            None,
        ));
        sid
    }

    /// Register a data object originating at `origin`.
    pub fn add_data(
        &mut self,
        name: impl Into<String>,
        size_mb: f64,
        origin: StoreId,
    ) -> DataObject {
        let d = DataObject::new(self.data.len(), name, size_mb, origin);
        self.data.push(d.clone());
        d
    }

    /// Replace the network policy (defaults to the paper's EC2 model).
    pub fn network(&mut self, network: NetworkPolicy) -> &mut Self {
        self.network = network;
        self
    }

    /// Install explicit transfer-price matrices.
    pub fn overrides(&mut self, overrides: CostOverrides) -> &mut Self {
        self.overrides = Some(overrides);
        self
    }

    /// Finalize; panics if the assembled cluster is structurally invalid
    /// (builder misuse is a programming error, not an input error).
    #[expect(
        clippy::expect_used,
        reason = "builder misuse is a programming error, not an input error"
    )]
    pub fn build(self) -> Cluster {
        let c = Cluster {
            zones: self.zones,
            machines: self.machines,
            stores: self.stores,
            data: self.data,
            network: self.network,
            overrides: self.overrides,
        };
        c.validate().expect("builder produced invalid cluster");
        c
    }
}

/// The three-zone layout every EC2 testbed in the paper uses.
fn three_zones(b: &mut ClusterBuilder) -> [ZoneId; 3] {
    [
        b.add_zone("us-east-1a"),
        b.add_zone("us-east-1b"),
        b.add_zone("us-east-1c"),
    ]
}

/// The 20-node Figure 6 testbed. `c1_fraction` of the nodes are c1.medium
/// (cheap fast cycles), the rest m1.medium; nodes round-robin across three
/// zones. `uptime` bounds the offline model's capacity per node.
///
/// Setting (i) of Fig 6 is `c1_fraction = 0.0`, setting (ii) ≈ `0.25`,
/// setting (iii) = `0.5`.
pub fn ec2_20_node(c1_fraction: f64, uptime: f64) -> Cluster {
    ec2_mixed_cluster(20, c1_fraction, uptime, 7)
}

/// A generalized Fig 6-style cluster of `n` nodes.
pub fn ec2_mixed_cluster(n: usize, c1_fraction: f64, uptime: f64, seed: u64) -> Cluster {
    let mut b = ClusterBuilder::new();
    let zones = three_zones(&mut b);
    let n_c1 = (n as f64 * c1_fraction).round() as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..n {
        let inst = if i < n_c1 {
            InstanceType::C1_MEDIUM
        } else {
            InstanceType::M1_MEDIUM
        };
        // Price diversity within the published hourly range.
        let t = rng.gen_range(0.0..1.0);
        b.add_machine(zones[i % 3], inst, t, uptime);
    }
    b.build()
}

/// The 100-node Figure 9 testbed: three zones, one third each of m1.small,
/// m1.medium and c1.medium.
pub fn ec2_100_node(uptime: f64, seed: u64) -> Cluster {
    let mut b = ClusterBuilder::new();
    let zones = three_zones(&mut b);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in 0..100 {
        let inst = match i % 3 {
            0 => InstanceType::M1_SMALL,
            1 => InstanceType::M1_MEDIUM,
            _ => InstanceType::C1_MEDIUM,
        };
        let t = rng.gen_range(0.0..1.0);
        b.add_machine(zones[i % 3], inst, t, uptime);
    }
    b.build()
}

/// Parameters for [`random_cluster`], defaulting to the Figure 5 ranges:
/// "CPU second cost range: 0–5 millicent; range of data transfer cost
/// between two nodes: 0–60 millicent per 64 MB".
#[derive(Debug, Clone)]
pub struct RandomClusterCfg {
    pub machines: usize,
    pub stores: usize,
    /// CPU price range in millicents per ECU-second.
    pub cpu_millicent: (f64, f64),
    /// Transfer price range in millicents per 64 MB block.
    pub transfer_millicent_per_block: (f64, f64),
    /// Machine throughput range in ECU.
    pub tp_ecu: (f64, f64),
    pub uptime: f64,
}

impl Default for RandomClusterCfg {
    fn default() -> Self {
        RandomClusterCfg {
            machines: 10,
            stores: 10,
            cpu_millicent: (0.0, 5.0),
            transfer_millicent_per_block: (0.0, 60.0),
            tp_ecu: (1.0, 5.0),
            uptime: 3600.0,
        }
    }
}

/// A fully random cluster per the Figure 5 simulation: every machine gets a
/// co-located store (extra standalone stores are added if `stores >
/// machines`), CPU prices and pairwise transfer prices drawn uniformly.
pub fn random_cluster(cfg: &RandomClusterCfg, seed: u64) -> Cluster {
    assert!(
        cfg.stores >= cfg.machines,
        "need at least one store per machine"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = ClusterBuilder::new();
    let zone = b.add_zone("sim");
    for i in 0..cfg.machines {
        let mid = b.add_machine(zone, InstanceType::M1_SMALL, 0.0, cfg.uptime);
        debug_assert_eq!(mid.0, i);
    }
    for _ in cfg.machines..cfg.stores {
        b.add_store(zone, 1e9);
    }
    // Randomize the machine hardware beyond the placeholder instance type.
    for m in &mut b.machines {
        m.tp_ecu = rng.gen_range(cfg.tp_ecu.0..=cfg.tp_ecu.1);
        m.cpu_cost = rng.gen_range(cfg.cpu_millicent.0..=cfg.cpu_millicent.1) * MILLICENT;
    }
    // Pairwise transfer prices (symmetric, zero diagonal for stores).
    let per_mb = |rng: &mut ChaCha8Rng| {
        rng.gen_range(cfg.transfer_millicent_per_block.0..=cfg.transfer_millicent_per_block.1)
            * MILLICENT
            / crate::BLOCK_MB
    };
    let s = cfg.stores;
    let mut ss = vec![vec![0.0; s]; s];
    for i in 0..s {
        for j in (i + 1)..s {
            let v = per_mb(&mut rng);
            ss[i][j] = v;
            ss[j][i] = v;
        }
    }
    let mut ms = vec![vec![0.0; s]; cfg.machines];
    for (l, row) in ms.iter_mut().enumerate() {
        for (m, cell) in row.iter_mut().enumerate() {
            // Reading from the co-located store is free; otherwise reuse the
            // store-store price between the machine's store and the source,
            // so "near" stores stay consistently near.
            *cell = if m == l { 0.0 } else { ss[l][m] };
        }
    }
    b.overrides(CostOverrides {
        ms_dollars_per_mb: ms,
        ss_dollars_per_mb: ss,
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_20_node_settings() {
        let c = ec2_20_node(0.0, 3600.0);
        assert_eq!(c.num_machines(), 20);
        assert!(c.machines.iter().all(|m| m.instance.name == "m1.medium"));
        assert_eq!(c.zones.len(), 3);

        let c = ec2_20_node(0.5, 3600.0);
        let n_c1 = c
            .machines
            .iter()
            .filter(|m| m.instance.name == "c1.medium")
            .count();
        assert_eq!(n_c1, 10);
        c.validate().unwrap();
    }

    #[test]
    fn ec2_20_node_has_price_diversity() {
        let c = ec2_20_node(0.0, 3600.0);
        assert!(c.min_cpu_cost() < c.max_cpu_cost());
    }

    #[test]
    fn ec2_100_node_mix() {
        let c = ec2_100_node(3600.0, 1);
        assert_eq!(c.num_machines(), 100);
        assert_eq!(c.num_stores(), 100);
        for name in ["m1.small", "m1.medium", "c1.medium"] {
            let n = c
                .machines
                .iter()
                .filter(|m| m.instance.name == name)
                .count();
            assert!((33..=34).contains(&n), "{name}: {n}");
        }
        c.validate().unwrap();
    }

    #[test]
    fn machines_spread_across_zones() {
        let c = ec2_100_node(3600.0, 1);
        for z in 0..3 {
            let n = c.machines.iter().filter(|m| m.zone == ZoneId(z)).count();
            assert!((33..=34).contains(&n));
        }
    }

    #[test]
    fn random_cluster_shapes_and_ranges() {
        let cfg = RandomClusterCfg {
            machines: 5,
            stores: 8,
            ..Default::default()
        };
        let c = random_cluster(&cfg, 99);
        assert_eq!(c.num_machines(), 5);
        assert_eq!(c.num_stores(), 8);
        c.validate().unwrap();
        for m in &c.machines {
            assert!(m.cpu_cost <= 5.0 * MILLICENT + 1e-15);
            assert!((1.0..=5.0).contains(&m.tp_ecu));
        }
        // Transfer prices live in the override matrices and are symmetric.
        let ov = c.overrides.as_ref().unwrap();
        for i in 0..8 {
            assert_eq!(ov.ss_dollars_per_mb[i][i], 0.0);
            for j in 0..8 {
                assert_eq!(ov.ss_dollars_per_mb[i][j], ov.ss_dollars_per_mb[j][i]);
            }
        }
    }

    #[test]
    fn random_cluster_is_seed_deterministic() {
        let cfg = RandomClusterCfg::default();
        let a = random_cluster(&cfg, 5);
        let b = random_cluster(&cfg, 5);
        let c = random_cluster(&cfg, 6);
        assert_eq!(a.machines[0].cpu_cost, b.machines[0].cpu_cost);
        assert_ne!(a.machines[0].cpu_cost, c.machines[0].cpu_cost);
    }

    #[test]
    fn builder_colocates_store_per_machine() {
        let mut b = ClusterBuilder::new();
        let z = b.add_zone("z");
        let m = b.add_machine(z, InstanceType::M1_SMALL, 0.5, 100.0);
        let c = b.build();
        assert_eq!(c.store_of_machine(m), Some(StoreId(0)));
        assert!((c.stores[0].capacity_mb - 160.0 * 1024.0).abs() < 1e-9);
    }

    #[test]
    fn builder_data_registration() {
        let mut b = ClusterBuilder::new();
        let z = b.add_zone("z");
        b.add_machine(z, InstanceType::M1_SMALL, 0.5, 100.0);
        let d = b.add_data("input", 640.0, StoreId(0));
        let c = b.build();
        assert_eq!(c.num_data(), 1);
        assert_eq!(c.data_object(d.id).origin, StoreId(0));
    }
}
