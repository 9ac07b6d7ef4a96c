//! Cluster-model property tests: every generated cluster is structurally
//! valid, its cost/bandwidth matrices satisfy the Table II axioms, and
//! serde round-trips exactly.

use lips_cluster::{
    ec2_100_node, ec2_mixed_cluster, random_cluster, Cluster, MachineId, RandomClusterCfg, StoreId,
};
use proptest::prelude::*;

fn axioms(c: &Cluster) {
    c.validate().unwrap();
    let s = c.num_stores();
    for i in 0..s {
        // SS: zero diagonal, symmetric (zone prices are symmetric and the
        // random generator mirrors its matrix), nonnegative.
        assert_eq!(c.ss_cost(StoreId(i), StoreId(i)), 0.0);
        for j in 0..s {
            let a = c.ss_cost(StoreId(i), StoreId(j));
            let b = c.ss_cost(StoreId(j), StoreId(i));
            assert!(a >= 0.0);
            assert!((a - b).abs() < 1e-15, "SS not symmetric at ({i},{j})");
        }
    }
    for l in 0..c.num_machines() {
        for m in 0..s {
            let ms = c.ms_cost(MachineId(l), StoreId(m));
            assert!(ms >= 0.0 && ms.is_finite());
            let bw = c.bandwidth_machine_store(MachineId(l), StoreId(m));
            assert!(bw > 0.0 && bw.is_finite());
            // Node-local reads are free and fastest.
            if c.store(StoreId(m)).is_local_to(MachineId(l)) {
                assert_eq!(ms, 0.0);
                assert_eq!(c.locality_level(MachineId(l), StoreId(m)), 0);
            }
        }
    }
    assert!(c.min_cpu_cost() <= c.max_cpu_cost());
    assert!(c.total_ecu() > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mixed_clusters_satisfy_axioms(
        n in 1usize..60,
        c1 in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let c = ec2_mixed_cluster(n, c1, 3600.0, seed);
        prop_assert_eq!(c.num_machines(), n);
        axioms(&c);
        // Every machine has a co-located store and vice versa.
        for m in &c.machines {
            prop_assert!(c.store_of_machine(m.id).is_some());
        }
    }

    #[test]
    fn random_clusters_satisfy_axioms(
        machines in 1usize..30,
        extra_stores in 0usize..10,
        seed in 0u64..10_000,
    ) {
        let cfg = RandomClusterCfg {
            machines,
            stores: machines + extra_stores,
            ..Default::default()
        };
        let c = random_cluster(&cfg, seed);
        prop_assert_eq!(c.num_stores(), machines + extra_stores);
        axioms(&c);
    }

    #[test]
    fn serde_roundtrip_random(seed in 0u64..1000) {
        let cfg = RandomClusterCfg { machines: 6, stores: 8, ..Default::default() };
        let c = random_cluster(&cfg, seed);
        let json = serde_json::to_string(&c).unwrap();
        let back: Cluster = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        // Costs survive the round trip to within 1 ULP (serde_json's
        // default float parser is not exactly round-tripping; enabling its
        // `float_roundtrip` feature would make this bit-exact).
        for l in 0..c.num_machines() {
            for m in 0..c.num_stores() {
                let a = c.ms_cost(MachineId(l), StoreId(m));
                let b = back.ms_cost(MachineId(l), StoreId(m));
                prop_assert!((a - b).abs() <= a.abs() * 1e-15, "{a} vs {b}");
            }
        }
    }
}

#[test]
fn hundred_node_testbed_axioms() {
    let c = ec2_100_node(3600.0, 42);
    axioms(&c);
    // Three instance types, three zones, one third each.
    let kinds: std::collections::BTreeSet<&str> =
        c.machines.iter().map(|m| m.instance.name).collect();
    assert_eq!(kinds.len(), 3);
}
