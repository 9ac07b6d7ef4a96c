//! Property tests for the typed LP identities: `ColKey`/`RowKey` packing
//! round-trips, is injective over the documented field ranges (which
//! cover the 10k-node scale probe), never confuses a task arc with a copy
//! or fake column, and renders the historical column and row names.

use lips_cluster::{MachineId, StoreId};
use lips_core::{ColKey, RowKey};
use lips_workload::JobId;
use proptest::prelude::*;

const JOBS: usize = 1 << 31;
const IDS: usize = 1 << 16;

fn col_strategy() -> impl Strategy<Value = ColKey> {
    (
        0usize..3,
        0..JOBS,
        0..IDS,
        0..IDS - 1,
        any::<bool>(),
        0usize..1 << 14,
    )
        .prop_map(|(variant, job, machine, store, has_store, class)| {
            let job = JobId(job);
            match variant {
                0 => ColKey::Task {
                    job,
                    machine: MachineId(machine),
                    store: has_store.then_some(StoreId(store)),
                },
                1 => ColKey::Nd {
                    job,
                    dest: StoreId(machine),
                    class,
                },
                _ => ColKey::Fake { job },
            }
        })
}

fn row_strategy() -> impl Strategy<Value = RowKey> {
    (0usize..6, 0usize..1 << 32, 0..IDS).prop_map(|(variant, job, id)| {
        let job = JobId(job);
        match variant {
            0 => RowKey::Cov { job },
            1 => RowKey::Lnk {
                job,
                store: StoreId(id),
            },
            2 => RowKey::Cpu {
                machine: MachineId(id),
            },
            3 => RowKey::Xfer {
                machine: MachineId(id),
            },
            4 => RowKey::Pool { pool: id },
            _ => RowKey::Store { store: StoreId(id) },
        }
    })
}

fn old_col_name(c: ColKey) -> String {
    match c {
        ColKey::Task {
            job,
            machine,
            store: Some(s),
        } => format!("xt_{}_{}_{}", job.0, machine.0, s.0),
        ColKey::Task {
            job,
            machine,
            store: None,
        } => format!("xt_{}_{}", job.0, machine.0),
        ColKey::Nd { job, dest, class } => format!("nd_{}_{}_{class}", job.0, dest.0),
        ColKey::Fake { job } => format!("fake_{}", job.0),
    }
}

fn old_row_name(r: RowKey) -> String {
    match r {
        RowKey::Cov { job } => format!("cov_{}", job.0),
        RowKey::Lnk { job, store } => format!("lnk_{}_{}", job.0, store.0),
        RowKey::Cpu { machine } => format!("cpu_{}", machine.0),
        RowKey::Xfer { machine } => format!("xfer_{}", machine.0),
        RowKey::Pool { pool } => format!("pool_{pool}"),
        RowKey::Store { store } => format!("store_{}", store.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn col_keys_round_trip_and_are_injective(a in col_strategy(), b in col_strategy()) {
        prop_assert_eq!(ColKey::unpack(a.pack()), Some(a));
        prop_assert_eq!(a == b, a.pack() == b.pack(), "{:?} vs {:?}", a, b);
        prop_assert_eq!(a.to_string(), old_col_name(a));
    }

    #[test]
    fn row_keys_round_trip_and_are_injective(a in row_strategy(), b in row_strategy()) {
        prop_assert_eq!(RowKey::unpack(a.pack()), Some(a));
        prop_assert_eq!(a == b, a.pack() == b.pack(), "{:?} vs {:?}", a, b);
        prop_assert_eq!(a.to_string(), old_row_name(a));
    }

    #[test]
    fn keys_differing_in_one_field_differ(a in col_strategy(), bump in 1usize..7) {
        // Neighbouring ids are the likeliest collision in a packed layout.
        let b = match a {
            ColKey::Task { job, machine, store } => ColKey::Task {
                job,
                machine: MachineId((machine.0 + bump) % IDS),
                store,
            },
            ColKey::Nd { job, dest, class } => ColKey::Nd {
                job: JobId((job.0 + bump) % JOBS),
                dest,
                class,
            },
            ColKey::Fake { job } => ColKey::Fake {
                job: JobId((job.0 + bump) % JOBS),
            },
        };
        prop_assert_ne!(a.pack(), b.pack());
    }
}

#[test]
fn range_edges_round_trip() {
    let edges = [
        ColKey::Task {
            job: JobId(JOBS - 1),
            machine: MachineId(IDS - 1),
            store: Some(StoreId(IDS - 2)),
        },
        ColKey::Task {
            job: JobId(0),
            machine: MachineId(0),
            store: None,
        },
        ColKey::Nd {
            job: JobId(JOBS - 1),
            dest: StoreId(IDS - 1),
            class: (1 << 14) - 1,
        },
        ColKey::Fake {
            job: JobId(JOBS - 1),
        },
    ];
    for c in edges {
        assert_eq!(ColKey::unpack(c.pack()), Some(c));
    }
    let row = RowKey::Lnk {
        job: JobId((1 << 32) - 1),
        store: StoreId(IDS - 1),
    };
    assert_eq!(RowKey::unpack(row.pack()), Some(row));
    // Keys no identity packs to are rejected, not misread.
    assert_eq!(RowKey::unpack(0), None);
    assert_eq!(RowKey::unpack(7 << 60), None);
    assert_eq!(ColKey::unpack((1 << 63) | (2 << 30)), None);
}
