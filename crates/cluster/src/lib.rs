//! # lips-cluster — the heterogeneous cloud model
//!
//! Everything the LiPS scheduler needs to know about the world: computation
//! nodes `M`, data stores `S`, data objects `D`, availability zones, and the
//! price/bandwidth matrices of Table II of the paper (`JM`, `MS`, `SS`,
//! `B`).
//!
//! ## Units
//!
//! The crate uses a single consistent unit system, matching how the paper
//! breaks Amazon's pricing down:
//!
//! * **data**: megabytes (`f64`); the HDFS block size is
//!   [`BLOCK_MB`] = 64 MB.
//! * **compute**: EC2-Compute-Unit-seconds ("ECU-seconds"). A machine's
//!   throughput `TP(M)` is in ECUs (ECU-seconds per wall-clock second);
//!   a job's intensity `TCP` is in ECU-seconds per MB of input.
//! * **money**: dollars (`f64`); 1 millicent = [`MILLICENT`] dollars. CPU
//!   prices are dollars per ECU-second, transfer prices dollars per MB.
//! * **time**: seconds (`f64`).
//!
//! ```
//! use lips_cluster::{ec2_20_node, MachineId, StoreId};
//!
//! let cluster = ec2_20_node(0.5, 3600.0); // 20 nodes, half c1.medium
//! assert_eq!(cluster.num_machines(), 20);
//! // Node-local reads are free; cross-zone reads pay $0.01/GB.
//! assert_eq!(cluster.ms_cost(MachineId(0), StoreId(0)), 0.0);
//! assert!(cluster.min_cpu_cost() < cluster.max_cpu_cost());
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod builder;
pub mod cluster;
pub mod data;
pub mod instance;
pub mod machine;
pub mod matrices;
pub mod store;
pub mod zone;

pub use builder::{
    ec2_100_node, ec2_20_node, ec2_mixed_cluster, random_cluster, ClusterBuilder, RandomClusterCfg,
};
pub use cluster::Cluster;
pub use cluster::CostOverrides;
pub use data::{DataId, DataObject};
pub use instance::InstanceType;
pub use machine::{Machine, MachineId};
pub use matrices::{MatrixJob, SchedulingMatrices};
pub use store::{Store, StoreId};
pub use zone::{NetworkPolicy, Zone, ZoneId};

/// HDFS block size in MB (Hadoop 0.20 default used throughout the paper).
pub const BLOCK_MB: f64 = 64.0;

/// One millicent in dollars ($0.00001).
pub const MILLICENT: f64 = 1e-5;

/// Dollars per MB for data crossing availability zones: the paper's
/// "$0.01 per GB (62.5 millicent per 64 MB block)".
pub const CROSS_ZONE_DOLLARS_PER_MB: f64 = 0.01 / 1024.0;

/// Intra-zone bandwidth in MB/s (500 Mbps).
pub const INTRA_ZONE_MBPS: f64 = 500.0 / 8.0;

/// Cross-zone bandwidth in MB/s (250 Mbps).
pub const CROSS_ZONE_MBPS: f64 = 250.0 / 8.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_zone_price_matches_paper_block_figure() {
        // Paper: 62.5 millicents per 64 MB block.
        let per_block = CROSS_ZONE_DOLLARS_PER_MB * BLOCK_MB;
        assert!((per_block - 62.5 * MILLICENT).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_constants_are_mbytes() {
        assert!((INTRA_ZONE_MBPS - 62.5).abs() < 1e-12);
        assert!((CROSS_ZONE_MBPS - 31.25).abs() < 1e-12);
    }
}
