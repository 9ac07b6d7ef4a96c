//! # lips-hdfs — the HDFS namespace model
//!
//! The paper's LiPS implementation "is an instance of the Hadoop
//! TaskScheduler interface … It also includes a new
//! **ReplicationTargetChooser** for data placement in the NameNode"
//! (§VI-A). This crate models that component honestly:
//!
//! * [`namenode::NameNode`] — the block map: files split into 64 MB
//!   blocks, replica locations per block, per-store usage, and
//!   under-replication reporting.
//! * [`chooser`] — the pluggable placement policy:
//!   [`chooser::DefaultTargetChooser`] reproduces Hadoop's
//!   writer-local / remote-rack / same-remote-rack rule, and
//!   [`chooser::CostAwareTargetChooser`] is LiPS's replacement — it
//!   weighs the *CPU price of the cycles next to a replica* against the
//!   transfer cost of putting it there, so data is born near cheap
//!   compute.
//!
//! [`namenode::NameNode::to_placement`] converts the namespace into a
//! [`lips_sim::Placement`], so any simulator run can start from an
//! HDFS-accurate block layout produced by either chooser.

//!
//! ```
//! use lips_hdfs::{DefaultTargetChooser, NameNode};
//! use lips_cluster::{ec2_20_node, DataId, MachineId};
//!
//! let cluster = ec2_20_node(0.0, 3600.0);
//! let mut nn = NameNode::new(3);
//! let mut chooser = DefaultTargetChooser::new(7);
//! let blocks = nn
//!     .create_file(&cluster, DataId(0), 200.0, Some(MachineId(4)), &mut chooser)
//!     .unwrap();
//! assert_eq!(blocks.len(), 4); // 64+64+64+8 MB
//! assert!(nn.under_replicated().is_empty());
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod block;
pub mod chooser;
pub mod namenode;

pub use block::{Block, BlockId};
pub use chooser::{CostAwareTargetChooser, DefaultTargetChooser, ReplicationTargetChooser};
pub use namenode::NameNode;
