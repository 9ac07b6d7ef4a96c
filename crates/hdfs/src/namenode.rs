//! The NameNode: block map, replica locations, capacity accounting, and
//! re-replication.

use std::collections::BTreeMap;

use lips_cluster::{Cluster, DataId, MachineId, StoreId, BLOCK_MB};
use lips_sim::Placement;

use crate::block::{Block, BlockId};
use crate::chooser::ReplicationTargetChooser;

/// Namespace errors.
#[derive(Debug, Clone, PartialEq)]
pub enum HdfsError {
    /// No store has room for another replica of this block.
    OutOfCapacity { block: BlockId },
    /// The data object already has blocks registered.
    FileExists(DataId),
    /// Unknown block.
    NoSuchBlock(BlockId),
}

impl std::fmt::Display for HdfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HdfsError::OutOfCapacity { block } => {
                write!(f, "no store can hold another replica of {block:?}")
            }
            HdfsError::FileExists(d) => write!(f, "file for {d:?} already exists"),
            HdfsError::NoSuchBlock(b) => write!(f, "unknown block {b:?}"),
        }
    }
}

impl std::error::Error for HdfsError {}

/// The directory-namespace manager and "inode table" (§II's description).
#[derive(Debug, Default)]
pub struct NameNode {
    blocks: BTreeMap<BlockId, Block>,
    /// Blocks per file, in index order.
    files: BTreeMap<DataId, Vec<BlockId>>,
    /// Replica locations per block (insertion order = replica index).
    replicas: BTreeMap<BlockId, Vec<StoreId>>,
    /// MB used per store.
    used_mb: BTreeMap<StoreId, f64>,
    /// Stores declared dead by [`NameNode::lose_store`]; never chosen as
    /// re-replication targets until they rejoin.
    dead: Vec<StoreId>,
    next_block: u64,
    /// Target replication factor for new files.
    pub replication: usize,
}

impl NameNode {
    pub fn new(replication: usize) -> Self {
        NameNode {
            replication: replication.max(1),
            ..Default::default()
        }
    }

    /// Register a file of `size_mb` for `data`, splitting into 64 MB
    /// blocks and placing `replication` replicas of each via `chooser`.
    /// `writer` models which machine produced the data (None = external
    /// upload).
    pub fn create_file(
        &mut self,
        cluster: &Cluster,
        data: DataId,
        size_mb: f64,
        writer: Option<MachineId>,
        chooser: &mut dyn ReplicationTargetChooser,
    ) -> Result<Vec<BlockId>, HdfsError> {
        if self.files.contains_key(&data) {
            return Err(HdfsError::FileExists(data));
        }
        let mut ids = Vec::new();
        let mut left = size_mb;
        let mut index = 0;
        while left > 1e-9 {
            let size = left.min(BLOCK_MB);
            let id = BlockId(self.next_block);
            self.next_block += 1;
            self.blocks.insert(
                id,
                Block {
                    id,
                    data,
                    index,
                    size_mb: size,
                },
            );
            self.replicas.insert(id, Vec::new());
            for r in 0..self.replication {
                self.add_replica(cluster, id, writer, r, chooser)?;
            }
            ids.push(id);
            index += 1;
            left -= size;
        }
        self.files.insert(data, ids.clone());
        Ok(ids)
    }

    /// Place one more replica of `block` via `chooser`.
    fn add_replica(
        &mut self,
        cluster: &Cluster,
        block: BlockId,
        writer: Option<MachineId>,
        replica_idx: usize,
        chooser: &mut dyn ReplicationTargetChooser,
    ) -> Result<StoreId, HdfsError> {
        let meta = *self
            .blocks
            .get(&block)
            .ok_or(HdfsError::NoSuchBlock(block))?;
        let existing = self.replicas[&block].clone();
        // Usable: DataNode stores with room, not already holding a replica.
        let usable: Vec<StoreId> = cluster
            .stores
            .iter()
            .filter(|s| s.colocated.is_some())
            .filter(|s| !self.dead.contains(&s.id))
            .filter(|s| !existing.contains(&s.id))
            .filter(|s| {
                self.used_mb.get(&s.id).copied().unwrap_or(0.0) + meta.size_mb <= s.capacity_mb
            })
            .map(|s| s.id)
            .collect();
        let target = chooser
            .choose(cluster, writer, &existing, replica_idx, &usable)
            .ok_or(HdfsError::OutOfCapacity { block })?;
        assert!(usable.contains(&target), "chooser returned unusable store");
        self.replicas.entry(block).or_default().push(target);
        *self.used_mb.entry(target).or_default() += meta.size_mb;
        Ok(target)
    }

    /// Drop a replica (DataNode loss); the block may become
    /// under-replicated.
    pub fn lose_replica(&mut self, block: BlockId, store: StoreId) -> Result<(), HdfsError> {
        let meta = *self
            .blocks
            .get(&block)
            .ok_or(HdfsError::NoSuchBlock(block))?;
        let reps = self
            .replicas
            .get_mut(&block)
            .ok_or(HdfsError::NoSuchBlock(block))?;
        if let Some(pos) = reps.iter().position(|&s| s == store) {
            reps.remove(pos);
            if let Some(used) = self.used_mb.get_mut(&store) {
                *used -= meta.size_mb;
            }
        }
        Ok(())
    }

    /// Drop **every** replica held on `store` (whole-DataNode loss, the
    /// fault-injection event). Returns the affected blocks, sorted; each
    /// becomes under-replicated — or unreadable, if `store` held its last
    /// copy — until [`NameNode::re_replicate`] runs.
    pub fn lose_store(&mut self, store: StoreId) -> Vec<BlockId> {
        let mut affected: Vec<BlockId> = self
            .replicas
            .iter()
            .filter(|(_, reps)| reps.contains(&store))
            .map(|(&b, _)| b)
            .collect();
        affected.sort();
        for &block in &affected {
            if let Some(reps) = self.replicas.get_mut(&block) {
                reps.retain(|&s| s != store);
            }
        }
        self.used_mb.remove(&store);
        if !self.dead.contains(&store) {
            self.dead.push(store);
        }
        affected
    }

    /// A dead store returns empty (its contents are gone; blocks re-enter
    /// via the chooser like any other store's).
    pub fn rejoin_store(&mut self, store: StoreId) {
        self.dead.retain(|&s| s != store);
    }

    /// Blocks with fewer than the target number of replicas.
    pub fn under_replicated(&self) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self
            .replicas
            .iter()
            .filter(|(_, reps)| reps.len() < self.replication)
            .map(|(&b, _)| b)
            .collect();
        v.sort();
        v
    }

    /// Restore every under-replicated block to the target factor.
    pub fn re_replicate(
        &mut self,
        cluster: &Cluster,
        chooser: &mut dyn ReplicationTargetChooser,
    ) -> Result<usize, HdfsError> {
        let todo = self.under_replicated();
        let mut added = 0;
        for block in todo {
            while self.replicas[&block].len() < self.replication {
                let idx = self.replicas[&block].len();
                self.add_replica(cluster, block, None, idx, chooser)?;
                added += 1;
            }
        }
        Ok(added)
    }

    /// Replica locations of one block.
    pub fn replicas_of(&self, block: BlockId) -> &[StoreId] {
        self.replicas
            .get(&block)
            .map_or(&[], std::vec::Vec::as_slice)
    }

    /// Blocks of one file, in order.
    pub fn blocks_of(&self, data: DataId) -> &[BlockId] {
        self.files.get(&data).map_or(&[], std::vec::Vec::as_slice)
    }

    /// Block metadata.
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(&id)
    }

    /// MB used per store (the `dfsadmin -report` view).
    pub fn used_mb(&self, store: StoreId) -> f64 {
        self.used_mb.get(&store).copied().unwrap_or(0.0)
    }

    /// Total registered file bytes (MB, one copy).
    pub fn logical_mb(&self) -> f64 {
        self.blocks.values().map(|b| b.size_mb).sum()
    }

    /// Convert the namespace into a simulator [`Placement`]: every replica
    /// becomes presence of its block's MB at its store, readable at t = 0.
    pub fn to_placement(&self) -> Placement {
        let mut p = Placement::empty();
        for (block, reps) in &self.replicas {
            let meta = self.blocks[block];
            for &s in reps {
                p.add_copy(meta.data, s, meta.size_mb, 0.0);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::{CostAwareTargetChooser, DefaultTargetChooser};
    use lips_cluster::ec2_20_node;

    #[test]
    fn create_file_splits_blocks_and_replicates() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut nn = NameNode::new(3);
        let mut ch = DefaultTargetChooser::new(1);
        let blocks = nn
            .create_file(&c, DataId(0), 200.0, Some(MachineId(4)), &mut ch)
            .unwrap();
        assert_eq!(blocks.len(), 4); // 64+64+64+8
        assert!((nn.logical_mb() - 200.0).abs() < 1e-9);
        for &b in &blocks {
            let reps = nn.replicas_of(b);
            assert_eq!(reps.len(), 3);
            // No duplicate stores within one block's replica set.
            let mut uniq = reps.to_vec();
            uniq.dedup();
            assert_eq!(uniq.len(), 3);
        }
        // First replica writer-local.
        let first = nn.replicas_of(blocks[0])[0];
        assert_eq!(c.store(first).colocated, Some(MachineId(4)));
        assert!(nn.under_replicated().is_empty());
    }

    #[test]
    fn duplicate_file_rejected() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut nn = NameNode::new(1);
        let mut ch = DefaultTargetChooser::new(1);
        nn.create_file(&c, DataId(0), 64.0, None, &mut ch).unwrap();
        assert_eq!(
            nn.create_file(&c, DataId(0), 64.0, None, &mut ch)
                .unwrap_err(),
            HdfsError::FileExists(DataId(0))
        );
    }

    #[test]
    fn replica_loss_and_rereplication() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut nn = NameNode::new(3);
        let mut ch = DefaultTargetChooser::new(2);
        let blocks = nn.create_file(&c, DataId(0), 64.0, None, &mut ch).unwrap();
        let victim = nn.replicas_of(blocks[0])[0];
        let used_before = nn.used_mb(victim);
        nn.lose_replica(blocks[0], victim).unwrap();
        assert_eq!(nn.under_replicated(), vec![blocks[0]]);
        assert!(nn.used_mb(victim) < used_before);
        let added = nn.re_replicate(&c, &mut ch).unwrap();
        assert_eq!(added, 1);
        assert!(nn.under_replicated().is_empty());
        assert_eq!(nn.replicas_of(blocks[0]).len(), 3);
    }

    #[test]
    fn store_loss_and_rereplication_restore_the_factor() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut nn = NameNode::new(3);
        let mut ch = DefaultTargetChooser::new(2);
        let blocks = nn.create_file(&c, DataId(0), 192.0, None, &mut ch).unwrap();
        // Kill the store holding block 0's first replica — every block it
        // held becomes under-replicated at once.
        let victim = nn.replicas_of(blocks[0])[0];
        let affected = nn.lose_store(victim);
        assert!(affected.contains(&blocks[0]));
        assert_eq!(nn.under_replicated(), affected);
        assert!((nn.used_mb(victim) - 0.0).abs() < 1e-12);
        // Repair: back to factor 3 everywhere, never using the dead store.
        let added = nn.re_replicate(&c, &mut ch).unwrap();
        assert_eq!(added, affected.len());
        assert!(nn.under_replicated().is_empty());
        for &b in &blocks {
            assert_eq!(nn.replicas_of(b).len(), 3);
            assert!(!nn.replicas_of(b).contains(&victim), "dead store reused");
        }
        // Losing an already-dead store is a no-op.
        assert!(nn.lose_store(victim).is_empty());
        // After a rejoin the store is choosable again (it starts empty).
        nn.rejoin_store(victim);
        let b0 = blocks[0];
        nn.lose_replica(b0, nn.replicas_of(b0)[0]).unwrap();
        nn.re_replicate(&c, &mut ch).unwrap();
        assert!(nn.under_replicated().is_empty());
    }

    #[test]
    fn capacity_exhaustion_detected() {
        let mut c = ec2_20_node(0.0, 3600.0);
        for s in &mut c.stores {
            s.capacity_mb = 100.0;
        }
        let mut nn = NameNode::new(3);
        let mut ch = DefaultTargetChooser::new(3);
        // 20 stores × 100 MB = 2000 MB total; 3× replication of 1 GB needs
        // 3072 MB — must fail midway.
        let err = nn
            .create_file(&c, DataId(0), 1024.0, None, &mut ch)
            .unwrap_err();
        assert!(matches!(err, HdfsError::OutOfCapacity { .. }));
    }

    #[test]
    fn to_placement_matches_namespace() {
        let c = ec2_20_node(0.0, 3600.0);
        let mut nn = NameNode::new(2);
        let mut ch = DefaultTargetChooser::new(4);
        nn.create_file(&c, DataId(0), 192.0, None, &mut ch).unwrap();
        let p = nn.to_placement();
        let total: f64 = p.stores_of(DataId(0)).iter().map(|&(_, mb)| mb).sum();
        assert!((total - 2.0 * 192.0).abs() < 1e-9);
        // Per-store usage agrees between the two views.
        for (s, mb) in p.stores_of(DataId(0)) {
            assert!((nn.used_mb(s) - mb).abs() < 1e-9);
        }
    }

    #[test]
    fn cost_aware_namespace_concentrates_on_cheap_nodes() {
        let c = ec2_20_node(0.5, 3600.0);
        let mut nn = NameNode::new(1);
        let mut ch = CostAwareTargetChooser::new(5.0);
        nn.create_file(&c, DataId(0), 640.0, None, &mut ch).unwrap();
        // Every replica sits next to the single cheapest machine... until
        // capacity intervenes; with ample capacity they all do.
        let p = nn.to_placement();
        let holders = p.stores_of(DataId(0));
        assert_eq!(holders.len(), 1);
        let m = c.store(holders[0].0).colocated.unwrap();
        assert!((c.machine(m).cpu_cost - c.min_cpu_cost()).abs() < 1e-15);
    }
}
