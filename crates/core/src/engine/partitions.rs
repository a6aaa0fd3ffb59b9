//! Partition bookkeeping (§5): the leader cache, allocation, partition
//! create/copy/dealloc support, diffs, and written-rank scans.
//!
//! A partition's persistent state is its *leader* — a data chunk of the
//! system partition holding the crypto parameters, map root, allocation
//! high-water, free list, and copy links. The engine caches decoded
//! leaders with their partition's [`Ranks`] beside them, one
//! [`LeaderEntry`] per partition. The system partition's entry is always
//! cached: its leader is the partition map's tree state, which the system
//! leader carries, and its ranks are the partition ids (§5.1). Commit and
//! recovery's roll-forward (§4.8) install what a commit set wrote or freed
//! through the same four steps, `install_chunk`, `install_leader`,
//! `free_chunk` and `drop_partition`, so a replay redoes the commit.

use std::sync::Arc;

use crate::descriptor::{ChunkStatus, Descriptor};
use crate::engine::ranks::Ranks;
use crate::engine::rollback::Undo;
use crate::errors::{CoreError, Result};
use crate::ids::{ChunkId, PartitionId, Position};
use crate::leader::PartitionLeader;
use crate::params::PartitionCrypto;
use crate::store::Inner;
use crate::version::VersionKind;

/// How a chunk position changed between two partitions (§5.1 `Diff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffChange {
    /// Written in `new` but not in `old`.
    Created,
    /// Written in both with different state.
    Updated,
    /// Written in `old` but not in `new`.
    Deallocated,
}

/// One entry of a partition diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffEntry {
    /// Data-chunk position that changed.
    pub pos: Position,
    /// Kind of change.
    pub change: DiffChange,
}

/// Cached per-partition state: decoded leader, runtime crypto, and the
/// partition's chunk-id allocator.
#[derive(Clone)]
pub(crate) struct LeaderEntry {
    pub leader: PartitionLeader,
    pub crypto: Arc<PartitionCrypto>,
    pub ranks: Ranks,
    /// True when committed leader state changed since its last version was
    /// written; checkpoints persist dirty leaders. Meaningless for the
    /// system partition, whose leader every checkpoint writes last.
    pub dirty: bool,
    /// Undo-journal generation that last recorded this entry's pre-image.
    stamp: u64,
}

impl LeaderEntry {
    pub(crate) fn new(leader: PartitionLeader) -> Result<LeaderEntry> {
        let crypto = Arc::new(leader.params.runtime()?);
        Ok(LeaderEntry::with_crypto(leader, crypto))
    }

    /// An entry whose runtime crypto is already built (the system
    /// partition's is the engine's).
    pub(crate) fn with_crypto(
        leader: PartitionLeader,
        crypto: Arc<PartitionCrypto>,
    ) -> LeaderEntry {
        LeaderEntry {
            crypto,
            ranks: Ranks::new(&leader),
            leader,
            dirty: false,
            stamp: 0,
        }
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<LeaderEntry>() + 8 * self.leader.free_ranks.len() + self.ranks.bytes()
    }
}

/// The one refusal of the system partition: a partition a caller names —
/// to a [`crate::store::ChunkStore`] method or in a commit's ops — is any
/// but it, whose data chunks are the partition leaders (§5.2). Engine paths
/// reach it through [`Inner::leader_entry`] like any other.
pub(crate) fn named(p: PartitionId) -> Result<PartitionId> {
    if p.is_system() {
        return Err(CoreError::NoSuchPartition(p));
    }
    Ok(p)
}

impl Inner {
    // -- Leader and crypto access --------------------------------------------

    /// Loads (if needed) and returns the cached state for a partition.
    pub(crate) fn leader_entry(&mut self, p: PartitionId) -> Result<&LeaderEntry> {
        if !self.leaders.contains_key(&p) {
            let id = ChunkId::leader_chunk(p);
            let desc = self.get_descriptor(id)?;
            if desc.status != ChunkStatus::Written {
                return Err(CoreError::NoSuchPartition(p));
            }
            let body = self.read_validated(id, &desc)?;
            let leader = PartitionLeader::decode(&body)?;
            self.cache_leader(p, LeaderEntry::new(leader)?);
        }
        Ok(&self.leaders[&p])
    }

    /// Whether `p` is written. Only [`CoreError::NoSuchPartition`] means
    /// absent: a leader that cannot be read or fails validation is an
    /// error, never a free id.
    pub(crate) fn partition_exists(&mut self, p: PartitionId) -> Result<bool> {
        match self.leader_entry(p) {
            Ok(_) => Ok(true),
            Err(CoreError::NoSuchPartition(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// [`Inner::leader_entry`] for a caller about to change the entry:
    /// inside a mutation scope its pre-image goes to the undo journal first.
    pub(crate) fn leader_entry_mut(&mut self, p: PartitionId) -> Result<&mut LeaderEntry> {
        self.leader_entry(p)?;
        let entry = self.leaders.get_mut(&p).expect("loaded above");
        if self.undo.wants(entry.stamp) {
            let pre = Undo::Leader(p, Some(Box::new(entry.clone())));
            self.undo.push(pre, entry.bytes());
            entry.stamp = self.undo.stamp();
        }
        Ok(entry)
    }

    /// Puts `entry` in the leader cache under `p`, journaling what it
    /// displaces (or that nothing was there).
    fn cache_leader(&mut self, p: PartitionId, mut entry: LeaderEntry) {
        entry.stamp = self.undo.stamp();
        let old = self.leaders.insert(p, entry);
        self.log_displaced_leader(p, old);
    }

    fn log_displaced_leader(&mut self, p: PartitionId, old: Option<LeaderEntry>) {
        match old {
            Some(old) if self.undo.wants(old.stamp) => {
                let bytes = old.bytes();
                self.undo.push(Undo::Leader(p, Some(Box::new(old))), bytes);
            }
            Some(_) => {}
            None => self.undo.push(Undo::Leader(p, None), 0),
        }
    }

    /// The partition map's tree state: the system partition's leader.
    pub(crate) fn system_map(&self) -> &PartitionLeader {
        &self.leaders[&PartitionId::SYSTEM].leader
    }

    /// Runtime crypto for a partition.
    pub(crate) fn crypto_for(&mut self, p: PartitionId) -> Result<Arc<PartitionCrypto>> {
        Ok(Arc::clone(&self.leader_entry(p)?.crypto))
    }

    /// The tree height of a partition's position map.
    pub(crate) fn tree_height(&mut self, p: PartitionId) -> Result<u8> {
        Ok(self.leader_entry(p)?.leader.height)
    }

    pub(crate) fn root_descriptor(&mut self, p: PartitionId) -> Result<Descriptor> {
        Ok(self.leader_entry(p)?.leader.root)
    }

    pub(crate) fn set_root_descriptor(&mut self, p: PartitionId, desc: Descriptor) -> Result<()> {
        let entry = self.leader_entry_mut(p)?;
        entry.leader.root = desc;
        entry.dirty = true;
        Ok(())
    }

    // -- Allocation (§4.4) ----------------------------------------------------

    /// Reserves a chunk id in `p`; in the system partition, a partition
    /// id's leader chunk (§5.1).
    pub(crate) fn allocate_chunk(&mut self, p: PartitionId) -> Result<ChunkId> {
        Ok(ChunkId::data(p, self.leader_entry_mut(p)?.ranks.reserve()))
    }

    /// Puts a rank [`Inner::allocate_chunk`] reserved, and no commit wrote,
    /// back on the partition's free list.
    pub(crate) fn release_chunk(&mut self, id: ChunkId) -> Result<()> {
        let entry = self.leader_entry_mut(id.partition)?;
        entry.ranks.release(id.pos.rank);
        Ok(())
    }

    /// Encodes and writes a partition leader as a system data chunk.
    pub(crate) fn write_partition_leader(
        &mut self,
        p: PartitionId,
        leader: PartitionLeader,
    ) -> Result<()> {
        let id = ChunkId::leader_chunk(p);
        let desc = self.write_named(VersionKind::Named, id, &leader.encode())?;
        self.install_leader(p, leader, desc)
    }

    /// Deallocates `p` and (recursively) all of its copies (§5.1).
    pub(crate) fn dealloc_partition(
        &mut self,
        p: PartitionId,
        dealloc_ids: &mut Vec<ChunkId>,
    ) -> Result<()> {
        // Gather the closure of copies first.
        let mut closure = vec![p];
        let mut i = 0;
        while let Some(&q) = closure.get(i) {
            i += 1;
            let copies = self.leader_entry(q).map(|e| e.leader.copies.clone());
            for c in copies.unwrap_or_default() {
                if !closure.contains(&c) {
                    closure.push(c);
                }
            }
        }
        // The rest of the family, gathered while every link is in place:
        // a version stays charged while one of its members points at it.
        let mut others = self.copy_family(p)?;
        // Detach from a surviving source, if any.
        let source = self.leader_entry(p)?.leader.source;
        if let Some(src) = source {
            if !closure.contains(&src) {
                if let Ok(entry) = self.leader_entry(src) {
                    let mut updated = entry.leader.clone();
                    updated.copies.retain(|c| *c != p);
                    self.write_partition_leader(src, updated)?;
                }
            }
        }
        for q in closure {
            dealloc_ids.push(ChunkId::leader_chunk(q));
            self.drop_partition(q, &mut others)?;
        }
        Ok(())
    }

    // -- Installing a commit's effects (commit and recovery alike) -----------

    /// Installs a written data chunk's descriptor; its rank leaves the
    /// free and reserved lists. Returns whether the chunk was not written
    /// before.
    pub(crate) fn install_chunk(&mut self, id: ChunkId, desc: Descriptor) -> Result<bool> {
        self.ensure_capacity(id.partition, id.pos.rank)?;
        let first = !self.set_descriptor(id, desc)?.is_written();
        let entry = self.leader_entry_mut(id.partition)?;
        entry.ranks.wrote(&mut entry.leader, id.pos.rank, first);
        entry.dirty = true;
        Ok(first)
    }

    /// Installs a written partition leader: its descriptor, its rank (the
    /// partition id), the leader cache, and for a new copy the source's
    /// buffered map overrides, its updates since the checkpoint (§5.3).
    pub(crate) fn install_leader(
        &mut self,
        p: PartitionId,
        leader: PartitionLeader,
        desc: Descriptor,
    ) -> Result<()> {
        let first = self.install_chunk(ChunkId::leader_chunk(p), desc)?;
        if let Some(src) = leader.source.filter(|_| first) {
            self.map_cache.clone_dirty(src, p);
        }
        if self.leaders.contains_key(&p) {
            let entry = self.leader_entry_mut(p)?;
            entry.ranks.refresh(&leader);
            entry.leader = leader;
            entry.dirty = false;
        } else {
            self.cache_leader(p, LeaderEntry::new(leader)?);
        }
        Ok(())
    }

    /// Frees a written data chunk: its descriptor goes unallocated and its
    /// rank onto the partition's free lists.
    pub(crate) fn free_chunk(&mut self, id: ChunkId) -> Result<()> {
        self.set_descriptor(id, Descriptor::unallocated())?;
        let entry = self.leader_entry_mut(id.partition)?;
        entry.ranks.freed(&mut entry.leader, id.pos.rank);
        entry.dirty = true;
        Ok(())
    }

    /// Drops `q` from a deallocated family (`others`, which it leaves):
    /// uncharges what only it points at, frees its leader's descriptor and
    /// rank, and forgets its cached leader and map chunks.
    pub(crate) fn drop_partition(
        &mut self,
        q: PartitionId,
        others: &mut Vec<PartitionId>,
    ) -> Result<()> {
        others.retain(|o| *o != q);
        self.uncharge_partition(q, others)?;
        self.free_chunk(ChunkId::leader_chunk(q))?;
        let old = self.leaders.remove(&q);
        self.log_displaced_leader(q, old);
        self.map_cache.purge_partition(q);
        Ok(())
    }

    /// The partitions that may share versions with `p`, `p` excluded: its
    /// copy family, reached through source and copies links (§5.3). Empty,
    /// at the cost of one leader lookup, for a partition never copied.
    pub(crate) fn copy_family(&mut self, p: PartitionId) -> Result<Vec<PartitionId>> {
        let (mut seen, mut family, mut next, mut q) = (Vec::new(), Vec::new(), 0, p);
        loop {
            match self.leader_entry(q) {
                Ok(entry) => {
                    let leader = &entry.leader;
                    for n in leader.copies.iter().copied().chain(leader.source) {
                        if n != p && !seen.contains(&n) {
                            seen.push(n);
                        }
                    }
                    if q != p {
                        family.push(q);
                    }
                }
                Err(CoreError::NoSuchPartition(_)) => {}
                Err(e) => return Err(e),
            }
            let Some(&n) = seen.get(next) else {
                return Ok(family);
            };
            (q, next) = (n, next + 1);
        }
    }

    /// The first partition in `others` that points at `desc`'s version at
    /// `pos`.
    pub(crate) fn holder(
        &mut self,
        others: &[PartitionId],
        pos: Position,
        desc: &Descriptor,
    ) -> Result<Option<PartitionId>> {
        for &o in others {
            let theirs = self.get_descriptor(ChunkId::new(o, pos))?;
            if theirs.is_written() && theirs.location == desc.location {
                return Ok(Some(o));
            }
        }
        Ok(None)
    }

    /// Takes the versions only `q` points at off their segments'
    /// utilization; one that a partition in `others` (the rest of its copy
    /// family) points at at the same position stays charged, as
    /// `set_descriptor` charges a version once however many partitions
    /// share it. A map subtree `q` shares with one of them, and that
    /// neither has changed in memory, is skipped whole, so deallocating a
    /// snapshot walks only what changed since it was taken.
    pub(crate) fn uncharge_partition(
        &mut self,
        q: PartitionId,
        others: &[PartitionId],
    ) -> Result<()> {
        let fanout = self.fanout();
        let mut stack = vec![Position::map(self.leader_entry(q)?.leader.height, 0)];
        while let Some(pos) = stack.pop() {
            let desc = self.get_descriptor(ChunkId::new(q, pos))?;
            let dirty = pos.is_map() && self.subtree_has_dirty(q, pos);
            let holder = if desc.is_written() {
                self.holder(others, pos, &desc)?
            } else {
                None
            };
            match holder {
                Some(o) if !dirty && !self.subtree_has_dirty(o, pos) => continue,
                Some(_) => {}
                None if desc.is_written() => {
                    let seg = self.log.segment_of(desc.location);
                    self.update_utilization(seg, |live| live.saturating_sub(desc.vlen));
                }
                None => {}
            }
            if pos.is_map() && (desc.is_written() || dirty) {
                stack.extend((0..fanout as usize).map(|slot| pos.child(fanout, slot)));
            }
        }
        Ok(())
    }

    /// Segment utilization counted from scratch: each version that the
    /// system map or a partition's map points at, once, and the system
    /// leader. What `set_descriptor` and the checkpoint keep incrementally.
    pub(crate) fn recount_utilization(&mut self) -> Result<Vec<u32>> {
        let fanout = self.fanout();
        let mut versions = std::collections::HashMap::new();
        let mut partitions = vec![PartitionId::SYSTEM];
        let mut p_index = 0;
        while p_index < partitions.len() {
            let p = partitions[p_index];
            p_index += 1;
            let mut stack = vec![Position::map(self.tree_height(p)?, 0)];
            while let Some(pos) = stack.pop() {
                let desc = self.get_descriptor(ChunkId::new(p, pos))?;
                if desc.is_written() {
                    versions.insert(desc.location, desc.vlen);
                    if p.is_system() && pos.is_data() {
                        partitions.push(PartitionId::from_leader_rank(pos.rank));
                    }
                }
                if pos.is_map() && (desc.is_written() || self.subtree_has_dirty(p, pos)) {
                    stack.extend((0..fanout as usize).map(|slot| pos.child(fanout, slot)));
                }
            }
        }
        versions.extend(self.leader_version);
        let mut utilization = vec![0u32; self.sys_leader.log.utilization.len()];
        for (location, vlen) in versions {
            utilization[self.log.segment_of(location) as usize] += vlen;
        }
        Ok(utilization)
    }

    // -- Diff (§5.3) ----------------------------------------------------------

    pub(crate) fn diff(&mut self, old: PartitionId, new: PartitionId) -> Result<Vec<DiffEntry>> {
        let old_height = self.leader_entry(old)?.leader.height;
        let new_height = self.leader_entry(new)?.leader.height;
        let old_next = self.leader_entry(old)?.leader.next_rank;
        let new_next = self.leader_entry(new)?.leader.next_rank;
        let mut out = Vec::new();
        // Fast path: equal heights allow subtree pruning by comparing map
        // descriptors ("traversing their position maps and comparing the
        // descriptors of the corresponding chunks").
        if old_height == new_height {
            let root = Position::map(old_height, 0);
            self.diff_subtree(old, new, root, &mut out)?;
        } else {
            let max_rank = old_next.max(new_next);
            for rank in 0..max_rank {
                self.diff_leaf(old, new, Position::data(rank), &mut out)?;
            }
        }
        Ok(out)
    }

    fn diff_subtree(
        &mut self,
        old: PartitionId,
        new: PartitionId,
        pos: Position,
        out: &mut Vec<DiffEntry>,
    ) -> Result<()> {
        let d_old = self.get_descriptor(ChunkId::new(old, pos))?;
        let d_new = self.get_descriptor(ChunkId::new(new, pos))?;
        // Identical subtrees are pruned — but only when neither side has
        // buffered overrides anywhere below: dirty cached map chunks are
        // not yet reflected in ancestor descriptors (that is the §4.7
        // deferral), so a clean-looking match here can hide changes.
        let dirty = self.subtree_has_dirty(old, pos) || self.subtree_has_dirty(new, pos);
        if d_old.same_state(&d_new) && !dirty {
            return Ok(());
        }
        for slot in 0..self.fanout() as usize {
            let child = pos.child(self.fanout(), slot);
            if child.is_data() {
                self.diff_leaf(old, new, child, out)?;
            } else {
                self.diff_subtree(old, new, child, out)?;
            }
        }
        Ok(())
    }

    /// True when `p` has any dirty cached map chunk inside the subtree
    /// rooted at `pos` (including `pos` itself). One ordered range probe
    /// per level of the dirty index — O(height · log dirty) — instead of
    /// scanning every dirty key per call.
    pub(crate) fn subtree_has_dirty(&self, p: PartitionId, pos: Position) -> bool {
        self.map_cache.subtree_dirty(p, pos, self.fanout())
    }

    fn diff_leaf(
        &mut self,
        old: PartitionId,
        new: PartitionId,
        pos: Position,
        out: &mut Vec<DiffEntry>,
    ) -> Result<()> {
        let d_old = self.get_descriptor(ChunkId::new(old, pos))?;
        let d_new = self.get_descriptor(ChunkId::new(new, pos))?;
        let change = match (d_old.is_written(), d_new.is_written()) {
            (false, true) => Some(DiffChange::Created),
            (true, false) => Some(DiffChange::Deallocated),
            (true, true) if !d_old.same_state(&d_new) => Some(DiffChange::Updated),
            _ => None,
        };
        if let Some(change) = change {
            out.push(DiffEntry { pos, change });
        }
        Ok(())
    }

    pub(crate) fn written_ranks(&mut self, p: PartitionId) -> Result<Vec<u64>> {
        let next = self.leader_entry(p)?.leader.next_rank;
        let mut out = Vec::new();
        for rank in 0..next {
            let desc = self.get_descriptor(ChunkId::data(p, rank))?;
            if desc.is_written() {
                out.push(rank);
            }
        }
        Ok(out)
    }
}
