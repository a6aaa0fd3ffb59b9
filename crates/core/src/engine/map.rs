//! The chunk map (§4.3, §4.5): locating and validating chunk versions.
//!
//! Descriptors carry both a version's log location and its expected hash,
//! so the map doubles as a Merkle tree: every descriptor read walks the
//! tree bottom-up from the deepest cached ancestor, and every validated
//! chunk read checks the body hash against the descriptor on the way out.

use std::sync::Arc;

use crate::descriptor::{ChunkStatus, Descriptor, MapChunk};
use crate::errors::{CoreError, Result};
use crate::ids::{capacity, ChunkId, PartitionId, Position};
use crate::params::PartitionCrypto;
use crate::slot_tree::{SlotTree, LEAF_SLOTS};
use crate::store::Inner;
use crate::version::{validate_version, validate_version_with};

impl Inner {
    /// Fetches the descriptor for `id`, walking the map bottom-up from the
    /// deepest cached ancestor (§4.5); unallocated where the tree does not
    /// reach.
    pub(crate) fn get_descriptor(&mut self, id: ChunkId) -> Result<Descriptor> {
        let height = self.tree_height(id.partition)?;
        if id.pos.height > height || id.pos.rank >= capacity(self.fanout(), height - id.pos.height)
        {
            return Ok(Descriptor::unallocated());
        }
        if id.pos.height == height && id.pos.rank == 0 {
            return self.root_descriptor(id.partition);
        }
        let parent = id.pos.parent(self.fanout());
        self.ensure_map_chunk(id.partition, parent)?;
        let slot = id.pos.slot(self.fanout());
        Ok(self
            .map_cache
            .get(id.partition, parent)
            .expect("ensured above")
            .slots[slot])
    }

    /// Ensures the map chunk at `(p, pos)` is decoded in the cache,
    /// validating it against its descriptor on the way in. The slot tree
    /// built to validate it goes into the cache entry, with the leaves of
    /// slots that head a dirty subtree (whose effective digest differs
    /// from the stored one) marked stale.
    pub(crate) fn ensure_map_chunk(&mut self, p: PartitionId, pos: Position) -> Result<()> {
        if self.map_cache.contains(p, pos) {
            return Ok(());
        }
        let id = ChunkId::new(p, pos);
        let desc = self.get_descriptor(id)?;
        let fanout = self.fanout() as usize;
        if !desc.is_written() {
            // Never written: synthesize an empty map chunk.
            self.map_cache
                .insert(p, pos, MapChunk::empty(fanout), false);
            return Ok(());
        }
        let buf = self.log.read_at(desc.location, desc.vlen as usize)?;
        let crypto = self.crypto_for(p)?;
        let kind = crypto.hash_kind();
        let mut tree = None;
        let body = validate_version_with(&self.system, &crypto, id, &desc, &buf, |body| {
            tree.insert(SlotTree::over_body(kind, body)).root()
        })?;
        let chunk = MapChunk::decode(&body, fanout, kind.digest_len())?;
        let mut tree = tree.expect("validation hashed the body");
        if pos.height >= 2 && self.subtree_has_dirty(p, pos) {
            for slot in 0..fanout {
                if self.subtree_has_dirty(p, pos.child(self.fanout(), slot)) {
                    tree.mark_stale(slot / LEAF_SLOTS);
                }
            }
        }
        self.map_cache.insert_loaded(p, pos, chunk, tree);
        Ok(())
    }

    /// Updates the descriptor for `id`, dirtying its parent map chunk (the
    /// §4.6 deferral) and maintaining segment utilization. Returns the
    /// descriptor it replaced.
    ///
    /// Utilization charges each current version once, however many
    /// partitions of a copy family point at it (§5.3 copies share
    /// versions): a version is charged when the first partition points at
    /// it and uncharged when the last one lets go.
    pub(crate) fn set_descriptor(&mut self, id: ChunkId, desc: Descriptor) -> Result<Descriptor> {
        let old = self.get_descriptor(id)?;
        let others = self.copy_family(id.partition)?;
        if old.is_written() && self.holder(&others, id.pos, &old)?.is_none() {
            self.update_utilization(self.log.segment_of(old.location), |live| {
                live.saturating_sub(old.vlen)
            });
        }
        if desc.is_written() && self.holder(&others, id.pos, &desc)?.is_none() {
            self.update_utilization(self.log.segment_of(desc.location), |live| live + desc.vlen);
        }
        let height = self.tree_height(id.partition)?;
        debug_assert!(
            id.pos.height < height || (id.pos.height == height && id.pos.rank == 0),
            "descriptor write outside tree: {id} at height {height}"
        );
        if id.pos.height == height && id.pos.rank == 0 {
            self.set_root_descriptor(id.partition, desc)?;
            return Ok(old);
        }
        let parent = id.pos.parent(self.fanout());
        self.ensure_map_chunk(id.partition, parent)?;
        let slot = id.pos.slot(self.fanout());
        let cached = self.map_cache.set_slot(id.partition, parent, slot, desc);
        assert!(cached, "ensured above");
        // Lazy integrity: every map ancestor's effective body changes, so
        // the cached slot trees above this write are stale. O(height)
        // marks; the leaves are rehashed only when a root, proof or
        // checkpoint needs them. Marked after the slot is written: a load
        // of an evicted ancestor on the way here (the copy family's
        // `holder` lookups above can evict this partition's clean chunks)
        // installs a fresh tree, which would drop a mark made before it.
        self.map_cache
            .mark_spine(id.partition, parent, height, self.fanout());
        Ok(old)
    }

    /// Grows `p`'s tree until `rank` is addressable (§4.3: "as the tree
    /// grows, new chunks are added to the right and to the top").
    pub(crate) fn ensure_capacity(&mut self, p: PartitionId, rank: u64) -> Result<()> {
        loop {
            let height = self.tree_height(p)?;
            if rank < capacity(self.fanout(), height) {
                return Ok(());
            }
            let old_root = self.root_descriptor(p)?;
            let new_height = height + 1;
            let mut chunk = MapChunk::empty(self.fanout() as usize);
            chunk.slots[0] = old_root;
            self.map_cache
                .insert(p, Position::map(new_height, 0), chunk, true);
            let entry = self.leader_entry_mut(p)?;
            entry.leader.height = new_height;
            entry.leader.root = Descriptor::unwritten();
            entry.dirty = true;
        }
    }

    /// Grows the tree so `pos` is addressable (map heights included).
    pub(crate) fn ensure_capacity_for_pos(&mut self, p: PartitionId, pos: Position) -> Result<()> {
        if pos.is_data() {
            return self.ensure_capacity(p, pos.rank);
        }
        // A map position: the tree must be at least `pos.height` tall
        // (capacity ≥ F^height, i.e. rank F^height − 1 addressable) and wide
        // enough to contain the subtree's first data rank.
        let fanout = u64::from(self.config.fanout);
        let subtree = fanout.saturating_pow(u32::from(pos.height));
        let for_height = subtree.saturating_sub(1);
        let for_rank = pos.rank.saturating_mul(subtree);
        self.ensure_capacity(p, for_height.max(for_rank))
    }

    /// Reads and validates the version a descriptor points at, returning
    /// the plaintext body (§4.5: located, decrypted, hashed, compared).
    pub(crate) fn read_validated(&mut self, id: ChunkId, desc: &Descriptor) -> Result<Vec<u8>> {
        debug_assert!(desc.is_written());
        let buf = self.log.read_at(desc.location, desc.vlen as usize)?;
        let crypto = self.crypto_for(id.partition)?;
        validate_version(&self.system, &crypto, id, desc, &buf)
    }

    /// Effective allocation status of a data chunk id, folding in
    /// session-only reservations.
    pub(crate) fn effective_status(&mut self, id: ChunkId) -> Result<ChunkStatus> {
        let desc = self.get_descriptor(id)?;
        if desc.status == ChunkStatus::Unallocated && self.is_reserved(id)? {
            return Ok(ChunkStatus::Unwritten);
        }
        Ok(desc.status)
    }

    fn is_reserved(&mut self, id: ChunkId) -> Result<bool> {
        let entry = self.leader_entry(id.partition)?;
        Ok(entry.ranks.is_reserved(id.pos.rank))
    }

    // -- Read (§4.5) ----------------------------------------------------------

    /// The descriptor of `id`'s current version and the crypto that opens
    /// it: the status checks of [`Inner::read_chunk`] without its I/O.
    pub(crate) fn locate(&mut self, id: ChunkId) -> Result<(Descriptor, Arc<PartitionCrypto>)> {
        if id.partition.is_system() || !id.pos.is_data() {
            return Err(CoreError::NotAllocated(id));
        }
        let desc = self.get_descriptor(id)?;
        match desc.status {
            ChunkStatus::Unallocated => {
                if self.is_reserved(id)? {
                    Err(CoreError::NotWritten(id))
                } else {
                    Err(CoreError::NotAllocated(id))
                }
            }
            ChunkStatus::Unwritten => Err(CoreError::NotWritten(id)),
            ChunkStatus::Written => Ok((desc, self.crypto_for(id.partition)?)),
        }
    }

    /// The authoritative read: [`Inner::locate`], then the version read and
    /// validated under the engine lock, where a failure is a verdict.
    pub(crate) fn read_chunk(&mut self, id: ChunkId) -> Result<Vec<u8>> {
        let (desc, _) = self.locate(id)?;
        self.read_validated(id, &desc)
    }
}
