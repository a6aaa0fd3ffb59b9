//! The chunk map (§4.3, §4.5): locating and validating chunk versions.
//!
//! Descriptors carry both a version's log location and its expected hash,
//! so the map doubles as a Merkle tree: every descriptor read walks the
//! tree bottom-up from the deepest cached ancestor, and every validated
//! chunk read checks the body hash against the descriptor on the way out.

use crate::descriptor::{ChunkStatus, Descriptor, MapChunk};
use crate::errors::{CoreError, Result};
use crate::ids::{capacity, ChunkId, PartitionId, Position};
use crate::store::Inner;
use crate::version::validate_version;

impl Inner {
    /// Fetches the descriptor for `id`, walking the map bottom-up from the
    /// deepest cached ancestor (§4.5).
    pub(crate) fn get_descriptor(&mut self, id: ChunkId) -> Result<Descriptor> {
        let height = self.tree_height(id.partition)?;
        if id.pos.height > height {
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
    /// validating it against its descriptor on the way in.
    pub(crate) fn ensure_map_chunk(&mut self, p: PartitionId, pos: Position) -> Result<()> {
        if self.map_cache.contains(p, pos) {
            return Ok(());
        }
        let desc = self.get_descriptor(ChunkId::new(p, pos))?;
        let fanout = self.fanout() as usize;
        let chunk = if desc.is_written() {
            let body = self.read_validated(ChunkId::new(p, pos), &desc)?;
            let hash_len = self.crypto_for(p)?.hash_kind().digest_len();
            MapChunk::decode(&body, fanout, hash_len)?
        } else {
            // Never written: synthesize an empty map chunk.
            MapChunk::empty(fanout)
        };
        self.map_cache.insert(p, pos, chunk, false);
        Ok(())
    }

    /// Updates the descriptor for `id`, dirtying its parent map chunk (the
    /// §4.6 deferral) and maintaining segment utilization. Returns the
    /// descriptor it replaced.
    pub(crate) fn set_descriptor(&mut self, id: ChunkId, desc: Descriptor) -> Result<Descriptor> {
        let old = self.get_descriptor(id)?;
        // Utilization: the old version becomes obsolete, the new is live.
        if old.is_written() {
            self.update_utilization(self.log.segment_of(old.location), |live| {
                live.saturating_sub(old.vlen)
            });
        }
        if desc.is_written() {
            self.update_utilization(self.log.segment_of(desc.location), |live| live + desc.vlen);
        }
        let height = self.tree_height(id.partition)?;
        debug_assert!(
            id.pos.height < height || (id.pos.height == height && id.pos.rank == 0),
            "descriptor write outside tree: {id} at height {height}"
        );
        // Lazy integrity: every map ancestor's effective body changes, so
        // the memoized spine above this write is stale. O(height) removals;
        // the hashes are recomputed only when a root/proof query needs them.
        self.lazy
            .invalidate_spine(id.partition, id.pos, height, self.fanout());
        if id.pos.height == height && id.pos.rank == 0 {
            self.set_root_descriptor(id.partition, desc)?;
            return Ok(old);
        }
        let parent = id.pos.parent(self.fanout());
        self.ensure_map_chunk(id.partition, parent)?;
        let slot = id.pos.slot(self.fanout());
        self.map_cache
            .get_mut_dirty(id.partition, parent)
            .expect("ensured above")
            .slots[slot] = desc;
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
            // Growth rewires the whole spine; drop the partition's memo
            // wholesale (rare, conservative).
            self.lazy.invalidate_partition(p);
            self.map_cache
                .insert(p, Position::map(new_height, 0), chunk, true);
            if p.is_system() {
                self.sys_leader.map.height = new_height;
                self.sys_leader.map.root = Descriptor::unwritten();
            } else {
                let entry = self.leader_entry_mut(p)?;
                entry.leader.height = new_height;
                entry.leader.root = Descriptor::unwritten();
                entry.dirty = true;
            }
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
        Ok(self.read_validated_full(id, desc)?.0)
    }

    /// [`Inner::read_validated`] that also returns the stored envelope
    /// when the version was compressed — proof extraction ships it to
    /// clients, whose leaf hash check runs over the stored bytes.
    pub(crate) fn read_validated_full(
        &mut self,
        id: ChunkId,
        desc: &Descriptor,
    ) -> Result<(Vec<u8>, Option<Vec<u8>>)> {
        debug_assert!(desc.is_written());
        let buf = self.log.read_at(desc.location, desc.vlen as usize)?;
        let crypto = self.crypto_for(id.partition)?;
        Ok(validate_version(&self.system, &crypto, id, desc, &buf)?)
    }

    /// Effective allocation status of a data chunk id, folding in
    /// session-only reservations.
    pub(crate) fn effective_status(&mut self, id: ChunkId) -> Result<ChunkStatus> {
        let desc = self.get_descriptor(id)?;
        if desc.status == ChunkStatus::Unallocated {
            let reserved = self
                .leader_entry(id.partition)?
                .reserved
                .contains(&id.pos.rank);
            if reserved {
                return Ok(ChunkStatus::Unwritten);
            }
        }
        Ok(desc.status)
    }

    // -- Read (§4.5) ----------------------------------------------------------

    pub(crate) fn read_chunk(&mut self, id: ChunkId) -> Result<Vec<u8>> {
        Ok(self.read_chunk_full(id)?.0)
    }

    /// [`Inner::read_chunk`] that also surfaces the stored compressed
    /// envelope (when there is one) for proof extraction.
    pub(crate) fn read_chunk_full(&mut self, id: ChunkId) -> Result<(Vec<u8>, Option<Vec<u8>>)> {
        if id.partition.is_system() || !id.pos.is_data() {
            return Err(CoreError::NotAllocated(id));
        }
        let desc = self.get_descriptor(id)?;
        match desc.status {
            ChunkStatus::Unallocated => {
                if self
                    .leader_entry(id.partition)?
                    .reserved
                    .contains(&id.pos.rank)
                {
                    Err(CoreError::NotWritten(id))
                } else {
                    Err(CoreError::NotAllocated(id))
                }
            }
            ChunkStatus::Unwritten => Err(CoreError::NotWritten(id)),
            ChunkStatus::Written => self.read_validated_full(id, &desc),
        }
    }
}
