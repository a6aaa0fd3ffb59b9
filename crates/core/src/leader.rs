//! Partition leaders and the system leader (§4.3, §5.2).
//!
//! "The chunk at the top contains the descriptor of the root map chunk and
//! some additional metadata needed to manage the tree; we call it the
//! *leader* chunk." Every partition has a leader holding its position-map
//! root, tree height, id-allocation state, and cryptographic parameters;
//! partition leaders are data chunks of the system partition. The *system
//! leader* additionally carries log-management state (segment allocation
//! and utilization) and is the head of the residual log (§5.4).

use crate::codec::{Dec, Enc};
use crate::descriptor::Descriptor;
use crate::errors::{CoreError, Result};
use crate::ids::PartitionId;
use crate::params::CryptoParams;

/// Maximum number of free ranks remembered per partition. Beyond this,
/// deallocated ids are leaked (ids are 64-bit; the map stays compact enough
/// because the free list covers the common churn patterns).
pub const MAX_FREE_RANKS: usize = 4096;

/// Per-partition tree-management state: the leader chunk's content.
#[derive(Debug, Clone)]
pub struct PartitionLeader {
    /// Cryptographic parameters protecting the partition's chunks.
    pub params: CryptoParams,
    /// Height of the position-map tree (≥ 1).
    pub height: u8,
    /// Lowest never-allocated data rank.
    pub next_rank: u64,
    /// Descriptor of the root map chunk (at `height`).
    pub root: Descriptor,
    /// Deallocated data ranks available for reuse (§4.4), newest last.
    pub free_ranks: Vec<u64>,
    /// Direct copies of this partition (§5.5: "each partition leader stores
    /// the ids of its direct copies").
    pub copies: Vec<PartitionId>,
    /// The partition this one was copied from, if any.
    pub source: Option<PartitionId>,
}

impl PartitionLeader {
    /// A fresh, empty partition with the given parameters.
    pub fn new(params: CryptoParams) -> PartitionLeader {
        PartitionLeader {
            params,
            height: 1,
            next_rank: 0,
            root: Descriptor::unallocated(),
            free_ranks: Vec::new(),
            copies: Vec::new(),
            source: None,
        }
    }

    /// The copy-on-write duplicate of this leader for a partition copy
    /// (§5.3): shares the root (and hence all map and data chunks) and the
    /// cryptographic parameters; starts with no copies of its own.
    pub fn copied(&self, source: PartitionId) -> PartitionLeader {
        PartitionLeader {
            params: self.params.clone(),
            height: self.height,
            next_rank: self.next_rank,
            root: self.root,
            free_ranks: self.free_ranks.clone(),
            copies: Vec::new(),
            source: Some(source),
        }
    }

    /// Records a deallocated rank for reuse, bounded by [`MAX_FREE_RANKS`].
    pub fn push_free(&mut self, rank: u64) {
        if self.free_ranks.len() < MAX_FREE_RANKS {
            self.free_ranks.push(rank);
        }
    }

    /// Removes `rank` from the free list if present (recovery replays a
    /// write of a previously deallocated id).
    pub fn unfree(&mut self, rank: u64) {
        if let Some(i) = self.free_ranks.iter().rposition(|&r| r == rank) {
            self.free_ranks.swap_remove(i);
        }
    }

    /// Serializes the leader body (stored encrypted under the *system*
    /// partition's cipher, carrying this partition's key inside — the
    /// cipher link of §5.2).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(128 + self.free_ranks.len() * 8);
        self.params.encode(&mut e);
        e.u8(self.height);
        e.u64(self.next_rank);
        // The root descriptor uses this partition's hash length.
        self.root.encode(&mut e, self.params.hash.digest_len());
        e.list(&self.free_ranks, |e, r| {
            e.u64(*r);
        });
        e.list(&self.copies, |e, c| {
            e.u32(c.0);
        });
        match self.source {
            Some(s) => {
                e.u8(1);
                e.u32(s.0);
            }
            None => {
                e.u8(0);
            }
        }
        e.finish()
    }

    /// Inverse of [`PartitionLeader::encode`].
    ///
    /// # Errors
    ///
    /// Fails on structural corruption.
    pub fn decode(body: &[u8]) -> Result<PartitionLeader> {
        let mut d = Dec::new(body);
        let leader = Self::decode_from(&mut d)?;
        d.expect_done("partition leader")?;
        Ok(leader)
    }

    fn decode_from(d: &mut Dec<'_>) -> Result<PartitionLeader> {
        let params = CryptoParams::decode(d)?;
        let height = d.u8()?;
        if height == 0 {
            return Err(CoreError::Corrupt("leader height 0".into()));
        }
        let next_rank = d.u64()?;
        let root = Descriptor::decode(d, params.hash.digest_len())?;
        let free_ranks = d.list(8, Dec::u64)?;
        if free_ranks.len() > MAX_FREE_RANKS {
            return Err(CoreError::Corrupt("oversized free list".into()));
        }
        let copies = d.list(4, |d| d.u32().map(PartitionId))?;
        let source = if d.u8()? == 1 {
            Some(PartitionId(d.u32()?))
        } else {
            None
        };
        Ok(PartitionLeader {
            params,
            height,
            next_rank,
            root,
            free_ranks,
            copies,
            source,
        })
    }
}

/// Log-management state carried by the system leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogState {
    /// Fixed segment size in bytes (§4.9.4).
    pub segment_size: u32,
    /// Number of segment slots that exist in the untrusted store.
    pub num_segments: u32,
    /// Segment indices available for reuse (produced by the cleaner).
    pub free_segments: Vec<u32>,
    /// Live bytes per segment, indexed by segment number: the utilization
    /// metric guiding cleaner segment selection (§4.9.5).
    pub utilization: Vec<u32>,
}

impl LogState {
    /// Initial log state for a fresh store.
    pub fn new(segment_size: u32) -> LogState {
        LogState {
            segment_size,
            num_segments: 0,
            free_segments: Vec::new(),
            utilization: Vec::new(),
        }
    }

    fn encode(&self, e: &mut Enc) {
        e.u32(self.segment_size);
        e.u32(self.num_segments);
        e.list(&self.free_segments, |e, s| {
            e.u32(*s);
        });
        e.list(&self.utilization, |e, u| {
            e.u32(*u);
        });
    }

    fn decode(d: &mut Dec<'_>) -> Result<LogState> {
        let segment_size = d.u32()?;
        let num_segments = d.u32()?;
        let free_segments = d.list(4, Dec::u32)?;
        let utilization = d.list(4, Dec::u32)?;
        if free_segments.len().max(utilization.len()) > num_segments as usize {
            return Err(CoreError::Corrupt("log tables exceed segment count".into()));
        }
        Ok(LogState {
            segment_size,
            num_segments,
            free_segments,
            utilization,
        })
    }
}

/// The system leader: head of the residual log (§5.4).
///
/// Combines the tree-management state for the system partition's position
/// map (whose data chunks are the partition leaders, i.e. the *partition
/// map* of Figure 7) with log-management state.
#[derive(Debug, Clone)]
pub struct SystemLeader {
    /// Tree state for the partition map. `params` here are the system
    /// partition's cipher/hash and the secret-store key; the key itself is
    /// *not* serialized (the secret store is the root of trust).
    pub map: PartitionLeader,
    /// Log-management state.
    pub log: LogState,
    /// Monotonically increasing checkpoint sequence number.
    pub checkpoint_seq: u64,
}

impl SystemLeader {
    /// A fresh system leader.
    pub fn new(params: CryptoParams, segment_size: u32) -> SystemLeader {
        SystemLeader {
            map: PartitionLeader::new(params),
            log: LogState::new(segment_size),
            checkpoint_seq: 0,
        }
    }

    /// Serializes the system leader body. Unlike partition leaders, the
    /// system key is replaced by an empty placeholder: the secret-store key
    /// must never be written to untrusted storage, even encrypted under
    /// itself.
    pub fn encode(&self) -> Vec<u8> {
        let mut scrubbed = self.map.clone();
        scrubbed.params = CryptoParams {
            cipher: self.map.params.cipher,
            hash: self.map.params.hash,
            key: tdb_crypto::SecretKey::new(vec![0u8; self.map.params.cipher.key_len()]),
        };
        let mut e = Enc::new();
        e.bytes(&scrubbed.encode());
        self.log.encode(&mut e);
        e.u64(self.checkpoint_seq);
        e.finish()
    }

    /// Inverse of [`SystemLeader::encode`]; reinstates the secret-store key
    /// passed by the caller.
    ///
    /// # Errors
    ///
    /// Fails on structural corruption or if the recorded cipher/hash do not
    /// match the platform's system parameters.
    pub fn decode(body: &[u8], system_params: &CryptoParams) -> Result<SystemLeader> {
        let mut d = Dec::new(body);
        let map_body = d.bytes()?;
        let mut map = PartitionLeader::decode(map_body)?;
        if map.params.cipher != system_params.cipher || map.params.hash != system_params.hash {
            return Err(CoreError::Corrupt(
                "system leader records different system crypto parameters".into(),
            ));
        }
        map.params = system_params.clone();
        let log = LogState::decode(&mut d)?;
        let checkpoint_seq = d.u64()?;
        d.expect_done("system leader")?;
        Ok(SystemLeader {
            map,
            log,
            checkpoint_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdb_crypto::{CipherKind, HashKind, HashValue};

    fn params() -> CryptoParams {
        CryptoParams::generate(CipherKind::Des, HashKind::Sha1)
    }

    #[test]
    fn partition_leader_roundtrip() {
        let mut l = PartitionLeader::new(params());
        l.height = 3;
        l.next_rank = 500;
        l.root = Descriptor::written(42, 10, 8, HashValue::new(&[3u8; 20]));
        l.free_ranks = vec![7, 9, 12];
        l.copies = vec![PartitionId(4), PartitionId(9)];
        l.source = Some(PartitionId(2));
        let body = l.encode();
        let back = PartitionLeader::decode(&body).unwrap();
        assert_eq!(back.height, 3);
        assert_eq!(back.next_rank, 500);
        assert_eq!(back.root, l.root);
        assert_eq!(back.free_ranks, vec![7, 9, 12]);
        assert_eq!(back.copies, vec![PartitionId(4), PartitionId(9)]);
        assert_eq!(back.source, Some(PartitionId(2)));
        assert_eq!(back.params.key.as_bytes(), l.params.key.as_bytes());
    }

    #[test]
    fn copied_leader_shares_root_not_copies() {
        let mut l = PartitionLeader::new(params());
        l.root = Descriptor::written(1, 2, 3, HashValue::new(&[1u8; 20]));
        l.copies = vec![PartitionId(8)];
        let c = l.copied(PartitionId(3));
        assert_eq!(c.root, l.root);
        assert!(c.copies.is_empty());
        assert_eq!(c.source, Some(PartitionId(3)));
        assert_eq!(c.params.key.as_bytes(), l.params.key.as_bytes());
    }

    #[test]
    fn free_rank_push_unfree() {
        let mut l = PartitionLeader::new(params());
        l.push_free(5);
        l.push_free(6);
        l.push_free(5);
        l.unfree(5); // Removes the most recent 5.
        assert_eq!(l.free_ranks.iter().filter(|&&r| r == 5).count(), 1);
        l.unfree(99); // No-op.
        assert_eq!(l.free_ranks.len(), 2);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut l = PartitionLeader::new(params());
        for r in 0..(MAX_FREE_RANKS as u64 + 100) {
            l.push_free(r);
        }
        assert_eq!(l.free_ranks.len(), MAX_FREE_RANKS);
    }

    #[test]
    fn system_leader_roundtrip_scrubs_key() {
        let sys_params = CryptoParams::paper_system(tdb_crypto::SecretKey::random(24));
        let mut sl = SystemLeader::new(sys_params.clone(), 65536);
        sl.map.next_rank = 3;
        sl.log.num_segments = 5;
        sl.log.free_segments = vec![2];
        sl.log.utilization = vec![100, 200, 0, 50, 60];
        sl.checkpoint_seq = 9;
        let body = sl.encode();

        // The secret key must not appear in the serialized body.
        let key = sys_params.key.as_bytes();
        assert!(
            !body.windows(key.len()).any(|w| w == key),
            "secret-store key leaked into system leader body"
        );

        let back = SystemLeader::decode(&body, &sys_params).unwrap();
        assert_eq!(back.map.next_rank, 3);
        assert_eq!(back.log, sl.log);
        assert_eq!(back.checkpoint_seq, 9);
        assert_eq!(back.map.params.key.as_bytes(), key);
    }

    #[test]
    fn system_leader_rejects_mismatched_params() {
        let a = CryptoParams::paper_system(tdb_crypto::SecretKey::random(24));
        let sl = SystemLeader::new(a.clone(), 65536);
        let body = sl.encode();
        let other = CryptoParams {
            cipher: CipherKind::Aes256,
            hash: HashKind::Sha256,
            key: tdb_crypto::SecretKey::random(32),
        };
        assert!(SystemLeader::decode(&body, &other).is_err());
    }

    #[test]
    fn corrupt_leader_rejected() {
        let l = PartitionLeader::new(params());
        let mut body = l.encode();
        body.truncate(body.len() - 1);
        assert!(PartitionLeader::decode(&body).is_err());
    }
}
