//! The one rank allocator (§4.4, §5.1). A chunk id is a rank in its
//! partition's data space and a partition id a rank in the system
//! partition's; each partition holds one [`Ranks`] beside its leader. It
//! alone moves a rank between never allocated (at or above `next`), free,
//! reserved and written, and updates the leader's `next_rank`/`free_ranks`
//! in the same call. Each rank below `next` is exactly one of written, free
//! or reserved; each below the leader's `next_rank` is written or free, or
//! leaked: past [`crate::leader::MAX_FREE_RANKS`], or, since reservations
//! are not persisted, reserved or released below a written rank at a reopen.

use std::collections::BTreeSet;

use crate::leader::PartitionLeader;

/// One partition's session allocation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Ranks {
    /// Lowest rank never handed out (≥ the leader's `next_rank`).
    next: u64,
    /// Ranks to hand out, newest last.
    free: Vec<u64>,
    /// Ranks handed out and not yet written.
    reserved: BTreeSet<u64>,
}

impl Ranks {
    /// The allocation state `leader` persists: nothing reserved.
    pub fn new(leader: &PartitionLeader) -> Ranks {
        Ranks {
            next: leader.next_rank,
            free: leader.free_ranks.clone(),
            reserved: BTreeSet::new(),
        }
    }

    /// Reserves the newest free rank, else the next never handed out;
    /// "this operation does not change the persistent state" (§9.2.2).
    pub fn reserve(&mut self) -> u64 {
        let rank = self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        });
        self.reserved.insert(rank);
        rank
    }

    pub fn is_reserved(&self, rank: u64) -> bool {
        self.reserved.contains(&rank)
    }

    /// Gives back a reservation no commit wrote; a rank not reserved is
    /// left alone.
    pub fn release(&mut self, rank: u64) {
        if self.reserved.remove(&rank) {
            self.free.push(rank);
        }
    }

    /// A commit wrote `rank`: off the free and reserved lists, `first` when
    /// it was not written before. An overwritten rank is on neither list,
    /// so an overwrite skips the scans.
    pub fn wrote(&mut self, leader: &mut PartitionLeader, rank: u64, first: bool) {
        leader.next_rank = leader.next_rank.max(rank + 1);
        self.refresh(leader);
        if first {
            leader.unfree(rank);
            self.free.retain(|r| *r != rank);
            self.reserved.remove(&rank);
        }
    }

    /// A commit freed the written `rank`: onto both free lists.
    pub fn freed(&mut self, leader: &mut PartitionLeader, rank: u64) {
        leader.push_free(rank);
        self.free.push(rank);
    }

    /// `leader` replaced the one these ranks were read from: nothing below
    /// its `next_rank` is handed out fresh.
    pub fn refresh(&mut self, leader: &PartitionLeader) {
        self.next = self.next.max(leader.next_rank);
    }

    /// The lowest rank never handed out, and the free list.
    pub fn session(&self) -> (u64, &[u64]) {
        (self.next, &self.free)
    }

    /// About what the session lists hold, for undo-journal accounting.
    pub fn bytes(&self) -> usize {
        8 * (self.free.len() + self.reserved.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CryptoParams;
    use tdb_crypto::{CipherKind, HashKind};

    fn leader() -> PartitionLeader {
        PartitionLeader::new(CryptoParams::generate(CipherKind::Des, HashKind::Sha1))
    }

    #[test]
    fn a_rank_is_written_free_or_reserved_and_the_leader_persists_the_first_two() {
        let mut l = leader();
        let mut ranks = Ranks::new(&l);
        let (a, b, c) = (ranks.reserve(), ranks.reserve(), ranks.reserve());
        assert_eq!((a, b, c), (0, 1, 2));
        ranks.wrote(&mut l, b, true);
        ranks.wrote(&mut l, a, true);
        assert_eq!(l.next_rank, 2);
        assert!(ranks.is_reserved(c) && !ranks.is_reserved(a));
        ranks.release(c);
        ranks.release(c); // Not reserved any more: no second free entry.
        ranks.freed(&mut l, a);
        assert_eq!(ranks.session(), (3, &[2, 0][..]));
        assert_eq!(l.free_ranks, vec![0], "a release is session-only");
        // Newest free first; a first write takes it off both lists.
        assert_eq!(ranks.reserve(), 0);
        ranks.wrote(&mut l, 0, true);
        assert!(l.free_ranks.is_empty());
        assert_eq!(ranks.session(), (3, &[2][..]));
        // A reopen reads the leader: the released rank 2 is above its
        // `next_rank`, so it is handed out again.
        let mut reopened = Ranks::new(&l);
        assert_eq!((reopened.reserve(), reopened.reserve()), (2, 3));
    }

    #[test]
    fn a_rewritten_leader_raises_the_session_high_water() {
        let mut l = leader();
        let mut ranks = Ranks::new(&l);
        l.next_rank = 5;
        ranks.refresh(&l);
        assert_eq!(ranks.reserve(), 5);
        ranks.wrote(&mut l, 9, false);
        assert_eq!((l.next_rank, ranks.session().0), (10, 10));
    }
}
