//! The lock manager: two-phase read/write locking with timeout-based
//! deadlock breaking (§7).
//!
//! "The object store implements two-phase locking on objects and breaks
//! deadlocks using timeouts. Transactions acquire locks in either shared or
//! exclusive mode. We chose not to implement granular or operation-level
//! locks because we expect only a few concurrent transactions."

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::errors::{ObjectError, Result};
use crate::ObjectId;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// Transaction identifier within one object store.
pub type TxId = u64;

#[derive(Default)]
struct LockState {
    /// Transactions holding the lock in shared mode.
    sharers: Vec<TxId>,
    /// The transaction holding it exclusively, if any.
    owner: Option<TxId>,
}

impl LockState {
    fn can_grant(&self, tx: TxId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.owner.is_none() || self.owner == Some(tx),
            LockMode::Exclusive => {
                let other_sharers = self.sharers.iter().any(|&t| t != tx);
                let other_owner = self.owner.is_some_and(|t| t != tx);
                !other_sharers && !other_owner
            }
        }
    }

    fn grant(&mut self, tx: TxId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if self.owner != Some(tx) && !self.sharers.contains(&tx) {
                    self.sharers.push(tx);
                }
            }
            LockMode::Exclusive => {
                // An upgrade drops the shared slot.
                self.sharers.retain(|&t| t != tx);
                self.owner = Some(tx);
            }
        }
    }

    fn is_free(&self) -> bool {
        self.sharers.is_empty() && self.owner.is_none()
    }
}

/// The table of object locks.
pub struct LockManager {
    table: Mutex<HashMap<ObjectId, LockState>>,
    released: Condvar,
    timeout: Duration,
}

impl LockManager {
    /// Creates a manager with the given acquisition timeout.
    pub fn new(timeout: Duration) -> LockManager {
        LockManager {
            table: Mutex::new(HashMap::new()),
            released: Condvar::new(),
            timeout,
        }
    }

    /// Acquires (or upgrades to) `mode` on `id` for `tx`, waiting up to the
    /// timeout. Re-acquiring an already-held mode is a no-op.
    ///
    /// # Errors
    ///
    /// [`ObjectError::LockTimeout`] if the lock is still unavailable at the
    /// deadline — the paper's deadlock-breaking mechanism.
    pub fn acquire(&self, tx: TxId, id: ObjectId, mode: LockMode) -> Result<()> {
        self.acquire_until(tx, id, mode, Instant::now() + self.timeout)
    }

    /// Like [`LockManager::acquire`] with a zero timeout: grants `mode` if
    /// it is grantable right now and never waits, so a caller already
    /// holding other locks adds no wait-for edge.
    ///
    /// # Errors
    ///
    /// [`ObjectError::LockTimeout`] if the lock is held incompatibly.
    pub fn try_acquire(&self, tx: TxId, id: ObjectId, mode: LockMode) -> Result<()> {
        self.acquire_until(tx, id, mode, Instant::now())
    }

    fn acquire_until(
        &self,
        tx: TxId,
        id: ObjectId,
        mode: LockMode,
        deadline: Instant,
    ) -> Result<()> {
        let mut table = self.table.lock();
        loop {
            let state = table.entry(id).or_default();
            if state.can_grant(tx, mode) {
                state.grant(tx, mode);
                return Ok(());
            }
            if self.released.wait_until(&mut table, deadline).timed_out() {
                return Err(ObjectError::LockTimeout(id));
            }
        }
    }

    /// Releases every lock held by `tx` (commit or abort — 2PL releases all
    /// at once at transaction end).
    pub fn release_all(&self, tx: TxId) {
        let mut table = self.table.lock();
        table.retain(|_, state| {
            state.sharers.retain(|&t| t != tx);
            if state.owner == Some(tx) {
                state.owner = None;
            }
            !state.is_free()
        });
        drop(table);
        self.released.notify_all();
    }

    /// Number of objects currently locked (for tests).
    pub fn locked_count(&self) -> usize {
        self.table.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdb_core::{ChunkId, PartitionId};

    fn oid(n: u64) -> ObjectId {
        ObjectId(ChunkId::data(PartitionId(1), n))
    }

    fn mgr(ms: u64) -> LockManager {
        LockManager::new(Duration::from_millis(ms))
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr(50);
        m.acquire(1, oid(0), LockMode::Shared).unwrap();
        m.acquire(2, oid(0), LockMode::Shared).unwrap();
        assert_eq!(m.locked_count(), 1);
        m.release_all(1);
        m.release_all(2);
        assert_eq!(m.locked_count(), 0);
    }

    #[test]
    fn exclusive_excludes() {
        let m = mgr(30);
        m.acquire(1, oid(0), LockMode::Exclusive).unwrap();
        assert!(matches!(
            m.acquire(2, oid(0), LockMode::Shared),
            Err(ObjectError::LockTimeout(_))
        ));
        assert!(matches!(
            m.acquire(2, oid(0), LockMode::Exclusive),
            Err(ObjectError::LockTimeout(_))
        ));
        m.release_all(1);
        m.acquire(2, oid(0), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr(30);
        m.acquire(1, oid(0), LockMode::Shared).unwrap();
        m.acquire(1, oid(0), LockMode::Shared).unwrap();
        // Sole reader upgrades.
        m.acquire(1, oid(0), LockMode::Exclusive).unwrap();
        // Exclusive holder may "re-acquire" shared.
        m.acquire(1, oid(0), LockMode::Shared).unwrap();
        m.release_all(1);
    }

    #[test]
    fn try_acquire_never_waits() {
        let m = mgr(10_000);
        m.acquire(1, oid(0), LockMode::Exclusive).unwrap();
        let start = Instant::now();
        assert!(matches!(
            m.try_acquire(2, oid(0), LockMode::Shared),
            Err(ObjectError::LockTimeout(_))
        ));
        assert!(start.elapsed() < Duration::from_secs(1));
        // Free and already-held locks are granted as by `acquire`.
        m.try_acquire(2, oid(1), LockMode::Exclusive).unwrap();
        m.try_acquire(1, oid(0), LockMode::Shared).unwrap();
        m.release_all(1);
        m.try_acquire(2, oid(0), LockMode::Exclusive).unwrap();
        m.release_all(2);
        assert_eq!(m.locked_count(), 0);
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let m = mgr(30);
        m.acquire(1, oid(0), LockMode::Shared).unwrap();
        m.acquire(2, oid(0), LockMode::Shared).unwrap();
        assert!(matches!(
            m.acquire(1, oid(0), LockMode::Exclusive),
            Err(ObjectError::LockTimeout(_))
        ));
        m.release_all(2);
        m.acquire(1, oid(0), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn waiters_wake_on_release() {
        let m = Arc::new(mgr(2000));
        m.acquire(1, oid(0), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || m2.acquire(2, oid(0), LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(50));
        m.release_all(1);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn deadlock_broken_by_timeout() {
        let m = Arc::new(mgr(100));
        m.acquire(1, oid(0), LockMode::Exclusive).unwrap();
        m.acquire(2, oid(1), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        // Tx 1 wants oid(1), tx 2 wants oid(0): a cycle.
        let t = std::thread::spawn(move || m2.acquire(1, oid(1), LockMode::Exclusive));
        let r2 = m.acquire(2, oid(0), LockMode::Exclusive);
        let r1 = t.join().unwrap();
        // At least one of the two must have timed out.
        assert!(r1.is_err() || r2.is_err());
    }
}
