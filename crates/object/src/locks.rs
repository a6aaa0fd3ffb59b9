//! The lock manager: two-phase read/write locking (§7), with deadlocks
//! found in the waits-for graph and the timeout kept as the backstop.
//!
//! "The object store implements two-phase locking on objects and breaks
//! deadlocks using timeouts. Transactions acquire locks in either shared or
//! exclusive mode. We chose not to implement granular or operation-level
//! locks because we expect only a few concurrent transactions."
//!
//! Timeouts alone turn the commonest conflict — two transactions that read
//! one object and then both write it — into a wait of the full timeout for
//! both. So a request that would wait is first checked against the
//! waits-for graph: when waiting would close a cycle, the requester is
//! refused at once ([`Denied::Cycle`]) and learns whom it waited for. Its
//! transaction aborts and waits, with [`LockManager::await_release`], for
//! those transactions to let the object go before it runs again; retrying
//! at once only closes the next cycle. A new shared request queues behind a
//! waiting exclusive one, so an upgrade is not starved by a stream of
//! readers, and that queueing is an edge of the graph like any other.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

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

/// Why a lock was not granted.
#[derive(Debug, PartialEq, Eq)]
pub enum Denied {
    /// Still held incompatibly at the deadline (at once, for
    /// [`LockManager::try_acquire`]).
    Timeout,
    /// Waiting would have closed a waits-for cycle. Carries the
    /// transactions the request waited for.
    Cycle(Vec<TxId>),
}

#[derive(Default)]
struct LockState {
    /// Transactions holding the lock in shared mode.
    sharers: Vec<TxId>,
    /// The transaction holding it exclusively, if any.
    owner: Option<TxId>,
}

impl LockState {
    fn holds(&self, tx: TxId) -> bool {
        self.owner == Some(tx) || self.sharers.contains(&tx)
    }

    fn grant(&mut self, tx: TxId, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if !self.holds(tx) {
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
}

#[derive(Default)]
struct Table {
    locks: HashMap<ObjectId, LockState>,
    /// The request each waiting transaction waits on.
    waiting: HashMap<TxId, (ObjectId, LockMode)>,
}

impl Table {
    /// The transactions `tx`'s request for `mode` on `id` waits for: the
    /// incompatible holders and, for a shared request that `tx` does not
    /// already hold, every exclusive request waiting on `id`, whether or
    /// not anyone holds `id` now: a writer still queued when the last
    /// holder lets go goes first. Empty when the request is grantable.
    fn blockers(&self, tx: TxId, id: ObjectId, mode: LockMode) -> Vec<TxId> {
        let free = LockState::default();
        let state = self.locks.get(&id).unwrap_or(&free);
        let mut out: Vec<TxId> = state.owner.filter(|&t| t != tx).into_iter().collect();
        match mode {
            LockMode::Exclusive => out.extend(state.sharers.iter().filter(|&&t| t != tx)),
            LockMode::Shared if !state.holds(tx) && !self.waiting.is_empty() => {
                out.extend(self.waiting.iter().filter_map(|(&t, &(on, m))| {
                    (t != tx && on == id && m == LockMode::Exclusive).then_some(t)
                }));
            }
            LockMode::Shared => {}
        }
        out
    }

    /// Whether `tx` is reachable from `from` in the waits-for graph.
    fn reaches(&self, from: &[TxId], tx: TxId) -> bool {
        let mut stack = from.to_vec();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == tx {
                return true;
            }
            if seen.insert(t) {
                if let Some(&(id, mode)) = self.waiting.get(&t) {
                    stack.extend(self.blockers(t, id, mode));
                }
            }
        }
        false
    }
}

/// The table of object locks.
pub struct LockManager {
    table: Mutex<Table>,
    /// Signalled when a lock is released or a waiter gives up.
    released: Condvar,
    timeout: Duration,
}

impl LockManager {
    /// Creates a manager with the given acquisition timeout.
    pub fn new(timeout: Duration) -> LockManager {
        LockManager {
            table: Mutex::new(Table::default()),
            released: Condvar::new(),
            timeout,
        }
    }

    /// Acquires (or upgrades to) `mode` on `id` for `tx`, waiting up to the
    /// timeout. Re-acquiring an already-held mode is a no-op.
    ///
    /// # Errors
    ///
    /// [`Denied::Cycle`] at once if waiting would close a waits-for cycle;
    /// [`Denied::Timeout`] if the lock is still unavailable at the
    /// deadline — the paper's deadlock breaker, kept as the backstop.
    pub fn acquire(&self, tx: TxId, id: ObjectId, mode: LockMode) -> Result<(), Denied> {
        let mut table = self.table.lock();
        let mut blockers = table.blockers(tx, id, mode);
        if blockers.is_empty() {
            table.locks.entry(id).or_default().grant(tx, mode);
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        table.waiting.insert(tx, (id, mode));
        let denied = loop {
            // Checked on every wake too: the edges of a waiting request
            // change as holders come and go.
            if table.reaches(&blockers, tx) {
                break Denied::Cycle(blockers);
            }
            if self.released.wait_until(&mut table, deadline).timed_out() {
                break Denied::Timeout;
            }
            blockers = table.blockers(tx, id, mode);
            if blockers.is_empty() {
                table.waiting.remove(&tx);
                table.locks.entry(id).or_default().grant(tx, mode);
                return Ok(());
            }
        };
        table.waiting.remove(&tx);
        drop(table);
        // Shared requests queued behind this one may go now.
        self.released.notify_all();
        Err(denied)
    }

    /// Like [`LockManager::acquire`] with a zero timeout: grants `mode` if
    /// it is grantable right now and never waits, so a caller already
    /// holding other locks adds no wait-for edge.
    ///
    /// # Errors
    ///
    /// [`Denied::Timeout`] if the lock is held incompatibly.
    pub fn try_acquire(&self, tx: TxId, id: ObjectId, mode: LockMode) -> Result<(), Denied> {
        let mut table = self.table.lock();
        if !table.blockers(tx, id, mode).is_empty() {
            return Err(Denied::Timeout);
        }
        table.locks.entry(id).or_default().grant(tx, mode);
        Ok(())
    }

    /// Releases every lock held by `tx` (commit or abort — 2PL releases all
    /// at once at transaction end).
    pub fn release_all(&self, tx: TxId) {
        let mut table = self.table.lock();
        table.locks.retain(|_, state| {
            state.sharers.retain(|&t| t != tx);
            if state.owner == Some(tx) {
                state.owner = None;
            }
            state.owner.is_some() || !state.sharers.is_empty()
        });
        drop(table);
        self.released.notify_all();
    }

    /// How many requests are waiting for a lock.
    pub fn waiting_count(&self) -> usize {
        self.table.lock().waiting.len()
    }

    /// Waits until none of `txs` holds or waits for a lock on `id`, or up
    /// to the timeout: what a cycle's victim does after releasing its own
    /// locks, so that its retry finds the object free instead of closing
    /// the next cycle.
    pub fn await_release(&self, id: ObjectId, txs: &[TxId]) {
        let deadline = Instant::now() + self.timeout;
        let mut table = self.table.lock();
        while txs.iter().any(|&t| {
            table.locks.get(&id).is_some_and(|s| s.holds(t))
                || table.waiting.get(&t).is_some_and(|&(on, _)| on == id)
        }) {
            if self.released.wait_until(&mut table, deadline).timed_out() {
                return;
            }
        }
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

    impl LockManager {
        /// Number of objects currently locked.
        fn locked_count(&self) -> usize {
            self.table.lock().locks.len()
        }
    }

    /// Waits until `tx` is queued in `m`'s waits-for graph.
    fn until_waiting(m: &LockManager, tx: TxId) {
        while !m.table.lock().waiting.contains_key(&tx) {
            std::thread::sleep(Duration::from_millis(1));
        }
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
        assert_eq!(m.acquire(2, oid(0), LockMode::Shared), Err(Denied::Timeout));
        assert_eq!(
            m.acquire(2, oid(0), LockMode::Exclusive),
            Err(Denied::Timeout)
        );
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
        assert_eq!(
            m.try_acquire(2, oid(0), LockMode::Shared),
            Err(Denied::Timeout)
        );
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
        assert_eq!(
            m.acquire(1, oid(0), LockMode::Exclusive),
            Err(Denied::Timeout)
        );
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
        // At least one of the two must have been refused.
        assert!(r1.is_err() || r2.is_err());
    }

    #[test]
    fn two_upgrading_sharers_one_refused_at_once() {
        let m = Arc::new(mgr(10_000));
        m.acquire(1, oid(0), LockMode::Shared).unwrap();
        m.acquire(2, oid(0), LockMode::Shared).unwrap();
        let m1 = Arc::clone(&m);
        let first = std::thread::spawn(move || m1.acquire(1, oid(0), LockMode::Exclusive));
        until_waiting(&m, 1);
        let start = Instant::now();
        assert_eq!(
            m.acquire(2, oid(0), LockMode::Exclusive),
            Err(Denied::Cycle(vec![1]))
        );
        assert!(start.elapsed() < Duration::from_millis(50));
        m.release_all(2);
        first.join().unwrap().unwrap();
        m.release_all(1);
        assert_eq!(m.locked_count(), 0);
    }

    #[test]
    fn shared_request_queues_behind_waiting_exclusive() {
        let m = Arc::new(mgr(10_000));
        m.acquire(1, oid(0), LockMode::Shared).unwrap();
        m.acquire(3, oid(1), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let writer = std::thread::spawn(move || m2.acquire(2, oid(0), LockMode::Exclusive));
        until_waiting(&m, 2);
        // Tx 3 could share with tx 1, but queues behind the writer.
        let m3 = Arc::clone(&m);
        let reader = std::thread::spawn(move || m3.acquire(3, oid(0), LockMode::Shared));
        until_waiting(&m, 3);
        // The queueing is an edge: 1 → 3 → 2 → 1 is a cycle.
        assert_eq!(
            m.acquire(1, oid(1), LockMode::Shared),
            Err(Denied::Cycle(vec![3]))
        );
        m.release_all(1);
        writer.join().unwrap().unwrap();
        assert!(
            m.table.lock().waiting.contains_key(&3),
            "reader still queued"
        );
        m.release_all(2);
        reader.join().unwrap().unwrap();
        m.release_all(3);
        assert_eq!(m.locked_count(), 0);
    }

    #[test]
    fn shared_request_queues_behind_exclusive_waiting_on_a_free_object() {
        // The moment after the last holder let go, before the writer woke.
        let mut table = Table::default();
        table.waiting.insert(2, (oid(0), LockMode::Exclusive));
        assert_eq!(table.blockers(3, oid(0), LockMode::Shared), vec![2]);
        assert!(table.blockers(2, oid(0), LockMode::Exclusive).is_empty());
    }

    #[test]
    fn await_release_returns_once_the_blocker_lets_go() {
        let m = Arc::new(mgr(10_000));
        m.acquire(1, oid(0), LockMode::Exclusive).unwrap();
        let m2 = Arc::clone(&m);
        let start = Instant::now();
        let waiter = std::thread::spawn(move || {
            m2.await_release(oid(0), &[1]);
            Instant::now()
        });
        std::thread::sleep(Duration::from_millis(50));
        let released = Instant::now();
        m.release_all(1);
        assert!(waiter.join().unwrap() >= released);
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
