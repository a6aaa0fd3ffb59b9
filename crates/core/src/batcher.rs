//! Group commit: the chunk store's only commit path.
//!
//! The paper's engine serializes everything behind one mutex and pays one
//! device flush per commit — "a commit operation waits until the commit
//! set is written to the untrusted store reliably" (§4.8.2.1). A lone
//! commit here is a batch of one and does exactly that, with the same log
//! bytes and one flush. With many committer threads the flush dominates,
//! so this module amortizes it the classic group-commit way while keeping
//! the paper's durability rule per *batch*:
//!
//! - Committers hash and seal their own writes, then enqueue their op set
//!   with those seals and park on a condition variable. The crypto, the
//!   chunk store's dominant cost (§9.3), thus runs on each committer's own
//!   thread, not on the leader's under the engine lock. A caller holding
//!   several independent commits — a server connection's pipelined burst
//!   of autocommit writes — seals them in one pass and enqueues them as
//!   adjacent members ([`ChunkStore::commit_many`]), so they share one
//!   batch even with no other committer around.
//! - The first committer to find no leader active becomes the **leader**:
//!   it drains up to [`BATCH_MAX`] queued commits, takes the engine
//!   lock once, and runs [`crate::store::Inner::commit_batch`] — every
//!   member is validated and applied (a write whose early seal is missing,
//!   or was made under a key its partition no longer has, is sealed
//!   there), their appends coalesce into segment-sized runs (one
//!   `write_at` per run instead of one per version), and a single flush
//!   ends the batch.
//! - The leader publishes each member's own `Result`, *then* wakes the
//!   waiters. A waiter therefore never observes success before its bytes
//!   are durable (durability-before-ack), and a failing member is rejected
//!   without poisoning its batch-mates (per-commit atomicity).
//!
//! The queue is intentionally dumb: ordering is arrival order, fairness
//! comes from draining the front, and a leader whose own entry missed the
//! drained window (more than [`BATCH_MAX`] older entries) simply
//! loops and leads again.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::errors::Result;
use crate::ids::PartitionId;
use crate::pipeline::Seals;
use crate::store::{ChunkStore, CommitOp};

/// One enqueued commit, shared between its waiter and the batch leader.
struct PendingCommit {
    /// The op set and what its committer sealed of it, by op; taken (once)
    /// by the leader that drains this entry.
    ops: Mutex<Option<(Vec<CommitOp>, Seals)>>,
    /// The member's outcome, set by the leader before it wakes waiters.
    result: Mutex<Option<Result<()>>>,
}

/// Shared queue state: pending commits plus the single-leader latch.
struct BatchQueue {
    queue: VecDeque<Arc<PendingCommit>>,
    leader_active: bool,
}

/// Most members a leader drains into one batch.
const BATCH_MAX: usize = 64;

/// The group-commit coordinator owned by a [`ChunkStore`].
pub(crate) struct CommitBatcher {
    shared: Mutex<BatchQueue>,
    wakeup: Condvar,
}

impl CommitBatcher {
    pub(crate) fn new() -> CommitBatcher {
        CommitBatcher {
            shared: Mutex::new(BatchQueue {
                queue: VecDeque::new(),
                leader_active: false,
            }),
            wakeup: Condvar::new(),
        }
    }
}

impl ChunkStore {
    /// Group-commit entry point: enqueue the op sets, with what the caller
    /// sealed of them, as adjacent members, lead or wait, and return each
    /// one's own result once its batch reached durability. A single commit
    /// is a one-element call.
    pub(crate) fn commit_batched(
        &self,
        sets: Vec<Vec<CommitOp>>,
        sealed: Vec<Seals>,
    ) -> Vec<Result<()>> {
        let batcher = &self.batcher;
        let entries: Vec<Arc<PendingCommit>> = sets
            .into_iter()
            .zip(sealed)
            .map(|(ops, sealed)| {
                Arc::new(PendingCommit {
                    ops: Mutex::new(Some((ops, sealed))),
                    result: Mutex::new(None),
                })
            })
            .collect();
        let Some(last) = entries.last() else {
            return Vec::new();
        };
        let mut shared = batcher.shared.lock();
        shared.queue.extend(entries.iter().cloned());
        let mut yielded = false;
        loop {
            // The leader publishes results before clearing the latch and
            // notifying, so this check is the ack point. Leaders drain the
            // queue front first and publish in member order, so once the
            // last entry has its result every earlier one has too.
            if last.result.lock().is_some() {
                return entries
                    .iter()
                    .map(|e| e.result.lock().take().expect("published in order"))
                    .collect();
            }
            if shared.leader_active {
                batcher.wakeup.wait(&mut shared);
                continue;
            }
            // Commit delay, once, at its cheapest: a would-be leader of a
            // batch of one yields the core a single time so committers
            // unparked by the previous batch can enqueue behind it. One
            // scheduler quantum against a device flush is a good trade;
            // a lone committer pays it once and never again.
            if shared.queue.len() == 1 && !yielded {
                yielded = true;
                drop(shared);
                std::thread::yield_now();
                shared = batcher.shared.lock();
                continue;
            }
            shared.leader_active = true;
            let take = shared.queue.len().min(BATCH_MAX);
            let members: Vec<Arc<PendingCommit>> = shared.queue.drain(..take).collect();
            drop(shared);
            self.run_batch(&members);
            shared = batcher.shared.lock();
            shared.leader_active = false;
            batcher.wakeup.notify_all();
            // Our own entries were usually in `members`; if more than `BATCH_MAX`
            // older commits were queued some were not, and the loop leads
            // (or waits) again until their results appear.
        }
    }

    /// Leader body: one engine-lock hold for the whole batch — which opens
    /// with an inline cleaning slice when a bounded log runs short of free
    /// segments — then the crypto table's update and result delivery.
    fn run_batch(&self, members: &[Arc<PendingCommit>]) {
        let mut inner = self.inner.lock();
        inner.slice_if_short();
        if inner.check_writable().is_err() {
            // Refuse the whole batch with fresh per-member errors; no
            // member state was touched.
            for m in members {
                let err = inner.check_writable().expect_err("checked unhealthy");
                *m.result.lock() = Some(Err(err));
            }
            return;
        }
        let (sets, sealed): (Vec<Vec<CommitOp>>, Vec<Seals>) = members
            .iter()
            .map(|m| m.ops.lock().take().expect("ops taken once, by the leader"))
            .unzip();
        let (mut written, mut deallocated) = (Vec::<PartitionId>::new(), false);
        for op in sets.iter().flatten() {
            match op {
                CommitOp::WriteChunk { id, .. } => written.push(id.partition),
                CommitOp::CreatePartition { id, .. } | CommitOp::CopyPartition { dst: id, .. } => {
                    written.push(*id);
                }
                CommitOp::DeallocPartition { .. } => deallocated = true,
                CommitOp::DeallocChunk { .. } => {}
            }
        }
        written.sort_unstable();
        written.dedup();
        let results = inner.commit_batch(sets, sealed);
        debug_assert_eq!(results.len(), members.len());
        self.publish_cryptos(&mut inner, &written, deallocated);
        for (m, result) in members.iter().zip(results) {
            *m.result.lock() = Some(result);
        }
    }
}
