//! Sessions: the execution context every command runs in.
//!
//! A [`Session`] is one authenticated principal's stateful view of the
//! database: its active transaction (transactions are **session-scoped**,
//! not borrow-scoped, so one can span many network requests), its health
//! view, and its per-session counters. The embedded API and the network
//! server both execute the same [`Command`] stream through
//! [`Session::dispatch`] — the session layer *is* the database surface,
//! and the transports are thin framing around it.
//!
//! Commands that touch objects while no transaction is open run in
//! **autocommit** mode: a fresh transaction per command, committed before
//! the response. Many concurrent autocommit sessions are exactly the
//! traffic shape the group-commit batcher was built for — each commit
//! parks on the leader's flush and shares it.
//!
//! [`Session::dispatch_many`] runs a burst of commands — a server
//! connection's pipeline — with the same semantics as dispatching them
//! one by one, and makes the burst's autocommit writes one group commit.
//! An autocommit `Put`, `Create` or `Delete` runs at once — locks taken,
//! write buffered — but its transaction stays open beside the others
//! until a barrier commits them together ([`Tx::commit_all`]): one batch,
//! one flush, each write atomic alone with its own result. A `Get` of an
//! id no pending write touches runs in place. Every other command is a
//! barrier: a read or write of a pending id, `GetWithProof` and
//! `SnapshotRoot` (the root covers every id), anything that opens, runs
//! in, or ends an explicit transaction, control and collection commands.
//! The end of the burst is one too. A reply is handed on as soon as it
//! is final: at once when no write is pending before it, so an all-read
//! burst is answered command by command, and otherwise only after the
//! group commit of the writes at or before it has returned. While
//! pending transactions hold locks the session never waits for another:
//! a command whose lock is busy commits the pending writes first and then
//! runs normally, so batching adds no wait-for edge. [`Session::dispatch`]
//! is a burst of one.

use std::sync::Arc;

use tdb_core::store::ChunkStore;
use tdb_core::{CoreError, PartitionId};
use tdb_object::errors::ObjectError;
use tdb_object::{MvccTx, ObjectId, ObjectStore, Transactional, Tx};

use crate::command::{Command, Response, TxMode, WireError};
use crate::{wire, CollectionStore, StoreHealth, TdbError, TrustedDb};

/// Per-session counters, labelled by principal in server logs.
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionStats {
    /// Commands dispatched.
    pub commands: u64,
    /// Commands answered with [`Response::Error`].
    pub errors: u64,
    /// Explicit transaction commits.
    pub commits: u64,
    /// Explicit transaction aborts (not counting drops).
    pub aborts: u64,
    /// Commands executed in an implicit one-shot transaction.
    pub autocommits: u64,
}

/// One [`Session::dispatch_many`] call in progress.
struct Burst<'a> {
    /// Where final replies go, in request order.
    reply: &'a mut dyn FnMut(Response),
    /// Replies held back from the first pending write on, in order.
    held: Vec<Response>,
    /// Autocommit writes that have run but not committed, each with its
    /// held reply's index and the id it writes: they hold their locks and
    /// buffer their writes until the next barrier commits them together.
    pending: Vec<(usize, ObjectId, Tx)>,
    /// Error replies handed on.
    errors: u64,
}

impl Burst<'_> {
    /// Hands a reply on, or holds it while writes are pending: a reply at
    /// or after a pending write waits for that write's group commit.
    fn answer(&mut self, resp: Response) {
        if self.pending.is_empty() {
            self.errors += u64::from(matches!(resp, Response::Error(_)));
            (self.reply)(resp);
        } else {
            self.held.push(resp);
        }
    }
}

/// The session's open transaction, if any.
enum ActiveTx {
    Locking(Tx),
    Mvcc(MvccTx),
}

/// One principal's stateful connection to the database.
///
/// Holds owned handles to the store layers, so sessions are `'static`:
/// a server parks one per connection, the embedded API uses one inline.
pub struct Session {
    chunks: Arc<ChunkStore>,
    objects: Arc<ObjectStore>,
    collections: CollectionStore,
    partition: PartitionId,
    principal: String,
    tx: Option<ActiveTx>,
    stats: SessionStats,
}

impl TrustedDb {
    /// Opens a session for `principal`. Authentication happens at the
    /// transport (the server's challenge-response handshake); by the time
    /// a session exists the principal is trusted.
    pub fn session(&self, principal: &str) -> Session {
        Session {
            chunks: Arc::clone(self.chunks()),
            objects: Arc::clone(self.objects()),
            collections: self.collections().clone(),
            partition: self.partition(),
            principal: principal.to_string(),
            tx: None,
            stats: SessionStats::default(),
        }
    }
}

fn err(e: impl Into<TdbError>) -> Response {
    Response::Error(WireError::from(&e.into()))
}

impl Session {
    /// The authenticated principal this session runs as.
    pub fn principal(&self) -> &str {
        &self.principal
    }

    /// Per-session counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// True while a transaction is open on this session.
    pub fn in_tx(&self) -> bool {
        self.tx.is_some()
    }

    /// The session's current view of store health — what the server
    /// stamps on every response frame so clients learn about degraded
    /// mode without a dedicated poll.
    pub fn health(&self) -> StoreHealth {
        self.chunks.health()
    }

    /// Executes one command and returns its response. Never panics:
    /// every failure becomes a typed [`Response::Error`].
    pub fn dispatch(&mut self, cmd: &Command) -> Response {
        let mut out = None;
        self.dispatch_many(std::slice::from_ref(cmd), |resp| out = Some(resp));
        out.expect("one response per command")
    }

    /// Executes a burst of commands in order, handing their responses to
    /// `reply` in order, exactly as one [`Session::dispatch`] each would —
    /// except that autocommit writes between barriers share one group
    /// commit (see the module docs). A response goes out as soon as it is
    /// final: at once when no write is pending before it, else once that
    /// write's group commit has returned. Every write is durable by the
    /// time this returns.
    pub fn dispatch_many(&mut self, cmds: &[Command], mut reply: impl FnMut(Response)) {
        let mut burst = Burst {
            reply: &mut reply,
            held: Vec::new(),
            pending: Vec::new(),
            errors: 0,
        };
        for cmd in cmds {
            if !self.joins_burst(cmd, &burst) {
                Self::commit_pending(&mut burst);
            }
            let resp = self.dispatch_inner(cmd, &mut burst);
            burst.answer(resp);
        }
        Self::commit_pending(&mut burst);
        self.stats.commands += cmds.len() as u64;
        self.stats.errors += burst.errors;
    }

    /// Whether `cmd` can run while the burst's writes are still pending:
    /// an autocommit `Create`, or a `Get`, `Put` or `Delete` of an id no
    /// pending write touches.
    fn joins_burst(&self, cmd: &Command, burst: &Burst) -> bool {
        self.tx.is_none()
            && match cmd {
                Command::Create { .. } => true,
                Command::Get(id) | Command::Put { id, .. } | Command::Delete(id) => {
                    burst.pending.iter().all(|(_, written, _)| written != id)
                }
                _ => false,
            }
    }

    /// Commits the pending autocommit writes as one group commit, turns
    /// the replies of those that failed into their errors, and hands on
    /// every held reply.
    fn commit_pending(burst: &mut Burst) {
        if burst.pending.is_empty() {
            return;
        }
        let (slots, txs): (Vec<usize>, Vec<Tx>) = burst
            .pending
            .drain(..)
            .map(|(slot, _, tx)| (slot, tx))
            .unzip();
        for (slot, result) in slots.into_iter().zip(Tx::commit_all(txs)) {
            if let Err(e) = result {
                burst.held[slot] = err(e);
            }
        }
        for resp in std::mem::take(&mut burst.held) {
            burst.answer(resp);
        }
    }

    fn dispatch_inner(&mut self, cmd: &Command, burst: &mut Burst) -> Response {
        match cmd {
            Command::Ping => Response::Pong,
            Command::Health => {
                let (state, reason) = wire::health_stamp(&self.chunks.health());
                Response::Health { state, reason }
            }
            Command::SnapshotRoot => match self.chunks.snapshot_root(self.partition) {
                Ok(root) => Response::Root(root.as_bytes().to_vec()),
                Err(e) => err(e),
            },
            Command::Checkpoint => match self.chunks.checkpoint() {
                Ok(()) => Response::Ok,
                Err(e) => err(e),
            },
            Command::Clean(max) => match self.chunks.clean(*max as usize) {
                Ok(n) => Response::Count(n as u64),
                Err(e) => err(e),
            },
            Command::Begin(mode) => self.begin(*mode),
            Command::Commit => self.commit(),
            Command::Abort => self.abort(),
            _ => self.dispatch_data(cmd, burst),
        }
    }

    fn begin(&mut self, mode: TxMode) -> Response {
        if self.tx.is_some() {
            return err(CoreError::Busy(
                "a transaction is already open on this session".into(),
            ));
        }
        let tx = match mode {
            TxMode::Locking => ActiveTx::Locking(self.objects.begin()),
            TxMode::Mvcc => match self.objects.begin_mvcc() {
                Ok(tx) => ActiveTx::Mvcc(tx),
                Err(e) => return err(e),
            },
        };
        self.tx = Some(tx);
        Response::Ok
    }

    fn commit(&mut self) -> Response {
        let Some(tx) = self.tx.take() else {
            return err(ObjectError::TxFinished);
        };
        let result = match tx {
            ActiveTx::Locking(tx) => tx.commit(),
            ActiveTx::Mvcc(tx) => tx.commit(),
        };
        match result {
            Ok(()) => {
                self.stats.commits += 1;
                Response::Ok
            }
            Err(e) => err(e),
        }
    }

    fn abort(&mut self) -> Response {
        let Some(tx) = self.tx.take() else {
            return err(ObjectError::TxFinished);
        };
        match tx {
            ActiveTx::Locking(tx) => tx.abort(),
            ActiveTx::Mvcc(tx) => tx.abort(),
        }
        self.stats.aborts += 1;
        Response::Ok
    }

    /// Object/collection commands: run on the open transaction, or in a
    /// one-shot autocommit transaction when none is open.
    fn dispatch_data(&mut self, cmd: &Command, burst: &mut Burst) -> Response {
        // Proof-carrying reads resolve against the committed tree, so the
        // no-transaction path serves them straight from the chunk store.
        if let (Command::GetWithProof(id), None) = (cmd, &self.tx) {
            return self.proof_read_committed(*id);
        }
        match &mut self.tx {
            Some(ActiveTx::Locking(tx)) => {
                Self::exec(&self.collections, &self.objects, tx, cmd).unwrap_or_else(err)
            }
            Some(ActiveTx::Mvcc(tx)) => {
                if let Command::GetWithProof(id) = cmd {
                    return match tx.get_with_proof_dyn(*id) {
                        // The root is the one the proof was extracted
                        // against; a fallback read has neither.
                        Ok((obj, vread)) => match vread {
                            Some(v) => Response::VerifiedRecord {
                                root: v.proof.root.as_bytes().to_vec(),
                                proof: Some(v.proof.encode()),
                                record: v.record,
                            },
                            None => Response::VerifiedRecord {
                                record: crate::TypeRegistry::pickle(obj.as_ref()),
                                proof: None,
                                root: Vec::new(),
                            },
                        },
                        Err(e) => err(e),
                    };
                }
                Self::exec(&self.collections, &self.objects, tx, cmd).unwrap_or_else(err)
            }
            None => {
                self.stats.autocommits += 1;
                self.autocommit(cmd, burst)
            }
        }
    }

    /// Runs `cmd` in a one-shot transaction. A write's transaction joins
    /// the burst's pending writes, to be committed at the next barrier; a
    /// read's commits at once.
    fn autocommit(&mut self, cmd: &Command, burst: &mut Burst) -> Response {
        let mut tx = self.objects.begin();
        // Holding pending writes' locks, never wait for another lock.
        let holding = !burst.pending.is_empty();
        tx.set_lock_wait(!holding);
        let resp = match Self::exec(&self.collections, &self.objects, &mut tx, cmd) {
            Ok(resp) => resp,
            Err(e) => {
                tx.abort();
                if holding && matches!(e, TdbError::Object(ObjectError::LockTimeout(_))) {
                    // Busy: commit what is pending, then wait like anyone else.
                    Self::commit_pending(burst);
                    return self.autocommit(cmd, burst);
                }
                return err(e);
            }
        };
        let id = match (cmd, &resp) {
            (Command::Put { id, .. } | Command::Delete(id), _)
            | (Command::Create { .. }, Response::Id(id)) => *id,
            _ => return tx.commit().map_or_else(err, |()| resp),
        };
        burst.pending.push((burst.held.len(), id, tx));
        resp
    }

    /// A verifiable read of current committed state, outside any
    /// transaction: the record plus its Merkle path to the root digest.
    fn proof_read_committed(&mut self, id: tdb_object::ObjectId) -> Response {
        match self.chunks.read_with_proof(id.0) {
            // One lock hold extracted body, proof and root together.
            Ok((record, proof)) => Response::VerifiedRecord {
                record,
                root: proof.root.as_bytes().to_vec(),
                proof: Some(proof.encode()),
            },
            Err(CoreError::NotAllocated(_)) | Err(CoreError::NotWritten(_)) => {
                err(ObjectError::NotFound(id))
            }
            Err(e) => err(e),
        }
    }

    /// The single executor both transaction kinds share, monomorphized
    /// over the [`Transactional`] impl.
    fn exec<T: Transactional>(
        collections: &CollectionStore,
        objects: &ObjectStore,
        tx: &mut T,
        cmd: &Command,
    ) -> crate::Result<Response> {
        let result = match cmd {
            Command::Create {
                partition: target,
                record,
            } => objects
                .unpickle_record(record)
                .and_then(|obj| tx.create(*target, obj))
                .map(Response::Id),
            Command::Get(id) => tx
                .get_dyn(*id)
                .map(|obj| Response::Record(crate::TypeRegistry::pickle(obj.as_ref()))),
            // Inside a locking transaction the Merkle tree cannot vouch
            // for buffered state; serve the value with no proof.
            Command::GetWithProof(id) => tx.get_dyn(*id).map(|obj| Response::VerifiedRecord {
                record: crate::TypeRegistry::pickle(obj.as_ref()),
                proof: None,
                root: Vec::new(),
            }),
            Command::Put { id, record } => objects
                .unpickle_record(record)
                .and_then(|obj| tx.put(*id, obj))
                .map(|()| Response::Ok),
            Command::Delete(id) => tx.delete(*id).map(|()| Response::Ok),
            Command::CollCreate {
                partition: target,
                name,
            } => collections
                .create_collection(tx, *target, name)
                .map(|coll| Response::Id(coll.0)),
            Command::CollLen(coll) => collections.len(tx, *coll).map(Response::Count),
            Command::CollInsert { coll, record } => objects
                .unpickle_record(record)
                .and_then(|obj| collections.insert(tx, *coll, obj))
                .map(Response::Id),
            Command::CollAdd { coll, id } => collections.add(tx, *coll, *id).map(|()| Response::Ok),
            Command::CollRemove { coll, id } => {
                collections.remove(tx, *coll, *id).map(|()| Response::Ok)
            }
            Command::CollScan(coll) => collections.scan(tx, *coll).map(Response::Ids),
            Command::CollAddIndex {
                coll,
                name,
                extractor,
                kind,
            } => collections
                .add_index(tx, *coll, name, extractor, *kind)
                .map(|()| Response::Ok),
            Command::CollLookup { coll, index, key } => {
                collections.lookup(tx, *coll, index, key).map(Response::Ids)
            }
            Command::CollRange {
                coll,
                index,
                lo,
                hi,
            } => collections
                .range(tx, *coll, index, lo.as_deref(), hi.as_deref())
                .map(Response::Ids),
            // Control commands are handled before exec; reaching here is
            // a dispatch bug, answered as a typed error rather than a
            // panic so a malformed stream cannot kill a server thread.
            _ => {
                return Err(CoreError::Corrupt(format!(
                    "command {:?} is not a data command",
                    cmd.opcode()
                ))
                .into())
            }
        };
        Ok(result?)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // An abandoned session aborts its open transaction (locks release,
        // snapshots end) — the connection-drop path on a server.
        if let Some(tx) = self.tx.take() {
            match tx {
                ActiveTx::Locking(tx) => tx.abort(),
                ActiveTx::Mvcc(tx) => tx.abort(),
            }
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("principal", &self.principal)
            .field("in_tx", &self.tx.is_some())
            .finish_non_exhaustive()
    }
}
