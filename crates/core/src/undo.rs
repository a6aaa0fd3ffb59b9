//! The undo journal behind pre-durability rollback.
//!
//! A mutation (commit, batched commit, checkpoint, cleaning pass) may fail
//! after it has changed in-memory state. Instead of copying that state up
//! front, every change made while a *scope* is open pushes the one thing it
//! overwrites — a pre-image, or the inverse of a list operation — onto a
//! journal. A *savepoint* is the journal's length (plus whatever fixed-size
//! scalars the owner captures beside it); rolling back pops records down to
//! it, newest first. Reaching a durable point closes the journal: nothing
//! before it can be undone any more.
//!
//! Savepoints nest: a later mark is just a longer length. A slot changed
//! many times between two marks needs only its first pre-image, so slots
//! carry a *stamp* — the journal generation in which they last recorded
//! one — and every mark starts a new generation. (Rolling back needs none:
//! the slots stamped since the mark are exactly the ones it replaces with
//! their older-stamped pre-images.)

/// What the journals of one store have captured since it was opened
/// (test-visible through [`crate::store::ChunkStore::debug_undo_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndoCounters {
    /// Savepoints taken (one pass over the fixed-size scalars each).
    pub captures: u64,
    /// Records pushed.
    pub preimages: u64,
    /// Bytes those records hold, as estimated by whoever pushed them.
    pub bytes: u64,
}

/// A LIFO journal of undo records of type `R`. Closed (the initial state),
/// it records nothing and costs one branch per change.
#[derive(Debug, Clone)]
pub(crate) struct Journal<R> {
    records: Vec<R>,
    generation: u64,
    open: bool,
    counters: UndoCounters,
}

impl<R> Journal<R> {
    pub fn new() -> Journal<R> {
        Journal {
            records: Vec::new(),
            generation: 0,
            open: false,
            counters: UndoCounters::default(),
        }
    }

    /// Takes a savepoint, opening the journal if it was closed.
    pub fn mark(&mut self) -> usize {
        self.open = true;
        self.generation += 1;
        self.counters.captures += 1;
        self.records.len()
    }

    pub fn is_open(&self) -> bool {
        self.open
    }

    /// The stamp a slot gets when its pre-image is recorded (or when it
    /// comes into being, which needs no further pre-image until the next
    /// mark either).
    pub fn stamp(&self) -> u64 {
        self.generation
    }

    /// True when a slot stamped `stamp` must record a pre-image before it
    /// changes: a scope is open and nothing above the latest mark covers
    /// the slot yet.
    pub fn wants(&self, stamp: u64) -> bool {
        self.open && stamp != self.generation
    }

    /// Records `record`, which holds about `bytes` bytes. No-op while closed.
    pub fn push(&mut self, record: R, bytes: usize) {
        if self.open {
            self.counters.preimages += 1;
            self.counters.bytes += bytes as u64;
            self.records.push(record);
        }
    }

    /// Removes the records above `mark` and yields them newest first, for
    /// the caller to apply.
    pub fn unwind(&mut self, mark: usize) -> impl Iterator<Item = R> {
        self.records.split_off(mark).into_iter().rev()
    }

    /// Forgets every record and stops recording: a durable point was
    /// reached, or the outermost scope ended.
    pub fn close(&mut self) {
        self.records.clear();
        self.open = false;
    }

    pub fn counters(&self) -> UndoCounters {
        self.counters
    }
}
