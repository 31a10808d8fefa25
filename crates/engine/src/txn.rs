//! Transactions, undo and row locks.

use std::collections::{BTreeMap, VecDeque};

use recobench_sim::SimTime;

use crate::error::{DbError, DbResult};
use crate::fasthash::FastMap;
use crate::row::{ColumnDelta, Row};
use crate::types::{ObjectId, RowId, TxnId};

/// The logical inverse of one change, retained until commit.
#[derive(Debug, Clone, PartialEq)]
pub enum UndoOp {
    /// Undo an insert by deleting the row.
    UndoInsert {
        /// Table changed.
        obj: ObjectId,
        /// Row inserted.
        rid: RowId,
    },
    /// Undo an update by restoring the before-image.
    UndoUpdate {
        /// Table changed.
        obj: ObjectId,
        /// Row updated.
        rid: RowId,
        /// Image to restore.
        before: Row,
    },
    /// Undo a replayed column delta by splicing its before-values back
    /// onto the row: only a replay keeps this form, as the log stores it.
    UndoColumns {
        /// Table changed.
        obj: ObjectId,
        /// Row updated.
        rid: RowId,
        /// The changed columns, before and after.
        delta: ColumnDelta,
    },
    /// Undo a delete by re-inserting the before-image.
    UndoDelete {
        /// Table changed.
        obj: ObjectId,
        /// Row deleted.
        rid: RowId,
        /// Image to restore.
        before: Row,
    },
}

/// Per-transaction state.
#[derive(Debug, Default, Clone)]
pub struct TxnState {
    /// Undo records in application order (rolled back in reverse).
    pub undo: Vec<UndoOp>,
    /// Row locks held.
    pub locks: Vec<(ObjectId, RowId)>,
}

/// The table of active transactions.
#[derive(Debug, Default, Clone)]
pub struct TxnTable {
    active: BTreeMap<TxnId, TxnState>,
    next: u64,
    /// Finished states, emptied, for [`TxnTable::begin`] to hand out again
    /// with the capacity their vectors grew to.
    spare: Vec<TxnState>,
}

impl TxnTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TxnTable::default()
    }

    /// Starts a transaction.
    pub fn begin(&mut self) -> TxnId {
        self.next += 1;
        let id = TxnId(self.next);
        self.active.insert(id, self.spare.pop().unwrap_or_default());
        id
    }

    /// Takes back the state of a transaction that [`TxnTable::finish`]
    /// ended, once its caller is done with it.
    pub fn recycle(&mut self, mut st: TxnState) {
        st.undo.clear();
        st.locks.clear();
        self.spare.push(st);
    }

    /// Mutable state of an active transaction.
    ///
    /// # Errors
    ///
    /// Fails if the transaction is not active.
    pub fn get_mut(&mut self, txn: TxnId) -> DbResult<&mut TxnState> {
        self.active.get_mut(&txn).ok_or_else(|| DbError::TxnNotActive(txn))
    }

    /// Ends a transaction, returning its state (for lock release or undo).
    ///
    /// # Errors
    ///
    /// Fails if the transaction is not active.
    pub fn finish(&mut self, txn: TxnId) -> DbResult<TxnState> {
        self.active.remove(&txn).ok_or_else(|| DbError::TxnNotActive(txn))
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Advances the id allocator past `floor` (used after recovery so new
    /// transactions never reuse a replayed id).
    pub fn bump_past(&mut self, floor: u64) {
        self.next = self.next.max(floor);
    }

    /// Finds a live transaction other than `txn` whose undo log holds a
    /// before-image of a row of `obj` matching `pred` — a transaction that
    /// deleted that row or moved it away, and would resurrect the image if
    /// it rolled back. Returns the transaction and the row it still holds
    /// locked, so the caller can queue behind it.
    pub fn vacated_by_other<F>(&self, txn: TxnId, obj: ObjectId, pred: F) -> Option<(TxnId, RowId)>
    where
        F: Fn(&Row) -> bool,
    {
        self.active.iter().filter(|&(&id, _)| id != txn).find_map(|(&id, st)| {
            st.undo.iter().find_map(|op| match op {
                UndoOp::UndoDelete { obj: o, rid, before }
                | UndoOp::UndoUpdate { obj: o, rid, before }
                    if *o == obj && pred(before) =>
                {
                    Some((id, *rid))
                }
                _ => None,
            })
        })
    }
}

/// Result of one lock acquisition attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was free and is now held by the requester.
    Acquired,
    /// The requester already holds the lock (re-acquisition).
    AlreadyHeld,
    /// Another transaction holds the lock; the requester is queued FIFO
    /// behind it and must retry the statement once granted.
    Waiting {
        /// The current lock holder.
        holder: TxnId,
    },
    /// Queuing the requester would close a cycle in the waits-for graph.
    /// The requester is NOT enqueued; it is the deterministic victim and
    /// must abort. The cycle starts with the victim.
    Deadlock {
        /// Transactions on the waits-for cycle, victim first.
        cycle: Vec<TxnId>,
    },
}

/// A lock handed to a queued waiter when the previous holder released it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockGrant {
    /// The transaction that now holds the lock.
    pub txn: TxnId,
    /// The row it waited for.
    pub obj: ObjectId,
    /// Row granted.
    pub rid: RowId,
    /// How long it waited, in simulated microseconds.
    pub wait_us: u64,
}

/// One locked row: the holder plus a FIFO queue of waiters (with the
/// instant each began waiting, for wait-time accounting).
#[derive(Debug, Clone)]
struct LockEntry {
    holder: TxnId,
    waiters: VecDeque<(TxnId, SimTime)>,
}

/// Exclusive row locks with FIFO wait queues and deadlock detection.
///
/// Each transaction waits on at most one row at a time (a statement blocks
/// on its first contended lock), so the waits-for graph is functional:
/// cycle detection is a walk along holder → awaited row → holder until the
/// chain ends or returns to the requester. The transaction whose request
/// would close the cycle is always the victim — the same deterministic
/// policy Oracle applies to the session that detects ORA-00060.
#[derive(Debug, Default, Clone)]
pub struct LockTable {
    rows: FastMap<(ObjectId, RowId), LockEntry>,
    /// The row each blocked transaction is queued on (the waits-for edge).
    waiting: FastMap<TxnId, (ObjectId, RowId)>,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to acquire an exclusive lock on `(obj, rid)` for `txn` at
    /// instant `now`. Never blocks the caller: contention yields
    /// [`LockOutcome::Waiting`] (requester queued) or
    /// [`LockOutcome::Deadlock`] (requester refused and chosen as victim).
    pub fn lock_row(&mut self, txn: TxnId, obj: ObjectId, rid: RowId, now: SimTime) -> LockOutcome {
        let Some(entry) = self.rows.get_mut(&(obj, rid)) else {
            self.rows.insert((obj, rid), LockEntry { holder: txn, waiters: VecDeque::new() });
            return LockOutcome::Acquired;
        };
        if entry.holder == txn {
            return LockOutcome::AlreadyHeld;
        }
        let holder = entry.holder;
        if entry.waiters.iter().any(|&(w, _)| w == txn) {
            // Already queued on this row (a retried statement): keep the
            // original queue position and wait-start instant.
            return LockOutcome::Waiting { holder };
        }
        if let Some(cycle) = self.would_deadlock(txn, holder) {
            return LockOutcome::Deadlock { cycle };
        }
        // Re-borrow: `would_deadlock` needed `&self`.
        if let Some(entry) = self.rows.get_mut(&(obj, rid)) {
            entry.waiters.push_back((txn, now));
        }
        self.waiting.insert(txn, (obj, rid));
        LockOutcome::Waiting { holder }
    }

    /// Walks the waits-for chain from `holder`; if it leads back to
    /// `requester`, returns the cycle (requester first).
    fn would_deadlock(&self, requester: TxnId, holder: TxnId) -> Option<Vec<TxnId>> {
        let mut cycle = vec![requester];
        let mut at = holder;
        // The graph is functional, so the walk is linear; the bound guards
        // against a corrupted table rather than any legal state.
        for _ in 0..=self.waiting.len() {
            if at == requester {
                return Some(cycle);
            }
            cycle.push(at);
            let next_row = self.waiting.get(&at)?;
            at = self.rows.get(next_row)?.holder;
        }
        None
    }

    /// Releases every lock in `locks` held by `txn` and removes `txn` from
    /// any wait queue it sits in (a victim abort releases while queued).
    /// Rows with waiters pass to the front waiter FIFO; the grants are
    /// returned so the caller can wake the new holders. Locks in `locks`
    /// not held by `txn` are ignored, so double release is harmless.
    pub fn release_all(
        &mut self,
        txn: TxnId,
        locks: &[(ObjectId, RowId)],
        now: SimTime,
    ) -> Vec<LockGrant> {
        self.cancel_wait(txn);
        let mut grants = Vec::new();
        for &(obj, rid) in locks {
            let Some(entry) = self.rows.get_mut(&(obj, rid)) else { continue };
            if entry.holder != txn {
                continue;
            }
            match entry.waiters.pop_front() {
                Some((next, since)) => {
                    entry.holder = next;
                    self.waiting.remove(&next);
                    let wait_us = now.as_micros().saturating_sub(since.as_micros());
                    grants.push(LockGrant { txn: next, obj, rid, wait_us });
                }
                None => {
                    self.rows.remove(&(obj, rid));
                }
            }
        }
        grants
    }

    /// Removes `txn` from the wait queue it is blocked on, if any.
    pub fn cancel_wait(&mut self, txn: TxnId) {
        if let Some(key) = self.waiting.remove(&txn) {
            if let Some(entry) = self.rows.get_mut(&key) {
                entry.waiters.retain(|&(w, _)| w != txn);
            }
        }
    }

    /// Number of locked rows.
    pub fn held(&self) -> usize {
        self.rows.len()
    }

    /// Number of transactions blocked in wait queues.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FileNo;

    fn rid(b: u32) -> RowId {
        RowId { file: FileNo(1), block: b, slot: 0 }
    }

    #[test]
    fn begin_finish_lifecycle() {
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        assert_ne!(a, b);
        assert_eq!(t.active_count(), 2);
        assert!(t.get_mut(a).is_ok());
        t.finish(a).unwrap();
        assert_eq!(t.active_count(), 1);
        assert!(matches!(t.get_mut(a), Err(DbError::TxnNotActive(_))));
        assert!(matches!(t.finish(a), Err(DbError::TxnNotActive(_))));
    }

    #[test]
    fn undo_accumulates_in_order() {
        let mut t = TxnTable::new();
        let a = t.begin();
        t.get_mut(a).unwrap().undo.push(UndoOp::UndoInsert { obj: ObjectId(1), rid: rid(0) });
        t.get_mut(a)
            .unwrap()
            .undo
            .push(UndoOp::UndoDelete { obj: ObjectId(1), rid: rid(1), before: Row::new(vec![]) });
        let st = t.finish(a).unwrap();
        assert_eq!(st.undo.len(), 2);
        assert!(matches!(st.undo[0], UndoOp::UndoInsert { .. }));
    }

    const OBJ: ObjectId = ObjectId(1);

    /// Fills transaction `txn` with a before-image and a lock.
    fn touch(t: &mut TxnTable, txn: TxnId) {
        let st = t.get_mut(txn).unwrap();
        st.undo.push(UndoOp::UndoUpdate { obj: OBJ, rid: rid(0), before: Row::new([]) });
        st.locks.push((OBJ, rid(0)));
    }

    #[test]
    fn a_recycled_state_comes_back_empty_and_keeps_its_capacity() {
        let mut t = TxnTable::new();
        let a = t.begin();
        touch(&mut t, a);
        let st = t.finish(a).unwrap();
        let (undo_cap, locks_cap) = (st.undo.capacity(), st.locks.capacity());
        assert!(undo_cap > 0 && locks_cap > 0);
        t.recycle(st);
        let b = t.begin();
        let st = t.get_mut(b).unwrap();
        assert!(st.undo.is_empty() && st.locks.is_empty(), "nothing of {a:?} reaches {b:?}");
        assert_eq!((st.undo.capacity(), st.locks.capacity()), (undo_cap, locks_cap));
    }

    #[test]
    fn a_cloned_table_hands_out_states_of_its_own() {
        let mut source = TxnTable::new();
        let a = source.begin();
        let st = source.finish(a).unwrap();
        source.recycle(st);
        let mut fork = source.clone();
        let (in_source, in_fork) = (source.begin(), fork.begin());
        assert_eq!(in_source, in_fork, "a fork continues the id sequence");
        touch(&mut source, in_source);
        assert!(fork.get_mut(in_fork).unwrap().undo.is_empty());
        assert!(fork.get_mut(in_fork).unwrap().locks.is_empty());
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn lock_contention_queues_and_reentrancy_succeeds() {
        let mut locks = LockTable::new();
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        assert_eq!(locks.lock_row(a, OBJ, rid(0), t0()), LockOutcome::Acquired);
        assert_eq!(locks.lock_row(a, OBJ, rid(0), t0()), LockOutcome::AlreadyHeld);
        assert_eq!(locks.lock_row(b, OBJ, rid(0), t0()), LockOutcome::Waiting { holder: a });
        // Retrying the blocked request keeps the queue position.
        assert_eq!(locks.lock_row(b, OBJ, rid(0), t0()), LockOutcome::Waiting { holder: a });
        assert_eq!(locks.waiting_count(), 1);
    }

    #[test]
    fn release_grants_fifo_with_wait_times() {
        let mut locks = LockTable::new();
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        let c = t.begin();
        locks.lock_row(a, OBJ, rid(0), t0());
        locks.lock_row(b, OBJ, rid(0), SimTime::from_micros(100));
        locks.lock_row(c, OBJ, rid(0), SimTime::from_micros(250));
        let grants =
            locks.release_all(a, &[(OBJ, rid(0))], SimTime::from_micros(400));
        // First waiter wins; the second keeps waiting behind the new holder.
        assert_eq!(
            grants,
            vec![LockGrant { txn: b, obj: OBJ, rid: rid(0), wait_us: 300 }]
        );
        assert_eq!(locks.waiting_count(), 1);
        let grants = locks.release_all(b, &[(OBJ, rid(0))], SimTime::from_micros(500));
        assert_eq!(grants, vec![LockGrant { txn: c, obj: OBJ, rid: rid(0), wait_us: 250 }]);
        let grants = locks.release_all(c, &[(OBJ, rid(0))], SimTime::from_micros(600));
        assert!(grants.is_empty());
        assert_eq!(locks.held(), 0);
    }

    #[test]
    fn release_frees_only_own_locks_and_tolerates_double_release() {
        let mut locks = LockTable::new();
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        locks.lock_row(a, OBJ, rid(0), t0());
        locks.lock_row(b, OBJ, rid(1), t0());
        // Releasing a's view of both rows must not free b's lock, and a
        // second release of the same set is a no-op.
        let shared = [(OBJ, rid(0)), (OBJ, rid(1))];
        assert!(locks.release_all(a, &shared, t0()).is_empty());
        assert!(locks.release_all(a, &shared, t0()).is_empty());
        assert_eq!(locks.held(), 1);
        assert_eq!(locks.lock_row(a, OBJ, rid(0), t0()), LockOutcome::Acquired);
        assert!(matches!(locks.lock_row(a, OBJ, rid(1), t0()), LockOutcome::Waiting { .. }));
    }

    #[test]
    fn two_cycle_deadlock_names_the_requester_as_victim() {
        let mut locks = LockTable::new();
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        locks.lock_row(a, OBJ, rid(0), t0());
        locks.lock_row(b, OBJ, rid(1), t0());
        assert!(matches!(locks.lock_row(a, OBJ, rid(1), t0()), LockOutcome::Waiting { .. }));
        // b's request for rid(0) closes the cycle: b is the victim.
        assert_eq!(
            locks.lock_row(b, OBJ, rid(0), t0()),
            LockOutcome::Deadlock { cycle: vec![b, a] }
        );
        // The victim was never enqueued; after it aborts, a's wait resolves.
        assert_eq!(locks.waiting_count(), 1);
        let grants = locks.release_all(b, &[(OBJ, rid(1))], t0());
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, a);
    }

    #[test]
    fn three_cycle_deadlock_is_detected_with_full_cycle() {
        let mut locks = LockTable::new();
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        let c = t.begin();
        locks.lock_row(a, OBJ, rid(0), t0());
        locks.lock_row(b, OBJ, rid(1), t0());
        locks.lock_row(c, OBJ, rid(2), t0());
        assert!(matches!(locks.lock_row(a, OBJ, rid(1), t0()), LockOutcome::Waiting { .. }));
        assert!(matches!(locks.lock_row(b, OBJ, rid(2), t0()), LockOutcome::Waiting { .. }));
        assert_eq!(
            locks.lock_row(c, OBJ, rid(0), t0()),
            LockOutcome::Deadlock { cycle: vec![c, a, b] }
        );
        // Waiting on a row outside the chain is still fine.
        let d = t.begin();
        assert!(matches!(locks.lock_row(d, OBJ, rid(2), t0()), LockOutcome::Waiting { .. }));
    }

    #[test]
    fn cancel_wait_removes_a_queued_transaction() {
        let mut locks = LockTable::new();
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        let c = t.begin();
        locks.lock_row(a, OBJ, rid(0), t0());
        locks.lock_row(b, OBJ, rid(0), t0());
        locks.lock_row(c, OBJ, rid(0), t0());
        locks.cancel_wait(b);
        assert_eq!(locks.waiting_count(), 1);
        let grants = locks.release_all(a, &[(OBJ, rid(0))], t0());
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, c, "cancelled waiter is skipped");
    }

    #[test]
    fn bump_past_prevents_id_reuse() {
        let mut t = TxnTable::new();
        t.bump_past(100);
        assert_eq!(t.begin(), TxnId(101));
    }
}
