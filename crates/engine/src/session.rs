//! The client surface of [`DbServer`]: sessions, DML, reads, commit and
//! rollback with their undo, and the direct-path load.

use std::collections::BTreeMap;

use recobench_sim::SimTime;

use crate::catalog::CatalogChange;
use crate::config::{costs, BLOCK_SIZE};
use crate::error::{DbError, DbResult};
use crate::events::EngineEvent;
use crate::heap::plan_extent;
use crate::redo::{RedoOp, RedoRecord};
use crate::row::{Row, Value};
use crate::server::{BlockKey, DbServer, SessionState};
use crate::tap::DmlChange;
use crate::txn::{LockGrant, LockOutcome, TxnState, UndoOp};
use crate::types::{ObjectId, RowId, SessionId, TxnId};

impl DbServer {
    // ------------------------------------------------------------------
    // Sessions
    // ------------------------------------------------------------------

    /// Connects a new session. All DML, commit and rollback flow through
    /// it; a transaction begins implicitly on the session's first DML
    /// statement. Sessions are severed by instance crashes and recovery
    /// procedures — a severed id fails subsequent calls with
    /// [`DbError::NoSession`].
    ///
    /// # Errors
    ///
    /// Fails if the instance is not open for work.
    pub fn connect(&mut self) -> DbResult<SessionId> {
        self.poll();
        if !self.is_open() {
            return Err(DbError::InstanceDown);
        }
        self.next_session += 1;
        let sid = SessionId(self.next_session);
        self.sessions.insert(sid, SessionState::default());
        Ok(sid)
    }

    /// Disconnects a session, rolling back any in-flight transaction.
    /// Disconnecting an unknown (already severed) session is a no-op.
    pub fn disconnect(&mut self, s: SessionId) {
        if let Some(sess) = self.sessions.remove(&s) {
            if let Some(txn) = sess.txn {
                // tidy-allow(error-swallow): disconnect is infallible by contract; a failed rollback is redone by crash recovery
                let _ = self.rollback_txn(txn);
            }
        }
    }

    /// Whether `s` is currently connected.
    pub fn session_exists(&self, s: SessionId) -> bool {
        self.sessions.contains_key(&s)
    }

    /// The transaction the session has open, if any (for observability and
    /// tests; clients never need the id).
    pub fn session_txn_id(&self, s: SessionId) -> Option<TxnId> {
        self.sessions.get(&s).and_then(|sess| sess.txn)
    }

    /// Number of connected sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Drains the wake-up list: sessions whose pending lock was granted
    /// (by a holder's commit or rollback) since the last call, with the
    /// grant instants. The workload driver unparks these terminals and
    /// reschedules them at the grant time.
    pub fn take_lock_grants(&mut self) -> Vec<(SessionId, SimTime)> {
        std::mem::take(&mut self.lock_grants)
    }

    /// Disconnects every session, rolling back in-flight transactions:
    /// recovery procedures, cold backups and orderly shutdown drain their
    /// clients first. Deterministic (ascending session id) order.
    pub(crate) fn kill_all_sessions(&mut self) {
        while let Some((&sid, _)) = self.sessions.iter().next() {
            self.disconnect(sid);
        }
        self.lock_grants.clear();
    }

    /// The session's open transaction, starting one if none is open.
    fn txn_for(&mut self, s: SessionId) -> DbResult<TxnId> {
        let sess = self.sessions.get(&s).ok_or_else(|| DbError::NoSession(s))?;
        if let Some(txn) = sess.txn {
            return Ok(txn);
        }
        let id = self.inst_mut()?.txns.begin();
        self.txn_floor = self.txn_floor.max(id.0);
        if let Some(sess) = self.sessions.get_mut(&s) {
            sess.txn = Some(id);
        }
        Ok(id)
    }

    /// Records granted locks on their new holders, emits the
    /// `lock_acquired` events, and queues the owning sessions for driver
    /// wake-up. A grant to a transaction that died while queued (possible
    /// only if bookkeeping breaks) is passed on to the next waiter.
    fn apply_lock_grants(&mut self, mut grants: Vec<LockGrant>) {
        let now = self.clock.now();
        while let Some(g) = grants.pop() {
            let Some(inst) = self.inst.as_mut() else { return };
            if inst.txns.get_mut(g.txn).map(|st| st.locks.push((g.obj, g.rid))).is_err() {
                grants.extend(inst.locks.release_all(g.txn, &[(g.obj, g.rid)], now));
                continue;
            }
            self.events.record(now, EngineEvent::LockAcquired { txn: g.txn, wait_us: g.wait_us });
            let owner = self
                .sessions
                .iter()
                .find(|(_, sess)| sess.txn == Some(g.txn))
                .map(|(&sid, _)| sid);
            if let Some(sid) = owner {
                self.lock_grants.push((sid, now));
            }
        }
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn check_unique(&self, obj: ObjectId, row: &Row, exclude: Option<RowId>) -> DbResult<()> {
        let inst = self.inst_ref()?;
        if let Some(indexes) = inst.indexes.get(&obj) {
            for ix in indexes.iter() {
                if !ix.def().unique {
                    continue;
                }
                let existing = ix.lookup_row_ref(row);
                if existing.iter().any(|r| Some(*r) != exclude) {
                    return Err(DbError::DuplicateKey { index: ix.def().name.clone() });
                }
            }
        }
        Ok(())
    }

    fn find_insert_slot(&mut self, obj: ObjectId, row_len: usize) -> DbResult<(BlockKey, u16)> {
        loop {
            let cand = {
                let inst = self.inst_ref()?;
                let seg = &inst.catalog.table(obj)?.segment;
                inst.cursors.get(&obj).copied().unwrap_or_default().current(seg)
            };
            match cand {
                Some((file, block)) => {
                    let key = (file, block);
                    // One probe answers both "does it fit" and "which slot".
                    let slot = self.with_block(key, |img| {
                        if img.fits(row_len, BLOCK_SIZE) { Some(img.next_free_slot()) } else { None }
                    })?;
                    if let Some(slot) = slot {
                        return Ok((key, slot));
                    }
                    let inst = self.inst_mut()?;
                    let seg = inst.catalog.table(obj)?.segment.clone();
                    inst.cursors.entry(obj).or_default().advance(&seg);
                }
                None => {
                    // Segment exhausted: allocate an extent.
                    let extent = {
                        let inst = self.inst_ref()?;
                        plan_extent(&inst.catalog, obj)?
                    };
                    self.ddl_extent(obj, extent)?;
                    let inst = self.inst_mut()?;
                    let seg = &inst.catalog.table(obj)?.segment;
                    inst.cursors.entry(obj).or_default().seek_last_extent(seg);
                }
            }
        }
    }

    fn ddl_extent(&mut self, obj: ObjectId, extent: crate::catalog::Extent) -> DbResult<()> {
        // Extent allocation is a recursive (auto-committed) dictionary
        // change, logged but not flushed eagerly: the owning transaction's
        // commit flush covers it.
        let scn = self.inst_mut()?.next_scn();
        let change = CatalogChange::AllocExtent { table: obj, extent };
        let rec = RedoRecord { scn, txn: None, op: RedoOp::Catalog(change.clone()) };
        self.append_record(&rec)?;
        self.inst_mut()?.catalog.apply(&change);
        Ok(())
    }

    /// Inserts a row under session `s`, returning its physical address. A
    /// transaction begins implicitly if the session has none open.
    ///
    /// # Errors
    ///
    /// Fails on duplicate keys, storage exhaustion, offline storage, media
    /// damage, or a severed session.
    pub fn insert(&mut self, s: SessionId, obj: ObjectId, row: Row) -> DbResult<RowId> {
        self.poll();
        let txn = self.txn_for(s)?;
        self.inst_ref()?.catalog.table(obj)?;
        self.insert_one(txn, obj, row)
    }

    /// Per-row insert body shared with [`DbServer::insert_batch`]; assumes
    /// the transaction and table were already validated. The order of the
    /// checks is part of the behaviour: the vacated-key wait, the slot
    /// (which may log an extent allocation), then the writer's duplicate
    /// check and lock.
    fn insert_one(&mut self, txn: TxnId, obj: ObjectId, row: Row) -> DbResult<RowId> {
        self.wait_on_vacated_unique(txn, obj, &row)?;
        let (key, slot) = self.find_insert_slot(obj, row.encoded_len())?;
        let rid = RowId { file: key.0, block: key.1, slot };
        self.write_row(txn, RedoOp::Insert { obj, rid, row }, Some(0))?;
        Ok(rid)
    }

    /// The row writer: the tail every forward statement (insert, update,
    /// delete) hands its change to once its own checks pass — the row
    /// lock, the undo entry, log-and-apply, the index effects, the DML tap
    /// and the CPU charge. `moved` is the first index whose key the change
    /// moves, `None` if it moves none (an insert or a delete moves every
    /// key). An insert's index entries go in ahead of the lock: each unique
    /// tree descends once, and that descent is the duplicate check. A
    /// refused or contended statement leaves no trace, so its retry re-runs
    /// cleanly.
    fn write_row(&mut self, txn: TxnId, op: RedoOp, moved: Option<usize>) -> DbResult<()> {
        let Some(((obj, rid), undo)) = op.target().zip(op.undo()) else {
            unreachable!("the row writer takes row changes only")
        };
        let (ahead, behind) = if matches!(op, RedoOp::Insert { .. }) { (moved, None) } else { (None, moved) };
        let indexed = ahead.map_or(Ok(()), |from| op.apply_to_indexes(&mut self.inst_mut()?.indexes, from));
        let staged = indexed.and_then(|()| self.lock_for_dml(txn, obj, rid).map(|st| st.undo.push(undo)));
        // The op borrows its rows for logging and hands them back
        // afterwards, so the block write is the only clone on this path.
        let (op, written) = match staged {
            Ok(()) => self.log_and_apply(txn, op),
            Err(e) => (op, Err(e)),
        };
        if let Err(e) = written {
            // An insert that stops short takes its entries back out. The
            // delete's index effect removes only this rid, so the entry a
            // unique index refused it stays.
            if let (RedoOp::Insert { obj, rid, row }, Ok(inst)) = (op, self.inst_mut()) {
                RedoOp::Delete { obj, rid, before: row }.apply_to_indexes(&mut inst.indexes, 0)?;
            }
            return Err(e);
        }
        if let Some(from) = behind {
            op.apply_to_indexes(&mut self.inst_mut()?.indexes, from)?;
        }
        if self.dml_tap.is_some() {
            self.emit_dml(match op {
                RedoOp::Insert { row, .. } => DmlChange::Insert { txn, obj, rid, row },
                RedoOp::Update { after, .. } => DmlChange::Update { txn, obj, rid, row: after },
                _ => DmlChange::Delete { txn, obj, rid },
            });
        }
        self.clock.advance(costs::CPU_PER_DML);
        Ok(())
    }

    /// Log-and-apply, the write half of every logged change (DML, rollback
    /// compensation and the rollback marker alike): the change gets the
    /// next SCN and goes to the log buffer; a row change then goes to its
    /// block, whose frame is marked dirty at the record's address. Hands
    /// `op` back so callers can reuse its rows.
    fn log_and_apply(&mut self, txn: TxnId, op: RedoOp) -> (RedoOp, DbResult<()>) {
        let scn = match self.inst_mut() {
            Ok(inst) => inst.next_scn(),
            Err(e) => return (op, Err(e)),
        };
        let rec = RedoRecord { scn, txn: Some(txn), op };
        let logged = self.append_record(&rec).and_then(|addr| {
            let Some((_, rid)) = rec.op.target() else { return Ok(()) };
            self.block_access((rid.file, rid.block), Some(addr), |img| {
                debug_assert!(img.last_scn < scn, "a new change carries an SCN its block has not seen");
                rec.op.apply_to(img, scn)
            })?
            .map_err(DbError::from)
        });
        (rec.op, logged)
    }

    /// Acquires the row lock a DML statement needs, recording a newly
    /// acquired one on the transaction, whose state it returns, and
    /// contention as events. A contended lock queues the transaction and
    /// surfaces as [`DbError::LockWait`] **before any state is mutated**,
    /// so the statement can simply be retried once the lock is granted. A
    /// request that would deadlock is refused: the requester is the victim
    /// and must roll back.
    fn lock_for_dml(&mut self, txn: TxnId, obj: ObjectId, rid: RowId) -> DbResult<&mut TxnState> {
        let now = self.clock.now();
        let newly = match self.inst_mut()?.locks.lock_row(txn, obj, rid, now) {
            LockOutcome::Acquired => true,
            LockOutcome::AlreadyHeld => false,
            LockOutcome::Waiting { holder } => {
                self.events.record(now, EngineEvent::LockWait { waiter: txn, holder, obj });
                return Err(DbError::LockWait { holder });
            }
            LockOutcome::Deadlock { cycle } => {
                self.events.record(
                    now,
                    EngineEvent::DeadlockVictim { victim: txn, cycle_len: cycle.len() as u64 },
                );
                return Err(DbError::Deadlock { victim: txn, cycle });
            }
        };
        let st = self.inst_mut()?.txns.get_mut(txn)?;
        if newly {
            st.locks.push((obj, rid));
        }
        Ok(st)
    }

    /// Blocks a writer whose unique key was *vacated* by a live
    /// transaction — an uncommitted delete, or an update that moved the
    /// key away. The key is absent from the index, but the vacating
    /// transaction would resurrect it on rollback, so the key is not
    /// free: the writer queues behind that transaction's row lock (the
    /// TX enqueue Oracle takes on a unique index entry) and retries the
    /// statement once it ends. Keys still present in the index are left
    /// to the ordinary duplicate check.
    fn wait_on_vacated_unique(&mut self, txn: TxnId, obj: ObjectId, row: &Row) -> DbResult<()> {
        let vacated = {
            let inst = self.inst_ref()?;
            if inst.txns.active_count() <= 1 {
                return Ok(());
            }
            let Some(indexes) = inst.indexes.get(&obj) else { return Ok(()) };
            indexes
                .iter()
                .filter(|ix| ix.def().unique && ix.lookup_row_ref(row).is_empty())
                .find_map(|ix| {
                    inst.txns.vacated_by_other(txn, obj, |before| !ix.key_changed(before, row))
                })
        };
        vacated.map_or(Ok(()), |(_, rid)| self.lock_for_dml(txn, obj, rid).map(|_| ()))
    }

    /// Inserts several rows into one table under one transaction. Emits
    /// exactly the redo records, undo entries, index maintenance and clock
    /// charges that one [`DbServer::insert`] per row would; the session and
    /// table validation and the background-event poll are paid once per
    /// call.
    ///
    /// # Errors
    ///
    /// As [`DbServer::insert`]; on a mid-batch error the earlier rows stay
    /// inserted (under the still-open transaction, so the caller's rollback
    /// removes them — the same contract as a loop of single inserts).
    pub fn insert_batch(&mut self, s: SessionId, obj: ObjectId, rows: &[Row]) -> DbResult<()> {
        self.poll();
        let txn = self.txn_for(s)?;
        self.inst_ref()?.catalog.table(obj)?;
        for row in rows {
            self.insert_one(txn, obj, row.clone())?;
        }
        Ok(())
    }

    /// Replaces the row at `rid` under session `s`.
    ///
    /// # Errors
    ///
    /// Fails if the row does not exist or storage is unavailable; a
    /// contended row queues the session ([`DbError::LockWait`] — retry the
    /// statement after the grant) or aborts it ([`DbError::Deadlock`]).
    pub fn update(&mut self, s: SessionId, obj: ObjectId, rid: RowId, row: Row) -> DbResult<()> {
        self.poll();
        let txn = self.txn_for(s)?;
        let key = (rid.file, rid.block);
        let before =
            self.with_block(key, |img| img.row(rid.slot).cloned())?.ok_or_else(|| DbError::NoSuchRow(rid))?;
        // Only a unique key the update moves needs probing. The common
        // TPC-C updates (stock, customer balances) move none, so they skip
        // the probes, the index effect and every key encode.
        let ixs = self.inst_ref()?.indexes.get(&obj).map_or(&[][..], |ixs| &ixs[..]);
        let moved = ixs.iter().position(|ix| ix.key_changed(&before, &row));
        let moves_unique_key = moved.is_some_and(|first| {
            ixs[first..].iter().any(|ix| ix.def().unique && ix.key_changed(&before, &row))
        });
        if moves_unique_key {
            self.check_unique(obj, &row, Some(rid))?;
            self.wait_on_vacated_unique(txn, obj, &row)?;
        }
        self.write_row(txn, RedoOp::Update { obj, rid, before, after: row }, moved)
    }

    /// Deletes the row at `rid` under session `s`.
    ///
    /// # Errors
    ///
    /// Fails if the row does not exist or storage is unavailable; a
    /// contended row queues the session ([`DbError::LockWait`]) or aborts
    /// it ([`DbError::Deadlock`]).
    pub fn delete(&mut self, s: SessionId, obj: ObjectId, rid: RowId) -> DbResult<()> {
        self.poll();
        let txn = self.txn_for(s)?;
        let key = (rid.file, rid.block);
        let before =
            self.with_block(key, |img| img.row(rid.slot).cloned())?.ok_or_else(|| DbError::NoSuchRow(rid))?;
        self.write_row(txn, RedoOp::Delete { obj, rid, before }, Some(0))
    }

    /// Reads the row at `rid`.
    ///
    /// # Errors
    ///
    /// Fails if the row does not exist or storage is unavailable.
    pub fn get_row(&mut self, obj: ObjectId, rid: RowId) -> DbResult<Row> {
        self.poll();
        self.inst_ref()?.catalog.table(obj)?;
        let key = (rid.file, rid.block);
        let row =
            self.with_block(key, |img| img.row(rid.slot).cloned())?.ok_or_else(|| DbError::NoSuchRow(rid))?;
        self.clock.advance(costs::CPU_PER_READ);
        Ok(row)
    }

    /// Index `index` of table `obj` on the open instance.
    fn index_ref(&self, obj: ObjectId, index: usize) -> DbResult<&crate::index::Index> {
        self.inst_ref()?
            .indexes
            .get(&obj)
            .and_then(|v| v.get(index))
            .ok_or_else(|| DbError::NotFound(format!("index {index} of {obj}")))
    }

    /// Exact-match index lookup.
    ///
    /// # Errors
    ///
    /// Fails if the table or index is unknown.
    pub fn lookup(&mut self, obj: ObjectId, index: usize, key: &[Value]) -> DbResult<Vec<RowId>> {
        self.poll();
        self.clock.advance(costs::CPU_PER_READ);
        let ix = self.index_ref(obj, index)?;
        Ok(ix.lookup(key))
    }

    /// Exact-match index lookup returning only the first matching row
    /// address (no match-list allocation — the common unique-key probe).
    ///
    /// # Errors
    ///
    /// Fails if the table or index is unknown.
    pub fn lookup_first(
        &mut self,
        obj: ObjectId,
        index: usize,
        key: &[Value],
    ) -> DbResult<Option<RowId>> {
        self.poll();
        self.clock.advance(costs::CPU_PER_READ);
        let ix = self.index_ref(obj, index)?;
        Ok(ix.lookup_ref(key).first().copied())
    }

    /// Index prefix scan (ordered).
    ///
    /// # Errors
    ///
    /// Fails if the table or index is unknown.
    pub fn prefix_scan(&mut self, obj: ObjectId, index: usize, prefix: &[Value]) -> DbResult<Vec<RowId>> {
        self.poll();
        self.clock.advance(costs::CPU_PER_READ);
        let ix = self.index_ref(obj, index)?;
        Ok(ix.prefix_scan(prefix))
    }

    /// Reads every row whose index key starts with `prefix`, in key
    /// order. Charges the same simulated CPU as a `prefix_scan` followed
    /// by one `get_row` per match, but pays one buffer-cache probe per
    /// distinct *block* instead of per row — index-clustered tables
    /// (order lines of one order) read an order of magnitude cheaper.
    ///
    /// # Errors
    ///
    /// Fails if the table or index is unknown, or an indexed row is
    /// missing from its block.
    pub fn read_rows_prefix(
        &mut self,
        obj: ObjectId,
        index: usize,
        prefix: &[Value],
    ) -> DbResult<Vec<(RowId, Row)>> {
        self.poll();
        // The match list lives in a buffer that comes back after the call.
        let mut rids = crate::index::RID_SCRATCH.take();
        let scanned = self.index_ref(obj, index).map(|ix| ix.prefix_scan_into(prefix, &mut rids));
        let rows = scanned.and_then(|()| self.rows_at(&rids, |rid, row| (rid, row.clone())));
        crate::index::RID_SCRATCH.set(rids);
        rows
    }

    /// Reads the rows at `rids` with one background poll and one buffer
    /// probe per distinct block run, charging the same batched CPU cost
    /// as [`DbServer::read_rows_prefix`]. Callers that already hold a rid
    /// list (e.g. collected from point-index lookups) use this to skip
    /// the per-row call overhead of [`DbServer::get_row`].
    ///
    /// # Errors
    ///
    /// Fails if any rid does not resolve to a live row or its storage is
    /// unavailable.
    pub fn read_rows(&mut self, rids: &[RowId]) -> DbResult<Vec<Row>> {
        self.poll();
        self.rows_at(rids, |_, row| row.clone())
    }

    /// The batched read under [`DbServer::read_rows`] and
    /// [`DbServer::read_rows_prefix`]: `pick` of every row at `rids`.
    fn rows_at<T>(&mut self, rids: &[RowId], pick: impl Fn(RowId, &Row) -> T) -> DbResult<Vec<T>> {
        let mut rows = Vec::with_capacity(rids.len());
        let mut i = 0usize;
        while i < rids.len() {
            let key = (rids[i].file, rids[i].block);
            let (next, missing) = self.with_block(key, |img| {
                let mut j = i;
                while j < rids.len() && (rids[j].file, rids[j].block) == key {
                    match img.row(rids[j].slot) {
                        Some(r) => rows.push(pick(rids[j], r)),
                        None => return (j, Some(rids[j])),
                    }
                    j += 1;
                }
                (j, None)
            })?;
            if let Some(rid) = missing {
                return Err(DbError::NoSuchRow(rid));
            }
            i = next;
        }
        self.clock.advance(costs::CPU_PER_READ * (1 + rows.len() as u64));
        Ok(rows)
    }

    /// Rows under the greatest key with the given prefix (e.g. a
    /// customer's most recent order).
    ///
    /// # Errors
    ///
    /// Fails if the table or index is unknown.
    pub fn last_under_prefix(
        &mut self,
        obj: ObjectId,
        index: usize,
        prefix: &[Value],
    ) -> DbResult<Vec<RowId>> {
        self.poll();
        self.clock.advance(costs::CPU_PER_READ);
        let ix = self.index_ref(obj, index)?;
        Ok(ix.last_under_prefix(prefix).map(|(_, rids)| rids.to_vec()).unwrap_or_default())
    }

    /// Rows under the smallest key with the given prefix (e.g. the oldest
    /// undelivered order of a district). O(log n) regardless of how many
    /// keys share the prefix, where [`DbServer::prefix_scan`] collects
    /// them all.
    ///
    /// # Errors
    ///
    /// Fails if the table or index is unknown.
    pub fn first_under_prefix(
        &mut self,
        obj: ObjectId,
        index: usize,
        prefix: &[Value],
    ) -> DbResult<Vec<RowId>> {
        self.poll();
        self.clock.advance(costs::CPU_PER_READ);
        let ix = self.index_ref(obj, index)?;
        Ok(ix.first_under_prefix(prefix).map(|(_, rids)| rids.to_vec()).unwrap_or_default())
    }

    /// Commits session `s`'s open transaction: the commit record is
    /// written and the log buffer flushed — the caller waits out the log
    /// write, which is the durability guarantee. A session with no open
    /// transaction commits trivially.
    ///
    /// # Errors
    ///
    /// Fails if the session is severed or the log write fails (the
    /// transaction is then still open; roll it back).
    pub fn commit(&mut self, s: SessionId) -> DbResult<()> {
        self.poll();
        let sess = self.sessions.get(&s).ok_or_else(|| DbError::NoSession(s))?;
        let Some(txn) = sess.txn else { return Ok(()) };
        self.commit_txn(txn)?;
        if let Some(sess) = self.sessions.get_mut(&s) {
            sess.txn = None;
        }
        Ok(())
    }

    /// Rolls back session `s`'s open transaction (a no-op if none is
    /// open): undoes its changes (writing compensating redo) and releases
    /// its locks. Changes to storage that has since become unreadable are
    /// deferred — recovery or onlining of that storage discards them.
    ///
    /// # Errors
    ///
    /// Fails if the session is severed.
    pub fn rollback(&mut self, s: SessionId) -> DbResult<()> {
        self.poll();
        let sess = self.sessions.get(&s).ok_or_else(|| DbError::NoSession(s))?;
        let Some(txn) = sess.txn else { return Ok(()) };
        if let Some(sess) = self.sessions.get_mut(&s) {
            sess.txn = None;
        }
        self.rollback_txn(txn)
    }

    fn commit_txn(&mut self, txn: TxnId) -> DbResult<()> {
        let scn = self.inst_mut()?.next_scn();
        let rec = RedoRecord { scn, txn: Some(txn), op: RedoOp::Commit };
        self.append_record(&rec)?;
        self.flush_redo()?;
        let now = self.clock.now();
        let inst = self.inst_mut()?;
        let st = inst.txns.finish(txn)?;
        let grants = inst.locks.release_all(txn, &st.locks, now);
        inst.txns.recycle(st);
        self.stats.commits += 1;
        if self.dml_tap.is_some() {
            self.emit_dml(DmlChange::Commit { txn, scn });
        }
        self.apply_lock_grants(grants);
        self.clock.advance(costs::CPU_COMMIT);
        Ok(())
    }

    fn rollback_txn(&mut self, txn: TxnId) -> DbResult<()> {
        let st = self.inst_mut()?.txns.finish(txn)?;
        let deferred = self.undo_logged(txn, &st.undo);
        // Locks release (and waiters wake) before the terminal record so a
        // failed log write can never strand a granted waiter.
        let now = self.clock.now();
        let inst = self.inst_mut()?;
        let grants = inst.locks.release_all(txn, &st.locks, now);
        inst.txns.recycle(st);
        self.stats.rollbacks += 1;
        if self.dml_tap.is_some() {
            self.emit_dml(DmlChange::Rollback { txn });
        }
        self.apply_lock_grants(grants);
        self.clock.advance(costs::CPU_COMMIT);
        self.end_rollback(txn, deferred)?;
        self.flush_redo()
    }

    /// Ends a logged rollback: the terminal record if everything was taken
    /// back, otherwise the remainder is parked on `deferred_undo`.
    fn end_rollback(&mut self, txn: TxnId, deferred: Vec<UndoOp>) -> DbResult<()> {
        if deferred.is_empty() {
            return self.log_and_apply(txn, RedoOp::Rollback).1;
        }
        // No terminal record: the transaction stays unresolved in the
        // redo stream, so any replay covering the unreachable storage
        // rolls the skipped changes back itself. If the storage comes
        // back *without* a replay (ONLINE tablespace), the deferred
        // undo is applied and the transaction resolved then.
        self.deferred_undo.push((txn, deferred));
        Ok(())
    }

    /// Rolls back the transactions a crash left in flight the way their
    /// sessions would have — logged compensation and a terminal record,
    /// youngest first — so that every later replay of this stretch of log
    /// (media recovery, point-in-time recovery from an older backup, a
    /// stand-by applying the archives) sees them resolved. Rolled back
    /// unlogged, they would look live to such a replay, which would put
    /// their before-images back at its *end*, over everything committed
    /// since. Storage that is offline or damaged defers its part, as at
    /// run time: the database still opens.
    pub(crate) fn rollback_dead_txns(&mut self, dead: &BTreeMap<TxnId, Vec<UndoOp>>) -> DbResult<()> {
        for (&txn, undo) in dead.iter().rev() {
            let deferred = self.undo_logged(txn, undo);
            self.end_rollback(txn, deferred)?;
        }
        self.flush_redo()
    }

    /// Takes `undo` (in log order) back newest first, each change through a
    /// logged compensation. Best-effort: returns, still in log order, the
    /// entries whose storage could not be reached.
    fn undo_logged(&mut self, txn: TxnId, undo: &[UndoOp]) -> Vec<UndoOp> {
        let mut deferred = Vec::new();
        for op in undo.iter().rev() {
            if self.apply_undo_logged(txn, op).is_err() {
                deferred.push(op.clone());
            }
        }
        deferred.reverse();
        deferred
    }

    /// Applies deferred rollback undo whose storage may have come back,
    /// writing the owning transactions' terminal records once fully
    /// undone. Called after media recovery and tablespace onlining.
    pub(crate) fn drain_deferred_undo(&mut self) {
        if self.deferred_undo.is_empty() || self.inst.is_none() {
            return;
        }
        let pending = std::mem::take(&mut self.deferred_undo);
        for (txn, ops) in pending {
            // Replay may already have rolled the change back; the
            // application is idempotent, so re-applying is harmless.
            let still = self.undo_logged(txn, &ops);
            if still.is_empty() {
                // tidy-allow(error-swallow): the rollback marker is an optimization; undo application already succeeded
                let _ = self.log_and_apply(txn, RedoOp::Rollback).1;
            } else {
                self.deferred_undo.push((txn, still));
            }
        }
    }

    fn apply_undo_logged(&mut self, txn: TxnId, undo: &UndoOp) -> DbResult<()> {
        let rid = undo.rid();
        let current = self.with_block((rid.file, rid.block), |img| img.row(rid.slot).cloned())?;
        let Some(comp) = undo.compensation(current.as_ref())? else { return Ok(()) };
        let (comp, logged) = self.log_and_apply(txn, comp);
        logged?;
        comp.reindex(&mut self.inst_mut()?.indexes);
        self.clock.advance(costs::CPU_PER_DML);
        Ok(())
    }

    /// Index lookup without charging simulated time (analysis only).
    ///
    /// # Errors
    ///
    /// Fails if the table or index is unknown.
    pub fn peek_lookup(&self, obj: ObjectId, index: usize, key: &[Value]) -> DbResult<Vec<RowId>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let ix = inst
            .indexes
            .get(&obj)
            .and_then(|v| v.get(index))
            .ok_or_else(|| DbError::NotFound(format!("index {index} of {obj}")))?;
        Ok(ix.lookup(key))
    }

    // ------------------------------------------------------------------
    // Bulk load (direct path)
    // ------------------------------------------------------------------

    /// Direct-path load: writes rows without redo logging (like
    /// `SQL*Loader direct`). The caller must checkpoint (or back up)
    /// afterwards to make the data durable — exactly Oracle's rule for
    /// NOLOGGING loads.
    ///
    /// # Errors
    ///
    /// Fails on storage exhaustion or duplicate keys.
    pub fn bulk_load(&mut self, obj: ObjectId, rows: Vec<Row>) -> DbResult<u64> {
        self.poll();
        let mut n = 0u64;
        for row in rows {
            self.check_unique(obj, &row, None)?;
            let (key, slot) = self.find_insert_slot(obj, row.encoded_len())?;
            let rid = RowId { file: key.0, block: key.1, slot };
            let scn = self.inst_mut()?.next_scn();
            let addr = self.inst_ref()?.redo.tail();
            // Direct path: the applier's insert, with nothing logged.
            let op = RedoOp::Insert { obj, rid, row };
            self.block_access(key, Some(addr), |img| op.apply_to(img, scn))??;
            op.apply_to_indexes(&mut self.inst_mut()?.indexes, 0)?;
            n += 1;
            self.clock.advance(costs::CPU_PER_DML / 5);
        }
        Ok(n)
    }
}
