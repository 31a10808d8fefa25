//! The applier: what a logged change does to a block and to its table's
//! indexes, and how a change is taken back.
//!
//! Forward DML, runtime rollback, crash / media / point-in-time replay and
//! the stand-by's managed recovery all change blocks through this module —
//! recovery *is* the forward write path with logging off. Forward DML,
//! rollback compensation and the direct-path load change indexes through it
//! too (recovery re-derives them from the blocks instead). What stays with
//! each caller is policy: how a block is made resident and who pays for the
//! I/O, which records are filtered out, what is charged to the clock, and
//! whether a rollback is logged.
//!
//! Outside [`crate::page`] this is the only code that calls
//! [`BlockImage::put`] / [`BlockImage::remove`] / `BlockImage::detach` /
//! `BlockImage::patch`, and
//! outside [`crate::index`] the only code that calls [`Index::insert`] /
//! [`Index::remove`] / [`Index::replace`] (tidy's `lock-discipline` lint
//! enforces both).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{DbError, DbResult, RecoveryError};
use crate::fasthash::FastMap;
use crate::index::Index;
use crate::page::BlockImage;
use crate::redo::{RedoOp, RedoRecord};
use crate::row::Row;
use crate::server::{BlockKey, DbServer};
use crate::txn::UndoOp;
use crate::types::{ObjectId, RowId, Scn, TxnId};

impl RedoOp {
    /// The table and row a row change lands on (`None` for markers and
    /// DDL).
    pub(crate) fn target(&self) -> Option<(ObjectId, RowId)> {
        match self {
            RedoOp::Insert { obj, rid, .. }
            | RedoOp::Update { obj, rid, .. }
            | RedoOp::UpdateDelta { obj, rid, .. }
            | RedoOp::Delete { obj, rid, .. } => Some((*obj, *rid)),
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => None,
        }
    }

    /// The undo entry that takes this change back (`None` for markers and
    /// DDL). On replay its before-image or column delta is a view into the
    /// log segment the record was decoded from until
    /// [`ReplayState::end_pass`] detaches it.
    pub(crate) fn undo(&self) -> Option<UndoOp> {
        match self {
            RedoOp::Insert { obj, rid, .. } => Some(UndoOp::UndoInsert { obj: *obj, rid: *rid }),
            RedoOp::Update { obj, rid, before, .. } => {
                Some(UndoOp::UndoUpdate { obj: *obj, rid: *rid, before: before.clone() })
            }
            RedoOp::UpdateDelta { obj, rid, delta, .. } => {
                Some(UndoOp::UndoColumns { obj: *obj, rid: *rid, delta: delta.clone() })
            }
            RedoOp::Delete { obj, rid, before } => {
                Some(UndoOp::UndoDelete { obj: *obj, rid: *rid, before: before.clone() })
            }
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => None,
        }
    }

    /// Writes the change into its block image, stamping it with `scn`: the
    /// forward write, unconditional — a new change is never already there.
    /// A column delta splices its after-values into the row in the slot,
    /// in place where that row allows it ([`crate::row::ColumnDelta::apply_in_place`]).
    ///
    /// # Errors
    ///
    /// Fails with [`RecoveryError::DeltaMisfit`] on a column delta the row
    /// in the slot cannot take; the image is left as it was.
    pub(crate) fn apply_to(&self, img: &mut BlockImage, scn: Scn) -> Result<(), RecoveryError> {
        match self {
            RedoOp::Insert { rid, row, .. } | RedoOp::Update { rid, after: row, .. } => {
                img.put(rid.slot, row.clone(), scn);
            }
            RedoOp::UpdateDelta { rid, delta, .. } => {
                if !img.patch(rid.slot, scn, |row| delta.apply_in_place(row)) {
                    let row = spliced(img.row(rid.slot), *rid, |row| delta.apply(row))?;
                    img.put(rid.slot, row, scn);
                }
            }
            RedoOp::Delete { rid, .. } => {
                img.remove(rid.slot, scn);
            }
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => {}
        }
        Ok(())
    }

    /// Writes the forward change into its table's set in `sets`, from
    /// index `from` on (the caller found the keys before it unmoved): an
    /// insert adds the row under every index, a delete takes it out from
    /// under every one, an update moves it on the indexes whose key it
    /// moves — in place, so a non-unique key keeps its rids' order. It
    /// copies a set a forked server shares (`Arc::make_mut`), so an update
    /// that moves no key (every TPC-C update) does not come here.
    ///
    /// # Errors
    ///
    /// Fails with [`DbError::DuplicateKey`] on a unique key another row
    /// holds. For an insert that is its duplicate check, and the entries
    /// made before the refusing index stay for the caller to take back;
    /// an update and the direct-path load rule it out first.
    pub(crate) fn apply_to_indexes(
        &self,
        sets: &mut FastMap<ObjectId, Arc<Vec<Index>>>,
        from: usize,
    ) -> DbResult<()> {
        let Some(set) = self.target().and_then(|(obj, _)| sets.get_mut(&obj)) else { return Ok(()) };
        let Some(set) = Arc::make_mut(set).get_mut(from..) else { return Ok(()) };
        match self {
            RedoOp::Insert { rid, row, .. } => set.iter_mut().try_for_each(|ix| ix.insert(row, *rid)),
            RedoOp::Update { rid, before, after, .. } => set
                .iter_mut()
                .filter(|ix| ix.key_changed(before, after))
                .try_for_each(|ix| ix.replace(before, after, *rid)),
            RedoOp::Delete { rid, before, .. } => {
                set.iter_mut().for_each(|ix| ix.remove(before, *rid));
                Ok(())
            }
            // Only decoding makes a delta, and recovery re-derives indexes
            // from the blocks.
            RedoOp::UpdateDelta { .. } | RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => Ok(()),
        }
    }

    /// Writes a rollback compensation into its table's set in `sets`: the
    /// row comes out from under every index and goes back in, whether or
    /// not that index's key moved. Under a non-unique key this puts the
    /// rid last in the key's list, which TPC-C's customer-by-last-name
    /// pick (the median of that list) reads. Best-effort: an entry a
    /// unique index refuses stays out.
    pub(crate) fn reindex(&self, sets: &mut FastMap<ObjectId, Arc<Vec<Index>>>) {
        let (obj, rid, gone, back) = match self {
            RedoOp::Insert { obj, rid, row } => (obj, *rid, None, Some(row)),
            RedoOp::Update { obj, rid, before, after } => (obj, *rid, Some(before), Some(after)),
            RedoOp::Delete { obj, rid, before } => (obj, *rid, Some(before), None),
            // A compensation carries both images, never a delta.
            RedoOp::UpdateDelta { .. } | RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => return,
        };
        let Some(set) = sets.get_mut(obj) else { return };
        for ix in Arc::make_mut(set) {
            if let Some(gone) = gone {
                ix.remove(gone, rid);
            }
            if let Some(back) = back {
                let _ = ix.insert(back, rid);
            }
        }
    }

    /// Replays the change onto its block unless the image already carries
    /// it (`img.last_scn >= scn`) — the test that makes replay idempotent,
    /// and that proves the slot holds the row a column delta was made to.
    /// Returns whether the image changed. A row it stores whole is a view
    /// into the log segment the record was decoded from until
    /// [`ReplayState::end_pass`] detaches it.
    fn replay_onto(&self, img: &mut BlockImage, scn: Scn) -> Result<bool, RecoveryError> {
        if img.last_scn >= scn {
            return Ok(false);
        }
        self.apply_to(img, scn).map(|()| true)
    }
}

/// The row `splice` makes of the row in `rid`'s slot, or the misfit that
/// stops a column delta: no row there, or one too short for it.
fn spliced(
    current: Option<&Row>,
    rid: RowId,
    splice: impl FnOnce(&Row) -> Option<Row>,
) -> Result<Row, RecoveryError> {
    let row = current.ok_or(RecoveryError::DeltaMisfit { rid, columns: None })?;
    splice(row).ok_or_else(|| RecoveryError::DeltaMisfit { rid, columns: Some(row.len()) })
}

/// Runs `change` inside a block closure, which answers only whether the
/// image changed: a misfit reads as no change there and is kept in
/// `refused` for the caller to return once the block is let go.
fn keeping_misfit(
    refused: &Cell<Option<RecoveryError>>,
    change: impl FnOnce() -> Result<bool, RecoveryError>,
) -> bool {
    change().unwrap_or_else(|e| {
        refused.set(Some(e));
        false
    })
}

impl UndoOp {
    /// The row whose change this entry takes back.
    pub(crate) fn rid(&self) -> RowId {
        match self {
            UndoOp::UndoInsert { rid, .. }
            | UndoOp::UndoUpdate { rid, .. }
            | UndoOp::UndoColumns { rid, .. }
            | UndoOp::UndoDelete { rid, .. } => *rid,
        }
    }

    /// Gives the before-image or column delta, if any, an allocation of
    /// its own.
    fn detach(&mut self) {
        match self {
            UndoOp::UndoUpdate { before, .. } | UndoOp::UndoDelete { before, .. } => *before = before.detached(),
            UndoOp::UndoColumns { delta, .. } => *delta = delta.detached(),
            UndoOp::UndoInsert { .. } => {}
        }
    }

    /// The compensating change, given the row now in the slot: an undone
    /// insert deletes what is there, an undone update or delete puts the
    /// before-image back over whatever is (or is not) there, an undone
    /// column delta splices its before-values onto the row there (the
    /// compensation carries both images). `Ok(None)` when there is nothing
    /// to take back.
    ///
    /// # Errors
    ///
    /// Fails with [`RecoveryError::DeltaMisfit`] on a column delta the row
    /// in the slot cannot take.
    pub(crate) fn compensation(&self, current: Option<&Row>) -> Result<Option<RedoOp>, RecoveryError> {
        Ok(match (self, current) {
            (UndoOp::UndoInsert { .. }, None) => None,
            (UndoOp::UndoInsert { obj, rid }, Some(cur)) => {
                Some(RedoOp::Delete { obj: *obj, rid: *rid, before: cur.clone() })
            }
            (
                UndoOp::UndoUpdate { obj, rid, before } | UndoOp::UndoDelete { obj, rid, before },
                Some(cur),
            ) => Some(RedoOp::Update {
                obj: *obj,
                rid: *rid,
                before: cur.clone(),
                after: before.clone(),
            }),
            (
                UndoOp::UndoUpdate { obj, rid, before } | UndoOp::UndoDelete { obj, rid, before },
                None,
            ) => Some(RedoOp::Insert { obj: *obj, rid: *rid, row: before.clone() }),
            (UndoOp::UndoColumns { obj, rid, delta }, current) => {
                let after = spliced(current, *rid, |row| delta.revert(row))?;
                current.map(|before| RedoOp::Update { obj: *obj, rid: *rid, before: before.clone(), after })
            }
        })
    }
}

/// What a replay learns from the records it scans: which transactions are
/// still unresolved (with the undo that takes them back) and how far the
/// SCN and transaction-id spaces were used.
///
/// A pass — one [`DbServer::replay`], one stand-by ingest — leaves the
/// rows it stores in blocks and the before-images it puts in `live` as
/// views into the log segments it read, which the file being replayed
/// keeps alive anyway. [`ReplayState::end_pass`] detaches each survivor
/// once, so between passes nothing pins a segment.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayState {
    /// Transactions with no terminal record yet, in id order, each with
    /// its undo in log order.
    pub(crate) live: BTreeMap<TxnId, Vec<UndoOp>>,
    /// For each transaction in `live` when the last pass ended, how many
    /// of its undo entries that pass left detached.
    pub(crate) settled: BTreeMap<TxnId, usize>,
    /// Highest SCN seen.
    pub(crate) max_scn: Scn,
    /// Highest transaction id seen.
    pub(crate) max_txn: u64,
    /// Highest commit SCN seen.
    pub(crate) last_commit_scn: Scn,
}

impl ReplayState {
    /// Records that `rec` was scanned, whether or not the caller's filters
    /// let it through to [`ReplayState::note_and_apply`].
    pub(crate) fn note(&mut self, rec: &RedoRecord) {
        self.max_scn = self.max_scn.max(rec.scn);
        if let Some(t) = rec.txn {
            self.max_txn = self.max_txn.max(t.0);
        }
        if matches!(rec.op, RedoOp::Commit) {
            self.last_commit_scn = self.last_commit_scn.max(rec.scn);
        }
    }

    /// Replays one record: a terminal marker resolves its transaction, DDL
    /// goes to the dictionary, a row change goes to its block through
    /// `block` and onto its transaction's undo. `block` makes the frame
    /// resident under the caller's I/O accounting, runs the change on it
    /// and, if the change applied, marks it dirty and notes the row slot
    /// it passes (the one the change stores a view at) for the end of the
    /// pass.
    pub(crate) fn note_and_apply(
        &mut self,
        server: &mut DbServer,
        rec: &RedoRecord,
        block: impl FnOnce(
            &mut DbServer,
            BlockKey,
            Option<u16>,
            &dyn Fn(&mut BlockImage) -> bool,
        ) -> DbResult<()>,
    ) -> DbResult<()> {
        self.note(rec);
        match (&rec.op, rec.txn) {
            (RedoOp::Commit | RedoOp::Rollback, Some(t)) => {
                self.live.remove(&t);
            }
            (RedoOp::Commit | RedoOp::Rollback, None) => {}
            (RedoOp::Catalog(change), _) => {
                server.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?.catalog.apply(change);
            }
            (
                op @ (RedoOp::Insert { rid, .. }
                | RedoOp::Update { rid, .. }
                | RedoOp::UpdateDelta { rid, .. }
                | RedoOp::Delete { rid, .. }),
                txn,
            ) => {
                // An insert or a whole-image update stores its row: a view,
                // until the pass ends. A column delta stores a spliced copy.
                let view = matches!(op, RedoOp::Insert { .. } | RedoOp::Update { .. }).then_some(rid.slot);
                let refused = Cell::new(None);
                block(server, (rid.file, rid.block), view, &|img| {
                    keeping_misfit(&refused, || op.replay_onto(img, rec.scn))
                })?;
                if let Some(e) = refused.take() {
                    return Err(e.into());
                }
                if let Some(t) = txn {
                    self.live.entry(t).or_default().extend(op.undo());
                }
            }
        }
        Ok(())
    }

    /// Ends a replay pass, on every exit: detaches each row this pass left
    /// a view in a resident block and each undo entry it added to `live`.
    pub(crate) fn end_pass(&mut self, server: &mut DbServer) {
        if let Some(inst) = server.inst.as_mut() {
            inst.cache.detach_views(|img, slot| img.detach(slot));
        }
        for (t, ops) in &mut self.live {
            let from = self.settled.get(t).copied().unwrap_or(0);
            ops.iter_mut().skip(from).for_each(UndoOp::detach);
        }
        self.settled = self.live.iter().map(|(t, ops)| (*t, ops.len())).collect();
    }
}

/// Rolls unresolved transactions back **without logging**: youngest
/// transaction first, each one's changes newest first, each compensation
/// stamped with the instance's next SCN and written whatever SCN the block
/// carries (undo is not redo: there is no "already applied" to test for).
/// Only for endings no later replay can cross (a new incarnation) or that
/// a logged rollback follows. Storage that is gone (a replayed `DROP
/// TABLESPACE`) has nothing left to undo, so `block` failures are skipped;
/// a column delta the row in its slot cannot take ends the rollback.
pub(crate) fn rollback_unlogged(
    server: &mut DbServer,
    unresolved: &BTreeMap<TxnId, Vec<UndoOp>>,
    block: impl Fn(&mut DbServer, BlockKey, &dyn Fn(&mut BlockImage) -> bool) -> DbResult<()>,
) -> DbResult<()> {
    for ops in unresolved.values().rev() {
        for undo in ops.iter().rev() {
            let scn = server.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?.next_scn();
            let rid = undo.rid();
            let refused = Cell::new(None);
            let _ = block(server, (rid.file, rid.block), &|img| {
                keeping_misfit(&refused, || match undo.compensation(img.row(rid.slot))? {
                    Some(op) => op.apply_to(img, scn).map(|()| true),
                    None => Ok(false),
                })
            });
            if let Some(e) = refused.take() {
                return Err(e.into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bytes::Bytes;
    use recobench_sim::SimClock;
    use recobench_vfs::FileKind;

    use super::*;
    use crate::catalog::IndexDef;
    use crate::codec::Writer;
    use crate::config::InstanceConfig;
    use crate::layout::DiskLayout;
    use crate::redo::decode_stream;
    use crate::row::{ColumnDelta, Value};
    use crate::standby::{Standby, Upstream};
    use crate::types::{ObjectId, RedoAddr, SessionId};

    fn row(k: u64, v: &str) -> Row {
        Row::new(vec![Value::U64(k), Value::from(v)])
    }

    /// A decoded record's rows are views into its log segment. A replay
    /// pass keeps them so — the row a whole-image update stores in the
    /// block, the before-image or column delta in `ReplayState::live` — and
    /// its end detaches each once, or one cached block or one open
    /// transaction would keep a segment alive between passes. A column
    /// delta stores a spliced copy in the block, which pins nothing.
    #[test]
    fn a_replay_pass_keeps_views_until_it_ends() {
        // A whole-image update (it changes the column count), then a delta.
        let wider = Row::new(vec![Value::U64(7), Value::from("after"), Value::Null]);
        for (after, stored_is_view) in [(wider, true), (row(7, "after"), false)] {
            let (mut srv, rid) = empty_datafile();
            let mut state = ReplayState::default();
            let insert = RedoOp::Insert { obj: ObjectId(1), rid, row: row(7, "before") };
            replay(&mut srv, &mut state, &logged(8, None, insert)).unwrap();
            state.end_pass(&mut srv);
            let rec = RedoRecord { scn: Scn(9), txn: Some(TxnId(4)), op: update(rid, row(7, "before"), after.clone()) };
            let mut w = Writer::new();
            while w.len() < 1 << 20 {
                rec.encode_into(&mut w);
            }
            let segment = w.into_bytes();
            let span = segment.as_ptr_range();
            let inside = |bytes: Bytes| span.contains(&bytes.as_ptr());
            let records = decode_stream(std::slice::from_ref(&segment), 0).unwrap();
            let (_, decoded) = records.last().unwrap();

            let addr = RedoAddr { seq: 1, offset: 0 };
            state
                .note_and_apply(&mut srv, decoded, |srv, key, view, change| {
                    assert_eq!((key, view), ((rid.file, rid.block), stored_is_view.then_some(rid.slot)));
                    srv.change_block_for_recovery(key, addr, view, change)
                })
                .unwrap();
            // The stored row, and the bytes the undo entry keeps (checked to
            // take `after` back to the before-image).
            let kept = |srv: &DbServer, state: &ReplayState| {
                let stored = block_of(srv, rid).unwrap().row(rid.slot).cloned().unwrap();
                let undo = match &state.live[&TxnId(4)][..] {
                    [UndoOp::UndoUpdate { before, .. }] => (before.clone(), before.encode()),
                    [UndoOp::UndoColumns { delta, .. }] => (delta.revert(&after).unwrap(), delta.encode()),
                    _ => panic!("one undo entry for the one replayed update: {:?}", state.live),
                };
                assert_eq!((&stored, &undo.0), (&after, &row(7, "before")));
                (stored.encode(), undo.1)
            };
            let (stored, undo) = kept(&srv, &state);
            assert_eq!(inside(stored.clone()), stored_is_view, "a whole row is stored as a view");
            assert!(inside(undo), "within a pass, the undo entry is a view");

            state.end_pass(&mut srv);
            let (stored, undo) = kept(&srv, &state);
            assert!(!inside(stored.clone()) && !inside(undo.clone()), "the end of the pass detaches both");
            // Once: a second end detaches neither again.
            state.end_pass(&mut srv);
            let again = kept(&srv, &state);
            assert_eq!((again.0.as_ptr(), again.1.as_ptr()), (stored.as_ptr(), undo.as_ptr()));
        }
    }

    // ------------------------------------------------------------------
    // Column deltas on replay
    // ------------------------------------------------------------------

    /// A server with one empty datafile, and a row address in it.
    fn empty_datafile() -> (DbServer, RowId) {
        let mut srv =
            DbServer::on_fresh_disks("DELTA", SimClock::shared(), DiskLayout::four_disk(), InstanceConfig::default());
        srv.create_database().unwrap();
        srv.create_tablespace("D", 1, 16).unwrap();
        let file = *srv.inst.as_ref().unwrap().catalog.datafiles.keys().next().unwrap();
        (srv, RowId { file, block: 5, slot: 3 })
    }

    /// `op` at `scn` for `txn`, as the log gives it back: an update that
    /// keeps its column count comes back as its column delta.
    fn logged(scn: u64, txn: Option<u64>, op: RedoOp) -> RedoRecord {
        let rec = RedoRecord { scn: Scn(scn), txn: txn.map(TxnId), op };
        RedoRecord::decode_from(&mut crate::codec::Reader::new(rec.encode())).unwrap()
    }

    fn update(rid: RowId, before: Row, after: Row) -> RedoOp {
        RedoOp::Update { obj: ObjectId(1), rid, before, after }
    }

    fn replay(srv: &mut DbServer, state: &mut ReplayState, rec: &RedoRecord) -> DbResult<()> {
        let addr = RedoAddr { seq: 1, offset: rec.scn.0 };
        state.note_and_apply(srv, rec, |srv, key, view, change| srv.change_block_for_recovery(key, addr, view, change))
    }

    fn block_of(srv: &DbServer, rid: RowId) -> Option<&BlockImage> {
        srv.inst.as_ref().unwrap().cache.peek((rid.file, rid.block))
    }

    #[test]
    fn a_delta_skipped_on_a_block_already_ahead_still_records_its_undo() {
        let (mut srv, rid) = empty_datafile();
        let mut state = ReplayState::default();
        replay(&mut srv, &mut state, &logged(20, None, RedoOp::Insert { obj: ObjectId(1), rid, row: row(7, "ahead") }))
            .unwrap();
        let delta = logged(9, Some(4), update(rid, row(7, "before"), row(7, "after")));
        assert!(matches!(delta.op, RedoOp::UpdateDelta { .. }), "{delta:?}");
        replay(&mut srv, &mut state, &delta).unwrap();
        assert_eq!(block_of(&srv, rid).unwrap().row(rid.slot), Some(&row(7, "ahead")), "the block is ahead");
        let [UndoOp::UndoColumns { rid: undone, delta, .. }] = &state.live[&TxnId(4)][..] else {
            panic!("one column undo for the skipped delta: {:?}", state.live);
        };
        assert_eq!(*undone, rid);
        assert_eq!(delta.revert(&row(7, "after")), Some(row(7, "before")));
    }

    /// On an empty slot, or on a row shorter than a column it names, a
    /// delta ends the replay with the typed misfit and leaves the block as
    /// it was; so does its undo in an unlogged rollback.
    #[test]
    fn a_delta_that_does_not_fit_its_slot_ends_the_replay_with_its_rid() {
        let (mut srv, rid) = empty_datafile();
        let mut state = ReplayState::default();
        let delta = logged(9, Some(4), update(rid, row(7, "before"), row(7, "after")));
        let empty = replay(&mut srv, &mut state, &delta);
        assert_eq!(empty, Err(DbError::Recovery(RecoveryError::DeltaMisfit { rid, columns: None })));
        assert_eq!(block_of(&srv, rid).unwrap().last_scn, Scn(0), "the block is untouched");

        let short = Row::new(vec![Value::U64(7)]);
        replay(&mut srv, &mut state, &logged(5, None, RedoOp::Insert { obj: ObjectId(1), rid, row: short.clone() }))
            .unwrap();
        let image = block_of(&srv, rid).unwrap().encode();
        let past = replay(&mut srv, &mut state, &delta);
        assert_eq!(past, Err(DbError::Recovery(RecoveryError::DeltaMisfit { rid, columns: Some(1) })));
        assert_eq!(block_of(&srv, rid).unwrap().encode(), image);
        assert_eq!(
            past.unwrap_err().to_string(),
            format!("recovery invariant broken: column delta for {rid} names a column past the row's 1")
        );

        let RedoOp::UpdateDelta { delta, .. } = delta.op else { unreachable!() };
        let undo = BTreeMap::from([(TxnId(4), vec![UndoOp::UndoColumns { obj: ObjectId(1), rid, delta }])]);
        let rolled = rollback_unlogged(&mut srv, &undo, |srv, key, change| {
            srv.change_block_for_recovery(key, RedoAddr { seq: 1, offset: 99 }, None, change)
        });
        assert_eq!(rolled, Err(DbError::Recovery(RecoveryError::DeltaMisfit { rid, columns: Some(1) })));
        assert_eq!(block_of(&srv, rid).unwrap().encode(), image);
    }

    /// Inserts, deltas and deletes over two slots of one block: the first
    /// pass builds the rows, the second applies nothing and leaves the
    /// image byte for byte.
    #[test]
    fn a_second_replay_pass_over_the_same_deltas_leaves_the_block_identical() {
        let (mut srv, a) = empty_datafile();
        let b = RowId { slot: a.slot + 1, ..a };
        let wide = |k: u64, v: &str, n: i64| Row::new(vec![Value::U64(k), Value::from(v), Value::I64(n), Value::Null]);
        let records = [
            logged(1, Some(1), RedoOp::Insert { obj: ObjectId(1), rid: a, row: wide(1, "a", 0) }),
            logged(2, Some(1), RedoOp::Insert { obj: ObjectId(1), rid: b, row: wide(2, "b", 0) }),
            logged(3, Some(1), update(a, wide(1, "a", 0), wide(1, "a", 10))),
            logged(4, Some(1), update(b, wide(2, "b", 0), wide(2, "a much longer b", -5))),
            logged(5, Some(1), update(a, wide(1, "a", 10), wide(1, "", 11))),
            logged(6, Some(1), RedoOp::Delete { obj: ObjectId(1), rid: b, before: wide(2, "a much longer b", -5) }),
            logged(7, Some(1), RedoOp::Insert { obj: ObjectId(1), rid: b, row: wide(3, "c", 1) }),
            logged(8, Some(1), update(b, wide(3, "c", 1), wide(3, "c", 2))),
            logged(9, Some(1), RedoOp::Commit),
        ];
        assert_eq!(records.iter().filter(|r| matches!(r.op, RedoOp::UpdateDelta { .. })).count(), 4);
        let mut state = ReplayState::default();
        for rec in &records {
            replay(&mut srv, &mut state, rec).unwrap();
        }
        state.end_pass(&mut srv);
        let first = block_of(&srv, a).unwrap().encode();
        assert_eq!(block_of(&srv, a).unwrap().row(a.slot), Some(&wide(1, "", 11)));
        assert_eq!(block_of(&srv, b).unwrap().row(b.slot), Some(&wide(3, "c", 2)));
        for rec in &records {
            replay(&mut srv, &mut state, rec).unwrap();
        }
        state.end_pass(&mut srv);
        assert_eq!(block_of(&srv, a).unwrap().encode(), first);
        assert!(state.live.is_empty());
    }

    /// The open transaction's updates are in the log as column deltas; a
    /// point-in-time recovery past them finds it unresolved and its
    /// unlogged rollback puts back each row's exact before-image.
    #[test]
    fn point_in_time_recovery_rolls_an_open_delta_back_to_the_exact_before_image() {
        let (mut srv, t, rids, _) = worked_database();
        let open_deltas: Vec<RedoRecord> = log_records(&srv)
            .into_iter()
            .filter(|r| matches!(&r.op, RedoOp::UpdateDelta { rid, .. } if rids[..5].contains(rid)))
            .collect();
        assert_eq!(open_deltas.len(), 5, "each open update is logged as its delta");
        srv.recover_database_until(srv.current_scn().next()).unwrap();
        for (k, &rid) in rids.iter().enumerate().take(8) {
            assert_eq!(srv.get_row(t, rid).unwrap(), row(k as u64, "seed"), "row {k}");
        }
    }

    /// Crash recovery's logged rollback writes each compensation of an
    /// open delta as a delta itself; media recovery of the datafile from
    /// the cold backup replays it, and the rows end at their before-images.
    #[test]
    fn a_logged_crash_rollback_writes_delta_compensations_that_replay() {
        let (mut srv, t, rids, _) = worked_database();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        let records = log_records(&srv);
        let on_row0: Vec<&RedoRecord> = records.iter().filter(|r| r.op.target().is_some_and(|(_, rid)| rid == rids[0])).collect();
        let [.., forward, compensation] = &on_row0[..] else { panic!("{on_row0:?}") };
        let (RedoOp::UpdateDelta { delta: forward, .. }, RedoOp::UpdateDelta { delta: back, .. }) = (&forward.op, &compensation.op) else {
            panic!("both are deltas: {forward:?} {compensation:?}");
        };
        assert_eq!(forward.apply(&row(0, "seed")), Some(row(0, "never committed")));
        assert_eq!(back.apply(&row(0, "never committed")), Some(row(0, "seed")));
        assert!(records.iter().any(|r| r.txn == compensation.txn && r.op == RedoOp::Rollback));

        let victim = srv.inst.as_ref().unwrap().catalog.datafiles[&rids[0].file].path.clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        srv.recover_datafile(&victim).unwrap();
        for (k, &rid) in rids.iter().enumerate().take(8) {
            assert_eq!(srv.get_row(t, rid).unwrap(), row(k as u64, "seed"), "row {k}");
        }
    }

    // ------------------------------------------------------------------
    // The end of the pass, on every procedure's exit
    // ------------------------------------------------------------------

    fn cfg() -> InstanceConfig {
        InstanceConfig::builder()
            .redo_file_bytes(64 * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(true)
            .cache_blocks(64)
            .build()
    }

    /// A table of 40 rows under a cold backup, then committed updates that
    /// switch the log three times, then one transaction left open over
    /// updates and deletes whose records a last commit flushed.
    fn worked_database() -> (DbServer, ObjectId, Vec<RowId>, SessionId) {
        let mut srv = DbServer::on_fresh_disks("PASS", SimClock::shared(), DiskLayout::four_disk(), cfg());
        srv.create_database().unwrap();
        srv.create_user("u").unwrap();
        srv.create_tablespace("D", 2, 512).unwrap();
        let pk = IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true };
        let t = srv.create_table("T", "u", "D", vec![pk]).unwrap();
        let s = srv.connect().unwrap();
        let rids: Vec<RowId> = (0..40).map(|k| srv.insert(s, t, row(k, "seed")).unwrap()).collect();
        srv.commit(s).unwrap();
        srv.take_cold_backup().unwrap();
        switch_logs(&mut srv, t, &rids, 3);
        let open = srv.connect().unwrap();
        for (k, &rid) in rids.iter().enumerate().take(8) {
            if k < 5 {
                srv.update(open, t, rid, row(k as u64, "never committed")).unwrap();
            } else {
                srv.delete(open, t, rid).unwrap();
            }
        }
        let s = srv.connect().unwrap();
        srv.update(s, t, rids[8], row(8, "flushes the open transaction")).unwrap();
        srv.commit(s).unwrap();
        (srv, t, rids, open)
    }

    /// Commits updates of rows 9 and up until the log has switched `n`
    /// more times.
    fn switch_logs(srv: &mut DbServer, t: ObjectId, rids: &[RowId], n: u64) {
        let s = srv.connect().unwrap();
        let until = srv.stats().log_switches + n;
        for i in 0.. {
            if srv.stats().log_switches >= until {
                break;
            }
            let k = 9 + i % 31;
            srv.update(s, t, rids[k], row(k as u64, &format!("committed update {i}"))).unwrap();
            srv.commit(s).unwrap();
        }
    }

    /// Every segment of every online and archived log `srv` holds: all a
    /// replay pass from here can read. Holding them keeps their
    /// allocations, so no later allocation lands inside one.
    fn log_segments(srv: &DbServer) -> Vec<Bytes> {
        let fs = srv.fs.lock();
        [FileKind::Redo, FileKind::Archive]
            .into_iter()
            .flat_map(|kind| fs.list(kind))
            .flat_map(|meta| fs.peek_all(meta.id).unwrap())
            .collect()
    }

    /// Every record `srv`'s online and archived logs hold, once each, in
    /// SCN order.
    fn log_records(srv: &DbServer) -> Vec<RedoRecord> {
        let mut records = Vec::new();
        let fs = srv.fs.lock();
        for meta in [FileKind::Redo, FileKind::Archive].into_iter().flat_map(|kind| fs.list(kind)) {
            records.extend(decode_stream(&fs.peek_all(meta.id).unwrap(), 0).unwrap().into_iter().map(|(_, rec)| rec));
        }
        records.sort_by_key(|rec| rec.scn);
        records.dedup_by_key(|rec| rec.scn);
        records
    }

    /// The per-pass memory rule: no row resident in `srv`'s cache and no
    /// undo entry in `live` lies inside any of `segments`. A procedure
    /// whose replay state ends with it still rolls its unresolved
    /// transactions back into blocks, so the resident rows cover its undo
    /// too.
    fn assert_nothing_pins(srv: &DbServer, live: &BTreeMap<TxnId, Vec<UndoOp>>, segments: &[Bytes]) {
        let inside_bytes = |bytes: Bytes| segments.iter().any(|s| s.as_ptr_range().contains(&bytes.as_ptr()));
        let inside = |row: &Row| inside_bytes(row.encode());
        let inside_delta = |delta: &ColumnDelta| !delta.is_empty() && inside_bytes(delta.encode());
        let cache = &srv.inst.as_ref().unwrap().cache;
        assert!(cache.resident_rows().next().is_some(), "the check looks at some rows");
        assert_eq!(cache.resident_rows().filter(|r| inside(r)).count(), 0, "resident rows pin the log");
        let pinned = live.values().flatten().filter(|undo| match undo {
            UndoOp::UndoUpdate { before, .. } | UndoOp::UndoDelete { before, .. } => inside(before),
            UndoOp::UndoColumns { delta, .. } => inside_delta(delta),
            UndoOp::UndoInsert { .. } => false,
        });
        assert_eq!(pinned.count(), 0, "undo entries pin the log");
    }

    #[test]
    fn crash_recovery_ends_its_pass() {
        let (mut srv, t, rids, _) = worked_database();
        let segments = log_segments(&srv);
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.get_row(t, rids[0]).unwrap(), row(0, "seed"), "the open update rolled back");
        assert_nothing_pins(&srv, &BTreeMap::new(), &segments);
    }

    #[test]
    fn media_recovery_ends_its_pass() {
        let (mut srv, t, rids, _) = worked_database();
        let segments = log_segments(&srv);
        let victim = srv.inst.as_ref().unwrap().catalog.datafiles[&rids[8].file].path.clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        srv.recover_datafile(&victim).unwrap();
        assert_eq!(srv.get_row(t, rids[0]).unwrap(), row(0, "seed"));
        assert_nothing_pins(&srv, &BTreeMap::new(), &segments);
    }

    #[test]
    fn point_in_time_recovery_ends_its_pass() {
        let (mut srv, t, rids, _) = worked_database();
        let segments = log_segments(&srv);
        srv.recover_database_until(srv.current_scn().next()).unwrap();
        assert_eq!(srv.get_row(t, rids[0]).unwrap(), row(0, "seed"));
        assert_nothing_pins(&srv, &BTreeMap::new(), &segments);
    }

    /// The stand-by keeps its replay state across ingests: after one,
    /// the open transaction's undo is still there, and detached.
    #[test]
    fn a_standby_ingest_and_its_activation_end_their_passes() {
        let (mut p, t, rids, _) = worked_database();
        switch_logs(&mut p, t, &rids, 1);
        let (mut sb, restored) =
            Standby::instantiate(&p, "SBY", Arc::clone(p.clock()), DiskLayout::four_disk(), cfg(), None)
                .unwrap();
        p.clock().advance_to(restored);
        let segments = log_segments(&p);
        sb.sync(Upstream::Server(&p)).unwrap();
        let before_images = sb.replayed.live.values().flatten();
        assert!(before_images.filter(|u| !matches!(u, UndoOp::UndoInsert { .. })).count() >= 8);
        assert_nothing_pins(&sb.server, &sb.replayed.live, &segments);
        sb.activate().unwrap();
        assert_nothing_pins(&sb.server, &sb.replayed.live, &segments);
    }

    /// The setup of `recovery.rs`'s
    /// `a_damaged_archive_mid_chain_ends_media_recovery_with_its_sequence`:
    /// the replay applies the damaged sequence's whole records, then fails.
    #[test]
    fn a_failed_replay_ends_its_pass() {
        let (mut srv, _, rids, open) = worked_database();
        srv.rollback(open).unwrap();
        let seq = srv.backup().unwrap().position.seq;
        let control = srv.control_ref().unwrap();
        assert!(control.current_seq > seq + 1, "the damaged sequence is not the head");
        let archive = format!("/arch/{}_{seq:06}.arc", srv.name());
        let segments = log_segments(&srv);
        {
            let mut fs = srv.fs.lock();
            let id = fs.lookup(&archive).unwrap();
            fs.append(id, Bytes::from_static(&[0x5A]), recobench_sim::SimTime::ZERO).unwrap();
        }
        let victim = srv.inst.as_ref().unwrap().catalog.datafiles[&rids[8].file].path.clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        let err = srv.recover_datafile(&victim);
        assert_eq!(err, Err(DbError::Unrecoverable(format!("log seq {seq} is corrupt"))));
        assert_nothing_pins(&srv, &BTreeMap::new(), &segments);
    }
}
