//! The applier: what a logged change does to a block, and how a change is
//! taken back.
//!
//! Forward DML, runtime rollback, crash / media / point-in-time replay and
//! the stand-by's managed recovery all change blocks through this module —
//! recovery *is* the forward write path with logging off. What stays with
//! each caller is policy: how a block is made resident and who pays for the
//! I/O, which records are filtered out, what is charged to the clock, and
//! whether a rollback is logged.
//!
//! Outside [`crate::page`] this is the only code that calls
//! [`BlockImage::put`] / [`BlockImage::remove`] (tidy's `lock-discipline`
//! lint enforces it).

use std::collections::BTreeMap;

use crate::error::{DbError, DbResult};
use crate::page::BlockImage;
use crate::redo::{RedoOp, RedoRecord};
use crate::row::Row;
use crate::server::{BlockKey, DbServer};
use crate::txn::UndoOp;
use crate::types::{RowId, Scn, TxnId};

impl RedoOp {
    /// The row a row change lands on (`None` for markers and DDL).
    pub(crate) fn rid(&self) -> Option<RowId> {
        match self {
            RedoOp::Insert { rid, .. } | RedoOp::Update { rid, .. } | RedoOp::Delete { rid, .. } => {
                Some(*rid)
            }
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => None,
        }
    }

    /// The undo entry that takes this replayed change back (`None` for
    /// markers and DDL). The entry can outlive the log segment the record
    /// was decoded from, so its before-image is detached from it.
    fn undo(&self) -> Option<UndoOp> {
        match self {
            RedoOp::Insert { obj, rid, .. } => Some(UndoOp::UndoInsert { obj: *obj, rid: *rid }),
            RedoOp::Update { obj, rid, before, .. } => {
                Some(UndoOp::UndoUpdate { obj: *obj, rid: *rid, before: before.detached() })
            }
            RedoOp::Delete { obj, rid, before } => {
                Some(UndoOp::UndoDelete { obj: *obj, rid: *rid, before: before.detached() })
            }
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => None,
        }
    }

    /// Writes the change into its block image, stamping it with `scn`: the
    /// forward write, unconditional — a new change is never already there.
    pub(crate) fn apply_to(&self, img: &mut BlockImage, scn: Scn) {
        self.write_to(img, scn, Row::clone);
    }

    /// Replays the change onto its block unless the image already carries
    /// it (`img.last_scn >= scn`) — the test that makes replay idempotent.
    /// Returns whether the image changed. The block outlives the log
    /// segment the record was decoded from, so the row it stores is
    /// detached from it: a cached block never pins a segment.
    fn replay_onto(&self, img: &mut BlockImage, scn: Scn) -> bool {
        if img.last_scn >= scn {
            return false;
        }
        self.write_to(img, scn, Row::detached);
        true
    }

    fn write_to(&self, img: &mut BlockImage, scn: Scn, stored: impl FnOnce(&Row) -> Row) {
        match self {
            RedoOp::Insert { rid, row, .. } | RedoOp::Update { rid, after: row, .. } => {
                img.put(rid.slot, stored(row), scn);
            }
            RedoOp::Delete { rid, .. } => {
                img.remove(rid.slot, scn);
            }
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => {}
        }
    }
}

impl UndoOp {
    /// The row whose change this entry takes back.
    pub(crate) fn rid(&self) -> RowId {
        match self {
            UndoOp::UndoInsert { rid, .. }
            | UndoOp::UndoUpdate { rid, .. }
            | UndoOp::UndoDelete { rid, .. } => *rid,
        }
    }

    /// The compensating change, given the row now in the slot: an undone
    /// insert deletes what is there, an undone update or delete puts the
    /// before-image back over whatever is (or is not) there. `None` when
    /// there is nothing to take back.
    pub(crate) fn compensation(&self, current: Option<&Row>) -> Option<RedoOp> {
        match (self, current) {
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
        }
    }
}

/// What a replay learns from the records it scans: which transactions are
/// still unresolved (with the undo that takes them back) and how far the
/// SCN and transaction-id spaces were used.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayState {
    /// Transactions with no terminal record yet, in id order, each with
    /// its undo in log order.
    pub(crate) live: BTreeMap<TxnId, Vec<UndoOp>>,
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
    /// and marks it dirty if the change applied.
    pub(crate) fn note_and_apply(
        &mut self,
        server: &mut DbServer,
        rec: &RedoRecord,
        block: impl FnOnce(&mut DbServer, BlockKey, &dyn Fn(&mut BlockImage) -> bool) -> DbResult<()>,
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
                op @ (RedoOp::Insert { rid, .. } | RedoOp::Update { rid, .. } | RedoOp::Delete { rid, .. }),
                txn,
            ) => {
                block(server, (rid.file, rid.block), &|img| op.replay_onto(img, rec.scn))?;
                if let Some(t) = txn {
                    self.live.entry(t).or_default().extend(op.undo());
                }
            }
        }
        Ok(())
    }
}

/// Rolls unresolved transactions back **without logging**: youngest
/// transaction first, each one's changes newest first, each compensation
/// stamped with the instance's next SCN and written whatever SCN the block
/// carries (undo is not redo: there is no "already applied" to test for).
/// Only for endings no later replay can cross (a new incarnation) or that
/// a logged rollback follows. Storage that is gone (a replayed `DROP
/// TABLESPACE`) has nothing left to undo, so `block` failures are skipped.
pub(crate) fn rollback_unlogged(
    server: &mut DbServer,
    unresolved: &BTreeMap<TxnId, Vec<UndoOp>>,
    block: impl Fn(&mut DbServer, BlockKey, &dyn Fn(&mut BlockImage) -> bool) -> DbResult<()>,
) -> DbResult<()> {
    for ops in unresolved.values().rev() {
        for undo in ops.iter().rev() {
            let scn = server.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?.next_scn();
            let rid = undo.rid();
            let _ = block(server, (rid.file, rid.block), &|img| {
                match undo.compensation(img.row(rid.slot)) {
                    Some(op) => {
                        op.apply_to(img, scn);
                        true
                    }
                    None => false,
                }
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use recobench_sim::SimClock;

    use super::*;
    use crate::codec::Writer;
    use crate::config::InstanceConfig;
    use crate::layout::DiskLayout;
    use crate::redo::decode_stream;
    use crate::row::Value;
    use crate::types::{FileNo, ObjectId};

    /// A decoded record's rows are views into its log segment; what replay
    /// keeps of them — the row stored in the block, the undo entry in
    /// `ReplayState::live` — must not be, or one cached block or one open
    /// transaction would keep a megabyte of log alive.
    #[test]
    fn a_replayed_row_and_its_undo_entry_do_not_pin_the_log_segment() {
        let row = |v: &str| Row::new(vec![Value::U64(7), Value::from(v)]);
        let rid = RowId { file: FileNo(2), block: 5, slot: 3 };
        let rec = RedoRecord {
            scn: Scn(9),
            txn: Some(TxnId(4)),
            op: RedoOp::Update { obj: ObjectId(1), rid, before: row("before"), after: row("after") },
        };
        let mut w = Writer::new();
        while w.len() < 1 << 20 {
            rec.encode_into(&mut w);
        }
        let segment = w.into_bytes();
        let span = segment.as_ptr_range();
        let records = decode_stream(std::slice::from_ref(&segment), 0).unwrap();
        let (_, decoded) = records.last().unwrap();
        let RedoOp::Update { after, .. } = &decoded.op else { unreachable!() };
        assert!(span.contains(&after.encode().as_ptr()), "decoding slices, it does not copy");

        let mut srv = DbServer::on_fresh_disks(
            "PIN",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        let mut img = BlockImage::empty();
        let mut state = ReplayState::default();
        state
            .note_and_apply(&mut srv, decoded, |_, key, change| {
                assert_eq!(key, (rid.file, rid.block));
                assert!(change(&mut img));
                Ok(())
            })
            .unwrap();
        drop(records);
        drop(segment);

        let stored = img.row(rid.slot).unwrap();
        assert_eq!(stored, &row("after"));
        assert!(!span.contains(&stored.encode().as_ptr()));
        let [UndoOp::UndoUpdate { before, .. }] = &state.live[&TxnId(4)][..] else {
            panic!("one undo entry for the one replayed update: {:?}", state.live);
        };
        assert_eq!(before, &row("before"));
        assert!(!span.contains(&before.encode().as_ptr()));
    }
}
