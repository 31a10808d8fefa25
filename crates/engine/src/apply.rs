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
//! [`BlockImage::put`] / [`BlockImage::remove`] / `BlockImage::detach`, and
//! outside [`crate::index`] the only code that calls [`Index::insert`] /
//! [`Index::remove`] / [`Index::replace`] (tidy's `lock-discipline` lint
//! enforces both).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{DbError, DbResult};
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
            | RedoOp::Delete { obj, rid, .. } => Some((*obj, *rid)),
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => None,
        }
    }

    /// The undo entry that takes this change back (`None` for markers and
    /// DDL). On replay its before-image is a view into the log segment the
    /// record was decoded from until [`ReplayState::end_pass`] detaches it.
    pub(crate) fn undo(&self) -> Option<UndoOp> {
        match self {
            RedoOp::Insert { obj, rid, .. } => Some(UndoOp::UndoInsert { obj: *obj, rid: *rid }),
            RedoOp::Update { obj, rid, before, .. } => {
                Some(UndoOp::UndoUpdate { obj: *obj, rid: *rid, before: before.clone() })
            }
            RedoOp::Delete { obj, rid, before } => {
                Some(UndoOp::UndoDelete { obj: *obj, rid: *rid, before: before.clone() })
            }
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => None,
        }
    }

    /// Writes the change into its block image, stamping it with `scn`: the
    /// forward write, unconditional — a new change is never already there.
    pub(crate) fn apply_to(&self, img: &mut BlockImage, scn: Scn) {
        match self {
            RedoOp::Insert { rid, row, .. } | RedoOp::Update { rid, after: row, .. } => {
                img.put(rid.slot, row.clone(), scn);
            }
            RedoOp::Delete { rid, .. } => {
                img.remove(rid.slot, scn);
            }
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => {}
        }
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
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => Ok(()),
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
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => return,
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
    /// it (`img.last_scn >= scn`) — the test that makes replay idempotent.
    /// Returns whether the image changed. The row it stores is a view into
    /// the log segment the record was decoded from until
    /// [`ReplayState::end_pass`] detaches it.
    fn replay_onto(&self, img: &mut BlockImage, scn: Scn) -> bool {
        if img.last_scn >= scn {
            return false;
        }
        self.apply_to(img, scn);
        true
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

    /// Gives the before-image, if any, an allocation of its own.
    fn detach(&mut self) {
        if let UndoOp::UndoUpdate { before, .. } | UndoOp::UndoDelete { before, .. } = self {
            *before = before.detached();
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
                op @ (RedoOp::Insert { rid, .. } | RedoOp::Update { rid, .. } | RedoOp::Delete { rid, .. }),
                txn,
            ) => {
                // An insert or update stores its row: a view, until the pass ends.
                let view = (!matches!(op, RedoOp::Delete { .. })).then_some(rid.slot);
                block(server, (rid.file, rid.block), view, &|img| op.replay_onto(img, rec.scn))?;
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
    use crate::row::Value;
    use crate::standby::StandbyServer;
    use crate::types::{ObjectId, RedoAddr, SessionId};

    fn row(k: u64, v: &str) -> Row {
        Row::new(vec![Value::U64(k), Value::from(v)])
    }

    /// A decoded record's rows are views into its log segment. A replay
    /// pass keeps them so — the row stored in the block, the before-image
    /// in `ReplayState::live` — and its end detaches each once, or one
    /// cached block or one open transaction would keep a segment alive
    /// between passes.
    #[test]
    fn a_replay_pass_keeps_views_until_it_ends() {
        let mut srv = DbServer::on_fresh_disks(
            "PIN",
            SimClock::shared(),
            DiskLayout::four_disk(),
            InstanceConfig::default(),
        );
        srv.create_database().unwrap();
        srv.create_tablespace("D", 1, 16).unwrap();
        let file = *srv.inst.as_ref().unwrap().catalog.datafiles.keys().next().unwrap();
        let rid = RowId { file, block: 5, slot: 3 };
        let rec = RedoRecord {
            scn: Scn(9),
            txn: Some(TxnId(4)),
            op: RedoOp::Update { obj: ObjectId(1), rid, before: row(7, "before"), after: row(7, "after") },
        };
        let mut w = Writer::new();
        while w.len() < 1 << 20 {
            rec.encode_into(&mut w);
        }
        let segment = w.into_bytes();
        let span = segment.as_ptr_range();
        let inside = |row: &Row| span.contains(&row.encode().as_ptr());
        let records = decode_stream(std::slice::from_ref(&segment), 0).unwrap();
        let (_, decoded) = records.last().unwrap();

        let mut state = ReplayState::default();
        let addr = RedoAddr { seq: 1, offset: 0 };
        state
            .note_and_apply(&mut srv, decoded, |srv, key, view, change| {
                assert_eq!((key, view), ((rid.file, rid.block), Some(rid.slot)));
                srv.change_block_for_recovery(key, addr, view, change)
            })
            .unwrap();
        let kept = |srv: &DbServer, state: &ReplayState| {
            let stored =
                srv.inst.as_ref().unwrap().cache.peek((rid.file, rid.block)).unwrap().row(rid.slot).cloned();
            let [UndoOp::UndoUpdate { before, .. }] = &state.live[&TxnId(4)][..] else {
                panic!("one undo entry for the one replayed update: {:?}", state.live);
            };
            (stored.unwrap(), before.clone())
        };
        let (stored, before) = kept(&srv, &state);
        assert_eq!((&stored, &before), (&row(7, "after"), &row(7, "before")));
        assert!(inside(&stored) && inside(&before), "within a pass, replay copies no row");

        state.end_pass(&mut srv);
        let (stored, before) = kept(&srv, &state);
        assert_eq!((&stored, &before), (&row(7, "after"), &row(7, "before")));
        assert!(!inside(&stored) && !inside(&before), "the end of the pass detaches both");
        // Once: a second end detaches neither again.
        state.end_pass(&mut srv);
        let again = kept(&srv, &state);
        assert_eq!(again.0.encode().as_ptr(), stored.encode().as_ptr());
        assert_eq!(again.1.encode().as_ptr(), before.encode().as_ptr());
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

    /// The per-pass memory rule: no row resident in `srv`'s cache and no
    /// undo entry in `live` lies inside any of `segments`. A procedure
    /// whose replay state ends with it still rolls its unresolved
    /// transactions back into blocks, so the resident rows cover its undo
    /// too.
    fn assert_nothing_pins(srv: &DbServer, live: &BTreeMap<TxnId, Vec<UndoOp>>, segments: &[Bytes]) {
        let inside = |row: &Row| {
            let at = row.encode().as_ptr();
            segments.iter().any(|s| s.as_ptr_range().contains(&at))
        };
        let cache = &srv.inst.as_ref().unwrap().cache;
        assert!(cache.resident_rows().next().is_some(), "the check looks at some rows");
        assert_eq!(cache.resident_rows().filter(|r| inside(r)).count(), 0, "resident rows pin the log");
        let pinned = live.values().flatten().filter(|undo| match undo {
            UndoOp::UndoUpdate { before, .. } | UndoOp::UndoDelete { before, .. } => inside(before),
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
        let mut sb =
            StandbyServer::instantiate(&p, "SBY", Arc::clone(p.clock()), DiskLayout::four_disk(), cfg())
                .unwrap();
        let segments = log_segments(&p);
        sb.sync(&p).unwrap();
        let before_images = sb.replayed.live.values().flatten();
        assert!(before_images.filter(|u| !matches!(u, UndoOp::UndoInsert { .. })).count() >= 8);
        assert_nothing_pins(sb.server(), &sb.replayed.live, &segments);
        sb.activate().unwrap();
        assert_nothing_pins(sb.server(), &sb.replayed.live, &segments);
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
