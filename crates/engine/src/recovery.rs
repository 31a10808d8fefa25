//! Recovery's four procedures: crash recovery, single-datafile media
//! recovery, incomplete (point-in-time) recovery, and the open that ends
//! a stand-by's activation (`standby.rs`).
//!
//! Each is a short sequence of steps written once here — `mount`,
//! `restore`, `replay`, `roll_back`, `open_resetlogs`/`finalize_open`,
//! `completed` — in its own order. Replay differs in where it starts
//! (checkpoint, file recovery or backup position) and which records it
//! applies (all, one datafile's, or those before a stop SCN).
//!
//! The paper's Table 5 faults resolve through crash and media recovery
//! (no committed work lost — *complete* recovery); its Table 4 faults need
//! point-in-time recovery (the committed tail is sacrificed —
//! *incomplete* recovery); Figure 6 times the activation.

use std::collections::BTreeMap;
use std::sync::Arc;

use recobench_sim::SimTime;
use recobench_vfs::{FileId, IoKind};

use crate::apply::{rollback_unlogged, ReplayState};
use crate::blockio::{datafile, unavailable};
use crate::config::{costs, DBWR_TICK};
use crate::controlfile::{CkptRecord, SeqLocation};
use crate::error::{DbError, DbResult};
use crate::events::{EngineEvent, RecoveryPhase, RecoveryProcedure};
use crate::fasthash::FastMap;
use crate::index::{bulk_built, Index};
use crate::instance::Instance;
use crate::redo::{CleanEnd, RedoOp, RedoReader, RedoState};
use crate::row::Row;
use crate::server::{BlockKey, DbServer};
use crate::txn::UndoOp;
use crate::types::{FileNo, ObjectId, RedoAddr, RowId, Scn, TxnId};

/// What a replay pass applied, for reporting and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Records applied to storage or the dictionary.
    pub applied: u64,
    /// Records scanned but skipped (before the start position, after the
    /// stop SCN, or filtered to another datafile).
    pub skipped: u64,
    /// Archive files read.
    pub archives_read: u64,
    /// Transactions rolled back because they never committed.
    pub rolled_back: u64,
}

/// Options for one replay pass.
#[derive(Debug, Clone, Copy)]
struct ReplayOpts {
    from: RedoAddr,
    /// Only redo available (online or archived) by this instant may be
    /// read — the crash time for crash recovery, "now" otherwise.
    available_at: SimTime,
    /// Stop before the first record with `scn >= stop_scn`.
    stop_scn: Option<Scn>,
    /// Apply only changes landing in this datafile (commit/rollback
    /// markers are always honoured).
    only_file: Option<FileNo>,
}

/// The head sequence's group file and where its whole records end, when a
/// torn record ends it.
type TornHead = Option<(FileId, CleanEnd)>;

/// The blocks whose rows may differ from an [`IndexBase`]'s sets: whole
/// datafiles and single blocks. Re-derivation asks it about every entry
/// of a set, so a single block is a bit in its file's bitmap.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChangedBlocks {
    files: Vec<FileNo>,
    /// Per file, bit `b % 64` of word `b / 64` for block `b`.
    blocks: Vec<(FileNo, Vec<u64>)>,
}

impl ChangedBlocks {
    /// Every block of `file`.
    fn file(file: FileNo) -> Self {
        ChangedBlocks { files: vec![file], ..Self::default() }
    }

    fn contains(&self, (file, block): BlockKey) -> bool {
        self.files.contains(&file)
            || self.blocks.iter().find(|(f, _)| *f == file).is_some_and(|(_, bits)| {
                bits.get(block as usize / 64).is_some_and(|word| word >> (block % 64) & 1 == 1)
            })
    }

    pub(crate) fn insert(&mut self, (file, block): BlockKey) {
        let at = self.blocks.iter().position(|(f, _)| *f == file).unwrap_or_else(|| {
            self.blocks.push((file, Vec::new()));
            self.blocks.len() - 1
        });
        if let Some((_, bits)) = self.blocks.get_mut(at) {
            let word = block as usize / 64;
            if bits.len() <= word {
                bits.resize(word + 1, 0);
            }
            bits[word] |= 1 << (block % 64);
        }
    }
}

/// What recovery re-derives indexes from: index sets that matched the heap
/// when they were taken, and the blocks that have changed since.
#[derive(Debug, Clone, Default)]
pub(crate) struct IndexBase {
    sets: FastMap<ObjectId, Arc<Vec<Index>>>,
    pub(crate) changed: ChangedBlocks,
}

impl IndexBase {
    /// What a crash leaves of `inst` for crash recovery: its index sets,
    /// and its dirty blocks — the ones whose stored image is not what the
    /// sets were maintained against.
    pub(crate) fn carried(inst: Instance) -> Self {
        let mut changed = ChangedBlocks::default();
        for (key, _) in inst.cache.dirty_matching(|_, _| true) {
            changed.insert(key);
        }
        IndexBase { sets: inst.indexes, changed }
    }
}

/// `old` re-derived by [`Index::rederive`], with the table's row count;
/// `None` if a set is shadowed.
fn rederived(
    old: &[Index],
    changed: &dyn Fn(RowId) -> bool,
    fresh: &[(RowId, Row)],
) -> Option<(Arc<Vec<Index>>, usize)> {
    let derived: Vec<(Index, usize)> =
        old.iter().map(|ix| ix.rederive(changed, fresh)).collect::<Option<_>>()?;
    let rows = fresh.len() + derived.first().map_or(0, |(_, kept)| *kept);
    Some((Arc::new(derived.into_iter().map(|(ix, _)| ix).collect()), rows))
}

impl DbServer {
    /// Starts the instance: mount, open, and crash recovery if the last
    /// stop was not clean.
    ///
    /// # Errors
    ///
    /// Fails if already open, no database exists, or required redo is
    /// unavailable.
    // tidy-entry(recovery)
    pub fn startup(&mut self) -> DbResult<()> {
        if self.inst.is_some() {
            return Err(DbError::AlreadyOpen);
        }
        self.control_ref()?;
        // Deferred undo survives the restart: it belongs to the server,
        // not the instance, so rollbacks parked on an offline tablespace
        // can still finish after a clean one.
        self.mount(false);
        let now = self.clock.now();
        let control = self.control_ref()?;
        let crash_time = control.stopped_at.unwrap_or(now);
        let clean = control.clean_shutdown;
        let ckpt = control.effective_checkpoint(crash_time).clone();
        let (group, seq, flushed) =
            (control.current_group, control.current_seq, control.current_flushed);
        self.inst = Some(self.fresh_instance((*ckpt.catalog).clone(), ckpt.scn, group, seq, flushed));
        self.control_mut()?.clean_shutdown = false;
        let mut recovered_records = 0;
        if clean {
            self.carried_indexes = None;
        } else {
            let from = self.restore_fractured_datafiles(ckpt.position)?;
            let (summary, replayed, torn_head) = self.replay(ReplayOpts {
                from,
                available_at: crash_time,
                stop_scn: None,
                only_file: None,
            })?;
            // The log ends at the torn record, so the next flush must land
            // right behind the last whole one: written after the torn
            // bytes, it would sit where every later read stops short of
            // it. Oracle overwrites the torn block at open the same way.
            if let Some((head, end)) = torn_head {
                self.fs.lock().truncate_to(head, end.stored, end.offset)?;
                self.control_mut()?.current_flushed = end.offset;
                let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
                inst.redo = RedoState::new(group, seq, end.offset);
            }
            recovered_records = summary.applied;
            self.resume_after(replayed.max_scn, replayed.max_txn)?;
            self.roll_back(&replayed.live, true)?;
            self.completed(RecoveryProcedure::Crash, &summary);
        }
        self.finalize_open()?;
        self.events.record(self.clock.now(), EngineEvent::InstanceOpened { recovered_records });
        Ok(())
    }

    /// A crash can tear the very datafile write it interrupted, leaving a
    /// "fractured" block: half new image, half old, failing its checksum.
    /// The block's change history is durable in the redo stream, but the
    /// torn image is useless as a replay base — so any datafile caught in
    /// that state is restored from the cold backup and crash replay starts
    /// from the backup position instead of the checkpoint (idempotent SCN
    /// checks make the longer pass safe for healthy files). Returns the
    /// position replay must start from.
    ///
    /// Only *quiet* damage is repaired here: a readable file with a block
    /// that fails to decode. Loud damage (a deleted file) keeps its
    /// existing failure mode, and offline files stay media recovery's
    /// business.
    // tidy-entry(recovery)
    fn restore_fractured_datafiles(&mut self, from: RedoAddr) -> DbResult<RedoAddr> {
        let control = self.control_ref()?;
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let files: Vec<(FileNo, FileId, String)> = inst
            .catalog
            .datafiles
            .iter()
            .filter(|(no, df)| unavailable(control, &inst.catalog, **no, df.tablespace).is_none())
            .map(|(no, df)| (*no, df.vfs_id, df.path.clone()))
            .collect();
        let mut from = from;
        for (file_no, vfs_id, path) in files {
            if self.scan_for_bad_blocks(vfs_id, &path) != Some(true) {
                continue;
            }
            from = from.min(self.restore_datafile(file_no, vfs_id, &path, "torn by crash")?);
        }
        Ok(from)
    }

    /// Restores one damaged (`damage` says how) datafile of the open
    /// instance from the cold backup, waiting for the copy. Returns the
    /// backup's redo position — where the file's replay must start.
    fn restore_datafile(
        &mut self,
        file_no: FileNo,
        vfs_id: FileId,
        path: &str,
        damage: &str,
    ) -> DbResult<RedoAddr> {
        let backup = self.backup.as_ref().ok_or_else(|| {
            DbError::Unrecoverable(format!("datafile {path} {damage} and no backup exists"))
        })?;
        let piece = backup.piece_for(file_no).ok_or_else(|| {
            DbError::Unrecoverable(format!("no backup piece for datafile {path}"))
        })?;
        let (position, nominal) = (backup.position, backup.nominal_bytes_per_file);
        self.restore(&[(file_no, vfs_id, piece)], nominal)?;
        Ok(position)
    }

    /// Moves the SCN and transaction-id allocators clear of everything a
    /// replay saw, so nothing issued from here on collides with history.
    pub(crate) fn resume_after(&mut self, max_scn: Scn, max_txn: u64) -> DbResult<()> {
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        inst.scn = Scn(max_scn.max(inst.scn).0 + 1_000);
        inst.txns.bump_past(max_txn);
        self.txn_floor = self.txn_floor.max(max_txn);
        Ok(())
    }

    /// Re-derives indexes (from the crashed instance's, if crash recovery
    /// carried them) and rebuilds insert cursors, takes the post-recovery
    /// checkpoint, and arms background work.
    pub(crate) fn finalize_open(&mut self) -> DbResult<()> {
        let base = self.carried_indexes.take();
        self.rederive_indexes(base)?;
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        for (obj, table) in &inst.catalog.tables {
            let cursor = inst.cursors.entry(*obj).or_default();
            *cursor = crate::heap::PlacementCursor::new();
            cursor.seek_last_extent(&table.segment);
        }
        let done = self.full_checkpoint()?;
        self.clock.advance_to(done);
        self.next_dbwr_tick = self.clock.now() + DBWR_TICK;
        Ok(())
    }

    /// Media recovery of one datafile: restore it from the backup if the
    /// file itself is damaged, then apply its redo from the recovery
    /// position and bring it online.
    ///
    /// # Errors
    ///
    /// Fails if there is no backup when one is needed, or if required redo
    /// has been overwritten without being archived.
    // tidy-entry(recovery)
    pub fn recover_datafile(&mut self, path: &str) -> DbResult<ReplaySummary> {
        self.poll();
        // Media recovery replays redo underneath live row versions; any
        // open transaction would see its uncommitted changes vanish, so
        // all sessions are severed first (their txns roll back).
        self.kill_all_sessions();
        self.flush_redo()?;
        let now = self.clock.now();
        let (file_no, vfs_id) = {
            let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            let file_no = inst.catalog.datafile_by_path(path)?;
            (file_no, datafile(&inst.catalog, file_no)?.vfs_id)
        };
        // Deletion is loud; every other damage is bytes — the file reads
        // fine and only decoding its blocks tells. A file the scan cannot
        // read at all (a deleted one) is damaged by definition.
        let from = if self.scan_for_bad_blocks(vfs_id, path).unwrap_or(true) {
            self.restore_datafile(file_no, vfs_id, path, "lost")?
        } else {
            let control = self.control_ref()?;
            control
                .file_state(file_no)
                .recover_from
                .unwrap_or_else(|| control.effective_checkpoint(now).position)
        };
        let (mut summary, replayed, _) = self.replay(ReplayOpts {
            from,
            available_at: self.clock.now(),
            stop_scn: None,
            only_file: Some(file_no),
        })?;
        // What is still unresolved here is rollback parked on this file
        // (`deferred_undo`); `drain_deferred_undo` below logs it.
        summary.rolled_back = self.roll_back(&replayed.live, false)?;
        // Bring the file online and persist its recovered blocks.
        {
            let st = self.control_mut()?.file_state_mut(file_no);
            st.offline = false;
            st.recover_from = None;
        }
        self.write_dirty_files(&[file_no])?;
        // Only the recovered file's rows may differ from the live indexes.
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        let sets = std::mem::take(&mut inst.indexes);
        self.rederive_indexes(Some(IndexBase { sets, changed: ChangedBlocks::file(file_no) }))?;
        // Rollback work deferred while this file's storage was unreachable
        // can complete now.
        self.drain_deferred_undo();
        self.clock.advance(costs::ADMIN_COMMAND);
        self.completed(RecoveryProcedure::Media, &summary);
        Ok(summary)
    }

    /// Gives every table the index set [`Index::bulk_load`] over its heap
    /// builds, re-deriving it from `base` where that is exact: a table
    /// whose set `base` carries under the same definitions, and whose set
    /// did not drop a duplicated unique key, keeps the entries of its
    /// unchanged blocks and reads only its changed blocks — and keeps the
    /// set itself where those blocks prove it unchanged. Every other
    /// table is rebuilt from a full scan, as is every table when there is
    /// no base. A block that is read and fails its checksum ends recovery
    /// with [`DbError::ChecksumMismatch`] naming it; an unchanged block is
    /// not read, and its damage shows at its first read. In debug builds
    /// each re-derivation is checked against a full rebuild.
    fn rederive_indexes(&mut self, base: Option<IndexBase>) -> DbResult<()> {
        let IndexBase { mut sets, changed } = base.unwrap_or_default();
        let objs: Vec<_> = {
            let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            inst.catalog.tables.keys().copied().collect()
        };
        let mut tables = 0u64;
        let mut entries = 0u64;
        for obj in objs {
            let derived = match sets.remove(&obj) {
                Some(old) => self.rederive_table(obj, old, &changed)?,
                None => None,
            };
            let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            let defs = &inst.catalog.table(obj)?.indexes;
            let (set, rows) = match derived {
                Some(derived) => derived,
                None => {
                    let rows = self.peek_scan(obj)?;
                    (Arc::new(bulk_built(defs, &rows)), rows.len())
                }
            };
            entries += (rows * defs.len()) as u64;
            self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?.indexes.insert(obj, set);
            tables += 1;
        }
        self.events.record(self.clock.now(), EngineEvent::IndexesRebuilt { tables, entries });
        Ok(())
    }

    /// `obj`'s index set re-derived from `old`, which matched the heap
    /// before the blocks `changed` names changed, with the table's row
    /// count; `None` where only a full scan is exact (see
    /// [`DbServer::rederive_indexes`]). `old` itself, shared, where every
    /// index in it is canonical and holds exactly the entries of the rows
    /// those blocks hold now ([`Index::proven_by`]): the usual case, since
    /// a fault that finds no writer open changes no row recovery re-reads.
    ///
    /// In debug builds the result is compared with a full rebuild: over
    /// the blocks that read, plus `old`'s entries on the blocks that do
    /// not, which are never changed ones.
    fn rederive_table(
        &self,
        obj: ObjectId,
        old: Arc<Vec<Index>>,
        changed: &ChangedBlocks,
    ) -> DbResult<Option<(Arc<Vec<Index>>, usize)>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let table = inst.catalog.table(obj)?;
        if old.len() != table.indexes.len()
            || old.iter().zip(&table.indexes).any(|(ix, def)| ix.def() != def)
        {
            return Ok(None);
        }
        let fresh = self.peek_blocks(&mut table.segment.blocks().filter(|&k| changed.contains(k)))?;
        let is_changed = |rid: RowId| changed.contains((rid.file, rid.block));
        // A set whose changed blocks hold exactly the entries it has is
        // already what re-deriving it builds: it is kept, not rebuilt.
        let proven: Option<Vec<usize>> = old.iter().map(|ix| ix.proven_by(is_changed, &fresh)).collect();
        let derived = match proven {
            Some(kept) => (Arc::clone(&old), fresh.len() + kept.first().copied().unwrap_or(0)),
            None => {
                let Some(derived) = rederived(&old, &is_changed, &fresh) else { return Ok(None) };
                derived
            }
        };
        if cfg!(debug_assertions) {
            let (mut fresh, mut unreadable) = (Vec::new(), Vec::new());
            for key in table.segment.blocks() {
                match self.peek_blocks(&mut std::iter::once(key)) {
                    Ok(rows) => fresh.extend(rows),
                    Err(_) => unreadable.push(key),
                }
            }
            let full = rederived(&old, &|rid| !unreadable.contains(&(rid.file, rid.block)), &fresh);
            assert!(
                full.is_some_and(|(set, rows)| rows * set.len() == derived.1 * set.len()
                    && set.iter().zip(derived.0.iter()).all(|(f, d)| f.same_entries(d))),
                "table {obj}: re-derived indexes differ from a full rebuild"
            );
        }
        Ok(Some(derived))
    }

    /// Incomplete point-in-time recovery: restore the whole database from
    /// the cold backup, roll forward to just before `stop_scn`, and open a
    /// new incarnation (`RESETLOGS`). Committed work after the stop point
    /// is lost — that is the price of undoing a committed mistake.
    ///
    /// # Errors
    ///
    /// Fails without a backup, or if the archive chain from the backup is
    /// broken.
    // tidy-entry(recovery)
    pub fn recover_database_until(&mut self, stop_scn: Scn) -> DbResult<ReplaySummary> {
        let backup = self.backup.as_ref().ok_or_else(|| {
            DbError::Unrecoverable("point-in-time recovery requires a backup".into())
        })?;
        let (b_position, b_scn, b_catalog, nominal) =
            (backup.position, backup.scn, Arc::clone(&backup.catalog), backup.nominal_bytes_per_file);
        let files: Vec<_> = b_catalog
            .datafiles
            .iter()
            .filter_map(|(no, df)| Some((*no, df.vfs_id, backup.piece_for(*no)?)))
            .collect();
        // The damaged instance is taken down hard, and the new incarnation
        // starts with no clients and no pending undo: everything after the
        // stop point — including deferred rollbacks — is discarded.
        if self.inst.is_some() {
            self.shutdown_abort()?;
        }
        self.carried_indexes = None;
        self.deferred_undo.clear();
        self.mount(true);
        self.restore(&files, nominal)?;
        // Reset runtime state to the backup's view of the world.
        {
            let now = self.clock.now();
            let control = self.control_mut()?;
            control.file_states.clear();
            control.ts_offline.clear();
            control.checkpoints = vec![CkptRecord {
                position: b_position,
                scn: b_scn,
                complete_at: now,
                catalog: Arc::clone(&b_catalog),
            }];
        }
        let (group, seq, flushed) = {
            let c = self.control_ref()?;
            (c.current_group, c.current_seq, c.current_flushed)
        };
        self.inst = Some(self.fresh_instance((*b_catalog).clone(), b_scn, group, seq, flushed));
        let (mut summary, replayed, _) = self.replay(ReplayOpts {
            from: b_position,
            available_at: self.clock.now(),
            stop_scn: Some(stop_scn),
            only_file: None,
        })?;
        summary.rolled_back = self.roll_back(&replayed.live, false)?;
        let new_seq = self.control_ref()?.seqs.keys().next_back().copied().unwrap_or(0) + 1;
        self.open_resetlogs(replayed.max_scn.max(stop_scn), replayed.max_txn, new_seq)?;
        self.completed(RecoveryProcedure::Incomplete, &summary);
        Ok(summary)
    }

    /// `ALTER DATABASE OPEN RESETLOGS`: discard the online logs, start a
    /// new incarnation at log sequence `new_seq`, with SCNs and
    /// transaction ids clear of everything replayed into it, and open it
    /// ([`DbServer::finalize_open`]).
    // tidy-entry(recovery)
    pub(crate) fn open_resetlogs(&mut self, max_scn: Scn, max_txn: u64, new_seq: u64) -> DbResult<()> {
        self.resume_after(max_scn, max_txn)?;
        let group_files = self.control_ref()?.groups.clone();
        {
            let mut fs = self.fs.lock();
            for id in group_files {
                fs.truncate(id)?;
            }
        }
        let control = self.control_mut()?;
        for loc in control.seqs.values_mut() {
            loc.group = None;
        }
        control.seqs.insert(new_seq, SeqLocation::online(0));
        control.current_group = 0;
        control.current_seq = new_seq;
        control.current_flushed = 0;
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        inst.redo = crate::redo::RedoState::new(0, new_seq, 0);
        self.finalize_open()
    }

    // ------------------------------------------------------------------
    // The steps the procedures share
    // ------------------------------------------------------------------

    /// Starts an instance — no session or lock grant survives the
    /// boundary — charging startup and mount, plus one typed command when
    /// an operator starts the procedure (`admin`): one `InstanceStartup`
    /// span.
    fn mount(&mut self, admin: bool) {
        self.sessions.clear();
        self.lock_grants.clear();
        let began = self.clock.now();
        self.clock.advance(costs::INSTANCE_STARTUP);
        self.clock.advance(costs::MOUNT_OPEN);
        if admin {
            self.clock.advance(costs::ADMIN_COMMAND);
        }
        self.events.record(
            self.clock.now(),
            EngineEvent::PhaseSpan { phase: RecoveryPhase::InstanceStartup, started_at: began },
        );
    }

    /// Copies every `(datafile, its vfs file, backup piece)` of `files` at
    /// once, charging the nominal-size transfer on the backup disk and
    /// the file's disk, and waits for the last copy: one `MediaRestore`
    /// span. The files' cached images are dropped, and a carried index
    /// base counts every block of them as changed.
    fn restore(&mut self, files: &[(FileNo, FileId, FileId)], nominal: u64) -> DbResult<()> {
        let began = self.clock.now();
        let mut done = began;
        {
            let mut fs = self.fs.lock();
            for &(_, vfs_id, piece) in files {
                let copied = fs.restore_into(piece, vfs_id, began)?;
                let file_disk = fs.meta(vfs_id)?.disk;
                let read = fs.charge_io(self.layout.backup_disk, IoKind::Read, nominal, began)?;
                let written = fs.charge_io(file_disk, IoKind::Write, nominal, began)?;
                done = done.max(copied).max(read).max(written);
            }
        }
        self.clock.advance_to(done);
        self.events.record(
            self.clock.now(),
            EngineEvent::PhaseSpan { phase: RecoveryPhase::MediaRestore, started_at: began },
        );
        for &(file_no, ..) in files {
            if let Some(inst) = self.inst.as_mut() {
                inst.cache.invalidate_file(file_no);
            }
            if let Some(base) = self.carried_indexes.as_mut() {
                base.changed.files.push(file_no);
            }
        }
        Ok(())
    }

    /// Ends a replay by rolling its unresolved transactions back: one
    /// `TxnRollback` span if there were any, and their count. Only crash
    /// recovery's rollback is `logged` ([`DbServer::rollback_dead_txns`]):
    /// that log lives on past the crash. Media recovery's leftovers are
    /// rollback parked on its file, which `drain_deferred_undo` logs, and
    /// a new incarnation's log starts empty, so no later replay can cross
    /// the unlogged rollback ([`rollback_unlogged`]); the post-recovery
    /// checkpoint makes it durable.
    fn roll_back(&mut self, unresolved: &BTreeMap<TxnId, Vec<UndoOp>>, logged: bool) -> DbResult<u64> {
        let began = self.clock.now();
        if logged {
            if let Some(base) = self.carried_indexes.as_mut() {
                for undo in unresolved.values().flatten() {
                    base.changed.insert((undo.rid().file, undo.rid().block));
                }
            }
            self.rollback_dead_txns(unresolved)?;
        } else {
            let addr = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?.redo.tail();
            rollback_unlogged(self, unresolved, |srv, key, change| {
                let changed = srv.change_block_for_recovery(key, addr, None, change);
                srv.clock.advance(costs::CPU_APPLY_RECORD);
                changed
            })?;
        }
        let rolled_back = unresolved.values().filter(|ops| !ops.is_empty()).count() as u64;
        if rolled_back > 0 {
            self.events.record(
                self.clock.now(),
                EngineEvent::PhaseSpan { phase: RecoveryPhase::TxnRollback, started_at: began },
            );
        }
        Ok(rolled_back)
    }

    /// Records that `procedure` completed, with what its replay applied
    /// and read.
    fn completed(&mut self, procedure: RecoveryProcedure, summary: &ReplaySummary) {
        self.events.record(
            self.clock.now(),
            EngineEvent::RecoveryCompleted {
                procedure,
                records_applied: summary.applied,
                archives_read: summary.archives_read,
            },
        );
    }

    // ------------------------------------------------------------------
    // The replay engine
    // ------------------------------------------------------------------

    /// Rolls the redo stream forward from `opts.from`. Returns what was
    /// applied and what was learnt on the way — in particular the
    /// transactions left unresolved: how those end is the calling
    /// procedure's decision — and, if the head sequence ends in a torn
    /// record, its group file and where its whole records end. The pass
    /// ends ([`ReplayState::end_pass`]) on every exit, errors included.
    fn replay(&mut self, opts: ReplayOpts) -> DbResult<(ReplaySummary, ReplayState, TornHead)> {
        let mut state = ReplayState::default();
        let scanned = self.replay_pass(opts, &mut state);
        state.end_pass(self);
        let (summary, torn_head) = scanned?;
        Ok((summary, state, torn_head))
    }

    /// [`DbServer::replay`]'s scan and apply, into `state`.
    fn replay_pass(
        &mut self,
        opts: ReplayOpts,
        state: &mut ReplayState,
    ) -> DbResult<(ReplaySummary, TornHead)> {
        let mut summary = ReplaySummary::default();
        let mut torn_head = None;
        let end_seq = self.control_ref()?.current_seq;
        let mut stopped = false;
        for seq in opts.from.seq..=end_seq {
            if stopped {
                break;
            }
            let Some(loc) = self.control_ref()?.seq(seq).cloned() else {
                if seq == opts.from.seq && opts.from.offset == 0 {
                    continue;
                }
                return Err(DbError::Unrecoverable(format!("no record of log seq {seq}")));
            };
            let start_offset = if seq == opts.from.seq { opts.from.offset } else { 0 };
            let scan_began = self.clock.now();
            let (file, from_archive) = if let Some(group) = loc.group {
                let vfs_id = *self.control_ref()?.groups.get(group).ok_or_else(|| {
                    DbError::Unrecoverable(format!("log seq {seq} maps to a missing redo group"))
                })?;
                (vfs_id, false)
            } else if let Some((archive, done_at)) = loc.archive {
                if done_at > opts.available_at {
                    return Err(DbError::Unrecoverable(format!(
                        "log seq {seq} was not archived in time"
                    )));
                }
                self.clock.advance(costs::ARCHIVE_FILE_OVERHEAD);
                summary.archives_read += 1;
                (archive, true)
            } else {
                return Err(DbError::Unrecoverable(format!(
                    "redo for log seq {seq} was overwritten and never archived"
                )));
            };
            let (done, segments) = self.fs.lock().read_from(file, start_offset, self.clock.now())?;
            self.clock.advance_to(done);
            self.events.record(
                self.clock.now(),
                EngineEvent::PhaseSpan { phase: RecoveryPhase::RedoScan, started_at: scan_began },
            );
            let (applied_before, skipped_before) = (summary.applied, summary.skipped);
            let apply_began = self.clock.now();
            let mut reader = RedoReader::new(&segments);
            while let Some(next) = reader.next() {
                // A torn tail on the *current* log is what a crash mid-flush
                // leaves behind: Oracle treats the last intact record as
                // end-of-log and opens anyway. Anywhere earlier in the chain
                // the same damage means lost committed history — unrecoverable.
                let Ok((offset, rec)) = next else {
                    if seq == end_seq {
                        torn_head = Some((file, reader.clean_end()));
                        break;
                    }
                    return Err(DbError::Unrecoverable(format!("log seq {seq} is corrupt")));
                };
                if offset < start_offset {
                    summary.skipped += 1;
                    self.clock.advance(costs::CPU_SKIP_RECORD);
                    continue;
                }
                if opts.stop_scn.is_some_and(|stop| rec.scn >= stop) {
                    stopped = true;
                    break;
                }
                // Markers and dictionary changes concern every file.
                #[allow(unused_mut)]
                let mut skip =
                    matches!((opts.only_file, rec.target_file()), (Some(f), Some(target)) if f != target);
                // Test-only broken-engine mode: silently drop the next armed
                // row-change record, exactly the class of bug the differential
                // oracle exists to catch. Markers are never dropped — a lost
                // commit marker fails loudly (rollback of committed work), a lost
                // row change is the silent corruption we want to prove detectable.
                #[cfg(any(test, feature = "sabotage"))]
                if !skip && self.sabotage_skip_redo > 0 && rec.target_file().is_some() {
                    self.sabotage_skip_redo -= 1;
                    skip = true;
                }
                if skip {
                    state.note(&rec);
                    summary.skipped += 1;
                    self.clock.advance(costs::CPU_SKIP_RECORD);
                    continue;
                }
                if opts.only_file.is_some() && matches!(rec.op, RedoOp::Catalog(_)) {
                    // One file's media recovery runs under the live
                    // dictionary, which already holds every DDL in range.
                    state.note(&rec);
                } else {
                    let addr = RedoAddr { seq, offset };
                    state.note_and_apply(self, &rec, |srv, key, view, change| {
                        srv.change_block_for_recovery(key, addr, view, change)
                    })?;
                }
                summary.applied += 1;
                self.clock.advance(costs::CPU_APPLY_RECORD);
            }
            self.events.record(
                self.clock.now(),
                EngineEvent::PhaseSpan { phase: RecoveryPhase::RedoApply, started_at: apply_began },
            );
            self.events.record(
                self.clock.now(),
                EngineEvent::SequenceReplayed {
                    seq,
                    applied: summary.applied - applied_before,
                    skipped: summary.skipped - skipped_before,
                    archived: from_archive,
                },
            );
        }
        Ok((summary, torn_head))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::config::InstanceConfig;
    use crate::layout::DiskLayout;
    use crate::row::{Row, Value};
    use crate::types::ObjectId;
    use recobench_sim::SimClock;

    fn server(archive: bool) -> DbServer {
        let cfg = InstanceConfig::builder()
            .redo_file_bytes(64 * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(archive)
            .cache_blocks(64)
            .build();
        let mut srv = DbServer::on_fresh_disks("RT", SimClock::shared(), DiskLayout::four_disk(), cfg);
        srv.create_database().unwrap();
        srv
    }

    fn setup_table(srv: &mut DbServer) -> ObjectId {
        srv.create_user("tpcc").unwrap();
        srv.create_tablespace("TPCC", 2, 512).unwrap();
        srv.create_table(
            "T",
            "tpcc",
            "TPCC",
            vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
        )
        .unwrap()
    }

    fn row(k: u64, v: &str) -> Row {
        Row::new(vec![Value::U64(k), Value::from(v)])
    }

    #[test]
    fn crash_recovery_preserves_committed_loses_uncommitted() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s1 = srv.connect().unwrap();
        let rid = srv.insert(s1, t, row(1, "committed")).unwrap();
        srv.commit(s1).unwrap();
        // An uncommitted transaction in flight at crash time.
        let s2 = srv.connect().unwrap();
        let rid2 = srv.insert(s2, t, row(2, "uncommitted")).unwrap();
        // Force its change into durable redo by flushing via another commit.
        let rid3 = srv.insert(s1, t, row(3, "also committed")).unwrap();
        srv.commit(s1).unwrap();

        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();

        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "committed"));
        assert_eq!(srv.get_row(t, rid3).unwrap(), row(3, "also committed"));
        assert!(matches!(srv.get_row(t, rid2), Err(DbError::NoSuchRow(_))),
            "uncommitted insert must be rolled back");
        assert!(srv.lookup(t, 0, &[Value::U64(2)]).unwrap().is_empty());
        assert_eq!(srv.stats().crash_recoveries, 1);
        assert_eq!(srv.peek_scan(t).unwrap().len(), 2);
        assert!(!srv.session_exists(s2), "the crash severed every session");
    }

    #[test]
    fn crash_recovery_is_idempotent_across_repeated_crashes() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        for i in 0..30 {
            srv.insert(s, t, row(i, "x")).unwrap();
            srv.commit(s).unwrap();
        }
        for _ in 0..3 {
            srv.shutdown_abort().unwrap();
            srv.startup().unwrap();
            assert_eq!(srv.peek_scan(t).unwrap().len(), 30);
        }
        // Recovery twice is recovery once, also with a transaction in
        // flight: the first recovery logs its rollback, so a second crash
        // straight after finds it resolved, applies nothing to any block
        // and logs nothing.
        let victim = srv.lookup(t, 0, &[Value::U64(7)]).unwrap()[0];
        let doomed = srv.connect().unwrap();
        srv.update(doomed, t, victim, row(7, "in flight")).unwrap();
        let other = srv.connect().unwrap();
        srv.insert(other, t, row(99, "its commit flushes the doomed update")).unwrap();
        srv.commit(other).unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.get_row(t, victim).unwrap(), row(7, "x"));
        let recovered = srv.peek_scan(t).unwrap();
        assert_eq!(recovered.len(), 31);
        let before = srv.stats();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.stats().blocks_written, before.blocks_written, "second recovery changed a block");
        assert_eq!(srv.stats().redo_records, before.redo_records, "second recovery logged something");
        assert_eq!(srv.peek_scan(t).unwrap(), recovered);
    }

    #[test]
    fn a_replay_crossing_a_crash_keeps_what_was_committed_after_it() {
        // A is in flight (its update flushed by someone else's commit) when
        // the instance dies; after the restart B updates the same row and
        // commits. Point-in-time recovery from the pre-crash backup replays
        // across the crash: it must see A rolled back *there*, not carry
        // A's before-image to the end and put it back over B's value.
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let r = srv.insert(s, t, row(1, "original")).unwrap();
        srv.commit(s).unwrap();
        srv.take_cold_backup().unwrap();
        let a = srv.connect().unwrap();
        srv.update(a, t, r, row(1, "A, never committed")).unwrap();
        let c = srv.connect().unwrap();
        srv.insert(c, t, row(2, "flushes A's record")).unwrap();
        srv.commit(c).unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.get_row(t, r).unwrap(), row(1, "original"));
        let b = srv.connect().unwrap();
        srv.update(b, t, r, row(1, "B, committed")).unwrap();
        srv.commit(b).unwrap();
        let summary = srv.recover_database_until(srv.current_scn().next()).unwrap();
        assert_eq!(srv.get_row(t, r).unwrap(), row(1, "B, committed"));
        assert_eq!(summary.rolled_back, 0, "the crash's rollback is in the log");
    }

    #[test]
    fn crash_with_the_victims_tablespace_offline_still_opens_and_defers_the_undo() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let r = srv.insert(s, t, row(1, "original")).unwrap();
        srv.commit(s).unwrap();
        let a = srv.connect().unwrap();
        srv.update(a, t, r, row(1, "in flight")).unwrap();
        // Offlining flushes the log and checkpoints the tablespace, so the
        // uncommitted update is durable in both.
        srv.offline_tablespace("TPCC").unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.deferred_undo.len(), 1, "the undo waits for its storage");
        assert_eq!(srv.peek_row(t, r).unwrap(), Some(row(1, "in flight")));
        let logged = srv.stats().redo_records;
        srv.online_tablespace("TPCC").unwrap();
        assert!(srv.deferred_undo.is_empty());
        assert_eq!(srv.get_row(t, r).unwrap(), row(1, "original"));
        assert_eq!(srv.stats().redo_records, logged + 2, "one compensation and the Rollback record");
        // The rollback is now in the log: another crash finds nothing live.
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert!(srv.deferred_undo.is_empty());
        assert_eq!(srv.get_row(t, r).unwrap(), row(1, "original"));
    }

    #[test]
    fn scn_never_moves_backwards_across_a_crash_with_nothing_to_replay() {
        // A new incarnation's log is empty, so a crash straight after it
        // replays no record. The SCN allocator must still resume above the
        // checkpoint it restarted from: a lower SCN on the next change
        // makes the *following* crash recovery skip that change as
        // "already in the block".
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let r = srv.insert(s, t, row(1, "v1")).unwrap();
        srv.commit(s).unwrap();
        srv.take_cold_backup().unwrap();
        srv.recover_database_until(srv.current_scn().next()).unwrap();
        let opened_at = srv.current_scn();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert!(srv.current_scn() >= opened_at, "{} < {opened_at}", srv.current_scn());
        let s = srv.connect().unwrap();
        srv.update(s, t, r, row(1, "v2")).unwrap();
        srv.commit(s).unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.get_row(t, r).unwrap(), row(1, "v2"), "a committed update was lost");
    }

    #[test]
    fn crash_recovery_survives_updates_and_deletes() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let a = srv.insert(s, t, row(1, "a")).unwrap();
        let b = srv.insert(s, t, row(2, "b")).unwrap();
        srv.commit(s).unwrap();
        srv.update(s, t, a, row(1, "a-v2")).unwrap();
        srv.delete(s, t, b).unwrap();
        srv.commit(s).unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.get_row(t, a).unwrap(), row(1, "a-v2"));
        assert!(matches!(srv.get_row(t, b), Err(DbError::NoSuchRow(_))));
    }

    #[test]
    fn media_recovery_restores_deleted_datafile() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        // Load some rows, back up, then more committed work. The cold
        // backup severs the first session, so a second one follows it.
        let s = srv.connect().unwrap();
        for i in 0..20 {
            srv.insert(s, t, row(i, "before-backup")).unwrap();
            srv.commit(s).unwrap();
        }
        srv.take_cold_backup().unwrap();
        assert!(!srv.session_exists(s), "cold backup quiesces all clients");
        let s = srv.connect().unwrap();
        for i in 20..40 {
            srv.insert(s, t, row(i, "after-backup")).unwrap();
            srv.commit(s).unwrap();
        }
        let paths = srv.datafile_paths("TPCC").unwrap();
        let victim = paths[0].clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        let summary = srv.recover_datafile(&victim).unwrap();
        assert!(summary.applied > 0);
        // All 40 committed rows visible again.
        assert_eq!(srv.peek_scan(t).unwrap().len(), 40);
        assert_eq!(srv.stats().media_recoveries, 1);
    }

    #[test]
    fn media_recovery_without_backup_fails_when_file_lost() {
        let mut srv = server(true);
        let _t = setup_table(&mut srv);
        let victim = srv.datafile_paths("TPCC").unwrap()[0].clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        let err = srv.recover_datafile(&victim).unwrap_err();
        assert!(matches!(err, DbError::Unrecoverable(_)));
    }

    #[test]
    fn offline_online_datafile_round_trip_with_recovery() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        srv.take_cold_backup().unwrap();
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(1, "x")).unwrap();
        srv.commit(s).unwrap();
        let victim = {
            let inst = srv.inst.as_ref().unwrap();
            inst.catalog.datafiles[&rid.file].path.clone()
        };
        srv.offline_datafile(&victim).unwrap();
        assert!(matches!(srv.get_row(t, rid), Err(DbError::DatafileOffline(_))));
        srv.recover_datafile(&victim).unwrap();
        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "x"));
    }

    #[test]
    fn pitr_undoes_a_committed_drop_and_loses_the_tail() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        for i in 0..10 {
            srv.insert(s, t, row(i, "pre-backup")).unwrap();
            srv.commit(s).unwrap();
        }
        srv.take_cold_backup().unwrap();
        let s = srv.connect().unwrap();
        for i in 10..20 {
            srv.insert(s, t, row(i, "pre-fault")).unwrap();
            srv.commit(s).unwrap();
        }
        let stop = srv.current_scn().next();
        // The operator mistake: a committed DROP TABLE.
        srv.drop_table("T").unwrap();
        // Work committed after the fault (will be lost by PITR).
        let t2 = srv
            .create_table("T2", "tpcc", "TPCC",
                vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }])
            .unwrap();
        srv.insert(s, t2, row(1, "lost")).unwrap();
        srv.commit(s).unwrap();

        let summary = srv.recover_database_until(stop).unwrap();
        assert!(summary.applied > 0);
        // The dropped table is back with all 20 rows.
        let t_again = srv.table_id("T").unwrap();
        assert_eq!(t_again, t);
        assert_eq!(srv.peek_scan(t).unwrap().len(), 20);
        // The post-fault table is gone: its history was sacrificed.
        assert!(srv.table_id("T2").is_err());
        assert_eq!(srv.stats().incomplete_recoveries, 1);
        // The database remains usable in the new incarnation.
        let s = srv.connect().unwrap();
        srv.insert(s, t, row(100, "new-incarnation")).unwrap();
        srv.commit(s).unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 21);
    }

    #[test]
    fn pitr_recovers_a_dropped_tablespace() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        srv.take_cold_backup().unwrap();
        let s = srv.connect().unwrap();
        for i in 0..15 {
            srv.insert(s, t, row(i, "data")).unwrap();
            srv.commit(s).unwrap();
        }
        let stop = srv.current_scn().next();
        srv.drop_tablespace("TPCC").unwrap();
        let summary = srv.recover_database_until(stop).unwrap();
        assert!(summary.applied > 0);
        let t_again = srv.table_id("T").unwrap();
        assert_eq!(srv.peek_scan(t_again).unwrap().len(), 15);
    }

    #[test]
    fn recovery_without_archives_fails_after_log_reuse() {
        let mut srv = server(false); // NOARCHIVELOG
        let t = setup_table(&mut srv);
        srv.take_cold_backup().unwrap();
        // Enough work to cycle all three 64 KiB groups several times.
        let s = srv.connect().unwrap();
        for i in 0..400 {
            srv.insert(s, t, row(i, "spin-the-logs-around-plenty")).unwrap();
            srv.commit(s).unwrap();
        }
        assert!(srv.stats().log_switches > 3);
        let victim = srv.datafile_paths("TPCC").unwrap()[0].clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        let err = srv.recover_datafile(&victim).unwrap_err();
        assert!(
            matches!(err, DbError::Unrecoverable(_)),
            "redo was overwritten without archives; got {err:?}"
        );
    }

    /// An archive in the middle of the chain gains one stray byte after its
    /// group was reused, then the table's datafile is deleted. Media
    /// recovery restores the file once, reads the archive, and refuses with
    /// that sequence's number; the file stays offline. This pins what
    /// happens today; it is not a specification of what should.
    #[test]
    fn a_damaged_archive_mid_chain_ends_media_recovery_with_its_sequence() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        srv.take_cold_backup().unwrap();
        let seq = srv.backup().unwrap().position.seq;
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(0, "first")).unwrap();
        srv.commit(s).unwrap();
        for i in 1..400 {
            srv.insert(s, t, row(i, "spin-the-logs-around-plenty")).unwrap();
            srv.commit(s).unwrap();
        }
        let control = srv.control_ref().unwrap();
        assert!(control.current_seq > seq + 1, "the damaged sequence is not the head");
        assert_eq!(control.seq(seq).unwrap().group, None, "its group was reused");
        let archive = format!("/arch/{}_{seq:06}.arc", srv.name());
        {
            let mut fs = srv.fs.lock();
            let id = fs.lookup(&archive).unwrap();
            fs.append(id, bytes::Bytes::from_static(&[0x5A]), SimTime::ZERO).unwrap();
        }
        let victim = srv.inst.as_ref().unwrap().catalog.datafiles[&rid.file].path.clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        let seen = crate::events::collect(&mut srv.events);

        let err = srv.recover_datafile(&victim);
        assert_eq!(err, Err(DbError::Unrecoverable(format!("log seq {seq} is corrupt"))));
        let phases: Vec<_> = seen
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(_, e)| match e {
                EngineEvent::PhaseSpan { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, [RecoveryPhase::MediaRestore, RecoveryPhase::RedoScan]);
        assert!(srv.control_ref().unwrap().file_state(rid.file).offline);
        assert_eq!(srv.get_row(t, rid), Err(DbError::DatafileOffline(rid.file.0)));
    }

    /// A crash tears the head log inside a record; crash recovery ends the
    /// log at the last whole record. The work committed after the reopen
    /// lands in the same sequence, so once that sequence is archived a
    /// media recovery reads it in the middle of its chain and must find
    /// every acknowledged commit there, not the torn bytes.
    #[test]
    fn commits_after_a_torn_head_survive_media_recovery_through_its_archive() {
        use recobench_vfs::{FaultArm, FileKind, FileMatch};
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        srv.take_cold_backup().unwrap();
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(0, "before the tear")).unwrap();
        srv.commit(s).unwrap();
        let torn_seq = srv.control_ref().unwrap().current_seq;
        let tear = FaultArm::PartialAppend { target: FileMatch::Kind(FileKind::Redo), keep_num: 1, keep_den: 40 };
        srv.fs.lock().arm_fault(tear).unwrap();
        srv.insert(s, t, row(1, "torn, never acknowledged")).unwrap();
        assert!(srv.commit(s).is_err() && !srv.is_open(), "the torn flush aborts the instance");
        srv.fs.lock().clear_faults();
        srv.startup().unwrap();

        let s = srv.connect().unwrap();
        for i in 2..12 {
            srv.insert(s, t, row(i, "acknowledged after the reopen")).unwrap();
            srv.commit(s).unwrap();
        }
        let mut i = 100;
        while srv.control_ref().unwrap().seq(torn_seq).unwrap().group.is_some() {
            srv.insert(s, t, row(i, "spin-the-logs-around-plenty")).unwrap();
            srv.commit(s).unwrap();
            i += 1;
        }
        let victim = srv.inst.as_ref().unwrap().catalog.datafiles[&rid.file].path.clone();
        srv.os_delete_file(&victim).unwrap();
        srv.offline_datafile(&victim).unwrap();
        let summary = srv.recover_datafile(&victim).unwrap();
        assert!(summary.archives_read >= 1, "the torn sequence was read from its archive");
        assert_eq!(srv.peek_scan(t).unwrap().len(), 11 + (i - 100) as usize);
    }

    /// Recovery re-derives only what it changed: after media recovery of
    /// one table's datafile, and after crash recovery of a quiesced
    /// database, a table on an untouched datafile keeps the very index set
    /// it had — and so does the table whose file was recovered, because
    /// the blocks re-read prove its set holds exactly their rows. A silent
    /// fall-back to a rebuild fails here.
    #[test]
    fn recovery_keeps_the_index_set_of_a_table_on_an_untouched_datafile() {
        let mut srv = server(true);
        srv.create_user("app").unwrap();
        srv.create_tablespace("A", 1, 256).unwrap();
        srv.create_tablespace("B", 1, 256).unwrap();
        let pk = || vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }];
        let a = srv.create_table("TA", "app", "A", pk()).unwrap();
        let b = srv.create_table("TB", "app", "B", pk()).unwrap();
        let s = srv.connect().unwrap();
        for i in 0..50 {
            srv.insert(s, a, row(i, "a")).unwrap();
            srv.insert(s, b, row(i, "b")).unwrap();
            srv.commit(s).unwrap();
        }
        srv.take_cold_backup().unwrap();
        let set = |srv: &DbServer, t| Arc::clone(&srv.inst.as_ref().unwrap().indexes[&t]);
        let (booted_a, booted_b) = (set(&srv, a), set(&srv, b));

        let path = srv.datafile_paths("A").unwrap().remove(0);
        srv.recover_datafile(&path).unwrap();
        assert!(Arc::ptr_eq(&set(&srv, b), &booted_b), "media recovery of A's file rebuilt B's set");
        assert!(Arc::ptr_eq(&set(&srv, a), &booted_a), "A's re-read blocks prove its set");
        assert_eq!(srv.lookup(a, 0, &[Value::U64(7)]).unwrap(), booted_a[0].lookup(&[Value::U64(7)]));

        srv.checkpoint_now().unwrap();
        let (quiesced_a, quiesced_b) = (set(&srv, a), set(&srv, b));
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert!(Arc::ptr_eq(&set(&srv, a), &quiesced_a), "crash recovery rebuilt A's set");
        assert!(Arc::ptr_eq(&set(&srv, b), &quiesced_b), "crash recovery rebuilt B's set");
        assert_eq!(srv.peek_scan(b).unwrap().len(), 50);
    }

    /// A change the crash lost forces the rebuild: an uncommitted insert
    /// still in the log buffer at the crash is in the carried index set
    /// but in no block recovery re-reads, so the table gets a new set,
    /// without the key, equal to a bulk load over its heap.
    #[test]
    fn crash_recovery_rebuilds_a_set_whose_change_the_crash_lost() {
        let mut srv = server(true);
        let t = setup_table(&mut srv);
        let s1 = srv.connect().unwrap();
        for i in 0..20 {
            srv.insert(s1, t, row(i, "committed")).unwrap();
        }
        srv.commit(s1).unwrap();
        let s2 = srv.connect().unwrap();
        srv.insert(s2, t, row(99, "lost")).unwrap();
        let carried = Arc::clone(&srv.inst.as_ref().unwrap().indexes[&t]);
        assert_eq!(carried[0].lookup(&[Value::U64(99)]).len(), 1, "the crashed set holds the insert");
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        let set = Arc::clone(&srv.inst.as_ref().unwrap().indexes[&t]);
        assert!(!Arc::ptr_eq(&set, &carried), "the lost insert's block disproves the carried set");
        assert!(srv.lookup(t, 0, &[Value::U64(99)]).unwrap().is_empty());
        let rows = srv.peek_scan(t).unwrap();
        assert_eq!(rows.len(), 20);
        let defs = &srv.inst.as_ref().unwrap().catalog.table(t).unwrap().indexes;
        let built = bulk_built(defs, &rows);
        assert!(set.iter().zip(&built).all(|(s, b)| s.same_entries(b)), "the rebuild equals a bulk load");
    }
}
