//! The database server: one machine running (at most) one instance.
//!
//! [`DbServer`] owns the persistent world — the simulated filesystem, the
//! control file, backups — and the volatile [`Instance`]. Its methods are
//! the union of the interfaces the paper's experiment needs:
//!
//! * the **client** surface (transactions and DML) used by the TPC-C
//!   driver — `session.rs`;
//! * the **administrator** surface (DDL, online/offline, backup) used both
//!   for legitimate administration and — via the fault injector — for
//!   reproducing operator mistakes, and the **OS** surface (deleting files
//!   by path) for mistakes made outside the DBMS — `admin.rs`; startup and
//!   the recovery procedures are `recovery.rs`;
//! * how any of them gets at a datafile block — `blockio.rs`.
//!
//! This file holds the struct itself, construction and accessors, the
//! instance lifecycle (create, shutdown) and the background choreography:
//! DBWR's incremental checkpointing, LGWR, log switches and checkpoints.
//!
//! Every operation advances the shared simulated clock by the CPU and I/O
//! it costs, so the workload driver measures throughput and recovery time
//! simply by reading the clock.

use std::collections::BTreeMap;
use std::sync::Arc;

use recobench_sim::{SimClock, SimTime};
use recobench_vfs::{FileId, FileKind, SharedFs, VfsError};

use crate::backup::BackupSet;
use crate::cache::BufferCache;
use crate::catalog::Catalog;
use crate::checkpoint;
use crate::config::{costs, InstanceConfig, DBWR_TICK};
use crate::controlfile::{CkptRecord, ControlFile, SeqLocation};
use crate::error::{DbError, DbResult};
use crate::instance::Instance;
use crate::layout::DiskLayout;
use crate::recovery::IndexBase;
use crate::redo::{RedoRecord, RedoState};
use crate::events::{EngineEvent, EventSink};
use crate::stats::EngineStats;
use crate::tap::{DmlChange, DmlTap};
use crate::txn::{TxnTable, UndoOp};
use crate::types::{FileNo, RedoAddr, Scn, SessionId, TxnId};

pub use crate::blockio::PeekReader;

/// Cache key alias re-used across the engine.
pub(crate) type BlockKey = (FileNo, u32);

/// Per-session state: the transaction the session currently has open, if
/// any (transactions begin implicitly on the first DML statement).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionState {
    pub(crate) txn: Option<TxnId>,
}

/// A database server (one simulated machine).
#[derive(Debug)]
pub struct DbServer {
    pub(crate) name: String,
    pub(crate) clock: Arc<SimClock>,
    pub(crate) fs: SharedFs,
    pub(crate) layout: DiskLayout,
    pub(crate) config: InstanceConfig,
    pub(crate) control: Option<ControlFile>,
    pub(crate) inst: Option<Instance>,
    pub(crate) backup: Option<BackupSet>,
    pub(crate) stats: EngineStats,
    pub(crate) next_dbwr_tick: SimTime,
    /// True while this server is a stand-by in managed recovery: DML is
    /// rejected and redo arrives only through archive application.
    pub(crate) managed_recovery: bool,
    pub(crate) datafile_total: usize,
    /// Highest transaction id ever issued, so restarts never reuse one
    /// (reuse would confuse replay-time transaction tracking).
    pub(crate) txn_floor: u64,
    pub(crate) backups_taken: u32,
    /// Connected sessions (volatile: an instance crash severs them all).
    /// BTreeMap so drain/abort sweeps run in deterministic id order.
    pub(crate) sessions: BTreeMap<SessionId, SessionState>,
    /// Session id allocator; never reused within a server's lifetime.
    pub(crate) next_session: u64,
    /// Sessions whose pending lock was granted since the last
    /// [`DbServer::take_lock_grants`], with the grant instant — the
    /// workload driver's wake-up list.
    pub(crate) lock_grants: Vec<(SessionId, SimTime)>,
    /// Undo that could not be applied at rollback because its storage was
    /// offline or damaged (per transaction, in original undo order). The
    /// owning transactions have **no** terminal record in the redo stream
    /// yet, so replay still rolls them back; when the storage comes back
    /// without a replay (ONLINE tablespace), the deferred undo is applied
    /// and the transaction resolved then — the engine's version of
    /// Oracle's deferred rollback segments.
    pub(crate) deferred_undo: Vec<(TxnId, Vec<UndoOp>)>,
    /// A crashed instance's index sets and the blocks changed since, from
    /// `shutdown_abort` to the crash recovery that re-derives from them.
    pub(crate) carried_indexes: Option<IndexBase>,
    pub(crate) events: EventSink,
    /// Observer of the acknowledged operation stream (differential
    /// oracles). `None` in normal operation — the write path pays one
    /// branch.
    pub(crate) dml_tap: Option<DmlTap>,
    /// Test-only sabotage: how many more applicable redo records replay
    /// may silently drop. Always zero outside broken-engine tests, and
    /// compiled out entirely unless testing or the `sabotage` feature is
    /// enabled (enforced by the tidy sabotage-isolation lint).
    #[cfg(any(test, feature = "sabotage"))]
    pub(crate) sabotage_skip_redo: u32,
}

impl DbServer {
    /// Creates a server on `fs` with no database yet.
    pub fn new(
        name: &str,
        clock: Arc<SimClock>,
        fs: SharedFs,
        layout: DiskLayout,
        config: InstanceConfig,
    ) -> Self {
        DbServer {
            name: name.to_string(),
            clock,
            fs,
            layout,
            config,
            control: None,
            inst: None,
            backup: None,
            stats: EngineStats::default(),
            next_dbwr_tick: SimTime::MAX,
            managed_recovery: false,
            datafile_total: 0,
            txn_floor: 0,
            backups_taken: 0,
            sessions: BTreeMap::new(),
            next_session: 0,
            lock_grants: Vec::new(),
            deferred_undo: Vec::new(),
            carried_indexes: None,
            events: EventSink::default(),
            dml_tap: None,
            #[cfg(any(test, feature = "sabotage"))]
            sabotage_skip_redo: 0,
        }
    }

    /// Convenience constructor: builds the filesystem from the layout.
    pub fn on_fresh_disks(
        name: &str,
        clock: Arc<SimClock>,
        layout: DiskLayout,
        config: InstanceConfig,
    ) -> Self {
        let fs = recobench_vfs::fs::shared(layout.build_fs(recobench_sim::DiskProfile::server_2000()));
        Self::new(name, clock, fs, layout, config)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The server's name (baked into its redo, archive and backup paths).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The shared filesystem.
    pub fn fs(&self) -> &SharedFs {
        &self.fs
    }

    /// The instance configuration.
    pub fn config(&self) -> &InstanceConfig {
        &self.config
    }

    /// Whether the instance is open for work.
    pub fn is_open(&self) -> bool {
        self.inst.is_some() && !self.managed_recovery
    }

    /// Cumulative engine counters. The six hot-path counters (commits,
    /// rollbacks, redo records and bytes, flushes, block writes) are
    /// maintained directly; every other field is **derived from the event
    /// stream**, so those numbers can never disagree with the events.
    pub fn stats(&self) -> EngineStats {
        let hot = &self.stats;
        EngineStats {
            commits: hot.commits,
            rollbacks: hot.rollbacks,
            redo_records: hot.redo_records,
            redo_bytes: hot.redo_bytes,
            log_flushes: hot.log_flushes,
            blocks_written: hot.blocks_written,
            ..self.events.derived()
        }
    }

    /// The current SCN (zero when the instance is down).
    pub fn current_scn(&self) -> Scn {
        self.inst.as_ref().map_or(Scn::ZERO, |i| i.scn)
    }

    /// Installs an observer of the acknowledged operation stream: every
    /// successful insert/update/delete (keyed by transaction), every
    /// commit (with its SCN) and rollback, and committed drops. Recovery
    /// replay never fires the tap — that is the point: a differential
    /// oracle rebuilds expected state from the tap and checks the
    /// recovered engine against it. Replaces any previous tap.
    pub fn set_dml_tap<F: FnMut(&DmlChange) + Send + 'static>(&mut self, f: F) {
        self.dml_tap = Some(DmlTap(Box::new(f)));
    }

    pub(crate) fn emit_dml(&mut self, change: DmlChange) {
        if let Some(tap) = self.dml_tap.as_mut() {
            (tap.0)(&change);
        }
    }

    /// Test-only sabotage: arms replay to silently drop the next `n`
    /// applicable row-change redo records it would otherwise apply. This
    /// models a subtly broken recovery implementation; the torture
    /// harness's acceptance test proves the differential oracle catches
    /// it. Never use outside tests.
    #[cfg(any(test, feature = "sabotage"))]
    #[doc(hidden)]
    pub fn sabotage_skip_redo_records(&mut self, n: u32) {
        self.sabotage_skip_redo = n;
    }

    /// Test-only sabotage: flips one bit in one written block of the file
    /// at `path` via the vfs bit-rot fault — silent on-disk corruption the
    /// per-block checksum layer must catch. Clean cached frames for the
    /// file are dropped so the next engine read sees the rotted disk image
    /// rather than a stale in-memory copy. Never use outside tests.
    ///
    /// # Errors
    ///
    /// Fails if no live file has this path.
    #[cfg(any(test, feature = "sabotage"))]
    #[doc(hidden)]
    pub fn sabotage_bit_rot(&mut self, path: &str, seed: u64) -> DbResult<()> {
        self.fs.lock().arm_fault(recobench_vfs::FaultArm::BitRot {
            target: recobench_vfs::FileMatch::Path(path.to_string()),
            seed,
        })?;
        if let Some(file_no) =
            self.inst.as_ref().and_then(|i| i.catalog.datafile_by_path(path).ok())
        {
            if let Some(inst) = self.inst.as_mut() {
                inst.cache.invalidate_file(file_no);
            }
        }
        Ok(())
    }

    /// The most recent backup, if one was taken.
    pub fn backup(&self) -> Option<&BackupSet> {
        self.backup.as_ref()
    }

    /// Mutable access to the event sink (log switches, stalls,
    /// checkpoints, archiving, instance lifecycle, recovery phases) — for
    /// registering subscribers.
    pub fn events_mut(&mut self) -> &mut EventSink {
        &mut self.events
    }

    /// Records `event` on this server's sink at the current sim instant.
    /// Used by out-of-crate actors (the fault injector, tests) that act on
    /// the server's behalf.
    pub fn emit(&mut self, event: EngineEvent) {
        self.events.record(self.clock.now(), event);
    }

    pub(crate) fn inst_ref(&self) -> DbResult<&Instance> {
        if self.managed_recovery {
            return Err(DbError::InstanceDown);
        }
        self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)
    }

    pub(crate) fn inst_mut(&mut self) -> DbResult<&mut Instance> {
        if self.managed_recovery {
            return Err(DbError::InstanceDown);
        }
        self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)
    }

    pub(crate) fn control_ref(&self) -> DbResult<&ControlFile> {
        self.control.as_ref().ok_or_else(|| DbError::NotFound("database".into()))
    }

    pub(crate) fn control_mut(&mut self) -> DbResult<&mut ControlFile> {
        self.control.as_mut().ok_or_else(|| DbError::NotFound("database".into()))
    }

    // ------------------------------------------------------------------
    // Database creation and lifecycle
    // ------------------------------------------------------------------

    /// Creates a brand-new database (control file, online redo log groups)
    /// and opens a fresh instance over an empty dictionary.
    ///
    /// # Errors
    ///
    /// Fails if a database already exists on this server.
    pub fn create_database(&mut self) -> DbResult<()> {
        if self.control.is_some() {
            return Err(DbError::AlreadyExists(format!("database {}", self.name)));
        }
        let groups = self.create_redo_groups()?;
        let catalog = Catalog::new();
        let mut control = ControlFile::new(&self.name, groups, Arc::new(catalog.clone()));
        control.clean_shutdown = false;
        self.control = Some(control);
        self.inst = Some(self.fresh_instance(catalog, Scn::ZERO, 0, 1, 0));
        self.clock.advance(costs::MOUNT_OPEN);
        self.next_dbwr_tick = self.clock.now() + DBWR_TICK;
        Ok(())
    }

    /// Creates this server's online redo log groups, one log file each.
    pub(crate) fn create_redo_groups(&self) -> DbResult<Vec<FileId>> {
        let mut fs = self.fs.lock();
        (0..self.config.redo_groups)
            .map(|i| {
                let path = format!("/u03/{}_redo{:02}.log", self.name, i + 1);
                Ok(fs.create_append_file(&path, self.layout.redo_disk, FileKind::Redo)?)
            })
            .collect()
    }

    pub(crate) fn fresh_instance(
        &self,
        catalog: Catalog,
        scn: Scn,
        group: usize,
        seq: u64,
        flushed: u64,
    ) -> Instance {
        let mut txns = TxnTable::new();
        txns.bump_past(self.txn_floor);
        Instance {
            catalog,
            cache: BufferCache::new(self.config.cache_blocks),
            txns,
            locks: crate::txn::LockTable::new(),
            indexes: crate::fasthash::FastMap::default(),
            redo: RedoState::new(group, seq, flushed),
            cursors: crate::fasthash::FastMap::default(),
            scn,
        }
    }

    /// `SHUTDOWN ABORT` / instance kill: drop everything volatile without
    /// writing a byte. Committed work is protected by the flushed redo.
    ///
    /// # Errors
    ///
    /// Fails if the instance is already down.
    pub fn shutdown_abort(&mut self) -> DbResult<()> {
        if self.inst.is_none() {
            return Err(DbError::InstanceDown);
        }
        let now = self.clock.now();
        let control = self.control_mut()?;
        control.stopped_at = Some(now);
        control.clean_shutdown = false;
        self.carried_indexes = self.inst.take().map(IndexBase::carried);
        self.managed_recovery = false;
        self.next_dbwr_tick = SimTime::MAX;
        // Sessions die with the instance; crash recovery rolls their
        // in-flight transactions back from redo, so pending deferred undo
        // is void too.
        self.sessions.clear();
        self.lock_grants.clear();
        self.deferred_undo.clear();
        self.events.record(now, EngineEvent::InstanceStopped { clean: false });
        Ok(())
    }

    /// Orderly shutdown: flush redo, take a full checkpoint, mark the
    /// database clean.
    ///
    /// # Errors
    ///
    /// Fails if the instance is down.
    pub fn shutdown_normal(&mut self) -> DbResult<()> {
        self.inst_ref()?;
        // Drain clients first: in-flight work is rolled back so the clean
        // checkpoint below captures only committed state.
        self.kill_all_sessions();
        self.flush_redo()?;
        let done = self.full_checkpoint()?;
        self.clock.advance_to(done);
        let now = self.clock.now();
        let control = self.control_mut()?;
        control.stopped_at = Some(now);
        control.clean_shutdown = true;
        self.inst = None;
        self.next_dbwr_tick = SimTime::MAX;
        self.events.record(now, EngineEvent::InstanceStopped { clean: true });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Background work (DBWR incremental checkpointing)
    // ------------------------------------------------------------------

    /// Runs any background work due by the current clock. Called
    /// automatically at the start of every foreground operation; the
    /// workload driver also calls it across think-time gaps.
    pub fn poll(&mut self) {
        while self.inst.is_some() && !self.managed_recovery && self.next_dbwr_tick <= self.clock.now()
        {
            let t = self.next_dbwr_tick;
            self.next_dbwr_tick = t + DBWR_TICK;
            // Incremental checkpointing failures are impossible in normal
            // operation; if storage is damaged the write helper skips the
            // affected blocks.
            // tidy-allow(error-swallow): background DBWR tick is best-effort; damaged blocks are retried next tick
            let _ = self.incremental_eval(t);
        }
    }

    fn incremental_eval(&mut self, tick: SimTime) -> DbResult<()> {
        let timeout = self.config.checkpoint_timeout;
        if tick.as_micros() < timeout.as_micros() {
            return Ok(());
        }
        let cutoff = SimTime::from_micros(tick.as_micros() - timeout.as_micros());
        // The oldest-dirty bound is conservative (clears only raise the
        // true minimum), so a tick whose bound is newer than the cutoff
        // can return without scanning or flushing anything.
        let has_old = {
            let inst = match self.inst.as_ref() {
                Some(i) => i,
                None => return Ok(()),
            };
            inst.cache.oldest_dirty_time().is_some_and(|t| t <= cutoff)
        };
        let mut complete_at = tick;
        let mut blocks = 0;
        if has_old {
            self.flush_redo()?;
            let mut fs = self.fs.lock();
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            let out = checkpoint::write_dirty(&mut fs, &inst.catalog, &mut inst.cache, tick, |_, d| {
                d.first_time <= cutoff
            });
            inst.cache.refresh_dirty_bound();
            if out.blocks > 0 {
                blocks = out.blocks;
                complete_at = out.complete_at;
                self.stats.blocks_written += out.blocks;
            }
        }
        if blocks == 0 {
            return Ok(());
        }
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let position = inst.cache.min_dirty_addr().unwrap_or_else(|| inst.redo.tail());
        let scn = inst.scn;
        let snapshot = Arc::new(inst.catalog.clone());
        let control = self.control_mut()?;
        let best = control
            .checkpoints
            .iter()
            .map(|c| c.position)
            .max()
            .unwrap_or(RedoAddr::ZERO);
        if position > best {
            control.add_checkpoint(CkptRecord { position, scn, complete_at, catalog: snapshot });
            self.events.record(tick, EngineEvent::IncrementalAdvance { blocks });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Redo plumbing
    // ------------------------------------------------------------------

    pub(crate) fn append_record(&mut self, rec: &RedoRecord) -> DbResult<RedoAddr> {
        // Optimistic append: encode straight into the log buffer and only
        // fall back to a log switch when the record did not fit (rare).
        let group_bytes = self.config.redo_file_bytes;
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        let (addr, cost) = match inst.redo.buffer_encode_checked(rec, group_bytes) {
            Some(fit) => fit,
            None => {
                self.log_switch()?;
                self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?.redo.buffer_encode(rec)
            }
        };
        self.stats.redo_records += 1;
        self.stats.redo_bytes += cost;
        Ok(addr)
    }

    /// Flushes the redo log buffer to the current online log (LGWR). The
    /// calling foreground operation waits for the write — this is the
    /// commit latency.
    pub(crate) fn flush_redo(&mut self) -> DbResult<()> {
        let now = self.clock.now();
        let (payload, pad, flushed, group_vfs) = {
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            if !inst.redo.has_unflushed() {
                return Ok(());
            }
            let group = inst.redo.current_group;
            let (payload, pad, flushed) = inst.redo.take_buffer();
            let control = self.control.as_ref().ok_or_else(|| DbError::NotFound("database".into()))?;
            let group_vfs = *control
                .groups
                .get(group)
                .ok_or_else(|| DbError::Unrecoverable(format!("redo group {group} missing")))?;
            (payload, pad, flushed, group_vfs)
        };
        let done = {
            let mut fs = self.fs.lock();
            match fs.append_padded(group_vfs, payload, pad, now) {
                Ok((done, ())) => done,
                Err(e) => {
                    drop(fs);
                    // The buffer was already consumed, so the durable log
                    // and the in-memory stream can no longer agree — the
                    // same bind Oracle's LGWR is in when a log write
                    // fails, and the answer is the same: the instance
                    // dies on the spot and crash recovery re-derives the
                    // truth from the durable prefix of the log.
                    // tidy-allow(error-swallow): already aborting; the original log-write error is what propagates
                    let _ = self.shutdown_abort();
                    return Err(DbError::from(e));
                }
            }
        };
        self.clock.advance_to(done);
        let control = self.control_mut()?;
        control.current_flushed = flushed;
        self.stats.log_flushes += 1;
        Ok(())
    }

    /// Performs a log switch: archive the filled sequence, move to the
    /// next group (stalling until it is reusable), and trigger the
    /// switch checkpoint.
    pub(crate) fn log_switch(&mut self) -> DbResult<()> {
        self.flush_redo()?;
        let now = self.clock.now();
        let (old_seq, old_group) = {
            let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            (inst.redo.current_seq, inst.redo.current_group)
        };
        let archive_mode = self.config.archive_mode;
        // Archive the old sequence.
        if archive_mode {
            let fs = Arc::clone(&self.fs);
            let mut fs = fs.lock();
            let control = self.control.as_mut().ok_or_else(|| DbError::NotFound("database".into()))?;
            let archive_disk = self.layout.archive_disk;
            crate::archiver::archive_seq(&mut fs, control, archive_disk, old_seq, now, &mut self.events)?;
        }
        // Find the next group and stall until it is reusable.
        let ngroups = self.control_ref()?.groups.len();
        let ng = (old_group + 1) % ngroups;
        let prev_in_ng: Option<(u64, SimTime)> = {
            let control = self.control_ref()?;
            control
                .seqs
                .iter()
                .filter(|(seq, loc)| loc.group == Some(ng) && **seq != old_seq)
                .map(|(seq, loc)| {
                    let mut ready = loc.released_at.unwrap_or(now);
                    if archive_mode {
                        ready = ready.max(loc.archive.map_or(now, |(_, done)| done));
                    }
                    (*seq, ready)
                })
                .next_back()
        };
        if let Some((prev_seq, ready)) = prev_in_ng {
            if ready > now {
                let stall = ready.saturating_since(now).as_micros();
                self.events.record(now, EngineEvent::SwitchStall { seq: old_seq + 1, micros: stall });
                self.clock.advance_to(ready);
            }
            let control = self.control_mut()?;
            if let Some(loc) = control.seqs.get_mut(&prev_seq) {
                loc.group = None;
            }
        }
        // Reuse the group for the new sequence.
        let new_seq = old_seq + 1;
        {
            let vfs_id = self.control_ref()?.groups[ng];
            self.fs.lock().truncate(vfs_id)?;
            let control = self.control_mut()?;
            control.current_group = ng;
            control.current_seq = new_seq;
            control.current_flushed = 0;
            control.seqs.insert(new_seq, SeqLocation::online(ng));
        }
        {
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            inst.redo.switch_to(ng, new_seq);
        }
        self.events.record(self.clock.now(), EngineEvent::LogSwitch { seq: new_seq, group: ng });
        // Switch checkpoint: write every dirty block; once it completes the
        // old sequence is released for reuse.
        let done = self.full_checkpoint()?;
        let control = self.control_mut()?;
        if let Some(loc) = control.seqs.get_mut(&old_seq) {
            loc.released_at = Some(done);
        }
        Ok(())
    }

    /// Writes all dirty blocks and records a checkpoint at the current log
    /// position. Returns the completion instant (the caller decides whether
    /// to wait on it).
    // tidy-entry(recovery)
    pub(crate) fn full_checkpoint(&mut self) -> DbResult<SimTime> {
        self.flush_redo()?;
        let now = self.clock.now();
        let (out, position, scn, snapshot, crashed) = {
            let mut fs = self.fs.lock();
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            let out = checkpoint::write_dirty(&mut fs, &inst.catalog, &mut inst.cache, now, |_, _| true);
            let position = RedoAddr { seq: inst.redo.current_seq, offset: 0 };
            let crashed = fs.crash_write_fired();
            (out, position, inst.scn, Arc::new(inst.catalog.clone()), crashed)
        };
        self.stats.blocks_written += out.blocks;
        if crashed {
            // The machine died mid-write-out: some blocks never reached
            // disk. Recording this checkpoint would claim they did, so the
            // instance dies instead and crash recovery replays from the
            // previous record.
            // tidy-allow(error-swallow): already aborting; the checkpoint interruption is what propagates
            let _ = self.shutdown_abort();
            return Err(DbError::Media(VfsError::Interrupted("checkpoint write-out".into())));
        }
        if let Some(disk) = out.disk_full {
            // Some dirty blocks never reached disk (ENOSPC) and were kept
            // dirty; advancing the checkpoint past their redo would lose
            // them at the next crash. Keep the old position and surface
            // the condition to the operator.
            return Err(DbError::DiskFull { disk: disk.0 });
        }
        self.events.record(now, out.checkpoint_event());
        let control = self.control_mut()?;
        control.add_checkpoint(CkptRecord {
            position,
            scn,
            complete_at: out.complete_at,
            catalog: snapshot,
        });
        Ok(out.complete_at)
    }

    /// `ALTER SYSTEM CHECKPOINT`: full checkpoint, waiting for completion.
    ///
    /// # Errors
    ///
    /// Fails if the instance is down.
    // tidy-entry(recovery)
    pub fn checkpoint_now(&mut self) -> DbResult<()> {
        self.poll();
        let done = self.full_checkpoint()?;
        self.clock.advance_to(done);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::row::{Row, Value};
    use crate::types::{ObjectId, RowId};

    pub(crate) fn test_server(config: InstanceConfig) -> DbServer {
        let clock = SimClock::shared();
        let layout = DiskLayout::four_disk();
        let mut srv = DbServer::on_fresh_disks("TEST", clock, layout, config);
        srv.create_database().unwrap();
        srv
    }

    pub(crate) fn small_config() -> InstanceConfig {
        InstanceConfig::builder()
            .redo_file_bytes(64 * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(true)
            .cache_blocks(64)
            .build()
    }

    fn setup_table(srv: &mut DbServer) -> ObjectId {
        srv.create_user("tpcc").unwrap();
        srv.create_tablespace("TPCC", 2, 256).unwrap();
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
    fn insert_commit_read_back() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(1, "hello")).unwrap();
        srv.commit(s).unwrap();
        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "hello"));
        assert_eq!(srv.lookup(t, 0, &[Value::U64(1)]).unwrap(), vec![rid]);
        assert_eq!(srv.stats().commits, 1);
        assert!(srv.session_txn_id(s).is_none(), "commit closes the open txn");
    }

    #[test]
    fn rollback_restores_prior_state() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(1, "a")).unwrap();
        srv.commit(s).unwrap();

        srv.update(s, t, rid, row(1, "changed")).unwrap();
        let rid2 = srv.insert(s, t, row(2, "new")).unwrap();
        srv.delete(s, t, rid).unwrap();
        srv.rollback(s).unwrap();

        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "a"));
        assert!(matches!(srv.get_row(t, rid2), Err(DbError::NoSuchRow(_))));
        assert!(srv.lookup(t, 0, &[Value::U64(2)]).unwrap().is_empty());
    }

    /// Transaction states are recycled: whatever the last transaction of a
    /// session held — before-images it rolled back, locks it committed
    /// under — the next one starts with none of it.
    #[test]
    fn a_transaction_starts_empty_after_a_commit_and_after_a_rollback() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(1, "a")).unwrap();
        srv.commit(s).unwrap();
        for end_with_commit in [false, true] {
            srv.update(s, t, rid, row(1, "b")).unwrap();
            srv.update(s, t, rid, row(1, "c")).unwrap();
            if end_with_commit {
                srv.commit(s).unwrap();
            } else {
                srv.rollback(s).unwrap();
            }
            let other = srv.insert(s, t, row(2, "x")).unwrap();
            let txn = srv.session_txn_id(s).unwrap();
            let st = srv.inst.as_mut().unwrap().txns.get_mut(txn).unwrap();
            assert_eq!(st.undo, [UndoOp::UndoInsert { obj: t, rid: other }]);
            assert_eq!(st.locks, [(t, other)]);
            // Rolling this one back takes back its insert and nothing else.
            srv.rollback(s).unwrap();
            assert_eq!(srv.peek_row(t, other).unwrap(), None);
            let kept = if end_with_commit { "c" } else { "a" };
            assert_eq!(srv.get_row(t, rid).unwrap(), row(1, kept));
        }
    }

    #[test]
    fn batched_insert_survives_mid_batch_log_switch_crash() {
        // Enough redo to force at least one log switch while the batch is
        // mid-run: the switch checkpoint writes the target block from the
        // cache, and rows staged but not yet applied to the image must not
        // be lost behind the advanced recovery position.
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let vals: Vec<String> =
            (0..120usize).map(|k| "x".repeat(600 + (k % 11) * 37)).collect();
        let rows: Vec<Row> =
            vals.iter().enumerate().map(|(k, v)| row(k as u64, v)).collect();
        let switches_before = srv.stats().log_switches;
        srv.insert_batch(s, t, &rows).unwrap();
        assert!(
            srv.stats().log_switches > switches_before,
            "the batch must straddle a log switch for this test to bite"
        );
        srv.commit(s).unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(
            srv.peek_scan(t).unwrap().len(),
            rows.len(),
            "crash recovery must replay every batched row"
        );
        for (k, r) in rows.iter().enumerate() {
            let found = srv.lookup(t, 0, &[Value::U64(k as u64)]).unwrap();
            assert_eq!(found.len(), 1, "row {k} lookup");
            assert_eq!(&srv.get_row(t, found[0]).unwrap(), r, "row {k} image");
        }
    }

    #[test]
    fn duplicate_key_rejected_without_side_effects() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        // The unique index holds exactly the committed rows, and nothing
        // else disagrees with the heap.
        let assert_committed = |srv: &DbServer, committed: &[(u64, RowId)]| {
            let report = srv.verify_integrity().unwrap();
            assert!(report.is_clean(), "{:?}", report.violations);
            let pk = &srv.inst.as_ref().unwrap().indexes[&t][0];
            let entries: Vec<Vec<RowId>> = pk.entries().map(|(_, rids)| rids.to_vec()).collect();
            assert_eq!(entries, committed.iter().map(|&(_, rid)| vec![rid]).collect::<Vec<_>>());
            for &(k, rid) in committed {
                assert_eq!(srv.peek_lookup(t, 0, &[Value::U64(k)]).unwrap(), vec![rid]);
            }
        };
        let s = srv.connect().unwrap();
        let first = srv.insert(s, t, row(1, "a")).unwrap();
        let err = srv.insert(s, t, row(1, "dup")).unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
        srv.commit(s).unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 1);
        assert_committed(&srv, &[(1, first)]);

        // A key an open delete vacated is not free: the insert queues
        // behind the deleter's row lock and leaves no index entry behind.
        let second = srv.insert(s, t, row(2, "b")).unwrap();
        srv.commit(s).unwrap();
        let other = srv.connect().unwrap();
        srv.delete(s, t, first).unwrap();
        let err = srv.insert(other, t, row(1, "retaken")).unwrap_err();
        assert!(matches!(err, DbError::LockWait { .. }), "{err:?}");
        assert_eq!(srv.peek_lookup(t, 0, &[Value::U64(1)]).unwrap(), vec![]);
        srv.rollback(other).unwrap();
        srv.rollback(s).unwrap();
        assert_committed(&srv, &[(1, first), (2, second)]);
    }

    /// Rollback puts a row back under every index, even one whose key the
    /// update left in place: on a non-unique key that moves the rid to the
    /// end of the key's list (TPC-C's customer-by-last-name pick reads
    /// that order). A forward update that moves no key leaves the list as
    /// it is.
    #[test]
    fn a_rolled_back_update_moves_its_rid_last_under_a_non_unique_key() {
        let mut srv = test_server(small_config());
        srv.create_user("tpcc").unwrap();
        srv.create_tablespace("TPCC", 2, 256).unwrap();
        let by_name = IndexDef { name: "BY_NAME".into(), cols: vec![1], unique: false, ordered: true };
        let pk = IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true };
        let t = srv.create_table("C", "tpcc", "TPCC", vec![pk, by_name]).unwrap();
        let wide = |k: u64, note: &str| Row::new(vec![Value::U64(k), Value::from("smith"), Value::from(note)]);
        let s = srv.connect().unwrap();
        let [a, b, c] = [1, 2, 3].map(|k| srv.insert(s, t, wide(k, "seed")).unwrap());
        srv.commit(s).unwrap();
        let smiths = |srv: &DbServer| srv.peek_lookup(t, 1, &[Value::from("smith")]).unwrap();
        assert_eq!(smiths(&srv), vec![a, b, c]);

        srv.update(s, t, b, wide(2, "committed")).unwrap();
        srv.commit(s).unwrap();
        assert_eq!(smiths(&srv), vec![a, b, c], "a forward update keeps the order");

        srv.update(s, t, a, wide(1, "rolled back")).unwrap();
        assert_eq!(smiths(&srv), vec![a, b, c]);
        srv.rollback(s).unwrap();
        assert_eq!(smiths(&srv), vec![b, c, a], "the compensation re-inserts the rid last");
        assert_eq!(srv.get_row(t, a).unwrap(), wide(1, "seed"));
        assert!(srv.verify_integrity().unwrap().is_clean());
    }

    #[test]
    fn log_switches_and_checkpoints_happen() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        // 64 KiB logs with ~700-byte records: a few hundred inserts switch
        // several times.
        let s = srv.connect().unwrap();
        for i in 0..200 {
            srv.insert(s, t, row(i, "payload-payload-payload")).unwrap();
            srv.commit(s).unwrap();
        }
        let s = srv.stats();
        assert!(s.log_switches >= 2, "expected switches, got {}", s.log_switches);
        assert!(s.full_checkpoints >= s.log_switches);
        assert!(s.archives_created >= s.log_switches, "archive mode copies every filled log");
        assert!(s.redo_bytes > 64 * 1024);
    }

    #[test]
    fn archive_off_reuses_groups_without_archives() {
        let mut cfg = small_config();
        cfg.archive_mode = false;
        let mut srv = test_server(cfg);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        for i in 0..200 {
            srv.insert(s, t, row(i, "payload-payload-payload")).unwrap();
            srv.commit(s).unwrap();
        }
        let st = srv.stats();
        assert!(st.log_switches >= 2);
        assert_eq!(st.archives_created, 0);
    }

    #[test]
    fn offline_tablespace_blocks_dml_then_online_restores() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(1, "a")).unwrap();
        srv.commit(s).unwrap();

        srv.offline_tablespace("TPCC").unwrap();
        assert!(matches!(srv.get_row(t, rid), Err(DbError::TablespaceOffline(_))));
        assert!(srv.insert(s, t, row(2, "b")).is_err());
        srv.rollback(s).ok();

        srv.online_tablespace("TPCC").unwrap();
        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "a"));
    }

    #[test]
    fn os_delete_surfaces_as_media_error_on_miss() {
        let mut cfg = small_config();
        cfg.cache_blocks = 2; // tiny cache: the block falls out quickly
        let mut srv = test_server(cfg);
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(1, "a")).unwrap();
        srv.commit(s).unwrap();
        let path = {
            let inst = srv.inst.as_ref().unwrap();
            inst.catalog.datafiles[&rid.file].path.clone()
        };
        srv.os_delete_file(&path).unwrap();
        // While the block stays cached the engine is oblivious — exactly
        // like Oracle serving reads from the SGA after an `rm`.
        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "a"));
        // Once the block leaves the cache, the next touch hits the OS error.
        srv.inst.as_mut().unwrap().cache.invalidate_file(rid.file);
        let err = srv.get_row(t, rid);
        assert!(
            matches!(err, Err(DbError::Media(_))),
            "read of a deleted file must fail once uncached, got {err:?}"
        );
    }

    #[test]
    fn drop_table_makes_object_unknown() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        srv.insert(s, t, row(1, "a")).unwrap();
        srv.commit(s).unwrap();
        srv.drop_table("T").unwrap();
        assert!(srv.get_row(t, RowId { file: FileNo(1), block: 0, slot: 0 }).is_err());
        assert!(srv.table_id("T").is_err());
    }

    #[test]
    fn drop_tablespace_removes_files() {
        let mut srv = test_server(small_config());
        let _t = setup_table(&mut srv);
        let paths = srv.datafile_paths("TPCC").unwrap();
        assert_eq!(paths.len(), 2);
        srv.drop_tablespace("TPCC").unwrap();
        let fs = srv.fs.lock();
        for p in paths {
            assert!(fs.lookup(&p).is_err(), "datafile {p} should be gone");
        }
    }

    #[test]
    fn clean_shutdown_and_restart_preserves_data() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, row(7, "persist")).unwrap();
        srv.commit(s).unwrap();
        srv.shutdown_normal().unwrap();
        assert!(!srv.is_open());
        srv.startup().unwrap();
        assert_eq!(srv.get_row(t, rid).unwrap(), row(7, "persist"));
        assert_eq!(srv.lookup(t, 0, &[Value::U64(7)]).unwrap(), vec![rid]);
    }

    #[test]
    fn bulk_load_then_checkpoint_is_durable_across_crash() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let rows: Vec<Row> = (0..50).map(|i| row(i, "loaded")).collect();
        assert_eq!(srv.bulk_load(t, rows).unwrap(), 50);
        srv.checkpoint_now().unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 50);
    }

    #[test]
    fn dml_rejected_while_down() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        srv.shutdown_abort().unwrap();
        assert!(matches!(srv.connect(), Err(DbError::InstanceDown)));
        assert!(matches!(srv.get_row(t, RowId { file: FileNo(1), block: 0, slot: 0 }),
            Err(DbError::InstanceDown)));
    }

    #[test]
    fn dml_on_unknown_session_is_rejected() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let ghost = SessionId(99);
        assert!(matches!(srv.insert(ghost, t, row(1, "x")), Err(DbError::NoSession(_))));
        assert!(matches!(srv.commit(ghost), Err(DbError::NoSession(_))));
        assert!(matches!(srv.rollback(ghost), Err(DbError::NoSession(_))));
    }

    #[test]
    fn commit_and_rollback_without_open_txn_are_noops() {
        let mut srv = test_server(small_config());
        let _t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        srv.commit(s).unwrap();
        srv.rollback(s).unwrap();
        assert_eq!(srv.stats().commits, 0);
        assert_eq!(srv.stats().rollbacks, 0);
    }

    #[test]
    fn disconnect_rolls_back_the_open_txn() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let s = srv.connect().unwrap();
        srv.insert(s, t, row(1, "doomed")).unwrap();
        srv.disconnect(s);
        assert!(!srv.session_exists(s));
        assert!(srv.peek_scan(t).unwrap().is_empty(), "uncommitted work is rolled back");
        assert_eq!(srv.stats().rollbacks, 1);
    }

    #[test]
    fn lock_wait_then_grant_after_commit() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let writer = srv.connect().unwrap();
        let rid = srv.insert(writer, t, row(1, "v1")).unwrap();
        srv.commit(writer).unwrap();

        srv.update(writer, t, rid, row(1, "v2")).unwrap();
        let reader = srv.connect().unwrap();
        let err = srv.update(reader, t, rid, row(1, "v3")).unwrap_err();
        let holder = srv.session_txn_id(writer).unwrap();
        assert_eq!(err, DbError::LockWait { holder });
        // Nothing of the blocked statement took effect.
        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "v2"));

        srv.commit(writer).unwrap();
        let grants = srv.take_lock_grants();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].0, reader);
        // The granted session retries and sees the committed image.
        srv.update(reader, t, rid, row(1, "v3")).unwrap();
        srv.commit(reader).unwrap();
        assert_eq!(srv.get_row(t, rid).unwrap(), row(1, "v3"));
        let st = srv.stats();
        assert_eq!(st.lock_waits, 1);
        assert_eq!(st.lock_grants, 1);
        assert_eq!(st.deadlocks, 0);
    }

    #[test]
    fn deadlock_victim_is_the_requester_and_survivor_completes() {
        let mut srv = test_server(small_config());
        let t = setup_table(&mut srv);
        let setup = srv.connect().unwrap();
        let ra = srv.insert(setup, t, row(1, "a")).unwrap();
        let rb = srv.insert(setup, t, row(2, "b")).unwrap();
        srv.commit(setup).unwrap();

        let s1 = srv.connect().unwrap();
        let s2 = srv.connect().unwrap();
        srv.update(s1, t, ra, row(1, "a1")).unwrap();
        srv.update(s2, t, rb, row(2, "b2")).unwrap();
        assert!(matches!(srv.update(s1, t, rb, row(2, "b1")), Err(DbError::LockWait { .. })));
        let err = srv.update(s2, t, ra, row(1, "a2")).unwrap_err();
        let victim = srv.session_txn_id(s2).unwrap();
        assert!(
            matches!(err, DbError::Deadlock { victim: v, .. } if v == victim),
            "the requester that closed the cycle is the victim, got {err:?}"
        );
        // Victim rolls back; its row lock release unblocks s1.
        srv.rollback(s2).unwrap();
        let grants = srv.take_lock_grants();
        assert_eq!(grants.iter().map(|g| g.0).collect::<Vec<_>>(), vec![s1]);
        srv.update(s1, t, rb, row(2, "b1")).unwrap();
        srv.commit(s1).unwrap();
        assert_eq!(srv.get_row(t, ra).unwrap(), row(1, "a1"));
        assert_eq!(srv.get_row(t, rb).unwrap(), row(2, "b1"));
        assert_eq!(srv.stats().deadlocks, 1);
    }
}
