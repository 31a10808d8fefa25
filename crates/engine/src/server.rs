//! The database server: one machine running (at most) one instance.
//!
//! [`DbServer`] owns the persistent world — the simulated filesystem, the
//! control file, backups — and the volatile [`Instance`]. Its methods are
//! the union of the interfaces the paper's experiment needs:
//!
//! * the **client** surface (transactions and DML) used by the TPC-C
//!   driver;
//! * the **administrator** surface (DDL, startup/shutdown, online/offline,
//!   backup, recovery) used both for legitimate administration and — via
//!   the fault injector — for reproducing operator mistakes;
//! * the **OS** surface (deleting files by path) for mistakes made outside
//!   the DBMS.
//!
//! Every operation advances the shared simulated clock by the CPU and I/O
//! it costs, so the workload driver measures throughput and recovery time
//! simply by reading the clock.

use std::collections::BTreeMap;
use std::sync::Arc;

use recobench_sim::{SimClock, SimTime};
use recobench_vfs::{FileKind, SharedFs, VfsError};

use crate::backup::BackupSet;
use crate::cache::BufferCache;
use crate::catalog::{Catalog, CatalogChange, DatafileDef, IndexDef};
use crate::checkpoint;
use crate::config::InstanceConfig;
use crate::controlfile::{CkptRecord, ControlFile, LogGroup, SeqLocation};
use crate::error::{DbError, DbResult, RecoveryError};
use crate::heap::{plan_extent, PlacementCursor};
use crate::instance::Instance;
use crate::layout::DiskLayout;
use crate::page::BlockImage;
use crate::redo::{RedoOp, RedoRecord, RedoState};
use crate::row::{Row, Value};
use crate::events::{EngineEvent, EventSink};
use crate::stats::EngineStats;
use crate::tap::{DmlChange, DmlTap};
use crate::txn::{LockGrant, LockOutcome, TxnTable, UndoOp};
use crate::types::{FileNo, ObjectId, RedoAddr, RowId, Scn, SessionId, TablespaceId, TxnId, UserId};

/// Cache key alias re-used across the engine.
pub(crate) type BlockKey = (FileNo, u32);

/// Per-session state: the transaction the session currently has open, if
/// any (transactions begin implicitly on the first DML statement).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionState {
    txn: Option<TxnId>,
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
            events: EventSink::new(4096),
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

    /// Cumulative engine counters. The hot-path counters (commits, redo,
    /// flushes, block writes) are maintained directly; everything related
    /// to checkpoints, archiving and recovery is **derived from the event
    /// stream**, so these numbers can never disagree with the events.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        let d = self.events.derived();
        s.log_switches = d.log_switches;
        s.full_checkpoints = d.full_checkpoints;
        s.incremental_advances = d.incremental_advances;
        s.switch_stall_micros = d.switch_stall_micros;
        s.archives_created = d.archives_created;
        s.recovery_records_applied = d.recovery_records_applied;
        s.recovery_records_skipped = d.recovery_records_skipped;
        s.recovery_archives_processed = d.recovery_archives_processed;
        s.crash_recoveries = d.crash_recoveries;
        s.media_recoveries = d.media_recoveries;
        s.incomplete_recoveries = d.incomplete_recoveries;
        s.lock_waits = d.lock_waits;
        s.lock_grants = d.lock_grants;
        s.lock_wait_micros = d.lock_wait_micros;
        s.deadlocks = d.deadlocks;
        s
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

    /// The engine event sink (log switches, stalls, checkpoints,
    /// archiving, instance lifecycle, recovery phases).
    pub fn events(&self) -> &EventSink {
        &self.events
    }

    /// Mutable access to the event sink — for registering subscribers,
    /// raising the retention bound, or clearing the buffer at the start of
    /// a measurement window.
    pub fn events_mut(&mut self) -> &mut EventSink {
        &mut self.events
    }

    /// Records `event` on this server's sink at the current sim instant.
    /// Used by out-of-crate actors (the fault injector, tests) that act on
    /// the server's behalf.
    pub fn emit(&mut self, event: EngineEvent) {
        self.events.record(self.clock.now(), event);
    }

    fn inst_ref(&self) -> DbResult<&Instance> {
        if self.managed_recovery {
            return Err(DbError::InstanceDown);
        }
        self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)
    }

    fn inst_mut(&mut self) -> DbResult<&mut Instance> {
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
        let mut groups = Vec::new();
        {
            let mut fs = self.fs.lock();
            for i in 0..self.config.redo_groups {
                let path = format!("/u03/{}_redo{:02}.log", self.name, i + 1);
                let id = fs.create_append_file(&path, self.layout.redo_disk, FileKind::Redo)?;
                groups.push(LogGroup { path, vfs_id: id });
            }
        }
        let catalog = Catalog::new();
        let mut control = ControlFile::new(&self.name, groups, Arc::new(catalog.clone()));
        control.clean_shutdown = false;
        self.control = Some(control);
        self.inst = Some(self.fresh_instance(catalog, Scn::ZERO, 0, 1, 0));
        self.clock.advance(self.config.costs.mount_open);
        self.next_dbwr_tick = self.clock.now() + self.config.dbwr_tick;
        Ok(())
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
            redo: RedoState::new(group, seq, flushed, self.config.costs.redo_overhead_bytes),
            cursors: crate::fasthash::FastMap::default(),
            scn,
            opened_at: self.clock.now(),
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
        self.inst = None;
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
        let scn = self.current_scn();
        let control = self.control_mut()?;
        control.stopped_at = Some(now);
        control.clean_shutdown = true;
        control.last_scn = scn;
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
            self.next_dbwr_tick = t + self.config.dbwr_tick;
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
        let mut wrote = false;
        if has_old {
            self.flush_redo()?;
            let mut fs = self.fs.lock();
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            let out = checkpoint::write_dirty(&mut fs, &inst.catalog, &mut inst.cache, tick, |_, d| {
                d.first_time <= cutoff
            });
            inst.cache.refresh_dirty_bound();
            if out.blocks > 0 {
                wrote = true;
                complete_at = out.complete_at;
                self.stats.blocks_written += out.blocks;
            }
        }
        if !wrote {
            return Ok(());
        }
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let position = inst.cache.min_dirty_addr().unwrap_or(inst.redo.tail());
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
            self.events.record(tick, EngineEvent::IncrementalAdvance { blocks: 0 });
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
            let group_vfs = control
                .groups
                .get(group)
                .ok_or_else(|| DbError::Unrecoverable(format!("redo group {group} missing")))?
                .vfs_id;
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
        let (old_seq, old_group, old_offset) = {
            let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            (inst.redo.current_seq, inst.redo.current_group, inst.redo.current_offset)
        };
        let archive_mode = self.config.archive_mode;
        // Close the old sequence and archive it.
        {
            let archive_disk = self.layout.archive_disk;
            if let Some(loc) = self.control_mut()?.seqs.get_mut(&old_seq) {
                loc.end_offset = Some(old_offset);
            }
            if archive_mode {
                let fs = Arc::clone(&self.fs);
                let mut fs = fs.lock();
                let control =
                    self.control.as_mut().ok_or_else(|| DbError::NotFound("database".into()))?;
                crate::archiver::archive_seq(
                    &mut fs,
                    control,
                    archive_disk,
                    old_seq,
                    now,
                    &mut self.events,
                )?;
            }
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
                        ready = ready.max(loc.archive_done_at.unwrap_or(now));
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
            let vfs_id = self.control_ref()?.groups[ng].vfs_id;
            self.fs.lock().truncate(vfs_id)?;
            let control = self.control_mut()?;
            control.current_group = ng;
            control.current_seq = new_seq;
            control.current_flushed = 0;
            control.seqs.insert(
                new_seq,
                SeqLocation {
                    group: Some(ng),
                    archive: None,
                    archive_done_at: None,
                    released_at: None,
                    end_offset: None,
                },
            );
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
        control.last_scn = scn;
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

    // ------------------------------------------------------------------
    // Block access
    // ------------------------------------------------------------------

    fn datafile_info(&self, file: FileNo) -> DbResult<(recobench_vfs::FileId, TablespaceId)> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let df = inst
            .catalog
            .datafiles
            .get(&file)
            .ok_or_else(|| DbError::NotFound(format!("datafile {}", file.0)))?;
        Ok((df.vfs_id, df.tablespace))
    }

    /// The datafile's path, for error messages (cold paths only — this
    /// clones the string).
    fn datafile_path(&self, file: FileNo) -> String {
        self.inst
            .as_ref()
            .and_then(|i| i.catalog.datafiles.get(&file))
            .map_or_else(String::new, |df| df.path.clone())
    }

    /// Brings a block into the cache (charging the read on a miss) after
    /// checking availability.
    pub(crate) fn ensure_resident(&mut self, key: BlockKey) -> DbResult<()> {
        // Fast path: the block is resident and no file or tablespace has
        // offline/recovery state (true until an operator fault, which is
        // when `invalidate_file` also drops affected blocks). One cache
        // probe instead of the full availability walk; a miss counts no
        // stat here — the full path below records it.
        if !self.control.as_ref().is_some_and(ControlFile::has_runtime_state) {
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            if inst.cache.probe_mut(key, None).is_some() {
                return Ok(());
            }
        }
        let (_, ts) = self.datafile_info(key.0)?;
        {
            let control = self.control_ref()?;
            if control.file_state(key.0).offline {
                return Err(DbError::DatafileOffline(key.0 .0));
            }
            if control.is_ts_offline(ts) {
                let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
                let name =
                    inst.catalog.tablespaces.get(&ts).map_or_else(String::new, |t| t.name.clone());
                return Err(DbError::TablespaceOffline(name));
            }
        }
        self.ensure_resident_raw(key)
    }

    /// Residency without online/offline checks — recovery applies redo to
    /// files that are administratively offline.
    pub(crate) fn ensure_resident_raw(&mut self, key: BlockKey) -> DbResult<()> {
        let (vfs_id, _) = self.datafile_info(key.0)?;
        {
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            if inst.cache.get(key).is_some() {
                return Ok(());
            }
        }
        // Miss: read from disk.
        let now = self.clock.now();
        let bytes = {
            let mut fs = self.fs.lock();
            let (done, bytes) = fs.read_block(vfs_id, key.1 as u64, now)?;
            drop(fs);
            self.clock.advance_to(done);
            bytes
        };
        let img = match BlockImage::decode(bytes) {
            Ok(img) => img,
            Err(e) => return Err(self.block_decode_failed(key, &e)),
        };
        let evicted = {
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            inst.cache.insert(key, img)
        };
        if let Some(ev) = evicted {
            if ev.dirty.is_some() {
                self.flush_redo()?;
                if let Ok((ev_vfs, _)) = self.datafile_info(ev.key.0) {
                    let now = self.clock.now();
                    let mut fs = self.fs.lock();
                    // tidy-allow(lock-discipline): eviction write-back of a clean-ordered dirty frame; its redo was flushed above
                    match fs.write_block(ev_vfs, ev.key.1 as u64, ev.img.encode(), now) {
                        Ok((done, ())) => {
                            drop(fs);
                            self.clock.advance_to(done);
                            self.stats.blocks_written += 1;
                        }
                        Err(VfsError::DiskFull { disk, .. }) => {
                            // The evicted image exists nowhere once it
                            // leaves the cache; swallowing ENOSPC here
                            // would lose the update. Fail the operation
                            // that forced the eviction instead.
                            return Err(DbError::DiskFull { disk });
                        }
                        Err(_) => {
                            // File gone (operator fault): redo survives,
                            // media recovery replays the change.
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Classifies a block decode failure: a CRC failure surfaces as the
    /// typed [`DbError::ChecksumMismatch`] with an event and a counter
    /// bump; structural garbage keeps the media-corruption shape.
    fn block_decode_failed(&mut self, key: BlockKey, e: &crate::codec::DecodeError) -> DbError {
        let path = self.datafile_path(key.0);
        if e.is_checksum_mismatch() {
            let block = key.1 as u64;
            self.stats.checksum_mismatches += 1;
            self.events.record(
                self.clock.now(),
                EngineEvent::ChecksumMismatch { path: path.clone(), block },
            );
            DbError::ChecksumMismatch { path, block }
        } else {
            DbError::Media(VfsError::Corrupt(path))
        }
    }

    pub(crate) fn with_block<R>(
        &mut self,
        key: BlockKey,
        f: impl FnOnce(&mut BlockImage) -> R,
    ) -> DbResult<R> {
        self.block_access(key, None, f)
    }

    /// [`DbServer::with_block`]; for a change logged at `dirty_at` the frame
    /// is also marked dirty at that address and the current instant — on
    /// the hot path in the same cache probe.
    fn block_access<R>(
        &mut self,
        key: BlockKey,
        dirty_at: Option<RedoAddr>,
        f: impl FnOnce(&mut BlockImage) -> R,
    ) -> DbResult<R> {
        let dirty = dirty_at.map(|addr| (addr, self.clock.now()));
        // Hot path: resident frame, no offline state anywhere — a single
        // cache probe instead of availability checks plus a second lookup.
        if !self.control.as_ref().is_some_and(ControlFile::has_runtime_state) {
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            if let Some(img) = inst.cache.probe_mut(key, dirty) {
                return Ok(f(img));
            }
        }
        self.ensure_resident(key)?;
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        let img = inst
            .cache
            .get_mut(key)
            .ok_or_else(|| RecoveryError::BlockNotResident { file: key.0, block: key.1 })?;
        let out = f(img);
        if let Some((addr, now)) = dirty {
            inst.cache.mark_dirty(key, addr, now);
        }
        Ok(out)
    }

    /// Block change for replay on this machine: ignores offline state, a
    /// miss is foreground I/O (it advances the shared clock), and the frame
    /// is marked dirty at `addr` if `f` reports a change.
    pub(crate) fn change_block_for_recovery(
        &mut self,
        key: BlockKey,
        addr: RedoAddr,
        f: impl FnOnce(&mut BlockImage) -> bool,
    ) -> DbResult<()> {
        self.ensure_resident_raw(key)?;
        let now = self.clock.now();
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        let img = inst
            .cache
            .get_mut(key)
            .ok_or_else(|| RecoveryError::BlockNotResident { file: key.0, block: key.1 })?;
        if f(img) {
            inst.cache.mark_dirty(key, addr, now);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    pub(crate) fn ddl(&mut self, change: CatalogChange) -> DbResult<()> {
        self.poll();
        let scn = self.inst_mut()?.next_scn();
        let rec = RedoRecord { scn, txn: None, op: RedoOp::Catalog(change.clone()) };
        self.append_record(&rec)?;
        self.inst_mut()?.catalog.apply(&change);
        self.flush_redo()?;
        Ok(())
    }

    /// Creates a user.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken or the instance is down.
    pub fn create_user(&mut self, name: &str) -> DbResult<UserId> {
        if self.inst_ref()?.catalog.user_by_name(name).is_ok() {
            return Err(DbError::AlreadyExists(format!("user {name}")));
        }
        let id = self.inst_mut()?.catalog.next_user_id();
        self.ddl(CatalogChange::CreateUser { id, name: name.to_string() })?;
        Ok(id)
    }

    /// Creates a tablespace with `nfiles` datafiles of `blocks_per_file`
    /// blocks each, placed round-robin over the data disks.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken or file creation fails.
    pub fn create_tablespace(
        &mut self,
        name: &str,
        nfiles: u32,
        blocks_per_file: u64,
    ) -> DbResult<TablespaceId> {
        if self.inst_ref()?.catalog.tablespace_by_name(name).is_ok() {
            return Err(DbError::AlreadyExists(format!("tablespace {name}")));
        }
        let id = self.inst_mut()?.catalog.next_tablespace_id();
        self.ddl(CatalogChange::CreateTablespace { id, name: name.to_string() })?;
        for i in 0..nfiles {
            self.add_datafile_to(id, name, i, blocks_per_file)?;
        }
        Ok(id)
    }

    fn add_datafile_to(
        &mut self,
        ts: TablespaceId,
        ts_name: &str,
        index: u32,
        blocks: u64,
    ) -> DbResult<()> {
        let disk = self.layout.data_disk_for(self.datafile_total);
        let path = format!("/u0{}/{}_{:02}.dbf", disk.0 + 1, ts_name.to_lowercase(), index + 1);
        let block_size = self.config.block_size;
        let vfs_id = {
            let mut fs = self.fs.lock();
            fs.create_block_file(&path, disk, FileKind::Data, block_size, blocks)?
        };
        self.datafile_total += 1;
        let file_no = self.inst_mut()?.catalog.next_file_no();
        self.ddl(CatalogChange::AddDatafile {
            file_no,
            def: DatafileDef { path, vfs_id, tablespace: ts, blocks },
        })
    }

    /// Creates a table with its indexes (index 0 is the primary key).
    ///
    /// # Errors
    ///
    /// Fails if the table name is taken, or the user/tablespace is unknown.
    pub fn create_table(
        &mut self,
        name: &str,
        owner: &str,
        tablespace: &str,
        indexes: Vec<IndexDef>,
    ) -> DbResult<ObjectId> {
        let (owner, ts) = {
            let cat = &self.inst_ref()?.catalog;
            if cat.table_by_name(name).is_ok() {
                return Err(DbError::AlreadyExists(format!("table {name}")));
            }
            (cat.user_by_name(owner)?, cat.tablespace_by_name(tablespace)?)
        };
        let id = self.inst_mut()?.catalog.next_object_id();
        self.ddl(CatalogChange::CreateTable {
            id,
            name: name.to_string(),
            owner,
            tablespace: ts,
            indexes: indexes.clone(),
        })?;
        let inst = self.inst_mut()?;
        inst.indexes.insert(id, indexes.into_iter().map(crate::index::Index::new).collect());
        inst.cursors.insert(id, PlacementCursor::new());
        Ok(id)
    }

    /// Drops a table — the "delete user's database object" operator fault
    /// when issued by mistake.
    ///
    /// # Errors
    ///
    /// Fails if the table does not exist.
    pub fn drop_table(&mut self, name: &str) -> DbResult<ObjectId> {
        let id = self.inst_ref()?.catalog.table_by_name(name)?;
        self.ddl(CatalogChange::DropTable { id })?;
        let inst = self.inst_mut()?;
        inst.indexes.remove(&id);
        inst.cursors.remove(&id);
        if self.dml_tap.is_some() {
            let scn = self.current_scn();
            self.emit_dml(DmlChange::DropTable { obj: id, scn });
        }
        Ok(id)
    }

    /// Drops a tablespace *including contents and datafiles* — the "delete
    /// a tablespace" operator fault when aimed at the wrong target.
    ///
    /// # Errors
    ///
    /// Fails if the tablespace does not exist.
    pub fn drop_tablespace(&mut self, name: &str) -> DbResult<()> {
        let (id, files, tables): (TablespaceId, Vec<(FileNo, String)>, Vec<ObjectId>) = {
            let cat = &self.inst_ref()?.catalog;
            let id = cat.tablespace_by_name(name)?;
            let files = cat
                .datafiles
                .iter()
                .filter(|(_, d)| d.tablespace == id)
                .map(|(no, d)| (*no, d.path.clone()))
                .collect();
            let tables =
                cat.tables.iter().filter(|(_, t)| t.tablespace == id).map(|(o, _)| *o).collect();
            (id, files, tables)
        };
        self.ddl(CatalogChange::DropTablespace { id })?;
        let inst = self.inst_mut()?;
        for t in &tables {
            inst.indexes.remove(t);
            inst.cursors.remove(t);
        }
        for (no, _) in &files {
            inst.cache.invalidate_file(*no);
        }
        {
            let mut fs = self.fs.lock();
            for (_, path) in &files {
                // The files may already be damaged; dropping is best-effort.
                // tidy-allow(error-swallow): dropping a tablespace whose files are already damaged must still succeed
                let _ = fs.delete_path(path);
            }
        }
        if self.dml_tap.is_some() {
            let scn = self.current_scn();
            self.emit_dml(DmlChange::DropTablespace { tables, scn });
        }
        self.clock.advance(self.config.costs.admin_command);
        Ok(())
    }

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
            for ix in indexes {
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
        let block_size = self.config.block_size;
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
                        if img.fits(row_len, block_size) { Some(img.next_free_slot()) } else { None }
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
    /// the transaction and table were already validated.
    fn insert_one(&mut self, txn: TxnId, obj: ObjectId, row: Row) -> DbResult<RowId> {
        self.wait_on_vacated_unique(txn, obj, &row)?;
        let (key, slot) = self.find_insert_slot(obj, row.encoded_len())?;
        let rid = RowId { file: key.0, block: key.1, slot };
        // Index insertion doubles as the uniqueness check: each tree
        // descends once and rejects a duplicate before any durable state
        // changes. A failure later on the path unwinds the entries so no
        // index points at a row that never reached its block.
        {
            let inst = self.inst_mut()?;
            if let Some(indexes) = inst.indexes.get_mut(&obj) {
                for i in 0..indexes.len() {
                    if let Err(e) = indexes[i].insert(&row, rid) {
                        let (done, _) = indexes.split_at_mut(i);
                        for ix in done {
                            ix.remove(&row, rid);
                        }
                        return Err(e);
                    }
                }
            }
        }
        let locked = self.lock_for_dml(txn, obj, rid).and_then(|newly| {
            let st = self.inst_mut()?.txns.get_mut(txn)?;
            if newly {
                st.locks.push((obj, rid));
            }
            st.undo.push(UndoOp::UndoInsert { obj, rid });
            Ok(())
        });
        if let Err(e) = locked {
            self.unwind_index_insert(obj, &row, rid);
            return Err(e);
        }
        // The op borrows the row for logging and hands it back afterwards,
        // so the block write is the only clone on this path.
        let (op, logged) = self.log_and_apply(txn, RedoOp::Insert { obj, rid, row });
        let RedoOp::Insert { row, .. } = op else { unreachable!() };
        if let Err(e) = logged {
            self.unwind_index_insert(obj, &row, rid);
            return Err(e);
        }
        if self.dml_tap.is_some() {
            self.emit_dml(DmlChange::Insert { txn, obj, rid, row });
        }
        self.clock.advance(self.config.costs.cpu_per_dml);
        Ok(rid)
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
            let Some(rid) = rec.op.rid() else { return Ok(()) };
            self.block_access((rid.file, rid.block), Some(addr), |img| {
                debug_assert!(img.last_scn < scn, "a new change carries an SCN its block has not seen");
                rec.op.apply_to(img, scn);
            })
        });
        (rec.op, logged)
    }

    /// Acquires the row lock a DML statement needs, recording contention
    /// events. `Ok(true)` means newly acquired (the caller records it on
    /// the transaction); a contended lock queues the transaction and
    /// surfaces as [`DbError::LockWait`] **before any state is mutated**,
    /// so the statement can simply be retried once the lock is granted. A
    /// request that would deadlock is refused: the requester is the victim
    /// and must roll back.
    fn lock_for_dml(&mut self, txn: TxnId, obj: ObjectId, rid: RowId) -> DbResult<bool> {
        let now = self.clock.now();
        match self.inst_mut()?.locks.lock_row(txn, obj, rid, now) {
            LockOutcome::Acquired => Ok(true),
            LockOutcome::AlreadyHeld => Ok(false),
            LockOutcome::Waiting { holder } => {
                self.events.record(now, EngineEvent::LockWait { waiter: txn, holder, obj });
                Err(DbError::LockWait { holder })
            }
            LockOutcome::Deadlock { cycle } => {
                self.events.record(
                    now,
                    EngineEvent::DeadlockVictim { victim: txn, cycle_len: cycle.len() as u64 },
                );
                Err(DbError::Deadlock { victim: txn, cycle })
            }
        }
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
        if let Some((_, rid)) = vacated {
            let newly = self.lock_for_dml(txn, obj, rid)?;
            if newly {
                self.inst_mut()?.txns.get_mut(txn)?.locks.push((obj, rid));
            }
        }
        Ok(())
    }

    /// Best-effort removal of `row`'s index entries after a failed insert.
    fn unwind_index_insert(&mut self, obj: ObjectId, row: &Row, rid: RowId) {
        if let Ok(inst) = self.inst_mut() {
            if let Some(indexes) = inst.indexes.get_mut(&obj) {
                for ix in indexes {
                    ix.remove(row, rid);
                }
            }
        }
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
        // Work out which index keys the update actually moves, once. The
        // common TPC-C updates (stock, customer balances) move none, so
        // both the uniqueness probe and the per-index replace below can
        // skip their key encodes entirely.
        let changed_mask: u64 = match self.inst_ref()?.indexes.get(&obj) {
            Some(ixs) if ixs.len() <= 64 => ixs
                .iter()
                .enumerate()
                .filter(|(_, ix)| ix.key_changed(&before, &row))
                .fold(0, |m, (i, _)| m | (1 << i)),
            Some(_) => u64::MAX,
            None => 0,
        };
        let moves_unique_key = changed_mask != 0
            && self.inst_ref()?.indexes.get(&obj).is_some_and(|ixs| {
                ixs.iter()
                    .enumerate()
                    .any(|(i, ix)| ix.def().unique && changed_mask & (1 << i.min(63)) != 0)
            });
        if moves_unique_key {
            self.check_unique(obj, &row, Some(rid))?;
            self.wait_on_vacated_unique(txn, obj, &row)?;
        }
        // The lock precedes every mutation: a `LockWait` return leaves no
        // trace, so the retried statement re-reads and re-runs cleanly.
        let newly = self.lock_for_dml(txn, obj, rid)?;
        {
            let inst = self.inst_mut()?;
            if newly {
                inst.txns.get_mut(txn)?.locks.push((obj, rid));
            }
            inst.txns.get_mut(txn)?.undo.push(UndoOp::UndoUpdate { obj, rid, before: before.clone() });
        }
        let (op, logged) = self.log_and_apply(txn, RedoOp::Update { obj, rid, before, after: row });
        logged?;
        let RedoOp::Update { before, after: row, .. } = op else { unreachable!() };
        if changed_mask != 0 {
            if let Some(indexes) = self.inst_mut()?.indexes.get_mut(&obj) {
                for (i, ix) in indexes.iter_mut().enumerate() {
                    if changed_mask & (1 << i.min(63)) != 0 {
                        ix.replace(&before, &row, rid)?;
                    }
                }
            }
        }
        if self.dml_tap.is_some() {
            self.emit_dml(DmlChange::Update { txn, obj, rid, row });
        }
        self.clock.advance(self.config.costs.cpu_per_dml);
        Ok(())
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
        let newly = self.lock_for_dml(txn, obj, rid)?;
        {
            let inst = self.inst_mut()?;
            if newly {
                inst.txns.get_mut(txn)?.locks.push((obj, rid));
            }
            inst.txns.get_mut(txn)?.undo.push(UndoOp::UndoDelete { obj, rid, before: before.clone() });
        }
        let (op, logged) = self.log_and_apply(txn, RedoOp::Delete { obj, rid, before });
        logged?;
        let RedoOp::Delete { before, .. } = op else { unreachable!() };
        if let Some(indexes) = self.inst_mut()?.indexes.get_mut(&obj) {
            for ix in indexes {
                ix.remove(&before, rid);
            }
        }
        if self.dml_tap.is_some() {
            self.emit_dml(DmlChange::Delete { txn, obj, rid });
        }
        self.clock.advance(self.config.costs.cpu_per_dml);
        Ok(())
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
        self.clock.advance(self.config.costs.cpu_per_read);
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
        self.clock.advance(self.config.costs.cpu_per_read);
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
        self.clock.advance(self.config.costs.cpu_per_read);
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
        self.clock.advance(self.config.costs.cpu_per_read);
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
        self.clock.advance(self.config.costs.cpu_per_read * (1 + rows.len() as u64));
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
        self.clock.advance(self.config.costs.cpu_per_read);
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
        self.clock.advance(self.config.costs.cpu_per_read);
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
        self.clock.advance(self.config.costs.cpu_commit);
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
        self.clock.advance(self.config.costs.cpu_commit);
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
        let Some(comp) = undo.compensation(current.as_ref()) else { return Ok(()) };
        let (comp, logged) = self.log_and_apply(txn, comp);
        logged?;
        let (obj, gone, back) = match &comp {
            RedoOp::Insert { obj, row, .. } => (obj, None, Some(row)),
            RedoOp::Update { obj, before, after, .. } => (obj, Some(before), Some(after)),
            RedoOp::Delete { obj, before, .. } => (obj, Some(before), None),
            RedoOp::Commit | RedoOp::Rollback | RedoOp::Catalog(_) => return Ok(()),
        };
        if let Some(indexes) = self.inst_mut()?.indexes.get_mut(obj) {
            for ix in indexes {
                if let Some(gone) = gone {
                    ix.remove(gone, rid);
                }
                if let Some(back) = back {
                    let _ = ix.insert(back, rid);
                }
            }
        }
        self.clock.advance(self.config.costs.cpu_per_dml);
        Ok(())
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
            self.block_access(key, Some(addr), |img| op.apply_to(img, scn))?;
            let RedoOp::Insert { row, .. } = op else { unreachable!() };
            if let Some(indexes) = self.inst_mut()?.indexes.get_mut(&obj) {
                for ix in indexes {
                    ix.insert(&row, rid)?;
                }
            }
            n += 1;
            self.clock.advance(self.config.costs.cpu_per_dml / 5);
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Zero-cost inspection (analysis tooling)
    // ------------------------------------------------------------------

    /// Scans a table without charging simulated I/O — for integrity
    /// checkers and lost-transaction audits that must not perturb timing.
    /// Cached (possibly dirty) images take precedence over disk contents.
    ///
    /// # Errors
    ///
    /// Fails if the table is unknown or its storage unreadable.
    pub fn peek_scan(&self, obj: ObjectId) -> DbResult<Vec<(RowId, Row)>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let table = inst.catalog.table(obj)?;
        let fs = self.fs.lock();
        let mut out = Vec::new();
        for (file, block) in table.segment.blocks() {
            let key = (file, block);
            let img_owned;
            let img: &BlockImage = if let Some(frame) = inst.cache_peek(key) {
                frame
            } else {
                let df = inst
                    .catalog
                    .datafiles
                    .get(&file)
                    .ok_or_else(|| DbError::NotFound(format!("datafile {}", file.0)))?;
                let bytes = fs.peek_block(df.vfs_id, block as u64)?;
                img_owned = BlockImage::decode(bytes)
                    .map_err(|e| peek_decode_failed(&e, &df.path, block as u64))?;
                &img_owned
            };
            for (slot, row) in img.iter() {
                out.push((RowId { file, block, slot }, row.clone()));
            }
        }
        Ok(out)
    }

    /// Reads one row without charging simulated time (analysis only).
    /// Cached images take precedence over disk contents.
    ///
    /// # Errors
    ///
    /// Fails if the table or its storage is unreadable.
    pub fn peek_row(&self, obj: ObjectId, rid: RowId) -> DbResult<Option<Row>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        inst.catalog.table(obj)?;
        let key = (rid.file, rid.block);
        if let Some(img) = inst.cache_peek(key) {
            return Ok(img.row(rid.slot).cloned());
        }
        let df = inst
            .catalog
            .datafiles
            .get(&rid.file)
            .ok_or_else(|| DbError::NotFound(format!("datafile {}", rid.file.0)))?;
        let fs = self.fs.lock();
        let bytes = fs.peek_block(df.vfs_id, rid.block as u64)?;
        let img = BlockImage::decode(bytes)
            .map_err(|e| peek_decode_failed(&e, &df.path, rid.block as u64))?;
        Ok(img.row(rid.slot).cloned())
    }

    /// Creates a batched zero-cost row reader that memoizes decoded block
    /// images, for audits that probe many rows clustered in the same
    /// blocks (each uncached block is decoded once per reader, not once
    /// per probe).
    pub fn peek_reader(&self) -> PeekReader<'_> {
        PeekReader { server: self, decoded: crate::fasthash::FastMap::default() }
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

    /// Resolves a table by name (analysis and driver setup).
    ///
    /// # Errors
    ///
    /// Fails if the instance is down or the table is unknown.
    pub fn table_id(&self, name: &str) -> DbResult<ObjectId> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        inst.catalog.table_by_name(name)
    }

    /// Every table currently in the dictionary, with its name (analysis
    /// tooling: the differential oracle walks all of them).
    ///
    /// # Errors
    ///
    /// Fails if the instance is down.
    pub fn tables(&self) -> DbResult<Vec<(ObjectId, String)>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        Ok(inst.catalog.tables.iter().map(|(id, t)| (*id, t.name.clone())).collect())
    }

    // ------------------------------------------------------------------
    // Administrative / operator surface
    // ------------------------------------------------------------------

    /// Takes a cold (consistent) backup: checkpoint, then copy every
    /// datafile to the backup disk together with the dictionary snapshot
    /// and redo position needed to roll forward from it.
    ///
    /// Restore time is dominated by the *nominal* database size (the
    /// paper's full-scale database), charged alongside the real bytes.
    ///
    /// # Errors
    ///
    /// Fails if the instance is down or a copy fails.
    pub fn take_cold_backup(&mut self) -> DbResult<()> {
        self.take_cold_backup_inner(true)
    }

    /// Backgrounded cold backup: the copies keep the disks busy (later
    /// I/O queues behind them) but the caller's timeline is not blocked —
    /// the backup is simply *complete* at a future instant. Used after a
    /// failover, where the new primary must serve clients immediately
    /// while the DBA re-protects it.
    ///
    /// # Errors
    ///
    /// Fails if the instance is down or a copy fails.
    pub fn take_cold_backup_in_background(&mut self) -> DbResult<()> {
        self.take_cold_backup_inner(false)
    }

    fn take_cold_backup_inner(&mut self, advance_clock: bool) -> DbResult<()> {
        self.poll();
        // Cold means cold: no client may be mid-transaction while the
        // datafiles are copied.
        self.kill_all_sessions();
        self.checkpoint_now()?;
        let now = self.clock.now();
        let (files, position, scn, snapshot) = {
            let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            let files: Vec<(FileNo, recobench_vfs::FileId)> =
                inst.catalog.datafiles.iter().map(|(no, d)| (*no, d.vfs_id)).collect();
            (files, inst.redo.tail(), inst.scn, Arc::new(inst.catalog.clone()))
        };
        if files.is_empty() {
            return Err(DbError::BadAdminCommand("nothing to back up".into()));
        }
        let nominal_per_file = self.config.costs.nominal_db_bytes / files.len() as u64;
        let backup_disk = self.layout.backup_disk;
        self.backups_taken += 1;
        let tag = self.backups_taken;
        let mut pieces = std::collections::BTreeMap::new();
        let mut last = now;
        {
            let mut fs = self.fs.lock();
            for (no, vfs_id) in &files {
                let path = format!("/backup/{}_b{}_f{:02}.bak", self.name, tag, no.0);
                let (done, piece) = fs.copy_file(*vfs_id, &path, backup_disk, FileKind::Backup, now)?;
                let src_disk = fs.meta(*vfs_id)?.disk;
                let d1 = fs.charge_io(src_disk, recobench_vfs::IoKind::Read, nominal_per_file, now)?;
                let d2 =
                    fs.charge_io(backup_disk, recobench_vfs::IoKind::Write, nominal_per_file, now)?;
                last = last.max(done).max(d1).max(d2);
                pieces.insert(*no, piece);
            }
        }
        if advance_clock {
            self.clock.advance_to(last);
        }
        let backup = BackupSet {
            taken_at: last,
            position,
            scn,
            catalog: snapshot,
            pieces,
            nominal_bytes_per_file: nominal_per_file,
        };
        self.events.record(last, backup.event());
        self.backup = Some(backup);
        Ok(())
    }

    /// Paths of every archived log currently on disk (fault targeting:
    /// "delete a archive log file").
    pub fn archive_paths(&self) -> Vec<String> {
        let fs = self.fs.lock();
        fs.list(FileKind::Archive)
            .into_iter()
            .filter(|m| !m.deleted)
            .map(|m| m.path)
            .collect()
    }

    /// Forgets the registered backup — the "backups missing to allow
    /// recovery" operator fault. The backup pieces are also deleted at the
    /// OS level, as an operator reclaiming "unused" space would.
    pub fn discard_backup(&mut self) {
        if let Some(b) = self.backup.take() {
            let mut fs = self.fs.lock();
            for piece in b.pieces.values() {
                if let Ok(meta) = fs.meta(*piece) {
                    // tidy-allow(error-swallow): simulates an operator reclaiming space; missing pieces are the faultload
                    let _ = fs.delete_path(&meta.path);
                }
            }
        }
    }

    /// Deletes a file by path at the OS level — the injector's way of
    /// reproducing `rm /u02/tpcc_03.dbf`. The engine only notices when it
    /// next touches the file.
    ///
    /// # Errors
    ///
    /// Fails if no live file has this path.
    pub fn os_delete_file(&mut self, path: &str) -> DbResult<()> {
        self.fs.lock().delete_path(path)?;
        Ok(())
    }

    /// Takes a datafile offline (`ALTER DATABASE DATAFILE ... OFFLINE`).
    /// In ARCHIVELOG mode the file needs media recovery from the current
    /// checkpoint position to come back.
    ///
    /// # Errors
    ///
    /// Fails if the file is unknown or the instance is down.
    pub fn offline_datafile(&mut self, path: &str) -> DbResult<FileNo> {
        self.poll();
        let file_no = self.inst_ref()?.catalog.datafile_by_path(path)?;
        let now = self.clock.now();
        let position = self.control_ref()?.effective_checkpoint(now).position;
        let st = self.control_mut()?.file_state_mut(file_no);
        st.offline = true;
        st.recover_from = Some(position);
        self.clock.advance(self.config.costs.admin_command);
        Ok(file_no)
    }

    /// Takes a tablespace offline (normal): its dirty blocks are
    /// checkpointed first, so it comes back online without recovery.
    ///
    /// # Errors
    ///
    /// Fails if the tablespace is unknown or the instance is down.
    pub fn offline_tablespace(&mut self, name: &str) -> DbResult<TablespaceId> {
        self.poll();
        self.flush_redo()?;
        let ts = self.inst_ref()?.catalog.tablespace_by_name(name)?;
        let done = {
            let mut fs = self.fs.lock();
            let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
            let files: Vec<FileNo> = inst
                .catalog
                .datafiles
                .iter()
                .filter(|(_, d)| d.tablespace == ts)
                .map(|(no, _)| *no)
                .collect();
            let now = self.clock.now();
            let out = checkpoint::write_dirty(&mut fs, &inst.catalog, &mut inst.cache, now, |k, _| {
                files.contains(&k.0)
            });
            self.stats.blocks_written += out.blocks;
            out.complete_at
        };
        self.clock.advance_to(done);
        let control = self.control_mut()?;
        if !control.ts_offline.contains(&ts) {
            control.ts_offline.push(ts);
        }
        self.clock.advance(self.config.costs.admin_command);
        Ok(ts)
    }

    /// Brings a cleanly offlined tablespace back online.
    ///
    /// # Errors
    ///
    /// Fails if the tablespace is unknown.
    pub fn online_tablespace(&mut self, name: &str) -> DbResult<()> {
        self.poll();
        let ts = self.inst_ref()?.catalog.tablespace_by_name(name)?;
        self.control_mut()?.ts_offline.retain(|t| *t != ts);
        // Rollbacks that could not reach this tablespace while it was
        // offline finish now that its blocks are readable again.
        self.drain_deferred_undo();
        self.clock.advance(self.config.costs.admin_command);
        Ok(())
    }

    /// Lists the paths of the datafiles of a tablespace (fault targeting).
    ///
    /// # Errors
    ///
    /// Fails if the tablespace is unknown or the instance is down.
    pub fn datafile_paths(&self, tablespace: &str) -> DbResult<Vec<String>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let ts = inst.catalog.tablespace_by_name(tablespace)?;
        Ok(inst
            .catalog
            .datafiles
            .values()
            .filter(|d| d.tablespace == ts)
            .map(|d| d.path.clone())
            .collect())
    }
}

impl Instance {
    /// Read-only view of a cached block, if resident (no stats, no LRU
    /// effect) — used by the zero-cost inspection paths.
    pub(crate) fn cache_peek(&self, key: BlockKey) -> Option<&BlockImage> {
        // `contains` + `get` would bump stats; peek goes around them.
        self.cache.peek(key)
    }
}

/// Decode-failure classification for the read-only peek paths (no `&mut`
/// access, so no event is recorded; the typed error still distinguishes a
/// CRC failure from structural garbage).
fn peek_decode_failed(e: &crate::codec::DecodeError, path: &str, block: u64) -> DbError {
    if e.is_checksum_mismatch() {
        DbError::ChecksumMismatch { path: path.to_string(), block }
    } else {
        DbError::Media(VfsError::Corrupt(path.to_string()))
    }
}

/// Batched zero-cost row reader (see [`DbServer::peek_reader`]).
///
/// Holds a shared borrow of the server, so the audited state cannot move
/// underneath it, and a memo of blocks it has already decoded from disk.
pub struct PeekReader<'a> {
    server: &'a DbServer,
    decoded: crate::fasthash::FastMap<BlockKey, BlockImage>,
}

impl PeekReader<'_> {
    /// Reads one row without charging simulated time, like
    /// [`DbServer::peek_row`], but decoding each uncached block at most
    /// once for the lifetime of the reader.
    ///
    /// # Errors
    ///
    /// Fails if the table or its storage is unreadable.
    pub fn row(&mut self, obj: ObjectId, rid: RowId) -> DbResult<Option<Row>> {
        let inst = self.server.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        inst.catalog.table(obj)?;
        let key = (rid.file, rid.block);
        // The buffer cache may hold a newer (dirty) image than disk, so it
        // wins over the memo.
        if let Some(img) = inst.cache_peek(key) {
            return Ok(img.row(rid.slot).cloned());
        }
        if let Some(img) = self.decoded.get(&key) {
            return Ok(img.row(rid.slot).cloned());
        }
        let df = inst
            .catalog
            .datafiles
            .get(&rid.file)
            .ok_or_else(|| DbError::NotFound(format!("datafile {}", rid.file.0)))?;
        let bytes = self.server.fs.lock().peek_block(df.vfs_id, rid.block as u64)?;
        let img = BlockImage::decode(bytes)
            .map_err(|e| peek_decode_failed(&e, &df.path, rid.block as u64))?;
        let row = img.row(rid.slot).cloned();
        self.decoded.insert(key, img);
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s = srv.connect().unwrap();
        srv.insert(s, t, row(1, "a")).unwrap();
        let err = srv.insert(s, t, row(1, "dup")).unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { .. }));
        srv.commit(s).unwrap();
        assert_eq!(srv.peek_scan(t).unwrap().len(), 1);
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
