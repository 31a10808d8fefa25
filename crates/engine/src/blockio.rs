//! Datafile block I/O: how a stored block becomes a [`BlockImage`].
//!
//! The charged foreground fetch with its eviction write-back, the
//! stand-by's background fetch, the uncharged peeks of the audits and the
//! checksum scan of the recovery procedures.

use recobench_sim::SimTime;
use recobench_vfs::{IoKind, VfsError};

use crate::controlfile::ControlFile;
use crate::error::{DbError, DbResult, RecoveryError};
use crate::events::EngineEvent;
use crate::instance::Instance;
use crate::page::BlockImage;
use crate::row::Row;
use crate::server::{BlockKey, DbServer};
use crate::standby::StandbyServer;
use crate::types::{FileNo, ObjectId, RedoAddr, RowId, TablespaceId};

impl DbServer {
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
    pub(crate) fn block_access<R>(
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

    /// Checksum-walks every written block of a datafile. Returns `true`
    /// if any block fails to decode (the file needs a restore), recording
    /// a [`EngineEvent::ChecksumMismatch`] for each CRC failure.
    pub(crate) fn scan_for_bad_blocks(&mut self, vfs_id: recobench_vfs::FileId, path: &str) -> bool {
        let blocks = {
            let fs = self.fs.lock();
            match fs.peek_blocks_written(vfs_id) {
                Ok(b) => b,
                // Unreadable at the vfs level — damaged by definition.
                Err(_) => return true,
            }
        };
        let mut bad = false;
        for (block, bytes) in blocks {
            if let Err(e) = crate::page::BlockImage::decode(bytes) {
                bad = true;
                if e.is_checksum_mismatch() {
                    self.stats.checksum_mismatches += 1;
                    self.events.record(
                        self.clock.now(),
                        EngineEvent::ChecksumMismatch { path: path.to_string(), block },
                    );
                }
            }
        }
        bad
    }
}

impl StandbyServer {
    /// Background block mutation: charges stand-by disk *busy time* but
    /// never advances the shared clock (another machine is doing this
    /// work).
    pub(crate) fn mutate_block(
        server: &mut DbServer,
        key: (crate::types::FileNo, u32),
        at: SimTime,
        addr: RedoAddr,
        f: impl FnOnce(&mut BlockImage) -> bool,
    ) -> DbResult<()> {
        let vfs_id = {
            let inst = server.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            match inst.catalog.datafiles.get(&key.0) {
                Some(df) => df.vfs_id,
                // The file was dropped by a replayed DDL; skip.
                None => return Ok(()),
            }
        };
        let resident = {
            let inst = server.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            inst.cache.contains(key)
        };
        if !resident {
            let img = {
                let mut fs = server.fs.lock();
                let bytes = fs.peek_block(vfs_id, key.1 as u64)?;
                let disk = fs.meta(vfs_id)?.disk;
                fs.charge_io(disk, IoKind::Read, bytes.len() as u64, at)?;
                BlockImage::decode(bytes)
                    .map_err(|_| DbError::Unrecoverable("stand-by block corrupt".into()))?
            };
            let evicted = {
                let inst = server.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
                inst.cache.insert(key, img)
            };
            if let Some(ev) = evicted {
                if ev.dirty.is_some() {
                    let ev_vfs = {
                        let inst = server.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
                        inst.catalog.datafiles.get(&ev.key.0).map(|d| d.vfs_id)
                    };
                    if let Some(ev_vfs) = ev_vfs {
                        let mut fs = server.fs.lock();
                        // tidy-allow(write-site-coverage): standby redo-apply eviction targets the standby's own fs; the crash sweep drives the primary only
                        fs.write_block(ev_vfs, ev.key.1 as u64, ev.img.encode(), at)?;
                    }
                }
            }
        }
        let inst = server.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        let img = inst
            .cache
            .get_mut(key)
            .ok_or_else(|| RecoveryError::BlockNotResident { file: key.0, block: key.1 })?;
        if f(img) {
            inst.cache.mark_dirty(key, addr, at);
        }
        Ok(())
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
