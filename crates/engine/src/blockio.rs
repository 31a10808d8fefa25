//! The one door to a datafile block: every place stored bytes become a
//! [`BlockImage`], and the five decisions made on the way.
//!
//! * **Which datafile is this** — [`datafile`], the dictionary lookup every
//!   fetch, peek and recovery procedure starts from.
//! * **Is it available** — [`unavailable`] says which typed refusal a read
//!   meets while the file or its tablespace is offline; the foreground
//!   fetch returns it, the integrity walk, the health probe and crash
//!   recovery's fractured-block pass skip what it names.
//! * **Fetch it, charged** — [`DbServer::ensure_resident`] and friends:
//!   foreground I/O that advances the shared clock and writes a dirty
//!   victim back behind a redo flush. The stand-by's
//!   [`StandbyServer::mutate_block`] sits beside it and stays separate:
//!   it differs at every step (its docs list them), so one path for both
//!   would branch on the caller at each.
//! * **Read it, uncharged** — [`stored_image`] under `peek_scan`,
//!   `peek_row` and [`PeekReader`]: audits and index rebuilds cost no
//!   simulated time.
//! * **Verify it** — [`checksum_walk`] over every written block of a file,
//!   under `verify_integrity`, `datafiles_with_bad_checksums` and
//!   [`DbServer::scan_for_bad_blocks`].
//!
//! All of them decode through [`decode`], so what a block that fails to
//! decode *means* is said once. No other module calls
//! `BlockImage::decode` or the vfs block reads; the raw piece copy in
//! `StandbyServer::instantiate` moves images between machines without
//! looking inside them.

use std::borrow::Cow;
use std::collections::hash_map::Entry;

use bytes::Bytes;
use recobench_sim::SimTime;
use recobench_vfs::{FileId, IoKind, SimFs, VfsError, VfsResult};

use crate::catalog::{Catalog, DatafileDef};
use crate::controlfile::ControlFile;
use crate::error::{DbError, DbResult, RecoveryError};
use crate::events::EngineEvent;
use crate::instance::Instance;
use crate::page::BlockImage;
use crate::row::Row;
use crate::server::{BlockKey, DbServer};
use crate::standby::StandbyServer;
use crate::types::{FileNo, ObjectId, RedoAddr, RowId, TablespaceId};

/// Which datafile is this: the dictionary entry of `file`.
pub(crate) fn datafile(catalog: &Catalog, file: FileNo) -> DbResult<&DatafileDef> {
    catalog.datafiles.get(&file).ok_or_else(|| DbError::NotFound(format!("datafile {}", file.0)))
}

/// The typed refusal a read of `file` (of tablespace `ts`) meets while the
/// file or its tablespace is offline; `None` if it may be read.
pub(crate) fn unavailable(
    control: &ControlFile,
    catalog: &Catalog,
    file: FileNo,
    ts: TablespaceId,
) -> Option<DbError> {
    if control.file_state(file).offline {
        return Some(DbError::DatafileOffline(file.0));
    }
    if control.is_ts_offline(ts) {
        let name = catalog.tablespaces.get(&ts).map_or_else(String::new, |t| t.name.clone());
        return Some(DbError::TablespaceOffline(name));
    }
    None
}

/// Stored bytes become a [`BlockImage`] here and nowhere else. An image
/// whose CRC does not hold is silent damage, the typed
/// [`DbError::ChecksumMismatch`]; structural garbage behind a valid CRC
/// keeps the media-corruption shape.
fn decode(bytes: Bytes, path: &str, block: u64) -> DbResult<BlockImage> {
    BlockImage::decode(bytes).map_err(|e| {
        if e.is_checksum_mismatch() {
            DbError::ChecksumMismatch { path: path.to_string(), block }
        } else {
            DbError::Media(VfsError::Corrupt(path.to_string()))
        }
    })
}

/// The stored image of a block, verified, read without charging simulated
/// time.
fn stored_image(catalog: &Catalog, fs: &SimFs, key: BlockKey) -> DbResult<BlockImage> {
    let df = datafile(catalog, key.0)?;
    decode(fs.peek_block(df.vfs_id, key.1 as u64)?, &df.path, key.1 as u64)
}

/// What an audit sees of a block: the cached (possibly dirty) frame if it
/// is resident — no stats, no LRU effect — else the stored image.
fn peek<'a>(inst: &'a Instance, fs: &SimFs, key: BlockKey) -> DbResult<Cow<'a, BlockImage>> {
    match inst.cache.peek(key) {
        Some(img) => Ok(Cow::Borrowed(img)),
        None => stored_image(&inst.catalog, fs, key).map(Cow::Owned),
    }
}

/// Outcome of one [`checksum_walk`].
pub(crate) struct ChecksumWalk {
    /// Written blocks whose stored image was verified.
    pub(crate) blocks: u64,
    /// The blocks that failed, in block order, each with what its failure
    /// means.
    pub(crate) bad: Vec<(u64, DbError)>,
}

/// Verifies every written block of one datafile. This is what catches
/// *silent* damage — bit-rot and torn writes leave the vfs metadata
/// pristine; only the per-block checksum knows.
///
/// # Errors
///
/// Loud damage: the vfs refuses the file as a whole (it was deleted).
pub(crate) fn checksum_walk(fs: &SimFs, vfs_id: FileId, path: &str) -> VfsResult<ChecksumWalk> {
    let mut walk = ChecksumWalk { blocks: 0, bad: Vec::new() };
    for (block, bytes) in fs.peek_blocks_written(vfs_id)? {
        walk.blocks += 1;
        if let Err(e) = decode(bytes, path, block) {
            walk.bad.push((block, e));
        }
    }
    Ok(walk)
}

impl DbServer {
    // ------------------------------------------------------------------
    // Block access
    // ------------------------------------------------------------------

    /// Brings a block into the cache (charging the read on a miss) after
    /// checking availability. A function of its own so the miss path is
    /// compiled once: inlined into every instance of the generic
    /// [`DbServer::block_access`], it measured ~3 % slower on the contended
    /// workload.
    pub(crate) fn ensure_resident(&mut self, key: BlockKey) -> DbResult<()> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let ts = datafile(&inst.catalog, key.0)?.tablespace;
        if let Some(refusal) = unavailable(self.control_ref()?, &inst.catalog, key.0, ts) {
            return Err(refusal);
        }
        self.ensure_resident_raw(key)
    }

    /// Residency without online/offline checks — recovery applies redo to
    /// files that are administratively offline.
    pub(crate) fn ensure_resident_raw(&mut self, key: BlockKey) -> DbResult<()> {
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        let df = datafile(&inst.catalog, key.0)?;
        if inst.cache.get(key).is_some() {
            return Ok(());
        }
        // Miss: read from disk.
        let now = self.clock.now();
        let (done, bytes) = self.fs.lock().read_block(df.vfs_id, key.1 as u64, now)?;
        self.clock.advance_to(done);
        let img = match decode(bytes, &df.path, key.1 as u64) {
            Ok(img) => img,
            Err(e) => {
                self.note_checksum_mismatch(&e);
                return Err(e);
            }
        };
        if let Some(ev) = inst.cache.insert(key, img) {
            if ev.dirty.is_some() {
                self.flush_redo()?;
                let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
                if let Ok(ev_df) = datafile(&inst.catalog, ev.key.0) {
                    let now = self.clock.now();
                    let mut fs = self.fs.lock();
                    // tidy-allow(lock-discipline): eviction write-back of a clean-ordered dirty frame; its redo was flushed above
                    match fs.write_block(ev_df.vfs_id, ev.key.1 as u64, ev.img.encode(), now) {
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

    /// The half of a failed decode only a `&mut` path can do: a CRC
    /// failure gets its event, which `stats()` counts. The error itself
    /// comes from [`decode`]; nobody re-derives it.
    fn note_checksum_mismatch(&mut self, e: &DbError) {
        if let DbError::ChecksumMismatch { path, block } = e {
            self.events.record(
                self.clock.now(),
                EngineEvent::ChecksumMismatch { path: path.clone(), block: *block },
            );
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
        // Hot path: resident frame, no offline state anywhere (true until an
        // operator fault, which is when `invalidate_file` also drops the
        // affected blocks) — a single cache probe instead of availability
        // checks plus a second lookup.
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
            let img = peek(inst, &fs, (file, block))?;
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
        let img = peek(inst, &self.fs.lock(), (rid.file, rid.block))?;
        Ok(img.row(rid.slot).cloned())
    }

    /// Creates a batched zero-cost row reader that memoizes decoded block
    /// images, for audits that probe many rows clustered in the same
    /// blocks (each uncached block is decoded once per reader, not once
    /// per probe).
    pub fn peek_reader(&self) -> PeekReader<'_> {
        PeekReader { server: self, decoded: crate::fasthash::FastMap::default() }
    }

    /// The checksum walk on behalf of a recovery procedure: says whether
    /// any written block of the datafile fails to decode (the file needs a
    /// restore), recording each CRC failure. `None` if the vfs refuses the
    /// file as a whole — loud damage, which each procedure treats its own
    /// way.
    pub(crate) fn scan_for_bad_blocks(&mut self, vfs_id: FileId, path: &str) -> Option<bool> {
        let walk = checksum_walk(&self.fs.lock(), vfs_id, path).ok()?;
        for (_, e) in &walk.bad {
            self.note_checksum_mismatch(e);
        }
        Some(!walk.bad.is_empty())
    }
}

impl StandbyServer {
    /// Background block mutation: charges stand-by disk *busy time* but
    /// never advances the shared clock (another machine is doing this
    /// work).
    ///
    /// It stays apart from the foreground fetch
    /// ([`DbServer::ensure_resident`]) because it differs at every step:
    /// - the read is an uncharged `peek_block` plus a `charge_io` at the
    ///   apply instant `at`; the clock never moves;
    /// - a block that fails to decode is `Unrecoverable("stand-by block
    ///   corrupt")`, not a `ChecksumMismatch`, and records no event;
    /// - a dirty victim is written back without a redo flush, every
    ///   write-back error propagates, and `blocks_written` is not counted;
    /// - a block of a file a replayed DDL dropped is skipped.
    pub(crate) fn mutate_block(
        server: &mut DbServer,
        key: BlockKey,
        at: SimTime,
        addr: RedoAddr,
        f: impl FnOnce(&mut BlockImage) -> bool,
    ) -> DbResult<()> {
        let inst = server.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        // The file was dropped by a replayed DDL; skip.
        let Ok(df) = datafile(&inst.catalog, key.0) else { return Ok(()) };
        if !inst.cache.contains(key) {
            let img = {
                let mut fs = server.fs.lock();
                let bytes = fs.peek_block(df.vfs_id, key.1 as u64)?;
                let disk = fs.meta(df.vfs_id)?.disk;
                fs.charge_io(disk, IoKind::Read, bytes.len() as u64, at)?;
                // Nothing to restore a stand-by's own block from: whatever
                // the damage, managed recovery ends here.
                decode(bytes, &df.path, key.1 as u64)
                    .map_err(|_| DbError::Unrecoverable("stand-by block corrupt".into()))?
            };
            if let Some(ev) = inst.cache.insert(key, img) {
                if ev.dirty.is_some() {
                    if let Ok(ev_df) = datafile(&inst.catalog, ev.key.0) {
                        let mut fs = server.fs.lock();
                        // tidy-allow(write-site-coverage): standby redo-apply eviction targets the standby's own fs; the crash sweep drives the primary only
                        fs.write_block(ev_df.vfs_id, ev.key.1 as u64, ev.img.encode(), at)?;
                    }
                }
            }
        }
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
        let server = self.server;
        let inst = server.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        inst.catalog.table(obj)?;
        let key = (rid.file, rid.block);
        // The buffer cache may hold a newer (dirty) image than disk, so it
        // wins over the memo.
        let img = match inst.cache.peek(key) {
            Some(img) => img,
            None => match self.decoded.entry(key) {
                Entry::Occupied(memo) => memo.into_mut(),
                Entry::Vacant(memo) => {
                    memo.insert(stored_image(&inst.catalog, &server.fs.lock(), key)?)
                }
            },
        };
        Ok(img.row(rid.slot).cloned())
    }
}
