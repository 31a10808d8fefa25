//! The simulated filesystem: disks and files.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use recobench_sim::disk::IoKind;
use recobench_sim::{Disk, DiskProfile, DiskStats, SimTime};

use crate::error::{VfsError, VfsResult};

/// Identifies one of the simulated spindles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskId(pub usize);

/// Stable handle to a file, valid until the file is purged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// What role a file plays; used for reporting and for targeting faults.
/// These four are everything the engine stores as bytes: its control
/// file, dictionary and backup catalog are structs the server holds
/// outside the fault model (DESIGN §2, §11.1), so they have no kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// A database datafile (block-addressed).
    Data,
    /// An online redo log member (append-only).
    Redo,
    /// An archived redo log (append-only).
    Archive,
    /// A backup piece (a block copy of a datafile).
    Backup,
}

/// Metadata snapshot for a file: what a real filesystem reports about it.
/// Damage to the stored bytes (a torn write, bit rot) is not in it; only
/// decoding the blocks tells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Handle of the file.
    pub id: FileId,
    /// Path-like unique name, e.g. `/u02/tpcc_data01.dbf`.
    pub path: String,
    /// Owning disk.
    pub disk: DiskId,
    /// Role of the file.
    pub kind: FileKind,
    /// Logical size in bytes (blocks × block size, or appended length).
    pub size_bytes: u64,
    /// Whether the file has been deleted by an operator action.
    pub deleted: bool,
}

#[derive(Debug, Clone)]
enum Content {
    /// Sparse block store; absent entries read back as all-zero blocks.
    Blocks { block_size: u32, nblocks: u64, data: BTreeMap<u64, Bytes> },
    /// Append-only byte stream, stored as a list of appended segments.
    Append { segments: Vec<Bytes>, len: u64 },
}

#[derive(Debug, Clone)]
struct FileEntry {
    path: String,
    disk: DiskId,
    kind: FileKind,
    deleted: bool,
    content: Content,
}

impl FileEntry {
    /// The one thing the vfs refuses a file for besides addressing it
    /// wrongly: it is gone. Every other damage is bytes, judged by whoever
    /// decodes them.
    fn check_live(&self) -> VfsResult<()> {
        if self.deleted {
            return Err(VfsError::Deleted(self.path.clone()));
        }
        Ok(())
    }

    fn size_bytes(&self) -> u64 {
        match &self.content {
            Content::Blocks { block_size, nblocks, .. } => *nblocks * *block_size as u64,
            Content::Append { len, .. } => *len,
        }
    }

    fn meta(&self, id: FileId) -> FileMeta {
        FileMeta {
            id,
            path: self.path.clone(),
            disk: self.disk,
            kind: self.kind,
            size_bytes: self.size_bytes(),
            deleted: self.deleted,
        }
    }
}

/// Selects which files a storage fault applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileMatch {
    /// Exactly the live file with this path.
    Path(String),
    /// Any file of this kind.
    Kind(FileKind),
}

impl FileMatch {
    fn matches(&self, path: &str, kind: FileKind) -> bool {
        match self {
            FileMatch::Path(p) => p == path,
            FileMatch::Kind(k) => *k == kind,
        }
    }
}

/// A storage fault armed on the filesystem via [`SimFs::arm_fault`].
///
/// These model the hardware/OS end of the faultload — what a flaky disk or
/// an abrupt power loss does underneath the DBMS — as opposed to the
/// operator's fault injected by path ([`SimFs::delete_path`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultArm {
    /// One-shot **torn block write**: the next block write to a matching
    /// file silently persists only the first `keep_num/keep_den` of the new
    /// image; the rest of the block keeps its previous contents. The caller
    /// is told the write succeeded — only a checksum can catch it.
    TornWrite { target: FileMatch, keep_num: u32, keep_den: u32 },
    /// One-shot **interrupted append**: the next append to a matching file
    /// persists only the first `keep_num/keep_den` of its bytes and then
    /// fails with [`VfsError::Interrupted`] — a torn tail is left on disk
    /// and the caller knows the write did not complete.
    PartialAppend { target: FileMatch, keep_num: u32, keep_den: u32 },
    /// Immediate **silent bit-rot**: flips one bit of one already-written
    /// block of the first matching block file, chosen deterministically
    /// from `seed`. Applied when armed; no error is ever returned by the
    /// filesystem — detection is entirely up to block checksums.
    BitRot { target: FileMatch, seed: u64 },
    /// **Disk full** (`ENOSPC`): after `after_bytes` more bytes are
    /// written to `disk`, every subsequent write to it fails with
    /// [`VfsError::DiskFull`] until the arm is cleared.
    DiskFull { disk: DiskId, after_bytes: u64 },
    /// **Limping disk**: every I/O on `disk` is charged `multiplier` times
    /// its normal service demand (the disk internally retries, so its byte
    /// counters inflate accordingly). A multiplier of 0 or 1 clears it.
    SlowIo { disk: DiskId, multiplier: u32 },
    /// **Crash at a write point**: counting durable writes (block writes
    /// and appends) from the moment of arming, the `nth` one (1-based)
    /// persists only `keep_num/keep_den` of its bytes and fails with
    /// [`VfsError::Interrupted`]; every write after it fails the same way
    /// until [`SimFs::clear_faults`] — the machine is dead. Used by the
    /// crash-at-every-write-point sweep.
    CrashAtWrite { nth: u64, keep_num: u32, keep_den: u32 },
}

/// Armed-fault bookkeeping. Lives on the [`SimFs`] and is cloned with it
/// into snapshots; the snapshot identity hashes file metadata only, so this
/// state never perturbs [`SnapshotId`](crate::SnapshotId)s.
#[derive(Debug, Clone, Default)]
struct FaultState {
    /// Durable-write attempts (block writes + appends) observed over the
    /// filesystem's lifetime; the write-point sweep enumerates sites with
    /// this counter.
    writes_observed: u64,
    torn: Option<(FileMatch, u32, u32)>,
    partial: Option<(FileMatch, u32, u32)>,
    /// Remaining write budget per disk index; once 0, writes fail ENOSPC.
    full: BTreeMap<usize, u64>,
    /// Service-demand multiplier per disk index (absent = 1).
    slow: BTreeMap<usize, u32>,
    /// Writes left until the armed crash fires, plus the tear fraction.
    crash_in: Option<(u64, u32, u32)>,
    crash_fired: bool,
}

impl FaultState {
    /// Debits an ENOSPC budget if one is armed on `disk`.
    fn consume_disk_budget(&mut self, disk: DiskId, bytes: u64, path: &str) -> VfsResult<()> {
        if let Some(rem) = self.full.get_mut(&disk.0) {
            if *rem < bytes {
                *rem = 0;
                return Err(VfsError::DiskFull { disk: disk.0, path: path.to_string() });
            }
            *rem -= bytes;
        }
        Ok(())
    }

    /// Counts down an armed crash point. Returns the tear fraction when
    /// this write is the crash point; errors when the machine is already
    /// dead.
    fn crash_gate(&mut self, path: &str) -> VfsResult<Option<(u32, u32)>> {
        if self.crash_fired {
            return Err(VfsError::Interrupted(path.to_string()));
        }
        if let Some((left, num, den)) = &mut self.crash_in {
            *left -= 1;
            if *left == 0 {
                let frac = (*num, *den);
                self.crash_in = None;
                self.crash_fired = true;
                return Ok(Some(frac));
            }
        }
        Ok(None)
    }
}

/// Fires a one-shot arm (torn write, partial append) if it matches the file
/// written: returns its tear fraction and disarms it; otherwise leaves it.
fn take_one_shot(arm: &mut Option<(FileMatch, u32, u32)>, path: &str, kind: FileKind) -> Option<(u32, u32)> {
    match arm.take() {
        Some((t, num, den)) if t.matches(path, kind) => Some((num, den)),
        other => {
            *arm = other;
            None
        }
    }
}

fn no_such_file(id: FileId) -> VfsError {
    VfsError::NotFound(format!("file #{}", id.0))
}

/// Deterministic 64-bit mixer (splitmix64 finalizer) used to derive fault
/// targets from seeds without a RNG dependency.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fraction `num/den` of `len`, clamped to `len`; `den == 0` keeps nothing.
fn keep_bytes(len: usize, num: u32, den: u32) -> usize {
    if den == 0 {
        return 0;
    }
    ((len as u128 * num as u128 / den as u128) as usize).min(len)
}

/// The simulated filesystem: a set of disks and the files on them.
///
/// ```
/// use recobench_sim::{DiskProfile, SimTime};
/// use recobench_vfs::{FileKind, SimFs};
///
/// let mut fs = SimFs::new(vec![DiskProfile::server_2000()]);
/// let disk = fs.disk_ids()[0];
/// let f = fs.create_block_file("/u01/system01.dbf", disk, FileKind::Data, 8192, 16)?;
/// let (done, _) = fs.write_block(f, 3, vec![7u8; 8192].into(), SimTime::ZERO)?;
/// let (_, img) = fs.read_block(f, 3, done)?;
/// assert_eq!(img[0], 7);
/// # Ok::<(), recobench_vfs::VfsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimFs {
    disks: Vec<Disk>,
    files: BTreeMap<FileId, FileEntry>,
    next_id: u64,
    faults: FaultState,
    /// Caller sites (source file, 1-based line) that invoked a durable
    /// write entry point (`write_block` / `append` / `append_padded`),
    /// captured via `#[track_caller]`. Feeds the write-site coverage
    /// manifest that tidy's `write-site-coverage` lint checks against
    /// the static write sites; deliberately NOT reset by
    /// [`SimFs::clear_faults`], so sites observed before a crash survive
    /// the recovery run.
    write_sites: BTreeSet<(&'static str, u32)>,
}

impl SimFs {
    /// Creates a filesystem with one disk per profile.
    pub fn new(profiles: Vec<DiskProfile>) -> Self {
        SimFs {
            disks: profiles.into_iter().map(Disk::new).collect(),
            files: BTreeMap::new(),
            next_id: 1,
            faults: FaultState::default(),
            write_sites: BTreeSet::new(),
        }
    }

    /// Handles of all disks, in creation order.
    pub fn disk_ids(&self) -> Vec<DiskId> {
        (0..self.disks.len()).map(DiskId).collect()
    }

    /// Cumulative I/O counters for `disk`.
    ///
    /// # Errors
    ///
    /// Fails if `disk` does not exist.
    pub fn disk_stats(&self, disk: DiskId) -> VfsResult<DiskStats> {
        self.disks.get(disk.0).map(|d| d.stats()).ok_or_else(|| VfsError::DiskUnavailable(disk.0))
    }

    fn disk_mut(&mut self, disk: DiskId) -> VfsResult<&mut Disk> {
        self.disks.get_mut(disk.0).ok_or_else(|| VfsError::DiskUnavailable(disk.0))
    }

    /// Allocates the next id for a live file at `path` holding `content`.
    fn add_file(&mut self, path: &str, disk: DiskId, kind: FileKind, content: Content) -> FileId {
        let id = FileId(self.next_id);
        self.next_id += 1;
        let entry = FileEntry { path: path.to_string(), disk, kind, deleted: false, content };
        self.files.insert(id, entry);
        id
    }

    fn entry(&self, id: FileId) -> VfsResult<&FileEntry> {
        self.files.get(&id).ok_or_else(|| no_such_file(id))
    }

    fn entry_mut(&mut self, id: FileId) -> VfsResult<&mut FileEntry> {
        self.files.get_mut(&id).ok_or_else(|| no_such_file(id))
    }

    fn check_path_free(&self, path: &str) -> VfsResult<()> {
        let exists = self.files.values().any(|f| f.path == path && !f.deleted);
        if exists {
            Err(VfsError::AlreadyExists(path.to_string()))
        } else {
            Ok(())
        }
    }

    /// Creates a block-addressed file of `nblocks` blocks of `block_size`
    /// bytes. Blocks read back as zeroes until written.
    ///
    /// # Errors
    ///
    /// Fails if the path is taken or the disk does not exist.
    pub fn create_block_file(
        &mut self,
        path: &str,
        disk: DiskId,
        kind: FileKind,
        block_size: u32,
        nblocks: u64,
    ) -> VfsResult<FileId> {
        self.check_path_free(path)?;
        if disk.0 >= self.disks.len() {
            return Err(VfsError::DiskUnavailable(disk.0));
        }
        Ok(self.add_file(path, disk, kind, Content::Blocks { block_size, nblocks, data: BTreeMap::new() }))
    }

    /// Creates an empty append-only file.
    ///
    /// # Errors
    ///
    /// Fails if the path is taken or the disk does not exist.
    pub fn create_append_file(&mut self, path: &str, disk: DiskId, kind: FileKind) -> VfsResult<FileId> {
        self.check_path_free(path)?;
        if disk.0 >= self.disks.len() {
            return Err(VfsError::DiskUnavailable(disk.0));
        }
        Ok(self.add_file(path, disk, kind, Content::Append { segments: Vec::new(), len: 0 }))
    }

    /// The stored image of one block (all zeros if never written) and the
    /// disk and block size a charged read of it costs.
    fn block_image(&self, id: FileId, block: u64) -> VfsResult<(DiskId, u64, Bytes)> {
        let e = self.entry(id)?;
        e.check_live()?;
        match &e.content {
            Content::Blocks { block_size, nblocks, data } => {
                if block >= *nblocks {
                    return Err(VfsError::OutOfRange { file: e.path.clone(), block, blocks: *nblocks });
                }
                let img = data
                    .get(&block)
                    .cloned()
                    .unwrap_or_else(|| Bytes::from(vec![0u8; *block_size as usize]));
                Ok((e.disk, *block_size as u64, img))
            }
            Content::Append { .. } => Err(VfsError::WrongAccessStyle(e.path.clone())),
        }
    }

    /// Reads one block. Returns the completion instant and the block image.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted, not block-addressed, or the
    /// index is out of range.
    pub fn read_block(&mut self, id: FileId, block: u64, now: SimTime) -> VfsResult<(SimTime, Bytes)> {
        let (disk, bytes, img) = self.block_image(id, block)?;
        let done = self.charge(disk, IoKind::Read, bytes, false, now)?;
        Ok((done, img))
    }

    /// Writes one block. Returns the completion instant.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted, not block-addressed, or the
    /// index is out of range.
    #[track_caller]
    pub fn write_block(
        &mut self,
        id: FileId,
        block: u64,
        image: Bytes,
        now: SimTime,
    ) -> VfsResult<(SimTime, ())> {
        self.note_write_site();
        let e = self.files.get_mut(&id).ok_or_else(|| no_such_file(id))?;
        e.check_live()?;
        let (disk, path, kind) = (e.disk, e.path.as_str(), e.kind);
        let Content::Blocks { block_size, nblocks, data } = &mut e.content else {
            return Err(VfsError::WrongAccessStyle(e.path.clone()));
        };
        if block >= *nblocks {
            return Err(VfsError::OutOfRange { file: e.path.clone(), block, blocks: *nblocks });
        }
        let bytes = *block_size as u64;
        self.faults.writes_observed += 1;
        let crash = self.faults.crash_gate(path)?;
        self.faults.consume_disk_budget(disk, bytes, path)?;
        let tear = crash.or_else(|| take_one_shot(&mut self.faults.torn, path, kind));
        let persisted = match tear {
            None => image,
            Some((num, den)) => {
                // The prefix of the new image lands; the tail of whatever
                // was on the platter before survives underneath it.
                let k = keep_bytes(image.len(), num, den);
                // tidy-allow(panic-freedom): keep_bytes clamps k to image.len()
                let mut buf = image[..k].to_vec();
                if let Some(old) = data.get(&block).filter(|old| old.len() > k) {
                    buf.extend_from_slice(&old[k..]);
                }
                Bytes::from(buf)
            }
        };
        data.insert(block, persisted);
        let interrupted = crash.map(|_| VfsError::Interrupted(path.to_string()));
        let done = self.charge(disk, IoKind::Write, bytes, false, now)?;
        interrupted.map_or(Ok((done, ())), Err)
    }

    /// Appends `data` to an append-only file (sequential write).
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or not append-only.
    #[track_caller]
    pub fn append(&mut self, id: FileId, data: Bytes, now: SimTime) -> VfsResult<(SimTime, ())> {
        // `#[track_caller]` is transitive: the inner call records the
        // caller of `append`, not this line.
        self.append_padded(id, data, 0, now)
    }

    /// Appends `data` plus `pad` additional accounting-only bytes.
    ///
    /// The pad inflates the file's logical length and the charged I/O time
    /// but carries no information (the engine uses it to model block-level
    /// redo change vectors without materialising filler). Reads charge the
    /// padded length and return only the informative bytes.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or not append-only.
    #[track_caller]
    pub fn append_padded(
        &mut self,
        id: FileId,
        data: Bytes,
        pad: u64,
        now: SimTime,
    ) -> VfsResult<(SimTime, ())> {
        self.note_write_site();
        let e = self.files.get_mut(&id).ok_or_else(|| no_such_file(id))?;
        e.check_live()?;
        let (disk, path, kind) = (e.disk, e.path.as_str(), e.kind);
        let Content::Append { segments, len } = &mut e.content else {
            return Err(VfsError::WrongAccessStyle(e.path.clone()));
        };
        let n = data.len() as u64 + pad;
        self.faults.writes_observed += 1;
        let crash = self.faults.crash_gate(path)?;
        let partial =
            if crash.is_none() { take_one_shot(&mut self.faults.partial, path, kind) } else { None };
        let tear = crash.or(partial);
        self.faults.consume_disk_budget(disk, n, path)?;
        let (persist, charged) = match tear {
            None => (data, n),
            Some((num, den)) => {
                // The write stops `num/den` of the way through the padded
                // span; only the informative bytes inside the kept prefix
                // reach the platter.
                let k = keep_bytes(n as usize, num, den) as u64;
                (data.slice(0..k.min(data.len() as u64) as usize), k)
            }
        };
        *len += charged;
        if !persist.is_empty() {
            segments.push(persist);
        }
        let interrupted = tear.map(|_| VfsError::Interrupted(path.to_string()));
        let done = self.charge(disk, IoKind::Write, charged.max(1), true, now)?;
        interrupted.map_or(Ok((done, ())), Err)
    }

    /// Reads an append-only file starting at logical byte `offset`
    /// (sequential read charged for `len - offset` bytes). The returned
    /// segments are the *complete* informative contents — callers that need
    /// to skip the prefix do so while decoding; only the I/O charge honours
    /// the offset.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or not append-only.
    pub fn read_from(&mut self, id: FileId, offset: u64, now: SimTime) -> VfsResult<(SimTime, Vec<Bytes>)> {
        let (disk, bytes, segs) = {
            let e = self.entry(id)?;
            e.check_live()?;
            match &e.content {
                Content::Append { segments, len } => {
                    (e.disk, len.saturating_sub(offset), segments.clone())
                }
                Content::Blocks { .. } => return Err(VfsError::WrongAccessStyle(e.path.clone())),
            }
        };
        let done = self.charge(disk, IoKind::Read, bytes, true, now)?;
        Ok((done, segs))
    }

    /// Zero-cost inspection of one block, for analysis tooling (integrity
    /// checkers, index rebuild) that must not perturb the simulated timing.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or the index is out of range.
    pub fn peek_block(&self, id: FileId, block: u64) -> VfsResult<Bytes> {
        self.block_image(id, block).map(|(_, _, img)| img)
    }

    /// Zero-cost enumeration of every written block of a block file (for
    /// machine-to-machine transfers such as stand-by instantiation).
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or not block-addressed.
    pub fn peek_blocks_written(&self, id: FileId) -> VfsResult<Vec<(u64, Bytes)>> {
        let e = self.entry(id)?;
        e.check_live()?;
        match &e.content {
            Content::Blocks { data, .. } => Ok(data.iter().map(|(b, img)| (*b, img.clone())).collect()),
            Content::Append { .. } => Err(VfsError::WrongAccessStyle(e.path.clone())),
        }
    }

    /// Zero-cost inspection of an append-only file's contents.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or not append-only.
    pub fn peek_all(&self, id: FileId) -> VfsResult<Vec<Bytes>> {
        let e = self.entry(id)?;
        e.check_live()?;
        match &e.content {
            Content::Append { segments, .. } => Ok(segments.clone()),
            Content::Blocks { .. } => Err(VfsError::WrongAccessStyle(e.path.clone())),
        }
    }

    /// Charges `bytes` of synthetic sequential I/O on `disk` without
    /// touching any file. Used to model volume the scaled database does not
    /// materialise (e.g. restoring the nominal-size database from backup).
    ///
    /// # Errors
    ///
    /// Fails if the disk does not exist.
    pub fn charge_io(&mut self, disk: DiskId, kind: IoKind, bytes: u64, now: SimTime) -> VfsResult<SimTime> {
        self.charge(disk, kind, bytes, true, now)
    }

    /// Truncates an append-only file to empty (instantaneous metadata op).
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or not append-only.
    pub fn truncate(&mut self, id: FileId) -> VfsResult<()> {
        self.truncate_to(id, 0, 0)
    }

    /// Cuts an append-only file back to its first `stored` stored bytes
    /// and a logical length of `len` (instantaneous metadata op): the
    /// prefix a reader of the file found whole, without what follows it.
    ///
    /// # Errors
    ///
    /// Fails if the file is missing, deleted or not append-only.
    pub fn truncate_to(&mut self, id: FileId, stored: u64, len: u64) -> VfsResult<()> {
        let e = self.entry_mut(id)?;
        e.check_live()?;
        match &mut e.content {
            Content::Append { segments, len: logical } => {
                let mut keep = stored;
                segments.retain_mut(|seg| {
                    let n = (seg.len() as u64).min(keep);
                    seg.truncate(n as usize);
                    keep -= n;
                    n > 0
                });
                *logical = len;
                Ok(())
            }
            Content::Blocks { .. } => Err(VfsError::WrongAccessStyle(e.path.clone())),
        }
    }

    /// Marks a file deleted **by path** — the operator's view of the world.
    ///
    /// The content is dropped immediately; subsequent reads and writes fail.
    ///
    /// # Errors
    ///
    /// Fails if no live file has this path.
    pub fn delete_path(&mut self, path: &str) -> VfsResult<FileId> {
        let id = self.lookup(path)?;
        let e = self.entry_mut(id)?;
        e.deleted = true;
        e.content = match &e.content {
            Content::Blocks { block_size, nblocks, .. } => {
                Content::Blocks { block_size: *block_size, nblocks: *nblocks, data: BTreeMap::new() }
            }
            Content::Append { .. } => Content::Append { segments: Vec::new(), len: 0 },
        };
        Ok(id)
    }

    /// Finds a live (non-deleted) file by path.
    ///
    /// # Errors
    ///
    /// Fails if the path does not name a live file.
    pub fn lookup(&self, path: &str) -> VfsResult<FileId> {
        self.files
            .iter()
            .find(|(_, f)| f.path == path && !f.deleted)
            .map(|(id, _)| *id)
            .ok_or_else(|| VfsError::NotFound(path.to_string()))
    }

    /// Metadata snapshot for a file (works for deleted files too, so damage
    /// assessment can see what was lost).
    ///
    /// # Errors
    ///
    /// Fails if the id has been purged.
    pub fn meta(&self, id: FileId) -> VfsResult<FileMeta> {
        Ok(self.entry(id)?.meta(id))
    }

    /// Metadata for every file, in creation order. The snapshot layer
    /// derives its deterministic identity from this listing.
    pub fn file_metas(&self) -> Vec<FileMeta> {
        self.files.iter().map(|(id, f)| f.meta(*id)).collect()
    }

    /// Metadata for every file of the given kind, in creation order.
    pub fn list(&self, kind: FileKind) -> Vec<FileMeta> {
        self.files.iter().filter(|(_, f)| f.kind == kind).map(|(id, f)| f.meta(*id)).collect()
    }

    /// Duplicates the *contents* of `src` into a fresh file at `dst_path` on
    /// `dst_disk`, charging a sequential read on the source disk and a
    /// sequential write on the destination disk. Returns the new file's id
    /// and the completion instant (the later of the two transfers).
    ///
    /// # Errors
    ///
    /// Fails if the source is unreadable or the destination path is taken.
    pub fn copy_file(
        &mut self,
        src: FileId,
        dst_path: &str,
        dst_disk: DiskId,
        dst_kind: FileKind,
        now: SimTime,
    ) -> VfsResult<(SimTime, FileId)> {
        let (src_disk, size, content) = {
            let e = self.entry(src)?;
            e.check_live()?;
            (e.disk, e.size_bytes(), e.content.clone())
        };
        self.check_path_free(dst_path)?;
        if dst_disk.0 >= self.disks.len() {
            return Err(VfsError::DiskUnavailable(dst_disk.0));
        }
        self.faults.consume_disk_budget(dst_disk, size, dst_path)?;
        let read_done = self.charge(src_disk, IoKind::Read, size, true, now)?;
        let write_done = self.charge(dst_disk, IoKind::Write, size, true, now)?;
        let id = self.add_file(dst_path, dst_disk, dst_kind, content);
        Ok((read_done.max(write_done), id))
    }

    /// Overwrites the contents of `dst` with the contents of `src`
    /// (restore-from-backup), charging both disks. The destination keeps its
    /// path, kind and id, and its deleted mark is cleared.
    ///
    /// # Errors
    ///
    /// Fails if either file is missing or the source is deleted.
    pub fn restore_into(&mut self, src: FileId, dst: FileId, now: SimTime) -> VfsResult<SimTime> {
        let (src_disk, size, content) = {
            let e = self.entry(src)?;
            e.check_live()?;
            (e.disk, e.size_bytes(), e.content.clone())
        };
        let dst_disk = self.entry(dst)?.disk;
        self.faults.consume_disk_budget(dst_disk, size, "restore destination")?;
        {
            let e = self.entry_mut(dst)?;
            e.content = content;
            e.deleted = false;
        }
        let read_done = self.charge(src_disk, IoKind::Read, size, true, now)?;
        let write_done = self.charge(dst_disk, IoKind::Write, size, true, now)?;
        Ok(read_done.max(write_done))
    }

    // ---- storage-fault layer -------------------------------------------

    /// Arms a storage fault. One-shot arms ([`FaultArm::TornWrite`],
    /// [`FaultArm::PartialAppend`], [`FaultArm::CrashAtWrite`]) replace any
    /// previously armed fault of the same kind; [`FaultArm::BitRot`] is
    /// applied immediately; [`FaultArm::DiskFull`] and [`FaultArm::SlowIo`]
    /// stay in force until cleared.
    ///
    /// # Errors
    ///
    /// Fails if the arm names a disk that does not exist, if a crash arm
    /// asks for the 0th write, or if a bit-rot arm matches no block file
    /// with written blocks.
    pub fn arm_fault(&mut self, arm: FaultArm) -> VfsResult<()> {
        match arm {
            FaultArm::TornWrite { target, keep_num, keep_den } => {
                self.faults.torn = Some((target, keep_num, keep_den));
            }
            FaultArm::PartialAppend { target, keep_num, keep_den } => {
                self.faults.partial = Some((target, keep_num, keep_den));
            }
            FaultArm::BitRot { target, seed } => return self.apply_bit_rot(&target, seed),
            FaultArm::DiskFull { disk, after_bytes } => {
                if disk.0 >= self.disks.len() {
                    return Err(VfsError::DiskUnavailable(disk.0));
                }
                self.faults.full.insert(disk.0, after_bytes);
            }
            FaultArm::SlowIo { disk, multiplier } => {
                if disk.0 >= self.disks.len() {
                    return Err(VfsError::DiskUnavailable(disk.0));
                }
                if multiplier <= 1 {
                    self.faults.slow.remove(&disk.0);
                } else {
                    self.faults.slow.insert(disk.0, multiplier);
                }
            }
            FaultArm::CrashAtWrite { nth, keep_num, keep_den } => {
                if nth == 0 {
                    return Err(VfsError::NotFound("crash-at-write point 0".to_string()));
                }
                self.faults.crash_in = Some((nth, keep_num, keep_den));
                self.faults.crash_fired = false;
            }
        }
        Ok(())
    }

    /// Disarms every armed storage fault (the dead machine comes back, the
    /// full disk gets space, the limping disk is replaced). The lifetime
    /// write counter is **not** reset.
    pub fn clear_faults(&mut self) {
        let writes = self.faults.writes_observed;
        self.faults = FaultState { writes_observed: writes, ..FaultState::default() };
    }

    /// Durable-write attempts (block writes and appends) observed over the
    /// filesystem's lifetime. The crash-at-every-write-point sweep
    /// enumerates crash sites with this counter.
    pub fn writes_observed(&self) -> u64 {
        self.faults.writes_observed
    }

    /// Records the `#[track_caller]` location of the durable-write entry
    /// point currently executing. Its own `#[track_caller]` keeps the
    /// attribution on the *external* caller of `write_block`/`append*`.
    #[track_caller]
    fn note_write_site(&mut self) {
        let loc = std::panic::Location::caller();
        self.write_sites.insert((loc.file(), loc.line()));
    }

    /// Every caller site (source file, 1-based line) that has invoked a
    /// durable-write entry point on this filesystem, sorted. The
    /// write-point sweep unions these across its runs into the coverage
    /// manifest that tidy's `write-site-coverage` lint reads.
    pub fn write_sites_observed(&self) -> Vec<(&'static str, u32)> {
        self.write_sites.iter().copied().collect()
    }

    /// Whether an armed [`FaultArm::CrashAtWrite`] has fired.
    pub fn crash_write_fired(&self) -> bool {
        self.faults.crash_fired
    }

    /// Whether a one-shot write fault (torn write, partial append, or
    /// crash-at-write) is still armed and waiting for its trigger. Fault
    /// harnesses poll this to learn when the damage has landed.
    pub fn fault_pending(&self) -> bool {
        self.faults.torn.is_some()
            || self.faults.partial.is_some()
            || self.faults.crash_in.is_some()
    }

    /// Flips one bit of one written block of the first live file matching
    /// `target`, chosen deterministically from `seed`.
    fn apply_bit_rot(&mut self, target: &FileMatch, seed: u64) -> VfsResult<()> {
        let victim = self.files.iter_mut().find_map(|(_, e)| {
            if e.deleted || !target.matches(&e.path, e.kind) {
                return None;
            }
            match &mut e.content {
                Content::Blocks { data, .. } if !data.is_empty() => Some(data),
                _ => None,
            }
        });
        let Some(data) = victim else {
            return Err(VfsError::NotFound("bit-rot target with written blocks".to_string()));
        };
        let keys: Vec<u64> = data.keys().copied().collect();
        let block = keys[(mix64(seed) % keys.len() as u64) as usize];
        let img = data.get(&block).expect("chosen from written keys");
        if img.is_empty() {
            return Err(VfsError::NotFound("bit-rot target block is empty".to_string()));
        }
        let bit = mix64(seed ^ 0x5bd1_e995) % (img.len() as u64 * 8);
        let mut buf = img.to_vec();
        buf[(bit / 8) as usize] ^= 1 << (bit % 8);
        data.insert(block, Bytes::from(buf));
        Ok(())
    }

    /// Charges an I/O on `disk`, honouring any armed slow-I/O multiplier: a
    /// limping disk internally retries the whole operation `multiplier`
    /// times, so both its service time and its byte counters inflate.
    fn charge(
        &mut self,
        disk: DiskId,
        kind: IoKind,
        bytes: u64,
        sequential: bool,
        now: SimTime,
    ) -> VfsResult<SimTime> {
        let mult = (*self.faults.slow.get(&disk.0).unwrap_or(&1)).max(1);
        let d = self.disk_mut(disk)?;
        let mut done = now;
        for _ in 0..mult {
            done = d.submit(done, kind, bytes, sequential);
        }
        Ok(done)
    }
}

/// A filesystem handle shareable between the primary instance, the stand-by
/// instance and the fault injector.
pub type SharedFs = Arc<Mutex<SimFs>>;

/// Wraps a [`SimFs`] for sharing.
pub fn shared(fs: SimFs) -> SharedFs {
    Arc::new(Mutex::new(fs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs4() -> SimFs {
        SimFs::new(vec![DiskProfile::server_2000(); 4])
    }

    #[test]
    fn block_file_round_trip() {
        let mut fs = fs4();
        let f = fs.create_block_file("/u01/a.dbf", DiskId(0), FileKind::Data, 8192, 4).unwrap();
        let img = Bytes::from(vec![5u8; 8192]);
        let (t1, ()) = fs.write_block(f, 2, img.clone(), SimTime::ZERO).unwrap();
        let (_, got) = fs.read_block(f, 2, t1).unwrap();
        assert_eq!(got, img);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut fs = fs4();
        let f = fs.create_block_file("/u01/a.dbf", DiskId(0), FileKind::Data, 512, 2).unwrap();
        let (_, got) = fs.read_block(f, 0, SimTime::ZERO).unwrap();
        assert!(got.iter().all(|&b| b == 0));
        assert_eq!(got.len(), 512);
    }

    #[test]
    fn out_of_range_block_fails() {
        let mut fs = fs4();
        let f = fs.create_block_file("/u01/a.dbf", DiskId(0), FileKind::Data, 512, 2).unwrap();
        let err = fs.read_block(f, 2, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, VfsError::OutOfRange { block: 2, blocks: 2, .. }));
    }

    #[test]
    fn append_and_read_all() {
        let mut fs = fs4();
        let f = fs.create_append_file("/u03/redo01.log", DiskId(2), FileKind::Redo).unwrap();
        fs.append(f, Bytes::from_static(b"one"), SimTime::ZERO).unwrap();
        fs.append(f, Bytes::from_static(b"two"), SimTime::ZERO).unwrap();
        let (_, segs) = fs.read_from(f, 0, SimTime::ZERO).unwrap();
        assert_eq!(segs, vec![Bytes::from_static(b"one"), Bytes::from_static(b"two")]);
        assert_eq!(fs.meta(f).unwrap().size_bytes, 6);
    }

    #[test]
    fn truncate_resets_append_file() {
        let mut fs = fs4();
        let f = fs.create_append_file("/u03/redo01.log", DiskId(2), FileKind::Redo).unwrap();
        fs.append(f, Bytes::from_static(b"abc"), SimTime::ZERO).unwrap();
        fs.truncate(f).unwrap();
        assert_eq!(fs.meta(f).unwrap().size_bytes, 0);
        // `truncate_to` keeps a stored prefix and sets the logical length:
        // here the cut falls inside the second segment and the third goes,
        // then on a segment boundary.
        for (data, pad) in [(&b"one"[..], 10), (b"two", 10), (b"three", 10)] {
            fs.append_padded(f, Bytes::copy_from_slice(data), pad, SimTime::ZERO).unwrap();
        }
        fs.truncate_to(f, 5, 15).unwrap();
        assert_eq!(fs.peek_all(f).unwrap(), vec![Bytes::from_static(b"one"), Bytes::from_static(b"tw")]);
        assert_eq!(fs.meta(f).unwrap().size_bytes, 15);
        fs.truncate_to(f, 3, 13).unwrap();
        assert_eq!(fs.peek_all(f).unwrap(), vec![Bytes::from_static(b"one")]);
        let blocks = fs.create_block_file("/u02/users01.dbf", DiskId(1), FileKind::Data, 512, 2).unwrap();
        assert!(matches!(fs.truncate_to(blocks, 0, 0), Err(VfsError::WrongAccessStyle(_))));
    }

    #[test]
    fn delete_path_makes_reads_fail() {
        let mut fs = fs4();
        let f = fs.create_block_file("/u02/users01.dbf", DiskId(1), FileKind::Data, 512, 2).unwrap();
        fs.delete_path("/u02/users01.dbf").unwrap();
        let err = fs.read_block(f, 0, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, VfsError::Deleted(_)));
        // Path is gone from lookup.
        assert!(fs.lookup("/u02/users01.dbf").is_err());
        // But metadata is still inspectable for damage assessment.
        assert!(fs.meta(f).unwrap().deleted);
    }

    #[test]
    fn duplicate_paths_rejected() {
        let mut fs = fs4();
        fs.create_append_file("/x", DiskId(0), FileKind::Archive).unwrap();
        let err = fs.create_append_file("/x", DiskId(0), FileKind::Archive).unwrap_err();
        assert!(matches!(err, VfsError::AlreadyExists(_)));
    }

    #[test]
    fn deleted_path_can_be_recreated() {
        let mut fs = fs4();
        fs.create_append_file("/x", DiskId(0), FileKind::Archive).unwrap();
        fs.delete_path("/x").unwrap();
        assert!(fs.create_append_file("/x", DiskId(0), FileKind::Archive).is_ok());
    }

    #[test]
    fn copy_preserves_contents_and_charges_both_disks() {
        let mut fs = fs4();
        let f = fs.create_block_file("/u01/a.dbf", DiskId(0), FileKind::Data, 512, 4).unwrap();
        fs.write_block(f, 1, Bytes::from(vec![9u8; 512]), SimTime::ZERO).unwrap();
        let (_, copy) = fs.copy_file(f, "/u04/a.bak", DiskId(3), FileKind::Backup, SimTime::ZERO).unwrap();
        // Restore it back over a zeroed original.
        fs.write_block(f, 1, Bytes::from(vec![0u8; 512]), SimTime::ZERO).unwrap();
        fs.restore_into(copy, f, SimTime::ZERO).unwrap();
        let (_, got) = fs.read_block(f, 1, SimTime::ZERO).unwrap();
        assert_eq!(got[0], 9);
        let s3 = fs.disk_stats(DiskId(3)).unwrap();
        assert!(s3.bytes_written > 0, "backup disk saw the copy");
    }

    #[test]
    fn restore_clears_deleted_mark() {
        let mut fs = fs4();
        let f = fs.create_block_file("/u01/a.dbf", DiskId(0), FileKind::Data, 512, 4).unwrap();
        fs.write_block(f, 0, Bytes::from(vec![3u8; 512]), SimTime::ZERO).unwrap();
        let (_, bak) = fs.copy_file(f, "/u04/a.bak", DiskId(3), FileKind::Backup, SimTime::ZERO).unwrap();
        fs.arm_fault(FaultArm::BitRot { target: FileMatch::Path("/u01/a.dbf".into()), seed: 1 }).unwrap();
        fs.delete_path("/u01/a.dbf").unwrap();
        fs.restore_into(bak, f, SimTime::ZERO).unwrap();
        assert!(!fs.meta(f).unwrap().deleted);
        let (_, got) = fs.read_block(f, 0, SimTime::ZERO).unwrap();
        assert_eq!(got[0], 3);
        assert!(fs.lookup("/u01/a.dbf").is_ok());
    }

    #[test]
    fn list_filters_by_kind() {
        let mut fs = fs4();
        fs.create_append_file("/r1", DiskId(2), FileKind::Redo).unwrap();
        fs.create_append_file("/a1", DiskId(2), FileKind::Archive).unwrap();
        fs.create_append_file("/r2", DiskId(2), FileKind::Redo).unwrap();
        let redo = fs.list(FileKind::Redo);
        assert_eq!(redo.len(), 2);
        assert!(redo.iter().all(|m| m.kind == FileKind::Redo));
    }

    #[test]
    fn io_advances_time() {
        let mut fs = fs4();
        let f = fs.create_block_file("/u01/a.dbf", DiskId(0), FileKind::Data, 8192, 4).unwrap();
        let (t, _) = fs.read_block(f, 0, SimTime::ZERO).unwrap();
        assert!(t > SimTime::ZERO);
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn padded_append_inflates_length_but_not_content() {
        let mut fs = SimFs::new(vec![DiskProfile::server_2000()]);
        let f = fs.create_append_file("/r", DiskId(0), FileKind::Redo).unwrap();
        fs.append_padded(f, Bytes::from_static(b"abc"), 1000, SimTime::ZERO).unwrap();
        assert_eq!(fs.meta(f).unwrap().size_bytes, 1003);
        let (_, segs) = fs.read_from(f, 0, SimTime::ZERO).unwrap();
        assert_eq!(segs, vec![Bytes::from_static(b"abc")]);
    }

    #[test]
    fn read_from_charges_partial_length() {
        let mut fs = SimFs::new(vec![DiskProfile::server_2000()]);
        let f = fs.create_append_file("/r", DiskId(0), FileKind::Redo).unwrap();
        fs.append_padded(f, Bytes::from_static(b"x"), 20 * 1024 * 1024, SimTime::ZERO).unwrap();
        let before = fs.disk_stats(DiskId(0)).unwrap().bytes_read;
        let offset = 10 * 1024 * 1024;
        fs.read_from(f, offset, SimTime::ZERO).unwrap();
        let read = fs.disk_stats(DiskId(0)).unwrap().bytes_read - before;
        assert!(read < 11 * 1024 * 1024, "charged roughly half the file, got {read}");
    }

    #[test]
    fn peeks_do_not_charge_io() {
        let mut fs = SimFs::new(vec![DiskProfile::server_2000()]);
        let b = fs.create_block_file("/d", DiskId(0), FileKind::Data, 512, 2).unwrap();
        let a = fs.create_append_file("/r", DiskId(0), FileKind::Redo).unwrap();
        fs.write_block(b, 0, Bytes::from(vec![1u8; 512]), SimTime::ZERO).unwrap();
        fs.append(a, Bytes::from_static(b"seg"), SimTime::ZERO).unwrap();
        let stats_before = fs.disk_stats(DiskId(0)).unwrap();
        assert_eq!(fs.peek_block(b, 0).unwrap()[0], 1);
        assert_eq!(fs.peek_all(a).unwrap().len(), 1);
        assert_eq!(fs.disk_stats(DiskId(0)).unwrap(), stats_before);
    }

    #[test]
    fn charge_io_advances_disk() {
        let mut fs = SimFs::new(vec![DiskProfile::server_2000()]);
        let t = fs.charge_io(DiskId(0), IoKind::Read, 20 * 1024 * 1024, SimTime::ZERO).unwrap();
        assert!(t.as_secs_f64() > 0.9, "20 MB at 20 MB/s is about a second");
        assert!(fs.charge_io(DiskId(5), IoKind::Read, 1, SimTime::ZERO).is_err());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    fn fs1() -> SimFs {
        SimFs::new(vec![DiskProfile::server_2000(); 2])
    }

    #[test]
    fn torn_write_keeps_prefix_of_new_and_tail_of_old() {
        let mut fs = fs1();
        let f = fs.create_block_file("/d.dbf", DiskId(0), FileKind::Data, 8, 2).unwrap();
        fs.write_block(f, 0, Bytes::from(vec![1u8; 8]), SimTime::ZERO).unwrap();
        fs.arm_fault(FaultArm::TornWrite {
            target: FileMatch::Path("/d.dbf".into()),
            keep_num: 1,
            keep_den: 2,
        })
        .unwrap();
        // The torn write reports success — the damage is silent.
        fs.write_block(f, 0, Bytes::from(vec![2u8; 8]), SimTime::ZERO).unwrap();
        let (_, got) = fs.read_block(f, 0, SimTime::ZERO).unwrap();
        assert_eq!(&got[..], &[2, 2, 2, 2, 1, 1, 1, 1]);
        // One-shot: the next write is whole.
        fs.write_block(f, 0, Bytes::from(vec![3u8; 8]), SimTime::ZERO).unwrap();
        let (_, got) = fs.read_block(f, 0, SimTime::ZERO).unwrap();
        assert!(got.iter().all(|&b| b == 3));
    }

    #[test]
    fn write_sites_attribute_to_caller_and_survive_clear_faults() {
        let mut fs = fs1();
        let f = fs.create_block_file("/w.dbf", DiskId(0), FileKind::Data, 4, 8).unwrap();
        let r = fs.create_append_file("/w.log", DiskId(0), FileKind::Redo).unwrap();
        assert!(fs.write_sites_observed().is_empty(), "creation is not a write site");
        fs.write_block(f, 0, Bytes::from(vec![1u8; 8]), SimTime::ZERO).unwrap();
        let block_line = line!() - 1;
        // `append` delegates to `append_padded`; `#[track_caller]` must
        // attribute the site here, not inside the delegation.
        fs.append(r, Bytes::from_static(b"x"), SimTime::ZERO).unwrap();
        let append_line = line!() - 1;
        let sites = fs.write_sites_observed();
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|(file, _)| file.ends_with("fs.rs")));
        let lines: Vec<u32> = sites.iter().map(|&(_, l)| l).collect();
        assert!(lines.contains(&block_line), "write_block site {lines:?} vs {block_line}");
        assert!(lines.contains(&append_line), "append site {lines:?} vs {append_line}");
        // Fault disarm (the recovery boundary) must not lose coverage.
        fs.clear_faults();
        assert_eq!(fs.write_sites_observed().len(), 2);
    }

    #[test]
    fn torn_write_matches_by_kind() {
        let mut fs = fs1();
        let f = fs.create_block_file("/d.dbf", DiskId(0), FileKind::Data, 4, 1).unwrap();
        fs.arm_fault(FaultArm::TornWrite {
            target: FileMatch::Kind(FileKind::Data),
            keep_num: 0,
            keep_den: 1,
        })
        .unwrap();
        fs.write_block(f, 0, Bytes::from(vec![7u8; 4]), SimTime::ZERO).unwrap();
        let (_, got) = fs.read_block(f, 0, SimTime::ZERO).unwrap();
        assert!(got.is_empty(), "nothing of the new image persisted over the unwritten block");
    }

    #[test]
    fn partial_append_persists_prefix_and_errors() {
        let mut fs = fs1();
        let f = fs.create_append_file("/r1.log", DiskId(0), FileKind::Redo).unwrap();
        fs.append(f, Bytes::from_static(b"first"), SimTime::ZERO).unwrap();
        fs.arm_fault(FaultArm::PartialAppend {
            target: FileMatch::Kind(FileKind::Redo),
            keep_num: 1,
            keep_den: 2,
        })
        .unwrap();
        let err = fs.append(f, Bytes::from_static(b"second"), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, VfsError::Interrupted(_)));
        let (_, segs) = fs.read_from(f, 0, SimTime::ZERO).unwrap();
        assert_eq!(segs, vec![Bytes::from_static(b"first"), Bytes::from_static(b"sec")]);
        assert_eq!(fs.meta(f).unwrap().size_bytes, 8, "five whole bytes plus the torn three");
        // One-shot: appends work again.
        fs.append(f, Bytes::from_static(b"third"), SimTime::ZERO).unwrap();
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit_deterministically() {
        let mut fs = fs1();
        let f = fs.create_block_file("/d.dbf", DiskId(0), FileKind::Data, 16, 4).unwrap();
        for b in 0..4 {
            fs.write_block(f, b, Bytes::from(vec![0u8; 16]), SimTime::ZERO).unwrap();
        }
        fs.arm_fault(FaultArm::BitRot { target: FileMatch::Path("/d.dbf".into()), seed: 5 }).unwrap();
        let mut flipped = Vec::new();
        for b in 0..4 {
            let (_, img) = fs.read_block(f, b, SimTime::ZERO).unwrap();
            let ones: u32 = img.iter().map(|x| x.count_ones()).sum();
            if ones > 0 {
                flipped.push((b, ones));
            }
        }
        assert_eq!(flipped.len(), 1, "exactly one block touched");
        assert_eq!(flipped[0].1, 1, "exactly one bit flipped");
        // Rot targeting a file with no written blocks is rejected.
        fs.create_block_file("/e.dbf", DiskId(0), FileKind::Data, 16, 4).unwrap();
        let err = fs
            .arm_fault(FaultArm::BitRot { target: FileMatch::Path("/e.dbf".into()), seed: 5 })
            .unwrap_err();
        assert!(matches!(err, VfsError::NotFound(_)));
    }

    #[test]
    fn disk_full_fires_after_budget_and_spares_other_disks() {
        let mut fs = fs1();
        let f = fs.create_block_file("/d.dbf", DiskId(0), FileKind::Data, 512, 8).unwrap();
        let g = fs.create_block_file("/e.dbf", DiskId(1), FileKind::Data, 512, 8).unwrap();
        fs.arm_fault(FaultArm::DiskFull { disk: DiskId(0), after_bytes: 1024 }).unwrap();
        fs.write_block(f, 0, Bytes::from(vec![1u8; 512]), SimTime::ZERO).unwrap();
        fs.write_block(f, 1, Bytes::from(vec![1u8; 512]), SimTime::ZERO).unwrap();
        let err = fs.write_block(f, 2, Bytes::from(vec![1u8; 512]), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, VfsError::DiskFull { disk: 0, .. }));
        assert!(fs.write_block(g, 0, Bytes::from(vec![1u8; 512]), SimTime::ZERO).is_ok());
        // Reads are unaffected; clearing the arm frees the space.
        assert!(fs.read_block(f, 0, SimTime::ZERO).is_ok());
        fs.clear_faults();
        assert!(fs.write_block(f, 2, Bytes::from(vec![1u8; 512]), SimTime::ZERO).is_ok());
    }

    #[test]
    fn slow_io_inflates_service_time() {
        let measure = |mult: u32| {
            let mut fs = fs1();
            let f = fs.create_block_file("/d.dbf", DiskId(0), FileKind::Data, 8192, 4).unwrap();
            if mult > 1 {
                fs.arm_fault(FaultArm::SlowIo { disk: DiskId(0), multiplier: mult }).unwrap();
            }
            let (t, _) = fs.read_block(f, 0, SimTime::ZERO).unwrap();
            t
        };
        let normal = measure(1);
        let limping = measure(8);
        assert!(
            limping.as_micros() > 2 * normal.as_micros(),
            "8x multiplier must visibly slow the disk ({normal:?} vs {limping:?})"
        );
    }

    #[test]
    fn crash_at_write_counts_tears_and_kills_the_machine() {
        let mut fs = fs1();
        let f = fs.create_append_file("/r1.log", DiskId(0), FileKind::Redo).unwrap();
        fs.arm_fault(FaultArm::CrashAtWrite { nth: 3, keep_num: 1, keep_den: 2 }).unwrap();
        fs.append(f, Bytes::from_static(b"aaaa"), SimTime::ZERO).unwrap();
        fs.append(f, Bytes::from_static(b"bbbb"), SimTime::ZERO).unwrap();
        assert!(!fs.crash_write_fired());
        let err = fs.append(f, Bytes::from_static(b"cccc"), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, VfsError::Interrupted(_)));
        assert!(fs.crash_write_fired());
        // The machine is dead: every further write fails, reads still work.
        let err = fs.append(f, Bytes::from_static(b"dddd"), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, VfsError::Interrupted(_)));
        let (_, segs) = fs.read_from(f, 0, SimTime::ZERO).unwrap();
        assert_eq!(segs, vec![Bytes::from_static(b"aaaa"), Bytes::from_static(b"bbbb"), Bytes::from_static(b"cc")]);
        // Power restored: writes work again and the counter kept counting.
        fs.clear_faults();
        assert!(fs.append(f, Bytes::from_static(b"eeee"), SimTime::ZERO).is_ok());
        assert_eq!(fs.writes_observed(), 5);
    }

    #[test]
    fn snapshot_identity_ignores_armed_faults() {
        use crate::snapshot::FsSnapshot;
        let mut fs = fs1();
        fs.create_block_file("/d.dbf", DiskId(0), FileKind::Data, 512, 8).unwrap();
        let clean = FsSnapshot::capture(&fs).id();
        fs.arm_fault(FaultArm::DiskFull { disk: DiskId(0), after_bytes: 1 }).unwrap();
        assert_eq!(FsSnapshot::capture(&fs).id(), clean);
    }
}
