//! Checkpoint write-out: pushing dirty buffer-cache blocks to datafiles.
//!
//! Two kinds of checkpoint exist, exactly as in Oracle 8i:
//!
//! * **full (log-switch) checkpoints** write every dirty block and advance
//!   the recovery position to the start of the new log sequence — these
//!   are what the paper's Table 3 counts per experiment;
//! * **incremental checkpoints** (DBWR ticks driven by
//!   `log_checkpoint_timeout`) write blocks whose first unwritten change
//!   is older than the timeout, bounding crash-recovery work without a
//!   burst.
//!
//! Writes are *submitted* at the trigger instant and the checkpoint
//! completes when the last one drains; the completion timestamp is what
//! the control file records, so a crash mid-checkpoint correctly falls
//! back to the previous position.

use recobench_sim::SimTime;
use recobench_vfs::SimFs;

use crate::cache::{BufferCache, DirtyInfo};
use crate::catalog::Catalog;
use crate::types::FileNo;

/// Result of a checkpoint write-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Instant the last submitted write completes (equals the trigger
    /// instant when nothing was dirty).
    pub complete_at: SimTime,
    /// Blocks written.
    pub blocks: u64,
    /// Disk that rejected a write with ENOSPC, if any. The affected
    /// blocks stay dirty in the cache; the caller must not advance the
    /// checkpoint position past their redo.
    pub disk_full: Option<recobench_vfs::DiskId>,
}

impl WriteOutcome {
    /// This outcome as a full-checkpoint event for the engine event sink.
    pub fn checkpoint_event(&self) -> crate::events::EngineEvent {
        crate::events::EngineEvent::Checkpoint { blocks: self.blocks, complete_at: self.complete_at }
    }
}

/// Writes every dirty block matching `pred` out to its datafile, returning
/// when the batch drains. Blocks whose datafile no longer exists (dropped
/// or deleted by an operator) are discarded silently — media recovery owns
/// them now.
pub(crate) fn write_dirty<F>(
    fs: &mut SimFs,
    catalog: &Catalog,
    cache: &mut BufferCache,
    now: SimTime,
    pred: F,
) -> WriteOutcome
where
    F: FnMut((FileNo, u32), &DirtyInfo) -> bool,
{
    // Collect (key, bookkeeping) only — each image is encoded out of its
    // frame through one buffer, and copied out of that at its size.
    let batch = cache.dirty_matching(pred);
    let mut w = crate::codec::Writer::new();
    let mut complete_at = now;
    let mut blocks = 0u64;
    let mut disk_full = None;
    for (key, info) in batch {
        cache.clear_dirty(key);
        let Some(df) = catalog.datafiles.get(&key.0) else { continue };
        w.truncate(0);
        if !cache.encode_block_into(key, &mut w) {
            continue;
        }
        match fs.write_block(df.vfs_id, key.1 as u64, bytes::Bytes::copy_from_slice(w.as_slice()), now) {
            Ok((done, ())) => {
                complete_at = complete_at.max(done);
                blocks += 1;
            }
            Err(recobench_vfs::VfsError::DiskFull { disk, .. }) => {
                // ENOSPC: the image never reached disk and exists nowhere
                // else, so the frame must stay dirty — a later checkpoint
                // (after the operator frees space) retries it.
                cache.restore_dirty(key, info);
                disk_full.get_or_insert(recobench_vfs::DiskId(disk));
            }
            Err(recobench_vfs::VfsError::Interrupted(_)) => {
                // The machine is dying mid-write-out (crash-at-write
                // fault). Keep the frame dirty; the caller sees the fired
                // crash and refuses to record the checkpoint.
                cache.restore_dirty(key, info);
            }
            Err(_) => {
                // The file is gone (operator fault). The change survives in
                // the redo stream; media recovery will replay it.
            }
        }
    }
    WriteOutcome { complete_at, blocks, disk_full }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CatalogChange, DatafileDef};
    use crate::page::BlockImage;
    use crate::row::{Row, Value};
    use crate::types::{RedoAddr, Scn, TablespaceId};
    use recobench_sim::DiskProfile;
    use recobench_vfs::{DiskId, FileKind};

    fn setup() -> (SimFs, Catalog, BufferCache) {
        let mut fs = SimFs::new(vec![DiskProfile::server_2000()]);
        let vfs_id = fs.create_block_file("/u01/a.dbf", DiskId(0), FileKind::Data, 8192, 64).unwrap();
        let mut cat = Catalog::new();
        cat.apply(&CatalogChange::CreateTablespace { id: TablespaceId(1), name: "T".into() });
        cat.apply(&CatalogChange::AddDatafile {
            file_no: FileNo(1),
            def: DatafileDef {
                path: "/u01/a.dbf".into(),
                vfs_id,
                tablespace: TablespaceId(1),
                blocks: 64,
            },
        });
        (fs, cat, BufferCache::new(8))
    }

    fn dirty_block(cache: &mut BufferCache, block: u32, val: u64) {
        let mut img = BlockImage::empty();
        img.put(0, Row::new(vec![Value::U64(val)]), Scn(val));
        cache.insert((FileNo(1), block), img);
        cache.mark_dirty(
            (FileNo(1), block),
            RedoAddr { seq: 1, offset: val },
            SimTime::from_secs(val),
        );
    }

    #[test]
    fn write_dirty_persists_and_cleans() {
        let (mut fs, cat, mut cache) = setup();
        dirty_block(&mut cache, 3, 7);
        let out = write_dirty(&mut fs, &cat, &mut cache, SimTime::from_secs(10), |_, _| true);
        assert_eq!(out.blocks, 1);
        assert!(out.complete_at > SimTime::from_secs(10));
        assert_eq!(cache.dirty_count(), 0);
        // The image is really on disk.
        let vfs_id = cat.datafiles[&FileNo(1)].vfs_id;
        let img = BlockImage::decode(fs.peek_block(vfs_id, 3).unwrap()).unwrap();
        assert_eq!(img.row(0).unwrap().get(0).unwrap().as_u64(), Some(7));
    }

    #[test]
    fn predicate_selects_subset() {
        let (mut fs, cat, mut cache) = setup();
        dirty_block(&mut cache, 1, 1);
        dirty_block(&mut cache, 2, 20);
        let out = write_dirty(&mut fs, &cat, &mut cache, SimTime::from_secs(30), |_, d| {
            d.first_time <= SimTime::from_secs(5)
        });
        assert_eq!(out.blocks, 1);
        assert_eq!(cache.dirty_count(), 1);
    }

    #[test]
    fn missing_datafile_blocks_are_dropped() {
        let (mut fs, cat, mut cache) = setup();
        dirty_block(&mut cache, 1, 1);
        fs.delete_path("/u01/a.dbf").unwrap();
        let out = write_dirty(&mut fs, &cat, &mut cache, SimTime::ZERO, |_, _| true);
        assert_eq!(out.blocks, 0);
        assert_eq!(cache.dirty_count(), 0, "frame is clean even though the write failed");
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let (mut fs, cat, mut cache) = setup();
        let now = SimTime::from_secs(5);
        let out = write_dirty(&mut fs, &cat, &mut cache, now, |_, _| true);
        assert_eq!(out, WriteOutcome { complete_at: now, blocks: 0, disk_full: None });
    }

    #[test]
    fn crash_mid_writeout_keeps_unwritten_blocks_dirty() {
        let (mut fs, cat, mut cache) = setup();
        dirty_block(&mut cache, 1, 1);
        dirty_block(&mut cache, 2, 2);
        fs.arm_fault(recobench_vfs::FaultArm::CrashAtWrite { nth: 2, keep_num: 0, keep_den: 1 })
            .unwrap();
        let out = write_dirty(&mut fs, &cat, &mut cache, SimTime::from_secs(1), |_, _| true);
        assert_eq!(out.blocks, 1);
        assert!(fs.crash_write_fired());
        assert_eq!(cache.dirty_count(), 1, "the block the crash ate stays dirty");
    }

    #[test]
    fn enospc_keeps_the_block_dirty() {
        let (mut fs, cat, mut cache) = setup();
        dirty_block(&mut cache, 4, 9);
        fs.arm_fault(recobench_vfs::FaultArm::DiskFull { disk: DiskId(0), after_bytes: 0 })
            .unwrap();
        let out = write_dirty(&mut fs, &cat, &mut cache, SimTime::from_secs(2), |_, _| true);
        assert_eq!(out.blocks, 0);
        assert_eq!(out.disk_full, Some(DiskId(0)));
        assert_eq!(cache.dirty_count(), 1, "the unwritten change must stay dirty");
        // Space freed: the retry drains the backlog.
        fs.clear_faults();
        let out = write_dirty(&mut fs, &cat, &mut cache, SimTime::from_secs(3), |_, _| true);
        assert_eq!((out.blocks, out.disk_full), (1, None));
        assert_eq!(cache.dirty_count(), 0);
    }
}
