//! Copy-on-write filesystem snapshots.
//!
//! A campaign's setup phase (create database, load TPC-C, cold backup) is a
//! pure function of its inputs, so the resulting disk image can be captured
//! once and cheaply cloned for every experiment cell. [`FsSnapshot`] holds
//! such a captured image: because every block and append segment in a
//! [`SimFs`] is a refcounted `Bytes`, a structural clone shares all payload
//! bytes with the snapshot and only copies the (small) file/disk bookkeeping.
//! Writes into a materialized clone insert *new* `Bytes` values, so clones
//! never disturb the template or each other — clone *is* copy-on-write.
//!
//! Each snapshot carries a deterministic [`SnapshotId`], an FNV-1a hash of
//! its ordered manifest (file id, path, kind, disk, size, in creation
//! order). Two snapshots of byte-identically laid-out filesystems get the
//! same id regardless of thread or wall-clock context, which is what lets a
//! campaign deduplicate templates safely.

use crate::fs::{FileMeta, SimFs};

/// Deterministic identity of a snapshot: an FNV-1a hash over the ordered
/// manifest. Stable across runs, threads and processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub u64);

impl std::fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fs-{:016x}", self.0)
    }
}

/// A captured point-in-time image of a [`SimFs`], cheap to clone out.
#[derive(Debug, Clone)]
pub struct FsSnapshot {
    fs: SimFs,
    id: SnapshotId,
}

impl FsSnapshot {
    /// Captures the filesystem as it stands. Payload bytes are shared with
    /// the live filesystem until either side writes.
    pub fn capture(fs: &SimFs) -> FsSnapshot {
        let fs = fs.clone();
        let id = SnapshotId(fnv1a(manifest_string(&fs.file_metas()).as_bytes()));
        FsSnapshot { fs, id }
    }

    /// The snapshot's deterministic identity.
    pub fn id(&self) -> SnapshotId {
        self.id
    }

    /// The ordered manifest the identity hashes: one line per file, in
    /// creation order, no timestamps.
    pub fn manifest(&self) -> String {
        manifest_string(&self.fs.file_metas())
    }

    /// Produces an independent filesystem backed by the snapshot's blocks.
    /// O(bookkeeping), not O(data): payloads stay shared until written.
    pub fn materialize(&self) -> SimFs {
        self.fs.clone()
    }
}

/// One line per file: `id path kind disk size [deleted]`.
fn manifest_string(metas: &[FileMeta]) -> String {
    let mut out = String::new();
    for m in metas {
        out.push_str(&format!(
            "{} {} {:?} d{} {}B{}\n",
            m.id.0,
            m.path,
            m.kind,
            m.disk.0,
            m.size_bytes,
            if m.deleted { " deleted" } else { "" },
        ));
    }
    out
}

/// FNV-1a, 64 bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use crate::fs::FileKind;
    use recobench_sim::{DiskProfile, SimTime};
    use super::*;

    fn sample_fs() -> SimFs {
        let mut fs = SimFs::new(vec![DiskProfile::server_2000(); 2]);
        let d0 = fs.disk_ids()[0];
        let f = fs.create_block_file("/u01/data01.dbf", d0, FileKind::Data, 4096, 8).unwrap();
        fs.write_block(f, 2, vec![9u8; 4096].into(), SimTime::ZERO).unwrap();
        let a = fs.create_append_file("/u03/redo01.log", fs.disk_ids()[1], FileKind::Redo).unwrap();
        fs.append(a, vec![1, 2, 3].into(), SimTime::ZERO).unwrap();
        fs
    }

    #[test]
    fn identical_layouts_get_identical_ids() {
        let a = FsSnapshot::capture(&sample_fs());
        let b = FsSnapshot::capture(&sample_fs());
        assert_eq!(a.id(), b.id());
        assert_eq!(a.manifest(), b.manifest());
        assert!(a.manifest().contains("/u01/data01.dbf"));
    }

    #[test]
    fn different_layouts_get_different_ids() {
        let mut fs = sample_fs();
        let base = FsSnapshot::capture(&fs);
        fs.create_append_file("/u04/extra.bak", fs.disk_ids()[0], FileKind::Backup).unwrap();
        assert_ne!(FsSnapshot::capture(&fs).id(), base.id());
    }

    #[test]
    fn materialized_clones_are_independent() {
        let snap = FsSnapshot::capture(&sample_fs());
        let mut a = snap.materialize();
        let b = snap.materialize();
        let f = a.lookup("/u01/data01.dbf").unwrap();
        a.write_block(f, 2, vec![7u8; 4096].into(), SimTime::ZERO).unwrap();
        assert_eq!(a.peek_block(f, 2).unwrap()[0], 7);
        // Neither the sibling clone nor the snapshot saw the write.
        assert_eq!(b.peek_block(b.lookup("/u01/data01.dbf").unwrap(), 2).unwrap()[0], 9);
        assert_eq!(snap.materialize().peek_block(f, 2).unwrap()[0], 9);
    }

    #[test]
    fn manifest_is_ordered_and_timestamp_free() {
        let snap = FsSnapshot::capture(&sample_fs());
        let manifest = snap.manifest();
        let lines: Vec<&str> = manifest.lines().collect();
        assert_eq!(lines.len(), 2);
        let ids: Vec<u64> =
            lines.iter().map(|l| l.split(' ').next().unwrap().parse().unwrap()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "manifest lines follow file-id order");
    }
}
