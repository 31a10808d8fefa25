//! Physical placement of database files over the simulated disks.

use recobench_sim::DiskProfile;
use recobench_vfs::{DiskId, SimFs};

/// Which simulated disk holds which class of file.
///
/// The default mirrors the paper's testbed: four disks per server, with
/// datafiles spread over two spindles, the online redo logs on their own
/// spindle (so log writes do not seek against data I/O), and archives plus
/// backups on the fourth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskLayout {
    /// Disks that hold datafiles (round-robin placement).
    pub data_disks: Vec<DiskId>,
    /// Disk that holds every online redo log group.
    pub redo_disk: DiskId,
    /// Disk that receives archived logs.
    pub archive_disk: DiskId,
    /// Disk that holds backup pieces.
    pub backup_disk: DiskId,
}

impl DiskLayout {
    /// The paper's four-disk layout: data on disks 0–1, redo on 2,
    /// archive and backup on 3.
    pub fn four_disk() -> Self {
        DiskLayout {
            data_disks: vec![DiskId(0), DiskId(1)],
            redo_disk: DiskId(2),
            archive_disk: DiskId(3),
            backup_disk: DiskId(3),
        }
    }

    /// A deliberately bad layout with everything on one spindle — used by
    /// ablation benches for the "incorrect distribution of files through
    /// disks" operator-fault class.
    pub fn single_disk() -> Self {
        DiskLayout {
            data_disks: vec![DiskId(0)],
            redo_disk: DiskId(0),
            archive_disk: DiskId(0),
            backup_disk: DiskId(0),
        }
    }

    /// Data disk for the `i`-th datafile (round-robin).
    pub fn data_disk_for(&self, i: usize) -> DiskId {
        self.data_disks[i % self.data_disks.len()]
    }

    /// Number of distinct disks the layout requires.
    pub fn disks_required(&self) -> usize {
        let mut max = self.redo_disk.0.max(self.archive_disk.0).max(self.backup_disk.0);
        for d in &self.data_disks {
            max = max.max(d.0);
        }
        max + 1
    }

    /// Creates a fresh simulated filesystem with enough identical disks
    /// for this layout.
    pub fn build_fs(&self, profile: DiskProfile) -> SimFs {
        SimFs::new(vec![profile; self.disks_required()])
    }
}

impl Default for DiskLayout {
    fn default() -> Self {
        Self::four_disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_disk_layout_shape() {
        let l = DiskLayout::four_disk();
        assert_eq!(l.disks_required(), 4);
        assert_eq!(l.data_disk_for(0), DiskId(0));
        assert_eq!(l.data_disk_for(1), DiskId(1));
        assert_eq!(l.data_disk_for(2), DiskId(0));
    }

    #[test]
    fn single_disk_layout_shape() {
        let l = DiskLayout::single_disk();
        assert_eq!(l.disks_required(), 1);
        assert_eq!(l.redo_disk, l.archive_disk);
    }

    #[test]
    fn build_fs_provisions_disks() {
        let fs = DiskLayout::four_disk().build_fs(DiskProfile::server_2000());
        assert_eq!(fs.disk_ids().len(), 4);
    }
}
