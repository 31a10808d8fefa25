//! Cold backups: consistent datafile copies plus the metadata needed to
//! restore and roll forward.

use std::collections::BTreeMap;
use std::sync::Arc;

use recobench_vfs::FileId;

use crate::catalog::Catalog;
use crate::types::{FileNo, RedoAddr, Scn};

/// A complete cold backup of the database.
///
/// The backup records the redo position at the instant it was taken:
/// restore + redo from that position reproduces any later state, which is
/// the basis of both media recovery (one datafile) and incomplete
/// point-in-time recovery (whole database).
#[derive(Debug, Clone)]
pub struct BackupSet {
    /// Redo position to roll forward from.
    pub position: RedoAddr,
    /// SCN at backup time.
    pub scn: Scn,
    /// Dictionary snapshot at backup time.
    pub catalog: Arc<Catalog>,
    /// Backup piece per datafile.
    pub pieces: BTreeMap<FileNo, FileId>,
    /// Nominal bytes each piece represents (restore-time sizing).
    pub nominal_bytes_per_file: u64,
}

impl BackupSet {
    /// The backup piece holding `file`, if the file existed at backup time.
    pub fn piece_for(&self, file: FileNo) -> Option<FileId> {
        self.pieces.get(&file).copied()
    }

    /// Number of datafiles captured.
    pub fn file_count(&self) -> usize {
        self.pieces.len()
    }

    /// This backup as an event for the engine event sink.
    pub fn event(&self) -> crate::events::EngineEvent {
        crate::events::EngineEvent::BackupTaken { files: self.pieces.len() as u64, scn: self.scn.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piece_lookup() {
        let mut pieces = BTreeMap::new();
        pieces.insert(FileNo(1), FileId(10));
        let b = BackupSet {
            position: RedoAddr::start_of(1),
            scn: Scn(5),
            catalog: Arc::new(Catalog::new()),
            pieces,
            nominal_bytes_per_file: 1024,
        };
        assert_eq!(b.piece_for(FileNo(1)), Some(FileId(10)));
        assert_eq!(b.piece_for(FileNo(2)), None);
        assert_eq!(b.file_count(), 1);
        assert_eq!(b.event(), crate::events::EngineEvent::BackupTaken { files: 1, scn: 5 });
    }
}
