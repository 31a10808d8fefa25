//! The control file: the database's persistent metadata root.
//!
//! In the simulation the control file survives instance crashes because it
//! belongs to the [`DbServer`](crate::server::DbServer) (the *machine*),
//! while everything volatile belongs to the
//! [`Instance`](crate::instance::Instance) that a crash destroys.
//!
//! State transitions that complete asynchronously (checkpoints, archiving)
//! are stored as *timestamped facts*: a checkpoint record carries the
//! instant its writes finished, and a crash at time `T` only honours
//! records completed by `T`. This is how the simulation gets crash
//! semantics right without replaying I/O.

use std::collections::BTreeMap;
use std::sync::Arc;

use recobench_sim::SimTime;
use recobench_vfs::FileId;

use crate::catalog::Catalog;
use crate::types::{FileNo, RedoAddr, Scn, TablespaceId};

/// Where a log sequence lives and when it stops being needed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqLocation {
    /// Online group still holding this sequence, if not yet overwritten.
    pub group: Option<usize>,
    /// Archive file holding a copy and the instant the copy completed, if
    /// archived.
    pub archive: Option<(FileId, SimTime)>,
    /// When the checkpoint triggered by switching *out* of this sequence
    /// completed (after which the sequence's redo is no longer needed for
    /// crash recovery).
    pub released_at: Option<SimTime>,
}

impl SeqLocation {
    /// A sequence written into online group `group`, not yet archived or
    /// released.
    pub(crate) fn online(group: usize) -> Self {
        SeqLocation { group: Some(group), archive: None, released_at: None }
    }
}

/// A completed (or completing) checkpoint.
#[derive(Debug, Clone)]
pub struct CkptRecord {
    /// Redo address recovery may start from once this checkpoint holds.
    pub position: RedoAddr,
    /// SCN at the time the checkpoint was taken.
    pub scn: Scn,
    /// Instant the checkpoint's datafile writes completed.
    pub complete_at: SimTime,
    /// Dictionary snapshot consistent with `position`.
    pub catalog: Arc<Catalog>,
}

/// Runtime (non-dictionary) state of a datafile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileRuntime {
    /// Whether the file is offline (operator action or damage).
    pub offline: bool,
    /// If media recovery is needed to bring the file online, the redo
    /// address to recover from.
    pub recover_from: Option<RedoAddr>,
}

/// The control file.
#[derive(Debug, Clone)]
pub struct ControlFile {
    /// Database name.
    pub db_name: String,
    /// Online redo log groups (one single-member log file each), in order.
    pub groups: Vec<FileId>,
    /// Group currently being written.
    pub current_group: usize,
    /// Sequence currently being written.
    pub current_seq: u64,
    /// Bytes flushed into the current sequence (padding included).
    pub current_flushed: u64,
    /// Location and lifecycle of every known sequence.
    pub seqs: BTreeMap<u64, SeqLocation>,
    /// Checkpoint history, oldest first.
    pub checkpoints: Vec<CkptRecord>,
    /// Per-datafile runtime state (offline flags).
    pub file_states: BTreeMap<FileNo, FileRuntime>,
    /// Offline tablespaces.
    pub ts_offline: Vec<TablespaceId>,
    /// Whether the last shutdown was clean.
    pub clean_shutdown: bool,
    /// Instant the last instance terminated (crash or shutdown).
    pub stopped_at: Option<SimTime>,
}

impl ControlFile {
    /// Creates the control file for a fresh database.
    pub fn new(db_name: &str, groups: Vec<FileId>, initial_catalog: Arc<Catalog>) -> Self {
        ControlFile {
            db_name: db_name.to_string(),
            groups,
            current_group: 0,
            current_seq: 1,
            current_flushed: 0,
            seqs: BTreeMap::from([(1, SeqLocation::online(0))]),
            checkpoints: vec![CkptRecord {
                position: RedoAddr::start_of(1),
                scn: Scn::ZERO,
                complete_at: SimTime::ZERO,
                catalog: initial_catalog,
            }],
            file_states: BTreeMap::new(),
            ts_offline: Vec::new(),
            clean_shutdown: true,
            stopped_at: None,
        }
    }

    /// The checkpoint in force at instant `at`: the completed record with
    /// the greatest position.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint has completed by `at` (impossible: database
    /// creation seeds one at time zero).
    pub fn effective_checkpoint(&self, at: SimTime) -> &CkptRecord {
        self.checkpoints
            .iter()
            .filter(|c| c.complete_at <= at)
            .max_by_key(|c| c.position)
            // tidy-allow(panic-freedom): database creation seeds a checkpoint at time zero, so the filter is never empty
            .expect("database creation seeds a checkpoint at time zero")
    }

    /// Records a checkpoint and prunes history that can never be effective
    /// again (dominated records older than the newest completed one).
    pub fn add_checkpoint(&mut self, rec: CkptRecord) {
        self.checkpoints.push(rec);
        // Keep records that could still be the effective one for some
        // crash instant: the latest fully-completed record plus anything
        // newer or still in flight. A generous bound keeps this simple.
        if self.checkpoints.len() > 64 {
            let keep_from = self.checkpoints.len() - 32;
            self.checkpoints.drain(..keep_from);
        }
    }

    /// Runtime state of a datafile (default: online).
    pub fn file_state(&self, file: FileNo) -> FileRuntime {
        self.file_states.get(&file).copied().unwrap_or_default()
    }

    /// Mutable runtime state of a datafile.
    pub fn file_state_mut(&mut self, file: FileNo) -> &mut FileRuntime {
        self.file_states.entry(file).or_default()
    }

    /// Whether a tablespace is offline.
    pub fn is_ts_offline(&self, ts: TablespaceId) -> bool {
        self.ts_offline.contains(&ts)
    }

    /// Whether any file or tablespace carries runtime (offline/recovery)
    /// state. False in fault-free operation, letting block access skip the
    /// per-file availability checks. Conservative: a `file_states` entry
    /// that was reset back to online still reports true.
    pub fn has_runtime_state(&self) -> bool {
        !self.file_states.is_empty() || !self.ts_offline.is_empty()
    }

    /// The location entry for sequence `seq`.
    pub fn seq(&self, seq: u64) -> Option<&SeqLocation> {
        self.seqs.get(&seq)
    }

    /// Whether the redo for `seq` is readable at time `at` (still online,
    /// or archived by then).
    pub fn seq_available(&self, seq: u64, at: SimTime) -> bool {
        match self.seqs.get(&seq) {
            None => false,
            Some(loc) => {
                loc.group.is_some() || matches!(loc.archive, Some((_, t)) if t <= at)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cf() -> ControlFile {
        ControlFile::new("TEST", vec![FileId(1), FileId(2)], Arc::new(Catalog::new()))
    }

    fn ckpt(seq: u64, complete_secs: u64) -> CkptRecord {
        CkptRecord {
            position: RedoAddr::start_of(seq),
            scn: Scn(seq * 100),
            complete_at: SimTime::from_secs(complete_secs),
            catalog: Arc::new(Catalog::new()),
        }
    }

    #[test]
    fn new_controlfile_seeds_seq_and_checkpoint() {
        let c = cf();
        assert_eq!(c.current_seq, 1);
        assert!(c.seqs.contains_key(&1));
        assert_eq!(c.effective_checkpoint(SimTime::ZERO).position, RedoAddr::start_of(1));
    }

    #[test]
    fn effective_checkpoint_honours_completion_time() {
        let mut c = cf();
        c.add_checkpoint(ckpt(2, 100));
        c.add_checkpoint(ckpt(3, 200));
        // A crash at t=150 only sees the checkpoint completed at t=100.
        assert_eq!(c.effective_checkpoint(SimTime::from_secs(150)).position, RedoAddr::start_of(2));
        assert_eq!(c.effective_checkpoint(SimTime::from_secs(250)).position, RedoAddr::start_of(3));
    }

    #[test]
    fn effective_checkpoint_takes_max_position_not_latest_time() {
        let mut c = cf();
        c.add_checkpoint(ckpt(5, 100));
        // An incremental record with an older position completes later.
        c.add_checkpoint(ckpt(4, 120));
        assert_eq!(c.effective_checkpoint(SimTime::from_secs(130)).position, RedoAddr::start_of(5));
    }

    #[test]
    fn seq_availability() {
        let mut c = cf();
        // Seq 1 is online.
        assert!(c.seq_available(1, SimTime::ZERO));
        // Unknown seq is not available.
        assert!(!c.seq_available(9, SimTime::ZERO));
        // An archived-but-overwritten seq is available only after the
        // archive copy completes.
        c.seqs.insert(
            2,
            SeqLocation {
                group: None,
                archive: Some((FileId(7), SimTime::from_secs(50))),
                released_at: None,
            },
        );
        assert!(!c.seq_available(2, SimTime::from_secs(49)));
        assert!(c.seq_available(2, SimTime::from_secs(50)));
    }

    #[test]
    fn file_state_defaults_online() {
        let mut c = cf();
        assert!(!c.file_state(FileNo(3)).offline);
        c.file_state_mut(FileNo(3)).offline = true;
        assert!(c.file_state(FileNo(3)).offline);
    }

    #[test]
    fn checkpoint_history_is_pruned() {
        let mut c = cf();
        for i in 0..200 {
            c.add_checkpoint(ckpt(i + 2, i));
        }
        assert!(c.checkpoints.len() <= 64);
        // The newest record survives pruning.
        assert_eq!(
            c.effective_checkpoint(SimTime::from_secs(10_000)).position,
            RedoAddr::start_of(201)
        );
    }
}
