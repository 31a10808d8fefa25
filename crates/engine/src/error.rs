//! Engine error type.

use std::error::Error;
use std::fmt;

use recobench_vfs::VfsError;

use crate::types::{FileNo, ObjectId, RowId, SessionId, TxnId};

/// Result alias for engine operations.
pub type DbResult<T> = Result<T, DbError>;

/// A broken internal invariant detected on a recovery path.
///
/// These used to be `unwrap()`/`expect()` panics; the static-analysis
/// wall (`recobench-tidy`, panic-freedom lint) forbids panicking in
/// recovery code, so invariant breaches surface as typed errors instead.
/// Hitting one means the engine itself is buggy — a run that reports it
/// counts as *failed recovery*, never as silent success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A block that was just made resident is missing from the buffer
    /// cache (cache bookkeeping diverged from the storage layer).
    BlockNotResident {
        /// Datafile holding the block.
        file: FileNo,
        /// Block number within the file.
        block: u32,
    },
    /// A log sequence location vanished from the control file mid-archive.
    SeqLocationLost(u64),
    /// A backup piece references a datafile the backup catalog does not
    /// know about (backup metadata is self-inconsistent).
    BackupCatalogMismatch {
        /// The datafile missing from the cloned catalog.
        file: FileNo,
    },
    /// A shipped archived log failed to decode on the stand-by: media
    /// corruption of the shipped copy (in transit or at rest). Distinct
    /// from [`RecoveryError::ArchiveGap`] — the bytes arrived but are bad.
    ShippedArchiveCorrupt {
        /// The corrupt log sequence.
        seq: u64,
    },
    /// A stand-by needs a log sequence its upstream has applied but no
    /// longer holds a shippable copy of: a redo gap. The stand-by cannot
    /// make progress without being re-instantiated from a fresh backup.
    ArchiveGap {
        /// The first missing log sequence.
        seq: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::BlockNotResident { file, block } => {
                write!(f, "block {}/{} not resident after ensure_resident", file.0, block)
            }
            RecoveryError::SeqLocationLost(seq) => {
                write!(f, "log seq {seq} location lost from the control file during archiving")
            }
            RecoveryError::BackupCatalogMismatch { file } => {
                write!(f, "backup piece for datafile {} missing from the backup catalog", file.0)
            }
            RecoveryError::ShippedArchiveCorrupt { seq } => {
                write!(f, "shipped log seq {seq} is corrupt on the stand-by archive copy")
            }
            RecoveryError::ArchiveGap { seq } => {
                write!(f, "redo gap: log seq {seq} is no longer available from the upstream")
            }
        }
    }
}

/// Errors surfaced by the database server.
///
/// The workload driver treats most of these the way a TPC-C client treats
/// an ORA- error: the transaction failed, decide whether to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The instance is not open (shut down, crashed, or still mounting).
    InstanceDown,
    /// The instance is already running.
    AlreadyOpen,
    /// A named entity (user, tablespace, table, index, datafile) is unknown.
    NotFound(String),
    /// An entity with this name already exists.
    AlreadyExists(String),
    /// The tablespace holding the addressed data is offline.
    TablespaceOffline(String),
    /// The datafile holding the addressed data is offline.
    DatafileOffline(u32),
    /// The addressed row does not exist.
    NoSuchRow(RowId),
    /// The object was dropped or never existed.
    NoSuchObject(ObjectId),
    /// The statement is blocked on a row lock held by another transaction.
    /// The session is queued FIFO behind the holder; re-issuing the same
    /// statement after the grant arrives resumes the transaction.
    LockWait { holder: TxnId },
    /// Granting the requested lock would close a cycle in the waits-for
    /// graph. The requester is the victim (it must roll back); `cycle`
    /// lists the transactions on the cycle starting with the victim.
    Deadlock {
        /// The transaction chosen to abort (always the requester).
        victim: TxnId,
        /// The waits-for cycle, victim first.
        cycle: Vec<TxnId>,
    },
    /// The transaction is not active (already committed or rolled back).
    TxnNotActive(TxnId),
    /// The session is not connected (never existed, disconnected, or
    /// severed by an instance crash or recovery drain).
    NoSession(SessionId),
    /// An underlying storage failure: a deleted file (the usual symptom of
    /// an operator fault), or a block image that is structural garbage
    /// behind a valid CRC (`VfsError::Corrupt`, from the block decoder).
    Media(VfsError),
    /// A stored block's CRC did not cover its payload: silent corruption
    /// (bit-rot or a torn write) caught by the per-block checksum.
    ChecksumMismatch {
        /// Path of the datafile holding the bad block.
        path: String,
        /// Block number within the file.
        block: u64,
    },
    /// A disk ran out of space (`ENOSPC`) under a write.
    DiskFull {
        /// The full disk's index.
        disk: usize,
    },
    /// The requested recovery is impossible with the available logs and
    /// backups (e.g. archive mode was off).
    Unrecoverable(String),
    /// An administrative command was used in the wrong state.
    BadAdminCommand(String),
    /// A uniqueness constraint was violated on an index insert.
    DuplicateKey { index: String },
    /// An internal invariant broke on a recovery path (see
    /// [`RecoveryError`]); the recovery attempt is void.
    Recovery(RecoveryError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::InstanceDown => write!(f, "instance is not open"),
            DbError::AlreadyOpen => write!(f, "instance is already open"),
            DbError::NotFound(what) => write!(f, "not found: {what}"),
            DbError::AlreadyExists(what) => write!(f, "already exists: {what}"),
            DbError::TablespaceOffline(name) => write!(f, "tablespace {name} is offline"),
            DbError::DatafileOffline(n) => write!(f, "datafile {n} is offline"),
            DbError::NoSuchRow(rid) => write!(f, "no such row: {rid}"),
            DbError::NoSuchObject(o) => write!(f, "no such object: {o}"),
            DbError::LockWait { holder } => write!(f, "waiting on a row lock held by {holder}"),
            DbError::Deadlock { victim, cycle } => {
                write!(f, "deadlock detected: {victim} aborted (cycle of {})", cycle.len())
            }
            DbError::TxnNotActive(t) => write!(f, "transaction {t} is not active"),
            DbError::NoSession(s) => write!(f, "session {s} is not connected"),
            DbError::Media(e) => write!(f, "media failure: {e}"),
            DbError::ChecksumMismatch { path, block } => {
                write!(f, "checksum mismatch in block {block} of {path}")
            }
            DbError::DiskFull { disk } => write!(f, "disk {disk} full (ENOSPC)"),
            DbError::Unrecoverable(why) => write!(f, "unrecoverable: {why}"),
            DbError::BadAdminCommand(why) => write!(f, "invalid administrative command: {why}"),
            DbError::DuplicateKey { index } => write!(f, "duplicate key in index {index}"),
            DbError::Recovery(e) => write!(f, "recovery invariant broken: {e}"),
        }
    }
}

impl Error for DbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbError::Media(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VfsError> for DbError {
    fn from(e: VfsError) -> Self {
        match e {
            VfsError::DiskFull { disk, .. } => DbError::DiskFull { disk },
            other => DbError::Media(other),
        }
    }
}

impl From<RecoveryError> for DbError {
    fn from(e: RecoveryError) -> Self {
        DbError::Recovery(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_informative() {
        assert_eq!(DbError::InstanceDown.to_string(), "instance is not open");
        assert!(DbError::LockWait { holder: TxnId(3) }.to_string().contains("txn#3"));
        let dl = DbError::Deadlock { victim: TxnId(4), cycle: vec![TxnId(4), TxnId(9)] };
        assert!(dl.to_string().contains("txn#4"));
        assert!(dl.to_string().contains("cycle of 2"));
        assert!(DbError::NoSession(SessionId(8)).to_string().contains("sess#8"));
    }

    #[test]
    fn media_error_chains_source() {
        let e = DbError::Media(VfsError::Deleted("/u02/a.dbf".into()));
        assert!(e.source().is_some());
    }

    #[test]
    fn storage_fault_errors_are_typed() {
        let e: DbError = VfsError::DiskFull { disk: 2, path: "/u01/a.dbf".into() }.into();
        assert_eq!(e, DbError::DiskFull { disk: 2 });
        assert!(e.to_string().contains("ENOSPC"));
        let c = DbError::ChecksumMismatch { path: "/u01/a.dbf".into(), block: 7 };
        assert!(c.to_string().contains("block 7"));
    }

    #[test]
    fn shipping_errors_distinguish_gap_from_corruption() {
        let corrupt: DbError = RecoveryError::ShippedArchiveCorrupt { seq: 7 }.into();
        assert!(corrupt.to_string().contains("seq 7"));
        assert!(corrupt.to_string().contains("corrupt"));
        let gap: DbError = RecoveryError::ArchiveGap { seq: 9 }.into();
        assert!(gap.to_string().contains("redo gap"));
        assert!(gap.to_string().contains("seq 9"));
        assert_ne!(corrupt, gap);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<DbError>();
    }
}
