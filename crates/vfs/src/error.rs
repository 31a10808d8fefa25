//! Error type for simulated filesystem operations.

use std::error::Error;
use std::fmt;

/// Result alias for filesystem operations.
pub type VfsResult<T> = Result<T, VfsError>;

/// Errors returned by [`SimFs`](crate::SimFs) operations.
///
/// These surface to the engine exactly like OS errors surface to a real
/// DBMS: a deleted datafile is discovered when the next read fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// No file with the given id or path exists (it may never have existed,
    /// or it may have been deleted and its slot purged).
    NotFound(String),
    /// The file was deleted out from under the engine.
    Deleted(String),
    /// A stored image is structural garbage behind a valid checksum. The
    /// vfs stores bytes and never says this itself: the engine's block
    /// decoder does.
    Corrupt(String),
    /// A block index beyond the file's allocated size was addressed.
    OutOfRange { file: String, block: u64, blocks: u64 },
    /// A file with this path already exists.
    AlreadyExists(String),
    /// The operation does not match the file's access style (e.g. a block
    /// read on an append-only file).
    WrongAccessStyle(String),
    /// The owning disk has been taken offline or removed.
    DiskUnavailable(usize),
    /// The owning disk ran out of space (`ENOSPC`): an armed
    /// [`FaultArm::DiskFull`](crate::FaultArm::DiskFull) budget was
    /// exhausted before this write.
    DiskFull { disk: usize, path: String },
    /// The write was interrupted partway (simulated crash or power loss):
    /// a prefix of the data may have reached the platter, but the caller
    /// must not assume any of it is durable.
    Interrupted(String),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "file not found: {p}"),
            VfsError::Deleted(p) => write!(f, "file has been deleted: {p}"),
            VfsError::Corrupt(p) => write!(f, "file is corrupt: {p}"),
            VfsError::OutOfRange { file, block, blocks } => {
                write!(f, "block {block} out of range for {file} ({blocks} blocks)")
            }
            VfsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            VfsError::WrongAccessStyle(p) => write!(f, "wrong access style for {p}"),
            VfsError::DiskUnavailable(d) => write!(f, "disk {d} unavailable"),
            VfsError::DiskFull { disk, path } => {
                write!(f, "disk {disk} full (ENOSPC) writing {path}")
            }
            VfsError::Interrupted(p) => write!(f, "write interrupted: {p}"),
        }
    }
}

impl Error for VfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VfsError::OutOfRange { file: "a.dbf".into(), block: 9, blocks: 4 };
        assert_eq!(e.to_string(), "block 9 out of range for a.dbf (4 blocks)");
        assert!(VfsError::Deleted("x".into()).to_string().contains("deleted"));
        assert!(VfsError::DiskFull { disk: 1, path: "a.dbf".into() }.to_string().contains("ENOSPC"));
        assert!(VfsError::Interrupted("r1".into()).to_string().contains("interrupted"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<VfsError>();
    }
}
