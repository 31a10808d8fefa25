//! Identifier newtypes used across the engine.

use std::fmt;

/// System change number: the engine's logical clock.
///
/// Every redo record is stamped with a fresh SCN; block images remember the
/// SCN of the last change applied to them, which makes redo application
/// idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Scn(pub u64);

impl Scn {
    /// The SCN before any change.
    pub const ZERO: Scn = Scn(0);

    /// The next SCN.
    pub fn next(self) -> Scn {
        Scn(self.0 + 1)
    }
}

impl fmt::Display for Scn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scn#{}", self.0)
    }
}

/// Transaction identifier, unique within one incarnation of the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Session identifier: one connected client of a [`crate::DbServer`].
///
/// Sessions are volatile — an instance crash disconnects every session —
/// and are never reused within one server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess#{}", self.0)
    }
}

/// Identifier of a user (schema owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// Identifier of a database object (table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Identifier of a tablespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TablespaceId(pub u32);

/// Engine-level datafile number (stable across restore; maps to a vfs file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileNo(pub u32);

impl fmt::Display for FileNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Physical row address: datafile number, block within the file, slot
/// within the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    /// Datafile number.
    pub file: FileNo,
    /// Block index within the datafile.
    pub block: u32,
    /// Slot within the block.
    pub slot: u16,
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file.0, self.block, self.slot)
    }
}

/// Address of a byte position in the redo stream: log sequence number plus
/// byte offset within that log. Totally ordered; later positions are
/// strictly greater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RedoAddr {
    /// Log sequence number (increments at every log switch).
    pub seq: u64,
    /// Byte offset within the log with this sequence number.
    pub offset: u64,
}

impl RedoAddr {
    /// The start of the redo stream.
    pub const ZERO: RedoAddr = RedoAddr { seq: 0, offset: 0 };

    /// The start of log sequence `seq`.
    pub fn start_of(seq: u64) -> RedoAddr {
        RedoAddr { seq, offset: 0 }
    }
}

impl fmt::Display for RedoAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "redo@{}/{}", self.seq, self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scn_is_ordered_and_advances() {
        let a = Scn::ZERO;
        let b = a.next();
        assert!(b > a);
        assert_eq!(b, Scn(1));
    }

    #[test]
    fn redo_addr_orders_by_seq_then_offset() {
        let a = RedoAddr { seq: 1, offset: 500 };
        let b = RedoAddr { seq: 2, offset: 0 };
        let c = RedoAddr { seq: 2, offset: 10 };
        assert!(a < b && b < c);
        assert_eq!(RedoAddr::start_of(2), b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Scn(7).to_string(), "scn#7");
        assert_eq!(SessionId(5).to_string(), "sess#5");
        assert_eq!(
            RowId { file: FileNo(3), block: 9, slot: 2 }.to_string(),
            "3:9:2"
        );
        assert_eq!(RedoAddr { seq: 4, offset: 16 }.to_string(), "redo@4/16");
    }
}
