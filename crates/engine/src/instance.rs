//! The volatile instance: everything a crash destroys.

use std::sync::Arc;

use crate::cache::BufferCache;
use crate::catalog::Catalog;
use crate::fasthash::FastMap;
use crate::heap::PlacementCursor;
use crate::index::Index;
use crate::redo::RedoState;
use crate::txn::{LockTable, TxnTable};
use crate::types::{ObjectId, Scn};

/// An open instance: buffer cache, log buffer, transaction table, live
/// dictionary and indexes. Dropped wholesale on `SHUTDOWN ABORT`.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Live data dictionary.
    pub catalog: Catalog,
    /// Buffer cache.
    pub cache: BufferCache,
    /// Active transactions.
    pub txns: TxnTable,
    /// Row locks.
    pub locks: LockTable,
    /// In-memory indexes per table, one copy-on-write set per table: a
    /// fork shares every set with its source until it inserts, deletes or
    /// moves a key in that table (`Arc::make_mut` at each such site).
    pub indexes: FastMap<ObjectId, Arc<Vec<Index>>>,
    /// Volatile redo position and log buffer.
    pub redo: RedoState,
    /// Per-table insert cursors.
    pub cursors: FastMap<ObjectId, PlacementCursor>,
    /// SCN allocator.
    pub scn: Scn,
}

impl Instance {
    /// Allocates the next SCN.
    pub fn next_scn(&mut self) -> Scn {
        self.scn = self.scn.next();
        self.scn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank_instance() -> Instance {
        Instance {
            catalog: Catalog::new(),
            cache: BufferCache::new(8),
            txns: TxnTable::new(),
            locks: LockTable::new(),
            indexes: FastMap::default(),
            redo: RedoState::new(0, 1, 0),
            cursors: FastMap::default(),
            scn: Scn::ZERO,
        }
    }

    #[test]
    fn scn_allocator_is_monotone() {
        let mut i = blank_instance();
        let a = i.next_scn();
        let b = i.next_scn();
        assert!(b > a);
    }
}
