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

    /// Rebuilds every index of `obj` from an iterator of `(rid, row)`.
    /// Existing index state for the table is discarded first. Returns the
    /// number of index entries inserted (rows x indexes) so callers can
    /// report rebuild work on the event stream.
    pub fn rebuild_indexes_for<I>(
        &mut self,
        obj: ObjectId,
        defs: &[crate::catalog::IndexDef],
        rows: I,
    ) -> u64
    where
        I: IntoIterator<Item = (crate::types::RowId, crate::row::Row)>,
    {
        let rows: Vec<(crate::types::RowId, crate::row::Row)> = rows.into_iter().collect();
        let entries = (rows.len() * defs.len()) as u64;
        self.indexes.insert(obj, Arc::new(crate::index::bulk_built(defs, &rows)));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::row::{Row, Value};
    use crate::types::{FileNo, RowId};

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

    #[test]
    fn rebuild_indexes_replaces_state() {
        let mut i = blank_instance();
        let defs = vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }];
        let rid = RowId { file: FileNo(1), block: 0, slot: 0 };
        i.rebuild_indexes_for(ObjectId(1), &defs, vec![(rid, Row::new(vec![Value::U64(5)]))]);
        let ix = &i.indexes[&ObjectId(1)][0];
        assert_eq!(ix.lookup(&[Value::U64(5)]), vec![rid]);
        // Rebuilding with nothing clears it.
        i.rebuild_indexes_for(ObjectId(1), &defs, Vec::new());
        assert_eq!(i.indexes[&ObjectId(1)][0].key_count(), 0);
    }
}
