//! Fixture: lock-discipline and error-swallow violations on the session
//! surface, in a file of its own — the rules follow `impl DbServer`, not
//! the file name.

use crate::server::{DbResult, DbServer};

impl DbServer {
    fn lock_for_dml(&mut self, rid: u64) -> DbResult<()> {
        self.locks.lock_row(rid)
    }

    pub fn insert(&mut self, rid: u64) -> DbResult<()> {
        self.locks.lock_row(rid)?;
        self.append_record()?;
        self.lock_for_dml(rid)?;
        self.stash_block()?;
        let _ = self.append_record();
        self.append_record().ok();
        self.append_record()
    }
}
