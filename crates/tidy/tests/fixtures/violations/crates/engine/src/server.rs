//! Fixture: the server's types and write paths — one covered write site,
//! one uncovered and unsanctioned (reached from `session.rs`).

pub enum DbError {
    Boom,
}

pub type DbResult<T> = Result<T, DbError>;

pub struct SimFs;

impl SimFs {
    pub fn write_block(&mut self, _blk: u64) -> DbResult<()> {
        Ok(())
    }

    pub fn append(&mut self, _bytes: u32) -> DbResult<()> {
        Ok(())
    }
}

pub struct LockTable;

impl LockTable {
    pub fn lock_row(&mut self, _rid: u64) -> DbResult<()> {
        Ok(())
    }
}

pub struct DbServer {
    pub(crate) locks: LockTable,
    fs: SimFs,
}

impl DbServer {
    pub(crate) fn append_record(&mut self) -> DbResult<()> {
        self.flush_redo()
    }

    fn flush_redo(&mut self) -> DbResult<()> {
        self.fs.append(12)
    }

    pub(crate) fn stash_block(&mut self) -> DbResult<()> {
        self.fs.write_block(7)
    }

    fn scan(&self) -> DbResult<Vec<u64>> {
        Ok(Vec::new())
    }

    pub(crate) fn rebuild(&mut self) -> usize {
        self.scan().unwrap_or_default().len()
    }
}
