//! The administrator surface of [`DbServer`]: DDL, backup, and the
//! commands the fault injector reproduces operator mistakes with.

use std::sync::Arc;

use recobench_sim::SimTime;
use recobench_vfs::FileKind;

use crate::backup::BackupSet;
use crate::catalog::{CatalogChange, DatafileDef, IndexDef};
use crate::checkpoint;
use crate::config::{costs, BLOCK_SIZE};
use crate::error::{DbError, DbResult};
use crate::heap::PlacementCursor;
use crate::redo::{RedoOp, RedoRecord};
use crate::server::DbServer;
use crate::tap::DmlChange;
use crate::types::{FileNo, ObjectId, TablespaceId, UserId};

impl DbServer {
    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    pub(crate) fn ddl(&mut self, change: CatalogChange) -> DbResult<()> {
        self.poll();
        let scn = self.inst_mut()?.next_scn();
        let rec = RedoRecord { scn, txn: None, op: RedoOp::Catalog(change.clone()) };
        self.append_record(&rec)?;
        self.inst_mut()?.catalog.apply(&change);
        self.flush_redo()?;
        Ok(())
    }

    /// Creates a user.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken or the instance is down.
    pub fn create_user(&mut self, name: &str) -> DbResult<UserId> {
        if self.inst_ref()?.catalog.user_by_name(name).is_ok() {
            return Err(DbError::AlreadyExists(format!("user {name}")));
        }
        let id = self.inst_mut()?.catalog.next_user_id();
        self.ddl(CatalogChange::CreateUser { id, name: name.to_string() })?;
        Ok(id)
    }

    /// Creates a tablespace with `nfiles` datafiles of `blocks_per_file`
    /// blocks each, placed round-robin over the data disks.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken or file creation fails.
    pub fn create_tablespace(
        &mut self,
        name: &str,
        nfiles: u32,
        blocks_per_file: u64,
    ) -> DbResult<TablespaceId> {
        if self.inst_ref()?.catalog.tablespace_by_name(name).is_ok() {
            return Err(DbError::AlreadyExists(format!("tablespace {name}")));
        }
        let id = self.inst_mut()?.catalog.next_tablespace_id();
        self.ddl(CatalogChange::CreateTablespace { id, name: name.to_string() })?;
        for i in 0..nfiles {
            self.add_datafile_to(id, name, i, blocks_per_file)?;
        }
        Ok(id)
    }

    fn add_datafile_to(
        &mut self,
        ts: TablespaceId,
        ts_name: &str,
        index: u32,
        blocks: u64,
    ) -> DbResult<()> {
        let disk = self.layout.data_disk_for(self.datafile_total);
        let path = format!("/u0{}/{}_{:02}.dbf", disk.0 + 1, ts_name.to_lowercase(), index + 1);
        let vfs_id = self.fs.lock().create_block_file(&path, disk, FileKind::Data, BLOCK_SIZE, blocks)?;
        self.datafile_total += 1;
        let file_no = self.inst_mut()?.catalog.next_file_no();
        self.ddl(CatalogChange::AddDatafile {
            file_no,
            def: DatafileDef { path, vfs_id, tablespace: ts, blocks },
        })
    }

    /// Creates a table with its indexes (index 0 is the primary key).
    ///
    /// # Errors
    ///
    /// Fails if the table name is taken, or the user/tablespace is unknown.
    pub fn create_table(
        &mut self,
        name: &str,
        owner: &str,
        tablespace: &str,
        indexes: Vec<IndexDef>,
    ) -> DbResult<ObjectId> {
        let (owner, ts) = {
            let cat = &self.inst_ref()?.catalog;
            if cat.table_by_name(name).is_ok() {
                return Err(DbError::AlreadyExists(format!("table {name}")));
            }
            (cat.user_by_name(owner)?, cat.tablespace_by_name(tablespace)?)
        };
        let id = self.inst_mut()?.catalog.next_object_id();
        self.ddl(CatalogChange::CreateTable {
            id,
            name: name.to_string(),
            owner,
            tablespace: ts,
            indexes: indexes.clone(),
        })?;
        let inst = self.inst_mut()?;
        let set = indexes.into_iter().map(crate::index::Index::new).collect();
        inst.indexes.insert(id, Arc::new(set));
        inst.cursors.insert(id, PlacementCursor::new());
        Ok(id)
    }

    /// Drops a table — the "delete user's database object" operator fault
    /// when issued by mistake.
    ///
    /// # Errors
    ///
    /// Fails if the table does not exist.
    pub fn drop_table(&mut self, name: &str) -> DbResult<ObjectId> {
        let id = self.inst_ref()?.catalog.table_by_name(name)?;
        self.ddl(CatalogChange::DropTable { id })?;
        let inst = self.inst_mut()?;
        inst.indexes.remove(&id);
        inst.cursors.remove(&id);
        if self.dml_tap.is_some() {
            let scn = self.current_scn();
            self.emit_dml(DmlChange::DropTable { obj: id, scn });
        }
        Ok(id)
    }

    /// Drops a tablespace *including contents and datafiles* — the "delete
    /// a tablespace" operator fault when aimed at the wrong target.
    ///
    /// # Errors
    ///
    /// Fails if the tablespace does not exist.
    pub fn drop_tablespace(&mut self, name: &str) -> DbResult<()> {
        let (id, files, tables): (TablespaceId, Vec<(FileNo, String)>, Vec<ObjectId>) = {
            let cat = &self.inst_ref()?.catalog;
            let id = cat.tablespace_by_name(name)?;
            let files = cat
                .datafiles
                .iter()
                .filter(|(_, d)| d.tablespace == id)
                .map(|(no, d)| (*no, d.path.clone()))
                .collect();
            let tables =
                cat.tables.iter().filter(|(_, t)| t.tablespace == id).map(|(o, _)| *o).collect();
            (id, files, tables)
        };
        self.ddl(CatalogChange::DropTablespace { id })?;
        let inst = self.inst_mut()?;
        for t in &tables {
            inst.indexes.remove(t);
            inst.cursors.remove(t);
        }
        for (no, _) in &files {
            inst.cache.invalidate_file(*no);
        }
        {
            let mut fs = self.fs.lock();
            for (_, path) in &files {
                // The files may already be damaged; dropping is best-effort.
                // tidy-allow(error-swallow): dropping a tablespace whose files are already damaged must still succeed
                let _ = fs.delete_path(path);
            }
        }
        if self.dml_tap.is_some() {
            let scn = self.current_scn();
            self.emit_dml(DmlChange::DropTablespace { tables, scn });
        }
        self.clock.advance(costs::ADMIN_COMMAND);
        Ok(())
    }

    /// Resolves a table by name (analysis and driver setup).
    ///
    /// # Errors
    ///
    /// Fails if the instance is down or the table is unknown.
    pub fn table_id(&self, name: &str) -> DbResult<ObjectId> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        inst.catalog.table_by_name(name)
    }

    /// Every table currently in the dictionary, with its name (analysis
    /// tooling: the differential oracle walks all of them).
    ///
    /// # Errors
    ///
    /// Fails if the instance is down.
    pub fn tables(&self) -> DbResult<Vec<(ObjectId, String)>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        Ok(inst.catalog.tables.iter().map(|(id, t)| (*id, t.name.clone())).collect())
    }

    // ------------------------------------------------------------------
    // Administrative / operator surface
    // ------------------------------------------------------------------

    /// Takes a cold (consistent) backup: checkpoint, then copy every
    /// datafile to the backup disk together with the dictionary snapshot
    /// and redo position needed to roll forward from it.
    ///
    /// Restore time is dominated by the *nominal* database size (the
    /// paper's full-scale database), charged alongside the real bytes.
    ///
    /// # Errors
    ///
    /// Fails if the instance is down or a copy fails.
    pub fn take_cold_backup(&mut self) -> DbResult<()> {
        let done = self.cold_backup()?;
        self.clock.advance_to(done);
        Ok(())
    }

    /// [`DbServer::take_cold_backup`] without the wait: the copies keep
    /// the disks busy (later I/O queues behind them) until the returned
    /// instant, when the backup is complete, and the clock does not move.
    pub(crate) fn cold_backup(&mut self) -> DbResult<SimTime> {
        self.poll();
        // Cold means cold: no client may be mid-transaction while the
        // datafiles are copied.
        self.kill_all_sessions();
        self.checkpoint_now()?;
        let now = self.clock.now();
        let (files, position, scn, snapshot) = {
            let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
            let files: Vec<(FileNo, recobench_vfs::FileId)> =
                inst.catalog.datafiles.iter().map(|(no, d)| (*no, d.vfs_id)).collect();
            (files, inst.redo.tail(), inst.scn, Arc::new(inst.catalog.clone()))
        };
        if files.is_empty() {
            return Err(DbError::BadAdminCommand("nothing to back up".into()));
        }
        let nominal_per_file = costs::NOMINAL_DB_BYTES / files.len() as u64;
        let backup_disk = self.layout.backup_disk;
        self.backups_taken += 1;
        let tag = self.backups_taken;
        let mut pieces = std::collections::BTreeMap::new();
        let mut last = now;
        {
            let mut fs = self.fs.lock();
            for (no, vfs_id) in &files {
                let path = format!("/backup/{}_b{}_f{:02}.bak", self.name, tag, no.0);
                let (done, piece) = fs.copy_file(*vfs_id, &path, backup_disk, FileKind::Backup, now)?;
                let src_disk = fs.meta(*vfs_id)?.disk;
                let d1 = fs.charge_io(src_disk, recobench_vfs::IoKind::Read, nominal_per_file, now)?;
                let d2 =
                    fs.charge_io(backup_disk, recobench_vfs::IoKind::Write, nominal_per_file, now)?;
                last = last.max(done).max(d1).max(d2);
                pieces.insert(*no, piece);
            }
        }
        let backup = BackupSet {
            position,
            scn,
            catalog: snapshot,
            pieces,
            nominal_bytes_per_file: nominal_per_file,
        };
        self.events.record(last, backup.event());
        self.backup = Some(backup);
        Ok(last)
    }

    /// Paths of every archived log currently on disk (fault targeting:
    /// "delete a archive log file").
    pub fn archive_paths(&self) -> Vec<String> {
        let fs = self.fs.lock();
        fs.list(FileKind::Archive)
            .into_iter()
            .filter(|m| !m.deleted)
            .map(|m| m.path)
            .collect()
    }

    /// Forgets the registered backup — the "backups missing to allow
    /// recovery" operator fault. The backup pieces are also deleted at the
    /// OS level, as an operator reclaiming "unused" space would.
    pub fn discard_backup(&mut self) {
        if let Some(b) = self.backup.take() {
            let mut fs = self.fs.lock();
            for piece in b.pieces.values() {
                if let Ok(meta) = fs.meta(*piece) {
                    // tidy-allow(error-swallow): simulates an operator reclaiming space; missing pieces are the faultload
                    let _ = fs.delete_path(&meta.path);
                }
            }
        }
    }

    /// Deletes a file by path at the OS level — the injector's way of
    /// reproducing `rm /u02/tpcc_03.dbf`. The engine only notices when it
    /// next touches the file.
    ///
    /// # Errors
    ///
    /// Fails if no live file has this path.
    pub fn os_delete_file(&mut self, path: &str) -> DbResult<()> {
        self.fs.lock().delete_path(path)?;
        Ok(())
    }

    /// Takes a datafile offline (`ALTER DATABASE DATAFILE ... OFFLINE`).
    /// In ARCHIVELOG mode the file needs media recovery from the current
    /// checkpoint position to come back.
    ///
    /// # Errors
    ///
    /// Fails if the file is unknown or the instance is down.
    pub fn offline_datafile(&mut self, path: &str) -> DbResult<FileNo> {
        self.poll();
        let file_no = self.inst_ref()?.catalog.datafile_by_path(path)?;
        let now = self.clock.now();
        let position = self.control_ref()?.effective_checkpoint(now).position;
        let st = self.control_mut()?.file_state_mut(file_no);
        st.offline = true;
        st.recover_from = Some(position);
        self.clock.advance(costs::ADMIN_COMMAND);
        Ok(file_no)
    }

    /// Takes a tablespace offline (normal): its dirty blocks are
    /// checkpointed first, so it comes back online without recovery.
    ///
    /// # Errors
    ///
    /// Fails if the tablespace is unknown or the instance is down.
    pub fn offline_tablespace(&mut self, name: &str) -> DbResult<TablespaceId> {
        self.poll();
        self.flush_redo()?;
        let inst = self.inst_ref()?;
        let ts = inst.catalog.tablespace_by_name(name)?;
        let files: Vec<FileNo> =
            inst.catalog.datafiles.iter().filter(|(_, d)| d.tablespace == ts).map(|(no, _)| *no).collect();
        self.write_dirty_files(&files)?;
        let control = self.control_mut()?;
        if !control.ts_offline.contains(&ts) {
            control.ts_offline.push(ts);
        }
        self.clock.advance(costs::ADMIN_COMMAND);
        Ok(ts)
    }

    /// Writes the dirty cached blocks of `files` and waits for the writes.
    pub(crate) fn write_dirty_files(&mut self, files: &[FileNo]) -> DbResult<()> {
        let mut fs = self.fs.lock();
        let inst = self.inst.as_mut().ok_or_else(|| DbError::InstanceDown)?;
        let now = self.clock.now();
        let out =
            checkpoint::write_dirty(&mut fs, &inst.catalog, &mut inst.cache, now, |k, _| files.contains(&k.0));
        self.stats.blocks_written += out.blocks;
        drop(fs);
        self.clock.advance_to(out.complete_at);
        Ok(())
    }

    /// Brings a cleanly offlined tablespace back online.
    ///
    /// # Errors
    ///
    /// Fails if the tablespace is unknown.
    pub fn online_tablespace(&mut self, name: &str) -> DbResult<()> {
        self.poll();
        let ts = self.inst_ref()?.catalog.tablespace_by_name(name)?;
        self.control_mut()?.ts_offline.retain(|t| *t != ts);
        // Rollbacks that could not reach this tablespace while it was
        // offline finish now that its blocks are readable again.
        self.drain_deferred_undo();
        self.clock.advance(costs::ADMIN_COMMAND);
        Ok(())
    }

    /// Lists the paths of the datafiles of a tablespace (fault targeting).
    ///
    /// # Errors
    ///
    /// Fails if the tablespace is unknown or the instance is down.
    pub fn datafile_paths(&self, tablespace: &str) -> DbResult<Vec<String>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let ts = inst.catalog.tablespace_by_name(tablespace)?;
        Ok(inst
            .catalog
            .datafiles
            .values()
            .filter(|d| d.tablespace == ts)
            .map(|d| d.path.clone())
            .collect())
    }
}
