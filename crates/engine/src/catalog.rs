//! The data dictionary: users, tablespaces, datafiles, tables, indexes and
//! segment extent maps.
//!
//! Catalog mutations are expressed as [`CatalogChange`] values. During
//! normal operation a change is applied to the live catalog *and* written
//! to the redo stream; during recovery the same changes are re-applied from
//! the log. Every change is idempotent, so replaying records that are
//! already reflected in a checkpoint snapshot is harmless.

use std::collections::BTreeMap;

use recobench_vfs::FileId;

use crate::codec::{DecodeError, DecodeResult, Reader, Writer};
use crate::error::{DbError, DbResult};
use crate::types::{FileNo, ObjectId, TablespaceId, UserId};

/// A database user (schema owner).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserDef {
    /// Unique user name.
    pub name: String,
}

/// A tablespace: a named container of datafiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablespaceDef {
    /// Unique tablespace name.
    pub name: String,
    /// Datafiles composing the tablespace, in creation order.
    pub files: Vec<FileNo>,
}

/// A datafile registered with the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatafileDef {
    /// Path of the file in the simulated filesystem.
    pub path: String,
    /// Handle of the file in the simulated filesystem.
    pub vfs_id: FileId,
    /// Owning tablespace.
    pub tablespace: TablespaceId,
    /// Capacity in blocks.
    pub blocks: u64,
}

/// A secondary or primary index over column positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within the table.
    pub name: String,
    /// Column positions forming the key, in significance order.
    pub cols: Vec<usize>,
    /// Whether key values must be unique.
    pub unique: bool,
    /// Whether the index keeps its keys in sorted order and serves
    /// range/prefix scans. Point-only indexes (`false`) back onto a hash
    /// map, which probes several times faster than a tree descent.
    pub ordered: bool,
}

/// A contiguous run of blocks allocated to a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Datafile holding the extent.
    pub file: FileNo,
    /// First block of the run.
    pub start: u32,
    /// Number of blocks.
    pub len: u32,
}

/// The storage map of a table: its allocated extents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Segment {
    /// Allocated extents, in allocation order.
    pub extents: Vec<Extent>,
}

impl Segment {
    /// Iterates over every `(file, block)` the segment owns, in order.
    pub fn blocks(&self) -> impl Iterator<Item = (FileNo, u32)> + '_ {
        self.extents.iter().flat_map(|e| (e.start..e.start + e.len).map(move |b| (e.file, b)))
    }
}

/// A table definition plus its storage map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Unique table name.
    pub name: String,
    /// Owning user.
    pub owner: UserId,
    /// Tablespace the table's segment allocates from.
    pub tablespace: TablespaceId,
    /// Indexes on the table. Index 0 is conventionally the primary key.
    pub indexes: Vec<IndexDef>,
    /// Allocated storage.
    pub segment: Segment,
}

/// The data dictionary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    /// Registered users.
    pub users: BTreeMap<UserId, UserDef>,
    /// Registered tablespaces.
    pub tablespaces: BTreeMap<TablespaceId, TablespaceDef>,
    /// Registered datafiles.
    pub datafiles: BTreeMap<FileNo, DatafileDef>,
    /// Registered tables.
    pub tables: BTreeMap<ObjectId, TableDef>,
    /// Per-datafile allocation high-water mark (next free block).
    pub file_high_water: BTreeMap<FileNo, u32>,
    next_user: u32,
    next_tablespace: u32,
    next_object: u32,
    next_file: u32,
}

impl Catalog {
    /// An empty dictionary.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Allocates the next user id.
    pub fn next_user_id(&mut self) -> UserId {
        self.next_user += 1;
        UserId(self.next_user)
    }

    /// Allocates the next tablespace id.
    pub fn next_tablespace_id(&mut self) -> TablespaceId {
        self.next_tablespace += 1;
        TablespaceId(self.next_tablespace)
    }

    /// Allocates the next object id.
    pub fn next_object_id(&mut self) -> ObjectId {
        self.next_object += 1;
        ObjectId(self.next_object)
    }

    /// Allocates the next datafile number.
    pub fn next_file_no(&mut self) -> FileNo {
        self.next_file += 1;
        FileNo(self.next_file)
    }

    /// Finds a user by name.
    ///
    /// # Errors
    ///
    /// Fails if no user has that name.
    pub fn user_by_name(&self, name: &str) -> DbResult<UserId> {
        self.users
            .iter()
            .find(|(_, u)| u.name == name)
            .map(|(id, _)| *id)
            .ok_or_else(|| DbError::NotFound(format!("user {name}")))
    }

    /// Finds a tablespace by name.
    ///
    /// # Errors
    ///
    /// Fails if no tablespace has that name.
    pub fn tablespace_by_name(&self, name: &str) -> DbResult<TablespaceId> {
        self.tablespaces
            .iter()
            .find(|(_, t)| t.name == name)
            .map(|(id, _)| *id)
            .ok_or_else(|| DbError::NotFound(format!("tablespace {name}")))
    }

    /// Finds a table by name.
    ///
    /// # Errors
    ///
    /// Fails if no table has that name.
    pub fn table_by_name(&self, name: &str) -> DbResult<ObjectId> {
        self.tables
            .iter()
            .find(|(_, t)| t.name == name)
            .map(|(id, _)| *id)
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))
    }

    /// The table definition for `obj`.
    ///
    /// # Errors
    ///
    /// Fails if the object does not exist (e.g. it was dropped).
    pub fn table(&self, obj: ObjectId) -> DbResult<&TableDef> {
        self.tables.get(&obj).ok_or_else(|| DbError::NoSuchObject(obj))
    }

    /// Finds a datafile by path.
    ///
    /// # Errors
    ///
    /// Fails if no datafile has that path.
    pub fn datafile_by_path(&self, path: &str) -> DbResult<FileNo> {
        self.datafiles
            .iter()
            .find(|(_, d)| d.path == path)
            .map(|(no, _)| *no)
            .ok_or_else(|| DbError::NotFound(format!("datafile {path}")))
    }

    /// Applies a change. Idempotent: re-applying a change that is already
    /// reflected is a no-op.
    pub fn apply(&mut self, change: &CatalogChange) {
        match change {
            CatalogChange::CreateUser { id, name } => {
                self.users.entry(*id).or_insert_with(|| UserDef { name: name.clone() });
                self.next_user = self.next_user.max(id.0);
            }
            CatalogChange::CreateTablespace { id, name } => {
                self.tablespaces
                    .entry(*id)
                    .or_insert_with(|| TablespaceDef { name: name.clone(), files: Vec::new() });
                self.next_tablespace = self.next_tablespace.max(id.0);
            }
            CatalogChange::AddDatafile { file_no, def } => {
                if !self.datafiles.contains_key(file_no) {
                    self.datafiles.insert(*file_no, def.clone());
                    if let Some(ts) = self.tablespaces.get_mut(&def.tablespace) {
                        if !ts.files.contains(file_no) {
                            ts.files.push(*file_no);
                        }
                    }
                    self.file_high_water.entry(*file_no).or_insert(0);
                }
                self.next_file = self.next_file.max(file_no.0);
            }
            CatalogChange::DropTablespace { id } => {
                if let Some(ts) = self.tablespaces.remove(id) {
                    for f in &ts.files {
                        self.datafiles.remove(f);
                        self.file_high_water.remove(f);
                    }
                }
                self.tables.retain(|_, t| t.tablespace != *id);
            }
            CatalogChange::CreateTable { id, name, owner, tablespace, indexes } => {
                self.tables.entry(*id).or_insert_with(|| TableDef {
                    name: name.clone(),
                    owner: *owner,
                    tablespace: *tablespace,
                    indexes: indexes.clone(),
                    segment: Segment::default(),
                });
                self.next_object = self.next_object.max(id.0);
            }
            CatalogChange::DropTable { id } => {
                self.tables.remove(id);
            }
            CatalogChange::AllocExtent { table, extent } => {
                if let Some(t) = self.tables.get_mut(table) {
                    if !t.segment.extents.contains(extent) {
                        t.segment.extents.push(*extent);
                    }
                }
                let hw = self.file_high_water.entry(extent.file).or_insert(0);
                *hw = (*hw).max(extent.start + extent.len);
            }
        }
    }
}

/// A logical, idempotent mutation of the data dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogChange {
    /// Registers a user.
    CreateUser {
        /// Assigned id.
        id: UserId,
        /// Unique name.
        name: String,
    },
    /// Registers a tablespace.
    CreateTablespace {
        /// Assigned id.
        id: TablespaceId,
        /// Unique name.
        name: String,
    },
    /// Adds a datafile to a tablespace.
    AddDatafile {
        /// Assigned datafile number.
        file_no: FileNo,
        /// File details.
        def: DatafileDef,
    },
    /// Drops a tablespace including its contents and datafiles.
    DropTablespace {
        /// Target tablespace.
        id: TablespaceId,
    },
    /// Registers a table.
    CreateTable {
        /// Assigned id.
        id: ObjectId,
        /// Unique name.
        name: String,
        /// Owner.
        owner: UserId,
        /// Tablespace for the table's segment.
        tablespace: TablespaceId,
        /// Indexes to maintain.
        indexes: Vec<IndexDef>,
    },
    /// Drops a table.
    DropTable {
        /// Target table.
        id: ObjectId,
    },
    /// Extends a table's segment.
    AllocExtent {
        /// Target table.
        table: ObjectId,
        /// New extent.
        extent: Extent,
    },
}

impl CatalogChange {
    /// Encodes the change into `w` for the redo stream.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            CatalogChange::CreateUser { id, name } => {
                w.put_u8(1);
                w.put_u32(id.0);
                w.put_str(name);
            }
            CatalogChange::CreateTablespace { id, name } => {
                w.put_u8(3);
                w.put_u32(id.0);
                w.put_str(name);
            }
            CatalogChange::AddDatafile { file_no, def } => {
                w.put_u8(4);
                w.put_u32(file_no.0);
                w.put_str(&def.path);
                w.put_u64(def.vfs_id.0);
                w.put_u32(def.tablespace.0);
                w.put_u64(def.blocks);
            }
            CatalogChange::DropTablespace { id } => {
                w.put_u8(5);
                w.put_u32(id.0);
            }
            CatalogChange::CreateTable { id, name, owner, tablespace, indexes } => {
                w.put_u8(6);
                w.put_u32(id.0);
                w.put_str(name);
                w.put_u32(owner.0);
                w.put_u32(tablespace.0);
                w.put_u16(indexes.len() as u16);
                for ix in indexes {
                    w.put_str(&ix.name);
                    w.put_u8(u8::from(ix.unique));
                    w.put_u8(u8::from(ix.ordered));
                    w.put_u16(ix.cols.len() as u16);
                    for c in &ix.cols {
                        w.put_u16(*c as u16);
                    }
                }
            }
            CatalogChange::DropTable { id } => {
                w.put_u8(7);
                w.put_u32(id.0);
            }
            CatalogChange::AllocExtent { table, extent } => {
                w.put_u8(8);
                w.put_u32(table.0);
                w.put_u32(extent.file.0);
                w.put_u32(extent.start);
                w.put_u32(extent.len);
            }
        }
    }

    /// Decodes a change from the redo stream.
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes.
    pub fn decode(r: &mut Reader) -> DecodeResult<CatalogChange> {
        let tag = r.get_u8("catalog change tag")?;
        Ok(match tag {
            1 => CatalogChange::CreateUser {
                id: UserId(r.get_u32("user id")?),
                name: r.get_str("user name")?,
            },
            3 => CatalogChange::CreateTablespace {
                id: TablespaceId(r.get_u32("ts id")?),
                name: r.get_str("ts name")?,
            },
            4 => CatalogChange::AddDatafile {
                file_no: FileNo(r.get_u32("file no")?),
                def: DatafileDef {
                    path: r.get_str("file path")?,
                    vfs_id: FileId(r.get_u64("vfs id")?),
                    tablespace: TablespaceId(r.get_u32("file ts")?),
                    blocks: r.get_u64("file blocks")?,
                },
            },
            5 => CatalogChange::DropTablespace { id: TablespaceId(r.get_u32("ts id")?) },
            6 => {
                let id = ObjectId(r.get_u32("table id")?);
                let name = r.get_str("table name")?;
                let owner = UserId(r.get_u32("owner")?);
                let tablespace = TablespaceId(r.get_u32("table ts")?);
                let nix = r.get_u16("index count")? as usize;
                let mut indexes = Vec::with_capacity(nix);
                for _ in 0..nix {
                    let name = r.get_str("index name")?;
                    let unique = r.get_u8("index unique")? != 0;
                    let ordered = r.get_u8("index ordered")? != 0;
                    let ncols = r.get_u16("index cols")? as usize;
                    let mut cols = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        cols.push(r.get_u16("index col")? as usize);
                    }
                    indexes.push(IndexDef { name, cols, unique, ordered });
                }
                CatalogChange::CreateTable { id, name, owner, tablespace, indexes }
            }
            7 => CatalogChange::DropTable { id: ObjectId(r.get_u32("table id")?) },
            8 => CatalogChange::AllocExtent {
                table: ObjectId(r.get_u32("table id")?),
                extent: Extent {
                    file: FileNo(r.get_u32("extent file")?),
                    start: r.get_u32("extent start")?,
                    len: r.get_u32("extent len")?,
                },
            },
            _ => return Err(DecodeError { context: "catalog change tag" }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_table_change(id: u32) -> CatalogChange {
        CatalogChange::CreateTable {
            id: ObjectId(id),
            name: format!("T{id}"),
            owner: UserId(1),
            tablespace: TablespaceId(1),
            indexes: vec![IndexDef { name: "PK".into(), cols: vec![0, 1], unique: true, ordered: true }],
        }
    }

    #[test]
    fn apply_create_lookup() {
        let mut c = Catalog::new();
        c.apply(&CatalogChange::CreateUser { id: UserId(1), name: "tpcc".into() });
        c.apply(&CatalogChange::CreateTablespace { id: TablespaceId(1), name: "TPCC".into() });
        c.apply(&make_table_change(1));
        assert_eq!(c.user_by_name("tpcc").unwrap(), UserId(1));
        assert_eq!(c.tablespace_by_name("TPCC").unwrap(), TablespaceId(1));
        assert_eq!(c.table_by_name("T1").unwrap(), ObjectId(1));
        assert!(c.table_by_name("missing").is_err());
    }

    #[test]
    fn apply_is_idempotent() {
        let mut c = Catalog::new();
        let ch = make_table_change(3);
        c.apply(&ch);
        let snapshot = c.clone();
        c.apply(&ch);
        assert_eq!(c, snapshot);
    }

    #[test]
    fn alloc_extent_tracks_high_water() {
        let mut c = Catalog::new();
        c.apply(&make_table_change(1));
        let ext = Extent { file: FileNo(2), start: 16, len: 16 };
        c.apply(&CatalogChange::AllocExtent { table: ObjectId(1), extent: ext });
        c.apply(&CatalogChange::AllocExtent { table: ObjectId(1), extent: ext });
        assert_eq!(c.table(ObjectId(1)).unwrap().segment.extents.len(), 1);
        assert_eq!(c.file_high_water[&FileNo(2)], 32);
    }

    #[test]
    fn drop_tablespace_cascades() {
        let mut c = Catalog::new();
        c.apply(&CatalogChange::CreateTablespace { id: TablespaceId(1), name: "TPCC".into() });
        c.apply(&CatalogChange::AddDatafile {
            file_no: FileNo(1),
            def: DatafileDef {
                path: "/u01/t1.dbf".into(),
                vfs_id: FileId(9),
                tablespace: TablespaceId(1),
                blocks: 128,
            },
        });
        c.apply(&make_table_change(1));
        c.apply(&CatalogChange::DropTablespace { id: TablespaceId(1) });
        assert!(c.tablespaces.is_empty());
        assert!(c.datafiles.is_empty());
        assert!(c.tables.is_empty());
    }

    #[test]
    fn change_codec_round_trips() {
        let changes = vec![
            CatalogChange::CreateUser { id: UserId(5), name: "dba".into() },
            CatalogChange::CreateTablespace { id: TablespaceId(2), name: "SYSTEM".into() },
            CatalogChange::AddDatafile {
                file_no: FileNo(7),
                def: DatafileDef {
                    path: "/u02/d.dbf".into(),
                    vfs_id: FileId(3),
                    tablespace: TablespaceId(2),
                    blocks: 1024,
                },
            },
            CatalogChange::DropTablespace { id: TablespaceId(2) },
            make_table_change(9),
            CatalogChange::DropTable { id: ObjectId(9) },
            CatalogChange::AllocExtent {
                table: ObjectId(9),
                extent: Extent { file: FileNo(7), start: 0, len: 16 },
            },
        ];
        for ch in changes {
            let mut w = Writer::new();
            ch.encode(&mut w);
            let mut r = Reader::new(w.into_bytes());
            assert_eq!(CatalogChange::decode(&mut r).unwrap(), ch);
        }
        // Tag 2 was a user drop nothing ever logged; it now decodes as a
        // malformed change.
        let mut w = Writer::new();
        w.put_u8(2);
        w.put_u32(5);
        let mut r = Reader::new(w.into_bytes());
        assert_eq!(
            CatalogChange::decode(&mut r),
            Err(DecodeError { context: "catalog change tag" })
        );
    }

    #[test]
    fn segment_block_iteration() {
        let seg = Segment {
            extents: vec![
                Extent { file: FileNo(1), start: 0, len: 2 },
                Extent { file: FileNo(2), start: 8, len: 2 },
            ],
        };
        let blocks: Vec<_> = seg.blocks().collect();
        assert_eq!(
            blocks,
            vec![(FileNo(1), 0), (FileNo(1), 1), (FileNo(2), 8), (FileNo(2), 9)]
        );
    }

    #[test]
    fn id_allocation_respects_replayed_ids() {
        let mut c = Catalog::new();
        c.apply(&make_table_change(10));
        assert_eq!(c.next_object_id(), ObjectId(11));
    }
}
