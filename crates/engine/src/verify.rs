//! Structural integrity walkers: heap ↔ index ↔ control file ↔ catalog.
//!
//! [`DbServer::verify_integrity`] proves (or disproves) the internal
//! consistency of an *open* database, independently of any workload-level
//! oracle:
//!
//! * **index ↔ heap** — every heap row is reachable through every index of
//!   its table under the right key, and every index entry resolves to a
//!   live heap row (no stale or dangling entries). One pass over the
//!   entries proves both: an entry resolving to a row under the row's own
//!   key marks the row, and as an index holds each key once, a row is
//!   reachable under its key exactly when it is marked;
//! * **catalog ↔ storage** — every datafile the dictionary knows about is
//!   alive in the filesystem (unless the control file says it is
//!   legitimately offline), and every segment extent lies inside its
//!   datafile;
//! * **control file ↔ catalog** — the current log sequence is registered,
//!   a checkpoint exists, and offline-tablespace entries reference real
//!   tablespaces.
//!
//! The walkers use the zero-cost inspection interfaces, so they never
//! perturb simulated time. Each table's heap is scanned once: the torture
//! oracle (`recobench-oracle`) runs them after every experiment and merges
//! its model's rows against that scan, which
//! [`DbServer::verify_integrity_with`] lends in rid order.

use crate::blockio::{checksum_walk, unavailable};
use crate::error::{DbError, DbResult};
use crate::index::Index;
use crate::row::Row;
use crate::server::DbServer;
use crate::types::{ObjectId, RowId};

/// Outcome of one integrity walk. `violations` is empty iff the database
/// passed every check; each entry is one human-readable finding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Tables walked.
    pub tables_checked: u64,
    /// Heap rows visited.
    pub rows_checked: u64,
    /// Index entries visited.
    pub index_entries_checked: u64,
    /// Datafiles cross-checked against the filesystem.
    pub datafiles_checked: u64,
    /// Written datafile blocks whose stored image was checksum-verified.
    pub blocks_checksummed: u64,
    /// Every violation found, most specific first.
    pub violations: Vec<String>,
}

impl IntegrityReport {
    /// Whether the walk found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// What [`DbServer::verify_integrity_with`] lends each table's heap scan
/// to: the table, and its rows in rid order.
pub type HeapVisitor<'a> = dyn FnMut(ObjectId, &mut dyn Iterator<Item = &(RowId, Row)>) + 'a;

impl DbServer {
    /// Walks the heap/index/control-file/catalog invariants of the open
    /// database and reports every violation found.
    ///
    /// # Errors
    ///
    /// Fails only if the instance is down — an unreadable table or file is
    /// a *violation*, not an error, so a damaged database still produces a
    /// report.
    pub fn verify_integrity(&self) -> DbResult<IntegrityReport> {
        self.verify_integrity_with(&mut |_, _| {})
    }

    /// [`DbServer::verify_integrity`], lending each table's heap rows, in
    /// rid order, to `visit` as the walk reads them, in table-id order. A
    /// table the walk does not read (its storage legitimately offline, its
    /// heap unreadable, no control file) is not visited.
    ///
    /// # Errors
    ///
    /// As [`DbServer::verify_integrity`].
    pub fn verify_integrity_with(&self, visit: &mut HeapVisitor<'_>) -> DbResult<IntegrityReport> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let mut report = IntegrityReport::default();

        // ---- control file ↔ catalog ----------------------------------
        let control = match self.control.as_ref() {
            Some(c) => c,
            None => {
                report.violations.push("instance open without a control file".into());
                return Ok(report);
            }
        };
        if control.checkpoints.is_empty() {
            report.violations.push("control file holds no checkpoint record".into());
        }
        if control.seq(control.current_seq).is_none() {
            report
                .violations
                .push(format!("current log seq {} is not registered", control.current_seq));
        }
        for ts in &control.ts_offline {
            if !inst.catalog.tablespaces.contains_key(ts) {
                report
                    .violations
                    .push(format!("offline entry for unknown tablespace id {}", ts.0));
            }
        }

        // ---- catalog ↔ storage ---------------------------------------
        {
            let fs = self.fs.lock();
            for (no, df) in &inst.catalog.datafiles {
                report.datafiles_checked += 1;
                let offline =
                    unavailable(control, &inst.catalog, *no, df.tablespace).is_some();
                let healthy = fs.meta(df.vfs_id).is_ok_and(|m| !m.deleted);
                if !healthy && !offline {
                    report.violations.push(format!(
                        "datafile {} ({}) is damaged but not offline",
                        no.0, df.path
                    ));
                }
                // Every written block of a readable file must decode with
                // a valid CRC.
                if healthy && !offline {
                    if let Ok(walk) = checksum_walk(&fs, df.vfs_id, &df.path) {
                        report.blocks_checksummed += walk.blocks;
                        for (block, e) in walk.bad {
                            let what = match e {
                                DbError::ChecksumMismatch { .. } => "checksum mismatch",
                                _ => "undecodable image",
                            };
                            report.violations.push(format!(
                                "datafile {} ({}): block {block} fails verification ({what})",
                                no.0, df.path
                            ));
                        }
                    }
                }
                if !inst.catalog.tablespaces.contains_key(&df.tablespace) {
                    report.violations.push(format!(
                        "datafile {} belongs to unknown tablespace id {}",
                        no.0, df.tablespace.0
                    ));
                }
            }
        }

        // ---- heap ↔ index, per table ---------------------------------
        for (obj, table) in &inst.catalog.tables {
            report.tables_checked += 1;
            for extent in &table.segment.extents {
                match inst.catalog.datafiles.get(&extent.file) {
                    Some(df) if extent.start as u64 + extent.len as u64 > df.blocks => {
                        report.violations.push(format!(
                            "table {}: extent [{}+{}) overruns datafile {} ({} blocks)",
                            table.name, extent.start, extent.len, extent.file.0, df.blocks
                        ));
                    }
                    Some(_) => {}
                    None => {
                        report.violations.push(format!(
                            "table {}: extent references unknown datafile {}",
                            table.name, extent.file.0
                        ));
                    }
                }
            }
            let skip_scan = table.segment.extents.iter().any(|e| {
                unavailable(control, &inst.catalog, e.file, table.tablespace).is_some()
            });
            if skip_scan {
                // Storage legitimately offline: heap contents unreadable
                // by design, nothing to cross-check.
                continue;
            }
            let rows = match self.peek_scan(*obj) {
                Ok(r) => r,
                Err(e) => {
                    report
                        .violations
                        .push(format!("table {}: heap unreadable: {e}", table.name));
                    continue;
                }
            };
            report.rows_checked += rows.len() as u64;
            // The scan in rid order, each rid with its row's place in
            // `rows` (which stays in scan order for the findings).
            let mut by_rid: Vec<(RowId, u32)> =
                rows.iter().zip(0..).map(|((rid, _), at)| (*rid, at)).collect();
            by_rid.sort_unstable();
            visit(*obj, &mut by_rid.iter().map(|&(_, at)| &rows[at as usize]));
            let Some(indexes) = inst.indexes.get(obj) else {
                if !table.indexes.is_empty() {
                    report
                        .violations
                        .push(format!("table {}: indexes not instantiated", table.name));
                }
                continue;
            };
            if indexes.len() != table.indexes.len() {
                report.violations.push(format!(
                    "table {}: {} indexes instantiated, {} defined",
                    table.name,
                    indexes.len(),
                    table.indexes.len()
                ));
            }
            for ix in indexes.iter() {
                check_index(&table.name, ix, &rows, &by_rid, &mut report);
            }
        }
        Ok(report)
    }

    /// Paths of online datafiles holding at least one written block that
    /// no longer decodes (bad CRC or structural garbage) — the detection
    /// step of torn-write and bit-rot recovery, cheap enough to run as a
    /// health probe without the full integrity walk.
    ///
    /// # Errors
    ///
    /// Fails only if the instance is down.
    pub fn datafiles_with_bad_checksums(&self) -> DbResult<Vec<String>> {
        let inst = self.inst.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let control = self.control.as_ref().ok_or_else(|| DbError::InstanceDown)?;
        let fs = self.fs.lock();
        let mut bad = Vec::new();
        for (no, df) in &inst.catalog.datafiles {
            if unavailable(control, &inst.catalog, *no, df.tablespace).is_some() {
                continue;
            }
            // Loud damage (a deleted file) is the integrity walk's
            // business; this probe hunts damaged bytes only, so a file the
            // vfs refuses is simply skipped.
            if checksum_walk(&fs, df.vfs_id, &df.path).is_ok_and(|walk| !walk.bad.is_empty()) {
                bad.push(df.path.clone());
            }
        }
        Ok(bad)
    }
}

/// Checks `ix` against the heap in one pass over its entries, marking the
/// rows they reach under the rows' own keys: the unmarked rows are the
/// ones missing from the index (module doc).
fn check_index(
    table: &str,
    ix: &Index,
    rows: &[(RowId, Row)],
    by_rid: &[(RowId, u32)],
    report: &mut IntegrityReport,
) {
    let name = &ix.def().name;
    let (mut marked, mut entries) = (vec![false; rows.len()], 0);
    let (mut entry_findings, mut key) = (Vec::new(), Vec::new());
    for (entry_key, rids) in ix.entries() {
        entries += rids.len();
        for rid in rids {
            let finding = match by_rid.binary_search_by_key(rid, |&(r, _)| r) {
                Err(_) => "dangles (no heap row)",
                Ok(at) => {
                    let at = by_rid[at].1 as usize;
                    ix.key_of_into(&rows[at].1, &mut key);
                    if key == entry_key {
                        marked[at] = true;
                        continue;
                    }
                    "keyed under stale key"
                }
            };
            entry_findings.push(format!("table {table}: index {name} entry {rid:?} {finding}"));
        }
    }
    // Missing rows in scan order, the entry count, then the entries'
    // findings in entry order.
    for ((rid, _), _) in rows.iter().zip(&marked).filter(|(_, marked)| !**marked) {
        report.violations.push(format!("table {table}: row {rid:?} missing from index {name}"));
    }
    report.index_entries_checked += entries as u64;
    if entries != rows.len() {
        report.violations.push(format!(
            "table {table}: index {name} holds {entries} entries for {} heap rows",
            rows.len()
        ));
    }
    report.violations.append(&mut entry_findings);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexDef;
    use crate::config::InstanceConfig;
    use crate::layout::DiskLayout;
    use crate::row::Value;
    use recobench_sim::SimClock;

    fn server() -> DbServer {
        let cfg = InstanceConfig::builder()
            .redo_file_bytes(64 * 1024)
            .redo_groups(3)
            .checkpoint_timeout_secs(60)
            .archive_mode(true)
            .cache_blocks(64)
            .build();
        let mut srv = DbServer::on_fresh_disks("VFY", SimClock::shared(), DiskLayout::four_disk(), cfg);
        srv.create_database().unwrap();
        srv.create_user("app").unwrap();
        srv.create_tablespace("DATA", 2, 512).unwrap();
        srv.create_table(
            "T",
            "app",
            "DATA",
            vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
        )
        .unwrap();
        srv
    }

    #[test]
    fn healthy_database_verifies_clean() {
        let mut srv = server();
        let t = srv.table_id("T").unwrap();
        let s = srv.connect().unwrap();
        for i in 0..25u64 {
            srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("v")])).unwrap();
            srv.commit(s).unwrap();
        }
        let report = srv.verify_integrity().unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.rows_checked, 25);
        assert!(report.index_entries_checked >= 25);
        assert!(report.datafiles_checked >= 2);
    }

    #[test]
    fn verify_survives_recovery_round_trip() {
        let mut srv = server();
        let t = srv.table_id("T").unwrap();
        let s = srv.connect().unwrap();
        for i in 0..30u64 {
            srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("v")])).unwrap();
            srv.commit(s).unwrap();
        }
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        let report = srv.verify_integrity().unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn damaged_datafile_is_reported_when_not_offline() {
        let mut srv = server();
        let victim = srv.datafile_paths("DATA").unwrap()[0].clone();
        srv.os_delete_file(&victim).unwrap();
        let report = srv.verify_integrity().unwrap();
        assert!(
            report.violations.iter().any(|v| v.contains("damaged but not offline")),
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn offline_tablespace_is_not_a_violation() {
        let mut srv = server();
        srv.offline_tablespace("DATA").unwrap();
        let report = srv.verify_integrity().unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn bit_rot_is_caught_by_the_checksum_walk() {
        let mut srv = server();
        let t = srv.table_id("T").unwrap();
        let s = srv.connect().unwrap();
        for i in 0..25u64 {
            srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("v")])).unwrap();
            srv.commit(s).unwrap();
        }
        // Push every image to disk, then rot one bit behind the engine's back.
        srv.checkpoint_now().unwrap();
        let clean = srv.verify_integrity().unwrap();
        assert!(clean.is_clean());
        assert!(clean.blocks_checksummed > 0, "the walk must actually visit blocks");
        // Rot whichever DATA file actually holds written blocks.
        let paths = srv.datafile_paths("DATA").unwrap();
        let rotted = paths.iter().any(|p| srv.sabotage_bit_rot(p, 7).is_ok());
        assert!(rotted, "no datafile had written blocks to rot");
        let report = srv.verify_integrity().unwrap();
        assert!(
            report.violations.iter().any(|v| v.contains("fails verification")),
            "a flipped bit must fail the checksum walk; violations: {:?}",
            report.violations
        );
        // The cheap health probe agrees with the full walk.
        let bad = srv.datafiles_with_bad_checksums().unwrap();
        assert_eq!(bad.len(), 1, "exactly one datafile was rotted: {bad:?}");
    }

    /// Pins the whole report — every counter, every violation string, their
    /// order — for one table damaged three ways at once, on a heap whose
    /// scan order is not rid order (`T` takes file 1's first extent, so
    /// `WIDE` starts in file 2 and continues in file 1).
    #[test]
    fn three_way_damage_report_is_pinned() {
        let mut srv = server();
        // An ordered unique index and a non-unique point index, so both
        // key stores are walked.
        srv.create_table(
            "WIDE",
            "app",
            "DATA",
            vec![
                IndexDef { name: "WIDE_PK".into(), cols: vec![0], unique: true, ordered: true },
                IndexDef { name: "BY_GROUP".into(), cols: vec![2], unique: false, ordered: false },
            ],
        )
        .unwrap();
        let t = srv.table_id("T").unwrap();
        let wide = srv.table_id("WIDE").unwrap();
        let row = |i: u64| {
            Row::new(vec![Value::U64(i), Value::from("x".repeat(1500).as_str()), Value::U64(i % 7)])
        };
        let s = srv.connect().unwrap();
        srv.insert(s, t, Row::new(vec![Value::U64(0), Value::from("v")])).unwrap();
        let rids: Vec<RowId> = (0..340u64).map(|i| srv.insert(s, wide, row(i)).unwrap()).collect();
        srv.commit(s).unwrap();
        srv.checkpoint_now().unwrap();

        let extents =
            srv.inst.as_ref().unwrap().catalog.table(wide).unwrap().segment.extents.clone();
        assert_eq!(extents.len(), 2, "fixture must span two extents: {extents:?}");
        assert!(extents[0].file > extents[1].file, "scan order must differ from rid order");
        let scanned: Vec<RowId> =
            srv.peek_scan(wide).unwrap().into_iter().map(|(r, _)| r).collect();
        assert_eq!(scanned, rids, "the heap scans in insertion order");
        assert!(!scanned.is_sorted(), "...which is not rid order");

        // Damage, all in the PK unless noted: row 3 (first extent) and row
        // 330 (second extent, lower rid) lose their entries; row 331 is
        // re-keyed under 9001; 9002 points at a block the table never had;
        // BY_GROUP loses row 5 and gains a dangling entry in group 3.
        let ghost = RowId { file: extents[1].file, block: 9999, slot: 1 };
        let inst = srv.inst.as_mut().unwrap();
        let ixs = std::sync::Arc::make_mut(inst.indexes.get_mut(&wide).unwrap());
        ixs[0].remove(&row(3), rids[3]);
        ixs[0].remove(&row(330), rids[330]);
        ixs[0].remove(&row(331), rids[331]);
        ixs[0].insert(&row(9001), rids[331]).unwrap();
        ixs[0].insert(&row(9002), ghost).unwrap();
        ixs[1].remove(&row(5), rids[5]);
        ixs[1].insert(&row(3), ghost).unwrap();

        let report = srv.verify_integrity().unwrap();
        let (r3, r5, r330, r331) = (rids[3], rids[5], rids[330], rids[331]);
        let want = vec![
            format!("table WIDE: row {r3:?} missing from index WIDE_PK"),
            format!("table WIDE: row {r330:?} missing from index WIDE_PK"),
            format!("table WIDE: row {r331:?} missing from index WIDE_PK"),
            "table WIDE: index WIDE_PK holds 339 entries for 340 heap rows".to_string(),
            format!("table WIDE: index WIDE_PK entry {r331:?} keyed under stale key"),
            format!("table WIDE: index WIDE_PK entry {ghost:?} dangles (no heap row)"),
            format!("table WIDE: row {r5:?} missing from index BY_GROUP"),
            format!("table WIDE: index BY_GROUP entry {ghost:?} dangles (no heap row)"),
        ];
        assert_eq!(report.violations, want);
        assert_eq!(report.tables_checked, 2);
        assert_eq!(report.rows_checked, 341);
        assert_eq!(report.index_entries_checked, 1 + 339 + 340);
        assert_eq!(report.datafiles_checked, 2);
        assert_eq!(report.blocks_checksummed, 69);
    }

    /// The walk's heap ↔ index half as it was before `check_index`, kept
    /// as the reference the one-pass check must equal: per table, a
    /// rid-sorted view of the scan as positions into it; per index, every
    /// heap row probed through the index under its key, then every entry
    /// resolved back to the heap. Starts from `walked`, the one-pass
    /// walk's report, with its index findings and entry count cleared.
    fn two_pass_report(srv: &DbServer, walked: &IntegrityReport) -> IntegrityReport {
        let mut report =
            IntegrityReport { index_entries_checked: 0, violations: Vec::new(), ..walked.clone() };
        let inst = srv.inst.as_ref().unwrap();
        for (obj, table) in &inst.catalog.tables {
            let rows = srv.peek_scan(*obj).unwrap();
            let mut by_rid: Vec<u32> = (0..rows.len() as u32).collect();
            by_rid.sort_unstable_by_key(|&i| rows[i as usize].0);
            let mut key = Vec::new();
            for ix in inst.indexes[obj].iter() {
                let (table, name) = (&table.name, &ix.def().name);
                for (rid, row) in &rows {
                    if !ix.lookup_row_ref(row).contains(rid) {
                        report
                            .violations
                            .push(format!("table {table}: row {rid:?} missing from index {name}"));
                    }
                }
                let entries = ix.entry_count();
                report.index_entries_checked += entries as u64;
                if entries != rows.len() {
                    report.violations.push(format!(
                        "table {table}: index {name} holds {entries} entries for {} heap rows",
                        rows.len()
                    ));
                }
                for (entry_key, rids) in ix.entries() {
                    for rid in rids {
                        match by_rid.binary_search_by_key(rid, |&i| rows[i as usize].0) {
                            Ok(at) => {
                                ix.key_of_into(&rows[by_rid[at] as usize].1, &mut key);
                                if key != entry_key {
                                    report.violations.push(format!(
                                        "table {table}: index {name} entry {rid:?} keyed under stale key"
                                    ));
                                }
                            }
                            Err(_) => report.violations.push(format!(
                                "table {table}: index {name} entry {rid:?} dangles (no heap row)"
                            )),
                        }
                    }
                }
            }
        }
        report
    }

    fn wide_row(i: u64) -> Row {
        Row::new(vec![Value::U64(i), Value::from("x".repeat(1500).as_str()), Value::U64(i % 7)])
    }

    /// `WIDE`, 340 rows over two extents whose scan order is not rid
    /// order, under every kind of index: ordered and point, unique and
    /// not. Returns the server, the table and the rows' rids.
    fn wide_server() -> (DbServer, ObjectId, Vec<RowId>) {
        let mut srv = server();
        let def = |name: &str, col, unique, ordered| IndexDef {
            name: name.into(),
            cols: vec![col],
            unique,
            ordered,
        };
        srv.create_table(
            "WIDE",
            "app",
            "DATA",
            vec![
                def("PK_ORDERED", 0, true, true),
                def("GROUP_ORDERED", 2, false, true),
                def("PK_POINT", 0, true, false),
                def("GROUP_POINT", 2, false, false),
            ],
        )
        .unwrap();
        let t = srv.table_id("T").unwrap();
        let wide = srv.table_id("WIDE").unwrap();
        let s = srv.connect().unwrap();
        srv.insert(s, t, Row::new(vec![Value::U64(0), Value::from("v")])).unwrap();
        let rids = (0..340u64).map(|i| srv.insert(s, wide, wide_row(i)).unwrap()).collect();
        srv.commit(s).unwrap();
        srv.checkpoint_now().unwrap();
        (srv, wide, rids)
    }

    #[test]
    fn the_visitor_sees_each_read_table_once_in_rid_order() {
        let (srv, wide, _) = wide_server();
        let mut seen = Vec::new();
        let report = srv
            .verify_integrity_with(&mut |obj, rows| {
                seen.push((obj, rows.map(|(rid, _)| *rid).collect()));
            })
            .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let want: Vec<(ObjectId, Vec<RowId>)> = [srv.table_id("T").unwrap(), wide]
            .into_iter()
            .map(|obj| {
                let mut rids: Vec<RowId> =
                    srv.peek_scan(obj).unwrap().into_iter().map(|(r, _)| r).collect();
                rids.sort_unstable();
                (obj, rids)
            })
            .collect();
        assert_eq!(seen, want);
    }

    /// The one-pass walk reports exactly what the two-pass walk it
    /// replaced reports — every counter, every finding, in order — under
    /// random damage to ordered and point indexes, unique and not: an
    /// entry removed, an entry re-keyed, a ghost rid, a rid listed twice.
    #[test]
    fn one_pass_index_check_equals_the_two_pass_walk() {
        use proptest::prelude::{Strategy, TestRng};

        let (mut srv, wide, rids) = wide_server();
        let heap = srv.peek_scan(wide).unwrap();
        let pristine = std::sync::Arc::clone(&srv.inst.as_ref().unwrap().indexes[&wide]);
        let damages = proptest::collection::vec((0usize..4, 0u8..4, 0usize..340, 0u64..400), 0..8);
        let mut rng = TestRng::deterministic("verify::one_pass_index_check");
        let kinds = ["missing from index", "entries for", "stale key", "dangles"];
        let mut seen = [0; 4];
        for _ in 0..128 {
            let damage = damages.generate(&mut rng);
            let mut ixs = (*pristine).clone();
            for &(ix, kind, n, param) in &damage {
                let (rid, ix) = (rids[n], &mut ixs[ix]);
                match kind {
                    0 => ix.remove(&wide_row(n as u64), rid),
                    1 => {
                        ix.remove(&wide_row(n as u64), rid);
                        let _ = ix.insert(&wide_row(param), rid);
                    }
                    2 => {
                        let ghost = if param % 2 == 0 {
                            RowId { block: 9000 + param as u32, ..rid }
                        } else {
                            RowId { slot: rid.slot + 100, ..rid }
                        };
                        let _ = ix.insert(&wide_row(param), ghost);
                    }
                    // Listed twice: under its own key again (a rebuild from
                    // a scan that read the row twice), or, where a unique
                    // index keeps one rid per key, under a second key.
                    _ if !ix.def().unique => {
                        let mut twice = heap.clone();
                        twice.push((rid, wide_row(n as u64)));
                        ix.bulk_load(&twice);
                    }
                    _ => {
                        let _ = ix.insert(&wide_row(1000 + param), rid);
                    }
                }
            }
            srv.inst.as_mut().unwrap().indexes.insert(wide, std::sync::Arc::new(ixs));
            let one_pass = srv.verify_integrity().unwrap();
            assert_eq!(one_pass, two_pass_report(&srv, &one_pass), "damage {damage:?}");
            for (kind, seen) in kinds.iter().zip(&mut seen) {
                *seen += one_pass.violations.iter().filter(|v| v.contains(kind)).count();
            }
        }
        assert!(seen.iter().all(|&n| n > 20), "every kind of finding must come up: {seen:?}");
    }

    #[test]
    fn stale_index_entry_is_detected() {
        let mut srv = server();
        let t = srv.table_id("T").unwrap();
        let s = srv.connect().unwrap();
        let rid = srv.insert(s, t, Row::new(vec![Value::U64(1), Value::from("v")])).unwrap();
        srv.commit(s).unwrap();
        // Corrupt the index directly: remove the entry behind the heap's back.
        let inst = srv.inst.as_mut().unwrap();
        let row = Row::new(vec![Value::U64(1), Value::from("v")]);
        std::sync::Arc::make_mut(inst.indexes.get_mut(&t).unwrap())[0].remove(&row, rid);
        let report = srv.verify_integrity().unwrap();
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.contains("missing from index")));
    }
}
