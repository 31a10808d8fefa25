//! Every way to a datafile block says the same thing about a damaged one.
//!
//! A stored block is damaged behind the engine's back, then read through
//! each path that turns stored bytes into rows: the charged read, the
//! three uncharged peeks, the two checksum walks and media recovery's
//! scan. They must agree — the same typed error, or the same file named —
//! and only the paths that can record (`&mut`) count the mismatch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use recobench_engine::catalog::IndexDef;
use recobench_engine::{DbError, DbServer, DiskLayout, EngineEvent, InstanceConfig, ObjectId, Row, RowId, Value};
use recobench_sim::{SimClock, SimTime};
use recobench_vfs::VfsError;

const ROWS: u64 = 12;

fn row(k: u64) -> Row {
    Row::new(vec![Value::U64(k), Value::from("payload")])
}

/// One table whose rows share a single block, backed up half-way, with
/// every image on disk and nothing in the cache; and the count of
/// `ChecksumMismatch` events its stream has carried since it was built.
fn server() -> (DbServer, ObjectId, RowId, String, Arc<AtomicU64>) {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(64 * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(60)
        .archive_mode(true)
        .cache_blocks(64)
        .build();
    let mut srv = DbServer::on_fresh_disks("DOOR", SimClock::shared(), DiskLayout::four_disk(), cfg);
    let mismatches = Arc::new(AtomicU64::new(0));
    let tap = Arc::clone(&mismatches);
    srv.events_mut().subscribe(move |_, e| {
        if matches!(e, EngineEvent::ChecksumMismatch { .. }) {
            tap.fetch_add(1, Ordering::Relaxed);
        }
    });
    srv.create_database().unwrap();
    srv.create_user("app").unwrap();
    srv.create_tablespace("DATA", 2, 512).unwrap();
    let pk = IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true };
    let t = srv.create_table("T", "app", "DATA", vec![pk]).unwrap();
    let mut rids = Vec::new();
    for half in [0..ROWS / 2, ROWS / 2..ROWS] {
        let s = srv.connect().unwrap();
        for k in half {
            rids.push(srv.insert(s, t, row(k)).unwrap());
            srv.commit(s).unwrap();
        }
        // The second half exists only in the redo media recovery replays.
        if rids.len() as u64 == ROWS / 2 {
            srv.take_cold_backup().unwrap();
        }
    }
    let rid = rids[0];
    assert!(rids.iter().all(|r| (r.file, r.block) == (rid.file, rid.block)), "one block: {rids:?}");
    // A restart leaves every image on disk and the cache empty.
    srv.shutdown_normal().unwrap();
    srv.startup().unwrap();
    let path = srv
        .datafile_paths("DATA")
        .unwrap()
        .into_iter()
        .find(|p| {
            let fs = srv.fs().lock();
            !fs.peek_blocks_written(fs.lookup(p).unwrap()).unwrap().is_empty()
        })
        .unwrap();
    (srv, t, rid, path, mismatches)
}

/// Flips the lowest bit of byte `at` of the stored image.
fn flip_stored_bit(srv: &DbServer, path: &str, block: u32, at: usize) {
    let mut fs = srv.fs().lock();
    let id = fs.lookup(path).unwrap();
    let mut image = fs.peek_block(id, u64::from(block)).unwrap().to_vec();
    image[at] ^= 1;
    fs.write_block(id, u64::from(block), Bytes::from(image), SimTime::ZERO).unwrap();
}

fn checksum_mismatch(path: &str, block: u32) -> DbError {
    DbError::ChecksumMismatch { path: path.to_string(), block: u64::from(block) }
}

fn media_corrupt(path: &str, _block: u32) -> DbError {
    DbError::Media(VfsError::Corrupt(path.to_string()))
}

/// One way of damaging a stored block, and what every reader must then say.
struct Damage {
    name: &'static str,
    inflict: fn(&DbServer, &str, u32),
    /// The typed error of every read that reaches the block.
    error: fn(&str, u32) -> DbError,
    /// Silent damage — the vfs reports nothing, only the block's CRC knows.
    silent: bool,
}

const DAMAGE: &[Damage] = &[
    Damage {
        name: "a CRC-covered bit",
        // Byte 10 is inside the block SCN, behind the six header bytes.
        inflict: |srv, path, block| flip_stored_bit(srv, path, block, 10),
        error: checksum_mismatch,
        silent: true,
    },
    Damage {
        // Header damage is silent damage like any other: with the low bit
        // flipped the image used to pass for a pre-checksum one and read,
        // unverified, as an empty block.
        name: "the magic byte",
        inflict: |srv, path, block| flip_stored_bit(srv, path, block, 0),
        error: checksum_mismatch,
        silent: true,
    },
    Damage {
        name: "vfs-level corruption",
        inflict: |srv, path, block| {
            let (_, blocks) = srv.fs().lock().corrupt_path(path, 1).unwrap();
            assert_eq!(blocks, [u64::from(block)]);
        },
        error: media_corrupt,
        silent: false,
    },
];

#[test]
fn every_way_in_agrees_on_a_damaged_block() {
    for damage in DAMAGE {
        let what = damage.name;
        let (mut srv, t, rid, path, mismatches) = server();
        (damage.inflict)(&srv, &path, rid.block);
        let want = (damage.error)(&path, rid.block);
        let counted = |srv: &DbServer| {
            let events = mismatches.load(Ordering::Relaxed);
            assert_eq!(srv.stats().checksum_mismatches, events, "{what}: counter and events");
            events
        };

        // The uncharged readers: the same error, nothing recorded.
        assert_eq!(srv.peek_row(t, rid), Err(want.clone()), "{what}: peek_row");
        assert_eq!(srv.peek_reader().row(t, rid), Err(want.clone()), "{what}: PeekReader::row");
        assert_eq!(srv.peek_scan(t), Err(want.clone()), "{what}: peek_scan");
        let probe = srv.datafiles_with_bad_checksums().unwrap();
        let named = if damage.silent { vec![path.clone()] } else { Vec::new() };
        assert_eq!(probe, named, "{what}: the probe hunts silent damage only");
        let report = srv.verify_integrity().unwrap();
        let file_finding = if damage.silent {
            format!("({path}): block {} fails verification (checksum mismatch)", rid.block)
        } else {
            format!("({path}) is damaged but not offline")
        };
        assert!(
            report.violations.iter().any(|v| v.ends_with(&file_finding)),
            "{what}: no {file_finding:?} in {:?}",
            report.violations
        );
        assert!(
            report.violations.contains(&format!("table T: heap unreadable: {want}")),
            "{what}: {:?}",
            report.violations
        );
        assert_eq!(counted(&srv), 0, "{what}: a shared borrow cannot record");

        // The charged read: the same error, recorded if it was a CRC's find.
        assert_eq!(srv.get_row(t, rid), Err(want), "{what}: get_row");
        assert_eq!(counted(&srv), u64::from(damage.silent), "{what}: get_row records");

        // Media recovery's scan finds it again (loud damage needs no scan),
        // restores the file and rolls it forward.
        srv.recover_datafile(&path).unwrap();
        assert_eq!(counted(&srv), 2 * u64::from(damage.silent), "{what}: the scan records");
        assert_eq!(srv.get_row(t, rid), Ok(row(0)), "{what}: get_row after recovery");
        assert_eq!(srv.peek_row(t, rid), Ok(Some(row(0))), "{what}: peek_row after recovery");
        assert_eq!(srv.peek_reader().row(t, rid), Ok(Some(row(0))), "{what}: PeekReader after recovery");
        assert_eq!(srv.peek_scan(t).unwrap().len() as u64, ROWS, "{what}: rows after recovery");
        assert_eq!(srv.datafiles_with_bad_checksums().unwrap(), Vec::<String>::new(), "{what}");
        let report = srv.verify_integrity().unwrap();
        assert!(report.is_clean(), "{what}: {:?}", report.violations);
    }
}
