//! Every way to a datafile block says the same thing about a damaged one.
//!
//! A stored block is damaged behind the engine's back, then read through
//! each path that turns stored bytes into rows: the charged read, the
//! three uncharged peeks, the two checksum walks and media recovery's
//! scan. They must agree — the same typed error, or the same file named —
//! and only the paths that can record (`&mut`) count a CRC's find.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use recobench_engine::catalog::IndexDef;
use recobench_engine::codec::crc32;
use recobench_engine::page::BLOCK_FORMAT;
use recobench_engine::{
    DbError, DbServer, DiskLayout, EngineEvent, InstanceConfig, ObjectId, RecoveryPhase, Row, RowId, Value,
};
use recobench_sim::{SimClock, SimTime};
use recobench_vfs::{FaultArm, FileMatch, VfsError};

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

/// Replaces the stored image with what `edit` makes of it.
fn rewrite_stored_image(srv: &DbServer, path: &str, block: u32, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut fs = srv.fs().lock();
    let id = fs.lookup(path).unwrap();
    let mut image = fs.peek_block(id, u64::from(block)).unwrap().to_vec();
    edit(&mut image);
    fs.write_block(id, u64::from(block), Bytes::from(image), SimTime::ZERO).unwrap();
}

/// Flips the lowest bit of byte `at` of the stored image.
fn flip_stored_bit(srv: &DbServer, path: &str, block: u32, at: usize) {
    rewrite_stored_image(srv, path, block, |image| image[at] ^= 1);
}

/// Stores `[magic][format][crc32(body)][body]` with a four-byte body: the
/// CRC holds, and the body stops inside the block SCN.
fn store_undecodable_image(srv: &DbServer, path: &str, block: u32) {
    let body = [0, 0, 0, 9];
    rewrite_stored_image(srv, path, block, |image| {
        *image = vec![0xB1, BLOCK_FORMAT];
        image.extend_from_slice(&crc32(&body).to_be_bytes());
        image.extend_from_slice(&body);
    });
}

fn checksum_mismatch(path: &str, block: u32) -> DbError {
    DbError::ChecksumMismatch { path: path.to_string(), block: u64::from(block) }
}

fn media_corrupt(path: &str, _block: u32) -> DbError {
    DbError::Media(VfsError::Corrupt(path.to_string()))
}

/// One way of damaging a stored block, and what every reader must then say.
/// Every damage is bytes the engine's own decode judges, so the checksum
/// probe names the file whatever the damage.
struct Damage {
    name: &'static str,
    inflict: fn(&DbServer, &str, u32),
    /// The typed error of every read that reaches the block.
    error: fn(&str, u32) -> DbError,
    /// How `verify_integrity` says the block fails.
    verdict: &'static str,
    /// Whether a `&mut` read counts a `checksum_mismatch`: a CRC's find is
    /// counted, structural garbage behind a valid CRC is not.
    counted: bool,
}

const DAMAGE: &[Damage] = &[
    Damage {
        name: "a CRC-covered bit",
        // Byte 10 is inside the block SCN, behind the six header bytes.
        inflict: |srv, path, block| flip_stored_bit(srv, path, block, 10),
        error: checksum_mismatch,
        verdict: "checksum mismatch",
        counted: true,
    },
    Damage {
        // Header damage is silent damage like any other: with the low bit
        // flipped the image used to pass for a pre-checksum one and read,
        // unverified, as an empty block.
        name: "the magic byte",
        inflict: |srv, path, block| flip_stored_bit(srv, path, block, 0),
        error: checksum_mismatch,
        verdict: "checksum mismatch",
        counted: true,
    },
    Damage {
        name: "structural garbage behind a valid CRC",
        inflict: store_undecodable_image,
        error: media_corrupt,
        verdict: "undecodable image",
        counted: false,
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
        assert_eq!(srv.datafiles_with_bad_checksums().unwrap(), [path.as_str()], "{what}: the probe");
        let report = srv.verify_integrity().unwrap();
        let file_finding = format!("({path}): block {} fails verification ({})", rid.block, damage.verdict);
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
        assert_eq!(counted(&srv), u64::from(damage.counted), "{what}: get_row records");

        // Media recovery's scan finds it again, restores the file and rolls
        // it forward.
        srv.recover_datafile(&path).unwrap();
        assert_eq!(counted(&srv), 2 * u64::from(damage.counted), "{what}: the scan records");
        assert_eq!(srv.get_row(t, rid), Ok(row(0)), "{what}: get_row after recovery");
        assert_eq!(srv.peek_row(t, rid), Ok(Some(row(0))), "{what}: peek_row after recovery");
        assert_eq!(srv.peek_reader().row(t, rid), Ok(Some(row(0))), "{what}: PeekReader after recovery");
        assert_eq!(srv.peek_scan(t).unwrap().len() as u64, ROWS, "{what}: rows after recovery");
        assert_eq!(srv.datafiles_with_bad_checksums().unwrap(), Vec::<String>::new(), "{what}");
        let report = srv.verify_integrity().unwrap();
        assert!(report.is_clean(), "{what}: {:?}", report.violations);
    }
}

/// A backup piece rots on the backup disk, then the datafile it backs up is
/// deleted. Nothing checks a piece before or after the restore copies it
/// in, so media recovery restores the rotten block, replay reads it back
/// and the procedure ends on the CRC's find: one restore, one replay that
/// stops in its first sequence, no second restore from the same piece. The
/// file is left online and named by both checksum walks. This pins what
/// happens today; it is not a specification of what should.
#[test]
fn a_rotten_backup_piece_ends_media_recovery_on_the_restored_block() {
    let (mut srv, t, rid, path, mismatches) = server();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&seen);
    srv.events_mut().subscribe(move |_, e| {
        let name = match e {
            EngineEvent::PhaseSpan { phase, .. } => phase.name(),
            e => e.name(),
        };
        tap.lock().unwrap().push(name);
    });
    let piece = format!("/backup/{}_b1_f{:02}.bak", srv.name(), rid.file.0);
    srv.fs().lock().arm_fault(FaultArm::BitRot { target: FileMatch::Path(piece), seed: 1 }).unwrap();
    srv.os_delete_file(&path).unwrap();

    let rotten = checksum_mismatch(&path, rid.block);
    assert_eq!(srv.recover_datafile(&path), Err(rotten.clone()));
    assert_eq!(
        *seen.lock().unwrap(),
        [RecoveryPhase::MediaRestore.name(), RecoveryPhase::RedoScan.name(), "checksum_mismatch"]
    );
    assert_eq!(mismatches.load(Ordering::Relaxed), 1);

    assert_eq!(srv.datafiles_with_bad_checksums().unwrap(), [path.as_str()]);
    let report = srv.verify_integrity().unwrap();
    assert_eq!(
        report.violations,
        [
            format!("datafile {} ({path}): block {} fails verification (checksum mismatch)", rid.file.0, rid.block),
            format!("table T: heap unreadable: {rotten}"),
        ]
    );
    assert_eq!(srv.get_row(t, rid), Err(rotten));
}
