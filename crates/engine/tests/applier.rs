//! Invariants of the one applier: every procedure that replays redo — the
//! stand-by's managed recovery, crash recovery, media recovery and
//! point-in-time recovery — drives the same kernel, so the same redo must
//! leave the same blocks, and rolling forward must never write redo (crash
//! recovery alone appends some: the rollback of what the crash killed).

use std::collections::BTreeMap;
use std::sync::Arc;

use recobench_engine::catalog::IndexDef;
use recobench_engine::page::BlockImage;
use recobench_engine::row::{Row, Value};
use recobench_engine::{
    DbServer, DiskLayout, FailoverPolicy, InstanceConfig, ObjectId, ReplicaSet, ReplicaTopology, RowId,
    SessionId,
};
use recobench_sim::{SimClock, SimDuration};

fn cfg() -> InstanceConfig {
    InstanceConfig::builder()
        .redo_file_bytes(48 * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(60)
        .archive_mode(true)
        .cache_blocks(64)
        .build()
}

fn row(k: u64, v: &str) -> Row {
    Row::new(vec![Value::U64(k), Value::from(v)])
}

/// A primary with one table over a two-file tablespace, ten seed rows and
/// a cold backup.
fn primary() -> (DbServer, ObjectId, Vec<RowId>) {
    let mut p = DbServer::on_fresh_disks("PRIM", SimClock::shared(), DiskLayout::four_disk(), cfg());
    p.create_database().unwrap();
    p.create_user("u").unwrap();
    p.create_tablespace("D", 2, 512).unwrap();
    let pk = IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true };
    let t = p.create_table("T", "u", "D", vec![pk]).unwrap();
    let s = p.connect().unwrap();
    let rids = (0..10).map(|k| p.insert(s, t, row(k, "seed")).unwrap()).collect();
    p.commit(s).unwrap();
    p.take_cold_backup().unwrap();
    (p, t, rids)
}

/// Commits insert + update + (every third) delete transactions until a
/// log switch falls inside the *first* statement of a transaction, after
/// at least three switches: every archived sequence then ends on a
/// transaction boundary and the open transaction is left uncommitted (and
/// unflushed) in the new online log.
fn work_up_to_a_clean_archive_boundary(
    p: &mut DbServer,
    t: ObjectId,
    rids: &mut Vec<RowId>,
) -> SessionId {
    let s = p.connect().unwrap();
    let started = p.stats().log_switches;
    let mut k = 99u64;
    loop {
        k += 1;
        let before = p.stats().log_switches;
        let rid = p.insert(s, t, row(k, "workload-row-payload-workload-row-payload")).unwrap();
        if p.stats().log_switches > before && before >= started + 3 {
            return s;
        }
        rids.push(rid);
        let victim = rids[(k as usize * 7) % rids.len()];
        p.update(s, t, victim, row(1_000_000 + k, "updated")).unwrap();
        if k.is_multiple_of(3) {
            let gone = rids.swap_remove((k as usize * 5) % rids.len());
            p.delete(s, t, gone).unwrap();
        }
        p.commit(s).unwrap();
    }
}

/// Every non-empty block image on the tablespace's datafiles, by path.
fn blocks_on_disk(srv: &DbServer) -> BTreeMap<(String, u64), BlockImage> {
    let mut out = BTreeMap::new();
    let fs = srv.fs().lock();
    for path in srv.datafile_paths("D").unwrap() {
        let id = fs.lookup(&path).unwrap();
        for (block, bytes) in fs.peek_blocks_written(id).unwrap() {
            let img = BlockImage::decode(bytes).unwrap();
            if img != BlockImage::empty() {
                out.insert((path.clone(), block), img);
            }
        }
    }
    out
}

fn assert_same_database(a: &DbServer, b: &DbServer, what: &str) {
    assert_eq!(a.tables().unwrap(), b.tables().unwrap(), "{what}: dictionaries");
    for (obj, name) in a.tables().unwrap() {
        assert_eq!(a.peek_scan(obj).unwrap(), b.peek_scan(obj).unwrap(), "{what}: rows of {name}");
    }
    let (a, b) = (blocks_on_disk(a), blocks_on_disk(b));
    assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>(), "{what}: block set");
    for (key, img) in &a {
        assert_eq!(img.last_scn, b[key].last_scn, "{what}: last_scn of {key:?}");
        assert_eq!(img, &b[key], "{what}: image of {key:?}");
    }
}

#[test]
fn standby_crash_and_media_recovery_leave_the_same_blocks() {
    let (mut p, t, mut rids) = primary();
    let mut rs = ReplicaSet::instantiate(
        &p,
        &ReplicaTopology::single(),
        FailoverPolicy::Manual,
        Arc::clone(p.clock()),
        DiskLayout::four_disk(),
        cfg(),
    )
    .unwrap();
    work_up_to_a_clean_archive_boundary(&mut p, t, &mut rids);
    // Let the archiver finish, ship everything, and kill the primary: the
    // stand-by holds exactly the committed history.
    p.clock().advance(SimDuration::from_secs(60));
    rs.sync_all(&p).unwrap();
    p.shutdown_abort().unwrap();
    rs.fail_over(Some(&mut p)).unwrap().expect("a manual failover with one vote promotes");
    let standby = rs.active().unwrap();
    assert!(rs.promoted_records_applied() > 100, "the stand-by applied the archived redo");

    // Crash recovery on the primary: checkpointed blocks plus the online log.
    p.startup().unwrap();
    assert_eq!(p.peek_scan(t).unwrap().len(), rids.len());
    assert_same_database(&p, standby, "crash recovery vs stand-by");

    // Media recovery: each datafile rebuilt from the backup by replaying
    // the same archives the stand-by applied.
    for path in p.datafile_paths("D").unwrap() {
        p.os_delete_file(&path).unwrap();
        p.offline_datafile(&path).unwrap();
        let summary = p.recover_datafile(&path).unwrap();
        assert!(summary.applied > 0 && summary.archives_read >= 3);
        assert_same_database(&p, standby, "media recovery vs stand-by");
    }
}

#[test]
fn rolling_forward_appends_no_redo() {
    let (mut p, t, mut rids) = primary();
    let open = work_up_to_a_clean_archive_boundary(&mut p, t, &mut rids);
    p.disconnect(open);
    let stop = p.current_scn().next();

    // Media recovery of a lost datafile.
    let victim = p.datafile_paths("D").unwrap()[0].clone();
    p.os_delete_file(&victim).unwrap();
    p.offline_datafile(&victim).unwrap();
    let before = p.stats().redo_records;
    assert!(p.recover_datafile(&victim).unwrap().applied > 0);
    assert_eq!(p.stats().redo_records, before, "media recovery wrote redo");

    // Point-in-time recovery of the whole database.
    let before = p.stats().redo_records;
    assert!(p.recover_database_until(stop).unwrap().applied > 0);
    assert_eq!(p.stats().redo_records, before, "point-in-time recovery wrote redo");
    assert_eq!(p.peek_scan(t).unwrap().len(), rids.len());
}

#[test]
fn crash_recovery_logs_exactly_the_rollback_of_what_the_crash_killed() {
    let (mut p, t, rids) = primary();
    // Nothing in flight: crash recovery appends nothing.
    let before = p.stats().redo_records;
    p.shutdown_abort().unwrap();
    p.startup().unwrap();
    assert_eq!(p.stats().redo_records, before, "nothing was in flight");

    // One transaction in flight with three changes, its records made
    // durable by another session's commit.
    let other = p.connect().unwrap();
    p.insert(other, t, row(501, "committed")).unwrap();
    let doomed = p.connect().unwrap();
    p.insert(doomed, t, row(500, "never committed")).unwrap();
    p.update(doomed, t, rids[0], row(0, "never committed")).unwrap();
    p.delete(doomed, t, rids[1]).unwrap();
    p.commit(other).unwrap();
    let before = p.stats().redo_records;
    p.shutdown_abort().unwrap();
    p.startup().unwrap();
    assert_eq!(p.stats().redo_records, before + 4, "three compensations and one Rollback record");
    assert_eq!(p.get_row(t, rids[0]).unwrap(), row(0, "seed"));
    assert_eq!(p.get_row(t, rids[1]).unwrap(), row(1, "seed"));
    assert_eq!(p.peek_scan(t).unwrap().len(), rids.len() + 1);
}
