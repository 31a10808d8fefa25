//! Integration tests of the engine event stream and the log-switch stall
//! mechanics (the feedback loop that throttles the paper's F1G2T1
//! configuration).

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use recobench_engine::catalog::IndexDef;
use recobench_engine::row::{Row, Value};
use recobench_engine::types::Scn;
use recobench_engine::{
    DbServer, DiskLayout, EngineEvent, FailoverPolicy, InstanceConfig, ReplicaSet, ReplicaTopology, RowId,
};
use recobench_sim::{SimClock, SimDuration, SimTime};

/// Every event a server has recorded since it was built, with its instant.
type Seen = Arc<Mutex<Vec<(SimTime, EngineEvent)>>>;

/// A server with one table, and everything its event stream carries from
/// before `create_database` on.
fn server(groups: u32, redo_kb: u64, archive: bool) -> (DbServer, Seen) {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(redo_kb * 1024)
        .redo_groups(groups)
        .checkpoint_timeout_secs(60)
        .archive_mode(archive)
        .cache_blocks(64)
        .build();
    let mut srv = DbServer::on_fresh_disks("TRC", SimClock::shared(), DiskLayout::four_disk(), cfg);
    let seen = Seen::default();
    let tap = Arc::clone(&seen);
    srv.events_mut().subscribe(move |at, e| tap.lock().unwrap().push((at, e.clone())));
    srv.create_database().unwrap();
    srv.create_user("u").unwrap();
    srv.create_tablespace("D", 2, 1024).unwrap();
    srv.create_table("T", "u", "D", vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }])
        .unwrap();
    (srv, seen)
}

fn count(seen: &Seen, pred: impl Fn(&EngineEvent) -> bool) -> u64 {
    seen.lock().unwrap().iter().filter(|(_, e)| pred(e)).count() as u64
}

fn churn(srv: &mut DbServer, n: u64) {
    let t = srv.table_id("T").unwrap();
    let s = srv.connect().unwrap();
    for i in 0..n {
        srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("some-payload-bytes-here")]))
            .unwrap();
        srv.commit(s).unwrap();
    }
    srv.disconnect(s);
}

#[test]
fn events_capture_switches_checkpoints_and_archives() {
    let (mut srv, seen) = server(3, 48, true);
    churn(&mut srv, 300);
    let switches = count(&seen, |e| matches!(e, EngineEvent::LogSwitch { .. }));
    let checkpoints = count(&seen, |e| matches!(e, EngineEvent::Checkpoint { .. }));
    let archives = count(&seen, |e| matches!(e, EngineEvent::Archived { .. }));
    assert!(switches >= 2, "expected several switches, saw {switches}");
    assert!(checkpoints >= switches, "every switch checkpoints");
    assert_eq!(archives, switches, "archive mode copies every filled sequence");
    // Timestamps are non-decreasing.
    let seen = seen.lock().unwrap();
    assert!(seen.windows(2).all(|w| w[0].0 <= w[1].0));
}

#[test]
fn stats_are_derived_from_the_event_stream() {
    // The recovery/checkpoint/archive counters come straight out of the
    // event sink, so they equal a count of what its subscribers saw.
    let (mut srv, seen) = server(3, 48, true);
    churn(&mut srv, 300);
    // Past the 60 s checkpoint timeout the DBWR ticks write the churn's
    // dirty blocks and advance the incremental checkpoint.
    srv.clock().advance(SimDuration::from_secs(120));
    srv.poll();
    let stats = srv.stats();
    assert_eq!(stats.log_switches, count(&seen, |e| matches!(e, EngineEvent::LogSwitch { .. })));
    assert_eq!(stats.full_checkpoints, count(&seen, |e| matches!(e, EngineEvent::Checkpoint { .. })));
    assert_eq!(stats.archives_created, count(&seen, |e| matches!(e, EngineEvent::Archived { .. })));
    let advances: Vec<u64> = seen
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(_, e)| match e {
            EngineEvent::IncrementalAdvance { blocks } => Some(*blocks),
            _ => None,
        })
        .collect();
    assert_eq!(stats.incremental_advances, advances.len() as u64);
    assert!(!advances.is_empty(), "the ticks past the timeout advanced the checkpoint");
    assert!(advances.iter().all(|b| *b > 0), "each advance says what it wrote: {advances:?}");
}

#[test]
fn events_record_instance_lifecycle() {
    let (mut srv, seen) = server(3, 64, true);
    churn(&mut srv, 20);
    srv.shutdown_abort().unwrap();
    srv.startup().unwrap();
    srv.shutdown_normal().unwrap();
    assert_eq!(count(&seen, |e| matches!(e, EngineEvent::InstanceStopped { clean: false })), 1);
    assert_eq!(count(&seen, |e| matches!(e, EngineEvent::InstanceStopped { clean: true })), 1);
    assert!(count(
        &seen,
        |e| matches!(e, EngineEvent::InstanceOpened { recovered_records } if *recovered_records > 0)
    ) >= 1, "the restart after the crash replayed redo");
    assert!(
        count(&seen, |e| matches!(e, EngineEvent::RecoveryCompleted { .. })) >= 1,
        "crash recovery reports completion"
    );
}

#[test]
fn two_groups_stall_more_than_six_groups() {
    // With only two tiny groups, a switch routinely waits for the previous
    // sequence's checkpoint/archive; with six there is always a free group.
    let (mut two, seen) = server(2, 16, true);
    churn(&mut two, 400);
    let (mut six, _) = server(6, 16, true);
    churn(&mut six, 400);
    let stall2 = two.stats().switch_stall_micros;
    let stall6 = six.stats().switch_stall_micros;
    assert!(
        stall2 >= stall6,
        "fewer groups cannot stall less: two-group {stall2}µs vs six-group {stall6}µs"
    );
    let event_stalls = count(&seen, |e| matches!(e, EngineEvent::SwitchStall { .. }));
    assert_eq!(
        event_stalls > 0,
        stall2 > 0,
        "events and counters must agree about stalling"
    );
}

#[test]
fn subscribers_see_live_events_without_retention_loss() {
    let (mut srv, _) = server(3, 48, true);
    let switches = Arc::new(Mutex::new(0u64));
    let counter = Arc::clone(&switches);
    srv.events_mut().subscribe(move |_, e| {
        if matches!(e, EngineEvent::LogSwitch { .. }) {
            *counter.lock().unwrap() += 1;
        }
    });
    churn(&mut srv, 300);
    assert_eq!(*switches.lock().unwrap(), srv.stats().log_switches);
}

// ----------------------------------------------------------------------
// Each recovery procedure's whole event stream, instants included. The
// golden digests only say that an outcome moved; these name the event.
// ----------------------------------------------------------------------

fn row(k: u64, v: &str) -> Row {
    Row::new(vec![Value::U64(k), Value::from(v)])
}

/// Inserts and commits one row per key in `keys`; returns their row ids.
fn commit_rows(srv: &mut DbServer, keys: std::ops::Range<u64>) -> Vec<RowId> {
    let t = srv.table_id("T").unwrap();
    let s = srv.connect().unwrap();
    let rids = keys
        .map(|k| {
            let rid = srv.insert(s, t, row(k, "committed")).unwrap();
            srv.commit(s).unwrap();
            rid
        })
        .collect();
    srv.disconnect(s);
    rids
}

/// Leaves `rid`'s update in flight and makes it durable in the redo
/// stream through another session's commit.
fn update_in_flight(srv: &mut DbServer, rid: RowId, key: u64) {
    let t = srv.table_id("T").unwrap();
    let doomed = srv.connect().unwrap();
    srv.update(doomed, t, rid, row(key, "never committed")).unwrap();
    commit_rows(srv, 1_000..1_001);
}

/// The one datafile of `D` that holds written blocks, and its first one.
fn written_block(srv: &DbServer) -> (String, u64) {
    let fs = srv.fs().lock();
    srv.datafile_paths("D")
        .unwrap()
        .into_iter()
        .find_map(|p| {
            let blocks = fs.peek_blocks_written(fs.lookup(&p).unwrap()).unwrap();
            blocks.first().map(|(b, _)| (p.clone(), *b))
        })
        .unwrap()
}

/// The JSON line of every event `seen` holds from index `mark` on.
fn lines_since(seen: &Seen, mark: usize, server: &str) -> Vec<String> {
    seen.lock().unwrap()[mark..]
        .iter()
        .map(|(at, e)| {
            let mut line = String::new();
            e.write_json(*at, server, &mut line);
            line
        })
        .collect()
}

fn assert_stream(got: &[String], want: &[&str]) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "event {i} differs");
    }
    assert_eq!(got.len(), want.len(), "event count differs; got:\n{}", got.join("\n"));
}

#[test]
fn crash_recovery_restoring_a_fractured_datafile_records_each_step() {
    let (mut srv, seen) = server(3, 64, true);
    let rids = commit_rows(&mut srv, 0..10);
    srv.take_cold_backup().unwrap();
    commit_rows(&mut srv, 10..20);
    update_in_flight(&mut srv, rids[3], 3);
    srv.checkpoint_now().unwrap();
    // A crash-torn write: one CRC-covered bit of the stored image flips.
    let (path, block) = written_block(&srv);
    {
        let mut fs = srv.fs().lock();
        let id = fs.lookup(&path).unwrap();
        let mut image = fs.peek_block(id, block).unwrap().to_vec();
        image[10] ^= 1;
        fs.write_block(id, block, Bytes::from(image), SimTime::ZERO).unwrap();
    }
    srv.shutdown_abort().unwrap();
    let mark = seen.lock().unwrap().len();
    srv.startup().unwrap();
    let t = srv.table_id("T").unwrap();
    assert_eq!(srv.peek_row(t, rids[3]).unwrap(), Some(row(3, "committed")));
    let want = [
        r#"{"t_us":240859241,"server":"TRC","type":"phase_span","phase":"instance_startup","start_us":227859241}"#,
        r#"{"t_us":240859241,"server":"TRC","type":"checksum_mismatch","path":"/u01/d_01.dbf","block":0}"#,
        r#"{"t_us":353760841,"server":"TRC","type":"phase_span","phase":"media_restore","start_us":240859241}"#,
        r#"{"t_us":353763230,"server":"TRC","type":"phase_span","phase":"redo_scan","start_us":353760841}"#,
        r#"{"t_us":353788770,"server":"TRC","type":"phase_span","phase":"redo_apply","start_us":353763230}"#,
        r#"{"t_us":353788770,"server":"TRC","type":"sequence_replayed","seq":1,"applied":49,"skipped":0,"archived":false}"#,
        r#"{"t_us":353789736,"server":"TRC","type":"phase_span","phase":"txn_rollback","start_us":353788770}"#,
        r#"{"t_us":353789736,"server":"TRC","type":"recovery_completed","procedure":"crash","records_applied":49,"archives_read":0}"#,
        r#"{"t_us":353789736,"server":"TRC","type":"indexes_rebuilt","tables":1,"entries":21}"#,
        r#"{"t_us":353789736,"server":"TRC","type":"checkpoint","blocks":1,"complete_us":353798126}"#,
        r#"{"t_us":353798126,"server":"TRC","type":"instance_opened","recovered_records":49}"#,
    ];
    assert_stream(&lines_since(&seen, mark, "TRC"), &want);
}

#[test]
fn media_recovery_of_a_deleted_datafile_records_each_step() {
    let (mut srv, seen) = server(3, 64, true);
    commit_rows(&mut srv, 0..10);
    srv.take_cold_backup().unwrap();
    commit_rows(&mut srv, 10..20);
    let (path, _) = written_block(&srv);
    srv.os_delete_file(&path).unwrap();
    srv.offline_datafile(&path).unwrap();
    let mark = seen.lock().unwrap().len();
    srv.recover_datafile(&path).unwrap();
    let want = [
        r#"{"t_us":341451052,"server":"TRC","type":"phase_span","phase":"media_restore","start_us":228549452}"#,
        r#"{"t_us":341452499,"server":"TRC","type":"phase_span","phase":"redo_scan","start_us":341451052}"#,
        r#"{"t_us":341469059,"server":"TRC","type":"phase_span","phase":"redo_apply","start_us":341452499}"#,
        r#"{"t_us":341469059,"server":"TRC","type":"sequence_replayed","seq":1,"applied":20,"skipped":26,"archived":false}"#,
        r#"{"t_us":341477449,"server":"TRC","type":"indexes_rebuilt","tables":1,"entries":20}"#,
        r#"{"t_us":342177449,"server":"TRC","type":"recovery_completed","procedure":"media","records_applied":20,"archives_read":0}"#,
    ];
    assert_stream(&lines_since(&seen, mark, "TRC"), &want);
}

#[test]
fn point_in_time_recovery_rolling_back_a_transaction_records_each_step() {
    let (mut srv, seen) = server(3, 64, true);
    let rids = commit_rows(&mut srv, 0..10);
    srv.take_cold_backup().unwrap();
    commit_rows(&mut srv, 10..20);
    update_in_flight(&mut srv, rids[3], 3);
    let stop = srv.current_scn().next();
    let mark = seen.lock().unwrap().len();
    let summary = srv.recover_database_until(stop).unwrap();
    assert_eq!(summary.rolled_back, 1);
    let want = [
        r#"{"t_us":227850851,"server":"TRC","type":"instance_stopped","clean":false}"#,
        r#"{"t_us":241550851,"server":"TRC","type":"phase_span","phase":"instance_startup","start_us":227850851}"#,
        r#"{"t_us":467354051,"server":"TRC","type":"phase_span","phase":"media_restore","start_us":241550851}"#,
        r#"{"t_us":467355597,"server":"TRC","type":"phase_span","phase":"redo_scan","start_us":467354051}"#,
        r#"{"t_us":467373207,"server":"TRC","type":"phase_span","phase":"redo_apply","start_us":467355597}"#,
        r#"{"t_us":467373207,"server":"TRC","type":"sequence_replayed","seq":1,"applied":23,"skipped":26,"archived":false}"#,
        r#"{"t_us":467373557,"server":"TRC","type":"phase_span","phase":"txn_rollback","start_us":467373207}"#,
        r#"{"t_us":467373557,"server":"TRC","type":"indexes_rebuilt","tables":1,"entries":21}"#,
        r#"{"t_us":467373557,"server":"TRC","type":"checkpoint","blocks":1,"complete_us":467381947}"#,
        r#"{"t_us":467381947,"server":"TRC","type":"recovery_completed","procedure":"incomplete","records_applied":23,"archives_read":0}"#,
    ];
    assert_stream(&lines_since(&seen, mark, "TRC"), &want);
}

#[test]
fn standby_activation_rolling_back_a_transaction_records_each_step() {
    let (mut srv, _) = server(3, 16, true);
    let rids = commit_rows(&mut srv, 0..10);
    srv.take_cold_backup().unwrap();
    let mut rs = ReplicaSet::instantiate(
        &srv,
        &ReplicaTopology::single(),
        FailoverPolicy::Manual,
        Arc::clone(srv.clock()),
        DiskLayout::four_disk(),
        srv.config().clone(),
    )
    .unwrap();
    let seen = Seen::default();
    let tap = Arc::clone(&seen);
    rs.set_observer(Box::new(move |standby, _| {
        let tap = Arc::clone(&tap);
        standby.events_mut().subscribe(move |at, e| tap.lock().unwrap().push((at, e.clone())));
    }));
    update_in_flight(&mut srv, rids[3], 3);
    // Enough commits to archive (and ship) the in-flight update's sequence.
    let t = srv.table_id("T").unwrap();
    let s = srv.connect().unwrap();
    for k in 10..200 {
        srv.insert(s, t, row(k, "shipped-with-some-payload")).unwrap();
        srv.commit(s).unwrap();
        rs.sync_all(&srv).unwrap();
    }
    srv.shutdown_abort().unwrap();
    let mark = seen.lock().unwrap().len();
    rs.fail_over(Some(&mut srv)).unwrap().expect("a lone live stand-by is promoted");
    let active = rs.active().unwrap();
    assert_eq!(active.peek_row(t, rids[3]).unwrap(), Some(row(3, "committed")));
    let want = [
        r#"{"t_us":453131024,"server":"STANDBY1","type":"failover_started","votes":1,"replicas":1}"#,
        r#"{"t_us":471629377,"server":"STANDBY1","type":"indexes_rebuilt","tables":1,"entries":192}"#,
        r#"{"t_us":471629377,"server":"STANDBY1","type":"checkpoint","blocks":2,"complete_us":471646157}"#,
        r#"{"t_us":471646157,"server":"STANDBY1","type":"phase_span","phase":"standby_activation","start_us":453131024}"#,
        r#"{"t_us":471646157,"server":"STANDBY1","type":"replica_promoted","replica":0,"applied_seq":17}"#,
    ];
    assert_stream(&lines_since(&seen, mark, "STANDBY1"), &want);
}

/// The JSONL line of every archive apply, resync, promotion and backup the
/// set's stand-bys record from here on, each under its stand-by's name.
fn replica_lines(rs: &mut ReplicaSet) -> Arc<Mutex<Vec<String>>> {
    let lines = Arc::<Mutex<Vec<String>>>::default();
    let tap = Arc::clone(&lines);
    rs.set_observer(Box::new(move |standby, name| {
        let (tap, name) = (Arc::clone(&tap), name.to_string());
        standby.events_mut().subscribe(move |at, e| {
            if matches!(
                e,
                EngineEvent::StandbyArchiveApplied { .. }
                    | EngineEvent::ReplicaResync { .. }
                    | EngineEvent::ReplicaPromoted { .. }
                    | EngineEvent::BackupTaken { .. }
            ) {
                let mut line = String::new();
                e.write_json(at, &name, &mut line);
                tap.lock().unwrap().push(line);
            }
        });
    }));
    lines
}

/// A primary with a backup, a replica set of `topology` behind it, and the
/// stand-bys' lines from just after their instantiation.
fn replica_set(topology: &ReplicaTopology) -> (DbServer, ReplicaSet, Arc<Mutex<Vec<String>>>) {
    let (mut srv, _) = server(3, 16, true);
    commit_rows(&mut srv, 0..10);
    srv.take_cold_backup().unwrap();
    let mut rs = ReplicaSet::instantiate(
        &srv,
        topology,
        FailoverPolicy::AutoQuorum,
        Arc::clone(srv.clock()),
        DiskLayout::four_disk(),
        srv.config().clone(),
    )
    .unwrap();
    let lines = replica_lines(&mut rs);
    let t = srv.table_id("T").unwrap();
    let s = srv.connect().unwrap();
    for k in 10..70 {
        srv.insert(s, t, row(k, "shipped-with-some-payload")).unwrap();
        srv.commit(s).unwrap();
        rs.sync_all(&srv).unwrap();
    }
    (srv, rs, lines)
}

/// Commits on the promoted node and ships to its followers.
fn work_on_promoted(rs: &mut ReplicaSet, keys: std::ops::Range<u64>) {
    let active = rs.active_mut().unwrap();
    let t = active.table_id("T").unwrap();
    let s = active.connect().unwrap();
    for k in keys {
        let active = rs.active_mut().unwrap();
        active.insert(s, t, row(k, "after-the-failover")).unwrap();
        active.commit(s).unwrap();
        rs.sync_followers().unwrap();
    }
}

fn drain(lines: &Arc<Mutex<Vec<String>>>) -> Vec<String> {
    std::mem::take(&mut *lines.lock().unwrap())
}

/// A multi-node replica set's own stream, instants included: what each
/// stand-by applied, when the new primary's backup completed, which node
/// was promoted with what, and what that node had applied.
#[test]
fn replica_set_failovers_record_each_node_step() {
    use recobench_engine::ReplicaStatus::{Dead, Following, Promoted};
    let (mut srv, mut rs, lines) = replica_set(&ReplicaTopology::fan_out(2));
    srv.shutdown_abort().unwrap();
    rs.fail_over(Some(&mut srv)).unwrap().expect("2 votes of 2 promote");
    work_on_promoted(&mut rs, 2_000..2_060);
    let want = [
        r#"{"t_us":678370278,"server":"STANDBY1","type":"standby_archive_applied","seq":2,"records":23}"#,
        r#"{"t_us":678370278,"server":"STANDBY2","type":"standby_archive_applied","seq":2,"records":23}"#,
        r#"{"t_us":678386873,"server":"STANDBY1","type":"standby_archive_applied","seq":3,"records":23}"#,
        r#"{"t_us":678386873,"server":"STANDBY2","type":"standby_archive_applied","seq":3,"records":23}"#,
        r#"{"t_us":678403179,"server":"STANDBY1","type":"standby_archive_applied","seq":4,"records":23}"#,
        r#"{"t_us":678403179,"server":"STANDBY2","type":"standby_archive_applied","seq":4,"records":23}"#,
        r#"{"t_us":678419773,"server":"STANDBY1","type":"standby_archive_applied","seq":5,"records":23}"#,
        r#"{"t_us":678419773,"server":"STANDBY2","type":"standby_archive_applied","seq":5,"records":23}"#,
        r#"{"t_us":678436079,"server":"STANDBY1","type":"standby_archive_applied","seq":6,"records":23}"#,
        r#"{"t_us":678436079,"server":"STANDBY2","type":"standby_archive_applied","seq":6,"records":23}"#,
        r#"{"t_us":696939791,"server":"STANDBY1","type":"replica_promoted","replica":0,"applied_seq":6}"#,
        r#"{"t_us":922742991,"server":"STANDBY1","type":"backup_taken","files":2,"scn":1140}"#,
        r#"{"t_us":696939791,"server":"STANDBY2","type":"replica_resync","replica":1,"applied_seq":6}"#,
        r#"{"t_us":1148254941,"server":"STANDBY2","type":"standby_archive_applied","seq":7,"records":23}"#,
        r#"{"t_us":1148262991,"server":"STANDBY2","type":"standby_archive_applied","seq":8,"records":23}"#,
        r#"{"t_us":1148271041,"server":"STANDBY2","type":"standby_archive_applied","seq":9,"records":23}"#,
        r#"{"t_us":1148279091,"server":"STANDBY2","type":"standby_archive_applied","seq":10,"records":23}"#,
        r#"{"t_us":1148287832,"server":"STANDBY2","type":"standby_archive_applied","seq":11,"records":23}"#,
    ];
    assert_stream(&drain(&lines), &want);
    assert_eq!((rs.status(0), rs.status(1)), (Some(Promoted), Some(Following)));
    assert_eq!(rs.promoted_records_applied(), 115);
    assert_eq!(rs.promoted_last_commit_scn(), Some(Scn(138)));
    rs.kill_promoted().unwrap();
    rs.fail_over(None).unwrap().expect("the lone survivor is promoted");
    let want = [
        r#"{"t_us":1166790283,"server":"STANDBY2","type":"replica_promoted","replica":1,"applied_seq":11}"#,
    ];
    assert_stream(&drain(&lines), &want);
    assert_eq!((rs.status(0), rs.status(1)), (Some(Dead), Some(Promoted)));
    assert_eq!(rs.active().unwrap().stats().replica_resyncs, 1, "the survivor was re-instantiated");
    assert_eq!(rs.promoted_records_applied(), 115);
    assert_eq!(rs.promoted_last_commit_scn(), Some(Scn(1254)));

    let (mut srv, mut rs, lines) = replica_set(&ReplicaTopology::cascade(2));
    srv.clock().advance(SimDuration::from_secs(5));
    rs.sync_all(&srv).unwrap();
    srv.shutdown_abort().unwrap();
    rs.fail_over(Some(&mut srv)).unwrap().expect("the chain promotes its head");
    work_on_promoted(&mut rs, 2_000..2_060);
    let want = [
        r#"{"t_us":678370278,"server":"STANDBY1","type":"standby_archive_applied","seq":2,"records":23}"#,
        r#"{"t_us":678386873,"server":"STANDBY1","type":"standby_archive_applied","seq":3,"records":23}"#,
        r#"{"t_us":678403179,"server":"STANDBY1","type":"standby_archive_applied","seq":4,"records":23}"#,
        r#"{"t_us":678419773,"server":"STANDBY1","type":"standby_archive_applied","seq":5,"records":23}"#,
        r#"{"t_us":678436079,"server":"STANDBY1","type":"standby_archive_applied","seq":6,"records":23}"#,
        r#"{"t_us":678871831,"server":"STANDBY2","type":"standby_archive_applied","seq":2,"records":23}"#,
        r#"{"t_us":678888424,"server":"STANDBY2","type":"standby_archive_applied","seq":3,"records":23}"#,
        r#"{"t_us":678904733,"server":"STANDBY2","type":"standby_archive_applied","seq":4,"records":23}"#,
        r#"{"t_us":678921324,"server":"STANDBY2","type":"standby_archive_applied","seq":5,"records":23}"#,
        r#"{"t_us":678937633,"server":"STANDBY2","type":"standby_archive_applied","seq":6,"records":23}"#,
        r#"{"t_us":701939791,"server":"STANDBY1","type":"replica_promoted","replica":0,"applied_seq":6}"#,
        r#"{"t_us":927742991,"server":"STANDBY1","type":"backup_taken","files":2,"scn":1140}"#,
        r#"{"t_us":701939791,"server":"STANDBY2","type":"replica_resync","replica":1,"applied_seq":6}"#,
        r#"{"t_us":1153254941,"server":"STANDBY2","type":"standby_archive_applied","seq":7,"records":23}"#,
        r#"{"t_us":1153262991,"server":"STANDBY2","type":"standby_archive_applied","seq":8,"records":23}"#,
        r#"{"t_us":1153271041,"server":"STANDBY2","type":"standby_archive_applied","seq":9,"records":23}"#,
        r#"{"t_us":1153279091,"server":"STANDBY2","type":"standby_archive_applied","seq":10,"records":23}"#,
        r#"{"t_us":1153287832,"server":"STANDBY2","type":"standby_archive_applied","seq":11,"records":23}"#,
    ];
    assert_stream(&drain(&lines), &want);
    assert_eq!((rs.status(0), rs.status(1)), (Some(Promoted), Some(Following)));
    assert_eq!(rs.promoted_records_applied(), 115);
    assert_eq!(rs.promoted_last_commit_scn(), Some(Scn(138)));
}
