//! Integration tests of the engine event stream and the log-switch stall
//! mechanics (the feedback loop that throttles the paper's F1G2T1
//! configuration).

use std::sync::{Arc, Mutex};

use recobench_engine::catalog::IndexDef;
use recobench_engine::row::{Row, Value};
use recobench_engine::{DbServer, DiskLayout, EngineEvent, InstanceConfig};
use recobench_sim::{SimClock, SimTime};

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
    let stats = srv.stats();
    assert_eq!(stats.log_switches, count(&seen, |e| matches!(e, EngineEvent::LogSwitch { .. })));
    assert_eq!(stats.full_checkpoints, count(&seen, |e| matches!(e, EngineEvent::Checkpoint { .. })));
    assert_eq!(stats.archives_created, count(&seen, |e| matches!(e, EngineEvent::Archived { .. })));
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
