//! Integration tests of the engine event stream and the log-switch stall
//! mechanics (the feedback loop that throttles the paper's F1G2T1
//! configuration).

use std::sync::{Arc, Mutex};

use recobench_engine::catalog::IndexDef;
use recobench_engine::row::{Row, Value};
use recobench_engine::{DbServer, DiskLayout, EngineEvent, InstanceConfig};
use recobench_sim::SimClock;

fn server(groups: u32, redo_kb: u64, archive: bool) -> DbServer {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(redo_kb * 1024)
        .redo_groups(groups)
        .checkpoint_timeout_secs(60)
        .archive_mode(archive)
        .cache_blocks(64)
        .build();
    let mut srv = DbServer::on_fresh_disks("TRC", SimClock::shared(), DiskLayout::four_disk(), cfg);
    srv.create_database().unwrap();
    srv.create_user("u").unwrap();
    srv.create_tablespace("D", 2, 1024).unwrap();
    srv.create_table("T", "u", "D", vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }])
        .unwrap();
    srv
}

fn churn_from(srv: &mut DbServer, start: u64, n: u64) {
    let t = srv.table_id("T").unwrap();
    let s = srv.connect().unwrap();
    for i in start..start + n {
        srv.insert(s, t, Row::new(vec![Value::U64(i), Value::from("some-payload-bytes-here")]))
            .unwrap();
        srv.commit(s).unwrap();
    }
    srv.disconnect(s);
}

fn churn(srv: &mut DbServer, n: u64) {
    churn_from(srv, 0, n);
}

#[test]
fn events_capture_switches_checkpoints_and_archives() {
    let mut srv = server(3, 48, true);
    churn(&mut srv, 300);
    let events = srv.events();
    let switches = events.count(|e| matches!(e, EngineEvent::LogSwitch { .. }));
    let checkpoints = events.count(|e| matches!(e, EngineEvent::Checkpoint { .. }));
    let archives = events.count(|e| matches!(e, EngineEvent::Archived { .. }));
    assert!(switches >= 2, "expected several switches, saw {switches}");
    assert!(checkpoints >= switches, "every switch checkpoints");
    assert_eq!(archives, switches, "archive mode copies every filled sequence");
    // Timestamps are non-decreasing.
    let mut last = recobench_sim::SimTime::ZERO;
    for (t, _) in events.events() {
        assert!(*t >= last);
        last = *t;
    }
}

#[test]
fn stats_are_derived_from_the_event_stream() {
    // The recovery/checkpoint/archive counters come straight out of the
    // event sink, so (with nothing dropped) they equal a manual count of
    // the retained events.
    let mut srv = server(3, 48, true);
    churn(&mut srv, 300);
    let stats = srv.stats();
    let events = srv.events();
    assert_eq!(events.dropped(), 0, "this workload fits the retention bound");
    assert_eq!(
        stats.log_switches,
        events.count(|e| matches!(e, EngineEvent::LogSwitch { .. })) as u64
    );
    assert_eq!(
        stats.full_checkpoints,
        events.count(|e| matches!(e, EngineEvent::Checkpoint { .. })) as u64
    );
    assert_eq!(
        stats.archives_created,
        events.count(|e| matches!(e, EngineEvent::Archived { .. })) as u64
    );
}

#[test]
fn events_record_instance_lifecycle() {
    let mut srv = server(3, 64, true);
    churn(&mut srv, 20);
    srv.shutdown_abort().unwrap();
    srv.startup().unwrap();
    srv.shutdown_normal().unwrap();
    let events = srv.events();
    assert_eq!(events.count(|e| matches!(e, EngineEvent::InstanceStopped { clean: false })), 1);
    assert_eq!(events.count(|e| matches!(e, EngineEvent::InstanceStopped { clean: true })), 1);
    assert!(events.count(
        |e| matches!(e, EngineEvent::InstanceOpened { recovered_records } if *recovered_records > 0)
    ) >= 1, "the restart after the crash replayed redo");
    assert!(
        events.count(|e| matches!(e, EngineEvent::RecoveryCompleted { .. })) >= 1,
        "crash recovery reports completion"
    );
}

#[test]
fn two_groups_stall_more_than_six_groups() {
    // With only two tiny groups, a switch routinely waits for the previous
    // sequence's checkpoint/archive; with six there is always a free group.
    let mut two = server(2, 16, true);
    churn(&mut two, 400);
    let mut six = server(6, 16, true);
    churn(&mut six, 400);
    let stall2 = two.stats().switch_stall_micros;
    let stall6 = six.stats().switch_stall_micros;
    assert!(
        stall2 >= stall6,
        "fewer groups cannot stall less: two-group {stall2}µs vs six-group {stall6}µs"
    );
    let event_stalls =
        two.events().count(|e| matches!(e, EngineEvent::SwitchStall { .. }));
    assert_eq!(
        event_stalls > 0,
        stall2 > 0,
        "events and counters must agree about stalling"
    );
}

#[test]
fn clearing_the_buffer_starts_a_fresh_window() {
    let mut srv = server(3, 48, true);
    churn(&mut srv, 150);
    assert!(srv.events().events().len() > 0);
    let switches_before = srv.stats().log_switches;
    srv.events_mut().clear();
    assert_eq!(srv.events().events().len(), 0);
    assert_eq!(
        srv.stats().log_switches,
        switches_before,
        "clearing the retained window never rewinds the derived counters"
    );
    churn_from(&mut srv, 1_000, 150);
    assert!(srv.events().count(|e| matches!(e, EngineEvent::LogSwitch { .. })) > 0);
}

#[test]
fn subscribers_see_live_events_without_retention_loss() {
    let mut srv = server(3, 48, true);
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
