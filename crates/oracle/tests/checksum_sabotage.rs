//! Self-test of the checksum detection chain against deliberate bit-rot.
//!
//! The engine's sabotage hook (`DbServer::sabotage_bit_rot`, compiled in
//! here via the crate's self-dependency on the `sabotage` feature) flips
//! one bit of one written datafile block — silent corruption no vfs error
//! ever reports. Both detection layers must flag it independently:
//!
//! * the engine's own integrity walk ([`DbServer::verify_integrity`])
//!   must report a checksum mismatch, and
//! * the differential oracle ([`diff_states`]) must diverge — either the
//!   rotted heap scan fails (an `Integrity` finding) or the damaged rows
//!   surface as lost/mismatched.
//!
//! Media recovery of the rotted file must then close the loop: restore
//! from backup, replay, and the oracle goes clean again.
//!
//! Recovery finds rot the same way, by reading: a block it reads and that
//! fails its checksum refuses the recovery with the typed
//! `ChecksumMismatch` naming the block, and a block it does not read keeps
//! its index entries until its own first read fails.

use std::sync::{Arc, Mutex};

use recobench_engine::catalog::IndexDef;
use recobench_engine::{DbError, DbServer, DiskLayout, InstanceConfig, ObjectId, Row, Value};
use recobench_oracle::{diff_states, RefModel};
use recobench_sim::SimClock;

fn build_server() -> (DbServer, ObjectId) {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(64 * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(300)
        .archive_mode(true)
        .cache_blocks(64)
        .build();
    let mut srv =
        DbServer::on_fresh_disks("ROT", SimClock::shared(), DiskLayout::four_disk(), cfg);
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
    let t = srv.table_id("T").unwrap();
    srv.take_cold_backup().unwrap();
    (srv, t)
}

#[test]
fn injected_bit_rot_is_flagged_by_both_detection_layers() {
    let (mut srv, t) = build_server();
    let model = Arc::new(Mutex::new(RefModel::from_server(&srv).unwrap()));
    {
        let model = Arc::clone(&model);
        srv.set_dml_tap(move |change| model.lock().unwrap().observe(change));
    }
    let s = srv.connect().unwrap();
    for i in 0..40u64 {
        srv.insert(s, t, Row::new(vec![Value::U64(i), Value::U64(1_000_000 + i)])).unwrap();
        srv.commit(s).unwrap();
    }
    // Push the rows to disk so there is a written block to rot.
    srv.checkpoint_now().unwrap();

    // Baseline: everything healthy, walk actually checksums blocks.
    let clean = srv.verify_integrity().unwrap();
    assert!(clean.violations.is_empty(), "pre-rot violations: {:?}", clean.violations);
    assert!(clean.blocks_checksummed > 0, "the walk must visit written blocks");
    assert!(diff_states(&srv, &model.lock().unwrap()).unwrap().is_empty());

    // Rot one bit in the first datafile that has written blocks.
    let rotted = srv
        .datafile_paths("DATA")
        .unwrap()
        .into_iter()
        .find(|p| srv.sabotage_bit_rot(p, 0xB17_0B07).is_ok())
        .expect("a checkpointed table must have a rottable datafile");

    // Layer 1: the engine's own walk names the damage.
    let report = srv.verify_integrity().unwrap();
    assert!(
        report.violations.iter().any(|v| v.contains("checksum mismatch")),
        "integrity walk missed the flipped bit: {:?}",
        report.violations
    );
    assert_eq!(srv.datafiles_with_bad_checksums().unwrap(), vec![rotted.clone()]);

    // Layer 2: the differential oracle refuses to call the state clean.
    let divergences = diff_states(&srv, &model.lock().unwrap()).unwrap();
    assert!(!divergences.is_empty(), "the oracle passed silently rotted storage");

    // Detection → repair: media recovery restores the file and the run
    // is indistinguishable from one where the rot never happened.
    srv.recover_datafile(&rotted).unwrap();
    let divergences = diff_states(&srv, &model.lock().unwrap()).unwrap();
    assert!(divergences.is_empty(), "post-recovery divergences: {divergences:?}");
    assert!(srv.datafiles_with_bad_checksums().unwrap().is_empty());
}

/// Media recovery of one datafile keeps ORDER_LINE's index entries when
/// the table has a rotten block on *another* datafile. Recovery re-derives
/// only the recovered file's entries and never reads the rotten block, so
/// every entry of the prefix survives and the damage waits for the block's
/// first read, which still fails.
#[test]
fn media_recovery_keeps_the_index_entries_of_a_rotten_block_on_another_datafile() {
    use recobench_core::{rig, RecoveryConfig};
    use recobench_sim::{SimDuration, SimRng};
    use recobench_tpcc::{DriverConfig, TpccDriver, TpccScale};

    let icfg = RecoveryConfig::new(1, 3, 300).to_instance_config(true);
    let (mut srv, schema) = rig::set_up(
        "ROTOL",
        SimClock::shared(),
        DiskLayout::four_disk(),
        icfg,
        TpccScale::tiny(),
        7,
        |_| {},
    )
    .unwrap();
    let ol = schema.order_line;
    let t0 = srv.clock().now();
    let end = t0 + SimDuration::from_secs(300);
    let mut driver = TpccDriver::new(schema, DriverConfig::default(), SimRng::seed_from(7).fork(2), t0);
    while driver.next_ready() < end {
        driver.step(&mut srv);
    }
    driver.quiesce(&mut srv);
    srv.checkpoint_now().unwrap();
    let prefix = [Value::U64(1), Value::U64(1)];
    let before = srv.prefix_scan(ol, 0, &prefix).unwrap().len();
    assert!(before > 0);

    let paths = srv.datafile_paths(recobench_tpcc::schema::TPCC_TABLESPACE).unwrap();
    // The first seed whose flipped bit lands in an ORDER_LINE block of
    // datafile 2 (the rot drops that file's cached frames).
    let seed = (0..64)
        .find(|&seed| {
            let mut probe = srv.fork(SimClock::shared());
            probe.sabotage_bit_rot(&paths[1], seed).unwrap();
            probe.peek_scan(ol).is_err()
        })
        .expect("some seed rots an ORDER_LINE block");
    srv.sabotage_bit_rot(&paths[1], seed).unwrap();
    srv.offline_datafile(&paths[0]).unwrap();
    srv.recover_datafile(&paths[0]).unwrap();

    assert!(srv.peek_scan(ol).is_err(), "the rotten block is still there");
    assert_eq!(srv.prefix_scan(ol, 0, &prefix).unwrap().len(), before, "ORDER_LINE's index lost entries");
}

/// A datafile block that rots while the database is shut down cleanly is
/// read by the next startup's index rebuild, which refuses to open with
/// the typed error naming the block instead of an index missing its rows.
#[test]
fn startup_refuses_a_rotten_block_by_name() {
    let (mut srv, t) = build_server();
    let s = srv.connect().unwrap();
    for i in 0..40u64 {
        srv.insert(s, t, Row::new(vec![Value::U64(i), Value::U64(1_000_000 + i)])).unwrap();
        srv.commit(s).unwrap();
    }
    let paths = srv.datafile_paths("DATA").unwrap();
    srv.shutdown_normal().unwrap();
    let rotted = paths
        .into_iter()
        .find(|p| srv.sabotage_bit_rot(p, 0xB17_0B07).is_ok())
        .expect("a clean shutdown writes the table's blocks");

    assert_eq!(srv.startup(), Err(DbError::ChecksumMismatch { path: rotted, block: 0 }));
}
