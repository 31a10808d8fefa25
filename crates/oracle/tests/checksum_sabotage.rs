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

use std::sync::{Arc, Mutex};

use recobench_engine::catalog::IndexDef;
use recobench_engine::{DbServer, DiskLayout, InstanceConfig, ObjectId, Row, Value};
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

/// Pins a defect the index re-derivation deliberately keeps: media
/// recovery of one datafile silently empties the index of a table that has
/// a rotten block on *another* datafile. The rebuild reads the table with
/// `peek_scan(..).unwrap_or_default()`, so the unreadable heap becomes an
/// empty index with no error and the database opens without its
/// ORDER_LINE key. Re-deriving only the recovered file's entries would
/// keep the other file's; the damaged datafile's mark sends the table to
/// the full scan instead, so the damaged database ends as it always did.
/// The fix is a typed refusal naming the block (ROADMAP, "Typed
/// refusals"); this test moves with it.
#[test]
fn media_recovery_empties_the_index_of_a_table_with_a_rotten_block_on_another_datafile() {
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
    assert!(!srv.prefix_scan(ol, 0, &prefix).unwrap().is_empty());

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
    assert!(srv.prefix_scan(ol, 0, &prefix).unwrap().is_empty(), "ORDER_LINE's index kept entries");
}
