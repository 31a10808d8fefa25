//! Property test for torn-redo-tail recovery.
//!
//! A random tear fraction is armed on the redo log ([`FaultArm::PartialAppend`])
//! after a random number of committed transactions. The flush that hits the
//! tear cannot reconcile the durable log with the in-memory redo stream, so
//! the instance aborts — and crash recovery must then either replay the last
//! record (the tear kept all of it) or cleanly stop at the torn tail
//! (Oracle's end-of-log behavior). Whatever it decides, no transaction
//! committed *before* the tear may be lost, nothing unacknowledged may leak
//! in, and the one genuinely ambiguous commit (errored at the client, maybe
//! durable anyway) is settled by probing the recovered engine. Then the
//! recovered log takes more commits and crashes again: every commit
//! acknowledged after the first recovery must survive the second.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use recobench_engine::catalog::IndexDef;
use recobench_engine::{DbServer, DiskLayout, InstanceConfig, ObjectId, Row, Value};
use recobench_oracle::{diff_states, RefModel};
use recobench_sim::SimClock;
use recobench_vfs::{FaultArm, FileKind, FileMatch};

fn build_server() -> (DbServer, ObjectId) {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(64 * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(300)
        .archive_mode(true)
        .cache_blocks(64)
        .build();
    let mut srv =
        DbServer::on_fresh_disks("TORN", SimClock::shared(), DiskLayout::four_disk(), cfg);
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
    (srv, t)
}

/// Rows are i-unique so the in-doubt probe can never mistake a
/// rolled-back write for a committed one.
fn row(i: u64) -> Row {
    Row::new(vec![Value::U64(i), Value::U64(1_000_000 + i)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn torn_redo_tail_never_loses_committed_work(
        n_pre in 1u64..20,
        keep_den in 1u32..=64,
        keep_raw in 0u32..=8,
        n_post in 1u64..12,
    ) {
        // Tear fraction spans "nothing persists" through "everything
        // persists but the ack is still lost". A flush charges 640 bytes
        // of padding per record beyond its encoding, so only the small
        // fractions (large `keep_den`) cut a record rather than padding.
        let keep_num = keep_raw % (keep_den + 1);
        let (mut srv, t) = build_server();
        let model = Arc::new(Mutex::new(RefModel::from_server(&srv).unwrap()));
        {
            let model = Arc::clone(&model);
            srv.set_dml_tap(move |change| model.lock().unwrap().observe(change));
        }
        let s = srv.connect().unwrap();
        for i in 0..n_pre {
            srv.insert(s, t, row(i)).unwrap();
            srv.commit(s).unwrap();
        }
        srv.fs()
            .lock()
            .arm_fault(FaultArm::PartialAppend {
                target: FileMatch::Kind(FileKind::Redo),
                keep_num,
                keep_den,
            })
            .unwrap();
        // Keep committing until the tear fires. The redo append that hits
        // it persists only a prefix and errors; the instance aborts.
        let mut died = false;
        for i in n_pre..n_pre + 32 {
            let mut step = srv.insert(s, t, row(i)).map(|_| ());
            if step.is_ok() {
                step = srv.commit(s);
            }
            if step.is_err() || !srv.is_open() {
                died = true;
                break;
            }
        }
        prop_assert!(died, "the armed redo tear never fired");
        prop_assert!(!srv.is_open(), "a torn redo append must abort the instance");
        srv.fs().lock().clear_faults();
        if let Err(e) = srv.startup() {
            prop_assert!(
                false,
                "crash recovery failed on torn tail (keep {keep_num}/{keep_den}): {e}"
            );
        }
        // Settle the in-doubt transactions: the engine's answer (rolled
        // back or durably committed) is legal either way, but the model
        // must then hold the same answer.
        let scn = srv.current_scn();
        {
            let mut m = model.lock().unwrap();
            for txn in m.open_txn_ids() {
                m.resolve_in_doubt(&srv, txn, scn).unwrap();
            }
            prop_assert!(m.scns_strictly_increasing());
        }
        let m = model.lock().unwrap();
        let divergences = diff_states(&srv, &m).unwrap();
        prop_assert!(
            divergences.is_empty(),
            "keep {keep_num}/{keep_den} after {n_pre} commits: {} divergences, first: {}",
            divergences.len(),
            divergences[0]
        );
        prop_assert!(
            m.surviving_commits() >= n_pre,
            "a pre-tear committed txn was lost: {} survive of {n_pre} acked",
            m.surviving_commits()
        );
        let survived = m.surviving_commits();
        drop(m);

        // The recovered log takes new commits behind its last whole
        // record; a second crash must keep every one of them.
        let s = srv.connect().unwrap();
        for i in 1_000..1_000 + n_post {
            srv.insert(s, t, row(i)).unwrap();
            srv.commit(s).unwrap();
        }
        srv.shutdown_abort().unwrap();
        if let Err(e) = srv.startup() {
            prop_assert!(false, "second crash recovery failed (keep {keep_num}/{keep_den}): {e}");
        }
        let m = model.lock().unwrap();
        let divergences = diff_states(&srv, &m).unwrap();
        prop_assert!(
            divergences.is_empty(),
            "keep {keep_num}/{keep_den}, second crash: {} divergences, first: {}",
            divergences.len(),
            divergences[0]
        );
        prop_assert_eq!(m.surviving_commits(), survived + n_post, "acknowledged commits lost");
    }
}
