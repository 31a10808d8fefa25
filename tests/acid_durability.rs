//! Cross-crate ACID checks: the engine's transactional guarantees as seen
//! through the public facade, under crashes and media damage.

use std::sync::Arc;

use recobench::engine::catalog::IndexDef;
use recobench::engine::row::{Row, Value, ValueRef};
use recobench::engine::{DbError, DbServer, DiskLayout, InstanceConfig};
use recobench::sim::SimClock;

fn server() -> DbServer {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(128 * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(60)
        .archive_mode(true)
        .cache_blocks(64)
        .build();
    let mut srv = DbServer::on_fresh_disks("ACID", SimClock::shared(), DiskLayout::four_disk(), cfg);
    srv.create_database().unwrap();
    srv.create_user("app").unwrap();
    srv.create_tablespace("DATA", 2, 512).unwrap();
    srv.create_table(
        "ACCOUNTS",
        "app",
        "DATA",
        vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
    )
    .unwrap();
    srv
}

fn account(id: u64, balance: i64) -> Row {
    Row::new(vec![Value::U64(id), Value::I64(balance)])
}

#[test]
fn atomicity_transfer_is_all_or_nothing_across_crash() {
    let mut srv = server();
    let t = srv.table_id("ACCOUNTS").unwrap();
    let s1 = srv.connect().unwrap();
    let a = srv.insert(s1, t, account(1, 100)).unwrap();
    let b = srv.insert(s1, t, account(2, 100)).unwrap();
    srv.commit(s1).unwrap();

    // A transfer that crashes mid-flight must leave both sides intact.
    srv.update(s1, t, a, account(1, 0)).unwrap();
    // Force the half-done change into the durable log via an unrelated
    // session's commit, then crash before the transfer commits.
    let s2 = srv.connect().unwrap();
    let c = srv.insert(s2, t, account(3, 7)).unwrap();
    srv.commit(s2).unwrap();
    srv.shutdown_abort().unwrap();
    srv.startup().unwrap();

    assert_eq!(srv.get_row(t, a).unwrap(), account(1, 100), "in-flight debit rolled back");
    assert_eq!(srv.get_row(t, b).unwrap(), account(2, 100));
    assert_eq!(srv.get_row(t, c).unwrap(), account(3, 7), "committed work survives");
    // Total money is conserved.
    let total: i64 = srv
        .peek_scan(t)
        .unwrap()
        .iter()
        .map(|(_, r)| r.get(1).and_then(ValueRef::as_i64).unwrap())
        .sum();
    assert_eq!(total, 207);
}

#[test]
fn durability_every_acked_commit_survives_repeated_crashes() {
    let mut srv = server();
    let t = srv.table_id("ACCOUNTS").unwrap();
    let mut acked = Vec::new();
    for round in 0..5u64 {
        for i in 0..20u64 {
            let id = round * 100 + i;
            let s = srv.connect().unwrap();
            srv.insert(s, t, account(id, id as i64)).unwrap();
            srv.commit(s).unwrap();
            srv.disconnect(s);
            acked.push(id);
        }
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        for &id in &acked {
            assert_eq!(
                srv.lookup(t, 0, &[Value::U64(id)]).unwrap().len(),
                1,
                "account {id} lost after crash round {round}"
            );
        }
    }
}

#[test]
fn isolation_conflicting_write_waits_and_rollback_cancels_the_wait() {
    let mut srv = server();
    let t = srv.table_id("ACCOUNTS").unwrap();
    let s1 = srv.connect().unwrap();
    let a = srv.insert(s1, t, account(1, 50)).unwrap();
    srv.commit(s1).unwrap();

    srv.update(s1, t, a, account(1, 60)).unwrap();
    let s2 = srv.connect().unwrap();
    let err = srv.update(s2, t, a, account(1, 70)).unwrap_err();
    let holder = srv.session_txn_id(s1).unwrap();
    assert!(
        matches!(err, DbError::LockWait { holder: h } if h == holder),
        "second writer queues behind the first: {err}"
    );
    // Rolling the waiter back cancels its queued request, so the later
    // commit grants the lock to nobody.
    srv.rollback(s2).unwrap();
    srv.commit(s1).unwrap();
    assert!(srv.take_lock_grants().is_empty(), "cancelled wait must not be granted");
    assert_eq!(srv.get_row(t, a).unwrap(), account(1, 60));
}

#[test]
fn isolation_deadlock_aborts_the_closing_requester_only() {
    let mut srv = server();
    let t = srv.table_id("ACCOUNTS").unwrap();
    let s1 = srv.connect().unwrap();
    let a = srv.insert(s1, t, account(1, 10)).unwrap();
    let b = srv.insert(s1, t, account(2, 20)).unwrap();
    srv.commit(s1).unwrap();

    let s2 = srv.connect().unwrap();
    srv.update(s1, t, a, account(1, 11)).unwrap();
    srv.update(s2, t, b, account(2, 21)).unwrap();
    // s1 queues behind s2 on `b`…
    assert!(matches!(srv.update(s1, t, b, account(2, 22)), Err(DbError::LockWait { .. })));
    // …so s2 asking for `a` closes the cycle and dies as the victim.
    let err = srv.update(s2, t, a, account(1, 12)).unwrap_err();
    let victim = srv.session_txn_id(s2).unwrap();
    match err {
        DbError::Deadlock { victim: v, cycle } => {
            assert_eq!(v, victim, "the requester that closed the cycle is the victim");
            assert!(cycle.contains(&victim));
        }
        other => panic!("expected a deadlock, got {other}"),
    }
    srv.rollback(s2).unwrap();
    // The victim's rollback frees `b`; the survivor is granted its wait
    // and finishes the transfer.
    let grants = srv.take_lock_grants();
    assert_eq!(grants.len(), 1);
    assert_eq!(grants[0].0, s1);
    srv.update(s1, t, b, account(2, 22)).unwrap();
    srv.commit(s1).unwrap();
    assert_eq!(srv.get_row(t, a).unwrap(), account(1, 11));
    assert_eq!(srv.get_row(t, b).unwrap(), account(2, 22));
    let stats = srv.stats();
    assert_eq!(stats.deadlocks, 1);
    assert!(stats.lock_waits >= 1 && stats.lock_grants >= 1);
}

#[test]
fn isolation_vacated_unique_key_blocks_the_reinserter() {
    // An uncommitted delete leaves its unique key out of the index, but
    // the key is not free: rollback would resurrect it. A concurrent
    // insert of the same key must queue behind the deleting transaction
    // and, once the delete commits, succeed on retry.
    let mut srv = server();
    let t = srv.table_id("ACCOUNTS").unwrap();
    let s1 = srv.connect().unwrap();
    let a = srv.insert(s1, t, account(1, 50)).unwrap();
    srv.commit(s1).unwrap();

    srv.delete(s1, t, a).unwrap();
    let s2 = srv.connect().unwrap();
    let holder = srv.session_txn_id(s1).unwrap();
    let err = srv.insert(s2, t, account(1, 99)).unwrap_err();
    assert!(
        matches!(err, DbError::LockWait { holder: h } if h == holder),
        "reinserter queues behind the uncommitted delete: {err}"
    );
    srv.commit(s1).unwrap();
    let grants = srv.take_lock_grants();
    assert_eq!(grants.len(), 1);
    assert_eq!(grants[0].0, s2);
    let b = srv.insert(s2, t, account(1, 99)).unwrap();
    srv.commit(s2).unwrap();
    assert_eq!(srv.get_row(t, b).unwrap(), account(1, 99));

    // The mirror case: if the delete rolls back instead, the retried
    // insert collides with the resurrected row.
    srv.delete(s2, t, b).unwrap();
    assert!(matches!(srv.insert(s1, t, account(1, 7)), Err(DbError::LockWait { .. })));
    srv.rollback(s2).unwrap();
    assert_eq!(srv.take_lock_grants().len(), 1);
    assert!(
        matches!(srv.insert(s1, t, account(1, 7)), Err(DbError::DuplicateKey { .. })),
        "rollback resurrected the key, so the retry must now collide"
    );
    srv.rollback(s1).unwrap();
    srv.disconnect(s1);
    srv.disconnect(s2);
}

#[test]
fn media_recovery_reconstructs_committed_state_exactly() {
    let mut srv = server();
    let t = srv.table_id("ACCOUNTS").unwrap();
    let s = srv.connect().unwrap();
    for i in 0..40u64 {
        srv.insert(s, t, account(i, 2 * i as i64)).unwrap();
        srv.commit(s).unwrap();
    }
    // The cold backup severs every session; reconnect for the tail.
    srv.take_cold_backup().unwrap();
    let s = srv.connect().unwrap();
    for i in 40..80u64 {
        srv.insert(s, t, account(i, 2 * i as i64)).unwrap();
        srv.commit(s).unwrap();
    }
    let before: Vec<_> = srv.peek_scan(t).unwrap();

    let victim = srv.datafile_paths("DATA").unwrap()[1].clone();
    srv.os_delete_file(&victim).unwrap();
    srv.offline_datafile(&victim).unwrap();
    srv.recover_datafile(&victim).unwrap();

    let after: Vec<_> = srv.peek_scan(t).unwrap();
    assert_eq!(before, after, "restore + redo reproduces the exact committed state");
}

#[test]
fn facade_reexports_are_usable_together() {
    // The whole stack is reachable through the `recobench` facade.
    let clock: Arc<SimClock> = SimClock::shared();
    let _rng = recobench::sim::SimRng::seed_from(1);
    let _cfg = recobench::core::RecoveryConfig::table3();
    let _classes = recobench::faults::FaultClass::all();
    let _scale = recobench::tpcc::TpccScale::tiny();
    drop(clock);
}
