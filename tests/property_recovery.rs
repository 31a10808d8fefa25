//! Property-based tests on the core recovery invariants: whatever random
//! committed workload ran, and whenever the crash hits, recovery restores
//! exactly the acknowledged state.

use proptest::prelude::*;
use recobench::engine::catalog::IndexDef;
use recobench::engine::row::{Row, Value, ValueRef};
use recobench::engine::{DbServer, DiskLayout, InstanceConfig};
use recobench::sim::SimClock;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: u64, val: i64 },
    Update { key: u64, val: i64 },
    Delete { key: u64 },
    Commit,
    Rollback,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..64u64, any::<i64>()).prop_map(|(key, val)| Op::Insert { key, val }),
        3 => (0..64u64, any::<i64>()).prop_map(|(key, val)| Op::Update { key, val }),
        2 => (0..64u64).prop_map(|key| Op::Delete { key }),
        3 => Just(Op::Commit),
        1 => Just(Op::Rollback),
    ]
}

fn server(redo_kb: u64) -> DbServer {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(redo_kb * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(30)
        .archive_mode(true)
        .cache_blocks(32)
        .build();
    let mut srv = DbServer::on_fresh_disks("PROP", SimClock::shared(), DiskLayout::four_disk(), cfg);
    srv.create_database().unwrap();
    srv.create_user("p").unwrap();
    srv.create_tablespace("P", 2, 256).unwrap();
    srv.create_table("KV", "p", "P", vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }])
        .unwrap();
    srv
}

/// Applies the ops, mirroring committed state into a model map; crashes at
/// the end, recovers, and compares the database to the model.
fn run_model(ops: &[Op], redo_kb: u64, crash: bool) {
    let mut srv = server(redo_kb);
    let t = srv.table_id("KV").unwrap();
    let mut committed: BTreeMap<u64, i64> = BTreeMap::new();
    let mut pending: BTreeMap<u64, Option<i64>> = BTreeMap::new(); // None = deleted
    let s = srv.connect().unwrap();

    let lookup = |srv: &mut DbServer, key: u64| {
        srv.lookup(t, 0, &[Value::U64(key)]).unwrap().first().copied()
    };
    for op in ops {
        match op {
            Op::Insert { key, val } => {
                if lookup(&mut srv, *key).is_none() {
                    srv.insert(s, t, Row::new(vec![Value::U64(*key), Value::I64(*val)])).unwrap();
                    pending.insert(*key, Some(*val));
                }
            }
            Op::Update { key, val } => {
                if let Some(rid) = lookup(&mut srv, *key) {
                    match srv.update(s, t, rid, Row::new(vec![Value::U64(*key), Value::I64(*val)]))
                    {
                        Ok(()) => {
                            pending.insert(*key, Some(*val));
                        }
                        Err(_) => { /* lock conflict impossible single-txn */ }
                    }
                }
            }
            Op::Delete { key } => {
                if let Some(rid) = lookup(&mut srv, *key) {
                    if srv.delete(s, t, rid).is_ok() {
                        pending.insert(*key, None);
                    }
                }
            }
            Op::Commit => {
                srv.commit(s).unwrap();
                for (k, v) in std::mem::take(&mut pending) {
                    match v {
                        Some(v) => {
                            committed.insert(k, v);
                        }
                        None => {
                            committed.remove(&k);
                        }
                    }
                }
            }
            Op::Rollback => {
                srv.rollback(s).unwrap();
                pending.clear();
            }
        }
    }
    // Crash with the final transaction in flight (its changes must vanish).
    if crash {
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
    } else {
        srv.rollback(s).unwrap();
        srv.disconnect(s);
    }

    let actual: BTreeMap<u64, i64> = srv
        .peek_scan(t)
        .unwrap()
        .into_iter()
        .map(|(_, row)| {
            (
                row.get(0).and_then(ValueRef::as_u64).unwrap(),
                row.get(1).and_then(ValueRef::as_i64).unwrap(),
            )
        })
        .collect();
    assert_eq!(actual, committed, "recovered state must equal acknowledged state");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn crash_recovery_restores_exactly_the_committed_state(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        redo_kb in 16u64..128,
    ) {
        run_model(&ops, redo_kb, true);
    }

    #[test]
    fn clean_shutdown_free_run_matches_model_too(
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        run_model(&ops, 64, false);
    }

    #[test]
    fn double_crash_is_idempotent(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        // Run a workload, crash, recover, then crash again immediately:
        // the second recovery must not change anything.
        let mut srv = server(64);
        let t = srv.table_id("KV").unwrap();
        let s = srv.connect().unwrap();
        let mut n = 0u64;
        for op in &ops {
            if let Op::Insert { key, val } = op {
                if srv.lookup(t, 0, &[Value::U64(*key)]).unwrap().is_empty() {
                    srv.insert(s, t, Row::new(vec![Value::U64(*key), Value::I64(*val)])).unwrap();
                    n += 1;
                }
            }
        }
        srv.commit(s).unwrap();
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        let first: Vec<_> = srv.peek_scan(t).unwrap();
        prop_assert_eq!(first.len() as u64, n);
        srv.shutdown_abort().unwrap();
        srv.startup().unwrap();
        let second: Vec<_> = srv.peek_scan(t).unwrap();
        prop_assert_eq!(first, second);
    }
}
