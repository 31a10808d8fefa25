//! Differential property test of the session API under interleaving.
//!
//! Two sessions submit a randomized stream of DML against one engine while
//! the DML tap feeds a [`RefModel`]. The stream is interleaved statement by
//! statement, so row locks, FIFO lock waits and two-party deadlocks all
//! fire along the way. A blocked session behaves like a real blocked
//! client: it submits nothing until the lock manager grants its wait, and
//! a deadlock victim rolls back. Whatever subset of operations the engine
//! accepted, the committed state must equal the model's replay — rejected
//! statements (lock waits, deadlock aborts, unique-key violations,
//! vanished rows) must leave no trace on either side.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use recobench_engine::catalog::IndexDef;
use recobench_engine::row::{Row, Value, ValueRef};
use recobench_engine::{DbError, DbServer, DiskLayout, InstanceConfig, ObjectId, RowId, SessionId};
use recobench_oracle::{diff_states, RefModel};
use recobench_sim::SimClock;

/// One decoded client statement. `Commit`/`Rollback` end the session's
/// open transaction; the rest implicitly begin one.
#[derive(Debug, Clone)]
enum Op {
    Insert(Row),
    /// The bool asks for a key-preserving update (the TPC-C shape); a
    /// `false` leaves the drawn key in place, moving the unique key.
    Update(usize, Row, bool),
    Delete(usize),
    Commit,
    Rollback,
}

/// Decodes raw draws into per-session statements. The key space is kept
/// tiny so both sessions fight over the same rows constantly.
fn decode(words: &[u64]) -> Vec<(usize, Op)> {
    words
        .iter()
        .map(|&w| {
            let session = (w % 2) as usize;
            let key = 1 + (w >> 4) % 6;
            let payload = Value::I64(((w >> 8) % 1_000) as i64);
            let row = Row::new(vec![Value::U64(key), payload]);
            let op = match (w >> 1) % 8 {
                0..=2 => Op::Update((w >> 16) as usize, row, (w >> 24) % 4 != 0),
                3 | 4 => Op::Insert(row),
                5 => Op::Delete((w >> 16) as usize),
                6 => Op::Commit,
                _ => Op::Rollback,
            };
            (session, op)
        })
        .collect()
}

fn seeded_server() -> (DbServer, ObjectId, Vec<RowId>) {
    let mut srv = DbServer::on_fresh_disks(
        "PROP",
        SimClock::shared(),
        DiskLayout::four_disk(),
        InstanceConfig::default(),
    );
    srv.create_database().unwrap();
    srv.create_user("u").unwrap();
    srv.create_tablespace("D", 2, 1_024).unwrap();
    let t = srv
        .create_table(
            "T",
            "u",
            "D",
            vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
        )
        .unwrap();
    let s = srv.connect().unwrap();
    let mut pool = Vec::new();
    for key in 0..8u64 {
        pool.push(srv.insert(s, t, Row::new(vec![Value::U64(key), Value::I64(0)])).unwrap());
        srv.commit(s).unwrap();
    }
    srv.disconnect(s);
    (srv, t, pool)
}

/// What became of one submitted statement.
enum Fate {
    /// Applied, failed benignly, or ended the transaction — session free.
    Done,
    /// Lock wait: the statement must be held and retried on grant.
    Parked,
    /// Deadlock victim: the transaction was rolled back, statement dropped.
    Aborted,
}

fn submit(
    srv: &mut DbServer,
    s: SessionId,
    t: ObjectId,
    pool: &mut Vec<RowId>,
    op: &Op,
) -> Fate {
    let result = match op {
        Op::Insert(row) => match srv.insert(s, t, row.clone()) {
            Ok(rid) => {
                pool.push(rid);
                Ok(())
            }
            Err(e) => Err(e),
        },
        Op::Update(i, row, keep_key) => {
            let rid = pool[i % pool.len()];
            if *keep_key {
                // Preserve the row's current key, as every TPC-C update
                // does; the minority case below moves the unique key and
                // exercises the vacated-key enqueue.
                match srv.get_row(t, rid) {
                    Ok(current) => {
                        let mut replacement = row.clone();
                        replacement.set(0, current.get(0).map_or(Value::U64(0), ValueRef::to_value));
                        srv.update(s, t, rid, replacement)
                    }
                    Err(e) => Err(e),
                }
            } else {
                srv.update(s, t, rid, row.clone())
            }
        }
        Op::Delete(i) => {
            let rid = pool[i % pool.len()];
            srv.delete(s, t, rid)
        }
        Op::Commit => srv.commit(s),
        Op::Rollback => srv.rollback(s),
    };
    match result {
        Ok(()) => Fate::Done,
        Err(DbError::LockWait { .. }) => Fate::Parked,
        Err(DbError::Deadlock { .. }) => {
            srv.rollback(s).expect("victim rollback always succeeds");
            Fate::Aborted
        }
        // Unique-key violations and rows deleted out from under the pool
        // are ordinary statement failures: nothing mutated, txn lives on.
        Err(_) => Fate::Done,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_interleaved_sessions_never_diverge_from_the_model(
        words in proptest::collection::vec(any::<u64>(), 1..250)
    ) {
        let (mut srv, t, mut pool) = seeded_server();
        let model = Arc::new(Mutex::new(RefModel::from_server(&srv).unwrap()));
        let sink = Arc::clone(&model);
        srv.set_dml_tap(move |change| sink.lock().unwrap().observe(change));

        let sessions = [srv.connect().unwrap(), srv.connect().unwrap()];
        let mut parked: [Option<Op>; 2] = [None, None];

        for (side, op) in decode(&words) {
            if parked[side].is_some() {
                // A blocked client cannot submit; the statement is lost on
                // the keyboard side, exactly as a real terminal would be.
                continue;
            }
            match submit(&mut srv, sessions[side], t, &mut pool, &op) {
                Fate::Done => {}
                Fate::Parked => parked[side] = Some(op),
                Fate::Aborted => {}
            }
            // A commit, rollback or victim abort may have granted the
            // other session's wait: replay its held statement, which may
            // immediately park again behind a different holder.
            loop {
                let grants = srv.take_lock_grants();
                if grants.is_empty() {
                    break;
                }
                for (granted, _) in grants {
                    let other = sessions.iter().position(|&s| s == granted).unwrap();
                    let held = parked[other].take().expect("granted session was parked");
                    match submit(&mut srv, sessions[other], t, &mut pool, &held) {
                        Fate::Done | Fate::Aborted => {}
                        Fate::Parked => parked[other] = Some(held),
                    }
                }
            }
        }

        // Quiesce: abandon whatever is still open — in-flight work must
        // not count, and a parked wait must cancel cleanly.
        for &s in &sessions {
            srv.rollback(s).unwrap();
            srv.disconnect(s);
        }
        let model = model.lock().unwrap();
        prop_assert_eq!(model.open_txns(), 0, "rollbacks close every model txn");
        let divergences = diff_states(&srv, &model).unwrap();
        prop_assert!(divergences.is_empty(), "engine and model disagree: {divergences:?}");
    }
}
