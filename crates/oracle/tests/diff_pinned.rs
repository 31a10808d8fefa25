//! Pins `diff_states`' whole output — every divergence and their order —
//! for a fixture where engine and model disagree in every way the diff
//! names: lost rows, phantom rows, value mismatches, a missing table, a
//! phantom table and an unreadable (bit-rotted) table, spread over several
//! tables so the order across tables is pinned too.

use recobench_engine::catalog::IndexDef;
use recobench_engine::{
    DbServer, DiskLayout, DmlChange, InstanceConfig, ObjectId, Row, RowId, Scn, TxnId, Value,
};
use recobench_oracle::{diff_states, Divergence, RefModel};
use recobench_sim::SimClock;

fn pk(name: &str, ordered: bool) -> Vec<IndexDef> {
    vec![IndexDef { name: name.into(), cols: vec![0], unique: true, ordered }]
}

fn row(key: u64, value: u64) -> Row {
    Row::new(vec![Value::U64(key), Value::U64(value)])
}

/// Commits `changes` in the model only, as one transaction the engine
/// never ran.
fn model_commits(model: &mut RefModel, txn: u64, changes: Vec<DmlChange>) {
    for change in &changes {
        model.observe(change);
    }
    model.observe(&DmlChange::Commit { txn: TxnId(txn), scn: Scn(u64::MAX - 1) });
}

#[test]
fn every_kind_of_divergence_comes_out_whole_and_in_order() {
    let cfg = InstanceConfig::builder()
        .redo_file_bytes(64 * 1024)
        .redo_groups(3)
        .checkpoint_timeout_secs(300)
        .archive_mode(true)
        .cache_blocks(64)
        .build();
    let mut srv =
        DbServer::on_fresh_disks("DIFF", SimClock::shared(), DiskLayout::four_disk(), cfg);
    srv.create_database().unwrap();
    srv.create_user("app").unwrap();
    srv.create_tablespace("DATA", 2, 512).unwrap();
    // R sits alone in its tablespace, so rotting that file reaches only R.
    srv.create_tablespace("ROT", 1, 64).unwrap();
    srv.create_table("A", "app", "DATA", pk("A_PK", true)).unwrap();
    srv.create_table("B", "app", "DATA", pk("B_PK", false)).unwrap();
    srv.create_table("D", "app", "DATA", pk("D_PK", true)).unwrap();
    srv.create_table("R", "app", "ROT", pk("R_PK", true)).unwrap();
    let [a, b, d, r] = ["A", "B", "D", "R"].map(|name| srv.table_id(name).unwrap());
    let s = srv.connect().unwrap();
    let insert = |srv: &mut DbServer, obj: ObjectId, base: u64| -> Vec<RowId> {
        (0..4u64).map(|i| srv.insert(s, obj, row(i, base + i)).unwrap()).collect()
    };
    let ra = insert(&mut srv, a, 100);
    let rb = insert(&mut srv, b, 200);
    insert(&mut srv, d, 300);
    let rr = insert(&mut srv, r, 400);
    srv.commit(s).unwrap();

    let mut model = RefModel::from_server(&srv).unwrap();

    // Engine-only changes, behind the model's back (no tap installed).
    let ra_new = srv.insert(s, a, row(10, 110)).unwrap(); // phantom row in A
    let rb_new = srv.insert(s, b, row(11, 211)).unwrap(); // phantom row in B
    srv.delete(s, b, rb[0]).unwrap(); // lost row in B
    srv.commit(s).unwrap();
    srv.drop_table("D").unwrap(); // missing table
    srv.create_table("P", "app", "DATA", pk("P_PK", true)).unwrap(); // phantom table
    let p = srv.table_id("P").unwrap();
    srv.insert(s, p, row(0, 500)).unwrap();
    srv.commit(s).unwrap();

    // Model-only commits.
    let rb_fake = RowId { slot: rb[3].slot + 50, ..rb[3] };
    model_commits(
        &mut model,
        1_000_001,
        vec![
            // value mismatches in A and B
            DmlChange::Update { txn: TxnId(1_000_001), obj: a, rid: ra[1], row: row(1, 999) },
            DmlChange::Update { txn: TxnId(1_000_001), obj: b, rid: rb[2], row: row(2, 999) },
            // the engine still has A's row 2: a phantom row
            DmlChange::Delete { txn: TxnId(1_000_001), obj: a, rid: ra[2] },
            // a row the engine never stored: lost
            DmlChange::Insert { txn: TxnId(1_000_001), obj: b, rid: rb_fake, row: row(77, 277) },
        ],
    );

    // Rot R's only datafile on disk: its heap no longer reads.
    srv.checkpoint_now().unwrap();
    let rot_path = srv.datafile_paths("ROT").unwrap().remove(0);
    assert_eq!(rot_path, "/u01/rot_01.dbf");
    srv.sabotage_bit_rot(&rot_path, 1).unwrap();
    assert_eq!((a.0, b.0, d.0, r.0, p.0), (1, 2, 3, 4, 5));

    let divergences = diff_states(&srv, &model).unwrap();

    let lost = |obj, rid, expected| Divergence::LostRow { obj, rid, expected };
    let mut want = vec![
        Divergence::MissingTable { obj: d, name: "D".into() },
        Divergence::PhantomTable { obj: p },
        Divergence::Integrity(
            "table 4 unreadable: checksum mismatch in block 0 of /u01/rot_01.dbf".into(),
        ),
        // lost rows and value mismatches, in (table, rid) order
        Divergence::ValueMismatch { obj: a, rid: ra[1], expected: row(1, 999), actual: row(1, 101) },
        lost(b, rb[0], row(0, 200)),
        Divergence::ValueMismatch { obj: b, rid: rb[2], expected: row(2, 999), actual: row(2, 202) },
        lost(b, rb_fake, row(77, 277)),
    ];
    want.extend((0..4).map(|i| lost(r, rr[i], row(i as u64, 400 + i as u64))));
    // then phantom rows, in (table, rid) order
    want.push(Divergence::PhantomRow { obj: a, rid: ra[2], actual: row(2, 102) });
    want.push(Divergence::PhantomRow { obj: a, rid: ra_new, actual: row(10, 110) });
    want.push(Divergence::PhantomRow { obj: b, rid: rb_new, actual: row(11, 211) });
    // then the engine's own integrity walk
    want.extend(
        [
            "datafile 3 (/u01/rot_01.dbf): block 0 fails verification (checksum mismatch)",
            "table R: heap unreadable: checksum mismatch in block 0 of /u01/rot_01.dbf",
        ]
        .map(|v| Divergence::Integrity(v.into())),
    );
    assert_eq!(divergences, want);
}
