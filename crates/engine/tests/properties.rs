//! Property-based tests of the engine's storage formats and index
//! structures: everything persisted must round-trip exactly, and the
//! order-preserving key encoding must sort exactly like the values.

use bytes::Bytes;
use proptest::prelude::*;
use recobench_engine::catalog::{Catalog, CatalogChange, Extent, IndexDef};
use recobench_engine::codec::{Reader, Writer};
use recobench_engine::index::Index;
use recobench_engine::page::BlockImage;
use recobench_engine::redo::{decode_stream, RedoOp, RedoRecord};
use recobench_engine::row::{encode_key, encode_key_into, Row, Value};
use recobench_engine::types::{FileNo, ObjectId, RowId, Scn, TablespaceId, TxnId, UserId};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        "[ -~]{0,40}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::Bytes),
    ]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    proptest::collection::vec(value_strategy(), 0..8).prop_map(Row::new)
}

/// Generates two value tuples with identical arity and per-column type,
/// so comparing them exercises within-type key ordering.
fn shape_matched_pair() -> impl Strategy<Value = (Vec<Value>, Vec<Value>)> {
    let column = prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(x, y)| (Value::U64(x), Value::U64(y))),
        (any::<i64>(), any::<i64>()).prop_map(|(x, y)| (Value::I64(x), Value::I64(y))),
        ("[ -~]{0,20}", "[ -~]{0,20}").prop_map(|(x, y)| (Value::from(x), Value::from(y))),
        (
            proptest::collection::vec(any::<u8>(), 0..20),
            proptest::collection::vec(any::<u8>(), 0..20)
        )
            .prop_map(|(x, y)| (Value::Bytes(x), Value::Bytes(y))),
    ];
    proptest::collection::vec(column, 1..4).prop_map(|cols| cols.into_iter().unzip())
}

fn rid_strategy() -> impl Strategy<Value = RowId> {
    (any::<u32>(), any::<u32>(), any::<u16>())
        .prop_map(|(f, b, s)| RowId { file: FileNo(f), block: b, slot: s })
}

/// The two images of an update: the same columns with none, some or all
/// of them changed, or, one time in five, an after-image with its own
/// column count.
fn update_pair_strategy() -> impl Strategy<Value = (Row, Row)> {
    let cols = proptest::collection::vec((value_strategy(), any::<bool>(), value_strategy()), 0..8);
    let other = prop_oneof![
        4 => Just(None),
        1 => proptest::collection::vec(value_strategy(), 0..8).prop_map(Some),
    ];
    (cols, 0u8..3, other).prop_map(|(cols, changed, other)| {
        let before = Row::new(cols.iter().map(|(was, _, _)| was.clone()));
        let after = other.unwrap_or_else(|| {
            // 0: none changed, 1: the picked ones, 2: all.
            cols.into_iter().map(|(was, picked, now)| if changed == 2 || changed == 1 && picked { now } else { was }).collect()
        });
        (before, Row::new(after))
    })
}

fn redo_op_strategy() -> impl Strategy<Value = RedoOp> {
    prop_oneof![
        (any::<u32>(), rid_strategy(), row_strategy())
            .prop_map(|(o, rid, row)| RedoOp::Insert { obj: ObjectId(o), rid, row }),
        (any::<u32>(), rid_strategy(), update_pair_strategy())
            .prop_map(|(o, rid, (before, after))| RedoOp::Update { obj: ObjectId(o), rid, before, after }),
        (any::<u32>(), rid_strategy(), row_strategy())
            .prop_map(|(o, rid, before)| RedoOp::Delete { obj: ObjectId(o), rid, before }),
        Just(RedoOp::Commit),
        Just(RedoOp::Rollback),
        any::<u32>().prop_map(|o| RedoOp::Catalog(CatalogChange::DropTable { id: ObjectId(o) })),
    ]
}

/// The length of `op`'s record in the full-image form: for an update, the
/// two images behind their lengths, as the log stored every update before
/// it stored column deltas.
fn full_image_len(op: &RedoOp) -> usize {
    match op {
        RedoOp::Update { before, after, .. } => 8 + 8 + 1 + 4 + 10 + 4 + before.encoded_len() + 4 + after.encoded_len(),
        op => RedoRecord { scn: Scn(1), txn: None, op: op.clone() }.encode().len(),
    }
}

/// `decoded` is what the log gives back for `rec`: `rec` itself, except
/// that an update keeping its column count may come back as its column
/// delta, which must hold exactly the changed columns, take `before` to
/// `after` and `after` back to `before`, and be charged as the full image.
fn reads_back_as(decoded: &RedoRecord, rec: &RedoRecord) {
    prop_assert_eq!(decoded.charged_len(), full_image_len(&rec.op));
    prop_assert!(rec.encode().len() <= rec.charged_len(), "a record never stores more than it is charged");
    let (RedoOp::Update { obj, rid, before, after }, RedoOp::UpdateDelta { obj: o, rid: r, delta, .. }) =
        (&rec.op, &decoded.op)
    else {
        prop_assert_eq!(decoded, rec);
        return;
    };
    prop_assert_eq!((decoded.scn, decoded.txn, o, r), (rec.scn, rec.txn, obj, rid));
    prop_assert_eq!(before.len(), after.len());
    prop_assert_eq!(delta.len(), changed_columns(before, after));
    prop_assert_eq!(delta.apply(before).as_ref(), Some(after));
    prop_assert_eq!(delta.revert(after).as_ref(), Some(before));
}

fn changed_columns(before: &Row, after: &Row) -> usize {
    before.iter().zip(after.iter()).filter(|(b, a)| b != a).count()
}

proptest! {
    #[test]
    fn row_codec_round_trips(row in row_strategy()) {
        let encoded = row.encode();
        prop_assert_eq!(encoded.len(), row.encoded_len());
        prop_assert_eq!(Row::decode(encoded).unwrap(), row);
    }

    #[test]
    fn key_encoding_orders_exactly_like_values(
        pair in shape_matched_pair()
    ) {
        // Same-arity, same-type-shape tuples: heterogeneous comparisons
        // order by type tag, which `Value`'s derived Ord also does, so the
        // interesting property is within-type ordering.
        let (a, b) = pair;
        let ka = encode_key(&a);
        let kb = encode_key(&b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "byte order must equal value order: {:?} vs {:?}", a, b);
    }

    #[test]
    fn key_encode_into_reused_buffer_matches_fresh_encode(
        tuples in proptest::collection::vec(
            proptest::collection::vec(value_strategy(), 0..4), 1..10)
    ) {
        // The index probes encode into one scratch buffer (clear, encode,
        // look up). Whatever a previous probe left behind, the reused
        // buffer must end up byte-identical to a fresh allocation.
        let mut scratch: Vec<u8> = Vec::new();
        for vals in &tuples {
            scratch.clear();
            encode_key_into(vals, &mut scratch);
            prop_assert_eq!(&scratch, &encode_key(vals));
        }
    }

    #[test]
    fn index_replace_matches_remove_then_insert(
        ops in proptest::collection::vec((0u64..16, 0u64..16, 0u32..8), 1..60)
    ) {
        // `replace` (with its key-unchanged fast path) must index exactly
        // the same rids under the same keys as remove-then-insert. Order
        // within one key's entry list is not part of the contract (the
        // fast path keeps a rid in place where remove+insert re-appends
        // it), so entries compare as sets.
        let def = IndexDef { name: "IX".into(), cols: vec![0], unique: false, ordered: true };
        let mut fast = Index::new(def.clone());
        let mut slow = Index::new(def);
        for (kb, ka, block) in ops {
            let before = Row::new(vec![Value::U64(kb)]);
            let after = Row::new(vec![Value::U64(ka)]);
            let rid = RowId { file: FileNo(1), block, slot: 0 };
            fast.insert(&before, rid).unwrap();
            slow.insert(&before, rid).unwrap();
            fast.replace(&before, &after, rid).unwrap();
            slow.remove(&before, rid);
            slow.insert(&after, rid).unwrap();
            prop_assert_eq!(fast.key_count(), slow.key_count());
            for k in 0..16u64 {
                let mut a = fast.lookup(&[Value::U64(k)]);
                let mut b = slow.lookup(&[Value::U64(k)]);
                a.sort();
                b.sort();
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn block_codec_round_trips(
        rows in proptest::collection::vec((any::<u16>(), row_strategy()), 0..20),
        scn in any::<u64>(),
    ) {
        let mut img = BlockImage::empty();
        for (slot, row) in &rows {
            img.put(*slot, row.clone(), Scn(scn));
        }
        let decoded = BlockImage::decode(img.encode()).unwrap();
        prop_assert_eq!(decoded.row_count(), img.row_count());
        for (slot, _) in &rows {
            prop_assert_eq!(decoded.row(*slot), img.row(*slot));
        }
        prop_assert_eq!(decoded.last_scn, img.last_scn);
    }

    #[test]
    fn redo_record_codec_round_trips(
        scn in any::<u64>(),
        txn in proptest::option::of(1u64..u64::MAX),
        op in redo_op_strategy(),
    ) {
        let rec = RedoRecord { scn: Scn(scn), txn: txn.map(TxnId), op };
        let mut r = Reader::new(rec.encode());
        reads_back_as(&RedoRecord::decode_from(&mut r).unwrap(), &rec);
        prop_assert_eq!(r.remaining(), 0);
    }

    /// An update that keeps the column count and changes no more columns
    /// than it keeps (here: some of the even ones) is stored as its column
    /// delta, which re-encodes to the bytes it was decoded from.
    #[test]
    fn an_update_of_some_columns_is_stored_as_its_delta(
        cols in proptest::collection::vec((value_strategy(), any::<bool>(), value_strategy()), 0..8),
        rid in rid_strategy(),
    ) {
        let before = Row::new(cols.iter().map(|(was, _, _)| was.clone()));
        let after = Row::new(
            cols.into_iter().enumerate().map(|(i, (was, picked, now))| if i % 2 == 0 && picked { now } else { was }),
        );
        let op = RedoOp::Update { obj: ObjectId(1), rid, before, after };
        let rec = RedoRecord { scn: Scn(3), txn: Some(TxnId(2)), op };
        let stored = rec.encode();
        let decoded = RedoRecord::decode_from(&mut Reader::new(stored.clone())).unwrap();
        prop_assert!(matches!(decoded.op, RedoOp::UpdateDelta { .. }), "{:?}", decoded);
        reads_back_as(&decoded, &rec);
        prop_assert_eq!(decoded.encode(), stored);
    }

    #[test]
    fn redo_stream_decode_recovers_every_record_and_offset(
        ops in proptest::collection::vec(redo_op_strategy(), 1..30),
        overhead in 0u64..1024,
    ) {
        let records: Vec<RedoRecord> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| RedoRecord { scn: Scn(i as u64 + 1), txn: Some(TxnId(1)), op })
            .collect();
        let mut stream = Vec::new();
        let mut offsets = Vec::new();
        let mut pos = 0u64;
        for rec in &records {
            offsets.push(pos);
            pos += full_image_len(&rec.op) as u64 + overhead;
            stream.extend_from_slice(&rec.encode());
        }
        let decoded = decode_stream(&[Bytes::from(stream)], overhead).unwrap();
        prop_assert_eq!(decoded.len(), records.len());
        for ((off, rec), (want_off, want_rec)) in decoded.iter().zip(offsets.iter().zip(&records)) {
            prop_assert_eq!(off, want_off);
            reads_back_as(rec, want_rec);
        }
    }

    #[test]
    fn scalar_codec_round_trips(
        u8s in any::<u8>(), u16s in any::<u16>(), u32s in any::<u32>(),
        u64s in any::<u64>(), i64s in any::<i64>(), s in "[ -~]{0,60}",
    ) {
        let mut w = Writer::new();
        w.put_u8(u8s);
        w.put_u16(u16s);
        w.put_u32(u32s);
        w.put_u64(u64s);
        w.put_i64(i64s);
        w.put_str(&s);
        let mut r = Reader::new(w.into_bytes());
        prop_assert_eq!(r.get_u8("a").unwrap(), u8s);
        prop_assert_eq!(r.get_u16("b").unwrap(), u16s);
        prop_assert_eq!(r.get_u32("c").unwrap(), u32s);
        prop_assert_eq!(r.get_u64("d").unwrap(), u64s);
        prop_assert_eq!(r.get_i64("e").unwrap(), i64s);
        prop_assert_eq!(r.get_str("f").unwrap(), s);
    }

    #[test]
    fn catalog_changes_replay_idempotently_in_any_suffix(
        extents in proptest::collection::vec((1u32..4, 0u32..256), 1..20),
        replay_from in 0usize..20,
    ) {
        // Applying a change log, then re-applying any suffix of it, must
        // leave the catalog exactly as after the first pass (this is what
        // recovery relies on when the checkpoint races the log position).
        let mut changes = vec![
            CatalogChange::CreateUser { id: UserId(1), name: "u".into() },
            CatalogChange::CreateTablespace { id: TablespaceId(1), name: "TS".into() },
            CatalogChange::CreateTable {
                id: ObjectId(1),
                name: "T".into(),
                owner: UserId(1),
                tablespace: TablespaceId(1),
                indexes: vec![IndexDef { name: "PK".into(), cols: vec![0], unique: true, ordered: true }],
            },
        ];
        for (file, start) in extents {
            changes.push(CatalogChange::AllocExtent {
                table: ObjectId(1),
                extent: Extent { file: FileNo(file), start: start * 64, len: 64 },
            });
        }
        let mut cat = Catalog::new();
        for ch in &changes {
            cat.apply(ch);
        }
        let snapshot = cat.clone();
        let from = replay_from.min(changes.len());
        for ch in &changes[from..] {
            cat.apply(ch);
        }
        prop_assert_eq!(cat, snapshot);
    }

    #[test]
    fn index_insert_remove_matches_model(
        ops in proptest::collection::vec((any::<bool>(), 0u64..32, 0u32..8), 1..100)
    ) {
        let mut ix = Index::new(IndexDef { name: "IX".into(), cols: vec![0], unique: false, ordered: true });
        let mut model: std::collections::BTreeMap<u64, std::collections::BTreeSet<u32>> =
            std::collections::BTreeMap::new();
        for (insert, key, block) in ops {
            let row = Row::new(vec![Value::U64(key)]);
            let rid = RowId { file: FileNo(1), block, slot: 0 };
            if insert {
                ix.insert(&row, rid).unwrap();
                model.entry(key).or_default().insert(block);
            } else {
                ix.remove(&row, rid);
                if let Some(set) = model.get_mut(&key) {
                    set.remove(&block);
                    if set.is_empty() {
                        model.remove(&key);
                    }
                }
            }
        }
        for (key, blocks) in &model {
            let got: std::collections::BTreeSet<u32> =
                ix.lookup(&[Value::U64(*key)]).into_iter().map(|r| r.block).collect();
            prop_assert_eq!(&got, blocks);
        }
        prop_assert_eq!(ix.key_count(), model.len());
    }
}
