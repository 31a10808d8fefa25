//! Redo records and the volatile redo-log state (log buffer, current
//! group/sequence/offset).
//!
//! The persistent side of logging — which sequence lives in which group,
//! archive locations, checkpoint history — lives in the
//! [control file](crate::controlfile); the I/O choreography (LGWR flushes,
//! log switches, the checkpoints and archiving they trigger) is driven by
//! [`DbServer`](crate::server::DbServer).

use bytes::Bytes;

use crate::catalog::CatalogChange;
use crate::codec::{DecodeError, DecodeResult, Reader, Writer};
use crate::config::costs::REDO_OVERHEAD_BYTES;
use crate::row::{ColumnDelta, Row};
use crate::types::{FileNo, ObjectId, RedoAddr, RowId, Scn, TxnId};

/// The operation described by a redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// Row inserted (after-image).
    Insert {
        /// Target table.
        obj: ObjectId,
        /// Physical address the row was placed at.
        rid: RowId,
        /// The inserted row.
        row: Row,
    },
    /// Row updated (both images, so recovery can also undo). The log
    /// stores it as a [`RedoOp::UpdateDelta`] when both images have the
    /// same column count and the delta is no longer than the two images.
    Update {
        /// Target table.
        obj: ObjectId,
        /// Physical address of the row.
        rid: RowId,
        /// Image before the change.
        before: Row,
        /// Image after the change.
        after: Row,
    },
    /// Row updated, as the log stores an update that keeps the column
    /// count: only the changed columns, each with its before- and
    /// after-value. Replay splices the after-values into the row in the
    /// slot, undo the before-values; only decoding makes one.
    UpdateDelta {
        /// Target table.
        obj: ObjectId,
        /// Physical address of the row.
        rid: RowId,
        /// Length of the full-image record this stands for: what the log
        /// charges for it.
        charged: u32,
        /// The changed columns.
        delta: ColumnDelta,
    },
    /// Row deleted (before-image retained for undo).
    Delete {
        /// Target table.
        obj: ObjectId,
        /// Physical address the row was removed from.
        rid: RowId,
        /// Image before the delete.
        before: Row,
    },
    /// Transaction committed.
    Commit,
    /// Transaction rolled back (its compensating records precede this).
    Rollback,
    /// Data-dictionary change (DDL, extent allocation). Always committed.
    Catalog(CatalogChange),
}

/// One entry in the redo stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoRecord {
    /// System change number of the change.
    pub scn: Scn,
    /// Owning transaction, if any (DDL records have none).
    pub txn: Option<TxnId>,
    /// The described operation.
    pub op: RedoOp,
}

impl RedoRecord {
    /// Encodes the record for the log.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends the encoded record to `w` without intermediate allocations
    /// (each row image is its length and a copy of the row's stored bytes).
    /// An update that keeps the column count is written as its column
    /// delta, unless that would store more than the two images.
    pub fn encode_into(&self, w: &mut Writer) {
        let start = w.len();
        w.put_u64(self.scn.0);
        w.put_u64(self.txn.map_or(0, |t| t.0));
        match &self.op {
            RedoOp::Insert { obj, rid, row } => {
                w.put_u8(1);
                w.put_u32(obj.0);
                encode_rid(w, rid);
                put_row(w, row);
            }
            RedoOp::Update { obj, rid, before, after } => {
                let (head, charged) = (w.len(), self.charged_len());
                if before.len() == after.len() {
                    put_delta_head(w, *obj, rid, charged as u32);
                    ColumnDelta::encode_between(before, after, w);
                    if w.len() - start <= charged {
                        return;
                    }
                    w.truncate(head);
                }
                w.put_u8(2);
                w.put_u32(obj.0);
                encode_rid(w, rid);
                put_row(w, before);
                put_row(w, after);
            }
            RedoOp::UpdateDelta { obj, rid, charged, delta } => {
                put_delta_head(w, *obj, rid, *charged);
                delta.encode_into(w);
            }
            RedoOp::Delete { obj, rid, before } => {
                w.put_u8(3);
                w.put_u32(obj.0);
                encode_rid(w, rid);
                put_row(w, before);
            }
            RedoOp::Commit => w.put_u8(4),
            RedoOp::Rollback => w.put_u8(5),
            RedoOp::Catalog(change) => {
                w.put_u8(6);
                change.encode(w);
            }
        }
    }

    /// Size of the record's full-image encoding, in bytes: what the log
    /// charges for it, whatever it stores. Every record but a column delta
    /// stores exactly that; [`RedoState`] and [`RedoReader`] count the
    /// difference as padding.
    pub fn charged_len(&self) -> usize {
        const HEADER: usize = 8 + 8 + 1; // scn + txn + op tag
        const RID: usize = 4 + 4 + 2;
        HEADER
            + match &self.op {
                RedoOp::Insert { row, .. } => 4 + RID + 4 + row.encoded_len(),
                RedoOp::Update { before, after, .. } => {
                    4 + RID + 4 + before.encoded_len() + 4 + after.encoded_len()
                }
                RedoOp::UpdateDelta { charged, .. } => return *charged as usize,
                RedoOp::Delete { before, .. } => 4 + RID + 4 + before.encoded_len(),
                RedoOp::Commit | RedoOp::Rollback => 0,
                RedoOp::Catalog(change) => {
                    // DDL is rare; measuring by encoding is fine off the
                    // hot path.
                    let mut w = Writer::new();
                    change.encode(&mut w);
                    w.len()
                }
            }
    }

    /// Decodes one record from a reader positioned at a record boundary.
    /// Row images are validated views into the reader's buffer; a replay
    /// pass keeps them so and detaches, at its end, the ones it still
    /// holds ([`Row::detached`]).
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes.
    pub fn decode_from(r: &mut Reader) -> DecodeResult<RedoRecord> {
        let at = r.remaining();
        let scn = Scn(r.get_u64("record scn")?);
        let txn_raw = r.get_u64("record txn")?;
        let txn = if txn_raw == 0 { None } else { Some(TxnId(txn_raw)) };
        let tag = r.get_u8("record op tag")?;
        let op = match tag {
            1 => RedoOp::Insert {
                obj: ObjectId(r.get_u32("insert obj")?),
                rid: decode_rid(r)?,
                row: Row::decode(r.get_bytes("insert row")?)?,
            },
            2 => RedoOp::Update {
                obj: ObjectId(r.get_u32("update obj")?),
                rid: decode_rid(r)?,
                before: Row::decode(r.get_bytes("update before")?)?,
                after: Row::decode(r.get_bytes("update after")?)?,
            },
            3 => RedoOp::Delete {
                obj: ObjectId(r.get_u32("delete obj")?),
                rid: decode_rid(r)?,
                before: Row::decode(r.get_bytes("delete before")?)?,
            },
            4 => RedoOp::Commit,
            5 => RedoOp::Rollback,
            6 => RedoOp::Catalog(CatalogChange::decode(r)?),
            7 => {
                let (obj, rid) = (ObjectId(r.get_u32("update obj")?), decode_rid(r)?);
                let charged = r.get_u32("update charged length")?;
                let delta = ColumnDelta::decode(r.get_bytes("update delta")?)?;
                // The encoder stores a delta only where it is no longer
                // than the two images it stands for.
                if (charged as usize) < at - r.remaining() {
                    return Err(DecodeError { context: "update charged length" });
                }
                RedoOp::UpdateDelta { obj, rid, charged, delta }
            }
            _ => return Err(DecodeError { context: "record op tag" }),
        };
        Ok(RedoRecord { scn, txn, op })
    }

    /// The datafile this record's change lands in, if it is a row change.
    pub fn target_file(&self) -> Option<FileNo> {
        self.op.target().map(|(_, rid)| rid.file)
    }
}

/// A column delta's op tag, table, rid and charged length.
fn put_delta_head(w: &mut Writer, obj: ObjectId, rid: &RowId, charged: u32) {
    w.put_u8(7);
    w.put_u32(obj.0);
    encode_rid(w, rid);
    w.put_u32(charged);
}

fn put_row(w: &mut Writer, row: &Row) {
    w.put_u32(row.encoded_len() as u32);
    row.encode_into(w);
}

fn encode_rid(w: &mut Writer, rid: &RowId) {
    w.put_u32(rid.file.0);
    w.put_u32(rid.block);
    w.put_u16(rid.slot);
}

fn decode_rid(r: &mut Reader) -> DecodeResult<RowId> {
    Ok(RowId {
        file: FileNo(r.get_u32("rid file")?),
        block: r.get_u32("rid block")?,
        slot: r.get_u16("rid slot")?,
    })
}

/// Where a sequence's whole records end, logically and as stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanEnd {
    /// Logical offset, as [`RedoAddr::offset`] counts it.
    pub offset: u64,
    /// Stored bytes, as the filesystem holds them.
    pub stored: u64,
}

/// The one redo reader: a sequence's records in log order with their
/// logical offsets. Each occupies its full-image length
/// ([`RedoRecord::charged_len`]) plus `REDO_OVERHEAD_BYTES` of padding; what
/// that charges beyond the stored bytes is never stored (only here and in
/// [`RedoState`] is this counted). The
/// first record that fails to decode is yielded as the error and ends the
/// walk; only on the head sequence of a chain is that the end of the log.
#[derive(Debug)]
pub struct RedoReader<'a> {
    segments: std::slice::Iter<'a, Bytes>,
    current: Reader,
    overhead: u64,
    end: CleanEnd,
}

impl<'a> RedoReader<'a> {
    /// A reader over one sequence's segments.
    pub fn new(segments: &'a [Bytes]) -> Self {
        let (current, end) = (Reader::new(Bytes::new()), CleanEnd::default());
        RedoReader { segments: segments.iter(), current, overhead: REDO_OVERHEAD_BYTES, end }
    }

    /// Where the records read so far end: the clean end, once exhausted.
    pub fn clean_end(&self) -> CleanEnd {
        self.end
    }
}

impl Iterator for RedoReader<'_> {
    type Item = DecodeResult<(u64, RedoRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.current.remaining() == 0 {
            self.current = Reader::new(self.segments.next()?.clone());
        }
        let (before, at) = (self.current.remaining(), self.end.offset);
        let rec = RedoRecord::decode_from(&mut self.current);
        if let Ok(rec) = &rec {
            let (charged, stored) = (rec.charged_len() as u64, (before - self.current.remaining()) as u64);
            self.end = CleanEnd { offset: at + charged + self.overhead, stored: self.end.stored + stored };
        } else {
            // Nothing past a record that does not decode is read.
            (self.segments, self.current) = (Default::default(), Reader::new(Bytes::new()));
        }
        Some(rec.map(|rec| (at, rec)))
    }
}

/// Every record of a sequence, `overhead` standing in for the padding: a
/// `collect` over [`RedoReader`], kept for the benchmark's decode probe.
///
/// # Errors
///
/// Fails with the first record that does not decode.
pub fn decode_stream(segments: &[Bytes], overhead: u64) -> DecodeResult<Vec<(u64, RedoRecord)>> {
    RedoReader { overhead, ..RedoReader::new(segments) }.collect()
}

/// Volatile state of the redo subsystem: the log buffer and the write
/// position. Recreated at instance startup from the control file.
#[derive(Debug, Clone)]
pub struct RedoState {
    /// Index of the group currently being written.
    pub current_group: usize,
    /// Sequence number currently being written.
    pub current_seq: u64,
    /// Logical end of the log (flushed + buffered), including padding.
    pub current_offset: u64,
    /// Offset up to which records have been flushed to the online log.
    pub flushed_offset: u64,
    /// Encoded-but-unflushed records, back to back in one buffer (the
    /// LGWR log buffer). The allocation is recycled across flushes.
    buffer: Writer,
    buffer_pad: u64,
}

impl RedoState {
    /// Creates the state for an instance resuming at `(group, seq)` with
    /// `flushed` bytes already in the current log.
    pub fn new(current_group: usize, current_seq: u64, flushed: u64) -> Self {
        RedoState {
            current_group,
            current_seq,
            current_offset: flushed,
            flushed_offset: flushed,
            buffer: Writer::new(),
            buffer_pad: 0,
        }
    }

    /// The address the *next* record will receive.
    pub fn tail(&self) -> RedoAddr {
        RedoAddr { seq: self.current_seq, offset: self.current_offset }
    }

    /// Padded size the record would occupy in the log.
    pub fn record_cost(&self, charged_len: usize) -> u64 {
        charged_len as u64 + REDO_OVERHEAD_BYTES
    }

    /// Encodes `rec` straight into the log buffer (no per-record
    /// allocation) and returns its assigned address and padded cost.
    pub fn buffer_encode(&mut self, rec: &RedoRecord) -> (RedoAddr, u64) {
        let addr = self.tail();
        let before = self.buffer.len();
        rec.encode_into(&mut self.buffer);
        let cost = self.record_cost(rec.charged_len());
        self.admit(cost, self.buffer.len() - before);
        (addr, cost)
    }

    /// Counts a record of padded `cost` that stored `stored` bytes: the
    /// log advances by the cost, and what it charges beyond the stored
    /// bytes joins the flush's accounting-only pad.
    fn admit(&mut self, cost: u64, stored: usize) {
        self.current_offset += cost;
        self.buffer_pad += cost - stored as u64;
    }

    /// Optimistically encodes `rec` into the log buffer. If the padded
    /// record would overflow a log of `group_bytes`, the encode is undone
    /// (buffer truncated back, no accounting) and `None` is returned so
    /// the caller can switch logs first; otherwise the record is admitted
    /// and its address and cost are returned. Encoding *before* the size
    /// check means the common no-switch append measures the record by
    /// writing it once, instead of walking it twice.
    pub fn buffer_encode_checked(
        &mut self,
        rec: &RedoRecord,
        group_bytes: u64,
    ) -> Option<(RedoAddr, u64)> {
        let mark = self.buffer.len();
        rec.encode_into(&mut self.buffer);
        let cost = self.record_cost(rec.charged_len());
        if self.current_offset + cost > group_bytes {
            self.buffer.truncate(mark);
            return None;
        }
        let addr = self.tail();
        self.admit(cost, self.buffer.len() - mark);
        Some((addr, cost))
    }

    /// Whether any records await flushing.
    pub fn has_unflushed(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Takes the buffered records for a flush: the concatenated payload
    /// (copied out once, at its size; the buffer keeps its allocation), the
    /// accounting-only pad, and the new flushed offset.
    pub fn take_buffer(&mut self) -> (Bytes, u64, u64) {
        let payload = Bytes::copy_from_slice(self.buffer.as_slice());
        self.buffer.truncate(0);
        let pad = self.buffer_pad;
        self.buffer_pad = 0;
        self.flushed_offset = self.current_offset;
        (payload, pad, self.flushed_offset)
    }

    /// Moves the write position to the start of the next sequence in
    /// `group`.
    ///
    /// # Panics
    ///
    /// Panics if unflushed records remain (the caller must flush first).
    pub fn switch_to(&mut self, group: usize, seq: u64) {
        assert!(self.buffer.is_empty(), "cannot switch with unflushed redo");
        self.current_group = group;
        self.current_seq = seq;
        self.current_offset = 0;
        self.flushed_offset = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Value;

    fn row(n: u64) -> Row {
        Row::new(vec![Value::U64(n)])
    }

    fn rid() -> RowId {
        RowId { file: FileNo(2), block: 7, slot: 1 }
    }

    #[test]
    fn record_codec_round_trips_all_ops() {
        let records = vec![
            RedoRecord {
                scn: Scn(1),
                txn: Some(TxnId(9)),
                op: RedoOp::Insert { obj: ObjectId(1), rid: rid(), row: row(5) },
            },
            RedoRecord {
                scn: Scn(2),
                txn: Some(TxnId(9)),
                op: RedoOp::Update { obj: ObjectId(1), rid: rid(), before: row(5), after: row(6) },
            },
            RedoRecord {
                scn: Scn(3),
                txn: Some(TxnId(9)),
                op: RedoOp::Delete { obj: ObjectId(1), rid: rid(), before: row(6) },
            },
            RedoRecord { scn: Scn(4), txn: Some(TxnId(9)), op: RedoOp::Commit },
            RedoRecord { scn: Scn(5), txn: Some(TxnId(9)), op: RedoOp::Rollback },
            RedoRecord {
                scn: Scn(6),
                txn: None,
                op: RedoOp::Catalog(CatalogChange::DropTable { id: ObjectId(3) }),
            },
        ];
        for rec in records {
            let mut r = Reader::new(rec.encode());
            let decoded = RedoRecord::decode_from(&mut r).unwrap();
            assert_eq!(r.remaining(), 0);
            assert_eq!(decoded.charged_len(), rec.charged_len());
            // An update that keeps the column count reads back as its
            // column delta, which takes each image to the other.
            let (RedoOp::Update { before, after, .. }, RedoOp::UpdateDelta { delta, .. }) = (&rec.op, &decoded.op)
            else {
                assert_eq!(decoded, rec);
                continue;
            };
            assert_eq!((decoded.scn, decoded.txn, decoded.op.target()), (rec.scn, rec.txn, rec.op.target()));
            assert_eq!((delta.apply(before).as_ref(), delta.revert(after).as_ref()), (Some(after), Some(before)));
            assert_eq!(decoded.encode(), rec.encode(), "a delta re-encodes to the bytes it was read from");
        }
    }

    #[test]
    fn target_file_only_for_row_changes() {
        let ins = RedoRecord {
            scn: Scn(1),
            txn: Some(TxnId(1)),
            op: RedoOp::Insert { obj: ObjectId(1), rid: rid(), row: row(1) },
        };
        assert_eq!(ins.target_file(), Some(FileNo(2)));
        let commit = RedoRecord { scn: Scn(2), txn: Some(TxnId(1)), op: RedoOp::Commit };
        assert_eq!(commit.target_file(), None);
    }

    #[test]
    fn decode_stream_tracks_offsets_with_overhead() {
        let a = RedoRecord { scn: Scn(1), txn: Some(TxnId(1)), op: RedoOp::Commit };
        let b = RedoRecord { scn: Scn(2), txn: Some(TxnId(2)), op: RedoOp::Commit };
        let ea = a.encode();
        let len_a = ea.len() as u64;
        let mut seg = ea.to_vec();
        seg.extend_from_slice(&b.encode());
        let recs = decode_stream(&[Bytes::from(seg)], 100).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, 0);
        assert_eq!(recs[1].0, len_a + 100);
        assert_eq!(recs[1].1, b);
        // One segment per flush, an empty one between, reads the same; the
        // reader's own padding is the log writer's; and a record never
        // spans two segments.
        let segments = [ea.clone(), Bytes::new(), b.encode()];
        assert_eq!(decode_stream(&segments, 100).unwrap(), recs);
        assert_eq!(RedoReader::new(&segments).nth(1), Some(Ok((len_a + REDO_OVERHEAD_BYTES, b))));
        assert!(decode_stream(&[ea.slice(0..5), ea.slice(5..ea.len())], 100).is_err());
    }

    /// Drains a reader: the whole records, the error that ended it (if
    /// any), and its clean end.
    fn read_all(seg: &[u8], overhead: u64) -> (Vec<RedoRecord>, Option<DecodeError>, CleanEnd) {
        let segments = [Bytes::copy_from_slice(seg)];
        let mut reader = RedoReader { overhead, ..RedoReader::new(&segments) };
        let (mut records, mut error) = (Vec::new(), None);
        for item in reader.by_ref() {
            match item {
                Ok((offset, rec)) => {
                    assert_eq!(offset, reader_offset(&records, overhead), "offsets count the padding");
                    records.push(rec);
                }
                Err(e) => error = Some(e),
            }
        }
        assert_eq!(reader.next(), None, "an exhausted reader stays exhausted");
        (records, error, reader.clean_end())
    }

    fn reader_offset(records: &[RedoRecord], overhead: u64) -> u64 {
        records.iter().map(|r| r.charged_len() as u64 + overhead).sum()
    }

    #[test]
    fn tolerant_decode_returns_the_clean_prefix_of_a_torn_stream() {
        let a = RedoRecord { scn: Scn(1), txn: Some(TxnId(1)), op: RedoOp::Commit };
        let b = RedoRecord {
            scn: Scn(2),
            txn: Some(TxnId(2)),
            op: RedoOp::Insert { obj: ObjectId(1), rid: rid(), row: row(7) },
        };
        let mut seg = a.encode().to_vec();
        let len_a = seg.len() as u64;
        let eb = b.encode();
        // Tear the second record at every interior point: the first must
        // always survive, the second never half-apply, and the clean end
        // stays just past the first.
        for cut in 1..eb.len() {
            let mut torn = seg.clone();
            torn.extend_from_slice(&eb[..cut]);
            let (records, error, end) = read_all(&torn, 10);
            assert!(error.is_some(), "cut at {cut} must be seen as torn");
            assert_eq!(records, std::slice::from_ref(&a));
            assert_eq!(end, CleanEnd { offset: len_a + 10, stored: len_a });
            // `decode_stream` refuses the same stream outright.
            assert!(decode_stream(&[Bytes::from(torn)], 10).is_err());
        }
        // An untorn stream decodes identically through both entry points.
        seg.extend_from_slice(&eb);
        let (records, error, end) = read_all(&seg, 10);
        assert_eq!(error, None);
        assert_eq!(end, CleanEnd { offset: seg.len() as u64 + 20, stored: seg.len() as u64 });
        let whole: Vec<_> = decode_stream(&[Bytes::from(seg)], 10).unwrap().into_iter().map(|(_, r)| r).collect();
        assert_eq!(records, whole);
    }

    /// The redo record format byte for byte, next to `page.rs`'s pinned v2
    /// block image: SCN, transaction id, op tag, object id, rid (file,
    /// block, slot), then each row image behind its `u32` length.
    #[test]
    fn encoded_bytes_of_a_fixed_update_record_are_pinned() {
        let rec = RedoRecord {
            scn: Scn(0x0102),
            txn: Some(TxnId(9)),
            op: RedoOp::Update {
                obj: ObjectId(3),
                rid: rid(),
                before: Row::new(vec![Value::U64(5), Value::from("ab"), Value::Null]),
                after: Row::new(vec![Value::I64(-2), Value::Bytes(vec![0, 0xff])]),
            },
        };
        let hex: String = rec.encode().iter().map(|x| format!("{x:02x}")).collect();
        assert_eq!(
            hex,
            "0000000000000102000000000000000902\
             0000000300000002000000070001\
             00000013000301000000000000000503000000026162\
             00\
             00000012000202fffffffffffffffe040000000200ff"
        );
        assert_eq!(rec.charged_len(), rec.encode().len());
    }

    /// The column-delta form byte for byte: SCN, transaction id, op tag 7,
    /// object id, rid, the charged full-image length (`u32`), then the
    /// delta behind its `u32` length: each changed column's position
    /// (`u16`) and its before and after value in the row column encoding.
    /// Here column 1 goes from "ab" to NULL and column 2 from NULL to -2;
    /// column 0 is the same in both images and is not stored.
    #[test]
    fn encoded_bytes_of_a_fixed_delta_record_are_pinned() {
        let rec = RedoRecord {
            scn: Scn(0x0102),
            txn: Some(TxnId(9)),
            op: RedoOp::Update {
                obj: ObjectId(3),
                rid: rid(),
                before: Row::new(vec![Value::U64(5), Value::from("ab"), Value::Null]),
                after: Row::new(vec![Value::U64(5), Value::Null, Value::I64(-2)]),
            },
        };
        let hex: String = rec.encode().iter().map(|x| format!("{x:02x}")).collect();
        assert_eq!(
            hex,
            "0000000000000102000000000000000907\
             0000000300000002000000070001\
             0000004f\
             00000016\
             000103000000026162\
             00\
             0002\
             00\
             02fffffffffffffffe"
        );
        // Stored: 61 bytes. Charged: the 79 of the two images, whose
        // difference the log buffer pads.
        assert_eq!((rec.encode().len(), rec.charged_len()), (61, 0x4f));
        let mut s = RedoState::new(0, 1, 0);
        assert_eq!(s.buffer_encode(&rec), (RedoAddr { seq: 1, offset: 0 }, 0x4f + REDO_OVERHEAD_BYTES));
        let (payload, pad, flushed) = s.take_buffer();
        assert_eq!((payload, pad, flushed), (rec.encode(), 0x4f - 61 + REDO_OVERHEAD_BYTES, 0x4f + REDO_OVERHEAD_BYTES));
    }

    /// A delta record's own refusals, each made by one edit of the pinned
    /// delta's bytes: a charged length below what the record stores,
    /// positions that do not ascend, a column the row decoder refuses, and
    /// a length that cuts the last column short.
    #[test]
    fn a_malformed_delta_record_is_refused_with_its_context() {
        let rec = RedoRecord {
            scn: Scn(0x0102),
            txn: Some(TxnId(9)),
            op: RedoOp::Update {
                obj: ObjectId(3),
                rid: rid(),
                before: Row::new(vec![Value::U64(5), Value::from("ab"), Value::Null]),
                after: Row::new(vec![Value::U64(5), Value::Null, Value::I64(-2)]),
            },
        };
        let good = rec.encode().to_vec();
        let decode = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            RedoRecord::decode_from(&mut Reader::new(Bytes::from(bytes))).map(|_| ()).map_err(|e| e.context)
        };
        assert_eq!(decode(&|_| {}), Ok(()));
        // Bytes 31..35 hold the charged length, 35..39 the delta's, 39..41
        // and 49..51 the two positions, 41 the first before-value's tag.
        assert_eq!(decode(&|b| b[34] = 61), Ok(()), "charged exactly what it stores");
        assert_eq!(decode(&|b| b[34] = 60), Err("update charged length"));
        assert_eq!(decode(&|b| b[50] = 1), Err("delta column position"));
        assert_eq!(decode(&|b| b[50] = 0), Err("delta column position"));
        assert_eq!(decode(&|b| b[41] = 99), Err("value tag"));
        assert_eq!(decode(&|b| b[38] = 0x15), Err("i64 value"));
    }

    fn mixed_row(n: u64) -> Row {
        Row::new(vec![Value::U64(n), Value::from("name"), Value::I64(-3), Value::Null])
    }

    /// A malformed row image inside a record fails the record with the row
    /// decoder's own context, and ends the reader exactly like a torn
    /// tail: the records before it survive.
    #[test]
    fn a_malformed_row_inside_a_record_ends_the_stream_there() {
        let good = RedoRecord { scn: Scn(1), txn: Some(TxnId(1)), op: RedoOp::Commit };
        for (what, row_bytes, context) in crate::row::malformed_rows() {
            // An Insert record, hand-assembled around the bad row image.
            let mut w = Writer::new();
            w.put_u64(2);
            w.put_u64(7);
            w.put_u8(1);
            w.put_u32(1);
            encode_rid(&mut w, &rid());
            w.put_bytes(&row_bytes);
            let bad = w.into_bytes();
            let err = RedoRecord::decode_from(&mut Reader::new(bad.clone())).unwrap_err();
            assert_eq!(err.context, context, "{what}");

            let mut seg = good.encode().to_vec();
            seg.extend_from_slice(&bad);
            let (records, error, _) = read_all(&seg, 10);
            assert_eq!(error.map(|e| e.context), Some(context), "{what}");
            assert_eq!(records, std::slice::from_ref(&good), "{what}");
            assert_eq!(decode_stream(&[Bytes::from(seg)], 10).unwrap_err().context, context, "{what}");
        }
    }

    /// The torn-tail rule over a three-record stream cut at *every* byte
    /// offset: the clean prefix is the records that end at or before the
    /// cut, and the stream reads as torn unless the cut is a record
    /// boundary.
    #[test]
    fn a_stream_cut_at_every_offset_keeps_its_clean_prefix() {
        let records = [
            RedoRecord {
                scn: Scn(1),
                txn: Some(TxnId(4)),
                op: RedoOp::Insert { obj: ObjectId(1), rid: rid(), row: mixed_row(1) },
            },
            RedoRecord {
                scn: Scn(2),
                txn: Some(TxnId(4)),
                op: RedoOp::Update {
                    obj: ObjectId(1),
                    rid: rid(),
                    before: mixed_row(1),
                    after: mixed_row(2),
                },
            },
            RedoRecord { scn: Scn(3), txn: Some(TxnId(4)), op: RedoOp::Commit },
        ];
        let mut seg = Vec::new();
        let mut ends = Vec::new();
        for rec in &records {
            seg.extend_from_slice(&rec.encode());
            ends.push(seg.len());
        }
        // As the log gives them back: the update as its column delta.
        let logged: Vec<RedoRecord> =
            records.iter().map(|rec| RedoRecord::decode_from(&mut Reader::new(rec.encode())).unwrap()).collect();
        assert!(matches!(logged[1].op, RedoOp::UpdateDelta { .. }));
        for cut in 0..=seg.len() {
            let (got, error, end) = read_all(&seg[..cut], 10);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(got, logged[..whole], "cut at {cut}");
            assert_eq!(error.is_some(), cut != 0 && !ends.contains(&cut), "cut at {cut}");
            let stored = ends[..whole].last().map_or(0, |&e| e as u64);
            let charged: u64 = records[..whole].iter().map(|rec| rec.charged_len() as u64).sum();
            assert!(charged > stored || whole < 2, "the delta stores less than it is charged");
            assert_eq!(end, CleanEnd { offset: charged + 10 * whole as u64, stored }, "cut at {cut}");
        }
    }

    #[test]
    fn state_assigns_monotone_addresses() {
        const PAD: u64 = REDO_OVERHEAD_BYTES;
        let rec = RedoRecord { scn: Scn(1), txn: Some(TxnId(1)), op: RedoOp::Commit };
        let len = rec.encode().len() as u64;
        let mut s = RedoState::new(0, 1, 0);
        let (a1, cost) = s.buffer_encode(&rec);
        let (a2, _) = s.buffer_encode(&rec);
        assert_eq!(cost, len + PAD);
        assert_eq!(a1, RedoAddr { seq: 1, offset: 0 });
        assert_eq!(a2, RedoAddr { seq: 1, offset: len + PAD });
        assert!(s.has_unflushed());
        let (payload, pad, flushed) = s.take_buffer();
        assert_eq!(payload.len() as u64, 2 * len);
        assert_eq!(pad, 2 * PAD);
        assert_eq!(flushed, 2 * len + 2 * PAD);
        assert!(!s.has_unflushed());
    }

    #[test]
    fn each_take_returns_what_was_appended_since_the_last_and_keeps_the_buffer() {
        const PAD: u64 = REDO_OVERHEAD_BYTES;
        let commit = |scn| RedoRecord { scn: Scn(scn), txn: Some(TxnId(1)), op: RedoOp::Commit };
        let first_two = [&commit(1).encode()[..], &commit(2).encode()[..]].concat();
        let mut s = RedoState::new(0, 1, 0);
        s.buffer_encode(&commit(1));
        s.buffer_encode(&commit(2));
        let allocation = s.buffer.as_slice().as_ptr();
        let (first, pad, flushed) = s.take_buffer();
        assert_eq!(first, first_two);
        assert_eq!((pad, flushed), (2 * PAD, first.len() as u64 + 2 * PAD));
        assert!(!s.has_unflushed());

        s.buffer_encode(&commit(3));
        assert_eq!(s.buffer.as_slice().as_ptr(), allocation, "the buffer is the one it was");
        let (second, pad, flushed) = s.take_buffer();
        assert_eq!(second, commit(3).encode());
        assert_eq!((pad, flushed), (PAD, (first.len() + second.len()) as u64 + 3 * PAD));
        assert_eq!(first, first_two, "a taken payload is its own");

        let (nothing, pad, _) = s.take_buffer();
        assert!(nothing.is_empty() && pad == 0);
    }

    #[test]
    fn overflow_check_and_switch() {
        let rec = RedoRecord { scn: Scn(1), txn: Some(TxnId(1)), op: RedoOp::Commit };
        let len = rec.encode().len() as u64;
        let cost = len + REDO_OVERHEAD_BYTES;
        let mut s = RedoState::new(0, 1, 0);
        s.buffer_encode(&rec);
        // A record that would end past the group's size is not admitted
        // and leaves no trace; one that ends exactly at it is.
        assert_eq!(s.buffer_encode_checked(&rec, 2 * cost - 1), None);
        assert_eq!(s.tail(), RedoAddr { seq: 1, offset: cost });
        assert_eq!(s.buffer_encode_checked(&rec, 2 * cost), Some((RedoAddr { seq: 1, offset: cost }, cost)));
        assert_eq!(s.take_buffer().0.len() as u64, 2 * len);
        s.switch_to(1, 2);
        assert_eq!(s.tail(), RedoAddr { seq: 2, offset: 0 });
        assert_eq!(s.current_group, 1);
    }

    #[test]
    #[should_panic(expected = "unflushed")]
    fn switch_with_unflushed_redo_panics() {
        let mut s = RedoState::new(0, 1, 0);
        s.buffer_encode(&RedoRecord { scn: Scn(1), txn: None, op: RedoOp::Commit });
        s.switch_to(1, 2);
    }
}
