//! Slotted block images.
//!
//! A datafile block holds a set of rows addressed by slot number, plus the
//! SCN of the last change applied to it. The SCN is what makes redo
//! application idempotent: a record is re-applied only if it is newer than
//! the block image it targets.

use std::ops::Range;

use bytes::Bytes;

use crate::codec::{crc32, DecodeError, DecodeResult, Writer};
use crate::row::Row;
use crate::types::Scn;

/// The on-disk block image format: v2, with a per-block CRC-32. Every
/// stored image carries this tag behind its magic byte.
pub const BLOCK_FORMAT: u8 = 2;

/// First byte of every stored block image. A never-written block reads
/// back all-zero; any other image that does not start with this byte is
/// damage.
const BLOCK_MAGIC: u8 = 0xB1;

/// Bytes of header in front of the payload: magic, format version, CRC-32
/// of everything after the header.
const CHECKSUM_HEADER: usize = 6;

/// Decoded image of one datafile block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockImage {
    /// SCN of the last change applied to this block.
    pub last_scn: Scn,
    /// `(slot, row)` pairs sorted by slot. Blocks hold a few dozen rows,
    /// where a sorted vector beats a tree map on both probes and clones.
    rows: Vec<(u16, Row)>,
    used_bytes: usize,
}

impl BlockImage {
    /// Per-row bookkeeping overhead (slot id + length prefix).
    const ROW_OVERHEAD: usize = 8;
    /// Block header size.
    const HEADER: usize = 16;

    /// An empty block.
    pub fn empty() -> Self {
        BlockImage { last_scn: Scn::ZERO, rows: Vec::new(), used_bytes: Self::HEADER }
    }

    /// Number of rows stored.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Bytes used by the current contents (header + rows).
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Whether a row of `len` encoded bytes fits in a block of
    /// `block_size` bytes.
    pub fn fits(&self, len: usize, block_size: u32) -> bool {
        self.used_bytes + len + Self::ROW_OVERHEAD <= block_size as usize
    }

    /// Where `slot` is in `rows` (`Ok`) or would be inserted (`Err`). In a
    /// block no delete has touched slot *i* sits at index *i*, so that is
    /// looked at first; a block with holes falls back to the search.
    fn position(&self, slot: u16) -> Result<usize, usize> {
        let i = usize::from(slot);
        match self.rows.get(i) {
            Some((s, _)) if *s == slot => Ok(i),
            _ => self.rows.binary_search_by_key(&slot, |(s, _)| *s),
        }
    }

    /// The row at `slot`, if present.
    pub fn row(&self, slot: u16) -> Option<&Row> {
        self.position(slot).ok().and_then(|i| self.rows.get(i)).map(|(_, row)| row)
    }

    /// Iterates over `(slot, row)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Row)> {
        self.rows.iter().map(|(s, r)| (*s, r))
    }

    /// The lowest unoccupied slot number.
    pub fn next_free_slot(&self) -> u16 {
        // Freshly filled blocks are dense (slots 0..n with no gaps), which
        // the last entry alone proves — the common insert path is O(1).
        let n = self.rows.len();
        if n == 0 {
            return 0;
        }
        if self.rows[n - 1].0 as usize == n - 1 {
            return n as u16;
        }
        let mut slot = 0u16;
        for (s, _) in &self.rows {
            if *s != slot {
                break;
            }
            slot += 1;
        }
        slot
    }

    /// Inserts or replaces the row at `slot`, stamping the block with
    /// `scn`. Returns the previous row, if any.
    pub fn put(&mut self, slot: u16, row: Row, scn: Scn) -> Option<Row> {
        let add = row.encoded_len() + Self::ROW_OVERHEAD;
        let prev = match self.position(slot) {
            Ok(i) => self.rows.get_mut(i).map(|(_, held)| std::mem::replace(held, row)),
            Err(i) => {
                self.rows.insert(i, (slot, row));
                None
            }
        };
        if let Some(p) = &prev {
            self.used_bytes -= p.encoded_len() + Self::ROW_OVERHEAD;
        }
        self.used_bytes += add;
        self.last_scn = self.last_scn.max(scn);
        prev
    }

    /// Removes the row at `slot`, stamping the block with `scn`.
    pub fn remove(&mut self, slot: u16, scn: Scn) -> Option<Row> {
        let prev = match self.position(slot) {
            Ok(i) => Some(self.rows.remove(i).1),
            Err(_) => None,
        };
        if let Some(p) = &prev {
            self.used_bytes -= p.encoded_len() + Self::ROW_OVERHEAD;
        }
        self.last_scn = self.last_scn.max(scn);
        prev
    }

    /// Lets `edit` rewrite the row at `slot` where it lies, stamping the
    /// block with `scn` if it did (it answers whether). Returns that
    /// answer; `false` also if the slot is empty.
    pub(crate) fn patch(&mut self, slot: u16, scn: Scn, edit: impl FnOnce(&mut Row) -> bool) -> bool {
        let Some((_, row)) = self.position(slot).ok().and_then(|i| self.rows.get_mut(i)) else { return false };
        let was = row.encoded_len();
        if !edit(row) {
            return false;
        }
        self.used_bytes = self.used_bytes + row.encoded_len() - was;
        self.last_scn = self.last_scn.max(scn);
        true
    }

    /// Gives the row at `slot`, if any, an allocation of its own
    /// ([`Row::detached`]): the end of a replay pass, for a row that may be
    /// a view into a log segment. The block's contents do not change.
    pub(crate) fn detach(&mut self, slot: u16) {
        if let Some((_, row)) = self.position(slot).ok().and_then(|i| self.rows.get_mut(i)) {
            *row = row.detached();
        }
    }

    /// Encodes the block for storage.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends the encoded block to `w`: each row is its length and a copy
    /// of its stored bytes. The only back-patch is the CRC-32 over the
    /// finished payload, which makes every stored block self-verifying.
    pub fn encode_into(&self, w: &mut Writer) {
        let header = w.len();
        w.put_u8(BLOCK_MAGIC);
        w.put_u8(BLOCK_FORMAT);
        w.put_u32(0); // CRC back-patched once the payload is encoded
        w.put_u64(self.last_scn.0);
        w.put_u32(self.rows.len() as u32);
        for (slot, row) in &self.rows {
            w.put_u16(*slot);
            w.put_u32(row.encoded_len() as u32);
            row.encode_into(w);
        }
        let crc = crc32(&w.as_slice()[header + CHECKSUM_HEADER..]);
        w.patch_u32(header + 2, crc);
    }

    /// Decodes a stored block image. An all-zero (never written) image
    /// decodes as an empty block; anything else must start with the magic
    /// byte and pass its CRC. The rows are validated views into `buf`,
    /// which they share and keep alive (one block-sized read buffer per
    /// cached block at most).
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes; fails with a checksum-mismatch error
    /// (see [`DecodeError::is_checksum_mismatch`]) when the image does not
    /// start with the magic byte or its CRC does not cover its payload —
    /// bit-rot or a torn write, in the header as anywhere else.
    pub fn decode(buf: Bytes) -> DecodeResult<BlockImage> {
        let mut img = BlockImage::empty();
        let Some(mut rows) = StoredRows::open(&buf)? else { return Ok(img) };
        // A stored row takes at least its slot id and length prefix.
        img.rows.reserve(rows.left.min(rows.rest.len() / 6));
        let last_scn = rows.last_scn;
        for row in &mut rows {
            let (slot, at) = row?;
            img.put(slot, Row::validated(buf.slice(at)), last_scn);
        }
        img.last_scn = last_scn;
        Ok(img)
    }

    /// Checks a stored block image exactly as [`BlockImage::decode`] does
    /// — magic, format, CRC, then every row, each column and its UTF-8 —
    /// and fails with the same error, without building the image: the
    /// checksum walks over whole datafiles verify blocks through it.
    ///
    /// # Errors
    ///
    /// Fails where [`BlockImage::decode`] would, with its error.
    pub fn validate(buf: &[u8]) -> DecodeResult<()> {
        let Some(mut rows) = StoredRows::open(buf)? else { return Ok(()) };
        rows.try_for_each(|row| row.map(drop))
    }
}

/// The rows of a stored block image whose header and CRC held: each row's
/// slot and where its bytes lie in the image, validated as it is reached
/// ([`Row::validate`]). After an error it yields nothing more. The one
/// validating walk under both [`BlockImage::decode`] and
/// [`BlockImage::validate`].
struct StoredRows<'a> {
    last_scn: Scn,
    /// Rows the header announces that are not yet walked.
    left: usize,
    /// The image after the rows walked so far.
    rest: &'a [u8],
    /// Where `rest` starts in the image.
    at: usize,
}

impl<'a> StoredRows<'a> {
    /// Checks the image's header and CRC and reads its block SCN and row
    /// count; `None` for a never-written (empty or all-zero) image.
    fn open(buf: &'a [u8]) -> DecodeResult<Option<Self>> {
        if buf.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        let Some((&BLOCK_MAGIC, rest)) = buf.split_first() else {
            return Err(DecodeError::checksum_mismatch());
        };
        let Some((&[format, c0, c1, c2, c3], body)) = rest.split_first_chunk() else {
            return Err(DecodeError { context: "block checksum header" });
        };
        if format != BLOCK_FORMAT {
            return Err(DecodeError { context: "block format version" });
        }
        if crc32(body) != u32::from_be_bytes([c0, c1, c2, c3]) {
            return Err(DecodeError::checksum_mismatch());
        }
        let (scn, rest) = body.split_first_chunk().ok_or(DecodeError { context: "block scn" })?;
        let (n, rest) = rest.split_first_chunk().ok_or(DecodeError { context: "block row count" })?;
        Ok(Some(StoredRows {
            last_scn: Scn(u64::from_be_bytes(*scn)),
            left: u32::from_be_bytes(*n) as usize,
            rest,
            at: buf.len() - rest.len(),
        }))
    }

    /// The next row's slot and the span of its bytes in the image.
    fn next_row(&mut self) -> DecodeResult<(u16, Range<usize>)> {
        const ROW: DecodeError = DecodeError { context: "row image" };
        let (slot, rest) = self.rest.split_first_chunk().ok_or(DecodeError { context: "slot id" })?;
        let (len, rest) = rest.split_first_chunk().ok_or(ROW)?;
        let (image, rest) = rest.split_at_checked(u32::from_be_bytes(*len) as usize).ok_or(ROW)?;
        let start = self.at + 6;
        let end = start + Row::validate(image)?;
        self.at = start + image.len();
        self.rest = rest;
        Ok((u16::from_be_bytes(*slot), start..end))
    }
}

impl Iterator for StoredRows<'_> {
    type Item = DecodeResult<(u16, Range<usize>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let row = self.next_row();
        if row.is_err() {
            self.left = 0;
        }
        Some(row)
    }
}

impl Default for BlockImage {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Value;

    fn row(n: u64) -> Row {
        Row::new(vec![Value::U64(n), Value::from("payload")])
    }

    #[test]
    fn put_get_remove() {
        let mut b = BlockImage::empty();
        assert!(b.put(0, row(1), Scn(5)).is_none());
        assert_eq!(b.row(0).unwrap().get(0).unwrap().as_u64(), Some(1));
        assert_eq!(b.last_scn, Scn(5));
        let old = b.remove(0, Scn(6)).unwrap();
        assert_eq!(old, row(1));
        assert_eq!(b.row_count(), 0);
        assert_eq!(b.last_scn, Scn(6));
    }

    #[test]
    fn replace_updates_accounting() {
        let mut b = BlockImage::empty();
        b.put(3, row(1), Scn(1));
        let before = b.used_bytes();
        b.put(3, row(2), Scn(2));
        assert_eq!(b.used_bytes(), before, "same-size replace keeps usage");
        assert_eq!(b.row_count(), 1);
    }

    #[test]
    fn next_free_slot_finds_gap() {
        let mut b = BlockImage::empty();
        b.put(0, row(0), Scn(1));
        b.put(1, row(1), Scn(1));
        b.put(3, row(3), Scn(1));
        assert_eq!(b.next_free_slot(), 2);
        b.put(2, row(2), Scn(1));
        assert_eq!(b.next_free_slot(), 4);
    }

    proptest::proptest! {
        /// A block image is a map from slot to row. Removes punch holes, so
        /// the dense "slot i sits at index i" check has to fall back.
        #[test]
        fn a_block_image_behaves_like_a_map_from_slot_to_row(
            ops in proptest::collection::vec((0u8..5, 0u16..12, proptest::prelude::any::<u64>()), 0..80)
        ) {
            use proptest::prelude::*;
            let mut img = BlockImage::empty();
            let mut model: std::collections::BTreeMap<u16, Row> = std::collections::BTreeMap::new();
            let lowest_free = |model: &std::collections::BTreeMap<u16, Row>| {
                (0..).find(|s| !model.contains_key(s)).expect("a block holds fewer than 65536 rows")
            };
            for (op, slot, n) in ops {
                match op {
                    0 | 1 => prop_assert_eq!(img.put(slot, row(n), Scn(1)), model.insert(slot, row(n))),
                    2 => prop_assert_eq!(img.remove(slot, Scn(1)), model.remove(&slot)),
                    // An insert the way the engine places one.
                    3 => {
                        let free = img.next_free_slot();
                        prop_assert_eq!(img.put(free, row(n), Scn(1)), model.insert(free, row(n)));
                    }
                    // Detaching a row, present or not, changes nothing.
                    _ => img.detach(slot),
                }
                for s in 0..14 {
                    prop_assert_eq!(img.row(s), model.get(&s));
                }
                prop_assert_eq!(img.next_free_slot(), lowest_free(&model));
                prop_assert!(img.iter().eq(model.iter().map(|(s, r)| (*s, r))));
                let used: usize =
                    model.values().map(|r| r.encoded_len() + BlockImage::ROW_OVERHEAD).sum();
                prop_assert_eq!(img.used_bytes(), BlockImage::HEADER + used);
            }
        }
    }

    #[test]
    fn fits_respects_block_size() {
        let b = BlockImage::empty();
        assert!(b.fits(100, 8192));
        assert!(!b.fits(9000, 8192));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut b = BlockImage::empty();
        b.put(0, row(10), Scn(7));
        b.put(5, row(20), Scn(9));
        let decoded = BlockImage::decode(b.encode()).unwrap();
        assert_eq!(decoded.last_scn, Scn(9));
        assert_eq!(decoded.row(0), b.row(0));
        assert_eq!(decoded.row(5), b.row(5));
        assert_eq!(decoded.row_count(), 2);
    }

    /// Format v2 byte for byte: magic, version, CRC-32 (big-endian) of the
    /// rest, block SCN, row count, then `slot, length, row` per row.
    #[test]
    fn encoded_bytes_of_a_fixed_image_are_pinned() {
        let mut b = BlockImage::empty();
        b.put(0, row(10), Scn(7));
        b.put(5, row(20), Scn(9));
        let hex: String = b.encode().iter().map(|x| format!("{x:02x}")).collect();
        assert_eq!(
            hex,
            "b10253707f76000000000000000900000002\
             000000000017000201000000000000000a03000000077061796c6f6164\
             000500000017000201000000000000001403000000077061796c6f6164"
        );
    }

    #[test]
    fn zero_image_decodes_empty() {
        let b = BlockImage::decode(Bytes::from(vec![0u8; 8192])).unwrap();
        assert_eq!(b.row_count(), 0);
        assert_eq!(b.last_scn, Scn::ZERO);
    }

    #[test]
    fn scn_never_regresses() {
        let mut b = BlockImage::empty();
        b.put(0, row(1), Scn(10));
        b.put(1, row(2), Scn(4));
        assert_eq!(b.last_scn, Scn(10));
    }

    /// No flipped bit, anywhere, gets an image past `decode` — the magic
    /// byte included, which used to send the image down an unverified path
    /// that could read it as an empty block. A flipped version byte is
    /// refused as an unknown format; every other bit is a checksum
    /// mismatch.
    #[test]
    fn checksum_catches_a_single_flipped_bit() {
        let mut b = BlockImage::empty();
        b.put(0, row(10), Scn(7));
        b.put(5, row(20), Scn(9));
        let encoded = b.encode();
        for bit in 0..encoded.len() * 8 {
            let mut rotted = encoded.to_vec();
            rotted[bit / 8] ^= 1 << (bit % 8);
            let err = BlockImage::decode(Bytes::from(rotted))
                .expect_err(&format!("bit {bit} flipped and the image still decodes"));
            assert_eq!(err.is_checksum_mismatch(), bit / 8 != 1, "bit {bit}: {err:?}");
        }
    }

    /// A malformed row behind a *valid* CRC is structural garbage, not
    /// silent corruption: the error keeps the row decoder's context and is
    /// not a checksum mismatch — the predicate `blockio::decode` branches
    /// on, so the block reads as media corruption.
    #[test]
    fn a_malformed_row_behind_a_valid_crc_is_not_a_checksum_mismatch() {
        for (what, row_bytes, context) in crate::row::malformed_rows() {
            let mut body = Writer::new();
            body.put_u64(9); // block SCN
            body.put_u32(1); // row count
            body.put_u16(0); // slot
            body.put_bytes(&row_bytes);
            let mut w = Writer::new();
            w.put_u8(super::BLOCK_MAGIC);
            w.put_u8(BLOCK_FORMAT);
            w.put_u32(crc32(body.as_slice()));
            w.put_slice_raw(body.as_slice());
            let err = BlockImage::decode(w.into_bytes()).unwrap_err();
            assert_eq!(err.context, context, "{what}");
            assert!(!err.is_checksum_mismatch(), "{what}");
        }
    }

    /// Each way an image's header can be malformed, with the error it is
    /// refused with (damage behind the header is the two tests above and
    /// `torn_prefix_of_an_image_fails_to_decode`). What is not all-zero and
    /// not a v2 image whose CRC holds is not a block.
    #[test]
    fn malformed_images_are_refused_with_their_pinned_errors() {
        let mut b = BlockImage::empty();
        b.put(2, row(42), Scn(9));
        let good = b.encode().to_vec();
        let with = |at: usize, byte: u8| {
            let mut image = good.clone();
            image[at] = byte;
            image
        };
        // A valid CRC over a body that stops inside the block SCN.
        let mut short_body = vec![super::BLOCK_MAGIC, BLOCK_FORMAT];
        short_body.extend_from_slice(&crc32(&[0, 0, 0, 9]).to_be_bytes());
        short_body.extend_from_slice(&[0, 0, 0, 9]);
        let checksum = crate::codec::CHECKSUM_CONTEXT;
        let table: Vec<(&str, Vec<u8>, &str)> = vec![
            ("magic with its low bit flipped", with(0, 0xB0), checksum),
            ("no magic: a bare v1 payload", good[super::CHECKSUM_HEADER..].to_vec(), checksum),
            ("no magic: zeros, then anything", with(0, 0), checksum),
            ("header cut short", good[..super::CHECKSUM_HEADER - 1].to_vec(), "block checksum header"),
            ("unknown format version", with(1, 3), "block format version"),
            ("valid CRC, body cut short", short_body, "block scn"),
        ];
        for (what, image, context) in table {
            let err = BlockImage::decode(Bytes::from(image)).unwrap_err();
            assert_eq!(err.context, context, "{what}");
        }
    }

    #[test]
    fn torn_prefix_of_an_image_fails_to_decode() {
        let mut b = BlockImage::empty();
        b.put(0, row(1), Scn(3));
        b.put(1, row(2), Scn(3));
        let encoded = b.encode();
        let torn = encoded.slice(0..encoded.len() / 2);
        assert!(BlockImage::decode(torn).unwrap_err().is_checksum_mismatch());
    }
}
