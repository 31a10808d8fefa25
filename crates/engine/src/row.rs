//! Rows in their storage encoding, and order-preserving key encoding.
//!
//! A stored row is a `u16` column count followed by one `tag, payload` pair
//! per column — exactly what a v2 block slot and a redo record hold for it
//! (DESIGN.md §11.1 has the byte layout). [`Row`] *is* those bytes: reading
//! a block or a log segment slices rows out of the buffer that was read,
//! writing one copies the slice back, and columns are decoded only when
//! something looks at them.

use std::cell::RefCell;

use bytes::Bytes;

use crate::codec::{DecodeError, DecodeResult, Writer};

const TAG_NULL: u8 = 0;
const TAG_U64: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BYTES: u8 = 4;

/// A single column value, owned: what rows are built from.
///
/// The engine is schema-light: rows are tuples of values, and index
/// definitions name column positions. This is enough for TPC-C (whose
/// monetary amounts are carried as integer cents to keep keys exact).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Unsigned integer (identifiers, counts).
    U64(u64),
    /// Signed integer (amounts in cents, balances).
    I64(i64),
    /// Text.
    Str(String),
    /// Raw bytes (filler columns).
    Bytes(Vec<u8>),
}

impl Value {
    /// Calls `f` with the value's tag and payload bytes — the pair both the
    /// storage encoding and the key encoding are written from.
    fn with_col<R>(&self, f: impl FnOnce(u8, &[u8]) -> R) -> R {
        match self {
            Value::Null => f(TAG_NULL, &[]),
            Value::U64(x) => f(TAG_U64, &x.to_be_bytes()),
            Value::I64(x) => f(TAG_I64, &x.to_be_bytes()),
            Value::Str(s) => f(TAG_STR, s.as_bytes()),
            Value::Bytes(b) => f(TAG_BYTES, b),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One column of a [`Row`], borrowed from the row's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Text.
    Str(&'a str),
    /// Raw bytes.
    Bytes(&'a [u8]),
}

impl<'a> ValueRef<'a> {
    /// Decodes a column from its tag and payload, as [`split_col`] cut
    /// them: checks the integer widths and the UTF-8 of text.
    fn from_col(tag: u8, payload: &'a [u8]) -> DecodeResult<Self> {
        let int = |context| <[u8; 8]>::try_from(payload).map_err(|_| DecodeError { context });
        Ok(match tag {
            TAG_NULL => ValueRef::Null,
            TAG_U64 => ValueRef::U64(u64::from_be_bytes(int("u64 value")?)),
            TAG_I64 => ValueRef::I64(i64::from_be_bytes(int("i64 value")?)),
            TAG_STR => ValueRef::Str(
                std::str::from_utf8(payload).map_err(|_| DecodeError { context: "str value" })?,
            ),
            TAG_BYTES => ValueRef::Bytes(payload),
            _ => return Err(DecodeError { context: "value tag" }),
        })
    }

    /// The unsigned integer inside, if this is a `U64`.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            ValueRef::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The signed integer inside, if this is an `I64`.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            ValueRef::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Cuts the column at the front of `buf` into its tag, its payload (without
/// the length prefix of text and bytes) and what follows it, checking the
/// tag and every length against the buffer.
fn split_col(buf: &[u8]) -> DecodeResult<(u8, &[u8], &[u8])> {
    let (&tag, rest) = buf.split_first().ok_or(DecodeError { context: "value tag" })?;
    let (context, len, rest) = match tag {
        TAG_NULL => return Ok((tag, &[], rest)),
        TAG_U64 => ("u64 value", 8, rest),
        TAG_I64 => ("i64 value", 8, rest),
        TAG_STR | TAG_BYTES => {
            let context = if tag == TAG_STR { "str value" } else { "bytes value" };
            let (len, rest) = rest.split_first_chunk().ok_or(DecodeError { context })?;
            (context, u32::from_be_bytes(*len) as usize, rest)
        }
        _ => return Err(DecodeError { context: "value tag" }),
    };
    let (payload, rest) = rest.split_at_checked(len).ok_or(DecodeError { context })?;
    Ok((tag, payload, rest))
}

/// Appends one column in the storage encoding.
#[inline]
fn put_col(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    buf.push(tag);
    if matches!(tag, TAG_STR | TAG_BYTES) {
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    }
    buf.extend_from_slice(payload);
}

/// The columns of a validated row as `(tag, payload)` pairs, undecoded:
/// stepping over a column reads its tag and length and nothing else.
#[derive(Clone)]
struct RawCols<'a> {
    left: u16,
    rest: &'a [u8],
}

impl<'a> Iterator for RawCols<'a> {
    type Item = (u8, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let (tag, payload, rest) = split_col(self.rest).ok()?;
        self.rest = rest;
        Some((tag, payload))
    }
}

thread_local! {
    /// Where a row under construction is assembled before it is copied into
    /// an allocation of exactly its size.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A row: an ordered tuple of values, held in its storage encoding.
///
/// The bytes are validated once, where they enter ([`Row::decode`]) or are
/// built ([`Row::new`], [`Row::set_cols`]), and immutable and shared from then
/// on: cloning is a reference-count bump, equality and hashing are byte
/// equality (the encoding is injective), and storing the row is a copy of
/// the slice. A decoded row is a view into the buffer it was decoded from
/// and keeps that buffer alive; [`Row::detached`] gives it an allocation of
/// its own.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Row {
    bytes: Bytes,
}

impl Row {
    /// Builds a row from its values.
    ///
    /// ```
    /// use recobench_engine::row::{Row, Value, ValueRef};
    ///
    /// let r = Row::new(vec![Value::U64(1), Value::from("name")]);
    /// assert_eq!(r.get(1).and_then(ValueRef::as_str), Some("name"));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on more than `u16::MAX` values (the stored column count).
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Self::build(|buf| {
            buf.extend_from_slice(&[0, 0]);
            let mut n = 0usize;
            for v in values {
                v.with_col(|tag, payload| put_col(buf, tag, payload));
                n += 1;
            }
            assert!(n <= usize::from(u16::MAX), "a row holds at most 65535 columns");
            if let Some(count) = buf.first_chunk_mut() {
                *count = (n as u16).to_be_bytes();
            }
        })
    }

    /// Assembles a row's bytes with `fill` and gives them their own
    /// allocation. The scratch buffer is taken out of its cell meanwhile,
    /// so a `fill` that builds rows itself finds an empty one.
    fn build(fill: impl FnOnce(&mut Vec<u8>)) -> Self {
        let mut buf = SCRATCH.take();
        buf.clear();
        fill(&mut buf);
        let row = Row { bytes: Bytes::copy_from_slice(&buf) };
        SCRATCH.set(buf);
        row
    }

    fn raw_cols(&self) -> RawCols<'_> {
        match self.bytes.split_first_chunk() {
            Some((count, rest)) => RawCols { left: u16::from_be_bytes(*count), rest },
            None => RawCols { left: 0, rest: &[] },
        }
    }

    /// The value at column `i`, if present. Steps over the columns before
    /// it without decoding them.
    pub fn get(&self, i: usize) -> Option<ValueRef<'_>> {
        let (tag, payload) = self.raw_cols().nth(i)?;
        ValueRef::from_col(tag, payload).ok()
    }

    /// All values, in column order.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'_>> {
        self.raw_cols().map_while(|(tag, payload)| ValueRef::from_col(tag, payload).ok())
    }

    /// Replaces the values at the given columns, which must ascend: one
    /// walk over the row copies the bytes between the edited columns and
    /// writes the new values, into one allocation however many columns
    /// change.
    ///
    /// # Panics
    ///
    /// Panics if a column is out of bounds or not above the one before it.
    pub fn set_cols(&mut self, edits: impl IntoIterator<Item = (usize, Value)>) {
        let all: &[u8] = &self.bytes;
        let mut cols = self.raw_cols();
        let row = Self::build(|buf| {
            // `cols` stands at column `at`; `all[..copied]` is dealt with.
            let (mut at, mut copied) = (0, 0);
            for (i, value) in edits {
                assert!(i >= at, "column {i} does not ascend");
                if i > at {
                    cols.nth(i - at - 1);
                }
                let from = all.len() - cols.rest.len();
                assert!(cols.next().is_some(), "column {i} out of bounds");
                buf.extend_from_slice(&all[copied..from]);
                value.with_col(|tag, payload| put_col(buf, tag, payload));
                copied = all.len() - cols.rest.len();
                at = i + 1;
            }
            buf.extend_from_slice(&all[copied..]);
        });
        *self = row;
    }

    /// Replaces the value at column `i`: [`Row::set_cols`] with one column.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: Value) {
        self.set_cols([(i, value)]);
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        usize::from(self.raw_cols().left)
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored form of the row (shared, not copied).
    pub fn encode(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Appends the stored form of the row to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_slice_raw(&self.bytes);
    }

    /// Size of the stored form, in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Takes a row out of the front of `buf`, as a view into it, after
    /// checking the column count, every tag, every length against the
    /// buffer and the UTF-8 of every string. Bytes after the last column
    /// are ignored (stored row images are length-prefixed).
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes.
    pub fn decode(mut buf: Bytes) -> DecodeResult<Row> {
        let (count, mut rest) =
            buf.split_first_chunk().ok_or(DecodeError { context: "row column count" })?;
        for _ in 0..u16::from_be_bytes(*count) {
            let (tag, payload, after) = split_col(rest)?;
            ValueRef::from_col(tag, payload)?;
            rest = after;
        }
        let len = buf.len() - rest.len();
        buf.truncate(len);
        Ok(Row { bytes: buf })
    }

    /// The same row in an allocation of exactly its own size — for a row
    /// that outlives the buffer it was decoded from (a replayed record's
    /// row stored in a block, an undo entry kept across log segments),
    /// which it would otherwise keep alive whole.
    pub fn detached(&self) -> Row {
        Row { bytes: Bytes::copy_from_slice(&self.bytes) }
    }

    /// The raw columns at positions `cols`, in that order; a position past
    /// the last column reads as NULL (rows shorter than a key spec). One
    /// forward walk when `cols` ascends, as index definitions do.
    fn pick<'a>(&'a self, cols: &'a [usize]) -> impl Iterator<Item = (u8, &'a [u8])> + 'a {
        let mut cursor = self.raw_cols();
        let mut at = 0;
        cols.iter().map(move |&c| {
            if c < at {
                cursor = self.raw_cols();
                at = 0;
            }
            let col = cursor.nth(c - at);
            at = c + 1;
            col.unwrap_or((TAG_NULL, &[]))
        })
    }

    /// Appends the order-preserving key made of columns `cols` to `out`:
    /// the bytes [`encode_key_into`] gives for those columns' values.
    pub(crate) fn key_into(&self, cols: &[usize], out: &mut Vec<u8>) {
        for (tag, payload) in self.pick(cols) {
            encode_key_col(tag, payload, out);
        }
    }

    /// Whether `self` and `other` differ in any of columns `cols`.
    pub(crate) fn differs_on(&self, other: &Row, cols: &[usize]) -> bool {
        self.pick(cols).ne(other.pick(cols))
    }
}

impl std::fmt::Debug for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Row")?;
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Encodes a tuple of values into an order-preserving byte key.
///
/// Comparing encoded keys with `memcmp` sorts exactly like comparing the
/// value tuples: integers big-endian (signed ones offset-shifted), strings
/// terminated so that prefixes sort first.
///
/// ```
/// use recobench_engine::row::{encode_key, Value};
///
/// let lo = encode_key(&[Value::U64(1), Value::U64(2)]);
/// let hi = encode_key(&[Value::U64(1), Value::U64(10)]);
/// assert!(lo < hi);
/// ```
pub fn encode_key(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 9);
    encode_key_into(values.iter(), &mut out);
    out
}

/// Appends the order-preserving encoding of `values` to `out`.
///
/// `out` is *not* cleared first, so callers can reuse one scratch buffer
/// across probes (clear, encode, look up) without reallocating.
pub fn encode_key_into<'a, I: IntoIterator<Item = &'a Value>>(values: I, out: &mut Vec<u8>) {
    for v in values {
        v.with_col(|tag, payload| encode_key_col(tag, payload, out));
    }
}

/// Appends the order-preserving encoding of one column to `out`: its tag,
/// then its payload made `memcmp`-ordered.
#[inline]
fn encode_key_col(tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.push(tag);
    match tag {
        // Big-endian as stored (a fixed-width copy); a signed integer has
        // its sign bit flipped so two's complement sorts naturally.
        TAG_U64 | TAG_I64 => {
            if let Ok(be) = <[u8; 8]>::try_from(payload) {
                let sign = if tag == TAG_I64 { 1u64 << 63 } else { 0 };
                out.extend_from_slice(&(u64::from_be_bytes(be) ^ sign).to_be_bytes());
            }
        }
        // 0x00 bytes are escaped as 0x00 0xFF; the terminator is
        // 0x00 0x00, which sorts before any continuation.
        TAG_STR | TAG_BYTES => escape_bytes(payload, out),
        // NULL is its tag alone.
        _ => {}
    }
}

fn escape_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        if b == 0 {
            out.extend_from_slice(&[0x00, 0xFF]);
        } else {
            out.push(b);
        }
    }
    out.extend_from_slice(&[0x00, 0x00]);
}

/// Hand-built malformed row encodings: `(what is wrong, bytes, the
/// DecodeError context decoding must fail with)`. The row, block and redo
/// tests all run this one table, so a malformed row is refused the same
/// way wherever it is met.
#[cfg(test)]
pub(crate) fn malformed_rows() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let count = |n: u16| n.to_be_bytes().to_vec();
    let with = |n: u16, tail: &[u8]| [&count(n)[..], tail].concat();
    vec![
        ("column count cut short", vec![0], "row column count"),
        ("unknown tag", with(1, &[99]), "value tag"),
        ("u64 cut short", with(1, &[1, 0, 0, 0, 0, 0, 0, 7]), "u64 value"),
        ("i64 cut short", with(1, &[2, 0xff, 0xff]), "i64 value"),
        ("str length prefix cut short", with(1, &[3, 0, 0]), "str value"),
        ("str length overruns the buffer", with(1, &[3, 0, 0, 0, 10, b'a', b'b', b'c']), "str value"),
        ("bytes length overruns the buffer", with(1, &[4, 0, 0, 0, 4, 1, 2, 3]), "bytes value"),
        ("invalid UTF-8", with(1, &[3, 0, 0, 0, 2, 0xff, 0xfe]), "str value"),
        ("column count larger than the content", with(2, &[0]), "value tag"),
        ("second column cut short", with(2, &[1, 0, 0, 0, 0, 0, 0, 0, 5, 1, 0]), "u64 value"),
    ]
}

/// Arbitrary values of every kind, for the property tests here and in
/// `index.rs`.
#[cfg(test)]
pub(crate) fn value_strategy() -> impl proptest::strategy::Strategy<Value = Value> {
    use proptest::prelude::*;
    prop_oneof![
        Just(Value::Null),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        "[ -~]{0,40}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::Bytes),
    ]
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The value-by-value encoder `Row::encode_into` was while rows were
    /// vectors of values, kept as the reference the bytes [`Row::new`]
    /// builds must equal.
    fn reference_encoding(values: &[Value]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u16(values.len() as u16);
        for v in values {
            match v {
                Value::Null => w.put_u8(0),
                Value::U64(x) => {
                    w.put_u8(1);
                    w.put_u64(*x);
                }
                Value::I64(x) => {
                    w.put_u8(2);
                    w.put_i64(*x);
                }
                Value::Str(s) => {
                    w.put_u8(3);
                    w.put_str(s);
                }
                Value::Bytes(b) => {
                    w.put_u8(4);
                    w.put_bytes(b);
                }
            }
        }
        w.as_slice().to_vec()
    }

    fn owned(v: ValueRef<'_>) -> Value {
        match v {
            ValueRef::Null => Value::Null,
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }

    fn values_of(row: &Row) -> Vec<Value> {
        row.iter().map(owned).collect()
    }

    proptest! {
        #[test]
        fn a_built_row_reads_back_its_values_and_holds_the_reference_encoding(
            vs in proptest::collection::vec(value_strategy(), 0..8)
        ) {
            let row = Row::new(vs.clone());
            prop_assert_eq!(&values_of(&row), &vs);
            prop_assert_eq!(row.len(), vs.len());
            for (i, v) in vs.iter().enumerate() {
                prop_assert_eq!(row.get(i).map(owned).as_ref(), Some(v));
            }
            prop_assert_eq!(row.get(vs.len()), None);
            let reference = reference_encoding(&vs);
            prop_assert_eq!(row.encoded_len(), reference.len());
            let mut w = Writer::new();
            row.encode_into(&mut w);
            prop_assert_eq!(w.as_slice(), &reference[..]);
            prop_assert_eq!(Row::decode(Bytes::from(reference)).unwrap(), row);
        }

        #[test]
        fn set_equals_rebuilding_the_row_with_the_column_replaced(
            vs in proptest::collection::vec(value_strategy(), 1..8),
            at in any::<usize>(),
            v in value_strategy(),
            shared in any::<bool>(),
        ) {
            let i = at % vs.len();
            let mut row = Row::new(vs.clone());
            let sharer = shared.then(|| row.clone());
            row.set(i, v.clone());
            let mut replaced = vs.clone();
            replaced[i] = v;
            prop_assert_eq!(&row, &Row::new(replaced));
            if let Some(sharer) = sharer {
                prop_assert_eq!(values_of(&sharer), vs);
            }
        }

        /// `value_strategy` draws every kind at every width, so the edits
        /// shrink, grow and keep columns; the booleans pick any ascending
        /// column set, the empty one included.
        #[test]
        fn a_multi_column_edit_equals_the_fold_of_single_sets_and_holds_the_reference_encoding(
            cols in proptest::collection::vec((value_strategy(), any::<bool>(), value_strategy()), 1..8),
            shared in any::<bool>(),
            viewed in any::<bool>(),
        ) {
            let vs: Vec<Value> = cols.iter().map(|(v, _, _)| v.clone()).collect();
            let edits: Vec<(usize, Value)> = cols
                .iter()
                .enumerate()
                .filter(|(_, (_, picked, _))| *picked)
                .map(|(i, (_, _, new))| (i, new.clone()))
                .collect();
            let mut row = Row::new(vs.clone());
            if viewed {
                // A view into the middle of a larger buffer, as decoding
                // a block or a log segment leaves it.
                let buffer = Bytes::from([b"head", &row.encode()[..], b"tail"].concat());
                row = Row::decode(buffer.slice(4..buffer.len())).unwrap();
            }
            let sharer = shared.then(|| row.clone());
            let mut folded = row.clone();
            let mut replaced = vs.clone();
            for (i, v) in &edits {
                folded.set(*i, v.clone());
                replaced[*i] = v.clone();
            }
            row.set_cols(edits);
            prop_assert_eq!(&row, &folded);
            prop_assert_eq!(&row.encode()[..], &reference_encoding(&replaced)[..]);
            if let Some(sharer) = sharer {
                prop_assert_eq!(values_of(&sharer), vs);
            }
        }

        #[test]
        fn every_strict_prefix_of_a_valid_encoding_fails_to_decode(
            vs in proptest::collection::vec(value_strategy(), 0..8)
        ) {
            let enc = Row::new(vs).encode();
            for cut in 0..enc.len() {
                prop_assert!(Row::decode(enc.slice(0..cut)).is_err(), "cut at {}", cut);
            }
        }

        #[test]
        fn a_row_key_is_the_key_of_its_values(
            vs in proptest::collection::vec(value_strategy(), 0..6),
            cols in proptest::collection::vec(0usize..8, 0..5),
        ) {
            // Any column order, repeats and positions past the end (NULL).
            let row = Row::new(vs.clone());
            let picked: Vec<Value> =
                cols.iter().map(|&c| vs.get(c).cloned().unwrap_or(Value::Null)).collect();
            let mut key = vec![0xAA];
            row.key_into(&cols, &mut key);
            prop_assert_eq!(&key[1..], &encode_key(&picked)[..]);

            let mut other = vs;
            if let Some(first) = other.first_mut() {
                *first = Value::from("changed");
            }
            let other = Row::new(other);
            let other_picked: Vec<ValueRef<'_>> =
                cols.iter().map(|&c| other.get(c).unwrap_or(ValueRef::Null)).collect();
            let row_picked: Vec<ValueRef<'_>> =
                cols.iter().map(|&c| row.get(c).unwrap_or(ValueRef::Null)).collect();
            prop_assert_eq!(row.differs_on(&other, &cols), row_picked != other_picked);
        }
    }

    /// `set` on the first and the last column, with a same-width and a
    /// width-changing value, on an unshared and a shared row.
    #[test]
    fn set_rewrites_edge_columns_at_any_width() {
        let vs = vec![Value::U64(1), Value::from("middle"), Value::I64(-9)];
        for i in [0, vs.len() - 1] {
            for v in [Value::U64(77), Value::from("a longer value than before"), Value::Null] {
                for shared in [false, true] {
                    let mut row = Row::new(vs.clone());
                    let sharer = shared.then(|| row.clone());
                    row.set(i, v.clone());
                    let mut replaced = vs.clone();
                    replaced[i] = v.clone();
                    assert_eq!(values_of(&row), replaced);
                    assert_eq!(row, Row::new(replaced));
                    assert_eq!(row.encoded_len(), row.encode().len());
                    if let Some(sharer) = sharer {
                        assert_eq!(values_of(&sharer), vs);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_past_the_last_column_panics() {
        let mut row = sample_row();
        row.set(row.len(), Value::Null);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_multi_column_edit_past_the_last_column_panics() {
        let mut row = sample_row();
        row.set_cols([(1, Value::Null), (row.len(), Value::Null)]);
    }

    #[test]
    #[should_panic(expected = "does not ascend")]
    fn a_multi_column_edit_that_repeats_a_column_panics() {
        let mut row = sample_row();
        row.set_cols([(2, Value::Null), (2, Value::U64(1))]);
    }

    #[test]
    fn a_decoded_row_is_a_view_and_a_detached_one_is_not() {
        let mut w = Writer::new();
        w.put_slice_raw(b"leading bytes of some larger buffer");
        let at = w.len();
        sample_row().encode_into(&mut w);
        let buffer = w.into_bytes();
        let span = buffer.as_ptr_range();
        let viewed = Row::decode(buffer.slice(at..buffer.len())).unwrap();
        assert!(span.contains(&viewed.encode().as_ptr()));
        let detached = viewed.detached();
        assert_eq!(detached, viewed);
        assert!(!span.contains(&detached.encode().as_ptr()));
    }

    #[test]
    fn debug_lists_the_columns() {
        let row = Row::new(vec![Value::U64(1), Value::from("x"), Value::Null]);
        assert_eq!(format!("{row:?}"), r#"Row[U64(1), Str("x"), Null]"#);
    }

    fn sample_row() -> Row {
        Row::new(vec![
            Value::U64(42),
            Value::I64(-1_000),
            Value::from("hello"),
            Value::Bytes(vec![0, 1, 2]),
            Value::Null,
        ])
    }

    #[test]
    fn row_round_trip() {
        let r = sample_row();
        let enc = r.encode();
        assert_eq!(enc.len(), r.encoded_len());
        assert_eq!(Row::decode(enc).unwrap(), r);
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut w = Writer::new();
        w.put_u16(1);
        w.put_u8(99);
        assert!(Row::decode(w.into_bytes()).is_err());
    }

    #[test]
    fn each_malformed_row_fails_with_its_pinned_context() {
        for (what, bytes, context) in malformed_rows() {
            let err = Row::decode(Bytes::from(bytes)).unwrap_err();
            assert_eq!(err.context, context, "{what}");
        }
    }

    /// A row image is length-prefixed wherever it is stored, and the
    /// decoder reads the columns the count announces and stops: bytes left
    /// over inside the image are ignored, and the decoded row's length is
    /// what was consumed, not what was handed in.
    #[test]
    fn trailing_bytes_inside_a_row_image_are_ignored() {
        let r = sample_row();
        let mut padded = r.encode().to_vec();
        padded.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let decoded = Row::decode(Bytes::from(padded)).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.encoded_len(), r.encoded_len());
        assert_eq!(decoded.encode(), r.encode());
    }

    #[test]
    fn key_orders_unsigned() {
        let ks: Vec<_> = [0u64, 1, 255, 256, u64::MAX]
            .iter()
            .map(|&x| encode_key(&[Value::U64(x)]))
            .collect();
        for w in ks.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn key_orders_signed_across_zero() {
        let ks: Vec<_> = [i64::MIN, -5, -1, 0, 1, i64::MAX]
            .iter()
            .map(|&x| encode_key(&[Value::I64(x)]))
            .collect();
        for w in ks.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn key_orders_strings_with_prefixes() {
        let a = encode_key(&[Value::from("BAR")]);
        let b = encode_key(&[Value::from("BARR")]);
        let c = encode_key(&[Value::from("BAS")]);
        assert!(a < b && b < c);
    }

    #[test]
    fn key_handles_embedded_nul() {
        let a = encode_key(&[Value::Bytes(vec![1, 0, 2])]);
        let b = encode_key(&[Value::Bytes(vec![1, 0, 3])]);
        assert!(a < b);
        // A shorter value is not confused with one that continues past the
        // escape.
        let short = encode_key(&[Value::Bytes(vec![1])]);
        assert!(short < a);
    }

    #[test]
    fn composite_key_orders_lexicographically() {
        let a = encode_key(&[Value::U64(1), Value::from("b")]);
        let b = encode_key(&[Value::U64(2), Value::from("a")]);
        assert!(a < b);
    }
}
