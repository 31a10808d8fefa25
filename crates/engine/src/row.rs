//! Typed rows and order-preserving key encoding.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::codec::{DecodeResult, Reader, Writer};

/// A single column value.
///
/// The engine is schema-light: rows are vectors of [`Value`]s, and index
/// definitions name column positions. This is enough for TPC-C (whose
/// monetary amounts are carried as integer cents to keep keys exact).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Unsigned integer (identifiers, counts).
    U64(u64),
    /// Signed integer (amounts in cents, balances).
    I64(i64),
    /// Text. Reference-counted so that cloning a row's column vector
    /// (copy-on-write in [`Row::set`]) bumps a pointer instead of copying
    /// string heaps — TPC-C stock and customer rows carry ten-plus text
    /// columns that DML before-images would otherwise reallocate.
    Str(std::sync::Arc<str>),
    /// Raw bytes (filler columns).
    Bytes(Vec<u8>),
}

impl Value {
    /// The unsigned integer inside, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The signed integer inside, if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(&**s),
            _ => None,
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
        Value::Str(v.into())
    }
}

/// A row: an ordered tuple of values.
///
/// Rows are reference-counted: cloning one is a pointer bump, which lets
/// the DML path share a single allocation between the redo record, the
/// page slot and the undo entry instead of deep-copying the values three
/// times. Mutation goes through [`Row::set`], which copies on write only
/// when the row is actually shared.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Row {
    values: std::sync::Arc<Vec<Value>>,
    /// Memoized [`Row::encoded_len`]; a function of `values`, kept in sync
    /// by `new` and `set`, so block space accounting and insert sizing
    /// never re-walk the columns.
    enc_len: u32,
}

impl Row {
    /// Builds a row from anything convertible to values.
    ///
    /// ```
    /// use recobench_engine::row::{Row, Value};
    ///
    /// let r = Row::new(vec![Value::U64(1), Value::from("name")]);
    /// assert_eq!(r.get(1).and_then(Value::as_str), Some("name"));
    /// ```
    pub fn new(values: Vec<Value>) -> Self {
        let enc_len = (2 + values.iter().map(value_enc_len).sum::<usize>()) as u32;
        Row { values: std::sync::Arc::new(values), enc_len }
    }

    /// The value at column `i`, if present.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// All values, in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Replaces the value at column `i`, copying the row first if it is
    /// shared.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: Value) {
        let slot = &mut std::sync::Arc::make_mut(&mut self.values)[i];
        self.enc_len -= value_enc_len(slot) as u32;
        self.enc_len += value_enc_len(&value) as u32;
        *slot = value;
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Encodes the row for storage.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends the encoded row to `w` without allocating.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u16(self.values.len() as u16);
        for v in self.values.iter() {
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
    }

    /// Size of the encoded form, in bytes (memoized at construction).
    pub fn encoded_len(&self) -> usize {
        self.enc_len as usize
    }

    /// Decodes a row from its stored form.
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes.
    pub fn decode(buf: Bytes) -> DecodeResult<Row> {
        let mut r = Reader::new(buf);
        Self::decode_from(&mut r)
    }

    /// Decodes a row from a reader positioned at a row boundary.
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes.
    pub fn decode_from(r: &mut Reader) -> DecodeResult<Row> {
        let n = r.get_u16("row column count")? as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = r.get_u8("value tag")?;
            let v = match tag {
                0 => Value::Null,
                1 => Value::U64(r.get_u64("u64 value")?),
                2 => Value::I64(r.get_i64("i64 value")?),
                3 => Value::Str(r.get_str("str value")?.into()),
                4 => Value::Bytes(r.get_bytes("bytes value")?.to_vec()),
                _ => return Err(crate::codec::DecodeError { context: "value tag" }),
            };
            values.push(v);
        }
        Ok(Row::new(values))
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
        encode_key_value(v, out);
    }
}

/// Appends the order-preserving encoding of one value to `out`.
pub fn encode_key_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0x00),
        Value::U64(x) => {
            out.push(0x01);
            out.extend_from_slice(&x.to_be_bytes());
        }
        Value::I64(x) => {
            out.push(0x02);
            // Flip the sign bit so two's complement sorts naturally.
            out.extend_from_slice(&((*x as u64) ^ (1u64 << 63)).to_be_bytes());
        }
        Value::Str(s) => {
            out.push(0x03);
            // 0x00 bytes are escaped as 0x00 0xFF; the terminator is
            // 0x00 0x00, which sorts before any continuation.
            escape_bytes(s.as_bytes(), out);
        }
        Value::Bytes(bytes) => {
            out.push(0x04);
            escape_bytes(bytes, out);
        }
    }
}

/// Encoded size of one value (tag byte plus payload).
fn value_enc_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::U64(_) | Value::I64(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Bytes(b) => 4 + b.len(),
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

#[cfg(test)]
mod tests {
    use super::*;

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
