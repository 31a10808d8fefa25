//! Minimal binary codec for on-"disk" structures (redo records, block
//! images, rows).
//!
//! Everything the engine persists into the simulated filesystem round-trips
//! through this codec, so recovery genuinely *reads and parses* logs and
//! blocks rather than cheating through shared memory.

use bytes::Bytes;

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was trying to read.
    pub context: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed encoding while reading {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

/// Context string of checksum-verification failures (see
/// [`DecodeError::is_checksum_mismatch`]).
pub const CHECKSUM_CONTEXT: &str = "block checksum";

impl DecodeError {
    /// A decode failure caused by a CRC mismatch: the bytes parsed as a
    /// well-formed structure is irrelevant — the payload is not what was
    /// written.
    pub fn checksum_mismatch() -> Self {
        DecodeError { context: CHECKSUM_CONTEXT }
    }

    /// Whether this failure came from checksum verification (silent
    /// corruption such as bit-rot or a torn write) rather than from a
    /// structurally malformed encoding.
    pub fn is_checksum_mismatch(&self) -> bool {
        self.context == CHECKSUM_CONTEXT
    }
}

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 lookup tables for [`crc32`], built at compile time (8 KB
/// of read-only data). `CRC_TABLES[0]` is the byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` and `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// What a lane of zero bytes (128 or 32 of them) does to a CRC state, one
/// table per state byte: entry `[k][b]` is the state `b << 8k` becomes
/// after them (for 128 bytes, the state times x^1024 mod P). CRC is
/// linear, so a lane's state folds into the next lane's through these.
static SHIFT_128: [[u32; 256]; 4] = shift_tables(128);
static SHIFT_32: [[u32; 256]; 4] = shift_tables(32);

const fn shift_tables(lane: usize) -> [[u32; 256]; 4] {
    let t = crc_tables();
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut crc = (b as u32) << (8 * k);
            let mut n = 0;
            while n < lane {
                crc = (crc >> 8) ^ t[0][(crc & 0xff) as usize];
                n += 1;
            }
            shift[k][b] = crc;
            b += 1;
        }
        k += 1;
    }
    shift
}

/// `crc` carried over 128 zero bytes.
#[inline(always)]
fn shift_128(crc: u32) -> u32 {
    SHIFT_128[0][(crc & 0xff) as usize]
        ^ SHIFT_128[1][((crc >> 8) & 0xff) as usize]
        ^ SHIFT_128[2][((crc >> 16) & 0xff) as usize]
        ^ SHIFT_128[3][((crc >> 24) & 0xff) as usize]
}

/// `crc` carried over 32 zero bytes.
#[inline(always)]
fn shift_32(crc: u32) -> u32 {
    SHIFT_32[0][(crc & 0xff) as usize]
        ^ SHIFT_32[1][((crc >> 8) & 0xff) as usize]
        ^ SHIFT_32[2][((crc >> 16) & 0xff) as usize]
        ^ SHIFT_32[3][((crc >> 24) & 0xff) as usize]
}

/// One slicing-by-8 step: `crc` carried over the eight bytes `w`.
#[inline(always)]
fn step8(crc: u32, w: &[u8; 8]) -> u32 {
    let [b0, b1, b2, b3, b4, b5, b6, b7] = *w;
    let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
    let hi = u32::from_le_bytes([b4, b5, b6, b7]);
    CRC_TABLES[7][(lo & 0xff) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
        ^ CRC_TABLES[4][((lo >> 24) & 0xff) as usize]
        ^ CRC_TABLES[3][(hi & 0xff) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
        ^ CRC_TABLES[0][((hi >> 24) & 0xff) as usize]
}

/// The whole eight-byte words of `lane`.
fn words(lane: &[u8]) -> std::slice::Iter<'_, [u8; 8]> {
    lane.as_chunks::<8>().0.iter()
}

/// `crc` carried over each whole `GROUP` of `bytes` as four interleaved
/// slicing-by-8 lanes of `LANE` bytes, whose states are independent, so
/// the CPU overlaps their table lookups; `shift` carries a state over
/// one lane of zero bytes, which folds the lanes back into one state.
/// Returns the state and what is left after the last group.
#[inline(always)]
fn four_lanes<const LANE: usize, const GROUP: usize>(
    mut crc: u32,
    bytes: &[u8],
    shift: impl Fn(u32) -> u32,
) -> (u32, &[u8]) {
    let (groups, rest) = bytes.as_chunks::<GROUP>();
    for group in groups {
        let (l0, more) = group.split_at(LANE);
        let (l1, more) = more.split_at(LANE);
        let (l2, l3) = more.split_at(LANE);
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        for (((w0, w1), w2), w3) in words(l0).zip(words(l1)).zip(words(l2)).zip(words(l3)) {
            c0 = step8(c0, w0);
            c1 = step8(c1, w1);
            c2 = step8(c2, w2);
            c3 = step8(c3, w3);
        }
        crc = shift(shift(shift(c0) ^ c1) ^ c2) ^ c3;
    }
    (crc, rest)
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`). This is the
/// checksum stored in v2 block images; every block written is sealed with
/// it and every block read, replayed or verified is re-checked with it.
///
/// Whole 512-byte groups run as four interleaved lanes of 128 bytes, what
/// is left as four lanes of 32 bytes while a 128-byte group remains
/// (`four_lanes`), and the last bytes as one lane: eight bytes per
/// step, then byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (crc, rest) = four_lanes::<128, 512>(0xffff_ffff, bytes, shift_128);
    let (mut crc, rest) = four_lanes::<32, 128>(crc, rest, shift_32);
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        crc = step8(crc, w);
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Result alias for decoding.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// Incremental writer over a growable byte buffer.
///
/// Backed by a plain `Vec<u8>` so hot paths can recycle one allocation:
/// keep appending to a long-lived writer, copy [`Writer::as_slice`] out
/// and [`Writer::truncate`] it.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(128) }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (big-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32` (big-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64` (big-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `i64` (big-endian, two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_slice_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends what `fill` writes behind its `u32` length.
    pub fn put_framed(&mut self, fill: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.put_u32(0);
        fill(self);
        let len = (self.buf.len() - at - 4) as u32;
        if let Some(prefix) = self.buf.get_mut(at..at + 4) {
            prefix.copy_from_slice(&len.to_be_bytes());
        }
    }

    /// Overwrites the 4 bytes at `at` with `v` (for back-patched length
    /// prefixes).
    ///
    /// # Panics
    ///
    /// Panics if `at + 4` exceeds the bytes written so far.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The bytes written so far (for checksumming a just-encoded span
    /// before back-patching its header).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes and returns the encoded buffer.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Discards everything written after byte `at`, keeping the
    /// allocation (for undoing a speculative encode).
    pub fn truncate(&mut self, at: usize) {
        self.buf.truncate(at);
    }
}

/// Incremental reader over an encoded buffer.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Creates a reader over `buf`.
    pub fn new(buf: Bytes) -> Self {
        Reader { buf }
    }

    fn need(&self, n: usize, context: &'static str) -> DecodeResult<()> {
        if self.buf.remaining() < n {
            Err(DecodeError { context })
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is exhausted.
    pub fn get_u8(&mut self, context: &'static str) -> DecodeResult<u8> {
        self.need(1, context)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is exhausted.
    pub fn get_u16(&mut self, context: &'static str) -> DecodeResult<u16> {
        self.need(2, context)?;
        Ok(self.buf.get_u16())
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is exhausted.
    pub fn get_u32(&mut self, context: &'static str) -> DecodeResult<u32> {
        self.need(4, context)?;
        Ok(self.buf.get_u32())
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is exhausted.
    pub fn get_u64(&mut self, context: &'static str) -> DecodeResult<u64> {
        self.need(8, context)?;
        Ok(self.buf.get_u64())
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is exhausted.
    pub fn get_i64(&mut self, context: &'static str) -> DecodeResult<i64> {
        self.need(8, context)?;
        Ok(self.buf.get_i64())
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is exhausted or the prefix overruns it.
    pub fn get_bytes(&mut self, context: &'static str) -> DecodeResult<Bytes> {
        let n = self.get_u32(context)? as usize;
        self.need(n, context)?;
        Ok(self.buf.split_to(n))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on exhaustion or invalid UTF-8.
    pub fn get_str(&mut self, context: &'static str) -> DecodeResult<String> {
        let b = self.get_bytes(context)?;
        std::str::from_utf8(&b).map(str::to_owned).map_err(|_| DecodeError { context })
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        let mut r = Reader::new(w.into_bytes());
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 300);
        assert_eq!(r.get_u32("c").unwrap(), 70_000);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX);
        assert_eq!(r.get_i64("e").unwrap(), -42);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn string_and_bytes_round_trip() {
        let mut w = Writer::new();
        w.put_str("warehouse");
        w.put_bytes(&[1, 2, 3]);
        let mut r = Reader::new(w.into_bytes());
        assert_eq!(r.get_str("s").unwrap(), "warehouse");
        assert_eq!(r.get_bytes("b").unwrap().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn truncated_input_errors_with_context() {
        let mut w = Writer::new();
        w.put_u32(10); // length prefix promising 10 bytes that never come
        let mut r = Reader::new(w.into_bytes());
        let err = r.get_bytes("row image").unwrap_err();
        assert_eq!(err.context, "row image");
        assert!(err.to_string().contains("row image"));
    }

    #[test]
    fn empty_reader_errors() {
        let mut r = Reader::new(Bytes::new());
        assert!(r.get_u8("x").is_err());
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.put_u64(1);
        assert_eq!(w.len(), 8);
    }

    /// The bit-at-a-time definition of the checksum, kept as the reference
    /// the table-driven [`crc32`] must equal.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // The standard IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
        // One flipped bit changes the checksum.
        assert_ne!(crc32(&[0b0000_0001]), crc32(&[0b0000_0000]));
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length_and_alignment() {
        // Lengths 0..=2 100 cover zero to four whole 512-byte groups, each
        // followed by every remainder (128-byte groups, whole words,
        // bytes); start offsets 0..8 cover every alignment of the first
        // word.
        let buf: Vec<u8> = (0..2_108u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for start in 0..8 {
            for len in 0..=2_100 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
    }

    proptest! {
        /// Up to two blocks' worth of arbitrary bytes.
        #[test]
        fn crc32_equals_the_bitwise_reference_on_random_buffers(
            buf in proptest::collection::vec(any::<u8>(), 0..2 * 8192)
        ) {
            prop_assert_eq!(crc32(&buf), crc32_bitwise(&buf));
        }
    }

    #[test]
    fn checksum_mismatch_is_distinguishable() {
        let e = DecodeError::checksum_mismatch();
        assert!(e.is_checksum_mismatch());
        assert!(!DecodeError { context: "row image" }.is_checksum_mismatch());
    }
}
