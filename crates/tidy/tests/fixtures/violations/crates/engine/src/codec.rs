//! Fixture: helpers reached transitively from recovery — one panics, one
//! panics under a waiver on the offending line itself (the same-line form
//! of the escape hatch; `recovery.rs` has the line-above form).

/// A record's length, header included. The caller has checked that the
/// length is present; the waiver on the offending line records it.
pub fn record_len(x: Option<u32>) -> u32 {
    const HEADER_BYTES: u32 = 4;
    HEADER_BYTES
        + x.unwrap() // tidy-allow(panic-freedom): fixture proves a same-line waiver suppresses
}

/// Reads a record header; panics on a missing one.
pub fn decode_header(x: Option<u32>) -> u32 {
    x.expect("fixture: panics on a path reached from recovery::startup")
}
