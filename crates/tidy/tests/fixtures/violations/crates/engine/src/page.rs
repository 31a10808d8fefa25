//! Fixture: lookup tables on a recovery path. An index into a
//! `static`/`const` fixed-size array is bounded by construction when it
//! is a literal, or masked by a literal, below the declared length —
//! and flagged like any other `[]` when it is not.

static TABLES: [[u32; 256]; 8] = [[0; 256]; 8];
const NIBBLES: [u8; 16] = [0; 16];

// tidy-entry(recovery)
pub fn checksum(x: u32, i: usize) -> u32 {
    let bounded = TABLES[7][(x & 0xff) as usize]
        ^ TABLES[0][((x >> 8) & 0xff) as usize]
        ^ u32::from(NIBBLES[15]);
    let mask_too_wide = TABLES[1][(x & 0x1ff) as usize];
    let past_the_end = TABLES[8][0];
    let mask_binds_tighter = TABLES[2][(x ^ 1 & 0xff) as usize];
    let unbounded = u32::from(NIBBLES[i]);
    bounded ^ mask_too_wide ^ past_the_end ^ mask_binds_tighter ^ unbounded
}
