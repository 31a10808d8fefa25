//! Golden digests shared by `golden_outcomes.rs` and `torture_corpus.rs`.
//!
//! A golden file holds one `<label> <fnv1a-64 hex>` line per outcome, the
//! digest taken over the outcome's `Debug` rendering — every field, the
//! captured event stream included. A refactor that claims "same behaviour"
//! must leave these files byte-identical; `UPDATE_GOLDEN=1 cargo test`
//! rewrites them when behaviour is *meant* to move.

use std::fmt::{Debug, Write as _};

/// One golden line for `outcome`.
pub fn line(label: &str, outcome: &impl Debug) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in format!("{outcome:?}").bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{label} {hash:016x}")
}

/// Compares `lines` with `tests/golden/<file>`, or rewrites the file when
/// `UPDATE_GOLDEN` is set.
pub fn check(file: &str, lines: &[String]) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let mut actual = String::new();
    for l in lines {
        writeln!(actual, "{l}").expect("writing to a String cannot fail");
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("{path}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDEN=1 to create it)"));
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "{file}: outcome digest moved (UPDATE_GOLDEN=1 if intended)");
    }
    assert_eq!(actual, expected, "{file}: the set of golden cells changed");
}
