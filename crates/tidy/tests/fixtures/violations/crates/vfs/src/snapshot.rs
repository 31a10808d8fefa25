//! Fixture: violations in the snapshot-manifest module — hash-order
//! iteration, imported and used.

use std::collections::HashMap;
use std::cmp::Ordering;

pub fn manifest_of(files: &HashMap<u64, String>, _o: Ordering) -> String {
    format!("{files:?}")
}
