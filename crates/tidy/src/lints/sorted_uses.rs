//! Lint: `use` blocks in the byte-stable-output modules stay sorted.
//!
//! The codec/report modules are diffed byte-for-byte in review whenever a
//! serialization contract changes; keeping their import blocks in sorted
//! order keeps those diffs minimal and mechanical.

use crate::{Diagnostics, Lint, Workspace};

/// The modules held to sorted imports — the same byte-stable set as
/// `ordered-serialization`.
pub const SORTED_FILES: &[&str] = &[
    "crates/engine/src/codec.rs",
    "crates/engine/src/events.rs",
    "crates/core/src/report.rs",
    "crates/core/src/measures.rs",
    "crates/core/src/experiment.rs",
    "crates/faults/src/schedule.rs",
    "crates/oracle/src/diff.rs",
    "crates/vfs/src/snapshot.rs",
];

/// Finds unsorted contiguous `use` blocks: returns `(start, end)` 0-based
/// inclusive line ranges that need re-sorting.
fn unsorted_blocks(lines: &[String]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        if !is_use_line(&lines[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < lines.len() && is_use_line(&lines[i]) {
            i += 1;
        }
        let block = &lines[start..i];
        let mut sorted: Vec<&String> = block.iter().collect();
        sorted.sort();
        if sorted.iter().zip(block.iter()).any(|(a, b)| *a != b) {
            out.push((start, i - 1));
        }
    }
    out
}

/// A single-line `use …;` declaration (multi-line groups are left to
/// rustfmt; the repo style keeps imports one per line).
fn is_use_line(line: &str) -> bool {
    let t = line.trim_start();
    (t.starts_with("use ") || t.starts_with("pub use ")) && t.trim_end().ends_with(';')
}

/// See the module docs.
pub struct SortedUses;

impl Lint for SortedUses {
    fn name(&self) -> &'static str {
        "sorted-uses"
    }

    fn description(&self) -> &'static str {
        "import blocks in byte-stable modules are sorted"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        for rel in SORTED_FILES {
            let Some(f) = ws.file(rel) else { continue };
            for (start, end) in unsorted_blocks(&f.lines) {
                diags.emit(
                    self.name(),
                    &f.rel,
                    start + 1,
                    format!(
                        "`use` block (lines {}–{}) is not sorted; sort its lines",
                        start + 1,
                        end + 1
                    ),
                );
            }
        }
    }
}
