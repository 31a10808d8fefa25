//! Lint: engine and vfs code builds its error values only on the error path.
//!
//! `opt.ok_or(DbError::…)` constructs the error before it looks at `opt` and
//! drops it again whenever `opt` is `Some` — and the repo's error enums
//! carry `String`s, so that drop is a call, not a no-op. On the statement
//! path the eager values were a measured 1.5–2 % of host time. This lint
//! flags, in `crates/engine` and `crates/vfs` non-test code, `.ok_or(` whose
//! argument starts with one of the repo's error types; `.ok_or_else(||` is
//! the fix. Lexical on purpose: the argument may start on the next line,
//! and nothing else about it matters.

use crate::{Diagnostics, Lint, Workspace};

/// Crates on the statement and replay paths.
const SCOPED_PREFIXES: &[&str] = &["crates/engine/src/", "crates/vfs/src/"];

/// The error enums whose values own heap data.
const ERROR_TYPES: &[&str] = &["DbError::", "RecoveryError::", "VfsError::"];

/// See the module docs.
pub struct LazyErrors;

impl Lint for LazyErrors {
    fn name(&self) -> &'static str {
        "lazy-errors"
    }

    fn description(&self) -> &'static str {
        "no `.ok_or(DbError/RecoveryError/VfsError::…)` building an error on the success path"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        for f in &ws.files {
            if !SCOPED_PREFIXES.iter().any(|p| f.rel.starts_with(p)) {
                continue;
            }
            for (i, code) in f.code.iter().enumerate() {
                let line = i + 1;
                if f.in_test_region(line) {
                    continue;
                }
                for (at, call) in code.match_indices(".ok_or(") {
                    // What follows the parenthesis, on this line or the next.
                    let after = code[at + call.len()..].trim_start();
                    let next = f.code.get(i + 1).map_or("", |l| l.trim_start());
                    let arg = if after.is_empty() { next } else { after };
                    if let Some(ty) = ERROR_TYPES.iter().find(|ty| arg.starts_with(**ty)) {
                        diags.emit(
                            self.name(),
                            &f.rel,
                            line,
                            format!(
                                "`.ok_or({ty}…)` builds and drops the error on the success \
                                 path; use `.ok_or_else(|| {ty}…)`"
                            ),
                        );
                    }
                }
            }
        }
    }
}
