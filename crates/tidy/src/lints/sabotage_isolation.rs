//! Lint: test-only sabotage hooks stay compiled out of production builds.
//!
//! `DbServer::sabotage_skip_redo_records` and friends deliberately break
//! redo apply so the differential oracle can prove it catches real
//! corruption. Shipping that capability reachable in a default build
//! would be indefensible, so every `sabotage_*` identifier in the engine
//! and oracle sources must sit inside an item or statement gated by
//! `#[cfg(any(test, feature = "sabotage"))]` (or inside a `#[cfg(test)]`
//! module).

use crate::lex::TokKind;
use crate::{Diagnostics, Lint, Workspace};

/// Crates whose sources may define or call the hooks only behind the
/// gate. `crates/bench` is the sanctioned opt-in consumer: it enables the
/// `sabotage` feature explicitly in its manifest for the torture
/// binary's oracle self-test.
const GUARDED_PREFIXES: &[&str] = &["crates/engine/src/", "crates/oracle/src/"];

/// See the module docs.
pub struct SabotageIsolation;

impl Lint for SabotageIsolation {
    fn name(&self) -> &'static str {
        "sabotage-isolation"
    }

    fn description(&self) -> &'static str {
        "sabotage_* hooks unreachable without cfg(any(test, feature = \"sabotage\"))"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        for f in &ws.model.files {
            if !GUARDED_PREFIXES.iter().any(|p| f.rel.starts_with(p)) {
                continue;
            }
            for t in &f.toks {
                if t.kind != TokKind::Ident
                    || !t.text.starts_with("sabotage_")
                    || f.in_test_region(t.line)
                    || f.in_sabotage_region(t.line)
                {
                    continue;
                }
                diags.emit(
                    self.name(),
                    &f.rel,
                    t.line,
                    "sabotage_* hook outside cfg(any(test, feature = \"sabotage\")); gate the \
                     item (or the enclosing statement) so production builds compile it out"
                        .into(),
                );
            }
        }
    }
}
