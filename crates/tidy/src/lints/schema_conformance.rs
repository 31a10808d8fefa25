//! Lint: the event and schedule schemas stay in sync with their encoders.
//!
//! Two checks:
//!
//! 1. **Event enum ↔ exporter coverage** — every variant of
//!    `EngineEvent` in `crates/engine/src/events.rs` is doc-commented and
//!    has an arm in both `name()` and `write_json()`, so no event can be
//!    added without a stable JSONL encoding.
//! 2. **Corpus conformance** — every `tests/corpus/*.json` parses with
//!    the real `FaultSchedule` parser and is in canonical `to_json` form
//!    (so reproducers diff cleanly and replay byte-for-byte).

use recobench_faults::FaultSchedule;

use crate::source::brace_region;
use crate::{Diagnostics, Lint, Workspace};

/// See the module docs.
pub struct SchemaConformance;

impl Lint for SchemaConformance {
    fn name(&self) -> &'static str {
        "schema-conformance"
    }

    fn description(&self) -> &'static str {
        "event enum matches the JSONL exporter; the corpus parses in canonical form"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        self.check_event_enum(ws, diags);
        self.check_corpus(ws, diags);
    }
}

impl SchemaConformance {
    fn check_event_enum(&self, ws: &Workspace, diags: &mut Diagnostics) {
        let Some(f) = ws.file("crates/engine/src/events.rs") else { return };
        // The enum body.
        let Some(enum_start) = f.lines.iter().position(|l| l.contains("pub enum EngineEvent"))
        else {
            diags.emit(
                self.name(),
                &f.rel,
                1,
                "events.rs no longer declares `pub enum EngineEvent`".into(),
            );
            return;
        };
        let enum_end = brace_region(&f.code, enum_start);

        // Variants: lines at one indent level starting with a capital.
        let mut variants: Vec<(usize, String)> = Vec::new();
        let mut depth = 0i64;
        for k in enum_start..=enum_end {
            let line = &f.code[k];
            let trimmed = f.lines[k].trim_start();
            if depth == 1
                && trimmed.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && !trimmed.starts_with("///")
            {
                let name: String =
                    trimmed.chars().take_while(|c| c.is_ascii_alphanumeric()).collect();
                if !name.is_empty() {
                    variants.push((k, name));
                }
            }
            for ch in line.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
        }

        // Doc-comment check: the nearest non-attribute line above each
        // variant must be a `///` doc comment.
        for (k, name) in &variants {
            let mut j = *k;
            let documented = loop {
                if j == 0 {
                    break false;
                }
                j -= 1;
                let t = f.lines[j].trim_start();
                if t.starts_with("#[") {
                    continue;
                }
                break t.starts_with("///");
            };
            if !documented {
                diags.emit(
                    self.name(),
                    &f.rel,
                    k + 1,
                    format!("EngineEvent::{name} has no doc comment describing the event"),
                );
            }
        }

        // Exporter coverage: each variant appears in `name()` and
        // `write_json()` inside `impl EngineEvent`.
        let Some(impl_start) = f.lines.iter().position(|l| l.starts_with("impl EngineEvent"))
        else {
            diags.emit(self.name(), &f.rel, 1, "no `impl EngineEvent` block found".into());
            return;
        };
        let impl_end = brace_region(&f.code, impl_start);
        for fn_name in ["fn name(", "fn write_json("] {
            let Some(fn_start) = (impl_start..=impl_end)
                .find(|&k| f.lines[k].contains(fn_name))
            else {
                diags.emit(
                    self.name(),
                    &f.rel,
                    impl_start + 1,
                    format!("impl EngineEvent lost its `{fn_name})` exporter method"),
                );
                continue;
            };
            let fn_end = brace_region(&f.code, fn_start);
            for (k, name) in &variants {
                let arm = format!("EngineEvent::{name}");
                if !(fn_start..=fn_end).any(|j| f.lines[j].contains(&arm)) {
                    diags.emit(
                        self.name(),
                        &f.rel,
                        k + 1,
                        format!(
                            "EngineEvent::{name} has no arm in `{fn_name})`; every event must \
                             round-trip through the JSONL exporter"
                        ),
                    );
                }
            }
        }
    }

    fn check_corpus(&self, ws: &Workspace, diags: &mut Diagnostics) {
        for f in ws.under("tests/corpus/") {
            if !f.rel.ends_with(".json") {
                continue;
            }
            let text = f.text();
            match FaultSchedule::from_json(text.trim()) {
                Err(e) => {
                    diags.emit(
                        self.name(),
                        &f.rel,
                        1,
                        format!("does not parse as a FaultSchedule: {e}"),
                    );
                }
                Ok(schedule) => {
                    if schedule.to_json() != text.trim() {
                        diags.emit(
                            self.name(),
                            &f.rel,
                            1,
                            "not in canonical FaultSchedule::to_json form; re-emit with to_json \
                             so corpus entries diff cleanly"
                                .into(),
                        );
                    }
                }
            }
        }
    }
}
