//! Lint: every engine write site is exercised by the crash sweep.
//!
//! PR 7's write-point sweep crashes the engine at every counted VFS write
//! and proves recovery from each — but only for the write sites that
//! existed when the sweep ran. This lint closes the loop ResBench-style:
//! tidy *statically* enumerates every counted write call site in
//! `crates/engine` (calls to `SimFs::write_block` / `append` /
//! `append_padded`, resolved through the dataflow-lite pass), and
//! cross-checks the set against the coverage manifest the sweep records
//! at `crates/oracle/tests/write_site_coverage.json`. A newly added write
//! site fails CI until the sweep observes it (regenerate with
//! `UPDATE_WRITE_SITES=1 cargo test -p recobench-oracle --test
//! write_point_sweep`) or a waiver documents why the sweep cannot reach
//! it (e.g. standby-only paths). Stale manifest entries are flagged too.

use crate::callgraph::CallStyle;
use crate::{Diagnostics, Lint, Workspace};

/// The manifest the sweep maintains.
pub const MANIFEST_REL: &str = "crates/oracle/tests/write_site_coverage.json";

/// The counted write surface of `SimFs` (the methods that advance
/// `writes_observed`, i.e. the crash sweep's probe points).
const COUNTED_METHODS: &[&str] = &["write_block", "append", "append_padded"];

/// One statically-found write call site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WriteSite {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the call.
    pub line: usize,
    /// The `SimFs` method called.
    pub method: String,
    /// The enclosing fn, for diagnostics.
    pub in_fn: String,
}

/// Statically enumerates every counted write call site in `crates/engine`
/// non-test code. The second list is call sites that *look* like counted
/// writes but whose receiver the dataflow pass could not resolve —
/// under-enumerating silently would void the coverage claim, so the lint
/// reports those as violations.
pub fn engine_write_sites(ws: &Workspace) -> (Vec<WriteSite>, Vec<WriteSite>) {
    let m = &ws.model;
    let mut sites = Vec::new();
    let mut unresolved = Vec::new();
    for fn_idx in 0..m.fns.len() {
        let node = &m.fns[fn_idx];
        let rel = m.rel_of(fn_idx);
        if node.item.is_test || !rel.starts_with("crates/engine/src/") {
            continue;
        }
        for site in &m.sites[fn_idx] {
            if site.style != CallStyle::Method || !COUNTED_METHODS.contains(&site.name.as_str()) {
                continue;
            }
            let ws_site = WriteSite {
                file: rel.to_string(),
                line: site.line,
                method: site.name.clone(),
                in_fn: m.display_name(fn_idx),
            };
            match site.recv_type.as_deref() {
                Some("SimFs") => sites.push(ws_site),
                // `append`/`write_block` on a resolved non-fs receiver
                // (Vec::append, DbServer::write_block wrappers): not a
                // VFS write.
                Some(_) => {}
                // Unresolved receiver: `append_padded`/`write_block` are
                // unique to SimFs in this workspace, so treat as a write
                // site; a bare `.append(` could be Vec::append — report
                // it for manual resolution instead of guessing.
                None if site.name != "append" => sites.push(ws_site),
                None => unresolved.push(ws_site),
            }
        }
    }
    sites.sort();
    sites.dedup();
    unresolved.sort();
    (sites, unresolved)
}

/// See the module docs.
pub struct WriteSiteCoverage;

impl Lint for WriteSiteCoverage {
    fn name(&self) -> &'static str {
        "write-site-coverage"
    }

    fn description(&self) -> &'static str {
        "every static engine VFS write site appears in the crash sweep's coverage manifest"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        if ws.under("crates/engine/src/").next().is_none() {
            return;
        }
        let (sites, unresolved) = engine_write_sites(ws);
        for u in &unresolved {
            diags.emit(
                self.name(),
                &u.file,
                u.line,
                format!(
                    "cannot resolve the receiver of `.{}(…)` in `{}`; make the receiver's \
                     SimFs type inferable (or waive if it is not a VFS write)",
                    u.method, u.in_fn
                ),
            );
        }
        let Ok(manifest) = std::fs::read_to_string(ws.root.join(MANIFEST_REL)) else {
            diags.emit(
                self.name(),
                MANIFEST_REL,
                0,
                format!(
                    "coverage manifest missing; run `UPDATE_WRITE_SITES=1 cargo test -p \
                     recobench-oracle --test write_point_sweep` to record the {} static \
                     write site(s)",
                    sites.len()
                ),
            );
            return;
        };
        let covered = match parse_manifest(&manifest) {
            Ok(v) => v,
            Err(e) => {
                diags.emit(self.name(), MANIFEST_REL, 0, e);
                return;
            }
        };
        for s in &sites {
            if !covered.iter().any(|(f, l)| f == &s.file && *l == s.line) {
                diags.emit(
                    self.name(),
                    &s.file,
                    s.line,
                    format!(
                        "write site `SimFs::{}` in `{}` is not covered by the crash sweep's \
                         manifest; rerun `UPDATE_WRITE_SITES=1 cargo test -p recobench-oracle \
                         --test write_point_sweep`, or waive with the reason the sweep cannot \
                         reach it",
                        s.method, s.in_fn
                    ),
                );
            }
        }
        // Stale manifest entries (the site moved or disappeared): anchor
        // the diagnostic on the manifest so the fix is to regenerate it.
        for (f, l) in &covered {
            if f.starts_with("crates/engine/")
                && !sites.iter().any(|s| &s.file == f && s.line == *l)
            {
                diags.emit(
                    self.name(),
                    MANIFEST_REL,
                    0,
                    format!(
                        "manifest entry {f}:{l} matches no current write site; regenerate \
                         with UPDATE_WRITE_SITES=1"
                    ),
                );
            }
        }
    }
}

/// Reads the sweep manifest's site lines: one `{"file": "…", "line": N}`
/// per line, as `write_point_sweep` renders them (that test pins the
/// bytes). A line naming a `"file"` in any other shape is an error, not a
/// skipped site: a skipped site would void the coverage claim.
fn parse_manifest(text: &str) -> Result<Vec<(String, usize)>, String> {
    let mut sites = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if !line.contains("\"file\"") {
            continue;
        }
        let site = line
            .trim()
            .trim_end_matches(',')
            .strip_prefix("{\"file\": \"")
            .and_then(|rest| rest.strip_suffix('}'))
            .and_then(|rest| rest.split_once("\", \"line\": "))
            .and_then(|(file, n)| Some((file.to_string(), n.parse::<usize>().ok()?)));
        let Some(site) = site else {
            return Err(format!(
                "manifest unreadable: line {} is not a `{{\"file\": \"…\", \"line\": N}}` site",
                i + 1
            ));
        };
        sites.push(site);
    }
    Ok(sites)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "{\n  \"generated_by\": \"UPDATE_WRITE_SITES=1\",\n  \"sites\": [\n    \
                            {\"file\": \"crates/engine/src/a.rs\", \"line\": 7},\n    \
                            {\"file\": \"crates/engine/src/b.rs\", \"line\": 12}\n  ]\n}\n";

    #[test]
    fn reads_every_site_line() {
        assert_eq!(
            parse_manifest(MANIFEST).unwrap(),
            vec![("crates/engine/src/a.rs".to_string(), 7), ("crates/engine/src/b.rs".to_string(), 12)]
        );
    }

    #[test]
    fn a_site_line_it_cannot_read_is_an_error_not_a_skipped_site() {
        let bad = MANIFEST.replace("\"line\": 12", "\"line\": \"twelve\"");
        let err = parse_manifest(&bad).unwrap_err();
        assert!(err.starts_with("manifest unreadable: line 5 "), "{err}");
    }
}
