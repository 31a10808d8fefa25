//! `recobench-tidy`: the repo-specific static-analysis wall.
//!
//! The benchmark's measures (recovery time, lost transactions, integrity
//! violations) are only trustworthy because every run is bit-for-bit
//! deterministic on the simulated clock and every recovery path reports
//! failure instead of panicking. The determinism half is clippy's
//! (`clippy.toml` disallows the wall clock and env-seeded hashing), and so
//! is the error built on the success path (`clippy::or_fun_call` at the
//! engine and vfs crate roots); the rest is about *this* repo's layering,
//! which clippy cannot express: its rules need the callee's return type,
//! the receiver's type or reach from an entry point. So, in the style of
//! rustc's `tidy` pass, this crate walks the workspace sources and
//! enforces it with `file:line` diagnostics. It lexes every Rust file
//! once ([`lex`]: tokens plus line comments), reads its waivers and
//! `cfg`-gated regions off those ([`source`]), and parses the tokens
//! ([`items`]) into an approximate intra-workspace call graph with
//! dataflow-lite receiver resolution ([`callgraph`]), so lints can
//! reason about reachability, not just text:
//!
//! * [`lints::panic_freedom`] — nothing reachable from a
//!   `// tidy-entry(recovery)` fn may `unwrap()`/`expect()`/`panic!` or
//!   index with an unguarded `[]`; diagnostics carry the call path;
//! * [`lints::error_swallow`] — engine/oracle code never discards a
//!   typed error (`let _ =`, statement `.ok();`, dropped results);
//! * [`lints::lock_discipline`] — `lock_row` only via the `lock_for_dml`
//!   chokepoint, locks before WAL append, session-path VFS writes only
//!   inside the sanctioned writers;
//! * [`lints::write_site_coverage`] — every static engine `SimFs` write
//!   site appears in the crash sweep's coverage manifest;
//! * [`lints::sabotage_isolation`] — test-only `sabotage_*` hooks stay
//!   behind `cfg(any(test, feature = "sabotage"))`.
//!
//! Escape hatch: a justified inline waiver on the offending line or the
//! line directly above it —
//!
//! ```text
//! // tidy-allow(<lint-name>): <non-empty reason>
//! ```
//!
//! Waivers that no longer suppress anything are themselves reported
//! (`unused-allow`), so stale exemptions cannot accumulate.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod callgraph;
pub mod items;
pub mod lex;
pub mod lints;
pub mod source;

pub use source::SourceFile;

/// Directory names never descended into, wherever they appear.
const SKIP_DIRS: &[&str] = &["target", ".git", "third_party", "node_modules"];

/// Workspace-relative path prefixes excluded from the walk. The tidy
/// fixture tree intentionally contains violations; scanning it from the
/// real run would make a clean tree impossible.
const SKIP_PREFIXES: &[&str] = &["crates/tidy/tests/fixtures"];

/// The walked workspace: every Rust file, lexed and parsed into the
/// call-graph model.
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Every collected `.rs` file, sorted by relative path for stable
    /// output, with its items and the approximate call graph over them.
    pub model: callgraph::Model,
}

impl Workspace {
    /// Walks `root` and loads every Rust file.
    ///
    /// # Errors
    ///
    /// Fails if `root` is not a readable directory or a file under it
    /// disappears mid-walk.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let root = root
            .canonicalize()
            .map_err(|e| format!("cannot open workspace root {}: {e}", root.display()))?;
        let mut files = Vec::new();
        walk(&root, &root, &mut files)?;
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace { root, model: callgraph::Model::build(files) })
    }

    /// Files whose relative path starts with `prefix`.
    pub fn under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a SourceFile> {
        self.model.files.iter().filter(move |f| f.rel.starts_with(prefix))
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = rel_path(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel == *p || rel.starts_with(&format!("{p}/"))) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(SourceFile::load(root, &path)?);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// One finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Name of the lint that fired (or `unused-allow`).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Collects diagnostics, honouring per-line `tidy-allow` waivers.
pub struct Diagnostics {
    violations: Vec<Diagnostic>,
    /// (file, line, lint, used) for every parsed waiver.
    allows: Vec<AllowState>,
}

struct AllowState {
    file: String,
    line: usize,
    lint: String,
    used: bool,
}

impl Diagnostics {
    /// Builds the collector, registering every waiver found in `ws`.
    pub fn new(ws: &Workspace) -> Diagnostics {
        let mut allows = Vec::new();
        for f in &ws.model.files {
            for a in &f.allows {
                allows.push(AllowState {
                    file: f.rel.clone(),
                    line: a.line,
                    lint: a.lint.clone(),
                    used: false,
                });
            }
        }
        Diagnostics { violations: Vec::new(), allows }
    }

    /// Records a finding unless a matching waiver covers `line` (same
    /// line, or the line directly above).
    pub fn emit(&mut self, lint: &'static str, file: &str, line: usize, message: String) {
        for a in &mut self.allows {
            if a.file == file && a.lint == lint && (a.line == line || a.line + 1 == line) {
                a.used = true;
                return;
            }
        }
        self.violations.push(Diagnostic { lint, file: file.to_string(), line, message });
    }

    /// Finishes the run: flags stale waivers, sorts, and returns every
    /// violation.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        let known: Vec<&str> = lints::all().iter().map(|l| l.name()).collect();
        for a in &self.allows {
            if !known.contains(&a.lint.as_str()) {
                self.violations.push(Diagnostic {
                    lint: "unused-allow",
                    file: a.file.clone(),
                    line: a.line,
                    message: format!(
                        "tidy-allow names unknown lint {:?} (known: {})",
                        a.lint,
                        known.join(", ")
                    ),
                });
            } else if !a.used {
                self.violations.push(Diagnostic {
                    lint: "unused-allow",
                    file: a.file.clone(),
                    line: a.line,
                    message: format!(
                        "tidy-allow({}) suppresses nothing here; remove the stale waiver",
                        a.lint
                    ),
                });
            }
        }
        self.violations.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
        // Two hazards on one line produce identical diagnostics (and one
        // waiver covers both); report each line's finding once.
        self.violations.dedup();
        self.violations
    }
}

/// A tidy lint: a named, repo-specific rule over the whole workspace.
pub trait Lint {
    /// Stable kebab-case name used in diagnostics and `tidy-allow`.
    fn name(&self) -> &'static str;
    /// One-line human description for `--list`.
    fn description(&self) -> &'static str;
    /// Checks the workspace, emitting findings into `diags`.
    fn check(&self, ws: &Workspace, diags: &mut Diagnostics);
}

/// Runs every registered lint over `ws` and returns the sorted findings.
pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Diagnostics::new(ws);
    for lint in lints::all() {
        lint.check(ws, &mut diags);
    }
    diags.finish()
}
