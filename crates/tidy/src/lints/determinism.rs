//! Lint: no wall-clock time or environment-seeded randomness outside
//! `crates/bench`.
//!
//! Every experiment runs on the simulated clock (`recobench_sim`); a
//! single `Instant::now()` or env-seeded hasher in the engine, simulator,
//! workload, harness or oracle silently breaks bit-for-bit reproducibility
//! of the paper's measures. Only the bench crate may touch the real
//! clock — a sweep's wall-clock budget, and what `perf` measures.

use crate::{Diagnostics, Lint, Workspace};

/// Path prefixes where real time is the measurand and therefore legal.
const EXEMPT_PREFIXES: &[&str] = &["crates/bench/"];

/// Forbidden tokens, with the reason they break determinism.
const PATTERNS: &[(&str, &str)] = &[
    ("std::time::Instant", "wall-clock time; use the simulated clock (recobench_sim::SimClock)"),
    ("std::time::SystemTime", "wall-clock time; use the simulated clock (recobench_sim::SimClock)"),
    ("Instant::now(", "wall-clock time; use the simulated clock (recobench_sim::SimClock)"),
    ("SystemTime::now(", "wall-clock time; use the simulated clock (recobench_sim::SimClock)"),
    ("thread::sleep", "real sleeping; advance the simulated clock instead"),
    ("RandomState", "env-seeded hashing gives run-dependent iteration order; use BTreeMap or fasthash"),
    ("thread_rng", "env-seeded randomness; use recobench_sim::SimRng with an explicit seed"),
    ("from_entropy", "env-seeded randomness; use recobench_sim::SimRng with an explicit seed"),
    ("getrandom", "env-seeded randomness; use recobench_sim::SimRng with an explicit seed"),
];

/// See the module docs.
pub struct Determinism;

impl Lint for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "no wall-clock time or env-seeded randomness outside crates/bench"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        for f in &ws.files {
            if !f.is_rust() || EXEMPT_PREFIXES.iter().any(|p| f.rel.starts_with(p)) {
                continue;
            }
            for (i, code) in f.code.iter().enumerate() {
                if let Some((pat, why)) = PATTERNS.iter().find(|(p, _)| code.contains(p)) {
                    diags.emit(self.name(), &f.rel, i + 1, format!("`{pat}`: {why}"));
                }
            }
        }
        // Alias-aware pass: `use std::time::Instant as Clock; Clock::now()`
        // evades the textual patterns; resolve bindings through the use
        // table (including one level of workspace re-exports).
        let m = &ws.model;
        for (fi, fm) in m.files.iter().enumerate() {
            if EXEMPT_PREFIXES.iter().any(|p| fm.rel.starts_with(p)) {
                continue;
            }
            let aliased: Vec<(String, &'static str)> = fm
                .items
                .uses
                .iter()
                .filter_map(|u| {
                    let resolved = m.resolve_use(fi, &u.binding)?;
                    let why = forbidden_clock_path(&resolved)?;
                    // Only the *aliased* form needs this pass — the direct
                    // name is already caught textually above.
                    (!resolved.ends_with(&u.binding)).then(|| (u.binding.clone(), why))
                })
                .collect();
            if aliased.is_empty() {
                continue;
            }
            for t in &fm.items.toks {
                if let Some((_, why)) =
                    aliased.iter().find(|(b, _)| t.is_ident(b))
                {
                    diags.emit(
                        self.name(),
                        &fm.rel,
                        t.line,
                        format!("aliased import of a forbidden source: {why}"),
                    );
                }
            }
        }
    }
}

/// Why a resolved import path is forbidden, if it is.
fn forbidden_clock_path(path: &str) -> Option<&'static str> {
    if path.ends_with("time::Instant") || path.ends_with("time::SystemTime") {
        Some("wall-clock time; use the simulated clock (recobench_sim::SimClock)")
    } else if path.ends_with("hash_map::RandomState") || path.ends_with("RandomState") {
        Some("env-seeded hashing gives run-dependent iteration order; use BTreeMap or fasthash")
    } else if path.ends_with("thread_rng") || path.ends_with("ThreadRng") {
        Some("env-seeded randomness; use recobench_sim::SimRng with an explicit seed")
    } else {
        None
    }
}
