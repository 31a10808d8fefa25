//! End-to-end tests over the seeded fixture tree: every violation is
//! reported at its exact `file:line`, each lint is proven live by at
//! least one fixture finding, justified waivers suppress, stale waivers
//! are themselves findings, and the real repository tree is clean (the
//! CI contract).

use std::path::Path;

use recobench_tidy::{lints, run, Workspace};

fn fixture_ws() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations");
    Workspace::load(&root).expect("fixture tree loads")
}

#[test]
fn fixtures_produce_exact_diagnostics() {
    let ws = fixture_ws();
    let diags = run(&ws);
    let got: Vec<(&str, usize, &str)> =
        diags.iter().map(|d| (d.file.as_str(), d.line, d.lint)).collect();
    let want: Vec<(&str, usize, &str)> = vec![
        // Reached transitively: startup (recovery.rs) → decode_header.
        ("crates/engine/src/codec.rs", 15, "panic-freedom"),
        // Fixed-size tables: a mask wider than the table, a literal past
        // its end, a mask that `^` escapes, an arbitrary index.
        ("crates/engine/src/page.rs", 14, "panic-freedom"),
        ("crates/engine/src/page.rs", 15, "panic-freedom"),
        ("crates/engine/src/page.rs", 16, "panic-freedom"),
        ("crates/engine/src/page.rs", 17, "panic-freedom"),
        ("crates/engine/src/recovery.rs", 14, "panic-freedom"),
        ("crates/engine/src/recovery.rs", 19, "panic-freedom"),
        ("crates/engine/src/recovery.rs", 21, "panic-freedom"),
        ("crates/engine/src/recovery.rs", 40, "sabotage-isolation"),
        ("crates/engine/src/recovery.rs", 48, "unused-allow"),
        // Below a string literal that quotes `#[cfg(test)]`: the quote
        // gates nothing, so the fn stays on the recovery path.
        ("crates/engine/src/redo.rs", 11, "panic-freedom"),
        ("crates/engine/src/redo.rs", 13, "panic-freedom"),
        // Same line, two lints: an unsanctioned write on a session path
        // (the path starts in session.rs) that the crash sweep also does
        // not cover.
        ("crates/engine/src/server.rs", 45, "lock-discipline"),
        ("crates/engine/src/server.rs", 45, "write-site-coverage"),
        // A read error turned into an empty value.
        ("crates/engine/src/server.rs", 53, "error-swallow"),
        // `impl DbServer` in a second file: the chokepoint, the declared
        // order and the swallowed errors are found there all the same.
        ("crates/engine/src/session.rs", 13, "lock-discipline"),
        ("crates/engine/src/session.rs", 14, "lock-discipline"),
        ("crates/engine/src/session.rs", 17, "error-swallow"),
        ("crates/engine/src/session.rs", 18, "error-swallow"),
        // A block image changed outside the applier: through a typed
        // binding, through an untyped closure parameter named `img`, and
        // a row detached the way only the end of a replay pass may; then an
        // index entry added through an untyped loop binding named `ix` and
        // through an element of an untyped set named `indexes`.
        ("crates/engine/src/standby.rs", 16, "lock-discipline"),
        ("crates/engine/src/standby.rs", 20, "lock-discipline"),
        ("crates/engine/src/standby.rs", 24, "lock-discipline"),
        ("crates/engine/src/standby.rs", 35, "lock-discipline"),
        ("crates/engine/src/standby.rs", 41, "lock-discipline"),
        // Stale manifest entries anchor on the manifest itself.
        ("crates/oracle/tests/write_site_coverage.json", 0, "write-site-coverage"),
    ];
    assert_eq!(
        got,
        want,
        "full diagnostics:\n{}",
        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    // The registry is exactly these five lints, and each fires above.
    let names: Vec<&str> = lints::all().iter().map(|l| l.name()).collect();
    assert_eq!(
        names,
        [
            "panic-freedom",
            "error-swallow",
            "lock-discipline",
            "write-site-coverage",
            "sabotage-isolation"
        ]
    );
    assert!(names.iter().all(|n| want.iter().any(|w| w.2 == *n)));
}

#[test]
fn messages_name_the_offending_construct() {
    let diags = run(&fixture_ws());
    let msg = |file: &str, line: usize| {
        diags
            .iter()
            .find(|d| d.file == file && d.line == line)
            .unwrap_or_else(|| panic!("no diagnostic at {file}:{line}"))
            .message
            .clone()
    };
    // Panic-freedom findings carry the call path from the entry point.
    assert!(msg("crates/engine/src/recovery.rs", 14).contains("unguarded `[]`"));
    assert!(msg("crates/engine/src/recovery.rs", 14).contains("via startup"));
    assert!(msg("crates/engine/src/recovery.rs", 19).contains(".unwrap()"));
    assert!(msg("crates/engine/src/recovery.rs", 19).contains("startup → redo_apply"));
    assert!(msg("crates/engine/src/recovery.rs", 21).contains("panic!"));
    assert!(msg("crates/engine/src/codec.rs", 15).contains("startup → decode_header"));
    assert!(msg("crates/engine/src/redo.rs", 11).contains("`.unwrap()`"));
    assert!(msg("crates/engine/src/redo.rs", 11).contains("startup → replay_tail"));
    assert!(msg("crates/engine/src/redo.rs", 13).contains("`panic!`"));
    // A waiver that suppresses nothing is itself a finding.
    assert!(msg("crates/engine/src/recovery.rs", 48).contains("suppresses nothing"));
    // Lock discipline names the rule that broke.
    assert!(msg("crates/engine/src/session.rs", 13).contains("outside the `lock_for_dml` chokepoint"));
    assert!(msg("crates/engine/src/session.rs", 14).contains("appends WAL before acquiring row locks"));
    assert!(msg("crates/engine/src/standby.rs", 16).contains("`BlockImage::put` called outside the applier"));
    assert!(msg("crates/engine/src/standby.rs", 20).contains("`BlockImage::remove` called outside the applier"));
    assert!(msg("crates/engine/src/standby.rs", 24).contains("`BlockImage::detach` called outside the applier"));
    assert!(msg("crates/engine/src/standby.rs", 35).contains("`Index::insert` called outside the applier"));
    assert!(msg("crates/engine/src/standby.rs", 41).contains("`Index::insert` called outside the applier"));
    let rule3: Vec<_> = diags
        .iter()
        .filter(|d| d.file == "crates/engine/src/server.rs" && d.line == 45)
        .collect();
    assert!(rule3.iter().any(|d| {
        d.lint == "lock-discipline"
            && d.message.contains("DbServer::insert → DbServer::stash_block")
    }));
    assert!(rule3
        .iter()
        .any(|d| d.lint == "write-site-coverage" && d.message.contains("UPDATE_WRITE_SITES=1")));
    // Error swallowing names the discarded fallible callee.
    assert!(msg("crates/engine/src/session.rs", 17).contains("DbServer::append_record"));
    assert!(msg("crates/engine/src/session.rs", 18).contains("`.ok();`"));
    assert!(msg("crates/engine/src/server.rs", 53).contains("`.unwrap_or_default()`"));
    assert!(msg("crates/engine/src/server.rs", 53).contains("DbServer::scan"));
    // The stale manifest entry points at the regeneration command.
    assert!(msg("crates/oracle/tests/write_site_coverage.json", 0)
        .contains("server.rs:999 matches no current write site"));
}

#[test]
fn waivers_suppress_and_exemptions_hold() {
    let diags = run(&fixture_ws());
    let silent = |file: &str, line: usize| {
        assert!(
            !diags.iter().any(|d| d.file == file && d.line == line),
            "expected no diagnostic at {file}:{line}"
        );
    };
    // recovery.rs:32 carries `.expect(` under a justified waiver on the
    // line above; codec.rs:10 an `.unwrap()` under a same-line waiver;
    // both stay silent.
    silent("crates/engine/src/recovery.rs", 32);
    silent("crates/engine/src/codec.rs", 10);
    // `buf[i % buf.len()]` is guarded by construction (recovery.rs:27).
    silent("crates/engine/src/recovery.rs", 27);
    // Literal and literal-masked indexes below a `static`/`const`
    // table's declared length are bounded by construction (page.rs:11–13).
    silent("crates/engine/src/page.rs", 11);
    silent("crates/engine/src/page.rs", 12);
    silent("crates/engine/src/page.rs", 13);
    // dead_code_helper's unwrap (recovery.rs:36) is unreachable from any
    // tidy-entry fn — the lint is reachability-based, not textual.
    silent("crates/engine/src/recovery.rs", 36);
    // The gated sabotage call (recovery.rs:45) and the test-module
    // unwrap (recovery.rs:55) are out of scope by design.
    silent("crates/engine/src/recovery.rs", 45);
    silent("crates/engine/src/recovery.rs", 55);
    // A waiver quoted in a raw string (redo.rs:19) is no waiver, so it is
    // not reported as a stale one.
    silent("crates/engine/src/redo.rs", 19);
    // flush_redo (server.rs:41) is a sanctioned writer AND its write
    // site is covered by the sweep manifest: silent on both lints.
    silent("crates/engine/src/server.rs", 41);
    // A fallible call in final-expression position is the fn's return
    // value, not a swallowed error (session.rs:19).
    silent("crates/engine/src/session.rs", 19);
}

#[test]
fn static_write_site_enumeration_matches_the_fixture() {
    let ws = fixture_ws();
    let (sites, unresolved) = recobench_tidy::lints::write_site_coverage::engine_write_sites(&ws);
    let got: Vec<(&str, usize, &str, &str)> = sites
        .iter()
        .map(|s| (s.file.as_str(), s.line, s.method.as_str(), s.in_fn.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/engine/src/server.rs", 41, "append", "DbServer::flush_redo"),
            ("crates/engine/src/server.rs", 45, "write_block", "DbServer::stash_block"),
        ]
    );
    assert!(unresolved.is_empty(), "unresolved receivers: {unresolved:?}");
}

#[test]
fn shipped_tree_is_clean() {
    // The repo root is two levels above this crate's manifest dir.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("repo tree loads");
    let diags = run(&ws);
    assert!(
        diags.is_empty(),
        "shipped tree must be tidy-clean:\n{}",
        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}
