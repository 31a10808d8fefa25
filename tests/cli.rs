//! The `recobench` binary from outside: what `paper` writes against what
//! each report prints alone, the tracked `results/` set against the
//! reports there are, and the exit code of a refused command line.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

use recobench::bench::reports::REPORTS;

fn recobench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_recobench")).args(args).output().expect("recobench starts")
}

/// File names under `dir`, without the extension `ext`; other files are
/// skipped.
fn stems(dir: &Path, ext: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == ext))
        .map(|path| path.file_stem().expect("has an extension").to_string_lossy().into_owned())
        .collect()
}

/// De-duplicated cells and set-ups and warm stages shared across reports
/// change no byte: every file of the one-campaign run is what its report
/// prints from a campaign of its own.
#[test]
fn paper_quick_writes_what_each_report_prints_alone() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper-quick");
    let _ = std::fs::remove_dir_all(&dir);
    let paper = recobench(&["paper", "--quick", "--out", dir.to_str().expect("utf-8 path")]);
    assert!(paper.status.success(), "{}", String::from_utf8_lossy(&paper.stderr));
    assert!(paper.stdout.is_empty(), "paper writes files, not stdout");

    let names: BTreeSet<String> = REPORTS.iter().map(|r| r.name.to_string()).collect();
    assert_eq!(stems(&dir, "txt"), names, "one file per report");
    for name in &names {
        let alone = recobench(&[name, "--quick"]);
        assert!(alone.status.success(), "{name}: {}", String::from_utf8_lossy(&alone.stderr));
        assert!(!alone.stdout.is_empty(), "{name} prints its text");
        let written = std::fs::read(dir.join(format!("{name}.txt"))).expect("written by paper");
        assert!(
            written == alone.stdout,
            "{name}: paper wrote\n{}\nbut alone it prints\n{}",
            String::from_utf8_lossy(&written),
            String::from_utf8_lossy(&alone.stdout)
        );
    }

    let log = std::fs::read_to_string(dir.join("campaign.log")).expect("written by paper");
    assert!(log.contains("cells planned 58, cells run 37, distinct set-ups 10"), "{log}");
    assert!(log.contains("campaign: templates built 10, "), "each set-up built once:\n{log}");
}

/// A report cannot be added without a tracked output, nor the reverse.
#[test]
fn the_reports_are_exactly_the_tracked_results() {
    let tracked = stems(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results")), "txt");
    let names: BTreeSet<String> = REPORTS.iter().map(|r| r.name.to_string()).collect();
    assert_eq!(names, tracked);
    assert_eq!(names.len(), REPORTS.len(), "report names are distinct");
}

#[test]
fn a_report_alone_prints_its_tracked_file() {
    // The one report that runs no experiment; the others take minutes
    // (`recobench paper --out results` regenerates them all).
    let out = recobench(&["table2_faults"]);
    assert!(out.status.success());
    let tracked = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/results/table2_faults.txt"));
    assert!(out.stdout == tracked.expect("tracked"), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn a_refused_command_line_exits_2_and_runs_nothing() {
    for line in [
        &["frobnicate"][..],
        &[],
        &["table4_incomplete", "--sabotage", "3"],
        &["torture", "--faultload", "bogus"],
        &["recovery_breakdown", "--smoke"],
        // A report prints; `--out` belongs to `paper` and `torture`.
        &["recovery_breakdown", "--out", "x.json"],
        &["fig6_topologies", "--out", "x.json"],
        &["paper", "--threads"],
    ] {
        let out = recobench(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{line:?} printed something");
        assert!(stderr.starts_with("error: "), "{line:?}: {stderr}");
        if line.len() < 2 {
            assert!(stderr.contains("paper") && stderr.contains("torture"), "the list: {stderr}");
        }
    }
}
