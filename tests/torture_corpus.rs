//! Regression corpus replay: every schedule under `tests/corpus/` runs
//! against the healthy engine on every `cargo test`.
//!
//! The corpus holds minimized fault schedules that once exposed (or were
//! crafted to stress) engine/oracle disagreements — most were harvested
//! with the sabotage self-test (`torture --sabotage N`) and shrunk to one
//! or two faults. On a healthy engine each must replay with zero
//! divergences and a recoverable database; when the torture sweep finds a
//! new divergence, its minimized JSON artifact belongs here once fixed.
//!
//! Each replay's complete `TortureOutcome` is also pinned by digest in
//! `tests/golden/corpus.txt` (see `tests/golden/mod.rs`).

mod golden;

use recobench::faults::FaultSchedule;
use recobench::oracle::TortureRunner;

#[test]
fn corpus_schedules_replay_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "the corpus must not be silently empty: {paths:?}");

    let runner = TortureRunner::default();
    let mut digests = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable schedule");
        let schedule = FaultSchedule::from_json(text.trim())
            .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", path.display()));
        assert_eq!(
            format!("{}\n", schedule.to_json()),
            text,
            "{}: corpus files are stored in canonical JSON",
            path.display()
        );
        let outcome = runner
            .run(&schedule)
            .unwrap_or_else(|e| panic!("{}: setup failed: {e}", path.display()));
        assert!(
            !outcome.unrecoverable,
            "{}: database must recover; faults: {:?}",
            path.display(),
            outcome.faults
        );
        assert!(
            !outcome.diverged(),
            "{}: healthy engine diverged from the model: {:?}",
            path.display(),
            outcome.divergences
        );
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 corpus file name");
        digests.push(golden::line(name, &outcome));
    }
    golden::check("corpus.txt", &digests);
}
