//! Golden experiment outcomes: a fixed matrix of cells whose complete
//! `ExperimentOutcome` — measures, breakdown, timeline and the captured
//! JSONL event stream — is pinned by digest in `tests/golden/outcomes.txt`.
//!
//! The matrix crosses the paper's six fault types with the three ways a
//! fault is answered (recover in place; fail over to the single manual
//! stand-by; fail over under quorum, lose the promoted node too, fail over
//! again) and adds the two edges: no fault at all, and a fault the
//! configuration cannot recover from.

mod golden;

use recobench::core::{Campaign, Experiment, ExperimentBuilder, ExperimentOutcome, RecoveryConfig};
use recobench::engine::{FailoverPolicy, ReplicaTopology};
use recobench::faults::FaultType;
use recobench::tpcc::TpccScale;

fn cell(config: &str) -> ExperimentBuilder {
    Experiment::builder(RecoveryConfig::named(config).expect("known configuration"))
        .duration_secs(480)
        .scale(TpccScale::tiny())
        .seed(7)
        .capture_events(true)
}

fn matrix() -> Vec<(String, ExperimentBuilder)> {
    let mut cells: Vec<(String, ExperimentBuilder)> = Vec::new();
    for fault in FaultType::all() {
        let faulted = || cell("F10G3T5").fault(fault, 120);
        cells.push((format!("{fault:?}/none"), faulted()));
        cells.push((
            format!("{fault:?}/single-manual"),
            faulted().topology(ReplicaTopology::single()).failover_policy(FailoverPolicy::Manual),
        ));
        cells.push((
            format!("{fault:?}/fanout2-quorum-double"),
            faulted()
                .topology(ReplicaTopology::fan_out(2))
                .failover_policy(FailoverPolicy::AutoQuorum)
                .second_fault_secs(300),
        ));
    }
    cells.push(("fault-free".to_string(), cell("F10G3T5")));
    cells.push((
        "noarchivelog-unrecoverable".to_string(),
        cell("F1G3T1").archive_logs(false).fault(FaultType::DeleteDatafile, 120),
    ));
    cells
}

fn golden_line(label: &str, out: &ExperimentOutcome) -> String {
    if label == "noarchivelog-unrecoverable" {
        assert!(out.unrecoverable, "{label}: the redo needed is long overwritten");
    }
    golden::line(label, out)
}

#[test]
fn outcomes_match_the_golden_file() {
    let lines: Vec<String> = matrix()
        .into_iter()
        .map(|(label, builder)| {
            let out = builder.run().unwrap_or_else(|e| panic!("{label}: setup failed: {e}"));
            golden_line(&label, &out)
        })
        .collect();
    golden::check("outcomes.txt", &lines);
}

/// The same matrix through one `Campaign`: however its cells share setup
/// templates and fault-free prefixes, and on however many workers, every
/// cell must come out as the lone `run()` the golden file pins.
#[test]
fn a_campaign_yields_the_same_golden_lines() {
    for threads in [1, 3] {
        let (labels, cells): (Vec<String>, Vec<Experiment>) =
            matrix().into_iter().map(|(label, builder)| (label, builder.build())).unzip();
        let report = Campaign::new(cells).threads(threads).run();
        let lines: Vec<String> = labels
            .iter()
            .zip(report.results())
            .map(|(label, result)| match result {
                Ok(out) => golden_line(label, out),
                Err(e) => panic!("{label}: setup failed: {e}"),
            })
            .collect();
        golden::check("outcomes.txt", &lines);
    }
}
