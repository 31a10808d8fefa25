//! `recobench recovery_breakdown`: the paper's recovery-time cells
//! (Figure 4 / Table 5) by engine phase. Where do the seconds go —
//! detection, instance restart, media restore, redo scan, redo apply,
//! rollback, stand-by activation, or waiting for the first transaction to
//! commit again?
//!
//! The paper reports a single number per cell; the phase breakdown is the
//! observability extension that explains it (why 1 MB logs recover a
//! crash fast but a 600 s media recovery slowly: the time moves from
//! redo apply into per-archive restore overhead).
//!
//! Modes: default — Table 5's four complete-recovery faults across the
//! archive configurations at one trigger per paper instant; `--quick` —
//! two faults x two configurations for CI. Writes `BENCH_breakdown.json`
//! (override with `--out`) plus, next to it, the full engine event
//! stream of the first cell as JSONL.

use std::fmt::Write as _;
use std::process::ExitCode;

use recobench_core::report::breakdown_table;
use recobench_core::{Experiment, ExperimentOutcome, RecoveryBreakdown};
use recobench_engine::ReplicaTopology;
use recobench_faults::FaultType;
use recobench_tpcc::TpccScale;

use crate::cli::{Args, CmdResult};
use crate::reports::sharing_line;

struct Cell {
    fault: FaultType,
    config: String,
    trigger: u64,
    standby: bool,
}

/// The subcommand.
///
/// # Errors
///
/// A refused command line, or an artifact that cannot be written.
pub fn run(mut args: Args) -> CmdResult {
    let opts = args.opts()?;
    let out_path = args.value("--out")?.unwrap_or_else(|| "BENCH_breakdown.json".to_string());
    args.finish()?;
    let quick = opts.quick;
    // The artifact's `mode` keeps the name tidy's schema knows (smoke/mini/full).
    let mode = if quick { "smoke" } else { "full" };
    let events_path = out_path.replace(".json", "_events.jsonl");

    let faults = [
        FaultType::ShutdownAbort,
        FaultType::DeleteDatafile,
        FaultType::SetDatafileOffline,
        FaultType::SetTablespaceOffline,
    ];
    let faults = if quick { &faults[..2] } else { &faults[..] };
    let configs = opts.archive_configs();
    let triggers: Vec<u64> = if quick { vec![60] } else { opts.triggers() };
    let (tail, scale) = if quick { (240, TpccScale::tiny()) } else { (420, TpccScale::mini()) };

    let mut cells: Vec<Cell> = Vec::new();
    let mut spec = opts.campaign();
    for &f in faults {
        for c in &configs {
            for &t in &triggers {
                let capture = cells.is_empty(); // JSONL sample: first cell only
                spec.push(
                    Experiment::builder(c.clone())
                        .archive_logs(true)
                        .duration_secs(t + tail)
                        .scale(scale)
                        .fault(f, t)
                        .seed(opts.seed)
                        .capture_events(capture)
                        .build(),
                );
                cells.push(Cell { fault: f, config: c.name.clone(), trigger: t, standby: false });
            }
        }
    }
    // One fail-over cell so the stand-by activation phase shows up too.
    let t = triggers[0];
    spec.push(
        Experiment::builder(configs[0].clone())
            .archive_logs(true)
            .topology(ReplicaTopology::single())
            .duration_secs(t + tail)
            .scale(scale)
            .fault(FaultType::ShutdownAbort, t)
            .seed(opts.seed)
            .build(),
    );
    cells.push(Cell {
        fault: FaultType::ShutdownAbort,
        config: configs[0].name.clone(),
        trigger: t,
        standby: true,
    });

    eprintln!("recovery_breakdown: mode={mode} cells={}", cells.len());
    let report = spec.run();
    println!("{}", sharing_line(&report));
    let outcomes = report.expect_all();

    let mut rows: Vec<(String, RecoveryBreakdown)> = Vec::new();
    for (cell, o) in cells.iter().zip(&outcomes) {
        check_sum_identity(cell, o);
        if let Some(b) = o.breakdown {
            rows.push((label(cell), b));
        }
    }
    println!("{}", breakdown_table("Recovery time decomposed by phase (seconds)", &rows).render());

    let json = render_json(mode, &cells, &outcomes);
    let unwritable = |e| format!("cannot write {out_path} or {events_path}: {e}");
    std::fs::write(&out_path, &json).map_err(unwritable)?;
    let sample =
        outcomes.iter().find_map(|o| o.events_jsonl.clone()).expect("first cell captured events");
    std::fs::write(&events_path, &sample).map_err(unwritable)?;
    eprintln!(
        "recovery_breakdown: {} cells -> {out_path}, sample events ({} lines) -> {events_path}",
        cells.len(),
        sample.lines().count()
    );
    Ok(ExitCode::SUCCESS)
}

fn label(cell: &Cell) -> String {
    let sb = if cell.standby { " +standby" } else { "" };
    format!("{} @{}s {}{sb}", cell.fault, cell.trigger, cell.config)
}

/// The breakdown is only trustworthy if it reproduces the headline
/// number: phases must sum to the reported recovery time within one
/// simulator tick (1 µs).
fn check_sum_identity(cell: &Cell, o: &ExperimentOutcome) {
    if let (Some(b), Some(rt)) = (o.breakdown, o.measures.recovery_time_secs) {
        let rt_us = (rt * 1e6).round() as u64;
        assert!(
            b.total_us().abs_diff(rt_us) <= 1,
            "{}: breakdown {}µs != recovery {}µs",
            label(cell),
            b.total_us(),
            rt_us
        );
    }
}

fn render_json(mode: &str, cells: &[Cell], outcomes: &[ExperimentOutcome]) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"mode\": \"{mode}\",\n  \"cells\": [");
    for (i, (cell, o)) in cells.iter().zip(outcomes).enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let rt = o.measures.recovery_time_secs.map_or("null".to_string(), |v| format!("{v:.6}"));
        let _ = write!(
            json,
            "    {{\"fault\": \"{}\", \"config\": \"{}\", \"trigger_secs\": {}, \
             \"standby\": {}, \"recovery_secs\": {rt}",
            cell.fault, cell.config, cell.trigger, cell.standby
        );
        if let Some(b) = o.breakdown {
            let _ = write!(
                json,
                ", \"breakdown_us\": {{\"detection\": {}, \"instance_startup\": {}, \
                 \"media_restore\": {}, \"redo_scan\": {}, \"redo_apply\": {}, \
                 \"txn_rollback\": {}, \"standby_activation\": {}, \"other\": {}, \
                 \"service_resume\": {}, \"total\": {}}}",
                b.detection_us,
                b.instance_startup_us,
                b.media_restore_us,
                b.redo_scan_us,
                b.redo_apply_us,
                b.txn_rollback_us,
                b.standby_activation_us,
                b.other_us,
                b.service_resume_us,
                b.total_us()
            );
        }
        let _ = writeln!(json, "}}{sep}");
    }
    json.push_str("  ]\n}\n");
    json
}
