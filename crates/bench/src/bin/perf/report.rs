//! Turns passes, spans, counter windows and probes into named metrics.
//!
//! End-to-end metrics always come from the untraced pass. Per-layer
//! metrics come from three sources: *counts* (deltas of the public
//! `EngineStats`/`DiskStats` counters around each hand-driven operation;
//! deterministic), *spans* (the traced pass; host time) and *probes*
//! (fixed-input loops; host time). A per-layer metric whose layer did no
//! work on a workload reads 0.

use std::collections::BTreeMap;

use recobench_engine::stats::EngineStats;

use crate::json::Json;
use crate::stats::{fnv1a, hi_percentile, mean, median, peak_rss_mb, FNV_OFFSET};
use crate::trace::{Tracer, KINDS};
use crate::workloads::{OpResult, Pass, Plan};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may move the wrong way before `perf compare` calls it
/// a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median, with an absolute floor below which
    /// differences are noise whatever the share.
    Relative { share: f64, floor: f64 },
    /// Simulated results and failures: any move the wrong way is one.
    Exact,
}

/// One end-to-end metric's contract.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Defined and never zero on all seven workloads, so it can be one of
    /// `BENCHMARK.json`'s `end_to_end` metrics.
    pub every_workload: bool,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    share: f64,
    floor: f64,
    all: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: Bound::Relative { share, floor },
        every_workload: all,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: Bound::Exact,
        every_workload: false,
    }
}

/// The eleven end-to-end metrics, by the names the issue fixed.
pub const END_TO_END: [EndToEnd; 11] = [
    host("setup_s", "s", Better::Lower, 0.10, 0.05, true),
    host("wall_s", "s", Better::Lower, 0.10, 0.0, true),
    host("cpu_s", "s", Better::Lower, 0.10, 0.0, true),
    host("cell_ms_p50", "ms", Better::Lower, 0.10, 0.0, true),
    host("sim_ktxn_per_s", "1/s", Better::Higher, 0.10, 0.0, false),
    host("replay_krec_per_s", "1/s", Better::Higher, 0.10, 0.0, false),
    host("peak_rss_mb", "MB", Better::Lower, 0.05, 0.0, true),
    sim("fail_ratio", "ratio", Better::Lower),
    sim("sim_tpmc", "1/min", Better::Higher),
    sim("sim_recovery_s_mean", "s", Better::Lower),
    sim("sim_lost_txns", "count", Better::Lower),
];

/// One reported number. `value` is `None` where the metric does not apply
/// to the workload; `samples` is how many measurements it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    fn new(name: &str, value: Option<f64>, samples: usize) -> Metric {
        debug_assert!(valid_metric_name(name), "{name}");
        Metric {
            name: name.to_string(),
            value,
            unit: unit_of(name),
            samples,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::opt(self.value)),
            ("unit", Json::str(self.unit)),
            ("n", Json::Num(self.samples as f64)),
        ])
    }
}

/// The unit a metric name promises: end-to-end names by their table,
/// per-layer names by their suffix.
pub fn unit_of(name: &str) -> &'static str {
    if let Some(e) = END_TO_END.iter().find(|e| e.name == name) {
        return e.unit;
    }
    let leaf = name.rsplit('.').next().unwrap_or(name);
    let has = |suffix: &str| leaf.ends_with(suffix) || leaf.contains(&format!("{suffix}_"));
    if leaf.ends_with("_mb_per_s") {
        "MB/s"
    } else if leaf.ends_with("_pct") {
        "%"
    } else if has("_ns") {
        "ns"
    } else if has("_us") {
        "us"
    } else if has("_ms") {
        "ms"
    } else if leaf.ends_with("_ratio")
        || leaf.ends_with("_frac_max")
        || leaf.ends_with("_efficiency")
        || leaf == "write_amp"
    {
        "ratio"
    } else {
        "count"
    }
}

/// `sim_digest`: a hash of every outcome's simulated fields, in list
/// order. A host-only change must leave it identical.
pub fn sim_digest(ops: &[OpResult]) -> String {
    let hash = ops.iter().fold(FNV_OFFSET, |h, op| {
        fnv1a(fnv1a(h, op.facts.repr.as_bytes()), b"\n")
    });
    format!("{hash:016x}")
}

pub fn failed_ops(pass: &Pass) -> usize {
    pass.ops
        .iter()
        .filter(|op| op.facts.failed.is_some())
        .count()
}

/// The eleven end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass, setup_s: &[f64]) -> Vec<Metric> {
    let n = pass.ops.len();
    let host_ms: Vec<f64> = pass.ops.iter().map(|op| op.host_ms).collect();
    let commits: u64 = pass.ops.iter().map(|op| op.facts.commits).sum();
    let recover_s: f64 = pass.ops.iter().map(|op| op.recover_host_s).sum();
    let applied: u64 = pass.ops.iter().map(|op| op.facts.records_applied).sum();
    let tpmc: Vec<f64> = pass.ops.iter().filter_map(|op| op.facts.tpmc).collect();
    let recoveries: Vec<f64> = pass
        .ops
        .iter()
        .flat_map(|op| op.facts.recoveries.iter().copied())
        .collect();
    let lost: u64 = pass.ops.iter().map(|op| op.facts.lost).sum();
    vec![
        Metric::new("setup_s", Some(median(setup_s)), setup_s.len()),
        Metric::new("wall_s", Some(pass.wall_s), 1),
        Metric::new("cpu_s", Some(pass.cpu_s), 1),
        Metric::new("cell_ms_p50", Some(median(&host_ms)), n),
        Metric::new(
            "sim_ktxn_per_s",
            (commits > 0).then(|| commits as f64 / pass.wall_s / 1e3),
            n,
        ),
        Metric::new(
            "replay_krec_per_s",
            (recover_s > 0.0).then(|| applied as f64 / recover_s / 1e3),
            n,
        ),
        Metric::new("peak_rss_mb", Some(peak_rss_mb()), 1),
        Metric::new(
            "fail_ratio",
            Some(failed_ops(pass) as f64 / n.max(1) as f64),
            n,
        ),
        Metric::new("sim_tpmc", mean(&tpmc), tpmc.len()),
        Metric::new("sim_recovery_s_mean", mean(&recoveries), recoveries.len()),
        Metric::new("sim_lost_txns", Some(lost as f64), n),
    ]
}

/// Span names that become per-layer metrics, with the unit suffix that
/// completes the metric's name.
const SPAN_METRICS: [(&str, &str); 18] = [
    ("tpcc.driver.quiesce", "_us"),
    ("tpcc.driver.audit", "_ms"),
    ("tpcc.consistency.check", "_ms"),
    ("engine.recovery.startup", "_ms"),
    ("engine.recovery.recover_datafile", "_ms"),
    ("engine.recovery.recover_until", "_ms"),
    ("faults.injector.inject", "_us"),
    ("core.experiment.template_build", "_ms"),
    ("engine.server.create_database", "_ms"),
    ("tpcc.schema.create_schema", "_ms"),
    ("tpcc.gen.load_database", "_ms"),
    ("engine.backup.cold_backup", "_ms"),
    ("engine.snapshot.capture", "_ms"),
    ("engine.snapshot.boot", "_us"),
    ("oracle.torture.run", "_ms_p50"),
    ("oracle.diff.diff_states", "_ms"),
    ("oracle.model.from_server", "_ms"),
    ("engine.verify.integrity", "_ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric of a traced run, in the order of the issue's
/// layer table.
pub fn per_layer(
    plan: &Plan,
    api: &Pass,
    traced: &Pass,
    t: &Tracer,
    probes: &[(&'static str, f64)],
) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, samples: usize| out.push(Metric::new(name, Some(value), samples));

    // ---- tpcc.driver / tpcc.tx: folded step spans -----------------------
    let steps = t.step_us(None);
    put("tpcc.driver.step_us_p50", median(&steps), steps.len());
    put(
        "tpcc.driver.step_us_hi",
        hi_percentile(&steps).1,
        steps.len(),
    );
    for (kind, name) in KINDS {
        let of_kind = t.step_us(Some(kind));
        put(
            &format!("tpcc.tx.{name}_us"),
            median(&of_kind),
            of_kind.len(),
        );
    }
    // ---- counts: sums over the operations' counter windows --------------
    let windows = t.windows.len();
    let engine =
        |f: fn(&EngineStats) -> u64| t.windows.iter().map(|w| f(&w.engine)).sum::<u64>() as f64;
    let commits = engine(|s| s.commits);
    let mut count = |name: &str, value: f64| put(name, value, windows);
    count(
        "engine.txn.lock_waits_per_kcommit",
        ratio(engine(|s| s.lock_waits) * 1e3, commits),
    );
    count("engine.txn.deadlocks", engine(|s| s.deadlocks));
    count(
        "engine.txn.lock_wait_sim_us_mean",
        ratio(engine(|s| s.lock_wait_micros), engine(|s| s.lock_grants)),
    );
    let redo_bytes = engine(|s| s.redo_bytes);
    count("engine.redo.bytes_per_commit", ratio(redo_bytes, commits));
    count(
        "engine.redo.records_per_commit",
        ratio(engine(|s| s.redo_records), commits),
    );
    count("engine.redo.log_flushes", engine(|s| s.log_flushes));
    count("engine.redo.log_switches", engine(|s| s.log_switches));
    count(
        "engine.redo.switch_stall_sim_us",
        engine(|s| s.switch_stall_micros),
    );
    count("engine.checkpoint.full", engine(|s| s.full_checkpoints));
    count(
        "engine.checkpoint.incremental",
        engine(|s| s.incremental_advances),
    );
    count(
        "engine.checkpoint.blocks_written_per_commit",
        ratio(engine(|s| s.blocks_written), commits),
    );
    count(
        "engine.archiver.archives_created",
        engine(|s| s.archives_created),
    );
    let disks = |f: fn(&recobench_sim::DiskStats) -> u64| {
        t.windows.iter().flat_map(|w| &w.disks).map(f).sum::<u64>() as f64
    };
    count("vfs.fs.writes", disks(|d| d.writes));
    count("vfs.fs.reads", disks(|d| d.reads));
    // Disk bytes per redo byte; recovery-only windows generate no client
    // redo to relate their writes to.
    count(
        "vfs.fs.write_amp",
        if commits == 0.0 {
            0.0
        } else {
            ratio(disks(|d| d.bytes_written), redo_bytes)
        },
    );
    let busy: Vec<f64> = t.windows.iter().map(|w| w.busy_frac_max()).collect();
    count("sim.disk.busy_frac_max", mean(&busy).unwrap_or(0.0));
    let applied = engine(|s| s.recovery_records_applied);
    let skipped = engine(|s| s.recovery_records_skipped);
    count("engine.recovery.records_applied", applied);
    count("engine.recovery.records_skipped", skipped);
    count(
        "engine.recovery.useful_ratio",
        ratio(applied, applied + skipped),
    );
    count(
        "engine.recovery.archives_processed",
        engine(|s| s.recovery_archives_processed),
    );
    count(
        "engine.verify.blocks_checksummed",
        t.blocks_checksummed as f64,
    );

    // ---- spans: the median duration of the spans with that name ---------
    for (name, suffix) in SPAN_METRICS {
        let ms = t.durations_ms(name);
        let scale = if suffix.starts_with("_us") { 1e3 } else { 1.0 };
        put(&format!("{name}{suffix}"), median(&ms) * scale, ms.len());
    }
    // A phase can end several times in one recovery (scan and apply run
    // once per log sequence), so a recovery's phase time is the sum of that
    // phase's spans under its procedure span; the metric is the median
    // over recoveries.
    for phase in [
        "instance_startup",
        "media_restore",
        "redo_scan",
        "redo_apply",
        "txn_rollback",
    ] {
        let name = format!("engine.recovery.phase.{phase}");
        let mut per_recovery: BTreeMap<Option<u32>, f64> = BTreeMap::new();
        for s in t.spans().iter().filter(|s| s.name == name) {
            *per_recovery.entry(s.parent).or_default() += s.duration_ns() as f64 / 1e6;
        }
        let ms: Vec<f64> = per_recovery.into_values().collect();
        put(&format!("{name}_ms"), median(&ms), ms.len());
    }

    // ---- core.campaign: the pool, seen from outside ----------------------
    // Thread-milliseconds the pool had, against those its cells used; the
    // rest is spawn, the idle tail of the last cells, join and report
    // assembly.
    let cell_ms: Vec<f64> = match plan {
        Plan::Cells(_) => api.ops.iter().map(|op| op.host_ms).collect(),
        _ => Vec::new(),
    };
    let (used, had) = (
        cell_ms.iter().sum::<f64>(),
        api.workers as f64 * api.wall_s * 1e3,
    );
    put(
        "core.campaign.cell_ms_hi",
        hi_percentile(&cell_ms).1,
        cell_ms.len(),
    );
    put(
        "core.campaign.overhead_ms",
        if cell_ms.is_empty() { 0.0 } else { had - used },
        cell_ms.len(),
    );
    put(
        "core.campaign.par_efficiency",
        if cell_ms.is_empty() {
            0.0
        } else {
            ratio(used, had)
        },
        cell_ms.len(),
    );

    for (name, value) in probes {
        put(name, *value, 3);
    }
    // Both passes ran the same operations; what the traced one cost beyond
    // the untraced one is the price of tracing.
    let (plain, with_spans): (f64, f64) = (
        api.ops.iter().map(|op| op.host_ms).sum(),
        traced.ops.iter().map(|op| op.host_ms).sum(),
    );
    put(
        "perf.trace.overhead_pct",
        ratio((with_spans - plain) * 100.0, plain),
        api.ops.len(),
    );
    out
}

/// Whether `name` fits the charset every metric name is held to.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_stay_inside_the_charset() {
        for name in [
            "engine.recovery.phase.redo_apply_ms",
            "sim_ktxn_per_s",
            "perf.trace.overhead_pct",
            "a-b.c_9",
        ] {
            assert!(valid_metric_name(name), "{name}");
        }
        for name in [
            "",
            "wall s",
            "cpu/s",
            "tpmC%",
            ".hidden",
            "p50(ms)",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(name), "{name:?}");
        }
        assert!(END_TO_END.iter().all(|e| valid_metric_name(e.name)));
    }

    #[test]
    fn units_follow_the_name() {
        assert_eq!(unit_of("tpcc.driver.step_us_p50"), "us");
        assert_eq!(unit_of("engine.index.bulk_load_ns_per_key"), "ns");
        assert_eq!(unit_of("engine.txn.lock_wait_sim_us_mean"), "us");
        assert_eq!(unit_of("oracle.torture.run_ms_p50"), "ms");
        assert_eq!(unit_of("engine.codec.crc32_mb_per_s"), "MB/s");
        assert_eq!(unit_of("perf.trace.overhead_pct"), "%");
        assert_eq!(unit_of("engine.recovery.useful_ratio"), "ratio");
        assert_eq!(unit_of("vfs.fs.write_amp"), "ratio");
        assert_eq!(unit_of("engine.txn.lock_waits_per_kcommit"), "count");
        assert_eq!(unit_of("engine.verify.blocks_checksummed"), "count");
        assert_eq!(
            unit_of("engine.checkpoint.blocks_written_per_commit"),
            "count"
        );
        assert_eq!(unit_of("peak_rss_mb"), "MB");
    }

    #[test]
    fn digest_depends_on_every_outcome_and_their_order() {
        let op = |repr: &str| OpResult {
            host_ms: 1.0,
            cpu_s: 0.0,
            recover_host_s: 0.0,
            facts: crate::workloads::Facts {
                repr: repr.into(),
                ..Default::default()
            },
        };
        let ab = sim_digest(&[op("a"), op("b")]);
        assert_eq!(ab, sim_digest(&[op("a"), op("b")]));
        assert_ne!(ab, sim_digest(&[op("b"), op("a")]));
        assert_ne!(ab, sim_digest(&[op("ab")]));
        assert_eq!(ab.len(), 16);
    }
}
