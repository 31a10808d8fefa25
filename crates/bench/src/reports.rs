//! The reports: every table and figure of `results/`, regenerated from
//! one campaign.
//!
//! A [`Report`] lists its experiments in table order and hands back what
//! renders its text from their outcomes, in the same order; it neither
//! runs anything nor knows who else wants the same cells.
//! [`render_reports`] pushes the cells of any number of reports into one
//! [`CampaignSpec`] — an experiment equal to one already pushed is that
//! cell, so the paper's repeats run once, and setup templates and warm
//! stages (DESIGN.md §9) are shared across tables — runs it, and renders
//! each report. `recobench <report>` is that with one report, `recobench
//! paper` with all of [`REPORTS`].

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use recobench_core::campaign::run_indexed;
use recobench_core::report::{bar, breakdown_table, Table};
use recobench_core::rig::set_up;
use recobench_core::{
    Campaign, CampaignReport, Experiment, ExperimentOutcome, RecoveryConfig, Rig,
};
use recobench_engine::{DbServer, DiskLayout, FailoverPolicy, ReplicaTopology};
use recobench_faults::{
    FaultClass, FaultInjector, FaultPlan, FaultSchedule, FaultType, OperatorFaultType,
    ReplicaFaultType, Sabotage, ScheduledFault, TortureFaultKind,
};
use recobench_oracle::{TortureOptions, TortureRunner};
use recobench_sim::{SimClock, SimDuration};
use recobench_tpcc::{AvailabilityTimeline, DriverConfig, TpccScale};

/// The three flags every report reads: how big, how parallel, which seed.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// `--quick`: shrunk durations and configuration sets, seconds instead
    /// of minutes; paper-faithful runs are the default.
    pub quick: bool,
    /// `--threads N`: worker threads (0, the default: one per core).
    pub threads: usize,
    /// `--seed N`: base seed (default 42).
    pub seed: u64,
}

impl Opts {
    /// Experiment duration in seconds: the paper's 1 200, or 300 in quick
    /// mode.
    pub fn duration(&self) -> u64 {
        if self.quick {
            300
        } else {
            1_200
        }
    }

    /// The fault trigger offsets: the paper's 150/300/600 s, or a single
    /// early trigger in quick mode.
    pub fn triggers(&self) -> Vec<u64> {
        self.pick(&[100], &[150, 300, 600])
    }

    /// A single trigger instant: `full` normally, 100 s in quick mode.
    pub fn single_trigger(&self, full: u64) -> u64 {
        if self.quick {
            100
        } else {
            full
        }
    }

    /// `n` seeds spread out from the base seed — one (the base) in quick
    /// mode.
    pub fn seeds(&self, n: usize) -> Vec<u64> {
        let n = if self.quick { 1 } else { n as u64 };
        (0..n).map(|i| self.seed + 101 * i).collect()
    }

    /// Picks the quick or the full variant of any option set.
    pub fn pick<T: Clone>(&self, quick: &[T], full: &[T]) -> Vec<T> {
        if self.quick {
            quick.to_vec()
        } else {
            full.to_vec()
        }
    }

    /// The archive-mode configuration subset (paper §5.2), possibly
    /// shrunk.
    pub fn archive_configs(&self) -> Vec<RecoveryConfig> {
        if self.quick {
            named_configs(&["F40G3T10", "F1G3T1"])
        } else {
            RecoveryConfig::archive_subset()
        }
    }

    /// All sixteen Table 3 configurations, or the named subset in quick
    /// mode.
    pub fn table3_or(&self, quick_names: &[&str]) -> Vec<RecoveryConfig> {
        if self.quick {
            named_configs(quick_names)
        } else {
            RecoveryConfig::table3()
        }
    }

    /// A fault-free experiment at full duration on `config`.
    pub fn baseline(&self, config: &RecoveryConfig, archive: bool) -> Experiment {
        Experiment::builder(config.clone())
            .archive_logs(archive)
            .duration_secs(self.duration())
            .seed(self.seed)
            .build()
    }

    /// A faulted experiment truncated `tail` seconds after its trigger
    /// (recovery completes well within the tail; the full 20 minutes add
    /// nothing to the measures).
    pub fn fault_run(
        &self,
        config: &RecoveryConfig,
        fault: FaultType,
        trigger: u64,
        tail: u64,
    ) -> Experiment {
        Experiment::builder(config.clone())
            .archive_logs(true)
            .duration_secs((trigger + tail).min(self.duration() + trigger))
            .fault(fault, trigger)
            .seed(self.seed)
            .build()
    }

    /// Starts collecting a campaign under these options.
    pub fn campaign(&self) -> CampaignSpec {
        CampaignSpec { threads: self.threads, experiments: Vec::new(), planned: 0 }
    }
}

/// Looks up configurations by their paper names, panicking on a typo.
pub fn named_configs(names: &[&str]) -> Vec<RecoveryConfig> {
    names
        .iter()
        .map(|n| RecoveryConfig::named(n).unwrap_or_else(|| panic!("unknown configuration {n}")))
        .collect()
}

/// The distinct experiments a command wants run, executed as a single
/// parallel [`Campaign`] with progress on stderr.
#[derive(Debug)]
pub struct CampaignSpec {
    threads: usize,
    experiments: Vec<Experiment>,
    planned: usize,
}

impl CampaignSpec {
    /// Plans one experiment and returns the index its outcome will have:
    /// a new one, or that of an equal experiment planned before.
    pub fn push(&mut self, experiment: Experiment) -> usize {
        self.planned += 1;
        self.experiments.iter().position(|have| *have == experiment).unwrap_or_else(|| {
            self.experiments.push(experiment);
            self.experiments.len() - 1
        })
    }

    /// Experiments planned so far, repeats included.
    pub fn planned(&self) -> usize {
        self.planned
    }

    /// Distinct experiments planned so far: the cells that will run.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether nothing has been planned.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Distinct set-ups among the cells: the templates their campaign has
    /// to build, once each.
    pub fn setups(&self) -> usize {
        self.experiments.iter().map(Experiment::template_key).collect::<BTreeSet<_>>().len()
    }

    /// Runs the campaign; results come back in index order.
    pub fn run(self) -> CampaignReport {
        Campaign::new(self.experiments)
            .threads(self.threads)
            .on_progress(|p| {
                eprint!("\r  {}/{} experiments", p.completed, p.total);
                if p.completed == p.total {
                    eprintln!();
                }
            })
            .run()
    }
}

/// What a campaign shared, as one line. CI greps it: a campaign that stops
/// sharing changes no result and must not pass quietly.
pub fn sharing_line(report: &CampaignReport) -> String {
    format!(
        "campaign: templates built {}, template hits {}, prefixes built {}, prefix hits {}",
        report.templates_built(),
        report.template_hits(),
        report.prefixes_built(),
        report.prefix_hits()
    )
}

/// Renders a report's text from the outcomes of its experiments, in the
/// order it listed them.
pub type Render = Box<dyn FnOnce(&[&ExperimentOutcome]) -> String>;

/// One regenerated table or figure: `results/<name>.txt`.
pub struct Report {
    /// The subcommand, and the file stem under `results/`.
    pub name: &'static str,
    plan: fn(&Opts) -> (Vec<Experiment>, Render),
}

/// Every report of `results/`, in the order `paper` plans them.
pub const REPORTS: [Report; 13] = [
    Report { name: "table2_faults", plan: table2_faults },
    Report { name: "table3_configs", plan: table3_configs },
    Report { name: "calibrate", plan: calibrate },
    Report { name: "fig4_perf_recovery", plan: fig4_perf_recovery },
    Report { name: "fig5_archive_perf", plan: fig5_archive_perf },
    Report { name: "fig6_standby", plan: fig6_standby },
    Report { name: "fig6_topologies", plan: fig6_topologies },
    Report { name: "fig7_lost_txns", plan: fig7_lost_txns },
    Report { name: "table4_incomplete", plan: table4_incomplete },
    Report { name: "table5_complete", plan: table5_complete },
    Report { name: "recovery_breakdown", plan: recovery_breakdown },
    Report { name: "ablation_layout", plan: ablation_layout },
    Report { name: "ext_double_faults", plan: ext_double_faults },
];

/// What [`render_reports`] produced.
pub struct Rendered {
    /// Each report's text, in the order the reports were given.
    pub texts: Vec<String>,
    /// What was planned, what ran and what was shared. A function of the
    /// reports and of `--quick` and `--seed` only: no host time, no thread
    /// count.
    pub log: String,
}

/// Plans `reports` into one campaign, runs it and renders each of them.
pub fn render_reports(reports: &[Report], opts: &Opts) -> Rendered {
    let mut spec = opts.campaign();
    let mut plans = Table::new(vec!["report", "cells", "already planned"]).title(format!(
        "recobench paper{} --seed {}",
        if opts.quick { " --quick" } else { "" },
        opts.seed
    ));
    let mut renders = Vec::new();
    for report in reports {
        let (cells, render) = (report.plan)(opts);
        let distinct = spec.len();
        let indices: Vec<usize> = cells.into_iter().map(|cell| spec.push(cell)).collect();
        let repeats = indices.len() - (spec.len() - distinct);
        plans.row(vec![report.name.into(), indices.len().to_string(), repeats.to_string()]);
        renders.push((indices, render));
    }
    let planned = format!(
        "cells planned {}, cells run {}, distinct set-ups {}",
        spec.planned(),
        spec.len(),
        spec.setups()
    );
    let campaign = spec.run();
    let log = format!("{}{planned}\n{}\n", plans.render(), sharing_line(&campaign));
    let outcomes = campaign.expect_all();
    let texts = renders
        .into_iter()
        .map(|(indices, render)| render(&indices.iter().map(|&i| &outcomes[i]).collect::<Vec<_>>()))
        .collect();
    Rendered { texts, log }
}

/// `recobench paper`: every report as `dir/<name>.txt`, and `campaign.log`.
///
/// # Errors
///
/// `dir` cannot be created or written.
pub fn write_paper(opts: &Opts, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let Rendered { texts, log } = render_reports(&REPORTS, opts);
    for (report, text) in REPORTS.iter().zip(texts) {
        std::fs::write(dir.join(format!("{}.txt", report.name)), text)?;
    }
    std::fs::write(dir.join("campaign.log"), log)
}

/// **Table 2** of the paper: the concrete operator fault types for the
/// (simulated) Oracle-8i-class DBMS, with their class and portability
/// rating, plus which of the six injected types represents each in the
/// experiments.
fn table2_faults(_: &Opts) -> (Vec<Experiment>, Render) {
    let mut table =
        Table::new(vec!["Class", "Type of operator fault", "Other DBMS", "Injected as"])
            .title("Table 2 — concrete types of DBMS operator faults");
    for class in FaultClass::all() {
        for t in OperatorFaultType::all().into_iter().filter(|t| t.class() == class) {
            table.row(vec![
                class.to_string(),
                t.description().to_string(),
                t.portability().to_string(),
                t.representative().map_or("-".to_string(), |f| f.to_string()),
            ]);
        }
    }
    let mut summary = Table::new(vec!["Injected fault type", "Class", "Recovery kind"])
        .title("The six injected fault types (paper section 4)");
    for f in FaultType::all() {
        summary.row(vec![f.to_string(), f.class().to_string(), format!("{:?}", f.recovery_kind())]);
    }
    let text = format!("{}\n{}\n", table.render(), summary.render());
    (Vec::new(), Box::new(move |_| text))
}

/// **Table 3** of the paper: the sixteen recovery configurations and the
/// *measured* number of log-switch checkpoints per 20-minute experiment
/// (an emergent quantity — it falls out of the redo generation rate and
/// the log-switch stall feedback, not a formula).
fn table3_configs(opts: &Opts) -> (Vec<Experiment>, Render) {
    let opts = *opts;
    let configs = opts.table3_or(&["F400G3T20", "F100G3T10", "F40G3T10", "F10G3T5", "F1G3T1"]);
    let cells = configs.iter().map(|c| opts.baseline(c, false)).collect();
    let render = move |results: &[&ExperimentOutcome]| {
        let scale = 1_200.0 / opts.duration() as f64; // quick runs extrapolate
        let mut table = Table::new(vec![
            "Config.",
            "File Size",
            "Redo Log Groups",
            "Checkpoint Timeout",
            "# CKPT (measured)",
            "# CKPT (paper)",
        ])
        .title("Table 3 — recovery configurations and checkpoints per 20-min experiment");
        for (c, o) in configs.iter().zip(results) {
            table.row(vec![
                c.name.clone(),
                format!("{} MB", c.redo_file_mb),
                c.redo_groups.to_string(),
                format!("{} sec.", c.checkpoint_timeout_secs),
                format!("{:.0}", o.measures.log_switches as f64 * scale),
                c.paper_checkpoints().map_or("-".into(), |v| v.to_string()),
            ]);
        }
        let mut text = table.render() + "\n";
        if opts.quick {
            let _ = writeln!(
                text,
                "(quick mode: measured counts extrapolated from {} s runs)",
                opts.duration()
            );
        }
        text + "Note: the paper counts log-switch checkpoints; its F400 rows read 1 where a\n\
                full 400 MB log never fills (we report the raw switch count).\n"
    };
    (cells, Box::new(render))
}

/// Calibration probe: Table 3's fault-free experiments again, printing the
/// emergent quantities (tpmC, redo rate, log switches) next to the
/// paper's references, so the cost-model constants can be tuned.
fn calibrate(opts: &Opts) -> (Vec<Experiment>, Render) {
    let secs = opts.duration() as f64;
    let configs = opts.table3_or(&["F400G3T20", "F40G3T10", "F1G3T1"]);
    let cells = configs.iter().map(|c| opts.baseline(c, false)).collect();
    let render = move |results: &[&ExperimentOutcome]| {
        let mut table = Table::new(vec![
            "Config",
            "tpmC",
            "redo MB",
            "redo MB/s",
            "switches",
            "paper #CKPT",
            "commits",
            "errors",
        ])
        .title("Calibration: fault-free runs (archive off)");
        for (config, o) in configs.iter().zip(results) {
            let m = &o.measures;
            table.row(vec![
                o.config_name.clone(),
                format!("{:.0}", m.tpmc),
                format!("{:.1}", m.redo_mb),
                format!("{:.3}", m.redo_mb / secs),
                format!("{}", m.log_switches),
                config.paper_checkpoints().map_or("-".into(), |v| v.to_string()),
                format!("{}", m.total_commits),
                format!("{}", m.client_errors),
            ]);
        }
        table.render() + "\n"
    };
    (cells, Box::new(render))
}

/// **Figure 4** of the paper: for every Table 3 configuration (basic
/// recovery mechanism — online redo logs only, no archiving), the
/// baseline tpmC and the recovery time after a `SHUTDOWN ABORT` injected
/// 150, 300 and 600 s into the run.
///
/// Expected shape (paper §5.1): only the high-checkpoint-rate (1 MB)
/// configurations pay a visible tpmC cost; recovery time falls from the
/// mid-thirties of seconds to the low teens as checkpoints get more
/// frequent, and a short checkpoint *timeout* buys short recovery even
/// with big log files (F400G3T1).
fn fig4_perf_recovery(opts: &Opts) -> (Vec<Experiment>, Render) {
    let configs = opts.table3_or(&["F400G3T20", "F40G3T10", "F1G3T1"]);
    let triggers = opts.triggers();

    // Baseline throughput runs plus one crash per trigger instant.
    // Crash recovery completes within a couple of minutes, so the fault
    // runs are truncated shortly after the trigger (the measures are
    // complete by then); baselines run the full 20 minutes.
    let mut cells = Vec::new();
    for c in &configs {
        cells.push(opts.baseline(c, false));
        for &t in &triggers {
            // Figure 4 studies the *basic* mechanism, so archive mode is
            // off — not the `fault_run` default.
            cells.push(
                Experiment::builder(c.clone())
                    .archive_logs(false)
                    .duration_secs((t + 240).min(opts.duration() + t))
                    .fault(FaultType::ShutdownAbort, t)
                    .seed(opts.seed)
                    .build(),
            );
        }
    }
    let render = move |results: &[&ExperimentOutcome]| {
        let mut header = vec!["Config".to_string(), "tpmC".to_string()];
        for t in &triggers {
            header.push(format!("rec@{t}s"));
        }
        header.push("tpmC bar".to_string());
        header.push("recovery bar (600s)".to_string());
        let mut table = Table::new(header)
            .title("Figure 4 — performance and recovery time (shutdown abort, online redo only)");

        // Per configuration: the baseline, then one crash per trigger.
        let rows: Vec<_> = results.chunks(1 + triggers.len()).collect();
        let max_tpmc = rows.iter().map(|row| row[0].measures.tpmc).fold(1.0, f64::max);
        for (c, row) in configs.iter().zip(&rows) {
            let (perf, recs) = (row[0], &row[1..]);
            let mut line = vec![c.name.clone(), format!("{:.0}", perf.measures.tpmc)];
            for (r, &t) in recs.iter().zip(&triggers) {
                line.push(r.measures.recovery_cell(240 + t));
            }
            let last_rt = recs.last().and_then(|r| r.measures.recovery_time_secs).unwrap_or(0.0);
            line.push(bar(perf.measures.tpmc, max_tpmc, 24));
            line.push(bar(last_rt, 60.0, 24));
            table.row(line);
        }
        let crashes = || rows.iter().flat_map(|row| &row[1..]).map(|r| &r.measures);
        format!(
            "{}\nAll shutdown-abort runs: lost transactions = {}, integrity violations = {}\n",
            table.render(),
            crashes().map(|m| m.lost_transactions).sum::<u64>(),
            crashes().map(|m| m.integrity_violations).sum::<u64>(),
        )
    };
    (cells, Box::new(render))
}

/// **Figure 5** of the paper: baseline tpmC with and without the
/// archive-log mechanism, for the configurations that actually start
/// archiving within one experiment (F40G3T10 … F1G2T1).
///
/// Expected shape (paper §5.2): a *moderate* performance impact — "the
/// archive log option must always be activated".
fn fig5_archive_perf(opts: &Opts) -> (Vec<Experiment>, Render) {
    let configs = opts.archive_configs();
    let cells =
        configs.iter().flat_map(|c| [opts.baseline(c, false), opts.baseline(c, true)]).collect();
    let render = move |results: &[&ExperimentOutcome]| {
        let mut table = Table::new(vec![
            "Config",
            "tpmC (no archive)",
            "tpmC (archive)",
            "impact %",
            "archive bar",
        ])
        .title("Figure 5 — performance with and without archive logs");
        let max_tpmc = results.chunks(2).map(|pair| pair[0].measures.tpmc).fold(1.0, f64::max);
        for (c, pair) in configs.iter().zip(results.chunks(2)) {
            let (off, on) = (pair[0].measures.tpmc, pair[1].measures.tpmc);
            table.row(vec![
                c.name.clone(),
                format!("{off:.0}"),
                format!("{on:.0}"),
                format!("{:.1}", 100.0 * (off - on) / off.max(1.0)),
                bar(on, max_tpmc, 24),
            ]);
        }
        table.render() + "\n"
    };
    (cells, Box::new(render))
}

/// **Figure 6** of the paper: performance and recovery time with the
/// archive-log mechanism alone versus a stand-by database.
///
/// Lines (tpmC): archive-only versus archive + stand-by shipping — both a
/// moderate cost ("performance penalty is not an excuse").
/// Bars (recovery): stand-by activation after a fault at 600 s is
/// near-constant and much shorter than single-datafile media recovery of
/// the same fault at the same instant.
fn fig6_standby(opts: &Opts) -> (Vec<Experiment>, Render) {
    let configs = opts.archive_configs();
    let trigger = opts.single_trigger(600);
    let tail = 420;

    let mut cells = Vec::new();
    for c in &configs {
        let standby =
            Experiment::builder(c.clone()).archive_logs(true).topology(ReplicaTopology::single());
        // tpmC lines: archive only, then archive + stand-by.
        cells.push(opts.baseline(c, true));
        cells.push(standby.clone().duration_secs(opts.duration()).seed(opts.seed).build());
        // Recovery bars: delete datafile at 600 s — archive media recovery
        // versus stand-by fail-over.
        cells.push(opts.fault_run(c, FaultType::DeleteDatafile, trigger, tail));
        cells.push(
            standby
                .duration_secs(trigger + tail)
                .fault(FaultType::DeleteDatafile, trigger)
                .seed(opts.seed)
                .build(),
        );
    }
    let render = move |results: &[&ExperimentOutcome]| {
        let mut table = Table::new(vec![
            "Config",
            "tpmC archive",
            "tpmC stand-by",
            format!("rec@{trigger}s archive").as_str(),
            format!("rec@{trigger}s stand-by").as_str(),
            "stand-by bar",
        ])
        .title("Figure 6 — performance and recovery time with archive logs and stand-by database");
        for (c, chunk) in configs.iter().zip(results.chunks(4)) {
            let (perf_arch, perf_sb, rec_arch, rec_sb) = (chunk[0], chunk[1], chunk[2], chunk[3]);
            table.row(vec![
                c.name.clone(),
                format!("{:.0}", perf_arch.measures.tpmc),
                format!("{:.0}", perf_sb.measures.tpmc),
                rec_arch.measures.recovery_cell(tail),
                rec_sb.measures.recovery_cell(tail),
                bar(rec_sb.measures.recovery_time_secs.unwrap_or(0.0), 200.0, 24),
            ]);
        }
        table.render()
            + "\nStand-by recovery time is near-constant across configurations and fault types.\n"
    };
    (cells, Box::new(render))
}

/// Extension: Figure 6's stand-by generalized to the replica-set matrix
/// the paper could not measure — recovery and availability per topology
/// (single stand-by, two-node fan-out, two-deep cascade) and failover
/// policy (manual, auto-quorum, auto-with-fencing), plus the double fault
/// that kills the freshly promoted node too.
///
/// Every cell runs the same contended 8-terminal TPC-C workload and kills
/// the primary at the same instant, so the availability integral
/// (fraction of seconds with at least one commit), the RTO and the lost
/// transactions isolate what the topology and the policy each buy. The
/// last line replays the double fault under the differential oracle,
/// which is not an [`Experiment`], so it runs while rendering.
fn fig6_topologies(opts: &Opts) -> (Vec<Experiment>, Render) {
    let config = RecoveryConfig::named("F10G3T5").expect("known configuration");
    let seed = opts.seed;
    let trigger = opts.single_trigger(120);
    let second = trigger + 60;
    let duration = second + 180;
    let driver = DriverConfig { terminals: 8, ..DriverConfig::default() };
    // Topology, policy, and whether the promoted node is killed too.
    let matrix = [
        (ReplicaTopology::single(), FailoverPolicy::Manual, false),
        (ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum, false),
        (ReplicaTopology::fan_out(2), FailoverPolicy::AutoWithFencing, false),
        (ReplicaTopology::fan_out(2), FailoverPolicy::AutoQuorum, true),
        (ReplicaTopology::cascade(2), FailoverPolicy::AutoQuorum, false),
    ];
    let cells = matrix
        .iter()
        .map(|(topology, policy, double_fault)| {
            let cell = Experiment::builder(config.clone())
                .archive_logs(true)
                .topology(topology.clone())
                .failover_policy(*policy)
                .driver(driver)
                .duration_secs(duration)
                .fault(FaultType::ShutdownAbort, trigger)
                .seed(seed);
            if *double_fault { cell.second_fault_secs(second) } else { cell }.build()
        })
        .collect();
    let render = move |results: &[&ExperimentOutcome]| {
        let mut table = Table::new(vec![
            "Topology",
            "Policy",
            "Faults",
            "Failovers",
            "RTO (s)",
            "Availability",
            "Lost txns",
            "tpmC",
        ])
        .title("Figure 6ext — replica topologies and failover policies under primary kill");
        for ((_, _, double_fault), o) in matrix.iter().zip(results) {
            table.row(vec![
                o.topology.clone(),
                o.policy.clone(),
                if *double_fault { "kill+kill".into() } else { "kill".into() },
                o.failovers.to_string(),
                o.measures.recovery_time_secs.map_or("—".to_string(), |s| format!("{s:.1}")),
                format!("{:.1}%", availability_integral(&o.timeline) * 100.0),
                o.measures.lost_transactions.to_string(),
                format!("{:.0}", o.measures.tpmc),
            ]);
        }
        // The same double fault under the torture harness, diffed against
        // the reference model after every failover.
        let kill = |kind, at_secs| ScheduledFault { kind: TortureFaultKind::Replica(kind), at_secs };
        let oracle = TortureRunner::new(TortureOptions {
            config,
            driver,
            topology: ReplicaTopology::fan_out(2),
            policy: FailoverPolicy::AutoQuorum,
            ..TortureOptions::default()
        })
        .run(&FaultSchedule {
            seed,
            duration_secs: duration,
            faults: vec![
                kill(ReplicaFaultType::KillPrimary, trigger),
                kill(ReplicaFaultType::KillPromoted, second),
            ],
        })
        .expect("oracle setup");
        format!(
            "{}\nOracle double-fault gate: failovers={} divergences={} lost_commits={} commits={}\n",
            table.render(),
            oracle.failovers,
            oracle.divergences.len(),
            oracle.lost_commits,
            oracle.commits,
        )
    };
    (cells, Box::new(render))
}

/// Fraction of the run's seconds with at least one committed transaction.
fn availability_integral(tl: &AvailabilityTimeline) -> f64 {
    if tl.buckets.is_empty() {
        return 0.0;
    }
    let up = tl.buckets.len() as u64 - tl.zero_seconds();
    up as f64 / tl.buckets.len() as f64
}

/// **Figure 7** of the paper: committed transactions lost on stand-by
/// fail-over, as a function of the online redo log file size and the
/// number of groups.
///
/// The stand-by can only apply redo that was *archived*; whatever sits in
/// the primary's current (unfinished) online group at the moment of the
/// crash never ships. The loss therefore equals the current group's fill
/// level — a quantity that is uniform over `[0, file size)` depending on
/// where the crash lands in the switch cycle. A single deterministic run
/// samples one phase point, and seeds alone barely move it (per-seed
/// throughput varies ~1 %, so `total redo mod file size` clusters), so
/// each seed also staggers the crash instant by 17 s to walk the switch
/// cycle; the paper's trend — losses grow with the redo file size, and
/// only weakly with the group count — is a statement about that average.
fn fig7_lost_txns(opts: &Opts) -> (Vec<Experiment>, Render) {
    let sizes: Vec<u64> = opts.pick(&[1, 10], &[1, 10, 40]);
    let groups: Vec<u32> = opts.pick(&[3], &[2, 3, 6]);
    let trigger = opts.single_trigger(600);
    let seeds = opts.seeds(5);

    let mut configs = Vec::new();
    for &f in &sizes {
        for &g in &groups {
            configs.push(RecoveryConfig::new(f, g, 60));
        }
    }
    let mut cells = Vec::new();
    for c in &configs {
        for (k, &seed) in seeds.iter().enumerate() {
            // Stagger the crash across the switch cycle (~85 s for 40 MB
            // files at the calibrated redo rate) so the fill phase is
            // genuinely sampled rather than aliased to one point.
            let at = trigger + 17 * k as u64;
            cells.push(
                Experiment::builder(c.clone())
                    .archive_logs(true)
                    .topology(ReplicaTopology::single())
                    .duration_secs(at + 240)
                    .fault(FaultType::ShutdownAbort, at)
                    .seed(seed)
                    .build(),
            );
        }
    }
    let render = move |results: &[&ExperimentOutcome]| {
        // Per configuration: mean, min and max loss, mean recovery time.
        let mut rows = Vec::new();
        for chunk in results.chunks(seeds.len()) {
            let losts: Vec<u64> = chunk.iter().map(|o| o.measures.lost_transactions).collect();
            let recovery = chunk.iter().filter_map(|o| o.measures.recovery_time_secs).sum::<f64>()
                / seeds.len() as f64;
            let mean = losts.iter().sum::<u64>() as f64 / losts.len() as f64;
            let (min, max) = (*losts.iter().min().unwrap(), *losts.iter().max().unwrap());
            rows.push((mean, min, max, recovery));
        }
        let max_mean = rows.iter().map(|r| r.0).fold(1.0_f64, f64::max);
        let mut table = Table::new(vec![
            "File size",
            "Groups",
            "Lost txns (mean)",
            "min..max",
            "Recovery (s)",
            "lost bar",
        ])
        .title(format!(
            "Figure 7 — lost transactions in the stand-by database ({} seeds per cell)",
            seeds.len()
        ));
        for (c, (mean, min, max, recovery)) in configs.iter().zip(rows) {
            table.row(vec![
                format!("{} MB", c.redo_file_mb),
                c.redo_groups.to_string(),
                format!("{mean:.0}"),
                format!("{min}..{max}"),
                format!("{recovery:.0}"),
                bar(mean, max_mean, 24),
            ]);
        }
        table.render() + "\n"
    };
    (cells, Box::new(render))
}

/// **Table 4** of the paper: recovery time for the operator faults that
/// cause *incomplete* recovery — "delete user's object" and "delete
/// tablespace". These recover by restoring the whole database from the
/// cold backup and rolling forward to just before the fault, so:
///
/// * time grows with the injection instant (more redo to re-apply);
/// * small archive files add a large per-file overhead — the 1 MB
///   configurations exceed the remaining experiment window at the 600 s
///   injection (the paper's "> 600" cells);
/// * a small number of committed transactions is lost (the stop point
///   sits a moment before the fault), but integrity is never violated.
///
/// Incomplete recovery can run long, so these cells keep the full
/// experiment duration rather than a truncated tail.
fn table4_incomplete(opts: &Opts) -> (Vec<Experiment>, Render) {
    let faults = [FaultType::DeleteUsersObject, FaultType::DeleteTablespace];
    let title = "Table 4 — recovery time (s) for faults with incomplete recovery";
    recovery_table(opts, title, &faults, None, "")
}

/// **Table 5** of the paper: recovery time for the operator faults with
/// *complete* recovery (no committed work lost). Expected shape (paper
/// §5.2):
///
/// * **shutdown abort** — tens of seconds, decreasing with checkpoint
///   frequency, nearly independent of the injection instant;
/// * **delete datafile** — restore one file + filtered redo apply: grows
///   with injection instant, and small archive files cost a per-file
///   overhead (the 1 MB rows are the slowest at 600 s);
/// * **set datafile offline** — a few seconds, checkpoint dependent;
/// * **set tablespace offline** — "always close to 1 second".
///
/// These all recover well within a few hundred seconds; the cells are
/// truncated after the recovery window instead of the full 20 minutes.
fn table5_complete(opts: &Opts) -> (Vec<Experiment>, Render) {
    let faults = [
        FaultType::ShutdownAbort,
        FaultType::DeleteDatafile,
        FaultType::SetDatafileOffline,
        FaultType::SetTablespaceOffline,
    ];
    let title = "Table 5 — recovery time (s) for faults with complete recovery";
    let note = "Complete recovery: every lost-txns cell above should read 0.\n";
    recovery_table(opts, title, &faults, Some(420), note)
}

/// Tables 4 and 5: recovery time per fault, archive-mode configuration and
/// injection instant. Cells are cut `window` seconds after their trigger,
/// or keep the full experiment duration.
fn recovery_table(
    opts: &Opts,
    title: &'static str,
    faults: &[FaultType],
    window: Option<u64>,
    note: &'static str,
) -> (Vec<Experiment>, Render) {
    let configs = opts.archive_configs();
    let triggers = opts.triggers();
    let duration = opts.duration();
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for &f in faults {
        for c in &configs {
            rows.push(vec![f.to_string(), c.name.clone()]);
            for &t in &triggers {
                cells.push(opts.fault_run(c, f, t, window.unwrap_or(duration - t)));
            }
        }
    }
    let render = move |results: &[&ExperimentOutcome]| {
        let mut header = vec!["Fault".to_string(), "Configuration".to_string()];
        for t in &triggers {
            header.push(format!("Injection {t} Sec"));
        }
        header.push("lost txns".to_string());
        header.push("integrity".to_string());
        let mut table = Table::new(header).title(title);
        for (mut row, chunk) in rows.into_iter().zip(results.chunks(triggers.len())) {
            for (o, &t) in chunk.iter().zip(&triggers) {
                row.push(o.measures.recovery_cell(window.unwrap_or(duration - t)));
            }
            row.push(chunk.iter().map(|o| o.measures.lost_transactions).sum::<u64>().to_string());
            row.push(
                chunk.iter().map(|o| o.measures.integrity_violations).sum::<u64>().to_string(),
            );
            table.row(row);
        }
        table.render() + "\n" + note
    };
    (cells, Box::new(render))
}

/// Extension: Table 5's recovery times decomposed by engine phase — where
/// do the seconds go: detection, instance restart, media restore, redo
/// scan, redo apply, rollback, stand-by activation, or waiting for the
/// first commit again? The paper reports one number per cell; the phases
/// explain it (1 MB logs recover a crash fast but a 600 s media recovery
/// slowly: the time moves from redo apply into the redo scan, which pays
/// a per-file overhead for each of hundreds of small archives).
///
/// Its cells are Table 5's and, for the activation phase, Figure 6's
/// stand-by fail-over on the first archive configuration, so beside them
/// it runs nothing.
fn recovery_breakdown(opts: &Opts) -> (Vec<Experiment>, Render) {
    let (mut cells, _) = table5_complete(opts);
    // Figure 6 plans four cells per configuration; the fourth fails over.
    cells.push(fig6_standby(opts).0.swap_remove(3));
    let render = |results: &[&ExperimentOutcome]| {
        let rows: Vec<_> = results
            .iter()
            .filter_map(|o| {
                let (fault, at) = (o.fault?, o.trigger_secs?);
                let standby = if o.standby { " +standby" } else { "" };
                Some((format!("{fault} @{at}s {}{standby}", o.config_name), o.breakdown?))
            })
            .collect();
        breakdown_table("Recovery time decomposed by phase (seconds)", &rows).render()
            + "\nEach row's phases sum to that cell's recovery time in Table 5 (Figure 6 for the\n\
               stand-by row).\n"
    };
    (cells, Box::new(render))
}

/// Ablation: the "incorrect distribution of files through disks" operator
/// fault class (paper Table 2, storage administration) as a standing
/// misconfiguration.
///
/// The paper's testbed spreads data, redo, and archive/backup over four
/// disks. This ablation re-runs the baseline with everything on one
/// spindle: log flushes now seek against data reads and checkpoint
/// writes, which costs throughput — and recovery gets slower too, because
/// restore and redo-apply compete with themselves.
fn ablation_layout(opts: &Opts) -> (Vec<Experiment>, Render) {
    let configs = named_configs(&opts.pick(&["F10G3T5"], &["F40G3T10", "F10G3T5", "F1G3T1"]));
    let duration = if opts.quick { 240 } else { 600 };
    let trigger = duration / 2;

    let mut cells = Vec::new();
    for c in &configs {
        for layout in [DiskLayout::four_disk(), DiskLayout::single_disk()] {
            let cell = Experiment::builder(c.clone())
                .duration_secs(duration)
                .layout(layout)
                .seed(opts.seed);
            cells.push(cell.clone().build());
            cells.push(cell.fault(FaultType::ShutdownAbort, trigger).build());
        }
    }
    let render = move |results: &[&ExperimentOutcome]| {
        let mut table = Table::new(vec![
            "Config",
            "tpmC 4-disk",
            "tpmC 1-disk",
            "tpmC loss %",
            "recovery 4-disk (s)",
            "recovery 1-disk (s)",
        ])
        .title("Ablation — correct vs. collapsed disk layout");
        for (c, chunk) in configs.iter().zip(results.chunks(4)) {
            let (perf4, rec4, perf1, rec1) = (chunk[0], chunk[1], chunk[2], chunk[3]);
            let loss =
                100.0 * (perf4.measures.tpmc - perf1.measures.tpmc) / perf4.measures.tpmc.max(1.0);
            table.row(vec![
                c.name.clone(),
                format!("{:.0}", perf4.measures.tpmc),
                format!("{:.0}", perf1.measures.tpmc),
                format!("{loss:.1}"),
                rec4.measures.recovery_cell(duration - trigger),
                rec1.measures.recovery_cell(duration - trigger),
            ]);
        }
        table.render()
            + "\nA bad file layout is a *latent* operator fault: it costs performance every\n\
               day and recovery time on the worst day.\n"
    };
    (cells, Box::new(render))
}

/// Extension experiment: the paper's §4 footnote made runnable.
///
/// The paper excluded the "recovery mechanisms administration" fault class
/// because those mistakes only become visible after a *second* fault
/// forces a recovery. This report runs that two-fault matrix: sabotage
/// the recovery apparatus (delete archives, discard backups), keep the
/// workload running, then inject each of the ordinary faults — and report
/// which combinations leave the database unrecoverable. Its cells are not
/// [`Experiment`]s (nothing is measured after the recovery attempt), so
/// it plans none and runs its matrix while rendering.
fn ext_double_faults(opts: &Opts) -> (Vec<Experiment>, Render) {
    let Opts { threads, seed, .. } = *opts;
    let faults = [
        FaultType::ShutdownAbort,
        FaultType::DeleteDatafile,
        FaultType::SetDatafileOffline,
        FaultType::DeleteUsersObject,
    ];
    let render = move |_: &[&ExperimentOutcome]| {
        // Every cell boots its own server from one prepared image, so the
        // matrix parallelizes without coupling cells.
        let prepared = prepared_server(seed).snapshot();
        let rows = run_indexed(Sabotage::all().len() * faults.len(), threads, |i| {
            let (sabotage, fault) = (Sabotage::all()[i / faults.len()], faults[i % faults.len()]);
            let mut srv = DbServer::from_snapshot(SimClock::shared(), &prepared);
            sabotage.perform(&mut srv).expect("archives and backups can be deleted");
            let injector = FaultInjector::new(FaultPlan::new(fault, 0));
            let record = injector.inject(&mut srv).expect("injection is valid");
            // The recovery failing is the first fault becoming visible.
            let (recovered, error) = match injector.recover(&mut srv, &record) {
                Ok(_) => ("yes", "-".to_string()),
                Err(e) => ("NO", e.to_string()),
            };
            vec![sabotage.to_string(), fault.to_string(), recovered.to_string(), error]
        });
        let mut table = Table::new(vec![
            "First fault (silent)",
            "Second fault",
            "Recovered?",
            "Recovery error",
        ])
        .title("Extension — recovery-mechanism faults exposed by a second fault (F10G3T5)");
        for row in rows {
            table.row(row);
        }
        table.render()
            + "\nShutdown abort always survives (crash recovery needs only the online logs);\n\
               everything that needs the backup or the archived redo does not. A sabotage\n\
               is a latent outage: invisible until the day it matters.\n"
    };
    (Vec::new(), Box::new(render))
}

/// A loaded F10G3T5 server after 180 s of fault-free workload, so several
/// archives exist before the sabotage.
fn prepared_server(seed: u64) -> DbServer {
    let cfg = RecoveryConfig::named("F10G3T5").unwrap().to_instance_config(true);
    let (srv, schema) = set_up(
        "DOUBLE",
        SimClock::shared(),
        DiskLayout::four_disk(),
        cfg,
        TpccScale::mini(),
        seed,
        |_| {},
    )
    .expect("setup on fresh disks");
    let mut rig = Rig::assemble(
        srv,
        schema,
        &ReplicaTopology::none(),
        FailoverPolicy::Manual,
        DriverConfig::default(),
        seed,
        SimDuration::from_secs(180),
    )
    .expect("no stand-bys to instantiate");
    rig.run(|_| Ok(false)).expect("nothing ships without stand-bys");
    rig.primary
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: Opts = Opts { quick: false, threads: 1, seed: 42 };

    /// Incomplete recovery keeps the paper's 1 200-s experiment: a cell
    /// that runs longer would time a recovery the table caps at
    /// `duration - t` anyway, and print it instead of `>600`.
    #[test]
    fn table4_cells_are_the_whole_experiment() {
        let (cells, _) = table4_incomplete(&FULL);
        let mut want = Vec::new();
        for f in [FaultType::DeleteUsersObject, FaultType::DeleteTablespace] {
            for c in FULL.archive_configs() {
                for t in FULL.triggers() {
                    want.push(
                        Experiment::builder(c.clone())
                            .archive_logs(true)
                            .duration_secs(FULL.duration())
                            .fault(f, t)
                            .seed(FULL.seed)
                            .build(),
                    );
                }
            }
        }
        assert_eq!(cells.len(), 48);
        assert!(cells == want, "Table 4 cells differ from the 1 200-s experiment");
    }

    #[test]
    fn recovery_breakdown_plans_no_cell_of_its_own() {
        for (opts, planned) in [(FULL, 97), (Opts { quick: true, ..FULL }, 9)] {
            let mut spec = opts.campaign();
            for plan in [table5_complete, fig6_standby] {
                for cell in plan(&opts).0 {
                    spec.push(cell);
                }
            }
            let distinct = spec.len();
            let (cells, _) = recovery_breakdown(&opts);
            assert_eq!(cells.len(), planned);
            for cell in cells {
                spec.push(cell);
            }
            assert_eq!(spec.len(), distinct, "quick: {}", opts.quick);
        }
    }
}
