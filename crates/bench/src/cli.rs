//! The `recobench` command line: one subcommand per report and tool,
//! each parsing the flags it reads and refusing every other.
//!
//! A subcommand takes its flags out of [`Args`] ([`Args::flag`],
//! [`Args::value`]) and then calls [`Args::finish`], which names whatever
//! is left over — a misspelt flag, a bare word, a flag that belongs to
//! another subcommand. Every such error, like an unknown subcommand, a
//! missing value or one that does not parse, is printed and exits 2
//! before anything runs.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use recobench_core::report::Table;
use recobench_core::{Experiment, RecoveryConfig};
use recobench_engine::ReplicaTopology;
use recobench_faults::FaultType;

use crate::reports::{render_reports, write_paper, Opts, REPORTS};
use crate::torture;

/// What a subcommand returns: its exit code, or why the command line was
/// refused (or, from `run` and `paper`, could not be carried out).
pub type CmdResult = Result<ExitCode, String>;

/// A subcommand that is not a report.
struct Tool {
    name: &'static str,
    /// The flags it reads, as the usage text shows them.
    flags: &'static str,
    about: &'static str,
    run: fn(Args) -> CmdResult,
}

const TOOLS: [Tool; 3] = [
    Tool {
        name: "paper",
        flags: "[--quick] [--threads N] [--seed N] [--out DIR]",
        about: "every report from one campaign: DIR/<report>.txt and campaign.log (default \
                target/paper)",
        run: paper,
    },
    Tool {
        name: "torture",
        flags: "[--sabotage N] ([--faultload standard|storage|replica|extended] \
                [--sweep-seconds N | --runs N] [--threads N] [--seed N] [--out PATH] | --replay PATH)",
        about: "random multi-fault schedules against the differential oracle",
        run: torture::run,
    },
    Tool {
        name: "run",
        flags: "[--config NAME] [--fault TYPE] [--at SECS] [--duration SECS] [--seed N] \
                [--no-archive] [--standby]",
        about: "one experiment, its measures as a table",
        run,
    },
];

/// The injectable fault types by their `run --fault` names.
const FAULT_NAMES: [(&str, FaultType); 6] = [
    ("shutdown-abort", FaultType::ShutdownAbort),
    ("delete-datafile", FaultType::DeleteDatafile),
    ("delete-tablespace", FaultType::DeleteTablespace),
    ("datafile-offline", FaultType::SetDatafileOffline),
    ("tablespace-offline", FaultType::SetTablespaceOffline),
    ("drop-table", FaultType::DeleteUsersObject),
];

/// The arguments after the subcommand's name, not yet taken.
#[derive(Debug)]
pub struct Args {
    subcommand: String,
    rest: Vec<String>,
}

impl Args {
    /// Takes the switch `name`; whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|arg| arg != name);
        self.rest.len() < before
    }

    /// Takes `name VALUE` and parses the value; `None` when the flag was
    /// not given, the last one when it was given twice.
    ///
    /// # Errors
    ///
    /// Names the flag whose value is missing or does not parse.
    pub fn value<T>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let mut found = None;
        while let Some(at) = self.rest.iter().position(|arg| arg == name) {
            if at + 1 == self.rest.len() {
                return Err(format!("{name} needs a value"));
            }
            let text = self.rest.remove(at + 1);
            self.rest.remove(at);
            found = Some(text.parse().map_err(|e| format!("{name} '{text}': {e}"))?);
        }
        Ok(found)
    }

    /// Takes the three flags every report reads.
    ///
    /// # Errors
    ///
    /// As [`Args::value`].
    pub fn opts(&mut self) -> Result<Opts, String> {
        Ok(Opts {
            quick: self.flag("--quick"),
            threads: self.value("--threads")?.unwrap_or(0),
            seed: self.value("--seed")?.unwrap_or(42),
        })
    }

    /// Ends the parse.
    ///
    /// # Errors
    ///
    /// Names the first argument no `flag` or `value` call took.
    pub fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(arg) => Err(format!("`{}` takes no '{arg}'", self.subcommand)),
        }
    }
}

/// Runs the command line `args` (without the program name), printing a
/// refusal and mapping it to exit code 2.
pub fn main(args: &[String]) -> ExitCode {
    dispatch(args).unwrap_or_else(|refusal| {
        eprintln!("error: {refusal}");
        ExitCode::from(2)
    })
}

/// Finds the subcommand `args` starts with and runs it on the rest.
///
/// # Errors
///
/// An unknown or missing subcommand, with the list of those there are;
/// otherwise whatever the subcommand refuses.
pub fn dispatch(args: &[String]) -> CmdResult {
    let (name, rest) = args.split_first().ok_or_else(usage)?;
    let mut args = Args { subcommand: name.clone(), rest: rest.to_vec() };
    if let Some(tool) = TOOLS.iter().find(|tool| tool.name == name) {
        return (tool.run)(args);
    }
    let report = REPORTS
        .iter()
        .find(|report| report.name == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'\n{}", usage()))?;
    let opts = args.opts()?;
    args.finish()?;
    print!("{}", render_reports(std::slice::from_ref(report), &opts).texts[0]);
    Ok(ExitCode::SUCCESS)
}

fn usage() -> String {
    let mut text = String::from(
        "usage: recobench <subcommand> [flags]\n\n\
         reports, printed to stdout, each with [--quick] [--threads N] [--seed N]:\n",
    );
    for report in &REPORTS {
        text += &format!("  {}\n", report.name);
    }
    text += "\ntools:\n";
    for Tool { name, flags, about, .. } in &TOOLS {
        text += &format!("  {name} {flags}\n      {about}\n");
    }
    text
}

fn paper(mut args: Args) -> CmdResult {
    let opts = args.opts()?;
    let dir = args.value::<String>("--out")?.unwrap_or_else(|| "target/paper".to_string());
    args.finish()?;
    write_paper(&opts, dir.as_ref()).map_err(|e| format!("cannot write under {dir}: {e}"))?;
    eprintln!("paper: {} reports and campaign.log -> {dir}/", REPORTS.len());
    Ok(ExitCode::SUCCESS)
}

/// One experiment, its measures as a table.
fn run(mut args: Args) -> CmdResult {
    let config = args.value::<String>("--config")?.unwrap_or_else(|| "F40G3T10".to_string());
    let fault = match args.value::<String>("--fault")? {
        None => None,
        Some(name) => Some(
            FAULT_NAMES
                .iter()
                .find(|known| known.0 == name)
                .ok_or_else(|| format!("unknown fault type {name}"))?
                .1,
        ),
    };
    let at: u64 = args.value("--at")?.unwrap_or(300);
    let duration: u64 = args.value("--duration")?.unwrap_or(1_200);
    let seed: u64 = args.value("--seed")?.unwrap_or(42);
    let archive = !args.flag("--no-archive");
    let standby = args.flag("--standby");
    args.finish()?;

    let cfg =
        RecoveryConfig::named(&config).ok_or_else(|| format!("unknown configuration {config}"))?;
    eprintln!("running {config} for {duration} simulated seconds...");
    let topology = if standby { ReplicaTopology::single() } else { ReplicaTopology::none() };
    let mut builder = Experiment::builder(cfg)
        .duration_secs(duration)
        .seed(seed)
        .archive_logs(archive)
        .topology(topology);
    if let Some(f) = fault {
        builder = builder.fault(f, at);
    }
    let out = builder.run().map_err(|e| e.to_string())?;

    let m = &out.measures;
    let mut t =
        Table::new(vec!["Measure", "Value"]).title(format!("Experiment: {}", out.config_name));
    t.row(vec!["tpmC".into(), format!("{:.0}", m.tpmc)]);
    t.row(vec![
        "fault".into(),
        out.fault.map_or("none".into(), |f| format!("{f} at t+{}s", out.trigger_secs.unwrap_or(0))),
    ]);
    t.row(vec!["recovery time (s)".into(), m.recovery_cell(duration.saturating_sub(at))]);
    t.row(vec!["lost transactions".into(), m.lost_transactions.to_string()]);
    t.row(vec!["integrity violations".into(), m.integrity_violations.to_string()]);
    t.row(vec!["log switches".into(), m.log_switches.to_string()]);
    t.row(vec!["redo generated (MB)".into(), format!("{:.1}", m.redo_mb)]);
    t.row(vec!["commits".into(), m.total_commits.to_string()]);
    t.row(vec!["unrecoverable".into(), out.unrecoverable.to_string()]);
    println!("{}", t.render());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn parse(s: &[&str]) -> Args {
        Args { subcommand: "test".to_string(), rest: args(s) }
    }

    #[test]
    fn defaults_are_paper_faithful() {
        let mut none = parse(&[]);
        let opts = none.opts().unwrap();
        none.finish().unwrap();
        assert!(!opts.quick);
        assert_eq!((opts.threads, opts.seed), (0, 42));
        assert_eq!(opts.duration(), 1_200);
        assert_eq!(opts.triggers(), vec![150, 300, 600]);
        assert_eq!(opts.single_trigger(600), 600);
        assert_eq!(opts.seeds(3), vec![42, 143, 244]);
        assert_eq!(opts.archive_configs().len(), 8);
    }

    #[test]
    fn quick_mode_shrinks_everything() {
        let mut given = parse(&["--quick", "--threads", "2", "--seed", "7"]);
        let opts = given.opts().unwrap();
        given.finish().unwrap();
        assert_eq!((opts.threads, opts.seed), (2, 7));
        assert_eq!(opts.duration(), 300);
        assert_eq!(opts.triggers(), vec![100]);
        assert_eq!(opts.single_trigger(600), 100);
        assert_eq!(opts.seeds(5), vec![7]);
        assert_eq!(opts.archive_configs().len(), 2);
        assert_eq!(opts.pick(&[1], &[1, 2, 3]), vec![1]);
        assert_eq!(opts.table3_or(&["F1G3T1"]).len(), 1);
    }

    #[test]
    fn artifact_flags_parse() {
        let mut given = parse(&["--out", "custom.json", "--quick"]);
        assert!(given.opts().unwrap().quick);
        assert_eq!(given.value::<String>("--out").unwrap().as_deref(), Some("custom.json"));
        given.finish().unwrap();
        assert_eq!(parse(&[]).value::<String>("--out").unwrap(), None);
    }

    #[test]
    fn torture_flags_parse() {
        let mut given = parse(&[
            "--sweep-seconds",
            "45",
            "--runs",
            "3",
            "--sabotage",
            "2",
            "--replay",
            "tests/corpus/a.json",
            "--runs",
            "5",
        ]);
        assert_eq!(given.value::<u32>("--sabotage").unwrap(), Some(2));
        assert_eq!(given.value::<usize>("--runs").unwrap(), Some(5), "the last one counts");
        assert_eq!(given.value::<u64>("--sweep-seconds").unwrap(), Some(45));
        assert_eq!(
            given.value::<String>("--replay").unwrap().as_deref(),
            Some("tests/corpus/a.json")
        );
        assert_eq!(given.value::<String>("--faultload").unwrap(), None);
        given.finish().unwrap();
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // `--mini` was documented for years and read by no parser.
        let mut given = parse(&["--quick", "--mini"]);
        given.opts().unwrap();
        let err = given.finish().unwrap_err();
        assert!(err.contains("--mini") && err.contains("test"), "{err}");
        assert!(parse(&["quick"]).finish().is_err(), "a bare word is not a flag");
        // So is what another subcommand reads, before anything runs.
        for line in [
            &["table4_incomplete", "--sabotage", "3"][..],
            &["paper", "--runs", "3"],
            &["torture", "--quick"],
            &["recovery_breakdown", "--smoke"],
            &["run", "--threads", "2"],
        ] {
            let err = dispatch(&args(line)).unwrap_err();
            assert!(err.contains(line[0]) && err.contains(line[1]), "{line:?}: {err}");
        }
        // A replay runs its schedule's own seed, duration and faults.
        let err = dispatch(&args(&["torture", "--replay", "x.json", "--runs", "3"])).unwrap_err();
        assert!(err.contains("torture") && err.contains("--runs"), "{err}");
        // `configs` reprinted a report; the list names the report.
        let err = dispatch(&args(&["configs", "--seed", "1"])).unwrap_err();
        assert!(err.contains("unknown subcommand 'configs'"), "{err}");
        assert!(err.contains("table3_configs"), "{err}");
    }

    #[test]
    fn missing_and_unparsable_values_are_rejected() {
        let err = parse(&["--threads", "two"]).value::<usize>("--threads").unwrap_err();
        assert!(err.contains("--threads") && err.contains("two"), "{err}");
        let err = parse(&["--quick", "--seed"]).value::<u64>("--seed").unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(parse(&["--runs", "-1"]).value::<usize>("--runs").is_err());
        let err = dispatch(&args(&["torture", "--faultload", "bogus"])).unwrap_err();
        assert!(err.contains("bogus") && err.contains("extended"), "{err}");
        let err = dispatch(&args(&["run", "--fault", "meteor"])).unwrap_err();
        assert!(err.contains("meteor"), "{err}");
    }

    #[test]
    fn an_unknown_subcommand_is_rejected_with_the_list() {
        for line in [&["frobnicate"][..], &[], &["--quick"]] {
            let err = dispatch(&args(line)).unwrap_err();
            for name in REPORTS.iter().map(|r| r.name).chain(TOOLS.iter().map(|t| t.name)) {
                assert!(err.contains(name), "{line:?}: {name} missing from\n{err}");
            }
        }
    }

    #[test]
    fn fault_runs_truncate_after_the_tail() {
        let opts = parse(&[]).opts().unwrap();
        let cfg = RecoveryConfig::named("F10G3T5").unwrap();
        let mut spec = opts.campaign();
        assert!(spec.is_empty());
        assert_eq!(spec.push(opts.fault_run(&cfg, FaultType::ShutdownAbort, 150, 240)), 0);
        assert_eq!(spec.push(opts.baseline(&cfg, true)), 1);
        assert_eq!(spec.len(), 2);
        let cut = |tail: u64| {
            Experiment::builder(cfg.clone())
                .fault(FaultType::ShutdownAbort, 150)
                .duration_secs(150 + tail)
                .seed(42)
                .build()
        };
        assert_eq!(opts.fault_run(&cfg, FaultType::ShutdownAbort, 150, 240), cut(240));
        assert_eq!(opts.fault_run(&cfg, FaultType::ShutdownAbort, 150, 9_999), cut(1_200));
    }

    #[test]
    fn an_equal_experiment_is_the_cell_already_planned() {
        let opts = parse(&[]).opts().unwrap();
        let configs = opts.archive_configs();
        let mut spec = opts.campaign();
        assert_eq!(spec.push(opts.baseline(&configs[0], true)), 0);
        assert_eq!(spec.push(opts.baseline(&configs[1], true)), 1);
        assert_eq!(
            spec.push(opts.baseline(&configs[0], false)),
            2,
            "archive mode tells them apart"
        );
        assert_eq!(spec.push(opts.baseline(&configs[0], true)), 0);
        assert_eq!((spec.planned(), spec.len()), (4, 3));
        assert_eq!(spec.setups(), 3);
    }
}
