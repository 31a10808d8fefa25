//! The one command-line surface shared by every regenerator binary.
//!
//! All twelve binaries accept the same flags, parsed here and only here:
//!
//! * `--quick` — shrink durations and configuration sets so the binary
//!   finishes in seconds (CI smoke mode); paper-faithful runs are the
//!   default;
//! * `--threads N` — campaign worker threads (default: all cores);
//! * `--seed N` — base RNG seed (default 42);
//! * `--out PATH` — destination for binaries that write a JSON artifact;
//! * `--smoke` — the smallest mode of `recovery_breakdown`;
//! * `--sweep-seconds N` / `--runs N` / `--replay PATH` / `--sabotage N`
//!   — the torture binary's sweep budget, exact run count, single-schedule
//!   replay mode and self-test sabotage (see `src/bin/torture.rs`);
//! * `--faultload NAME` — the torture sweep's fault pool: `standard`
//!   (the seven operator faults, the default), `storage` (the five
//!   storage-hardware faults: torn/partial/corrupt/full/slow I/O),
//!   `replica` (the four replica-set faults), or `extended` (every pool
//!   together).
//!
//! An unknown flag, a missing value or an unparsable value is an error:
//! the binary prints it and exits 2 instead of running some other mode.
//!
//! [`CampaignSpec`] collects the experiments a binary builds from these
//! options and runs them as one [`Campaign`] with a stderr progress line.

use recobench_core::{Campaign, CampaignReport, Experiment, RecoveryConfig};
use recobench_faults::FaultType;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Shrunk smoke-test mode.
    pub quick: bool,
    /// Campaign worker threads (0 = all cores).
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
    /// `--smoke`: the smallest self-measurement campaign.
    pub smoke: bool,
    /// `--out PATH`: artifact destination override.
    pub out: Option<String>,
    /// `--sweep-seconds N`: wall-clock budget for the torture sweep.
    pub sweep_seconds: Option<u64>,
    /// `--runs N`: exact torture-run count (overrides the time budget).
    pub runs: Option<usize>,
    /// `--replay PATH`: replay one schedule JSON instead of sweeping.
    pub replay: Option<String>,
    /// `--sabotage N`: arm the test-only redo-skip sabotage (the torture
    /// binary's self-test mode: the oracle must catch the divergence).
    pub sabotage: u32,
    /// `--faultload NAME`: the torture sweep's fault pool (`standard`,
    /// `storage`, `replica`, or `extended`; default `standard`).
    pub faultload: Option<String>,
}

impl Default for BenchCli {
    fn default() -> Self {
        BenchCli {
            quick: false,
            threads: 0,
            seed: 42,
            smoke: false,
            out: None,
            sweep_seconds: None,
            runs: None,
            replay: None,
            sabotage: 0,
            faultload: None,
        }
    }
}

impl BenchCli {
    /// Parses `std::env::args`; on a bad command line prints the reason
    /// and exits with status 2.
    pub fn parse() -> BenchCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list.
    ///
    /// # Errors
    ///
    /// Names the unknown flag, or the flag whose value is missing or does
    /// not parse.
    pub fn from_args(args: &[String]) -> Result<BenchCli, String> {
        fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("{flag}: cannot parse '{value}'"))
        }
        let mut cli = BenchCli::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => cli.quick = true,
                "--smoke" => cli.smoke = true,
                "--threads" => cli.threads = parsed(flag, value()?)?,
                "--seed" => cli.seed = parsed(flag, value()?)?,
                "--out" => cli.out = Some(value()?.clone()),
                "--sweep-seconds" => cli.sweep_seconds = Some(parsed(flag, value()?)?),
                "--runs" => cli.runs = Some(parsed(flag, value()?)?),
                "--replay" => cli.replay = Some(value()?.clone()),
                "--sabotage" => cli.sabotage = parsed(flag, value()?)?,
                "--faultload" => cli.faultload = Some(value()?.clone()),
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(cli)
    }

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
        if self.quick {
            vec![100]
        } else {
            vec![150, 300, 600]
        }
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
        if self.quick {
            vec![self.seed]
        } else {
            (0..n as u64).map(|i| self.seed + 101 * i).collect()
        }
    }

    /// The artifact destination: `--out` if given, else `default`.
    pub fn out_path(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_string())
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
        let all = RecoveryConfig::archive_subset();
        if self.quick {
            all.into_iter().filter(|c| matches!(c.name.as_str(), "F40G3T10" | "F1G3T1")).collect()
        } else {
            all
        }
    }

    /// All sixteen Table 3 configurations, or the named subset in quick
    /// mode.
    pub fn table3_or(&self, quick_names: &[&str]) -> Vec<RecoveryConfig> {
        if self.quick {
            self.named_configs(quick_names)
        } else {
            RecoveryConfig::table3()
        }
    }

    /// Looks up configurations by their paper names, panicking on a typo.
    pub fn named_configs(&self, names: &[&str]) -> Vec<RecoveryConfig> {
        names
            .iter()
            .map(|n| RecoveryConfig::named(n).unwrap_or_else(|| panic!("unknown configuration {n}")))
            .collect()
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
        CampaignSpec { threads: self.threads, experiments: Vec::new() }
    }

    /// Runs `f(0..n)` across the campaign worker pool and returns the
    /// results in index order. For bench work that is not an
    /// [`Experiment`] (torture runs, double-fault cells) but should still
    /// honor `--threads` instead of running single-threaded.
    pub fn parallel<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = if self.threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
        } else {
            self.threads
        };
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<T>>> =
            (0..n).map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(n.max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock().unwrap() = Some(f(i));
                });
            }
        });
        slots.into_iter().map(|s| s.into_inner().unwrap().expect("every slot filled")).collect()
    }
}

/// The experiments one binary wants to run, collected in table order and
/// executed as a single parallel [`Campaign`] with progress on stderr.
#[derive(Debug)]
pub struct CampaignSpec {
    threads: usize,
    experiments: Vec<Experiment>,
}

impl CampaignSpec {
    /// Appends one experiment; returns its input-order index.
    pub fn push(&mut self, experiment: Experiment) -> usize {
        self.experiments.push(experiment);
        self.experiments.len() - 1
    }

    /// Experiments collected so far.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Runs the campaign; results come back in push order.
    pub fn run(self) -> CampaignReport {
        let total = self.experiments.len();
        let report = Campaign::new(self.experiments)
            .threads(self.threads)
            .on_progress(move |p| {
                eprint!("\r  {}/{} experiments", p.completed, p.total);
                if p.completed == p.total {
                    eprintln!();
                }
            })
            .run();
        debug_assert_eq!(report.len(), total);
        report
    }

    /// Runs the campaign and unwraps every outcome (a setup failure in a
    /// regenerator is a bug, not a result).
    pub fn run_all(self) -> Vec<recobench_core::ExperimentOutcome> {
        self.run().expect_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_are_paper_faithful() {
        let cli = BenchCli::from_args(&[]).unwrap();
        assert!(!cli.quick && !cli.smoke);
        assert_eq!(cli.duration(), 1_200);
        assert_eq!(cli.triggers(), vec![150, 300, 600]);
        assert_eq!(cli.single_trigger(600), 600);
        assert_eq!(cli.seeds(3), vec![42, 143, 244]);
        assert_eq!(cli.archive_configs().len(), 8);
        assert_eq!(cli.out_path("X.json"), "X.json");
    }

    #[test]
    fn quick_mode_shrinks_everything() {
        let cli = BenchCli::from_args(&args(&["--quick", "--threads", "2", "--seed", "7"])).unwrap();
        assert_eq!((cli.threads, cli.seed), (2, 7));
        assert_eq!(cli.duration(), 300);
        assert_eq!(cli.triggers(), vec![100]);
        assert_eq!(cli.single_trigger(600), 100);
        assert_eq!(cli.seeds(5), vec![7]);
        assert_eq!(cli.archive_configs().len(), 2);
        assert_eq!(cli.pick(&[1], &[1, 2, 3]), vec![1]);
        assert_eq!(cli.table3_or(&["F1G3T1"]).len(), 1);
    }

    #[test]
    fn artifact_flags_parse() {
        let cli = BenchCli::from_args(&args(&["--smoke", "--out", "custom.json"])).unwrap();
        assert!(cli.smoke);
        assert_eq!(cli.out_path("default.json"), "custom.json");
    }

    #[test]
    fn torture_flags_parse() {
        let cli = BenchCli::from_args(&args(&[
            "--sweep-seconds",
            "45",
            "--runs",
            "3",
            "--sabotage",
            "2",
            "--replay",
            "tests/corpus/a.json",
            "--faultload",
            "storage",
        ]))
        .unwrap();
        assert_eq!(cli.sweep_seconds, Some(45));
        assert_eq!(cli.runs, Some(3));
        assert_eq!(cli.sabotage, 2);
        assert_eq!(cli.replay.as_deref(), Some("tests/corpus/a.json"));
        assert_eq!(cli.faultload.as_deref(), Some("storage"));
        let none = BenchCli::from_args(&[]).unwrap();
        assert_eq!((none.sweep_seconds, none.runs, none.sabotage), (None, None, 0));
        assert!(none.replay.is_none());
        assert!(none.faultload.is_none());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // `--mini` was documented for years and read by no parser.
        let err = BenchCli::from_args(&args(&["--quick", "--mini"])).unwrap_err();
        assert!(err.contains("--mini"), "{err}");
        assert!(BenchCli::from_args(&args(&["quick"])).is_err(), "a bare word is not a flag");
    }

    #[test]
    fn missing_and_unparsable_values_are_rejected() {
        let err = BenchCli::from_args(&args(&["--threads", "two"])).unwrap_err();
        assert!(err.contains("--threads") && err.contains("two"), "{err}");
        let err = BenchCli::from_args(&args(&["--seed"])).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(BenchCli::from_args(&args(&["--runs", "-1"])).is_err());
    }

    #[test]
    fn parallel_preserves_index_order() {
        let cli = BenchCli::from_args(&args(&["--threads", "3"])).unwrap();
        let out = cli.parallel(17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn fault_runs_truncate_after_the_tail() {
        let cli = BenchCli::from_args(&[]).unwrap();
        let cfg = RecoveryConfig::named("F10G3T5").unwrap();
        let mut spec = cli.campaign();
        assert!(spec.is_empty());
        assert_eq!(spec.push(cli.fault_run(&cfg, FaultType::ShutdownAbort, 150, 240)), 0);
        assert_eq!(spec.push(cli.baseline(&cfg, true)), 1);
        assert_eq!(spec.len(), 2);
    }
}
