//! `recobench torture`: randomized multi-fault schedules against the
//! differential oracle, with shrinking.
//!
//! Three modes:
//!
//! * **sweep** (default) — generate seeded random [`FaultSchedule`]s and
//!   run them until the wall-clock budget (`--sweep-seconds`, default 60)
//!   or the exact run count (`--runs N`) is exhausted. On the first
//!   divergence the schedule is shrunk to a minimal reproducer, written
//!   as JSON to `--out` (default `torture_minimized.json`), and the
//!   process exits non-zero — CI uploads the artifact and the schedule
//!   goes into `tests/corpus/` once the bug is fixed.
//! * **replay** (`--replay PATH`) — run one schedule JSON and report; it
//!   takes none of the sweep's flags.
//! * **self-test** (`--sabotage N`, combinable with either mode) — arm
//!   the engine's test-only redo-skip sabotage so the oracle *must*
//!   diverge; this is how the harness proves the oracle catches real
//!   corruption, and how corpus reproducers were first harvested.
//!
//! `--faultload storage` swaps the sweep's pool for the five
//! storage-hardware fault kinds (torn/partial/corrupt/full/slow I/O);
//! `--faultload replica` draws from the four replica-set kinds (the
//! runner auto-provisions a two-node fan-out for them); `--faultload
//! extended` draws from every pool together.
//!
//! Every schedule is derived from `--seed`, so a failing sweep is
//! reproducible by rerunning with the same seed.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use recobench_core::campaign::run_indexed;
use recobench_faults::{FaultSchedule, TortureFaultKind};
use recobench_oracle::{shrink_schedule, TortureOptions, TortureOutcome, TortureRunner};
use recobench_sim::SimRng;

use crate::cli::{Args, CmdResult};

/// `--faultload NAME`: the pool a sweep draws its fault kinds from.
struct Faultload(Vec<TortureFaultKind>);

impl FromStr for Faultload {
    type Err = &'static str;

    fn from_str(name: &str) -> Result<Faultload, Self::Err> {
        Ok(Faultload(match name {
            "standard" => TortureFaultKind::all().to_vec(),
            "storage" => TortureFaultKind::storage().to_vec(),
            "replica" => TortureFaultKind::replica().to_vec(),
            "extended" => TortureFaultKind::all_extended().to_vec(),
            _ => return Err("not one of standard, storage, replica, extended"),
        }))
    }
}

/// What a sweep reads off the command line.
struct Sweep {
    pool: Vec<TortureFaultKind>,
    budget_secs: u64,
    runs: Option<usize>,
    threads: usize,
    seed: u64,
    out: String,
}

/// The subcommand.
///
/// # Errors
///
/// A refused command line; everything after that is an exit code.
pub fn run(mut args: Args) -> CmdResult {
    let sabotage_skip_redo = args.value("--sabotage")?.unwrap_or(0);
    let runner =
        TortureRunner::new(TortureOptions { sabotage_skip_redo, ..TortureOptions::default() });
    // A replay runs the schedule's own seed, duration and faults: a sweep
    // flag beside `--replay` is refused, not read and ignored.
    if let Some(path) = args.value::<String>("--replay")? {
        args.finish()?;
        return Ok(replay(&runner, &path));
    }
    let sweep = Sweep {
        pool: args
            .value("--faultload")?
            .map_or_else(|| TortureFaultKind::all().to_vec(), |f: Faultload| f.0),
        budget_secs: args.value("--sweep-seconds")?.unwrap_or(60),
        runs: args.value("--runs")?,
        threads: args.value("--threads")?.unwrap_or(0),
        seed: args.value("--seed")?.unwrap_or(42),
        out: args.value("--out")?.unwrap_or_else(|| "torture_minimized.json".to_string()),
    };
    args.finish()?;
    Ok(sweep.run(&runner))
}

fn replay(runner: &TortureRunner, path: &str) -> ExitCode {
    let outcome = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| {
            FaultSchedule::from_json(text.trim())
                .map_err(|e| format!("{path} is not a schedule: {e}"))
        })
        .and_then(|schedule| {
            runner.run(&schedule).map_err(|e| format!("replay setup failed: {e}"))
        });
    match outcome {
        Ok(outcome) => {
            print_outcome(path, &outcome);
            if outcome.diverged() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(why) => {
            eprintln!("torture: {why}");
            ExitCode::FAILURE
        }
    }
}

impl Sweep {
    fn run(&self, runner: &TortureRunner) -> ExitCode {
        #[allow(clippy::disallowed_methods)] // a wall-clock budget is what --sweep-seconds asks for
        let started = Instant::now();
        let mut runs = 0usize;
        let mut attempted = 0u64;
        let mut commits = 0u64;
        let mut injected = 0usize;
        loop {
            let batch = match self.runs {
                Some(n) if runs >= n => break,
                Some(n) => (n - runs).min(32),
                None if started.elapsed().as_secs() >= self.budget_secs => break,
                None => 32,
            };
            // One independent schedule per run index: 1–4 faults over a 300 s
            // window, nothing before 30 s (the driver needs a little history
            // for the faults to have something to destroy). Each schedule is a
            // pure function of `(--seed, index)`, so running a batch across
            // the worker pool changes neither the schedules nor which run a
            // divergence is attributed to.
            let results = run_indexed(batch, self.threads, |i| {
                let idx = runs + i;
                let mut rng = SimRng::seed_from(self.seed.wrapping_add(idx as u64));
                let n_faults = 1 + idx % 4;
                let schedule = FaultSchedule::random_from(&mut rng, &self.pool, n_faults, 300, 30);
                let outcome = runner.run(&schedule);
                (schedule, outcome)
            });
            for (schedule, outcome) in results {
                let outcome = match outcome {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("torture: run {runs} setup failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                runs += 1;
                attempted += outcome.attempted;
                commits += outcome.commits;
                injected += outcome.faults.iter().filter(|f| f.injected_at.is_some()).count();
                if outcome.diverged() {
                    eprintln!();
                    return self.report_divergence(runner, &schedule, &outcome);
                }
            }
            eprint!("\r  torture: {runs} runs, {injected} faults, {attempted} txns");
        }
        eprintln!();
        println!(
            "torture sweep: {runs} runs, {injected} faults injected, {attempted} transactions \
             attempted, {commits} commits observed, 0 divergences"
        );
        ExitCode::SUCCESS
    }

    fn report_divergence(
        &self,
        runner: &TortureRunner,
        schedule: &FaultSchedule,
        outcome: &TortureOutcome,
    ) -> ExitCode {
        println!("torture: DIVERGENCE on schedule {}", schedule.to_json());
        for d in &outcome.divergences {
            println!("  {d}");
        }
        println!("torture: shrinking...");
        let minimal =
            shrink_schedule(schedule, |s| runner.run(s).map(|o| o.diverged()).unwrap_or(false));
        let json = minimal.to_json();
        println!("torture: minimal reproducer ({} faults): {json}", minimal.faults.len());
        match std::fs::write(&self.out, format!("{json}\n")) {
            Ok(()) => println!("torture: wrote {}", self.out),
            Err(e) => eprintln!("torture: cannot write {}: {e}", self.out),
        }
        ExitCode::FAILURE
    }
}

fn print_outcome(label: &str, outcome: &TortureOutcome) {
    println!(
        "torture replay {label}: {} txns attempted, {} commits, {} faults injected, \
         {} divergences{}",
        outcome.attempted,
        outcome.commits,
        outcome.faults.iter().filter(|f| f.injected_at.is_some()).count(),
        outcome.divergences.len(),
        if outcome.unrecoverable { " (UNRECOVERABLE)" } else { "" },
    );
    for f in &outcome.faults {
        let status = match (&f.skipped, f.injected_at) {
            (Some(why), _) => format!("skipped: {why}"),
            (None, Some(at)) => format!(
                "injected at {:.1}s{}{}",
                at.as_micros() as f64 / 1e6,
                if f.overtaken { " (during previous recovery)" } else { "" },
                match f.ready_at {
                    Some(r) => format!(", service back at {:.1}s", r.as_micros() as f64 / 1e6),
                    None => ", never recovered".to_string(),
                },
            ),
            (None, None) => "not reached".to_string(),
        };
        println!("  {} @ {}s — {status}", f.scheduled.kind, f.scheduled.at_secs);
    }
    for d in &outcome.divergences {
        println!("  DIVERGENCE: {d}");
    }
}
