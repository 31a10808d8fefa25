//! `perf`: the repo's one performance benchmark (see `README.md` beside
//! this file and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! perf run   --workload <name> | --all   [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perf trace --workload <name> | --all   (the same as `run --trace 1`)
//! perf compare A.json B.json
//! ```
//!
//! `run` measures one workload in its own process (so `peak_rss_mb` and
//! allocator state never leak between workloads), checks every operation,
//! prints every metric by name with its unit and sample count, and ends
//! with one JSON line: `correct`, `attempted`, `failed` and the metrics of
//! `BENCHMARK.json` (`end_to_end` untraced, `per_layer` traced). It exits
//! non-zero when any operation failed or a trace was rejected. `--all`
//! re-executes this binary once per workload, one after the other.
//! Without `--seconds` a run does the workload's whole list; with it, the
//! fixed fraction of the list that took that long on the reference box.
//! Results land under `target/perf/`.

mod compare;
mod json;
mod probes;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use report::{Metric, END_TO_END};
use stats::{ms_between, now};
use workloads::{Size, Workload};

const OUT_DIR: &str = "target/perf";

const USAGE: &str = "usage: perf run|trace (--workload <name> | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       perf compare A.json B.json";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    size: Size,
    traced: bool,
    out: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run(RunArgs),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    if command == "compare" {
        return match rest {
            [a, b] => Ok(Command::Compare(a.clone(), b.clone())),
            _ => Err("compare takes exactly two result files".into()),
        };
    }
    if command != "run" && command != "trace" {
        return Err(format!("unknown command '{command}'"));
    }
    let mut run = RunArgs {
        workload: None,
        seed: 42,
        size: Size::Full,
        traced: command == "trace",
        out: None,
    };
    let mut all = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => all = true,
            "--smoke" => run.size = Size::Smoke,
            "--workload" => {
                let name = value()?;
                run.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                run.size = Size::Seconds(secs);
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => run.out = Some(value()?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if all == run.workload.is_some() {
        return Err("name one workload with --workload, or every one with --all".into());
    }
    Ok(Command::Run(run))
}

/// What one run of one workload produced.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Why the run as a whole is wrong beyond failed operations (a
    /// rejected trace).
    rejected: Option<String>,
    failures: Vec<String>,
    sim_digest: String,
    metrics: Vec<Metric>,
    trace: Option<Json>,
}

impl Outcome {
    /// No operation failed and no trace was rejected.
    fn correct(&self) -> bool {
        self.failed == 0 && self.rejected.is_none()
    }
}

/// Set-up runs this many times per process and `setup_s` is the median, as
/// the benchmark contract asks: one descheduled set-up must not read as a
/// set-up regression. The first is timed from process start; each earlier
/// plan is dropped before the next is built, so the repeats never hold two
/// sets of pre-fault images at once.
const SETUP_REPS: usize = 3;

fn run_workload(w: Workload, args: &RunArgs, started: Instant) -> Result<Outcome, String> {
    let smoke = args.size == Size::Smoke;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut from = started;
    for _ in 1..if smoke { 1 } else { SETUP_REPS } {
        drop(workloads::setup(w, args.seed, args.size, args.traced)?);
        let done = now();
        setup_s.push(ms_between(from, done) / 1e3);
        from = done;
    }
    let plan = workloads::setup(w, args.seed, args.size, args.traced)?;
    setup_s.push(ms_between(from, now()) / 1e3);
    let api = workloads::untraced_pass(&plan, w.workers());
    let mut outcome = Outcome {
        attempted: api.ops.len(),
        failed: report::failed_ops(&api),
        rejected: None,
        failures: api
            .ops
            .iter()
            .filter_map(|op| op.facts.failed.clone())
            .collect(),
        sim_digest: report::sim_digest(&api.ops),
        metrics: Vec::new(),
        trace: None,
    };
    if !args.traced {
        outcome.metrics = report::end_to_end(&api, &setup_s);
        return Ok(outcome);
    }
    let mut tracer = trace::Tracer::new();
    let traced = match traced::traced_pass(&plan, &api, args.seed, smoke, &mut tracer) {
        Ok(traced) => traced,
        Err(why) => {
            outcome.rejected = Some(why);
            return Ok(outcome);
        }
    };
    outcome.failed = outcome.failed.max(report::failed_ops(&traced));
    outcome
        .failures
        .extend(traced.ops.iter().filter_map(|op| op.facts.failed.clone()));
    // About 45 ms a probe settles the ns-scale ones to a few percent.
    let probes = probes::run_all(probes::Budget {
        ms: if smoke { 0.3 } else { 45.0 },
    })?;
    outcome.metrics = report::per_layer(&plan, &api, &traced, &tracer, &probes);
    outcome.trace = Some(tracer.to_json());
    Ok(outcome)
}

fn size_label(size: Size) -> String {
    match size {
        Size::Full => "full".into(),
        Size::Seconds(s) => format!("seconds:{s}"),
        Size::Smoke => "smoke".into(),
    }
}

/// The whole result, as written under `target/perf/` and read back by
/// `perf compare`.
fn result_json(w: Workload, args: &RunArgs, o: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("size", Json::str(size_label(args.size))),
        ("traced", Json::Bool(args.traced)),
        ("loop", Json::str("closed")),
        ("workers", Json::Num(w.workers() as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "failures",
            Json::Arr(
                o.failures
                    .iter()
                    .chain(&o.rejected)
                    .map(Json::str)
                    .collect(),
            ),
        ),
        ("sim_digest", Json::str(&o.sim_digest)),
        (
            "metrics",
            Json::obj(o.metrics.iter().map(|m| (m.name.clone(), m.to_json()))),
        ),
    ])
}

/// The last line of stdout: exactly the keys the benchmark contract names,
/// with `BENCHMARK.json`'s metrics for this kind of run.
fn contract_line(args: &RunArgs, o: &Outcome) -> Json {
    let listed = |m: &&Metric| {
        args.traced
            || END_TO_END
                .iter()
                .any(|e| e.every_workload && e.name == m.name)
    };
    let metrics = o.metrics.iter().filter(listed).map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value.unwrap_or(0.0))),
                ("unit", Json::str(m.unit)),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Appends `result` to the JSON array in `path`, creating it if need be.
fn append_result(path: &str, result: &Json) -> Result<(), String> {
    let mut runs = if std::path::Path::new(path).exists() {
        compare::load_runs(path)?
    } else {
        Vec::new()
    };
    runs.push(result.clone());
    let lines: Vec<String> = runs.iter().map(Json::to_line).collect();
    write_file(path, &format!("[\n{}\n]\n", lines.join(",\n")))
}

fn run_one(w: Workload, args: &RunArgs, started: Instant) -> Result<bool, String> {
    let o = run_workload(w, args, started)?;
    let kind = if args.traced { "trace" } else { "run" };
    println!(
        "perf {kind}: {} seed={} size={} loop=closed workers={} operations={}",
        w.name(),
        args.seed,
        size_label(args.size),
        w.workers(),
        o.attempted
    );
    for m in &o.metrics {
        match m.value {
            Some(v) => println!("  {:<46} {v:>16.4} {:<6} (n={})", m.name, m.unit, m.samples),
            None => println!(
                "  {:<46} {:>16} {:<6} (n={})",
                m.name, "-", m.unit, m.samples
            ),
        }
    }
    println!("  sim_digest {}", o.sim_digest);
    for why in o.failures.iter().chain(&o.rejected) {
        println!("  FAILED: {why}");
    }
    let result = result_json(w, args, &o);
    write_file(
        &format!("{OUT_DIR}/{kind}-{}.json", w.name()),
        &format!("{}\n", result.to_line()),
    )?;
    if let Some(trace) = &o.trace {
        write_file(
            &format!("{OUT_DIR}/trace-{}.json", w.name()),
            &format!("{}\n", trace.to_line()),
        )?;
    }
    if let Some(out) = &args.out {
        append_result(out, &result)?;
    }
    println!("{}", contract_line(args, &o).to_line());
    Ok(o.correct())
}

/// `--all`: this binary again, once per workload, one at a time.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut ok = true;
    for w in Workload::ALL {
        let child = args.iter().flat_map(|a| match a.as_str() {
            "--all" => vec!["--workload".to_string(), w.name().to_string()],
            _ => vec![a.clone()],
        });
        let status = std::process::Command::new(&exe)
            .args(child)
            .status()
            .map_err(|e| format!("cannot re-execute {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match parse_args(&args) {
        Err(why) => {
            eprintln!("perf: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Compare(a, b)) => {
            compare::load_runs(&a).and_then(|a| Ok(compare::compare(&a, &compare::load_runs(&b)?)))
        }
        Ok(Command::Run(run)) => match run.workload {
            Some(w) => run_one(w, &run, started),
            None => run_all(&args),
        },
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&args(
            "run --workload oltp_fit --seed 7 --seconds 8 --trace 1",
        ))
        .unwrap();
        let expect = RunArgs {
            workload: Some(Workload::OltpFit),
            seed: 7,
            size: Size::Seconds(8.0),
            traced: true,
            out: None,
        };
        assert_eq!(parsed, Command::Run(expect));
        assert_eq!(
            parse_args(&args("trace --all")).unwrap(),
            Command::Run(RunArgs {
                workload: None,
                seed: 42,
                size: Size::Full,
                traced: true,
                out: None
            })
        );
        for bad in [
            "",
            "run",
            "run --all --workload oltp_fit",
            "run --workload nope",
            "run --all --sed 1",
            "run --all --seconds 0",
            "run --all --trace 2",
            "compare a.json",
            "bench --all",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    /// A toy-size pass of every workload, untraced and traced: every
    /// operation must pass its checks, every traced operation must
    /// reproduce its untraced twin, and the metric names must be exactly
    /// the ones `BENCHMARK.json` promises.
    #[test]
    fn smoke_pass_of_every_workload_matches_the_benchmark_contract() {
        let contract = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let list = contract.get(key).and_then(Json::as_arr).unwrap();
            list.iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        for traced in [false, true] {
            let key = if traced { "per_layer" } else { "end_to_end" };
            for w in Workload::ALL {
                let run = RunArgs {
                    workload: Some(w),
                    seed: 42,
                    size: Size::Smoke,
                    traced,
                    out: None,
                };
                let o = run_workload(w, &run, now()).unwrap();
                assert_eq!(
                    (o.failed, &o.rejected),
                    (0, &None),
                    "{} {:?}",
                    w.name(),
                    o.failures
                );
                assert!(o.attempted >= 1);
                assert!(o.metrics.iter().all(|m| report::valid_metric_name(&m.name)));
                let line = contract_line(&run, &o);
                let emitted: Vec<String> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                assert_eq!(emitted, names(key), "{} {key}", w.name());
                if !traced {
                    assert_eq!(o.metrics.len(), END_TO_END.len(), "all eleven are reported");
                    assert_eq!(
                        Json::parse(&result_json(w, &run, &o).to_line())
                            .unwrap()
                            .get("sim_digest"),
                        Some(&Json::str(&o.sim_digest))
                    );
                }
            }
        }
    }
}
