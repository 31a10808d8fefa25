//! Campaign execution: many independent experiments, in parallel.
//!
//! The paper injects 146 faults across its configurations; RecoBench runs
//! each `(configuration, fault, trigger)` cell as an isolated experiment
//! (own clock, own disks) so campaigns parallelize perfectly across
//! threads. [`Campaign`] is the one way to run a set of experiments:
//!
//! ```no_run
//! use recobench_core::{Campaign, Experiment, RecoveryConfig};
//!
//! let exps = vec![Experiment::builder(RecoveryConfig::named("F10G3T5").unwrap()).build()];
//! let report = Campaign::new(exps)
//!     .threads(4)
//!     .on_progress(|p| eprintln!("{}/{}", p.completed, p.total))
//!     .run();
//! for outcome in report.expect_all() {
//!     println!("{}: {:.0} tpmC", outcome.config_name, outcome.measures.tpmc);
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use recobench_engine::DbError;

use crate::experiment::{Experiment, ExperimentOutcome, ExperimentTemplate};

/// An experiment whose *setup* failed (the benchmark itself was
/// misconfigured — injected faults and failed recoveries are outcomes,
/// not errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// Position of the failed experiment in the input order.
    pub index: usize,
    /// Name of the configuration under test.
    pub config: String,
    /// The underlying engine error.
    pub error: DbError,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "experiment #{} ({}): {}", self.index, self.config, self.error)
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// A progress tick, delivered once per finished experiment (in completion
/// order, which under parallelism is not input order).
#[derive(Debug, Clone, Copy)]
pub struct CampaignProgress {
    /// Experiments finished so far, this one included.
    pub completed: usize,
    /// Total experiments in the campaign.
    pub total: usize,
    /// Input-order index of the experiment that just finished.
    pub index: usize,
    /// Whether it succeeded (its setup ran to completion).
    pub ok: bool,
}

/// A set of experiments plus how to run them.
pub struct Campaign {
    experiments: Vec<Experiment>,
    threads: usize,
    progress: Option<Arc<dyn Fn(CampaignProgress) + Send + Sync>>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("experiments", &self.experiments.len())
            .field("threads", &self.threads)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Campaign {
    /// A campaign over `experiments`, defaulting to one worker per
    /// available core and no progress reporting. Cells with equal
    /// [`Experiment::template_key`]s share one setup template — built
    /// once, booted per cell from a copy-on-write clone; outcomes are
    /// byte-identical to [`Experiment::run`] per cell (regression-tested).
    pub fn new(experiments: Vec<Experiment>) -> Self {
        Campaign { experiments, threads: 0, progress: None }
    }

    /// Caps the worker threads (0 = one per available core, the default).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Registers a callback invoked after every finished experiment. It
    /// may be called concurrently from several workers.
    pub fn on_progress<F>(mut self, f: F) -> Self
    where
        F: Fn(CampaignProgress) + Send + Sync + 'static,
    {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Number of experiments queued.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the campaign is empty.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Runs every experiment and collects the results **in input order**.
    pub fn run(self) -> CampaignReport {
        let workers = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            self.threads
        };
        let n = self.experiments.len();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let built = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<ExperimentOutcome, CampaignError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let experiments = &self.experiments;
        let progress = self.progress.as_deref();
        // Template registry, shared across workers: the first cell to need
        // a key builds its template inside the `OnceLock` (concurrent
        // requesters block on it, everyone else proceeds), later cells
        // reuse the finished `Arc`.
        type TemplateSlot = Arc<OnceLock<Result<Arc<ExperimentTemplate>, DbError>>>;
        let registry: Mutex<BTreeMap<String, TemplateSlot>> = Mutex::new(BTreeMap::new());

        std::thread::scope(|scope| {
            for _ in 0..workers.min(n.max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let exp = &experiments[i];
                    let slot = {
                        let mut reg = registry.lock().unwrap();
                        Arc::clone(reg.entry(exp.template_key()).or_default())
                    };
                    let mut was_built = false;
                    let template = slot.get_or_init(|| {
                        was_built = true;
                        built.fetch_add(1, Ordering::Relaxed);
                        exp.build_template().map(Arc::new)
                    });
                    if !was_built {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    let run = match template {
                        Ok(t) => exp.run_with_template(t),
                        Err(e) => Err(e.clone()),
                    };
                    let result = run.map_err(|error| CampaignError {
                        index: i,
                        config: exp.config().name.clone(),
                        error,
                    });
                    let ok = result.is_ok();
                    *slots[i].lock().unwrap() = Some(result);
                    let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(cb) = progress {
                        cb(CampaignProgress { completed, total: n, index: i, ok });
                    }
                });
            }
        });

        CampaignReport {
            results: slots
                .into_iter()
                .map(|s| s.into_inner().unwrap().expect("every slot filled"))
                .collect(),
            template_hits: hits.into_inner(),
            templates_built: built.into_inner(),
        }
    }
}

/// Everything a campaign produced, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    results: Vec<Result<ExperimentOutcome, CampaignError>>,
    template_hits: usize,
    templates_built: usize,
}

impl CampaignReport {
    /// Number of experiments run.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Cells that reused an already-built setup template.
    pub fn template_hits(&self) -> usize {
        self.template_hits
    }

    /// Distinct setup templates built.
    pub fn templates_built(&self) -> usize {
        self.templates_built
    }

    /// Whether the campaign was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// All results, in input order.
    pub fn results(&self) -> &[Result<ExperimentOutcome, CampaignError>] {
        &self.results
    }

    /// The result at input position `i`.
    pub fn get(&self, i: usize) -> Option<&Result<ExperimentOutcome, CampaignError>> {
        self.results.get(i)
    }

    /// The successful outcomes, in input order.
    pub fn outcomes(&self) -> impl Iterator<Item = &ExperimentOutcome> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The setup failures, in input order.
    pub fn failures(&self) -> impl Iterator<Item = &CampaignError> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }

    /// Unwraps every outcome, panicking with the first setup failure.
    /// The table/figure regenerators use this: a setup failure there is a
    /// bug, not a benchmark result.
    pub fn expect_all(self) -> Vec<ExperimentOutcome> {
        self.results
            .into_iter()
            .map(|r| match r {
                Ok(out) => out,
                Err(e) => panic!("campaign setup failure: {e}"),
            })
            .collect()
    }

    /// Consumes the report into the raw result vector.
    pub fn into_results(self) -> Vec<Result<ExperimentOutcome, CampaignError>> {
        self.results
    }
}

impl IntoIterator for CampaignReport {
    type Item = Result<ExperimentOutcome, CampaignError>;
    type IntoIter = std::vec::IntoIter<Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.results.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::RecoveryConfig;
    use recobench_faults::FaultType;
    use recobench_tpcc::TpccScale;

    fn mk(cfg: &str, fault: Option<FaultType>) -> Experiment {
        let mut b = Experiment::builder(RecoveryConfig::named(cfg).unwrap())
            .duration_secs(150)
            .scale(TpccScale::tiny())
            .seed(3);
        if let Some(f) = fault {
            b = b.fault(f, 60);
        }
        b.build()
    }

    #[test]
    fn campaign_preserves_order_and_reports_progress() {
        let exps = vec![
            mk("F10G3T5", None),
            mk("F1G3T1", Some(FaultType::ShutdownAbort)),
            mk("F40G3T10", None),
        ];
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let report = Campaign::new(exps)
            .threads(2)
            .on_progress(move |p| {
                assert_eq!(p.total, 3);
                assert!(p.ok);
                sink.lock().unwrap().push(p.index);
            })
            .run();
        assert_eq!(report.len(), 3);
        assert_eq!(report.failures().count(), 0);
        let names: Vec<_> =
            report.outcomes().map(|o| o.config_name.clone()).collect();
        assert_eq!(names, vec!["F10G3T5", "F1G3T1", "F40G3T10"]);
        assert!(report.get(1).unwrap().as_ref().unwrap().measures.recovery_time_secs.is_some());
        let mut indices = seen.lock().unwrap().clone();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2], "every experiment ticks progress exactly once");
    }

    /// The determinism contract of DESIGN.md §9: per-cell outcomes are a
    /// pure function of the experiment definition — not of the thread
    /// count, not of the order the cells were handed in, and not of
    /// whether setup ran fresh or replayed from a shared snapshot template.
    #[test]
    fn outcomes_are_identical_across_threads_and_templating() {
        let cells = || {
            vec![
                // Three cells sharing one template key (same config, scale,
                // seed) but differing in fault — the sharing-sensitive case.
                mk("F10G3T5", None),
                mk("F10G3T5", Some(FaultType::ShutdownAbort)),
                mk("F10G3T5", Some(FaultType::DeleteDatafile)),
                // A second key, with event capture on so the prepended
                // setup JSONL is covered too.
                Experiment::builder(RecoveryConfig::named("F1G3T1").unwrap())
                    .duration_secs(150)
                    .scale(TpccScale::tiny())
                    .seed(7)
                    .capture_events(true)
                    .fault(FaultType::ShutdownAbort, 60)
                    .build(),
            ]
        };
        // `Experiment::run` builds its own setup per cell: the untemplated
        // reference.
        let baseline: Vec<_> = cells().iter().map(|c| c.run().unwrap()).collect();
        for threads in [1, 4] {
            // Input order as written, then shuffled so that the two faulted
            // F10G3T5 cells are apart and out of fault order.
            for order in [[0, 1, 2, 3], [2, 3, 0, 1]] {
                let mut input: Vec<Option<Experiment>> = cells().into_iter().map(Some).collect();
                let report = Campaign::new(order.iter().map(|&i| input[i].take().unwrap()).collect())
                    .threads(threads)
                    .run();
                assert_eq!(report.templates_built(), 2, "two distinct keys");
                assert_eq!(report.template_hits(), 2, "two cells reused one");
                let expected: Vec<_> = order.iter().map(|&i| baseline[i].clone()).collect();
                assert_eq!(
                    report.expect_all(),
                    expected,
                    "threads={threads} order={order:?}: shared templates must replay \
                     byte-identically, in input order"
                );
            }
        }
    }

    /// The paper's three injection instants in one campaign: every cell
    /// equals its lone run — also the one whose fault never fires.
    #[test]
    fn a_three_trigger_campaign_extends_its_stages() {
        let cell = |fault, trigger: u64, duration: u64| {
            Experiment::builder(RecoveryConfig::named("F10G3T5").unwrap())
                .duration_secs(duration)
                .scale(TpccScale::tiny())
                .seed(3)
                .fault(fault, trigger)
                .build()
        };
        // Fault-major, as the table binaries build their lists, and each
        // cell truncated a fixed tail after its trigger, so no two
        // instants share a duration.
        let cells = || {
            let mut cells = Vec::new();
            for fault in [FaultType::ShutdownAbort, FaultType::DeleteUsersObject] {
                for trigger in [180, 60, 120] {
                    cells.push(cell(fault, trigger, trigger + 90));
                }
            }
            // Due after the end of the run: never fires.
            cells.push(cell(FaultType::ShutdownAbort, 500, 150));
            cells
        };
        let baseline: Vec<_> = cells().iter().map(|c| c.run().unwrap()).collect();
        assert!(baseline[6].measures.recovery_time_secs.is_none(), "the late fault never fired");
        for threads in [1, 3] {
            let report = Campaign::new(cells()).threads(threads).run();
            assert_eq!((report.templates_built(), report.template_hits()), (1, 6));
            assert_eq!(report.expect_all(), baseline, "threads={threads}");
        }
    }

    /// The `terminals` dimension composes with snapshot templating: a
    /// cell's outcome is a function of its terminal count and seed, never
    /// of whether the database image was replayed from a shared template.
    #[test]
    fn terminals_dimension_is_deterministic_under_templating() {
        let cell = |n: usize| {
            Experiment::builder(RecoveryConfig::named("F10G3T5").unwrap())
                .duration_secs(150)
                .scale(TpccScale::tiny())
                .seed(11)
                .terminals(n)
                .build()
        };
        let with = Campaign::new(vec![cell(1), cell(8)]).threads(2).run().expect_all();
        let without = vec![cell(1).run().unwrap(), cell(8).run().unwrap()];
        assert_eq!(with, without, "templating must not leak into any terminal count");
        assert_eq!(with[0].terminals, 1);
        assert_eq!(with[1].terminals, 8);
        assert!(
            with[1].measures.tpmc > with[0].measures.tpmc,
            "eight terminals must outrun one ({} vs {})",
            with[1].measures.tpmc,
            with[0].measures.tpmc
        );
    }

    #[test]
    fn expect_all_returns_input_order() {
        let outs = Campaign::new(vec![mk("F40G3T10", None), mk("F10G3T5", None)])
            .threads(2)
            .run()
            .expect_all();
        assert_eq!(outs[0].config_name, "F40G3T10");
        assert_eq!(outs[1].config_name, "F10G3T5");
    }
}
