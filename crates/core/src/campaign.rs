//! Campaign execution: many independent experiments, in parallel.
//!
//! The paper injects 146 faults across its configurations; RecoBench runs
//! each `(configuration, fault, trigger)` cell as an isolated experiment
//! (own clock, own disks) so campaigns parallelize perfectly across
//! threads — and, because the paper injects every fault at the same few
//! instants of the same workload, mostly repeat each other up to the
//! fault: what cells have in common is run once and forked (DESIGN.md §9).
//! [`Campaign`] is the one way to run a set of experiments:
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use recobench_engine::{DbError, DbResult};
use recobench_sim::SimDuration;

use crate::experiment::{Experiment, ExperimentOutcome, ExperimentTemplate, WarmStage};

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
    /// [`Experiment::template_key`]s share one setup template, and those
    /// that also agree on everything else before their fault and on its
    /// instant share one warm stage — each built once and forked per
    /// cell, copy-on-write; outcomes are byte-identical to
    /// [`Experiment::run`] per cell (regression-tested).
    pub fn new(experiments: Vec<Experiment>) -> Self {
        Campaign { experiments, threads: 0, progress: None }
    }

    /// Caps the workers (0 = one per available core, the default). The
    /// calling thread is one of them: `threads(1)` runs every cell on it
    /// and spawns nothing.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Registers a callback invoked after every finished experiment, on
    /// the worker that ran it — the caller's own thread among them. It
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
    /// Execution order is the [`Plan`]'s: cells that share a warm stage
    /// run back to back, so that no more than one stage per worker is
    /// alive at a time.
    pub fn run(self) -> CampaignReport {
        let n = self.experiments.len();
        let done = AtomicUsize::new(0);
        let experiments = &self.experiments;
        let progress = self.progress.as_deref();
        let plan = Plan::of(experiments);

        let ran = run_indexed(n, self.threads, |turn| {
            let i = plan.order[turn];
            let exp = &experiments[i];
            let result = plan.run_cell(i, exp).map_err(|error| CampaignError {
                index: i,
                config: exp.config().name.clone(),
                error,
            });
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(cb) = progress {
                cb(CampaignProgress { completed, total: n, index: i, ok: result.is_ok() });
            }
            result
        });
        // Back from the plan's order to the caller's.
        let mut results: Vec<_> = plan.order.iter().copied().zip(ran).collect();
        results.sort_unstable_by_key(|&(i, _)| i);

        let Tally { templates_built, prefixes_built, prefix_sim_micros } = plan.tally;
        let (templates_built, prefixes_built) =
            (templates_built.into_inner(), prefixes_built.into_inner());
        let staged = plan.cell_node.iter().filter(|&&node| plan.nodes[node].parent.is_some());
        CampaignReport {
            // Whoever built an artefact, every other cell under it was
            // spared the work.
            template_hits: n - templates_built,
            templates_built,
            prefix_hits: staged.count() - prefixes_built,
            prefixes_built,
            prefix_sim_secs: prefix_sim_micros.into_inner() as f64 / 1e6,
            results: results.into_iter().map(|(_, result)| result).collect(),
        }
    }
}

/// Runs `job(0)` … `job(n - 1)` on `threads` workers (0 = one per
/// available core) and returns the results in index order; indices are
/// handed out in ascending order, one at a time. The one worker pool of
/// the workspace: [`Campaign::run`] gives it its cells, the bench front
/// end its torture runs and double-fault cells. The caller is worker 0
/// and only the other `threads - 1` are spawned: a spawned thread
/// allocates from a malloc arena of its own, so a pool of spawned workers
/// keeps a second heap beside the caller's, and one worker spawns nothing.
/// A panicking job propagates once every other worker has finished.
pub fn run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    };
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        *slots[i].lock().expect("a slot is locked once, by the worker that fills it") =
            Some(job(i));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("no worker panicked").expect("every slot filled"))
        .collect()
}

/// What a campaign builds once and shares: a setup template, or a warm
/// stage grown from one.
#[derive(Clone)]
enum Artefact {
    Template(Arc<ExperimentTemplate>),
    Stage(Arc<WarmStage>),
}

/// One shared artefact, the one it is built from, and how many users it
/// has: the cells that run from it and the artefacts built from it,
/// counted up front so that the last one to come takes it away.
struct Node {
    /// `None` for a setup template, which is built from nothing; the
    /// template or the earlier stage for a warm stage.
    parent: Option<usize>,
    /// A warm stage's instant, as an offset from workload start.
    at: SimDuration,
    users: usize,
    state: Mutex<NodeState>,
}

#[derive(Default)]
struct NodeState {
    claims: usize,
    built: Option<Result<Artefact, DbError>>,
}

impl Node {
    fn new(parent: Option<usize>, at: SimDuration) -> Node {
        Node { parent, at, users: 0, state: Mutex::default() }
    }
}

/// What the workers count as they build — the work really done, not what
/// the plan says it should be.
#[derive(Default)]
struct Tally {
    templates_built: AtomicUsize,
    prefixes_built: AtomicUsize,
    prefix_sim_micros: AtomicU64,
}

/// What a campaign shares and in which order it runs, worked out before
/// the first cell starts.
///
/// The artefacts form a forest: each setup template a root, under it one
/// chain of warm stages per prefix identity, each stage the previous one
/// run on to a later fault instant. A cell runs from the stage at its own
/// fault instant, or from the template when it has no fault-free prefix to
/// share (no fault, or one due after the end of the run).
///
/// Cells run ordered by template (in order of first appearance), those
/// without a stage first, then by prefix identity (likewise), fault
/// instant and input index. That makes the users of every artefact
/// consecutive turns — a template is dropped as soon as its last chain has
/// left it, a stage when its last cell has forked it and the next instant
/// of its chain has been built from it — so a worker keeps one stage
/// alive, not one per group.
struct Plan {
    order: Vec<usize>,
    /// The artefact each cell runs from.
    cell_node: Vec<usize>,
    nodes: Vec<Node>,
    tally: Tally,
}

impl Plan {
    fn of(experiments: &[Experiment]) -> Plan {
        fn first_seen(seen: &mut BTreeMap<String, usize>, key: String) -> usize {
            let next = seen.len();
            *seen.entry(key).or_insert(next)
        }
        let (mut templates, mut chains) = (BTreeMap::new(), BTreeMap::new());
        let keys: Vec<(usize, Option<(usize, SimDuration)>)> = experiments
            .iter()
            .map(|exp| {
                let template = first_seen(&mut templates, exp.template_key());
                let chain = first_seen(&mut chains, exp.prefix_key());
                (template, exp.prefix().map(|at| (chain, at)))
            })
            .collect();
        let mut order: Vec<usize> = (0..experiments.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));

        // The templates come first, so a template's index is its node's.
        let mut nodes: Vec<Node> =
            (0..templates.len()).map(|_| Node::new(None, SimDuration::ZERO)).collect();
        let mut cell_node = vec![0; experiments.len()];
        // The stage node pushed last, with its chain and instant.
        let mut last_stage: Option<(usize, SimDuration, usize)> = None;
        for &i in &order {
            let (template, staged) = keys[i];
            let node = match (staged, last_stage) {
                (None, _) => template,
                (Some((chain, at)), Some((c, a, node))) if (c, a) == (chain, at) => node,
                (Some((chain, at)), last) => {
                    let parent = last.filter(|l| l.0 == chain).map_or(template, |l| l.2);
                    nodes[parent].users += 1;
                    nodes.push(Node::new(Some(parent), at));
                    last_stage = Some((chain, at, nodes.len() - 1));
                    nodes.len() - 1
                }
            };
            nodes[node].users += 1;
            cell_node[i] = node;
        }
        Plan { order, cell_node, nodes, tally: Tally::default() }
    }

    /// Runs cell `i` from its artefact.
    fn run_cell(&self, i: usize, exp: &Experiment) -> DbResult<ExperimentOutcome> {
        match self.claim(self.cell_node[i], exp)? {
            Artefact::Template(template) => exp.run_with_template(&template),
            Artefact::Stage(stage) => exp.run_from(stage),
        }
    }

    /// One user's claim on artefact `node`. The first user builds it while
    /// holding the node's lock, so concurrent users wait for the one
    /// build; a failed build is kept and handed to all of them. The last
    /// user takes the artefact out of the plan, so it is dropped — or, a
    /// warm stage, run on as it is — the moment nobody needs it. `exp` is
    /// any cell under the node.
    fn claim(&self, node: usize, exp: &Experiment) -> Result<Artefact, DbError> {
        let users = self.nodes[node].users;
        let mut state =
            self.nodes[node].state.lock().expect("a worker panicked building a shared artefact");
        if state.claims == 0 {
            state.built = Some(self.build(node, exp));
        }
        state.claims += 1;
        let artefact = if state.claims == users { state.built.take() } else { state.built.clone() };
        artefact.expect("built by the first claim, taken only by the last")
    }

    /// Builds artefact `node`: a setup template from nothing, a warm stage
    /// from a claim on its parent.
    fn build(&self, node: usize, exp: &Experiment) -> Result<Artefact, DbError> {
        let Node { parent, at, .. } = self.nodes[node];
        let Some(parent) = parent else {
            self.tally.templates_built.fetch_add(1, Ordering::Relaxed);
            return exp.build_template().map(|t| Artefact::Template(Arc::new(t)));
        };
        self.tally.prefixes_built.fetch_add(1, Ordering::Relaxed);
        let ran = at.saturating_sub(self.nodes[parent].at).as_micros();
        self.tally.prefix_sim_micros.fetch_add(ran, Ordering::Relaxed);
        let stage = match self.claim(parent, exp)? {
            Artefact::Template(template) => exp.warm_stage(&template, at),
            Artefact::Stage(earlier) => WarmStage::extended(earlier, at),
        };
        stage.map(|s| Artefact::Stage(Arc::new(s)))
    }
}

/// Everything a campaign produced, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    results: Vec<Result<ExperimentOutcome, CampaignError>>,
    template_hits: usize,
    templates_built: usize,
    prefix_hits: usize,
    prefixes_built: usize,
    prefix_sim_secs: f64,
}

impl CampaignReport {
    /// Number of experiments run.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Cells that did not have to build their setup template: they booted
    /// from one already built, or forked a warm stage grown from it.
    pub fn template_hits(&self) -> usize {
        self.template_hits
    }

    /// Distinct setup templates built.
    pub fn templates_built(&self) -> usize {
        self.templates_built
    }

    /// Cells that resumed a warm stage some other cell had built, instead
    /// of running their fault-free prefix.
    pub fn prefix_hits(&self) -> usize {
        self.prefix_hits
    }

    /// Warm stages built: one per group of cells that agree on everything
    /// before the fault and on its instant.
    pub fn prefixes_built(&self) -> usize {
        self.prefixes_built
    }

    /// Simulated seconds of fault-free workload run to build the warm
    /// stages. A stage that extends an earlier one counts only the
    /// extension.
    pub fn prefix_sim_secs(&self) -> f64 {
        self.prefix_sim_secs
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
    /// The table/figure reports use this: a setup failure there is a
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
    use recobench_tpcc::{DriverConfig, TpccScale};

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
    /// count, not of the order the cells were handed in (the campaign runs
    /// them grouped, whatever that order was), and not of whether setup and
    /// the fault-free prefix ran fresh or were forked from a shared stage.
    #[test]
    fn outcomes_are_identical_across_threads_and_templating() {
        let cells = || {
            vec![
                // Three cells sharing one template key (same config, scale,
                // seed): one without a prefix to share, two that fault at
                // the same instant and fork one warm stage.
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
        // `Experiment::run` builds its own setup per cell and runs prefix
        // and tail on one rig: the unshared, unforked reference.
        let baseline: Vec<_> = cells().iter().map(|c| c.run().unwrap()).collect();
        for threads in [1, 4] {
            // Input order as written, then shuffled so that the two cells
            // of the shared stage are apart and out of fault order.
            for order in [[0, 1, 2, 3], [2, 3, 0, 1]] {
                let mut input: Vec<Option<Experiment>> = cells().into_iter().map(Some).collect();
                let report = Campaign::new(order.iter().map(|&i| input[i].take().unwrap()).collect())
                    .threads(threads)
                    .run();
                assert_eq!(report.templates_built(), 2, "two distinct keys");
                assert_eq!(report.template_hits(), 2, "two cells reused one");
                assert_eq!(report.prefixes_built(), 2, "one stage per key");
                assert_eq!(report.prefix_hits(), 1, "the second F10G3T5 fault forked the first's");
                let expected: Vec<_> = order.iter().map(|&i| baseline[i].clone()).collect();
                assert_eq!(
                    report.expect_all(),
                    expected,
                    "threads={threads} order={order:?}: shared stages must replay byte-identically, \
                     in input order"
                );
            }
        }
    }

    /// The paper's three injection instants as one chain: each later stage
    /// is the earlier one run on, not a fresh start, and every cell still
    /// equals its lone run — also the ones with nothing to share.
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
            // Due after the end of the run: never fires, shares nothing.
            cells.push(cell(FaultType::ShutdownAbort, 500, 150));
            cells
        };
        let baseline: Vec<_> = cells().iter().map(|c| c.run().unwrap()).collect();
        assert!(baseline[6].measures.recovery_time_secs.is_none(), "the late fault never fired");
        for threads in [1, 3] {
            let report = Campaign::new(cells()).threads(threads).run();
            assert_eq!((report.templates_built(), report.template_hits()), (1, 6));
            assert_eq!((report.prefixes_built(), report.prefix_hits()), (3, 3));
            assert_eq!(
                report.prefix_sim_secs(),
                180.0,
                "60 s, then 60 -> 120 s and 120 -> 180 s; three fresh starts would be 360"
            );
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
                .driver(DriverConfig { terminals: n, ..DriverConfig::default() })
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
    fn run_indexed_preserves_index_order() {
        for threads in [1, 3] {
            let out = run_indexed(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_indexed(0, 3, |i| i).is_empty());
    }

    /// One worker is the caller itself: no job and no progress tick of a
    /// one-thread campaign leaves the calling thread.
    #[test]
    fn one_worker_runs_everything_on_the_caller() {
        let caller = std::thread::current().id();
        let ran = run_indexed(9, 1, |_| std::thread::current().id());
        assert!(ran.iter().all(|&id| id == caller), "every job ran on the caller");

        let ticks: Arc<Mutex<Vec<std::thread::ThreadId>>> = Arc::default();
        let sink = Arc::clone(&ticks);
        let report = Campaign::new(vec![mk("F10G3T5", None), mk("F40G3T10", None)])
            .threads(1)
            .on_progress(move |_| sink.lock().unwrap().push(std::thread::current().id()))
            .run();
        assert_eq!(report.failures().count(), 0);
        assert_eq!(*ticks.lock().unwrap(), vec![caller; 2], "every tick arrived on the caller");
    }

    /// A panic in a job the caller runs still waits for the spawned
    /// workers: they finish every other job before it propagates.
    #[test]
    #[should_panic(expected = "a job on the caller")]
    fn a_panic_on_the_caller_propagates_after_the_other_workers_finish() {
        let (n, caller) = (12, std::thread::current().id());
        let finished = AtomicUsize::new(0);
        // The spawned workers hold back until the caller has claimed a
        // job, so one surely lands on it.
        let (claimed, wake) = (Mutex::new(false), std::sync::Condvar::new());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(n, 3, |_| {
                if std::thread::current().id() == caller {
                    *claimed.lock().unwrap() = true;
                    wake.notify_all();
                    panic!("a job on the caller");
                }
                let held = claimed.lock().unwrap();
                let wait = std::time::Duration::from_secs(10);
                drop(wake.wait_timeout_while(held, wait, |claimed| !*claimed).unwrap());
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the caller's panic reaches the caller");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            n - 1,
            "the spawned workers ran every job but the one that panicked"
        );
        std::panic::resume_unwind(payload);
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
