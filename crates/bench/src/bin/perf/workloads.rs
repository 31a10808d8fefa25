//! The seven workloads: how each builds its operations from the seed, how
//! a run is sized, and the untraced pass that the end-to-end metrics come
//! from. The program under test only ever sees the generated inputs
//! (experiment lists, snapshots, schedules). Load is closed-loop: a worker
//! takes its next operation when the previous one completes.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use recobench_core::{Campaign, CampaignError, Experiment, ExperimentOutcome, RecoveryConfig};
use recobench_engine::{DbResult, DbServer, DbSnapshot, DiskLayout};
use recobench_faults::{FaultInjector, FaultPlan, FaultSchedule, FaultType, TortureFaultKind};
use recobench_oracle::{TortureOutcome, TortureRunner};
use recobench_sim::{SimClock, SimDuration, SimRng};
use recobench_tpcc::{
    check_consistency, create_schema, load_database, DriverConfig, TpccDriver, TpccScale,
    TpccSchema,
};

use crate::stats::{cpu_seconds, ms_between, now};
use crate::trace::{disk_stats, spanned, Tracer, Window};
use crate::traced;

/// Datafile provisioning every database here uses (`Experiment`'s default).
pub const DATAFILES: u32 = 8;
pub const BLOCKS_PER_FILE: u64 = 768;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignMini,
    CampaignMiniT2,
    OltpFit,
    OltpSpill,
    OltpContended,
    RecoveryReplay,
    TortureOracle,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::CampaignMini,
        Workload::CampaignMiniT2,
        Workload::OltpFit,
        Workload::OltpSpill,
        Workload::OltpContended,
        Workload::RecoveryReplay,
        Workload::TortureOracle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignMini => "campaign_mini",
            Workload::CampaignMiniT2 => "campaign_mini_t2",
            Workload::OltpFit => "oltp_fit",
            Workload::OltpSpill => "oltp_spill",
            Workload::OltpContended => "oltp_contended",
            Workload::RecoveryReplay => "recovery_replay",
            Workload::TortureOracle => "torture_oracle",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations in the full-size list.
    pub fn full_len(self) -> usize {
        match self {
            Workload::CampaignMini | Workload::CampaignMiniT2 => 51,
            Workload::OltpFit => 8,
            Workload::OltpSpill => 4,
            Workload::OltpContended => 32,
            Workload::RecoveryReplay => 48,
            Workload::TortureOracle => 40,
        }
    }

    /// Host seconds the full-size timed pass took on the 2-core reference
    /// box at the commit that defined the benchmark. `--seconds S` sizes a
    /// run to the fraction `S / nominal` of the full list, so the work in a
    /// run is a fixed function of `S`, never of how fast the host is.
    pub fn nominal_secs(self) -> f64 {
        match self {
            Workload::CampaignMini => 10.5,
            Workload::CampaignMiniT2 => 5.8,
            Workload::OltpFit => 8.5,
            Workload::OltpSpill => 12.0,
            Workload::OltpContended => 8.5,
            Workload::RecoveryReplay => 16.5,
            Workload::TortureOracle => 20.0,
        }
    }

    /// Campaign worker threads (never more than the host has cores).
    pub fn workers(self) -> usize {
        match self {
            Workload::CampaignMiniT2 => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            _ => 1,
        }
    }
}

/// How much of a workload's full list one run executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// The whole list, as the issue sized it.
    Full,
    /// The fraction of the list that took this many seconds on the
    /// reference box.
    Seconds(f64),
    /// Toy size, for the benchmark's own tests.
    Smoke,
}

impl Size {
    fn smoke(self) -> bool {
        self == Size::Smoke
    }

    /// Share of the full list to run. A traced run does the list twice
    /// (once through the product API, once by hand), so it takes half.
    fn fraction(self, w: Workload, traced: bool) -> f64 {
        match self {
            Size::Full | Size::Smoke => 1.0,
            Size::Seconds(s) => (s / w.nominal_secs() / if traced { 2.0 } else { 1.0 }).min(1.0),
        }
    }

    fn count(self, w: Workload, traced: bool, smoke_n: usize) -> usize {
        if self.smoke() {
            return smoke_n;
        }
        let len = w.full_len();
        ((len as f64 * self.fraction(w, traced)).round() as usize).clamp(1, len)
    }

    fn sim_secs(self, w: Workload, traced: bool, full: u64, smoke_secs: u64) -> u64 {
        if self.smoke() {
            return smoke_secs;
        }
        ((full as f64 * self.fraction(w, traced)).round() as u64).clamp(60, full)
    }
}

/// The first `n` entries of `list` in an order whose every prefix is an
/// even sample of the whole: entry `i` is `list[i * g % len]` with `g`
/// coprime to `len` and near `0.618 * len`. A sized-down run therefore
/// keeps the list's mix of faults and configurations.
pub fn spread_prefix<T: Clone>(list: &[T], n: usize) -> Vec<T> {
    let len = list.len();
    if len == 0 {
        return Vec::new();
    }
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let g = (((len as f64) * 0.618).round() as usize..)
        .find(|g| gcd(*g, len) == 1)
        .unwrap_or(1);
    (0..n.min(len)).map(|i| list[i * g % len].clone()).collect()
}

/// One experiment cell, in a form both the `Experiment` builder and the
/// hand-driven traced cell can read (`Experiment`'s fields are private).
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub config: RecoveryConfig,
    pub scale: TpccScale,
    pub duration_secs: u64,
    /// Fault type and trigger offset in simulated seconds.
    pub fault: Option<(FaultType, u64)>,
    pub driver: DriverConfig,
    pub seed: u64,
}

impl CellSpec {
    pub fn experiment(&self) -> Experiment {
        let mut b = Experiment::builder(self.config.clone())
            .archive_logs(true)
            .duration_secs(self.duration_secs)
            .scale(self.scale)
            .driver(self.driver)
            .seed(self.seed);
        if let Some((fault, at)) = self.fault {
            b = b.fault(fault, at);
        }
        b.build()
    }
}

/// Eight terminals with near-zero think and keying times, so every district
/// and stock row is fought over.
fn contended_driver() -> DriverConfig {
    DriverConfig {
        terminals: 8,
        mean_think: SimDuration::from_micros(200),
        mean_keying: SimDuration::from_micros(50),
        retry_interval: SimDuration::from_millis(100),
    }
}

fn named(name: &str) -> RecoveryConfig {
    RecoveryConfig::named(name).expect("a Table 3 configuration name")
}

/// The mini campaign exactly as `campaign_wallclock` builds it: every fault
/// type x the eight archive configurations at one trigger, two fault-free
/// cells, one contended eight-terminal cell.
fn mini_campaign(seed: u64, run_secs: u64, trigger: u64) -> Vec<CellSpec> {
    let configs = RecoveryConfig::archive_subset();
    let cell = |config: &RecoveryConfig, duration_secs, fault, seed| CellSpec {
        config: config.clone(),
        scale: TpccScale::tiny(),
        duration_secs,
        fault,
        driver: DriverConfig::default(),
        seed,
    };
    let mut cells = Vec::new();
    for f in FaultType::all() {
        for c in &configs {
            cells.push(cell(c, run_secs + trigger, Some((f, trigger)), seed));
        }
    }
    for (i, c) in configs.iter().take(2).enumerate() {
        cells.push(cell(c, run_secs, None, seed + i as u64));
    }
    cells.push(CellSpec {
        driver: contended_driver(),
        ..cell(&configs[0], 2, None, seed)
    });
    cells
}

/// The experiment cells of a cell workload at this size.
pub fn cells(w: Workload, seed: u64, size: Size, traced: bool) -> Vec<CellSpec> {
    let fault_free = |config: RecoveryConfig, scale, duration_secs, driver, seed| CellSpec {
        config,
        scale,
        duration_secs,
        fault: None,
        driver,
        seed,
    };
    match w {
        Workload::CampaignMini | Workload::CampaignMiniT2 => {
            let (run_secs, trigger) = if size.smoke() { (30, 10) } else { (280, 100) };
            spread_prefix(
                &mini_campaign(seed, run_secs, trigger),
                size.count(w, traced, 3),
            )
        }
        Workload::OltpFit => {
            let secs = size.sim_secs(w, traced, 1_200, 20);
            let configs = RecoveryConfig::archive_subset();
            let n = if size.smoke() { 1 } else { configs.len() };
            configs
                .into_iter()
                .take(n)
                .map(|c| fault_free(c, TpccScale::tiny(), secs, DriverConfig::default(), seed))
                .collect()
        }
        Workload::OltpSpill => {
            let secs = size.sim_secs(w, traced, 1_200, 10);
            let names = ["F1G3T1", "F1G6T1", "F10G3T1", "F40G3T10"];
            let n = if size.smoke() { 1 } else { names.len() };
            names
                .iter()
                .take(n)
                .map(|c| {
                    fault_free(
                        named(c),
                        TpccScale::mini(),
                        secs,
                        DriverConfig::default(),
                        seed,
                    )
                })
                .collect()
        }
        Workload::OltpContended => {
            let secs = if size.smoke() { 1 } else { 60 };
            let config = RecoveryConfig::archive_subset().swap_remove(0);
            let all: Vec<CellSpec> = (0..w.full_len() as u64)
                .map(|i| {
                    fault_free(
                        config.clone(),
                        TpccScale::tiny(),
                        secs,
                        contended_driver(),
                        seed + i,
                    )
                })
                .collect();
            spread_prefix(&all, size.count(w, traced, 2))
        }
        Workload::RecoveryReplay | Workload::TortureOracle => Vec::new(),
    }
}

/// A pre-fault database image for `recovery_replay`, with the driver whose
/// client-side order log the lost-order audit needs.
pub struct ReplayImage {
    pub snapshot: DbSnapshot,
    pub schema: TpccSchema,
    pub driver: TpccDriver,
}

/// One `recovery_replay` operation: boot `image`, inject `fault`, recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOp {
    pub image: usize,
    pub fault: FaultType,
}

/// Creates, loads and cold-backs-up a fresh database, exactly as
/// `Experiment::build_template` does. Returns the RNG with stream 1 (the
/// load) already forked off, ready to fork stream 2 for a driver.
pub fn fresh_database(
    name: &str,
    config: &RecoveryConfig,
    scale: TpccScale,
    seed: u64,
    tracer: &mut Option<&mut Tracer>,
) -> DbResult<(DbServer, TpccSchema, SimRng)> {
    let mut srv = DbServer::on_fresh_disks(
        name,
        SimClock::shared(),
        DiskLayout::four_disk(),
        config.to_instance_config(true),
    );
    spanned(tracer, "engine.server.create_database", || {
        srv.create_database()
    })?;
    let mut rng = SimRng::seed_from(seed);
    let schema = spanned(tracer, "tpcc.schema.create_schema", || {
        create_schema(&mut srv, scale, DATAFILES, BLOCKS_PER_FILE)
    })?;
    let mut load_rng = rng.fork(1);
    spanned(tracer, "tpcc.gen.load_database", || {
        load_database(&mut srv, &schema, &mut load_rng)
    })?;
    spanned(tracer, "engine.backup.cold_backup", || {
        srv.take_cold_backup()
    })?;
    Ok((srv, schema, rng))
}

/// Runs `secs` simulated seconds of TPC-C on a fresh database, drains the
/// terminals and captures the result.
fn replay_image(
    config: &RecoveryConfig,
    scale: TpccScale,
    secs: u64,
    seed: u64,
) -> DbResult<ReplayImage> {
    let (mut srv, schema, mut rng) = fresh_database("REPLAY", config, scale, seed, &mut None)?;
    let t0 = srv.clock().now();
    let end = t0 + SimDuration::from_secs(secs);
    let mut driver = TpccDriver::new(schema, DriverConfig::default(), rng.fork(2), t0);
    while driver.next_ready() < end {
        driver.step(&mut srv);
    }
    srv.clock().advance_to(end);
    driver.quiesce(&mut srv);
    Ok(ReplayImage {
        snapshot: srv.snapshot(),
        schema,
        driver,
    })
}

/// The `recovery_replay` operation list: repetition-major, so any prefix
/// covers both images and all six fault types evenly.
pub fn replay_ops(size: Size, traced: bool, images: usize) -> Vec<ReplayOp> {
    let reps = if size.smoke() { 1 } else { 4 };
    let all: Vec<ReplayOp> = (0..reps)
        .flat_map(|_| {
            (0..images).flat_map(|image| FaultType::all().map(|fault| ReplayOp { image, fault }))
        })
        .collect();
    spread_prefix(&all, size.count(Workload::RecoveryReplay, traced, 2))
}

/// The seed whose forty schedules are the torture corpus.
const CORPUS_SEED: u64 = 42;

/// The torture schedules: a fixed corpus of forty, each 1-4 faults from the
/// extended pool over 300 simulated seconds with nothing before 30 s — the
/// `torture` binary's sweep recipe, so `torture --faultload extended --seed
/// 42` sweeps the same forty. The run's `--seed` does not reach them: at the
/// commit that defined the benchmark roughly one freshly drawn extended-pool
/// schedule in three hundred ends in an oracle divergence (README, known
/// defects), and a workload must be one on which no operation fails. A
/// sized run takes the same spread prefix of the corpus whatever the seed.
pub fn schedules(size: Size, traced: bool) -> Vec<FaultSchedule> {
    let w = Workload::TortureOracle;
    let (duration, min_at) = if size.smoke() { (40, 10) } else { (300, 30) };
    let corpus: Vec<FaultSchedule> = (0..w.full_len())
        .map(|idx| {
            let mut rng = SimRng::seed_from(CORPUS_SEED + idx as u64);
            FaultSchedule::random_from(
                &mut rng,
                &TortureFaultKind::all_extended(),
                1 + idx % 4,
                duration,
                min_at,
            )
        })
        .collect();
    spread_prefix(&corpus, size.count(w, traced, 1))
}

/// Everything a pass needs, as set-up leaves it.
pub enum Plan {
    Cells(Vec<CellSpec>),
    /// `verify` is how many fault types get their first recovered database
    /// walked by `verify_integrity` after the clock stops: all six at full
    /// size, one in a sized run (the walk costs seconds per database).
    Replay {
        images: Vec<ReplayImage>,
        ops: Vec<ReplayOp>,
        verify: usize,
    },
    Torture(Vec<FaultSchedule>),
}

impl Plan {
    pub fn len(&self) -> usize {
        match self {
            Plan::Cells(cells) => cells.len(),
            Plan::Replay { ops, .. } => ops.len(),
            Plan::Torture(schedules) => schedules.len(),
        }
    }
}

/// Set-up: generates the operation list, builds the pre-fault images
/// (`recovery_replay`) and runs one short warm-up operation so the first
/// timed one does not pay for cold allocator arenas and instruction caches.
pub fn setup(w: Workload, seed: u64, size: Size, traced: bool) -> Result<Plan, String> {
    let setup_err = |e| format!("{} set-up failed: {e}", w.name());
    match w {
        Workload::RecoveryReplay => {
            let (names, scale, secs): (&[&str], _, _) = if size.smoke() {
                (&["F1G3T1"], TpccScale::tiny(), 30)
            } else {
                (&["F1G3T1", "F40G3T10"], TpccScale::mini(), 600)
            };
            let images = names
                .iter()
                .map(|c| replay_image(&named(c), scale, secs, seed))
                .collect::<DbResult<Vec<_>>>()
                .map_err(setup_err)?;
            let ops = replay_ops(size, traced, images.len());
            let verify = if size == Size::Full {
                FaultType::all().len()
            } else {
                1
            };
            Ok(Plan::Replay {
                images,
                ops,
                verify,
            })
        }
        Workload::TortureOracle => {
            TortureRunner::default()
                .run(&FaultSchedule::quiet(
                    seed,
                    if size.smoke() { 10 } else { 100 },
                ))
                .map_err(setup_err)?;
            Ok(Plan::Torture(schedules(size, traced)))
        }
        _ => {
            let cells = cells(w, seed, size, traced);
            let warm_up = CellSpec {
                duration_secs: cells[0].duration_secs.min(300),
                fault: None,
                ..cells[0].clone()
            };
            warm_up.experiment().run().map_err(setup_err)?;
            Ok(Plan::Cells(cells))
        }
    }
}

/// The simulated-time facts of one finished operation. Host-independent:
/// the same seed must give the same facts on any machine and any build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    /// Why the operation counts as failed, if it does.
    pub failed: Option<String>,
    pub commits: u64,
    /// tpmC over the operation's fault-free window.
    pub tpmc: Option<f64>,
    /// Simulated seconds from each fault to service being back.
    pub recoveries: Vec<f64>,
    pub lost: u64,
    pub records_applied: u64,
    /// The whole outcome, as text, for `sim_digest`.
    pub repr: String,
}

impl Facts {
    pub fn failure(why: String) -> Facts {
        Facts {
            repr: why.clone(),
            failed: Some(why),
            ..Facts::default()
        }
    }

    fn of_cell(result: &Result<ExperimentOutcome, CampaignError>) -> Facts {
        let out = match result {
            Ok(out) => out,
            Err(e) => return Facts::failure(format!("set-up error: {e}")),
        };
        let m = &out.measures;
        let failed = if out.unrecoverable {
            Some("unrecoverable on an archive-mode configuration".to_string())
        } else if m.integrity_violations > 0 {
            Some(format!("{} integrity violations", m.integrity_violations))
        } else {
            None
        };
        Facts {
            failed,
            commits: m.total_commits,
            tpmc: Some(m.tpmc),
            recoveries: m.recovery_time_secs.into_iter().collect(),
            lost: m.lost_transactions,
            records_applied: out.recovery_records_applied,
            repr: format!("{out:?}"),
        }
    }

    fn of_torture(result: &DbResult<TortureOutcome>) -> Facts {
        let out = match result {
            Ok(out) => out,
            Err(e) => return Facts::failure(format!("set-up error: {e}")),
        };
        let failed = if out.diverged() {
            Some(format!("{} oracle divergences", out.divergences.len()))
        } else if out.unrecoverable {
            Some("unrecoverable on an archive-mode configuration".to_string())
        } else {
            None
        };
        let recoveries = out
            .faults
            .iter()
            .filter_map(|f| Some(f.ready_at?.saturating_since(f.injected_at?).as_secs_f64()))
            .collect();
        Facts {
            failed,
            commits: out.commits,
            tpmc: None,
            recoveries,
            lost: out.lost_commits,
            records_applied: 0,
            repr: format!("{out:?}"),
        }
    }
}

/// One finished operation: its host cost and its simulated facts.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Host milliseconds of the operation's timed part.
    pub host_ms: f64,
    /// Process CPU seconds of the timed part, where it is not the whole
    /// operation (`recovery_replay`).
    pub cpu_s: f64,
    /// Host seconds inside `FaultInjector::recover` (`recovery_replay`).
    pub recover_host_s: f64,
    pub facts: Facts,
}

/// One pass over a plan.
pub struct Pass {
    pub ops: Vec<OpResult>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub workers: usize,
}

/// Per-cell host times of a campaign, from outside: each worker's time
/// between consecutive completions (the first counts from campaign start).
/// Template builds and pool hand-off land in the cell that paid for them.
fn cell_times_ms(start: Instant, log: &mut [(usize, ThreadId, Instant)], n: usize) -> Vec<f64> {
    log.sort_by_key(|(_, _, at)| *at);
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    let mut times = vec![0.0; n];
    for (index, thread, at) in log.iter() {
        let prev = match last.iter_mut().find(|(t, _)| t == thread) {
            Some((_, prev)) => std::mem::replace(prev, *at),
            None => {
                last.push((*thread, *at));
                start
            }
        };
        times[*index] = ms_between(prev, *at);
    }
    times
}

pub fn cells_pass(cells: &[CellSpec], workers: usize) -> Pass {
    let experiments: Vec<Experiment> = cells.iter().map(CellSpec::experiment).collect();
    let log = Arc::new(Mutex::new(Vec::with_capacity(cells.len())));
    let sink = Arc::clone(&log);
    let campaign = Campaign::new(experiments)
        .threads(workers)
        .on_progress(move |p| {
            let at = now();
            sink.lock().expect("progress log poisoned").push((
                p.index,
                std::thread::current().id(),
                at,
            ));
        });
    let (cpu0, start) = (cpu_seconds(), now());
    let report = campaign.run();
    let (wall_s, cpu_s) = (ms_between(start, now()) / 1e3, cpu_seconds() - cpu0);
    let times = cell_times_ms(
        start,
        &mut log.lock().expect("progress log poisoned"),
        cells.len(),
    );
    let ops = report
        .results()
        .iter()
        .zip(times)
        .map(|(r, host_ms)| OpResult {
            host_ms,
            cpu_s: 0.0,
            recover_host_s: 0.0,
            facts: Facts::of_cell(r),
        })
        .collect();
    Pass {
        ops,
        wall_s,
        cpu_s,
        workers,
    }
}

/// One `recovery_replay` operation. The timed part is boot, inject and
/// recover; the consistency check and lost-order audit that follow are the
/// correctness gate and stay outside it. Returns the recovered server so
/// the caller can walk its integrity, untimed.
pub fn replay_op(
    image: &ReplayImage,
    fault: FaultType,
    mut tracer: Option<&mut Tracer>,
) -> (OpResult, Option<DbServer>) {
    let t = &mut tracer;
    let (cpu0, start) = (cpu_seconds(), now());
    let mut srv = spanned(t, "engine.snapshot.boot", || {
        DbServer::from_snapshot(SimClock::shared(), &image.snapshot)
    });
    let phases = t.is_some().then(|| traced::watch_phases(&mut srv));
    let (stats0, disks0) = (srv.stats(), t.is_some().then(|| disk_stats(&srv)));
    let injector = FaultInjector::new(FaultPlan::new(fault, 0));
    let failure = |why: String, from: Instant| {
        let facts = Facts::failure(why);
        (
            OpResult {
                host_ms: ms_between(from, now()),
                cpu_s: 0.0,
                recover_host_s: 0.0,
                facts,
            },
            None,
        )
    };
    let record = match spanned(t, "faults.injector.inject", || injector.inject(&mut srv)) {
        Ok(record) => record,
        Err(e) => return failure(format!("injection failed: {e}"), start),
    };
    let recover_from = now();
    let recovered = match (t.as_deref_mut(), &phases) {
        (Some(t), Some(phases)) => traced::recover(t, phases, &injector, &mut srv, &record),
        _ => injector.recover(&mut srv, &record),
    };
    let (cpu_s, end) = (cpu_seconds() - cpu0, now());
    if let (Some(t), Some(disks0)) = (t.as_deref_mut(), &disks0) {
        let sim_us = srv
            .clock()
            .now()
            .saturating_since(record.injected_at)
            .as_micros();
        t.windows
            .push(Window::between(&srv, &stats0, disks0, sim_us));
    }
    let outcome = match recovered {
        Ok(outcome) => outcome,
        Err(e) => {
            return failure(
                format!("unrecoverable on an archive-mode configuration: {e}"),
                start,
            )
        }
    };
    let violations = spanned(t, "tpcc.consistency.check", || {
        check_consistency(&srv, &image.schema)
    })
    .map(|r| r.violation_count());
    let lost = spanned(t, "tpcc.driver.audit", || {
        image.driver.audit_lost_orders(&srv)
    });
    let failed = match (&violations, &lost) {
        (Err(e), _) => Some(format!("check_consistency failed: {e}")),
        (_, Err(e)) => Some(format!("audit_lost_orders failed: {e}")),
        (Ok(v), _) if *v > 0 => Some(format!("{v} integrity violations")),
        _ => None,
    };
    let lost = lost.unwrap_or(0);
    let facts = Facts {
        failed,
        commits: 0,
        tpmc: None,
        recoveries: vec![outcome
            .recovery_finished_at
            .saturating_since(record.injected_at)
            .as_secs_f64()],
        lost,
        records_applied: outcome.records_applied,
        repr: format!("{outcome:?} lost={lost} violations={violations:?}"),
    };
    let op = OpResult {
        host_ms: ms_between(start, end),
        cpu_s,
        recover_host_s: ms_between(recover_from, end) / 1e3,
        facts,
    };
    (op, Some(srv))
}

/// `verify_integrity` on a recovered server, untimed; a finding fails `op`.
pub fn verify_recovered(srv: &DbServer, op: &mut OpResult) -> u64 {
    match srv.verify_integrity() {
        Ok(report) if report.is_clean() => report.blocks_checksummed,
        Ok(report) => {
            op.facts
                .failed
                .get_or_insert(format!("verify_integrity: {:?}", report.violations));
            report.blocks_checksummed
        }
        Err(e) => {
            op.facts
                .failed
                .get_or_insert(format!("verify_integrity failed: {e}"));
            0
        }
    }
}

/// The pass's wall and CPU time are the sums over the operations' timed
/// parts: the checks between them are the correctness gate, not the work
/// under test.
fn replay_pass(images: &[ReplayImage], ops: &[ReplayOp], verify: usize) -> Pass {
    let mut results = Vec::with_capacity(ops.len());
    // The first recovered server of each fault type is kept for the
    // integrity walk after the clock stops.
    let mut to_verify: Vec<(FaultType, usize, DbServer)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let (result, srv) = replay_op(&images[op.image], op.fault, None);
        results.push(result);
        let wanted = to_verify.len() < verify && to_verify.iter().all(|(f, ..)| *f != op.fault);
        if let Some(srv) = srv.filter(|_| wanted) {
            to_verify.push((op.fault, i, srv));
        }
    }
    for (_, i, srv) in &to_verify {
        verify_recovered(srv, &mut results[*i]);
    }
    let wall_s = results.iter().map(|op| op.host_ms).sum::<f64>() / 1e3;
    let cpu_s = results.iter().map(|op| op.cpu_s).sum();
    Pass {
        ops: results,
        wall_s,
        cpu_s,
        workers: 1,
    }
}

/// One torture schedule through the differential oracle.
pub fn torture_op(schedule: &FaultSchedule) -> OpResult {
    let start = now();
    let result = TortureRunner::default().run(schedule);
    OpResult {
        host_ms: ms_between(start, now()),
        cpu_s: 0.0,
        recover_host_s: 0.0,
        facts: Facts::of_torture(&result),
    }
}

/// The untraced pass: every operation of the plan through the product's
/// own API, timed from outside.
pub fn untraced_pass(plan: &Plan, workers: usize) -> Pass {
    match plan {
        Plan::Cells(cells) => cells_pass(cells, workers),
        Plan::Replay {
            images,
            ops,
            verify,
        } => replay_pass(images, ops, *verify),
        Plan::Torture(schedules) => {
            let (cpu0, start) = (cpu_seconds(), now());
            let ops = schedules.iter().map(torture_op).collect();
            Pass {
                ops,
                wall_s: ms_between(start, now()) / 1e3,
                cpu_s: cpu_seconds() - cpu0,
                workers,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lists_have_the_sizes_the_issue_fixed() {
        for w in Workload::ALL {
            let n = match w {
                Workload::RecoveryReplay => replay_ops(Size::Full, false, 2).len(),
                Workload::TortureOracle => schedules(Size::Full, false).len(),
                _ => cells(w, 42, Size::Full, false).len(),
            };
            assert_eq!(n, w.full_len(), "{}", w.name());
        }
        let sizes: Vec<usize> = Workload::ALL.iter().map(|w| w.full_len()).collect();
        assert_eq!(sizes, [51, 51, 8, 4, 32, 48, 40]);
    }

    #[test]
    fn mini_campaign_matches_campaign_wallclock() {
        let cells = mini_campaign(42, 280, 100);
        assert_eq!(cells.iter().filter(|c| c.fault.is_some()).count(), 48);
        assert!(cells[..48]
            .iter()
            .all(|c| c.duration_secs == 380 && c.fault.unwrap().1 == 100));
        assert_eq!((cells[48].seed, cells[49].seed), (42, 43));
        assert_eq!(
            (cells[50].driver.terminals, cells[50].duration_secs),
            (8, 2)
        );
    }

    #[test]
    fn seed_reaches_every_cell_generator_and_no_torture_schedule() {
        for w in [
            Workload::CampaignMini,
            Workload::OltpFit,
            Workload::OltpSpill,
            Workload::OltpContended,
        ] {
            let seeds = |seed| {
                cells(w, seed, Size::Full, false)
                    .iter()
                    .map(|c| c.seed)
                    .collect::<Vec<_>>()
            };
            assert_ne!(seeds(1), seeds(2), "{}", w.name());
        }
        let contended = cells(Workload::OltpContended, 7, Size::Full, false);
        let mut seeds: Vec<u64> = contended.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, (7..39).collect::<Vec<_>>(), "32 distinct seeds");
        // The torture corpus is fixed: the seed reaches only the fault-free
        // warm-up, never the forty schedules.
        let plan = |seed| match setup(Workload::TortureOracle, seed, Size::Smoke, false) {
            Ok(Plan::Torture(schedules)) => schedules,
            _ => panic!("torture_oracle sets up a torture plan"),
        };
        assert_eq!(plan(1), plan(2));
        assert_eq!(plan(1), schedules(Size::Smoke, false));
    }

    #[test]
    fn every_prefix_of_the_spread_order_keeps_the_mix() {
        let ops = replay_ops(Size::Full, false, 2);
        for n in [6, 12, 18, 24, 30, 48] {
            let prefix = &ops[..n];
            for fault in FaultType::all() {
                assert_eq!(
                    prefix.iter().filter(|o| o.fault == fault).count(),
                    n / 6,
                    "{n} {fault:?}"
                );
            }
            assert_eq!(prefix.iter().filter(|o| o.image == 0).count(), n / 2, "{n}");
        }
        let all: Vec<usize> = (0..51).collect();
        let mut picked = spread_prefix(&all, 51);
        picked.sort_unstable();
        assert_eq!(picked, all, "the order is a permutation");
        assert_eq!(spread_prefix(&all, 200).len(), 51);
    }

    #[test]
    fn seconds_size_a_run_as_a_fraction_of_the_reference_time() {
        let w = Workload::RecoveryReplay;
        assert_eq!(Size::Seconds(8.25).count(w, false, 2), 24);
        assert_eq!(
            Size::Seconds(8.25).count(w, true, 2),
            12,
            "a traced run does the list twice"
        );
        assert_eq!(
            Size::Seconds(600.0).count(w, false, 2),
            48,
            "never more than the full list"
        );
        assert_eq!(Size::Seconds(0.01).count(w, false, 2), 1);
        assert_eq!(
            Size::Seconds(4.25).sim_secs(Workload::OltpFit, false, 1_200, 20),
            600
        );
        assert_eq!(
            Size::Smoke.sim_secs(Workload::OltpFit, false, 1_200, 20),
            20
        );
    }
}
