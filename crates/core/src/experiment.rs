//! One benchmark experiment: the paper's §4 procedure.
//!
//! Setup (database creation, TPC-C load, cold backup, optional stand-by
//! instantiation) happens before the workload timer starts; the fault
//! triggers at its offset from workload start; the recovery procedure runs
//! immediately after the (constant, small) detection time; the driver
//! keeps submitting transactions until the 20 simulated minutes are over;
//! then the measures are evaluated.

use recobench_engine::stats::EngineStats;
use recobench_engine::{
    DbResult, DbServer, DbSnapshot, DiskLayout, EngineEvent, FailoverPolicy, RecoveryPhase,
    ReplicaSet, ReplicaTopology,
};
use recobench_faults::{FaultInjector, FaultPlan, FaultType};
use recobench_sim::{SimClock, SimDuration, SimTime};
use recobench_tpcc::{
    check_consistency, AvailabilityTimeline, DriverConfig, TpccScale, TpccSchema,
};
use std::sync::{Arc, Mutex};

use crate::configs::RecoveryConfig;
use crate::measures::{Measures, RecoveryBreakdown};
use crate::rig::{set_up, Rig};

/// A recovery-phase span observed on one of the experiment's servers:
/// `(end, phase, start)`, in record order.
type SpanLog = Arc<Mutex<Vec<(SimTime, RecoveryPhase, SimTime)>>>;

/// Applies the imprecision of time-based incomplete recovery to an
/// injection record: `RECOVER UNTIL TIME` stops at the SCN in force
/// `margin` *before* the fault, so the record's pre-fault SCN is clamped
/// down to the latest trail entry at or before that cutoff. `trail` is
/// the rolling `(time, SCN)` series the harness samples between client
/// transactions; an empty or too-recent trail leaves the record alone
/// (nothing committed in the margin, nothing extra to lose).
///
/// [`Rig::inject`] applies it for both fault-driving runners — the
/// torture runner's differential model must truncate at exactly the SCN
/// the engine will recover to; the frozen `perf` benchmark calls it
/// directly.
pub fn apply_margin_cutoff(
    record: &mut recobench_faults::InjectionRecord,
    trail: &[(SimTime, recobench_engine::Scn)],
    margin: SimDuration,
) {
    let cutoff = SimTime::from_micros(
        record.injected_at.as_micros().saturating_sub(margin.as_micros()),
    );
    if let Some((_, scn)) = trail.iter().rev().find(|(t, _)| *t <= cutoff) {
        record.scn_before = (*scn).min(record.scn_before);
    }
}

/// The name of every experiment's primary.
const PRIMARY: &str = "PRIMARY";

/// Subscribes the experiment's observers on one server's event sink: the
/// span collector during the measured phase, the JSONL writer when events
/// are captured.
fn observe(
    server: &mut DbServer,
    name: &str,
    spans: Option<&SpanLog>,
    jsonl: Option<&Arc<Mutex<String>>>,
) {
    let sink = server.events_mut();
    if let Some(spans) = spans {
        let spans = Arc::clone(spans);
        sink.subscribe(move |at, ev| {
            if let EngineEvent::PhaseSpan { phase, started_at } = ev {
                spans.lock().unwrap().push((at, *phase, *started_at));
            }
        });
    }
    if let Some(buf) = jsonl {
        let buf = Arc::clone(buf);
        let name = name.to_string();
        sink.subscribe(move |at, ev| {
            let mut out = buf.lock().unwrap();
            ev.write_json(at, &name, &mut out);
            out.push('\n');
        });
    }
}

/// A reusable setup snapshot: the loaded-and-backed-up database image one
/// experiment's setup phase produces, captured so that every cell with the
/// same setup inputs can boot a copy-on-write clone instead of repeating
/// the load. Built by [`Experiment::build_template`], consumed by
/// [`Experiment::run_with_template`]; [`Campaign`](crate::Campaign)
/// deduplicates templates by [`Experiment::template_key`] and shares them
/// across worker threads.
#[derive(Debug)]
pub struct ExperimentTemplate {
    snapshot: DbSnapshot,
    schema: TpccSchema,
    setup_jsonl: String,
    key: String,
}

impl ExperimentTemplate {
    /// The setup-identity key this template was built for.
    pub fn key(&self) -> &str {
        &self.key
    }
}

/// A measured phase in progress: the rig, and what its observers have
/// collected since set-up.
#[derive(Debug)]
struct Stage {
    rig: Rig,
    schema: TpccSchema,
    spans: SpanLog,
    jsonl: Option<Arc<Mutex<String>>>,
    /// The primary's counters at workload start.
    stats0: EngineStats,
}

impl Stage {
    /// Subscribes the measured phase's observers on every node `rig` has
    /// or later creates.
    fn watch(rig: &mut Rig, spans: &SpanLog, jsonl: Option<&Arc<Mutex<String>>>) {
        let (spans, jsonl) = (Arc::clone(spans), jsonl.cloned());
        rig.observe(Box::new(move |server, name| {
            observe(server, name, Some(&spans), jsonl.as_ref());
        }));
    }

    /// Runs the fault-free workload on to `at` after workload start (see
    /// [`Rig::run_until`]: the stage stays resumable and forkable).
    fn advance(&mut self, at: SimDuration) -> DbResult<()> {
        let until = self.rig.t0 + at;
        self.rig.run_until(until, |_| Ok(false))
    }

    /// An independent copy of the run so far (see [`Rig::fork`]), with its
    /// own observers continuing copies of the span log and JSONL text.
    fn fork(&self) -> Stage {
        let spans: SpanLog = Arc::new(Mutex::new(self.spans.lock().unwrap().clone()));
        let jsonl =
            self.jsonl.as_ref().map(|buf| Arc::new(Mutex::new(buf.lock().unwrap().clone())));
        let mut rig = self.rig.fork();
        Stage::watch(&mut rig, &spans, jsonl.as_ref());
        Stage { rig, schema: self.schema, spans, jsonl, stats0: self.stats0 }
    }
}

/// A warm stage: a measured phase parked at the end of a fault-free
/// prefix, from which every cell with the same [`Experiment::prefix_key`]
/// and a fault at that instant or later can fork instead of re-running the
/// prefix. Built by [`Experiment::warm_stage`] or from an earlier stage by
/// [`WarmStage::extended`], consumed by [`Experiment::run_from`];
/// [`Campaign`](crate::Campaign) keeps one per group of cells.
#[derive(Debug)]
pub(crate) struct WarmStage {
    /// Behind a mutex only so that campaign workers can share it (a rig
    /// holds boxed observers, which are not `Sync`): a parked stage is
    /// forked, or taken by its last holder, never run where it stands.
    parked: Mutex<Stage>,
}

impl WarmStage {
    fn park(stage: Stage) -> WarmStage {
        WarmStage { parked: Mutex::new(stage) }
    }

    /// A fork of the parked stage — or, for its last holder, the stage
    /// itself: whoever comes last needs no copy.
    fn resume(this: Arc<WarmStage>) -> Stage {
        const INTACT: &str = "forking a parked stage does not panic";
        match Arc::try_unwrap(this) {
            Ok(last) => last.parked.into_inner().expect(INTACT),
            Err(shared) => shared.parked.lock().expect(INTACT).fork(),
        }
    }

    /// The stage of the same prefix identity at the later instant `at`
    /// after workload start: this one resumed and run on.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`].
    pub(crate) fn extended(this: Arc<WarmStage>, at: SimDuration) -> DbResult<WarmStage> {
        let mut stage = WarmStage::resume(this);
        stage.advance(at)?;
        Ok(WarmStage::park(stage))
    }
}

/// A fully specified experiment, ready to run. Equal experiments have
/// equal outcomes, so a plan may run one for all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    config: RecoveryConfig,
    archive: bool,
    topology: ReplicaTopology,
    policy: FailoverPolicy,
    second_fault_secs: Option<u64>,
    fault: Option<FaultPlan>,
    duration: SimDuration,
    seed: u64,
    scale: TpccScale,
    driver_cfg: DriverConfig,
    layout: DiskLayout,
    capture_events: bool,
}

/// Builder for [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    exp: Experiment,
}

/// Everything one experiment produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// Configuration name (paper scheme).
    pub config_name: String,
    /// Whether ARCHIVELOG mode was on.
    pub archive: bool,
    /// Whether a stand-by database was used.
    pub standby: bool,
    /// Replica topology behind the primary (`none` when unprotected).
    pub topology: String,
    /// Failover policy in force for the replica set.
    pub policy: String,
    /// Failovers the replica set completed during the run.
    pub failovers: u64,
    /// The injected fault, if any.
    pub fault: Option<FaultType>,
    /// Trigger offset in seconds, if a fault was injected.
    pub trigger_secs: Option<u64>,
    /// Emulated terminals driving the workload.
    pub terminals: usize,
    /// Lock waits the engine recorded over the run.
    pub lock_waits: u64,
    /// Deadlocks the engine detected (and broke) over the run.
    pub deadlocks: u64,
    /// The measures.
    pub measures: Measures,
    /// Where the recovery time went, phase by phase. `Some` exactly when
    /// [`Measures::recovery_time_secs`] is `Some`; the phases sum to it.
    pub breakdown: Option<RecoveryBreakdown>,
    /// Per-second committed-transaction buckets over the whole run, from
    /// the end-user point of view.
    pub timeline: AvailabilityTimeline,
    /// The full engine event stream (both servers) as JSONL, when the
    /// experiment was built with
    /// [`capture_events`](ExperimentBuilder::capture_events).
    pub events_jsonl: Option<String>,
    /// Redo records re-applied by the recovery procedure.
    pub recovery_records_applied: u64,
    /// Archive files the recovery procedure processed.
    pub recovery_archives: u64,
    /// Whether the recovery procedure itself failed (the configuration
    /// cannot tolerate this fault — e.g. no archives, no backup).
    pub unrecoverable: bool,
}

impl Experiment {
    /// Starts building an experiment on `config`.
    pub fn builder(config: RecoveryConfig) -> ExperimentBuilder {
        ExperimentBuilder {
            exp: Experiment {
                config,
                archive: true,
                topology: ReplicaTopology::none(),
                policy: FailoverPolicy::Manual,
                second_fault_secs: None,
                fault: None,
                duration: SimDuration::from_secs(1_200),
                seed: 1,
                scale: TpccScale::mini(),
                driver_cfg: DriverConfig::default(),
                layout: DiskLayout::four_disk(),
                capture_events: false,
            },
        }
    }

    /// The configuration under test.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Runs the experiment to completion: builds (or rebuilds) its setup
    /// template, then runs the measured phase from it. Campaigns avoid the
    /// rebuild by sharing templates across cells with equal
    /// [`Experiment::template_key`]s.
    ///
    /// # Errors
    ///
    /// Fails only on *setup* problems (the benchmark itself is
    /// misconfigured); faults and failed recoveries are results, not
    /// errors.
    pub fn run(&self) -> DbResult<ExperimentOutcome> {
        let template = self.build_template()?;
        self.run_with_template(&template)
    }

    /// Identity of this experiment's setup phase: cells whose keys match
    /// produce byte-identical post-setup disk images and may share one
    /// [`ExperimentTemplate`]. Fault plan, duration, driver config and
    /// stand-by topology are deliberately excluded — they only shape the
    /// measured phase.
    pub fn template_key(&self) -> String {
        format!(
            "{:?}|archive={}|{:?}|seed={}|{:?}",
            self.config, self.archive, self.scale, self.seed, self.layout,
        )
    }

    /// Runs the setup phase once — create database, create schema, TPC-C
    /// load, cold backup — and captures the result as a reusable template.
    ///
    /// # Errors
    ///
    /// Fails on setup problems (storage exhaustion, misconfiguration).
    pub fn build_template(&self) -> DbResult<ExperimentTemplate> {
        // Setup events are always captured into the template (they are a
        // few hundred lines); cells that export events prepend them so the
        // stream matches a monolithic run's.
        let jsonl = Arc::new(Mutex::new(String::new()));
        let (primary, schema) = set_up(
            PRIMARY,
            SimClock::shared(),
            self.layout.clone(),
            self.config.to_instance_config(self.archive),
            self.scale,
            self.seed,
            |primary| observe(primary, PRIMARY, None, Some(&jsonl)),
        )?;
        let snapshot = primary.snapshot();
        let setup_jsonl = std::mem::take(&mut *jsonl.lock().unwrap());
        Ok(ExperimentTemplate { snapshot, schema, setup_jsonl, key: self.template_key() })
    }

    /// Identity of this experiment's fault-free prefix: cells whose keys
    /// match run byte-identical measured phases up to the earlier of their
    /// fault instants ([`Experiment::prefix`]) and may share
    /// [`WarmStage`]s. On top of the set-up identity it names everything
    /// that shapes the workload before a fault: terminals and their
    /// pacing, the replica set and its controller, and whether events are
    /// being captured. Fault, second fault and duration are excluded —
    /// they only shape what follows the prefix.
    pub(crate) fn prefix_key(&self) -> String {
        format!(
            "{}|{:?}|{:?}|{:?}|events={}",
            self.template_key(),
            self.driver_cfg,
            self.topology,
            self.policy,
            self.capture_events,
        )
    }

    /// Where this experiment's fault-free prefix ends, as an offset from
    /// workload start: the trigger of a fault that fires within the run.
    /// `None` when no fault ever fires — there is no prefix to share, the
    /// whole run is the tail.
    pub(crate) fn prefix(&self) -> Option<SimDuration> {
        self.fault.as_ref().map(|plan| plan.trigger_after).filter(|at| *at <= self.duration)
    }

    /// Boots the measured phase from a setup template: the rig assembled
    /// and observed, at workload start.
    fn boot(&self, template: &ExperimentTemplate) -> DbResult<Stage> {
        debug_assert_eq!(template.key, self.template_key(), "template/experiment mismatch");
        let spans: SpanLog = Arc::default();
        let jsonl: Option<Arc<Mutex<String>>> =
            self.capture_events.then(|| Arc::new(Mutex::new(template.setup_jsonl.clone())));
        // Boot from the snapshot: the clock lands on the capture instant,
        // so everything downstream is byte-identical to a monolithic run.
        let primary = DbServer::from_snapshot(SimClock::shared(), &template.snapshot);
        let mut rig = Rig::assemble(
            primary,
            template.schema,
            &self.topology,
            self.policy,
            self.driver_cfg,
            self.seed,
            self.duration,
        )?;
        Stage::watch(&mut rig, &spans, jsonl.as_ref());
        let stats0 = rig.primary.stats();
        Ok(Stage { rig, schema: template.schema, spans, jsonl, stats0 })
    }

    /// Builds the warm stage `at` after workload start for this
    /// experiment's prefix identity, from the start of the workload on
    /// `template`.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`].
    pub(crate) fn warm_stage(
        &self,
        template: &ExperimentTemplate,
        at: SimDuration,
    ) -> DbResult<WarmStage> {
        let mut stage = self.boot(template)?;
        stage.advance(at)?;
        Ok(WarmStage::park(stage))
    }

    /// Runs the measured phase from a pre-built setup template: the
    /// fault-free prefix up to the instant the fault is due, then the
    /// tail. This is the reference every forked cell must equal — the same
    /// two steps on one rig, with no fork between them.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`].
    pub fn run_with_template(&self, template: &ExperimentTemplate) -> DbResult<ExperimentOutcome> {
        let mut stage = self.boot(template)?;
        if let Some(at) = self.prefix() {
            stage.advance(at)?;
        }
        self.finish(stage)
    }

    /// Runs the tail of the measured phase from `warm` (see
    /// [`WarmStage::resume`]), which must be a stage of this experiment's
    /// [`Experiment::prefix_key`] at its [`Experiment::prefix`].
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`].
    pub(crate) fn run_from(&self, warm: Arc<WarmStage>) -> DbResult<ExperimentOutcome> {
        let mut stage = WarmStage::resume(warm);
        // The stage may have been built by a cell of another length.
        stage.rig.end = stage.rig.t0 + self.duration;
        self.finish(stage)
    }

    /// The tail: drives `stage` to the end of the run under the fault
    /// policy and evaluates the measures.
    fn finish(&self, stage: Stage) -> DbResult<ExperimentOutcome> {
        let Stage { mut rig, schema, spans, jsonl, stats0 } = stage;
        let (t0, end) = (rig.t0, rig.end);

        let injector = self.fault.clone().map(FaultInjector::new);
        let mut faulted = Faulted::default();
        rig.run(|rig| self.fire_due(rig, injector.as_ref(), &mut faulted))?;
        let Faulted { fault_time, recovery_ready, unrecoverable, .. } = faulted;

        // ---- Evaluate the measures -----------------------------------
        let driver = &rig.driver;
        let active = rig.active();
        let warm_up = SimDuration::from_secs(60).min(self.duration / 10);
        let perf_end = fault_time.unwrap_or(end).min(end);
        let tpmc = driver.tpmc(t0 + warm_up, perf_end);

        let restored_at = recovery_ready.and_then(|ready| driver.first_success_after(ready));
        let (recovery_time_secs, recovered_within_run) = match (fault_time, recovery_ready) {
            (Some(ft), Some(_)) => match restored_at {
                Some(restored) => (Some(restored.saturating_since(ft).as_secs_f64()), true),
                None => (None, false),
            },
            (Some(_), None) => (None, false),
            (None, _) => (None, true),
        };

        // Attribute the recovery window [fault, procedure end] to the
        // phase spans the engine recorded; whatever no span claims is
        // `other`, and the tail until the first client commit is
        // `service_resume`. Spans wrap disjoint clock advances, so the
        // total reproduces `recovery_time_secs` exactly.
        let breakdown = match (fault_time, recovery_ready, restored_at) {
            (Some(ft), Some(ready), Some(restored)) => {
                let mut b = RecoveryBreakdown::default();
                for (span_end, phase, span_start) in spans.lock().unwrap().iter() {
                    let from = (*span_start).max(ft);
                    let to = (*span_end).min(ready);
                    if to <= from {
                        continue;
                    }
                    let us = to.saturating_since(from).as_micros();
                    match phase {
                        RecoveryPhase::Detection => b.detection_us += us,
                        RecoveryPhase::InstanceStartup => b.instance_startup_us += us,
                        RecoveryPhase::MediaRestore => b.media_restore_us += us,
                        RecoveryPhase::RedoScan => b.redo_scan_us += us,
                        RecoveryPhase::RedoApply => b.redo_apply_us += us,
                        RecoveryPhase::TxnRollback => b.txn_rollback_us += us,
                        RecoveryPhase::StandbyActivation => b.standby_activation_us += us,
                    }
                }
                let window = ready.saturating_since(ft).as_micros();
                let attributed = b.total_us();
                b.other_us = window.saturating_sub(attributed);
                b.service_resume_us = restored.saturating_since(ready).as_micros();
                Some(b)
            }
            _ => None,
        };
        let timeline = driver.availability_timeline(t0, end);

        let (lost, violations) = if active.is_open() {
            let lost = driver.audit_lost_orders(active).unwrap_or(0);
            let violations = check_consistency(active, &schema)
                .map(|r| r.violation_count())
                .unwrap_or(u64::MAX);
            (lost, violations)
        } else {
            (0, 0)
        };

        let window = rig.primary.stats().since(&stats0);
        let measures = Measures {
            tpmc,
            recovery_time_secs,
            recovered_within_run,
            lost_transactions: lost,
            integrity_violations: violations,
            checkpoints: window.log_switches,
            log_switches: window.log_switches,
            redo_mb: window.redo_bytes as f64 / (1024.0 * 1024.0),
            client_errors: driver.error_count(),
            total_commits: window.commits,
        };
        let events_jsonl = jsonl.as_ref().map(|buf| std::mem::take(&mut *buf.lock().unwrap()));
        Ok(ExperimentOutcome {
            config_name: self.config.name.clone(),
            archive: self.archive,
            standby: !self.topology.is_empty(),
            topology: self.topology.name().to_string(),
            policy: self.policy.name().to_string(),
            failovers: rig.failovers(),
            fault: self.fault.as_ref().map(|p| p.fault),
            trigger_secs: self.fault.as_ref().map(|p| p.trigger_after.as_micros() / 1_000_000),
            terminals: self.driver_cfg.terminals,
            lock_waits: window.lock_waits,
            deadlocks: window.deadlocks,
            measures,
            breakdown,
            timeline,
            events_jsonl,
            recovery_records_applied: faulted.records_applied,
            recovery_archives: faulted.archives_processed,
            unrecoverable,
        })
    }

    /// The paper's fault policy: the one fault fires the moment its
    /// trigger is the next event on the timeline and is answered by the
    /// recovery procedure — or, with replicas, always by a failover; the
    /// optional second fault kills the node that failover promoted.
    fn fire_due(
        &self,
        rig: &mut Rig,
        injector: Option<&FaultInjector>,
        st: &mut Faulted,
    ) -> DbResult<bool> {
        if let (Some(inj), None) = (injector, st.fault_time) {
            let tt = inj.trigger_time(rig.t0);
            // Terminals ready before the trigger run first.
            if tt <= rig.driver.next_ready() && tt <= rig.end {
                rig.clock.advance_to(tt);
                rig.ship()?;
                let record = rig.inject(inj)?;
                st.fault_time = Some(record.injected_at);
                if rig.replicas.is_some() {
                    // Fail over to the replica set, whatever the fault.
                    st.recovery_ready = rig.failover();
                    st.unrecoverable = st.recovery_ready.is_none();
                    st.records_applied =
                        rig.replicas.as_ref().map_or(0, ReplicaSet::promoted_records_applied);
                } else {
                    match inj.recover(&mut rig.primary, &record) {
                        Ok(out) => {
                            st.recovery_ready = Some(out.recovery_finished_at);
                            st.records_applied = out.records_applied;
                            st.archives_processed = out.archives_processed;
                        }
                        Err(_) => st.unrecoverable = true,
                    }
                }
                return Ok(true);
            }
        }
        if let (Some(secs), false, true) = (self.second_fault_secs, st.second_done, rig.failed_over())
        {
            let at = rig.t0 + SimDuration::from_secs(secs);
            if at <= rig.end && (at <= rig.clock.now() || at <= rig.driver.next_ready()) {
                rig.clock.advance_to(at);
                st.second_done = true;
                if let Ok((_, None)) = rig.double_fault() {
                    st.unrecoverable = true;
                }
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// What the fault policy has done so far in one run.
#[derive(Debug, Default)]
struct Faulted {
    fault_time: Option<SimTime>,
    recovery_ready: Option<SimTime>,
    records_applied: u64,
    archives_processed: u64,
    unrecoverable: bool,
    second_done: bool,
}

impl ExperimentBuilder {
    /// Injects `fault` at `trigger_after_secs` after workload start.
    pub fn fault(mut self, fault: FaultType, trigger_after_secs: u64) -> Self {
        self.exp.fault = Some(FaultPlan::new(fault, trigger_after_secs));
        self
    }

    /// Enables or disables ARCHIVELOG mode (default: on).
    pub fn archive_logs(mut self, on: bool) -> Self {
        self.exp.archive = on;
        self
    }

    /// Puts a replica set of shape `topo` behind the primary, which takes
    /// over on the fault ([`ReplicaTopology::single`] is the paper's one
    /// stand-by database).
    pub fn topology(mut self, topo: ReplicaTopology) -> Self {
        self.exp.topology = topo;
        self
    }

    /// Selects who may decide the primary is dead, and how.
    pub fn failover_policy(mut self, policy: FailoverPolicy) -> Self {
        self.exp.policy = policy;
        self
    }

    /// Kills the promoted replica `secs` after workload start (the
    /// double-fault scenario). Only fires after a first fault has already
    /// failed the service over to the replica set.
    pub fn second_fault_secs(mut self, secs: u64) -> Self {
        self.exp.second_fault_secs = Some(secs);
        self
    }

    /// Experiment duration in simulated seconds (paper: 1 200).
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.exp.duration = SimDuration::from_secs(secs);
        self
    }

    /// RNG seed for the whole experiment.
    pub fn seed(mut self, seed: u64) -> Self {
        self.exp.seed = seed;
        self
    }

    /// TPC-C scale (default [`TpccScale::mini`]).
    pub fn scale(mut self, scale: TpccScale) -> Self {
        self.exp.scale = scale;
        self
    }

    /// Terminal-driver configuration.
    pub fn driver(mut self, cfg: DriverConfig) -> Self {
        self.exp.driver_cfg = cfg;
        self
    }

    /// Captures the full engine event stream (both servers) into
    /// [`ExperimentOutcome::events_jsonl`] for export. Off by default —
    /// long runs generate tens of thousands of events.
    pub fn capture_events(mut self, on: bool) -> Self {
        self.exp.capture_events = on;
        self
    }

    /// Disk layout for the primary server (default: the paper's four-disk
    /// layout). [`DiskLayout::single_disk`] reproduces the "incorrect
    /// distribution of files through disks" operator-fault class as a
    /// standing misconfiguration.
    pub fn layout(mut self, layout: DiskLayout) -> Self {
        self.exp.layout = layout;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Experiment {
        self.exp
    }

    /// Builds and runs in one call.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run(self) -> DbResult<ExperimentOutcome> {
        self.exp.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(config: &str) -> ExperimentBuilder {
        Experiment::builder(RecoveryConfig::named(config).unwrap())
            .duration_secs(180)
            .scale(TpccScale::tiny())
            .seed(7)
    }

    #[test]
    fn fault_free_run_measures_throughput() {
        let out = quick("F10G3T5").run().unwrap();
        assert!(out.measures.tpmc > 0.0, "tpmC must be positive, got {}", out.measures.tpmc);
        assert!(out.measures.recovery_time_secs.is_none());
        assert_eq!(out.measures.integrity_violations, 0);
        assert_eq!(out.measures.lost_transactions, 0);
        assert_eq!(out.measures.client_errors, 0);
        assert!(!out.unrecoverable);
    }

    #[test]
    fn shutdown_abort_recovers_completely() {
        let out = quick("F10G3T5").fault(FaultType::ShutdownAbort, 60).run().unwrap();
        let rt = out.measures.recovery_time_secs.expect("service must return");
        assert!(rt > 5.0, "instance restart takes at least the startup cost, got {rt}");
        assert!(rt < 120.0, "crash recovery is fast, got {rt}");
        assert_eq!(out.measures.lost_transactions, 0, "complete recovery");
        assert_eq!(out.measures.integrity_violations, 0);
        assert!(rt > 10.0, "recovery time includes detection + instance startup, got {rt}");
    }

    #[test]
    fn drop_table_loses_the_tail_but_stays_consistent() {
        let out = quick("F10G3T5").duration_secs(600).fault(FaultType::DeleteUsersObject, 60).run().unwrap();
        assert!(out.measures.recovery_time_secs.is_some(), "PITR must complete in 540 s");
        assert!(out.measures.integrity_violations == 0);
        // Detection takes a second; a few transactions commit between the
        // stop SCN and the service stopping.
        assert!(out.measures.lost_transactions > 0, "incomplete recovery loses the tail");
        assert!(out.recovery_records_applied > 0);
    }

    #[test]
    fn standby_failover_bounds_recovery_time() {
        let out = quick("F1G3T1")
            .duration_secs(420)
            .topology(ReplicaTopology::single())
            .fault(FaultType::ShutdownAbort, 120)
            .run()
            .unwrap();
        assert!(out.standby);
        let rt = out.measures.recovery_time_secs.expect("failover completes");
        assert!(rt < 90.0, "standby activation is fast, got {rt}");
        assert_eq!(out.measures.integrity_violations, 0);
    }

    #[test]
    fn noarchivelog_cannot_recover_deleted_datafile_after_reuse() {
        let out = quick("F1G3T1")
            .archive_logs(false)
            .duration_secs(300)
            .fault(FaultType::DeleteDatafile, 120)
            .run()
            .unwrap();
        assert!(out.unrecoverable, "1 MB logs cycle well before 120 s; redo is gone");
        assert!(!out.measures.recovered_within_run);
    }

    #[test]
    fn same_seed_reproduces_the_outcome_exactly() {
        // Regression guard for the hot-path work: buffer reuse, shared
        // row bytes and fixed-seed hashing must not leak any run-to-run state
        // into results. Two runs of the same experiment must agree on
        // every field, not just roughly.
        let run = || {
            quick("F10G3T5")
                .fault(FaultType::ShutdownAbort, 60)
                .capture_events(true)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give a byte-identical outcome");
        let stream = a.events_jsonl.as_deref().expect("capture was requested");
        assert!(!stream.is_empty() && stream.ends_with('\n'));
        assert_eq!(
            a.events_jsonl, b.events_jsonl,
            "same seed must give a byte-identical event stream"
        );
    }

    #[test]
    fn eight_contended_terminals_wait_deadlock_and_stay_consistent() {
        // The acceptance cell for the session API: eight terminals on the
        // tiny two-district database with near-zero think times, so every
        // district and stock row is fought over. The run must exhibit real
        // lock waits *and* at least one broken deadlock, keep the TPC-C
        // consistency conditions intact, and stay byte-deterministic.
        let contended = DriverConfig {
            terminals: 8,
            mean_think: SimDuration::from_micros(200),
            mean_keying: SimDuration::from_micros(50),
            retry_interval: SimDuration::from_millis(100),
        };
        let run = || {
            quick("F10G3T5")
                .duration_secs(1)
                .driver(contended)
                .capture_events(true)
                .run()
                .unwrap()
        };
        let a = run();
        assert_eq!(a.terminals, 8);
        assert_eq!(a.measures.integrity_violations, 0, "interleaving must not corrupt data");
        assert_eq!(a.measures.client_errors, 0, "deadlock aborts are replayed, not surfaced");
        assert!(a.lock_waits >= 1, "contended run saw no lock waits");
        assert!(a.deadlocks >= 1, "contended run broke no deadlocks");
        let stream = a.events_jsonl.as_deref().expect("capture was requested");
        assert!(stream.contains("lock_wait"), "event log records the waits");
        assert!(stream.contains("deadlock_victim"), "event log records the victim");
        let b = run();
        assert_eq!(a, b, "same seed, same terminals: byte-identical outcome");
    }

    #[test]
    fn breakdown_phases_sum_to_the_recovery_time() {
        let out = quick("F10G3T5").fault(FaultType::ShutdownAbort, 60).run().unwrap();
        let b = out.breakdown.expect("recovered runs carry a breakdown");
        let rt_us = (out.measures.recovery_time_secs.unwrap() * 1e6).round() as u64;
        assert!(
            b.total_us().abs_diff(rt_us) <= 1,
            "breakdown {}µs vs recovery time {}µs",
            b.total_us(),
            rt_us
        );
        assert!(b.detection_us > 0, "operator detection is never instant");
        assert!(b.instance_startup_us > 0, "a crash restart pays the startup cost");
        assert!(b.redo_apply_us > 0, "crash recovery replays redo");
        assert_eq!(b.standby_activation_us, 0, "no stand-by in this run");
    }

    #[test]
    fn fault_free_runs_have_no_breakdown_but_a_full_timeline() {
        let out = quick("F10G3T5").run().unwrap();
        assert!(out.breakdown.is_none());
        assert!(out.events_jsonl.is_none(), "capture defaults to off");
        assert!(out.timeline.total() > 0, "a healthy run commits in every bucket");
        assert!(out.timeline.first_error_us.is_none());
        assert!(out.timeline.service_return_us.is_none());
    }
}
